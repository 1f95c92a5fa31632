//! The barrier skeleton: statements that contain a barrier become nodes
//! with uniform control; loops that stay loops get an iteration prologue.

use hidet_ir::{Expr, Stmt};

use super::map::Map;
use super::place::{Place, Ty, Val};
use super::{Fragment, Lowerer, OpenLoop, Stretch, Touch};
use crate::interp::program::{Control, Node, Op, RangeKind, Reg};

/// Names a statement leaves bound after it ran although it is not a
/// sequence: a `Let` that is an `If` branch or a loop body. The tree walker
/// kept such a binding alive until the enclosing scope ended — on the paths
/// that executed it. Here the name is poisoned for that long instead
/// (`None` in the environment): a reference raises `UnboundVar`.
pub(super) fn leaked<'s>(s: &'s Stmt, out: &mut Vec<&'s str>) {
    match s {
        Stmt::Let { var, .. } => out.push(var.name()),
        Stmt::If {
            then_body,
            else_body,
            ..
        } => {
            leaked(then_body, out);
            if let Some(e) = else_body {
                leaked(e, out);
            }
        }
        _ => {}
    }
}

impl<'k> Lowerer<'k> {
    /// Opens a loop that stays a loop — around a barrier (`skeleton`) or
    /// inside a leaf: binds its variable, running to `extent` and fixed for
    /// an iteration of this loop, and poisons what the body would leak from
    /// one iteration into the next.
    pub(super) fn open_loop(
        &mut self,
        name: &'k str,
        var: Reg,
        extent: Val,
        body: &'k Stmt,
        skeleton: bool,
    ) {
        // The body only runs while `0 <= var < extent`.
        let range = match (extent.ty, extent.range) {
            (Ty::I64, Some((_, hi))) if hi >= 1 => Some((0, hi - 1)),
            _ => None,
        };
        self.loops.push(OpenLoop {
            var,
            id: self.n_loops,
            trips: range.map(|(_, last)| last + 1),
            skeleton,
            prologue: Vec::new(),
            hoisted: Map::default(),
        });
        self.n_loops += 1;
        let val = Val {
            reg: var,
            ty: Ty::I64,
            place: Place::Loop(self.loops.len() as u32),
            // Threads that agree on the extent count the same iterations.
            uniform: skeleton || extent.uniform,
            by_block: extent.by_block,
            range,
            root: None,
        };
        self.env.push((name, Some(val)));
        self.poison_leaked(body);
    }

    /// Closes the innermost open loop; returns its iteration prologue.
    pub(super) fn close_loop(&mut self) -> Vec<Op> {
        self.loops.pop().expect("a loop is open").prologue
    }

    pub(super) fn poison_leaked(&mut self, s: &'k Stmt) {
        let mut names = Vec::new();
        leaked(s, &mut names);
        self.env.extend(names.into_iter().map(|n| (n, None)));
    }

    // ---- the lockstep skeleton -------------------------------------------

    /// Adds a node to the skeleton; `range` is the one its code is.
    pub(super) fn push_node(&mut self, node: Node, range: Option<u32>) -> u32 {
        self.p.nodes.push(node);
        self.p.node_range.push(range.unwrap_or(u32::MAX));
        self.p.nodes.len() as u32 - 1
    }

    /// Moves a finished fragment into the program; returns where it sits.
    pub(super) fn place_code(&mut self, code: Vec<Op>) -> (u32, u32) {
        let start = self.main.len() as u32;
        self.main.extend(code);
        (start, self.main.len() as u32)
    }

    /// Moves a finished fragment the skeleton runs for the whole block into
    /// the program; returns where it sits and which range it is.
    fn place_range(&mut self, kind: RangeKind, part: Fragment) -> ((u32, u32), u32) {
        let (start, end) = self.place_code(part.code);
        // A touch equal to the previous touch of its buffer — the same load
        // in two unrolled copies that differ elsewhere — adds no element and
        // no thread to any footprint: the proofs never see it.
        let mut touches: Vec<Touch> = Vec::with_capacity(part.touches.len());
        for touch in part.touches {
            let previous = touches.iter().rev().find(|t| t.buffer == touch.buffer);
            if previous != Some(&touch) {
                touches.push(touch);
            }
        }
        self.stretches.push(Stretch {
            kind,
            start,
            end,
            may_fault: part.may_fault,
            divergent: part.divergent,
            by_block: part.by_block,
            touches,
        });
        ((start, end), self.stretches.len() as u32 - 1)
    }

    /// Lowers a statement executed by the whole block. A subtree with a
    /// barrier in it becomes skeleton nodes; a barrier-free one becomes one
    /// leaf that every thread runs to completion (`None` if it needs no
    /// code at all).
    pub(super) fn node(&mut self, s: &'k Stmt) -> Option<u32> {
        if !s.contains_sync() {
            let ((), leaf) = self.capture(|l| l.stmt(s));
            if leaf.code.is_empty() {
                return None;
            }
            let ((start, end), range) = self.place_range(RangeKind::Leaf, leaf);
            return Some(self.push_node(Node::Thread { start, end }, Some(range)));
        }
        let mark = self.temp_top;
        let scope = self.env.len();
        match s {
            Stmt::Seq(items) => {
                let kids: Vec<u32> = items.iter().filter_map(|item| self.node(item)).collect();
                self.env.truncate(scope);
                self.temp_top = mark;
                Some(self.seq_node(kids))
            }
            Stmt::For {
                var, extent, body, ..
            } => {
                let (extent, n) = self.control(extent, "loop extent");
                let var_reg = self.temp(Ty::I64);
                self.open_loop(var.name(), var_reg, n, body, true);
                let body = self.node(body);
                let body = body.unwrap_or_else(|| self.seq_node(Vec::new()));
                self.env.truncate(scope);
                self.temp_top = mark;
                // (A prologue cannot fault and has no control flow: only
                // instructions that cannot fault are hoisted.)
                let prologue = Fragment {
                    code: self.close_loop(),
                    ..Fragment::default()
                };
                let (prologue, range) = self.place_range(RangeKind::Prologue, prologue);
                let node = Node::For {
                    extent,
                    var: var_reg,
                    prologue,
                    body,
                };
                Some(self.push_node(node, Some(range)))
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let (cond, _) = self.control(cond, "branch condition");
                self.temp_top = mark;
                let branch = |l: &mut Self, body: &'k Stmt| {
                    let node = l.node(body);
                    l.env.truncate(scope);
                    l.temp_top = mark;
                    node
                };
                let then_node = branch(self, then_body);
                let then_node = then_node.unwrap_or_else(|| self.seq_node(Vec::new()));
                let else_node = else_body.as_deref().and_then(|e| branch(self, e));
                self.poison_leaked(s);
                let node = Node::If {
                    cond,
                    then_node,
                    else_node,
                };
                Some(self.push_node(node, None))
            }
            // A barrier needs no code: the skeleton runs in lockstep. Leaves
            // never contain one, so nothing else gets here.
            _ => None,
        }
    }

    pub(super) fn seq_node(&mut self, kids: Vec<u32>) -> u32 {
        let first = self.p.children.len() as u32;
        let len = kids.len() as u32;
        self.p.children.extend(kids);
        self.push_node(Node::Seq { first, len }, None)
    }

    /// A loop extent or branch condition that encloses a barrier.
    pub(super) fn control(&mut self, e: &'k Expr, what: &str) -> (Control, Val) {
        let (v, part) = self.capture(|l| {
            let v = l.expr(e);
            l.in_reg(v)
        });
        let (start, end) = self.place_code(part.code);
        let control = Control {
            start,
            end,
            reg: v.reg,
            uniform: v.uniform && !part.may_fault,
            grid_uniform: v.uniform && !part.may_fault && !v.by_block,
            message: format!("{what} {e} differs across threads"),
        };
        (control, v)
    }
}
