//! Expression lowering: every node becomes at most one instruction, placed
//! by its operands.

use hidet_ir::{BinOp, Expr};

use super::guard::Facts;
use super::linear::Linear;
use super::place::{binary_range, binary_rule, unary_rule, Place, Ty, Val};
use super::{Fragment, Lowerer};
use crate::interp::program::{Op, Reg};
use crate::interp::SimError;
use crate::value::Value;

impl<'k> Lowerer<'k> {
    // ---- expressions -----------------------------------------------------

    /// Lowers `e`; what the guards around it say about its value included.
    pub(super) fn expr(&mut self, e: &'k Expr) -> Val {
        let v = self.node_value(e);
        self.bounded(v)
    }

    fn node_value(&mut self, e: &'k Expr) -> Val {
        let mark = self.temp_top;
        match e {
            Expr::Int(v) => self.konst(Value::I64(*v)),
            Expr::Float(v) => self.konst(Value::F32(*v)),
            Expr::Bool(v) => self.konst(Value::Bool(*v)),
            Expr::ThreadIdx => Val {
                reg: self.p.thread_idx,
                ty: Ty::I64,
                place: Place::Lane,
                uniform: false,
                by_block: false,
                range: Some((0, self.kernel.launch().block_dim - 1)),
                root: None,
            },
            // The only block of its grid: what would be block-level is
            // constant, and what would be thread-level is lane-level.
            Expr::BlockIdx if self.kernel.launch().grid_dim == 1 => self.konst(Value::I64(0)),
            Expr::BlockIdx => Val {
                reg: self.p.block_idx,
                ty: Ty::I64,
                place: Place::Block,
                uniform: true,
                by_block: true,
                range: Some((0, self.kernel.launch().grid_dim - 1)),
                root: None,
            },
            Expr::Var(v) => match self.env.iter().rev().find(|(n, _)| *n == v.name()) {
                Some((_, Some(val))) => *val,
                _ => self.trap(SimError::UnboundVar(v.name().to_string())),
            },
            Expr::Binary { op, lhs, rhs } => {
                let a = self.expr(lhs);
                let b = self.expr(rhs);
                self.temp_top = mark;
                self.binary(*op, a, b)
            }
            Expr::Unary { op, operand } => {
                let a = self.expr(operand);
                self.temp_top = mark;
                let (ty, faults) = unary_rule(*op, a.ty);
                if let (false, Some(x)) = (faults, self.const_value(a)) {
                    if let Some(v) = Value::unary(*op, x) {
                        return self.konst(v);
                    }
                }
                let val = Val {
                    reg: 0,
                    ty,
                    place: if faults { Place::Body } else { a.place },
                    uniform: !faults && a.uniform,
                    by_block: faults || a.by_block,
                    range: None,
                    root: None,
                };
                let op = Op::Un {
                    op: *op,
                    dst: 0,
                    a: a.reg,
                };
                self.emit(op, val, faults)
            }
            Expr::Cast { dtype, value } => {
                let a = self.expr(value);
                self.temp_top = mark;
                if let Some(x) = self.const_value(a) {
                    return self.konst(x.cast(*dtype));
                }
                let ty = Ty::of(Value::I64(0).cast(*dtype));
                let range = if (a.ty, ty) == (Ty::I64, Ty::I64) {
                    a.range
                } else {
                    None
                };
                let op = Op::Cast {
                    dtype: *dtype,
                    dst: 0,
                    a: a.reg,
                };
                let val = Val {
                    ty,
                    range,
                    root: None,
                    ..a
                };
                self.emit(op, val, false)
            }
            Expr::Select {
                cond,
                then_value,
                else_value,
            } => self.select(cond, then_value, else_value),
            Expr::Load { buffer, indices } => {
                let site = match self.access(buffer, indices, false) {
                    Ok(site) => site,
                    Err(trapped) => return trapped,
                };
                let load = Val::body(site.operand, Ty::F32);
                if site.proven {
                    // Left to its consumer — which reads the index registers
                    // then, so their temporaries stay allocated until it has.
                    return load;
                }
                self.temp_top = mark;
                self.frag.may_fault = true;
                self.in_reg(load)
            }
        }
    }

    /// `a <op> b` over lowered operands: folded, hoisted or emitted in place
    /// — and, where it is index arithmetic the block computes once per
    /// block, thread or iteration, remembered as the sum it is.
    pub(super) fn binary(&mut self, op: BinOp, a: Val, b: Val) -> Val {
        let mut val = self.arithmetic(op, a, b);
        let kept = !matches!(val.place, Place::Const | Place::Lane | Place::Body);
        if kept && val.ty == Ty::I64 && matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul) {
            if let Some(sum) = self.sum(op, a, b) {
                self.linear_of.insert(val.reg, sum);
                return val;
            }
        }
        val.root = self.chained(op, a, b, val);
        val
    }

    /// [`Lowerer::binary`] without the memory: for sums nothing will ask
    /// the parts of.
    pub(super) fn arithmetic(&mut self, op: BinOp, a: Val, b: Val) -> Val {
        let (ty, faults) = binary_rule(op, a.ty, b.ty, self.const_value(b));
        if let (false, Some(x), Some(y)) = (faults, self.const_value(a), self.const_value(b)) {
            if let Some(v) = Value::binary(op, x, y) {
                return self.konst(v);
            }
        }
        let val = Val {
            reg: 0,
            ty,
            place: if faults {
                Place::Body
            } else {
                a.place.join(b.place)
            },
            uniform: !faults && a.uniform && b.uniform,
            by_block: faults || a.by_block || b.by_block,
            range: match ty {
                Ty::I64 => binary_range(op, a.range, b.range),
                _ => None,
            },
            root: None,
        };
        let op = Op::Bin {
            op,
            dst: 0,
            a: a.reg,
            b: b.reg,
        };
        self.emit(op, val, faults)
    }

    /// `a <op> b` as a sum of what `a` and `b` are sums of, for `+`, `-` and
    /// `*` by a constant.
    fn sum(&self, op: BinOp, a: Val, b: Val) -> Option<Linear> {
        let (a, b) = (self.linear(a)?, self.linear(b)?);
        match op {
            BinOp::Add => a.plus(&b, 1),
            BinOp::Sub => a.plus(&b, -1),
            _ => match (a.as_konst(), b.as_konst()) {
                (_, Some(by)) => Linear::konst(0).plus(&a, by),
                (Some(by), _) => Linear::konst(0).plus(&b, by),
                _ => None,
            },
        }
    }

    /// `cond ? a : b` evaluates only the branch it takes. When neither
    /// branch needs code of its own that is a plain `Select`, which may be
    /// hoisted like any other operation; otherwise a branch around the two.
    fn select(&mut self, cond: &'k Expr, then_value: &'k Expr, else_value: &'k Expr) -> Val {
        let mark = self.temp_top;
        let (c, facts) = self.guard(cond);
        if let Some(Value::Bool(taken)) = self.const_value(c) {
            return self.expr(if taken { then_value } else { else_value });
        }
        let c = self.in_reg(c);
        let after_cond = self.temp_top;
        let (t, t_part) = self.assuming(&facts, |l| l.capture(|l| l.expr(then_value)));
        self.temp_top = after_cond;
        let otherwise = Facts::otherwise(c);
        let (e, e_part) = self.assuming(&otherwise, |l| l.capture(|l| l.expr(else_value)));
        self.temp_top = mark;
        let ty = if t.ty == e.ty { t.ty } else { Ty::Dyn };
        let cond_faults = c.ty != Ty::Bool;
        if t_part.code.is_empty() && e_part.code.is_empty() {
            let val = Val {
                reg: 0,
                ty,
                place: if cond_faults {
                    Place::Body
                } else {
                    c.place.join(t.place).join(e.place)
                },
                uniform: !cond_faults && c.uniform && t.uniform && e.uniform,
                by_block: cond_faults || c.by_block || t.by_block || e.by_block,
                range: t
                    .range
                    .zip(e.range)
                    .map(|(t, e)| (t.0.min(e.0), t.1.max(e.1))),
                root: None,
            };
            let op = Op::Select {
                dst: 0,
                cond: c.reg,
                a: t.reg,
                b: e.reg,
            };
            return self.emit(op, val, cond_faults);
        }
        let dst = self.temp(ty);
        let deliver = |mut part: Fragment, src: Reg| {
            if src != dst {
                part.code.push(Op::Mov { dst, src });
            }
            part
        };
        let else_part = deliver(e_part, e.reg);
        let then_part = deliver(t_part, t.reg);
        self.branch(c, true, then_part, else_part);
        Val::body(dst, ty)
    }
}
