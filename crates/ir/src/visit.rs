//! Visitors and rewriters over expressions and statements.
//!
//! Expressions are shared sub-trees ([`crate::expr`]), so a rewrite builds
//! only what it changes: [`rewrite_expr`] and [`substitute`] return each
//! unchanged sub-tree as the same allocation and rebuild just the nodes on
//! the path from a replaced node to the root. Statements are owned trees and
//! are rebuilt by the statement rewriters.

use std::sync::Arc;

use crate::expr::{Expr, Var};
use crate::stmt::Stmt;

/// Rewrites an expression bottom-up: children are rewritten first, then `f` is
/// offered the rebuilt node; returning `Some` replaces it. A sub-tree in which
/// `f` replaces nothing is returned as it is, shared.
pub fn rewrite_expr(e: &Expr, f: &mut impl FnMut(&Expr) -> Option<Expr>) -> Expr {
    rewritten(e, f).unwrap_or_else(|| e.clone())
}

/// `e` rewritten as by [`rewrite_expr`], or `None` when `f` replaces nothing
/// in it.
pub(crate) fn rewritten(e: &Expr, f: &mut impl FnMut(&Expr) -> Option<Expr>) -> Option<Expr> {
    match map_operands(e, |o| rewritten(o, f)) {
        Some(node) => Some(f(&node).unwrap_or(node)),
        None => f(e),
    }
}

/// `e` with each operand `o` (in order) taken as `f(o)` where that is
/// `Some`, or `None` when it is `None` for all of them: the node is rebuilt
/// only when an operand changed, and the unchanged operands are shared.
fn map_operands(e: &Expr, mut f: impl FnMut(&Expr) -> Option<Expr>) -> Option<Expr> {
    fn keep(old: &Arc<Expr>, new: Option<Expr>) -> Arc<Expr> {
        new.map_or_else(|| old.clone(), Arc::new)
    }
    match e {
        Expr::Int(_)
        | Expr::Float(_)
        | Expr::Bool(_)
        | Expr::Var(_)
        | Expr::ThreadIdx
        | Expr::BlockIdx => None,
        Expr::Binary { op, lhs, rhs } => {
            let (l, r) = (f(lhs), f(rhs));
            (l.is_some() || r.is_some()).then(|| Expr::Binary {
                op: *op,
                lhs: keep(lhs, l),
                rhs: keep(rhs, r),
            })
        }
        Expr::Unary { op, operand } => f(operand).map(|o| Expr::Unary {
            op: *op,
            operand: Arc::new(o),
        }),
        Expr::Load { buffer, indices } => map_all(indices, f).map(|indices| Expr::Load {
            buffer: buffer.clone(),
            indices,
        }),
        Expr::Cast { dtype, value } => f(value).map(|v| Expr::Cast {
            dtype: *dtype,
            value: Arc::new(v),
        }),
        Expr::Select {
            cond,
            then_value,
            else_value,
        } => {
            let (c, t, e) = (f(cond), f(then_value), f(else_value));
            (c.is_some() || t.is_some() || e.is_some()).then(|| Expr::Select {
                cond: keep(cond, c),
                then_value: keep(then_value, t),
                else_value: keep(else_value, e),
            })
        }
    }
}

/// `items` with each item `x` (in order) taken as `f(x)` where that is
/// `Some`, or `None` when it is `None` for all of them.
fn map_all(items: &[Expr], mut f: impl FnMut(&Expr) -> Option<Expr>) -> Option<Vec<Expr>> {
    let mut out: Option<Vec<Expr>> = None;
    for (i, item) in items.iter().enumerate() {
        match (f(item), &mut out) {
            (Some(new), Some(done)) => done.push(new),
            (Some(new), None) => {
                let mut done = Vec::with_capacity(items.len());
                done.extend_from_slice(&items[..i]);
                done.push(new);
                out = Some(done);
            }
            (None, Some(done)) => done.push(item.clone()),
            (None, None) => {}
        }
    }
    out
}

/// Rewrites every expression embedded in a statement tree (bottom-up per
/// expression; statements are preserved structurally).
pub fn rewrite_stmt_exprs(s: &Stmt, f: &mut impl FnMut(&Expr) -> Option<Expr>) -> Stmt {
    match s {
        Stmt::Seq(items) => Stmt::Seq(items.iter().map(|i| rewrite_stmt_exprs(i, f)).collect()),
        Stmt::For {
            var,
            extent,
            body,
            unroll,
        } => Stmt::For {
            var: var.clone(),
            extent: rewrite_expr(extent, f),
            body: Box::new(rewrite_stmt_exprs(body, f)),
            unroll: *unroll,
        },
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => Stmt::If {
            cond: rewrite_expr(cond, f),
            then_body: Box::new(rewrite_stmt_exprs(then_body, f)),
            else_body: else_body
                .as_deref()
                .map(|e| Box::new(rewrite_stmt_exprs(e, f))),
        },
        Stmt::Let { var, value } => Stmt::Let {
            var: var.clone(),
            value: rewrite_expr(value, f),
        },
        Stmt::Store {
            buffer,
            indices,
            value,
        } => Stmt::Store {
            buffer: buffer.clone(),
            indices: indices.iter().map(|i| rewrite_expr(i, f)).collect(),
            value: rewrite_expr(value, f),
        },
        Stmt::SyncThreads | Stmt::Nop | Stmt::Comment(_) => s.clone(),
    }
}

/// Calls `f` on every expression node in a statement tree (pre-order).
pub fn visit_exprs(s: &Stmt, f: &mut impl FnMut(&Expr)) {
    fn walk_expr(e: &Expr, f: &mut impl FnMut(&Expr)) {
        f(e);
        match e {
            Expr::Binary { lhs, rhs, .. } => {
                walk_expr(lhs, f);
                walk_expr(rhs, f);
            }
            Expr::Unary { operand, .. } => walk_expr(operand, f),
            Expr::Load { indices, .. } => indices.iter().for_each(|i| walk_expr(i, f)),
            Expr::Cast { value, .. } => walk_expr(value, f),
            Expr::Select {
                cond,
                then_value,
                else_value,
            } => {
                walk_expr(cond, f);
                walk_expr(then_value, f);
                walk_expr(else_value, f);
            }
            _ => {}
        }
    }
    match s {
        Stmt::Seq(items) => items.iter().for_each(|i| visit_exprs(i, f)),
        Stmt::For { extent, body, .. } => {
            walk_expr(extent, f);
            visit_exprs(body, f);
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => {
            walk_expr(cond, f);
            visit_exprs(then_body, f);
            if let Some(e) = else_body {
                visit_exprs(e, f);
            }
        }
        Stmt::Let { value, .. } => walk_expr(value, f),
        Stmt::Store { indices, value, .. } => {
            indices.iter().for_each(|i| walk_expr(i, f));
            walk_expr(value, f);
        }
        Stmt::SyncThreads | Stmt::Nop | Stmt::Comment(_) => {}
    }
}

/// Statement plus expression nodes of a statement tree: the size of a kernel
/// body, as the benchmark's `ir.kernel_nodes` counts it.
pub fn count_nodes(s: &Stmt) -> usize {
    fn statements(s: &Stmt) -> usize {
        1 + match s {
            Stmt::Seq(items) => items.iter().map(statements).sum(),
            Stmt::For { body, .. } => statements(body),
            Stmt::If {
                then_body,
                else_body,
                ..
            } => statements(then_body) + else_body.as_deref().map_or(0, statements),
            _ => 0,
        }
    }
    let mut expressions = 0;
    visit_exprs(s, &mut |_| expressions += 1);
    statements(s) + expressions
}

/// Substitutes `value` for every occurrence of `var` in `e`.
pub fn substitute(e: &Expr, var: &Var, value: &Expr) -> Expr {
    rewrite_expr(e, &mut |node| match node {
        Expr::Var(v) if v == var => Some(value.clone()),
        _ => None,
    })
}

/// Substitutes a variable throughout a statement tree.
pub fn substitute_stmt(s: &Stmt, var: &Var, value: &Expr) -> Stmt {
    rewrite_stmt_exprs(s, &mut |node| match node {
        Expr::Var(v) if v == var => Some(value.clone()),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{Buffer, MemScope};
    use crate::builder::{c, store, thread_idx};
    use crate::dtype::DType;

    #[test]
    fn substitute_replaces_all_occurrences() {
        let v = Var::index("i");
        let e = v.expr() + v.expr() * 2;
        let out = substitute(&e, &v, &c(3));
        assert_eq!(out.to_string(), "(3 + (3 * 2))");
    }

    #[test]
    fn rewrite_is_bottom_up() {
        // Replace Int(1) with Int(2), then the parent sees the new child.
        let e = Expr::Int(1) + Expr::Int(1);
        let mut adds_seen = 0;
        let out = rewrite_expr(&e, &mut |node| match node {
            Expr::Int(1) => Some(Expr::Int(2)),
            Expr::Binary { .. } => {
                adds_seen += 1;
                None
            }
            _ => None,
        });
        assert_eq!(out.to_string(), "(2 + 2)");
        assert_eq!(adds_seen, 1);
    }

    #[test]
    fn visit_exprs_counts_loads() {
        let b = Buffer::new("A", MemScope::Global, DType::F32, &[4]);
        let s = store(
            &b,
            vec![thread_idx()],
            crate::builder::load(&b, vec![c(0)]) + 1.0f32,
        );
        let mut loads = 0;
        visit_exprs(&s, &mut |e| {
            if matches!(e, Expr::Load { .. }) {
                loads += 1;
            }
        });
        assert_eq!(loads, 1);
    }

    #[test]
    fn substitute_stmt_reaches_loop_extents() {
        let v = Var::index("n");
        let s = Stmt::For {
            var: Var::index("i"),
            extent: v.expr(),
            body: Box::new(Stmt::Nop),
            unroll: false,
        };
        let out = substitute_stmt(&s, &v, &c(8));
        assert!(out.to_string().contains("0..8"));
    }
}
