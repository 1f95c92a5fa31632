//! Visitors and rewriters over expressions and statements.

use crate::buffer::BufferRef;
use crate::expr::{Expr, Var};
use crate::stmt::Stmt;

/// Rewrites an expression bottom-up: children are rewritten first, then `f` is
/// offered the rebuilt node; returning `Some` replaces it.
pub fn rewrite_expr(e: &Expr, f: &mut impl FnMut(&Expr) -> Option<Expr>) -> Expr {
    let rebuilt = match e {
        Expr::Int(_)
        | Expr::Float(_)
        | Expr::Bool(_)
        | Expr::Var(_)
        | Expr::ThreadIdx
        | Expr::BlockIdx => e.clone(),
        Expr::Binary { op, lhs, rhs } => Expr::Binary {
            op: *op,
            lhs: Box::new(rewrite_expr(lhs, f)),
            rhs: Box::new(rewrite_expr(rhs, f)),
        },
        Expr::Unary { op, operand } => Expr::Unary {
            op: *op,
            operand: Box::new(rewrite_expr(operand, f)),
        },
        Expr::Load { buffer, indices } => Expr::Load {
            buffer: buffer.clone(),
            indices: indices.iter().map(|i| rewrite_expr(i, f)).collect(),
        },
        Expr::Cast { dtype, value } => Expr::Cast {
            dtype: *dtype,
            value: Box::new(rewrite_expr(value, f)),
        },
        Expr::Select {
            cond,
            then_value,
            else_value,
        } => Expr::Select {
            cond: Box::new(rewrite_expr(cond, f)),
            then_value: Box::new(rewrite_expr(then_value, f)),
            else_value: Box::new(rewrite_expr(else_value, f)),
        },
    };
    f(&rebuilt).unwrap_or(rebuilt)
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

/// A copy of a statement tree in which every loaded or stored buffer `b` is
/// `swap(b)`: one allocation per node, nothing else rewritten.
pub(crate) fn replace_buffers(s: &Stmt, swap: &impl Fn(&BufferRef) -> BufferRef) -> Stmt {
    fn expr(e: &Expr, swap: &impl Fn(&BufferRef) -> BufferRef) -> Expr {
        let boxed = |e: &Expr| Box::new(expr(e, swap));
        match e {
            Expr::Binary { op, lhs, rhs } => Expr::Binary {
                op: *op,
                lhs: boxed(lhs),
                rhs: boxed(rhs),
            },
            Expr::Unary { op, operand } => Expr::Unary {
                op: *op,
                operand: boxed(operand),
            },
            Expr::Load { buffer, indices } => Expr::Load {
                buffer: swap(buffer),
                indices: indices.iter().map(|i| expr(i, swap)).collect(),
            },
            Expr::Cast { dtype, value } => Expr::Cast {
                dtype: *dtype,
                value: boxed(value),
            },
            Expr::Select {
                cond,
                then_value,
                else_value,
            } => Expr::Select {
                cond: boxed(cond),
                then_value: boxed(then_value),
                else_value: boxed(else_value),
            },
            Expr::Int(_)
            | Expr::Float(_)
            | Expr::Bool(_)
            | Expr::Var(_)
            | Expr::ThreadIdx
            | Expr::BlockIdx => e.clone(),
        }
    }
    let boxed = |s: &Stmt| Box::new(replace_buffers(s, swap));
    match s {
        Stmt::Seq(items) => Stmt::Seq(items.iter().map(|i| replace_buffers(i, swap)).collect()),
        Stmt::For {
            var,
            extent,
            body,
            unroll,
        } => Stmt::For {
            var: var.clone(),
            extent: expr(extent, swap),
            body: boxed(body),
            unroll: *unroll,
        },
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => Stmt::If {
            cond: expr(cond, swap),
            then_body: boxed(then_body),
            else_body: else_body.as_deref().map(boxed),
        },
        Stmt::Let { var, value } => Stmt::Let {
            var: var.clone(),
            value: expr(value, swap),
        },
        Stmt::Store {
            buffer,
            indices,
            value,
        } => Stmt::Store {
            buffer: swap(buffer),
            indices: indices.iter().map(|i| expr(i, swap)).collect(),
            value: expr(value, swap),
        },
        Stmt::SyncThreads | Stmt::Nop | Stmt::Comment(_) => s.clone(),
    }
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
    fn replace_buffers_swaps_loads_and_stores_only() {
        let a = Buffer::new("A", MemScope::Global, DType::F32, &[4]);
        let b = Buffer::new("B", MemScope::Global, DType::F32, &[4]);
        let i = Var::index("i");
        let s = Stmt::For {
            var: i.clone(),
            extent: c(4),
            body: Box::new(store(
                &a,
                vec![i.expr()],
                crate::builder::load(&a, vec![i.expr()]) * 2.0f32,
            )),
            unroll: true,
        };
        let out = replace_buffers(&s, &|buf| {
            if buf.name() == "A" {
                b.clone()
            } else {
                buf.clone()
            }
        });
        assert_eq!(out.to_string(), s.to_string().replace("A[", "B["));
        let mut loads = Vec::new();
        visit_exprs(&out, &mut |e| {
            if let Expr::Load { buffer, .. } = e {
                loads.push(buffer.clone());
            }
        });
        assert_eq!(loads, vec![b]);
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
