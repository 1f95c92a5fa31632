//! Simplification passes: constant folding and algebraic canonicalization.
//!
//! Lowered task mappings produce index arithmetic such as `(0 * 16 + t / 8)`;
//! the simplifier folds these so both the CUDA output and the simulator's
//! interpreter see compact expressions.

use std::sync::Arc;

use crate::expr::{BinOp, Expr, UnOp};
use crate::stmt::Stmt;
use crate::visit::{rewritten, substitute_stmt};

/// Simplifies an expression: constant folding plus algebraic identities.
/// A sub-tree no rule fires in is returned as it is, shared.
///
/// ```
/// use hidet_ir::passes::simplify_expr;
/// use hidet_ir::prelude::*;
/// let e = (c(0) * 16 + thread_idx() * 1) % 1024;
/// assert_eq!(simplify_expr(e).to_string(), "(threadIdx.x % 1024)");
/// ```
pub fn simplify_expr(e: Expr) -> Expr {
    rewritten(&e, &mut simplify_node).unwrap_or(e)
}

/// Bottom-up: children first, then the node is offered to
/// [`simplify_node`]. Only the nodes on the path from a rule that fires to
/// the root are rebuilt.
fn simplify_in_place(e: &mut Expr) {
    if let Some(simpler) = rewritten(e, &mut simplify_node) {
        *e = simpler;
    }
}

fn simplify_node(e: &Expr) -> Option<Expr> {
    match e {
        Expr::Binary { op, lhs, rhs } => simplify_binary(*op, lhs, rhs),
        Expr::Unary { op, operand } => simplify_unary(*op, operand),
        Expr::Cast { dtype, value } => match (&**value, dtype) {
            (Expr::Int(v), d) if d.is_float() => Some(Expr::Float(*v as f32)),
            (Expr::Float(v), d) if d.is_int() => Some(Expr::Int(*v as i64)),
            (Expr::Int(v), d) if d.is_int() => Some(Expr::Int(*v)),
            (Expr::Float(v), d) if d.is_float() => Some(Expr::Float(*v)),
            _ => None,
        },
        Expr::Select {
            cond,
            then_value,
            else_value,
        } => match &**cond {
            Expr::Bool(true) => Some((**then_value).clone()),
            Expr::Bool(false) => Some((**else_value).clone()),
            _ => None,
        },
        _ => None,
    }
}

fn simplify_binary(op: BinOp, lhs: &Expr, rhs: &Expr) -> Option<Expr> {
    use BinOp::*;
    // Integer constant folding.
    if let (Some(a), Some(b)) = (lhs.as_int(), rhs.as_int()) {
        return Some(match op {
            Add => Expr::Int(a + b),
            Sub => Expr::Int(a - b),
            Mul => Expr::Int(a * b),
            Div if b != 0 => Expr::Int(a / b),
            Mod if b != 0 => Expr::Int(a % b),
            Min => Expr::Int(a.min(b)),
            Max => Expr::Int(a.max(b)),
            Lt => Expr::Bool(a < b),
            Le => Expr::Bool(a <= b),
            Eq => Expr::Bool(a == b),
            Ne => Expr::Bool(a != b),
            _ => return None,
        });
    }
    // Float constant folding.
    if let (Some(a), Some(b)) = (lhs.as_float(), rhs.as_float()) {
        return Some(match op {
            Add => Expr::Float(a + b),
            Sub => Expr::Float(a - b),
            Mul => Expr::Float(a * b),
            Div => Expr::Float(a / b),
            Min => Expr::Float(a.min(b)),
            Max => Expr::Float(a.max(b)),
            Lt => Expr::Bool(a < b),
            Le => Expr::Bool(a <= b),
            _ => return None,
        });
    }
    // Boolean folding.
    if let (Expr::Bool(a), Expr::Bool(b)) = (lhs, rhs) {
        return Some(match op {
            And => Expr::Bool(*a && *b),
            Or => Expr::Bool(*a || *b),
            _ => return None,
        });
    }
    // Algebraic identities (all expressions are pure, so dropping is safe).
    match (op, lhs.as_int(), rhs.as_int()) {
        (Add, Some(0), _) => return Some(rhs.clone()),
        (Add, _, Some(0)) | (Sub, _, Some(0)) => return Some(lhs.clone()),
        (Mul, Some(1), _) => return Some(rhs.clone()),
        (Mul, _, Some(1)) | (Div, _, Some(1)) => return Some(lhs.clone()),
        (Mul, Some(0), _) | (Mul, _, Some(0)) => return Some(Expr::Int(0)),
        (Mod, _, Some(1)) => return Some(Expr::Int(0)),
        _ => {}
    }
    match (op, lhs.as_float(), rhs.as_float()) {
        (Add, Some(0.0), _) => return Some(rhs.clone()),
        (Add, _, Some(x)) | (Sub, _, Some(x)) if x == 0.0 => return Some(lhs.clone()),
        (Mul, Some(1.0), _) => return Some(rhs.clone()),
        (Mul, _, Some(x)) | (Div, _, Some(x)) if x == 1.0 => return Some(lhs.clone()),
        _ => {}
    }
    // ((x * c) / c) == x and ((x * c) % c) == 0 for integer c > 0.
    if let (
        Div | Mod,
        Expr::Binary {
            op: Mul,
            lhs: il,
            rhs: ir,
        },
        Some(c),
    ) = (op, lhs, rhs.as_int())
    {
        if c > 0 && ir.as_int() == Some(c) {
            return Some(if op == Div {
                (**il).clone()
            } else {
                Expr::Int(0)
            });
        }
    }
    // ((x / a) / b) == x / (a * b) for positive a, b.
    if let (
        Div,
        Expr::Binary {
            op: Div,
            lhs: il,
            rhs: ir,
        },
        Some(b),
    ) = (op, lhs, rhs.as_int())
    {
        if let Some(a) = ir.as_int() {
            if a > 0 && b > 0 {
                return Some(Expr::Binary {
                    op: Div,
                    lhs: il.clone(),
                    rhs: Arc::new(Expr::Int(a * b)),
                });
            }
        }
    }
    // and/or with constants.
    match (op, lhs, rhs) {
        (And, Expr::Bool(true), other) | (And, other, Expr::Bool(true)) => {
            return Some(other.clone())
        }
        (And, Expr::Bool(false), _) | (And, _, Expr::Bool(false)) => {
            return Some(Expr::Bool(false))
        }
        (Or, Expr::Bool(false), other) | (Or, other, Expr::Bool(false)) => {
            return Some(other.clone())
        }
        (Or, Expr::Bool(true), _) | (Or, _, Expr::Bool(true)) => return Some(Expr::Bool(true)),
        _ => {}
    }
    None
}

fn simplify_unary(op: UnOp, operand: &Expr) -> Option<Expr> {
    match (op, operand) {
        (UnOp::Neg, Expr::Int(v)) => Some(Expr::Int(-v)),
        (UnOp::Neg, Expr::Float(v)) => Some(Expr::Float(-v)),
        (UnOp::Not, Expr::Bool(v)) => Some(Expr::Bool(!v)),
        (UnOp::Abs, Expr::Float(v)) => Some(Expr::Float(v.abs())),
        (UnOp::Abs, Expr::Int(v)) => Some(Expr::Int(v.abs())),
        _ => None,
    }
}

/// Simplifies a statement tree: folds expressions, prunes constant branches,
/// unwraps trivial loops and flattens sequences. Takes the tree by value:
/// what no rule touches is moved into the result, not copied.
pub fn simplify(s: Stmt) -> Stmt {
    match s {
        Stmt::Seq(items) => items
            .into_iter()
            .fold(Stmt::Nop, |out, item| out.then(simplify(item))),
        Stmt::For {
            var,
            mut extent,
            body,
            unroll,
        } => {
            simplify_in_place(&mut extent);
            match extent.as_int() {
                Some(0) => Stmt::Nop,
                Some(1) => simplify(substitute_stmt(&body, &var, &Expr::Int(0))),
                _ => match simplify(*body) {
                    Stmt::Nop => Stmt::Nop,
                    body => Stmt::For {
                        var,
                        extent,
                        body: Box::new(body),
                        unroll,
                    },
                },
            }
        }
        Stmt::If {
            mut cond,
            then_body,
            else_body,
        } => {
            simplify_in_place(&mut cond);
            match cond {
                Expr::Bool(true) => simplify(*then_body),
                Expr::Bool(false) => else_body.map_or(Stmt::Nop, |e| simplify(*e)),
                _ => {
                    let then_body = simplify(*then_body);
                    let else_body = else_body
                        .map(|e| simplify(*e))
                        .filter(|e| !matches!(e, Stmt::Nop));
                    if matches!(then_body, Stmt::Nop) && else_body.is_none() {
                        return Stmt::Nop;
                    }
                    Stmt::If {
                        cond,
                        then_body: Box::new(then_body),
                        else_body: else_body.map(Box::new),
                    }
                }
            }
        }
        Stmt::Let { var, value } => Stmt::Let {
            var,
            value: simplify_expr(value),
        },
        Stmt::Store {
            buffer,
            mut indices,
            value,
        } => {
            indices.iter_mut().for_each(simplify_in_place);
            Stmt::Store {
                buffer,
                indices,
                value: simplify_expr(value),
            }
        }
        Stmt::SyncThreads | Stmt::Nop | Stmt::Comment(_) => s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{Buffer, MemScope};
    use crate::builder::{c, for_range, if_then, store, thread_idx, var};
    use crate::dtype::DType;

    #[test]
    fn folds_integer_arithmetic() {
        let e = (c(2) + 3) * 4 - 1;
        assert_eq!(simplify_expr(e), Expr::Int(19));
    }

    #[test]
    // `t * 0` / `t % 1` build Expr trees via operator overloads; producing
    // zero is exactly the simplification under test.
    #[allow(clippy::erasing_op, clippy::modulo_one)]
    fn folds_identities() {
        let t = thread_idx();
        assert_eq!(simplify_expr(t.clone() + 0).to_string(), "threadIdx.x");
        assert_eq!(simplify_expr(t.clone() * 1).to_string(), "threadIdx.x");
        assert_eq!(simplify_expr(t.clone() * 0), Expr::Int(0));
        assert_eq!(simplify_expr(t.clone() % 1), Expr::Int(0));
        assert_eq!(simplify_expr(t.clone() / 1).to_string(), "threadIdx.x");
        assert_eq!(
            simplify_expr((t.clone() * 8) / 8).to_string(),
            "threadIdx.x"
        );
        assert_eq!(simplify_expr((t.clone() * 8) % 8), Expr::Int(0));
        assert_eq!(simplify_expr((t / 4) / 8).to_string(), "(threadIdx.x / 32)");
    }

    #[test]
    fn folds_predicates_and_selects() {
        assert_eq!(simplify_expr(c(3).lt(5)), Expr::Bool(true));
        let sel = c(3).lt(5).select(1.0f32, 2.0f32);
        assert_eq!(simplify_expr(sel), Expr::Float(1.0));
        let t = thread_idx().lt(10).and(Expr::Bool(true));
        assert_eq!(simplify_expr(t).to_string(), "(threadIdx.x < 10)");
    }

    #[test]
    fn folds_casts() {
        assert_eq!(simplify_expr(c(3).cast(DType::F32)), Expr::Float(3.0));
        assert_eq!(
            simplify_expr(Expr::Float(2.7).cast(DType::I64)),
            Expr::Int(2)
        );
    }

    #[test]
    fn trivial_loops_unwrapped() {
        let b = Buffer::new("A", MemScope::Global, DType::F32, &[4]);
        let loop1 = for_range("i", 1, |i| store(&b, vec![i + 2], Expr::Float(0.0)));
        let out = simplify(loop1);
        assert_eq!(out.to_string().trim(), "A[2] = 0.0");
        let loop0 = for_range("i", 0, |_| Stmt::Nop);
        assert_eq!(simplify(loop0), Stmt::Nop);
    }

    #[test]
    fn constant_branches_pruned() {
        let b = Buffer::new("A", MemScope::Global, DType::F32, &[4]);
        let s = if_then(c(1).lt(2), store(&b, vec![c(0)], Expr::Float(1.0)));
        assert!(matches!(simplify(s), Stmt::Store { .. }));
        let dead = if_then(c(3).lt(2), store(&b, vec![c(0)], Expr::Float(1.0)));
        assert_eq!(simplify(dead), Stmt::Nop);
    }

    #[test]
    fn empty_loops_removed() {
        let s = for_range("i", 16, |_| Stmt::Nop);
        assert_eq!(simplify(s), Stmt::Nop);
    }

    #[test]
    fn div_by_zero_not_folded() {
        let e = c(4) / 0;
        // Left intact; the interpreter reports the error at run time.
        assert!(matches!(simplify_expr(e), Expr::Binary { .. }));
    }

    #[test]
    fn zero_over_a_variable_is_not_folded() {
        // `0 / n` and `0 % n` fault when `n` is zero at run time.
        let n = var("n");
        assert_eq!(simplify_expr(c(0) / n.expr()).to_string(), "(0 / n)");
        assert_eq!(simplify_expr(c(0) % n.expr()).to_string(), "(0 % n)");
    }

    #[test]
    fn simplifying_a_simple_tree_keeps_its_allocations() {
        let t = thread_idx();
        let e = (t.clone() / 8 * 16 + t % 8).lt(var("n").expr());
        let Expr::Binary { lhs, rhs, .. } = &e else {
            unreachable!()
        };
        let out = simplify_expr(e.clone());
        let Expr::Binary {
            lhs: out_lhs,
            rhs: out_rhs,
            ..
        } = &out
        else {
            panic!("{out}")
        };
        assert!(Arc::ptr_eq(lhs, out_lhs) && Arc::ptr_eq(rhs, out_rhs));
        // A statement around it keeps them too.
        let b = Buffer::new("A", MemScope::Global, DType::F32, &[4]);
        let s = if_then(e.clone(), store(&b, vec![c(0)], Expr::Float(1.0)));
        let Stmt::If { cond, .. } = simplify(s) else {
            unreachable!()
        };
        let Expr::Binary { lhs: kept, .. } = &cond else {
            unreachable!()
        };
        assert!(Arc::ptr_eq(lhs, kept));
    }

    #[test]
    fn simplify_rebuilds_only_the_path_to_a_fold() {
        // `(t / 8 * 16) + (t % 8 + 0)`: the right operand folds, the left is
        // shared.
        let t = thread_idx();
        let e = t.clone() / 8 * 16 + (t % 8 + 0);
        let Expr::Binary { lhs, .. } = &e else {
            unreachable!()
        };
        let out = simplify_expr(e.clone());
        assert_eq!(
            out.to_string(),
            "(((threadIdx.x / 8) * 16) + (threadIdx.x % 8))"
        );
        let Expr::Binary { lhs: out_lhs, .. } = &out else {
            unreachable!()
        };
        assert!(Arc::ptr_eq(lhs, out_lhs));
    }

    #[test]
    fn simplify_preserves_var_semantics() {
        let v = var("n");
        let e = v.expr() * 1 + 0;
        assert_eq!(simplify_expr(e), v.expr());
    }
}
