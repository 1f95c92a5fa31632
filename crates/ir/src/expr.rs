//! Scalar expressions of the tensor-program IR.
//!
//! An [`Expr`]'s operands are shared sub-trees (`Arc<Expr>`): cloning an
//! index or a fused epilogue value bumps reference counts instead of copying
//! the tree, and the rewriters of [`crate::visit`] and [`crate::passes`]
//! hand back an unchanged sub-tree as it is, rebuilding only the nodes a
//! rule touches. A tree is never mutated in place, so one sub-tree may sit
//! under many parents, in one kernel or in several.

use std::fmt;
use std::sync::Arc;

use crate::buffer::BufferRef;
use crate::dtype::DType;

/// A typed scalar variable (loop index, let binding, …).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Var {
    name: Arc<str>,
    dtype: DType,
}

impl Var {
    /// Creates a variable. Index variables are conventionally `I64`.
    pub fn new(name: &str, dtype: DType) -> Var {
        Var {
            name: name.into(),
            dtype,
        }
    }

    /// Index variable shorthand (`I64`).
    pub fn index(name: &str) -> Var {
        Var::new(name, DType::I64)
    }

    /// Variable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Variable type.
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// This variable as an expression.
    pub fn expr(&self) -> Expr {
        Expr::Var(self.clone())
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
    /// `a / b` (integer division truncates toward zero, as in CUDA C)
    Div,
    /// `a % b`
    Mod,
    /// `min(a, b)`
    Min,
    /// `max(a, b)`
    Max,
    /// `a < b`
    Lt,
    /// `a <= b`
    Le,
    /// `a == b`
    Eq,
    /// `a != b`
    Ne,
    /// `a && b`
    And,
    /// `a || b`
    Or,
}

impl BinOp {
    /// True for comparison/logical operators (result type `Bool`).
    pub fn is_predicate(self) -> bool {
        matches!(
            self,
            BinOp::Lt | BinOp::Le | BinOp::Eq | BinOp::Ne | BinOp::And | BinOp::Or
        )
    }

    /// The CUDA C spelling, for infix operators.
    pub fn cuda_infix(self) -> Option<&'static str> {
        Some(match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::And => "&&",
            BinOp::Or => "||",
            BinOp::Min | BinOp::Max => return None,
        })
    }
}

/// Unary operators (element-wise math used by DNN operators).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// `-a`
    Neg,
    /// `!a`
    Not,
    /// `|a|`
    Abs,
    /// `exp(a)`
    Exp,
    /// `sqrt(a)`
    Sqrt,
    /// `1 / sqrt(a)`
    Rsqrt,
    /// `tanh(a)`
    Tanh,
    /// `erf(a)` (GELU)
    Erf,
    /// `log(a)`
    Log,
    /// `sigmoid(a)`
    Sigmoid,
}

/// A scalar expression tree whose operands are shared, immutable sub-trees.
///
/// Construction is most ergonomic through the [`crate::builder`] helpers and
/// the arithmetic operator overloads:
///
/// ```
/// use hidet_ir::prelude::*;
/// let t = thread_idx();
/// let idx = t.clone() / 8 * 16 + t % 8;
/// assert!(idx.dtype().is_int());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal (`I64`).
    Int(i64),
    /// Float literal (`F32`).
    Float(f32),
    /// Boolean literal.
    Bool(bool),
    /// Variable reference.
    Var(Var),
    /// Flat thread index within the thread block (`threadIdx.x`).
    ThreadIdx,
    /// Flat block index within the grid (`blockIdx.x`).
    BlockIdx,
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Arc<Expr>,
        /// Right operand.
        rhs: Arc<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        operand: Arc<Expr>,
    },
    /// Element load `buffer[indices...]`.
    Load {
        /// Source buffer.
        buffer: BufferRef,
        /// One index expression per buffer dimension.
        indices: Vec<Expr>,
    },
    /// Type conversion.
    Cast {
        /// Target type.
        dtype: DType,
        /// Value to convert.
        value: Arc<Expr>,
    },
    /// `cond ? then_value : else_value`.
    Select {
        /// Predicate.
        cond: Arc<Expr>,
        /// Value when true.
        then_value: Arc<Expr>,
        /// Value when false.
        else_value: Arc<Expr>,
    },
}

impl Expr {
    /// The static type of this expression.
    ///
    /// Index-bearing built-ins (`ThreadIdx`, `BlockIdx`) are `I64`; binary
    /// arithmetic takes the left operand's type; predicates are `Bool`.
    pub fn dtype(&self) -> DType {
        match self {
            Expr::Int(_) => DType::I64,
            Expr::Float(_) => DType::F32,
            Expr::Bool(_) => DType::Bool,
            Expr::Var(v) => v.dtype(),
            Expr::ThreadIdx | Expr::BlockIdx => DType::I64,
            Expr::Binary { op, lhs, .. } => {
                if op.is_predicate() {
                    DType::Bool
                } else {
                    lhs.dtype()
                }
            }
            Expr::Unary { op, operand } => match op {
                UnOp::Not => DType::Bool,
                _ => operand.dtype(),
            },
            Expr::Load { buffer, .. } => buffer.dtype(),
            Expr::Cast { dtype, .. } => *dtype,
            Expr::Select { then_value, .. } => then_value.dtype(),
        }
    }

    /// If this expression is an integer literal, its value.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Expr::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// If this expression is a float literal, its value.
    pub fn as_float(&self) -> Option<f32> {
        match self {
            Expr::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// Builds `min(self, other)`.
    pub fn min(self, other: impl Into<Expr>) -> Expr {
        binary(BinOp::Min, self, other.into())
    }

    /// Builds `max(self, other)`.
    pub fn max(self, other: impl Into<Expr>) -> Expr {
        binary(BinOp::Max, self, other.into())
    }

    /// Builds `self < other`.
    pub fn lt(self, other: impl Into<Expr>) -> Expr {
        binary(BinOp::Lt, self, other.into())
    }

    /// Builds `self <= other`.
    pub fn le(self, other: impl Into<Expr>) -> Expr {
        binary(BinOp::Le, self, other.into())
    }

    /// Builds `self > other` (as `other < self`).
    pub fn gt(self, other: impl Into<Expr>) -> Expr {
        binary(BinOp::Lt, other.into(), self)
    }

    /// Builds `self >= other` (as `other <= self`).
    pub fn ge(self, other: impl Into<Expr>) -> Expr {
        binary(BinOp::Le, other.into(), self)
    }

    /// Builds `self == other`.
    pub fn eq_(self, other: impl Into<Expr>) -> Expr {
        binary(BinOp::Eq, self, other.into())
    }

    /// Builds `self != other`.
    pub fn ne_(self, other: impl Into<Expr>) -> Expr {
        binary(BinOp::Ne, self, other.into())
    }

    /// Builds `self && other`.
    pub fn and(self, other: impl Into<Expr>) -> Expr {
        binary(BinOp::And, self, other.into())
    }

    /// Builds `self || other`.
    pub fn or(self, other: impl Into<Expr>) -> Expr {
        binary(BinOp::Or, self, other.into())
    }

    /// Builds `!self`. (Not `std::ops::Not`: this IR builder consumes the
    /// expression and is called in builder-chain style alongside `and`/`or`.)
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Unary {
            op: UnOp::Not,
            operand: Arc::new(self),
        }
    }

    /// Builds a unary operation on `self`.
    pub fn unary(self, op: UnOp) -> Expr {
        Expr::Unary {
            op,
            operand: Arc::new(self),
        }
    }

    /// Builds `cast<dtype>(self)`.
    pub fn cast(self, dtype: DType) -> Expr {
        Expr::Cast {
            dtype,
            value: Arc::new(self),
        }
    }

    /// Builds `self ? then_value : else_value`.
    pub fn select(self, then_value: impl Into<Expr>, else_value: impl Into<Expr>) -> Expr {
        Expr::Select {
            cond: Arc::new(self),
            then_value: Arc::new(then_value.into()),
            else_value: Arc::new(else_value.into()),
        }
    }
}

pub(crate) fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
    Expr::Binary {
        op,
        lhs: Arc::new(lhs),
        rhs: Arc::new(rhs),
    }
}

impl From<i64> for Expr {
    fn from(v: i64) -> Expr {
        Expr::Int(v)
    }
}

impl From<i32> for Expr {
    fn from(v: i32) -> Expr {
        Expr::Int(v as i64)
    }
}

impl From<f32> for Expr {
    fn from(v: f32) -> Expr {
        Expr::Float(v)
    }
}

impl From<bool> for Expr {
    fn from(v: bool) -> Expr {
        Expr::Bool(v)
    }
}

impl From<&Var> for Expr {
    fn from(v: &Var) -> Expr {
        Expr::Var(v.clone())
    }
}

impl From<Var> for Expr {
    fn from(v: Var) -> Expr {
        Expr::Var(v)
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $op:expr) => {
        impl<R: Into<Expr>> std::ops::$trait<R> for Expr {
            type Output = Expr;
            fn $method(self, rhs: R) -> Expr {
                binary($op, self, rhs.into())
            }
        }
        impl std::ops::$trait<Expr> for i64 {
            type Output = Expr;
            fn $method(self, rhs: Expr) -> Expr {
                binary($op, Expr::Int(self), rhs)
            }
        }
    };
}

impl_binop!(Add, add, BinOp::Add);
impl_binop!(Sub, sub, BinOp::Sub);
impl_binop!(Mul, mul, BinOp::Mul);
impl_binop!(Div, div, BinOp::Div);
impl_binop!(Rem, rem, BinOp::Mod);

impl std::ops::Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        Expr::Unary {
            op: UnOp::Neg,
            operand: Arc::new(self),
        }
    }
}

/// An IR node printed as part of a kernel whose parameters are `.1`.
pub(crate) struct InKernel<'a, T>(pub(crate) &'a T, pub(crate) &'a [BufferRef]);

impl<'a, T> InKernel<'a, T> {
    /// `item`, a part of this node, printed in the same kernel.
    pub(crate) fn at<U>(&self, item: &'a U) -> InKernel<'a, U> {
        InKernel(item, self.1)
    }
}

impl fmt::Display for InKernel<'_, Expr> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let at = |e| self.at(e);
        match self.0 {
            Expr::Int(v) => write!(f, "{v}"),
            Expr::Float(v) => write!(f, "{v:?}"),
            Expr::Bool(v) => write!(f, "{v}"),
            Expr::Var(v) => write!(f, "{v}"),
            Expr::ThreadIdx => f.write_str("threadIdx.x"),
            Expr::BlockIdx => f.write_str("blockIdx.x"),
            Expr::Binary { op, lhs, rhs } => {
                let (lhs, rhs) = (at(&**lhs), at(&**rhs));
                match op.cuda_infix() {
                    Some(sym) => write!(f, "({lhs} {sym} {rhs})"),
                    None => {
                        let name = if *op == BinOp::Min { "min" } else { "max" };
                        write!(f, "{name}({lhs}, {rhs})")
                    }
                }
            }
            Expr::Unary { op, operand } => {
                let operand = at(&**operand);
                match op {
                    UnOp::Neg => write!(f, "(-{operand})"),
                    UnOp::Not => write!(f, "(!{operand})"),
                    _ => write!(f, "{}({operand})", format!("{op:?}").to_lowercase()),
                }
            }
            Expr::Load { buffer, indices } => {
                write!(f, "{}[", buffer.name_in(self.1))?;
                for (i, idx) in indices.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{}", at(idx))?;
                }
                f.write_str("]")
            }
            Expr::Cast { dtype, value } => write!(f, "({}){}", dtype.cuda_name(), at(&**value)),
            Expr::Select {
                cond,
                then_value,
                else_value,
            } => {
                let (c, t, e) = (at(&**cond), at(&**then_value), at(&**else_value));
                write!(f, "({c} ? {t} : {e})")
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        InKernel(self, &[]).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{Buffer, MemScope};

    #[test]
    fn operator_overloads_build_trees() {
        let t = Expr::ThreadIdx;
        let e = t.clone() / 8 * 16 + t % 8;
        assert_eq!(
            e.to_string(),
            "(((threadIdx.x / 8) * 16) + (threadIdx.x % 8))"
        );
    }

    #[test]
    fn display_is_cuda_like() {
        let v = Var::index("i");
        let e = (v.expr() + 1) * 2;
        assert_eq!(e.to_string(), "((i + 1) * 2)");
        let m = v.expr().min(Expr::Int(3));
        assert_eq!(m.to_string(), "min(i, 3)");
    }

    #[test]
    fn dtype_inference() {
        let b = Buffer::new("A", MemScope::Global, DType::F32, &[4]);
        let e = Expr::Load {
            buffer: b,
            indices: vec![Expr::Int(0)],
        };
        assert_eq!(e.dtype(), DType::F32);
        let pred = Expr::Int(1).lt(2);
        assert_eq!(pred.dtype(), DType::Bool);
        let cast = Expr::Int(1).cast(DType::F32);
        assert_eq!(cast.dtype(), DType::F32);
    }

    #[test]
    fn predicates_and_logic() {
        let v = Var::index("i");
        let p = v.expr().lt(10).and(v.expr().ge(0));
        assert_eq!(p.to_string(), "((i < 10) && (0 <= i))");
        assert_eq!(p.dtype(), DType::Bool);
    }

    #[test]
    fn select_and_unary() {
        let x = Var::new("x", DType::F32);
        let relu = x.expr().lt(0.0f32).select(0.0f32, x.expr());
        assert_eq!(relu.to_string(), "((x < 0.0) ? 0.0 : x)");
        let e = x.expr().unary(UnOp::Exp);
        assert_eq!(e.to_string(), "exp(x)");
    }

    #[test]
    fn int_scalar_lhs() {
        let v = Var::index("i");
        let e = 2i64 * v.expr();
        assert_eq!(e.to_string(), "(2 * i)");
    }

    #[test]
    fn cloning_shares_the_operands() {
        let t = Expr::ThreadIdx;
        let e = (t.clone() / 8).lt(16).select(t.clone() % 8, t);
        let copy = e.clone();
        let (
            Expr::Select {
                cond,
                then_value,
                else_value,
            },
            Expr::Select {
                cond: c2,
                then_value: t2,
                else_value: e2,
            },
        ) = (&e, &copy)
        else {
            unreachable!()
        };
        assert!(Arc::ptr_eq(cond, c2));
        assert!(Arc::ptr_eq(then_value, t2));
        assert!(Arc::ptr_eq(else_value, e2));
    }

    #[test]
    fn const_inspection() {
        assert_eq!(Expr::Int(5).as_int(), Some(5));
        assert_eq!(Expr::Float(1.5).as_float(), Some(1.5));
        assert_eq!(Expr::ThreadIdx.as_int(), None);
    }
}
