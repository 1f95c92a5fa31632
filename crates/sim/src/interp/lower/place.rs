//! What is known about a lowered value: the place lattice, static types,
//! integer intervals, and the operators' range and type rules.

use hidet_ir::{BinOp, UnOp};

use super::super::program::{Reg, BOOL, DYN, FLOAT, INT};
use crate::value::Value;

#[cfg(doc)]
use super::super::program::MEM;

/// The coarsest level at which an expression's value is fixed — which is
/// where its instruction runs. An operation lives at the [`Place::join`] of
/// its operands' places, and at `Body` whenever it can fault. The derived
/// order is the lattice's, except that `Lane` and `Block` are incomparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(super) enum Place {
    /// A literal or a fold of literals.
    Const,
    /// A function of `threadIdx` and constants: once per thread per
    /// *program*, whatever the block and the launch. Task mappings put most
    /// index arithmetic here.
    Lane,
    /// A function of `blockIdx` and constants: once per block.
    Block,
    /// A function of `threadIdx` and `blockIdx` both: once per thread per
    /// block.
    Thread,
    /// Reads the variable of the `n`-th enclosing loop that stayed a loop
    /// (the outermost is 1) and of none further in: once per iteration of
    /// that loop, in its prologue.
    Loop(u32),
    /// Depends on memory, or can fault: evaluated in place, every time.
    Body,
}

impl Place {
    /// The coarsest place at which values of both places are fixed.
    pub(super) fn join(self, other: Place) -> Place {
        match (self, other) {
            (Place::Lane, Place::Block) | (Place::Block, Place::Lane) => Place::Thread,
            _ => self.max(other),
        }
    }
}

/// Static type of a value, as far as it is known. `Value`'s operators fault
/// or not, and pick their result type, by operand type alone (integer
/// division aside), so knowing the types is knowing whether an operation can
/// fault — and which file of the block's registers a value is kept in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Ty {
    F32,
    I64,
    Bool,
    /// Differs by path (a `Select` over unlike branches, a trap's result).
    Dyn,
}

impl Ty {
    pub(super) fn of(v: Value) -> Ty {
        match v {
            Value::F32(_) => Ty::F32,
            Value::I64(_) => Ty::I64,
            Value::Bool(_) => Ty::Bool,
        }
    }

    /// The lane file registers of this type live in.
    pub(super) fn file(self) -> u32 {
        match self {
            Ty::I64 => INT,
            Ty::F32 => FLOAT,
            Ty::Bool => BOOL,
            Ty::Dyn => DYN,
        }
    }

    /// A value of this type to probe `Value`'s operators with.
    pub(super) fn sample(self) -> Option<Value> {
        match self {
            Ty::F32 => Some(Value::F32(1.0)),
            Ty::I64 => Some(Value::I64(1)),
            Ty::Bool => Some(Value::Bool(true)),
            Ty::Dyn => None,
        }
    }
}

/// Inclusive bounds of an integer value, where known.
pub(super) type Range = Option<(i64, i64)>;

/// A lowered expression: where its value is, and what is known about it.
#[derive(Debug, Clone, Copy)]
pub(super) struct Val {
    /// The register holding it — or, tagged [`MEM`], the access or
    /// register-array element it is: a load that cannot fault, left to its
    /// consumer.
    pub(super) reg: Reg,
    pub(super) ty: Ty,
    pub(super) place: Place,
    /// Proven equal across the threads of a block at any one time.
    pub(super) uniform: bool,
    /// May differ from one block of the grid to the next: it reads
    /// `blockIdx`, or is computed in place.
    pub(super) by_block: bool,
    pub(super) range: Range,
    /// Where it is no sum but a function of one (`n / 1152`, `n % 8`): that
    /// sum, an index into the lowering's roots (`chain.rs`).
    pub(super) root: Option<u32>,
}

impl Val {
    /// A value computed in place, about which nothing else is known.
    pub(super) fn body(reg: Reg, ty: Ty) -> Val {
        Val {
            reg,
            ty,
            place: Place::Body,
            uniform: false,
            by_block: true,
            range: None,
            root: None,
        }
    }
}

/// The interval of `op` over two integer intervals, where one follows.
pub(super) fn binary_range(op: BinOp, a: Range, b: Range) -> Range {
    let ((alo, ahi), (blo, bhi)) = (a?, b?);
    match op {
        BinOp::Add => Some((alo.checked_add(blo)?, ahi.checked_add(bhi)?)),
        BinOp::Sub => Some((alo.checked_sub(bhi)?, ahi.checked_sub(blo)?)),
        BinOp::Mul => {
            let ends = [
                alo.checked_mul(blo)?,
                alo.checked_mul(bhi)?,
                ahi.checked_mul(blo)?,
                ahi.checked_mul(bhi)?,
            ];
            Some((*ends.iter().min()?, *ends.iter().max()?))
        }
        // By a positive constant: truncating division is monotone, and the
        // remainder of a non-negative value stays below the divisor.
        BinOp::Div if blo == bhi && blo > 0 => Some((alo / blo, ahi / blo)),
        BinOp::Mod if blo == bhi && blo > 0 && alo >= 0 => Some((0, ahi.min(blo - 1))),
        BinOp::Min => Some((alo.min(blo), ahi.min(bhi))),
        BinOp::Max => Some((alo.max(blo), ahi.max(bhi))),
        _ => None,
    }
}

/// Result type of `op` over operand types, and whether it can fault.
/// Probes `Value::binary` itself, so the typing rules live in one place.
pub(super) fn binary_rule(op: BinOp, a: Ty, b: Ty, divisor: Option<Value>) -> (Ty, bool) {
    let (Some(x), Some(y)) = (a.sample(), b.sample()) else {
        return (Ty::Dyn, true);
    };
    match Value::binary(op, x, y) {
        None => (Ty::Dyn, true),
        Some(v) => {
            // `checked_div` / `checked_rem` fail on a zero divisor and on
            // `i64::MIN / -1`.
            let int_division = matches!(op, BinOp::Div | BinOp::Mod) && matches!(v, Value::I64(_));
            let safe = matches!(divisor, Some(Value::I64(d)) if d != 0 && d != -1);
            (Ty::of(v), int_division && !safe)
        }
    }
}

pub(super) fn unary_rule(op: UnOp, a: Ty) -> (Ty, bool) {
    match a.sample().and_then(|x| Value::unary(op, x)) {
        Some(v) => (Ty::of(v), false),
        None => (Ty::Dyn, true),
    }
}
