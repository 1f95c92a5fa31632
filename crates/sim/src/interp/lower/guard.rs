//! What a branch condition tells the code it guards: `if row < m && col < n`
//! bounds `row` and `col` inside, so an index only the guard keeps in its
//! buffer is proven there; and a condition a lane register decides tells the
//! footprint proof which threads get to an access at all.

use hidet_ir::{BinOp, Expr};

use super::place::{Place, Ty, Val};
use super::Lowerer;
use crate::interp::program::{Reg, MEM};

/// What holding a condition says, gathered while it is lowered.
#[derive(Default)]
pub(super) struct Facts {
    /// Integer registers and the bounds the condition puts on them.
    bounds: Vec<(Reg, (i64, i64))>,
    /// Lane registers that hold (`true`) or do not (`false`) wherever the
    /// guarded code runs.
    lanes: Vec<(Reg, bool)>,
    /// A conjunct cannot hold over its operands' intervals: the guarded code
    /// never runs (the row loop of a write-back past the last tile row).
    pub(super) never: bool,
}

impl Facts {
    /// What the other side of `if cond` may assume: that `cond` is false —
    /// of use only where `cond` is one lane register.
    pub(super) fn otherwise(cond: Val) -> Facts {
        let lanes = match lane_condition(cond) {
            true => vec![(cond.reg, false)],
            false => Vec::new(),
        };
        Facts {
            lanes,
            ..Facts::default()
        }
    }
}

/// A condition whose value for every thread is in the lane table.
fn lane_condition(v: Val) -> bool {
    v.place == Place::Lane && v.ty == Ty::Bool && v.reg & MEM == 0
}

/// A register a bound can be put on: an integer fixed at some level above
/// the body, so it holds still for as long as the guarded code runs.
fn boundable(v: Val) -> bool {
    v.ty == Ty::I64 && !matches!(v.place, Place::Const | Place::Body) && v.reg & MEM == 0
}

impl<'k> Lowerer<'k> {
    /// Lowers `cond` exactly as [`Lowerer::expr`] does, and returns with it
    /// what holds wherever it is true: a conjunction (`&&`) of comparisons
    /// `x < y` / `x <= y` bounds each side by the other's interval, and each
    /// conjunct that is a lane register decides, thread by thread, whether
    /// the guarded code runs.
    pub(super) fn guard(&mut self, cond: &'k Expr) -> (Val, Facts) {
        let mut facts = Facts::default();
        let v = self.conjunct(cond, &mut facts);
        (v, facts)
    }

    fn conjunct(&mut self, e: &'k Expr, facts: &mut Facts) -> Val {
        let mark = self.temp_top;
        let v = match e {
            Expr::Binary {
                op: BinOp::And,
                lhs,
                rhs,
            } => {
                let a = self.conjunct(lhs, facts);
                let b = self.conjunct(rhs, facts);
                self.temp_top = mark;
                return self.binary(BinOp::And, a, b);
            }
            Expr::Binary {
                op: op @ (BinOp::Lt | BinOp::Le),
                lhs,
                rhs,
            } => {
                let a = self.expr(lhs);
                let b = self.expr(rhs);
                self.temp_top = mark;
                // `a < b`: a is at most b's largest value less one, b at
                // least a's smallest plus one; `<=` without the one.
                let gap = i64::from(*op == BinOp::Lt);
                if let (Some((least, _)), Some((_, most))) = (a.range, b.range) {
                    facts.never |= i128::from(least) + i128::from(gap) > i128::from(most);
                }
                if let (true, Some((_, hi))) = (boundable(a), b.range) {
                    let hi = hi.checked_sub(gap);
                    facts.bounds.extend(hi.map(|hi| (a.reg, (i64::MIN, hi))));
                }
                if let (true, Some((lo, _))) = (boundable(b), a.range) {
                    let lo = lo.checked_add(gap);
                    facts.bounds.extend(lo.map(|lo| (b.reg, (lo, i64::MAX))));
                }
                self.binary(*op, a, b)
            }
            _ => self.expr(e),
        };
        if lane_condition(v) {
            facts.lanes.push((v.reg, true));
        }
        v
    }

    /// Lowers `f` where `facts` hold, and forgets them after.
    pub(super) fn assuming<T>(&mut self, facts: &Facts, f: impl FnOnce(&mut Self) -> T) -> T {
        let (bounds, lanes) = (self.bounds.len(), self.lane_guards.len());
        self.bounds.extend_from_slice(&facts.bounds);
        self.lane_guards.extend_from_slice(&facts.lanes);
        let out = f(self);
        self.bounds.truncate(bounds);
        self.lane_guards.truncate(lanes);
        out
    }

    /// `v` with the bounds the guards around it put on its register.
    pub(super) fn bounded(&self, mut v: Val) -> Val {
        if self.bounds.is_empty() || !boundable(v) {
            return v;
        }
        let mut bounds = self.bounds.iter().filter(|(r, _)| *r == v.reg).peekable();
        if bounds.peek().is_none() {
            return v;
        }
        let (mut lo, mut hi) = v.range.unwrap_or((i64::MIN, i64::MAX));
        for &(_, (at_least, at_most)) in bounds {
            (lo, hi) = (lo.max(at_least), hi.min(at_most));
        }
        // (Guards that contradict each other guard code that never runs.)
        if lo <= hi {
            v.range = Some((lo, hi));
        }
        v
    }
}
