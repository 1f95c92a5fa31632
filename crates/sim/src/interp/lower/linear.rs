//! Index arithmetic as the sum it is: `constant + Σ atom × coefficient`,
//! kept beside the register that holds its value.
//!
//! A task mapping makes every index a sum of a part only `threadIdx` decides
//! and a part the whole block shares. The lowering adds those parts into one
//! register per access; this form remembers them apart, which is what the
//! race-freedom proof of a range (`verdict.rs`) reads.

use super::super::program::Reg;

/// What a linear form bottoms out in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(super) enum Atom {
    /// A lane register: a function of `threadIdx` and constants, whose value
    /// for every thread of a block is known once lane code has run.
    Lane(Reg),
    /// A register that holds one value for the whole block for as long as a
    /// range runs: a block-level value, or one fixed by a loop around a
    /// barrier the range is inside of.
    Fixed(Reg),
    /// The variable of a loop inside a leaf: `0..trips`, the same in every
    /// thread at the same iteration. `id` tells loops apart.
    Var { id: u32, trips: i64 },
}

/// `konst + Σ atom × coefficient`, in wrapping `i64` arithmetic — the
/// executor's own — so the form is exact whatever overflows on the way.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(super) struct Linear {
    pub(super) konst: i64,
    /// Sorted by atom, one term per atom, no zero coefficient: equal sums
    /// of equal atoms compare equal.
    pub(super) terms: Vec<(Atom, i64)>,
}

impl Linear {
    pub(super) fn konst(konst: i64) -> Linear {
        Linear {
            konst,
            terms: Vec::new(),
        }
    }

    pub(super) fn atom(atom: Atom) -> Linear {
        Linear {
            konst: 0,
            terms: vec![(atom, 1)],
        }
    }

    /// `self + other × by`.
    pub(super) fn plus(mut self, other: &Linear, by: i64) -> Linear {
        self.konst = self.konst.wrapping_add(other.konst.wrapping_mul(by));
        for &(atom, coefficient) in &other.terms {
            let coefficient = coefficient.wrapping_mul(by);
            match self.terms.binary_search_by_key(&atom, |term| term.0) {
                Ok(at) => self.terms[at].1 = self.terms[at].1.wrapping_add(coefficient),
                Err(at) => self.terms.insert(at, (atom, coefficient)),
            }
        }
        self.terms.retain(|term| term.1 != 0);
        self
    }

    /// The form's value if it has no terms.
    pub(super) fn as_konst(&self) -> Option<i64> {
        self.terms.is_empty().then_some(self.konst)
    }
}
