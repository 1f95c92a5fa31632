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

/// Terms a form holds; a sum of more atoms is not kept (and an access
/// through it is unproven). The indices of the schedule templates have up
/// to four.
const TERMS: usize = 6;

/// `konst + Σ atom × coefficient`, in wrapping `i64` arithmetic — the
/// executor's own — so the form is exact whatever overflows on the way.
#[derive(Debug, Clone, Copy)]
pub(super) struct Linear {
    pub(super) konst: i64,
    /// `terms[..len]`: sorted by atom, one term per atom, no zero
    /// coefficient, so equal sums of equal atoms compare equal.
    terms: [(Atom, i64); TERMS],
    len: usize,
}

impl Linear {
    pub(super) fn konst(konst: i64) -> Linear {
        Linear {
            konst,
            terms: [(Atom::Lane(0), 0); TERMS],
            len: 0,
        }
    }

    pub(super) fn atom(atom: Atom) -> Linear {
        let mut sum = Linear::konst(0);
        (sum.terms[0], sum.len) = ((atom, 1), 1);
        sum
    }

    pub(super) fn terms(&self) -> &[(Atom, i64)] {
        &self.terms[..self.len]
    }

    pub(super) fn terms_mut(&mut self) -> &mut [(Atom, i64)] {
        &mut self.terms[..self.len]
    }

    /// `self + other × by`; `None` if that has more than [`TERMS`] terms.
    pub(super) fn plus(&self, other: &Linear, by: i64) -> Option<Linear> {
        let mut sum = Linear::konst(self.konst.wrapping_add(other.konst.wrapping_mul(by)));
        let (mut ours, mut theirs) = (
            self.terms().iter().peekable(),
            other.terms().iter().peekable(),
        );
        loop {
            let term = match (ours.peek(), theirs.peek()) {
                (None, None) => return Some(sum),
                (Some(a), Some(b)) if a.0 == b.0 => {
                    let (a, b) = (ours.next()?, theirs.next()?);
                    (a.0, a.1.wrapping_add(b.1.wrapping_mul(by)))
                }
                (Some(a), Some(b)) if a.0 < b.0 => *ours.next()?,
                (Some(_), None) => *ours.next()?,
                (_, Some(_)) => {
                    let b = theirs.next()?;
                    (b.0, b.1.wrapping_mul(by))
                }
            };
            if term.1 != 0 {
                *sum.terms.get_mut(sum.len)? = term;
                sum.len += 1;
            }
        }
    }

    /// The form's value if it has no terms.
    pub(super) fn as_konst(&self) -> Option<i64> {
        (self.len == 0).then_some(self.konst)
    }
}

impl PartialEq for Linear {
    fn eq(&self, other: &Linear) -> bool {
        self.konst == other.konst && self.terms() == other.terms()
    }
}
