//! Lane masks: which lanes of a wide range an instruction runs for.
//!
//! Outside any branch the lanes take differently, every lane runs
//! ([`Every`], which the column loops compile away). At such a branch the
//! active lanes split into a *then* mask and an *else* mask, each a `bool`
//! column of the block's mask storage, one pair per level of nesting; each
//! side runs under its own, and a lane a mask has off does nothing at all.
//! A side only a few lanes take runs lane by lane instead: the row past
//! the last of a partial tile leaves most of a block idle, and a column
//! loop would visit every idle lane on every instruction.

use std::cell::Cell;

use super::Src;
use crate::interp::exec::{column, Block, Fault};
use crate::interp::program::{Op, Reg, BOOL, COLUMN, FILE_SHIFT};
use crate::interp::SimError;
use crate::value::Value;

/// A side of a branch that at most one lane in `FEW` takes runs lane by
/// lane: a column loop would visit every lane to skip the others, where
/// stepping one lane through an instruction costs a few lane visits.
const FEW: usize = 8;

/// The lanes an instruction runs for.
pub(super) trait Active: Copy {
    fn on(self, lane: usize) -> bool;

    /// Every lane runs.
    fn all(self) -> bool {
        false
    }

    /// The first lane that runs, of `n`.
    fn first(self, n: usize) -> Option<usize> {
        (0..n).find(|&lane| self.on(lane))
    }
}

/// Every lane: code outside any branch the lanes take differently.
#[derive(Clone, Copy)]
pub(super) struct Every;

impl Active for Every {
    #[inline(always)]
    fn on(self, _: usize) -> bool {
        true
    }

    fn all(self) -> bool {
        true
    }

    fn first(self, n: usize) -> Option<usize> {
        (n > 0).then_some(0)
    }
}

/// The lanes a mask column has on.
impl Active for &[Cell<bool>] {
    #[inline(always)]
    fn on(self, lane: usize) -> bool {
        self[lane].get()
    }
}

/// The active lanes whose condition reads `side`: the lanes that choose
/// one source of a `Select`, and the only ones that load it.
#[derive(Clone, Copy)]
pub(super) struct Choosing<'c, A> {
    active: A,
    cond: Src<'c, bool>,
    side: bool,
}

impl<'c, A: Active> Choosing<'c, A> {
    pub(super) fn new(active: A, cond: Src<'c, bool>, side: bool) -> Self {
        Choosing { active, cond, side }
    }
}

impl<A: Active> Active for Choosing<'_, A> {
    #[inline(always)]
    fn on(self, lane: usize) -> bool {
        self.active.on(lane) && self.cond.at(lane) == self.side
    }
}

/// Where the active lanes go at a `Branch`.
pub(super) enum Split<'a> {
    /// All of them into the then side.
    All,
    /// None of them.
    None,
    /// Some each way: the masks of the two sides.
    Both(&'a [Cell<bool>], &'a [Cell<bool>]),
}

impl<'a> Block<'a> {
    /// Splits the lanes `active` has on by `cond`, into the pair of mask
    /// columns of nesting level `depth` when they go both ways. A condition
    /// the whole block shares is `lead`'s to read.
    pub(super) fn split(
        &self,
        cond: Reg,
        select: bool,
        active: impl Active,
        depth: usize,
        lead: usize,
    ) -> Result<Split<'a>, Fault> {
        let n = self.regs.n;
        if cond >> FILE_SHIFT != BOOL {
            return Ok(match self.condition(cond, lead, select)? {
                true => Split::All,
                false => Split::None,
            });
        }
        let lanes = column(self.regs.bools, (cond & COLUMN) as usize, n);
        let masks = self.regs.masks.get(2 * depth * n..2 * (depth + 1) * n);
        let Some((then, otherwise)) = masks.map(|pair| pair.split_at(n)) else {
            return Err(Box::new(SimError::TypeError(format!(
                "lane masks nest deeper than the {depth} the lowering counted"
            ))));
        };
        let (mut taken, mut left) = (false, false);
        for (lane, c) in lanes.iter().enumerate() {
            let (on, c) = (active.on(lane), c.get());
            then[lane].set(on && c);
            otherwise[lane].set(on && !c);
            (taken, left) = (taken | (on && c), left | (on && !c));
        }
        Ok(match (taken, left) {
            (true, true) => Split::Both(then, otherwise),
            (true, false) => Split::All,
            (false, _) => Split::None,
        })
    }

    /// Runs `code`, one side of a branch, for the lanes `mask` has on (its
    /// masks `depth` deep): across them, or — where they are few — each to
    /// the side's end in turn. The threads of a wide range commute, so
    /// either order is theirs.
    pub(super) fn side(
        &mut self,
        code: &[Op],
        mask: &'a [Cell<bool>],
        depth: usize,
    ) -> Result<(), Fault> {
        let n = self.regs.n;
        if mask.iter().filter(|lane| lane.get()).count() * FEW > n {
            return self.masked(code, mask, depth);
        }
        let lanes = (0..n).filter(|&lane| mask[lane].get());
        lanes.into_iter().try_for_each(|lane| self.step(code, lane))
    }

    /// Writes `v` to every active lane of register `r`.
    pub(super) fn fill_where(&self, r: Reg, v: Value, active: impl Active) -> Result<(), Fault> {
        if active.all() {
            return self.fill(r, v);
        }
        let lanes = (0..self.regs.n).filter(|&lane| active.on(lane));
        lanes.into_iter().try_for_each(|lane| self.set(r, lane, v))
    }
}
