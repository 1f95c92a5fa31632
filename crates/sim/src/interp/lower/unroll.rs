//! Unrolling: a barrier-free loop with a constant extent as copies of its
//! body, abandoned — and rolled back to a [`Checkpoint`] — as soon as the
//! copies are bound to outgrow the budget.

use hidet_ir::{Kernel, Stmt};

use super::{Lowerer, BLOCK, INDEX, LANE, SPACE_SHIFT, THREAD};
use crate::interp::program::Reg;
use crate::value::Value;

/// A loop whose extent folds to a constant is unrolled when its copies take
/// at most `UNROLL_OPS` instructions, hoisted ones included — and at most
/// [`UNROLL_GROWTH`] times the kernel's IR nodes — innermost loops first,
/// so a nest unrolls from the inside out for as long as it fits.
const UNROLL_OPS: usize = 512;
/// Bounds how far a program can outgrow its kernel: a small kernel's loops
/// get a budget proportional to it.
const UNROLL_GROWTH: usize = 3;

/// The instruction budget of one loop's copies in `kernel`.
pub(super) fn budget(kernel: &Kernel) -> usize {
    UNROLL_OPS.min(UNROLL_GROWTH * hidet_ir::visit::count_nodes(kernel.body()))
}

/// How much of the program existed at some point of the lowering.
pub(super) struct Checkpoint {
    accesses: usize,
    dims: usize,
    traps: usize,
    block_regs: usize,
    block_code: usize,
    lane_regs: usize,
    lane_code: usize,
    thread_regs: usize,
    thread_code: usize,
    loop_regs: usize,
    /// Per open loop, outermost first.
    prologues: Vec<usize>,
    hoisted_ops: usize,
}

impl<'k> Lowerer<'k> {
    /// Lowers a loop of `trips` iterations as that many copies of its body,
    /// the loop variable a constant in each — which makes tile-local index
    /// arithmetic (`ty * 4 + i`) lane-level and register-tile indices
    /// constants. Returns `false`, having emitted nothing, when the copies
    /// take more than the budget — or, from the second copy on, would: what
    /// they took so far plus the last copy's growth for every trip left.
    /// (The first copy is no guide: it also computes the hoisted terms the
    /// others share.) A loop of more trips than the budget has instructions
    /// is not tried, nor one whose copies outgrew it before — the same body
    /// and trips inside an enclosing loop's copies, or again once that loop
    /// stayed a loop.
    pub(super) fn unroll(&mut self, name: &'k str, trips: i64, body: &'k Stmt) -> bool {
        let budget = self.budget;
        let key = (std::ptr::from_ref(body), trips);
        if trips > budget as i64 || self.rolled.contains(&key) {
            return false;
        }
        let mark = self.temp_top;
        let scope = self.env.len();
        let start = self.checkpoint();
        let (fits, copies) = self.capture(|l| {
            let mut emitted = 0;
            for i in 0..trips {
                let var = l.konst(Value::I64(i));
                l.env.push((name, Some(var)));
                l.poison_leaked(body);
                l.stmt(body);
                l.env.truncate(scope);
                l.temp_top = mark;
                let before = std::mem::replace(&mut emitted, l.emitted_since(&start));
                let left = (trips - 1 - i) as usize;
                let projected = match i {
                    0 => emitted,
                    _ => emitted + (emitted - before) * left,
                };
                if projected > budget {
                    return false;
                }
            }
            true
        });
        if fits {
            self.splice(copies);
        } else {
            self.rollback(start);
            self.rolled.insert(key);
        }
        fits
    }

    pub(super) fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            accesses: self.p.accesses.len(),
            dims: self.p.dims.len(),
            traps: self.p.traps.len(),
            block_regs: self.p.block_init.len(),
            block_code: self.p.block_code.len(),
            lane_regs: self.lane_tys.len(),
            lane_code: self.lane_code.len(),
            thread_regs: self.thread_tys.len(),
            thread_code: self.thread_code.len(),
            loop_regs: self.loop_tys.len(),
            prologues: self.loops.iter().map(|open| open.prologue.len()).collect(),
            hoisted_ops: self.hoisted_ops(),
        }
    }

    /// Instructions in every stream but the body's, open prologues included.
    fn hoisted_ops(&self) -> usize {
        let prologues: usize = self.loops.iter().map(|open| open.prologue.len()).sum();
        self.p.block_code.len() + self.lane_code.len() + self.thread_code.len() + prologues
    }

    /// Instructions emitted since `start`, hoisted ones included — into the
    /// prologues of the loops open then (and still) too.
    pub(super) fn emitted_since(&self, start: &Checkpoint) -> usize {
        self.frag.code.len() + self.hoisted_ops() - start.hoisted_ops
    }

    /// Forgets everything lowered since `start` but the buffers it named.
    pub(super) fn rollback(&mut self, start: Checkpoint) {
        self.p.accesses.truncate(start.accesses);
        self.p.dims.truncate(start.dims);
        self.p.traps.truncate(start.traps);
        self.p.block_init.truncate(start.block_regs);
        self.p.block_code.truncate(start.block_code);
        self.lane_tys.truncate(start.lane_regs);
        self.lane_code.truncate(start.lane_code);
        self.thread_tys.truncate(start.thread_regs);
        self.thread_code.truncate(start.thread_code);
        self.loop_tys.truncate(start.loop_regs);
        let live = |r: Reg| {
            let index = (r & INDEX) as usize;
            match r >> SPACE_SHIFT {
                BLOCK => index < start.block_regs,
                LANE => index < start.lane_regs,
                THREAD => index < start.thread_regs,
                _ => index < start.loop_regs,
            }
        };
        self.consts.retain(|_, r| live(*r));
        self.hoisted.retain(|_, r| live(*r));
        self.linear_of.retain(|r, _| live(*r));
        self.steps_of.retain(|r, _| live(*r));
        // Whatever the attempt opened it also closed: these are the loops
        // that were open at `start`.
        for (open, &len) in self.loops.iter_mut().zip(&start.prologues) {
            open.prologue.truncate(len);
            open.hoisted.retain(|_, r| live(*r));
        }
    }
}
