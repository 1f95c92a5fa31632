//! How a range runs: once per block across all lanes when its threads
//! provably commute and none can fault, otherwise per thread in thread
//! order. Decided here, once, from what the lowering knows.

use super::linear::Atom;
use super::{Stretch, Touch};
use crate::interp::program::{
    Access, LaneTable, Op, Program, Reason, Reg, Verdict, BOOL, COLUMN, DYN, ELEMENT, FILE_SHIFT,
    MEM,
};

#[cfg(doc)]
use super::chain::Chain;

/// Elements a footprint proof enumerates before it gives up (all threads,
/// all iterations of leaf loops, all accesses to one buffer). The tile
/// fills and write-backs of the schedule templates take a few thousand.
const FOOTPRINT_CAP: usize = 1 << 15;

/// The verdict on `code[s.start..s.end]` of the finished program `p`;
/// `lanes` is what its lane code computed, every register of it (`None` if
/// it could not run).
///
/// **Structure.** A range is wide when nothing in it can fault, every
/// register it touches has a static type, every loop in it is proven to take
/// as many trips in every thread and it writes nothing but its threads' own
/// registers and register arrays. Threads of such a range share no written
/// state, so running them one instruction at a time is running them one
/// after another; a branch they take differently runs each side under a
/// lane mask, and a lane the mask has off does nothing at all.
///
/// **Footprint.** A range that also stores to shared or global memory is
/// wide when, for every buffer it stores to, no element is touched by two
/// threads unless both only load it — counting every access of the range to
/// that buffer, in every iteration of its loops. That is the task-mapping
/// argument (a `spatial` / `repeat` composition partitions the tile among the
/// workers), re-established on the addresses instead of trusted: each is a
/// constant, plus a part only `threadIdx` decides, plus a part the whole
/// block shares, plus the variables of loops inside the leaf. Where all
/// accesses to a buffer have the same block-wide part, the threads' elements
/// relative to it are enumerated and compared — leaving out the threads that
/// a guard decided by a lane register keeps away from an access, which only
/// ever shrinks a footprint. An address that is one function of such a sum
/// for every access to the buffer (a [`Chain`]: the NCHW scatter of a conv
/// epilogue) is proven by comparing the sums instead, once the function is
/// shown one-to-one over every value the sums can take. Anything else — an
/// index that is neither, block-wide parts or functions that differ, too
/// many elements — is unproven, and unproven runs per thread.
pub(super) fn judge(p: &Program, s: &Stretch, lanes: Option<&LaneTable>) -> Verdict {
    if s.may_fault {
        return Verdict::PerThread(Reason::CanFault);
    }
    if !typed(p, &p.code[s.start as usize..s.end as usize]) {
        return Verdict::PerThread(Reason::Untyped);
    }
    if s.divergent {
        return Verdict::PerThread(Reason::DivergentLoop);
    }
    let mut stored: Vec<u32> = (s.touches.iter().filter(|t| t.store))
        .map(|t| t.buffer)
        .collect();
    stored.sort_unstable();
    stored.dedup();
    for buffer in stored {
        let touches = s.touches.iter().filter(|t| t.buffer == buffer);
        if let Err(reason) = apart(p, buffer, touches, lanes) {
            return Verdict::PerThread(reason);
        }
    }
    Verdict::Wide
}

/// Whether every register `code` touches has a static type — is a column of
/// `i64`, `f32` or `bool`, or a block-level scalar.
pub(super) fn typed(p: &Program, code: &[Op]) -> bool {
    let untyped = |r: Reg| r & MEM == 0 && r >> FILE_SHIFT == DYN;
    let mut dynamic = false;
    for mut op in code.iter().copied() {
        op.for_each_reg(|r| {
            dynamic |= untyped(*r);
            if let Some(a) = access(p, *r) {
                let dims = &p.dims[a.first_dim as usize..][..a.rank as usize];
                dynamic |= dims.iter().any(|d| untyped(d.idx));
            }
        });
    }
    !dynamic
}

/// The access a memory operand names, unless it is a register-array element.
fn access(p: &Program, operand: Reg) -> Option<&Access> {
    (operand & (MEM | ELEMENT) == MEM).then(|| &p.accesses[(operand & !MEM) as usize])
}

/// Whether the threads of a range stay apart in `buffer`, of which `touches`
/// are all the range's accesses: no element is touched by two threads, one
/// of them storing it. Elements are counted from the part of the address
/// the whole block shares — of the sum, for addresses that are a chain of
/// one.
fn apart<'t>(
    p: &Program,
    buffer: u32,
    touches: impl Iterator<Item = &'t Touch>,
    lanes: Option<&LaneTable>,
) -> Result<(), Reason> {
    const UNPROVEN: Reason = Reason::UnprovenFootprint;
    let lanes = lanes.ok_or(UNPROVEN)?;
    let touches: Vec<&Touch> = touches.collect();
    if !one_function(&touches) {
        return Err(UNPROVEN);
    }
    let mut shared: Option<Vec<(Atom, i64)>> = None;
    // (element, thread, stores it)
    let mut elements: Vec<(i64, u32, bool)> = Vec::new();
    for touch in touches {
        let address = touch.address.as_ref().ok_or(UNPROVEN)?;
        let terms = address.terms();
        let fixed = terms.iter().filter(|t| matches!(t.0, Atom::Fixed(_)));
        let fixed: Vec<_> = fixed.copied().collect();
        if *shared.get_or_insert_with(|| fixed.clone()) != fixed {
            return Err(UNPROVEN);
        }
        let room = FOOTPRINT_CAP - elements.len();
        let store = touch.store;
        reach(p, touch, lanes, room, |at, thread| {
            elements.push((at, thread, store));
        })
        .ok_or(UNPROVEN)?;
    }
    match meet(elements.iter().copied()).ok_or(UNPROVEN)? {
        None => Ok(()),
        Some((element, threads)) => Err(Reason::Overlap {
            buffer: p.buffer_names[buffer as usize].clone(),
            element,
            threads,
        }),
    }
}

/// Where workers meet in `touches`, each `(element, worker, stores it)`:
/// the least element two different workers touch, one of them storing it,
/// with the two, the lower first. `Some(None)` when there is no such
/// element; `None`, not proven, when a touch does not fit the packed word —
/// an element 2⁴⁰ or more past the least, a worker of 2²² or more. The
/// range proof hands it the threads of a block, the grid proof the blocks
/// of a grid; each bounds `touches` by its own budget.
pub(super) fn meet(
    touches: impl Iterator<Item = (i64, u32, bool)> + Clone,
) -> Option<Option<(i64, (u32, u32))>> {
    // Each touch as one word — the element above the worker above the
    // store bit — so that sorting compares integers.
    let (least, count) = (touches.clone()).fold((i64::MAX, 0), |(least, count), t| {
        (least.min(t.0), count + 1)
    });
    let mut words = Vec::with_capacity(count);
    for (at, worker, store) in touches {
        let at = u64::try_from(at.wrapping_sub(least)).ok()?;
        if at >= 1 << 40 || worker >= 1 << 22 {
            return None;
        }
        words.push(at << 23 | u64::from(worker) << 1 | u64::from(store));
    }
    // A stable sort merges the ascending runs the grid proof hands over,
    // one per access.
    words.sort();
    let worker = |word: u64| (word >> 1 & ((1 << 22) - 1)) as u32;
    // Within the run of one element, sorted by worker: a store by one worker
    // and anything by another.
    let mut runs = words.chunk_by(|a, b| a >> 23 == b >> 23);
    Some(runs.find_map(|run| {
        let storing = worker(*run.iter().find(|&&word| word & 1 == 1)?);
        let ends = [run[0], run[run.len() - 1]].map(worker);
        let other = ends.into_iter().find(|&other| other != storing)?;
        let at = least.wrapping_add((run[0] >> 23) as i64);
        Some((at, (storing.min(other), storing.max(other))))
    }))
}

/// Whether `touches`, every access to one buffer, all address it through
/// one function of their sums that is one-to-one over every value those
/// sums take — or none does: either way, sums that differ are elements that
/// differ.
pub(super) fn one_function<'t>(touches: &[&'t Touch]) -> bool {
    let chain = |t: &'t Touch| t.through.as_ref().map(|(chain, _)| chain);
    let through = touches.first().and_then(|&t| chain(t));
    if touches.iter().any(|&t| chain(t) != through) {
        return false;
    }
    let Some(through) = through else {
        return true;
    };
    let ranges = touches
        .iter()
        .flat_map(|t| &t.through)
        .map(|(_, range)| *range);
    let hull = ranges.reduce(|a, b| (a.0.min(b.0), a.1.max(b.1)));
    hull.is_some_and(|hull| through.one_to_one(hull))
}

/// Every element `touch` reaches in one block, with the thread reaching it,
/// over all iterations of the leaf's loops, handed to `out`: its address
/// less the part the whole block shares. A thread a lane guard keeps out
/// does not touch the element. `None` when that is more than `room`
/// elements, or the address is not understood.
pub(super) fn reach(
    p: &Program,
    touch: &Touch,
    lanes: &LaneTable,
    room: usize,
    mut out: impl FnMut(i64, u32),
) -> Option<()> {
    let address = touch.address.as_ref()?;
    let terms = address.terms();
    // What the leaf's loops add, over all their iterations.
    let loops = terms.iter().filter_map(|&(atom, by)| match atom {
        Atom::Var { trips, .. } => Some((trips.max(0), by)),
        _ => None,
    });
    let instances = loops.clone().fold(p.block_dim, |n, (trips, _)| {
        n.saturating_mul(trips as usize)
    });
    if instances > room {
        return None;
    }
    let mut offsets = vec![address.konst];
    for (trips, by) in loops {
        let step = |i: i64| {
            offsets
                .iter()
                .map(move |at| at.wrapping_add(by.wrapping_mul(i)))
        };
        offsets = (0..trips).flat_map(step).collect();
    }
    let reaches = |thread: usize| {
        (touch.guard.iter()).all(|&(r, holds)| {
            debug_assert_eq!(r >> FILE_SHIFT, BOOL);
            lanes.bools[(r & COLUMN) as usize + thread] == holds
        })
    };
    for thread in (0..p.block_dim).filter(|&thread| reaches(thread)) {
        let mut own = 0i64;
        for &(atom, by) in terms {
            if let Atom::Lane(r) = atom {
                let lane = lanes.ints[(r & COLUMN) as usize + thread];
                own = own.wrapping_add(lane.wrapping_mul(by));
            }
        }
        for at in &offsets {
            out(at.wrapping_add(own), thread as u32);
        }
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::meet;
    use proptest::prelude::*;

    /// Whether two workers meet at `at` by the definition: two touches of it
    /// by different workers, one of them a store.
    fn met_at(touches: &[(i64, u32, bool)], at: i64) -> bool {
        let here = || touches.iter().filter(|t| t.0 == at);
        here().any(|a| here().any(|b| a.1 != b.1 && (a.2 || b.2)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// `meet` reports the least element the definition has two workers
        /// meet at, and none when there is none; the two it names differ,
        /// both touch the element and one of them stores it. Few elements
        /// and workers make repeats inside one worker common; the edges of
        /// the packed word's fields are among them.
        #[test]
        fn meet_agrees_with_the_pairwise_definition(
            touches in prop::collection::vec(
                (
                    prop_oneof![-4i64..4, Just((1 << 40) - 5)],
                    prop::sample::select(vec![0u32, 1, 2, (1 << 22) - 1]),
                    prop::sample::select(vec![false, true]),
                ),
                0..10,
            ),
        ) {
            let met = meet(touches.iter().copied()).expect("every touch fits the word");
            let least = (touches.iter().map(|t| t.0)).filter(|&at| met_at(&touches, at)).min();
            prop_assert_eq!(met.map(|(at, _)| at), least);
            if let Some((at, (lower, higher))) = met {
                let touched = |worker| touches.iter().any(|t| (t.0, t.1) == (at, worker));
                let stored = |worker| touches.contains(&(at, worker, true));
                prop_assert!(lower < higher);
                prop_assert!(touched(lower) && touched(higher));
                prop_assert!(stored(lower) || stored(higher));
            }
        }
    }

    #[test]
    fn a_touch_that_does_not_fit_the_word_is_refused() {
        let top = (1 << 22) - 1;
        assert_eq!(
            meet([(0, top, true), (0, 0, false)].into_iter()),
            Some(Some((0, (0, top))))
        );
        assert_eq!(meet([(0, top + 1, true), (0, 0, false)].into_iter()), None);
        assert_eq!(meet([(0, 0, true), (1 << 40, 1, false)].into_iter()), None);
        assert_eq!(
            meet([(i64::MIN, 0, true), (i64::MAX, 1, false)].into_iter()),
            None
        );
    }
}
