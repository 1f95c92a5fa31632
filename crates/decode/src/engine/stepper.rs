//! The stepped driver: a [`Stepper`] runs the engine's
//! [`Scheduler`](super::schedule::Scheduler) one iteration per call, on the
//! caller's thread, at the host instant the caller names. Nothing is
//! host-timed, so a test states arrival order, deadlines and migration
//! policy exactly — and replays them.

use std::sync::Arc;
use std::time::Instant;

use super::migrate::relocate;
use super::schedule::Scheduler;
use super::shard::Shared;

/// What a [`Stepper::relocate`] policy sees of one active session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActiveView {
    /// The decode shard the session is active on.
    pub shard: usize,
    /// Tokens it has emitted so far.
    pub emitted: usize,
    /// The id its request was submitted with
    /// ([`GenerateRequest::with_trace`](crate::GenerateRequest::with_trace)) —
    /// what tells sessions apart across calls.
    pub trace_id: u64,
}

/// The driver of a [stepped](crate::DecodeEngine::stepped) engine.
///
/// Dropping it shuts the engine down the way dropping a threaded engine
/// does: queued sessions fail [`Closed`](crate::DecodeError::Closed),
/// in-flight ones drain to completion.
pub struct Stepper {
    shared: Arc<Shared>,
    scheduler: Scheduler,
}

impl Stepper {
    pub(super) fn new(shared: Arc<Shared>) -> Stepper {
        Stepper {
            scheduler: Scheduler::new(&shared),
            shared,
        }
    }

    /// Runs one scheduler iteration at host instant `now` (what session
    /// deadlines are compared against). Returns `false`, having run no
    /// pass, when no session is active after admission — the engine is idle,
    /// paused, or drained.
    pub fn step(&mut self, now: Instant) -> bool {
        let waiting = self.shared.waiting.lock().expect("waiting poisoned");
        self.scheduler.iterate(&self.shared, waiting, now).is_none()
    }

    /// Steps at `now` until the engine is idle; returns the iterations run.
    pub fn run_until_idle(&mut self, now: Instant) -> usize {
        let mut iterations = 0;
        while self.step(now) {
            iterations += 1;
        }
        iterations
    }

    /// Live-migrates every active session `target` names a shard for (other
    /// than its own): its KV blocks are freed, and its replay chain
    /// re-admits at the head of that shard's queue on the next step. Returns
    /// how many moved. This is how a test states a migration policy — the
    /// scheduler's own triggers are KV pressure and the headroom rebalance.
    ///
    /// # Panics
    /// If `target` names a shard the engine does not have.
    pub fn relocate(&mut self, mut target: impl FnMut(ActiveView) -> Option<usize>) -> usize {
        let nshards = self.scheduler.shards.len();
        let mut moved = 0;
        for (s, shard) in self.scheduler.shards.iter_mut().enumerate() {
            let mut i = 0;
            while i < shard.active.len() {
                let seq = &shard.active[i];
                let view = ActiveView {
                    shard: s,
                    emitted: seq.emitted,
                    trace_id: seq.trace_id,
                };
                match target(view).filter(|&to| to != s) {
                    Some(to) => {
                        assert!(to < nshards, "shard {to} out of range ({nshards} shards)");
                        relocate(&self.shared, shard, s, i, to);
                        moved += 1;
                    }
                    None => i += 1,
                }
            }
        }
        moved
    }
}

impl Drop for Stepper {
    fn drop(&mut self) {
        self.shared.close();
        self.run_until_idle(Instant::now());
    }
}
