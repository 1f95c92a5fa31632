//! The stepped driver: a [`Stepper`] runs the engine's batch former
//! ([`Dispatcher`]) and the batches it places on the caller's thread, at the
//! host instant the caller names. Nothing is host-timed, so a test states
//! arrivals, straggler windows and deadlines exactly — and replays them.

use std::sync::Arc;
use std::time::Instant;

use super::dispatch::{Dispatcher, Next};
use super::worker::process_batch;
use super::Shared;

/// The driver of a [stepped](super::Engine::stepped) engine.
///
/// Dropping it shuts the engine down the way dropping a threaded engine
/// does: submissions are refused with [`Closed`](super::EngineError::Closed)
/// and everything queued is executed (or expires) before it returns.
pub struct Stepper {
    shared: Arc<Shared>,
    dispatcher: Dispatcher,
    /// One execution arena per shard: a stepped shard runs one batch at a
    /// time.
    workspaces: Vec<hidet::Workspace>,
}

impl Stepper {
    pub(super) fn new(shared: Arc<Shared>) -> Stepper {
        Stepper {
            dispatcher: Dispatcher::default(),
            workspaces: shared
                .shards
                .iter()
                .map(|_| hidet::Workspace::new())
                .collect(),
            shared,
        }
    }

    /// Places every batch ready at host instant `now` (what straggler
    /// windows and request deadlines are compared against) — each against
    /// the pending estimates of those placed before it — then executes them
    /// in placement order. Returns how many batches it placed; 0 means the
    /// queue is empty or its head group is held open until a later `now`.
    pub fn step(&mut self, now: Instant) -> usize {
        let mut placed = Vec::new();
        {
            let mut queue = self.shared.queue.lock().expect("queue poisoned");
            while let Next::Place { shard, job } =
                self.dispatcher.next(&self.shared, &mut queue, now)
            {
                placed.push((shard, job));
            }
        }
        let count = placed.len();
        for (shard, job) in placed {
            let token = job.token;
            process_batch(&self.shared, shard, job, &mut self.workspaces[shard], now);
            self.shared.shards[shard].release(token);
        }
        count
    }
}

impl Drop for Stepper {
    fn drop(&mut self) {
        // Closed, no window holds a batch open: one step drains the queue.
        self.shared.close();
        self.step(Instant::now());
    }
}
