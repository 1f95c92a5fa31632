//! The process-wide compile-worker budget: concurrent compiles share the
//! host's cores instead of each spawning a full set of workers.

use std::sync::atomic::{AtomicUsize, Ordering};

#[cfg(doc)]
use super::compile_hashed;

/// Compile workers currently *spawned* across every in-flight
/// [`compile_hashed`] in the process. The thread that called the compiler is
/// never counted: with a grant above one it only parks in `thread::scope`,
/// and with a grant of one it compiles on itself and spawns nobody.
static ACTIVE_COMPILE_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// An RAII claim on the process-wide compile-worker budget.
///
/// Invariant: the ledger — the sum of every live claim's booked workers —
/// never exceeds the core count. A claim books `min(want, free)` workers in
/// one compare-exchange loop, so concurrent claimants cannot both take the
/// same free cores. When fewer than two are free (or wanted) the claim books
/// nothing and grants the caller's own thread only: that compile runs
/// sequentially on the thread that asked, which is not an extra worker, so a
/// compile arriving while others saturate the budget degrades to one thread
/// instead of piling on or blocking.
pub(super) struct WorkerBudget<'a> {
    ledger: &'a AtomicUsize,
    booked: usize,
}

impl WorkerBudget<'static> {
    pub(super) fn claim(want: usize) -> WorkerBudget<'static> {
        // Sequential compiles skip the core-count query (it reads cgroup
        // files on Linux): they book nothing whatever it says.
        let cores = if want <= 1 {
            1
        } else {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        };
        WorkerBudget::claim_with(&ACTIVE_COMPILE_WORKERS, cores, want)
    }
}

impl<'a> WorkerBudget<'a> {
    /// [`WorkerBudget::claim`] against an explicit ledger and core count —
    /// the seam the tests simulate small hosts through.
    pub(super) fn claim_with(
        ledger: &'a AtomicUsize,
        cores: usize,
        want: usize,
    ) -> WorkerBudget<'a> {
        // `fetch_update` is the compare-exchange loop: the claim is decided
        // against the value it replaces. Relaxed: the ledger publishes no
        // other data.
        let mut booked = 0;
        let _ = ledger.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |active| {
            booked = want.min(cores.saturating_sub(active));
            (booked > 1).then_some(active + booked)
        });
        booked = if booked > 1 { booked } else { 0 };
        WorkerBudget { ledger, booked }
    }

    /// Workers the compile may run: the booked ones, or the caller's own
    /// thread when nothing was booked.
    pub(super) fn granted(&self) -> usize {
        self.booked.max(1)
    }
}

impl Drop for WorkerBudget<'_> {
    fn drop(&mut self) {
        if self.booked > 0 {
            self.ledger.fetch_sub(self.booked, Ordering::Relaxed);
        }
    }
}
