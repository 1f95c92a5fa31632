//! The device pool: one [`Shard`] per configured [`GpuSpec`], plus the
//! placement scheduler that routes formed batches across shards.
//!
//! Placement is **least-estimated-queue-delay**: each shard tracks the
//! analytic latency estimates ([`hidet_sim::cost`]) of every batch placed on
//! it but not yet completed, and a new batch goes to the shard whose next
//! free worker lane is soonest ([`hidet_sim::estimated_queue_delay`]). That
//! balances *estimated seconds of work*, not batch counts, so a cut-down
//! device in a mixed pool naturally receives less traffic than a full
//! RTX 3090.
//!
//! Latency estimates come from the compiled graphs themselves
//! (`CompiledGraph::estimate`, the paper's cost model) and are memoized per
//! (shard, model, batch size) in [`LatencyModel`]. The first batch of a
//! never-seen shape is placed with a scaled or default estimate; every
//! completion refines the model. The compiled-graph cache stays shared
//! across shards — its key already includes the device fingerprint
//! ([`crate::CacheKey`]), so homogeneous shards share one compile while a
//! mixed pool compiles once per distinct device.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use hidet_sim::{estimated_queue_delay, Gpu, GpuSpec};

/// Fallback estimate for a batch whose (model, batch size) has never been
/// compiled or executed anywhere in the pool: roughly a small fused kernel.
const DEFAULT_BATCH_SECONDS: f64 = 100e-6;

/// One device of the pool and its in-flight accounting.
#[derive(Debug)]
pub(crate) struct Shard {
    /// Index in `EngineConfig::devices`.
    pub(crate) id: usize,
    /// The simulated device this shard executes on.
    pub(crate) gpu: Gpu,
    /// Worker lanes feeding this device (`EngineConfig::workers`).
    pub(crate) lanes: usize,
    /// Estimated seconds of every placed-but-unfinished batch, by token.
    /// Tokens increase monotonically with placement, so iterating the map
    /// yields batches in FIFO placement order — the order
    /// [`estimated_queue_delay`]'s greedy lane assignment assumes.
    pending: Mutex<BTreeMap<u64, f64>>,
    /// Batches dispatched to this shard.
    dispatches: AtomicUsize,
    /// Requests served by this shard.
    requests: AtomicUsize,
    /// Simulated busy seconds accumulated by completed batches (nanos).
    busy_nanos: AtomicU64,
    /// Requests the admission controller shed while this shard was the
    /// least-loaded candidate (i.e. the shard that would have served them).
    shed: AtomicUsize,
}

impl Shard {
    pub(crate) fn new(id: usize, spec: GpuSpec, lanes: usize) -> Shard {
        Shard {
            id,
            gpu: Gpu::new(spec),
            lanes: lanes.max(1),
            pending: Mutex::new(BTreeMap::new()),
            dispatches: AtomicUsize::new(0),
            requests: AtomicUsize::new(0),
            busy_nanos: AtomicU64::new(0),
            shed: AtomicUsize::new(0),
        }
    }

    /// Estimated delay before a new batch placed now would start executing.
    pub(crate) fn queue_delay(&self) -> f64 {
        let pending: Vec<f64> = self
            .pending
            .lock()
            .expect("shard poisoned")
            .values()
            .copied()
            .collect();
        estimated_queue_delay(&pending, self.lanes)
    }

    /// Records a placed batch; `token` must be released via
    /// [`Shard::release`] when the batch finishes (or fails). Tokens must
    /// be assigned in placement order (the dispatcher's counter guarantees
    /// this) so that [`Shard::queue_delay`] sees a FIFO queue.
    pub(crate) fn place(&self, token: u64, estimated_seconds: f64) {
        self.pending
            .lock()
            .expect("shard poisoned")
            .insert(token, estimated_seconds);
        self.dispatches.fetch_add(1, Ordering::Relaxed);
    }

    /// Accounts an executed batch's served requests and device time. Called
    /// *before* the batch's responses are sent, so a snapshot taken after
    /// the last response always sees consistent per-shard counters.
    pub(crate) fn account(&self, served_requests: usize, busy_seconds: f64) {
        self.requests.fetch_add(served_requests, Ordering::Relaxed);
        self.busy_nanos
            .fetch_add((busy_seconds * 1e9) as u64, Ordering::Relaxed);
    }

    /// Releases a placed batch's queue-delay contribution once the worker is
    /// done with it (successfully or not).
    pub(crate) fn release(&self, token: u64) {
        self.pending.lock().expect("shard poisoned").remove(&token);
    }

    /// Counts a request shed at admission while this shard was the best
    /// placement candidate.
    pub(crate) fn count_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> ShardSnapshot {
        ShardSnapshot {
            id: self.id,
            device: self.gpu.spec().name.clone(),
            dispatched_batches: self.dispatches.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            busy_seconds: self.busy_nanos.load(Ordering::Relaxed) as f64 / 1e9,
            shed_requests: self.shed.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time view of one shard, surfaced in
/// [`crate::StatsSnapshot::shards`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSnapshot {
    /// Index in `EngineConfig::devices`.
    pub id: usize,
    /// Device name (`GpuSpec::name`).
    pub device: String,
    /// Batches dispatched to this shard.
    pub dispatched_batches: usize,
    /// Requests served by this shard.
    pub requests: usize,
    /// Simulated device-seconds this shard spent executing batches.
    pub busy_seconds: f64,
    /// Requests shed at admission while this shard was the least-loaded
    /// candidate.
    pub shed_requests: usize,
}

/// Memoized analytic latency estimates, keyed by (shard, model, batch size).
///
/// Values are `CompiledGraph::estimate` outputs — the paper's cost model on
/// the shard's device — recorded at warmup and after every executed batch.
#[derive(Debug, Default)]
pub(crate) struct LatencyModel {
    map: Mutex<HashMap<(usize, String, i64), f64>>,
}

impl LatencyModel {
    /// Stores the analytic estimate for `model` at `batch` on shard `shard`.
    pub(crate) fn record(&self, shard: usize, model: &str, batch: i64, seconds: f64) {
        self.map
            .lock()
            .expect("latency model poisoned")
            .insert((shard, model.to_string(), batch), seconds);
    }

    /// Drops every estimate recorded for `model` (all shards, all batch
    /// sizes) — called when the engine unloads a model so a later
    /// registration under the same name starts from fresh evidence.
    pub(crate) fn forget_model(&self, model: &str) {
        self.map
            .lock()
            .expect("latency model poisoned")
            .retain(|(_, m, _), _| m != model);
    }

    /// Best available estimate for `model` at `batch` on shard `shard`:
    /// the exact entry, else the same shape on any shard, else another batch
    /// size of the model on this shard scaled linearly, else a small default.
    pub(crate) fn estimate(&self, shard: usize, model: &str, batch: i64) -> f64 {
        let map = self.map.lock().expect("latency model poisoned");
        if let Some(&s) = map.get(&(shard, model.to_string(), batch)) {
            return s;
        }
        if let Some(s) = map
            .iter()
            .find(|((_, m, b), _)| m == model && *b == batch)
            .map(|(_, &s)| s)
        {
            return s;
        }
        if let Some(((_, _, b), &s)) = map
            .iter()
            .filter(|((sh, m, _), _)| *sh == shard && m == model)
            .max_by_key(|((_, _, b), _)| *b)
        {
            return s * batch as f64 / (*b).max(1) as f64;
        }
        DEFAULT_BATCH_SECONDS
    }
}

/// The shard with the least estimated queue delay, and that delay — where
/// the dispatcher places a batch (ties go to the lowest id), and the
/// admission controller's view of how congested the devices are.
pub(crate) fn least_queue_delay(shards: &[Shard]) -> (usize, f64) {
    shards
        .iter()
        .map(|s| (s.id, s.queue_delay()))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("engine has at least one shard")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(id: usize, lanes: usize) -> Shard {
        Shard::new(id, GpuSpec::tiny(), lanes)
    }

    #[test]
    fn queue_delay_tracks_pending_batches() {
        let s = shard(0, 1);
        assert_eq!(s.queue_delay(), 0.0);
        s.place(1, 0.010);
        s.place(2, 0.020);
        assert!((s.queue_delay() - 0.030).abs() < 1e-12);
        s.account(4, 0.010);
        s.release(1);
        assert!((s.queue_delay() - 0.020).abs() < 1e-12);
        s.account(4, 0.020);
        s.release(2);
        assert_eq!(s.queue_delay(), 0.0);
        let snap = s.snapshot();
        assert_eq!(snap.dispatched_batches, 2);
        assert_eq!(snap.requests, 8);
        assert!((snap.busy_seconds - 0.030).abs() < 1e-9);
    }

    #[test]
    fn queue_delay_respects_fifo_placement_order() {
        // Greedy lane assignment is order-sensitive: FIFO [4, 1, 1] on two
        // lanes puts both short batches behind each other (delay 2), not
        // behind the long one (which would misreport 1). The pending map is
        // ordered by token, so placement order is what the estimator sees.
        let s = shard(0, 2);
        s.place(1, 4.0);
        s.place(2, 1.0);
        s.place(3, 1.0);
        assert!((s.queue_delay() - 2.0).abs() < 1e-12, "{}", s.queue_delay());
    }

    #[test]
    fn multi_lane_shard_hides_shorter_queue() {
        let s = shard(0, 2);
        s.place(1, 0.010);
        // Second lane is free: no delay for the next batch.
        assert_eq!(s.queue_delay(), 0.0);
        s.place(2, 0.010);
        assert!((s.queue_delay() - 0.010).abs() < 1e-12);
    }

    #[test]
    fn placement_prefers_least_loaded_shard() {
        let shards = vec![shard(0, 1), shard(1, 1)];
        assert_eq!(least_queue_delay(&shards), (0, 0.0));
        shards[0].place(1, 0.050);
        let (second, _) = least_queue_delay(&shards);
        assert_eq!(second, 1, "loaded shard 0 must be avoided");
        shards[1].place(2, 0.100);
        let (third, delay) = least_queue_delay(&shards);
        assert_eq!(third, 0, "shard 0 now frees sooner");
        assert!((delay - 0.050).abs() < 1e-12);
    }

    #[test]
    fn latency_model_falls_back_sensibly() {
        let lm = LatencyModel::default();
        // Never seen anywhere: the default.
        assert!((lm.estimate(0, "m", 4) - DEFAULT_BATCH_SECONDS).abs() < 1e-12);
        // Exact entry wins.
        lm.record(0, "m", 4, 0.002);
        assert!((lm.estimate(0, "m", 4) - 0.002).abs() < 1e-12);
        // Same shape on another shard is next best.
        assert!((lm.estimate(1, "m", 4) - 0.002).abs() < 1e-12);
        // Another batch size on the same shard scales linearly.
        assert!((lm.estimate(0, "m", 8) - 0.004).abs() < 1e-12);
    }

    #[test]
    fn forgetting_a_model_resets_its_estimates() {
        let lm = LatencyModel::default();
        lm.record(0, "m", 4, 0.002);
        lm.record(1, "m", 8, 0.004);
        lm.record(0, "other", 4, 0.001);
        lm.forget_model("m");
        assert!((lm.estimate(0, "m", 4) - DEFAULT_BATCH_SECONDS).abs() < 1e-12);
        assert!((lm.estimate(0, "other", 4) - 0.001).abs() < 1e-12);
    }

    #[test]
    fn shed_attribution_lands_on_candidate_shard() {
        let shards = vec![shard(0, 1), shard(1, 1)];
        shards[0].place(1, 1.0);
        let (idx, _) = least_queue_delay(&shards);
        shards[idx].count_shed();
        assert_eq!(shards[1].snapshot().shed_requests, 1);
        assert_eq!(shards[0].snapshot().shed_requests, 0);
    }
}
