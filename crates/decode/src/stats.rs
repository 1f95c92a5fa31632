//! Live decode metrics, snapshotted into
//! [`hidet_runtime::DecodeStatsSnapshot`] (the shared observability type the
//! serving engine surfaces through `StatsSnapshot::decode`). Latency
//! distributions reuse the runtime's bounded
//! [`LatencyReservoir`](hidet_runtime::LatencyReservoir).
//!
//! Since the multi-device refactor the aggregate counters are joined by one
//! [`DecodeShardStats`] block per decode shard: each shard owns its own
//! simulated clock (shards model *parallel* devices, so their busy times
//! overlap rather than add) plus the placement gauges `generate` reads to
//! score shards without touching the step loop's state.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use hidet_runtime::{DecodeShardSnapshot, DecodeStatsSnapshot, LatencyReservoir};

/// Placement inputs the step loop publishes after each pass, read by
/// `generate` under the waiting lock to score this shard.
#[derive(Debug, Default)]
pub(crate) struct ShardGauges {
    /// Estimated remaining simulated seconds of each active sequence.
    pub(crate) active_remaining: Vec<f64>,
    /// Decode-step latency estimate, simulated seconds (0 until the first
    /// graph compiles on this shard).
    pub(crate) step_estimate: f64,
    /// `(free, capacity)` KV blocks per model arena, keyed by `ModelDef`
    /// identity. Models without an arena yet default to a full arena.
    pub(crate) kv_free: HashMap<usize, (usize, usize)>,
}

/// Counters, clock and gauges of one decode shard.
#[derive(Debug, Default)]
pub(crate) struct DecodeShardStats {
    /// The shard's device name (its `GpuSpec::name`).
    pub(crate) device: String,
    /// Sessions the placement policy landed here at submission.
    pub(crate) placed: AtomicUsize,
    /// Live sessions migrated onto this shard.
    pub(crate) migrations_in: AtomicUsize,
    /// Live sessions migrated off this shard.
    pub(crate) migrations_out: AtomicUsize,
    pub(crate) tokens: AtomicUsize,
    pub(crate) steps: AtomicUsize,
    pub(crate) kv_in_use: AtomicUsize,
    pub(crate) kv_peak: AtomicUsize,
    pub(crate) kv_capacity: AtomicUsize,
    /// Simulated seconds this shard spent in decode steps, scaled by 1e9.
    pub(crate) sim_decode_nanos: AtomicU64,
    /// Simulated seconds this shard spent in prefill passes, scaled by 1e9.
    pub(crate) sim_prefill_nanos: AtomicU64,
    /// The shard's simulated clock (decode + prefill), scaled by 1e9 — the
    /// timeline all of this shard's sequence stamps live on.
    pub(crate) sim_clock_nanos: AtomicU64,
    pub(crate) gauges: Mutex<ShardGauges>,
}

impl DecodeShardStats {
    pub(crate) fn sim_clock(&self) -> f64 {
        self.sim_clock_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }
}

/// Atomic counters + bounded reservoirs updated by the step loop; cheap to
/// read from any thread ([`DecodeStats::snapshot`]).
///
/// Anything a shard can account for itself lives **only** in its
/// [`DecodeShardStats`] block — tokens, steps, KV occupancy/capacity and the
/// simulated decode/prefill work are summed from the shards at snapshot
/// time, so the aggregate always telescopes over the per-shard numbers by
/// construction. The fields kept here are the ones no single shard owns:
/// sequence outcomes, prompt/prefill pipeline counters, and `kv_peak` (the
/// peak of the *summed* occupancy, which is not the sum of per-shard peaks).
#[derive(Debug, Default)]
pub(crate) struct DecodeStats {
    pub(crate) completed: AtomicUsize,
    pub(crate) failed: AtomicUsize,
    pub(crate) prompt_tokens: AtomicUsize,
    /// Sum over steps of occupied decode slots (÷ steps ÷ max_batch =
    /// occupancy).
    pub(crate) occupied_slots: AtomicUsize,
    /// Decode slots per step (set once at engine construction).
    pub(crate) max_batch: AtomicUsize,
    /// Peak of the cluster-wide KV occupancy (updated where the summed
    /// occupancy is computed; a per-shard peak cannot reconstruct it).
    pub(crate) kv_peak: AtomicUsize,
    pub(crate) kv_evictions: AtomicUsize,
    pub(crate) recomputed_tokens: AtomicUsize,
    /// Prompt tokens absorbed through chunked prefill passes.
    pub(crate) prefill_tokens: AtomicUsize,
    /// Chunked prefill forward passes executed.
    pub(crate) prefill_passes: AtomicUsize,
    /// Scheduler iterations that ran at least one prefill pass.
    pub(crate) prefill_iterations: AtomicUsize,
    /// Prefill iterations that also ran a decode step — prefill riding along
    /// with in-flight decodes instead of stalling the engine.
    pub(crate) interleaved_iterations: AtomicUsize,
    /// One stats block per decode shard.
    pub(crate) shards: Vec<DecodeShardStats>,
    // [ttft(submit), itl, ttft(admission), queue, prefill, first-decode]
    reservoirs: Mutex<[LatencyReservoir; 6]>,
}

impl DecodeStats {
    /// Stats with one [`DecodeShardStats`] block per device label.
    pub(crate) fn for_shards(devices: Vec<String>) -> DecodeStats {
        let shards = devices
            .into_iter()
            .map(|device| DecodeShardStats {
                device,
                ..DecodeShardStats::default()
            })
            .collect();
        DecodeStats {
            shards,
            ..DecodeStats::default()
        }
    }

    /// Shard `s`'s simulated clock, seconds.
    pub(crate) fn shard_clock(&self, s: usize) -> f64 {
        self.shards[s].sim_clock()
    }

    /// Advances shard `s`'s clock by one forward pass, booking the time on
    /// the shard only — under its prefill counter for a prefill pass, its
    /// decode counter otherwise; the aggregate work numbers are derived by
    /// summing the shards at snapshot time. Returns the shard's new clock.
    pub(crate) fn advance_shard_clock(&self, s: usize, seconds: f64, prefill: bool) -> f64 {
        let nanos = (seconds * 1e9) as u64;
        let shard = &self.shards[s];
        let work = if prefill {
            &shard.sim_prefill_nanos
        } else {
            &shard.sim_decode_nanos
        };
        work.fetch_add(nanos, Ordering::Relaxed);
        let now = shard.sim_clock_nanos.fetch_add(nanos, Ordering::Relaxed) + nanos;
        now as f64 / 1e9
    }

    /// Books one session's first token at `now`: TTFT from submission and
    /// from admission, plus the queue / prefill / first-decode segments the
    /// stamps split it into (they telescope to the submit TTFT).
    pub(crate) fn record_first_token(
        &self,
        submitted: f64,
        admitted: f64,
        prompt_done: f64,
        now: f64,
    ) {
        let mut r = self.reservoirs.lock().expect("stats poisoned");
        r[0].push(now - submitted);
        r[2].push(now - admitted);
        r[3].push(admitted - submitted);
        r[4].push(prompt_done - admitted);
        r[5].push(now - prompt_done);
    }

    pub(crate) fn record_itl(&self, seconds: f64) {
        self.reservoirs.lock().expect("stats poisoned")[1].push(seconds);
    }

    pub(crate) fn snapshot(&self) -> DecodeStatsSnapshot {
        let pct = {
            let r = self.reservoirs.lock().expect("stats poisoned");
            let both = |i: usize| (r[i].percentile(0.50), r[i].percentile(0.95));
            [both(0), both(1), both(2), both(3), both(4), both(5)]
        };
        let [(ttft_p50, ttft_p95), (itl_p50, itl_p95), adm, queue, prefill, first] = pct;
        let max_batch = self.max_batch.load(Ordering::Relaxed);
        let prefill_tokens = self.prefill_tokens.load(Ordering::Relaxed);
        let prefill_iterations = self.prefill_iterations.load(Ordering::Relaxed);
        let shards: Vec<DecodeShardSnapshot> = self
            .shards
            .iter()
            .map(|s| {
                let shard_tokens = s.tokens.load(Ordering::Relaxed);
                let decode_seconds = s.sim_decode_nanos.load(Ordering::Relaxed) as f64 / 1e9;
                DecodeShardSnapshot {
                    device: s.device.clone(),
                    sessions_placed: s.placed.load(Ordering::Relaxed),
                    migrations_in: s.migrations_in.load(Ordering::Relaxed),
                    migrations_out: s.migrations_out.load(Ordering::Relaxed),
                    tokens_generated: shard_tokens,
                    steps: s.steps.load(Ordering::Relaxed),
                    kv_blocks_in_use: s.kv_in_use.load(Ordering::Relaxed),
                    kv_blocks_peak: s.kv_peak.load(Ordering::Relaxed),
                    kv_blocks_capacity: s.kv_capacity.load(Ordering::Relaxed),
                    simulated_decode_seconds: decode_seconds,
                    simulated_busy_seconds: s.sim_clock(),
                    tokens_per_second: if decode_seconds > 0.0 {
                        shard_tokens as f64 / decode_seconds
                    } else {
                        0.0
                    },
                }
            })
            .collect();
        // The aggregates telescope over the shard snapshots by construction:
        // each is the sum of the per-shard values captured above (prefill
        // work sums the raw per-shard counters — the shard snapshot only
        // carries decode + busy time).
        let steps: usize = shards.iter().map(|s| s.steps).sum();
        let tokens: usize = shards.iter().map(|s| s.tokens_generated).sum();
        let kv_in_use: usize = shards.iter().map(|s| s.kv_blocks_in_use).sum();
        let kv_capacity: usize = shards.iter().map(|s| s.kv_blocks_capacity).sum();
        let sim_seconds: f64 = shards.iter().map(|s| s.simulated_decode_seconds).sum();
        let prefill_seconds = self
            .shards
            .iter()
            .map(|s| s.sim_prefill_nanos.load(Ordering::Relaxed))
            .sum::<u64>() as f64
            / 1e9;
        // Shards model parallel devices: cluster throughput divides by the
        // busiest shard's timeline (the makespan), not the summed busy time.
        let makespan = shards
            .iter()
            .map(|s| s.simulated_busy_seconds)
            .fold(0.0f64, f64::max);
        let sessions_migrated = shards.iter().map(|s| s.migrations_out).sum();
        DecodeStatsSnapshot {
            sequences_completed: self.completed.load(Ordering::Relaxed),
            sequences_failed: self.failed.load(Ordering::Relaxed),
            tokens_generated: tokens,
            prompt_tokens: self.prompt_tokens.load(Ordering::Relaxed),
            steps,
            mean_step_occupancy: if steps == 0 || max_batch == 0 {
                0.0
            } else {
                self.occupied_slots.load(Ordering::Relaxed) as f64 / (steps * max_batch) as f64
            },
            ttft_p50_seconds: ttft_p50,
            ttft_p95_seconds: ttft_p95,
            itl_p50_seconds: itl_p50,
            itl_p95_seconds: itl_p95,
            ttft_from_admission_p50_seconds: adm.0,
            ttft_from_admission_p95_seconds: adm.1,
            ttft_queue_p50_seconds: queue.0,
            ttft_queue_p95_seconds: queue.1,
            ttft_prefill_p50_seconds: prefill.0,
            ttft_prefill_p95_seconds: prefill.1,
            ttft_first_decode_p50_seconds: first.0,
            ttft_first_decode_p95_seconds: first.1,
            tokens_per_second: if sim_seconds > 0.0 {
                tokens as f64 / sim_seconds
            } else {
                0.0
            },
            cluster_tokens_per_second: if makespan > 0.0 {
                tokens as f64 / makespan
            } else {
                0.0
            },
            simulated_decode_seconds: sim_seconds,
            simulated_prefill_seconds: prefill_seconds,
            prefill_tokens,
            prefill_passes: self.prefill_passes.load(Ordering::Relaxed),
            prefill_tokens_per_second: if prefill_seconds > 0.0 {
                prefill_tokens as f64 / prefill_seconds
            } else {
                0.0
            },
            prefill_interleave_occupancy: if prefill_iterations > 0 {
                self.interleaved_iterations.load(Ordering::Relaxed) as f64
                    / prefill_iterations as f64
            } else {
                0.0
            },
            kv_blocks_in_use: kv_in_use,
            kv_blocks_peak: self.kv_peak.load(Ordering::Relaxed),
            kv_blocks_capacity: kv_capacity,
            kv_evictions: self.kv_evictions.load(Ordering::Relaxed),
            recomputed_tokens: self.recomputed_tokens.load(Ordering::Relaxed),
            sessions_migrated,
            shards,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_and_throughput_accounting() {
        let stats = DecodeStats::for_shards(vec![String::new()]);
        stats.max_batch.store(4, Ordering::Relaxed);
        assert_eq!(stats.shard_clock(0), 0.0);
        let now = stats.advance_shard_clock(0, 0.5, false);
        assert!((now - 0.5).abs() < 1e-9);
        stats.shards[0].tokens.store(100, Ordering::Relaxed);
        stats.shards[0].steps.store(10, Ordering::Relaxed);
        stats.occupied_slots.store(30, Ordering::Relaxed);
        let snap = stats.snapshot();
        assert_eq!(snap.tokens_generated, 100);
        assert_eq!(snap.steps, 10);
        assert!((snap.tokens_per_second - 200.0).abs() < 1e-6);
        assert!((snap.mean_step_occupancy - 0.75).abs() < 1e-9);
    }

    #[test]
    fn shard_clocks_are_independent_and_cluster_uses_the_makespan() {
        let stats = DecodeStats::for_shards(vec!["a".into(), "b".into()]);
        stats.advance_shard_clock(0, 1.0, false);
        stats.advance_shard_clock(1, 0.25, false);
        stats.advance_shard_clock(1, 0.25, true);
        assert!((stats.shard_clock(0) - 1.0).abs() < 1e-9);
        assert!((stats.shard_clock(1) - 0.5).abs() < 1e-9);
        stats.shards[0].tokens.store(75, Ordering::Relaxed);
        stats.shards[1].tokens.store(25, Ordering::Relaxed);
        let snap = stats.snapshot();
        // The aggregate sums the shards (75 + 25 tokens). Aggregate
        // tokens/sec divides by summed decode work (1.25s); the cluster
        // number divides by the busiest shard's clock (1.0s).
        assert_eq!(snap.tokens_generated, 100);
        assert!((snap.tokens_per_second - 80.0).abs() < 1e-6);
        assert!((snap.cluster_tokens_per_second - 100.0).abs() < 1e-6);
        assert_eq!(snap.shards.len(), 2);
        assert_eq!(snap.shards[0].device, "a");
        assert!((snap.shards[1].simulated_busy_seconds - 0.5).abs() < 1e-9);
        assert!((snap.shards[1].simulated_decode_seconds - 0.25).abs() < 1e-9);
    }

    #[test]
    fn reservoirs_stay_bounded_and_estimate_percentiles() {
        let stats = DecodeStats::for_shards(vec![String::new()]);
        for i in 0..10_000 {
            stats.record_itl(0.001 * (1.0 + (i % 10) as f64));
        }
        let snap = stats.snapshot();
        assert!(snap.itl_p50_seconds >= 0.003 && snap.itl_p50_seconds <= 0.008);
        assert!(snap.itl_p95_seconds >= 0.008);
        assert!(stats.reservoirs.lock().unwrap()[1].len() <= 4096);
    }

    #[test]
    fn empty_snapshot_is_zero() {
        let snap = DecodeStats::for_shards(vec![String::new()]).snapshot();
        let want = DecodeStatsSnapshot {
            shards: vec![DecodeShardSnapshot::default()],
            ..DecodeStatsSnapshot::default()
        };
        assert_eq!(snap, want);
    }
}
