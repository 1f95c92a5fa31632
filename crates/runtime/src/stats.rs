//! Server-side observability: counters for every cache layer, per-priority
//! latency distributions and per-shard dispatch accounting, cheap enough to
//! update on the hot path.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::cache::CacheCounters;
use crate::engine::Priority;
use crate::shard::ShardSnapshot;

pub mod catalogue;

/// How many latency samples each reservoir keeps. Past this, uniform
/// reservoir sampling replaces old samples so memory stays bounded while
/// percentiles remain representative of the whole run.
const LATENCY_RESERVOIR_CAP: usize = 4096;

/// Bounded uniform sample of per-request latencies (Vitter's algorithm R,
/// with a cheap deterministic xorshift in place of a real RNG — percentile
/// estimation needs uniformity, not unpredictability). Shared by the
/// serving engine's sojourn distributions and the decode subsystem's
/// TTFT/inter-token distributions.
#[derive(Debug)]
pub struct LatencyReservoir {
    pub(crate) samples: Vec<f64>,
    seen: u64,
    rng: u64,
}

impl Default for LatencyReservoir {
    fn default() -> LatencyReservoir {
        LatencyReservoir {
            samples: Vec::new(),
            seen: 0,
            rng: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

impl LatencyReservoir {
    /// An empty reservoir.
    pub fn new() -> LatencyReservoir {
        LatencyReservoir::default()
    }

    /// Records one sample, replacing a uniformly random held sample once
    /// the cap is reached.
    pub fn push(&mut self, value: f64) {
        self.seen += 1;
        if self.samples.len() < LATENCY_RESERVOIR_CAP {
            self.samples.push(value);
            return;
        }
        // Replace a random slot with probability cap/seen.
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let j = self.rng % self.seen;
        if (j as usize) < LATENCY_RESERVOIR_CAP {
            self.samples[j as usize] = value;
        }
    }

    /// Samples currently held (bounded by the reservoir cap).
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no sample was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The `p`-th percentile (`0.0..=1.0`) of the held samples; `0.0` when
    /// empty. Sorts a copy — snapshot-path cost, not hot-path.
    pub fn percentile(&self, p: f64) -> f64 {
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        percentile(&sorted, p)
    }
}

/// The `p`-th percentile (`0.0..=1.0`) of an ascending-sorted slice: the
/// element at index `round((n − 1) · p)`, so p50 of `[1, 2, 3, 4]` is 3 (nearest
/// rank would give 2); `0.0` when the slice is empty. The one percentile rule
/// every stats snapshot and bench table in the workspace uses.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
        sorted[idx]
    }
}

/// Live statistics of one [`crate::Engine`].
///
/// Counters are atomics (hot-path increments never contend); latencies go
/// through bounded per-priority reservoirs so a long-lived server neither
/// grows without bound nor pays more than a ~4k-element sort per snapshot.
/// All latencies are *simulated* seconds — per-request **sojourn** time,
/// i.e. the estimated shard queue delay at placement plus the executed
/// batch's device latency — the quantity priority scheduling actually
/// improves, not host wall-clock.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Requests completed successfully.
    pub(crate) requests: AtomicUsize,
    /// Requests rejected with any error (bad input, compile failure, shed,
    /// expired deadline, ...).
    pub(crate) failures: AtomicUsize,
    /// Requests shed by the admission controller ([`crate::EngineError::QueueFull`]).
    pub(crate) shed_requests: AtomicUsize,
    /// Requests rejected because their deadline expired before execution
    /// ([`crate::EngineError::DeadlineExceeded`]).
    pub(crate) deadline_expired: AtomicUsize,
    /// Batches dispatched to workers.
    pub(crate) batches: AtomicUsize,
    /// Tuning trials actually executed by compiles this engine ran.
    pub(crate) tuning_trials_run: AtomicUsize,
    /// Tuning trials avoided thanks to persisted tuning records.
    pub(crate) tuning_trials_saved: AtomicUsize,
    /// Simulated tuning seconds spent (scaled by 1e6 for atomic storage).
    pub(crate) tuning_micros_run: AtomicU64,
    /// Simulated tuning seconds saved by records (scaled by 1e6).
    pub(crate) tuning_micros_saved: AtomicU64,
    /// Artifact files removed by store GC (unload sweeps).
    pub(crate) artifact_gc_removed: AtomicUsize,
    /// Largest planned per-inference intermediate arena across compiled
    /// models, bytes (the memory planner's peak).
    pub(crate) planned_peak_bytes: AtomicUsize,
    /// Total simulated device-seconds across all dispatched batches
    /// (scaled by 1e9 for atomic storage).
    pub(crate) simulated_nanos: AtomicU64,
    /// Per-priority completed-request counters.
    pub(crate) class_requests: [AtomicUsize; Priority::COUNT],
    /// Per-priority shed counters (admission-control rejections).
    pub(crate) class_shed: [AtomicUsize; Priority::COUNT],
    /// Per-priority sojourn-latency samples.
    pub(crate) latencies: Mutex<[LatencyReservoir; Priority::COUNT]>,
}

impl ServerStats {
    pub(crate) fn add_tuning_run(&self, trials: usize, seconds: f64) {
        self.tuning_trials_run.fetch_add(trials, Ordering::Relaxed);
        self.tuning_micros_run
            .fetch_add((seconds * 1e6) as u64, Ordering::Relaxed);
    }

    pub(crate) fn add_tuning_saved(&self, trials: usize, seconds: f64) {
        self.tuning_trials_saved
            .fetch_add(trials, Ordering::Relaxed);
        self.tuning_micros_saved
            .fetch_add((seconds * 1e6) as u64, Ordering::Relaxed);
    }

    /// Accounts one executed batch: `device_seconds` is the batch's device
    /// latency (charged once), `sojourn_seconds` the per-request simulated
    /// latency including the shard queue delay at placement.
    pub(crate) fn record_batch(
        &self,
        class: Priority,
        batch_size: usize,
        device_seconds: f64,
        sojourn_seconds: f64,
    ) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.requests.fetch_add(batch_size, Ordering::Relaxed);
        self.class_requests[class.index()].fetch_add(batch_size, Ordering::Relaxed);
        self.simulated_nanos
            .fetch_add((device_seconds * 1e9) as u64, Ordering::Relaxed);
        let mut reservoirs = self.latencies.lock().expect("stats poisoned");
        // Every request in the batch observes the batch's sojourn latency.
        for _ in 0..batch_size {
            reservoirs[class.index()].push(sojourn_seconds);
        }
    }

    pub(crate) fn count_artifact_gc(&self, removed: usize) {
        self.artifact_gc_removed
            .fetch_add(removed, Ordering::Relaxed);
    }

    /// Records one compiled model's planned arena size; the snapshot reports
    /// the maximum seen (the footprint one worker lane needs for the
    /// heaviest model).
    pub(crate) fn record_planned_peak(&self, bytes: usize) {
        self.planned_peak_bytes.fetch_max(bytes, Ordering::Relaxed);
    }

    pub(crate) fn count_shed(&self, class: Priority) {
        self.failures.fetch_add(1, Ordering::Relaxed);
        self.shed_requests.fetch_add(1, Ordering::Relaxed);
        self.class_shed[class.index()].fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_deadline_expired(&self) {
        self.failures.fetch_add(1, Ordering::Relaxed);
        self.deadline_expired.fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent copy of the current statistics. The compiled-graph cache
    /// owns its own hit/miss/artifact/eviction counters (it is the single
    /// source of truth — see [`crate::CompiledCache::counters`]) and each
    /// shard owns its dispatch accounting; the engine passes both in.
    pub fn snapshot(&self, cache: CacheCounters, shards: Vec<ShardSnapshot>) -> StatsSnapshot {
        let (mut merged, by_class) = {
            let reservoirs = self.latencies.lock().expect("stats poisoned");
            let mut merged = Vec::new();
            let by_class: Vec<Vec<f64>> = reservoirs
                .iter()
                .map(|r| {
                    merged.extend_from_slice(&r.samples);
                    let mut s = r.samples.clone();
                    s.sort_by(f64::total_cmp);
                    s
                })
                .collect();
            (merged, by_class)
        };
        merged.sort_by(f64::total_cmp);
        let priorities = std::array::from_fn(|i| PriorityClassStats {
            priority: Priority::ALL[i],
            requests: self.class_requests[i].load(Ordering::Relaxed),
            shed_requests: self.class_shed[i].load(Ordering::Relaxed),
            p50_latency_seconds: percentile(&by_class[i], 0.50),
            p95_latency_seconds: percentile(&by_class[i], 0.95),
        });
        let requests = self.requests.load(Ordering::Relaxed);
        let batches = self.batches.load(Ordering::Relaxed);
        let simulated_seconds = self.simulated_nanos.load(Ordering::Relaxed) as f64 / 1e9;
        // The pool finishes when its busiest shard does: cluster throughput
        // divides requests by that makespan, so it scales with device count
        // while single-device throughput (requests / total device seconds)
        // stays comparable across configurations.
        let makespan = shards.iter().map(|s| s.busy_seconds).fold(0.0f64, f64::max);
        StatsSnapshot {
            requests,
            failures: self.failures.load(Ordering::Relaxed),
            shed_requests: self.shed_requests.load(Ordering::Relaxed),
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
            batches,
            compile_cache_hits: cache.hits,
            compile_cache_misses: cache.misses,
            compiled_artifact_loads: cache.artifact_loads,
            compiled_artifact_rejects: cache.artifact_rejects,
            compiled_evicted_unload: cache.evicted_unload,
            artifact_gc_removed: self.artifact_gc_removed.load(Ordering::Relaxed),
            planned_peak_bytes: self.planned_peak_bytes.load(Ordering::Relaxed),
            tuning_trials_run: self.tuning_trials_run.load(Ordering::Relaxed),
            tuning_trials_saved: self.tuning_trials_saved.load(Ordering::Relaxed),
            tuning_seconds_run: self.tuning_micros_run.load(Ordering::Relaxed) as f64 / 1e6,
            tuning_seconds_saved: self.tuning_micros_saved.load(Ordering::Relaxed) as f64 / 1e6,
            total_simulated_seconds: simulated_seconds,
            makespan_seconds: makespan,
            p50_latency_seconds: percentile(&merged, 0.50),
            p95_latency_seconds: percentile(&merged, 0.95),
            mean_batch_size: if batches == 0 {
                0.0
            } else {
                requests as f64 / batches as f64
            },
            simulated_throughput_rps: if simulated_seconds > 0.0 {
                requests as f64 / simulated_seconds
            } else {
                0.0
            },
            cluster_throughput_rps: if makespan > 0.0 {
                requests as f64 / makespan
            } else {
                0.0
            },
            priorities,
            shards,
            decode: None,
            ingress: None,
        }
    }
}

/// Token-level serving metrics of an attached autoregressive decode
/// subsystem (`hidet-decode`), surfaced through [`StatsSnapshot::decode`]
/// when a source is registered with `Engine::attach_decode_stats`.
///
/// All latencies are **simulated** seconds, like the rest of the snapshot:
/// time-to-first-token is measured from submission to the step that emitted
/// a sequence's first token, inter-token latency between consecutive emitted
/// tokens of one sequence.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DecodeStatsSnapshot {
    /// Generations completed (max-tokens reached, EOS, or client gone).
    pub sequences_completed: usize,
    /// Generations failed (bad prompt, expired deadline, KV exhaustion, ...).
    pub sequences_failed: usize,
    /// Tokens emitted to clients (prompt tokens excluded).
    pub tokens_generated: usize,
    /// Prompt tokens absorbed into KV caches (including recompute replays).
    pub prompt_tokens: usize,
    /// Engine steps executed (one batched forward pass each).
    pub steps: usize,
    /// Mean fraction of decode slots occupied per step, `0.0..=1.0` — the
    /// iteration-level batching win shows up here.
    pub mean_step_occupancy: f64,
    /// Median simulated time-to-first-token, seconds.
    pub ttft_p50_seconds: f64,
    /// 95th-percentile simulated time-to-first-token, seconds.
    pub ttft_p95_seconds: f64,
    /// Median simulated inter-token latency, seconds.
    pub itl_p50_seconds: f64,
    /// 95th-percentile simulated inter-token latency, seconds.
    pub itl_p95_seconds: f64,
    /// Median time-to-first-token measured from batch admission (queueing
    /// excluded — the compute-only TTFT).
    pub ttft_from_admission_p50_seconds: f64,
    /// 95th-percentile time-to-first-token from admission.
    pub ttft_from_admission_p95_seconds: f64,
    /// Median queue segment of TTFT: submission → first admission.
    pub ttft_queue_p50_seconds: f64,
    /// 95th-percentile queue segment of TTFT.
    pub ttft_queue_p95_seconds: f64,
    /// Median prefill segment of TTFT: admission → all but the final prompt
    /// token absorbed. This is the segment chunked prefill collapses.
    pub ttft_prefill_p50_seconds: f64,
    /// 95th-percentile prefill segment of TTFT.
    pub ttft_prefill_p95_seconds: f64,
    /// Median first-decode segment of TTFT: the pass feeding the final
    /// prompt token and emitting the first output (zero when a prefill chunk
    /// finishes the prompt — the emission rides the chunk's pass).
    pub ttft_first_decode_p50_seconds: f64,
    /// 95th-percentile first-decode segment of TTFT.
    pub ttft_first_decode_p95_seconds: f64,
    /// Generated tokens per simulated decode second.
    pub tokens_per_second: f64,
    /// Total simulated seconds spent in decode steps.
    pub simulated_decode_seconds: f64,
    /// Total simulated seconds spent in chunked prefill passes (booked
    /// separately so `tokens_per_second` stays a decode metric).
    pub simulated_prefill_seconds: f64,
    /// Prompt tokens absorbed through chunked prefill passes (also counted
    /// in `prompt_tokens`).
    pub prefill_tokens: usize,
    /// Chunked prefill forward passes executed.
    pub prefill_passes: usize,
    /// Prefill tokens per simulated prefill second — the multi-token
    /// absorption bandwidth.
    pub prefill_tokens_per_second: f64,
    /// Fraction of prefill-running scheduler iterations that also ran a
    /// decode step, `0.0..=1.0` — 1.0 means every prefill chunk rode along
    /// with in-flight decodes instead of having the engine to itself.
    pub prefill_interleave_occupancy: f64,
    /// KV blocks currently allocated across live sequences.
    pub kv_blocks_in_use: usize,
    /// High-water mark of allocated KV blocks.
    pub kv_blocks_peak: usize,
    /// Total KV blocks the arena holds.
    pub kv_blocks_capacity: usize,
    /// Sequences preempted by KV memory pressure (their caches freed).
    pub kv_evictions: usize,
    /// Tokens re-fed to rebuild evicted caches (recompute cost).
    pub recomputed_tokens: usize,
    /// Live sessions migrated between decode shards (each migration is an
    /// eviction whose replay chain re-admits on another shard).
    pub sessions_migrated: usize,
    /// Generated tokens over the busiest shard's simulated busy time (the
    /// makespan). Shards model parallel devices, so this — not
    /// `tokens_per_second`, which divides by summed per-shard work — is the
    /// number that scales with the device pool. Equal to tokens over total
    /// busy time on a single-shard engine.
    pub cluster_tokens_per_second: f64,
    /// Per-shard decode rows, one per device in the engine's pool. Counters
    /// telescope: shard tokens/steps/placements sum to the aggregates, and
    /// total migrations-in equals total migrations-out.
    pub shards: Vec<DecodeShardSnapshot>,
}

/// One decode shard's slice of a [`DecodeStatsSnapshot`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DecodeShardSnapshot {
    /// The shard's device name.
    pub device: String,
    /// Sessions the placement policy landed here at submission.
    pub sessions_placed: usize,
    /// Live sessions migrated onto this shard.
    pub migrations_in: usize,
    /// Live sessions migrated off this shard.
    pub migrations_out: usize,
    /// Tokens this shard's decode steps emitted.
    pub tokens_generated: usize,
    /// Decode steps this shard executed.
    pub steps: usize,
    /// KV blocks currently allocated in this shard's arenas.
    pub kv_blocks_in_use: usize,
    /// High-water mark of this shard's allocated KV blocks.
    pub kv_blocks_peak: usize,
    /// Total KV blocks this shard's arenas hold.
    pub kv_blocks_capacity: usize,
    /// Simulated seconds this shard spent in decode steps.
    pub simulated_decode_seconds: f64,
    /// This shard's simulated clock: decode + prefill busy time.
    pub simulated_busy_seconds: f64,
    /// This shard's tokens per simulated decode second.
    pub tokens_per_second: f64,
}

impl DecodeStatsSnapshot {
    /// Compact one-line rendering for logs and benches.
    pub fn summary(&self) -> String {
        let cluster = if self.shards.len() > 1 {
            format!(
                " | {} shards, {:.0} tok/s cluster, {} migrations",
                self.shards.len(),
                self.cluster_tokens_per_second,
                self.sessions_migrated,
            )
        } else {
            String::new()
        };
        format!(
            "{} tokens from {} sequences in {} steps (occupancy {:.0}%) | \
             {:.0} tok/s (sim) | ttft p50 {:.1} us, itl p50/p95 {:.1}/{:.1} us | \
             prefill {} tokens in {} passes ({:.0} tok/s, interleave {:.0}%) | \
             kv {}/{} blocks (peak {}), {} evictions, {} recomputed{cluster}",
            self.tokens_generated,
            self.sequences_completed,
            self.steps,
            self.mean_step_occupancy * 100.0,
            self.tokens_per_second,
            self.ttft_p50_seconds * 1e6,
            self.itl_p50_seconds * 1e6,
            self.itl_p95_seconds * 1e6,
            self.prefill_tokens,
            self.prefill_passes,
            self.prefill_tokens_per_second,
            self.prefill_interleave_occupancy * 100.0,
            self.kv_blocks_in_use,
            self.kv_blocks_capacity,
            self.kv_blocks_peak,
            self.kv_evictions,
            self.recomputed_tokens,
        )
    }
}

/// Wire-level metrics of an attached network front-end (`hidet-server`),
/// surfaced through [`StatsSnapshot::ingress`] when a source is registered
/// with `Engine::attach_ingress_stats`.
///
/// Unlike the rest of the snapshot, the latencies here are **host
/// wall-clock** seconds: wire-to-first-byte is measured from the kernel
/// handing us the accepted connection to the first response byte written
/// back — the quantity a remote client actually observes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IngressStatsSnapshot {
    /// Connections accepted and enqueued onto an ingress lane.
    pub accepted: usize,
    /// Connections shed at the acceptor by the admission signal, before any
    /// parsing (HTTP `429`).
    pub shed_at_socket: usize,
    /// Connections shed because every ingress ring was full (HTTP `429`).
    pub shed_ring_full: usize,
    /// Requests answered (any status, shed responses excluded).
    pub served: usize,
    /// Accepted connections the client closed before sending a request —
    /// they are neither served nor shed, so the conservation law at
    /// quiescence is `accepted = served + closed_before_request`.
    pub closed_before_request: usize,
    /// Streaming generations cancelled because the client socket died.
    pub streams_cancelled: usize,
    /// Jobs currently queued across all ingress rings.
    pub ring_depth: usize,
    /// Total ring capacity across all lanes.
    pub ring_capacity: usize,
    /// CAS retries producers paid while enqueueing (contention gauge; the
    /// enqueue path has no mutex to block on).
    pub enqueue_cas_retries: usize,
    /// Median wire-to-first-byte latency, host seconds.
    pub wire_ttfb_p50_seconds: f64,
    /// 95th-percentile wire-to-first-byte latency, host seconds.
    pub wire_ttfb_p95_seconds: f64,
}

impl IngressStatsSnapshot {
    /// Compact one-line rendering for logs and benches.
    pub fn summary(&self) -> String {
        format!(
            "{} accepted, {} served, {} closed before a request, {} cancelled streams | \
             shed {} at socket, {} ring-full | \
             ring {}/{} queued, {} CAS retries | wire ttfb p50 {:.1} us, p95 {:.1} us",
            self.accepted,
            self.served,
            self.closed_before_request,
            self.streams_cancelled,
            self.shed_at_socket,
            self.shed_ring_full,
            self.ring_depth,
            self.ring_capacity,
            self.enqueue_cas_retries,
            self.wire_ttfb_p50_seconds * 1e6,
            self.wire_ttfb_p95_seconds * 1e6,
        )
    }
}

/// Per-priority-class slice of a [`StatsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct PriorityClassStats {
    /// The class these numbers describe.
    pub priority: Priority,
    /// Requests of this class completed successfully.
    pub requests: usize,
    /// Requests of this class shed by the admission controller.
    pub shed_requests: usize,
    /// Median simulated sojourn latency (queue delay + device), seconds.
    pub p50_latency_seconds: f64,
    /// 95th-percentile simulated sojourn latency, seconds.
    pub p95_latency_seconds: f64,
}

/// Point-in-time view of [`ServerStats`].
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// Requests completed successfully.
    pub requests: usize,
    /// Requests rejected with an error (any kind).
    pub failures: usize,
    /// Requests shed by the admission controller.
    pub shed_requests: usize,
    /// Requests whose deadline expired before execution.
    pub deadline_expired: usize,
    /// Batches dispatched.
    pub batches: usize,
    /// Compiled-graph cache hits (served from memory).
    pub compile_cache_hits: usize,
    /// Compiled-graph cache misses (fresh compiles — lookups rebuilt from a
    /// disk artifact count under [`StatsSnapshot::compiled_artifact_loads`]
    /// instead).
    pub compile_cache_misses: usize,
    /// Compiles avoided by rebuilding from the disk artifact store (zero
    /// tuning trials each).
    pub compiled_artifact_loads: usize,
    /// Artifact files rejected (corrupted/truncated/mismatched) — each fell
    /// back to a fresh compile.
    pub compiled_artifact_rejects: usize,
    /// Compiled graphs evicted by explicit model unloads.
    pub compiled_evicted_unload: usize,
    /// Artifact files removed from disk stores by GC (model unloads sweep
    /// the unloaded model's artifacts; see `hidet_runtime::ArtifactStore`).
    pub artifact_gc_removed: usize,
    /// Largest planned per-inference intermediate footprint across compiled
    /// models, in bytes — what the memory planner sized the execution arena
    /// to (`hidet::MemoryPlan::peak_bytes`).
    pub planned_peak_bytes: usize,
    /// Tuning trials executed.
    pub tuning_trials_run: usize,
    /// Tuning trials saved by persisted records.
    pub tuning_trials_saved: usize,
    /// Simulated tuning seconds spent.
    pub tuning_seconds_run: f64,
    /// Simulated tuning seconds saved by persisted records.
    pub tuning_seconds_saved: f64,
    /// Total simulated device time across batches and shards, seconds.
    pub total_simulated_seconds: f64,
    /// Busy time of the busiest shard, seconds — the simulated makespan of
    /// the work the pool executed.
    pub makespan_seconds: f64,
    /// Median per-request simulated sojourn latency, seconds.
    pub p50_latency_seconds: f64,
    /// 95th-percentile per-request simulated sojourn latency, seconds.
    pub p95_latency_seconds: f64,
    /// Average requests per dispatched batch.
    pub mean_batch_size: f64,
    /// Requests per simulated device-second (device-count-agnostic).
    pub simulated_throughput_rps: f64,
    /// Requests per simulated makespan-second: throughput of the pool as a
    /// whole, which scales near-linearly with balanced shards.
    pub cluster_throughput_rps: f64,
    /// Per-priority-class breakdown, indexed like [`Priority::ALL`].
    pub priorities: [PriorityClassStats; Priority::COUNT],
    /// Per-shard dispatch accounting, indexed by device position in
    /// `EngineConfig::devices`.
    pub shards: Vec<ShardSnapshot>,
    /// Token-level decode metrics, when a decode subsystem is attached
    /// (`Engine::attach_decode_stats`).
    pub decode: Option<DecodeStatsSnapshot>,
    /// Wire-level ingress metrics, when a network front-end is attached
    /// (`Engine::attach_ingress_stats`).
    pub ingress: Option<IngressStatsSnapshot>,
}

impl StatsSnapshot {
    /// Compact one-line rendering for logs and benches.
    pub fn summary(&self) -> String {
        format!(
            "{} req in {} batches (mean {:.2}/batch) over {} shard(s) | compile cache {}/{} hit, \
             {} artifact loads, {} evicted | {} trials run, {} saved | p50 {:.1} us, p95 {:.1} us | \
             {:.0} req/s (cluster, simulated) | {} shed, {} expired",
            self.requests,
            self.batches,
            self.mean_batch_size,
            self.shards.len(),
            self.compile_cache_hits,
            self.compile_cache_hits + self.compile_cache_misses + self.compiled_artifact_loads,
            self.compiled_artifact_loads,
            self.compiled_evicted_unload,
            self.tuning_trials_run,
            self.tuning_trials_saved,
            self.p50_latency_seconds * 1e6,
            self.p95_latency_seconds * 1e6,
            self.cluster_throughput_rps,
            self.shed_requests,
            self.deadline_expired,
        )
    }

    /// One formatted line per shard (dispatches, busy time, shed), for the
    /// bench binaries' tables.
    pub fn shard_lines(&self) -> Vec<String> {
        self.shards
            .iter()
            .map(|s| {
                format!(
                    "shard {}: {} batches, {} req, {:.1} ms busy, {} shed [{}]",
                    s.id,
                    s.dispatched_batches,
                    s.requests,
                    s.busy_seconds * 1e3,
                    s.shed_requests,
                    s.device,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(stats: &ServerStats) -> StatsSnapshot {
        stats.snapshot(CacheCounters::default(), Vec::new())
    }

    #[test]
    fn percentiles_and_throughput() {
        let stats = ServerStats::default();
        stats.record_batch(Priority::Normal, 4, 0.004, 0.004); // 4 requests at 4 ms
        stats.record_batch(Priority::Normal, 1, 0.001, 0.001); // 1 request at 1 ms
        let snap = snap(&stats);
        assert_eq!(snap.requests, 5);
        assert_eq!(snap.batches, 2);
        assert!((snap.mean_batch_size - 2.5).abs() < 1e-9);
        assert!((snap.p50_latency_seconds - 0.004).abs() < 1e-9);
        assert!((snap.p95_latency_seconds - 0.004).abs() < 1e-9);
        assert!((snap.total_simulated_seconds - 0.005).abs() < 1e-6);
        assert!((snap.simulated_throughput_rps - 1000.0).abs() < 1.0);
        // The shared helper: rounded rank, and an empty slice is 0, not a
        // `len() - 1` underflow.
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.0), 1.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 3.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 1.0), 4.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.5), 2.0);
    }

    #[test]
    fn empty_stats_are_zero() {
        let snap = snap(&ServerStats::default());
        assert_eq!(snap.requests, 0);
        assert_eq!(snap.p50_latency_seconds, 0.0);
        assert_eq!(snap.simulated_throughput_rps, 0.0);
        assert_eq!(snap.cluster_throughput_rps, 0.0);
        assert_eq!(snap.mean_batch_size, 0.0);
    }

    #[test]
    fn latency_reservoir_stays_bounded() {
        let stats = ServerStats::default();
        for i in 0..20_000 {
            let lat = 0.001 * (1.0 + (i % 10) as f64);
            stats.record_batch(Priority::Normal, 1, lat, lat);
        }
        let held = stats.latencies.lock().unwrap()[Priority::Normal.index()]
            .samples
            .len();
        assert!(held <= super::LATENCY_RESERVOIR_CAP, "{held}");
        let snap = snap(&stats);
        assert_eq!(snap.requests, 20_000);
        // Percentiles still estimate the underlying uniform 1..=10 ms mix.
        assert!(snap.p50_latency_seconds >= 0.003 && snap.p50_latency_seconds <= 0.008);
        assert!(snap.p95_latency_seconds >= 0.008);
    }

    #[test]
    fn tuning_accounting() {
        let stats = ServerStats::default();
        stats.add_tuning_run(100, 20.0);
        stats.add_tuning_saved(250, 50.0);
        let snap = snap(&stats);
        assert_eq!(snap.tuning_trials_run, 100);
        assert_eq!(snap.tuning_trials_saved, 250);
        assert!((snap.tuning_seconds_run - 20.0).abs() < 1e-6);
        assert!((snap.tuning_seconds_saved - 50.0).abs() < 1e-6);
    }

    #[test]
    fn per_priority_latencies_are_separate() {
        let stats = ServerStats::default();
        stats.record_batch(Priority::High, 2, 0.001, 0.001);
        stats.record_batch(Priority::BestEffort, 2, 0.001, 0.010);
        let snap = snap(&stats);
        let high = &snap.priorities[Priority::High.index()];
        let be = &snap.priorities[Priority::BestEffort.index()];
        assert_eq!(high.requests, 2);
        assert_eq!(be.requests, 2);
        assert!(high.p95_latency_seconds < be.p95_latency_seconds);
        // The merged distribution spans both classes.
        assert!(snap.p50_latency_seconds >= 0.001 && snap.p50_latency_seconds <= 0.010);
        assert!((snap.p95_latency_seconds - 0.010).abs() < 1e-9);
    }

    #[test]
    fn shed_and_deadline_counters() {
        let stats = ServerStats::default();
        stats.count_shed(Priority::BestEffort);
        stats.count_shed(Priority::BestEffort);
        stats.count_deadline_expired();
        let snap = snap(&stats);
        assert_eq!(snap.shed_requests, 2);
        assert_eq!(snap.deadline_expired, 1);
        assert_eq!(snap.failures, 3);
        assert_eq!(
            snap.priorities[Priority::BestEffort.index()].shed_requests,
            2
        );
        assert_eq!(snap.priorities[Priority::High.index()].shed_requests, 0);
    }

    #[test]
    fn cluster_throughput_uses_busiest_shard() {
        let stats = ServerStats::default();
        stats.record_batch(Priority::Normal, 8, 0.004, 0.004);
        let shards = vec![
            ShardSnapshot {
                id: 0,
                device: "a".into(),
                dispatched_batches: 1,
                requests: 4,
                busy_seconds: 0.002,
                shed_requests: 0,
            },
            ShardSnapshot {
                id: 1,
                device: "b".into(),
                dispatched_batches: 1,
                requests: 4,
                busy_seconds: 0.001,
                shed_requests: 0,
            },
        ];
        let snap = stats.snapshot(CacheCounters::default(), shards);
        assert!((snap.makespan_seconds - 0.002).abs() < 1e-12);
        assert!((snap.cluster_throughput_rps - 8.0 / 0.002).abs() < 1.0);
        // Device-seconds throughput is unchanged by sharding.
        assert!((snap.simulated_throughput_rps - 8.0 / 0.004).abs() < 1.0);
        assert_eq!(snap.shard_lines().len(), 2);
    }
}
