//! The wire metric catalogue: the **one** enumeration of what `GET /v2/stats`
//! (JSON) and `GET /v2/metrics` (Prometheus text) serve from a
//! [`StatsSnapshot`].
//!
//! One table per snapshot struct, one row per scalar field: JSON key,
//! Prometheus family, type, help text and getter. [`render_json`] and
//! [`render_prometheus`] are loops over the tables, so the two endpoints
//! cannot drift, and a snapshot field without a row fails the exhaustive
//! test below. JSON keeps a table's row order; the exposition is sorted by
//! family (it is staged through a [`MetricsRegistry`], sharing the tracer's
//! renderer and its well-formedness guarantees).
//!
//! Units: latency percentiles are `*_us` (microseconds) in JSON and
//! `*_seconds` in Prometheus — the `seconds` rows; everything else carries
//! the same number on both.

use hidet_sched::json::JsonWriter;
use hidet_trace::{MetricType, MetricsRegistry};

use super::{
    DecodeShardSnapshot, DecodeStatsSnapshot, IngressStatsSnapshot, PriorityClassStats,
    StatsSnapshot,
};
use crate::shard::ShardSnapshot;

/// How a row reads its field: integral (JSON integer) or real (JSON number).
#[derive(Debug)]
pub enum Get<S: 'static> {
    /// A count or level, rendered without a fraction.
    Count(fn(&S) -> usize),
    /// A real-valued quantity.
    Real(fn(&S) -> f64),
}

/// One wire metric of snapshot struct `S`.
#[derive(Debug)]
pub struct Metric<S: 'static> {
    /// JSON key inside the struct's `/v2/stats` object.
    pub key: &'static str,
    /// Prometheus family on `/v2/metrics`.
    pub family: &'static str,
    /// `Counter` or `Gauge`.
    pub kind: MetricType,
    /// The family's `# HELP` text.
    pub help: &'static str,
    /// JSON value = Prometheus value × this (1e6 on the `seconds` rows).
    pub json_scale: f64,
    /// The field this row serves.
    pub get: Get<S>,
}

impl<S> Metric<S> {
    /// The row's value as `/v2/metrics` serves it.
    pub fn value(&self, s: &S) -> f64 {
        match self.get {
            Get::Count(f) => f(s) as f64,
            Get::Real(f) => f(s),
        }
    }
}

type Str = &'static str;
type Count<S> = fn(&S) -> usize;
type Real<S> = fn(&S) -> f64;

const fn row<S>(
    key: Str,
    family: Str,
    kind: MetricType,
    help: Str,
    json_scale: f64,
    get: Get<S>,
) -> Metric<S> {
    Metric {
        key,
        family,
        kind,
        help,
        json_scale,
        get,
    }
}

/// A monotonically increasing count.
const fn counter<S>(key: Str, family: Str, help: Str, get: Count<S>) -> Metric<S> {
    row(key, family, MetricType::Counter, help, 1.0, Get::Count(get))
}

/// An integral current value (blocks in use, queue depth, bytes).
const fn level<S>(key: Str, family: Str, help: Str, get: Count<S>) -> Metric<S> {
    row(key, family, MetricType::Gauge, help, 1.0, Get::Count(get))
}

/// A real-valued gauge carrying the same number on both endpoints.
const fn real<S>(key: Str, family: Str, help: Str, get: Real<S>) -> Metric<S> {
    row(key, family, MetricType::Gauge, help, 1.0, Get::Real(get))
}

/// A latency held in seconds: `*_us` in JSON, `*_seconds` in Prometheus.
const fn seconds<S>(key: Str, family: Str, help: Str, get: Real<S>) -> Metric<S> {
    row(key, family, MetricType::Gauge, help, 1e6, Get::Real(get))
}

/// Top-level keys of `/v2/stats`: the serving engine.
#[rustfmt::skip]
pub const ENGINE: &[Metric<StatsSnapshot>] = &[
    counter("requests", "hidet_engine_requests_total", "Requests answered by the serving engine.", |s| s.requests),
    counter("failures", "hidet_engine_failures_total", "Requests answered with an error.", |s| s.failures),
    counter("shed_requests", "hidet_engine_shed_total", "Requests shed by engine admission control.", |s| s.shed_requests),
    counter("deadline_expired", "hidet_engine_deadline_expired_total", "Requests whose deadline expired before execution.", |s| s.deadline_expired),
    counter("batches", "hidet_engine_batches_total", "Batch jobs executed.", |s| s.batches),
    real("mean_batch_size", "hidet_engine_batch_size_mean", "Mean formed batch size.", |s| s.mean_batch_size),
    seconds("p50_latency_us", "hidet_engine_latency_p50_seconds", "Median end-to-end request latency.", |s| s.p50_latency_seconds),
    seconds("p95_latency_us", "hidet_engine_latency_p95_seconds", "95th percentile end-to-end request latency.", |s| s.p95_latency_seconds),
    real("cluster_throughput_rps", "hidet_engine_throughput_rps", "Cluster-wide request throughput.", |s| s.cluster_throughput_rps),
    real("simulated_throughput_rps", "hidet_engine_device_throughput_rps", "Requests per simulated device-second.", |s| s.simulated_throughput_rps),
    real("total_simulated_seconds", "hidet_engine_simulated_seconds", "Simulated device time across batches and shards.", |s| s.total_simulated_seconds),
    real("makespan_seconds", "hidet_engine_makespan_seconds", "Simulated busy time of the busiest shard.", |s| s.makespan_seconds),
    counter("compile_cache_hits", "hidet_engine_compile_cache_hits_total", "Compiled-graph lookups served from memory.", |s| s.compile_cache_hits),
    counter("compile_cache_misses", "hidet_engine_compile_cache_misses_total", "Compiled-graph lookups that compiled afresh.", |s| s.compile_cache_misses),
    counter("compiled_artifact_loads", "hidet_engine_artifact_loads_total", "Compiles avoided by rebuilding from a disk artifact.", |s| s.compiled_artifact_loads),
    counter("compiled_artifact_rejects", "hidet_engine_artifact_rejects_total", "Disk artifacts rejected as corrupt or mismatched.", |s| s.compiled_artifact_rejects),
    counter("compiled_evicted_unload", "hidet_engine_compiled_evicted_unload_total", "Compiled graphs evicted by model unloads.", |s| s.compiled_evicted_unload),
    counter("artifact_gc_removed", "hidet_engine_artifact_gc_removed_total", "Artifact files removed from disk stores by GC.", |s| s.artifact_gc_removed),
    level("planned_peak_bytes", "hidet_engine_planned_peak_bytes", "Largest planned per-inference intermediate arena.", |s| s.planned_peak_bytes),
    counter("tuning_trials_run", "hidet_engine_tuning_trials_run_total", "Tuning trials executed.", |s| s.tuning_trials_run),
    counter("tuning_trials_saved", "hidet_engine_tuning_trials_saved_total", "Tuning trials saved by persisted records.", |s| s.tuning_trials_saved),
    real("tuning_seconds_run", "hidet_engine_tuning_seconds_run", "Simulated tuning seconds spent.", |s| s.tuning_seconds_run),
    real("tuning_seconds_saved", "hidet_engine_tuning_seconds_saved", "Simulated tuning seconds saved by persisted records.", |s| s.tuning_seconds_saved),
];

/// Elements of `priorities[]`; Prometheus label `priority`.
#[rustfmt::skip]
pub const ENGINE_CLASS: &[Metric<PriorityClassStats>] = &[
    counter("requests", "hidet_engine_class_requests_total", "Requests by priority class.", |c| c.requests),
    counter("shed_requests", "hidet_engine_class_shed_total", "Shed requests by priority class.", |c| c.shed_requests),
    seconds("p50_latency_us", "hidet_engine_class_latency_p50_seconds", "Median request latency by priority class.", |c| c.p50_latency_seconds),
    seconds("p95_latency_us", "hidet_engine_class_latency_p95_seconds", "95th percentile request latency by priority class.", |c| c.p95_latency_seconds),
];

/// Elements of `shards[]`; Prometheus label `shard`.
#[rustfmt::skip]
pub const ENGINE_SHARD: &[Metric<ShardSnapshot>] = &[
    counter("dispatched_batches", "hidet_engine_shard_batches_total", "Batches dispatched per engine shard.", |s| s.dispatched_batches),
    counter("requests", "hidet_engine_shard_requests_total", "Requests served per engine shard.", |s| s.requests),
    real("busy_seconds", "hidet_engine_shard_busy_seconds", "Simulated device time per engine shard.", |s| s.busy_seconds),
    counter("shed_requests", "hidet_engine_shard_shed_total", "Requests shed with this shard the least-loaded candidate.", |s| s.shed_requests),
];

/// Keys of the `decode` object.
#[rustfmt::skip]
pub const DECODE: &[Metric<DecodeStatsSnapshot>] = &[
    counter("sequences_completed", "hidet_decode_sequences_completed_total", "Decode sessions run to completion.", |d| d.sequences_completed),
    counter("sequences_failed", "hidet_decode_sequences_failed_total", "Decode sessions ended by an error.", |d| d.sequences_failed),
    counter("tokens_generated", "hidet_decode_tokens_total", "Tokens generated across all decode shards.", |d| d.tokens_generated),
    counter("prompt_tokens", "hidet_decode_prompt_tokens_total", "Prompt tokens absorbed into KV caches, replays included.", |d| d.prompt_tokens),
    counter("steps", "hidet_decode_steps_total", "Decode steps executed.", |d| d.steps),
    real("mean_step_occupancy", "hidet_decode_step_occupancy_mean", "Mean fraction of decode slots occupied per step.", |d| d.mean_step_occupancy),
    level("kv_blocks_in_use", "hidet_decode_kv_blocks_in_use", "KV cache blocks currently allocated.", |d| d.kv_blocks_in_use),
    level("kv_blocks_peak", "hidet_decode_kv_blocks_peak", "High-water mark of allocated KV cache blocks.", |d| d.kv_blocks_peak),
    level("kv_blocks_capacity", "hidet_decode_kv_blocks_capacity", "KV cache block capacity.", |d| d.kv_blocks_capacity),
    counter("kv_evictions", "hidet_decode_kv_evictions_total", "Sequences preempted by KV memory pressure.", |d| d.kv_evictions),
    counter("recomputed_tokens", "hidet_decode_recomputed_tokens_total", "Tokens re-fed to rebuild evicted caches.", |d| d.recomputed_tokens),
    real("tokens_per_second", "hidet_decode_tokens_per_second", "Decode token throughput.", |d| d.tokens_per_second),
    real("simulated_decode_seconds", "hidet_decode_simulated_decode_seconds", "Simulated time spent in decode steps.", |d| d.simulated_decode_seconds),
    real("simulated_prefill_seconds", "hidet_decode_simulated_prefill_seconds", "Simulated time spent in chunked prefill passes.", |d| d.simulated_prefill_seconds),
    seconds("ttft_p50_us", "hidet_decode_ttft_p50_seconds", "Median time to first token.", |d| d.ttft_p50_seconds),
    seconds("ttft_p95_us", "hidet_decode_ttft_p95_seconds", "95th percentile time to first token.", |d| d.ttft_p95_seconds),
    seconds("itl_p50_us", "hidet_decode_itl_p50_seconds", "Median inter-token latency.", |d| d.itl_p50_seconds),
    seconds("itl_p95_us", "hidet_decode_itl_p95_seconds", "95th percentile inter-token latency.", |d| d.itl_p95_seconds),
    seconds("ttft_from_admission_p50_us", "hidet_decode_ttft_from_admission_p50_seconds", "Median time to first token from batch admission.", |d| d.ttft_from_admission_p50_seconds),
    seconds("ttft_from_admission_p95_us", "hidet_decode_ttft_from_admission_p95_seconds", "95th percentile time to first token from batch admission.", |d| d.ttft_from_admission_p95_seconds),
    seconds("ttft_queue_p50_us", "hidet_decode_ttft_queue_p50_seconds", "Median queue segment of time to first token.", |d| d.ttft_queue_p50_seconds),
    seconds("ttft_queue_p95_us", "hidet_decode_ttft_queue_p95_seconds", "95th percentile queue segment of time to first token.", |d| d.ttft_queue_p95_seconds),
    seconds("ttft_prefill_p50_us", "hidet_decode_ttft_prefill_p50_seconds", "Median prefill segment of time to first token.", |d| d.ttft_prefill_p50_seconds),
    seconds("ttft_prefill_p95_us", "hidet_decode_ttft_prefill_p95_seconds", "95th percentile prefill segment of time to first token.", |d| d.ttft_prefill_p95_seconds),
    seconds("ttft_first_decode_p50_us", "hidet_decode_ttft_first_decode_p50_seconds", "Median first-decode segment of time to first token.", |d| d.ttft_first_decode_p50_seconds),
    seconds("ttft_first_decode_p95_us", "hidet_decode_ttft_first_decode_p95_seconds", "95th percentile first-decode segment of time to first token.", |d| d.ttft_first_decode_p95_seconds),
    counter("prefill_tokens", "hidet_decode_prefill_tokens_total", "Prompt tokens absorbed through chunked prefill.", |d| d.prefill_tokens),
    counter("prefill_passes", "hidet_decode_prefill_passes_total", "Chunked prefill passes executed.", |d| d.prefill_passes),
    real("prefill_tokens_per_second", "hidet_decode_prefill_tokens_per_second", "Chunked prefill absorption bandwidth.", |d| d.prefill_tokens_per_second),
    real("prefill_interleave_occupancy", "hidet_decode_prefill_interleave_occupancy", "Share of prefill iterations that also ran a decode step.", |d| d.prefill_interleave_occupancy),
    counter("sessions_migrated", "hidet_decode_migrations_total", "Sessions live-migrated between decode shards.", |d| d.sessions_migrated),
    real("cluster_tokens_per_second", "hidet_decode_cluster_tokens_per_second", "Generated tokens over the busiest shard's busy time.", |d| d.cluster_tokens_per_second),
];

/// Elements of `decode.shards[]`; Prometheus label `shard`.
#[rustfmt::skip]
pub const DECODE_SHARD: &[Metric<DecodeShardSnapshot>] = &[
    counter("sessions_placed", "hidet_decode_shard_sessions_placed_total", "Sessions placed per decode shard at submission.", |s| s.sessions_placed),
    counter("migrations_in", "hidet_decode_shard_migrations_in_total", "Sessions migrated onto each decode shard.", |s| s.migrations_in),
    counter("migrations_out", "hidet_decode_shard_migrations_out_total", "Sessions migrated off each decode shard.", |s| s.migrations_out),
    counter("tokens_generated", "hidet_decode_shard_tokens_total", "Tokens generated per decode shard.", |s| s.tokens_generated),
    counter("steps", "hidet_decode_shard_steps_total", "Decode steps executed per decode shard.", |s| s.steps),
    level("kv_blocks_in_use", "hidet_decode_shard_kv_blocks_in_use", "KV blocks allocated per decode shard.", |s| s.kv_blocks_in_use),
    level("kv_blocks_peak", "hidet_decode_shard_kv_blocks_peak", "High-water mark of KV blocks per decode shard.", |s| s.kv_blocks_peak),
    level("kv_blocks_capacity", "hidet_decode_shard_kv_blocks_capacity", "KV block capacity per decode shard.", |s| s.kv_blocks_capacity),
    real("simulated_decode_seconds", "hidet_decode_shard_simulated_decode_seconds", "Simulated decode-step time per decode shard.", |s| s.simulated_decode_seconds),
    real("simulated_busy_seconds", "hidet_decode_shard_simulated_busy_seconds", "Simulated clock (decode + prefill) per decode shard.", |s| s.simulated_busy_seconds),
    real("tokens_per_second", "hidet_decode_shard_tokens_per_second", "Decode token throughput per decode shard.", |s| s.tokens_per_second),
];

/// Keys of the `ingress` object. At quiescence `accepted = served +
/// closed_before_request`; the two shed counters are connections that were
/// never accepted.
#[rustfmt::skip]
pub const INGRESS: &[Metric<IngressStatsSnapshot>] = &[
    counter("accepted", "hidet_ingress_accepted_total", "Connections accepted into a lane ring.", |i| i.accepted),
    counter("shed_at_socket", "hidet_ingress_shed_at_socket_total", "Connections shed at the socket by the delay signal.", |i| i.shed_at_socket),
    counter("shed_ring_full", "hidet_ingress_shed_ring_full_total", "Connections shed because every lane ring was full.", |i| i.shed_ring_full),
    counter("served", "hidet_ingress_served_total", "Connections answered by a lane.", |i| i.served),
    counter("closed_before_request", "hidet_ingress_closed_before_request_total", "Accepted connections closed by the client before sending a request.", |i| i.closed_before_request),
    counter("streams_cancelled", "hidet_ingress_streams_cancelled_total", "Token streams dropped because the client went away.", |i| i.streams_cancelled),
    level("ring_depth", "hidet_ingress_ring_depth", "Connections queued across lane rings.", |i| i.ring_depth),
    level("ring_capacity", "hidet_ingress_ring_capacity", "Total lane ring capacity.", |i| i.ring_capacity),
    counter("enqueue_cas_retries", "hidet_ingress_enqueue_cas_retries_total", "CAS retries producers paid while enqueueing.", |i| i.enqueue_cas_retries),
    seconds("wire_ttfb_p50_us", "hidet_ingress_wire_ttfb_p50_seconds", "Median wire time to first byte.", |i| i.wire_ttfb_p50_seconds),
    seconds("wire_ttfb_p95_us", "hidet_ingress_wire_ttfb_p95_seconds", "95th percentile wire time to first byte.", |i| i.wire_ttfb_p95_seconds),
];

/// Every Prometheus family in the catalogue — what a scrape of a server with
/// decode and ingress attached must contain.
pub fn families() -> impl Iterator<Item = &'static str> {
    fn of<S>(table: &'static [Metric<S>]) -> impl Iterator<Item = &'static str> {
        table.iter().map(|m| m.family)
    }
    of(ENGINE)
        .chain(of(ENGINE_CLASS))
        .chain(of(ENGINE_SHARD))
        .chain(of(DECODE))
        .chain(of(DECODE_SHARD))
        .chain(of(INGRESS))
}

fn write_rows<S>(w: &mut JsonWriter, table: &[Metric<S>], s: &S) {
    for m in table {
        w.key(m.key);
        match m.get {
            Get::Count(f) => w.integer(f(s) as i64),
            Get::Real(f) => w.number(f(s) * m.json_scale),
        };
    }
}

/// The `GET /v2/stats` body.
pub fn render_json(s: &StatsSnapshot) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    write_rows(&mut w, ENGINE, s);
    w.key("priorities").begin_array();
    for class in &s.priorities {
        w.begin_object();
        w.key("priority").string(class.priority.label());
        write_rows(&mut w, ENGINE_CLASS, class);
        w.end();
    }
    w.end();
    w.key("shards").begin_array();
    for shard in &s.shards {
        w.begin_object();
        w.key("shard").integer(shard.id as i64);
        w.key("device").string(&shard.device);
        write_rows(&mut w, ENGINE_SHARD, shard);
        w.end();
    }
    w.end();
    if let Some(decode) = &s.decode {
        w.key("decode").begin_object();
        write_rows(&mut w, DECODE, decode);
        w.key("shards").begin_array();
        for shard in &decode.shards {
            w.begin_object();
            w.key("device").string(&shard.device);
            write_rows(&mut w, DECODE_SHARD, shard);
            w.end();
        }
        w.end();
        w.end();
    }
    if let Some(ingress) = &s.ingress {
        w.key("ingress").begin_object();
        write_rows(&mut w, INGRESS, ingress);
        w.end();
    }
    w.end();
    w.finish()
}

fn stage<S>(reg: &MetricsRegistry, table: &[Metric<S>], s: &S, labels: &[(&str, &str)]) {
    for m in table {
        reg.describe(m.family, m.kind, m.help);
        match m.get {
            Get::Count(f) if m.kind == MetricType::Counter => {
                reg.counter_add(m.family, labels, f(s) as u64);
            }
            _ => reg.gauge_set(m.family, labels, m.value(s)),
        }
    }
}

/// The catalogue's part of the `GET /v2/metrics` body (the server appends
/// the tracer's own span/event families).
pub fn render_prometheus(s: &StatsSnapshot) -> String {
    let reg = MetricsRegistry::new();
    stage(&reg, ENGINE, s, &[]);
    for class in &s.priorities {
        stage(
            &reg,
            ENGINE_CLASS,
            class,
            &[("priority", class.priority.label())],
        );
    }
    for shard in &s.shards {
        stage(
            &reg,
            ENGINE_SHARD,
            shard,
            &[("shard", &shard.id.to_string())],
        );
    }
    if let Some(decode) = &s.decode {
        stage(&reg, DECODE, decode, &[]);
        for (i, shard) in decode.shards.iter().enumerate() {
            stage(&reg, DECODE_SHARD, shard, &[("shard", &i.to_string())]);
        }
    }
    if let Some(ingress) = &s.ingress {
        stage(&reg, INGRESS, ingress, &[]);
    }
    reg.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheCounters;
    use crate::stats::ServerStats;
    use hidet_sched::json::{get, Json};

    /// Destructures `$s` exhaustively (no `..`, so a new field fails to
    /// compile here until it is listed), stamps the scalar fields 1..=n and
    /// checks that `$table` reads each of them through exactly one row.
    macro_rules! assert_one_row_per_field {
        ($table:ident, $s:ident: $ty:ident { $($scalar:ident),* ; $($identity:ident),* }) => {{
            let $ty { $($scalar,)* $($identity: _,)* } = &mut $s;
            let mut n = 0usize;
            $( n += 1; *$scalar = n as _; )*
            let mut read: Vec<f64> = $table.iter().map(|m| m.value(&$s)).collect();
            read.sort_by(f64::total_cmp);
            let want: Vec<f64> = (1..=n).map(|v| v as f64).collect();
            assert_eq!(read, want, "{}: one row per scalar field", stringify!($table));
        }};
    }

    fn empty() -> StatsSnapshot {
        ServerStats::default().snapshot(CacheCounters::default(), Vec::new())
    }

    #[test]
    fn every_scalar_snapshot_field_has_exactly_one_row() {
        let mut engine = empty();
        assert_one_row_per_field!(ENGINE, engine: StatsSnapshot {
            requests, failures, shed_requests, deadline_expired, batches, compile_cache_hits,
            compile_cache_misses, compiled_artifact_loads, compiled_artifact_rejects,
            compiled_evicted_unload, artifact_gc_removed, planned_peak_bytes, tuning_trials_run,
            tuning_trials_saved, tuning_seconds_run, tuning_seconds_saved,
            total_simulated_seconds, makespan_seconds, p50_latency_seconds, p95_latency_seconds,
            mean_batch_size, simulated_throughput_rps, cluster_throughput_rps;
            priorities, shards, decode, ingress
        });
        let mut class = empty().priorities[0].clone();
        assert_one_row_per_field!(ENGINE_CLASS, class: PriorityClassStats {
            requests, shed_requests, p50_latency_seconds, p95_latency_seconds; priority
        });
        let mut shard = ShardSnapshot {
            id: 0,
            device: String::new(),
            dispatched_batches: 0,
            requests: 0,
            busy_seconds: 0.0,
            shed_requests: 0,
        };
        assert_one_row_per_field!(ENGINE_SHARD, shard: ShardSnapshot {
            dispatched_batches, requests, busy_seconds, shed_requests; id, device
        });
        let mut decode = DecodeStatsSnapshot::default();
        assert_one_row_per_field!(DECODE, decode: DecodeStatsSnapshot {
            sequences_completed, sequences_failed, tokens_generated, prompt_tokens, steps,
            mean_step_occupancy, ttft_p50_seconds, ttft_p95_seconds, itl_p50_seconds,
            itl_p95_seconds, ttft_from_admission_p50_seconds, ttft_from_admission_p95_seconds,
            ttft_queue_p50_seconds, ttft_queue_p95_seconds, ttft_prefill_p50_seconds,
            ttft_prefill_p95_seconds, ttft_first_decode_p50_seconds,
            ttft_first_decode_p95_seconds, tokens_per_second, simulated_decode_seconds,
            simulated_prefill_seconds, prefill_tokens, prefill_passes, prefill_tokens_per_second,
            prefill_interleave_occupancy, kv_blocks_in_use, kv_blocks_peak, kv_blocks_capacity,
            kv_evictions, recomputed_tokens, sessions_migrated, cluster_tokens_per_second;
            shards
        });
        let mut decode_shard = DecodeShardSnapshot::default();
        assert_one_row_per_field!(DECODE_SHARD, decode_shard: DecodeShardSnapshot {
            sessions_placed, migrations_in, migrations_out, tokens_generated, steps,
            kv_blocks_in_use, kv_blocks_peak, kv_blocks_capacity, simulated_decode_seconds,
            simulated_busy_seconds, tokens_per_second;
            device
        });
        let mut ingress = IngressStatsSnapshot::default();
        assert_one_row_per_field!(INGRESS, ingress: IngressStatsSnapshot {
            accepted, shed_at_socket, shed_ring_full, served, closed_before_request,
            streams_cancelled, ring_depth, ring_capacity, enqueue_cas_retries,
            wire_ttfb_p50_seconds, wire_ttfb_p95_seconds;
        });
    }

    #[test]
    fn wire_names_are_unique_and_well_formed() {
        let families: Vec<&str> = families().collect();
        let mut unique = families.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(
            unique.len(),
            families.len(),
            "a Prometheus family serves two rows"
        );
        fn check<S>(prefix: &str, table: &[Metric<S>]) {
            let mut keys: Vec<&str> = table.iter().map(|m| m.key).collect();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), table.len(), "{prefix}: duplicate JSON key");
            for m in table {
                assert!(m.family.starts_with(prefix), "{}", m.family);
                assert!(!m.help.is_empty(), "{}", m.family);
                // Counters end in `_total`; a microsecond JSON key always
                // pairs with a seconds family.
                assert_eq!(
                    m.kind == MetricType::Counter,
                    m.family.ends_with("_total"),
                    "{}",
                    m.family
                );
                assert_eq!(m.json_scale == 1e6, m.key.ends_with("_us"), "{}", m.key);
                assert!(
                    m.json_scale == 1.0 || m.family.ends_with("_seconds"),
                    "{}",
                    m.family
                );
            }
        }
        check("hidet_engine_", ENGINE);
        check("hidet_engine_class_", ENGINE_CLASS);
        check("hidet_engine_shard_", ENGINE_SHARD);
        check("hidet_decode_", DECODE);
        check("hidet_decode_shard_", DECODE_SHARD);
        check("hidet_ingress_", INGRESS);
    }

    #[test]
    fn both_renderings_are_well_formed_and_carry_every_row() {
        let mut snapshot = empty();
        snapshot.requests = 7;
        snapshot.p95_latency_seconds = 0.25;
        snapshot.decode = Some(DecodeStatsSnapshot {
            shards: vec![DecodeShardSnapshot::default(); 2],
            ..DecodeStatsSnapshot::default()
        });
        snapshot.ingress = Some(IngressStatsSnapshot::default());
        snapshot.shards = vec![ShardSnapshot {
            id: 0,
            device: "gpu".into(),
            dispatched_batches: 3,
            requests: 7,
            busy_seconds: 0.5,
            shed_requests: 0,
        }];

        let text = render_prometheus(&snapshot);
        hidet_trace::validate_exposition(&text).unwrap();
        for family in families() {
            assert!(text.contains(&format!("# TYPE {family} ")), "{family}");
        }
        assert!(text.contains("# TYPE hidet_engine_requests_total counter\n"));
        assert!(text.contains("\nhidet_engine_requests_total 7\n"), "{text}");
        assert!(text.contains("hidet_engine_latency_p95_seconds 0.25\n"));
        assert!(text.contains("hidet_decode_shard_tokens_total{shard=\"1\"} 0\n"));

        let doc = Json::parse(&render_json(&snapshot)).unwrap();
        let root = doc.as_object("stats").unwrap();
        assert_eq!(
            get(root, "requests").unwrap().as_i64("requests").unwrap(),
            7
        );
        let p95 = get(root, "p95_latency_us").unwrap().as_f64("p95").unwrap();
        assert_eq!(p95, 0.25 * 1e6);
        let decode = get(root, "decode").unwrap().as_object("decode").unwrap();
        assert_eq!(decode.len(), DECODE.len() + 1);
        let shards = get(decode, "shards").unwrap().as_array("shards").unwrap();
        assert_eq!(shards.len(), 2);
        let ingress = get(root, "ingress").unwrap().as_object("ingress").unwrap();
        assert_eq!(ingress.len(), INGRESS.len());
    }
}
