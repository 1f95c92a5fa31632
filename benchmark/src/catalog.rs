//! The names this benchmark defines: four workloads and every metric, each
//! with its unit, direction, clock and — for the end-to-end ones — the bound
//! by which its median may worsen before a change counts as a regression.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a unit test
//! keeps the two from drifting. Later issues refer to these names.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Which clock (or which kind of non-time quantity) a number comes from.
/// Printed beside every value so simulated and computed quantities can never
/// be mistaken for measurements of the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall time of the Rust in this repository, measured on this host.
    Host,
    /// The analytic device model's time: deterministic, must repeat exactly.
    Sim,
    /// Derived from IR or tensor sizes, not measured (FLOPs, bytes).
    Computed,
    /// A counter or a ratio of counters read from the program.
    Count,
}

impl Clock {
    /// The label printed in reports.
    pub fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "simulated",
            Clock::Computed => "computed",
            Clock::Count => "count",
        }
    }
}

/// One metric definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// The metric's name, as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Which way it improves.
    pub better: Better,
    /// Which clock it is on.
    pub clock: Clock,
    /// `Some(bound)` makes it an end-to-end metric reported by every
    /// workload; `None` a per-layer metric (0 where a workload does not
    /// exercise the layer).
    pub bound: Option<f64>,
    /// Deterministic for a fixed seed: two runs of one commit must agree to
    /// the last digit (`repeat` fails otherwise).
    pub exact: bool,
}

/// One workload definition.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// The workload's name.
    pub name: &'static str,
    /// Why it is in the benchmark (one line, also in `BENCHMARK.json`).
    pub why: &'static str,
}

/// The four workloads, in the order `run` executes them.
pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "zoo_compile",
        why: "Cold tuned compile and artifact rebuild of the paper's five models: every compiler layer works, the interpreter does nothing, so interpreter changes must not move it and work moved into compile shows.",
    },
    WorkloadDef {
        name: "decode_mixed",
        why: "16 mixed-length generation sessions on a 2-shard in-process decode engine: ~99% of host time is the kernel interpreter, while batching, placement, KV and chunked prefill all run.",
    },
    WorkloadDef {
        name: "oneshot_batched",
        why: "16 closed-loop callers on a 2-shard one-shot engine: tuned batch-8 matmul and conv kernels stress the interpreter differently from decode; batcher, compiled cache and placement carry load.",
    },
    WorkloadDef {
        name: "wire_mixed",
        why: "Full stack over loopback TCP: two closed-loop clients mix infer, streamed generate, stats/metrics scrapes and malformed requests; the only workload that crosses the HTTP server.",
    },
];

/// Seconds one run measures by default (`BENCHMARK.json` `run_seconds`).
pub const DEFAULT_SECONDS: u64 = 10;

/// Seed used when none is given on the command line.
pub const DEFAULT_SEED: u64 = 20230325;

const fn def(
    name: &'static str,
    unit: &'static str,
    better: Better,
    clock: Clock,
    bound: Option<f64>,
    exact: bool,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        clock,
        bound,
        exact,
    }
}

/// An end-to-end metric with its bound.
const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    clock: Clock,
    bound: f64,
) -> MetricDef {
    def(name, unit, better, clock, Some(bound), false)
}

/// A per-layer metric measured on the host (or otherwise free to vary).
const fn layer(name: &'static str, unit: &'static str, better: Better, clock: Clock) -> MetricDef {
    def(name, unit, better, clock, None, false)
}

/// A per-layer metric that is deterministic for a fixed seed.
const fn exact(name: &'static str, unit: &'static str, better: Better, clock: Clock) -> MetricDef {
    def(name, unit, better, clock, None, true)
}

use Better::{Higher, Lower};
use Clock::{Computed, Count, Host, Sim};

/// Every metric. End-to-end metrics first (every workload reports each of
/// them, taken with the tracer at its production default); then the
/// workload-specific user-visible metrics; then one block per layer (crate).
pub const METRICS: &[MetricDef] = &[
    // ---- end to end: reported by all four workloads ----------------------
    e2e("host_work_per_s", "1/s", Higher, Host, 0.25),
    e2e("host_latency_p10_ms", "ms", Lower, Host, 0.25),
    e2e("setup_s", "s", Lower, Host, 0.25),
    // ---- user-visible, one workload (or two) each ------------------------
    layer("host_compile_s", "s", Lower, Host),
    layer("host_rebuild_s", "s", Lower, Host),
    exact("sim_latency_geomean_ms", "ms", Lower, Sim),
    exact("sim_tuning_s", "s", Lower, Sim),
    layer("host_tokens_per_s", "tok/s", Higher, Host),
    exact("sim_tokens_per_s", "tok/s", Higher, Sim),
    exact("sim_ttft_p50_us", "us", Lower, Sim),
    exact("sim_itl_p95_us", "us", Lower, Sim),
    layer("host_requests_per_s", "req/s", Higher, Host),
    layer("sim_requests_per_s", "req/s", Higher, Sim),
    layer("host_latency_p50_ms", "ms", Lower, Host),
    layer("host_latency_p90_ms", "ms", Lower, Host),
    layer("host_ttft_p50_ms", "ms", Lower, Host),
    layer("peak_rss_mb", "MiB", Lower, Host),
    // ---- graph -----------------------------------------------------------
    layer("graph.build_ms", "ms", Lower, Host),
    layer("graph.hash_ms", "ms", Lower, Host),
    layer("graph.passes_ms", "ms", Lower, Host),
    exact("graph.ops_after_passes", "count", Lower, Count),
    exact("graph.fused_groups", "count", Lower, Count),
    // ---- analysis --------------------------------------------------------
    layer("analysis.verify_ms", "ms", Lower, Host),
    // ---- sched -----------------------------------------------------------
    layer("sched.tune_ms", "ms", Lower, Host),
    exact("sched.tuning_trials", "count", Lower, Count),
    layer("sched.trials_per_host_s", "1/s", Higher, Host),
    layer("sched.compile_group_ms", "ms", Lower, Host),
    layer("sched.json_parse_us", "us", Lower, Host),
    layer("sched.json_parse_artifact_ms", "ms", Lower, Host),
    // ---- sim -------------------------------------------------------------
    layer("sim.estimate_us", "us", Lower, Host),
    layer("sim.interp_ms_per_launch.decode", "ms", Lower, Host),
    layer("sim.interp_ms_per_launch.oneshot", "ms", Lower, Host),
    layer("sim.interp_kthreads_per_host_s", "kthread/s", Higher, Host),
    exact("sim.flops_per_step", "flop", Lower, Computed),
    exact("sim.bytes_per_step", "B", Lower, Computed),
    layer("sim.kernel_launches", "count", Lower, Count),
    layer("sim.interp_share", "ratio", Lower, Host),
    // ---- ir --------------------------------------------------------------
    exact("ir.kernel_nodes", "count", Lower, Count),
    // ---- core ------------------------------------------------------------
    layer("core.compile_ms.resnet50", "ms", Lower, Host),
    layer("core.compile_ms.inception_v3", "ms", Lower, Host),
    layer("core.compile_ms.mobilenet_v2", "ms", Lower, Host),
    layer("core.compile_ms.bert", "ms", Lower, Host),
    layer("core.compile_ms.gpt2", "ms", Lower, Host),
    exact("core.kernels", "count", Lower, Count),
    exact("core.cuda_source_bytes", "B", Lower, Count),
    exact("core.planned_peak_bytes", "B", Lower, Computed),
    exact("core.artifact_json_bytes", "B", Lower, Count),
    layer("core.plan_build_ms", "ms", Lower, Host),
    layer("core.artifact_roundtrip_ms", "ms", Lower, Host),
    layer("core.run_prepared_ms", "ms", Lower, Host),
    // ---- runtime ---------------------------------------------------------
    layer("runtime.submit_us", "us", Lower, Host),
    layer("runtime.batches", "count", Lower, Count),
    layer("runtime.mean_batch", "req", Higher, Count),
    layer("runtime.cache_hit_share", "ratio", Higher, Count),
    layer("runtime.shed", "count", Lower, Count),
    layer("runtime.deadline_expired", "count", Lower, Count),
    layer("runtime.shard_dispatch_imbalance", "ratio", Lower, Count),
    layer("runtime.batch_form_ms", "ms", Lower, Host),
    layer("runtime.batch_execute_self_ms", "ms", Lower, Host),
    layer("runtime.engine_submit_ms", "ms", Lower, Host),
    // ---- decode ----------------------------------------------------------
    exact("decode.steps", "count", Lower, Count),
    exact("decode.mean_step_occupancy", "ratio", Higher, Count),
    exact("decode.prefill_passes", "count", Lower, Count),
    exact("decode.prefill_tokens", "count", Higher, Count),
    layer("decode.host_ms_per_step", "ms", Lower, Host),
    layer("decode.iteration_self_ms", "ms", Lower, Host),
    layer("decode.step_self_ms", "ms", Lower, Host),
    layer("decode.shard_place_us", "us", Lower, Host),
    exact("decode.kv_peak_share", "ratio", Lower, Count),
    exact("decode.kv_evictions", "count", Lower, Count),
    exact("decode.recomputed_share", "ratio", Lower, Count),
    exact("decode.sessions_migrated", "count", Lower, Count),
    exact("decode.shard_token_imbalance", "ratio", Lower, Count),
    layer("decode.kv_append_release_ns", "ns", Lower, Host),
    exact("decode.sim_ttft_p95_us", "us", Lower, Sim),
    exact("decode.sim_ttft_queue_p50_us", "us", Lower, Sim),
    exact("decode.sim_ttft_prefill_p50_us", "us", Lower, Sim),
    // ---- server ----------------------------------------------------------
    layer("server.parse_us", "us", Lower, Host),
    layer("server.queue_us", "us", Lower, Host),
    layer("server.handle_self_us", "us", Lower, Host),
    layer("server.respond_us", "us", Lower, Host),
    layer("server.overhead_ms_p50", "ms", Lower, Host),
    layer("server.ring_push_pop_ns", "ns", Lower, Host),
    layer("server.scrape_stats_ms_p50", "ms", Lower, Host),
    layer("server.scrape_metrics_ms_p50", "ms", Lower, Host),
    layer("server.accepted", "count", Higher, Count),
    layer("server.served", "count", Higher, Count),
    layer("server.shed", "count", Lower, Count),
    layer("server.cas_retries", "count", Lower, Count),
    // ---- trace -----------------------------------------------------------
    layer("trace.overhead_pct", "%", Lower, Host),
    layer("trace.events_dropped", "count", Lower, Count),
    layer("trace.emit_ns", "ns", Lower, Host),
    layer("trace.spans", "count", Lower, Count),
    layer("trace.unattributed_share", "ratio", Lower, Host),
];

/// Looks a metric up by name.
pub fn metric(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|m| m.name == name)
}

/// The end-to-end metrics, in catalog order.
#[cfg(test)]
pub fn end_to_end() -> impl Iterator<Item = &'static MetricDef> {
    METRICS.iter().filter(|m| m.bound.is_some())
}

/// The per-layer metrics, in catalog order.
#[cfg(test)]
pub fn per_layer() -> impl Iterator<Item = &'static MetricDef> {
    METRICS.iter().filter(|m| m.bound.is_none())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidet_sched::json::{get, Json};

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for name in METRICS
            .iter()
            .map(|m| m.name)
            .chain(WORKLOADS.iter().map(|w| w.name))
        {
            assert!(valid_name(name), "bad name {name}");
            assert!(seen.insert(name), "duplicate name {name}");
        }
        for m in METRICS {
            assert!(m.unit.len() <= 16, "unit of {} too long", m.name);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')));
            if let Some(bound) = m.bound {
                assert!(bound > 0.0 && bound <= 0.25);
            }
        }
        for w in WORKLOADS {
            assert!(
                w.why.len() <= 200,
                "why of {} is {} chars",
                w.name,
                w.why.len()
            );
            assert!(!w.why.contains('\n'));
        }
        assert!(
            end_to_end().any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower)
        );
        assert!(per_layer().count() <= 128);
    }

    /// `BENCHMARK.json` is what the PR driver reads; this catalog is what the
    /// harness prints. They must say the same thing.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let obj = doc.as_object("BENCHMARK.json").unwrap();
        let keys: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            get(obj, "run_seconds")
                .unwrap()
                .as_i64("run_seconds")
                .unwrap(),
            DEFAULT_SECONDS as i64
        );
        let field = |item: &Json, key: &str| -> String {
            get(item.as_object("item").unwrap(), key)
                .unwrap()
                .as_str(key)
                .unwrap()
                .to_string()
        };

        let listed: Vec<(String, String)> = get(obj, "workloads")
            .unwrap()
            .as_array("workloads")
            .unwrap()
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(listed, expected);

        for (key, defs) in [
            ("end_to_end", end_to_end().collect::<Vec<_>>()),
            ("per_layer", per_layer().collect::<Vec<_>>()),
        ] {
            let items = get(obj, key).unwrap().as_array(key).unwrap();
            assert_eq!(items.len(), defs.len(), "{key} length");
            for (item, def) in items.iter().zip(defs) {
                assert_eq!(field(item, "name"), def.name);
                assert_eq!(field(item, "unit"), def.unit, "{}", def.name);
                assert_eq!(field(item, "better"), def.better.label(), "{}", def.name);
                let fields = item.as_object("item").unwrap();
                match def.bound {
                    Some(bound) => {
                        assert_eq!(fields.len(), 4);
                        assert_eq!(
                            get(fields, "bound").unwrap().as_f64("bound").unwrap(),
                            bound
                        );
                    }
                    None => assert_eq!(fields.len(), 3),
                }
            }
        }
    }
}
