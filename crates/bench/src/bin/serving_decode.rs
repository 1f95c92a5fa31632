//! Autoregressive-decode benchmark: continuous (iteration-level) batching
//! vs. static pad-to-max batching on a mixed-length generation workload,
//! plus a long-prompt phase measuring chunked prefill's time-to-first-token.
//!
//! Demonstrates the acceptance criteria of the decode subsystem:
//!
//! 1. **continuous batching sustains ≥2× the tokens/sec** of static
//!    batching: sequences join the running batch every step and retire the
//!    step they finish, while the static scheduler drains a whole batch at
//!    the pace of its longest member before admitting the next;
//! 2. scheduling is **invisible to clients**: both modes emit bit-identical
//!    token streams for every session (the fixed-shape step graph computes
//!    each batch row independently);
//! 3. KV blocks are fully recycled — zero blocks in use once the workload
//!    drains;
//! 4. **chunked prefill cuts long-prompt TTFT ≥2×** (asserted at ≤0.5×
//!    token-wise) while the short sessions sharing the batch keep their
//!    inter-token latency p95 within 20% — the interleaving budget bounds
//!    the prefill bubble;
//! 5. **multi-device decode scales**: four homogeneous shards sustain ≥3×
//!    the cluster tokens/sec of one shard on the same (scaled-up) workload
//!    — with every long session *force-migrated* mid-generation, token
//!    streams stay bit-identical to the solo run and every shard's KV arena
//!    drains to zero.
//!
//! Emits its metrics as the `serving_decode` section of
//! `BENCH_serving.json`; `*_tokens_per_s` is gated higher-is-better and
//! `*_ttft_p95_us` lower-is-better by `bench_compare` alongside the serving
//! `*_rps` class.
//!
//! ```text
//! cargo run --release -p hidet-bench --bin serving_decode -- --groups 4
//! ```

use std::path::PathBuf;

use hidet_bench::report::{upsert_section, BenchSection};
use hidet_bench::{arg_str, arg_usize, print_table};
use hidet_decode::{
    BatchingMode, DecodeConfig, DecodeEngine, DecodeModelSpec, GenerateRequest, Generation,
};
use hidet_runtime::{DecodeStatsSnapshot, Priority};
use hidet_sched::json::{get, Json};
use hidet_sim::GpuSpec;

/// The served model: a 2-layer pre-LN transformer, hidden 32, 2 heads,
/// vocabulary 32, context window 24 — big enough that a decode step is a
/// real multi-kernel forward pass, small enough for the interpreter.
fn spec() -> DecodeModelSpec {
    DecodeModelSpec::transformer("mini_decode", 2, 32, 2, 32, 24)
}

/// The mixed-length workload: per group, three short chats (2 tokens) and
/// one long completion (20 tokens). Static pad-to-max batching burns most of
/// its slots waiting for the long member of each batch.
fn workload(groups: usize) -> Vec<(Vec<u32>, usize)> {
    let mut out = Vec::new();
    for g in 0..groups as u32 {
        out.push((vec![g % 32], 2));
        out.push((vec![(g + 7) % 32], 2));
        out.push((vec![(g + 13) % 32], 2));
        out.push((vec![(g + 21) % 32, 3], 20));
    }
    out
}

/// Runs the workload through one engine and returns every session's tokens
/// plus the engine's decode stats.
fn run_mode(mode: BatchingMode, groups: usize) -> (Vec<Vec<u32>>, DecodeStatsSnapshot) {
    // A paused start queues the whole workload before the first admission,
    // so scheduling — and every simulated-time metric the trajectory gate
    // watches — is independent of host scheduling jitter.
    let engine = DecodeEngine::new(DecodeConfig {
        max_batch: 4,
        kv_blocks: 64,
        block_tokens: 8,
        mode,
        start_paused: true,
        ..DecodeConfig::default()
    });
    let model = engine.register(spec()).expect("decode model registers");
    let sessions: Vec<_> = workload(groups)
        .into_iter()
        .map(|(prompt, max_tokens)| model.generate(GenerateRequest::new(prompt, max_tokens)))
        .collect();
    engine.resume();
    let tokens: Vec<Vec<u32>> = sessions
        .into_iter()
        .map(|session| session.collect().expect("session completes").tokens)
        .collect();
    (tokens, engine.stats())
}

/// Runs the mixed workload on a pool of `n` homogeneous shards. Lane
/// shares stay pinned at the full batch width (autoscaling is off, as in
/// production: a fixed-shape step graph costs the same at any occupancy, so
/// shrinking a share can only serialize work — DESIGN.md §11) and the
/// migration stress knob is set on multi-shard pools, so every session
/// generating past two tokens is live-migrated to the next shard mid-flight
/// — the scaling number already pays for the replay chains. Long
/// completions are submitted at [`Priority::High`] (identically on both
/// pool sizes): admission drains priority classes in order, so the longest
/// sessions start first and the makespan is bounded by balanced work, not
/// by one long session admitted into a draining queue.
fn run_pool(n: usize, groups: usize) -> (Vec<Vec<u32>>, DecodeStatsSnapshot) {
    let engine = DecodeEngine::new(DecodeConfig {
        max_batch: 4,
        kv_blocks: 64,
        block_tokens: 8,
        devices: vec![GpuSpec::rtx3090(); n],
        stress_migrate_after: if n > 1 { 2 } else { 0 },
        mode: BatchingMode::Continuous,
        start_paused: true,
        ..DecodeConfig::default()
    });
    let model = engine.register(spec()).expect("decode model registers");
    let sessions: Vec<_> = workload(groups)
        .into_iter()
        .map(|(prompt, max_tokens)| {
            let priority = if max_tokens >= 20 {
                Priority::High
            } else {
                Priority::Normal
            };
            model.generate(GenerateRequest::new(prompt, max_tokens).with_priority(priority))
        })
        .collect();
    engine.resume();
    let tokens: Vec<Vec<u32>> = sessions
        .into_iter()
        .map(|session| session.collect().expect("session completes").tokens)
        .collect();
    (tokens, engine.stats())
}

/// The long-prompt model: 1 layer, hidden 16, 2 heads, vocabulary 32, and a
/// context window fitting a 512-token prompt plus its completion — sized so
/// the token-wise baseline (one scheduler step per prompt token) stays
/// interpretable in minutes while the TTFT gap is structural, not tuned.
fn long_spec(long_prompt: usize) -> DecodeModelSpec {
    let mc = (long_prompt + 8) as i64;
    DecodeModelSpec::transformer("long_decode", 1, 16, 2, 32, mc)
}

/// The long-prompt mix of the TTFT phase: per group, three short chats
/// (2-token prompts, 60 generated tokens — the ITL-p95 population) and one
/// `long_prompt`-token completion.
fn long_workload(groups: usize, long_prompt: usize) -> Vec<(Vec<u32>, usize)> {
    let mut out = Vec::new();
    for g in 0..groups as u32 {
        out.push((vec![g % 32, 5], 60));
        out.push((vec![(g + 7) % 32, 11], 60));
        out.push((vec![(g + 13) % 32, 17], 60));
        let long: Vec<u32> = (0..long_prompt as u32).map(|i| (i * 7 + g) % 32).collect();
        out.push((long, 8));
    }
    out
}

/// Runs the long-prompt mix with the given chunk menu (empty = token-wise)
/// and returns the token streams plus decode stats.
fn run_long(
    menu: Vec<usize>,
    groups: usize,
    long_prompt: usize,
) -> (Vec<Generation>, DecodeStatsSnapshot) {
    let engine = DecodeEngine::new(DecodeConfig {
        max_batch: 4,
        kv_blocks: 256,
        block_tokens: 8,
        chunk_menu: menu,
        prefill_token_budget: 256,
        mode: BatchingMode::Continuous,
        start_paused: true,
        ..DecodeConfig::default()
    });
    let model = engine
        .register(long_spec(long_prompt))
        .expect("long-prompt model registers");
    let sessions: Vec<_> = long_workload(groups, long_prompt)
        .into_iter()
        .map(|(prompt, max_tokens)| model.generate(GenerateRequest::new(prompt, max_tokens)))
        .collect();
    engine.resume();
    let generations: Vec<Generation> = sessions
        .into_iter()
        .map(|session| session.collect().expect("session completes"))
        .collect();
    (generations, engine.stats())
}

fn main() {
    let groups = arg_usize("--groups", 4);
    let long_prompt = arg_usize("--long-prompt", 512);
    let bench_json = PathBuf::from(arg_str("--bench-json", "BENCH_serving.json"));
    let sequences = groups * 4;
    println!("=== hidet-decode: continuous vs static batching ===");
    println!(
        "({sequences} sessions — 3 short : 1 long per group — 4 decode slots, \
         KV blocks of 8 tokens)\n"
    );

    let (cont_tokens, cont) = run_mode(BatchingMode::Continuous, groups);
    let (stat_tokens, stat) = run_mode(BatchingMode::Static, groups);

    // --- 2. scheduling must be invisible to clients ------------------------
    assert_eq!(
        cont_tokens, stat_tokens,
        "continuous and static scheduling must emit identical token streams"
    );

    let row = |name: &str, s: &DecodeStatsSnapshot| {
        vec![
            name.to_string(),
            format!("{}", s.tokens_generated),
            format!("{}", s.steps),
            format!("{:.0}%", s.mean_step_occupancy * 100.0),
            format!("{:.1}", s.ttft_p95_seconds * 1e6),
            format!("{:.1}", s.itl_p50_seconds * 1e6),
            format!("{:.0}", s.tokens_per_second),
        ]
    };
    print_table(
        &[
            "scheduler",
            "tokens",
            "steps",
            "occupancy",
            "ttft p95(us)",
            "itl p50(us)",
            "tok/s (sim)",
        ],
        &[row("continuous", &cont), row("static", &stat)],
    );
    println!("\ncontinuous: {}", cont.summary());
    println!("static:     {}", stat.summary());

    // --- 1. the ≥2× tokens/sec acceptance ---------------------------------
    let speedup = cont.tokens_per_second / stat.tokens_per_second;
    println!("\ncontinuous batching throughput: {speedup:.2}x static pad-to-max");
    assert!(
        speedup >= 2.0,
        "continuous batching must sustain >= 2x static tokens/sec, got {speedup:.2}x"
    );

    // --- 3. KV hygiene -----------------------------------------------------
    assert_eq!(cont.kv_blocks_in_use, 0, "continuous run leaked KV blocks");
    assert_eq!(stat.kv_blocks_in_use, 0, "static run leaked KV blocks");
    assert_eq!(
        cont.sequences_completed, sequences,
        "every session completes"
    );

    // --- 4. the long-prompt TTFT phase: chunked prefill vs token-wise ------
    println!(
        "\n=== long-prompt mix: chunked prefill vs token-wise absorption ===\n\
         (3 short chats : 1 x {long_prompt}-token prompt, chunk menu [16, 64, 256], \
         prefill budget 256 tokens/iteration)\n"
    );
    let (chunked_gens, chunked) = run_long(vec![16, 64, 256], 1, long_prompt);
    let (tokenwise_gens, tokenwise) = run_long(vec![], 1, long_prompt);

    // Chunking must be invisible: bit-identical streams either way.
    let streams = |gens: &[Generation]| gens.iter().map(|g| g.tokens.clone()).collect::<Vec<_>>();
    assert_eq!(
        streams(&chunked_gens),
        streams(&tokenwise_gens),
        "chunked prefill must emit bit-identical token streams"
    );

    // The long session is every 4th of the mix; its TTFT is the headline.
    let long_ttft = |gens: &[Generation]| {
        gens.iter()
            .skip(3)
            .step_by(4)
            .map(|g| g.ttft_from_admission_seconds)
            .fold(0.0f64, f64::max)
    };
    let chunked_ttft = long_ttft(&chunked_gens);
    let tokenwise_ttft = long_ttft(&tokenwise_gens);
    let row = |name: &str, ttft: f64, s: &DecodeStatsSnapshot| {
        vec![
            name.to_string(),
            format!("{:.1}", ttft * 1e6),
            format!("{:.1}", s.itl_p95_seconds * 1e6),
            format!("{}", s.prefill_passes),
            format!("{:.0}", s.prefill_tokens_per_second),
            format!("{:.0}%", s.prefill_interleave_occupancy * 100.0),
        ]
    };
    print_table(
        &[
            "prefill",
            "long ttft p95(us)",
            "itl p95(us)",
            "passes",
            "prefill tok/s",
            "interleaved",
        ],
        &[
            row("chunked", chunked_ttft, &chunked),
            row("token-wise", tokenwise_ttft, &tokenwise),
        ],
    );
    let ttft_speedup = tokenwise_ttft / chunked_ttft;
    let itl_ratio = chunked.itl_p95_seconds / tokenwise.itl_p95_seconds;
    println!(
        "\nlong-prompt TTFT: {ttft_speedup:.1}x faster chunked; \
         short-session ITL p95 ratio {itl_ratio:.2}x"
    );
    assert!(
        chunked_ttft <= 0.5 * tokenwise_ttft,
        "chunked TTFT must be <= 0.5x token-wise on {long_prompt}-token prompts, \
         got {chunked_ttft:.6}s vs {tokenwise_ttft:.6}s"
    );
    assert!(
        itl_ratio < 1.2,
        "short-session ITL p95 must regress < 20%, got {itl_ratio:.2}x"
    );
    assert_eq!(chunked.kv_blocks_in_use, 0, "long mix leaked KV blocks");

    // --- 5. multi-device scaling: 1 shard vs 4 homogeneous shards ----------
    // The workload is scaled up 4x so throughput — not one long session's
    // critical path — bounds the cluster.
    let pool_groups = groups * 4;
    println!(
        "\n=== multi-device decode: 1 shard vs 4 homogeneous shards ===\n\
         ({} sessions, every long session force-migrated mid-generation)\n",
        pool_groups * 4
    );
    let (solo_streams, solo) = run_pool(1, pool_groups);
    // The 4-shard run is traced at `TraceConfig::Full`, so its placement,
    // iteration, prefill, decode-step and KV alloc/evict/migrate spans land
    // in the trace buffer for the Chrome-trace export below.
    hidet_trace::global().set_config(hidet_trace::TraceConfig::Full);
    let (pool_streams, pool) = run_pool(4, pool_groups);
    let trace_json = hidet_trace::global().chrome_trace_json();
    hidet_trace::global().set_config(hidet_trace::TraceConfig::MetricsOnly);
    assert_eq!(
        pool_streams, solo_streams,
        "shard placement and live migration must emit bit-identical streams"
    );
    assert!(
        pool.sessions_migrated > 0,
        "the stress knob must force live migrations"
    );
    assert_eq!(pool.kv_blocks_in_use, 0, "shard pool leaked KV blocks");
    for shard in &pool.shards {
        assert_eq!(
            shard.kv_blocks_in_use, 0,
            "shard {} leaked KV blocks",
            shard.device
        );
    }
    let shard_row = |s: &hidet_runtime::DecodeShardSnapshot| {
        vec![
            s.device.clone(),
            format!("{}", s.sessions_placed),
            format!("{}/{}", s.migrations_in, s.migrations_out),
            format!("{}", s.tokens_generated),
            format!("{:.0}", s.tokens_per_second),
        ]
    };
    print_table(
        &["shard", "placed", "migr in/out", "tokens", "tok/s (sim)"],
        &pool.shards.iter().map(shard_row).collect::<Vec<_>>(),
    );
    let scaling = pool.cluster_tokens_per_second / solo.cluster_tokens_per_second;
    println!(
        "\ncluster throughput: {:.0} tok/s on 4 shards vs {:.0} on 1 — {scaling:.2}x \
         ({} live migrations)",
        pool.cluster_tokens_per_second, solo.cluster_tokens_per_second, pool.sessions_migrated
    );
    assert!(
        scaling >= 3.0,
        "4 homogeneous shards must sustain >= 3x one shard's cluster tokens/sec, \
         got {scaling:.2}x"
    );

    // --- Chrome-trace export of the multi-device run ------------------------
    // The export must be the object form Perfetto / `chrome://tracing`
    // load: `displayTimeUnit` plus a `traceEvents` array whose members all
    // carry name/ph/ts/pid/tid.
    let trace_path = PathBuf::from(arg_str("--trace-json", "TRACE_serving_decode.json"));
    let parsed = Json::parse(&trace_json).expect("chrome trace parses as JSON");
    let trace_obj = parsed.as_object("trace").expect("trace is an object");
    let unit = get(trace_obj, "displayTimeUnit")
        .expect("displayTimeUnit")
        .as_str("displayTimeUnit")
        .expect("string");
    assert_eq!(unit, "ns");
    let events = get(trace_obj, "traceEvents")
        .expect("traceEvents")
        .as_array("traceEvents")
        .expect("array");
    assert!(
        !events.is_empty(),
        "the multi-device run must export at least one span"
    );
    for event in events {
        let ev = event.as_object("event").expect("event is an object");
        for key in ["name", "ph", "ts", "pid", "tid"] {
            assert!(get(ev, key).is_ok(), "trace event missing {key}");
        }
    }
    std::fs::write(&trace_path, &trace_json).expect("write trace json");
    println!(
        "\nexported {} trace events to {} (Perfetto-loadable)",
        events.len(),
        trace_path.display()
    );

    // --- perf-trajectory artifact -----------------------------------------
    let section = BenchSection::new("serving_decode")
        .field_usize("sequences", sequences)
        .field_usize("tokens", cont.tokens_generated)
        .field_f64("continuous_tokens_per_s", cont.tokens_per_second)
        .field_f64("static_tokens_per_s", stat.tokens_per_second)
        .field_f64("speedup", speedup)
        .field_f64("occupancy", cont.mean_step_occupancy)
        .field_f64("ttft_p95_us", cont.ttft_p95_seconds * 1e6)
        .field_f64("itl_p95_us", cont.itl_p95_seconds * 1e6)
        .field_usize("steps_continuous", cont.steps)
        .field_usize("steps_static", stat.steps)
        .field_usize("kv_blocks_peak", cont.kv_blocks_peak)
        .field_f64("long_prompt_ttft_p95_us", chunked_ttft * 1e6)
        .field_f64("long_prompt_tokenwise_ttft_us", tokenwise_ttft * 1e6)
        .field_f64("long_prompt_ttft_speedup", ttft_speedup)
        .field_f64("long_mix_itl_p95_us", chunked.itl_p95_seconds * 1e6)
        .field_f64("prefill_tokens_per_s", chunked.prefill_tokens_per_second)
        .field_f64(
            "prefill_interleave_occupancy",
            chunked.prefill_interleave_occupancy,
        )
        .field_usize("prefill_passes", chunked.prefill_passes)
        .field_f64("cluster_tokens_per_s", pool.cluster_tokens_per_second)
        .field_f64("solo_cluster_tokens_per_s", solo.cluster_tokens_per_second)
        .field_f64("shard_scaling", scaling)
        .field_usize("sessions_migrated", pool.sessions_migrated)
        .field_usize("trace_events", events.len())
        .with_trace_metrics();
    upsert_section(&bench_json, &section).expect("write bench json");
    println!(
        "\nwrote section \"serving_decode\" to {}",
        bench_json.display()
    );
    println!("all decode acceptance checks passed");
}
