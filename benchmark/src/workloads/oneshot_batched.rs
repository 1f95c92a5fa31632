//! `oneshot_batched` — in-process `Engine`, one generator thread standing
//! for 8 closed-loop callers that submit and wait in lock-step waves.
//!
//! Two RTX 3090 shards with one worker each, tuned compiles, batches of up
//! to 8. Set-up registers `head` and `cnn_block` and warms batch 1 and 8
//! (tuning lands in `setup_s`). The body sends all `head` requests, then all
//! `cnn_block` requests. This uses the interpreter differently from decode —
//! tuned, larger-tile, batch-8 matmul and implicit-GEMM conv kernels — and
//! is the only workload where the runtime's batcher, compiled cache and
//! shard placement carry load.

use std::time::Instant;

use hidet::CompilerOptions;
use hidet_runtime::{
    Engine, EngineConfig, InferenceResult, ModelHandle, ModelSpec, Request, StatsSnapshot, Ticket,
};
use hidet_sim::{Gpu, GpuSpec};

use crate::gen;
use crate::harness::{self, Ctx, EndToEnd, Segments, TracedWalls};
use crate::models::{self, close, reference_outputs};
use crate::outcome::{Checks, Outcome};
use crate::probes;
use crate::spans::SpanCollector;
use crate::stats::Summary;
use crate::workloads::zoo_compile::kernel_nodes;

/// Virtual callers: requests in flight per wave — one full batch, so one
/// shard worker interprets at a time. Two busy threads would make the wall
/// depend on how much of a core the sandbox's second vCPU is delivering at
/// that minute (between nothing and all of it) rather than on the code.
const CALLERS: usize = 8;

struct Env {
    engine: Engine,
    head: ModelHandle,
    cnn: ModelHandle,
}

fn setup() -> Env {
    let engine = Engine::new(EngineConfig {
        devices: vec![GpuSpec::rtx3090(); 2],
        workers: 1,
        ..EngineConfig::default()
    })
    .expect("engine starts");
    let head = engine
        .register(ModelSpec::new("head", models::head))
        .expect("head registers");
    let cnn = engine
        .register(ModelSpec::new("cnn_block", models::cnn_block))
        .expect("cnn_block registers");
    for batch in [1, 8] {
        head.warmup(batch).expect("head warms up");
        cnn.warmup(batch).expect("cnn_block warms up");
    }
    Env { engine, head, cnn }
}

/// One body's observations.
struct Rep {
    wall_s: f64,
    /// Per request, in submission order (`head` first): the engine's answer.
    results: Vec<Result<InferenceResult, String>>,
    /// Per request: host ms from `submit` to `wait` returning.
    latency_ms: Vec<f64>,
    /// Per request: host µs `submit` itself took.
    submit_us: Vec<f64>,
    stats: StatsSnapshot,
}

fn body(env: Env, head_inputs: &[Vec<f32>], cnn_inputs: &[Vec<f32>], pieces: &mut Segments) -> Rep {
    let total = head_inputs.len() + cnn_inputs.len();
    let mut results = Vec::with_capacity(total);
    let mut latency_ms = Vec::with_capacity(total);
    let mut submit_us = Vec::with_capacity(total);
    let start = Instant::now();
    for (class, model, inputs) in [
        ("head_wave", &env.head, head_inputs),
        ("cnn_wave", &env.cnn, cnn_inputs),
    ] {
        // The callers move in lock-step waves: all submit, all wait. With
        // the workers idle while a wave is submitted, the dispatcher always
        // sees the whole wave inside its batch window, so batch formation —
        // and with it the number of kernel launches — does not depend on how
        // the host schedules the generator against a busy worker.
        for wave in inputs.chunks(CALLERS) {
            let wave_start = Instant::now();
            let tickets: Vec<(Instant, Ticket)> = wave
                .iter()
                .map(|input| {
                    let request = Request::new(vec![input.clone()]);
                    let submitted = Instant::now();
                    let ticket = model.submit(request);
                    submit_us.push(submitted.elapsed().as_secs_f64() * 1e6);
                    (submitted, ticket)
                })
                .collect();
            for (submitted, ticket) in tickets {
                results.push(ticket.wait().map_err(|e| e.to_string()));
                latency_ms.push(submitted.elapsed().as_secs_f64() * 1e3);
            }
            pieces.push(class, wave_start.elapsed().as_secs_f64());
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    pieces.end_rep();
    let stats = env.engine.stats();
    drop(env);
    Rep {
        wall_s,
        results,
        latency_ms,
        submit_us,
        stats,
    }
}

/// Every answer against the host reference executor's answer for the same
/// input on the batch-1 graph: batching and sharding must be invisible.
fn check_rep(rep: &Rep, want: &[Vec<Vec<f32>>], checks: &mut Checks) {
    for (i, (result, want)) in rep.results.iter().zip(want).enumerate() {
        let ok = result.as_ref().is_ok_and(|r| {
            r.outputs.len() == want.len() && r.outputs.iter().zip(want).all(|(g, w)| close(g, w))
        });
        checks.check(ok, || match result {
            Ok(_) => format!("request {i}: output differs from the reference executor"),
            Err(e) => format!("request {i}: {e}"),
        });
    }
    checks.check(rep.results.len() == want.len(), || {
        format!("{} answers for {} requests", rep.results.len(), want.len())
    });
}

/// The engine's counters (source **S**), shared with `wire_mixed`.
pub fn set_runtime_counts(outcome: &mut Outcome, s: &StatsSnapshot) {
    outcome.set_value("runtime.batches", s.batches as f64);
    outcome.set_value("runtime.mean_batch", s.mean_batch_size);
    let lookups = s.compile_cache_hits + s.compile_cache_misses;
    outcome.set_value(
        "runtime.cache_hit_share",
        if lookups == 0 {
            0.0
        } else {
            s.compile_cache_hits as f64 / lookups as f64
        },
    );
    outcome.set_value("runtime.shed", s.shed_requests as f64);
    outcome.set_value("runtime.deadline_expired", s.deadline_expired as f64);
    // Busiest shard's dispatched batches over the even share, minus one.
    let busiest = s
        .shards
        .iter()
        .map(|sh| sh.dispatched_batches)
        .max()
        .unwrap_or(0);
    let dispatched: usize = s.shards.iter().map(|sh| sh.dispatched_batches).sum();
    outcome.set_value(
        "runtime.shard_dispatch_imbalance",
        if dispatched == 0 {
            0.0
        } else {
            busiest as f64 * s.shards.len() as f64 / dispatched as f64 - 1.0
        },
    );
}

/// Probes: the interpreter on the batch-8 plans (compiled with the engine's
/// own default options through the public compiler).
fn set_probe_metrics(outcome: &mut Outcome, seed: u64) {
    let gpu = Gpu::new(GpuSpec::rtx3090());
    let options = CompilerOptions::tuned();
    let head = hidet::compile(&models::head(8), &gpu, &options).expect("head compiles");
    let cnn = hidet::compile(&models::cnn_block(8), &gpu, &options).expect("cnn_block compiles");
    let head_probe = probes::interp_probe(head.plan(), &gpu, seed);
    outcome.set("core.run_prepared_ms", head_probe.run_s.scaled(1e3));
    let cnn_probe = probes::interp_probe(cnn.plan(), &gpu, seed);
    probes::set_interp_metrics(outcome, &[head_probe, cnn_probe]);
    outcome.set_value(
        "ir.kernel_nodes",
        (kernel_nodes(&head) + kernel_nodes(&cnn)) as f64,
    );
    outcome.set_value(
        "core.kernels",
        (head.num_kernels() + cnn.num_kernels()) as f64,
    );
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut outcome = ctx.outcome("oneshot_batched");
    let (head_inputs, cnn_inputs) = gen::oneshot_inputs(ctx.seed);
    let requests = head_inputs.len() + cnn_inputs.len();
    outcome.note(
        "engine",
        "devices=2x rtx3090, workers=1 per device, tuned compiles, max_batch=8 (EngineConfig::default otherwise)",
    );
    outcome.note(
        "models",
        "head (MLP 64-128-16), cnn_block (conv-bn-relu 4->8 3x3 on 12x12, gap, linear->4)",
    );
    outcome.note("head_requests", head_inputs.len());
    outcome.note("cnn_block_requests", cnn_inputs.len());
    outcome.note(
        "callers",
        format!("{CALLERS}, closed loop in lock-step waves"),
    );
    outcome.note("work_item", "one completed request");
    outcome.note("latency_sample", "one ticket, submit to wait() returning");
    outcome.note(
        "pieces",
        "body: head_wave, cnn_wave (8 requests = one batch each); set-up: setup",
    );
    let mut checks = Checks::default();

    let mut setup_pieces = Segments::default();
    let mut pieces = Segments::default();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.is_empty() || ctx.wants_more(reps.iter().map(|r| r.wall_s).sum()) {
        let env = setup_pieces.time("setup", setup);
        setup_pieces.end_rep();
        reps.push(body(env, &head_inputs, &cnn_inputs, &mut pieces));
    }
    harness::top_up_setups(&mut setup_pieces, 5, |pieces| {
        drop(pieces.time("setup", setup));
    });

    let latencies: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.latency_ms.iter().copied())
        .collect();
    harness::set_end_to_end(
        &mut outcome,
        EndToEnd {
            reps: reps.len(),
            work_items: requests as f64,
            body_s: pieces.undisturbed(),
            latency_ms: &latencies,
            setup_s: setup_pieces.undisturbed(),
        },
    );
    // As measured, beside the undisturbed numbers.
    let rates: Vec<f64> = reps.iter().map(|r| requests as f64 / r.wall_s).collect();
    outcome.set("host_requests_per_s", Summary::of(&rates));
    outcome.set("host_latency_p50_ms", Summary::of(&latencies));
    let sim_rates: Vec<f64> = reps
        .iter()
        .map(|r| r.stats.cluster_throughput_rps)
        .collect();
    outcome.set("sim_requests_per_s", Summary::of(&sim_rates));
    let submits: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.submit_us.iter().copied())
        .collect();
    outcome.set("runtime.submit_us", Summary::of(&submits));
    set_runtime_counts(&mut outcome, &reps[0].stats);

    let head_graph = models::head(1);
    let cnn_graph = models::cnn_block(1);
    let want: Vec<Vec<Vec<f32>>> = head_inputs
        .iter()
        .map(|x| reference_outputs(&head_graph, std::slice::from_ref(x)))
        .chain(
            cnn_inputs
                .iter()
                .map(|x| reference_outputs(&cnn_graph, std::slice::from_ref(x))),
        )
        .collect();
    for rep in &reps {
        check_rep(rep, &want, &mut checks);
    }

    if ctx.traced {
        let env = setup();
        let mut traced_pieces = Segments::default();
        let collector = SpanCollector::start();
        let traced = body(env, &head_inputs, &cnn_inputs, &mut traced_pieces);
        let trace = collector.finish();
        check_rep(&traced, &want, &mut checks);
        harness::set_trace_metrics(
            &mut outcome,
            &trace,
            TracedWalls {
                traced_s: traced.wall_s,
                traced_undisturbed_s: traced_pieces.undisturbed(),
                untraced_undisturbed_s: pieces.undisturbed(),
            },
            Some("sim.interp_ms_per_launch.oneshot"),
        );
        harness::write_chrome_trace("oneshot_batched", &trace);
        set_probe_metrics(&mut outcome, ctx.seed);
    }

    outcome.checks = checks;
    outcome
}
