//! Integration tests of the serving engine: functional correctness through
//! the batching path, cache behavior, tuning-record persistence, error
//! surfaces — all through the v2 `ModelHandle`/`Request` API. Tests of what
//! the batch former decides run on a stepped engine ([`Engine::stepped`])
//! and state it exactly.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use hidet_graph::reference::{self, ValueMap};
use hidet_graph::{Graph, GraphBuilder, Tensor};
use hidet_runtime::{
    Engine, EngineConfig, EngineError, InferenceResult, ModelHandle, ModelSpec, Priority, Request,
    Stepper,
};
use hidet_sim::Gpu;

/// A small two-layer MLP whose inputs scale with the batch dimension.
fn mlp(batch: i64) -> Graph {
    let mut g = GraphBuilder::new("mlp");
    let x = g.input("x", &[batch, 24]);
    let w1 = g.constant(Tensor::randn(&[24, 32], 1));
    let w2 = g.constant(Tensor::randn(&[32, 6], 2));
    let h = g.matmul(x, w1);
    let h = g.relu(h);
    let y = g.matmul(h, w2);
    g.output(y).build()
}

fn sample_input(seed: u64) -> Vec<f32> {
    Tensor::randn(&[1, 24], seed).data().unwrap().to_vec()
}

fn request(seed: u64) -> Request {
    Request::new(vec![sample_input(seed)])
}

/// Ground truth from the reference executor at batch 1.
fn reference_output(input: &[f32]) -> Vec<f32> {
    let graph = mlp(1);
    let mut inputs = ValueMap::new();
    inputs.insert(graph.inputs()[0], input.to_vec());
    let out = reference::execute(&graph, &inputs);
    out[&graph.outputs()[0]].clone()
}

fn quick_config(max_batch: usize) -> EngineConfig {
    EngineConfig {
        max_batch,
        batch_window: Duration::from_millis(25),
        ..EngineConfig::quick()
    }
}

fn quick_engine(max_batch: usize) -> (Engine, ModelHandle) {
    let engine = Engine::new(quick_config(max_batch)).expect("engine starts");
    let model = engine
        .register(ModelSpec::new("mlp", mlp))
        .expect("model registers");
    (engine, model)
}

/// [`quick_engine`]'s stepped twin: nothing runs until the stepper steps.
fn stepped_engine(max_batch: usize) -> (Engine, Stepper, ModelHandle) {
    let (engine, stepper) = Engine::stepped(quick_config(max_batch)).expect("engine starts");
    let model = engine
        .register(ModelSpec::new("mlp", mlp))
        .expect("model registers");
    (engine, stepper, model)
}

/// An instant an hour ahead of the wall clock: a stepped engine's time is
/// whatever its caller says, and deadlines stated from here are never
/// already past when a request is submitted.
fn virtual_start() -> Instant {
    Instant::now() + Duration::from_secs(3600)
}

/// What a test compares of a result: its outputs bit for bit and how it
/// was batched and placed.
fn fingerprint(result: &InferenceResult) -> (Vec<Vec<u32>>, usize, u64, Priority) {
    let outputs = result.outputs.iter();
    let bits = outputs.map(|o| o.iter().map(|v| v.to_bits()).collect());
    let delay = result.queue_delay_seconds.to_bits();
    (bits.collect(), result.batch_size, delay, result.priority)
}

fn unique_temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "hidet-runtime-{tag}-{}-{:?}.json",
        std::process::id(),
        std::thread::current().id()
    ))
}

#[test]
fn single_inference_matches_reference() {
    let (_engine, model) = quick_engine(1);
    let input = sample_input(7);
    let result = model
        .infer(Request::new(vec![input.clone()]))
        .expect("infers");
    assert_eq!(result.batch_size, 1);
    let expect = reference_output(&input);
    assert_eq!(result.outputs.len(), 1);
    for (a, b) in result.outputs[0].iter().zip(&expect) {
        assert!((a - b).abs() < 1e-3 * (1.0 + b.abs()), "{a} vs {b}");
    }
}

#[test]
fn batched_inference_matches_reference_per_request() {
    let (_engine, model) = quick_engine(4);
    let inputs: Vec<Vec<f32>> = (0..4).map(|i| sample_input(100 + i)).collect();
    let results = model.infer_many(
        inputs
            .iter()
            .map(|x| Request::new(vec![x.clone()]))
            .collect(),
    );
    for (input, result) in inputs.iter().zip(results) {
        let result = result.expect("infers");
        let expect = reference_output(input);
        for (a, b) in result.outputs[0].iter().zip(&expect) {
            assert!((a - b).abs() < 1e-3 * (1.0 + b.abs()), "{a} vs {b}");
        }
    }
}

#[test]
fn second_request_hits_compiled_graph_cache() {
    let (engine, model) = quick_engine(1);
    let first = model.infer(request(1)).unwrap();
    let second = model.infer(request(2)).unwrap();
    assert!(!first.compile_cache_hit);
    assert!(second.compile_cache_hit);
    let stats = engine.stats();
    assert_eq!(stats.compile_cache_hits, 1);
    assert_eq!(stats.compile_cache_misses, 1);
    assert_eq!(engine.compiled_graphs(), 1);
}

#[test]
fn same_structure_under_two_names_shares_compile() {
    let (engine, model) = quick_engine(1);
    let alias = engine.register(ModelSpec::new("mlp-alias", mlp)).unwrap();
    model.infer(request(1)).unwrap();
    let aliased = alias.infer(request(2)).unwrap();
    assert!(
        aliased.compile_cache_hit,
        "structural key must ignore names"
    );
    assert_eq!(engine.compiled_graphs(), 1);
}

#[test]
fn burst_is_coalesced_into_batches() {
    let (engine, mut stepper, model) = stepped_engine(8);
    let tickets: Vec<_> = (0..8).map(|i| model.submit(request(i))).collect();
    assert_eq!(
        stepper.step(virtual_start()),
        1,
        "a full group goes at once"
    );
    for ticket in tickets {
        assert_eq!(ticket.wait().expect("infers").batch_size, 8);
    }
    let stats = engine.stats();
    assert_eq!((stats.requests, stats.batches), (8, 1));
    assert_eq!(stats.mean_batch_size, 8.0);
}

#[test]
fn batched_throughput_beats_sequential() {
    // Same 8 requests, dispatched sequentially (max_batch 1) vs batched.
    let run = |max_batch: usize| {
        let (engine, mut stepper, model) = stepped_engine(max_batch);
        let tickets: Vec<_> = (0..8).map(|i| model.submit(request(i))).collect();
        let batches = stepper.step(virtual_start());
        for ticket in tickets {
            ticket.wait().expect("infers");
        }
        assert_eq!(batches, engine.stats().batches);
        engine.stats()
    };
    let (seq, bat) = (run(1), run(8));
    assert_eq!((seq.requests, seq.batches), (8, 8));
    assert_eq!((bat.requests, bat.batches), (8, 1));
    assert!(
        bat.total_simulated_seconds < seq.total_simulated_seconds,
        "batched {}s vs sequential {}s",
        bat.total_simulated_seconds,
        seq.total_simulated_seconds
    );
    assert!(bat.simulated_throughput_rps > seq.simulated_throughput_rps);
}

#[test]
fn tuning_records_roundtrip_across_processes() {
    let path = unique_temp_path("records");
    let _ = std::fs::remove_file(&path);

    // "Process" 1: tuned engine, cold records.
    let config = EngineConfig {
        max_batch: 1,
        tuning_records_path: Some(path.clone()),
        ..EngineConfig::default() // tuned options
    };
    let engine = Engine::new(config.clone()).unwrap();
    let model = engine.register(ModelSpec::new("mlp", mlp)).unwrap();
    model.infer(request(1)).unwrap();
    let cold = engine.stats();
    assert!(cold.tuning_trials_run > 0, "cold start must tune");
    assert_eq!(cold.tuning_trials_saved, 0);
    engine.shutdown().unwrap();
    assert!(path.exists(), "shutdown persists records");

    // "Process" 2: same record file, fresh engine (empty compiled cache).
    let engine = Engine::new(config).unwrap();
    let model = engine.register(ModelSpec::new("mlp", mlp)).unwrap();
    let result = model.infer(request(2)).unwrap();
    assert!(
        !result.compile_cache_hit,
        "fresh process has no compiled graphs"
    );
    let warm = engine.stats();
    assert_eq!(warm.tuning_trials_run, 0, "warm start must not tune");
    assert!(warm.tuning_seconds_run == 0.0);
    assert_eq!(warm.tuning_trials_saved, cold.tuning_trials_run);
    engine.shutdown().unwrap();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn warmup_precompiles_off_the_request_path() {
    let (_engine, model) = quick_engine(4);
    assert!(!model.warmup(1).unwrap());
    assert!(model.warmup(1).unwrap());
    let result = model.infer(request(5)).unwrap();
    assert!(result.compile_cache_hit);
}

#[test]
fn unknown_model_and_bad_input_are_reported() {
    let (engine, model) = quick_engine(2);
    // A handle whose model was never registered under that name cannot
    // exist; unknown-model surfaces through an unloaded handle.
    let ghost = engine.register(ModelSpec::new("ghost", mlp)).unwrap();
    ghost.unload();
    match ghost.infer(Request::new(vec![vec![0.0; 24]])) {
        Err(EngineError::UnknownModel(name)) => assert_eq!(name, "ghost"),
        other => panic!("expected UnknownModel, got {other:?}"),
    }
    match model.infer(Request::new(vec![vec![0.0; 7]])) {
        Err(EngineError::BadInput(msg)) => assert!(msg.contains("expected 24"), "{msg}"),
        other => panic!("expected BadInput, got {other:?}"),
    }
    match model.infer(Request::new(vec![])) {
        Err(EngineError::BadInput(_)) => {}
        other => panic!("expected BadInput, got {other:?}"),
    }
    // A bad request must not poison concurrent good ones.
    let good = model.infer(request(3)).unwrap();
    assert_eq!(good.outputs[0].len(), 6);
    assert_eq!(engine.stats().failures, 3);
}

#[test]
fn registering_an_empty_name_is_rejected() {
    let engine = Engine::new(EngineConfig::quick()).unwrap();
    match engine.register(ModelSpec::new("", mlp)) {
        Err(EngineError::BadInput(_)) => {}
        other => panic!("expected BadInput, got {other:?}"),
    }
}

#[test]
fn unbatched_models_never_coalesce() {
    // Transformer-style models fold batch into the sequence axis, so
    // coalescing would mix requests; `ModelSpec::unbatched` must pin them to
    // batch-1 dispatch even under a burst with batching enabled — and with
    // no straggler window to wait out.
    let (engine, mut stepper) = Engine::stepped(quick_config(8)).expect("engine starts");
    let solo = engine
        .register(ModelSpec::new("mlp-solo", mlp).unbatched())
        .unwrap();
    let tickets: Vec<_> = (0..4).map(|i| solo.submit(request(i))).collect();
    assert_eq!(stepper.step(virtual_start()), 4);
    for ticket in tickets {
        let result = ticket.wait().expect("infers");
        assert_eq!(result.batch_size, 1, "unbatched model was coalesced");
    }
    let stats = engine.stats();
    assert_eq!((stats.requests, stats.batches), (4, 4));
}

#[test]
fn stepped_and_threaded_engines_answer_a_burst_bit_identically() {
    // A window far longer than the burst takes to submit: the threaded
    // dispatcher, too, forms exactly one batch of 8 — the moment it fills.
    let config = EngineConfig {
        batch_window: Duration::from_secs(60),
        ..quick_config(8)
    };
    let threaded = {
        let engine = Engine::new(config.clone()).expect("engine starts");
        let model = engine.register(ModelSpec::new("mlp", mlp)).unwrap();
        let results = model.infer_many((0..8).map(request).collect());
        let results: Vec<_> = results
            .iter()
            .map(|r| fingerprint(r.as_ref().unwrap()))
            .collect();
        (results, engine.stats())
    };
    let stepped = {
        let (engine, mut stepper) = Engine::stepped(config).expect("engine starts");
        let model = engine.register(ModelSpec::new("mlp", mlp)).unwrap();
        let tickets: Vec<_> = (0..8).map(|i| model.submit(request(i))).collect();
        stepper.step(virtual_start());
        let results = tickets.into_iter().map(|t| fingerprint(&t.wait().unwrap()));
        (results.collect::<Vec<_>>(), engine.stats())
    };
    assert_eq!(stepped.0, threaded.0, "same batches, same bits");
    assert!(stepped.0.iter().all(|(_, batch, _, _)| *batch == 8));
    assert_eq!(stepped.1, threaded.1);
}

#[test]
fn a_stepped_engine_replays_its_script_exactly() {
    // Two shards, three classes, a window cut short by higher-class
    // traffic, a deadline that passes in the queue: run twice, every answer
    // and the whole stats snapshot agree.
    let run = || {
        let (engine, mut stepper) = Engine::stepped(EngineConfig {
            devices: vec![hidet_sim::GpuSpec::rtx3090(); 2],
            workers: 1,
            max_batch: 4,
            batch_window: Duration::from_millis(10),
            ..EngineConfig::quick()
        })
        .expect("engine starts");
        let model = engine.register(ModelSpec::new("mlp", mlp)).unwrap();
        let t0 = virtual_start();
        let mut tickets = vec![model.submit(request(0).best_effort())];
        assert_eq!(stepper.step(t0), 0, "the lone request is held");
        tickets.extend((1..7).map(|i| model.submit(request(i).high())));
        tickets.push(model.submit(request(7).with_deadline(t0 + Duration::from_millis(3))));
        tickets.extend((8..10).map(|i| model.submit(request(i))));
        let mut placed = vec![stepper.step(t0 + Duration::from_millis(1))];
        placed.push(stepper.step(t0 + Duration::from_millis(5)));
        placed.push(stepper.step(t0 + Duration::from_millis(20)));
        placed.push(stepper.step(t0 + Duration::from_millis(30)));
        let answers: Vec<_> = tickets
            .into_iter()
            .map(|t| t.wait().map(|r| fingerprint(&r)))
            .collect();
        (placed, answers, engine.stats())
    };
    let (first, second) = (run(), run());
    assert_eq!(first.1, second.1);
    assert_eq!(first.2, second.2);
    // The held best-effort request, then a full high batch; the rest of the
    // high class is held until its window ends, then the normal requests
    // until theirs.
    assert_eq!(first.0, [2, 0, 1, 1]);
    assert_eq!(first.1[7], Err(EngineError::DeadlineExceeded));
    assert_eq!((first.2.requests, first.2.deadline_expired), (9, 1));
}

#[test]
fn adopted_tuning_cache_still_absorbs_records_file() {
    // A shared in-memory cache plus a records path: the file must be merged
    // in at startup, not silently overwritten at shutdown.
    let path = unique_temp_path("adopted");
    let _ = std::fs::remove_file(&path);

    let warm = EngineConfig {
        max_batch: 1,
        tuning_records_path: Some(path.clone()),
        ..EngineConfig::default()
    };
    let engine = Engine::new(warm.clone()).unwrap();
    let model = engine.register(ModelSpec::new("mlp", mlp)).unwrap();
    model.infer(request(1)).unwrap();
    engine.shutdown().unwrap();
    let persisted = hidet_sched::TuningCache::load(&path).unwrap().len();
    assert!(persisted > 0);

    // Second engine adopts its own (empty) shared cache AND names the path.
    let shared = std::sync::Arc::new(std::sync::Mutex::new(hidet_sched::TuningCache::new()));
    let config = EngineConfig {
        options: hidet::CompilerOptions::tuned().with_tuning_cache(shared.clone()),
        ..warm
    };
    let engine = Engine::new(config).unwrap();
    let model = engine.register(ModelSpec::new("mlp", mlp)).unwrap();
    model.infer(request(2)).unwrap();
    let stats = engine.stats();
    assert_eq!(stats.tuning_trials_run, 0, "merged records must warm-start");
    engine.shutdown().unwrap();
    assert!(
        hidet_sched::TuningCache::load(&path).unwrap().len() >= persisted,
        "shutdown must not lose previously persisted records"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn tuned_compile_failure_is_typed_and_workers_survive() {
    // A device too small for any matmul schedule: tuned compiles must fail
    // with EngineError::Compile (not a tuner panic that kills the worker),
    // and the pool must keep serving.
    let engine = Engine::new(EngineConfig {
        devices: vec![hidet_sim::GpuSpec {
            shared_mem_per_block: 1,
            ..hidet_sim::GpuSpec::tiny()
        }],
        workers: 1,
        max_batch: 1,
        ..EngineConfig::default() // tuned options
    })
    .expect("engine starts");
    let model = engine.register(ModelSpec::new("mlp", mlp)).unwrap();
    for attempt in 0..3 {
        match model.infer(request(attempt)) {
            Err(EngineError::Compile(e)) => {
                assert!(e.to_string().contains("no matmul schedule"), "{e}");
            }
            other => panic!("attempt {attempt}: expected Compile error, got {other:?}"),
        }
    }
    assert_eq!(
        engine.stats().failures,
        3,
        "every request got a typed reply"
    );
}

#[test]
fn dropped_engine_flushes_tuning_records() {
    // Dropping the engine without an explicit `shutdown()` must still
    // persist tuning records — that's the only exit path a panicking or
    // careless caller takes.
    let path = unique_temp_path("drop-flush");
    let _ = std::fs::remove_file(&path);
    {
        let engine = Engine::new(EngineConfig {
            max_batch: 1,
            tuning_records_path: Some(path.clone()),
            ..EngineConfig::default() // tuned options
        })
        .unwrap();
        let model = engine.register(ModelSpec::new("mlp", mlp)).unwrap();
        model.infer(request(1)).unwrap();
        drop(model);
        // no shutdown()
    }
    assert!(path.exists(), "Drop must flush tuning records");
    assert!(!hidet_sched::TuningCache::load(&path).unwrap().is_empty());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn panicking_caller_keeps_tuning_records() {
    // A panic unwinding through the engine owner still persists records:
    // Drop flushes before joining threads.
    let path = unique_temp_path("panic-flush");
    let _ = std::fs::remove_file(&path);
    let config = EngineConfig {
        max_batch: 1,
        tuning_records_path: Some(path.clone()),
        ..EngineConfig::default() // tuned options
    };
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let engine = Engine::new(config).unwrap();
        let model = engine.register(ModelSpec::new("mlp", mlp)).unwrap();
        model.infer(request(1)).unwrap();
        panic!("caller blew up after tuning");
    }));
    assert!(result.is_err(), "the panic must propagate");
    assert!(path.exists(), "records survive a panicking caller");
    assert!(!hidet_sched::TuningCache::load(&path).unwrap().is_empty());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn model_zoo_builders_plug_in_directly() {
    // The registry contract is exactly the zoo's `fn(batch) -> Graph` shape.
    // Compile-only (`warmup`): functionally interpreting a full transformer
    // on the simulated GPU is minutes of debug-build work, and the batching
    // path's functional correctness is covered by the MLP tests above.
    let engine = Engine::new(EngineConfig {
        max_batch: 2,
        batch_window: Duration::from_millis(10),
        ..EngineConfig::quick()
    })
    .unwrap();
    // Transformers fold batch into the sequence axis → never coalesce them.
    let gpt2 = engine
        .register(ModelSpec::new("gpt2", |b| hidet_graph::models::gpt2(b, 32)).unbatched())
        .unwrap();
    assert!(!gpt2.warmup(1).unwrap(), "first compile is a miss");
    assert!(gpt2.warmup(1).unwrap(), "second compile is a hit");
    assert_eq!(engine.compiled_graphs(), 1);
}

#[test]
fn engine_run_equals_direct_compile_run() {
    // The batching path must be a pure refactor of compile+run.
    let (_engine, model) = quick_engine(2);
    let input = sample_input(42);
    let via_engine = model.infer(Request::new(vec![input.clone()])).unwrap();

    let graph = mlp(1);
    let gpu = Gpu::default();
    let compiled = hidet::compile(&graph, &gpu, &hidet::CompilerOptions::quick()).unwrap();
    let mut inputs = HashMap::new();
    inputs.insert(graph.inputs()[0], input);
    let direct = compiled.run(&inputs, &gpu).unwrap();
    let direct_out = &direct[&graph.outputs()[0]];
    for (a, b) in via_engine.outputs[0].iter().zip(direct_out) {
        assert!((a - b).abs() < 1e-5, "{a} vs {b}");
    }
}

#[test]
fn v2_handles_cover_the_retired_v1_surface() {
    // The five v1 free functions (load / load_unbatched / warmup / submit_with
    // / infer*) are gone; this pins their replacements: every former entry
    // point maps onto ModelSpec + ModelHandle + the Request builder.
    let engine = Engine::new(EngineConfig {
        max_batch: 2,
        batch_window: Duration::from_millis(10),
        ..EngineConfig::quick()
    })
    .unwrap();
    let handle = engine.register(ModelSpec::new("mlp", mlp)).unwrap(); // was `load`
    handle.warmup(1).unwrap(); // was `Engine::warmup`
    let direct = handle.infer(request(1)).unwrap(); // was `Engine::infer`
    assert_eq!(direct.outputs[0].len(), 6);
    let opted = handle // was `infer_with` + SubmitOptions
        .infer(
            Request::new(vec![sample_input(2)])
                .high()
                .with_timeout(Duration::from_secs(5)),
        )
        .unwrap();
    assert_eq!(opted.priority, hidet_runtime::Priority::High);
    let many = handle.infer_many(vec![request(3), request(4)]); // was `Engine::infer_many`
    assert!(many.iter().all(|r| r.is_ok()));
    // was `load_unbatched`: the batching mode now lives on the spec.
    let solo = engine
        .register(ModelSpec::new("mlp_solo", mlp).unbatched())
        .unwrap();
    let result = solo.infer(request(5)).unwrap();
    assert_eq!(result.batch_size, 1);
}
