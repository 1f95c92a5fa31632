//! Integration tests of the sharded serving path: multi-device placement,
//! priority/deadline-aware batching and admission control. Tests of what
//! the batch former decides run on a stepped engine ([`Engine::stepped`])
//! at instants an hour ahead of the wall clock, so a deadline stated from
//! them is never already past at submission.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use hidet_graph::{Graph, GraphBuilder, Tensor};
use hidet_runtime::{Engine, EngineConfig, EngineError, ModelSpec, Priority, Request, Ticket};
use hidet_sim::GpuSpec;

/// A mid-size MLP: big enough that a batch takes real wall time to interpret
/// (so queues actually build up under bursts), small enough for CI.
fn mlp(batch: i64) -> Graph {
    let mut g = GraphBuilder::new("mlp");
    let x = g.input("x", &[batch, 32]);
    let w1 = g.constant(Tensor::randn(&[32, 48], 1));
    let w2 = g.constant(Tensor::randn(&[48, 8], 2));
    let h = g.matmul(x, w1);
    let h = g.relu(h);
    let y = g.matmul(h, w2);
    g.output(y).build()
}

fn sample(seed: u64) -> Request {
    Request::new(vec![Tensor::randn(&[1, 32], seed).data().unwrap().to_vec()])
}

#[test]
fn sharded_engine_uses_every_device() {
    let engine = Engine::new(EngineConfig {
        devices: vec![GpuSpec::rtx3090(), GpuSpec::rtx3090()],
        workers: 1,
        max_batch: 1, // every request is its own batch -> placement decides
        ..EngineConfig::quick()
    })
    .expect("engine starts");
    let model = engine.register(ModelSpec::new("mlp", mlp)).unwrap();
    model.warmup(1).unwrap();
    for r in model.infer_many((0..12).map(sample).collect()) {
        r.expect("request served");
    }
    let stats = engine.stats();
    assert_eq!(stats.requests, 12);
    assert_eq!(stats.shards.len(), 2);
    for shard in &stats.shards {
        assert!(
            shard.dispatched_batches > 0,
            "shard {} never used: {stats:?}",
            shard.id
        );
        assert!(shard.busy_seconds > 0.0);
    }
    assert_eq!(
        stats.shards.iter().map(|s| s.requests).sum::<usize>(),
        stats.requests
    );
    // The pool finishes before a single device would have.
    assert!(stats.makespan_seconds < stats.total_simulated_seconds);
    assert!(stats.cluster_throughput_rps > stats.simulated_throughput_rps);
}

#[test]
fn homogeneous_shards_share_compiled_graphs() {
    let engine = Engine::new(EngineConfig {
        devices: vec![GpuSpec::rtx3090(); 3],
        ..EngineConfig::quick()
    })
    .unwrap();
    let model = engine.register(ModelSpec::new("mlp", mlp)).unwrap();
    // One compile serves all three shards: warmup touches each device but
    // the cache key (structure x fingerprint x options) is identical.
    assert!(!model.warmup(1).unwrap());
    assert_eq!(engine.compiled_graphs(), 1);
    assert_eq!(engine.stats().compile_cache_misses, 1);
    assert!(model.warmup(1).unwrap());
    assert_eq!(engine.stats().shards.len(), 3);
}

#[test]
fn mixed_pool_compiles_per_device_and_prefers_the_faster_one() {
    let (engine, mut stepper) = Engine::stepped(EngineConfig {
        devices: vec![GpuSpec::tiny(), GpuSpec::rtx3090()],
        workers: 1,
        max_batch: 1,
        ..EngineConfig::quick()
    })
    .unwrap();
    let model = engine.register(ModelSpec::new("mlp", mlp)).unwrap();
    // Distinct fingerprints -> one compile per device.
    assert!(!model.warmup(1).unwrap());
    assert_eq!(engine.compiled_graphs(), 2);

    // Sixteen batches placed in one step, each against the estimates of
    // those placed before it.
    let tickets: Vec<_> = (0..16).map(|i| model.submit(sample(i))).collect();
    assert_eq!(stepper.step(Instant::now()), 16);
    for ticket in tickets {
        ticket.wait().expect("request served");
    }
    let stats = engine.stats();
    let tiny = &stats.shards[0];
    let fast = &stats.shards[1];
    assert!(
        fast.requests > tiny.requests,
        "least-queue-delay placement must favor the faster device: {} vs {}",
        fast.requests,
        tiny.requests
    );
}

#[test]
fn high_priority_sojourn_beats_best_effort_under_backlog() {
    let (engine, mut stepper) = Engine::stepped(EngineConfig {
        devices: vec![GpuSpec::rtx3090()],
        workers: 1,
        max_batch: 4,
        batch_window: Duration::from_millis(40),
        ..EngineConfig::quick()
    })
    .unwrap();
    let model = engine.register(ModelSpec::new("mlp", mlp)).unwrap();
    model.warmup(1).unwrap();
    model.warmup(4).unwrap();

    // A plug request opens a straggler window; the burst lands inside it,
    // so the batch former sees both classes queued at once. The plug's
    // partial batch goes first (inversion bounded by one partial batch),
    // then every high batch before any best-effort one.
    let t0 = Instant::now() + Duration::from_secs(3600);
    let plug = model.submit(sample(0));
    assert_eq!(stepper.step(t0), 0, "the plug is held for stragglers");
    let mut best_effort = Vec::new();
    let mut high = Vec::new();
    for i in 0..16 {
        best_effort.push(model.submit(sample(100 + i).best_effort()));
        high.push(model.submit(sample(200 + i).high()));
    }
    assert_eq!(stepper.step(t0 + Duration::from_millis(1)), 1 + 4 + 4);
    let plug = plug.wait().expect("plug served");
    assert_eq!((plug.batch_size, plug.queue_delay_seconds), (1, 0.0));
    // One lane: a batch's queue delay at placement grows with its place in
    // line, so delays order the placements.
    let delays = |tickets: Vec<Ticket>, class: Priority| -> Vec<f64> {
        let results = tickets.into_iter().map(|t| t.wait().expect("served"));
        let results = results.inspect(|r| assert_eq!(r.priority, class));
        results.map(|r| r.queue_delay_seconds).collect()
    };
    let high = delays(high, Priority::High);
    let best_effort = delays(best_effort, Priority::BestEffort);
    let first_high = high.iter().copied().fold(f64::INFINITY, f64::min);
    let last_high = high.iter().copied().fold(0.0, f64::max);
    let first_best_effort = best_effort.iter().copied().fold(f64::INFINITY, f64::min);
    assert!(
        first_high > 0.0 && last_high < first_best_effort,
        "placement order plug, high, best-effort: {high:?} vs {best_effort:?}"
    );

    let stats = engine.stats();
    let h = &stats.priorities[Priority::High.index()];
    let be = &stats.priorities[Priority::BestEffort.index()];
    assert_eq!((h.requests, be.requests, stats.batches), (16, 16, 9));
    assert!(
        h.p95_latency_seconds < be.p95_latency_seconds,
        "high p95 {} must beat best-effort p95 {}",
        h.p95_latency_seconds,
        be.p95_latency_seconds
    );
}

#[test]
fn overload_sheds_with_queue_full_and_never_high_before_best_effort() {
    let engine = Engine::new(EngineConfig {
        devices: vec![GpuSpec::rtx3090()],
        workers: 1,
        max_batch: 1,
        max_inflight: 8,
        ..EngineConfig::quick()
    })
    .unwrap();
    let model = engine.register(ModelSpec::new("mlp", mlp)).unwrap();
    model.warmup(1).unwrap();

    // 2x overload: 32 requests against an in-flight budget of 8, submitted
    // faster than one worker can drain them.
    let tickets: Vec<_> = (0..16)
        .flat_map(|i| {
            [
                model.submit(sample(i).best_effort()),
                model.submit(sample(100 + i).high()),
            ]
        })
        .collect();
    let mut shed = 0;
    for t in tickets {
        match t.wait() {
            Ok(_) => {}
            Err(EngineError::QueueFull(msg)) => {
                assert!(msg.contains("in flight"), "{msg}");
                shed += 1;
            }
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }
    let stats = engine.stats();
    assert!(shed > 0, "2x overload must shed");
    assert_eq!(stats.shed_requests, shed);
    assert_eq!(stats.failures, shed);
    let be_shed = stats.priorities[Priority::BestEffort.index()].shed_requests;
    let high_shed = stats.priorities[Priority::High.index()].shed_requests;
    assert!(be_shed > 0, "best-effort is shed first");
    assert!(
        high_shed == 0 || be_shed >= high_shed,
        "high ({high_shed}) must never be shed before best-effort ({be_shed})"
    );
    // Per-shard shed attribution adds up to the engine-wide counter.
    assert_eq!(
        stats.shards.iter().map(|s| s.shed_requests).sum::<usize>(),
        stats.shed_requests
    );
}

#[test]
fn delay_bound_sheds_when_the_pool_is_backed_up() {
    let engine = Engine::new(EngineConfig {
        devices: vec![GpuSpec::rtx3090()],
        workers: 1,
        max_batch: 1,
        admission_delay_bound: Some(Duration::from_nanos(100)),
        ..EngineConfig::quick()
    })
    .unwrap();
    // The model's first build waits for the gate, holding the first batch
    // on the single worker: placed, so counted in the shard's queue delay,
    // until the test opens the gate — however fast the host interprets it.
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let held = Arc::clone(&gate);
    let model = engine
        .register(ModelSpec::new("gated", move |batch| {
            let (open, opened) = &*held;
            let _open = opened.wait_while(open.lock().unwrap(), |open| !*open);
            mlp(batch)
        }))
        .unwrap();

    // The first request is admitted against an idle pool; with its batch in
    // flight, the estimated queue delay exceeds the (tiny) bound even at
    // high priority's 4x slack, so later traffic is shed with the typed
    // delay verdict.
    let busy = model.submit(sample(0));
    while engine.estimated_queue_delay_seconds() == 0.0 {
        std::thread::sleep(Duration::from_millis(1)); // until it is placed
    }
    match model.infer(sample(99).high()) {
        Err(EngineError::QueueFull(msg)) => assert!(msg.contains("queue delay"), "{msg}"),
        other => panic!("expected delay-based shed, got {other:?}"),
    }
    *gate.0.lock().unwrap() = true;
    gate.1.notify_all();
    busy.wait().expect("the first request saw an idle pool");
    assert_eq!(engine.stats().shed_requests, 1);
}

#[test]
fn expired_deadline_at_submit_is_rejected_immediately() {
    let engine = Engine::new(EngineConfig::quick()).unwrap();
    let model = engine.register(ModelSpec::new("mlp", mlp)).unwrap();
    let expired = sample(1).with_deadline(Instant::now() - Duration::from_millis(1));
    match model.infer(expired) {
        Err(EngineError::DeadlineExceeded) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    let stats = engine.stats();
    assert_eq!(stats.deadline_expired, 1);
    assert_eq!(stats.requests, 0, "expired request must not execute");
    assert_eq!(stats.batches, 0);
}

#[test]
fn deadline_expiring_in_queue_never_reaches_a_worker() {
    // max_batch 8: a lone request is held for companions, its deadline
    // passes while queued, and the batch former answers it without
    // executing anything.
    let window = Duration::from_millis(10);
    let (engine, mut stepper) = Engine::stepped(EngineConfig {
        devices: vec![GpuSpec::rtx3090()],
        workers: 1,
        max_batch: 8,
        batch_window: window,
        ..EngineConfig::quick()
    })
    .unwrap();
    let model = engine.register(ModelSpec::new("mlp", mlp)).unwrap();
    let t0 = Instant::now() + Duration::from_secs(3600);
    let deadline = t0 + window / 2;
    let doomed = model.submit(sample(1).with_deadline(deadline));
    assert_eq!(stepper.step(t0), 0, "held for stragglers");
    assert_eq!(stepper.step(deadline), 0, "expired in the queue");
    assert_eq!(doomed.wait().unwrap_err(), EngineError::DeadlineExceeded);
    let stats = engine.stats();
    assert_eq!(stats.deadline_expired, 1);
    assert_eq!(stats.requests, 0, "expired request must never execute");
    assert_eq!(stats.batches, 0, "no batch may form from expired requests");
    // The engine still serves live traffic afterwards.
    let live = model.submit(sample(2));
    assert_eq!(stepper.step(deadline), 0);
    assert_eq!(stepper.step(deadline + window), 1);
    assert_eq!(live.wait().expect("live request").batch_size, 1);
}

#[test]
fn deadline_far_in_the_future_executes_normally() {
    let engine = Engine::new(EngineConfig::quick()).unwrap();
    let model = engine.register(ModelSpec::new("mlp", mlp)).unwrap();
    let r = model
        .infer(sample(7).high().with_timeout(Duration::from_secs(60)))
        .expect("served");
    assert_eq!(r.priority, Priority::High);
    assert_eq!(engine.stats().deadline_expired, 0);
}

#[test]
fn sharded_pool_outscales_a_single_device() {
    // Six full batches placed in one step, each against the estimates of
    // those before it: one device runs all six, four devices run 2, 2, 1, 1
    // — exactly 3x the cluster throughput.
    let run = |devices: usize| {
        let (engine, mut stepper) = Engine::stepped(EngineConfig {
            devices: vec![GpuSpec::rtx3090(); devices],
            workers: 1,
            max_batch: 4,
            ..EngineConfig::quick()
        })
        .unwrap();
        let model = engine.register(ModelSpec::new("mlp", mlp)).unwrap();
        model.warmup(4).unwrap();
        let tickets: Vec<_> = (0..24).map(|i| model.submit(sample(i))).collect();
        assert_eq!(stepper.step(Instant::now()), 6);
        for ticket in tickets {
            ticket.wait().expect("request served");
        }
        engine.stats()
    };
    let one = run(1);
    let four = run(4);
    assert_eq!((one.requests, four.requests), (24, 24));
    let per_shard: Vec<usize> = four.shards.iter().map(|s| s.dispatched_batches).collect();
    assert_eq!(per_shard, [2, 2, 1, 1]);
    let ratio = four.cluster_throughput_rps / one.cluster_throughput_rps;
    assert!((ratio - 3.0).abs() < 1e-9, "4 devices vs 1: {ratio}x");
}
