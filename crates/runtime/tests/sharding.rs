//! Integration tests of the sharded serving path: multi-device placement,
//! priority/deadline-aware batching and admission control.

use std::time::{Duration, Instant};

use hidet_graph::{Graph, GraphBuilder, Tensor};
use hidet_runtime::{Engine, EngineConfig, EngineError, ModelSpec, Priority, Request};
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
    let engine = Engine::new(EngineConfig {
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

    for r in model.infer_many((0..16).map(sample).collect()) {
        r.expect("request served");
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
    let engine = Engine::new(EngineConfig {
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

    // A plug request opens a straggler window; the burst below lands inside
    // it, so the dispatcher sees both classes queued at once and must serve
    // every high batch before any best-effort batch.
    let plug = model.submit(sample(0));
    let mut best_effort = Vec::new();
    let mut high = Vec::new();
    for i in 0..16 {
        best_effort.push(model.submit(sample(100 + i).best_effort()));
        high.push(model.submit(sample(200 + i).high()));
    }
    plug.wait().expect("plug served");
    for t in high {
        let r = t.wait().expect("high served");
        assert_eq!(r.priority, Priority::High);
    }
    for t in best_effort {
        t.wait().expect("best-effort served");
    }

    let stats = engine.stats();
    let h = &stats.priorities[Priority::High.index()];
    let be = &stats.priorities[Priority::BestEffort.index()];
    assert_eq!(h.requests, 16);
    assert_eq!(be.requests, 16);
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

/// A wide tower whose functional interpretation takes tens of milliseconds —
/// long enough that a placed batch is reliably still in flight when the next
/// submission's admission verdict is computed.
fn slow_tower(batch: i64) -> Graph {
    let mut g = GraphBuilder::new("slow_tower");
    let x = g.input("x", &[batch, 256]);
    let w1 = g.constant(Tensor::randn(&[256, 512], 1));
    let w2 = g.constant(Tensor::randn(&[512, 64], 2));
    let h = g.matmul(x, w1);
    let h = g.relu(h);
    let y = g.matmul(h, w2);
    g.output(y).build()
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
    let model = engine
        .register(ModelSpec::new("tower", slow_tower))
        .unwrap();
    model.warmup(1).unwrap();

    // Fill the single worker. The first request is admitted against an idle
    // pool; once batches are in flight, the estimated queue delay exceeds
    // the (tiny) bound even at high priority's 4x slack, so later traffic
    // is shed with the typed delay verdict.
    let busy: Vec<_> = (0..3).map(|i| model.submit(sample_wide(i))).collect();
    // Give the dispatcher time to place the first batch on the shard; the
    // worker needs tens of milliseconds to interpret it.
    std::thread::sleep(Duration::from_millis(10));
    let verdict = model.infer(sample_wide(99).best_effort());
    match verdict {
        Err(EngineError::QueueFull(msg)) => assert!(msg.contains("queue delay"), "{msg}"),
        other => panic!("expected delay-based shed, got {other:?}"),
    }
    let mut served = 0;
    for t in busy {
        match t.wait() {
            Ok(_) => served += 1,
            Err(EngineError::QueueFull(_)) => {} // later busy traffic may shed too
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }
    assert!(served >= 1, "the first request saw an idle pool");
    assert!(engine.stats().shed_requests >= 1);
}

fn sample_wide(seed: u64) -> Request {
    Request::new(vec![Tensor::randn(&[1, 256], seed)
        .data()
        .unwrap()
        .to_vec()])
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
    // max_batch 8 with a long straggler window: a lone request waits for
    // companions, its 5 ms deadline passes while queued, and the dispatcher
    // answers it without executing anything.
    let engine = Engine::new(EngineConfig {
        devices: vec![GpuSpec::rtx3090()],
        workers: 1,
        max_batch: 8,
        batch_window: Duration::from_millis(250),
        ..EngineConfig::quick()
    })
    .unwrap();
    let model = engine.register(ModelSpec::new("mlp", mlp)).unwrap();
    model.warmup(1).unwrap();
    let started = Instant::now();
    match model.infer(sample(1).with_timeout(Duration::from_millis(5))) {
        Err(EngineError::DeadlineExceeded) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    // The earliest-deadline wake answers well before the 250 ms window ends.
    assert!(
        started.elapsed() < Duration::from_millis(200),
        "expiry must not wait out the full batch window ({:?})",
        started.elapsed()
    );
    let stats = engine.stats();
    assert_eq!(stats.deadline_expired, 1);
    assert_eq!(stats.requests, 0, "expired request must never execute");
    assert_eq!(stats.batches, 0, "no batch may form from expired requests");
    // The engine still serves live traffic afterwards.
    let ok = model.infer(sample(2)).expect("live request");
    assert_eq!(ok.batch_size, 1);
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
    let run = |devices: usize| {
        let engine = Engine::new(EngineConfig {
            devices: vec![GpuSpec::rtx3090(); devices],
            workers: 1,
            max_batch: 4,
            batch_window: Duration::from_millis(10),
            ..EngineConfig::quick()
        })
        .unwrap();
        let model = engine.register(ModelSpec::new("mlp", mlp)).unwrap();
        model.warmup(4).unwrap();
        for r in model.infer_many((0..24).map(sample).collect()) {
            r.expect("request served");
        }
        engine.stats()
    };
    let one = run(1);
    let four = run(4);
    assert_eq!(one.requests, 24);
    assert_eq!(four.requests, 24);
    assert!(
        four.cluster_throughput_rps > 2.0 * one.cluster_throughput_rps,
        "4 devices must clearly outscale 1: {:.0} vs {:.0} req/s",
        four.cluster_throughput_rps,
        one.cluster_throughput_rps
    );
}
