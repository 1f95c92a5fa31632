//! Tour of the one-shot serving runtime: register a `ModelSpec` on a
//! two-shard pool, serve mixed-priority `Request`s through the dynamic
//! batcher under admission control and deadlines, persist compiled artifacts
//! and tuning records, restart warm with **zero** compiles, and unload. Run
//! with:
//!
//! ```text
//! cargo run --release --example serving
//! ```

use std::time::Duration;

use hidet_repro::graph::{Graph, GraphBuilder, Tensor};
use hidet_repro::sim::GpuSpec;
use hidet_runtime::{Engine, EngineConfig, EngineError, ModelSpec, Request};

/// A model family: `batch` scales the leading dimension of every input —
/// the same contract the built-in model zoo follows, so
/// `ModelSpec::new("resnet50", hidet_repro::graph::models::resnet50)` works
/// too. Dim 0 is an independent-sample axis, so requests coalesce.
fn sentiment_head(batch: i64) -> Graph {
    let mut g = GraphBuilder::new("sentiment_head");
    let x = g.input("embedding", &[batch, 128]);
    let w1 = g.constant(Tensor::randn(&[128, 256], 1));
    let w2 = g.constant(Tensor::randn(&[256, 3], 2));
    let h = g.matmul(x, w1);
    let h = g.gelu(h);
    let y = g.matmul(h, w2);
    let y = g.softmax(y, 1);
    g.output(y).build()
}

fn request(seed: u64) -> Request {
    Request::new(vec![Tensor::randn(&[1, 128], seed)
        .data()
        .unwrap()
        .to_vec()])
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let store = std::env::temp_dir().join("hidet-serving-example");
    let _ = std::fs::remove_dir_all(&store);
    let config = EngineConfig {
        // Two shards: each formed batch goes to the one with the least
        // estimated queue delay, and identical devices share one compile.
        devices: vec![GpuSpec::rtx3090(), GpuSpec::rtx3090()],
        workers: 1,
        max_batch: 4,
        batch_window: Duration::from_millis(5),
        max_inflight: 64,
        admission_delay_bound: Some(Duration::from_millis(2)),
        artifact_store: Some(store.clone()), // compiled artifacts persist here
        tuning_records_path: Some(store.join("tuning.json")),
        ..EngineConfig::default() // tuned schedules, RTX 3090 (simulated)
    };

    // --- session 1: cold process ------------------------------------------
    let engine = Engine::new(config.clone())?;
    let sentiment = engine.register(ModelSpec::new("sentiment", sentiment_head))?;
    sentiment.warmup(4)?; // tunes and compiles off the request path

    // A burst of best-effort traffic plus a few latency-critical requests.
    // The dispatcher always serves the high class first; the batcher groups
    // by (model, priority class) and coalesces along the batch dimension.
    let background: Vec<_> = (0..24)
        .map(|i| sentiment.submit(request(i).best_effort()))
        .collect();
    let urgent: Vec<_> = (0..4)
        .map(|i| sentiment.submit(request(100 + i).high().with_timeout(Duration::from_secs(2))))
        .collect();
    for (i, ticket) in urgent.into_iter().enumerate() {
        let r = ticket.wait()?;
        let probs = &r.outputs[0];
        println!(
            "urgent {i}: scores [{:.3} {:.3} {:.3}]  ({} class, batch of {}, \
             {:.1} us queue + {:.1} us device)",
            probs[0],
            probs[1],
            probs[2],
            r.priority,
            r.batch_size,
            r.queue_delay_seconds * 1e6,
            r.simulated_latency_seconds * 1e6,
        );
    }
    let mut shed = 0;
    for ticket in background {
        match ticket.wait() {
            Ok(_) => {}
            Err(EngineError::QueueFull(_)) => shed += 1, // admission control at work
            Err(e) => return Err(e.into()),
        }
    }

    // A deadline that has already passed is rejected, never executed.
    let expired = sentiment.infer(request(999).with_timeout(Duration::ZERO));
    assert!(matches!(expired, Err(EngineError::DeadlineExceeded)));

    let stats = engine.stats();
    println!("\ncold-process stats: {}", stats.summary());
    for line in stats.shard_lines() {
        println!("{line}");
    }
    for class in &stats.priorities {
        println!(
            "{:>11}: {} served, {} shed, p95 {:.1} us",
            class.priority.label(),
            class.requests,
            class.shed_requests,
            class.p95_latency_seconds * 1e6,
        );
    }
    println!("(best-effort shed by admission control this run: {shed})");
    engine.shutdown()?; // persists tuning records; artifacts already on disk

    // --- session 2: warm restart ------------------------------------------
    // Same store: every previously served (model, batch, device) key
    // rebuilds from its on-disk artifact — no compile, no tuning.
    let engine = Engine::new(config)?;
    let sentiment = engine.register(ModelSpec::new("sentiment", sentiment_head))?;
    sentiment.warmup(4)?;
    for result in sentiment.infer_many((0..4).map(request).collect()) {
        result?;
    }
    let stats = engine.stats();
    println!("\nwarm-restart stats: {}", stats.summary());
    println!(
        "warm restart: {} fresh compiles, {} artifact loads, {} tuning trials \
         (saved {} trials / {:.1} simulated seconds)",
        stats.compile_cache_misses,
        stats.compiled_artifact_loads,
        stats.tuning_trials_run,
        stats.tuning_trials_saved,
        stats.tuning_seconds_saved,
    );
    // The batch-4 graph the cold session warmed rebuilds from disk; a batch
    // size this session forms for the first time (dynamic batching is
    // timing-dependent) would compile fresh, which is why the hard "zero
    // compiles" acceptance lives in the pinned-batch
    // `warm_restart_compiles_zero_graphs` test rather than here.
    assert!(
        stats.compiled_artifact_loads > 0,
        "warm restart loads artifacts"
    );

    // --- lifecycle end: unload --------------------------------------------
    // Unloading is the one eviction: the model's compiled graphs leave
    // memory and its artifact files leave the store; tuning records stay.
    sentiment.unload();
    let stats = engine.stats();
    println!(
        "after unload: {} compiled graphs in memory, {} evicted, {} artifact files removed",
        engine.compiled_graphs(),
        stats.compiled_evicted_unload,
        stats.artifact_gc_removed,
    );
    engine.shutdown()?;
    let _ = std::fs::remove_dir_all(&store);
    Ok(())
}
