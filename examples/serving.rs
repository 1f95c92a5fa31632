//! Tour of the serving runtime's v2 model-lifecycle API: register a
//! `ModelSpec`, serve a burst of `Request`s through the dynamic batcher,
//! persist compiled artifacts + tuning records, restart warm with **zero**
//! compiles, and unload. Run with:
//!
//! ```text
//! cargo run --release --example serving
//! ```

use std::time::Duration;

use hidet_repro::graph::{Graph, GraphBuilder, Tensor};
use hidet_runtime::{Engine, EngineConfig, ModelSpec, Request};

/// A model family: `batch` scales the leading dimension of every input —
/// the same contract the built-in model zoo follows, so
/// `ModelSpec::new("resnet50", hidet_repro::graph::models::resnet50)` works
/// too.
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
        workers: 2,
        max_batch: 4,
        batch_window: Duration::from_millis(5),
        artifact_store: Some(store.clone()), // compiled artifacts persist here
        tuning_records_path: Some(store.join("tuning.json")),
        ..EngineConfig::default() // tuned schedules, RTX 3090 (simulated)
    };

    // --- session 1: cold process ------------------------------------------
    let engine = Engine::new(config.clone())?;
    let sentiment = engine.register(ModelSpec::new("sentiment", sentiment_head))?;

    // A burst of requests: the dispatcher coalesces them along the batch
    // dimension before they reach the simulated GPU.
    let results = sentiment.infer_many((0..8).map(request).collect());
    for (i, result) in results.into_iter().enumerate() {
        let r = result?;
        let probs = &r.outputs[0];
        println!(
            "request {i}: scores [{:.3} {:.3} {:.3}]  (batch of {}, {:.1} us simulated)",
            probs[0],
            probs[1],
            probs[2],
            r.batch_size,
            r.simulated_latency_seconds * 1e6,
        );
    }
    println!("\ncold-process stats: {}", engine.stats().summary());
    engine.shutdown()?; // persists tuning records; artifacts already on disk

    // --- session 2: warm restart ------------------------------------------
    // Same store: every previously served (model, batch, device) key
    // rebuilds from its on-disk artifact — no compile, no tuning.
    let engine = Engine::new(config)?;
    let sentiment = engine.register(ModelSpec::new("sentiment", sentiment_head))?;
    for result in sentiment.infer_many((0..8).map(request).collect()) {
        result?;
    }
    let stats = engine.stats();
    println!("warm-restart stats: {}", stats.summary());
    println!(
        "warm restart: {} fresh compiles, {} artifact loads, {} tuning trials \
         (saved {} trials / {:.1} simulated seconds)",
        stats.compile_cache_misses,
        stats.compiled_artifact_loads,
        stats.tuning_trials_run,
        stats.tuning_trials_saved,
        stats.tuning_seconds_saved,
    );
    // Every batch size the cold session formed rebuilds from disk; a batch
    // size this session forms for the first time (dynamic batching is
    // timing-dependent) would compile fresh, which is why the hard
    // "zero compiles" acceptance lives in the pinned-batch
    // `warm_restart_compiles_zero_graphs` test rather than here.
    assert!(
        stats.compiled_artifact_loads > 0,
        "warm restart loads artifacts"
    );

    // --- lifecycle end: unload --------------------------------------------
    // Unloading evicts the model's compiled graphs (visible in the eviction
    // counters); its disk artifacts remain for the next restart.
    sentiment.unload();
    println!(
        "after unload: {} compiled graphs in memory, {} evicted by unload",
        engine.compiled_graphs(),
        engine.stats().compiled_evicted_unload,
    );
    engine.shutdown()?;
    let _ = std::fs::remove_dir_all(&store);
    Ok(())
}
