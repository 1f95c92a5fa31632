//! Integration tests of the v2 model lifecycle: artifact-store persistence
//! across engine instances, corrupted-artifact fallback, cache eviction
//! (TTL, capacity, unload) and per-request failure isolation.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use hidet_graph::{Graph, GraphBuilder, Tensor};
use hidet_runtime::{Engine, EngineConfig, EngineError, ModelSpec, Request};

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

/// A structurally different second model (distinct cache keys from `mlp`).
fn wide(batch: i64) -> Graph {
    let mut g = GraphBuilder::new("wide");
    let x = g.input("x", &[batch, 24]);
    let w = g.constant(Tensor::randn(&[24, 48], 3));
    let y = g.matmul(x, w);
    g.output(y).build()
}

fn request(seed: u64) -> Request {
    Request::new(vec![Tensor::randn(&[1, 24], seed).data().unwrap().to_vec()])
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hidet-lifecycle-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn warm_restart_compiles_zero_graphs() {
    // The acceptance criterion of the artifact store: a second engine
    // pointed at the same directory reports 0 fresh compiles and 0 tuning
    // trials for already-served (model, batch, device) keys.
    let store = temp_dir("warm-restart");
    let config = EngineConfig {
        max_batch: 2,
        batch_window: Duration::from_millis(10),
        artifact_store: Some(store.clone()),
        ..EngineConfig::default() // tuned options: the expensive case
    };

    // "Process" 1: cold store — compiles and tunes, persists artifacts.
    let engine = Engine::new(config.clone()).unwrap();
    let model = engine.register(ModelSpec::new("mlp", mlp)).unwrap();
    model.warmup(1).unwrap();
    model.infer(request(1)).unwrap();
    let cold = engine.stats();
    assert!(cold.compile_cache_misses > 0, "cold store must compile");
    assert!(cold.tuning_trials_run > 0, "cold store must tune");
    assert_eq!(cold.compiled_artifact_loads, 0);
    engine.shutdown().unwrap();
    assert!(
        std::fs::read_dir(&store).unwrap().count() > 0,
        "compiles must persist artifacts"
    );

    // "Process" 2: warm store — zero compiles, zero trials, same answers.
    let engine = Engine::new(config).unwrap();
    let model = engine.register(ModelSpec::new("mlp", mlp)).unwrap();
    model.warmup(1).unwrap();
    let result = model.infer(request(1)).unwrap();
    assert_eq!(result.outputs[0].len(), 6);
    let warm = engine.stats();
    assert_eq!(
        warm.compile_cache_misses, 0,
        "warm store must compile zero graphs: {warm:?}"
    );
    assert_eq!(warm.tuning_trials_run, 0, "warm store must run zero trials");
    assert!(warm.compiled_artifact_loads > 0);
    assert_eq!(warm.compiled_artifact_rejects, 0);
    assert!(
        warm.tuning_trials_saved >= cold.tuning_trials_run,
        "artifact loads must report the embodied tuning cost as saved"
    );
    engine.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn per_model_store_overrides_engine_default() {
    let default_store = temp_dir("default-store");
    let model_store = temp_dir("model-store");
    let config = EngineConfig {
        artifact_store: Some(default_store.clone()),
        ..EngineConfig::quick()
    };
    let engine = Engine::new(config).unwrap();
    let pinned = engine
        .register(ModelSpec::new("pinned", mlp).with_artifact_store(&model_store))
        .unwrap();
    pinned.infer(request(1)).unwrap();
    assert_eq!(
        std::fs::read_dir(&model_store).unwrap().count(),
        1,
        "per-model store receives the artifact"
    );
    let default_entries = std::fs::read_dir(&default_store)
        .map(|d| d.count())
        .unwrap_or(0);
    assert_eq!(
        default_entries, 0,
        "engine default must not be written for an overriding model"
    );
    let _ = std::fs::remove_dir_all(&default_store);
    let _ = std::fs::remove_dir_all(&model_store);
}

#[test]
fn corrupted_artifacts_fall_back_to_fresh_compile() {
    // Corrupted, truncated and version-mismatched artifact files must be
    // rejected (counted) and served by a fresh compile — never a panic.
    let store = temp_dir("corrupt");
    let config = EngineConfig {
        artifact_store: Some(store.clone()),
        ..EngineConfig::quick()
    };

    // Produce a valid store, then sabotage every artifact in it.
    let engine = Engine::new(config.clone()).unwrap();
    let model = engine.register(ModelSpec::new("mlp", mlp)).unwrap();
    model.infer(request(1)).unwrap();
    engine.shutdown().unwrap();
    let files: Vec<PathBuf> = std::fs::read_dir(&store)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert!(!files.is_empty());

    for (i, sabotage) in [
        "garbage, not json".to_string(),
        String::new(), // truncated to nothing
        std::fs::read_to_string(&files[0]).unwrap().replace(
            &format!("\"version\": {}", hidet::ARTIFACT_FORMAT_VERSION),
            "\"version\": 99",
        ),
        {
            let text = std::fs::read_to_string(&files[0]).unwrap();
            text[..text.len() / 2].to_string() // truncated mid-object
        },
    ]
    .into_iter()
    .enumerate()
    {
        for file in &files {
            std::fs::write(file, &sabotage).unwrap();
        }
        let engine = Engine::new(config.clone()).unwrap();
        let model = engine.register(ModelSpec::new("mlp", mlp)).unwrap();
        let result = model.infer(request(2)).unwrap();
        assert_eq!(result.outputs[0].len(), 6, "sabotage {i} broke serving");
        let stats = engine.stats();
        assert!(
            stats.compiled_artifact_rejects > 0,
            "sabotage {i} must be counted as a reject: {stats:?}"
        );
        assert!(
            stats.compile_cache_misses > 0,
            "sabotage {i} must fall back to a fresh compile"
        );
        // The fresh compile rewrote a valid artifact; restore sabotage for
        // the next round by the loop head.
        engine.shutdown().unwrap();
    }
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn unload_garbage_collects_disk_artifacts() {
    // Unloading a model sweeps its artifact files from the store (counted in
    // StatsSnapshot::artifact_gc_removed); other models' files survive.
    let store = temp_dir("unload-gc");
    let engine = Engine::new(EngineConfig {
        artifact_store: Some(store.clone()),
        ..EngineConfig::quick()
    })
    .unwrap();
    let doomed = engine.register(ModelSpec::new("doomed", mlp)).unwrap();
    let kept = engine.register(ModelSpec::new("kept", wide)).unwrap();
    doomed.infer(request(1)).unwrap();
    kept.infer(request(2)).unwrap();
    let files_before = std::fs::read_dir(&store).unwrap().count();
    assert_eq!(files_before, 2, "each model persisted one artifact");

    assert!(doomed.unload());
    let stats = engine.stats();
    assert_eq!(stats.artifact_gc_removed, 1, "{stats:?}");
    assert_eq!(
        std::fs::read_dir(&store).unwrap().count(),
        1,
        "only the unloaded model's artifact is swept"
    );
    // The surviving model still warm-starts a fresh engine from disk.
    engine.shutdown().unwrap();
    let engine = Engine::new(EngineConfig {
        artifact_store: Some(store.clone()),
        ..EngineConfig::quick()
    })
    .unwrap();
    let kept = engine.register(ModelSpec::new("kept", wide)).unwrap();
    kept.infer(request(3)).unwrap();
    let stats = engine.stats();
    assert_eq!(stats.compile_cache_misses, 0, "{stats:?}");
    assert_eq!(stats.compiled_artifact_loads, 1, "{stats:?}");
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn unload_gc_spares_artifacts_shared_by_a_live_registration() {
    // Artifacts are keyed structurally; two names over the same builder
    // share one file. Unloading one name must not destroy the survivor's
    // warm-start artifact — only the last unload sweeps it.
    let store = temp_dir("unload-gc-shared");
    let engine = Engine::new(EngineConfig {
        artifact_store: Some(store.clone()),
        ..EngineConfig::quick()
    })
    .unwrap();
    let a = engine.register(ModelSpec::new("a", mlp)).unwrap();
    let b = engine.register(ModelSpec::new("b", mlp)).unwrap();
    a.infer(request(1)).unwrap();
    b.infer(request(2)).unwrap();
    assert_eq!(std::fs::read_dir(&store).unwrap().count(), 1);

    assert!(a.unload());
    assert_eq!(engine.stats().artifact_gc_removed, 0, "shared file spared");
    assert_eq!(std::fs::read_dir(&store).unwrap().count(), 1);

    assert!(b.unload());
    assert_eq!(engine.stats().artifact_gc_removed, 1, "last unload sweeps");
    assert_eq!(std::fs::read_dir(&store).unwrap().count(), 0);
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn stats_report_planned_peak_bytes() {
    // Every compile records its memory plan's arena size; the snapshot
    // carries the largest one, and the artifact round-trips it.
    let store = temp_dir("planned-peak");
    let engine = Engine::new(EngineConfig {
        artifact_store: Some(store.clone()),
        ..EngineConfig::quick()
    })
    .unwrap();
    let model = engine.register(ModelSpec::new("mlp", mlp)).unwrap();
    model.infer(request(1)).unwrap();
    let stats = engine.stats();
    assert!(stats.planned_peak_bytes > 0, "{stats:?}");
    engine.shutdown().unwrap();

    // The artifact file carries the same figure.
    let file = std::fs::read_dir(&store)
        .unwrap()
        .next()
        .unwrap()
        .unwrap()
        .path();
    let artifact = hidet::CompiledArtifact::load(&file).unwrap();
    assert_eq!(artifact.planned_peak_bytes, stats.planned_peak_bytes);
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn unload_evicts_compiled_graphs_and_rejects_new_requests() {
    let engine = Engine::new(EngineConfig {
        max_batch: 2,
        batch_window: Duration::from_millis(5),
        ..EngineConfig::quick()
    })
    .unwrap();
    let model = engine.register(ModelSpec::new("mlp", mlp)).unwrap();
    let other = engine.register(ModelSpec::new("other", wide)).unwrap();
    model.infer(request(1)).unwrap();
    other.infer(request(2)).unwrap();
    assert_eq!(engine.compiled_graphs(), 2);

    assert!(model.unload(), "first unload reports the model was loaded");
    assert!(!model.unload(), "unload is idempotent");
    let stats = engine.stats();
    assert_eq!(stats.compiled_evicted_unload, 1, "{stats:?}");
    assert_eq!(engine.compiled_graphs(), 1, "other models keep their entry");

    match model.infer(request(3)) {
        Err(EngineError::UnknownModel(name)) => assert_eq!(name, "mlp"),
        other => panic!("expected UnknownModel after unload, got {other:?}"),
    }
    // Unrelated traffic is unaffected.
    assert!(other.infer(request(4)).is_ok());

    // Re-registering under the same name serves again (fresh compile).
    let reborn = engine.register(ModelSpec::new("mlp", mlp)).unwrap();
    let result = reborn.infer(request(5)).unwrap();
    assert!(!result.compile_cache_hit);
}

#[test]
fn infer_many_reports_per_request_failures_without_masking_siblings() {
    // One already-expired request in a burst: it alone reports
    // DeadlineExceeded, every sibling completes with its own result.
    let engine = Engine::new(EngineConfig {
        max_batch: 4,
        batch_window: Duration::from_millis(10),
        ..EngineConfig::quick()
    })
    .unwrap();
    let model = engine.register(ModelSpec::new("mlp", mlp)).unwrap();
    model.warmup(1).unwrap();

    let mut requests: Vec<Request> = (0..4).map(request).collect();
    requests.insert(
        2,
        request(99).with_deadline(Instant::now() - Duration::from_millis(1)),
    );
    let results = model.infer_many(requests);
    assert_eq!(results.len(), 5);
    for (i, result) in results.iter().enumerate() {
        if i == 2 {
            assert!(
                matches!(result, Err(EngineError::DeadlineExceeded)),
                "expired request must fail alone, got {result:?}"
            );
        } else {
            let ok = result.as_ref().expect("sibling must be served");
            assert_eq!(ok.outputs[0].len(), 6);
        }
    }
    let stats = engine.stats();
    assert_eq!(stats.requests, 4);
    assert_eq!(stats.deadline_expired, 1);
}

#[test]
fn handles_survive_reregistration_and_outlive_the_engine() {
    let engine = Engine::new(EngineConfig::quick()).unwrap();
    let model = engine.register(ModelSpec::new("mlp", mlp)).unwrap();
    model.infer(request(1)).unwrap();

    // Re-registration under the same name: the old handle follows it.
    let _newer = engine.register(ModelSpec::new("mlp", wide)).unwrap();
    let via_old = model
        .infer(request(2))
        .expect("old handle resolves the new registration");
    assert_eq!(via_old.outputs[0].len(), 48, "new model shape answers");

    // After shutdown, a surviving handle answers Closed instead of hanging.
    engine.shutdown().unwrap();
    match model.infer(request(3)) {
        Err(EngineError::Closed) => {}
        other => panic!("expected Closed after shutdown, got {other:?}"),
    }
}
