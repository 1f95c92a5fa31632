//! # hidet-runtime — a sharded serving engine over the Hidet compiler
//!
//! The paper's headline economics — cheap tuning amortized over many runs —
//! only pay off if compiled artifacts are actually *reused*. This crate turns
//! the one-shot `compile + evaluate` pipeline of `hidet` into a long-lived
//! inference service over a **pool of simulated devices** (DESIGN.md §3–§5):
//!
//! * **explicit model lifecycle** ([`Engine::register`] → [`ModelSpec`] →
//!   [`ModelHandle`]): a handle owns every per-model operation — `infer`,
//!   `submit`, `warmup`, `unload` — and requests are built with the
//!   [`Request`] builder (inputs + priority + deadline + per-request
//!   timeout);
//! * **compiled-graph cache with cross-process persistence**
//!   ([`CompiledCache`]): compiled graphs are keyed by
//!   [`hidet_graph::Graph::structural_hash`] × device fingerprint × compiler
//!   options, so repeat requests — even for the same structure registered
//!   under a different name — skip compilation entirely, and homogeneous
//!   shards share one compiled graph. With an artifact store
//!   ([`EngineConfig::artifact_store`]) each compile persists its
//!   [`hidet::CompiledArtifact`] to disk, and a **warm restart rebuilds
//!   every previously served plan with zero fresh compiles and zero tuning
//!   trials**;
//! * **eviction is unload** ([`ModelHandle::unload`]): an unloaded model's
//!   compiled graphs and disk artifacts are dropped and counted in
//!   [`StatsSnapshot`]; re-registering recompiles (tuning records survive);
//! * **priority/deadline-aware dynamic batching** ([`ModelHandle::submit`]):
//!   same-model, same-class requests are coalesced along the model zoo's
//!   batch dimension; the dispatcher always serves the highest non-empty
//!   [`Priority`] class, and requests whose deadline passes while queued are
//!   rejected with [`EngineError::DeadlineExceeded`] without ever reaching a
//!   worker. [`Engine::stepped`] runs the same batch former on instants the
//!   caller names ([`Stepper`]), so its decisions replay exactly;
//! * **multi-GPU sharding** ([`EngineConfig::devices`]): formed batches are
//!   placed on the shard with the least estimated queue delay
//!   ([`hidet_sim::estimated_queue_delay`] over analytic latency estimates),
//!   so throughput scales near-linearly with homogeneous devices and a
//!   cut-down device in a mixed pool naturally receives less traffic;
//! * **admission control** ([`EngineConfig::max_inflight`],
//!   [`EngineConfig::admission_delay_bound`]): overload sheds requests with
//!   [`EngineError::QueueFull`], best-effort first — high-priority traffic
//!   is never shed while lower classes are admitted;
//! * **persistent tuning records** ([`hidet_sched::TuningCache`], wired
//!   through `CompilerOptions::tuning_cache`): tuned matmul schedules
//!   round-trip through a JSON file, so a cold process warm-starts with zero
//!   tuning trials — flushed on shutdown *and* from `Drop`, so a panicking
//!   caller doesn't lose them;
//! * **observability** ([`ServerStats`]): cache hit/miss/artifact/eviction
//!   counters, tuning trials run vs. saved, per-priority p50/p95 simulated
//!   sojourn latency, per-shard dispatch counters ([`ShardSnapshot`]) and
//!   cluster throughput, rendered by `/v2/stats` and `/v2/metrics` from one
//!   catalogue ([`stats::catalogue`]).
//!
//! ## Quickstart
//!
//! ```
//! use hidet_runtime::{Engine, EngineConfig, ModelSpec, Request};
//! use hidet_graph::{GraphBuilder, Tensor};
//!
//! let engine = Engine::new(EngineConfig::quick())?;
//! let mlp = engine.register(ModelSpec::new("mlp", |batch| {
//!     let mut g = GraphBuilder::new("mlp");
//!     let x = g.input("x", &[batch, 16]);
//!     let w = g.constant(Tensor::randn(&[16, 4], 1));
//!     let y = g.matmul(x, w);
//!     let y = g.relu(y);
//!     g.output(y).build()
//! }))?;
//!
//! let result = mlp.infer(Request::new(vec![vec![0.5; 16]]))?;
//! assert_eq!(result.outputs[0].len(), 4);
//!
//! // Same structure, second request: served from the compiled-graph cache.
//! let again = mlp.infer(Request::new(vec![vec![0.25; 16]]))?;
//! assert!(again.compile_cache_hit);
//!
//! // Unload when done: compiled graphs evicted, counters updated.
//! mlp.unload();
//! # Ok::<(), hidet_runtime::EngineError>(())
//! ```
//!
//! ## Sharding, priorities and the artifact store
//!
//! ```
//! use hidet_runtime::{Engine, EngineConfig, ModelSpec, Priority, Request};
//! use hidet_graph::{GraphBuilder, Tensor};
//! use hidet_sim::GpuSpec;
//! use std::time::Duration;
//!
//! # let store_dir = std::env::temp_dir().join(format!("hidet-doc-{}", std::process::id()));
//! let engine = Engine::new(EngineConfig {
//!     devices: vec![GpuSpec::rtx3090(), GpuSpec::rtx3090()], // two shards
//!     admission_delay_bound: Some(Duration::from_millis(50)),
//!     artifact_store: Some(store_dir.clone()), // compiles persist across restarts
//!     ..EngineConfig::quick()
//! })?;
//! let mlp = engine.register(ModelSpec::new("mlp", |batch| {
//!     let mut g = GraphBuilder::new("mlp");
//!     let x = g.input("x", &[batch, 16]);
//!     let w = g.constant(Tensor::randn(&[16, 4], 1));
//!     let y = g.matmul(x, w);
//!     g.output(y).build()
//! }))?;
//!
//! let urgent = mlp.infer(
//!     Request::new(vec![vec![0.5; 16]])
//!         .with_priority(Priority::High)
//!         .with_timeout(Duration::from_secs(5)),
//! )?;
//! assert_eq!(urgent.priority, Priority::High);
//! assert_eq!(engine.stats().shards.len(), 2);
//! # drop(engine);
//! # let _ = std::fs::remove_dir_all(&store_dir);
//! # Ok::<(), hidet_runtime::EngineError>(())
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod cache;
pub mod engine;
pub(crate) mod shard;
pub mod stats;
pub mod store;

pub use cache::{CacheCounters, CacheKey, CacheOutcome, CompiledCache};
pub use engine::{
    AdmissionSignal, ClassQueues, Engine, EngineConfig, EngineError, InferenceResult, ModelHandle,
    ModelSpec, Priority, Request, Stepper, Ticket,
};
pub use shard::ShardSnapshot;
pub use stats::{
    DecodeShardSnapshot, DecodeStatsSnapshot, IngressStatsSnapshot, LatencyReservoir,
    PriorityClassStats, ServerStats, StatsSnapshot,
};
pub use store::ArtifactStore;
