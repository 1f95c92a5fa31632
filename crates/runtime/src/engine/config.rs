//! Engine construction knobs ([`EngineConfig`]).

use std::path::PathBuf;
use std::time::Duration;

use hidet::CompilerOptions;
use hidet_sim::GpuSpec;

#[cfg(doc)]
use super::{Engine, EngineError, ModelSpec, Priority};

/// Engine construction knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The device pool: one shard per spec, homogeneous or mixed. Batches
    /// are placed on the shard with the least estimated queue delay.
    pub devices: Vec<GpuSpec>,
    /// Compiler options for every model (a tuning cache attached here is
    /// kept; otherwise the engine attaches its own).
    pub options: CompilerOptions,
    /// Worker threads **per device** executing batch jobs.
    pub workers: usize,
    /// Maximum requests coalesced into one batch (1 disables batching).
    pub max_batch: usize,
    /// How long the dispatcher holds an under-full batch open for stragglers.
    pub batch_window: Duration,
    /// Admission hard cap: maximum requests admitted but not yet answered.
    /// Classes below [`Priority::High`] are shed at a fraction of this (see
    /// [`Priority`]); requests beyond it get [`EngineError::QueueFull`].
    pub max_inflight: usize,
    /// Admission delay bound: when the estimated queue delay (simulated
    /// seconds; least-loaded shard plus dispatcher backlog) exceeds this,
    /// new requests are shed — best-effort at 1x the bound, normal at 2x,
    /// high at 4x. `None` disables delay-based shedding.
    pub admission_delay_bound: Option<Duration>,
    /// Tuning-record persistence: loaded at startup, saved on shutdown and
    /// on [`Engine::flush_tuning_records`]. `None` keeps records in memory.
    pub tuning_records_path: Option<PathBuf>,
    /// Default disk-backed artifact store for every registered model
    /// (overridable per model via [`ModelSpec::with_artifact_store`]).
    /// Compiles write their [`hidet::CompiledArtifact`] here; a warm restart
    /// pointed at the same directory rebuilds plans with **zero** fresh
    /// compiles and zero tuning trials. `None` keeps compiles process-local.
    pub artifact_store: Option<PathBuf>,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            devices: vec![GpuSpec::rtx3090()],
            options: CompilerOptions::tuned(),
            workers: 2,
            max_batch: 8,
            batch_window: Duration::from_millis(2),
            max_inflight: 4096,
            admission_delay_bound: None,
            tuning_records_path: None,
            artifact_store: None,
        }
    }
}

impl EngineConfig {
    /// A config with untuned compiles — fast startup for tests and examples.
    pub fn quick() -> EngineConfig {
        EngineConfig {
            options: CompilerOptions::quick(),
            ..EngineConfig::default()
        }
    }

    /// The config the engine actually runs on: construction invariants
    /// checked.
    pub(crate) fn sanitized(self) -> EngineConfig {
        assert!(!self.devices.is_empty(), "engine needs at least one device");
        assert!(self.workers >= 1, "engine needs at least one worker");
        assert!(self.max_batch >= 1, "max_batch must be at least 1");
        assert!(self.max_inflight >= 1, "max_inflight must be at least 1");
        self
    }
}
