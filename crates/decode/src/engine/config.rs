//! Engine construction knobs ([`DecodeConfig`]) and the error type sessions
//! surface ([`DecodeError`]).

use std::fmt;
use std::path::PathBuf;

use hidet::CompilerOptions;
use hidet_sim::GpuSpec;

/// How the step loop forms batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchingMode {
    /// Iteration-level scheduling: sequences are admitted into free slots
    /// every step and retired the step they finish.
    #[default]
    Continuous,
    /// The pad-to-max baseline: a batch is formed only when every slot of
    /// the previous batch has drained, so the whole batch runs as long as
    /// its longest member. The baseline continuous batching is compared
    /// against (`static_mode_serves_correctly_but_occupies_fewer_slots`).
    Static,
}

/// Decode-engine construction knobs.
#[derive(Debug, Clone)]
pub struct DecodeConfig {
    /// The decode shard pool: one decode shard per entry, each with its own
    /// KV arena, compiled step/prefill graphs, simulated clock and iteration
    /// scheduler. Defaults to a single RTX 3090 — the one-shard engine; must
    /// not be empty. New sessions are placed by joint queue-delay +
    /// KV-headroom score and may be live-migrated between shards under
    /// pressure (see the [module docs](crate::engine)).
    pub devices: Vec<GpuSpec>,
    /// Compiler options for the step and prefill graphs (quick — untuned —
    /// by default; decode steps are latency-bound, not schedule-bound, in the
    /// sim). With tuning off, every matmul is scheduled with the
    /// smallest-footprint valid configuration instead of the mid-size
    /// default: decode-step GEMMs are skinny — M is a handful of tokens — so
    /// the default 64×64 tile wastes almost the whole block on predicated-out
    /// work, and the compact tile cuts both the simulated step latency and
    /// the interpreter's cost per step. Implemented by pre-seeding tuning
    /// records (zero trials) for every matmul problem in the graph.
    pub options: CompilerOptions,
    /// Decode slots per step: the fixed batch axis of the compiled step
    /// graph and the ceiling on concurrently active sequences per shard.
    pub max_batch: usize,
    /// KV blocks per registered model's arena.
    pub kv_blocks: usize,
    /// Tokens per KV block (the allocation granularity).
    pub block_tokens: usize,
    /// Batch-formation policy.
    pub mode: BatchingMode,
    /// Optional compiled-artifact store (shared format with the serving
    /// engine's [`hidet_runtime::CompiledCache`]): a warm restart rebuilds
    /// the step graph with zero tuning trials.
    pub artifact_store: Option<PathBuf>,
    /// Start with admissions paused: sessions queue but no step runs until
    /// [`DecodeEngine::resume`](crate::DecodeEngine::resume). Lets a caller
    /// submit a whole workload before the first admission, making scheduling
    /// — and with it every simulated-time metric — independent of host
    /// scheduling jitter (the acceptance benches rely on this for
    /// deterministic CI gating).
    pub start_paused: bool,
    /// Chunk sizes the prefill graph family is compiled at (sanitized at
    /// construction: deduplicated, ascending; entries above a model's
    /// context window are skipped for that model). Long prompts are absorbed
    /// through the largest compiled chunk that fits the remaining chain;
    /// tails smaller than the smallest chunk fall back to the token-wise
    /// path. Empty disables chunked prefill entirely — every prompt token
    /// then rides the decode step graph, one scheduler step each.
    pub chunk_menu: Vec<usize>,
    /// Prefill tokens one scheduler iteration may absorb across all
    /// sequences — the Sarathi-style bound on the inter-token-latency bubble
    /// in-flight decodes observe while a long prompt streams in. `0`
    /// disables chunked prefill (like an empty [`DecodeConfig::chunk_menu`]).
    pub prefill_token_budget: usize,
    /// Test/bench knob exercising live migration deterministically: when
    /// non-zero, every session is migrated to the next shard (round-robin)
    /// once it has emitted this many tokens — at most once per session. `0`
    /// (the default) disables it.
    pub stress_migrate_after: usize,
}

impl Default for DecodeConfig {
    fn default() -> DecodeConfig {
        DecodeConfig {
            devices: vec![GpuSpec::rtx3090()],
            options: CompilerOptions::quick(),
            max_batch: 8,
            kv_blocks: 64,
            block_tokens: 16,
            mode: BatchingMode::Continuous,
            artifact_store: None,
            start_paused: false,
            chunk_menu: vec![16, 64, 256],
            prefill_token_budget: 256,
            stress_migrate_after: 0,
        }
    }
}

impl DecodeConfig {
    /// The config the engine actually runs on: construction invariants
    /// checked, the chunk menu deduplicated and ascending with zeroes
    /// dropped — the chunk shapes prefill builders are validated and
    /// compiled at.
    pub(super) fn sanitized(mut self) -> DecodeConfig {
        assert!(self.max_batch >= 1, "engine needs at least one slot");
        assert!(self.kv_blocks >= 1 && self.block_tokens >= 1);
        assert!(!self.devices.is_empty(), "engine needs at least one device");
        self.chunk_menu.retain(|&c| c >= 1);
        self.chunk_menu.sort_unstable();
        self.chunk_menu.dedup();
        self
    }
}

/// Errors surfaced through a [`DecodeSession`](crate::DecodeSession).
#[derive(Debug, Clone, PartialEq)]
pub enum DecodeError {
    /// The session named a model that was never registered.
    UnknownModel(String),
    /// The model spec's builder does not produce the declared interface.
    BadModel(String),
    /// The request was malformed (empty prompt, token out of vocabulary,
    /// prompt + max_tokens exceeding the context window, ...).
    BadPrompt(String),
    /// Compiling the step graph failed.
    Compile(String),
    /// Executing a decode step failed.
    Execution(String),
    /// The session's deadline passed before it finished.
    DeadlineExceeded,
    /// The KV arena cannot hold this sequence even after evicting every
    /// lower-ranked one.
    KvExhausted,
    /// The engine is shut down.
    Closed,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnknownModel(name) => write!(f, "unknown decode model \"{name}\""),
            DecodeError::BadModel(msg) => write!(f, "bad decode model: {msg}"),
            DecodeError::BadPrompt(msg) => write!(f, "bad prompt: {msg}"),
            DecodeError::Compile(msg) => write!(f, "step compile failed: {msg}"),
            DecodeError::Execution(msg) => write!(f, "step execution failed: {msg}"),
            DecodeError::DeadlineExceeded => f.write_str("deadline exceeded before completion"),
            DecodeError::KvExhausted => f.write_str("KV arena exhausted (no evictable sequence)"),
            DecodeError::Closed => f.write_str("decode engine is shut down"),
        }
    }
}

impl std::error::Error for DecodeError {}
