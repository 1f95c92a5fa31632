//! Engine construction knobs ([`DecodeConfig`]) and the error type sessions
//! surface ([`DecodeError`]).

use std::fmt;
use std::path::PathBuf;

use hidet_sim::GpuSpec;

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
    /// Decode slots per step: the fixed batch axis of the compiled step
    /// graph and the ceiling on concurrently active sequences per shard.
    pub max_batch: usize,
    /// KV blocks per registered model's arena.
    pub kv_blocks: usize,
    /// Tokens per KV block (the allocation granularity).
    pub block_tokens: usize,
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
}

impl Default for DecodeConfig {
    fn default() -> DecodeConfig {
        DecodeConfig {
            devices: vec![GpuSpec::rtx3090()],
            max_batch: 8,
            kv_blocks: 64,
            block_tokens: 16,
            artifact_store: None,
            start_paused: false,
            chunk_menu: vec![16, 64, 256],
            prefill_token_budget: 256,
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
