//! # hidet-decode — autoregressive decoding with KV-cache sessions and
//! continuous batching
//!
//! The serving runtime (`hidet-runtime`) answers **one-shot** inference: a
//! request is a single forward pass. The dominant real-world transformer
//! workload is different — token-by-token *generation*, where every request
//! is a long-lived **session** carrying per-layer key/value caches, and the
//! right scheduling granularity is one model *step*, not one request. This
//! crate serves that workload on the simulated GPU (DESIGN.md §7):
//!
//! * **one pass-graph family** ([`hidet_graph::models::transformer_pass`]):
//!   a [`DecodeModelSpec`] holds a single `(seqs, chunk, past) -> Graph`
//!   builder; the decode step is the family's `chunk = 1` member at
//!   `seqs = max_batch`, each prefill chunk its `seqs = 1` member;
//! * **decode-step graphs** ([`hidet_graph::models::transformer_decode_step`]):
//!   KV caches enter as graph inputs and leave, extended by one token
//!   (concat along the sequence axis), as graph outputs; attention is
//!   causally masked over `past_len + 1` positions. The graph is compiled
//!   once at a fixed `(max_batch, max_context)` shape — the *scheduler*, not
//!   the graph, owns batching, and every row's computation is bit-identical
//!   whether a sequence runs alone or packed with others;
//! * **block-granular KV allocation** ([`KvAllocator`]): caches live in one
//!   flat arena between steps, indexed by block id and carved into
//!   fixed-size blocks allocated as sequences grow and freed as a set on
//!   completion; step inputs are staged and outputs harvested in place, so
//!   the steady state performs zero heap allocations for caches;
//! * **continuous (iteration-level) batching** ([`DecodeEngine`]): every
//!   step forms a batch from *all* active sequences, admitting new prompts
//!   mid-flight and retiring finished sequences immediately — sustaining
//!   ≥2× the tokens/sec of static pad-to-max batching on mixed-length
//!   workloads (`static_mode_serves_correctly_but_occupies_fewer_slots`
//!   in `tests/decode.rs`). Requests carry the runtime's
//!   [`hidet_runtime::Priority`] classes and optional deadlines. The
//!   scheduler is one core with two drivers: a background thread on the
//!   wall clock ([`DecodeEngine::new`]), or a [`Stepper`]
//!   ([`DecodeEngine::stepped`]) that runs one iteration per call at the
//!   instant the caller names — how tests state arrival order, deadlines
//!   and migration policies exactly;
//! * **chunked multi-token prefill** ([`hidet_graph::models::transformer_prefill`]):
//!   long prompts absorb through fixed-shape prefill graphs — the largest
//!   compiled chunk fitting the remaining prompt, interleaved with decode
//!   steps under a per-iteration token budget — so a 512-token prompt costs
//!   a few prefill passes instead of 512 scheduler steps, cutting TTFT ≥2×
//!   on a long-prompt mix while the budget bounds the ITL bubble of
//!   in-flight sessions (`chunked_prefill_halves_long_prompt_ttft`). Token streams and KV contents stay
//!   **bit-identical** to token-wise absorption;
//! * **eviction + recompute**: under KV memory pressure the lowest-ranked
//!   sequence is preempted — blocks freed, tokens later re-fed (chunked,
//!   via the same election path) to rebuild the cache — so high-priority
//!   sessions always make progress;
//! * **multi-device decode** ([`DecodeConfig::devices`], DESIGN.md §11):
//!   one decode *shard* per configured [`hidet_sim::GpuSpec`], each with its
//!   own KV arena, compiled graphs and iteration scheduler. New sessions
//!   land on the shard minimizing estimated queue delay plus a KV-headroom
//!   penalty; KV pressure *live-migrates* sessions to roomier shards via
//!   the eviction/recompute chain, and a headroom rebalancer moves a
//!   session hot → cold when KV occupancy skews (token streams stay
//!   bit-identical either way);
//! * **token-level observability**: TTFT from submit *and* from admission,
//!   decomposed into queue / prefill / first-decode segments, inter-token
//!   latency p50/p95, decode and prefill tokens/sec, interleave occupancy
//!   and KV gauges, snapshotted as [`hidet_runtime::DecodeStatsSnapshot`]
//!   and attachable to the serving engine's `StatsSnapshot` via
//!   `Engine::attach_decode_stats`.
//!
//! ## Quickstart
//!
//! ```
//! use hidet_decode::{DecodeConfig, DecodeEngine, DecodeModelSpec, GenerateRequest};
//!
//! let engine = DecodeEngine::new(DecodeConfig {
//!     max_batch: 2,
//!     kv_blocks: 16,
//!     block_tokens: 4,
//!     ..DecodeConfig::default()
//! });
//! // A tiny 1-layer transformer: vocabulary 16, context window 12.
//! let model = engine.register(DecodeModelSpec::transformer("tiny", 1, 16, 2, 16, 12))?;
//!
//! let session = model.generate(GenerateRequest::new(vec![3, 1, 4], 5));
//! let generation = session.collect()?;
//! assert_eq!(generation.tokens.len(), 5);
//! assert!(generation.ttft_from_submit_seconds > 0.0);
//!
//! let stats = engine.stats();
//! assert_eq!(stats.tokens_generated, 5);
//! assert_eq!(stats.kv_blocks_in_use, 0, "session end frees every block");
//! # Ok::<(), hidet_decode::DecodeError>(())
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod engine;
pub mod kv;
pub(crate) mod placement;
pub(crate) mod stats;

pub use engine::{
    ActiveView, DecodeConfig, DecodeEngine, DecodeError, DecodeModel, DecodeModelSpec,
    DecodeSession, GenerateRequest, Generation, SessionPoll, Stepper, TokenEvent,
};
pub use kv::{KvAllocator, KvCache, KvError, KvLayout, KvSlot};
