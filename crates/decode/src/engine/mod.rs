//! The decode engine: KV-cache sessions served by a continuous
//! (iteration-level) batching scheduler with chunked multi-token prefill.
//!
//! ```text
//!   clients ── model.generate ──▶ priority queues ──▶ admission (per step!)
//!              (prompt, max_tokens,  High/Normal/        │
//!               priority, deadline)  BestEffort          ▼
//!                                       ┌─── scheduler iteration ──────────┐
//!                                       │ prefill phase: chunk the longest │
//!                                       │   prompt chains (token budget)   │
//!      token streams ◀── emit / retire ─│ decode step for everyone else:   │
//!      (DecodeSession)                  │   gather KV → forward pass       │
//!                                       │   → append KV → argmax           │
//!                                       └───────────▲──────────────────────┘
//!                                      block-granular KV arena (one Vec<f32>)
//!                                        eviction + recompute on pressure
//! ```
//!
//! The unit of scheduling is one **iteration**: an optional *prefill phase*
//! absorbing prompt chunks, then one batched decode step that advances every
//! other active sequence by one token. Sequences join the running batch the
//! step after they arrive and leave the moment they finish — no sequence
//! ever waits for a batch-mate to drain, which is where the ≥2× tokens/sec
//! over static pad-to-max batching comes from (pinned on the simulated clock
//! by `static_mode_serves_correctly_but_occupies_fewer_slots`, whose static
//! side is a client of a [stepped](DecodeEngine::stepped) engine). The
//! decode batch axis belongs to the *scheduler*: the model graph is compiled
//! once at a fixed
//! `(max_batch, max_context)` shape (composing with the zoo transformers'
//! `unbatched` rule — the graph never re-partitions work), and per-row masks
//! carve the batch. Fixing the shape also makes every row's computation
//! **bit-identical** whether the sequence runs alone or packed with others —
//! rows of every decode-step operator are independent — which the
//! bit-identity proptest pins down.
//!
//! **Chunked prefill** (DESIGN.md §9) collapses the prompt-absorption tax:
//! instead of one scheduler step per prompt token, a prompt is fed through
//! single-sequence multi-token *prefill graphs*
//! ([`hidet_graph::models::transformer_prefill`] — the same
//! [`hidet_graph::models::transformer_pass`] family the decode step comes
//! from, built by the same spec closure) compiled at the fixed
//! chunk shapes of [`DecodeConfig::chunk_menu`]. Each iteration elects, per
//! sequence in `(priority, admission)` order, the **largest compiled chunk
//! that fits both the remaining feed chain and the iteration's leftover
//! [`DecodeConfig::prefill_token_budget`]** — the budget bounds the ITL
//! bubble in-flight decodes observe while a prefill pass shares their
//! iteration. Tails smaller than the smallest chunk (and everything when
//! chunking is off) fall through to the token-wise decode path, so chunking
//! is never a liveness dependency — a chunk whose graph fails to compile is
//! retired and its sequences keep absorbing token-wise. Prefill passes use
//! the same order-stable reduction schedules as decode steps, so the
//! resulting KV rows — and every downstream token — are **bit-identical to
//! token-wise absorption** (the `chunked_prefill_is_bit_identical_to_tokenwise`
//! proptest).
//!
//! KV caches live in a persistent [`KvAllocator`](crate::KvAllocator) arena
//! between steps; step inputs are staged and outputs harvested in place
//! ([`hidet::Workspace::input_mut`] / [`hidet::Workspace::output`]), so the
//! steady state performs zero heap allocations for caches. Under
//! memory pressure the scheduler preempts the lowest-ranked sequence
//! (priority, then admission order), frees its blocks and later rebuilds
//! them by re-feeding its tokens — eviction + recompute, counted in
//! [`hidet_runtime::DecodeStatsSnapshot`]. A replayed chain re-enters the
//! same chunk-election path, so recompute after eviction is chunked too.
//!
//! **Multi-device decode** (DESIGN.md §11): the engine owns one *decode
//! shard* per device of [`DecodeConfig::devices`] — its own KV arena,
//! compiled step/prefill graphs, simulated clock and active set —
//! multiplexed by the one scheduler (shards model *parallel* devices, so
//! each pass advances only its own shard's clock). New sessions
//! land on the shard minimizing estimated queue delay
//! ([`hidet_sim::estimated_queue_delay`] over the shard's published gauges)
//! plus a KV-headroom penalty, and sessions *migrate* between shards live: a
//! migration is an eviction whose recompute/replay chain re-admits on the
//! target shard, its time anchors rebased onto the target's clock — used for
//! pressure relief (a full arena evicts to the pool's roomiest shard instead
//! of thrashing locally) and for rebalance when headroom skews. Every shard
//! admits up to `max_batch` sequences and runs the same order-stable
//! schedules, so token streams stay **bit-identical** to a single-device run
//! — including across migrations (the
//! `migrated_session_is_bit_identical_to_pinned` proptest).
//!
//! **One scheduler, two drivers** (DESIGN.md §7): the scheduler core takes
//! the host instant as an argument and runs one iteration per call. The
//! thread [`DecodeEngine::new`] spawns drives it on the wall clock; a
//! [`Stepper`] ([`DecodeEngine::stepped`]) drives it one explicit step at a
//! time, so a test states arrival order, deadlines and migrations exactly.
//!
//! The module is split along the engine's seams: `config` (knobs and
//! errors), `session` (requests, token streams, the engine-side sequence),
//! `registry` (model specs and their validated graph families), `shard`
//! (the engine handle, shared state, placement, per-shard runtimes),
//! `schedule` (the scheduler core, its thread driver and the one
//! forward-pass routine), `stepper` (the stepped driver) and `migrate`
//! (preemption, pressure relief, live migration).

mod config;
mod migrate;
mod registry;
mod schedule;
mod session;
mod shard;
mod stepper;

pub use config::{DecodeConfig, DecodeError};
pub use registry::DecodeModelSpec;
pub use session::{
    DecodeModel, DecodeSession, GenerateRequest, Generation, SessionPoll, TokenEvent,
};
pub use shard::DecodeEngine;
pub use stepper::{ActiveView, Stepper};
