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
//!                                      block-granular KV arena (DeviceMemory)
//!                                        eviction + recompute on pressure
//! ```
//!
//! The unit of scheduling is one **iteration**: an optional *prefill phase*
//! absorbing prompt chunks, then one batched decode step that advances every
//! other active sequence by one token. Sequences join the running batch the
//! step after they arrive and leave the moment they finish
//! ([`BatchingMode::Continuous`]) — no sequence ever waits for a batch-mate
//! to drain, which is where the ≥2× tokens/sec over static pad-to-max
//! batching comes from (the `serving_decode` bench). The decode batch axis
//! belongs to the *scheduler*: the model graph is compiled once at a fixed
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
//! ([`hidet_graph::models::transformer_prefill`]) compiled at the fixed
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
//! between steps; step inputs are staged and harvested **device-to-device**
//! ([`hidet::Workspace::input_mut`] / [`hidet_sim::DeviceMemory::copy_from`]),
//! so the steady state performs zero heap allocations for caches. Under
//! memory pressure the scheduler preempts the lowest-ranked sequence
//! (priority, then admission order), frees its blocks and later rebuilds
//! them by re-feeding its tokens — eviction + recompute, counted in
//! [`hidet_runtime::DecodeStatsSnapshot`]. A replayed chain re-enters the
//! same chunk-election path, so recompute after eviction is chunked too.
//!
//! **Multi-device decode** (DESIGN.md §11): the engine owns one *decode
//! shard* per device of [`DecodeConfig::devices`] — its own KV arena,
//! compiled step/prefill graphs, simulated clock and iteration scheduler —
//! multiplexed by the single step-loop thread (shards model *parallel*
//! devices, so each pass advances only its own shard's clock). New sessions
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

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use hidet::{CompilerOptions, Workspace};
use hidet_graph::{Graph, Tensor, TensorId};
use hidet_runtime::{CompiledCache, DecodeStatsSnapshot, Priority};
use hidet_sim::{Gpu, GpuSpec};
use hidet_trace::SpanKind;

use crate::kv::{KvAllocator, KvCache, KvError, KvLayout, KvSlot};
use crate::placement::placement_score;
use crate::stats::DecodeStats;

/// How the step loop forms batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchingMode {
    /// Iteration-level scheduling: sequences are admitted into free slots
    /// every step and retired the step they finish.
    #[default]
    Continuous,
    /// The pad-to-max baseline: a batch is formed only when every slot of
    /// the previous batch has drained, so the whole batch runs as long as
    /// its longest member. Exists for the `serving_decode` comparison.
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
    /// then rides the decode step graph, one scheduler step each. Only
    /// models registered with a prefill builder
    /// ([`DecodeModelSpec::transformer`](crate::DecodeModelSpec::transformer)
    /// has one; [`DecodeModelSpec::custom`](crate::DecodeModelSpec::custom)
    /// opts in via
    /// [`DecodeModelSpec::with_prefill`](crate::DecodeModelSpec::with_prefill))
    /// use the menu.
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

/// One generation request: prompt tokens plus scheduling knobs, mirroring
/// the serving engine's `Request` builder.
#[derive(Debug, Clone)]
pub struct GenerateRequest {
    prompt: Vec<u32>,
    max_tokens: usize,
    priority: Priority,
    deadline: Option<Instant>,
    eos: Option<u32>,
    shard: Option<usize>,
    trace_id: u64,
}

impl GenerateRequest {
    /// Generate up to `max_tokens` tokens from `prompt`, at
    /// [`Priority::Normal`] with no deadline.
    pub fn new(prompt: Vec<u32>, max_tokens: usize) -> GenerateRequest {
        GenerateRequest {
            prompt,
            max_tokens,
            priority: Priority::Normal,
            deadline: None,
            eos: None,
            shard: None,
            trace_id: 0,
        }
    }

    /// Attributes the session to a trace: placement, prefill-chunk, decode
    /// step, and KV events it touches carry `trace_id` in the exported
    /// trace. Id 0 (the default) means unattributed.
    pub fn with_trace(mut self, trace_id: u64) -> GenerateRequest {
        self.trace_id = trace_id;
        self
    }

    /// Sets the priority class (admission order and eviction rank).
    pub fn with_priority(mut self, priority: Priority) -> GenerateRequest {
        self.priority = priority;
        self
    }

    /// Sets an absolute deadline: a session still unfinished when it passes
    /// is answered [`DecodeError::DeadlineExceeded`].
    pub fn with_deadline(mut self, deadline: Instant) -> GenerateRequest {
        self.deadline = Some(deadline);
        self
    }

    /// Stops generation early when `token` is emitted (the token is still
    /// delivered).
    pub fn with_eos(mut self, token: u32) -> GenerateRequest {
        self.eos = Some(token);
        self
    }

    /// Pins the session to decode shard `shard`, bypassing placement (the
    /// session may still be live-migrated later). Out-of-range indices
    /// resolve to [`DecodeError::BadPrompt`] on the session. Mainly for
    /// tests and benches that need a reproducible single-shard baseline.
    pub fn with_shard(mut self, shard: usize) -> GenerateRequest {
        self.shard = Some(shard);
        self
    }

    /// Cache slots a full-length run occupies: the last generated token is
    /// emitted but never fed, so the cache holds at most
    /// `prompt + max_tokens - 1` entries.
    fn cache_need(&self) -> usize {
        self.prompt.len() + self.max_tokens - 1
    }
}

/// One emitted token, as streamed through a [`DecodeSession`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TokenEvent {
    /// The greedily decoded token id.
    pub token: u32,
    /// Zero-based position within this session's generated tokens.
    pub index: usize,
    /// Simulated engine time at emission, seconds.
    pub sim_time_seconds: f64,
}

/// A finished generation, as returned by [`DecodeSession::collect`].
#[derive(Debug, Clone, PartialEq)]
pub struct Generation {
    /// Every generated token, in order (prompt excluded).
    pub tokens: Vec<u32>,
    /// Simulated time-to-first-token measured from the
    /// [`DecodeModel::generate`] call — includes time queued before
    /// admission, so it is what a client experiences.
    pub ttft_from_submit_seconds: f64,
    /// Simulated time-to-first-token measured from first admission into the
    /// running batch — prompt processing only, so queueing and compute are
    /// separable in benches (`ttft_from_submit - ttft_from_admission` is the
    /// queue wait).
    pub ttft_from_admission_seconds: f64,
    /// Simulated engine time at completion.
    pub completion_sim_seconds: f64,
}

pub(super) enum Event {
    Token(TokenEvent),
    Done {
        ttft_from_submit_seconds: f64,
        ttft_from_admission_seconds: f64,
        completion_sim_seconds: f64,
    },
    Failed(DecodeError),
}

/// The outcome of one bounded poll of a [`DecodeSession`]
/// ([`DecodeSession::next_timeout`]).
///
/// `Pending` is what makes the poll useful to a streaming bridge: between
/// tokens the caller gets control back and can probe its client socket; if
/// the client is gone it drops the session, and the engine releases the
/// session's KV blocks at the next step boundary.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionPoll {
    /// A token arrived within the timeout.
    Token(TokenEvent),
    /// The generation finished (all tokens already delivered).
    Finished,
    /// No event arrived within the timeout; the generation is still running.
    Pending,
}

/// A live generation: the token stream of one KV-cache session.
///
/// Iterate for streaming consumption (each item is one [`TokenEvent`]), or
/// call [`DecodeSession::collect`] to block until completion. Dropping the
/// session cancels the generation at the next step boundary; the engine
/// frees its KV blocks.
pub struct DecodeSession {
    rx: mpsc::Receiver<Event>,
    done: bool,
}

impl DecodeSession {
    fn failed(err: DecodeError) -> DecodeSession {
        let (tx, rx) = mpsc::channel();
        let _ = tx.send(Event::Failed(err));
        DecodeSession { rx, done: false }
    }

    /// Blocks until the generation finishes, returning every token plus its
    /// timing summary.
    ///
    /// # Errors
    /// The first [`DecodeError`] the engine reported, if any.
    pub fn collect(self) -> Result<Generation, DecodeError> {
        let mut tokens = Vec::new();
        loop {
            match self.rx.recv() {
                Ok(Event::Token(event)) => tokens.push(event.token),
                Ok(Event::Done {
                    ttft_from_submit_seconds,
                    ttft_from_admission_seconds,
                    completion_sim_seconds,
                }) => {
                    return Ok(Generation {
                        tokens,
                        ttft_from_submit_seconds,
                        ttft_from_admission_seconds,
                        completion_sim_seconds,
                    })
                }
                Ok(Event::Failed(err)) => return Err(err),
                Err(_) => return Err(DecodeError::Closed),
            }
        }
    }

    /// Waits up to `timeout` for the next event, without consuming the
    /// session. Returns [`SessionPoll::Pending`] on timeout so callers
    /// interleave token consumption with liveness checks of their own
    /// downstream (e.g. a client socket) and can cancel by dropping the
    /// session.
    ///
    /// After `Finished` (or an error) every further call returns `Finished`.
    ///
    /// # Errors
    /// The first [`DecodeError`] the engine reported, if any.
    pub fn next_timeout(&mut self, timeout: Duration) -> Result<SessionPoll, DecodeError> {
        if self.done {
            return Ok(SessionPoll::Finished);
        }
        match self.rx.recv_timeout(timeout) {
            Ok(event) => self.settle(Some(event)),
            Err(mpsc::RecvTimeoutError::Timeout) => Ok(SessionPoll::Pending),
            Err(mpsc::RecvTimeoutError::Disconnected) => self.settle(None),
        }
    }

    /// Folds one received event (`None`: the engine hung up) into the
    /// session: anything but a token ends it.
    fn settle(&mut self, event: Option<Event>) -> Result<SessionPoll, DecodeError> {
        if let Some(Event::Token(event)) = event {
            return Ok(SessionPoll::Token(event));
        }
        self.done = true;
        match event {
            Some(Event::Failed(err)) => Err(err),
            Some(_) => Ok(SessionPoll::Finished),
            None => Err(DecodeError::Closed),
        }
    }
}

impl Iterator for DecodeSession {
    type Item = Result<TokenEvent, DecodeError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let event = self.rx.recv().ok();
        match self.settle(event) {
            Ok(SessionPoll::Token(event)) => Some(Ok(event)),
            Ok(_) => None,
            Err(err) => Some(Err(err)),
        }
    }
}

impl fmt::Debug for DecodeSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DecodeSession").finish_non_exhaustive()
    }
}

/// A registered decode model: the handle owning
/// [`DecodeModel::generate`]. Clonable; addresses the model by name.
#[derive(Clone)]
pub struct DecodeModel {
    pub(super) name: Arc<str>,
    pub(super) shared: Arc<Shared>,
}

impl fmt::Debug for DecodeModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DecodeModel")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

impl DecodeModel {
    /// The model's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A generate-time rejection: counted in
    /// [`DecodeStatsSnapshot`](hidet_runtime::DecodeStatsSnapshot)'s
    /// `sequences_failed` like any engine-side failure.
    fn reject(&self, err: DecodeError) -> DecodeSession {
        self.shared.stats.failed.fetch_add(1, Ordering::Relaxed);
        DecodeSession::failed(err)
    }

    /// Starts a generation: the prompt is absorbed token by token into a
    /// fresh KV-cache session, then up to `max_tokens` tokens are greedily
    /// decoded and streamed through the returned [`DecodeSession`].
    ///
    /// Invalid requests (empty prompt, out-of-vocabulary token,
    /// `prompt + max_tokens - 1` exceeding the context window) resolve to
    /// [`DecodeError::BadPrompt`] on the session.
    pub fn generate(&self, request: GenerateRequest) -> DecodeSession {
        let def = {
            let registry = self.shared.registry.lock().expect("registry poisoned");
            registry.get(self.name.as_ref()).cloned()
        };
        let Some(def) = def else {
            return self.reject(DecodeError::UnknownModel(self.name.to_string()));
        };
        if request.prompt.is_empty() {
            return self.reject(DecodeError::BadPrompt(
                "prompt must contain at least one token".to_string(),
            ));
        }
        if request.max_tokens == 0 {
            return self.reject(DecodeError::BadPrompt(
                "max_tokens must be at least 1".to_string(),
            ));
        }
        if let Some(&bad) = request.prompt.iter().find(|&&t| t as i64 >= def.vocab) {
            return self.reject(DecodeError::BadPrompt(format!(
                "prompt token {bad} exceeds vocabulary {}",
                def.vocab
            )));
        }
        let cache_need = request.cache_need();
        if cache_need > def.max_context {
            return self.reject(DecodeError::BadPrompt(format!(
                "prompt ({}) + max_tokens ({}) needs {cache_need} cache slots, \
                 context window holds {}",
                request.prompt.len(),
                request.max_tokens,
                def.max_context
            )));
        }
        if let Some(s) = request.shard {
            let shards = self.shared.config.devices.len();
            if s >= shards {
                return self.reject(DecodeError::BadPrompt(format!(
                    "shard {s} out of range: engine has {shards} decode shards"
                )));
            }
        }
        let (tx, rx) = mpsc::channel();
        let (model_key, pin) = (def_key(&def), request.shard);
        let mut sequence = Sequence::new(def, request, tx);
        {
            // The closed check happens under the waiting lock: shutdown sets
            // the flag under the same lock, and the step loop only exits
            // after draining the queue under it, so a session admitted here
            // is guaranteed to be either served or failed — never stranded.
            let mut waiting = self.shared.waiting.lock().expect("waiting poisoned");
            if self.shared.closed.load(Ordering::SeqCst) {
                return self.reject(DecodeError::Closed);
            }
            // KV-aware placement (under the same lock, so concurrent
            // submitters see each other's queued work): pinned shard if
            // requested, else the cheapest by joint score.
            let needed_blocks = cache_need.div_ceil(self.shared.config.block_tokens);
            let shard = pin.unwrap_or_else(|| {
                let _place = hidet_trace::global().span(SpanKind::ShardPlace, sequence.trace_id);
                place_shard(&self.shared, &waiting, model_key, needed_blocks)
            });
            sequence.submitted_sim = self.shared.stats.shard_clock(shard);
            self.shared.stats.shards[shard]
                .placed
                .fetch_add(1, Ordering::Relaxed);
            waiting.shards[shard].classes[sequence.priority.index()].push_back(sequence);
        }
        self.shared.cv.notify_all();
        DecodeSession { rx, done: false }
    }
}

/// One active generation, owned by the step loop.
pub(super) struct Sequence {
    pub(super) def: Arc<ModelDef>,
    /// Cache slots a full-length run of this sequence occupies
    /// (`prompt + max_tokens - 1`) — the self-preemption feasibility bound.
    pub(super) cache_need: usize,
    /// Next token to feed.
    pub(super) pending: u32,
    /// Tokens to feed after `pending` with outputs ignored (prompt tail, or
    /// the replay chain after an eviction).
    pub(super) forced: VecDeque<u32>,
    /// Tokens whose K/V rows live in the cache — the replay source.
    pub(super) fed: Vec<u32>,
    pub(super) emitted: usize,
    pub(super) max_tokens: usize,
    pub(super) eos: Option<u32>,
    pub(super) priority: Priority,
    pub(super) deadline: Option<Instant>,
    /// Admission order; `(priority, rank)` is the total eviction order.
    pub(super) rank: u64,
    pub(super) kv: KvCache,
    pub(super) tx: mpsc::Sender<Event>,
    pub(super) submitted_sim: f64,
    /// Simulated clock at *first* admission into the running batch (eviction
    /// re-admissions keep the original stamp) — the `ttft_from_admission`
    /// anchor.
    pub(super) admitted_sim: Option<f64>,
    /// Simulated clock when every prompt token but the final one was
    /// absorbed — splits TTFT into its prefill and first-decode segments.
    pub(super) prompt_done_sim: Option<f64>,
    pub(super) ttft: Option<f64>,
    pub(super) ttft_admission: Option<f64>,
    pub(super) last_token_sim: f64,
    /// Pressure-relief migrations taken so far (bounded by
    /// `PRESSURE_MOVE_LIMIT`).
    pub(super) pressure_moves: u32,
    /// Whether the `stress_migrate_after` knob already moved this sequence.
    pub(super) stress_migrated: bool,
    /// Trace id the session's spans/instants are attributed to (0 = none).
    pub(super) trace_id: u64,
}

impl Sequence {
    /// A never-admitted sequence for `request`, whose prompt the caller has
    /// checked to be non-empty; events go down `tx`.
    pub(super) fn new(
        def: Arc<ModelDef>,
        request: GenerateRequest,
        tx: mpsc::Sender<Event>,
    ) -> Sequence {
        let cache_need = request.cache_need();
        let mut prompt = VecDeque::from(request.prompt);
        let pending = prompt.pop_front().expect("prompt non-empty");
        Sequence {
            def,
            cache_need,
            pending,
            forced: prompt,
            fed: Vec::new(),
            emitted: 0,
            max_tokens: request.max_tokens,
            eos: request.eos,
            priority: request.priority,
            deadline: request.deadline,
            rank: 0,
            kv: KvCache::new(),
            tx,
            submitted_sim: 0.0,
            admitted_sim: None,
            prompt_done_sim: None,
            ttft: None,
            ttft_admission: None,
            last_token_sim: 0.0,
            pressure_moves: 0,
            stress_migrated: false,
            trace_id: request.trace_id,
        }
    }

    /// Eviction rank: strictly greater = evicted first.
    pub(super) fn key(&self) -> (usize, u64) {
        (self.priority.index(), self.rank)
    }

    pub(super) fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now >= d)
    }

    /// Rebases every simulated-time anchor onto a target shard's clock at
    /// migration: `offset` is target-now minus source-now, so durations
    /// spanning the move (TTFT, ITL) compose the time spent on each
    /// timeline.
    pub(super) fn rebase(&mut self, offset: f64) {
        self.submitted_sim += offset;
        if let Some(t) = self.admitted_sim.as_mut() {
            *t += offset;
        }
        if let Some(t) = self.prompt_done_sim.as_mut() {
            *t += offset;
        }
        self.last_token_sim += offset;
    }

    /// Forward passes this sequence still needs, roughly: the unfed chain
    /// plus one decode step per remaining token — the work term of the
    /// placement score.
    pub(super) fn remaining_work(&self) -> usize {
        1 + self.forced.len() + self.max_tokens.saturating_sub(self.emitted)
    }
}

#[derive(Default)]
pub(super) struct WaitQueues {
    pub(super) classes: [VecDeque<Sequence>; Priority::COUNT],
}

impl WaitQueues {
    pub(super) fn pop_highest(&mut self) -> Option<Sequence> {
        self.classes.iter_mut().find_map(VecDeque::pop_front)
    }

    fn is_empty(&self) -> bool {
        self.classes.iter().all(VecDeque::is_empty)
    }
}

/// The engine's waiting sessions: one [`WaitQueues`] per decode shard
/// (placement decides the shard at submission; migration moves sessions
/// between queues later).
pub(super) struct Waiting {
    pub(super) shards: Vec<WaitQueues>,
}

impl Waiting {
    pub(super) fn is_empty(&self) -> bool {
        self.shards.iter().all(WaitQueues::is_empty)
    }
}

/// Everything the engine needs to know about a decode model: its dimensions
/// and a `(batch, past_len) -> Graph` builder honoring the
/// [`hidet_graph::models::transformer_decode_step`] interface.
pub struct DecodeModelSpec {
    name: String,
    layers: usize,
    hidden: i64,
    heads: i64,
    vocab: i64,
    max_context: i64,
    builder: Box<dyn Fn(i64, i64) -> Graph + Send + Sync>,
    /// Optional `(chunk_len, past_len) -> Graph` builder for the chunked
    /// prefill family ([`hidet_graph::models::transformer_prefill`]
    /// interface). Models without one absorb prompts token-wise only.
    prefill_builder: Option<Box<dyn Fn(i64, i64) -> Graph + Send + Sync>>,
    embed_seed: u64,
}

impl DecodeModelSpec {
    /// A pre-LN transformer decode model built by
    /// [`hidet_graph::models::transformer_decode_step`].
    pub fn transformer(
        name: impl Into<String>,
        layers: usize,
        hidden: i64,
        heads: i64,
        vocab: i64,
        max_context: i64,
    ) -> DecodeModelSpec {
        let name = name.into();
        let (graph_name, prefill_name) = (name.clone(), format!("{name}_prefill"));
        DecodeModelSpec::custom(
            name,
            layers,
            hidden,
            heads,
            vocab,
            max_context,
            move |batch, past| {
                hidet_graph::models::transformer_decode_step(
                    &graph_name,
                    batch,
                    past,
                    layers,
                    hidden,
                    heads,
                    vocab,
                )
            },
        )
        .with_prefill(move |chunk, past| {
            hidet_graph::models::transformer_prefill(
                &prefill_name,
                chunk,
                past,
                layers,
                hidden,
                heads,
                vocab,
            )
        })
    }

    /// GPT-2 small decode steps
    /// ([`hidet_graph::models::gpt2_decode_step`]) with context window
    /// `max_context`.
    pub fn gpt2(max_context: i64) -> DecodeModelSpec {
        DecodeModelSpec::transformer("gpt2_decode", 12, 768, 12, 768, max_context)
    }

    /// A custom `(batch, past_len) -> Graph` builder; the graph must follow
    /// the decode-step interface for the given dimensions (validated at
    /// registration).
    pub fn custom(
        name: impl Into<String>,
        layers: usize,
        hidden: i64,
        heads: i64,
        vocab: i64,
        max_context: i64,
        builder: impl Fn(i64, i64) -> Graph + Send + Sync + 'static,
    ) -> DecodeModelSpec {
        DecodeModelSpec {
            name: name.into(),
            layers,
            hidden,
            heads,
            vocab,
            max_context,
            builder: Box::new(builder),
            prefill_builder: None,
            embed_seed: 0xDEC0DE,
        }
    }

    /// Adds a `(chunk_len, past_len) -> Graph` prefill builder to a
    /// [`DecodeModelSpec::custom`] spec, enabling chunked prompt absorption.
    /// The graph must follow the
    /// [`hidet_graph::models::transformer_prefill`] interface for the spec's
    /// dimensions (validated at registration for every menu chunk).
    pub fn with_prefill(
        mut self,
        builder: impl Fn(i64, i64) -> Graph + Send + Sync + 'static,
    ) -> DecodeModelSpec {
        self.prefill_builder = Some(Box::new(builder));
        self
    }

    /// Seed of the deterministic host-side token-embedding table.
    pub fn with_embed_seed(mut self, seed: u64) -> DecodeModelSpec {
        self.embed_seed = seed;
        self
    }

    /// The model's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl fmt::Debug for DecodeModelSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DecodeModelSpec")
            .field("name", &self.name)
            .field("layers", &self.layers)
            .field("hidden", &self.hidden)
            .field("heads", &self.heads)
            .field("vocab", &self.vocab)
            .field("max_context", &self.max_context)
            .finish_non_exhaustive()
    }
}

/// A validated decode model: dimensions, its forward-pass graphs, and the
/// host-side embedding table.
pub(super) struct ModelDef {
    pub(super) name: String,
    pub(super) layers: usize,
    pub(super) hidden: usize,
    pub(super) heads: usize,
    pub(super) head_dim: usize,
    pub(super) vocab: i64,
    pub(super) max_context: usize,
    /// The decode step: one token for each of `max_batch` sequences.
    pub(super) step: PassDef,
    /// `vocab × hidden` deterministic token embeddings, applied host-side
    /// (the embedding lookup is a memory gather, matching the zoo's
    /// convention of starting from embedded hidden states).
    pub(super) embed: Vec<f32>,
    /// The validated chunked-prefill graph family, one entry per engine menu
    /// chunk that fits the context window (ascending): `chunk` tokens of one
    /// sequence each. Empty when the spec has no prefill builder or the menu
    /// is empty — prompts then absorb token-wise only.
    pub(super) prefill: Vec<PassDef>,
}

impl ModelDef {
    /// The prefill pass compiled at `chunk` tokens.
    pub(super) fn prefill_pass(&self, chunk: usize) -> &PassDef {
        self.prefill
            .iter()
            .find(|p| p.chunk == chunk)
            .expect("elected chunks come from def.prefill")
    }
}

/// One validated forward-pass graph over `max_context` past slots, plus its
/// tensor-id map. Both graph families share the interface — a decode step is
/// chunk 1 × `max_batch` sequences, a prefill pass is `chunk` × one sequence:
/// inputs `x`, the additive mask and per-layer past K/V; outputs one logits
/// row per fed token and the per-layer caches extended by `chunk` positions.
pub(super) struct PassDef {
    /// Tokens each sequence feeds through one pass.
    pub(super) chunk: usize,
    pub(super) graph: Graph,
    pub(super) graph_hash: u64,
    pub(super) x_id: TensorId,
    pub(super) mask_id: TensorId,
    pub(super) past_ids: Vec<(TensorId, TensorId)>,
    pub(super) logits_id: TensorId,
    /// Device-buffer names of the per-layer `new_k`/`new_v` graph outputs,
    /// precomputed so the per-pass KV harvest never allocates.
    pub(super) cache_out_names: Vec<(String, String)>,
}

/// Builds and checks a [`ModelDef`]: the decode step at `max_batch`
/// sequences, plus — when the spec has a prefill builder — one prefill pass
/// per menu chunk.
pub(super) fn validate_spec(
    spec: &DecodeModelSpec,
    max_batch: usize,
    chunk_menu: &[usize],
) -> Result<ModelDef, DecodeError> {
    let bad = |msg: String| DecodeError::BadModel(msg);
    if spec.layers < 1 || spec.hidden < 1 || spec.heads < 1 || spec.vocab < 1 {
        return Err(bad("layers/hidden/heads/vocab must be positive".into()));
    }
    if spec.hidden % spec.heads != 0 {
        return Err(bad(format!(
            "heads ({}) must divide hidden ({})",
            spec.heads, spec.hidden
        )));
    }
    if spec.max_context < 1 {
        return Err(bad("max_context must be at least 1".into()));
    }
    let batch = max_batch as i64;
    let graph = (spec.builder)(batch, spec.max_context);
    let step = validate_pass(spec, graph, batch, 1, "decode step")?;
    let mut prefill = Vec::new();
    if let Some(prefill_builder) = &spec.prefill_builder {
        for &chunk in chunk_menu {
            let c = chunk as i64;
            if c > spec.max_context {
                continue; // a chunk can never exceed a sequence's cache need
            }
            let graph = prefill_builder(c, spec.max_context);
            prefill.push(validate_pass(
                spec,
                graph,
                1,
                c,
                &format!("prefill[{chunk}]"),
            )?);
        }
    }
    let embed = Tensor::randn(&[spec.vocab, spec.hidden], spec.embed_seed)
        .data()
        .expect("randn is materialized")
        .to_vec();
    Ok(ModelDef {
        name: spec.name.clone(),
        layers: spec.layers,
        hidden: spec.hidden as usize,
        heads: spec.heads as usize,
        head_dim: (spec.hidden / spec.heads) as usize,
        vocab: spec.vocab,
        max_context: spec.max_context as usize,
        step,
        embed,
        prefill,
    })
}

/// Checks `graph` against the forward-pass interface for `seqs` sequences ×
/// `chunk` tokens (see [`PassDef`]); `what` names the graph in errors.
fn validate_pass(
    spec: &DecodeModelSpec,
    graph: Graph,
    seqs: i64,
    chunk: i64,
    what: &str,
) -> Result<PassDef, DecodeError> {
    let bad = |msg: String| DecodeError::BadModel(format!("{what}: {msg}"));
    // The graph comes from an arbitrary builder closure: deep-verify it
    // (structure, shape re-inference, KV pairing, mask shape) before
    // trusting its interface — a malformed model is rejected at
    // registration, never inside the step loop.
    let diags = hidet_analysis::verify_graph(&graph, hidet_analysis::VerifyLevel::Deep);
    if hidet_analysis::has_errors(&diags) {
        return Err(bad(format!(
            "failed verification: {}",
            hidet_analysis::render_text(&diags).trim_end()
        )));
    }
    let expect_inputs = 2 + 2 * spec.layers;
    let expect_outputs = 1 + 2 * spec.layers;
    if graph.inputs().len() != expect_inputs {
        return Err(bad(format!(
            "expected {expect_inputs} graph inputs (x, mask, caches), got {}",
            graph.inputs().len()
        )));
    }
    if graph.outputs().len() != expect_outputs {
        return Err(bad(format!(
            "expected {expect_outputs} graph outputs (logits, caches), got {}",
            graph.outputs().len()
        )));
    }
    let check = |t: TensorId, want: &[i64], part: &str| -> Result<(), DecodeError> {
        let got = graph.tensor(t).shape();
        if got != want {
            return Err(bad(format!("{part} has shape {got:?}, expected {want:?}")));
        }
        Ok(())
    };
    let rows = seqs * spec.heads;
    let head_dim = spec.hidden / spec.heads;
    let past = spec.max_context;
    let x_id = graph.inputs()[0];
    let mask_id = graph.inputs()[1];
    check(x_id, &[seqs * chunk, spec.hidden], "input x")?;
    check(mask_id, &[rows, chunk, past + chunk], "input mask")?;
    let mut past_ids = Vec::with_capacity(spec.layers);
    let mut cache_out_names = Vec::with_capacity(spec.layers);
    for l in 0..spec.layers {
        let pk = graph.inputs()[2 + 2 * l];
        let pv = graph.inputs()[3 + 2 * l];
        check(pk, &[rows, past, head_dim], "past_k input")?;
        check(pv, &[rows, past, head_dim], "past_v input")?;
        past_ids.push((pk, pv));
        let nk = graph.outputs()[1 + 2 * l];
        let nv = graph.outputs()[2 + 2 * l];
        check(nk, &[rows, past + chunk, head_dim], "new_k output")?;
        check(nv, &[rows, past + chunk, head_dim], "new_v output")?;
        cache_out_names.push((format!("t{}", nk.0), format!("t{}", nv.0)));
    }
    let logits_id = graph.outputs()[0];
    check(logits_id, &[seqs * chunk, spec.vocab], "logits output")?;
    Ok(PassDef {
        chunk: chunk as usize,
        graph_hash: graph.structural_hash(),
        x_id,
        mask_id,
        past_ids,
        logits_id,
        cache_out_names,
        graph,
    })
}

/// A model definition's identity: runtime state is keyed by it, so a
/// re-registered name gets fresh state while in-flight sessions keep theirs.
pub(super) fn def_key(def: &Arc<ModelDef>) -> usize {
    Arc::as_ptr(def) as usize
}

pub(super) struct Shared {
    /// The engine's one sanitised configuration
    /// ([`DecodeConfig::sanitized`]); `config.devices[s]` is shard `s`
    /// everywhere.
    pub(super) config: DecodeConfig,
    /// While set, the step loop sleeps and admits nothing
    /// ([`DecodeConfig::start_paused`] / [`DecodeEngine::resume`]).
    pub(super) paused: AtomicBool,
    pub(super) registry: Mutex<HashMap<String, Arc<ModelDef>>>,
    pub(super) waiting: Mutex<Waiting>,
    pub(super) cv: Condvar,
    pub(super) closed: AtomicBool,
    pub(super) stats: Arc<DecodeStats>,
    pub(super) next_rank: AtomicU64,
}

/// The decode engine. See the [module docs](crate::engine) for the
/// architecture and `examples/decode_serving.rs` for a tour.
pub struct DecodeEngine {
    shared: Arc<Shared>,
    worker: Option<thread::JoinHandle<()>>,
}

impl DecodeEngine {
    /// Starts the engine's step loop on a background thread.
    pub fn new(config: DecodeConfig) -> DecodeEngine {
        let config = config.sanitized();
        let stats = Arc::new(DecodeStats::for_shards(
            config.devices.iter().map(|d| d.name.clone()).collect(),
        ));
        stats.max_batch.store(config.max_batch, Ordering::Relaxed);
        let waiting = Waiting {
            shards: config
                .devices
                .iter()
                .map(|_| WaitQueues::default())
                .collect(),
        };
        let shared = Arc::new(Shared {
            paused: AtomicBool::new(config.start_paused),
            config,
            registry: Mutex::new(HashMap::new()),
            waiting: Mutex::new(waiting),
            cv: Condvar::new(),
            closed: AtomicBool::new(false),
            stats,
            next_rank: AtomicU64::new(1),
        });
        let worker = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("hidet-decode".into())
                .spawn(move || step_loop(&shared))
                .expect("spawn decode step loop")
        };
        DecodeEngine {
            shared,
            worker: Some(worker),
        }
    }

    /// Registers a decode model, validating that the builder's graph at the
    /// engine's fixed `(max_batch, max_context)` shape follows the
    /// decode-step interface (see
    /// [`hidet_graph::models::transformer_decode_step`]). Re-registering a
    /// name replaces the definition for *new* sessions; in-flight sessions
    /// finish against the one they started with.
    ///
    /// # Errors
    /// [`DecodeError::BadModel`] on an interface mismatch,
    /// [`DecodeError::Closed`] after shutdown began.
    pub fn register(&self, spec: DecodeModelSpec) -> Result<DecodeModel, DecodeError> {
        if self.shared.closed.load(Ordering::SeqCst) {
            return Err(DecodeError::Closed);
        }
        let config = &self.shared.config;
        let def = validate_spec(&spec, config.max_batch, &config.chunk_menu)?;
        let name = spec.name().to_string();
        self.shared
            .registry
            .lock()
            .expect("registry poisoned")
            .insert(name.clone(), Arc::new(def));
        Ok(DecodeModel {
            name: Arc::from(name),
            shared: Arc::clone(&self.shared),
        })
    }

    /// Releases a [`DecodeConfig::start_paused`] engine: the step loop
    /// begins admitting whatever has queued. Idempotent; a no-op on an
    /// engine that started running.
    pub fn resume(&self) {
        self.shared.paused.store(false, Ordering::SeqCst);
        self.shared.cv.notify_all();
    }

    /// Current decode statistics.
    pub fn stats(&self) -> DecodeStatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// A stats source for
    /// [`hidet_runtime::Engine::attach_decode_stats`]: the serving engine's
    /// `StatsSnapshot::decode` then carries this engine's token-level
    /// metrics. Outlives the engine handle (snapshots freeze after
    /// shutdown).
    pub fn stats_source(&self) -> Arc<dyn Fn() -> DecodeStatsSnapshot + Send + Sync> {
        let stats = Arc::clone(&self.shared.stats);
        Arc::new(move || stats.snapshot())
    }

    /// Stops admitting sessions, drains every active generation to
    /// completion, fails still-queued ones with [`DecodeError::Closed`] and
    /// joins the step loop. Called automatically on drop.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        {
            // Set under the waiting lock so it serializes with `generate`'s
            // locked closed-check + enqueue: every session pushed before
            // this point is visible to the step loop's final drain.
            let _waiting = self.shared.waiting.lock().expect("waiting poisoned");
            self.shared.closed.store(true, Ordering::SeqCst);
        }
        self.shared.cv.notify_all();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

impl Drop for DecodeEngine {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

impl fmt::Debug for DecodeEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DecodeEngine").finish_non_exhaustive()
    }
}

/// Scores every shard for one incoming sequence — estimated queue delay
/// ([`hidet_sim::estimated_queue_delay`] over the shard's active + waiting
/// work across its `max_batch` lanes) plus the KV-headroom penalty
/// ([`placement_score`]) — and returns the cheapest. Ties break to the
/// least total pending work, then the lowest id: the delay estimate is the
/// head-of-queue wait, which plateaus while short sessions fill lanes
/// behind the current minimum, so a burst of submissions would otherwise
/// pile onto one shard until its *head* wait finally moved. Runs under the
/// waiting lock, reading only the gauges the step loop publishes, so
/// placement never touches scheduler state.
pub(super) fn place_shard(
    shared: &Shared,
    waiting: &Waiting,
    model: usize,
    needed_blocks: usize,
) -> usize {
    let config = &shared.config;
    // Shards with no compiled estimate yet are assumed as costly as the
    // hottest known shard (1.0 before any compile — only relative
    // magnitudes matter while everything is cold).
    let mut fallback = 0.0f64;
    for st in &shared.stats.shards {
        let g = st.gauges.lock().expect("stats poisoned");
        fallback = fallback.max(g.step_estimate);
    }
    if fallback <= 0.0 {
        fallback = 1.0;
    }
    let mut best = 0usize;
    let mut best_score = f64::INFINITY;
    let mut best_load = f64::INFINITY;
    for (s, st) in shared.stats.shards.iter().enumerate() {
        let g = st.gauges.lock().expect("stats poisoned");
        let est = if g.step_estimate > 0.0 {
            g.step_estimate
        } else {
            fallback
        };
        let mut pending = g.active_remaining.clone();
        for queue in waiting.shards[s].classes.iter() {
            pending.extend(queue.iter().map(|q| q.remaining_work() as f64 * est));
        }
        let load: f64 = pending.iter().sum();
        let delay = hidet_sim::estimated_queue_delay(&pending, config.max_batch);
        let (free, capacity) = g
            .kv_free
            .get(&model)
            .copied()
            .unwrap_or((config.kv_blocks, config.kv_blocks));
        let score = placement_score(
            delay,
            est,
            needed_blocks,
            free,
            capacity,
            config.block_tokens,
        );
        if score < best_score || (score == best_score && load < best_load) {
            best_score = score;
            best_load = load;
            best = s;
        }
    }
    best
}

/// Per-model runtime state owned by the step loop.
pub(super) struct ModelRt {
    pub(super) def: Arc<ModelDef>,
    /// The fixed-shape decode step, compiled when the runtime is built.
    pub(super) step: PassRt,
    pub(super) kv: KvAllocator,
    /// Lazily compiled prefill runtimes, keyed by chunk size — a chunk costs
    /// compile time only once a prompt long enough to use it shows up.
    pub(super) prefill_rts: HashMap<usize, PassRt>,
    /// Chunks whose prefill graph failed to compile: the scheduler stops
    /// electing them and the affected prompts absorb token-wise instead —
    /// chunked prefill is an optimization, never a liveness dependency.
    pub(super) dead_chunks: HashSet<usize>,
}

/// One compiled forward-pass graph: its plan, analytic latency on the
/// shard's device (simulated seconds) and a dedicated workspace (buffers are
/// shaped by the graph, so passes cannot share one).
pub(super) struct PassRt {
    pub(super) compiled: Arc<hidet::CompiledGraph>,
    pub(super) estimate: f64,
    pub(super) ws: Workspace,
}

/// One decode shard owned by the step loop: its device, per-model runtimes
/// (compiled graphs + KV arenas) and active set. Shards model parallel
/// devices multiplexed by the single engine thread — each shard's pass
/// advances only its own simulated clock.
pub(super) struct ShardRt {
    pub(super) gpu: Gpu,
    pub(super) rts: HashMap<usize, ModelRt>,
    pub(super) active: Vec<Sequence>,
}

impl ShardRt {
    /// `(free, capacity)` KV blocks of every model arena on this shard,
    /// keyed by `ModelDef` identity.
    pub(super) fn kv_headroom(&self) -> HashMap<usize, (usize, usize)> {
        self.rts
            .iter()
            .map(|(key, rt)| {
                let cap = rt.kv.capacity();
                (*key, (cap - rt.kv.blocks_in_use(), cap))
            })
            .collect()
    }
}

/// Recomputes shard `s`'s KV occupancy gauge from its model arenas, then
/// the pool-wide gauge as the sum of every shard's published value (other
/// shards' arenas are untouched since their last refresh, so their gauges
/// are current).
pub(super) fn refresh_shard_kv_gauge(rts: &HashMap<usize, ModelRt>, shared: &Shared, s: usize) {
    let in_use: usize = rts.values().map(|rt| rt.kv.blocks_in_use()).sum();
    let st = &shared.stats.shards[s];
    st.kv_in_use.store(in_use, Ordering::Relaxed);
    st.kv_peak.fetch_max(in_use, Ordering::Relaxed);
    // The cluster-wide occupancy is derived from the shard gauges at
    // snapshot time; only its peak needs the summed value *now* (the peak
    // of the sum is not the sum of per-shard peaks).
    let total: usize = shared
        .stats
        .shards
        .iter()
        .map(|st| st.kv_in_use.load(Ordering::Relaxed))
        .sum();
    shared.stats.kv_peak.fetch_max(total, Ordering::Relaxed);
}

impl IterCtx<'_> {
    /// The model's runtime on this shard, built on first use: the
    /// fixed-shape step graph compiled, plus a fresh KV arena.
    pub(super) fn ensure_rt<'r>(
        &self,
        rts: &'r mut HashMap<usize, ModelRt>,
        def: &Arc<ModelDef>,
    ) -> Result<&'r mut ModelRt, DecodeError> {
        match rts.entry(def_key(def)) {
            std::collections::hash_map::Entry::Occupied(entry) => Ok(entry.into_mut()),
            std::collections::hash_map::Entry::Vacant(entry) => {
                let step = self.compile_pass(&def.step)?;
                let config = &self.shared.config;
                let layout = KvLayout {
                    layers: def.layers,
                    hidden: def.hidden,
                    block_tokens: config.block_tokens,
                };
                let kv = KvAllocator::new(layout, config.kv_blocks);
                self.shared.stats.shards[self.shard]
                    .kv_capacity
                    .fetch_add(kv.capacity(), Ordering::Relaxed);
                Ok(entry.insert(ModelRt {
                    def: Arc::clone(def),
                    step,
                    kv,
                    prefill_rts: HashMap::new(),
                    dead_chunks: HashSet::new(),
                }))
            }
        }
    }

    /// Compiles one forward-pass graph for this shard's device through the
    /// engine-wide cache, seeding compact schedules first when tuning is off
    /// (see [`DecodeConfig::options`]).
    pub(super) fn compile_pass(&self, pass: &PassDef) -> Result<PassRt, DecodeError> {
        let config = &self.shared.config;
        if !config.options.tune {
            seed_compact_tiles(&pass.graph, self.gpu, self.options);
        }
        let (compiled, _) = self
            .cache
            .get_or_compile_hashed(
                &pass.graph,
                pass.graph_hash,
                self.gpu,
                self.options,
                config.artifact_store.as_deref(),
            )
            .map_err(|e| DecodeError::Compile(e.to_string()))?;
        let estimate = compiled.estimate(self.gpu);
        Ok(PassRt {
            compiled,
            estimate,
            ws: Workspace::new(),
        })
    }
}

/// Seeds `options`' tuning cache with the smallest-footprint valid schedule
/// for every matmul problem in `graph`, so the compiler schedules them with
/// zero trials. Decode-step GEMMs have `M = max_batch` (a handful of rows):
/// the smallest hardware-aligned tile both estimates and interprets far
/// cheaper than the mid-size default.
fn seed_compact_tiles(graph: &Graph, gpu: &Gpu, options: &CompilerOptions) {
    let Some(cache) = &options.tuning_cache else {
        return;
    };
    let spec = gpu.spec();
    let compact = hidet_sched::matmul_space(spec)
        .into_iter()
        .min_by_key(|c| (c.threads(), c.block_m * c.block_n, c.block_k, c.stages))
        .expect("schedule space is non-empty");
    let device = spec.fingerprint();
    let mut cache = cache.lock().expect("tuning cache poisoned");
    for op in graph.ops() {
        let problem = match op.kind {
            hidet_graph::OpKind::Matmul => {
                let a = graph.tensor(op.inputs[0]).shape();
                let b = graph.tensor(op.inputs[1]).shape();
                hidet_sched::MatmulProblem::new(a[0], b[1], a[1])
            }
            hidet_graph::OpKind::BatchMatmul => {
                let a = graph.tensor(op.inputs[0]).shape();
                let b = graph.tensor(op.inputs[1]).shape();
                hidet_sched::MatmulProblem {
                    batch: a[0],
                    m: a[1],
                    n: b[2],
                    k: a[2],
                }
            }
            _ => continue,
        };
        if cache.lookup(&device, problem).is_none() {
            cache.insert(
                &device,
                hidet_sched::TuningRecord {
                    problem,
                    config: compact,
                    trials: 1,
                    tuning_seconds: 0.0,
                    best_latency_us: 1.0,
                },
            );
        }
    }
}

/// Additive mask value for non-attendable positions: large enough that
/// `exp(score + MASK)` underflows to exactly `0.0` after the row-max shift,
/// making padded positions bit-transparent to softmax.
const MASK_NEG: f32 = -1.0e9;

/// The engine's background thread: admission, step execution, KV
/// bookkeeping, token emission — per shard, one pass each per outer
/// iteration.
pub(super) fn step_loop(shared: &Shared) {
    let config = &shared.config;
    let cache = CompiledCache::new();
    // Compact schedules (see `DecodeConfig::options`): with tuning off, one
    // shared record store, seeded per graph in `IterCtx::compile_pass` and
    // served with zero trials.
    let options = if config.options.tune {
        config.options.clone()
    } else {
        let mut options = config
            .options
            .clone()
            .with_tuning_cache(Arc::new(Mutex::new(hidet_sched::TuningCache::new())));
        options.tune = true;
        options
    };
    // Order-stable reductions, unconditionally: the chunked-prefill contract
    // — token streams and KV contents bit-identical to token-wise absorption
    // — holds only when every reduction in *both* graph families accumulates
    // in pure element-index order, so the same real terms sum in the same
    // order regardless of how many padded positions surround them (see
    // `CompilerOptions::order_stable_reductions`).
    let options = options.order_stable();
    // One ShardRt per device; within a shard, per-ModelDef runtimes are
    // keyed by definition identity — a re-registered name gets fresh state
    // while in-flight sessions keep theirs.
    let mut shards: Vec<ShardRt> = config
        .devices
        .iter()
        .map(|spec| ShardRt {
            gpu: Gpu::new(spec.clone()),
            rts: Default::default(),
            active: Vec::new(),
        })
        .collect();
    let nshards = shards.len();
    let mut rebalance_cooldown = 0u64;

    loop {
        // --- admission ---------------------------------------------------
        {
            let mut waiting = shared.waiting.lock().expect("waiting poisoned");
            loop {
                let now = Instant::now();
                fail_waiting(shared, &mut waiting, DecodeError::DeadlineExceeded, |seq| {
                    seq.expired(now)
                });
                if shared.closed.load(Ordering::SeqCst) {
                    // Sessions that never started (rank 0 — assigned at
                    // first admission) are failed; in-flight ones — active
                    // or KV-preempted back into a queue — drain to
                    // completion, honoring the shutdown contract.
                    fail_waiting(shared, &mut waiting, DecodeError::Closed, |seq| {
                        seq.rank == 0
                    });
                }
                // A paused engine sleeps; shutdown overrides the pause so
                // a never-resumed engine still drains and exits.
                let paused =
                    shared.paused.load(Ordering::SeqCst) && !shared.closed.load(Ordering::SeqCst);
                if !paused {
                    for (s, shard) in shards.iter_mut().enumerate() {
                        let admit = match config.mode {
                            BatchingMode::Continuous => true,
                            BatchingMode::Static => shard.active.is_empty(),
                        };
                        if !admit {
                            continue;
                        }
                        let now = shared.stats.shard_clock(s);
                        while shard.active.len() < config.max_batch {
                            let Some(mut seq) = waiting.shards[s].pop_highest() else {
                                break;
                            };
                            seq.rank = shared.next_rank.fetch_add(1, Ordering::Relaxed);
                            if seq.admitted_sim.is_none() {
                                seq.admitted_sim = Some(now);
                                if seq.forced.is_empty() {
                                    // Single-token prompt: there is nothing
                                    // to prefill, the whole TTFT is
                                    // first-decode.
                                    seq.prompt_done_sim = Some(now);
                                }
                            }
                            shard.active.push(seq);
                        }
                    }
                }
                if shards.iter().any(|sh| !sh.active.is_empty()) {
                    break;
                }
                if shared.closed.load(Ordering::SeqCst) && waiting.is_empty() {
                    return;
                }
                waiting = shared.cv.wait(waiting).expect("waiting poisoned");
            }

            // Drop runtime state of departed model definitions: a
            // re-registration replaces the `ModelDef` identity, and once no
            // registry entry, active sequence or waiting sequence reaches
            // the old one, its workspace and KV arena can never be used
            // again — keeping them would leak an arena per re-registration.
            // (`generate` never holds the registry and waiting locks at
            // once, so taking registry inside waiting cannot deadlock.)
            if shards.iter().any(|sh| !sh.rts.is_empty()) {
                let mut live: HashSet<usize> = shards
                    .iter()
                    .flat_map(|sh| sh.active.iter().map(|s| def_key(&s.def)))
                    .collect();
                for queue in waiting.shards.iter().flat_map(|wq| wq.classes.iter()) {
                    live.extend(queue.iter().map(|s| def_key(&s.def)));
                }
                {
                    let registry = shared.registry.lock().expect("registry poisoned");
                    live.extend(registry.values().map(def_key));
                }
                for (s, shard) in shards.iter_mut().enumerate() {
                    let before = shard.rts.len();
                    shard.rts.retain(|key, rt| {
                        let keep = live.contains(key);
                        if !keep {
                            shared.stats.shards[s]
                                .kv_capacity
                                .fetch_sub(rt.kv.capacity(), Ordering::Relaxed);
                        }
                        keep
                    });
                    if shard.rts.len() != before {
                        refresh_shard_kv_gauge(&shard.rts, shared, s);
                    }
                }
            }
        }

        // --- deadline check for active sequences -------------------------
        let now = Instant::now();
        for (s, shard) in shards.iter_mut().enumerate() {
            let mut i = 0;
            let mut removed = false;
            while i < shard.active.len() {
                if shard.active[i].expired(now) {
                    let mut seq = shard.active.swap_remove(i);
                    if let Some(rt) = shard.rts.get_mut(&def_key(&seq.def)) {
                        rt.kv.release(&mut seq.kv);
                    }
                    removed = true;
                    fail(shared, &seq, DecodeError::DeadlineExceeded);
                } else {
                    i += 1;
                }
            }
            if removed {
                refresh_shard_kv_gauge(&shard.rts, shared, s);
            }
        }

        // --- one pass per shard: a step per model with active sequences ---
        for s in 0..nshards {
            if shards[s].active.is_empty() {
                continue;
            }
            // The headroom view migration targets are chosen against,
            // debited as targets are picked within the pass. Entries for
            // shards processed earlier this iteration are fresh; later ones
            // may be one pass stale — safe, because a migrated-to shard
            // re-resolves pressure itself at admission.
            let mut view = ClusterView::collect(&shards, config.kv_blocks);
            let shard = &mut shards[s];
            let mut model_keys: Vec<usize> = Vec::new();
            for seq in &shard.active {
                let key = def_key(&seq.def);
                if !model_keys.contains(&key) {
                    model_keys.push(key);
                }
            }
            for key in model_keys {
                // Extract this model's batch (slot order = active order).
                let (batch, rest): (Vec<Sequence>, Vec<Sequence>) =
                    std::mem::take(&mut shard.active)
                        .into_iter()
                        .partition(|seq| def_key(&seq.def) == key);
                shard.active = rest;
                let def = Arc::clone(&batch[0].def);
                let ctx = IterCtx {
                    shared,
                    gpu: &shard.gpu,
                    cache: &cache,
                    options: &options,
                    shard: s,
                    view: &mut view,
                    state: vec![SlotState::Live; batch.len()],
                    batch,
                    terminal: Vec::new(),
                };
                let rt = match ctx.ensure_rt(&mut shard.rts, &def) {
                    Ok(rt) => rt,
                    Err(err) => {
                        for seq in &ctx.batch {
                            fail(shared, seq, err.clone());
                        }
                        continue;
                    }
                };
                let outcome = ctx.run_iteration(rt);
                shard.active.extend(outcome.survivors);
                refresh_shard_kv_gauge(&shard.rts, shared, s);
                // Terminal events go out only after the gauges are current,
                // so a client that observed `Done` sees post-release
                // occupancy.
                for (tx, event) in outcome.terminal {
                    let _ = tx.send(event);
                }
            }
        }

        // --- step-loop-initiated migration: stress knob, then rebalance ---
        stress_migrate(shared, &mut shards);
        if nshards > 1 {
            if rebalance_cooldown > 0 {
                rebalance_cooldown -= 1;
            } else if rebalance(shared, &mut shards) {
                rebalance_cooldown = REBALANCE_COOLDOWN_ITERS;
            }
        }

        // --- placement gauge publish --------------------------------------
        for (s, shard) in shards.iter().enumerate() {
            let est = shard
                .rts
                .values()
                .map(|rt| rt.step.estimate)
                .fold(0.0f64, f64::max);
            let mut gauges = shared.stats.shards[s]
                .gauges
                .lock()
                .expect("stats poisoned");
            gauges.step_estimate = est;
            gauges.active_remaining = shard
                .active
                .iter()
                .map(|seq| {
                    let e = shard
                        .rts
                        .get(&def_key(&seq.def))
                        .map_or(if est > 0.0 { est } else { 1.0 }, |rt| rt.step.estimate);
                    seq.remaining_work() as f64 * e
                })
                .collect();
            gauges.kv_free = shard.kv_headroom();
        }
    }
}

/// Fails one sequence with `err`: counted, and the error sent down its
/// session channel (a client that already hung up is not an error).
fn fail(shared: &Shared, seq: &Sequence, err: DecodeError) {
    shared.stats.failed.fetch_add(1, Ordering::Relaxed);
    let _ = seq.tx.send(Event::Failed(err));
}

/// Fails every waiting sequence `doomed` selects with `err`, keeping the
/// rest queued in order.
fn fail_waiting(
    shared: &Shared,
    waiting: &mut Waiting,
    err: DecodeError,
    doomed: impl Fn(&Sequence) -> bool,
) {
    for queue in waiting
        .shards
        .iter_mut()
        .flat_map(|wq| wq.classes.iter_mut())
    {
        if !queue.iter().any(&doomed) {
            continue;
        }
        let mut keep = VecDeque::with_capacity(queue.len());
        for seq in queue.drain(..) {
            if doomed(&seq) {
                fail(shared, &seq, err.clone());
            } else {
                keep.push_back(seq);
            }
        }
        *queue = keep;
    }
}

/// Everything one scheduler iteration — one shard × one model — reads and
/// writes: the engine-wide pieces it compiles and books against, the shard
/// it runs on, the pool's headroom view, and the iteration's own batch with
/// its per-slot outcomes and deferred terminal events.
pub(super) struct IterCtx<'a> {
    pub(super) shared: &'a Shared,
    pub(super) gpu: &'a Gpu,
    pub(super) cache: &'a CompiledCache,
    pub(super) options: &'a CompilerOptions,
    /// The shard this iteration runs on.
    pub(super) shard: usize,
    pub(super) view: &'a mut ClusterView,
    /// The model's active sequences on this shard (slot order = extraction
    /// order).
    pub(super) batch: Vec<Sequence>,
    /// Per-slot outcome so far, parallel to `batch`.
    pub(super) state: Vec<SlotState>,
    /// `Done`/`Failed` events to deliver *after* the iteration's gauges are
    /// refreshed.
    pub(super) terminal: Vec<(mpsc::Sender<Event>, Event)>,
}

/// What one [`IterCtx::run_iteration`] hands back to the loop: sequences
/// staying active, and terminal `Done`/`Failed` events to deliver *after*
/// the step's gauges are refreshed.
pub(super) struct StepOutcome {
    survivors: Vec<Sequence>,
    terminal: Vec<(mpsc::Sender<Event>, Event)>,
}

/// Per-slot outcome of one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum SlotState {
    /// Still generating: stays active.
    Live,
    /// Preempted by KV pressure: cache freed, replay chain built, requeued
    /// on the same shard.
    Evicted,
    /// Live-migrated: cache freed, replay chain built, re-admitted at the
    /// front of the target shard's queue.
    Migrated(usize),
    /// Finished or failed: response sent, cache freed.
    Dropped,
}

/// Chunk-size election: the largest compiled chunk that fits both the
/// remaining feed chain and the iteration's leftover token budget. `None`
/// sends the sequence down the token-wise path (tail smaller than the
/// smallest chunk, budget exhausted, or chunking disabled).
fn elect_chunk(remaining: usize, menu: &[usize], budget: usize) -> Option<usize> {
    menu.iter()
        .copied()
        .filter(|&c| c <= remaining && c <= budget)
        .max()
}

impl IterCtx<'_> {
    /// One scheduler iteration for the batch (all sequences share `rt`'s
    /// model): a prefill phase — chunked prompt absorption under the
    /// iteration token budget, in `(priority, rank)` order — followed by one
    /// decode step for every live sequence that did not prefill. A sequence
    /// advances through exactly one forward pass per iteration, so decodes
    /// never observe more than one prefill-chunk bubble between tokens.
    pub(super) fn run_iteration(mut self, rt: &mut ModelRt) -> StepOutcome {
        // Iteration spans are shard-scoped (many sequences), so they carry
        // trace id 0; the nested prefill/decode spans attribute per-sequence.
        let _span = hidet_trace::global().span(SpanKind::DecodeIteration, 0);
        let shared = self.shared;
        let config = &shared.config;
        let n = self.batch.len();
        let mut prefilled = vec![false; n];

        // --- prefill phase -------------------------------------------------
        // Static mode stays the pure token-wise baseline the serving benches
        // compare against.
        if config.mode == BatchingMode::Continuous
            && !rt.def.prefill.is_empty()
            && config.prefill_token_budget > 0
        {
            let mut budget = config.prefill_token_budget;
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by_key(|&i| self.batch[i].key());
            for i in order {
                if self.state[i] != SlotState::Live || self.batch[i].forced.is_empty() {
                    // Plain decode, or the final chain token: token-wise path.
                    continue;
                }
                let menu: Vec<usize> = rt
                    .def
                    .prefill
                    .iter()
                    .map(|p| p.chunk)
                    .filter(|c| !rt.dead_chunks.contains(c))
                    .collect();
                let remaining = 1 + self.batch[i].forced.len();
                let Some(chunk) = elect_chunk(remaining, &menu, budget) else {
                    continue;
                };
                if self.run_prefill(rt, i, chunk) {
                    budget -= chunk;
                    prefilled[i] = true;
                }
            }
        }

        // --- decode step for everything that did not prefill ---------------
        let decode_slots: Vec<usize> = (0..n)
            .filter(|&i| self.state[i] == SlotState::Live && !prefilled[i])
            .collect();
        if !decode_slots.is_empty() {
            // A decode step covers the whole batch; attribute it to the
            // first slot's trace so at least one request's timeline shows
            // the step.
            let _span = hidet_trace::global()
                .span(SpanKind::DecodeStep, self.batch[decode_slots[0]].trace_id);
            self.forward(rt, &decode_slots, None);
        }
        if prefilled.contains(&true) {
            shared
                .stats
                .prefill_iterations
                .fetch_add(1, Ordering::Relaxed);
            if !decode_slots.is_empty() {
                shared
                    .stats
                    .interleaved_iterations
                    .fetch_add(1, Ordering::Relaxed);
            }
        }

        // Reassemble: live sequences stay active; evicted ones rejoin the
        // head of their class queue (they re-admit before newcomers of their
        // class, but with a fresh — higher — rank, so the total eviction
        // order can never cycle); migrated ones rejoin the *target shard's*
        // queue head with their time anchors rebased. Finished/failed
        // sequences drop here; their channels already carried Done/Failed.
        let mut survivors = Vec::with_capacity(n);
        let mut requeue: Vec<Sequence> = Vec::new();
        let mut migrations: Vec<(Sequence, usize)> = Vec::new();
        for (seq, state) in self.batch.into_iter().zip(self.state) {
            match state {
                SlotState::Live => survivors.push(seq),
                SlotState::Evicted => requeue.push(seq),
                SlotState::Migrated(target) => migrations.push((seq, target)),
                SlotState::Dropped => {}
            }
        }
        if !requeue.is_empty() {
            let mut waiting = shared.waiting.lock().expect("waiting poisoned");
            for seq in requeue.into_iter().rev() {
                waiting.shards[self.shard].classes[seq.priority.index()].push_front(seq);
            }
            drop(waiting);
            shared.cv.notify_all();
        }
        for (seq, target) in migrations {
            migrate_sequence(shared, seq, self.shard, target);
        }
        StepOutcome {
            survivors,
            terminal: self.terminal,
        }
    }

    /// Absorbs one `chunk`-token slice of `batch[slot]`'s feed chain through
    /// the chunk's prefill graph, compiling it on first use. Returns whether
    /// the pass ran (and thus consumed budget); `false` means the chunk's
    /// graph failed to compile — it is retired to `dead_chunks` and the
    /// sequence falls through to the token-wise path, untouched.
    fn run_prefill(&mut self, rt: &mut ModelRt, slot: usize, chunk: usize) -> bool {
        let _span = hidet_trace::global().span(SpanKind::PrefillChunk, self.batch[slot].trace_id);
        if !rt.prefill_rts.contains_key(&chunk) {
            match self.compile_pass(rt.def.prefill_pass(chunk)) {
                Ok(prt) => rt.prefill_rts.insert(chunk, prt),
                Err(_) => {
                    rt.dead_chunks.insert(chunk);
                    return false;
                }
            };
        }
        self.forward(rt, &[slot], Some(chunk));
        true
    }

    /// The one forward-pass routine: stage embeddings, mask and KV past for
    /// `slots` → run the graph → append KV (with eviction + recompute under
    /// pressure) and harvest the fresh rows → advance each feed chain, and
    /// emit/retire where a chain ran out. `prefill_chunk` picks the graph
    /// and with it the row layout: `None` is the decode step — chunk 1 ×
    /// many sequences, buffer row `pos` belonging to `slots[pos]` (rows of
    /// sequences that prefilled this iteration simply stay staged to zero) —
    /// and `Some(c)` the `c`-token prefill pass of the single sequence in
    /// `slots`. When a pass consumes a sequence's whole chain, its last
    /// logits row yields the next token — so a chunk ending a prompt emits
    /// the first generated token in the same pass.
    fn forward(&mut self, rt: &mut ModelRt, slots: &[usize], prefill_chunk: Option<usize>) {
        let ModelRt {
            def,
            step,
            kv,
            prefill_rts,
            ..
        } = rt;
        let (pass, prt) = match prefill_chunk {
            None => (&def.step, step),
            Some(c) => (
                def.prefill_pass(c),
                prefill_rts.get_mut(&c).expect("compiled above"),
            ),
        };
        let plan = prt.compiled.plan();
        let chunk = pass.chunk;
        let (hidden, heads, head_dim) = (def.hidden, def.heads, def.head_dim);
        let mc = def.max_context;
        let vocab = def.vocab as usize;
        // Every sequence owns `heads` rows of `chunk` positions over
        // `mc + chunk` attendable columns: the cached past, then the chunk.
        let span = mc + chunk;

        // --- stage inputs (in place: zero steady-state allocations) -------
        let x = prt
            .ws
            .input_mut(plan, pass.x_id)
            .expect("x id validated at registration");
        x.fill(0.0);
        for (pos, &i) in slots.iter().enumerate() {
            let seq = &self.batch[i];
            let chain = std::iter::once(seq.pending).chain(seq.forced.iter().copied());
            for (j, token) in chain.take(chunk).enumerate() {
                let (row, t) = ((pos * chunk + j) * hidden, token as usize * hidden);
                x[row..row + hidden].copy_from_slice(&def.embed[t..t + hidden]);
            }
        }
        // Causal mask: chunk position `j` of a sequence with `p` cached
        // tokens attends them (columns `0..p`) and chunk positions `0..=j`
        // (columns `mc..=mc + j`) — for a decode step, just "the current
        // token is always attendable". Padded cache slots and intra-chunk
        // future positions stay at MASK_NEG, bit-transparent to softmax.
        let mask = prt
            .ws
            .input_mut(plan, pass.mask_id)
            .expect("mask id validated at registration");
        mask.fill(MASK_NEG);
        for (r, row) in mask.chunks_exact_mut(span).enumerate() {
            row[mc..=mc + r % chunk].fill(0.0);
        }
        for (pos, &i) in slots.iter().enumerate() {
            let p = self.batch[i].kv.tokens();
            for r in pos * heads * chunk..(pos + 1) * heads * chunk {
                mask[r * span..r * span + p].fill(0.0);
            }
        }
        // The gather re-stages every sequence's full cache each pass. An
        // incremental variant (resident past buffers, appending only the new
        // token's rows) would save O(tokens) copies per slot, but needs
        // stable slot assignment across steps — today slots are re-derived
        // from the active order, which shifts as sequences retire. Host cost
        // is dominated by kernel interpretation, not these copies, so stable
        // slots are left as future work.
        for (l, &(pk_id, pv_id)) in pass.past_ids.iter().enumerate() {
            for (stream, id) in [(0usize, pk_id), (1usize, pv_id)] {
                let buf = prt
                    .ws
                    .input_mut(plan, id)
                    .expect("cache ids validated at registration");
                buf.fill(0.0);
                for (pos, &i) in slots.iter().enumerate() {
                    let seq = &self.batch[i];
                    for t in 0..seq.kv.tokens() {
                        let lane = kv.lane(&seq.kv, t, l, stream);
                        for h in 0..heads {
                            let dst = ((pos * heads + h) * mc + t) * head_dim;
                            buf[dst..dst + head_dim]
                                .copy_from_slice(&lane[h * head_dim..(h + 1) * head_dim]);
                        }
                    }
                }
            }
        }

        // --- forward pass --------------------------------------------------
        let stats = &self.shared.stats;
        if let Err(err) = prt.ws.run_prepared(plan, self.gpu) {
            let err = DecodeError::Execution(match prefill_chunk {
                None => format!("{}: {err}", def.name),
                Some(c) => format!("{} prefill[{c}]: {err}", def.name),
            });
            for &i in slots {
                self.fail_slot(kv, i, err.clone());
            }
            return;
        }
        if prefill_chunk.is_some() {
            stats.prefill_passes.fetch_add(1, Ordering::Relaxed);
        } else {
            stats.shards[self.shard]
                .steps
                .fetch_add(1, Ordering::Relaxed);
            stats
                .occupied_slots
                .fetch_add(slots.len(), Ordering::Relaxed);
        }
        let now = stats.advance_shard_clock(self.shard, prt.estimate, prefill_chunk.is_some());

        // --- append + harvest KV, advance chains, emit/retire --------------
        for (pos, &i) in slots.iter().enumerate() {
            if self.state[i] != SlotState::Live {
                continue; // preempted by an earlier slot's append this pass
            }
            let remaining = 1 + self.batch[i].forced.len();
            let mut absorbed = 0usize;
            for j in 0..chunk {
                let Some(kvslot) = self.append_with_pressure(kv, i) else {
                    // Self-preempted (replay chain rebuilt from what was
                    // harvested) or dropped — either way this pass is over.
                    break;
                };
                // Harvest the new K/V rows device-to-device: the concat
                // outputs hold the chunk at sequence positions
                // `mc..mc + chunk` of each of the sequence's per-head rows.
                for (l, (nk_name, nv_name)) in pass.cache_out_names.iter().enumerate() {
                    for (stream, name) in [(0usize, nk_name), (1usize, nv_name)] {
                        for h in 0..heads {
                            let src = ((pos * heads + h) * span + mc + j) * head_dim;
                            kv.copy_into_lane(
                                kvslot,
                                l,
                                stream,
                                h * head_dim,
                                prt.ws.device_memory(),
                                name,
                                src,
                                head_dim,
                            );
                        }
                    }
                }
                let seq = &mut self.batch[i];
                seq.fed.push(seq.pending);
                absorbed += 1;
                if let Some(next) = seq.forced.pop_front() {
                    seq.pending = next;
                }
            }
            if prefill_chunk.is_some() && absorbed > 0 {
                stats.prefill_tokens.fetch_add(absorbed, Ordering::Relaxed);
            }
            if self.state[i] != SlotState::Live {
                continue;
            }
            let seq = &mut self.batch[i];
            if absorbed < remaining {
                // Mid-chain — prompt absorption or post-eviction replay: the
                // model's output is already known; keep feeding the chain.
                stats.prompt_tokens.fetch_add(absorbed, Ordering::Relaxed);
                if seq.forced.is_empty() && seq.emitted == 0 && seq.prompt_done_sim.is_none() {
                    seq.prompt_done_sim = Some(now);
                }
                continue;
            }
            // The pass consumed the whole chain: the last row's logits are
            // this sequence's next token. For a first-time prompt ending in
            // a prefill chunk that token is the first emission — TTFT lands
            // here, a whole chunk earlier than token-wise absorption would
            // have allowed.
            stats
                .prompt_tokens
                .fetch_add(absorbed - 1, Ordering::Relaxed);
            if seq.emitted == 0 && seq.prompt_done_sim.is_none() {
                seq.prompt_done_sim = Some(now);
            }
            let logits = prt
                .ws
                .output(pass.logits_id)
                .expect("logits are a graph output");
            let row = (pos + 1) * chunk - 1;
            let token = argmax(&logits[row * vocab..(row + 1) * vocab]);
            self.state[i] = self.emit_token(kv, i, token, now);
        }
    }

    /// Drops `batch[slot]` with `err`: its blocks released, the failure
    /// counted, the error queued as the slot's terminal event.
    pub(super) fn fail_slot(&mut self, kv: &mut KvAllocator, slot: usize, err: DecodeError) {
        let seq = &mut self.batch[slot];
        kv.release(&mut seq.kv);
        self.shared.stats.failed.fetch_add(1, Ordering::Relaxed);
        self.terminal.push((seq.tx.clone(), Event::Failed(err)));
        self.state[slot] = SlotState::Dropped;
    }

    /// Emits a freshly decoded token for `batch[slot]` — TTFT on first
    /// emission (with its queue/prefill/first-decode decomposition), ITL
    /// afterwards — and retires the sequence when it finished. Returns the
    /// slot's next state.
    fn emit_token(&mut self, kv: &mut KvAllocator, slot: usize, token: u32, now: f64) -> SlotState {
        let stats = &self.shared.stats;
        let seq = &mut self.batch[slot];
        let index = seq.emitted;
        seq.emitted += 1;
        if seq.ttft.is_none() {
            let submitted = seq.submitted_sim;
            let admitted = seq.admitted_sim.unwrap_or(submitted);
            let prompt_done = seq.prompt_done_sim.unwrap_or(admitted);
            seq.ttft = Some(now - submitted);
            seq.ttft_admission = Some(now - admitted);
            stats.record_first_token(submitted, admitted, prompt_done, now);
        } else {
            stats.record_itl(now - seq.last_token_sim);
        }
        seq.last_token_sim = now;
        stats.shards[self.shard]
            .tokens
            .fetch_add(1, Ordering::Relaxed);
        let delivered = seq
            .tx
            .send(Event::Token(TokenEvent {
                token,
                index,
                sim_time_seconds: now,
            }))
            .is_ok();
        let finished = seq.emitted >= seq.max_tokens || seq.eos == Some(token) || !delivered;
        if finished {
            kv.release(&mut seq.kv);
            self.terminal.push((
                seq.tx.clone(),
                Event::Done {
                    ttft_from_submit_seconds: seq.ttft.expect("at least one token emitted"),
                    ttft_from_admission_seconds: seq.ttft_admission.expect("set alongside ttft"),
                    completion_sim_seconds: now,
                },
            ));
            stats.completed.fetch_add(1, Ordering::Relaxed);
            SlotState::Dropped
        } else {
            seq.pending = token;
            SlotState::Live
        }
    }
}

/// Greedy decode: index of the row maximum (ties break to the lowest
/// index, so decoding is fully deterministic).
fn argmax(row: &[f32]) -> u32 {
    let mut best = 0usize;
    for (i, &v) in row.iter().enumerate().skip(1) {
        if v > row[best] {
            best = i;
        }
    }
    best as u32
}

/// Pressure-relief migrations one sequence may take before it must stay put
/// and requeue locally — two overloaded shards cannot ping-pong a session
/// between them forever.
const PRESSURE_MOVE_LIMIT: u32 = 3;

/// KV in-use fraction of the fullest shard above which the rebalancer
/// considers moving a session off it at all.
const REBALANCE_HOT_FRACTION: f64 = 0.75;

/// KV in-use fraction gap between the fullest and emptiest shard above
/// which one session migrates hot → cold.
const REBALANCE_SKEW: f64 = 0.5;

/// Outer scheduler iterations between rebalance moves, so each move lands
/// and shows up in the gauges before the next is considered.
pub(super) const REBALANCE_COOLDOWN_ITERS: u64 = 8;

/// The pool's KV headroom as one scheduler pass sees it: `(free, capacity)`
/// blocks per `(shard, model)` arena, debited as migration targets are
/// chosen within the pass so two victims cannot both claim the same free
/// blocks. Arenas that do not exist yet count as full free arenas.
pub(super) struct ClusterView {
    free: Vec<HashMap<usize, (usize, usize)>>,
    default_blocks: usize,
}

impl ClusterView {
    pub(super) fn collect(shards: &[ShardRt], default_blocks: usize) -> ClusterView {
        ClusterView {
            free: shards.iter().map(ShardRt::kv_headroom).collect(),
            default_blocks,
        }
    }

    fn entry(&self, shard: usize, model: usize) -> (usize, usize) {
        self.free[shard]
            .get(&model)
            .copied()
            .unwrap_or((self.default_blocks, self.default_blocks))
    }

    /// The shard (≠ `from`) with the most free blocks, if any has `needed`
    /// free right now; ties to the lowest id.
    fn headroom_target(&self, from: usize, model: usize, needed: usize) -> Option<usize> {
        (0..self.free.len())
            .filter(|&s| s != from && self.entry(s, model).0 >= needed)
            .max_by_key(|&s| (self.entry(s, model).0, std::cmp::Reverse(s)))
    }

    fn debit(&mut self, shard: usize, model: usize, needed: usize) {
        let (free, cap) = self.entry(shard, model);
        self.free[shard].insert(model, (free.saturating_sub(needed), cap));
    }
}

/// Preempts `seq` under KV pressure: releases its blocks and rebuilds its
/// feed chain so that — once re-admitted — every cached token is re-fed
/// (outputs ignored), then the pending one, then whatever was already
/// forced. Recompute is invisible to the client: tokens already emitted are
/// never re-emitted, and determinism makes the replayed cache identical.
fn preempt(shared: &Shared, kv: &mut KvAllocator, seq: &mut Sequence) {
    hidet_trace::global().instant(SpanKind::KvEvict, seq.trace_id);
    kv.release(&mut seq.kv);
    shared.stats.kv_evictions.fetch_add(1, Ordering::Relaxed);
    shared
        .stats
        .recomputed_tokens
        .fetch_add(seq.fed.len(), Ordering::Relaxed);
    let mut chain: VecDeque<u32> = seq.fed.drain(..).collect();
    chain.push_back(seq.pending);
    chain.extend(seq.forced.drain(..));
    seq.pending = chain.pop_front().expect("fed chain non-empty");
    seq.forced = chain;
}

/// Moves a preempted sequence onto shard `to`'s queue front: rebases its
/// time anchors onto the target clock and books the migration counters.
/// The caller has already released its KV blocks and rebuilt its replay
/// chain ([`preempt`]) — re-admission replays it on the target, where
/// order-stable schedules make the rebuilt KV bytes (and every downstream
/// token) identical.
pub(super) fn migrate_sequence(shared: &Shared, mut seq: Sequence, from: usize, to: usize) {
    hidet_trace::global().instant(SpanKind::KvMigrate, seq.trace_id);
    seq.rebase(shared.stats.shard_clock(to) - shared.stats.shard_clock(from));
    shared.stats.shards[from]
        .migrations_out
        .fetch_add(1, Ordering::Relaxed);
    shared.stats.shards[to]
        .migrations_in
        .fetch_add(1, Ordering::Relaxed);
    let mut waiting = shared.waiting.lock().expect("waiting poisoned");
    waiting.shards[to].classes[seq.priority.index()].push_front(seq);
    drop(waiting);
    shared.cv.notify_all();
}

/// Preempt-and-relocate on the active set — the one primitive behind every
/// migration the step loop itself initiates (stress knob, headroom
/// rebalance): takes `shard.active[i]` off shard `from`, frees its KV blocks
/// and rebuilds its replay chain ([`preempt`]), refreshes the shard's
/// occupancy gauge and re-admits the sequence on shard `to`
/// ([`migrate_sequence`]).
fn relocate(shared: &Shared, shard: &mut ShardRt, from: usize, i: usize, to: usize) {
    let mut seq = shard.active.remove(i);
    if let Some(rt) = shard.rts.get_mut(&def_key(&seq.def)) {
        preempt(shared, &mut rt.kv, &mut seq);
    }
    refresh_shard_kv_gauge(&shard.rts, shared, from);
    migrate_sequence(shared, seq, from, to);
}

/// The stress knob ([`DecodeConfig::stress_migrate_after`]): relocates every
/// session to the next shard (round-robin) once it has emitted that many
/// tokens — at most once per session.
///
/// [`DecodeConfig::stress_migrate_after`]: crate::DecodeConfig::stress_migrate_after
pub(super) fn stress_migrate(shared: &Shared, shards: &mut [ShardRt]) {
    let after = shared.config.stress_migrate_after;
    let nshards = shards.len();
    if after == 0 || nshards < 2 {
        return;
    }
    for (s, shard) in shards.iter_mut().enumerate() {
        let mut i = 0;
        while i < shard.active.len() {
            let seq = &mut shard.active[i];
            if !seq.stress_migrated
                && seq.emitted >= after
                && shard.rts.contains_key(&def_key(&seq.def))
            {
                seq.stress_migrated = true;
                relocate(shared, shard, s, i, (s + 1) % nshards);
            } else {
                i += 1;
            }
        }
    }
}

/// `(hot, cold)` shard pair when KV occupancy skews: the fullest shard is
/// above [`REBALANCE_HOT_FRACTION`] and leads the emptiest by more than
/// [`REBALANCE_SKEW`].
fn kv_skew(shards: &[ShardRt]) -> Option<(usize, usize)> {
    let frac: Vec<f64> = shards
        .iter()
        .map(|sh| {
            let cap: usize = sh.rts.values().map(|rt| rt.kv.capacity()).sum();
            let used: usize = sh.rts.values().map(|rt| rt.kv.blocks_in_use()).sum();
            if cap == 0 {
                0.0
            } else {
                used as f64 / cap as f64
            }
        })
        .collect();
    let mut hot = 0usize;
    let mut cold = 0usize;
    for s in 1..frac.len() {
        if frac[s] > frac[hot] {
            hot = s;
        }
        if frac[s] < frac[cold] {
            cold = s;
        }
    }
    (frac[hot] >= REBALANCE_HOT_FRACTION && frac[hot] - frac[cold] > REBALANCE_SKEW)
        .then_some((hot, cold))
}

/// Headroom rebalance: when KV occupancy skews ([`kv_skew`]), relocates the
/// lowest-ranked hot-shard session whose worst-case block need fits the cold
/// shard's free blocks right now. Returns whether a session moved (the step
/// loop then holds off for [`REBALANCE_COOLDOWN_ITERS`]).
pub(super) fn rebalance(shared: &Shared, shards: &mut [ShardRt]) -> bool {
    let Some((hot, cold)) = kv_skew(shards) else {
        return false;
    };
    let config = &shared.config;
    let cold_free = shards[cold].kv_headroom();
    let shard = &mut shards[hot];
    let pick = (0..shard.active.len())
        .filter(|&i| {
            let seq = &shard.active[i];
            let model = def_key(&seq.def);
            let needed = seq.cache_need.div_ceil(config.block_tokens);
            // An arena that does not exist yet is a full free arena.
            let free = cold_free.get(&model).map_or(config.kv_blocks, |e| e.0);
            needed <= free && shard.rts.contains_key(&model)
        })
        .max_by_key(|&i| shard.active[i].key());
    let Some(i) = pick else {
        return false;
    };
    relocate(shared, shard, hot, i, cold);
    true
}

/// Selects the eviction victim for `requester`: the strictly lower-ranked
/// (greatest `(priority, rank)` key) live sequence still holding blocks.
/// `None` when no such victim exists — the requester itself must fail.
fn pick_victim(batch: &[Sequence], state: &[SlotState], requester: usize) -> Option<usize> {
    let req_key = batch[requester].key();
    (0..batch.len())
        .filter(|&i| i != requester && state[i] == SlotState::Live)
        .filter(|&i| batch[i].kv.blocks() > 0)
        .filter(|&i| batch[i].key() > req_key)
        .max_by_key(|&i| batch[i].key())
}

impl IterCtx<'_> {
    /// Reserves one KV token slot for `batch[slot]`, evicting under
    /// pressure. The strictly lower-ranked victim is preempted first —
    /// landing on the pool's roomiest other shard ([`SlotState::Migrated`])
    /// when one has the headroom, locally otherwise. With no victim the
    /// requester yields itself: to a shard with free blocks, else locally
    /// when an arena could hold it alone. [`DecodeError::KvExhausted`]
    /// surfaces only when none could — every arena in the pool has the same
    /// `kv_blocks` capacity, so this arena's answers for all of them.
    /// Returns `None` when the slot itself was preempted, migrated or
    /// dropped — `state` and `terminal` already reflect it.
    pub(super) fn append_with_pressure(
        &mut self,
        kv: &mut KvAllocator,
        slot: usize,
    ) -> Option<KvSlot> {
        loop {
            match kv.append(&mut self.batch[slot].kv) {
                Ok(kvslot) => {
                    hidet_trace::global().instant(SpanKind::KvAlloc, self.batch[slot].trace_id);
                    return Some(kvslot);
                }
                Err(KvError::Exhausted) => {
                    // Yield the victim if there is one and retry, else the
                    // requester itself — which ends this append (`victim?`).
                    let victim = pick_victim(&self.batch, &self.state, slot);
                    let i = victim.unwrap_or(slot);
                    let needed = kv.layout().blocks_for(self.batch[i].cache_need);
                    if victim.is_none() && needed > kv.capacity() {
                        self.fail_slot(kv, slot, DecodeError::KvExhausted);
                    } else {
                        let target = self.relief_target(i, needed);
                        self.displace(kv, i, target, needed);
                    }
                    victim?;
                }
            }
        }
    }

    /// The pressure-relief destination for `batch[i]`: the pool's roomiest
    /// other shard with `needed` blocks free right now. Each grant counts
    /// against the sequence's [`PRESSURE_MOVE_LIMIT`]; past the cap it
    /// behaves single-shard.
    fn relief_target(&mut self, i: usize, needed: usize) -> Option<usize> {
        let seq = &mut self.batch[i];
        if seq.pressure_moves >= PRESSURE_MOVE_LIMIT {
            return None;
        }
        let target = self
            .view
            .headroom_target(self.shard, def_key(&seq.def), needed)?;
        seq.pressure_moves += 1;
        Some(target)
    }

    /// The one preempt/debit/mark step of pressure relief: frees
    /// `batch[i]`'s blocks and rebuilds its replay chain, then books it onto
    /// shard `target` — debiting the pass's headroom view so a later victim
    /// cannot claim the same free blocks — or, with no target, back onto
    /// this shard's queue.
    fn displace(&mut self, kv: &mut KvAllocator, i: usize, target: Option<usize>, needed: usize) {
        preempt(self.shared, kv, &mut self.batch[i]);
        self.state[i] = match target {
            Some(t) => {
                self.view.debit(t, def_key(&self.batch[i].def), needed);
                SlotState::Migrated(t)
            }
            None => SlotState::Evicted,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_request_builder() {
        let req = GenerateRequest::new(vec![1, 2], 5)
            .with_priority(Priority::High)
            .with_eos(7);
        assert_eq!(req.priority, Priority::High);
        assert_eq!(req.eos, Some(7));
        assert!(req.deadline.is_none());
    }

    #[test]
    fn spec_validation_rejects_bad_dims_and_interfaces() {
        // heads must divide hidden.
        let spec = DecodeModelSpec::transformer("m", 1, 30, 4, 8, 8);
        assert!(matches!(
            validate_spec(&spec, 2, &[]),
            Err(DecodeError::BadModel(_))
        ));
        // A builder whose graph is not a decode step.
        let spec = DecodeModelSpec::custom("m", 1, 16, 2, 8, 8, |batch, _| {
            let mut g = hidet_graph::GraphBuilder::new("not_decode");
            let x = g.input("x", &[batch, 16]);
            let y = g.relu(x);
            g.output(y).build()
        });
        assert!(matches!(
            validate_spec(&spec, 2, &[]),
            Err(DecodeError::BadModel(_))
        ));
        // The real builder validates.
        let spec = DecodeModelSpec::transformer("m", 1, 16, 2, 8, 8);
        let def = validate_spec(&spec, 2, &[]).unwrap();
        assert_eq!(def.head_dim, 8);
        assert_eq!(def.embed.len(), 8 * 16);
    }

    #[test]
    fn prefill_defs_follow_the_menu_and_skip_oversized_chunks() {
        // Context window 8: chunks 4 and 8 fit, 16 is skipped; a custom spec
        // without a prefill builder yields no prefill defs at all.
        let spec = DecodeModelSpec::transformer("m", 1, 16, 2, 8, 8);
        let def = validate_spec(&spec, 2, &[4, 8, 16]).unwrap();
        let chunks: Vec<usize> = def.prefill.iter().map(|p| p.chunk).collect();
        assert_eq!(chunks, vec![4, 8]);
        assert_eq!(def.step.chunk, 1);
        for p in &def.prefill {
            assert_eq!(p.past_ids.len(), 1);
            assert_eq!(p.cache_out_names.len(), 1);
        }
        let plain = DecodeModelSpec::custom("m", 1, 16, 2, 8, 8, |batch, past| {
            hidet_graph::models::transformer_decode_step("m", batch, past, 1, 16, 2, 8)
        });
        let def = validate_spec(&plain, 2, &[4, 8]).unwrap();
        assert!(def.prefill.is_empty());
    }

    #[test]
    fn argmax_breaks_ties_low() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[0.5]), 0);
        assert_eq!(argmax(&[-2.0, -1.0, -1.5]), 1);
    }

    #[test]
    fn chunk_election_boundaries() {
        let menu = [16, 64, 256];
        // Exact multiple of the largest chunk.
        assert_eq!(elect_chunk(512, &menu, 256), Some(256));
        assert_eq!(elect_chunk(256, &menu, 256), Some(256));
        // One short of a chunk boundary drops to the next size down.
        assert_eq!(elect_chunk(255, &menu, 256), Some(64));
        assert_eq!(elect_chunk(17, &menu, 256), Some(16));
        assert_eq!(elect_chunk(16, &menu, 256), Some(16));
        // Tails smaller than the smallest chunk go token-wise.
        assert_eq!(elect_chunk(15, &menu, 256), None);
        assert_eq!(elect_chunk(1, &menu, 256), None);
        // The iteration budget caps the chunk, then disables election.
        assert_eq!(elect_chunk(512, &menu, 100), Some(64));
        assert_eq!(elect_chunk(512, &menu, 15), None);
        // No compiled chunks: chunking is off.
        assert_eq!(elect_chunk(512, &[], 256), None);
    }

    #[test]
    fn eviction_order_is_total_and_priority_first() {
        let (tx, _rx) = mpsc::channel();
        let def = Arc::new(
            validate_spec(&DecodeModelSpec::transformer("m", 1, 16, 2, 8, 8), 2, &[]).unwrap(),
        );
        let seq = |priority: Priority, rank: u64, blocks: usize| {
            let request = GenerateRequest::new(vec![0], 4).with_priority(priority);
            let mut seq = Sequence::new(Arc::clone(&def), request, tx.clone());
            seq.rank = rank;
            // Fake block ownership via a real allocator.
            let mut alloc = KvAllocator::new(
                KvLayout {
                    layers: 1,
                    hidden: 16,
                    block_tokens: 1,
                },
                4,
            );
            for _ in 0..blocks {
                alloc.append(&mut seq.kv).unwrap();
            }
            seq
        };
        let batch = vec![
            seq(Priority::High, 1, 1),
            seq(Priority::Normal, 2, 1),
            seq(Priority::BestEffort, 3, 1),
            seq(Priority::BestEffort, 4, 0), // no blocks: never a victim
        ];
        let state = vec![SlotState::Live; 4];
        // High evicts the youngest best-effort holder.
        assert_eq!(pick_victim(&batch, &state, 0), Some(2));
        // Best-effort rank 3 can only evict strictly lower-ranked peers —
        // none here hold blocks.
        assert_eq!(pick_victim(&batch, &state, 2), None);
        // Normal evicts best-effort but never High.
        assert_eq!(pick_victim(&batch, &state, 1), Some(2));
    }
}
