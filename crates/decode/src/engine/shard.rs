//! The engine handle and the state behind it: what every thread shares
//! ([`Shared`]), submission-time shard placement, and the per-shard runtime
//! the scheduler owns ([`ShardRt`]: compiled passes and KV arenas per
//! model).

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

use hidet::Workspace;
use hidet_runtime::DecodeStatsSnapshot;
use hidet_sim::Gpu;

use super::config::{DecodeConfig, DecodeError};
use super::registry::{def_key, validate_spec, DecodeModelSpec, ModelDef, PassDef};
use super::schedule::{step_loop, IterCtx};
use super::session::{DecodeModel, Sequence, Waiting};
use super::stepper::Stepper;
use crate::kv::{KvAllocator, KvLayout};
use crate::placement::placement_score;
use crate::stats::DecodeStats;

pub(super) struct Shared {
    /// The engine's one sanitised configuration
    /// ([`DecodeConfig::sanitized`]); `config.devices[s]` is shard `s`
    /// everywhere.
    pub(super) config: DecodeConfig,
    /// While set, the scheduler admits nothing
    /// ([`DecodeConfig::start_paused`] / [`DecodeEngine::resume`]).
    pub(super) paused: AtomicBool,
    pub(super) registry: Mutex<HashMap<String, Arc<ModelDef>>>,
    pub(super) waiting: Mutex<Waiting>,
    pub(super) cv: Condvar,
    pub(super) closed: AtomicBool,
    pub(super) stats: Arc<DecodeStats>,
    pub(super) next_rank: AtomicU64,
}

impl Shared {
    fn new(config: DecodeConfig) -> Arc<Shared> {
        let config = config.sanitized();
        let stats = Arc::new(DecodeStats::for_shards(
            config.devices.iter().map(|d| d.name.clone()).collect(),
        ));
        stats.max_batch.store(config.max_batch, Ordering::Relaxed);
        let waiting = Waiting {
            shards: config.devices.iter().map(|_| Default::default()).collect(),
        };
        Arc::new(Shared {
            paused: AtomicBool::new(config.start_paused),
            config,
            registry: Mutex::new(HashMap::new()),
            waiting: Mutex::new(waiting),
            cv: Condvar::new(),
            closed: AtomicBool::new(false),
            stats,
            next_rank: AtomicU64::new(1),
        })
    }

    /// Begins shutdown: no session is accepted from here on, and the driver
    /// drains what is in flight.
    pub(super) fn close(&self) {
        {
            // Set under the waiting lock so it serializes with `generate`'s
            // locked closed-check + enqueue: every session pushed before
            // this point is visible to the driver's final drain.
            let _waiting = self.waiting.lock().expect("waiting poisoned");
            self.closed.store(true, Ordering::SeqCst);
        }
        self.cv.notify_all();
    }
}

/// The decode engine. See the [module docs](crate::engine) for the
/// architecture and `examples/decode_serving.rs` for a tour.
pub struct DecodeEngine {
    shared: Arc<Shared>,
    /// The thread driver; `None` on a [stepped](DecodeEngine::stepped)
    /// engine, whose [`Stepper`] is the driver.
    worker: Option<thread::JoinHandle<()>>,
}

impl DecodeEngine {
    /// Starts the engine's step loop on a background thread.
    pub fn new(config: DecodeConfig) -> DecodeEngine {
        let shared = Shared::new(config);
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

    /// An engine with no background thread: the same scheduler runs only
    /// when the returned [`Stepper`] is stepped, one iteration per call, at
    /// the host instant the caller names — so a schedule is a function of
    /// the calls made, not of host timing. Everything on the engine handle,
    /// its models and their sessions works as on [`DecodeEngine::new`];
    /// session events queue unboundedly, so step to idle first, then
    /// [`collect`](crate::DecodeSession::collect).
    pub fn stepped(config: DecodeConfig) -> (DecodeEngine, Stepper) {
        let shared = Shared::new(config);
        let engine = DecodeEngine {
            shared: Arc::clone(&shared),
            worker: None,
        };
        (engine, Stepper::new(shared))
    }

    /// Registers a decode model, validating that the builder's graphs — the
    /// decode step at the engine's fixed `(max_batch, max_context)` shape and
    /// one prefill pass per menu chunk — follow the forward-pass interface
    /// (see [`hidet_graph::models::transformer_pass`]). Re-registering a
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

    /// Releases a [`DecodeConfig::start_paused`] engine: the scheduler
    /// begins admitting whatever has queued. Idempotent; a no-op on an
    /// engine that started running.
    pub fn resume(&self) {
        {
            // Cleared under the waiting lock, like `closed` below: the step
            // loop reads `paused` and then sleeps on the condvar under that
            // lock, so a store that slipped in between would lose its
            // wake-up and leave a fully queued engine asleep for good.
            let _waiting = self.shared.waiting.lock().expect("waiting poisoned");
            self.shared.paused.store(false, Ordering::SeqCst);
        }
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
    /// joins the step loop. Called automatically on drop. (A stepped engine
    /// has no loop to join: the drain happens as its [`Stepper`] is stepped
    /// to idle, or dropped.)
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.close();
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
        pending.extend(
            waiting.shards[s]
                .iter()
                .map(|q| q.remaining_work() as f64 * est),
        );
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

/// Per-model runtime state owned by the scheduler.
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

/// One decode shard owned by the scheduler: its device, per-model runtimes
/// (compiled graphs + KV arenas) and active set. Shards model parallel
/// devices multiplexed by the one driver — each shard's pass advances only
/// its own simulated clock.
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
    /// engine-wide cache.
    pub(super) fn compile_pass(&self, pass: &PassDef) -> Result<PassRt, DecodeError> {
        let (compiled, _) = self
            .cache
            .get_or_compile_hashed(
                &pass.graph,
                pass.graph_hash(),
                self.gpu,
                self.options,
                self.shared.config.artifact_store.as_deref(),
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
