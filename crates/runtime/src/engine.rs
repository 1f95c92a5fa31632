//! The serving engine: a multi-session inference front-end over the Hidet
//! compiler and a pool of simulated GPUs.
//!
//! The model lifecycle is explicit: [`Engine::register`] takes a
//! [`ModelSpec`] (name, graph-builder family, batching mode, optional
//! artifact store) and returns a [`ModelHandle`] that owns every per-model
//! operation — [`ModelHandle::infer`], [`ModelHandle::submit`],
//! [`ModelHandle::warmup`], [`ModelHandle::unload`]. Requests are built with
//! the [`Request`] builder (inputs + priority + deadline + per-request
//! timeout). The deprecated free-function entry points of the v1 API
//! (`Engine::load`, `Engine::submit_with`, ...) are gone — every per-model
//! operation lives on the handle.
//!
//! ```text
//!   clients ── handle.submit ──▶ admission ──▶ priority queues ──▶ dispatcher
//!              (Request:         (sheds when    High / Normal /       │
//!               priority,         overloaded)   BestEffort            ▼
//!               deadline,                         batch former (model x class)
//!               timeout)                                              │ least-estimated-
//!                                                                    ▼ queue-delay
//!                                        shard 0 workers ◀── placement ──▶ shard N workers
//!                                              │                                │
//!                                              ▼                                ▼
//!                               shared compiled-graph cache ──▶ hidet-sim device per shard
//!                                     │  ▲
//!                                     ▼  │ (zero-tuning rebuild)
//!                               disk artifact store (persists across processes)
//! ```
//!
//! * Requests carry a [`Priority`] class and an optional deadline
//!   ([`Request::with_deadline`] / [`Request::with_timeout`]). The
//!   dispatcher always serves the highest non-empty class; requests whose
//!   deadline passes while queued are rejected with
//!   [`EngineError::DeadlineExceeded`] and never reach a worker.
//! * Same-model, same-class requests are **coalesced along the batch
//!   dimension** (up to [`EngineConfig::max_batch`], waiting at most
//!   [`EngineConfig::batch_window`]) before dispatch. The straggler wait is
//!   abandoned as soon as a higher class has traffic, so priority inversion
//!   is bounded by one partial batch.
//! * Formed batches are **placed across the device pool**
//!   ([`EngineConfig::devices`]) on the shard with the least estimated queue
//!   delay, computed by [`hidet_sim::estimated_queue_delay`] over the
//!   analytic latency estimates of every in-flight batch (see the `shard`
//!   module and [`crate::ShardSnapshot`]).
//! * An **admission controller** sheds load with
//!   [`EngineError::QueueFull`] when the engine holds too many in-flight
//!   requests or the estimated queue delay exceeds
//!   [`EngineConfig::admission_delay_bound`]. Shedding thresholds scale with
//!   priority, so best-effort traffic is always shed before high-priority
//!   traffic.
//! * Compilation happens at most once per (structure, device, options) — see
//!   [`crate::CompiledCache`] — so steady-state requests never compile, and
//!   homogeneous shards share one compiled graph. With an **artifact store**
//!   ([`EngineConfig::artifact_store`] or [`ModelSpec::with_artifact_store`])
//!   that holds across *process restarts*: compiles serialize their
//!   [`hidet::CompiledArtifact`] to disk, and a warm restart rebuilds plans
//!   from those files with zero fresh compiles and zero tuning trials.
//!   [`ModelHandle::unload`] is the one eviction — a later registration of
//!   the same structure recompiles (or re-loads its artifact), counted in
//!   [`crate::StatsSnapshot::compiled_evicted_unload`].
//! * Tuning results persist via [`hidet_sched::TuningCache`] when
//!   [`EngineConfig::tuning_records_path`] is set: a restarted process
//!   schedules previously seen matmuls with zero trials. Records are flushed
//!   on [`Engine::shutdown`] *and* from `Drop`, so a panicking caller does
//!   not lose tuned schedules.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use hidet::{CompileError, CompilerOptions};
use hidet_graph::Graph;
use hidet_sched::TuningCache;
use hidet_sim::GpuSpec;

use crate::cache::{CacheOutcome, CompiledCache};
use crate::shard::{self, LatencyModel, Shard};
use crate::stats::{ServerStats, StatsSnapshot};
use crate::store::ArtifactStore;

/// Request priority class, highest first.
///
/// The dispatcher always forms batches from the highest non-empty class, and
/// the admission controller sheds lower classes earlier: each class has a
/// larger share of the in-flight budget and more slack against the queue
/// delay bound than the class below it, so high-priority traffic is never
/// shed while best-effort traffic is admitted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Priority {
    /// Latency-critical traffic: served first, shed last.
    High,
    /// The default class.
    #[default]
    Normal,
    /// Background traffic: served last, shed first.
    BestEffort,
}

impl Priority {
    /// Number of priority classes.
    pub const COUNT: usize = 3;
    /// All classes, highest first — index with [`Priority::index`].
    pub const ALL: [Priority; Priority::COUNT] =
        [Priority::High, Priority::Normal, Priority::BestEffort];

    /// Position in [`Priority::ALL`] (0 = highest).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short label for tables and logs.
    pub fn label(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::BestEffort => "best-effort",
        }
    }

    /// Fraction of [`EngineConfig::max_inflight`] this class may fill before
    /// the admission controller sheds it. Monotone in priority: as load
    /// climbs, best-effort is rejected first, then normal, then high.
    fn queue_share(self) -> f64 {
        match self {
            Priority::High => 1.0,
            Priority::Normal => 0.75,
            Priority::BestEffort => 0.5,
        }
    }

    /// Multiplier on [`EngineConfig::admission_delay_bound`] this class
    /// tolerates before being shed. Monotone in priority. A network
    /// front-end applies the same slack to its socket-level shed bound so
    /// both admission layers degrade in the same order.
    pub fn delay_slack(self) -> f64 {
        match self {
            Priority::High => 4.0,
            Priority::Normal => 2.0,
            Priority::BestEffort => 1.0,
        }
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One inference request, builder-style: inputs plus scheduling knobs.
///
/// `inputs` holds one tensor per graph input, in `Graph::inputs` order, each
/// shaped for **batch size 1** — the engine coalesces requests itself.
///
/// ```
/// use hidet_runtime::{Priority, Request};
/// use std::time::Duration;
///
/// let request = Request::new(vec![vec![0.5; 16]])
///     .with_priority(Priority::High)
///     .with_timeout(Duration::from_millis(100));
/// assert_eq!(request.priority(), Priority::High);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Request {
    inputs: Vec<Vec<f32>>,
    priority: Priority,
    deadline: Option<Instant>,
    timeout: Option<Duration>,
    trace_id: u64,
}

impl Request {
    /// A request at [`Priority::Normal`] with no deadline.
    pub fn new(inputs: Vec<Vec<f32>>) -> Request {
        Request {
            inputs,
            ..Request::default()
        }
    }

    /// Sets the priority class.
    pub fn with_priority(mut self, priority: Priority) -> Request {
        self.priority = priority;
        self
    }

    /// Shorthand for [`Priority::High`].
    pub fn high(self) -> Request {
        self.with_priority(Priority::High)
    }

    /// Shorthand for [`Priority::BestEffort`].
    pub fn best_effort(self) -> Request {
        self.with_priority(Priority::BestEffort)
    }

    /// Sets an absolute deadline: once passed, the request is answered with
    /// [`EngineError::DeadlineExceeded`] instead of executed.
    pub fn with_deadline(mut self, deadline: Instant) -> Request {
        self.deadline = Some(deadline);
        self
    }

    /// Sets a per-request timeout, counted from **submission**. Combines
    /// with [`Request::with_deadline`]: the earlier of the two wins.
    pub fn with_timeout(mut self, timeout: Duration) -> Request {
        self.timeout = Some(timeout);
        self
    }

    /// Attributes this request to a trace: every engine span it touches
    /// (submit, batch formation, execution) carries `trace_id`, so the
    /// request's path is reconstructable from the exported trace. Id 0
    /// (the default) means unattributed.
    pub fn with_trace(mut self, trace_id: u64) -> Request {
        self.trace_id = trace_id;
        self
    }

    /// The trace id spans are attributed to (0 = unattributed).
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// The priority class this request will be scheduled at.
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// The effective absolute deadline as of submission time `now`. A
    /// timeout too long for `Instant` to represent is no timeout.
    fn effective_deadline(&self, now: Instant) -> Option<Instant> {
        match (self.deadline, self.timeout.and_then(|t| now.checked_add(t))) {
            (Some(d), Some(t)) => Some(d.min(t)),
            (d, t) => d.or(t),
        }
    }
}

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

/// Errors surfaced to clients.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The request named a model that was never loaded.
    UnknownModel(String),
    /// Input tensors were missing or missized.
    BadInput(String),
    /// Compilation failed.
    Compile(CompileError),
    /// Executing the compiled graph failed.
    Execution(String),
    /// The admission controller shed this request (engine overloaded).
    QueueFull(String),
    /// The request's deadline passed before it could be executed.
    DeadlineExceeded,
    /// The engine is shutting down.
    Closed,
    /// Tuning-record persistence failed.
    Records(String),
    /// The model's artifact store could not be prepared.
    Artifact(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownModel(name) => write!(f, "unknown model \"{name}\""),
            EngineError::BadInput(msg) => write!(f, "bad input: {msg}"),
            EngineError::Compile(e) => write!(f, "compile failed: {e}"),
            EngineError::Execution(msg) => write!(f, "execution failed: {msg}"),
            EngineError::QueueFull(msg) => write!(f, "request shed: {msg}"),
            EngineError::DeadlineExceeded => write!(f, "deadline exceeded before execution"),
            EngineError::Closed => write!(f, "engine is shut down"),
            EngineError::Records(msg) => write!(f, "tuning records: {msg}"),
            EngineError::Artifact(msg) => write!(f, "artifact store: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<CompileError> for EngineError {
    fn from(e: CompileError) -> Self {
        EngineError::Compile(e)
    }
}

/// One completed inference.
#[derive(Debug, Clone)]
pub struct InferenceResult {
    /// This request's slice of every graph output, in `Graph::outputs` order.
    pub outputs: Vec<Vec<f32>>,
    /// How many requests shared the executed batch.
    pub batch_size: usize,
    /// Simulated device latency of the executed batch, seconds.
    pub simulated_latency_seconds: f64,
    /// Estimated simulated queue delay the batch saw at placement, seconds
    /// (the request's sojourn is this plus the device latency).
    pub queue_delay_seconds: f64,
    /// Priority class the request executed at.
    pub priority: Priority,
    /// Whether the compiled graph came from the cache.
    pub compile_cache_hit: bool,
}

/// Handle to an in-flight request.
pub struct Ticket {
    rx: mpsc::Receiver<Result<InferenceResult, EngineError>>,
}

impl Ticket {
    /// Blocks until the result is available.
    pub fn wait(self) -> Result<InferenceResult, EngineError> {
        self.rx.recv().unwrap_or(Err(EngineError::Closed))
    }
}

/// A model family: `builder(b)` must yield the model at batch size `b`, with
/// the leading dimension of every graph input scaling linearly in `b`.
type ModelBuilder = Box<dyn Fn(i64) -> Graph + Send + Sync>;

/// Everything [`Engine::register`] needs to know about a model: its name,
/// graph-builder family, batching mode and (optionally) where its compiled
/// artifacts persist.
///
/// `builder(b)` must return the model at batch size `b`. By default the
/// model is **batchable**: dim 0 must be an independent-sample axis (every
/// graph input's leading dimension scales with `b`, and each output row
/// depends only on the corresponding input row — true for the CNN zoo
/// models). Models where that does not hold (the zoo's transformers fold
/// batch into the sequence axis) must be registered [`ModelSpec::unbatched`],
/// so their requests are never coalesced.
pub struct ModelSpec {
    name: String,
    builder: ModelBuilder,
    batchable: bool,
    artifact_store: Option<PathBuf>,
}

impl ModelSpec {
    /// A batchable model family named `name`.
    pub fn new(
        name: impl Into<String>,
        builder: impl Fn(i64) -> Graph + Send + Sync + 'static,
    ) -> ModelSpec {
        ModelSpec {
            name: name.into(),
            builder: Box::new(builder),
            batchable: true,
            artifact_store: None,
        }
    }

    /// Marks the model's requests as never coalescible — for models where
    /// dim 0 is not an independent-sample axis or builders that ignore their
    /// batch argument. Requests always dispatch one at a time, regardless of
    /// [`EngineConfig::max_batch`].
    pub fn unbatched(mut self) -> ModelSpec {
        self.batchable = false;
        self
    }

    /// Persists this model's compiled artifacts under `dir`, overriding
    /// [`EngineConfig::artifact_store`]. The directory is created at
    /// registration.
    pub fn with_artifact_store(mut self, dir: impl Into<PathBuf>) -> ModelSpec {
        self.artifact_store = Some(dir.into());
        self
    }

    /// The model's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl fmt::Debug for ModelSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ModelSpec")
            .field("name", &self.name)
            .field("batchable", &self.batchable)
            .field("artifact_store", &self.artifact_store)
            .finish_non_exhaustive()
    }
}

struct Variant {
    graph: Arc<Graph>,
    /// Memoized `Graph::structural_hash` — O(model weights) to compute, so
    /// it is taken once here instead of on every request batch.
    hash: u64,
}

struct ModelEntry {
    builder: ModelBuilder,
    /// Whether requests may be coalesced along dim 0 (see [`ModelSpec`]).
    batchable: bool,
    /// Resolved artifact store (per-model override, else the engine default).
    artifact_store: Option<PathBuf>,
    variants: Mutex<HashMap<i64, Arc<Variant>>>,
}

impl ModelEntry {
    /// The cached graph at batch size `batch` (built on first use).
    fn variant(&self, batch: i64) -> Arc<Variant> {
        let mut variants = self.variants.lock().expect("registry poisoned");
        Arc::clone(variants.entry(batch).or_insert_with(|| {
            let graph = (self.builder)(batch);
            let hash = graph.structural_hash();
            Arc::new(Variant {
                graph: Arc::new(graph),
                hash,
            })
        }))
    }
}

struct PendingRequest {
    model: String,
    inputs: Vec<Vec<f32>>,
    priority: Priority,
    deadline: Option<Instant>,
    trace_id: u64,
    responder: mpsc::Sender<Result<InferenceResult, EngineError>>,
}

impl PendingRequest {
    /// Answers the request and releases its in-flight admission slot.
    /// A client that dropped its ticket is not an engine error.
    fn respond(self, shared: &Shared, result: Result<InferenceResult, EngineError>) {
        shared.inflight.fetch_sub(1, Ordering::Relaxed);
        let _ = self.responder.send(result);
    }

    fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now >= d)
    }
}

/// A formed batch bound for one shard's worker pool.
struct BatchJob {
    model: String,
    priority: Priority,
    requests: Vec<PendingRequest>,
    /// Pending-entry token in the target shard (released on completion).
    token: u64,
    /// The target shard's estimated queue delay at placement, seconds.
    queue_delay: f64,
}

/// The priority queues feeding the dispatcher: one FIFO per class.
#[derive(Default)]
struct ClassQueues {
    classes: [VecDeque<PendingRequest>; Priority::COUNT],
}

impl ClassQueues {
    fn total(&self) -> usize {
        self.classes.iter().map(VecDeque::len).sum()
    }

    fn push(&mut self, request: PendingRequest) {
        self.classes[request.priority.index()].push_back(request);
    }

    fn highest_nonempty(&self) -> Option<usize> {
        self.classes.iter().position(|q| !q.is_empty())
    }

    fn higher_nonempty(&self, class: usize) -> bool {
        self.classes[..class].iter().any(|q| !q.is_empty())
    }

    /// Earliest deadline among all queued requests, if any carries one.
    fn earliest_deadline(&self) -> Option<Instant> {
        self.classes
            .iter()
            .flat_map(|q| q.iter().filter_map(|r| r.deadline))
            .min()
    }

    /// Whether some (class, model) group already has a full batch waiting.
    fn any_full(&self, cap: usize) -> bool {
        let mut counts: HashMap<(usize, &str), usize> = HashMap::new();
        for (c, q) in self.classes.iter().enumerate() {
            for r in q.iter() {
                let n = counts.entry((c, r.model.as_str())).or_insert(0);
                *n += 1;
                if *n >= cap {
                    return true;
                }
            }
        }
        false
    }
}

struct Shared {
    /// The sanitised construction config; its `options` carry the engine's
    /// tuning-record store.
    config: EngineConfig,
    registry: Mutex<HashMap<String, Arc<ModelEntry>>>,
    queue: Mutex<ClassQueues>,
    queue_cv: Condvar,
    closed: AtomicBool,
    compiled: CompiledCache,
    stats: ServerStats,
    shards: Vec<Shard>,
    latency_model: LatencyModel,
    /// Requests admitted but not yet answered (queued or placed).
    inflight: AtomicUsize,
    /// Attached decode-subsystem stats source ([`Engine::attach_decode_stats`]).
    #[allow(clippy::type_complexity)]
    decode_stats: Mutex<Option<Arc<dyn Fn() -> crate::stats::DecodeStatsSnapshot + Send + Sync>>>,
    /// Attached network-ingress stats source ([`Engine::attach_ingress_stats`]).
    #[allow(clippy::type_complexity)]
    ingress_stats: Mutex<Option<Arc<dyn Fn() -> crate::stats::IngressStatsSnapshot + Send + Sync>>>,
}

impl Shared {
    /// The engine's shared state over a sanitised `config`: one shard per
    /// device, nothing registered, nothing queued.
    fn new(config: EngineConfig) -> Shared {
        let shards = config
            .devices
            .iter()
            .enumerate()
            .map(|(i, spec)| Shard::new(i, spec.clone(), config.workers))
            .collect();
        Shared {
            config,
            registry: Mutex::new(HashMap::new()),
            queue: Mutex::new(ClassQueues::default()),
            queue_cv: Condvar::new(),
            closed: AtomicBool::new(false),
            compiled: CompiledCache::new(),
            stats: ServerStats::default(),
            shards,
            latency_model: LatencyModel::default(),
            inflight: AtomicUsize::new(0),
            decode_stats: Mutex::new(None),
            ingress_stats: Mutex::new(None),
        }
    }

    /// Total worker lanes across the pool.
    fn total_lanes(&self) -> usize {
        self.shards.iter().map(|s| s.lanes).sum()
    }

    /// Admission verdict for a request of `class` while `queued` requests
    /// wait in the dispatcher queue. `None` admits.
    ///
    /// Two monotone-in-priority checks:
    /// 1. the in-flight count against `max_inflight x queue_share(class)`;
    /// 2. the estimated queue delay — least-loaded shard delay plus the
    ///    dispatcher backlog (queued requests x observed device seconds per
    ///    request, spread over every worker lane) — against
    ///    `delay_bound x delay_slack(class)`.
    ///
    /// Cost note: check 1 is a pair of atomic loads; it touches the shard
    /// pending locks only when it actually sheds (for attribution). Check 2
    /// re-derives every shard's queue delay per submission —
    /// O(shards x in-flight batches) — which is why the delay bound is
    /// opt-in (`None` by default keeps the submit path lock-free past the
    /// queue mutex).
    fn admission_verdict(&self, class: Priority, queued: usize) -> Option<EngineError> {
        let inflight = self.inflight.load(Ordering::Relaxed);
        let cap = (self.config.max_inflight as f64 * class.queue_share()).ceil() as usize;
        if inflight >= cap {
            let (idx, _) = shard::least_queue_delay(&self.shards);
            self.shards[idx].count_shed();
            self.stats.count_shed(class);
            return Some(EngineError::QueueFull(format!(
                "{inflight} requests in flight >= {cap} ({} share of max_inflight {})",
                class.label(),
                self.config.max_inflight
            )));
        }
        if let Some(bound) = self.config.admission_delay_bound {
            let bound = bound.as_secs_f64();
            let (idx, shard_delay) = shard::least_queue_delay(&self.shards);
            let snapshot_requests = self.stats.requests.load(Ordering::Relaxed);
            let per_request = if snapshot_requests > 0 {
                let device_nanos = self.stats.simulated_nanos.load(Ordering::Relaxed) as f64;
                device_nanos / 1e9 / snapshot_requests as f64
            } else {
                0.0 // cold engine: no evidence of backlog cost yet
            };
            let backlog = queued as f64 * per_request / self.total_lanes() as f64;
            let estimated = shard_delay + backlog;
            let slack = bound * class.delay_slack();
            if estimated > slack {
                self.shards[idx].count_shed();
                self.stats.count_shed(class);
                return Some(EngineError::QueueFull(format!(
                    "estimated queue delay {:.1} us exceeds the {} bound {:.1} us",
                    estimated * 1e6,
                    class.label(),
                    slack * 1e6
                )));
            }
        }
        None
    }
}

/// The serving engine. See the [module docs](crate::engine) for the
/// architecture and `examples/serving.rs` for a tour.
pub struct Engine {
    shared: Arc<Shared>,
    tuning_cache: Arc<Mutex<TuningCache>>,
    dispatcher: Option<thread::JoinHandle<()>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl Engine {
    /// Starts an engine: loads tuning records (if configured), builds one
    /// shard per configured device, spawns the dispatcher and the per-shard
    /// worker pools.
    ///
    /// # Errors
    /// [`EngineError::Records`] if a configured record file exists but cannot
    /// be read or parsed (a *missing* file is a normal cold start).
    pub fn new(config: EngineConfig) -> Result<Engine, EngineError> {
        let mut config = config.sanitized();

        // Attach (or adopt) the tuning-record store. An adopted store still
        // absorbs the configured record file — otherwise shutdown's save
        // would silently overwrite previously persisted records with only
        // this session's.
        let tuning_cache = match &config.options.tuning_cache {
            Some(cache) => {
                if let Some(path) = &config.tuning_records_path {
                    let from_disk =
                        TuningCache::load(path).map_err(|e| EngineError::Records(e.to_string()))?;
                    cache
                        .lock()
                        .expect("tuning cache poisoned")
                        .merge(from_disk);
                }
                Arc::clone(cache)
            }
            None => {
                let cache = match &config.tuning_records_path {
                    Some(path) => {
                        TuningCache::load(path).map_err(|e| EngineError::Records(e.to_string()))?
                    }
                    None => TuningCache::new(),
                };
                Arc::new(Mutex::new(cache))
            }
        };
        config.options = config.options.with_tuning_cache(Arc::clone(&tuning_cache));
        let shared = Arc::new(Shared::new(config));

        // One job channel per shard; the dispatcher owns every sender, so
        // worker pools drain and exit once the dispatcher hangs up.
        let mut senders = Vec::with_capacity(shared.shards.len());
        let mut workers = Vec::new();
        for shard_idx in 0..shared.shards.len() {
            let (job_tx, job_rx) = mpsc::channel::<BatchJob>();
            senders.push(job_tx);
            let job_rx = Arc::new(Mutex::new(job_rx));
            for lane in 0..shared.config.workers {
                let shared = Arc::clone(&shared);
                let job_rx = Arc::clone(&job_rx);
                workers.push(
                    thread::Builder::new()
                        .name(format!("hidet-shard{shard_idx}-worker{lane}"))
                        .spawn(move || worker_loop(&shared, shard_idx, &job_rx))
                        .expect("spawn worker"),
                );
            }
        }
        let dispatcher = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("hidet-dispatcher".into())
                .spawn(move || dispatch_loop(&shared, senders))
                .expect("spawn dispatcher")
        };

        Ok(Engine {
            shared,
            tuning_cache,
            dispatcher: Some(dispatcher),
            workers,
        })
    }

    /// Registers a model and returns its [`ModelHandle`] — the v2 entry
    /// point owning `infer`/`submit`/`warmup`/`unload` for that model.
    ///
    /// Re-registering a name replaces the previous family (outstanding
    /// handles to the old registration keep working against the new one —
    /// handles address models by name); compiled graphs are keyed
    /// structurally, so identical structures stay cached. If the spec (or
    /// [`EngineConfig::artifact_store`]) names an artifact store, the
    /// directory is created here.
    ///
    /// # Errors
    /// [`EngineError::Closed`] after shutdown began, [`EngineError::BadInput`]
    /// for an empty name, [`EngineError::Artifact`] when the artifact-store
    /// directory cannot be created.
    pub fn register(&self, spec: ModelSpec) -> Result<ModelHandle, EngineError> {
        if self.shared.closed.load(Ordering::SeqCst) {
            return Err(EngineError::Closed);
        }
        if spec.name.is_empty() {
            return Err(EngineError::BadInput(
                "model name must not be empty".to_string(),
            ));
        }
        let artifact_store = spec
            .artifact_store
            .or_else(|| self.shared.config.artifact_store.clone());
        if let Some(dir) = &artifact_store {
            std::fs::create_dir_all(dir).map_err(|e| {
                EngineError::Artifact(format!(
                    "cannot create artifact store {}: {e}",
                    dir.display()
                ))
            })?;
        }
        let entry = Arc::new(ModelEntry {
            builder: spec.builder,
            batchable: spec.batchable,
            artifact_store,
            variants: Mutex::new(HashMap::new()),
        });
        self.shared
            .registry
            .lock()
            .expect("registry poisoned")
            .insert(spec.name.clone(), entry);
        Ok(ModelHandle {
            name: Arc::from(spec.name),
            shared: Arc::clone(&self.shared),
        })
    }

    /// Current server statistics, including per-shard, artifact-store and
    /// eviction counters — plus the attached decode subsystem's snapshot
    /// when one is registered ([`Engine::attach_decode_stats`]).
    pub fn stats(&self) -> StatsSnapshot {
        let shards = self.shared.shards.iter().map(Shard::snapshot).collect();
        let mut snapshot = self
            .shared
            .stats
            .snapshot(self.shared.compiled.counters(), shards);
        let source = self
            .shared
            .decode_stats
            .lock()
            .expect("decode stats poisoned")
            .clone();
        snapshot.decode = source.map(|f| f());
        let ingress = self
            .shared
            .ingress_stats
            .lock()
            .expect("ingress stats poisoned")
            .clone();
        snapshot.ingress = ingress.map(|f| f());
        snapshot
    }

    /// Registers a decode-subsystem stats source (e.g.
    /// `hidet_decode::DecodeEngine::stats_source`), surfacing token-level
    /// serving metrics — TTFT, inter-token latency, tokens/sec, KV blocks in
    /// use — in [`StatsSnapshot::decode`]. Replaces any previous source.
    pub fn attach_decode_stats(
        &self,
        source: Arc<dyn Fn() -> crate::stats::DecodeStatsSnapshot + Send + Sync>,
    ) {
        *self
            .shared
            .decode_stats
            .lock()
            .expect("decode stats poisoned") = Some(source);
    }

    /// Registers a network-ingress stats source (e.g.
    /// `hidet_server::HidetServer::stats_source`), surfacing wire-level
    /// metrics — accepted/shed connections, ring occupancy,
    /// wire-to-first-byte latency — in [`StatsSnapshot::ingress`]. Replaces
    /// any previous source.
    pub fn attach_ingress_stats(
        &self,
        source: Arc<dyn Fn() -> crate::stats::IngressStatsSnapshot + Send + Sync>,
    ) {
        *self
            .shared
            .ingress_stats
            .lock()
            .expect("ingress stats poisoned") = Some(source);
    }

    /// The estimated queue delay of the least-loaded shard, in **simulated**
    /// seconds — the signal a network front-end polls to shed overload at
    /// the socket before any parsing or scheduler work (see
    /// [`AdmissionSignal`]).
    ///
    /// Takes the shard pending locks; callers on an accept hot path should
    /// sample it from a background thread into an atomic rather than call it
    /// per connection.
    pub fn estimated_queue_delay_seconds(&self) -> f64 {
        shard::least_queue_delay(&self.shared.shards).1
    }

    /// Number of distinct compiled graphs held by the cache.
    pub fn compiled_graphs(&self) -> usize {
        self.shared.compiled.len()
    }

    /// Persists tuning records to the configured path now. Returns the number
    /// of records written; no-op (`Ok(0)`) without a configured path.
    pub fn flush_tuning_records(&self) -> Result<usize, EngineError> {
        let Some(path) = &self.shared.config.tuning_records_path else {
            return Ok(0);
        };
        let mut cache = self.tuning_cache.lock().expect("tuning cache poisoned");
        cache
            .save(path)
            .map_err(|e| EngineError::Records(e.to_string()))?;
        Ok(cache.len())
    }

    /// Stops accepting requests, drains the queue, joins all threads and
    /// flushes tuning records. Called automatically on drop; call explicitly
    /// to observe persistence errors.
    pub fn shutdown(mut self) -> Result<(), EngineError> {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> Result<(), EngineError> {
        if self.dispatcher.is_none() {
            return Ok(()); // already shut down
        }
        self.shared.closed.store(true, Ordering::SeqCst);
        self.shared.queue_cv.notify_all();
        if let Some(handle) = self.dispatcher.take() {
            let _ = handle.join();
        }
        // The dispatcher owned every job sender; workers drain and exit.
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        self.flush_tuning_records().map(|_| ())
    }
}

/// The load signal a network front-end polls to shed overload at the socket.
///
/// Implemented by [`Engine`] (via
/// [`Engine::estimated_queue_delay_seconds`]); a front-end takes the signal
/// as a trait object so tests can substitute a synthetic load curve without
/// standing up an engine. The value is in **simulated** seconds, like
/// [`EngineConfig::admission_delay_bound`] — a front-end's shed bound is
/// expressed in the same unit, and per-class slack should stay monotone in
/// priority (see [`Priority::delay_slack`]).
pub trait AdmissionSignal: Send + Sync {
    /// Estimated queue delay of the least-loaded shard, simulated seconds.
    fn estimated_queue_delay_seconds(&self) -> f64;
}

impl AdmissionSignal for Engine {
    fn estimated_queue_delay_seconds(&self) -> f64 {
        Engine::estimated_queue_delay_seconds(self)
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // A panicking caller must not lose tuned schedules: flush records
        // *before* joining threads, which could hang or double-panic if the
        // engine is being torn down mid-flight. The normal path below
        // flushes again after the join, capturing records from batches that
        // were still executing.
        if thread::panicking() {
            let _ = self.flush_tuning_records();
        }
        let _ = self.shutdown_inner();
    }
}

/// A registered model's session: the v2 surface for everything scoped to one
/// model. Cheap to clone; handles address the model **by name**, so they
/// survive (and follow) re-registration under the same name, and resolve to
/// [`EngineError::UnknownModel`] after [`ModelHandle::unload`].
///
/// A handle holds the engine's shared state alive but not its threads: after
/// the [`Engine`] shuts down, submissions answer [`EngineError::Closed`].
#[derive(Clone)]
pub struct ModelHandle {
    name: Arc<str>,
    shared: Arc<Shared>,
}

impl fmt::Debug for ModelHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ModelHandle")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

impl ModelHandle {
    /// The model's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Enqueues one inference, returning immediately with a [`Ticket`]. The
    /// ticket resolves to [`EngineError::QueueFull`] if the admission
    /// controller sheds the request, and to
    /// [`EngineError::DeadlineExceeded`] if the request's deadline/timeout
    /// passes before a worker executes it.
    pub fn submit(&self, request: Request) -> Ticket {
        submit_request(&self.shared, &self.name, request)
    }

    /// Blocking single inference: [`ModelHandle::submit`] + [`Ticket::wait`].
    pub fn infer(&self, request: Request) -> Result<InferenceResult, EngineError> {
        self.submit(request).wait()
    }

    /// Submits a burst of requests and waits for all of them — the pattern
    /// that gives the dispatcher something to coalesce. Failures are
    /// **per-request**: one shed or expired request reports its own error
    /// without masking its siblings' results.
    pub fn infer_many(&self, requests: Vec<Request>) -> Vec<Result<InferenceResult, EngineError>> {
        let tickets: Vec<Ticket> = requests.into_iter().map(|r| self.submit(r)).collect();
        tickets.into_iter().map(Ticket::wait).collect()
    }

    /// Pre-compiles the model at `batch` for **every** shard, off the
    /// request path, and primes the placement scheduler's latency model with
    /// the analytic estimate per device. Returns whether every per-device
    /// compile was already cached in memory (homogeneous shards share one
    /// entry; an artifact-store rebuild counts as *not* cached).
    pub fn warmup(&self, batch: i64) -> Result<bool, EngineError> {
        warmup_model(&self.shared, &self.name, batch)
    }

    /// Unregisters the model, evicts its compiled graphs (counted under
    /// [`StatsSnapshot::compiled_evicted_unload`]) and placement estimates,
    /// and garbage-collects its on-disk artifacts (counted under
    /// [`StatsSnapshot::artifact_gc_removed`]) — an unloaded model's files
    /// can never be looked up again, so keeping them would only accrete
    /// orphans. Files whose structure is still reachable through another
    /// live registration (artifacts are keyed structurally) are spared;
    /// tuning records always survive, so a re-registration re-schedules
    /// with zero trials. A store directory shared with *other processes*
    /// is outside this engine's view — point concurrent engines at
    /// separate stores if their model sets differ. Requests already queued
    /// are answered [`EngineError::UnknownModel`]; so are later submissions
    /// through this (or any) handle. Idempotent: returns whether the model
    /// was loaded.
    pub fn unload(&self) -> bool {
        unload_model(&self.shared, &self.name)
    }
}

fn lookup_entry(shared: &Shared, model: &str) -> Result<Arc<ModelEntry>, EngineError> {
    shared
        .registry
        .lock()
        .expect("registry poisoned")
        .get(model)
        .cloned()
        .ok_or_else(|| EngineError::UnknownModel(model.to_string()))
}

/// [`ModelHandle::warmup`]'s engine-side implementation.
fn warmup_model(shared: &Shared, model: &str, batch: i64) -> Result<bool, EngineError> {
    let entry = lookup_entry(shared, model)?;
    let variant = entry.variant(batch);
    let mut all_hit = true;
    for shard in &shared.shards {
        let (compiled, outcome) = shared.compiled.get_or_compile_hashed(
            &variant.graph,
            variant.hash,
            &shard.gpu,
            &shared.config.options,
            entry.artifact_store.as_deref(),
        )?;
        record_compile(shared, &compiled, outcome);
        shared
            .latency_model
            .record(shard.id, model, batch, compiled.estimate(&shard.gpu));
        all_hit &= outcome.is_hit();
    }
    Ok(all_hit)
}

/// [`ModelHandle::unload`]'s engine-side implementation.
fn unload_model(shared: &Shared, model: &str) -> bool {
    let entry = shared
        .registry
        .lock()
        .expect("registry poisoned")
        .remove(model);
    let Some(entry) = entry else {
        return false;
    };
    let hashes: Vec<u64> = entry
        .variants
        .lock()
        .expect("registry poisoned")
        .values()
        .map(|v| v.hash)
        .collect();
    shared.compiled.evict_model(&hashes);
    shared.latency_model.forget_model(model);
    // Garbage-collect the unloaded model's on-disk artifacts: with the
    // registration gone they can never be looked up again (a later
    // re-registration recompiles, persisting fresh files), so keeping them
    // would only accrete orphans in a long-lived store. Artifacts are keyed
    // *structurally*, though, and handles address models by name — another
    // live registration can share the structure (same builder, different
    // name) and still warm-start from these files, so hashes reachable
    // through any surviving registration are spared.
    if let Some(dir) = &entry.artifact_store {
        let still_live: std::collections::HashSet<u64> = shared
            .registry
            .lock()
            .expect("registry poisoned")
            .values()
            .flat_map(|e| {
                e.variants
                    .lock()
                    .expect("registry poisoned")
                    .values()
                    .map(|v| v.hash)
                    .collect::<Vec<u64>>()
            })
            .collect();
        let doomed: Vec<u64> = hashes
            .into_iter()
            .filter(|h| !still_live.contains(h))
            .collect();
        let removed = ArtifactStore::new(dir).remove_model(&doomed);
        shared.stats.count_artifact_gc(removed);
    }
    true
}

/// Admission + enqueue: the one path every submission funnels through.
fn submit_request(shared: &Shared, model: &str, request: Request) -> Ticket {
    let _span = hidet_trace::global().span(hidet_trace::SpanKind::EngineSubmit, request.trace_id);
    let (tx, rx) = mpsc::channel();
    let ticket = Ticket { rx };
    if shared.closed.load(Ordering::SeqCst) {
        let _ = tx.send(Err(EngineError::Closed));
        return ticket;
    }
    let now = Instant::now();
    let deadline = request.effective_deadline(now);
    if deadline.is_some_and(|d| now >= d) {
        shared.stats.count_deadline_expired();
        let _ = tx.send(Err(EngineError::DeadlineExceeded));
        return ticket;
    }
    let pending = PendingRequest {
        model: model.to_string(),
        inputs: request.inputs,
        priority: request.priority,
        deadline,
        trace_id: request.trace_id,
        responder: tx,
    };
    {
        // Admission and enqueue under one lock so verdicts are ordered.
        let mut queue = shared.queue.lock().expect("queue poisoned");
        if let Some(err) = shared.admission_verdict(request.priority, queue.total()) {
            drop(queue);
            let _ = pending.responder.send(Err(err));
            return ticket;
        }
        shared.inflight.fetch_add(1, Ordering::Relaxed);
        queue.push(pending);
    }
    shared.queue_cv.notify_all();
    ticket
}

/// Partitions `requests` at `now`: every request whose deadline has passed
/// is answered `DeadlineExceeded` (counted, its in-flight slot released) and
/// the live ones come back in their original order — expired requests never
/// reach a worker.
fn answer_expired(
    shared: &Shared,
    requests: impl IntoIterator<Item = PendingRequest>,
    now: Instant,
) -> Vec<PendingRequest> {
    let mut live = Vec::new();
    for request in requests {
        if request.expired(now) {
            shared.stats.count_deadline_expired();
            request.respond(shared, Err(EngineError::DeadlineExceeded));
        } else {
            live.push(request);
        }
    }
    live
}

/// [`answer_expired`] over every class queue.
fn purge_expired(shared: &Shared, queue: &mut ClassQueues) {
    let now = Instant::now();
    for q in queue.classes.iter_mut() {
        if q.iter().any(|r| r.expired(now)) {
            *q = answer_expired(shared, q.drain(..), now).into();
        }
    }
}

/// Dispatcher: forms (model x priority class) batches from the priority
/// queues and places each on the shard with the least estimated queue delay.
fn dispatch_loop(shared: &Shared, senders: Vec<mpsc::Sender<BatchJob>>) {
    let mut token = 0u64;
    let mut queue = shared.queue.lock().expect("queue poisoned");
    loop {
        purge_expired(shared, &mut queue);
        // Wait for work (or shutdown).
        while queue.total() == 0 {
            if shared.closed.load(Ordering::SeqCst) {
                return;
            }
            queue = shared.queue_cv.wait(queue).expect("queue poisoned");
            purge_expired(shared, &mut queue);
        }
        let class_idx = queue.highest_nonempty().expect("non-empty");
        let class = Priority::ALL[class_idx];
        let model = queue.classes[class_idx]
            .front()
            .expect("non-empty")
            .model
            .clone();
        let same_group = |q: &ClassQueues| {
            q.classes[class_idx]
                .iter()
                .filter(|r| r.model == model)
                .count()
        };

        // Coalescing ceiling for this model: non-batchable registrations
        // (see `ModelSpec::unbatched`) always dispatch one at a time.
        let batchable = lookup_entry(shared, &model).map_or(true, |entry| entry.batchable);
        let cap = if batchable {
            shared.config.max_batch
        } else {
            1
        };

        // Hold the batch open briefly for stragglers (skipped when batching
        // is off or the batch is already full). The wait is abandoned as
        // soon as (a) some group's batch fills — the front group's partial
        // batch dispatches immediately and the full one follows — or (b) a
        // *higher* class gets traffic, bounding priority inversion to one
        // partial batch.
        if cap > 1 {
            let window_end = Instant::now() + shared.config.batch_window;
            while same_group(&queue) < cap
                && same_group(&queue) > 0
                && !shared.closed.load(Ordering::SeqCst)
                && !queue.any_full(shared.config.max_batch)
                && !queue.higher_nonempty(class_idx)
            {
                let now = Instant::now();
                if now >= window_end {
                    break;
                }
                // Wake at the earliest queued request deadline if it lands
                // inside the window, so expired requests are answered
                // promptly instead of after the full straggler wait.
                let wake = queue
                    .earliest_deadline()
                    .map_or(window_end, |d| d.min(window_end));
                let (q, _timeout) = shared
                    .queue_cv
                    .wait_timeout(queue, wake.saturating_duration_since(now))
                    .expect("queue poisoned");
                queue = q;
                purge_expired(shared, &mut queue);
            }
        }

        // Extract up to `cap` same-group requests, preserving the order of
        // everything else. Requests that expired while queued are answered
        // here instead of executed.
        let mut requests = Vec::new();
        let source = &mut queue.classes[class_idx];
        let mut rest = VecDeque::with_capacity(source.len());
        for request in answer_expired(shared, source.drain(..), Instant::now()) {
            if request.model == model && requests.len() < cap {
                requests.push(request);
            } else {
                rest.push_back(request);
            }
        }
        *source = rest;
        if requests.is_empty() {
            continue; // the whole group expired during the window
        }

        drop(queue); // don't hold the queue over placement or the send
        let batch_trace = requests.first().map_or(0, |r| r.trace_id);
        let _form = hidet_trace::global().span(hidet_trace::SpanKind::BatchForm, batch_trace);
        let batch = requests.len() as i64;
        let (shard_idx, queue_delay, estimate) = {
            let _place = hidet_trace::global().span(hidet_trace::SpanKind::ShardPlace, batch_trace);
            shard::pick_shard(&shared.shards, &shared.latency_model, &model, batch)
        };
        token += 1;
        shared.shards[shard_idx].place(token, estimate);
        let job = BatchJob {
            model,
            priority: class,
            requests,
            token,
            queue_delay,
        };
        if senders[shard_idx].send(job).is_err() {
            shared.shards[shard_idx].release(token);
            return; // workers gone
        }
        queue = shared.queue.lock().expect("queue poisoned");
    }
}

/// Worker: executes one shard's batch jobs until the dispatcher hangs up.
/// Each lane owns a [`hidet::Workspace`], so steady-state execution of a
/// model reuses one memory-planned arena instead of allocating fresh
/// buffers per request.
fn worker_loop(shared: &Shared, shard_idx: usize, jobs: &Mutex<mpsc::Receiver<BatchJob>>) {
    let mut workspace = hidet::Workspace::new();
    loop {
        let job = {
            let rx = jobs.lock().expect("job channel poisoned");
            rx.recv()
        };
        match job {
            Ok(job) => {
                let token = job.token;
                process_batch(shared, shard_idx, job, &mut workspace);
                shared.shards[shard_idx].release(token);
            }
            Err(_) => return,
        }
    }
}

fn fail_all(shared: &Shared, requests: Vec<PendingRequest>, err: EngineError) {
    shared
        .stats
        .failures
        .fetch_add(requests.len(), Ordering::Relaxed);
    for request in requests {
        request.respond(shared, Err(err.clone()));
    }
}

/// Tuning-side stats for a fresh compile or an artifact rebuild (cache
/// hit/miss/artifact counts live in the compiled cache itself — see
/// `CompiledCache::counters`). An artifact rebuild runs zero trials and
/// reports the artifact's embodied tuning cost as saved.
fn record_compile(shared: &Shared, compiled: &hidet::CompiledGraph, outcome: CacheOutcome) {
    if !outcome.is_hit() {
        shared
            .stats
            .add_tuning_run(compiled.tuning_trials(), compiled.tuning_seconds());
        shared.stats.add_tuning_saved(
            compiled.record_trials_saved(),
            compiled.record_seconds_saved(),
        );
        shared
            .stats
            .record_planned_peak(compiled.planned_peak_bytes());
    }
}

/// Checks one request's inputs against the model's batch-1 element counts.
fn validate(request: &PendingRequest, expected: &[usize]) -> Result<(), String> {
    if request.inputs.len() != expected.len() {
        return Err(format!(
            "expected {} input tensors, got {}",
            expected.len(),
            request.inputs.len()
        ));
    }
    match (0..expected.len()).find(|&i| request.inputs[i].len() != expected[i]) {
        Some(pos) => Err(format!(
            "input {} has {} elements, expected {}",
            pos,
            request.inputs[pos].len(),
            expected[pos]
        )),
        None => Ok(()),
    }
}

/// Executes one batch job on `shard_idx`'s device, accounting served
/// requests and busy time on the shard before any response is sent. The
/// caller's `workspace` provides the memory-planned arena (reused across
/// batches of the same compiled model).
fn process_batch(
    shared: &Shared,
    shard_idx: usize,
    job: BatchJob,
    workspace: &mut hidet::Workspace,
) {
    let _span = hidet_trace::global().span(
        hidet_trace::SpanKind::BatchExecute,
        job.requests.first().map_or(0, |r| r.trace_id),
    );
    let shard = &shared.shards[shard_idx];
    let entry = match lookup_entry(shared, &job.model) {
        Ok(entry) => entry,
        Err(unknown) => {
            fail_all(shared, job.requests, unknown);
            return;
        }
    };

    // Last-line deadline check: a request whose deadline passed while the
    // job sat in the shard channel is answered, not executed.
    let live = answer_expired(shared, job.requests, Instant::now());
    if live.is_empty() {
        return;
    }

    // Validate each request against the batch-1 shapes; reject misfits
    // individually so one bad client cannot poison a batch.
    let base = entry.variant(1);
    let expected: Vec<usize> = base
        .graph
        .inputs()
        .iter()
        .map(|&t| base.graph.tensor(t).numel() as usize)
        .collect();
    let mut valid = Vec::with_capacity(live.len());
    for request in live {
        match validate(&request, &expected) {
            Ok(()) => valid.push(request),
            Err(msg) => {
                shared.stats.failures.fetch_add(1, Ordering::Relaxed);
                request.respond(shared, Err(EngineError::BadInput(msg)));
            }
        }
    }
    if valid.is_empty() {
        return;
    }

    let batch = valid.len() as i64;
    let variant = entry.variant(batch);
    // The builder contract: inputs scale linearly with the batch size.
    let scales = variant
        .graph
        .inputs()
        .iter()
        .zip(&expected)
        .all(|(&t, &per)| variant.graph.tensor(t).numel() as usize == per * batch as usize);
    if !scales {
        fail_all(
            shared,
            valid,
            EngineError::BadInput(format!(
                "model builder does not scale inputs with the batch dimension at batch {batch}"
            )),
        );
        return;
    }

    let compiled = shared.compiled.get_or_compile_hashed(
        &variant.graph,
        variant.hash,
        &shard.gpu,
        &shared.config.options,
        entry.artifact_store.as_deref(),
    );
    let (compiled, outcome) = match compiled {
        Ok(result) => result,
        Err(e) => {
            fail_all(shared, valid, EngineError::Compile(e));
            return;
        }
    };
    record_compile(shared, &compiled, outcome);

    // Coalesce: requests are laid out contiguously along dim 0.
    let mut input_map = HashMap::new();
    for (pos, &tid) in variant.graph.inputs().iter().enumerate() {
        let mut buffer = Vec::with_capacity(expected[pos] * valid.len());
        for request in &valid {
            buffer.extend_from_slice(&request.inputs[pos]);
        }
        input_map.insert(tid, buffer);
    }

    let outputs = match compiled.run_with(&input_map, &shard.gpu, workspace) {
        Ok(outputs) => outputs,
        Err(e) => {
            fail_all(shared, valid, EngineError::Execution(e.to_string()));
            return;
        }
    };
    let latency = compiled.estimate(&shard.gpu);
    // Refine the placement scheduler's estimate for this shape on this shard.
    shared
        .latency_model
        .record(shard_idx, &job.model, batch, latency);
    shared.stats.record_batch(
        job.priority,
        valid.len(),
        latency,
        job.queue_delay + latency,
    );
    shard.account(valid.len(), latency);

    // Scatter each output back to its request.
    let out_ids: Vec<_> = variant.graph.outputs().to_vec();
    let per_request: Vec<usize> = out_ids
        .iter()
        .map(|&t| variant.graph.tensor(t).numel() as usize / valid.len())
        .collect();
    for (i, request) in valid.into_iter().enumerate() {
        let slices: Vec<Vec<f32>> = out_ids
            .iter()
            .zip(&per_request)
            .map(|(&t, &len)| outputs[&t][i * len..(i + 1) * len].to_vec())
            .collect();
        request.respond(
            shared,
            Ok(InferenceResult {
                outputs: slices,
                batch_size: batch as usize,
                simulated_latency_seconds: latency,
                queue_delay_seconds: job.queue_delay,
                priority: job.priority,
                compile_cache_hit: outcome.is_hit(),
            }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sheds must be monotone in priority: for any load state, a shed
    /// high-priority request implies normal and best-effort would be shed
    /// too — "high is never shed before best-effort".
    #[test]
    fn admission_thresholds_are_monotone_in_priority() {
        for pair in Priority::ALL.windows(2) {
            let (higher, lower) = (pair[0], pair[1]);
            assert!(
                higher.queue_share() >= lower.queue_share(),
                "{higher} vs {lower}"
            );
            assert!(
                higher.delay_slack() >= lower.delay_slack(),
                "{higher} vs {lower}"
            );
        }
    }

    #[test]
    fn priority_order_and_labels() {
        assert_eq!(Priority::High.index(), 0);
        assert_eq!(Priority::Normal.index(), 1);
        assert_eq!(Priority::BestEffort.index(), 2);
        assert_eq!(Priority::default(), Priority::Normal);
        assert!(Priority::High < Priority::BestEffort);
        assert_eq!(Priority::BestEffort.label(), "best-effort");
    }

    #[test]
    fn request_builder_defaults_and_shorthands() {
        let r = Request::new(vec![vec![1.0]]);
        assert_eq!(r.priority(), Priority::Normal);
        assert!(r.effective_deadline(Instant::now()).is_none());
        assert_eq!(Request::default().high().priority(), Priority::High);
        assert_eq!(
            Request::default().best_effort().priority(),
            Priority::BestEffort
        );
    }

    #[test]
    fn request_effective_deadline_takes_the_earlier_bound() {
        let now = Instant::now();
        let absolute = now + Duration::from_millis(50);

        // Deadline only.
        let r = Request::default().with_deadline(absolute);
        assert_eq!(r.effective_deadline(now), Some(absolute));

        // Timeout only: counted from submission.
        let r = Request::default().with_timeout(Duration::from_millis(20));
        assert_eq!(
            r.effective_deadline(now),
            Some(now + Duration::from_millis(20))
        );

        // Both: the earlier wins, whichever it is.
        let r = Request::default()
            .with_deadline(absolute)
            .with_timeout(Duration::from_millis(20));
        assert_eq!(
            r.effective_deadline(now),
            Some(now + Duration::from_millis(20))
        );
        let r = Request::default()
            .with_deadline(absolute)
            .with_timeout(Duration::from_millis(200));
        assert_eq!(r.effective_deadline(now), Some(absolute));

        // A timeout `Instant` cannot represent is no timeout (`now + t`
        // panicked the submitting thread). Only library callers can pass
        // one: the HTTP front-end's `timeout_ms` is at most 2^53 ms.
        let r = Request::default().with_timeout(Duration::MAX);
        assert_eq!(r.effective_deadline(now), None);
        let r = r.with_deadline(absolute);
        assert_eq!(r.effective_deadline(now), Some(absolute));
    }

    #[test]
    fn answer_expired_keeps_live_requests_in_order_and_settles_the_rest_once() {
        let shared = Shared::new(EngineConfig::quick());
        let now = Instant::now();
        let past = now - Duration::from_millis(1);
        let future = now + Duration::from_secs(60);
        // (deadline, tag): expired, live, no deadline, expired, live.
        let deadlines = [Some(past), Some(future), None, Some(now), Some(future)];
        let mut tickets = Vec::new();
        let batch: Vec<PendingRequest> = deadlines
            .iter()
            .enumerate()
            .map(|(tag, &deadline)| {
                let (tx, rx) = mpsc::channel();
                tickets.push(Ticket { rx });
                PendingRequest {
                    model: "m".to_string(),
                    inputs: Vec::new(),
                    priority: Priority::Normal,
                    deadline,
                    trace_id: tag as u64,
                    responder: tx,
                }
            })
            .collect();
        shared.inflight.store(batch.len(), Ordering::Relaxed);

        let live = answer_expired(&shared, batch, now);
        let tags: Vec<u64> = live.iter().map(|r| r.trace_id).collect();
        assert_eq!(tags, [1, 2, 4], "live and deadline-free requests, in order");
        let stats = shared
            .stats
            .snapshot(shared.compiled.counters(), Vec::new());
        assert_eq!((stats.deadline_expired, stats.failures), (2, 2));
        assert_eq!(
            shared.inflight.load(Ordering::Relaxed),
            3,
            "two slots freed"
        );
        drop(live);
        for (tag, ticket) in tickets.into_iter().enumerate() {
            let want = if tag == 0 || tag == 3 {
                EngineError::DeadlineExceeded
            } else {
                EngineError::Closed // dropped unanswered above
            };
            assert_eq!(ticket.wait().unwrap_err(), want, "request {tag}");
        }
    }

    #[test]
    fn class_queues_priority_accounting() {
        let (tx, _rx) = mpsc::channel();
        let req = |priority: Priority, model: &str| PendingRequest {
            model: model.to_string(),
            inputs: Vec::new(),
            priority,
            deadline: None,
            trace_id: 0,
            responder: tx.clone(),
        };
        let mut q = ClassQueues::default();
        assert_eq!(q.total(), 0);
        assert_eq!(q.highest_nonempty(), None);
        q.push(req(Priority::BestEffort, "a"));
        q.push(req(Priority::BestEffort, "a"));
        assert_eq!(q.highest_nonempty(), Some(Priority::BestEffort.index()));
        q.push(req(Priority::High, "b"));
        assert_eq!(q.highest_nonempty(), Some(Priority::High.index()));
        assert!(q.higher_nonempty(Priority::BestEffort.index()));
        assert!(!q.higher_nonempty(Priority::High.index()));
        assert_eq!(q.total(), 3);
        assert!(q.any_full(2), "two best-effort 'a' requests fill a 2-batch");
        assert!(!q.any_full(3));
    }
}
