//! The serving engine: a multi-session inference front-end over the Hidet
//! compiler and a pool of simulated GPUs. What each layer does is listed
//! once, in the [crate docs](crate); DESIGN.md §3–§5 say why.
//!
//! ```text
//!   clients ── handle.submit ──▶ admission ──▶ priority queues ──▶ batch former
//!              (Request:         (sheds when    High / Normal /    (model x class)
//!               priority,         overloaded)   BestEffort            │  ▲ next(now): the dispatcher
//!               deadline,                                             │  │ thread or a Stepper
//!               timeout)                                              ▼ least-estimated-queue-delay
//!                                        shard 0 workers ◀── placement ──▶ shard N workers
//!                                              │                                │
//!                                              ▼                                ▼
//!                               shared compiled-graph cache ──▶ hidet-sim device per shard
//!                                     │  ▲
//!                                     ▼  │ (zero-tuning rebuild)
//!                               disk artifact store (persists across processes)
//! ```
//!
//! **One batch former, two drivers.** Batch formation and placement take
//! the host instant as an argument. [`Engine::new`]'s dispatcher thread
//! reads the wall clock and hands batches to each shard's worker threads; a
//! [`Stepper`] ([`Engine::stepped`]) is handed the instant and executes the
//! batches on its caller's thread.

mod config;
mod dispatch;
mod registry;
mod request;
mod stepper;
mod worker;

pub use self::config::EngineConfig;
pub use self::registry::{ModelHandle, ModelSpec};
pub use self::request::{ClassQueues, EngineError, InferenceResult, Priority, Request, Ticket};
pub use self::stepper::Stepper;

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

use hidet_sched::TuningCache;

use self::dispatch::{dispatch_loop, BatchJob};
use self::registry::ModelEntry;
use self::request::PendingRequest;
use self::worker::worker_loop;
use crate::cache::CompiledCache;
use crate::shard::{self, LatencyModel, Shard};
use crate::stats::{ServerStats, StatsSnapshot};

struct Shared {
    /// The sanitised construction config; its `options` carry the engine's
    /// tuning-record store.
    config: EngineConfig,
    registry: Mutex<HashMap<String, Arc<ModelEntry>>>,
    queue: Mutex<ClassQueues<PendingRequest>>,
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

    /// Begins shutdown: nothing is admitted from here on; the driver drains
    /// the queue.
    fn close(&self) {
        {
            // Under the queue lock, which the dispatcher holds from reading
            // `closed` to sleeping, so the wake-up cannot be lost. (A
            // poisoned lock is still a held lock; `Drop` must not panic.)
            let _queue = self.queue.lock();
            self.closed.store(true, Ordering::SeqCst);
        }
        self.queue_cv.notify_all();
    }

    /// Total worker lanes across the pool.
    fn total_lanes(&self) -> usize {
        self.shards.iter().map(|s| s.lanes).sum()
    }

    /// Admission verdict for a request of `class` while `queued` requests
    /// wait in the dispatcher queue. `None` admits; a closed engine admits
    /// nothing. Then two monotone-in-priority checks:
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
        if self.closed.load(Ordering::SeqCst) {
            return Some(EngineError::Closed);
        }
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
    /// The worker pools and the dispatcher (none on a
    /// [stepped](Engine::stepped) engine); `None` once shut down.
    threads: Option<Vec<thread::JoinHandle<()>>>,
}

impl Engine {
    /// Starts an engine: loads tuning records (if configured), builds one
    /// shard per configured device, spawns the per-shard worker pools and
    /// the dispatcher.
    ///
    /// # Errors
    /// [`EngineError::Records`] if a configured record file exists but cannot
    /// be read or parsed (a *missing* file is a normal cold start).
    pub fn new(config: EngineConfig) -> Result<Engine, EngineError> {
        let mut engine = Engine::unstarted(config)?;
        let shared = &engine.shared;
        // One job channel per shard; the dispatcher owns every sender, so
        // worker pools drain and exit once the dispatcher hangs up.
        let mut senders = Vec::with_capacity(shared.shards.len());
        let mut threads = Vec::new();
        for shard_idx in 0..shared.shards.len() {
            let (job_tx, job_rx) = mpsc::channel::<BatchJob>();
            senders.push(job_tx);
            let job_rx = Arc::new(Mutex::new(job_rx));
            for lane in 0..shared.config.workers {
                let shared = Arc::clone(shared);
                let job_rx = Arc::clone(&job_rx);
                threads.push(
                    thread::Builder::new()
                        .name(format!("hidet-shard{shard_idx}-worker{lane}"))
                        .spawn(move || worker_loop(&shared, shard_idx, &job_rx))
                        .expect("spawn worker"),
                );
            }
        }
        let shared = Arc::clone(shared);
        threads.push(
            thread::Builder::new()
                .name("hidet-dispatcher".into())
                .spawn(move || dispatch_loop(&shared, senders))
                .expect("spawn dispatcher"),
        );
        engine.threads = Some(threads);
        Ok(engine)
    }

    /// An engine with no threads: the same batch former runs, and the
    /// batches it places execute, only as the returned [`Stepper`] is
    /// stepped at instants the caller names — so batches are a function of
    /// the calls made, not of host timing. A [`Ticket`] resolves once a step
    /// has served it: step first, then [`wait`](Ticket::wait).
    ///
    /// # Errors
    /// As [`Engine::new`].
    pub fn stepped(config: EngineConfig) -> Result<(Engine, Stepper), EngineError> {
        let engine = Engine::unstarted(config)?;
        let stepper = Stepper::new(Arc::clone(&engine.shared));
        Ok((engine, stepper))
    }

    /// The engine's state, its tuning-record store attached, and no driver.
    fn unstarted(config: EngineConfig) -> Result<Engine, EngineError> {
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
        Ok(Engine {
            shared: Arc::new(Shared::new(config)),
            tuning_cache,
            threads: Some(Vec::new()),
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
    /// to observe persistence errors. (A stepped engine has no threads to
    /// join: its queue drains as its [`Stepper`] is stepped, or dropped.)
    pub fn shutdown(mut self) -> Result<(), EngineError> {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> Result<(), EngineError> {
        let Some(threads) = self.threads.take() else {
            return Ok(()); // already shut down
        };
        self.shared.close();
        // The dispatcher drains the queue and exits, dropping every job
        // sender; the workers then drain their channels and exit.
        for handle in threads {
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

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    use super::request::answer_expired;
    use super::*;

    /// A queued request for `model` at `priority`, and its ticket.
    pub(super) fn pending(
        model: &str,
        priority: Priority,
        deadline: Option<Instant>,
        trace_id: u64,
    ) -> (PendingRequest, Ticket) {
        let (tx, rx) = mpsc::channel();
        let request = PendingRequest {
            model: model.to_string(),
            inputs: Vec::new(),
            priority,
            deadline,
            trace_id,
            responder: tx,
        };
        (request, Ticket { rx })
    }

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
                let (request, ticket) = pending("m", Priority::Normal, deadline, tag as u64);
                tickets.push(ticket);
                request
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
        let mut q = ClassQueues::default();
        assert_eq!((q.len(), q.is_empty()), (0, true));
        assert_eq!(q.iter().next(), None);
        q.push(Priority::BestEffort, "a1");
        q.push(Priority::BestEffort, "a2");
        assert!(!q.higher_nonempty(Priority::BestEffort));
        q.push(Priority::High, "b1");
        q.push_front(Priority::High, "b0");
        assert!(q.higher_nonempty(Priority::BestEffort));
        assert!(!q.higher_nonempty(Priority::High));
        assert_eq!(q.len(), 4);
        let order: Vec<&str> = q.iter().copied().collect();
        assert_eq!(order, ["b0", "b1", "a1", "a2"], "highest class first");

        // `settle` is a stable partition: the doomed go to `answer` in queue
        // order, the rest stay queued in theirs.
        let mut settled = Vec::new();
        q.settle(|s| s.ends_with('1'), |s| settled.push(s));
        assert_eq!(settled, ["b1", "a1"]);
        assert_eq!(q.iter().copied().collect::<Vec<_>>(), ["b0", "a2"]);
        assert_eq!(q.pop_highest(), Some("b0"));
        assert_eq!(q.pop_highest(), Some("a2"));
        assert!(q.is_empty());
    }

    /// A job the dispatcher cannot hand over — its shard's workers are gone
    /// — is answered, and its requests' in-flight slots come back.
    #[test]
    fn an_undeliverable_batch_is_answered_closed() {
        let shared = Shared::new(EngineConfig::quick());
        let (request, ticket) = pending("m", Priority::Normal, None, 1);
        shared.inflight.store(1, Ordering::Relaxed);
        shared.queue.lock().unwrap().push(Priority::Normal, request);
        shared.close();
        let (tx, rx) = mpsc::channel();
        drop(rx);
        dispatch::dispatch_loop(&shared, vec![tx]);
        assert_eq!(ticket.wait().unwrap_err(), EngineError::Closed);
        assert_eq!(shared.inflight.load(Ordering::Relaxed), 0);
        assert_eq!(shared.shards[0].queue_delay(), 0.0, "placement released");
    }
}
