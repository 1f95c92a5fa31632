//! What a client hands the engine and what it gets back: the [`Priority`]
//! classes and their [`ClassQueues`], the [`Request`] builder, the
//! [`Ticket`] it is exchanged for, the [`InferenceResult`] and the
//! [`EngineError`]s a ticket resolves to; and submission.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use hidet::CompileError;

use super::Shared;

#[cfg(doc)]
use super::EngineConfig;

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
    pub(super) fn queue_share(self) -> f64 {
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

/// One FIFO per [`Priority`] class, served highest class first — the
/// waiting line of both engines (the one-shot dispatcher's queue, and each
/// decode shard's in `hidet-decode`).
#[derive(Debug)]
pub struct ClassQueues<T> {
    classes: [VecDeque<T>; Priority::COUNT],
}

impl<T> Default for ClassQueues<T> {
    fn default() -> Self {
        ClassQueues {
            classes: Default::default(),
        }
    }
}

impl<T> ClassQueues<T> {
    /// Appends `item` to `class`'s FIFO.
    pub fn push(&mut self, class: Priority, item: T) {
        self.classes[class.index()].push_back(item);
    }

    /// Puts `item` at the head of `class`'s FIFO, ahead of its newcomers.
    pub fn push_front(&mut self, class: Priority, item: T) {
        self.classes[class.index()].push_front(item);
    }

    /// Removes the head of the highest non-empty class.
    pub fn pop_highest(&mut self) -> Option<T> {
        self.classes.iter_mut().find_map(VecDeque::pop_front)
    }

    /// Whether a class above `class` has anything queued.
    pub fn higher_nonempty(&self, class: Priority) -> bool {
        self.classes[..class.index()].iter().any(|q| !q.is_empty())
    }

    /// Items queued across every class.
    pub fn len(&self) -> usize {
        self.classes.iter().map(VecDeque::len).sum()
    }

    /// Whether every class is empty.
    pub fn is_empty(&self) -> bool {
        self.classes.iter().all(VecDeque::is_empty)
    }

    /// Every queued item, highest class first, each class in FIFO order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.classes.iter().flatten()
    }

    /// Hands every item `doomed` selects to `answer` and keeps the rest
    /// queued in their order (a stable in-place partition). Both closures
    /// see items in [`ClassQueues::iter`] order, `doomed` once per item.
    pub fn settle(&mut self, mut doomed: impl FnMut(&T) -> bool, mut answer: impl FnMut(T)) {
        for queue in &mut self.classes {
            for _ in 0..queue.len() {
                let Some(item) = queue.pop_front() else {
                    break;
                };
                if doomed(&item) {
                    answer(item);
                } else {
                    queue.push_back(item);
                }
            }
        }
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
    pub(super) inputs: Vec<Vec<f32>>,
    pub(super) priority: Priority,
    deadline: Option<Instant>,
    timeout: Option<Duration>,
    pub(super) trace_id: u64,
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
    pub(super) fn effective_deadline(&self, now: Instant) -> Option<Instant> {
        match (self.deadline, self.timeout.and_then(|t| now.checked_add(t))) {
            (Some(d), Some(t)) => Some(d.min(t)),
            (d, t) => d.or(t),
        }
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
    pub(super) rx: mpsc::Receiver<Result<InferenceResult, EngineError>>,
}

impl Ticket {
    /// Blocks until the result is available.
    pub fn wait(self) -> Result<InferenceResult, EngineError> {
        self.rx.recv().unwrap_or(Err(EngineError::Closed))
    }
}

/// An admitted request as it waits in the engine: its deadline fixed at
/// submission, its in-flight slot held until [`PendingRequest::respond`].
pub(super) struct PendingRequest {
    pub(super) model: String,
    pub(super) inputs: Vec<Vec<f32>>,
    pub(super) priority: Priority,
    pub(super) deadline: Option<Instant>,
    pub(super) trace_id: u64,
    pub(super) responder: mpsc::Sender<Result<InferenceResult, EngineError>>,
}

impl PendingRequest {
    /// Answers the request and releases its in-flight admission slot.
    /// A client that dropped its ticket is not an engine error.
    pub(super) fn respond(self, shared: &Shared, result: Result<InferenceResult, EngineError>) {
        shared.inflight.fetch_sub(1, Ordering::Relaxed);
        let _ = self.responder.send(result);
    }

    pub(super) fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now >= d)
    }

    /// Answers an expired request: `DeadlineExceeded`, counted.
    pub(super) fn expire(self, shared: &Shared) {
        shared.stats.count_deadline_expired();
        self.respond(shared, Err(EngineError::DeadlineExceeded));
    }
}

/// Admission + enqueue: the one path every submission funnels through. A
/// timeout counts from here, on the wall clock.
pub(super) fn submit_request(shared: &Shared, model: &str, request: Request) -> Ticket {
    let _span = hidet_trace::global().span(hidet_trace::SpanKind::EngineSubmit, request.trace_id);
    let (tx, rx) = mpsc::channel();
    let ticket = Ticket { rx };
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
        // Admission and enqueue under one lock so verdicts are ordered — the
        // lock `closed` is written under, so a request is either refused or
        // queued before the engine's final drain.
        let mut queue = shared.queue.lock().expect("queue poisoned");
        if let Some(err) = shared.admission_verdict(request.priority, queue.len()) {
            drop(queue);
            let _ = pending.responder.send(Err(err));
            return ticket;
        }
        shared.inflight.fetch_add(1, Ordering::Relaxed);
        queue.push(request.priority, pending);
    }
    shared.queue_cv.notify_all();
    ticket
}

/// [`PendingRequest::expire`]s every request expired at `now`; the live
/// ones come back in their order.
pub(super) fn answer_expired(
    shared: &Shared,
    requests: Vec<PendingRequest>,
    now: Instant,
) -> Vec<PendingRequest> {
    let (expired, live): (Vec<_>, Vec<_>) = requests.into_iter().partition(|r| r.expired(now));
    expired.into_iter().for_each(|r| r.expire(shared));
    live
}
