//! The request path up to a shard's job channel: the per-class queues,
//! submission (admission + enqueue under one lock), deadline expiry, and the
//! dispatcher thread that forms (model x class) batches and places them.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::time::Instant;

use super::registry::lookup_entry;
use super::{EngineError, InferenceResult, Priority, Request, Shared, Ticket};
use crate::shard;

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
}

/// A formed batch bound for one shard's worker pool.
pub(super) struct BatchJob {
    pub(super) model: String,
    pub(super) priority: Priority,
    pub(super) requests: Vec<PendingRequest>,
    /// Pending-entry token in the target shard (released on completion).
    pub(super) token: u64,
    /// The target shard's estimated queue delay at placement, seconds.
    pub(super) queue_delay: f64,
}

/// The priority queues feeding the dispatcher: one FIFO per class.
#[derive(Default)]
pub(super) struct ClassQueues {
    classes: [VecDeque<PendingRequest>; Priority::COUNT],
}

impl ClassQueues {
    pub(super) fn total(&self) -> usize {
        self.classes.iter().map(VecDeque::len).sum()
    }

    pub(super) fn push(&mut self, request: PendingRequest) {
        self.classes[request.priority.index()].push_back(request);
    }

    pub(super) fn highest_nonempty(&self) -> Option<usize> {
        self.classes.iter().position(|q| !q.is_empty())
    }

    pub(super) fn higher_nonempty(&self, class: usize) -> bool {
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
    pub(super) fn any_full(&self, cap: usize) -> bool {
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

/// Admission + enqueue: the one path every submission funnels through.
pub(super) fn submit_request(shared: &Shared, model: &str, request: Request) -> Ticket {
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
pub(super) fn answer_expired(
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
pub(super) fn dispatch_loop(shared: &Shared, senders: Vec<mpsc::Sender<BatchJob>>) {
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
