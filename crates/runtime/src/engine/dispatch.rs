//! The batch former ([`Dispatcher`]) and its thread driver
//! ([`dispatch_loop`]). Host time enters only as the `now` a driver passes
//! in, so the same queue at the same instants forms the same batches under
//! the thread or a [`Stepper`](super::Stepper).

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::time::Instant;

use hidet_trace::SpanKind;

use super::registry::lookup_entry;
use super::request::PendingRequest;
use super::{ClassQueues, EngineError, Priority, Shared};
use crate::shard;

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

/// What [`Dispatcher::next`] decided.
pub(super) enum Next {
    /// A batch placed on `shard`; its executor releases the token.
    Place { shard: usize, job: BatchJob },
    /// Nothing ready: call again by this instant, if any, or on a submission.
    Wait(Option<Instant>),
}

/// The group a straggler window is open on, with its batch cap.
struct Window {
    class: Priority,
    model: String,
    cap: usize,
    end: Instant,
}

/// The batch former: the open straggler window and the last placement token.
#[derive(Default)]
pub(super) struct Dispatcher {
    window: Option<Window>,
    token: u64,
}

impl Dispatcher {
    /// One decision at host instant `now`: answers expired requests, then
    /// batches the head (class, model) group — up to `max_batch` requests
    /// in queue order, 1 if unbatched — on the least-queue-delay shard. An
    /// under-full group is held until `batch_window` after the `now` it was
    /// first held at, or until it or another group fills, a higher class
    /// queues or the engine closes; *that* group dispatches then, so
    /// priority inversion is bounded by one partial batch.
    pub(super) fn next(
        &mut self,
        shared: &Shared,
        queue: &mut ClassQueues<PendingRequest>,
        now: Instant,
    ) -> Next {
        queue.settle(|r| r.expired(now), |r| r.expire(shared));
        loop {
            let window = match self.window.take() {
                Some(window) => window,
                None => {
                    let Some(head) = queue.iter().next() else {
                        return Next::Wait(None);
                    };
                    let cap = match lookup_entry(shared, &head.model) {
                        Ok(entry) if !entry.batchable => 1,
                        _ => shared.config.max_batch,
                    };
                    Window {
                        class: head.priority,
                        model: head.model.clone(),
                        cap,
                        end: now + shared.config.batch_window,
                    }
                }
            };
            let in_group =
                |r: &PendingRequest| r.priority == window.class && r.model == window.model;
            let group = queue.iter().filter(|r| in_group(r)).count();
            if group > 0
                && group < window.cap
                && now < window.end
                && !shared.closed.load(Ordering::SeqCst)
                && !any_full(queue, shared.config.max_batch)
                && !queue.higher_nonempty(window.class)
            {
                // Wake at the window's end or the earliest queued deadline.
                let deadlines = queue.iter().filter_map(|r| r.deadline);
                let wake = deadlines.fold(window.end, Instant::min);
                self.window = Some(window);
                return Next::Wait(Some(wake));
            }
            let (mut requests, mut taken) = (Vec::new(), 0);
            let take = |r: &PendingRequest| {
                let take = in_group(r) && taken < window.cap;
                taken += usize::from(take);
                take
            };
            queue.settle(take, |r| requests.push(r));
            if let Some(first) = requests.first() {
                let _form = hidet_trace::global().span(SpanKind::BatchForm, first.trace_id);
                let (shard, queue_delay) = {
                    let _place = hidet_trace::global().span(SpanKind::ShardPlace, first.trace_id);
                    shard::least_queue_delay(&shared.shards)
                };
                let batch = requests.len() as i64;
                let estimate = shared.latency_model.estimate(shard, &window.model, batch);
                self.token += 1;
                shared.shards[shard].place(self.token, estimate);
                let job = BatchJob {
                    model: window.model,
                    priority: window.class,
                    requests,
                    token: self.token,
                    queue_delay,
                };
                return Next::Place { shard, job };
            }
            // The whole group expired during its window: pick again.
        }
    }
}

/// Whether some (class, model) group already has a full batch waiting.
fn any_full(queue: &ClassQueues<PendingRequest>, cap: usize) -> bool {
    let mut counts: HashMap<(Priority, &str), usize> = HashMap::new();
    queue.iter().any(|r| {
        let n = counts.entry((r.priority, r.model.as_str())).or_insert(0);
        *n += 1;
        *n >= cap
    })
}

/// The thread driver, and the one place the batch former's clock is read:
/// sends each placed batch down its shard's job channel, or sleeps on the
/// queue condvar until the wake instant or a submission, until the engine
/// is closed and its queue drained.
pub(super) fn dispatch_loop(shared: &Shared, senders: Vec<mpsc::Sender<BatchJob>>) {
    let mut dispatcher = Dispatcher::default();
    let mut queue = shared.queue.lock().expect("queue poisoned");
    loop {
        let now = Instant::now();
        match dispatcher.next(shared, &mut queue, now) {
            Next::Place { shard, job } => {
                drop(queue); // don't hold the queue over the send
                if let Err(mpsc::SendError(job)) = senders[shard].send(job) {
                    // The shard's workers are gone: answer, don't strand.
                    shared.shards[shard].release(job.token);
                    for request in job.requests {
                        request.respond(shared, Err(EngineError::Closed));
                    }
                }
                queue = shared.queue.lock().expect("queue poisoned");
            }
            // `closed` is written under the queue lock: it cannot flip
            // between this check and the wait.
            Next::Wait(_) if shared.closed.load(Ordering::SeqCst) && queue.is_empty() => return,
            Next::Wait(None) => queue = shared.queue_cv.wait(queue).expect("queue poisoned"),
            Next::Wait(Some(wake)) => {
                let timeout = wake.saturating_duration_since(now);
                let waited = shared.queue_cv.wait_timeout(queue, timeout);
                queue = waited.expect("queue poisoned").0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;
    use std::time::Duration;

    use super::super::registry::ModelEntry;
    use super::super::tests::pending;
    use super::super::{EngineConfig, Ticket};
    use super::*;

    const WINDOW: Duration = Duration::from_millis(10);
    const MS: Duration = Duration::from_millis(1);
    use Priority::{BestEffort, High, Normal};

    fn shared(max_batch: usize) -> Shared {
        Shared::new(EngineConfig {
            max_batch,
            batch_window: WINDOW,
            ..EngineConfig::quick()
        })
    }

    /// Queues one request per `(model, class, deadline)`, traced 1, 2, ...
    /// after those already in `queue`.
    fn push(
        queue: &mut ClassQueues<PendingRequest>,
        requests: &[(&str, Priority, Option<Instant>)],
    ) -> Vec<Ticket> {
        let mut tickets = Vec::new();
        for &(model, class, deadline) in requests {
            let trace = queue.len() as u64 + 1;
            let (request, ticket) = pending(model, class, deadline, trace);
            queue.push(class, request);
            tickets.push(ticket);
        }
        tickets
    }

    /// A placed batch's traces, or the instant a wait asks to be woken at.
    fn decided(next: Next) -> Result<Vec<u64>, Option<Instant>> {
        match next {
            Next::Place { job, .. } => Ok(job.requests.iter().map(|r| r.trace_id).collect()),
            Next::Wait(wake) => Err(wake),
        }
    }

    #[test]
    fn a_partial_group_waits_out_the_window_it_was_first_held_at() {
        let (shared, mut d, mut q, t0) = (
            shared(4),
            Dispatcher::default(),
            Default::default(),
            Instant::now(),
        );
        let _tickets = push(&mut q, &[("a", Normal, None), ("a", Normal, None)]);
        assert_eq!(decided(d.next(&shared, &mut q, t0)), Err(Some(t0 + WINDOW)));
        let later = t0 + WINDOW / 2;
        assert_eq!(
            decided(d.next(&shared, &mut q, later)),
            Err(Some(t0 + WINDOW))
        );
        assert_eq!(
            decided(d.next(&shared, &mut q, t0 + WINDOW)),
            Ok(vec![1, 2])
        );
        assert_eq!(decided(d.next(&shared, &mut q, t0 + WINDOW)), Err(None));
    }

    #[test]
    fn a_full_group_dispatches_at_once() {
        let (shared, mut d, mut q, t0) = (
            shared(4),
            Dispatcher::default(),
            Default::default(),
            Instant::now(),
        );
        let _tickets = push(&mut q, &[("a", Normal, None); 5]);
        assert_eq!(decided(d.next(&shared, &mut q, t0)), Ok(vec![1, 2, 3, 4]));
        assert_eq!(decided(d.next(&shared, &mut q, t0)), Err(Some(t0 + WINDOW)));
    }

    #[test]
    fn a_full_batch_of_another_group_ends_the_window() {
        let (shared, mut d, mut q, t0) = (
            shared(4),
            Dispatcher::default(),
            Default::default(),
            Instant::now(),
        );
        let mut tickets = push(&mut q, &[("a", Normal, None)]);
        assert_eq!(decided(d.next(&shared, &mut q, t0)), Err(Some(t0 + WINDOW)));
        tickets.extend(push(&mut q, &[("b", Normal, None); 4]));
        assert_eq!(decided(d.next(&shared, &mut q, t0 + MS)), Ok(vec![1]));
        assert_eq!(
            decided(d.next(&shared, &mut q, t0 + MS)),
            Ok(vec![2, 3, 4, 5])
        );
    }

    #[test]
    fn higher_class_traffic_dispatches_the_held_group_first() {
        let (shared, mut d, mut q, t0) = (
            shared(4),
            Dispatcher::default(),
            Default::default(),
            Instant::now(),
        );
        let mut tickets = push(&mut q, &[("a", BestEffort, None)]);
        assert_eq!(decided(d.next(&shared, &mut q, t0)), Err(Some(t0 + WINDOW)));
        tickets.extend(push(&mut q, &[("h", High, None)]));
        // The held best-effort batch goes first: inversion is bounded by
        // that one partial batch; then the high request is held in turn.
        assert_eq!(decided(d.next(&shared, &mut q, t0 + MS)), Ok(vec![1]));
        let held = decided(d.next(&shared, &mut q, t0 + MS));
        assert_eq!(held, Err(Some(t0 + MS + WINDOW)));
    }

    #[test]
    fn a_queued_deadline_inside_the_window_is_the_wake() {
        let (shared, mut d, mut q, t0) = (
            shared(4),
            Dispatcher::default(),
            Default::default(),
            Instant::now(),
        );
        let due = t0 + 3 * MS;
        let tickets = push(&mut q, &[("a", Normal, None), ("b", BestEffort, Some(due))]);
        assert_eq!(decided(d.next(&shared, &mut q, t0)), Err(Some(due)));
        assert_eq!(
            decided(d.next(&shared, &mut q, due)),
            Err(Some(t0 + WINDOW))
        );
        let mut tickets = tickets.into_iter();
        let expired = tickets.nth(1).map(Ticket::wait);
        assert!(matches!(expired, Some(Err(EngineError::DeadlineExceeded))));
    }

    #[test]
    fn an_unbatched_model_dispatches_one_request_at_a_time() {
        let (shared, mut d, mut q, t0) = (
            shared(4),
            Dispatcher::default(),
            Default::default(),
            Instant::now(),
        );
        let entry = ModelEntry {
            builder: Box::new(|_: i64| -> hidet_graph::Graph { unreachable!("never built") }),
            batchable: false,
            artifact_store: None,
            variants: Default::default(),
        };
        let registry = &shared.registry;
        registry
            .lock()
            .unwrap()
            .insert("solo".into(), Arc::new(entry));
        let _tickets = push(&mut q, &[("solo", Normal, None); 3]);
        for trace in 1..=3 {
            assert_eq!(decided(d.next(&shared, &mut q, t0)), Ok(vec![trace]));
        }
        assert_eq!(decided(d.next(&shared, &mut q, t0)), Err(None));
    }

    #[test]
    fn a_group_that_expires_in_its_window_forms_no_batch() {
        let (shared, mut d, mut q, t0) = (
            shared(4),
            Dispatcher::default(),
            Default::default(),
            Instant::now(),
        );
        let due = Some(t0 + 5 * MS);
        let tickets = push(
            &mut q,
            &[("a", Normal, due), ("a", Normal, due), ("c", Normal, None)],
        );
        assert_eq!(decided(d.next(&shared, &mut q, t0)), Err(due));
        // Both of the held group expire; the next group is held from now.
        let now = t0 + 5 * MS;
        assert_eq!(
            decided(d.next(&shared, &mut q, now)),
            Err(Some(now + WINDOW))
        );
        for ticket in tickets.into_iter().take(2) {
            assert_eq!(ticket.wait().unwrap_err(), EngineError::DeadlineExceeded);
        }
        assert_eq!(shared.shards[0].snapshot().dispatched_batches, 0);
    }

    #[test]
    fn closing_the_engine_ends_the_window() {
        let (shared, mut d, mut q, t0) = (
            shared(4),
            Dispatcher::default(),
            Default::default(),
            Instant::now(),
        );
        let _tickets = push(&mut q, &[("a", Normal, None)]);
        assert_eq!(decided(d.next(&shared, &mut q, t0)), Err(Some(t0 + WINDOW)));
        shared.close();
        assert_eq!(decided(d.next(&shared, &mut q, t0 + MS)), Ok(vec![1]));
    }
}
