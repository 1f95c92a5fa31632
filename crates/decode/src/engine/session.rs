//! Sessions: what a client submits ([`GenerateRequest`]) and streams back
//! ([`DecodeSession`]), the registered-model handle that starts one
//! ([`DecodeModel`]), and the engine-side state of a live generation
//! ([`Sequence`]) with the per-shard queues it waits in.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use hidet_runtime::{ClassQueues, Priority};
use hidet_trace::SpanKind;

use super::config::DecodeError;
use super::registry::{def_key, ModelDef};
use super::shard::{place_shard, Shared};
use crate::kv::KvCache;

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
            waiting.shards[shard].push(sequence.priority, sequence);
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

/// The engine's waiting sessions: one [`ClassQueues`] per decode shard
/// (placement decides the shard at submission; migration moves sessions
/// between queues later).
pub(super) struct Waiting {
    pub(super) shards: Vec<ClassQueues<Sequence>>,
}

impl Waiting {
    pub(super) fn is_empty(&self) -> bool {
        self.shards.iter().all(ClassQueues::is_empty)
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
}
