//! The tracer: per-thread ring registration on the hot side, span assembly,
//! the capped trace buffer, and the Chrome `trace_event` exporter on the
//! cold side.
//!
//! Hot path (`span_start`/`span_end`/`instant`): one `fetch_add` for the
//! span id, a monotonic clock read, and a lock-free push ([`crate::ring`])
//! into the calling thread's own ring — no mutex, no allocation (after a
//! thread's first event registers its ring). Cold path ([`Tracer::drain`],
//! called by the collector thread or a scrape handler): pops every ring,
//! pairs `Begin`/`End` events into [`CompletedSpan`]s, feeds the metrics
//! registry, appends the spans to the capped trace buffer under
//! [`TraceConfig::Full`], and frees the rings of threads that have exited.
//!
//! Drops never corrupt the trace: pairing is per-thread and stack-based, so
//! an `End` whose `Begin` was dropped is discarded, and a `Begin` whose
//! `End` was dropped is popped (discarded) when its parent closes —
//! assembled spans are always properly nested (pinned by proptest in
//! `tests/overflow.rs`).

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::metrics::{MetricType, MetricsRegistry};
use crate::ring::{ring, Consumer, Producer};
use crate::span::{Phase, SpanGuard, SpanKind, SpanToken, TraceEvent};

/// Whether the tracer retains spans. Both modes record every span into
/// the metrics registry. The default for [`global`] is
/// [`TraceConfig::MetricsOnly`]: always-on aggregation with no trace
/// buffer growth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceConfig {
    /// Spans feed counters/histograms but are not retained individually.
    MetricsOnly,
    /// Every span is also retained in the trace buffer.
    Full,
}

/// One span as assembled from a matched `Begin`/`End` pair (or an
/// `Instant`, with zero duration).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletedSpan {
    /// What operation ran.
    pub kind: SpanKind,
    /// The owning request's trace id (0 = unattributed).
    pub trace_id: u64,
    /// The pairing id.
    pub span_id: u64,
    /// Which registered thread emitted it (the Chrome `tid`).
    pub tid: u32,
    /// Start, nanoseconds since the tracer epoch.
    pub start_nanos: u64,
    /// Duration in nanoseconds (0 for instants).
    pub dur_nanos: u64,
    /// True for point events ([`Phase::Instant`]).
    pub instant: bool,
}

/// Per-ring collector state: the consumer plus the pairing stack.
struct RingState {
    consumer: Consumer<TraceEvent>,
    tid: u32,
    stack: Vec<TraceEvent>,
    /// `Consumer::refused` already bridged into the metrics registry.
    dropped_seen: u64,
}

/// The cold side, under one mutex: registered rings, the capped span
/// buffer, and pairing-discard accounting.
struct Collect {
    rings: Vec<RingState>,
    /// The next ring's tid: never reused, even after its ring is freed.
    next_tid: u32,
    /// Events the freed rings refused, so the drop count stays monotonic.
    freed_dropped: u64,
    buffer: std::collections::VecDeque<CompletedSpan>,
    buffer_cap: usize,
    /// Spans evicted from the front of the full buffer.
    buffer_evicted: u64,
}

/// The tracing facade. Instantiable for tests; production code uses the
/// process-wide [`global`] instance.
pub struct Tracer {
    /// Unique per instance; keys this tracer's slot in each thread's
    /// thread-local producer table.
    id: u64,
    epoch: Instant,
    /// [`TraceConfig::Full`]: `drain` retains spans in the buffer.
    retain: AtomicBool,
    ring_capacity: usize,
    next_trace_id: AtomicU64,
    next_span_id: AtomicU64,
    registry: MetricsRegistry,
    collect: Mutex<Collect>,
}

thread_local! {
    /// This thread's producers, one per live tracer, keyed by tracer id.
    static PRODUCERS: RefCell<Vec<(u64, Producer<TraceEvent>)>> = const { RefCell::new(Vec::new()) };
}

static NEXT_TRACER_ID: AtomicU64 = AtomicU64::new(1);
static GLOBAL: OnceLock<Tracer> = OnceLock::new();

/// The process-wide tracer every instrumented layer emits into. Starts in
/// [`TraceConfig::MetricsOnly`]; servers and benches reconfigure it with
/// [`Tracer::set_config`].
pub fn global() -> &'static Tracer {
    GLOBAL.get_or_init(|| Tracer::new(TraceConfig::MetricsOnly))
}

impl Tracer {
    /// A tracer with default ring (8192 events/thread) and buffer (65536
    /// spans) capacities.
    pub fn new(config: TraceConfig) -> Tracer {
        Tracer::with_capacity(config, 8192, 65536)
    }

    /// A tracer with explicit per-thread ring and trace-buffer capacities.
    pub fn with_capacity(config: TraceConfig, ring_capacity: usize, buffer_cap: usize) -> Tracer {
        let tracer = Tracer {
            id: NEXT_TRACER_ID.fetch_add(1, Ordering::Relaxed),
            epoch: Instant::now(),
            retain: AtomicBool::new(config == TraceConfig::Full),
            ring_capacity,
            next_trace_id: AtomicU64::new(1),
            next_span_id: AtomicU64::new(1),
            registry: MetricsRegistry::new(),
            collect: Mutex::new(Collect {
                rings: Vec::new(),
                next_tid: 0,
                freed_dropped: 0,
                buffer: std::collections::VecDeque::new(),
                buffer_cap,
                buffer_evicted: 0,
            }),
        };
        tracer.registry.describe(
            "hidet_span_seconds",
            MetricType::Histogram,
            "Span duration by kind, log-bucketed.",
        );
        tracer.registry.describe(
            "hidet_spans_total",
            MetricType::Counter,
            "Completed spans by kind.",
        );
        tracer.registry.describe(
            "hidet_trace_events_total",
            MetricType::Counter,
            "Instant events by kind.",
        );
        tracer.registry.describe(
            "hidet_trace_events_dropped_total",
            MetricType::Counter,
            "Events shed because a thread's trace ring was full.",
        );
        tracer.registry.describe(
            "hidet_trace_pairing_discards_total",
            MetricType::Counter,
            "Events discarded during span assembly (partner lost to a drop).",
        );
        tracer
    }

    /// Reconfigures retention; takes effect at the next drain.
    pub fn set_config(&self, config: TraceConfig) {
        self.retain
            .store(config == TraceConfig::Full, Ordering::Relaxed);
    }

    /// Allocates a fresh trace id for one request (never 0).
    pub fn new_trace_id(&self) -> u64 {
        self.next_trace_id.fetch_add(1, Ordering::Relaxed)
    }

    /// The metrics registry the collector feeds (scrape handlers render it;
    /// layers may also publish their own families into it).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.registry
    }

    fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Pushes `event` into this thread's ring, registering the ring on the
    /// thread's first event. Registration is the one slow (mutex-taking)
    /// step and happens once per thread per tracer.
    fn emit(&self, event: TraceEvent) {
        // A full ring refuses the event and counts it; the count is the
        // drop metric, so the returned event is simply let go.
        PRODUCERS.with(|cell| {
            let mut producers = cell.borrow_mut();
            if let Some((_, producer)) = producers.iter().find(|(id, _)| *id == self.id) {
                let _ = producer.push(event);
                return;
            }
            let (producer, consumer) = ring(self.ring_capacity);
            {
                let mut collect = self.collect.lock().expect("tracer poisoned");
                let tid = collect.next_tid;
                collect.next_tid += 1;
                collect.rings.push(RingState {
                    consumer,
                    tid,
                    stack: Vec::new(),
                    dropped_seen: 0,
                });
            }
            let _ = producer.push(event);
            producers.push((self.id, producer));
        });
    }

    /// Opens a span. Pair with [`Tracer::span_end`] on every return path —
    /// or use [`Tracer::span`] and let the guard close it.
    pub fn span_start(&self, kind: SpanKind, trace_id: u64) -> SpanToken {
        let span_id = self.next_span_id.fetch_add(1, Ordering::Relaxed);
        self.emit(TraceEvent {
            kind,
            phase: Phase::Begin,
            trace_id,
            span_id,
            t_nanos: self.now_nanos(),
        });
        SpanToken {
            kind,
            trace_id,
            span_id,
        }
    }

    /// Closes a span opened by [`Tracer::span_start`].
    pub fn span_end(&self, token: SpanToken) {
        self.emit(TraceEvent {
            kind: token.kind,
            phase: Phase::End,
            trace_id: token.trace_id,
            span_id: token.span_id,
            t_nanos: self.now_nanos(),
        });
    }

    /// An RAII span: closed on drop, on every return path.
    pub fn span(&self, kind: SpanKind, trace_id: u64) -> SpanGuard<'_> {
        SpanGuard::new(self, self.span_start(kind, trace_id))
    }

    /// Records an already-elapsed interval as one span — for latencies whose
    /// start predates the instrumentation point (e.g. time queued in the
    /// ingress ring, measured from the accept timestamp).
    pub fn span_closed(&self, kind: SpanKind, trace_id: u64, start: Instant, end: Instant) {
        let span_id = self.next_span_id.fetch_add(1, Ordering::Relaxed);
        let start_nanos = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        let end_nanos = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.emit(TraceEvent {
            kind,
            phase: Phase::Begin,
            trace_id,
            span_id,
            t_nanos: start_nanos,
        });
        self.emit(TraceEvent {
            kind,
            phase: Phase::End,
            trace_id,
            span_id,
            t_nanos: end_nanos.max(start_nanos),
        });
    }

    /// Records a point event (KV evictions, migrations, …).
    pub fn instant(&self, kind: SpanKind, trace_id: u64) {
        let span_id = self.next_span_id.fetch_add(1, Ordering::Relaxed);
        self.emit(TraceEvent {
            kind,
            phase: Phase::Instant,
            trace_id,
            span_id,
            t_nanos: self.now_nanos(),
        });
    }

    /// Drains every registered ring: pairs events into spans, feeds the
    /// metrics registry, and retains the spans in the trace buffer under
    /// [`TraceConfig::Full`]. A ring whose thread has exited is drained one
    /// last time and freed. Called by the collector thread on an interval
    /// and by scrape handlers on demand; safe from any thread.
    pub fn drain(&self) {
        let retain = self.retain.load(Ordering::Relaxed);
        let mut guard = self.collect.lock().expect("tracer poisoned");
        let collect = &mut *guard;
        let mut completed: Vec<CompletedSpan> = Vec::new();
        let mut discards = 0u64;
        let mut dropped_delta = 0u64;
        collect.rings.retain_mut(|state| {
            // Checked before the pops: once the thread's producer is gone,
            // these pops see everything it pushed.
            let abandoned = state.consumer.is_abandoned();
            while let Some(event) = state.consumer.pop() {
                discards += step_assembly(&mut state.stack, state.tid, event, &mut completed);
            }
            let dropped = state.consumer.refused();
            dropped_delta += dropped - state.dropped_seen;
            state.dropped_seen = dropped;
            if abandoned {
                // Begins still open when the thread exited lost their Ends.
                discards += state.stack.len() as u64;
                collect.freed_dropped += dropped;
            }
            !abandoned
        });
        for span in &completed {
            let kind = span.kind.name();
            if span.instant {
                self.registry
                    .counter_add("hidet_trace_events_total", &[("kind", kind)], 1);
            } else {
                self.registry
                    .counter_add("hidet_spans_total", &[("kind", kind)], 1);
                self.registry.observe_seconds(
                    "hidet_span_seconds",
                    &[("kind", kind)],
                    span.dur_nanos as f64 / 1e9,
                );
            }
        }
        if dropped_delta > 0 {
            self.registry
                .counter_add("hidet_trace_events_dropped_total", &[], dropped_delta);
        } else {
            // Ensure the series exists so scrapes always cover it.
            self.registry
                .counter_add("hidet_trace_events_dropped_total", &[], 0);
        }
        if discards > 0 {
            self.registry
                .counter_add("hidet_trace_pairing_discards_total", &[], discards);
        }
        if !retain {
            return;
        }
        for span in completed {
            if collect.buffer.len() >= collect.buffer_cap {
                collect.buffer.pop_front();
                collect.buffer_evicted += 1;
            }
            collect.buffer.push_back(span);
        }
    }

    /// Total events shed at the rings so far (the raw counter behind the
    /// `hidet_trace_events_dropped_total` metric; includes undrained rings).
    pub fn events_dropped(&self) -> u64 {
        let collect = self.collect.lock().expect("tracer poisoned");
        let live: u64 = collect.rings.iter().map(|r| r.consumer.refused()).sum();
        collect.freed_dropped + live
    }

    /// Drains, then returns a copy of the retained spans.
    pub fn spans(&self) -> Vec<CompletedSpan> {
        self.drain();
        let collect = self.collect.lock().expect("tracer poisoned");
        collect.buffer.iter().copied().collect()
    }

    /// Drains, then clears and returns the retained spans.
    pub fn take_spans(&self) -> Vec<CompletedSpan> {
        self.drain();
        let mut collect = self.collect.lock().expect("tracer poisoned");
        std::mem::take(&mut collect.buffer).into_iter().collect()
    }

    /// Drains, then renders the retained spans as Chrome `trace_event` JSON
    /// (the object form Perfetto and `chrome://tracing` load).
    pub fn chrome_trace_json(&self) -> String {
        let spans = self.spans();
        render_chrome_trace(&spans)
    }

    /// Drains, then renders the metrics registry in Prometheus text format.
    pub fn render_metrics(&self) -> String {
        self.drain();
        self.registry.render()
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("retain", &self.retain.load(Ordering::Relaxed))
            .field("ring_capacity", &self.ring_capacity)
            .finish()
    }
}

/// Feeds one event through the per-thread pairing stack. Returns how many
/// events were discarded (0 or the number of orphaned `Begin`s popped plus
/// any unmatched `End`). Appends assembled spans to `completed`.
fn step_assembly(
    stack: &mut Vec<TraceEvent>,
    tid: u32,
    event: TraceEvent,
    completed: &mut Vec<CompletedSpan>,
) -> u64 {
    match event.phase {
        Phase::Instant => {
            completed.push(CompletedSpan {
                kind: event.kind,
                trace_id: event.trace_id,
                span_id: event.span_id,
                tid,
                start_nanos: event.t_nanos,
                dur_nanos: 0,
                instant: true,
            });
            0
        }
        Phase::Begin => {
            // Bound the stack: a pathological Begin flood (Ends all dropped)
            // must not grow memory without limit.
            if stack.len() >= 1024 {
                return 1;
            }
            stack.push(event);
            0
        }
        Phase::End => {
            // The matching Begin is normally on top. If inner spans lost
            // their Ends to ring drops, they sit above the match: pop and
            // discard them — nesting stays well-formed. An End whose Begin
            // was dropped matches nothing and is itself discarded.
            match stack.iter().rposition(|b| b.span_id == event.span_id) {
                Some(pos) => {
                    let orphans = (stack.len() - 1 - pos) as u64;
                    stack.truncate(pos + 1);
                    let begin = stack.pop().expect("position came from the stack");
                    completed.push(CompletedSpan {
                        kind: begin.kind,
                        trace_id: begin.trace_id,
                        span_id: begin.span_id,
                        tid,
                        start_nanos: begin.t_nanos,
                        dur_nanos: event.t_nanos.saturating_sub(begin.t_nanos),
                        instant: false,
                    });
                    orphans
                }
                None => 1,
            }
        }
    }
}

/// Pairs a raw event sequence from one thread into completed spans —
/// exactly the assembly [`Tracer::drain`] runs per ring. Public so tests
/// (and the overflow proptest) can pin its behaviour on arbitrary
/// drop-mangled sequences.
pub fn assemble_events(events: &[TraceEvent]) -> Vec<CompletedSpan> {
    let mut stack = Vec::new();
    let mut completed = Vec::new();
    for &event in events {
        step_assembly(&mut stack, 0, event, &mut completed);
    }
    completed
}

/// Renders spans as a Chrome `trace_event` JSON object: complete (`"X"`)
/// events for spans, instant (`"i"`) events for point events, timestamps
/// in microseconds. Loadable in Perfetto / `chrome://tracing`.
pub fn render_chrome_trace(spans: &[CompletedSpan]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let ts = span.start_nanos as f64 / 1e3;
        if span.instant {
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"trace_id\":{}}}}}",
                span.kind.name(),
                span.kind.category(),
                span.tid,
                span.trace_id
            );
        } else {
            let dur = span.dur_nanos as f64 / 1e3;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"trace_id\":{}}}}}",
                span.kind.name(),
                span.kind.category(),
                span.tid,
                span.trace_id
            );
        }
    }
    out.push_str("]}");
    out
}

/// A background collector: drains `tracer` every `interval` until dropped.
/// One per process is plenty; scrape handlers also drain on demand, so the
/// collector's job is keeping ring occupancy low between scrapes.
#[derive(Debug)]
pub struct Collector {
    stop: std::sync::Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Collector {
    /// Spawns the collector thread over the given (static) tracer.
    pub fn spawn(tracer: &'static Tracer, interval: Duration) -> Collector {
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let stop_flag = std::sync::Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("hidet-trace-collector".into())
            .spawn(move || {
                while !stop_flag.load(Ordering::Relaxed) {
                    tracer.drain();
                    std::thread::park_timeout(interval);
                }
                tracer.drain();
            })
            .expect("spawn trace collector");
        Collector {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for Collector {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn begin(kind: SpanKind, span_id: u64, t: u64) -> TraceEvent {
        TraceEvent {
            kind,
            phase: Phase::Begin,
            trace_id: 1,
            span_id,
            t_nanos: t,
        }
    }

    fn end(kind: SpanKind, span_id: u64, t: u64) -> TraceEvent {
        TraceEvent {
            kind,
            phase: Phase::End,
            trace_id: 1,
            span_id,
            t_nanos: t,
        }
    }

    #[test]
    fn spans_assemble_with_nesting_and_feed_metrics() {
        let tracer = Tracer::new(TraceConfig::Full);
        let outer = tracer.span_start(SpanKind::HttpHandle, 42);
        {
            let _inner = tracer.span(SpanKind::EngineSubmit, 42);
        }
        tracer.instant(SpanKind::KvEvict, 42);
        tracer.span_end(outer);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3, "{spans:?}");
        let outer_span = spans
            .iter()
            .find(|s| s.kind == SpanKind::HttpHandle)
            .expect("outer");
        let inner_span = spans
            .iter()
            .find(|s| s.kind == SpanKind::EngineSubmit)
            .expect("inner");
        assert!(inner_span.start_nanos >= outer_span.start_nanos);
        assert!(
            inner_span.start_nanos + inner_span.dur_nanos
                <= outer_span.start_nanos + outer_span.dur_nanos
        );
        assert_eq!(
            tracer
                .metrics()
                .counter_value("hidet_spans_total", &[("kind", "http_handle")]),
            1
        );
        assert_eq!(
            tracer
                .metrics()
                .counter_value("hidet_trace_events_total", &[("kind", "kv_evict")]),
            1
        );
    }

    #[test]
    fn metrics_only_skips_the_buffer() {
        let tracer = Tracer::new(TraceConfig::MetricsOnly);
        {
            let _g = tracer.span(SpanKind::DecodeStep, 7);
        }
        assert_eq!(tracer.spans(), vec![], "metrics_only retains no spans");
        assert_eq!(
            tracer
                .metrics()
                .counter_value("hidet_spans_total", &[("kind", "decode_step")]),
            1
        );
    }

    #[test]
    fn assembly_discards_orphans_from_drop_patterns() {
        use SpanKind::{DecodeIteration, DecodeStep, PrefillChunk};
        // End 2's Begin was dropped; Begin 3's End was dropped.
        let events = [
            begin(DecodeIteration, 1, 0),
            end(DecodeStep, 2, 5),
            begin(PrefillChunk, 3, 6),
            end(DecodeIteration, 1, 10),
        ];
        let spans = assemble_events(&events);
        assert_eq!(spans.len(), 1, "{spans:?}");
        assert_eq!(spans[0].span_id, 1);
        assert_eq!(spans[0].dur_nanos, 10);
    }

    #[test]
    fn buffer_caps_and_evicts_oldest() {
        let tracer = Tracer::with_capacity(TraceConfig::Full, 1024, 4);
        for i in 0..10u64 {
            let _g = tracer.span(SpanKind::DecodeStep, i);
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 4);
        let ids: Vec<u64> = spans.iter().map(|s| s.trace_id).collect();
        assert_eq!(ids, vec![6, 7, 8, 9], "keeps the most recent spans");
    }

    #[test]
    fn chrome_export_shape() {
        let tracer = Tracer::new(TraceConfig::Full);
        {
            let _g = tracer.span(SpanKind::Compile, 0);
        }
        tracer.instant(SpanKind::KvMigrate, 3);
        let json = tracer.chrome_trace_json();
        assert!(json.starts_with("{\"displayTimeUnit\""), "{json}");
        assert!(json.contains("\"traceEvents\":["), "{json}");
        assert!(json.contains("\"name\":\"compile\""), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"ph\":\"i\""), "{json}");
        assert!(json.contains("\"cat\":\"engine\""), "{json}");
        assert!(json.ends_with("]}"), "{json}");
    }

    #[test]
    fn span_closed_records_the_given_interval() {
        let tracer = Tracer::new(TraceConfig::Full);
        let start = Instant::now();
        let end_t = start + Duration::from_millis(2);
        tracer.span_closed(SpanKind::HttpQueue, 9, start, end_t);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].kind, SpanKind::HttpQueue);
        assert_eq!(spans[0].dur_nanos, 2_000_000);
    }

    #[test]
    fn cross_thread_emission_lands_in_one_drain() {
        let tracer = std::sync::Arc::new(Tracer::new(TraceConfig::Full));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let tracer = std::sync::Arc::clone(&tracer);
            handles.push(std::thread::spawn(move || {
                for i in 0..100u64 {
                    let _g = tracer.span(SpanKind::KernelSim, i);
                }
            }));
        }
        for h in handles {
            h.join().expect("worker");
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 400);
        let tids: std::collections::HashSet<u32> = spans.iter().map(|s| s.tid).collect();
        assert_eq!(tids.len(), 4, "one ring (tid) per emitting thread");
        assert_eq!(
            tracer
                .metrics()
                .counter_value("hidet_spans_total", &[("kind", "kernel_sim")]),
            400
        );
    }

    #[test]
    fn an_exited_threads_ring_is_drained_once_more_then_freed() {
        // Two-event rings: each worker's span fits, its instant is refused.
        let tracer = std::sync::Arc::new(Tracer::with_capacity(TraceConfig::Full, 2, 1024));
        tracer.instant(SpanKind::KvAlloc, 0); // this thread's ring stays
        let workers: Vec<_> = (0..64u64)
            .map(|i| {
                let tracer = std::sync::Arc::clone(&tracer);
                std::thread::spawn(move || {
                    drop(tracer.span(SpanKind::Tune, i));
                    tracer.instant(SpanKind::KvEvict, i);
                })
            })
            .collect();
        for worker in workers {
            worker.join().expect("worker");
        }
        let dropped = tracer.events_dropped();
        assert_eq!(dropped, 64);
        let spans = tracer.spans();
        let tune: Vec<&CompletedSpan> = spans.iter().filter(|s| s.kind == SpanKind::Tune).collect();
        assert_eq!(tune.len(), 64, "every exited thread's span was assembled");
        assert_eq!(tracer.collect.lock().expect("tracer").rings.len(), 1);
        assert_eq!(tracer.events_dropped(), dropped, "the drop count survives");
        // Tids are never reused: a new thread gets a fresh one.
        let late = std::sync::Arc::clone(&tracer);
        std::thread::spawn(move || late.instant(SpanKind::KvMigrate, 0))
            .join()
            .expect("late thread");
        let late_tid = tracer.take_spans().last().expect("late span").tid;
        assert!(
            spans.iter().all(|s| s.tid < late_tid),
            "tid {late_tid} reused"
        );
    }

    #[test]
    fn collector_thread_drains_in_background() {
        // The collector API needs a &'static tracer: leak one for the test.
        let tracer: &'static Tracer = Box::leak(Box::new(Tracer::new(TraceConfig::Full)));
        let collector = Collector::spawn(tracer, Duration::from_millis(1));
        {
            let _g = tracer.span(SpanKind::BatchExecute, 5);
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            // Read the buffer without draining: only the collector fills it.
            let spans: Vec<CompletedSpan> = tracer
                .collect
                .lock()
                .expect("tracer")
                .buffer
                .iter()
                .copied()
                .collect();
            if !spans.is_empty() {
                assert_eq!(spans[0].kind, SpanKind::BatchExecute);
                break;
            }
            assert!(Instant::now() < deadline, "collector never drained");
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(collector);
    }

    #[test]
    fn render_metrics_is_valid_exposition() {
        let tracer = Tracer::new(TraceConfig::MetricsOnly);
        {
            let _g = tracer.span(SpanKind::HttpParse, 1);
        }
        tracer.instant(SpanKind::KvAlloc, 1);
        let text = tracer.render_metrics();
        crate::metrics::validate_exposition(&text).expect("valid exposition");
        assert!(text.contains("hidet_span_seconds_bucket{kind=\"http_parse\""));
        assert!(text.contains("hidet_trace_events_dropped_total 0"));
    }
}
