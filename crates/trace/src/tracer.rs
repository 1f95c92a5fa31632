//! The tracer: per-thread ring registration on the hot side, the capped
//! trace buffer and the Chrome `trace_event` exporter on the cold side.
//!
//! Hot path: opening a span (`span_start`, `span`) takes one `fetch_add`
//! for the span id and a monotonic clock read, and pushes nothing; closing
//! it (`span_end`, the guard's drop, `span_closed`, `instant`) pushes the
//! whole [`CompletedSpan`] into the calling thread's own ring
//! ([`crate::ring`]) — one lock-free push per span, no mutex, no allocation
//! (after a thread's first span registers its ring). Cold path
//! ([`Tracer::drain`], called by the collector thread or a scrape handler):
//! pops every ring, feeds the metrics registry, appends the spans to the
//! capped trace buffer under [`TraceConfig::Full`], and frees the rings of
//! threads that have exited.
//!
//! A full ring refuses a span whole, so a drop never leaves half of one
//! behind: what is retained is exactly what was recorded, nested as it was
//! emitted (pinned by proptest in `tests/overflow.rs`).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::metrics::{MetricType, MetricsRegistry};
use crate::ring::{ring, Consumer, Producer};
use crate::span::{SpanGuard, SpanKind, SpanToken};

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

/// One closed span (or an instant, with zero duration): what a thread's
/// ring carries and what the trace buffer retains.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletedSpan {
    /// What operation ran.
    pub kind: SpanKind,
    /// The owning request's trace id (0 = unattributed).
    pub trace_id: u64,
    /// Unique per tracer, allocated when the span opened.
    pub span_id: u64,
    /// Which registered thread emitted it (the Chrome `tid`).
    pub tid: u32,
    /// Start, nanoseconds since the tracer epoch.
    pub start_nanos: u64,
    /// Duration in nanoseconds (0 for instants).
    pub dur_nanos: u64,
    /// True for point events ([`Tracer::instant`]).
    pub instant: bool,
}

/// Per-ring collector state.
struct RingState {
    consumer: Consumer<CompletedSpan>,
    /// `Consumer::refused` already bridged into the metrics registry.
    dropped_seen: u64,
}

/// The cold side, under one mutex: registered rings and the capped span
/// buffer.
struct Collect {
    rings: Vec<RingState>,
    /// The next ring's tid: never reused, even after its ring is freed.
    next_tid: u32,
    /// Spans the freed rings refused, so the drop count stays monotonic.
    freed_dropped: u64,
    buffer: VecDeque<CompletedSpan>,
    buffer_cap: usize,
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
    /// This thread's producers, one per live tracer: the tracer's id, the
    /// tid the ring was registered under, and the ring's producer.
    static PRODUCERS: RefCell<Vec<(u64, u32, Producer<CompletedSpan>)>> =
        const { RefCell::new(Vec::new()) };
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
    /// A tracer with default ring (4096 spans/thread) and buffer (65536
    /// spans) capacities.
    pub fn new(config: TraceConfig) -> Tracer {
        Tracer::with_capacity(config, 4096, 65536)
    }

    /// A tracer with explicit per-thread ring and trace-buffer capacities,
    /// both counted in spans (an instant takes one slot like a span).
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
                buffer: VecDeque::new(),
                buffer_cap,
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
            "Spans and instants shed because a thread's trace ring was full.",
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

    fn nanos_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Pushes `span` into this thread's ring under the ring's tid,
    /// registering the ring on the thread's first span. Registration is the
    /// one slow (mutex-taking) step and happens once per thread per tracer.
    fn emit(&self, mut span: CompletedSpan) {
        // A full ring refuses the span and counts it; the count is the drop
        // metric, so the returned span is simply let go.
        PRODUCERS.with(|cell| {
            let mut producers = cell.borrow_mut();
            if let Some((_, tid, producer)) = producers.iter().find(|(id, ..)| *id == self.id) {
                span.tid = *tid;
                let _ = producer.push(span);
                return;
            }
            let (producer, consumer) = ring(self.ring_capacity);
            {
                let mut collect = self.collect.lock().expect("tracer poisoned");
                span.tid = collect.next_tid;
                collect.next_tid += 1;
                collect.rings.push(RingState {
                    consumer,
                    dropped_seen: 0,
                });
            }
            let _ = producer.push(span);
            producers.push((self.id, span.tid, producer));
        });
    }

    /// Opens a span; nothing is recorded until [`Tracer::span_end`] closes
    /// it, on every return path — or use [`Tracer::span`] and let the guard
    /// close it.
    pub fn span_start(&self, kind: SpanKind, trace_id: u64) -> SpanToken {
        SpanToken {
            kind,
            trace_id,
            span_id: self.next_span_id.fetch_add(1, Ordering::Relaxed),
            start_nanos: self.now_nanos(),
        }
    }

    /// Closes a span opened by [`Tracer::span_start`] and records it.
    pub fn span_end(&self, token: SpanToken) {
        self.emit(CompletedSpan {
            kind: token.kind,
            trace_id: token.trace_id,
            span_id: token.span_id,
            tid: 0,
            start_nanos: token.start_nanos,
            dur_nanos: self.now_nanos().saturating_sub(token.start_nanos),
            instant: false,
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
        let start_nanos = self.nanos_at(start);
        self.emit(CompletedSpan {
            kind,
            trace_id,
            span_id: self.next_span_id.fetch_add(1, Ordering::Relaxed),
            tid: 0,
            start_nanos,
            dur_nanos: self.nanos_at(end).saturating_sub(start_nanos),
            instant: false,
        });
    }

    /// Records a point event (KV evictions, migrations, …).
    pub fn instant(&self, kind: SpanKind, trace_id: u64) {
        self.emit(CompletedSpan {
            kind,
            trace_id,
            span_id: self.next_span_id.fetch_add(1, Ordering::Relaxed),
            tid: 0,
            start_nanos: self.now_nanos(),
            dur_nanos: 0,
            instant: true,
        });
    }

    /// Drains every registered ring: feeds each span to the metrics
    /// registry and, under [`TraceConfig::Full`], retains it in the trace
    /// buffer. A ring whose thread has exited is drained one last time and
    /// freed. Called by the collector thread on an interval and by scrape
    /// handlers on demand; safe from any thread.
    pub fn drain(&self) {
        let retain = self.retain.load(Ordering::Relaxed);
        let mut guard = self.collect.lock().expect("tracer poisoned");
        let collect = &mut *guard;
        let mut dropped_delta = 0u64;
        collect.rings.retain_mut(|state| {
            // Checked before the pops: once the thread's producer is gone,
            // these pops see everything it pushed.
            let abandoned = state.consumer.is_abandoned();
            while let Some(span) = state.consumer.pop() {
                self.record(&span);
                if retain {
                    collect.buffer.push_back(span);
                }
            }
            let dropped = state.consumer.refused();
            dropped_delta += dropped - state.dropped_seen;
            state.dropped_seen = dropped;
            if abandoned {
                collect.freed_dropped += dropped;
            }
            !abandoned
        });
        // The series exists from the first drain on, so scrapes always
        // cover it.
        self.registry
            .counter_add("hidet_trace_events_dropped_total", &[], dropped_delta);
        // A full buffer keeps the most recent spans.
        let evicted = collect.buffer.len().saturating_sub(collect.buffer_cap);
        collect.buffer.drain(..evicted);
    }

    /// Feeds one drained span to the metrics registry.
    fn record(&self, span: &CompletedSpan) {
        let kind = [("kind", span.kind.name())];
        if span.instant {
            self.registry
                .counter_add("hidet_trace_events_total", &kind, 1);
        } else {
            self.registry.counter_add("hidet_spans_total", &kind, 1);
            self.registry
                .observe_seconds("hidet_span_seconds", &kind, span.dur_nanos as f64 / 1e9);
        }
    }

    /// Total spans and instants shed at the rings so far (the raw counter
    /// behind the `hidet_trace_events_dropped_total` metric; includes
    /// undrained rings).
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
        // Two-span rings: each worker's span and instant fit, its third
        // event is refused.
        let tracer = std::sync::Arc::new(Tracer::with_capacity(TraceConfig::Full, 2, 1024));
        tracer.instant(SpanKind::KvAlloc, 0); // this thread's ring stays
        let workers: Vec<_> = (0..64u64)
            .map(|i| {
                let tracer = std::sync::Arc::clone(&tracer);
                std::thread::spawn(move || {
                    drop(tracer.span(SpanKind::Tune, i));
                    tracer.instant(SpanKind::KvEvict, i);
                    tracer.instant(SpanKind::KvAlloc, i);
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
        assert_eq!(tune.len(), 64, "every exited thread's span was drained");
        let evicts = spans.iter().filter(|s| s.kind == SpanKind::KvEvict).count();
        assert_eq!(evicts, 64, "and its instant");
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
