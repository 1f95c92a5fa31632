//! # hidet-trace — lock-free always-on tracing and metrics
//!
//! The observability substrate of the serving stack (DESIGN.md §12): every
//! layer — HTTP front-end, batching engine, decode shards, compiler, the
//! simulated device — emits typed spans into per-thread bounded rings
//! ([`ring`], a Vyukov-style lock-free MPSC ring; the HTTP front-end's
//! ingress pushes through the same ring, as `hidet_server::ring`). A span
//! is pushed once, whole, when it closes, as a [`CompletedSpan`]; opening
//! one pushes nothing. The hot path takes **zero mutexes** — enforced
//! structurally by the HA101 lint, which covers `crates/trace/src/ring.rs`
//! — and never blocks: a full ring sheds the span and counts it
//! (`hidet_trace_events_dropped_total`). A thread's ring is freed once the
//! thread has exited and its last spans are drained.
//!
//! A collector ([`Collector`], or any scrape calling [`Tracer::drain`])
//! pops the rings and feeds every span to two sinks:
//!
//! * a **capped trace buffer**, exportable as Chrome `trace_event` JSON
//!   ([`Tracer::chrome_trace_json`]) — loadable in Perfetto, spans nested
//!   by causality per thread, served by the HTTP front-end at
//!   `GET /v2/trace`;
//! * a **metrics registry** ([`MetricsRegistry`]): counters, gauges and
//!   log-bucketed latency histograms rendered in Prometheus text
//!   exposition format ([`MetricsRegistry::render`]), served at
//!   `GET /v2/metrics` and checked by [`validate_exposition`] in CI.
//!
//! Requests carry a propagated trace id ([`Tracer::new_trace_id`]) so a
//! slow request's spans can be filtered out of the full trace.
//! [`TraceConfig`] says whether spans are retained: `MetricsOnly` (the
//! always-on default) only aggregates them, `Full` also keeps them.
//!
//! ```
//! use hidet_trace::{SpanKind, TraceConfig, Tracer};
//!
//! let tracer = Tracer::new(TraceConfig::Full);
//! let trace_id = tracer.new_trace_id();
//! {
//!     let _request = tracer.span(SpanKind::HttpHandle, trace_id);
//!     let _step = tracer.span(SpanKind::DecodeStep, trace_id);
//! } // guards close both spans, innermost first
//!
//! let spans = tracer.spans();
//! assert_eq!(spans.len(), 2);
//! let metrics = tracer.render_metrics();
//! assert!(metrics.contains("hidet_spans_total{kind=\"decode_step\"} 1"));
//! hidet_trace::validate_exposition(&metrics).expect("well-formed exposition");
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod metrics;
pub mod ring;
pub mod span;
pub mod tracer;

pub use metrics::{validate_exposition, Histogram, MetricType, MetricsRegistry, BUCKET_BOUNDS};
pub use span::{SpanGuard, SpanKind, SpanToken};
pub use tracer::{global, render_chrome_trace, Collector, CompletedSpan, TraceConfig, Tracer};
