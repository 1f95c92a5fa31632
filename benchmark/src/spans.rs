//! The traced pass's span plumbing: switch the process-wide tracer to
//! `Full`, keep every span in memory while a body runs, and afterwards turn
//! the span list into per-kind totals and self times.
//!
//! A span's *self time* is its duration minus the time covered by its child
//! spans — spans on the same thread that start and end inside it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use hidet_trace::{CompletedSpan, SpanKind, TraceConfig};

/// How often the collector empties the tracer's capped span buffer into the
/// harness's own (uncapped) list.
const DRAIN_INTERVAL: Duration = Duration::from_millis(20);

/// Collects every span the global tracer emits between [`SpanCollector::start`]
/// and [`SpanCollector::finish`].
pub struct SpanCollector {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<CompletedSpan>>,
    dropped_before: u64,
}

/// What a traced body produced.
pub struct Trace {
    /// Every completed span and instant, in collection order.
    pub spans: Vec<CompletedSpan>,
    /// Events the per-thread rings shed while collecting; every span-derived
    /// metric is only valid when this is 0.
    pub events_dropped: u64,
}

impl SpanCollector {
    /// Discards whatever the tracer retained so far, switches it to `Full`
    /// and starts draining.
    pub fn start() -> SpanCollector {
        let tracer = hidet_trace::global();
        tracer.set_config(TraceConfig::Full);
        let _ = tracer.take_spans();
        let dropped_before = tracer.events_dropped();
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let stop = Arc::clone(&stop);
            thread::Builder::new()
                .name("bench-span-collector".into())
                .spawn(move || {
                    let mut spans = Vec::new();
                    while !stop.load(Ordering::Acquire) {
                        thread::sleep(DRAIN_INTERVAL);
                        spans.extend(tracer.take_spans());
                    }
                    spans
                })
                .expect("spawn span collector")
        };
        SpanCollector {
            stop,
            handle,
            dropped_before,
        }
    }

    /// Stops draining, returns the tracer to its production default
    /// (`MetricsOnly`) and hands back everything collected.
    pub fn finish(self) -> Trace {
        self.stop.store(true, Ordering::Release);
        let mut spans = self.handle.join().expect("span collector panicked");
        let tracer = hidet_trace::global();
        spans.extend(tracer.take_spans());
        tracer.set_config(TraceConfig::MetricsOnly);
        Trace {
            spans,
            events_dropped: tracer.events_dropped() - self.dropped_before,
        }
    }
}

/// Totals for one span kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindTotals {
    /// Completed spans (instants excluded).
    pub count: u64,
    /// Instant events.
    pub instants: u64,
    /// Summed durations, nanoseconds.
    pub total_ns: u64,
    /// Summed self times, nanoseconds.
    pub self_ns: u64,
}

impl KindTotals {
    /// Summed durations in seconds.
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }

    /// Summed self time in seconds.
    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 / 1e9
    }

    /// Mean duration in seconds (0 without spans).
    pub fn mean_s(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_s() / self.count as f64
        }
    }

    /// Mean self time in seconds (0 without spans).
    pub fn mean_self_s(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_s() / self.count as f64
        }
    }
}

/// Per span: its parent's index (the innermost span on the same thread that
/// contains it), or `None` for a top-level span. Instants have no parent and
/// are nobody's child. A span that only partly overlaps the one before it
/// (the retroactive `http_queue` span does) is top-level.
fn parents(spans: &[CompletedSpan]) -> Vec<Option<usize>> {
    let mut by_thread: HashMap<u32, Vec<usize>> = HashMap::new();
    for (i, span) in spans.iter().enumerate() {
        if !span.instant {
            by_thread.entry(span.tid).or_default().push(i);
        }
    }
    let end = |i: usize| spans[i].start_nanos + spans[i].dur_nanos;
    let mut parent = vec![None; spans.len()];
    for indices in by_thread.values_mut() {
        // Outer spans first when two start on the same nanosecond.
        indices.sort_by_key(|&i| (spans[i].start_nanos, std::cmp::Reverse(spans[i].dur_nanos)));
        let mut open: Vec<usize> = Vec::new();
        for &i in indices.iter() {
            while open
                .last()
                .is_some_and(|&top| end(top) <= spans[i].start_nanos)
            {
                open.pop();
            }
            if let Some(&top) = open.last() {
                if end(i) <= end(top) {
                    parent[i] = Some(top);
                }
            }
            open.push(i);
        }
    }
    parent
}

/// Self time of every span, nanoseconds, index-aligned with `spans`.
pub fn self_times(spans: &[CompletedSpan]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.dur_nanos).collect();
    for (i, parent) in parents(spans).into_iter().enumerate() {
        if let Some(p) = parent {
            own[p] = own[p].saturating_sub(spans[i].dur_nanos);
        }
    }
    own
}

/// Count, total and self time per span kind.
pub fn totals(spans: &[CompletedSpan]) -> HashMap<SpanKind, KindTotals> {
    let own = self_times(spans);
    let mut out: HashMap<SpanKind, KindTotals> = HashMap::new();
    for (span, own_ns) in spans.iter().zip(own) {
        let entry = out.entry(span.kind).or_default();
        if span.instant {
            entry.instants += 1;
        } else {
            entry.count += 1;
            entry.total_ns += span.dur_nanos;
            entry.self_ns += own_ns;
        }
    }
    out
}

/// The share of `wall_ns` that no span accounts for on the busiest traced
/// thread: `1 - (summed top-level span time on that thread) / wall`, floored
/// at 0. On a workload one thread does all the work of (`decode_mixed`) this
/// is the part of the body the trace cannot explain.
pub fn unattributed_share(spans: &[CompletedSpan], wall_ns: u64) -> f64 {
    if wall_ns == 0 {
        return 0.0;
    }
    let mut covered: HashMap<u32, u64> = HashMap::new();
    for (span, parent) in spans.iter().zip(parents(spans)) {
        if parent.is_none() && !span.instant {
            *covered.entry(span.tid).or_default() += span.dur_nanos;
        }
    }
    let busiest = covered.values().copied().max().unwrap_or(0);
    (1.0 - busiest as f64 / wall_ns as f64).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: SpanKind, tid: u32, start: u64, dur: u64) -> CompletedSpan {
        CompletedSpan {
            kind,
            trace_id: 0,
            span_id: start + 1,
            tid,
            start_nanos: start,
            dur_nanos: dur,
            instant: false,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // iteration [0,100) > step [10,70) > kernels [20,40) [40,60); a second
        // thread's span overlaps in time but is nobody's child.
        let spans = vec![
            span(SpanKind::KernelSim, 1, 20, 20),
            span(SpanKind::DecodeIteration, 1, 0, 100),
            span(SpanKind::KernelSim, 1, 40, 20),
            span(SpanKind::DecodeStep, 1, 10, 60),
            span(SpanKind::BatchExecute, 2, 5, 50),
        ];
        assert_eq!(self_times(&spans), vec![20, 40, 20, 20, 50]);
        let t = totals(&spans);
        assert_eq!(t[&SpanKind::KernelSim].count, 2);
        assert_eq!(t[&SpanKind::KernelSim].total_ns, 40);
        assert_eq!(t[&SpanKind::DecodeIteration].self_ns, 40);
        assert_eq!(t[&SpanKind::DecodeStep].self_ns, 20);
        // Self times on a thread add up to the top-level span.
        let thread1: u64 = [0, 1, 2, 3].iter().map(|&i| self_times(&spans)[i]).sum();
        assert_eq!(thread1, 100);
    }

    #[test]
    fn partial_overlap_and_instants_are_not_children() {
        let mut instant = span(SpanKind::KvAlloc, 1, 30, 0);
        instant.instant = true;
        let spans = vec![
            span(SpanKind::HttpHandle, 1, 0, 50),
            // Retroactive queue span: starts inside the previous request's
            // handle span, ends after it.
            span(SpanKind::HttpQueue, 1, 40, 30),
            span(SpanKind::HttpParse, 1, 70, 10),
            instant,
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 10, 0]);
        let t = totals(&spans);
        assert_eq!(t[&SpanKind::KvAlloc].instants, 1);
        assert_eq!(t[&SpanKind::KvAlloc].count, 0);
    }

    #[test]
    fn identical_start_nests_the_shorter_span_inside() {
        let spans = vec![
            span(SpanKind::KernelSim, 1, 0, 40),
            span(SpanKind::DecodeStep, 1, 0, 100),
        ];
        assert_eq!(self_times(&spans), vec![40, 60]);
    }

    #[test]
    fn unattributed_is_what_top_level_spans_leave_of_the_wall() {
        let spans = vec![
            span(SpanKind::DecodeIteration, 1, 0, 40),
            span(SpanKind::KernelSim, 1, 5, 30),
            span(SpanKind::DecodeIteration, 1, 50, 40),
            span(SpanKind::ShardPlace, 2, 0, 1),
        ];
        assert!((unattributed_share(&spans, 100) - 0.2).abs() < 1e-12);
        assert_eq!(unattributed_share(&spans, 60), 0.0);
        assert_eq!(unattributed_share(&[], 100), 1.0);
    }
}
