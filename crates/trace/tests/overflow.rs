//! Trace-ring overflow coverage: a full ring sheds spans without ever
//! blocking, sheds are counted into `trace_events_dropped`, and — the
//! property that makes drops safe — whatever the tracer retains is exactly
//! what was recorded, properly nested, no matter which spans were lost.

use std::time::{Duration, Instant};

use hidet_trace::{CompletedSpan, SpanGuard, SpanKind, TraceConfig, Tracer};

use proptest::prelude::*;

#[test]
fn overflowing_ring_counts_drops_and_never_blocks() {
    // Ring of 8 spans; 50 spans emitted with no drain in between: most
    // must be shed, all of them counted.
    let tracer = Tracer::with_capacity(TraceConfig::Full, 8, 1024);
    let start = Instant::now();
    for i in 0..50u64 {
        let _g = tracer.span(SpanKind::DecodeStep, i);
    }
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "a full ring must shed, not block"
    );
    tracer.drain();
    let dropped = tracer
        .metrics()
        .counter_value("hidet_trace_events_dropped_total", &[]);
    assert_eq!(dropped, 50 - 8, "every shed span is counted");
    assert_eq!(tracer.events_dropped(), dropped);
    // The 8 ring-resident spans are the first 8, all retained.
    let spans = tracer.spans();
    assert_eq!(spans.len(), 8, "{spans:?}");
    let ids: Vec<u64> = spans.iter().map(|s| s.trace_id).collect();
    assert_eq!(ids, (0..8).collect::<Vec<u64>>());
}

#[test]
fn drops_during_a_deep_nest_keep_the_survivors_well_formed() {
    // Ring of 2: the first nest's inner and outer spans fill it exactly;
    // both spans of the second nest are shed. Survivors stay whole.
    let tracer = Tracer::with_capacity(TraceConfig::Full, 2, 1024);
    {
        let _outer = tracer.span(SpanKind::DecodeIteration, 1);
        let _inner = tracer.span(SpanKind::DecodeStep, 1);
    }
    {
        let _outer = tracer.span(SpanKind::DecodeIteration, 2);
        let _inner = tracer.span(SpanKind::DecodeStep, 2);
    }
    let spans = tracer.spans();
    assert_eq!(spans.len(), 2);
    assert!(spans.iter().all(|s| s.trace_id == 1));
    assert_well_nested(&spans);
    assert_eq!(
        tracer
            .metrics()
            .counter_value("hidet_trace_events_dropped_total", &[]),
        2
    );
}

#[test]
fn a_ring_of_capacity_n_takes_exactly_n_spans_before_it_refuses_one() {
    let rings = [2, 8, 64].map(|n| (n, Tracer::with_capacity(TraceConfig::Full, n, 8192)));
    // `Tracer::new`'s default ring.
    let default = (4096, Tracer::new(TraceConfig::Full));
    for (n, tracer) in rings.into_iter().chain([default]) {
        for i in 0..n as u64 {
            let _g = tracer.span(SpanKind::KernelSim, i);
        }
        assert_eq!(tracer.events_dropped(), 0, "ring of {n} refused early");
        tracer.instant(SpanKind::KvAlloc, 0);
        assert_eq!(tracer.events_dropped(), 1, "ring of {n} took too many");
        assert_eq!(tracer.spans().len(), n);
    }
}

/// Checks the Perfetto invariant: on each tid, any two spans are either
/// disjoint in time or one contains the other — never partially overlapping.
fn assert_well_nested(spans: &[CompletedSpan]) {
    for (i, a) in spans.iter().enumerate() {
        for b in &spans[i + 1..] {
            if a.tid != b.tid || a.instant || b.instant {
                continue;
            }
            let (a0, a1) = (a.start_nanos, a.start_nanos + a.dur_nanos);
            let (b0, b1) = (b.start_nanos, b.start_nanos + b.dur_nanos);
            let disjoint = a1 <= b0 || b1 <= a0;
            let a_contains_b = a0 <= b0 && b1 <= a1;
            let b_contains_a = b0 <= a0 && a1 <= b1;
            assert!(
                disjoint || a_contains_b || b_contains_a,
                "spans {a:?} and {b:?} partially overlap"
            );
        }
    }
}

/// What one emission recorded, as seen from outside the tracer: the span's
/// start and end each lie between two clock reads taken around the call
/// that read the tracer's clock (the same read twice for `span_closed`,
/// whose times the caller gives).
#[derive(Debug)]
struct Emitted {
    kind: SpanKind,
    instant: bool,
    start: (Instant, Instant),
    end: (Instant, Instant),
}

const KINDS: [SpanKind; 4] = [
    SpanKind::DecodeIteration,
    SpanKind::PrefillChunk,
    SpanKind::DecodeStep,
    SpanKind::KernelSim,
];

proptest! {
    /// Random nests of guards, instants and `span_closed` intervals on a
    /// ring of 2–8, drained at random points, so spans are shed at
    /// arbitrary places: what `spans()` assembles holds every property of
    /// `check_emissions`.
    #[test]
    fn assembly_is_well_nested_under_arbitrary_drops(
        ring_capacity in 2usize..=8,
        ops in proptest::collection::vec(0u8..=255, 0..120),
    ) {
        check_emissions(ring_capacity, &ops);
    }

    /// The same random emissions on a ring that holds all of them: nothing
    /// is dropped, so every emitted span comes back whole.
    #[test]
    fn assembly_is_lossless_without_drops(
        ops in proptest::collection::vec(0u8..=255, 0..120),
    ) {
        // The anchor plus at most one emission per op. `check_emissions`
        // holds retained + dropped to emitted, so none dropped is all back.
        let (retained, dropped) = check_emissions(ops.len() + 1, &ops);
        prop_assert_eq!(dropped, 0, "{} retained", retained);
    }
}

/// Runs `ops` against a fresh `Tracer` on a ring of `ring_capacity`: each
/// op opens a guard, closes the innermost open one, records an instant,
/// records a `span_closed` interval, or drains. Checks that every retained
/// span is one that was emitted, whole; that span ids are unique; that each
/// tid's spans are well nested; and that every emission is either retained
/// or counted as dropped, in the tracer's count and in the metrics alike.
/// Returns how many spans were retained and how many dropped.
fn check_emissions(ring_capacity: usize, ops: &[u8]) -> (u64, u64) {
    let tracer = Tracer::with_capacity(TraceConfig::Full, ring_capacity, 1 << 16);
    // Each emission carries its own trace id, the key to `emitted`.
    let mut emitted: Vec<Emitted> = Vec::new();
    // The epoch is private: anchor it with one zero-length interval
    // drained before anything else, which therefore survives.
    let anchor = Instant::now();
    tracer.span_closed(SpanKind::HttpQueue, 0, anchor, anchor);
    emitted.push(Emitted {
        kind: SpanKind::HttpQueue,
        instant: false,
        start: (anchor, anchor),
        end: (anchor, anchor),
    });
    tracer.drain();
    let mut open: Vec<(SpanGuard<'_>, usize)> = Vec::new();
    for &op in ops {
        let id = emitted.len();
        let kind = KINDS[usize::from(op / 5) % KINDS.len()];
        match op % 5 {
            0 => {
                let before = Instant::now();
                let guard = tracer.span(kind, id as u64);
                let after = Instant::now();
                emitted.push(Emitted {
                    kind,
                    instant: false,
                    start: (before, after),
                    end: (after, after),
                });
                open.push((guard, id));
            }
            1 => {
                if let Some((guard, id)) = open.pop() {
                    let before = Instant::now();
                    drop(guard);
                    emitted[id].end = (before, Instant::now());
                }
            }
            2 => {
                let before = Instant::now();
                tracer.instant(SpanKind::KvEvict, id as u64);
                let after = Instant::now();
                emitted.push(Emitted {
                    kind: SpanKind::KvEvict,
                    instant: true,
                    start: (before, after),
                    end: (before, after),
                });
            }
            3 => {
                // Opens after everything closed so far and after every
                // open guard: nested like a guard opened and closed now.
                let start = Instant::now();
                let end = start + Duration::from_nanos(u64::from(op));
                while Instant::now() < end {}
                tracer.span_closed(kind, id as u64, start, end);
                emitted.push(Emitted {
                    kind,
                    instant: false,
                    start: (start, start),
                    end: (end, end),
                });
            }
            _ => tracer.drain(),
        }
    }
    while let Some((guard, id)) = open.pop() {
        let before = Instant::now();
        drop(guard);
        emitted[id].end = (before, Instant::now());
    }

    let spans = tracer.spans();
    let first = spans.first().expect("the anchor is drained first");
    prop_assert_eq!(first.trace_id, 0);
    let epoch_nanos = |t: Instant| first.start_nanos + (t - anchor).as_nanos() as u64;
    let mut seen = std::collections::HashSet::new();
    for span in &spans {
        prop_assert!(seen.insert(span.span_id), "span id {} twice", span.span_id);
        let e = &emitted[span.trace_id as usize];
        prop_assert_eq!(span.kind, e.kind);
        prop_assert_eq!(span.instant, e.instant);
        let end = span.start_nanos + span.dur_nanos;
        prop_assert!(
            epoch_nanos(e.start.0) <= span.start_nanos,
            "{span:?} starts early"
        );
        prop_assert!(
            span.start_nanos <= epoch_nanos(e.start.1),
            "{span:?} starts late"
        );
        prop_assert!(epoch_nanos(e.end.0) <= end, "{span:?} ends early");
        prop_assert!(end <= epoch_nanos(e.end.1), "{span:?} ends late");
    }
    assert_well_nested(&spans);

    let emitted = emitted.len() as u64;
    prop_assert_eq!(spans.len() as u64 + tracer.events_dropped(), emitted);
    let metrics = tracer.metrics();
    let by_kind = |family: &str| -> u64 {
        SpanKind::ALL
            .iter()
            .map(|k| metrics.counter_value(family, &[("kind", k.name())]))
            .sum()
    };
    prop_assert_eq!(
        by_kind("hidet_spans_total")
            + by_kind("hidet_trace_events_total")
            + metrics.counter_value("hidet_trace_events_dropped_total", &[]),
        emitted
    );
    (spans.len() as u64, tracer.events_dropped())
}
