//! Draining warm spans allocates nothing per span: once a span kind's
//! metric families and series exist, `Tracer::drain` finds them by
//! borrowed name and labels, so draining 1,000 spans costs no more heap
//! allocations than draining 10.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hidet_trace::{SpanKind, TraceConfig, Tracer};

/// The system allocator, counting the allocations of each thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; counting touches only a const thread-local `Cell`,
// which neither allocates nor needs a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Emits `spans` closed spans and one instant on this thread, then returns
/// how many allocations this thread made draining them.
fn drain_allocations(tracer: &Tracer, spans: u64) -> u64 {
    for id in 0..spans {
        let _span = tracer.span(SpanKind::KernelSim, id);
    }
    tracer.instant(SpanKind::KernelSim, spans);
    let before = ALLOCATIONS.with(Cell::get);
    tracer.drain();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn draining_warm_spans_allocates_nothing_per_span() {
    let tracer = Tracer::new(TraceConfig::MetricsOnly);
    // The first drain registers this thread's ring and every series.
    let cold = drain_allocations(&tracer, 10);
    assert!(cold > 0, "the first drain creates the series");
    let ten = drain_allocations(&tracer, 10);
    let thousand = drain_allocations(&tracer, 1_000);
    assert!(
        thousand <= ten,
        "draining 1,000 warm spans made {thousand} allocations, 10 made {ten}"
    );
    assert_eq!(
        tracer
            .metrics()
            .counter_value("hidet_spans_total", &[("kind", "kernel_sim")]),
        1_020
    );
}
