//! Acceptance: a compile runs on the thread that called it. Every `Tune`
//! span of a tuned compile carries its `Compile` span's thread and lies
//! inside its interval, one per distinct matmul problem.
//!
//! Its own test binary: it switches the global tracer to
//! `TraceConfig::Full` and reads back every span the process emitted.

use hidet::CompilerOptions;
use hidet_graph::{GraphBuilder, Tensor};
use hidet_sim::Gpu;
use hidet_trace::{SpanKind, TraceConfig};

#[test]
fn tuning_runs_on_the_compiling_thread() {
    // A tower of matmuls over four distinct problems: (4, 64, 96) comes
    // twice among the five layers.
    let widths = [64i64, 96, 64, 96, 80, 112];
    let mut g = GraphBuilder::new("tower");
    let mut t = g.input("x", &[4, widths[0]]);
    for (i, pair) in widths.windows(2).enumerate() {
        let w = g.constant(Tensor::randn(&[pair[0], pair[1]], i as u64 + 1));
        t = g.matmul(t, w);
        t = g.relu(t);
    }
    let graph = g.output(t).build();

    let tracer = hidet_trace::global();
    tracer.set_config(TraceConfig::Full);
    tracer.take_spans();
    let compiled = hidet::compile(&graph, &Gpu::default(), &CompilerOptions::tuned());
    let spans = tracer.take_spans();
    tracer.set_config(TraceConfig::MetricsOnly);
    let compiled = compiled.expect("the tower compiles");

    let compiles: Vec<_> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Compile)
        .collect();
    assert_eq!(compiles.len(), 1, "{spans:?}");
    let compile = compiles[0];
    let tunes: Vec<_> = spans.iter().filter(|s| s.kind == SpanKind::Tune).collect();
    assert_eq!(
        tunes.len(),
        4,
        "one Tune span per distinct problem: {spans:?}"
    );
    assert_eq!(tunes.len(), compiled.tuned_configs().len());
    for tune in tunes {
        assert_eq!(
            tune.tid, compile.tid,
            "tuned off the compiling thread: {tune:?}"
        );
        assert!(
            tune.start_nanos >= compile.start_nanos
                && tune.start_nanos + tune.dur_nanos <= compile.start_nanos + compile.dur_nanos,
            "{tune:?} outside {compile:?}"
        );
    }
}
