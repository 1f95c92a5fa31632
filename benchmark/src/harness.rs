//! Pieces every workload shares: the run context, timing helpers, the
//! microprobe loop, peak-RSS reading and the span-derived metrics of the
//! traced pass.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use hidet_trace::{SpanKind, TraceConfig, Tracer};

use crate::outcome::Outcome;
use crate::spans::{self, KindTotals, Trace};
use crate::stats::{self, Summary};

/// What the command line asked of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Seconds of timed body to accumulate before stopping (at least one
    /// repetition always runs).
    pub seconds: u64,
    /// Traced pass (`--trace 1`): one untraced and one traced repetition,
    /// probes, per-layer metrics.
    pub traced: bool,
}

impl Ctx {
    /// A fresh [`Outcome`] stamped with this context.
    pub fn outcome(&self, workload: &str) -> Outcome {
        Outcome {
            workload: workload.to_string(),
            seed: self.seed,
            seconds: self.seconds,
            traced: self.traced,
            ..Outcome::default()
        }
    }

    /// Whether another timed repetition should run, given the body time
    /// accumulated so far. The traced pass runs exactly one.
    pub fn wants_more(&self, body_seconds: f64) -> bool {
        !self.traced && body_seconds < self.seconds as f64
    }
}

/// Runs `f`, returning its result and the wall seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Durations of the equal-work pieces the repetitions of a body (or of a
/// set-up) consist of, grouped by class: every sample of one class did the
/// same work, so the spread inside a class is the host's doing, not the
/// program's.
///
/// [`Segments::undisturbed`] prices one repetition at each class's low-decile
/// duration ([`stats::low_decile`], which also says why): the wall the body
/// would take if the host stayed in its undisturbed state throughout.
#[derive(Debug, Default, Clone)]
pub struct Segments {
    classes: BTreeMap<String, Vec<f64>>,
    reps: usize,
}

impl Segments {
    /// Records one piece of class `class` that took `seconds`.
    pub fn push(&mut self, class: &str, seconds: f64) {
        self.classes
            .entry(class.to_string())
            .or_default()
            .push(seconds);
    }

    /// Runs `f` as one piece of class `class`.
    pub fn time<T>(&mut self, class: &str, f: impl FnOnce() -> T) -> T {
        let (out, s) = timed(f);
        self.push(class, s);
        out
    }

    /// Marks the end of one repetition (every repetition does equal work).
    pub fn end_rep(&mut self) {
        self.reps += 1;
    }

    /// Repetitions recorded so far.
    pub fn reps(&self) -> usize {
        self.reps
    }

    /// Every sample of class `class` (empty for an unknown class).
    pub fn class(&self, class: &str) -> &[f64] {
        self.classes.get(class).map_or(&[], Vec::as_slice)
    }

    /// Seconds one repetition takes undisturbed: per class, pieces per
    /// repetition × the class's low-decile duration.
    pub fn undisturbed(&self) -> f64 {
        self.classes
            .values()
            .map(|samples| samples.len() as f64 / self.reps as f64 * stats::low_decile(samples))
            .sum()
    }

    /// Seconds of everything recorded, as measured.
    pub fn total(&self) -> f64 {
        self.classes.values().flatten().sum()
    }
}

/// Microprobe: calls `f` until 30 iterations or 200 ms have passed
/// (whichever comes first, at least once) and summarises seconds per call.
/// Inputs and results go through `black_box` at the call site.
pub fn probe<T>(mut f: impl FnMut() -> T) -> Summary {
    let mut samples = Vec::new();
    let begin = Instant::now();
    while samples.len() < 30 && begin.elapsed() < Duration::from_millis(200) {
        let start = Instant::now();
        black_box(f());
        samples.push(start.elapsed().as_secs_f64());
    }
    Summary::of(&samples)
}

/// Like [`probe`] for calls too short to time one by one: times batches of
/// `batch` calls and summarises seconds per *call*.
pub fn probe_batched(batch: usize, mut f: impl FnMut()) -> Summary {
    let per_batch = probe(|| {
        for _ in 0..batch {
            f();
        }
    });
    per_batch.scaled(1.0 / batch as f64)
}

/// Peak resident set of this process so far, MiB (`VmHWM`). 0 where
/// `/proc` is not available.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Repeats set-up (`setup` records its pieces and drops whatever it built)
/// until there are at least `min` set-ups and — for set-ups too short to
/// time well — 100 ms of them, capped at 40.
pub fn top_up_setups(pieces: &mut Segments, min: usize, mut setup: impl FnMut(&mut Segments)) {
    while pieces.reps() < min || (pieces.total() < 0.1 && pieces.reps() < 40) {
        setup(pieces);
        pieces.end_rep();
    }
}

/// What a workload hands [`set_end_to_end`]: its numbers at the host's
/// *undisturbed* pace (see [`Segments`]).
pub struct EndToEnd<'a> {
    /// Timed body repetitions.
    pub reps: usize,
    /// Work items one body completes.
    pub work_items: f64,
    /// Undisturbed wall of one body, seconds.
    pub body_s: f64,
    /// Per-item host latencies, ms; the low decile is reported.
    pub latency_ms: &'a [f64],
    /// Undisturbed wall of one set-up, seconds.
    pub setup_s: f64,
}

/// Records the end-to-end metrics every workload reports, plus peak RSS and
/// the repetition count.
pub fn set_end_to_end(outcome: &mut Outcome, e: EndToEnd) {
    outcome.set_value("host_work_per_s", e.work_items / e.body_s);
    outcome.set(
        "host_latency_p10_ms",
        Summary {
            n: e.latency_ms.len(),
            ..Summary::single(stats::low_decile(e.latency_ms))
        },
    );
    outcome.set_value("setup_s", e.setup_s);
    outcome.set_value("peak_rss_mb", peak_rss_mb());
    outcome.reps = e.reps;
}

/// Cost of one `span_start`/`span_end` pair on a private `Full` tracer,
/// seconds. The ring is drained between batches so no push ever hits a full
/// ring (a rejected push is cheaper and would flatter the number).
pub fn probe_trace_emit() -> Summary {
    let tracer = Tracer::new(TraceConfig::Full);
    const PAIRS: usize = 1000;
    let mut samples = Vec::new();
    for _ in 0..30 {
        let start = Instant::now();
        for _ in 0..PAIRS {
            let token = tracer.span_start(SpanKind::KernelSim, 0);
            tracer.span_end(black_box(token));
        }
        samples.push(start.elapsed().as_secs_f64() / PAIRS as f64);
        tracer.drain();
    }
    Summary::of(&samples)
}

/// The walls of a traced pass.
pub struct TracedWalls {
    /// The traced body's wall as measured, seconds: the denominator of every
    /// share-of-wall number (the spans were measured in the same interval).
    pub traced_s: f64,
    /// The traced body at the host's undisturbed pace, seconds.
    pub traced_undisturbed_s: f64,
    /// The untraced bodies of the same process at that pace, seconds: the
    /// base of `trace.overhead_pct`.
    pub untraced_undisturbed_s: f64,
}

/// Records every span-derived (source **T**) metric of a traced body, plus
/// the trace's own validity numbers. `launch_metric` names this workload's
/// `sim.interp_ms_per_launch.*` row, if it has one.
pub fn set_trace_metrics(
    outcome: &mut Outcome,
    trace: &Trace,
    walls: TracedWalls,
    launch_metric: Option<&str>,
) {
    let traced_wall_s = walls.traced_s;
    let totals = spans::totals(&trace.spans);
    let kind = |k: SpanKind| totals.get(&k).copied().unwrap_or_default();
    let kernel = kind(SpanKind::KernelSim);
    outcome.set_value("sim.kernel_launches", kernel.count as f64);
    outcome.set_value("sim.interp_share", kernel.total_s() / traced_wall_s);
    if let Some(name) = launch_metric {
        outcome.set_value(name, kernel.mean_s() * 1e3);
    }

    outcome.set_value(
        "runtime.batch_form_ms",
        kind(SpanKind::BatchForm).mean_s() * 1e3,
    );
    outcome.set_value(
        "runtime.batch_execute_self_ms",
        kind(SpanKind::BatchExecute).mean_self_s() * 1e3,
    );
    outcome.set_value(
        "runtime.engine_submit_ms",
        kind(SpanKind::EngineSubmit).mean_s() * 1e3,
    );

    outcome.set_value(
        "decode.iteration_self_ms",
        kind(SpanKind::DecodeIteration).self_s() * 1e3,
    );
    let step_self = kind(SpanKind::DecodeStep).self_s() + kind(SpanKind::PrefillChunk).self_s();
    outcome.set_value("decode.step_self_ms", step_self * 1e3);
    outcome.set_value(
        "decode.shard_place_us",
        kind(SpanKind::ShardPlace).mean_s() * 1e6,
    );

    outcome.set_value("server.parse_us", kind(SpanKind::HttpParse).mean_s() * 1e6);
    outcome.set_value("server.queue_us", kind(SpanKind::HttpQueue).mean_s() * 1e6);
    outcome.set_value(
        "server.handle_self_us",
        kind(SpanKind::HttpHandle).mean_self_s() * 1e6,
    );
    outcome.set_value(
        "server.respond_us",
        kind(SpanKind::HttpRespond).mean_s() * 1e6,
    );

    outcome.set_value(
        "trace.overhead_pct",
        (walls.traced_undisturbed_s / walls.untraced_undisturbed_s - 1.0) * 100.0,
    );
    outcome.set_value("trace.events_dropped", trace.events_dropped as f64);
    outcome.set_value("trace.spans", trace.spans.len() as f64);
    outcome.set_value(
        "trace.unattributed_share",
        spans::unattributed_share(&trace.spans, (traced_wall_s * 1e9) as u64),
    );
    outcome.set("trace.emit_ns", probe_trace_emit().scaled(1e9));

    println!(
        "  traced body {traced_wall_s:.3} s as measured ({:.3} s undisturbed; untraced {:.3} s undisturbed), {} spans, {} events dropped",
        walls.traced_undisturbed_s,
        walls.untraced_undisturbed_s,
        trace.spans.len(),
        trace.events_dropped
    );
    let mut kinds: Vec<(SpanKind, KindTotals)> = totals.into_iter().collect();
    kinds.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
    for (k, t) in kinds {
        println!(
            "    {:<17} n={:<6} total {:>10.3} ms  self {:>10.3} ms ({:>5.1}% of wall)",
            k.name(),
            t.count + t.instants,
            t.total_s() * 1e3,
            t.self_s() * 1e3,
            t.self_s() / traced_wall_s * 100.0
        );
    }
}

/// Writes the traced body's spans as a Chrome trace under
/// `benchmark/results/` (relative to the working directory, which is the
/// checkout root when the PR driver runs the benchmark).
pub fn write_chrome_trace(workload: &str, trace: &Trace) {
    let dir = std::path::Path::new(crate::report::RESULTS_DIR);
    let path = dir.join(format!("trace_{workload}.json"));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, hidet_trace::render_chrome_trace(&trace.spans)));
    match written {
        Ok(()) => println!("  wrote {}", path.display()),
        Err(e) => println!("  could not write {}: {e}", path.display()),
    }
}
