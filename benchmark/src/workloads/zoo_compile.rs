//! `zoo_compile` — closed loop, one caller.
//!
//! Set-up builds the paper's five evaluation models at batch 1 and hashes
//! them. The body cold-compiles each (`CompilerOptions::tuned()` on one
//! compile thread, fresh options per repetition so no tuning record carries
//! over) on the RTX 3090
//! spec, then round-trips each artifact through JSON and rebuilds the plan
//! from it. Nothing here launches a kernel: `graph` → `sched` → `analysis` →
//! `core` do all the work with `sim::cost` as the tuner's oracle, so this is
//! the workload an interpreter optimisation must leave alone — and the one
//! that shows work moved *into* compile.

use std::collections::BTreeSet;
use std::hint::black_box;

use hidet::{CompiledArtifact, CompiledGraph, CompilerOptions, MemoryPlan, DEFAULT_MEASURE_TOP_K};
use hidet_analysis::{has_errors, verify_graph, verify_partition, VerifyLevel};
use hidet_graph::passes::{constant_fold, lower_convs, partition};
use hidet_graph::Graph;
use hidet_ir::visit::visit_exprs;
use hidet_ir::Stmt;
use hidet_sched::json::Json;
use hidet_sched::{compile_group, try_tune_matmul_with, CompiledGroup, MatmulProblem, TunerPolicy};
use hidet_sim::{Gpu, GpuSpec};

use crate::harness::{self, probe, timed, Ctx, EndToEnd, Segments, TracedWalls};
use crate::oracle;
use crate::outcome::{Checks, Outcome};
use crate::spans::SpanCollector;
use crate::stats::{self, Summary};

/// The zoo, in `all_models` order; also the suffixes of `core.compile_ms.*`.
const MODELS: [&str; 5] = ["resnet50", "inception_v3", "mobilenet_v2", "bert", "gpt2"];

/// What set-up produces: the named graphs and their structural hashes.
struct Zoo {
    names: &'static [&'static str],
    graphs: Vec<Graph>,
    hashes: Vec<u64>,
}

/// Builds and hashes the models one by one (`all_models(1)` is exactly the
/// five [`MODELS`] constructors), recording each as its own piece.
fn setup(names: &'static [&'static str], pieces: &mut Segments) -> Zoo {
    let graphs: Vec<Graph> = names
        .iter()
        .map(|name| {
            pieces.time(&format!("build:{name}"), || {
                hidet_graph::models::by_name(name, 1).expect("a zoo model")
            })
        })
        .collect();
    let hashes = names
        .iter()
        .zip(&graphs)
        .map(|(name, graph)| pieces.time(&format!("hash:{name}"), || graph.structural_hash()))
        .collect();
    Zoo {
        names,
        graphs,
        hashes,
    }
}

/// `CompilerOptions::tuned()` with the per-group fan-out forced onto one
/// thread. The worker count changes neither what is compiled nor the work
/// done, only how many of the sandbox's two vCPUs it is spread over — and the
/// second one delivers anything between nothing and a full core from one
/// minute to the next (two busy threads take between 1× and 2× the time of
/// one). One thread makes the wall the compile's work.
fn options() -> CompilerOptions {
    CompilerOptions::tuned().sequential()
}

/// What the harness keeps of one cold-compiled model once the (large)
/// compiled graph itself has been dropped: everything the simulated metrics,
/// the checks and the probes need, and none of the constant data.
struct Facts {
    artifact: CompiledArtifact,
    groups: Vec<CompiledGroup>,
    estimate_s: f64,
    tuning_s: f64,
    tuning_trials: usize,
    ops_after_passes: usize,
    planned_peak_bytes: usize,
    cuda_source_bytes: usize,
    kernel_nodes: usize,
}

impl Facts {
    fn of(compiled: &CompiledGraph, gpu: &Gpu) -> Facts {
        Facts {
            artifact: compiled.artifact().clone(),
            groups: compiled.groups().to_vec(),
            estimate_s: compiled.estimate(gpu),
            tuning_s: compiled.tuning_seconds(),
            tuning_trials: compiled.tuning_trials(),
            ops_after_passes: compiled.graph().ops().len(),
            planned_peak_bytes: compiled.planned_peak_bytes(),
            cuda_source_bytes: compiled.cuda_source().len(),
            kernel_nodes: kernel_nodes(compiled),
        }
    }

    fn kernels(&self) -> impl Iterator<Item = &hidet_ir::Kernel> {
        self.groups.iter().flat_map(|g| &g.kernels)
    }
}

/// One timed body: what was learned about each cold compile, and each
/// artifact's JSON. Timings go to the caller's [`Segments`], one class per
/// (phase, model).
#[derive(Default)]
struct Rep {
    facts: Vec<Facts>,
    artifact_json: Vec<String>,
}

impl Rep {
    fn complete(&self) -> bool {
        self.facts.len() == MODELS.len() && self.artifact_json.len() == MODELS.len()
    }
}

/// Cold-compiles every model, then rebuilds every model from its artifact's
/// JSON. Each compiled graph is dropped as soon as its facts are taken —
/// models are compiled one at a time, as a user would — so only one model's
/// folded constants are resident at once.
fn body(zoo: &Zoo, gpu: &Gpu, pieces: &mut Segments, checks: &mut Checks) -> Rep {
    let options = options();
    let mut rep = Rep::default();
    for ((name, graph), &hash) in zoo.names.iter().zip(&zoo.graphs).zip(&zoo.hashes) {
        let compiled = pieces.time(&format!("compile:{name}"), || {
            hidet::compile_hashed(graph, hash, gpu, &options)
        });
        checks.check(compiled.is_ok(), || {
            format!(
                "{name}: cold compile failed: {}",
                compiled.as_ref().unwrap_err()
            )
        });
        match compiled {
            Ok(compiled) => rep.facts.push(Facts::of(&compiled, gpu)),
            Err(_) => {
                pieces.end_rep();
                return rep;
            }
        }
    }
    for (((name, graph), &hash), cold) in zoo
        .names
        .iter()
        .zip(&zoo.graphs)
        .zip(&zoo.hashes)
        .zip(&rep.facts)
    {
        let rebuilt = pieces.time(&format!("rebuild:{name}"), || {
            let json = cold.artifact.to_json();
            let artifact = CompiledArtifact::from_json(&json).map_err(|e| e.to_string())?;
            let rebuilt = hidet::compile_from_artifact_hashed(graph, hash, gpu, &options, artifact)
                .map_err(|e| e.to_string())?;
            Ok::<_, String>((json, rebuilt))
        });
        // A plan rebuilt from its artifact must be the plan that was
        // compiled cold: same kernels, same simulated latency, no tuning.
        let verdict = rebuilt.and_then(|(json, rebuilt)| {
            rep.artifact_json.push(json);
            let cold_kernels = cold.kernels().count();
            if rebuilt.num_kernels() != cold_kernels {
                Err(format!(
                    "rebuilt plan has {} kernels, cold plan {cold_kernels}",
                    rebuilt.num_kernels()
                ))
            } else if rebuilt.estimate(gpu) != cold.estimate_s {
                Err("rebuilt plan's simulated latency differs from the cold plan's".to_string())
            } else if rebuilt.tuning_trials() != 0 {
                Err(format!(
                    "rebuild ran {} tuning trials",
                    rebuilt.tuning_trials()
                ))
            } else {
                Ok(())
            }
        });
        checks.check(verdict.is_ok(), || {
            format!("{name}: {}", verdict.unwrap_err())
        });
    }
    pieces.end_rep();
    rep
}

/// Statement plus expression nodes of a kernel body.
fn ir_nodes(stmt: &Stmt) -> usize {
    fn statements(s: &Stmt) -> usize {
        1 + match s {
            Stmt::Seq(items) => items.iter().map(statements).sum(),
            Stmt::For { body, .. } => statements(body),
            Stmt::If {
                then_body,
                else_body,
                ..
            } => statements(then_body) + else_body.as_deref().map_or(0, statements),
            _ => 0,
        }
    }
    let mut expressions = 0usize;
    visit_exprs(stmt, &mut |_| expressions += 1);
    statements(stmt) + expressions
}

/// Statement plus expression nodes summed over every kernel of `compiled`.
pub fn kernel_nodes(compiled: &CompiledGraph) -> usize {
    compiled
        .groups()
        .iter()
        .flat_map(|g| &g.kernels)
        .map(|k| ir_nodes(k.body()))
        .sum()
}

/// Values read off the compiled plans and artifacts (source **S**): code
/// size, IR size, and the paper's two simulated headline numbers.
fn set_snapshot_metrics(outcome: &mut Outcome, rep: &Rep) {
    let sum = |f: fn(&Facts) -> usize| -> f64 { rep.facts.iter().map(f).sum::<usize>() as f64 };
    let log_mean = rep
        .facts
        .iter()
        .map(|f| (f.estimate_s * 1e3).ln())
        .sum::<f64>()
        / rep.facts.len() as f64;
    outcome.set_value("sim_latency_geomean_ms", log_mean.exp());
    outcome.set_value("sim_tuning_s", rep.facts.iter().map(|f| f.tuning_s).sum());
    outcome.set_value("sched.tuning_trials", sum(|f| f.tuning_trials));
    outcome.set_value("graph.ops_after_passes", sum(|f| f.ops_after_passes));
    outcome.set_value("graph.fused_groups", sum(|f| f.groups.len()));
    outcome.set_value("core.kernels", sum(|f| f.kernels().count()));
    outcome.set_value("core.planned_peak_bytes", sum(|f| f.planned_peak_bytes));
    outcome.set_value("core.cuda_source_bytes", sum(|f| f.cuda_source_bytes));
    outcome.set_value(
        "core.artifact_json_bytes",
        rep.artifact_json.iter().map(String::len).sum::<usize>() as f64,
    );
    outcome.set_value("ir.kernel_nodes", sum(|f| f.kernel_nodes));
}

/// Probes (source **P**): each layer's public entry point timed from
/// outside, on the zoo's own graphs, schedules and kernels.
fn set_probe_metrics(outcome: &mut Outcome, zoo: &Zoo, rep: &Rep, gpu: &Gpu) {
    let (mut passes_s, mut verify_s, mut group_s, mut plan_s) = (0.0, 0.0, 0.0, 0.0);
    for (graph, cold) in zoo.graphs.iter().zip(&rep.facts) {
        let ((lowered, groups), s) = timed(|| {
            let mut g = graph.clone();
            lower_convs(&mut g);
            constant_fold(&mut g);
            let groups = partition(&g);
            (g, groups)
        });
        passes_s += s;
        let (clean, s) = timed(|| {
            !has_errors(&verify_graph(&lowered, VerifyLevel::Cheap))
                && !has_errors(&verify_partition(&lowered, &groups))
        });
        verify_s += s;
        assert!(
            clean,
            "{}: verifier rejects the passes' output",
            graph.name()
        );
        let ((), s) = timed(|| {
            for (group, schedule) in groups.iter().zip(&cold.artifact.schedules) {
                black_box(compile_group(&lowered, group, schedule).expect("group compiles"));
            }
        });
        group_s += s;
        plan_s += timed(|| black_box(MemoryPlan::build(&lowered, &cold.groups))).1;
    }
    outcome.set_value("graph.passes_ms", passes_s * 1e3);
    outcome.set_value("analysis.verify_ms", verify_s * 1e3);
    outcome.set_value("sched.compile_group_ms", group_s * 1e3);
    outcome.set_value("core.plan_build_ms", plan_s * 1e3);

    // The tuner alone, over the zoo's distinct matmul problems, at the
    // pruning depth `CompilerOptions::tuned()` uses.
    let problems: BTreeSet<(i64, i64, i64, i64)> = rep
        .facts
        .iter()
        .flat_map(|f| &f.artifact.tuned)
        .map(|t| (t.problem.batch, t.problem.m, t.problem.n, t.problem.k))
        .collect();
    let (trials, tune_s) = timed(|| {
        problems
            .iter()
            .map(|&(batch, m, n, k)| {
                let problem = MatmulProblem { batch, m, n, k };
                try_tune_matmul_with(problem, gpu, TunerPolicy::pruned(DEFAULT_MEASURE_TOP_K))
                    .map_or(0, |report| report.trials)
            })
            .sum::<usize>()
    });
    outcome.set_value("sched.tune_ms", tune_s * 1e3);
    outcome.set_value("sched.trials_per_host_s", trials as f64 / tune_s);
    outcome.note("tune_probe_problems", problems.len());
    outcome.note("tune_probe_trials", trials);

    let kernels: Vec<_> = rep.facts.iter().flat_map(Facts::kernels).collect();
    let estimate = probe(|| {
        for kernel in &kernels {
            black_box(hidet_sim::cost::estimate(kernel, gpu.spec()).expect("zoo kernel estimates"));
        }
    });
    outcome.set(
        "sim.estimate_us",
        estimate.scaled(1e6 / kernels.len().max(1) as f64),
    );

    let parse = probe(|| {
        for json in &rep.artifact_json {
            black_box(Json::parse(json).expect("artifact JSON parses"));
        }
    });
    outcome.set("sched.json_parse_artifact_ms", parse.scaled(1e3));
    let roundtrip = probe(|| {
        for cold in &rep.facts {
            let json = cold.artifact.to_json();
            black_box(CompiledArtifact::from_json(&json).expect("artifact round-trips"));
        }
    });
    outcome.set("core.artifact_roundtrip_ms", roundtrip.scaled(1e3));
}

/// Per repetition: the summed samples of every class starting with `phase`.
fn per_rep_totals(pieces: &Segments, phase: &str) -> Vec<f64> {
    (0..pieces.reps())
        .map(|rep| {
            MODELS
                .iter()
                .filter_map(|m| pieces.class(&format!("{phase}:{m}")).get(rep))
                .sum()
        })
        .collect()
}

/// The undisturbed seconds of every class starting with `phase`, summed.
fn undisturbed_phase(pieces: &Segments, phase: &str) -> f64 {
    MODELS
        .iter()
        .map(|m| stats::low_decile(pieces.class(&format!("{phase}:{m}"))))
        .sum()
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut outcome = ctx.outcome("zoo_compile");
    let gpu = Gpu::new(GpuSpec::rtx3090());
    outcome.note("models", MODELS.join(","));
    outcome.note("batch", 1);
    outcome.note("device", &gpu.spec().name);
    outcome.note(
        "options",
        "CompilerOptions::tuned().sequential(), fresh per repetition",
    );
    outcome.note(
        "work_item",
        "one model cold-compiled and rebuilt from its artifact",
    );
    outcome.note(
        "latency_sample",
        "the five-model cold-compile wall (each model at its low-decile time)",
    );
    outcome.note(
        "pieces",
        "body: compile:<model>, rebuild:<model>; set-up: build:<model>, hash:<model>",
    );
    let mut checks = Checks::default();

    let mut setup_pieces = Segments::default();
    let zoo = setup(&MODELS, &mut setup_pieces);
    setup_pieces.end_rep();
    let mut pieces = Segments::default();
    let mut last = Rep::default();
    // This workload's pieces are whole-model compiles, seconds long: one
    // sample of each is at the mercy of a single burst of host slowness. An
    // untraced run therefore always takes two, whether or not the first body
    // alone used up `--seconds`, so the low deciles have a choice.
    let min_reps = if ctx.traced { 1 } else { 2 };
    while pieces.reps() < min_reps || ctx.wants_more(pieces.total()) {
        last = body(&zoo, &gpu, &mut pieces, &mut checks);
    }
    harness::top_up_setups(&mut setup_pieces, 3, |pieces| {
        drop(setup(&MODELS, pieces));
    });

    harness::set_end_to_end(
        &mut outcome,
        EndToEnd {
            reps: pieces.reps(),
            work_items: MODELS.len() as f64,
            body_s: pieces.undisturbed(),
            latency_ms: &[undisturbed_phase(&pieces, "compile") * 1e3],
            setup_s: setup_pieces.undisturbed(),
        },
    );
    // As measured (median over repetitions), beside the undisturbed numbers.
    outcome.set(
        "host_compile_s",
        Summary::of(&per_rep_totals(&pieces, "compile")),
    );
    outcome.set(
        "host_rebuild_s",
        Summary::of(&per_rep_totals(&pieces, "rebuild")),
    );
    for model in MODELS {
        outcome.set(
            &format!("core.compile_ms.{model}"),
            Summary::of(pieces.class(&format!("compile:{model}"))).scaled(1e3),
        );
    }
    outcome.set(
        "graph.build_ms",
        Summary::of(&per_rep_totals(&setup_pieces, "build")).scaled(1e3),
    );
    outcome.set(
        "graph.hash_ms",
        Summary::of(&per_rep_totals(&setup_pieces, "hash")).scaled(1e3),
    );
    if last.complete() {
        set_snapshot_metrics(&mut outcome, &last);
    }

    if ctx.traced && last.complete() {
        let mut traced_pieces = Segments::default();
        let collector = SpanCollector::start();
        body(&zoo, &gpu, &mut traced_pieces, &mut checks);
        let trace = collector.finish();
        harness::set_trace_metrics(
            &mut outcome,
            &trace,
            TracedWalls {
                traced_s: traced_pieces.total(),
                traced_undisturbed_s: traced_pieces.undisturbed(),
                untraced_undisturbed_s: pieces.undisturbed(),
            },
            None,
        );
        harness::write_chrome_trace("zoo_compile", &trace);
        set_probe_metrics(&mut outcome, &zoo, &last, &gpu);
    }

    // Independent oracle for the compiler itself: small seeded graphs,
    // compiled quick and tuned, against the host reference executor.
    oracle::check_compiler(ctx.seed, &gpu, &mut checks);
    outcome.checks = checks;
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One seed, two runs: the same graphs go in, and everything the
    /// simulated clock and the counters say comes out identical. (Two of the
    /// five models — a conv net and a transformer — keep the test short.)
    #[test]
    fn compiling_twice_gives_identical_simulated_and_counted_results() {
        const SUBSET: [&str; 2] = ["mobilenet_v2", "bert"];
        let gpu = Gpu::new(GpuSpec::rtx3090());
        let run = || {
            let mut checks = Checks::default();
            let zoo = setup(&SUBSET, &mut Segments::default());
            let rep = body(&zoo, &gpu, &mut Segments::default(), &mut checks);
            assert_eq!(checks.failed, 0, "{:?}", checks.failures);
            (zoo.hashes, rep.facts, rep.artifact_json)
        };
        let (first, second) = (run(), run());
        assert_eq!(first.0, second.0, "inputs differ");
        assert_eq!(first.2, second.2, "artifacts differ");
        assert_eq!(first.1.len(), SUBSET.len());
        for (a, b) in first.1.iter().zip(&second.1) {
            assert_eq!(a.estimate_s.to_bits(), b.estimate_s.to_bits());
            assert_eq!(a.tuning_s.to_bits(), b.tuning_s.to_bits());
            assert_eq!(
                (
                    a.tuning_trials,
                    a.ops_after_passes,
                    a.groups.len(),
                    a.kernels().count()
                ),
                (
                    b.tuning_trials,
                    b.ops_after_passes,
                    b.groups.len(),
                    b.kernels().count()
                )
            );
            assert_eq!(
                (a.planned_peak_bytes, a.cuda_source_bytes, a.kernel_nodes),
                (b.planned_peak_bytes, b.cuda_source_bytes, b.kernel_nodes)
            );
        }
    }

    #[test]
    fn ir_nodes_counts_statements_and_expressions() {
        use hidet_ir::prelude::*;
        // for i in 0..4 { if i < 2 { sync } }  — statements: for, if, sync;
        // expressions: 4 (extent), i < 2 (binary + its two operands).
        let stmt = for_range("i", 4, |i| if_then(i.lt(c(2)), sync_threads()));
        assert_eq!(ir_nodes(&stmt), 3 + 4);
    }
}
