//! Static-analysis sweep: the whole model zoo through the `hidet-analysis`
//! verifiers at every pipeline stage, with **zero diagnostics** as the
//! acceptance bar.
//!
//! Five layers of proof:
//!
//! 1. **graph IR**: every zoo model (the paper's five evaluation networks
//!    plus the decode-step and prefill-chunk graphs) deep-verifies clean as
//!    imported, after `lower_convs`, and after `constant_fold`, and its
//!    fusion partition covers the graph exactly once;
//! 2. **pipeline**: a full compile of a decode step and a prefill chunk —
//!    every stage verifier (graph, partition, schedule, memory plan) armed —
//!    succeeds, and the graph it compiled deep-verifies clean;
//! 3. **artifact load and coalesced generation**: the compiled artifact
//!    round-trips through `compile_from_artifact`, which re-proves every
//!    recorded schedule and the rebuilt memory plan with the same checkers;
//!    then every graph of the zoo compiles under `CompilerOptions::tuned()`
//!    and rebuilds from its artifact, and every group of both — generated
//!    once per distinct group definition and bound to each group's names —
//!    must equal a fresh `compile_group` field by field, and the groups of
//!    one definition must share one kernel definition. The table prints each graph's groups, how
//!    many of them were generated and how many distinct definitions they
//!    hold;
//! 4. **lane commutativity**: every kernel definition of every model is
//!    lowered once for the interpreter (nothing is launched), as its plan
//!    lowers it, and its ranges' verdicts read back once — how much runs
//!    once for the whole block (weighted per kernel), why the rest does not,
//!    and, as an error (HA040), any barrier interval in which two threads
//!    race for an element: the templates partition their tiles, so one found
//!    is a bug in a template or in the proof. A range left per thread for
//!    what is in it (HA042: it can fault, is untyped, or has a loop whose
//!    trip count differs by thread) fails the sweep too: the predicated
//!    partial tiles run wide under lane masks, so one found is a template
//!    the guards do not cover. Only HA041 — a footprint the proof gives up
//!    on, such as that of bert's and gpt2's softmax kernels — may stay.
//!    The "side by side" column counts the definitions of more than one
//!    block whose blocks the lowering proved apart, so that a launch runs
//!    them as the lanes of one wide pass, of all definitions of more than
//!    one block; only blocks of at most 32 threads go side by side, so it
//!    reads 0 where every block of a graph is wider.
//!    Each model's largest program-to-IR ratio is printed, and a program of
//!    more than 4× its kernel's IR nodes fails the sweep: unrolling must
//!    stay proportional to the kernel on the whole zoo;
//! 5. **the tuner's closed form**: for every distinct matmul problem of the
//!    zoo, every candidate of the base space and every split-K child of each
//!    is priced both ways — `matmul_work` against `KernelFacts::of` and
//!    `count_work` of the built kernels — and the model's inputs must be
//!    equal, field by field.
//!
//! Then a real decode step, `gpt2_decode_step(4, 64)`, runs on the
//! interpreter under the decode engine's `compact().order_stable()`, which
//! must be bit-identical to `reference::execute`, and under plain
//! `compact()`, whose cooperative reductions regroup the adds: whether it
//! agrees is printed, not gated.
//!
//! ```text
//! cargo run --release -p hidet-bench --bin verify_sweep
//! ```

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use hidet::{CompiledGraph, CompilerOptions};
use hidet_analysis::{
    check_lanes, verify_graph, verify_partition, Diagnostic, LaneSummary, Rule, Severity,
    VerifyLevel,
};
use hidet_bench::print_table;
use hidet_graph::models;
use hidet_graph::passes::{constant_fold, lower_convs, partition};
use hidet_graph::{reference, Graph, Tensor};
use hidet_ir::visit::count_nodes;
use hidet_sched::{
    anchor_problem, compile_group, matmul_kernel, matmul_space, matmul_work, splitk_variants,
    AnchorProblem, GroupSpec, MatmulConfig, MatmulIo, MatmulProblem,
};
use hidet_sim::cost::count_work;
use hidet_sim::{Gpu, KernelFacts};

/// The most instructions a lowered program may have per IR node of its
/// kernel: unrolling is bounded by the kernel's size, not only by a fixed
/// budget.
const SIZE_FACTOR: usize = 4;

/// Deep-verifies one model through the graph-pass pipeline; returns every
/// diagnostic (expected: none) and the number of checks run, and collects
/// the matmul problems its fused groups' anchors pose.
fn sweep_graph(
    mut g: Graph,
    diags: &mut Vec<Diagnostic>,
    problems: &mut HashSet<MatmulProblem>,
) -> usize {
    diags.extend(verify_graph(&g, VerifyLevel::Deep));
    lower_convs(&mut g);
    diags.extend(verify_graph(&g, VerifyLevel::Deep));
    constant_fold(&mut g);
    diags.extend(verify_graph(&g, VerifyLevel::Deep));
    let groups = partition(&g);
    diags.extend(verify_partition(&g, &groups));
    for anchor in groups.iter().filter_map(|group| group.anchor) {
        let op = g.op(anchor);
        if let Some(AnchorProblem::Matmul(problem)) = anchor_problem(&op.kind, &g.input_shapes(op))
        {
            problems.insert(problem);
        }
    }
    4
}

/// Whether `matmul_work` hands the latency model what the built kernels do.
fn closed_form_matches(problem: MatmulProblem, config: MatmulConfig) -> bool {
    let kernels = matmul_kernel(problem, config, MatmulIo::direct("tree", problem));
    let tree: Vec<_> = (kernels.iter())
        .map(|k| {
            let counts = count_work(k.body()).expect("scheduled kernels have constant extents");
            (KernelFacts::of(k), counts)
        })
        .collect();
    matmul_work(problem, config) == tree
}

/// Every group of `compiled` that differs from a fresh `compile_group` of
/// the same group under its recorded schedule, or whose kernels are not the
/// shared definitions of the first group of its [`GroupSpec`]'s definition;
/// and the number of distinct group definitions — the groups a compile
/// generates — and of distinct kernel definitions among the groups.
fn regenerate(compiled: &CompiledGraph, mismatched: &mut Vec<String>) -> (usize, usize) {
    let g = compiled.graph();
    let groups = partition(g);
    let schedules = &compiled.artifact().schedules;
    let mut first = HashMap::new();
    let mut definitions = HashSet::new();
    for (i, ((group, schedule), got)) in groups
        .iter()
        .zip(schedules)
        .zip(compiled.groups())
        .enumerate()
    {
        let s = *first
            .entry(GroupSpec::of(g, group, schedule).def)
            .or_insert(i);
        let shared = (got.kernels.iter().zip(&compiled.groups()[s].kernels))
            .all(|(a, b)| Arc::ptr_eq(a.definition(), b.definition()));
        if !shared {
            mismatched.push(format!(
                "{} group {i}: not group {s}'s definition",
                g.name()
            ));
        }
        definitions.extend(got.kernels.first().map(|k| Arc::as_ptr(k.definition())));
        let fresh = compile_group(g, group, schedule).expect("a compiled group compiles");
        if let Some(field) = got.difference(&fresh) {
            mismatched.push(format!("{} group {i}: {field}", g.name()));
        }
    }
    if groups.len() != compiled.groups().len() {
        mismatched.push(format!("{}: group count", g.name()));
    }
    (first.len(), definitions.len())
}

fn main() {
    println!("=== hidet: static-analysis sweep (graph IR / schedules / plans) ===\n");
    let start = Instant::now();

    // --- 1. graph IR over the whole zoo -----------------------------------
    let mut zoo = models::all_models(1);
    zoo.push(models::gpt2_decode_step(2, 16));
    zoo.push(models::gpt2_prefill(8, 16));
    let mut rows = Vec::new();
    let mut diags = Vec::new();
    let mut checks = 0usize;
    let mut problems = HashSet::new();
    let n_models = zoo.len();
    for g in &zoo {
        let before = diags.len();
        checks += sweep_graph(g.clone(), &mut diags, &mut problems);
        rows.push(vec![
            g.name().to_string(),
            format!("{}", g.ops().len()),
            format!("{}", diags.len() - before),
        ]);
    }
    print_table(&["model", "ops", "diagnostics"], &rows);

    // --- 2 + 3. full pipeline, deep-verified, then the artifact round-trip -
    let gpu = Gpu::default();
    let options = CompilerOptions::quick();
    for graph in [models::gpt2_decode_step(1, 16), models::gpt2_prefill(4, 16)] {
        let compiled = hidet::compile(&graph, &gpu, &options)
            .unwrap_or_else(|e| panic!("{} failed verified compile: {e}", graph.name()));
        // The compile re-proves the graph's structure after every pass; the
        // deep rules run here, on the graph it compiled.
        diags.extend(verify_graph(compiled.graph(), VerifyLevel::Deep));
        let artifact = compiled.artifact().clone();
        hidet::compile_from_artifact(&graph, &gpu, &options, artifact)
            .unwrap_or_else(|e| panic!("{} artifact re-load rejected: {e}", graph.name()));
        checks += 3;
        println!(
            "{}: deep-verified compile + artifact re-load clean ({} kernels)",
            graph.name(),
            compiled.num_kernels()
        );
    }

    // --- 3. every group of a tuned compile and rebuild, regenerated -------
    let (mut rows, mut regenerated) = (Vec::new(), Vec::new());
    let tuned = CompilerOptions::tuned();
    for graph in &zoo {
        let compiled = hidet::compile(graph, &gpu, &tuned)
            .unwrap_or_else(|e| panic!("{} failed to compile: {e}", graph.name()));
        let artifact = compiled.artifact().clone();
        let rebuilt = hidet::compile_from_artifact(graph, &gpu, &tuned, artifact)
            .unwrap_or_else(|e| panic!("{} artifact re-load rejected: {e}", graph.name()));
        let (generated, definitions) = regenerate(&compiled, &mut regenerated);
        regenerate(&rebuilt, &mut regenerated);
        checks += 2;
        rows.push(vec![
            graph.name().to_string(),
            format!("{}", compiled.groups().len()),
            format!("{generated}"),
            format!("{definitions}"),
        ]);
    }
    println!();
    print_table(&["model", "groups", "generated", "definitions"], &rows);
    println!(
        "every group of {} tuned compiles and their rebuilds against a fresh compile_group, \
         and sharing its group definition's kernels: {} mismatches",
        zoo.len(),
        regenerated.len()
    );
    for line in regenerated.iter().take(10) {
        println!("  mismatch: {line}");
    }

    // --- 4. lane commutativity of every kernel definition, statically -----
    let (mut rows, mut oversized) = (Vec::new(), Vec::new());
    for graph in &zoo {
        let compiled = hidet::compile(graph, &gpu, &CompilerOptions::quick())
            .unwrap_or_else(|e| panic!("{} failed to compile: {e}", graph.name()));
        let lowering = Instant::now();
        let programs = compiled.plan().programs();
        let lowered_us = lowering.elapsed().as_secs_f64() * 1e6;
        let mut summary = LaneSummary::default();
        let mut largest = 0.0f64;
        let mut definitions = HashSet::new();
        // (definitions whose blocks run side by side, of more than one block)
        let mut side_by_side = (0, 0);
        let kernels = compiled.plan().groups().iter().flat_map(|g| &g.kernels);
        for (kernel, program) in kernels.zip(programs) {
            // The share weighs every kernel; the program, its size and its
            // verdicts are its definition's, so they are checked once.
            summary.add(program);
            if !definitions.insert(Arc::as_ptr(kernel.definition())) {
                continue;
            }
            if kernel.launch().grid_dim > 1 {
                side_by_side.0 += usize::from(program.side_by_side() > 1);
                side_by_side.1 += 1;
            }
            let nodes = count_nodes(kernel.body());
            let ratio = program.op_count() as f64 / nodes as f64;
            largest = largest.max(ratio);
            if program.op_count() > SIZE_FACTOR * nodes {
                oversized.push(format!(
                    "{} {}: {} instructions for {nodes} IR nodes",
                    graph.name(),
                    kernel.name(),
                    program.op_count()
                ));
            }
            // (What runs per thread and why is the table below; a race, or
            // a range per thread for anything but its footprint, is a
            // finding.)
            let lanes = check_lanes(kernel, program, graph.name());
            let finding =
                |d: &Diagnostic| d.severity == Severity::Error || d.rule == Rule::LanePerThread;
            diags.extend(lanes.into_iter().filter(finding));
        }
        checks += 1;
        let reasons: Vec<String> = (summary.per_thread.iter())
            .map(|(reason, weight)| format!("{reason} {weight}"))
            .collect();
        rows.push(vec![
            graph.name().to_string(),
            format!("{}", programs.len()),
            format!("{}", definitions.len()),
            format!("{} / {}", side_by_side.0, side_by_side.1),
            format!("{:.3}", summary.wide_share()),
            reasons.join(", "),
            format!("{largest:.2}"),
            format!("{:.0}", lowered_us / definitions.len().max(1) as f64),
        ]);
    }
    println!();
    let header = [
        "model",
        "kernels",
        "definitions",
        "side by side",
        "wide share",
        "per thread (instructions x block_dim)",
        "largest program / IR",
        "lowering us/definition",
    ];
    print_table(&header, &rows);
    for line in &oversized {
        println!("  oversized: {line}");
    }

    // --- 5. the tuner's closed form against the tree ------------------------
    let pricing = Instant::now();
    let space = matmul_space(gpu.spec());
    let (mut compared, mut mismatched) = (0usize, Vec::new());
    for &problem in &problems {
        for base in &space {
            for split_k in std::iter::once(1).chain(splitk_variants(problem, base)) {
                let config = MatmulConfig { split_k, ..*base };
                compared += 1;
                if !closed_form_matches(problem, config) {
                    mismatched.push(format!("{problem:?} {}", config.id()));
                }
            }
        }
    }
    println!(
        "\nclosed-form work of {compared} schedules over {} distinct zoo matmul problems \
         against the built kernels: {} mismatches in {:.0} ms",
        problems.len(),
        mismatched.len(),
        pricing.elapsed().as_secs_f64() * 1e3
    );
    for line in mismatched.iter().take(10) {
        println!("  mismatch: {line}");
    }

    // --- a real decode step, executed, against the reference ---------------
    let step = models::gpt2_decode_step(4, 64);
    let inputs: HashMap<_, _> = (step.inputs().iter().zip(1..))
        .map(|(&t, seed)| {
            let data = Tensor::randn(step.tensor(t).shape(), seed);
            (t, data.data().expect("generated").to_vec())
        })
        .collect();
    let want = reference::execute(&step, &inputs);
    let mut order_stable_same = false;
    for (label, options, gated) in [
        (
            "compact().order_stable()",
            CompilerOptions::compact().order_stable(),
            true,
        ),
        ("compact()", CompilerOptions::compact(), false),
    ] {
        let compiled = hidet::compile(&step, &gpu, &options).expect("the decode step compiles");
        let run = Instant::now();
        let got = compiled.run(&inputs, &gpu).expect("the decode step runs");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let same = (step.outputs().iter()).all(|o| bits(&got[o]) == bits(&want[o]));
        println!(
            "{} under {label}: estimate {:.3} ms, executed in {:.2} s, {} the reference{}",
            step.name(),
            compiled.estimate(&gpu) * 1e3,
            run.elapsed().as_secs_f64(),
            if same {
                "bit-identical to"
            } else {
                "differs from"
            },
            if gated { "" } else { " (not gated)" }
        );
        order_stable_same |= gated && same;
    }

    let sweep_ms = start.elapsed().as_secs_f64() * 1e3;
    println!(
        "\nswept {n_models} zoo models, {checks} verifier passes, {} diagnostics in {sweep_ms:.0} ms",
        diags.len()
    );
    if !diags.is_empty() {
        print!("{}", hidet_analysis::render_text(&diags));
    }

    assert!(
        diags.is_empty(),
        "the zoo must verify clean at every stage, got {} diagnostics",
        diags.len()
    );
    assert!(
        regenerated.is_empty(),
        "every group must equal a fresh compile_group of it and share its group definition's kernels"
    );
    assert!(
        oversized.is_empty(),
        "every program must stay within {SIZE_FACTOR}x its kernel's IR nodes"
    );
    assert!(
        mismatched.is_empty(),
        "the tuner's closed form must equal the built kernels' work"
    );
    assert!(
        order_stable_same,
        "the decode step must equal the reference bit for bit under compact().order_stable()"
    );
    println!("all static-analysis sweep checks passed");
}
