//! The Hidet compilation pipeline (paper Fig. 10).

mod compiled;
mod generate;
mod options;
mod tune;

pub use self::compiled::{CompilePlan, CompiledGraph, HIDET_DISPATCH_S};
pub use self::options::{CompileError, CompilerOptions, MatmulChoice, DEFAULT_MEASURE_TOP_K};

use std::sync::Arc;

use hidet_analysis::{self as analysis, VerifyLevel};
use hidet_graph::passes::FusedGroup;
use hidet_graph::passes::{constant_fold, lower_convs, partition};
use hidet_graph::Graph;
use hidet_sched::fusion::GroupSchedule;
use hidet_sched::{anchor_problem, AnchorProblem};
use hidet_sim::Gpu;

use self::generate::generate;
use self::tune::{schedule_group, tune_problems};
use crate::artifact::CompiledArtifact;
use crate::plan::MemoryPlan;

/// Compiles a model for the given device (paper Fig. 10, steps 2–5).
///
/// Computes `graph.structural_hash()` — O(operators): it reads each
/// constant's digest, not its elements — to stamp the artifact key; callers
/// that already hold the hash (the runtime's compiled cache memoizes it per
/// model variant) may use [`compile_hashed`].
///
/// # Errors
/// [`CompileError::Schedule`] if a fused group has no applicable template.
pub fn compile(
    graph: &Graph,
    gpu: &Gpu,
    options: &CompilerOptions,
) -> Result<CompiledGraph, CompileError> {
    compile_hashed(graph, graph.structural_hash(), gpu, options)
}

/// [`compile`] with a precomputed [`Graph::structural_hash`], skipping the
/// rehash. `graph_hash` becomes the artifact's cache key —
/// passing a hash that is not `graph`'s produces artifacts that will never
/// validate against the graph again.
pub fn compile_hashed(
    graph: &Graph,
    graph_hash: u64,
    gpu: &Gpu,
    options: &CompilerOptions,
) -> Result<CompiledGraph, CompileError> {
    // The whole cold compile is one span; each distinct matmul problem's
    // tuning nests a `Tune` span under it. Compiles are not tied to a single
    // request, so the span is unattributed (trace id 0).
    let _span = hidet_trace::global().span(hidet_trace::SpanKind::Compile, 0);
    let (g, groups) = lower_and_partition(graph, VerifyLevel::Cheap)?;

    // Tune each distinct matmul problem once, then decide every group's
    // schedule by looking its problem up.
    let tuned = tune_problems(&g, &groups, gpu, options);
    let (plan, schedules) = generate_and_plan(g, &groups, "memory planning", |g, i| {
        let schedule = schedule_group(g, &groups[i], gpu, options, &tuned)?;
        // Re-prove the elected schedule against the device — the tuner and
        // the ablation clamps must never hand kernel generation an illegal
        // config.
        let diags = check_group_schedule(g, &groups[i], &schedule, gpu, options, i);
        verify_stage(diags, "tuning")?;
        Ok(schedule)
    })?;
    // The artifact records what its schedules cost to find: what a warm
    // artifact load saves.
    let artifact = CompiledArtifact {
        graph_hash,
        device: gpu.spec().fingerprint(),
        option_bits: options.cache_key_bits(),
        schedules,
        tuned: tuned.entries,
        tuning_trials: tuned.trials,
        tuning_seconds: tuned.seconds,
        planned_peak_bytes: plan.memory_plan.peak_bytes(),
    };
    Ok(CompiledGraph {
        plan,
        artifact,
        from_artifact: false,
    })
}

/// The front end both compile paths share: clone, lower convolutions, fold
/// constants, partition into fused groups. Each rewriting pass rebuilds the
/// op/tensor tables, so at `level` above `Off` the IR invariants are
/// re-proved behind it, and the partition after the last rewrite.
fn lower_and_partition(
    graph: &Graph,
    level: VerifyLevel,
) -> Result<(Graph, Vec<FusedGroup>), CompileError> {
    let mut g = graph.clone();
    lower_convs(&mut g);
    verify_stage(analysis::verify_graph(&g, level), "lower_convs")?;
    constant_fold(&mut g);
    verify_stage(analysis::verify_graph(&g, level), "constant_fold")?;
    let groups = partition(&g);
    if level > VerifyLevel::Off {
        verify_stage(analysis::verify_partition(&g, &groups), "partition")?;
    }
    Ok((g, groups))
}

/// The back end both compile paths share. `schedule(g, i)` decides group
/// `i`'s schedule, in group order up to the first group it rejects; the
/// groups before that one are generated, and the first error in group
/// order — a group that fails to generate, else the rejection — is
/// returned. Then the intermediates' arena is planned and re-proved, as
/// stage `verify_as`, before anything runs on it.
fn generate_and_plan(
    g: Graph,
    groups: &[FusedGroup],
    verify_as: &str,
    mut schedule: impl FnMut(&Graph, usize) -> Result<GroupSchedule, CompileError>,
) -> Result<(CompilePlan, Vec<GroupSchedule>), CompileError> {
    let mut schedules = Vec::with_capacity(groups.len());
    let mut rejected = None;
    for i in 0..groups.len() {
        match schedule(&g, i) {
            Ok(s) => schedules.push(s),
            Err(e) => {
                rejected = Some(e);
                break;
            }
        }
    }
    let compiled = generate(&g, groups, &schedules)?;
    if let Some(e) = rejected {
        return Err(e);
    }
    let memory_plan = MemoryPlan::build(&g, &compiled);
    verify_stage(memory_plan.verify(g.name()), verify_as)?;
    let plan = CompilePlan {
        graph: g,
        groups: compiled,
        memory_plan,
        programs: Arc::default(),
    };
    Ok((plan, schedules))
}

/// Lifts a verifier stage's findings into [`CompileError::Verify`]:
/// gating findings abort the compile with the rendered diagnostics.
fn verify_stage(diags: Vec<analysis::Diagnostic>, stage: &str) -> Result<(), CompileError> {
    if analysis::has_errors(&diags) {
        Err(CompileError::Verify(format!(
            "after {stage}: {}",
            analysis::render_text(&diags).trim_end()
        )))
    } else {
        Ok(())
    }
}

/// Re-proves one group's elected schedule against the device spec
/// (`hidet_analysis::check_schedule` with this group's anchor kind and the
/// compile's determinism contract).
fn check_group_schedule(
    g: &Graph,
    group: &FusedGroup,
    schedule: &GroupSchedule,
    gpu: &Gpu,
    options: &CompilerOptions,
    index: usize,
) -> Vec<analysis::Diagnostic> {
    let matmul_anchor = group.anchor.is_some_and(|a| {
        let op = g.op(a);
        let problem = anchor_problem(&op.kind, &g.input_shapes(op));
        matches!(problem, Some(AnchorProblem::Matmul(_)))
    });
    analysis::check_schedule(
        schedule,
        gpu.spec(),
        matmul_anchor,
        options.order_stable_reductions,
        &format!("{}::group {index}", g.name()),
    )
}

/// Rebuilds a [`CompiledGraph`] from a previously saved [`CompiledArtifact`]
/// with **zero tuning trials**: the graph passes and kernel generation run as
/// usual, but every schedule decision comes from the artifact.
///
/// The artifact must match the `(graph, device, options)` key exactly and its
/// schedules must fit the target device — an artifact produced for a larger
/// GPU (or a corrupted file that slipped past the parser) is rejected, never
/// fed to kernel generation.
///
/// # Errors
/// [`CompileError::Artifact`] on any key/shape/fit mismatch — the caller
/// should fall back to [`compile`]; [`CompileError::Schedule`] if a group
/// cannot be compiled at all.
pub fn compile_from_artifact(
    graph: &Graph,
    gpu: &Gpu,
    options: &CompilerOptions,
    artifact: CompiledArtifact,
) -> Result<CompiledGraph, CompileError> {
    compile_from_artifact_hashed(graph, graph.structural_hash(), gpu, options, artifact)
}

/// [`compile_from_artifact`] with a precomputed [`Graph::structural_hash`]
/// (the hash the artifact is validated against), skipping the rehash on
/// the cache's warm path.
pub fn compile_from_artifact_hashed(
    graph: &Graph,
    graph_hash: u64,
    gpu: &Gpu,
    options: &CompilerOptions,
    artifact: CompiledArtifact,
) -> Result<CompiledGraph, CompileError> {
    // Unattributed (trace id 0), like the cold compile's span.
    let _span = hidet_trace::global().span(hidet_trace::SpanKind::Compile, 0);
    artifact
        .validate_key(
            graph_hash,
            &gpu.spec().fingerprint(),
            options.cache_key_bits(),
        )
        .map_err(|e| CompileError::Artifact(e.to_string()))?;
    // The artifact key pins the graph the cold compile already verified, so
    // the graph-stage verifiers stay off the warm path.
    let (g, groups) = lower_and_partition(graph, VerifyLevel::Off)?;
    if groups.len() != artifact.schedules.len() {
        return Err(CompileError::Artifact(format!(
            "artifact has {} group schedules, graph partitions into {} groups",
            artifact.schedules.len(),
            groups.len()
        )));
    }
    // Recorded schedules crossed a serialization boundary (possibly a
    // hand-edited file): re-prove full legality, not just "fits" — a
    // corrupted/oversized config is rejected with its diagnostics, never
    // fed to kernel generation.
    let verify_as = "memory planning (artifact load)";
    let (plan, _) = generate_and_plan(g, &groups, verify_as, |g, i| {
        let schedule = artifact.schedules[i];
        let diags = check_group_schedule(g, &groups[i], &schedule, gpu, options, i);
        if analysis::has_errors(&diags) {
            let text = analysis::render_text(&diags);
            let e = format!("recorded schedule rejected: {}", text.trim_end());
            return Err(CompileError::Artifact(e));
        }
        Ok(schedule)
    })?;
    Ok(CompiledGraph {
        plan,
        artifact,
        from_artifact: true,
    })
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use hidet_graph::reference::{execute, ValueMap};
    use hidet_graph::{GraphBuilder, Tensor, TensorId};

    fn toy_graph() -> (Graph, TensorId, TensorId) {
        let mut g = GraphBuilder::new("toy");
        let x = g.input("x", &[8, 16]);
        let w = g.constant(Tensor::randn(&[16, 12], 1));
        let b = g.constant(Tensor::randn(&[12], 2));
        let y = g.matmul(x, w);
        let y = g.add(y, b);
        let y = g.relu(y);
        (g.output(y).build(), x, y)
    }

    #[test]
    fn compile_fuses_to_single_kernel() {
        let (graph, _, _) = toy_graph();
        let gpu = Gpu::default();
        let compiled = compile(&graph, &gpu, &CompilerOptions::quick()).unwrap();
        assert_eq!(compiled.num_kernels(), 1);
        assert_eq!(compiled.tuning_seconds(), 0.0);
    }

    #[test]
    fn compiled_graph_matches_reference() {
        let (graph, x, y) = toy_graph();
        let gpu = Gpu::default();
        let compiled = compile(&graph, &gpu, &CompilerOptions::quick()).unwrap();
        let data: Vec<f32> = Tensor::randn(&[8, 16], 3).data().unwrap().to_vec();
        let mut inputs = HashMap::new();
        inputs.insert(x, data.clone());
        let got = compiled.run(&inputs, &gpu).unwrap();
        let mut ref_inputs = ValueMap::new();
        ref_inputs.insert(x, data);
        let expect = execute(&graph, &ref_inputs);
        for (a, b) in got[&y].iter().zip(&expect[&y]) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn tuned_compile_records_cost_and_configs() {
        let (graph, _, _) = toy_graph();
        let gpu = Gpu::default();
        let compiled = compile(&graph, &gpu, &CompilerOptions::tuned()).unwrap();
        assert!(compiled.tuning_seconds() > 0.0);
        assert_eq!(compiled.tuned_configs().len(), 1);
    }

    #[test]
    fn compact_compile_elects_the_smallest_tile_without_trials() {
        let (graph, x, y) = toy_graph();
        let gpu = Gpu::default();
        let compiled = compile(&graph, &gpu, &CompilerOptions::compact()).unwrap();
        let compact = hidet_sched::compact_matmul_config(gpu.spec()).unwrap();
        assert_ne!(compact, hidet_sched::MatmulConfig::default());
        assert_eq!(compiled.artifact().schedules.len(), 1);
        assert_eq!(compiled.artifact().schedules[0].matmul, compact);
        assert_eq!(compiled.tuning_trials(), 0);
        assert!(compiled.tuned_configs().is_empty());

        // The same function as the default tile computes.
        let quick = compile(&graph, &gpu, &CompilerOptions::quick()).unwrap();
        let mut inputs = HashMap::new();
        inputs.insert(x, Tensor::randn(&[8, 16], 3).data().unwrap().to_vec());
        let a = compiled.run(&inputs, &gpu).unwrap();
        let b = quick.run(&inputs, &gpu).unwrap();
        for (a, b) in a[&y].iter().zip(&b[&y]) {
            assert!((a - b).abs() < 1e-4 * (1.0 + b.abs()), "{a} vs {b}");
        }

        // A device nothing in the space fits is a typed error.
        let starved = Gpu::new(hidet_sim::GpuSpec {
            shared_mem_per_block: 1,
            ..hidet_sim::GpuSpec::tiny()
        });
        let err = compile(&graph, &starved, &CompilerOptions::compact()).unwrap_err();
        assert!(err.to_string().contains("no matmul schedule"), "{err}");
    }

    #[test]
    fn the_first_group_that_cannot_be_tuned_names_the_error() {
        // Two matmul problems, both tuned before any group is scheduled and
        // neither fitting the device: the error is the first group's.
        let mut g = GraphBuilder::new("chain");
        let x = g.input("x", &[8, 16]);
        let w1 = g.constant(Tensor::randn(&[16, 12], 1));
        let w2 = g.constant(Tensor::randn(&[12, 20], 2));
        let y = g.matmul(x, w1);
        let y = g.matmul(y, w2);
        let graph = g.output(y).build();
        let starved = Gpu::new(hidet_sim::GpuSpec {
            shared_mem_per_block: 1,
            ..hidet_sim::GpuSpec::tiny()
        });
        let err = compile(&graph, &starved, &CompilerOptions::tuned()).unwrap_err();
        assert!(matches!(err, CompileError::Schedule(_)), "{err}");
        assert!(err.to_string().contains("for 8x12x16 "), "{err}");
    }

    #[test]
    fn tuning_cost_deduplicates_identical_problems() {
        // Two identical matmuls: one tuning task.
        let mut g = GraphBuilder::new("twin");
        let x = g.input("x", &[64, 64]);
        let w1 = g.constant(Tensor::randn(&[64, 64], 1));
        let w2 = g.constant(Tensor::randn(&[64, 64], 2));
        let a = g.matmul(x, w1);
        let b = g.matmul(x, w2);
        let y = g.add(a, b);
        let graph = g.output(y).build();
        let gpu = Gpu::default();
        let compiled = compile(&graph, &gpu, &CompilerOptions::tuned()).unwrap();
        assert_eq!(compiled.tuned_configs().len(), 1);
    }

    #[test]
    fn cache_keys_are_pinned() {
        // The keys name stored artifacts: an option added or dropped must
        // leave every reachable key where it was.
        for (options, bits) in [
            (CompilerOptions::tuned(), 12545),
            (CompilerOptions::quick(), 12544),
            (CompilerOptions::exhaustive(), 1),
            (CompilerOptions::quick().order_stable(), 12552),
            (CompilerOptions::tuned().order_stable(), 12553),
            // The decode engine's options: compact tiles name their own
            // artifacts, apart from a tuned order-stable compile's.
            (CompilerOptions::compact().order_stable(), 12554),
        ] {
            assert_eq!(options.cache_key_bits(), bits, "{options:?}");
        }
    }

    #[test]
    fn options_that_compile_differently_name_different_artifacts() {
        // Every field the key reads, crossed: two options that compare
        // unequal may elect different schedules, so one must never load the
        // other's artifact.
        let mut seen: HashMap<u64, CompilerOptions> = HashMap::new();
        for matmul in [
            MatmulChoice::Default,
            MatmulChoice::Compact,
            MatmulChoice::Tuned,
        ] {
            for order_stable_reductions in [false, true] {
                for measure_top_k in [None, Some(1), Some(DEFAULT_MEASURE_TOP_K)] {
                    let options = CompilerOptions {
                        matmul,
                        order_stable_reductions,
                        measure_top_k,
                    };
                    if let Some(other) = seen.insert(options.cache_key_bits(), options.clone()) {
                        panic!("{options:?} and {other:?} share a key");
                    }
                }
            }
        }
        assert_eq!(seen.len(), 18);
    }

    #[test]
    fn artifact_round_trip_rebuilds_identical_plan_with_zero_trials() {
        let (graph, x, y) = toy_graph();
        let gpu = Gpu::default();
        let opts = CompilerOptions::tuned();
        let fresh = compile(&graph, &gpu, &opts).unwrap();
        assert!(!fresh.from_artifact());
        assert!(fresh.tuning_trials() > 0);

        let artifact = fresh.artifact().clone();
        let json = artifact.to_json();
        let reloaded = crate::artifact::CompiledArtifact::from_json(&json).unwrap();
        let rebuilt = compile_from_artifact(&graph, &gpu, &opts, reloaded).unwrap();
        assert!(rebuilt.from_artifact());
        assert_eq!(rebuilt.tuning_trials(), 0, "artifact rebuild must not tune");
        assert_eq!(rebuilt.tuning_seconds(), 0.0);
        assert_eq!(rebuilt.tuning_trials_saved(), fresh.tuning_trials());
        assert_eq!(fresh.tuning_trials_saved(), 0);
        assert_eq!(rebuilt.tuned_configs(), fresh.tuned_configs());
        assert_eq!(rebuilt.num_kernels(), fresh.num_kernels());
        assert_eq!(rebuilt.cuda_source(), fresh.cuda_source());

        // The rebuilt plan computes the same function.
        let data: Vec<f32> = Tensor::randn(&[8, 16], 9).data().unwrap().to_vec();
        let mut inputs = HashMap::new();
        inputs.insert(x, data);
        let a = fresh.run(&inputs, &gpu).unwrap();
        let b = rebuilt.run(&inputs, &gpu).unwrap();
        assert_eq!(a[&y], b[&y]);
    }

    #[test]
    fn artifact_for_wrong_key_or_device_is_rejected() {
        let (graph, _, _) = toy_graph();
        let gpu = Gpu::default();
        let opts = CompilerOptions::quick();
        let artifact = compile(&graph, &gpu, &opts).unwrap().artifact().clone();

        // Different options bits.
        let stable = CompilerOptions::quick().order_stable();
        let err = compile_from_artifact(&graph, &gpu, &stable, artifact.clone()).unwrap_err();
        assert!(matches!(err, CompileError::Artifact(_)), "{err}");

        // Different device.
        let tiny = Gpu::new(hidet_sim::GpuSpec::tiny());
        let err = compile_from_artifact(&graph, &tiny, &opts, artifact.clone()).unwrap_err();
        assert!(matches!(err, CompileError::Artifact(_)), "{err}");

        // Different graph structure.
        let mut g = GraphBuilder::new("other");
        let x = g.input("x", &[8, 16]);
        let w = g.constant(Tensor::randn(&[16, 4], 7));
        let y = g.matmul(x, w);
        let other = g.output(y).build();
        let err = compile_from_artifact(&other, &gpu, &opts, artifact).unwrap_err();
        assert!(matches!(err, CompileError::Artifact(_)), "{err}");
    }

    #[test]
    fn ill_fitting_artifact_schedule_is_rejected_not_executed() {
        // An artifact whose matmul tile exceeds the device must be rejected
        // by the fit check, not reach kernel generation.
        let (graph, _, _) = toy_graph();
        let gpu = Gpu::default();
        let opts = CompilerOptions::quick();
        let mut artifact = compile(&graph, &gpu, &opts).unwrap().artifact().clone();
        for schedule in &mut artifact.schedules {
            schedule.matmul.block_m = 1 << 20;
        }
        let err = compile_from_artifact(&graph, &gpu, &opts, artifact).unwrap_err();
        assert!(matches!(err, CompileError::Artifact(_)), "{err}");
        assert!(err.to_string().contains("does not fit"), "{err}");
    }

    #[test]
    fn missing_input_reported() {
        let (graph, _, _) = toy_graph();
        let gpu = Gpu::default();
        let compiled = compile(&graph, &gpu, &CompilerOptions::quick()).unwrap();
        let err = compiled.run(&HashMap::new(), &gpu).unwrap_err();
        assert!(matches!(err, CompileError::BadInput(_)), "{err}");
    }

    #[test]
    fn cuda_source_contains_all_kernels() {
        let (graph, _, _) = toy_graph();
        let gpu = Gpu::default();
        let compiled = compile(&graph, &gpu, &CompilerOptions::quick()).unwrap();
        let src = compiled.cuda_source();
        assert!(src.contains("__global__ void"));
        assert!(src.contains("__shared__ float SmemA"));
    }

    #[test]
    fn small_cnn_end_to_end() {
        let mut g = GraphBuilder::new("cnn");
        let x = g.input("x", &[1, 3, 16, 16]);
        let y = g.conv_bn_relu(x, 8, 3, 2, 1);
        let p = g.global_avg_pool(y);
        let out = g.linear(p, 4);
        let graph = g.output(out).build();
        let gpu = Gpu::default();
        let compiled = compile(&graph, &gpu, &CompilerOptions::quick()).unwrap();
        let data: Vec<f32> = Tensor::randn(&[1, 3, 16, 16], 5).data().unwrap().to_vec();
        let mut inputs = HashMap::new();
        inputs.insert(x, data.clone());
        let got = compiled.run(&inputs, &gpu).unwrap();
        let mut ref_inputs = ValueMap::new();
        ref_inputs.insert(x, data);
        let expect = execute(&graph, &ref_inputs);
        for (a, b) in got[&out].iter().zip(&expect[&out]) {
            assert!((a - b).abs() < 1e-2 * (1.0 + b.abs()), "{a} vs {b}");
        }
        // Conv-bn-relu fused into the implicit-GEMM matmul: far fewer kernels
        // than operators.
        assert!(compiled.num_kernels() <= 4, "{}", compiled.num_kernels());
    }

    #[test]
    fn programs_are_lowered_once_and_shared_by_clones() {
        let (graph, x, y) = toy_graph();
        let gpu = Gpu::default();
        let compiled = compile(&graph, &gpu, &CompilerOptions::quick()).unwrap();
        // Nothing is lowered by compiling, and a clone taken before the
        // first launch shares what either of them lowers later.
        assert!(compiled.plan().programs.get().is_none());
        let clone = compiled.plan().clone();
        assert!(clone.programs.get().is_none());
        let programs = clone.programs();
        assert_eq!(programs.len(), compiled.num_kernels());
        assert!(std::ptr::eq(programs, compiled.plan().programs()));
        assert!(std::ptr::eq(programs, compiled.clone().plan().programs()));

        let mut inputs = HashMap::new();
        inputs.insert(x, Tensor::randn(&[8, 16], 3).data().unwrap().to_vec());
        let a = compiled.run(&inputs, &gpu).unwrap();
        let b = clone.run(&inputs, &gpu).unwrap();
        assert_eq!(a[&y], b[&y]);
    }
}
