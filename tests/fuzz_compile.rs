//! Property-based end-to-end fuzzing: random small graphs are compiled with
//! the full Hidet pipeline, executed on the simulated GPU, and compared
//! element-wise against the CPU reference executor.
//!
//! This is the strongest correctness net in the repository: it composes the
//! graph builder, conv lowering, constant folding, fusion partitioning, both
//! schedule templates, rule-based scheduling, post-scheduling fusion, the
//! lowering of task mappings, the simplifier and the interpreter in one shot.

use std::collections::HashMap;
use std::sync::Arc;

use hidet::prelude::*;
use hidet_graph::passes::partition;
use hidet_graph::reference::{self, ValueMap};
use hidet_graph::GraphBuilder;
use hidet_ir::cuda::to_cuda;
use hidet_sched::fusion::GroupDef;
use hidet_sched::{compile_group, GroupSpec};
use proptest::prelude::*;

#[path = "support/fuzz_graphs.rs"]
mod fuzz_graphs;
use fuzz_graphs::{chain, random_graph, step_strategy};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_graphs_compile_and_match_reference(
        rows in 2i64..12,
        cols in prop::sample::select(vec![4i64, 6, 8, 12, 16]),
        steps in prop::collection::vec(step_strategy(), 1..6),
        seed in 0u64..1000,
    ) {
        let (graph, x) = random_graph("fuzz", rows, cols, &steps, seed);

        let gpu = Gpu::default();
        let compiled = hidet::compile(&graph, &gpu, &CompilerOptions::quick())
            .expect("random graph compiles");
        let data = Tensor::randn(&[rows, cols], seed ^ 0xF00D).data().unwrap().to_vec();
        let mut inputs = HashMap::new();
        inputs.insert(x, data.clone());
        let got = compiled.run(&inputs, &gpu).expect("random graph runs");

        let mut ref_inputs = ValueMap::new();
        ref_inputs.insert(x, data);
        let expect = reference::execute(&graph, &ref_inputs);
        let out = graph.outputs()[0];
        prop_assert_eq!(got[&out].len(), expect[&out].len());
        for (i, (a, b)) in got[&out].iter().zip(&expect[&out]).enumerate() {
            prop_assert!(
                (a - b).abs() < 2e-2 * (1.0 + b.abs()),
                "element {} differs: {} vs {} (steps {:?})",
                i, a, b, steps
            );
        }

        // Order-stable reductions accumulate in the reference's index order,
        // so that compile matches it bit for bit.
        let stable = hidet::compile(&graph, &gpu, &CompilerOptions::quick().order_stable())
            .expect("random graph compiles order-stable");
        let got = stable.run(&inputs, &gpu).expect("order-stable graph runs");
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(
            bits(&got[&out]), bits(&expect[&out]),
            "order-stable output differs from the reference (steps {:?})", steps
        );
    }

    /// Memory-planned execution (arena offsets from the liveness planner,
    /// reused `Workspace`) must be **bit-identical** to the unplanned
    /// executor on arbitrary graphs — not merely close: both paths run the
    /// same kernels in the same order, only the buffer placement differs.
    #[test]
    fn planned_execution_is_bit_identical_to_unplanned(
        rows in 2i64..12,
        cols in prop::sample::select(vec![4i64, 6, 8, 12, 16]),
        steps in prop::collection::vec(step_strategy(), 1..6),
        seed in 0u64..1000,
    ) {
        let (graph, x) = random_graph("fuzz_planned", rows, cols, &steps, seed);

        let gpu = Gpu::default();
        let compiled = hidet::compile(&graph, &gpu, &CompilerOptions::quick())
            .expect("random graph compiles");
        let plan = compiled.plan().memory_plan();
        prop_assert_eq!(plan.verify("fuzz_planned"), vec![]);
        prop_assert!(plan.peak_bytes() <= plan.unplanned_bytes());

        let data = Tensor::randn(&[rows, cols], seed ^ 0xBEEF).data().unwrap().to_vec();
        let mut inputs = HashMap::new();
        inputs.insert(x, data);
        let unplanned = compiled.run(&inputs, &gpu).expect("unplanned run");
        let mut ws = hidet::Workspace::new();
        // Two planned runs through one workspace: cold bind, then the
        // steady-state (zero-allocation) path — both must match exactly.
        for round in 0..2 {
            let planned = compiled.run_with(&inputs, &gpu, &mut ws).expect("planned run");
            for &out in graph.outputs() {
                prop_assert_eq!(
                    &unplanned[&out], &planned[&out],
                    "output t{} differs on round {} (steps {:?})", out.0, round, &steps
                );
            }
        }
    }

    /// Groups with equal specs share one generated definition, and sharing
    /// it changes nothing: `branches` copies of one random chain off the
    /// same input, each with its own constants, summed. Every group of the
    /// plan is what `compile_group` makes of it alone, the groups of one
    /// definition run one `KernelDef`, the plan lowers each definition once
    /// — two kernels share a program exactly when they share a definition,
    /// in the plan and in a clone of it — and the plan matches the
    /// reference.
    #[test]
    fn repeated_blocks_share_definitions_and_match_reference(
        rows in 2i64..12,
        cols in prop::sample::select(vec![4i64, 6, 8, 12, 16]),
        steps in prop::collection::vec(step_strategy(), 1..5),
        branches in 2u64..5,
        seed in 0u64..1000,
    ) {
        let mut g = GraphBuilder::new("fuzz_repeated");
        let x = g.input("x", &[rows, cols]);
        let outs: Vec<TensorId> = (0..branches)
            .map(|b| chain(&mut g, x, &steps, seed + 100 * b))
            .collect();
        let y = outs[1..].iter().fold(outs[0], |sum, &t| g.add(sum, t));
        let graph = g.output(y).build();

        let gpu = Gpu::default();
        let compiled = hidet::compile(&graph, &gpu, &CompilerOptions::quick())
            .expect("repeated graph compiles");
        let plan = compiled.graph();
        let groups = partition(plan);
        prop_assert_eq!(groups.len(), compiled.groups().len());
        let schedules = &compiled.artifact().schedules;
        let mut first: HashMap<GroupDef, usize> = HashMap::new();
        for (i, (group, got)) in groups.iter().zip(compiled.groups()).enumerate() {
            let fresh = compile_group(plan, group, &schedules[i]).expect("group compiles");
            prop_assert_eq!(got.difference(&fresh), None, "group {} (steps {:?})", i, &steps);
            for (a, b) in got.kernels.iter().zip(&fresh.kernels) {
                prop_assert_eq!(to_cuda(a), to_cuda(b));
            }
            let s = *first.entry(GroupSpec::of(plan, group, &schedules[i]).def).or_insert(i);
            let source = &compiled.groups()[s].kernels;
            prop_assert!(
                (got.kernels.iter().zip(source)).all(|(a, b)| Arc::ptr_eq(a.definition(), b.definition())),
                "group {} does not run group {}'s definitions (steps {:?})", i, s, &steps
            );
        }
        let clone = compiled.plan().clone();
        let programs = compiled.plan().programs();
        let kernels: Vec<_> = compiled.groups().iter().flat_map(|g| &g.kernels).collect();
        prop_assert_eq!(programs.len(), kernels.len());
        for (a, (ka, pa)) in kernels.iter().zip(programs).enumerate() {
            for (kb, pb) in kernels.iter().zip(programs).skip(a + 1) {
                prop_assert_eq!(
                    Arc::ptr_eq(pa, pb),
                    Arc::ptr_eq(ka.definition(), kb.definition()),
                    "{} and {} (steps {:?})", ka.name(), kb.name(), &steps
                );
            }
        }
        prop_assert!(clone.programs().iter().zip(programs).all(|(a, b)| Arc::ptr_eq(a, b)));

        let data = Tensor::randn(&[rows, cols], seed ^ 0xCAFE).data().unwrap().to_vec();
        let mut inputs = HashMap::new();
        inputs.insert(x, data.clone());
        let got = compiled.run(&inputs, &gpu).expect("repeated graph runs");
        let mut ref_inputs = ValueMap::new();
        ref_inputs.insert(x, data);
        let expect = reference::execute(&graph, &ref_inputs);
        prop_assert_eq!(got[&y].len(), expect[&y].len());
        for (i, (a, b)) in got[&y].iter().zip(&expect[&y]).enumerate() {
            prop_assert!(
                (a - b).abs() < 2e-2 * (1.0 + b.abs()),
                "element {} differs: {} vs {} (steps {:?})",
                i, a, b, steps
            );
        }
    }
}
