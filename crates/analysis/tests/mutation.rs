//! Mutation-style property tests for the whole checker stack: random
//! single-edit corruptions of graphs, partitions, schedules and memory
//! plans must each be flagged by **exactly** the expected HA0xx rule, and
//! the untouched originals must verify completely clean.
//!
//! Each test follows the same scheme: build a well-formed subject, prove it
//! clean, apply one seeded defect whose parameters (which op, which field,
//! which slot, by how much) are drawn by proptest, and assert that every
//! resulting diagnostic carries the one rule the defect was designed to
//! trip. Corruption sites are chosen so no *other* rule can fire — e.g. the
//! duplicate-producer edit targets an operator whose output is not a graph
//! output (otherwise HA006 would cascade), and the mask-shape edit targets
//! an input with no consumers (otherwise HA004 would cascade).

use hidet_analysis::{
    check_lanes, check_plan, check_schedule, verify_graph, verify_partition, Diagnostic, PlanSlot,
    Rule, VerifyLevel,
};
use hidet_graph::models;
use hidet_graph::passes::{constant_fold, lower_convs, partition};
use hidet_graph::{Graph, GraphBuilder, OpId, Tensor, TensorId};
use hidet_ir::DType;
use hidet_sched::fusion::GroupSchedule;
use hidet_sched::space::{matmul_space, MatmulConfig, ReduceConfig};
use hidet_sim::GpuSpec;
use proptest::prelude::*;

/// Every diagnostic fired, and every one carries `rule`.
fn assert_only(diags: &[Diagnostic], rule: Rule) {
    assert!(!diags.is_empty(), "expected {rule:?} to fire, got nothing");
    assert!(
        diags.iter().all(|d| d.rule == rule),
        "expected only {rule:?}, got {diags:?}"
    );
}

/// A chain MLP: `depth` x (matmul -> relu), so `2 * depth` operators where
/// operator `j + 1` consumes operator `j`'s output.
fn toy_mlp(depth: usize) -> Graph {
    let mut g = GraphBuilder::new("toy_mlp");
    let x = g.input("x", &[8, 16]);
    let mut y = x;
    for i in 0..depth {
        let w = g.constant(Tensor::randn(&[16, 16], i as u64 + 1));
        y = g.matmul(y, w);
        y = g.relu(y);
    }
    g.output(y).build()
}

/// A minimal KV-family graph: two cache-append streams plus an additive
/// mask input that nothing consumes (so corrupting the mask's shape cannot
/// cascade into shape-inference diagnostics).
fn toy_kv(rows: i64, past: i64, chunk: i64, head: i64) -> Graph {
    let mut g = GraphBuilder::new("toy_kv");
    let pk = g.input("past_k", &[rows, past, head]);
    let pv = g.input("past_v", &[rows, past, head]);
    let x = g.input("x", &[rows * chunk, head]);
    let _mask = g.input("mask", &[rows, chunk, past + chunk]);
    let fresh = g.reshape(x, &[rows, chunk, head]);
    let nk = g.concat(&[pk, fresh], 1);
    let nv = g.concat(&[pv, fresh], 1);
    g.output(nk).output(nv).build()
}

/// A sound sequential memory plan: byte-disjoint slots with lifetimes that
/// overlap pairwise between neighbours (birth `i`, death `i + 1`), so a
/// single offset edit is enough to create a real aliasing violation.
fn sound_plan(lens: &[usize]) -> (Vec<PlanSlot>, usize) {
    let mut slots = Vec::new();
    let mut offset = 0;
    for (i, &len) in lens.iter().enumerate() {
        slots.push(PlanSlot {
            name: format!("buf{i}"),
            offset,
            len,
            birth: i,
            death: i + 1,
        });
        offset += len;
    }
    (slots, offset)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // ---------------------------------------------------------------- clean

    /// Untouched toys — the corruption substrate itself — verify clean at
    /// every level, across the whole parameter range the mutations draw
    /// from. A false positive here would invalidate every test below.
    #[test]
    fn untouched_toys_verify_clean(
        depth in 1usize..5,
        rows in 1i64..4,
        past in 1i64..9,
        chunk in 1i64..5,
        head in prop::sample::select(vec![8i64, 16, 32]),
    ) {
        let g = toy_mlp(depth);
        prop_assert_eq!(verify_graph(&g, VerifyLevel::Deep), vec![]);
        prop_assert_eq!(verify_partition(&g, &partition(&g)), vec![]);
        let kv = toy_kv(rows, past, chunk, head);
        prop_assert_eq!(verify_graph(&kv, VerifyLevel::Deep), vec![]);
        prop_assert_eq!(verify_partition(&kv, &partition(&kv)), vec![]);
    }

    // ------------------------------------------------- structural (cheap)

    /// HA001: rotating the operator list leaves every id intact but puts at
    /// least one consumer before its producer.
    #[test]
    fn rotated_ops_fire_only_topological_order(depth in 1usize..5, rot in 1usize..16) {
        let (name, tensors, mut ops, inputs, outputs) = toy_mlp(depth).into_raw_parts();
        let k = 1 + rot % (ops.len() - 1);
        ops.rotate_left(k);
        let bad = Graph::from_raw_parts(name, tensors, ops, inputs, outputs);
        assert_only(&verify_graph(&bad, VerifyLevel::Cheap), Rule::TopologicalOrder);
    }

    /// HA002: an out-of-range id in either an input slot or an output slot.
    #[test]
    fn dangling_ids_fire_only_dangling_id(
        depth in 1usize..5,
        op_pick in 0usize..64,
        slot_pick in 0usize..4,
        extra in 0usize..7,
        corrupt_output in prop::sample::select(vec![false, true]),
    ) {
        let (name, tensors, mut ops, inputs, outputs) = toy_mlp(depth).into_raw_parts();
        let bogus = TensorId(tensors.len() + extra);
        if corrupt_output {
            // Not the last op: its output is the graph output, and stealing
            // that would additionally fire HA006.
            let j = op_pick % (ops.len() - 1);
            ops[j].output = bogus;
        } else {
            let j = op_pick % ops.len();
            let s = slot_pick % ops[j].inputs.len();
            ops[j].inputs[s] = bogus;
        }
        let bad = Graph::from_raw_parts(name, tensors, ops, inputs, outputs);
        assert_only(&verify_graph(&bad, VerifyLevel::Cheap), Rule::DanglingId);
    }

    /// HA003: a second operator claims an existing tensor. The victim is
    /// never the graph output (HA006 would cascade) and never the direct
    /// predecessor's output (HA005 would fire instead).
    #[test]
    fn duplicate_producers_fire_only_duplicate_producer(
        depth in 2usize..5,
        j_pick in 0usize..64,
        i_pick in 0usize..64,
    ) {
        let (name, tensors, mut ops, inputs, outputs) = toy_mlp(depth).into_raw_parts();
        let j = 2 + j_pick % (ops.len() - 3); // j in 2..=len-2
        let i = i_pick % (j - 1); // i <= j - 2
        ops[j].output = ops[i].output;
        let bad = Graph::from_raw_parts(name, tensors, ops, inputs, outputs);
        assert_only(&verify_graph(&bad, VerifyLevel::Cheap), Rule::DuplicateProducer);
    }

    /// HA005: an operator consuming its own output reports a self-cycle,
    /// not an order violation.
    #[test]
    fn self_cycles_fire_only_self_cycle(
        depth in 1usize..5,
        op_pick in 0usize..64,
        slot_pick in 0usize..4,
    ) {
        let (name, tensors, mut ops, inputs, outputs) = toy_mlp(depth).into_raw_parts();
        let j = op_pick % ops.len();
        let s = slot_pick % ops[j].inputs.len();
        ops[j].inputs[s] = ops[j].output;
        let bad = Graph::from_raw_parts(name, tensors, ops, inputs, outputs);
        assert_only(&verify_graph(&bad, VerifyLevel::Cheap), Rule::SelfCycle);
    }

    /// HA006: a declared output nothing produces.
    #[test]
    fn phantom_outputs_fire_only_unproduced_output(depth in 1usize..5, dim in 1i64..32) {
        let (name, mut tensors, ops, inputs, mut outputs) = toy_mlp(depth).into_raw_parts();
        tensors.push(Tensor::symbolic(&[dim], DType::F32));
        outputs.push(TensorId(tensors.len() - 1));
        let bad = Graph::from_raw_parts(name, tensors, ops, inputs, outputs);
        assert_only(&verify_graph(&bad, VerifyLevel::Cheap), Rule::UnproducedOutput);
    }

    /// HA009: all three ways an input list goes wrong — a duplicate entry,
    /// a constant, or a produced tensor.
    #[test]
    fn bad_graph_inputs_fire_only_bad_graph_input(
        depth in 1usize..5,
        which in 0usize..3,
        op_pick in 0usize..64,
    ) {
        let (name, tensors, ops, mut inputs, outputs) = toy_mlp(depth).into_raw_parts();
        let extra = match which {
            0 => inputs[0],
            1 => {
                let c = tensors.iter().position(|t| t.is_const()).unwrap();
                TensorId(c)
            }
            _ => ops[op_pick % ops.len()].output,
        };
        inputs.push(extra);
        let bad = Graph::from_raw_parts(name, tensors, ops, inputs, outputs);
        assert_only(&verify_graph(&bad, VerifyLevel::Cheap), Rule::BadGraphInput);
    }

    // --------------------------------------------------- shape/KV (deep)

    /// HA004: a produced tensor recording the wrong shape is invisible to
    /// the cheap pass and caught by deep re-inference. Consumers of the
    /// corrupted tensor may mis-infer too — every cascade hit must still be
    /// HA004, nothing else.
    #[test]
    fn wrong_shapes_fire_only_shape_mismatch(
        depth in 1usize..5,
        op_pick in 0usize..64,
        dim_pick in 0usize..4,
        factor in 2i64..7,
    ) {
        let (name, mut tensors, ops, inputs, outputs) = toy_mlp(depth).into_raw_parts();
        let out = ops[op_pick % ops.len()].output;
        let mut shape = tensors[out.0].shape().to_vec();
        let d = dim_pick % shape.len();
        shape[d] *= factor;
        tensors[out.0] = Tensor::symbolic(&shape, DType::F32);
        let bad = Graph::from_raw_parts(name, tensors, ops, inputs, outputs);
        prop_assert_eq!(verify_graph(&bad, VerifyLevel::Cheap), vec![]);
        assert_only(&verify_graph(&bad, VerifyLevel::Deep), Rule::ShapeMismatch);
    }

    /// HA007: listing a cache output twice makes the stream count odd
    /// without disturbing shapes or the mask, so pairing is the only rule
    /// that can (and must) fire.
    #[test]
    fn odd_kv_streams_fire_only_kv_pairing(
        rows in 1i64..4,
        past in 1i64..9,
        chunk in 1i64..5,
        head in prop::sample::select(vec![8i64, 16, 32]),
        out_pick in 0usize..2,
    ) {
        let (name, tensors, ops, inputs, mut outputs) =
            toy_kv(rows, past, chunk, head).into_raw_parts();
        outputs.push(outputs[out_pick]);
        let bad = Graph::from_raw_parts(name, tensors, ops, inputs, outputs);
        prop_assert_eq!(verify_graph(&bad, VerifyLevel::Cheap), vec![]);
        assert_only(&verify_graph(&bad, VerifyLevel::Deep), Rule::KvPairing);
    }

    /// HA008: bumping one mask dimension keeps it the unique rank-3
    /// non-cache input but breaks `[rows, chunk, past + chunk]`. The mask
    /// has no consumers, so no HA004 cascade is possible.
    #[test]
    fn wrong_mask_shapes_fire_only_mask_shape(
        rows in 1i64..4,
        past in 1i64..9,
        chunk in 1i64..5,
        head in prop::sample::select(vec![8i64, 16, 32]),
        dim_pick in 0usize..3,
        bump in 1i64..5,
    ) {
        let (name, mut tensors, ops, inputs, outputs) =
            toy_kv(rows, past, chunk, head).into_raw_parts();
        let mask = inputs[3];
        let mut shape = tensors[mask.0].shape().to_vec();
        shape[dim_pick] += bump;
        tensors[mask.0] = Tensor::symbolic(&shape, DType::F32);
        let bad = Graph::from_raw_parts(name, tensors, ops, inputs, outputs);
        prop_assert_eq!(verify_graph(&bad, VerifyLevel::Cheap), vec![]);
        assert_only(&verify_graph(&bad, VerifyLevel::Deep), Rule::MaskShape);
    }

    // ----------------------------------------------------------- partition

    /// HA010: every way a partition stops covering the graph exactly once.
    #[test]
    fn partition_corruptions_fire_only_partition_coverage(
        depth in 2usize..5,
        which in 0usize..5,
        group_pick in 0usize..64,
        extra in 0usize..7,
    ) {
        let g = toy_mlp(depth);
        let mut groups = partition(&g);
        prop_assert_eq!(verify_partition(&g, &groups), vec![]);
        let gi = group_pick % groups.len();
        match which {
            0 => {
                groups.remove(gi); // members now uncovered
            }
            1 => {
                let dup = groups[gi].clone(); // double ownership
                groups.push(dup);
            }
            2 => groups[gi].ops.clear(), // empty group (+ uncovered members)
            3 => {
                // Non-increasing members; singleton groups get an
                // out-of-range member instead so the edit always bites.
                if groups[gi].ops.len() >= 2 {
                    groups[gi].ops.reverse();
                } else {
                    groups[gi].ops.push(OpId(g.ops().len() + extra));
                }
            }
            _ => {
                let n = g.ops().len();
                groups[gi].ops.push(OpId(n + extra)); // out-of-range member
            }
        }
        assert_only(&verify_partition(&g, &groups), Rule::PartitionCoverage);
    }

    // ----------------------------------------------------------- schedule

    /// HA020/HA023/HA024 on a randomly elected (provably clean) base
    /// config: each single-field corruption trips exactly its own rule.
    #[test]
    fn schedule_corruptions_fire_their_own_rule(
        cfg_pick in 0usize..4096,
        field in 0usize..8,
        bad_split in prop_oneof![Just(0i64), Just(-3i64)],
        stable_split in 2i64..9,
        bad_tpr in prop::sample::select(vec![3i64, 5, 48, 2048]),
    ) {
        let spec = GpuSpec::rtx3090();
        let space = matmul_space(&spec);
        let base = GroupSchedule {
            matmul: space[cfg_pick % space.len()],
            ..GroupSchedule::default()
        };
        prop_assert_eq!(check_schedule(&base, &spec, true, false, "t"), vec![]);

        // HA020: any tile field zeroed out.
        let mut s = base;
        match field {
            0 => s.matmul.block_m = 0,
            1 => s.matmul.block_n = 0,
            2 => s.matmul.block_k = 0,
            3 => s.matmul.warps_m = 0,
            4 => s.matmul.warps_n = 0,
            5 => s.matmul.thread_m = 0,
            6 => s.matmul.thread_n = 0,
            _ => s.matmul.stages = 0,
        }
        assert_only(&check_schedule(&s, &spec, true, false, "t"), Rule::ScheduleStructure);

        // HA023: split_k below 1 is illegal everywhere.
        let mut s = base;
        s.matmul.split_k = bad_split;
        assert_only(&check_schedule(&s, &spec, true, false, "t"), Rule::SplitKIllegal);

        // HA023: any parallel K split under order-stable reductions.
        let mut s = base;
        s.matmul.split_k = stable_split;
        assert_only(&check_schedule(&s, &spec, true, true, "t"), Rule::SplitKIllegal);

        // HA024: threads_per_row not a power of two dividing block_threads.
        let mut s = base;
        s.reduce = ReduceConfig { threads_per_row: bad_tpr, block_threads: 256 };
        assert_only(&check_schedule(&s, &spec, true, false, "t"), Rule::ReduceConfigInvalid);

        // HA024: tree reduction under order-stable reductions (split_k
        // pinned to 1 so the reduce rule is the only one in play).
        let mut s = base;
        s.matmul.split_k = 1;
        s.reduce = ReduceConfig { threads_per_row: 32, block_threads: 256 };
        assert_only(&check_schedule(&s, &spec, true, true, "t"), Rule::ReduceConfigInvalid);
    }

    // --------------------------------------------------------------- plan

    /// HA030..HA033 on a randomly shaped (provably clean) sequential plan:
    /// one field edit per rule.
    #[test]
    fn plan_corruptions_fire_their_own_rule(
        lens in proptest::collection::vec(1usize..64, 2..6),
        which in 0usize..4,
        slot_pick in 0usize..64,
        grow in 1usize..32,
    ) {
        let (mut slots, arena) = sound_plan(&lens);
        prop_assert_eq!(check_plan(&slots, arena, "plan"), vec![]);
        let expected = match which {
            0 => {
                // Alias: neighbours' lifetimes already overlap; moving one
                // onto the other's bytes creates exactly one live overlap.
                let a = slot_pick % (slots.len() - 1);
                slots[a + 1].offset = slots[a].offset;
                Rule::PlanAlias
            }
            1 => {
                // Out of arena: growing the last slot runs off the end
                // without touching any other slot's bytes.
                let last = slots.len() - 1;
                slots[last].len = arena + grow;
                Rule::PlanOutOfArena
            }
            2 => {
                let j = slot_pick % slots.len();
                slots[j].birth = slots[j].death + grow;
                Rule::PlanBadInterval
            }
            _ => {
                let j = slot_pick % (slots.len() - 1);
                slots[j + 1].name = slots[j].name.clone();
                Rule::PlanDuplicateName
            }
        };
        assert_only(&check_plan(&slots, arena, "plan"), expected);
    }
}

// ------------------------------------------------------- lane commutativity

/// What is wrong with a [`tile_kernel`].
#[derive(Debug, Clone, Copy, PartialEq)]
enum Defect {
    None,
    /// Two threads write one element of the output.
    OverlappingWriteBack,
    /// The barrier between the shared-memory fill and its use is gone.
    MissingBarrier,
    /// A parallel-k reduction whose threads accumulate into one output
    /// element without an atomic.
    SharedAccumulator,
}

/// A miniature of the matmul template's skeleton, `threads` wide: fill a
/// shared tile, barrier, every thread reads its neighbour's element, then
/// the write-back.
fn tile_kernel(threads: i64, defect: Defect) -> hidet_ir::Kernel {
    use hidet_ir::prelude::*;
    let mut kb = KernelBuilder::new("tile", 2, threads);
    let x = kb.param("X", DType::F32, &[2, threads]);
    let y = kb.param("Y", DType::F32, &[2, threads]);
    let s = kb.shared("S", DType::F32, &[threads]);
    let acc = kb.local("Acc", DType::F32, &[1]);
    let t = thread_idx;
    kb.push(store(&s, vec![t()], load(&x, vec![block_idx(), t()])));
    if defect != Defect::MissingBarrier {
        kb.push(sync_threads());
    }
    let neighbour = load(&s, vec![(t() + 1) % threads]);
    kb.push(store(&acc, vec![c(0)], neighbour * 2.0f32));
    let value = load(&acc, vec![c(0)]);
    kb.push(match defect {
        Defect::OverlappingWriteBack => store(&y, vec![block_idx(), t() / 2], value),
        Defect::SharedAccumulator => {
            let to = vec![block_idx(), t() % 4];
            store(&y, to.clone(), load(&y, to) + value)
        }
        _ => store(&y, vec![block_idx(), t()], value),
    });
    kb.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// HA040: the sound kernel runs every range wide and reports nothing;
    /// each defect makes two threads meet — in the buffer it is about — and
    /// flips that range's verdict to an error naming them.
    #[test]
    fn racing_tile_kernels_fire_only_lane_overlap(threads in prop::sample::select(vec![8i64, 32, 64])) {
        let lanes = |defect| {
            let kernel = tile_kernel(threads, defect);
            check_lanes(&kernel, &hidet_sim::Program::lower(&kernel), "t")
        };
        let sound = hidet_sim::Program::lower(&tile_kernel(threads, Defect::None));
        prop_assert_eq!(lanes(Defect::None), vec![]);
        prop_assert!(sound.ranges().iter().all(|r| r.verdict == hidet_sim::Verdict::Wide));
        let defects = [
            (Defect::OverlappingWriteBack, "Y["),
            (Defect::MissingBarrier, "S["),
            (Defect::SharedAccumulator, "Y["),
        ];
        for (defect, buffer) in defects {
            let diags = lanes(defect);
            assert_only(&diags, Rule::LaneOverlap);
            prop_assert_eq!(diags.len(), 1, "{:?}: {:?}", defect, diags);
            prop_assert!(hidet_analysis::has_errors(&diags));
            prop_assert!(diags[0].message.contains(buffer), "{:?}: {}", defect, diags[0].message);
        }
    }
}

/// HA041 and HA042 are advisory: a store through an index the lowering
/// cannot take apart, and a range that can fault, run per thread and say so.
#[test]
fn unproven_and_faulting_ranges_are_warnings() {
    use hidet_ir::prelude::*;
    let lanes = |build: &dyn Fn(&BufferRef, &BufferRef) -> Stmt| {
        let mut kb = KernelBuilder::new("k", 1, 8);
        let x = kb.param("X", DType::F32, &[8]);
        let y = kb.param("Y", DType::F32, &[8]);
        kb.push(build(&x, &y));
        let kernel = kb.build();
        check_lanes(&kernel, &hidet_sim::Program::lower(&kernel), "t")
    };
    // `(k * k + t) % 8` stays in bounds, and the threads do stay apart —
    // but a remainder of a sum is no sum of a lane part and a block part.
    let diags = lanes(&|_, y| {
        for_range("k", 3, |k| {
            let at = (k.clone() * k + thread_idx()) % 8;
            seq(vec![store(y, vec![at], fconst(1.0)), sync_threads()])
        })
    });
    assert!(!hidet_analysis::has_errors(&diags), "{diags:?}");
    assert_only(&diags, Rule::LaneFootprintUnproven);
    // An index only a check keeps in bounds.
    let diags = lanes(&|x, y| store(y, vec![thread_idx()], load(x, vec![thread_idx() + 1])));
    assert!(!hidet_analysis::has_errors(&diags), "{diags:?}");
    assert_only(&diags, Rule::LanePerThread);
    assert!(diags[0].message.contains("can-fault"), "{diags:?}");
}

/// HA021/HA022: the two resource-overflow rules, each from a schedule that
/// passes every check that precedes it (deterministic witnesses — the
/// configurations are the documented boundary cases for the RTX 3090 spec).
#[test]
fn overflow_corruptions_fire_their_own_rule() {
    let spec = GpuSpec::rtx3090();

    // Structurally valid, shared tile far past the per-block limit.
    let mut s = GroupSchedule::default();
    s.matmul.block_m = 1 << 20;
    assert_only(
        &check_schedule(&s, &spec, true, false, "t"),
        Rule::SharedMemOverflow,
    );

    // Structurally valid, smem fits, registers blow the SM file:
    // 2340 regs/thread x 32 threads = 74880 > 65536.
    let s = GroupSchedule {
        matmul: MatmulConfig {
            block_m: 2048,
            block_n: 32,
            block_k: 2,
            warps_m: 1,
            warps_n: 1,
            thread_m: 4,
            thread_n: 4,
            stages: 1,
            split_k: 1,
        },
        ..GroupSchedule::default()
    };
    assert_only(
        &check_schedule(&s, &spec, true, false, "t"),
        Rule::RegisterOverflow,
    );
}

/// The untouched model zoo slice the mutations never touch: real decode,
/// prefill and vision graphs come out of the standard pass pipeline with
/// zero diagnostics (the full zoo sweep lives in the `verify_sweep` bench).
#[test]
fn untouched_zoo_slice_is_clean() {
    let graphs = [
        models::transformer_decode_step("tiny_decode", 1, 8, 2, 32, 2, 16),
        models::transformer_prefill("tiny_prefill", 4, 8, 2, 32, 2, 16),
        models::gpt2_decode_step(2, 16),
        models::mobilenet_v2(1),
    ];
    for mut g in graphs {
        lower_convs(&mut g);
        assert_eq!(verify_graph(&g, VerifyLevel::Deep), vec![], "{}", g.name());
        constant_fold(&mut g);
        assert_eq!(verify_graph(&g, VerifyLevel::Deep), vec![], "{}", g.name());
        assert_eq!(verify_partition(&g, &partition(&g)), vec![], "{}", g.name());
    }
}
