//! Differential test of the flat `hidet_sim::Program` executor against the
//! tree-walking interpreter it replaced (`support/walker.rs`, kept as the
//! test-only differential oracle).
//!
//! Three contracts:
//!
//! * **bit-identical memory** — every kernel of the fuzz suite's random
//!   graphs, of the decode step graph, of a prefill chunk graph and of the
//!   tuned batch-8 `head` / `cnn_block` models leaves every device buffer
//!   equal by `f32::to_bits` on both interpreters;
//! * **identical faults** — a kernel that faults returns the same
//!   `SimError` variant and payload from both, and a kernel whose fault sits
//!   in an untaken branch or a zero-trip loop runs clean on both (faults are
//!   raised when reached, never at lowering time) — and a program shared by
//!   the kernels of one definition names, in each fault, the kernel that
//!   launched it;
//! * **name-free lowering** — every kernel the plans above lower gives the
//!   same program under fresh names, and it is the one its plan shares
//!   among the kernels of its definition.

use hidet::prelude::*;
use hidet_graph::GraphBuilder;
use hidet_ir::prelude::*;
use hidet_sim::{DeviceMemory, Program, SimError};
use proptest::prelude::*;

#[path = "support/fuzz_graphs.rs"]
mod fuzz_graphs;
#[path = "support/walker.rs"]
mod walker;

// ---- bit-identical memory --------------------------------------------------

/// Deterministic values in `[-1, 1)`.
fn seeded(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u64 << 23) as f32 - 1.0
        })
        .collect()
}

fn assert_same_memory(walker: &DeviceMemory, program: &DeviceMemory, after: &str) {
    let mut names: Vec<&str> = walker.buffer_names().collect();
    names.sort_unstable();
    let mut other: Vec<&str> = program.buffer_names().collect();
    other.sort_unstable();
    assert_eq!(names, other, "buffer sets differ after {after}");
    for name in names {
        let (a, b) = (walker.read(name), program.read(name));
        assert_eq!(a.len(), b.len(), "{name} after {after}");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{name}[{i}] after {after}: walker {x} vs program {y}"
            );
        }
    }
}

/// Every kernel of `plan` with its program, in launch order.
fn lowered(plan: &CompilePlan) -> impl Iterator<Item = (&Kernel, &Program)> {
    let kernels = plan.groups().iter().flat_map(|g| &g.kernels);
    kernels.zip(plan.programs().iter().map(|p| &**p))
}

/// Lowering reads no name: `kernel` lowers to `program`, the one its plan
/// shares among the kernels of its definition, and so does `kernel` under
/// fresh names for itself and every parameter.
fn assert_lowers_without_names(kernel: &Kernel, program: &Program) {
    let fresh: Vec<String> = (0..kernel.params().len())
        .map(|i| format!("fresh_{i}"))
        .collect();
    let shared = format!("{program:?}");
    assert_eq!(
        format!("{:?}", Program::lower(kernel)),
        shared,
        "{}",
        kernel.name()
    );
    let renamed = kernel.renamed("fresh", &fresh);
    assert_eq!(
        format!("{:?}", Program::lower(&renamed)),
        shared,
        "{} renamed",
        kernel.name()
    );
}

/// Runs `graph`'s compiled plan kernel by kernel on both interpreters —
/// the walker on the kernels, the executor on the plan's cached programs —
/// from identical seeded memory, comparing all of memory after every launch.
fn assert_plan_is_bit_identical(graph: &Graph, options: &CompilerOptions, seed: u64) {
    let gpu = Gpu::default();
    let compiled = hidet::compile(graph, &gpu, options).expect("graph compiles");
    let plan = compiled.plan();
    let g = plan.graph();
    let mut walker_mem = DeviceMemory::new();
    for idx in 0..g.num_tensors() {
        if let Some(data) = g.tensor(TensorId(idx)).data() {
            walker_mem.alloc(&format!("t{idx}"), data);
        }
    }
    for (i, &t) in g.inputs().iter().enumerate() {
        let data = seeded(g.tensor(t).numel() as usize, seed + i as u64);
        walker_mem.alloc(&format!("t{}", t.0), &data);
    }
    let mut program_mem = walker_mem.clone();

    let mut programs = plan.programs().iter();
    for group in plan.groups() {
        let output = (
            format!("t{}", group.output.0),
            g.tensor(group.output).numel() as usize,
        );
        for (name, len) in std::iter::once(&output).chain(&group.scratch) {
            walker_mem.alloc_zeroed(name, *len);
            program_mem.alloc_zeroed(name, *len);
        }
        for kernel in &group.kernels {
            let program = programs.next().expect("one program per kernel");
            assert_lowers_without_names(kernel, program);
            walker::run_kernel(kernel, &mut walker_mem, gpu.spec()).expect("walker runs");
            let buffers = program.resolve(kernel, &program_mem);
            gpu.launch(program, kernel, &buffers, &mut program_mem)
                .expect("program runs");
            assert_same_memory(&walker_mem, &program_mem, kernel.name());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The random graphs of `tests/fuzz_compile.rs`, same generator.
    #[test]
    fn fuzz_graph_kernels_are_bit_identical(
        rows in 2i64..12,
        cols in prop::sample::select(vec![4i64, 6, 8, 12, 16]),
        steps in prop::collection::vec(fuzz_graphs::step_strategy(), 1..6),
        seed in 0u64..1000,
    ) {
        let (graph, _) = fuzz_graphs::random_graph("fuzz_diff", rows, cols, &steps, seed);
        assert_plan_is_bit_identical(&graph, &CompilerOptions::quick(), seed);
    }
}

/// The serving stack's own graphs: a decode step and a prefill chunk of the
/// same small transformer, compiled the way the decode engine compiles them.
#[test]
fn decode_step_and_prefill_chunk_kernels_are_bit_identical() {
    let options = CompilerOptions::quick().order_stable();
    let step = hidet_graph::models::transformer_decode_step("diff_decode", 2, 8, 2, 16, 2, 16);
    assert_plan_is_bit_identical(&step, &options, 11);
    let chunk = hidet_graph::models::transformer_prefill("diff_prefill", 4, 8, 2, 16, 2, 16);
    assert_plan_is_bit_identical(&chunk, &options, 12);
}

/// The benchmark's one-shot models at batch 8: an MLP head and a
/// conv-bn-relu block (the implicit-GEMM conv lowering).
fn head8() -> Graph {
    let mut g = GraphBuilder::new("head");
    let x = g.input("x", &[8, 64]);
    let w1 = g.constant(Tensor::randn(&[64, 128], 1));
    let w2 = g.constant(Tensor::randn(&[128, 16], 2));
    let h = g.matmul(x, w1);
    let h = g.relu(h);
    let y = g.matmul(h, w2);
    g.output(y).build()
}

fn cnn_block8() -> Graph {
    let mut g = GraphBuilder::new("cnn_block");
    let x = g.input("x", &[8, 4, 12, 12]);
    let y = g.conv_bn_relu(x, 8, 3, 1, 1);
    let y = g.global_avg_pool(y);
    let y = g.reshape(y, &[8, 8]);
    let y = g.linear(y, 4);
    g.output(y).build()
}

/// Under the tuned options: software-pipelined, split-K matmul kernels.
#[test]
fn tuned_batch8_head_and_cnn_block_kernels_are_bit_identical() {
    assert_plan_is_bit_identical(&head8(), &CompilerOptions::tuned(), 21);
    assert_plan_is_bit_identical(&cnn_block8(), &CompilerOptions::tuned(), 22);
}

// ---- size guard --------------------------------------------------------------

/// Lowering unrolls only within a budget — per loop, `UNROLL_OPS` (512)
/// instructions or three times the kernel's IR nodes, whichever is fewer,
/// private constants of `interp/lower/unroll.rs` — so for the serving
/// stack's kernels — the benchmark's decode step graph and its tuned batch-8
/// one-shot models — a program stays within a small multiple of the IR it
/// came from. The kernel's share of the budget is what the factor rests on:
/// without it the decode step's softmaxes, whose row loops fit 512
/// instructions, would be 6.1× their IR; with it the largest ratio here is
/// 3.6 (`layer_norm_0_fused`, 299 for 83 — lane code and loop prologues
/// counted).
#[test]
fn programs_stay_proportional_to_the_ir() {
    let step = hidet_graph::models::transformer_decode_step("bench_decode", 4, 48, 2, 32, 2, 32);
    let gpu = Gpu::default();
    let cases = [
        (step, CompilerOptions::quick().order_stable(), 28),
        (head8(), CompilerOptions::tuned(), 2),
        (cnn_block8(), CompilerOptions::tuned(), 3),
    ];
    for (graph, options, kernels) in cases {
        let compiled = hidet::compile(&graph, &gpu, &options).expect("graph compiles");
        assert_eq!(compiled.num_kernels(), kernels, "{}", graph.name());
        for (kernel, program) in lowered(compiled.plan()) {
            let nodes = hidet_ir::visit::count_nodes(kernel.body());
            assert!(
                program.op_count() <= 4 * nodes,
                "{}: {} instructions for {nodes} IR nodes",
                kernel.name(),
                program.op_count()
            );
        }
    }
}

/// What the budget buys: the tuned batch-8 kernels' register tiles are
/// registers. `head`'s `for kk < 16` unrolls, as every other barrier-free
/// loop of its matmuls does, and the `cnn_block` conv's `for p < 16`
/// register-tile loop does too, so none of its multiply-adds accumulates
/// through a memory access.
#[test]
fn the_tuned_tile_loops_unroll() {
    let gpu = Gpu::default();
    let tuned = CompilerOptions::tuned();
    let head = hidet::compile(&head8(), &gpu, &tuned).expect("head compiles");
    for (kernel, program) in lowered(head.plan()) {
        assert_eq!(program.rolled_loops(), 0, "{}", kernel.name());
    }
    let cnn = hidet::compile(&cnn_block8(), &gpu, &tuned).expect("cnn_block compiles");
    for (kernel, program) in lowered(cnn.plan()) {
        assert_eq!(program.memory_multiply_adds(), 0, "{}", kernel.name());
    }
}

// ---- what runs wide ------------------------------------------------------------

/// The gain of running a range once per block cannot silently vanish: over
/// the serving stack's kernels, the share of instructions that sit in wide
/// ranges — each counted once per thread, loops not multiplied out, so the
/// write-back a block runs once weighs what the `k0` leaf it runs per tile
/// does — is all of them. The predicated partial tiles (the guarded tile
/// fills, the `if row < m && col < n` write-backs, the implicit-GEMM conv's
/// scatter into NCHW) run wide under lane masks, so nothing is left per
/// thread.
#[test]
fn the_serving_kernels_run_mostly_wide() {
    use hidet_analysis::LaneSummary;
    use hidet_sim::{RangeKind, Verdict};
    let gpu = Gpu::default();
    let stable = CompilerOptions::quick().order_stable();
    let decode = |name| hidet_graph::models::transformer_decode_step(name, 2, 8, 2, 16, 2, 16);
    let cases = [
        (decode("diff_decode"), stable.clone(), 1.0),
        (
            hidet_graph::models::transformer_prefill("diff_prefill", 4, 8, 2, 16, 2, 16),
            stable,
            1.0,
        ),
        (head8(), CompilerOptions::tuned(), 1.0),
        (cnn_block8(), CompilerOptions::tuned(), 1.0),
    ];
    for (graph, options, floor) in cases {
        let compiled = hidet::compile(&graph, &gpu, &options).expect("graph compiles");
        let mut summary = LaneSummary::default();
        let mut left = Vec::new();
        for (kernel, program) in lowered(compiled.plan()) {
            summary.add(program);
            for range in program.ranges() {
                // The hoisted streams never fault, diverge or store.
                if range.kind != RangeKind::Leaf {
                    assert_eq!(range.verdict, Verdict::Wide, "{}: {range:?}", kernel.name());
                }
                // No leaf of a partial tile is left per thread either.
                if let Verdict::PerThread(_) = &range.verdict {
                    left.push(format!("{}: {range:?}", kernel.name()));
                }
            }
            // A matmul: the zeroing, the fills, the `k0` compute leaf and
            // whatever else precedes the predicated write-back run wide, and
            // so does the write-back.
            if kernel.name().starts_with("matmul") && options.order_stable_reductions {
                let (write_back, rest) = program.ranges().split_last().expect("ranges");
                assert!(rest.iter().all(|r| r.verdict == Verdict::Wide), "{rest:?}");
                assert_eq!(write_back.verdict, Verdict::Wide);
            }
        }
        let share = summary.wide_share();
        assert!(
            left.is_empty() && share >= floor,
            "{}: wide share {share:.3} under {floor}; per thread:\n{}",
            graph.name(),
            left.join("\n")
        );
    }
}

// ---- identical faults ------------------------------------------------------

/// Runs `kernel` on both interpreters from identical memory (every parameter
/// allocated, seeded) and returns their results, having checked that memory
/// agrees bit for bit whenever both ran clean.
fn run_both(kernel: &Kernel) -> (Result<(), SimError>, Result<(), SimError>) {
    let gpu = Gpu::default();
    let mut walker_mem = DeviceMemory::new();
    for (i, p) in kernel.params().iter().enumerate() {
        walker_mem.alloc(p.name(), &seeded(p.num_elements() as usize, 7 + i as u64));
    }
    let mut program_mem = walker_mem.clone();
    let walked = walker::run_kernel(kernel, &mut walker_mem, gpu.spec());
    let ran = gpu.run(kernel, &mut program_mem);
    if walked.is_ok() && ran.is_ok() {
        assert_same_memory(&walker_mem, &program_mem, kernel.name());
    }
    (walked, ran)
}

/// `build(guard)` is a kernel whose fault sits under `guard`. With the guard
/// false (or the loop zero-trip) it must run clean on both interpreters; with
/// it true both must report the same error.
fn assert_fault_parity(what: &str, build: impl Fn(bool) -> Kernel) -> SimError {
    let (walked, ran) = run_both(&build(false));
    assert_eq!(walked, Ok(()), "{what}: walker, fault not reached");
    assert_eq!(ran, Ok(()), "{what}: program, fault not reached");
    let (walked, ran) = run_both(&build(true));
    let walked = walked.expect_err(what);
    assert_eq!(ran, Err(walked.clone()), "{what}: fault reached");
    walked
}

/// A kernel `if threadIdx < limit { body }` over a 4-element parameter `X`:
/// `limit` 0 never takes the branch, 4 always does.
fn guarded(name: &str, reached: bool, body: impl FnOnce(&BufferRef) -> Stmt) -> Kernel {
    let mut kb = KernelBuilder::new(name, 1, 4);
    let x = kb.param("X", DType::F32, &[4]);
    let limit = if reached { 4 } else { 0 };
    kb.push(if_then(thread_idx().lt(limit), body(&x)));
    kb.build()
}

#[test]
fn unbound_variable_faults_only_when_reached() {
    let err = assert_fault_parity("unbound var", |reached| {
        guarded("unbound", reached, |x| {
            store(x, vec![thread_idx()], var("ghost").expr().cast(DType::F32))
        })
    });
    assert_eq!(err, SimError::UnboundVar("ghost".into()));
}

#[test]
fn undeclared_buffer_faults_only_when_reached() {
    // A shared buffer, a register buffer and a global buffer no one declared.
    for scope in [MemScope::Shared, MemScope::Register, MemScope::Global] {
        let nowhere = Buffer::new("Nowhere", scope, DType::F32, &[4]);
        let err = assert_fault_parity("undeclared buffer, loaded", |reached| {
            guarded("undeclared_load", reached, |x| {
                store(x, vec![thread_idx()], load(&nowhere, vec![thread_idx()]))
            })
        });
        assert_eq!(err, SimError::MissingBuffer("Nowhere".into()));
        let err = assert_fault_parity("undeclared buffer, stored", |reached| {
            guarded("undeclared_store", reached, |_| {
                store(&nowhere, vec![thread_idx()], fconst(1.0))
            })
        });
        assert_eq!(err, SimError::MissingBuffer("Nowhere".into()));
    }
}

#[test]
fn division_by_zero_in_a_hoistable_expression_faults_only_when_reached() {
    // `threadIdx / 0` depends on nothing a loop changes — exactly what the
    // lowering hoists when it cannot fault. It can, so it stays put.
    let err = assert_fault_parity("x / 0 under a predicate", |reached| {
        guarded("div_zero", reached, |x| {
            store(x, vec![thread_idx()], (thread_idx() / 0).cast(DType::F32))
        })
    });
    assert_eq!(err, SimError::DivByZero);
    // The same under a loop that runs zero or one times, with the division
    // also feeding an index.
    let err = assert_fault_parity("x / 0 in a zero-trip loop", |reached| {
        let mut kb = KernelBuilder::new("div_zero_loop", 1, 4);
        let x = kb.param("X", DType::F32, &[4]);
        kb.push(for_range("i", i64::from(reached), |i| {
            store(
                &x,
                vec![(thread_idx() + i) % (block_idx() * 7)],
                fconst(2.0),
            )
        }));
        kb.build()
    });
    assert_eq!(err, SimError::DivByZero);
    // A literal `1 / 0` must not be folded into a lowering-time failure.
    let err = assert_fault_parity("literal 1 / 0", |reached| {
        guarded("div_zero_literal", reached, |x| {
            store(x, vec![thread_idx()], (c(1) / 0).cast(DType::F32))
        })
    });
    assert_eq!(err, SimError::DivByZero);
}

#[test]
fn out_of_bounds_index_faults_only_when_reached() {
    let err = assert_fault_parity("OOB store", |reached| {
        guarded("oob_store", reached, |x| {
            store(x, vec![thread_idx() + 4], fconst(1.0))
        })
    });
    assert!(
        matches!(err, SimError::OutOfBounds { ref buffer, dim: 0, index: 4, extent: 4 } if buffer == "X"),
        "{err}"
    );
    let err = assert_fault_parity("OOB load in the untaken side of a select", |reached| {
        let mut kb = KernelBuilder::new("oob_select", 1, 4);
        let x = kb.param("X", DType::F32, &[4]);
        let pick = thread_idx().lt(if reached { 4 } else { 0 });
        let value = pick.select(load(&x, vec![thread_idx() - 1]), 0.0f32);
        kb.push(store(&x, vec![thread_idx()], value));
        kb.build()
    });
    assert!(
        matches!(err, SimError::OutOfBounds { index: -1, .. }),
        "{err}"
    );
}

// ---- loops the lowering unrolls --------------------------------------------
//
// A barrier-free loop with a constant extent is lowered as that many copies
// of its body when they fit an instruction budget. The copies must fault
// where the k-th iteration would have and bind what one iteration would
// have.

#[test]
fn a_fault_in_one_iteration_of_an_unrolled_loop_is_reached_there() {
    let err = assert_fault_parity("OOB store in the last iteration", |reached| {
        let mut kb = KernelBuilder::new("unrolled_oob", 1, 2);
        let x = kb.param("X", DType::F32, &[4]);
        kb.push(for_range("i", 4, |i| {
            store(&x, vec![i.clone() + i64::from(reached)], i.cast(DType::F32))
        }));
        kb.build()
    });
    assert!(
        matches!(
            err,
            SimError::OutOfBounds {
                dim: 0,
                index: 4,
                extent: 4,
                ..
            }
        ),
        "{err}"
    );
    // `6 / (i - 2)` is a division of literals in every copy: folded in the
    // others, left to fault in the one where the divisor is zero.
    let err = assert_fault_parity("x / 0 in iteration 2", |reached| {
        let mut kb = KernelBuilder::new("unrolled_div_zero", 1, 2);
        let x = kb.param("X", DType::F32, &[4]);
        let zero_at = if reached { 2 } else { 9 };
        kb.push(for_range("i", 4, |i| {
            store(&x, vec![i.clone()], (c(6) / (i - zero_at)).cast(DType::F32))
        }));
        kb.build()
    });
    assert_eq!(err, SimError::DivByZero);
    // An index that comes out of memory is checked in every copy, next to
    // accesses on constant addresses that are not.
    let err = assert_fault_parity("data-dependent index beside proven ones", |reached| {
        let mut kb = KernelBuilder::new("unrolled_gather", 1, 2);
        let x = kb.param("X", DType::F32, &[4]);
        let y = kb.param("Y", DType::F32, &[4]);
        let acc = kb.local("Acc", DType::F32, &[4]);
        // Seeded `X` is in [-1, 1): its square times 3 is a valid index, the
        // value times 100 is not.
        kb.push(for_range("i", 4, |i| {
            let xi = || load(&x, vec![i.clone()]);
            let at = if reached {
                xi() * 100.0f32
            } else {
                xi() * xi() * 3.0f32
            };
            seq(vec![
                store(
                    &acc,
                    vec![i.clone()],
                    load(&acc, vec![i.clone()]) + xi() * xi(),
                ),
                store(&y, vec![at.cast(DType::I64)], load(&acc, vec![i.clone()])),
            ])
        }));
        kb.build()
    });
    assert!(matches!(err, SimError::OutOfBounds { .. }), "{err}");
}

#[test]
fn bindings_in_an_unrolled_body_last_one_iteration() {
    // The loop variable shadows an outer `i`, the body's `v` an outer `v`;
    // each copy of the body reads the outer `v` before it binds its own, and
    // both outer names are back after the loop.
    let mut kb = KernelBuilder::new("unrolled_scopes", 1, 2);
    let x = kb.param("X", DType::F32, &[4]);
    let y = kb.param("Y", DType::F32, &[5]);
    let (v, outer_i) = (var("v"), var("i"));
    let as_f32 = |e: Expr| e.cast(DType::F32);
    kb.push(seq(vec![
        let_(&v, c(100)),
        let_(&outer_i, c(7)),
        for_range("i", 4, |i| {
            seq(vec![
                store(&x, vec![i.clone()], as_f32(v.expr() + i.clone())),
                let_(&v, i.clone() * 10),
                store(&y, vec![i], as_f32(v.expr())),
            ])
        }),
        store(&y, vec![c(4)], as_f32(outer_i.expr() + v.expr())),
    ]));
    let kernel = kb.build();
    assert_eq!(run_both(&kernel), (Ok(()), Ok(())));
    let mut mem = DeviceMemory::new();
    mem.alloc_zeroed("X", 4);
    mem.alloc_zeroed("Y", 5);
    Gpu::default().run(&kernel, &mut mem).expect("runs");
    assert_eq!(mem.read("X"), &[100.0, 101.0, 102.0, 103.0]);
    assert_eq!(mem.read("Y"), &[0.0, 10.0, 20.0, 30.0, 107.0]);

    // A `let` further down the body is not yet bound at the top of the next
    // iteration.
    let err = assert_fault_parity("a let of the previous iteration", |reached| {
        let mut kb = KernelBuilder::new("unrolled_let", 1, 2);
        let x = kb.param("X", DType::F32, &[4]);
        let v = var("v");
        let from = if reached { 1 } else { 9 };
        kb.push(for_range("i", 4, |i| {
            seq(vec![
                if_then(
                    i.clone().ge(from),
                    store(&x, vec![i.clone()], v.expr().cast(DType::F32)),
                ),
                let_(&v, i.clone() + 1),
                store(&x, vec![i], v.expr().cast(DType::F32)),
            ])
        }));
        kb.build()
    });
    assert_eq!(err, SimError::UnboundVar("v".into()));
}

#[test]
fn a_nest_unrolled_inside_and_looping_outside_matches() {
    // Eight copies of the inner body fit the budget; eight of those do not,
    // so the outer loop keeps its register while `j` is a literal. The fault
    // sits in the very last (i, j).
    let err = assert_fault_parity(
        "OOB in the last iteration of a half-unrolled nest",
        |reached| {
            let mut kb = KernelBuilder::new("half_unrolled", 1, 2);
            let x = kb.param("X", DType::F32, &[8, 8]);
            let y = kb.param("Y", DType::F32, &[8, 8]);
            let step = i64::from(reached);
            kb.push(for_range("i", 8, |i| {
                for_range("j", 8, |j| {
                    let value = (i.clone() * 8 + j.clone()).cast(DType::F32);
                    let column = j.clone() + i.clone() / 7 * step;
                    seq(vec![
                        store(&x, vec![i.clone(), column.clone()], value.clone()),
                        store(&y, vec![i.clone(), column], value * 2.0f32),
                    ])
                })
            }));
            kb.build()
        },
    );
    assert!(
        matches!(
            err,
            SimError::OutOfBounds {
                dim: 1,
                index: 8,
                extent: 8,
                ..
            }
        ),
        "{err}"
    );
}

// ---- loops that stay loops: what their prologues may and may not take ------
//
// An instruction that reads nothing finer than a loop's variable, and cannot
// fault, runs in that loop's iteration prologue. Anything that can fault
// stays where it is written, under whatever guards it; a zero-trip loop runs
// neither body nor prologue; an abandoned unrolling leaves nothing behind in
// the prologue of a loop around it.

#[test]
fn faults_under_a_loop_around_a_barrier_are_raised_only_when_reached() {
    // `k0` is a lockstep loop variable; `k0 * 3 + threadIdx`-style terms go
    // to its prologue. The division by `k0 - 1` and the index past the end
    // sit in a branch taken from `from` on.
    let nest = |reached: bool, faulty: &dyn Fn(&BufferRef, Expr) -> Stmt| {
        let mut kb = KernelBuilder::new("skeleton_fault", 1, 4);
        let x = kb.param("X", DType::F32, &[16]);
        let from = if reached { 0 } else { 9 };
        kb.push(for_range("k0", 3, |k0| {
            let at = k0.clone() * 4 + thread_idx();
            seq(vec![
                store(&x, vec![at.clone()], (at.clone() * 3).cast(DType::F32)),
                if_then(k0.clone().ge(from), faulty(&x, k0.clone())),
                sync_threads(),
                store(&x, vec![(at + 1) % 16], k0.cast(DType::F32)),
            ])
        }));
        kb.build()
    };
    let err = assert_fault_parity("x / (k0 - 1) under a lockstep loop", |reached| {
        nest(reached, &|x, k0| {
            let quotient = (thread_idx() + 8) / (k0.clone() - 1);
            store(x, vec![k0 * 4 + thread_idx()], quotient.cast(DType::F32))
        })
    });
    assert_eq!(err, SimError::DivByZero);
    let err = assert_fault_parity("an index past the end under a lockstep loop", |reached| {
        nest(reached, &|x, k0| {
            store(x, vec![k0 * 7 + thread_idx()], fconst(1.0))
        })
    });
    assert!(
        matches!(
            err,
            SimError::OutOfBounds {
                dim: 0,
                index: 16,
                extent: 16,
                ..
            }
        ),
        "{err}"
    );
}

#[test]
fn a_zero_trip_leaf_loop_runs_neither_its_body_nor_its_prologue() {
    // Nine trips or none, by an extent only a thread knows (`threadIdx / 4`
    // of four threads, which does not fold): the loop stays a loop either way, with `j * 2 +
    // threadIdx` in its prologue and a division by `j - 4` in its body.
    let nest = |reached: bool, faulty: &dyn Fn(&BufferRef, Expr) -> Stmt| {
        let mut kb = KernelBuilder::new("leaf_fault", 2, 4);
        let x = kb.param("X", DType::F32, &[32]);
        let trips = thread_idx() / 4 + if reached { 9 } else { 0 };
        kb.push(store(&x, vec![thread_idx()], fconst(3.0)));
        kb.push(for_range("j", trips, |j| {
            let at = (j.clone() * 2 + thread_idx() + block_idx()) % 32;
            seq(vec![
                store(&x, vec![at], j.clone().cast(DType::F32)),
                faulty(&x, j),
            ])
        }));
        kb.push(store(&x, vec![thread_idx() + 4], fconst(5.0)));
        kb.build()
    };
    let err = assert_fault_parity("x / (j - 4) in a zero-trip leaf loop", |reached| {
        nest(reached, &|x, j| {
            let quotient = (thread_idx() + 8) / (j - 4);
            store(x, vec![thread_idx()], quotient.cast(DType::F32))
        })
    });
    assert_eq!(err, SimError::DivByZero);
    let err = assert_fault_parity(
        "an index past the end in a zero-trip leaf loop",
        |reached| {
            nest(reached, &|x, j| {
                store(x, vec![j * 4 + thread_idx()], fconst(1.0))
            })
        },
    );
    assert!(
        matches!(
            err,
            SimError::OutOfBounds {
                dim: 0,
                index: 32,
                extent: 32,
                ..
            }
        ),
        "{err}"
    );
}

#[test]
fn a_loop_lowered_after_an_abandoned_unrolling_matches() {
    // `k` runs nine times and stays a loop. Eight copies of the `i` body —
    // 70 stores whose indices read `k`, so every copy also emits into `k`'s
    // prologue — blow the 512-instruction budget in the sixth copy; `i` is
    // then lowered as a loop, from a prologue rolled back to where it stood
    // and sharing nothing with what was dropped from it. With and without a
    // barrier: `k`'s prologue is the skeleton's or the leaf's.
    for barrier in [false, true] {
        let err = assert_fault_parity("100 / (k * 8 + i - 37) after a rollback", |reached| {
            let mut kb = KernelBuilder::new("rolled_back", 1, 2);
            let x = kb.param("X", DType::F32, &[2, 128]);
            let zero_at = if reached { 37 } else { -5 };
            kb.push(for_range("k", 9, |k| {
                let nest = for_range("i", 8, |i| {
                    let quotient = c(100) / (k.clone() * 8 + i.clone() - zero_at);
                    seq((0..70)
                        .map(|n| {
                            let at = (k.clone() * 3 + i.clone() + n) % 128;
                            let value = quotient.clone() + (k.clone() + n);
                            store(&x, vec![thread_idx(), at], value.cast(DType::F32))
                        })
                        .collect())
                });
                if barrier {
                    seq(vec![nest, sync_threads()])
                } else {
                    nest
                }
            }));
            kb.build()
        });
        assert_eq!(err, SimError::DivByZero);
    }
}

// ---- register-array elements as operands ----------------------------------

#[test]
fn a_register_array_element_keeps_its_buffers_conversion() {
    // Constant addresses throughout: the `f32` and `f16` arrays' elements
    // are operands; the `i32` array truncates what is stored to it, which an
    // operand would not, on a plain store and on both read-modify-writes.
    let mut kb = KernelBuilder::new("typed_registers", 1, 4);
    let y = kb.param("Y", DType::F32, &[4, 5]);
    let whole = kb.local("Whole", DType::I32, &[3]);
    let half = kb.local("Half", DType::F16, &[2]);
    let single = kb.local("Single", DType::F32, &[2]);
    let t = || thread_idx().cast(DType::F32);
    let at = |i: i64| vec![c(i)];
    kb.push(store(&single, at(1), t() * 0.75f32));
    kb.push(store(&half, at(1), load(&single, at(1)) + 0.3f32));
    kb.push(store(&whole, at(0), t() * 2.75f32));
    kb.push(store(&whole, at(1), fconst(1.0)));
    kb.push(store(&whole, at(1), load(&whole, at(1)) + t() * 0.6f32));
    kb.push(store(&whole, at(2), fconst(-1.0)));
    let product = load(&single, at(1)) * load(&half, at(1));
    kb.push(store(&whole, at(2), load(&whole, at(2)) + product));
    let out = [
        (&whole, 0),
        (&whole, 1),
        (&whole, 2),
        (&half, 1),
        (&single, 1),
    ];
    for (column, (buffer, i)) in out.into_iter().enumerate() {
        let to = vec![thread_idx(), c(column as i64)];
        kb.push(store(&y, to, load(buffer, at(i))));
    }
    let kernel = kb.build();
    assert_eq!(run_both(&kernel), (Ok(()), Ok(())));
    let mut mem = DeviceMemory::new();
    mem.alloc_zeroed("Y", 20);
    Gpu::default().run(&kernel, &mut mem).expect("runs");
    // Thread 3: 3 * 2.75 = 8.25 -> 8; 1 + 1.8 = 2.8 -> 2; -1 + 2.25 * 2.55
    // = 4.7375 -> 4; the f16 and f32 arrays hold what was stored.
    assert_eq!(mem.read("Y")[15..], [8.0, 2.0, 4.0, 2.25 + 0.3, 2.25]);
}

#[test]
fn a_register_array_access_wider_than_its_declaration_stays_a_type_error() {
    // One of the deliberate differences (the walker indexes past its vector
    // and panics, so only the program runs): the access says `R` has four
    // elements, the kernel declared two. Its index is a constant, inside the
    // access's own shape — but not provably inside the storage, so it is no
    // operand, and reaching it reports the access.
    let wide = Buffer::new("R", MemScope::Register, DType::F32, &[4]);
    for reached in [false, true] {
        let mut kb = KernelBuilder::new("wide_registers", 1, 2);
        let y = kb.param("Y", DType::F32, &[2]);
        kb.local("R", DType::F32, &[2]);
        kb.local("After", DType::F32, &[4]);
        let limit = if reached { 2 } else { 0 };
        kb.push(if_then(
            thread_idx().lt(limit),
            store(&wide, vec![c(3)], fconst(1.0)),
        ));
        kb.push(store(&y, vec![thread_idx()], load(&wide, vec![c(1)])));
        let mut mem = DeviceMemory::new();
        mem.alloc_zeroed("Y", 2);
        let ran = Gpu::default().run(&kb.build(), &mut mem);
        match ran {
            Ok(()) => assert!(!reached),
            Err(SimError::TypeError(m)) => assert!(reached && m.contains("past its end"), "{m}"),
            Err(other) => panic!("{other}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random two-level nests around the unrolling thresholds: extents and
    /// bodies whose copies fall on both sides of the instruction budget and
    /// of the point where two copies already show the rest cannot fit, an
    /// index that may leave its buffer and a divisor that may hit zero in
    /// some iteration — with no barrier, or one after the inner loop
    /// (the outer loop is then a skeleton loop with a prologue, the inner a
    /// leaf of it), on one block (`blockIdx` a constant) or two, of two
    /// threads or five that address `X` by `threadIdx` (they stay apart),
    /// by `1 - threadIdx` (two stay apart, five leave the buffer) or all by
    /// 0 (they race). Same result on both interpreters — the same fault, or
    /// the same memory.
    #[test]
    fn random_loop_nests_match_the_walker(
        outer in 0i64..=40,
        inner in 0i64..=40,
        stores in 1i64..10,
        shift in 0i64..3,
        zero_at in -2i64..42,
        barrier in 0i64..=1,
        grid in 1i64..=2,
        threads in prop::sample::select(vec![2i64, 5]),
        lane in 0i64..3,
    ) {
        let mut kb = KernelBuilder::new("fuzz_nest", grid, threads);
        let x = kb.param("X", DType::F32, &[grid, threads, 40, 40]);
        let acc = kb.local("Acc", DType::F32, &[40]);
        let lane = [thread_idx(), c(1) - thread_idx(), c(0)][lane as usize].clone();
        kb.push(for_range("i", outer, |i| {
            let nest = for_range("j", inner, |j| {
                seq((0..stores)
                    .map(|k| {
                        let at = vec![block_idx(), lane.clone(), i.clone() + shift * k / 4, j.clone()];
                        let quotient = (i.clone() * 10 + k) / (j.clone() - zero_at);
                        let product = load(&x, at.clone()) * quotient.cast(DType::F32);
                        seq(vec![
                            store(&acc, vec![j.clone()], load(&acc, vec![j.clone()]) + product),
                            store(&x, at, load(&acc, vec![j.clone()])),
                        ])
                    })
                    .collect())
            });
            if barrier == 1 {
                seq(vec![nest, sync_threads()])
            } else {
                nest
            }
        }));
        let (walked, ran) = run_both(&kb.build());
        prop_assert_eq!(ran, walked);
    }
}

// ---- leaves whose threads do not commute -------------------------------------
//
// A leaf runs once for the whole block, an instruction at a time, only when
// the lowering proved that no thread of it touches an element another
// writes. Each kernel below has a leaf whose threads *do* meet in memory, in
// a way that running it an instruction at a time would show: the walker runs
// its threads one after another, and so must the program.

/// Statements that are one leaf whatever is around them: beside a barrier,
/// each statement of a sequence is a leaf of its own.
fn one_leaf(statements: Vec<Stmt>) -> Stmt {
    for_range("once", 1, |_| seq(statements))
}

/// A block of `threads`: `racy` between two barriers (or bare, with
/// `barriers` off), over a shared `S` and a register array `R` of
/// `threads + 1` and 2 elements, zeroed; every thread then writes its `R[0]`,
/// `R[1]` and `S[t]` out to `Y`.
fn racy_kernel(
    threads: i64,
    barriers: bool,
    racy: impl FnOnce(&BufferRef, &BufferRef, &BufferRef) -> Stmt,
) -> Kernel {
    let mut kb = KernelBuilder::new("racy", 1, threads);
    let x = kb.param("X", DType::F32, &[threads + 1]);
    let y = kb.param("Y", DType::F32, &[3, threads]);
    let s = kb.shared("S", DType::F32, &[threads + 1]);
    let r = kb.local("R", DType::F32, &[2]);
    let racy = racy(&x, &s, &r);
    if barriers {
        kb.push(store(&s, vec![thread_idx()], load(&x, vec![thread_idx()])));
        kb.push(sync_threads());
    }
    kb.push(racy);
    if barriers {
        kb.push(sync_threads());
    }
    let out = [
        load(&r, vec![c(0)]),
        load(&r, vec![c(1)]),
        load(&s, vec![thread_idx()]),
    ];
    for (row, value) in out.into_iter().enumerate() {
        kb.push(store(&y, vec![c(row as i64), thread_idx()], value));
    }
    kb.build()
}

fn assert_runs_like_the_walker(kernel: &Kernel) {
    assert_eq!(run_both(kernel), (Ok(()), Ok(())), "{}", kernel.name());
}

/// One term of a drawn index: a function of `threadIdx`, of what the whole
/// block shares, or of the leaf loop's variable — some the lowering takes
/// apart (`t * 2`, `k`, `j * 8`), some it keeps whole as a lane or block-wide
/// value (`(t + 1) % n`, `k % 2`), some it cannot place (`(k + t) % 3`).
fn index_term(pick: i64, threads: i64, k: &Expr, j: &Expr) -> Expr {
    let t = thread_idx;
    match pick {
        0 => t(),
        1 => t() * 2,
        2 => (t() + 1) % threads,
        3 => c(threads - 1) - t(),
        4 => t() / 2,
        5 => block_idx() * 8,
        6 => k.clone(),
        7 => k.clone() % 2 * 16,
        8 => j.clone(),
        9 => j.clone() * 8,
        10 => (k.clone() + t()) % 3,
        _ => c(pick - 11),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Random leaves over a shared buffer: up to three statements, each
    /// storing to and loading from `S` at a sum of two drawn terms, inside
    /// a loop around a barrier and a leaf loop that is unrolled (one trip)
    /// or stays a loop (nine), under a guard or none. Whatever the lowering
    /// concludes about the threads of the leaf — apart, meeting, unknown,
    /// taking different branches — memory ends up as the walker leaves it.
    #[test]
    fn random_footprints_match_the_walker(
        threads in prop::sample::select(vec![2i64, 4, 7]),
        grid in 1i64..=2,
        trips in prop::sample::select(vec![1i64, 9]),
        statements in prop::collection::vec((0i64..3, (0i64..14, 0i64..14), (0i64..14, 0i64..14)), 1..4),
        guard in 0i64..6,
    ) {
        let mut kb = KernelBuilder::new("fuzz_footprint", grid, threads);
        let x = kb.param("X", DType::F32, &[threads]);
        let y = kb.param("Y", DType::F32, &[grid, threads, 33]);
        let s = kb.shared("S", DType::F32, &[256]);
        let acc = kb.local("Acc", DType::F32, &[1]);
        let t = thread_idx;
        kb.push(for_range("fill", 32, |i| {
            let at = i * threads + t();
            store(&s, vec![at.clone()], load(&x, vec![t()]) + at.cast(DType::F32))
        }));
        kb.push(sync_threads());
        kb.push(for_range("k", 2, |k| {
            let leaf = for_range("j", trips, |j| {
                let at = |(a, b): (i64, i64)| {
                    index_term(a, threads, &k, &j) + index_term(b, threads, &k, &j)
                };
                let body = seq((statements.iter())
                    .map(|&(kind, to, from)| match kind {
                        0 => {
                            let value = load(&s, vec![at(from)]) * 0.5f32 + t().cast(DType::F32);
                            store(&s, vec![at(to)], value)
                        }
                        1 => store(&s, vec![at(to)], load(&s, vec![at(to)]) + load(&s, vec![at(from)])),
                        _ => store(&acc, vec![c(0)], load(&acc, vec![c(0)]) + load(&s, vec![at(from)])),
                    })
                    .collect());
                // Under nothing, or under a guard the whole block agrees on
                // (by `k`, by `j`, by both, by `blockIdx`) or does not.
                match guard {
                    0 => body,
                    1 => if_then(k.clone().lt(1), body),
                    2 => if_then(j.clone().lt(4), body),
                    3 => if_then(((k.clone() + j.clone()) % 2).eq_(c(0)), body),
                    4 => if_then(block_idx().lt(1), body),
                    _ => if_then(t().lt(2), body),
                }
            });
            seq(vec![one_leaf(vec![leaf]), sync_threads()])
        }));
        kb.push(store(&y, vec![block_idx(), t(), c(32)], load(&acc, vec![c(0)])));
        kb.push(for_range("out", 32, |i| {
            let value = load(&s, vec![i.clone() * threads + t()]);
            store(&y, vec![block_idx(), t(), i], value)
        }));
        let (walked, ran) = run_both(&kb.build());
        prop_assert_eq!(ran, walked);
    }
}

#[test]
fn a_leaf_loop_runs_as_often_as_its_own_thread_says() {
    // Nothing in the leaf faults or stores outside the thread's registers —
    // but thread `t` takes `9 + t % 3` trips, so thread 0 cannot count for
    // the block. Beside it, the same loop with an extent the block shares.
    for extent in [thread_idx() % 3 + 9, block_idx() + 9] {
        let mut kb = KernelBuilder::new("own_trips", 2, 8);
        let x = kb.param("X", DType::F32, &[16]);
        let y = kb.param("Y", DType::F32, &[2, 8]);
        let acc = kb.local("Acc", DType::F32, &[1]);
        kb.push(for_range("j", extent, |j| {
            store(&acc, vec![c(0)], load(&acc, vec![c(0)]) + load(&x, vec![j]))
        }));
        kb.push(store(
            &y,
            vec![block_idx(), thread_idx()],
            load(&acc, vec![c(0)]),
        ));
        assert_runs_like_the_walker(&kb.build());
    }
}

#[test]
fn threads_accumulating_into_one_element_take_turns() {
    // `X[0] += t + 0.1`, then `R[0] = X[0]`: each thread sees the sum so
    // far — an `f32` sum, in thread order.
    for threads in [1, 2, 33, 256] {
        assert_runs_like_the_walker(&racy_kernel(threads, true, |x, _, r| {
            let bump = thread_idx().cast(DType::F32) + 0.1f32;
            one_leaf(vec![
                store(x, vec![c(0)], load(x, vec![c(0)]) + bump),
                store(r, vec![c(0)], load(x, vec![c(0)])),
            ])
        }));
    }
}

#[test]
fn a_fill_and_its_use_without_a_barrier_between_take_turns() {
    // Thread `t` fills `S[t]` and reads `S[t + 1]`, which its neighbour has
    // not filled yet — the missing barrier between a shared-memory fill and
    // its use.
    for (threads, barriers) in [(2, true), (33, true), (256, true), (8, false)] {
        assert_runs_like_the_walker(&racy_kernel(threads, barriers, |x, s, r| {
            one_leaf(vec![
                store(s, vec![thread_idx()], load(x, vec![thread_idx()]) * 2.0f32),
                store(r, vec![c(0)], load(s, vec![thread_idx() + 1])),
            ])
        }));
    }
}

#[test]
fn two_stores_of_one_leaf_to_neighbouring_elements_take_turns() {
    // `S[t] = a; S[(t + 1) % n] = b`: which store an element keeps depends
    // on whose turn came last.
    for threads in [2, 33, 256] {
        assert_runs_like_the_walker(&racy_kernel(threads, true, |x, s, _| {
            let value = load(x, vec![thread_idx()]);
            one_leaf(vec![
                store(s, vec![thread_idx()], value.clone()),
                store(s, vec![(thread_idx() + 1) % threads], value + 1.0f32),
            ])
        }));
    }
}

#[test]
fn iterations_of_a_leaf_loop_that_meet_across_threads_take_turns() {
    // Iteration `i` of thread `t` writes `S[2t + i]`, which iteration
    // `i + 1` of thread `t - 1` reads: no two threads meet in the same
    // iteration, and running the loop an iteration at a time would hand
    // thread `t - 1` what thread `t` has not written yet. Nine trips unroll;
    // ninety-nine stay a loop, whose variable the proof must count.
    for trips in [9, 99] {
        let mut kb = KernelBuilder::new("racy_loop", 1, 4);
        let y = kb.param("Y", DType::F32, &[4, trips]);
        let s = kb.shared("S", DType::F32, &[trips + 7]);
        kb.push(for_range("i", trips, |i| {
            let mine = thread_idx() * 2 + i.clone();
            seq(vec![
                store(
                    &y,
                    vec![thread_idx(), i.clone()],
                    load(&s, vec![mine.clone() + 1]),
                ),
                store(
                    &s,
                    vec![mine],
                    (thread_idx() * trips + i + 1).cast(DType::F32),
                ),
            ])
        }));
        assert_runs_like_the_walker(&kb.build());
    }
}

#[test]
fn accesses_that_differ_in_what_the_whole_block_adds_take_turns() {
    // `S[k % 2 + t]` is stored and `S[(k + 1) % 2 + t]` loaded: apart from
    // what the block adds to both, every thread keeps to element `t` — and
    // with it, thread `t` reads what thread `t + 1` stores.
    let mut kb = KernelBuilder::new("racy_parts", 1, 8);
    let x = kb.param("X", DType::F32, &[8]);
    let y = kb.param("Y", DType::F32, &[2, 8]);
    let s = kb.shared("S", DType::F32, &[9]);
    kb.push(for_range("k", 2, |k| {
        let here = k.clone() % 2 + thread_idx();
        let there = (k.clone() + 1) % 2 + thread_idx();
        seq(vec![
            one_leaf(vec![
                store(
                    &s,
                    vec![here],
                    load(&x, vec![thread_idx()]) + k.clone().cast(DType::F32),
                ),
                store(&y, vec![k, thread_idx()], load(&s, vec![there])),
            ]),
            sync_threads(),
        ])
    }));
    assert_runs_like_the_walker(&kb.build());
}

#[test]
fn buffers_that_are_the_same_storage_take_turns() {
    // `Y[t + 1] = X[t]` keeps its threads apart in `Y` — unless `Y` is bound
    // to the arena window `X` is, where thread `t` then reads what thread
    // `t - 1` wrote. A memory plan never does that to live buffers;
    // `bind_view` lets anyone.
    let mut kb = KernelBuilder::new("aliased", 1, 8);
    let x = kb.param("X", DType::F32, &[9]);
    let y = kb.param("Y", DType::F32, &[9]);
    kb.push(store(
        &y,
        vec![thread_idx() + 1],
        load(&x, vec![thread_idx()]) + 1.0f32,
    ));
    let kernel = kb.build();
    let gpu = Gpu::default();
    for y_at in [0, 4, 9] {
        let mut walker_mem = DeviceMemory::new();
        walker_mem.reserve_arena(18);
        walker_mem.bind_view("X", 0, 9);
        walker_mem.bind_view("Y", y_at, 9);
        walker_mem
            .get_mut("X")
            .expect("bound")
            .copy_from_slice(&seeded(9, 3));
        let mut program_mem = walker_mem.clone();
        walker::run_kernel(&kernel, &mut walker_mem, gpu.spec()).expect("walker runs");
        gpu.run(&kernel, &mut program_mem).expect("program runs");
        assert_same_memory(&walker_mem, &program_mem, "aliased");
    }
}

#[test]
fn registers_cross_from_a_wide_leaf_to_a_racy_one_and_back() {
    // A leaf that commutes, one that does not, one that does again: `v`,
    // `R[0]` and `R[1]` are written in one and read in the next.
    for threads in [2, 33] {
        let v = var("v");
        assert_runs_like_the_walker(&racy_kernel(threads, true, |x, s, r| {
            seq(vec![
                let_(&v, load(x, vec![thread_idx()]) * 3.0f32),
                store(r, vec![c(0)], v.expr() + 1.0f32),
                sync_threads(),
                store(
                    s,
                    vec![c(0)],
                    load(s, vec![c(0)]) * 0.5f32 + load(r, vec![c(0)]),
                ),
                store(r, vec![c(1)], load(s, vec![c(0)]) + v.expr()),
                sync_threads(),
                store(
                    r,
                    vec![c(0)],
                    load(r, vec![c(0)]) * load(r, vec![c(1)]) + v.expr(),
                ),
            ])
        }));
    }
}

/// Which fault is reported when one statement has several: the walker's
/// evaluation order — store indices, then the value left to right — decides.
#[test]
fn the_first_fault_in_evaluation_order_wins() {
    type Body = Box<dyn Fn(&BufferRef, &BufferRef) -> Stmt>;
    let kernel = |build: &Body| {
        let mut kb = KernelBuilder::new("order", 1, 2);
        let x = kb.param("X", DType::F32, &[2]);
        let y = kb.param("Y", DType::F32, &[2, 2]);
        kb.push(build(&x, &y));
        kb.build()
    };
    let far = || thread_idx() + 5;
    let cases: [(&str, Body); 4] = [
        (
            "store index before value",
            Box::new(move |x, y| store(x, vec![far()], load(y, vec![far(), c(0)]))),
        ),
        (
            "left operand before right",
            Box::new(move |x, y| {
                let sum = load(y, vec![c(0), far()]) + load(x, vec![far()]);
                store(x, vec![thread_idx()], sum)
            }),
        ),
        (
            "earlier dimension before a later index's own fault",
            Box::new(move |x, y| {
                let v = load(y, vec![far(), thread_idx() / 0]);
                store(x, vec![thread_idx()], v)
            }),
        ),
        (
            "read-modify-write checks its index before its operand",
            Box::new(move |x, y| {
                let sum = load(x, vec![far()]) + load(y, vec![far(), c(0)]);
                store(x, vec![far()], sum)
            }),
        ),
    ];
    for (what, build) in &cases {
        let (walked, ran) = run_both(&kernel(build));
        let walked = walked.expect_err(what);
        assert_eq!(ran, Err(walked), "{what}");
    }
}

/// Which fault is reported when two instructions of one leaf fault in
/// different threads: the walker runs thread 1 to its fault in the second
/// statement before thread 3 gets to the first, so a leaf that can fault
/// keeps thread order — an instruction at a time would report thread 3's.
#[test]
fn the_first_thread_to_fault_wins_not_the_first_instruction() {
    let mut kb = KernelBuilder::new("fault_order", 1, 4);
    let x = kb.param("X", DType::F32, &[4]);
    let y = kb.param("Y", DType::F32, &[4]);
    let past =
        |thread: i64, by: i64| thread_idx() + thread_idx().eq_(c(thread)).select(c(by), c(0));
    kb.push(one_leaf(vec![
        store(&x, vec![past(3, 100)], fconst(1.0)),
        store(&y, vec![past(1, 50)], fconst(2.0)),
    ]));
    let (walked, ran) = run_both(&kb.build());
    assert!(
        matches!(&walked, Err(SimError::OutOfBounds { buffer, index: 51, .. }) if buffer == "Y"),
        "{walked:?}"
    );
    assert_eq!(ran, walked);
}

#[test]
fn launch_and_barrier_faults_match() {
    // Thread-dependent extent around a barrier.
    let mut kb = KernelBuilder::new("bad_extent", 1, 4);
    kb.param("X", DType::F32, &[1]);
    kb.push(for_range("i", thread_idx(), |_| sync_threads()));
    let (walked, ran) = run_both(&kb.build());
    assert!(
        matches!(walked, Err(SimError::NonUniformControl(_))),
        "{walked:?}"
    );
    assert_eq!(ran, walked);

    // Thread-dependent branch around a barrier, and a non-boolean one.
    for cond in [thread_idx().lt(2), thread_idx()] {
        let mut kb = KernelBuilder::new("bad_branch", 1, 4);
        kb.param("X", DType::F32, &[1]);
        kb.push(if_then(cond, sync_threads()));
        let (walked, ran) = run_both(&kb.build());
        assert!(walked.is_err());
        assert_eq!(ran, walked);
    }

    // A block-uniform but data-dependent extent around a barrier is fine.
    let mut kb = KernelBuilder::new("uniform_extent", 2, 4);
    let x = kb.param("X", DType::F32, &[8]);
    kb.push(for_range("i", block_idx() + 1, |i| {
        seq(vec![
            store(&x, vec![block_idx() * 4 + thread_idx()], i.cast(DType::F32)),
            sync_threads(),
        ])
    }));
    let (walked, ran) = run_both(&kb.build());
    assert_eq!((walked, ran), (Ok(()), Ok(())));

    // Too much shared memory; a missized parameter.
    let mut kb = KernelBuilder::new("big", 1, 32);
    kb.param("X", DType::F32, &[1]);
    kb.shared("S", DType::F32, &[64 * 1024]);
    let (walked, ran) = run_both(&kb.build());
    assert!(
        matches!(walked, Err(SimError::ResourceLimit(_))),
        "{walked:?}"
    );
    assert_eq!(ran, walked);

    let mut kb = KernelBuilder::new("missized", 1, 1);
    kb.param("X", DType::F32, &[4]);
    let kernel = kb.build();
    let gpu = Gpu::default();
    let mut mem = DeviceMemory::new();
    mem.alloc_zeroed("X", 2);
    let walked = walker::run_kernel(&kernel, &mut mem.clone(), gpu.spec());
    assert!(matches!(walked, Err(SimError::BufferSizeMismatch { .. })));
    assert_eq!(gpu.run(&kernel, &mut mem), walked);
    let mut empty = DeviceMemory::new();
    let walked = walker::run_kernel(&kernel, &mut empty.clone(), gpu.spec());
    assert_eq!(walked, Err(SimError::MissingBuffer("X".into())));
    assert_eq!(gpu.run(&kernel, &mut empty), walked);
}

/// A program is its definition's, and every kernel of the definition runs
/// it: launched as either of two kernels whose parameters go by different
/// names, an out-of-bounds load, a non-uniform condition around a barrier
/// and a missized parameter each carry the names of the kernel that
/// launched — the payload the walker gives for that kernel.
#[test]
fn faults_name_the_kernel_that_launched() {
    type Body = dyn Fn(&BufferRef, &BufferRef) -> Stmt;
    let t = thread_idx;
    let out_of_bounds =
        move |x: &BufferRef, y: &BufferRef| store(y, vec![t()], load(x, vec![t() + 1]));
    let non_uniform = move |_: &BufferRef, y: &BufferRef| {
        let body = seq(vec![store(y, vec![t()], fconst(1.0)), sync_threads()]);
        if_then(t().lt(2), body)
    };
    let copy = move |x: &BufferRef, y: &BufferRef| store(y, vec![t()], load(x, vec![t()]));
    let gpu = Gpu::default();
    for (what, body, x_len) in [
        ("out_of_bounds", &out_of_bounds as &Body, 4),
        ("non_uniform", &non_uniform, 4),
        ("missized", &copy, 2),
    ] {
        let mut kb = KernelBuilder::new(what, 1, 4);
        let x = kb.param("X", DType::F32, &[4]);
        let y = kb.param("Y", DType::F32, &[4]);
        kb.push(body(&x, &y));
        let first = kb.build();
        let second = first.renamed(&format!("{what}_renamed"), &["A", "B"]);
        let program = Program::lower(&first);
        let mut faults = Vec::new();
        for kernel in [&first, &second] {
            let mut mem = DeviceMemory::new();
            mem.alloc(kernel.params()[0].name(), &seeded(x_len, 5));
            mem.alloc(kernel.params()[1].name(), &seeded(4, 6));
            let walked = walker::run_kernel(kernel, &mut mem.clone(), gpu.spec()).expect_err(what);
            let buffers = program.resolve(kernel, &mem);
            let ran = gpu.launch(&program, kernel, &buffers, &mut mem);
            assert_eq!(ran, Err(walked.clone()), "{what} as {}", kernel.name());
            faults.push(walked);
        }
        assert_ne!(
            faults[0], faults[1],
            "{what}: the faults name their kernels"
        );
    }
}

// ---- guards and lane masks ---------------------------------------------------
//
// A branch the threads take differently runs wide, each side under a lane
// mask; a guard `x < k` bounds `x` in the code it guards, so an access only
// the guard keeps in bounds is proven there; a guard decided by a lane
// register keeps the threads it is false for out of a footprint; an address
// that is a function of one sum is apart where the sums are and the function
// is one-to-one. Each kernel below leans on one of those rules, and runs
// like the walker only if the rule is right.

/// One conjunct of a drawn guard over thread `t` of block `b`: bounds on
/// `t` (`t < k`, `k <= t`, `t + s < n`), a lane predicate that bounds
/// nothing, a bound on a value of `t` and `b` both, a condition the whole
/// block shares.
fn guard_term(kind: i64, k: i64, shift: i64, threads: i64) -> Expr {
    let t = thread_idx;
    match kind {
        0 => t().lt(k),
        1 => c(k).le(t()),
        2 => (t() + shift).lt(threads + 3),
        3 => (t() % 3).eq_(c(0)),
        4 => (block_idx() * threads + t()).lt(k * 3),
        _ => block_idx().lt(1),
    }
}

/// The `&&` of the drawn conjuncts.
fn drawn_guard(conjuncts: &[(i64, i64)], shift: i64, threads: i64) -> Expr {
    let mut terms = conjuncts
        .iter()
        .map(|&(kind, k)| guard_term(kind, k, shift, threads));
    let first = terms.next().expect("one conjunct at least");
    terms.fold(first, Expr::and)
}

type Conjuncts = Vec<(i64, i64)>;

fn conjuncts() -> impl Strategy<Value = Conjuncts> {
    prop::collection::vec((0i64..6, 0i64..12), 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random leaves of guarded statements over `X` and `Y` of `n + 3`
    /// elements per block and a shared `S` of `n`, filled first: a store to
    /// `Y[b, t + s]` under a guard, a select over a load of `X[b, t + s]`, an
    /// `if` with an `else`, nested `if`s — each guard an `&&` chain of drawn
    /// conjuncts that may or may not keep `t + s` in bounds. Whatever the
    /// lowering proves, the leaf leaves memory as the walker does, or faults
    /// as it does.
    #[test]
    fn random_guarded_leaves_match_the_walker(
        threads in prop::sample::select(vec![5i64, 8, 32]),
        grid in 1i64..=2,
        statements in prop::collection::vec((0i64..4, conjuncts(), conjuncts(), 0i64..6), 1..4),
    ) {
        let mut kb = KernelBuilder::new("guarded_leaf", grid, threads);
        let x = kb.param("X", DType::F32, &[grid, threads + 3]);
        let y = kb.param("Y", DType::F32, &[grid, threads + 3]);
        let s = kb.shared("S", DType::F32, &[threads]);
        let (t, b) = (thread_idx, block_idx);
        kb.push(store(&s, vec![t()], load(&x, vec![b(), t()]) * 3.0f32));
        kb.push(sync_threads());
        let body = statements.iter().map(|(kind, first, second, shift)| {
            let (g1, g2) = (drawn_guard(first, *shift, threads), drawn_guard(second, *shift, threads));
            let moved = vec![b(), t() + *shift];
            let own = || vec![b(), t()];
            let mine = load(&s, vec![t()]);
            match kind {
                0 => if_then(g1, store(&y, moved, mine * 2.0f32 + t().cast(DType::F32))),
                1 => store(&y, own(), g1.select(load(&x, moved), fconst(0.5))),
                2 => if_then_else(
                    g1,
                    store(&y, moved, load(&x, own())),
                    store(&y, own(), mine + 1.0f32),
                ),
                _ => if_then(
                    g1,
                    if_then_else(
                        g2,
                        store(&y, moved.clone(), load(&y, moved) + load(&x, own())),
                        store(&y, own(), load(&x, own()) - mine),
                    ),
                ),
            }
        });
        kb.push(one_leaf(body.collect()));
        let (walked, ran) = run_both(&kb.build());
        prop_assert_eq!(ran, walked);
    }
}

/// `if t < n` keeps `X[t]` of an `X` of `n` in bounds; `if t <= n` does not,
/// nor does a bound on another variable, nor the `else` side of `t < n`.
/// Those accesses stay checked — their leaf can fault — and fault as the
/// walker does.
#[test]
fn guards_that_do_not_prove_an_access_leave_it_checked() {
    use hidet_sim::{Program, Reason, Verdict};
    let n = 4;
    let t = thread_idx;
    type Body = Box<dyn Fn(&BufferRef) -> Stmt>;
    let cases: [(&str, Body); 3] = [
        (
            "t <= n",
            Box::new(move |x| if_then(t().le(n), store(x, vec![t()], fconst(1.0)))),
        ),
        (
            "a bound on t / 2",
            Box::new(move |x| if_then((t() / 2).lt(n), store(x, vec![t()], fconst(1.0)))),
        ),
        (
            "the else side of t < n",
            Box::new(move |x| {
                if_then_else(
                    t().lt(n),
                    store(x, vec![t()], fconst(1.0)),
                    store(x, vec![t()], fconst(2.0)),
                )
            }),
        ),
    ];
    for (what, build) in &cases {
        let mut kb = KernelBuilder::new("unproven_guard", 1, 2 * n);
        let x = kb.param("X", DType::F32, &[n]);
        kb.push(build(&x));
        let kernel = kb.build();
        let p = Program::lower(&kernel);
        let leaf = p.ranges().last().expect("a leaf");
        assert_eq!(leaf.verdict, Verdict::PerThread(Reason::CanFault), "{what}");
        let (walked, ran) = run_both(&kernel);
        assert!(
            matches!(walked, Err(SimError::OutOfBounds { index: 4, .. })),
            "{what}: {walked:?}"
        );
        assert_eq!(ran, walked, "{what}");
    }
}

/// The tree reduction of a row: `if lane < h { R[lane] += R[lane + h] }`.
/// Without the guard, thread `h` would store the element thread 0 loads; the
/// lane table says thread `h` never gets there, so each step runs wide.
#[test]
fn a_tree_reduction_under_lane_guards_runs_wide() {
    use hidet_sim::{Program, RangeKind, Verdict};
    let mut kb = KernelBuilder::new("tree_reduce", 2, 32);
    let x = kb.param("X", DType::F32, &[2, 32]);
    let y = kb.param("Y", DType::F32, &[2]);
    let r = kb.shared("R", DType::F32, &[32]);
    let lane = thread_idx;
    kb.push(store(&r, vec![lane()], load(&x, vec![block_idx(), lane()])));
    for half in [16, 8, 4, 2, 1] {
        kb.push(sync_threads());
        let sum = load(&r, vec![lane()]) + load(&r, vec![lane() + half]);
        kb.push(if_then(lane().lt(half), store(&r, vec![lane()], sum)));
    }
    kb.push(sync_threads());
    let first = load(&r, vec![c(0)]);
    kb.push(if_then(
        lane().eq_(c(0)),
        store(&y, vec![block_idx()], first),
    ));
    let kernel = kb.build();
    let p = Program::lower(&kernel);
    let leaves = p.ranges().iter().filter(|r| r.kind == RangeKind::Leaf);
    assert!(leaves.clone().count() == 7, "{:?}", p.ranges());
    for leaf in leaves {
        assert_eq!(leaf.verdict, Verdict::Wide, "{:?}", p.ranges());
    }
    assert_runs_like_the_walker(&kernel);
}

/// `if k <= b * n + t`, over block `b` of `n` threads: a bound on a value of
/// `threadIdx` and `blockIdx` both, which no lane table decides. In block 0
/// only thread 7 passes it, in block 1 every thread does — and then each
/// reads what its neighbour stores. The leaf keeps thread order.
#[test]
fn a_guard_the_lane_table_does_not_decide_keeps_every_thread_in_the_footprint() {
    use hidet_sim::{Program, Reason, Verdict};
    let n = 8;
    let mut kb = KernelBuilder::new("thread_guard", 2, n);
    let x = kb.param("X", DType::F32, &[n]);
    let y = kb.param("Y", DType::F32, &[2, n]);
    let s = kb.shared("S", DType::F32, &[n]);
    let t = thread_idx;
    kb.push(if_then(
        c(7).le(block_idx() * n + t()),
        one_leaf(vec![
            store(&s, vec![t()], load(&x, vec![t()]) + 1.0f32),
            store(&y, vec![block_idx(), t()], load(&s, vec![(t() + 1) % n])),
        ]),
    ));
    let kernel = kb.build();
    assert_runs_like_the_walker(&kernel);
    let p = Program::lower(&kernel);
    let leaf = p.ranges().last().expect("a leaf");
    assert!(
        matches!(&leaf.verdict, Verdict::PerThread(Reason::Overlap { buffer, .. }) if buffer == "S"),
        "{leaf:?}"
    );
}

/// Addresses that are one function of a sum `r = b * n + t`: `Y[r / n][r % n]`
/// is one-to-one in `r` and runs wide; `S[r % 4]` is not, threads `t` and
/// `t + 4` meet there, and each reading back what it stored keeps thread
/// order.
#[test]
fn an_address_through_a_function_of_one_sum_is_apart_only_where_it_is_one_to_one() {
    use hidet_sim::{Program, Reason, Verdict};
    let n = 8;
    let r = || block_idx() * n + thread_idx();
    let build = |scatter: bool| {
        let mut kb = KernelBuilder::new("through", 2, n);
        let x = kb.param("X", DType::F32, &[2 * n]);
        let y = kb.param("Y", DType::F32, &[2, n]);
        let s = kb.shared("S", DType::F32, &[4]);
        let value = load(&x, vec![r()]) * 2.0f32;
        kb.push(if scatter {
            store(&y, vec![r() / n, r() % n], value)
        } else {
            one_leaf(vec![
                store(&s, vec![r() % 4], value),
                store(&y, vec![block_idx(), thread_idx()], load(&s, vec![r() % 4])),
            ])
        });
        kb.build()
    };
    for scatter in [true, false] {
        assert_runs_like_the_walker(&build(scatter));
    }
    let verdict = |kernel: &Kernel| {
        Program::lower(kernel)
            .ranges()
            .last()
            .map(|r| r.verdict.clone())
    };
    assert_eq!(verdict(&build(true)), Some(Verdict::Wide));
    assert_eq!(
        verdict(&build(false)),
        Some(Verdict::PerThread(Reason::UnprovenFootprint))
    );
}

/// Every range of `kernel` as the lowering judged it.
fn verdicts(kernel: &Kernel) -> Vec<hidet_sim::Verdict> {
    let p = hidet_sim::Program::lower(kernel);
    p.ranges().iter().map(|r| r.verdict.clone()).collect()
}

/// A row reduction whose every statement sits under `if r < rows`, `r` the
/// row of thread `t` in block `b`: 40 or 36 rows over two blocks of 32
/// threads, so the second block's last 24 or 28 threads have no row (the
/// 4 that do are few enough to be stepped one by one). Nothing else is in
/// the kernel — the partial tile is all of it — and it runs wide: a lane
/// the mask has off neither loads its row nor stores past the end of `Y`.
#[test]
fn a_kernel_of_only_predicated_leaves_runs_wide() {
    for rows in [40, 36] {
        predicated_rows(rows);
    }
}

fn predicated_rows(rows: i64) {
    use hidet_sim::Verdict;
    let (threads, k) = (32, 8);
    let mut kb = KernelBuilder::new("predicated_rows", 2, threads);
    let x = kb.param("X", DType::F32, &[rows, k]);
    let y = kb.param("Y", DType::F32, &[rows]);
    let acc = kb.local("acc", DType::F32, &[1]);
    let r = || block_idx() * threads + thread_idx();
    kb.push(if_then(
        r().lt(rows),
        seq(vec![
            store(&acc, vec![c(0)], fconst(0.0)),
            for_range("j", k, |j| {
                let sum = load(&acc, vec![c(0)]) + load(&x, vec![r(), j]);
                store(&acc, vec![c(0)], sum)
            }),
            store(&y, vec![r()], load(&acc, vec![c(0)])),
        ]),
    ));
    let kernel = kb.build();
    assert!(verdicts(&kernel).iter().all(|v| *v == Verdict::Wide));
    assert_runs_like_the_walker(&kernel);
}

/// `if t < 12 { if t % 2 == 0 {..} else {..}; Z[t] = .. } else {..}`: the
/// inner branch splits the lanes the outer then side runs for, and the
/// outer masks must still be there after it — for `Z[t]` and for the outer
/// else side. Two levels of masks, held at once.
#[test]
fn nested_guards_run_under_a_stack_of_masks() {
    use hidet_sim::Verdict;
    let threads = 16;
    let mut kb = KernelBuilder::new("nested_guards", 2, threads);
    let x = kb.param("X", DType::F32, &[2, threads]);
    let y = kb.param("Y", DType::F32, &[2, threads]);
    let z = kb.param("Z", DType::F32, &[2, threads]);
    let t = thread_idx;
    let at = || vec![block_idx(), t()];
    let mine = || load(&x, at());
    kb.push(if_then_else(
        t().lt(12),
        seq(vec![
            if_then_else(
                (t() % 2).eq_(c(0)),
                store(&y, at(), mine() * 2.0f32),
                store(&y, at(), mine() + 1.0f32),
            ),
            store(&z, at(), mine() - 3.0f32),
        ]),
        seq(vec![
            store(&y, at(), fconst(7.0)),
            store(&z, at(), mine() * mine()),
        ]),
    ));
    let kernel = kb.build();
    assert!(verdicts(&kernel).iter().all(|v| *v == Verdict::Wide));
    assert_runs_like_the_walker(&kernel);
}

/// `Y[t] = t < 5 ? X[t] : W[t]` over an `X` of 5: the lanes past it take
/// `W`, and a lane loads only the source it takes — `X[5..8]` would be past
/// the end.
#[test]
fn a_select_loads_only_the_source_a_lane_takes() {
    use hidet_sim::Verdict;
    let mut kb = KernelBuilder::new("select_source", 1, 8);
    let x = kb.param("X", DType::F32, &[5]);
    let w = kb.param("W", DType::F32, &[8]);
    let y = kb.param("Y", DType::F32, &[8]);
    let t = thread_idx;
    let chosen = t().lt(5).select(load(&x, vec![t()]), load(&w, vec![t()]));
    kb.push(store(&y, vec![t()], chosen * 3.0f32));
    let kernel = kb.build();
    assert!(verdicts(&kernel).iter().all(|v| *v == Verdict::Wide));
    assert_runs_like_the_walker(&kernel);
}

/// `S[t % 7]` over 8 threads: thread 7 meets thread 0 at `S[0]`, and each
/// reads back what it stored. Under `if t < 7` thread 7 never gets there,
/// the lane table says so, and the leaf runs wide. Under `t < 7 || b == 1`
/// it does get there in block 1 — an `||` excludes nobody — and the leaf
/// keeps thread order.
#[test]
fn a_guard_keeps_out_the_one_thread_that_would_meet_another() {
    use hidet_sim::{Reason, Verdict};
    let threads = 8;
    let build = |guard: Expr| {
        let mut kb = KernelBuilder::new("excluded", 2, threads);
        let x = kb.param("X", DType::F32, &[2, threads]);
        let y = kb.param("Y", DType::F32, &[2, threads]);
        let s = kb.shared("S", DType::F32, &[threads]);
        let t = thread_idx;
        let at = || vec![block_idx(), t()];
        kb.push(if_then(
            guard,
            one_leaf(vec![
                store(&s, vec![t() % 7], load(&x, at()) * 2.0f32),
                store(&y, at(), load(&s, vec![t() % 7])),
            ]),
        ));
        kb.build()
    };
    let excluded = build(thread_idx().lt(7));
    assert_eq!(verdicts(&excluded).last(), Some(&Verdict::Wide));
    assert_runs_like_the_walker(&excluded);
    let either = build(thread_idx().lt(7).or(block_idx().eq_(c(1))));
    let last = verdicts(&either).pop();
    assert!(
        matches!(&last, Some(Verdict::PerThread(Reason::Overlap { buffer, .. })) if buffer == "S"),
        "{last:?}"
    );
    assert_runs_like_the_walker(&either);
}

/// At the edge of a 4-element `X`: `t < 4` and `t <= 3` both keep `X[t]` in
/// bounds, `t <= 4` does not (thread 4 faults, as in the walker), and of
/// `7 <= t` and `8 <= t` over 8 threads the first is taken by thread 7 and
/// the second by none.
#[test]
fn le_and_lt_guards_meet_at_the_edge() {
    use hidet_sim::{Reason, Verdict};
    let t = thread_idx;
    let build = |guard: Expr| {
        let mut kb = KernelBuilder::new("edge", 1, 8);
        let x = kb.param("X", DType::F32, &[4]);
        let y = kb.param("Y", DType::F32, &[8]);
        kb.push(if_then(
            guard,
            seq(vec![
                store(&y, vec![t()], t().cast(DType::F32)),
                store(&x, vec![t()], fconst(1.0)),
            ]),
        ));
        kb.build()
    };
    let wide = [("t < 4", t().lt(4)), ("t <= 3", t().le(3))];
    for (what, guard) in wide {
        let kernel = build(guard);
        assert!(
            verdicts(&kernel).iter().all(|v| *v == Verdict::Wide),
            "{what}"
        );
        assert_runs_like_the_walker(&kernel);
    }
    let past = build(t().le(4));
    assert_eq!(
        verdicts(&past).last(),
        Some(&Verdict::PerThread(Reason::CanFault))
    );
    let (walked, ran) = run_both(&past);
    assert!(
        matches!(walked, Err(SimError::OutOfBounds { index: 4, .. })),
        "{walked:?}"
    );
    assert_eq!(ran, walked);
    // Only thread 7 stores, so `X[t]` would be past the end for it: the
    // store to `Y` reached, the one to `X` faulting — as in the walker.
    let (walked, ran) = run_both(&build(c(7).le(t())));
    assert!(
        matches!(walked, Err(SimError::OutOfBounds { index: 7, .. })),
        "{walked:?}"
    );
    assert_eq!(ran, walked);
    assert_runs_like_the_walker(&build(c(8).le(t())));
}

// ---- blocks side by side ---------------------------------------------------

/// The serving stack's multi-block kernels of narrow blocks run their
/// blocks side by side where the lowering proves them apart, as few passes
/// of at most 1,024 lanes as hold them: `head(8)`'s first matmul (16 blocks
/// of 32 threads on warp-sized 8×8 tiles, one pass), the `cnn_block(8)`
/// conv (72 of 32 on 16×8 tiles, three passes of 24) and, in
/// `decode_mixed`'s decode step as the decode engine compiles it
/// (`compact()`), the second batch matmul of each layer (8 of 32) and the
/// matmul after attention (4 of 32). Wider
/// blocks never do: compiled with `quick()`, the same step's batch matmuls
/// are 8 blocks of 128 threads, which gained nothing side by side, and
/// blocks of 256 threads already fill a wide pass.
#[test]
fn the_serving_kernels_run_their_blocks_side_by_side() {
    let gpu = Gpu::default();
    let step = || hidet_graph::models::transformer_decode_step("bench_decode", 4, 48, 2, 32, 2, 32);
    let cases = [
        (
            head8(),
            CompilerOptions::tuned(),
            vec![("matmul_0_fused", 16, 16)],
        ),
        (
            cnn_block8(),
            CompilerOptions::tuned(),
            vec![("matmul_1000_fused", 72, 24)],
        ),
        (
            step(),
            CompilerOptions::compact().order_stable(),
            vec![
                ("batch_matmul_1_fused", 8, 8),
                ("batch_matmul_3_fused", 8, 8),
                ("matmul_4_fused", 4, 4),
                ("matmul_10_fused", 4, 4),
            ],
        ),
        (
            step(),
            CompilerOptions::quick().order_stable(),
            vec![("batch_matmul", 8, 1)],
        ),
    ];
    for (graph, options, expected) in cases {
        let compiled = hidet::compile(&graph, &gpu, &options).expect("graph compiles");
        let mut named = vec![0; expected.len()];
        for (kernel, program) in lowered(compiled.plan()) {
            let (grid, threads) = (kernel.launch().grid_dim as usize, kernel.launch().block_dim);
            let side = program.side_by_side();
            let narrow = grid > 1 && threads <= 32;
            assert!(narrow || side == 1, "{}: {side} of {grid}", kernel.name());
            for (count, &(name, blocks, together)) in named.iter_mut().zip(&expected) {
                if kernel.name().starts_with(name) {
                    assert_eq!((grid, side), (blocks, together), "{}", kernel.name());
                    *count += 1;
                }
            }
        }
        for (count, (name, ..)) in named.iter().zip(&expected) {
            assert!(*count > 0, "{}: no kernel named {name}", graph.name());
        }
    }
}

/// `grid` blocks of 8 threads over `X` and `Y` of `len` elements each: a
/// kernel built by `body` from the two.
fn grid_kernel(
    grid: i64,
    len: i64,
    body: impl FnOnce(&BufferRef, &BufferRef) -> Vec<Stmt>,
) -> Kernel {
    let mut kb = KernelBuilder::new("blocks", grid, 8);
    let x = kb.param("X", DType::F32, &[len]);
    let y = kb.param("Y", DType::F32, &[len]);
    for statement in body(&x, &y) {
        kb.push(statement);
    }
    kb.build()
}

/// Runs `kernel` on both interpreters and returns how many blocks its
/// program runs side by side.
fn side_by_side_like_the_walker(kernel: &Kernel) -> usize {
    assert_runs_like_the_walker(kernel);
    Program::lower(kernel).side_by_side()
}

#[test]
fn blocks_that_store_one_element_run_one_by_one() {
    // Every block stores `Y[t]`: the last block's value is the one left.
    let b = || block_idx().cast(DType::F32);
    let own = grid_kernel(4, 32, |x, y| {
        let at = block_idx() * 8 + thread_idx();
        vec![store(y, vec![at.clone()], load(x, vec![at]) + b())]
    });
    assert_eq!(side_by_side_like_the_walker(&own), 4);
    let shared = grid_kernel(4, 32, |x, y| {
        let at = block_idx() * 8 + thread_idx();
        vec![store(y, vec![thread_idx()], load(x, vec![at]) + b())]
    });
    assert_eq!(side_by_side_like_the_walker(&shared), 1);
    // One block loads what another stores, in the same leaf.
    let read = grid_kernel(4, 32, |x, y| {
        let at = block_idx() * 8 + thread_idx();
        let next = (block_idx() + 1) % 4 * 8 + thread_idx();
        vec![store(
            y,
            vec![at],
            load(y, vec![next]) + load(x, vec![thread_idx()]),
        )]
    });
    assert_eq!(side_by_side_like_the_walker(&read), 1);
}

#[test]
fn blocks_whose_elements_lie_far_apart_run_side_by_side() {
    // Block `b` stores `Y[600_000 b + t]`: the two blocks are apart, though
    // the elements they reach spread over more than four times the grid
    // proof's element budget.
    let far = grid_kernel(2, 600_008, |x, y| {
        let at = block_idx() * 600_000 + thread_idx();
        let b = block_idx().cast(DType::F32);
        vec![store(y, vec![at], load(x, vec![thread_idx()]) + b)]
    });
    assert_eq!(side_by_side_like_the_walker(&far), 2);
}

#[test]
fn a_block_reading_in_an_early_range_what_another_stores_later_runs_one_by_one() {
    // Block `b` reads `Y[(b + 1) % 4, t]` before a barrier and stores
    // `Y[b, t]` after it: one by one, the last block reads what the first
    // stored. Each range on its own keeps the blocks apart.
    for next in [block_idx() + 1, block_idx()] {
        let mut kb = KernelBuilder::new("early_late", 4, 8);
        let x = kb.param("X", DType::F32, &[32]);
        let y = kb.param("Y", DType::F32, &[32]);
        let r = kb.local("R", DType::F32, &[1]);
        let at = block_idx() * 8 + thread_idx();
        let there = next.clone() % 4 * 8 + thread_idx();
        kb.push(store(&r, vec![c(0)], load(&y, vec![there])));
        kb.push(sync_threads());
        kb.push(store(
            &y,
            vec![at.clone()],
            load(&r, vec![c(0)]) * 2.0f32 + load(&x, vec![at]),
        ));
        let expected = if next == block_idx() { 4 } else { 1 };
        assert_eq!(
            side_by_side_like_the_walker(&kb.build()),
            expected,
            "{next}"
        );
    }
}

#[test]
fn a_barrier_loop_whose_extent_depends_on_the_block_runs_one_by_one() {
    // Block `b` runs `b + 1` iterations around a barrier — the same for all
    // its threads, not for the grid.
    for extent in [block_idx() + 1, c(3)] {
        let mut kb = KernelBuilder::new("block_trips", 3, 8);
        let x = kb.param("X", DType::F32, &[24]);
        let y = kb.param("Y", DType::F32, &[24]);
        let s = kb.shared("S", DType::F32, &[8]);
        let at = || block_idx() * 8 + thread_idx();
        kb.push(for_range("k", extent.clone(), |k| {
            seq(vec![
                store(
                    &s,
                    vec![thread_idx()],
                    load(&x, vec![at()]) + k.cast(DType::F32),
                ),
                sync_threads(),
                store(
                    &y,
                    vec![at()],
                    load(&y, vec![at()]) + load(&s, vec![(thread_idx() + 1) % 8]),
                ),
                sync_threads(),
            ])
        }));
        let expected = if extent == c(3) { 3 } else { 1 };
        assert_eq!(
            side_by_side_like_the_walker(&kb.build()),
            expected,
            "{extent}"
        );
    }
}

#[test]
fn a_launch_with_aliased_buffers_runs_its_blocks_one_by_one() {
    // `R = X[8b + t]`, a barrier, `Y[8b + t + 1] = R + 1` keeps blocks
    // apart — unless `Y` is bound to the arena window `X` is, where block
    // `b` reads before its barrier what block `b - 1` wrote after its own
    // when blocks run one by one.
    let mut kb = KernelBuilder::new("aliased_blocks", 4, 8);
    let x = kb.param("X", DType::F32, &[33]);
    let y = kb.param("Y", DType::F32, &[33]);
    let r = kb.local("R", DType::F32, &[1]);
    let at = || block_idx() * 8 + thread_idx();
    kb.push(store(&r, vec![c(0)], load(&x, vec![at()])));
    kb.push(sync_threads());
    kb.push(store(&y, vec![at() + 1], load(&r, vec![c(0)]) + 1.0f32));
    let kernel = kb.build();
    assert_eq!(Program::lower(&kernel).side_by_side(), 4);
    let gpu = Gpu::default();
    for y_at in [0, 1, 8, 33] {
        let mut walker_mem = DeviceMemory::new();
        walker_mem.reserve_arena(66);
        walker_mem.bind_view("X", 0, 33);
        walker_mem.bind_view("Y", y_at, 33);
        walker_mem
            .get_mut("X")
            .expect("bound")
            .copy_from_slice(&seeded(33, 5));
        let mut program_mem = walker_mem.clone();
        walker::run_kernel(&kernel, &mut walker_mem, gpu.spec()).expect("walker runs");
        gpu.run(&kernel, &mut program_mem).expect("program runs");
        assert_same_memory(&walker_mem, &program_mem, &format!("Y at {y_at}"));
    }
}
