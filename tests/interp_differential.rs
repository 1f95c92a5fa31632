//! Differential test of the flat `hidet_sim::Program` executor against the
//! tree-walking interpreter it replaced (`support/walker.rs`, kept for one PR
//! as a test-only oracle).
//!
//! Two contracts:
//!
//! * **bit-identical memory** — every kernel of the fuzz suite's random
//!   graphs, of the decode step graph, of a prefill chunk graph and of the
//!   tuned batch-8 `head` / `cnn_block` models leaves every device buffer
//!   equal by `f32::to_bits` on both interpreters;
//! * **identical faults** — a kernel that faults returns the same
//!   `SimError` variant and payload from both, and a kernel whose fault sits
//!   in an untaken branch or a zero-trip loop runs clean on both (faults are
//!   raised when reached, never at lowering time).

use hidet::prelude::*;
use hidet_graph::GraphBuilder;
use hidet_ir::prelude::*;
use hidet_sim::{DeviceMemory, SimError};
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
            assert_eq!(program.name(), kernel.name());
            walker::run_kernel(kernel, &mut walker_mem, gpu.spec()).expect("walker runs");
            gpu.launch(program, &program.resolve(&program_mem), &mut program_mem)
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

/// Statement plus expression nodes of a kernel body — the quantity the
/// benchmark reports as `ir.kernel_nodes`.
fn ir_nodes(body: &Stmt) -> usize {
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
    let mut expressions = 0;
    hidet_ir::visit::visit_exprs(body, &mut |_| expressions += 1);
    statements(body) + expressions
}

/// Lowering never unrolls: for the serving stack's kernels — the benchmark's
/// decode step graph and its tuned batch-8 one-shot models — a program is no
/// larger than the IR it came from.
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
        let plan = compiled.plan();
        let lowered = plan.groups().iter().flat_map(|g| &g.kernels);
        for (kernel, program) in lowered.zip(plan.programs()) {
            let nodes = ir_nodes(kernel.body());
            assert!(
                program.op_count() <= nodes,
                "{}: {} instructions for {nodes} IR nodes",
                kernel.name(),
                program.op_count()
            );
        }
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
