//! Functional interpreter for `hidet-ir` kernels: lower once, run flat.
//!
//! A kernel is lowered **once** into a [`Program`] ([`Program::lower`]) and
//! the program is what runs, any number of times. Lowering resolves
//! everything a tree walk would look up by name on every access:
//!
//! * variables become slots of a per-thread register file;
//! * parameter, shared and register buffers become indices into flat
//!   storage (device memory by dense [`crate::BufferId`], one shared array
//!   per block, one register-array block per thread) with row-major strides
//!   precomputed per access;
//! * "does this subtree contain a barrier" becomes structure: the statements
//!   that do form a small *lockstep skeleton*, everything between them is a
//!   straight instruction array;
//! * literals are folded.
//!
//! # The three expression classes
//!
//! Every expression is classified by the coarsest level its value is fixed
//! at, and an expression that **cannot fault** is computed there instead of
//! where it is written:
//!
//! * **block-uniform** — a function of `blockIdx` and constants (the tile
//!   coordinates `blockIdx / tiles_n % tiles_m` of every schedule): once per
//!   block;
//! * **thread-invariant** — a function of `threadIdx` and block-uniform
//!   values: once per thread per block;
//! * **varying** — anything that reads a loop variable or memory, or can
//!   fault: in place, every time.
//!
//! The middle class is large because of the paradigm this repository
//! reproduces: a task mapping makes every worker → task index a *static*
//! function of `threadIdx` (`threadIdx / 8`, `threadIdx % 32 / 8`, the
//! epilogue index trees of the fused matmul kernels), so the index
//! arithmetic inside the hot loops is almost entirely thread-invariant and
//! leaves them. Identical hoisted terms are computed once.
//!
//! # The trap rule
//!
//! Lowering never fails. A fault it can already see — an unbound variable,
//! an access with the wrong number of indices — becomes a *trap*
//! instruction at the point the tree walk would have raised it, and is
//! raised only if execution gets there: a kernel whose fault sits in an
//! untaken branch or a zero-trip loop runs clean. For the same reason only
//! expressions that cannot fault are hoisted or folded (`x / 0` stays where
//! it is written), and "cannot fault" is decided from static operand types
//! by probing [`crate::Value::binary`] / [`crate::Value::unary`] themselves, which remain
//! the only definition of arithmetic.
//!
//! # What "bit-identical" covers
//!
//! Blocks run in grid order; a barrier-free statement is run by every thread
//! to completion in thread order; statements around barriers run in lockstep
//! with loop extents and branch conditions required to agree across the
//! block; every `f32` operation happens in the order the IR spells, through
//! the same `Value` functions. Device memory after a launch is therefore
//! equal bit for bit to what the tree-walking interpreter this replaced
//! produced, and every fault it reported is reported with the same
//! [`SimError`] variant and payload (`tests/interp_differential.rs` holds
//! both to that, against the walker kept as a test-only oracle). Three
//! deliberate differences, all on ill-formed IR the builders cannot produce:
//! an access whose index count differs from its buffer's rank is a
//! `TypeError` when reached (the walker silently dropped the surplus); an
//! access whose own shape reaches past its buffer's declaration is a
//! `TypeError` (the walker panicked); and a name bound by a `Let` that is
//! not a statement of a sequence — an `If` branch, a loop body — is
//! unbound afterwards (the walker kept it for the paths that ran it).
//! `i64` overflow is outside the contract, as it was: debug builds panic on
//! it wherever the operation runs.

mod exec;
mod lower;
mod program;

use std::fmt;

pub(crate) use exec::launch;
pub use program::Program;

/// Errors produced by the simulator (interpreter and cost model).
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A kernel parameter has no corresponding buffer in device memory.
    MissingBuffer(String),
    /// A device buffer has the wrong number of elements for its parameter.
    BufferSizeMismatch {
        /// Buffer name.
        name: String,
        /// Elements the kernel expects.
        expected: usize,
        /// Elements actually allocated.
        actual: usize,
    },
    /// An access index fell outside a buffer dimension.
    OutOfBounds {
        /// Buffer name.
        buffer: String,
        /// Dimension of the offending index.
        dim: usize,
        /// The index value.
        index: i64,
        /// The dimension extent.
        extent: i64,
    },
    /// Integer division or modulo by zero.
    DivByZero,
    /// An unbound variable was referenced.
    UnboundVar(String),
    /// A type error (e.g. boolean used as an index).
    TypeError(String),
    /// Threads disagreed on a loop extent or branch condition that encloses a
    /// barrier — undefined behaviour on real hardware, an error here.
    NonUniformControl(String),
    /// The kernel exceeds a device resource limit and cannot launch.
    ResourceLimit(String),
    /// A loop extent is not a compile-time constant where one is required.
    NonConstExtent(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MissingBuffer(name) => write!(f, "no device buffer named {name}"),
            SimError::BufferSizeMismatch { name, expected, actual } => write!(
                f,
                "buffer {name} has {actual} elements but the kernel expects {expected}"
            ),
            SimError::OutOfBounds { buffer, dim, index, extent } => write!(
                f,
                "index {index} out of bounds for dimension {dim} (extent {extent}) of buffer {buffer}"
            ),
            SimError::DivByZero => f.write_str("integer division by zero"),
            SimError::UnboundVar(name) => write!(f, "unbound variable {name}"),
            SimError::TypeError(msg) => write!(f, "type error: {msg}"),
            SimError::NonUniformControl(msg) => {
                write!(f, "non-uniform control flow around a barrier: {msg}")
            }
            SimError::ResourceLimit(msg) => write!(f, "resource limit exceeded: {msg}"),
            SimError::NonConstExtent(msg) => write!(f, "non-constant loop extent: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeviceMemory;
    use hidet_ir::prelude::*;

    fn run(kernel: &Kernel, mem: &mut DeviceMemory) -> Result<(), SimError> {
        crate::Gpu::default().run(kernel, mem)
    }

    #[test]
    fn elementwise_double() {
        let mut kb = KernelBuilder::new("double", 2, 4);
        let x = kb.param("X", DType::F32, &[8]);
        let i = block_idx() * 4 + thread_idx();
        kb.push(store(&x, vec![i.clone()], load(&x, vec![i]) * 2.0f32));
        let kernel = kb.build();
        let mut mem = DeviceMemory::new();
        mem.alloc("X", &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        run(&kernel, &mut mem).unwrap();
        assert_eq!(mem.read("X"), &[2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0]);
    }

    #[test]
    fn shared_memory_reversal_with_barrier() {
        // Each thread writes smem[t], barrier, reads smem[blockDim-1-t].
        let mut kb = KernelBuilder::new("reverse", 1, 8);
        let x = kb.param("X", DType::F32, &[8]);
        let y = kb.param("Y", DType::F32, &[8]);
        let s = kb.shared("S", DType::F32, &[8]);
        kb.push(store(&s, vec![thread_idx()], load(&x, vec![thread_idx()])));
        kb.push(sync_threads());
        kb.push(store(
            &y,
            vec![thread_idx()],
            load(&s, vec![c(7) - thread_idx()]),
        ));
        let kernel = kb.build();
        let mut mem = DeviceMemory::new();
        mem.alloc("X", &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        mem.alloc_zeroed("Y", 8);
        run(&kernel, &mut mem).unwrap();
        assert_eq!(mem.read("Y"), &[7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.0]);
    }

    #[test]
    fn register_buffers_are_private_per_thread() {
        let mut kb = KernelBuilder::new("private", 1, 4);
        let y = kb.param("Y", DType::F32, &[4]);
        let r = kb.local("R", DType::F32, &[1]);
        kb.push(store(&r, vec![c(0)], thread_idx().cast(DType::F32)));
        kb.push(store(&y, vec![thread_idx()], load(&r, vec![c(0)])));
        let kernel = kb.build();
        let mut mem = DeviceMemory::new();
        mem.alloc_zeroed("Y", 4);
        run(&kernel, &mut mem).unwrap();
        assert_eq!(mem.read("Y"), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn loop_accumulation() {
        let mut kb = KernelBuilder::new("sum", 1, 1);
        let y = kb.param("Y", DType::F32, &[1]);
        kb.push(store(&y, vec![c(0)], fconst(0.0)));
        kb.push(for_range("i", 5, |i| {
            store(&y, vec![c(0)], load(&y, vec![c(0)]) + i.cast(DType::F32))
        }));
        let kernel = kb.build();
        let mut mem = DeviceMemory::new();
        mem.alloc_zeroed("Y", 1);
        run(&kernel, &mut mem).unwrap();
        assert_eq!(mem.read("Y"), &[10.0]);
    }

    #[test]
    fn let_bindings_scope_within_seq() {
        let mut kb = KernelBuilder::new("lets", 1, 2);
        let y = kb.param("Y", DType::F32, &[2]);
        let v = var("v");
        kb.push(seq(vec![
            let_(&v, thread_idx() * 10),
            store(&y, vec![thread_idx()], v.expr().cast(DType::F32)),
        ]));
        let kernel = kb.build();
        let mut mem = DeviceMemory::new();
        mem.alloc_zeroed("Y", 2);
        run(&kernel, &mut mem).unwrap();
        assert_eq!(mem.read("Y"), &[0.0, 10.0]);
    }

    #[test]
    fn out_of_bounds_detected() {
        let mut kb = KernelBuilder::new("oob", 1, 4);
        let x = kb.param("X", DType::F32, &[2]);
        kb.push(store(&x, vec![thread_idx()], fconst(1.0)));
        let kernel = kb.build();
        let mut mem = DeviceMemory::new();
        mem.alloc_zeroed("X", 2);
        let err = run(&kernel, &mut mem).unwrap_err();
        assert!(matches!(err, SimError::OutOfBounds { .. }), "{err}");
    }

    #[test]
    fn predicated_store_stays_in_bounds() {
        let mut kb = KernelBuilder::new("pred", 1, 4);
        let x = kb.param("X", DType::F32, &[2]);
        kb.push(if_then(
            thread_idx().lt(2),
            store(&x, vec![thread_idx()], fconst(1.0)),
        ));
        let kernel = kb.build();
        let mut mem = DeviceMemory::new();
        mem.alloc_zeroed("X", 2);
        run(&kernel, &mut mem).unwrap();
        assert_eq!(mem.read("X"), &[1.0, 1.0]);
    }

    #[test]
    fn missing_buffer_reported() {
        let mut kb = KernelBuilder::new("k", 1, 1);
        kb.param("X", DType::F32, &[1]);
        let kernel = kb.build();
        let mut mem = DeviceMemory::new();
        let err = run(&kernel, &mut mem).unwrap_err();
        assert_eq!(err, SimError::MissingBuffer("X".to_string()));
    }

    #[test]
    fn size_mismatch_reported() {
        let mut kb = KernelBuilder::new("k", 1, 1);
        kb.param("X", DType::F32, &[4]);
        let kernel = kb.build();
        let mut mem = DeviceMemory::new();
        mem.alloc_zeroed("X", 2);
        let err = run(&kernel, &mut mem).unwrap_err();
        assert!(matches!(err, SimError::BufferSizeMismatch { .. }));
    }

    #[test]
    fn non_uniform_extent_around_barrier_rejected() {
        // for i in 0..threadIdx { sync } — thread-dependent extent around a barrier.
        let mut kb = KernelBuilder::new("bad", 1, 4);
        kb.param("X", DType::F32, &[1]);
        kb.push(for_range("i", thread_idx(), |_| sync_threads()));
        let kernel = kb.build();
        let mut mem = DeviceMemory::new();
        mem.alloc_zeroed("X", 1);
        let err = run(&kernel, &mut mem).unwrap_err();
        assert!(matches!(err, SimError::NonUniformControl(_)), "{err}");
    }

    #[test]
    fn shared_memory_limit_enforced() {
        let mut kb = KernelBuilder::new("big", 1, 32);
        kb.param("X", DType::F32, &[1]);
        kb.shared("S", DType::F32, &[64 * 1024]); // 256 KiB > limit
        let kernel = kb.build();
        let mut mem = DeviceMemory::new();
        mem.alloc_zeroed("X", 1);
        let err = run(&kernel, &mut mem).unwrap_err();
        assert!(matches!(err, SimError::ResourceLimit(_)), "{err}");
    }

    #[test]
    fn double_buffered_pipeline_is_functionally_correct() {
        // A miniature double-buffered sum over 4 tiles of 8 elements:
        // smem[2][8], preload tile 0, then overlap "load next" and "consume".
        let mut kb = KernelBuilder::new("dbuf", 1, 8);
        let x = kb.param("X", DType::F32, &[32]);
        let y = kb.param("Y", DType::F32, &[8]);
        let s = kb.shared("S", DType::F32, &[2, 8]);
        let r = kb.local("Acc", DType::F32, &[1]);
        let t = thread_idx();
        kb.push(store(&r, vec![c(0)], fconst(0.0)));
        kb.push(store(&s, vec![c(0), t.clone()], load(&x, vec![t.clone()])));
        kb.push(sync_threads());
        kb.push(for_range("k", 3, |k| {
            let p = k.clone() % 2;
            let q = (k.clone() + 1) % 2;
            seq(vec![
                // Preload next tile into the other buffer.
                store(
                    &s,
                    vec![q, t.clone()],
                    load(&x, vec![(k.clone() + 1) * 8 + t.clone()]),
                ),
                // Consume the current buffer.
                store(
                    &r,
                    vec![c(0)],
                    load(&r, vec![c(0)]) + load(&s, vec![p, t.clone()]),
                ),
                sync_threads(),
            ])
        }));
        kb.push(store(
            &r,
            vec![c(0)],
            load(&r, vec![c(0)]) + load(&s, vec![c(3) % 2, t.clone()]),
        ));
        kb.push(store(&y, vec![t.clone()], load(&r, vec![c(0)])));
        let kernel = kb.build();
        let mut mem = DeviceMemory::new();
        let xs: Vec<f32> = (0..32).map(|i| i as f32).collect();
        mem.alloc("X", &xs);
        mem.alloc_zeroed("Y", 8);
        run(&kernel, &mut mem).unwrap();
        // Thread t sums x[t], x[8+t], x[16+t], x[24+t] = 4t + 48.
        let expect: Vec<f32> = (0..8).map(|t| 4.0 * t as f32 + 48.0).collect();
        assert_eq!(mem.read("Y"), &expect[..]);
    }

    // ---- what the lowering promises, beyond the walker's behaviour ---------

    use super::program::{Node, Op, MEM};

    /// The skeleton's loop and branch nodes, in lowering order.
    fn controls(p: &Program) -> Vec<bool> {
        let uniform = |n: &Node| match n {
            Node::For { extent, .. } => Some(extent.uniform),
            Node::If { cond, .. } => Some(cond.uniform),
            _ => None,
        };
        p.nodes.iter().filter_map(uniform).collect()
    }

    #[test]
    fn proven_uniform_controls_are_evaluated_once() {
        // A literal extent, a condition on the lockstep loop variable and a
        // let-bound function of blockIdx are all provably block-uniform...
        let mut kb = KernelBuilder::new("uniform", 2, 4);
        kb.param("X", DType::F32, &[1]);
        let tiles = var("tiles");
        kb.push(let_(&tiles, block_idx() % 2 + 1));
        kb.push(for_range("k", 3, |k| {
            seq(vec![
                if_then((k + 1).lt(3), sync_threads()),
                for_range("j", tiles.expr(), |_| sync_threads()),
            ])
        }));
        let p = Program::lower(&kb.build());
        assert_eq!(controls(&p), vec![true, true, true]);
        // ...while anything that reads threadIdx, memory, or can fault keeps
        // the all-threads agreement check.
        let mut kb = KernelBuilder::new("unproven", 1, 4);
        let x = kb.param("X", DType::F32, &[4]);
        kb.push(for_range("i", thread_idx() / 8 + 1, |_| sync_threads()));
        kb.push(if_then(load(&x, vec![c(0)]).lt(1.0f32), sync_threads()));
        kb.push(for_range("i", c(4) / block_idx().max(1), |_| {
            sync_threads()
        }));
        let kernel = kb.build();
        assert_eq!(controls(&Program::lower(&kernel)), vec![false; 3]);
        // Unproven is not rejected: these agree across the block and run.
        let mut mem = DeviceMemory::new();
        mem.alloc_zeroed("X", 4);
        run(&kernel, &mut mem).unwrap();
    }

    #[test]
    fn task_mapping_index_arithmetic_leaves_the_loops() {
        // Every index below is a static function of threadIdx / blockIdx; the
        // 64-trip loop body should be left with the accumulation alone.
        let mut kb = KernelBuilder::new("hoist", 4, 32);
        let x = kb.param("X", DType::F32, &[4, 32]);
        let acc = kb.local("Acc", DType::F32, &[2]);
        let lane = thread_idx() % 32 / 8 * 8 + thread_idx() % 8;
        kb.push(for_range("k", 64, |_| {
            store(
                &acc,
                vec![thread_idx() / 16],
                load(&acc, vec![thread_idx() / 16]) + load(&x, vec![block_idx() % 4, lane.clone()]),
            )
        }));
        let p = Program::lower(&kb.build());
        let body = &p.code[p.thread_code_end as usize..];
        assert!(
            matches!(
                body,
                [Op::LoopEnter { .. }, Op::Update { src, .. }, Op::LoopNext { .. }] if src & MEM != 0
            ),
            "{body:?}"
        );
        // `blockIdx % 4` once per block; the lane arithmetic once per thread,
        // its repeated `threadIdx % 32`-style terms shared.
        assert_eq!(p.block_code.len(), 1, "{:?}", p.block_code);
        assert!(
            p.thread_code_end <= 6,
            "{:?}",
            &p.code[..p.thread_code_end as usize]
        );
    }

    #[test]
    fn constants_fold() {
        let mut kb = KernelBuilder::new("fold", 1, 1);
        let x = kb.param("X", DType::F32, &[4]);
        kb.push(store(&x, vec![c(7) % 4], (c(2) * 3 + 1).cast(DType::F32)));
        let kernel = kb.build();
        let p = Program::lower(&kernel);
        assert_eq!(p.code.len(), 1, "{:?}", p.code);
        assert!(p.block_code.is_empty());
        let mut mem = DeviceMemory::new();
        mem.alloc_zeroed("X", 4);
        run(&kernel, &mut mem).unwrap();
        assert_eq!(mem.read("X"), &[0.0, 0.0, 0.0, 7.0]);
    }

    #[test]
    fn rank_mismatch_is_a_type_error_when_reached() {
        // Built without the asserting `load` / `store` helpers. The tree
        // walker silently ignored the surplus; this is the one access fault
        // the two interpreters deliberately disagree on.
        let build = |limit: i64| {
            let mut kb = KernelBuilder::new("rank", 1, 4);
            let x = kb.param("X", DType::F32, &[2, 2]);
            let short = Expr::Load {
                buffer: x.clone(),
                indices: vec![c(1)],
            };
            let long = Stmt::Store {
                buffer: x.clone(),
                indices: vec![c(0), c(0), thread_idx()],
                value: short,
            };
            kb.push(if_then(thread_idx().lt(limit), long));
            kb.build()
        };
        let mut mem = DeviceMemory::new();
        mem.alloc_zeroed("X", 4);
        run(&build(0), &mut mem).unwrap();
        let err = run(&build(4), &mut mem).unwrap_err();
        assert!(
            matches!(err, SimError::TypeError(ref m) if m.contains("rank-2")),
            "{err}"
        );
    }

    #[test]
    fn access_reaching_past_its_declaration_is_a_type_error() {
        // The access carries a larger shape than the kernel declared for the
        // name: in range of its own shape, out of range of the storage.
        let mut kb = KernelBuilder::new("alias", 1, 1);
        let y = kb.param("Y", DType::F32, &[1]);
        kb.shared("S", DType::F32, &[2]);
        kb.shared("T", DType::F32, &[2]);
        let wide = Buffer::new("S", MemScope::Shared, DType::F32, &[4]);
        kb.push(store(&wide, vec![c(3)], fconst(1.0)));
        kb.push(store(&y, vec![c(0)], load(&wide, vec![c(1)])));
        let mut mem = DeviceMemory::new();
        mem.alloc_zeroed("Y", 1);
        let err = run(&kb.build(), &mut mem).unwrap_err();
        assert!(
            matches!(err, SimError::TypeError(ref m) if m.contains("past its end")),
            "{err}"
        );
    }

    #[test]
    fn let_outside_a_sequence_binds_nothing() {
        // `if t < 4 { let v = 1 }; X[t] = v` — the walker kept `v` alive on
        // the paths that ran the `let`; here the name is simply unbound.
        let mut kb = KernelBuilder::new("leak", 1, 4);
        let x = kb.param("X", DType::F32, &[4]);
        let v = var("v");
        kb.push(if_then(thread_idx().lt(4), let_(&v, c(1))));
        kb.push(store(&x, vec![thread_idx()], v.expr().cast(DType::F32)));
        let mut mem = DeviceMemory::new();
        mem.alloc_zeroed("X", 4);
        let err = run(&kb.build(), &mut mem).unwrap_err();
        assert_eq!(err, SimError::UnboundVar("v".into()));
    }

    #[test]
    fn deferred_loads_keep_their_index_registers() {
        // The left load is proven in bounds and left to the `+`; the right
        // operand's arithmetic must not reuse the temporary holding its
        // (loop-dependent) index in the meantime.
        let mut kb = KernelBuilder::new("defer", 1, 1);
        let x = kb.param("X", DType::F32, &[8]);
        let y = kb.param("Y", DType::F32, &[4]);
        kb.push(for_range("i", 4, |i| {
            let left = load(&x, vec![i.clone() * 2 + 1]);
            let right = ((i.clone() + 3) * (i.clone() + 5)).cast(DType::F32);
            store(&y, vec![i], left + right)
        }));
        let mut mem = DeviceMemory::new();
        mem.alloc("X", &[0.0, 10.0, 0.0, 20.0, 0.0, 30.0, 0.0, 40.0]);
        mem.alloc_zeroed("Y", 4);
        run(&kb.build(), &mut mem).unwrap();
        assert_eq!(mem.read("Y"), &[25.0, 44.0, 65.0, 88.0]);
    }

    #[test]
    fn relaunching_a_program_needs_no_names() {
        let mut kb = KernelBuilder::new("twice", 2, 4);
        let x = kb.param("X", DType::F32, &[8]);
        let i = block_idx() * 4 + thread_idx();
        kb.push(store(&x, vec![i.clone()], load(&x, vec![i]) + 1.0f32));
        let program = Program::lower(&kb.build());
        let gpu = crate::Gpu::default();
        let mut mem = DeviceMemory::new();
        mem.alloc_zeroed("X", 8);
        let buffers = program.resolve(&mem);
        for _ in 0..3 {
            gpu.launch(&program, &buffers, &mut mem).unwrap();
        }
        assert_eq!(mem.read("X"), &[3.0; 8]);
        // Ids from another memory, or none at all, are launch errors.
        let err = gpu.launch(&program, &[], &mut mem).unwrap_err();
        assert_eq!(err, SimError::MissingBuffer("X".into()));
        let mut other = DeviceMemory::new();
        let err = gpu.launch(&program, &buffers, &mut other).unwrap_err();
        assert!(
            matches!(err, SimError::BufferSizeMismatch { actual: 0, .. }),
            "{err}"
        );
    }
}
