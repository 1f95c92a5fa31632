//! The lowering's structural unit tests (what unrolls, what stays a loop,
//! which elements are operands, when `MulAdd` forms, what a loop prologue is
//! left with) and the interpreter's functional ones. The differential tests
//! against the tree walker are in `tests/interp_differential.rs`.

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

use super::program::{Node, Op, Space, ELEMENT, MEM};
use hidet_ir::BinOp;

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
    // (Two blocks: the `blockIdx` of a one-block grid is a constant.)
    let mut kb = KernelBuilder::new("unproven", 2, 4);
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
    // body of the loop — of more trips than the unrolling budget has
    // instructions — should be left with the accumulation alone.
    let mut kb = KernelBuilder::new("hoist", 4, 32);
    let x = kb.param("X", DType::F32, &[4, 32]);
    let acc = kb.local("Acc", DType::F32, &[2]);
    let lane = thread_idx() % 32 / 8 * 8 + thread_idx() % 8;
    kb.push(for_range("k", 1024, |_| {
        store(
            &acc,
            vec![thread_idx() / 16],
            load(&acc, vec![thread_idx() / 16]) + load(&x, vec![block_idx() % 4, lane.clone()]),
        )
    }));
    let p = Program::lower(&kb.build());
    let body = body(&p);
    assert!(
        matches!(
            body,
            [Op::LoopEnter { .. }, Op::Update { src, .. }, Op::LoopNext { .. }] if src & MEM != 0
        ),
        "{body:?}"
    );
    // `blockIdx % 4` and the row offset it stands for once per block; the
    // lane arithmetic once per thread, its repeated `threadIdx % 32`-style
    // terms shared, and one addition collapsing row and lane into the
    // load's base register.
    assert_eq!(p.block_code.len(), 2, "{:?}", p.block_code);
    assert!(
        p.thread_code_end <= 7,
        "{:?}",
        &p.code[..p.thread_code_end as usize]
    );
}

/// The body fragments of a barrier-free kernel.
fn body(p: &Program) -> &[Op] {
    &p.code[p.thread_code_end as usize..]
}

fn is_loop(op: &Op) -> bool {
    matches!(op, Op::LoopEnter { .. } | Op::LoopNext { .. })
}

#[test]
fn constant_tile_loops_unroll_into_multiply_adds() {
    // The register tile of every matmul schedule: a `repeat(4, 4)` task
    // mapping makes both extents literals. Built up to `phases`: fill
    // the fragments, accumulate the tile, write it out.
    let build = |phases: usize| {
        let mut kb = KernelBuilder::new("tile", 1, 2);
        let x = kb.param("X", DType::F32, &[2, 4]);
        let y = kb.param("Y", DType::F32, &[2, 16]);
        let a = kb.local("A", DType::F32, &[4]);
        let b = kb.local("B", DType::F32, &[4]);
        let acc = kb.local("Acc", DType::F32, &[4, 4]);
        let fill = for_range("i", 4, |i| {
            seq(vec![
                store(&a, vec![i.clone()], load(&x, vec![thread_idx(), i.clone()])),
                store(&b, vec![i.clone()], load(&a, vec![i.clone()]) + 1.0f32),
            ])
        });
        let tile = for_range("i", 4, |i| {
            for_range("j", 4, |j| {
                let at = vec![i.clone(), j.clone()];
                let product = load(&a, vec![i.clone()]) * load(&b, vec![j]);
                store(&acc, at.clone(), load(&acc, at) + product)
            })
        });
        let write = for_range("i", 4, |i| {
            for_range("j", 4, |j| {
                let value = load(&acc, vec![i.clone(), j.clone()]);
                store(&y, vec![thread_idx(), i.clone() * 4 + j], value)
            })
        });
        for phase in [fill, tile, write].into_iter().take(phases) {
            kb.push(phase);
        }
        kb.build()
    };
    let kernel = build(3);
    let p = Program::lower(&kernel);
    assert!(!p.code.iter().any(is_loop), "{:?}", p.code);
    // No index arithmetic is left: the only `Bin`s are the fill's four
    // float additions.
    let bins = |op: &&Op| matches!(op, Op::Bin { .. });
    assert_eq!(body(&p).iter().filter(bins).count(), 4, "{:?}", body(&p));
    // Sixteen multiply-adds and nothing else, every operand a register-
    // array element named outright — a register, as on the device — and
    // no `Access` behind it: `A` and `B` take the first eight elements
    // of a thread's arrays.
    let [start, end] = [1, 2].map(|phases| body(&Program::lower(&build(phases))).len());
    let tile = &body(&p)[start..end];
    assert_eq!(tile.len(), 16, "{tile:?}");
    for (n, op) in tile.iter().enumerate() {
        let Op::MulAdd { to, a, b } = *op else {
            panic!("{op:?}");
        };
        assert_eq!(to & a & b & (MEM | ELEMENT), MEM | ELEMENT, "{op:?}");
        let offsets = [to, a, b].map(|element| (element & !(MEM | ELEMENT)) as usize);
        assert_eq!(offsets, [8 + n, n / 4, 4 + n % 4]);
    }
    // What is left in the table is what reads and writes `X` and `Y`.
    let global = |a: &super::program::Access| matches!(a.space, Space::Global(_));
    assert!(p.accesses.iter().all(global), "{:?}", p.accesses);
    let mut mem = DeviceMemory::new();
    mem.alloc("X", &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
    mem.alloc_zeroed("Y", 32);
    run(&kernel, &mut mem).unwrap();
    let x = [[1.0f32, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]];
    let expect = x.map(|row| row.map(|a| row.map(|b| a * (b + 1.0))));
    assert_eq!(mem.read("Y"), expect.as_flattened().as_flattened());
}

// ---- every index at the level its task mapping fixes it ---------------

/// A miniature of the matmul template: 8 threads a block, four tiles of
/// `X` double-buffered through shared memory behind a predicated,
/// clamped load, a two-element fragment and accumulator per thread.
fn double_buffered_tile(grid: i64) -> Kernel {
    let mut kb = KernelBuilder::new("tile", grid, 8);
    let x = kb.param("X", DType::F32, &[grid, 30]);
    let y = kb.param("Y", DType::F32, &[grid, 8, 2]);
    let s = kb.shared("S", DType::F32, &[2, 8]);
    let ld = kb.local("Ld", DType::F32, &[1]);
    let frag = kb.local("Frag", DType::F32, &[2]);
    let acc = kb.local("Acc", DType::F32, &[2]);
    let t = thread_idx;
    let fetch = |tile: Expr| {
        let at = tile * 8 + t();
        let element = load(&x, vec![block_idx(), at.clone().min(29)]);
        at.lt(30).select(element, 0.0f32)
    };
    kb.push(store(&s, vec![c(0), t()], fetch(c(0))));
    kb.push(sync_threads());
    kb.push(for_range("k0", 4, |k0| {
        let next = k0.clone() + 1;
        let from = |lane: Expr| load(&s, vec![k0.clone() % 2, lane]);
        seq(vec![
            if_then(
                next.clone().lt(4),
                store(&ld, vec![c(0)], fetch(next.clone())),
            ),
            for_range("kk", 2, |kk| {
                seq(vec![
                    store(&frag, vec![c(0)], from(t() / 2 * 2 + kk)),
                    store(&frag, vec![c(1)], from(t())),
                    for_range("p", 2, |p| {
                        let product = load(&frag, vec![p.clone()]) * load(&frag, vec![c(1)]);
                        store(&acc, vec![p.clone()], load(&acc, vec![p]) + product)
                    }),
                ])
            }),
            if_then(
                next.clone().lt(4),
                store(&s, vec![next % 2, t()], load(&ld, vec![c(0)])),
            ),
            sync_threads(),
        ])
    }));
    kb.push(for_range("p", 2, |p| {
        store(&y, vec![block_idx(), t(), p.clone()], load(&acc, vec![p]))
    }));
    kb.build()
}

/// The barrier-free leaves of a program, in lowering order.
fn leaves(p: &Program) -> Vec<&[Op]> {
    let code = |n: &Node| match *n {
        Node::Thread { start, end } => Some(&p.code[start as usize..end as usize]),
        _ => None,
    };
    p.nodes.iter().filter_map(code).collect()
}

fn element(operand: u32) -> bool {
    operand & (MEM | ELEMENT) == MEM | ELEMENT
}

#[test]
fn the_hot_leaf_of_a_tile_kernel_is_loads_and_multiply_adds() {
    let p = Program::lower(&double_buffered_tile(1));
    let [preload, prefetch, tile, commit, write] = leaves(&p)[..] else {
        panic!("{:?}", p.nodes);
    };
    // A predicated, clamped load: the predicate and the clamped address
    // are lane values, so neither side of the select needs code and the
    // select reads memory itself — no branch around a load.
    assert!(
        matches!(preload, [Op::Select { a, .. }, Op::Store { .. }] if a & MEM != 0 && !element(*a)),
        "{preload:?}"
    );
    // The same under `k0`: predicate and address live in the loop's
    // prologue, and the one branch is the `if` statement's.
    assert!(
        matches!(
            prefetch,
            [Op::Branch { select: false, .. }, Op::Select { a, .. }, Op::Store { to, .. }]
                if a & MEM != 0 && element(*to)
        ),
        "{prefetch:?}"
    );
    assert!(
        matches!(commit, [Op::Branch { .. }, Op::Store { src, .. }] if element(*src)),
        "{commit:?}"
    );
    // The `k0` leaf: `kk` and `p` unrolled, every shared-memory address
    // an offset from a prologue register, every fragment and accumulator
    // element an operand. No integer arithmetic is left in it — no `Bin`
    // of any kind — and no multiply-add names an `Access`.
    assert_eq!(tile.len(), 2 * (2 + 2), "{tile:?}");
    for op in tile {
        match *op {
            Op::Store { to, src } => assert!(element(to) && src & MEM != 0 && !element(src)),
            Op::MulAdd { to, a, b } => assert!(element(to) && element(a) && element(b)),
            _ => panic!("{op:?} in {tile:?}"),
        }
    }
    assert!(
        matches!(write, [Op::Store { src, .. }, Op::Store { .. }] if element(*src)),
        "{write:?}"
    );
    // What the leaves no longer compute, the loop's prologue does, once
    // per iteration and thread: `k0 % 2` and `(k0 + 1) % 2` scaled and
    // added to lane values, the prefetch's predicate and clamped address.
    let Some(&Node::For { prologue, .. }) = p.nodes.iter().find(|n| matches!(n, Node::For { .. }))
    else {
        panic!("{:?}", p.nodes);
    };
    let prologue = &p.code[prologue.0 as usize..prologue.1 as usize];
    assert!(
        !prologue.is_empty() && prologue.iter().all(|op| matches!(op, Op::Bin { .. })),
        "{prologue:?}"
    );
    assert!(prologue.len() <= 14, "{prologue:?}");
}

#[test]
fn the_hot_leaves_of_a_tile_kernel_run_wide() {
    use super::program::{RangeKind, Reason, Verdict};
    // One block, and two (so that there is a thread stream): in lowering
    // order the thread stream, the four leaves around and in the `k0` loop,
    // its prologue, the write-back.
    for grid in [1, 2] {
        let p = Program::lower(&double_buffered_tile(grid));
        let [thread, preload, prefetch, tile, commit, prologue, write] = &p.ranges[..] else {
            panic!("{:?}", p.ranges);
        };
        assert_eq!(thread.kind, RangeKind::ThreadStream);
        assert_eq!(thread.instructions, p.thread_code_end as usize);
        assert_eq!(prologue.kind, RangeKind::Prologue);
        assert!(prologue.instructions > 0);
        // What writes only its threads' registers cannot race, whatever it
        // reads: the hoisted streams, the predicated prefetch into `Ld`
        // (its one branch is on `k0`, the same for the whole block) and
        // the loads and multiply-adds of the `k0` leaf. The fill of `S` and
        // the write-back go to `S[.., t]` and `Y[b, t, ..]`: no two threads
        // meet there.
        for range in &p.ranges {
            assert_eq!(range.verdict, Verdict::Wide, "{range:?}");
        }
        let all = [preload, prefetch, tile, commit, write].map(|leaf| leaf.kind);
        assert_eq!(all, [RangeKind::Leaf; 5]);
    }
    // A predicate on `threadIdx` is a branch threads take differently: it
    // runs wide, each side under a lane mask — and so does the guard that
    // is all that keeps an index in bounds. A loop whose trip count differs
    // by thread cannot, an index only a check keeps in bounds can fault, and
    // a select over unlike types has no column to be in.
    let reason_of = |build: &dyn Fn(&BufferRef, &BufferRef) -> Stmt| {
        let mut kb = KernelBuilder::new("reasons", 1, 8);
        let x = kb.param("X", DType::F32, &[4]);
        let acc = kb.local("Acc", DType::F32, &[2]);
        kb.push(build(&x, &acc));
        let p = Program::lower(&kb.build());
        p.ranges[1].verdict.clone()
    };
    let to_acc = |acc: &BufferRef, value: Expr| store(acc, vec![c(0)], value);
    let divergent = reason_of(&|_, acc| if_then(thread_idx().lt(4), to_acc(acc, fconst(1.0))));
    assert_eq!(divergent, Verdict::Wide);
    let guarded =
        reason_of(&|x, acc| if_then(thread_idx().lt(4), to_acc(acc, load(x, vec![thread_idx()]))));
    assert_eq!(guarded, Verdict::Wide);
    let trips =
        reason_of(&|x, acc| for_range("j", thread_idx() % 3, |j| to_acc(acc, load(x, vec![j]))));
    assert_eq!(trips, Verdict::PerThread(Reason::DivergentLoop));
    let faulting = reason_of(&|x, acc| to_acc(acc, load(x, vec![thread_idx()])));
    assert_eq!(faulting, Verdict::PerThread(Reason::CanFault));
    let untyped = reason_of(&|x, acc| {
        let either = load(x, vec![c(0)]).lt(0.5f32).select(thread_idx(), 1.5f32);
        to_acc(acc, either.cast(DType::F32))
    });
    assert_eq!(untyped, Verdict::PerThread(Reason::Untyped));
}

#[test]
fn a_single_block_kernel_has_no_thread_stream() {
    // One block: `blockIdx` is a constant, so every index is a function
    // of `threadIdx` alone and is computed once per program.
    let p = Program::lower(&double_buffered_tile(1));
    assert_eq!(
        p.thread_code_end,
        0,
        "{:?}",
        &p.code[..p.thread_code_end as usize]
    );
    assert!(p.block_code.is_empty(), "{:?}", p.block_code);
    assert!(!p.lane_code.is_empty());
    // The row a thread copies holds only what other code reads, not
    // what lane code computes on the way (`threadIdx / 2`).
    let row: usize = p.lane_columns.iter().sum();
    let all = p.lane_file.iter().sum();
    assert!(0 < row && row < all, "{row} of {all}");
    // Every stream counts towards the program's size.
    let leaves: usize = leaves(&p).iter().map(|leaf| leaf.len()).sum();
    assert!(p.code.len() > leaves, "the prologue is code too");
    assert_eq!(
        p.op_count(),
        p.lane_code.len() + p.code.len() + p.nodes.len()
    );
    // Two blocks: the row of `X` and `Y` is the block's, the column the
    // lane's, and their sum is all that is left per thread per block.
    let p = Program::lower(&double_buffered_tile(2));
    assert!(!p.block_code.is_empty());
    let thread_code = &p.code[..p.thread_code_end as usize];
    assert!(
        !thread_code.is_empty()
            && thread_code
                .iter()
                .all(|op| matches!(op, Op::Bin { op: BinOp::Add, .. })),
        "{thread_code:?}"
    );
}

#[test]
fn a_tile_kernel_computes_what_it_says() {
    // Thread t of block b ends with
    //   Acc[p] = Σ_k0 Σ_kk Frag[p] * Frag[1],  Frag[1] = tile[k0][t],
    //   Frag[0] = tile[k0][t / 2 * 2 + kk].
    for grid in [1, 2] {
        let kernel = double_buffered_tile(grid);
        let xs: Vec<f32> = (0..grid * 30).map(|i| (i % 7) as f32 - 2.0).collect();
        let mut mem = DeviceMemory::new();
        mem.alloc("X", &xs);
        mem.alloc_zeroed("Y", (grid * 16) as usize);
        run(&kernel, &mut mem).unwrap();
        let at = |b: i64, i: i64| {
            if i < 30 {
                xs[(b * 30 + i) as usize]
            } else {
                0.0
            }
        };
        for b in 0..grid {
            for t in 0..8 {
                let mut acc = [0.0f32; 2];
                for k0 in 0..4 {
                    for kk in 0..2 {
                        let frag = [at(b, k0 * 8 + t / 2 * 2 + kk), at(b, k0 * 8 + t)];
                        acc[0] += frag[0] * frag[1];
                        acc[1] += frag[1] * frag[1];
                    }
                }
                let y = &mem.read("Y")[((b * 8 + t) * 2) as usize..][..2];
                assert_eq!(y, &acc[..], "block {b} thread {t}");
            }
        }
    }
}

#[test]
fn zero_and_one_trip_loops_leave_no_loop_behind() {
    let lower = |trips: i64| {
        let mut kb = KernelBuilder::new("trips", 1, 1);
        let x = kb.param("X", DType::F32, &[4]);
        kb.push(for_range("i", trips, |i| {
            store(&x, vec![i.clone() + 1], i.cast(DType::F32))
        }));
        Program::lower(&kb.build())
    };
    assert!(lower(0).code.is_empty());
    assert!(lower(-3).code.is_empty());
    assert!(matches!(lower(1).code[..], [Op::Store { .. }]));
}

#[test]
fn loops_outside_the_budget_stay_loops() {
    // More trips than the budget has instructions; forty trips of a body
    // whose first two copies show the rest cannot fit a budget of three
    // times the kernel's IR nodes; eight trips of a body too large to copy
    // eight times in 512 instructions; an extent only a thread knows.
    let lower = |extent: Expr, stores: i64| {
        let mut kb = KernelBuilder::new("stays", 1, 4);
        let x = kb.param("X", DType::F32, &[128]);
        kb.push(for_range("i", extent, |i| {
            let value = i.cast(DType::F32);
            seq((0..stores)
                .map(|k| store(&x, vec![c(k)], value.clone()))
                .collect())
        }));
        kb.build()
    };
    for (extent, stores) in [(c(513), 1), (c(40), 16), (c(8), 70), (thread_idx() + 1, 1)] {
        let kernel = lower(extent, stores);
        let p = Program::lower(&kernel);
        let loops = p.code.iter().filter(|op| is_loop(op)).count();
        assert_eq!(loops, 2, "{kernel}");
        // An abandoned attempt leaves nothing behind.
        assert_eq!(p.accesses.len(), stores as usize, "{kernel}");
        assert!(body(&p).len() <= 2 * stores as usize + 2, "{kernel}");
    }
    // One store fewer and the same loop fits.
    let p = Program::lower(&lower(c(8), 64));
    assert_eq!(p.code.len(), 512);
    assert!(!p.code.iter().any(is_loop));
}

#[test]
fn an_abandoned_unrolling_leaves_the_prologue_around_it_as_it_was() {
    // `k` stays a loop. Copies of the `i` body put `k * 3 + 0`, `k * 3 +
    // 1`, … into `k`'s prologue until the sixth blows the budget; what
    // `i` lowered as a loop needs there is `k * 3` and `k + n` alone.
    let mut kb = KernelBuilder::new("rollback", 1, 2);
    let x = kb.param("X", DType::F32, &[2, 128]);
    kb.push(for_range("k", 9, |k| {
        for_range("i", 8, |i| {
            seq((0..70)
                .map(|n| {
                    let at = (k.clone() * 3 + i.clone() + n) % 128;
                    let value = (k.clone() + n).cast(DType::F32);
                    store(&x, vec![thread_idx(), at], value)
                })
                .collect())
        })
    }));
    let p = Program::lower(&kb.build());
    let [Op::LoopEnter { skip: outer, .. }, .., Op::LoopNext { .. }] = body(&p) else {
        panic!("{:?}", body(&p));
    };
    // Per `k`: `k * 3`, 70 × (`k + n`, its cast). Per `i`: `k * 3 + i`,
    // 70 × (`+ n`, `% 128`, `+ threadIdx * 128`). 70 stores; the inner
    // loop's two instructions and the outer `LoopNext`.
    let (per_k, per_i) = (1 + 70 * 2, 1 + 70 * 3);
    assert_eq!(*outer as usize, per_k + per_i + 70 + 2 + 1);
    assert!(matches!(body(&p)[1 + per_k], Op::LoopEnter { .. }));
    assert_eq!(p.op_count(), 1 + body(&p).len() + 1);
}

#[test]
fn proven_accesses_are_a_base_plus_an_offset() {
    let mut kb = KernelBuilder::new("address", 4, 32);
    let y = kb.param("Y", DType::F32, &[4, 32]);
    kb.shared("Pad", DType::F32, &[5]);
    let s = kb.shared("S", DType::F32, &[2, 4, 32]);
    // All constants: no terms. Block- and thread-invariant indices: one
    // hoisted register. So with a loop variable among them: the sum is
    // then taken in the loop's prologue, once per iteration.
    kb.push(store(&s, vec![c(1), c(2), c(3)], fconst(1.0)));
    kb.push(store(
        &y,
        vec![block_idx(), thread_idx()],
        load(&s, vec![c(0), block_idx(), thread_idx()]),
    ));
    kb.push(for_range("k", 1024, |k| {
        store(&s, vec![k % 2, c(3), thread_idx()], fconst(2.0))
    }));
    let p = Program::lower(&kb.build());
    let terms = |a: &super::program::Access| {
        assert!(a.proven, "{a:?}");
        let dims = &p.dims[a.first_dim as usize..][..a.rank as usize];
        (a.offset, dims.iter().map(|d| d.stride).collect::<Vec<_>>())
    };
    let [constant, global, shared, looped] = &p.accesses[..] else {
        panic!("{:?}", p.accesses);
    };
    assert_eq!(terms(constant), (5 + 128 + 64 + 3, vec![]));
    assert_eq!(terms(global), (0, vec![1]));
    assert_eq!(terms(shared), (5, vec![1]));
    assert_eq!(terms(looped), (5 + 96, vec![1]));
    let Op::LoopEnter { skip, .. } = body(&p)[2] else {
        panic!("{:?}", body(&p));
    };
    // `k % 2`, `* 128`, `+ threadIdx`; then the store and the `LoopNext`.
    assert_eq!(skip, 3 + 2, "{:?}", body(&p));
    // The two collapsed bases are the same `blockIdx * 32 + threadIdx`.
    assert_eq!(
        p.dims[global.first_dim as usize].idx,
        p.dims[shared.first_dim as usize].idx
    );
    // An index that is only in bounds when checked keeps every dimension;
    // one its guard keeps in bounds is proven inside the guard.
    let guarded = |guard: Expr| {
        let mut kb = KernelBuilder::new("guarded", 1, 8);
        let x = kb.param("X", DType::F32, &[2, 4]);
        kb.push(if_then(
            guard,
            store(&x, vec![c(1), thread_idx()], fconst(1.0)),
        ));
        let p = Program::lower(&kb.build());
        (p.accesses[0].proven, p.accesses[0].rank)
    };
    assert_eq!(guarded(thread_idx().le(4)), (false, 2));
    assert_eq!(guarded(thread_idx().lt(4)), (true, 1));
}

#[test]
fn multiply_add_is_formed_only_where_nothing_can_differ() {
    let lower = |block_dim: i64, build: &dyn Fn(&BufferRef, &BufferRef) -> Stmt| {
        let mut kb = KernelBuilder::new("fma", 1, block_dim);
        let x = kb.param("X", DType::F32, &[4]);
        let acc = kb.local("Acc", DType::F32, &[1]);
        kb.push(build(&x, &acc));
        let p = Program::lower(&kb.build());
        body(&p).to_vec()
    };
    let at = || vec![thread_idx()];
    let zero = || vec![c(0)];
    // The shape that is one: `acc = acc + a * b`, all proven.
    let code = lower(4, &|x, acc| {
        let product = load(x, at()) * load(x, at());
        store(acc, zero(), load(acc, zero()) + product)
    });
    assert!(matches!(code[..], [Op::MulAdd { .. }]), "{code:?}");
    // A product that can fault (a boolean operand) is evaluated on its own.
    let code = lower(4, &|x, acc| {
        let product = thread_idx().lt(2) * load(x, at());
        store(acc, zero(), load(acc, zero()) + product)
    });
    assert!(
        matches!(
            code[..],
            [
                ..,
                Op::Bin { op: BinOp::Mul, .. },
                Op::Update { op: BinOp::Add, .. }
            ]
        ),
        "{code:?}"
    );
    // An unproven accumulator (8 threads, 4 elements) keeps its checks.
    let code = lower(8, &|x, _| {
        let product = thread_idx().cast(DType::F32) * 2.0f32;
        store(x, at(), load(x, at()) + product)
    });
    assert!(
        matches!(code[..], [.., Op::Update { op: BinOp::Add, .. }]),
        "{code:?}"
    );
    // `a * b + acc` rounds the same but is not the same expression.
    let code = lower(4, &|x, acc| {
        let product = load(x, at()) * load(x, at());
        store(acc, zero(), product + load(acc, zero()))
    });
    assert!(
        matches!(
            code[..],
            [
                Op::Bin { op: BinOp::Mul, .. },
                Op::Bin { op: BinOp::Add, .. },
                Op::Store { .. }
            ]
        ),
        "{code:?}"
    );
}

#[test]
fn integer_overflow_wraps_folded_and_at_run_time() {
    // `i64::MAX + 1`, once between literals (folded by the lowering, which
    // must not panic) and once on `threadIdx` (computed by the executor).
    let mut kb = KernelBuilder::new("wrap", 1, 1);
    let x = kb.param("X", DType::F32, &[2]);
    let wrapped = |e: Expr| e.eq_(c(i64::MIN)).select(1.0f32, 0.0f32);
    kb.push(store(&x, vec![c(0)], wrapped(c(i64::MAX) + 1)));
    kb.push(store(&x, vec![c(1)], wrapped(thread_idx() + i64::MAX + 1)));
    let kernel = kb.build();
    let p = Program::lower(&kernel);
    assert!(matches!(body(&p), [Op::Store { .. }, Op::Store { .. }]));
    let mut mem = DeviceMemory::new();
    mem.alloc_zeroed("X", 2);
    run(&kernel, &mut mem).unwrap();
    assert_eq!(mem.read("X"), &[1.0, 1.0]);
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
    let kernel = kb.build();
    let program = Program::lower(&kernel);
    let gpu = crate::Gpu::default();
    let mut mem = DeviceMemory::new();
    mem.alloc_zeroed("X", 8);
    let buffers = program.resolve(&kernel, &mem);
    for _ in 0..3 {
        gpu.launch(&program, &kernel, &buffers, &mut mem).unwrap();
    }
    assert_eq!(mem.read("X"), &[3.0; 8]);
    // Ids from another memory, or none at all, are launch errors.
    let err = gpu.launch(&program, &kernel, &[], &mut mem).unwrap_err();
    assert_eq!(err, SimError::MissingBuffer("X".into()));
    let mut other = DeviceMemory::new();
    let err = gpu.launch(&program, &kernel, &buffers, &mut other);
    assert!(
        matches!(err, Err(SimError::BufferSizeMismatch { actual: 0, .. })),
        "{err:?}"
    );
}
