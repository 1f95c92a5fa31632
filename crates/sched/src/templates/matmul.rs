//! The matmul schedule template, written in the task-mapping paradigm.
//!
//! This is the paper's flagship artifact (§2.2, Fig. 2/3/5, §5.1): a blocked
//! GEMM whose scheduling is expressed *inside* the tensor program through task
//! mappings:
//!
//! * the grid decomposition assigns `(M/bm) × (N/bn)` sub-problems to thread
//!   blocks (Fig. 2, step 1);
//! * cooperative loads use `repeat(...) * spatial(...)` mappings to spread a
//!   tile over all threads (Fig. 8);
//! * the block MMA uses the four-level composition
//!   `spatial(warps) * repeat(warp-repeats) * spatial(4, 8) * repeat(thread-tile)`
//!   (§5.1.2);
//! * **predicated loads** make any `M, N, K` valid for any tile size — the
//!   hardware-centric space's key enabler (§4.3, Fig. 19);
//! * `stages == 2` produces the **double-buffered** pipeline of Fig. 5, the
//!   optimization loop-oriented schedulers cannot express (§3.1);
//! * `split_k > 1` parallelizes the reduction dimension across blocks with a
//!   follow-up reduce kernel (§6.3.4).

use hidet_ir::prelude::*;
use hidet_sim::{KernelFacts, WorkCounts};
use hidet_taskmap::{repeat, spatial};

use crate::json::{self, Json};
use crate::space::MatmulConfig;

/// A (possibly batched) matmul problem: `C[b,m,n] = Σ_k A[b,m,k] · B[b,k,n]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatmulProblem {
    /// Batch count (1 for plain matmul).
    pub batch: i64,
    /// Rows of A/C.
    pub m: i64,
    /// Columns of B/C.
    pub n: i64,
    /// Reduction extent.
    pub k: i64,
}

impl MatmulProblem {
    /// A plain 2-D matmul.
    pub fn new(m: i64, n: i64, k: i64) -> MatmulProblem {
        MatmulProblem { batch: 1, m, n, k }
    }

    /// Total FLOPs (`2·b·m·n·k`).
    pub fn flops(&self) -> f64 {
        2.0 * (self.batch * self.m * self.n * self.k) as f64
    }
}

impl MatmulProblem {
    /// The problem's dimensions as JSON object *members* (no braces): a
    /// compiled artifact inlines them in the element that carries the
    /// problem's tuned config ([`MatmulConfig::to_json`]).
    pub fn to_json_members(&self) -> String {
        format!(
            "\"batch\": {}, \"m\": {}, \"n\": {}, \"k\": {}",
            self.batch, self.m, self.n, self.k
        )
    }

    /// Reads [`MatmulProblem::to_json_members`]'s members back out of the
    /// object `obj`; every dimension must be at least 1. `ctx` names the
    /// object in errors.
    pub fn from_json_members(obj: &[(String, Json)], ctx: &str) -> Result<MatmulProblem, String> {
        let dim = |name: &str| json::get_positive(obj, name, ctx);
        Ok(MatmulProblem {
            batch: dim("batch")?,
            m: dim("m")?,
            n: dim("n")?,
            k: dim("k")?,
        })
    }
}

/// How the template reads a logical input element, and where results go.
///
/// Post-scheduling fusion supplies `Fused` variants; unfused matmuls use
/// `Direct` buffers.
pub enum Source<'a> {
    /// Load straight from a buffer of rank 2 (`[m, k]`) or 3 (`[b, m, k]`).
    Direct(BufferRef),
    /// A fused prologue: maps `(batch, row, col)` index expressions to the
    /// value expression (referencing real kernel parameters).
    Fused(FusedLoad<'a>),
}

/// A fused prologue load: `(batch, row, col)` indices to a value expression.
pub type FusedLoad<'a> = Box<dyn Fn(&Expr, &Expr, &Expr) -> Expr + 'a>;

/// A fused epilogue store: `(batch, row, col, value)` to a store statement.
pub type FusedStore<'a> = Box<dyn Fn(&Expr, &Expr, &Expr, Expr) -> Stmt + 'a>;

impl Source<'_> {
    fn at(&self, b: Expr, i: Expr, j: Expr) -> Expr {
        match self {
            Source::Direct(buf) => match buf.ndim() {
                2 => load(buf, vec![i, j]),
                3 => load(buf, vec![b, i, j]),
                n => panic!(
                    "matmul input buffer {} has rank {n}, want 2 or 3",
                    buf.name()
                ),
            },
            Source::Fused(f) => f(&b, &i, &j),
        }
    }
}

impl std::fmt::Debug for Source<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Source::Direct(buf) => write!(f, "Direct({})", buf.name()),
            Source::Fused(_) => f.write_str("Fused(..)"),
        }
    }
}

/// Output path: either a direct store to `C`, or a fused epilogue mapping the
/// logical `(batch, row, col, value)` to a store statement.
pub enum Sink<'a> {
    /// Store to a rank-2/3 buffer.
    Direct(BufferRef),
    /// A fused epilogue chain.
    Fused(FusedStore<'a>),
}

impl Sink<'_> {
    fn store_at(&self, b: &Expr, i: &Expr, j: &Expr, value: Expr) -> Stmt {
        match self {
            Sink::Direct(buf) => match buf.ndim() {
                2 => store(buf, vec![i.clone(), j.clone()], value),
                3 => store(buf, vec![b.clone(), i.clone(), j.clone()], value),
                n => panic!(
                    "matmul output buffer {} has rank {n}, want 2 or 3",
                    buf.name()
                ),
            },
            Sink::Fused(f) => f(b, i, j, value),
        }
    }
}

impl std::fmt::Debug for Sink<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Sink::Direct(buf) => write!(f, "Direct({})", buf.name()),
            Sink::Fused(_) => f.write_str("Fused(..)"),
        }
    }
}

/// Inputs/outputs binding the template to real kernel parameters.
#[derive(Debug)]
pub struct MatmulIo<'a> {
    /// Kernel name.
    pub name: String,
    /// How to read A.
    pub a: Source<'a>,
    /// How to read B.
    pub b: Source<'a>,
    /// Where C goes.
    pub c: Sink<'a>,
    /// The kernel's parameter buffers, in order (every buffer the sources,
    /// sink and partial outputs reference).
    pub params: Vec<BufferRef>,
}

impl MatmulIo<'static> {
    /// Plain unfused binding: fresh `A`, `B`, `C` parameter buffers.
    pub fn direct(name: &str, p: MatmulProblem) -> MatmulIo<'static> {
        let (a, b, c) = if p.batch == 1 {
            (
                Buffer::new("A", MemScope::Global, DType::F32, &[p.m, p.k]),
                Buffer::new("B", MemScope::Global, DType::F32, &[p.k, p.n]),
                Buffer::new("C", MemScope::Global, DType::F32, &[p.m, p.n]),
            )
        } else {
            (
                Buffer::new("A", MemScope::Global, DType::F32, &[p.batch, p.m, p.k]),
                Buffer::new("B", MemScope::Global, DType::F32, &[p.batch, p.k, p.n]),
                Buffer::new("C", MemScope::Global, DType::F32, &[p.batch, p.m, p.n]),
            )
        };
        MatmulIo {
            name: name.to_string(),
            a: Source::Direct(a.clone()),
            b: Source::Direct(b.clone()),
            c: Sink::Direct(c.clone()),
            params: vec![a, b, c],
        }
    }
}

/// Instantiates the template: returns the GEMM kernel, plus a second reduce
/// kernel when `split_k > 1` (partials are summed and only then flow through
/// the epilogue). The reduce kernel is `io.name` + `_splitk_reduce`, and
/// both take the partials buffer `io.name` + `_partial` after `io.params`.
///
/// # Panics
/// Panics if `config` is not structurally valid for the task-mapping
/// composition (check [`MatmulConfig::is_structurally_valid`] first).
pub fn matmul_kernel(
    problem: MatmulProblem,
    config: MatmulConfig,
    io: MatmulIo<'_>,
) -> Vec<Kernel> {
    assert!(
        config.is_structurally_valid(),
        "invalid matmul config {}",
        config.id()
    );
    let MatmulProblem { batch, m, n, k } = problem;
    let MatmulConfig {
        block_m: bm,
        block_n: bn,
        block_k: bk,
        warps_m,
        warps_n,
        thread_m: tm,
        thread_n: tn,
        stages,
        split_k,
    } = config;
    let threads = config.threads();
    let tiles_m = div_ceil(m, bm);
    let tiles_n = div_ceil(n, bn);
    let k_part = div_ceil(k, split_k);
    let k_tiles = div_ceil(k_part, bk);
    let grid = batch * tiles_m * tiles_n * split_k;
    let (wtm, wtn) = config.warp_tile();
    let (rm, rn) = config.warp_repeats();
    let stage_count = stages.max(1) as i64;

    let mut kb = KernelBuilder::new(&io.name, grid, threads);
    for p in &io.params {
        kb.param(p.name(), p.dtype(), p.shape());
    }
    // Partial-output buffer for split-K.
    let partial = (split_k > 1).then(|| {
        let buf = Buffer::new(
            &format!("{}_partial", io.name),
            MemScope::Global,
            DType::F32,
            &[split_k, batch, m, n],
        );
        kb.param(buf.name(), buf.dtype(), buf.shape());
        buf
    });
    let smem_a = kb.shared("SmemA", DType::F32, &[stage_count, bm, bk]);
    let smem_b = kb.shared("SmemB", DType::F32, &[stage_count, bk, bn]);
    let regs_c = kb.local("RegsC", DType::F32, &[rm * tm, rn * tn]);
    // Operand fragments cached in registers per k-step (paper Fig. 13's
    // wmma_load_a / wmma_load_b): each shared-memory element is read once per
    // warp-tile row/column instead of once per FMA.
    let frag_a = kb.local("FragA", DType::F32, &[rm * tm]);
    let frag_b = kb.local("FragB", DType::F32, &[rn * tn]);
    let (regs_ld_a, regs_ld_b) = if stages >= 2 {
        (
            Some(kb.local("RegsLdA", DType::F32, &[bm * bk / threads])),
            Some(kb.local("RegsLdB", DType::F32, &[bk * bn / threads])),
        )
    } else {
        (None, None)
    };

    // Block coordinates: blockIdx = ((b * tiles_m + mt) * tiles_n + nt) * split_k + kp.
    let b_idx = var("b_idx");
    let m_idx = var("m_idx");
    let n_idx = var("n_idx");
    let kp_idx = var("kp");
    // Warp/lane decomposition of the flat thread index (paper §5.1.2: warps
    // as workers of the block-level mapping, a fixed 4×8 lane grid within).
    let wm_idx = var("wm");
    let wn_idx = var("wn");
    let lm_idx = var("lm");
    let ln_idx = var("ln");
    let mut body = vec![
        comment(&format!(
            "matmul {}x{}x{} (batch {batch}), config {}",
            m,
            n,
            k,
            config.id()
        )),
        let_(&b_idx, block_idx() / (tiles_m * tiles_n * split_k)),
        let_(&m_idx, (block_idx() / (tiles_n * split_k)) % tiles_m),
        let_(&n_idx, (block_idx() / split_k) % tiles_n),
        let_(&kp_idx, block_idx() % split_k),
        let_(&wm_idx, thread_idx() / 32 / warps_n),
        let_(&wn_idx, thread_idx() / 32 % warps_n),
        let_(&lm_idx, thread_idx() % 32 / 8),
        let_(&ln_idx, thread_idx() % 32 % 8),
    ];

    // Zero the accumulators.
    body.push(for_range("im", rm * tm, |im| {
        for_range("in_", rn * tn, |jn| {
            store(&regs_c, vec![im.clone(), jn], fconst(0.0))
        })
    }));

    // Task mappings (paper Fig. 8 / §5.1.2).
    let map_a = repeat(&[bm / (threads / bk), 1]) * spatial(&[threads / bk, bk]);
    let map_b = repeat(&[bk / (threads / bn).max(1), 1]) * spatial(&[(threads / bn).max(1), bn]);
    let rows_a = threads / bk;
    let rows_b = (threads / bn).max(1);
    let c_map =
        spatial(&[warps_m, warps_n]) * repeat(&[rm, rn]) * spatial(&[4, 8]) * repeat(&[tm, tn]);
    debug_assert_eq!(c_map.task_shape(), &[bm, bn]);
    debug_assert_eq!(c_map.num_workers(), threads);

    // K bound for this split (predicated loads keep every size legal).
    let k_lim = var("k_lim");
    body.push(let_(&k_lim, (kp_idx.expr() * k_part + k_part).min(k)));

    // Loads A/B tile `k0` into shared-memory stage `buf` (an Expr).
    let load_tile_to_smem = |k0: Expr, buf: Expr| -> Stmt {
        let a_stmt = foreach_task(&map_a, thread_idx(), |coords| {
            let [i, kk] = pair(coords);
            let row = m_idx.expr() * bm + i.clone();
            let col = kp_idx.expr() * k_part + k0.clone() * bk + kk.clone();
            let valid = row.clone().lt(m).and(col.clone().lt(k_lim.expr()));
            let row_c = row.min(m - 1);
            let col_c = col.min(k - 1);
            let value = valid.select(io.a.at(b_idx.expr(), row_c, col_c), 0.0f32);
            store(&smem_a, vec![buf.clone(), i, kk], value)
        });
        let b_stmt = foreach_task(&map_b, thread_idx(), |coords| {
            let [kk, j] = pair(coords);
            let row = kp_idx.expr() * k_part + k0.clone() * bk + kk.clone();
            let col = n_idx.expr() * bn + j.clone();
            let valid = row.clone().lt(k_lim.expr()).and(col.clone().lt(n));
            let row_c = row.min(k - 1);
            let col_c = col.min(n - 1);
            let value = valid.select(io.b.at(b_idx.expr(), row_c, col_c), 0.0f32);
            store(&smem_b, vec![buf.clone(), kk, j], value)
        });
        a_stmt.then(b_stmt)
    };

    // Register indices within the accumulator tile, derived from block-tile
    // coordinates (see the task-mapping composition in the module docs).
    let reg_m = |i: Expr| ((i.clone() % wtm) / (4 * tm)) * tm + i % tm;
    let reg_n = |j: Expr| ((j.clone() % wtn) / (8 * tn)) * tn + j % tn;

    // One block-level MMA over shared-memory stage `buf`: per k-step, load
    // the thread's operand fragments once, then the outer-product FMA loop
    // reads registers only.
    let block_mma = |buf: Expr| -> Stmt {
        for_range("kk", bk, |kk| {
            let load_a = for_range("fr", rm, |r| {
                for_range("fi", tm, |i| {
                    let row =
                        wm_idx.expr() * wtm + r.clone() * (4 * tm) + lm_idx.expr() * tm + i.clone();
                    store(
                        &frag_a,
                        vec![r.clone() * tm + i],
                        load(&smem_a, vec![buf.clone(), row, kk.clone()]),
                    )
                })
            });
            let load_b = for_range("fs", rn, |s| {
                for_range("fj", tn, |j| {
                    let col =
                        wn_idx.expr() * wtn + s.clone() * (8 * tn) + ln_idx.expr() * tn + j.clone();
                    store(
                        &frag_b,
                        vec![s.clone() * tn + j],
                        load(&smem_b, vec![buf.clone(), kk.clone(), col]),
                    )
                })
            });
            let fma = for_range("p", rm * tm, |p| {
                for_range("q", rn * tn, |q| {
                    let acc = load(&regs_c, vec![p.clone(), q.clone()]);
                    let prod = load(&frag_a, vec![p.clone()]) * load(&frag_b, vec![q.clone()]);
                    store(&regs_c, vec![p.clone(), q], acc + prod)
                })
            });
            seq(vec![load_a, load_b, fma])
        })
    };

    if stages <= 1 {
        // Plain pipeline: load / sync / compute / sync (paper Fig. 3).
        body.push(for_range("k0", k_tiles, |k0| {
            seq(vec![
                load_tile_to_smem(k0, c(0)),
                sync_threads(),
                block_mma(c(0)),
                sync_threads(),
            ])
        }));
    } else {
        // Software pipelining. `stages == 2` is the double buffering of paper
        // Fig. 5: preload tile 0, then overlap the global load of tile k0+1
        // (into registers) with compute on tile k0. `stages >= 3` is the
        // multi-stage asynchronous prefetch of §3.1: S-1 tiles in flight.
        let regs_ld_a = regs_ld_a.expect("stage>=2 allocates load registers");
        let regs_ld_b = regs_ld_b.expect("stage>=2 allocates load registers");
        // Loads tile `k0` into per-thread registers (paper Fig. 5, L8).
        let load_tile_to_regs = |k0: Expr| -> Stmt {
            let a_stmt = foreach_task(&map_a, thread_idx(), |coords| {
                let [i, kk] = pair(coords);
                let ordinal = i.clone() / rows_a;
                let row = m_idx.expr() * bm + i;
                let col = kp_idx.expr() * k_part + k0.clone() * bk + kk;
                let valid = row.clone().lt(m).and(col.clone().lt(k_lim.expr()));
                let value = valid.select(
                    io.a.at(b_idx.expr(), row.min(m - 1), col.min(k - 1)),
                    0.0f32,
                );
                store(&regs_ld_a, vec![ordinal], value)
            });
            let b_stmt = foreach_task(&map_b, thread_idx(), |coords| {
                let [kk, j] = pair(coords);
                let ordinal = kk.clone() / rows_b;
                let row = kp_idx.expr() * k_part + k0.clone() * bk + kk;
                let col = n_idx.expr() * bn + j;
                let valid = row.clone().lt(k_lim.expr()).and(col.clone().lt(n));
                let value = valid.select(
                    io.b.at(b_idx.expr(), row.min(k - 1), col.min(n - 1)),
                    0.0f32,
                );
                store(&regs_ld_b, vec![ordinal], value)
            });
            a_stmt.then(b_stmt)
        };
        // Stores the preloaded registers into stage `buf` (Fig. 5, L10).
        let regs_to_smem = |buf: Expr| -> Stmt {
            let a_stmt = foreach_task(&map_a, thread_idx(), |coords| {
                let [i, kk] = pair(coords);
                let ordinal = i.clone() / rows_a;
                store(
                    &smem_a,
                    vec![buf.clone(), i, kk],
                    load(&regs_ld_a, vec![ordinal]),
                )
            });
            let b_stmt = foreach_task(&map_b, thread_idx(), |coords| {
                let [kk, j] = pair(coords);
                let ordinal = kk.clone() / rows_b;
                store(
                    &smem_b,
                    vec![buf.clone(), kk, j],
                    load(&regs_ld_b, vec![ordinal]),
                )
            });
            a_stmt.then(b_stmt)
        };
        // Preload the first S-1 tiles (predicated loads zero-fill tiles past
        // the end, so short K needs no special casing).
        let depth = stage_count; // S
        for s in 0..(depth - 1).min(k_tiles) {
            body.push(load_tile_to_smem(c(s), c(s)));
        }
        body.push(sync_threads());
        // Steady state: prefetch tile k0+S-1 into registers while computing
        // on tile k0, then rotate it into the freed shared-memory stage.
        body.push(for_range("k0", k_tiles, |k0| {
            let ahead = k0.clone() + (depth - 1);
            let in_flight = ahead.clone().lt(k_tiles);
            seq(vec![
                if_then(in_flight.clone(), load_tile_to_regs(ahead.clone())),
                block_mma(k0 % depth),
                if_then(in_flight, regs_to_smem(ahead % depth)),
                sync_threads(),
            ])
        }));
    }

    // Write-back with bounds predicates (partial tiles).
    let writeback = foreach_task(&c_map, thread_idx(), |coords| {
        let [i, j] = pair(coords);
        let row = m_idx.expr() * bm + i.clone();
        let col = n_idx.expr() * bn + j.clone();
        let value = load(&regs_c, vec![reg_m(i), reg_n(j)]);
        let inner = match &partial {
            None => io.c.store_at(&b_idx.expr(), &row, &col, value),
            Some(pbuf) => store(
                pbuf,
                vec![kp_idx.expr(), b_idx.expr(), row.clone(), col.clone()],
                value,
            ),
        };
        if_then(row.lt(m).and(col.lt(n)), inner)
    });
    body.push(writeback);

    kb.body(hidet_ir::passes::simplify(seq(body)));
    kb.meta(KernelMeta {
        pipeline_stages: stages,
        uses_tensor_cores: false,
        parallel_k_parts: split_k as u32,
        vector_width: 1,
    });
    let mut kernels = vec![kb.build()];

    // Split-K finalization: sum the partials, then run the epilogue.
    if let Some(pbuf) = partial {
        let total = batch * m * n;
        let block = 256i64;
        let grid2 = div_ceil(total, block);
        let mut kb2 = KernelBuilder::new(&format!("{}_splitk_reduce", io.name), grid2, block);
        for p in &io.params {
            kb2.param(p.name(), p.dtype(), p.shape());
        }
        kb2.param(pbuf.name(), pbuf.dtype(), pbuf.shape());
        let acc = var("acc_v");
        let flat = var("flat");
        let bb = var("bb");
        let ii = var("ii");
        let jj = var("jj");
        let body2 = seq(vec![
            let_(&flat, block_idx() * block + thread_idx()),
            if_then(
                flat.expr().lt(total),
                seq(vec![
                    let_(&bb, flat.expr() / (m * n)),
                    let_(&ii, (flat.expr() / n) % m),
                    let_(&jj, flat.expr() % n),
                    // Sum over the split parts sequentially.
                    {
                        let sum_buf = kb2.local("PartSum", DType::F32, &[1]);
                        seq(vec![
                            store(&sum_buf, vec![c(0)], fconst(0.0)),
                            for_range("p", split_k, {
                                let (pbuf, sum_buf, bb, ii, jj) = (
                                    pbuf.clone(),
                                    sum_buf.clone(),
                                    bb.clone(),
                                    ii.clone(),
                                    jj.clone(),
                                );
                                move |p| {
                                    let v = load(&pbuf, vec![p, bb.expr(), ii.expr(), jj.expr()]);
                                    store(&sum_buf, vec![c(0)], load(&sum_buf, vec![c(0)]) + v)
                                }
                            }),
                            let_(&acc, load(&sum_buf, vec![c(0)])),
                            io.c.store_at(&bb.expr(), &ii.expr(), &jj.expr(), acc.expr()),
                        ])
                    },
                ]),
            ),
        ]);
        kb2.body(hidet_ir::passes::simplify(body2));
        kernels.push(kb2.build());
    }
    kernels
}

/// What [`matmul_kernel`] with [`MatmulIo::direct`] hands the latency model,
/// derived from `(problem, config)` without building a kernel: one
/// `(facts, per-thread counts)` entry per kernel — the GEMM, then the
/// split-K reduce when `split_k > 1`. Every field equals
/// [`KernelFacts::of`] and [`hidet_sim::cost::count_work`] of the simplified
/// kernels, so [`hidet_sim::cost::estimate_from`] of an entry is bit-equal to
/// `estimate` of the kernel (`tests/matmul_work.rs` and `verify_sweep` hold
/// the two to that).
///
/// # Panics
/// As [`matmul_kernel`].
pub fn matmul_work(problem: MatmulProblem, config: MatmulConfig) -> Vec<(KernelFacts, WorkCounts)> {
    assert!(
        config.is_structurally_valid(),
        "invalid matmul config {}",
        config.id()
    );
    let MatmulProblem { batch, m, n, k } = problem;
    let MatmulConfig {
        block_m: bm,
        block_n: bn,
        block_k: bk,
        stages,
        split_k,
        ..
    } = config;
    let threads = config.threads();
    let k_tiles = div_ceil(div_ceil(k, split_k), bk);
    let (rm, rn) = config.warp_repeats();
    let (r, s) = (rm * config.thread_m, rn * config.thread_n);
    // Elements of one A tile plus one B tile that each thread loads.
    let tile = bm * bk / threads + bk * bn / threads;
    // Tiles each thread moves global → shared. Pipelined: the S−1 preloaded
    // ones plus a prefetch per k-tile, charged in full under `if in_flight` —
    // except that one k-tile unwraps the `k0` loop and folds the guard false.
    let (tiles, syncs, staging_regs) = if stages <= 1 {
        (k_tiles, 2 * k_tiles, 0)
    } else {
        let prefetched = if k_tiles > 1 { k_tiles } else { 0 };
        (
            (stages as i64 - 1).min(k_tiles) + prefetched,
            1 + k_tiles,
            tile,
        )
    };
    // Each loaded element: one predicated select, a global read, a shared
    // write. Each k-step of the block MMA: R + S shared reads, R·S FMAs.
    let loaded = (tiles * tile) as f64;
    let gemm = WorkCounts {
        global_load_bytes: 4.0 * loaded,
        global_store_bytes: (4 * r * s) as f64,
        smem_bytes: 4.0 * loaded + (k_tiles * bk * 4 * (r + s)) as f64,
        flops: loaded + (k_tiles * bk * 2 * r * s) as f64,
        special_ops: 0.0,
        syncs: syncs as f64,
    };
    let gemm_facts = KernelFacts {
        launch: LaunchConfig::new(batch * div_ceil(m, bm) * div_ceil(n, bn) * split_k, threads),
        meta: KernelMeta {
            pipeline_stages: stages,
            uses_tensor_cores: false,
            parallel_k_parts: split_k as u32,
            vector_width: 1,
        },
        shared_bytes: config.shared_bytes(),
        registers_per_thread: (32 + r * s + r + s + staging_regs) as u64,
    };
    let mut out = vec![(gemm_facts, gemm)];
    if split_k > 1 {
        // One thread per output element: sum `split_k` partials, store once.
        let reduce = WorkCounts {
            global_load_bytes: (4 * split_k) as f64,
            global_store_bytes: 4.0,
            flops: split_k as f64,
            ..WorkCounts::default()
        };
        let reduce_facts = KernelFacts {
            launch: LaunchConfig::new(div_ceil(batch * m * n, 256), 256),
            meta: KernelMeta::default(),
            shared_bytes: 0,
            registers_per_thread: 33,
        };
        out.push((reduce_facts, reduce));
    }
    out
}

/// The two coordinates of a 2-D task.
fn pair(coords: Vec<Expr>) -> [Expr; 2] {
    coords.try_into().expect("a 2-D task mapping")
}

fn div_ceil(a: i64, b: i64) -> i64 {
    (a + b - 1) / b
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidet_sim::{DeviceMemory, Gpu};

    fn reference_matmul(a: &[f32], b: &[f32], m: i64, k: i64, n: i64) -> Vec<f32> {
        let mut out = vec![0.0f32; (m * n) as usize];
        for i in 0..m {
            for kk in 0..k {
                for j in 0..n {
                    out[(i * n + j) as usize] +=
                        a[(i * k + kk) as usize] * b[(kk * n + j) as usize];
                }
            }
        }
        out
    }

    /// Runs `config`'s kernels on `problem` and compares each batch's
    /// output with the reference: bit for bit when one thread sums each
    /// output over `k` in order, as the reference does, and within a
    /// tolerance when split-K regroups the sum.
    fn check(problem: MatmulProblem, config: MatmulConfig) {
        let io = MatmulIo::direct("mm", problem);
        let kernels = matmul_kernel(problem, config, io);
        let gpu = Gpu::default();
        let mut mem = DeviceMemory::new();
        let MatmulProblem { batch, m, n, k } = problem;
        let a = hidet_graph::Tensor::randn(&[batch, m, k], 11);
        let b = hidet_graph::Tensor::randn(&[batch, k, n], 22);
        mem.alloc("A", a.data().unwrap());
        mem.alloc("B", b.data().unwrap());
        mem.alloc_zeroed("C", (batch * m * n) as usize);
        if config.split_k > 1 {
            mem.alloc_zeroed("mm_partial", (config.split_k * batch * m * n) as usize);
        }
        for kernel in &kernels {
            gpu.run(kernel, &mut mem).unwrap();
        }
        let (a, b, got) = (a.data().unwrap(), b.data().unwrap(), mem.read("C"));
        let (a_len, b_len, c_len) = ((m * k) as usize, (k * n) as usize, (m * n) as usize);
        for bi in 0..batch as usize {
            let a = &a[bi * a_len..][..a_len];
            let b = &b[bi * b_len..][..b_len];
            let expect = reference_matmul(a, b, m, k, n);
            for (idx, (x, y)) in got[bi * c_len..][..c_len].iter().zip(&expect).enumerate() {
                let case = format!("{} on {m}x{n}x{k}, batch {bi}, at {idx}", config.id());
                if config.split_k == 1 {
                    assert_eq!(x.to_bits(), y.to_bits(), "{case}: {x} vs {y}");
                } else {
                    assert!((x - y).abs() < 1e-2 * (1.0 + y.abs()), "{case}: {x} vs {y}");
                }
            }
        }
    }

    fn small_config(stages: u32, split_k: i64) -> MatmulConfig {
        MatmulConfig {
            block_m: 32,
            block_n: 32,
            block_k: 8,
            warps_m: 1,
            warps_n: 1,
            thread_m: 2,
            thread_n: 2,
            stages,
            split_k,
        }
    }

    #[test]
    fn exact_tile_multiple() {
        check(MatmulProblem::new(64, 64, 32), small_config(1, 1));
    }

    #[test]
    fn partial_tiles_are_predicated() {
        // 50x37x29: nothing divides the 32x32x8 tile.
        check(MatmulProblem::new(50, 37, 29), small_config(1, 1));
    }

    #[test]
    fn prime_sizes_work() {
        // The paper's Fig. 19 killer case: prime dimension.
        check(MatmulProblem::new(61, 61, 61), small_config(1, 1));
    }

    #[test]
    fn double_buffering_matches_reference() {
        check(MatmulProblem::new(64, 64, 48), small_config(2, 1));
        check(MatmulProblem::new(50, 37, 29), small_config(2, 1));
    }

    #[test]
    fn three_stage_pipeline_matches_reference() {
        // Multi-stage asynchronous prefetch (paper §3.1).
        check(MatmulProblem::new(64, 64, 80), small_config(3, 1));
        check(MatmulProblem::new(50, 37, 29), small_config(3, 1));
        // K shorter than the pipeline depth still works (zero-filled tiles).
        check(MatmulProblem::new(32, 32, 8), small_config(3, 1));
    }

    #[test]
    fn split_k_matches_reference() {
        check(MatmulProblem::new(32, 32, 64), small_config(1, 2));
        check(MatmulProblem::new(33, 31, 70), small_config(2, 2));
    }

    #[test]
    fn multi_warp_config() {
        let cfg = MatmulConfig {
            block_m: 64,
            block_n: 64,
            block_k: 8,
            warps_m: 2,
            warps_n: 2,
            thread_m: 2,
            thread_n: 2,
            stages: 1,
            split_k: 1,
        };
        check(MatmulProblem::new(64, 64, 16), cfg);
    }

    #[test]
    fn batched_matmul() {
        let problem = MatmulProblem {
            batch: 3,
            m: 32,
            n: 32,
            k: 16,
        };
        check(problem, small_config(1, 1));
    }

    #[test]
    fn warp_sized_tiles_match_reference_bit_for_bit() {
        // Every warp-sized configuration of the space on shapes that
        // straddle its tiles: each of M, N and K takes each of 1, 5, 13
        // and 37 once, then all three 37.
        let space = crate::space::matmul_space(&hidet_sim::GpuSpec::rtx3090());
        let warp_sized: Vec<MatmulConfig> = (space.into_iter())
            .filter(|c| c.threads() == 32 && c.block_m * c.block_n < 16 * 32)
            .collect();
        assert_eq!(warp_sized.len(), 48);
        for (m, n, k) in [
            (1, 5, 13),
            (5, 13, 37),
            (13, 37, 1),
            (37, 1, 5),
            (37, 37, 37),
        ] {
            for &config in &warp_sized {
                check(MatmulProblem { batch: 3, m, n, k }, config);
            }
        }
    }

    #[test]
    fn double_buffer_kernel_structure() {
        let kernels = matmul_kernel(
            MatmulProblem::new(128, 128, 64),
            small_config(2, 1),
            MatmulIo::direct("mm", MatmulProblem::new(128, 128, 64)),
        );
        let kernel = &kernels[0];
        assert_eq!(kernel.meta().pipeline_stages, 2);
        // Two shared buffers with a leading stage dimension of 2.
        let smem_a = (kernel.shared_buffers().iter())
            .find(|b| b.name() == "SmemA")
            .unwrap();
        assert_eq!(smem_a.shape()[0], 2);
        // Load registers exist.
        assert!(kernel.local_buffers().iter().any(|b| b.name() == "RegsLdA"));
        let cuda = hidet_ir::cuda::to_cuda(kernel);
        assert!(cuda.contains("stages=2"), "{cuda}");
    }

    #[test]
    fn split_k_produces_two_kernels() {
        let p = MatmulProblem::new(64, 64, 256);
        let kernels = matmul_kernel(p, small_config(1, 4), MatmulIo::direct("mm", p));
        assert_eq!(kernels.len(), 2);
        assert_eq!(kernels[0].meta().parallel_k_parts, 4);
        assert!(kernels[1].name().contains("splitk_reduce"));
    }

    #[test]
    fn grid_covers_problem_with_ceiling_division() {
        let p = MatmulProblem::new(100, 100, 32);
        let kernels = matmul_kernel(p, small_config(1, 1), MatmulIo::direct("mm", p));
        // ceil(100/32)^2 = 16 blocks.
        assert_eq!(kernels[0].launch().grid_dim, 16);
    }
}
