//! The reduction schedule template (paper §5.1.3, §6.1: the second of the two
//! templates Hidet ships).
//!
//! Covers softmax, layer normalization and mean pooling by viewing the input
//! as `rows × axis`: every output row is produced from a reduction over the
//! axis. Two schedule shapes exist, selected by
//! [`crate::space::ReduceConfig::threads_per_row`]:
//!
//! * `1` — thread-per-row with a grid-stride loop (best when rows are many);
//! * `P > 1` — `P` threads cooperate per row with strided partial reductions
//!   and a shared-memory tree reduction across `log2(P)` barriers (best when
//!   rows are few and the axis is long).

use hidet_ir::prelude::*;

use crate::space::ReduceConfig;

/// What the row reduction computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowReduceKind {
    /// `out[r, a] = exp(x[r, a] - max_a x) / Σ_a exp(x[r, a] - max_a x)`.
    Softmax,
    /// `out[r, a] = (x[r, a] - mean_r) / sqrt(var_r + eps)` (affine applied by
    /// the sink).
    LayerNorm,
    /// `out[r] = Σ_a x[r, a] / len` (global average pooling).
    MeanPool,
}

/// Reads the element at `(row, axis)` coordinates.
pub type RowLoad<'a> = Box<dyn Fn(&Expr, &Expr) -> Expr + 'a>;

/// Stores the reduced value for `(row, axis, value)`.
pub type RowStore<'a> = Box<dyn Fn(&Expr, &Expr, Expr) -> Stmt + 'a>;

/// IO binding for the reduce template. Loads/stores address logical `(row,
/// axis)` coordinates; the compiler closes over the original tensor layout.
pub struct ReduceIo<'a> {
    /// Kernel name.
    pub name: String,
    /// Reads element `a` of row `r`.
    pub load: RowLoad<'a>,
    /// Stores the result for `(r, a, value)`; for [`RowReduceKind::MeanPool`]
    /// it is invoked once per row with `a == 0`.
    pub store: RowStore<'a>,
    /// Kernel parameter buffers.
    pub params: Vec<BufferRef>,
}

impl std::fmt::Debug for ReduceIo<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReduceIo")
            .field("name", &self.name)
            .field("params", &self.params.len())
            .finish_non_exhaustive()
    }
}

impl ReduceIo<'static> {
    /// Direct binding: input `X[rows, len]`, output `Y` (`[rows, len]`, or
    /// `[rows]` for mean pooling).
    pub fn direct(name: &str, kind: RowReduceKind, rows: i64, len: i64) -> ReduceIo<'static> {
        let x = Buffer::new("X", MemScope::Global, DType::F32, &[rows, len]);
        let y = match kind {
            RowReduceKind::MeanPool => Buffer::new("Y", MemScope::Global, DType::F32, &[rows]),
            _ => Buffer::new("Y", MemScope::Global, DType::F32, &[rows, len]),
        };
        let x2 = x.clone();
        let y2 = y.clone();
        ReduceIo {
            name: name.to_string(),
            load: Box::new(move |r, a| load(&x2, vec![r.clone(), a.clone()])),
            store: Box::new(move |r, a, v| match kind {
                RowReduceKind::MeanPool => store(&y2, vec![r.clone()], v),
                _ => store(&y2, vec![r.clone(), a.clone()], v),
            }),
            params: vec![x, y],
        }
    }
}

/// Instantiates the reduce template for `rows` rows of length `len`.
pub fn reduce_kernel(
    kind: RowReduceKind,
    rows: i64,
    len: i64,
    config: ReduceConfig,
    io: ReduceIo<'_>,
) -> Kernel {
    assert!(config.is_valid(), "invalid reduce config {config:?}");
    if config.threads_per_row == 1 {
        thread_per_row_kernel(kind, rows, len, config.block_threads, io)
    } else {
        cooperative_kernel(kind, rows, len, config, io)
    }
}

fn div_ceil(a: i64, b: i64) -> i64 {
    (a + b - 1) / b
}

/// Variant 1: one thread per row.
fn thread_per_row_kernel(
    kind: RowReduceKind,
    rows: i64,
    len: i64,
    block: i64,
    io: ReduceIo<'_>,
) -> Kernel {
    let grid = div_ceil(rows, block);
    let mut kb = KernelBuilder::new(&io.name, grid, block);
    for p in &io.params {
        kb.param(p.name(), p.dtype(), p.shape());
    }
    let acc = kb.local("Acc", DType::F32, &[2]); // [0]=sum/max, [1]=aux (var / max)
    let r = var("r");
    let mut body = vec![let_(&r, block_idx() * block + thread_idx())];
    let guarded = |inner: Stmt| if_then(r.clone().expr().lt(rows), inner);
    match kind {
        RowReduceKind::Softmax => {
            body.push(guarded(seq(vec![
                // Pass 1: row max.
                store(&acc, vec![c(0)], fconst(f32::NEG_INFINITY)),
                for_range("a", len, |a| {
                    let v = (io.load)(&r.expr(), &a);
                    store(&acc, vec![c(0)], load(&acc, vec![c(0)]).max(v))
                }),
                store(&acc, vec![c(1)], load(&acc, vec![c(0)])),
                // Pass 2: exp-sum.
                store(&acc, vec![c(0)], fconst(0.0)),
                for_range("a", len, |a| {
                    let v = (io.load)(&r.expr(), &a) - load(&acc, vec![c(1)]);
                    store(
                        &acc,
                        vec![c(0)],
                        load(&acc, vec![c(0)]) + v.unary(UnOp::Exp),
                    )
                }),
                // Pass 3: write.
                for_range("a", len, |a| {
                    let v = (io.load)(&r.expr(), &a) - load(&acc, vec![c(1)]);
                    let out = v.unary(UnOp::Exp) / load(&acc, vec![c(0)]);
                    (io.store)(&r.expr(), &a, out)
                }),
            ])));
        }
        RowReduceKind::LayerNorm => {
            body.push(guarded(seq(vec![
                // Mean.
                store(&acc, vec![c(0)], fconst(0.0)),
                for_range("a", len, |a| {
                    store(
                        &acc,
                        vec![c(0)],
                        load(&acc, vec![c(0)]) + (io.load)(&r.expr(), &a),
                    )
                }),
                store(&acc, vec![c(0)], load(&acc, vec![c(0)]) / len as f32),
                // Variance.
                store(&acc, vec![c(1)], fconst(0.0)),
                for_range("a", len, |a| {
                    let d = (io.load)(&r.expr(), &a) - load(&acc, vec![c(0)]);
                    store(&acc, vec![c(1)], load(&acc, vec![c(1)]) + d.clone() * d)
                }),
                store(
                    &acc,
                    vec![c(1)],
                    (load(&acc, vec![c(1)]) / len as f32 + 1e-5f32).unary(UnOp::Rsqrt),
                ),
                // Normalize.
                for_range("a", len, |a| {
                    let v = ((io.load)(&r.expr(), &a) - load(&acc, vec![c(0)]))
                        * load(&acc, vec![c(1)]);
                    (io.store)(&r.expr(), &a, v)
                }),
            ])));
        }
        RowReduceKind::MeanPool => {
            body.push(guarded(seq(vec![
                store(&acc, vec![c(0)], fconst(0.0)),
                for_range("a", len, |a| {
                    store(
                        &acc,
                        vec![c(0)],
                        load(&acc, vec![c(0)]) + (io.load)(&r.expr(), &a),
                    )
                }),
                (io.store)(&r.expr(), &c(0), load(&acc, vec![c(0)]) / len as f32),
            ])));
        }
    }
    kb.body(hidet_ir::passes::simplify(seq(body)));
    kb.build()
}

/// Variant 2: `P` threads per row, shared-memory tree reduction.
fn cooperative_kernel(
    kind: RowReduceKind,
    rows: i64,
    len: i64,
    config: ReduceConfig,
    io: ReduceIo<'_>,
) -> Kernel {
    let p = config.threads_per_row;
    let rows_pb = config.rows_per_block();
    let grid = div_ceil(rows, rows_pb);
    let mut kb = KernelBuilder::new(&io.name, grid, config.block_threads);
    for par in &io.params {
        kb.param(par.name(), par.dtype(), par.shape());
    }
    let red = kb.shared("Red", DType::F32, &[rows_pb, p]);
    let stat = kb.shared("Stat", DType::F32, &[rows_pb, 2]); // per-row stats
    let row_slot = var("row_slot");
    let lane = var("lane");
    let r = var("r");
    let rr = var("rr");
    let steps = div_ceil(len, p);
    let mut body = vec![
        let_(&row_slot, thread_idx() / p),
        let_(&lane, thread_idx() % p),
        let_(&r, block_idx() * rows_pb + row_slot.expr()),
        // Clamp so tail-block threads stay in bounds; the final store is guarded.
        let_(&rr, r.expr().min(rows - 1)),
    ];

    // One strided partial reduction + tree reduce; leaves the row result in
    // Stat[row_slot][stat_idx].
    let tree_reduce = |partial_init: f32,
                       elem: &dyn Fn(&Expr) -> Expr,
                       combine: &dyn Fn(Expr, Expr) -> Expr,
                       stat_idx: i64|
     -> Stmt {
        let mut stmts = vec![
            store(
                &red,
                vec![row_slot.expr(), lane.expr()],
                fconst(partial_init),
            ),
            for_range("s", steps, |s| {
                let a = s * p + lane.expr();
                let cur = load(&red, vec![row_slot.expr(), lane.expr()]);
                let v = elem(&a.clone().min(len - 1));
                let nv = combine(cur, a.lt(len).select(v, fconst(partial_init)));
                store(&red, vec![row_slot.expr(), lane.expr()], nv)
            }),
            sync_threads(),
        ];
        // log2(P) halving steps.
        let mut half = p / 2;
        while half >= 1 {
            let red2 = red.clone();
            let (row_slot2, lane2) = (row_slot.clone(), lane.clone());
            stmts.push(if_then(lane.expr().lt(half), {
                let a = load(&red2, vec![row_slot2.expr(), lane2.expr()]);
                let b = load(&red2, vec![row_slot2.expr(), lane2.expr() + half]);
                store(&red2, vec![row_slot2.expr(), lane2.expr()], combine(a, b))
            }));
            stmts.push(sync_threads());
            half /= 2;
        }
        stmts.push(if_then(
            lane.expr().eq_(0),
            store(
                &stat,
                vec![row_slot.expr(), c(stat_idx)],
                load(&red, vec![row_slot.expr(), c(0)]),
            ),
        ));
        stmts.push(sync_threads());
        seq(stmts)
    };

    // Strided write of the per-element results, guarded for the tail block.
    let strided_write = |value: &dyn Fn(&Expr) -> Expr| -> Stmt {
        for_range("s", steps, |s| {
            let a = s * p + lane.expr();
            if_then(
                a.clone().lt(len).and(r.expr().lt(rows)),
                (io.store)(&r.expr(), &a.clone(), value(&a)),
            )
        })
    };

    match kind {
        RowReduceKind::Softmax => {
            let load_elem = |a: &Expr| (io.load)(&rr.expr(), a);
            body.push(tree_reduce(
                f32::NEG_INFINITY,
                &load_elem,
                &|x, y| x.max(y),
                0,
            ));
            let exp_elem = |a: &Expr| {
                ((io.load)(&rr.expr(), a) - load(&stat, vec![row_slot.expr(), c(0)]))
                    .unary(UnOp::Exp)
            };
            body.push(tree_reduce(0.0, &exp_elem, &|x, y| x + y, 1));
            body.push(strided_write(&|a| {
                exp_elem(a) / load(&stat, vec![row_slot.expr(), c(1)])
            }));
        }
        RowReduceKind::LayerNorm => {
            let load_elem = |a: &Expr| (io.load)(&rr.expr(), a);
            body.push(tree_reduce(0.0, &load_elem, &|x, y| x + y, 0));
            body.push(if_then(
                lane.expr().eq_(0),
                store(
                    &stat,
                    vec![row_slot.expr(), c(0)],
                    load(&stat, vec![row_slot.expr(), c(0)]) / len as f32,
                ),
            ));
            body.push(sync_threads());
            let sq_elem = |a: &Expr| {
                let d = (io.load)(&rr.expr(), a) - load(&stat, vec![row_slot.expr(), c(0)]);
                d.clone() * d
            };
            body.push(tree_reduce(0.0, &sq_elem, &|x, y| x + y, 1));
            body.push(if_then(
                lane.expr().eq_(0),
                store(
                    &stat,
                    vec![row_slot.expr(), c(1)],
                    (load(&stat, vec![row_slot.expr(), c(1)]) / len as f32 + 1e-5f32)
                        .unary(UnOp::Rsqrt),
                ),
            ));
            body.push(sync_threads());
            body.push(strided_write(&|a| {
                ((io.load)(&rr.expr(), a) - load(&stat, vec![row_slot.expr(), c(0)]))
                    * load(&stat, vec![row_slot.expr(), c(1)])
            }));
        }
        RowReduceKind::MeanPool => {
            let load_elem = |a: &Expr| (io.load)(&rr.expr(), a);
            body.push(tree_reduce(0.0, &load_elem, &|x, y| x + y, 0));
            body.push(if_then(
                lane.expr().eq_(0).and(r.expr().lt(rows)),
                (io.store)(
                    &r.expr(),
                    &c(0),
                    load(&stat, vec![row_slot.expr(), c(0)]) / len as f32,
                ),
            ));
        }
    }
    kb.body(hidet_ir::passes::simplify(seq(body)));
    kb.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::ReduceConfig;
    use hidet_sim::{DeviceMemory, Gpu};

    fn run_reduce(kind: RowReduceKind, rows: i64, len: i64, cfg: ReduceConfig) -> Vec<f32> {
        let io = ReduceIo::direct("red", kind, rows, len);
        let kernel = reduce_kernel(kind, rows, len, cfg, io);
        let gpu = Gpu::default();
        let mut mem = DeviceMemory::new();
        let x = hidet_graph::Tensor::randn(&[rows, len], 5);
        mem.alloc("X", x.data().unwrap());
        let out_len = match kind {
            RowReduceKind::MeanPool => rows,
            _ => rows * len,
        };
        mem.alloc_zeroed("Y", out_len as usize);
        gpu.run(&kernel, &mut mem).unwrap();
        mem.read("Y").to_vec()
    }

    fn configs() -> Vec<ReduceConfig> {
        vec![
            ReduceConfig {
                threads_per_row: 1,
                block_threads: 128,
            },
            ReduceConfig {
                threads_per_row: 32,
                block_threads: 128,
            },
            ReduceConfig {
                threads_per_row: 128,
                block_threads: 128,
            },
        ]
    }

    #[test]
    fn softmax_rows_sum_to_one_all_configs() {
        for cfg in configs() {
            let out = run_reduce(RowReduceKind::Softmax, 5, 37, cfg);
            for r in 0..5 {
                let s: f32 = out[r * 37..(r + 1) * 37].iter().sum();
                assert!((s - 1.0).abs() < 1e-4, "{cfg:?} row {r}: {s}");
            }
        }
    }

    #[test]
    fn softmax_variants_agree() {
        let a = run_reduce(RowReduceKind::Softmax, 7, 64, configs()[0]);
        let b = run_reduce(RowReduceKind::Softmax, 7, 64, configs()[1]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-5, "{x} vs {y}");
        }
    }

    #[test]
    fn layer_norm_statistics() {
        for cfg in configs() {
            let out = run_reduce(RowReduceKind::LayerNorm, 4, 96, cfg);
            for r in 0..4 {
                let row = &out[r * 96..(r + 1) * 96];
                let mean: f32 = row.iter().sum::<f32>() / 96.0;
                let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 96.0;
                assert!(mean.abs() < 1e-4, "{cfg:?}: mean {mean}");
                assert!((var - 1.0).abs() < 1e-2, "{cfg:?}: var {var}");
            }
        }
    }

    #[test]
    fn mean_pool_matches_average() {
        let rows = 6;
        let len = 50;
        let x = hidet_graph::Tensor::randn(&[rows, len], 5);
        for cfg in configs() {
            let out = run_reduce(RowReduceKind::MeanPool, rows, len, cfg);
            for (r, got) in out.iter().enumerate().take(rows as usize) {
                let expect: f32 = x.data().unwrap()[r * len as usize..(r + 1) * len as usize]
                    .iter()
                    .sum::<f32>()
                    / len as f32;
                assert!((got - expect).abs() < 1e-4, "{cfg:?} row {r}");
            }
        }
    }

    #[test]
    fn tail_blocks_guarded() {
        // 5 rows with 4 rows/block -> tail block has 3 invalid slots.
        let cfg = ReduceConfig {
            threads_per_row: 32,
            block_threads: 128,
        };
        let out = run_reduce(RowReduceKind::Softmax, 5, 16, cfg);
        assert_eq!(out.len(), 5 * 16);
    }
}
