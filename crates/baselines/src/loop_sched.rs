//! Declarative loop-oriented scheduling (paper §2.3, Table 1) and the GEMM
//! kernels it can express.
//!
//! The first half implements the abstract loop-nest IR with the four
//! primitives of Table 1 (`fuse`, `split`, `reorder`, `bind`) — used by the
//! Table 1 experiment and by the space-size accounting. The second half is
//! the *loop-oriented matmul generator*: the kernel structure TVM's GEMM
//! schedules produce. Two deliberate limitations mirror the paper's §3:
//!
//! 1. **perfect tiles only** — tile sizes must divide the loop extents (no
//!    predication; paper §3.3, the reason primes fail in Fig. 19);
//! 2. **no double buffering** — the load/sync/compute/sync pipeline of paper
//!    Fig. 3 only (§3.1, the expressiveness gap).

use hidet_ir::prelude::*;

/// What a loop is bound to after scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoopAxis {
    /// Ordinary serial loop.
    Serial,
    /// Bound to `threadIdx.x`.
    ThreadIdx,
    /// Bound to `blockIdx.x`.
    BlockIdx,
}

/// One loop of an abstract loop nest.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Loop {
    /// Loop variable name.
    pub name: String,
    /// Trip count.
    pub extent: i64,
    /// Binding.
    pub axis: LoopAxis,
}

/// An abstract loop nest over an opaque statement — the object the paper's
/// Table 1 primitives transform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopNest {
    loops: Vec<Loop>,
}

impl LoopNest {
    /// A nest of serial loops with the given `(name, extent)` pairs,
    /// outermost first.
    pub fn new(loops: &[(&str, i64)]) -> LoopNest {
        LoopNest {
            loops: loops
                .iter()
                .map(|(n, e)| Loop {
                    name: n.to_string(),
                    extent: *e,
                    axis: LoopAxis::Serial,
                })
                .collect(),
        }
    }

    /// The loops, outermost first.
    pub fn loops(&self) -> &[Loop] {
        &self.loops
    }

    fn position(&self, name: &str) -> usize {
        self.loops
            .iter()
            .position(|l| l.name == name)
            .unwrap_or_else(|| panic!("no loop named {name}"))
    }

    /// Table 1 `split(i, factor)`: replaces `i` with `i.o` (extent / factor)
    /// and `i.i` (factor).
    ///
    /// # Panics
    /// Panics if the factor does not divide the extent — the *perfect tiling*
    /// restriction of input-centric spaces (paper §3.3).
    pub fn split(&mut self, name: &str, factor: i64) -> (String, String) {
        let pos = self.position(name);
        let extent = self.loops[pos].extent;
        assert!(
            extent % factor == 0,
            "loop-oriented split requires perfect factors: {factor} does not divide {extent}"
        );
        let outer = format!("{name}.o");
        let inner = format!("{name}.i");
        self.loops[pos] = Loop {
            name: outer.clone(),
            extent: extent / factor,
            axis: LoopAxis::Serial,
        };
        self.loops.insert(
            pos + 1,
            Loop {
                name: inner.clone(),
                extent: factor,
                axis: LoopAxis::Serial,
            },
        );
        (outer, inner)
    }

    /// Table 1 `fuse(i, j)`: fuses two *adjacent* loops into one.
    ///
    /// # Panics
    /// Panics if the loops are not adjacent (`j` directly inside `i`).
    pub fn fuse(&mut self, i: &str, j: &str) -> String {
        let pi = self.position(i);
        let pj = self.position(j);
        assert_eq!(pj, pi + 1, "fuse requires j directly inside i");
        let fused = format!("{i}.{j}");
        let extent = self.loops[pi].extent * self.loops[pj].extent;
        self.loops[pi] = Loop {
            name: fused.clone(),
            extent,
            axis: LoopAxis::Serial,
        };
        self.loops.remove(pj);
        fused
    }

    /// Table 1 `reorder(order...)`: permutes loops into the given order
    /// (loops not named keep their relative order after the named ones).
    pub fn reorder(&mut self, order: &[&str]) {
        let mut named: Vec<Loop> = order
            .iter()
            .map(|n| self.loops[self.position(n)].clone())
            .collect();
        let rest: Vec<Loop> = self
            .loops
            .iter()
            .filter(|l| !order.contains(&l.name.as_str()))
            .cloned()
            .collect();
        named.extend(rest);
        self.loops = named;
    }

    /// Table 1 `bind(i, axis)`.
    pub fn bind(&mut self, name: &str, axis: LoopAxis) {
        let pos = self.position(name);
        self.loops[pos].axis = axis;
    }

    /// Total iteration volume (invariant under all primitives).
    pub fn volume(&self) -> i64 {
        self.loops.iter().map(|l| l.extent).product()
    }
}

/// A loop-oriented GEMM schedule: the knobs TVM's matmul templates expose.
/// All tile sizes must divide the corresponding extents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LoopTileConfig {
    /// Block tile rows (must divide M).
    pub block_m: i64,
    /// Block tile cols (must divide N).
    pub block_n: i64,
    /// K tile (must divide K).
    pub block_k: i64,
    /// Per-thread tile rows (must divide `block_m`).
    pub thread_m: i64,
    /// Per-thread tile cols (must divide `block_n`).
    pub thread_n: i64,
}

impl LoopTileConfig {
    /// Threads per block.
    pub fn threads(&self) -> i64 {
        (self.block_m / self.thread_m) * (self.block_n / self.thread_n)
    }

    /// Shared memory per block in bytes (single-buffered: no pipelining).
    pub fn shared_bytes(&self) -> u64 {
        ((self.block_m * self.block_k + self.block_k * self.block_n) * 4) as u64
    }

    /// True if this config can be instantiated for `(m, n, k)` on a device
    /// with CUDA-architectural limits.
    pub fn is_valid(&self, m: i64, n: i64, k: i64, shared_limit: u64) -> bool {
        m % self.block_m == 0
            && n % self.block_n == 0
            && k % self.block_k == 0
            && self.block_m % self.thread_m == 0
            && self.block_n % self.thread_n == 0
            && (32..=1024).contains(&self.threads())
            && self.shared_bytes() <= shared_limit
    }
}

/// Generates the loop-oriented GEMM kernel for a *perfectly tiled* problem.
///
/// Structure (paper Fig. 3): cooperative load → sync → compute → sync, single
/// shared-memory buffer, thread-tile accumulation in registers. Compare with
/// the task-mapping template in `hidet-sched`, which adds predication and
/// double buffering — the two things this generator cannot express.
///
/// # Panics
/// Panics if the config is invalid for the problem (use
/// [`LoopTileConfig::is_valid`] first).
pub fn loop_matmul_kernel(m: i64, n: i64, k: i64, cfg: LoopTileConfig) -> Kernel {
    assert!(
        cfg.is_valid(m, n, k, u64::MAX),
        "invalid loop tile config {cfg:?}"
    );
    let LoopTileConfig {
        block_m: bm,
        block_n: bn,
        block_k: bk,
        thread_m: tm,
        thread_n: tn,
    } = cfg;
    let threads = cfg.threads();
    let grid = (m / bm) * (n / bn);
    let mut kb = KernelBuilder::new("loop_matmul", grid, threads);
    let a = kb.param("A", DType::F32, &[m, k]);
    let b = kb.param("B", DType::F32, &[k, n]);
    let cbuf = kb.param("C", DType::F32, &[m, n]);
    let smem_a = kb.shared("SmemA", DType::F32, &[bm, bk]);
    let smem_b = kb.shared("SmemB", DType::F32, &[bk, bn]);
    let acc = kb.local("Acc", DType::F32, &[tm, tn]);
    // TVM's cache_read("local") stage: operand fragments in registers.
    let frag_a = kb.local("FragA", DType::F32, &[tm]);
    let frag_b = kb.local("FragB", DType::F32, &[tn]);

    let m_idx = var("m_idx");
    let n_idx = var("n_idx");
    let ty = var("ty"); // thread row in the (bm/tm, bn/tn) thread grid
    let tx = var("tx");
    let cols = bn / tn;
    let mut body = vec![
        let_(&m_idx, block_idx() / (n / bn)),
        let_(&n_idx, block_idx() % (n / bn)),
        let_(&ty, thread_idx() / cols),
        let_(&tx, thread_idx() % cols),
    ];
    body.push(for_range("i", tm, |i| {
        for_range("j", tn, |j| store(&acc, vec![i.clone(), j], fconst(0.0)))
    }));

    // Strided cooperative loads: each thread copies every `threads`-th element.
    let tile_a = bm * bk;
    let tile_b = bk * bn;
    let load_tiles = |k0: Expr| -> Stmt {
        let ea = (tile_a + threads - 1) / threads;
        let eb = (tile_b + threads - 1) / threads;
        let a_stmt = for_range("e", ea, |e| {
            let flat = e * threads + thread_idx();
            let i = flat.clone() / bk;
            let kk = flat.clone() % bk;
            if_then(
                flat.lt(tile_a),
                store(
                    &smem_a,
                    vec![i.clone(), kk.clone()],
                    load(&a, vec![m_idx.expr() * bm + i, k0.clone() * bk + kk]),
                ),
            )
        });
        let b_stmt = for_range("e", eb, |e| {
            let flat = e * threads + thread_idx();
            let kk = flat.clone() / bn;
            let j = flat.clone() % bn;
            if_then(
                flat.lt(tile_b),
                store(
                    &smem_b,
                    vec![kk.clone(), j.clone()],
                    load(&b, vec![k0.clone() * bk + kk, n_idx.expr() * bn + j]),
                ),
            )
        });
        a_stmt.then(b_stmt)
    };

    body.push(for_range("k0", k / bk, |k0| {
        seq(vec![
            load_tiles(k0),
            sync_threads(),
            for_range("kk", bk, |kk| {
                seq(vec![
                    for_range("i", tm, |i| {
                        store(
                            &frag_a,
                            vec![i.clone()],
                            load(&smem_a, vec![ty.expr() * tm + i, kk.clone()]),
                        )
                    }),
                    for_range("j", tn, |j| {
                        store(
                            &frag_b,
                            vec![j.clone()],
                            load(&smem_b, vec![kk.clone(), tx.expr() * tn + j]),
                        )
                    }),
                    for_range("i", tm, |i| {
                        for_range("j", tn, |j| {
                            let cur = load(&acc, vec![i.clone(), j.clone()]);
                            let prod =
                                load(&frag_a, vec![i.clone()]) * load(&frag_b, vec![j.clone()]);
                            store(&acc, vec![i.clone(), j], cur + prod)
                        })
                    }),
                ])
            }),
            sync_threads(),
        ])
    }));

    body.push(for_range("i", tm, |i| {
        for_range("j", tn, |j| {
            store(
                &cbuf,
                vec![
                    m_idx.expr() * bm + ty.expr() * tm + i.clone(),
                    n_idx.expr() * bn + tx.expr() * tn + j.clone(),
                ],
                load(&acc, vec![i, j]),
            )
        })
    }));

    kb.body(hidet_ir::passes::simplify(seq(body)));
    // No pipelining: the defining limitation of loop-oriented scheduling.
    kb.meta(KernelMeta {
        pipeline_stages: 1,
        ..KernelMeta::default()
    });
    kb.build()
}

/// All positive divisors of `n`, ascending.
pub fn divisors(n: i64) -> Vec<i64> {
    let mut out = Vec::new();
    let mut d = 1;
    while d * d <= n {
        if n % d == 0 {
            out.push(d);
            if d != n / d {
                out.push(n / d);
            }
        }
        d += 1;
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidet_sim::{DeviceMemory, Gpu};

    #[test]
    fn table1_split() {
        let mut nest = LoopNest::new(&[("i", 512)]);
        let (o, i) = nest.split("i", 128);
        assert_eq!(nest.loops().len(), 2);
        assert_eq!(nest.loops()[0].extent, 4);
        assert_eq!(nest.loops()[1].extent, 128);
        assert_eq!((o.as_str(), i.as_str()), ("i.o", "i.i"));
        assert_eq!(nest.volume(), 512);
    }

    #[test]
    fn table1_fuse() {
        let mut nest = LoopNest::new(&[("i", 128), ("j", 4)]);
        let f = nest.fuse("i", "j");
        assert_eq!(nest.loops().len(), 1);
        assert_eq!(nest.loops()[0].extent, 512);
        assert_eq!(f, "i.j");
    }

    #[test]
    fn table1_reorder() {
        let mut nest = LoopNest::new(&[("i", 128), ("j", 4)]);
        nest.reorder(&["j", "i"]);
        assert_eq!(nest.loops()[0].name, "j");
        assert_eq!(nest.loops()[1].name, "i");
        assert_eq!(nest.volume(), 512);
    }

    #[test]
    fn table1_bind() {
        let mut nest = LoopNest::new(&[("i", 128)]);
        nest.bind("i", LoopAxis::ThreadIdx);
        assert_eq!(nest.loops()[0].axis, LoopAxis::ThreadIdx);
    }

    #[test]
    fn fig4_matmul_schedule_sequence() {
        // The paper's Fig. 4 workflow: split i and j by 64, reorder, bind.
        let mut nest = LoopNest::new(&[("i", 1024), ("j", 1024), ("k", 1024)]);
        nest.split("i", 64);
        nest.split("j", 64);
        nest.reorder(&["i.o", "j.o", "i.i", "j.i"]);
        nest.bind("i.o", LoopAxis::BlockIdx);
        nest.bind("j.o", LoopAxis::BlockIdx);
        assert_eq!(nest.loops()[0].name, "i.o");
        assert_eq!(nest.loops()[0].axis, LoopAxis::BlockIdx);
        assert_eq!(nest.volume(), 1024 * 1024 * 1024);
    }

    #[test]
    #[should_panic(expected = "perfect factors")]
    fn split_rejects_imperfect_factors() {
        // The input-centric restriction: 3 does not divide 10.
        let mut nest = LoopNest::new(&[("i", 10)]);
        nest.split("i", 3);
    }

    #[test]
    fn loop_matmul_is_functionally_correct() {
        let cfg = LoopTileConfig {
            block_m: 32,
            block_n: 32,
            block_k: 8,
            thread_m: 4,
            thread_n: 4,
        };
        let kernel = loop_matmul_kernel(64, 64, 32, cfg);
        let gpu = Gpu::default();
        let mut mem = DeviceMemory::new();
        let a = hidet_graph::Tensor::randn(&[64, 32], 1);
        let b = hidet_graph::Tensor::randn(&[32, 64], 2);
        mem.alloc("A", a.data().unwrap());
        mem.alloc("B", b.data().unwrap());
        mem.alloc_zeroed("C", 64 * 64);
        gpu.run(&kernel, &mut mem).unwrap();
        // Spot-check one element.
        let (ad, bd) = (a.data().unwrap(), b.data().unwrap());
        let expect: f32 = (0..32).map(|kk| ad[kk] * bd[kk * 64]).sum();
        assert!((mem.read("C")[0] - expect).abs() < 1e-3);
    }

    #[test]
    fn loop_matmul_cannot_express_double_buffering() {
        let cfg = LoopTileConfig {
            block_m: 32,
            block_n: 32,
            block_k: 8,
            thread_m: 4,
            thread_n: 4,
        };
        let kernel = loop_matmul_kernel(64, 64, 32, cfg);
        assert_eq!(kernel.meta().pipeline_stages, 1);
        let smem_a = (kernel.shared_buffers().iter())
            .find(|b| b.name() == "SmemA")
            .unwrap();
        assert_eq!(smem_a.shape()[0], 32); // no stage dim
    }

    #[test]
    fn validity_requires_divisibility() {
        let cfg = LoopTileConfig {
            block_m: 32,
            block_n: 32,
            block_k: 8,
            thread_m: 4,
            thread_n: 4,
        };
        assert!(cfg.is_valid(64, 64, 32, u64::MAX));
        assert!(!cfg.is_valid(100, 64, 32, u64::MAX)); // 32 does not divide 100
        assert!(!cfg.is_valid(2039, 2039, 2039, u64::MAX)); // prime
    }

    #[test]
    fn divisors_of_primes_and_composites() {
        assert_eq!(divisors(2039), vec![1, 2039]); // prime (Fig. 19)
        assert_eq!(divisors(12), vec![1, 2, 3, 4, 6, 12]);
        assert_eq!(divisors(1), vec![1]);
    }
}
