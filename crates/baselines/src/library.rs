//! A cuDNN/cuBLAS-like kernel library (paper §1, §2).
//!
//! Vendor libraries ship *hand-tuned, double-buffered* kernels selected from a
//! fixed table keyed by rounded problem sizes — near-peak on the common round
//! shapes they were tuned for, but **not tuned per shape** (paper §6.3.3: at
//! odd sizes and small batches they leave performance behind, which is where
//! compilers win). The library reuses the task-mapping matmul template with
//! `stages = 2` — vendor kernels *do* implement double buffering (§3.1); what
//! they lack is per-input-size schedule search.

use hidet_graph::{Graph, OpKind, Operator};
use hidet_sched::rule_based::{depthwise_conv_kernel, pool_kernel, WindowIo, WindowReduce};
use hidet_sched::templates::reduce::{reduce_kernel, ReduceIo, RowReduceKind};
use hidet_sched::{anchor_problem, matmul_work, AnchorProblem, MatmulConfig, MatmulProblem};
use hidet_sim::cost::estimate_from;
use hidet_sim::Gpu;

use crate::executor::streaming_latency;

/// Picks the library's pre-tuned configuration for a GEMM problem.
///
/// The table is keyed by rounded size classes only (the paper's point:
/// libraries cover round shapes, they do not search per shape). All entries
/// are double-buffered; skinny problems with a long reduction get the
/// library's splitK kernel (cuBLAS's heuristic kernel selection).
pub fn library_matmul_config(m: i64, n: i64, k: i64) -> MatmulConfig {
    let pick = |extent: i64| -> i64 {
        if extent >= 512 {
            128
        } else if extent >= 96 {
            64
        } else {
            32
        }
    };
    let (block_m, block_n) = (pick(m), pick(n));
    let (warps_m, warps_n) = match (block_m, block_n) {
        (128, 128) => (4, 2),
        (128, 64) | (64, 128) => (2, 2),
        (64, 64) => (2, 2),
        (64, 32) => (2, 1),
        (32, 64) => (1, 2),
        (32, 128) => (1, 4),
        (128, 32) => (4, 1),
        _ => (1, 1),
    };
    let (thread_m, thread_n) = if block_m >= 64 && block_n >= 64 {
        (4, 4)
    } else {
        (2, 2)
    };
    // SplitK selection: not enough output tiles to fill half the SMs, long K.
    let tiles = ((m + block_m - 1) / block_m) * ((n + block_n - 1) / block_n);
    let split_k = if tiles < 41 && k >= 1024 { 4 } else { 1 };
    MatmulConfig {
        block_m,
        block_n,
        block_k: 8,
        warps_m,
        warps_n,
        thread_m,
        thread_n,
        stages: 2,
        split_k,
    }
}

/// Library GEMM latency: the cost model over the template's kernels for the
/// library's configuration.
pub fn matmul_latency(problem: MatmulProblem, gpu: &Gpu) -> f64 {
    let cfg = library_matmul_config(problem.m, problem.n, problem.k);
    priced_matmul(problem, cfg, false, gpu)
}

/// Simulated seconds of the template's kernels for `cfg` on `problem`, from
/// [`matmul_work`] (no kernel is built), optionally marked as running on
/// Tensor Cores; an unlaunchable kernel costs infinity.
pub(crate) fn priced_matmul(
    problem: MatmulProblem,
    cfg: MatmulConfig,
    tensor_cores: bool,
    gpu: &Gpu,
) -> f64 {
    matmul_work(problem, cfg)
        .into_iter()
        .map(|(mut facts, work)| {
            facts.meta.uses_tensor_cores |= tensor_cores;
            estimate_from(&facts, &work, gpu.spec()).map_or(f64::INFINITY, |e| e.seconds)
        })
        .sum()
}

/// The GEMM problem a dense convolution maps to under cuDNN's implicit GEMM.
pub fn conv_gemm_problem(graph: &Graph, op: &Operator) -> MatmulProblem {
    let OpKind::Conv2d { groups, .. } = op.kind else {
        panic!("conv_gemm_problem on non-conv {}", op.name);
    };
    let xs = graph.tensor(op.inputs[0]).shape();
    let ws = graph.tensor(op.inputs[1]).shape();
    let os = graph.tensor(op.output).shape();
    let m = xs[0] * os[2] * os[3];
    let n = ws[0];
    let k = (xs[1] / groups) * ws[2] * ws[3];
    MatmulProblem::new(m, n, k)
}

/// Per-operator library latency: the cost of dispatching `op` to the
/// appropriate vendor kernel.
///
/// GEMM-shaped operators go through the library's pre-tuned matmul kernels;
/// windowed and reduction operators are costed on the *same generated
/// kernels* the Hidet scheduler emits (vendor implementations have the same
/// access structure), so executor comparisons differ only in fusion coverage,
/// GEMM schedule quality and dispatch overhead — the paper's axes.
pub fn op_latency(graph: &Graph, op: &Operator, gpu: &Gpu) -> f64 {
    let out_bytes = graph.tensor(op.output).numel() as f64 * 4.0;
    let in_bytes: f64 = op
        .inputs
        .iter()
        .map(|t| graph.tensor(*t).numel() as f64 * 4.0)
        .sum();
    match (&op.kind, anchor_problem(&op.kind, &graph.input_shapes(op))) {
        (_, Some(AnchorProblem::Matmul(problem))) => matmul_latency(problem, gpu),
        (_, Some(AnchorProblem::RowReduce { kind, rows, len })) => {
            row_reduce_latency(kind, rows, len, gpu)
        }
        (OpKind::Conv2d { groups, .. }, _) => {
            if *groups > 1 {
                depthwise_latency(graph, op, gpu)
            } else {
                matmul_latency(conv_gemm_problem(graph, op), gpu)
            }
        }
        (
            OpKind::MaxPool {
                kernel,
                stride,
                padding,
            }
            | OpKind::AvgPool {
                kernel,
                stride,
                padding,
            },
            _,
        ) => {
            let reduce = if matches!(op.kind, OpKind::MaxPool { .. }) {
                WindowReduce::Max
            } else {
                WindowReduce::Avg
            };
            let in_shape = graph.tensor(op.inputs[0]).shape().to_vec();
            let out_shape = graph.tensor(op.output).shape().to_vec();
            let io = direct_window_io("lib_pool", &in_shape, &out_shape);
            let kernel = pool_kernel(
                reduce, &in_shape, &out_shape, *kernel, *stride, *padding, io,
            );
            gpu.estimate(&kernel)
                .map(|e| e.seconds)
                .unwrap_or(f64::INFINITY)
        }
        // Everything else is a memory-bound elementwise/copy kernel.
        _ => streaming_latency(in_bytes + out_bytes, gpu),
    }
}

fn direct_window_io(name: &str, in_shape: &[i64], out_shape: &[i64]) -> WindowIo<'static> {
    let x = hidet_ir::Buffer::new(
        "X",
        hidet_ir::MemScope::Global,
        hidet_ir::DType::F32,
        in_shape,
    );
    let y = hidet_ir::Buffer::new(
        "Y",
        hidet_ir::MemScope::Global,
        hidet_ir::DType::F32,
        out_shape,
    );
    let x2 = x.clone();
    let y2 = y.clone();
    WindowIo {
        name: name.to_string(),
        load: Box::new(move |idx| hidet_ir::builder::load(&x2, idx.to_vec())),
        store: Box::new(move |idx, v| hidet_ir::builder::store(&y2, idx.to_vec(), v)),
        params: vec![x, y],
    }
}

fn depthwise_latency(graph: &Graph, op: &Operator, gpu: &Gpu) -> f64 {
    let OpKind::Conv2d {
        stride, padding, ..
    } = op.kind
    else {
        unreachable!()
    };
    let in_shape = graph.tensor(op.inputs[0]).shape().to_vec();
    let out_shape = graph.tensor(op.output).shape().to_vec();
    let w_shape = graph.tensor(op.inputs[1]).shape().to_vec();
    let w = hidet_ir::Buffer::new(
        "W",
        hidet_ir::MemScope::Global,
        hidet_ir::DType::F32,
        &w_shape,
    );
    let mut io = direct_window_io("lib_dwconv", &in_shape, &out_shape);
    io.params.push(w.clone());
    let kernel = depthwise_conv_kernel(&in_shape, &out_shape, w, w_shape[2], stride, padding, io);
    gpu.estimate(&kernel)
        .map(|e| e.seconds)
        .unwrap_or(f64::INFINITY)
}

fn row_reduce_latency(kind: RowReduceKind, rows: i64, len: i64, gpu: &Gpu) -> f64 {
    let cfg = hidet_sched::pick_reduce_config(rows, len, gpu);
    let io = ReduceIo::direct("lib_reduce", kind, rows, len);
    let kernel = reduce_kernel(kind, rows, len, cfg, io);
    gpu.estimate(&kernel)
        .map(|e| e.seconds)
        .unwrap_or(f64::INFINITY)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidet_graph::GraphBuilder;

    #[test]
    fn config_table_by_size_class() {
        assert_eq!(library_matmul_config(2048, 2048, 2048).block_m, 128);
        assert_eq!(library_matmul_config(128, 128, 128).block_m, 64);
        assert_eq!(library_matmul_config(32, 32, 32).block_m, 32);
        // Libraries always double-buffer.
        assert_eq!(library_matmul_config(7, 9, 16).stages, 2);
        // SplitK kernels for skinny problems with long K (cuBLAS heuristic).
        assert_eq!(library_matmul_config(128, 768, 3072).split_k, 4);
        assert_eq!(library_matmul_config(4096, 4096, 4096).split_k, 1);
    }

    #[test]
    fn library_handles_odd_sizes_via_predication() {
        let gpu = Gpu::default();
        let l = matmul_latency(MatmulProblem::new(2039, 2039, 2039), &gpu);
        assert!(l.is_finite() && l > 0.0);
    }

    #[test]
    fn round_sizes_are_more_efficient_than_just_past_tile() {
        // 1025 rounds up a whole extra tile row: worse per FLOP than 1024.
        let gpu = Gpu::default();
        let round = matmul_latency(MatmulProblem::new(1024, 1024, 1024), &gpu);
        let odd = matmul_latency(MatmulProblem::new(1025, 1025, 1024), &gpu);
        let round_per_flop = round / (1024f64 * 1024.0 * 1024.0);
        let odd_per_flop = odd / (1025f64 * 1025.0 * 1024.0);
        assert!(
            odd_per_flop > round_per_flop,
            "{odd_per_flop} <= {round_per_flop}"
        );
    }

    #[test]
    fn conv_maps_to_gemm() {
        let mut g = GraphBuilder::new("t");
        let x = g.input("x", &[1, 256, 28, 28]);
        let w = g.weight(&[512, 256, 3, 3]);
        let y = g.conv2d(x, w, 2, 1);
        let graph = g.output(y).build();
        let op = &graph.ops()[0];
        let p = conv_gemm_problem(&graph, op);
        assert_eq!((p.m, p.n, p.k), (196, 512, 2304));
    }

    #[test]
    fn op_latency_positive_for_all_kinds() {
        let gpu = Gpu::default();
        let mut g = GraphBuilder::new("t");
        let x = g.input("x", &[1, 8, 16, 16]);
        let y = g.conv_bn_relu(x, 8, 3, 1, 1);
        let y = g.max_pool(y, 2, 2, 0);
        let y = g.global_avg_pool(y);
        let y = g.linear(y, 10);
        let y = g.softmax(y, 1);
        let graph = g.output(y).build();
        for op in graph.ops() {
            let l = op_latency(&graph, op, &gpu);
            assert!(l > 0.0 && l.is_finite(), "{}: {l}", op.name);
        }
    }
}
