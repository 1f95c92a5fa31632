//! TensorRT-like inference engine (paper §6.3.5, Fig. 22).
//!
//! TensorRT layers three advantages over plain library dispatch:
//!
//! 1. aggressive graph fusion (conv+bn+activation into one kernel);
//! 2. **dedicated fused self-attention kernels** — it "recognizes
//!    self-attention layers in transformer models and applies dedicated
//!    optimizations" (paper's §6.3.5 speculation), avoiding the
//!    materialization of the `seq × seq` score matrix in global memory;
//! 3. Tensor-Core kernels by default.
//!
//! It does *not* tune per input shape, which is why Hidet beats it on the
//! CNNs (paper Fig. 22) while it wins on Bert/GPT-2.

use hidet_graph::{FuseClass, Graph, OpId, OpKind};
use hidet_sched::{anchor_problem, AnchorProblem};
use hidet_sim::Gpu;

use crate::executor::{ExecutorReport, GraphExecutor};
use crate::library;

/// TensorRT per-kernel dispatch overhead (engine execution is lean).
pub const TRT_DISPATCH_S: f64 = 2.0e-6;

/// TensorRT converts well-shaped *matrix-multiply layers* to Tensor-Core
/// kernels (TF32): all dimensions must align to the MMA fragment sizes and be
/// large enough to amortize the fragment pipeline. Convolutions stay on CUDA
/// cores in fp32 mode: Tensor-Core convs need NHWC layouts, and at batch 1
/// the layout conversions cost more than they save — which is why TensorRT's
/// advantage concentrates on transformers (paper Fig. 22 and its §6.3.5
/// discussion of "dedicated optimizations" for attention).
fn tensor_core_eligible(p: hidet_sched::MatmulProblem) -> bool {
    p.m % 16 == 0 && p.n % 16 == 0 && p.k % 16 == 0 && p.m >= 64 && p.n >= 64 && p.k >= 64
}

/// Library GEMM latency under TensorRT's build-time *tactic profiling*: the
/// engine builder times a handful of pre-built kernels (tactics) per layer
/// and keeps the fastest — far fewer candidates than a schedule search, but
/// enough to avoid pathological tile choices on skinny problems.
fn trt_matmul_latency(p: hidet_sched::MatmulProblem, allow_tc: bool, gpu: &Gpu) -> f64 {
    let mut tactics = vec![library::library_matmul_config(p.m, p.n, p.k)];
    for (bm, bn, wm, wn) in [(64i64, 64i64, 2i64, 2i64), (64, 32, 2, 1), (32, 64, 1, 2)] {
        let mut cfg = hidet_sched::MatmulConfig {
            block_m: bm,
            block_n: bn,
            block_k: 8,
            warps_m: wm,
            warps_n: wn,
            thread_m: 4,
            thread_n: 4,
            stages: 2,
            split_k: 1,
        };
        if !cfg.is_structurally_valid() {
            cfg.thread_m = 2;
            cfg.thread_n = 2;
        }
        if cfg.is_structurally_valid() {
            tactics.push(cfg);
        }
    }
    let tensor_cores = allow_tc && tensor_core_eligible(p);
    tactics
        .into_iter()
        .map(|cfg| library::priced_matmul(p, cfg, tensor_cores, gpu))
        .fold(f64::INFINITY, f64::min)
}

/// Per-operator latency under TensorRT's kernel selection.
fn trt_op_latency(graph: &Graph, op: &hidet_graph::Operator, gpu: &Gpu) -> f64 {
    match (&op.kind, anchor_problem(&op.kind, &graph.input_shapes(op))) {
        (OpKind::Conv2d { groups, .. }, _) if *groups == 1 => {
            // fp32 conv tactics (no Tensor Cores at batch 1 / NCHW).
            trt_matmul_latency(library::conv_gemm_problem(graph, op), false, gpu)
        }
        (_, Some(AnchorProblem::Matmul(p))) => trt_matmul_latency(p, true, gpu),
        _ => library::op_latency(graph, op, gpu),
    }
}

/// TensorRT-like executor.
#[derive(Debug, Clone, Copy, Default)]
pub struct TensorRtLike;

/// One detected self-attention core: `scores = bmm(q, kᵀ)`, softmax, and
/// `ctx = bmm(probs, v)` (the scale `mul` in between is folded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttentionPattern {
    /// The first batched matmul (QKᵀ).
    pub qk: OpId,
    /// The softmax.
    pub softmax: OpId,
    /// The second batched matmul (probs·V).
    pub pv: OpId,
}

/// Detects fused-attention opportunities: a `BatchMatmul` whose (possibly
/// scaled) output feeds a `Softmax` whose output feeds another `BatchMatmul`.
pub fn detect_attention(graph: &Graph) -> Vec<AttentionPattern> {
    let mut out = Vec::new();
    for (idx, op) in graph.ops().iter().enumerate() {
        if !matches!(op.kind, OpKind::BatchMatmul) {
            continue;
        }
        // Follow through an optional elementwise scale.
        let mut t = op.output;
        loop {
            let consumers = graph.consumers(t);
            if consumers.len() != 1 {
                break;
            }
            let c = consumers[0];
            match &graph.op(c).kind {
                OpKind::Binary(_) => {
                    t = graph.op(c).output;
                }
                OpKind::Softmax { .. } => {
                    let softmax = c;
                    let s_out = graph.op(c).output;
                    let next = graph.consumers(s_out);
                    if next.len() == 1 && matches!(graph.op(next[0]).kind, OpKind::BatchMatmul) {
                        out.push(AttentionPattern {
                            qk: OpId(idx),
                            softmax,
                            pv: next[0],
                        });
                    }
                    break;
                }
                _ => break,
            }
        }
    }
    out
}

/// Latency of one fused attention kernel: both batched GEMMs run on Tensor
/// Cores and the score matrix never touches DRAM.
fn fused_attention_latency(graph: &Graph, pat: &AttentionPattern, gpu: &Gpu) -> f64 {
    let spec = gpu.spec();
    let qk = graph.op(pat.qk);
    let pv = graph.op(pat.pv);
    let a = graph.tensor(qk.inputs[0]).shape(); // [heads, seq, dk]
    let flops_qk = 2.0 * graph.tensor(qk.output).numel() as f64 * a[2] as f64;
    let b = graph.tensor(pv.inputs[0]).shape(); // [heads, seq, seq]
    let flops_pv = 2.0 * graph.tensor(pv.output).numel() as f64 * b[2] as f64;
    // Bytes: only Q, K, V in and context out (scores stay on-chip).
    let io_bytes: f64 = qk
        .inputs
        .iter()
        .chain(
            pv.inputs
                .iter()
                .filter(|t| **t != graph.op(pat.softmax).output),
        )
        .map(|t| graph.tensor(*t).numel() as f64 * 4.0)
        .sum::<f64>()
        + graph.tensor(pv.output).numel() as f64 * 4.0;
    let t_comp = (flops_qk + flops_pv) / (spec.tensor_flops() * 0.5);
    let t_mem = io_bytes / (spec.dram_bytes_per_s() * 0.8);
    spec.launch_overhead_s + t_comp.max(t_mem)
}

impl GraphExecutor for TensorRtLike {
    fn name(&self) -> &str {
        "TensorRT"
    }

    fn evaluate(&self, graph: &Graph, gpu: &Gpu) -> ExecutorReport {
        let patterns = detect_attention(graph);
        // Ops covered by fused attention kernels (including the scale muls
        // between qk and softmax).
        let mut covered = std::collections::HashSet::new();
        for p in &patterns {
            covered.insert(p.qk);
            covered.insert(p.softmax);
            covered.insert(p.pv);
            // The optional scale between qk and softmax.
            let mut t = graph.op(p.qk).output;
            while let Some(&c) = graph.consumers(t).first() {
                if c == p.softmax {
                    break;
                }
                covered.insert(c);
                t = graph.op(c).output;
            }
        }
        let mut latency = 0.0;
        let mut launches = 0usize;
        for p in &patterns {
            latency += fused_attention_latency(graph, p, gpu) + TRT_DISPATCH_S;
            launches += 1;
        }
        for (idx, op) in graph.ops().iter().enumerate() {
            if covered.contains(&OpId(idx)) {
                continue;
            }
            match op.kind.fuse_class() {
                FuseClass::Bijective
                    if op.inputs.first().and_then(|t| graph.producer(*t)).is_some() =>
                {
                    // Fused into the producer.
                    continue;
                }
                _ => {
                    latency += trt_op_latency(graph, op, gpu) + TRT_DISPATCH_S;
                    launches += 1;
                }
            }
        }
        ExecutorReport {
            executor: self.name().to_string(),
            model: graph.name().to_string(),
            latency_seconds: latency,
            tuning_seconds: 0.0,
            kernel_launches: launches,
            failure: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frameworks::OnnxRuntimeLike;
    use hidet_graph::models;

    #[test]
    fn detects_attention_in_bert() {
        let graph = models::bert_base(1, 128);
        let patterns = detect_attention(&graph);
        assert_eq!(patterns.len(), 12, "one per layer");
    }

    #[test]
    fn no_attention_in_cnns() {
        let graph = models::resnet50(1);
        assert!(detect_attention(&graph).is_empty());
    }

    #[test]
    fn trt_beats_ort_on_transformers() {
        let gpu = Gpu::default();
        let graph = models::bert_base(1, 128);
        let trt = TensorRtLike.evaluate(&graph, &gpu);
        let ort = OnnxRuntimeLike.evaluate(&graph, &gpu);
        assert!(
            trt.latency_seconds < ort.latency_seconds,
            "TRT {} vs ORT {}",
            trt.latency_seconds,
            ort.latency_seconds
        );
    }

    #[test]
    fn trt_runs_cnns() {
        let gpu = Gpu::default();
        let report = TensorRtLike.evaluate(&models::mobilenet_v2(1), &gpu);
        assert!(report.latency_seconds.is_finite() && report.latency_seconds > 0.0);
    }
}
