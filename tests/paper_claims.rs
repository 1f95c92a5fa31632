//! Integration tests pinning the paper's *qualitative claims* — the
//! reproduction's acceptance criteria. Each test names the paper section it
//! validates.

use hidet::prelude::*;
use hidet_baselines::frameworks::OnnxRuntimeLike;
use hidet_baselines::tvm::{AnsorLike, AutoTvmLike};
use hidet_baselines::GraphExecutor;
use hidet_graph::models;
use hidet_sched::{matmul_kernel, matmul_space, tune_matmul, MatmulIo};

/// §3.1 + §6.3.3: double buffering (inexpressible in loop-oriented
/// scheduling) makes the same schedule faster on compute/memory-balanced
/// GEMMs.
#[test]
fn double_buffering_wins_on_balanced_gemm() {
    let gpu = Gpu::default();
    let problem = MatmulProblem::new(4096, 4096, 4096);
    let base = tune_matmul(problem, &gpu).best;
    let lat = |stages: u32| {
        let cfg = MatmulConfig { stages, ..base };
        let kernels = matmul_kernel(problem, cfg, MatmulIo::direct("t", problem));
        gpu.estimate(&kernels[0]).unwrap().seconds
    };
    assert!(
        lat(2) < lat(1),
        "double buffering must help: {} vs {}",
        lat(2),
        lat(1)
    );
}

/// §3.3 + Fig. 19: input-centric spaces fail on primes, Hidet does not.
#[test]
fn prime_sizes_fail_baselines_not_hidet() {
    let gpu = Gpu::default();
    let atvm = hidet_baselines::autotvm::tune_matmul(2039, 2039, 2039, 50, 0, &gpu);
    let ansor = hidet_baselines::ansor::tune_matmul(2039, 2039, 2039, 50, 0, &gpu);
    assert_eq!(atvm.best_latency, None);
    assert_eq!(ansor.best_latency, None);
    let hidet = tune_matmul(MatmulProblem::new(2039, 2039, 2039), &gpu);
    assert!(hidet.best_latency.seconds.is_finite());
}

/// Fig. 19: Hidet's latency is *consistent* across consecutive sizes while
/// the baselines fluctuate.
#[test]
fn consecutive_sizes_consistency() {
    let gpu = Gpu::default();
    let sizes = [2048i64, 2046, 2044, 2042];
    let hidet: Vec<f64> = sizes
        .iter()
        .map(|&s| {
            tune_matmul(MatmulProblem::new(s, s, s), &gpu)
                .best_latency
                .seconds
        })
        .collect();
    let spread = hidet.iter().cloned().fold(0.0, f64::max)
        / hidet.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(spread < 1.15, "Hidet spread {spread} too large: {hidet:?}");

    let baseline: Vec<f64> = sizes
        .iter()
        .map(|&s| {
            hidet_baselines::autotvm::tune_matmul(s, s, s, 150, 0, &gpu)
                .best_latency
                .unwrap_or(f64::INFINITY)
        })
        .collect();
    let bspread = baseline.iter().cloned().fold(0.0, f64::max)
        / baseline.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(
        bspread > spread,
        "baselines should fluctuate more: {bspread} vs {spread} ({baseline:?})"
    );
}

/// §4.3 + §6.2: the Hidet schedule space is tiny and input-independent;
/// tuning cost is an order of magnitude below the baselines'.
#[test]
fn tuning_cost_ratio_holds_on_resnet() {
    let gpu = Gpu::default();
    let graph = models::resnet50(1);
    // Reduced budgets keep the test fast; the *ratio* is what matters and it
    // is driven by trials-per-workload.
    let atvm = AutoTvmLike {
        trials: 200,
        seed: 0,
    }
    .evaluate(&graph, &gpu);
    let hidet = HidetExecutor::tuned().evaluate(&graph, &gpu);
    assert!(hidet.tuning_seconds > 0.0);
    assert!(
        atvm.tuning_seconds > 2.0 * hidet.tuning_seconds,
        "AutoTVM {}s vs Hidet {}s",
        atvm.tuning_seconds,
        hidet.tuning_seconds
    );
}

/// §6.2 Fig. 16 (shape): Hidet beats the framework executors on ResNet-50.
#[test]
fn hidet_beats_frameworks_on_resnet() {
    let gpu = Gpu::default();
    let graph = models::resnet50(1);
    let hidet = HidetExecutor::tuned().evaluate(&graph, &gpu);
    let ort = OnnxRuntimeLike.evaluate(&graph, &gpu);
    assert!(
        hidet.latency_seconds < ort.latency_seconds,
        "Hidet {} vs ORT {}",
        hidet.latency_seconds,
        ort.latency_seconds
    );
}

/// §6.2 (MobileNet-V2 exception): Ansor's generated schedules beat Hidet on
/// the depthwise-convolution-heavy model — the one benchmark the paper loses.
#[test]
fn ansor_wins_mobilenet() {
    let gpu = Gpu::default();
    let graph = models::mobilenet_v2(1);
    let hidet = HidetExecutor::tuned().evaluate(&graph, &gpu);
    let ansor = AnsorLike {
        trials: 200,
        seed: 0,
    }
    .evaluate(&graph, &gpu);
    assert!(
        ansor.latency_seconds < hidet.latency_seconds,
        "paper reports 0.88x here: Ansor {} vs Hidet {}",
        ansor.latency_seconds,
        hidet.latency_seconds
    );
}

/// §6.3.5 Fig. 22 (shape): TensorRT wins transformers (fused attention),
/// Hidet wins CNNs.
#[test]
fn tensorrt_crossover() {
    let gpu = Gpu::default();
    let trt_bert = hidet_baselines::trt::TensorRtLike.evaluate(&models::bert_base(1, 128), &gpu);
    let hidet_bert = HidetExecutor::tuned().evaluate(&models::bert_base(1, 128), &gpu);
    assert!(
        trt_bert.latency_seconds < hidet_bert.latency_seconds,
        "TRT must win Bert"
    );

    let trt_res = hidet_baselines::trt::TensorRtLike.evaluate(&models::resnet50(1), &gpu);
    let hidet_res = HidetExecutor::tuned().evaluate(&models::resnet50(1), &gpu);
    assert!(
        hidet_res.latency_seconds < trt_res.latency_seconds,
        "Hidet must win ResNet-50"
    );
}

/// §4.3: the schedule space stays in the paper's regime — a few hundred
/// candidates (paper: "less than 200"; ours carries two extra warp layouts
/// for skinny transformer GEMMs and 48 warp-sized tiles below 16×32 for the
/// serving stack's skinny GEMMs), exhaustively enumerable, versus the
/// baselines' 10^5–10^8.
#[test]
fn schedule_space_size_matches_paper() {
    let space = matmul_space(&GpuSpec::rtx3090());
    assert!(
        (150..400).contains(&space.len()),
        "expected a few hundred schedules; got {}",
        space.len()
    );
}

/// Fig. 7: input-centric conv spaces are orders of magnitude larger than
/// Hidet's space.
#[test]
fn conv_space_ratio() {
    let workloads = models::resnet50_conv_workloads(1);
    let hidet = matmul_space(&GpuSpec::rtx3090()).len() as f64;
    let mean = {
        let logs: f64 = workloads
            .iter()
            .map(|w| (hidet_baselines::autotvm::conv_space_size(w) as f64).ln())
            .sum();
        (logs / workloads.len() as f64).exp()
    };
    assert!(mean / hidet > 1e3, "ratio {}", mean / hidet);
}
