//! Figure 18: latency distribution of the schedules in the three spaces
//! (AutoTVM 1000 samples, Ansor 800 samples, Hidet's entire 198-schedule
//! space) on one ResNet-50 convolution: batch 1, 28×28, 256 channels,
//! kernel 3, stride 2, padding 1.
//!
//! Paper: most Hidet-space schedules are faster than anything the
//! input-centric spaces sample (latency < 73 µs bucket).

use hidet_baselines::loop_sched::loop_matmul_kernel;
use hidet_bench::{arg_usize, print_table};
use hidet_graph::models::ConvWorkload;
use hidet_runtime::stats::percentile;
use hidet_sched::{matmul_kernel, matmul_space, MatmulIo, MatmulProblem};
use hidet_sim::Gpu;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn summarize(name: &str, mut latencies_us: Vec<f64>) -> Vec<String> {
    latencies_us.sort_by(f64::total_cmp);
    vec![
        name.to_string(),
        latencies_us.len().to_string(),
        format!("{:.1}", percentile(&latencies_us, 0.0)),
        format!("{:.1}", percentile(&latencies_us, 0.5)),
        format!("{:.1}", percentile(&latencies_us, 0.9)),
        format!("{:.1}", percentile(&latencies_us, 1.0)),
    ]
}

fn main() {
    let atvm_samples = arg_usize("--autotvm-samples", 1000);
    let ansor_samples = arg_usize("--ansor-samples", 800);
    let gpu = Gpu::default();
    let w = ConvWorkload {
        batch: 1,
        in_channels: 256,
        image_size: 28,
        out_channels: 256,
        kernel: 3,
        stride: 2,
        padding: 1,
    };
    let (m, n, k) = w.gemm_shape();
    println!("=== Fig. 18: schedule latency distribution ===");
    println!("workload: ResNet-50 conv c=256 hw=28 k=3 s=2 p=1 -> GEMM {m}x{n}x{k}\n");

    // Hidet: the entire hardware-centric space.
    let problem = MatmulProblem::new(m, n, k);
    let hidet: Vec<f64> = matmul_space(gpu.spec())
        .into_iter()
        .filter_map(|cfg| {
            let kernels = matmul_kernel(problem, cfg, MatmulIo::direct("probe", problem));
            gpu.estimate(&kernels[0]).ok().map(|e| e.micros())
        })
        .collect();

    // AutoTVM / Ansor: samples from the input-centric space (the spaces are
    // too large to enumerate — exactly the paper's methodology).
    let space = hidet_baselines::autotvm::matmul_space(m, n, k);
    let sample = |n_samples: usize, seed: u64| -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n_samples)
            .filter_map(|_| {
                let cfg = space.choose(&mut rng)?;
                gpu.estimate(&loop_matmul_kernel(m, n, k, *cfg))
                    .ok()
                    .map(|e| e.micros())
            })
            .collect()
    };
    let autotvm = sample(atvm_samples, 18);
    let ansor = sample(ansor_samples, 81);

    let hidet_med = {
        let mut h = hidet.clone();
        h.sort_by(f64::total_cmp);
        percentile(&h, 0.5)
    };
    let rows = vec![
        summarize("AutoTVM", autotvm.clone()),
        summarize("Ansor", ansor.clone()),
        summarize("Hidet", hidet.clone()),
    ];
    print_table(
        &[
            "space",
            "schedules",
            "min(us)",
            "p50(us)",
            "p90(us)",
            "max(us)",
        ],
        &rows,
    );

    // The paper's headline: the fraction of each space faster than Hidet's
    // median schedule.
    let frac = |xs: &[f64]| xs.iter().filter(|&&x| x < hidet_med).count() as f64 / xs.len() as f64;
    println!("\nfraction of schedules faster than Hidet's median ({hidet_med:.1} us):");
    println!(
        "  AutoTVM: {:.1}%   Ansor: {:.1}%   Hidet: 50.0% (by definition)",
        frac(&autotvm) * 100.0,
        frac(&ansor) * 100.0
    );
    println!("[paper: most Hidet schedules beat the < 73 us mark; the sampled spaces rarely do]");
}
