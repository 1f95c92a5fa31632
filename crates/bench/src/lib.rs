//! Shared utilities of the paper-reproduction bins (`fig*`, `table1`,
//! `ablation_optimizations`, `verify_sweep`): table formatting, paper
//! reference data, and the standard executor line-up of the paper's
//! evaluation (§6.1).
//!
//! Performance of the serving stack is not measured here: the two-clock
//! harness in `benchmark/` (outside the workspace) times it, and named tests
//! in each crate hold the behavioural claims (`TRAJECTORY.md`, DESIGN.md).

#![warn(missing_docs)]
#![warn(unreachable_pub)]

use hidet::HidetExecutor;
use hidet_baselines::frameworks::{OnnxRuntimeLike, PyTorchLike};
use hidet_baselines::trt::TensorRtLike;
use hidet_baselines::tvm::{AnsorLike, AutoTvmLike};
use hidet_baselines::{ExecutorReport, GraphExecutor};
use hidet_graph::Graph;
use hidet_sim::Gpu;

/// Paper Fig. 16 speedup annotations (Hidet vs. best baseline, batch 1).
pub const PAPER_FIG16_SPEEDUPS: [(&str, f64); 6] = [
    ("resnet50", 1.12),
    ("inception_v3", 1.48),
    ("mobilenet_v2", 0.88),
    ("bert", 1.13),
    ("gpt2", 1.19),
    ("geomean", 1.26),
];

/// Paper Fig. 17 tuning costs in seconds: (model, AutoTVM, Ansor, Hidet).
pub const PAPER_FIG17_TUNING: [(&str, f64, f64, f64); 5] = [
    ("resnet50", 8.0 * 3600.0, 4.0 * 3600.0, 20.0 * 60.0),
    ("inception_v3", 15.0 * 3600.0, 9.0 * 3600.0, 45.0 * 60.0),
    ("mobilenet_v2", 9.0 * 3600.0, 4.0 * 3600.0, 22.0 * 60.0),
    ("bert", 2.0 * 60.0, 51.0 * 60.0, 5.0 * 60.0),
    ("gpt2", 2.0 * 60.0, 52.0 * 60.0, 5.0 * 60.0),
];

/// Runs the paper's five-executor line-up on one model.
///
/// `tvm_trials`/`ansor_trials` default to the paper's 1000/800; pass smaller
/// budgets for smoke tests.
pub fn run_lineup(
    graph: &Graph,
    gpu: &Gpu,
    tvm_trials: usize,
    ansor_trials: usize,
) -> Vec<ExecutorReport> {
    let executors: Vec<Box<dyn GraphExecutor>> = vec![
        Box::new(PyTorchLike),
        Box::new(OnnxRuntimeLike),
        Box::new(AutoTvmLike {
            trials: tvm_trials,
            seed: 0,
        }),
        Box::new(AnsorLike {
            trials: ansor_trials,
            seed: 0,
        }),
        Box::new(HidetExecutor::tuned()),
    ];
    executors.iter().map(|e| e.evaluate(graph, gpu)).collect()
}

/// TensorRT-like report for Fig. 22.
pub fn run_tensorrt(graph: &Graph, gpu: &Gpu) -> ExecutorReport {
    TensorRtLike.evaluate(graph, gpu)
}

/// Formats seconds the way the paper labels Fig. 17 (`8h`, `51m`, `5s`).
pub fn fmt_duration(seconds: f64) -> String {
    if seconds >= 3600.0 {
        format!("{:.1}h", seconds / 3600.0)
    } else if seconds >= 60.0 {
        format!("{:.0}m", seconds / 60.0)
    } else {
        format!("{seconds:.0}s")
    }
}

/// Geometric mean.
pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Prints an aligned text table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let text: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("{}", text.join("  "));
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    println!("{}", "-".repeat(total));
    for row in rows {
        line(row);
    }
}

/// Parses `--flag value`-style integer arguments (tiny CLI helper so that the
/// experiment binaries stay dependency-free). A flag given without a value
/// that parses exits the process with status 2, naming the flag.
pub fn arg_usize(name: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    flag_usize(&args, name, default).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// The value of `--flag value` in `args`, or `default` when the flag is
/// absent.
///
/// # Errors
/// A message naming the flag when it is present but the next argument is
/// missing or not an unsigned integer.
fn flag_usize(args: &[String], name: &str, default: usize) -> Result<usize, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(default);
    };
    match args.get(i + 1) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name} takes an unsigned integer, got {v:?}")),
        None => Err(format!("{name} takes an unsigned integer, got nothing")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(8.0 * 3600.0), "8.0h");
        assert_eq!(fmt_duration(51.0 * 60.0), "51m");
        assert_eq!(fmt_duration(5.0), "5s");
    }

    #[test]
    fn a_flag_without_a_parseable_value_is_an_error() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let flag = |a: &[&str]| flag_usize(&args(a), "--tvm-trials", 7);
        assert_eq!(flag(&["bin"]), Ok(7));
        assert_eq!(flag(&["bin", "--tvm-trials", "300"]), Ok(300));
        assert_eq!(flag(&["bin", "--other", "1e3"]), Ok(7));
        for bad in [
            &["bin", "--tvm-trials", "1e3"][..],
            &["bin", "--tvm-trials"],
        ] {
            let err = flag(bad).unwrap_err();
            assert!(err.contains("--tvm-trials"), "{err}");
        }
    }

    #[test]
    fn geomean_basic() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn lineup_smoke_test() {
        // Tiny trial budgets; a small model.
        let gpu = Gpu::default();
        let graph = {
            let mut g = hidet_graph::GraphBuilder::new("toy");
            let x = g.input("x", &[64, 64]);
            let w = g.weight(&[64, 64]);
            let y = g.matmul(x, w);
            let y = g.relu(y);
            g.output(y).build()
        };
        let reports = run_lineup(&graph, &gpu, 8, 8);
        assert_eq!(reports.len(), 5);
        assert_eq!(reports[4].executor, "Hidet");
        for r in &reports {
            assert!(r.latency_seconds > 0.0, "{}", r.executor);
        }
    }
}
