//! Probes shared by more than one workload: the interpreter driven directly
//! on a compiled plan, and the work the analytic model says that plan does.

use hidet::{CompilePlan, Workspace};
use hidet_sim::cost::count_work;
use hidet_sim::Gpu;

use crate::gen;
use crate::harness::probe;
use crate::outcome::Outcome;
use crate::stats::Summary;

/// One plan run through `hidet_sim::interp` from outside, and what the plan
/// consists of.
pub struct InterpProbe {
    /// Host seconds per full plan execution (`Workspace::run_prepared`:
    /// `Gpu::run` over every kernel, inputs staged once).
    pub run_s: Summary,
    /// Kernel launches per execution.
    pub launches: usize,
    /// Simulated threads per execution (Σ `launch().total_threads()`).
    pub threads: f64,
    /// Floating-point operations per execution — **computed** by
    /// `count_work` from the IR (per-thread counts × threads), not measured.
    pub flops: f64,
    /// Global-memory bytes loaded plus stored per execution — computed the
    /// same way.
    pub bytes: f64,
}

/// Runs `plan` on the interpreter with seeded inputs in `[-1, 1)` and counts
/// its work.
pub fn interp_probe(plan: &CompilePlan, gpu: &Gpu, seed: u64) -> InterpProbe {
    let mut workspace = Workspace::new();
    let mut rng = gen::rng(seed, 4);
    for &input in plan.graph().inputs() {
        let staged = workspace
            .input_mut(plan, input)
            .expect("graph inputs are stageable");
        staged.iter_mut().for_each(|v| *v = gen::unit_f32(&mut rng));
    }
    let run_s = probe(|| {
        workspace
            .run_prepared(plan, gpu)
            .expect("probe plan runs on the interpreter")
    });
    let (mut launches, mut threads, mut flops, mut bytes) = (0usize, 0.0, 0.0, 0.0);
    for kernel in plan.groups().iter().flat_map(|g| &g.kernels) {
        let per_launch = kernel.launch().total_threads() as f64;
        let work = count_work(kernel.body()).expect("scheduled kernels have constant extents");
        launches += 1;
        threads += per_launch;
        flops += work.flops * per_launch;
        bytes += (work.global_load_bytes + work.global_store_bytes) * per_launch;
    }
    InterpProbe {
        run_s,
        launches,
        threads,
        flops,
        bytes,
    }
}

/// Records the interpreter-throughput and computed-work rows from one or
/// more probed plans (one "step" = one execution of each).
pub fn set_interp_metrics(outcome: &mut Outcome, probes: &[InterpProbe]) {
    let seconds: f64 = probes.iter().map(|p| p.run_s.median).sum();
    let threads: f64 = probes.iter().map(|p| p.threads).sum();
    outcome.set_value("sim.interp_kthreads_per_host_s", threads / 1e3 / seconds);
    outcome.set_value("sim.flops_per_step", probes.iter().map(|p| p.flops).sum());
    outcome.set_value("sim.bytes_per_step", probes.iter().map(|p| p.bytes).sum());
    outcome.note(
        "interp_probe_launches",
        probes.iter().map(|p| p.launches).sum::<usize>(),
    );
    outcome.note("interp_probe_ms_per_launch", {
        let launches: usize = probes.iter().map(|p| p.launches).sum();
        format!("{:.4}", seconds * 1e3 / launches.max(1) as f64)
    });
}
