//! Analytic latency model.
//!
//! The model reproduces the *relative* performance effects the paper's
//! evaluation turns on:
//!
//! 1. **Roofline terms.** Global-memory traffic is charged against DRAM
//!    bandwidth; floating-point work against CUDA-core or Tensor-Core
//!    throughput; shared-memory traffic against aggregate shared-memory
//!    bandwidth.
//! 2. **Occupancy.** Resident blocks per SM are limited by shared memory,
//!    registers, warp slots and the architectural block cap (paper §2.1). Low
//!    occupancy reduces achievable compute efficiency (latency hiding).
//! 3. **Wave quantization.** Blocks dispatch wave by wave; a 1-block tail wave
//!    costs as much as a full wave of that block's work.
//! 4. **Pipelining.** With `pipeline_stages >= 2` (double buffering, §3.1),
//!    per-iteration memory and compute time overlap: `max(mem, comp)` instead
//!    of `mem + comp`. This single mechanism is what lets Hidet schedules beat
//!    loop-oriented schedules at large batch sizes (§6.3.3) — the baselines
//!    cannot express it.
//!
//! Work counts are extracted from the kernel IR itself (loop extents, loads,
//! stores, arithmetic), so every scheduling decision — tile sizes, predicated
//! partial tiles, parallel-k splits — changes the estimate through the code it
//! actually generates, not through hand-wired constants. [`estimate`] reads a
//! built kernel; [`estimate_from`] is the same model over [`KernelFacts`] and
//! [`WorkCounts`] a template derives in closed form, pinned equal to what
//! [`count_work`] reads off the kernel it would build.

use hidet_ir::{DType, Expr, Kernel, KernelMeta, LaunchConfig, MemScope, Stmt};

use crate::interp::SimError;
use crate::spec::GpuSpec;

/// Per-thread work extracted from a kernel body.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkCounts {
    /// Bytes read from global memory (per thread).
    pub global_load_bytes: f64,
    /// Bytes written to global memory (per thread).
    pub global_store_bytes: f64,
    /// Shared-memory accesses in bytes (per thread).
    pub smem_bytes: f64,
    /// Floating-point operations (per thread).
    pub flops: f64,
    /// Transcendental operations (exp/tanh/erf...), weighted separately.
    pub special_ops: f64,
    /// Barrier count (per block, dynamic).
    pub syncs: f64,
}

impl WorkCounts {
    fn add_scaled(&mut self, other: &WorkCounts, k: f64) {
        self.global_load_bytes += other.global_load_bytes * k;
        self.global_store_bytes += other.global_store_bytes * k;
        self.smem_bytes += other.smem_bytes * k;
        self.flops += other.flops * k;
        self.special_ops += other.special_ops * k;
        self.syncs += other.syncs * k;
    }

    fn max_of(a: &WorkCounts, b: &WorkCounts) -> WorkCounts {
        WorkCounts {
            global_load_bytes: a.global_load_bytes.max(b.global_load_bytes),
            global_store_bytes: a.global_store_bytes.max(b.global_store_bytes),
            smem_bytes: a.smem_bytes.max(b.smem_bytes),
            flops: a.flops.max(b.flops),
            special_ops: a.special_ops.max(b.special_ops),
            syncs: a.syncs.max(b.syncs),
        }
    }
}

/// Occupancy analysis: how many blocks fit on one SM, and why.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Occupancy {
    /// Resident blocks per SM after all limits.
    pub blocks_per_sm: u32,
    /// Resident warps per SM.
    pub warps_per_sm: u32,
    /// The binding limit ("blocks", "threads", "shared", "registers").
    pub limited_by: &'static str,
}

/// What the latency model reads of a kernel besides its body: how it
/// launches, what the scheduler says about it, and what one block claims on
/// chip. A template that knows these and the body's [`WorkCounts`] in closed
/// form prices a schedule through [`estimate_from`] without building it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelFacts {
    /// Grid and block dimensions.
    pub launch: LaunchConfig,
    /// Scheduler metadata (pipelining depth, Tensor Cores, ...).
    pub meta: KernelMeta,
    /// Shared memory per block, in bytes.
    pub shared_bytes: u64,
    /// Registers per thread.
    pub registers_per_thread: u64,
}

impl KernelFacts {
    /// The facts of a built kernel.
    pub fn of(kernel: &Kernel) -> KernelFacts {
        KernelFacts {
            launch: kernel.launch(),
            meta: kernel.meta(),
            shared_bytes: kernel.shared_bytes(),
            registers_per_thread: kernel.registers_per_thread(),
        }
    }
}

/// Computes occupancy for a kernel on a device.
///
/// # Errors
/// [`SimError::ResourceLimit`] if even a single block does not fit.
pub fn occupancy(kernel: &Kernel, spec: &GpuSpec) -> Result<Occupancy, SimError> {
    occupancy_from(&KernelFacts::of(kernel), spec)
}

fn occupancy_from(facts: &KernelFacts, spec: &GpuSpec) -> Result<Occupancy, SimError> {
    let block_dim = facts.launch.block_dim as u64;
    let shared = facts.shared_bytes;
    let regs = facts.registers_per_thread * block_dim;
    if shared > spec.shared_mem_per_block {
        return Err(SimError::ResourceLimit(format!(
            "{} B shared memory per block exceeds the {} B limit",
            shared, spec.shared_mem_per_block
        )));
    }
    if block_dim > spec.max_threads_per_sm as u64 {
        return Err(SimError::ResourceLimit(format!(
            "{block_dim} threads per block exceed {} per SM",
            spec.max_threads_per_sm
        )));
    }
    let mut limit = spec.max_blocks_per_sm;
    let mut reason = "blocks";
    let by_threads = (spec.max_threads_per_sm as u64 / block_dim) as u32;
    if by_threads < limit {
        limit = by_threads;
        reason = "threads";
    }
    if let Some(by_shared) = spec.shared_mem_per_sm.checked_div(shared) {
        if (by_shared as u32) < limit {
            limit = by_shared as u32;
            reason = "shared";
        }
    }
    if let Some(by_regs) = spec.registers_per_sm.checked_div(regs) {
        if (by_regs as u32) < limit {
            limit = by_regs as u32;
            reason = "registers";
        }
    }
    if limit == 0 {
        return Err(SimError::ResourceLimit(format!(
            "not a single block fits on an SM (regs={regs}, shared={shared})"
        )));
    }
    Ok(Occupancy {
        blocks_per_sm: limit,
        warps_per_sm: limit * (block_dim as u32).div_ceil(spec.warp_size),
        limited_by: reason,
    })
}

/// Detailed latency breakdown, returned alongside the scalar estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostBreakdown {
    /// Seconds spent on global-memory traffic (if perfectly serialized).
    pub t_mem: f64,
    /// Seconds on floating-point compute.
    pub t_comp: f64,
    /// Seconds on shared-memory traffic.
    pub t_smem: f64,
    /// Seconds of barrier overhead.
    pub t_sync: f64,
    /// Number of dispatch waves.
    pub waves: u32,
    /// Occupancy used.
    pub occupancy: Occupancy,
    /// Fraction of peak compute reachable given occupancy (latency hiding).
    pub compute_efficiency: f64,
    /// Fraction of peak DRAM bandwidth reachable given active SMs.
    pub bandwidth_efficiency: f64,
}

/// A latency estimate in seconds plus its breakdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyEstimate {
    /// Estimated kernel latency in seconds.
    pub seconds: f64,
    /// Component breakdown.
    pub breakdown: CostBreakdown,
}

impl LatencyEstimate {
    /// Latency in microseconds.
    pub fn micros(&self) -> f64 {
        self.seconds * 1e6
    }
}

/// Estimates kernel latency; see the module docs for the model.
///
/// # Errors
/// [`SimError::ResourceLimit`] if the kernel cannot launch;
/// [`SimError::NonConstExtent`] if a loop extent is not a constant.
pub fn estimate(kernel: &Kernel, spec: &GpuSpec) -> Result<LatencyEstimate, SimError> {
    estimate_from(&KernelFacts::of(kernel), &count_work(kernel.body())?, spec)
}

/// [`estimate`] of a kernel known by its facts and per-thread work counts.
///
/// # Errors
/// [`SimError::ResourceLimit`] if the kernel cannot launch.
pub fn estimate_from(
    facts: &KernelFacts,
    per_thread: &WorkCounts,
    spec: &GpuSpec,
) -> Result<LatencyEstimate, SimError> {
    let occ = occupancy_from(facts, spec)?;
    let launch = facts.launch;
    let block_dim = launch.block_dim as f64;
    let grid = launch.grid_dim as f64;

    // Aggregate work per block.
    let bytes_block = (per_thread.global_load_bytes + per_thread.global_store_bytes) * block_dim;
    let flops_block = per_thread.flops * block_dim;
    let special_block = per_thread.special_ops * block_dim;
    let smem_block = per_thread.smem_bytes * block_dim;

    // Waves of resident blocks (paper §2.1: dispatched wave by wave) —
    // reported for diagnostics; the timing below uses per-SM *rounds*, which
    // capture tile quantization exactly: the busiest SM executes
    // `ceil(grid / num_sms)` blocks over the kernel's lifetime, and the
    // kernel finishes when the busiest SM does.
    let concurrent = (occ.blocks_per_sm * spec.num_sms) as f64;
    let waves = (grid / concurrent).ceil().max(1.0);
    let rounds = (grid / spec.num_sms as f64).ceil().max(1.0);

    // Efficiency terms. Compute needs enough resident warps per SM to hide
    // latency; DRAM needs enough active SMs to saturate the controllers.
    let warps_needed = 12.0;
    let compute_eff = (occ.warps_per_sm as f64 / warps_needed).min(1.0) * 0.85;
    let active_sms = grid.min(spec.num_sms as f64);
    let bw_eff = (active_sms / spec.bandwidth_saturation_sms as f64).min(1.0);

    let meta = facts.meta;
    let peak_flops = if meta.uses_tensor_cores {
        spec.tensor_flops()
    } else {
        spec.fp32_flops()
    };
    let per_sm_flops = peak_flops / spec.num_sms as f64;
    let per_sm_smem_bw = spec.smem_bytes_per_s() / spec.num_sms as f64;

    // Compute/shared-memory time: serialized rounds on the busiest SM.
    let t_comp = rounds * flops_block / (per_sm_flops * compute_eff)
        + rounds * special_block / (per_sm_flops * 0.25);
    let t_smem = rounds * smem_block / per_sm_smem_bw;
    // Global-memory time: total traffic through the shared DRAM interface.
    let t_mem = (bytes_block * grid) / (spec.dram_bytes_per_s() * bw_eff);
    // Barrier cost: ~20 cycles per barrier per block round.
    let t_sync = rounds * per_thread.syncs * 20.0 / (spec.clock_ghz * 1e9);

    // Overlap model: software pipelining overlaps the global-memory path with
    // compute. Without it, a block alternates load / sync / compute (paper
    // Fig. 3), serializing the two. Deeper pipelines approach perfect overlap.
    let overlap = match meta.pipeline_stages {
        0 | 1 => 0.15, // incidental overlap from inter-warp parallelism
        2 => 0.80,     // double buffering
        _ => 0.92,     // multi-stage asynchronous prefetch
    };
    let serial = t_comp + t_mem;
    let overlapped = t_comp.max(t_mem);
    let t_total = serial + (overlapped - serial) * overlap + t_smem + t_sync;

    let seconds = spec.launch_overhead_s + t_total;
    Ok(LatencyEstimate {
        seconds,
        breakdown: CostBreakdown {
            t_mem,
            t_comp,
            t_smem,
            t_sync,
            waves: waves as u32,
            occupancy: occ,
            compute_efficiency: compute_eff,
            bandwidth_efficiency: bw_eff,
        },
    })
}

/// Estimated delay, in seconds, before a newly placed batch could start
/// executing on a device whose queue already holds batches with the given
/// estimated latencies, served by `lanes` concurrent execution lanes
/// (worker threads feeding the device).
///
/// The pending batches are assigned to lanes greedily in FIFO order — each
/// batch starts on the lane that frees first — and the new batch starts when
/// the next lane frees after all of them have been placed. This is the
/// placement signal the `hidet-runtime` shard scheduler ranks devices by:
/// it prefers the shard whose next free lane is soonest, which balances
/// *estimated seconds of work* rather than batch counts, so a slow device in
/// a mixed pool naturally receives less traffic.
///
/// An empty queue (or one shorter than `lanes`) returns `0.0`: a lane is
/// already free.
pub fn estimated_queue_delay(pending_latencies: &[f64], lanes: usize) -> f64 {
    let lanes = lanes.max(1);
    if pending_latencies.len() < lanes {
        return 0.0;
    }
    let mut finish = vec![0.0f64; lanes];
    for &latency in pending_latencies {
        let next = finish
            .iter_mut()
            .min_by(|a, b| a.total_cmp(b))
            .expect("lanes >= 1");
        *next += latency.max(0.0);
    }
    finish.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Walks a kernel body, accumulating per-thread dynamic work counts.
///
/// Loop extents must be constants (they are, after scheduling); `If` branches
/// contribute the max of their arms (an upper bound that models the uniform
/// execution of predicated partial tiles).
pub fn count_work(stmt: &Stmt) -> Result<WorkCounts, SimError> {
    let mut counts = WorkCounts::default();
    walk_stmt(stmt, 1.0, &mut counts)?;
    Ok(counts)
}

fn walk_stmt(stmt: &Stmt, mult: f64, counts: &mut WorkCounts) -> Result<(), SimError> {
    match stmt {
        Stmt::Seq(items) => {
            for item in items {
                walk_stmt(item, mult, counts)?;
            }
            Ok(())
        }
        Stmt::For { extent, body, .. } => {
            let n = extent.as_int().ok_or_else(|| {
                SimError::NonConstExtent(format!("loop extent {extent} is not a constant"))
            })? as f64;
            walk_expr(extent, mult, counts);
            walk_stmt(body, mult * n, counts)
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => {
            walk_expr(cond, mult, counts);
            let mut then_counts = WorkCounts::default();
            walk_stmt(then_body, mult, &mut then_counts)?;
            let mut else_counts = WorkCounts::default();
            if let Some(e) = else_body {
                walk_stmt(e, mult, &mut else_counts)?;
            }
            counts.add_scaled(&WorkCounts::max_of(&then_counts, &else_counts), 1.0);
            Ok(())
        }
        Stmt::Let { value, .. } => {
            walk_expr(value, mult, counts);
            Ok(())
        }
        Stmt::Store {
            buffer,
            indices,
            value,
        } => {
            for idx in indices {
                walk_expr(idx, mult, counts);
            }
            walk_expr(value, mult, counts);
            account_access(buffer.scope(), buffer.dtype(), false, mult, counts);
            Ok(())
        }
        Stmt::SyncThreads => {
            counts.syncs += mult;
            Ok(())
        }
        Stmt::Nop | Stmt::Comment(_) => Ok(()),
    }
}

fn account_access(
    scope: MemScope,
    dtype: DType,
    is_load: bool,
    mult: f64,
    counts: &mut WorkCounts,
) {
    let bytes = dtype.size_bytes() as f64 * mult;
    match scope {
        MemScope::Global => {
            if is_load {
                counts.global_load_bytes += bytes;
            } else {
                counts.global_store_bytes += bytes;
            }
        }
        MemScope::Shared => counts.smem_bytes += bytes,
        MemScope::Register => {} // register file access is covered by the op costs
    }
}

fn walk_expr(expr: &Expr, mult: f64, counts: &mut WorkCounts) {
    match expr {
        Expr::Binary { op, lhs, rhs } => {
            walk_expr(lhs, mult, counts);
            walk_expr(rhs, mult, counts);
            if lhs.dtype().is_float() && !op.is_predicate() {
                counts.flops += mult;
            }
        }
        Expr::Unary { op, operand } => {
            walk_expr(operand, mult, counts);
            use hidet_ir::UnOp::*;
            match op {
                Exp | Sqrt | Rsqrt | Tanh | Erf | Log | Sigmoid => counts.special_ops += mult,
                _ if operand.dtype().is_float() => counts.flops += mult,
                _ => {}
            }
        }
        Expr::Load { buffer, indices } => {
            for idx in indices {
                walk_expr(idx, mult, counts);
            }
            account_access(buffer.scope(), buffer.dtype(), true, mult, counts);
        }
        Expr::Cast { value, .. } => walk_expr(value, mult, counts),
        Expr::Select {
            cond,
            then_value,
            else_value,
        } => {
            walk_expr(cond, mult, counts);
            walk_expr(then_value, mult, counts);
            walk_expr(else_value, mult, counts);
            counts.flops += mult;
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidet_ir::prelude::*;

    /// A simple global-to-global streaming kernel with `elems` elements/thread.
    fn stream_kernel(grid: i64, block: i64, elems: i64, stages: u32) -> Kernel {
        let n = grid * block * elems;
        let mut kb = KernelBuilder::new("stream", grid, block);
        let x = kb.param("X", DType::F32, &[n]);
        let y = kb.param("Y", DType::F32, &[n]);
        let base = (block_idx() * block + thread_idx()) * elems;
        kb.push(for_range("i", elems, |i| {
            store(
                &y,
                vec![base.clone() + i.clone()],
                load(&x, vec![base.clone() + i]) * 2.0f32,
            )
        }));
        kb.meta(KernelMeta {
            pipeline_stages: stages,
            ..KernelMeta::default()
        });
        kb.build()
    }

    #[test]
    fn counts_scale_with_loop_extents() {
        let k = stream_kernel(1, 32, 8, 1);
        let counts = count_work(k.body()).unwrap();
        assert_eq!(counts.global_load_bytes, 8.0 * 4.0);
        assert_eq!(counts.global_store_bytes, 8.0 * 4.0);
        assert_eq!(counts.flops, 8.0);
    }

    #[test]
    fn occupancy_limits() {
        let spec = GpuSpec::rtx3090();
        // 48 KiB of shared memory → 2 blocks per SM by the shared limit.
        let mut kb = KernelBuilder::new("k", 82, 128);
        kb.param("X", DType::F32, &[1]);
        kb.shared("S", DType::F32, &[48 * 256]); // 48 KiB
        let occ = occupancy(&kb.build(), &spec).unwrap();
        assert_eq!(occ.blocks_per_sm, 2);
        assert_eq!(occ.limited_by, "shared");
    }

    #[test]
    fn occupancy_thread_limit() {
        let spec = GpuSpec::rtx3090();
        let mut kb = KernelBuilder::new("k", 1, 1024);
        kb.param("X", DType::F32, &[1]);
        let occ = occupancy(&kb.build(), &spec).unwrap();
        assert_eq!(occ.blocks_per_sm, 1); // 1536 / 1024
        assert_eq!(occ.limited_by, "threads");
    }

    #[test]
    fn oversized_shared_fails() {
        let spec = GpuSpec::rtx3090();
        let mut kb = KernelBuilder::new("k", 1, 32);
        kb.param("X", DType::F32, &[1]);
        kb.shared("S", DType::F32, &[128 * 1024]);
        assert!(matches!(
            occupancy(&kb.build(), &spec),
            Err(SimError::ResourceLimit(_))
        ));
    }

    #[test]
    fn memory_bound_kernel_tracks_bandwidth() {
        // 256 MiB of traffic, fully parallel: latency ≈ bytes / bandwidth.
        let spec = GpuSpec::rtx3090();
        let k = stream_kernel(8192, 256, 16, 1);
        let est = estimate(&k, &spec).unwrap();
        let bytes = 8192.0 * 256.0 * 16.0 * 8.0; // load + store
        let ideal = bytes / spec.dram_bytes_per_s();
        assert!(
            est.seconds > ideal * 0.9,
            "est {} vs ideal {}",
            est.seconds,
            ideal
        );
        assert!(
            est.seconds < ideal * 3.0,
            "est {} vs ideal {}",
            est.seconds,
            ideal
        );
    }

    #[test]
    fn double_buffering_reduces_latency_when_balanced() {
        // Same code, stages=1 vs stages=2: pipelined must be faster.
        let k1 = stream_kernel(2048, 256, 64, 1);
        let k2 = stream_kernel(2048, 256, 64, 2);
        let spec = GpuSpec::rtx3090();
        let e1 = estimate(&k1, &spec).unwrap();
        let e2 = estimate(&k2, &spec).unwrap();
        assert!(e2.seconds < e1.seconds, "{} !< {}", e2.seconds, e1.seconds);
    }

    #[test]
    fn wave_quantization_counts_waves() {
        let spec = GpuSpec::rtx3090();
        let k = stream_kernel(82 * 16 * 3, 64, 4, 1); // exactly 3 waves at max occupancy
        let est = estimate(&k, &spec).unwrap();
        assert!(est.breakdown.waves >= 3);
    }

    #[test]
    fn tensor_core_meta_raises_compute_throughput() {
        let spec = GpuSpec::rtx3090();
        let build = |tc: bool| {
            let mut kb = KernelBuilder::new("fma", 256, 256);
            let x = kb.param("X", DType::F32, &[256 * 256]);
            let i = block_idx() * 256 + thread_idx();
            kb.push(for_range("k", 4096, |_| {
                store(
                    &x,
                    vec![i.clone()],
                    load(&x, vec![i.clone()]) * 1.0001f32 + 1.0f32,
                )
            }));
            kb.meta(KernelMeta {
                uses_tensor_cores: tc,
                ..KernelMeta::default()
            });
            kb.build()
        };
        let slow = estimate(&build(false), &spec).unwrap();
        let fast = estimate(&build(true), &spec).unwrap();
        assert!(fast.seconds < slow.seconds);
    }

    #[test]
    fn non_const_extent_rejected() {
        let mut kb = KernelBuilder::new("k", 1, 32);
        let x = kb.param("X", DType::F32, &[32]);
        kb.push(for_range("i", thread_idx(), |i| {
            store(&x, vec![i.clone()], fconst(0.0))
        }));
        let k = kb.build();
        assert!(matches!(
            estimate(&k, &GpuSpec::rtx3090()),
            Err(SimError::NonConstExtent(_))
        ));
    }

    #[test]
    fn queue_delay_empty_queue_is_zero() {
        assert_eq!(estimated_queue_delay(&[], 1), 0.0);
        assert_eq!(estimated_queue_delay(&[], 4), 0.0);
        // Fewer pending batches than lanes: a lane is free right now.
        assert_eq!(estimated_queue_delay(&[0.5], 2), 0.0);
    }

    #[test]
    fn queue_delay_single_lane_serializes() {
        // One lane: the new batch waits for everything ahead of it.
        let d = estimated_queue_delay(&[3.0, 1.0, 1.0], 1);
        assert!((d - 5.0).abs() < 1e-12, "{d}");
    }

    #[test]
    fn queue_delay_multi_lane_waits_for_first_free_lane() {
        // Two lanes, FIFO greedy: [4] -> lane0, [1] -> lane1, [1] -> lane1
        // (frees at 1.0). Lanes finish at 4.0 and 2.0; next start is 2.0.
        let d = estimated_queue_delay(&[4.0, 1.0, 1.0], 2);
        assert!((d - 2.0).abs() < 1e-12, "{d}");
    }

    #[test]
    fn queue_delay_zero_lanes_treated_as_one() {
        let d = estimated_queue_delay(&[2.0], 0);
        assert!((d - 2.0).abs() < 1e-12, "{d}");
    }

    #[test]
    fn queue_delay_ignores_negative_estimates() {
        let d = estimated_queue_delay(&[-1.0, 2.0], 1);
        assert!((d - 2.0).abs() < 1e-12, "{d}");
    }

    #[test]
    fn launch_overhead_floors_tiny_kernels() {
        let spec = GpuSpec::rtx3090();
        let k = stream_kernel(1, 32, 1, 1);
        let est = estimate(&k, &spec).unwrap();
        assert!(est.seconds >= spec.launch_overhead_s);
    }
}
