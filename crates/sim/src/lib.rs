//! GPU simulator substrate for the Hidet reproduction.
//!
//! The paper evaluates on an NVIDIA RTX 3090 with the CUDA toolchain; neither
//! is available here, so this crate provides the closest synthetic equivalent
//! (see DESIGN.md §1):
//!
//! * a **functional interpreter** ([`interp`]) that executes `hidet-ir`
//!   kernels — thread blocks dispatched over the grid, threads run in lockstep
//!   across `__syncthreads()` barriers, shared memory and register files
//!   faithfully scoped — used to validate every generated kernel against the
//!   reference CPU executor. A kernel definition is lowered once into a
//!   name-free [`Program`] (variables → registers, buffers → flat storage,
//!   parameters → positions, every index computed at the level its task
//!   mapping fixes it, constant tile loops unrolled) and the program is what
//!   every launch runs;
//! * an **analytic latency model** ([`cost`]) calibrated to RTX 3090
//!   specifications ([`GpuSpec::rtx3090`]) that charges global-memory traffic
//!   against DRAM bandwidth, FLOPs against CUDA-core/Tensor-Core throughput,
//!   models occupancy limits (shared memory, registers, warp slots),
//!   wave-by-wave block dispatch (paper §2.1) and — crucially for the paper's
//!   story — **memory/compute overlap under software pipelining** (double
//!   buffering, §3.1), which loop-oriented baselines cannot express.
//!
//! ```
//! use hidet_ir::prelude::*;
//! use hidet_sim::{Gpu, GpuSpec};
//!
//! // A 32-element vector doubling kernel.
//! let mut kb = KernelBuilder::new("double", 1, 32);
//! let x = kb.param("X", DType::F32, &[32]);
//! kb.push(store(&x, vec![thread_idx()], load(&x, vec![thread_idx()]) * 2.0f32));
//! let kernel = kb.build();
//!
//! let gpu = Gpu::new(GpuSpec::rtx3090());
//! let mut mem = hidet_sim::DeviceMemory::new();
//! mem.alloc("X", &vec![1.0; 32]);
//! gpu.run(&kernel, &mut mem)?;
//! assert_eq!(mem.read("X")[0], 2.0);
//! let latency = gpu.estimate(&kernel)?;
//! assert!(latency.seconds > 0.0);
//! # Ok::<(), hidet_sim::SimError>(())
//! ```

// A simulator that faults instead of invoking undefined behaviour is the
// point: every access the lowering proves in bounds is still a checked slice
// access in the executor.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod cost;
pub mod interp;
pub mod memory;
pub mod spec;
pub mod value;

pub use cost::{
    estimated_queue_delay, CostBreakdown, KernelFacts, LatencyEstimate, Occupancy, WorkCounts,
};
pub use interp::{CodeRange, Program, RangeKind, Reason, SimError, Verdict};
pub use memory::{BufferId, DeviceMemory};
pub use spec::GpuSpec;
pub use value::Value;

pub use hidet_ir::Kernel;

/// A simulated GPU device: functional execution + latency estimation.
#[derive(Debug, Clone)]
pub struct Gpu {
    spec: GpuSpec,
}

impl Gpu {
    /// Creates a device with the given specification.
    pub fn new(spec: GpuSpec) -> Gpu {
        Gpu { spec }
    }

    /// The device specification.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Functionally executes `kernel` against `memory` (named global buffers):
    /// lowers it and launches the program once. Callers that run the same
    /// kernel again and again keep the [`Program`] and use [`Gpu::launch`].
    ///
    /// # Errors
    /// Returns [`SimError`] on out-of-bounds accesses, missing buffers,
    /// non-uniform control flow around barriers, or resource-limit violations
    /// (shared memory per block exceeding the device limit).
    pub fn run(&self, kernel: &Kernel, memory: &mut DeviceMemory) -> Result<(), SimError> {
        let program = Program::lower(kernel);
        self.launch(&program, kernel, &program.resolve(kernel, memory), memory)
    }

    /// Launches `program` as `kernel`, of the definition it was lowered from.
    /// `buffers` are the program's global buffers in `memory`, as
    /// [`Program::resolve`] returned them — resolved once for as long as the
    /// names stay bound, so a steady stream of launches looks nothing up.
    ///
    /// # Errors
    /// As [`Gpu::run`].
    pub fn launch(
        &self,
        program: &Program,
        kernel: &Kernel,
        buffers: &[Option<BufferId>],
        memory: &mut DeviceMemory,
    ) -> Result<(), SimError> {
        interp::launch(program, kernel, buffers, memory, &self.spec)
    }

    /// Estimates the execution latency of `kernel` on this device.
    ///
    /// # Errors
    /// Returns [`SimError::ResourceLimit`] if the kernel cannot be launched
    /// (e.g. shared memory demand above the per-SM limit) and
    /// [`SimError::NonConstExtent`] if the kernel still contains symbolic loop
    /// extents (unscheduled programs).
    pub fn estimate(&self, kernel: &Kernel) -> Result<LatencyEstimate, SimError> {
        cost::estimate(kernel, &self.spec)
    }
}

impl Default for Gpu {
    /// The paper's evaluation device: RTX 3090.
    fn default() -> Gpu {
        Gpu::new(GpuSpec::rtx3090())
    }
}
