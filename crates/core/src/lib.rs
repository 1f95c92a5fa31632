//! # Hidet (Rust reproduction)
//!
//! A deep-learning tensor-program compiler built around the **task-mapping
//! programming paradigm**, reproducing *Hidet: Task-Mapping Programming
//! Paradigm for Deep Learning Tensor Programs* (ASPLOS '23) on a simulated
//! GPU. See `DESIGN.md` at the repository root for the system inventory and
//! the hardware-substitution rationale.
//!
//! The pipeline (paper Fig. 10):
//!
//! 1. **import** a model as a [`hidet_graph::Graph`] (model zoo:
//!    [`hidet_graph::models`]);
//! 2. **graph-level optimizations**: convolution → implicit GEMM lowering,
//!    constant folding, fusible sub-graph partitioning;
//! 3. **scheduling** each anchor operator with the task-mapping templates
//!    (matmul, reduction) tuned over the hardware-centric schedule space, and
//!    everything else with rule-based scheduling;
//! 4. **post-scheduling fusion** of prologues/epilogues into the scheduled
//!    kernels;
//! 5. **lowering + codegen**: every kernel can be printed as CUDA C and is
//!    executed/timed by the `hidet-sim` device.
//!
//! ## Quickstart
//!
//! ```
//! use hidet::prelude::*;
//!
//! // A tiny model: y = relu(x · w + b).
//! let mut g = GraphBuilder::new("toy");
//! let x = g.input("x", &[32, 64]);
//! let w = g.constant(Tensor::randn(&[64, 48], 1));
//! let b = g.constant(Tensor::randn(&[48], 2));
//! let y = g.matmul(x, w);
//! let y = g.add(y, b);
//! let y = g.relu(y);
//! let graph = g.output(y).build();
//!
//! let gpu = Gpu::default(); // simulated RTX 3090
//! let compiled = hidet::compile(&graph, &gpu, &CompilerOptions::quick())?;
//! // One fused kernel: matmul with bias+relu epilogue.
//! assert_eq!(compiled.num_kernels(), 1);
//!
//! // Functional execution on the simulated device.
//! let mut inputs = std::collections::HashMap::new();
//! inputs.insert(x, vec![0.5; 32 * 64]);
//! let outputs = compiled.run(&inputs, &gpu)?;
//! assert_eq!(outputs[&y].len(), 32 * 48);
//!
//! // Performance estimate.
//! let latency = compiled.estimate(&gpu);
//! assert!(latency > 0.0);
//! # Ok::<(), hidet::CompileError>(())
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod artifact;
pub mod compiler;
pub mod executor;
pub mod plan;

pub use artifact::{ArtifactError, CompiledArtifact, TunedEntry, ARTIFACT_FORMAT_VERSION};
pub use compiler::{
    compile, compile_from_artifact, compile_from_artifact_hashed, compile_hashed, CompileError,
    CompilePlan, CompiledGraph, CompilerOptions, MatmulChoice, DEFAULT_MEASURE_TOP_K,
};
pub use executor::HidetExecutor;
pub use plan::{MemoryPlan, PlannedSlot, Workspace};

/// Commonly used items across the whole stack.
pub mod prelude {
    pub use crate::artifact::{ArtifactError, CompiledArtifact};
    pub use crate::compiler::{
        compile, compile_from_artifact, CompileError, CompilePlan, CompiledGraph, CompilerOptions,
    };
    pub use crate::executor::HidetExecutor;
    pub use hidet_graph::{Graph, GraphBuilder, OpKind, Tensor, TensorId};
    pub use hidet_sched::{MatmulConfig, MatmulProblem};
    pub use hidet_sim::{DeviceMemory, Gpu, GpuSpec};
    pub use hidet_taskmap::{repeat, spatial, TaskMapping};
}
