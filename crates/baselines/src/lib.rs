//! Comparator systems for the Hidet evaluation (paper §6.1).
//!
//! None of the paper's baselines (TVM+AutoTVM/Ansor, cuDNN/cuBLAS via
//! PyTorch/ONNX Runtime, TensorRT) can run here, so this crate reimplements
//! the *mechanisms* their results depend on (DESIGN.md §1):
//!
//! * [`loop_sched`] — declarative loop-oriented scheduling primitives
//!   (`fuse`/`split`/`reorder`/`bind`, paper Table 1) and the loop-oriented
//!   GEMM generator they imply: perfect tiles only, **no double buffering**
//!   (paper §3.1 — the expressiveness gap);
//! * [`autotvm`] — template tuner over the **input-centric** space (tile
//!   factors of the actual loop extents, paper §3.3 / Fig. 7), evolutionary
//!   search with a trial budget;
//! * [`ansor`] — sketch-style auto-scheduler: same input-centric space,
//!   broader sampling, different search;
//! * [`library`] — a cuDNN/cuBLAS-like kernel library: fixed double-buffered
//!   schedules pre-tuned for round sizes, dispatched without per-shape tuning;
//! * [`frameworks`] — PyTorch-like and ONNX-Runtime-like executors
//!   (library dispatch + per-operator framework overhead, no / limited
//!   fusion);
//! * [`trt`] — a TensorRT-like engine: library kernels + graph fusion +
//!   dedicated fused-attention kernels for transformer blocks (Fig. 22);
//! * [`executor`] — the common [`executor::GraphExecutor`] interface every
//!   system (including Hidet, in `crates/core`) implements so the benchmark
//!   harness can compare them uniformly.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod ansor;
pub mod autotvm;
pub mod executor;
pub mod frameworks;
pub mod library;
pub mod loop_sched;
pub mod trt;
pub mod tvm;

pub use executor::{ExecutorReport, GraphExecutor};
pub use loop_sched::{LoopAxis, LoopNest, LoopTileConfig};
