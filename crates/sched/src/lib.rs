//! Hidet's schedulers (paper §4 and §5.1–5.2).
//!
//! This crate turns fused sub-graphs into `hidet-ir` kernels:
//!
//! * [`templates::matmul`] — the **template-based** matmul schedule written in
//!   the task-mapping paradigm: block/warp/thread task mappings, predicated
//!   (partial-tile) loads, optional **double buffering** (paper Fig. 5) and
//!   **parallel-k reduction** (§6.3.4);
//! * [`templates::reduce`] — the reduction template covering softmax,
//!   layernorm and global pooling (the paper ships exactly these two
//!   templates, §6.1 "Implementation"); [`anchor_problem`] states the
//!   problem an anchor operator poses to either, for the compiler, the tuner
//!   and the baselines alike;
//! * [`rule_based`] — rule-based scheduling for operators without reductions
//!   (§5.1.3), translating computation definitions directly into kernels, and
//!   direct window-loop schedules for pooling/depthwise convolution;
//! * [`space`] — the **hardware-centric schedule space** (§4.3): a few
//!   hundred tile configurations aligned to hardware limits, down to
//!   warp-sized tiles for skinny problems, independent of input sizes, and
//!   one fixed small tile ([`compact_matmul_config`]) for problems that
//!   should not be tuned;
//! * [`fusion`] — **post-scheduling fusion** (§4.2/§5.2), derived from the
//!   fused operators' compute definitions: prologues are inlined into the
//!   scheduled anchor's input loads, epilogues into its output stores, with
//!   index remapping through bijective operators — generated from a
//!   group's name-free [`GroupSpec`] and bound to its names by position;
//! * [`tuner`] — exhaustive enumeration of the (small) space with the
//!   simulator's cost model, each candidate priced from the template's work
//!   in closed form ([`matmul_work`]) rather than a built kernel, reporting
//!   the simulated tuning cost the paper plots in Fig. 17.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod fusion;
pub mod json;
pub mod rule_based;
pub mod space;
pub mod templates;
pub mod tuner;

pub use fusion::{compile_group, tensor_buffer_name, CompiledGroup, GroupSchedule, GroupSpec};
pub use space::{compact_matmul_config, matmul_space, reduce_space, MatmulConfig, ReduceConfig};
pub use templates::matmul::{matmul_kernel, matmul_work, MatmulIo, MatmulProblem, Sink, Source};
pub use templates::reduce::{reduce_kernel, ReduceIo, RowReduceKind};
pub use templates::{anchor_problem, AnchorProblem};
pub use tuner::{
    pick_reduce_config, quick_score, splitk_variants, try_tune_matmul, try_tune_matmul_with,
    tune_matmul, TuneReport, TunerPolicy, SECONDS_PER_TRIAL,
};
