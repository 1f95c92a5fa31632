//! Graph-level IR for the Hidet reproduction (paper §5, Fig. 10 steps 1–2).
//!
//! A [`Graph`] is a DAG of [`Operator`]s over [`Tensor`]s. Each operator
//! carries:
//!
//! * shape/type inference ([`op::OpKind::infer_shape`]);
//! * a **mathematical computation definition** ([`compute::ComputeDef`]) — the
//!   declarative "how each output element is computed" of paper Fig. 4, built
//!   on `hidet-ir` expressions so schedulers and the fusion pass can consume
//!   it directly;
//! * a fusion classification (paper §4.2): *injective* operators qualify as
//!   prologues, *bijective* ones as epilogues, reduction-bearing ones are
//!   anchors.
//!
//! The crate also provides graph passes ([`passes`]: constant folding,
//! conv→implicit-GEMM lowering, fusion partitioning), a reference CPU executor
//! ([`mod@reference`]) used as ground truth for every compiled kernel, and the
//! model zoo ([`models`]) reproducing the architectures of the paper's
//! evaluation: ResNet-50, Inception-V3, MobileNet-V2, Bert and GPT-2.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod compute;
pub mod graph;
pub mod hash;
pub mod models;
pub mod op;
pub mod passes;
pub mod reference;
pub mod tensor;

pub use compute::{ComputeDef, Reduction};
pub use graph::{Graph, GraphBuilder, OpId, TensorId};
pub use hash::StableHasher;
pub use op::{BinaryKind, FuseClass, OpKind, Operator, UnaryKind};
pub use passes::FusedGroup;
pub use tensor::Tensor;
