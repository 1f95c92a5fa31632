//! Tensor-level intermediate representation for the Hidet reproduction.
//!
//! This crate implements the tensor-program IR of the paper (§5, Fig. 10 step 5):
//! scheduled tensor programs are represented as [`Kernel`]s whose bodies are
//! statement trees ([`Stmt`]) over scalar expressions ([`Expr`]) and typed,
//! scoped [`Buffer`]s (global / shared / register, matching the CUDA memory
//! hierarchy of paper §2.1).
//!
//! The defining feature of the paradigm — *scheduling embedded in the program
//! through task mappings* — enters the IR via [`lower::foreach_task`], which
//! lowers a [`hidet_taskmap::TaskMapping`] applied to a worker index into loop
//! nests and index arithmetic (paper Fig. 8, "Lower task mapping").
//!
//! The crate also provides:
//!
//! * ergonomic expression construction (operator overloading, [`builder`] helpers);
//! * a simplification pass ([`passes::simplify`]) that constant-folds and
//!   canonicalizes index arithmetic;
//! * a CUDA-C code generator ([`cuda::to_cuda`]) producing the kernel text a
//!   real deployment would hand to `nvcc` (golden-tested);
//! * structural analyses used by the simulator's cost model.
//!
//! ```
//! use hidet_ir::prelude::*;
//! use hidet_taskmap::{repeat, spatial};
//!
//! // The cooperative-load kernel of paper Fig. 8.
//! let mut kb = KernelBuilder::new("cooperative_load_a", 1, 128);
//! let a = kb.param("A", DType::F32, &[64, 8]);
//! let smem_a = kb.shared("SmemA", DType::F32, &[64, 8]);
//! let tm = repeat(&[4, 1]) * spatial(&[16, 8]);
//! let body = foreach_task(&tm, thread_idx(), |coords| {
//!     store(&smem_a, coords.clone(), load(&a, coords))
//! });
//! let kernel = kb.body(body).build();
//! assert_eq!(kernel.launch().block_dim, 128);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod buffer;
pub mod builder;
pub mod cuda;
pub mod dtype;
pub mod expr;
pub mod kernel;
pub mod lower;
pub mod passes;
pub mod stmt;
pub mod visit;

pub use buffer::{Buffer, BufferRef, MemScope};
pub use builder::KernelBuilder;
pub use dtype::DType;
pub use expr::{BinOp, Expr, UnOp, Var};
pub use kernel::{Kernel, KernelDef, KernelMeta, LaunchConfig};
pub use lower::{foreach_task, foreach_task_where};
pub use stmt::Stmt;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::buffer::{Buffer, BufferRef, MemScope};
    pub use crate::builder::KernelBuilder;
    pub use crate::builder::{
        block_idx, c, comment, fconst, for_, for_range, for_unrolled, if_then, if_then_else, let_,
        load, seq, store, sync_threads, thread_idx, var,
    };
    pub use crate::dtype::DType;
    pub use crate::expr::{BinOp, Expr, UnOp, Var};
    pub use crate::kernel::{Kernel, KernelMeta, LaunchConfig};
    pub use crate::lower::{foreach_task, foreach_task_where};
    pub use crate::stmt::Stmt;
}
