//! Ergonomic construction of kernels and statements.
//!
//! Statements are built functionally with the free helpers ([`for_`], [`store`],
//! [`seq`], …) so they compose with the task-mapping lowering in
//! [`crate::lower`]; buffers and launch configuration are collected by
//! [`KernelBuilder`].

use crate::buffer::{Buffer, BufferRef, MemScope};
use crate::dtype::DType;
use crate::expr::{Expr, Var};
use crate::kernel::{Kernel, KernelMeta, LaunchConfig};
use crate::stmt::Stmt;

/// Builder for [`Kernel`]s: registers buffers, launch config, metadata, body.
///
/// ```
/// use hidet_ir::prelude::*;
///
/// let mut kb = KernelBuilder::new("copy", 4, 256);
/// let src = kb.param("src", DType::F32, &[1024]);
/// let dst = kb.param("dst", DType::F32, &[1024]);
/// let i = block_idx() * 256 + thread_idx();
/// let kernel = kb
///     .body(store(&dst, vec![i.clone()], load(&src, vec![i])))
///     .build();
/// assert_eq!(kernel.params().len(), 2);
/// ```
#[derive(Debug)]
pub struct KernelBuilder {
    name: String,
    params: Vec<BufferRef>,
    shared: Vec<BufferRef>,
    locals: Vec<BufferRef>,
    launch: LaunchConfig,
    meta: KernelMeta,
    body: Stmt,
}

impl KernelBuilder {
    /// Starts a kernel named `name` launched with `grid_dim` blocks of
    /// `block_dim` threads.
    pub fn new(name: &str, grid_dim: i64, block_dim: i64) -> KernelBuilder {
        KernelBuilder {
            name: name.to_string(),
            params: Vec::new(),
            shared: Vec::new(),
            locals: Vec::new(),
            launch: LaunchConfig::new(grid_dim, block_dim),
            meta: KernelMeta::default(),
            body: Stmt::Nop,
        }
    }

    /// Declares a global-memory parameter buffer and returns its handle.
    pub fn param(&mut self, name: &str, dtype: DType, shape: &[i64]) -> BufferRef {
        let buf = Buffer::new(name, MemScope::Global, dtype, shape);
        self.params.push(buf.clone());
        buf
    }

    /// Declares a shared-memory buffer (`__shared__`).
    pub fn shared(&mut self, name: &str, dtype: DType, shape: &[i64]) -> BufferRef {
        let buf = Buffer::new(name, MemScope::Shared, dtype, shape);
        self.shared.push(buf.clone());
        buf
    }

    /// Declares a per-thread register array.
    pub fn local(&mut self, name: &str, dtype: DType, shape: &[i64]) -> BufferRef {
        let buf = Buffer::new(name, MemScope::Register, dtype, shape);
        self.locals.push(buf.clone());
        buf
    }

    /// Sets the scheduler metadata.
    pub fn meta(&mut self, meta: KernelMeta) -> &mut Self {
        self.meta = meta;
        self
    }

    /// Sets the kernel body (replacing any previous body).
    pub fn body(&mut self, body: Stmt) -> &mut Self {
        self.body = body;
        self
    }

    /// Appends a statement to the body.
    pub fn push(&mut self, stmt: Stmt) -> &mut Self {
        self.body = std::mem::replace(&mut self.body, Stmt::Nop).then(stmt);
        self
    }

    /// Finishes and validates the kernel.
    ///
    /// # Panics
    /// Panics on duplicate buffer names (see [`Kernel`] invariants).
    pub fn build(&mut self) -> Kernel {
        let kernel = Kernel::from_parts(
            self.name.clone(),
            self.params.clone(),
            self.shared.clone(),
            self.locals.clone(),
            self.launch,
            self.meta,
            std::mem::replace(&mut self.body, Stmt::Nop),
        );
        kernel.validate();
        kernel
    }
}

// ---------------------------------------------------------------------------
// Free-function statement/expression helpers.
// ---------------------------------------------------------------------------

/// Integer constant expression.
pub fn c(v: i64) -> Expr {
    Expr::Int(v)
}

/// Float constant expression.
pub fn fconst(v: f32) -> Expr {
    Expr::Float(v)
}

/// Fresh named index variable (the caller ensures uniqueness).
pub fn var(name: &str) -> Var {
    Var::index(name)
}

/// The flat thread index (`threadIdx.x`).
pub fn thread_idx() -> Expr {
    Expr::ThreadIdx
}

/// The flat block index (`blockIdx.x`).
pub fn block_idx() -> Expr {
    Expr::BlockIdx
}

/// Load `buffer[indices...]`.
///
/// # Panics
/// Panics if the index count does not match the buffer rank.
pub fn load(buffer: &BufferRef, indices: Vec<Expr>) -> Expr {
    assert_eq!(
        indices.len(),
        buffer.ndim(),
        "load of {}: {} indices for rank-{} buffer",
        buffer.name(),
        indices.len(),
        buffer.ndim()
    );
    Expr::Load {
        buffer: buffer.clone(),
        indices,
    }
}

/// Store `buffer[indices...] = value`.
///
/// # Panics
/// Panics if the index count does not match the buffer rank.
pub fn store(buffer: &BufferRef, indices: Vec<Expr>, value: Expr) -> Stmt {
    assert_eq!(
        indices.len(),
        buffer.ndim(),
        "store to {}: {} indices for rank-{} buffer",
        buffer.name(),
        indices.len(),
        buffer.ndim()
    );
    Stmt::Store {
        buffer: buffer.clone(),
        indices,
        value,
    }
}

/// Sequences statements, dropping `Nop`s.
pub fn seq(stmts: Vec<Stmt>) -> Stmt {
    let mut out = Stmt::Nop;
    for s in stmts {
        out = out.then(s);
    }
    out
}

/// `for v in 0..extent { body(v) }` with a caller-provided variable.
pub fn for_(v: Var, extent: impl Into<Expr>, body: impl FnOnce(Expr) -> Stmt) -> Stmt {
    let e = v.expr();
    Stmt::For {
        var: v,
        extent: extent.into(),
        body: Box::new(body(e)),
        unroll: false,
    }
}

/// `for <name> in 0..extent { body }` with an auto-named variable.
pub fn for_range(name: &str, extent: impl Into<Expr>, body: impl FnOnce(Expr) -> Stmt) -> Stmt {
    for_(Var::index(name), extent, body)
}

/// Unrolled loop (hint only; semantics identical to [`for_`]).
pub fn for_unrolled(v: Var, extent: impl Into<Expr>, body: impl FnOnce(Expr) -> Stmt) -> Stmt {
    let e = v.expr();
    Stmt::For {
        var: v,
        extent: extent.into(),
        body: Box::new(body(e)),
        unroll: true,
    }
}

/// `if cond { then_body }`.
pub fn if_then(cond: Expr, then_body: Stmt) -> Stmt {
    Stmt::If {
        cond,
        then_body: Box::new(then_body),
        else_body: None,
    }
}

/// `if cond { then_body } else { else_body }`.
pub fn if_then_else(cond: Expr, then_body: Stmt, else_body: Stmt) -> Stmt {
    Stmt::If {
        cond,
        then_body: Box::new(then_body),
        else_body: Some(Box::new(else_body)),
    }
}

/// Let binding scoping over the remainder of the enclosing sequence.
pub fn let_(v: &Var, value: Expr) -> Stmt {
    Stmt::Let {
        var: v.clone(),
        value,
    }
}

/// Thread-block barrier.
pub fn sync_threads() -> Stmt {
    Stmt::SyncThreads
}

/// Comment preserved in CUDA output.
pub fn comment(text: &str) -> Stmt {
    Stmt::Comment(text.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_collects_buffers_and_body() {
        let mut kb = KernelBuilder::new("k", 2, 64);
        let a = kb.param("A", DType::F32, &[128]);
        let s = kb.shared("S", DType::F32, &[64]);
        kb.push(store(
            &s,
            vec![thread_idx()],
            load(&a, vec![block_idx() * 64 + thread_idx()]),
        ));
        kb.push(sync_threads());
        let kernel = kb.build();
        assert_eq!(kernel.params().len(), 1);
        assert_eq!(kernel.shared_buffers().len(), 1);
        assert!(kernel.body().contains_sync());
    }

    #[test]
    fn seq_drops_nops() {
        let s = seq(vec![Stmt::Nop, sync_threads(), Stmt::Nop]);
        assert!(matches!(s, Stmt::SyncThreads));
    }

    #[test]
    fn for_loop_body_sees_loop_var() {
        let s = for_range("i", 4, |i| {
            let b = Buffer::new("A", MemScope::Global, DType::F32, &[4]);
            store(&b, vec![i.clone()], i.cast(DType::F32))
        });
        let text = s.to_string();
        assert!(text.contains("for i in 0..4"));
        assert!(text.contains("A[i] = (float)i"));
    }

    #[test]
    #[should_panic(expected = "indices for rank-")]
    fn load_rank_mismatch_panics() {
        let b = Buffer::new("A", MemScope::Global, DType::F32, &[2, 2]);
        let _ = load(&b, vec![c(0)]);
    }
}
