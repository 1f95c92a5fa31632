//! Kernels: scheduled tensor programs plus their launch configuration.
//!
//! A [`Kernel`] is a name and a list of named parameter buffers bound to a
//! shared, name-free [`KernelDef`]: the launch, the metadata, the shared and
//! register buffers, and a body that addresses each parameter by position —
//! a *parameter slot* ([`Buffer::param_index`]). [`crate::KernelBuilder::build`]
//! puts each freshly generated kernel in that form once; [`Kernel::renamed`]
//! then names the same definition's parameters by position in O(params),
//! sharing it rather than copying the body. Whatever prints or runs a body
//! reads a slot's name from the parameters of the kernel it runs as
//! ([`Buffer::name_in`]); global buffers that are no parameter keep their
//! own names.

use std::fmt;
use std::sync::Arc;

use crate::buffer::{Buffer, BufferRef, MemScope};
use crate::expr::Expr;
use crate::stmt::Stmt;
use crate::visit::rewritten;

/// Grid/block launch configuration (flat 1-D, as task mappings subsume
/// multi-dimensional launches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LaunchConfig {
    /// Number of thread blocks in the grid.
    pub grid_dim: i64,
    /// Number of threads per block.
    pub block_dim: i64,
}

impl LaunchConfig {
    /// Creates a launch configuration.
    ///
    /// # Panics
    /// Panics if either dimension is non-positive or `block_dim` exceeds the
    /// CUDA architectural limit of 1024 threads per block.
    pub fn new(grid_dim: i64, block_dim: i64) -> LaunchConfig {
        assert!(grid_dim > 0, "grid_dim must be positive, got {grid_dim}");
        assert!(
            (1..=1024).contains(&block_dim),
            "block_dim must be in 1..=1024, got {block_dim}"
        );
        LaunchConfig {
            grid_dim,
            block_dim,
        }
    }

    /// Total number of threads launched.
    pub fn total_threads(&self) -> i64 {
        self.grid_dim * self.block_dim
    }
}

/// Performance-relevant metadata the scheduler attaches to a kernel.
///
/// These mirror the optimization knobs the paper highlights: software
/// pipelining depth (double buffering, §3.1/Fig. 5), Tensor Core usage (§2.2),
/// and the split-K factor for parallel reduction (§6.3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelMeta {
    /// Software pipeline stages for the global→shared data path.
    /// `1` = no pipelining; `2` = double buffering; `3+` = multi-stage
    /// asynchronous prefetching.
    pub pipeline_stages: u32,
    /// True if the inner product uses Tensor Core MMA instructions.
    pub uses_tensor_cores: bool,
    /// Number of reduction splits executed by independent thread blocks
    /// (`1` = no parallel-k).
    pub parallel_k_parts: u32,
    /// Widest vectorized global-memory access in elements (e.g. 4 = `float4`).
    pub vector_width: u32,
}

impl Default for KernelMeta {
    fn default() -> Self {
        KernelMeta {
            pipeline_stages: 1,
            uses_tensor_cores: false,
            parallel_k_parts: 1,
            vector_width: 1,
        }
    }
}

/// What a kernel computes, apart from every name it is called by: launch,
/// metadata, shared and register buffers, and a body whose parameter
/// accesses are parameter slots. Kernels of one fused-group key share one.
#[derive(Debug)]
pub struct KernelDef {
    shared: Vec<BufferRef>,
    locals: Vec<BufferRef>,
    launch: LaunchConfig,
    meta: KernelMeta,
    body: Stmt,
}

/// A compiled tensor program: its name and parameters, and a shared
/// [`KernelDef`].
///
/// Built with [`crate::KernelBuilder`]. A kernel can be printed as CUDA C
/// ([`crate::cuda::to_cuda`]) or executed/timed by `hidet-sim`.
#[derive(Debug, Clone)]
pub struct Kernel {
    name: String,
    params: Vec<BufferRef>,
    def: Arc<KernelDef>,
}

impl Kernel {
    /// The kernel of these parts, its body's accesses to `params` (global
    /// buffers of a parameter's name) turned into parameter slots.
    pub(crate) fn from_parts(
        name: String,
        params: Vec<BufferRef>,
        shared: Vec<BufferRef>,
        locals: Vec<BufferRef>,
        launch: LaunchConfig,
        meta: KernelMeta,
        mut body: Stmt,
    ) -> Kernel {
        // A slot keeps the access's own type and shape, as the access did.
        swap_buffers(&mut body, &mut |b| {
            if b.scope() != MemScope::Global || b.param_index().is_some() {
                return None;
            }
            let i = params.iter().position(|p| p.name() == b.name())?;
            Some(Buffer::param_slot(i, b.dtype(), b.shape()))
        });
        let def = KernelDef {
            shared,
            locals,
            launch,
            meta,
            body,
        };
        Kernel {
            name,
            params,
            def: Arc::new(def),
        }
    }

    /// This kernel's definition under the name `name`, parameter `i` named
    /// `params[i]`. The definition is shared, not copied: the cost is one
    /// buffer per parameter.
    ///
    /// The caller keeps the new names apart from the kernel's other buffers.
    ///
    /// # Panics
    /// Panics unless there is one name per parameter.
    pub fn renamed(&self, name: &str, params: &[impl AsRef<str>]) -> Kernel {
        assert_eq!(params.len(), self.params.len(), "one name per parameter");
        let params = (self.params.iter().zip(params))
            .map(|(p, new)| Buffer::new(new.as_ref(), p.scope(), p.dtype(), p.shape()))
            .collect();
        Kernel {
            name: name.to_string(),
            params,
            def: Arc::clone(&self.def),
        }
    }

    /// The name-free definition this kernel runs, shared with every kernel
    /// renamed from it.
    pub fn definition(&self) -> &Arc<KernelDef> {
        &self.def
    }

    /// Kernel name (also the CUDA `__global__` function name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Global-memory parameter buffers, in call order.
    pub fn params(&self) -> &[BufferRef] {
        &self.params
    }

    /// Shared-memory buffers.
    pub fn shared_buffers(&self) -> &[BufferRef] {
        &self.def.shared
    }

    /// Per-thread register arrays.
    pub fn local_buffers(&self) -> &[BufferRef] {
        &self.def.locals
    }

    /// Launch configuration.
    pub fn launch(&self) -> LaunchConfig {
        self.def.launch
    }

    /// Scheduler-provided metadata.
    pub fn meta(&self) -> KernelMeta {
        self.def.meta
    }

    /// Kernel body (one copy executed per thread). Its parameter accesses
    /// are parameter slots: read their names through [`Kernel::params`]
    /// ([`Buffer::name_in`], [`Stmt::display_with`]).
    pub fn body(&self) -> &Stmt {
        &self.def.body
    }

    /// Total shared memory per block, in bytes.
    pub fn shared_bytes(&self) -> u64 {
        self.shared_buffers().iter().map(|b| b.size_bytes()).sum()
    }

    /// Estimated registers per thread: 32 baseline plus the register arrays
    /// (4 bytes / register).
    pub fn registers_per_thread(&self) -> u64 {
        let array_regs: u64 = self
            .local_buffers()
            .iter()
            .map(|b| b.size_bytes() / 4)
            .sum();
        32 + array_regs
    }

    /// Validates internal consistency; called by the builder.
    ///
    /// # Panics
    /// Panics on duplicate buffer names or scope mismatches.
    pub(crate) fn validate(&self) {
        let mut names = std::collections::HashSet::new();
        let (shared, locals) = (self.shared_buffers(), self.local_buffers());
        for buf in self.params.iter().chain(shared).chain(locals) {
            assert!(
                names.insert(buf.name().to_string()),
                "duplicate buffer name {} in kernel {}",
                buf.name(),
                self.name
            );
        }
        for buf in &self.params {
            assert_eq!(
                buf.scope(),
                MemScope::Global,
                "param {} must be global",
                buf.name()
            );
        }
        for buf in shared {
            assert_eq!(
                buf.scope(),
                MemScope::Shared,
                "buffer {} must be shared",
                buf.name()
            );
        }
        for buf in locals {
            assert_eq!(
                buf.scope(),
                MemScope::Register,
                "buffer {} must be register",
                buf.name()
            );
        }
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "kernel {}<<<{}, {}>>>",
            self.name,
            self.launch().grid_dim,
            self.launch().block_dim
        )?;
        let (shared, locals) = (self.shared_buffers(), self.local_buffers());
        for b in self.params.iter().chain(shared).chain(locals) {
            writeln!(f, "  {b}")?;
        }
        write!(f, "{}", self.body().display_with(&self.params))
    }
}

/// Swaps, in place, every buffer `s` loads or stores for `swap(buffer)`
/// where that is `Some`. An expression no swap reaches stays as it is.
fn swap_buffers(s: &mut Stmt, swap: &mut impl FnMut(&BufferRef) -> Option<BufferRef>) {
    fn expr(e: &mut Expr, swap: &mut impl FnMut(&BufferRef) -> Option<BufferRef>) {
        let swapped = rewritten(e, &mut |node| match node {
            Expr::Load { buffer, indices } => swap(buffer).map(|buffer| Expr::Load {
                buffer,
                indices: indices.clone(),
            }),
            _ => None,
        });
        if let Some(swapped) = swapped {
            *e = swapped;
        }
    }
    match s {
        Stmt::Seq(items) => items.iter_mut().for_each(|i| swap_buffers(i, swap)),
        Stmt::For { extent, body, .. } => {
            expr(extent, swap);
            swap_buffers(body, swap);
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => {
            expr(cond, swap);
            swap_buffers(then_body, swap);
            if let Some(e) = else_body {
                swap_buffers(e, swap);
            }
        }
        Stmt::Let { value, .. } => expr(value, swap),
        Stmt::Store {
            buffer,
            indices,
            value,
        } => {
            if let Some(new) = swap(buffer) {
                *buffer = new;
            }
            indices.iter_mut().for_each(|i| expr(i, swap));
            expr(value, swap);
        }
        Stmt::SyncThreads | Stmt::Nop | Stmt::Comment(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{c, load, store, thread_idx, KernelBuilder};
    use crate::dtype::DType;
    use crate::visit::visit_exprs;

    #[test]
    fn launch_config_accessors() {
        let lc = LaunchConfig::new(256, 128);
        assert_eq!(lc.total_threads(), 32768);
    }

    #[test]
    #[should_panic(expected = "block_dim")]
    fn oversized_block_rejected() {
        let _ = LaunchConfig::new(1, 2048);
    }

    #[test]
    fn meta_default_is_unoptimized() {
        let m = KernelMeta::default();
        assert_eq!(m.pipeline_stages, 1);
        assert!(!m.uses_tensor_cores);
        assert_eq!(m.parallel_k_parts, 1);
    }

    #[test]
    fn shared_bytes_and_registers() {
        let mut kb = KernelBuilder::new("k", 1, 128);
        kb.param("A", DType::F32, &[64]);
        kb.shared("S", DType::F32, &[2, 64, 8]);
        kb.local("R", DType::F32, &[16]);
        let kernel = kb.build();
        assert_eq!(kernel.shared_bytes(), 2 * 64 * 8 * 4);
        assert_eq!(kernel.registers_per_thread(), 32 + 16);
    }

    #[test]
    fn find_buffer_by_name() {
        let mut kb = KernelBuilder::new("k", 1, 32);
        kb.param("A", DType::F32, &[4]);
        kb.shared("S", DType::F32, &[4]);
        let kernel = kb.build();
        let named = |list: &[BufferRef], name: &str| list.iter().any(|b| b.name() == name);
        assert!(named(kernel.params(), "A"));
        assert!(named(kernel.shared_buffers(), "S"));
        assert!(!named(kernel.params(), "S") && !named(kernel.local_buffers(), "missing"));
    }

    #[test]
    fn renamed_names_parameters_by_position() {
        let mut kb = KernelBuilder::new("k", 2, 32);
        let a = kb.param("t1", DType::F32, &[4]);
        let b = kb.param("t12", DType::F32, &[4]);
        let s = kb.shared("S", DType::F32, &[4]);
        let body = store(
            &b,
            vec![thread_idx()],
            load(&a, vec![c(0)]) + load(&s, vec![c(1)]),
        );
        let kernel = kb.body(body).build();
        let copy = kernel.renamed("k2", &["t7", "t1"]);
        assert_eq!(copy.name(), "k2");
        let names: Vec<&str> = copy.params().iter().map(|p| p.name()).collect();
        assert_eq!(names, ["t7", "t1"]);
        assert_eq!(copy.shared_buffers(), kernel.shared_buffers());
        assert_eq!(
            (copy.launch(), copy.meta()),
            (kernel.launch(), kernel.meta())
        );
        assert_eq!(
            copy.body().display_with(copy.params()).to_string(),
            "t1[threadIdx.x] = (t7[0] + S[1])\n"
        );
        // One definition, two sets of names.
        assert!(Arc::ptr_eq(copy.definition(), kernel.definition()));
        assert_eq!(
            kernel.body().display_with(kernel.params()).to_string(),
            "t12[threadIdx.x] = (t1[0] + S[1])\n"
        );
    }

    #[test]
    fn build_addresses_loaded_and_stored_params_by_position() {
        let mut kb = KernelBuilder::new("k", 1, 32);
        kb.param("A", DType::F32, &[4]);
        kb.param("B", DType::F32, &[4]);
        let s = kb.shared("S", DType::F32, &[4]);
        // Separate handles of the same names, as fused templates make them;
        // `G` is a global that is no parameter.
        let global = |name| Buffer::new(name, MemScope::Global, DType::F32, &[4]);
        let index = thread_idx() % 4;
        let body = store(
            &global("B"),
            vec![index.clone()],
            load(&global("A"), vec![index.clone()]) + load(&global("G"), vec![c(0)]),
        )
        .then(store(&s, vec![index.clone()], load(&s, vec![c(0)])));
        let kernel = kb.body(body).build();
        let mut accessed = Vec::new();
        visit_exprs(kernel.body(), &mut |e| {
            if let Expr::Load { buffer, indices } = e {
                accessed.push((buffer.param_index(), buffer.name().to_string()));
                // The index sub-tree is the one the builder was handed.
                if let (Expr::Binary { lhs, .. }, Expr::Binary { lhs: built, .. }) =
                    (&index, &indices[0])
                {
                    assert!(Arc::ptr_eq(lhs, built));
                }
            }
        });
        assert_eq!(
            accessed,
            [
                (Some(0), "$0".to_string()),
                (None, "G".to_string()),
                (None, "S".to_string())
            ]
        );
        let Stmt::Seq(stores) = kernel.body() else {
            unreachable!()
        };
        let stored: Vec<Option<usize>> = (stores.iter())
            .map(|s| match s {
                Stmt::Store { buffer, .. } => buffer.param_index(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(stored, [Some(1), None]);
        assert_eq!(
            kernel.to_string(),
            "kernel k<<<1, 32>>>\n  global A[4]: f32\n  global B[4]: f32\n  shared S[4]: f32\n\
             B[(threadIdx.x % 4)] = (A[(threadIdx.x % 4)] + G[0])\n\
             S[(threadIdx.x % 4)] = S[0]\n"
        );
    }

    #[test]
    #[should_panic(expected = "duplicate buffer name")]
    fn duplicate_names_rejected() {
        let mut kb = KernelBuilder::new("k", 1, 32);
        kb.param("A", DType::F32, &[4]);
        kb.shared("A", DType::F32, &[4]);
        let _ = kb.build();
    }
}
