//! Kernels: scheduled tensor programs plus their launch configuration.

use std::fmt;

use crate::buffer::{Buffer, BufferRef, MemScope};
use crate::stmt::Stmt;
use crate::visit::replace_buffers;

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

/// A compiled tensor program: buffers, launch configuration and body.
///
/// Built with [`crate::KernelBuilder`]. A kernel can be printed as CUDA C
/// ([`crate::cuda::to_cuda`]) or executed/timed by `hidet-sim`.
#[derive(Debug, Clone)]
pub struct Kernel {
    name: String,
    params: Vec<BufferRef>,
    shared: Vec<BufferRef>,
    locals: Vec<BufferRef>,
    launch: LaunchConfig,
    meta: KernelMeta,
    body: Stmt,
}

impl Kernel {
    pub(crate) fn from_parts(
        name: String,
        params: Vec<BufferRef>,
        shared: Vec<BufferRef>,
        locals: Vec<BufferRef>,
        launch: LaunchConfig,
        meta: KernelMeta,
        body: Stmt,
    ) -> Kernel {
        Kernel {
            name,
            params,
            shared,
            locals,
            launch,
            meta,
            body,
        }
    }

    /// A copy of this kernel named `name`, in which every buffer whose name
    /// is the first of a `buffers` pair takes the second, exactly (never by
    /// prefix), in the buffer lists and wherever the body loads or stores
    /// it. All else is copied as it is: one allocation per node of the body,
    /// no simplification.
    ///
    /// The caller keeps the new names apart from the kernel's other buffers.
    pub fn renamed(&self, name: &str, buffers: &[(&str, &str)]) -> Kernel {
        let mut swaps: Vec<(&str, BufferRef)> = Vec::new();
        let mut rename = |list: &[BufferRef]| -> Vec<BufferRef> {
            (list.iter())
                .map(|b| match buffers.iter().find(|(old, _)| *old == b.name()) {
                    Some(&(old, new)) => {
                        let new = Buffer::new(new, b.scope(), b.dtype(), b.shape());
                        swaps.push((old, new.clone()));
                        new
                    }
                    None => b.clone(),
                })
                .collect()
        };
        let params = rename(&self.params);
        let shared = rename(&self.shared);
        let locals = rename(&self.locals);
        let body = replace_buffers(&self.body, &|b| match swaps
            .iter()
            .find(|(old, _)| *old == b.name())
        {
            Some((_, new)) => new.clone(),
            None => b.clone(),
        });
        Kernel::from_parts(
            name.to_string(),
            params,
            shared,
            locals,
            self.launch,
            self.meta,
            body,
        )
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
        &self.shared
    }

    /// Per-thread register arrays.
    pub fn local_buffers(&self) -> &[BufferRef] {
        &self.locals
    }

    /// Launch configuration.
    pub fn launch(&self) -> LaunchConfig {
        self.launch
    }

    /// Scheduler-provided metadata.
    pub fn meta(&self) -> KernelMeta {
        self.meta
    }

    /// Kernel body (one copy executed per thread).
    pub fn body(&self) -> &Stmt {
        &self.body
    }

    /// Total shared memory per block, in bytes.
    pub fn shared_bytes(&self) -> u64 {
        self.shared.iter().map(|b| b.size_bytes()).sum()
    }

    /// Estimated registers per thread: 32 baseline plus the register arrays
    /// (4 bytes / register).
    pub fn registers_per_thread(&self) -> u64 {
        let array_regs: u64 = self.locals.iter().map(|b| b.size_bytes() / 4).sum();
        32 + array_regs
    }

    /// Looks up any buffer (param/shared/local) by name.
    pub fn find_buffer(&self, name: &str) -> Option<&BufferRef> {
        self.params
            .iter()
            .chain(&self.shared)
            .chain(&self.locals)
            .find(|b| b.name() == name)
    }

    /// Validates internal consistency; called by the builder.
    ///
    /// # Panics
    /// Panics on duplicate buffer names or scope mismatches.
    pub(crate) fn validate(&self) {
        let mut names = std::collections::HashSet::new();
        for buf in self.params.iter().chain(&self.shared).chain(&self.locals) {
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
        for buf in &self.shared {
            assert_eq!(
                buf.scope(),
                MemScope::Shared,
                "buffer {} must be shared",
                buf.name()
            );
        }
        for buf in &self.locals {
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
            self.name, self.launch.grid_dim, self.launch.block_dim
        )?;
        for b in self.params.iter().chain(&self.shared).chain(&self.locals) {
            writeln!(f, "  {b}")?;
        }
        write!(f, "{}", self.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::dtype::DType;

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
        assert!(kernel.find_buffer("A").is_some());
        assert!(kernel.find_buffer("S").is_some());
        assert!(kernel.find_buffer("missing").is_none());
    }

    #[test]
    fn renamed_replaces_exact_buffer_names_only() {
        let mut kb = KernelBuilder::new("k", 2, 32);
        let a = kb.param("t1", DType::F32, &[4]);
        let b = kb.param("t12", DType::F32, &[4]);
        let s = kb.shared("S", DType::F32, &[4]);
        let body = crate::builder::store(
            &b,
            vec![crate::builder::thread_idx()],
            crate::builder::load(&a, vec![crate::builder::c(0)])
                + crate::builder::load(&s, vec![crate::builder::c(1)]),
        );
        let kernel = kb.body(body).build();
        let copy = kernel.renamed("k2", &[("t1", "t7"), ("t12", "t1")]);
        assert_eq!(copy.name(), "k2");
        let names: Vec<&str> = copy.params().iter().map(|p| p.name()).collect();
        assert_eq!(names, ["t7", "t1"]);
        assert_eq!(copy.shared_buffers(), kernel.shared_buffers());
        assert_eq!(
            (copy.launch(), copy.meta()),
            (kernel.launch(), kernel.meta())
        );
        assert_eq!(
            copy.body().to_string(),
            "t1[threadIdx.x] = (t7[0] + S[1])\n"
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
