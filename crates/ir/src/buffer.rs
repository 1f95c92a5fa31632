//! Typed, scoped buffers — the IR's view of the CUDA memory hierarchy (§2.1).

use std::fmt;
use std::sync::Arc;

use crate::dtype::DType;

/// Where a buffer lives in the memory hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemScope {
    /// Device global memory (kernel parameters).
    Global,
    /// Per-thread-block shared memory (`__shared__`).
    Shared,
    /// Per-thread registers (local arrays the compiler keeps in the register file).
    Register,
}

impl fmt::Display for MemScope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MemScope::Global => "global",
            MemScope::Shared => "shared",
            MemScope::Register => "register",
        };
        f.write_str(s)
    }
}

/// A multi-dimensional typed buffer.
///
/// Buffers are identified by name within one kernel; `BufferRef = Arc<Buffer>`
/// is cheap to clone and is what [`crate::Expr::Load`]/[`crate::Stmt::Store`]
/// reference. In a built kernel's body, an access to one of the kernel's
/// parameters names no buffer: it addresses the parameter by position (a
/// *parameter slot*, [`Buffer::param_index`]), and [`Buffer::name_in`]
/// reads its name from the parameter list of the kernel it is in.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Buffer {
    /// For a parameter slot, `$<index>`: what it prints as on its own.
    name: Arc<str>,
    scope: MemScope,
    dtype: DType,
    shape: Vec<i64>,
    param: Option<usize>,
}

/// Shared handle to a [`Buffer`].
pub type BufferRef = Arc<Buffer>;

impl Buffer {
    /// Creates a buffer; prefer the scope-specific methods on
    /// [`crate::KernelBuilder`] which also register the buffer with the kernel.
    ///
    /// # Panics
    /// Panics if `shape` is empty or has non-positive extents.
    pub fn new(name: &str, scope: MemScope, dtype: DType, shape: &[i64]) -> BufferRef {
        assert!(
            !shape.is_empty(),
            "buffer {name} must have at least one dimension"
        );
        assert!(
            shape.iter().all(|&d| d > 0),
            "buffer {name} has non-positive extent in shape {shape:?}"
        );
        Arc::new(Buffer {
            name: name.into(),
            scope,
            dtype,
            shape: shape.to_vec(),
            param: None,
        })
    }

    /// The global-memory parameter slot `index`, accessed as `dtype` of
    /// `shape`.
    pub(crate) fn param_slot(index: usize, dtype: DType, shape: &[i64]) -> BufferRef {
        Arc::new(Buffer {
            name: format!("${index}").into(),
            scope: MemScope::Global,
            dtype,
            shape: shape.to_vec(),
            param: Some(index),
        })
    }

    /// Buffer name (unique within a kernel); `$<index>` for a parameter
    /// slot, whose name is the kernel's ([`Buffer::name_in`]).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The position of the kernel parameter this buffer stands for, when it
    /// is a parameter slot.
    pub fn param_index(&self) -> Option<usize> {
        self.param
    }

    /// The name this buffer goes by in a kernel whose parameters are
    /// `params`: a parameter slot takes its parameter's name, any other
    /// buffer keeps its own.
    pub fn name_in<'a>(&'a self, params: &'a [BufferRef]) -> &'a str {
        match self.param.and_then(|i| params.get(i)) {
            Some(param) => param.name(),
            None => &self.name,
        }
    }

    /// Memory scope.
    pub fn scope(&self) -> MemScope {
        self.scope
    }

    /// Element type.
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Shape (row-major layout).
    pub fn shape(&self) -> &[i64] {
        &self.shape
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn num_elements(&self) -> i64 {
        self.shape.iter().product()
    }

    /// Total size in bytes (used for shared-memory occupancy accounting).
    pub fn size_bytes(&self) -> u64 {
        self.num_elements() as u64 * self.dtype.size_bytes()
    }

    /// Row-major strides.
    pub fn strides(&self) -> Vec<i64> {
        let mut strides = vec![1i64; self.shape.len()];
        for i in (0..self.shape.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.shape[i + 1];
        }
        strides
    }
}

impl fmt::Display for Buffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}{:?}: {}",
            self.scope, self.name, self.shape, self.dtype
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_are_row_major() {
        let b = Buffer::new("A", MemScope::Global, DType::F32, &[2, 3, 4]);
        assert_eq!(b.strides(), vec![12, 4, 1]);
        assert_eq!(b.num_elements(), 24);
        assert_eq!(b.size_bytes(), 96);
    }

    #[test]
    fn one_dim_buffer() {
        let b = Buffer::new("x", MemScope::Register, DType::F16, &[8]);
        assert_eq!(b.strides(), vec![1]);
        assert_eq!(b.size_bytes(), 16);
    }

    #[test]
    #[should_panic(expected = "non-positive extent")]
    fn zero_extent_rejected() {
        let _ = Buffer::new("A", MemScope::Global, DType::F32, &[4, 0]);
    }

    #[test]
    fn display_is_informative() {
        let b = Buffer::new("SmemA", MemScope::Shared, DType::F32, &[2, 64, 8]);
        assert_eq!(b.to_string(), "shared SmemA[2, 64, 8]: f32");
    }
}
