//! Task-mapping algebra from *Hidet: Task-Mapping Programming Paradigm for Deep
//! Learning Tensor Programs* (ASPLOS '23), §5.1.
//!
//! A [`TaskMapping`] assigns a grid of *tasks* (points of an `m`-dimensional task
//! domain) to a set of *workers* (threads, warps, thread blocks, …) and fixes the
//! order in which each worker executes its tasks.
//!
//! Two basic mappings exist (paper Fig. 11):
//!
//! * [`TaskMapping::repeat`] maps a whole grid of tasks onto a **single** worker,
//!   which executes them sequentially in row-major order;
//! * [`TaskMapping::spatial`] maps an `n`-task grid onto `n` workers, one task each.
//!
//! Mappings compose with [`TaskMapping::compose`] (or the `*` operator), which
//! treats every task of the outer mapping as a macro-task refined by the inner
//! mapping (paper §5.1.2):
//!
//! ```
//! use hidet_taskmap::TaskMapping;
//!
//! // The cooperative-load mapping of the paper's Fig. 8: 64x8 tasks on 128 threads.
//! let tm = TaskMapping::repeat(&[4, 1]) * TaskMapping::spatial(&[16, 8]);
//! assert_eq!(tm.task_shape(), &[64, 8]);
//! assert_eq!(tm.num_workers(), 128);
//! // Worker 0 executes tasks (0,0), (16,0), (32,0), (48,0) in order.
//! let tasks: Vec<_> = tm.worker_tasks(0).collect();
//! assert_eq!(tasks, vec![vec![0, 0], vec![16, 0], vec![32, 0], vec![48, 0]]);
//! ```
//!
//! Composition is associative (checked exhaustively by property tests) but not
//! commutative (paper Fig. 12 (a)/(b)).
//!
//! The crate is dependency-free; the tensor-program IR (`hidet-ir`) lowers these
//! mappings to loop nests and index arithmetic.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod check;
mod display;
mod iter;
mod mapping;

pub use check::{CoverageReport, MappingProperty};
pub use iter::{AssignmentIter, WorkerTaskIter};
pub use mapping::{Task, TaskMapping, TaskMappingKind};

/// Convenience constructor: `repeat(&[a, b])` == `TaskMapping::repeat(&[a, b])`.
///
/// ```
/// use hidet_taskmap::{repeat, spatial};
/// let tm = repeat(&[2, 2]) * spatial(&[4, 8]);
/// assert_eq!(tm.num_workers(), 32);
/// ```
pub fn repeat(shape: &[i64]) -> TaskMapping {
    TaskMapping::repeat(shape)
}

/// Convenience constructor: `spatial(&[a, b])` == `TaskMapping::spatial(&[a, b])`.
///
/// ```
/// use hidet_taskmap::spatial;
/// assert_eq!(spatial(&[16, 8]).num_workers(), 128);
/// ```
pub fn spatial(shape: &[i64]) -> TaskMapping {
    TaskMapping::spatial(shape)
}

/// Row-major linearization of a multi-dimensional `index` within `shape`.
///
/// # Panics
/// Panics in debug builds if `index.len() != shape.len()`.
pub fn linearize(index: &[i64], shape: &[i64]) -> i64 {
    debug_assert_eq!(index.len(), shape.len());
    let mut acc = 0;
    for (i, d) in index.iter().zip(shape) {
        acc = acc * d + i;
    }
    acc
}

/// Inverse of [`linearize`]: split a flat index into row-major coordinates.
pub fn delinearize(mut flat: i64, shape: &[i64]) -> Vec<i64> {
    let mut out = vec![0; shape.len()];
    for (slot, d) in out.iter_mut().zip(shape).rev() {
        *slot = flat % d;
        flat /= d;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linearize_roundtrip() {
        let shape = [3, 4, 5];
        for flat in 0..60 {
            let idx = delinearize(flat, &shape);
            assert_eq!(linearize(&idx, &shape), flat);
        }
    }

    #[test]
    fn linearize_row_major() {
        assert_eq!(linearize(&[0, 0], &[2, 3]), 0);
        assert_eq!(linearize(&[0, 2], &[2, 3]), 2);
        assert_eq!(linearize(&[1, 0], &[2, 3]), 3);
        assert_eq!(linearize(&[1, 2], &[2, 3]), 5);
    }

    #[test]
    fn delinearize_edges() {
        assert_eq!(delinearize(0, &[1]), vec![0]);
        assert_eq!(delinearize(7, &[2, 4]), vec![1, 3]);
    }
}
