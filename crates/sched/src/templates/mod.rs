//! Template-based scheduling (paper §5.1.3).
//!
//! The paper implements exactly two schedule templates — matrix multiplication
//! and reduction — and covers every operator in the evaluated models with
//! them (plus rule-based scheduling and post-scheduling fusion). So does this
//! reproduction.

pub mod matmul;
pub mod reduce;

use hidet_graph::OpKind;

use self::matmul::MatmulProblem;
use self::reduce::RowReduceKind;

/// The problem an anchor operator poses to its template. The fused-group
/// compiler, the tuner and the baselines all read it from [`anchor_problem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnchorProblem {
    /// A (batched) GEMM for the matmul template.
    Matmul(MatmulProblem),
    /// `rows` independent reductions of `len` elements for the reduce
    /// template.
    RowReduce {
        /// What each row computes.
        kind: RowReduceKind,
        /// Number of rows.
        rows: i64,
        /// Elements per row.
        len: i64,
    },
}

/// The problem an operator `op` poses, from its input shapes. `None` for
/// operators no template schedules, and for a softmax or layer norm without
/// the axis it reduces (a rank-0 input).
pub fn anchor_problem(op: &OpKind, inputs: &[&[i64]]) -> Option<AnchorProblem> {
    let x = inputs[0];
    let row_reduce = |kind, axis: usize| {
        let len = *x.get(axis)?;
        let rows = x[..axis].iter().product::<i64>() * x[axis + 1..].iter().product::<i64>();
        Some(AnchorProblem::RowReduce { kind, rows, len })
    };
    match *op {
        OpKind::Matmul => {
            let b = inputs[1];
            Some(AnchorProblem::Matmul(MatmulProblem::new(x[0], b[1], x[1])))
        }
        OpKind::BatchMatmul => {
            let b = inputs[1];
            Some(AnchorProblem::Matmul(MatmulProblem {
                batch: x[0],
                m: x[1],
                n: b[2],
                k: x[2],
            }))
        }
        OpKind::Softmax { axis } => row_reduce(RowReduceKind::Softmax, axis),
        OpKind::LayerNorm => row_reduce(RowReduceKind::LayerNorm, x.len().checked_sub(1)?),
        OpKind::GlobalAvgPool => Some(AnchorProblem::RowReduce {
            kind: RowReduceKind::MeanPool,
            rows: x[0] * x[1],
            len: x[2] * x[3],
        }),
        _ => None,
    }
}
