//! Mathematical computation definitions (paper Fig. 4).
//!
//! A [`ComputeDef`] states how each element of an operator's output is
//! computed, as an `hidet-ir` expression over the output axes, with input
//! tensors appearing as loads from placeholder buffers `in0, in1, …`.
//! Reduction-bearing operators additionally carry a [`Reduction`].
//!
//! Compute definitions are the common currency of:
//!
//! * **rule-based scheduling** (paper §5.1.3) — the scheduler translates the
//!   definition directly into a tensor program;
//! * **post-scheduling fusion** (paper §5.2) — a prologue's definition is
//!   inlined into the anchor's input loads, an epilogue's into its output
//!   stores.

use hidet_ir::prelude::*;
use hidet_ir::visit::rewrite_expr;

use crate::op::{OpKind, UnaryKind};

/// How a reduction combines elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// Sum of elements.
    Sum,
    /// Maximum element.
    Max,
}

impl ReduceOp {
    /// The identity element.
    pub fn init(self) -> f32 {
        match self {
            ReduceOp::Sum => 0.0,
            ReduceOp::Max => f32::NEG_INFINITY,
        }
    }

    /// Combines an accumulator expression with a new element.
    pub fn combine(self, acc: Expr, elem: Expr) -> Expr {
        match self {
            ReduceOp::Sum => acc + elem,
            ReduceOp::Max => acc.max(elem),
        }
    }
}

/// Reduction part of a compute definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Reduction {
    /// Reduction axes with extents.
    pub axes: Vec<(Var, i64)>,
    /// Combining operator.
    pub op: ReduceOp,
}

/// A computation definition: `out[axes] = (reduce over raxes of) expr`.
#[derive(Debug, Clone, PartialEq)]
pub struct ComputeDef {
    /// Output shape.
    pub out_shape: Vec<i64>,
    /// One axis variable per output dimension.
    pub axes: Vec<Var>,
    /// Element expression. Input tensor `k` appears as a load from a global
    /// placeholder buffer named `in<k>` (see [`input_buffer`]).
    pub expr: Expr,
    /// Reduction, for anchor operators.
    pub reduction: Option<Reduction>,
}

/// The placeholder buffer standing for input `idx` with the given shape.
pub fn input_buffer(idx: usize, shape: &[i64]) -> BufferRef {
    Buffer::new(&format!("in{idx}"), MemScope::Global, DType::F32, shape)
}

impl ComputeDef {
    /// Fresh output axis variables `i0..i<rank>`.
    fn fresh_axes(rank: usize) -> Vec<Var> {
        (0..rank).map(|i| Var::index(&format!("i{i}"))).collect()
    }

    /// True if the definition has no reduction (prologue-eligible shape).
    pub fn is_injective(&self) -> bool {
        self.reduction.is_none()
    }

    /// Substitutes concrete index expressions for the output axes and reads
    /// each placeholder load of input `k` at `idx` as `input(k, idx)` (`None`
    /// keeps the load), returning the element expression — the primitive of
    /// post-scheduling fusion, for prologues and value epilogues alike.
    ///
    /// Substitution is *simultaneous*: neither the index expressions nor what
    /// `input` returns is rewritten again, so they may mention variables
    /// named like the definition's own axes (fusion chains reuse `i0, i1, …`)
    /// without being captured.
    ///
    /// # Panics
    /// Panics if `indices.len()` differs from the axis count.
    pub fn element_at(
        &self,
        indices: &[Expr],
        mut input: impl FnMut(usize, &[Expr]) -> Option<Expr>,
    ) -> Expr {
        assert_eq!(indices.len(), self.axes.len(), "index count mismatch");
        assert!(
            self.is_injective(),
            "element_at requires an injective definition"
        );
        rewrite_expr(&self.expr, &mut |e| match e {
            Expr::Var(v) => (self.axes.iter().position(|a| a == v)).map(|pos| indices[pos].clone()),
            Expr::Load { buffer, indices } => {
                parse_input_name(buffer.name()).and_then(|k| input(k, indices))
            }
            _ => None,
        })
    }
}

/// Parses `in<k>` placeholder buffer names.
pub fn parse_input_name(name: &str) -> Option<usize> {
    name.strip_prefix("in").and_then(|s| s.parse().ok())
}

/// Builds the compute definition for an operator kind, given input shapes.
///
/// Returns `None` for operators the scheduler handles with dedicated
/// templates or native lowering (conv, batch matmul, softmax, layernorm,
/// pooling) — matching the paper's design where only two templates (matmul,
/// reduction) plus rule-based scheduling cover all evaluated models.
pub fn compute_def(kind: &OpKind, input_shapes: &[&[i64]]) -> Option<ComputeDef> {
    let out_shape = kind.infer_shape(input_shapes);
    let axes = ComputeDef::fresh_axes(out_shape.len());
    let axis_exprs: Vec<Expr> = axes.iter().map(Var::expr).collect();
    match kind {
        OpKind::Unary(u) => {
            let x = load(&input_buffer(0, input_shapes[0]), axis_exprs);
            Some(ComputeDef {
                out_shape,
                axes,
                expr: unary_expr(*u, x),
                reduction: None,
            })
        }
        OpKind::Binary(b) => {
            let lhs = broadcast_load(0, input_shapes[0], &out_shape, &axis_exprs);
            let rhs = broadcast_load(1, input_shapes[1], &out_shape, &axis_exprs);
            let expr = match b {
                crate::op::BinaryKind::Add => lhs + rhs,
                crate::op::BinaryKind::Sub => lhs - rhs,
                crate::op::BinaryKind::Mul => lhs * rhs,
                crate::op::BinaryKind::Div => lhs / rhs,
            };
            Some(ComputeDef {
                out_shape,
                axes,
                expr,
                reduction: None,
            })
        }
        OpKind::BatchNorm => {
            let x = load(&input_buffer(0, input_shapes[0]), axis_exprs.clone());
            let ch = axis_exprs[1].clone();
            let scale = load(&input_buffer(1, input_shapes[1]), vec![ch.clone()]);
            let shift = load(&input_buffer(2, input_shapes[2]), vec![ch]);
            Some(ComputeDef {
                out_shape,
                axes,
                expr: x * scale + shift,
                reduction: None,
            })
        }
        OpKind::Reshape { .. } => {
            // out[axes] = in[delinearize(linearize(axes, out_shape), in_shape)]
            let flat = linearize_expr(&axis_exprs, &out_shape);
            let in_idx = delinearize_expr(flat, input_shapes[0]);
            let expr = load(&input_buffer(0, input_shapes[0]), in_idx);
            Some(ComputeDef {
                out_shape,
                axes,
                expr,
                reduction: None,
            })
        }
        OpKind::Transpose { perm } => {
            // out[i...] = in[inverse_perm applied]: in axis p goes to out axis
            // j where perm[j] == p, so in_index[perm[j]] = out_index[j].
            let mut in_idx = vec![Expr::Int(0); perm.len()];
            for (j, &p) in perm.iter().enumerate() {
                in_idx[p] = axis_exprs[j].clone();
            }
            let expr = load(&input_buffer(0, input_shapes[0]), in_idx);
            Some(ComputeDef {
                out_shape,
                axes,
                expr,
                reduction: None,
            })
        }
        OpKind::Img2col {
            kernel,
            stride,
            padding,
        } => {
            let x_shape = input_shapes[0];
            let (c, h, w) = (x_shape[1], x_shape[2], x_shape[3]);
            let oh = (h + 2 * padding - kernel) / stride + 1;
            let ow = (w + 2 * padding - kernel) / stride + 1;
            // Row r = ((n * OH) + oh) * OW + ow; column s = ((c * KH) + kh) * KW + kw.
            let r = axis_exprs[0].clone();
            let s = axis_exprs[1].clone();
            let n = r.clone() / (oh * ow);
            let ohx = (r.clone() / ow) % oh;
            let owx = r % ow;
            let cx = s.clone() / (kernel * kernel);
            let khx = (s.clone() / *kernel) % *kernel;
            let kwx = s % *kernel;
            let ih = ohx * *stride + khx - *padding;
            let iw = owx * *stride + kwx - *padding;
            let in_bounds = ih
                .clone()
                .ge(0)
                .and(ih.clone().lt(h))
                .and(iw.clone().ge(0))
                .and(iw.clone().lt(w));
            // Clamp indices so the guarded load stays in bounds even when the
            // predicate is false (the select discards the value).
            let ih_c = ih.max(0).min(h - 1);
            let iw_c = iw.max(0).min(w - 1);
            let _ = c;
            let x = load(&input_buffer(0, x_shape), vec![n, cx, ih_c, iw_c]);
            let expr = in_bounds.select(x, 0.0f32);
            Some(ComputeDef {
                out_shape,
                axes,
                expr,
                reduction: None,
            })
        }
        OpKind::Concat { axis } => {
            // Nested select over the inputs by cumulative axis offset; the
            // chain tests bounds first-to-last, and each guarded load is
            // clamped into range so the discarded branch stays in bounds.
            let mut chain: Option<Expr> = None;
            let mut off = 0i64;
            let mut parts: Vec<(i64, Expr)> = Vec::new();
            for (k, shape) in input_shapes.iter().enumerate() {
                let extent = shape[*axis];
                let mut idx = axis_exprs.clone();
                idx[*axis] = (idx[*axis].clone() - off).max(0).min(extent - 1);
                parts.push((off + extent, load(&input_buffer(k, shape), idx)));
                off += extent;
            }
            for (bound, val) in parts.into_iter().rev() {
                chain = Some(match chain {
                    None => val,
                    Some(rest) => axis_exprs[*axis].clone().lt(bound).select(val, rest),
                });
            }
            Some(ComputeDef {
                out_shape,
                axes,
                expr: chain.expect("at least one input"),
                reduction: None,
            })
        }
        OpKind::Matmul => {
            let k_extent = input_shapes[0][1];
            let k = Var::index("k");
            let a = load(
                &input_buffer(0, input_shapes[0]),
                vec![axis_exprs[0].clone(), k.expr()],
            );
            let b = load(
                &input_buffer(1, input_shapes[1]),
                vec![k.expr(), axis_exprs[1].clone()],
            );
            Some(ComputeDef {
                out_shape,
                axes,
                expr: a * b,
                reduction: Some(Reduction {
                    axes: vec![(k, k_extent)],
                    op: ReduceOp::Sum,
                }),
            })
        }
        // Scheduled by dedicated templates / native lowering.
        OpKind::Conv2d { .. }
        | OpKind::BatchMatmul
        | OpKind::Softmax { .. }
        | OpKind::LayerNorm
        | OpKind::MaxPool { .. }
        | OpKind::AvgPool { .. }
        | OpKind::GlobalAvgPool => None,
    }
}

fn unary_expr(u: UnaryKind, x: Expr) -> Expr {
    match u {
        UnaryKind::Relu => x.max(0.0f32),
        UnaryKind::Relu6 => x.max(0.0f32).min(6.0f32),
        UnaryKind::Gelu => {
            // 0.5 x (1 + erf(x / sqrt(2)))
            let inner = (x.clone() * std::f32::consts::FRAC_1_SQRT_2).unary(UnOp::Erf);
            x * 0.5f32 * (inner + 1.0f32)
        }
        UnaryKind::Tanh => x.unary(UnOp::Tanh),
        UnaryKind::Sigmoid => x.unary(UnOp::Sigmoid),
        UnaryKind::Exp => x.unary(UnOp::Exp),
        UnaryKind::Sqrt => x.unary(UnOp::Sqrt),
        UnaryKind::Neg => -x,
    }
}

/// Loads input `k` broadcast to `out_shape` at `axes`.
fn broadcast_load(k: usize, in_shape: &[i64], out_shape: &[i64], axes: &[Expr]) -> Expr {
    let offset = out_shape.len() - in_shape.len();
    let idx: Vec<Expr> = in_shape
        .iter()
        .enumerate()
        .map(|(d, &extent)| {
            if extent == 1 {
                Expr::Int(0)
            } else {
                axes[offset + d].clone()
            }
        })
        .collect();
    load(&input_buffer(k, in_shape), idx)
}

/// Row-major linearization as an expression.
pub fn linearize_expr(indices: &[Expr], shape: &[i64]) -> Expr {
    let mut acc = Expr::Int(0);
    for (i, &d) in indices.iter().zip(shape) {
        acc = acc * d + i.clone();
    }
    hidet_ir::passes::simplify_expr(acc)
}

/// Row-major delinearization as expressions.
pub fn delinearize_expr(flat: Expr, shape: &[i64]) -> Vec<Expr> {
    let n = shape.len();
    let mut strides = vec![1i64; n];
    for i in (0..n.saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * shape[i + 1];
    }
    (0..n)
        .map(|i| {
            let q = if strides[i] == 1 {
                flat.clone()
            } else {
                flat.clone() / strides[i]
            };
            let e = if i == 0 { q } else { q % shape[i] };
            hidet_ir::passes::simplify_expr(e)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::BinaryKind;

    #[test]
    fn relu_definition() {
        let def = compute_def(&OpKind::Unary(UnaryKind::Relu), &[&[4, 4]]).unwrap();
        assert!(def.is_injective());
        assert_eq!(def.out_shape, vec![4, 4]);
        assert!(def.expr.to_string().contains("max"));
    }

    #[test]
    fn element_at_substitutes_axes() {
        let def = compute_def(&OpKind::Unary(UnaryKind::Relu), &[&[4]]).unwrap();
        let e = def.element_at(&[Expr::Int(3)], |_, _| None);
        assert_eq!(e.to_string(), "max(in0[3], 0.0)");
        // A load read through `input` is not rewritten again, even when it
        // mentions a variable named like the definition's own axis.
        let i0 = Var::index("i0").expr();
        let x = Buffer::new("X", MemScope::Global, DType::F32, &[8]);
        let e = def.element_at(&[i0.clone() + 1], |_, idx| {
            Some(load(&x, vec![idx[0].clone() + i0.clone()]))
        });
        assert_eq!(e.to_string(), "max(X[((i0 + 1) + i0)], 0.0)");
    }

    #[test]
    fn broadcast_bias_add() {
        let def = compute_def(&OpKind::Binary(BinaryKind::Add), &[&[128, 768], &[768]]).unwrap();
        let text = def.expr.to_string();
        assert!(text.contains("in0[i0, i1]"), "{text}");
        assert!(text.contains("in1[i1]"), "{text}");
    }

    #[test]
    fn transpose_definition_inverts_perm() {
        let def = compute_def(&OpKind::Transpose { perm: vec![1, 0] }, &[&[3, 5]]).unwrap();
        assert_eq!(def.expr.to_string(), "in0[i1, i0]");
        assert_eq!(def.out_shape, vec![5, 3]);
    }

    #[test]
    fn reshape_definition_roundtrips_indices() {
        let def = compute_def(&OpKind::Reshape { shape: vec![6] }, &[&[2, 3]]).unwrap();
        // out[i0] = in0[i0/3, i0%3]
        assert_eq!(def.expr.to_string(), "in0[(i0 / 3), (i0 % 3)]");
    }

    #[test]
    fn delinearize_simplifies() {
        let flat = Var::index("f").expr();
        let idx = delinearize_expr(flat, &[2, 3, 4]);
        assert_eq!(idx.len(), 3);
        assert_eq!(idx[2].to_string(), "(f % 4)");
    }

    #[test]
    fn matmul_definition_has_sum_reduction() {
        let def = compute_def(&OpKind::Matmul, &[&[8, 16], &[16, 4]]).unwrap();
        let red = def.reduction.as_ref().unwrap();
        assert_eq!(red.op, ReduceOp::Sum);
        assert_eq!(red.axes[0].1, 16);
        assert!(def.expr.to_string().contains("in0[i0, k]"));
    }

    #[test]
    fn img2col_definition_pads_with_zero() {
        let def = compute_def(
            &OpKind::Img2col {
                kernel: 3,
                stride: 1,
                padding: 1,
            },
            &[&[1, 2, 4, 4]],
        )
        .unwrap();
        assert!(def.is_injective());
        let text = def.expr.to_string();
        assert!(text.contains("? in0["), "{text}");
        assert!(text.contains(": 0.0"), "{text}");
    }

    #[test]
    fn concat_definition_selects_by_offset() {
        let def = compute_def(&OpKind::Concat { axis: 0 }, &[&[2], &[3]]).unwrap();
        let text = def.expr.to_string();
        assert!(text.contains("(i0 < 2)"), "{text}");
        assert!(text.contains("in1["), "{text}");
    }

    #[test]
    fn anchors_without_defs() {
        assert!(compute_def(&OpKind::Softmax { axis: 1 }, &[&[4, 4]]).is_none());
        assert!(compute_def(&OpKind::GlobalAvgPool, &[&[1, 8, 4, 4]]).is_none());
    }

    #[test]
    fn parse_input_names() {
        assert_eq!(parse_input_name("in0"), Some(0));
        assert_eq!(parse_input_name("in12"), Some(12));
        assert_eq!(parse_input_name("X"), None);
    }
}
