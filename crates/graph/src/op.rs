//! Operators: kinds, shape inference and fusion classification.

use std::fmt;

use crate::graph::TensorId;

/// Elementwise unary functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryKind {
    /// `max(x, 0)`
    Relu,
    /// `min(max(x, 0), 6)` (MobileNet-V2)
    Relu6,
    /// Gaussian error linear unit (Bert/GPT-2)
    Gelu,
    /// `tanh(x)`
    Tanh,
    /// `1 / (1 + exp(-x))`
    Sigmoid,
    /// `exp(x)`
    Exp,
    /// `sqrt(x)`
    Sqrt,
    /// `-x`
    Neg,
}

/// Elementwise binary functions with numpy-style broadcasting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryKind {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
    /// `a / b`
    Div,
}

/// Operator kinds. Parameters that change output shapes live here.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// 2-D convolution, NCHW input, OIHW weight.
    Conv2d {
        /// Stride (same in both spatial dims).
        stride: i64,
        /// Zero padding (same in both spatial dims).
        padding: i64,
        /// Groups (`C` for depthwise).
        groups: i64,
    },
    /// `[M, K] × [K, N] → [M, N]`.
    Matmul,
    /// `[B, M, K] × [B, K, N] → [B, M, N]`.
    BatchMatmul,
    /// Elementwise unary.
    Unary(UnaryKind),
    /// Elementwise binary with broadcasting.
    Binary(BinaryKind),
    /// Inference batch-norm: `x * scale[c] + shift[c]` over NCHW channels.
    /// Inputs: `x, scale, shift`.
    BatchNorm,
    /// Softmax over `axis`.
    Softmax {
        /// Normalized axis.
        axis: usize,
    },
    /// Layer normalization over the last axis. Inputs: `x, gamma, beta`.
    LayerNorm,
    /// Max pooling, NCHW.
    MaxPool {
        /// Window size.
        kernel: i64,
        /// Stride.
        stride: i64,
        /// Zero padding.
        padding: i64,
    },
    /// Average pooling, NCHW.
    AvgPool {
        /// Window size.
        kernel: i64,
        /// Stride.
        stride: i64,
        /// Zero padding.
        padding: i64,
    },
    /// Global average pooling: `[N, C, H, W] → [N, C]`.
    GlobalAvgPool,
    /// Shape change without data movement semantics.
    Reshape {
        /// Target shape (same volume).
        shape: Vec<i64>,
    },
    /// Axis permutation.
    Transpose {
        /// `perm[i]` is the input axis placed at output axis `i`.
        perm: Vec<usize>,
    },
    /// Implicit-GEMM unfolding: `[N, C, H, W] → [N·OH·OW, C·KH·KW]`
    /// (paper §5.2/§6.3.4, the img2col algorithm).
    Img2col {
        /// Window size.
        kernel: i64,
        /// Stride.
        stride: i64,
        /// Zero padding.
        padding: i64,
    },
    /// Concatenation along `axis`.
    Concat {
        /// Concatenated axis.
        axis: usize,
    },
}

/// Fusion classification (paper §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuseClass {
    /// No reduction, but an input element may feed several outputs
    /// (e.g. img2col, broadcasting). Prologue-eligible only.
    Injective,
    /// Injective *and* each input element feeds exactly one output element
    /// (elementwise, reshape, transpose). Prologue- and epilogue-eligible.
    Bijective,
    /// Contains a reduction; must be an anchor operator.
    Reduce,
}

impl OpKind {
    /// Output shape given input shapes.
    ///
    /// # Panics
    /// Panics on rank/shape mismatches — graph construction is the validation
    /// boundary.
    pub fn infer_shape(&self, inputs: &[&[i64]]) -> Vec<i64> {
        match self {
            OpKind::Conv2d {
                stride,
                padding,
                groups,
            } => {
                let (x, w) = (inputs[0], inputs[1]);
                assert_eq!(x.len(), 4, "conv2d input must be NCHW, got {x:?}");
                assert_eq!(w.len(), 4, "conv2d weight must be OIHW, got {w:?}");
                let (n, c, h, wd) = (x[0], x[1], x[2], x[3]);
                let (o, ci, kh, kw) = (w[0], w[1], w[2], w[3]);
                assert_eq!(
                    c,
                    ci * groups,
                    "conv2d channel mismatch: {c} vs {ci}*{groups}"
                );
                assert_eq!(o % groups, 0, "output channels must divide groups");
                let oh = (h + 2 * padding - kh) / stride + 1;
                let ow = (wd + 2 * padding - kw) / stride + 1;
                assert!(oh > 0 && ow > 0, "conv output collapsed: {oh}x{ow}");
                vec![n, o, oh, ow]
            }
            OpKind::Matmul => {
                let (a, b) = (inputs[0], inputs[1]);
                assert_eq!(a.len(), 2, "matmul lhs must be 2-D, got {a:?}");
                assert_eq!(b.len(), 2, "matmul rhs must be 2-D, got {b:?}");
                assert_eq!(a[1], b[0], "matmul K mismatch: {a:?} x {b:?}");
                vec![a[0], b[1]]
            }
            OpKind::BatchMatmul => {
                let (a, b) = (inputs[0], inputs[1]);
                assert_eq!(a.len(), 3, "batch matmul lhs must be 3-D, got {a:?}");
                assert_eq!(b.len(), 3, "batch matmul rhs must be 3-D, got {b:?}");
                assert_eq!(a[0], b[0], "batch mismatch: {a:?} x {b:?}");
                assert_eq!(a[2], b[1], "K mismatch: {a:?} x {b:?}");
                vec![a[0], a[1], b[2]]
            }
            OpKind::Unary(_) => inputs[0].to_vec(),
            OpKind::Binary(_) => broadcast_shape(inputs[0], inputs[1]),
            OpKind::BatchNorm => {
                let x = inputs[0];
                assert_eq!(x.len(), 4, "batchnorm input must be NCHW");
                assert_eq!(inputs[1], &[x[1]], "scale must be [C]");
                assert_eq!(inputs[2], &[x[1]], "shift must be [C]");
                x.to_vec()
            }
            OpKind::Softmax { axis } => {
                assert!(*axis < inputs[0].len(), "softmax axis out of range");
                inputs[0].to_vec()
            }
            OpKind::LayerNorm => {
                let x = inputs[0];
                let last = *x.last().expect("layernorm input must have rank >= 1");
                assert_eq!(inputs[1], &[last], "gamma must match last axis");
                assert_eq!(inputs[2], &[last], "beta must match last axis");
                x.to_vec()
            }
            OpKind::MaxPool {
                kernel,
                stride,
                padding,
            }
            | OpKind::AvgPool {
                kernel,
                stride,
                padding,
            } => {
                let x = inputs[0];
                assert_eq!(x.len(), 4, "pooling input must be NCHW");
                let oh = (x[2] + 2 * padding - kernel) / stride + 1;
                let ow = (x[3] + 2 * padding - kernel) / stride + 1;
                vec![x[0], x[1], oh, ow]
            }
            OpKind::GlobalAvgPool => {
                let x = inputs[0];
                assert_eq!(x.len(), 4, "global pooling input must be NCHW");
                vec![x[0], x[1]]
            }
            OpKind::Reshape { shape } => {
                let vol_in: i64 = inputs[0].iter().product();
                let vol_out: i64 = shape.iter().product();
                assert_eq!(
                    vol_in, vol_out,
                    "reshape volume mismatch: {:?} -> {shape:?}",
                    inputs[0]
                );
                shape.clone()
            }
            OpKind::Transpose { perm } => {
                let x = inputs[0];
                assert_eq!(perm.len(), x.len(), "perm rank mismatch");
                let mut seen = vec![false; perm.len()];
                for &p in perm {
                    assert!(p < x.len() && !seen[p], "invalid permutation {perm:?}");
                    seen[p] = true;
                }
                perm.iter().map(|&p| x[p]).collect()
            }
            OpKind::Img2col {
                kernel,
                stride,
                padding,
            } => {
                let x = inputs[0];
                assert_eq!(x.len(), 4, "img2col input must be NCHW");
                let oh = (x[2] + 2 * padding - kernel) / stride + 1;
                let ow = (x[3] + 2 * padding - kernel) / stride + 1;
                vec![x[0] * oh * ow, x[1] * kernel * kernel]
            }
            OpKind::Concat { axis } => {
                let first = inputs[0];
                let mut out = first.to_vec();
                for s in &inputs[1..] {
                    assert_eq!(s.len(), first.len(), "concat rank mismatch");
                    for (d, (&a, &b)) in first.iter().zip(s.iter()).enumerate() {
                        if d == *axis {
                            out[d] += b;
                        } else {
                            assert_eq!(a, b, "concat non-axis dims must match");
                        }
                    }
                }
                out
            }
        }
    }

    /// Fusion class (paper §4.2). See [`FuseClass`].
    pub fn fuse_class(&self) -> FuseClass {
        match self {
            OpKind::Unary(_)
            | OpKind::BatchNorm
            | OpKind::Reshape { .. }
            | OpKind::Transpose { .. } => FuseClass::Bijective,
            // Binary is bijective in its full-shape operand; the fusion pass
            // checks per-input eligibility, so classify by the weaker bound.
            OpKind::Binary(_) | OpKind::Img2col { .. } | OpKind::Concat { .. } => {
                FuseClass::Injective
            }
            OpKind::Conv2d { .. }
            | OpKind::Matmul
            | OpKind::BatchMatmul
            | OpKind::Softmax { .. }
            | OpKind::LayerNorm
            | OpKind::MaxPool { .. }
            | OpKind::AvgPool { .. }
            | OpKind::GlobalAvgPool => FuseClass::Reduce,
        }
    }

    /// True if this operator must anchor a fused sub-graph.
    pub fn is_anchor(&self) -> bool {
        self.fuse_class() == FuseClass::Reduce
    }

    /// True if this operator may be fused *after* an anchor as an epilogue,
    /// consuming the anchor's output through input `input_idx`, given the
    /// input/output shapes. Requires bijectivity in that operand: every
    /// element flowing in lands in exactly one output element.
    pub fn epilogue_eligible(
        &self,
        input_idx: usize,
        input_shape: &[i64],
        out_shape: &[i64],
    ) -> bool {
        match self {
            OpKind::Unary(_) | OpKind::Reshape { .. } | OpKind::Transpose { .. } => true,
            OpKind::BatchNorm => input_idx == 0,
            // A binary op is bijective in an operand iff that operand already
            // has the full output shape (no broadcast duplication).
            OpKind::Binary(_) => input_shape == out_shape,
            _ => false,
        }
    }

    /// True if this operator may be fused *before* an anchor as a prologue
    /// feeding the anchor's input (paper: injective).
    pub fn prologue_eligible(&self) -> bool {
        self.fuse_class() != FuseClass::Reduce
    }

    /// A short lowercase mnemonic, used for generated names.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            OpKind::Conv2d { .. } => "conv2d",
            OpKind::Matmul => "matmul",
            OpKind::BatchMatmul => "batch_matmul",
            OpKind::Unary(UnaryKind::Relu) => "relu",
            OpKind::Unary(UnaryKind::Relu6) => "relu6",
            OpKind::Unary(UnaryKind::Gelu) => "gelu",
            OpKind::Unary(UnaryKind::Tanh) => "tanh",
            OpKind::Unary(UnaryKind::Sigmoid) => "sigmoid",
            OpKind::Unary(UnaryKind::Exp) => "exp",
            OpKind::Unary(UnaryKind::Sqrt) => "sqrt",
            OpKind::Unary(UnaryKind::Neg) => "neg",
            OpKind::Binary(BinaryKind::Add) => "add",
            OpKind::Binary(BinaryKind::Sub) => "sub",
            OpKind::Binary(BinaryKind::Mul) => "mul",
            OpKind::Binary(BinaryKind::Div) => "div",
            OpKind::BatchNorm => "batch_norm",
            OpKind::Softmax { .. } => "softmax",
            OpKind::LayerNorm => "layer_norm",
            OpKind::MaxPool { .. } => "max_pool",
            OpKind::AvgPool { .. } => "avg_pool",
            OpKind::GlobalAvgPool => "global_avg_pool",
            OpKind::Reshape { .. } => "reshape",
            OpKind::Transpose { .. } => "transpose",
            OpKind::Img2col { .. } => "img2col",
            OpKind::Concat { .. } => "concat",
        }
    }
}

/// Numpy-style broadcast of two shapes (aligned from the right).
///
/// # Panics
/// Panics if the shapes are incompatible.
pub fn broadcast_shape(a: &[i64], b: &[i64]) -> Vec<i64> {
    let rank = a.len().max(b.len());
    let mut out = Vec::with_capacity(rank);
    for i in 0..rank {
        let da = if i < rank - a.len() {
            1
        } else {
            a[i - (rank - a.len())]
        };
        let db = if i < rank - b.len() {
            1
        } else {
            b[i - (rank - b.len())]
        };
        if da == db || db == 1 {
            out.push(da);
        } else if da == 1 {
            out.push(db);
        } else {
            panic!("cannot broadcast shapes {a:?} and {b:?}");
        }
    }
    out
}

/// A node in the computation DAG: an operator instance with its tensors.
#[derive(Debug, Clone, PartialEq)]
pub struct Operator {
    /// Unique name within the graph (`mnemonic_<index>`).
    pub name: String,
    /// What the operator computes.
    pub kind: OpKind,
    /// Input tensors, in positional order.
    pub inputs: Vec<TensorId>,
    /// The single output tensor.
    pub output: TensorId,
}

impl fmt::Display for Operator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, t) in self.inputs.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "t{}", t.0)?;
        }
        write!(f, ") -> t{}", self.output.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_shape_inference() {
        let k = OpKind::Conv2d {
            stride: 2,
            padding: 1,
            groups: 1,
        };
        assert_eq!(
            k.infer_shape(&[&[1, 256, 28, 28], &[512, 256, 3, 3]]),
            vec![1, 512, 14, 14]
        );
    }

    #[test]
    fn depthwise_conv_shape() {
        let k = OpKind::Conv2d {
            stride: 1,
            padding: 1,
            groups: 32,
        };
        assert_eq!(
            k.infer_shape(&[&[1, 32, 14, 14], &[32, 1, 3, 3]]),
            vec![1, 32, 14, 14]
        );
    }

    #[test]
    fn matmul_and_batch_matmul() {
        assert_eq!(
            OpKind::Matmul.infer_shape(&[&[128, 768], &[768, 768]]),
            vec![128, 768]
        );
        assert_eq!(
            OpKind::BatchMatmul.infer_shape(&[&[12, 128, 64], &[12, 64, 128]]),
            vec![12, 128, 128]
        );
    }

    #[test]
    #[should_panic(expected = "K mismatch")]
    fn matmul_k_mismatch_panics() {
        let _ = OpKind::Matmul.infer_shape(&[&[4, 5], &[6, 7]]);
    }

    #[test]
    fn broadcasting() {
        assert_eq!(broadcast_shape(&[2, 3, 4], &[4]), vec![2, 3, 4]);
        assert_eq!(broadcast_shape(&[1, 4], &[3, 1]), vec![3, 4]);
        assert_eq!(broadcast_shape(&[5], &[5]), vec![5]);
    }

    #[test]
    #[should_panic(expected = "cannot broadcast")]
    fn bad_broadcast_panics() {
        let _ = broadcast_shape(&[2, 3], &[4]);
    }

    #[test]
    fn img2col_shape() {
        let k = OpKind::Img2col {
            kernel: 3,
            stride: 2,
            padding: 1,
        };
        // 28x28, k3 s2 p1 -> 14x14 windows.
        assert_eq!(k.infer_shape(&[&[1, 256, 28, 28]]), vec![196, 2304]);
    }

    #[test]
    fn pooling_shapes() {
        let k = OpKind::MaxPool {
            kernel: 3,
            stride: 2,
            padding: 1,
        };
        assert_eq!(k.infer_shape(&[&[1, 64, 112, 112]]), vec![1, 64, 56, 56]);
        assert_eq!(
            OpKind::GlobalAvgPool.infer_shape(&[&[1, 2048, 7, 7]]),
            vec![1, 2048]
        );
    }

    #[test]
    fn transpose_and_reshape() {
        let t = OpKind::Transpose {
            perm: vec![0, 2, 1],
        };
        assert_eq!(t.infer_shape(&[&[2, 3, 4]]), vec![2, 4, 3]);
        let r = OpKind::Reshape { shape: vec![6, 4] };
        assert_eq!(r.infer_shape(&[&[2, 3, 4]]), vec![6, 4]);
    }

    #[test]
    fn concat_shapes() {
        let k = OpKind::Concat { axis: 1 };
        assert_eq!(
            k.infer_shape(&[&[1, 64, 28, 28], &[1, 96, 28, 28], &[1, 32, 28, 28]]),
            vec![1, 192, 28, 28]
        );
    }

    #[test]
    fn fusion_classes_match_paper() {
        assert_eq!(
            OpKind::Unary(UnaryKind::Relu).fuse_class(),
            FuseClass::Bijective
        );
        assert_eq!(
            OpKind::Reshape { shape: vec![1] }.fuse_class(),
            FuseClass::Bijective
        );
        assert_eq!(
            OpKind::Img2col {
                kernel: 3,
                stride: 1,
                padding: 1
            }
            .fuse_class(),
            FuseClass::Injective
        );
        assert_eq!(OpKind::Matmul.fuse_class(), FuseClass::Reduce);
        assert!(OpKind::Matmul.is_anchor());
        assert!(!OpKind::Unary(UnaryKind::Relu).is_anchor());
    }

    #[test]
    fn binary_epilogue_requires_full_shape() {
        let add = OpKind::Binary(BinaryKind::Add);
        assert!(add.epilogue_eligible(0, &[128, 768], &[128, 768]));
        assert!(!add.epilogue_eligible(1, &[768], &[128, 768]));
    }
}
