//! The computation graph: a DAG of operators over tensors, plus its builder.

use std::collections::HashMap;
use std::fmt;

use hidet_ir::DType;

use crate::op::{BinaryKind, OpKind, Operator, UnaryKind};
use crate::tensor::Tensor;

/// Index of a tensor within a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TensorId(pub usize);

/// Index of an operator within a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub usize);

/// A computation graph (paper Fig. 10, "Computation Graph").
///
/// Operators are stored in topological order by construction (every operator's
/// inputs are created before it).
#[derive(Debug, Clone, Default)]
pub struct Graph {
    tensors: Vec<Tensor>,
    ops: Vec<Operator>,
    inputs: Vec<TensorId>,
    outputs: Vec<TensorId>,
    name: String,
}

impl Graph {
    /// The graph's tensors.
    pub fn tensor(&self, id: TensorId) -> &Tensor {
        &self.tensors[id.0]
    }

    /// Number of tensors.
    pub fn num_tensors(&self) -> usize {
        self.tensors.len()
    }

    /// The graph's operators, in topological order.
    pub fn ops(&self) -> &[Operator] {
        &self.ops
    }

    /// One operator.
    pub fn op(&self, id: OpId) -> &Operator {
        &self.ops[id.0]
    }

    /// The shapes of `op`'s inputs, in operand order.
    pub fn input_shapes(&self, op: &Operator) -> Vec<&[i64]> {
        op.inputs.iter().map(|&t| self.tensor(t).shape()).collect()
    }

    /// Graph input tensors (activations supplied at run time).
    pub fn inputs(&self) -> &[TensorId] {
        &self.inputs
    }

    /// Graph output tensors.
    pub fn outputs(&self) -> &[TensorId] {
        &self.outputs
    }

    /// Model name (e.g. `"resnet50"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The operator producing `tensor`, if any (inputs/constants have none).
    pub fn producer(&self, tensor: TensorId) -> Option<OpId> {
        self.ops.iter().position(|op| op.output == tensor).map(OpId)
    }

    /// All operators consuming `tensor`.
    pub fn consumers(&self, tensor: TensorId) -> Vec<OpId> {
        self.ops
            .iter()
            .enumerate()
            .filter(|(_, op)| op.inputs.contains(&tensor))
            .map(|(i, _)| OpId(i))
            .collect()
    }

    /// Total floating-point operations of the graph (2·M·N·K per matmul, etc.),
    /// used in reports.
    pub fn total_flops(&self) -> f64 {
        self.ops.iter().map(|op| op_flops(self, op)).sum()
    }

    /// Replaces the graph's operators/tensors wholesale — used by graph passes.
    /// The caller must preserve topological ordering.
    pub(crate) fn replace(
        &mut self,
        tensors: Vec<Tensor>,
        ops: Vec<Operator>,
        inputs: Vec<TensorId>,
        outputs: Vec<TensorId>,
    ) {
        self.tensors = tensors;
        self.ops = ops;
        self.inputs = inputs;
        self.outputs = outputs;
    }

    pub(crate) fn parts(&self) -> (&[Tensor], &[Operator]) {
        (&self.tensors, &self.ops)
    }

    /// Assembles a graph from raw parts **without any validation** — unlike
    /// [`GraphBuilder`], nothing checks ids, shapes or topological order.
    ///
    /// This is an escape hatch for verifier tooling (`hidet-analysis`
    /// constructs deliberately ill-formed graphs to prove its rules fire);
    /// regular construction must go through [`GraphBuilder`].
    #[doc(hidden)]
    pub fn from_raw_parts(
        name: String,
        tensors: Vec<Tensor>,
        ops: Vec<Operator>,
        inputs: Vec<TensorId>,
        outputs: Vec<TensorId>,
    ) -> Graph {
        Graph {
            tensors,
            ops,
            inputs,
            outputs,
            name,
        }
    }

    /// Decomposes the graph into its raw parts (name, tensors, operators,
    /// inputs, outputs) — the inverse of [`Graph::from_raw_parts`], with the
    /// same caveat: only verifier tooling should need this.
    #[doc(hidden)]
    #[allow(clippy::type_complexity)]
    pub fn into_raw_parts(
        self,
    ) -> (
        String,
        Vec<Tensor>,
        Vec<Operator>,
        Vec<TensorId>,
        Vec<TensorId>,
    ) {
        (self.name, self.tensors, self.ops, self.inputs, self.outputs)
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "graph {} ({} ops, {} tensors, {:.2} GFLOPs)",
            self.name,
            self.ops.len(),
            self.tensors.len(),
            self.total_flops() / 1e9
        )?;
        for op in &self.ops {
            writeln!(f, "  {op}")?;
        }
        Ok(())
    }
}

/// Approximate FLOPs of one operator.
pub fn op_flops(graph: &Graph, op: &Operator) -> f64 {
    let out = graph.tensor(op.output).numel() as f64;
    match &op.kind {
        OpKind::Conv2d { groups, .. } => {
            let w = graph.tensor(op.inputs[1]).shape();
            let per_out = (w[1] * w[2] * w[3]) as f64; // C/groups * KH * KW
            let _ = groups;
            2.0 * out * per_out
        }
        OpKind::Matmul => {
            let k = graph.tensor(op.inputs[0]).shape()[1] as f64;
            2.0 * out * k
        }
        OpKind::BatchMatmul => {
            let k = graph.tensor(op.inputs[0]).shape()[2] as f64;
            2.0 * out * k
        }
        OpKind::MaxPool { kernel, .. } | OpKind::AvgPool { kernel, .. } => {
            out * (kernel * kernel) as f64
        }
        OpKind::GlobalAvgPool => graph.tensor(op.inputs[0]).numel() as f64,
        OpKind::Softmax { .. } | OpKind::LayerNorm => 5.0 * out,
        OpKind::Reshape { .. } | OpKind::Transpose { .. } | OpKind::Img2col { .. } => 0.0,
        _ => out,
    }
}

/// Fluent construction of [`Graph`]s.
///
/// ```
/// use hidet_graph::{GraphBuilder, Tensor};
///
/// let mut g = GraphBuilder::new("toy");
/// let x = g.input("x", &[1, 64]);
/// let w = g.constant(Tensor::randn(&[64, 10], 0));
/// let y = g.matmul(x, w);
/// let y = g.relu(y);
/// let graph = g.output(y).build();
/// assert_eq!(graph.ops().len(), 2);
/// assert_eq!(graph.tensor(graph.outputs()[0]).shape(), &[1, 10]);
/// ```
#[derive(Debug, Default)]
pub struct GraphBuilder {
    graph: Graph,
    op_counter: HashMap<&'static str, usize>,
    seed_counter: u64,
}

impl GraphBuilder {
    /// Starts a new graph.
    pub fn new(name: &str) -> GraphBuilder {
        GraphBuilder {
            graph: Graph {
                name: name.to_string(),
                ..Graph::default()
            },
            op_counter: HashMap::new(),
            seed_counter: 0,
        }
    }

    /// Declares a runtime input tensor.
    pub fn input(&mut self, _name: &str, shape: &[i64]) -> TensorId {
        let id = self.add_tensor(Tensor::symbolic(shape, DType::F32));
        self.graph.inputs.push(id);
        id
    }

    /// Adds a constant tensor (weights).
    pub fn constant(&mut self, tensor: Tensor) -> TensorId {
        assert!(tensor.is_const(), "constant() requires a tensor with data");
        self.add_tensor(tensor)
    }

    /// Adds a deterministic random weight with an auto-incremented seed.
    pub fn weight(&mut self, shape: &[i64]) -> TensorId {
        self.seed_counter += 1;
        self.constant(Tensor::randn(shape, self.seed_counter))
    }

    /// Marks `t` as a graph output. Returns `self` for chaining.
    pub fn output(&mut self, t: TensorId) -> &mut Self {
        self.graph.outputs.push(t);
        self
    }

    /// Finishes the graph.
    ///
    /// # Panics
    /// Panics if no outputs were declared.
    pub fn build(&mut self) -> Graph {
        assert!(!self.graph.outputs.is_empty(), "graph has no outputs");
        std::mem::take(&mut self.graph)
    }

    /// Applies an arbitrary operator; prefer the named helpers below.
    pub fn apply(&mut self, kind: OpKind, inputs: &[TensorId]) -> TensorId {
        let shapes: Vec<&[i64]> = inputs
            .iter()
            .map(|&t| self.graph.tensor(t).shape())
            .collect();
        let out_shape = kind.infer_shape(&shapes);
        let out = self.add_tensor(Tensor::symbolic(&out_shape, DType::F32));
        let n = self.op_counter.entry(kind.mnemonic()).or_insert(0);
        let name = format!("{}_{}", kind.mnemonic(), n);
        *n += 1;
        self.graph.ops.push(Operator {
            name,
            kind,
            inputs: inputs.to_vec(),
            output: out,
        });
        out
    }

    // --- named operator helpers ------------------------------------------

    /// 2-D convolution.
    pub fn conv2d(&mut self, x: TensorId, w: TensorId, stride: i64, padding: i64) -> TensorId {
        self.apply(
            OpKind::Conv2d {
                stride,
                padding,
                groups: 1,
            },
            &[x, w],
        )
    }

    /// Depthwise 2-D convolution (`groups == channels`).
    pub fn depthwise_conv2d(
        &mut self,
        x: TensorId,
        w: TensorId,
        stride: i64,
        padding: i64,
    ) -> TensorId {
        let groups = self.graph.tensor(x).shape()[1];
        self.apply(
            OpKind::Conv2d {
                stride,
                padding,
                groups,
            },
            &[x, w],
        )
    }

    /// Matrix multiplication.
    pub fn matmul(&mut self, a: TensorId, b: TensorId) -> TensorId {
        self.apply(OpKind::Matmul, &[a, b])
    }

    /// Batched matrix multiplication.
    pub fn batch_matmul(&mut self, a: TensorId, b: TensorId) -> TensorId {
        self.apply(OpKind::BatchMatmul, &[a, b])
    }

    /// ReLU.
    pub fn relu(&mut self, x: TensorId) -> TensorId {
        self.apply(OpKind::Unary(UnaryKind::Relu), &[x])
    }

    /// ReLU6.
    pub fn relu6(&mut self, x: TensorId) -> TensorId {
        self.apply(OpKind::Unary(UnaryKind::Relu6), &[x])
    }

    /// GELU.
    pub fn gelu(&mut self, x: TensorId) -> TensorId {
        self.apply(OpKind::Unary(UnaryKind::Gelu), &[x])
    }

    /// Elementwise tanh.
    pub fn tanh(&mut self, x: TensorId) -> TensorId {
        self.apply(OpKind::Unary(UnaryKind::Tanh), &[x])
    }

    /// Elementwise addition (broadcasting).
    pub fn add(&mut self, a: TensorId, b: TensorId) -> TensorId {
        self.apply(OpKind::Binary(BinaryKind::Add), &[a, b])
    }

    /// Elementwise subtraction (broadcasting).
    pub fn sub(&mut self, a: TensorId, b: TensorId) -> TensorId {
        self.apply(OpKind::Binary(BinaryKind::Sub), &[a, b])
    }

    /// Elementwise multiplication (broadcasting).
    pub fn mul(&mut self, a: TensorId, b: TensorId) -> TensorId {
        self.apply(OpKind::Binary(BinaryKind::Mul), &[a, b])
    }

    /// Elementwise division (broadcasting).
    pub fn div(&mut self, a: TensorId, b: TensorId) -> TensorId {
        self.apply(OpKind::Binary(BinaryKind::Div), &[a, b])
    }

    /// Inference batch-norm with fresh per-channel scale/shift weights.
    pub fn batch_norm(&mut self, x: TensorId) -> TensorId {
        let c = self.graph.tensor(x).shape()[1];
        let scale = self.weight(&[c]);
        let shift = self.weight(&[c]);
        self.apply(OpKind::BatchNorm, &[x, scale, shift])
    }

    /// Softmax over `axis`.
    pub fn softmax(&mut self, x: TensorId, axis: usize) -> TensorId {
        self.apply(OpKind::Softmax { axis }, &[x])
    }

    /// LayerNorm over the last axis with fresh gamma/beta.
    pub fn layer_norm(&mut self, x: TensorId) -> TensorId {
        let last = *self.graph.tensor(x).shape().last().expect("rank >= 1");
        let gamma = self.constant(Tensor::full(&[last], 1.0));
        let beta = self.constant(Tensor::zeros(&[last]));
        self.apply(OpKind::LayerNorm, &[x, gamma, beta])
    }

    /// Max pooling.
    pub fn max_pool(&mut self, x: TensorId, kernel: i64, stride: i64, padding: i64) -> TensorId {
        self.apply(
            OpKind::MaxPool {
                kernel,
                stride,
                padding,
            },
            &[x],
        )
    }

    /// Average pooling.
    pub fn avg_pool(&mut self, x: TensorId, kernel: i64, stride: i64, padding: i64) -> TensorId {
        self.apply(
            OpKind::AvgPool {
                kernel,
                stride,
                padding,
            },
            &[x],
        )
    }

    /// Global average pooling to `[N, C]`.
    pub fn global_avg_pool(&mut self, x: TensorId) -> TensorId {
        self.apply(OpKind::GlobalAvgPool, &[x])
    }

    /// Reshape.
    pub fn reshape(&mut self, x: TensorId, shape: &[i64]) -> TensorId {
        self.apply(
            OpKind::Reshape {
                shape: shape.to_vec(),
            },
            &[x],
        )
    }

    /// Transpose.
    pub fn transpose(&mut self, x: TensorId, perm: &[usize]) -> TensorId {
        self.apply(
            OpKind::Transpose {
                perm: perm.to_vec(),
            },
            &[x],
        )
    }

    /// Concatenation.
    pub fn concat(&mut self, xs: &[TensorId], axis: usize) -> TensorId {
        self.apply(OpKind::Concat { axis }, xs)
    }

    /// Fully connected layer: `x · w + b` with fresh weights.
    pub fn linear(&mut self, x: TensorId, out_features: i64) -> TensorId {
        let in_features = *self.graph.tensor(x).shape().last().expect("rank >= 1");
        let w = self.weight(&[in_features, out_features]);
        let b = self.weight(&[out_features]);
        let y = self.matmul(x, w);
        self.add(y, b)
    }

    /// Conv2d + BatchNorm + ReLU, the canonical CNN block (paper Fig. 6).
    pub fn conv_bn_relu(
        &mut self,
        x: TensorId,
        out_channels: i64,
        kernel: i64,
        stride: i64,
        padding: i64,
    ) -> TensorId {
        let in_channels = self.graph.tensor(x).shape()[1];
        let w = self.weight(&[out_channels, in_channels, kernel, kernel]);
        let y = self.conv2d(x, w, stride, padding);
        let y = self.batch_norm(y);
        self.relu(y)
    }

    /// Read access to the graph under construction.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Shape of a tensor under construction.
    pub fn shape(&self, t: TensorId) -> &[i64] {
        self.graph.tensor(t).shape()
    }

    fn add_tensor(&mut self, t: Tensor) -> TensorId {
        self.graph.tensors.push(t);
        TensorId(self.graph.tensors.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_constructs_topological_dag() {
        let mut g = GraphBuilder::new("t");
        let x = g.input("x", &[1, 3, 8, 8]);
        let y = g.conv_bn_relu(x, 16, 3, 1, 1);
        let graph = g.output(y).build();
        assert_eq!(graph.ops().len(), 3); // conv, bn, relu
        assert_eq!(graph.tensor(graph.outputs()[0]).shape(), &[1, 16, 8, 8]);
        // Topological: every op's inputs precede it.
        for (i, op) in graph.ops().iter().enumerate() {
            for input in &op.inputs {
                if let Some(p) = graph.producer(*input) {
                    assert!(p.0 < i);
                }
            }
        }
    }

    #[test]
    fn producer_and_consumers() {
        let mut g = GraphBuilder::new("t");
        let x = g.input("x", &[4, 4]);
        let a = g.relu(x);
        let b = g.tanh(a);
        let c2 = g.gelu(a);
        let out = g.add(b, c2);
        let graph = g.output(out).build();
        let relu_op = graph.producer(a).unwrap();
        assert_eq!(graph.op(relu_op).name, "relu_0");
        assert_eq!(graph.consumers(a).len(), 2);
        assert!(graph.producer(x).is_none());
    }

    #[test]
    fn names_are_unique_per_mnemonic() {
        let mut g = GraphBuilder::new("t");
        let x = g.input("x", &[4]);
        let a = g.relu(x);
        let b = g.relu(a);
        let graph = g.output(b).build();
        assert_eq!(graph.op(OpId(0)).name, "relu_0");
        assert_eq!(graph.op(OpId(1)).name, "relu_1");
    }

    #[test]
    fn flops_accounting() {
        let mut g = GraphBuilder::new("t");
        let x = g.input("x", &[128, 128]);
        let w = g.weight(&[128, 128]);
        let y = g.matmul(x, w);
        let graph = g.output(y).build();
        assert_eq!(graph.total_flops(), 2.0 * 128.0 * 128.0 * 128.0);
    }

    #[test]
    #[should_panic(expected = "no outputs")]
    fn build_without_outputs_panics() {
        let mut g = GraphBuilder::new("t");
        g.input("x", &[1]);
        let _ = g.build();
    }
}
