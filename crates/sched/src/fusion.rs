//! Post-scheduling fusion (paper §4.2, §5.2, Fig. 15) and the fused-group
//! compiler.
//!
//! Fusion happens *after* the anchor operator is scheduled, and is derived
//! from the fused operators' compute definitions: a prologue's definition is
//! inlined into the scheduled kernel's **input loads** (each access `in[i]`
//! is replaced by the prologue's computation of element `i`), and an
//! epilogue's into its **output stores** — a value epilogue's definition is
//! evaluated at the store's destination with the anchor's value in place of
//! its running operand, and a reshape or transpose remaps the destination
//! index through its bijection — exactly the `reverse` example of paper
//! Fig. 15.
//!
//! [`compile_group`] drives the whole step 3–4 of Fig. 10 for one fused
//! sub-graph: pick the anchor's template, build the fused IO closures, and
//! emit kernels. [`GroupKey`] is what that reads of a group; two groups with
//! equal keys — a repeated transformer layer or bottleneck — compile to the
//! same kernels up to names, and [`CompiledGroup::renamed_for`] makes one's
//! from the other's, sharing its kernel definitions.

use hidet_graph::compute::{compute_def, delinearize_expr, linearize_expr};
use hidet_graph::passes::FusedGroup;
use hidet_graph::{Graph, OpId, OpKind, TensorId};
use hidet_ir::prelude::*;

use crate::rule_based::{
    depthwise_conv_kernel, elementwise_kernel, pool_kernel, ElementwiseJob, WindowIo, WindowReduce,
};
use crate::space::{MatmulConfig, ReduceConfig};
use crate::templates::matmul::{
    matmul_kernel, partial_buffer_name, splitk_reduce_name, MatmulIo, Sink, Source,
};
use crate::templates::reduce::{reduce_kernel, ReduceIo, RowReduceKind};
use crate::templates::{anchor_problem, AnchorProblem};

/// Per-group schedule choices (filled in by the tuner).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroupSchedule {
    /// Matmul template configuration.
    pub matmul: MatmulConfig,
    /// Reduce template configuration.
    pub reduce: ReduceConfig,
}

impl Default for GroupSchedule {
    fn default() -> GroupSchedule {
        GroupSchedule {
            matmul: MatmulConfig::default(),
            reduce: ReduceConfig {
                threads_per_row: 1,
                block_threads: 256,
            },
        }
    }
}

/// A compiled fused sub-graph: one or two kernels plus its memory interface.
#[derive(Debug, Clone)]
pub struct CompiledGroup {
    /// Kernels to launch, in order.
    pub kernels: Vec<Kernel>,
    /// External input tensors (device buffers named by
    /// [`tensor_buffer_name`]).
    pub inputs: Vec<TensorId>,
    /// Output tensor (device buffer named by [`tensor_buffer_name`]).
    pub output: TensorId,
    /// Scratch buffers to allocate (name, elements) — e.g. split-K partials.
    pub scratch: Vec<(String, usize)>,
}

impl CompiledGroup {
    /// This group — compiled for `from` — as [`compile_group`] compiles `to`,
    /// a group of the same graph with the same [`GroupKey`]: every kernel
    /// and parameter named after `from` takes `to`'s name, by exact name and
    /// position: the tensor buffers of the external inputs and of each op's
    /// output, the kernel name and the split-K names derived from it. Each
    /// kernel shares its definition with this group's ([`Kernel::renamed`]),
    /// so the cost is one buffer per parameter.
    ///
    /// # Panics
    /// Panics if a kernel is named after neither `from` nor its split-K
    /// reduce — it was not compiled for `from`.
    pub fn renamed_for(&self, graph: &Graph, from: &FusedGroup, to: &FusedGroup) -> CompiledGroup {
        let inputs = to.external_inputs(graph);
        let outputs = (from.ops.iter().zip(&to.ops)).map(|(&a, &b)| (graph.op(a), graph.op(b)));
        let tensors = (self.inputs.iter().copied().zip(inputs.iter().copied()))
            .chain(outputs.map(|(a, b)| (a.output, b.output)));
        let mut names: Vec<(String, String)> = tensors
            .map(|(a, b)| (tensor_buffer_name(a), tensor_buffer_name(b)))
            .collect();
        let (old, new) = (kernel_name(graph, from), kernel_name(graph, to));
        names.push((partial_buffer_name(&old), partial_buffer_name(&new)));
        let buffers: Vec<(&str, &str)> = (names.iter())
            .map(|(a, b)| (a.as_str(), b.as_str()))
            .collect();
        let renamed = |name: &str| {
            buffers
                .iter()
                .find(|(a, _)| *a == name)
                .map_or(name, |(_, b)| b)
                .to_string()
        };
        let reduce = (splitk_reduce_name(&old), splitk_reduce_name(&new));
        let kernels = (self.kernels.iter())
            .map(|k| {
                let name = match k.name() {
                    n if n == old => &new,
                    n if n == reduce.0 => &reduce.1,
                    n => panic!("kernel {n} was not compiled for group {old}"),
                };
                k.renamed(name, &buffers)
            })
            .collect();
        CompiledGroup {
            kernels,
            inputs,
            output: to.output(graph),
            scratch: (self.scratch.iter())
                .map(|(name, len)| (renamed(name), *len))
                .collect(),
        }
    }

    /// The first field in which `self` and `other` differ — a kernel's name,
    /// params, shared or local buffers, launch, metadata or body, then the
    /// group's inputs, output or scratch — or `None` when they are equal
    /// field by field.
    pub fn difference(&self, other: &CompiledGroup) -> Option<String> {
        if self.kernels.len() != other.kernels.len() {
            return Some("kernel count".into());
        }
        for (k, (a, b)) in self.kernels.iter().zip(&other.kernels).enumerate() {
            let field = if a.name() != b.name() {
                "name"
            } else if a.params() != b.params() {
                "params"
            } else if a.shared_buffers() != b.shared_buffers() {
                "shared"
            } else if a.local_buffers() != b.local_buffers() {
                "locals"
            } else if a.launch() != b.launch() {
                "launch"
            } else if a.meta() != b.meta() {
                "meta"
            } else if a.body() != b.body() {
                "body"
            } else {
                continue;
            };
            return Some(format!("kernel {k} ({}): {field}", a.name()));
        }
        if self.inputs != other.inputs {
            Some("inputs".into())
        } else if self.output != other.output {
            Some("output".into())
        } else if self.scratch != other.scratch {
            Some("scratch".into())
        } else {
            None
        }
    }
}

/// What kernel generation reads of one fused group under one schedule, and
/// nothing it does not: no tensor id, op name or kernel name. Two groups
/// with equal keys compile to the same kernels up to those names, so a
/// compile generates the first and renames it for the others, which share
/// its kernel definitions ([`CompiledGroup::renamed_for`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GroupKey {
    schedule: GroupSchedule,
    /// The anchor's position in the group.
    anchor: Option<usize>,
    /// Each op in group order.
    ops: Vec<KeyOp>,
}

/// One op of a [`GroupKey`]: what it computes, its output shape and where
/// each operand comes from.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct KeyOp {
    kind: OpKind,
    shape: Vec<i64>,
    operands: Vec<(Operand, Vec<i64>)>,
}

/// Where an operand of a group's op comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Operand {
    /// The output of the group's `j`-th op.
    Op(usize),
    /// The group's `i`-th external input.
    External(usize),
}

impl GroupKey {
    /// The key of `group` of `graph` under `schedule`.
    pub fn of(graph: &Graph, group: &FusedGroup, schedule: &GroupSchedule) -> GroupKey {
        let inputs = group.external_inputs(graph);
        let position = |o: OpId| group.ops.iter().position(|&p| p == o);
        let operand = |t: TensorId| match graph.producer(t).and_then(position) {
            Some(j) => Operand::Op(j),
            None => Operand::External(
                (inputs.iter().position(|&i| i == t)).expect("an operand from outside is an input"),
            ),
        };
        let ops = (group.ops.iter())
            .map(|&o| {
                let op = graph.op(o);
                KeyOp {
                    kind: op.kind.clone(),
                    shape: graph.tensor(op.output).shape().to_vec(),
                    operands: (op.inputs.iter())
                        .map(|&t| (operand(t), graph.tensor(t).shape().to_vec()))
                        .collect(),
                }
            })
            .collect();
        GroupKey {
            schedule: *schedule,
            anchor: group.anchor.and_then(position),
            ops,
        }
    }
}

/// The name of a group's kernel: its anchor's (or first op's) name,
/// `_fused`.
fn kernel_name(graph: &Graph, group: &FusedGroup) -> String {
    let op = group.anchor.unwrap_or(group.ops[0]);
    format!("{}_fused", graph.op(op).name)
}

/// The name of the device buffer standing for graph tensor `t`.
pub fn tensor_buffer_name(t: TensorId) -> String {
    format!("t{}", t.0)
}

/// The device buffer standing for a graph tensor.
pub fn tensor_buffer(graph: &Graph, t: TensorId) -> BufferRef {
    Buffer::new(
        &tensor_buffer_name(t),
        MemScope::Global,
        DType::F32,
        graph.tensor(t).shape(),
    )
}

/// Element `indices` of `op`'s output, from its compute definition, with the
/// load of input `k` at `idx` read as `input(k, idx)`. Nothing `input`
/// returns is rewritten again.
fn inline_definition(
    graph: &Graph,
    op: OpId,
    indices: &[Expr],
    mut input: impl FnMut(usize, &[Expr]) -> Expr,
) -> Expr {
    let op = graph.op(op);
    let shapes: Vec<&[i64]> = op.inputs.iter().map(|t| graph.tensor(*t).shape()).collect();
    compute_def(&op.kind, &shapes)
        .unwrap_or_else(|| panic!("fused op {} has no compute definition", op.name))
        .element_at(indices, |k, idx| Some(input(k, idx)))
}

/// Computes the expression for one element of `tensor` at `indices`,
/// inlining every producer inside the group (prologue fusion) and loading
/// from parameter buffers otherwise.
pub fn resolve_element(
    graph: &Graph,
    group_ops: &[OpId],
    tensor: TensorId,
    indices: &[Expr],
) -> Expr {
    match graph.producer(tensor).filter(|p| group_ops.contains(p)) {
        None => load(&tensor_buffer(graph, tensor), indices.to_vec()),
        Some(p) => inline_definition(graph, p, indices, |k, idx| {
            resolve_element(graph, group_ops, graph.op(p).inputs[k], idx)
        }),
    }
}

/// Applies the epilogue chain to `(indices, value)` produced by the anchor,
/// returning the final store statement into the group's output buffer.
pub fn apply_epilogues(
    graph: &Graph,
    group: &FusedGroup,
    mut indices: Vec<Expr>,
    mut value: Expr,
) -> Stmt {
    let mut current = graph
        .op(group.anchor.expect("epilogues need an anchor"))
        .output;
    for e in group.epilogues() {
        let op = graph.op(e);
        match &op.kind {
            // Index epilogues move the destination, not the value.
            OpKind::Reshape { .. } => {
                let flat = linearize_expr(&indices, graph.tensor(current).shape());
                indices = delinearize_expr(flat, graph.tensor(op.output).shape());
            }
            OpKind::Transpose { perm } => {
                // out index j takes input axis perm[j].
                indices = perm.iter().map(|&p| indices[p].clone()).collect();
            }
            // Value epilogues: every operand that is the running tensor reads
            // the carried value, every other one resolves like a prologue.
            _ => {
                value = inline_definition(graph, e, &indices, |k, idx| {
                    if op.inputs[k] == current {
                        value.clone()
                    } else {
                        resolve_element(graph, &group.ops, op.inputs[k], idx)
                    }
                });
            }
        }
        current = op.output;
    }
    let out_buf = tensor_buffer(graph, group.output(graph));
    store(&out_buf, indices, value)
}

/// Compiles one fused group into kernels (paper Fig. 10 steps 3–4).
///
/// # Errors
/// Returns an error string for anchor kinds that require prior graph lowering
/// (dense convolution must be rewritten by `lower_convs` first).
pub fn compile_group(
    graph: &Graph,
    group: &FusedGroup,
    schedule: &GroupSchedule,
) -> Result<CompiledGroup, String> {
    let inputs = group.external_inputs(graph);
    let output = group.output(graph);
    let name = kernel_name(graph, group);
    let mut params: Vec<BufferRef> = inputs.iter().map(|&t| tensor_buffer(graph, t)).collect();
    params.push(tensor_buffer(graph, output));

    let kernels = match group.anchor {
        None => {
            // Pure injective chain: one elementwise kernel computing the
            // chain's output directly from external inputs.
            let out_buf = tensor_buffer(graph, output);
            let rank = out_buf.ndim();
            let axes: Vec<Var> = (0..rank).map(|i| Var::index(&format!("i{i}"))).collect();
            let axis_exprs: Vec<Expr> = axes.iter().map(Var::expr).collect();
            let expr = resolve_element(graph, &group.ops, output, &axis_exprs);
            vec![elementwise_kernel(ElementwiseJob {
                name,
                out: out_buf,
                axes,
                expr,
                params,
            })]
        }
        Some(anchor) => {
            let op = graph.op(anchor);
            match anchor_problem(graph, op) {
                Some(AnchorProblem::Matmul(problem)) => {
                    let source = |t: TensorId| {
                        if graph.producer(t).is_some_and(|p| group.ops.contains(&p)) {
                            Source::Fused(Box::new(move |b, i, j| {
                                let idx = matmul_indices(graph, t, b, i, j);
                                resolve_element(graph, &group.ops, t, &idx)
                            }))
                        } else {
                            Source::Direct(tensor_buffer(graph, t))
                        }
                    };
                    let anchor_out = op.output;
                    let sink = Sink::Fused(Box::new(move |b, i, j, value| {
                        let idx = matmul_indices(graph, anchor_out, b, i, j);
                        apply_epilogues(graph, group, idx, value)
                    }));
                    let io = MatmulIo {
                        name,
                        a: source(op.inputs[0]),
                        b: source(op.inputs[1]),
                        c: sink,
                        params,
                    };
                    matmul_kernel(problem, schedule.matmul, io)
                }
                Some(AnchorProblem::RowReduce { kind, rows, len }) => {
                    let io = row_reduce_io(graph, group, kind, name, params);
                    vec![reduce_kernel(kind, rows, len, schedule.reduce, io)]
                }
                None => match &op.kind {
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
                        let reduce = if matches!(op.kind, OpKind::MaxPool { .. }) {
                            WindowReduce::Max
                        } else {
                            WindowReduce::Avg
                        };
                        let x_t = op.inputs[0];
                        let in_shape = graph.tensor(x_t).shape().to_vec();
                        let out_shape = graph.tensor(op.output).shape().to_vec();
                        let io = window_io(graph, group, name, x_t, params);
                        vec![pool_kernel(
                            reduce, &in_shape, &out_shape, *kernel, *stride, *padding, io,
                        )]
                    }
                    OpKind::Conv2d {
                        stride,
                        padding,
                        groups,
                    } => {
                        let x_t = op.inputs[0];
                        let w_t = op.inputs[1];
                        let in_shape = graph.tensor(x_t).shape().to_vec();
                        let out_shape = graph.tensor(op.output).shape().to_vec();
                        let w_shape = graph.tensor(w_t).shape().to_vec();
                        if *groups != in_shape[1] {
                            return Err(format!(
                                "dense convolution {} reached the scheduler; run lower_convs first",
                                op.name
                            ));
                        }
                        let io = window_io(graph, group, name, x_t, params);
                        vec![depthwise_conv_kernel(
                            &in_shape,
                            &out_shape,
                            tensor_buffer(graph, w_t),
                            w_shape[2],
                            *stride,
                            *padding,
                            io,
                        )]
                    }
                    other => return Err(format!("no template for anchor kind {other:?}")),
                },
            }
        }
    };

    // Scratch buffers: kernel parameters that are none of the group's
    // tensor buffers.
    let tensors: Vec<String> = inputs
        .iter()
        .chain([&output])
        .map(|&t| tensor_buffer_name(t))
        .collect();
    let mut scratch = Vec::new();
    for kernel in &kernels {
        for p in kernel.params() {
            if !tensors.iter().any(|t| t == p.name()) {
                scratch.push((p.name().to_string(), p.num_elements() as usize));
            }
        }
    }
    scratch.dedup();

    Ok(CompiledGroup {
        kernels,
        inputs,
        output,
        scratch,
    })
}

/// The indices of matmul operand or result `t` at template coordinates
/// `(batch, row, col)`: the batch index only when `t` is batched.
fn matmul_indices(graph: &Graph, t: TensorId, b: &Expr, i: &Expr, j: &Expr) -> Vec<Expr> {
    if graph.tensor(t).ndim() == 3 {
        vec![b.clone(), i.clone(), j.clone()]
    } else {
        vec![i.clone(), j.clone()]
    }
}

/// Rebuilds full tensor indices from a `(row, axis)` coordinate pair.
fn row_axis_indices(shape: &[i64], axis: usize, r: &Expr, a: &Expr) -> Vec<Expr> {
    let inner: i64 = shape[axis + 1..].iter().product();
    let o = if inner == 1 {
        r.clone()
    } else {
        r.clone() / inner
    };
    let inn = r.clone() % inner.max(1);
    let mut idx = delinearize_expr(o, &shape[..axis]);
    idx.push(a.clone());
    idx.extend(delinearize_expr(inn, &shape[axis + 1..]));
    idx
}

/// The reduce template's IO for a row-reduce anchor: loads resolve element
/// `a` of row `r` of the anchor's input (prologues inlined), stores run the
/// epilogues. A layer norm's affine parameters are applied in the store; a
/// pooled row is one output element.
fn row_reduce_io<'a>(
    graph: &'a Graph,
    group: &'a FusedGroup,
    kind: RowReduceKind,
    name: String,
    params: Vec<BufferRef>,
) -> ReduceIo<'a> {
    let op = graph.op(group.anchor.expect("row reduce needs an anchor"));
    let x_t = op.inputs[0];
    let shape = graph.tensor(x_t).shape().to_vec();
    let axis = match op.kind {
        OpKind::Softmax { axis } => axis,
        _ => shape.len() - 1,
    };
    let element = move |r: &Expr, a: &Expr| match kind {
        RowReduceKind::MeanPool => {
            let (ch, w) = (shape[1], shape[3]);
            vec![r.clone() / ch, r.clone() % ch, a.clone() / w, a.clone() % w]
        }
        _ => row_axis_indices(&shape, axis, r, a),
    };
    let affine = (kind == RowReduceKind::LayerNorm).then(|| {
        (
            tensor_buffer(graph, op.inputs[1]),
            tensor_buffer(graph, op.inputs[2]),
        )
    });
    let load_element = element.clone();
    ReduceIo {
        name,
        load: Box::new(move |r, a| resolve_element(graph, &group.ops, x_t, &load_element(r, a))),
        store: Box::new(move |r, a, v| {
            let v = match &affine {
                Some((gamma, beta)) => {
                    v * load(gamma, vec![a.clone()]) + load(beta, vec![a.clone()])
                }
                None => v,
            };
            let mut idx = element(r, a);
            if kind == RowReduceKind::MeanPool {
                // The pooled output is `[n, c]`.
                idx.truncate(2);
            }
            apply_epilogues(graph, group, idx, v)
        }),
        params,
    }
}

fn window_io<'a>(
    graph: &'a Graph,
    group: &'a FusedGroup,
    name: String,
    x_t: TensorId,
    params: Vec<BufferRef>,
) -> WindowIo<'a> {
    WindowIo {
        name,
        load: Box::new(move |idx| resolve_element(graph, &group.ops, x_t, idx)),
        store: Box::new(move |idx, v| apply_epilogues(graph, group, idx.to_vec(), v)),
        params,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidet_graph::passes::{constant_fold, lower_convs, partition};
    use hidet_graph::reference::{execute, ValueMap};
    use hidet_graph::{BinaryKind, GraphBuilder, Tensor};
    use hidet_sim::{DeviceMemory, Gpu};

    /// Compiles and runs every group of `graph` on the simulator and compares
    /// the final output with the reference executor.
    fn check_graph(graph: &hidet_graph::Graph, inputs: &ValueMap, tol: f32) {
        let reference = execute(graph, inputs);
        let groups = partition(graph);
        let gpu = Gpu::default();
        let mut mem = DeviceMemory::new();
        // Upload inputs and constants.
        for (t, v) in inputs {
            mem.alloc(&tensor_buffer_name(*t), v);
        }
        for idx in 0..graph.num_tensors() {
            let t = TensorId(idx);
            if let Some(data) = graph.tensor(t).data() {
                mem.alloc(&tensor_buffer_name(t), data);
            }
        }
        for group in &groups {
            let compiled = compile_group(graph, group, &GroupSchedule::default()).unwrap();
            mem.alloc_zeroed(
                &tensor_buffer_name(compiled.output),
                graph.tensor(compiled.output).numel() as usize,
            );
            for (name, len) in &compiled.scratch {
                mem.alloc_zeroed(name, *len);
            }
            for kernel in &compiled.kernels {
                gpu.run(kernel, &mut mem).unwrap();
            }
        }
        for &out in graph.outputs() {
            let got = mem.read(&tensor_buffer_name(out));
            let expect = &reference[&out];
            assert_eq!(got.len(), expect.len());
            for (i, (a, b)) in got.iter().zip(expect).enumerate() {
                assert!(
                    (a - b).abs() < tol * (1.0 + b.abs()),
                    "output t{} element {i}: {a} vs {b}",
                    out.0
                );
            }
        }
    }

    #[test]
    fn fused_matmul_bias_relu() {
        let mut g = GraphBuilder::new("t");
        let x = g.input("x", &[33, 20]);
        let w = g.constant(Tensor::randn(&[20, 17], 1));
        let bias = g.constant(Tensor::randn(&[17], 2));
        let y = g.matmul(x, w);
        let y = g.add(y, bias);
        let y = g.relu(y);
        let graph = g.output(y).build();
        let mut inputs = ValueMap::new();
        inputs.insert(x, Tensor::randn(&[33, 20], 3).data().unwrap().to_vec());
        check_graph(&graph, &inputs, 1e-3);
    }

    #[test]
    fn fused_conv_bn_relu_via_implicit_gemm() {
        // The paper's Conv2d-Bn-ReLU case (Fig. 6 / Fig. 21), end to end.
        let mut g = GraphBuilder::new("t");
        let x = g.input("x", &[1, 3, 10, 10]);
        let y = g.conv_bn_relu(x, 8, 3, 2, 1);
        let mut graph = g.output(y).build();
        lower_convs(&mut graph);
        constant_fold(&mut graph);
        let mut inputs = ValueMap::new();
        inputs.insert(
            x,
            Tensor::randn(&[1, 3, 10, 10], 4).data().unwrap().to_vec(),
        );
        check_graph(&graph, &inputs, 1e-2);
    }

    #[test]
    fn fused_injective_chain() {
        let mut g = GraphBuilder::new("t");
        let x = g.input("x", &[40]);
        let a = g.relu(x);
        let b = g.tanh(a);
        let graph = g.output(b).build();
        let mut inputs = ValueMap::new();
        inputs.insert(x, Tensor::randn(&[40], 5).data().unwrap().to_vec());
        check_graph(&graph, &inputs, 1e-4);
    }

    #[test]
    fn softmax_with_scale_prologue() {
        let mut g = GraphBuilder::new("t");
        let x = g.input("x", &[4, 32]);
        let scale = g.constant(Tensor::full(&[1], 0.125));
        let s = g.mul(x, scale);
        let y = g.softmax(s, 1);
        let graph = g.output(y).build();
        let mut inputs = ValueMap::new();
        inputs.insert(x, Tensor::randn(&[4, 32], 6).data().unwrap().to_vec());
        check_graph(&graph, &inputs, 1e-4);
    }

    #[test]
    fn layernorm_group() {
        let mut g = GraphBuilder::new("t");
        let x = g.input("x", &[6, 48]);
        let y = g.layer_norm(x);
        let graph = g.output(y).build();
        let mut inputs = ValueMap::new();
        inputs.insert(x, Tensor::randn(&[6, 48], 7).data().unwrap().to_vec());
        check_graph(&graph, &inputs, 1e-2);
    }

    #[test]
    fn global_pool_then_linear() {
        let mut g = GraphBuilder::new("t");
        let x = g.input("x", &[2, 8, 5, 5]);
        let p = g.global_avg_pool(x);
        let out = g.linear(p, 10);
        let graph = g.output(out).build();
        let mut inputs = ValueMap::new();
        inputs.insert(x, Tensor::randn(&[2, 8, 5, 5], 8).data().unwrap().to_vec());
        check_graph(&graph, &inputs, 1e-3);
    }

    #[test]
    fn depthwise_conv_with_bn_relu6_epilogue() {
        let mut g = GraphBuilder::new("t");
        let x = g.input("x", &[1, 6, 9, 9]);
        let w = g.constant(Tensor::randn(&[6, 1, 3, 3], 9));
        let y = g.depthwise_conv2d(x, w, 1, 1);
        let y = g.batch_norm(y);
        let y = g.relu6(y);
        let graph = g.output(y).build();
        let mut inputs = ValueMap::new();
        inputs.insert(x, Tensor::randn(&[1, 6, 9, 9], 10).data().unwrap().to_vec());
        check_graph(&graph, &inputs, 1e-3);
    }

    #[test]
    fn batch_matmul_group() {
        let mut g = GraphBuilder::new("t");
        let a = g.input("a", &[2, 16, 12]);
        let b = g.input("b", &[2, 12, 20]);
        let y = g.batch_matmul(a, b);
        let graph = g.output(y).build();
        let mut inputs = ValueMap::new();
        inputs.insert(a, Tensor::randn(&[2, 16, 12], 11).data().unwrap().to_vec());
        inputs.insert(b, Tensor::randn(&[2, 12, 20], 12).data().unwrap().to_vec());
        check_graph(&graph, &inputs, 1e-3);
    }

    #[test]
    fn reshape_transpose_epilogue_remaps_indices() {
        // matmul -> reshape -> transpose, the paper's transformer pattern.
        let mut g = GraphBuilder::new("t");
        let x = g.input("x", &[16, 24]);
        let w = g.constant(Tensor::randn(&[24, 24], 13));
        let y = g.matmul(x, w);
        let y = g.reshape(y, &[16, 4, 6]);
        let y = g.transpose(y, &[1, 0, 2]);
        let graph = g.output(y).build();
        let mut inputs = ValueMap::new();
        inputs.insert(x, Tensor::randn(&[16, 24], 14).data().unwrap().to_vec());
        check_graph(&graph, &inputs, 1e-3);
    }

    /// Two chains `x -> relu -> + bias -> matmul (split-K)` apart only in
    /// their tensors and op names.
    fn twin_matmuls() -> Graph {
        let mut g = GraphBuilder::new("twins");
        let mut outs = Vec::new();
        for seed in [1, 2] {
            let x = g.input("x", &[16, 64]);
            let bias = g.constant(Tensor::randn(&[64], seed));
            let w = g.constant(Tensor::randn(&[64, 24], seed + 10));
            let y = g.relu(x);
            let y = g.add(y, bias);
            outs.push(g.matmul(y, w));
        }
        g.output(outs[0]).output(outs[1]).build()
    }

    fn split_k() -> GroupSchedule {
        GroupSchedule {
            matmul: MatmulConfig {
                split_k: 2,
                ..MatmulConfig::default()
            },
            ..GroupSchedule::default()
        }
    }

    /// The graph's two groups, which differ in one respect: under `a` and
    /// `b` they have different keys, and the first's kernels renamed for
    /// the second are not the second's.
    fn assert_generated_apart(graph: &Graph, a: &GroupSchedule, b: &GroupSchedule) {
        let groups = partition(graph);
        assert_eq!(groups.len(), 2, "{groups:?}");
        let (first, second) = (&groups[0], &groups[1]);
        assert_ne!(
            GroupKey::of(graph, first, a),
            GroupKey::of(graph, second, b)
        );
        let renamed = compile_group(graph, first, a)
            .unwrap()
            .renamed_for(graph, first, second);
        let fresh = compile_group(graph, second, b).unwrap();
        assert!(renamed.difference(&fresh).is_some());
    }

    /// Two one-input chains off the same input, built by `chain`.
    fn two_chains(
        shape: &[i64],
        chain: impl Fn(&mut GraphBuilder, TensorId, usize) -> TensorId,
    ) -> Graph {
        let mut g = GraphBuilder::new("pair");
        let x = g.input("x", shape);
        let a = chain(&mut g, x, 0);
        let b = chain(&mut g, x, 1);
        g.output(a).output(b).build()
    }

    #[test]
    fn equal_keys_rename_to_a_fresh_compile() {
        let graph = twin_matmuls();
        let groups = partition(&graph);
        assert_eq!(groups.len(), 2);
        let (first, second) = (&groups[0], &groups[1]);
        let schedule = split_k();
        assert_eq!(
            GroupKey::of(&graph, first, &schedule),
            GroupKey::of(&graph, second, &schedule)
        );
        let compiled = compile_group(&graph, first, &schedule).unwrap();
        assert_eq!(compiled.kernels.len(), 2, "split-K adds a reduce kernel");
        assert_eq!(compiled.scratch.len(), 1, "and a partials buffer");
        let renamed = compiled.renamed_for(&graph, first, second);
        let fresh = compile_group(&graph, second, &schedule).unwrap();
        assert_eq!(renamed.difference(&fresh), None);
        for (a, b) in renamed.kernels.iter().zip(&compiled.kernels) {
            assert!(std::sync::Arc::ptr_eq(a.definition(), b.definition()));
        }
        assert_eq!(
            renamed.difference(&compiled),
            Some("kernel 0 (matmul_1_fused): name".into())
        );
    }

    #[test]
    fn an_input_shape_is_generated_apart() {
        let mut g = GraphBuilder::new("bias");
        let x = g.input("x", &[4, 8]);
        let row = g.input("row", &[8]);
        let matrix = g.input("matrix", &[1, 8]);
        let a = g.add(x, row);
        let b = g.add(x, matrix);
        let graph = g.output(a).output(b).build();
        let schedule = GroupSchedule::default();
        assert_generated_apart(&graph, &schedule, &schedule);
    }

    #[test]
    fn an_op_attribute_is_generated_apart() {
        // Strides 2 and 3 of a 1x1 window over 4x4 both give 2x2 outputs.
        let img2col = two_chains(&[1, 2, 4, 4], |g, x, i| {
            let stride = [2, 3][i];
            g.apply(
                OpKind::Img2col {
                    kernel: 1,
                    stride,
                    padding: 0,
                },
                &[x],
            )
        });
        let schedule = GroupSchedule::default();
        assert_generated_apart(&img2col, &schedule, &schedule);
        let transpose = two_chains(&[4, 4, 4], |g, x, i| {
            g.transpose(x, [&[1, 0, 2], &[2, 1, 0]][i])
        });
        assert_generated_apart(&transpose, &schedule, &schedule);
    }

    #[test]
    fn operand_order_is_generated_apart() {
        // `(a - b) * b` against `(b - a) * b`: the input order follows the
        // subtraction, so the multiplication's operand is what differs.
        let mut g = GraphBuilder::new("order");
        let a = g.input("a", &[32]);
        let b = g.input("b", &[32]);
        let mut outs = Vec::new();
        for (l, r) in [(a, b), (b, a)] {
            let d = g.apply(OpKind::Binary(BinaryKind::Sub), &[l, r]);
            outs.push(g.mul(d, b));
        }
        let graph = g.output(outs[0]).output(outs[1]).build();
        let schedule = GroupSchedule::default();
        assert_generated_apart(&graph, &schedule, &schedule);
    }

    #[test]
    fn an_internal_operand_is_generated_apart_from_an_external_one() {
        // `relu(x) + relu(x)` against `relu(x) + x`.
        let graph = two_chains(&[32], |g, x, i| {
            let y = g.relu(x);
            g.add(y, [y, x][i])
        });
        let schedule = GroupSchedule::default();
        assert_generated_apart(&graph, &schedule, &schedule);
    }

    #[test]
    fn the_schedule_is_generated_apart() {
        let graph = twin_matmuls();
        assert_generated_apart(&graph, &GroupSchedule::default(), &split_k());
    }
}
