//! Post-scheduling fusion (paper §4.2, §5.2, Fig. 15) and the fused-group
//! compiler.
//!
//! Fusion happens *after* the anchor operator is scheduled: prologue operators
//! are inlined into the scheduled kernel's **input loads** (each access
//! `in[i]` is replaced by the prologue's computation of element `i`), and
//! epilogue operators into its **output stores** (the stored value is
//! transformed and its destination index remapped through bijective
//! operators) — exactly the `reverse` example of paper Fig. 15.
//!
//! [`compile_group`] drives the whole step 3–4 of Fig. 10 for one fused
//! sub-graph: pick the anchor's template, build the fused IO closures, and
//! emit kernels.

use hidet_graph::compute::{compute_def, parse_input_name};
use hidet_graph::passes::FusedGroup;
use hidet_graph::{Graph, OpId, OpKind, TensorId};
use hidet_ir::prelude::*;
use hidet_ir::visit::rewrite_expr;

use crate::rule_based::{
    self, depthwise_conv_kernel, elementwise_kernel, pool_kernel, ElementwiseJob, WindowIo,
    WindowReduce,
};
use crate::space::{MatmulConfig, ReduceConfig};
use crate::templates::matmul::{matmul_kernel, MatmulIo, MatmulProblem, Sink, Source};
use crate::templates::reduce::{reduce_kernel, ReduceIo, RowReduceKind};

/// A prologue: computes one element of an anchor input from real parameters.
/// (Type alias re-exported for API clarity.)
pub type Prologue = Box<dyn Fn(&[Expr]) -> Expr>;

/// An epilogue: transforms an output element and remaps its destination.
pub type Epilogue = Box<dyn Fn(&[Expr], Expr) -> Stmt>;

/// Per-group schedule choices (filled in by the tuner).
#[derive(Debug, Clone, Copy, PartialEq)]
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
    /// External input tensors (device buffers named `t<id>`).
    pub inputs: Vec<TensorId>,
    /// Output tensor (device buffer named `t<id>`).
    pub output: TensorId,
    /// Scratch buffers to allocate (name, elements) — e.g. split-K partials.
    pub scratch: Vec<(String, usize)>,
}

/// The device buffer standing for a graph tensor.
pub fn tensor_buffer(graph: &Graph, t: TensorId) -> BufferRef {
    Buffer::new(
        &format!("t{}", t.0),
        MemScope::Global,
        DType::F32,
        graph.tensor(t).shape(),
    )
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
    let producer_in_group = graph.producer(tensor).filter(|p| group_ops.contains(p));
    match producer_in_group {
        None => load(&tensor_buffer(graph, tensor), indices.to_vec()),
        Some(p) => {
            let op = graph.op(p);
            let shapes: Vec<&[i64]> = op.inputs.iter().map(|t| graph.tensor(*t).shape()).collect();
            let def = compute_def(&op.kind, &shapes)
                .unwrap_or_else(|| panic!("prologue op {} has no compute definition", op.name));
            let elem = def.element_at(indices);
            // Replace placeholder input loads with recursively resolved values.
            rewrite_expr(&elem, &mut |e| {
                if let Expr::Load { buffer, indices } = e {
                    if let Some(k) = parse_input_name(buffer.name()) {
                        return Some(resolve_element(graph, group_ops, op.inputs[k], indices));
                    }
                }
                None
            })
        }
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
        let input_idx = op
            .inputs
            .iter()
            .position(|&t| t == current)
            .expect("epilogue consumes the running tensor");
        let in_shape = graph.tensor(current).shape().to_vec();
        let out_shape = graph.tensor(op.output).shape().to_vec();
        match &op.kind {
            OpKind::Unary(u) => {
                value = unary_value(*u, value);
            }
            OpKind::Binary(b) => {
                let other_t = op.inputs[1 - input_idx];
                let other_shape = graph.tensor(other_t).shape().to_vec();
                // Broadcast the other operand against the output indices.
                let offset = out_shape.len() - other_shape.len();
                let oidx: Vec<Expr> = other_shape
                    .iter()
                    .enumerate()
                    .map(|(d, &ext)| {
                        if ext == 1 {
                            Expr::Int(0)
                        } else {
                            indices[offset + d].clone()
                        }
                    })
                    .collect();
                let other = resolve_element(graph, &group.ops, other_t, &oidx);
                value = apply_binary(*b, input_idx, value, other);
            }
            OpKind::BatchNorm => {
                let ch = indices[1].clone();
                let scale =
                    resolve_element(graph, &group.ops, op.inputs[1], std::slice::from_ref(&ch));
                let shift = resolve_element(graph, &group.ops, op.inputs[2], &[ch]);
                value = value * scale + shift;
            }
            OpKind::Reshape { .. } => {
                let flat = hidet_graph::compute::linearize_expr(&indices, &in_shape);
                indices = rule_based::delinearize(flat, &out_shape);
            }
            OpKind::Transpose { perm } => {
                // out index j takes input axis perm[j].
                indices = perm.iter().map(|&p| indices[p].clone()).collect();
            }
            other => panic!("operator {other:?} is not epilogue-eligible"),
        }
        current = op.output;
    }
    let out_buf = tensor_buffer(graph, group.output(graph));
    store(&out_buf, indices, value)
}

fn unary_value(u: hidet_graph::UnaryKind, x: Expr) -> Expr {
    use hidet_graph::UnaryKind::*;
    match u {
        Relu => x.max(0.0f32),
        Relu6 => x.max(0.0f32).min(6.0f32),
        Gelu => {
            let inner = (x.clone() * std::f32::consts::FRAC_1_SQRT_2).unary(UnOp::Erf);
            x * 0.5f32 * (inner + 1.0f32)
        }
        Tanh => x.unary(UnOp::Tanh),
        Sigmoid => x.unary(UnOp::Sigmoid),
        Exp => x.unary(UnOp::Exp),
        Sqrt => x.unary(UnOp::Sqrt),
        Neg => -x,
    }
}

fn apply_binary(
    b: hidet_graph::BinaryKind,
    carried_idx: usize,
    carried: Expr,
    other: Expr,
) -> Expr {
    use hidet_graph::BinaryKind::*;
    let (lhs, rhs) = if carried_idx == 0 {
        (carried, other)
    } else {
        (other, carried)
    };
    match b {
        Add => lhs + rhs,
        Sub => lhs - rhs,
        Mul => lhs * rhs,
        Div => lhs / rhs,
    }
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
    let name = group
        .anchor
        .map(|a| graph.op(a).name.clone())
        .unwrap_or_else(|| graph.op(group.ops[0]).name.clone())
        + "_fused";
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
            match &op.kind {
                OpKind::Matmul | OpKind::BatchMatmul => {
                    let a_t = op.inputs[0];
                    let b_t = op.inputs[1];
                    let a_shape = graph.tensor(a_t).shape().to_vec();
                    let b_shape = graph.tensor(b_t).shape().to_vec();
                    let batched = matches!(op.kind, OpKind::BatchMatmul);
                    let problem = if batched {
                        MatmulProblem {
                            batch: a_shape[0],
                            m: a_shape[1],
                            n: b_shape[2],
                            k: a_shape[2],
                        }
                    } else {
                        MatmulProblem::new(a_shape[0], b_shape[1], a_shape[1])
                    };
                    let source = |t: TensorId| -> Source {
                        let produced_inside =
                            graph.producer(t).is_some_and(|p| group.ops.contains(&p));
                        if produced_inside {
                            let ops = group.ops.clone();
                            let graph2 = graph.clone();
                            Source::Fused(Box::new(move |b, i, j| {
                                let idx: Vec<Expr> = if graph2.tensor(t).ndim() == 3 {
                                    vec![b.clone(), i.clone(), j.clone()]
                                } else {
                                    vec![i.clone(), j.clone()]
                                };
                                resolve_element(&graph2, &ops, t, &idx)
                            }))
                        } else {
                            Source::Direct(tensor_buffer(graph, t))
                        }
                    };
                    let graph2 = graph.clone();
                    let group2 = group.clone();
                    let sink = Sink::Fused(Box::new(move |b, i, j, value| {
                        let anchor_out = graph2.op(group2.anchor.unwrap()).output;
                        let idx: Vec<Expr> = if graph2.tensor(anchor_out).ndim() == 3 {
                            vec![b.clone(), i.clone(), j.clone()]
                        } else {
                            vec![i.clone(), j.clone()]
                        };
                        apply_epilogues(&graph2, &group2, idx, value)
                    }));
                    let io = MatmulIo {
                        name,
                        a: source(a_t),
                        b: source(b_t),
                        c: sink,
                        params,
                    };
                    matmul_kernel(problem, schedule.matmul, io)
                }
                OpKind::Softmax { axis } => {
                    let x_t = op.inputs[0];
                    let shape = graph.tensor(x_t).shape().to_vec();
                    let (outer, len, inner) = split_axis(&shape, *axis);
                    let rows = outer * inner;
                    let io = row_reduce_io(graph, group, name, &shape, *axis, params);
                    vec![reduce_kernel(
                        RowReduceKind::Softmax,
                        rows,
                        len,
                        schedule.reduce,
                        io,
                    )]
                }
                OpKind::LayerNorm => {
                    let x_t = op.inputs[0];
                    let shape = graph.tensor(x_t).shape().to_vec();
                    let axis = shape.len() - 1;
                    let (outer, len, inner) = split_axis(&shape, axis);
                    let rows = outer * inner;
                    // Affine parameters applied inside the store closure.
                    let gb = tensor_buffer(graph, op.inputs[1]);
                    let bb = tensor_buffer(graph, op.inputs[2]);
                    let graph2 = graph.clone();
                    let group2 = group.clone();
                    let shape2 = shape.clone();
                    let io = ReduceIo {
                        name,
                        load: {
                            let graph3 = graph.clone();
                            let ops3 = group.ops.clone();
                            let shape3 = shape.clone();
                            Box::new(move |r, a| {
                                let idx = row_axis_indices(&shape3, shape3.len() - 1, r, a);
                                resolve_element(&graph3, &ops3, x_t, &idx)
                            })
                        },
                        store: Box::new(move |r, a, v| {
                            let affine =
                                v * load(&gb, vec![a.clone()]) + load(&bb, vec![a.clone()]);
                            let idx = row_axis_indices(&shape2, shape2.len() - 1, r, a);
                            apply_epilogues(&graph2, &group2, idx, affine)
                        }),
                        params,
                    };
                    vec![reduce_kernel(
                        RowReduceKind::LayerNorm,
                        rows,
                        len,
                        schedule.reduce,
                        io,
                    )]
                }
                OpKind::GlobalAvgPool => {
                    let x_t = op.inputs[0];
                    let shape = graph.tensor(x_t).shape().to_vec();
                    let (n, ch, h, w) = (shape[0], shape[1], shape[2], shape[3]);
                    let rows = n * ch;
                    let len = h * w;
                    let graph2 = graph.clone();
                    let group2 = group.clone();
                    let ops = group.ops.clone();
                    let io = ReduceIo {
                        name,
                        load: {
                            let graph3 = graph.clone();
                            let ops3 = ops.clone();
                            Box::new(move |r, a| {
                                let idx = vec![
                                    r.clone() / ch,
                                    r.clone() % ch,
                                    a.clone() / w,
                                    a.clone() % w,
                                ];
                                resolve_element(&graph3, &ops3, x_t, &idx)
                            })
                        },
                        store: Box::new(move |r, _a, v| {
                            let idx = vec![r.clone() / ch, r.clone() % ch];
                            apply_epilogues(&graph2, &group2, idx, v)
                        }),
                        params,
                    };
                    vec![reduce_kernel(
                        RowReduceKind::MeanPool,
                        rows,
                        len,
                        schedule.reduce,
                        io,
                    )]
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
            }
        }
    };

    // Scratch buffers: any kernel parameter that is not a graph tensor.
    let mut scratch = Vec::new();
    for kernel in &kernels {
        for p in kernel.params() {
            if !p.name().starts_with('t') || p.name()[1..].parse::<usize>().is_err() {
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

/// Splits `shape` at `axis` into `(outer_volume, axis_len, inner_volume)`.
fn split_axis(shape: &[i64], axis: usize) -> (i64, i64, i64) {
    let outer: i64 = shape[..axis].iter().product();
    let inner: i64 = shape[axis + 1..].iter().product();
    (outer, shape[axis], inner)
}

/// Rebuilds full tensor indices from a `(row, axis)` coordinate pair.
fn row_axis_indices(shape: &[i64], axis: usize, r: &Expr, a: &Expr) -> Vec<Expr> {
    let (_, _, inner) = split_axis(shape, axis);
    let outer_shape = &shape[..axis];
    let inner_shape = &shape[axis + 1..];
    let o = if inner == 1 {
        r.clone()
    } else {
        r.clone() / inner
    };
    let inn = r.clone() % inner.max(1);
    let mut idx = rule_based::delinearize(o, outer_shape);
    idx.push(a.clone());
    idx.extend(rule_based::delinearize(inn, inner_shape));
    idx
}

fn row_reduce_io(
    graph: &Graph,
    group: &FusedGroup,
    name: String,
    shape: &[i64],
    axis: usize,
    params: Vec<BufferRef>,
) -> ReduceIo {
    let anchor = group.anchor.expect("row reduce needs an anchor");
    let x_t = graph.op(anchor).inputs[0];
    let graph2 = graph.clone();
    let group2 = group.clone();
    let shape_load = shape.to_vec();
    let shape_store = shape.to_vec();
    let ops = group.ops.clone();
    ReduceIo {
        name,
        load: Box::new(move |r, a| {
            let idx = row_axis_indices(&shape_load, axis, r, a);
            resolve_element(&graph2, &ops, x_t, &idx)
        }),
        store: {
            let graph3 = graph.clone();
            Box::new(move |r, a, v| {
                let idx = row_axis_indices(&shape_store, axis, r, a);
                apply_epilogues(&graph3, &group2, idx, v)
            })
        },
        params,
    }
}

fn window_io(
    graph: &Graph,
    group: &FusedGroup,
    name: String,
    x_t: TensorId,
    params: Vec<BufferRef>,
) -> WindowIo {
    let graph2 = graph.clone();
    let graph3 = graph.clone();
    let group2 = group.clone();
    let ops = group.ops.clone();
    WindowIo {
        name,
        load: Box::new(move |idx| resolve_element(&graph2, &ops, x_t, idx)),
        store: Box::new(move |idx, v| apply_epilogues(&graph3, &group2, idx.to_vec(), v)),
        params,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidet_graph::passes::{constant_fold, lower_convs, partition};
    use hidet_graph::reference::{execute, ValueMap};
    use hidet_graph::{GraphBuilder, Tensor};
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
            mem.alloc(&format!("t{}", t.0), v);
        }
        for idx in 0..graph.num_tensors() {
            let t = TensorId(idx);
            if let Some(data) = graph.tensor(t).data() {
                mem.alloc(&format!("t{idx}"), data);
            }
        }
        for group in &groups {
            let compiled = compile_group(graph, group, &GroupSchedule::default()).unwrap();
            mem.alloc_zeroed(
                &format!("t{}", compiled.output.0),
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
            let got = mem.read(&format!("t{}", out.0));
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
}
