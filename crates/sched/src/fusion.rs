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
//! A fused sub-graph compiles in three steps (Fig. 10 steps 3–4), and only
//! the first reads the graph. [`GroupSpec::of`] splits the group into a
//! [`GroupDef`] — the schedule and each op's kind, shapes and operand wiring,
//! with no tensor id, op name or kernel name — and the [`GroupNames`] it is
//! called by. [`GroupDef::generate`] builds the kernels from the definition
//! alone: the anchor's template with the fused IO closures, over parameter
//! buffers that stand for the group's tensors by position.
//! [`GroupKernels::bind`] then names them for one group. Groups with equal
//! definitions — a repeated transformer layer or bottleneck — generate once
//! and bind once each, sharing their kernel definitions; [`compile_group`]
//! runs the three steps for one group.

use std::slice;

use hidet_graph::compute::{compute_def, delinearize_expr, linearize_expr};
use hidet_graph::passes::FusedGroup;
use hidet_graph::{Graph, OpKind, Operator, TensorId};
use hidet_ir::prelude::*;

use crate::rule_based::{
    depthwise_conv_kernel, elementwise_kernel, pool_kernel, ElementwiseJob, WindowIo, WindowReduce,
};
use crate::space::{MatmulConfig, ReduceConfig};
use crate::templates::matmul::{matmul_kernel, MatmulIo, MatmulProblem, Sink, Source};
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

/// One fused group under one schedule, split into what its kernels compute
/// and what they are called.
#[derive(Debug)]
pub struct GroupSpec {
    /// What the kernels compute, apart from every name.
    pub def: GroupDef,
    /// What the group's kernels and parameters are called.
    pub names: GroupNames,
}

/// What kernel generation reads of one fused group under one schedule, and
/// nothing else: no tensor id, op name or kernel name. Groups with equal
/// definitions generate the same kernels, up to names.
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct GroupDef {
    schedule: GroupSchedule,
    /// The anchor's position in the group.
    anchor: Option<usize>,
    /// Each op in group order; the last one's output is the group's.
    ops: Vec<DefOp>,
}

/// One op of a [`GroupDef`]: what it computes, its output shape and where
/// each operand comes from, with the operand's shape.
#[derive(Debug, PartialEq, Eq, Hash)]
struct DefOp {
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

/// The names of one fused group: its kernel's and its tensors'.
#[derive(Debug)]
pub struct GroupNames {
    /// The kernel name: the anchor's (or first op's) name, `_fused`.
    pub kernel: String,
    /// The external input tensors, in [`FusedGroup::external_inputs`] order.
    pub inputs: Vec<TensorId>,
    /// The output tensor.
    pub output: TensorId,
}

impl GroupSpec {
    /// The spec of `group` of `graph` under `schedule`. An operand's
    /// producer is looked up among the group's own ops.
    pub fn of(graph: &Graph, group: &FusedGroup, schedule: &GroupSchedule) -> GroupSpec {
        let inputs = group.external_inputs(graph);
        let ops: Vec<&Operator> = group.ops.iter().map(|&o| graph.op(o)).collect();
        let operand = |t: TensorId| match ops.iter().position(|op| op.output == t) {
            Some(j) => Operand::Op(j),
            None => Operand::External(
                (inputs.iter().position(|&i| i == t)).expect("an operand from outside is an input"),
            ),
        };
        let shape = |t: TensorId| graph.tensor(t).shape().to_vec();
        let def_ops = (ops.iter())
            .map(|op| DefOp {
                kind: op.kind.clone(),
                shape: shape(op.output),
                operands: op.inputs.iter().map(|&t| (operand(t), shape(t))).collect(),
            })
            .collect();
        let anchor = group
            .anchor
            .and_then(|a| group.ops.iter().position(|&o| o == a));
        GroupSpec {
            def: GroupDef {
                schedule: *schedule,
                anchor,
                ops: def_ops,
            },
            names: GroupNames {
                kernel: format!("{}_fused", ops[anchor.unwrap_or(0)].name),
                output: group.output(graph),
                inputs,
            },
        }
    }
}

/// A [`GroupDef`]'s kernels before they are named. Every kernel's
/// parameters are the group's external inputs in order, then its output,
/// then scratch. Generation leaves the kernel name empty, so the kernel and
/// scratch names here are the suffixes a template derives from it (`""`,
/// `_splitk_reduce`, `_partial`).
#[derive(Debug)]
pub struct GroupKernels {
    kernels: Vec<Kernel>,
    /// Scratch buffers (name suffix, elements).
    scratch: Vec<(String, usize)>,
}

impl GroupKernels {
    /// These kernels named for one group, by position: its tensors' buffers,
    /// and its kernel name before every kernel and scratch name. Each kernel
    /// shares its definition, so the cost is one buffer per parameter.
    pub fn bind(&self, names: &GroupNames) -> CompiledGroup {
        let named = |suffix: &str| format!("{}{suffix}", names.kernel);
        let mut params: Vec<String> = (names.inputs.iter().chain([&names.output]))
            .map(|&t| tensor_buffer_name(t))
            .collect();
        let tensors = params.len();
        let kernels = (self.kernels.iter())
            .map(|k| {
                params.truncate(tensors);
                params.extend(k.params()[tensors..].iter().map(|p| named(p.name())));
                k.renamed(&named(k.name()), &params)
            })
            .collect();
        CompiledGroup {
            kernels,
            inputs: names.inputs.clone(),
            output: names.output,
            scratch: (self.scratch.iter())
                .map(|(suffix, len)| (named(suffix), *len))
                .collect(),
        }
    }
}

/// The name of the device buffer standing for graph tensor `t`.
pub fn tensor_buffer_name(t: TensorId) -> String {
    format!("t{}", t.0)
}

impl GroupDef {
    /// Builds the group's kernels (paper Fig. 10 steps 3–4) from the
    /// definition alone.
    ///
    /// # Errors
    /// Returns an error string for anchors no template schedules, such as a
    /// dense convolution (`lower_convs` rewrites those first).
    pub fn generate(&self) -> Result<GroupKernels, String> {
        let gen = Generator::new(self);
        let kernels = match self.anchor {
            None => {
                // Pure injective chain: one elementwise kernel computing the
                // chain's output directly from external inputs.
                let out = gen.output().clone();
                let axes: Vec<Var> = (0..out.ndim())
                    .map(|i| Var::index(&format!("i{i}")))
                    .collect();
                let axis_exprs: Vec<Expr> = axes.iter().map(Var::expr).collect();
                let expr = gen.resolve(Operand::Op(self.ops.len() - 1), &axis_exprs);
                vec![elementwise_kernel(ElementwiseJob {
                    name: String::new(),
                    out,
                    axes,
                    expr,
                    params: gen.params.clone(),
                })]
            }
            Some(anchor) => gen.anchor(&self.ops[anchor])?,
        };
        let tensors = gen.params.len();
        debug_assert!(kernels.iter().all(|k| k.params().starts_with(&gen.params)));
        let mut scratch: Vec<(String, usize)> = (kernels.iter())
            .flat_map(|k| &k.params()[tensors..])
            .map(|p| (p.name().to_string(), p.num_elements() as usize))
            .collect();
        scratch.dedup();
        Ok(GroupKernels { kernels, scratch })
    }
}

/// A definition and the parameter buffers of its kernels — external input
/// `i` is `params[i]`, the output is last — from which the fused IO closures
/// read and write elements.
struct Generator<'a> {
    def: &'a GroupDef,
    params: Vec<BufferRef>,
}

impl<'a> Generator<'a> {
    fn new(def: &'a GroupDef) -> Generator<'a> {
        let buffer =
            |name: &str, shape: &[i64]| Buffer::new(name, MemScope::Global, DType::F32, shape);
        let mut params = Vec::new();
        // External inputs are numbered in order of first use.
        for (operand, shape) in def.ops.iter().flat_map(|op| &op.operands) {
            if *operand == Operand::External(params.len()) {
                params.push(buffer(&format!("in{}", params.len()), shape));
            }
        }
        let last = def.ops.last().expect("a group has an op");
        params.push(buffer("out", &last.shape));
        Generator { def, params }
    }

    fn output(&self) -> &BufferRef {
        self.params.last().expect("the output is a parameter")
    }

    /// Element `indices` of op `j`'s output, from its compute definition,
    /// with the load of operand `k` at `idx` read as `input(k, idx)`.
    /// Nothing `input` returns is rewritten again.
    fn inline(
        &self,
        j: usize,
        indices: &[Expr],
        mut input: impl FnMut(usize, &[Expr]) -> Expr,
    ) -> Expr {
        let op = &self.def.ops[j];
        let shapes: Vec<&[i64]> = op.operands.iter().map(|(_, s)| s.as_slice()).collect();
        compute_def(&op.kind, &shapes)
            .unwrap_or_else(|| panic!("fused op {:?} has no compute definition", op.kind))
            .element_at(indices, |k, idx| Some(input(k, idx)))
    }

    /// Element `indices` of `operand`: a fused op's is inlined (prologue
    /// fusion), an external input's loaded from its parameter.
    fn resolve(&self, operand: Operand, indices: &[Expr]) -> Expr {
        match operand {
            Operand::External(i) => load(&self.params[i], indices.to_vec()),
            Operand::Op(j) => self.inline(j, indices, |k, idx| {
                self.resolve(self.def.ops[j].operands[k].0, idx)
            }),
        }
    }

    /// The store of the anchor's `value` at `indices` through the epilogue
    /// chain — the ops after the anchor — into the group's output.
    fn store(&self, mut indices: Vec<Expr>, mut value: Expr) -> Stmt {
        let ops = &self.def.ops;
        let anchor = self.def.anchor.expect("epilogues need an anchor");
        for e in anchor + 1..ops.len() {
            // The running tensor is the previous op's output.
            let op = &ops[e];
            match &op.kind {
                // Index epilogues move the destination, not the value.
                OpKind::Reshape { .. } => {
                    let flat = linearize_expr(&indices, &ops[e - 1].shape);
                    indices = delinearize_expr(flat, &op.shape);
                }
                OpKind::Transpose { perm } => {
                    // out index j takes input axis perm[j].
                    indices = perm.iter().map(|&p| indices[p].clone()).collect();
                }
                // Value epilogues: every operand that is the running tensor
                // reads the carried value, every other one resolves like a
                // prologue.
                _ => {
                    value = self.inline(e, &indices, |k, idx| match op.operands[k].0 {
                        Operand::Op(j) if j == e - 1 => value.clone(),
                        operand => self.resolve(operand, idx),
                    });
                }
            }
        }
        store(self.output(), indices, value)
    }

    /// The kernels of an anchored group, from the anchor's template.
    fn anchor(&self, op: &DefOp) -> Result<Vec<Kernel>, String> {
        let shapes: Vec<&[i64]> = op.operands.iter().map(|(_, s)| s.as_slice()).collect();
        let schedule = &self.def.schedule;
        Ok(match anchor_problem(&op.kind, &shapes) {
            Some(AnchorProblem::Matmul(problem)) => self.matmul(problem, op),
            Some(AnchorProblem::RowReduce { kind, rows, len }) => {
                let io = self.row_reduce(kind, op);
                vec![reduce_kernel(kind, rows, len, schedule.reduce, io)]
            }
            None => match op.kind {
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
                    let io = self.window(op);
                    vec![pool_kernel(
                        reduce, shapes[0], &op.shape, kernel, stride, padding, io,
                    )]
                }
                OpKind::Conv2d {
                    stride,
                    padding,
                    groups,
                } => {
                    if groups != shapes[0][1] {
                        return Err(
                            "dense convolution reached the scheduler; run lower_convs first".into(),
                        );
                    }
                    let Operand::External(w) = op.operands[1].0 else {
                        return Err("depthwise convolution weight computed in its group".into());
                    };
                    let weight = self.params[w].clone();
                    let io = self.window(op);
                    vec![depthwise_conv_kernel(
                        shapes[0],
                        &op.shape,
                        weight,
                        shapes[1][2],
                        stride,
                        padding,
                        io,
                    )]
                }
                ref other => return Err(format!("no template for anchor kind {other:?}")),
            },
        })
    }

    /// The matmul template's kernels: an operand from inside the group is a
    /// fused load, one from outside a parameter; stores run the epilogues.
    fn matmul(&self, problem: MatmulProblem, op: &DefOp) -> Vec<Kernel> {
        let source = |k: usize| {
            let (operand, shape) = &op.operands[k];
            match *operand {
                Operand::External(i) => Source::Direct(self.params[i].clone()),
                fused => Source::Fused(Box::new(move |b, i, j| {
                    self.resolve(fused, &matmul_indices(shape, b, i, j))
                })),
            }
        };
        let io = MatmulIo {
            name: String::new(),
            a: source(0),
            b: source(1),
            c: Sink::Fused(Box::new(|b, i, j, value| {
                self.store(matmul_indices(&op.shape, b, i, j), value)
            })),
            params: self.params.clone(),
        };
        matmul_kernel(problem, self.def.schedule.matmul, io)
    }

    /// The reduce template's IO for a row-reduce anchor: loads resolve
    /// element `a` of row `r` of the anchor's input (prologues inlined),
    /// stores run the epilogues. A layer norm's affine parameters are applied
    /// in the store; a pooled row is one output element.
    fn row_reduce<'b>(&'b self, kind: RowReduceKind, op: &'b DefOp) -> ReduceIo<'b> {
        let (x, shape) = &op.operands[0];
        let axis = match op.kind {
            OpKind::Softmax { axis } => axis,
            _ => shape.len() - 1,
        };
        let element = move |r: &Expr, a: &Expr| match kind {
            RowReduceKind::MeanPool => {
                let (ch, w) = (shape[1], shape[3]);
                vec![r.clone() / ch, r.clone() % ch, a.clone() / w, a.clone() % w]
            }
            _ => row_axis_indices(shape, axis, r, a),
        };
        let affine =
            (kind == RowReduceKind::LayerNorm).then(|| (op.operands[1].0, op.operands[2].0));
        ReduceIo {
            name: String::new(),
            load: Box::new(move |r, a| self.resolve(*x, &element(r, a))),
            store: Box::new(move |r, a, v| {
                let v = match affine {
                    Some((gamma, beta)) => {
                        let at = slice::from_ref(a);
                        v * self.resolve(gamma, at) + self.resolve(beta, at)
                    }
                    None => v,
                };
                let mut idx = element(r, a);
                if kind == RowReduceKind::MeanPool {
                    // The pooled output is `[n, c]`.
                    idx.truncate(2);
                }
                self.store(idx, v)
            }),
            params: self.params.clone(),
        }
    }

    /// The window kernels' IO: loads resolve the anchor's input, stores run
    /// the epilogues.
    fn window<'b>(&'b self, op: &DefOp) -> WindowIo<'b> {
        let x = op.operands[0].0;
        WindowIo {
            name: String::new(),
            load: Box::new(move |idx| self.resolve(x, idx)),
            store: Box::new(move |idx, v| self.store(idx.to_vec(), v)),
            params: self.params.clone(),
        }
    }
}

/// Compiles one fused group into kernels (paper Fig. 10 steps 3–4): its
/// spec, the definition's kernels, bound to the group's names.
///
/// # Errors
/// [`GroupDef::generate`]'s error, after the group's kernel name.
pub fn compile_group(
    graph: &Graph,
    group: &FusedGroup,
    schedule: &GroupSchedule,
) -> Result<CompiledGroup, String> {
    let spec = GroupSpec::of(graph, group, schedule);
    let kernels = (spec.def.generate()).map_err(|e| format!("{}: {e}", spec.names.kernel))?;
    Ok(kernels.bind(&spec.names))
}

/// The indices of a matmul operand or result of `shape` at template
/// coordinates `(batch, row, col)`: the batch index only when it is batched.
fn matmul_indices(shape: &[i64], b: &Expr, i: &Expr, j: &Expr) -> Vec<Expr> {
    if shape.len() == 3 {
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

#[cfg(test)]
mod tests {
    use super::*;
    use hidet_graph::models;
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
    /// `b` they have different specs, and the first's kernels bound to the
    /// second's names are not the second's.
    fn assert_generated_apart(graph: &Graph, a: &GroupSchedule, b: &GroupSchedule) {
        let groups = partition(graph);
        assert_eq!(groups.len(), 2, "{groups:?}");
        let first = GroupSpec::of(graph, &groups[0], a);
        let second = GroupSpec::of(graph, &groups[1], b);
        assert_ne!(first.def, second.def);
        let bound = first.def.generate().unwrap().bind(&second.names);
        let fresh = compile_group(graph, &groups[1], b).unwrap();
        assert!(bound.difference(&fresh).is_some());
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
    fn equal_specs_bind_to_a_fresh_compile() {
        let graph = twin_matmuls();
        let groups = partition(&graph);
        assert_eq!(groups.len(), 2);
        let schedule = split_k();
        let first = GroupSpec::of(&graph, &groups[0], &schedule);
        let second = GroupSpec::of(&graph, &groups[1], &schedule);
        assert_eq!(first.def, second.def);
        let kernels = first.def.generate().unwrap();
        let compiled = kernels.bind(&first.names);
        assert_eq!(compiled.kernels.len(), 2, "split-K adds a reduce kernel");
        assert_eq!(compiled.scratch.len(), 1, "and a partials buffer");
        let fresh = compile_group(&graph, &groups[0], &schedule).unwrap();
        assert_eq!(compiled.difference(&fresh), None);
        let bound = kernels.bind(&second.names);
        let fresh = compile_group(&graph, &groups[1], &schedule).unwrap();
        assert_eq!(bound.difference(&fresh), None);
        for (a, b) in bound.kernels.iter().zip(&compiled.kernels) {
            assert!(std::sync::Arc::ptr_eq(a.definition(), b.definition()));
        }
        assert_eq!(
            bound.difference(&compiled),
            Some("kernel 0 (matmul_1_fused): name".into())
        );
    }

    /// A permutation of `0..n` from a shuffle seed.
    fn permutation(n: usize, seed: u64) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..n).collect();
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        for i in (1..n).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            perm.swap(i, (state >> 33) as usize % (i + 1));
        }
        perm
    }

    /// `kernel`'s CUDA with its parameters named by position alone.
    fn cuda_up_to_names(kernel: &Kernel) -> String {
        let names: Vec<String> = (0..kernel.params().len())
            .map(|i| format!("p{i}"))
            .collect();
        hidet_ir::cuda::to_cuda(&kernel.renamed(kernel.name(), &names))
    }

    #[test]
    fn renumbered_tensors_move_only_names() {
        // Renumbering a graph's tensors moves every tensor id, and with it
        // every parameter name, but nothing a kernel computes.
        let mut pools = GraphBuilder::new("pools");
        let x = pools.input("x", &[1, 3, 10, 10]);
        let y = pools.conv_bn_relu(x, 8, 3, 1, 1);
        let y = pools.max_pool(y, 3, 2, 1);
        let y = pools.avg_pool(y, 2, 2, 0);
        let graphs = [
            pools.output(y).build(),
            models::mobilenet_v2(1),
            models::gpt2_decode_step(2, 16),
        ];
        for (seed, mut graph) in graphs.into_iter().enumerate() {
            lower_convs(&mut graph);
            constant_fold(&mut graph);
            let renumbered = graph.renumbered(&permutation(graph.num_tensors(), seed as u64));
            let (groups, again) = (partition(&graph), partition(&renumbered));
            assert_eq!(groups.len(), again.len());
            let mut renamed = 0;
            for (a, b) in groups.iter().zip(&again) {
                let schedule = split_k();
                let first = GroupSpec::of(&graph, a, &schedule);
                let second = GroupSpec::of(&renumbered, b, &schedule);
                assert_eq!(first.def, second.def, "{}", first.names.kernel);
                renamed += usize::from(first.names.inputs != second.names.inputs);
                let ka = first.def.generate().unwrap().bind(&first.names);
                let kb = second.def.generate().unwrap().bind(&second.names);
                assert_eq!(ka.kernels.len(), kb.kernels.len());
                for (x, y) in ka.kernels.iter().zip(&kb.kernels) {
                    assert_eq!(cuda_up_to_names(x), cuda_up_to_names(y), "{}", x.name());
                }
            }
            assert!(renamed > 0, "{}: no input moved", graph.name());
        }
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
