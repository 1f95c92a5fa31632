//! Graph-level optimization passes (paper Fig. 10, step 2).
//!
//! * [`constant_fold`] — operators whose inputs are all constants become
//!   constants, evaluated on first read (weight reshapes/transposes
//!   introduced by the conv lowering disappear here);
//! * [`lower_convs`] — rewrites dense `Conv2d` into the paper's implicit-GEMM
//!   form (§5.2, §6.3.4): `img2col → matmul → reshape/transpose` so that
//!   convolutions reuse the matmul template plus post-scheduling fusion;
//! * [`partition`] — groups operators into fusible sub-graphs around anchor
//!   operators (§4.2, Fig. 6/9).

use std::collections::HashMap;

use crate::graph::{Graph, OpId, TensorId};
use crate::hash::StableHasher;
use crate::op::{OpKind, Operator};
use crate::reference;
use crate::tensor::Tensor;

/// Replaces the output of every operator whose inputs are all constants with
/// a constant tensor and drops the operator. The value is computed on the
/// constant's first read, so a compile that never reads it (none does)
/// never pays for it.
///
/// Returns the number of folded operators.
pub fn constant_fold(graph: &mut Graph) -> usize {
    let (tensors, ops) = graph.parts();
    let mut tensors: Vec<Tensor> = tensors.to_vec();
    let mut kept: Vec<Operator> = Vec::with_capacity(ops.len());
    let mut folded = 0usize;
    for op in ops {
        let all_const = op.inputs.iter().all(|t| tensors[t.0].is_const());
        if all_const {
            let out_shape = tensors[op.output.0].shape().to_vec();
            tensors[op.output.0] = if let OpKind::Reshape { .. } = op.kind {
                // Row-major order is unchanged: share the payload.
                tensors[op.inputs[0].0].reshaped(&out_shape)
            } else {
                let kind = op.kind.clone();
                let inputs: Vec<Tensor> = op.inputs.iter().map(|t| tensors[t.0].clone()).collect();
                let digest = fold_digest(&kind, &inputs, &out_shape);
                let shape = out_shape.clone();
                Tensor::lazy(&out_shape, digest, move || {
                    let ins: Vec<&[f32]> =
                        inputs.iter().map(|t| t.data().expect("const")).collect();
                    let shapes: Vec<&[i64]> = inputs.iter().map(Tensor::shape).collect();
                    reference::eval_kind(&kind, &ins, &shapes, &shape)
                })
            };
            folded += 1;
        } else {
            kept.push(op.clone());
        }
    }
    let inputs = graph.inputs().to_vec();
    let outputs = graph.outputs().to_vec();
    graph.replace(tensors, kept, inputs, outputs);
    folded
}

/// A folded constant's digest: the operator (kind and attributes), then each
/// input's shape and digest, then the output shape — everything
/// `reference::eval_kind` computes the elements from.
fn fold_digest(kind: &OpKind, inputs: &[Tensor], out_shape: &[i64]) -> u64 {
    let mut h = StableHasher::new();
    h.write_str("fold");
    h.write_str(&format!("{kind:?}"));
    let shape = |h: &mut StableHasher, shape: &[i64]| {
        h.write_u64(shape.len() as u64);
        for &d in shape {
            h.write_i64(d);
        }
    };
    h.write_u64(inputs.len() as u64);
    for t in inputs {
        shape(&mut h, t.shape());
        h.write_u64(t.digest().expect("a folded input is a constant"));
    }
    shape(&mut h, out_shape);
    h.finish()
}

/// Rewrites every dense convolution (`groups == 1`) into
/// `img2col → matmul → reshape → transpose → reshape` (implicit GEMM).
///
/// Depthwise/grouped convolutions are left intact — they are scheduled
/// directly by the rule-based scheduler, matching the paper's observation that
/// Hidet does not (yet) use dedicated schedules for depthwise convolution
/// (§6.2, the MobileNet-V2 discussion).
///
/// Returns the number of convolutions rewritten. Run [`constant_fold`]
/// afterwards to fold the weight transforms.
pub fn lower_convs(graph: &mut Graph) -> usize {
    let (tensors, ops) = graph.parts();
    let mut tensors: Vec<Tensor> = tensors.to_vec();
    let mut new_ops: Vec<Operator> = Vec::with_capacity(ops.len());
    let mut rewritten = 0usize;
    let mut fresh: HashMap<&'static str, usize> = HashMap::new();
    for op in ops {
        match &op.kind {
            OpKind::Conv2d {
                stride,
                padding,
                groups,
            } if *groups == 1 => {
                let x = op.inputs[0];
                let w = op.inputs[1];
                let xs = tensors[x.0].shape().to_vec();
                let ws = tensors[w.0].shape().to_vec();
                let (n, o) = (xs[0], ws[0]);
                let (kh, kw) = (ws[2], ws[3]);
                let out_shape = tensors[op.output.0].shape().to_vec();
                let (oh, ow) = (out_shape[2], out_shape[3]);
                let ckk = xs[1] * kh * kw;
                let mut push = |kind: OpKind,
                                inputs: Vec<TensorId>,
                                tensors: &mut Vec<Tensor>,
                                out: Option<TensorId>|
                 -> TensorId {
                    let shapes: Vec<Vec<i64>> = inputs
                        .iter()
                        .map(|t| tensors[t.0].shape().to_vec())
                        .collect();
                    let shape_refs: Vec<&[i64]> = shapes.iter().map(|s| s.as_slice()).collect();
                    let out_shape = kind.infer_shape(&shape_refs);
                    let output = out.unwrap_or_else(|| {
                        tensors.push(Tensor::symbolic(&out_shape, hidet_ir::DType::F32));
                        TensorId(tensors.len() - 1)
                    });
                    let c = fresh.entry(kind.mnemonic()).or_insert(1000);
                    let name = format!("{}_{}", kind.mnemonic(), c);
                    *c += 1;
                    new_ops.push(Operator {
                        name,
                        kind,
                        inputs,
                        output,
                    });
                    output
                };
                // Data path: unfold input windows.
                let cols = push(
                    OpKind::Img2col {
                        kernel: kh,
                        stride: *stride,
                        padding: *padding,
                    },
                    vec![x],
                    &mut tensors,
                    None,
                );
                // Weight path (const-folds away): [O,C,KH,KW] -> [CKK, O].
                let wr = push(
                    OpKind::Reshape {
                        shape: vec![o, ckk],
                    },
                    vec![w],
                    &mut tensors,
                    None,
                );
                let wt = push(
                    OpKind::Transpose { perm: vec![1, 0] },
                    vec![wr],
                    &mut tensors,
                    None,
                );
                // GEMM and fold back to NCHW.
                let mm = push(OpKind::Matmul, vec![cols, wt], &mut tensors, None);
                let r1 = push(
                    OpKind::Reshape {
                        shape: vec![n, oh * ow, o],
                    },
                    vec![mm],
                    &mut tensors,
                    None,
                );
                let t1 = push(
                    OpKind::Transpose {
                        perm: vec![0, 2, 1],
                    },
                    vec![r1],
                    &mut tensors,
                    None,
                );
                let _ = push(
                    OpKind::Reshape {
                        shape: out_shape.clone(),
                    },
                    vec![t1],
                    &mut tensors,
                    Some(op.output),
                );
                let _ = kw;
                rewritten += 1;
            }
            _ => new_ops.push(op.clone()),
        }
    }
    let inputs = graph.inputs().to_vec();
    let outputs = graph.outputs().to_vec();
    graph.replace(tensors, new_ops, inputs, outputs);
    rewritten
}

/// A fusible sub-graph: at most one anchor plus its prologues and epilogues
/// (paper Fig. 9). Pure-injective chains form anchor-less groups.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedGroup {
    /// The anchor operator, if any.
    pub anchor: Option<OpId>,
    /// All member operators in topological order (anchor included).
    pub ops: Vec<OpId>,
}

impl FusedGroup {
    /// Tensors consumed by the group but produced outside it (or constants).
    pub fn external_inputs(&self, graph: &Graph) -> Vec<TensorId> {
        let produced: Vec<TensorId> = self.ops.iter().map(|&o| graph.op(o).output).collect();
        let mut seen = Vec::new();
        for &o in &self.ops {
            for &t in &graph.op(o).inputs {
                if !produced.contains(&t) && !seen.contains(&t) {
                    seen.push(t);
                }
            }
        }
        seen
    }

    /// The group's single output tensor (the last operator's output).
    pub fn output(&self, graph: &Graph) -> TensorId {
        graph
            .op(*self.ops.last().expect("group is non-empty"))
            .output
    }

    /// Operators strictly before the anchor (prologues), in topo order.
    pub fn prologues(&self) -> Vec<OpId> {
        match self.anchor {
            None => Vec::new(),
            Some(a) => self.ops.iter().copied().take_while(|&o| o != a).collect(),
        }
    }

    /// Operators strictly after the anchor (epilogues), in topo order.
    pub fn epilogues(&self) -> Vec<OpId> {
        match self.anchor {
            None => Vec::new(),
            Some(a) => self
                .ops
                .iter()
                .copied()
                .skip_while(|&o| o != a)
                .skip(1)
                .collect(),
        }
    }
}

/// Partitions the graph into fused groups (paper §4.2/§5.2, step 1 of Fig. 15).
///
/// Greedy, in topological order: every anchor operator absorbs
///
/// * *prologues*: injective producers of its inputs whose outputs have no
///   other consumer, transitively;
/// * *epilogues*: the chain of bijective single consumers of its output.
///
/// Remaining operators form maximal single-consumer injective chains.
///
/// Linear in the graph: each tensor's producer, consumers and output flag
/// are tabled once, in one pass over the operators.
pub fn partition(graph: &Graph) -> Vec<FusedGroup> {
    let num_ops = graph.ops().len();
    // As `Graph::producer` and `Graph::consumers` answer: the first op
    // producing a tensor; each op consuming it once, in op order.
    let mut producer: Vec<Option<OpId>> = vec![None; graph.num_tensors()];
    let mut consumers: Vec<Vec<OpId>> = vec![Vec::new(); graph.num_tensors()];
    for (i, op) in graph.ops().iter().enumerate() {
        producer[op.output.0].get_or_insert(OpId(i));
        for t in &op.inputs {
            if consumers[t.0].last() != Some(&OpId(i)) {
                consumers[t.0].push(OpId(i));
            }
        }
    }
    let mut is_output = vec![false; graph.num_tensors()];
    for t in graph.outputs() {
        is_output[t.0] = true;
    }
    let mut assigned = vec![false; num_ops];
    let mut groups: Vec<FusedGroup> = Vec::new();

    // Pass 1: anchor groups.
    for idx in 0..num_ops {
        let op = graph.op(OpId(idx));
        if !op.kind.is_anchor() || assigned[idx] {
            continue;
        }
        let mut members = vec![OpId(idx)];
        assigned[idx] = true;
        // Absorb prologues, transitively.
        let mut stack: Vec<TensorId> = op.inputs.clone();
        while let Some(t) = stack.pop() {
            let Some(p) = producer[t.0] else { continue };
            if assigned[p.0] {
                continue;
            }
            let pk = &graph.op(p).kind;
            // A graph output's producer must materialize its tensor even
            // when the anchor is its only operator consumer (the decode
            // models emit updated KV caches that are outputs *and* feed the
            // attention anchor) — absorbing it would skip the write.
            if pk.prologue_eligible() && consumers[t.0].len() == 1 && !is_output[t.0] {
                assigned[p.0] = true;
                members.push(p);
                stack.extend(graph.op(p).inputs.iter().copied());
            }
        }
        // Absorb the epilogue chain.
        let mut tail = op.output;
        while let &[e] = consumers[tail.0].as_slice() {
            if assigned[e.0] {
                break;
            }
            let eop = graph.op(e);
            let input_idx = eop
                .inputs
                .iter()
                .position(|&t| t == tail)
                .expect("consumer must reference tail");
            let eligible = eop.kind.epilogue_eligible(
                input_idx,
                graph.tensor(tail).shape(),
                graph.tensor(eop.output).shape(),
            );
            // Don't absorb graph outputs' producers past the output tensor.
            if !eligible || is_output[tail.0] {
                break;
            }
            assigned[e.0] = true;
            members.push(e);
            tail = eop.output;
        }
        members.sort();
        groups.push(FusedGroup {
            anchor: Some(OpId(idx)),
            ops: members,
        });
    }

    // Pass 2: injective chains.
    for idx in 0..num_ops {
        if assigned[idx] {
            continue;
        }
        let mut members = vec![OpId(idx)];
        assigned[idx] = true;
        let mut tail = graph.op(OpId(idx)).output;
        while let &[e] = consumers[tail.0].as_slice() {
            if is_output[tail.0] || assigned[e.0] || graph.op(e).kind.is_anchor() {
                break;
            }
            assigned[e.0] = true;
            members.push(e);
            tail = graph.op(e).output;
        }
        groups.push(FusedGroup {
            anchor: None,
            ops: members,
        });
    }

    // Execution order: a group's external inputs are always outputs of groups
    // whose *last* member precedes this group's last member (the consumer of
    // any external tensor was created after its producer), so sorting by the
    // maximum member id yields a valid schedule.
    groups.sort_by_key(|g| *g.ops.last().expect("groups are non-empty"));
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::op::UnaryKind;
    use crate::reference::{execute, ValueMap};
    use crate::tensor::Tensor;

    #[test]
    fn constant_folding_removes_weight_transforms() {
        let mut g = GraphBuilder::new("t");
        let x = g.input("x", &[4, 4]);
        let w = g.constant(Tensor::randn(&[4, 4], 7));
        let wt = g.transpose(w, &[1, 0]);
        let y = g.matmul(x, wt);
        let mut graph = g.output(y).build();
        let folded = constant_fold(&mut graph);
        assert_eq!(folded, 1);
        assert_eq!(graph.ops().len(), 1); // only the matmul survives
        assert!(graph.tensor(wt).is_const());
    }

    #[test]
    fn folded_constant_reshape_shares_its_inputs_payload() {
        let mut g = GraphBuilder::new("t");
        let x = g.input("x", &[4, 6]);
        let w = g.constant(Tensor::randn(&[2, 3, 4], 7));
        let wr = g.reshape(w, &[6, 4]);
        let y = g.matmul(x, wr);
        let mut graph = g.output(y).build();
        assert_eq!(constant_fold(&mut graph), 1);
        let (before, after) = (graph.tensor(w), graph.tensor(wr));
        assert_eq!(after.shape(), &[6, 4]);
        assert!(std::ptr::eq(before.data().unwrap(), after.data().unwrap()));
    }

    #[test]
    fn conv_weight_fold_reproduces_the_parent_commits_graphs() {
        // `structural_hash` of the zoo's conv models after `lower_convs` +
        // `constant_fold`, captured at the commit before the fold stopped
        // going through a per-element `reference::transpose` and a copying
        // `Reshape`, when that hash still absorbed every constant element:
        // `content_hash` is that algorithm. It covers every folded weight's
        // bits, so the odometer, the tiled matrix case and the shared
        // reshape are pinned on every weight the zoo has (inception's 1x7 /
        // 7x1 kernels are the non-square ones).
        let golden: [(&str, u64); 3] = [
            ("resnet50", 0x7a0695b99fd85abd),
            ("inception_v3", 0x31b4514bcf940c32),
            ("mobilenet_v2", 0x925c35d325e05d5e),
        ];
        for (name, want) in golden {
            let mut graph = crate::models::by_name(name, 1).expect("a zoo model");
            lower_convs(&mut graph);
            constant_fold(&mut graph);
            assert_eq!(graph.content_hash(), want, "{name}");
        }
    }

    #[test]
    fn lowering_and_folding_read_no_constant() {
        // Neither a weight as built nor anything folded from it, at any
        // step from the model's build to its folded graph.
        let assert_unread = |graph: &Graph, step: &str| {
            let constants: Vec<TensorId> = (0..graph.num_tensors())
                .map(TensorId)
                .filter(|&t| graph.tensor(t).is_const())
                .collect();
            assert!(!constants.is_empty());
            for t in constants {
                assert!(
                    !graph.tensor(t).is_evaluated(),
                    "{} {step}: t{} was read",
                    graph.name(),
                    t.0
                );
            }
        };
        for name in ["resnet50", "gpt2"] {
            let mut graph = crate::models::by_name(name, 1).expect("a zoo model");
            assert_unread(&graph, "as built");
            graph.structural_hash();
            assert_unread(&graph, "hashed");
            lower_convs(&mut graph);
            assert_unread(&graph, "lowered");
            let folded = constant_fold(&mut graph);
            assert!(
                folded > 0 || name == "gpt2",
                "resnet50 folds its conv weights"
            );
            assert_unread(&graph, "folded");
            graph.structural_hash();
            assert_unread(&graph, "folded and hashed");
        }
    }

    #[test]
    fn conv_lowering_preserves_semantics() {
        let mut g = GraphBuilder::new("t");
        let x = g.input("x", &[1, 3, 8, 8]);
        let w = g.constant(Tensor::randn(&[8, 3, 3, 3], 3));
        let y = g.conv2d(x, w, 1, 1);
        let mut graph = g.output(y).build();

        let mut inputs = ValueMap::new();
        inputs.insert(x, Tensor::randn(&[1, 3, 8, 8], 9).data().unwrap().to_vec());
        let before = execute(&graph, &inputs)[&y].clone();

        let n = lower_convs(&mut graph);
        assert_eq!(n, 1);
        constant_fold(&mut graph);
        assert!(graph
            .ops()
            .iter()
            .all(|op| !matches!(op.kind, OpKind::Conv2d { .. })));
        let after = execute(&graph, &inputs)[&y].clone();
        for (a, b) in before.iter().zip(&after) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn depthwise_conv_not_lowered() {
        let mut g = GraphBuilder::new("t");
        let x = g.input("x", &[1, 8, 8, 8]);
        let w = g.weight(&[8, 1, 3, 3]);
        let y = g.depthwise_conv2d(x, w, 1, 1);
        let mut graph = g.output(y).build();
        assert_eq!(lower_convs(&mut graph), 0);
        assert_eq!(graph.ops().len(), 1);
    }

    #[test]
    fn partition_groups_conv_bn_relu_around_matmul() {
        // The paper's canonical sub-graph (Fig. 6) after conv lowering:
        // img2col -> matmul -> reshape -> transpose -> reshape -> bn -> relu
        let mut g = GraphBuilder::new("t");
        let x = g.input("x", &[1, 3, 8, 8]);
        let y = g.conv_bn_relu(x, 8, 3, 1, 1);
        let mut graph = g.output(y).build();
        lower_convs(&mut graph);
        constant_fold(&mut graph);
        let groups = partition(&graph);
        assert_eq!(groups.len(), 1, "{groups:?}");
        let group = &groups[0];
        let anchor = group.anchor.unwrap();
        assert!(matches!(graph.op(anchor).kind, OpKind::Matmul));
        assert_eq!(group.prologues().len(), 1); // img2col
        assert_eq!(group.epilogues().len(), 5); // reshape,transpose,reshape,bn,relu
        assert_eq!(group.output(&graph), y);
    }

    #[test]
    fn partition_respects_multi_consumer_boundaries() {
        let mut g = GraphBuilder::new("t");
        let x = g.input("x", &[4, 4]);
        let w = g.weight(&[4, 4]);
        let m = g.matmul(x, w);
        let a = g.relu(m);
        let b = g.tanh(m); // m has two consumers: no epilogue absorption
        let out = g.add(a, b);
        let graph = g.output(out).build();
        let groups = partition(&graph);
        let anchor_group = groups.iter().find(|gr| gr.anchor.is_some()).unwrap();
        assert_eq!(anchor_group.ops.len(), 1);
    }

    #[test]
    fn graph_output_producer_is_never_absorbed_as_prologue() {
        // cat = concat(past, fresh) is a graph output *and* the matmul's only
        // operator consumer. It must form its own group (materializing the
        // output buffer), not be inlined into the anchor.
        let mut g = GraphBuilder::new("t");
        let past = g.input("past", &[2, 3, 4]);
        let fresh = g.input("fresh", &[2, 1, 4]);
        let q = g.input("q", &[2, 1, 4]);
        let cat = g.concat(&[past, fresh], 1);
        let kt = g.transpose(cat, &[0, 2, 1]);
        let scores = g.batch_matmul(q, kt);
        let graph = g.output(scores).output(cat).build();
        let groups = partition(&graph);
        let concat_group = groups
            .iter()
            .find(|gr| gr.output(&graph) == cat)
            .expect("concat must own a group so its output is written");
        assert_eq!(concat_group.anchor, None);
        // The transpose (not an output) is still free to fuse as a prologue.
        let anchor_group = groups.iter().find(|gr| gr.anchor.is_some()).unwrap();
        assert_eq!(anchor_group.prologues().len(), 1);
    }

    #[test]
    fn injective_chain_forms_anchorless_group() {
        let mut g = GraphBuilder::new("t");
        let x = g.input("x", &[16]);
        let a = g.relu(x);
        let b = g.apply(OpKind::Unary(UnaryKind::Sigmoid), &[a]);
        let c = g.tanh(b);
        let graph = g.output(c).build();
        let groups = partition(&graph);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].anchor, None);
        assert_eq!(groups[0].ops.len(), 3);
    }

    #[test]
    fn external_inputs_excludes_internal_tensors() {
        let mut g = GraphBuilder::new("t");
        let x = g.input("x", &[4, 4]);
        let w = g.weight(&[4, 4]);
        let m = g.matmul(x, w);
        let r = g.relu(m);
        let graph = g.output(r).build();
        let groups = partition(&graph);
        assert_eq!(groups.len(), 1);
        let exts = groups[0].external_inputs(&graph);
        assert!(exts.contains(&x));
        assert!(exts.contains(&w));
        assert!(!exts.contains(&m));
    }

    #[test]
    fn every_op_assigned_exactly_once() {
        let mut g = GraphBuilder::new("t");
        let x = g.input("x", &[1, 3, 16, 16]);
        let mut y = g.conv_bn_relu(x, 8, 3, 1, 1);
        y = g.conv_bn_relu(y, 8, 3, 2, 1);
        let p = g.global_avg_pool(y);
        let out = g.linear(p, 10);
        let mut graph = g.output(out).build();
        lower_convs(&mut graph);
        constant_fold(&mut graph);
        let groups = partition(&graph);
        let mut seen = std::collections::HashSet::new();
        for gr in &groups {
            for op in &gr.ops {
                assert!(seen.insert(*op), "op {op:?} in two groups");
            }
        }
        assert_eq!(seen.len(), graph.ops().len());
    }
}
