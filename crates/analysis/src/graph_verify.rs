//! The graph IR verifier: structural well-formedness, shape re-inference,
//! and the decode/prefill KV-cache interface rules.
//!
//! Compiler passes rewrite the operator and tensor tables wholesale
//! (`lower_convs`, `constant_fold` rebuild both), so the builder-time
//! validation of `GraphBuilder` proves nothing about a *post-pass* graph.
//! [`verify_graph`] re-proves the invariants from scratch:
//!
//! * **cheap** ([`VerifyLevel::Cheap`], always on in the compiler): every id
//!   in range, def-before-use order, no self-cycles, every tensor produced
//!   at most once, outputs produced, inputs well-formed — one O(ops) sweep;
//! * **deep** ([`VerifyLevel::Deep`]): full shape/arity re-inference through
//!   a non-panicking re-implementation of `OpKind::infer_shape` (double-entry
//!   bookkeeping: an independently coded checker, so a bug in inference and a
//!   bug in checking must coincide to slip through), plus the KV-cache
//!   family rules below.
//!
//! **KV-family rules.** A graph is in the KV family when any graph output is
//! produced by a `Concat{axis: 1}` whose first input is a graph input — the
//! cache-append idiom of the `transformer_pass` family
//! (`new_kv = concat(past_kv, fresh_kv, axis=1)`). For those graphs:
//!
//! * HA007: cache streams pair up (even count) and agree on
//!   `[rows, past] -> [rows, past + chunk]` with one `head_dim`;
//! * HA008: exactly one additive-mask input exists with shape
//!   `[rows, chunk, past + chunk]` — which covers both the decode step
//!   (`chunk == 1`) and every prefill chunk graph.

use std::collections::HashSet;

use hidet_graph::passes::FusedGroup;
use hidet_graph::{Graph, OpKind, TensorId};

use crate::diag::{Diagnostic, Rule};

/// How much of the verifier runs. Ordered: each level includes the previous.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum VerifyLevel {
    /// No verification (bench baselines only — the compiler's default is
    /// [`VerifyLevel::Cheap`]).
    Off,
    /// O(ops) structural checks: ids, order, producers, inputs/outputs.
    #[default]
    Cheap,
    /// Cheap plus shape/arity re-inference and the KV-family rules.
    Deep,
}

/// Verifies one graph. Returns every finding; an empty vector is a proof
/// that all enabled rules hold.
pub fn verify_graph(graph: &Graph, level: VerifyLevel) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if level == VerifyLevel::Off {
        return diags;
    }
    let n_tensors = graph.num_tensors();
    let loc = |op_name: &str| format!("{}::{}", graph.name(), op_name);

    // One pass to build the producer map; duplicate producers and dangling
    // output ids surface here.
    let mut producer: Vec<Option<usize>> = vec![None; n_tensors];
    for (i, op) in graph.ops().iter().enumerate() {
        if op.output.0 >= n_tensors {
            diags.push(Diagnostic::error(
                Rule::DanglingId,
                loc(&op.name),
                format!(
                    "output tensor t{} out of range (graph has {n_tensors} tensors)",
                    op.output.0
                ),
            ));
            continue;
        }
        match producer[op.output.0] {
            Some(prev) => diags.push(Diagnostic::error(
                Rule::DuplicateProducer,
                loc(&op.name),
                format!(
                    "tensor t{} already produced by {}",
                    op.output.0,
                    graph.ops()[prev].name
                ),
            )),
            None => producer[op.output.0] = Some(i),
        }
    }

    // Per-op structural checks.
    for (i, op) in graph.ops().iter().enumerate() {
        if op.inputs.contains(&op.output) {
            diags.push(Diagnostic::error(
                Rule::SelfCycle,
                loc(&op.name),
                format!("operator consumes its own output t{}", op.output.0),
            ));
        }
        for &t in &op.inputs {
            if t.0 >= n_tensors {
                diags.push(Diagnostic::error(
                    Rule::DanglingId,
                    loc(&op.name),
                    format!(
                        "input tensor t{} out of range (graph has {n_tensors} tensors)",
                        t.0
                    ),
                ));
                continue;
            }
            // `p == i` is the self-cycle above; only strictly-later
            // producers are an order violation.
            if let Some(p) = producer[t.0] {
                if p > i {
                    diags.push(Diagnostic::error(
                        Rule::TopologicalOrder,
                        loc(&op.name),
                        format!(
                            "input t{} is produced by the later operator {} (index {p} > {i})",
                            t.0,
                            graph.ops()[p].name
                        ),
                    ));
                }
            }
        }
    }

    // Graph inputs: in range, unique, symbolic, never produced.
    let mut seen_inputs = HashSet::new();
    for &t in graph.inputs() {
        if t.0 >= n_tensors {
            diags.push(Diagnostic::error(
                Rule::DanglingId,
                graph.name(),
                format!(
                    "graph input t{} out of range (graph has {n_tensors} tensors)",
                    t.0
                ),
            ));
            continue;
        }
        if !seen_inputs.insert(t) {
            diags.push(Diagnostic::error(
                Rule::BadGraphInput,
                graph.name(),
                format!("graph input t{} listed more than once", t.0),
            ));
            continue;
        }
        if graph.tensor(t).is_const() {
            diags.push(Diagnostic::error(
                Rule::BadGraphInput,
                graph.name(),
                format!(
                    "graph input t{} is a constant (inputs must be symbolic)",
                    t.0
                ),
            ));
        }
        if let Some(p) = producer[t.0] {
            diags.push(Diagnostic::error(
                Rule::BadGraphInput,
                graph.name(),
                format!(
                    "graph input t{} is produced by operator {}",
                    t.0,
                    graph.ops()[p].name
                ),
            ));
        }
    }

    // Graph outputs: in range and actually produced (by an op, or directly a
    // graph input / constant).
    for &t in graph.outputs() {
        if t.0 >= n_tensors {
            diags.push(Diagnostic::error(
                Rule::DanglingId,
                graph.name(),
                format!(
                    "graph output t{} out of range (graph has {n_tensors} tensors)",
                    t.0
                ),
            ));
            continue;
        }
        if producer[t.0].is_none() && !graph.inputs().contains(&t) && !graph.tensor(t).is_const() {
            diags.push(Diagnostic::error(
                Rule::UnproducedOutput,
                graph.name(),
                format!("graph output t{} is never produced", t.0),
            ));
        }
    }

    if level >= VerifyLevel::Deep {
        // Shape/arity re-inference: skip ops already flagged for dangling
        // ids (their shapes cannot be read).
        for op in graph.ops() {
            if op.output.0 >= n_tensors || op.inputs.iter().any(|t| t.0 >= n_tensors) {
                continue;
            }
            let shapes = graph.input_shapes(op);
            match infer_shape_checked(&op.kind, &shapes) {
                Err(msg) => diags.push(Diagnostic::error(Rule::ShapeMismatch, loc(&op.name), msg)),
                Ok(shape) => {
                    let recorded = graph.tensor(op.output).shape();
                    if shape != recorded {
                        diags.push(Diagnostic::error(
                            Rule::ShapeMismatch,
                            loc(&op.name),
                            format!(
                                "re-inferred output shape {shape:?} but t{} records {recorded:?}",
                                op.output.0
                            ),
                        ));
                    }
                }
            }
        }
        diags.extend(verify_kv_family(graph, &producer));
    }
    diags
}

/// Verifies a fusion partition against its graph (rule HA010): every
/// operator in exactly one group, members sorted in topological order,
/// anchors members of their own groups.
pub fn verify_partition(graph: &Graph, groups: &[FusedGroup]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let n_ops = graph.ops().len();
    let mut owner: Vec<Option<usize>> = vec![None; n_ops];
    for (gi, group) in groups.iter().enumerate() {
        let gloc = format!("{}::group {gi}", graph.name());
        if group.ops.is_empty() {
            diags.push(Diagnostic::error(
                Rule::PartitionCoverage,
                &gloc,
                "group has no operators",
            ));
            continue;
        }
        if !group.ops.windows(2).all(|w| w[0] < w[1]) {
            diags.push(Diagnostic::error(
                Rule::PartitionCoverage,
                &gloc,
                format!("group members {:?} are not strictly increasing", group.ops),
            ));
        }
        for &op in &group.ops {
            if op.0 >= n_ops {
                diags.push(Diagnostic::error(
                    Rule::PartitionCoverage,
                    &gloc,
                    format!("member op {} out of range ({n_ops} ops)", op.0),
                ));
                continue;
            }
            match owner[op.0] {
                Some(prev) => diags.push(Diagnostic::error(
                    Rule::PartitionCoverage,
                    &gloc,
                    format!("op {} already belongs to group {prev}", graph.op(op).name),
                )),
                None => owner[op.0] = Some(gi),
            }
        }
        if let Some(anchor) = group.anchor {
            if anchor.0 >= n_ops {
                diags.push(Diagnostic::error(
                    Rule::PartitionCoverage,
                    &gloc,
                    format!("anchor op {} out of range ({n_ops} ops)", anchor.0),
                ));
            } else {
                if !group.ops.contains(&anchor) {
                    diags.push(Diagnostic::error(
                        Rule::PartitionCoverage,
                        &gloc,
                        format!("anchor {} is not a group member", graph.op(anchor).name),
                    ));
                }
                if !graph.op(anchor).kind.is_anchor() {
                    diags.push(Diagnostic::error(
                        Rule::PartitionCoverage,
                        &gloc,
                        format!(
                            "anchor {} is not a reduction-class operator",
                            graph.op(anchor).name
                        ),
                    ));
                }
            }
        }
    }
    for (i, o) in owner.iter().enumerate() {
        if o.is_none() {
            diags.push(Diagnostic::error(
                Rule::PartitionCoverage,
                graph.name(),
                format!("op {} belongs to no group", graph.ops()[i].name),
            ));
        }
    }
    diags
}

/// The KV-family rules (HA007, HA008). `producer` is the prebuilt map from
/// the cheap pass; ids are assumed in range (dangling ids were reported).
fn verify_kv_family(graph: &Graph, producer: &[Option<usize>]) -> Vec<Diagnostic> {
    // A cache stream: (updated-cache output, past input feeding its concat).
    let mut streams: Vec<(TensorId, TensorId)> = Vec::new();
    for &out in graph.outputs() {
        if out.0 >= producer.len() {
            continue;
        }
        let Some(p) = producer[out.0] else { continue };
        let op = &graph.ops()[p];
        if !matches!(op.kind, OpKind::Concat { axis: 1 }) {
            continue;
        }
        let Some(&first) = op.inputs.first() else {
            continue;
        };
        if first.0 < graph.num_tensors() && graph.inputs().contains(&first) {
            streams.push((out, first));
        }
    }
    if streams.is_empty() {
        return Vec::new(); // not a decode/prefill graph
    }
    let mut diags = Vec::new();
    let gloc = graph.name().to_string();
    if !streams.len().is_multiple_of(2) {
        diags.push(Diagnostic::error(
            Rule::KvPairing,
            &gloc,
            format!(
                "{} KV-cache streams — k/v caches must pair up to an even count",
                streams.len()
            ),
        ));
    }
    // All streams must agree on [rows, past] -> [rows, past + chunk] with
    // one head_dim. Take the first well-formed stream as the reference.
    let mut reference: Option<(i64, i64, i64, i64)> = None; // rows, past, chunk, head_dim
    for &(out, past_in) in &streams {
        let out_shape = graph.tensor(out).shape();
        let past_shape = graph.tensor(past_in).shape();
        if out_shape.len() != 3 || past_shape.len() != 3 {
            diags.push(Diagnostic::error(
                Rule::KvPairing,
                &gloc,
                format!(
                    "KV stream t{} -> t{} must be rank 3, got {past_shape:?} -> {out_shape:?}",
                    past_in.0, out.0
                ),
            ));
            continue;
        }
        let (rows, past, head_dim) = (past_shape[0], past_shape[1], past_shape[2]);
        let chunk = out_shape[1] - past;
        if out_shape[0] != rows || out_shape[2] != head_dim || chunk < 1 {
            diags.push(Diagnostic::error(
                Rule::KvPairing,
                &gloc,
                format!(
                    "KV stream t{} -> t{}: {past_shape:?} must grow to [rows, past+chunk, \
                     head_dim], got {out_shape:?}",
                    past_in.0, out.0
                ),
            ));
            continue;
        }
        match reference {
            None => reference = Some((rows, past, chunk, head_dim)),
            Some(expect) => {
                if (rows, past, chunk, head_dim) != expect {
                    diags.push(Diagnostic::error(
                        Rule::KvPairing,
                        &gloc,
                        format!(
                            "KV stream t{} -> t{} has (rows, past, chunk, head_dim) = \
                             {:?}, other streams have {expect:?}",
                            past_in.0,
                            out.0,
                            (rows, past, chunk, head_dim)
                        ),
                    ));
                }
            }
        }
    }
    // The additive mask: the one rank-3 graph input that is not a past
    // stream, shaped [rows, chunk, past + chunk].
    if let Some((rows, past, chunk, _)) = reference {
        let past_inputs: HashSet<TensorId> = streams.iter().map(|&(_, p)| p).collect();
        let masks: Vec<TensorId> = graph
            .inputs()
            .iter()
            .copied()
            .filter(|&t| graph.tensor(t).shape().len() == 3 && !past_inputs.contains(&t))
            .collect();
        match masks.as_slice() {
            [mask] => {
                let want = [rows, chunk, past + chunk];
                let got = graph.tensor(*mask).shape();
                if got != want {
                    diags.push(Diagnostic::error(
                        Rule::MaskShape,
                        &gloc,
                        format!(
                            "additive mask t{} has shape {got:?}, expected {want:?} \
                             ([rows, chunk, past+chunk])",
                            mask.0
                        ),
                    ));
                }
            }
            [] => diags.push(Diagnostic::error(
                Rule::MaskShape,
                &gloc,
                "decode/prefill graph has no rank-3 additive-mask input".to_string(),
            )),
            many => diags.push(Diagnostic::error(
                Rule::MaskShape,
                &gloc,
                format!(
                    "expected exactly one additive-mask input, found {} rank-3 non-cache inputs",
                    many.len()
                ),
            )),
        }
    }
    diags
}

/// Non-panicking shape/arity inference — the verifier's independent
/// re-implementation of [`OpKind::infer_shape`] (which asserts, because
/// graph *construction* is its validation boundary; *verification* must
/// report, not abort).
pub fn infer_shape_checked(kind: &OpKind, inputs: &[&[i64]]) -> Result<Vec<i64>, String> {
    let need = |n: usize| -> Result<(), String> {
        if inputs.len() == n {
            Ok(())
        } else {
            Err(format!("expected {n} inputs, got {}", inputs.len()))
        }
    };
    match kind {
        OpKind::Conv2d {
            stride,
            padding,
            groups,
        } => {
            need(2)?;
            let (x, w) = (inputs[0], inputs[1]);
            if x.len() != 4 {
                return Err(format!("conv2d input must be NCHW, got {x:?}"));
            }
            if w.len() != 4 {
                return Err(format!("conv2d weight must be OIHW, got {w:?}"));
            }
            if *stride < 1 || *groups < 1 {
                return Err(format!(
                    "conv2d stride {stride}/groups {groups} must be positive"
                ));
            }
            if x[1] != w[1] * groups {
                return Err(format!(
                    "conv2d channel mismatch: {} vs {}*{groups}",
                    x[1], w[1]
                ));
            }
            if w[0] % groups != 0 {
                return Err(format!(
                    "output channels {} must divide groups {groups}",
                    w[0]
                ));
            }
            let oh = (x[2] + 2 * padding - w[2]) / stride + 1;
            let ow = (x[3] + 2 * padding - w[3]) / stride + 1;
            if oh < 1 || ow < 1 {
                return Err(format!("conv output collapsed: {oh}x{ow}"));
            }
            Ok(vec![x[0], w[0], oh, ow])
        }
        OpKind::Matmul => {
            need(2)?;
            let (a, b) = (inputs[0], inputs[1]);
            if a.len() != 2 || b.len() != 2 {
                return Err(format!("matmul operands must be 2-D, got {a:?} x {b:?}"));
            }
            if a[1] != b[0] {
                return Err(format!("matmul K mismatch: {a:?} x {b:?}"));
            }
            Ok(vec![a[0], b[1]])
        }
        OpKind::BatchMatmul => {
            need(2)?;
            let (a, b) = (inputs[0], inputs[1]);
            if a.len() != 3 || b.len() != 3 {
                return Err(format!(
                    "batch matmul operands must be 3-D, got {a:?} x {b:?}"
                ));
            }
            if a[0] != b[0] {
                return Err(format!("batch mismatch: {a:?} x {b:?}"));
            }
            if a[2] != b[1] {
                return Err(format!("K mismatch: {a:?} x {b:?}"));
            }
            Ok(vec![a[0], a[1], b[2]])
        }
        OpKind::Unary(_) => {
            need(1)?;
            Ok(inputs[0].to_vec())
        }
        OpKind::Binary(_) => {
            need(2)?;
            broadcast_checked(inputs[0], inputs[1])
        }
        OpKind::BatchNorm => {
            need(3)?;
            let x = inputs[0];
            if x.len() != 4 {
                return Err(format!("batchnorm input must be NCHW, got {x:?}"));
            }
            if inputs[1] != [x[1]] {
                return Err(format!("scale must be [{}], got {:?}", x[1], inputs[1]));
            }
            if inputs[2] != [x[1]] {
                return Err(format!("shift must be [{}], got {:?}", x[1], inputs[2]));
            }
            Ok(x.to_vec())
        }
        OpKind::Softmax { axis } => {
            need(1)?;
            if *axis >= inputs[0].len() {
                return Err(format!(
                    "softmax axis {axis} out of range for rank {}",
                    inputs[0].len()
                ));
            }
            Ok(inputs[0].to_vec())
        }
        OpKind::LayerNorm => {
            need(3)?;
            let x = inputs[0];
            let Some(&last) = x.last() else {
                return Err("layernorm input must have rank >= 1".to_string());
            };
            if inputs[1] != [last] {
                return Err(format!("gamma must be [{last}], got {:?}", inputs[1]));
            }
            if inputs[2] != [last] {
                return Err(format!("beta must be [{last}], got {:?}", inputs[2]));
            }
            Ok(x.to_vec())
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
            need(1)?;
            let x = inputs[0];
            if x.len() != 4 {
                return Err(format!("pooling input must be NCHW, got {x:?}"));
            }
            if *stride < 1 || *kernel < 1 {
                return Err(format!(
                    "pooling kernel {kernel}/stride {stride} must be positive"
                ));
            }
            let oh = (x[2] + 2 * padding - kernel) / stride + 1;
            let ow = (x[3] + 2 * padding - kernel) / stride + 1;
            if oh < 1 || ow < 1 {
                return Err(format!("pooling output collapsed: {oh}x{ow}"));
            }
            Ok(vec![x[0], x[1], oh, ow])
        }
        OpKind::GlobalAvgPool => {
            need(1)?;
            let x = inputs[0];
            if x.len() != 4 {
                return Err(format!("global pooling input must be NCHW, got {x:?}"));
            }
            Ok(vec![x[0], x[1]])
        }
        OpKind::Reshape { shape } => {
            need(1)?;
            if shape.iter().any(|&d| d < 0) {
                return Err(format!("reshape target {shape:?} has a negative extent"));
            }
            let vol_in: i64 = inputs[0].iter().product();
            let vol_out: i64 = shape.iter().product();
            if vol_in != vol_out {
                return Err(format!(
                    "reshape volume mismatch: {:?} -> {shape:?}",
                    inputs[0]
                ));
            }
            Ok(shape.clone())
        }
        OpKind::Transpose { perm } => {
            need(1)?;
            let x = inputs[0];
            if perm.len() != x.len() {
                return Err(format!("perm {perm:?} rank mismatch with input {x:?}"));
            }
            let mut seen = vec![false; perm.len()];
            for &p in perm {
                if p >= x.len() || seen[p] {
                    return Err(format!("invalid permutation {perm:?}"));
                }
                seen[p] = true;
            }
            Ok(perm.iter().map(|&p| x[p]).collect())
        }
        OpKind::Img2col {
            kernel,
            stride,
            padding,
        } => {
            need(1)?;
            let x = inputs[0];
            if x.len() != 4 {
                return Err(format!("img2col input must be NCHW, got {x:?}"));
            }
            if *stride < 1 || *kernel < 1 {
                return Err(format!(
                    "img2col kernel {kernel}/stride {stride} must be positive"
                ));
            }
            let oh = (x[2] + 2 * padding - kernel) / stride + 1;
            let ow = (x[3] + 2 * padding - kernel) / stride + 1;
            if oh < 1 || ow < 1 {
                return Err(format!("img2col output collapsed: {oh}x{ow}"));
            }
            Ok(vec![x[0] * oh * ow, x[1] * kernel * kernel])
        }
        OpKind::Concat { axis } => {
            let Some(first) = inputs.first() else {
                return Err("concat needs at least one input".to_string());
            };
            if *axis >= first.len() {
                return Err(format!(
                    "concat axis {axis} out of range for rank {}",
                    first.len()
                ));
            }
            let mut out = first.to_vec();
            for s in &inputs[1..] {
                if s.len() != first.len() {
                    return Err(format!("concat rank mismatch: {first:?} vs {s:?}"));
                }
                for (d, (&a, &b)) in first.iter().zip(s.iter()).enumerate() {
                    if d == *axis {
                        out[d] += b;
                    } else if a != b {
                        return Err(format!(
                            "concat non-axis dim {d} mismatch: {first:?} vs {s:?}"
                        ));
                    }
                }
            }
            Ok(out)
        }
    }
}

/// Non-panicking numpy-style broadcast (right-aligned).
fn broadcast_checked(a: &[i64], b: &[i64]) -> Result<Vec<i64>, String> {
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
            return Err(format!("cannot broadcast shapes {a:?} and {b:?}"));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidet_graph::models;
    use hidet_graph::passes::{constant_fold, lower_convs, partition};
    use hidet_graph::{GraphBuilder, Tensor};

    fn toy() -> Graph {
        let mut g = GraphBuilder::new("toy");
        let x = g.input("x", &[8, 16]);
        let w = g.constant(Tensor::randn(&[16, 12], 1));
        let y = g.matmul(x, w);
        let y = g.relu(y);
        g.output(y).build()
    }

    #[test]
    fn well_formed_graphs_verify_clean_at_every_level() {
        for level in [VerifyLevel::Off, VerifyLevel::Cheap, VerifyLevel::Deep] {
            assert_eq!(verify_graph(&toy(), level), vec![]);
        }
        let decode = models::gpt2_decode_step(2, 16);
        assert_eq!(verify_graph(&decode, VerifyLevel::Deep), vec![]);
        let prefill = models::gpt2_prefill(8, 16);
        assert_eq!(verify_graph(&prefill, VerifyLevel::Deep), vec![]);
    }

    #[test]
    fn post_pass_graphs_verify_clean() {
        let mut g = models::by_name("mobilenet_v2", 1).unwrap();
        lower_convs(&mut g);
        constant_fold(&mut g);
        assert_eq!(verify_graph(&g, VerifyLevel::Deep), vec![]);
        assert_eq!(verify_partition(&g, &partition(&g)), vec![]);
    }

    #[test]
    fn each_structural_rule_fires_on_its_own_corruption() {
        // Dangling input id.
        let (name, tensors, mut ops, inputs, outputs) = toy().into_raw_parts();
        let bogus = TensorId(tensors.len() + 7);
        ops[0].inputs[0] = bogus;
        let bad = Graph::from_raw_parts(name, tensors, ops, inputs, outputs);
        let diags = verify_graph(&bad, VerifyLevel::Cheap);
        assert!(
            diags.iter().any(|d| d.rule == Rule::DanglingId),
            "{diags:?}"
        );

        // Reversed op order.
        let (name, tensors, mut ops, inputs, outputs) = toy().into_raw_parts();
        ops.reverse();
        let bad = Graph::from_raw_parts(name, tensors, ops, inputs, outputs);
        let diags = verify_graph(&bad, VerifyLevel::Cheap);
        assert!(
            diags.iter().any(|d| d.rule == Rule::TopologicalOrder),
            "{diags:?}"
        );

        // Duplicate producer.
        let (name, tensors, mut ops, inputs, outputs) = toy().into_raw_parts();
        let first_out = ops[0].output;
        ops[1].output = first_out;
        let bad = Graph::from_raw_parts(name, tensors, ops, inputs, outputs);
        let diags = verify_graph(&bad, VerifyLevel::Cheap);
        assert!(
            diags.iter().any(|d| d.rule == Rule::DuplicateProducer),
            "{diags:?}"
        );

        // Self-cycle reports HA005, not HA001.
        let (name, tensors, mut ops, inputs, outputs) = toy().into_raw_parts();
        let out = ops[1].output;
        ops[1].inputs[0] = out;
        let bad = Graph::from_raw_parts(name, tensors, ops, inputs, outputs);
        let diags = verify_graph(&bad, VerifyLevel::Cheap);
        assert!(diags.iter().any(|d| d.rule == Rule::SelfCycle), "{diags:?}");
        assert!(
            diags.iter().all(|d| d.rule != Rule::TopologicalOrder),
            "{diags:?}"
        );

        // Unproduced output.
        let (name, mut tensors, ops, inputs, mut outputs) = toy().into_raw_parts();
        tensors.push(Tensor::symbolic(&[4], hidet_ir::DType::F32));
        outputs.push(TensorId(tensors.len() - 1));
        let bad = Graph::from_raw_parts(name, tensors, ops, inputs, outputs);
        let diags = verify_graph(&bad, VerifyLevel::Cheap);
        assert!(
            diags.iter().any(|d| d.rule == Rule::UnproducedOutput),
            "{diags:?}"
        );

        // Constant listed as graph input.
        let (name, tensors, ops, mut inputs, outputs) = toy().into_raw_parts();
        inputs.push(TensorId(1)); // the weight
        let bad = Graph::from_raw_parts(name, tensors, ops, inputs, outputs);
        let diags = verify_graph(&bad, VerifyLevel::Cheap);
        assert!(
            diags.iter().any(|d| d.rule == Rule::BadGraphInput),
            "{diags:?}"
        );
    }

    #[test]
    fn shape_mismatch_found_only_at_deep_level() {
        let (name, mut tensors, ops, inputs, outputs) = toy().into_raw_parts();
        let out = ops[0].output;
        tensors[out.0] = Tensor::symbolic(&[8, 99], hidet_ir::DType::F32);
        let bad = Graph::from_raw_parts(name, tensors, ops, inputs, outputs);
        assert_eq!(verify_graph(&bad, VerifyLevel::Cheap), vec![]);
        let diags = verify_graph(&bad, VerifyLevel::Deep);
        assert!(
            diags.iter().any(|d| d.rule == Rule::ShapeMismatch),
            "{diags:?}"
        );
    }

    #[test]
    fn kv_rules_fire_on_decode_corruptions() {
        // Dropping one cache output breaks the pairing.
        let (name, tensors, ops, inputs, mut outputs) =
            models::gpt2_decode_step(1, 8).into_raw_parts();
        outputs.pop();
        let bad = Graph::from_raw_parts(name, tensors, ops, inputs, outputs);
        let diags = verify_graph(&bad, VerifyLevel::Deep);
        assert!(diags.iter().any(|d| d.rule == Rule::KvPairing), "{diags:?}");

        // Breaking the mask's shape (keeping volume, so only the KV rule
        // fires) is caught by HA008.
        let g = models::gpt2_decode_step(1, 8);
        let mask = g.inputs()[1];
        let shape = g.tensor(mask).shape().to_vec();
        let (name, mut tensors, ops, inputs, outputs) = g.into_raw_parts();
        tensors[mask.0] = Tensor::symbolic(&[shape[0], shape[2], shape[1]], hidet_ir::DType::F32);
        let bad = Graph::from_raw_parts(name, tensors, ops, inputs, outputs);
        let diags = verify_graph(&bad, VerifyLevel::Deep);
        assert!(diags.iter().any(|d| d.rule == Rule::MaskShape), "{diags:?}");
    }

    #[test]
    fn partition_corruptions_are_caught() {
        let mut g = toy();
        lower_convs(&mut g);
        constant_fold(&mut g);
        let groups = partition(&g);
        assert_eq!(verify_partition(&g, &groups), vec![]);

        // Drop one op from its group: uncovered.
        let mut broken = groups.clone();
        broken[0].ops.pop();
        let diags = verify_partition(&g, &broken);
        assert!(
            diags.iter().any(|d| d.rule == Rule::PartitionCoverage),
            "{diags:?}"
        );

        // Duplicate a whole group: ops covered twice.
        let mut broken = groups.clone();
        broken.push(broken[0].clone());
        let diags = verify_partition(&g, &broken);
        assert!(
            diags.iter().any(|d| d.rule == Rule::PartitionCoverage),
            "{diags:?}"
        );
    }

    #[test]
    fn checked_inference_matches_panicking_inference_on_valid_shapes() {
        let cases: Vec<(OpKind, Vec<Vec<i64>>)> = vec![
            (
                OpKind::Conv2d {
                    stride: 2,
                    padding: 1,
                    groups: 1,
                },
                vec![vec![1, 256, 28, 28], vec![512, 256, 3, 3]],
            ),
            (OpKind::Matmul, vec![vec![128, 768], vec![768, 768]]),
            (
                OpKind::BatchMatmul,
                vec![vec![12, 128, 64], vec![12, 64, 128]],
            ),
            (OpKind::Softmax { axis: 2 }, vec![vec![12, 128, 128]]),
            (
                OpKind::Img2col {
                    kernel: 3,
                    stride: 2,
                    padding: 1,
                },
                vec![vec![1, 256, 28, 28]],
            ),
            (
                OpKind::Concat { axis: 1 },
                vec![vec![16, 8, 64], vec![16, 1, 64]],
            ),
            (OpKind::Reshape { shape: vec![6, 4] }, vec![vec![2, 3, 4]]),
            (
                OpKind::Transpose {
                    perm: vec![0, 2, 1],
                },
                vec![vec![2, 3, 4]],
            ),
        ];
        for (kind, shapes) in cases {
            let refs: Vec<&[i64]> = shapes.iter().map(|s| s.as_slice()).collect();
            assert_eq!(
                infer_shape_checked(&kind, &refs).unwrap(),
                kind.infer_shape(&refs),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn checked_inference_reports_instead_of_panicking() {
        assert!(infer_shape_checked(&OpKind::Matmul, &[&[4, 5], &[6, 7]]).is_err());
        assert!(infer_shape_checked(&OpKind::Matmul, &[&[4, 5]]).is_err());
        assert!(infer_shape_checked(&OpKind::Softmax { axis: 9 }, &[&[4, 5]]).is_err());
        assert!(infer_shape_checked(&OpKind::Transpose { perm: vec![0, 0] }, &[&[4, 5]]).is_err());
        assert!(infer_shape_checked(
            &OpKind::Binary(hidet_graph::BinaryKind::Add),
            &[&[2, 3], &[4]]
        )
        .is_err());
    }
}
