//! The small models the serving workloads register, and the helper that runs
//! the independent reference executor on them.

use std::collections::HashMap;

use hidet_graph::reference::{self, ValueMap};
use hidet_graph::{Graph, GraphBuilder, Tensor, TensorId};

/// `head`: MLP 64 → 128 (relu) → 16. Built exactly as the server's
/// `/v2/models` `mlp` family builds it (`randn` seeds 1 and 2), so the wire
/// workload's outputs can be checked against this graph's reference run.
pub fn head(batch: i64) -> Graph {
    let mut g = GraphBuilder::new("head");
    let x = g.input("x", &[batch, 64]);
    let w1 = g.constant(Tensor::randn(&[64, 128], 1));
    let w2 = g.constant(Tensor::randn(&[128, 16], 2));
    let h = g.matmul(x, w1);
    let h = g.relu(h);
    let y = g.matmul(h, w2);
    g.output(y).build()
}

/// `cnn_block`: conv-bn-relu 4 → 8 channels (3×3 on 12×12), global average
/// pool, linear → 4. Exercises the implicit-GEMM conv lowering.
pub fn cnn_block(batch: i64) -> Graph {
    let mut g = GraphBuilder::new("cnn_block");
    let x = g.input("x", &[batch, 4, 12, 12]);
    let y = g.conv_bn_relu(x, 8, 3, 1, 1);
    let y = g.global_avg_pool(y);
    let y = g.reshape(y, &[batch, 8]);
    let y = g.linear(y, 4);
    g.output(y).build()
}

/// Runs `graph` on the host reference executor — the oracle that shares no
/// code with the compiler, the schedules or the interpreter — and returns
/// the graph outputs in declaration order.
pub fn reference_outputs(graph: &Graph, inputs: &[Vec<f32>]) -> Vec<Vec<f32>> {
    let values: ValueMap = graph
        .inputs()
        .iter()
        .copied()
        .zip(inputs.iter().cloned())
        .collect();
    let computed = reference::execute(graph, &values);
    graph
        .outputs()
        .iter()
        .map(|t| computed[t].clone())
        .collect()
}

/// `inputs` keyed by the graph's input tensor ids, as `CompiledGraph::run`
/// takes them.
pub fn input_map(graph: &Graph, inputs: &[Vec<f32>]) -> HashMap<TensorId, Vec<f32>> {
    graph
        .inputs()
        .iter()
        .copied()
        .zip(inputs.iter().cloned())
        .collect()
}

/// Element-wise agreement within 1e-3 relative (`|a-b| <= 1e-3·(1+|b|)`),
/// the tolerance the repository's own end-to-end tests use.
pub fn close(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(a, b)| (a - b).abs() <= 1e-3 * (1.0 + b.abs()))
}
