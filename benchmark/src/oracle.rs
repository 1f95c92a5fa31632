//! Output oracles that do not depend on the code under test.
//!
//! * Compiled kernels are checked against `hidet_graph::reference` — scalar
//!   host implementations that share nothing with the scheduler, the
//!   generated IR or the interpreter.
//! * Batched, sharded decode streams are checked against the same prompts
//!   run *alone* on a one-shard, one-slot engine: continuous batching,
//!   placement and chunked prefill must be invisible in the tokens.

use hidet::CompilerOptions;
use hidet_decode::{DecodeConfig, DecodeEngine, DecodeModelSpec, GenerateRequest};
use hidet_graph::{Graph, GraphBuilder, Tensor};
use hidet_sim::Gpu;
use rand::Rng;

use crate::gen::{self, SessionSpec};
use crate::models::{close, input_map, reference_outputs};
use crate::outcome::Checks;

/// Five seeded small graphs — one per operator family the zoo leans on —
/// each with its inputs: matmul+bias+relu, softmax, layer-norm,
/// conv-bn-relu, and a residual block.
pub fn small_graphs(seed: u64) -> Vec<(Graph, Vec<Vec<f32>>)> {
    let mut rng = gen::rng(seed, 3);
    let mut weight_seed = seed.wrapping_mul(31).wrapping_add(7);
    let mut weight = |shape: &[i64]| {
        weight_seed = weight_seed.wrapping_add(1);
        Tensor::randn(shape, weight_seed)
    };
    let mut out = Vec::new();

    let (m, k, n) = (
        rng.gen_range(4..17i64),
        rng.gen_range(8..33i64),
        rng.gen_range(8..33i64),
    );
    let mut g = GraphBuilder::new("oracle_matmul_bias_relu");
    let x = g.input("x", &[m, k]);
    let w = g.constant(weight(&[k, n]));
    let b = g.constant(weight(&[n]));
    let y = g.matmul(x, w);
    let y = g.add(y, b);
    let y = g.relu(y);
    out.push((
        g.output(y).build(),
        vec![gen::tensor(&mut rng, (m * k) as usize)],
    ));

    let (rows, len) = (rng.gen_range(2..9i64), rng.gen_range(8..41i64));
    let mut g = GraphBuilder::new("oracle_softmax");
    let x = g.input("x", &[rows, len]);
    let y = g.softmax(x, 1);
    out.push((
        g.output(y).build(),
        vec![gen::tensor(&mut rng, (rows * len) as usize)],
    ));

    let (rows, len) = (rng.gen_range(2..9i64), rng.gen_range(8..41i64));
    let mut g = GraphBuilder::new("oracle_layer_norm");
    let x = g.input("x", &[rows, len]);
    let y = g.layer_norm(x);
    out.push((
        g.output(y).build(),
        vec![gen::tensor(&mut rng, (rows * len) as usize)],
    ));

    let (c, hw, oc) = (
        rng.gen_range(2..5i64),
        rng.gen_range(6..11i64),
        rng.gen_range(2..7i64),
    );
    let mut g = GraphBuilder::new("oracle_conv_bn_relu");
    let x = g.input("x", &[1, c, hw, hw]);
    let w = g.constant(weight(&[oc, c, 3, 3]));
    let y = g.conv2d(x, w, 1, 1);
    let y = g.batch_norm(y);
    let y = g.relu(y);
    out.push((
        g.output(y).build(),
        vec![gen::tensor(&mut rng, (c * hw * hw) as usize)],
    ));

    let (m, n) = (rng.gen_range(4..17i64), rng.gen_range(8..33i64));
    let mut g = GraphBuilder::new("oracle_residual");
    let x = g.input("x", &[m, n]);
    let w = g.constant(weight(&[n, n]));
    let h = g.matmul(x, w);
    let h = g.relu(h);
    let y = g.add(h, x);
    out.push((
        g.output(y).build(),
        vec![gen::tensor(&mut rng, (m * n) as usize)],
    ));

    out
}

/// Compiles every small graph `quick` and `tuned`, runs both on the
/// simulated device and compares each output with the reference executor.
/// One check per (graph, option set).
pub fn check_compiler(seed: u64, gpu: &Gpu, checks: &mut Checks) {
    for (graph, inputs) in small_graphs(seed) {
        let want = reference_outputs(&graph, &inputs);
        for (label, options) in [
            ("quick", CompilerOptions::quick()),
            ("tuned", CompilerOptions::tuned()),
        ] {
            let verdict = hidet::compile(&graph, gpu, &options)
                .map_err(|e| e.to_string())
                .and_then(|compiled| {
                    compiled
                        .run(&input_map(&graph, &inputs), gpu)
                        .map_err(|e| e.to_string())
                })
                .and_then(|got| {
                    let ok = graph
                        .outputs()
                        .iter()
                        .zip(&want)
                        .all(|(t, want)| got.get(t).is_some_and(|got| close(got, want)));
                    if ok {
                        Ok(())
                    } else {
                        Err("output differs from the reference executor".to_string())
                    }
                });
            checks.check(verdict.is_ok(), || {
                format!("{} ({label}): {}", graph.name(), verdict.unwrap_err())
            });
        }
    }
}

/// Runs each session alone — one after another — on an engine built from
/// `config`, and returns its token stream (or the error it ended with).
pub fn solo_streams(
    config: DecodeConfig,
    spec: DecodeModelSpec,
    sessions: &[&SessionSpec],
) -> Vec<Result<Vec<u32>, String>> {
    let engine = DecodeEngine::new(config);
    let model = match engine.register(spec) {
        Ok(model) => model,
        Err(e) => return sessions.iter().map(|_| Err(e.to_string())).collect(),
    };
    sessions
        .iter()
        .map(|s| {
            model
                .generate(GenerateRequest::new(s.prompt.clone(), s.max_tokens))
                .collect()
                .map(|generation| generation.tokens)
                .map_err(|e| e.to_string())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_graphs_are_seeded_and_cover_five_families() {
        let a = small_graphs(11);
        let b = small_graphs(11);
        assert_eq!(a.len(), 5);
        for ((ga, ia), (gb, ib)) in a.iter().zip(&b) {
            assert_eq!(ga.structural_hash(), gb.structural_hash());
            assert_eq!(ia, ib);
        }
        let c = small_graphs(12);
        assert!(a
            .iter()
            .zip(&c)
            .any(|((ga, _), (gc, _))| ga.structural_hash() != gc.structural_hash()));
    }

    #[test]
    fn compiler_oracle_passes_on_the_seed_compiler() {
        let mut checks = Checks::default();
        check_compiler(3, &Gpu::default(), &mut checks);
        assert_eq!(checks.attempted, 10);
        assert_eq!(checks.failed, 0, "{:?}", checks.failures);
    }
}
