//! The random-graph generator shared by `tests/fuzz_compile.rs` (compile,
//! run, compare with the reference executor) and
//! `tests/interp_differential.rs` (run every generated kernel on both
//! interpreters): a chain of random steps applied to one `[rows, cols]`
//! input, or to one tensor of a graph being built ([`chain`]).

use hidet::prelude::*;
use hidet_graph::GraphBuilder;
use proptest::prelude::*;

/// A step applied to the running activation in a random chain.
#[derive(Debug, Clone)]
pub enum Step {
    Relu,
    Gelu,
    Tanh,
    AddBias,
    /// `bias + t`: the running tensor is the right-hand operand.
    BiasFirst,
    MulScale,
    /// `t * t`: both operands are the running tensor.
    Square,
    Linear {
        out: i64,
    },
    Softmax,
    LayerNorm,
    Reshape2x,
    TransposeLast,
}

pub fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        Just(Step::Relu),
        Just(Step::Gelu),
        Just(Step::Tanh),
        Just(Step::AddBias),
        Just(Step::BiasFirst),
        Just(Step::MulScale),
        Just(Step::Square),
        (4i64..24).prop_map(|out| Step::Linear { out }),
        Just(Step::Softmax),
        Just(Step::LayerNorm),
        Just(Step::Reshape2x),
        Just(Step::TransposeLast),
    ]
}

/// Applies a step; returns the new activation (some steps are skipped when
/// the current shape does not admit them).
fn apply(g: &mut GraphBuilder, t: TensorId, step: &Step, seed: &mut u64) -> TensorId {
    *seed += 1;
    let shape = g.shape(t).to_vec();
    match step {
        Step::Relu => g.relu(t),
        Step::Gelu => g.gelu(t),
        Step::Tanh => g.tanh(t),
        Step::AddBias | Step::BiasFirst => {
            let last = *shape.last().expect("rank >= 1");
            let b = g.constant(Tensor::randn(&[last], *seed));
            if matches!(step, Step::AddBias) {
                g.add(t, b)
            } else {
                g.add(b, t)
            }
        }
        Step::MulScale => {
            let s = g.constant(Tensor::full(&[1], 0.5));
            g.mul(t, s)
        }
        Step::Square => g.mul(t, t),
        Step::Linear { out } => {
            if shape.len() != 2 {
                return t;
            }
            let w = g.constant(Tensor::randn(&[shape[1], *out], *seed));
            g.matmul(t, w)
        }
        Step::Softmax => g.softmax(t, shape.len() - 1),
        Step::LayerNorm => {
            if *shape.last().expect("rank >= 1") < 2 {
                return t;
            }
            g.layer_norm(t)
        }
        Step::Reshape2x => {
            if shape.len() != 2 || shape[1] % 2 != 0 {
                return t;
            }
            g.reshape(t, &[shape[0] * 2, shape[1] / 2])
        }
        Step::TransposeLast => {
            if shape.len() != 2 {
                return t;
            }
            g.transpose(t, &[1, 0])
        }
    }
}

/// Applies `steps` to `t`; constants are seeded from `seed`.
pub fn chain(g: &mut GraphBuilder, mut t: TensorId, steps: &[Step], mut seed: u64) -> TensorId {
    for step in steps {
        t = apply(g, t, step, &mut seed);
    }
    t
}

/// Builds the graph `steps` describe over a `[rows, cols]` input; constants
/// are seeded from `seed`. Returns the graph and its input tensor.
pub fn random_graph(
    name: &str,
    rows: i64,
    cols: i64,
    steps: &[Step],
    seed: u64,
) -> (Graph, TensorId) {
    let mut g = GraphBuilder::new(name);
    let x = g.input("x", &[rows, cols]);
    let mut t = chain(&mut g, x, steps, seed);
    // Ensure at least one op exists.
    if g.graph().ops().is_empty() {
        t = g.relu(t);
    }
    (g.output(t).build(), x)
}
