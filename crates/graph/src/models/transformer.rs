//! Transformer models: Bert-base and GPT-2 (small), sequence length 128
//! throughout the paper's experiments (§6.1).
//!
//! Both models start from embedded hidden states `[seq, hidden]` per batch
//! element; the attention pattern `reshape → matmul → transpose` is the
//! transformer fusion workload the paper calls out in §3.2.

use crate::graph::{GraphBuilder, TensorId};

/// Multi-head self-attention + FFN block shared by Bert and GPT-2
/// (pre-LN for GPT-2, post-LN for Bert).
#[allow(clippy::too_many_arguments)]
fn transformer_block(
    g: &mut GraphBuilder,
    x: TensorId, // [seq, hidden]
    seq: i64,
    hidden: i64,
    heads: i64,
    ffn_dim: i64,
    pre_ln: bool,
) -> TensorId {
    let head_dim = hidden / heads;
    let attn_in = if pre_ln { g.layer_norm(x) } else { x };
    // QKV projections.
    let wq = g.weight(&[hidden, hidden]);
    let wk = g.weight(&[hidden, hidden]);
    let wv = g.weight(&[hidden, hidden]);
    let q = g.matmul(attn_in, wq);
    let k = g.matmul(attn_in, wk);
    let v = g.matmul(attn_in, wv);
    // [seq, hidden] -> [heads, seq, head_dim] (the Reshape-Matmul-Transpose
    // pattern of paper §1/§3.2).
    let split = |g: &mut GraphBuilder, t: TensorId| -> TensorId {
        let r = g.reshape(t, &[seq, heads, head_dim]);
        g.transpose(r, &[1, 0, 2])
    };
    let qh = split(g, q);
    let kh = split(g, k);
    let vh = split(g, v);
    // Scores: [heads, seq, seq] = qh x kh^T, scaled.
    let kt = g.transpose(kh, &[0, 2, 1]);
    let scores = g.batch_matmul(qh, kt);
    let scale = g.constant(crate::tensor::Tensor::full(
        &[1],
        1.0 / (head_dim as f32).sqrt(),
    ));
    let scores = g.mul(scores, scale);
    let probs = g.softmax(scores, 2);
    // Context: [heads, seq, head_dim] -> [seq, hidden].
    let ctx = g.batch_matmul(probs, vh);
    let ctx = g.transpose(ctx, &[1, 0, 2]);
    let ctx = g.reshape(ctx, &[seq, hidden]);
    let wo = g.weight(&[hidden, hidden]);
    let proj = g.matmul(ctx, wo);
    let attn_out = g.add(proj, x);
    let attn_out = if pre_ln {
        attn_out
    } else {
        g.layer_norm(attn_out)
    };
    // Feed-forward.
    let ffn_in = if pre_ln {
        g.layer_norm(attn_out)
    } else {
        attn_out
    };
    let w1 = g.weight(&[hidden, ffn_dim]);
    let b1 = g.weight(&[ffn_dim]);
    let h = g.matmul(ffn_in, w1);
    let h = g.add(h, b1);
    let h = g.gelu(h);
    let w2 = g.weight(&[ffn_dim, hidden]);
    let b2 = g.weight(&[hidden]);
    let h = g.matmul(h, w2);
    let h = g.add(h, b2);
    let out = g.add(h, attn_out);
    if pre_ln {
        out
    } else {
        g.layer_norm(out)
    }
}

fn build_transformer(
    name: &str,
    batch: i64,
    seq: i64,
    layers: usize,
    hidden: i64,
    heads: i64,
    pre_ln: bool,
) -> crate::graph::Graph {
    let mut g = GraphBuilder::new(name);
    // Per-batch-element hidden states; batch folds into the sequence axis
    // (identical kernel shapes, matching single-stream inference).
    let x = g.input("hidden_states", &[batch * seq, hidden]);
    let mut y = x;
    for _ in 0..layers {
        y = transformer_block(&mut g, y, batch * seq, hidden, heads, 4 * hidden, pre_ln);
    }
    if pre_ln {
        y = g.layer_norm(y);
    }
    // LM/classifier head projection.
    let w = g.weight(&[hidden, hidden]);
    let out = g.matmul(y, w);
    g.output(out).build()
}

/// Bert-base-uncased: 12 layers, hidden 768, 12 heads, post-LN.
pub fn bert_base(batch: i64, seq: i64) -> crate::graph::Graph {
    build_transformer("bert", batch, seq, 12, 768, 12, false)
}

/// GPT-2 small: 12 layers, hidden 768, 12 heads, pre-LN.
pub fn gpt2(batch: i64, seq: i64) -> crate::graph::Graph {
    build_transformer("gpt2", batch, seq, 12, 768, 12, true)
}

/// One pre-LN transformer block of a **KV-cache forward pass**: each of
/// `seqs` sequences feeds `chunk` new tokens, keys/values are the per-layer
/// KV cache extended by this pass's projections (concat along the sequence
/// axis), and attention is causally masked over `past_len + chunk` positions
/// via the additive `mask` input. Returns `(hidden_out, new_k, new_v)`; the
/// caches must be declared graph outputs by the caller.
#[allow(clippy::too_many_arguments)]
fn pass_block(
    g: &mut GraphBuilder,
    x: TensorId,      // [seqs*chunk, hidden]
    past_k: TensorId, // [seqs*heads, past_len, head_dim]
    past_v: TensorId, // [seqs*heads, past_len, head_dim]
    mask: TensorId,   // [seqs*heads, chunk, past_len + chunk]
    seqs: i64,
    chunk: i64,
    hidden: i64,
    heads: i64,
) -> (TensorId, TensorId, TensorId) {
    let head_dim = hidden / heads;
    let rows = seqs * heads;
    let ffn_dim = 4 * hidden;
    let attn_in = g.layer_norm(x);
    let wq = g.weight(&[hidden, hidden]);
    let wk = g.weight(&[hidden, hidden]);
    let wv = g.weight(&[hidden, hidden]);
    let q = g.matmul(attn_in, wq);
    let k = g.matmul(attn_in, wk);
    let v = g.matmul(attn_in, wv);
    // [seqs*chunk, hidden] -> [rows, chunk, head_dim]. With one query token
    // per sequence the head split is a pure reshape (row-major
    // sequence-then-head); with several tokens of one sequence it needs the
    // encoder's reshape + transpose, which at `chunk == 1` would be the
    // identity and is elided.
    let split = |g: &mut GraphBuilder, t: TensorId| -> TensorId {
        if chunk == 1 {
            g.reshape(t, &[rows, 1, head_dim])
        } else {
            let r = g.reshape(t, &[chunk, heads, head_dim]);
            g.transpose(r, &[1, 0, 2])
        }
    };
    let qh = split(g, q);
    let kh = split(g, k);
    let vh = split(g, v);
    // Extend the caches along the sequence axis. The concat outputs double as
    // graph outputs (the updated caches handed back to the session), so the
    // partitioner materializes them rather than inlining into the anchor.
    let new_k = g.concat(&[past_k, kh], 1); // [rows, past_len + chunk, head_dim]
    let new_v = g.concat(&[past_v, vh], 1);
    // Scores over past + current: [rows, chunk, past_len + chunk], scaled and
    // masked (0 for attendable positions, a large negative for cache padding
    // and the intra-chunk causal triangle).
    let kt = g.transpose(new_k, &[0, 2, 1]);
    let scores = g.batch_matmul(qh, kt);
    let scale = g.constant(crate::tensor::Tensor::full(
        &[1],
        1.0 / (head_dim as f32).sqrt(),
    ));
    let scores = g.mul(scores, scale);
    let scores = g.add(scores, mask);
    let probs = g.softmax(scores, 2);
    let ctx = g.batch_matmul(probs, new_v); // [rows, chunk, head_dim]
    let ctx = if chunk == 1 {
        ctx
    } else {
        g.transpose(ctx, &[1, 0, 2])
    };
    let ctx = g.reshape(ctx, &[seqs * chunk, hidden]);
    let wo = g.weight(&[hidden, hidden]);
    let proj = g.matmul(ctx, wo);
    let attn_out = g.add(proj, x);
    // Feed-forward (pre-LN).
    let ffn_in = g.layer_norm(attn_out);
    let w1 = g.weight(&[hidden, ffn_dim]);
    let b1 = g.weight(&[ffn_dim]);
    let h = g.matmul(ffn_in, w1);
    let h = g.add(h, b1);
    let h = g.gelu(h);
    let w2 = g.weight(&[ffn_dim, hidden]);
    let b2 = g.weight(&[hidden]);
    let h = g.matmul(h, w2);
    let h = g.add(h, b2);
    let out = g.add(h, attn_out);
    (out, new_k, new_v)
}

/// One **forward pass** of a pre-LN transformer with explicit KV caches — the
/// stateful workload served by `hidet-decode`, and the single definition of
/// its graph family: each of `seqs` sequences feeds `chunk` consecutive
/// tokens (already embedded), per-layer KV caches enter as extra graph inputs
/// and leave, extended by the chunk, as extra graph outputs. Attention runs
/// over `past_len + chunk` positions; the additive `mask` input carries the
/// cache-padding carve-out for shorter or inactive sequences *and* the
/// intra-chunk causal triangle (position `i` of a chunk may attend to cache
/// positions and to chunk positions `<= i`).
///
/// Every member creates its weights in the same order, so members built from
/// the same dimensions embody the same model. The two members the engine
/// builds are the **decode step** (`chunk == 1`, many sequences:
/// [`transformer_decode_step`]) and the **prefill chunk** (`seqs == 1`, many
/// tokens: [`transformer_prefill`]).
///
/// Graph interface, in declaration order (the contract `hidet-decode` relies
/// on), with `rows = seqs * heads`:
///
/// * inputs: `x [seqs*chunk, hidden]`, `mask [rows, chunk, past_len+chunk]`,
///   then `past_k_l`/`past_v_l` `[rows, past_len, head_dim]` per layer;
/// * outputs: `logits [seqs*chunk, vocab]` (row `i` scores the token after
///   fed position `i` — only a chunk's last row matters when it ends the
///   prompt), then `new_k_l`/`new_v_l` `[rows, past_len+chunk, head_dim]`
///   per layer.
///
/// # Panics
/// Panics when `seqs < 1`, `chunk < 1`, `past_len < 1`, `heads` does not
/// divide `hidden`, or both `seqs > 1` and `chunk > 1` (a multi-sequence
/// multi-token head split is a shape the engine never builds).
#[allow(clippy::too_many_arguments)]
pub fn transformer_pass(
    name: &str,
    seqs: i64,
    chunk: i64,
    past_len: i64,
    layers: usize,
    hidden: i64,
    heads: i64,
    vocab: i64,
) -> crate::graph::Graph {
    assert!(seqs >= 1, "a pass needs at least one sequence");
    assert!(chunk >= 1, "a pass needs at least one token per sequence");
    assert!(past_len >= 1, "a pass needs at least one cache slot");
    assert!(
        seqs == 1 || chunk == 1,
        "a pass is one token of many sequences or many tokens of one"
    );
    assert_eq!(hidden % heads, 0, "heads must divide hidden");
    let head_dim = hidden / heads;
    let rows = seqs * heads;
    let mut g = GraphBuilder::new(name);
    let x = g.input("x", &[seqs * chunk, hidden]);
    let mask = g.input("mask", &[rows, chunk, past_len + chunk]);
    let mut pasts = Vec::with_capacity(layers);
    for l in 0..layers {
        let pk = g.input(&format!("past_k_{l}"), &[rows, past_len, head_dim]);
        let pv = g.input(&format!("past_v_{l}"), &[rows, past_len, head_dim]);
        pasts.push((pk, pv));
    }
    let mut y = x;
    let mut caches = Vec::with_capacity(layers);
    for &(pk, pv) in &pasts {
        let (out, nk, nv) = pass_block(&mut g, y, pk, pv, mask, seqs, chunk, hidden, heads);
        y = out;
        caches.push((nk, nv));
    }
    y = g.layer_norm(y);
    // LM head: per-position next-token logits.
    let e = g.weight(&[hidden, vocab]);
    let logits = g.matmul(y, e);
    g.output(logits);
    for (nk, nv) in caches {
        g.output(nk).output(nv);
    }
    g.build()
}

/// One **autoregressive decode step**: the [`transformer_pass`] family's
/// `chunk == 1` member — one new token for each of `batch` sequences.
pub fn transformer_decode_step(
    name: &str,
    batch: i64,
    past_len: i64,
    layers: usize,
    hidden: i64,
    heads: i64,
    vocab: i64,
) -> crate::graph::Graph {
    transformer_pass(name, batch, 1, past_len, layers, hidden, heads, vocab)
}

/// GPT-2 small **decode step**: 12 layers, hidden 768, 12 heads, pre-LN, with
/// the zoo's 768-wide projection head standing in for the LM head (matching
/// [`gpt2`]). See [`transformer_pass`] for the graph interface.
pub fn gpt2_decode_step(batch: i64, past_len: i64) -> crate::graph::Graph {
    transformer_decode_step("gpt2_decode", batch, past_len, 12, 768, 12, 768)
}

/// A **prefill chunk**: the [`transformer_pass`] family's `seqs == 1` member
/// — `chunk_len` consecutive prompt tokens of one sequence absorbed in a
/// single pass (Sarathi-style chunked prefill).
pub fn transformer_prefill(
    name: &str,
    chunk_len: i64,
    past_len: i64,
    layers: usize,
    hidden: i64,
    heads: i64,
    vocab: i64,
) -> crate::graph::Graph {
    transformer_pass(name, 1, chunk_len, past_len, layers, hidden, heads, vocab)
}

/// GPT-2 small **prefill chunk**: 12 layers, hidden 768, 12 heads, pre-LN,
/// matching [`gpt2_decode_step`]. See [`transformer_pass`] for the graph
/// interface.
pub fn gpt2_prefill(chunk_len: i64, past_len: i64) -> crate::graph::Graph {
    transformer_prefill("gpt2_prefill", chunk_len, past_len, 12, 768, 12, 768)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpKind;

    #[test]
    fn bert_structure() {
        let g = bert_base(1, 128);
        assert_eq!(g.tensor(g.outputs()[0]).shape(), &[128, 768]);
        let matmuls = g
            .ops()
            .iter()
            .filter(|o| matches!(o.kind, OpKind::Matmul))
            .count();
        // 12 layers x (3 QKV + 1 out + 2 FFN) + 1 head = 73.
        assert_eq!(matmuls, 73);
        let bmm = g
            .ops()
            .iter()
            .filter(|o| matches!(o.kind, OpKind::BatchMatmul))
            .count();
        assert_eq!(bmm, 24); // scores + context per layer
                             // ~22.3 GFLOPs for Bert-base at seq 128 (matmul-dominated).
        let gflops = g.total_flops() / 1e9;
        assert!((15.0..30.0).contains(&gflops), "got {gflops}");
    }

    #[test]
    fn gpt2_uses_pre_ln() {
        let g = gpt2(1, 128);
        assert_eq!(g.tensor(g.outputs()[0]).shape(), &[128, 768]);
        let lns = g
            .ops()
            .iter()
            .filter(|o| matches!(o.kind, OpKind::LayerNorm))
            .count();
        assert_eq!(lns, 25); // 2 per layer + final
    }

    #[test]
    fn decode_step_graph_interface() {
        let (batch, past, layers, hidden, heads, vocab) = (3, 7, 2, 32, 4, 48);
        let g = transformer_decode_step("d", batch, past, layers, hidden, heads, vocab);
        let head_dim = hidden / heads;
        let rows = batch * heads;
        // Inputs: x, mask, then (past_k, past_v) per layer.
        assert_eq!(g.inputs().len(), 2 + 2 * layers);
        assert_eq!(g.tensor(g.inputs()[0]).shape(), &[batch, hidden]);
        assert_eq!(g.tensor(g.inputs()[1]).shape(), &[rows, 1, past + 1]);
        for l in 0..layers {
            for s in 0..2 {
                assert_eq!(
                    g.tensor(g.inputs()[2 + 2 * l + s]).shape(),
                    &[rows, past, head_dim],
                    "layer {l} stream {s}"
                );
            }
        }
        // Outputs: logits, then (new_k, new_v) per layer, extended by one.
        assert_eq!(g.outputs().len(), 1 + 2 * layers);
        assert_eq!(g.tensor(g.outputs()[0]).shape(), &[batch, vocab]);
        for l in 0..layers {
            for s in 0..2 {
                assert_eq!(
                    g.tensor(g.outputs()[1 + 2 * l + s]).shape(),
                    &[rows, past + 1, head_dim]
                );
            }
        }
        // Concat-along-seq present, one per cache stream.
        let concats = g
            .ops()
            .iter()
            .filter(|o| matches!(o.kind, OpKind::Concat { axis: 1 }))
            .count();
        assert_eq!(concats, 2 * layers);
    }

    #[test]
    fn decode_step_flops_scale_with_past_only_in_attention() {
        // Doubling the cache length must grow only the attention score /
        // context matmuls, not the dense projections.
        let short = transformer_decode_step("d", 2, 8, 2, 32, 4, 32);
        let long = transformer_decode_step("d", 2, 16, 2, 32, 4, 32);
        let growth = long.total_flops() / short.total_flops();
        assert!(
            growth > 1.0 && growth < 1.5,
            "attention is a small slice of a decode step: {growth}"
        );
    }

    #[test]
    fn gpt2_decode_step_structure() {
        let g = gpt2_decode_step(2, 16);
        assert_eq!(g.inputs().len(), 2 + 24);
        assert_eq!(g.outputs().len(), 1 + 24);
        assert_eq!(g.tensor(g.outputs()[0]).shape(), &[2, 768]);
        assert_eq!(g.tensor(g.outputs()[1]).shape(), &[24, 17, 64]);
    }

    #[test]
    fn prefill_graph_interface() {
        let (chunk, past, layers, hidden, heads, vocab) = (4, 7, 2, 32, 4, 48);
        let g = transformer_prefill("p", chunk, past, layers, hidden, heads, vocab);
        let head_dim = hidden / heads;
        // Inputs: x, mask, then (past_k, past_v) per layer.
        assert_eq!(g.inputs().len(), 2 + 2 * layers);
        assert_eq!(g.tensor(g.inputs()[0]).shape(), &[chunk, hidden]);
        assert_eq!(
            g.tensor(g.inputs()[1]).shape(),
            &[heads, chunk, past + chunk]
        );
        for l in 0..layers {
            for s in 0..2 {
                assert_eq!(
                    g.tensor(g.inputs()[2 + 2 * l + s]).shape(),
                    &[heads, past, head_dim],
                    "layer {l} stream {s}"
                );
            }
        }
        // Outputs: per-position logits, then caches extended by the chunk.
        assert_eq!(g.outputs().len(), 1 + 2 * layers);
        assert_eq!(g.tensor(g.outputs()[0]).shape(), &[chunk, vocab]);
        for l in 0..layers {
            for s in 0..2 {
                assert_eq!(
                    g.tensor(g.outputs()[1 + 2 * l + s]).shape(),
                    &[heads, past + chunk, head_dim]
                );
            }
        }
        let concats = g
            .ops()
            .iter()
            .filter(|o| matches!(o.kind, OpKind::Concat { axis: 1 }))
            .count();
        assert_eq!(concats, 2 * layers);
    }

    #[test]
    fn prefill_weights_are_bitwise_identical_to_decode_weights() {
        // The chunked-prefill invariant starts here: both graph families must
        // draw the same deterministic weights in the same order, or nothing
        // downstream can be bit-identical.
        let d = transformer_decode_step("d", 1, 8, 2, 32, 4, 48);
        let p = transformer_prefill("p", 4, 8, 2, 32, 4, 48);
        let weights = |g: &crate::graph::Graph| -> Vec<Vec<f32>> {
            g.ops()
                .iter()
                .filter(|o| matches!(o.kind, OpKind::Matmul))
                .map(|o| g.tensor(o.inputs[1]).data().unwrap().to_vec())
                .collect()
        };
        let (dw, pw) = (weights(&d), weights(&p));
        assert_eq!(dw.len(), pw.len());
        assert_eq!(dw, pw);
    }

    #[test]
    fn pass_family_reproduces_the_parent_commits_graphs() {
        // `structural_hash` values captured at the commit before decode_block
        // / prefill_block were folded into `pass_block`, at (layers, hidden,
        // heads, vocab) = (2, 32, 4, 48), when that hash still absorbed every
        // constant element: `content_hash` is that algorithm, so these pin
        // the family's weights bit for bit. Every compiled decode/prefill
        // graph — and with it every simulated latency — hangs off these.
        let decode: [((i64, i64), u64); 4] = [
            ((1, 8), 0xd68206b671a77b7b),
            ((4, 16), 0xe4536651b4b1f3c8),
            ((2, 24), 0xacb992dcad33e0c8),
            ((8, 12), 0x5dc2ec3d0d7ec98c),
        ];
        for ((batch, past), want) in decode {
            let g = transformer_decode_step("d", batch, past, 2, 32, 4, 48);
            assert_eq!(g.content_hash(), want, "decode ({batch}, {past})");
        }
        let prefill: [((i64, i64), u64); 5] = [
            ((2, 8), 0x049daf02f666dcec),
            ((3, 8), 0x72f5fc11e5a17727),
            ((4, 16), 0xe4fdfd6e4750bbce),
            ((16, 40), 0x1227ddde65f0fd86),
            ((64, 256), 0x1fe046a6126c3bc5),
        ];
        for ((chunk, past), want) in prefill {
            let g = transformer_prefill("p", chunk, past, 2, 32, 4, 48);
            assert_eq!(g.content_hash(), want, "prefill ({chunk}, {past})");
        }
        assert_eq!(gpt2_decode_step(2, 16).content_hash(), 0x3e68037393ea6e5c);
        assert_eq!(gpt2_prefill(8, 16).content_hash(), 0x583980553f4cec08);
        // The two wrappers meet at the family's (1, 1) member.
        assert_eq!(
            transformer_pass("m", 1, 1, 8, 2, 32, 4, 48).structural_hash(),
            transformer_decode_step("m", 1, 8, 2, 32, 4, 48).structural_hash()
        );
        assert_eq!(
            transformer_prefill("m", 1, 8, 2, 32, 4, 48).structural_hash(),
            transformer_decode_step("m", 1, 8, 2, 32, 4, 48).structural_hash()
        );
    }

    #[test]
    #[should_panic(expected = "one token of many sequences or many tokens of one")]
    fn pass_rejects_multi_sequence_multi_token() {
        transformer_pass("m", 2, 2, 8, 1, 16, 2, 8);
    }

    #[test]
    fn gpt2_prefill_structure() {
        let g = gpt2_prefill(16, 32);
        assert_eq!(g.inputs().len(), 2 + 24);
        assert_eq!(g.outputs().len(), 1 + 24);
        assert_eq!(g.tensor(g.outputs()[0]).shape(), &[16, 768]);
        assert_eq!(g.tensor(g.outputs()[1]).shape(), &[12, 48, 64]);
    }

    #[test]
    fn attention_reshape_transpose_pattern_present() {
        let g = bert_base(1, 128);
        let reshapes = g
            .ops()
            .iter()
            .filter(|o| matches!(o.kind, OpKind::Reshape { .. }))
            .count();
        let transposes = g
            .ops()
            .iter()
            .filter(|o| matches!(o.kind, OpKind::Transpose { .. }))
            .count();
        assert!(
            reshapes >= 48 && transposes >= 60,
            "{reshapes} reshapes, {transposes} transposes"
        );
    }
}
