//! The model registry's types: what a caller registers
//! ([`DecodeModelSpec`]) and the validated definition the engine keeps
//! ([`ModelDef`]: the fixed-shape decode step plus the chunked-prefill graph
//! family, each a [`PassDef`]).

use std::fmt;
use std::sync::{Arc, OnceLock};

use hidet_graph::{Graph, Tensor, TensorId};

use super::config::DecodeError;

/// Everything the engine needs to know about a decode model: its dimensions
/// and **one** `(seqs, chunk, past_len) -> Graph` builder honoring the
/// [`hidet_graph::models::transformer_pass`] interface. The engine asks it
/// for the decode step (`chunk == 1` at `seqs = max_batch`) and for one
/// prefill pass per menu chunk (`seqs == 1`) — both are members of the same
/// family, so they cannot describe different models.
pub struct DecodeModelSpec {
    name: String,
    layers: usize,
    hidden: i64,
    heads: i64,
    vocab: i64,
    max_context: i64,
    builder: Box<dyn Fn(i64, i64, i64) -> Graph + Send + Sync>,
}

/// Seed of the deterministic host-side token-embedding table.
const EMBED_SEED: u64 = 0xDEC0DE;

impl DecodeModelSpec {
    /// A pre-LN transformer decode model built by
    /// [`hidet_graph::models::transformer_pass`].
    pub fn transformer(
        name: impl Into<String>,
        layers: usize,
        hidden: i64,
        heads: i64,
        vocab: i64,
        max_context: i64,
    ) -> DecodeModelSpec {
        let name = name.into();
        let graph_name = name.clone();
        DecodeModelSpec::custom(
            name,
            layers,
            hidden,
            heads,
            vocab,
            max_context,
            move |seqs, chunk, past| {
                hidet_graph::models::transformer_pass(
                    &graph_name,
                    seqs,
                    chunk,
                    past,
                    layers,
                    hidden,
                    heads,
                    vocab,
                )
            },
        )
    }

    /// GPT-2 small decode steps
    /// ([`hidet_graph::models::gpt2_decode_step`]) with context window
    /// `max_context`.
    pub fn gpt2(max_context: i64) -> DecodeModelSpec {
        DecodeModelSpec::transformer("gpt2_decode", 12, 768, 12, 768, max_context)
    }

    /// A spec around any `(seqs, chunk, past_len) -> Graph` builder; every
    /// graph it returns must follow the forward-pass interface for the given
    /// dimensions (validated at registration).
    pub(crate) fn custom(
        name: impl Into<String>,
        layers: usize,
        hidden: i64,
        heads: i64,
        vocab: i64,
        max_context: i64,
        builder: impl Fn(i64, i64, i64) -> Graph + Send + Sync + 'static,
    ) -> DecodeModelSpec {
        DecodeModelSpec {
            name: name.into(),
            layers,
            hidden,
            heads,
            vocab,
            max_context,
            builder: Box::new(builder),
        }
    }

    /// The model's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl fmt::Debug for DecodeModelSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DecodeModelSpec")
            .field("name", &self.name)
            .field("layers", &self.layers)
            .field("hidden", &self.hidden)
            .field("heads", &self.heads)
            .field("vocab", &self.vocab)
            .field("max_context", &self.max_context)
            .finish_non_exhaustive()
    }
}

/// A validated decode model: dimensions, its forward-pass graphs, and the
/// host-side embedding table.
pub(super) struct ModelDef {
    pub(super) name: String,
    pub(super) layers: usize,
    pub(super) hidden: usize,
    pub(super) heads: usize,
    pub(super) head_dim: usize,
    pub(super) vocab: i64,
    pub(super) max_context: usize,
    /// The decode step: one token for each of `max_batch` sequences.
    pub(super) step: PassDef,
    /// `vocab × hidden` deterministic token embeddings, applied host-side
    /// (the embedding lookup is a memory gather, matching the zoo's
    /// convention of starting from embedded hidden states).
    pub(super) embed: Vec<f32>,
    /// The validated chunked-prefill graph family, one entry per engine menu
    /// chunk that fits the context window (ascending): `chunk` tokens of one
    /// sequence each. Empty when the menu is — prompts then absorb
    /// token-wise only.
    pub(super) prefill: Vec<PassDef>,
}

impl ModelDef {
    /// The prefill pass compiled at `chunk` tokens.
    pub(super) fn prefill_pass(&self, chunk: usize) -> &PassDef {
        self.prefill
            .iter()
            .find(|p| p.chunk == chunk)
            .expect("elected chunks come from def.prefill")
    }
}

/// One validated forward-pass graph over `max_context` past slots, plus its
/// tensor-id map. Every pass comes from the spec's one builder — a decode
/// step is chunk 1 × `max_batch` sequences, a prefill pass is `chunk` × one
/// sequence — and shares the interface:
/// inputs `x`, the additive mask and per-layer past K/V; outputs one logits
/// row per fed token and the per-layer caches extended by `chunk` positions.
pub(super) struct PassDef {
    /// Tokens each sequence feeds through one pass.
    pub(super) chunk: usize,
    pub(super) graph: Graph,
    /// `graph`'s compile-cache key, hashed by the first compile rather than
    /// at registration: hashing both pass graphs was nearly half of what
    /// registering a model cost.
    graph_hash: OnceLock<u64>,
    pub(super) x_id: TensorId,
    pub(super) mask_id: TensorId,
    pub(super) past_ids: Vec<(TensorId, TensorId)>,
    pub(super) logits_id: TensorId,
    /// The per-layer `new_k`/`new_v` graph outputs.
    pub(super) cache_out_ids: Vec<(TensorId, TensorId)>,
}

impl PassDef {
    /// The graph's structural hash, computed once.
    pub(super) fn graph_hash(&self) -> u64 {
        *self.graph_hash.get_or_init(|| self.graph.structural_hash())
    }
}

/// Builds and checks a [`ModelDef`]: the decode step at `max_batch`
/// sequences, plus one prefill pass per menu chunk.
pub(super) fn validate_spec(
    spec: &DecodeModelSpec,
    max_batch: usize,
    chunk_menu: &[usize],
) -> Result<ModelDef, DecodeError> {
    let bad = |msg: String| DecodeError::BadModel(msg);
    if spec.layers < 1 || spec.hidden < 1 || spec.heads < 1 || spec.vocab < 1 {
        return Err(bad("layers/hidden/heads/vocab must be positive".into()));
    }
    if spec.hidden % spec.heads != 0 {
        return Err(bad(format!(
            "heads ({}) must divide hidden ({})",
            spec.heads, spec.hidden
        )));
    }
    if spec.max_context < 1 {
        return Err(bad("max_context must be at least 1".into()));
    }
    let batch = max_batch as i64;
    let step = validate_pass(spec, batch, 1, "decode step")?;
    let mut prefill = Vec::new();
    for &chunk in chunk_menu {
        let c = chunk as i64;
        if c > spec.max_context {
            continue; // a chunk can never exceed a sequence's cache need
        }
        prefill.push(validate_pass(spec, 1, c, &format!("prefill[{chunk}]"))?);
    }
    let embed = Tensor::randn(&[spec.vocab, spec.hidden], EMBED_SEED)
        .data()
        .expect("randn is a constant")
        .to_vec();
    Ok(ModelDef {
        name: spec.name.clone(),
        layers: spec.layers,
        hidden: spec.hidden as usize,
        heads: spec.heads as usize,
        head_dim: (spec.hidden / spec.heads) as usize,
        vocab: spec.vocab,
        max_context: spec.max_context as usize,
        step,
        embed,
        prefill,
    })
}

/// Builds the spec's graph for `seqs` sequences × `chunk` tokens and checks
/// it against the forward-pass interface (see [`PassDef`]); `what` names the
/// graph in errors.
fn validate_pass(
    spec: &DecodeModelSpec,
    seqs: i64,
    chunk: i64,
    what: &str,
) -> Result<PassDef, DecodeError> {
    let bad = |msg: String| DecodeError::BadModel(format!("{what}: {msg}"));
    let graph = (spec.builder)(seqs, chunk, spec.max_context);
    // The graph comes from an arbitrary builder closure: deep-verify it
    // (structure, shape re-inference, KV pairing, mask shape) before
    // trusting its interface — a malformed model is rejected at
    // registration, never inside the step loop.
    let diags = hidet_analysis::verify_graph(&graph, hidet_analysis::VerifyLevel::Deep);
    if hidet_analysis::has_errors(&diags) {
        return Err(bad(format!(
            "failed verification: {}",
            hidet_analysis::render_text(&diags).trim_end()
        )));
    }
    let expect_inputs = 2 + 2 * spec.layers;
    let expect_outputs = 1 + 2 * spec.layers;
    if graph.inputs().len() != expect_inputs {
        return Err(bad(format!(
            "expected {expect_inputs} graph inputs (x, mask, caches), got {}",
            graph.inputs().len()
        )));
    }
    if graph.outputs().len() != expect_outputs {
        return Err(bad(format!(
            "expected {expect_outputs} graph outputs (logits, caches), got {}",
            graph.outputs().len()
        )));
    }
    let check = |t: TensorId, want: &[i64], part: &str| -> Result<(), DecodeError> {
        let got = graph.tensor(t).shape();
        if got != want {
            return Err(bad(format!("{part} has shape {got:?}, expected {want:?}")));
        }
        Ok(())
    };
    let rows = seqs * spec.heads;
    let head_dim = spec.hidden / spec.heads;
    let past = spec.max_context;
    let x_id = graph.inputs()[0];
    let mask_id = graph.inputs()[1];
    check(x_id, &[seqs * chunk, spec.hidden], "input x")?;
    check(mask_id, &[rows, chunk, past + chunk], "input mask")?;
    let mut past_ids = Vec::with_capacity(spec.layers);
    let mut cache_out_ids = Vec::with_capacity(spec.layers);
    for l in 0..spec.layers {
        let pk = graph.inputs()[2 + 2 * l];
        let pv = graph.inputs()[3 + 2 * l];
        check(pk, &[rows, past, head_dim], "past_k input")?;
        check(pv, &[rows, past, head_dim], "past_v input")?;
        past_ids.push((pk, pv));
        let nk = graph.outputs()[1 + 2 * l];
        let nv = graph.outputs()[2 + 2 * l];
        check(nk, &[rows, past + chunk, head_dim], "new_k output")?;
        check(nv, &[rows, past + chunk, head_dim], "new_v output")?;
        cache_out_ids.push((nk, nv));
    }
    let logits_id = graph.outputs()[0];
    check(logits_id, &[seqs * chunk, spec.vocab], "logits output")?;
    Ok(PassDef {
        chunk: chunk as usize,
        graph_hash: OnceLock::new(),
        x_id,
        mask_id,
        past_ids,
        logits_id,
        cache_out_ids,
        graph,
    })
}

/// A model definition's identity: runtime state is keyed by it, so a
/// re-registered name gets fresh state while in-flight sessions keep theirs.
pub(super) fn def_key(def: &Arc<ModelDef>) -> usize {
    Arc::as_ptr(def) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_validation_rejects_bad_dims_and_interfaces() {
        // heads must divide hidden.
        let spec = DecodeModelSpec::transformer("m", 1, 30, 4, 8, 8);
        assert!(matches!(
            validate_spec(&spec, 2, &[]),
            Err(DecodeError::BadModel(_))
        ));
        // A builder whose graph is not a forward pass.
        let spec = DecodeModelSpec::custom("m", 1, 16, 2, 8, 8, |batch, _, _| {
            let mut g = hidet_graph::GraphBuilder::new("not_decode");
            let x = g.input("x", &[batch, 16]);
            let y = g.relu(x);
            g.output(y).build()
        });
        assert!(matches!(
            validate_spec(&spec, 2, &[]),
            Err(DecodeError::BadModel(_))
        ));
        // A builder that ignores `chunk` passes as a decode step but is
        // caught at the first menu chunk.
        let spec = DecodeModelSpec::custom("m", 1, 16, 2, 8, 8, |seqs, _, past| {
            hidet_graph::models::transformer_decode_step("m", seqs, past, 1, 16, 2, 8)
        });
        assert!(validate_spec(&spec, 2, &[]).is_ok());
        match validate_spec(&spec, 2, &[4]) {
            Err(DecodeError::BadModel(msg)) => assert!(msg.starts_with("prefill[4]"), "{msg}"),
            other => panic!("expected BadModel, got {:?}", other.map(|_| ())),
        }
        // The real builder validates.
        let spec = DecodeModelSpec::transformer("m", 1, 16, 2, 8, 8);
        let def = validate_spec(&spec, 2, &[]).unwrap();
        assert_eq!(def.head_dim, 8);
        assert_eq!(def.embed.len(), 8 * 16);
    }

    #[test]
    fn prefill_defs_follow_the_menu_and_skip_oversized_chunks() {
        // Context window 8: chunks 4 and 8 fit, 16 is skipped; an empty menu
        // yields no prefill defs at all.
        let spec = DecodeModelSpec::transformer("m", 1, 16, 2, 8, 8);
        let def = validate_spec(&spec, 2, &[4, 8, 16]).unwrap();
        let chunks: Vec<usize> = def.prefill.iter().map(|p| p.chunk).collect();
        assert_eq!(chunks, vec![4, 8]);
        assert_eq!(def.step.chunk, 1);
        for p in &def.prefill {
            assert_eq!(p.past_ids.len(), 1);
            assert_eq!(p.cache_out_ids.len(), 1);
        }
        assert!(validate_spec(&spec, 2, &[]).unwrap().prefill.is_empty());
    }
}
