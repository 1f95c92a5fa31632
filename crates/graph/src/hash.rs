//! Deterministic structural hashing of [`Graph`]s — the compiled-graph cache
//! key of the serving runtime (`hidet-runtime`).
//!
//! Two graphs that receive the same hash describe the same computation: the
//! same operators (kind + attributes) applied in the same order to tensors of
//! the same shapes/dtypes with the same constant data. The converse holds
//! for everything but constant data: a constant is hashed by its payload's
//! digest, which names its elements by provenance (a seed, a fill value, a
//! fold of digested inputs) without generating them, so equal elements of
//! different provenance hash differently. That costs a compiled-graph cache
//! a false miss, never a false hit.
//!
//! Crucially, the hash is **invariant under tensor-id renumbering**: tensor
//! ids are storage indices assigned by the builder, so two builds of the same
//! model that allocate tensors in a different order must still collide. The
//! hash is computed over *canonical* tensor ids — the order of first
//! appearance along the graph's input list and topologically ordered
//! operators — never over raw [`TensorId`] values.
//!
//! The hasher is FNV-1a (64-bit), implemented locally so the value is stable
//! across processes, platforms and Rust releases — it participates in
//! persistent cache keys, where `std::hash`'s unspecified internals would be
//! a correctness bug.

use std::collections::HashMap;

use crate::graph::{Graph, TensorId};
use crate::op::OpKind;
use crate::tensor::Tensor;

/// 64-bit FNV-1a, the stable hasher behind [`Graph::structural_hash`].
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

impl StableHasher {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;

    /// A fresh hasher.
    pub fn new() -> StableHasher {
        StableHasher {
            state: Self::OFFSET,
        }
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(Self::PRIME);
        }
    }

    /// Absorbs a `u64`.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs an `i64`.
    pub fn write_i64(&mut self, v: i64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a string, length-prefixed so concatenations cannot collide.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// The accumulated hash.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for StableHasher {
    fn default() -> StableHasher {
        StableHasher::new()
    }
}

/// Assigns canonical ids in order of first appearance and resolves lookups.
struct Canonicalizer {
    ids: HashMap<TensorId, u64>,
}

impl Canonicalizer {
    fn new() -> Canonicalizer {
        Canonicalizer {
            ids: HashMap::new(),
        }
    }

    fn canon(&mut self, t: TensorId) -> u64 {
        let next = self.ids.len() as u64;
        *self.ids.entry(t).or_insert(next)
    }
}

/// How a constant's payload enters the hash.
type HashPayload = fn(&mut StableHasher, &Tensor);

fn hash_tensor(h: &mut StableHasher, t: &Tensor, payload: HashPayload) {
    h.write_u64(t.shape().len() as u64);
    for &d in t.shape() {
        h.write_i64(d);
    }
    h.write_str(&format!("{:?}", t.dtype()));
    if t.is_const() {
        h.write_u64(1);
        payload(h, t);
    } else {
        h.write_u64(0);
    }
}

fn hash_digest(h: &mut StableHasher, t: &Tensor) {
    h.write_u64(t.digest().expect("a constant has a digest"));
}

fn hash_op_kind(h: &mut StableHasher, kind: &OpKind) {
    // `OpKind`'s Debug form spells out the variant and every attribute
    // (stride, padding, axis, permutation, ...) and is defined in this
    // workspace, so it is a stable, collision-free attribute encoding.
    h.write_str(&format!("{kind:?}"));
}

impl Graph {
    /// A deterministic hash of the graph's structure: operators (kind and
    /// attributes, in topological order), tensor shapes/dtypes, constant
    /// digests, and the input/output interface. Stable across processes
    /// (FNV-1a over a canonical encoding) and invariant under tensor-id
    /// renumbering. O(operators): no constant element is generated or read,
    /// except that a [`Tensor::from_vec`] constant hashes its elements once.
    ///
    /// The model *name* is deliberately excluded: two differently named
    /// graphs describing the same computation compile identically, and the
    /// compiled-graph cache should serve one for the other.
    pub fn structural_hash(&self) -> u64 {
        self.canonical_hash("hidet-graph-v2", hash_digest)
    }

    /// The graph's canonical encoding under `domain`, each constant's
    /// payload absorbed by `payload`.
    fn canonical_hash(&self, domain: &str, payload: HashPayload) -> u64 {
        let mut h = StableHasher::new();
        let mut canon = Canonicalizer::new();

        h.write_str(domain);
        h.write_u64(self.inputs().len() as u64);
        for &t in self.inputs() {
            let id = canon.canon(t);
            h.write_u64(id);
            hash_tensor(&mut h, self.tensor(t), payload);
        }
        h.write_u64(self.ops().len() as u64);
        for op in self.ops() {
            hash_op_kind(&mut h, &op.kind);
            h.write_u64(op.inputs.len() as u64);
            for &t in &op.inputs {
                let id = canon.canon(t);
                h.write_u64(id);
                hash_tensor(&mut h, self.tensor(t), payload);
            }
            let out = canon.canon(op.output);
            h.write_u64(out);
            hash_tensor(&mut h, self.tensor(op.output), payload);
        }
        h.write_u64(self.outputs().len() as u64);
        for &t in self.outputs() {
            let id = canon.canon(t);
            h.write_u64(id);
        }
        h.finish()
    }

    /// The `hidet-graph-v1` structural hash, which absorbed every constant
    /// element byte: the content goldens pin a pass's output *bits* through
    /// it, where [`Graph::structural_hash`] pins only provenance.
    #[cfg(test)]
    pub(crate) fn content_hash(&self) -> u64 {
        self.canonical_hash("hidet-graph-v1", |h, t| {
            let data = t.data().expect("a constant has elements");
            h.write_u64(data.len() as u64);
            for v in data {
                h.write(&v.to_bits().to_le_bytes());
            }
        })
    }

    /// Rebuilds the graph with its tensor storage permuted: tensor `i` moves
    /// to slot `perm[i]` and every reference is rewritten. The result is
    /// semantically identical — this exists so tests (and future graph
    /// passes) can exercise tensor-id-renumbering invariance.
    ///
    /// # Panics
    /// Panics if `perm` is not a permutation of `0..num_tensors()`.
    pub fn renumbered(&self, perm: &[usize]) -> Graph {
        assert_eq!(
            perm.len(),
            self.num_tensors(),
            "permutation length mismatch"
        );
        let (tensors, ops) = self.parts();
        let mut new_tensors = vec![None; tensors.len()];
        for (i, t) in tensors.iter().enumerate() {
            assert!(new_tensors[perm[i]].is_none(), "not a permutation");
            new_tensors[perm[i]] = Some(t.clone());
        }
        let new_tensors: Vec<Tensor> = new_tensors
            .into_iter()
            .map(|t| t.expect("permutation covers all slots"))
            .collect();
        let remap = |t: TensorId| TensorId(perm[t.0]);
        let new_ops = ops
            .iter()
            .map(|op| {
                let mut op = op.clone();
                op.inputs = op.inputs.iter().copied().map(remap).collect();
                op.output = remap(op.output);
                op
            })
            .collect();
        let new_inputs = self.inputs().iter().copied().map(remap).collect();
        let new_outputs = self.outputs().iter().copied().map(remap).collect();
        let mut g = self.clone();
        g.replace(new_tensors, new_ops, new_inputs, new_outputs);
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use proptest::prelude::*;

    /// y = relu(x · w + b), with a knob for each structural property the
    /// hash must distinguish.
    fn mlp(rows: i64, cols: i64, hidden: i64, activation: u8) -> Graph {
        let mut g = GraphBuilder::new("p");
        let x = g.input("x", &[rows, cols]);
        let w = g.constant(Tensor::randn(&[cols, hidden], 1));
        let b = g.constant(Tensor::randn(&[hidden], 2));
        let y = g.matmul(x, w);
        let y = g.add(y, b);
        let y = match activation {
            0 => g.relu(y),
            1 => g.gelu(y),
            _ => g.tanh(y),
        };
        g.output(y).build()
    }

    /// A permutation of `0..n` derived from a shuffle seed.
    fn permutation(n: usize, seed: u64) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..n).collect();
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        for i in (1..n).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            perm.swap(i, j);
        }
        perm
    }

    #[test]
    fn hash_is_deterministic_across_rebuilds() {
        assert_eq!(
            mlp(8, 16, 4, 0).structural_hash(),
            mlp(8, 16, 4, 0).structural_hash()
        );
    }

    #[test]
    fn hash_ignores_graph_name() {
        let mut g = GraphBuilder::new("completely-different-name");
        let x = g.input("x", &[8, 16]);
        let w = g.constant(Tensor::randn(&[16, 4], 1));
        let b = g.constant(Tensor::randn(&[4], 2));
        let y = g.matmul(x, w);
        let y = g.add(y, b);
        let y = g.relu(y);
        let renamed = g.output(y).build();
        assert_eq!(
            mlp(8, 16, 4, 0).structural_hash(),
            renamed.structural_hash()
        );
    }

    #[test]
    fn hash_distinguishes_constant_data() {
        let a = mlp(8, 16, 4, 0);
        let mut g = GraphBuilder::new("p");
        let x = g.input("x", &[8, 16]);
        let w = g.constant(Tensor::randn(&[16, 4], 99)); // different weights
        let b = g.constant(Tensor::randn(&[4], 2));
        let y = g.matmul(x, w);
        let y = g.add(y, b);
        let y = g.relu(y);
        let other = g.output(y).build();
        assert_ne!(a.structural_hash(), other.structural_hash());
    }

    #[test]
    fn declaration_order_of_unused_slots_is_irrelevant() {
        // Build the same logical model but declare the bias weight before the
        // matmul weight: tensor ids differ, structure does not.
        let mut g = GraphBuilder::new("p");
        let x = g.input("x", &[8, 16]);
        let b = g.constant(Tensor::randn(&[4], 2));
        let w = g.constant(Tensor::randn(&[16, 4], 1));
        let y = g.matmul(x, w);
        let y = g.add(y, b);
        let y = g.relu(y);
        let swapped = g.output(y).build();
        assert_eq!(
            mlp(8, 16, 4, 0).structural_hash(),
            swapped.structural_hash()
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Determinism: hashing is a pure function of the graph.
        #[test]
        fn hash_deterministic(
            rows in 1i64..8,
            cols in 2i64..10,
            hidden in 1i64..6,
            act in 0u8..3,
        ) {
            let g = mlp(rows, cols, hidden, act);
            prop_assert_eq!(g.structural_hash(), g.structural_hash());
            prop_assert_eq!(
                g.structural_hash(),
                mlp(rows, cols, hidden, act).structural_hash()
            );
        }

        /// Invariance under tensor-id renumbering: any permutation of the
        /// tensor storage yields the same hash.
        #[test]
        fn hash_invariant_under_renumbering(
            rows in 1i64..8,
            cols in 2i64..10,
            hidden in 1i64..6,
            act in 0u8..3,
            seed in 0u64..1000,
        ) {
            let g = mlp(rows, cols, hidden, act);
            let perm = permutation(g.num_tensors(), seed);
            let renumbered = g.renumbered(&perm);
            prop_assert_eq!(g.structural_hash(), renumbered.structural_hash());
        }

        /// Graphs differing in operator kind hash differently.
        #[test]
        fn hash_distinguishes_op_kind(
            rows in 1i64..8,
            cols in 2i64..10,
            hidden in 1i64..6,
            a in 0u8..3,
            b in 0u8..3,
        ) {
            prop_assume!(a != b);
            prop_assert!(
                mlp(rows, cols, hidden, a).structural_hash()
                    != mlp(rows, cols, hidden, b).structural_hash()
            );
        }

        /// Graphs differing in a tensor shape hash differently.
        #[test]
        fn hash_distinguishes_shapes(
            rows in 1i64..8,
            other_rows in 1i64..8,
            cols in 2i64..10,
            hidden in 1i64..6,
        ) {
            prop_assume!(rows != other_rows);
            prop_assert!(
                mlp(rows, cols, hidden, 0).structural_hash()
                    != mlp(other_rows, cols, hidden, 0).structural_hash()
            );
        }
    }
}
