//! Host-side tensors.

use hidet_ir::DType;
use std::sync::{Arc, LazyLock, OnceLock};

use crate::hash::StableHasher;

/// A constant's elements and their identity, shared by every clone and view
/// of the tensor.
///
/// The elements are produced the first time anything reads them, once. The
/// digest names them without reading them wherever their provenance fixes
/// them (a seed, a fill value, a fold of digested inputs); it is what
/// [`crate::Graph::structural_hash`] absorbs. The rule: **equal digests imply
/// equal elements**, because every provenance hashes under its own domain
/// tag. Equal elements of different provenance may get different digests.
#[derive(Debug)]
struct Payload {
    digest: OnceLock<u64>,
    elements: LazyLock<Vec<f32>, Box<dyn FnOnce() -> Vec<f32> + Send>>,
}

impl Payload {
    fn new(digest: OnceLock<u64>, eval: impl FnOnce() -> Vec<f32> + Send + 'static) -> Payload {
        Payload {
            digest,
            elements: LazyLock::new(Box::new(eval)),
        }
    }

    /// The digest; a payload built from explicit elements hashes them here,
    /// on the first call.
    fn digest(&self) -> u64 {
        *self.digest.get_or_init(|| {
            let mut h = StableHasher::new();
            h.write_str("elements");
            h.write_u64(self.elements.len() as u64);
            for v in self.elements.iter() {
                h.write(&v.to_bits().to_le_bytes());
            }
            h.finish()
        })
    }
}

/// A digest from provenance: a domain tag, then whatever fixes the elements.
fn provenance_digest(tag: &str, absorb: impl FnOnce(&mut StableHasher)) -> u64 {
    let mut h = StableHasher::new();
    h.write_str(tag);
    absorb(&mut h);
    h.finish()
}

/// A host tensor: shape, element type and (for constants/weights) data.
///
/// Activations flowing through a [`crate::Graph`] are symbolic — shape only.
/// Weights and other constants carry data (shared, cheap to clone). A
/// generated constant ([`Tensor::randn`], [`Tensor::full`]) or one folded by
/// [`crate::passes::constant_fold`] is computed on its first
/// [`Tensor::data`], not when it is built.
#[derive(Debug, Clone)]
pub struct Tensor {
    shape: Vec<i64>,
    dtype: DType,
    data: Option<Arc<Payload>>,
}

/// Shape, element type and elements (a lazy constant is evaluated to
/// compare it).
impl PartialEq for Tensor {
    fn eq(&self, other: &Tensor) -> bool {
        self.shape == other.shape && self.dtype == other.dtype && self.data() == other.data()
    }
}

impl Tensor {
    /// A symbolic tensor (no data).
    ///
    /// # Panics
    /// Panics if any extent is non-positive.
    pub fn symbolic(shape: &[i64], dtype: DType) -> Tensor {
        assert!(
            shape.iter().all(|&d| d > 0),
            "tensor shape extents must be positive: {shape:?}"
        );
        Tensor {
            shape: shape.to_vec(),
            dtype,
            data: None,
        }
    }

    /// A constant tensor with the given data.
    ///
    /// # Panics
    /// Panics if `data.len()` does not match the shape volume.
    pub fn from_vec(shape: &[i64], data: Vec<f32>) -> Tensor {
        let numel: i64 = shape.iter().product();
        assert_eq!(
            data.len() as i64,
            numel,
            "data length {} != shape volume {numel}",
            data.len()
        );
        Tensor::constant(shape, Payload::new(OnceLock::new(), move || data))
    }

    /// A constant whose `shape`-volume elements `eval` produces on the
    /// first read. `digest` names those elements: two payloads with one
    /// digest must hold the same elements.
    pub(crate) fn lazy(
        shape: &[i64],
        digest: u64,
        eval: impl FnOnce() -> Vec<f32> + Send + 'static,
    ) -> Tensor {
        Tensor::constant(shape, Payload::new(OnceLock::from(digest), eval))
    }

    fn constant(shape: &[i64], payload: Payload) -> Tensor {
        Tensor {
            shape: shape.to_vec(),
            dtype: DType::F32,
            data: Some(Arc::new(payload)),
        }
    }

    /// The same elements under another shape: a constant shares its payload
    /// with `self` (row-major order is unchanged, so nothing is copied).
    ///
    /// # Panics
    /// Panics if `shape`'s volume differs from this tensor's.
    pub fn reshaped(&self, shape: &[i64]) -> Tensor {
        let numel: i64 = shape.iter().product();
        assert_eq!(
            numel,
            self.numel(),
            "cannot view {:?} as {shape:?}",
            self.shape
        );
        Tensor {
            shape: shape.to_vec(),
            dtype: self.dtype,
            data: self.data.clone(),
        }
    }

    /// A zero-filled constant tensor.
    pub fn zeros(shape: &[i64]) -> Tensor {
        Tensor::full(shape, 0.0)
    }

    /// A constant tensor filled with `value`, generated on its first read.
    pub fn full(shape: &[i64], value: f32) -> Tensor {
        let numel: i64 = shape.iter().product();
        let digest = provenance_digest("fill", |h| {
            h.write_u64(value.to_bits().into());
            h.write_i64(numel);
        });
        Tensor::lazy(shape, digest, move || vec![value; numel as usize])
    }

    /// A deterministic pseudo-random tensor in `[-0.5, 0.5)`, seeded — used
    /// for weights so every run of the evaluation is reproducible.
    ///
    /// Nothing is generated until the first read: a model is built, hashed
    /// and compiled from the seed alone, and only a binding or a reference
    /// run pays for the elements. The generator is an inline splitmix64, so
    /// the elements depend on the seed and the volume only.
    pub fn randn(shape: &[i64], seed: u64) -> Tensor {
        let numel: i64 = shape.iter().product();
        let digest = provenance_digest("randn", |h| {
            h.write_u64(seed);
            h.write_i64(numel);
        });
        Tensor::lazy(shape, digest, move || {
            let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            (0..numel)
                .map(|_| {
                    // splitmix64 step
                    state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    let mut z = state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    z ^= z >> 31;
                    (z >> 40) as f32 / (1u64 << 24) as f32 - 0.5
                })
                .collect()
        })
    }

    /// Shape.
    pub fn shape(&self) -> &[i64] {
        &self.shape
    }

    /// Element type.
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Number of elements.
    pub fn numel(&self) -> i64 {
        self.shape.iter().product()
    }

    /// Rank.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Constant data, if this tensor is a constant; a generated or folded
    /// constant is evaluated by the first call.
    pub fn data(&self) -> Option<&[f32]> {
        self.data.as_deref().map(|d| d.elements.as_slice())
    }

    /// A constant's digest: equal digests mean equal elements (see
    /// `Payload`). Reads no element unless the constant was built from
    /// explicit elements ([`Tensor::from_vec`]), which are hashed once, on
    /// the first call.
    pub(crate) fn digest(&self) -> Option<u64> {
        self.data.as_deref().map(Payload::digest)
    }

    /// Whether anything has read a constant's elements yet (a lazy
    /// constant's are produced by that first read).
    #[cfg(test)]
    pub(crate) fn is_evaluated(&self) -> bool {
        self.data
            .as_deref()
            .is_some_and(|d| LazyLock::get(&d.elements).is_some())
    }

    /// Whether a constant's digest is known yet.
    #[cfg(test)]
    pub(crate) fn is_digested(&self) -> bool {
        self.data
            .as_deref()
            .is_some_and(|d| d.digest.get().is_some())
    }

    /// True for constants (weights, folded values).
    pub fn is_const(&self) -> bool {
        self.data.is_some()
    }

    /// Row-major strides.
    pub fn strides(&self) -> Vec<i64> {
        let mut s = vec![1; self.shape.len()];
        for i in (0..self.shape.len().saturating_sub(1)).rev() {
            s[i] = s[i + 1] * self.shape[i + 1];
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{GraphBuilder, TensorId};
    use proptest::prelude::*;

    #[test]
    fn symbolic_has_no_data() {
        let t = Tensor::symbolic(&[2, 3], DType::F32);
        assert!(!t.is_const());
        assert_eq!(t.numel(), 6);
        assert_eq!(t.strides(), vec![3, 1]);
    }

    #[test]
    fn from_vec_checks_length() {
        let t = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.data().unwrap(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_rejects_bad_length() {
        let _ = Tensor::from_vec(&[2, 2], vec![1.0]);
    }

    #[test]
    fn reshaped_shares_the_payload() {
        let t = Tensor::randn(&[4, 6], 1);
        let r = t.reshaped(&[2, 12]);
        assert_eq!(r.shape(), &[2, 12]);
        assert!(std::ptr::eq(t.data().unwrap(), r.data().unwrap()));
        assert!(!Tensor::symbolic(&[4], DType::F32)
            .reshaped(&[2, 2])
            .is_const());
    }

    #[test]
    fn a_lazy_payload_is_evaluated_once_and_shared() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let calls = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&calls);
        let t = Tensor::lazy(&[2, 3], 0, move || {
            counter.fetch_add(1, Ordering::Relaxed);
            (0..6).map(|i| i as f32 * 0.5).collect()
        });
        let (clone, view) = (t.clone(), t.reshaped(&[3, 2]));
        assert!(!t.is_evaluated());
        let first = std::thread::scope(|s| s.spawn(|| view.data().unwrap()).join().unwrap());
        assert!(t.is_evaluated() && clone.is_evaluated());
        for read in [
            t.data().unwrap(),
            clone.data().unwrap(),
            view.data().unwrap(),
        ] {
            assert!(std::ptr::eq(read, first));
        }
        let bits: Vec<u32> = first.iter().map(|v| v.to_bits()).collect();
        let want: Vec<u32> = (0..6).map(|i| (i as f32 * 0.5).to_bits()).collect();
        assert_eq!(bits, want);
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    #[should_panic(expected = "cannot view")]
    fn reshaped_rejects_another_volume() {
        let _ = Tensor::zeros(&[2, 3]).reshaped(&[4]);
    }

    #[test]
    fn randn_is_deterministic() {
        let a = Tensor::randn(&[16], 42);
        let b = Tensor::randn(&[16], 42);
        let c = Tensor::randn(&[16], 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn scalar_like_shapes() {
        let t = Tensor::full(&[1], 3.0);
        assert_eq!(t.numel(), 1);
        assert_eq!(t.data().unwrap(), &[3.0]);
    }

    #[test]
    fn generated_constants_are_lazy_and_bit_identical() {
        let (r, f, z) = (
            Tensor::randn(&[3, 5], 11),
            Tensor::full(&[4], -0.0),
            Tensor::zeros(&[2, 2]),
        );
        assert!(r.digest().is_some() && f.digest().is_some() && z.digest().is_some());
        assert!(!r.is_evaluated() && !f.is_evaluated() && !z.is_evaluated());
        // The first and last elements of seed 11, as the eager generator
        // produced them.
        let r = r.data().unwrap();
        assert_eq!(
            (r[0].to_bits(), r[14].to_bits()),
            (0xbe73_5690, 0xbe82_4244)
        );
        assert!(f
            .data()
            .unwrap()
            .iter()
            .all(|v| v.to_bits() == (-0.0f32).to_bits()));
        assert_eq!(z.data().unwrap(), &[0.0; 4]);
    }

    #[test]
    fn a_from_vec_digest_is_computed_once_and_shared() {
        let t = Tensor::from_vec(&[2, 3], (0..6).map(|i| i as f32).collect());
        let view = t.reshaped(&[6]);
        assert!(!t.is_digested());
        let digest = view.digest().unwrap();
        assert!(t.is_digested() && t.clone().is_digested());
        assert_eq!(t.digest(), Some(digest));
        let again = Tensor::from_vec(&[3, 2], (0..6).map(|i| i as f32).collect());
        assert_eq!(again.digest(), Some(digest));
    }

    /// How a constant is made: every constructor, views, and folds of
    /// constants — the provenances a digest can come from.
    #[derive(Debug, Clone)]
    enum Recipe {
        Randn([i64; 2], u64),
        Full([i64; 2], u32),
        Zeros([i64; 2]),
        FromVec([i64; 2], Vec<u32>),
        View(Box<Recipe>),
        Transpose(Box<Recipe>),
        Reshape(Box<Recipe>),
        Relu(Box<Recipe>),
        /// `x + y` over `[n, 1] + [1, n]` (or `[1, n] + [n, 1]` when
        /// flipped) for `x` of volume `n` and `y = randn([n], seed)`: the
        /// two orientations differ only in their inputs' shapes.
        Outer(Box<Recipe>, u64, bool),
    }

    /// Fill values, `0.0` and `-0.0` and two NaNs among them.
    const FILLS: [u32; 6] = [
        0x0000_0000,
        0x8000_0000,
        0x3f80_0000,
        0xbf00_0000,
        0x7fc0_0000,
        0x7fc0_0001,
    ];

    /// The one operator `op` adds over constants, folded by
    /// [`crate::passes::constant_fold`].
    fn folded(op: impl FnOnce(&mut GraphBuilder) -> TensorId) -> Tensor {
        let mut g = GraphBuilder::new("fold");
        let y = op(&mut g);
        let mut graph = g.output(y).build();
        assert_eq!(crate::passes::constant_fold(&mut graph), 1);
        graph.tensor(y).clone()
    }

    impl Recipe {
        fn build(&self) -> Tensor {
            match self {
                Recipe::Randn(shape, seed) => Tensor::randn(shape, *seed),
                Recipe::Full(shape, bits) => Tensor::full(shape, f32::from_bits(*bits)),
                Recipe::Zeros(shape) => Tensor::zeros(shape),
                Recipe::FromVec(shape, bits) => {
                    Tensor::from_vec(shape, bits.iter().map(|&b| f32::from_bits(b)).collect())
                }
                Recipe::View(inner) => {
                    let t = inner.build();
                    let flipped = [t.shape()[1], t.shape()[0]];
                    t.reshaped(&flipped)
                }
                Recipe::Transpose(inner) => {
                    let t = inner.build();
                    folded(|g| {
                        let c = g.constant(t);
                        g.transpose(c, &[1, 0])
                    })
                }
                Recipe::Reshape(inner) => {
                    let t = inner.build();
                    let flipped = [t.shape()[1], t.shape()[0]];
                    folded(|g| {
                        let c = g.constant(t);
                        g.reshape(c, &flipped)
                    })
                }
                Recipe::Relu(inner) => {
                    let t = inner.build();
                    folded(|g| {
                        let c = g.constant(t);
                        g.relu(c)
                    })
                }
                Recipe::Outer(inner, seed, flip) => {
                    let x = inner.build();
                    let n = x.numel();
                    let y = Tensor::randn(&[n], *seed);
                    let (xs, ys) = if *flip {
                        ([1, n], [n, 1])
                    } else {
                        ([n, 1], [1, n])
                    };
                    folded(|g| {
                        let a = g.constant(x.reshaped(&xs));
                        let b = g.constant(y.reshaped(&ys));
                        g.add(a, b)
                    })
                }
            }
        }
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().unwrap().iter().map(|v| v.to_bits()).collect()
    }

    fn shape() -> impl Strategy<Value = [i64; 2]> {
        (1i64..=3, 1i64..=3).prop_map(|(a, b)| [a, b])
    }

    fn leaf() -> impl Strategy<Value = Recipe> {
        prop_oneof![
            (shape(), 0u64..3).prop_map(|(s, seed)| Recipe::Randn(s, seed)),
            (shape(), prop::sample::select(FILLS.to_vec())).prop_map(|(s, b)| Recipe::Full(s, b)),
            shape().prop_map(Recipe::Zeros),
            (
                shape(),
                prop::collection::vec(prop::sample::select(FILLS[..3].to_vec()), 9)
            )
                .prop_map(|(s, mut bits)| {
                    bits.truncate((s[0] * s[1]) as usize);
                    Recipe::FromVec(s, bits)
                }),
        ]
    }

    /// Chains of views and folds over leaves; an outer sum squares the
    /// volume, so it takes a leaf.
    fn recipe() -> impl Strategy<Value = Recipe> {
        leaf().prop_recursive(3, 8, 1, |inner| {
            prop_oneof![
                inner.clone().prop_map(|r| Recipe::View(Box::new(r))),
                inner.clone().prop_map(|r| Recipe::Transpose(Box::new(r))),
                inner.clone().prop_map(|r| Recipe::Reshape(Box::new(r))),
                inner.prop_map(|r| Recipe::Relu(Box::new(r))),
                (leaf(), 0u64..3, 0u8..2).prop_map(|(r, seed, flip)| Recipe::Outer(
                    Box::new(r),
                    seed,
                    flip == 1
                )),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The soundness rule the compiled-graph cache rests on: two
        /// constants with one digest hold the same elements, bit for bit —
        /// and building a constant again gives it its digest again.
        #[test]
        fn equal_digests_mean_equal_elements(a in recipe(), b in recipe()) {
            let (x, y) = (a.build(), b.build());
            if x.digest() == y.digest() {
                prop_assert_eq!(bits(&x), bits(&y), "{:?} and {:?} share a digest", a, b);
            }
            prop_assert_eq!(a.build().digest(), x.digest());
        }
    }

    #[test]
    fn small_constants_with_different_elements_have_different_digests() {
        // Every leaf over all 1..=3 x 1..=3 shapes and one level of each
        // view and fold over them: whenever two hold different elements,
        // their digests differ.
        let mut leaves = Vec::new();
        for a in 1..=3 {
            for b in 1..=3 {
                let s = [a, b];
                let numel = (a * b) as usize;
                leaves.extend((0..3).map(|seed| Recipe::Randn(s, seed)));
                leaves.extend(FILLS.iter().map(|&bits| Recipe::Full(s, bits)));
                leaves.push(Recipe::Zeros(s));
                leaves.push(Recipe::FromVec(s, vec![0; numel]));
                leaves.push(Recipe::FromVec(
                    s,
                    (0..numel as u32).map(|i| (i as f32).to_bits()).collect(),
                ));
            }
        }
        let mut all = leaves.clone();
        for leaf in &leaves {
            let boxed = || Box::new(leaf.clone());
            all.push(Recipe::View(boxed()));
            all.push(Recipe::Transpose(boxed()));
            all.push(Recipe::Reshape(boxed()));
            all.push(Recipe::Relu(boxed()));
            all.extend([false, true].map(|flip| Recipe::Outer(boxed(), 7, flip)));
        }
        let mut seen: std::collections::HashMap<u64, (Vec<u32>, Recipe)> = Default::default();
        for r in all {
            let t = r.build();
            let (elements, first) = seen
                .entry(t.digest().unwrap())
                .or_insert_with(|| (bits(&t), r.clone()));
            assert_eq!(elements, &bits(&t), "{first:?} and {r:?} share a digest");
        }
        // Views, folded reshapes and equal-volume draws share digests.
        assert!(seen.len() > 300, "{} distinct digests", seen.len());
    }
}
