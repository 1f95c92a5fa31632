//! Host-side tensors.

use hidet_ir::DType;
use std::sync::{Arc, LazyLock};

/// A constant's elements: produced the first time anything reads them, once,
/// and shared by every clone and view of the tensor.
type Payload = Arc<LazyLock<Vec<f32>, Box<dyn FnOnce() -> Vec<f32> + Send>>>;

/// A host tensor: shape, element type and (for constants/weights) data.
///
/// Activations flowing through a [`crate::Graph`] are symbolic — shape only.
/// Weights and other constants carry data (shared, cheap to clone). A
/// constant folded by [`crate::passes::constant_fold`] is computed on its
/// first [`Tensor::data`], not when it is folded.
#[derive(Debug, Clone)]
pub struct Tensor {
    shape: Vec<i64>,
    dtype: DType,
    data: Option<Payload>,
}

/// Shape, element type and elements (a folded constant is evaluated to
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
        Tensor::lazy(shape, move || data)
    }

    /// A constant whose `shape`-volume elements `eval` produces on the
    /// first read.
    pub(crate) fn lazy(shape: &[i64], eval: impl FnOnce() -> Vec<f32> + Send + 'static) -> Tensor {
        Tensor {
            shape: shape.to_vec(),
            dtype: DType::F32,
            data: Some(Arc::new(LazyLock::new(Box::new(eval)))),
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
        let numel: i64 = shape.iter().product();
        Tensor::from_vec(shape, vec![0.0; numel as usize])
    }

    /// A constant tensor filled with `value`.
    pub fn full(shape: &[i64], value: f32) -> Tensor {
        let numel: i64 = shape.iter().product();
        Tensor::from_vec(shape, vec![value; numel as usize])
    }

    /// A deterministic pseudo-random tensor in `[-0.5, 0.5)`, seeded — used
    /// for weights so every run of the evaluation is reproducible.
    ///
    /// Uses an inline splitmix64 generator: model zoos allocate hundreds of
    /// millions of weights, so generation speed matters more than statistical
    /// quality here.
    pub fn randn(shape: &[i64], seed: u64) -> Tensor {
        let numel: i64 = shape.iter().product();
        let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let data = (0..numel)
            .map(|_| {
                // splitmix64 step
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                (z >> 40) as f32 / (1u64 << 24) as f32 - 0.5
            })
            .collect();
        Tensor::from_vec(shape, data)
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

    /// Constant data, if this tensor is a constant; a folded constant is
    /// evaluated by the first call.
    pub fn data(&self) -> Option<&[f32]> {
        self.data.as_deref().map(|d| d.as_slice())
    }

    /// Whether anything has read a constant's elements yet (a folded
    /// constant's are produced by that first read).
    #[cfg(test)]
    pub(crate) fn is_evaluated(&self) -> bool {
        self.data
            .as_deref()
            .is_some_and(|d| LazyLock::get(d).is_some())
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
        let t = Tensor::lazy(&[2, 3], move || {
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
}
