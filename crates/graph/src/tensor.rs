//! Host-side tensors.

use hidet_ir::DType;
use std::sync::Arc;

/// A host tensor: shape, element type and (for constants/weights) data.
///
/// Activations flowing through a [`crate::Graph`] are symbolic — shape only.
/// Weights and other constants carry data (shared, cheap to clone).
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<i64>,
    dtype: DType,
    data: Option<Arc<Vec<f32>>>,
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
        Tensor {
            shape: shape.to_vec(),
            dtype: DType::F32,
            data: Some(Arc::new(data)),
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

    /// Constant data, if this tensor is a constant.
    pub fn data(&self) -> Option<&[f32]> {
        self.data.as_ref().map(|d| d.as_slice())
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
