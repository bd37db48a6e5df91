//! The dense tensor type: contiguous row-major `f32` storage.
//!
//! This runtime substitutes for PyTorch/ATen in the reproduction: it is the
//! execution substrate for the eager code generator (§8) and for the training
//! loops of the accuracy proxy. Simplicity and auditability are prioritized
//! over speed — every operation materializes a fresh contiguous tensor, and
//! the loop-nest interpreter in `syno-ir` cross-checks its semantics.

use std::fmt;

/// A dense, contiguous, row-major `f32` tensor.
///
/// # Examples
///
/// ```
/// use syno_tensor::Tensor;
///
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// assert_eq!(t.get(&[1, 0]), 3.0);
/// assert_eq!(t.sum_all(), 10.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from a flat buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let numel: usize = shape.iter().product();
        assert_eq!(data.len(), numel, "buffer/shape mismatch");
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// A tensor of zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; shape.iter().product()],
        }
    }

    /// A tensor of ones.
    pub fn ones(shape: &[usize]) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// A tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Tensor {
            shape: shape.to_vec(),
            data: vec![value; shape.iter().product()],
        }
    }

    /// A rank-0 (scalar) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: vec![],
            data: vec![value],
        }
    }

    /// The shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Read-only view of the flat buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Row-major strides for `shape`.
    pub fn strides_of(shape: &[usize]) -> Vec<usize> {
        let mut strides = vec![1usize; shape.len()];
        for i in (0..shape.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * shape[i + 1];
        }
        strides
    }

    /// Flattens a multi-index into a linear offset.
    ///
    /// # Panics
    ///
    /// Panics if the index rank mismatches or any coordinate is out of
    /// bounds.
    pub fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(index.len(), self.shape.len(), "index rank mismatch");
        let mut off = 0;
        let mut stride = 1;
        for i in (0..self.shape.len()).rev() {
            assert!(index[i] < self.shape[i], "index out of bounds");
            off += index[i] * stride;
            stride *= self.shape[i];
        }
        off
    }

    /// Element access by multi-index.
    pub fn get(&self, index: &[usize]) -> f32 {
        self.data[self.offset(index)]
    }

    /// Element assignment by multi-index.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.offset(index);
        self.data[off] = value;
    }

    /// Applies `f` elementwise, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Combines two same-shape tensors elementwise.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape, other.shape, "elementwise shape mismatch");
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Elementwise sum.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a * b)
    }

    /// Multiplies by a scalar.
    pub fn scale(&self, c: f32) -> Tensor {
        self.map(|x| x * c)
    }

    /// Adds a scalar.
    pub fn add_scalar(&self, c: f32) -> Tensor {
        self.map(|x| x + c)
    }

    /// In-place accumulate: `self += other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn accumulate(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "accumulate shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Sum of all elements.
    pub fn sum_all(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean_all(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum_all() / self.data.len() as f32
        }
    }

    /// Squared L2 norm.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum()
    }

    /// `true` when all elements are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Maximum absolute difference against another tensor of the same shape.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// `true` when elementwise within `tol` of `other`.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape && self.max_abs_diff(other) <= tol
    }

    /// Argmax along the last axis; returns indices shaped like the leading
    /// axes.
    ///
    /// # Panics
    ///
    /// Panics on rank-0 tensors.
    pub fn argmax_last(&self) -> Vec<usize> {
        assert!(!self.shape.is_empty(), "argmax needs rank >= 1");
        let last = *self.shape.last().unwrap();
        let rows = self.numel() / last.max(1);
        let mut out = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = &self.data[r * last..(r + 1) * last];
            let mut best = 0;
            for (i, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = i;
                }
            }
            out.push(best);
        }
        out
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={:?}", self.shape)?;
        if self.numel() <= 8 {
            write!(f, ", data={:?}", self.data)?;
        } else {
            write!(f, ", data=[{} elements]", self.numel())?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.get(&[0, 2]), 3.0);
        assert_eq!(t.get(&[1, 0]), 4.0);
        assert_eq!(t.numel(), 6);
        assert_eq!(t.rank(), 2);
    }

    #[test]
    fn strides_row_major() {
        assert_eq!(Tensor::strides_of(&[2, 3, 4]), vec![12, 4, 1]);
        assert_eq!(Tensor::strides_of(&[5]), vec![1]);
        assert_eq!(Tensor::strides_of(&[]), Vec::<usize>::new());
    }

    #[test]
    fn elementwise_arithmetic() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![3.0, 5.0], &[2]);
        assert_eq!(a.add(&b).data(), &[4.0, 7.0]);
        assert_eq!(a.mul(&b).data(), &[3.0, 10.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0]);
        assert_eq!(a.add_scalar(1.0).data(), &[2.0, 3.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, -2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(t.sum_all(), 6.0);
        assert_eq!(t.mean_all(), 1.5);
        assert_eq!(t.sq_norm(), 1.0 + 4.0 + 9.0 + 16.0);
    }

    #[test]
    fn set_and_accumulate() {
        let mut t = Tensor::zeros(&[2, 2]);
        t.set(&[1, 1], 5.0);
        assert_eq!(t.get(&[1, 1]), 5.0);
        let mut a = Tensor::ones(&[2, 2]);
        a.accumulate(&t);
        assert_eq!(a.get(&[1, 1]), 6.0);
        assert_eq!(a.get(&[0, 0]), 1.0);
    }

    #[test]
    fn argmax_rows() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.0, 0.3, 0.2, 0.5], &[2, 3]);
        assert_eq!(t.argmax_last(), vec![1, 2]);
    }

    #[test]
    fn scalar_tensor() {
        let s = Tensor::scalar(3.5);
        assert_eq!(s.rank(), 0);
        assert_eq!(s.numel(), 1);
        assert_eq!(s.sum_all(), 3.5);
    }

    #[test]
    fn allclose_detects_differences() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![1.0, 2.001], &[2]);
        assert!(a.allclose(&b, 0.01));
        assert!(!a.allclose(&b, 0.0001));
    }

    #[test]
    #[should_panic(expected = "buffer/shape mismatch")]
    fn bad_buffer_panics() {
        Tensor::from_vec(vec![1.0], &[2, 2]);
    }
}
