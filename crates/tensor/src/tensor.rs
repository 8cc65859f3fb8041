//! The dense row-major tensor type.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense, row-major, `f32` n-dimensional array.
///
/// Shapes are dynamic (a `Vec<usize>`); all data lives in one contiguous
/// buffer.  Operations validate shapes and panic with a descriptive message
/// on mismatch — shape errors are programming errors in model wiring, not
/// recoverable runtime conditions.
#[derive(Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={:?}", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, ", data={:?})", self.data)
        } else {
            write!(f, ", data=[{}, {}, ..])", self.data[0], self.data[1])
        }
    }
}

impl Tensor {
    /// Creates a tensor from a shape and a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if the product of `shape` does not equal `data.len()`.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f32>) -> Self {
        let numel: usize = shape.iter().product();
        assert_eq!(
            numel,
            data.len(),
            "shape {shape:?} implies {numel} elements but buffer has {}",
            data.len()
        );
        Tensor { shape, data }
    }

    /// A tensor of zeros.
    pub fn zeros(shape: Vec<usize>) -> Self {
        let numel: usize = shape.iter().product();
        Tensor {
            shape,
            data: vec![0.0; numel],
        }
    }

    /// A tensor of ones.
    pub fn ones(shape: Vec<usize>) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// A tensor filled with `value`.
    pub fn full(shape: Vec<usize>, value: f32) -> Self {
        let numel: usize = shape.iter().product();
        Tensor {
            shape,
            data: vec![value; numel],
        }
    }

    /// The shape of the tensor.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the tensor holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the flat buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reinterprets the buffer under a new shape of equal element count.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(mut self, shape: Vec<usize>) -> Self {
        let numel: usize = shape.iter().product();
        assert_eq!(
            numel,
            self.data.len(),
            "cannot reshape {} elements into {shape:?}",
            self.data.len()
        );
        self.shape = shape;
        self
    }

    /// Element at a 2-D index `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or the index is out of bounds.
    #[inline]
    pub fn at2(&self, r: usize, c: usize) -> f32 {
        assert_eq!(self.shape.len(), 2, "at2 requires a 2-D tensor");
        self.data[r * self.shape[1] + c]
    }

    /// Sets the element at a 2-D index `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or the index is out of bounds.
    #[inline]
    pub fn set2(&mut self, r: usize, c: usize, v: f32) {
        assert_eq!(self.shape.len(), 2, "set2 requires a 2-D tensor");
        self.data[r * self.shape[1] + c] = v;
    }

    /// Borrow of row `r` of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f32] {
        assert_eq!(self.shape.len(), 2, "row requires a 2-D tensor");
        let cols = self.shape[1];
        &self.data[r * cols..(r + 1) * cols]
    }

    /// Applies `f` elementwise, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` elementwise into `out`, which takes this tensor's
    /// shape and reuses its own buffer (allocation-free once warm).
    pub fn map_into(&self, out: &mut Tensor, f: impl Fn(f32) -> f32) {
        out.shape.clone_from(&self.shape);
        out.data.clear();
        out.data.extend(self.data.iter().map(|&x| f(x)));
    }

    /// Combines two same-shape tensors elementwise.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(
            self.shape, other.shape,
            "zip_map requires equal shapes ({:?} vs {:?})",
            self.shape, other.shape
        );
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
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise difference.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a - b)
    }

    /// In-place `self += other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(
            self.shape, other.shape,
            "add_assign requires equal shapes ({:?} vs {:?})",
            self.shape, other.shape
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place multiplication by a scalar.
    pub fn scale(&mut self, s: f32) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Reshapes this tensor in place to `shape`, reusing the existing
    /// buffer capacity.  Element values are retained up to the new element
    /// count; newly exposed elements are `0.0`.  Intended for scratch
    /// buffers on allocation-free hot paths: once capacity has reached its
    /// high-water mark, no allocation occurs.
    pub fn resize_in_place(&mut self, shape: &[usize]) {
        let numel: usize = shape.iter().product();
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        self.data.resize(numel, 0.0);
    }

    /// Reshapes in place like [`Tensor::resize_in_place`] and fills the
    /// buffer with `0.0` — the precondition of the GEMM `*_into` kernels,
    /// which accumulate into their output.
    pub fn resize_zeroed(&mut self, shape: &[usize]) {
        self.resize_in_place(shape);
        self.data.fill(0.0);
    }

    /// Makes this tensor an exact copy of `src` (shape and data), reusing
    /// the existing buffer capacity.
    pub fn copy_from(&mut self, src: &Tensor) {
        self.shape.clear();
        self.shape.extend_from_slice(&src.shape);
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Index of the maximum element of a 1-D tensor (ties break low).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn argmax(&self) -> usize {
        assert!(!self.data.is_empty(), "argmax of an empty tensor");
        let mut best = 0;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        best
    }
}

impl FromIterator<f32> for Tensor {
    /// Collects into a 1-D tensor.
    fn from_iter<I: IntoIterator<Item = f32>>(iter: I) -> Self {
        let data: Vec<f32> = iter.into_iter().collect();
        Tensor {
            shape: vec![data.len()],
            data,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_element_count() {
        let t = Tensor::from_vec(vec![2, 2], vec![1., 2., 3., 4.]);
        assert_eq!(t.len(), 4);
        assert_eq!(t.shape(), &[2, 2]);
    }

    #[test]
    #[should_panic(expected = "implies")]
    fn from_vec_rejects_bad_count() {
        let _ = Tensor::from_vec(vec![2, 2], vec![1., 2., 3.]);
    }

    #[test]
    fn zeros_ones_full() {
        assert_eq!(Tensor::zeros(vec![3]).sum(), 0.0);
        assert_eq!(Tensor::ones(vec![3]).sum(), 3.0);
        assert_eq!(Tensor::full(vec![2], 2.5).sum(), 5.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![2, 3], (0..6).map(|i| i as f32).collect());
        let r = t.clone().reshape(vec![3, 2]);
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.data(), t.data());
    }

    #[test]
    fn at2_and_row_are_row_major() {
        let t = Tensor::from_vec(vec![2, 3], vec![0., 1., 2., 10., 11., 12.]);
        assert_eq!(t.at2(1, 2), 12.0);
        assert_eq!(t.row(1), &[10., 11., 12.]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![3], vec![1., 2., 3.]);
        let b = Tensor::from_vec(vec![3], vec![4., 5., 6.]);
        assert_eq!(a.add(&b).data(), &[5., 7., 9.]);
        assert_eq!(b.sub(&a).data(), &[3., 3., 3.]);
    }

    #[test]
    #[should_panic(expected = "equal shapes")]
    fn add_shape_mismatch_panics() {
        let a = Tensor::zeros(vec![2]);
        let b = Tensor::zeros(vec![3]);
        let _ = a.add(&b);
    }

    #[test]
    fn scale_and_add_assign() {
        let mut a = Tensor::from_vec(vec![2], vec![1., 2.]);
        let b = Tensor::from_vec(vec![2], vec![10., 20.]);
        a.add_assign(&b);
        a.scale(0.5);
        assert_eq!(a.data(), &[5.5, 11.0]);
    }

    #[test]
    fn argmax_breaks_ties_low() {
        let t = Tensor::from_vec(vec![4], vec![1., 3., 3., 0.]);
        assert_eq!(t.argmax(), 1);
    }

    #[test]
    fn resize_in_place_retains_then_zero_fills() {
        let mut t = Tensor::from_vec(vec![2, 2], vec![1., 2., 3., 4.]);
        t.resize_in_place(&[3, 2]);
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.data(), &[1., 2., 3., 4., 0., 0.]);
        t.resize_in_place(&[2]);
        assert_eq!(t.data(), &[1., 2.]);
    }

    #[test]
    fn resize_zeroed_clears_every_element() {
        let mut t = Tensor::from_vec(vec![3], vec![1., 2., 3.]);
        t.resize_zeroed(&[2, 2]);
        assert_eq!(t.shape(), &[2, 2]);
        assert_eq!(t.data(), &[0., 0., 0., 0.]);
    }

    #[test]
    fn copy_from_matches_source_exactly() {
        let src = Tensor::from_vec(vec![2, 3], (0..6).map(|i| i as f32).collect());
        let mut dst = Tensor::zeros(vec![10]);
        dst.copy_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(Tensor::zeros(vec![0]).mean(), 0.0);
    }

    #[test]
    fn collect_into_tensor() {
        let t: Tensor = (0..4).map(|i| i as f32).collect();
        assert_eq!(t.shape(), &[4]);
        assert_eq!(t.sum(), 6.0);
    }

    #[test]
    fn debug_is_nonempty_and_compact() {
        let t = Tensor::zeros(vec![100]);
        let s = format!("{t:?}");
        assert!(s.contains("shape"));
        assert!(s.len() < 100);
    }
}
