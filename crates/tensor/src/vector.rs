//! Owned, dimension-checked `f32` vector.

use crate::error::TensorError;
use crate::Result;

/// A dense, owned vector of `f32` values.
///
/// `Vector` is the unit of data exchanged between gates, cells and the
/// memoization machinery: an input frame `x_t`, a hidden state `h_t`, a
/// cell state `c_t` or a per-gate pre-activation are all `Vector`s.
///
/// # Example
///
/// ```
/// use nfm_tensor::Vector;
///
/// let a = Vector::from(vec![1.0, 2.0, 3.0]);
/// let b = Vector::from(vec![4.0, 5.0, 6.0]);
/// assert_eq!(a.dot(&b).unwrap(), 32.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Vector {
    data: Vec<f32>,
}

impl Vector {
    /// Creates a zero vector of the given length.
    pub fn zeros(len: usize) -> Self {
        Vector {
            data: vec![0.0; len],
        }
    }

    /// Creates a vector filled with `value`.
    pub fn filled(len: usize, value: f32) -> Self {
        Vector {
            data: vec![value; len],
        }
    }

    /// Builds a vector by evaluating `f` at each index.
    pub fn from_fn(len: usize, f: impl FnMut(usize) -> f32) -> Self {
        Vector {
            data: (0..len).map(f).collect(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the underlying slice.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the underlying slice.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the vector, returning the underlying storage.
    pub fn into_inner(self) -> Vec<f32> {
        self.data
    }

    /// Resizes the vector in place, filling any new elements with
    /// `value`.  Used by the allocation-free stepping paths to make a
    /// reused state buffer match a cell's width.
    pub fn resize(&mut self, len: usize, value: f32) {
        self.data.resize(len, value);
    }

    /// Iterate over elements by value.
    pub fn iter(&self) -> impl Iterator<Item = f32> + '_ {
        self.as_slice().iter().copied()
    }

    /// Returns the element at `i`, or `None` if out of bounds.
    pub fn get(&self, i: usize) -> Option<f32> {
        self.as_slice().get(i).copied()
    }

    /// Sets element `i` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn set(&mut self, i: usize, value: f32) {
        self.data[i] = value;
    }

    /// Dot product with another vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the lengths differ.
    pub fn dot(&self, other: &Vector) -> Result<f32> {
        dot(self.as_slice(), other.as_slice())
    }

    /// Element-wise addition, returning a new vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the lengths differ.
    pub fn add(&self, other: &Vector) -> Result<Vector> {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// Element-wise subtraction (`self - other`), returning a new vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the lengths differ.
    pub fn sub(&self, other: &Vector) -> Result<Vector> {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    /// Returns a new vector scaled by `k`.
    pub fn scale(&self, k: f32) -> Vector {
        Vector {
            data: self.as_slice().iter().map(|v| v * k).collect(),
        }
    }

    /// Applies `f` to every element, returning a new vector.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Vector {
        Vector {
            data: self.as_slice().iter().map(|&v| f(v)).collect(),
        }
    }

    /// Euclidean (L2) norm.
    pub fn norm2(&self) -> f32 {
        self.as_slice().iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Maximum absolute value, or 0.0 for an empty vector.
    pub fn norm_inf(&self) -> f32 {
        self.as_slice().iter().fold(0.0_f32, |m, v| m.max(v.abs()))
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.as_slice().iter().sum()
    }

    /// Arithmetic mean, or 0.0 for an empty vector.
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Index of the maximum element (ties broken by the lowest index).
    ///
    /// Returns `None` for an empty vector.
    pub fn argmax(&self) -> Option<usize> {
        let data = self.as_slice();
        if data.is_empty() {
            return None;
        }
        let mut best = 0usize;
        for (i, &v) in data.iter().enumerate() {
            if v > data[best] {
                best = i;
            }
        }
        Some(best)
    }

    /// Concatenates `self` and `other` into a new vector.
    ///
    /// Gates of an RNN cell conceptually operate on `[x_t ; h_{t-1}]`; the
    /// hardware model of the paper also concatenates forward and recurrent
    /// inputs before feeding the fuzzy memoization unit.
    pub fn concat(&self, other: &Vector) -> Vector {
        let mut data = Vec::with_capacity(self.len() + other.len());
        data.extend_from_slice(self.as_slice());
        data.extend_from_slice(other.as_slice());
        Vector { data }
    }

    fn zip_with(
        &self,
        other: &Vector,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Vector> {
        if self.len() != other.len() {
            return Err(TensorError::LengthMismatch {
                left: self.len(),
                right: other.len(),
                op,
            });
        }
        Ok(Vector {
            data: (self.as_slice().iter())
                .zip(other.as_slice())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }
}

impl From<Vec<f32>> for Vector {
    fn from(data: Vec<f32>) -> Self {
        Vector { data }
    }
}

impl From<&[f32]> for Vector {
    fn from(data: &[f32]) -> Self {
        Vector {
            data: data.to_vec(),
        }
    }
}

impl FromIterator<f32> for Vector {
    fn from_iter<T: IntoIterator<Item = f32>>(iter: T) -> Self {
        Vector {
            data: iter.into_iter().collect(),
        }
    }
}

impl std::ops::Index<usize> for Vector {
    type Output = f32;

    fn index(&self, index: usize) -> &f32 {
        &self.data[index]
    }
}

impl std::ops::IndexMut<usize> for Vector {
    fn index_mut(&mut self, index: usize) -> &mut f32 {
        &mut self.data[index]
    }
}

/// Dot product of two slices.
///
/// This is the hot inner loop of full-precision RNN inference; it is kept
/// as a free function over slices so both [`Vector`] and the accelerator
/// model can share it.  The actual reduction is the unrolled
/// multi-accumulator kernel in [`crate::kernels::dot_unchecked`], so
/// every checked and unchecked caller produces bit-identical sums.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] if the slices have different
/// lengths.
pub fn dot(a: &[f32], b: &[f32]) -> Result<f32> {
    if a.len() != b.len() {
        return Err(TensorError::LengthMismatch {
            left: a.len(),
            right: b.len(),
            op: "dot",
        });
    }
    Ok(crate::kernels::dot_unchecked(a, b))
}

/// Relative difference `|a - b| / |a|` used throughout the paper
/// (Equations 9 and 12).
///
/// When the reference value `a` is (near) zero the denominator is clamped
/// to `epsilon` to avoid division by zero; the paper's hardware uses
/// fixed-point arithmetic with the same effect.
#[inline]
pub fn relative_difference(a: f32, b: f32, epsilon: f32) -> f32 {
    let denom = a.abs().max(epsilon);
    (a - b).abs() / denom
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_filled() {
        let z = Vector::zeros(4);
        assert_eq!(z.len(), 4);
        assert!(z.iter().all(|v| v == 0.0));
        let f = Vector::filled(3, 2.5);
        assert!(f.iter().all(|v| v == 2.5));
    }

    #[test]
    fn from_fn_builds_indices() {
        let v = Vector::from_fn(5, |i| i as f32);
        assert_eq!(v.as_slice(), &[0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn dot_product_matches_manual() {
        let a = Vector::from(vec![1.0, -2.0, 3.0]);
        let b = Vector::from(vec![4.0, 5.0, -6.0]);
        assert_eq!(a.dot(&b).unwrap(), 4.0 - 10.0 - 18.0);
    }

    #[test]
    fn dot_length_mismatch_errors() {
        let a = Vector::from(vec![1.0, 2.0]);
        let b = Vector::from(vec![1.0]);
        assert!(matches!(a.dot(&b), Err(TensorError::LengthMismatch { .. })));
    }

    #[test]
    fn add_sub() {
        let a = Vector::from(vec![1.0, 2.0]);
        let b = Vector::from(vec![3.0, 5.0]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn norms() {
        let v = Vector::from(vec![3.0, -4.0]);
        assert!((v.norm2() - 5.0).abs() < 1e-6);
        assert_eq!(v.norm_inf(), 4.0);
    }

    #[test]
    fn mean_and_sum() {
        let v = Vector::from(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(v.sum(), 10.0);
        assert_eq!(v.mean(), 2.5);
        assert_eq!(Vector::zeros(0).mean(), 0.0);
    }

    #[test]
    fn argmax_prefers_first_tie() {
        let v = Vector::from(vec![1.0, 5.0, 5.0, 2.0]);
        assert_eq!(v.argmax(), Some(1));
        assert_eq!(Vector::zeros(0).argmax(), None);
    }

    #[test]
    fn concat_preserves_order() {
        let a = Vector::from(vec![1.0, 2.0]);
        let b = Vector::from(vec![3.0]);
        assert_eq!(a.concat(&b).as_slice(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn map_and_scale() {
        let v = Vector::from(vec![1.0, -2.0]);
        assert_eq!(v.map(f32::abs).as_slice(), &[1.0, 2.0]);
        assert_eq!(v.scale(2.0).as_slice(), &[2.0, -4.0]);
    }

    #[test]
    fn indexing_and_accessors() {
        let mut v = Vector::from(vec![1.0, 2.0]);
        assert_eq!(v[1], 2.0);
        v[0] = 9.0;
        assert_eq!(v.get(0), Some(9.0));
        assert_eq!(v.get(5), None);
        v.set(1, 7.0);
        assert_eq!(v.as_slice(), &[9.0, 7.0]);
        assert_eq!(v.clone().into_inner(), vec![9.0, 7.0]);
    }

    #[test]
    fn relative_difference_basic() {
        assert!((relative_difference(2.0, 1.0, 1e-6) - 0.5).abs() < 1e-6);
        // Near-zero reference clamps the denominator instead of dividing by 0.
        let d = relative_difference(0.0, 1.0, 1e-3);
        assert!(d.is_finite());
        assert!(d > 0.0);
    }

    #[test]
    fn from_iterator_collects() {
        let v: Vector = (0..3).map(|i| i as f32).collect();
        assert_eq!(v.as_slice(), &[0.0, 1.0, 2.0]);
    }
}
