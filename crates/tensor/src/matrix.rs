//! Row-major dense `f32` matrix used for gate weight storage.

use crate::error::TensorError;
use crate::line::LineBuf;
use crate::vector::{dot, Vector};
use crate::Result;

/// A dense, row-major matrix of `f32` values.
///
/// In the RNN crates each gate stores two matrices: `W_x` (forward
/// connections, `neurons x input_size`) and `W_h` (recurrent connections,
/// `neurons x hidden_size`).  Row `i` holds the weights of neuron `i`, so
/// the per-neuron dot products the paper memoizes map directly onto
/// [`Matrix::row`] + [`dot`].
///
/// # Example
///
/// ```
/// use nfm_tensor::{Matrix, Vector};
///
/// let m = Matrix::from_rows(vec![vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
/// let x = Vector::from(vec![3.0, 4.0]);
/// assert_eq!(m.matvec(&x).unwrap().as_slice(), &[3.0, 4.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: LineBuf<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: LineBuf::zeros(rows * cols),
        }
    }

    /// Builds a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = LineBuf::zeros(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data[r * cols + c] = f(r, c);
            }
        }
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from a list of equal-length rows.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RaggedRows`] if any row has a different
    /// length from the first, or [`TensorError::Empty`] if `rows` is
    /// empty.
    pub fn from_rows(rows: Vec<Vec<f32>>) -> Result<Self> {
        if rows.is_empty() {
            return Err(TensorError::Empty { op: "from_rows" });
        }
        let cols = rows[0].len();
        let mut data = LineBuf::zeros(rows.len() * cols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != cols {
                return Err(TensorError::RaggedRows {
                    expected: cols,
                    found: row.len(),
                    row: i,
                });
            }
            data[i * cols..(i + 1) * cols].copy_from_slice(row);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidParameter`] if `data.len() != rows * cols`.
    pub fn from_flat(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        Self::from_line_buf(rows, cols, LineBuf::from(&data[..]))
    }

    /// Takes a flat row-major buffer as the matrix's storage, with no
    /// copy: how a model load hands over each weight tensor it read.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidParameter`] if `data.len() != rows * cols`.
    pub fn from_line_buf(rows: usize, cols: usize, data: LineBuf<f32>) -> Result<Self> {
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(TensorError::InvalidParameter {
                what: "flat buffer length must equal rows * cols",
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of stored weights (`rows * cols`).
    pub fn element_count(&self) -> usize {
        self.rows * self.cols
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        let cols = self.cols;
        &mut self.data[r * cols..(r + 1) * cols]
    }

    /// Returns element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn set(&mut self, r: usize, c: usize, value: f32) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        let idx = r * self.cols + c;
        self.data[idx] = value;
    }

    /// Borrows the flat row-major storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Matrix-vector product `self * x`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &Vector) -> Result<Vector> {
        if x.len() != self.cols {
            return Err(TensorError::ShapeMismatch {
                rows: self.rows,
                cols: self.cols,
                vec_len: x.len(),
                op: "matvec",
            });
        }
        let mut out = vec![0.0f32; self.rows];
        crate::kernels::matmul_into(self, x.as_slice(), 1, &mut out).expect("shapes checked above");
        Ok(Vector::from(out))
    }

    /// Per-row dot product for a single neuron: `row(r) . x`.
    ///
    /// This is the granularity at which the paper's memoization scheme
    /// decides whether to evaluate or reuse.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `x.len() != self.cols()`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_dot(&self, r: usize, x: &[f32]) -> Result<f32> {
        if x.len() != self.cols {
            return Err(TensorError::ShapeMismatch {
                rows: self.rows,
                cols: self.cols,
                vec_len: x.len(),
                op: "row_dot",
            });
        }
        dot(self.row(r), x)
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self.get(c, r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape() {
        let m = Matrix::zeros(2, 3);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.element_count(), 6);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_rows_checks_raggedness() {
        let ok = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert!(ok.is_ok());
        let ragged = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0]]);
        assert!(matches!(
            ragged,
            Err(TensorError::RaggedRows { row: 1, .. })
        ));
        let empty = Matrix::from_rows(vec![]);
        assert!(matches!(empty, Err(TensorError::Empty { .. })));
    }

    #[test]
    fn from_flat_checks_length() {
        assert!(Matrix::from_flat(2, 2, vec![1.0; 4]).is_ok());
        assert!(Matrix::from_flat(2, 2, vec![1.0; 3]).is_err());
        let m = Matrix::from_line_buf(2, 3, LineBuf::from(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0][..]));
        assert_eq!(m.unwrap().row(1), &[4.0, 5.0, 6.0]);
        assert!(Matrix::from_line_buf(3, 3, LineBuf::zeros(6)).is_err());
        assert!(Matrix::from_line_buf(usize::MAX, 2, LineBuf::zeros(6)).is_err());
    }

    #[test]
    fn matvec_identity() {
        let m = Matrix::from_rows(vec![vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        let x = Vector::from(vec![5.0, -7.0]);
        assert_eq!(m.matvec(&x).unwrap().as_slice(), &[5.0, -7.0]);
    }

    #[test]
    fn matvec_shape_mismatch() {
        let m = Matrix::zeros(2, 3);
        let x = Vector::from(vec![1.0, 2.0]);
        assert!(matches!(
            m.matvec(&x),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn matvec_matches_row_dots() {
        let m = Matrix::from_rows(vec![vec![1.0, 2.0, 3.0], vec![-1.0, 0.5, 2.0]]).unwrap();
        let x = Vector::from(vec![0.5, -1.0, 2.0]);
        let y = m.matvec(&x).unwrap();
        for r in 0..m.rows() {
            assert!((y[r] - m.row_dot(r, x.as_slice()).unwrap()).abs() < 1e-6);
        }
    }

    #[test]
    fn row_access_and_mutation() {
        let mut m = Matrix::zeros(2, 2);
        m.set(0, 1, 3.0);
        assert_eq!(m.get(0, 1), 3.0);
        m.row_mut(1)[0] = 7.0;
        assert_eq!(m.row(1), &[7.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_out_of_bounds_panics() {
        let m = Matrix::zeros(1, 1);
        let _ = m.row(3);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_rows(vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), m);
    }
}
