//! Row-major `f32` matrices.

use std::fmt;

/// Rows whose running sums one step of [`Matrix::matvec`] carries side by
/// side.
const MATVEC_ROWS: usize = 8;

/// Columns one step of [`Matrix::matvec`] adds to each of its row sums.
const MATVEC_COLS: usize = 4;

/// A dense row-major matrix of `f32`.
///
/// Deliberately minimal: the SparseNN training loop only ever needs
/// matrix–vector products (forward pass), transposed matrix–vector products
/// (backward pass), rank-1 updates (gradient accumulation) and a few
/// element-wise maps. Kernels that add a row into an output row
/// (`matvec_t`, `add_scaled_outer`, `matmul`, `matmul_t`) are straight loops
/// over the row-major storage that the compiler vectorizes. A reduction
/// such as `matvec`'s row sums may not be reordered, so it keeps each sum
/// serial and runs several rows' sums side by side instead.
///
/// # Example
///
/// ```
/// use sparsenn_linalg::Matrix;
/// let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
/// assert_eq!(a.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
/// assert_eq!(a.matvec_t(&[1.0, 1.0]), vec![4.0, 6.0]);
/// ```
#[derive(Clone, PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let len = rows.checked_mul(cols).expect("matrix dimensions overflow");
        Self {
            rows,
            cols,
            data: vec![0.0; len],
        }
    }

    /// Creates a matrix from a generator function `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.data[i * cols + j] = f(i, j);
            }
        }
        m
    }

    /// Creates a matrix from row vectors.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        if rows.is_empty() {
            return Self::zeros(0, 0);
        }
        let cols = rows[0].len();
        assert!(rows.iter().all(|r| r.len() == cols), "ragged rows");
        let data = rows.iter().flat_map(|r| r.iter().copied()).collect();
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a matrix that owns `data` in row-major order.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        self.data[i * self.cols + j]
    }

    /// Element setter.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        self.data[i * self.cols + j] = v;
    }

    /// Borrow of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        assert!(i < self.rows, "row out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `j >= cols`.
    pub fn col(&self, j: usize) -> Vec<f32> {
        assert!(j < self.cols, "column out of bounds");
        (0..self.rows)
            .map(|i| self.data[i * self.cols + j])
            .collect()
    }

    /// Matrix–vector product `y = A·x`.
    ///
    /// Every `y[i]` is bit-identical to `vector::dot(row(i), x)`: it starts
    /// from `0.0` and adds `A[i][j]·x[j]` in ascending `j`. The loop carries
    /// eight rows' running sums side by side, one lane per row, and adds
    /// four columns to each per step, so the independent lanes hide the add
    /// latency that bounds a single serial sum. Rows left over after the
    /// last full block go through `vector::dot`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        let n = self.cols;
        if n == 0 {
            return vec![0.0; self.rows];
        }
        let mut y = Vec::with_capacity(self.rows);
        let blocks = self.data.chunks_exact(MATVEC_ROWS * n);
        let rest = blocks.remainder();
        let (x_steps, x_tail) = x.split_at(n - n % MATVEC_COLS);
        for block in blocks {
            let rows: [&[f32]; MATVEC_ROWS] = std::array::from_fn(|r| &block[r * n..(r + 1) * n]);
            let mut acc = [0.0f32; MATVEC_ROWS];
            for (j, xs) in x_steps.chunks_exact(MATVEC_COLS).enumerate() {
                let j = j * MATVEC_COLS;
                for (s, row) in acc.iter_mut().zip(&rows) {
                    for (a, xc) in row[j..j + MATVEC_COLS].iter().zip(xs) {
                        *s += a * xc;
                    }
                }
            }
            let j = x_steps.len();
            for (s, row) in acc.iter_mut().zip(&rows) {
                for (a, xc) in row[j..].iter().zip(x_tail) {
                    *s += a * xc;
                }
            }
            y.extend_from_slice(&acc);
        }
        y.extend(rest.chunks_exact(n).map(|row| crate::vector::dot(row, x)));
        y
    }

    /// Transposed matrix–vector product `y = Aᵀ·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows`.
    pub fn matvec_t(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.rows, "matvec_t dimension mismatch");
        let mut y = vec![0.0f32; self.cols];
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue; // input sparsity helps the backward pass too
            }
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            for (yj, &aij) in y.iter_mut().zip(row) {
                *yj += aij * xi;
            }
        }
        y
    }

    /// Rank-1 update `A += alpha · u · vᵀ` (gradient accumulation).
    ///
    /// # Panics
    ///
    /// Panics if `u.len() != rows` or `v.len() != cols`.
    pub fn add_scaled_outer(&mut self, alpha: f32, u: &[f32], v: &[f32]) {
        assert_eq!(u.len(), self.rows, "outer product row mismatch");
        assert_eq!(v.len(), self.cols, "outer product col mismatch");
        for (i, &ui) in u.iter().enumerate() {
            let coeff = alpha * ui;
            if coeff == 0.0 {
                continue;
            }
            let row = &mut self.data[i * self.cols..(i + 1) * self.cols];
            for (aij, &vj) in row.iter_mut().zip(v) {
                *aij += coeff * vj;
            }
        }
    }

    /// In-place scaling `A *= alpha`.
    pub fn scale(&mut self, alpha: f32) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Returns `self - b`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub(&self, b: &Matrix) -> Matrix {
        assert_eq!(self.shape(), b.shape(), "shape mismatch");
        let data = self.data.iter().zip(&b.data).map(|(a, b)| a - b).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Matrix product `self · b`.
    ///
    /// Each output row sums `self[i][k]·b.row(k)` in ascending `k`, skipping
    /// zero coefficients. [`truncated_svd`](crate::truncated::truncated_svd)
    /// multiplies full weight matrices by their thin sketches with it.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != b.rows`.
    pub fn matmul(&self, b: &Matrix) -> Matrix {
        assert_eq!(self.cols, b.rows, "matmul dimension mismatch");
        let mut out = Matrix::zeros(self.rows, b.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self.data[i * self.cols + k];
                if aik == 0.0 {
                    continue;
                }
                let brow = &b.data[k * b.cols..(k + 1) * b.cols];
                let orow = &mut out.data[i * b.cols..(i + 1) * b.cols];
                for (o, &bkj) in orow.iter_mut().zip(brow) {
                    *o += aik * bkj;
                }
            }
        }
        out
    }

    /// Transposed matrix product `selfᵀ · b`, without forming the transpose.
    ///
    /// Walks the rows the two matrices share in ascending order and adds
    /// `self[k][i]·b.row(k)` into output row `i`, skipping zero
    /// coefficients, so the result is bit-identical to
    /// `self.transpose().matmul(b)`.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != b.rows`.
    pub fn matmul_t(&self, b: &Matrix) -> Matrix {
        assert_eq!(self.rows, b.rows, "matmul_t dimension mismatch");
        let mut out = Matrix::zeros(self.cols, b.cols);
        for k in 0..self.rows {
            let brow = &b.data[k * b.cols..(k + 1) * b.cols];
            let arow = &self.data[k * self.cols..(k + 1) * self.cols];
            for (i, &aki) in arow.iter().enumerate() {
                if aki == 0.0 {
                    continue;
                }
                let orow = &mut out.data[i * b.cols..(i + 1) * b.cols];
                for (o, &bkj) in orow.iter_mut().zip(brow) {
                    *o += aki * bkj;
                }
            }
        }
        out
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        t
    }

    /// Frobenius norm `‖A‖_F`.
    pub fn frobenius_norm(&self) -> f32 {
        self.data
            .iter()
            .map(|v| f64::from(*v) * f64::from(*v))
            .sum::<f64>()
            .sqrt() as f32
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Fraction of exactly-zero entries.
    pub fn sparsity(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().filter(|v| **v == 0.0).count() as f32 / self.data.len() as f32
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 36 {
            for i in 0..self.rows {
                write!(f, "\n  {:?}", self.row(i))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]])
    }

    #[test]
    fn shape_and_accessors() {
        let m = sample();
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.col(1), vec![2.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn get_out_of_bounds_panics() {
        sample().get(2, 0);
    }

    #[test]
    #[should_panic(expected = "ragged rows")]
    fn ragged_rows_panic() {
        Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn matvec_matches_hand_computation() {
        let m = sample();
        assert_eq!(m.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
    }

    #[test]
    fn matvec_t_matches_transpose_matvec() {
        let m = sample();
        let x = [0.5f32, -1.5];
        assert_eq!(m.matvec_t(&x), m.transpose().matvec(&x));
    }

    #[test]
    fn outer_update_matches_definition() {
        let mut m = Matrix::zeros(2, 3);
        m.add_scaled_outer(2.0, &[1.0, -1.0], &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(0), &[2.0, 4.0, 6.0]);
        assert_eq!(m.row(1), &[-2.0, -4.0, -6.0]);
    }

    #[test]
    fn matmul_small_identity() {
        let m = sample();
        let id = Matrix::from_fn(3, 3, |i, j| if i == j { 1.0 } else { 0.0 });
        assert_eq!(m.matmul(&id), m);
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn frobenius_norm_known_value() {
        let m = Matrix::from_rows(&[vec![3.0, 4.0]]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn sparsity_counts_zeros() {
        let m = Matrix::from_rows(&[vec![0.0, 1.0], vec![0.0, 0.0]]);
        assert_eq!(m.sparsity(), 0.75);
        assert_eq!(Matrix::zeros(0, 0).sparsity(), 0.0);
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", sample()).is_empty());
    }
}
