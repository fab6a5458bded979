//! Randomized truncated SVD (Halko–Martinsson–Tropp subspace iteration).
//!
//! The truncated-SVD sparsity predictor of the paper (Davis et al. \[11\],
//! LRADNN \[12\]) needs the top-`r` singular triplets of every weight matrix
//! **once per training epoch**. A full Jacobi SVD of a 1000×1000 matrix per
//! epoch would dominate training time; the randomized sketch brings it down
//! to a handful of matrix–panel products plus a small-core Jacobi SVD.

use crate::qr::qr;
use crate::svd::jacobi_svd;
use crate::Matrix;

/// A rank-`r` truncated SVD `A ≈ U·diag(s)·Vᵀ`.
#[derive(Clone, Debug, PartialEq)]
pub struct TruncatedSvd {
    /// `m × r` left singular vectors.
    pub u: Matrix,
    /// The `r` leading singular values, descending.
    pub s: Vec<f32>,
    /// `n × r` right singular vectors.
    pub v: Matrix,
}

impl TruncatedSvd {
    /// Reconstructs the rank-`r` approximation `U·diag(s)·Vᵀ`.
    pub fn reconstruct(&self) -> Matrix {
        let mut out = Matrix::zeros(self.u.rows(), self.v.rows());
        for t in 0..self.s.len() {
            if self.s[t] == 0.0 {
                continue;
            }
            out.add_scaled_outer(self.s[t], &self.u.col(t), &self.v.col(t));
        }
        out
    }

    /// Splits the approximation into the predictor factor pair
    /// `(U', V')` with `U' = U·√Σ` (`m × r`) and `V' = √Σ·Vᵀ` (`r × n`), so
    /// that `U'·V' ≈ A`.
    ///
    /// This is exactly the form the SparseNN predictor consumes: the paper's
    /// `U⁽ˡ⁾ ∈ R^{m×r}` and `V⁽ˡ⁾ ∈ R^{r×n}` of Eq. (2). Splitting the
    /// singular values symmetrically keeps both factors at comparable scale,
    /// which matters once they are quantized to 16-bit fixed point.
    pub fn predictor_factors(&self) -> (Matrix, Matrix) {
        let r = self.s.len();
        let u = Matrix::from_fn(self.u.rows(), r, |i, j| {
            self.u.get(i, j) * self.s[j].max(0.0).sqrt()
        });
        let v = Matrix::from_fn(r, self.v.rows(), |i, j| {
            self.v.get(j, i) * self.s[i].max(0.0).sqrt()
        });
        (u, v)
    }
}

/// Number of power (subspace) iterations. Two is the usual accuracy /
/// cost sweet spot for spectra that decay slowly (random dense weights).
const POWER_ITERATIONS: usize = 2;

/// Oversampling columns added to the sketch.
const OVERSAMPLE: usize = 8;

/// Computes a rank-`r` truncated SVD of `a` with a seeded Gaussian sketch.
///
/// Deterministic for a given `(a, r, seed)` triple. `r` is clamped to
/// `min(m, n)`; at `r = 0` (an empty matrix, or a requested rank of 0)
/// the factors are empty.
///
/// # Example
///
/// ```
/// use sparsenn_linalg::{Matrix, truncated::truncated_svd};
/// let a = Matrix::from_fn(20, 12, |i, j| ((i * j) % 7) as f32 - 3.0);
/// let t = truncated_svd(&a, 4, 7);
/// assert_eq!(t.u.shape(), (20, 4));
/// assert_eq!(t.v.shape(), (12, 4));
/// assert_eq!(t.s.len(), 4);
/// ```
pub fn truncated_svd(a: &Matrix, r: usize, seed: u64) -> TruncatedSvd {
    let (m, n) = a.shape();
    let r = r.min(m).min(n);
    if r == 0 {
        return TruncatedSvd {
            u: Matrix::zeros(m, 0),
            s: Vec::new(),
            v: Matrix::zeros(n, 0),
        };
    }
    let k = (r + OVERSAMPLE).min(m).min(n);

    // Gaussian sketch Ω (n × k).
    let mut rng = crate::init::seeded_rng(seed);
    let omega = Matrix::from_fn(n, k, |_, _| crate::init::gaussian(&mut rng) as f32);

    // Y = A·Ω, orthonormalize.
    let mut q = qr(&a.matmul(&omega)).q;
    // Subspace (power) iterations: Q ← orth(A·orth(Aᵀ·Q)).
    for _ in 0..POWER_ITERATIONS {
        let z = qr(&a.matmul_t(&q)).q;
        q = qr(&a.matmul(&z)).q;
    }

    // Small core B = Qᵀ·A (k × n); SVD via Jacobi on the k-column transpose.
    let b = q.matmul_t(a);
    let core = jacobi_svd(&b.transpose()); // Bᵀ = U₁·S·V₁ᵀ  ⇒  B = V₁·S·U₁ᵀ
    let u = q.matmul(&core.v); // m × k
    let v = core.u; // n × k

    TruncatedSvd {
        u: Matrix::from_fn(m, r, |i, j| u.get(i, j)),
        s: core.s[..r].to_vec(),
        v: Matrix::from_fn(n, r, |i, j| v.get(i, j)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn low_rank(m: usize, n: usize, rank: usize) -> Matrix {
        let mut a = Matrix::zeros(m, n);
        for t in 0..rank {
            let u: Vec<f32> = (0..m).map(|i| ((i * (t + 3)) % 13) as f32 - 6.0).collect();
            let v: Vec<f32> = (0..n).map(|j| ((j * (t + 5)) % 11) as f32 - 5.0).collect();
            a.add_scaled_outer(1.0 / (t + 1) as f32, &u, &v);
        }
        a
    }

    #[test]
    fn recovers_low_rank_exactly() {
        let a = low_rank(30, 20, 3);
        let t = truncated_svd(&a, 3, 1);
        let err = a.sub(&t.reconstruct()).frobenius_norm() / a.frobenius_norm();
        assert!(err < 1e-4, "relative error {err}");
    }

    #[test]
    fn agrees_with_full_jacobi_on_leading_values() {
        let a = Matrix::from_fn(16, 12, |i, j| ((i * 5 + j * 11) % 19) as f32 - 9.0);
        let full = jacobi_svd(&a);
        let trunc = truncated_svd(&a, 5, 99);
        for t in 0..5 {
            let rel = (full.s[t] - trunc.s[t]).abs() / full.s[t].max(1e-6);
            assert!(
                rel < 0.05,
                "σ_{t}: full {} vs trunc {}",
                full.s[t],
                trunc.s[t]
            );
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = low_rank(25, 18, 5);
        let t1 = truncated_svd(&a, 4, 1234);
        let t2 = truncated_svd(&a, 4, 1234);
        assert_eq!(t1, t2);
    }

    #[test]
    fn predictor_factors_multiply_back() {
        let a = low_rank(24, 16, 2);
        let t = truncated_svd(&a, 2, 5);
        let (u, v) = t.predictor_factors();
        assert_eq!(u.shape(), (24, 2));
        assert_eq!(v.shape(), (2, 16));
        let err = a.sub(&u.matmul(&v)).frobenius_norm() / a.frobenius_norm();
        assert!(err < 1e-3, "relative error {err}");
    }

    #[test]
    fn rank_clamped_to_dimensions() {
        let a = low_rank(6, 4, 2);
        let t = truncated_svd(&a, 100, 3);
        assert_eq!(t.s.len(), 4);
        assert_eq!(t.u.shape(), (6, 4));
    }

    #[test]
    fn empty_matrices_give_empty_factors() {
        for (m, n) in [(0, 5), (5, 0), (0, 0)] {
            let t = truncated_svd(&Matrix::zeros(m, n), 3, 1);
            assert_eq!(t.u.shape(), (m, 0));
            assert!(t.s.is_empty());
            assert_eq!(t.v.shape(), (n, 0));
            let (u, v) = t.predictor_factors();
            assert_eq!((u.shape(), v.shape()), ((m, 0), (0, n)));
            assert_eq!(t.reconstruct(), Matrix::zeros(m, n));
        }
    }

    #[test]
    fn better_rank_means_lower_error() {
        let a = Matrix::from_fn(20, 20, |i, j| ((i * 3 + j * 7) % 23) as f32 - 11.0);
        let e1 = a
            .sub(&truncated_svd(&a, 2, 1).reconstruct())
            .frobenius_norm();
        let e2 = a
            .sub(&truncated_svd(&a, 8, 1).reconstruct())
            .frobenius_norm();
        let e3 = a
            .sub(&truncated_svd(&a, 16, 1).reconstruct())
            .frobenius_norm();
        assert!(e1 >= e2 && e2 >= e3, "errors {e1} {e2} {e3} should descend");
    }
}
