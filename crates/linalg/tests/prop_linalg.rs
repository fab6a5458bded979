//! Property-based tests for the linear-algebra substrate.

use proptest::prelude::*;
use sparsenn_linalg::{qr::qr, svd::jacobi_svd, truncated::truncated_svd, vector, Matrix};

fn matrix_strategy(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(m, n)| {
        prop::collection::vec(-10.0f32..10.0, m * n)
            .prop_map(move |data| Matrix::from_vec(m, n, data))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// matvec is linear: A(x + αy) = Ax + αAy.
    #[test]
    fn matvec_is_linear(a in matrix_strategy(12), alpha in -3.0f32..3.0) {
        let n = a.cols();
        let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.7).sin()).collect();
        let y: Vec<f32> = (0..n).map(|i| (i as f32 * 1.3).cos()).collect();
        let mut xy = x.clone();
        vector::axpy(alpha, &y, &mut xy);
        let lhs = a.matvec(&xy);
        let ax = a.matvec(&x);
        let ay = a.matvec(&y);
        for i in 0..a.rows() {
            let rhs = ax[i] + alpha * ay[i];
            prop_assert!((lhs[i] - rhs).abs() <= 1e-3 * (1.0 + rhs.abs()));
        }
    }

    /// ⟨Ax, y⟩ = ⟨x, Aᵀy⟩ (adjoint identity links forward and backward pass).
    #[test]
    fn matvec_adjoint_identity(a in matrix_strategy(12)) {
        let x: Vec<f32> = (0..a.cols()).map(|i| (i as f32 * 0.9).sin()).collect();
        let y: Vec<f32> = (0..a.rows()).map(|i| (i as f32 * 0.4).cos()).collect();
        let lhs = vector::dot(&a.matvec(&x), &y);
        let rhs = vector::dot(&x, &a.matvec_t(&y));
        prop_assert!((lhs - rhs).abs() <= 1e-2 * (1.0 + lhs.abs()));
    }

    /// QR reconstructs A.
    #[test]
    fn qr_reconstructs(a in matrix_strategy(10)) {
        let f = qr(&a);
        let err = a.sub(&f.q.matmul(&f.r)).frobenius_norm();
        prop_assert!(err <= 1e-3 * (1.0 + a.frobenius_norm()), "err {err}");
    }

    /// Jacobi SVD reconstructs A and keeps singular values sorted.
    #[test]
    fn svd_reconstructs_and_sorts(a in matrix_strategy(9)) {
        let svd = jacobi_svd(&a);
        let err = a.sub(&svd.reconstruct()).frobenius_norm();
        prop_assert!(err <= 1e-3 * (1.0 + a.frobenius_norm()), "err {err}");
        for w in svd.s.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-5);
        }
        for &s in &svd.s {
            prop_assert!(s >= 0.0);
        }
    }

    /// The spectral content of the truncated SVD never exceeds the full one,
    /// and reconstruction error is bounded by the tail energy plus slack.
    #[test]
    fn truncated_error_bounded_by_tail(a in matrix_strategy(9), r in 1usize..4) {
        let full = jacobi_svd(&a);
        let r = r.min(full.s.len());
        let t = truncated_svd(&a, r, 11);
        let tail: f32 = full.s[r..].iter().map(|s| s * s).sum::<f32>().sqrt();
        let err = a.sub(&t.reconstruct()).frobenius_norm();
        // Randomized algorithms give (1+ε) approximations; allow 30 % + abs slack.
        prop_assert!(err <= 1.3 * tail + 1e-2 + 0.05 * a.frobenius_norm(),
            "err {err} tail {tail}");
    }

    /// Softmax is a probability distribution and argmax-invariant.
    #[test]
    fn softmax_properties(xs in prop::collection::vec(-30.0f32..30.0, 1..16)) {
        let p = vector::softmax(&xs);
        let sum: f32 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
        prop_assert_eq!(vector::argmax(&xs), vector::argmax(&p));
    }
}

/// An `f32` from the values where a change of summation order shows:
/// signed zeros, subnormals, magnitudes whose sums overflow to ±inf, and
/// ordinary values.
fn edge_f32() -> impl Strategy<Value = f32> {
    (0usize..5, -1.0f32..1.0).prop_map(|(kind, v)| match kind {
        0 => 0.0,
        1 => -0.0,
        2 => v * f32::MIN_POSITIVE,
        3 => 1e38f32.copysign(v),
        _ => v * 8.0,
    })
}

/// A `rows × cols` matrix of [`edge_f32`] entries in which one entry, when
/// `spot` names one, is NaN, +inf or −inf.
fn edge_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    (
        prop::collection::vec(edge_f32(), rows * cols),
        0..=rows * cols,
        0usize..3,
    )
        .prop_map(move |(mut data, spot, kind)| {
            if let Some(w) = data.get_mut(spot) {
                *w = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][kind];
            }
            Matrix::from_vec(rows, cols, data)
        })
}

/// The bit patterns of `v`, with every NaN mapped to one pattern: Rust
/// leaves the sign and payload of a NaN that arithmetic produces
/// unspecified, so whether a value is NaN is all that the order of the
/// operations decides.
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter()
        .map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The row-blocked `matvec` sums every row exactly as `vector::dot`
    /// does, for widths and heights on and off the block sizes.
    #[test]
    fn matvec_is_bitwise_the_serial_dot(
        (a, x) in (0usize..=40, 0usize..=40).prop_flat_map(|(m, n)| {
            (edge_matrix(m, n), prop::collection::vec(edge_f32(), n))
        })
    ) {
        let serial: Vec<f32> = (0..a.rows()).map(|i| vector::dot(a.row(i), &x)).collect();
        prop_assert_eq!(bits(&a.matvec(&x)), bits(&serial), "{:?}", a.shape());
    }

    /// `matmul_t` is bitwise the product through an explicit transpose.
    #[test]
    fn matmul_t_is_bitwise_the_transposed_matmul(
        (a, b) in (0usize..=40, 0usize..=40, 0usize..=40).prop_flat_map(|(k, p, q)| {
            (edge_matrix(k, p), edge_matrix(k, q))
        })
    ) {
        let want = a.transpose().matmul(&b);
        let got = a.matmul_t(&b);
        prop_assert_eq!(got.shape(), want.shape());
        prop_assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "{:?}", a.shape());
    }
}
