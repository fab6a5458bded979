//! Slice-level vector kernels.
//!
//! Free functions over `&[f32]`, used by both the training loop and the
//! statistics code. Functions that produce a vector allocate; in-place
//! variants mutate their first argument.

/// Dot product `xᵀ·y`, summed in `f32` in index order: the sum starts
/// from `0.0` and adds `x[i]·y[i]` for `i = 0, 1, …`, each product and
/// each addition rounded to `f32`. [`Matrix::matvec`](crate::Matrix::matvec)
/// keeps this order for every row.
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
pub fn dot(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "dot length mismatch");
    let mut acc = 0.0f32;
    for (a, b) in x.iter().zip(y) {
        acc += a * b;
    }
    acc
}

/// In-place `y += alpha·x`.
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// In-place scaling `x *= alpha`.
#[inline]
pub fn scale(alpha: f32, x: &mut [f32]) {
    for xi in x {
        *xi *= alpha;
    }
}

/// Element-wise Hadamard product `x ∘ y` (Eq. (3) of the paper).
///
/// # Panics
///
/// Panics if lengths differ.
pub fn hadamard(x: &[f32], y: &[f32]) -> Vec<f32> {
    assert_eq!(x.len(), y.len(), "hadamard length mismatch");
    x.iter().zip(y).map(|(a, b)| a * b).collect()
}

/// Rectified linear unit applied element-wise.
pub fn relu(x: &[f32]) -> Vec<f32> {
    x.iter().map(|&v| v.max(0.0)).collect()
}

/// Derivative mask of ReLU: `1` where `x > 0`, else `0`
/// (the `1_{W a > 0}` factor of Algorithm 1).
pub fn relu_mask(x: &[f32]) -> Vec<f32> {
    x.iter().map(|&v| if v > 0.0 { 1.0 } else { 0.0 }).collect()
}

/// `sign(x)` with the convention `sign(0) = 0`, element-wise (Eq. (2)).
pub fn sign(x: &[f32]) -> Vec<f32> {
    x.iter()
        .map(|&v| {
            if v > 0.0 {
                1.0
            } else if v < 0.0 {
                -1.0
            } else {
                0.0
            }
        })
        .collect()
}

/// Straight-through-estimator mask: `1` where `|x| < 1`, else `0`
/// (the `1_{|U V a| < 1}` factor of Algorithm 1, from Courbariaux et al.).
pub fn ste_mask(x: &[f32]) -> Vec<f32> {
    x.iter()
        .map(|&v| if v.abs() < 1.0 { 1.0 } else { 0.0 })
        .collect()
}

/// Index of the maximum element; `None` on an empty slice. Ties resolve to
/// the first maximum (deterministic classification).
pub fn argmax(x: &[f32]) -> Option<usize> {
    if x.is_empty() {
        return None;
    }
    let mut best = 0;
    for (i, &v) in x.iter().enumerate().skip(1) {
        if v > x[best] {
            best = i;
        }
    }
    Some(best)
}

/// Euclidean norm.
pub fn norm2(x: &[f32]) -> f32 {
    x.iter()
        .map(|v| f64::from(*v) * f64::from(*v))
        .sum::<f64>()
        .sqrt() as f32
}

/// Indices and values of the nonzero entries, in index order — the software
/// analogue of what the leading-nonzero detector (LNZD) scans out of the
/// activation register file.
pub fn nonzeros(x: &[f32]) -> Vec<(usize, f32)> {
    x.iter()
        .enumerate()
        .filter(|(_, v)| **v != 0.0)
        .map(|(i, &v)| (i, v))
        .collect()
}

/// Numerically-stable softmax.
pub fn softmax(x: &[f32]) -> Vec<f32> {
    if x.is_empty() {
        return Vec::new();
    }
    let max = x.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = x.iter().map(|&v| (v - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.iter().map(|&e| e / sum).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_axpy() {
        let x = [1.0f32, 2.0, 3.0];
        let mut y = vec![1.0f32, 1.0, 1.0];
        assert_eq!(dot(&x, &y), 6.0);
        axpy(2.0, &x, &mut y);
        assert_eq!(y, vec![3.0, 5.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "dot length mismatch")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn relu_and_mask_agree() {
        let x = [-1.0f32, 0.0, 2.0];
        assert_eq!(relu(&x), vec![0.0, 0.0, 2.0]);
        assert_eq!(relu_mask(&x), vec![0.0, 0.0, 1.0]);
    }

    #[test]
    fn sign_convention() {
        assert_eq!(sign(&[-2.0, 0.0, 0.5]), vec![-1.0, 0.0, 1.0]);
    }

    #[test]
    fn ste_mask_is_hardtanh_derivative() {
        assert_eq!(
            ste_mask(&[-1.5, -0.5, 0.0, 0.99, 1.0]),
            vec![0.0, 1.0, 1.0, 1.0, 0.0]
        );
    }

    #[test]
    fn argmax_ties_to_first() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), Some(1));
        assert_eq!(argmax(&[]), None);
    }

    #[test]
    fn nonzeros_in_index_order() {
        assert_eq!(nonzeros(&[0.0, 2.0, 0.0, -1.0]), vec![(1, 2.0), (3, -1.0)]);
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let p = softmax(&[1000.0, 1001.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(p[1] > p[0]);
    }
}
