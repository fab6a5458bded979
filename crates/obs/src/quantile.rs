//! Online quantile estimation for streamed latencies.
//!
//! A mean is a fine centre estimate but says nothing about the tail —
//! and tail latency is what serving SLOs are written against. Storing
//! every observation to compute a real percentile would grow without
//! bound under heavy traffic, so the serving stack uses the **P²
//! algorithm** (Jain & Chlamtac, 1985): a constant-space estimator that
//! tracks one quantile with five *markers* — height/position pairs that
//! are nudged toward their ideal rank positions with every observation,
//! using a piecewise-parabolic (hence "P²") interpolation between
//! neighbours. Five floats of state, O(1) per sample, no samples
//! retained.

/// A streaming estimate of one quantile of an unbounded observation
/// sequence (the P² algorithm — constant space, one update per sample).
///
/// # Example
///
/// ```
/// use sparsenn_obs::P2Quantile;
///
/// let mut q = P2Quantile::new(0.5);
/// for i in 0..101 {
///     q.observe(f64::from(i));
/// }
/// let est = q.estimate();
/// assert!((est - 50.0).abs() < 5.0, "median of 0..=100 is 50, got {est}");
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct P2Quantile {
    /// The tracked quantile, in `(0, 1)`.
    p: f64,
    /// Observations seen so far.
    count: u64,
    /// Marker heights (the first `count` entries, sorted, during warmup).
    q: [f64; 5],
    /// Marker positions (1-based observation ranks).
    n: [f64; 5],
    /// Desired marker positions.
    np: [f64; 5],
}

impl P2Quantile {
    /// Builds a tracker for quantile `p` (clamped to `[0.01, 0.999]`).
    pub fn new(p: f64) -> Self {
        let p = p.clamp(0.01, 0.999);
        Self {
            p,
            count: 0,
            q: [0.0; 5],
            n: [1.0, 2.0, 3.0, 4.0, 5.0],
            np: [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0],
        }
    }

    /// The tracked quantile.
    pub fn quantile(&self) -> f64 {
        self.p
    }

    /// Observations folded in so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Folds one observation into the estimate.
    pub fn observe(&mut self, x: f64) {
        if self.count < 5 {
            // Warmup: keep the first five observations sorted in place.
            let mut i = self.count as usize;
            self.q[i] = x;
            while i > 0 && self.q[i - 1] > self.q[i] {
                self.q.swap(i - 1, i);
                i -= 1;
            }
            self.count += 1;
            return;
        }
        self.count += 1;
        // Cell k the observation falls into; extremes absorb outliers.
        let k = if x < self.q[0] {
            self.q[0] = x;
            0
        } else if x >= self.q[4] {
            self.q[4] = x.max(self.q[4]);
            3
        } else {
            // q[k] <= x < q[k+1] for some k in 0..=3.
            (0..4).rfind(|&i| self.q[i] <= x).unwrap_or(0)
        };
        for i in (k + 1)..5 {
            self.n[i] += 1.0;
        }
        let dnp = [0.0, self.p / 2.0, self.p, (1.0 + self.p) / 2.0, 1.0];
        for (np, d) in self.np.iter_mut().zip(dnp) {
            *np += d;
        }
        // Nudge the three middle markers toward their desired ranks.
        for i in 1..4 {
            let d = self.np[i] - self.n[i];
            if (d >= 1.0 && self.n[i + 1] - self.n[i] > 1.0)
                || (d <= -1.0 && self.n[i - 1] - self.n[i] < -1.0)
            {
                let d = d.signum();
                let parabolic = self.parabolic(i, d);
                self.q[i] = if self.q[i - 1] < parabolic && parabolic < self.q[i + 1] {
                    parabolic
                } else {
                    self.linear(i, d)
                };
                self.n[i] += d;
            }
        }
    }

    /// Piecewise-parabolic height prediction for marker `i` moved by `d`.
    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let (q, n) = (&self.q, &self.n);
        q[i] + d / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1]))
    }

    /// Linear fallback when the parabola would break marker monotonicity.
    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        self.q[i] + d * (self.q[j] - self.q[i]) / (self.n[j] - self.n[i])
    }

    /// The current quantile estimate.
    ///
    /// # Warm-up and degenerate streams
    ///
    /// The P² markers only exist from the fifth observation on, so the
    /// estimate has three regimes:
    ///
    /// * **0 observations** — 0.0 (there is nothing to estimate; callers
    ///   that must distinguish "no data" from "estimate 0" check
    ///   [`count`](Self::count));
    /// * **1–4 observations** — the nearest-rank quantile of the sorted
    ///   warm-up buffer (exact for the samples seen; a single sample is
    ///   every quantile);
    /// * **5+ observations** — the middle P² marker.
    ///
    /// A **constant-valued stream** collapses all five markers onto the
    /// same height; the parabolic/linear marker moves keep returning that
    /// height (marker *positions* stay distinct integers, so no division
    /// by zero), and the estimate is exactly the constant.
    pub fn estimate(&self) -> f64 {
        match self.count {
            0 => 0.0,
            c if c < 5 => {
                let idx = ((c - 1) as f64 * self.p).round() as usize;
                self.q[idx.min(c as usize - 1)]
            }
            _ => self.q[2],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-uniform stream in [0, 100).
    fn stream(n: usize) -> impl Iterator<Item = f64> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        (0..n).map(move |_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * 100.0
        })
    }

    #[test]
    fn before_any_observation_the_estimate_is_zero() {
        assert_eq!(P2Quantile::new(0.95).estimate(), 0.0);
        assert_eq!(P2Quantile::new(0.95).count(), 0);
    }

    #[test]
    fn warmup_uses_the_sorted_buffer() {
        let mut q = P2Quantile::new(0.5);
        for x in [30.0, 10.0, 20.0] {
            q.observe(x);
        }
        assert_eq!(q.estimate(), 20.0, "median of {{10,20,30}}");
        let mut hi = P2Quantile::new(0.99);
        hi.observe(5.0);
        assert_eq!(hi.estimate(), 5.0, "one sample is every quantile");
    }

    #[test]
    fn converges_on_a_uniform_stream() {
        for (p, want) in [(0.5, 50.0), (0.9, 90.0), (0.99, 99.0)] {
            let mut q = P2Quantile::new(p);
            for x in stream(20_000) {
                q.observe(x);
            }
            let est = q.estimate();
            assert!(
                (est - want).abs() < 3.0,
                "p{}: estimate {est} vs true {want}",
                p * 100.0
            );
        }
    }

    #[test]
    fn tracks_the_tail_not_the_mean() {
        // 95% of samples at 10, 5% at 1000: mean ≈ 59.5, p99 ≈ 1000.
        let mut p99 = P2Quantile::new(0.99);
        let mut mean = 0.0;
        for i in 0..2000 {
            let x = if i % 20 == 19 { 1000.0 } else { 10.0 };
            p99.observe(x);
            mean += x / 2000.0;
        }
        assert!(mean < 70.0);
        assert!(
            p99.estimate() > 500.0,
            "p99 {} must sit in the tail",
            p99.estimate()
        );
    }

    #[test]
    fn quantile_is_clamped_and_exposed() {
        assert_eq!(P2Quantile::new(2.0).quantile(), 0.999);
        assert_eq!(P2Quantile::new(-1.0).quantile(), 0.01);
        assert_eq!(P2Quantile::new(0.9).quantile(), 0.9);
    }

    /// The documented warm-up regime: exact nearest-rank estimates for
    /// every sample count below five, across quantiles.
    #[test]
    fn warmup_below_five_samples_is_exact_nearest_rank() {
        let samples = [40.0, 10.0, 30.0, 20.0];
        for n in 1..=4usize {
            let mut sorted: Vec<f64> = samples[..n].to_vec();
            sorted.sort_by(f64::total_cmp);
            for p in [0.01, 0.5, 0.95, 0.99] {
                let mut q = P2Quantile::new(p);
                for &x in &samples[..n] {
                    q.observe(x);
                }
                let idx = ((n - 1) as f64 * p).round() as usize;
                assert_eq!(
                    q.estimate(),
                    sorted[idx.min(n - 1)],
                    "n={n} p={p}: warm-up estimate must be the nearest-rank \
                     quantile of the sorted buffer"
                );
            }
        }
    }

    /// A constant-valued stream collapses every marker to the constant:
    /// the estimate is exact, no marker move divides by zero, and the
    /// positions stay strictly increasing integers.
    #[test]
    fn constant_stream_collapses_markers_without_breaking() {
        for p in [0.5, 0.9, 0.99] {
            let mut q = P2Quantile::new(p);
            for _ in 0..10_000 {
                q.observe(42.0);
                let est = q.estimate();
                assert!(est.is_finite(), "p{p}: estimate must stay finite");
                assert_eq!(est, 42.0, "p{p}: constant stream estimates the constant");
            }
            for w in q.n.windows(2) {
                assert!(
                    w[0] < w[1],
                    "marker positions must stay strictly increasing: {:?}",
                    q.n
                );
            }
            // A late outlier is absorbed without disturbing the middle.
            q.observe(1e9);
            assert!(q.estimate().is_finite());
        }
    }

    #[test]
    fn markers_stay_ordered_under_adversarial_input() {
        let mut q = P2Quantile::new(0.9);
        // Alternating extremes with a drifting ramp.
        for i in 0..5000 {
            let x = match i % 3 {
                0 => f64::from(i),
                1 => 0.0,
                _ => 1e6,
            };
            q.observe(x);
            if q.count() >= 5 {
                for w in q.q.windows(2) {
                    assert!(w[0] <= w[1], "marker heights out of order: {:?}", q.q);
                }
            }
        }
    }
}
