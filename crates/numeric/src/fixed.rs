//! Two's-complement 16-bit fixed-point words.

use std::fmt;
use std::ops::Neg;

/// A 16-bit two's-complement fixed-point number with `FRAC` fraction bits.
///
/// The value represented is `raw / 2^FRAC`. The SparseNN datapath uses
/// [`Q6_10`] (`FRAC = 10`), giving a range of `[-32, 32)` with a resolution
/// of `2^-10 ≈ 0.000977`.
///
/// Addition and subtraction saturate (as a hardware ALU with a saturation
/// stage would); the full-precision product of two words is exposed via
/// [`Fixed::wide_mul`] so the multiplier-accumulator can keep all bits, as
/// the real MAC unit does.
///
/// # Example
///
/// ```
/// use sparsenn_numeric::Q6_10;
/// let x = Q6_10::from_f32(1.5);
/// let y = Q6_10::from_f32(0.25);
/// assert_eq!((x + y).to_f32(), 1.75);
/// assert_eq!(x.wide_mul(y), (1.5f32 * 0.25 * f32::powi(2.0, 20)) as i32);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Fixed<const FRAC: u32> {
    raw: i16,
}

/// The Q6.10 format used throughout the SparseNN accelerator (Table II:
/// "16-bit fixed point").
pub type Q6_10 = Fixed<10>;

impl<const FRAC: u32> Fixed<FRAC> {
    /// The representable zero.
    pub const ZERO: Self = Self { raw: 0 };
    /// The smallest positive representable value (`2^-FRAC`).
    pub const EPSILON: Self = Self { raw: 1 };
    /// One, exactly representable for all `FRAC < 15`.
    pub const ONE: Self = Self { raw: 1 << FRAC };
    /// The largest representable value.
    pub const MAX: Self = Self { raw: i16::MAX };
    /// The smallest (most negative) representable value.
    pub const MIN: Self = Self { raw: i16::MIN };

    /// Creates a fixed-point value from its raw two's-complement encoding.
    #[inline]
    pub const fn from_raw(raw: i16) -> Self {
        Self { raw }
    }

    /// Returns the raw two's-complement encoding.
    #[inline]
    pub const fn raw(self) -> i16 {
        self.raw
    }

    /// Quantizes an `f32` with round-to-nearest (ties to even) and
    /// saturation, exactly like a hardware quantizer front end.
    ///
    /// Non-finite inputs saturate: `NAN` maps to zero, `±∞` to `MAX`/`MIN`.
    #[inline]
    pub fn from_f32(x: f32) -> Self {
        if x.is_nan() {
            return Self::ZERO;
        }
        let scaled = (x as f64) * f64::from(1u32 << FRAC);
        let clamped = scaled
            .round_ties_even()
            .clamp(i16::MIN as f64, i16::MAX as f64);
        Self {
            raw: clamped as i16,
        }
    }

    /// Converts back to `f32`. Exact: every `i16 / 2^FRAC` fits in an `f32`
    /// mantissa.
    #[inline]
    pub fn to_f32(self) -> f32 {
        f32::from(self.raw) / (1u32 << FRAC) as f32
    }

    /// Saturating addition (the behaviour of the PE writeback stage).
    #[inline]
    pub fn saturating_add(self, rhs: Self) -> Self {
        Self {
            raw: self.raw.saturating_add(rhs.raw),
        }
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Self) -> Self {
        Self {
            raw: self.raw.saturating_sub(rhs.raw),
        }
    }

    /// Full-precision product: `Q(FRAC) × Q(FRAC) → Q(2·FRAC)` in an `i32`.
    ///
    /// This is exact — a 16×16→32 multiplier array loses no bits — and is
    /// what the PE's MAC unit feeds into the wide [`Accumulator`].
    ///
    /// [`Accumulator`]: crate::Accumulator
    #[inline]
    pub fn wide_mul(self, rhs: Self) -> i32 {
        i32::from(self.raw) * i32::from(rhs.raw)
    }

    /// `true` if the encoded value is exactly zero.
    ///
    /// This is the predicate the leading-nonzero detector (LNZD) of the PE
    /// applies to decide whether an activation is broadcast at all.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.raw == 0
    }

    /// `true` if the value is strictly positive.
    ///
    /// The SparseNN predictor schedules a row for computation only when the
    /// predicted pre-activation is positive (`p > 0`).
    #[inline]
    pub const fn is_positive(self) -> bool {
        self.raw > 0
    }

    /// Rectified linear unit: `max(0, self)`, a single mux in hardware.
    #[inline]
    pub fn relu(self) -> Self {
        if self.raw < 0 {
            Self::ZERO
        } else {
            self
        }
    }
}

/// Index of the largest value, first occurrence winning ties (the
/// classifier argmax — every layer of the stack must break ties the same
/// way for fixed-point accuracies to agree across backends). Returns 0 for
/// an empty slice.
pub fn argmax<const FRAC: u32>(xs: &[Fixed<FRAC>]) -> usize {
    let mut best = 0;
    for (i, v) in xs.iter().enumerate() {
        if v.raw() > xs[best].raw() {
            best = i;
        }
    }
    best
}

impl<const FRAC: u32> std::ops::Add for Fixed<FRAC> {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        self.saturating_add(rhs)
    }
}

impl<const FRAC: u32> std::ops::Sub for Fixed<FRAC> {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        self.saturating_sub(rhs)
    }
}

impl<const FRAC: u32> Neg for Fixed<FRAC> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self {
            raw: self.raw.saturating_neg(),
        }
    }
}

impl<const FRAC: u32> fmt::Debug for Fixed<FRAC> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fixed<{}>({} = {})", FRAC, self.raw, self.to_f32())
    }
}

impl<const FRAC: u32> fmt::Display for Fixed<FRAC> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f32(), f)
    }
}

impl<const FRAC: u32> fmt::LowerHex for Fixed<FRAC> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&(self.raw as u16), f)
    }
}

impl<const FRAC: u32> fmt::Binary for Fixed<FRAC> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&(self.raw as u16), f)
    }
}

impl<const FRAC: u32> From<Fixed<FRAC>> for f32 {
    #[inline]
    fn from(x: Fixed<FRAC>) -> f32 {
        x.to_f32()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmax_breaks_ties_on_first_occurrence() {
        let xs: Vec<Q6_10> = [1, 7, 7, -3].iter().map(|&r| Q6_10::from_raw(r)).collect();
        assert_eq!(argmax(&xs), 1, "ties go to the first occurrence");
        assert_eq!(argmax::<10>(&[]), 0, "empty slice maps to 0");
        let neg: Vec<Q6_10> = [-5, -2, -9].iter().map(|&r| Q6_10::from_raw(r)).collect();
        assert_eq!(argmax(&neg), 1);
    }

    #[test]
    fn constants_are_consistent() {
        assert_eq!(Q6_10::ZERO.to_f32(), 0.0);
        assert_eq!(Q6_10::ONE.to_f32(), 1.0);
        assert_eq!(Q6_10::EPSILON.to_f32(), f32::powi(2.0, -10));
        assert!(Q6_10::MAX.to_f32() < 32.0);
        assert_eq!(Q6_10::MIN.to_f32(), -32.0);
    }

    #[test]
    fn from_f32_rounds_to_nearest() {
        // 0.30029296875 * 1024 = 307.5 exactly -> ties to even -> 308.
        let x = Q6_10::from_f32(307.5 / 1024.0);
        assert_eq!(x.raw(), 308);
        // 306.5 -> even -> 306.
        let y = Q6_10::from_f32(306.5 / 1024.0);
        assert_eq!(y.raw(), 306);
        // Plain nearest.
        assert_eq!(Q6_10::from_f32(0.25).raw(), 256);
        assert_eq!(Q6_10::from_f32(-0.25).raw(), -256);
        // Negative ties go to even too (not away from zero).
        for (scaled, raw) in [(-307.5, -308), (-306.5, -306), (-0.5, 0), (-1.5, -2)] {
            assert_eq!(Q6_10::from_f32(scaled / 1024.0).raw(), raw, "{scaled}");
        }
        // Ties at the i16 rails round, then saturate.
        for (scaled, raw) in [
            (32766.5, 32766),
            (32767.5, i16::MAX),
            (-32767.5, i16::MIN),
            (-32768.5, i16::MIN),
        ] {
            assert_eq!(Q6_10::from_f32(scaled / 1024.0).raw(), raw, "{scaled}");
        }
        assert_eq!(Q6_10::from_f32(f32::INFINITY), Q6_10::MAX);
        assert_eq!(Q6_10::from_f32(f32::NEG_INFINITY), Q6_10::MIN);
        assert_eq!(Q6_10::from_f32(f32::NAN), Q6_10::ZERO);
        assert_eq!(Q6_10::from_f32(-f32::NAN), Q6_10::ZERO);
    }

    #[test]
    fn from_f32_saturates() {
        assert_eq!(Q6_10::from_f32(1.0e9), Q6_10::MAX);
        assert_eq!(Q6_10::from_f32(-1.0e9), Q6_10::MIN);
        assert_eq!(Q6_10::from_f32(f32::INFINITY), Q6_10::MAX);
        assert_eq!(Q6_10::from_f32(f32::NEG_INFINITY), Q6_10::MIN);
        assert_eq!(Q6_10::from_f32(f32::NAN), Q6_10::ZERO);
    }

    #[test]
    fn add_saturates_at_both_rails() {
        assert_eq!(Q6_10::MAX + Q6_10::ONE, Q6_10::MAX);
        assert_eq!(Q6_10::MIN + (-Q6_10::ONE), Q6_10::MIN);
        assert_eq!(Q6_10::MIN - Q6_10::ONE, Q6_10::MIN);
    }

    #[test]
    fn neg_of_min_saturates() {
        assert_eq!((-Q6_10::MIN).raw(), i16::MAX);
    }

    #[test]
    fn wide_mul_is_exact() {
        let a = Q6_10::from_raw(-32768);
        let b = Q6_10::from_raw(-32768);
        assert_eq!(a.wide_mul(b), 1 << 30);
        let c = Q6_10::from_f32(1.5);
        let d = Q6_10::from_f32(2.0);
        assert_eq!(c.wide_mul(d), 3 << 20);
    }

    #[test]
    fn relu_clamps_negatives_only() {
        assert_eq!(Q6_10::from_f32(-3.0).relu(), Q6_10::ZERO);
        let p = Q6_10::from_f32(3.0);
        assert_eq!(p.relu(), p);
        assert_eq!(Q6_10::ZERO.relu(), Q6_10::ZERO);
    }

    #[test]
    fn predicates() {
        assert!(Q6_10::ZERO.is_zero());
        assert!(!Q6_10::EPSILON.is_zero());
        assert!(Q6_10::EPSILON.is_positive());
        assert!(!Q6_10::ZERO.is_positive());
        assert!(!(-Q6_10::EPSILON).is_positive());
    }

    #[test]
    fn formatting_is_nonempty() {
        assert_eq!(format!("{:x}", Q6_10::from_raw(-1)), "ffff");
        assert!(!format!("{:?}", Q6_10::ZERO).is_empty());
        assert_eq!(format!("{}", Q6_10::ONE), "1");
    }
}
