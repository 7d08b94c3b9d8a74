//! The [`Scalar`] abstraction: an ordered field that the matrix, simplex and
//! mechanism code can be written against once and instantiated with either
//! exact rationals (the source of truth for theorem-level verification) or
//! `f64` (for large sweeps and performance benchmarking).

use std::fmt::{Debug, Display};
use std::ops::{Add, Div, Mul, Neg, Sub};

use privmech_numerics::Rational;

/// An ordered field with enough structure to run Gaussian elimination and the
/// simplex method.
///
/// Implementations must satisfy the usual field axioms. The `tolerance`
/// associated function lets inexact implementations (`f64`) expose a pivoting
/// / feasibility tolerance, while exact implementations return zero so that
/// every comparison is exact.
pub trait Scalar:
    Clone
    + Debug
    + Display
    + PartialEq
    + PartialOrd
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + 'static
{
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Embed a machine integer.
    fn from_i64(v: i64) -> Self;
    /// Embed the fraction `num / den`.
    ///
    /// # Panics
    /// Panics if `den == 0`.
    fn from_ratio(num: i64, den: i64) -> Self;
    /// Embed a finite `f64` exactly — every finite binary float is a
    /// rational, so exact fields represent it without rounding. This is the
    /// bridge for exact-arithmetic rescue solves of float models.
    ///
    /// # Panics
    /// Panics if `v` is not finite.
    fn from_f64(v: f64) -> Self;
    /// Convert to `f64` (possibly lossy) for reporting.
    fn to_f64(&self) -> f64;
    /// Absolute value.
    fn abs(&self) -> Self;
    /// Comparison tolerance: zero for exact fields, a small positive value for
    /// floating point.
    fn tolerance() -> Self;
    /// Whether this scalar type is exact (comparisons are decidable equalities).
    fn is_exact() -> bool;
    /// The value as an exact [`Rational`], for kernels that work on integer
    /// numerators and denominators directly (the revised simplex's
    /// fraction-free pivot row). Exact types ([`Scalar::is_exact`]) must
    /// return `Some`; `None` for inexact ones.
    fn as_rational(&self) -> Option<&Rational> {
        None
    }
    /// Embed a rational produced by such a kernel: the identity for
    /// [`Rational`], [`Rational::to_f64`] for `f64`.
    fn from_rational(r: Rational) -> Self;

    /// True iff the value is exactly the additive identity.
    ///
    /// Unlike [`Scalar::is_zero_approx`] this carries **no tolerance**: for
    /// `f64` it is `== 0.0`. Sparsity masks (skipping entries in row
    /// kernels) must use this test — treating merely-small floating values
    /// as zero would leave sub-tolerance residue unsubtracted and let the
    /// tableau drift inconsistent over thousands of pivots.
    fn is_exactly_zero(&self) -> bool {
        *self == Self::zero()
    }

    /// True iff `|self| <= tolerance`.
    fn is_zero_approx(&self) -> bool {
        self.abs() <= Self::tolerance()
    }
    /// True iff `self > tolerance`.
    fn is_positive_approx(&self) -> bool {
        *self > Self::tolerance()
    }
    /// True iff `self < -tolerance`.
    fn is_negative_approx(&self) -> bool {
        *self < -Self::tolerance()
    }

    // ------------------------------------------------------------------
    // By-reference arithmetic.
    //
    // The operator bounds above consume their operands, which forces generic
    // code into `a.clone() * b.clone()` pairs. For `f64` that is free; for
    // `Rational` a clone copies both parts (and allocates for any part wider
    // than two limbs), and the simplex inner loop performs millions of these.
    // Implementations backed by heap data should override these with
    // genuinely by-reference versions.
    // ------------------------------------------------------------------

    /// `self + rhs` without consuming either operand.
    fn add_ref(&self, rhs: &Self) -> Self {
        self.clone() + rhs.clone()
    }
    /// `self - rhs` without consuming either operand.
    fn sub_ref(&self, rhs: &Self) -> Self {
        self.clone() - rhs.clone()
    }
    /// `self * rhs` without consuming either operand.
    fn mul_ref(&self, rhs: &Self) -> Self {
        self.clone() * rhs.clone()
    }
    /// `self / rhs` without consuming either operand.
    fn div_ref(&self, rhs: &Self) -> Self {
        self.clone() / rhs.clone()
    }
    /// In-place `self += rhs`.
    fn add_assign_ref(&mut self, rhs: &Self) {
        *self = self.add_ref(rhs);
    }
    /// In-place `self -= rhs`.
    fn sub_assign_ref(&mut self, rhs: &Self) {
        *self = self.sub_ref(rhs);
    }
    /// In-place `self /= rhs`.
    fn div_assign_ref(&mut self, rhs: &Self) {
        *self = self.div_ref(rhs);
    }
    /// In-place fused update `self -= factor * x` — the Gaussian/simplex
    /// elimination kernel.
    fn sub_mul_assign(&mut self, factor: &Self, x: &Self) {
        *self = self.sub_ref(&factor.mul_ref(x));
    }
    /// In-place fused update `self += factor * x`.
    fn add_mul_assign(&mut self, factor: &Self, x: &Self) {
        *self = self.add_ref(&factor.mul_ref(x));
    }
    /// Row elimination `dst[j] -= factor * src[j]` at every `j` where
    /// `src[j]` is not exactly zero, leaving the other entries untouched.
    /// `support` lists exactly those positions, in any order: the default
    /// updates only there, so a sparse row costs its support. `f64`
    /// overrides this with one branch-free pass over the whole row.
    ///
    /// # Panics
    /// Panics if an index in `support` is out of bounds for either slice.
    fn sub_mul_row(dst: &mut [Self], factor: &Self, src: &[Self], support: &[usize]) {
        for &j in support {
            dst[j].sub_mul_assign(factor, &src[j]);
        }
    }
    /// In-place negation.
    fn neg_assign(&mut self) {
        *self = -self.clone();
    }
    /// True iff `|self - other| <= tolerance`.
    fn approx_eq(&self, other: &Self) -> bool {
        (self.clone() - other.clone()).is_zero_approx()
    }
    /// `self >= other - tolerance`.
    fn approx_ge(&self, other: &Self) -> bool {
        !(self.clone() - other.clone()).is_negative_approx()
    }
    /// `self <= other + tolerance`.
    fn approx_le(&self, other: &Self) -> bool {
        !(self.clone() - other.clone()).is_positive_approx()
    }
    /// Smaller of two scalars.
    fn min_val(self, other: Self) -> Self {
        if self <= other {
            self
        } else {
            other
        }
    }
    /// Larger of two scalars.
    fn max_val(self, other: Self) -> Self {
        if self >= other {
            self
        } else {
            other
        }
    }
    /// Non-negative integer power.
    fn powi(&self, exp: u32) -> Self {
        let mut acc = Self::one();
        let mut base = self.clone();
        let mut e = exp;
        while e > 0 {
            if e & 1 == 1 {
                acc = acc * base.clone();
            }
            base = base.clone() * base;
            e >>= 1;
        }
        acc
    }
}

impl Scalar for f64 {
    fn zero() -> Self {
        0.0
    }
    fn one() -> Self {
        1.0
    }
    fn from_i64(v: i64) -> Self {
        v as f64
    }
    fn from_ratio(num: i64, den: i64) -> Self {
        assert!(den != 0, "from_ratio with zero denominator");
        num as f64 / den as f64
    }
    fn from_f64(v: f64) -> Self {
        assert!(v.is_finite(), "from_f64 needs a finite value, got {v}");
        v
    }
    fn to_f64(&self) -> f64 {
        *self
    }
    fn abs(&self) -> Self {
        f64::abs(*self)
    }
    fn tolerance() -> Self {
        1e-9
    }
    fn is_exact() -> bool {
        false
    }
    fn from_rational(r: Rational) -> Self {
        r.to_f64()
    }

    // A select instead of an index gather, so the loop vectorizes. The mask
    // is the default's: `s != 0.0` is false exactly on ±0 (so NaN and
    // infinities update, as they are in the support), and an unselected
    // entry keeps its bits, signed zeros included. Separate multiply and
    // subtract, never a fused multiply-add, so every result rounds as the
    // default's `sub_mul_assign` does.
    fn sub_mul_row(dst: &mut [f64], factor: &f64, src: &[f64], _support: &[usize]) {
        assert_eq!(dst.len(), src.len(), "row length mismatch in sub_mul_row");
        let f = *factor;
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = if s != 0.0 { *d - f * s } else { *d };
        }
    }
}

impl Scalar for Rational {
    fn zero() -> Self {
        Rational::zero()
    }
    fn one() -> Self {
        Rational::one()
    }
    fn from_i64(v: i64) -> Self {
        Rational::from_int(v)
    }
    fn from_ratio(num: i64, den: i64) -> Self {
        Rational::from_ratio(num, den)
    }
    fn from_f64(v: f64) -> Self {
        Rational::from_f64_exact(v)
            .unwrap_or_else(|| panic!("from_f64 needs a finite value, got {v}"))
    }
    fn to_f64(&self) -> f64 {
        Rational::to_f64(self)
    }
    fn abs(&self) -> Self {
        Rational::abs(self)
    }
    fn tolerance() -> Self {
        Rational::zero()
    }
    fn is_exact() -> bool {
        true
    }
    fn as_rational(&self) -> Option<&Rational> {
        Some(self)
    }
    fn from_rational(r: Rational) -> Self {
        r
    }

    // Exact sign tests: no negated-tolerance temporaries, no cross-multiply.
    fn is_exactly_zero(&self) -> bool {
        Rational::is_zero(self)
    }
    fn is_zero_approx(&self) -> bool {
        Rational::is_zero(self)
    }
    fn is_positive_approx(&self) -> bool {
        Rational::is_positive(self)
    }
    fn is_negative_approx(&self) -> bool {
        Rational::is_negative(self)
    }

    fn add_ref(&self, rhs: &Self) -> Self {
        self + rhs
    }
    fn sub_ref(&self, rhs: &Self) -> Self {
        self - rhs
    }
    fn mul_ref(&self, rhs: &Self) -> Self {
        self * rhs
    }
    fn div_ref(&self, rhs: &Self) -> Self {
        self / rhs
    }
    fn add_assign_ref(&mut self, rhs: &Self) {
        *self = &*self + rhs;
    }
    fn sub_assign_ref(&mut self, rhs: &Self) {
        *self = &*self - rhs;
    }
    fn div_assign_ref(&mut self, rhs: &Self) {
        *self = &*self / rhs;
    }
    // The fused forms hit `Rational`'s single-limb fast path (one machine
    // gcd instead of separate mul + add/sub reductions) — this is the
    // innermost operation of both the dense tableau update and the revised
    // simplex's LU FTRAN/BTRAN kernels.
    fn sub_mul_assign(&mut self, factor: &Self, x: &Self) {
        *self = self.sub_mul(factor, x);
    }
    fn add_mul_assign(&mut self, factor: &Self, x: &Self) {
        *self = self.add_mul(factor, x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privmech_numerics::rat;

    #[test]
    fn f64_scalar_basics() {
        assert_eq!(<f64 as Scalar>::zero(), 0.0);
        assert_eq!(<f64 as Scalar>::one(), 1.0);
        assert_eq!(<f64 as Scalar>::from_ratio(1, 4), 0.25);
        assert!(!<f64 as Scalar>::is_exact());
        assert!(1e-12f64.is_zero_approx());
        assert!(!1e-3f64.is_zero_approx());
        assert!(0.5f64.is_positive_approx());
        assert!((-0.5f64).is_negative_approx());
        assert!(0.1f64.approx_eq(&(0.1 + 1e-12)));
        assert_eq!(Scalar::powi(&2.0f64, 10), 1024.0);
        assert!(0.5f64.as_rational().is_none());
        assert_eq!(<f64 as Scalar>::from_rational(rat(1, 4)), 0.25);
    }

    #[test]
    fn rational_scalar_is_exact() {
        assert!(<Rational as Scalar>::is_exact());
        assert_eq!(<Rational as Scalar>::tolerance(), Rational::zero());
        assert_eq!(<Rational as Scalar>::from_ratio(2, 8), rat(1, 4));
        assert!(rat(0, 1).is_zero_approx());
        assert!(!rat(1, 1_000_000).is_zero_approx());
        assert!(rat(1, 1_000_000).is_positive_approx());
        assert_eq!(Scalar::powi(&rat(1, 2), 3), rat(1, 8));
        assert!(rat(1, 3).approx_ge(&rat(1, 3)));
        assert!(rat(1, 3).approx_le(&rat(1, 2)));
        assert_eq!(rat(2, 6).as_rational(), Some(&rat(1, 3)));
        assert_eq!(<Rational as Scalar>::from_rational(rat(-3, 9)), rat(-1, 3));
    }

    #[test]
    fn sub_mul_row_touches_only_the_support() {
        let src = vec![rat(1, 1), Rational::zero(), rat(1, 1)];
        let mut dst = vec![rat(5, 1), rat(5, 1), rat(5, 1)];
        Scalar::sub_mul_row(&mut dst, &rat(2, 1), &src, &[0, 2]);
        assert_eq!(dst, vec![rat(3, 1), rat(5, 1), rat(3, 1)]);
    }

    #[test]
    fn f64_sub_mul_row_matches_the_support_gather_bit_for_bit() {
        // Every entry kind the mask has to get right: signed zeros on both
        // sides, non-finite values, and a product that rounds.
        let src = [0.1, 0.0, -0.0, f64::NAN, f64::INFINITY, -3.0, 1e-300, 0.0];
        let dst = [0.3, -0.0, 0.0, 1.0, 2.0, -0.0, 1e-300, 7.0];
        for factor in [0.7, -1.0, 0.0, -0.0, 1e300] {
            let mut support = Vec::new();
            crate::kernels::nonzero_support_into(&src, &mut support);
            let mut gathered = dst;
            for &j in &support {
                gathered[j].sub_mul_assign(&factor, &src[j]);
            }
            let mut kernel = dst;
            Scalar::sub_mul_row(&mut kernel, &factor, &src, &support);
            let bits = |row: &[f64]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&kernel), bits(&gathered), "factor {factor}");
        }
    }

    #[test]
    fn min_max_val() {
        assert_eq!(rat(1, 3).min_val(rat(1, 2)), rat(1, 3));
        assert_eq!(rat(1, 3).max_val(rat(1, 2)), rat(1, 2));
        assert_eq!(2.0f64.min_val(3.0), 2.0);
        assert_eq!(2.0f64.max_val(3.0), 3.0);
    }
}
