//! Exact rational numbers backed by [`BigInt`].
//!
//! A [`Rational`] is always stored in lowest terms with a strictly positive
//! denominator, so structural equality coincides with numeric equality.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

use crate::bigint::{u128_gcd, u64_gcd, BigInt, ParseNumError, Sign};

/// An exact rational number `numerator / denominator` in lowest terms, with a
/// strictly positive denominator.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Rational {
    num: BigInt,
    den: BigInt,
}

impl Rational {
    /// The rational 0.
    #[must_use]
    pub fn zero() -> Rational {
        Rational {
            num: BigInt::zero(),
            den: BigInt::one(),
        }
    }

    /// The rational 1.
    #[must_use]
    pub fn one() -> Rational {
        Rational {
            num: BigInt::one(),
            den: BigInt::one(),
        }
    }

    /// Construct `num / den` and normalize.
    ///
    /// # Panics
    /// Panics if `den` is zero.
    #[must_use]
    pub fn new(num: BigInt, den: BigInt) -> Rational {
        assert!(!den.is_zero(), "Rational with zero denominator");
        let mut r = Rational { num, den };
        r.normalize();
        r
    }

    /// Construct from machine integers, e.g. `Rational::from_ratio(1, 4)`.
    ///
    /// # Panics
    /// Panics if `den` is zero.
    #[must_use]
    pub fn from_ratio(num: i64, den: i64) -> Rational {
        Rational::new(BigInt::from(num), BigInt::from(den))
    }

    /// Construct the integer `v` as a rational.
    #[must_use]
    pub fn from_int(v: i64) -> Rational {
        Rational {
            num: BigInt::from(v),
            den: BigInt::one(),
        }
    }

    fn normalize(&mut self) {
        if self.den.is_negative() {
            self.num = -std::mem::take(&mut self.num);
            self.den = -std::mem::take(&mut self.den);
        }
        if self.num.is_zero() {
            self.den = BigInt::one();
            return;
        }
        // Integer fast path: nothing to reduce against a unit denominator.
        if self.den.is_one() {
            return;
        }
        let g = self.num.gcd(&self.den);
        if !g.is_one() {
            self.num = &self.num / &g;
            self.den = &self.den / &g;
        }
    }

    /// Internal constructor for values already in lowest terms with a
    /// positive denominator (the arithmetic fast paths guarantee this by
    /// construction, skipping the normalization gcd).
    #[inline]
    fn from_reduced(num: BigInt, den: BigInt) -> Rational {
        debug_assert!(
            den.is_positive(),
            "from_reduced needs a positive denominator"
        );
        debug_assert!(
            num.gcd(&den).is_one() || num.is_zero(),
            "from_reduced needs coprime parts"
        );
        if num.is_zero() {
            return Rational::zero();
        }
        Rational { num, den }
    }

    /// Numerator (sign-carrying).
    #[must_use]
    pub fn numer(&self) -> &BigInt {
        &self.num
    }

    /// Denominator (always positive).
    #[must_use]
    pub fn denom(&self) -> &BigInt {
        &self.den
    }

    /// True iff the value is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.num.is_zero()
    }

    /// True iff the value is one.
    #[must_use]
    pub fn is_one(&self) -> bool {
        self.num.is_one() && self.den.is_one()
    }

    /// True iff the value is strictly negative.
    #[must_use]
    pub fn is_negative(&self) -> bool {
        self.num.is_negative()
    }

    /// True iff the value is strictly positive.
    #[must_use]
    pub fn is_positive(&self) -> bool {
        self.num.is_positive()
    }

    /// True iff the value is an integer (denominator 1).
    #[must_use]
    pub fn is_integer(&self) -> bool {
        self.den.is_one()
    }

    /// Sign of the value.
    #[must_use]
    pub fn sign(&self) -> Sign {
        self.num.sign()
    }

    /// Absolute value.
    #[must_use]
    pub fn abs(&self) -> Rational {
        Rational {
            num: self.num.abs(),
            den: self.den.clone(),
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics if the value is zero.
    #[must_use]
    pub fn recip(&self) -> Rational {
        assert!(!self.is_zero(), "reciprocal of zero");
        // Already in lowest terms; only the sign needs to move.
        if self.num.is_negative() {
            Rational {
                num: -self.den.clone(),
                den: -self.num.clone(),
            }
        } else {
            Rational {
                num: self.den.clone(),
                den: self.num.clone(),
            }
        }
    }

    /// Fused `self - factor·x`.
    ///
    /// This is the innermost operation of the revised simplex's eta-vector
    /// kernels (FTRAN/BTRAN apply `w_i ← w_i - t_i·z` across every nonzero of
    /// an eta column): computing it as `mul` then `sub` builds an
    /// intermediate `Rational` and runs every gcd on `BigInt`s. When
    /// `factor` and `x` have one-limb components (`i64`) and `self` two-limb
    /// ones (`i128`), the fused form stays on machine words: it
    /// cross-cancels the product with two `u64` gcds, then combines it with
    /// `self` by Knuth's gcd-minimizing addition in checked `i128`
    /// arithmetic. Any overflow falls back to the generic `mul`/`sub` path;
    /// both paths return the identical canonical rational.
    #[must_use]
    pub fn sub_mul(&self, factor: &Rational, x: &Rational) -> Rational {
        if let Some(out) = fused_mul_add_word(self, factor, x, true) {
            return out;
        }
        self - &(factor * x)
    }

    /// Fused `self + factor·x`; see [`Rational::sub_mul`] for the word path.
    #[must_use]
    pub fn add_mul(&self, factor: &Rational, x: &Rational) -> Rational {
        if let Some(out) = fused_mul_add_word(self, factor, x, false) {
            return out;
        }
        self + &(factor * x)
    }

    /// Raise to an integer power (negative exponents invert; `0^0 = 1`).
    ///
    /// # Panics
    /// Panics when raising zero to a negative power.
    #[must_use]
    pub fn pow(&self, exp: i32) -> Rational {
        if exp == 0 {
            return Rational::one();
        }
        let mag = exp.unsigned_abs();
        let base = Rational {
            num: self.num.pow(mag),
            den: self.den.pow(mag),
        };
        if exp < 0 {
            base.recip()
        } else {
            base
        }
    }

    /// Smaller of two rationals (by value).
    #[must_use]
    pub fn min(self, other: Rational) -> Rational {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Larger of two rationals (by value).
    #[must_use]
    pub fn max(self, other: Rational) -> Rational {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Best-effort conversion to `f64`.
    #[must_use]
    pub fn to_f64(&self) -> f64 {
        if self.num.is_zero() {
            return 0.0;
        }
        let nb = self.num.bit_length() as i64;
        let db = self.den.bit_length() as i64;
        // Bring both magnitudes into ~60-bit range so the u64 -> f64
        // conversion is exact-ish, then reapply the scale.
        let shift_n = (nb - 60).max(0) as usize;
        let shift_d = (db - 60).max(0) as usize;
        let n = self.num.abs().shr_bits(shift_n).to_f64();
        let d = self.den.shr_bits(shift_d).to_f64();
        let mut v = (n / d) * 2f64.powi(shift_n as i32 - shift_d as i32);
        if self.num.is_negative() {
            v = -v;
        }
        v
    }

    /// Exact conversion from an `f64` that must be finite.
    ///
    /// Returns `None` for NaN or infinities. The result is the exact binary
    /// value of the float, e.g. `0.1` becomes the dyadic rational closest to
    /// one tenth.
    #[must_use]
    pub fn from_f64_exact(v: f64) -> Option<Rational> {
        if !v.is_finite() {
            return None;
        }
        if v == 0.0 {
            return Some(Rational::zero());
        }
        let bits = v.to_bits();
        let sign = if bits >> 63 == 1 { -1i64 } else { 1 };
        let exponent = ((bits >> 52) & 0x7ff) as i64;
        let fraction = bits & ((1u64 << 52) - 1);
        let (mantissa, exp) = if exponent == 0 {
            (fraction, -1074i64)
        } else {
            (fraction | (1u64 << 52), exponent - 1075)
        };
        let mag = BigInt::from(mantissa) * BigInt::from(sign);
        let r = if exp >= 0 {
            Rational::new(mag.shl_bits(exp as usize), BigInt::one())
        } else {
            Rational::new(mag, BigInt::one().shl_bits((-exp) as usize))
        };
        Some(r)
    }

    /// Round to the nearest integer (ties round away from zero).
    #[must_use]
    pub fn round(&self) -> BigInt {
        let two = BigInt::from(2i64);
        let (q, r) = self.num.div_rem(&self.den);
        let twice_r = &r.abs() * &two;
        if twice_r >= self.den {
            if self.num.is_negative() {
                q - BigInt::one()
            } else {
                q + BigInt::one()
            }
        } else {
            q
        }
    }

    /// Integer floor.
    #[must_use]
    pub fn floor(&self) -> BigInt {
        let (q, r) = self.num.div_rem(&self.den);
        if self.num.is_negative() && !r.is_zero() {
            q - BigInt::one()
        } else {
            q
        }
    }

    /// Integer ceiling.
    #[must_use]
    pub fn ceil(&self) -> BigInt {
        let (q, r) = self.num.div_rem(&self.den);
        if self.num.is_positive() && !r.is_zero() {
            q + BigInt::one()
        } else {
            q
        }
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::zero()
    }
}

impl From<i64> for Rational {
    fn from(v: i64) -> Self {
        Rational::from_int(v)
    }
}

impl From<u64> for Rational {
    fn from(v: u64) -> Self {
        Rational {
            num: BigInt::from(v),
            den: BigInt::one(),
        }
    }
}

impl From<i32> for Rational {
    fn from(v: i32) -> Self {
        Rational::from_int(v as i64)
    }
}

impl From<u32> for Rational {
    fn from(v: u32) -> Self {
        Rational::from_int(v as i64)
    }
}

impl From<usize> for Rational {
    fn from(v: usize) -> Self {
        Rational {
            num: BigInt::from(v),
            den: BigInt::one(),
        }
    }
}

impl From<BigInt> for Rational {
    fn from(v: BigInt) -> Self {
        Rational {
            num: v,
            den: BigInt::one(),
        }
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // Sign comparison settles most simplex ratio tests without any
        // multiplication at all.
        let sign_rank = |s: Sign| match s {
            Sign::Negative => 0u8,
            Sign::Zero => 1,
            Sign::Positive => 2,
        };
        match sign_rank(self.sign()).cmp(&sign_rank(other.sign())) {
            Ordering::Equal => {}
            order => return order,
        }
        if self.den == other.den {
            return self.num.cmp(&other.num);
        }
        // a/b vs c/d  <=>  a*d vs c*b   (b, d > 0)
        (&self.num * &other.den).cmp(&(&other.num * &self.den))
    }
}

/// The machine-word path behind [`Rational::sub_mul`] /
/// [`Rational::add_mul`]: `lhs ∓ factor·x` for `i64` components of `factor`
/// and `x` and `i128` components of `lhs`. Returns `None` when a component
/// is wider or an intermediate overflows `i128`.
fn fused_mul_add_word(
    lhs: &Rational,
    factor: &Rational,
    x: &Rational,
    subtract: bool,
) -> Option<Rational> {
    let (c, d) = (factor.num.to_i64()?, factor.den.to_i64()?);
    let (e, f) = (x.num.to_i64()?, x.den.to_i64()?);
    let (a, b) = (lhs.num.to_i128()?, lhs.den.to_i128()?);
    if c == 0 || e == 0 {
        return Some(lhs.clone());
    }
    // The product p/q = (c/d)·(e/f), cross-cancelled into lowest terms:
    // |p| ≤ 2¹²⁶ and 0 < q < 2¹²⁶, so neither product overflows.
    let (c, f) = cancel(c, f);
    let (e, d) = cancel(e, d);
    let p = i128::from(c) * i128::from(e);
    let p = if subtract { -p } else { p };
    let q = i128::from(d) * i128::from(f);
    if a == 0 {
        return Some(Rational::from_reduced(BigInt::from(p), BigInt::from(q)));
    }
    // a/b + p/q by Knuth's scheme, exactly as `add_sub` does on `BigInt`s.
    let g0 = u128_gcd(b as u128, q as u128) as i128;
    let (b_red, q_red) = (exact_quotient(b, g0), exact_quotient(q, g0));
    let t = a.checked_mul(q_red)?.checked_add(p.checked_mul(b_red)?)?;
    if t == 0 {
        return Some(Rational::zero());
    }
    let g1 = if g0 == 1 {
        1
    } else {
        u128_gcd(t.unsigned_abs(), g0 as u128) as i128
    };
    let den = b_red.checked_mul(exact_quotient(q, g1))?;
    Some(Rational::from_reduced(
        BigInt::from(exact_quotient(t, g1)),
        BigInt::from(den),
    ))
}

/// `(n, d) / gcd(n, d)` for a positive `d`; coprime pairs skip the divisions.
fn cancel(n: i64, d: i64) -> (i64, i64) {
    match u64_gcd(n.unsigned_abs(), d as u64) as i64 {
        1 => (n, d),
        g => (n / g, d / g),
    }
}

/// `v / g` for a positive divisor `g` of `v`, on one machine word when `v`
/// fits one (an `i128` division is a library call).
fn exact_quotient(v: i128, g: i128) -> i128 {
    if g == 1 {
        return v;
    }
    match (i64::try_from(v), i64::try_from(g)) {
        (Ok(v), Ok(g)) => i128::from(v / g),
        _ => v / g,
    }
}

/// Shared implementation of `+` / `-` using Knuth's gcd-minimizing scheme
/// (TAOCP 4.5.1): instead of reducing `(ad ± cb) / bd` with one gcd of two
/// large products, compute `g0 = gcd(b, d)` first and reduce the much smaller
/// cofactors. When `g0 = 1` (the common case for random tableau entries) the
/// result is already in lowest terms and **no** further gcd is needed.
fn add_sub(lhs: &Rational, rhs: &Rational, subtract: bool) -> Rational {
    if rhs.is_zero() {
        return lhs.clone();
    }
    if lhs.is_zero() {
        let mut out = rhs.clone();
        if subtract {
            out.num = -out.num;
        }
        return out;
    }
    let combine = |a: BigInt, b: BigInt| if subtract { a - b } else { a + b };

    // Integer fast path: only one gcd-free reduction against a unit
    // denominator can arise, and both unit cases collapse to simple forms.
    if lhs.den.is_one() && rhs.den.is_one() {
        return Rational {
            num: combine(lhs.num.clone(), rhs.num.clone()),
            den: BigInt::one(),
        };
    }
    if lhs.den == rhs.den {
        let num = combine(lhs.num.clone(), rhs.num.clone());
        if num.is_zero() {
            return Rational::zero();
        }
        let g = num.gcd(&lhs.den);
        if g.is_one() {
            return Rational::from_reduced(num, lhs.den.clone());
        }
        return Rational::from_reduced(&num / &g, &lhs.den / &g);
    }

    let g0 = lhs.den.gcd(&rhs.den);
    if g0.is_one() {
        // gcd(ad ± cb, bd) = 1 when both inputs are reduced and b ⟂ d.
        let num = combine(&lhs.num * &rhs.den, &rhs.num * &lhs.den);
        if num.is_zero() {
            return Rational::zero();
        }
        return Rational::from_reduced(num, &lhs.den * &rhs.den);
    }
    let b_red = &lhs.den / &g0;
    let d_red = &rhs.den / &g0;
    let t = combine(&lhs.num * &d_red, &rhs.num * &b_red);
    if t.is_zero() {
        return Rational::zero();
    }
    let g1 = t.gcd(&g0);
    if g1.is_one() {
        Rational::from_reduced(t, &b_red * &rhs.den)
    } else {
        Rational::from_reduced(&t / &g1, &b_red * &(&rhs.den / &g1))
    }
}

impl Add for &Rational {
    type Output = Rational;
    fn add(self, rhs: &Rational) -> Rational {
        add_sub(self, rhs, false)
    }
}

impl Sub for &Rational {
    type Output = Rational;
    fn sub(self, rhs: &Rational) -> Rational {
        add_sub(self, rhs, true)
    }
}

impl Mul for &Rational {
    type Output = Rational;
    fn mul(self, rhs: &Rational) -> Rational {
        if self.is_zero() || rhs.is_zero() {
            return Rational::zero();
        }
        // Cross-cancel before multiplying: gcd(a, d) and gcd(c, b) are tiny
        // compared to gcd(ac, bd), and the products never grow past reduced
        // size. The result is in lowest terms by construction.
        let g1 = self.num.gcd(&rhs.den);
        let g2 = rhs.num.gcd(&self.den);
        let num = if g1.is_one() && g2.is_one() {
            &self.num * &rhs.num
        } else {
            &(&self.num / &g1) * &(&rhs.num / &g2)
        };
        let den = if g1.is_one() && g2.is_one() {
            &self.den * &rhs.den
        } else {
            &(&self.den / &g2) * &(&rhs.den / &g1)
        };
        Rational::from_reduced(num, den)
    }
}

impl Div for &Rational {
    type Output = Rational;
    fn div(self, rhs: &Rational) -> Rational {
        assert!(!rhs.is_zero(), "Rational division by zero");
        if self.is_zero() {
            return Rational::zero();
        }
        // a/b ÷ c/d = (a·d)/(b·c), cross-cancelled like multiplication; the
        // only extra work is moving `c`'s sign into the numerator.
        let g1 = self.num.gcd(&rhs.num);
        let g2 = rhs.den.gcd(&self.den);
        let mut num = if g1.is_one() && g2.is_one() {
            &self.num * &rhs.den
        } else {
            &(&self.num / &g1) * &(&rhs.den / &g2)
        };
        let mut den = if g1.is_one() && g2.is_one() {
            &self.den * &rhs.num
        } else {
            &(&self.den / &g2) * &(&rhs.num / &g1)
        };
        if den.is_negative() {
            num = -num;
            den = -den;
        }
        Rational::from_reduced(num, den)
    }
}

macro_rules! forward_owned_binop_rat {
    ($trait:ident, $method:ident) => {
        impl $trait for Rational {
            type Output = Rational;
            fn $method(self, rhs: Rational) -> Rational {
                (&self).$method(&rhs)
            }
        }
        impl $trait<&Rational> for Rational {
            type Output = Rational;
            fn $method(self, rhs: &Rational) -> Rational {
                (&self).$method(rhs)
            }
        }
        impl $trait<Rational> for &Rational {
            type Output = Rational;
            fn $method(self, rhs: Rational) -> Rational {
                self.$method(&rhs)
            }
        }
    };
}

forward_owned_binop_rat!(Add, add);
forward_owned_binop_rat!(Sub, sub);
forward_owned_binop_rat!(Mul, mul);
forward_owned_binop_rat!(Div, div);

impl AddAssign<&Rational> for Rational {
    fn add_assign(&mut self, rhs: &Rational) {
        *self = &*self + rhs;
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Rational) {
        *self = &*self + &rhs;
    }
}

impl SubAssign<&Rational> for Rational {
    fn sub_assign(&mut self, rhs: &Rational) {
        *self = &*self - rhs;
    }
}

impl SubAssign for Rational {
    fn sub_assign(&mut self, rhs: Rational) {
        *self = &*self - &rhs;
    }
}

impl MulAssign<&Rational> for Rational {
    fn mul_assign(&mut self, rhs: &Rational) {
        *self = &*self * rhs;
    }
}

impl MulAssign for Rational {
    fn mul_assign(&mut self, rhs: Rational) {
        *self = &*self * &rhs;
    }
}

impl DivAssign<&Rational> for Rational {
    fn div_assign(&mut self, rhs: &Rational) {
        *self = &*self / rhs;
    }
}

impl DivAssign for Rational {
    fn div_assign(&mut self, rhs: Rational) {
        *self = &*self / &rhs;
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(mut self) -> Rational {
        self.num = -self.num;
        self
    }
}

impl Neg for &Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        -self.clone()
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den.is_one() {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl FromStr for Rational {
    type Err = ParseNumError;

    /// Parse `"a"`, `"a/b"`, or simple decimal literals like `"0.25"`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if let Some((n, d)) = s.split_once('/') {
            let num: BigInt = n.trim().parse()?;
            let den: BigInt = d.trim().parse()?;
            if den.is_zero() {
                return Err(ParseNumError {
                    message: format!("zero denominator in {s:?}"),
                });
            }
            return Ok(Rational::new(num, den));
        }
        if let Some((int_part, frac_part)) = s.split_once('.') {
            let negative = int_part.trim_start().starts_with('-');
            let int: BigInt = if int_part.is_empty() || int_part == "-" {
                BigInt::zero()
            } else {
                int_part.parse()?
            };
            if frac_part.is_empty() || !frac_part.bytes().all(|b| b.is_ascii_digit()) {
                return Err(ParseNumError {
                    message: format!("invalid decimal literal: {s:?}"),
                });
            }
            let frac: BigInt = frac_part.parse()?;
            let scale = BigInt::from(10u64).pow(frac_part.len() as u32);
            let frac_rat = Rational::new(frac, scale);
            let int_rat = Rational::from(int);
            return Ok(if negative {
                int_rat - frac_rat
            } else {
                int_rat + frac_rat
            });
        }
        Ok(Rational::from(s.parse::<BigInt>()?))
    }
}

#[cfg(feature = "serde")]
impl serde::Serialize for Rational {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(&self.to_string())
    }
}

#[cfg(feature = "serde")]
impl<'de> serde::Deserialize<'de> for Rational {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        s.parse().map_err(serde::de::Error::custom)
    }
}

/// Convenience constructor: `rat(1, 4)` is `1/4`.
#[must_use]
pub fn rat(num: i64, den: i64) -> Rational {
    Rational::from_ratio(num, den)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_normalizes_sign_and_gcd() {
        assert_eq!(rat(2, 4), rat(1, 2));
        assert_eq!(rat(-2, -4), rat(1, 2));
        assert_eq!(rat(2, -4), rat(-1, 2));
        assert_eq!(rat(0, 5), Rational::zero());
        assert_eq!(rat(6, 3), Rational::from_int(2));
        assert!(rat(6, 3).is_integer());
        assert!(!rat(1, 3).is_integer());
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = rat(1, 0);
    }

    #[test]
    fn field_operations_small_cases() {
        assert_eq!(rat(1, 2) + rat(1, 3), rat(5, 6));
        assert_eq!(rat(1, 2) - rat(1, 3), rat(1, 6));
        assert_eq!(rat(2, 3) * rat(3, 4), rat(1, 2));
        assert_eq!(rat(2, 3) / rat(4, 3), rat(1, 2));
        assert_eq!(-rat(2, 3), rat(-2, 3));
        assert_eq!(rat(2, 3).recip(), rat(3, 2));
    }

    #[test]
    fn ordering_cross_multiplies() {
        assert!(rat(1, 3) < rat(1, 2));
        assert!(rat(-1, 2) < rat(-1, 3));
        assert!(rat(7, 3) > rat(2, 1));
        assert_eq!(rat(2, 6).cmp(&rat(1, 3)), Ordering::Equal);
        assert_eq!(rat(1, 3).max(rat(1, 2)), rat(1, 2));
        assert_eq!(rat(1, 3).min(rat(1, 2)), rat(1, 3));
    }

    #[test]
    fn pow_positive_and_negative_exponents() {
        assert_eq!(rat(2, 3).pow(3), rat(8, 27));
        assert_eq!(rat(2, 3).pow(-2), rat(9, 4));
        assert_eq!(rat(5, 7).pow(0), Rational::one());
        // (1 - a^2)^(n-1) identity used by Lemma 1 for a = 1/4, n = 4.
        let a = rat(1, 4);
        let det = (Rational::one() - &a * &a).pow(3);
        assert_eq!(det, rat(3375, 4096));
    }

    #[test]
    fn display_and_parse_roundtrip() {
        for s in [
            "0",
            "1",
            "-3",
            "1/2",
            "-7/3",
            "22/7",
            "123456789012345678901/2",
        ] {
            let v: Rational = s.parse().unwrap();
            assert_eq!(v.to_string(), s);
        }
        assert_eq!("0.25".parse::<Rational>().unwrap(), rat(1, 4));
        assert_eq!("-0.5".parse::<Rational>().unwrap(), rat(-1, 2));
        assert!("2.".parse::<Rational>().is_err());
        assert!("1/0".parse::<Rational>().is_err());
        assert!("a/b".parse::<Rational>().is_err());
    }

    #[test]
    fn f64_conversions() {
        assert_eq!(rat(1, 4).to_f64(), 0.25);
        assert_eq!(rat(-3, 2).to_f64(), -1.5);
        assert!((rat(1, 3).to_f64() - 1.0 / 3.0).abs() < 1e-15);
        assert_eq!(Rational::from_f64_exact(0.25), Some(rat(1, 4)));
        assert_eq!(Rational::from_f64_exact(-2.0), Some(rat(-2, 1)));
        assert_eq!(Rational::from_f64_exact(f64::NAN), None);
        assert_eq!(Rational::from_f64_exact(f64::INFINITY), None);
        // Round-trip through the exact binary value.
        let r = Rational::from_f64_exact(0.1).unwrap();
        assert_eq!(r.to_f64(), 0.1);
    }

    #[test]
    fn rounding_floor_ceil() {
        assert_eq!(rat(7, 2).round(), BigInt::from(4i64));
        assert_eq!(rat(-7, 2).round(), BigInt::from(-4i64));
        assert_eq!(rat(1, 3).round(), BigInt::from(0i64));
        assert_eq!(rat(7, 2).floor(), BigInt::from(3i64));
        assert_eq!(rat(-7, 2).floor(), BigInt::from(-4i64));
        assert_eq!(rat(7, 2).ceil(), BigInt::from(4i64));
        assert_eq!(rat(-7, 2).ceil(), BigInt::from(-3i64));
        assert_eq!(rat(4, 2).floor(), BigInt::from(2i64));
        assert_eq!(rat(4, 2).ceil(), BigInt::from(2i64));
    }

    #[test]
    fn geometric_mass_identities() {
        // The total mass of the two-sided geometric distribution is 1:
        // (1-a)/(1+a) * (1 + 2*sum_{z>=1} a^z) = 1, checked for truncation-free
        // small cases via the closed form of the partial sums.
        let a = rat(1, 5);
        let mut partial = Rational::zero();
        for z in 1..=60 {
            partial += a.pow(z);
        }
        let approx = (Rational::one() - &a) / (Rational::one() + &a)
            * (Rational::one() + rat(2, 1) * partial);
        // With 60 terms the defect is a^60, astronomically small but nonzero:
        assert!(approx < Rational::one());
        assert!(Rational::one() - approx < rat(1, 1_000_000_000));
    }
}
