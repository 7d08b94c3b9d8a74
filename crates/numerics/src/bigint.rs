//! Arbitrary-precision signed integers.
//!
//! The representation is a sign flag plus the little-endian 64-bit limbs of
//! the magnitude. The magnitude is always normalized: no trailing zero limbs,
//! and a zero value has no limbs and [`Sign::Zero`].
//!
//! The exact LP tableaus this crate feeds spend most of their life on values
//! that fit in one or two machine words, so magnitudes of up to two limbs are
//! stored **inline** in the `BigInt` itself and only longer ones spill to a
//! heap vector. Building, cloning or dropping a one- or two-limb value never
//! touches the allocator. Every ring operation (add/sub/mul/cmp, plus gcd and
//! div_rem) takes a machine-word fast path when its operands allow, and the
//! multi-limb helpers write straight into a store sized for their result, so
//! results that shrink back to two limbs allocate nothing either. The
//! multi-limb substrate is schoolbook multiplication and Knuth Algorithm D
//! long division (TAOCP 4.3.1) — quadratic algorithms are more than fast
//! enough for the few hundred bits that arise when verifying privacy
//! mechanisms exactly.
//!
//! GCD is the cost beneath every `Rational` normalization, so it has a
//! family of its own: branch-free binary gcd on `u64`, a `u128` variant that
//! hands over to `u64` as soon as it can, one remainder step when only the
//! smaller operand fits the inline store, and Lehmer's algorithm (TAOCP
//! 4.5.2) when both are wider. Nothing in it allocates for operands of up to
//! two limbs.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Add, AddAssign, Deref, DerefMut, Div, Mul, MulAssign, Neg, Rem, Sub, SubAssign};
use std::str::FromStr;

/// Sign of a [`BigInt`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sign {
    /// Strictly negative.
    Negative,
    /// Exactly zero.
    Zero,
    /// Strictly positive.
    Positive,
}

impl Sign {
    /// Flip the sign; zero stays zero.
    #[must_use]
    pub fn negate(self) -> Sign {
        match self {
            Sign::Negative => Sign::Positive,
            Sign::Zero => Sign::Zero,
            Sign::Positive => Sign::Negative,
        }
    }

    /// Product-of-signs rule.
    #[must_use]
    #[allow(clippy::should_implement_trait)] // not an `ops::Mul` impl: takes/returns plain signs
    pub fn mul(self, other: Sign) -> Sign {
        match (self, other) {
            (Sign::Zero, _) | (_, Sign::Zero) => Sign::Zero,
            (Sign::Positive, Sign::Positive) | (Sign::Negative, Sign::Negative) => Sign::Positive,
            _ => Sign::Negative,
        }
    }
}

/// An arbitrary-precision signed integer.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BigInt {
    sign: Sign,
    /// Little-endian 64-bit limbs of the magnitude; normalized (no trailing zeros).
    limbs: Limbs,
}

/// Error returned when parsing a [`BigInt`] or
/// [`Rational`](crate::rational::Rational) from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseNumError {
    /// Human-readable description of the failure.
    pub message: String,
}

impl fmt::Display for ParseNumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error: {}", self.message)
    }
}

impl std::error::Error for ParseNumError {}

// ---------------------------------------------------------------------------
// Limb store: up to two limbs inline, longer magnitudes on the heap
// ---------------------------------------------------------------------------

/// Number of limbs a [`Limbs`] store holds without allocating.
const INLINE: usize = 2;

/// A little-endian limb buffer that derefs to `&[u64]`.
///
/// After [`Limbs::trim`] the store is canonical: no trailing zero limbs, and
/// a heap buffer only when more than [`INLINE`] limbs remain. Equality,
/// hashing and `Debug` go through the limb slice, so they never depend on
/// where the limbs live.
#[derive(Clone)]
enum Limbs {
    Inline { len: u8, buf: [u64; INLINE] },
    Heap(Vec<u64>),
}

impl Limbs {
    /// The empty store (the magnitude of zero).
    const EMPTY: Limbs = Limbs::Inline {
        len: 0,
        buf: [0; INLINE],
    };

    /// `len` zero limbs; a heap buffer reserves room for `cap` limbs.
    fn zeroed(len: usize, cap: usize) -> Limbs {
        if len <= INLINE {
            Limbs::Inline {
                len: len as u8,
                buf: [0; INLINE],
            }
        } else {
            let mut v = Vec::with_capacity(cap.max(len));
            v.resize(len, 0);
            Limbs::Heap(v)
        }
    }

    /// The normalized magnitude `v`.
    fn from_u128(v: u128) -> Limbs {
        let buf = [v as u64, (v >> 64) as u64];
        let len = if buf[1] != 0 {
            2
        } else {
            u8::from(buf[0] != 0)
        };
        Limbs::Inline { len, buf }
    }

    fn from_slice(a: &[u64]) -> Limbs {
        let mut out = if a.len() <= INLINE {
            let mut buf = [0; INLINE];
            buf[..a.len()].copy_from_slice(a);
            Limbs::Inline {
                len: a.len() as u8,
                buf,
            }
        } else {
            Limbs::Heap(a.to_vec())
        };
        out.trim();
        out
    }

    /// Take ownership of a work buffer's limbs (moved inline if short).
    fn from_vec(v: Vec<u64>) -> Limbs {
        let mut out = Limbs::Heap(v);
        out.trim();
        out
    }

    fn push(&mut self, limb: u64) {
        match self {
            Limbs::Inline { len, buf } if (*len as usize) < INLINE => {
                buf[*len as usize] = limb;
                *len += 1;
            }
            Limbs::Inline { buf, .. } => {
                let mut v = Vec::with_capacity(INLINE + 2);
                v.extend_from_slice(buf);
                v.push(limb);
                *self = Limbs::Heap(v);
            }
            Limbs::Heap(v) => v.push(limb),
        }
    }

    /// Drop trailing zero limbs and move a short heap buffer back inline.
    fn trim(&mut self) {
        match self {
            Limbs::Inline { len, buf } => {
                while *len > 0 && buf[*len as usize - 1] == 0 {
                    *len -= 1;
                }
            }
            Limbs::Heap(v) => {
                trim_vec(v);
                if v.len() <= INLINE {
                    *self = Limbs::from_slice(v);
                }
            }
        }
    }
}

impl Deref for Limbs {
    type Target = [u64];
    #[inline]
    fn deref(&self) -> &[u64] {
        match self {
            Limbs::Inline { len, buf } => &buf[..*len as usize],
            Limbs::Heap(v) => v,
        }
    }
}

impl DerefMut for Limbs {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u64] {
        match self {
            Limbs::Inline { len, buf } => &mut buf[..*len as usize],
            Limbs::Heap(v) => v,
        }
    }
}

impl PartialEq for Limbs {
    fn eq(&self, other: &Limbs) -> bool {
        **self == **other
    }
}

impl Eq for Limbs {}

impl Hash for Limbs {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl fmt::Debug for Limbs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

// ---------------------------------------------------------------------------
// Limb-level helpers (magnitude arithmetic on &[u64])
// ---------------------------------------------------------------------------

fn mag_cmp(a: &[u64], b: &[u64]) -> Ordering {
    if a.len() != b.len() {
        return a.len().cmp(&b.len());
    }
    for i in (0..a.len()).rev() {
        match a[i].cmp(&b[i]) {
            Ordering::Equal => continue,
            other => return other,
        }
    }
    Ordering::Equal
}

fn mag_add(a: &[u64], b: &[u64]) -> Limbs {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut out = Limbs::zeroed(long.len(), long.len() + 1);
    let mut carry = 0u64;
    for (i, o) in out.iter_mut().enumerate() {
        let y = short.get(i).copied().unwrap_or(0);
        let sum = long[i] as u128 + y as u128 + carry as u128;
        *o = sum as u64;
        carry = (sum >> 64) as u64;
    }
    if carry != 0 {
        out.push(carry);
    }
    out
}

/// Requires `a >= b` (as magnitudes).
fn mag_sub(a: &[u64], b: &[u64]) -> Limbs {
    debug_assert!(mag_cmp(a, b) != Ordering::Less);
    // Equal top limbs cancel (no borrow can reach them because `a >= b`), so
    // the difference fits below the highest limb where the operands differ.
    let mut len = a.len();
    while len > 0 && len == b.len() && a[len - 1] == b[len - 1] {
        len -= 1;
    }
    let (a, b) = (&a[..len], &b[..len.min(b.len())]);
    let mut out = Limbs::zeroed(len, len);
    let mut borrow = false;
    for (i, o) in out.iter_mut().enumerate() {
        let y = b.get(i).copied().unwrap_or(0);
        let (d1, b1) = a[i].overflowing_sub(y);
        let (d2, b2) = d1.overflowing_sub(u64::from(borrow));
        *o = d2;
        borrow = b1 || b2;
    }
    out.trim();
    out
}

fn mag_mul(a: &[u64], b: &[u64]) -> Limbs {
    if a.is_empty() || b.is_empty() {
        return Limbs::EMPTY;
    }
    // The product has `bits(a) + bits(b)` bits or one fewer, so this length
    // is exact or one too long — and every partial sum fits in it.
    let len = (mag_bits(a) + mag_bits(b)).div_ceil(64);
    let mut store = Limbs::zeroed(len, len);
    // Index a plain slice in the loops: indexing the store itself would
    // re-match its variant on every access.
    let out = &mut store[..];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        let mut carry = 0u128;
        for (j, &bj) in b.iter().enumerate() {
            let cur = out[i + j] as u128 + ai as u128 * bj as u128 + carry;
            out[i + j] = cur as u64;
            carry = cur >> 64;
        }
        let mut k = i + b.len();
        while carry != 0 {
            let cur = out[k] as u128 + carry;
            out[k] = cur as u64;
            carry = cur >> 64;
            k += 1;
        }
    }
    store.trim();
    store
}

/// Divide magnitude by a single limb, returning (quotient, remainder).
fn mag_div_limb(a: &[u64], d: u64) -> (Limbs, u64) {
    assert!(d != 0, "division by zero");
    let len = match a.last() {
        Some(&top) if top < d => a.len() - 1,
        _ => a.len(),
    };
    let mut store = Limbs::zeroed(len, len);
    let out = &mut store[..];
    let mut rem = 0u128;
    for i in (0..a.len()).rev() {
        let cur = (rem << 64) | a[i] as u128;
        if i < len {
            out[i] = (cur / d as u128) as u64;
        }
        rem = cur % d as u128;
    }
    store.trim();
    (store, rem as u64)
}

/// Write `a << bits` into `out`, which must be zeroed and long enough to
/// hold the shifted value.
fn shl_into(out: &mut [u64], a: &[u64], bits: usize) {
    let limb_shift = bits / 64;
    let bit_shift = bits % 64;
    for (i, &x) in a.iter().enumerate() {
        if bit_shift == 0 {
            out[i + limb_shift] = x;
        } else {
            out[i + limb_shift] |= x << bit_shift;
            let high = x >> (64 - bit_shift);
            match out.get_mut(i + limb_shift + 1) {
                Some(o) => *o = high,
                None => debug_assert_eq!(high, 0, "shl_into output too short"),
            }
        }
    }
}

fn mag_shl(a: &[u64], bits: usize) -> Limbs {
    if a.is_empty() {
        return Limbs::EMPTY;
    }
    let len = (mag_bits(a) + bits).div_ceil(64);
    let mut out = Limbs::zeroed(len, len);
    shl_into(&mut out, a, bits);
    out
}

/// The magnitude as a `u128`; only meaningful for at most two limbs.
#[inline]
fn mag_u128(a: &[u64]) -> u128 {
    debug_assert!(a.len() <= INLINE);
    match *a {
        [] => 0,
        [lo] => lo as u128,
        [lo, hi, ..] => lo as u128 | (hi as u128) << 64,
    }
}

fn mag_bits(a: &[u64]) -> usize {
    match a.last() {
        None => 0,
        Some(&top) => 64 * (a.len() - 1) + (64 - top.leading_zeros() as usize),
    }
}

/// Drop trailing zero limbs of a work buffer.
fn trim_vec(limbs: &mut Vec<u64>) {
    while limbs.last() == Some(&0) {
        limbs.pop();
    }
}

/// Shift a magnitude right by `bits` in place (arbitrary shift counts).
fn mag_shr_in_place(a: &mut Vec<u64>, bits: usize) {
    let limb_shift = bits / 64;
    let bit_shift = bits % 64;
    if limb_shift >= a.len() {
        a.clear();
        return;
    }
    if limb_shift > 0 {
        a.drain(..limb_shift);
    }
    if bit_shift > 0 {
        let len = a.len();
        for i in 0..len {
            let mut v = a[i] >> bit_shift;
            if i + 1 < len {
                v |= a[i + 1] << (64 - bit_shift);
            }
            a[i] = v;
        }
    }
    trim_vec(a);
}

/// Number of trailing zero bits of a non-zero magnitude.
fn mag_trailing_zeros(a: &[u64]) -> usize {
    for (i, &l) in a.iter().enumerate() {
        if l != 0 {
            return i * 64 + l.trailing_zeros() as usize;
        }
    }
    0
}

/// Binary GCD on machine words.
///
/// Both operands' twos are stripped up front; each round then replaces the
/// pair by its smaller member and the odd part of the difference. The
/// `min`/`max` select compiles to conditional moves, so the only branch per
/// round is the loop test.
pub(crate) fn u64_gcd(a: u64, b: u64) -> u64 {
    if a == 0 || b == 0 {
        return a | b;
    }
    let shift = (a | b).trailing_zeros();
    let (mut a, mut b) = (a >> a.trailing_zeros(), b >> b.trailing_zeros());
    while a != b {
        let (lo, hi) = (a.min(b), a.max(b));
        let d = hi - lo;
        a = lo;
        b = d >> d.trailing_zeros();
    }
    a << shift
}

/// GCD on `u128` magnitudes, finished on machine words.
///
/// Operands that both fit a `u64` go straight to [`u64_gcd`]. When only the
/// smaller one fits, one `%` brings the larger below it. When both are
/// wider, binary steps run in `u128` only until the smaller fits a `u64`,
/// and the same single `%` finishes the reduction.
pub(crate) fn u128_gcd(a: u128, b: u128) -> u128 {
    let (lo, hi) = (a.min(b), a.max(b));
    if hi >> 64 == 0 {
        return u64_gcd(lo as u64, hi as u64).into();
    }
    if lo == 0 {
        return hi;
    }
    if lo >> 64 == 0 {
        return u128_gcd_by_word(lo, hi);
    }
    let shift = (lo | hi).trailing_zeros();
    let (x, y) = (lo >> lo.trailing_zeros(), hi >> hi.trailing_zeros());
    // Both odd from here on, so the gcd is odd and `shift` restores the twos.
    let (mut lo, mut hi) = (x.min(y), x.max(y));
    while lo >> 64 != 0 {
        let d = hi - lo;
        if d == 0 {
            return lo << shift;
        }
        let d = d >> d.trailing_zeros();
        (lo, hi) = (lo.min(d), lo.max(d));
    }
    u128_gcd_by_word(lo, hi) << shift
}

/// `gcd(lo, hi)` for a nonzero `lo < 2⁶⁴ ≤ hi`: one remainder, then words.
fn u128_gcd_by_word(lo: u128, hi: u128) -> u128 {
    u64_gcd(lo as u64, (hi % lo) as u64).into()
}

/// Remainder of a magnitude modulo one nonzero limb, without allocating.
fn mag_rem_limb(a: &[u64], d: u64) -> u64 {
    a.iter().rev().fold(0, |rem, &limb| {
        (((u128::from(rem) << 64) | u128::from(limb)) % u128::from(d)) as u64
    })
}

/// `gcd(big, small)` for magnitudes `big ≥ small` with `small` at most two
/// limbs: one remainder brings `big` below `small` (a single-limb fold for
/// a one-limb `small`, Algorithm D for a two-limb one), and the word paths
/// finish.
fn gcd_by_remainder(big: &[u64], small: &[u64]) -> BigInt {
    debug_assert!(small.len() <= INLINE && mag_cmp(big, small) != Ordering::Less);
    let g = match *small {
        [] => return BigInt::from_parts(Sign::Positive, Limbs::from_slice(big)),
        [d] => u64_gcd(d, mag_rem_limb(big, d)).into(),
        _ if big.len() <= INLINE => u128_gcd(mag_u128(big), mag_u128(small)),
        _ => {
            let (_, r) = mag_divrem(big, small);
            u128_gcd(mag_u128(small), mag_u128(&r))
        }
    };
    BigInt::from(g)
}

/// Width of the leading chunks Lehmer's inner loop runs on. Below 63 bits,
/// so the chunk plus a cofactor never overflows an `i64`.
const LEHMER_BITS: usize = 62;

/// Cofactors stay below this magnitude, so that one limb times a cofactor,
/// plus the other limb times the opposite-signed cofactor, fits an `i128`.
const LEHMER_COFACTOR_LIMIT: u64 = 1 << LEHMER_BITS;

/// Bits `[h, h + 64)` of a magnitude (limbs past the end read as zero).
fn bits_at(a: &[u64], h: usize) -> u64 {
    let (limb, off) = (h / 64, h % 64);
    let lo = u128::from(a.get(limb).copied().unwrap_or(0));
    let hi = u128::from(a.get(limb + 1).copied().unwrap_or(0));
    (((hi << 64) | lo) >> off) as u64
}

/// The single-precision part of Lehmer's algorithm (Knuth's Algorithm L,
/// TAOCP 4.5.2): run Euclid on the leading chunks `x ≥ y` for as long as
/// the quotient is the same at both ends of the interval that the dropped
/// low bits leave open, and return the cofactor matrix `[A, B, C, D]` of the
/// steps taken. `B = 0` means not even the first quotient was certain.
fn lehmer_cofactors(mut x: i64, mut y: i64) -> [i64; 4] {
    let (mut a, mut b, mut c, mut d) = (1i64, 0i64, 0i64, 1i64);
    while y + c > 0 && y + d > 0 {
        let q = (x + a) / (y + c);
        if q != (x + b) / (y + d) {
            break;
        }
        // One Euclid step, `(p, r) ← (r, p − q·r)` on each pair; a step
        // that would overflow or outgrow the cofactor bound is not taken.
        let step = |p: i64, r: i64| q.checked_mul(r).and_then(|qr| p.checked_sub(qr));
        let bounded = |v: i64| v.unsigned_abs() < LEHMER_COFACTOR_LIMIT;
        let (Some(nc), Some(nd), Some(ny)) = (step(a, c), step(b, d), step(x, y)) else {
            break;
        };
        if !bounded(nc) || !bounded(nd) {
            break;
        }
        (a, b, c, d) = (c, d, nc, nd);
        (x, y) = (y, ny);
    }
    [a, b, c, d]
}

/// `(a, b) ← (A·a + B·b, C·a + D·b)` in place, for a Lehmer cofactor matrix
/// (`A` and `B`, like `C` and `D`, have opposite signs or one is zero, and
/// every cofactor is below [`LEHMER_COFACTOR_LIMIT`]) whose results are
/// known to be non-negative: they are the next two Euclid remainders.
fn lehmer_update(a: &mut Vec<u64>, b: &mut Vec<u64>, [ca, cb, cc, cd]: [i64; 4]) {
    b.resize(a.len(), 0);
    let (mut carry_a, mut carry_b) = (0i128, 0i128);
    for (x, y) in a.iter_mut().zip(b.iter_mut()) {
        let (u, v) = (i128::from(*x), i128::from(*y));
        let t = carry_a + i128::from(ca) * u + i128::from(cb) * v;
        let w = carry_b + i128::from(cc) * u + i128::from(cd) * v;
        (*x, *y) = (t as u64, w as u64);
        (carry_a, carry_b) = (t >> 64, w >> 64);
    }
    debug_assert!(carry_a == 0 && carry_b == 0, "Lehmer step left the range");
    trim_vec(a);
    trim_vec(b);
}

/// GCD of magnitudes `a ≥ b` that both span more than two limbs, by
/// Lehmer's algorithm: each round advances Euclid by the quotients the
/// leading [`LEHMER_BITS`] bits determine, applied as one linear
/// combination over the limbs (or, when no quotient is certain, one long
/// division). Once `b` fits two limbs the word paths take over.
fn lehmer_gcd(a: &[u64], b: &[u64]) -> BigInt {
    let (mut a, mut b) = (a.to_vec(), b.to_vec());
    while b.len() > INLINE {
        let h = mag_bits(&a) - LEHMER_BITS;
        let cofactors = lehmer_cofactors(bits_at(&a, h) as i64, bits_at(&b, h) as i64);
        if cofactors[1] == 0 {
            let (_, r) = mag_divrem(&a, &b);
            a = std::mem::replace(&mut b, r.to_vec());
        } else {
            lehmer_update(&mut a, &mut b, cofactors);
        }
    }
    gcd_by_remainder(&a, &b)
}

/// Long division on magnitudes via Knuth's Algorithm D (TAOCP 4.3.1) with
/// 64-bit limbs. Returns (quotient, remainder). The previous implementation
/// was a bit-by-bit shift/subtract loop — O(bits · limbs) with an allocation
/// per bit — which dominated exact-LP profiles through `Rational`
/// normalization; Algorithm D is O(limbs²) with no per-step allocation.
fn mag_divrem(a: &[u64], b: &[u64]) -> (Limbs, Limbs) {
    assert!(!b.is_empty(), "division by zero");
    if mag_cmp(a, b) == Ordering::Less {
        return (Limbs::EMPTY, Limbs::from_slice(a));
    }
    if b.len() == 1 {
        let (q, r) = mag_div_limb(a, b[0]);
        return (q, Limbs::from_u128(r as u128));
    }

    // Normalize so the divisor's top limb has its high bit set; this keeps
    // the 2-limb quotient estimate within one of the true digit.
    let shift = b.last().expect("non-empty divisor").leading_zeros() as usize;
    let n = b.len();
    let mut bn_store = Limbs::zeroed(n, n);
    shl_into(&mut bn_store, b, shift);
    // The digit loop indexes plain slices, not the stores.
    let bn = &bn_store[..];
    let mut an = vec![0u64; a.len() + 1];
    shl_into(&mut an, a, shift);

    let m = an.len() - n; // number of quotient digits
    let top = bn[n - 1] as u128;
    let next = bn[n - 2] as u128;
    let mut q = Limbs::zeroed(m, m);
    let digits = &mut q[..];

    for j in (0..m).rev() {
        // Estimate the quotient digit from the top limbs.
        let num = ((an[j + n] as u128) << 64) | an[j + n - 1] as u128;
        let mut qhat = num / top;
        let mut rhat = num % top;
        while qhat >> 64 != 0 || qhat * next > ((rhat << 64) | an[j + n - 2] as u128) {
            qhat -= 1;
            rhat += top;
            if rhat >> 64 != 0 {
                break;
            }
        }

        // an[j..=j+n] -= qhat * bn
        let mut mul_carry: u128 = 0;
        let mut borrow: u64 = 0;
        for i in 0..n {
            let p = qhat * bn[i] as u128 + mul_carry;
            mul_carry = p >> 64;
            let (d1, b1) = an[j + i].overflowing_sub(p as u64);
            let (d2, b2) = d1.overflowing_sub(borrow);
            an[j + i] = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
        let (d1, b1) = an[j + n].overflowing_sub(mul_carry as u64);
        let (d2, b2) = d1.overflowing_sub(borrow);
        an[j + n] = d2;

        if b1 || b2 {
            // The estimate was one too large (rare): add the divisor back.
            qhat -= 1;
            let mut carry: u128 = 0;
            for i in 0..n {
                let s = an[j + i] as u128 + bn[i] as u128 + carry;
                an[j + i] = s as u64;
                carry = s >> 64;
            }
            an[j + n] = an[j + n].wrapping_add(carry as u64);
        }
        digits[j] = qhat as u64;
    }

    // The remainder is the low `n` limbs of `an`, shifted back down; reuse
    // the dividend's buffer for it.
    an.truncate(n);
    trim_vec(&mut an);
    mag_shr_in_place(&mut an, shift);
    q.trim();
    (q, Limbs::from_vec(an))
}

// ---------------------------------------------------------------------------
// BigInt public API
// ---------------------------------------------------------------------------

impl BigInt {
    /// The integer 0.
    #[must_use]
    pub fn zero() -> BigInt {
        BigInt {
            sign: Sign::Zero,
            limbs: Limbs::EMPTY,
        }
    }

    /// The integer 1.
    #[must_use]
    pub fn one() -> BigInt {
        BigInt::from(1i64)
    }

    /// Construct from a sign and raw little-endian limbs (normalizing).
    #[must_use]
    pub fn from_sign_limbs(sign: Sign, limbs: Vec<u64>) -> BigInt {
        BigInt::from_parts(sign, Limbs::from_vec(limbs))
    }

    /// Construct from a sign and an already-trimmed limb store.
    fn from_parts(sign: Sign, limbs: Limbs) -> BigInt {
        debug_assert!(limbs.last() != Some(&0), "untrimmed limb store");
        if limbs.is_empty() {
            return BigInt::zero();
        }
        let sign = if sign == Sign::Zero {
            Sign::Positive
        } else {
            sign
        };
        BigInt { sign, limbs }
    }

    /// The sign of this integer.
    #[must_use]
    pub fn sign(&self) -> Sign {
        self.sign
    }

    /// True iff the value is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.sign == Sign::Zero
    }

    /// True iff the value is one.
    #[must_use]
    pub fn is_one(&self) -> bool {
        self.sign == Sign::Positive && *self.limbs == [1]
    }

    /// True iff the value is strictly negative.
    #[must_use]
    pub fn is_negative(&self) -> bool {
        self.sign == Sign::Negative
    }

    /// True iff the value is strictly positive.
    #[must_use]
    pub fn is_positive(&self) -> bool {
        self.sign == Sign::Positive
    }

    /// Absolute value.
    #[must_use]
    pub fn abs(&self) -> BigInt {
        if self.sign == Sign::Negative {
            BigInt {
                sign: Sign::Positive,
                limbs: self.limbs.clone(),
            }
        } else {
            self.clone()
        }
    }

    /// Number of significant bits of the magnitude (0 for zero).
    #[must_use]
    pub fn bit_length(&self) -> usize {
        mag_bits(&self.limbs)
    }

    /// Shift the magnitude left by `bits` (sign preserved).
    #[must_use]
    pub fn shl_bits(&self, bits: usize) -> BigInt {
        BigInt::from_parts(self.sign, mag_shl(&self.limbs, bits))
    }

    /// Shift the magnitude right by `bits` (truncating towards zero in magnitude).
    #[must_use]
    pub fn shr_bits(&self, bits: usize) -> BigInt {
        let total = self.bit_length();
        if bits >= total {
            return BigInt::zero();
        }
        let limb_shift = bits / 64;
        let bit_shift = bits % 64;
        let len = (total - bits).div_ceil(64);
        let src = &self.limbs[..];
        let mut out = Limbs::zeroed(len, len);
        for (i, o) in out.iter_mut().enumerate() {
            let j = i + limb_shift;
            let mut v = src[j] >> bit_shift;
            if bit_shift != 0 {
                if let Some(&high) = src.get(j + 1) {
                    v |= high << (64 - bit_shift);
                }
            }
            *o = v;
        }
        BigInt::from_parts(self.sign, out)
    }

    /// Euclidean division returning `(quotient, remainder)` with
    /// `self = quotient * divisor + remainder` and the remainder having the
    /// sign of `self` (truncated division, like Rust's `/` and `%` on
    /// primitive integers).
    ///
    /// # Panics
    /// Panics if `divisor` is zero.
    #[must_use]
    pub fn div_rem(&self, divisor: &BigInt) -> (BigInt, BigInt) {
        assert!(!divisor.is_zero(), "BigInt division by zero");
        let q_sign = self.sign.mul(divisor.sign);
        let r_sign = self.sign;
        // Inline fast paths: machine division on one or two limbs.
        let (q_mag, r_mag) = if self.limbs.len() <= 1 && divisor.limbs.len() <= 1 {
            let a = self.limbs.first().copied().unwrap_or(0);
            let d = divisor.limbs[0];
            (
                Limbs::from_u128((a / d).into()),
                Limbs::from_u128((a % d).into()),
            )
        } else if self.limbs.len() <= INLINE && divisor.limbs.len() <= INLINE {
            let (a, d) = (mag_u128(&self.limbs), mag_u128(&divisor.limbs));
            (Limbs::from_u128(a / d), Limbs::from_u128(a % d))
        } else {
            mag_divrem(&self.limbs, &divisor.limbs)
        };
        (
            BigInt::from_parts(q_sign, q_mag),
            BigInt::from_parts(r_sign, r_mag),
        )
    }

    /// Greatest common divisor of the magnitudes (always non-negative).
    ///
    /// Dispatch is by the smaller operand's width, and nothing here
    /// allocates unless the larger operand already lives on the heap:
    /// - both one limb: branch-free binary gcd on `u64`;
    /// - smaller operand of one limb: a single-limb remainder of the larger,
    ///   then `u64`;
    /// - smaller operand of two limbs: one remainder (none if the larger is
    ///   two limbs too), then the `u128` path, which itself finishes in `u64`;
    /// - both wider: Lehmer's algorithm until the smaller fits two limbs.
    #[must_use]
    pub fn gcd(&self, other: &BigInt) -> BigInt {
        let (a, b) = (&self.limbs[..], &other.limbs[..]);
        if let ([x], [y]) = (a, b) {
            return BigInt::from(u64_gcd(*x, *y));
        }
        let (big, small) = if mag_cmp(a, b) == Ordering::Less {
            (b, a)
        } else {
            (a, b)
        };
        if small.len() > INLINE {
            lehmer_gcd(big, small)
        } else {
            gcd_by_remainder(big, small)
        }
    }

    /// Number of trailing zero bits of the magnitude (0 for zero).
    #[must_use]
    pub fn trailing_zeros(&self) -> usize {
        mag_trailing_zeros(&self.limbs)
    }

    /// Raise to a non-negative integer power.
    #[must_use]
    pub fn pow(&self, mut exp: u32) -> BigInt {
        let mut base = self.clone();
        let mut acc = BigInt::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = &acc * &base;
            }
            base = &base * &base;
            exp >>= 1;
        }
        acc
    }

    /// Convert to `i64` if the value fits.
    #[must_use]
    pub fn to_i64(&self) -> Option<i64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => {
                let mag = self.limbs[0];
                match self.sign {
                    Sign::Positive => i64::try_from(mag).ok(),
                    Sign::Negative => {
                        if mag <= i64::MAX as u64 + 1 {
                            Some(-(mag as i128) as i64)
                        } else {
                            None
                        }
                    }
                    Sign::Zero => Some(0),
                }
            }
            _ => None,
        }
    }

    /// Convert to `i128` if the value fits.
    #[must_use]
    pub fn to_i128(&self) -> Option<i128> {
        if self.limbs.len() > 2 {
            return None;
        }
        let mut mag: u128 = 0;
        for (i, &l) in self.limbs.iter().enumerate() {
            mag |= (l as u128) << (64 * i);
        }
        match self.sign {
            Sign::Zero => Some(0),
            Sign::Positive => i128::try_from(mag).ok(),
            Sign::Negative => {
                if mag <= i128::MAX as u128 + 1 {
                    Some(mag.wrapping_neg() as i128)
                } else {
                    None
                }
            }
        }
    }

    /// Best-effort conversion to `f64` (may lose precision; never panics).
    #[must_use]
    pub fn to_f64(&self) -> f64 {
        let bits = self.bit_length();
        let val = if bits <= 64 {
            self.limbs.first().copied().unwrap_or(0) as f64
        } else {
            // Take the top 64 bits and scale.
            let shift = bits - 64;
            let top = self.shr_bits(shift);
            let mantissa = top.limbs.first().copied().unwrap_or(0) as f64;
            mantissa * 2f64.powi(shift as i32)
        };
        match self.sign {
            Sign::Negative => -val,
            _ => val,
        }
    }
}

impl Default for BigInt {
    fn default() -> Self {
        BigInt::zero()
    }
}

macro_rules! impl_from_signed {
    ($($t:ty),*) => {$(
        impl From<$t> for BigInt {
            fn from(v: $t) -> BigInt {
                let v = v as i128;
                let sign = match v.cmp(&0) {
                    Ordering::Less => Sign::Negative,
                    Ordering::Equal => Sign::Zero,
                    Ordering::Greater => Sign::Positive,
                };
                BigInt { sign, limbs: Limbs::from_u128(v.unsigned_abs()) }
            }
        }
    )*};
}

macro_rules! impl_from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for BigInt {
            fn from(v: $t) -> BigInt {
                BigInt::from_parts(Sign::Positive, Limbs::from_u128(v as u128))
            }
        }
    )*};
}

impl_from_signed!(i8, i16, i32, i64, i128, isize);
impl_from_unsigned!(u8, u16, u32, u64, u128, usize);

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigInt {
    fn cmp(&self, other: &Self) -> Ordering {
        use Sign::*;
        match (self.sign, other.sign) {
            (Negative, Negative) => mag_cmp(&other.limbs, &self.limbs),
            (Negative, _) => Ordering::Less,
            (Zero, Negative) => Ordering::Greater,
            (Zero, Zero) => Ordering::Equal,
            (Zero, Positive) => Ordering::Less,
            (Positive, Positive) => mag_cmp(&self.limbs, &other.limbs),
            (Positive, _) => Ordering::Greater,
        }
    }
}

// Arithmetic on references; owned variants delegate.
//
// All three ring operations take a **small-value fast path** when both
// operands fit in a single limb: the arithmetic happens in one or two machine
// operations on `i128`/`u128` before falling back to the general limb loops.
// LP tableaus over `Rational` spend most of their life in exactly this regime,
// so the fast path is the difference between a pivot being a handful of ALU
// instructions and a tour through heap-allocating vector code.

impl BigInt {
    /// Signed `i128` view of a value known to fit in one limb.
    #[inline]
    fn small_i128(&self) -> i128 {
        let mag = self.limbs.first().copied().unwrap_or(0) as i128;
        match self.sign {
            Sign::Negative => -mag,
            _ => mag,
        }
    }
}

impl Add for &BigInt {
    type Output = BigInt;
    fn add(self, rhs: &BigInt) -> BigInt {
        if self.limbs.len() <= 1 && rhs.limbs.len() <= 1 {
            return BigInt::from(self.small_i128() + rhs.small_i128());
        }
        match (self.sign, rhs.sign) {
            (Sign::Zero, _) => rhs.clone(),
            (_, Sign::Zero) => self.clone(),
            (a, b) if a == b => BigInt::from_parts(a, mag_add(&self.limbs, &rhs.limbs)),
            _ => {
                // Different signs: subtract smaller magnitude from larger.
                match mag_cmp(&self.limbs, &rhs.limbs) {
                    Ordering::Equal => BigInt::zero(),
                    Ordering::Greater => {
                        BigInt::from_parts(self.sign, mag_sub(&self.limbs, &rhs.limbs))
                    }
                    Ordering::Less => {
                        BigInt::from_parts(rhs.sign, mag_sub(&rhs.limbs, &self.limbs))
                    }
                }
            }
        }
    }
}

impl Sub for &BigInt {
    type Output = BigInt;
    fn sub(self, rhs: &BigInt) -> BigInt {
        if self.limbs.len() <= 1 && rhs.limbs.len() <= 1 {
            return BigInt::from(self.small_i128() - rhs.small_i128());
        }
        // Mirror of addition with the right-hand sign flipped, without
        // materializing a negated clone of `rhs`.
        match (self.sign, rhs.sign) {
            (_, Sign::Zero) => self.clone(),
            (Sign::Zero, _) => {
                let mut out = rhs.clone();
                out.sign = out.sign.negate();
                out
            }
            (a, b) if a != b => BigInt::from_parts(a, mag_add(&self.limbs, &rhs.limbs)),
            _ => match mag_cmp(&self.limbs, &rhs.limbs) {
                Ordering::Equal => BigInt::zero(),
                Ordering::Greater => {
                    BigInt::from_parts(self.sign, mag_sub(&self.limbs, &rhs.limbs))
                }
                Ordering::Less => {
                    BigInt::from_parts(self.sign.negate(), mag_sub(&rhs.limbs, &self.limbs))
                }
            },
        }
    }
}

impl Mul for &BigInt {
    type Output = BigInt;
    fn mul(self, rhs: &BigInt) -> BigInt {
        if self.limbs.len() <= 1 && rhs.limbs.len() <= 1 {
            let mag = self.limbs.first().copied().unwrap_or(0) as u128
                * rhs.limbs.first().copied().unwrap_or(0) as u128;
            return BigInt::from_parts(self.sign.mul(rhs.sign), Limbs::from_u128(mag));
        }
        BigInt::from_parts(self.sign.mul(rhs.sign), mag_mul(&self.limbs, &rhs.limbs))
    }
}

impl Div for &BigInt {
    type Output = BigInt;
    fn div(self, rhs: &BigInt) -> BigInt {
        self.div_rem(rhs).0
    }
}

impl Rem for &BigInt {
    type Output = BigInt;
    fn rem(self, rhs: &BigInt) -> BigInt {
        self.div_rem(rhs).1
    }
}

macro_rules! forward_owned_binop {
    ($trait:ident, $method:ident) => {
        impl $trait for BigInt {
            type Output = BigInt;
            fn $method(self, rhs: BigInt) -> BigInt {
                (&self).$method(&rhs)
            }
        }
        impl $trait<&BigInt> for BigInt {
            type Output = BigInt;
            fn $method(self, rhs: &BigInt) -> BigInt {
                (&self).$method(rhs)
            }
        }
        impl $trait<BigInt> for &BigInt {
            type Output = BigInt;
            fn $method(self, rhs: BigInt) -> BigInt {
                self.$method(&rhs)
            }
        }
    };
}

forward_owned_binop!(Add, add);
forward_owned_binop!(Sub, sub);
forward_owned_binop!(Mul, mul);
forward_owned_binop!(Div, div);
forward_owned_binop!(Rem, rem);

impl AddAssign<&BigInt> for BigInt {
    fn add_assign(&mut self, rhs: &BigInt) {
        *self = &*self + rhs;
    }
}

impl AddAssign for BigInt {
    fn add_assign(&mut self, rhs: BigInt) {
        *self = &*self + &rhs;
    }
}

impl SubAssign<&BigInt> for BigInt {
    fn sub_assign(&mut self, rhs: &BigInt) {
        *self = &*self - rhs;
    }
}

impl SubAssign for BigInt {
    fn sub_assign(&mut self, rhs: BigInt) {
        *self = &*self - &rhs;
    }
}

impl MulAssign<&BigInt> for BigInt {
    fn mul_assign(&mut self, rhs: &BigInt) {
        *self = &*self * rhs;
    }
}

impl MulAssign for BigInt {
    fn mul_assign(&mut self, rhs: BigInt) {
        *self = &*self * &rhs;
    }
}

impl Neg for BigInt {
    type Output = BigInt;
    fn neg(mut self) -> BigInt {
        self.sign = self.sign.negate();
        self
    }
}

impl Neg for &BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        -self.clone()
    }
}

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut digits = Vec::new();
        let mut mag = self.limbs.clone();
        // Peel off 19 decimal digits at a time (10^19 < 2^64).
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        while !mag.is_empty() {
            let (q, r) = mag_div_limb(&mag, CHUNK);
            digits.push(r);
            mag = q;
        }
        let mut s = String::new();
        if self.sign == Sign::Negative {
            s.push('-');
        }
        s.push_str(&digits.pop().unwrap_or(0).to_string());
        while let Some(d) = digits.pop() {
            s.push_str(&format!("{d:019}"));
        }
        write!(f, "{s}")
    }
}

impl FromStr for BigInt {
    type Err = ParseNumError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s.is_empty() {
            return Err(ParseNumError {
                message: "empty string".to_string(),
            });
        }
        let (negative, digits) = match s.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, s.strip_prefix('+').unwrap_or(s)),
        };
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return Err(ParseNumError {
                message: format!("invalid integer literal: {s:?}"),
            });
        }
        let mut acc = BigInt::zero();
        let ten = BigInt::from(10u64);
        for b in digits.bytes() {
            acc = &acc * &ten + BigInt::from((b - b'0') as u64);
        }
        if negative {
            acc = -acc;
        }
        Ok(acc)
    }
}

#[cfg(feature = "serde")]
impl serde::Serialize for BigInt {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(&self.to_string())
    }
}

#[cfg(feature = "serde")]
impl<'de> serde::Deserialize<'de> for BigInt {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        s.parse().map_err(serde::de::Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bi(v: i128) -> BigInt {
        BigInt::from(v)
    }

    #[test]
    fn limb_store_spills_and_returns_inline() {
        let hash = |l: &Limbs| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            l.hash(&mut h);
            h.finish()
        };
        let mut l = Limbs::from_u128(u128::MAX);
        l.push(7);
        assert!(matches!(l, Limbs::Heap(_)));
        assert_eq!(*l, [u64::MAX, u64::MAX, 7]);
        l[2] = 0;
        l.trim();
        assert!(matches!(l, Limbs::Inline { len: 2, .. }));
        // Trimming an inline store shortens it to its live limbs.
        l[1] = 0;
        l.trim();
        assert!(matches!(l, Limbs::Inline { len: 1, .. }));
        assert_eq!(mag_u128(&l), u64::MAX as u128);
        l[0] = 0;
        l.trim();
        assert!(l.is_empty());
        // Equality and hashing see the limbs, not where they live.
        let heap = Limbs::Heap(vec![5, 6]);
        let inline = Limbs::from_slice(&[5, 6, 0]);
        assert!(matches!(inline, Limbs::Inline { len: 2, .. }));
        assert_eq!(heap, inline);
        assert_eq!(hash(&heap), hash(&inline));
        assert_eq!(format!("{heap:?}"), format!("{inline:?}"));
    }

    #[test]
    fn zero_and_one_basics() {
        assert!(BigInt::zero().is_zero());
        assert!(BigInt::one().is_one());
        assert!(!BigInt::one().is_zero());
        assert_eq!(BigInt::zero(), BigInt::from(0i64));
        assert_eq!(BigInt::default(), BigInt::zero());
    }

    #[test]
    fn from_primitives_roundtrip_small() {
        for v in [-3i64, -1, 0, 1, 2, 41, i64::MAX, i64::MIN + 1] {
            assert_eq!(BigInt::from(v).to_i64(), Some(v));
        }
        assert_eq!(BigInt::from(u64::MAX).to_i128(), Some(u64::MAX as i128));
    }

    #[test]
    fn addition_and_subtraction_mixed_signs() {
        assert_eq!(bi(5) + bi(7), bi(12));
        assert_eq!(bi(5) + bi(-7), bi(-2));
        assert_eq!(bi(-5) + bi(7), bi(2));
        assert_eq!(bi(-5) + bi(-7), bi(-12));
        assert_eq!(bi(5) - bi(7), bi(-2));
        assert_eq!(bi(7) - bi(7), bi(0));
        assert_eq!(bi(0) - bi(7), bi(-7));
    }

    #[test]
    fn multiplication_signs_and_carry() {
        assert_eq!(bi(6) * bi(7), bi(42));
        assert_eq!(bi(-6) * bi(7), bi(-42));
        assert_eq!(bi(-6) * bi(-7), bi(42));
        assert_eq!(bi(0) * bi(123456), bi(0));
        let big = BigInt::from(u64::MAX) * BigInt::from(u64::MAX);
        assert_eq!(
            big.to_string(),
            "340282366920938463426481119284349108225" // (2^64-1)^2
        );
    }

    #[test]
    fn division_truncates_towards_zero() {
        assert_eq!(bi(7).div_rem(&bi(2)), (bi(3), bi(1)));
        assert_eq!(bi(-7).div_rem(&bi(2)), (bi(-3), bi(-1)));
        assert_eq!(bi(7).div_rem(&bi(-2)), (bi(-3), bi(1)));
        assert_eq!(bi(-7).div_rem(&bi(-2)), (bi(3), bi(-1)));
        assert_eq!(bi(6) / bi(3), bi(2));
        assert_eq!(bi(6) % bi(4), bi(2));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = bi(1).div_rem(&bi(0));
    }

    #[test]
    fn multi_limb_division() {
        let a: BigInt = "123456789012345678901234567890123456789".parse().unwrap();
        let b: BigInt = "9876543210987654321".parse().unwrap();
        let (q, r) = a.div_rem(&b);
        assert_eq!(&q * &b + &r, a);
        assert!(r < b);
        assert!(!r.is_negative());
    }

    #[test]
    fn display_and_parse_roundtrip() {
        for s in [
            "0",
            "1",
            "-1",
            "18446744073709551616",
            "-340282366920938463463374607431768211456",
            "99999999999999999999999999999999999999999999",
        ] {
            let v: BigInt = s.parse().unwrap();
            assert_eq!(v.to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<BigInt>().is_err());
        assert!("abc".parse::<BigInt>().is_err());
        assert!("12x3".parse::<BigInt>().is_err());
        assert!("-".parse::<BigInt>().is_err());
        assert!("1.5".parse::<BigInt>().is_err());
    }

    #[test]
    fn ordering_is_total_and_sign_aware() {
        assert!(bi(-10) < bi(-2));
        assert!(bi(-2) < bi(0));
        assert!(bi(0) < bi(3));
        assert!(bi(3) < bi(10));
        let big: BigInt = "99999999999999999999999999".parse().unwrap();
        assert!(bi(5) < big);
        assert!(-big.clone() < bi(5));
    }

    #[test]
    fn gcd_matches_euclid_examples() {
        assert_eq!(bi(12).gcd(&bi(18)), bi(6));
        assert_eq!(bi(-12).gcd(&bi(18)), bi(6));
        assert_eq!(bi(0).gcd(&bi(5)), bi(5));
        assert_eq!(bi(5).gcd(&bi(0)), bi(5));
        assert_eq!(bi(17).gcd(&bi(13)), bi(1));
        let a: BigInt = "123456789012345678901234567890".parse().unwrap();
        let b: BigInt = "9876543210".parse().unwrap();
        let g = a.gcd(&b);
        assert_eq!((&a % &g), BigInt::zero());
        assert_eq!((&b % &g), BigInt::zero());
    }

    #[test]
    fn pow_small_cases() {
        assert_eq!(bi(2).pow(10), bi(1024));
        assert_eq!(bi(-2).pow(3), bi(-8));
        assert_eq!(bi(7).pow(0), bi(1));
        assert_eq!(bi(0).pow(5), bi(0));
        assert_eq!(bi(10).pow(25).to_string(), format!("1{}", "0".repeat(25)));
    }

    #[test]
    fn shifts_are_multiplication_by_powers_of_two() {
        assert_eq!(bi(5).shl_bits(3), bi(40));
        assert_eq!(bi(40).shr_bits(3), bi(5));
        assert_eq!(bi(41).shr_bits(3), bi(5));
        assert_eq!(bi(1).shl_bits(130).shr_bits(130), bi(1));
        assert_eq!(bi(0).shl_bits(64), bi(0));
    }

    #[test]
    fn bit_length_and_trailing_zeros() {
        assert_eq!(bi(0).bit_length(), 0);
        assert_eq!(bi(1).bit_length(), 1);
        assert_eq!(bi(255).bit_length(), 8);
        assert_eq!(bi(256).bit_length(), 9);
        assert_eq!(bi(256).trailing_zeros(), 8);
        assert_eq!(bi(12).trailing_zeros(), 2);
    }

    #[test]
    fn to_f64_is_close_for_large_values() {
        let v: BigInt = "123456789012345678901234567890".parse().unwrap();
        let f = v.to_f64();
        let expected = 1.2345678901234568e29;
        assert!((f - expected).abs() / expected < 1e-12);
        assert_eq!(bi(-42).to_f64(), -42.0);
        assert_eq!(bi(0).to_f64(), 0.0);
    }
}
