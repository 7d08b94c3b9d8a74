//! Property-based tests for the exact arithmetic substrate: ring/field axioms,
//! ordering consistency, parse/display round-trips, and division invariants.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use privmech_numerics::{BigInt, Rational};
use proptest::prelude::*;

/// `±(2^k + offset)` for `k` at the limb boundaries: 2⁶⁴ is the first
/// two-limb magnitude and 2¹²⁸ the first that no longer fits the inline limb
/// store, so sums, products and shifts of these values cross between the
/// inline and heap representations in both directions.
fn arb_limb_boundary() -> impl Strategy<Value = BigInt> {
    (
        prop_oneof![Just(64usize), Just(128usize)],
        -3i64..=3,
        any::<bool>(),
    )
        .prop_map(|(k, offset, neg)| {
            let v = BigInt::one().shl_bits(k) + BigInt::from(offset);
            if neg {
                -v
            } else {
                v
            }
        })
}

fn arb_bigint() -> impl Strategy<Value = BigInt> {
    // Mix small values with products of large factors so multi-limb paths are
    // hit, and values at the inline/heap limb boundary.
    prop_oneof![
        any::<i64>().prop_map(BigInt::from),
        (any::<i128>(), any::<u64>()).prop_map(|(a, b)| BigInt::from(a) * BigInt::from(b)),
        (any::<i128>(), any::<i128>())
            .prop_map(|(a, b)| BigInt::from(a) * BigInt::from(b) + BigInt::from(1i64)),
        arb_limb_boundary(),
    ]
}

fn hash_of<T: Hash>(v: &T) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

fn arb_rational() -> impl Strategy<Value = Rational> {
    (any::<i64>(), 1i64..=1_000_000i64, any::<bool>()).prop_map(|(n, d, neg)| {
        let r = Rational::from_ratio(n, d);
        if neg {
            -r
        } else {
            r
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bigint_add_commutes(a in arb_bigint(), b in arb_bigint()) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn bigint_add_associates(a in arb_bigint(), b in arb_bigint(), c in arb_bigint()) {
        prop_assert_eq!((&a + &b) + &c, &a + (&b + &c));
    }

    #[test]
    fn bigint_mul_commutes_and_distributes(a in arb_bigint(), b in arb_bigint(), c in arb_bigint()) {
        prop_assert_eq!(&a * &b, &b * &a);
        prop_assert_eq!(&a * (&b + &c), &a * &b + &a * &c);
    }

    #[test]
    fn bigint_sub_is_add_neg(a in arb_bigint(), b in arb_bigint()) {
        prop_assert_eq!(&a - &b, &a + &(-b.clone()));
        prop_assert_eq!(&a - &a, BigInt::zero());
    }

    #[test]
    fn bigint_divrem_reconstructs(a in arb_bigint(), b in arb_bigint()) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b);
        prop_assert_eq!(&q * &b + &r, a.clone());
        prop_assert!(r.abs() < b.abs());
        // Truncated division: remainder has the sign of the dividend (or is zero).
        if !r.is_zero() {
            prop_assert_eq!(r.is_negative(), a.is_negative());
        }
    }

    #[test]
    fn bigint_display_parse_roundtrip(a in arb_bigint()) {
        let s = a.to_string();
        let back: BigInt = s.parse().unwrap();
        prop_assert_eq!(back, a);
    }

    #[test]
    fn bigint_ordering_consistent_with_subtraction(a in arb_bigint(), b in arb_bigint()) {
        let diff = &a - &b;
        prop_assert_eq!(a > b, diff.is_positive());
        prop_assert_eq!(a == b, diff.is_zero());
    }

    #[test]
    fn bigint_gcd_divides_both_and_is_nonnegative(a in arb_bigint(), b in arb_bigint()) {
        let g = a.gcd(&b);
        prop_assert!(!g.is_negative());
        // Reference: Euclid's algorithm on remainders (the division path).
        let (mut x, mut y) = (a.abs(), b.abs());
        while !y.is_zero() {
            let r = &x % &y;
            x = std::mem::replace(&mut y, r);
        }
        prop_assert_eq!(g.clone(), x);
        if !g.is_zero() {
            prop_assert!((&a % &g).is_zero());
            prop_assert!((&b % &g).is_zero());
        } else {
            prop_assert!(a.is_zero() && b.is_zero());
        }
    }

    #[test]
    fn bigint_shift_matches_pow2_mul(a in arb_bigint(), k in 0usize..130) {
        let shifted = a.shl_bits(k);
        let pow2 = BigInt::from(2i64).pow(k as u32);
        prop_assert_eq!(shifted.clone(), &a * &pow2);
        prop_assert_eq!(shifted.shr_bits(k), a.clone());
        // Shifting right truncates the magnitude: compare with division by
        // 2^k, which rounds towards zero too.
        prop_assert_eq!(a.shr_bits(k), &a / &pow2);
    }

    #[test]
    fn value_reached_by_two_paths_is_identical(a in arb_bigint(), k in 0usize..200) {
        // Growing past the inline limb store and shrinking back must land on
        // the same value as never leaving it: equal, equally ordered against
        // every other value, and equally hashed (so map lookups agree).
        let big = BigInt::one().shl_bits(130);
        let paths = [
            &(&a + &big) - &big,
            a.shl_bits(k).shr_bits(k),
            &(&a * &big) / &big,
            &a * &big.gcd(&(&big + &BigInt::one())),
        ];
        for b in &paths {
            prop_assert_eq!(b, &a);
            prop_assert_eq!(b.cmp(&a), std::cmp::Ordering::Equal);
            prop_assert_eq!(b.cmp(&big), a.cmp(&big));
            prop_assert_eq!(hash_of(b), hash_of(&a));
        }
        let r = Rational::new(&a * &big, big.clone());
        prop_assert_eq!(hash_of(&r), hash_of(&Rational::from(a.clone())));
        prop_assert_eq!(r, Rational::from(a));
    }

    #[test]
    fn rational_field_axioms(a in arb_rational(), b in arb_rational(), c in arb_rational()) {
        prop_assert_eq!(&a + &b, &b + &a);
        prop_assert_eq!((&a + &b) + &c, &a + (&b + &c));
        prop_assert_eq!(&a * &b, &b * &a);
        prop_assert_eq!((&a * &b) * &c, &a * (&b * &c));
        prop_assert_eq!(&a * (&b + &c), &a * &b + &a * &c);
        prop_assert_eq!(&a + &Rational::zero(), a.clone());
        prop_assert_eq!(&a * &Rational::one(), a.clone());
        prop_assert_eq!(&a - &a, Rational::zero());
        if !a.is_zero() {
            prop_assert_eq!(&a * &a.recip(), Rational::one());
            prop_assert_eq!(&a / &a, Rational::one());
        }
    }

    #[test]
    fn rational_normalization_canonical(n in any::<i64>(), d in 1i64..=1_000_000i64, k in 1i64..=1000i64) {
        // Scaling numerator and denominator by the same factor yields the same value.
        let a = Rational::from_ratio(n, d);
        let b = Rational::new(
            BigInt::from(n) * BigInt::from(k),
            BigInt::from(d) * BigInt::from(k),
        );
        prop_assert_eq!(a, b);
    }

    #[test]
    fn rational_ordering_translation_invariant(a in arb_rational(), b in arb_rational(), c in arb_rational()) {
        prop_assert_eq!(a < b, &a + &c < &b + &c);
    }

    #[test]
    fn rational_display_parse_roundtrip(a in arb_rational()) {
        let s = a.to_string();
        let back: Rational = s.parse().unwrap();
        prop_assert_eq!(back, a);
    }

    #[test]
    fn rational_to_f64_close(n in -1_000_000i64..1_000_000i64, d in 1i64..=1_000_000i64) {
        let r = Rational::from_ratio(n, d);
        let f = r.to_f64();
        let direct = n as f64 / d as f64;
        prop_assert!((f - direct).abs() <= 1e-9 * direct.abs().max(1.0));
    }

    #[test]
    fn rational_floor_ceil_round_bracket(a in arb_rational()) {
        let fl = Rational::from(a.floor());
        let ce = Rational::from(a.ceil());
        prop_assert!(fl <= a && a <= ce);
        prop_assert!(&ce - &fl <= Rational::one());
        let rounded = Rational::from(a.round());
        prop_assert!((rounded - &a).abs() <= Rational::from_ratio(1, 2));
    }

    #[test]
    fn rational_from_f64_exact_roundtrip(x in -1e12f64..1e12f64) {
        let r = Rational::from_f64_exact(x).unwrap();
        prop_assert_eq!(r.to_f64(), x);
    }
}

// ---------------------------------------------------------------------------
// Small-value fast-path agreement (perf rework regression tests).
//
// BigInt add/sub/mul/cmp/gcd take an inline single-limb path when both
// operands fit in one 64-bit limb. These properties pin the fast path to two
// independent references on randomized u64-boundary inputs: (a) an `i128`
// model of the arithmetic, and (b) the multi-limb slow path itself, reached
// by shifting both operands 64 bits up (which forces two-limb
// representations while preserving the algebra).
// ---------------------------------------------------------------------------

/// Mix of boundary-heavy and uniform single-limb magnitudes.
fn arb_u64_boundary() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(1u64),
        Just(u64::MAX),
        Just(u64::MAX - 1),
        Just(1u64 << 63),
        Just((1u64 << 63) - 1),
        Just((1u64 << 32) - 1),
        Just(1u64 << 32),
        any::<u64>(),
    ]
}

fn arb_small_bigint() -> impl Strategy<Value = BigInt> {
    (arb_u64_boundary(), any::<bool>()).prop_map(|(mag, neg)| {
        let v = BigInt::from(mag);
        if neg {
            -v
        } else {
            v
        }
    })
}

/// Signed `i128` view of a single-limb BigInt (reference model).
fn as_i128(v: &BigInt) -> i128 {
    v.to_i128().expect("single-limb value fits i128")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn small_add_sub_match_i128_reference(a in arb_small_bigint(), b in arb_small_bigint()) {
        prop_assert_eq!(as_i128(&(&a + &b)), as_i128(&a) + as_i128(&b));
        prop_assert_eq!(as_i128(&(&a - &b)), as_i128(&a) - as_i128(&b));
    }

    #[test]
    fn small_mul_matches_u128_reference(a in arb_u64_boundary(), b in arb_u64_boundary()) {
        let prod = BigInt::from(a) * BigInt::from(b);
        prop_assert_eq!(prod.to_string(), (a as u128 * b as u128).to_string());
        let neg_prod = -BigInt::from(a) * BigInt::from(b);
        prop_assert_eq!((-neg_prod).to_string(), (a as u128 * b as u128).to_string());
    }

    #[test]
    fn small_cmp_matches_i128_reference(a in arb_small_bigint(), b in arb_small_bigint()) {
        prop_assert_eq!(a.cmp(&b), as_i128(&a).cmp(&as_i128(&b)));
    }

    #[test]
    fn fast_path_agrees_with_multi_limb_slow_path(
        a in arb_small_bigint(), b in arb_small_bigint(),
        s in prop_oneof![Just(64usize), Just(128usize), Just(129usize)],
    ) {
        // x -> x << s is an injective ring homomorphism onto wider values for
        // + and -, and scales products by 2^(2s): every identity below forces
        // the multi-limb path on the left (two limbs, still inline, at s = 64;
        // three or more on the heap beyond) and the fast path on the right.
        let (wa, wb) = (a.shl_bits(s), b.shl_bits(s));
        prop_assert_eq!(&wa + &wb, (&a + &b).shl_bits(s));
        prop_assert_eq!(&wa - &wb, (&a - &b).shl_bits(s));
        prop_assert_eq!(&wa * &wb, (&a * &b).shl_bits(2 * s));
        // Division and gcd shrink the wide operands back down.
        if !b.is_zero() {
            let (q, r) = wa.div_rem(&wb);
            let (q_small, r_small) = a.div_rem(&b);
            prop_assert_eq!(q, q_small);
            prop_assert_eq!(r, r_small.shl_bits(s));
        }
        prop_assert_eq!(wa.gcd(&wb), a.gcd(&b).shl_bits(s));
        prop_assert_eq!(wa.shr_bits(s), a);
    }

    #[test]
    fn small_gcd_matches_euclid_reference(a in arb_u64_boundary(), b in arb_u64_boundary()) {
        // Reference: schoolbook Euclid on u64.
        let (mut x, mut y) = (a, b);
        while y != 0 {
            let t = x % y;
            x = y;
            y = t;
        }
        prop_assert_eq!(BigInt::from(a).gcd(&BigInt::from(b)), BigInt::from(x));
    }

    #[test]
    fn gcd_fast_and_slow_paths_agree(a in arb_u64_boundary(), b in arb_u64_boundary(), k in 1usize..=140) {
        // gcd(a·2^k, b·2^k) = gcd(a, b)·2^k: with k >= 1 the left side's
        // operands outgrow one limb whenever a or b is large, so it runs one
        // remainder step into the u128/u64 gcd (smaller operand within two
        // limbs) or, once both pass 2^128, Lehmer's algorithm, while the
        // right side runs the u64 fast path.
        let g_shifted = BigInt::from(a).shl_bits(k).gcd(&BigInt::from(b).shl_bits(k));
        let g_small = BigInt::from(a).gcd(&BigInt::from(b)).shl_bits(k);
        prop_assert_eq!(g_shifted, g_small);
    }

    #[test]
    fn small_divrem_matches_i128_reference(a in arb_small_bigint(), b in arb_small_bigint()) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b);
        prop_assert_eq!(as_i128(&q), as_i128(&a) / as_i128(&b));
        prop_assert_eq!(as_i128(&r), as_i128(&a) % as_i128(&b));
    }

    #[test]
    fn knuth_division_reconstructs_on_wide_inputs(
        a in arb_u64_boundary(), b in arb_u64_boundary(),
        c in arb_u64_boundary(), d in arb_u64_boundary(),
        shift in 0usize..=130,
    ) {
        // Multi-limb dividend (up to ~4 limbs) over multi-limb divisor
        // exercises Algorithm D including its rare correction branch.
        let dividend = (BigInt::from(a) * BigInt::from(b)).shl_bits(shift) + BigInt::from(c);
        let divisor = BigInt::from(d).shl_bits(shift / 2) + BigInt::one();
        let (q, r) = dividend.div_rem(&divisor);
        prop_assert_eq!(&q * &divisor + &r, dividend);
        prop_assert!(r.abs() < divisor.abs());
    }
}

// ---------------------------------------------------------------------------
// The gcd family. `BigInt::gcd` dispatches on the operands' limb counts: both
// one limb (binary gcd on `u64`), a one-limb smaller operand (a single-limb
// remainder, then `u64`), a two-limb smaller operand (one remainder, then the
// `u128` path), and both wider than two limbs (Lehmer's algorithm). Every
// class is pinned to Euclid's algorithm on `BigInt::div_rem`, which shares
// none of that code.
// ---------------------------------------------------------------------------

/// Euclid's algorithm on remainders: the test-local reference.
fn euclid_gcd(a: &BigInt, b: &BigInt) -> BigInt {
    let (mut x, mut y) = (a.abs(), b.abs());
    while !y.is_zero() {
        let r = &x % &y;
        x = std::mem::replace(&mut y, r);
    }
    x
}

/// `gcd(a, b)` under every sign and argument order, against the reference.
fn assert_gcd_matches_euclid(a: &BigInt, b: &BigInt) {
    let expected = euclid_gcd(a, b);
    for (x, y) in [(a, b), (b, a)] {
        for (sx, sy) in [(false, false), (true, false), (false, true), (true, true)] {
            let x = if sx { -x.clone() } else { x.clone() };
            let y = if sy { -y.clone() } else { y.clone() };
            assert_eq!(x.gcd(&y), expected, "gcd({x}, {y})");
        }
    }
}

/// A magnitude of exactly `n` limbs (its top bit set), or 1 for `n = 0`.
fn exact_limbs(limbs: &[u64], n: usize) -> BigInt {
    let mut v = limbs[..n].to_vec();
    match v.last_mut() {
        Some(top) => *top |= 1 << 63,
        None => return BigInt::one(),
    }
    BigInt::from_sign_limbs(privmech_numerics::Sign::Positive, v)
}

/// Operand pairs of the given limb counts sharing a common factor of up to
/// `common` limbs: with top bits set, a product of `i`- and `j`-limb factors
/// has exactly `i + j` limbs, so each pair lands in its dispatch class.
fn arb_gcd_class() -> impl Strategy<Value = (BigInt, BigInt)> {
    (
        prop_oneof![
            Just((1usize, 1usize)),
            Just((1, 2)),
            Just((2, 2)),
            (1usize..=1, 3usize..=8),
            (2usize..=2, 3usize..=8),
            (3usize..=8, 3usize..=8),
        ],
        0usize..=3,
        prop::collection::vec(any::<u64>(), 24),
    )
        .prop_map(|((la, lb), common, limbs)| {
            let lg = common.min(la).min(lb);
            let g = exact_limbs(&limbs[16..], lg);
            let a = &g * &exact_limbs(&limbs[..8], la - lg);
            let b = &g * &exact_limbs(&limbs[8..16], lb - lg);
            (a, b)
        })
}

/// The limb-boundary values the word paths must get right, and Fibonacci
/// numbers, whose quotients are all 1 (Lehmer's worst case).
fn gcd_specials() -> Vec<BigInt> {
    let one = BigInt::one();
    let pow2 = |k: usize| one.shl_bits(k);
    let mut v = vec![
        BigInt::zero(),
        one.clone(),
        BigInt::from(2u64),
        BigInt::from(6u64),
        BigInt::from(u64::MAX),
        &pow2(64) - &one,
        pow2(64),
        &pow2(64) + &one,
        &pow2(128) - &one,
        pow2(128),
        &pow2(128) + &one,
        BigInt::from(u64::MAX).shl_bits(70),
        BigInt::from(3u64).shl_bits(200),
    ];
    v.extend([40u32, 93, 94, 150, 300].into_iter().map(fibonacci));
    v
}

/// The `k`-th Fibonacci number (F₁ = F₂ = 1).
fn fibonacci(k: u32) -> BigInt {
    let (mut a, mut b) = (BigInt::zero(), BigInt::one());
    for _ in 0..k {
        let next = &a + &b;
        a = std::mem::replace(&mut b, next);
    }
    a
}

#[test]
fn gcd_of_boundary_values_matches_euclid() {
    let specials = gcd_specials();
    for a in &specials {
        for b in &specials {
            assert_gcd_matches_euclid(a, b);
        }
        // Equal operands, and a shared power of two on top of a shared
        // odd factor.
        assert_gcd_matches_euclid(a, a);
        assert_gcd_matches_euclid(&a.shl_bits(67), &(a * &BigInt::from(12u64)));
    }
}

#[test]
fn gcd_of_fibonacci_numbers_is_a_fibonacci_number() {
    // gcd(F_m, F_n) = F_gcd(m, n): consecutive pairs reduce through quotient
    // 1 at every step, and the wide ones (F₇₀₀ has 486 bits) run Lehmer's
    // loop at its longest.
    let fib: Vec<BigInt> = (0..=700).map(fibonacci).collect();
    let gcd_u = |mut m: usize, mut n: usize| {
        while n != 0 {
            (m, n) = (n, m % n);
        }
        m
    };
    for m in (90..700).step_by(61) {
        for n in [m + 1, m - 1, m / 2, 2 * m / 3, 84, 700] {
            if n > 700 {
                continue;
            }
            assert_eq!(fib[m].gcd(&fib[n]), fib[gcd_u(m, n)], "gcd(F_{m}, F_{n})");
        }
        // A shared wide factor on top of a coprime pair.
        let g = &fib[333] + &BigInt::from(7u64);
        assert_eq!((&fib[m] * &g).gcd(&(&fib[m + 1] * &g)), g);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn gcd_matches_euclid_in_every_dispatch_class(
        (a, b) in arb_gcd_class(),
        shift in prop_oneof![Just(0usize), 1usize..=130],
        word in arb_u64_boundary(),
    ) {
        assert_gcd_matches_euclid(&a, &b);
        // A shared power of two moves the pair up a class or two.
        assert_gcd_matches_euclid(&a.shl_bits(shift), &b.shl_bits(shift + 1));
        // And a one-limb operand against the whole wide range.
        assert_gcd_matches_euclid(&a, &BigInt::from(word));
    }
}

// ---------------------------------------------------------------------------
// Fused eta-vector operations: `sub_mul` / `add_mul` power the revised
// simplex's FTRAN/BTRAN kernels. Their machine-word path (`i64` factor and x,
// `i128` lhs, checked `i128` combination) must agree with the generic
// mul-then-add/sub path everywhere: inside the word window, at its edges
// (±2³¹, ±(2⁶³−1), i64::MIN, a two-limb lhs), and past them, where an
// overflow must fall back.
// ---------------------------------------------------------------------------

/// One-limb components around every edge of the word path.
fn arb_word_component() -> impl Strategy<Value = i64> {
    prop_oneof![
        -40i64..=40,
        (-3i64..=3).prop_map(|d| (1i64 << 31) + d),
        (-3i64..=3).prop_map(|d| d - (1i64 << 31)),
        (0i64..=3).prop_map(|d| i64::MAX - d),
        (0i64..=3).prop_map(|d| i64::MIN + d),
        any::<i64>(),
    ]
}

/// `n / |d|` from two components (a zero denominator becomes 1).
fn word_rational(n: i64, d: i64) -> Rational {
    let d = BigInt::from(d).abs();
    if d.is_zero() {
        return Rational::from_int(n);
    }
    Rational::new(BigInt::from(n), d)
}

fn arb_word_rational() -> impl Strategy<Value = Rational> {
    (arb_word_component(), arb_word_component()).prop_map(|(n, d)| word_rational(n, d))
}

/// A left-hand side of one, two or (past `i128`) three limbs: word
/// components shifted by up to 70 bits, plus an offset so the low limb is
/// not zero.
fn arb_fused_lhs() -> impl Strategy<Value = Rational> {
    (
        arb_word_component(),
        arb_word_component(),
        prop_oneof![Just(0usize), 1usize..=70],
        prop_oneof![Just(0usize), 1usize..=70],
        any::<i64>(),
    )
        .prop_map(|(n, d, kn, kd, offset)| {
            let num = BigInt::from(n).shl_bits(kn) + BigInt::from(offset);
            let den = BigInt::from(d).abs().shl_bits(kd) + BigInt::one();
            Rational::new(num, den)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fused_sub_mul_matches_unfused_small(
        a in -40i64..=40, b in 1i64..=40,
        c in -40i64..=40, d in 1i64..=40,
        e in -40i64..=40, f in 1i64..=40,
    ) {
        let (x, y, z) = (Rational::from_ratio(a, b), Rational::from_ratio(c, d), Rational::from_ratio(e, f));
        prop_assert_eq!(x.sub_mul(&y, &z), &x - &(&y * &z));
        prop_assert_eq!(x.add_mul(&y, &z), &x + &(&y * &z));
    }

    #[test]
    fn fused_ops_agree_across_the_fast_path_boundary(
        x in arb_fused_lhs(),
        y in arb_word_rational(),
        z in arb_word_rational(),
    ) {
        prop_assert_eq!(x.sub_mul(&y, &z), &x - &(&y * &z));
        prop_assert_eq!(x.add_mul(&y, &z), &x + &(&y * &z));
        // Exact cancellation, and a zero left-hand side.
        let prod = &y * &z;
        prop_assert_eq!(prod.sub_mul(&y, &z), Rational::zero());
        prop_assert_eq!((-&prod).add_mul(&y, &z), Rational::zero());
        prop_assert_eq!(Rational::zero().sub_mul(&y, &z), -&prod);
    }

    #[test]
    fn fused_ops_handle_zero_operands(
        a in -9i64..=9, b in 1i64..=9,
    ) {
        let x = Rational::from_ratio(a, b);
        let zero = Rational::zero();
        prop_assert_eq!(x.sub_mul(&zero, &x), x.clone());
        prop_assert_eq!(x.sub_mul(&x, &zero), x.clone());
        prop_assert_eq!(zero.sub_mul(&x, &x), -(&x * &x));
        prop_assert_eq!(x.add_mul(&zero, &zero), x.clone());
    }
}

#[test]
fn fused_word_path_edges_agree_with_unfused() {
    let pow2 = |k: usize| BigInt::one().shl_bits(k);
    let r = |n: BigInt, d: BigInt| Rational::new(n, d);
    let max = BigInt::from(i64::MAX);
    let words = [
        Rational::zero(),
        word_rational(i64::MIN, 1),
        word_rational(i64::MIN, i64::MAX),
        word_rational(i64::MAX, i64::MAX - 1),
        word_rational(-(1 << 31), (1 << 31) + 1),
        word_rational(1 << 31, 3),
    ];
    let lhs = [
        Rational::zero(),
        Rational::one(),
        word_rational(i64::MIN, 7),
        // Two-limb numerators and denominators, up to the edge of i128.
        r(&pow2(64) + &BigInt::one(), max.clone()),
        r(&pow2(127) - &BigInt::one(), BigInt::from(3u64)),
        r(-(&pow2(127) - &BigInt::one()), &pow2(126) + &BigInt::one()),
        r(BigInt::from(5u64), &pow2(100) + &BigInt::from(3u64)),
        // Past i128: the generic path from the start.
        r(&pow2(127) + &BigInt::one(), BigInt::from(5u64)),
        r(BigInt::one(), pow2(130) + BigInt::one()),
    ];
    for x in &lhs {
        for y in &words {
            for z in &words {
                assert_eq!(x.sub_mul(y, z), x - &(y * z), "{x} - {y}·{z}");
                assert_eq!(x.add_mul(y, z), x + &(y * z), "{x} + {y}·{z}");
            }
        }
    }
    // A checked-i128 overflow inside the word path (the combined denominator
    // is about 2²²³) falls back to the generic path with the same answer.
    let x = r(BigInt::from(5u64), &pow2(100) + &BigInt::from(3u64));
    let y = word_rational(1, (1 << 62) + 1);
    let z = word_rational(-1, (1 << 61) + 3);
    let expected = &x - &(&y * &z);
    assert!(expected.denom().bit_length() > 200);
    assert_eq!(x.sub_mul(&y, &z), expected);
}
