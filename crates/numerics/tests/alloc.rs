//! Allocation guard: exact arithmetic on operands within one 64-bit limb,
//! gcd on operands within two, and the fused word path must not touch the
//! heap.
//!
//! The exact LP kernels run millions of `Rational` operations per solve, and
//! nearly all of them on one-limb numerators and denominators. `BigInt`
//! keeps magnitudes of up to two limbs inline, so building, cloning and
//! combining such values — including every intermediate product of two
//! one-limb operands — must make no heap allocation at all. The gcd family
//! and `sub_mul`/`add_mul` run on machine words in that range, so they must
//! not allocate either. A counting
//! global allocator measures this per thread, so the harness's own threads
//! never disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use privmech_numerics::{BigInt, Rational};

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` because the allocator can run while thread-locals are torn
    // down at thread exit; those allocations are not under test.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System` upholds the `GlobalAlloc` contract; the counter is
// a const-initialised thread-local `Cell` without a destructor, so touching
// it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; the caller guarantees `layout` is valid.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; the caller guarantees `layout` is valid.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; the caller guarantees `ptr` came from
        // this allocator (hence from `System`) with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations made on this thread while running `f`. The result is
/// dropped outside the counted window.
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = black_box(f());
    (ALLOCATIONS.with(Cell::get) - before, out)
}

#[track_caller]
fn assert_no_alloc<T>(what: &str, f: impl FnOnce() -> T) {
    let (count, _) = allocations(f);
    assert_eq!(count, 0, "{what} made {count} heap allocation(s)");
}

#[test]
fn the_guard_counts_heap_allocations() {
    let (count, _) = allocations(|| vec![1u64, 2, 3]);
    assert_eq!(count, 1);
}

#[test]
fn bigint_from_machine_integers_does_not_allocate() {
    for v in [0i64, 1, -1, 42, i64::MAX, i64::MIN] {
        assert_no_alloc("BigInt::from(i64)", || BigInt::from(black_box(v)));
    }
    for v in [
        0i128,
        -7,
        u64::MAX as i128,
        -(u64::MAX as i128),
        i128::MAX,
        i128::MIN,
    ] {
        assert_no_alloc("BigInt::from(i128)", || BigInt::from(black_box(v)));
    }
    assert_no_alloc("BigInt::from(u64)", || BigInt::from(black_box(u64::MAX)));
}

#[test]
fn rational_arithmetic_on_one_limb_operands_does_not_allocate() {
    // One-limb numerators and denominators, from tiny to ~2⁵⁰; every
    // intermediate stays within two limbs.
    let big_num = (1i64 << 50) - 27;
    let big_den = (1i64 << 49) + 9;
    let values = [
        Rational::zero(),
        Rational::one(),
        Rational::from_ratio(-3, 4),
        Rational::from_ratio(7, 12),
        Rational::from_ratio(big_num, big_den),
        Rational::from_ratio(-big_den, 3),
        Rational::from_int(i64::MAX >> 2),
    ];
    for a in &values {
        for b in &values {
            let (a, b) = (black_box(a), black_box(b));
            assert_no_alloc("Rational +", || a + b);
            assert_no_alloc("Rational -", || a - b);
            assert_no_alloc("Rational *", || a * b);
            if !b.is_zero() {
                assert_no_alloc("Rational /", || a / b);
            }
            assert_no_alloc("Rational::cmp", || a.cmp(b));
            assert_no_alloc("Rational::clone", || a.clone());
            for x in &values[..4] {
                assert_no_alloc("Rational::sub_mul", || a.sub_mul(b, x));
                assert_no_alloc("Rational::add_mul", || a.add_mul(x, b));
            }
        }
    }
}

/// Magnitudes of up to two limbs around every word-path boundary.
fn two_limb_values() -> Vec<BigInt> {
    let one = BigInt::one();
    let pow2 = |k: usize| one.shl_bits(k);
    vec![
        BigInt::zero(),
        one.clone(),
        BigInt::from(12u64),
        BigInt::from(u64::MAX),
        &pow2(64) - &one,
        pow2(64),
        &pow2(64) + &one,
        BigInt::from(3u64).shl_bits(90),
        BigInt::from(-(1i128 << 100) - 7),
        &pow2(128) - &one,
    ]
}

#[test]
fn gcd_on_two_limb_operands_does_not_allocate() {
    let values = two_limb_values();
    for a in &values {
        for b in &values {
            let (a, b) = (black_box(a), black_box(b));
            assert_no_alloc("BigInt::gcd", || a.gcd(b));
        }
    }
}

#[test]
fn one_limb_by_many_gcd_does_not_allocate() {
    let wide: Vec<BigInt> = (3..=8)
        .map(|limbs| (BigInt::from(u64::MAX - 58).shl_bits(64 * (limbs - 1))) + BigInt::from(45u64))
        .collect();
    for w in &wide {
        for d in [1u64, 3, 45, u64::MAX, 1 << 63] {
            let d = BigInt::from(d);
            let (w, d) = (black_box(w), black_box(&d));
            assert_no_alloc("wide.gcd(word)", || w.gcd(d));
            assert_no_alloc("word.gcd(wide)", || d.gcd(w));
        }
    }
}

#[test]
fn the_fused_word_path_does_not_allocate() {
    let pow2 = |k: usize| BigInt::one().shl_bits(k);
    let lhs = [
        Rational::zero(),
        Rational::from_ratio(-3, 4),
        Rational::from_int(i64::MIN),
        Rational::new(&pow2(64) + &BigInt::one(), BigInt::from(i64::MAX)),
        Rational::new(-(&pow2(126) + &BigInt::one()), BigInt::from(3u64)),
        Rational::new(BigInt::from(7u64), &pow2(90) + &BigInt::one()),
    ];
    let words = [
        Rational::zero(),
        Rational::from_ratio(i64::MIN, i64::MAX),
        Rational::from_ratio(i64::MAX, 1 << 31),
        Rational::from_ratio(-(1 << 31), 3),
        Rational::from_ratio(1, 2),
    ];
    for x in &lhs {
        for y in &words {
            for z in &words {
                let (x, y, z) = (black_box(x), black_box(y), black_box(z));
                // Results past `i128` overflow the word path by construction;
                // the fallback is checked below.
                let out = x.sub_mul(y, z);
                if out.numer().bit_length() < 127 && out.denom().bit_length() < 127 {
                    assert_no_alloc("Rational::sub_mul", || x.sub_mul(y, z));
                    assert_no_alloc("Rational::add_mul", || x.add_mul(z, y));
                }
            }
        }
    }
    // A checked-i128 overflow leaves the word path: the generic fallback
    // builds multi-limb intermediates on the heap.
    let x = Rational::new(BigInt::from(5u64), &pow2(100) + &BigInt::from(3u64));
    let (y, z) = (
        Rational::from_ratio(1, (1 << 62) + 1),
        Rational::from_ratio(-1, (1 << 61) + 3),
    );
    let (count, _) = allocations(|| x.sub_mul(&y, &z));
    assert!(count > 0, "the overflowing case must take the generic path");
}
