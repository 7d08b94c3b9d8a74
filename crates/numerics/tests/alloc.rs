//! Allocation guard: exact arithmetic on operands within one 64-bit limb
//! must not touch the heap.
//!
//! The exact LP kernels run millions of `Rational` operations per solve, and
//! nearly all of them on one-limb numerators and denominators. `BigInt`
//! keeps magnitudes of up to two limbs inline, so building, cloning and
//! combining such values — including every intermediate product of two
//! one-limb operands — must make no heap allocation at all. A counting
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
    // One-limb numerators and denominators, from tiny to ~2⁵⁰, so both the
    // fused machine-integer path (components < 2³¹) and the generic
    // cross-cancelling path run; every intermediate stays within two limbs.
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
