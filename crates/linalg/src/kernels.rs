//! In-place row kernels shared by Gaussian elimination and the simplex
//! tableau updates.
//!
//! These are the innermost loops of every exact solve in the workspace. They
//! work on plain slices so both [`crate::Matrix`] rows and the LP solver's
//! raw tableau rows can use them, and they lean on the by-reference
//! [`Scalar`] operations so that `Rational` updates never clone operands.
//! The tableau's pivot elimination itself is [`Scalar::sub_mul_row`], the
//! one row kernel a scalar type overrides.

use crate::scalar::Scalar;

/// `dst[j] -= factor * src[j]` for all `j`, skipping zero source entries.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn sub_scaled<T: Scalar>(dst: &mut [T], factor: &T, src: &[T]) {
    assert_eq!(dst.len(), src.len(), "row length mismatch in sub_scaled");
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        if !s.is_exactly_zero() {
            d.sub_mul_assign(factor, s);
        }
    }
}

/// `dst[j] *= factor` for all `j`, skipping zero entries.
pub fn scale<T: Scalar>(dst: &mut [T], factor: &T) {
    for d in dst.iter_mut() {
        if !d.is_exactly_zero() {
            *d = d.mul_ref(factor);
        }
    }
}

/// `dst[j] /= divisor` for all `j`, skipping zero entries.
pub fn div_all<T: Scalar>(dst: &mut [T], divisor: &T) {
    for d in dst.iter_mut() {
        if !d.is_exactly_zero() {
            d.div_assign_ref(divisor);
        }
    }
}

/// Dot product `sum_j a[j] * b[j]`, skipping zero entries of `a`.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn dot<T: Scalar>(a: &[T], b: &[T]) -> T {
    assert_eq!(a.len(), b.len(), "length mismatch in dot");
    let mut acc = T::zero();
    for (x, y) in a.iter().zip(b.iter()) {
        if !x.is_exactly_zero() {
            acc.add_mul_assign(x, y);
        }
    }
    acc
}

/// Fill `out` with the indices of the exactly-nonzero entries of `row`,
/// reusing its allocation (cleared first). Hot loops that compute a support
/// per iteration keep one scratch vector alive instead of reallocating.
pub fn nonzero_support_into<T: Scalar>(row: &[T], out: &mut Vec<usize>) {
    out.clear();
    for (j, v) in row.iter().enumerate() {
        if !v.is_exactly_zero() {
            out.push(j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privmech_numerics::{rat, Rational};

    #[test]
    fn sub_scaled_matches_scalar_loop() {
        let src = vec![rat(1, 2), Rational::zero(), rat(-3, 4)];
        let mut dst = vec![rat(1, 1), rat(2, 1), rat(3, 1)];
        sub_scaled(&mut dst, &rat(2, 1), &src);
        assert_eq!(dst, vec![Rational::zero(), rat(2, 1), rat(9, 2)]);
    }

    #[test]
    fn scale_div_round_trip() {
        let mut row = vec![rat(2, 3), Rational::zero(), rat(-5, 7)];
        let factor = rat(21, 4);
        let orig = row.clone();
        scale(&mut row, &factor);
        div_all(&mut row, &factor);
        assert_eq!(row, orig);
    }

    #[test]
    fn dot_and_support() {
        let a = vec![rat(1, 2), Rational::zero(), rat(2, 1)];
        let b = vec![rat(4, 1), rat(9, 1), rat(1, 4)];
        assert_eq!(dot(&a, &b), rat(5, 2));
        let mut support = vec![7];
        nonzero_support_into(&a, &mut support);
        assert_eq!(support, vec![0, 2]);
    }

    #[test]
    fn f64_kernels_work_too() {
        let mut dst = vec![1.0f64, 2.0, 3.0];
        sub_scaled(&mut dst, &0.5, &[2.0, 0.0, 4.0]);
        assert_eq!(dst, vec![0.0, 2.0, 1.0]);
    }
}
