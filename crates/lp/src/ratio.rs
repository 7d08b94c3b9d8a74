//! The minimum-ratio test: the second stage of a simplex iteration.
//!
//! Given the entering column's coefficients against the current basis, pick
//! the leaving basis position. This is the single implementation consumed by
//! both solver forms — the dense tableau reads coefficients straight out of
//! its tableau column, the revised simplex out of its FTRAN result — which is
//! the second half of the dense ≡ revised pivot-sequence contract
//! (`crates/lp/SOLVER.md`).

use privmech_linalg::Scalar;

/// Leaving basis position for an entering column: minimum ratio
/// `rhs(r) / coeff(r)` over positions with a positive coefficient. Ties are
/// broken differently per pricing mode:
///
/// * Bland mode: smallest basic-variable index — part of Bland's
///   anti-cycling termination guarantee.
/// * Dantzig mode: **largest pivot coefficient**. Dantzig's
///   most-negative-cost column can pair a tied minimum ratio with a tiny
///   pivot element; dividing the row by a near-tolerance pivot destroys
///   `f64` tableaus (and bloats `Rational` entries), so among tied rows
///   the best-conditioned pivot wins. Cycling concerns are delegated to
///   the Bland fallback.
///
/// Returns `None` when the column is unbounded (no positive coefficient),
/// otherwise the position and whether the pivot is degenerate (ratio
/// approximately zero).
pub(crate) fn choose_leaving<'a, T, C, R>(
    rows: usize,
    basis: &[usize],
    bland_mode: bool,
    coeff: C,
    rhs: R,
) -> Option<(usize, bool)>
where
    T: Scalar + 'a,
    C: Fn(usize) -> &'a T,
    R: Fn(usize) -> &'a T,
{
    let mut best: Option<(usize, T)> = None;
    for r in 0..rows {
        let c = coeff(r);
        if !c.is_positive_approx() {
            continue;
        }
        let ratio = rhs(r).div_ref(c);
        match &best {
            None => best = Some((r, ratio)),
            Some((br, bratio)) => {
                if ratio == *bratio {
                    let tie_wins = if bland_mode {
                        basis[r] < basis[*br]
                    } else {
                        coeff(r).abs() > coeff(*br).abs()
                    };
                    if tie_wins {
                        best = Some((r, ratio));
                    }
                } else if ratio < *bratio {
                    best = Some((r, ratio));
                }
            }
        }
    }
    best.map(|(r, ratio)| (r, ratio.is_zero_approx()))
}
