//! Cross-parameter warm starts: reoptimize from a previous solve's basis.
//!
//! An α-sweep solves the same LP structure at many parameter values; only
//! the `-α` coefficients of the differential-privacy rows change between
//! solves ([`crate::template`]). The cold path rebuilds feasibility from
//! scratch every time — phase 1, drive-out, phase 2. But the optimal basis
//! of the previous α is usually an excellent starting point for the next:
//! re-evaluated against the new coefficients it is often still *dual
//! feasible* (all reduced costs non-negative), in which case the **dual
//! simplex** restores primal feasibility in a handful of pivots; failing
//! that it is often still *primal feasible*, in which case phase 2 of the
//! ordinary (primal) revised simplex finishes the job with no phase 1 at
//! all. Only when the old basis is neither — or is singular under the new
//! coefficients — does the driver fall back to a cold solve.
//!
//! # The dual simplex iteration
//!
//! Standard form `min cᵀx, Ax = b, x ≥ 0` with basis `B`, maintained
//! invariant `d = c − AᵀB⁻ᵀc_B ≥ 0` (dual feasibility):
//!
//! 1. **Leaving row**: pick a position `r` with `x_B[r] < 0` (none → the
//!    basis is primal feasible too, hence optimal).
//! 2. **Pivot row**: recover `α_r = (B⁻¹A)_r` by a unit BTRAN plus the row
//!    product `ρᵀA` — the fraction-free kernel ([`crate::pivot_row`]) the
//!    primal revised iteration prices from.
//! 3. **Entering column**: among `j` with `α_rj < 0`, minimize the ratio
//!    `d_j / (−α_rj)` (none → the row proves `Ax = b, x ≥ 0` unsatisfiable:
//!    the LP is infeasible). The min-ratio choice is exactly what keeps
//!    `d ≥ 0` through the update.
//! 4. **Pivot**: FTRAN the entering column, update `x_B` by the primal
//!    pivot's recurrence and `d` over the pivot row (`d_j ← d_j −
//!    (d_q/α_rq)·α_rj`), append the basis-change to the factorization.
//!
//! Anti-cycling mirrors the primal solver's policy: a streak of degenerate
//! pivots (`d_q = 0`, objective unchanged) beyond
//! [`SolverOptions::degeneracy_streak_limit`] switches both selection rules
//! to Bland-style smallest-index choices, which terminate finitely; a
//! strictly improving pivot switches back.
//!
//! # Contract
//!
//! A warm-started solve generally follows a different pivot path than a
//! cold solve and, on a degenerate optimum, may return a *different optimal
//! vertex* — so warm starts are covered by the solution-level tier of the
//! solver contract, never the pivot-identity tier: every warm result is
//! verified against the exact optimality certificate
//! ([`crate::certificate`]) before it is released, and
//! [`crate::simplex::SolverOptions::warm_start`] defaults to off.

use privmech_linalg::sparse;
use privmech_linalg::sparse::SparseVec;
use privmech_linalg::Scalar;

use crate::lu::LuFactors;
use crate::model::LpError;
use crate::pivot_row::RowProduct;
use crate::simplex::{ColumnSolution, PivotStats, SolverOptions};
use crate::standard::StandardForm;

/// Result of a warm-start attempt.
pub(crate) enum WarmOutcome<T: Scalar> {
    /// The warm basis led to a certified optimum.
    Solved(ColumnSolution<T>),
    /// The warm basis was unusable (wrong shape, singular, or neither primal
    /// nor dual feasible); the standard form is handed back for a cold solve.
    Fallback(StandardForm<T>),
}

/// Try to reoptimize `sf` starting from `warm_basis`, a final basis returned
/// by a previous solve of a same-structure standard form.
///
/// Dispatches on what the old basis still is under the new coefficients:
/// dual feasible → dual simplex; primal feasible → primal phase 2
/// ([`crate::revised::reoptimize_primal`]); neither → [`WarmOutcome::Fallback`].
/// Successful outcomes are certificate-verified before release.
pub(crate) fn warm_reoptimize<T: Scalar>(
    sf: StandardForm<T>,
    warm_basis: &[usize],
    options: &SolverOptions,
    stats: &mut PivotStats,
) -> Result<WarmOutcome<T>, LpError> {
    let m = sf.num_rows();
    // Reject shapes the driver cannot reuse: dimension mismatch, duplicate
    // entries, or artificial columns (their unit-column trick is tied to the
    // *previous* form's redundant rows; a cold solve re-derives them).
    if warm_basis.len() != m || warm_basis.iter().any(|&b| b >= sf.num_cols) {
        return Ok(WarmOutcome::Fallback(sf));
    }

    // Column view: an owned transpose of the CSR store (row products below
    // read `sf.matrix` directly). Owned, not borrowed, because `sf` must
    // stay movable for the mid-loop fallback return.
    let cols = sf.matrix.transpose();

    let mut basis = warm_basis.to_vec();
    let mut lu: LuFactors<T> = LuFactors::identity(m);
    {
        let basis = &basis;
        let cols = &cols;
        if lu.refactorize(|c| cols.row(basis[c])).is_err() {
            // Singular under the new coefficients.
            return Ok(WarmOutcome::Fallback(sf));
        }
    }

    // x_B = B⁻¹b, read per position through the factorization's row map.
    let mut rhs_idx: Vec<usize> = Vec::new();
    let mut rhs_val: Vec<T> = Vec::new();
    for (i, v) in sf.rhs.iter().enumerate() {
        if !v.is_exactly_zero() {
            rhs_idx.push(i);
            rhs_val.push(v.clone());
        }
    }
    let mut work = vec![T::zero(); m];
    lu.ftran(&mut work, SparseVec::new(&rhs_idx, &rhs_val));
    let mut x_b: Vec<T> = (0..m).map(|c| work[lu.row_of(c)].clone()).collect();

    // d = c − AᵀB⁻ᵀc_B from one dense BTRAN (basic columns price to exactly
    // zero by construction).
    let cb: Vec<T> = basis.iter().map(|&b| sf.costs[b].clone()).collect();
    let mut rho = vec![T::zero(); m];
    lu.btran_dense(&mut rho, &cb);
    let num_cols = sf.num_cols;
    let mut row = vec![T::zero(); num_cols];
    let mut product = RowProduct::new(&sf.matrix, &sf.costs);
    product.compute(&sf.matrix, &rho, &mut row);
    let mut d: Vec<T> = sf
        .costs
        .iter()
        .zip(&row)
        .map(|(c, r)| c.sub_ref(r))
        .collect();
    for &b in &basis {
        d[b] = T::zero();
    }

    if d.iter().any(|dj| dj.is_negative_approx()) {
        // Not dual feasible. Still primal feasible → primal phase 2 warm
        // start; otherwise give up and solve cold.
        if x_b.iter().any(|v| v.is_negative_approx()) {
            return Ok(WarmOutcome::Fallback(sf));
        }
        let solution = crate::revised::reoptimize_primal(sf, basis, options, stats)?;
        crate::certificate::certify_column_solution(&solution)?;
        return Ok(WarmOutcome::Solved(solution));
    }

    // ----------------------- Dual simplex loop -----------------------
    let max_iters = 50_000usize.max(100 * (num_cols + m));
    let mut bland_mode = false;
    let mut degenerate_streak = 0usize;
    let mut iterations = 0usize;

    loop {
        // Leaving row: a primal-infeasible position. Most-negative value by
        // default; smallest basic column index under Bland's rule.
        let leaving = if bland_mode {
            (0..m)
                .filter(|&c| x_b[c].is_negative_approx())
                .min_by_key(|&c| basis[c])
        } else {
            let mut best: Option<usize> = None;
            for c in 0..m {
                if !x_b[c].is_negative_approx() {
                    continue;
                }
                match best {
                    None => best = Some(c),
                    Some(b) => {
                        if x_b[c] < x_b[b] {
                            best = Some(c);
                        }
                    }
                }
            }
            best
        };
        let Some(position) = leaving else {
            break; // Primal feasible and dual feasible: optimal.
        };

        iterations += 1;
        if iterations > max_iters {
            // Should be unreachable (Bland mode terminates finitely); hand
            // the model to the cold path rather than failing the solve.
            return Ok(WarmOutcome::Fallback(sf));
        }

        // Pivot row α_r via unit BTRAN + row product.
        sparse::clear(&mut rho);
        lu.btran_unit(&mut rho, position);
        product.compute(&sf.matrix, &rho, &mut row);

        // Entering column: min ratio d_j / (−α_rj) over α_rj < 0, ties to
        // the smallest index (Bland-compatible in both modes).
        let mut entering: Option<(usize, T)> = None;
        for (j, r_j) in row.iter().enumerate() {
            if !r_j.is_negative_approx() {
                continue;
            }
            let ratio = d[j].div_ref(&-r_j.clone());
            match &entering {
                Some((_, best)) if *best <= ratio => {}
                _ => entering = Some((j, ratio)),
            }
        }
        let Some((entering, _)) = entering else {
            // Row r reads Σ α_rj·x_j = x_B[r] < 0 with every α_rj ≥ 0 and
            // x ≥ 0: the constraints are unsatisfiable.
            return Err(LpError::Infeasible);
        };

        // Pivot — the same algebra as the primal revised pivot.
        sparse::clear(&mut work);
        lu.ftran(&mut work, cols.row(entering));
        let pivot_value = work[lu.row_of(position)].clone();
        let theta = x_b[position].div_ref(&pivot_value);
        for (r, t) in work.iter().enumerate() {
            if t.is_exactly_zero() {
                continue;
            }
            let c = lu.position_of(r);
            if c == position || theta.is_exactly_zero() {
                continue;
            }
            x_b[c].sub_mul_assign(t, &theta);
        }
        let d_q = d[entering].clone();
        let degenerate = d_q.is_exactly_zero();
        if !degenerate {
            let step = d_q.div_ref(&pivot_value);
            for (j, r_j) in row.iter().enumerate() {
                if j == entering || r_j.is_exactly_zero() {
                    continue;
                }
                d[j].sub_mul_assign(&step, r_j);
            }
        }
        d[entering] = T::zero();
        lu.push_pivot(position);
        basis[position] = entering;
        x_b[position] = theta;

        stats.phase2_pivots += 1;
        stats.dual_pivots += 1;
        if degenerate {
            stats.degenerate_pivots += 1;
            degenerate_streak += 1;
            if !bland_mode && degenerate_streak > options.degeneracy_streak_limit {
                bland_mode = true;
                stats.fallback_activations += 1;
            }
        } else {
            degenerate_streak = 0;
            bland_mode = false;
        }

        if lu.should_refactor(options.refactor_interval) {
            let basis = &basis;
            let cols = &cols;
            lu.refactorize(|c| cols.row(basis[c]))?;
        }
    }

    let mut column_values = vec![T::zero(); num_cols];
    for (c, &b) in basis.iter().enumerate() {
        column_values[b] = x_b[c].clone();
    }
    let solution = ColumnSolution {
        sf,
        column_values,
        total_cols: num_cols,
        basis,
    };
    crate::certificate::certify_column_solution(&solution)?;
    Ok(WarmOutcome::Solved(solution))
}

#[cfg(test)]
mod tests {
    use privmech_numerics::{rat, Rational};

    use super::{warm_reoptimize, WarmOutcome};
    use crate::model::{LinExpr, Model, Relation, Sense, VarBound};
    use crate::simplex::{PivotStats, SolverOptions};
    use crate::standard::{build_standard_form, StandardForm};

    /// min -x1 - x2  s.t.  x1 <= 1, x2 <= 1. Standard-form columns:
    /// x1(0), x2(1), slack1(2), slack2(3); the optimal basis is [0, 1].
    fn box_maximum() -> StandardForm<Rational> {
        let mut m: Model<Rational> = Model::new();
        let x1 = m.add_var("x1", VarBound::NonNegative);
        let x2 = m.add_var("x2", VarBound::NonNegative);
        m.add_constraint(LinExpr::term(x1, rat(1, 1)), Relation::Le, rat(1, 1))
            .unwrap();
        m.add_constraint(LinExpr::term(x2, rat(1, 1)), Relation::Le, rat(1, 1))
            .unwrap();
        m.set_objective(
            Sense::Minimize,
            LinExpr::term(x1, rat(-1, 1)).plus(x2, rat(-1, 1)),
        )
        .unwrap();
        build_standard_form(&m).unwrap()
    }

    /// min c·x  s.t.  x >= 1, x <= 3. Standard-form columns: x(0),
    /// surplus(1), slack(2). The slack/surplus basis [1, 2] reads
    /// x_B = (-1, 3): primal infeasible by construction.
    fn interval_lp(cost: i64) -> StandardForm<Rational> {
        let mut m: Model<Rational> = Model::new();
        let x = m.add_var("x", VarBound::NonNegative);
        m.add_constraint(LinExpr::term(x, rat(1, 1)), Relation::Ge, rat(1, 1))
            .unwrap();
        m.add_constraint(LinExpr::term(x, rat(1, 1)), Relation::Le, rat(3, 1))
            .unwrap();
        m.set_objective(Sense::Minimize, LinExpr::term(x, rat(cost, 1)))
            .unwrap();
        build_standard_form(&m).unwrap()
    }

    fn warm(
        sf: StandardForm<Rational>,
        basis: &[usize],
    ) -> (
        Result<WarmOutcome<Rational>, crate::model::LpError>,
        PivotStats,
    ) {
        let mut stats = PivotStats::default();
        let outcome = warm_reoptimize(sf, basis, &SolverOptions::default(), &mut stats);
        (outcome, stats)
    }

    /// A warm basis that is already optimal must be accepted with zero dual
    /// pivots — the loop never runs, the certificate still verifies.
    #[test]
    fn optimal_basis_warm_start_takes_zero_pivots() {
        let (outcome, stats) = warm(box_maximum(), &[0, 1]);
        match outcome.unwrap() {
            WarmOutcome::Solved(sol) => {
                assert_eq!(sol.column_values[0], rat(1, 1));
                assert_eq!(sol.column_values[1], rat(1, 1));
            }
            WarmOutcome::Fallback(_) => panic!("optimal basis must warm-start"),
        }
        assert_eq!(stats.dual_pivots, 0, "no dual pivots on an optimal basis");
        assert_eq!(stats.phase1_pivots, 0, "warm starts never run phase 1");
    }

    /// A dual-feasible but primal-infeasible basis (the reparameterized-sweep
    /// shape) is repaired by actual dual-simplex pivots.
    #[test]
    fn dual_feasible_basis_repairs_primal_infeasibility() {
        // min +x: costs price every column non-negative under the slack
        // basis, but x_B = (-1, 3) needs repair.
        let (outcome, stats) = warm(interval_lp(1), &[1, 2]);
        match outcome.unwrap() {
            WarmOutcome::Solved(sol) => assert_eq!(sol.column_values[0], rat(1, 1)),
            WarmOutcome::Fallback(_) => panic!("dual-feasible basis must warm-start"),
        }
        assert!(stats.dual_pivots >= 1, "repair requires dual pivots");
    }

    /// A carried basis that is neither primal nor dual feasible under the new
    /// coefficients must hand the standard form back for a cold solve.
    #[test]
    fn doubly_infeasible_basis_falls_back_cold() {
        // min -x: d[x] = -1 (dual infeasible) and x_B = (-1, 3) (primal
        // infeasible) — nothing to warm-start from.
        let (outcome, stats) = warm(interval_lp(-1), &[1, 2]);
        assert!(matches!(outcome.unwrap(), WarmOutcome::Fallback(_)));
        assert_eq!(stats.dual_pivots, 0);
    }

    /// A basis that is singular under the new coefficients (duplicate
    /// columns) must fall back instead of erroring.
    #[test]
    fn singular_basis_falls_back_cold() {
        let (outcome, _) = warm(interval_lp(1), &[0, 0]);
        assert!(matches!(outcome.unwrap(), WarmOutcome::Fallback(_)));
    }

    /// Shape mismatches — wrong length or out-of-range columns — are
    /// rejected before any factorization work.
    #[test]
    fn mismatched_basis_shapes_fall_back_cold() {
        let (outcome, _) = warm(interval_lp(1), &[1]);
        assert!(matches!(outcome.unwrap(), WarmOutcome::Fallback(_)));
        let (outcome, _) = warm(interval_lp(1), &[1, 99]);
        assert!(matches!(outcome.unwrap(), WarmOutcome::Fallback(_)));
    }
}
