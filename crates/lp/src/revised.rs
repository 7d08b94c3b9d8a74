//! The revised simplex: two-phase simplex iterations priced from a sparse
//! LU basis factorization instead of a dense tableau.
//!
//! Where the dense form ([`crate::simplex`]) rewrites every tableau row on
//! every pivot (O(rows × cols) scalar operations), this form keeps only
//!
//! * the original constraint matrix: the standard form's CSR store borrowed
//!   as the row view, plus one owned transpose as the column view (neither
//!   changes during the solve; artificial unit columns are synthesized on
//!   demand, never stored),
//! * the basis factorization ([`LuFactors`]: sparse LU with Forrest–Tomlin
//!   updates, see [`crate::lu`]),
//! * the current basic solution `x_B`,
//! * the current reduced-cost vector `d` and phase objective value,
//!
//! and performs per pivot: one sparse **FTRAN** of the entering column (the
//! ratio-test / pivot-column stage), one **unit BTRAN** of the leaving
//! position followed by the row product `ρᵀA` (recovering the pivot row of
//! the tableau without storing any tableau; computed fraction-free, see
//! [`crate::pivot_row`]), the reduced-cost update over that row, and one
//! basis update on the spike the FTRAN kept. On the paper's LPs — thousands of rows touching 2–4
//! structural columns each — this replaces the dense update's full-matrix
//! pass with work proportional to the factorization's actual nonzeros.
//!
//! # Why the pivot sequence is identical to the dense form
//!
//! The three decisions a simplex iteration makes — entering column, leaving
//! position, degeneracy of the step — are functions of the reduced costs
//! `d`, the pivot column `B⁻¹a_q`, and the basic solution `x_B`. This module
//! maintains `d` by a recurrence *exactly equal* to the one the dense form
//! applies to its objective row: the dense form computes
//! `d_j ← d_j − d_q·(r_j/r_q)`, this form `d_j ← d_j − (d_q/r_q)·r_j` over
//! the BTRAN'd pivot row — one division per pivot instead of one per column,
//! and the same value in an exact field. It obtains the pivot column
//! exactly via FTRAN and updates `x_B` by the dense form's right-hand-side
//! recurrence. Over an exact field equal recurrences from equal starting
//! points stay equal forever, and the
//! decisions are made by the *shared* stage implementations
//! ([`crate::pricing`], [`crate::ratio`]) — so every entering/leaving choice
//! coincides with the dense form's, phases included. The contract is
//! asserted pivot-for-pivot in `tests/properties.rs` via
//! [`crate::simplex::solve_model_traced`]. The solver therefore refuses
//! inexact scalars (the dispatch in [`crate::simplex`] routes `f64` to the
//! dense form unconditionally).

use privmech_linalg::sparse;
use privmech_linalg::sparse::{Csr, SparseVec};
use privmech_linalg::Scalar;

use crate::lu::LuFactors;
use crate::model::LpError;
use crate::pivot_row::RowProduct;
use crate::pricing::FallbackState;
use crate::ratio::choose_leaving;
use crate::simplex::{record, ColumnSolution, PivotStats, SolverOptions, TracePhase, TraceSink};
use crate::standard::StandardForm;

/// All constraint data the revised iterations read, fixed for the whole
/// solve: the standard form's CSR store (row view, borrowed) plus its
/// transpose (column view, built once per solve). Artificial columns are
/// never materialized — they are unit vectors synthesized on demand by
/// [`Matrix::col`] / appended last by [`Matrix::row_entries`], matching the
/// historical ordering of the copied sparse views exactly.
struct Matrix<'a, T: Scalar> {
    /// Row-major view: the constraint store itself.
    rows: &'a Csr<T>,
    /// Column-major view: the transpose (entries within a column iterate in
    /// row order, the order the basis replay and FTRAN scatter expect).
    cols: Csr<T>,
    /// Column count including artificials.
    total_cols: usize,
    /// First artificial column index (== structural + slack column count).
    first_artificial: usize,
    /// Row of artificial `k` (column `first_artificial + k`).
    art_rows: Vec<usize>,
    /// Row → its artificial column, `usize::MAX` when the row has none.
    row_art: Vec<usize>,
    /// The artificials' single stored value, borrowed by [`Matrix::col`].
    one: T,
}

impl<'a, T: Scalar> Matrix<'a, T> {
    fn build(sf: &'a StandardForm<T>, artificial_rows: &[usize]) -> Self {
        let first_artificial = sf.num_cols;
        let total_cols = sf.num_cols + artificial_rows.len();
        let mut row_art = vec![usize::MAX; sf.num_rows()];
        for (k, &row) in artificial_rows.iter().enumerate() {
            row_art[row] = first_artificial + k;
        }
        Matrix {
            rows: &sf.matrix,
            cols: sf.matrix.transpose(),
            total_cols,
            first_artificial,
            art_rows: artificial_rows.to_vec(),
            row_art,
            one: T::one(),
        }
    }

    /// Column `j` as a borrowed sparse vector: a transpose row for real
    /// columns, a synthesized unit vector for artificials.
    fn col(&self, j: usize) -> SparseVec<'_, T> {
        if j < self.first_artificial {
            self.cols.row(j)
        } else {
            let k = j - self.first_artificial;
            SparseVec::new(
                std::slice::from_ref(&self.art_rows[k]),
                std::slice::from_ref(&self.one),
            )
        }
    }

    /// Row `r`'s entries in increasing column order, the row's artificial
    /// (largest column index, if any) last.
    fn row_entries(&self, r: usize) -> impl Iterator<Item = (usize, &T)> + '_ {
        let art = self.row_art[r];
        self.rows
            .row(r)
            .iter()
            .chain((art != usize::MAX).then_some((art, &self.one)))
    }

    fn is_artificial(&self, col: usize) -> bool {
        col >= self.first_artificial
    }

    /// `out ← ρᵀA` over every column, by `product` (built from this
    /// matrix's row view). An artificial column is the unit vector of its
    /// row, so its entry is that row's `ρ`.
    fn row_product(&self, product: &mut RowProduct, rho: &[T], out: &mut [T]) {
        let (real, artificial) = out.split_at_mut(self.first_artificial);
        product.compute(self.rows, rho, real);
        for (out, &r) in artificial.iter_mut().zip(&self.art_rows) {
            *out = rho[r].clone();
        }
    }
}

/// Mutable iteration state of one revised solve.
struct State<T: Scalar> {
    /// The row product `ρᵀA` over the real columns: the constraint store's
    /// integer view and the product's accumulators.
    product: RowProduct,
    lu: LuFactors<T>,
    /// Basic column per position.
    basis: Vec<usize>,
    /// Current basic solution (`x_B`), by position.
    x_b: Vec<T>,
    /// Reduced costs of the current phase, by column.
    d: Vec<T>,
    /// Current phase objective value (read for the phase-1 feasibility
    /// verdict).
    obj_val: T,
    /// Dense scratch, internal-row space: FTRAN results.
    work: Vec<T>,
    /// Dense scratch, internal-row space: BTRAN results.
    rho: Vec<T>,
    /// Dense scratch, column space: the BTRAN'd pivot row.
    row: Vec<T>,
}

impl<T: Scalar> State<T> {
    /// Recover tableau row `position` into `self.row`: a unit BTRAN
    /// followed by the row product.
    fn compute_pivot_row(&mut self, matrix: &Matrix<'_, T>, position: usize) {
        sparse::clear(&mut self.rho);
        self.lu.btran_unit(&mut self.rho, position);
        matrix.row_product(&mut self.product, &self.rho, &mut self.row);
    }

    /// Price the real objective from scratch: `d = c − (c_Bᵀ B⁻¹) A` from
    /// one dense BTRAN and one row product, basic columns at exactly zero,
    /// and the objective value `c_Bᵀ x_B`. `costs` has one entry per column,
    /// artificials included.
    fn price(&mut self, matrix: &Matrix<'_, T>, costs: &[T]) {
        let cb: Vec<T> = self.basis.iter().map(|&b| costs[b].clone()).collect();
        sparse::clear(&mut self.rho);
        self.lu.btran_dense(&mut self.rho, &cb);
        matrix.row_product(&mut self.product, &self.rho, &mut self.row);
        for ((d_j, c_j), r_j) in self.d.iter_mut().zip(costs).zip(&self.row) {
            *d_j = c_j.sub_ref(r_j);
        }
        for &b in &self.basis {
            self.d[b] = T::zero();
        }
        self.obj_val = T::zero();
        for (c, &b) in self.basis.iter().enumerate() {
            self.obj_val.add_mul_assign(&costs[b], &self.x_b[c]);
        }
    }

    /// Execute the pivot at (`position`, `entering`): update `x_B`, the
    /// reduced costs (a recurrence exactly equal to the dense objective-row
    /// update, over the BTRAN'd pivot row — skipped with `update_costs: false` for drive-out pivots,
    /// whose stale phase-1 costs the phase-2 rebuild discards anyway), the
    /// factorization and the basis. `self.work` must hold the entering
    /// column's FTRAN result.
    fn pivot(
        &mut self,
        matrix: &Matrix<'_, T>,
        position: usize,
        entering: usize,
        update_costs: bool,
    ) {
        let pivot_value = self.work[self.lu.row_of(position)].clone();
        let theta = self.x_b[position].div_ref(&pivot_value);

        // x_B ← x_B − θ·(pivot column), x_B[position] ← θ; walking the FTRAN
        // result's nonzeros covers exactly the dense form's touched rows.
        for (r, t) in self.work.iter().enumerate() {
            if t.is_exactly_zero() {
                continue;
            }
            let c = self.lu.position_of(r);
            if c == position {
                continue;
            }
            if !theta.is_exactly_zero() {
                self.x_b[c].sub_mul_assign(t, &theta);
            }
        }

        // Reduced costs: d_j ← d_j − (d_q / r_q)·r_j over the recovered
        // pivot row — exactly equal to the dense form's objective-row
        // recurrence d_j − d_q·(r_j / r_q), with one division per pivot —
        // plus the objective value's matching update.
        let d_q = self.d[entering].clone();
        if update_costs && !d_q.is_exactly_zero() {
            self.compute_pivot_row(matrix, position);
            let step = d_q.div_ref(&pivot_value);
            for (j, r_j) in self.row.iter().enumerate() {
                if j == entering || r_j.is_exactly_zero() {
                    continue;
                }
                self.d[j].sub_mul_assign(&step, r_j);
            }
            self.d[entering] = T::zero();
            self.obj_val.add_mul_assign(&d_q, &theta);
        }

        self.lu.push_pivot(position);
        self.basis[position] = entering;
        self.x_b[position] = theta;
    }

    /// Refactorize when the trigger fires (pivot-count interval or the
    /// amortized cost rule; see [`LuFactors::should_refactor`]). A
    /// refactorization changes no observable value — FTRAN/BTRAN results are
    /// exact regardless of how the factorization is composed — so this can
    /// run at any point between pivots.
    fn maybe_refactor(
        &mut self,
        matrix: &Matrix<'_, T>,
        options: &SolverOptions,
    ) -> Result<(), LpError> {
        if self.lu.should_refactor(options.refactor_interval) {
            let basis = &self.basis;
            self.lu.refactorize(|c| matrix.col(basis[c]))?;
        }
        Ok(())
    }

    /// Run simplex iterations for one phase until optimality or
    /// unboundedness — the revised twin of the dense `Tableau::optimize`,
    /// consuming the same pricing and ratio-test stages.
    fn optimize(
        &mut self,
        matrix: &Matrix<'_, T>,
        banned: &[bool],
        phase1: bool,
        options: &SolverOptions,
        stats: &mut PivotStats,
        trace: &mut TraceSink<'_>,
    ) -> Result<(), LpError> {
        let m = self.lu.dim();
        let max_iters = 50_000usize.max(100 * (matrix.total_cols + m));
        let mut pricing = FallbackState::new::<T>(options);

        for _ in 0..max_iters {
            let Some(entering) = pricing.select(&self.d, banned, matrix.total_cols) else {
                return Ok(());
            };
            sparse::clear(&mut self.work);
            self.lu.ftran(&mut self.work, matrix.col(entering));
            let bland_mode = pricing.bland_mode();
            let lu = &self.lu;
            let work = &self.work;
            let x_b = &self.x_b;
            let Some((position, degenerate)) = choose_leaving(
                m,
                &self.basis,
                bland_mode,
                |c| &work[lu.row_of(c)],
                |c| &x_b[c],
            ) else {
                return Err(LpError::Unbounded);
            };
            let leaving_col = self.basis[position];
            let pivot_element = self.work[self.lu.row_of(position)].to_f64();
            self.pivot(matrix, position, entering, true);
            // Devex reference-weight maintenance (no-op for other rules):
            // `self.row` still holds the raw BTRAN'd pivot row computed by
            // the reduced-cost update, so normalizing by the pivot element
            // yields the same α_rj/α_rq ratios the dense form reads off its
            // normalized row.
            let pivot_row = &self.row;
            pricing.update_devex_weights(entering, leaving_col, pivot_element, |j| {
                pivot_row[j].to_f64() / pivot_element
            });
            record(
                trace,
                if phase1 {
                    TracePhase::Phase1
                } else {
                    TracePhase::Phase2
                },
                entering,
                position,
            );

            if phase1 {
                stats.phase1_pivots += 1;
            } else {
                stats.phase2_pivots += 1;
            }
            pricing.after_pivot(degenerate, stats);
            self.maybe_refactor(matrix, options)?;
        }
        Err(LpError::Internal(
            "simplex iteration limit exceeded".to_string(),
        ))
    }
}

/// Solve a standard-form LP by the revised simplex. Only called for exact
/// scalars (the dispatch in [`crate::simplex`] keeps `f64` on the dense
/// form).
pub(crate) fn solve_revised<T: Scalar>(
    sf: StandardForm<T>,
    options: &SolverOptions,
    stats: &mut PivotStats,
    trace: &mut TraceSink<'_>,
) -> Result<ColumnSolution<T>, LpError> {
    debug_assert!(T::is_exact(), "revised simplex requires exact arithmetic");
    let m = sf.num_rows();

    // Initial basis: slack seeds where available, artificials elsewhere —
    // identical to the dense form. Every seed is a unit column, so the
    // initial basis matrix is the identity and the factorization is trivial.
    let mut artificial_rows: Vec<usize> = Vec::new();
    let mut basis = vec![usize::MAX; m];
    for (i, seed) in sf.slack_basis.iter().enumerate() {
        match seed {
            Some(col) => basis[i] = *col,
            None => {
                basis[i] = sf.num_cols + artificial_rows.len();
                artificial_rows.push(i);
            }
        }
    }
    let matrix = Matrix::build(&sf, &artificial_rows);

    let mut state = State {
        product: RowProduct::new(&sf.matrix),
        lu: LuFactors::identity(m),
        basis,
        x_b: sf.rhs.clone(),
        d: vec![T::zero(); matrix.total_cols],
        obj_val: T::zero(),
        work: vec![T::zero(); m],
        rho: vec![T::zero(); m],
        row: vec![T::zero(); matrix.total_cols],
    };

    // -------------------------- Phase 1 --------------------------
    if !artificial_rows.is_empty() {
        // Phase-1 reduced costs: c1 = 1 on artificials, minus every
        // artificially-seeded row (B = I, so the basis inverse is trivial
        // here); the phase objective starts at the artificials' total mass.
        for j in matrix.first_artificial..matrix.total_cols {
            state.d[j] = T::one();
        }
        for &i in &artificial_rows {
            for (j, a) in matrix.row_entries(i) {
                state.d[j].sub_assign_ref(a);
            }
            state.obj_val.add_assign_ref(&sf.rhs[i]);
        }

        let banned = vec![false; matrix.total_cols];
        state.optimize(&matrix, &banned, true, options, stats, trace)?;

        if state.obj_val.is_positive_approx() {
            return Err(LpError::Infeasible);
        }

        // Drive any remaining artificial variables out of the basis: for
        // each position still holding an artificial, recover its tableau row
        // and pivot on the first non-artificial column with a nonzero entry
        // (the dense form's scan order). These cleanup pivots move no mass
        // (the artificial sits at value zero) and are not counted in the
        // stats — exactly like the dense form.
        for position in 0..m {
            if !matrix.is_artificial(state.basis[position]) {
                continue;
            }
            state.compute_pivot_row(&matrix, position);
            let replacement = (0..sf.num_cols).find(|&j| !state.row[j].is_zero_approx());
            if let Some(col) = replacement {
                sparse::clear(&mut state.work);
                state.lu.ftran(&mut state.work, matrix.col(col));
                state.pivot(&matrix, position, col, false);
                record(trace, TracePhase::DriveOut, col, position);
            }
            // A row with no replacement is redundant; the artificial stays
            // basic at value zero, banned from re-entering in phase 2.
        }
    }

    // -------------------------- Phase 2 --------------------------
    // Reduced costs of the real objective, artificial columns banned from
    // entering.
    let mut costs_full = sf.costs.clone();
    costs_full.resize(matrix.total_cols, T::zero());
    state.price(&matrix, &costs_full);

    let banned: Vec<bool> = (0..matrix.total_cols)
        .map(|j| matrix.is_artificial(j))
        .collect();
    state.optimize(&matrix, &banned, false, options, stats, trace)?;

    // ----------------------- Extract solution -----------------------
    let mut column_values = vec![T::zero(); matrix.total_cols];
    for (c, &b) in state.basis.iter().enumerate() {
        column_values[b] = state.x_b[c].clone();
    }
    let total_cols = matrix.total_cols;
    Ok(ColumnSolution {
        sf,
        column_values,
        total_cols,
        basis: state.basis,
    })
}

/// Phase 2 only, from a caller-supplied primal-feasible basis: the primal
/// half of the cross-parameter warm start ([`crate::dual_simplex`]).
///
/// `basis` must contain no artificial columns and factor nonsingularly (the
/// warm-start driver has already verified both), and `B⁻¹b ≥ 0` must hold —
/// then the ordinary phase-2 iterations converge from it without any
/// phase 1. Like every warm-started path this generally follows a different
/// pivot sequence than a cold solve, so the caller certificate-verifies the
/// result.
pub(crate) fn reoptimize_primal<T: Scalar>(
    sf: StandardForm<T>,
    basis: Vec<usize>,
    options: &SolverOptions,
    stats: &mut PivotStats,
) -> Result<ColumnSolution<T>, LpError> {
    debug_assert!(T::is_exact(), "revised simplex requires exact arithmetic");
    let m = sf.num_rows();
    debug_assert!(basis.iter().all(|&b| b < sf.num_cols));
    let matrix = Matrix::build(&sf, &[]);

    let mut state = State {
        product: RowProduct::new(&sf.matrix),
        lu: LuFactors::identity(m),
        basis,
        x_b: vec![T::zero(); m],
        d: vec![T::zero(); matrix.total_cols],
        obj_val: T::zero(),
        work: vec![T::zero(); m],
        rho: vec![T::zero(); m],
        row: vec![T::zero(); matrix.total_cols],
    };
    {
        let basis = &state.basis;
        state.lu.refactorize(|c| matrix.col(basis[c]))?;
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
    state
        .lu
        .ftran(&mut state.work, SparseVec::new(&rhs_idx, &rhs_val));
    for c in 0..m {
        state.x_b[c] = state.work[state.lu.row_of(c)].clone();
    }

    // Reduced costs and objective — the phase-2 rebuild of `solve_revised`,
    // with no artificial columns to ban.
    state.price(&matrix, &sf.costs);

    let banned = vec![false; matrix.total_cols];
    state.optimize(&matrix, &banned, false, options, stats, &mut None)?;

    let mut column_values = vec![T::zero(); matrix.total_cols];
    for (c, &b) in state.basis.iter().enumerate() {
        column_values[b] = state.x_b[c].clone();
    }
    let total_cols = matrix.total_cols;
    Ok(ColumnSolution {
        sf,
        column_values,
        total_cols,
        basis: state.basis,
    })
}

#[cfg(test)]
mod tests {
    use privmech_numerics::{rat, Rational};

    use super::Matrix;
    use crate::model::{LinExpr, Model, Relation, Sense, VarBound};
    use crate::pivot_row::RowProduct;
    use crate::standard::build_standard_form;

    /// The row product over a matrix with artificial columns equals the
    /// column-by-column dot product `a_jᵀρ` that synthesizes each
    /// artificial as a unit vector.
    #[test]
    fn row_product_covers_artificial_columns() {
        let mut m: Model<Rational> = Model::new();
        let x = m.add_var("x", VarBound::NonNegative);
        let y = m.add_var("y", VarBound::NonNegative);
        let z = m.add_var("z", VarBound::NonNegative);
        let rows = [
            (rat(1, 2), rat(-2, 3), rat(5, 9), Relation::Eq, rat(1, 1)),
            (rat(3, 4), rat(0, 1), rat(-1, 9), Relation::Ge, rat(1, 3)),
            (rat(-7, 5), rat(1, 6), rat(2, 1), Relation::Le, rat(4, 1)),
            (rat(1, 1), rat(1, 1), rat(1, 1), Relation::Eq, rat(2, 1)),
        ];
        for (a, b, c, rel, rhs) in rows {
            let expr = LinExpr::term(x, a).plus(y, b).plus(z, c);
            m.add_constraint(expr, rel, rhs).unwrap();
        }
        m.set_objective(Sense::Minimize, LinExpr::term(x, rat(1, 1)))
            .unwrap();
        let sf = build_standard_form(&m).unwrap();
        let artificial_rows: Vec<usize> = (0..sf.num_rows())
            .filter(|&i| sf.slack_basis[i].is_none())
            .collect();
        assert!(
            !artificial_rows.is_empty(),
            "the == and >= rows need artificials"
        );
        let matrix = Matrix::build(&sf, &artificial_rows);
        let mut product = RowProduct::new(&sf.matrix);
        let weights = [rat(-3, 7), rat(0, 1), rat(5, 2), rat(1, 14)];
        for rho in [weights.to_vec(), vec![Rational::zero(); 4]] {
            let mut out = vec![rat(9, 1); matrix.total_cols];
            matrix.row_product(&mut product, &rho, &mut out);
            let expected: Vec<Rational> = (0..matrix.total_cols)
                .map(|j| matrix.col(j).dot(&rho))
                .collect();
            assert_eq!(out, expected);
        }
    }
}
