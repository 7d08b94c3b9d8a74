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
//!
//! and performs per iteration: one **BTRAN** of the phase's basic costs for
//! the simplex multipliers `y = c_Bᵀ B⁻¹`, and the product `yᵀA`
//! accumulated in integers and never normalized, which prices every column
//! as `d = c − yᵀA` (see [`crate::pivot_row`]); one sparse **FTRAN** of
//! the entering column (the ratio-test / pivot-column stage); and one basis
//! update on the spike the FTRAN kept. The pivot row itself (a unit BTRAN
//! and a normalized row product) is recovered only for the drive-out pivots
//! after phase 1. On the paper's LPs — thousands of rows touching 2–4
//! structural columns each — this replaces the dense update's full-matrix
//! pass with work proportional to the factorization's actual nonzeros.
//!
//! # Why the pivot sequence is identical to the dense form
//!
//! The three decisions a simplex iteration makes — entering column, leaving
//! position, degeneracy of the step — are functions of the reduced costs
//! `d`, the pivot column `B⁻¹a_q`, and the basic solution `x_B`. The dense
//! form maintains `d` as its objective row by a recurrence; this form
//! recomputes it from the multipliers at every iteration. Over an exact
//! field both are the one value `c − c_Bᵀ B⁻¹ A` of the current basis, and
//! the pricing view compares it exactly (the unnormalized numerators and
//! denominators give the same signs and the same order as the canonical
//! rationals). The phase-1
//! verdict reads the same objective, `c_Bᵀ x_B`: the artificials' remaining
//! mass. This form obtains the pivot column exactly via FTRAN and updates
//! `x_B` by the dense form's right-hand-side recurrence. Over an exact field
//! equal recurrences from equal starting points stay equal forever, and the
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
use crate::pivot_row::{Int, RowProduct, ScaledCosts};
use crate::pricing::FallbackState;
use crate::ratio::choose_leaving;
use crate::simplex::{record, ColumnSolution, PivotStats, SolverOptions, TracePhase, TraceSink};
use crate::standard::StandardForm;

/// All constraint data the revised iterations read, fixed for the whole
/// solve: the standard form's CSR store (row view, borrowed) plus its
/// transpose (column view, built once per solve). Artificial columns are
/// never materialized — they are unit vectors synthesized on demand by
/// [`Matrix::col`] and priced as the unit columns of their rows by
/// [`RowProduct::reduced_costs`].
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
    /// The artificials' single stored value, borrowed by [`Matrix::col`].
    one: T,
}

impl<'a, T: Scalar> Matrix<'a, T> {
    fn build(sf: &'a StandardForm<T>, artificial_rows: &[usize]) -> Self {
        let first_artificial = sf.num_cols;
        let total_cols = sf.num_cols + artificial_rows.len();
        Matrix {
            rows: &sf.matrix,
            cols: sf.matrix.transpose(),
            total_cols,
            first_artificial,
            art_rows: artificial_rows.to_vec(),
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

    fn is_artificial(&self, col: usize) -> bool {
        col >= self.first_artificial
    }
}

/// One phase's objective: the cost of every column, artificials included,
/// the same costs on the row product's integer scale, and the columns
/// banned from entering.
struct Objective<T: Scalar> {
    costs: Vec<T>,
    scaled: Vec<Int>,
    banned: Vec<bool>,
}

impl<T: Scalar> Objective<T> {
    fn new(product: &RowProduct, costs: Vec<T>, banned: Vec<bool>) -> Self {
        let scaled = product.scale_costs(&costs);
        Objective {
            costs,
            scaled,
            banned,
        }
    }
}

/// Mutable iteration state of one revised solve.
struct State<T: Scalar> {
    /// The products over the real columns, `yᵀA` and `ρᵀA`: the constraint
    /// store's integer view and the products' accumulators.
    product: RowProduct,
    lu: LuFactors<T>,
    /// Basic column per position.
    basis: Vec<usize>,
    /// Current basic solution (`x_B`), by position.
    x_b: Vec<T>,
    /// The reduced costs of the current iteration, by column.
    reduced: ScaledCosts,
    /// Dense scratch, position space: the basic costs `c_B`.
    cb: Vec<T>,
    /// Dense scratch, internal-row space: FTRAN results.
    work: Vec<T>,
    /// Dense scratch, internal-row space: BTRAN results.
    rho: Vec<T>,
    /// Dense scratch, real-column space: the recovered pivot row.
    row: Vec<T>,
}

impl<T: Scalar> State<T> {
    fn new(sf: &StandardForm<T>, matrix: &Matrix<'_, T>, basis: Vec<usize>, x_b: Vec<T>) -> Self {
        let m = sf.num_rows();
        let product = RowProduct::new(&sf.matrix, &sf.costs);
        let reduced = ScaledCosts::new(&product, matrix.art_rows.len());
        State {
            product,
            lu: LuFactors::identity(m),
            basis,
            x_b,
            reduced,
            cb: vec![T::zero(); m],
            work: vec![T::zero(); m],
            rho: vec![T::zero(); m],
            row: vec![T::zero(); sf.num_cols],
        }
    }

    /// Recover tableau row `position` over the real columns into
    /// `self.row`: a unit BTRAN followed by the row product.
    fn compute_pivot_row(&mut self, matrix: &Matrix<'_, T>, position: usize) {
        sparse::clear(&mut self.rho);
        self.lu.btran_unit(&mut self.rho, position);
        self.product.compute(matrix.rows, &self.rho, &mut self.row);
    }

    /// Price every column for `objective` into `self.reduced`: the
    /// multipliers `y = c_Bᵀ B⁻¹` from one BTRAN, then `d = c − yᵀA`.
    /// Basic columns price to exactly zero.
    fn price_from_multipliers(&mut self, matrix: &Matrix<'_, T>, objective: &Objective<T>) {
        for (cb, &b) in self.cb.iter_mut().zip(&self.basis) {
            cb.clone_from(&objective.costs[b]);
        }
        sparse::clear(&mut self.rho);
        self.lu.btran_dense(&mut self.rho, &self.cb);
        self.product.reduced_costs(
            matrix.rows,
            &self.rho,
            &objective.scaled,
            &matrix.art_rows,
            &mut self.reduced,
        );
    }

    /// Execute the pivot at (`position`, `entering`): update `x_B`, the
    /// factorization and the basis. `self.work` must hold the entering
    /// column's FTRAN result.
    fn pivot(&mut self, position: usize, entering: usize) {
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
        objective: &Objective<T>,
        phase1: bool,
        options: &SolverOptions,
        stats: &mut PivotStats,
        trace: &mut TraceSink<'_>,
    ) -> Result<(), LpError> {
        let m = self.lu.dim();
        let max_iters = 50_000usize.max(100 * (matrix.total_cols + m));
        let mut pricing = FallbackState::new::<T>(options);

        for _ in 0..max_iters {
            self.price_from_multipliers(matrix, objective);
            let Some(entering) =
                pricing.select(&self.reduced, &objective.banned, matrix.total_cols)
            else {
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
            self.pivot(position, entering);
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

    let mut state = State::new(&sf, &matrix, basis, sf.rhs.clone());

    // -------------------------- Phase 1 --------------------------
    if !artificial_rows.is_empty() {
        // Phase-1 objective: the sum of the artificials.
        let mut costs = vec![T::zero(); matrix.total_cols];
        for c in &mut costs[matrix.first_artificial..] {
            *c = T::one();
        }
        let banned = vec![false; matrix.total_cols];
        let objective = Objective::new(&state.product, costs, banned);
        state.optimize(&matrix, &objective, true, options, stats, trace)?;

        // The phase-1 optimum `c_Bᵀ x_B`: the artificials' remaining mass.
        let mut mass = T::zero();
        for (&b, x) in state.basis.iter().zip(&state.x_b) {
            if matrix.is_artificial(b) {
                mass.add_assign_ref(x);
            }
        }
        if mass.is_positive_approx() {
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
                state.pivot(position, col);
                record(trace, TracePhase::DriveOut, col, position);
            }
            // A row with no replacement is redundant; the artificial stays
            // basic at value zero, banned from re-entering in phase 2.
        }
    }

    // -------------------------- Phase 2 --------------------------
    // The real objective, artificial columns banned from entering.
    let mut costs = sf.costs.clone();
    costs.resize(matrix.total_cols, T::zero());
    let banned: Vec<bool> = (0..matrix.total_cols)
        .map(|j| matrix.is_artificial(j))
        .collect();
    let objective = Objective::new(&state.product, costs, banned);
    state.optimize(&matrix, &objective, false, options, stats, trace)?;

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
        #[cfg(test)]
        basis: state.basis,
    })
}

#[cfg(test)]
mod tests {
    use privmech_numerics::{rat, Rational};

    use super::Matrix;
    use crate::model::{LinExpr, Model, Relation, Sense, VarBound};
    use crate::pivot_row::{RowProduct, ScaledCosts};
    use crate::standard::build_standard_form;

    /// Pricing over a matrix with artificial columns equals
    /// `c_j − a_jᵀy` column by column, each artificial synthesized as the
    /// unit vector of its row.
    #[test]
    fn reduced_costs_cover_artificial_columns() {
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
        let mut product = RowProduct::new(&sf.matrix, &sf.costs);
        let mut costs = sf.costs.clone();
        costs.resize(matrix.total_cols, rat(1, 1));
        let scaled = product.scale_costs(&costs);
        let mut reduced = ScaledCosts::new(&product, artificial_rows.len());
        let weights = [rat(-3, 7), rat(0, 1), rat(5, 2), rat(1, 14)];
        for y in [weights.to_vec(), vec![Rational::zero(); 4]] {
            product.reduced_costs(&sf.matrix, &y, &scaled, &artificial_rows, &mut reduced);
            for (j, c) in costs.iter().enumerate() {
                assert_eq!(reduced.value(j), c - &matrix.col(j).dot(&y), "column {j}");
            }
        }
    }
}
