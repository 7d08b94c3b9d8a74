//! Two-phase simplex solver: Dantzig pricing with a Bland fallback, in two
//! interchangeable forms — a dense tableau and a revised simplex over a
//! sparse LU basis factorization with Forrest–Tomlin updates.
//!
//! The full solver design — standard-form construction, the zero-rhs `>=`
//! rewrite, the pricing rules, the basis-factorization lifecycle and the
//! dense ≡ revised pivot-sequence contract — is documented in
//! [`crates/lp/SOLVER.md`](https://github.com/privmech/privmech/blob/main/crates/lp/SOLVER.md)
//! (in-tree: `crates/lp/SOLVER.md`). This module header summarizes the parts
//! a caller needs.
//!
//! # Solver forms
//!
//! * **Dense tableau** ([`SolverForm::Dense`]): every pivot eliminates the
//!   entering column from every stored row with one row kernel,
//!   [`Scalar::sub_mul_row`]: over the pivot row's nonzero support for
//!   exact scalars, one branch-free pass over the row for `f64`. A `>=`
//!   row's artificial is not stored when a column equals its negation (the
//!   row's surplus); it reads as that column negated, which is exact, so
//!   the pivots are those of the full tableau bit for bit (`SOLVER.md` §5).
//!   Simple, battle-tested, and the only form the `f64` backend runs (see
//!   below).
//! * **Revised simplex** (what [`SolverForm::Auto`], the default, runs for
//!   exact scalars): the basis is kept as sparse LU factors with
//!   Forrest–Tomlin updates (`crate::lu`), entering columns are FTRAN'd
//!   against the original sparse constraint columns, and every iteration
//!   prices all columns afresh from the simplex multipliers (one BTRAN of
//!   the basic costs, then `d = c − yᵀA`) instead of rewriting the tableau.
//!
//! **Identity contract**: on exact scalars both forms follow the *identical*
//! pivot sequence (same entering column and leaving position at every
//! iteration, phases included) and therefore return bit-identical solutions
//! and [`PivotStats`]. The two forms share the entering rule
//! (`crate::pricing`) and ratio test (`crate::ratio`) as single
//! implementations, fed with exactly equal reduced costs / column entries
//! (exact arithmetic knows nothing of the representation that produced
//! them). The contract is property-tested over random and degenerate LPs
//! ([`solve_model_traced`] exposes the pivot sequence) and pinned end-to-end
//! through `PrivacyEngine` and the serve cache. The `f64` backend always
//! runs the dense tableau — a float FTRAN/BTRAN rounds differently than a
//! float tableau update, which would break both the contract and the
//! backend's carefully preserved seed trajectory — so [`SolverForm::Auto`]
//! falls back to dense for inexact scalars.
//!
//! # Pricing strategy
//!
//! The solver is generic over [`Scalar`]: with `Rational` every pivot is
//! exact; with `f64` a small tolerance is used for the sign tests. The
//! *entering column rule* matters enormously for how many pivots a solve
//! needs:
//!
//! * **Dantzig pricing** (the default): enter the column with the most
//!   negative reduced cost. Empirically this takes far fewer pivots on the
//!   privacy-mechanism LPs than Bland's rule, but on degenerate vertices it
//!   can cycle.
//! * **Bland fallback**: the solver counts consecutive *degenerate* pivots
//!   (leaving ratio exactly zero, so the objective does not move). Once the
//!   streak exceeds [`SolverOptions::degeneracy_streak_limit`], pricing
//!   switches to Bland's smallest-index rule, which provably never cycles.
//!   The first non-degenerate (objective-improving) pivot switches back to
//!   Dantzig. Termination is guaranteed: while Bland is engaged no cycle can
//!   form, so the solver eventually leaves the degenerate vertex with a strict
//!   objective decrease, and the objective can only strictly decrease finitely
//!   many times.
//!
//! Pure Bland pricing remains available through [`PricingRule::Bland`] (used
//! by the regression tests to cross-check objectives).
//!
//! Dantzig pricing only engages for **exact** scalars (`T::is_exact()`): on
//! the heavily degenerate phase-1 tableaus of the paper's LPs the
//! most-negative-cost rule steers `f64` through ill-conditioned bases until
//! accumulated noise fabricates infeasible/unbounded verdicts. The `f64`
//! backend therefore always prices by Bland's rule, exactly like the solver
//! before this rework.
//!
//! # Statistics
//!
//! Every solve reports a [`PivotStats`] on the returned
//! [`Solution`]: pivot counts per phase, degenerate
//! pivot count, how many pivots each pricing rule performed, and how often the
//! Bland fallback engaged. The bench tooling records these alongside wall
//! times so perf regressions can be separated into "more pivots" vs "slower
//! pivots".

use privmech_linalg::{kernels, Scalar};

use crate::model::{LpError, Model, Solution};
use crate::pricing::FallbackState;
use crate::ratio::choose_leaving;
use crate::standard::{build_standard_form, extract_values, report_objective, StandardForm};

/// Entering-column pricing rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PricingRule {
    /// Most-negative reduced cost, falling back to Bland's rule after a
    /// degeneracy streak (see the module docs). The default. Only engages
    /// for exact scalars; inexact backends always price by Bland's rule.
    #[default]
    DantzigWithBlandFallback,
    /// Bland's smallest-index anti-cycling rule throughout.
    Bland,
}

/// Which simplex implementation executes the solve. Both forms follow the
/// identical pivot sequence on exact scalars (see the module docs), so this
/// is an execution detail — it never changes a result, and is therefore
/// deliberately excluded from request fingerprints and cache keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverForm {
    /// Revised simplex for exact scalars, dense tableau for `f64` (a float
    /// FTRAN/BTRAN rounds differently than a float tableau update; see the
    /// module docs). The default.
    #[default]
    Auto,
    /// Always the dense tableau.
    Dense,
}

/// Solver configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverOptions {
    /// Entering-column rule.
    pub pricing: PricingRule,
    /// Number of consecutive degenerate pivots tolerated under Dantzig
    /// pricing before switching to Bland's rule.
    pub degeneracy_streak_limit: usize,
    /// Which simplex implementation to run (a result-invariant execution
    /// detail; see [`SolverForm`]).
    pub form: SolverForm,
    /// Revised simplex only: the most pivots between basis
    /// refactorizations (`1` refactorizes after every pivot). Within that
    /// cap an amortized-cost trigger refactorizes as soon as the next
    /// pivot's FTRAN and BTRAN would cost more than the cycle's average per
    /// pivot, refactorization included (see `crate::lu`).
    /// [`SolverOptions::NEVER_REFACTOR`] disables refactorization (the
    /// factorization then grows by one update per pivot). Ignored by the
    /// dense form.
    pub refactor_interval: usize,
}

impl SolverOptions {
    /// Sentinel for [`SolverOptions::refactor_interval`] disabling
    /// refactorization (the interval cap and the amortized-cost trigger)
    /// entirely.
    pub const NEVER_REFACTOR: usize = usize::MAX;
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            pricing: PricingRule::default(),
            degeneracy_streak_limit: 8,
            form: SolverForm::default(),
            refactor_interval: 64,
        }
    }
}

/// Pivot/iteration statistics for one solve (both phases combined).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PivotStats {
    /// Pivots performed during phase 1 (feasibility search).
    pub phase1_pivots: usize,
    /// Pivots performed during phase 2 (optimization).
    pub phase2_pivots: usize,
    /// Pivots whose leaving ratio was exactly zero (no objective movement).
    pub degenerate_pivots: usize,
    /// Pivots chosen by Dantzig (most-negative reduced cost) pricing.
    pub dantzig_pivots: usize,
    /// Pivots chosen by Bland's smallest-index rule.
    pub bland_pivots: usize,
    /// Times the anti-cycling fallback engaged (Dantzig → Bland).
    pub fallback_activations: usize,
}

impl std::ops::AddAssign<&PivotStats> for PivotStats {
    /// Field-wise accumulation — the one place aggregate statistics (e.g. a
    /// sweep's per-α totals) are summed, so a future counter cannot be
    /// silently dropped from one of several hand-rolled summations.
    fn add_assign(&mut self, rhs: &PivotStats) {
        self.phase1_pivots += rhs.phase1_pivots;
        self.phase2_pivots += rhs.phase2_pivots;
        self.degenerate_pivots += rhs.degenerate_pivots;
        self.dantzig_pivots += rhs.dantzig_pivots;
        self.bland_pivots += rhs.bland_pivots;
        self.fallback_activations += rhs.fallback_activations;
    }
}

impl PivotStats {
    /// Total pivots across both phases.
    #[must_use]
    pub fn total_pivots(&self) -> usize {
        self.phase1_pivots + self.phase2_pivots
    }
}

/// Which stage of the two-phase method a traced pivot belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePhase {
    /// Feasibility search (minimizing the sum of artificials).
    Phase1,
    /// Post-phase-1 cleanup pivots driving residual artificial variables out
    /// of a degenerate basis (not counted in [`PivotStats`]).
    DriveOut,
    /// Optimization of the real objective.
    Phase2,
}

/// One pivot of a simplex solve: which standard-form column entered and
/// which basis position left. [`solve_model_traced`] returns the full
/// sequence; the dense ≡ revised contract tests assert the two forms produce
/// equal traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PivotRecord {
    /// Stage of the two-phase method.
    pub phase: TracePhase,
    /// Entering standard-form column index.
    pub entering: usize,
    /// Leaving basis position (equivalently: dense tableau row).
    pub leaving: usize,
}

/// Trace sink threaded through a solve; `None` costs nothing.
pub(crate) type TraceSink<'a> = Option<&'a mut Vec<PivotRecord>>;

pub(crate) fn record(
    trace: &mut TraceSink<'_>,
    phase: TracePhase,
    entering: usize,
    leaving: usize,
) {
    if let Some(t) = trace.as_deref_mut() {
        t.push(PivotRecord {
            phase,
            entering,
            leaving,
        });
    }
}

/// Where the dense tableau keeps a logical column (see [`solve_dense`]).
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Index of the column in the stored rows.
    stored: usize,
    /// The logical column reads as the negation of the stored one: a `>=`
    /// row's artificial `e_i`, stored as its twin column `−e_i`.
    negated: bool,
}

impl Slot {
    fn plain(stored: usize) -> Self {
        Slot {
            stored,
            negated: false,
        }
    }
}

/// A simplex tableau over `cols` logical columns plus the right-hand side,
/// and a reduced-cost row. The rows store only the columns that are not the
/// exact negation of another ([`Slot`]), the right-hand side last.
struct Tableau<'a, T: Scalar> {
    body: Vec<Vec<T>>,
    /// Reduced costs for the current phase objective over the logical
    /// columns, length `cols + 1` (last entry is minus the current objective
    /// value).
    obj: Vec<T>,
    basis: Vec<usize>,
    cols: usize,
    /// Storage of each logical column, the right-hand side's at `cols`.
    slots: Vec<Slot>,
    /// Columns the entering rule must skip (artificials during phase 2).
    banned: Vec<bool>,
    /// The entering column's logical entries, one per row, loaded by
    /// [`Tableau::load_column`] before the ratio test and the pivot.
    column: Vec<T>,
    /// Scratch buffer for the pivot row's nonzero support, reused across
    /// pivots so the hot loop performs no per-pivot allocation.
    support: Vec<usize>,
    options: &'a SolverOptions,
    stats: &'a mut PivotStats,
}

impl<T: Scalar> Tableau<'_, T> {
    fn rhs(&self, row: usize) -> &T {
        &self.body[row][self.slots[self.cols].stored]
    }

    /// Fill [`Tableau::column`] with logical column `col`.
    fn load_column(&mut self, col: usize) {
        let Slot { stored, negated } = self.slots[col];
        self.column.clear();
        self.column.extend(self.body.iter().map(|row| {
            if negated {
                -row[stored].clone()
            } else {
                row[stored].clone()
            }
        }));
    }

    /// One simplex pivot on (`row`, `col`), with `col` loaded
    /// ([`Tableau::load_column`]).
    fn pivot(&mut self, row: usize, col: usize) {
        // Normalize the pivot row, then record its nonzero support once for
        // the row kernel.
        let pivot_value = self.column[row].clone();
        kernels::div_all(&mut self.body[row], &pivot_value);
        let mut support = std::mem::take(&mut self.support);
        kernels::nonzero_support_into(&self.body[row], &mut support);

        // Eliminate the pivot column from all other rows and the objective
        // row. The pivot row is temporarily moved out so the borrow checker
        // allows in-place updates of its siblings.
        let stored = self.slots[col].stored;
        let pivot_row = std::mem::take(&mut self.body[row]);
        for (r, (body_row, factor)) in self.body.iter_mut().zip(&self.column).enumerate() {
            if r == row || factor.is_zero_approx() {
                continue;
            }
            T::sub_mul_row(body_row, factor, &pivot_row, &support);
            // Exact cancellation: make the pivot column exactly zero so no
            // residue survives in the f64 backend either.
            body_row[stored] = T::zero();
        }
        let factor = self.obj[col].clone();
        if !factor.is_zero_approx() {
            sub_mul_logical(&mut self.obj, &factor, &pivot_row, &self.slots);
            self.obj[col] = T::zero();
        }
        self.body[row] = pivot_row;
        self.support = support;
        self.basis[row] = col;
    }

    /// Run simplex iterations until optimality or unboundedness, following
    /// the configured pricing rule. Returns `Err(LpError::Unbounded)` when a
    /// column with a negative reduced cost has no positive entry.
    fn optimize(&mut self, phase1: bool, trace: &mut TraceSink<'_>) -> Result<(), LpError> {
        // Generous iteration cap: the Bland fallback guarantees finite
        // termination, this cap only guards against a solver bug turning
        // into a hang.
        let max_iters = 50_000usize.max(100 * (self.cols + self.body.len()));
        let mut pricing = FallbackState::new::<T>(self.options);

        for _ in 0..max_iters {
            let Some(col) = pricing.select(self.obj.as_slice(), &self.banned, self.cols) else {
                return Ok(());
            };
            self.load_column(col);
            let Some((row, degenerate)) = choose_leaving(
                self.body.len(),
                &self.basis,
                pricing.bland_mode(),
                |r| &self.column[r],
                |r| self.rhs(r),
            ) else {
                return Err(LpError::Unbounded);
            };
            self.pivot(row, col);
            record(
                trace,
                if phase1 {
                    TracePhase::Phase1
                } else {
                    TracePhase::Phase2
                },
                col,
                row,
            );

            if phase1 {
                self.stats.phase1_pivots += 1;
            } else {
                self.stats.phase2_pivots += 1;
            }
            pricing.after_pivot(degenerate, self.stats);
        }
        Err(LpError::Internal(
            "simplex iteration limit exceeded".to_string(),
        ))
    }
}

/// Solve a [`Model`] by the two-phase simplex method with default options.
pub fn solve_model<T: Scalar>(model: &Model<T>) -> Result<Solution<T>, LpError> {
    solve_model_with(model, &SolverOptions::default())
}

/// Solve a [`Model`] by the two-phase simplex method with explicit options.
pub fn solve_model_with<T: Scalar>(
    model: &Model<T>,
    options: &SolverOptions,
) -> Result<Solution<T>, LpError> {
    solve_impl(model, options, None)
}

/// Solve and additionally return the full pivot sequence.
///
/// This is the observation surface for the dense ≡ revised identity
/// contract: the property tests solve the same model under
/// [`SolverForm::Dense`] and [`SolverForm::Auto`] and assert the returned
/// traces are equal element for element. Tracing allocates one
/// [`PivotRecord`] per pivot and is otherwise free.
pub fn solve_model_traced<T: Scalar>(
    model: &Model<T>,
    options: &SolverOptions,
) -> Result<(Solution<T>, Vec<PivotRecord>), LpError> {
    let mut trace = Vec::new();
    let solution = solve_impl(model, options, Some(&mut trace))?;
    Ok((solution, trace))
}

fn solve_impl<T: Scalar>(
    model: &Model<T>,
    options: &SolverOptions,
    mut trace: TraceSink<'_>,
) -> Result<Solution<T>, LpError> {
    let sf = build_standard_form(model)?;
    let mut stats = PivotStats::default();

    // Handle the degenerate "no constraints" case directly: the optimum is at
    // the origin if the costs are non-negative, otherwise unbounded.
    if sf.num_rows() == 0 {
        for c in &sf.costs {
            if c.is_negative_approx() {
                return Err(LpError::Unbounded);
            }
        }
        let values = extract_values(&sf, &[], sf.num_cols);
        let objective = report_objective(model, &values);
        return Ok(Solution {
            objective,
            values,
            stats,
        });
    }

    // Form dispatch: the revised simplex requires exact arithmetic for its
    // identity contract (module docs), so inexact backends always run the
    // dense tableau.
    let values = if T::is_exact() && options.form != SolverForm::Dense {
        crate::revised::solve_revised(sf, options, &mut stats, &mut trace)?
    } else {
        solve_dense(sf, options, &mut stats, &mut trace)?
    };
    let (objective, values) = values.extract(model);
    Ok(Solution {
        objective,
        values,
        stats,
    })
}

/// The standard-form optimum both solver forms hand back: final column
/// values plus the ingredients to map them onto model variables.
pub(crate) struct ColumnSolution<T: Scalar> {
    pub(crate) sf: StandardForm<T>,
    pub(crate) column_values: Vec<T>,
    pub(crate) total_cols: usize,
    /// Final basis: position → standard-form column (entries `>=
    /// sf.num_cols` are artificials parked at value zero; position `c`'s
    /// artificial is the unit column `e_c`). The optimality certificate
    /// recovers the duals from this basis; only its tests read it.
    #[cfg(test)]
    pub(crate) basis: Vec<usize>,
}

impl<T: Scalar> ColumnSolution<T> {
    fn extract(&self, model: &Model<T>) -> (T, Vec<T>) {
        let values = extract_values(&self.sf, &self.column_values, self.total_cols);
        let objective = report_objective(model, &values);
        (objective, values)
    }
}

/// `obj[j] -= factor · row_j` over the logical columns `j` of the stored row
/// `row` (the right-hand side included), skipping exactly-zero entries. A
/// negated slot adds `factor · row[stored]`, which is the same value:
/// negation is exact, and rounding to nearest is symmetric in sign.
fn sub_mul_logical<T: Scalar>(obj: &mut [T], factor: &T, row: &[T], slots: &[Slot]) {
    for (o, slot) in obj.iter_mut().zip(slots) {
        let v = &row[slot.stored];
        if v.is_exactly_zero() {
            continue;
        }
        if slot.negated {
            o.add_mul_assign(factor, v);
        } else {
            o.sub_mul_assign(factor, v);
        }
    }
}

/// The dense-tableau solve (two phases + artificial-variable cleanup).
///
/// Row `i` without a slack seed gets the artificial column `e_i`. When some
/// standard-form column equals `−e_i` (the surplus of a `>=` row), the
/// artificial is not stored: its logical column reads as that twin's exact
/// negation. Every pivot applies the same row operations to both columns,
/// and `f64` negation is exact with round-to-nearest symmetric in sign, so
/// the twin's negation equals the column a stored artificial would hold in
/// every entry, except that an exactly-zero entry may carry the other
/// sign, which no test reads. Column indices, the pivot rules, the basis,
/// traces and the iteration cap all stay over the logical columns.
fn solve_dense<T: Scalar>(
    sf: StandardForm<T>,
    options: &SolverOptions,
    stats: &mut PivotStats,
    trace: &mut TraceSink<'_>,
) -> Result<ColumnSolution<T>, LpError> {
    let num_rows = sf.num_rows();

    // Seed the basis, adding an artificial column where no slack can, and
    // store an artificial only where no column is its negated twin.
    let mut col_nnz = vec![0usize; sf.num_cols];
    for i in 0..num_rows {
        for (j, _) in sf.matrix.row(i).iter() {
            col_nnz[j] += 1;
        }
    }
    let minus_one = -T::one();
    let mut slots: Vec<Slot> = (0..sf.num_cols).map(Slot::plain).collect();
    let mut stored_cols = sf.num_cols;
    let mut basis = vec![usize::MAX; num_rows];
    for (i, seed) in sf.slack_basis.iter().enumerate() {
        match seed {
            Some(col) => basis[i] = *col,
            None => {
                basis[i] = slots.len();
                let twin = sf
                    .matrix
                    .row(i)
                    .iter()
                    .find(|&(j, v)| col_nnz[j] == 1 && *v == minus_one);
                slots.push(match twin {
                    Some((j, _)) => Slot {
                        stored: j,
                        negated: true,
                    },
                    None => {
                        stored_cols += 1;
                        Slot::plain(stored_cols - 1)
                    }
                });
            }
        }
    }
    let total_cols = slots.len();
    slots.push(Slot::plain(stored_cols));

    // Scatter each CSR row into a dense tableau row — the one place the
    // dense oracle materializes zeros, by design.
    let mut body: Vec<Vec<T>> = Vec::with_capacity(num_rows);
    for (i, &bcol) in basis.iter().enumerate() {
        let mut full = vec![T::zero(); stored_cols + 1];
        for (j, v) in sf.matrix.row(i).iter() {
            full[j] = v.clone();
        }
        let slot = slots[bcol];
        if bcol >= sf.num_cols && !slot.negated {
            full[slot.stored] = T::one();
        }
        full[stored_cols] = sf.rhs[i].clone();
        body.push(full);
    }

    let is_artificial: Vec<bool> = (0..total_cols).map(|j| j >= sf.num_cols).collect();

    // -------------------------- Phase 1 --------------------------
    if total_cols > sf.num_cols {
        // Phase-1 objective: minimize the sum of artificial variables.
        // Reduced costs: c1_j - sum_i c1_{B(i)} * a_ij, where c1 is 1 on
        // artificials and 0 elsewhere. Start from c1 and subtract each
        // artificially-seeded row (the rhs entry folds in minus the phase-1
        // objective value for free).
        let mut obj = vec![T::zero(); total_cols + 1];
        for (j, flag) in is_artificial.iter().enumerate() {
            if *flag {
                obj[j] = T::one();
            }
        }
        for (i, row) in body.iter().enumerate() {
            if is_artificial[basis[i]] {
                sub_mul_logical(&mut obj, &T::one(), row, &slots);
            }
        }

        let mut tableau = Tableau {
            body,
            obj,
            basis,
            cols: total_cols,
            slots,
            banned: vec![false; total_cols],
            column: Vec::with_capacity(num_rows),
            support: Vec::with_capacity(stored_cols + 1),
            options,
            stats,
        };
        tableau.optimize(true, trace)?;

        let phase1_value = -tableau.obj[total_cols].clone();
        if phase1_value.is_positive_approx() {
            return Err(LpError::Infeasible);
        }

        // Drive any remaining artificial variables out of the basis.
        for row in 0..tableau.body.len() {
            if !is_artificial[tableau.basis[row]] {
                continue;
            }
            // Find a non-artificial column with a nonzero coefficient.
            let replacement = (0..sf.num_cols).find(|&j| !tableau.body[row][j].is_zero_approx());
            if let Some(col) = replacement {
                tableau.load_column(col);
                tableau.pivot(row, col);
                record(trace, TracePhase::DriveOut, col, row);
            }
            // If no replacement exists the row is redundant; the artificial
            // stays basic at value zero, which is harmless because the column
            // is banned from entering and its value can only change through a
            // ratio test that keeps it at zero.
        }

        body = tableau.body;
        basis = tableau.basis;
        slots = tableau.slots;
    }

    // -------------------------- Phase 2 --------------------------
    // Reduced costs for the real objective: start from the cost vector and
    // subtract cb_i * row_i for every basic column with a nonzero cost.
    let mut costs_full = sf.costs.clone();
    costs_full.resize(total_cols, T::zero());
    let mut obj = costs_full.clone();
    obj.push(T::zero());
    for (i, row) in body.iter().enumerate() {
        let cb = &costs_full[basis[i]];
        if cb.is_zero_approx() {
            continue;
        }
        sub_mul_logical(&mut obj, cb, row, &slots);
    }
    // The kernel sweep also touched the basic columns themselves; their
    // reduced costs are zero by construction, so restore exactness for f64.
    for (i, _) in body.iter().enumerate() {
        obj[basis[i]] = T::zero();
    }

    let mut tableau = Tableau {
        body,
        obj,
        basis,
        cols: total_cols,
        slots,
        banned: is_artificial,
        column: Vec::with_capacity(num_rows),
        support: Vec::with_capacity(stored_cols + 1),
        options,
        stats,
    };
    tableau.optimize(false, trace)?;

    // ----------------------- Extract solution -----------------------
    let mut column_values = vec![T::zero(); total_cols];
    for (i, &b) in tableau.basis.iter().enumerate() {
        column_values[b] = tableau.rhs(i).clone();
    }
    Ok(ColumnSolution {
        sf,
        column_values,
        total_cols,
        #[cfg(test)]
        basis: tableau.basis,
    })
}

#[cfg(test)]
mod tests {
    use super::{ColumnSolution, PivotStats, PricingRule, SolverOptions};
    use crate::model::{LinExpr, LpError, Model, Relation, Sense, VarBound};
    use privmech_numerics::{rat, Rational};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn maximize_two_variable_example() {
        // max 3x + 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0.
        // Classic Dantzig example; optimum 36 at (2, 6).
        let mut m: Model<f64> = Model::new();
        let x = m.add_var("x", VarBound::NonNegative);
        let y = m.add_var("y", VarBound::NonNegative);
        m.add_constraint(LinExpr::term(x, 1.0), Relation::Le, 4.0)
            .unwrap();
        m.add_constraint(LinExpr::term(y, 2.0), Relation::Le, 12.0)
            .unwrap();
        m.add_constraint(LinExpr::term(x, 3.0).plus(y, 2.0), Relation::Le, 18.0)
            .unwrap();
        m.set_objective(Sense::Maximize, LinExpr::term(x, 3.0).plus(y, 5.0))
            .unwrap();
        let sol = m.solve().unwrap();
        assert!((sol.objective - 36.0).abs() < 1e-9);
        assert!((sol.value(x) - 2.0).abs() < 1e-9);
        assert!((sol.value(y) - 6.0).abs() < 1e-9);
        assert!(sol.stats.total_pivots() > 0);
    }

    #[test]
    fn exact_rational_solution_is_exact() {
        // min x + y  s.t. x + 2y >= 3, 3x + y >= 4, x,y >= 0.
        // Optimum at intersection: x = 1, y = 1, objective 2.
        let mut m: Model<Rational> = Model::new();
        let x = m.add_var("x", VarBound::NonNegative);
        let y = m.add_var("y", VarBound::NonNegative);
        m.add_constraint(
            LinExpr::term(x, rat(1, 1)).plus(y, rat(2, 1)),
            Relation::Ge,
            rat(3, 1),
        )
        .unwrap();
        m.add_constraint(
            LinExpr::term(x, rat(3, 1)).plus(y, rat(1, 1)),
            Relation::Ge,
            rat(4, 1),
        )
        .unwrap();
        m.set_objective(
            Sense::Minimize,
            LinExpr::term(x, rat(1, 1)).plus(y, rat(1, 1)),
        )
        .unwrap();
        let sol = m.solve().unwrap();
        assert_eq!(sol.objective, rat(2, 1));
        assert_eq!(*sol.value(x), rat(1, 1));
        assert_eq!(*sol.value(y), rat(1, 1));
    }

    #[test]
    fn equality_constraints_and_free_variables() {
        // min |style| epigraph-free test: min z s.t. z free, z = x - 2,
        // x + y = 5, y >= 1, all vars >= 0 except z free.
        let mut m: Model<Rational> = Model::new();
        let x = m.add_var("x", VarBound::NonNegative);
        let y = m.add_var("y", VarBound::NonNegative);
        let z = m.add_var("z", VarBound::Free);
        m.add_constraint(
            LinExpr::term(z, rat(1, 1)).plus(x, rat(-1, 1)),
            Relation::Eq,
            rat(-2, 1),
        )
        .unwrap();
        m.add_constraint(
            LinExpr::term(x, rat(1, 1)).plus(y, rat(1, 1)),
            Relation::Eq,
            rat(5, 1),
        )
        .unwrap();
        m.add_constraint(LinExpr::term(y, rat(1, 1)), Relation::Ge, rat(1, 1))
            .unwrap();
        m.set_objective(Sense::Minimize, LinExpr::term(z, rat(1, 1)))
            .unwrap();
        let sol = m.solve().unwrap();
        // x can go as low as 0 (then y = 5 >= 1), so z = x - 2 = -2.
        assert_eq!(sol.objective, rat(-2, 1));
        assert_eq!(*sol.value(z), rat(-2, 1));
        // Phase 1 had to run: equality rows need artificial variables.
        assert!(sol.stats.phase1_pivots > 0);
    }

    #[test]
    fn infeasible_detected() {
        let mut m: Model<Rational> = Model::new();
        let x = m.add_var("x", VarBound::NonNegative);
        m.add_constraint(LinExpr::term(x, rat(1, 1)), Relation::Le, rat(1, 1))
            .unwrap();
        m.add_constraint(LinExpr::term(x, rat(1, 1)), Relation::Ge, rat(2, 1))
            .unwrap();
        m.set_objective(Sense::Minimize, LinExpr::term(x, rat(1, 1)))
            .unwrap();
        assert_eq!(m.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut m: Model<f64> = Model::new();
        let x = m.add_var("x", VarBound::NonNegative);
        m.add_constraint(LinExpr::term(x, 1.0), Relation::Ge, 1.0)
            .unwrap();
        m.set_objective(Sense::Maximize, LinExpr::term(x, 1.0))
            .unwrap();
        assert_eq!(m.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn missing_objective_is_an_error() {
        let m: Model<f64> = Model::new();
        assert_eq!(m.solve().unwrap_err(), LpError::MissingObjective);
    }

    #[test]
    fn no_constraints_minimization_at_origin() {
        let mut m: Model<Rational> = Model::new();
        let x = m.add_var("x", VarBound::NonNegative);
        m.set_objective(Sense::Minimize, LinExpr::term(x, rat(3, 1)))
            .unwrap();
        let sol = m.solve().unwrap();
        assert_eq!(sol.objective, Rational::zero());
        assert_eq!(sol.stats, PivotStats::default());
        // And the unbounded direction is detected without constraints too.
        let mut m2: Model<Rational> = Model::new();
        let y = m2.add_var("y", VarBound::NonNegative);
        m2.set_objective(Sense::Maximize, LinExpr::term(y, rat(1, 1)))
            .unwrap();
        assert_eq!(m2.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn minimize_max_epigraph_helper() {
        // minimize max(x, 4 - x) over 0 <= x <= 4: optimum 2 at x = 2.
        let mut m: Model<Rational> = Model::new();
        let x = m.add_var("x", VarBound::NonNegative);
        m.add_constraint(LinExpr::term(x, rat(1, 1)), Relation::Le, rat(4, 1))
            .unwrap();
        // Expressions: x and 4 - x.
        let e1 = LinExpr::term(x, rat(1, 1));
        let mut e2 = LinExpr::term(x, rat(-1, 1));
        e2.add_constant(rat(4, 1));
        let d = m.minimize_max(vec![e1, e2]).unwrap();
        let sol = m.solve().unwrap();
        assert_eq!(sol.objective, rat(2, 1));
        assert_eq!(*sol.value(d), rat(2, 1));
        assert_eq!(*sol.value(x), rat(2, 1));
    }

    fn beale_cycling_model() -> Model<Rational> {
        // Beale's classical cycling example (Chvátal, Linear Programming):
        //   max 10a - 57b - 9c - 24d
        //   s.t. 0.5a - 5.5b - 2.5c + 9d <= 0
        //        0.5a - 1.5b - 0.5c +  d <= 0
        //        a <= 1
        // The textbook optimum is 1 at a = 1, c = 1, b = d = 0. Dantzig's
        // largest-coefficient rule cycles here without anti-cycling help.
        let mut m: Model<Rational> = Model::new();
        let a = m.add_var("a", VarBound::NonNegative);
        let b = m.add_var("b", VarBound::NonNegative);
        let c = m.add_var("c", VarBound::NonNegative);
        let d = m.add_var("d", VarBound::NonNegative);
        m.add_constraint(
            LinExpr::term(a, rat(1, 2))
                .plus(b, rat(-11, 2))
                .plus(c, rat(-5, 2))
                .plus(d, rat(9, 1)),
            Relation::Le,
            Rational::zero(),
        )
        .unwrap();
        m.add_constraint(
            LinExpr::term(a, rat(1, 2))
                .plus(b, rat(-3, 2))
                .plus(c, rat(-1, 2))
                .plus(d, rat(1, 1)),
            Relation::Le,
            Rational::zero(),
        )
        .unwrap();
        m.add_constraint(LinExpr::term(a, rat(1, 1)), Relation::Le, rat(1, 1))
            .unwrap();
        m.set_objective(
            Sense::Maximize,
            LinExpr::term(a, rat(10, 1))
                .plus(b, rat(-57, 1))
                .plus(c, rat(-9, 1))
                .plus(d, rat(-24, 1)),
        )
        .unwrap();
        m
    }

    #[test]
    fn degenerate_lp_terminates_with_default_pricing() {
        let m = beale_cycling_model();
        let sol = m.solve().unwrap();
        assert_eq!(sol.objective, rat(1, 1));
        // Beale's optimum is unique: a = 1, c = 1, b = d = 0 (vars 0..=3).
        assert_eq!(sol.values[0], rat(1, 1));
        assert_eq!(sol.values[1], Rational::zero());
        assert_eq!(sol.values[2], rat(1, 1));
        assert_eq!(sol.values[3], Rational::zero());
        assert!(
            sol.stats.degenerate_pivots > 0,
            "Beale's example is degenerate"
        );
    }

    #[test]
    fn dantzig_fallback_matches_pure_bland_on_cycling_lp() {
        // The degeneracy regression demanded by the perf rework: the
        // Dantzig-with-fallback default must terminate on the classic cycling
        // example and agree with pure Bland's rule on the objective.
        let m = beale_cycling_model();
        let dantzig = crate::simplex::solve_model_with(
            &m,
            &SolverOptions {
                pricing: PricingRule::DantzigWithBlandFallback,
                // Force the fallback machinery to engage almost immediately.
                degeneracy_streak_limit: 1,
                ..SolverOptions::default()
            },
        )
        .unwrap();
        let bland = crate::simplex::solve_model_with(
            &m,
            &SolverOptions {
                pricing: PricingRule::Bland,
                degeneracy_streak_limit: 1,
                ..SolverOptions::default()
            },
        )
        .unwrap();
        assert_eq!(dantzig.objective, rat(1, 1));
        assert_eq!(bland.objective, rat(1, 1));
        assert_eq!(dantzig.objective, bland.objective);
        assert_eq!(
            bland.stats.dantzig_pivots, 0,
            "pure Bland never prices by Dantzig"
        );
        assert!(bland.stats.bland_pivots > 0);
    }

    #[test]
    fn pivot_stats_are_plausible() {
        let mut m: Model<Rational> = Model::new();
        let x = m.add_var("x", VarBound::NonNegative);
        let y = m.add_var("y", VarBound::NonNegative);
        m.add_constraint(
            LinExpr::term(x, rat(1, 1)).plus(y, rat(1, 1)),
            Relation::Le,
            rat(10, 1),
        )
        .unwrap();
        m.set_objective(
            Sense::Maximize,
            LinExpr::term(x, rat(1, 1)).plus(y, rat(2, 1)),
        )
        .unwrap();
        let sol = m.solve().unwrap();
        assert_eq!(sol.objective, rat(20, 1));
        let s = sol.stats;
        assert_eq!(s.total_pivots(), s.phase1_pivots + s.phase2_pivots);
        assert_eq!(s.total_pivots(), s.dantzig_pivots + s.bland_pivots);
        assert!(s.total_pivots() >= 1);
        assert_eq!(s.fallback_activations, 0);
    }

    #[test]
    fn negative_rhs_rows_are_normalized() {
        // Constraint written with a negative right-hand side.
        let mut m: Model<Rational> = Model::new();
        let x = m.add_var("x", VarBound::NonNegative);
        let y = m.add_var("y", VarBound::NonNegative);
        // -x - y <= -2  (i.e. x + y >= 2)
        m.add_constraint(
            LinExpr::term(x, rat(-1, 1)).plus(y, rat(-1, 1)),
            Relation::Le,
            rat(-2, 1),
        )
        .unwrap();
        m.set_objective(
            Sense::Minimize,
            LinExpr::term(x, rat(2, 1)).plus(y, rat(3, 1)),
        )
        .unwrap();
        let sol = m.solve().unwrap();
        assert_eq!(sol.objective, rat(4, 1));
        assert_eq!(*sol.value(x), rat(2, 1));
    }

    #[test]
    fn dense_and_revised_agree_on_the_cycling_lp() {
        use super::{SolverForm, TracePhase};
        let m = beale_cycling_model();
        let dense = crate::simplex::solve_model_traced(
            &m,
            &SolverOptions {
                form: SolverForm::Dense,
                ..SolverOptions::default()
            },
        )
        .unwrap();
        let revised = crate::simplex::solve_model_traced(&m, &SolverOptions::default()).unwrap();
        assert_eq!(dense.0, revised.0, "solutions must be bit-identical");
        assert_eq!(dense.1, revised.1, "pivot sequences must be identical");
        assert!(dense.1.iter().all(|r| matches!(
            r.phase,
            TracePhase::Phase1 | TracePhase::DriveOut | TracePhase::Phase2
        )));
    }

    /// A default revised solve of `m`, audited by the exact optimality
    /// certificate.
    fn certify_default_solve(m: &Model<Rational>) -> Result<ColumnSolution<Rational>, LpError> {
        let sf = crate::standard::build_standard_form(m)?;
        let mut stats = PivotStats::default();
        let options = SolverOptions::default();
        let sol = crate::revised::solve_revised(sf, &options, &mut stats, &mut None)?;
        crate::certificate::certify_column_solution(&sol)?;
        Ok(sol)
    }

    #[test]
    fn default_solves_carry_an_optimality_certificate() {
        certify_default_solve(&beale_cycling_model()).unwrap();

        // Equality rows force phase-1 artificials; the third row repeats the
        // second, so one artificial stays basic at zero and the certificate
        // prices it as the unit column of its position.
        let mut m: Model<Rational> = Model::new();
        let x = m.add_var("x", VarBound::NonNegative);
        let y = m.add_var("y", VarBound::NonNegative);
        let z = m.add_var("z", VarBound::Free);
        let rows = [
            (LinExpr::term(z, rat(1, 1)).plus(x, rat(-1, 1)), rat(-2, 1)),
            (LinExpr::term(x, rat(1, 1)).plus(y, rat(1, 1)), rat(5, 1)),
            (LinExpr::term(x, rat(2, 1)).plus(y, rat(2, 1)), rat(10, 1)),
        ];
        for (expr, rhs) in rows {
            m.add_constraint(expr, Relation::Eq, rhs).unwrap();
        }
        m.set_objective(Sense::Minimize, LinExpr::term(z, rat(1, 1)))
            .unwrap();
        let sol = certify_default_solve(&m).unwrap();
        assert!(
            sol.basis.iter().any(|&b| b >= sol.sf.num_cols),
            "the redundant row keeps its artificial basic"
        );

        // A seeded corpus of small mixed-relation LPs with free variables and
        // negative right-hand sides; infeasible and unbounded ones carry no
        // certificate.
        let mut rng = StdRng::seed_from_u64(0x5eed_0020);
        let mut certified = 0;
        for case in 0..200 {
            let mut m: Model<Rational> = Model::new();
            let xs: Vec<_> = (0..3)
                .map(|k| {
                    let bound = if k == 0 && rng.gen_bool(0.3) {
                        VarBound::Free
                    } else {
                        VarBound::NonNegative
                    };
                    m.add_var(format!("x{k}"), bound)
                })
                .collect();
            for i in 0..rng.gen_range(1usize..6) {
                let mut e = LinExpr::new();
                for &x in &xs {
                    e.add_term(x, rat(rng.gen_range(-4i64..5), 1));
                }
                let relation = [Relation::Le, Relation::Ge, Relation::Eq][i % 3];
                m.add_constraint(e, relation, rat(rng.gen_range(-6i64..7), 1))
                    .unwrap();
            }
            let mut obj = LinExpr::new();
            for &x in &xs {
                obj.add_term(x, rat(rng.gen_range(-3i64..6), 1));
            }
            m.set_objective(Sense::Minimize, obj).unwrap();
            match certify_default_solve(&m) {
                Ok(_) => certified += 1,
                Err(LpError::Infeasible | LpError::Unbounded) => {}
                Err(e) => panic!("case {case}: {e}"),
            }
        }
        assert!(certified >= 40, "only {certified} of 200 cases solved");
    }

    #[test]
    fn f64_prices_by_bland_throughout() {
        // Dantzig pricing engages only for exact scalars: on f64 the
        // fallback state pins Bland's rule from the start (see
        // FallbackState::new).
        let mut m: Model<f64> = Model::new();
        let x = m.add_var("x", VarBound::NonNegative);
        let y = m.add_var("y", VarBound::NonNegative);
        m.add_constraint(LinExpr::term(x, 1.0).plus(y, 1.0), Relation::Le, 10.0)
            .unwrap();
        m.set_objective(Sense::Maximize, LinExpr::term(x, 1.0).plus(y, 2.0))
            .unwrap();
        let sol = m.solve().unwrap();
        assert!((sol.objective - 20.0).abs() < 1e-9);
        assert_eq!(sol.stats.dantzig_pivots, 0);
        assert!(sol.stats.bland_pivots > 0);
    }
}
