//! Standard-form construction shared by both simplex implementations.
//!
//! Both the dense tableau solver and the revised (sparse LU basis) solver
//! work on the same canonical shape: minimize `cᵀy` subject to `Ay = b`,
//! `y ≥ 0`, `b ≥ 0`. This module owns the model → standard-form translation
//! (documented end to end in `crates/lp/SOLVER.md`):
//!
//! 1. free variables are split `x = x⁺ - x⁻`;
//! 2. rows with a negative right-hand side are negated (flipping `<=`/`>=`);
//! 3. for **exact** scalars, `>=` rows with a zero right-hand side are
//!    negated into `<=` rows so their slack can seed the basis — the paper's
//!    LPs are dominated by such rows (the `2·n·(n+1)` differential-privacy
//!    adjacency constraints), and without this rewrite phase 1 wastes
//!    thousands of degenerate pivots driving their artificials out;
//! 4. `<=` rows gain a slack column (a basis seed), `>=` rows a surplus
//!    column, `==` rows nothing — rows without a seed receive an artificial
//!    variable at solve time.
//!
//! The constraint matrix is stored as a [`Csr`] sparse matrix: zeros are
//! never materialized, from [`LinExpr`](crate::model::LinExpr) terms through
//! standard form to the revised driver's column views. The dense tableau
//! solver scatters rows from the same store, so both solver forms consume the
//! *identical* standard form (and share the pricing and ratio-test stages in
//! [`crate::pricing`] / [`crate::ratio`]); their pivot sequences coincide
//! exactly on exact scalars — see `SOLVER.md` § "CSR constraint store" for
//! the layout and the bit-identity argument.

use privmech_linalg::sparse::Csr;
use privmech_linalg::Scalar;

use crate::model::{LpError, Model, Relation, Sense, VarBound};

/// How a model variable maps onto standard-form columns.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ColumnMap {
    /// A non-negative variable occupies a single column.
    Single(usize),
    /// A free variable is split as `x = plus - minus`.
    Split {
        /// Column of the non-negative part.
        plus: usize,
        /// Column of the non-positive part (negated).
        minus: usize,
    },
}

/// Internal standard-form representation: minimize `cᵀy` subject to
/// `Ay = b`, `y ≥ 0`, `b ≥ 0`.
pub(crate) struct StandardForm<T: Scalar> {
    /// Constraint matrix in CSR layout, including slack/surplus columns but
    /// not artificials (those are unit vectors the solvers append
    /// themselves). Row entries iterate in strictly increasing column order.
    pub(crate) matrix: Csr<T>,
    /// Right-hand sides, all non-negative.
    pub(crate) rhs: Vec<T>,
    /// Objective coefficients for every structural + slack column.
    pub(crate) costs: Vec<T>,
    /// Per-row basis seed: `Some(col)` if a slack column can start in the
    /// basis, `None` if the row needs an artificial variable.
    pub(crate) slack_basis: Vec<Option<usize>>,
    /// Mapping from model variables to columns.
    pub(crate) mapping: Vec<ColumnMap>,
    /// Number of columns (structural + slack/surplus).
    pub(crate) num_cols: usize,
}

impl<T: Scalar> StandardForm<T> {
    /// Number of constraint rows.
    pub(crate) fn num_rows(&self) -> usize {
        self.matrix.num_rows()
    }

    /// Row-major sparse view of the constraint matrix as owned `(col, value)`
    /// pair lists — the compatibility shape consumed by the public
    /// [`check_certificate`](crate::certificate::check_certificate) kernel.
    #[cfg(test)]
    pub(crate) fn sparse_rows(&self) -> Vec<Vec<(usize, T)>> {
        (0..self.num_rows())
            .map(|i| self.matrix.row(i).to_pairs())
            .collect()
    }
}

/// Translate a [`Model`] into standard form (see the module docs for the
/// exact rewrite sequence). Construction is sparse end to end: each
/// constraint's terms are merged by [`LinExpr::merged_terms`]
/// (stable-sorted, duplicates summed in term order, zeros dropped), mapped
/// onto columns, and pushed straight into the CSR store — no dense row is
/// ever allocated.
pub(crate) fn build_standard_form<T: Scalar>(model: &Model<T>) -> Result<StandardForm<T>, LpError> {
    let (sense, objective) = model.objective.clone().ok_or(LpError::MissingObjective)?;

    // Map model variables onto non-negative columns.
    let mut mapping = Vec::with_capacity(model.bounds.len());
    let mut num_cols = 0usize;
    for bound in &model.bounds {
        match bound {
            VarBound::NonNegative => {
                mapping.push(ColumnMap::Single(num_cols));
                num_cols += 1;
            }
            VarBound::Free => {
                mapping.push(ColumnMap::Split {
                    plus: num_cols,
                    minus: num_cols + 1,
                });
                num_cols += 2;
            }
        }
    }
    // Constraint rows over structural columns as sorted sparse entry lists.
    // Variable order → column order is monotone under `mapping` (a Split
    // yields adjacent plus < minus), so the merged (by-Var) terms arrive in
    // strictly increasing column order.
    let mut rows: Vec<Vec<(usize, T)>> = Vec::with_capacity(model.constraints.len());
    let mut rhs: Vec<T> = Vec::with_capacity(model.constraints.len());
    let mut relations: Vec<Relation> = Vec::with_capacity(model.constraints.len());

    for constraint in &model.constraints {
        let merged = constraint.expr.merged_terms();
        let mut row: Vec<(usize, T)> = Vec::with_capacity(merged.len());
        for (var, coeff) in merged {
            match mapping[var.0] {
                ColumnMap::Single(col) => row.push((col, coeff)),
                ColumnMap::Split { plus, minus } => {
                    row.push((plus, coeff.clone()));
                    row.push((minus, -coeff));
                }
            }
        }
        let mut b = constraint.rhs.sub_ref(constraint.expr.constant_part());
        let mut relation = constraint.relation;
        if b.is_negative_approx() {
            // Multiply the whole row by -1 so that b >= 0, flipping <= / >=.
            for (_, v) in &mut row {
                v.neg_assign();
            }
            b.neg_assign();
            relation = match relation {
                Relation::Le => Relation::Ge,
                Relation::Ge => Relation::Le,
                Relation::Eq => Relation::Eq,
            };
        }
        if T::is_exact() && relation == Relation::Ge && b.is_exactly_zero() {
            // `expr >= 0` is `-expr <= 0`: negating lets a slack column seed
            // the basis, so the row needs no artificial variable. The
            // paper's LPs are dominated by such rows (2·n·(n+1) adjacency
            // constraints with zero rhs), and without this rewrite phase 1
            // spends thousands of degenerate pivots driving their
            // artificials out. Exact scalars only: like Dantzig pricing,
            // the changed pivot trajectory is a numerical-robustness hazard
            // for the `f64` backend, which stays on the seed solver's path.
            for (_, v) in &mut row {
                v.neg_assign();
            }
            relation = Relation::Le;
        }
        rows.push(row);
        rhs.push(b);
        relations.push(relation);
    }

    // Add slack / surplus columns. Their indices come after every structural
    // column, so appending the single ±1 entry keeps each row sorted.
    let num_rows = rows.len();
    let mut slack_basis: Vec<Option<usize>> = vec![None; num_rows];
    for (i, relation) in relations.iter().enumerate() {
        match relation {
            Relation::Le => {
                let col = num_cols;
                num_cols += 1;
                rows[i].push((col, T::one()));
                slack_basis[i] = Some(col);
            }
            Relation::Ge => {
                let col = num_cols;
                num_cols += 1;
                rows[i].push((col, -T::one()));
            }
            Relation::Eq => {}
        }
    }

    // Objective over structural columns (slack/surplus cost 0).
    let mut costs = vec![T::zero(); num_cols];
    let maximize = sense == Sense::Maximize;
    for (var, coeff) in objective.terms() {
        let signed = if maximize {
            -coeff.clone()
        } else {
            coeff.clone()
        };
        match mapping[var.0] {
            ColumnMap::Single(col) => costs[col].add_assign_ref(&signed),
            ColumnMap::Split { plus, minus } => {
                costs[plus].add_assign_ref(&signed);
                costs[minus].sub_assign_ref(&signed);
            }
        }
    }

    Ok(StandardForm {
        matrix: Csr::from_rows(num_cols, rows),
        rhs,
        costs,
        slack_basis,
        mapping,
        num_cols,
    })
}

/// Map standard-form column values back onto the model's variables.
pub(crate) fn extract_values<T: Scalar>(
    sf: &StandardForm<T>,
    column_values: &[T],
    total_cols: usize,
) -> Vec<T> {
    let get = |col: usize| -> T {
        if col < total_cols && col < column_values.len() {
            column_values[col].clone()
        } else {
            T::zero()
        }
    };
    sf.mapping
        .iter()
        .map(|m| match *m {
            ColumnMap::Single(col) => get(col),
            ColumnMap::Split { plus, minus } => get(plus) - get(minus),
        })
        .collect()
}

/// Evaluate the model's original objective at an extracted assignment.
///
/// # Panics
/// Panics if the model has no objective (checked during standard-form
/// construction).
pub(crate) fn report_objective<T: Scalar>(model: &Model<T>, values: &[T]) -> T {
    let (_, expr) = model
        .objective
        .as_ref()
        .expect("objective checked during standard-form construction");
    expr.evaluate(values)
}
