//! Exact optimality certificates: a solution-level check of the solver.
//!
//! The solver's contract is *pivot identity*: dense and revised forms
//! provably follow the same pivot sequence, so their results are
//! bit-identical and one property suite covers both. Pivot identity says
//! nothing about whether that shared sequence stopped at an optimum. This
//! module provides the representation-independent check: a complete
//! **weak-duality optimality proof** of a returned solution, evaluated in
//! the solver's own (exact, for `Rational`) arithmetic. The unit test
//! `simplex::tests::default_solves_carry_an_optimality_certificate` runs it
//! on default solves.
//!
//! For the standard form `min cᵀx  s.t.  Ax = b, x ≥ 0` a pair `(x, y)`
//! proves optimality iff
//!
//! 1. **primal feasibility**: `Ax = b` and `x ≥ 0`,
//! 2. **dual feasibility**: the reduced costs `d = c − Aᵀy` satisfy `d ≥ 0`,
//! 3. **complementary slackness**: `d_j · x_j = 0` for every column,
//!
//! because then `cᵀx = (d + Aᵀy)ᵀx = dᵀx + yᵀ(Ax) = yᵀb`, and for any
//! feasible `x'`, `cᵀx' = dᵀx' + yᵀb ≥ yᵀb = cᵀx`. The checker
//! ([`check_certificate`]) verifies all three conditions plus the objective
//! equality directly from the constraint data — it shares no state with the
//! solve being audited. The duals are recovered from the final basis by an
//! independent LU factorization (`yᵀ = c_BᵀB⁻¹`, one BTRAN), so a corrupted
//! basis, a wrong factorization update, or a premature optimality stop all
//! surface here.
//!
//! On exact scalars a passing certificate is a *proof*; on `f64` the same
//! conditions are checked under the scalar tolerance and form a strong
//! consistency test rather than a proof.

#[cfg(test)]
use privmech_linalg::sparse::SparseVec;
use privmech_linalg::Scalar;

#[cfg(test)]
use crate::lu::LuFactors;
#[cfg(test)]
use crate::model::LpError;
#[cfg(test)]
use crate::simplex::ColumnSolution;

/// Which optimality condition a certificate check found violated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertificateError {
    /// `(Ax)_i ≠ b_i` for the reported row.
    PrimalRow(usize),
    /// `x_j < 0` for the reported column.
    NegativeVariable(usize),
    /// `d_j < 0` for the reported column (dual infeasibility: a better
    /// solution still exists).
    DualColumn(usize),
    /// `d_j · x_j ≠ 0` for the reported column (a basic variable with a
    /// nonzero reduced cost).
    Slackness(usize),
    /// `cᵀx ≠ yᵀb` (primal and dual objectives disagree).
    ObjectiveGap,
}

impl std::fmt::Display for CertificateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CertificateError::PrimalRow(i) => write!(f, "primal infeasibility in row {i}"),
            CertificateError::NegativeVariable(j) => write!(f, "negative variable in column {j}"),
            CertificateError::DualColumn(j) => write!(f, "dual infeasibility in column {j}"),
            CertificateError::Slackness(j) => {
                write!(f, "complementary slackness violated in column {j}")
            }
            CertificateError::ObjectiveGap => write!(f, "primal and dual objectives disagree"),
        }
    }
}

impl std::error::Error for CertificateError {}

/// A verified optimality proof: the audited duals and reduced costs, plus
/// the common objective value. Returned by [`check_certificate`] so callers
/// can report or further cross-check the dual side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptimalityCertificate<T: Scalar> {
    /// Dual values, one per constraint row.
    pub duals: Vec<T>,
    /// Reduced costs `c − Aᵀy`, one per column, all non-negative.
    pub reduced_costs: Vec<T>,
    /// The certified optimal objective `cᵀx = yᵀb`.
    pub objective: T,
}

/// Verify that `(x, y)` proves optimality of `x` for
/// `min cᵀx  s.t.  Ax = b, x ≥ 0` (see the module docs for the conditions).
///
/// `rows` is the sparse row-major constraint matrix: `rows[i]` lists the
/// exactly-nonzero `(column, value)` pairs of row `i`. Sign and equality
/// tests use the scalar's approx predicates, so the check is exact for
/// `Rational` and tolerance-based for `f64`.
///
/// # Errors
/// Returns the first violated condition as a [`CertificateError`].
pub fn check_certificate<T: Scalar>(
    rows: &[Vec<(usize, T)>],
    rhs: &[T],
    costs: &[T],
    x: &[T],
    y: &[T],
) -> Result<OptimalityCertificate<T>, CertificateError> {
    // 1a. x ≥ 0.
    for (j, v) in x.iter().enumerate() {
        if v.is_negative_approx() {
            return Err(CertificateError::NegativeVariable(j));
        }
    }
    // 1b. Ax = b.
    for (i, row) in rows.iter().enumerate() {
        let mut ax = T::zero();
        for (j, a) in row {
            ax.add_mul_assign(a, &x[*j]);
        }
        ax.sub_assign_ref(&rhs[i]);
        if !ax.is_zero_approx() {
            return Err(CertificateError::PrimalRow(i));
        }
    }
    // d = c − Aᵀy via one pass over the sparse rows.
    let mut reduced: Vec<T> = costs.to_vec();
    for (i, row) in rows.iter().enumerate() {
        if y[i].is_exactly_zero() {
            continue;
        }
        for (j, a) in row {
            reduced[*j].sub_mul_assign(&y[i], a);
        }
    }
    // 2 + 3. d ≥ 0 and d_j·x_j = 0.
    for (j, d) in reduced.iter().enumerate() {
        if d.is_negative_approx() {
            return Err(CertificateError::DualColumn(j));
        }
        if !d.is_zero_approx() && !x[j].is_zero_approx() {
            return Err(CertificateError::Slackness(j));
        }
    }
    // 4. cᵀx = yᵀb (implied by 1–3 in exact arithmetic; kept as a cheap
    // final consistency check, and a real condition under f64 tolerances).
    let mut primal = T::zero();
    for (c, v) in costs.iter().zip(x) {
        primal.add_mul_assign(c, v);
    }
    let mut dual = T::zero();
    for (yi, bi) in y.iter().zip(rhs) {
        dual.add_mul_assign(yi, bi);
    }
    if !primal.approx_eq(&dual) {
        return Err(CertificateError::ObjectiveGap);
    }
    Ok(OptimalityCertificate {
        duals: y.to_vec(),
        reduced_costs: reduced,
        objective: primal,
    })
}

/// Audit a finished solve: recover the duals from its final basis by an
/// independent LU factorization and run [`check_certificate`] against the
/// standard-form data.
///
/// Artificial columns (basis entries `>= sf.num_cols`) are parked at value
/// zero on redundant rows; their basis column is the unit vector of their
/// position. They carry zero cost in phase 2, so they only influence the
/// solution through the duals recovered here — exactly as in the solver.
///
/// # Errors
/// [`LpError::Internal`] when the basis is singular or a certificate
/// condition fails (both indicate a solver bug, never bad user input).
#[cfg(test)]
pub(crate) fn certify_column_solution<T: Scalar>(sol: &ColumnSolution<T>) -> Result<(), LpError> {
    let sf = &sol.sf;
    let m = sf.num_rows();
    if m == 0 {
        return Ok(());
    }
    let cols = sf.matrix.transpose();
    let basis_cols: Vec<(Vec<usize>, Vec<T>)> = sol
        .basis
        .iter()
        .enumerate()
        .map(|(position, &b)| {
            if b < sf.num_cols {
                let col = cols.row(b);
                (col.indices().to_vec(), col.values().to_vec())
            } else {
                (vec![position], vec![T::one()])
            }
        })
        .collect();
    let mut lu: LuFactors<T> = LuFactors::identity(m);
    lu.refactorize(|c| SparseVec::new(&basis_cols[c].0, &basis_cols[c].1))?;

    // yᵀ = c_Bᵀ B⁻¹ — artificials cost zero, like the phase-2 objective.
    let cb: Vec<T> = sol
        .basis
        .iter()
        .map(|&b| {
            if b < sf.num_cols {
                sf.costs[b].clone()
            } else {
                T::zero()
            }
        })
        .collect();
    let mut y = vec![T::zero(); m];
    lu.btran_dense(&mut y, &cb);

    check_certificate(
        &sf.sparse_rows(),
        &sf.rhs,
        &sf.costs,
        &sol.column_values[..sf.num_cols],
        &y,
    )
    .map(|_| ())
    .map_err(|e| LpError::Internal(format!("optimality certificate failed: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use privmech_numerics::{rat, Rational};

    /// Sparse rows from a dense row-major matrix.
    fn rows(dense: &[&[i64]]) -> Vec<Vec<(usize, Rational)>> {
        dense
            .iter()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .filter(|(_, v)| **v != 0)
                    .map(|(j, v)| (j, rat(*v, 1)))
                    .collect()
            })
            .collect()
    }

    fn rats(v: &[(i64, i64)]) -> Vec<Rational> {
        v.iter().map(|&(n, d)| rat(n, d)).collect()
    }

    /// (A, b, c, x, y) in the sparse-row layout `check_certificate` takes.
    type LpInstance = (
        Vec<Vec<(usize, Rational)>>,
        Vec<Rational>,
        Vec<Rational>,
        Vec<Rational>,
        Vec<Rational>,
    );

    /// min −3x − 5y  s.t.  x + s1 = 4, 2y + s2 = 12, 3x + 2y + s3 = 18
    /// (the classic Dantzig example in equality form). Optimum −36 at
    /// x = 2, y = 6, s1 = 2; duals y = (0, −3/2, −1).
    fn dantzig_example() -> LpInstance {
        let a = rows(&[&[1, 0, 1, 0, 0], &[0, 2, 0, 1, 0], &[3, 2, 0, 0, 1]]);
        let b = rats(&[(4, 1), (12, 1), (18, 1)]);
        let c = rats(&[(-3, 1), (-5, 1), (0, 1), (0, 1), (0, 1)]);
        let x = rats(&[(2, 1), (6, 1), (2, 1), (0, 1), (0, 1)]);
        let y = rats(&[(0, 1), (-3, 2), (-1, 1)]);
        (a, b, c, x, y)
    }

    #[test]
    fn accepts_a_true_optimum_with_its_duals() {
        let (a, b, c, x, y) = dantzig_example();
        let cert = check_certificate(&a, &b, &c, &x, &y).unwrap();
        assert_eq!(cert.objective, rat(-36, 1));
        assert_eq!(cert.duals, y);
        // Reduced costs of the basic columns (x, y, s1) are exactly zero.
        assert_eq!(cert.reduced_costs[0], Rational::zero());
        assert_eq!(cert.reduced_costs[1], Rational::zero());
        assert_eq!(cert.reduced_costs[2], Rational::zero());
        // Nonbasic s2, s3 price to −y_2 and −y_3.
        assert_eq!(cert.reduced_costs[3], rat(3, 2));
        assert_eq!(cert.reduced_costs[4], rat(1, 1));
    }

    #[test]
    fn rejects_a_perturbed_dual_impostor() {
        let (a, b, c, x, mut y) = dantzig_example();
        y[1] = rat(-2, 1); // overstated dual
        let err = check_certificate(&a, &b, &c, &x, &y).unwrap_err();
        // The corrupted dual either prices a column negative, leaves a basic
        // column with a nonzero reduced cost, or breaks the objective
        // equality — any of those catches the impostor.
        assert!(
            matches!(
                err,
                CertificateError::DualColumn(_)
                    | CertificateError::Slackness(_)
                    | CertificateError::ObjectiveGap
            ),
            "unexpected verdict: {err}"
        );
    }

    #[test]
    fn rejects_a_perturbed_primal_impostor() {
        let (a, b, c, mut x, y) = dantzig_example();
        // Feasibility violation: move mass off the optimal vertex.
        x[0] = rat(3, 1);
        assert_eq!(
            check_certificate(&a, &b, &c, &x, &y).unwrap_err(),
            CertificateError::PrimalRow(0)
        );
        // Suboptimal *feasible* point: x = 4, y = 3, s2 = 6 (objective −27).
        let x_sub = rats(&[(4, 1), (3, 1), (0, 1), (6, 1), (0, 1)]);
        let err = check_certificate(&a, &b, &c, &x_sub, &y).unwrap_err();
        assert!(
            matches!(
                err,
                CertificateError::Slackness(_) | CertificateError::ObjectiveGap
            ),
            "unexpected verdict: {err}"
        );
    }

    #[test]
    fn rejects_negative_variables() {
        let (a, b, c, mut x, y) = dantzig_example();
        x[3] = rat(-1, 1);
        assert_eq!(
            check_certificate(&a, &b, &c, &x, &y).unwrap_err(),
            CertificateError::NegativeVariable(3)
        );
    }

    /// Beale's classic cycling LP — heavily degenerate, so the optimal basis
    /// carries basic variables at value zero and complementary slackness
    /// holds non-trivially:
    ///
    /// ```text
    /// min  −3/4·a + 150b − 1/50·c + 6d
    /// s.t.  1/4·a −  60b − 1/25·c + 9d + s1 = 0
    ///       1/2·a −  90b − 1/50·c + 3d + s2 = 0
    ///                          c      + s3 = 1
    /// ```
    ///
    /// Optimal basis {a, c, s1}: from rows 2 and 3, a = 1/25 and c = 1, then
    /// row 1 gives s1 = 3/100; objective −1/20. Duals solve c_B = B ᵀy:
    /// y = (0, −3/2, −1/20).
    #[test]
    fn accepts_the_degenerate_beale_optimum_and_rejects_its_impostor() {
        // Equality form with slacks s1, s2, s3 (columns 4, 5, 6).
        let a = vec![
            vec![
                (0, rat(1, 4)),
                (1, rat(-60, 1)),
                (2, rat(-1, 25)),
                (3, rat(9, 1)),
                (4, rat(1, 1)),
            ],
            vec![
                (0, rat(1, 2)),
                (1, rat(-90, 1)),
                (2, rat(-1, 50)),
                (3, rat(3, 1)),
                (5, rat(1, 1)),
            ],
            vec![(2, rat(1, 1)), (6, rat(1, 1))],
        ];
        let b = rats(&[(0, 1), (0, 1), (1, 1)]);
        let c = rats(&[(-3, 4), (150, 1), (-1, 50), (6, 1), (0, 1), (0, 1), (0, 1)]);
        let x = rats(&[(1, 25), (0, 1), (1, 1), (0, 1), (3, 100), (0, 1), (0, 1)]);
        let y = rats(&[(0, 1), (-3, 2), (-1, 20)]);
        let cert = check_certificate(&a, &b, &c, &x, &y).unwrap();
        // Degenerate optimum: objective −3/4·1/25 − 1/50 = −3/100 − 2/100.
        assert_eq!(cert.objective, rat(-1, 20));

        // Impostor: claim the same duals prove a point that parks mass on
        // the expensive column b.
        let x_bad = rats(&[(1, 25), (1, 100), (1, 1), (0, 1), (3, 100), (0, 1), (0, 1)]);
        assert!(check_certificate(&a, &b, &c, &x_bad, &y).is_err());
    }
}
