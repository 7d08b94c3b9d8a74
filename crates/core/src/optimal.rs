//! The consumer-tailored optimal mechanism (Section 2.5).
//!
//! For a *known* consumer (loss function + side information) and a privacy
//! level α, the loss-minimizing α-differentially-private oblivious mechanism
//! is the solution of a linear program: minimize the epigraph variable `d`
//! subject to `d ≥ Σ_r x[i][r]·l(i,r)` for every `i ∈ S`, the adjacent-row
//! differential-privacy inequalities of Definition 2, unit row sums, and
//! non-negativity. Theorem 1 states that deploying the geometric mechanism and
//! letting the consumer post-process achieves exactly this optimum — the
//! experiments verify that equality.
//!
//! The LP is built at one α and solved once ([`TailoredLp`]); a sweep
//! builds it afresh per level. The differential-privacy rows run over a
//! caller-supplied edge list of adjacent results: count queries pass the
//! consecutive pairs `(i, i+1)`, and the query-class zoo passes its induced
//! adjacency (the Brenner–Nissim generalization). The seed's free-function
//! shims (`optimal_mechanism`, `bayesian_optimal_mechanism`) are gone:
//! [`SolveStrategy::DirectLp`](crate::SolveStrategy) through
//! [`PrivacyEngine::solve`](crate::engine::PrivacyEngine::solve) solves this
//! LP and reproduces them bit for bit.
//!
//! One deliberate departure from the seed formulation: for the vacuous level
//! α = 0 the seed omitted the differential-privacy rows entirely, while this
//! builder always emits them (their `-α` terms are exactly zero, leaving the
//! rows `x[a][r] ≥ 0`, trivially satisfied). The optimal *value* is
//! unaffected — zero loss is attainable either way — but pivot counts, and
//! on a degenerate optimum the returned vertex, can differ from the seed's
//! at exactly α = 0. Every α > 0 builds the identical model the seed built,
//! term for term.

use privmech_linalg::{Matrix, Scalar};
use privmech_lp::{LinExpr, Model, PivotStats, Relation, Sense, SolverOptions, Var};

use crate::consumer::{BayesianConsumer, MinimaxConsumer};
use crate::error::{CoreError, Result};
use crate::loss::tabulate_loss;
use crate::mechanism::Mechanism;

/// The Section 2.5 LP built at one privacy level.
///
/// Variables `x[i][r]` (release probability), unit row sums, two
/// differential-privacy rows per adjacent result pair and output, and either
/// the minimax epigraph objective or the Bayesian prior-weighted linear
/// objective.
#[derive(Debug)]
pub struct TailoredLp<T: Scalar> {
    model: Model<T>,
    x_vars: Vec<Vec<Var>>,
}

/// The consecutive result pairs `(i, i+1)` over `{0, …, n}`: the adjacency
/// of a count query (Definition 2).
pub(crate) fn count_adjacency(n: usize) -> Vec<(usize, usize)> {
    (0..n).map(|i| (i, i + 1)).collect()
}

/// Variables, row sums and differential-privacy rows at `alpha` over `edges`
/// (the part shared by the minimax and Bayesian objectives).
fn skeleton<T: Scalar>(
    n: usize,
    alpha: &T,
    edges: &[(usize, usize)],
) -> Result<(Model<T>, Vec<Vec<Var>>)> {
    let size = n + 1;
    let mut model: Model<T> = Model::new();

    // x_vars[i][r] = probability of releasing r when the true result is i.
    let mut x_vars = Vec::with_capacity(size);
    for i in 0..size {
        x_vars.push(model.add_nonneg_vars(&format!("x_{i}"), size));
    }

    // Each input's output distribution sums to one.
    for row in &x_vars {
        let mut row_sum = LinExpr::new();
        for &var in row {
            row_sum.add_term(var, T::one());
        }
        model.add_constraint(row_sum, Relation::Eq, T::one())?;
    }

    // Differential privacy over every adjacent pair (a, b) (Definition 2):
    //   x[a][r] - α·x[b][r] >= 0   and   x[b][r] - α·x[a][r] >= 0.
    // `LinExpr::term` keeps the -α term whatever its size, where `plus`
    // would drop an f64 |α| <= 1e-9 as zero and so loosen the row.
    let neg_alpha = -alpha.clone();
    for &(a, b) in edges {
        #[allow(clippy::needless_range_loop)] // r indexes x_vars[a] and x_vars[b] together
        for r in 0..size {
            let down = LinExpr::term(x_vars[b][r], neg_alpha.clone()).plus(x_vars[a][r], T::one());
            model.add_constraint(down, Relation::Ge, T::zero())?;
            let up = LinExpr::term(x_vars[a][r], neg_alpha.clone()).plus(x_vars[b][r], T::one());
            model.add_constraint(up, Relation::Ge, T::zero())?;
        }
    }
    Ok((model, x_vars))
}

impl<T: Scalar> TailoredLp<T> {
    /// The minimax LP at `alpha` with its differential-privacy rows over
    /// `edges`: epigraph objective over the members of the consumer's
    /// side-information set.
    ///
    /// # Panics
    /// Panics if an edge names a result outside `{0, …, n}`.
    pub fn minimax(
        consumer: &MinimaxConsumer<T>,
        alpha: &T,
        edges: &[(usize, usize)],
    ) -> Result<Self> {
        let n = consumer.side_information().n();
        let (mut model, x_vars) = skeleton(n, alpha, edges)?;

        // Epigraph objective: minimize the worst expected loss over S, with
        // the coefficients read from one pre-tabulated matrix row per member.
        let losses = tabulate_loss(consumer.loss(), n + 1);
        let mut exprs = Vec::new();
        for &i in consumer.side_information().members() {
            let mut expr = LinExpr::new();
            for (r, cost) in losses.row(i).iter().enumerate() {
                expr.add_term(x_vars[i][r], cost.clone());
            }
            exprs.push(expr);
        }
        model.minimize_max(exprs)?;
        Ok(TailoredLp { model, x_vars })
    }

    /// The Bayesian LP at `alpha` over the count adjacency: prior-weighted
    /// linear objective (the Section 2.7 model of Ghosh, Roughgarden and
    /// Sundararajan).
    pub(crate) fn bayesian(consumer: &BayesianConsumer<T>, alpha: &T) -> Result<Self> {
        let n = consumer.n();
        let (mut model, x_vars) = skeleton(n, alpha, &count_adjacency(n))?;

        // Prior-weighted loss coefficients: scale each tabulated loss row by
        // the prior mass in place rather than multiplying per term.
        let losses = tabulate_loss(consumer.loss(), n + 1);
        let prior = consumer.prior();
        let mut objective = LinExpr::new();
        #[allow(clippy::needless_range_loop)] // i indexes prior, losses and x_vars together
        for i in 0..=n {
            if prior[i].is_zero_approx() {
                continue;
            }
            let mut weighted = losses.row(i).to_vec();
            privmech_linalg::kernels::scale(&mut weighted, &prior[i]);
            for (r, coeff) in weighted.into_iter().enumerate() {
                objective.add_term(x_vars[i][r], coeff);
            }
        }
        model.set_objective(Sense::Minimize, objective)?;
        Ok(TailoredLp { model, x_vars })
    }

    /// Solve cold and read the optimal mechanism off the solution.
    pub fn solve(&self, options: &SolverOptions) -> Result<(Mechanism<T>, PivotStats)> {
        let solution = self.model.solve_with(options).map_err(CoreError::from)?;
        let size = self.x_vars.len();
        let matrix = Matrix::from_fn(size, size, |i, r| solution.value(self.x_vars[i][r]).clone());
        // Clamp tiny negative float noise and renormalize rows (a no-op for
        // the exact backend, where the LP solution is exactly stochastic).
        Ok((Mechanism::from_matrix_normalized(matrix)?, solution.stats))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::alpha::PrivacyLevel;
    use crate::consumer::SideInformation;
    use crate::geometric::geometric_mechanism;
    use crate::loss::{AbsoluteError, SquaredError, ZeroOneError};
    use privmech_numerics::{rat, Rational};

    // The seed recipe in one place, shared with interaction.rs's tests so the
    // bit-identity anchors cannot drift apart.
    use crate::seed_compat::{bayesian_optimal_mechanism, optimal_interaction, optimal_mechanism};

    fn paper_consumer() -> MinimaxConsumer<Rational> {
        MinimaxConsumer::new(
            "paper-consumer",
            Arc::new(AbsoluteError),
            SideInformation::full(3),
        )
        .unwrap()
    }

    #[test]
    fn optimal_mechanism_is_private_and_stochastic() {
        let level = PrivacyLevel::new(rat(1, 4)).unwrap();
        let consumer = paper_consumer();
        let opt = optimal_mechanism(&level, &consumer).unwrap();
        assert!(opt.mechanism.matrix().is_row_stochastic());
        assert!(opt.mechanism.is_differentially_private(&level));
        // The optimum cannot be worse than the raw geometric mechanism.
        let g = geometric_mechanism(3, &level).unwrap();
        assert!(opt.loss <= consumer.disutility(&g).unwrap());
    }

    #[test]
    fn matches_table1a_optimal_loss() {
        // Table 1(a) of the paper gives the optimal mechanism for the
        // consumer (|i-r| loss, S = {0..3}, α = 1/4). The table's entries are
        // rounded, so we compare the worst-case loss of our LP optimum to the
        // loss achieved by interacting optimally with the geometric mechanism
        // (Theorem 1 says both are the true optimum).
        let level = PrivacyLevel::new(rat(1, 4)).unwrap();
        let consumer = paper_consumer();
        let opt = optimal_mechanism(&level, &consumer).unwrap();
        let g = geometric_mechanism(3, &level).unwrap();
        let interaction = optimal_interaction(&g, &consumer).unwrap();
        assert_eq!(opt.loss, interaction.loss);
        // And the optimum is strictly better than not post-processing at all.
        assert!(opt.loss < consumer.disutility(&g).unwrap());
    }

    #[test]
    fn theorem1_for_various_consumers() {
        // Universal optimality on a small sweep (the full sweep lives in the
        // experiments crate): for several losses and side-information sets the
        // consumer's optimal interaction with the geometric mechanism achieves
        // exactly the tailored LP optimum.
        let n = 3;
        let level = PrivacyLevel::new(rat(1, 3)).unwrap();
        let g = geometric_mechanism(n, &level).unwrap();
        let losses: Vec<Arc<dyn crate::loss::LossFunction<Rational> + Send + Sync>> = vec![
            Arc::new(AbsoluteError),
            Arc::new(SquaredError),
            Arc::new(ZeroOneError),
        ];
        let side_infos = vec![
            SideInformation::full(n),
            SideInformation::at_least(n, 2).unwrap(),
            SideInformation::at_most(n, 1).unwrap(),
            SideInformation::new(n, vec![0, 3]).unwrap(),
        ];
        for loss in &losses {
            for s in &side_infos {
                let consumer = MinimaxConsumer::new("sweep", loss.clone(), s.clone()).unwrap();
                let tailored = optimal_mechanism(&level, &consumer).unwrap();
                let interaction = optimal_interaction(&g, &consumer).unwrap();
                assert_eq!(
                    tailored.loss,
                    interaction.loss,
                    "loss {} side-info {:?}",
                    consumer.loss().name(),
                    s.members()
                );
            }
        }
    }

    #[test]
    fn bayesian_tailored_optimum_matches_bayesian_interaction_with_geometric() {
        // The Ghosh–Roughgarden–Sundararajan analogue of Theorem 1: a Bayesian
        // consumer post-processing the geometric mechanism reaches the optimum
        // of the Bayesian-tailored LP.
        use crate::consumer::BayesianConsumer;
        use crate::seed_compat::bayesian_optimal_interaction;
        let n = 3;
        let level = PrivacyLevel::new(rat(1, 4)).unwrap();
        let g = geometric_mechanism(n, &level).unwrap();
        let priors = vec![
            vec![rat(1, 4); 4],
            vec![rat(1, 2), rat(1, 4), rat(1, 8), rat(1, 8)],
            vec![rat(0, 1), rat(0, 1), rat(1, 2), rat(1, 2)],
        ];
        for prior in priors {
            let consumer = BayesianConsumer::new("bayes", Arc::new(AbsoluteError), prior).unwrap();
            let tailored = bayesian_optimal_mechanism(&level, &consumer).unwrap();
            let interaction = bayesian_optimal_interaction(&g, &consumer).unwrap();
            assert!(tailored.mechanism.is_differentially_private(&level));
            assert_eq!(tailored.loss, interaction.loss);
            // And the Bayesian optimum is never worse than the minimax optimum
            // evaluated under the same prior (the minimax mechanism guards
            // against the worst case, the Bayesian one exploits the prior).
            let minimax_consumer =
                MinimaxConsumer::new("mm", Arc::new(AbsoluteError), SideInformation::full(n))
                    .unwrap();
            let minimax_opt = optimal_mechanism(&level, &minimax_consumer).unwrap();
            let minimax_under_prior = consumer.disutility(&minimax_opt.mechanism).unwrap();
            assert!(tailored.loss <= minimax_under_prior);
        }
    }

    #[test]
    fn f64_dp_rows_keep_a_sub_tolerance_alpha_term() {
        // `LinExpr::add_term` drops an f64 coefficient with |c| <= 1e-9 as
        // zero; every differential-privacy row must still reach the solver
        // with both of its terms at α = 1e-12.
        let n = 3;
        let consumer =
            MinimaxConsumer::<f64>::new("tiny", Arc::new(AbsoluteError), SideInformation::full(n))
                .unwrap();
        let alpha = 1e-12;
        let lp = TailoredLp::minimax(&consumer, &alpha, &count_adjacency(n)).unwrap();
        let size = n + 1;
        let dp_rows = &lp.model.constraints()[size..size + 2 * n * size];
        for row in dp_rows {
            assert_eq!(row.relation, Relation::Ge);
            let mut coeffs: Vec<f64> = row.expr.merged_terms().iter().map(|(_, c)| *c).collect();
            coeffs.sort_by(f64::total_cmp);
            assert_eq!(coeffs, vec![-alpha, 1.0]);
        }
    }

    #[test]
    fn alpha_zero_and_one_edge_cases() {
        let consumer = paper_consumer();
        // α = 0: no privacy constraint, the identity achieves zero loss.
        let zero = PrivacyLevel::new(Rational::zero()).unwrap();
        let opt = optimal_mechanism(&zero, &consumer).unwrap();
        assert_eq!(opt.loss, Rational::zero());
        // α = 1: all rows must be identical; for |i-r| over {0..3} the best
        // worst-case loss is 3/2 (split mass between outputs 1 and 2 — or any
        // distribution minimizing the maximum distance to both ends).
        let one = PrivacyLevel::new(Rational::one()).unwrap();
        let opt = optimal_mechanism(&one, &consumer).unwrap();
        assert_eq!(opt.loss, rat(3, 2));
        assert!(opt.mechanism.is_differentially_private(&one));
    }
}
