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
//! The LP is built once per consumer as a `TailoredLp` template: its
//! constraint *structure* is independent of α (only the `-α` coefficients of
//! the differential-privacy rows change), so an α-sweep re-parameterizes the
//! same model instead of rebuilding it — see
//! [`PrivacyEngine::sweep`](crate::engine::PrivacyEngine::sweep). The seed's
//! free-function shims (`optimal_mechanism`, `bayesian_optimal_mechanism`)
//! were removed in PR 5: [`SolveStrategy::DirectLp`](crate::SolveStrategy)
//! through [`PrivacyEngine::solve`](crate::engine::PrivacyEngine::solve)
//! solves this exact template and reproduces them bit for bit.
//!
//! One deliberate departure from the seed formulation: for the vacuous level
//! α = 0 the seed omitted the differential-privacy rows entirely, while the
//! template always emits them (their `-α` coefficients become zero, leaving
//! the rows trivially satisfied). The optimal *value* is unaffected — zero
//! loss is attainable either way — but pivot counts, and on a degenerate
//! optimum the returned vertex, can differ from the seed's at exactly α = 0.
//! Every α > 0 builds the identical model the seed built, term for term.

use privmech_linalg::{Matrix, Scalar};
use privmech_lp::{LinExpr, Model, ModelTemplate, PivotStats, Relation, SolverOptions};

use crate::consumer::{BayesianConsumer, MinimaxConsumer};
use crate::error::{CoreError, Result};
use crate::loss::tabulate_loss;
use crate::mechanism::Mechanism;

/// The Section 2.5 LP as a reusable α-parameterized template.
///
/// Variables `x[i][r]` (release probability), unit row sums, the
/// `2·n·(n+1)` differential-privacy rows of Definition 2 with their `-α`
/// coefficients registered as [`ModelTemplate`] parameter slots, and either
/// the minimax epigraph objective or the Bayesian prior-weighted linear
/// objective (both α-independent).
#[derive(Debug, Clone)]
pub(crate) struct TailoredLp<T: Scalar> {
    template: ModelTemplate<T>,
    x_vars: Vec<Vec<privmech_lp::Var>>,
    size: usize,
}

/// Release-probability variables `x[i][r]`, indexed `[input][output]`.
type XVars = Vec<Vec<privmech_lp::Var>>;
/// `(constraint index, variable)` pairs whose coefficient is the `-α` slot.
type AlphaSlots = Vec<(usize, privmech_lp::Var)>;

#[allow(clippy::needless_range_loop)] // index-coupled access into x_vars[i][r]
fn tailored_skeleton<T: Scalar>(n: usize) -> Result<(Model<T>, XVars, AlphaSlots)> {
    let size = n + 1;
    let mut model: Model<T> = Model::new();

    // x_vars[i][r] = probability of releasing r when the true result is i.
    let mut x_vars = Vec::with_capacity(size);
    for i in 0..size {
        x_vars.push(model.add_nonneg_vars(&format!("x_{i}"), size));
    }

    // Each input's output distribution sums to one.
    for i in 0..size {
        let mut row_sum = LinExpr::new();
        for r in 0..size {
            row_sum.add_term(x_vars[i][r], T::one());
        }
        model.add_labeled_constraint(row_sum, Relation::Eq, T::one(), Some(format!("row_{i}")))?;
    }

    // Differential privacy for count queries (Definition 2):
    //   x[i][r] - α·x[i+1][r] >= 0   and   x[i+1][r] - α·x[i][r] >= 0.
    // The α coefficient is a template parameter: the rows are built with a
    // placeholder (so the term is never dropped as a zero) and the slot of
    // each second term is recorded for later binding.
    let mut slots = Vec::with_capacity(2 * n * size);
    let neg_one = -T::one();
    for i in 0..n {
        for r in 0..size {
            let down =
                LinExpr::term(x_vars[i][r], T::one()).plus(x_vars[i + 1][r], neg_one.clone());
            model.add_labeled_constraint(
                down,
                Relation::Ge,
                T::zero(),
                Some(format!("dp_down_{i}_{r}")),
            )?;
            slots.push((model.num_constraints() - 1, x_vars[i + 1][r]));
            let up = LinExpr::term(x_vars[i + 1][r], T::one()).plus(x_vars[i][r], neg_one.clone());
            model.add_labeled_constraint(
                up,
                Relation::Ge,
                T::zero(),
                Some(format!("dp_up_{i}_{r}")),
            )?;
            slots.push((model.num_constraints() - 1, x_vars[i][r]));
        }
    }
    Ok((model, x_vars, slots))
}

/// Register the `-α` parameter slots on a finished model and assemble the
/// template (shared epilogue of the minimax and Bayesian builders).
fn finish_template<T: Scalar>(
    model: Model<T>,
    slots: AlphaSlots,
    x_vars: XVars,
    size: usize,
) -> Result<TailoredLp<T>> {
    let mut template = ModelTemplate::new(model);
    for (constraint, var) in slots {
        template
            .bind_scaled(constraint, var, -T::one())
            .map_err(CoreError::from)?;
    }
    Ok(TailoredLp {
        template,
        x_vars,
        size,
    })
}

impl<T: Scalar> TailoredLp<T> {
    /// Build the minimax template: epigraph objective over the members of the
    /// consumer's side-information set.
    pub(crate) fn for_minimax(consumer: &MinimaxConsumer<T>) -> Result<Self> {
        let n = consumer.side_information().n();
        let size = n + 1;
        let (mut model, x_vars, slots) = tailored_skeleton::<T>(n)?;

        // Epigraph objective: minimize the worst expected loss over S. The
        // loss coefficients come out of one pre-tabulated matrix row per
        // member and do not depend on α.
        let losses = tabulate_loss(consumer.loss(), size);
        let mut exprs = Vec::new();
        for &i in consumer.side_information().members() {
            let mut expr = LinExpr::new();
            for (r, cost) in losses.row(i).iter().enumerate() {
                expr.add_term(x_vars[i][r], cost.clone());
            }
            exprs.push(expr);
        }
        model.minimize_max(exprs)?;

        finish_template(model, slots, x_vars, size)
    }

    /// Build the Bayesian template: prior-weighted linear objective (the
    /// Section 2.7 model of Ghosh, Roughgarden and Sundararajan).
    pub(crate) fn for_bayesian(consumer: &BayesianConsumer<T>) -> Result<Self> {
        let n = consumer.n();
        let size = n + 1;
        let (mut model, x_vars, slots) = tailored_skeleton::<T>(n)?;

        // Prior-weighted loss coefficients: scale each tabulated loss row by
        // the prior mass in place rather than multiplying per term.
        let losses = tabulate_loss(consumer.loss(), size);
        let prior = consumer.prior();
        let mut objective = LinExpr::new();
        #[allow(clippy::needless_range_loop)] // i indexes prior, losses and x_vars together
        for i in 0..size {
            if prior[i].is_zero_approx() {
                continue;
            }
            let mut weighted = losses.row(i).to_vec();
            privmech_linalg::kernels::scale(&mut weighted, &prior[i]);
            for (r, coeff) in weighted.into_iter().enumerate() {
                objective.add_term(x_vars[i][r], coeff);
            }
        }
        model.set_objective(privmech_lp::Sense::Minimize, objective)?;

        finish_template(model, slots, x_vars, size)
    }

    fn extract(&self, solution: &privmech_lp::Solution<T>) -> Result<Mechanism<T>> {
        let matrix = Matrix::from_fn(self.size, self.size, |i, r| {
            solution.value(self.x_vars[i][r]).clone()
        });
        // Clamp tiny negative float noise and renormalize rows (a no-op for
        // the exact backend, where the LP solution is exactly stochastic).
        Mechanism::from_matrix_normalized(matrix)
    }

    /// Re-parameterize the template to `alpha` in place and solve.
    pub(crate) fn solve_in_place(
        &mut self,
        alpha: &T,
        options: &SolverOptions,
    ) -> Result<(Mechanism<T>, PivotStats)> {
        let solution = self
            .template
            .solve_at(alpha, options)
            .map_err(CoreError::from)?;
        Ok((self.extract(&solution)?, solution.stats))
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

    #[test]
    fn template_reuse_matches_fresh_builds_exactly() {
        // The warm path of a sweep: one template re-parameterized across α
        // must agree bit for bit with a freshly built LP per α, both in-place
        // and through the clone-per-worker instantiation.
        let consumer = paper_consumer();
        let options = SolverOptions::default();
        let mut warm = TailoredLp::for_minimax(&consumer).unwrap();
        for (num, den) in [(1i64, 4i64), (1, 2), (2, 3), (1, 5), (1, 1)] {
            let alpha = rat(num, den);
            let (warm_mech, warm_stats) = warm.solve_in_place(&alpha, &options).unwrap();
            let mut cold = TailoredLp::for_minimax(&consumer).unwrap();
            let (cold_mech, cold_stats) = cold.solve_in_place(&alpha, &options).unwrap();
            assert_eq!(warm_mech, cold_mech, "alpha = {alpha}");
            assert_eq!(warm_stats, cold_stats, "alpha = {alpha}");
            // The clone-per-worker path of a parallel sweep.
            let (inst_mech, inst_stats) = warm.clone().solve_in_place(&alpha, &options).unwrap();
            assert_eq!(inst_mech, cold_mech, "alpha = {alpha} (worker clone)");
            assert_eq!(inst_stats, cold_stats, "alpha = {alpha} (worker clone)");
        }
    }
}
