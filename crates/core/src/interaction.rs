//! Consumer interaction with a deployed mechanism (Section 2.4).
//!
//! A rational consumer does not take the released value at face value: it
//! reinterprets each possible output `r` as a (possibly random) output `r'`,
//! described by a row-stochastic matrix `T`, inducing the mechanism `y·T`
//! (Definition 3). The *optimal interaction* minimizes the consumer's
//! worst-case loss and is the solution of the linear program of
//! Section 2.4.3. Bayesian consumers (Section 2.7) need only deterministic
//! reinterpretations, which this module computes directly without an LP.

use privmech_linalg::{Matrix, Scalar};
use privmech_lp::{LinExpr, Model, PivotStats, Relation, SolverOptions};

use crate::consumer::{BayesianConsumer, MinimaxConsumer};
use crate::error::{CoreError, Result};
use crate::mechanism::Mechanism;

/// The outcome of a consumer's optimal interaction with a deployed mechanism.
#[derive(Debug, Clone)]
pub struct Interaction<T: Scalar> {
    /// The optimal post-processing (reinterpretation) matrix `T*`.
    pub post_processing: Matrix<T>,
    /// The induced mechanism `y · T*`.
    pub induced: Mechanism<T>,
    /// The loss achieved by the induced mechanism under the consumer's
    /// objective (worst-case for minimax, expected for Bayesian).
    pub loss: T,
    /// Simplex pivot statistics from the underlying LP solve (all zeros for
    /// the Bayesian interaction, which needs no LP).
    pub lp_stats: PivotStats,
}

/// The minimax consumer's optimal interaction with a deployed mechanism:
/// build the Section 2.4.3 LP and solve it.
///
/// Variables `T[r][r']` with unit row sums, and one epigraph row per member
/// `i` of `S` whose coefficient of `t[r][r']` is `y[i][r]·l(i, r')`.
#[allow(clippy::needless_range_loop)] // index-coupled access into t_vars[r][r']
pub(crate) fn minimax_interaction<T: Scalar>(
    deployed: &Mechanism<T>,
    consumer: &MinimaxConsumer<T>,
    options: &SolverOptions,
) -> Result<Interaction<T>> {
    if deployed.n() != consumer.side_information().n() {
        return Err(CoreError::InvalidSideInformation {
            reason: format!(
                "consumer is defined for n = {}, mechanism has n = {}",
                consumer.side_information().n(),
                deployed.n()
            ),
        });
    }
    let size = deployed.size();
    let mut model: Model<T> = Model::new();

    // t_vars[r][r'] = probability of reinterpreting r as r'.
    let mut t_vars = Vec::with_capacity(size);
    for r in 0..size {
        t_vars.push(model.add_nonneg_vars(&format!("t_{r}"), size));
    }

    // Each reinterpretation row is a probability distribution.
    for row in &t_vars {
        let mut row_sum = LinExpr::new();
        for &var in row {
            row_sum.add_term(var, T::one());
        }
        model.add_constraint(row_sum, Relation::Eq, T::one())?;
    }

    // One epigraph expression per possible true result in S. The losses
    // come pre-tabulated and each coefficient is a single by-reference
    // multiply instead of a dynamically dispatched loss call per (r, r').
    let losses = crate::loss::tabulate_loss(consumer.loss(), size);
    let mut exprs = Vec::new();
    for &i in consumer.side_information().members() {
        let mut expr = LinExpr::new();
        let loss_row = losses.row(i);
        for r in 0..size {
            let y_ir = deployed.prob(i, r)?;
            if y_ir.is_zero_approx() {
                continue;
            }
            for (rp, cost) in loss_row.iter().enumerate() {
                expr.add_term(t_vars[r][rp], y_ir.mul_ref(cost));
            }
        }
        exprs.push(expr);
    }
    model.minimize_max(exprs)?;

    let solution = model.solve_with(options).map_err(CoreError::from)?;
    let post_raw = Matrix::from_fn(size, size, |r, rp| solution.value(t_vars[r][rp]).clone());
    // Clamp tiny negative float noise and renormalize rows so the
    // post-processing matrix is exactly stochastic even with the f64
    // backend.
    let post = Mechanism::from_matrix_normalized(post_raw)?.into_matrix();
    let induced = deployed.post_process(&post)?;
    let achieved = consumer.disutility(&induced)?;
    Ok(Interaction {
        post_processing: post,
        induced,
        loss: achieved,
        lp_stats: solution.stats,
    })
}

/// Shared implementation of the Bayesian posterior-argmin remap behind
/// [`PrivacyEngine::interact`](crate::engine::PrivacyEngine::interact): for
/// each observed output `r`, deterministically remap it to the output `r'`
/// minimizing the posterior-expected loss `Σ_i prior[i]·y[i][r]·l(i, r')`.
/// The post-processing matrix is 0/1 — Bayesian consumers never need
/// randomized reinterpretation, in contrast with minimax consumers
/// (Table 1(c) of the paper).
#[allow(clippy::needless_range_loop)] // i indexes prior, mechanism rows and losses together
pub(crate) fn bayesian_interaction_impl<T: Scalar>(
    deployed: &Mechanism<T>,
    consumer: &BayesianConsumer<T>,
) -> Result<Interaction<T>> {
    if deployed.n() != consumer.n() {
        return Err(CoreError::InvalidPrior {
            reason: format!(
                "consumer is defined for n = {}, mechanism has n = {}",
                consumer.n(),
                deployed.n()
            ),
        });
    }
    let size = deployed.size();
    let prior = consumer.prior();
    let loss = consumer.loss();

    let mut best_targets = Vec::with_capacity(size);
    for r in 0..size {
        let mut best: Option<(usize, T)> = None;
        for rp in 0..size {
            let mut score = T::zero();
            for i in 0..size {
                let weight = prior[i].clone() * deployed.prob(i, r)?.clone();
                if weight.is_zero_approx() {
                    continue;
                }
                score = score + weight * loss.loss(i, rp);
            }
            match &best {
                None => best = Some((rp, score)),
                Some((_, b)) if score < *b => best = Some((rp, score)),
                _ => {}
            }
        }
        best_targets.push(best.expect("non-empty output domain").0);
    }

    let post = Matrix::from_fn(size, size, |r, rp| {
        if best_targets[r] == rp {
            T::one()
        } else {
            T::zero()
        }
    });
    let induced = deployed.post_process(&post)?;
    let achieved = consumer.disutility(&induced)?;
    Ok(Interaction {
        post_processing: post,
        induced,
        loss: achieved,
        lp_stats: PivotStats::default(),
    })
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::alpha::PrivacyLevel;
    use crate::consumer::SideInformation;
    use crate::geometric::geometric_mechanism;
    use crate::loss::{AbsoluteError, ZeroOneError};
    // The seed recipe in one place, shared with optimal.rs's tests so the
    // bit-identity anchors cannot drift apart.
    use crate::seed_compat::{bayesian_optimal_interaction, optimal_interaction};
    use privmech_numerics::{rat, Rational};

    #[test]
    fn interaction_never_hurts() {
        // Optimal post-processing can only improve (or keep) the consumer's loss.
        let level = PrivacyLevel::new(rat(1, 3)).unwrap();
        let g = geometric_mechanism(4, &level).unwrap();
        let consumer =
            MinimaxConsumer::new("gov", Arc::new(AbsoluteError), SideInformation::full(4)).unwrap();
        let raw = consumer.disutility(&g).unwrap();
        let interaction = optimal_interaction(&g, &consumer).unwrap();
        assert!(interaction.loss <= raw);
        assert!(interaction.post_processing.is_row_stochastic());
        assert_eq!(interaction.induced.n(), 4);
    }

    #[test]
    fn side_information_truncates_outputs() {
        // Example 1 of the paper: a consumer who knows the result is at least
        // l should never keep an output below l. With S = {2,...,4} and
        // absolute loss, the induced mechanism must put zero mass below 2 on
        // every input in S.
        let level = PrivacyLevel::new(rat(1, 4)).unwrap();
        let g = geometric_mechanism(4, &level).unwrap();
        let consumer = MinimaxConsumer::new(
            "drug-company",
            Arc::new(AbsoluteError),
            SideInformation::at_least(4, 2).unwrap(),
        )
        .unwrap();
        let interaction = optimal_interaction(&g, &consumer).unwrap();
        for &i in consumer.side_information().members() {
            for r in 0..2 {
                assert!(
                    interaction.induced.prob(i, r).unwrap().is_zero_approx(),
                    "mass below the known lower bound at ({i}, {r})"
                );
            }
        }
        // And the loss is strictly better than accepting the raw output.
        let raw = g
            .minimax_loss(consumer.side_information().members(), consumer.loss())
            .unwrap();
        assert!(interaction.loss < raw);
    }

    #[test]
    fn reproduces_paper_table1c_interaction() {
        // Table 1(c): the paper prints the consumer interaction
        //   [9/11 2/11 0 0; 0 1 0 0; 0 0 1 0; 0 0 2/11 9/11]
        // for the consumer with l(i,r) = |i-r|, S = {0,1,2,3}, n = 3, α = 1/4.
        // The paper's printed fractions are rounded (Table 1(a)'s rows do not
        // even sum to one), so we assert that our exact LP optimum is at least
        // as good as the loss achieved by the paper's printed interaction and
        // within 1% of it.
        let level = PrivacyLevel::new(rat(1, 4)).unwrap();
        let g = geometric_mechanism(3, &level).unwrap();
        let consumer = MinimaxConsumer::new(
            "paper-consumer",
            Arc::new(AbsoluteError),
            SideInformation::full(3),
        )
        .unwrap();
        let interaction = optimal_interaction(&g, &consumer).unwrap();

        let paper_t = Matrix::from_rows(vec![
            vec![rat(9, 11), rat(2, 11), rat(0, 1), rat(0, 1)],
            vec![rat(0, 1), rat(1, 1), rat(0, 1), rat(0, 1)],
            vec![rat(0, 1), rat(0, 1), rat(1, 1), rat(0, 1)],
            vec![rat(0, 1), rat(0, 1), rat(2, 11), rat(9, 11)],
        ])
        .unwrap();
        let paper_induced = g.post_process(&paper_t).unwrap();
        let paper_loss = consumer.disutility(&paper_induced).unwrap();
        // Paper's printed interaction achieves 357/880; the exact optimum is
        // 168/415, slightly better.
        assert_eq!(paper_loss, rat(357, 880));
        assert_eq!(interaction.loss, rat(168, 415));
        assert!(interaction.loss <= paper_loss);
        let gap = (paper_loss.clone() - interaction.loss.clone()) / paper_loss;
        assert!(gap < rat(1, 100), "gap {gap} should be below 1%");
    }

    #[test]
    fn bayesian_interaction_is_deterministic() {
        let level = PrivacyLevel::new(rat(1, 4)).unwrap();
        let g = geometric_mechanism(3, &level).unwrap();
        let consumer = BayesianConsumer::uniform("analyst", Arc::new(AbsoluteError), 3).unwrap();
        let interaction = bayesian_optimal_interaction(&g, &consumer).unwrap();
        // Every row of the post-processing matrix is a point mass.
        for r in 0..4 {
            let ones = (0..4)
                .filter(|&rp| interaction.post_processing[(r, rp)] == Rational::one())
                .count();
            let zeros = (0..4)
                .filter(|&rp| interaction.post_processing[(r, rp)] == Rational::zero())
                .count();
            assert_eq!(ones, 1);
            assert_eq!(zeros, 3);
        }
        // Post-processing cannot hurt the Bayesian objective either.
        assert!(interaction.loss <= consumer.disutility(&g).unwrap());
    }

    #[test]
    fn bayesian_point_prior_maps_everything_to_the_known_answer() {
        // A consumer certain the answer is 2 maps every output to 2 and
        // achieves zero loss.
        let level = PrivacyLevel::new(rat(1, 3)).unwrap();
        let g = geometric_mechanism(3, &level).unwrap();
        let prior = vec![
            Rational::zero(),
            Rational::zero(),
            Rational::one(),
            Rational::zero(),
        ];
        let consumer = BayesianConsumer::new("certain", Arc::new(ZeroOneError), prior).unwrap();
        let interaction = bayesian_optimal_interaction(&g, &consumer).unwrap();
        assert_eq!(interaction.loss, Rational::zero());
        for r in 0..4 {
            assert_eq!(interaction.post_processing[(r, 2)], Rational::one());
        }
    }

    #[test]
    fn dimension_mismatches_are_rejected() {
        let level = PrivacyLevel::new(rat(1, 3)).unwrap();
        let g = geometric_mechanism(3, &level).unwrap();
        let consumer = MinimaxConsumer::<Rational>::new(
            "gov",
            Arc::new(AbsoluteError),
            SideInformation::full(5),
        )
        .unwrap();
        assert!(optimal_interaction(&g, &consumer).is_err());
        let bayes = BayesianConsumer::<Rational>::uniform("b", Arc::new(AbsoluteError), 5).unwrap();
        assert!(bayesian_optimal_interaction(&g, &bayes).is_err());
    }
}
