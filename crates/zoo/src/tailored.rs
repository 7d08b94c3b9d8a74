//! The consumer-tailored optimum for an arbitrary [`QueryClass`].
//!
//! This is the Section 2.5 LP of the paper with one generalization: the
//! differential-privacy rows run over the query class's induced adjacency
//! ([`QueryClass::adjacent_pairs`]) instead of only consecutive results.
//! It is built by `privmech-core`'s own Section 2.5 builder
//! ([`TailoredLp::minimax`]) with that edge list. For [`QueryClass::Count`]
//! the edges are the consecutive pairs, so the model is the one
//! `SolveStrategy::DirectLp` solves — the tests pin that the optimal loss
//! agrees exactly with
//! [`PrivacyEngine::solve`](privmech_core::PrivacyEngine::solve) — and the
//! zoo degrades to the paper's setting rather than sitting beside it.
//!
//! # Float solves and the exact rescue
//!
//! The `f64` backend prices by Bland's rule on an unscaled dense tableau,
//! and Bland's termination proof assumes exact arithmetic. The generalized
//! adjacency polytopes are degenerate enough that roundoff can genuinely
//! cycle the float solve into its iteration cap (observed on sum classes —
//! tens of thousands of consecutive degenerate pivots with the phase-1
//! objective pinned). Every finite float is exactly representable as a
//! rational, so when that happens [`tailored_optimum`] rebuilds the same
//! model through the same builder over a [`Rational`] consumer (its loss
//! table and α lifted exactly), solves it exactly (exact Bland cannot
//! cycle), and rounds the optimal mechanism to `f64` once at the end. Exact
//! callers never take this path.
//!
//! Few float solves reach the cap. On `sum(rows=2, per_row=3)` the
//! tolerance(2) consumer at α = 2/3 and 3/4 converges in float after 5,575
//! and 5,109 Bland pivots (losses 0.6666676 and 0.7500972 against the exact
//! 2/3 and 3/4) and is not rescued; at α = 1/2 the squared and
//! tolerance(2) consumers are. See `ZOO.md`.

use std::sync::Arc;

use privmech_core::loss::tabulate_loss;
use privmech_core::{
    CoreError, Mechanism, MinimaxConsumer, PivotStats, PrivacyLevel, Result, SolverOptions,
    TableLoss, TailoredLp,
};
use privmech_linalg::{Matrix, Scalar};
use privmech_lp::LpError;
use privmech_numerics::Rational;

use crate::query::QueryClass;

/// A tailored optimum: the loss-minimizing mechanism among all mechanisms
/// that are α-differentially private *for this query class*, for one
/// minimax consumer.
#[derive(Debug, Clone)]
pub struct TailoredOptimum<T: Scalar> {
    /// The optimal release mechanism over the class's result space.
    pub mechanism: Mechanism<T>,
    /// Its worst-case expected loss over the consumer's side information.
    pub loss: T,
    /// Pivot statistics of the underlying LP solve.
    pub stats: PivotStats,
}

/// Solve the generalized tailored LP for `consumer` at `level`, under the
/// solver's default options (the configuration every served answer uses).
///
/// The consumer's side information must live over the class's result space
/// (`consumer.side_information().n() == class.result_bound()`).
pub fn tailored_optimum<T: Scalar>(
    class: &QueryClass,
    consumer: &MinimaxConsumer<T>,
    level: &PrivacyLevel<T>,
) -> Result<TailoredOptimum<T>> {
    class.validate()?;
    let bound = class.result_bound();
    if consumer.side_information().n() != bound {
        return Err(CoreError::InvalidSideInformation {
            reason: format!(
                "consumer side information is over {{0, …, {}}}, query class \"{}\" has results {{0, …, {bound}}}",
                consumer.side_information().n(),
                class.kind()
            ),
        });
    }
    let edges = class.adjacent_pairs();
    let options = SolverOptions::default();
    let (mechanism, stats) =
        match TailoredLp::minimax(consumer, level.alpha(), &edges)?.solve(&options) {
            Err(CoreError::Lp(LpError::Internal(_))) if !T::is_exact() => {
                // Exact rescue (module docs): the float Bland tableau cycled
                // into its iteration cap. Lift the (exactly representable)
                // float loss table and α to rationals, solve the identical model
                // exactly, and round the optimal mechanism once at the end.
                let size = bound + 1;
                let losses = tabulate_loss(consumer.loss(), size);
                let exact_losses = Matrix::from_fn(size, size, |i, r| {
                    Rational::from_f64(losses.row(i)[r].to_f64())
                });
                let exact_consumer = MinimaxConsumer::new(
                    consumer.name(),
                    Arc::new(TableLoss::new(exact_losses, consumer.loss().name())?),
                    consumer.side_information().clone(),
                )?;
                let exact_alpha = Rational::from_f64(level.alpha().to_f64());
                let (exact, stats) =
                    TailoredLp::minimax(&exact_consumer, &exact_alpha, &edges)?.solve(&options)?;
                let matrix = Matrix::from_fn(size, size, |i, r| {
                    T::from_f64(exact.matrix()[(i, r)].to_f64())
                });
                (Mechanism::from_matrix_normalized(matrix)?, stats)
            }
            solved => solved?,
        };
    let loss = consumer.disutility(&mechanism)?;
    Ok(TailoredOptimum {
        mechanism,
        loss,
        stats,
    })
}

/// Whether `mechanism` is α-differentially private *for this query class*:
/// the [`Mechanism::is_differentially_private`] check generalized from
/// consecutive rows to the class's adjacency pairs.
#[must_use]
pub fn is_private_for_class<T: Scalar>(
    mechanism: &Mechanism<T>,
    class: &QueryClass,
    level: &PrivacyLevel<T>,
) -> bool {
    if mechanism.n() != class.result_bound() {
        return false;
    }
    let alpha = level.alpha();
    let tol = T::tolerance();
    for (a, b) in class.adjacent_pairs() {
        let (Ok(row_a), Ok(row_b)) = (mechanism.row(a), mechanism.row(b)) else {
            return false;
        };
        for (pa, pb) in row_a.iter().zip(row_b.iter()) {
            let lo = alpha.clone() * pb.clone() - tol.clone();
            if *pa < lo {
                return false;
            }
            let lo = alpha.clone() * pa.clone() - tol.clone();
            if *pb < lo {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use privmech_core::loss::{AbsoluteError, ZeroOneError};
    use privmech_core::{
        geometric_mechanism, PrivacyEngine, SideInformation, SolveRequest, SolveStrategy,
    };
    use privmech_numerics::{rat, Rational};

    use super::*;

    fn consumer(n: usize) -> MinimaxConsumer<Rational> {
        MinimaxConsumer::new("abs", Arc::new(AbsoluteError), SideInformation::full(n)).unwrap()
    }

    #[test]
    fn count_class_reproduces_the_engine_optimum_exactly() {
        // The zoo LP on QueryClass::Count must agree with the engine's
        // tailored optimum — same optimal loss, and a mechanism that is
        // α-DP with the same disutility — anchoring the generalization to
        // the paper's setting.
        let level = PrivacyLevel::new(rat(1, 4)).unwrap();
        let class = QueryClass::Count { n: 3 };
        let c = consumer(3);
        let zoo = tailored_optimum(&class, &c, &level).unwrap();
        let engine_solve = PrivacyEngine::new()
            .solve(
                &SolveRequest::minimax()
                    .name("anchor")
                    .loss(Arc::new(AbsoluteError))
                    .support(3, 0..=3)
                    .privacy_level(rat(1, 4))
                    .strategy(SolveStrategy::DirectLp)
                    .validate()
                    .unwrap(),
            )
            .unwrap();
        assert_eq!(zoo.loss, engine_solve.loss);
        // The paper's pinned optimum for (n = 3, α = 1/4, absolute, full S).
        assert_eq!(zoo.loss, rat(168, 415));
        assert!(is_private_for_class(&zoo.mechanism, &class, &level));
    }

    #[test]
    fn median_optimum_is_private_under_the_complete_graph() {
        let level = PrivacyLevel::new(rat(1, 3)).unwrap();
        let class = QueryClass::Median { rows: 3, domain: 3 };
        let c = consumer(3);
        let zoo = tailored_optimum(&class, &c, &level).unwrap();
        assert!(is_private_for_class(&zoo.mechanism, &class, &level));
        // The complete graph strictly contains the path graph, so the
        // median optimum can be no better than the count optimum — and for
        // absolute loss it is strictly worse.
        let count = tailored_optimum(&QueryClass::Count { n: 3 }, &c, &level).unwrap();
        assert!(zoo.loss > count.loss);
    }

    #[test]
    fn geometric_mechanism_is_not_private_for_wider_adjacency() {
        // The geometric mechanism's row ratios at distance k are α^k < α,
        // so it leaves the feasible set as soon as the adjacency widens —
        // the structural reason universal optimality cannot survive
        // verbatim beyond count queries.
        let level = PrivacyLevel::new(rat(1, 2)).unwrap();
        let g = geometric_mechanism(4, &level).unwrap();
        assert!(is_private_for_class(
            &g,
            &QueryClass::Count { n: 4 },
            &level
        ));
        assert!(!is_private_for_class(
            &g,
            &QueryClass::Sum {
                rows: 2,
                per_row: 2
            },
            &level
        ));
    }

    #[test]
    fn mismatched_support_is_rejected() {
        let level = PrivacyLevel::new(rat(1, 2)).unwrap();
        let class = QueryClass::Sum {
            rows: 2,
            per_row: 2,
        };
        let c = consumer(3); // class result space is {0..4}
        let err = tailored_optimum(&class, &c, &level);
        assert!(matches!(err, Err(CoreError::InvalidSideInformation { .. })));
    }

    #[test]
    fn zero_one_loss_on_median_matches_randomized_response() {
        // Under the complete graph, the tailored optimum for 0/1 loss is
        // the maximal randomized response (Kairouz et al.'s extremal
        // mechanism shape): staying probability p = (1-α)/(1-α+(N+1)α) + off.
        let level = PrivacyLevel::new(rat(1, 2)).unwrap();
        let class = QueryClass::Median { rows: 3, domain: 2 };
        let c =
            MinimaxConsumer::new("zo", Arc::new(ZeroOneError), SideInformation::full(2)).unwrap();
        let zoo = tailored_optimum(&class, &c, &level).unwrap();
        let rr = privmech_core::randomized_response(2, &level).unwrap();
        assert_eq!(zoo.loss, c.disutility(&rr).unwrap());
    }
}
