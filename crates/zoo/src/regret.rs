//! Minimax-regret tables: who wins when one mechanism must serve everyone.
//!
//! For a query class, a privacy level and a set of minimax consumers, the
//! table pits a candidate set of mechanisms — each consumer's tailored
//! optimum plus the class-appropriate reference baselines — against every
//! consumer. A cell holds the loss the consumer achieves by *optimally
//! post-processing* the candidate (the engine's interaction LP, Section
//! 2.4.3 of the paper) and the **regret**: that loss minus the consumer's
//! tailored optimum. A candidate with an all-zero regret row is universally
//! optimal for this instance.
//!
//! The paper's Theorem 1 says the count-query table must collapse: the
//! geometric mechanism's row is identically zero. Brenner–Nissim say the
//! sum- and median-query tables cannot: there are instances where no
//! candidate dominates, witnessed by a *non-dominated pair* — two consumers
//! each of whose tailored optima has strictly positive regret for the
//! other. Both facts are asserted exactly (Rational arithmetic) in this
//! module's tests and reproduced by the `zoo_regret` experiment binary.

use privmech_core::{
    randomized_response, Mechanism, MinimaxConsumer, PrivacyEngine, PrivacyLevel, Result,
    ValidatedRequest,
};
use privmech_linalg::Scalar;

use crate::query::QueryClass;
use crate::tailored::tailored_optimum;

/// A fully evaluated minimax-regret table.
#[derive(Debug, Clone)]
pub struct RegretTable<T: Scalar> {
    /// The query class the table was built for.
    pub class: QueryClass,
    /// The privacy parameter α shared by every candidate and optimum.
    pub alpha: T,
    /// Consumer display names, in input order (table columns).
    pub consumer_names: Vec<String>,
    /// Candidate display names (table rows): `tailored:<consumer>` for each
    /// consumer in order, then the reference baselines.
    pub candidate_names: Vec<String>,
    /// The tailored optimal loss per consumer (the benchmark of each column).
    pub opt: Vec<T>,
    /// `losses[row][col]`: consumer `col`'s optimally post-processed loss
    /// under candidate `row`.
    pub losses: Vec<Vec<T>>,
    /// `regrets[row][col] = losses[row][col] - opt[col]` (non-negative).
    pub regrets: Vec<Vec<T>>,
    /// Indices of candidates whose regret row is identically zero.
    pub dominant: Vec<usize>,
    /// The first consumer pair `(j, k)` such that `j`'s tailored optimum has
    /// positive regret for `k` *and* vice versa — the Brenner–Nissim
    /// witness; `None` when no such pair exists (count queries).
    pub non_dominated_pair: Option<(usize, usize)>,
}

fn is_positive<T: Scalar>(value: &T) -> bool {
    !value.is_zero_approx() && *value > T::zero()
}

/// Build the regret table for `class` at `level` over `consumers`.
///
/// Tailored optima for the count class go through
/// [`PrivacyEngine::solve`] (the Theorem 1 factorization route); the
/// generalized classes go through the zoo's [`tailored_optimum`] LP, which
/// reproduces the engine's answer exactly on counts (pinned in
/// `crate::tailored`'s tests). Every evaluation is an exact interaction-LP
/// solve, so the whole table is deterministic.
pub fn regret_table<T: Scalar + Send + Sync>(
    class: &QueryClass,
    level: &PrivacyLevel<T>,
    consumers: &[MinimaxConsumer<T>],
) -> Result<RegretTable<T>> {
    class.validate()?;
    let bound = class.result_bound();
    let engine = PrivacyEngine::with_threads(1);
    let is_count = matches!(class, QueryClass::Count { .. });

    // Column benchmarks and the tailored candidate rows.
    let mut opt = Vec::with_capacity(consumers.len());
    let mut candidates: Vec<(String, Mechanism<T>)> = Vec::new();
    for consumer in consumers {
        let (mechanism, loss) = if is_count {
            let request = ValidatedRequest::minimax(level.clone(), consumer.clone());
            let solve = engine.solve(&request)?;
            (solve.mechanism, solve.loss)
        } else {
            let t = tailored_optimum(class, consumer, level)?;
            (t.mechanism, t.loss)
        };
        opt.push(loss);
        candidates.push((format!("tailored:{}", consumer.name()), mechanism));
    }
    if is_count {
        candidates.push(("geometric".into(), engine.geometric(bound, level)?));
    }
    // Randomized response bounds *every* pairwise row ratio by α, so it is
    // the one baseline that stays feasible under any adjacency structure.
    candidates.push((
        "randomized_response".into(),
        randomized_response(bound, level)?,
    ));

    // Evaluate every candidate for every consumer via the interaction LP.
    let mut losses = Vec::with_capacity(candidates.len());
    let mut regrets = Vec::with_capacity(candidates.len());
    for (_, mechanism) in &candidates {
        let mut row_losses = Vec::with_capacity(consumers.len());
        let mut row_regrets = Vec::with_capacity(consumers.len());
        for (col, consumer) in consumers.iter().enumerate() {
            let request = ValidatedRequest::minimax(level.clone(), consumer.clone());
            let interaction = engine.interact(mechanism, &request)?;
            row_regrets.push(interaction.loss.clone() - opt[col].clone());
            row_losses.push(interaction.loss);
        }
        losses.push(row_losses);
        regrets.push(row_regrets);
    }

    let dominant = regrets
        .iter()
        .enumerate()
        .filter(|(_, row)| row.iter().all(|r| r.is_zero_approx()))
        .map(|(i, _)| i)
        .collect();
    // Tailored candidates occupy rows 0..consumers.len() in consumer order,
    // so the cross-regret of consumers (j, k) sits at [j][k] and [k][j].
    let mut non_dominated_pair = None;
    #[allow(clippy::needless_range_loop)] // (j, k) index regrets on both axes
    'outer: for j in 0..consumers.len() {
        for k in (j + 1)..consumers.len() {
            if is_positive(&regrets[j][k]) && is_positive(&regrets[k][j]) {
                non_dominated_pair = Some((j, k));
                break 'outer;
            }
        }
    }

    Ok(RegretTable {
        class: class.clone(),
        alpha: level.alpha().clone(),
        consumer_names: consumers.iter().map(|c| c.name().to_string()).collect(),
        candidate_names: candidates.into_iter().map(|(name, _)| name).collect(),
        opt,
        losses,
        regrets,
        dominant,
        non_dominated_pair,
    })
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use privmech_core::loss::{AbsoluteError, ZeroOneError};
    use privmech_core::SideInformation;
    use privmech_numerics::{rat, Rational};

    use super::*;

    fn minimax(
        name: &str,
        loss: Arc<dyn privmech_core::LossFunction<Rational> + Send + Sync>,
        side: SideInformation,
    ) -> MinimaxConsumer<Rational> {
        MinimaxConsumer::new(name, loss, side).unwrap()
    }

    /// The standard three-consumer panel over `{0, …, bound}` used by the
    /// pinned tables here and in the `zoo_regret` experiment.
    fn panel(bound: usize) -> Vec<MinimaxConsumer<Rational>> {
        vec![
            minimax("abs", Arc::new(AbsoluteError), SideInformation::full(bound)),
            minimax(
                "zero-one",
                Arc::new(ZeroOneError),
                SideInformation::full(bound),
            ),
            minimax(
                "abs-ends",
                Arc::new(AbsoluteError),
                SideInformation::new(bound, [0, bound]).unwrap(),
            ),
        ]
    }

    #[test]
    fn count_table_collapses_to_the_geometric_row() {
        // Theorem 1, as a regret table: the geometric candidate's regret row
        // is identically zero — one mechanism serves every consumer.
        let level = PrivacyLevel::new(rat(1, 4)).unwrap();
        let table = regret_table(&QueryClass::Count { n: 3 }, &level, &panel(3)).unwrap();
        let g = table
            .candidate_names
            .iter()
            .position(|n| n == "geometric")
            .unwrap();
        for (col, regret) in table.regrets[g].iter().enumerate() {
            assert_eq!(
                *regret,
                Rational::zero(),
                "geometric has regret for consumer {}",
                table.consumer_names[col]
            );
        }
        assert!(table.dominant.contains(&g));
        // And the paper's pinned optimum anchors the first column.
        assert_eq!(table.opt[0], rat(168, 415));
    }

    #[test]
    fn randomized_response_does_not_dominate_counts() {
        // The collapse is a property of the geometric mechanism, not of the
        // instance being easy: the RR baseline has strictly positive regret
        // somewhere on the same table.
        let level = PrivacyLevel::new(rat(1, 4)).unwrap();
        let table = regret_table(&QueryClass::Count { n: 3 }, &level, &panel(3)).unwrap();
        let rr = table
            .candidate_names
            .iter()
            .position(|n| n == "randomized_response")
            .unwrap();
        assert!(table.regrets[rr].iter().any(|r| *r > Rational::zero()));
    }

    #[test]
    fn sum_table_has_a_non_dominated_pair() {
        // Brenner–Nissim for sums: with the distance-2 adjacency band no
        // candidate row is all-zero, and the absolute / zero-one consumers
        // witness mutual positive regret.
        let level = PrivacyLevel::new(rat(1, 2)).unwrap();
        let class = QueryClass::Sum {
            rows: 2,
            per_row: 2,
        };
        let table = regret_table(&class, &level, &panel(4)).unwrap();
        assert!(
            table.dominant.is_empty(),
            "a candidate dominates the sum table: {:?}",
            table.dominant
        );
        let (j, k) = table.non_dominated_pair.expect("no non-dominated pair");
        assert!(table.regrets[j][k] > Rational::zero());
        assert!(table.regrets[k][j] > Rational::zero());
    }

    #[test]
    fn median_table_has_a_non_dominated_pair() {
        // Brenner–Nissim for medians: under the complete adjacency graph,
        // tailoring matters — no single mechanism serves both the absolute
        // and the zero-one consumer optimally.
        let level = PrivacyLevel::new(rat(1, 2)).unwrap();
        let class = QueryClass::Median { rows: 3, domain: 3 };
        let table = regret_table(&class, &level, &panel(3)).unwrap();
        assert!(
            table.dominant.is_empty(),
            "a candidate dominates the median table: {:?}",
            table.dominant
        );
        let (j, k) = table.non_dominated_pair.expect("no non-dominated pair");
        assert!(table.regrets[j][k] > Rational::zero());
        assert!(table.regrets[k][j] > Rational::zero());
    }

    #[test]
    fn regrets_are_never_negative() {
        // Every candidate is α-DP for its class, so no post-processed loss
        // can beat the tailored optimum — exact arithmetic, exact zero floor.
        let level = PrivacyLevel::new(rat(1, 3)).unwrap();
        for class in [
            QueryClass::Count { n: 3 },
            QueryClass::Sum {
                rows: 2,
                per_row: 2,
            },
            QueryClass::Median { rows: 3, domain: 3 },
        ] {
            let table = regret_table(&class, &level, &panel(class.result_bound())).unwrap();
            for row in &table.regrets {
                for regret in row {
                    assert!(*regret >= Rational::zero());
                }
            }
        }
    }
}
