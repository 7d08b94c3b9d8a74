//! Property tests for the engine's batched α-sweeps (proptest shim).
//!
//! The central contract: `engine.sweep(levels, request)` over an arbitrary
//! list of privacy levels equals per-level `engine.solve` calls —
//! **exactly** (bit-identical mechanisms, losses and pivot statistics), on
//! the `Rational` and the `f64` backend alike. Every level of a sweep runs
//! the same stateless build-and-solve step as a single solve, on whichever
//! worker thread picks it up, so these tests pin down that neither thread
//! count nor completion order can change a result, for both solve
//! strategies.

use std::sync::Arc;

use privmech_core::{
    AbsoluteError, PrivacyEngine, PrivacyLevel, Solve, SolveRequest, SolveStrategy, TableLoss,
    ValidatedRequest,
};
use privmech_linalg::Matrix;
use privmech_numerics::{rat, Rational};
use proptest::prelude::*;

/// Random α as a fraction num/den with 0 <= num <= den <= 9 (both endpoints
/// α = 0 and α = 1 included: the sweep must handle the vacuous and absolute
/// privacy levels through the same code path).
fn arb_alpha() -> impl Strategy<Value = Rational> {
    (0i64..=9, 1i64..=9).prop_map(|(n, d)| if n >= d { rat(1, 1) } else { rat(n, d) })
}

/// A list of 1..=6 privacy levels, possibly with duplicates.
fn arb_levels() -> impl Strategy<Value = Vec<PrivacyLevel<Rational>>> {
    prop::collection::vec(arb_alpha(), 1..=6).prop_map(|alphas| {
        alphas
            .into_iter()
            .map(|a| PrivacyLevel::new(a).unwrap())
            .collect()
    })
}

/// A random monotone loss table over {0..=n}: l(i, r) is a random
/// non-decreasing function of |i - r|.
fn arb_monotone_loss(n: usize) -> impl Strategy<Value = TableLoss<Rational>> {
    prop::collection::vec(0i64..=4, n + 1).prop_map(move |increments| {
        let mut cumulative = vec![0i64; n + 1];
        let mut acc = 0i64;
        for d in 1..=n {
            acc += increments[d];
            cumulative[d] = acc;
        }
        let table = Matrix::from_fn(n + 1, n + 1, |i, r| rat(cumulative[i.abs_diff(r)], 1));
        TableLoss::new(table, "random-monotone").unwrap()
    })
}

/// Random non-empty side-information subset of {0..=n}.
fn arb_members(n: usize) -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(any::<bool>(), n + 1).prop_map(move |mask| {
        let mut members: Vec<usize> = mask
            .iter()
            .enumerate()
            .filter_map(|(i, &keep)| keep.then_some(i))
            .collect();
        if members.is_empty() {
            members.push(n / 2);
        }
        members
    })
}

fn per_level_solves(
    levels: &[PrivacyLevel<Rational>],
    request: &ValidatedRequest<Rational>,
) -> Vec<Solve<Rational>> {
    let engine = PrivacyEngine::with_threads(1);
    levels
        .iter()
        .map(|level| {
            let at = request.clone().at_level(level.clone());
            engine.solve(&at).unwrap()
        })
        .collect()
}

fn assert_exact_match(swept: &[Solve<Rational>], singles: &[Solve<Rational>], label: &str) {
    assert_eq!(swept.len(), singles.len(), "{label}: result count");
    for (k, (s, single)) in swept.iter().zip(singles).enumerate() {
        assert_eq!(s.level, single.level, "{label}: level order at {k}");
        assert_eq!(s.mechanism, single.mechanism, "{label}: mechanism at {k}");
        assert_eq!(s.loss, single.loss, "{label}: loss at {k}");
        assert_eq!(s.stats, single.stats, "{label}: stats at {k}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn minimax_sweep_equals_per_level_solves_exactly(
        levels in arb_levels(),
        loss in arb_monotone_loss(3),
        members in arb_members(3),
    ) {
        let loss = Arc::new(loss);
        for strategy in [SolveStrategy::GeometricFactorization, SolveStrategy::DirectLp] {
            let request = SolveRequest::<Rational>::minimax()
                .name("sweep-property")
                .loss(loss.clone())
                .support(3, members.iter().copied())
                .privacy_level(rat(1, 2)) // placeholder; sweep overrides per level
                .strategy(strategy)
                .validate()
                .unwrap();
            let singles = per_level_solves(&levels, &request);
            for threads in [1usize, 4] {
                let swept = PrivacyEngine::with_threads(threads)
                    .sweep(&levels, &request)
                    .unwrap();
                assert_exact_match(&swept, &singles, &format!("{strategy:?} x{threads}"));
            }
        }
    }

    #[test]
    fn sweep_with_streams_exactly_the_sweep_results(
        levels in arb_levels(),
        loss in arb_monotone_loss(3),
        members in arb_members(3),
    ) {
        // The incremental API behind `sweep`: completion-order delivery with
        // input indices must carry exactly the solves the input-order wrapper
        // returns — every index exactly once, bit-identical payloads — at any
        // thread count (out-of-order completion included).
        let loss = Arc::new(loss);
        for strategy in [SolveStrategy::GeometricFactorization, SolveStrategy::DirectLp] {
            let request = SolveRequest::<Rational>::minimax()
                .name("sweep-with-property")
                .loss(loss.clone())
                .support(3, members.iter().copied())
                .privacy_level(rat(1, 2))
                .strategy(strategy)
                .validate()
                .unwrap();
            let ordered = PrivacyEngine::with_threads(1).sweep(&levels, &request).unwrap();
            for threads in [1usize, 4] {
                let mut delivered: Vec<Option<Solve<Rational>>> = vec![None; levels.len()];
                let mut completion_order = Vec::new();
                PrivacyEngine::with_threads(threads)
                    .sweep_with(&levels, &request, |idx, solve| {
                        completion_order.push(idx);
                        let prev = delivered[idx].replace(solve.unwrap());
                        assert!(prev.is_none(), "index {idx} delivered twice");
                    });
                prop_assert_eq!(completion_order.len(), levels.len());
                let reordered: Vec<Solve<Rational>> =
                    delivered.into_iter().map(Option::unwrap).collect();
                assert_exact_match(&reordered, &ordered, &format!("sweep_with {strategy:?} x{threads}"));
            }
        }
    }

    #[test]
    fn bayesian_sweep_equals_per_level_solves_exactly(
        levels in arb_levels(),
        weights in prop::collection::vec(0i64..=5, 4),
    ) {
        // Build a valid prior from random non-negative weights.
        let total: i64 = weights.iter().sum::<i64>().max(1);
        let mut prior: Vec<Rational> = weights.iter().map(|w| rat(*w, total)).collect();
        if weights.iter().sum::<i64>() == 0 {
            prior = vec![rat(1, 4); 4];
        }
        for strategy in [SolveStrategy::GeometricFactorization, SolveStrategy::DirectLp] {
            let request = SolveRequest::<Rational>::bayesian()
                .name("bayes-sweep-property")
                .loss(Arc::new(AbsoluteError))
                .prior(prior.clone())
                .privacy_level(rat(1, 3))
                .strategy(strategy)
                .validate()
                .unwrap();
            let singles = per_level_solves(&levels, &request);
            for threads in [1usize, 3] {
                let swept = PrivacyEngine::with_threads(threads)
                    .sweep(&levels, &request)
                    .unwrap();
                assert_exact_match(&swept, &singles, &format!("bayes {strategy:?} x{threads}"));
            }
        }
    }

    #[test]
    fn f64_sweep_matches_per_level_solves_within_tolerance(
        raw_alphas in prop::collection::vec(1u32..=99, 1..=5),
    ) {
        let levels: Vec<PrivacyLevel<f64>> = raw_alphas
            .iter()
            .map(|a| PrivacyLevel::new(f64::from(*a) / 100.0).unwrap())
            .collect();
        for strategy in [SolveStrategy::GeometricFactorization, SolveStrategy::DirectLp] {
            let request = SolveRequest::<f64>::minimax()
                .name("f64-sweep")
                .loss(Arc::new(AbsoluteError))
                .support(4, 0..=4)
                .privacy_level(0.5)
                .strategy(strategy)
                .validate()
                .unwrap();
            let engine = PrivacyEngine::with_threads(2);
            let swept = engine.sweep(&levels, &request).unwrap();
            // The tolerance is zero: a sweep level runs the very step a
            // solve runs, floating-point operations included.
            for (level, s) in levels.iter().zip(&swept) {
                let single = engine.solve(&request.clone().at_level(level.clone())).unwrap();
                let label = format!("{strategy:?} α={}", level.alpha());
                prop_assert_eq!(&s.mechanism, &single.mechanism, "{label}: mechanism");
                prop_assert_eq!(s.loss.to_bits(), single.loss.to_bits(), "{label}: loss");
                prop_assert_eq!(&s.stats, &single.stats, "{label}: stats");
            }
        }
    }
}

#[test]
fn sweep_matches_the_theorem1_equality_against_the_direct_lp() {
    // The warm sweep's losses must equal the tailored optima of the seed's
    // Section 2.5 formulation exactly (Theorem 1 with exact arithmetic), even
    // though the default strategy computes the mechanism through the
    // geometric factorization instead of the Section 2.5 LP.
    let levels: Vec<PrivacyLevel<Rational>> = [(1i64, 5i64), (1, 4), (1, 3), (1, 2), (2, 3)]
        .into_iter()
        .map(|(n, d)| PrivacyLevel::new(rat(n, d)).unwrap())
        .collect();
    let consumer = privmech_core::MinimaxConsumer::new(
        "thm1",
        Arc::new(AbsoluteError),
        privmech_core::SideInformation::full(4),
    )
    .unwrap();
    let request = ValidatedRequest::minimax(levels[0].clone(), consumer.clone());
    let swept = PrivacyEngine::with_threads(4)
        .sweep(&levels, &request)
        .unwrap();
    for (level, s) in levels.iter().zip(&swept) {
        let old = PrivacyEngine::with_threads(1)
            .solve(
                &ValidatedRequest::minimax(level.clone(), consumer.clone())
                    .with_strategy(SolveStrategy::DirectLp),
            )
            .unwrap();
        assert_eq!(s.loss, old.loss, "α = {}", level.alpha());
        assert!(s.mechanism.is_differentially_private(level));
        // The factorized mechanism is derivable from the geometric mechanism
        // by construction (Section 4.2 says the direct optimum is too).
        assert!(privmech_core::theorem2_check(&s.mechanism, level).is_derivable());
    }
}
