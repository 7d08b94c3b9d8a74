//! Dense ≡ revised regression through the public engine surface (PR 4).
//!
//! The solver-form toggle ([`privmech_lp::SolverForm`]) is an execution
//! detail: `PrivacyEngine::solve` and `PrivacyEngine::sweep` must return
//! bit-identical results — mechanism, loss, and pivot statistics — whichever
//! form executes the LP, under both solve strategies and at every
//! refactorization frequency. This is what lets the serving layer keep
//! solver form out of its cache keys and keep verifying pre-refactor cache
//! entries (see `crates/serve/tests/forms.rs` for the serving-side half).

use std::sync::Arc;

use privmech_core::{
    AbsoluteError, LossFunction, PrivacyEngine, PrivacyLevel, SolveRequest, SolveStrategy,
    SquaredError, ToleranceError, ValidatedRequest,
};
use privmech_lp::{SolverForm, SolverOptions};
use privmech_numerics::{rat, Rational};

fn request(
    strategy: SolveStrategy,
    options: SolverOptions,
    alpha: Rational,
) -> ValidatedRequest<Rational> {
    SolveRequest::minimax()
        .loss(Arc::new(AbsoluteError))
        .support(3, 0..=3)
        .privacy_level(alpha)
        .strategy(strategy)
        .solver_options(options)
        .validate()
        .expect("valid request")
}

fn forms() -> Vec<SolverOptions> {
    vec![
        SolverOptions {
            form: SolverForm::Dense,
            ..SolverOptions::default()
        },
        SolverOptions::default(), // Auto: revised for Rational
        SolverOptions {
            refactor_interval: 1,
            ..SolverOptions::default()
        },
        SolverOptions {
            refactor_interval: SolverOptions::NEVER_REFACTOR,
            ..SolverOptions::default()
        },
    ]
}

#[test]
fn solve_is_bit_identical_across_forms_and_strategies() {
    let engine = PrivacyEngine::with_threads(1);
    for strategy in [
        SolveStrategy::DirectLp,
        SolveStrategy::GeometricFactorization,
    ] {
        for alpha in [rat(1, 4), rat(2, 3)] {
            let reference = engine
                .solve(&request(strategy, forms()[0], alpha.clone()))
                .expect("solvable");
            for options in &forms()[1..] {
                let other = engine
                    .solve(&request(strategy, *options, alpha.clone()))
                    .expect("solvable");
                assert_eq!(
                    reference.mechanism, other.mechanism,
                    "{strategy:?} {options:?}"
                );
                assert_eq!(reference.loss, other.loss, "{strategy:?} {options:?}");
                assert_eq!(reference.stats, other.stats, "{strategy:?} {options:?}");
            }
        }
    }
}

#[test]
fn sweep_is_bit_identical_across_forms() {
    let engine = PrivacyEngine::with_threads(2);
    let levels: Vec<PrivacyLevel<Rational>> = (1..=5)
        .map(|k| PrivacyLevel::new(rat(k, 6)).expect("alpha in (0,1)"))
        .collect();
    let reference = engine
        .sweep(
            &levels,
            &request(SolveStrategy::DirectLp, forms()[0], rat(1, 6)),
        )
        .expect("sweepable");
    for options in &forms()[1..] {
        let other = engine
            .sweep(
                &levels,
                &request(SolveStrategy::DirectLp, *options, rat(1, 6)),
            )
            .expect("sweepable");
        assert_eq!(reference.len(), other.len());
        for (r, o) in reference.iter().zip(&other) {
            assert_eq!(r.mechanism, o.mechanism, "{options:?}");
            assert_eq!(r.loss, o.loss, "{options:?}");
            assert_eq!(r.stats, o.stats, "{options:?}");
        }
    }
}

#[test]
fn bayesian_and_restricted_side_information_agree_too() {
    // A second consumer shape: squared error over a sub-interval, exercising
    // restricted-S epigraph rows through both forms.
    let engine = PrivacyEngine::with_threads(1);
    let build = |options: SolverOptions| {
        SolveRequest::<Rational>::minimax()
            .loss(Arc::new(SquaredError))
            .support(4, 1..=3)
            .privacy_level(rat(1, 3))
            .strategy(SolveStrategy::DirectLp)
            .solver_options(options)
            .validate()
            .expect("valid request")
    };
    let reference = engine.solve(&build(forms()[0])).expect("solvable");
    for options in &forms()[1..] {
        let other = engine.solve(&build(*options)).expect("solvable");
        assert_eq!(reference.mechanism, other.mechanism);
        assert_eq!(reference.loss, other.loss);
        assert_eq!(reference.stats, other.stats);
    }
}

#[test]
fn f64_backend_routes_every_form_to_the_dense_tableau() {
    let engine = PrivacyEngine::with_threads(1);
    let build = |options: SolverOptions| {
        SolveRequest::<f64>::minimax()
            .loss(Arc::new(AbsoluteError))
            .support(3, 0..=3)
            .privacy_level(0.25)
            .strategy(SolveStrategy::DirectLp)
            .solver_options(options)
            .validate()
            .expect("valid request")
    };
    let reference = engine.solve(&build(forms()[0])).expect("solvable");
    for options in &forms()[1..] {
        let other = engine.solve(&build(*options)).expect("solvable");
        // Byte identity, not tolerance: same code path must run.
        assert_eq!(reference.mechanism, other.mechanism);
        assert_eq!(reference.loss, other.loss);
        assert_eq!(reference.stats, other.stats);
    }
}

/// The form matrix at realistic sizes: the dense tableau as reference, then
/// the revised simplex on the default refactorization trigger, refactorized
/// every pivot, and never refactorized (one Forrest–Tomlin update per pivot
/// for the whole solve).
fn realistic_forms() -> Vec<SolverOptions> {
    vec![
        SolverOptions {
            form: SolverForm::Dense,
            ..SolverOptions::default()
        },
        SolverOptions::default(),
        SolverOptions {
            refactor_interval: 1,
            ..SolverOptions::default()
        },
        SolverOptions {
            refactor_interval: SolverOptions::NEVER_REFACTOR,
            ..SolverOptions::default()
        },
    ]
}

/// Theorem-1 solves at realistic sizes. The interaction LP's epigraph rows
/// carry `G_{n,α}` entries `∝ α^|i−z|` times the loss, so every column
/// mixes denominators — the shape the revised simplex's fraction-free pivot
/// row normalizes per column. Every form must return the identical
/// mechanism, loss and pivot statistics.
#[test]
fn realistic_theorem1_solves_are_bit_identical_across_forms() {
    let engine = PrivacyEngine::with_threads(1);
    let losses: [Arc<dyn LossFunction<Rational> + Send + Sync>; 2] = [
        Arc::new(SquaredError),
        Arc::new(ToleranceError { width: 2 }),
    ];
    for n in [8, 11] {
        for alpha in [rat(5, 9), rat(1, 4)] {
            for loss in &losses {
                let build = |options: SolverOptions| {
                    SolveRequest::minimax()
                        .loss(Arc::clone(loss))
                        .support(n, 0..=n)
                        .privacy_level(alpha.clone())
                        .strategy(SolveStrategy::GeometricFactorization)
                        .solver_options(options)
                        .validate()
                        .expect("valid request")
                };
                let configs = realistic_forms();
                let reference = engine.solve(&build(configs[0])).expect("solvable");
                let case = format!("n={n} alpha={alpha} loss={}", loss.name());
                for options in &configs[1..] {
                    let other = engine.solve(&build(*options)).expect("solvable");
                    assert_eq!(reference.mechanism, other.mechanism, "{case} {options:?}");
                    assert_eq!(reference.loss, other.loss, "{case} {options:?}");
                    assert_eq!(reference.stats, other.stats, "{case} {options:?}");
                }
            }
        }
    }
}

/// One `interact` with the deployed `G_{11,1/3}`: the post-processing LP
/// alone, at the largest size of the realistic range.
#[test]
fn interaction_with_g11_is_bit_identical_across_forms() {
    let engine = PrivacyEngine::with_threads(1);
    let level = PrivacyLevel::new(rat(1, 3)).expect("alpha in (0,1)");
    let deployed = engine.geometric(11, &level).expect("G_{11,1/3}");
    let build = |options: SolverOptions| {
        SolveRequest::<Rational>::minimax()
            .loss(Arc::new(AbsoluteError))
            .support(11, 0..=11)
            .privacy_level(rat(1, 3))
            .solver_options(options)
            .validate()
            .expect("valid request")
    };
    let configs = realistic_forms();
    let reference = engine
        .interact(&deployed, &build(configs[0]))
        .expect("interaction");
    for options in &configs[1..] {
        let other = engine
            .interact(&deployed, &build(*options))
            .expect("interaction");
        assert_eq!(
            reference.post_processing, other.post_processing,
            "{options:?}"
        );
        assert_eq!(reference.induced, other.induced, "{options:?}");
        assert_eq!(reference.loss, other.loss, "{options:?}");
        assert_eq!(reference.lp_stats, other.lp_stats, "{options:?}");
    }
}
