//! Unit-test support: the seed's removed free functions, reproduced through
//! the engine.
//!
//! PR 5 removed the `#[deprecated]` seed shims (`optimal_mechanism`,
//! `bayesian_optimal_mechanism`, `optimal_interaction`,
//! `bayesian_optimal_interaction`); this `cfg(test)` module is the single
//! in-crate definition of "the seed recipe" — a cold
//! [`SolveStrategy::DirectLp`] engine solve of the Section 2.5 LP, and
//! a plain [`PrivacyEngine::interact`] — so the bit-identity anchors in the
//! `optimal` and `interaction` test modules cannot drift apart (the
//! integration-test twin lives in `tests/common/mod.rs`).

use crate::alpha::PrivacyLevel;
use crate::consumer::{BayesianConsumer, MinimaxConsumer};
use crate::engine::{PrivacyEngine, Solve, SolveStrategy, ValidatedRequest};
use crate::error::Result;
use crate::interaction::Interaction;
use crate::mechanism::Mechanism;
use privmech_numerics::Rational;

/// The seed `optimal_mechanism` shim through the engine: a cold Section 2.5
/// LP solve (`SolveStrategy::DirectLp`) at one level.
pub(crate) fn optimal_mechanism(
    level: &PrivacyLevel<Rational>,
    consumer: &MinimaxConsumer<Rational>,
) -> Result<Solve<Rational>> {
    let request = ValidatedRequest::minimax(level.clone(), consumer.clone())
        .with_strategy(SolveStrategy::DirectLp);
    PrivacyEngine::with_threads(1).solve(&request)
}

/// The seed `bayesian_optimal_mechanism` shim through the engine.
pub(crate) fn bayesian_optimal_mechanism(
    level: &PrivacyLevel<Rational>,
    consumer: &BayesianConsumer<Rational>,
) -> Result<Solve<Rational>> {
    let request = ValidatedRequest::bayesian(level.clone(), consumer.clone())
        .with_strategy(SolveStrategy::DirectLp);
    PrivacyEngine::with_threads(1).solve(&request)
}

/// The seed `optimal_interaction` shim through the engine (the request's
/// privacy level plays no role in post-processing).
pub(crate) fn optimal_interaction(
    deployed: &Mechanism<Rational>,
    consumer: &MinimaxConsumer<Rational>,
) -> Result<Interaction<Rational>> {
    let level = PrivacyLevel::new(Rational::zero())?;
    let request = ValidatedRequest::minimax(level, consumer.clone());
    PrivacyEngine::with_threads(1).interact(deployed, &request)
}

/// The seed `bayesian_optimal_interaction` shim through the engine.
pub(crate) fn bayesian_optimal_interaction(
    deployed: &Mechanism<Rational>,
    consumer: &BayesianConsumer<Rational>,
) -> Result<Interaction<Rational>> {
    let level = PrivacyLevel::new(Rational::zero())?;
    let request = ValidatedRequest::bayesian(level, consumer.clone());
    PrivacyEngine::with_threads(1).interact(deployed, &request)
}
