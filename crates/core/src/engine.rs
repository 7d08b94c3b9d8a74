//! `PrivacyEngine`: the session-oriented solve API.
//!
//! The paper's objects are families parameterized by the privacy level α, the
//! query range `n`, a loss function and side information. The free functions
//! of the seed API (`optimal_mechanism`, `optimal_interaction`, … — removed
//! in PR 5) rebuilt and solved one LP per call; this module replaces them as
//! the primary entry point with a request/engine design:
//!
//! 1. describe *what* to solve with a [`SolveRequest`] builder, which is
//!    checked once into a typed [`ValidatedRequest`] (every field error has a
//!    stable [`CoreError`] variant);
//! 2. hand requests to a [`PrivacyEngine`] — [`PrivacyEngine::solve`] for a
//!    single privacy level, [`PrivacyEngine::sweep`] for a batch of levels
//!    solved across worker threads with deterministic result order, and
//!    [`PrivacyEngine::interact`] for the optimal post-processing of an
//!    already-deployed mechanism.
//!
//! # Solve strategies
//!
//! [`SolveStrategy::GeometricFactorization`] (the default) computes the
//! tailored optimum *through Theorem 1*: deploy the geometric mechanism
//! `G_{n,α}` and solve the consumer's interaction LP (Section 2.4.3), whose
//! `n+1+|S|` rows are roughly `2n(n+1)` fewer than the direct Section 2.5
//! LP's. The returned mechanism `G_{n,α}·T*` attains exactly the tailored
//! optimal loss (Theorem 1; for Bayesian consumers the Ghosh–Roughgarden–
//! Sundararajan analogue, with no LP at all) and is derivable from the
//! geometric mechanism by construction. When the LP optimum is not unique the
//! returned *matrix* may differ from the direct LP's optimal vertex;
//! [`SolveStrategy::DirectLp`] solves the Section 2.5 LP itself and
//! reproduces the seed's `optimal_mechanism` formulation bit for bit.
//!
//! # Sweeps
//!
//! Every level is one stateless step: build the level's LP from nothing (the
//! Section 2.5 LP at α, or `G_{n,α}` and its interaction LP) and solve it
//! cold. [`PrivacyEngine::solve`] runs that step once and
//! [`PrivacyEngine::sweep_with`] once per level on its worker threads, so a
//! sweep equals per-level solves — bit for bit on every backend —
//! regardless of thread count or completion order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use privmech_linalg::{Matrix, Scalar};
use privmech_lp::{PivotStats, SolverOptions};

use crate::alpha::PrivacyLevel;
use crate::consumer::{BayesianConsumer, MinimaxConsumer, SideInformation};
use crate::derivability::{self, DerivabilityCheck};
use crate::error::{CoreError, Result};
use crate::geometric::geometric_mechanism;
use crate::interaction::{bayesian_interaction_impl, minimax_interaction, Interaction};
use crate::loss::LossFunction;
use crate::mechanism::Mechanism;
use crate::multilevel::MultiLevelRelease;
use crate::optimal::{count_adjacency, TailoredLp};

/// How [`PrivacyEngine::solve`] computes a tailored optimal mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolveStrategy {
    /// Theorem 1 route (the default): deploy `G_{n,α}`, solve the much
    /// smaller Section 2.4.3 interaction LP, and return `G_{n,α}·T*`. Exact
    /// optimal loss, mechanism derivable from the geometric mechanism by
    /// construction.
    #[default]
    GeometricFactorization,
    /// Solve the Section 2.5 LP directly. Reproduces the seed's
    /// `optimal_mechanism` free function bit for bit (same model, same pivot
    /// sequence; relative to the original seed formulation the only change
    /// is at exactly α = 0 — see the `crate::optimal` module docs) — the
    /// right choice when the exact optimal *vertex* of the direct
    /// formulation matters, e.g. for reproducing Table 1(a).
    DirectLp,
}

/// Which kind of information consumer a request describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConsumerKind {
    /// Worst-case (minimax) consumer with side information (Section 2.3).
    Minimax,
    /// Prior-expected-loss consumer (Section 2.7).
    Bayesian,
}

/// Untyped builder for a solve request. Collect the consumer description and
/// privacy level, then call [`SolveRequest::validate`] to obtain a typed
/// [`ValidatedRequest`] accepted by the engine.
///
/// ```
/// use std::sync::Arc;
/// use privmech_core::{AbsoluteError, PrivacyEngine, SolveRequest};
/// use privmech_numerics::{rat, Rational};
///
/// let request = SolveRequest::<Rational>::minimax()
///     .name("government")
///     .loss(Arc::new(AbsoluteError))
///     .support(3, 0..=3)
///     .privacy_level(rat(1, 4))
///     .validate()
///     .unwrap();
/// let solve = PrivacyEngine::new().solve(&request).unwrap();
/// assert!(solve.mechanism.is_differentially_private(request.level()));
/// ```
pub struct SolveRequest<T: Scalar> {
    kind: ConsumerKind,
    name: String,
    loss: Option<Arc<dyn LossFunction<T> + Send + Sync>>,
    side_information: Option<SideInformation>,
    support: Option<(usize, Vec<usize>)>,
    prior: Option<Vec<T>>,
    alpha: Option<T>,
    level: Option<PrivacyLevel<T>>,
    strategy: SolveStrategy,
    options: SolverOptions,
}

impl<T: Scalar> std::fmt::Debug for SolveRequest<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolveRequest")
            .field("kind", &self.kind)
            .field("name", &self.name)
            .field("loss", &self.loss.as_ref().map(|l| l.name()))
            .field("strategy", &self.strategy)
            .finish_non_exhaustive()
    }
}

impl<T: Scalar> SolveRequest<T> {
    fn new(kind: ConsumerKind) -> Self {
        SolveRequest {
            kind,
            name: "request".to_string(),
            loss: None,
            side_information: None,
            support: None,
            prior: None,
            alpha: None,
            level: None,
            strategy: SolveStrategy::default(),
            options: SolverOptions::default(),
        }
    }

    /// Start a minimax (worst-case) request.
    #[must_use]
    pub fn minimax() -> Self {
        Self::new(ConsumerKind::Minimax)
    }

    /// Start a Bayesian (prior-expected-loss) request.
    #[must_use]
    pub fn bayesian() -> Self {
        Self::new(ConsumerKind::Bayesian)
    }

    /// Name the consumer (used in reports and error messages).
    #[must_use]
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The consumer's loss function (required; must be monotone in `|i-r|`).
    #[must_use]
    pub fn loss(mut self, loss: Arc<dyn LossFunction<T> + Send + Sync>) -> Self {
        self.loss = Some(loss);
        self
    }

    /// Pre-validated side information for a minimax request.
    #[must_use]
    pub fn side_information(mut self, side: SideInformation) -> Self {
        self.side_information = Some(side);
        self
    }

    /// Raw side information for a minimax request: the query-range bound `n`
    /// and the set of results the consumer considers possible. Validated (non
    /// empty, within `0..=n`) by [`SolveRequest::validate`].
    #[must_use]
    pub fn support(mut self, n: usize, members: impl IntoIterator<Item = usize>) -> Self {
        self.support = Some((n, members.into_iter().collect()));
        self
    }

    /// Prior over `{0, …, n}` for a Bayesian request (length `n+1`,
    /// non-negative, summing to one; validated by [`SolveRequest::validate`]).
    #[must_use]
    pub fn prior(mut self, prior: Vec<T>) -> Self {
        self.prior = Some(prior);
        self
    }

    /// Raw privacy parameter `α ∈ [0, 1]` (validated by
    /// [`SolveRequest::validate`]).
    #[must_use]
    pub fn privacy_level(mut self, alpha: T) -> Self {
        self.alpha = Some(alpha);
        self
    }

    /// Pre-validated privacy level.
    #[must_use]
    pub fn at(mut self, level: PrivacyLevel<T>) -> Self {
        self.level = Some(level);
        self
    }

    /// Select the solve strategy (default:
    /// [`SolveStrategy::GeometricFactorization`]).
    #[must_use]
    pub fn strategy(mut self, strategy: SolveStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Override the simplex solver options.
    #[must_use]
    pub fn solver_options(mut self, options: SolverOptions) -> Self {
        self.options = options;
        self
    }

    /// Check the request into a typed [`ValidatedRequest`].
    ///
    /// Errors use stable [`CoreError`] variants: a missing/contradictory
    /// field is [`CoreError::InvalidRequest`]; a bad α is
    /// [`CoreError::InvalidAlpha`]; an empty or out-of-range support is
    /// [`CoreError::InvalidSideInformation`]; a malformed prior is
    /// [`CoreError::InvalidPrior`]; a non-monotone loss is
    /// [`CoreError::NonMonotoneLoss`].
    pub fn validate(self) -> Result<ValidatedRequest<T>> {
        let loss = self.loss.ok_or_else(|| CoreError::InvalidRequest {
            reason: format!("request \"{}\" has no loss function", self.name),
        })?;
        let level = match (self.level, self.alpha) {
            (Some(level), None) => level,
            (None, Some(alpha)) => PrivacyLevel::new(alpha)?,
            (None, None) => {
                return Err(CoreError::InvalidRequest {
                    reason: format!("request \"{}\" has no privacy level", self.name),
                })
            }
            (Some(_), Some(_)) => {
                return Err(CoreError::InvalidRequest {
                    reason: format!(
                        "request \"{}\" sets both a raw α and a pre-validated level",
                        self.name
                    ),
                })
            }
        };
        let consumer = match self.kind {
            ConsumerKind::Minimax => {
                if self.prior.is_some() {
                    return Err(CoreError::InvalidRequest {
                        reason: format!(
                            "minimax request \"{}\" supplies a prior (Bayesian field)",
                            self.name
                        ),
                    });
                }
                let side = match (self.side_information, self.support) {
                    (Some(side), None) => side,
                    (None, Some((n, members))) => SideInformation::new(n, members)?,
                    (None, None) => {
                        return Err(CoreError::InvalidRequest {
                            reason: format!(
                                "minimax request \"{}\" has no side information",
                                self.name
                            ),
                        })
                    }
                    (Some(_), Some(_)) => {
                        return Err(CoreError::InvalidRequest {
                            reason: format!(
                                "minimax request \"{}\" sets both side_information and support",
                                self.name
                            ),
                        })
                    }
                };
                RequestConsumer::Minimax(MinimaxConsumer::new(self.name, loss, side)?)
            }
            ConsumerKind::Bayesian => {
                if self.side_information.is_some() || self.support.is_some() {
                    return Err(CoreError::InvalidRequest {
                        reason: format!(
                            "Bayesian request \"{}\" supplies side information (minimax field)",
                            self.name
                        ),
                    });
                }
                let prior = self.prior.ok_or_else(|| CoreError::InvalidRequest {
                    reason: format!("Bayesian request \"{}\" has no prior", self.name),
                })?;
                RequestConsumer::Bayesian(BayesianConsumer::new(self.name, loss, prior)?)
            }
        };
        Ok(ValidatedRequest {
            consumer,
            level,
            strategy: self.strategy,
            options: self.options,
        })
    }
}

/// A validated consumer: the typed payload of a [`ValidatedRequest`].
#[derive(Debug, Clone)]
pub enum RequestConsumer<T: Scalar> {
    /// A minimax consumer (Section 2.3).
    Minimax(MinimaxConsumer<T>),
    /// A Bayesian consumer (Section 2.7).
    Bayesian(BayesianConsumer<T>),
}

impl<T: Scalar> RequestConsumer<T> {
    /// The query-range bound `n`.
    #[must_use]
    pub fn n(&self) -> usize {
        match self {
            RequestConsumer::Minimax(c) => c.side_information().n(),
            RequestConsumer::Bayesian(c) => c.n(),
        }
    }

    /// The consumer's name.
    #[must_use]
    pub fn name(&self) -> &str {
        match self {
            RequestConsumer::Minimax(c) => c.name(),
            RequestConsumer::Bayesian(c) => c.name(),
        }
    }

    /// The consumer's dis-utility for a mechanism (worst-case for minimax,
    /// prior-expected for Bayesian).
    pub fn disutility(&self, mechanism: &Mechanism<T>) -> Result<T> {
        match self {
            RequestConsumer::Minimax(c) => c.disutility(mechanism),
            RequestConsumer::Bayesian(c) => c.disutility(mechanism),
        }
    }
}

/// A fully validated, typed solve request: consumer + privacy level +
/// strategy + solver options. Construct through [`SolveRequest::validate`] or
/// directly from already-validated parts with [`ValidatedRequest::minimax`] /
/// [`ValidatedRequest::bayesian`].
#[derive(Debug, Clone)]
pub struct ValidatedRequest<T: Scalar> {
    consumer: RequestConsumer<T>,
    level: PrivacyLevel<T>,
    strategy: SolveStrategy,
    options: SolverOptions,
}

impl<T: Scalar> ValidatedRequest<T> {
    /// Wrap an already-validated minimax consumer and level.
    #[must_use]
    pub fn minimax(level: PrivacyLevel<T>, consumer: MinimaxConsumer<T>) -> Self {
        ValidatedRequest {
            consumer: RequestConsumer::Minimax(consumer),
            level,
            strategy: SolveStrategy::default(),
            options: SolverOptions::default(),
        }
    }

    /// Wrap an already-validated Bayesian consumer and level.
    #[must_use]
    pub fn bayesian(level: PrivacyLevel<T>, consumer: BayesianConsumer<T>) -> Self {
        ValidatedRequest {
            consumer: RequestConsumer::Bayesian(consumer),
            level,
            strategy: SolveStrategy::default(),
            options: SolverOptions::default(),
        }
    }

    /// Replace the solve strategy.
    #[must_use]
    pub fn with_strategy(mut self, strategy: SolveStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// The same request re-targeted at a different privacy level (the LP
    /// structure is α-independent, so no re-validation is needed).
    #[must_use]
    pub fn at_level(mut self, level: PrivacyLevel<T>) -> Self {
        self.level = level;
        self
    }

    /// Replace the solver options.
    #[must_use]
    pub fn with_options(mut self, options: SolverOptions) -> Self {
        self.options = options;
        self
    }

    /// The privacy level of the request.
    #[must_use]
    pub fn level(&self) -> &PrivacyLevel<T> {
        &self.level
    }

    /// The validated consumer.
    #[must_use]
    pub fn consumer(&self) -> &RequestConsumer<T> {
        &self.consumer
    }

    /// The solve strategy.
    #[must_use]
    pub fn strategy(&self) -> SolveStrategy {
        self.strategy
    }

    /// The simplex solver options.
    #[must_use]
    pub fn options(&self) -> &SolverOptions {
        &self.options
    }

    /// The query-range bound `n`.
    #[must_use]
    pub fn n(&self) -> usize {
        self.consumer.n()
    }
}

/// The result of one engine solve: a tailored optimal mechanism for one
/// privacy level.
#[derive(Debug, Clone)]
pub struct Solve<T: Scalar> {
    /// The privacy level this solve was computed for.
    pub level: PrivacyLevel<T>,
    /// A loss-minimizing α-differentially-private mechanism for the consumer.
    pub mechanism: Mechanism<T>,
    /// The consumer's (optimal) loss under `mechanism`.
    pub loss: T,
    /// Simplex pivot statistics of the underlying LP solve (all zeros for
    /// the Bayesian factorization route, which needs no LP).
    pub stats: PivotStats,
}

/// A session-oriented solver for the paper's optimization problems.
///
/// The engine owns the worker-thread budget for batched α-sweeps (per-solve
/// knobs like [`SolverOptions`] live on the request). It is cheap to
/// construct and stateless between calls, so one engine can serve requests
/// of different scalar backends (`Rational`, `f64`) and consumers
/// concurrently.
#[derive(Debug, Clone)]
pub struct PrivacyEngine {
    threads: usize,
}

impl Default for PrivacyEngine {
    fn default() -> Self {
        PrivacyEngine::new()
    }
}

impl PrivacyEngine {
    /// An engine with one worker thread per available CPU.
    #[must_use]
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        PrivacyEngine { threads }
    }

    /// An engine with an explicit worker-thread budget for
    /// [`PrivacyEngine::sweep`] (clamped to at least 1).
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        PrivacyEngine {
            threads: threads.max(1),
        }
    }

    /// The sweep worker-thread budget.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The single per-level step behind every solve: build the level's LP
    /// from nothing and solve it cold.
    fn solve_level<T: Scalar>(
        request: &ValidatedRequest<T>,
        level: &PrivacyLevel<T>,
    ) -> Result<Solve<T>> {
        let n = request.n();
        let (mechanism, loss, stats) = match (request.strategy, &request.consumer) {
            (SolveStrategy::DirectLp, consumer) => {
                let lp = match consumer {
                    RequestConsumer::Minimax(c) => {
                        TailoredLp::minimax(c, level.alpha(), &count_adjacency(n))?
                    }
                    RequestConsumer::Bayesian(c) => TailoredLp::bayesian(c, level.alpha())?,
                };
                let (mechanism, stats) = lp.solve(&request.options)?;
                let loss = consumer.disutility(&mechanism)?;
                (mechanism, loss, stats)
            }
            (SolveStrategy::GeometricFactorization, RequestConsumer::Minimax(c)) => {
                // Interaction.loss is already the consumer's disutility of
                // the induced mechanism — no need to recompute it.
                let g = geometric_mechanism(n, level)?;
                let interaction = minimax_interaction(&g, c, &request.options)?;
                (interaction.induced, interaction.loss, interaction.lp_stats)
            }
            (SolveStrategy::GeometricFactorization, RequestConsumer::Bayesian(c)) => {
                let g = geometric_mechanism(n, level)?;
                let interaction = bayesian_interaction_impl(&g, c)?;
                (interaction.induced, interaction.loss, interaction.lp_stats)
            }
        };
        Ok(Solve {
            level: level.clone(),
            mechanism,
            loss,
            stats,
        })
    }

    /// Solve one request at its own privacy level.
    pub fn solve<T: Scalar>(&self, request: &ValidatedRequest<T>) -> Result<Solve<T>> {
        Self::solve_level(request, &request.level)
    }

    /// Solve the request at every level of `levels`, delivering each result
    /// to `on_result` in **completion order** together with its input index.
    ///
    /// This is the incremental form behind [`PrivacyEngine::sweep`], built
    /// for streaming consumers (the serving layer emits one wire frame per
    /// completed α): solves are farmed across up to
    /// [`PrivacyEngine::threads`] worker threads, and the callback fires as
    /// each level finishes — which, with more than one worker, is generally
    /// *not* input order. The `usize` argument is the index into `levels`
    /// the result belongs to; every index is delivered exactly once. The
    /// callback is invoked under an internal lock, so it may be called from
    /// any worker thread but never concurrently with itself.
    ///
    /// Each solve is the same per-level step [`PrivacyEngine::solve`] runs,
    /// so it is bit-identical to a per-level solve regardless of thread
    /// count or completion order. Every failure belongs to one level and is
    /// delivered through the callback as `Err`; the function returns once
    /// every level has been delivered.
    pub fn sweep_with<T: Scalar + Send + Sync>(
        &self,
        levels: &[PrivacyLevel<T>],
        request: &ValidatedRequest<T>,
        mut on_result: impl FnMut(usize, Result<Solve<T>>) + Send,
    ) {
        let workers = self.threads.min(levels.len()).max(1);

        if workers <= 1 {
            for (idx, level) in levels.iter().enumerate() {
                on_result(idx, Self::solve_level(request, level));
            }
            return;
        }

        let callback = Mutex::new(on_result);
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    let Some(level) = levels.get(idx) else {
                        break;
                    };
                    let solve = Self::solve_level(request, level);
                    (callback.lock().expect("sweep callback poisoned"))(idx, solve);
                });
            }
        });
    }

    /// Solve the request at every level of `levels`, farming the solves
    /// across up to [`PrivacyEngine::threads`] worker threads.
    ///
    /// Each level is the per-level step of [`PrivacyEngine::solve`], so
    /// results are **bit-identical** to per-level solves and independent of
    /// the thread count. Results are returned in input order; the request's
    /// own level is ignored in favor of `levels`. On error, the failure of
    /// the smallest level index is reported.
    ///
    /// This is a collect-and-reorder wrapper over
    /// [`PrivacyEngine::sweep_with`], which delivers the same solves in
    /// completion order for streaming consumers.
    pub fn sweep<T: Scalar + Send + Sync>(
        &self,
        levels: &[PrivacyLevel<T>],
        request: &ValidatedRequest<T>,
    ) -> Result<Vec<Solve<T>>> {
        let mut slots: Vec<Option<Result<Solve<T>>>> = Vec::new();
        slots.resize_with(levels.len(), || None);
        self.sweep_with(levels, request, |idx, solve| slots[idx] = Some(solve));
        let mut out = Vec::with_capacity(levels.len());
        for slot in slots {
            out.push(slot.expect("every sweep slot is filled")?);
        }
        Ok(out)
    }

    /// The consumer's optimal interaction with an already-deployed mechanism
    /// (Section 2.4.3 LP for minimax consumers, the posterior-argmin remap
    /// for Bayesian consumers). The request's privacy level plays no role —
    /// the deployed mechanism already embodies it.
    pub fn interact<T: Scalar>(
        &self,
        deployed: &Mechanism<T>,
        request: &ValidatedRequest<T>,
    ) -> Result<Interaction<T>> {
        match &request.consumer {
            RequestConsumer::Minimax(c) => minimax_interaction(deployed, c, &request.options),
            RequestConsumer::Bayesian(c) => bayesian_interaction_impl(deployed, c),
        }
    }

    /// Deploy the range-restricted geometric mechanism `G_{n,α}`
    /// (Definition 4) — the universally optimal choice of Theorem 1.
    pub fn geometric<T: Scalar>(&self, n: usize, level: &PrivacyLevel<T>) -> Result<Mechanism<T>> {
        geometric_mechanism(n, level)
    }

    /// Build the Algorithm 1 multi-level release chain for strictly
    /// increasing privacy levels.
    pub fn multi_level<T: Scalar>(
        &self,
        n: usize,
        levels: Vec<PrivacyLevel<T>>,
    ) -> Result<MultiLevelRelease<T>> {
        MultiLevelRelease::new(n, levels)
    }

    /// Run the Theorem 2 characterization: is `mechanism` derivable from
    /// `G_{n,α}`?
    #[must_use]
    pub fn check_derivability<T: Scalar>(
        &self,
        mechanism: &Mechanism<T>,
        level: &PrivacyLevel<T>,
    ) -> DerivabilityCheck {
        derivability::theorem2_check(mechanism, level)
    }

    /// Factor `mechanism = G_{n,α} · T` through the geometric mechanism,
    /// returning the witness post-processing matrix `T` (Section 3).
    pub fn derive<T: Scalar>(
        &self,
        mechanism: &Mechanism<T>,
        level: &PrivacyLevel<T>,
    ) -> Result<Matrix<T>> {
        derivability::derive_from_geometric(mechanism, level)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::loss::AbsoluteError;
    use privmech_numerics::{rat, Rational};

    fn request(strategy: SolveStrategy) -> ValidatedRequest<Rational> {
        SolveRequest::minimax()
            .name("engine-test")
            .loss(Arc::new(AbsoluteError))
            .support(3, 0..=3)
            .privacy_level(rat(1, 4))
            .strategy(strategy)
            .validate()
            .unwrap()
    }

    #[test]
    fn both_strategies_reach_the_tailored_optimum() {
        let engine = PrivacyEngine::new();
        let direct = engine.solve(&request(SolveStrategy::DirectLp)).unwrap();
        let factored = engine
            .solve(&request(SolveStrategy::GeometricFactorization))
            .unwrap();
        // Theorem 1: both routes attain exactly the same optimal loss.
        assert_eq!(direct.loss, factored.loss);
        assert_eq!(direct.loss, rat(168, 415));
        let level = PrivacyLevel::new(rat(1, 4)).unwrap();
        assert!(direct.mechanism.is_differentially_private(&level));
        assert!(factored.mechanism.is_differentially_private(&level));
        // The factorization route is derivable from G by construction.
        assert!(engine
            .check_derivability(&factored.mechanism, &level)
            .is_derivable());
    }

    #[test]
    fn direct_strategy_reproduces_the_seed_formulation() {
        // The seed free functions are gone (PR 5); the bit-identity anchor is
        // now the Section 2.5 LP itself over the count adjacency, built and
        // solved at the same level with default options — exactly what the
        // seed `optimal_mechanism` shim did.
        let (old_mechanism, old_stats) = {
            let consumer = crate::consumer::MinimaxConsumer::new(
                "engine-test",
                Arc::new(AbsoluteError),
                crate::consumer::SideInformation::full(3),
            )
            .unwrap();
            TailoredLp::minimax(&consumer, &rat(1, 4), &count_adjacency(3))
                .unwrap()
                .solve(&Default::default())
                .unwrap()
        };
        let new = PrivacyEngine::new()
            .solve(&request(SolveStrategy::DirectLp))
            .unwrap();
        assert_eq!(old_mechanism, new.mechanism);
        assert_eq!(old_stats, new.stats);
    }

    #[test]
    fn sweep_is_bit_identical_to_per_level_solves_for_any_thread_count() {
        let levels: Vec<PrivacyLevel<Rational>> = [(1i64, 5i64), (1, 4), (1, 2), (2, 3), (1, 1)]
            .into_iter()
            .map(|(n, d)| PrivacyLevel::new(rat(n, d)).unwrap())
            .collect();
        for strategy in [
            SolveStrategy::GeometricFactorization,
            SolveStrategy::DirectLp,
        ] {
            let req = request(strategy);
            let singles: Vec<Solve<Rational>> = levels
                .iter()
                .map(|l| {
                    // A cold per-level solve: same request, rebuilt at l.
                    let at = ValidatedRequest {
                        level: l.clone(),
                        ..req.clone()
                    };
                    PrivacyEngine::new().solve(&at).unwrap()
                })
                .collect();
            for threads in [1usize, 4] {
                let swept = PrivacyEngine::with_threads(threads)
                    .sweep(&levels, &req)
                    .unwrap();
                assert_eq!(swept.len(), singles.len());
                for (s, single) in swept.iter().zip(&singles) {
                    assert_eq!(s.mechanism, single.mechanism, "{strategy:?} x{threads}");
                    assert_eq!(s.loss, single.loss, "{strategy:?} x{threads}");
                    assert_eq!(s.stats, single.stats, "{strategy:?} x{threads}");
                }
            }
        }
    }

    #[test]
    fn interact_matches_a_direct_interaction_lp_solve() {
        // The engine's `interact` is a thin dispatch over the interaction LP;
        // pin that down bit for bit (the seed `optimal_interaction` shim was
        // exactly this construction).
        let req = request(SolveStrategy::GeometricFactorization);
        let level = PrivacyLevel::new(rat(1, 4)).unwrap();
        let engine = PrivacyEngine::new();
        let g = engine.geometric(3, &level).unwrap();
        let via_engine = engine.interact(&g, &req).unwrap();
        let via_lp = {
            let RequestConsumer::Minimax(c) = req.consumer() else {
                unreachable!()
            };
            minimax_interaction(&g, c, &Default::default()).unwrap()
        };
        assert_eq!(via_engine.post_processing, via_lp.post_processing);
        assert_eq!(via_engine.loss, via_lp.loss);
        assert_eq!(via_engine.lp_stats, via_lp.lp_stats);
    }

    #[test]
    fn empty_sweep_is_empty() {
        let req = request(SolveStrategy::GeometricFactorization);
        let swept = PrivacyEngine::new().sweep(&[], &req).unwrap();
        assert!(swept.is_empty());
        let mut called = false;
        PrivacyEngine::new().sweep_with(&[], &req, |_, _| called = true);
        assert!(!called, "no levels, no callbacks");
    }

    #[test]
    fn sweep_with_delivers_every_index_exactly_once() {
        let levels: Vec<PrivacyLevel<Rational>> = [(1i64, 5i64), (1, 4), (1, 2), (2, 3)]
            .into_iter()
            .map(|(n, d)| PrivacyLevel::new(rat(n, d)).unwrap())
            .collect();
        let req = request(SolveStrategy::GeometricFactorization);
        let singles = PrivacyEngine::with_threads(1).sweep(&levels, &req).unwrap();
        for threads in [1usize, 4] {
            let mut seen = vec![0usize; levels.len()];
            let mut order = Vec::new();
            PrivacyEngine::with_threads(threads).sweep_with(&levels, &req, |idx, solve| {
                let solve = solve.unwrap();
                assert_eq!(solve.mechanism, singles[idx].mechanism, "x{threads} @{idx}");
                assert_eq!(solve.loss, singles[idx].loss, "x{threads} @{idx}");
                assert_eq!(solve.stats, singles[idx].stats, "x{threads} @{idx}");
                seen[idx] += 1;
                order.push(idx);
            });
            assert!(seen.iter().all(|&c| c == 1), "each index once: {seen:?}");
            assert_eq!(order.len(), levels.len());
        }
    }
}
