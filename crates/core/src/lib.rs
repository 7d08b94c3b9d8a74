//! # privmech-core
//!
//! A from-scratch Rust implementation of *Universally Optimal Privacy
//! Mechanisms for Minimax Agents* (Gupte & Sundararajan, PODS 2010).
//!
//! The crate models oblivious differentially-private mechanisms for count
//! queries as row-stochastic matrices and provides:
//!
//! * the **geometric mechanism** (unbounded and range-restricted forms,
//!   Definitions 1 and 4) plus baseline mechanisms for comparison,
//! * **minimax and Bayesian information consumers** with monotone loss
//!   functions and side information (Sections 2.3 and 2.7),
//! * the consumer's **optimal interaction** LP (Section 2.4.3) and the
//!   consumer-tailored **optimal mechanism** LP (Section 2.5),
//! * the **Theorem 2 characterization** of mechanisms derivable from the
//!   geometric mechanism, with explicit post-processing factorizations,
//! * **Algorithm 1**: correlated, collusion-resistant release of a query
//!   result at multiple privacy levels (Lemmas 3–4), and
//! * sampling / Monte-Carlo utilities and structural audits.
//!
//! The primary entry point is the session-oriented [`engine::PrivacyEngine`]:
//! describe a consumer and privacy level as a typed [`engine::SolveRequest`],
//! then `solve` it (or `sweep` a whole batch of α values in parallel). The
//! headline result (Theorem 1) — deploying the geometric mechanism and
//! letting each rational minimax consumer post-process achieves, for *every*
//! consumer simultaneously, the utility of the mechanism tailored to it — is
//! directly checkable with this API:
//!
//! ```
//! use std::sync::Arc;
//! use privmech_core::{AbsoluteError, PrivacyEngine, SolveRequest};
//! use privmech_numerics::{rat, Rational};
//!
//! let engine = PrivacyEngine::new();
//! let request = SolveRequest::<Rational>::minimax()
//!     .name("government")
//!     .loss(Arc::new(AbsoluteError))
//!     .support(3, 0..=3)
//!     .privacy_level(rat(1, 4))
//!     .validate()
//!     .unwrap();
//!
//! // Deploy the geometric mechanism without knowing the consumer...
//! let geometric = engine.geometric(3, request.level()).unwrap();
//! let interaction = engine.interact(&geometric, &request).unwrap();
//! // ...and the consumer still reaches the loss of its tailored optimum.
//! let tailored = engine.solve(&request).unwrap();
//! assert_eq!(interaction.loss, tailored.loss);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod alpha;
pub mod baselines;
pub mod consumer;
pub mod derivability;
pub mod engine;
pub mod error;
pub mod fingerprint;
pub mod geometric;
pub mod interaction;
pub mod loss;
pub mod mechanism;
pub mod multilevel;
pub mod optimal;
pub mod sampling;
#[cfg(test)]
pub(crate) mod seed_compat;
pub mod verify;

pub use alpha::PrivacyLevel;
pub use baselines::{randomized_response, truncated_geometric, uniform_mixture};
pub use consumer::{BayesianConsumer, MinimaxConsumer, SideInformation};
pub use derivability::{
    appendix_b_mechanism, derive_from_geometric, derive_post_processing, theorem2_check,
    DerivabilityCheck,
};
pub use engine::{
    ConsumerKind, PrivacyEngine, RequestConsumer, Solve, SolveRequest, SolveStrategy,
    ValidatedRequest,
};
pub use error::{CoreError, Result};
pub use fingerprint::RequestFingerprint;
pub use geometric::{
    g_prime_matrix, geometric_matrix, geometric_mechanism, lemma1_determinant,
    range_restricted_pmf, sample_geometric_output, sample_two_sided_geometric,
    table1b_scaled_geometric, two_sided_geometric_pmf,
};
pub use interaction::Interaction;
pub use loss::{
    tabulate_loss, validate_monotone, AbsoluteError, LossFunction, SquaredError, TableLoss,
    ToleranceError, ZeroOneError,
};
pub use mechanism::{expected_row_loss, worst_case_loss, Mechanism};
pub use multilevel::{transition_matrix, MultiLevelRelease, StageRelease};
pub use optimal::TailoredLp;
// Solver knobs, re-exported so engine users need not depend on privmech-lp.
pub use privmech_lp::{PivotStats, PricingRule, SolverForm, SolverOptions};
pub use sampling::{
    collusion_experiment, empirical_distribution, total_variation_distance, CollusionSummary,
};
pub use verify::{audit_mechanism, MechanismAudit};
