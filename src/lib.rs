//! # privmech
//!
//! Facade crate for the `privmech` workspace: a from-scratch Rust
//! implementation of *Universally Optimal Privacy Mechanisms for Minimax
//! Agents* (Gupte & Sundararajan, PODS 2010) together with every substrate it
//! relies on (exact rational arithmetic, dense linear algebra, a two-phase
//! simplex LP solver, and a count-query database layer).
//!
//! Most applications only need this crate: it re-exports the full public API
//! of the member crates under stable module names. For the workspace-level
//! view — the crate map, the request lifecycle, the bit-identity contracts,
//! and where each paper theorem lives in the code — see
//! [`ARCHITECTURE.md`](https://github.com/privmech/privmech/blob/main/ARCHITECTURE.md)
//! at the repository root.
//!
//! ```
//! use std::sync::Arc;
//! use privmech::prelude::*;
//! use privmech::numerics::rat;
//!
//! // Describe the consumer once, typed and validated up front.
//! let request = SolveRequest::<Rational>::minimax()
//!     .name("drug company")
//!     .loss(Arc::new(AbsoluteError))
//!     .support(5, 2..=5)          // knows the count is at least 2
//!     .privacy_level(rat(1, 3))
//!     .validate()
//!     .unwrap();
//!
//! // Publish a count with the geometric mechanism and let the consumer
//! // post-process it optimally: Theorem 1 says that matches the mechanism
//! // tailored to them.
//! let engine = PrivacyEngine::new();
//! let deployed = engine.geometric(5, request.level()).unwrap();
//! let interaction = engine.interact(&deployed, &request).unwrap();
//! let tailored = engine.solve(&request).unwrap();
//! assert_eq!(interaction.loss, tailored.loss); // Theorem 1
//! ```
//!
//! # API tour
//!
//! The primary entry point is the session-oriented [`PrivacyEngine`]:
//!
//! * **Describe work as requests.** [`SolveRequest`] is an untyped builder
//!   (consumer kind, loss, side information or prior, privacy level, solve
//!   strategy); [`SolveRequest::validate`] checks it once into a typed
//!   [`ValidatedRequest`] with a stable [`CoreError`] variant per field
//!   failure.
//! * **Solve.** [`PrivacyEngine::solve`](crate::core::PrivacyEngine::solve)
//!   returns a [`Solve`]: the tailored optimal mechanism, its loss, and the
//!   simplex [`PivotStats`]. The default strategy routes through Theorem 1
//!   (deploy `G_{n,α}`, solve the small interaction LP); strategy
//!   [`SolveStrategy::DirectLp`] solves the Section 2.5 LP directly and
//!   reproduces the seed's `optimal_mechanism` formulation bit for
//!   bit. Exact LPs run on a revised simplex over a sparse LU
//!   factorization with Forrest–Tomlin updates ([`SolverForm`]) that is
//!   contractually pivot-sequence-identical to the dense tableau — design
//!   and contract in `crates/lp/SOLVER.md`.
//! * **Sweep α in batch.**
//!   [`PrivacyEngine::sweep`](crate::core::PrivacyEngine::sweep) solves one
//!   request at many privacy levels: each level runs the same build-and-solve
//!   step as a single `solve`, farmed across worker threads, and results
//!   come back in input order, bit-identical to per-level `solve` calls.
//! * **Interact with deployed mechanisms.**
//!   [`PrivacyEngine::interact`](crate::core::PrivacyEngine::interact)
//!   computes the consumer's optimal post-processing of any deployed
//!   mechanism (the Section 2.4.3 LP; the posterior-argmin remap for
//!   Bayesian consumers).
//! * **Everything else on the session.** The geometric mechanism
//!   ([`PrivacyEngine::geometric`](crate::core::PrivacyEngine::geometric)),
//!   Algorithm 1 multi-level release chains
//!   ([`PrivacyEngine::multi_level`](crate::core::PrivacyEngine::multi_level)),
//!   and the Theorem 2 derivability toolchain
//!   ([`PrivacyEngine::check_derivability`](crate::core::PrivacyEngine::check_derivability),
//!   [`PrivacyEngine::derive`](crate::core::PrivacyEngine::derive)).
//! * **Serve it.** The [`serve`] module hosts the engine behind a TCP
//!   protocol with a sharded LRU response cache keyed on the canonical
//!   request fingerprint
//!   ([`ValidatedRequest::fingerprint`](crate::core::ValidatedRequest::fingerprint))
//!   — one cached solve answers every consumer asking the same question
//!   (that sharing is exactly Theorem 1's universality made operational).
//!   The protocol (v2) supports **tagged multi-in-flight requests** on one
//!   connection and **streaming sweeps** (one frame per completed α); frames
//!   of any other version are rejected. Wire format:
//!   `crates/serve/PROTOCOL.md`; demos:
//!   `examples/serving.rs`, `examples/pipelining.rs`.
//! * **Map the theorem's limits.** The [`zoo`] module generalizes the
//!   tailored LP beyond counts (sum/median query classes), builds
//!   minimax-regret tables exhibiting where universal optimality provably
//!   fails (Brenner–Nissim), prices local privacy exactly against the
//!   centralized optimum, and composes multi-agent releases — all served
//!   over the wire as `zoo_table`/`zoo_eval` (`crates/zoo/ZOO.md`).
//!
//! The seed's free functions (`optimal_mechanism`, `optimal_interaction`,
//! `bayesian_*`) were removed in PR 5 after two releases as `#[deprecated]`
//! shims; [`SolveStrategy::DirectLp`] reproduces their Section 2.5
//! formulation bit for bit for every α > 0 (at exactly α = 0 the tailored LP
//! keeps its privacy rows, reduced to `x[a][r] ≥ 0`; same optimal value —
//! see the `core::optimal` docs).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

/// Exact arithmetic: arbitrary-precision integers and rationals.
pub mod numerics {
    pub use privmech_numerics::*;
}

/// Dense generic linear algebra.
pub mod linalg {
    pub use privmech_linalg::*;
}

/// Linear programming (model builder, two-phase simplex in revised and
/// dense forms); solver spec: `crates/lp/SOLVER.md`.
pub mod lp {
    pub use privmech_lp::*;
}

/// The paper's core: the engine, mechanisms, consumers, optimality,
/// multi-level release.
pub mod core {
    pub use privmech_core::*;
}

/// Database substrate: records, count queries, obliviousness.
pub mod db {
    pub use privmech_db::*;
}

/// The query/mechanism zoo: sum/median regret tables (Brenner–Nissim),
/// LDP baselines, multi-agent composition; narrative: `crates/zoo/ZOO.md`.
pub mod zoo {
    pub use privmech_zoo::*;
}

/// Serving layer: cached, batched TCP service over the engine.
pub mod serve {
    pub use privmech_serve::*;
}

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use privmech_core::{
        appendix_b_mechanism, audit_mechanism, collusion_experiment, derive_from_geometric,
        derive_post_processing, empirical_distribution, geometric_mechanism, randomized_response,
        sample_geometric_output, theorem2_check, total_variation_distance, transition_matrix,
        AbsoluteError, BayesianConsumer, ConsumerKind, CoreError, DerivabilityCheck, Interaction,
        LossFunction, Mechanism, MinimaxConsumer, MultiLevelRelease, PivotStats, PricingRule,
        PrivacyEngine, PrivacyLevel, RequestConsumer, SideInformation, Solve, SolveRequest,
        SolveStrategy, SolverForm, SolverOptions, SquaredError, StageRelease, TableLoss,
        ToleranceError, ValidatedRequest, ZeroOneError,
    };
    pub use privmech_db::{
        CountQuery, Database, DatabaseMechanism, Predicate, Record, SyntheticPopulation,
    };
    pub use privmech_linalg::{Matrix, Scalar};
    pub use privmech_numerics::{rat, BigInt, Rational};
}

pub use prelude::*;
