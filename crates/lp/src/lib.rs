//! # privmech-lp
//!
//! A two-phase simplex linear-programming solver, generic over the
//! [`privmech_linalg::Scalar`] field.
//!
//! The paper *Universally Optimal Privacy Mechanisms for Minimax Agents*
//! formulates both the consumer's optimal post-processing (Section 2.4.3) and
//! the consumer-tailored optimal mechanism (Section 2.5) as linear programs of
//! the "minimize a maximum of linear expressions" form. This crate provides:
//!
//! * a small strongly-typed [`Model`] builder (variables, `<=`/`>=`/`==`
//!   constraints, minimize/maximize objectives, and the
//!   [`Model::minimize_max`] epigraph helper),
//! * a two-phase simplex solver with Dantzig (most-negative reduced
//!   cost) pricing and an automatic Bland anti-cycling fallback (pure
//!   Bland on `f64`), instantiable with exact
//!   [`privmech_numerics::Rational`] pivoting (the source of truth for every
//!   theorem-level claim) or `f64` (for speed), in two interchangeable
//!   forms: a **revised simplex** over a sparse LU basis factorization with
//!   Forrest–Tomlin updates (the [`SolverForm::Auto`] default for exact
//!   scalars) and the classic **dense tableau** (always used by `f64`). The
//!   correctness contract: both forms follow the identical pivot sequence
//!   and return bit-identical solutions. An exact weak-duality optimality
//!   [`certificate`] checks a solution independently of the pivot path
//!   that reached it. Contract, factorization lifecycle and standard-form
//!   construction are documented end to end in
//!   [`SOLVER.md`](https://github.com/privmech/privmech/blob/main/crates/lp/SOLVER.md)
//!   (in-tree: `crates/lp/SOLVER.md`). Every solve reports [`PivotStats`] on
//!   its [`Solution`]; [`solve_model_traced`] additionally exposes the pivot
//!   sequence itself.
//!
//! ```
//! use privmech_lp::{LinExpr, Model, Relation, Sense, VarBound};
//! use privmech_numerics::rat;
//!
//! let mut m = Model::new();
//! let x = m.add_var("x", VarBound::NonNegative);
//! let y = m.add_var("y", VarBound::NonNegative);
//! m.add_constraint(LinExpr::term(x, rat(1, 1)).plus(y, rat(1, 1)),
//!                  Relation::Ge, rat(2, 1)).unwrap();
//! m.set_objective(Sense::Minimize,
//!                 LinExpr::term(x, rat(3, 1)).plus(y, rat(5, 1))).unwrap();
//! let sol = m.solve().unwrap();
//! assert_eq!(sol.objective, rat(6, 1)); // put all weight on the cheap variable
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod certificate;
mod lu;
pub mod model;
mod pivot_row;
mod pricing;
mod ratio;
mod revised;
pub mod simplex;
mod standard;

pub use certificate::{check_certificate, CertificateError, OptimalityCertificate};
pub use model::{Constraint, LinExpr, LpError, Model, Relation, Sense, Solution, Var, VarBound};
pub use simplex::{
    solve_model, solve_model_traced, solve_model_with, PivotRecord, PivotStats, PricingRule,
    SolverForm, SolverOptions, TracePhase,
};
