//! Canonical fingerprints of validated solve requests.
//!
//! The paper's central result makes solve results perfectly shareable: a
//! tailored optimum depends only on `(consumer kind, n, α, loss, side
//! information or prior)` plus the solve strategy and solver options — not on
//! who asked. A serving layer can therefore answer every consumer with the
//! same request content from one cached solve. This module derives the cache
//! key: a canonical, content-based rendering of a
//! [`ValidatedRequest`] such that
//!
//! * two requests describing the same optimization problem produce the **same
//!   fingerprint**, even when they were built from different [`LossFunction`]
//!   *types* (the loss enters via its value table over `{0, …, n}²`, not its
//!   Rust type) or carry different display [names](crate::engine::SolveRequest::name)
//!   (names are reporting metadata, not problem content);
//! * requests that differ in any solve-relevant field — α, loss values, side
//!   information, prior, strategy, solver options — produce **different
//!   fingerprints**.
//!
//! Scalar values are rendered through their `Display` form, which is
//! canonical for [`Rational`](privmech_numerics::Rational) (always fully
//! reduced) and injective for `f64` up to IEEE equality (Rust's `{:?}` is the
//! shortest round-tripping decimal). The exact and `f64` backends can never
//! collide: the rendering includes the backend's exactness tag.

use std::fmt;
use std::fmt::Write as _;

use privmech_linalg::Scalar;
use privmech_lp::{PricingRule, SolverOptions};

use crate::engine::{RequestConsumer, SolveStrategy, ValidatedRequest};
use crate::loss::LossFunction;

/// A canonical, content-based cache key for a
/// [`ValidatedRequest`].
///
/// Equality of fingerprints is equality of the canonical strings — the 64-bit
/// [`hash`](RequestFingerprint::hash) is a convenience for shard selection and
/// must not be used as the key itself (hashes can collide; the canonical
/// string cannot).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RequestFingerprint {
    canonical: String,
    hash: u64,
}

impl RequestFingerprint {
    /// Wrap an already-canonical string (exposed for composing larger keys,
    /// e.g. a serving layer appending sweep levels to a request fingerprint).
    #[must_use]
    pub fn from_canonical(canonical: String) -> Self {
        let hash = fnv1a(canonical.as_bytes());
        RequestFingerprint { canonical, hash }
    }

    /// The canonical key string. This is the cache key.
    #[must_use]
    pub fn canonical(&self) -> &str {
        &self.canonical
    }

    /// A 64-bit FNV-1a hash of the canonical string, for shard selection.
    #[must_use]
    pub fn hash(&self) -> u64 {
        self.hash
    }
}

impl fmt::Display for RequestFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.canonical)
    }
}

/// 64-bit FNV-1a over a byte string.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn push_strategy(out: &mut String, strategy: SolveStrategy) {
    out.push_str(match strategy {
        SolveStrategy::GeometricFactorization => "strategy=factorization",
        SolveStrategy::DirectLp => "strategy=direct",
    });
}

fn push_options(out: &mut String, options: &SolverOptions) {
    // Solution-relevant options enter the fingerprint; execution details
    // (solver form, refactorization interval) stay out — they can never
    // change a result.
    let pricing = match options.pricing {
        PricingRule::DantzigWithBlandFallback => "dantzig-bland",
        PricingRule::Bland => "bland",
    };
    let _ = write!(
        out,
        ";pricing={pricing};streak={}",
        options.degeneracy_streak_limit
    );
}

/// Append the loss table over `{0, …, n}²` in row-major order. The loss
/// enters the fingerprint by value, so e.g. `AbsoluteError` and a
/// [`TableLoss`](crate::loss::TableLoss) tabulating it fingerprint equal.
fn push_loss<T: Scalar>(out: &mut String, loss: &dyn LossFunction<T>, n: usize) {
    out.push_str(";loss=");
    for i in 0..=n {
        if i > 0 {
            out.push('|');
        }
        for r in 0..=n {
            if r > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}", loss.loss(i, r));
        }
    }
}

impl<T: Scalar> ValidatedRequest<T> {
    /// The canonical content fingerprint of this request: consumer kind, `n`,
    /// α, loss table, side information or prior, strategy and solver options.
    /// The consumer's display name is deliberately excluded — it is reporting
    /// metadata, and including it would split cache entries between consumers
    /// asking the same question.
    #[must_use]
    pub fn fingerprint(&self) -> RequestFingerprint {
        let n = self.n();
        let mut out = String::with_capacity(64 + (n + 1) * (n + 1) * 4);
        let _ = write!(
            out,
            "fp-v1;exact={};n={n};alpha={};",
            T::is_exact(),
            self.level().alpha()
        );
        push_strategy(&mut out, self.strategy());
        push_options(&mut out, self.options());
        match self.consumer() {
            RequestConsumer::Minimax(c) => {
                out.push_str(";kind=minimax;S=");
                for (k, m) in c.side_information().members().iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{m}");
                }
                push_loss(&mut out, c.loss(), n);
            }
            RequestConsumer::Bayesian(c) => {
                out.push_str(";kind=bayesian;prior=");
                for (k, p) in c.prior().iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{p}");
                }
                push_loss(&mut out, c.loss(), n);
            }
        }
        RequestFingerprint::from_canonical(out)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use crate::engine::SolveRequest;
    use crate::loss::{AbsoluteError, TableLoss};
    use privmech_numerics::{rat, Rational};

    fn base() -> SolveRequest<Rational> {
        SolveRequest::minimax()
            .loss(Arc::new(AbsoluteError))
            .support(3, 0..=3)
            .privacy_level(rat(1, 4))
    }

    #[test]
    fn name_does_not_enter_the_fingerprint() {
        let a = base().name("government").validate().unwrap().fingerprint();
        let b = base()
            .name("drug company")
            .validate()
            .unwrap()
            .fingerprint();
        assert_eq!(a, b);
        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(a.hash(), b.hash());
    }

    #[test]
    fn loss_enters_by_value_not_by_type() {
        let table = TableLoss::from_loss(3, &AbsoluteError, "tabulated").unwrap();
        let a = base().validate().unwrap().fingerprint();
        let b = base()
            .loss(Arc::new(table))
            .validate()
            .unwrap()
            .fingerprint();
        assert_eq!(a, b);
    }

    #[test]
    fn solve_relevant_fields_split_the_fingerprint() {
        let a = base().validate().unwrap().fingerprint();
        let alpha = base()
            .privacy_level(rat(1, 3))
            .validate()
            .unwrap()
            .fingerprint();
        let support = base().support(3, 1..=3).validate().unwrap().fingerprint();
        let strategy = base()
            .strategy(crate::engine::SolveStrategy::DirectLp)
            .validate()
            .unwrap()
            .fingerprint();
        assert_ne!(a, alpha);
        assert_ne!(a, support);
        assert_ne!(a, strategy);
    }

    #[test]
    fn backends_cannot_collide() {
        let exact = base().validate().unwrap().fingerprint();
        let inexact = SolveRequest::<f64>::minimax()
            .loss(Arc::new(AbsoluteError))
            .support(3, 0..=3)
            .privacy_level(0.25)
            .validate()
            .unwrap()
            .fingerprint();
        assert_ne!(exact, inexact);
    }
}
