//! Property tests for the canonical request fingerprint
//! (`ValidatedRequest::fingerprint`), the key of the serving layer's
//! response cache.
//!
//! The two directions under test:
//!
//! * **soundness** — two requests describing the same optimization problem
//!   fingerprint equal, however they were phrased (builder order, loss type,
//!   display name, duplicated support members);
//! * **discrimination** — changing any solve-relevant field (α, loss values,
//!   side information, prior, strategy) changes the fingerprint.

use std::sync::Arc;

use privmech_core::{
    AbsoluteError, LossFunction, RequestFingerprint, SolveRequest, SolveStrategy, SquaredError,
    TableLoss, ToleranceError, ZeroOneError,
};
use privmech_numerics::{rat, Rational};
use proptest::prelude::*;

/// The generated shape of a minimax request: everything the fingerprint must
/// react to.
#[derive(Debug, Clone, PartialEq)]
struct Shape {
    n: usize,
    members: Vec<usize>,
    loss: usize, // 0 = absolute, 1 = squared, 2 = zero-one, 3 = tolerance(1)
    alpha_num: i64,
    alpha_den: i64,
    direct: bool,
}

fn loss_by_index(idx: usize) -> Arc<dyn LossFunction<Rational> + Send + Sync> {
    match idx % 4 {
        0 => Arc::new(AbsoluteError),
        1 => Arc::new(SquaredError),
        2 => Arc::new(ZeroOneError),
        _ => Arc::new(ToleranceError { width: 1 }),
    }
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    (2usize..=5, 0usize..4, 1i64..=6, 0usize..64, any::<bool>()).prop_map(
        |(n, loss, alpha_num, member_mask, direct)| {
            // A non-empty subset of {0, …, n} from the mask bits.
            let mut members: Vec<usize> = (0..=n).filter(|i| member_mask & (1 << i) != 0).collect();
            if members.is_empty() {
                members.push(alpha_num as usize % (n + 1));
            }
            Shape {
                n,
                members,
                loss,
                alpha_num,
                alpha_den: 7,
                direct,
            }
        },
    )
}

fn fingerprint_of(shape: &Shape, name: &str) -> RequestFingerprint {
    SolveRequest::<Rational>::minimax()
        .name(name)
        .loss(loss_by_index(shape.loss))
        .support(shape.n, shape.members.iter().copied())
        .privacy_level(rat(shape.alpha_num, shape.alpha_den))
        .strategy(if shape.direct {
            SolveStrategy::DirectLp
        } else {
            SolveStrategy::GeometricFactorization
        })
        .validate()
        .expect("generated shapes are valid")
        .fingerprint()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Soundness: re-validating the same content — different name, duplicated
    /// support members, the loss swapped for its tabulated equivalent — must
    /// reproduce the fingerprint exactly.
    #[test]
    fn equal_content_gives_equal_fingerprints(shape in shape_strategy()) {
        let a = fingerprint_of(&shape, "alice");
        let b = fingerprint_of(&shape, "bob");
        prop_assert_eq!(&a, &b, "name must not split the fingerprint");

        // Duplicate every member; SideInformation dedups, content is equal.
        let mut doubled = shape.clone();
        doubled.members.extend(shape.members.iter().copied());
        prop_assert_eq!(&a, &fingerprint_of(&doubled, "carol"));

        // Same loss values through a different LossFunction type.
        let table = TableLoss::from_loss(
            shape.n,
            loss_by_index(shape.loss).as_ref(),
            "tabulated",
        ).expect("builtin losses are monotone");
        let via_table = SolveRequest::<Rational>::minimax()
            .loss(Arc::new(table))
            .support(shape.n, shape.members.iter().copied())
            .privacy_level(rat(shape.alpha_num, shape.alpha_den))
            .strategy(if shape.direct {
                SolveStrategy::DirectLp
            } else {
                SolveStrategy::GeometricFactorization
            })
            .validate()
            .unwrap()
            .fingerprint();
        prop_assert_eq!(&a, &via_table, "loss must enter by value, not type");

        // The canonical string is the key: equal fingerprints, equal strings.
        prop_assert_eq!(a.canonical(), b.canonical());
        prop_assert_eq!(a.hash(), b.hash());
    }

    /// Discrimination: perturbing each solve-relevant field must change the
    /// fingerprint.
    #[test]
    fn differing_content_gives_differing_fingerprints(shape in shape_strategy()) {
        let base = fingerprint_of(&shape, "base");

        // A different α.
        let mut other = shape.clone();
        other.alpha_num = if shape.alpha_num == 6 { 1 } else { shape.alpha_num + 1 };
        prop_assert_ne!(&base, &fingerprint_of(&other, "alpha"));

        // A different loss (the four builtins are pairwise distinct on any
        // domain with n >= 2).
        let mut other = shape.clone();
        other.loss = (shape.loss + 1) % 4;
        prop_assert_ne!(&base, &fingerprint_of(&other, "loss"));

        // Different side information: toggle one member (keeping S valid and
        // non-empty).
        let mut other = shape.clone();
        if let Some(absent) = (0..=shape.n).find(|i| !shape.members.contains(i)) {
            other.members.push(absent);
        } else if shape.members.len() > 1 {
            other.members.pop();
        } else {
            // S = {0..=n} with a single member means n = 0; unreachable for
            // the generated n >= 2, but reject defensively.
            prop_assume!(false);
        }
        prop_assert_ne!(&base, &fingerprint_of(&other, "support"));

        // The other strategy.
        let mut other = shape.clone();
        other.direct = !shape.direct;
        prop_assert_ne!(&base, &fingerprint_of(&other, "strategy"));
    }

    /// Bayesian requests: the prior is part of the content.
    #[test]
    fn bayesian_prior_enters_the_fingerprint(weight in 1i64..=5) {
        // prior_a = (w/6, 1 - w/6), prior_b reversed (distinct unless w = 3).
        prop_assume!(weight != 3);
        let prior_a = vec![rat(weight, 6), rat(6 - weight, 6)];
        let prior_b = vec![rat(6 - weight, 6), rat(weight, 6)];
        let request = |prior: Vec<Rational>| {
            SolveRequest::<Rational>::bayesian()
                .loss(Arc::new(AbsoluteError))
                .prior(prior)
                .privacy_level(rat(1, 4))
                .validate()
                .unwrap()
                .fingerprint()
        };
        let a = request(prior_a.clone());
        prop_assert_eq!(&a, &request(prior_a), "same prior, same fingerprint");
        prop_assert_ne!(&a, &request(prior_b), "prior must enter the fingerprint");
    }
}

// ---------------------------------------------------------------------------
// Solver-form exclusion (PR 4).
//
// `SolverForm` and `refactor_interval` are execution details covered by the
// dense ≡ revised bit-identity contract (crates/lp/SOLVER.md): they can never
// change a result, so they are deliberately excluded from the fingerprint.
// This keeps every cache entry produced by the pre-refactor (dense-only)
// serving layer addressable — and verifiable — by the revised-default server.
// ---------------------------------------------------------------------------

#[test]
fn solver_form_and_refactor_interval_do_not_split_the_fingerprint() {
    use privmech_lp::{PricingRule, SolverForm, SolverOptions};
    let base = || {
        SolveRequest::<Rational>::minimax()
            .loss(Arc::new(AbsoluteError))
            .support(3, 0..=3)
            .privacy_level(rat(1, 4))
    };
    let reference = base().validate().unwrap().fingerprint();
    for options in [
        SolverOptions {
            form: SolverForm::Dense,
            ..SolverOptions::default()
        },
        SolverOptions {
            refactor_interval: 1,
            ..SolverOptions::default()
        },
        SolverOptions {
            refactor_interval: SolverOptions::NEVER_REFACTOR,
            ..SolverOptions::default()
        },
    ] {
        let fp = base()
            .solver_options(options)
            .validate()
            .unwrap()
            .fingerprint();
        assert_eq!(reference, fp, "{options:?} must not split the cache key");
    }
    // Result-relevant option fields still discriminate.
    let bland = base()
        .solver_options(SolverOptions {
            pricing: PricingRule::Bland,
            ..SolverOptions::default()
        })
        .validate()
        .unwrap()
        .fingerprint();
    assert_ne!(
        reference, bland,
        "pricing is result-relevant and must split"
    );
}

// ---------------------------------------------------------------------------
// Cache-key stability across option additions.
//
// Option fields added to `SolverOptions` since the key format was fixed are
// execution details that stay out of the key, so the default rendering is
// byte-identical to what a server without them produced. Every cache entry
// written before they existed therefore stays addressable.
// ---------------------------------------------------------------------------

#[test]
fn pr6_option_fields_leave_pre_existing_cache_keys_intact() {
    let base = || {
        SolveRequest::<Rational>::minimax()
            .loss(Arc::new(AbsoluteError))
            .support(3, 0..=3)
            .privacy_level(rat(1, 4))
    };
    let reference = base().validate().unwrap().fingerprint();

    // The canonical string a pre-PR6 server computed (and keyed its persisted
    // cache entries by) for this request, pinned byte for byte. If this
    // assertion ever fails, a deployed server's cache would silently go cold
    // — and `--verify-hits` replay of old entries would stop finding them.
    assert_eq!(
        reference.canonical(),
        "fp-v1;exact=true;n=3;alpha=1/4;strategy=factorization;\
         pricing=dantzig-bland;streak=8;kind=minimax;S=0,1,2,3;\
         loss=0,1,2,3|1,0,1,2|2,1,0,1|3,2,1,0"
    );
}
