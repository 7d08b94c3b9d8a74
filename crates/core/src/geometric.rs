//! The geometric mechanism (Definitions 1 and 4 of the paper) and the
//! auxiliary `G'` matrix used in the characterization proofs (Table 2).
//!
//! * The **α-geometric mechanism** adds two-sided geometric noise
//!   `Pr[Z = z] = (1-α)/(1+α) · α^{|z|}` to the true count (Definition 1).
//! * The **range-restricted geometric mechanism** `G_{n,α}` folds the mass
//!   falling outside `{0, …, n}` onto the endpoints (Definition 4); it is the
//!   matrix form used throughout the paper and equals the unbounded mechanism
//!   followed by clamping to `[0, n]`.
//! * `G'_{n,α}` is the column-rescaled matrix `G'[i][j] = α^{|i-j|}` with
//!   `det G'_{n,α} = (1-α²)^{n-1}` (Lemma 1).

use privmech_linalg::{Matrix, Scalar};
use rand::Rng;

use crate::alpha::PrivacyLevel;
use crate::error::Result;
use crate::mechanism::Mechanism;

/// Probability mass of the *unbounded* two-sided geometric distribution at
/// offset `z`: `(1-α)/(1+α)·α^{|z|}` (Definition 1). For `α = 0` this is the
/// point mass at zero; for `α = 1` the distribution is improper and every
/// point gets mass zero.
#[must_use]
pub fn two_sided_geometric_pmf<T: Scalar>(alpha: &T, z: i64) -> T {
    if *alpha == T::zero() {
        return if z == 0 { T::one() } else { T::zero() };
    }
    let scale = (T::one() - alpha.clone()) / (T::one() + alpha.clone());
    scale * alpha.powi(z.unsigned_abs() as u32)
}

/// Probability that the range-restricted geometric mechanism outputs `z` when
/// the true result is `k` (Definition 4):
///
/// * `α^{|z-k|} / (1+α)` when `z ∈ {0, n}`,
/// * `(1-α)/(1+α) · α^{|z-k|}` when `0 < z < n`,
/// * `0` otherwise.
#[must_use]
pub fn range_restricted_pmf<T: Scalar>(n: usize, alpha: &T, k: usize, z: usize) -> T {
    if z > n || k > n {
        return T::zero();
    }
    if n == 0 {
        return T::one();
    }
    if *alpha == T::zero() {
        return if z == k { T::one() } else { T::zero() };
    }
    let dist = k.abs_diff(z) as u32;
    let pow = alpha.powi(dist);
    if z == 0 || z == n {
        pow / (T::one() + alpha.clone())
    } else {
        (T::one() - alpha.clone()) / (T::one() + alpha.clone()) * pow
    }
}

/// Build the range-restricted geometric mechanism `G_{n,α}` as a validated
/// [`Mechanism`] (Definition 4, Table 2 left).
pub fn geometric_mechanism<T: Scalar>(n: usize, level: &PrivacyLevel<T>) -> Result<Mechanism<T>> {
    let alpha = level.alpha();
    let matrix = Matrix::from_fn(n + 1, n + 1, |k, z| range_restricted_pmf(n, alpha, k, z));
    Mechanism::from_matrix(matrix)
}

/// The raw (unvalidated) matrix of `G_{n,α}` — useful when `α = 1` makes the
/// interior entries vanish but the matrix is still well defined.
#[must_use]
pub fn geometric_matrix<T: Scalar>(n: usize, alpha: &T) -> Matrix<T> {
    Matrix::from_fn(n + 1, n + 1, |k, z| range_restricted_pmf(n, alpha, k, z))
}

/// The rescaled matrix `G'_{n,α}` with entries `α^{|i-j|}` (Table 2 right).
///
/// `G'` is obtained from `G` by multiplying the first and last columns by
/// `(1+α)` and every other column by `(1+α)/(1-α)`; Lemma 1 computes
/// `det G'_{n,α} = (1-α²)^{n-1}`.
#[must_use]
pub fn g_prime_matrix<T: Scalar>(n: usize, alpha: &T) -> Matrix<T> {
    Matrix::from_fn(n + 1, n + 1, |i, j| alpha.powi(i.abs_diff(j) as u32))
}

/// The uniformly rescaled matrix `(1+α)/(1-α) · G_{n,α}` that the paper prints
/// as Table 1(b). (The paper labels it `G_{3,1/4}` but the entries shown are
/// this rescaling; see EXPERIMENTS.md.)
#[must_use]
pub fn table1b_scaled_geometric<T: Scalar>(n: usize, alpha: &T) -> Matrix<T> {
    let scale = (T::one() + alpha.clone()) / (T::one() - alpha.clone());
    geometric_matrix(n, alpha).scale(&scale)
}

/// Closed form of Lemma 1: `det G'_{n,α} = (1-α²)^{n-1}` for an
/// `(n+1) × (n+1)` matrix (the paper indexes the matrix size by `n`; here the
/// argument is the count-query bound `n`, so the exponent is `n`).
#[must_use]
pub fn lemma1_determinant<T: Scalar>(n: usize, alpha: &T) -> T {
    (T::one() - alpha.clone() * alpha.clone()).powi(n as u32)
}

/// Sample the unbounded two-sided geometric noise `Z` with parameter `α`
/// (Definition 1), as the difference of two i.i.d. geometric variables.
pub fn sample_two_sided_geometric<R: Rng + ?Sized>(alpha: f64, rng: &mut R) -> i64 {
    assert!(
        (0.0..1.0).contains(&alpha),
        "two-sided geometric sampling requires alpha in [0, 1)"
    );
    if alpha == 0.0 {
        return 0;
    }
    let ln_alpha = alpha.ln();
    let mut one_sided = || -> i64 {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        (u.ln() / ln_alpha).floor() as i64
    };
    one_sided() - one_sided()
}

/// Sample an output of the range-restricted geometric mechanism for true
/// result `k`: add two-sided geometric noise and clamp to `[0, n]`. This is
/// distributionally identical to sampling from row `k` of `G_{n,α}`.
pub fn sample_geometric_output<R: Rng + ?Sized>(
    n: usize,
    k: usize,
    alpha: f64,
    rng: &mut R,
) -> usize {
    let noisy = k as i64 + sample_two_sided_geometric(alpha, rng);
    noisy.clamp(0, n as i64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use privmech_numerics::{rat, Rational};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn every_validated_level_deploys_g() {
        // A sweep builds G_{n,α} inside each level's step and reports a
        // failure per level, so no validated level may make the build fail:
        // the α extremes, on both backends, up to the wire's largest n.
        for alpha in [0.0, f64::MIN_POSITIVE, 1e-12, 0.5, 1.0 - f64::EPSILON, 1.0] {
            let level = PrivacyLevel::new(alpha).unwrap();
            for n in [0, 1, 1024] {
                assert!(
                    geometric_mechanism(n, &level).is_ok(),
                    "n = {n}, α = {alpha}"
                );
            }
        }
        for alpha in [
            rat(0, 1),
            rat(1, 1000),
            rat(1, 2),
            rat(999, 1000),
            rat(1, 1),
        ] {
            let level = PrivacyLevel::new(alpha.clone()).unwrap();
            for n in [0, 1, 16] {
                assert!(
                    geometric_mechanism(n, &level).is_ok(),
                    "n = {n}, α = {alpha}"
                );
            }
        }
    }

    #[test]
    fn unbounded_pmf_matches_definition_one() {
        let a = rat(1, 5);
        // (1-α)/(1+α) = (4/5)/(6/5) = 2/3.
        assert_eq!(two_sided_geometric_pmf(&a, 0), rat(2, 3));
        assert_eq!(two_sided_geometric_pmf(&a, 1), rat(2, 15));
        assert_eq!(two_sided_geometric_pmf(&a, -1), rat(2, 15));
        assert_eq!(two_sided_geometric_pmf(&a, 3), rat(2, 375));
        // α = 0 is the identity (point mass).
        assert_eq!(
            two_sided_geometric_pmf(&Rational::zero(), 0),
            Rational::one()
        );
        assert_eq!(
            two_sided_geometric_pmf(&Rational::zero(), 2),
            Rational::zero()
        );
        // Symmetric in z.
        assert_eq!(
            two_sided_geometric_pmf(&a, 7),
            two_sided_geometric_pmf(&a, -7)
        );
    }

    #[test]
    fn range_restricted_matches_definition_four() {
        // n = 3, α = 1/4, true result k = 1.
        let a = rat(1, 4);
        // Endpoint z = 0: α^1/(1+α) = (1/4)/(5/4) = 1/5.
        assert_eq!(range_restricted_pmf(3, &a, 1, 0), rat(1, 5));
        // Interior z = 1: (1-α)/(1+α) = 3/5.
        assert_eq!(range_restricted_pmf(3, &a, 1, 1), rat(3, 5));
        // Interior z = 2: 3/5 · 1/4 = 3/20.
        assert_eq!(range_restricted_pmf(3, &a, 1, 2), rat(3, 20));
        // Endpoint z = 3: α²/(1+α) = (1/16)/(5/4) = 1/20.
        assert_eq!(range_restricted_pmf(3, &a, 1, 3), rat(1, 20));
        // Out of range.
        assert_eq!(range_restricted_pmf(3, &a, 1, 7), Rational::zero());
    }

    #[test]
    fn geometric_mechanism_is_stochastic_and_private() {
        for n in [1usize, 2, 3, 5, 8] {
            for (num, den) in [(1i64, 5i64), (1, 4), (1, 3), (1, 2), (2, 3)] {
                let level = PrivacyLevel::new(rat(num, den)).unwrap();
                let g = geometric_mechanism(n, &level).unwrap();
                assert!(g.matrix().is_row_stochastic(), "n={n}, alpha={num}/{den}");
                assert!(g.is_differentially_private(&level));
                assert_eq!(g.best_privacy_level(), rat(num, den));
            }
        }
    }

    #[test]
    fn extreme_alphas() {
        // α = 0: identity mechanism.
        let zero = PrivacyLevel::new(Rational::zero()).unwrap();
        let g = geometric_mechanism(3, &zero).unwrap();
        assert_eq!(g, Mechanism::identity(3));
        // α = 1: all mass on the endpoints, independent of the input.
        let one = PrivacyLevel::new(Rational::one()).unwrap();
        let g = geometric_mechanism(3, &one).unwrap();
        for k in 0..=3 {
            assert_eq!(*g.prob(k, 0).unwrap(), rat(1, 2));
            assert_eq!(*g.prob(k, 3).unwrap(), rat(1, 2));
            assert_eq!(*g.prob(k, 1).unwrap(), Rational::zero());
        }
        assert_eq!(g.best_privacy_level(), Rational::one());
        // n = 0: the only possible answer is 0.
        let quarter = PrivacyLevel::new(rat(1, 4)).unwrap();
        let g = geometric_mechanism(0, &quarter).unwrap();
        assert_eq!(*g.prob(0, 0).unwrap(), Rational::one());
    }

    #[test]
    fn g_prime_and_lemma1_determinant() {
        for n in [1usize, 2, 3, 4, 6] {
            for (num, den) in [(1i64, 4i64), (1, 3), (1, 2), (3, 5)] {
                let a = rat(num, den);
                let gp = g_prime_matrix(n, &a);
                assert_eq!(gp[(0, 0)], Rational::one());
                assert_eq!(gp[(0, n)], a.pow(n as i32));
                assert_eq!(gp.determinant().unwrap(), lemma1_determinant(n, &a));
            }
        }
    }

    #[test]
    fn g_prime_is_column_rescaled_g() {
        let n = 3;
        let a = rat(1, 4);
        let g = geometric_matrix(n, &a);
        let gp = g_prime_matrix(n, &a);
        let one_plus = Rational::one() + a.clone();
        let interior = (Rational::one() + a.clone()) / (Rational::one() - a.clone());
        for i in 0..=n {
            for j in 0..=n {
                let scale = if j == 0 || j == n {
                    one_plus.clone()
                } else {
                    interior.clone()
                };
                assert_eq!(gp[(i, j)], g[(i, j)].clone() * scale);
            }
        }
    }

    #[test]
    fn table1b_scaling_reproduces_paper_entries() {
        // Table 1(b) of the paper, n = 3, α = 1/4.
        let scaled = table1b_scaled_geometric(3, &rat(1, 4));
        let expected = [
            vec![rat(4, 3), rat(1, 4), rat(1, 16), rat(1, 48)],
            vec![rat(1, 3), rat(1, 1), rat(1, 4), rat(1, 12)],
            vec![rat(1, 12), rat(1, 4), rat(1, 1), rat(1, 3)],
            vec![rat(1, 48), rat(1, 16), rat(1, 4), rat(4, 3)],
        ];
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(scaled[(i, j)], expected[i][j], "entry ({i},{j})");
            }
        }
    }

    #[test]
    fn geometric_determinant_is_positive_lemma_one() {
        // Lemma 1: det(G_{n,α}) > 0, via det G' = (1-α²)^{n} and the column
        // scaling factors.
        for n in [1usize, 2, 3, 5] {
            let a = rat(1, 3);
            let det = geometric_matrix(n, &a).determinant().unwrap();
            assert!(det.is_positive(), "n = {n}");
        }
    }

    #[test]
    fn sampling_is_close_to_pmf() {
        let mut rng = StdRng::seed_from_u64(42);
        let alpha = 0.2;
        let n = 10usize;
        let k = 5usize;
        let trials = 40_000;
        let mut counts = vec![0usize; n + 1];
        for _ in 0..trials {
            counts[sample_geometric_output(n, k, alpha, &mut rng)] += 1;
        }
        #[allow(clippy::needless_range_loop)] // z is also the pmf argument
        for z in 0..=n {
            let expected = range_restricted_pmf(n, &alpha, k, z);
            let observed = counts[z] as f64 / trials as f64;
            assert!(
                (observed - expected).abs() < 0.01,
                "z = {z}: observed {observed}, expected {expected}"
            );
        }
        // α = 0 sampling is deterministic.
        assert_eq!(sample_two_sided_geometric(0.0, &mut rng), 0);
    }

    #[test]
    #[should_panic(expected = "alpha in [0, 1)")]
    fn sampling_rejects_alpha_one() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = sample_two_sided_geometric(1.0, &mut rng);
    }
}
