//! Quickstart: publish a differentially-private count with the geometric
//! mechanism, and check that a risk-averse consumer who post-processes the
//! release optimally does exactly as well as if the mechanism had been
//! tailored to them (Theorem 1 of the paper) — all through the
//! [`PrivacyEngine`] session API.
//!
//! Run with: `cargo run --example quickstart`

use std::sync::Arc;

use privmech::numerics::rat;
use privmech::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // A survey over n = 6 respondents; the sensitive count turns out to be 4.
    let n = 6usize;
    let true_count = 4usize;

    // One engine serves every request of the session.
    let engine = PrivacyEngine::new();

    // Describe the consumer once: a public-health analyst who knows the count
    // is at least 2 (say, confirmed cases they observed directly) and cares
    // about absolute error. The request is validated up front — a bad α, an
    // empty support or a non-monotone loss would be rejected here, typed.
    let request = SolveRequest::<Rational>::minimax()
        .name("public-health analyst")
        .loss(Arc::new(AbsoluteError))
        .support(n, 2..=n)
        .privacy_level(rat(1, 3)) // ε = ln 3 in the usual notation
        .validate()
        .expect("well-formed request");
    let level = request.level().clone();

    // Publish at privacy level α = 1/3 with the geometric mechanism.
    let deployed = engine.geometric(n, &level).expect("valid level");
    println!(
        "deployed the range-restricted geometric mechanism G_{{{n},1/3}} (ε = {:.3})",
        level.epsilon()
    );
    println!(
        "it is {}-differentially private and row-stochastic: {}",
        deployed.best_privacy_level(),
        deployed.matrix().is_row_stochastic()
    );

    // Release one sample.
    let mut rng = StdRng::seed_from_u64(7);
    let released = deployed.sample(true_count, &mut rng).unwrap();
    println!("true count = {true_count}, released (perturbed) count = {released}");

    // Raw loss vs. loss after optimal post-processing vs. the tailored optimum.
    let raw_loss = request.consumer().disutility(&deployed).unwrap();
    let interaction = engine.interact(&deployed, &request).unwrap();
    let tailored = engine.solve(&request).unwrap();

    println!();
    println!(
        "worst-case expected |error| of the raw geometric release : {:.4}",
        raw_loss.to_f64()
    );
    println!(
        "after the consumer's optimal post-processing             : {:.4}",
        interaction.loss.to_f64()
    );
    println!(
        "optimal mechanism tailored to this consumer              : {:.4}",
        tailored.loss.to_f64()
    );
    println!();
    println!(
        "Theorem 1 (universal optimality): post-processing the universally deployed geometric \
         mechanism matches the tailored optimum exactly: {}",
        interaction.loss == tailored.loss
    );

    // The same request solved across a whole batch of privacy levels: the
    // engine builds and solves one LP per α, farming the solves across
    // worker threads — results come back in input order.
    let levels: Vec<PrivacyLevel<Rational>> = [(1i64, 5i64), (1, 4), (1, 3), (1, 2), (2, 3)]
        .into_iter()
        .map(|(num, den)| PrivacyLevel::new(rat(num, den)).unwrap())
        .collect();
    let sweep = engine.sweep(&levels, &request).expect("sweep");
    println!();
    println!("optimal loss across a privacy sweep (more privacy -> more loss):");
    for solve in &sweep {
        println!(
            "  {:>9}  optimal |error| = {:.4}   ({} simplex pivots)",
            solve.level.to_string(),
            solve.loss.to_f64(),
            solve.stats.total_pivots()
        );
    }

    // The consumer can apply its post-processing to the single released value
    // by sampling from the corresponding row of T*.
    let reinterpreted_row: Vec<f64> = (0..=n)
        .map(|r| interaction.post_processing[(released, r)].to_f64())
        .collect();
    let best_guess = reinterpreted_row
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(idx, _)| idx)
        .unwrap();
    println!();
    println!("most likely reinterpretation of the released value {released}: {best_guess}");
}
