//! Serving-layer half of the dense ≡ revised regression (PR 4): cache
//! entries produced by the pre-refactor server (which always ran the dense
//! tableau) must still be addressed by the same keys and verify
//! byte-identically under the revised-simplex default.
//!
//! The server renders a response as a pure function of the engine's `Solve`
//! (`solve_to_wire` in `server.rs`) and keys it on
//! `ValidatedRequest::fingerprint`. So the pre-refactor compatibility claim
//! decomposes into exactly the three facts asserted here:
//!
//! 1. the fingerprint ignores the solver form (old keys == new keys),
//! 2. a dense-form `Solve` equals a revised-form `Solve` field for field
//!    (old cached bytes == new rendered bytes),
//! 3. the live `--verify-hits` path — which re-solves every hit with
//!    today's default options and asserts byte identity against the cached
//!    rendering — passes against entries already in the cache.

use privmech_core::{PrivacyEngine, SolveStrategy};
use privmech_lp::{SolverForm, SolverOptions};
use privmech_numerics::{rat, Rational};
use privmech_serve::client::Client;
use privmech_serve::proto::{CacheDisposition, CacheMode, ConsumerSpec, LossSpec};
use privmech_serve::server::{self, ServerConfig};

#[test]
fn pre_refactor_cache_entries_survive_the_revised_default() {
    let n = 3;
    let alpha = rat(1, 4);
    let spec = ConsumerSpec::<Rational>::minimax(n, LossSpec::Absolute);

    // Fact 1: the wire request's fingerprint — the cache key — is identical
    // whether the solver options pin the dense form (what the pre-refactor
    // server effectively ran) or today's defaults.
    let validated = spec.to_request(alpha.clone()).expect("valid spec");
    let dense_key = validated
        .clone()
        .with_options(SolverOptions {
            form: SolverForm::Dense,
            ..SolverOptions::default()
        })
        .fingerprint();
    assert_eq!(
        validated.fingerprint(),
        dense_key,
        "solver form must not split the serve cache key"
    );

    // Fact 2: the Solve the pre-refactor server rendered (dense form) equals
    // the Solve today's server renders (revised default) in every field the
    // wire format serializes: α, loss, mechanism, stats.
    let engine = PrivacyEngine::with_threads(1);
    let dense = engine
        .solve(&validated.clone().with_options(SolverOptions {
            form: SolverForm::Dense,
            ..SolverOptions::default()
        }))
        .expect("solvable");
    let revised = engine.solve(&validated).expect("solvable");
    assert_eq!(dense.level.alpha(), revised.level.alpha());
    assert_eq!(dense.loss, revised.loss);
    assert_eq!(dense.mechanism, revised.mechanism);
    assert_eq!(dense.stats, revised.stats);

    // Fact 3: a verify-hits server accepts its own cached entries — every
    // hit re-solves with the default (revised) options and byte-compares
    // against the cached rendering; a divergence surfaces as a
    // `cache_verify_failed` wire error and fails this test.
    let handle = server::spawn(ServerConfig {
        verify_hits: true,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let first = client.solve(&spec, &alpha, CacheMode::Use).expect("miss");
    assert_eq!(first.cache, CacheDisposition::Miss);
    let hit = client.solve(&spec, &alpha, CacheMode::Use).expect("hit");
    assert_eq!(hit.cache, CacheDisposition::Hit);
    assert_eq!(hit.raw, first.raw, "verified hit must return cached bytes");
    let bypass = client
        .solve(&spec, &alpha, CacheMode::Bypass)
        .expect("bypass");
    assert_eq!(
        bypass.raw, first.raw,
        "a fresh uncached solve must render the same bytes"
    );
    handle.shutdown();
}

#[test]
fn direct_strategy_entries_are_form_stable_too() {
    // DirectLp responses embed the Section 2.5 LP's optimal vertex itself —
    // the shape most sensitive to any pivot-sequence change. Byte-compare a
    // real server's responses across a cache round trip.
    let handle = server::spawn(ServerConfig {
        verify_hits: true,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let spec = ConsumerSpec::<Rational>::minimax(3, LossSpec::Absolute)
        .with_strategy(SolveStrategy::DirectLp);
    for alpha in [rat(1, 3), rat(1, 2)] {
        let miss = client.solve(&spec, &alpha, CacheMode::Use).expect("miss");
        let hit = client.solve(&spec, &alpha, CacheMode::Use).expect("hit");
        assert_eq!(miss.raw, hit.raw);
        assert_eq!(hit.cache, CacheDisposition::Hit);
    }
    handle.shutdown();
}
