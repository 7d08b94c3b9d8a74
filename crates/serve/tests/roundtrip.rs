//! End-to-end contracts of the serving layer, driven through a real TCP
//! server:
//!
//! * **cached ≡ uncached, bit for bit** — for generated requests on both
//!   scalar backends, the cache-hit response, the cache-bypass response, and
//!   a direct in-process `PrivacyEngine` solve agree exactly;
//! * **concurrent hit/miss consistency** — many clients hammering the same
//!   key through the worker pool all read byte-identical responses and the
//!   counters account for every lookup;
//! * **error codes** — schema and validation failures surface with their
//!   stable codes, at every protocol layer (framing, JSON, schema, core).

use privmech_core::{PrivacyEngine, PrivacyLevel, SolveStrategy};
use privmech_numerics::{rat, Rational};
use privmech_serve::client::Client;
use privmech_serve::frame::{read_frame, write_frame};
use privmech_serve::json::{self, Json};
use privmech_serve::proto::{CacheDisposition, CacheMode, ConsumerSpec, LossSpec, WireScalar};
use privmech_serve::server::{self, ServerConfig};
use proptest::strategy::Strategy;
use proptest::test_runner::TestRng;

fn test_server() -> server::ServerHandle {
    server::spawn(ServerConfig {
        worker_threads: 4,
        ..ServerConfig::default()
    })
    .expect("bind loopback")
}

/// A generated minimax request shape shared by both backends.
#[derive(Debug, Clone)]
struct Shape {
    n: usize,
    support: Option<Vec<usize>>,
    loss: usize,
    alpha_num: usize,
    direct: bool,
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    (
        2usize..=4,
        0usize..4,
        1usize..=6,
        0usize..32,
        proptest::arbitrary::any::<bool>(),
    )
        .prop_map(|(n, loss, alpha_num, mask, direct)| {
            let members: Vec<usize> = (0..=n).filter(|i| mask & (1 << i) != 0).collect();
            Shape {
                n,
                support: (!members.is_empty()).then_some(members),
                loss,
                alpha_num,
                direct,
            }
        })
}

fn loss_spec<T: WireScalar>(idx: usize) -> LossSpec<T> {
    match idx % 4 {
        0 => LossSpec::Absolute,
        1 => LossSpec::Squared,
        2 => LossSpec::ZeroOne,
        _ => LossSpec::Tolerance(1),
    }
}

fn spec_of<T: WireScalar>(shape: &Shape) -> ConsumerSpec<T> {
    let mut spec = ConsumerSpec::<T>::minimax(shape.n, loss_spec(shape.loss));
    if let Some(support) = &shape.support {
        spec = spec.with_support(support.clone());
    }
    if shape.direct {
        spec = spec.with_strategy(SolveStrategy::DirectLp);
    }
    spec
}

/// The property, checked per generated shape: hit ≡ bypass ≡ in-process
/// engine solve, bit for bit.
fn check_solve_identity<T: WireScalar>(client: &mut Client, spec: &ConsumerSpec<T>, alpha: T) {
    let first = client.solve(spec, &alpha, CacheMode::Use).expect("solve");
    let second = client
        .solve(spec, &alpha, CacheMode::Use)
        .expect("re-solve");
    let bypass = client
        .solve(spec, &alpha, CacheMode::Bypass)
        .expect("bypass solve");
    assert_eq!(
        second.cache,
        CacheDisposition::Hit,
        "second identical request must hit"
    );
    assert_eq!(bypass.cache, CacheDisposition::Bypass);
    assert_eq!(
        first.raw, second.raw,
        "cached response must be byte-identical"
    );
    assert_eq!(first.raw, bypass.raw, "bypass must render the same bytes");

    // Ground truth: the same request solved in-process.
    let request = spec.to_request(alpha).expect("valid request");
    let local = PrivacyEngine::with_threads(1)
        .solve(&request)
        .expect("solvable");
    assert_eq!(second.value.loss, local.loss, "wire loss ≡ engine loss");
    assert_eq!(second.value.stats, local.stats);
    let local_rows: Vec<Vec<T>> = local
        .mechanism
        .matrix()
        .row_iter()
        .map(<[T]>::to_vec)
        .collect();
    assert_eq!(
        second.value.mechanism, local_rows,
        "wire mech ≡ engine mech"
    );
}

#[test]
fn cached_solves_are_bit_identical_to_uncached_rational() {
    let handle = test_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    let strategy = shape_strategy();
    let mut rng = TestRng::deterministic("roundtrip::rational");
    for _ in 0..10 {
        let shape = strategy.generate(&mut rng);
        let alpha = rat(shape.alpha_num as i64, 7);
        check_solve_identity::<Rational>(&mut client, &spec_of(&shape), alpha);
    }
    let stats = handle.cache_stats();
    assert!(
        stats.hits >= 10,
        "one hit per generated case, got {stats:?}"
    );
    handle.shutdown();
}

#[test]
fn cached_solves_are_bit_identical_to_uncached_f64() {
    let handle = test_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    let strategy = shape_strategy();
    let mut rng = TestRng::deterministic("roundtrip::f64");
    for _ in 0..10 {
        let shape = strategy.generate(&mut rng);
        let alpha = shape.alpha_num as f64 / 7.0;
        check_solve_identity::<f64>(&mut client, &spec_of(&shape), alpha);
    }
    handle.shutdown();
}

#[test]
fn sweep_round_trips_and_caches_whole_batches() {
    let handle = test_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    let spec = ConsumerSpec::<Rational>::minimax(3, LossSpec::Absolute);
    let alphas = vec![rat(1, 5), rat(1, 4), rat(1, 2)];

    let first = client.sweep(&spec, &alphas, CacheMode::Use).expect("sweep");
    let second = client.sweep(&spec, &alphas, CacheMode::Use).expect("sweep");
    assert_eq!(second.cache, CacheDisposition::Hit);
    assert_eq!(first.raw, second.raw);
    assert_eq!(first.value.len(), 3);

    // Order matters: the reversed batch is a different cache entry but must
    // contain the same solves reversed.
    let reversed: Vec<Rational> = alphas.iter().rev().cloned().collect();
    let third = client
        .sweep(&spec, &reversed, CacheMode::Use)
        .expect("sweep");
    assert_eq!(third.cache, CacheDisposition::Miss);
    for (a, b) in first.value.iter().zip(third.value.iter().rev()) {
        assert_eq!(a.loss, b.loss);
        assert_eq!(a.mechanism, b.mechanism);
    }

    // Ground truth against the in-process engine sweep.
    let request = spec.to_request(rat(1, 5)).unwrap();
    let levels: Vec<PrivacyLevel<Rational>> = alphas
        .iter()
        .map(|a| PrivacyLevel::new(a.clone()).unwrap())
        .collect();
    let local = PrivacyEngine::with_threads(1)
        .sweep(&levels, &request)
        .unwrap();
    for (wire, engine) in first.value.iter().zip(&local) {
        assert_eq!(wire.loss, engine.loss);
        assert_eq!(wire.stats, engine.stats);
    }
    handle.shutdown();
}

#[test]
fn interact_round_trips_and_ignores_alpha_for_caching() {
    let handle = test_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    let engine = PrivacyEngine::with_threads(1);
    let level = PrivacyLevel::new(rat(1, 4)).unwrap();
    let deployed = engine.geometric::<Rational>(3, &level).unwrap();
    let rows: Vec<Vec<Rational>> = deployed
        .matrix()
        .row_iter()
        .map(<[Rational]>::to_vec)
        .collect();

    let spec = ConsumerSpec::<Rational>::minimax(3, LossSpec::Squared);
    let first = client
        .interact(&spec, &rows, CacheMode::Use)
        .expect("interact");
    // The strategy field is normalized out of the interact cache key.
    let respec = spec.clone().with_strategy(SolveStrategy::DirectLp);
    let second = client
        .interact(&respec, &rows, CacheMode::Use)
        .expect("interact");
    assert_eq!(second.cache, CacheDisposition::Hit);
    assert_eq!(first.raw, second.raw);

    // Ground truth.
    let request = spec.to_request(Rational::zero()).unwrap();
    let local = engine.interact(&deployed, &request).unwrap();
    assert_eq!(first.value.loss, local.loss);
    assert_eq!(first.value.stats, local.lp_stats);
    handle.shutdown();
}

#[test]
fn concurrent_clients_read_identical_bytes_through_the_pool() {
    let handle = test_server();
    let addr = handle.addr();
    let spec = ConsumerSpec::<Rational>::minimax(3, LossSpec::Absolute);
    let raws: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let spec = spec.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut raws = Vec::new();
                    for _ in 0..4 {
                        let reply = client
                            .solve(&spec, &rat(1, 3), CacheMode::Use)
                            .expect("solve");
                        raws.push(reply.raw);
                    }
                    raws
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    assert_eq!(raws.len(), 24);
    assert!(
        raws.iter().all(|r| r == &raws[0]),
        "every client must read byte-identical responses"
    );
    let stats = handle.cache_stats();
    assert_eq!(
        stats.hits + stats.misses,
        24,
        "every lookup is a hit or a miss: {stats:?}"
    );
    assert!(stats.misses >= 1, "someone computed it");
    assert!(stats.hits >= 24 - 6, "at most one miss per racing client");
    handle.shutdown();
}

#[test]
fn verify_hits_mode_asserts_identity_on_every_hit() {
    let handle = server::spawn(ServerConfig {
        verify_hits: true,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let spec = ConsumerSpec::<Rational>::minimax(2, LossSpec::Absolute);
    let first = client.solve(&spec, &rat(1, 2), CacheMode::Use).unwrap();
    // Each of these hits re-solves server-side and asserts byte identity; a
    // mismatch would surface as a `cache_verify_failed` error.
    for _ in 0..3 {
        let hit = client.solve(&spec, &rat(1, 2), CacheMode::Use).unwrap();
        assert_eq!(hit.cache, CacheDisposition::Hit);
        assert_eq!(hit.raw, first.raw);
    }
    handle.shutdown();
}

#[test]
fn validation_failures_keep_their_stable_codes() {
    use privmech_serve::client::ClientError;
    let handle = test_server();
    let mut client = Client::connect(handle.addr()).unwrap();

    let code_of = |err: ClientError| match err {
        ClientError::Server(e) => e.code,
        other => panic!("expected a server error, got {other:?}"),
    };

    let spec = ConsumerSpec::<Rational>::minimax(3, LossSpec::Absolute);
    let err = client.solve(&spec, &rat(3, 2), CacheMode::Use).unwrap_err();
    assert_eq!(code_of(err), "invalid_alpha");

    let bad_support = spec.clone().with_support(vec![9]);
    let err = client
        .solve(&bad_support, &rat(1, 4), CacheMode::Use)
        .unwrap_err();
    assert_eq!(code_of(err), "invalid_side_information");

    let bad_prior = ConsumerSpec::<Rational>::bayesian(
        vec![rat(1, 2), rat(1, 3)], // sums to 5/6
        LossSpec::Absolute,
    );
    let err = client
        .solve(&bad_prior, &rat(1, 4), CacheMode::Use)
        .unwrap_err();
    assert_eq!(code_of(err), "invalid_prior");

    let err = client
        .call(Json::obj().with("op", Json::str("frobnicate")))
        .unwrap_err();
    assert_eq!(code_of(err), "unknown_op");

    let err = client
        .call(
            Json::obj()
                .with("op", Json::str("solve"))
                .with("scalar", Json::str("posit16")),
        )
        .unwrap_err();
    assert_eq!(code_of(err), "unsupported_scalar");

    // Interact with a non-stochastic mechanism.
    let err = client
        .interact(&spec, &vec![vec![rat(1, 1); 4]; 4], CacheMode::Use)
        .unwrap_err();
    assert_eq!(code_of(err), "invalid_mechanism");

    handle.shutdown();
}

/// Below the typed client: raw frames exercise the version gate and the
/// malformed-JSON path.
#[test]
fn raw_protocol_rejections() {
    let handle = test_server();
    let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();

    let call = |stream: &mut std::net::TcpStream, payload: &[u8]| -> Json {
        write_frame(stream, payload).unwrap();
        let bytes = read_frame(stream).unwrap().expect("a response frame");
        json::parse(std::str::from_utf8(&bytes).unwrap()).unwrap()
    };
    let code = |response: &Json| -> String {
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
        response
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .expect("an error code")
            .to_string()
    };

    let response = call(&mut stream, br#"{"v":99,"op":"ping","id":1}"#);
    assert_eq!(code(&response), "unsupported_version");

    let response = call(&mut stream, br#"{"op":"ping"}"#);
    assert_eq!(
        code(&response),
        "unsupported_version",
        "missing v is rejected"
    );

    // A retired major is rejected like any other.
    let response = call(&mut stream, br#"{"v":1,"op":"ping"}"#);
    assert_eq!(code(&response), "unsupported_version");
    assert_eq!(
        response
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str),
        Some("server speaks protocol v2, request is v1")
    );

    let response = call(&mut stream, br#"{"v":2,"id":1}"#);
    assert_eq!(code(&response), "bad_request", "op is required");

    // The version-negotiation op is gone.
    let response = call(&mut stream, br#"{"v":2,"id":1,"op":"hello"}"#);
    assert_eq!(code(&response), "unknown_op");

    let response = call(&mut stream, b"this is not json");
    assert_eq!(code(&response), "malformed_json");

    // Every request needs a correlation id.
    let response = call(&mut stream, br#"{"v":2,"op":"ping","id":7}"#);
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(response.get("id").and_then(Json::as_u64), Some(7));
    let response = call(&mut stream, br#"{"v":2,"op":"ping"}"#);
    assert_eq!(code(&response), "bad_request", "v2 without id is rejected");

    // Unknown fields are ignored (forward compatibility within a major).
    let response = call(
        &mut stream,
        br#"{"v":2,"id":8,"op":"ping","future_field":{"x":[1,2,3]}}"#,
    );
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));

    handle.shutdown();
}

#[test]
fn shutdown_op_stops_the_server() {
    let handle = test_server();
    let addr = handle.addr();
    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();
    client.shutdown().unwrap();
    // join returns once the accept loop and workers exit.
    handle.join();
    // The listener is gone; a fresh connection must fail (immediately or on
    // first use).
    let refused = match std::net::TcpStream::connect(addr) {
        Err(_) => true,
        Ok(mut stream) => write_frame(&mut stream, br#"{"v":2,"id":1,"op":"ping"}"#)
            .and_then(|()| read_frame(&mut stream))
            .map(|frame| frame.is_none())
            .unwrap_or(true),
    };
    assert!(refused, "server must stop serving after shutdown");
}
