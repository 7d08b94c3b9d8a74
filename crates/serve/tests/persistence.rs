//! Server-level contracts of the PR 5 satellites, over real TCP:
//!
//! * **cross-process cache persistence** — a server started with
//!   `cache_file` dumps its sharded LRU on shutdown; a restarted server hits
//!   on a pre-restart key with byte-identical bytes (entries are portable by
//!   the bit-identity contract), including under `verify_hits`;
//! * **negative caching** — deterministic validation errors replay from
//!   their own cache with their own counters, leaving the solve hit rate
//!   untouched;
//! * **`metrics` op** — per-op latency histograms count every handled
//!   request.

use privmech_numerics::{rat, Rational};
use privmech_serve::client::{Client, ClientError};
use privmech_serve::json::{self, Json};
use privmech_serve::proto::{CacheDisposition, CacheMode, ConsumerSpec, LossSpec};
use privmech_serve::server::{self, ServerConfig};

fn tmp_cache_file(name: &str) -> std::path::PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "privmech-serve-{name}-{}.jsonl",
        std::process::id()
    ));
    path
}

#[test]
fn restarted_server_hits_on_a_pre_restart_key() {
    let path = tmp_cache_file("restart");
    let _ = std::fs::remove_file(&path);
    let config = ServerConfig {
        cache_file: Some(path.clone()),
        ..ServerConfig::default()
    };

    let spec = ConsumerSpec::<Rational>::minimax(3, LossSpec::Absolute);
    let alpha = rat(1, 4);
    let bad = ConsumerSpec::<Rational>::minimax(3, LossSpec::Absolute).with_support(vec![9]);

    // First server lifetime: populate both caches, then shut down (dump).
    let first_raw = {
        let handle = server::spawn(config.clone()).expect("bind loopback");
        let mut client = Client::connect(handle.addr()).expect("connect");
        let reply = client.solve(&spec, &alpha, CacheMode::Use).expect("solve");
        assert_eq!(reply.cache, CacheDisposition::Miss);
        let err = client.solve(&bad, &alpha, CacheMode::Use).unwrap_err();
        let ClientError::Server(e) = err else {
            panic!("expected a server error")
        };
        assert_eq!(e.code, "invalid_side_information");
        handle.shutdown();
        reply.raw
    };
    assert!(path.exists(), "shutdown must write the cache file");

    // Second lifetime: the very first identical request must be a hit, with
    // byte-identical bytes — asserted server-side too via verify_hits.
    {
        let handle = server::spawn(ServerConfig {
            verify_hits: true,
            ..config
        })
        .expect("bind loopback");
        let mut client = Client::connect(handle.addr()).expect("connect");
        let reply = client.solve(&spec, &alpha, CacheMode::Use).expect("solve");
        assert_eq!(
            reply.cache,
            CacheDisposition::Hit,
            "a restarted server must hit on a pre-restart key"
        );
        assert_eq!(reply.raw, first_raw, "persisted entry is byte-identical");
        // The negative entry survived too.
        let err = client.solve(&bad, &alpha, CacheMode::Use).unwrap_err();
        let ClientError::Server(e) = err else {
            panic!("expected a server error")
        };
        assert_eq!(e.code, "invalid_side_information");
        let stats = client.cache_stats().expect("stats");
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.neg_hits, 1, "negative entry replayed from the dump");
        handle.shutdown();
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn negative_cache_replays_validation_errors_with_its_own_counters() {
    let handle = server::spawn(ServerConfig::default()).expect("bind loopback");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let spec = ConsumerSpec::<Rational>::minimax(3, LossSpec::Absolute);

    let code_of = |err: ClientError| match err {
        ClientError::Server(e) => (e.code, e.message),
        other => panic!("expected a server error, got {other:?}"),
    };

    // α = 3/2 is a deterministic validation failure: first a neg miss, then
    // neg hits with the identical code and message.
    let first = code_of(client.solve(&spec, &rat(3, 2), CacheMode::Use).unwrap_err());
    assert_eq!(first.0, "invalid_alpha");
    for _ in 0..3 {
        let repeat = code_of(client.solve(&spec, &rat(3, 2), CacheMode::Use).unwrap_err());
        assert_eq!(repeat, first, "replayed error must be identical");
    }
    // A sweep with the same bad α in the batch is its own negative entry.
    let sweep_err = code_of(
        client
            .sweep(&spec, &[rat(1, 4), rat(3, 2)], CacheMode::Use)
            .unwrap_err(),
    );
    assert_eq!(sweep_err.0, "invalid_alpha");

    let stats = client.cache_stats().expect("stats");
    assert_eq!(stats.neg_hits, 3, "three replayed solve errors");
    assert_eq!(stats.neg_entries, 2, "one solve entry, one sweep entry");
    // The solve hit rate is untouched: no positive lookups ever hit.
    assert_eq!(stats.hits, 0);
    // Field-order noise does not split negative entries: the same bad
    // request with reordered JSON fields replays the same cached error.
    let reordered = Json::obj()
        .with("op", Json::str("solve"))
        .with("alpha", Json::str("3/2"))
        .with("loss", Json::str("absolute"))
        .with("n", Json::num_u64(3))
        .with("kind", Json::str("minimax"))
        .with("strategy", Json::str("factorization"))
        .with("scalar", Json::str("rational"));
    let err = client.call(reordered).unwrap_err();
    let ClientError::Server(e) = err else {
        panic!("expected a server error")
    };
    assert_eq!(e.code, "invalid_alpha");
    let stats = client.cache_stats().expect("stats");
    assert_eq!(stats.neg_hits, 4, "canonicalized key absorbed the reorder");

    // Bypass skips the negative cache exactly like the positive one.
    let _ = client
        .solve(&spec, &rat(3, 2), CacheMode::Bypass)
        .unwrap_err();
    assert_eq!(client.cache_stats().expect("stats").neg_hits, 4);
    handle.shutdown();
}

#[test]
fn compute_stage_errors_are_not_negatively_cached() {
    let handle = server::spawn(ServerConfig::default()).expect("bind loopback");
    let mut client = Client::connect(handle.addr()).expect("connect");
    // A schema-level failure (missing loss) is bad_request — not a
    // CoreError-mapped validation code, so it never enters the cache.
    for _ in 0..2 {
        let err = client
            .call(
                Json::obj()
                    .with("op", Json::str("solve"))
                    .with("n", Json::num_u64(3))
                    .with("alpha", Json::str("1/4")),
            )
            .unwrap_err();
        let ClientError::Server(e) = err else {
            panic!("expected a server error")
        };
        assert_eq!(e.code, "bad_request");
    }
    let stats = client.cache_stats().expect("stats");
    assert_eq!(stats.neg_entries, 0);
    assert_eq!(stats.neg_hits, 0);
    handle.shutdown();
}

#[test]
fn metrics_op_reports_per_op_latency_histograms() {
    let handle = server::spawn(ServerConfig::default()).expect("bind loopback");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let spec = ConsumerSpec::<Rational>::minimax(2, LossSpec::Absolute);
    client.ping().expect("ping");
    client.ping().expect("ping");
    let _ = client
        .solve(&spec, &rat(1, 3), CacheMode::Use)
        .expect("solve");
    let _ = client
        .solve(&spec, &rat(1, 3), CacheMode::Use)
        .expect("solve");
    let _ = client
        .sweep(&spec, &[rat(1, 4), rat(1, 2)], CacheMode::Use)
        .expect("sweep");

    let metrics = client.metrics().expect("metrics");
    let ops = metrics.get("ops").expect("ops object");
    let count_of = |op: &str| {
        ops.get(op)
            .and_then(|o| o.get("count"))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    assert_eq!(count_of("ping"), 2);
    assert_eq!(count_of("solve"), 2);
    assert_eq!(count_of("sweep"), 1);
    // Histograms carry bucketed latencies summing to the count.
    let solve = ops.get("solve").expect("solve histogram");
    let bucket_sum: u64 = solve
        .get("buckets")
        .and_then(Json::as_arr)
        .expect("buckets")
        .iter()
        .filter_map(|b| b.get("count").and_then(Json::as_u64))
        .sum();
    assert_eq!(bucket_sum, 2);
    assert!(
        solve.get("total_ns").and_then(Json::as_u64).unwrap_or(0) > 0,
        "solves take measurable time"
    );
    handle.shutdown();
}

/// One valid and one invalid request per compute op (two invalid ones for
/// `interact`: a bad mechanism and a bad consumer), then the dump's result
/// and error keys, compared byte for byte with the keys an earlier build
/// wrote for the same requests.
#[test]
fn persisted_cache_keys_are_pinned() {
    let path = tmp_cache_file("pinned-keys");
    let _ = std::fs::remove_file(&path);
    let config = ServerConfig {
        cache_file: Some(path.clone()),
        ..ServerConfig::default()
    };
    let handle = server::spawn(config).expect("bind loopback");
    let mut client = Client::connect(handle.addr()).expect("connect");
    for request in [
        r#"{"op":"solve","n":2,"loss":"absolute","alpha":"1/2"}"#,
        r#"{"op":"solve","n":2,"loss":"absolute","alpha":"3/2"}"#,
        r#"{"op":"solve","scalar":"f64","n":2,"loss":"absolute","alpha":0.25}"#,
        r#"{"op":"sweep","n":2,"loss":"absolute","alphas":["1/4","1/2"]}"#,
        r#"{"op":"sweep","n":2,"loss":"absolute","alphas":["1/4","3/2"]}"#,
        r#"{"op":"interact","n":2,"loss":"absolute","mechanism":[["1","0","0"],["0","1","0"],["0","0","1"]]}"#,
        r#"{"op":"interact","n":2,"loss":"absolute","mechanism":[["1","1","0"],["0","1","0"],["0","0","1"]]}"#,
        r#"{"op":"interact","n":2,"support":[9],"loss":"absolute","mechanism":[["1","0","0"],["0","1","0"],["0","0","1"]]}"#,
        r#"{"op":"zoo_table","query":{"kind":"count","n":2},"alpha":"1/2","consumers":[{"loss":"absolute"}]}"#,
        r#"{"op":"zoo_table","query":{"kind":"count","n":2},"alpha":"3/2","consumers":[{"loss":"absolute"}]}"#,
        r#"{"op":"zoo_eval","scenario":"ldp","protocol":"randomized_response","users":2,"alpha":"1/2","loss":"absolute"}"#,
        r#"{"op":"zoo_eval","scenario":"ldp","protocol":"randomized_response","users":2,"alpha":"3/2","loss":"absolute"}"#,
    ] {
        // Valid requests leave a result key, invalid ones an error key.
        let _ = client.call(json::parse(request).expect("JSON"));
    }
    handle.shutdown();

    let dump = std::fs::read_to_string(&path).expect("dump written");
    let _ = std::fs::remove_file(&path);
    let mut keys: Vec<String> = dump
        .lines()
        .map(|line| {
            let entry = json::parse(line).expect("JSON line");
            let field = |name| {
                entry
                    .get(name)
                    .and_then(Json::as_str)
                    .expect(name)
                    .to_string()
            };
            format!("{} {}", field("kind"), field("key"))
        })
        .collect();
    keys.sort();
    let expected = [
        r#"error neg|interact|rational|{"kind":"minimax","n":2,"loss":"absolute","strategy":"factorization"}|[["1","1","0"],["0","1","0"],["0","0","1"]]"#,
        r#"error neg|interact|rational|{"kind":"minimax","n":2,"support":[9],"loss":"absolute","strategy":"factorization"}|consumer"#,
        r#"error neg|solve|rational|{"kind":"minimax","n":2,"loss":"absolute","strategy":"factorization"}|"3/2""#,
        r#"error neg|sweep|rational|{"kind":"minimax","n":2,"loss":"absolute","strategy":"factorization"}|["1/4","3/2"]"#,
        r#"error neg|zoo_eval|rational|ldp;protocol=randomized_response;users=2;alpha="3/2";loss="absolute"|-"#,
        r#"error neg|zoo_table|rational|table;count;n=2;alpha="3/2";consumers=[{"loss":"absolute"}]|-"#,
        r#"result interact|rational|fp-v1;exact=true;n=2;alpha=0;strategy=factorization;pricing=dantzig-bland;streak=8;kind=minimax;S=0,1,2;loss=0,1,2|1,0,1|2,1,0|mech=[["1","0","0"],["0","1","0"],["0","0","1"]]"#,
        r#"result solve|f64|fp-v1;exact=false;n=2;alpha=0.25;strategy=factorization;pricing=dantzig-bland;streak=8;kind=minimax;S=0,1,2;loss=0,1,2|1,0,1|2,1,0"#,
        r#"result solve|rational|fp-v1;exact=true;n=2;alpha=1/2;strategy=factorization;pricing=dantzig-bland;streak=8;kind=minimax;S=0,1,2;loss=0,1,2|1,0,1|2,1,0"#,
        r#"result sweep|rational|fp-v1;exact=true;n=2;alpha=1/4;strategy=factorization;pricing=dantzig-bland;streak=8;kind=minimax;S=0,1,2;loss=0,1,2|1,0,1|2,1,0|levels=["1/4","1/2"]"#,
        r#"result zoo_eval|rational|zoo-v1;ldp;protocol=randomized_response;users=2;alpha="1/2";loss="absolute""#,
        r#"result zoo_table|rational|zoo-v1;table;count;n=2;alpha="1/2";consumers=[{"loss":"absolute"}]"#,
    ];
    assert_eq!(
        keys,
        expected,
        "persisted keys changed:\n{}",
        keys.join("\n")
    );
}
