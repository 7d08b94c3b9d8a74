//! Cache contracts: exact LRU eviction order, counter accounting (per
//! lookup, and one lookup per cache-using request on a server), and
//! hit/miss consistency under concurrent access.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use privmech_numerics::{rat, Rational};
use privmech_serve::cache::ShardedCache;
use privmech_serve::client::Client;
use privmech_serve::json::{self, Json};
use privmech_serve::proto::{
    routing_key, CacheDisposition, CacheMode, ConsumerSpec, LossSpec, WireScalar,
};
use privmech_serve::server::{self, ServerConfig};

#[test]
fn lru_eviction_follows_use_order_not_insertion_order() {
    let cache: ShardedCache<String> = ShardedCache::new(4, 1);
    for key in ["a", "b", "c", "d"] {
        cache.insert(key, key.to_uppercase());
    }
    // Use order (oldest use first) is now a, b, c, d. Touch a and b so the
    // victims become c, then d.
    assert!(cache.get("a").is_some());
    assert!(cache.get("b").is_some());
    cache.insert("e", "E".to_string());
    cache.insert("f", "F".to_string());
    assert_eq!(cache.get("c"), None, "c was least recently used");
    assert_eq!(cache.get("d"), None, "d was next");
    for key in ["a", "b", "e", "f"] {
        assert!(cache.get(key).is_some(), "{key} must survive");
    }
    assert_eq!(cache.stats().evictions, 2);
}

#[test]
fn counters_account_for_every_lookup() {
    // Per-shard capacity 64: even if every key landed in one shard, nothing
    // would evict, so the counter assertions below are deterministic.
    let cache: ShardedCache<u64> = ShardedCache::new(256, 4);
    let mut expected_hits = 0;
    let mut expected_misses = 0;
    for round in 0..3u64 {
        for k in 0..20u64 {
            match cache.get(&format!("key-{k}")) {
                Some(v) => {
                    assert_eq!(v, k, "cached value must be the inserted one");
                    expected_hits += 1;
                }
                None => {
                    expected_misses += 1;
                    cache.insert(&format!("key-{k}"), k);
                }
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.hits, expected_hits, "round {round}");
        assert_eq!(stats.misses, expected_misses, "round {round}");
        assert_eq!(stats.evictions, 0, "20 keys can never overflow a shard");
    }
    // First round all misses, later rounds all hits.
    assert_eq!(expected_misses, 20);
    assert_eq!(expected_hits, 40);
}

/// Hammer one cache from many threads: every hit must return exactly the
/// value some thread inserted for that key (values are keyed functions, so
/// any interleaving of insert/get must stay consistent), and the global
/// counters must account for exactly every lookup.
#[test]
fn concurrent_hits_and_misses_stay_consistent() {
    // Per-shard capacity 64 ≥ total distinct keys: eviction-free by
    // construction regardless of how keys hash across shards.
    let cache: Arc<ShardedCache<u64>> = Arc::new(ShardedCache::new(512, 8));
    let lookups = Arc::new(AtomicU64::new(0));
    let threads = 8;
    let per_thread = 2_000u64;
    let keys = 64u64; // far fewer keys than lookups: plenty of contention
    std::thread::scope(|scope| {
        for t in 0..threads {
            let cache = Arc::clone(&cache);
            let lookups = Arc::clone(&lookups);
            scope.spawn(move || {
                // Thread-local xorshift so threads interleave differently.
                let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ (t as u64 + 1);
                for _ in 0..per_thread {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let k = state % keys;
                    let key = format!("item-{k}");
                    lookups.fetch_add(1, Ordering::Relaxed);
                    match cache.get(&key) {
                        Some(v) => assert_eq!(v, k * k, "corrupted value for {key}"),
                        None => cache.insert(&key, k * k),
                    }
                }
            });
        }
    });
    let stats = cache.stats();
    assert_eq!(
        stats.hits + stats.misses,
        lookups.load(Ordering::Relaxed),
        "every lookup is either a hit or a miss"
    );
    assert_eq!(stats.evictions, 0, "64 keys can never overflow a shard");
    assert!(stats.entries <= keys as usize);
    // With 16k lookups over 64 keys, the steady state is all-hits.
    assert!(stats.hits > stats.misses, "cache must actually serve hits");
    for k in 0..keys {
        assert_eq!(cache.get(&format!("item-{k}")), Some(k * k));
    }
}

/// Concurrent writers under heavy eviction pressure: the cache must stay
/// internally consistent (no panics, no cross-wired values) even when every
/// insert evicts.
#[test]
fn concurrent_eviction_pressure_keeps_values_keyed() {
    let cache: Arc<ShardedCache<String>> = Arc::new(ShardedCache::new(8, 2));
    std::thread::scope(|scope| {
        for t in 0..4 {
            let cache = Arc::clone(&cache);
            scope.spawn(move || {
                for i in 0..1_000u64 {
                    let k = (t as u64) * 1_000 + i;
                    let key = format!("k{k}");
                    cache.insert(&key, format!("v{k}"));
                    if let Some(v) = cache.get(&key) {
                        assert_eq!(v, format!("v{k}"));
                    }
                }
            });
        }
    });
    let stats = cache.stats();
    assert!(stats.entries <= 8);
    assert!(stats.evictions >= 4_000 - 8, "almost every insert evicted");
}

/// A sweep repeated after another request evicted both its response and
/// its key-memo entry counts one miss, not two: `hits + misses` equals the
/// number of cache-using requests.
#[test]
fn a_sweep_repeated_after_memo_eviction_counts_one_miss() {
    // One single-entry shard, for the response cache and the key memo
    // alike: the interact's response and memo entry evict the sweep's, so
    // the repeated sweep takes the memo-miss path (validate, then one
    // response-cache lookup) and finds an empty cache.
    let handle = server::spawn(ServerConfig {
        cache_capacity: 1,
        cache_shards: 1,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let spec = ConsumerSpec::<Rational>::minimax(2, LossSpec::Absolute);
    let alphas = [rat(1, 4), rat(1, 2)];

    let first = client.sweep(&spec, &alphas, CacheMode::Use).expect("sweep");
    assert_eq!(first.cache, CacheDisposition::Miss);
    let identity: Vec<Vec<Rational>> = (0..3)
        .map(|i| (0..3).map(|j| rat(i64::from(i == j), 1)).collect())
        .collect();
    let interact = client
        .interact(&spec, &identity, CacheMode::Use)
        .expect("interact");
    assert_eq!(interact.cache, CacheDisposition::Miss);
    let again = client.sweep(&spec, &alphas, CacheMode::Use).expect("sweep");
    assert_eq!(again.cache, CacheDisposition::Miss);
    assert_eq!(again.raw, first.raw);

    let stats = handle.cache_stats();
    assert_eq!(stats.hits, 0, "{stats:?}");
    assert_eq!(
        stats.misses, 3,
        "one lookup per cache-using request: {stats:?}"
    );
    handle.shutdown();
}

/// Every field of a live server's `stats` result reaches the typed client's
/// `CacheStatsReply` under its own name. The reply's `Debug` form lists the
/// struct's fields, so the comparison needs no third copy of the list.
#[test]
fn every_stats_field_reaches_the_typed_client() {
    let handle = server::spawn(ServerConfig {
        cache_capacity: 2,
        cache_shards: 1,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let mut client = Client::connect(handle.addr()).expect("connect");
    // Traffic that sets the counters apart: misses, evictions, a hit, and
    // one rejected request three times (a negative miss, then two hits).
    let solve =
        |alpha: &str| format!(r#"{{"op":"solve","n":2,"loss":"absolute","alpha":"{alpha}"}}"#);
    for alpha in ["1/2", "1/3", "1/4", "1/2", "1/4", "3/2", "3/2", "3/2"] {
        // The rejected request's error reply is part of the traffic.
        let _ = client.call(json::parse(&solve(alpha)).expect("JSON"));
    }
    let reply = client
        .call(Json::obj().with("op", Json::str("stats")))
        .expect("stats");
    let Some(Json::Obj(wire)) = reply.get("result") else {
        panic!("stats result is not an object: {reply:?}");
    };
    let mut wire: Vec<(String, u64)> = wire
        .iter()
        .map(|(name, value)| (name.clone(), value.as_u64().expect("counter")))
        .collect();
    let typed = format!("{:?}", client.cache_stats().expect("stats"));
    let fields = typed
        .strip_prefix("CacheStatsReply { ")
        .and_then(|rest| rest.strip_suffix(" }"))
        .expect("derived Debug form");
    let mut typed: Vec<(String, u64)> = fields
        .split(", ")
        .map(|field| {
            let (name, value) = field.split_once(": ").expect("name: value");
            (name.to_string(), value.parse().expect("counter"))
        })
        .collect();
    wire.sort();
    typed.sort();
    assert_eq!(typed, wire);
    handle.shutdown();
}

/// Every compute op goes through the key memo: a repeated `interact` or
/// `zoo_table` request finds its response-cache key there, so it hits
/// without re-validating and without probing the negative cache.
#[test]
fn memoized_interact_and_zoo_repeats_skip_the_negative_cache() {
    let handle = server::spawn(ServerConfig::default()).expect("bind loopback");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let mut neg_misses = Vec::new();
    for expected in ["miss", "hit"] {
        for request in [
            r#"{"op":"interact","n":2,"loss":"absolute","mechanism":[["1","0","0"],["0","1","0"],["0","0","1"]]}"#,
            r#"{"op":"zoo_table","query":{"kind":"count","n":2},"alpha":"1/2","consumers":[{"loss":"absolute"}]}"#,
        ] {
            let reply = client
                .call(json::parse(request).expect("JSON"))
                .expect("reply");
            assert_eq!(reply.get("cache").and_then(Json::as_str), Some(expected));
        }
        neg_misses.push(client.cache_stats().expect("stats").neg_misses);
    }
    assert_eq!(client.cache_stats().expect("stats").hits, 2);
    assert_eq!(
        neg_misses[1], neg_misses[0],
        "memoized repeats make no negative-cache probe"
    );
    handle.shutdown();
}

/// A repeat whose key-memo entry survived but whose response was evicted
/// recomputes with one response-cache miss and no negative-cache probe: its
/// spelling validated before. The memo is keyed by the routing key, so the
/// test can place the entries: single-entry shards, and a solve whose
/// response shares the sweep's response shard while its memo entry does
/// not. (Three shards: with two, FNV-1a's low bit is the parity of the
/// key's odd bytes, which ties the two placements together.)
#[test]
fn a_memoized_repeat_after_eviction_recomputes_without_a_negative_probe() {
    let spec = ConsumerSpec::<Rational>::minimax(2, LossSpec::Absolute);
    let alphas = [rat(1, 4), rat(1, 2)];
    let memo_shard = |op: &str, field: &str, payload: Json| {
        let request = spec.encode_onto(Json::obj().with("op", Json::str(op)));
        let key = routing_key(&request.with(field, payload)).expect("compute key");
        ShardedCache::<()>::new(3, 3).shard_index(&key)
    };
    let response_shard = |op: &str, alpha: &Rational, levels: &str| {
        let validated = spec.to_request(alpha.clone()).expect("valid request");
        let fingerprint = validated.fingerprint();
        let key = format!("{op}|rational|{}{levels}", fingerprint.canonical());
        ShardedCache::<()>::new(3, 3).shard_index(&key)
    };
    let sweep_alphas = Json::Arr(alphas.iter().map(WireScalar::to_wire).collect());
    let sweep_memo = memo_shard("sweep", "alphas", sweep_alphas);
    let sweep_response = response_shard("sweep", &alphas[0], "|levels=[\"1/4\",\"1/2\"]");
    let alpha = (3..200)
        .map(|k| rat(1, k))
        .find(|alpha| {
            memo_shard("solve", "alpha", alpha.to_wire()) != sweep_memo
                && response_shard("solve", alpha, "") == sweep_response
        })
        .expect("some level places its entries as needed");

    let config = ServerConfig {
        cache_capacity: 3,
        cache_shards: 3,
        ..ServerConfig::default()
    };
    let handle = server::spawn(config).expect("bind loopback");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let first = client.sweep(&spec, &alphas, CacheMode::Use).expect("sweep");
    client.solve(&spec, &alpha, CacheMode::Use).expect("solve");
    let before = client.cache_stats().expect("stats");
    assert_eq!(before.evictions, 1, "the solve evicted the sweep");
    let again = client.sweep(&spec, &alphas, CacheMode::Use).expect("sweep");
    assert_eq!(again.raw, first.raw);
    let stats = client.cache_stats().expect("stats");
    assert_eq!((stats.hits, stats.misses), (0, 3), "{stats:?}");
    assert_eq!(stats.neg_misses, before.neg_misses, "{stats:?}");
    handle.shutdown();
}
