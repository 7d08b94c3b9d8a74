//! Fault injection for the fleet tier: shard processes die (and come back)
//! under a live router, and the blast radius must be exactly the dead
//! shard's keyspace.
//!
//! Topology per test: real `privmech-serve` child processes as shards, an
//! in-process [`router`] in front. The ring ownership oracle is public —
//! [`ShardRing`] + [`routing_key`] — so tests *derive* which shard owns a
//! request and then aim traffic at (or away from) the victim:
//!
//! * routed replies are byte-identical to asking the owning shard directly,
//! * killing a shard mid-pipeline — including mid-`sweep_item`-stream —
//!   terminates only that shard's requests with `shard_unavailable`, while
//!   the surviving shard's replies stay byte-identical,
//! * a restarted shard (fresh ephemeral port, same `--cache-file`) is
//!   re-admitted via [`RouterHandle::update_shard`] and serves cache *hits*
//!   for keys it solved before dying,
//! * a router stopped mid-request — by its handle or by a wire `shutdown`
//!   on another connection — still delivers the replies already in flight.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use privmech_numerics::{rat, Rational};
use privmech_serve::frame::{read_frame, write_frame};
use privmech_serve::json::{self, Json};
use privmech_serve::proto::{routing_key, ConsumerSpec, LossSpec, WireScalar};
use privmech_serve::ring::ShardRing;
use privmech_serve::router::{self, RouterConfig};
use privmech_serve::server::{self, ServerConfig};

/// A `privmech-serve` child process and the address it bound.
struct Shard {
    child: Child,
    addr: String,
}

impl Shard {
    /// Spawn a shard with extra CLI flags, parsing the banner for the port.
    fn spawn(extra: &[&str]) -> Shard {
        let mut child = Command::new(env!("CARGO_BIN_EXE_privmech-serve"))
            .args(["--addr", "127.0.0.1:0"])
            .args(extra)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn privmech-serve");
        let stdout = child.stdout.take().expect("child stdout is piped");
        let mut lines = BufReader::new(stdout).lines();
        let banner = lines.next().expect("shard banner").expect("read banner");
        let addr = banner
            .strip_prefix("privmech-serve listening on ")
            .unwrap_or_else(|| panic!("unexpected shard banner: {banner}"))
            .to_string();
        // Keep draining stdout so the child can never block on a full pipe.
        std::thread::spawn(move || lines.for_each(drop));
        Shard { child, addr }
    }

    /// SIGKILL — the crash case. No shutdown handshake, no cache dump.
    fn kill(&mut self) {
        self.child.kill().expect("kill shard");
        self.child.wait().expect("reap shard");
    }
}

/// One length-prefixed request/response exchange on `stream`.
fn rpc(stream: &TcpStream, body: &Json) -> Vec<u8> {
    let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
    write_frame(&mut writer, json::to_string(body).as_bytes()).expect("write");
    writer.flush().expect("flush");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    read_frame(&mut reader)
        .expect("read")
        .expect("reply before EOF")
}

fn connect(addr: &str) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
}

/// Graceful shard shutdown: the path that dumps `--cache-file`.
fn stop_gracefully(shard: &mut Shard) {
    let stream = connect(&shard.addr);
    let reply = rpc(
        &stream,
        &Json::obj()
            .with("v", Json::num_u64(2))
            .with("id", Json::num_u64(0))
            .with("op", Json::str("shutdown")),
    );
    assert!(
        parse(&reply).get("result").is_some(),
        "shutdown not acknowledged"
    );
    shard.child.wait().expect("reap shard");
}

fn parse(reply: &[u8]) -> Json {
    json::parse(std::str::from_utf8(reply).expect("UTF-8 reply")).expect("JSON reply")
}

fn error_code(reply: &[u8]) -> Option<String> {
    let parsed = parse(reply);
    Some(parsed.get("error")?.get("code")?.as_str()?.to_string())
}

fn cache_disposition(reply: &[u8]) -> Option<String> {
    Some(parse(reply).get("cache")?.as_str()?.to_string())
}

/// A v2 solve body (n = 3, absolute loss); `cache` chooses use vs bypass.
fn solve_body(id: u64, alpha: &Rational, cache: &str) -> Json {
    ConsumerSpec::<Rational>::minimax(3, LossSpec::Absolute)
        .encode_onto(
            Json::obj()
                .with("v", Json::num_u64(2))
                .with("id", Json::num_u64(id))
                .with("op", Json::str("solve"))
                .with("cache", Json::str(cache)),
        )
        .with("alpha", alpha.to_wire())
}

/// A slow v2 bypass sweep: 12 α points at n = 8 stream for a long time
/// relative to a `kill()`, so a mid-stream crash lands deterministically.
fn slow_sweep_body(id: u64) -> Json {
    let alphas: Vec<Json> = (2..14).map(|d| rat(1, d).to_wire()).collect();
    ConsumerSpec::<Rational>::minimax(8, LossSpec::Absolute)
        .encode_onto(
            Json::obj()
                .with("v", Json::num_u64(2))
                .with("id", Json::num_u64(id))
                .with("op", Json::str("sweep"))
                .with("cache", Json::str("bypass")),
        )
        .with("alphas", Json::Arr(alphas))
}

/// The shard index owning `body` under the router's default ring.
fn owner(ring: &ShardRing, body: &Json) -> usize {
    ring.shard_for(&routing_key(body).expect("compute requests have routing keys"))
}

/// An α whose solve (at n = 3) the given shard owns.
fn alpha_owned_by(ring: &ShardRing, shard: usize) -> Rational {
    (2..1000)
        .map(|d| rat(1, d))
        .find(|alpha| owner(ring, &solve_body(0, alpha, "use")) == shard)
        .expect("some alpha in 1/2..1/999 hashes to every shard")
}

#[test]
fn routed_replies_are_byte_identical_to_the_owning_shard() {
    let shards = [Shard::spawn(&[]), Shard::spawn(&[])];
    let handle = router::spawn(RouterConfig::new(
        shards.iter().map(|s| s.addr.clone()).collect(),
    ))
    .expect("spawn router");
    let ring = ShardRing::with_default_vnodes(2);

    let routed = connect(&handle.addr().to_string());
    for (id, d) in (2..10).enumerate() {
        // Bypass pins the disposition, so the full envelope must match.
        let body = solve_body(id as u64, &rat(1, d), "bypass");
        let via_router = rpc(&routed, &body);
        let direct = rpc(&connect(&shards[owner(&ring, &body)].addr), &body);
        assert_eq!(
            via_router, direct,
            "routed reply for alpha 1/{d} diverged from the owning shard"
        );
    }

    // Validation errors route and relay the same way: α ≥ 1 is rejected by
    // the shard, and the router must pass the rejection through untouched.
    let bad = solve_body(99, &rat(3, 2), "bypass");
    let via_router = rpc(&routed, &bad);
    let direct = rpc(&connect(&shards[owner(&ring, &bad)].addr), &bad);
    assert_eq!(via_router, direct);
    assert_eq!(
        parse(&via_router).get("ok").and_then(Json::as_bool),
        Some(false)
    );

    // Frames rejected before any op is read — a retired major, a missing
    // id — are answered by the router's own gate with the shard's bytes.
    for body in [
        Json::obj()
            .with("v", Json::num_u64(1))
            .with("id", Json::num_u64(3))
            .with("op", Json::str("ping")),
        Json::obj()
            .with("v", Json::num_u64(2))
            .with("op", Json::str("ping")),
    ] {
        assert_eq!(rpc(&routed, &body), rpc(&connect(&shards[0].addr), &body));
    }

    // Routing is consistent: the same key goes to the same shard, so a
    // cached re-ask through the router hits that shard's warm cache.
    let alpha = alpha_owned_by(&ring, 0);
    let first = rpc(&routed, &solve_body(200, &alpha, "use"));
    let second = rpc(&routed, &solve_body(201, &alpha, "use"));
    assert_eq!(cache_disposition(&first).as_deref(), Some("miss"));
    assert_eq!(cache_disposition(&second).as_deref(), Some("hit"));

    handle.shutdown();
    for mut shard in shards {
        shard.kill();
    }
}

#[test]
fn killing_a_shard_mid_stream_fails_only_its_keys() {
    let mut shards = [Shard::spawn(&[]), Shard::spawn(&[])];
    let handle = router::spawn(RouterConfig::new(
        shards.iter().map(|s| s.addr.clone()).collect(),
    ))
    .expect("spawn router");
    let ring = ShardRing::with_default_vnodes(2);

    // The victim is whichever shard owns the slow sweep; the survivor gets
    // the control traffic.
    let sweep = slow_sweep_body(77);
    let victim = owner(&ring, &sweep);
    let survivor = 1 - victim;
    let survivor_alpha = alpha_owned_by(&ring, survivor);

    // Warm the survivor through the router before the fault.
    let control = connect(&handle.addr().to_string());
    let warm = rpc(&control, &solve_body(1, &survivor_alpha, "use"));
    assert_eq!(cache_disposition(&warm).as_deref(), Some("miss"));

    // Start the sweep, wait for the first streamed item, then crash the
    // victim with ~10 α solves still to stream.
    let streaming = connect(&handle.addr().to_string());
    let mut writer = BufWriter::new(streaming.try_clone().expect("clone"));
    write_frame(&mut writer, json::to_string(&sweep).as_bytes()).expect("write sweep");
    writer.flush().expect("flush sweep");
    let mut reader = BufReader::new(streaming.try_clone().expect("clone"));
    let first = read_frame(&mut reader)
        .expect("read")
        .expect("first stream frame");
    assert_eq!(
        parse(&first).get("stream").and_then(Json::as_str),
        Some("sweep_item"),
        "expected the stream to open with a sweep_item"
    );
    shards[victim].kill();

    // The stream must end with a terminal shard_unavailable for the sweep's
    // id — not hang, not pretend the sweep completed.
    let mut items = 1usize;
    let terminal = loop {
        let frame = read_frame(&mut reader)
            .expect("read")
            .expect("stream frame");
        if parse(&frame).get("stream").and_then(Json::as_str) == Some("sweep_item") {
            items += 1;
            continue;
        }
        break frame;
    };
    assert!(items < 12, "the kill landed after the whole sweep streamed");
    let terminal = parse(&terminal);
    assert_eq!(terminal.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(terminal.get("id").and_then(Json::as_u64), Some(77));
    assert_eq!(
        terminal
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("shard_unavailable")
    );

    // New requests for the dead shard's keys fail fast with the same code
    // (cooldown) — and keep failing across the reconnect attempt after it.
    let victim_alpha = alpha_owned_by(&ring, victim);
    let refused = rpc(&control, &solve_body(2, &victim_alpha, "use"));
    assert_eq!(error_code(&refused).as_deref(), Some("shard_unavailable"));
    std::thread::sleep(Duration::from_millis(300));
    let refused = rpc(&control, &solve_body(3, &victim_alpha, "use"));
    assert_eq!(error_code(&refused).as_deref(), Some("shard_unavailable"));

    // The survivor is untouched: cache still warm, bytes still identical to
    // asking it directly.
    let hit = rpc(&control, &solve_body(4, &survivor_alpha, "use"));
    assert_eq!(cache_disposition(&hit).as_deref(), Some("hit"));
    let probe = solve_body(5, &survivor_alpha, "bypass");
    assert_eq!(
        rpc(&control, &probe),
        rpc(&connect(&shards[survivor].addr), &probe)
    );

    handle.shutdown();
    shards[survivor].kill();
}

#[test]
fn restarted_shard_rejoins_with_its_cache_warm() {
    let cache_file = std::env::temp_dir().join(format!(
        "privmech-fleet-faults-{}.cache",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&cache_file);
    let cache_flag = cache_file.to_str().expect("temp path is UTF-8").to_string();

    let mut shards = vec![
        Shard::spawn(&["--cache-file", &cache_flag]),
        Shard::spawn(&[]),
    ];
    let handle = router::spawn(RouterConfig::new(
        shards.iter().map(|s| s.addr.clone()).collect(),
    ))
    .expect("spawn router");
    let ring = ShardRing::with_default_vnodes(2);
    let alpha = alpha_owned_by(&ring, 0);

    // Populate shard 0's cache through the router, then stop it gracefully
    // (the path that persists the cache to disk).
    let control = connect(&handle.addr().to_string());
    assert_eq!(
        cache_disposition(&rpc(&control, &solve_body(1, &alpha, "use"))).as_deref(),
        Some("miss")
    );
    assert_eq!(
        cache_disposition(&rpc(&control, &solve_body(2, &alpha, "use"))).as_deref(),
        Some("hit")
    );
    stop_gracefully(&mut shards[0]);
    assert!(
        cache_file.exists(),
        "graceful shutdown must dump the cache file"
    );

    // While shard 0 is down its keys are unavailable...
    let refused = rpc(&control, &solve_body(3, &alpha, "use"));
    assert_eq!(error_code(&refused).as_deref(), Some("shard_unavailable"));

    // ...until a replacement process (fresh port, same cache file) is
    // re-admitted. Ring ownership hashed the *index*, so the restarted
    // shard owns exactly its old keyspace — and its first request is
    // already a cache hit, loaded from the dump.
    shards[0] = Shard::spawn(&["--cache-file", &cache_flag]);
    handle.update_shard(0, shards[0].addr.clone());
    std::thread::sleep(Duration::from_millis(400)); // let the cooldown lapse
    let revived = rpc(&control, &solve_body(4, &alpha, "use"));
    assert_eq!(
        cache_disposition(&revived).as_deref(),
        Some("hit"),
        "restarted shard should have loaded its dumped cache: {:?}",
        String::from_utf8_lossy(&revived)
    );

    // A client-initiated shutdown through the router broadcasts to every
    // shard: both children exit without being killed.
    let reply = rpc(
        &control,
        &Json::obj()
            .with("v", Json::num_u64(2))
            .with("id", Json::num_u64(9))
            .with("op", Json::str("shutdown")),
    );
    assert!(parse(&reply).get("result").is_some());
    handle.join();
    for shard in &mut shards {
        let status = shard.child.wait().expect("reap shard");
        assert!(
            status.success(),
            "shard did not exit cleanly after broadcast shutdown"
        );
    }
    let _ = std::fs::remove_file(&cache_file);
}

/// An exact solve slow enough (n = 11, α = 5/9: about a quarter second in a
/// debug build) to still be computing when the router is stopped.
fn slow_solve_body(id: u64) -> Json {
    ConsumerSpec::<Rational>::minimax(11, LossSpec::Absolute)
        .encode_onto(
            Json::obj()
                .with("v", Json::num_u64(2))
                .with("id", Json::num_u64(id))
                .with("op", Json::str("solve"))
                .with("cache", Json::str("use")),
        )
        .with("alpha", rat(5, 9).to_wire())
}

/// An in-process shard with a spare worker, so `stats` probes are answered
/// while the slow solve computes.
fn in_process_shard() -> server::ServerHandle {
    server::spawn(ServerConfig {
        worker_threads: 2,
        ..ServerConfig::default()
    })
    .expect("spawn server")
}

/// Send the slow solve through the router and return once the shard has
/// started computing it: its cache miss is counted right before the solve
/// runs. (`inflight_peak` turns 1 a step earlier, when a worker picks the
/// solve up, before its cache lookup.)
fn start_slow_solve(router_addr: &str, shard_addr: &str) -> TcpStream {
    let client = connect(router_addr);
    let mut writer = BufWriter::new(client.try_clone().expect("clone"));
    write_frame(&mut writer, json::to_string(&slow_solve_body(5)).as_bytes()).expect("write");
    writer.flush().expect("flush");
    let probe = connect(shard_addr);
    for id in 0..10_000 {
        let stats = parse(&rpc(
            &probe,
            &Json::obj()
                .with("v", Json::num_u64(2))
                .with("id", Json::num_u64(id))
                .with("op", Json::str("stats")),
        ));
        let misses = stats.get("result").and_then(|r| r.get("misses"));
        if misses.and_then(Json::as_u64) >= Some(1) {
            return client;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("the slow solve never reached the shard");
}

/// The client must read the solve's full reply frame, not EOF.
fn assert_solve_delivered(client: &TcpStream) {
    let mut reader = BufReader::new(client.try_clone().expect("clone"));
    let reply = read_frame(&mut reader)
        .expect("read")
        .expect("the in-flight reply, not EOF");
    let reply = parse(&reply);
    assert_eq!(reply.get("id").and_then(Json::as_u64), Some(5));
    assert!(
        reply
            .get("result")
            .and_then(|r| r.get("mechanism"))
            .is_some(),
        "expected the solve's result: {}",
        json::to_string(&reply)
    );
}

#[test]
fn router_stop_delivers_in_flight_replies() {
    let shard = in_process_shard();
    let handle =
        router::spawn(RouterConfig::new(vec![shard.addr().to_string()])).expect("spawn router");
    let client = start_slow_solve(&handle.addr().to_string(), &shard.addr().to_string());
    handle.shutdown();
    assert_solve_delivered(&client);
    shard.shutdown();
}

#[test]
fn router_shutdown_op_keeps_other_connections_in_flight_replies() {
    let shard = in_process_shard();
    let handle =
        router::spawn(RouterConfig::new(vec![shard.addr().to_string()])).expect("spawn router");
    let router_addr = handle.addr().to_string();
    let client = start_slow_solve(&router_addr, &shard.addr().to_string());
    let reply = rpc(
        &connect(&router_addr),
        &Json::obj()
            .with("v", Json::num_u64(2))
            .with("id", Json::num_u64(9))
            .with("op", Json::str("shutdown")),
    );
    assert!(parse(&reply).get("result").is_some());
    assert_solve_delivered(&client);
    handle.join();
    shard.join();
}
