//! The per-connection in-flight bound (`ServerConfig::max_inflight_per_conn`).
//!
//! Before the bound existed, a client pipelining thousands of requests made
//! the server queue every decoded frame as a `Job` — memory grew linearly
//! with however far the client raced ahead of the worker pool. With the
//! bound, the connection's reader thread stops reading frames at the cap, so
//! at most `cap` requests of a connection occupy server memory at once and
//! the excess stays in TCP flow control on the client side. The `stats` op's
//! `inflight_peak` counter is the observable: it is the high-water mark of
//! any connection's in-flight depth, recorded as each request other than a
//! `stats` probe starts on a worker.

use std::io::{BufReader, BufWriter};
use std::net::TcpStream;

use privmech_numerics::{rat, Rational};
use privmech_serve::client::Client;
use privmech_serve::frame::{read_frame, write_frame};
use privmech_serve::json::{self, Json};
use privmech_serve::proto::{ConsumerSpec, LossSpec, WireScalar};
use privmech_serve::server::{self, ServerConfig};

/// A tiny v2 sweep request (two α points at n = 2) with the given id.
fn sweep_frame(id: u64) -> String {
    let spec = ConsumerSpec::<Rational>::minimax(2, LossSpec::Absolute);
    let body = spec
        .encode_onto(
            Json::obj()
                .with("v", Json::num_u64(2))
                .with("id", Json::num_u64(id))
                .with("op", Json::str("sweep"))
                .with("scalar", Json::str("rational")),
        )
        .with(
            "alphas",
            Json::Arr(vec![rat(1, 4).to_wire(), rat(1, 2).to_wire()]),
        );
    json::to_string(&body)
}

#[test]
fn slow_consumer_pipelining_thousands_of_sweeps_is_bounded() {
    const CAP: usize = 8;
    const REQUESTS: usize = 2000;

    let handle = server::spawn(ServerConfig {
        max_inflight_per_conn: CAP,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = handle.addr();

    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let write_half = stream.try_clone().expect("clone");

    // The flooding half of a slow consumer: write every request up front,
    // reading nothing until the writes are done. Without the bound the
    // server would queue (almost) all of them; with it, the reader thread
    // stops draining the socket at CAP and the writes back up into TCP
    // flow control — which is why this must run on its own thread.
    let writer = std::thread::spawn(move || {
        let mut writer = BufWriter::new(write_half);
        for id in 1..=REQUESTS as u64 {
            write_frame(&mut writer, sweep_frame(id).as_bytes()).expect("write");
        }
        std::io::Write::flush(&mut writer).expect("flush");
    });

    // ...and the slow reading half: drain terminals until every sweep is
    // answered. Each sweep streams two `sweep_item` frames plus a terminal
    // `sweep_done`.
    let mut reader = BufReader::new(stream);
    let mut terminals = 0usize;
    let mut items = 0usize;
    while terminals < REQUESTS {
        let payload = read_frame(&mut reader)
            .expect("read")
            .expect("server closed early");
        let text = std::str::from_utf8(&payload).expect("utf8");
        assert!(
            !text.contains("\"ok\":false"),
            "unexpected error frame: {text}"
        );
        if text.contains("\"stream\":\"sweep_item\"") {
            items += 1;
        } else {
            assert!(text.contains("\"stream\":\"sweep_done\""), "frame: {text}");
            terminals += 1;
        }
    }
    writer.join().expect("writer thread");
    assert_eq!(terminals, REQUESTS);
    assert_eq!(items, REQUESTS * 2, "two streamed items per sweep");

    // The server-side evidence: the connection pipelined (depth beyond 1)
    // but never held more than CAP of its requests in memory at once.
    let mut probe = Client::connect(addr).expect("stats connection");
    let stats = probe.cache_stats().expect("stats");
    assert_eq!(stats.max_inflight, CAP as u64);
    assert!(
        stats.inflight_peak <= CAP as u64,
        "in-flight peak {} exceeded the cap {CAP}",
        stats.inflight_peak
    );
    assert!(
        stats.inflight_peak >= 2,
        "flooding {REQUESTS} requests never overlapped two in flight — \
         the gate is throttling far below its cap"
    );
    handle.shutdown();
}

#[test]
fn zero_cap_means_unbounded_and_stats_say_so() {
    let handle = server::spawn(ServerConfig {
        max_inflight_per_conn: 0,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.ping().expect("ping");
    let stats = client.cache_stats().expect("stats");
    assert_eq!(stats.max_inflight, 0, "0 encodes 'unbounded' on the wire");
    assert!(stats.inflight_peak >= 1, "the pings were admitted");
    handle.shutdown();
}

#[test]
fn an_idle_servers_first_stats_reads_a_zero_peak() {
    let handle = server::spawn(ServerConfig::default()).expect("bind loopback");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let stats = client.cache_stats().expect("stats");
    assert_eq!(stats.inflight_peak, 0, "the probe must not count itself");
    client.ping().expect("ping");
    let stats = client.cache_stats().expect("stats");
    assert!(stats.inflight_peak >= 1, "the ping was in flight");
    handle.shutdown();
}
