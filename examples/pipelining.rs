//! Pipelining: protocol v2's tagged multi-in-flight requests and streaming
//! sweeps, end to end.
//!
//! One connection, many requests in flight: submit returns a `Ticket`,
//! completions arrive in whatever order the server's worker pool finishes
//! them, and a sweep streams one `sweep_item` frame per completed α instead
//! of one monolithic reply. The example asserts byte identity between the
//! streamed items and the blocking sweep reply for the same request.
//!
//! Run with: `cargo run --example pipelining`
//!
//! By default the example hosts an in-process server on an ephemeral
//! loopback port. Set `PRIVMECH_SERVE_ADDR=host:port` to drive an external
//! `privmech-serve` instance instead (this is what the CI smoke job does).

use std::time::Instant;

use privmech::numerics::{rat, Rational};
use privmech::serve::client::{Client, Event};
use privmech::serve::json;
use privmech::serve::proto::{CacheMode, ConsumerSpec, LossSpec};
use privmech::serve::server::{self, ServerConfig};

fn main() {
    // Host in-process unless pointed at an external server.
    let external = std::env::var("PRIVMECH_SERVE_ADDR").ok();
    let handle = if external.is_none() {
        let handle = server::spawn(ServerConfig::default()).expect("bind loopback");
        println!("hosting an in-process server on {}", handle.addr());
        Some(handle)
    } else {
        None
    };
    let addr = external
        .clone()
        .unwrap_or_else(|| handle.as_ref().unwrap().addr().to_string());
    let mut client = Client::connect(&*addr).expect("connect");
    println!("connected to {addr}");

    // Several consumers' solves in flight at once on ONE connection — the
    // replies are matched by ticket, not by arrival order.
    let government = ConsumerSpec::<Rational>::minimax(3, LossSpec::Absolute);
    let drug_company = ConsumerSpec::<Rational>::minimax(3, LossSpec::Squared);
    println!();
    println!("submitting 6 solves without waiting ...");
    let tickets: Vec<_> = (1..=3)
        .flat_map(|k| {
            let alpha = rat(k, 4);
            vec![
                client
                    .submit_solve(&government, &alpha, CacheMode::Use)
                    .expect("submit"),
                client
                    .submit_solve(&drug_company, &alpha, CacheMode::Use)
                    .expect("submit"),
            ]
        })
        .collect();
    // Wait for them in reverse order — completions for tickets we are not
    // yet asking about are buffered, never lost.
    for ticket in tickets.iter().rev() {
        let response = client.wait(*ticket).expect("wait");
        let loss = response
            .get("result")
            .and_then(|r| r.get("loss"))
            .map(json::to_string)
            .unwrap_or_default();
        println!("  ticket {:>2} -> loss {loss}", ticket.id());
    }

    // A streaming sweep: per-α results arrive as the worker pool finishes
    // them (completion order, tagged with the input index), so the first
    // result is usable long before the slowest α has solved.
    let alphas: Vec<Rational> = (1..=8).map(|k| rat(k, 9)).collect();
    println!();
    println!(
        "streaming a {}-α sweep (cache bypassed — really solving) ...",
        alphas.len()
    );
    let start = Instant::now();
    let mut items: Vec<Option<String>> = vec![None; alphas.len()];
    let mut first_at = None;
    let mut stream = client
        .sweep_stream(&government, &alphas, CacheMode::Bypass)
        .expect("stream");
    for item in stream.by_ref() {
        let item = item.expect("streamed item");
        first_at.get_or_insert_with(|| start.elapsed());
        println!(
            "  [{:>6.1?}] index {} (α = {}) loss {}",
            start.elapsed(),
            item.index,
            item.value.alpha,
            item.value.loss
        );
        items[item.index] = Some(item.raw);
    }
    let done = stream.done().expect("sweep_done");
    let total = start.elapsed();
    println!(
        "  sweep_done after {total:?} ({} items, {:?} cache) — first item at {:?}",
        done.count,
        done.cache,
        first_at.expect("at least one item")
    );

    // The contract this redesign lives by: the streamed items, reassembled
    // in input order, are byte-identical to the monolithic blocking reply
    // (computed afresh through the cache, since the stream bypassed it).
    let blocking = client
        .sweep(&government, &alphas, CacheMode::Use)
        .expect("sweep");
    let reassembled = format!(
        "{{\"solves\":[{}]}}",
        items
            .into_iter()
            .map(|s| s.expect("every index streamed"))
            .collect::<Vec<_>>()
            .join(",")
    );
    assert_eq!(
        reassembled, blocking.raw,
        "streamed ≡ monolithic, byte for byte"
    );
    println!("  streamed ≡ monolithic: byte-identical (asserted)");

    // Mixed in-flight traffic: a sweep and solves interleaved on the wire,
    // drained by recv() in completion order.
    println!();
    println!("interleaving a sweep with 4 more solves ...");
    let sweep_ticket = client
        .submit_sweep(&government, &alphas, CacheMode::Use)
        .expect("submit sweep");
    let solve_tickets: Vec<_> = (1..=4)
        .map(|k| {
            client
                .submit_solve(&government, &rat(k, 9), CacheMode::Use)
                .expect("submit solve")
        })
        .collect();
    let mut open = 1 + solve_tickets.len();
    let mut sweep_items = 0usize;
    while open > 0 {
        match client.recv().expect("recv") {
            Event::Reply { ticket, .. } => {
                println!("  solve ticket {:>2} completed", ticket.id());
                open -= 1;
            }
            Event::SweepItem { ticket, index, .. } => {
                assert_eq!(ticket, sweep_ticket);
                sweep_items += 1;
                println!("  sweep item {index} arrived (interleaved)");
            }
            Event::SweepDone { ticket, .. } => {
                assert_eq!(ticket, sweep_ticket);
                println!("  sweep done ({sweep_items} items)");
                open -= 1;
            }
            Event::Error { error, .. } => panic!("request failed: {error}"),
        }
    }
    assert_eq!(sweep_items, alphas.len());

    if let Some(handle) = handle {
        handle.shutdown();
        println!("in-process server stopped");
    }
    println!("ok");
}
