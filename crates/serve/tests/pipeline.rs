//! Pipelining contracts, driven through a real TCP server: **N interleaved
//! in-flight requests — mixed solve/sweep/interact, both scalar backends,
//! valid and invalid — return byte-identical results to serial
//! request/response (one request in flight) and to an in-process rendering
//! of the same ops**, including under cache-eviction pressure (tiny cache)
//! and out-of-order completion (several workers, shuffled waits).
//!
//! The serial pass runs first, so the pipelined pass sees a mix of cache
//! hits, misses (evicted under pressure) and negative-cache hits — byte
//! identity must hold through all of them; that is exactly the cached ≡
//! uncached contract. The in-process rendering calls the engine and the
//! public renderers directly, so it is independent of the server's cache,
//! key memo and stream assembly.

use std::collections::HashMap;

use privmech_core::{Mechanism, PrivacyEngine, PrivacyLevel};
use privmech_numerics::{rat, Rational};
use privmech_serve::client::{Client, ClientError, Event};
use privmech_serve::json;
use privmech_serve::proto::{
    assemble_solves, render_interaction, render_solve, CacheMode, ConsumerSpec, LossSpec,
    WireError, WireScalar,
};
use privmech_serve::server::{self, ServerConfig};
use proptest::strategy::Strategy;
use proptest::test_runner::TestRng;

/// One generated operation of the mixed workload.
#[derive(Debug, Clone)]
enum Op {
    /// `alpha_num / 7`; values above 7 are deliberately invalid (α > 1).
    Solve {
        n: usize,
        loss: usize,
        alpha_num: usize,
    },
    Sweep {
        n: usize,
        loss: usize,
        alpha_nums: Vec<usize>,
    },
    Interact {
        n: usize,
        loss: usize,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    use proptest::prelude::*;
    prop_oneof![
        (2usize..=3, 0usize..4, 1usize..=9).prop_map(|(n, loss, alpha_num)| Op::Solve {
            n,
            loss,
            alpha_num
        }),
        (
            2usize..=3,
            0usize..4,
            proptest::collection::vec(1usize..=6, 1..=3)
        )
            .prop_map(|(n, loss, alpha_nums)| Op::Sweep {
                n,
                loss,
                alpha_nums
            }),
        (2usize..=3, 0usize..4).prop_map(|(n, loss)| Op::Interact { n, loss }),
    ]
}

fn loss_spec<T: WireScalar>(idx: usize) -> LossSpec<T> {
    match idx % 4 {
        0 => LossSpec::Absolute,
        1 => LossSpec::Squared,
        2 => LossSpec::ZeroOne,
        _ => LossSpec::Tolerance(1),
    }
}

/// A deployed mechanism for interacts: the uniform mechanism rows.
fn uniform_rows<T: WireScalar>(n: usize) -> Vec<Vec<T>> {
    let size = n + 1;
    let cell = T::one().div_ref(&T::from_i64(size as i64));
    vec![vec![cell; size]; size]
}

/// What one op produced: the result bytes, or a stable (code, message) error.
type Outcome = Result<String, (String, String)>;

fn outcome_err(e: ClientError) -> (String, String) {
    match e {
        ClientError::Server(e) => (e.code.to_string(), e.message),
        other => panic!("transport/protocol failure where a server reply was expected: {other}"),
    }
}

trait BackendAlpha: WireScalar {
    fn alpha(num: usize) -> Self;
}
impl BackendAlpha for Rational {
    fn alpha(num: usize) -> Self {
        rat(num as i64, 7)
    }
}
impl BackendAlpha for f64 {
    fn alpha(num: usize) -> Self {
        num as f64 / 7.0
    }
}

/// Run the workload serially: one request in flight at a time, through the
/// client's blocking helpers.
fn run_serial<T: BackendAlpha>(addr: std::net::SocketAddr, ops: &[Op]) -> Vec<Outcome> {
    let mut client = Client::connect(addr).expect("connect");
    ops.iter()
        .map(|op| match op {
            Op::Solve { n, loss, alpha_num } => {
                let spec = ConsumerSpec::<T>::minimax(*n, loss_spec(*loss));
                client
                    .solve(&spec, &T::alpha(*alpha_num), CacheMode::Use)
                    .map(|r| r.raw)
                    .map_err(outcome_err)
            }
            Op::Sweep {
                n,
                loss,
                alpha_nums,
            } => {
                let spec = ConsumerSpec::<T>::minimax(*n, loss_spec(*loss));
                let alphas: Vec<T> = alpha_nums.iter().map(|&k| T::alpha(k)).collect();
                client
                    .sweep(&spec, &alphas, CacheMode::Use)
                    .map(|r| r.raw)
                    .map_err(outcome_err)
            }
            Op::Interact { n, loss } => {
                let spec = ConsumerSpec::<T>::minimax(*n, loss_spec(*loss));
                client
                    .interact(&spec, &uniform_rows::<T>(*n), CacheMode::Use)
                    .map(|r| r.raw)
                    .map_err(outcome_err)
            }
        })
        .collect()
}

/// Render the workload in process: the engine and the public renderers, no
/// server, no cache.
fn run_in_process<T: BackendAlpha>(ops: &[Op]) -> Vec<Outcome> {
    let engine = PrivacyEngine::with_threads(1);
    let wire_err = |e: WireError| (e.code.to_string(), e.message);
    ops.iter()
        .map(|op| match op {
            Op::Solve { n, loss, alpha_num } => {
                let spec = ConsumerSpec::<T>::minimax(*n, loss_spec(*loss));
                let validated = spec.to_request(T::alpha(*alpha_num)).map_err(wire_err)?;
                let solve = engine.solve(&validated).map_err(|e| wire_err(e.into()))?;
                Ok(render_solve(&solve))
            }
            Op::Sweep {
                n,
                loss,
                alpha_nums,
            } => {
                let spec = ConsumerSpec::<T>::minimax(*n, loss_spec(*loss));
                let levels = alpha_nums
                    .iter()
                    .map(|&k| PrivacyLevel::new(T::alpha(k)))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| wire_err(e.into()))?;
                let validated = spec
                    .to_request(levels[0].alpha().clone())
                    .map_err(wire_err)?;
                let solves = engine
                    .sweep(&levels, &validated)
                    .map_err(|e| wire_err(e.into()))?;
                let items: Vec<String> = solves.iter().map(render_solve).collect();
                Ok(assemble_solves(items.iter().map(String::as_str)))
            }
            Op::Interact { n, loss } => {
                let spec = ConsumerSpec::<T>::minimax(*n, loss_spec(*loss));
                let validated = spec.to_request(T::zero()).map_err(wire_err)?;
                let mechanism =
                    Mechanism::from_rows(uniform_rows::<T>(*n)).map_err(|e| wire_err(e.into()))?;
                let interaction = engine
                    .interact(&mechanism, &validated)
                    .map_err(|e| wire_err(e.into()))?;
                Ok(render_interaction(&interaction))
            }
        })
        .collect()
}

/// Run the workload pipelined: submit everything first, then drain
/// completions in whatever order the worker pool produces them.
fn run_pipelined<T: BackendAlpha>(addr: std::net::SocketAddr, ops: &[Op]) -> Vec<Outcome> {
    let mut client = Client::connect(addr).expect("connect");

    struct Sweep {
        slots: Vec<Option<String>>,
        received: usize,
    }
    let mut tickets: HashMap<u64, usize> = HashMap::new();
    let mut sweeps: HashMap<u64, Sweep> = HashMap::new();
    let mut outcomes: Vec<Option<Outcome>> = (0..ops.len()).map(|_| None).collect();

    for (op_idx, op) in ops.iter().enumerate() {
        let ticket = match op {
            Op::Solve { n, loss, alpha_num } => {
                let spec = ConsumerSpec::<T>::minimax(*n, loss_spec(*loss));
                client
                    .submit_solve(&spec, &T::alpha(*alpha_num), CacheMode::Use)
                    .expect("submit solve")
            }
            Op::Sweep {
                n,
                loss,
                alpha_nums,
            } => {
                let spec = ConsumerSpec::<T>::minimax(*n, loss_spec(*loss));
                let alphas: Vec<T> = alpha_nums.iter().map(|&k| T::alpha(k)).collect();
                let ticket = client
                    .submit_sweep(&spec, &alphas, CacheMode::Use)
                    .expect("submit sweep");
                sweeps.insert(
                    ticket.id(),
                    Sweep {
                        slots: vec![None; alphas.len()],
                        received: 0,
                    },
                );
                ticket
            }
            Op::Interact { n, loss } => {
                let spec = ConsumerSpec::<T>::minimax(*n, loss_spec(*loss));
                client
                    .submit_interact(&spec, &uniform_rows::<T>(*n), CacheMode::Use)
                    .expect("submit interact")
            }
        };
        tickets.insert(ticket.id(), op_idx);
    }

    // Drain: completions arrive in completion order, not submission order.
    let mut open = ops.len();
    while open > 0 {
        let event = client.recv().expect("recv completion");
        let id = event.ticket().id();
        let &op_idx = tickets.get(&id).expect("completion for a known ticket");
        match event {
            Event::Reply { response, .. } => {
                if let Some(sweep) = sweeps.remove(&id) {
                    // Sweeps stream; a plain reply here would be a bug.
                    panic!(
                        "sweep answered monolithically after {} items",
                        sweep.received
                    );
                }
                let result = response.get("result").expect("reply carries a result");
                outcomes[op_idx] = Some(Ok(json::to_string(result)));
                open -= 1;
            }
            Event::Error { error, .. } => {
                outcomes[op_idx] = Some(Err((error.code.to_string(), error.message)));
                sweeps.remove(&id);
                open -= 1;
            }
            Event::SweepItem {
                index, response, ..
            } => {
                let sweep = sweeps.get_mut(&id).expect("items only for sweeps");
                let result = response.get("result").expect("item carries a result");
                assert!(
                    sweep.slots[index]
                        .replace(json::to_string(result))
                        .is_none(),
                    "index {index} streamed twice"
                );
                sweep.received += 1;
            }
            Event::SweepDone { response, .. } => {
                let sweep = sweeps.remove(&id).expect("done only for sweeps");
                assert_eq!(
                    sweep.received,
                    sweep.slots.len(),
                    "every item streams before sweep_done"
                );
                assert!(
                    response.get("cache").is_some(),
                    "sweep_done carries the cache disposition"
                );
                let mut raw = String::from("{\"solves\":[");
                for (k, slot) in sweep.slots.into_iter().enumerate() {
                    if k > 0 {
                        raw.push(',');
                    }
                    raw.push_str(&slot.expect("every index streamed"));
                }
                raw.push_str("]}");
                outcomes[op_idx] = Some(Ok(raw));
                open -= 1;
            }
        }
    }
    outcomes.into_iter().map(Option::unwrap).collect()
}

fn check_backend<T: BackendAlpha>(rng_label: &str) {
    // Tiny cache: eviction pressure is part of the property (a pipelined
    // request may miss where its serial twin hit and vice versa; bytes must
    // match regardless).
    let handle = server::spawn(ServerConfig {
        worker_threads: 4,
        cache_capacity: 4,
        cache_shards: 2,
        neg_cache_capacity: 4,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = handle.addr();

    let strategy = proptest::collection::vec(op_strategy(), 8..=14);
    let mut rng = TestRng::deterministic(rng_label);
    for _ in 0..3 {
        let ops = strategy.generate(&mut rng);
        let serial = run_serial::<T>(addr, &ops);
        let pipelined = run_pipelined::<T>(addr, &ops);
        let reference = run_in_process::<T>(&ops);
        assert_eq!(serial.len(), pipelined.len());
        for (k, ((s, p), r)) in serial.iter().zip(&pipelined).zip(&reference).enumerate() {
            assert_eq!(s, p, "op {k} ({:?}) differs across transports", ops[k]);
            assert_eq!(s, r, "op {k} ({:?}) differs from in-process", ops[k]);
        }
    }
    let stats = handle.cache_stats();
    assert!(
        stats.evictions > 0,
        "the tiny cache must have evicted: {stats:?}"
    );
    handle.shutdown();
}

#[test]
fn pipelined_is_byte_identical_to_serial_and_in_process_rational() {
    check_backend::<Rational>("pipeline::rational");
}

#[test]
fn pipelined_is_byte_identical_to_serial_and_in_process_f64() {
    check_backend::<f64>("pipeline::f64");
}

/// The submit/wait surface tolerates waiting in any order: completions for
/// other tickets are buffered, never lost.
#[test]
fn out_of_order_waits_buffer_other_completions() {
    let handle = server::spawn(ServerConfig::default()).expect("bind loopback");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let spec = ConsumerSpec::<Rational>::minimax(3, LossSpec::Absolute);
    let tickets: Vec<_> = (1..=5)
        .map(|k| {
            client
                .submit_solve(&spec, &rat(k, 7), CacheMode::Use)
                .expect("submit")
        })
        .collect();
    // Wait in reverse submission order.
    let mut raws = Vec::new();
    for ticket in tickets.iter().rev() {
        let response = client.wait(*ticket).expect("wait");
        let result = response.get("result").expect("result");
        raws.push(json::to_string(result));
    }
    raws.reverse();
    // Same answers as blocking solves of the same requests (cache hits now).
    for (k, raw) in raws.iter().enumerate() {
        let reply = client
            .solve(&spec, &rat(k as i64 + 1, 7), CacheMode::Use)
            .expect("solve");
        assert_eq!(*raw, reply.raw, "α = {}/7", k + 1);
    }
    handle.shutdown();
}

/// An uncached v2 sweep streams: every index arrives exactly once before the
/// terminal frame, and the per-item bytes match the blocking (monolithic)
/// form of the same request.
#[test]
fn streaming_sweep_items_match_the_monolithic_reply() {
    let handle = server::spawn(ServerConfig::default()).expect("bind loopback");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let spec = ConsumerSpec::<Rational>::minimax(3, LossSpec::Absolute);
    let alphas: Vec<Rational> = (1..=5).map(|k| rat(k, 7)).collect();

    // Stream with the cache bypassed: genuinely computed per α.
    let mut items: Vec<Option<String>> = vec![None; alphas.len()];
    let mut stream = client
        .sweep_stream(&spec, &alphas, CacheMode::Bypass)
        .expect("stream");
    for item in stream.by_ref() {
        let item = item.expect("streamed item");
        assert!(
            items[item.index].replace(item.raw).is_none(),
            "index {} twice",
            item.index
        );
    }
    let done = stream.done().expect("sweep_done");
    assert_eq!(done.count, alphas.len() as u64);
    assert_eq!(done.cache, privmech_serve::proto::CacheDisposition::Bypass);

    // Monolithic ground truth over the same connection.
    let blocking = client.sweep(&spec, &alphas, CacheMode::Use).expect("sweep");
    let joined = format!(
        "{{\"solves\":[{}]}}",
        items
            .into_iter()
            .map(Option::unwrap)
            .collect::<Vec<_>>()
            .join(",")
    );
    assert_eq!(joined, blocking.raw, "streamed ≡ monolithic, byte for byte");
    handle.shutdown();
}
