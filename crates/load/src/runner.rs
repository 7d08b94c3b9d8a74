//! The open-loop driver: many pipelined v2 connections, scheduled sends,
//! latency measured against the *scheduled* arrival.
//!
//! Per connection the runner splits the socket into a **sender thread**
//! (sleeps to each precomputed arrival offset, writes the pre-rendered
//! frame, never waits for a reply — the open-loop invariant) and a
//! **receiver thread** (reads frames, matches terminals by `id`, records
//! `terminal_received − scheduled_arrival` as the request's latency). That
//! latency definition deliberately includes every queue the request sat in:
//! the client's socket buffer, the server's backpressure gate, the worker
//! pool — so when the offered rate exceeds capacity, the tail explodes
//! instead of the throughput silently flattening.
//!
//! [`ramp_search`] runs a sequence of fixed-rate steps (server histograms
//! reset between steps via the `metrics` op's `reset` flag) and reports the
//! **saturation rate**: the first offered rate whose p99 exceeds the bound
//! or that the server fails to drain within the grace window.

use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use privmech_serve::client::Client;
use privmech_serve::frame::{read_frame, write_frame};
use privmech_serve::json::{self, Json};
use privmech_serve::proto::{scan_reply, PROTOCOL_VERSION};

use crate::schedule::Schedule;
use crate::stats::{LatencyRecorder, LatencySummary};
use crate::workload::Population;

/// The op buckets a run reports (the compute and zoo ops the workload
/// generator can produce; ops with no completions are omitted from reports).
pub const RUN_OPS: &[&str] = &["solve", "sweep", "interact", "zoo_table", "zoo_eval"];

/// How a run connects and drains.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Number of concurrent pipelined connections (arrivals are dealt
    /// round-robin across them).
    pub connections: usize,
    /// Seed for drawing the arrival sequence from the population's Zipf
    /// distribution (independent of the population seed, so one population
    /// can serve many sequences).
    pub arrival_seed: u64,
    /// Grace window after the last scheduled arrival for the server to
    /// finish answering; a run that still has requests outstanding at the
    /// deadline reports `drained: false` (a saturation signal).
    pub drain_timeout: Duration,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            addr: String::new(),
            connections: 4,
            arrival_seed: 1,
            drain_timeout: Duration::from_secs(10),
        }
    }
}

/// What one open-loop run measured.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Mean offered arrival rate (requests/second) of the schedule.
    pub offered_rate: f64,
    /// Requests actually written to sockets.
    pub sent: usize,
    /// Terminal frames received (including error terminals).
    pub completed: usize,
    /// Terminal frames that reported `ok: false`.
    pub errors: usize,
    /// Whether every scheduled request completed within the drain window.
    pub drained: bool,
    /// Start of the run to the last terminal frame (or the drain deadline).
    pub wall: Duration,
    /// Completed requests per second of wall time.
    pub achieved_rate: f64,
    /// Per-op latency summaries (ops with no completions omitted).
    pub per_op: Vec<(&'static str, LatencySummary)>,
    /// Latency summary over every completed request.
    pub all: Option<LatencySummary>,
    /// Peak requests in flight on any single connection, observed at send
    /// time — open-loop load keeps this well above 1 when the server lags.
    pub max_outstanding: usize,
    /// Worst lateness of an actual send behind its scheduled arrival (sender
    /// overload / scheduler noise; small values certify the open loop held).
    pub max_send_lag: Duration,
}

impl RunReport {
    /// The p99 across all completed requests (`None` for an empty run).
    #[must_use]
    pub fn overall_p99(&self) -> Option<Duration> {
        self.all.map(|s| Duration::from_nanos(s.p99_ns))
    }

    /// Render for the bench record.
    #[must_use]
    pub fn to_wire(&self) -> Json {
        let mut ops = Json::obj();
        for (op, summary) in &self.per_op {
            ops = ops.with(op, summary.to_wire());
        }
        let mut obj = Json::obj()
            .with(
                "offered_rate_per_sec",
                Json::num_f64(round2(self.offered_rate)).unwrap_or(Json::num_u64(0)),
            )
            .with("sent", Json::num_u64(self.sent as u64))
            .with("completed", Json::num_u64(self.completed as u64))
            .with("errors", Json::num_u64(self.errors as u64))
            .with("drained", Json::Bool(self.drained))
            .with(
                "wall_ns",
                Json::num_u64(u64::try_from(self.wall.as_nanos()).unwrap_or(u64::MAX)),
            )
            .with(
                "achieved_rate_per_sec",
                Json::num_f64(round2(self.achieved_rate)).unwrap_or(Json::num_u64(0)),
            )
            .with(
                "max_outstanding",
                Json::num_u64(self.max_outstanding as u64),
            )
            .with(
                "max_send_lag_ns",
                Json::num_u64(u64::try_from(self.max_send_lag.as_nanos()).unwrap_or(u64::MAX)),
            )
            .with("ops", ops);
        if let Some(all) = &self.all {
            obj = obj.with("all", all.to_wire());
        }
        obj
    }
}

fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

/// One request assigned to a connection: its global arrival index, offset,
/// op bucket and pre-rendered frame payload.
struct Assigned {
    id: u64,
    offset: Duration,
    op: &'static str,
    payload: String,
}

/// What a connection's sender thread observed.
struct SenderOutcome {
    sent: usize,
    max_outstanding: usize,
    max_send_lag: Duration,
}

/// What a connection's receiver thread observed.
struct ReceiverOutcome {
    recorders: Vec<LatencyRecorder>, // indexed like RUN_OPS
    all: LatencyRecorder,
    completed: usize,
    errors: usize,
    finished_at: Duration, // offset from start when the receiver exited
}

/// Drive one open-loop run of `schedule` over `population` and measure it.
///
/// Arrivals are dealt round-robin over `config.connections` pipelined v2
/// connections; each request's latency is measured from its **scheduled**
/// arrival to its terminal frame, so time spent queueing behind a saturated
/// server counts (see the module docs for why that is the point).
pub fn run(
    population: &Population,
    schedule: &Schedule,
    config: &RunConfig,
) -> io::Result<RunReport> {
    let count = schedule.count();
    let offsets = schedule.arrival_offsets();
    let indices = population.sample_indices(config.arrival_seed, count);
    let connections = config.connections.max(1);

    // Pre-render every frame: the sender's inner loop is sleep + write only.
    let mut per_conn: Vec<Vec<Assigned>> = (0..connections).map(|_| Vec::new()).collect();
    for (k, (&template_idx, &offset)) in indices.iter().zip(&offsets).enumerate() {
        let template = &population.templates[template_idx];
        let id = k as u64 + 1;
        let mut framed = Json::obj()
            .with("v", Json::num_u64(PROTOCOL_VERSION))
            .with("id", Json::num_u64(id));
        if let (Json::Obj(dst), Json::Obj(src)) = (&mut framed, template.body.clone()) {
            dst.extend(src);
        }
        per_conn[k % connections].push(Assigned {
            id,
            offset,
            op: template.op,
            payload: json::to_string(&framed),
        });
    }

    // Connect everything before starting the clock, so connection setup cost
    // never skews the first arrivals.
    let mut sockets = Vec::with_capacity(connections);
    for _ in 0..connections {
        let stream = TcpStream::connect(&config.addr)?;
        stream.set_nodelay(true)?;
        sockets.push(stream);
    }
    let last_offset = offsets.last().copied().unwrap_or_default();
    let start = Instant::now();
    let deadline = start + last_offset + config.drain_timeout;

    let mut sender_handles = Vec::with_capacity(connections);
    let mut receiver_handles = Vec::with_capacity(connections);
    for (stream, assigned) in sockets.iter().zip(per_conn) {
        let expected: HashMap<u64, (&'static str, Duration)> =
            assigned.iter().map(|a| (a.id, (a.op, a.offset))).collect();
        let done = Arc::new(AtomicUsize::new(0));

        let read_half = stream.try_clone()?;
        let done_rx = Arc::clone(&done);
        receiver_handles.push(std::thread::spawn(move || {
            receive_connection(read_half, expected, start, &done_rx)
        }));

        let write_half = stream.try_clone()?;
        sender_handles.push(std::thread::spawn(move || {
            send_connection(write_half, assigned, start, &done)
        }));
    }

    let mut sent = 0;
    let mut max_outstanding = 0;
    let mut max_send_lag = Duration::ZERO;
    for handle in sender_handles {
        let outcome = handle.join().expect("sender thread panicked");
        sent += outcome.sent;
        max_outstanding = max_outstanding.max(outcome.max_outstanding);
        max_send_lag = max_send_lag.max(outcome.max_send_lag);
    }

    // Drain: receivers exit on their own once every expected terminal is in;
    // at the deadline, force the laggards out by closing the read halves
    // (a receiver parked in a blocking read sees EOF).
    let all_done = |handles: &[std::thread::JoinHandle<ReceiverOutcome>]| {
        handles.iter().all(std::thread::JoinHandle::is_finished)
    };
    while !all_done(&receiver_handles) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    for stream in &sockets {
        let _ = stream.shutdown(Shutdown::Both);
    }

    let mut recorders: Vec<LatencyRecorder> =
        RUN_OPS.iter().map(|_| LatencyRecorder::new()).collect();
    let mut all = LatencyRecorder::new();
    let mut completed = 0;
    let mut errors = 0;
    let mut wall = Duration::ZERO;
    for handle in receiver_handles {
        let outcome = handle.join().expect("receiver thread panicked");
        for (merged, conn) in recorders.iter_mut().zip(&outcome.recorders) {
            merged.merge(conn);
        }
        all.merge(&outcome.all);
        completed += outcome.completed;
        errors += outcome.errors;
        wall = wall.max(outcome.finished_at);
    }

    let per_op = RUN_OPS
        .iter()
        .zip(&recorders)
        .filter_map(|(&op, recorder)| recorder.summary().map(|s| (op, s)))
        .collect();
    let wall_secs = wall.as_secs_f64();
    Ok(RunReport {
        offered_rate: schedule.offered_rate(),
        sent,
        completed,
        errors,
        drained: completed == count,
        wall,
        achieved_rate: if wall_secs > 0.0 {
            completed as f64 / wall_secs
        } else {
            0.0
        },
        per_op,
        all: all.summary(),
        max_outstanding,
        max_send_lag,
    })
}

/// The sender loop: sleep to each scheduled offset, write the frame. Never
/// reads, never waits on completions — the open-loop invariant lives here.
fn send_connection(
    stream: TcpStream,
    assigned: Vec<Assigned>,
    start: Instant,
    done: &AtomicUsize,
) -> SenderOutcome {
    let mut writer = BufWriter::new(stream);
    let mut outcome = SenderOutcome {
        sent: 0,
        max_outstanding: 0,
        max_send_lag: Duration::ZERO,
    };
    for request in &assigned {
        let now = start.elapsed();
        if request.offset > now {
            std::thread::sleep(request.offset - now);
        }
        if write_frame(&mut writer, request.payload.as_bytes())
            .and_then(|()| std::io::Write::flush(&mut writer))
            .is_err()
        {
            break;
        }
        outcome.sent += 1;
        let lag = start.elapsed().saturating_sub(request.offset);
        outcome.max_send_lag = outcome.max_send_lag.max(lag);
        let outstanding = outcome.sent.saturating_sub(done.load(Ordering::Relaxed));
        outcome.max_outstanding = outcome.max_outstanding.max(outstanding);
    }
    outcome
}

/// The receiver loop: classify frames lexically (the server's envelope
/// rendering is deterministic), record terminal latencies against the
/// scheduled arrival, exit when every expected terminal arrived (or on
/// EOF — the run's drain deadline closes the socket under us).
fn receive_connection(
    stream: TcpStream,
    mut expected: HashMap<u64, (&'static str, Duration)>,
    start: Instant,
    done: &AtomicUsize,
) -> ReceiverOutcome {
    let mut reader = BufReader::new(stream);
    let mut outcome = ReceiverOutcome {
        recorders: RUN_OPS.iter().map(|_| LatencyRecorder::new()).collect(),
        all: LatencyRecorder::new(),
        completed: 0,
        errors: 0,
        finished_at: Duration::ZERO,
    };
    while !expected.is_empty() {
        let payload = match read_frame(&mut reader) {
            Ok(Some(payload)) => payload,
            Ok(None) | Err(_) => break, // EOF or deadline shutdown
        };
        let Ok(text) = std::str::from_utf8(&payload) else {
            continue;
        };
        let Some((id, _, sweep_item)) = scan_reply(text) else {
            continue;
        };
        if sweep_item {
            continue; // non-terminal sweep_item: its sweep is still running
        }
        let Some((op, scheduled)) = expected.remove(&id) else {
            continue;
        };
        let latency = start.elapsed().saturating_sub(scheduled);
        let ns = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        if let Some(idx) = RUN_OPS.iter().position(|&o| o == op) {
            outcome.recorders[idx].record(ns);
        }
        outcome.all.record(ns);
        outcome.completed += 1;
        if text.contains("\"ok\":false") {
            outcome.errors += 1;
        }
        done.fetch_add(1, Ordering::Relaxed);
        outcome.finished_at = start.elapsed();
    }
    outcome
}

/// One step of a rate-ramp search.
#[derive(Debug, Clone)]
pub struct RampStep {
    /// The offered rate of this step (requests/second).
    pub rate: f64,
    /// The step's measurements.
    pub report: RunReport,
}

/// The result of a rate-ramp search.
#[derive(Debug, Clone)]
pub struct RampOutcome {
    /// Every step run, in order (the search stops at the first saturated
    /// step, which is included).
    pub steps: Vec<RampStep>,
    /// Highest tested rate that stayed healthy (p99 within bound, drained).
    pub last_good_rate: Option<f64>,
    /// First tested rate that saturated (`None` if every step stayed
    /// healthy — the search never found the knee).
    pub saturation_rate: Option<f64>,
}

/// Step through `rates` with fixed-rate runs of `requests_per_step` each,
/// resetting the server's latency histograms between steps (the `metrics`
/// op's `reset` flag), and stop at the first rate that **saturates**: p99
/// over the bound, or the offered load not drained within the grace window.
pub fn ramp_search(
    population: &Population,
    rates: &[f64],
    requests_per_step: usize,
    config: &RunConfig,
    p99_bound: Duration,
) -> io::Result<RampOutcome> {
    let mut outcome = RampOutcome {
        steps: Vec::new(),
        last_good_rate: None,
        saturation_rate: None,
    };
    for &rate in rates {
        // A clean measurement window per step, server-side too.
        let mut client = Client::connect(&config.addr)?;
        client
            .metrics_reset()
            .map_err(|e| io::Error::other(format!("metrics reset failed: {e}")))?;
        drop(client);

        let schedule = Schedule::FixedRate {
            rate_per_sec: rate,
            count: requests_per_step,
        };
        let report = run(population, &schedule, config)?;
        let saturated = !report.drained || report.overall_p99().is_some_and(|p99| p99 > p99_bound);
        outcome.steps.push(RampStep { rate, report });
        if saturated {
            outcome.saturation_rate = Some(rate);
            break;
        }
        outcome.last_good_rate = Some(rate);
    }
    Ok(outcome)
}
