//! `perfbench`: the closed-loop benchmark client.
//!
//! ```text
//! perfbench --workload churn|solve|zoo --seed N --seconds S --trace 0|1
//!           --serve-bin PATH --router-bin PATH
//! ```
//!
//! One run: set up (start the servers, build and pre-render the requests,
//! warm up) five times and keep the last, drive the timed closed loop for
//! `--seconds`, send the pinned known failures once, then gate correctness
//! and stop the servers. With `--trace 1` the same sequence is also replayed
//! in process with spans around every layer call (see `trace.rs`). The last
//! line of stdout is the result object; the line before it is a summary with
//! the failure counts per error code, the pinned failures, and every metric
//! of both kinds that was measured.

mod client;
mod fleet;
mod gate;
mod plan;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use privmech_serve::json::{self, Json};

use crate::client::{phase, Conn, Outcome, Pace, Sample};
use crate::fleet::Servers;
use crate::plan::{Measure, Plan, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Where the traced run writes its spans, relative to the checkout.
const OUT_DIR: &str = ".bench_out";
/// Client connections, each driven by its own thread.
const CONNECTIONS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    serve_bin: PathBuf,
    router_bin: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut serve_bin = None;
    let mut router_bin = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds needs an integer")?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            "--router-bin" => router_bin = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be 1..=60".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        serve_bin: serve_bin.ok_or("--serve-bin is required")?,
        router_bin: router_bin.ok_or("--router-bin is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A metric value with its unit.
fn metric(value: f64, unit: &str) -> Json {
    Json::obj()
        .with("value", Json::num_f64(value).unwrap_or(Json::Null))
        .with("unit", Json::str(unit))
}

/// Nearest-rank quantile of sorted samples.
fn quantile<T: Copy>(sorted: &[T], q: f64) -> T {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// End-to-end figures of a timed phase.
struct Window {
    throughput: f64,
    p50_ms: f64,
    tail_ms: f64,
    /// Latency samples the figures rest on.
    samples: usize,
    /// What the figures were taken over, for the summary line.
    basis: String,
}

/// Measure the timed phase by medians over its parts.
///
/// The host's cores are shared and how fast it runs drifts in episodes, so
/// every figure is a median over many like parts of the run (chunks of a
/// connection's sequence, or a template's repeats): an episode covering
/// less than half the run does not move it. Only requests completed by the
/// deadline count.
fn measure(samples: &[Sample], how: Measure, deadline_ns: u64, tail_q: f64) -> Option<Window> {
    let done: Vec<&Sample> = samples
        .iter()
        .filter(|s| s.done_ns <= deadline_ns)
        .collect();
    match how {
        Measure::Chunks(chunk) => chunk_medians(&done, chunk, tail_q),
        Measure::Templates => template_medians(&done, tail_q),
    }
}

/// Each connection's sequence is cut into chunks of `chunk` consecutive
/// positions, every chunk holds the same requests, and a chunk's wall time
/// runs from its first send to its last terminal frame. Throughput is the
/// connection count times the median over the complete chunks of their
/// successful replies per second; `p50_ms` and `tail_ms` are the medians over
/// them of each chunk's own median and tail quantile (a chunk holds at least
/// ten samples beyond it).
fn chunk_medians(samples: &[&Sample], chunk: usize, tail_q: f64) -> Option<Window> {
    let mut by_chunk: BTreeMap<(usize, usize), Vec<&Sample>> = BTreeMap::new();
    for sample in samples {
        by_chunk
            .entry((sample.conn, sample.position / chunk))
            .or_default()
            .push(sample);
    }
    let mut rates = Vec::new();
    let mut p50s = Vec::new();
    let mut tails = Vec::new();
    for part in by_chunk.values().filter(|c| c.len() == chunk) {
        let first = part.iter().map(|s| s.sent_ns).min().unwrap_or(0);
        let last = part.iter().map(|s| s.done_ns).max().unwrap_or(0);
        let ok = part.iter().filter(|s| s.ok).count();
        rates.push(ok as f64 / ((last - first) as f64 / 1e9));
        let mut latencies: Vec<f64> = part
            .iter()
            .map(|s| (s.done_ns - s.sent_ns) as f64)
            .collect();
        latencies.sort_by(f64::total_cmp);
        p50s.push(quantile(&latencies, 0.5));
        tails.push(quantile(&latencies, tail_q));
    }
    if rates.is_empty() {
        return None;
    }
    let used = rates.len();
    Some(Window {
        throughput: CONNECTIONS as f64 * median(&mut rates),
        p50_ms: median(&mut p50s) / 1e6,
        tail_ms: median(&mut tails) / 1e6,
        samples: used * chunk,
        basis: format!("medians over {used} chunks of {chunk}"),
    })
}

/// For a fixed list walked in whole passes with one request in flight per
/// connection, a template's latency is its median over its repeats. A pass
/// takes the sum of those, so throughput is the connection count times the
/// successful replies of a pass over that sum; `p50_ms` and `tail_ms` are
/// quantiles over the templates' median latencies (each template is one
/// request of every pass).
fn template_medians(samples: &[&Sample], tail_q: f64) -> Option<Window> {
    let mut by_template: BTreeMap<usize, Vec<&Sample>> = BTreeMap::new();
    for sample in samples {
        by_template.entry(sample.template).or_default().push(sample);
    }
    let repeats = by_template.values().map(Vec::len).min()?;
    let mut medians = Vec::with_capacity(by_template.len());
    let mut ok_per_pass = 0.0;
    for repeats in by_template.values() {
        let mut latencies: Vec<f64> = repeats
            .iter()
            .map(|s| (s.done_ns - s.sent_ns) as f64)
            .collect();
        medians.push(median(&mut latencies));
        ok_per_pass += repeats.iter().filter(|s| s.ok).count() as f64 / repeats.len() as f64;
    }
    let pass_s = medians.iter().sum::<f64>() / 1e9;
    medians.sort_by(f64::total_cmp);
    Some(Window {
        throughput: CONNECTIONS as f64 * ok_per_pass / pass_s,
        p50_ms: quantile(&medians, 0.5) / 1e6,
        tail_ms: quantile(&medians, tail_q) / 1e6,
        samples: samples.len(),
        basis: format!(
            "medians of {} templates, at least {repeats} repeats each",
            medians.len()
        ),
    })
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// One set-up: start the servers, build and pre-render the requests, open
/// the connections and run the warm-up. Returns everything plus the warm-up
/// outcome.
fn set_up(args: &Args) -> Result<(Servers, Plan, [Conn; 2], Outcome), String> {
    let plan = plan::build(args.workload, args.seed);
    let servers = Servers::start(&plan.topology, &args.serve_bin, &args.router_bin)
        .map_err(|e| format!("starting servers: {e}"))?;
    let connect = || Conn::connect(servers.addr()).map_err(|e| format!("connecting: {e}"));
    let mut conns = [connect()?, connect()?];
    let warm = phase(
        &mut conns,
        &plan,
        &plan.warmup,
        plan.window,
        plan.bypass,
        Pace::Once,
    )
    .map_err(|e| format!("warm-up: {e}"))?;
    Ok((servers, plan, conns, warm))
}

/// Total handle time and count of the compute ops in one `ops` section of
/// a `metrics` reply.
fn compute_ops(ops: Option<&Json>) -> (u64, u64) {
    let mut total_ns = 0;
    let mut count = 0;
    if let Some(Json::Obj(ops)) = ops {
        for (op, entry) in ops {
            if matches!(
                op.as_str(),
                "solve" | "sweep" | "interact" | "zoo_table" | "zoo_eval"
            ) {
                total_ns += entry.get("total_ns").and_then(Json::as_u64).unwrap_or(0);
                count += entry.get("count").and_then(Json::as_u64).unwrap_or(0);
            }
        }
    }
    (total_ns, count)
}

/// Mean in µs of a (total ns, count) pair; 0 when nothing was counted.
fn mean_us((total_ns, count): (u64, u64)) -> f64 {
    if count == 0 {
        0.0
    } else {
        total_ns as f64 / count as f64 / 1e3
    }
}

/// The shard handle time behind a router, from the `ops` of every entry of
/// the router-only `shards` section. `None` when there is no router.
fn shard_handle_us(result: &Json) -> Option<f64> {
    let shards = result.get("shards").and_then(Json::as_arr)?;
    let (total_ns, count) = shards
        .iter()
        .map(|shard| compute_ops(shard.get("ops")))
        .fold((0, 0), |(t, c), (total, count)| (t + total, c + count));
    Some(mean_us((total_ns, count)))
}

fn run(args: &Args) -> Result<(), String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    for repeat in 0..SETUP_REPEATS {
        let start = Instant::now();
        let (servers, plan, conns, warm) = set_up(args)?;
        setup_s.push(start.elapsed().as_secs_f64());
        if repeat + 1 < SETUP_REPEATS {
            drop(conns);
            servers
                .stop()
                .map_err(|e| format!("stopping servers: {e}"))?;
        } else {
            kept = Some((servers, plan, conns, warm));
        }
    }
    let (servers, plan, mut conns, warm) = kept.expect("at least one set-up");

    // The timed closed loop.
    conns[0]
        .call("{\"v\":2,\"id\":1,\"op\":\"metrics\",\"reset\":true}")
        .map_err(|e| format!("metrics reset: {e}"))?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs(args.seconds);
    let timed = phase(
        &mut conns,
        &plan,
        &plan.arrivals,
        plan.window,
        plan.bypass,
        Pace::Until { start, deadline },
    )
    .map_err(|e| format!("timed phase: {e}"))?;
    let metrics = conns[0]
        .call("{\"v\":2,\"id\":1,\"op\":\"metrics\"}")
        .map_err(|e| format!("metrics: {e}"))?;
    let metrics = json::parse(&metrics).map_err(|e| format!("metrics reply: {e}"))?;
    let metrics = metrics.get("result").ok_or("metrics reply has no result")?;
    let handle_us = mean_us(compute_ops(metrics.get("ops")));
    let shard_us = shard_handle_us(metrics);

    // The known failures, once each, outside the workload's own operations.
    let pinned = phase(
        &mut conns,
        &plan,
        &[plan.pinned_probe.clone(), Vec::new()],
        1,
        plan.bypass,
        Pace::Once,
    )
    .map_err(|e| format!("pinned probe: {e}"))?;

    let mut problems: Vec<String> = Vec::new();
    problems.extend(warm.unexpected.iter().cloned());
    problems.extend(timed.unexpected.iter().cloned());
    problems.extend(pinned.unexpected.iter().cloned());
    let mut results = timed.results.clone();
    for (template, distinct) in warm.results.iter().chain(&pinned.results) {
        let mine = results.entry(*template).or_default();
        for result in distinct {
            if !mine.contains(result) {
                mine.push(result.clone());
            }
        }
    }
    // cached ≡ uncached: every distinct template again, bypassing the cache.
    if !plan.bypass {
        let mut seen: Vec<usize> = results.keys().copied().collect();
        seen.sort_unstable();
        let uncached = phase(
            &mut conns,
            &plan,
            &plan::deal(&seen),
            plan.window,
            true,
            Pace::Once,
        )
        .map_err(|e| format!("uncached re-requests: {e}"))?;
        problems.extend(uncached.unexpected);
        problems.extend(gate::compare_uncached(&results, &uncached.results, &plan));
    }
    let rss_kib = servers
        .peak_rss_kib()
        .map_err(|e| format!("reading VmHWM: {e}"))?;
    drop(conns);
    servers
        .stop()
        .map_err(|e| format!("stopping servers: {e}"))?;

    problems.extend(gate::check(&plan, &results));

    // End-to-end metrics.
    let deadline_ns = args.seconds * 1_000_000_000;
    let window = measure(
        &timed.samples,
        plan.measure,
        deadline_ns,
        plan.tail_quantile,
    )
    .ok_or("too little of the sequence completed in the timed window")?;
    let mean_latency_ns = timed
        .samples
        .iter()
        .map(|s| (s.done_ns - s.sent_ns) as f64)
        .sum::<f64>()
        / timed.samples.len().max(1) as f64;
    let outside_us = mean_latency_ns / 1e3 - handle_us;
    let relay_us = shard_us.map_or(0.0, |shard_us| mean_latency_ns / 1e3 - shard_us);
    let mut end_to_end = BTreeMap::new();
    end_to_end.insert("setup_s", (median(&mut setup_s.clone()), "s"));
    end_to_end.insert("throughput_rps", (window.throughput, "1/s"));
    end_to_end.insert("p50_ms", (window.p50_ms, "ms"));
    end_to_end.insert("tail_ms", (window.tail_ms, "ms"));
    end_to_end.insert("peak_rss_mb", (rss_kib as f64 / 1024.0, "MB"));

    let mut per_layer: BTreeMap<&str, (f64, &str)> = BTreeMap::new();
    per_layer.insert("serve.server.handle_us", (handle_us, "us"));
    per_layer.insert("serve.server.outside_us", (outside_us, "us"));
    per_layer.insert("serve.router.relay_us", (relay_us, "us"));
    per_layer.insert(
        "bench.client_cpu_us_per_req",
        (
            timed.cpu_ns as f64 / timed.attempted.max(1) as f64 / 1e3,
            "us",
        ),
    );
    if args.trace {
        let path = Path::new(OUT_DIR).join(format!("spans-{}.jsonl", plan.workload.name()));
        let layers = trace::run(&plan, &path).map_err(|e| format!("traced replay: {e}"))?;
        for (name, value, unit) in layers {
            per_layer.insert(name, (value, unit));
        }
    }

    let render = |set: &BTreeMap<&str, (f64, &str)>| {
        let mut obj = Json::obj();
        for (name, (value, unit)) in set {
            obj = obj.with(name, metric(*value, unit));
        }
        obj
    };
    let by_code = |failures: &BTreeMap<String, u64>| {
        let mut obj = Json::obj();
        for (code, count) in failures {
            obj = obj.with(code, Json::num_u64(*count));
        }
        obj
    };
    let summary = Json::obj()
        .with("workload", Json::str(plan.workload.name()))
        .with("seed", Json::num_u64(args.seed))
        .with("seconds", Json::num_u64(args.seconds))
        .with("trace", Json::Bool(args.trace))
        .with(
            "nproc",
            Json::num_u64(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        )
        .with(
            "tail_quantile",
            Json::num_f64(plan.tail_quantile).unwrap_or(Json::Null),
        )
        .with("samples", Json::num_u64(window.samples as u64))
        .with("basis", Json::str(window.basis.as_str()))
        .with(
            "whole_window_rps",
            Json::num_f64(
                timed
                    .samples
                    .iter()
                    .filter(|s| s.ok && s.done_ns <= deadline_ns)
                    .count() as f64
                    / args.seconds as f64,
            )
            .unwrap_or(Json::Null),
        )
        .with(
            "setup_runs_s",
            Json::Arr(setup_s.iter().filter_map(|s| Json::num_f64(*s)).collect()),
        )
        .with("failures_by_code", by_code(&timed.failures))
        .with(
            "pinned",
            Json::obj()
                .with("attempted", Json::num_u64(pinned.attempted))
                .with("failed", Json::num_u64(pinned.failed))
                .with("failures_by_code", by_code(&pinned.failures)),
        )
        .with(
            "problems",
            Json::Arr(
                problems
                    .iter()
                    .take(20)
                    .map(|p| Json::str(p.as_str()))
                    .collect(),
            ),
        )
        .with("end_to_end", render(&end_to_end))
        .with("per_layer", render(&per_layer));
    println!("{}", json::to_string(&summary));
    for problem in &problems {
        eprintln!("perfbench: correctness: {problem}");
    }
    let result = Json::obj()
        .with("correct", Json::Bool(problems.is_empty()))
        .with("attempted", Json::num_u64(timed.attempted))
        .with("failed", Json::num_u64(timed.failed))
        .with(
            "metrics",
            if args.trace {
                render(&per_layer)
            } else {
                render(&end_to_end)
            },
        );
    println!("{}", json::to_string(&result));
    Ok(())
}
