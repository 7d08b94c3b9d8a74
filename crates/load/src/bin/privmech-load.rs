//! The `privmech-load` capacity-harness binary.
//!
//! Generates a seeded Zipf-popular workload, drives it open-loop against a
//! server (an external one via `--addr`, or an in-process one it spawns and
//! tears down itself), prints per-op latency percentiles, correlates them
//! with the server's own `metrics` histograms, and appends a machine-
//! readable capacity record to the bench JSON Lines file. See
//! `crates/load/LOAD.md` for the methodology and how to reproduce a record.
//!
//! ```text
//! privmech-load [--addr HOST:PORT] [--label L] [--output PATH] [--no-record]
//!               [--workload compute|zoo] [--seed N] [--arrival-seed N]
//!               [--templates N] [--zipf F] [--max-n N] [--op-mix S:W:I]
//!               [--connections N] [--requests N]
//!               [--rate R | --ramp START:END:STEPS] [--p99-bound-ms F]
//!               [--drain-secs F] [--fleet N] [--serve-bin PATH]
//!               [--shard-cache-capacity N]
//! ```
//!
//! With `--rate` the harness runs one fixed-rate step; with `--ramp` it
//! steps geometrically from START to END requests/second in STEPS steps and
//! reports the saturation point (first step whose p99 exceeds the bound or
//! that fails to drain). Default is `--ramp 50:1600:6`.
//!
//! With `--fleet N` the harness spawns N `privmech-serve` shard processes
//! (from `--serve-bin`, default: the binary next to this one) behind an
//! in-process consistent-hash router and measures through the router's
//! address; the capacity record's `shards` field carries the count, so
//! fleet records and single-process records compare like for like.

use std::io::Write;
use std::time::Duration;

use privmech_load::fleet::{self, Fleet, FleetConfig};
use privmech_load::{ramp_search, run, RunConfig, Schedule};
use privmech_load::{Population, WorkloadConfig, WorkloadKind};
use privmech_serve::client::Client;
use privmech_serve::json::{self, Json};
use privmech_serve::metrics::MetricsReply;
use privmech_serve::server::{self, ServerConfig};

struct Args {
    addr: Option<String>,
    label: String,
    output: String,
    record: bool,
    workload: WorkloadConfig,
    arrival_seed: u64,
    connections: usize,
    requests: usize,
    rate: Option<f64>,
    ramp: (f64, f64, usize),
    p99_bound: Duration,
    drain: Duration,
    fleet: usize,
    serve_bin: Option<String>,
    shard_cache_capacity: Option<usize>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            addr: None,
            label: "load".to_string(),
            output: "BENCH_serve.json".to_string(),
            record: true,
            workload: WorkloadConfig::default(),
            arrival_seed: 1,
            connections: 4,
            requests: 1000,
            rate: None,
            ramp: (50.0, 1600.0, 6),
            p99_bound: Duration::from_millis(50),
            drain: Duration::from_secs(10),
            fleet: 0,
            serve_bin: None,
            shard_cache_capacity: None,
        }
    }
}

fn main() {
    let args = parse_args();

    eprintln!(
        "privmech-load: {} workload, {} templates (zipf s={}, max n={}, mix {}:{}:{}), seed {}",
        args.workload.kind.name(),
        args.workload.templates,
        args.workload.zipf_exponent,
        args.workload.max_n,
        args.workload.solve_weight,
        args.workload.sweep_weight,
        args.workload.interact_weight,
        args.workload.seed,
    );
    let population = Population::generate(&args.workload);

    // Pick the serving side: an external server (--addr), a locally spawned
    // fleet of shard processes behind a router (--fleet N), or a private
    // in-process server (the default) — exactly like the bench harness does.
    if args.addr.is_some() && args.fleet > 0 {
        eprintln!("--addr and --fleet are mutually exclusive (a fleet is spawned locally)");
        std::process::exit(2);
    }
    let mut local = None;
    let mut local_fleet = None;
    let addr = match &args.addr {
        Some(addr) => addr.clone(),
        None if args.fleet > 0 => {
            let serve_bin = match &args.serve_bin {
                Some(path) => std::path::PathBuf::from(path),
                None => fleet::sibling_serve_bin().unwrap_or_else(|e| {
                    eprintln!("cannot locate privmech-serve: {e}");
                    std::process::exit(1);
                }),
            };
            let mut config = FleetConfig::new(args.fleet, serve_bin);
            if let Some(capacity) = args.shard_cache_capacity {
                config.shard_args = vec!["--cache-capacity".to_string(), capacity.to_string()];
            }
            let fleet = Fleet::spawn(&config).unwrap_or_else(|e| {
                eprintln!("failed to spawn fleet: {e}");
                std::process::exit(1);
            });
            eprintln!(
                "privmech-load: fleet of {} shards behind router at {}",
                fleet.shards(),
                fleet.addr(),
            );
            let addr = fleet.addr().to_string();
            local_fleet = Some(fleet);
            addr
        }
        None => {
            let handle = server::spawn(ServerConfig::default()).unwrap_or_else(|e| {
                eprintln!("failed to spawn in-process server: {e}");
                std::process::exit(1);
            });
            local = Some(handle);
            local.as_ref().expect("just set").addr().to_string()
        }
    };
    let config = RunConfig {
        addr: addr.clone(),
        connections: args.connections,
        arrival_seed: args.arrival_seed,
        drain_timeout: args.drain,
    };

    let mut capacity = Json::obj()
        .with("workload", Json::str(args.workload.kind.name()))
        .with("seed", Json::num_u64(args.workload.seed))
        .with("arrival_seed", Json::num_u64(args.arrival_seed))
        .with("templates", Json::num_u64(args.workload.templates as u64))
        .with(
            "zipf_exponent",
            Json::num_f64(args.workload.zipf_exponent).expect("finite exponent"),
        )
        .with("max_n", Json::num_u64(args.workload.max_n as u64))
        .with(
            "op_mix",
            Json::str(format!(
                "{}:{}:{}",
                args.workload.solve_weight,
                args.workload.sweep_weight,
                args.workload.interact_weight
            )),
        )
        .with("connections", Json::num_u64(args.connections as u64))
        // 1 when the target is a single process; --addr targets are opaque,
        // so they also record as 1 unless the caller knows better.
        .with("shards", Json::num_u64(args.fleet.max(1) as u64))
        .with("requests_per_step", Json::num_u64(args.requests as u64))
        .with(
            "p99_bound_ms",
            Json::num_u64(args.p99_bound.as_millis() as u64),
        );

    if let Some(rate) = args.rate {
        let schedule = Schedule::FixedRate {
            rate_per_sec: rate,
            count: args.requests,
        };
        // A clean server-side window for the single step too.
        reset_metrics(&addr);
        let report = run(&population, &schedule, &config).unwrap_or_else(die);
        print_report(rate, &report);
        capacity = capacity
            .with("mode", Json::str("fixed"))
            .with("run", report.to_wire());
    } else {
        let (start, end, steps) = args.ramp;
        let rates = geometric_steps(start, end, steps);
        eprintln!(
            "privmech-load: ramp search over {:?} req/s ({} requests/step, p99 bound {:?})",
            rates
                .iter()
                .map(|r| (r * 10.0).round() / 10.0)
                .collect::<Vec<_>>(),
            args.requests,
            args.p99_bound,
        );
        let outcome = ramp_search(&population, &rates, args.requests, &config, args.p99_bound)
            .unwrap_or_else(die);
        for step in &outcome.steps {
            print_report(step.rate, &step.report);
        }
        match (outcome.last_good_rate, outcome.saturation_rate) {
            (good, Some(sat)) => eprintln!(
                "privmech-load: saturation at {sat:.1} req/s (last healthy: {})",
                good.map_or("none".to_string(), |g| format!("{g:.1} req/s")),
            ),
            (Some(good), None) => {
                eprintln!("privmech-load: no saturation up to {good:.1} req/s")
            }
            (None, None) => eprintln!("privmech-load: no steps ran"),
        }
        let mut steps_json = Vec::new();
        for step in &outcome.steps {
            steps_json.push(
                Json::obj()
                    .with(
                        "rate_per_sec",
                        Json::num_f64((step.rate * 100.0).round() / 100.0).expect("finite rate"),
                    )
                    .with("report", step.report.to_wire()),
            );
        }
        capacity = capacity
            .with("mode", Json::str("ramp"))
            .with("steps", Json::Arr(steps_json));
        if let Some(good) = outcome.last_good_rate {
            capacity = capacity.with(
                "last_good_rate_per_sec",
                Json::num_f64((good * 100.0).round() / 100.0).expect("finite rate"),
            );
        }
        if let Some(sat) = outcome.saturation_rate {
            capacity = capacity.with(
                "saturation_rate_per_sec",
                Json::num_f64((sat * 100.0).round() / 100.0).expect("finite rate"),
            );
        }
    }

    // Correlate with the server's own histograms (covering the last
    // measurement window — the harness resets them before each step).
    if let Some(server_ops) = fetch_server_ops(&addr) {
        capacity = capacity.with("server_ops", server_ops);
    }

    if let Some(handle) = local {
        handle.shutdown();
    }
    if let Some(fleet) = local_fleet {
        fleet.shutdown().unwrap_or_else(|e| {
            eprintln!("privmech-load: fleet shutdown failed: {e}");
            std::process::exit(1);
        });
    }

    if args.record {
        let record = Json::obj()
            .with("label", Json::str(args.label.clone()))
            .with("capacity", capacity);
        let line = json::to_string(&record);
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&args.output)
            .unwrap_or_else(|e| {
                eprintln!("cannot open {}: {e}", args.output);
                std::process::exit(1);
            });
        writeln!(file, "{line}").unwrap_or_else(|e| {
            eprintln!("cannot append to {}: {e}", args.output);
            std::process::exit(1);
        });
        eprintln!(
            "privmech-load: appended record {:?} to {}",
            args.label, args.output
        );
    }
}

fn die<T>(e: std::io::Error) -> T {
    eprintln!("privmech-load: run failed: {e}");
    std::process::exit(1);
}

fn reset_metrics(addr: &str) {
    if let Ok(mut client) = Client::connect(addr) {
        let _ = client.metrics_reset();
    }
}

/// `steps` rates spaced geometrically from `start` to `end` inclusive.
fn geometric_steps(start: f64, end: f64, steps: usize) -> Vec<f64> {
    if steps <= 1 {
        return vec![start];
    }
    let ratio = (end / start).powf(1.0 / (steps - 1) as f64);
    (0..steps).map(|k| start * ratio.powi(k as i32)).collect()
}

fn print_report(rate: f64, report: &privmech_load::RunReport) {
    eprintln!(
        "  rate {:7.1}/s: {}/{} completed, {} errors, drained={}, wall {:.2}s, peak in-flight {}, send lag {:.1}ms",
        rate,
        report.completed,
        report.sent,
        report.errors,
        report.drained,
        report.wall.as_secs_f64(),
        report.max_outstanding,
        report.max_send_lag.as_secs_f64() * 1e3,
    );
    for (op, s) in &report.per_op {
        eprintln!(
            "    {op:8} n={:5}  p50 {:9.3}ms  p99 {:9.3}ms  p999 {:9.3}ms  max {:9.3}ms",
            s.count,
            s.p50_ns as f64 / 1e6,
            s.p99_ns as f64 / 1e6,
            s.p999_ns as f64 / 1e6,
            s.max_ns as f64 / 1e6,
        );
    }
    if let Some(s) = &report.all {
        eprintln!(
            "    {:8} n={:5}  p50 {:9.3}ms  p99 {:9.3}ms  p999 {:9.3}ms  max {:9.3}ms",
            "all",
            s.count,
            s.p50_ns as f64 / 1e6,
            s.p99_ns as f64 / 1e6,
            s.p999_ns as f64 / 1e6,
            s.max_ns as f64 / 1e6,
        );
    }
}

/// Fetch the server's per-op histograms and compress each to its
/// `{count, total_ns, mean_ns, p99_le_ns}` summary (see `LOAD.md`).
fn fetch_server_ops(addr: &str) -> Option<Json> {
    let mut client = Client::connect(addr).ok()?;
    let metrics = client.metrics().ok()?;
    Some(MetricsReply::from_wire(&metrics)?.summaries())
}

fn parse_args() -> Args {
    let mut parsed = Args::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--addr" => parsed.addr = Some(value("--addr")),
            "--label" => parsed.label = value("--label"),
            "--output" => parsed.output = value("--output"),
            "--no-record" => parsed.record = false,
            "--workload" => {
                let raw = value("--workload");
                parsed.workload.kind = WorkloadKind::from_name(&raw).unwrap_or_else(|| {
                    eprintln!("--workload must be \"compute\" or \"zoo\", got {raw:?}");
                    std::process::exit(2);
                });
            }
            "--seed" => parsed.workload.seed = parse(&value("--seed"), "--seed"),
            "--arrival-seed" => {
                parsed.arrival_seed = parse(&value("--arrival-seed"), "--arrival-seed")
            }
            "--templates" => {
                parsed.workload.templates = parse(&value("--templates"), "--templates")
            }
            "--zipf" => parsed.workload.zipf_exponent = parse_f64(&value("--zipf"), "--zipf"),
            "--max-n" => parsed.workload.max_n = parse(&value("--max-n"), "--max-n"),
            "--op-mix" => {
                let raw = value("--op-mix");
                let parts: Vec<&str> = raw.split(':').collect();
                if parts.len() != 3 {
                    eprintln!("--op-mix needs SOLVE:SWEEP:INTERACT weights, got {raw:?}");
                    std::process::exit(2);
                }
                parsed.workload.solve_weight = parse(parts[0], "--op-mix");
                parsed.workload.sweep_weight = parse(parts[1], "--op-mix");
                parsed.workload.interact_weight = parse(parts[2], "--op-mix");
            }
            "--connections" => parsed.connections = parse(&value("--connections"), "--connections"),
            "--requests" => parsed.requests = parse(&value("--requests"), "--requests"),
            "--rate" => parsed.rate = Some(parse_f64(&value("--rate"), "--rate")),
            "--ramp" => {
                let raw = value("--ramp");
                let parts: Vec<&str> = raw.split(':').collect();
                if parts.len() != 3 {
                    eprintln!("--ramp needs START:END:STEPS, got {raw:?}");
                    std::process::exit(2);
                }
                parsed.ramp = (
                    parse_f64(parts[0], "--ramp"),
                    parse_f64(parts[1], "--ramp"),
                    parse(parts[2], "--ramp"),
                );
            }
            "--p99-bound-ms" => {
                parsed.p99_bound = Duration::from_secs_f64(
                    parse_f64(&value("--p99-bound-ms"), "--p99-bound-ms") / 1e3,
                )
            }
            "--drain-secs" => {
                parsed.drain =
                    Duration::from_secs_f64(parse_f64(&value("--drain-secs"), "--drain-secs"))
            }
            "--fleet" => parsed.fleet = parse(&value("--fleet"), "--fleet"),
            "--serve-bin" => parsed.serve_bin = Some(value("--serve-bin")),
            "--shard-cache-capacity" => {
                parsed.shard_cache_capacity = Some(parse(
                    &value("--shard-cache-capacity"),
                    "--shard-cache-capacity",
                ))
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: privmech-load [--addr HOST:PORT] [--label L] [--output PATH] \
                     [--no-record] [--workload compute|zoo] [--seed N] [--arrival-seed N] \
                     [--templates N] [--zipf F] [--max-n N] [--op-mix S:W:I] \
                     [--connections N] [--requests N] \
                     [--rate R | --ramp START:END:STEPS] [--p99-bound-ms F] [--drain-secs F] \
                     [--fleet N] [--serve-bin PATH] [--shard-cache-capacity N]"
                );
                std::process::exit(2);
            }
        }
    }
    parsed
}

fn parse<T: std::str::FromStr>(text: &str, flag: &str) -> T {
    text.parse().unwrap_or_else(|_| {
        eprintln!("{flag} got an unparsable value {text:?}");
        std::process::exit(2);
    })
}

fn parse_f64(text: &str, flag: &str) -> f64 {
    let v: f64 = parse(text, flag);
    if !v.is_finite() {
        eprintln!("{flag} needs a finite number, got {text:?}");
        std::process::exit(2);
    }
    v
}
