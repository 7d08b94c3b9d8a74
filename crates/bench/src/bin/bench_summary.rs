//! Perf-trajectory tool: run the LP benchmark workloads in quick mode and
//! append one JSON record to `BENCH_lp.json`.
//!
//! It drives the engine directly, so it can record the solver's
//! [`PivotStats`] next to each wall time — a perf regression then
//! decomposes into "more pivots" (pricing/algorithmic) vs "slower pivots"
//! (arithmetic/kernel).
//!
//! Usage:
//!
//! ```text
//! bench-summary [--label <label>] [--output <path>] [--max-n <n>] [--reps <k>]
//!               [--sweep] [--sweep-n <n>] [--sweep-points <k>] [--sweep-threads <t>]
//!               [--compare-forms] [--compare-n <n>]
//!               [--sweep-mem] [--sweep-mem-n <n>] [--sweep-mem-points <k>]
//! ```
//!
//! `--sweep` appends an α-sweep comparison record instead of the per-size
//! solve record: a 16-point exact α-sweep solved (a) cold, by sequential
//! per-α `DirectLp` engine solves each rebuilding the Section 2.5 LP, (b) by
//! `engine.sweep` on the same Section 2.5 LP across worker threads (strategy
//! DirectLp — results asserted bit-identical to the sequential baseline), and (c)
//! by the engine's default Theorem-1 factorization strategy (losses asserted
//! bit-identical; mechanisms optimal and derivable by construction).
//!
//! `--compare-forms` appends a solver-form identity record instead: one
//! exact solve at `compare-n` run under both the dense tableau and the
//! revised simplex ([`privmech_lp::SolverForm`]), runtime-asserting the
//! bit-identity contract (equal mechanism, loss and pivot statistics) and
//! recording the revised-over-dense speedup. CI runs this on every push so
//! the dense ≡ revised contract is exercised outside the unit suites too.
//!
//! `--sweep-mem` appends a sweep peak-memory record instead: the same exact
//! α-sweep solved sequentially under the dense tableau and under the
//! CSR-backed revised simplex, with each pass's peak RSS (`VmHWM`, reset
//! between passes via `/proc/self/clear_refs` where supported) recorded and
//! the losses asserted bit-identical — the tracked number behind the PR 8
//! claim that the CSR store shrinks sweep memory, not just wall-clock.
//!
//! The output file is JSON Lines: one self-contained record per invocation,
//! so successive PRs build up a comparable history. Every record carries its
//! `label` and the host's core count (`nproc`, from
//! `std::thread::available_parallelism`) beside the workload's own field.

use std::fs::OpenOptions;
use std::io::Write as _;
use std::time::Instant;

use privmech_bench::{bench_consumer, bench_interval_consumer};
use privmech_core::{
    MinimaxConsumer, PivotStats, PrivacyEngine, PrivacyLevel, SolveStrategy, ValidatedRequest,
};
use privmech_numerics::{rat, Rational};

struct RunResult {
    name: String,
    scalar: &'static str,
    n: usize,
    median_ns: u128,
    samples: usize,
    stats: PivotStats,
}

/// Time `f` over `reps` runs (at least one) and report the median.
fn time_workload<F: FnMut() -> PivotStats>(reps: usize, mut f: F) -> (u128, usize, PivotStats) {
    let start = Instant::now();
    let stats = f();
    let mut times = vec![start.elapsed().as_nanos()];
    for _ in 1..reps {
        let start = Instant::now();
        f();
        times.push(start.elapsed().as_nanos());
    }
    times.sort_unstable();
    (times[times.len() / 2], times.len(), stats)
}

fn direct_request<T: privmech_linalg::Scalar>(
    level: PrivacyLevel<T>,
    consumer: MinimaxConsumer<T>,
) -> ValidatedRequest<T> {
    ValidatedRequest::minimax(level, consumer).with_strategy(SolveStrategy::DirectLp)
}

fn run_exact(n: usize, reps: usize) -> RunResult {
    let engine = PrivacyEngine::with_threads(1);
    let level: PrivacyLevel<Rational> = PrivacyLevel::new(rat(1, 4)).expect("valid alpha");
    let request = direct_request(level, bench_consumer(n));
    let (median_ns, samples, stats) =
        time_workload(reps, || engine.solve(&request).expect("solvable LP").stats);
    RunResult {
        name: format!("exact_full_S/{n}"),
        scalar: "rational",
        n,
        median_ns,
        samples,
        stats,
    }
}

fn run_f64(n: usize, reps: usize) -> RunResult {
    let engine = PrivacyEngine::with_threads(1);
    let level = PrivacyLevel::new(0.25f64).expect("valid alpha");
    let request = direct_request(level, bench_consumer(n));
    let (median_ns, samples, stats) =
        time_workload(reps, || engine.solve(&request).expect("solvable LP").stats);
    RunResult {
        name: format!("f64_full_S/{n}"),
        scalar: "f64",
        n,
        median_ns,
        samples,
        stats,
    }
}

fn run_f64_interval(n: usize, reps: usize) -> RunResult {
    let engine = PrivacyEngine::with_threads(1);
    let level = PrivacyLevel::new(0.25f64).expect("valid alpha");
    let request = direct_request(level, bench_interval_consumer(n));
    let (median_ns, samples, stats) =
        time_workload(reps, || engine.solve(&request).expect("solvable LP").stats);
    RunResult {
        name: format!("f64_interval_S/{n}"),
        scalar: "f64",
        n,
        median_ns,
        samples,
        stats,
    }
}

/// The per-size ladder's `"results"` field.
fn results_field(results: &[RunResult]) -> String {
    let mut out = String::new();
    out.push_str("\"results\": [");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"name\": \"{}\", \"scalar\": \"{}\", \"n\": {}, \"median_ns\": {}, \
             \"samples\": {}, \"pivots\": {}, \"phase1_pivots\": {}, \
             \"degenerate_pivots\": {}, \"dantzig_pivots\": {}, \"bland_pivots\": {}, \
             \"fallback_activations\": {}}}",
            r.name,
            r.scalar,
            r.n,
            r.median_ns,
            r.samples,
            r.stats.total_pivots(),
            r.stats.phase1_pivots,
            r.stats.degenerate_pivots,
            r.stats.dantzig_pivots,
            r.stats.bland_pivots,
            r.stats.fallback_activations,
        ));
    }
    out.push(']');
    out
}

/// The α-sweep acceptance benchmark: `sweep_points` exact levels
/// `α_k = k / (points + 1)` over the full-S absolute-error consumer at
/// `sweep_n`.
fn run_sweep(n: usize, points: usize, threads: usize) -> String {
    if points == 0 {
        eprintln!("--sweep-points must be at least 1");
        std::process::exit(2);
    }
    let levels: Vec<PrivacyLevel<Rational>> = (1..=points)
        .map(|k| PrivacyLevel::new(rat(k as i64, points as i64 + 1)).expect("alpha in (0,1)"))
        .collect();
    let consumer: MinimaxConsumer<Rational> = bench_consumer(n);

    // (a) Cold baseline: sequential per-α engine solves, each rebuilding the
    // Section 2.5 LP from scratch (what the seed's `optimal_mechanism` free
    // function — removed in PR 5 — did per call; DirectLp is bit-identical).
    eprintln!("sweep baseline: {points} sequential cold DirectLp solves at n = {n} ...");
    let cold_engine = PrivacyEngine::with_threads(1);
    let start = Instant::now();
    let cold: Vec<_> = levels
        .iter()
        .map(|level| {
            cold_engine
                .solve(&direct_request(level.clone(), consumer.clone()))
                .expect("solvable LP")
        })
        .collect();
    let cold_ns = start.elapsed().as_nanos();

    // (b) Engine sweep on the same Section 2.5 LP, across worker threads.
    eprintln!("sweep direct: engine.sweep (DirectLp, {threads} threads) ...");
    let engine = PrivacyEngine::with_threads(threads);
    let direct_req = direct_request(levels[0].clone(), consumer.clone());
    let start = Instant::now();
    let direct = engine.sweep(&levels, &direct_req).expect("sweepable LP");
    let direct_ns = start.elapsed().as_nanos();
    let mut direct_identical = true;
    for (c, d) in cold.iter().zip(&direct) {
        direct_identical &= c.mechanism == d.mechanism && c.loss == d.loss;
    }
    assert!(
        direct_identical,
        "DirectLp sweep must be bit-identical to the cold free-function baseline"
    );

    // (c) The engine's default strategy: Theorem 1 factorization.
    eprintln!("sweep factorized: engine.sweep (GeometricFactorization, {threads} threads) ...");
    let factor_req = ValidatedRequest::minimax(levels[0].clone(), consumer.clone());
    let start = Instant::now();
    let factored = engine.sweep(&levels, &factor_req).expect("sweepable LP");
    let factor_ns = start.elapsed().as_nanos();
    let mut losses_identical = true;
    for ((level, c), f) in levels.iter().zip(&cold).zip(&factored) {
        losses_identical &= c.loss == f.loss;
        assert!(
            f.mechanism.is_differentially_private(level),
            "factorized sweep mechanism must be α-DP"
        );
    }
    assert!(
        losses_identical,
        "Theorem 1: factorized sweep losses must equal the tailored optima bit for bit"
    );

    let speedup_direct = cold_ns as f64 / direct_ns as f64;
    let speedup_factor = cold_ns as f64 / factor_ns as f64;
    eprintln!(
        "cold sequential: {:.3}s | direct sweep: {:.3}s ({speedup_direct:.2}x) | \
         factorized sweep: {:.3}s ({speedup_factor:.2}x)",
        cold_ns as f64 / 1e9,
        direct_ns as f64 / 1e9,
        factor_ns as f64 / 1e9,
    );

    // The `warm_*` keys keep their historical names so BENCH_lp.json's sweep
    // records stay comparable across PRs.
    format!(
        "\"sweep\": {{\"n\": {n}, \"points\": {points}, \
         \"threads\": {threads}, \"scalar\": \"rational\", \
         \"cold_sequential_ns\": {cold_ns}, \"warm_direct_sweep_ns\": {direct_ns}, \
         \"warm_factorized_sweep_ns\": {factor_ns}, \
         \"speedup_direct\": {speedup_direct:.4}, \"speedup_factorized\": {speedup_factor:.4}, \
         \"direct_bit_identical\": {direct_identical}, \
         \"factorized_losses_bit_identical\": {losses_identical}}}"
    )
}

/// The solver-form identity benchmark: one exact solve at size `n` run under
/// both simplex forms ([`privmech_lp::SolverForm::Dense`] and the default
/// [`privmech_lp::SolverForm::Auto`], the revised simplex on exact scalars),
/// asserting the dense ≡ revised contract —
/// bit-identical mechanism, loss and pivot statistics (identical pivot
/// counts are the visible consequence of the identical pivot *sequence*) —
/// and recording the revised-over-dense speedup.
fn run_compare_forms(n: usize) -> String {
    use privmech_lp::{SolverForm, SolverOptions};
    let engine = PrivacyEngine::with_threads(1);
    let level: PrivacyLevel<Rational> = PrivacyLevel::new(rat(1, 4)).expect("valid alpha");
    let with_form = |form: SolverForm| {
        direct_request(level.clone(), bench_consumer(n)).with_options(SolverOptions {
            form,
            ..SolverOptions::default()
        })
    };

    eprintln!("compare-forms: dense-tableau exact solve at n = {n} ...");
    let start = Instant::now();
    let dense = engine
        .solve(&with_form(SolverForm::Dense))
        .expect("solvable LP");
    let dense_ns = start.elapsed().as_nanos();

    eprintln!("compare-forms: revised-simplex exact solve at n = {n} ...");
    let start = Instant::now();
    let revised = engine
        .solve(&with_form(SolverForm::Auto))
        .expect("solvable LP");
    let revised_ns = start.elapsed().as_nanos();

    assert_eq!(
        dense.mechanism, revised.mechanism,
        "dense ≡ revised: mechanisms must be bit-identical"
    );
    assert_eq!(
        dense.loss, revised.loss,
        "dense ≡ revised: losses must be bit-identical"
    );
    assert_eq!(
        dense.stats, revised.stats,
        "dense ≡ revised: identical pivot sequences imply identical stats"
    );

    let speedup = dense_ns as f64 / revised_ns as f64;
    eprintln!(
        "dense: {:.3}s | revised: {:.3}s ({speedup:.2}x) | pivots {} (identical)",
        dense_ns as f64 / 1e9,
        revised_ns as f64 / 1e9,
        dense.stats.total_pivots(),
    );

    format!(
        "\"compare_forms\": {{\"n\": {n}, \"scalar\": \"rational\", \
         \"dense_ns\": {dense_ns}, \"revised_ns\": {revised_ns}, \
         \"speedup_revised\": {speedup:.4}, \"pivots\": {}, \"bit_identical\": true}}",
        dense.stats.total_pivots()
    )
}

/// Peak resident-set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` off Linux.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Reset the kernel's peak-RSS watermark (`echo 5 > /proc/self/clear_refs`)
/// so per-pass peaks can be measured in one process. Returns whether the
/// reset took effect.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The sweep peak-memory benchmark (PR 8): the same `points`-α exact sweep
/// at size `n` solved sequentially under the dense tableau and under the
/// CSR-backed revised simplex, recording each pass's peak RSS. The dense
/// form materializes the full `[B⁻¹A | B⁻¹b]` tableau per solve; the
/// revised form keeps only the CSR constraint store plus the basis
/// factorization — this record makes that difference a tracked number.
/// Losses are asserted bit-identical between the passes (they follow the
/// identical pivot sequence, so anything else is a solver bug).
fn run_sweep_mem(n: usize, points: usize) -> String {
    use privmech_lp::{SolverForm, SolverOptions};
    let quick = std::env::var("PRIVMECH_SWEEP_QUICK").is_ok_and(|v| v == "1");
    let (n, points) = if quick { (5, 3) } else { (n, points) };
    let levels: Vec<PrivacyLevel<Rational>> = (1..=points)
        .map(|k| PrivacyLevel::new(rat(k as i64, points as i64 + 1)).expect("alpha in (0,1)"))
        .collect();
    let consumer: MinimaxConsumer<Rational> = bench_consumer(n);
    let engine = PrivacyEngine::with_threads(1);
    let run_pass = |form: SolverForm| -> Vec<_> {
        levels
            .iter()
            .map(|level| {
                let req =
                    direct_request(level.clone(), consumer.clone()).with_options(SolverOptions {
                        form,
                        ..SolverOptions::default()
                    });
                engine.solve(&req).expect("solvable LP")
            })
            .collect()
    };

    // Revised first: without watermark resets `VmHWM` is monotone, so this
    // order can only *understate* the dense pass's margin, never fake one.
    let reset_supported = reset_peak_rss();
    eprintln!("sweep-mem: {points}-α CSR revised-simplex pass at n = {n} ...");
    let revised = run_pass(SolverForm::Auto);
    let revised_peak = peak_rss_bytes().unwrap_or(0);

    if reset_supported {
        reset_peak_rss();
    }
    eprintln!("sweep-mem: {points}-α dense-tableau pass at n = {n} ...");
    let dense = run_pass(SolverForm::Dense);
    let dense_peak = peak_rss_bytes().unwrap_or(0);

    for (r, d) in revised.iter().zip(&dense) {
        assert_eq!(
            r.loss, d.loss,
            "dense ≡ revised: sweep losses must be bit-identical"
        );
        assert_eq!(r.mechanism, d.mechanism, "mechanisms must be bit-identical");
    }
    assert!(
        revised_peak <= dense_peak,
        "the CSR revised pass must not out-allocate the dense tableau \
         (revised {revised_peak} B vs dense {dense_peak} B)"
    );

    let ratio = dense_peak as f64 / revised_peak.max(1) as f64;
    eprintln!(
        "peak RSS — revised/CSR: {:.1} MiB | dense tableau: {:.1} MiB ({ratio:.2}x) \
         [watermark resets {}]",
        revised_peak as f64 / (1024.0 * 1024.0),
        dense_peak as f64 / (1024.0 * 1024.0),
        if reset_supported { "on" } else { "OFF" },
    );

    format!(
        "\"sweep_mem\": {{\"n\": {n}, \"points\": {points}, \
         \"scalar\": \"rational\", \"peak_rss_revised_bytes\": {revised_peak}, \
         \"peak_rss_dense_bytes\": {dense_peak}, \"dense_over_revised\": {ratio:.4}, \
         \"peak_reset_supported\": {reset_supported}, \"losses_identical\": true}}"
    )
}

fn main() {
    let mut label = "dev".to_string();
    let mut output = "BENCH_lp.json".to_string();
    let mut max_n = 16usize;
    let mut reps = 5usize;
    let mut sweep = false;
    let mut sweep_n = 6usize;
    let mut sweep_points = 16usize;
    let mut sweep_threads = 4usize;
    let mut sweep_mem = false;
    let mut sweep_mem_n = 10usize;
    let mut sweep_mem_points = 4usize;
    let mut compare_forms = false;
    let mut compare_n = 8usize;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--label" => label = args.next().expect("--label needs a value"),
            "--output" => output = args.next().expect("--output needs a value"),
            "--max-n" => {
                max_n = args
                    .next()
                    .expect("--max-n needs a value")
                    .parse()
                    .expect("--max-n needs an integer")
            }
            "--reps" => {
                reps = args
                    .next()
                    .expect("--reps needs a value")
                    .parse()
                    .expect("--reps needs an integer")
            }
            "--sweep" => sweep = true,
            "--sweep-n" => {
                sweep_n = args
                    .next()
                    .expect("--sweep-n needs a value")
                    .parse()
                    .expect("--sweep-n needs an integer")
            }
            "--sweep-points" => {
                sweep_points = args
                    .next()
                    .expect("--sweep-points needs a value")
                    .parse()
                    .expect("--sweep-points needs an integer")
            }
            "--sweep-threads" => {
                sweep_threads = args
                    .next()
                    .expect("--sweep-threads needs a value")
                    .parse()
                    .expect("--sweep-threads needs an integer")
            }
            "--sweep-mem" => sweep_mem = true,
            "--sweep-mem-n" => {
                sweep_mem_n = args
                    .next()
                    .expect("--sweep-mem-n needs a value")
                    .parse()
                    .expect("--sweep-mem-n needs an integer")
            }
            "--sweep-mem-points" => {
                sweep_mem_points = args
                    .next()
                    .expect("--sweep-mem-points needs a value")
                    .parse()
                    .expect("--sweep-mem-points needs an integer")
            }
            "--compare-forms" => compare_forms = true,
            "--compare-n" => {
                compare_n = args
                    .next()
                    .expect("--compare-n needs a value")
                    .parse()
                    .expect("--compare-n needs an integer")
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: bench-summary [--label L] [--output PATH] [--max-n N] [--reps K] \
                     [--sweep] [--sweep-n N] [--sweep-points K] [--sweep-threads T] \
                     [--compare-forms] [--compare-n N] \
                     [--sweep-mem] [--sweep-mem-n N] [--sweep-mem-points K]"
                );
                std::process::exit(2);
            }
        }
    }

    let body = if compare_forms {
        run_compare_forms(compare_n)
    } else if sweep_mem {
        run_sweep_mem(sweep_mem_n, sweep_mem_points)
    } else if sweep {
        run_sweep(sweep_n, sweep_points, sweep_threads)
    } else {
        let mut results = Vec::new();
        for n in [3usize, 4, 6, 8, 10] {
            if n > max_n {
                break;
            }
            eprintln!("running f64_full_S/{n} ...");
            results.push(run_f64(n, reps));
        }
        for n in [6usize, 10] {
            if n > max_n {
                break;
            }
            eprintln!("running f64_interval_S/{n} ...");
            results.push(run_f64_interval(n, reps));
        }
        for n in [3usize, 4, 5, 8, 12, 16, 20, 24] {
            if n > max_n {
                break;
            }
            eprintln!("running exact_full_S/{n} ...");
            results.push(run_exact(n, reps));
        }

        for r in &results {
            eprintln!(
                "{:<22} median {:>12} ns  pivots {:>5} (phase1 {}, degenerate {}, fallbacks {})",
                r.name,
                r.median_ns,
                r.stats.total_pivots(),
                r.stats.phase1_pivots,
                r.stats.degenerate_pivots,
                r.stats.fallback_activations,
            );
        }
        results_field(&results)
    };
    // A timing is only comparable between hosts of the same core count.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let record = format!("{{\"label\": \"{label}\", \"nproc\": {nproc}, {body}}}");

    let mut file = OpenOptions::new()
        .create(true)
        .append(true)
        .open(&output)
        .expect("open output file");
    writeln!(file, "{record}").expect("write output file");
    eprintln!("appended record \"{label}\" to {output}");
}
