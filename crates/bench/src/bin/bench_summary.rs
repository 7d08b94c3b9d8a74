//! Perf-trajectory tool: run the LP benchmark workloads in quick mode and
//! append one JSON record to `BENCH_lp.json`.
//!
//! Unlike the Criterion suite this drives the engine directly, so it can
//! record the solver's [`PivotStats`] next to each wall time — a perf
//! regression then decomposes into "more pivots" (pricing/algorithmic) vs
//! "slower pivots" (arithmetic/kernel).
//!
//! Usage:
//!
//! ```text
//! bench-summary [--label <label>] [--output <path>] [--max-n <n>] [--reps <k>]
//!               [--sweep] [--sweep-n <n>] [--sweep-points <k>] [--sweep-threads <t>]
//!               [--serve] [--serve-n <n>] [--serve-points <k>] [--serve-repeat <r>]
//!               [--serve-pipelined] [--pipeline-n <n>] [--pipeline-points <k>]
//!               [--pipeline-solves <s>] [--compare-forms] [--compare-n <n>]
//!               [--warm-sweep] [--warm-n <n>] [--warm-points <k>]
//!               [--sweep-mem] [--sweep-mem-n <n>] [--sweep-mem-points <k>]
//! ```
//!
//! `--sweep` appends an α-sweep comparison record instead of the per-size
//! solve record: a 16-point exact α-sweep solved (a) cold, by sequential
//! per-α `DirectLp` engine solves each rebuilding the Section 2.5 LP, (b) by
//! the warm-started `engine.sweep` on the same Section 2.5 LP (strategy
//! DirectLp — results asserted bit-identical to the cold baseline), and (c)
//! by the engine's default Theorem-1 factorization strategy (losses asserted
//! bit-identical; mechanisms optimal and derivable by construction).
//!
//! `--serve` appends a serving-layer throughput record instead: an
//! in-process `privmech-serve` server is driven over real TCP with a
//! repeated-request workload of `serve-points` distinct exact solves at
//! `serve-n`, measuring cold (all cache misses) against cached (all hits)
//! per-request latency. Every cached response is asserted byte-identical to
//! a cache-bypassing fresh solve before the record is written, and the
//! server's per-op latency histograms (`metrics` op) are printed.
//!
//! `--serve-pipelined` appends the protocol-v2 pipelining record instead: a
//! mixed workload (one `pipeline-points`-α exact sweep + `pipeline-solves`
//! repeated solves at `pipeline-n`) timed serially over strict v1
//! request/response and pipelined over v2 on the same warmed server, with
//! byte identity asserted between the two transports per request — plus a
//! cache-bypassed streamed sweep asserting the first `sweep_item` frame
//! lands in the first half of the sweep's wall-clock (streaming streams).
//!
//! `--compare-forms` appends a solver-form identity record instead: one
//! exact solve at `compare-n` run under both the dense tableau and the
//! revised simplex ([`privmech_lp::SolverForm`]), runtime-asserting the
//! bit-identity contract (equal mechanism, loss and pivot statistics) and
//! recording the revised-over-dense speedup, plus — since PR 6 — a
//! devex-priced solve and a small dual-simplex warm-started sweep, both
//! certificate-verified inside the solver and asserted to land on the
//! default path's optimal loss. CI runs this on every push so both tiers of
//! the correctness contract are exercised outside the unit suites too.
//!
//! `--sweep-mem` appends a sweep peak-memory record instead: the same exact
//! α-sweep solved sequentially under the dense tableau and under the
//! CSR-backed revised simplex, with each pass's peak RSS (`VmHWM`, reset
//! between passes via `/proc/self/clear_refs` where supported) recorded and
//! the losses asserted bit-identical — the tracked number behind the PR 8
//! claim that the CSR store shrinks sweep memory, not just wall-clock.
//!
//! `--warm-sweep` appends a warm-start acceptance record instead: a
//! `warm-points`-α exact sweep at `warm-n` timed cold (sequential per-α
//! solves from scratch) against the dual-simplex warm-started engine sweep,
//! with per-α pivot counts recorded and every level's warm loss asserted
//! equal to the cold optimum. Honors `PRIVMECH_SWEEP_QUICK=1` (CI smoke
//! size).
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

/// Time `f` adaptively: slow workloads run once, fast ones `reps` times; the
/// median is reported.
fn time_workload<F: FnMut() -> PivotStats>(reps: usize, mut f: F) -> (u128, usize, PivotStats) {
    let start = Instant::now();
    let stats = f();
    let first = start.elapsed().as_nanos();
    // Re-running a multi-second exact solve several times buys no precision
    // worth its wall-clock cost.
    let extra = if first > 2_000_000_000 {
        0
    } else {
        reps.saturating_sub(1)
    };
    let mut times = vec![first];
    for _ in 0..extra {
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

/// Same exact ladder entry under devex pricing. Devex changes the pivot
/// sequence, so each timed solve includes the engine's per-solve exact
/// optimality certificate — the reported time is the certified fast path,
/// not an unchecked one.
fn run_exact_devex(n: usize, reps: usize) -> RunResult {
    use privmech_lp::{PricingRule, SolverOptions};
    let engine = PrivacyEngine::with_threads(1);
    let level: PrivacyLevel<Rational> = PrivacyLevel::new(rat(1, 4)).expect("valid alpha");
    let request = direct_request(level, bench_consumer(n)).with_options(SolverOptions {
        pricing: PricingRule::Devex,
        ..SolverOptions::default()
    });
    let (median_ns, samples, stats) =
        time_workload(reps, || engine.solve(&request).expect("solvable LP").stats);
    RunResult {
        name: format!("exact_full_S_devex/{n}"),
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

    // (b) Warm-started engine sweep on the same Section 2.5 LP.
    eprintln!("sweep direct: engine.sweep (DirectLp template, {threads} threads) ...");
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
        "cold sequential: {:.3}s | direct warm sweep: {:.3}s ({speedup_direct:.2}x) | \
         factorized warm sweep: {:.3}s ({speedup_factor:.2}x)",
        cold_ns as f64 / 1e9,
        direct_ns as f64 / 1e9,
        factor_ns as f64 / 1e9,
    );

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
/// both simplex forms ([`privmech_lp::SolverForm::Dense`] and
/// [`privmech_lp::SolverForm::Revised`]), asserting the PR 4 contract —
/// bit-identical mechanism, loss and pivot statistics (identical pivot
/// counts are the visible consequence of the identical pivot *sequence*) —
/// and recording the revised-over-dense speedup.
///
/// Since PR 6 this smoke also covers the *certificate-verified* tier of the
/// contract: a devex-priced solve (every devex solve is checked against the
/// exact optimality certificate inside the solver before it is released) and
/// a small dual-simplex warm-started α-sweep (every warm reoptimization is
/// certificate-checked the same way), both asserted to land on the default
/// path's optimal loss.
fn run_compare_forms(n: usize) -> String {
    use privmech_lp::{PricingRule, SolverForm, SolverOptions, WarmStartMode};
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
        .solve(&with_form(SolverForm::Revised))
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

    // Certificate tier 1: devex pricing. A different pivot sequence, so
    // equality is at the solution level — the internal certificate proves
    // optimality, loss equality proves it is *the* optimum.
    eprintln!("compare-forms: devex-priced (certificate-verified) exact solve at n = {n} ...");
    let start = Instant::now();
    let devex = engine
        .solve(
            &direct_request(level.clone(), bench_consumer(n)).with_options(SolverOptions {
                pricing: PricingRule::Devex,
                ..SolverOptions::default()
            }),
        )
        .expect("solvable LP");
    let devex_ns = start.elapsed().as_nanos();
    assert_eq!(
        dense.loss, devex.loss,
        "devex optimum must match the default-path optimal loss"
    );
    assert!(devex.stats.devex_pivots > 0, "devex pricing must engage");

    // Certificate tier 2: a small dual-simplex warm-started sweep. Each warm
    // reoptimization is certificate-checked inside the solver; each level's
    // loss must equal an independent cold solve's.
    let warm_points = 4usize;
    eprintln!("compare-forms: {warm_points}-α dual-simplex warm sweep (certificate-verified) ...");
    let warm_levels: Vec<PrivacyLevel<Rational>> = (1..=warm_points)
        .map(|k| PrivacyLevel::new(rat(k as i64, warm_points as i64 + 1)).expect("alpha in (0,1)"))
        .collect();
    let warm_req =
        direct_request(warm_levels[0].clone(), bench_consumer(n)).with_options(SolverOptions {
            warm_start: WarmStartMode::DualSimplex,
            ..SolverOptions::default()
        });
    let warm = engine.sweep(&warm_levels, &warm_req).expect("sweepable LP");
    for (warm_level, w) in warm_levels.iter().zip(&warm) {
        let cold = engine
            .solve(&direct_request(warm_level.clone(), bench_consumer(n)))
            .expect("solvable LP");
        assert_eq!(
            cold.loss, w.loss,
            "warm-started sweep must match cold optima at the solution level"
        );
        assert!(
            w.mechanism.is_differentially_private(warm_level),
            "warm sweep mechanism must be α-DP"
        );
    }

    let speedup = dense_ns as f64 / revised_ns as f64;
    eprintln!(
        "dense: {:.3}s | revised: {:.3}s ({speedup:.2}x) | devex: {:.3}s | pivots {} (identical)",
        dense_ns as f64 / 1e9,
        revised_ns as f64 / 1e9,
        devex_ns as f64 / 1e9,
        dense.stats.total_pivots(),
    );

    format!(
        "\"compare_forms\": {{\"n\": {n}, \"scalar\": \"rational\", \
         \"dense_ns\": {dense_ns}, \"revised_ns\": {revised_ns}, \
         \"speedup_revised\": {speedup:.4}, \"pivots\": {}, \"bit_identical\": true, \
         \"devex_ns\": {devex_ns}, \"devex_loss_identical\": true, \
         \"warm_sweep_points\": {warm_points}, \"warm_losses_identical\": true, \
         \"certified\": true}}",
        dense.stats.total_pivots()
    )
}

/// The warm-start acceptance benchmark: a `points`-α exact sweep at size `n`
/// solved (a) cold — sequential per-α `DirectLp` engine solves, each starting
/// from scratch — and (b) by the same engine's sweep with
/// [`privmech_lp::WarmStartMode::DualSimplex`], which chains each α's final
/// basis into the next solve. Both passes run `reps` times and report the
/// median total. Every warm reoptimization is certificate-verified inside the
/// solver; on top of that each level's warm loss is asserted equal to the
/// cold optimum (the solution-level sweep ≡ solve guarantee), and the per-α
/// pivot counts go into the record so it shows *where* the warm path
/// reoptimized instead of re-solving. `PRIVMECH_SWEEP_QUICK=1` shrinks the
/// workload to CI smoke size.
fn run_warm_sweep(n: usize, points: usize, reps: usize) -> String {
    use privmech_lp::{SolverOptions, WarmStartMode};
    let quick = std::env::var("PRIVMECH_SWEEP_QUICK").is_ok_and(|v| v == "1");
    let (n, points, reps) = if quick {
        (4, 6, 1)
    } else {
        (n, points, reps.max(1))
    };
    let levels: Vec<PrivacyLevel<Rational>> = (1..=points)
        .map(|k| PrivacyLevel::new(rat(k as i64, points as i64 + 1)).expect("alpha in (0,1)"))
        .collect();
    let consumer: MinimaxConsumer<Rational> = bench_consumer(n);
    // One worker: warm starts chain along the α axis, so the comparison is
    // sequential-vs-sequential and isolates the reoptimization saving.
    let engine = PrivacyEngine::with_threads(1);

    eprintln!("warm-sweep cold: {reps}x {points} sequential cold DirectLp solves at n = {n} ...");
    let mut cold_totals = Vec::with_capacity(reps);
    let mut cold_results = Vec::new();
    for rep in 0..reps {
        let start = Instant::now();
        let results: Vec<_> = levels
            .iter()
            .map(|level| {
                engine
                    .solve(&direct_request(level.clone(), consumer.clone()))
                    .expect("solvable LP")
            })
            .collect();
        cold_totals.push(start.elapsed().as_nanos());
        if rep == 0 {
            cold_results = results;
        }
    }
    cold_totals.sort_unstable();
    let cold_ns = cold_totals[cold_totals.len() / 2];

    eprintln!("warm-sweep warm: {reps}x engine.sweep with dual-simplex warm starts ...");
    let warm_req =
        direct_request(levels[0].clone(), consumer.clone()).with_options(SolverOptions {
            warm_start: WarmStartMode::DualSimplex,
            ..SolverOptions::default()
        });
    let mut warm_totals = Vec::with_capacity(reps);
    let mut warm_results = Vec::new();
    for rep in 0..reps {
        let start = Instant::now();
        let results = engine.sweep(&levels, &warm_req).expect("sweepable LP");
        warm_totals.push(start.elapsed().as_nanos());
        if rep == 0 {
            warm_results = results;
        }
    }
    warm_totals.sort_unstable();
    let warm_ns = warm_totals[warm_totals.len() / 2];

    // Solution-level sweep ≡ solve: equal optimal losses, α-DP mechanisms.
    // (The optimal vertex itself may differ under degeneracy — that is the
    // documented weakening of the warm-start guarantee; each warm solve was
    // already certificate-verified inside the solver.)
    let mut per_alpha = String::new();
    let mut warm_hits = 0usize;
    for (k, ((level, c), w)) in levels
        .iter()
        .zip(&cold_results)
        .zip(&warm_results)
        .enumerate()
    {
        assert_eq!(
            c.loss,
            w.loss,
            "warm sweep must match the cold optimum at alpha {}",
            level.alpha()
        );
        assert!(
            w.mechanism.is_differentially_private(level),
            "warm sweep mechanism must be α-DP"
        );
        // A warm hit skipped phase 1 entirely (no artificials, no rebuild).
        if w.stats.phase1_pivots == 0 {
            warm_hits += 1;
        }
        if k > 0 {
            per_alpha.push_str(", ");
        }
        per_alpha.push_str(&format!(
            "{{\"alpha\": \"{}\", \"cold_pivots\": {}, \"warm_pivots\": {}, \
             \"warm_dual_pivots\": {}}}",
            level.alpha(),
            c.stats.total_pivots(),
            w.stats.total_pivots(),
            w.stats.dual_pivots,
        ));
    }
    assert!(
        warm_hits > 0,
        "at least one level must actually reoptimize from the previous basis"
    );

    let speedup = cold_ns as f64 / warm_ns as f64;
    eprintln!(
        "cold sequential: {:.3}s | warm sweep: {:.3}s ({speedup:.2}x) | \
         {warm_hits}/{points} levels warm-started",
        cold_ns as f64 / 1e9,
        warm_ns as f64 / 1e9,
    );

    format!(
        "\"warm_sweep\": {{\"n\": {n}, \"points\": {points}, \
         \"reps\": {reps}, \"scalar\": \"rational\", \
         \"cold_sequential_ns\": {cold_ns}, \"warm_sweep_ns\": {warm_ns}, \
         \"speedup_warm\": {speedup:.4}, \"warm_started_levels\": {warm_hits}, \
         \"losses_identical\": true, \"per_alpha\": [{per_alpha}]}}"
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
    let revised = run_pass(SolverForm::Revised);
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

/// The serving-layer acceptance benchmark: `points` distinct exact solves at
/// size `n` driven through a real `privmech-serve` TCP round trip, cold
/// (every request misses) vs cached (`repeat` hot passes, every request
/// hits), with the cached ≡ uncached byte identity asserted per request.
fn run_serve(n: usize, points: usize, repeat: usize) -> String {
    use privmech_serve::proto::{CacheDisposition, CacheMode, ConsumerSpec, LossSpec};
    use privmech_serve::{client::Client, server, server::ServerConfig};

    if points == 0 || repeat == 0 {
        eprintln!("--serve-points and --serve-repeat must be at least 1");
        std::process::exit(2);
    }
    let handle = server::spawn(ServerConfig::default()).expect("bind loopback");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let spec = ConsumerSpec::<Rational>::minimax(n, LossSpec::Absolute);
    let alphas: Vec<Rational> = (1..=points)
        .map(|k| rat(k as i64, points as i64 + 1))
        .collect();

    // Cold pass: every request computes and populates the cache.
    eprintln!("serve cold: {points} distinct solves at n = {n} over TCP ...");
    let start = Instant::now();
    let cold_replies: Vec<_> = alphas
        .iter()
        .map(|alpha| client.solve(&spec, alpha, CacheMode::Use).expect("solve"))
        .collect();
    let cold_ns = start.elapsed().as_nanos();
    assert!(
        cold_replies
            .iter()
            .all(|r| r.cache == CacheDisposition::Miss),
        "cold pass must miss on every distinct request"
    );

    // Hot passes: the same requests, answered from the cache.
    eprintln!("serve cached: {repeat} hot passes over the same {points} requests ...");
    let start = Instant::now();
    let mut hits = 0usize;
    for _ in 0..repeat {
        for (alpha, cold) in alphas.iter().zip(&cold_replies) {
            let reply = client.solve(&spec, alpha, CacheMode::Use).expect("solve");
            assert_eq!(reply.cache, CacheDisposition::Hit, "hot pass must hit");
            assert_eq!(
                reply.raw, cold.raw,
                "cached response must be byte-identical to the cold solve"
            );
            hits += 1;
        }
    }
    let cached_ns = start.elapsed().as_nanos();

    // Runtime bit-identity against *fresh* solves: bypass the cache entirely
    // and compare bytes.
    eprintln!("serve verify: cache-bypassing fresh solves vs cached responses ...");
    for (alpha, cold) in alphas.iter().zip(&cold_replies) {
        let fresh = client
            .solve(&spec, alpha, CacheMode::Bypass)
            .expect("bypass solve");
        assert_eq!(
            fresh.raw, cold.raw,
            "uncached engine solve must render byte-identically"
        );
    }
    let stats = client.cache_stats().expect("stats");
    assert_eq!(stats.misses as usize, points);
    assert_eq!(stats.hits as usize, hits);
    print_metrics(&mut client);
    client.shutdown().expect("shutdown");
    handle.join();

    let cold_per = cold_ns as f64 / points as f64;
    let cached_per = cached_ns as f64 / (points * repeat) as f64;
    let speedup = cold_per / cached_per;
    eprintln!(
        "cold: {:.3}ms/request | cached: {:.4}ms/request | {speedup:.1}x",
        cold_per / 1e6,
        cached_per / 1e6,
    );
    assert!(
        speedup >= 5.0,
        "acceptance: cached serving must be at least 5x cold, got {speedup:.2}x"
    );

    format!(
        "\"serve\": {{\"n\": {n}, \"points\": {points}, \
         \"repeat\": {repeat}, \"scalar\": \"rational\", \"transport\": \"tcp-loopback\", \
         \"cold_ns\": {cold_ns}, \"cached_ns\": {cached_ns}, \
         \"cold_per_request_ns\": {cold_per:.0}, \"cached_per_request_ns\": {cached_per:.0}, \
         \"speedup_cached\": {speedup:.4}, \"bit_identical\": true, \
         \"cache_hits\": {}, \"cache_misses\": {}}}",
        stats.hits, stats.misses
    )
}

/// Print the server's per-op latency histograms (the `metrics` op) to
/// stderr, next to the hit/miss counters the `--serve` modes already report.
fn print_metrics(client: &mut privmech_serve::client::Client) {
    use privmech_serve::json::Json;
    let Ok(metrics) = client.metrics() else {
        eprintln!("metrics op unavailable");
        return;
    };
    let Some(Json::Obj(ops)) = metrics.get("ops").cloned() else {
        return;
    };
    eprintln!("server latency histograms (metrics op):");
    for (op, histogram) in ops {
        let count = histogram.get("count").and_then(Json::as_u64).unwrap_or(0);
        let total_ns = histogram
            .get("total_ns")
            .and_then(Json::as_u64)
            .unwrap_or(0);
        let mean_us = if count > 0 {
            total_ns as f64 / count as f64 / 1e3
        } else {
            0.0
        };
        let buckets: Vec<String> = histogram
            .get("buckets")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|b| {
                let le_ns = b.get("le_ns").and_then(Json::as_u64).unwrap_or(0);
                let c = b.get("count").and_then(Json::as_u64).unwrap_or(0);
                if le_ns == 0 {
                    format!("+inf:{c}")
                } else if le_ns >= 1_000_000 {
                    format!("<={}ms:{c}", le_ns / 1_000_000)
                } else {
                    format!("<={}us:{c}", le_ns / 1_000)
                }
            })
            .collect();
        eprintln!(
            "  {op:<9} count {count:>6}  mean {mean_us:>10.1}us  [{}]",
            buckets.join(" ")
        );
    }
}

/// The pipelining acceptance benchmark: a mixed workload — one `points`-α
/// exact sweep plus `solves` repeated solve requests at size `n` — run (a)
/// serially over strict v1 request/response and (b) pipelined over protocol
/// v2 (everything submitted up front, completions drained as they arrive),
/// on the same warmed server over loopback. Byte identity between the two
/// transports is asserted per request, and a cache-bypassing streamed sweep
/// first proves that streaming actually streams (first `sweep_item` arrives
/// in the first half of the sweep's wall-clock).
fn run_serve_pipelined(n: usize, points: usize, solves: usize) -> String {
    use privmech_serve::client::{Client, Event};
    use privmech_serve::json;
    use privmech_serve::proto::{CacheMode, ConsumerSpec, LossSpec};
    use privmech_serve::{server, server::ServerConfig};

    if points == 0 || solves == 0 {
        eprintln!("--pipeline-points and --pipeline-solves must be at least 1");
        std::process::exit(2);
    }
    let handle = server::spawn(ServerConfig::default()).expect("bind loopback");
    let addr = handle.addr();
    let spec = ConsumerSpec::<Rational>::minimax(n, LossSpec::Absolute);
    let sweep_alphas: Vec<Rational> = (1..=points)
        .map(|k| rat(k as i64, points as i64 + 1))
        .collect();
    // 8 distinct solve levels, cycled: a repeated-request workload.
    let solve_alphas: Vec<Rational> = (0..solves).map(|k| rat((k % 8) as i64 + 1, 9)).collect();

    // (a) Streaming proof, uncached: the first per-α result must arrive
    // while the rest of the sweep is still solving.
    eprintln!("pipeline streaming check: cache-bypassed {points}-α streamed sweep at n = {n} ...");
    let mut v2 = Client::connect(addr).expect("connect v2");
    assert_eq!(v2.version(), 2, "negotiation must land on v2");
    let start = Instant::now();
    let mut first_item_ns: Option<u128> = None;
    let mut streamed = 0usize;
    let mut stream = v2
        .sweep_stream(&spec, &sweep_alphas, CacheMode::Bypass)
        .expect("stream");
    for item in stream.by_ref() {
        item.expect("streamed item");
        first_item_ns.get_or_insert_with(|| start.elapsed().as_nanos());
        streamed += 1;
    }
    let done = stream.done().expect("sweep_done");
    let sweep_total_ns = start.elapsed().as_nanos();
    let first_item_ns = first_item_ns.expect("at least one item");
    assert_eq!(streamed, points);
    assert_eq!(done.count as usize, points);
    assert!(
        first_item_ns < sweep_total_ns,
        "first sweep_item must arrive before the sweep completes"
    );
    assert!(
        2 * first_item_ns < sweep_total_ns,
        "streaming: first of {points} items must land in the first half \
         (first at {first_item_ns} ns of {sweep_total_ns} ns)"
    );
    eprintln!(
        "  first sweep_item after {:.1}ms of {:.1}ms total ({:.1}% in)",
        first_item_ns as f64 / 1e6,
        sweep_total_ns as f64 / 1e6,
        100.0 * first_item_ns as f64 / sweep_total_ns as f64,
    );

    // (b) Prime the cache once (uncounted), so both timed transports run the
    // same all-hit workload and the comparison isolates transport overhead.
    eprintln!("pipeline prime: warming the cache with the full workload ...");
    let mut v1 = Client::connect_with_version(addr, 1).expect("connect v1");
    let _ = v1
        .sweep(&spec, &sweep_alphas, CacheMode::Use)
        .expect("sweep");
    for alpha in solve_alphas.iter().take(8) {
        let _ = v1.solve(&spec, alpha, CacheMode::Use).expect("solve");
    }

    // (c) Timed: serial v1 — one request in flight at a time, ever.
    eprintln!(
        "pipeline serial v1: {} wire requests ({points}-α sweep + {solves} solves) ...",
        1 + solves
    );
    let start = Instant::now();
    let v1_sweep_raw = v1
        .sweep(&spec, &sweep_alphas, CacheMode::Use)
        .expect("sweep")
        .raw;
    let v1_solve_raws: Vec<String> = solve_alphas
        .iter()
        .map(|alpha| v1.solve(&spec, alpha, CacheMode::Use).expect("solve").raw)
        .collect();
    let serial_ns = start.elapsed().as_nanos();

    // (d) Timed: pipelined v2 — submit everything, then drain completions in
    // whatever order they finish.
    eprintln!("pipeline v2: same workload, all requests in flight at once ...");
    let start = Instant::now();
    let sweep_ticket = v2
        .submit_sweep(&spec, &sweep_alphas, CacheMode::Use)
        .expect("submit sweep");
    let solve_tickets: Vec<_> = solve_alphas
        .iter()
        .map(|alpha| {
            v2.submit_solve(&spec, alpha, CacheMode::Use)
                .expect("submit solve")
        })
        .collect();
    let mut sweep_slots: Vec<Option<String>> = vec![None; points];
    let mut solve_raws: Vec<Option<String>> = vec![None; solves];
    let mut open = 1 + solves;
    while open > 0 {
        match v2.recv().expect("recv") {
            Event::Reply { ticket, response } => {
                let idx = solve_tickets
                    .iter()
                    .position(|t| *t == ticket)
                    .expect("a submitted solve");
                let result = response.get("result").expect("result");
                solve_raws[idx] = Some(json::to_string(result));
                open -= 1;
            }
            Event::SweepItem {
                ticket,
                index,
                response,
            } => {
                assert_eq!(ticket, sweep_ticket);
                let result = response.get("result").expect("result");
                sweep_slots[index] = Some(json::to_string(result));
            }
            Event::SweepDone { ticket, .. } => {
                assert_eq!(ticket, sweep_ticket);
                open -= 1;
            }
            Event::Error { error, .. } => panic!("pipelined request failed: {error}"),
        }
    }
    let pipelined_ns = start.elapsed().as_nanos();

    // (e) Byte identity between the two transports, per request.
    let v2_items: Vec<String> = sweep_slots
        .into_iter()
        .map(|s| s.expect("every index streamed"))
        .collect();
    let v2_sweep_raw = privmech_serve::proto::assemble_solves(v2_items.iter().map(String::as_str));
    assert_eq!(
        v1_sweep_raw, v2_sweep_raw,
        "v1 monolithic sweep ≡ reassembled v2 stream"
    );
    for (k, (a, b)) in v1_solve_raws.iter().zip(&solve_raws).enumerate() {
        assert_eq!(a, b.as_ref().expect("every solve answered"), "solve {k}");
    }

    let speedup = serial_ns as f64 / pipelined_ns as f64;
    eprintln!(
        "serial v1: {:.1}ms | pipelined v2: {:.1}ms | {speedup:.2}x",
        serial_ns as f64 / 1e6,
        pipelined_ns as f64 / 1e6,
    );
    assert!(
        speedup > 1.2,
        "acceptance: pipelined v2 must beat serial v1 measurably, got {speedup:.2}x"
    );
    print_metrics(&mut v2);
    v2.shutdown().expect("shutdown");
    handle.join();

    format!(
        "\"pipeline\": {{\"n\": {n}, \"scalar\": \"rational\", \
         \"transport\": \"tcp-loopback\", \"sweep_points\": {points}, \"solves\": {solves}, \
         \"wire_requests\": {}, \"alpha_solves\": {}, \
         \"serial_v1_ns\": {serial_ns}, \"pipelined_v2_ns\": {pipelined_ns}, \
         \"speedup_pipelined\": {speedup:.4}, \"bit_identical\": true, \
         \"stream_first_item_ns\": {first_item_ns}, \"stream_total_ns\": {sweep_total_ns}, \
         \"streams\": true}}",
        1 + solves,
        points + solves,
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
    let mut serve = false;
    let mut serve_n = 6usize;
    let mut serve_points = 8usize;
    let mut serve_repeat = 50usize;
    let mut serve_pipelined = false;
    let mut pipeline_n = 6usize;
    let mut pipeline_points = 16usize;
    let mut pipeline_solves = 48usize;
    let mut compare_forms = false;
    let mut compare_n = 8usize;
    let mut warm_sweep = false;
    let mut warm_n = 8usize;
    let mut warm_points = 16usize;

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
            "--warm-sweep" => warm_sweep = true,
            "--warm-n" => {
                warm_n = args
                    .next()
                    .expect("--warm-n needs a value")
                    .parse()
                    .expect("--warm-n needs an integer")
            }
            "--warm-points" => {
                warm_points = args
                    .next()
                    .expect("--warm-points needs a value")
                    .parse()
                    .expect("--warm-points needs an integer")
            }
            "--compare-n" => {
                compare_n = args
                    .next()
                    .expect("--compare-n needs a value")
                    .parse()
                    .expect("--compare-n needs an integer")
            }
            "--serve" => serve = true,
            "--serve-n" => {
                serve_n = args
                    .next()
                    .expect("--serve-n needs a value")
                    .parse()
                    .expect("--serve-n needs an integer")
            }
            "--serve-points" => {
                serve_points = args
                    .next()
                    .expect("--serve-points needs a value")
                    .parse()
                    .expect("--serve-points needs an integer")
            }
            "--serve-repeat" => {
                serve_repeat = args
                    .next()
                    .expect("--serve-repeat needs a value")
                    .parse()
                    .expect("--serve-repeat needs an integer")
            }
            "--serve-pipelined" => serve_pipelined = true,
            "--pipeline-n" => {
                pipeline_n = args
                    .next()
                    .expect("--pipeline-n needs a value")
                    .parse()
                    .expect("--pipeline-n needs an integer")
            }
            "--pipeline-points" => {
                pipeline_points = args
                    .next()
                    .expect("--pipeline-points needs a value")
                    .parse()
                    .expect("--pipeline-points needs an integer")
            }
            "--pipeline-solves" => {
                pipeline_solves = args
                    .next()
                    .expect("--pipeline-solves needs a value")
                    .parse()
                    .expect("--pipeline-solves needs an integer")
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: bench-summary [--label L] [--output PATH] [--max-n N] [--reps K] \
                     [--sweep] [--sweep-n N] [--sweep-points K] [--sweep-threads T] \
                     [--serve] [--serve-n N] [--serve-points K] [--serve-repeat R] \
                     [--serve-pipelined] [--pipeline-n N] [--pipeline-points K] \
                     [--pipeline-solves S] [--compare-forms] [--compare-n N] \
                     [--warm-sweep] [--warm-n N] [--warm-points K] \
                     [--sweep-mem] [--sweep-mem-n N] [--sweep-mem-points K]"
                );
                std::process::exit(2);
            }
        }
    }

    let body = if compare_forms {
        run_compare_forms(compare_n)
    } else if warm_sweep {
        run_warm_sweep(warm_n, warm_points, reps.min(3))
    } else if serve_pipelined {
        run_serve_pipelined(pipeline_n, pipeline_points, pipeline_solves)
    } else if serve {
        run_serve(serve_n, serve_points, serve_repeat)
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
            eprintln!("running exact_full_S_devex/{n} ...");
            results.push(run_exact_devex(n, reps));
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
