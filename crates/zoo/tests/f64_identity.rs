//! Bit-identity pins for the `f64` solver path.
//!
//! The `f64` backend runs the dense simplex tableau under Bland's rule, so
//! its answers depend on every rounding of pivot sequences that run to
//! thousands of steps. Each case here pins the exact outcome of one served
//! `f64` request, built through the public API: the pivot statistics, the
//! bits of every loss, an FNV-1a hash over the bits of every mechanism
//! entry, or the exact error text. The cases are the `f64` requests of
//! perfbench's `solve` and `zoo` lists (`perfbench/src/plan.rs`), including
//! both pinned failures, plus one unbounded and one iteration-capped
//! `DirectLp` solve. A change to the tableau's storage or row kernels that
//! moves a single rounding, pivot or error fails here.
//!
//! The `sum(rows=2, per_row=3)` tables take thousands of float pivots per LP,
//! and the rescued one and the capped solve run to the iteration cap, so
//! those cases run only in optimized builds:
//! `cargo test --release -p privmech-zoo --test f64_identity`.

use std::sync::Arc;

use privmech_core::{
    geometric_mechanism, AbsoluteError, LossFunction, Mechanism, MinimaxConsumer, PivotStats,
    PrivacyEngine, PrivacyLevel, Result, SideInformation, SolveRequest, SolveStrategy,
    SquaredError, ToleranceError, ValidatedRequest, ZeroOneError,
};
use privmech_zoo::{
    compose, ldp_gap, regret_table, tailored_optimum, AgentSpec, LdpProtocol, QueryClass,
};

type Loss = Arc<dyn LossFunction<f64> + Send + Sync>;

fn absolute() -> Loss {
    Arc::new(AbsoluteError)
}
fn squared() -> Loss {
    Arc::new(SquaredError)
}
fn zero_one() -> Loss {
    Arc::new(ZeroOneError)
}
fn tolerance(width: usize) -> Loss {
    Arc::new(ToleranceError { width })
}

/// FNV-1a over the little-endian bytes of `words`.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

fn mechanism_hash(mechanism: &Mechanism<f64>) -> u64 {
    let matrix = mechanism.matrix();
    fnv((0..matrix.rows()).flat_map(|i| matrix.row(i).iter().map(|v| v.to_bits())))
}

fn stats_text(s: &PivotStats) -> String {
    format!(
        "pivots={}/{} degenerate={} dantzig={} bland={} fallbacks={}",
        s.phase1_pivots,
        s.phase2_pivots,
        s.degenerate_pivots,
        s.dantzig_pivots,
        s.bland_pivots,
        s.fallback_activations
    )
}

fn outcome<V>(result: Result<V>, text: impl FnOnce(V) -> String) -> String {
    match result {
        Ok(value) => text(value),
        Err(e) => format!("error: {e}"),
    }
}

fn alpha(num: i64, den: i64) -> f64 {
    num as f64 / den as f64
}

fn level(num: i64, den: i64) -> PrivacyLevel<f64> {
    PrivacyLevel::new(alpha(num, den)).unwrap()
}

/// The request a wire `solve`/`sweep`/`interact` builds for a minimax
/// consumer over `members`.
fn request(
    n: usize,
    members: impl IntoIterator<Item = usize>,
    loss: Loss,
    alpha: f64,
    strategy: SolveStrategy,
) -> ValidatedRequest<f64> {
    SolveRequest::minimax()
        .support(n, members)
        .name("wire")
        .loss(loss)
        .privacy_level(alpha)
        .strategy(strategy)
        .validate()
        .unwrap()
}

fn solve_text(request: &ValidatedRequest<f64>) -> String {
    outcome(PrivacyEngine::with_threads(1).solve(request), |s| {
        format!(
            "{} loss={:016x} mechanism={:016x}",
            stats_text(&s.stats),
            s.loss.to_bits(),
            mechanism_hash(&s.mechanism)
        )
    })
}

fn sweep_text(n: usize, loss: Loss, alphas: &[(i64, i64)]) -> String {
    let levels: Vec<_> = alphas.iter().map(|&(num, den)| level(num, den)).collect();
    let request = request(n, 0..=n, loss, 0.0, SolveStrategy::default());
    outcome(
        PrivacyEngine::with_threads(1).sweep(&levels, &request),
        |solves| {
            solves
                .iter()
                .map(|s| {
                    format!(
                        "[{} loss={:016x} mechanism={:016x}]",
                        stats_text(&s.stats),
                        s.loss.to_bits(),
                        mechanism_hash(&s.mechanism)
                    )
                })
                .collect::<Vec<_>>()
                .join(" ")
        },
    )
}

fn interact_text(n: usize, loss: Loss, deployed: (i64, i64)) -> String {
    let mechanism = geometric_mechanism(n, &level(deployed.0, deployed.1)).unwrap();
    // The wire `interact` validates its consumer at level 0: the level plays
    // no role in post-processing.
    let request = request(n, 0..=n, loss, 0.0, SolveStrategy::default());
    outcome(
        PrivacyEngine::with_threads(1).interact(&mechanism, &request),
        |i| {
            format!(
                "{} loss={:016x} induced={:016x}",
                stats_text(&i.lp_stats),
                i.loss.to_bits(),
                mechanism_hash(&i.induced)
            )
        },
    )
}

/// A `zoo_table` reply's numbers, and for every consumer of a class other
/// than counts the tailored LP itself (counts go through the engine's
/// factorization route, pinned by the solve cases).
fn table_text(class: &QueryClass, at: (i64, i64), losses: Vec<Loss>) -> String {
    let level = level(at.0, at.1);
    let bound = class.result_bound();
    let consumers: Vec<_> = losses
        .into_iter()
        .enumerate()
        .map(|(i, loss)| {
            MinimaxConsumer::new(format!("c{i}"), loss, SideInformation::full(bound)).unwrap()
        })
        .collect();
    let mut text = outcome(regret_table(class, &level, &consumers), |t| {
        let bits = t
            .opt
            .iter()
            .chain(t.losses.iter().flatten())
            .chain(t.regrets.iter().flatten())
            .map(|v| v.to_bits());
        format!(
            "table={:016x} dominant={:?} pair={:?}",
            fnv(bits),
            t.dominant,
            t.non_dominated_pair
        )
    });
    if !matches!(class, QueryClass::Count { .. }) {
        for consumer in &consumers {
            text += &format!(
                " [{}]",
                outcome(tailored_optimum(class, consumer, &level), |t| format!(
                    "{} loss={:016x} mechanism={:016x}",
                    stats_text(&t.stats),
                    t.loss.to_bits(),
                    mechanism_hash(&t.mechanism)
                ))
            );
        }
    }
    text
}

fn ldp_text(protocol: LdpProtocol, users: usize, at: (i64, i64), loss: Loss) -> String {
    outcome(ldp_gap(protocol, users, &level(at.0, at.1), loss), |g| {
        format!(
            "ldp={:016x} central={:016x} gap={:016x}",
            g.ldp_loss.to_bits(),
            g.central_loss.to_bits(),
            g.gap.to_bits()
        )
    })
}

/// perfbench's `compose_body`: agent `i` has `3 + i` users, α = 1/(2 + i),
/// and alternates absolute and squared loss.
fn compose_text(agents: usize) -> String {
    let agents: Vec<_> = (0..agents)
        .map(|i| AgentSpec {
            name: format!("a{i}"),
            users: 3 + i,
            alpha: alpha(1, 2 + i as i64),
            loss: if i % 2 == 0 { absolute() } else { squared() },
        })
        .collect();
    outcome(compose(&agents), |c| {
        let bits = c
            .per_agent
            .iter()
            .map(|a| a.loss.to_bits())
            .chain([c.composed_alpha.to_bits(), c.joint_loss.to_bits()]);
        format!("composition={:016x}", fnv(bits))
    })
}

/// Assert every case's outcome. On a mismatch the message lists all of this
/// run's outcomes in the form of the literals below; only a change meant to
/// move float results may paste them in.
fn check(cases: Vec<(String, String)>, expected: &[(&str, &str)]) {
    let actual: Vec<(&str, &str)> = cases
        .iter()
        .map(|(n, t)| (n.as_str(), t.as_str()))
        .collect();
    assert!(
        actual == expected,
        "f64 outcomes moved; this run's outcomes:\n{}",
        actual
            .iter()
            .map(|(name, text)| format!("    ({name:?}, {text:?}),\n"))
            .collect::<String>()
    );
}

const SOLVE_LIST: &[(&str, &str)] = &[
    ("n=8 absolute", "pivots=157/109 degenerate=1 dantzig=0 bland=266 fallbacks=0 loss=3ff3a45f24d991fc mechanism=2be0d5f4e4dc9d17"),
    ("n=8 squared", "pivots=450/115 degenerate=244 dantzig=0 bland=565 fallbacks=0 loss=40091e26ee334a51 mechanism=76ed11d3002326d2"),
    ("n=8 zero-one", "pivots=46/36 degenerate=1 dantzig=0 bland=82 fallbacks=0 loss=3fe6308ac286e879 mechanism=053a1f0f3fe0e35a"),
    ("n=8 tolerance(2)", "pivots=98/156 degenerate=7 dantzig=0 bland=254 fallbacks=0 loss=3fcb61697c42b730 mechanism=14e668ae757b6553"),
    ("n=9 absolute", "pivots=136/262 degenerate=6 dantzig=0 bland=398 fallbacks=0 loss=3febac88897712dd mechanism=a907c34be6ae415b"),
    ("n=9 squared", "pivots=1023/380 degenerate=638 dantzig=0 bland=1403 fallbacks=0 loss=3ffb541050569f9a mechanism=f0b6fc80f6308990"),
    ("n=9 zero-one", "pivots=57/56 degenerate=6 dantzig=0 bland=113 fallbacks=0 loss=3fe224d1d9e73da3 mechanism=93fb282ba905a894"),
    ("n=9 tolerance(2)", "pivots=71/38 degenerate=9 dantzig=0 bland=109 fallbacks=0 loss=3fb2d38ab78e8889 mechanism=a135f4cd27d2ba9d"),
    ("n=10 absolute", "pivots=135/180 degenerate=1 dantzig=0 bland=315 fallbacks=0 loss=3fe0d4011faed599 mechanism=46f7fbbedf2ddfd7"),
    ("n=10 squared", "pivots=97/29 degenerate=1 dantzig=0 bland=126 fallbacks=0 loss=3feaac2e1d59e46a mechanism=af1151220ba66435"),
    ("n=10 zero-one", "pivots=68/69 degenerate=1 dantzig=0 bland=137 fallbacks=0 loss=3fd995c22d048075 mechanism=7297e8b264c66c2e"),
    ("n=10 tolerance(2)", "pivots=130/16 degenerate=17 dantzig=0 bland=146 fallbacks=0 loss=3f969dfe0885bc85 mechanism=70ac06a31005740b"),
    ("n=11 absolute", "pivots=379/431 degenerate=8 dantzig=0 bland=810 fallbacks=0 loss=3fec9d4cad1977ce mechanism=0d9f10cac552d712"),
    ("n=11 squared", "pivots=1769/1240 degenerate=215 dantzig=0 bland=3009 fallbacks=0 loss=40338252ac551fd8 mechanism=7e2320950c507fc5"),
    ("n=11 zero-one", "pivots=80/96 degenerate=7 dantzig=0 bland=176 fallbacks=0 loss=3fe23ab407a49184 mechanism=f350a959fe158bc1"),
    ("n=11 tolerance(2)", "pivots=139/43 degenerate=43 dantzig=0 bland=182 fallbacks=0 loss=3fb841efd3d01de2 mechanism=0342acce2b6a4e03"),
    ("sweep n=9 absolute", "[pivots=116/138 degenerate=1 dantzig=0 bland=254 fallbacks=0 loss=3fe0b12778556c37 mechanism=128134b059214c3e] [pivots=184/227 degenerate=4 dantzig=0 bland=411 fallbacks=0 loss=3ff1db941c8767be mechanism=d9672e914aacd273]"),
    ("sweep n=10 zero-one", "[pivots=68/70 degenerate=1 dantzig=0 bland=138 fallbacks=0 loss=3fdfef1bf9aa7dd3 mechanism=e43a0d06b8125954] [pivots=128/114 degenerate=7 dantzig=0 bland=242 fallbacks=0 loss=3fe8d8ab73a2bcee mechanism=1abd9246af088304] [pivots=68/67 degenerate=5 dantzig=0 bland=135 fallbacks=0 loss=3fd5542b0a36ba7b mechanism=be0e02ebf4216df5]"),
    ("interact n=8 absolute", "pivots=75/155 degenerate=1 dantzig=0 bland=230 fallbacks=0 loss=3fe65648445337ca induced=acbf0960a35aaae7"),
    ("interact n=11 squared", "pivots=631/438 degenerate=3 dantzig=0 bland=1069 fallbacks=0 loss=3ff54198fe881abf induced=bc127fb2a4a1a947"),
    ("pinned", "error: linear programming error: the linear program is unbounded"),
];

/// perfbench's `solve` list, `f64` entries: every loss at n = 8…11, two
/// sweeps, two interactions, and the pinned failure (float Bland pivoting
/// reports the LP unbounded).
#[test]
fn served_solve_requests_are_bit_identical() {
    let mut cases = Vec::new();
    for (n, (num, den)) in [(8, (5, 9)), (9, (2, 5)), (10, (1, 4)), (11, (2, 5))] {
        let losses = [
            ("absolute", absolute()),
            ("squared", squared()),
            ("zero-one", zero_one()),
            ("tolerance(2)", tolerance(2)),
        ];
        for (loss_name, loss) in losses {
            let r = request(n, 0..=n, loss, alpha(num, den), SolveStrategy::default());
            cases.push((format!("n={n} {loss_name}"), solve_text(&r)));
        }
    }
    let pinned = request(11, 0..=11, squared(), alpha(5, 9), SolveStrategy::default());
    cases.extend([
        (
            "sweep n=9 absolute".to_string(),
            sweep_text(9, absolute(), &[(1, 4), (1, 2)]),
        ),
        (
            "sweep n=10 zero-one".to_string(),
            sweep_text(10, zero_one(), &[(1, 3), (2, 3), (1, 5)]),
        ),
        (
            "interact n=8 absolute".to_string(),
            interact_text(8, absolute(), (1, 3)),
        ),
        (
            "interact n=11 squared".to_string(),
            interact_text(11, squared(), (1, 3)),
        ),
        ("pinned".to_string(), solve_text(&pinned)),
    ]);
    check(cases, SOLVE_LIST);
}

const UNBOUNDED: &[(&str, &str)] = &[(
    "unbounded",
    "error: linear programming error: the linear program is unbounded",
)];

/// A `DirectLp` solve that float pivoting reports unbounded.
#[test]
fn unbounded_direct_lp_is_pinned() {
    let r = request(7, 1..=6, squared(), alpha(1, 2), SolveStrategy::DirectLp);
    check(vec![("unbounded".to_string(), solve_text(&r))], UNBOUNDED);
}

#[cfg(not(debug_assertions))]
const CAPPED: &[(&str, &str)] = &[(
    "iteration cap",
    "error: linear programming error: internal solver error: simplex iteration limit exceeded",
)];

/// A `DirectLp` solve whose float pivoting runs into the iteration cap.
#[cfg(not(debug_assertions))]
#[test]
fn iteration_capped_direct_lp_is_pinned() {
    let r = request(7, 0..=7, squared(), alpha(3, 4), SolveStrategy::DirectLp);
    check(vec![("iteration cap".to_string(), solve_text(&r))], CAPPED);
}

const ZOO_LIST: &[(&str, &str)] = &[
    ("count(5)", "table=6a027d112c7f1acb dominant=[0, 2] pair=None"),
    ("count(8)", "table=1cefef241ae26a0b dominant=[0, 1] pair=None"),
    ("sum(2,2)", "table=d2267adb88c98d19 dominant=[0] pair=None [pivots=258/34 degenerate=220 dantzig=0 bland=292 fallbacks=0 loss=4006aaaaaaaacd3c mechanism=0925b7399bcb1c42] [pivots=185/0 degenerate=182 dantzig=0 bland=185 fallbacks=0 loss=0000000000000000 mechanism=285a9525ff487f78] [pivots=207/1 degenerate=201 dantzig=0 bland=208 fallbacks=0 loss=3ceb800000000055 mechanism=aad3a8634bf910dd]"),
    ("median(3,3)", "table=ff43c6595cd3872f dominant=[0] pair=None [pivots=132/12 degenerate=131 dantzig=0 bland=144 fallbacks=0 loss=3ffc000000000034 mechanism=1353a35caaf97557] [pivots=120/0 degenerate=117 dantzig=0 bland=120 fallbacks=0 loss=3d1a8fffffffffd6 mechanism=30d0b926c6ad668f]"),
    ("ldp rr", "ldp=3ff69c5c51943d32 central=3fe65648445337ca gap=3fe6e2705ed5429a"),
    ("ldp hadamard", "ldp=3fe87142c70234b5 central=3fdec4ec4ec4ec50 gap=3fd21d993f3f7d1a"),
    ("compose(1)", "composition=7cbad96baec938f8"),
    ("compose(3)", "composition=d8986cd54ec86f6c"),
];

/// perfbench's `zoo` list, `f64` entries that solve quickly: count, sum and
/// median tables, two LDP gaps and two compositions.
#[test]
fn served_zoo_requests_are_bit_identical() {
    let sum_2x2 = QueryClass::Sum {
        rows: 2,
        per_row: 2,
    };
    let median_3x3 = QueryClass::Median { rows: 3, domain: 3 };
    let cases = vec![
        (
            "count(5)".to_string(),
            table_text(
                &QueryClass::Count { n: 5 },
                (1, 2),
                vec![squared(), tolerance(2)],
            ),
        ),
        (
            "count(8)".to_string(),
            table_text(&QueryClass::Count { n: 8 }, (1, 3), vec![absolute()]),
        ),
        (
            "sum(2,2)".to_string(),
            table_text(
                &sum_2x2,
                (1, 2),
                vec![squared(), tolerance(4), tolerance(2)],
            ),
        ),
        (
            "median(3,3)".to_string(),
            table_text(&median_3x3, (1, 3), vec![squared(), tolerance(2)]),
        ),
        (
            "ldp rr".to_string(),
            ldp_text(LdpProtocol::RandomizedResponse, 8, (1, 3), absolute()),
        ),
        (
            "ldp hadamard".to_string(),
            ldp_text(LdpProtocol::Hadamard, 5, (1, 3), zero_one()),
        ),
        ("compose(1)".to_string(), compose_text(1)),
        ("compose(3)".to_string(), compose_text(3)),
    ];
    check(cases, ZOO_LIST);
}

#[cfg(not(debug_assertions))]
const SUM_TABLES: &[(&str, &str)] = &[
    ("sum(2,3) 2/3", "table=dbcc1950c34dd571 dominant=[] pair=None [pivots=3915/1660 degenerate=1938 dantzig=0 bland=5575 fallbacks=0 loss=3fe555574925adb7 mechanism=57e77a1d7603ff23]"),
    ("sum(2,3) 3/4", "table=571c69c38f765c0d dominant=[] pair=None [pivots=3766/1343 degenerate=2241 dantzig=0 bland=5109 fallbacks=0 loss=3fe800cbcb4501bc mechanism=5a512c8252cb81e6]"),
    ("pinned", "error: invalid mechanism: row 0 sums to 0.9999999988885824, expected 1 [pivots=1400/134 degenerate=1510 dantzig=115 bland=1419 fallbacks=5 loss=4019555555555556 mechanism=5685a0eb733e8755] [pivots=1109/450 degenerate=1438 dantzig=0 bland=1559 fallbacks=0 loss=3de6844b634d9847 mechanism=c3db80ebe9fb6512] [pivots=102/64 degenerate=142 dantzig=88 bland=78 fallbacks=3 loss=3fe0000000000000 mechanism=afed1325298512c8]"),
];

/// perfbench's `zoo` list, `sum(rows=2, per_row=3)` entries: the two tables
/// whose tolerance(2) LP converges in float after about 5k Bland pivots,
/// and the pinned one whose rescued mechanism fails validation.
#[cfg(not(debug_assertions))]
#[test]
fn served_sum_tables_are_bit_identical() {
    let sum_2x3 = QueryClass::Sum {
        rows: 2,
        per_row: 3,
    };
    let cases = vec![
        (
            "sum(2,3) 2/3".to_string(),
            table_text(&sum_2x3, (2, 3), vec![tolerance(2)]),
        ),
        (
            "sum(2,3) 3/4".to_string(),
            table_text(&sum_2x3, (3, 4), vec![tolerance(2)]),
        ),
        (
            "pinned".to_string(),
            table_text(
                &sum_2x3,
                (1, 2),
                vec![squared(), tolerance(4), tolerance(2)],
            ),
        ),
    ];
    check(cases, SUM_TABLES);
}
