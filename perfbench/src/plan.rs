//! The three workloads as data: request templates, the seeded sequence they
//! are issued in, and the server topology they run against.
//!
//! Every workload is a closed loop: each connection keeps `window` requests
//! in flight and sends the next one only when a terminal frame comes back.
//! The seed picks the order of every sequence and nothing else: the Zipf
//! draws of `churn` and the lists of `solve` and `zoo` are fixed,
//! so every seed does the same work, which is what keeps the figures
//! comparable across seeds.

use privmech_core::PrivacyLevel;
use privmech_load::{Population, WorkloadConfig, WorkloadKind};
use privmech_numerics::Rational;
use privmech_serve::json::{self, Json};
use privmech_serve::proto::{matrix_to_wire, ConsumerSpec, LossSpec, WireScalar};
use privmech_serve::zoo::{query_to_wire, ZooAgentSpec, ZooConsumerSpec};
use privmech_zoo::{LdpProtocol, QueryClass};

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cache-churning compute mix through the router over two capped shards.
    Churn,
    /// Uncached solver-bound solve / sweep / interact list.
    Solve,
    /// Uncached zoo tables and evaluations.
    Zoo,
}

impl Workload {
    /// Parse a workload name.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "churn" => Some(Workload::Churn),
            "solve" => Some(Workload::Solve),
            "zoo" => Some(Workload::Zoo),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Churn => "churn",
            Workload::Solve => "solve",
            Workload::Zoo => "zoo",
        }
    }
}

/// The servers a workload runs against.
#[derive(Debug, Clone)]
pub enum Topology {
    /// One `privmech-serve` with these extra flags.
    Single(Vec<String>),
    /// `shards` `privmech-serve` processes with these flags behind one
    /// `privmech-router`.
    Fleet {
        shards: usize,
        shard_args: Vec<String>,
    },
}

/// One distinct request.
#[derive(Debug, Clone)]
pub struct Template {
    /// The wire op.
    pub op: String,
    /// The request body without the `v`/`id` envelope.
    pub body: Json,
    /// The rendered body minus its opening brace; a frame is
    /// `{"v":2,"id":<id>,` followed by this.
    pub tail: String,
    /// The same request with `"cache":"bypass"`, for the cached ≡ uncached
    /// check.
    pub bypass_tail: String,
    /// `Some(code)` for a known failure: the request is expected to fail with
    /// this error code.
    pub pinned: Option<&'static str>,
}

impl Template {
    fn new(body: Json, pinned: Option<&'static str>) -> Self {
        let op = body
            .get("op")
            .and_then(Json::as_str)
            .expect("every template names its op")
            .to_string();
        let rendered = json::to_string(&body);
        let bypassed = json::to_string(&body.clone().with("cache", Json::str("bypass")));
        Template {
            op,
            body,
            tail: rendered[1..].to_string(),
            bypass_tail: bypassed[1..].to_string(),
            pinned,
        }
    }

    /// The wire frame for this template under request id `id`.
    pub fn frame(&self, id: u64, bypass: bool) -> String {
        let tail = if bypass {
            &self.bypass_tail
        } else {
            &self.tail
        };
        format!("{{\"v\":2,\"id\":{id},{tail}")
    }

    /// The scalar backend tag.
    pub fn scalar(&self) -> &str {
        self.body
            .get("scalar")
            .and_then(Json::as_str)
            .unwrap_or(Rational::TAG)
    }
}

/// How the timed figures are taken (see `measure` in `main.rs`).
#[derive(Debug, Clone, Copy)]
pub enum Measure {
    /// Medians over the chunks of this many consecutive positions of one
    /// connection's sequence.
    Chunks(usize),
    /// Over each template's median latency (fixed lists walked in passes).
    Templates,
}

/// A fully built workload.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Which workload this is.
    pub workload: Workload,
    /// The distinct requests.
    pub templates: Vec<Template>,
    /// Template indices each connection sends, in order, during set-up
    /// (untimed).
    pub warmup: [Vec<usize>; 2],
    /// The timed arrival sequence of each connection (template indices),
    /// wrapping around at the end.
    pub arrivals: [Vec<usize>; 2],
    /// Requests each connection keeps in flight.
    pub window: usize,
    /// How the timed phase is summarized.
    pub measure: Measure,
    /// Servers to start.
    pub topology: Topology,
    /// Send every timed request with `"cache":"bypass"`. Otherwise every
    /// distinct template is also re-requested with `cache: bypass` after the
    /// timed phase (cached ≡ uncached).
    pub bypass: bool,
    /// The latency percentile reported as `tail_ms`.
    pub tail_quantile: f64,
    /// Known failures, sent once each after the timed phase and reported
    /// apart from the workload's own operations.
    pub pinned_probe: Vec<usize>,
}

/// Zipf draws in one block of a connection's sequence (see
/// `shuffled_blocks`); one block is one measured chunk, and holds ten
/// samples beyond its p99.
const BLOCK: usize = 1024;
/// Shuffles of the block in a connection's sequence before it wraps.
const SHUFFLES: u64 = 64;
/// Untimed prefix of `churn`'s arrivals (per connection) that fills the
/// shard caches.
const CHURN_PREFIX: usize = 2048;

/// Connection `conn`'s sequence: `SHUFFLES` shuffles, drawn from `seed`,
/// of one block of `BLOCK` Zipf draws. The draws do not depend on the seed
/// and every block holds the same requests, so every seed and every chunk
/// does the same work, and chunks differ only by how fast the host ran
/// them.
fn shuffled_blocks(population: &Population, seed: u64, conn: u64) -> Vec<usize> {
    let draws = population.sample_indices(conn, BLOCK);
    (0..SHUFFLES)
        .flat_map(|k| permutation(BLOCK, (2 * seed + conn) * SHUFFLES + k))
        .map(|i| draws[i])
        .collect()
}

/// Deal `list` to the two connections alternately.
pub fn deal(list: &[usize]) -> [Vec<usize>; 2] {
    [
        list.iter().copied().step_by(2).collect(),
        list.iter().copied().skip(1).step_by(2).collect(),
    ]
}

/// Both connections walk the same seeded permutation of `list`, the second
/// starting half way round, so the two rarely run the same request at once.
fn passes(list: &[usize], seed: u64) -> [Vec<usize>; 2] {
    let order: Vec<usize> = permutation(list.len(), seed)
        .into_iter()
        .map(|i| list[i])
        .collect();
    let mut second = order.clone();
    second.rotate_left(order.len() / 2);
    [order, second]
}

fn compute_population(seed: u64, templates: usize, max_n: usize) -> Population {
    Population::generate(&WorkloadConfig {
        seed,
        kind: WorkloadKind::Compute,
        templates,
        zipf_exponent: 1.1,
        max_n,
        solve_weight: 6,
        sweep_weight: 3,
        interact_weight: 1,
    })
}

/// Build the plan for `workload` from `seed`.
pub fn build(workload: Workload, seed: u64) -> Plan {
    match workload {
        Workload::Churn => {
            let population = compute_population(11, 1024, 5);
            let templates: Vec<Template> = population
                .templates
                .iter()
                .map(|t| Template::new(t.body.clone(), None))
                .collect();
            let arrivals = [0, 1].map(|c| shuffled_blocks(&population, seed, c));
            Plan {
                workload,
                templates,
                warmup: arrivals
                    .clone()
                    .map(|sequence| sequence[..CHURN_PREFIX].to_vec()),
                arrivals,
                window: 4,
                measure: Measure::Chunks(BLOCK),
                topology: Topology::Fleet {
                    shards: 2,
                    shard_args: vec!["--cache-capacity".into(), "96".into()],
                },
                bypass: false,
                tail_quantile: 0.99,
                pinned_probe: Vec::new(),
            }
        }
        Workload::Solve | Workload::Zoo => {
            let (templates, pinned) = match workload {
                Workload::Solve => solve_list(),
                _ => zoo_list(),
            };
            let list: Vec<usize> = (0..templates.len()).filter(|&i| i != pinned).collect();
            Plan {
                workload,
                templates,
                warmup: deal(&list),
                arrivals: passes(&list, seed),
                measure: Measure::Templates,
                window: 1,
                topology: Topology::Single(Vec::new()),
                bypass: true,
                tail_quantile: 0.9,
                pinned_probe: vec![pinned],
            }
        }
    }
}

/// A seeded Fisher–Yates permutation of `0..len` (SplitMix64 stream).
fn permutation(len: usize, seed: u64) -> Vec<usize> {
    let mut state = seed ^ 0x5EED_BE7C_0000_0000;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

fn consumer_body<T: WireScalar>(op: &str, n: usize, loss: LossSpec<T>) -> Json {
    ConsumerSpec::<T>::minimax(n, loss).encode_onto(
        Json::obj()
            .with("op", Json::str(op))
            .with("scalar", Json::str(T::TAG)),
    )
}

fn solve_body<T: WireScalar>(n: usize, loss: LossSpec<T>, alpha: (i64, i64)) -> Json {
    consumer_body("solve", n, loss).with("alpha", T::from_ratio(alpha.0, alpha.1).to_wire())
}

fn sweep_body<T: WireScalar>(n: usize, loss: LossSpec<T>, alphas: &[(i64, i64)]) -> Json {
    let alphas = alphas
        .iter()
        .map(|&(num, den)| T::from_ratio(num, den).to_wire())
        .collect();
    consumer_body("sweep", n, loss).with("alphas", Json::Arr(alphas))
}

fn interact_body<T: WireScalar>(n: usize, loss: LossSpec<T>, deployed: (i64, i64)) -> Json {
    let level = PrivacyLevel::new(T::from_ratio(deployed.0, deployed.1))
        .expect("deployed level is in (0, 1)");
    let mechanism =
        privmech_core::geometric_mechanism(n, &level).expect("geometric mechanism builds");
    consumer_body("interact", n, loss).with("mechanism", matrix_to_wire(mechanism.matrix()))
}

fn losses<T: WireScalar>() -> [LossSpec<T>; 4] {
    [
        LossSpec::Absolute,
        LossSpec::Squared,
        LossSpec::ZeroOne,
        LossSpec::Tolerance(2),
    ]
}

/// The `solve` list: every loss at n = 8…11 on both backends, plus sweeps
/// and interactions, and the pinned f64 failure (returned separately by
/// index).
fn solve_list() -> (Vec<Template>, usize) {
    let mut bodies = Vec::new();
    for (n, alpha) in [(8, (5, 9)), (9, (2, 5)), (10, (1, 4)), (11, (1, 4))] {
        for loss in losses::<Rational>() {
            bodies.push(solve_body::<Rational>(n, loss, alpha));
        }
    }
    for (n, alpha) in [(8, (5, 9)), (9, (2, 5)), (10, (1, 4)), (11, (2, 5))] {
        for loss in losses::<f64>() {
            bodies.push(solve_body::<f64>(n, loss, alpha));
        }
    }
    // Three more cheap exact requests keep the median away from the step
    // between the f64 and the exact latencies.
    bodies.push(solve_body::<Rational>(10, LossSpec::ZeroOne, (2, 5)));
    bodies.push(sweep_body::<Rational>(
        9,
        LossSpec::ZeroOne,
        &[(1, 4), (1, 2)],
    ));
    bodies.push(interact_body::<Rational>(8, LossSpec::Absolute, (1, 3)));
    bodies.push(sweep_body::<Rational>(
        8,
        LossSpec::Absolute,
        &[(1, 4), (1, 2)],
    ));
    bodies.push(sweep_body::<Rational>(
        10,
        LossSpec::ZeroOne,
        &[(1, 3), (2, 3), (1, 5)],
    ));
    bodies.push(sweep_body::<f64>(9, LossSpec::Absolute, &[(1, 4), (1, 2)]));
    bodies.push(sweep_body::<f64>(
        10,
        LossSpec::ZeroOne,
        &[(1, 3), (2, 3), (1, 5)],
    ));
    bodies.push(interact_body::<Rational>(10, LossSpec::Absolute, (1, 3)));
    bodies.push(interact_body::<Rational>(11, LossSpec::Squared, (1, 3)));
    bodies.push(interact_body::<f64>(8, LossSpec::Absolute, (1, 3)));
    bodies.push(interact_body::<f64>(11, LossSpec::Squared, (1, 3)));
    let mut templates: Vec<Template> = bodies.into_iter().map(|b| Template::new(b, None)).collect();
    // Float Bland pivoting reports this LP unbounded.
    templates.push(Template::new(
        solve_body::<f64>(11, LossSpec::Squared, (5, 9)),
        Some("lp_error"),
    ));
    let pinned = templates.len() - 1;
    (templates, pinned)
}

fn table_body<T: WireScalar>(
    query: QueryClass,
    alpha: (i64, i64),
    losses: Vec<LossSpec<T>>,
) -> Json {
    let consumers = losses
        .into_iter()
        .map(|loss| {
            ZooConsumerSpec::<T> {
                support: None,
                loss,
            }
            .to_wire()
        })
        .collect();
    Json::obj()
        .with("scalar", Json::str(T::TAG))
        .with("op", Json::str("zoo_table"))
        .with("query", query_to_wire(&query))
        .with("alpha", T::from_ratio(alpha.0, alpha.1).to_wire())
        .with("consumers", Json::Arr(consumers))
}

fn ldp_body<T: WireScalar>(
    protocol: LdpProtocol,
    users: usize,
    alpha: (i64, i64),
    loss: LossSpec<T>,
) -> Json {
    Json::obj()
        .with("scalar", Json::str(T::TAG))
        .with("op", Json::str("zoo_eval"))
        .with("scenario", Json::str("ldp"))
        .with("protocol", Json::str(protocol.name()))
        .with("users", Json::num_u64(users as u64))
        .with("alpha", T::from_ratio(alpha.0, alpha.1).to_wire())
        .with("loss", loss.to_wire())
}

fn compose_body<T: WireScalar>(agents: usize) -> Json {
    let agents = (0..agents)
        .map(|i| {
            ZooAgentSpec::<T> {
                name: format!("a{i}"),
                users: 3 + i,
                alpha: T::from_ratio(1, 2 + i as i64),
                loss: if i % 2 == 0 {
                    LossSpec::Absolute
                } else {
                    LossSpec::Squared
                },
            }
            .to_wire()
        })
        .collect();
    Json::obj()
        .with("scalar", Json::str(T::TAG))
        .with("op", Json::str("zoo_eval"))
        .with("scenario", Json::str("compose"))
        .with("agents", Json::Arr(agents))
}

const SUM_2X2: QueryClass = QueryClass::Sum {
    rows: 2,
    per_row: 2,
};
const SUM_2X3: QueryClass = QueryClass::Sum {
    rows: 2,
    per_row: 3,
};
const MEDIAN_3X3: QueryClass = QueryClass::Median { rows: 3, domain: 3 };

/// The `zoo` list: count, sum and median tables, LDP and composition
/// scenarios on both backends, two f64 rescue tables, and the pinned f64
/// failure (returned separately by index). No request takes more than
/// about a third of a pass, so every template repeats about twenty times in
/// a run.
fn zoo_list() -> (Vec<Template>, usize) {
    use LossSpec::{Absolute, Squared, Tolerance, ZeroOne};
    let count = |n| QueryClass::Count { n };
    let bodies = vec![
        table_body::<Rational>(count(5), (1, 2), vec![Absolute]),
        table_body::<Rational>(count(5), (1, 3), vec![Squared, Tolerance(2)]),
        table_body::<Rational>(count(8), (1, 3), vec![Absolute]),
        table_body::<Rational>(count(8), (1, 2), vec![Squared, Tolerance(2)]),
        table_body::<Rational>(SUM_2X2, (1, 2), vec![Absolute]),
        table_body::<Rational>(SUM_2X2, (1, 3), vec![Squared, Tolerance(2)]),
        table_body::<Rational>(SUM_2X3, (1, 3), vec![Absolute]),
        // Mid-cost exact requests: they keep the median inside a cluster of
        // like latencies instead of on the step below it.
        table_body::<Rational>(count(5), (1, 3), vec![Absolute]),
        table_body::<Rational>(SUM_2X2, (1, 3), vec![Absolute]),
        table_body::<Rational>(MEDIAN_3X3, (1, 3), vec![Absolute]),
        ldp_body::<Rational>(LdpProtocol::Hadamard, 5, (1, 3), Absolute),
        table_body::<Rational>(MEDIAN_3X3, (1, 2), vec![Absolute]),
        table_body::<Rational>(
            MEDIAN_3X3,
            (1, 3),
            vec![Squared, Tolerance(4), Tolerance(2)],
        ),
        table_body::<f64>(count(5), (1, 2), vec![Squared, Tolerance(2)]),
        table_body::<f64>(count(8), (1, 3), vec![Absolute]),
        table_body::<f64>(SUM_2X2, (1, 2), vec![Squared, Tolerance(4), Tolerance(2)]),
        table_body::<f64>(MEDIAN_3X3, (1, 3), vec![Squared, Tolerance(2)]),
        table_body::<f64>(SUM_2X3, (2, 3), vec![Tolerance(2)]),
        table_body::<f64>(SUM_2X3, (3, 4), vec![Tolerance(2)]),
        ldp_body::<Rational>(LdpProtocol::RandomizedResponse, 5, (1, 3), Absolute),
        ldp_body::<Rational>(LdpProtocol::Hadamard, 8, (1, 3), Absolute),
        ldp_body::<Rational>(LdpProtocol::RandomizedResponse, 3, (1, 2), Squared),
        ldp_body::<f64>(LdpProtocol::RandomizedResponse, 8, (1, 3), Absolute),
        ldp_body::<f64>(LdpProtocol::Hadamard, 5, (1, 3), ZeroOne),
        compose_body::<Rational>(2),
        compose_body::<Rational>(3),
        compose_body::<f64>(1),
        compose_body::<f64>(3),
    ];
    let mut templates: Vec<Template> = bodies.into_iter().map(|b| Template::new(b, None)).collect();
    // The float→exact rescue returns a mechanism whose rows sum to
    // 0.99999999889, which validation rejects.
    templates.push(Template::new(
        table_body::<f64>(SUM_2X3, (1, 2), vec![Squared, Tolerance(4), Tolerance(2)]),
        Some("invalid_mechanism"),
    ));
    let pinned = templates.len() - 1;
    (templates, pinned)
}
