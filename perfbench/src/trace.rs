//! The traced run: the workload's request sequence replayed in process
//! through each layer's public functions, in the server's order, with a span
//! recorded around every call.
//!
//! `json::parse` → decode (`CacheMode`/`ConsumerSpec`/`ZooRequest::from_wire`
//! plus the memo-key rendering) → `ShardedCache::get` → `to_request` /
//! `validate` → `fingerprint` → `PrivacyEngine::solve`/`sweep`/`interact` or
//! `ZooValidated::evaluate` → render → `ShardedCache::insert` →
//! `json::to_string` of the envelope → `frame::write_frame`.
//!
//! Spans (name, start, end, parent, request id) stay in memory and are
//! written out as JSON Lines when the replay ends. A layer's self time is its
//! span minus its children; the request span's own self time is the glue
//! between calls that no layer accounts for.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use privmech_core::{PivotStats, PrivacyEngine, RequestFingerprint};
use privmech_numerics::Rational;
use privmech_serve::frame::{read_frame, write_frame};
use privmech_serve::json::{self, Json};
use privmech_serve::proto::{
    assemble_solves, matrix_to_wire, mechanism_from_wire, render_interaction, render_solve,
    routing_key, split_solves, CacheMode, ConsumerSpec, WireScalar,
};
use privmech_serve::zoo::ZooRequest;
use privmech_serve::{ShardRing, ShardedCache};

use crate::gate::{levels, scalar};
use crate::plan::{Plan, Topology};

/// One recorded span.
struct Span {
    name: &'static str,
    request: u32,
    parent: Option<u32>,
    start_ns: u64,
    end_ns: u64,
}

/// The spans of a replay.
#[derive(Default)]
struct Recorder {
    spans: Vec<Span>,
    /// Index of the open request span.
    root: Option<u32>,
    request: u32,
    enabled: bool,
}

impl Recorder {
    /// Time `f` as a child span of the open request.
    fn time<R>(&mut self, epoch: Instant, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start = epoch.elapsed();
        let out = f();
        let end = epoch.elapsed();
        self.spans.push(Span {
            name,
            request: self.request,
            parent: self.root,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
        });
        out
    }
}

/// Counts gathered during the traced part of a replay.
#[derive(Default)]
struct Counts {
    requests: u64,
    frame_bytes: u64,
    lookups: u64,
    hits: u64,
    engine_calls: [u64; 2],
    engine_ns: [u64; 2],
    pivots: [u64; 2],
    bland_pivots: u64,
    degenerate_pivots: u64,
    tables: [u64; 2],
    table_ns: [u64; 2],
    evals: u64,
    eval_ns: u64,
}

/// Index 0 = exact (`Rational`), 1 = `f64`.
fn backend<T: WireScalar>() -> usize {
    usize::from(T::TAG == f64::TAG)
}

/// One server process's caches.
struct Node {
    cache: ShardedCache<Arc<str>>,
    memo: ShardedCache<Arc<str>>,
}

impl Node {
    fn new(capacity: usize) -> Self {
        // `privmech-serve` defaults: 8 cache shards per cache.
        Node {
            cache: ShardedCache::new(capacity, 8),
            memo: ShardedCache::new(capacity, 8),
        }
    }
}

struct Replay<'p> {
    plan: &'p Plan,
    nodes: Vec<Node>,
    ring: Option<ShardRing>,
    epoch: Instant,
    rec: Recorder,
    counts: Counts,
    engine: PrivacyEngine,
}

/// A per-layer metric: name, value and unit.
pub type LayerMetric = (&'static str, f64, &'static str);

/// Timed arrivals replayed (after an untraced replay of the warm-up) for
/// the Zipf workloads; `solve` and `zoo` replay one pass over their list.
const TRACED_ARRIVALS: usize = 8192;

/// Replay `plan` in process, write the spans to `spans_path`, and return the
/// per-layer metrics.
pub fn run(plan: &Plan, spans_path: &Path) -> io::Result<Vec<LayerMetric>> {
    let (nodes, ring) = match &plan.topology {
        Topology::Single(_) => (vec![Node::new(4096)], None),
        Topology::Fleet { shards, .. } => (
            (0..*shards).map(|_| Node::new(96)).collect(),
            Some(ShardRing::with_default_vnodes(*shards)),
        ),
    };
    let mut replay = Replay {
        plan,
        nodes,
        ring,
        epoch: Instant::now(),
        rec: Recorder::default(),
        counts: Counts::default(),
        engine: PrivacyEngine::with_threads(1),
    };
    // The warm-up fills the caches exactly as set-up did, untraced.
    let timed: Vec<usize> = if plan.bypass {
        plan.arrivals[0].clone()
    } else {
        for template in interleave(&plan.warmup) {
            replay.request(template);
        }
        interleave(&plan.arrivals)
            .into_iter()
            .take(TRACED_ARRIVALS)
            .collect()
    };
    let stats_before: Vec<_> = replay.nodes.iter().map(|n| n.cache.stats()).collect();
    replay.rec.enabled = true;
    replay.counts = Counts::default();
    for template in timed {
        replay.request(template);
    }
    let evictions: u64 = replay
        .nodes
        .iter()
        .zip(&stats_before)
        .map(|(node, before)| node.cache.stats().evictions - before.evictions)
        .sum();
    write_spans(&replay.rec.spans, spans_path)?;
    Ok(replay.summarize(evictions))
}

/// The two connections' sequences merged in turn, as the server sees them.
fn interleave(sequences: &[Vec<usize>; 2]) -> Vec<usize> {
    let [a, b] = sequences;
    let mut merged = Vec::with_capacity(a.len() + b.len());
    for i in 0..a.len().max(b.len()) {
        merged.extend(a.get(i));
        merged.extend(b.get(i));
    }
    merged
}

impl Replay<'_> {
    fn request(&mut self, template: usize) {
        let plan = self.plan;
        let t = &plan.templates[template];
        self.rec.request += 1;
        let id = u64::from(self.rec.request);
        let mut wire = Vec::new();
        let frame = t.frame(id, plan.bypass);
        write_frame(&mut wire, frame.as_bytes()).expect("writing to memory cannot fail");
        // The router's hop (routing key + ring) happens before the shard.
        let node = match &self.ring {
            Some(ring) => {
                let request = json::parse(&frame).expect("templates are valid JSON");
                routing_key(&request).map_or(0, |key| ring.shard_for(&key))
            }
            None => 0,
        };
        let epoch = self.epoch;
        let root = self.rec.enabled.then(|| {
            self.rec.spans.push(Span {
                name: "request",
                request: self.rec.request,
                parent: None,
                start_ns: epoch.elapsed().as_nanos() as u64,
                end_ns: 0,
            });
            (self.rec.spans.len() - 1) as u32
        });
        self.rec.root = root;
        let payload = self
            .rec
            .time(epoch, "serve.frame", || read_frame(&mut wire.as_slice()))
            .expect("frame decodes")
            .expect("one frame");
        let text = std::str::from_utf8(&payload).expect("frames are UTF-8");
        let request = self
            .rec
            .time(epoch, "serve.json.parse", || json::parse(text))
            .expect("templates are valid JSON");
        let frames = if t.scalar() == f64::TAG {
            self.handle::<f64>(node, &t.op, &request)
        } else {
            self.handle::<Rational>(node, &t.op, &request)
        };
        let mut out_bytes = 0;
        for frame in frames {
            let rendered = self
                .rec
                .time(epoch, "serve.json.render", || json::to_string(&frame));
            let mut sink = Vec::with_capacity(rendered.len() + 4);
            self.rec.time(epoch, "serve.frame", || {
                write_frame(&mut sink, rendered.as_bytes()).expect("writing to memory cannot fail")
            });
            out_bytes += sink.len() as u64;
        }
        if let Some(root) = root {
            self.rec.spans[root as usize].end_ns = epoch.elapsed().as_nanos() as u64;
            self.counts.requests += 1;
            self.counts.frame_bytes += wire.len() as u64 + out_bytes;
        }
        self.rec.root = None;
    }

    /// The server's compute path for one request; returns the frames it
    /// writes (stream items first, terminal last).
    fn handle<T: WireScalar>(&mut self, node: usize, op: &str, request: &Json) -> Vec<Json> {
        let epoch = self.epoch;
        let id = request.get("id").cloned().unwrap_or(Json::Null);
        let failed = |code: &str| {
            vec![Json::obj()
                .with("v", Json::num_u64(2))
                .with("id", id.clone())
                .with("ok", Json::Bool(false))
                .with("error", Json::obj().with("code", Json::str(code)))]
        };
        if op.starts_with("zoo_") {
            let decoded = self.rec.time(epoch, "serve.proto.decode", || {
                let mode = CacheMode::from_wire(request).ok()?;
                let parsed = ZooRequest::<T>::from_wire(op, request).ok()?;
                let canonical = parsed.canonical();
                Some((mode, parsed, canonical))
            });
            let (mode, parsed, canonical) = decoded.expect("templates decode");
            let Ok(validated) = self.rec.time(epoch, "core.validate", || parsed.validate()) else {
                return failed("validation");
            };
            let key = self.rec.time(epoch, "core.fingerprint", || {
                let fp = RequestFingerprint::from_canonical(format!("zoo-v1;{canonical}"));
                format!("{op}|{}|{}", T::TAG, fp.canonical())
            });
            let (result, cache) = self.cached(node, mode, &key, |replay| {
                let start = Instant::now();
                let span = if op == "zoo_table" {
                    "zoo.table"
                } else {
                    "zoo.eval"
                };
                let result = replay.rec.time(epoch, span, || validated.evaluate());
                let ns = start.elapsed().as_nanos() as u64;
                if replay.rec.enabled {
                    if op == "zoo_table" {
                        replay.counts.tables[backend::<T>()] += 1;
                        replay.counts.table_ns[backend::<T>()] += ns;
                    } else {
                        replay.counts.evals += 1;
                        replay.counts.eval_ns += ns;
                    }
                }
                result.ok()
            });
            return match result {
                Some(result) => one_frame(&id, result, cache),
                None => failed("evaluate"),
            };
        }

        let decoded = self.rec.time(epoch, "serve.proto.decode", || {
            let mode = CacheMode::from_wire(request).ok()?;
            let spec = ConsumerSpec::<T>::from_wire(request).ok()?;
            let spec_canonical = json::to_string(&spec.encode_onto(Json::obj()));
            let extra = match op {
                "solve" => json::to_string(&scalar::<T>(request, "alpha").ok()?.to_wire()),
                "sweep" => json::to_string(request.get("alphas")?),
                _ => String::new(),
            };
            let memo_key = format!("key|{op}|{}|{spec_canonical}|{extra}", T::TAG);
            Some((mode, spec, memo_key))
        });
        let (mode, spec, memo_key) = decoded.expect("templates decode");

        // The key-memo fast path: a memoized request skips validation.
        if mode == CacheMode::Use && op != "interact" {
            let memo = &self.nodes[node].memo;
            if let Some(key) = self
                .rec
                .time(epoch, "serve.cache.lookup", || memo.get(&memo_key))
            {
                let cache = &self.nodes[node].cache;
                let hit = self
                    .rec
                    .time(epoch, "serve.cache.lookup", || cache.get(&key));
                if self.rec.enabled {
                    self.counts.lookups += 1;
                    self.counts.hits += u64::from(hit.is_some());
                }
                if let Some(cached) = hit {
                    return self.respond(op, &id, cached, "hit");
                }
            }
        }

        // Sweeps validate their levels too; other ops carry none.
        let validated = self.rec.time(epoch, "core.validate", || match op {
            "solve" => {
                let alpha = scalar::<T>(request, "alpha").ok()?;
                Some((spec.to_request(alpha).ok()?, Vec::new()))
            }
            "sweep" => {
                let levels = levels::<T>(request).ok()?;
                Some((spec.to_request(levels[0].alpha().clone()).ok()?, levels))
            }
            _ => {
                let spec = spec.clone().with_strategy(Default::default());
                Some((spec.to_request(T::zero()).ok()?, Vec::new()))
            }
        });
        let Some((validated, levels)) = validated else {
            return failed("validation");
        };
        let mechanism = if op == "interact" {
            let decoded = self.rec.time(epoch, "serve.proto.decode", || {
                mechanism_from_wire::<T>(request.get("mechanism")?).ok()
            });
            let Some(mechanism) = decoded else {
                return failed("bad_request");
            };
            Some(mechanism)
        } else {
            None
        };
        let key = self.rec.time(epoch, "core.fingerprint", || {
            let canonical = validated.fingerprint();
            match op {
                "solve" => format!("solve|{}|{}", T::TAG, canonical.canonical()),
                "sweep" => {
                    let alphas = json::to_string(request.get("alphas").expect("decoded"));
                    format!("sweep|{}|{}|levels={alphas}", T::TAG, canonical.canonical())
                }
                _ => format!(
                    "interact|{}|{}|mech={}",
                    T::TAG,
                    canonical.canonical(),
                    json::to_string(&matrix_to_wire(
                        mechanism.as_ref().expect("decoded").matrix()
                    ))
                ),
            }
        });
        if mode == CacheMode::Use && op != "interact" {
            let memo = &self.nodes[node].memo;
            let value: Arc<str> = key.as_str().into();
            self.rec.time(epoch, "serve.cache.insert", || {
                memo.insert(&memo_key, value)
            });
        }
        let (result, cache) = self.cached(node, mode, &key, |replay| {
            let start = Instant::now();
            let engine = &replay.engine;
            let (rendered, stats) = match op {
                "solve" => {
                    let solve = replay
                        .rec
                        .time(epoch, "core.engine", || engine.solve(&validated))
                        .ok()?;
                    let rendered = replay
                        .rec
                        .time(epoch, "serve.proto.render", || render_solve(&solve));
                    (rendered, solve.stats)
                }
                "sweep" => {
                    let solves = replay
                        .rec
                        .time(epoch, "core.engine", || engine.sweep(&levels, &validated))
                        .ok()?;
                    let rendered = replay.rec.time(epoch, "serve.proto.render", || {
                        let items: Vec<String> = solves.iter().map(render_solve).collect();
                        assemble_solves(items.iter().map(String::as_str))
                    });
                    let mut stats = PivotStats::default();
                    for solve in &solves {
                        stats += &solve.stats;
                    }
                    (rendered, stats)
                }
                _ => {
                    let mechanism = mechanism.as_ref().expect("decoded");
                    let interaction = replay
                        .rec
                        .time(epoch, "core.engine", || {
                            engine.interact(mechanism, &validated)
                        })
                        .ok()?;
                    let rendered = replay.rec.time(epoch, "serve.proto.render", || {
                        render_interaction(&interaction)
                    });
                    (rendered, interaction.lp_stats)
                }
            };
            let ns = start.elapsed().as_nanos() as u64;
            if replay.rec.enabled {
                let b = backend::<T>();
                replay.counts.engine_calls[b] += 1;
                replay.counts.engine_ns[b] += ns;
                replay.counts.pivots[b] += stats.total_pivots() as u64;
                replay.counts.bland_pivots += stats.bland_pivots as u64;
                replay.counts.degenerate_pivots += stats.degenerate_pivots as u64;
            }
            Some(rendered)
        });
        match result {
            Some(result) => self.respond(op, &id, result, cache),
            None => failed("compute"),
        }
    }

    /// Answer through the response cache (or around it, under bypass).
    fn cached(
        &mut self,
        node: usize,
        mode: CacheMode,
        key: &str,
        compute: impl FnOnce(&mut Self) -> Option<String>,
    ) -> (Option<Arc<str>>, &'static str) {
        let epoch = self.epoch;
        if mode == CacheMode::Bypass {
            return (compute(self).map(Arc::from), "bypass");
        }
        let cache = &self.nodes[node].cache;
        let hit = self
            .rec
            .time(epoch, "serve.cache.lookup", || cache.get(key));
        if self.rec.enabled {
            self.counts.lookups += 1;
            self.counts.hits += u64::from(hit.is_some());
        }
        if let Some(hit) = hit {
            return (Some(hit), "hit");
        }
        let Some(rendered) = compute(self) else {
            return (None, "miss");
        };
        let rendered: Arc<str> = rendered.into();
        let cache = &self.nodes[node].cache;
        let value = Arc::clone(&rendered);
        self.rec
            .time(epoch, "serve.cache.insert", || cache.insert(key, value));
        (Some(rendered), "miss")
    }

    /// The frames of a successful reply: a sweep streams one `sweep_item`
    /// per level (split lexically from the monolithic rendering, as the
    /// server replays hits) and a terminal `sweep_done`; everything else is
    /// one envelope.
    fn respond(&mut self, op: &str, id: &Json, result: Arc<str>, cache: &str) -> Vec<Json> {
        if op != "sweep" {
            return one_frame(id, result, cache);
        }
        let items: Vec<Arc<str>> = self.rec.time(self.epoch, "serve.proto.render", || {
            split_solves(&result)
                .expect("sweep renderings split")
                .into_iter()
                .map(Arc::from)
                .collect()
        });
        let head = || {
            Json::obj()
                .with("v", Json::num_u64(2))
                .with("id", id.clone())
                .with("ok", Json::Bool(true))
        };
        let count = items.len() as u64;
        let mut frames: Vec<Json> = items
            .into_iter()
            .enumerate()
            .map(|(index, item)| {
                head()
                    .with("stream", Json::str("sweep_item"))
                    .with("index", Json::num_u64(index as u64))
                    .with("result", Json::Raw(item))
            })
            .collect();
        frames.push(
            head()
                .with("stream", Json::str("sweep_done"))
                .with("cache", Json::str(cache))
                .with("result", Json::obj().with("count", Json::num_u64(count))),
        );
        frames
    }

    fn summarize(&self, evictions: u64) -> Vec<LayerMetric> {
        let c = &self.counts;
        let requests = c.requests.max(1) as f64;
        // Self time per layer: span minus its children.
        let mut child_ns: Vec<u64> = vec![0; self.rec.spans.len()];
        for span in &self.rec.spans {
            if let Some(parent) = span.parent {
                child_ns[parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut self_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (span, children) in self.rec.spans.iter().zip(&child_ns) {
            *self_ns.entry(span.name).or_default() +=
                (span.end_ns - span.start_ns).saturating_sub(*children);
        }
        let per_req_us =
            |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64 / requests / 1e3;
        let mean_ms = |ns: u64, calls: u64| {
            if calls == 0 {
                0.0
            } else {
                ns as f64 / calls as f64 / 1e6
            }
        };
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let layer_sum: u64 = self_ns
            .iter()
            .filter(|(name, _)| **name != "request")
            .map(|(_, ns)| ns)
            .sum();
        let total_pivots = c.pivots[0] + c.pivots[1];
        let engine_calls = c.engine_calls[0] + c.engine_calls[1];
        vec![
            (
                "serve.frame.bytes_per_req",
                c.frame_bytes as f64 / requests,
                "bytes",
            ),
            (
                "serve.frame.encode_decode_us",
                per_req_us("serve.frame"),
                "us",
            ),
            ("serve.json.parse_us", per_req_us("serve.json.parse"), "us"),
            (
                "serve.json.render_us",
                per_req_us("serve.json.render"),
                "us",
            ),
            (
                "serve.proto.decode_us",
                per_req_us("serve.proto.decode"),
                "us",
            ),
            (
                "serve.proto.render_us",
                per_req_us("serve.proto.render"),
                "us",
            ),
            (
                "serve.cache.lookup_us",
                per_req_us("serve.cache.lookup"),
                "us",
            ),
            (
                "serve.cache.insert_us",
                per_req_us("serve.cache.insert"),
                "us",
            ),
            ("serve.cache.hit_ratio", ratio(c.hits, c.lookups), "ratio"),
            (
                "serve.cache.evictions_per_kreq",
                evictions as f64 * 1e3 / requests,
                "count",
            ),
            (
                "serve.server.traced_self_us",
                layer_sum as f64 / requests / 1e3,
                "us",
            ),
            ("serve.server.traced_glue_us", per_req_us("request"), "us"),
            ("core.validate_us", per_req_us("core.validate"), "us"),
            ("core.fingerprint_us", per_req_us("core.fingerprint"), "us"),
            (
                "core.engine.solve_ms.exact",
                mean_ms(c.engine_ns[0], c.engine_calls[0]),
                "ms",
            ),
            (
                "core.engine.solve_ms.f64",
                mean_ms(c.engine_ns[1], c.engine_calls[1]),
                "ms",
            ),
            (
                "lp.pivots_per_req.exact",
                ratio(c.pivots[0], c.engine_calls[0]),
                "count",
            ),
            (
                "lp.pivots_per_req.f64",
                ratio(c.pivots[1], c.engine_calls[1]),
                "count",
            ),
            (
                "lp.bland_pivots_per_req",
                ratio(c.bland_pivots, engine_calls),
                "count",
            ),
            (
                "lp.degenerate_share",
                ratio(c.degenerate_pivots, total_pivots),
                "ratio",
            ),
            (
                "zoo.table_ms.exact",
                mean_ms(c.table_ns[0], c.tables[0]),
                "ms",
            ),
            (
                "zoo.table_ms.f64",
                mean_ms(c.table_ns[1], c.tables[1]),
                "ms",
            ),
            ("zoo.eval_ms", mean_ms(c.eval_ns, c.evals), "ms"),
        ]
    }
}

/// A one-frame success reply, shaped like the server's.
fn one_frame(id: &Json, result: Arc<str>, cache: &str) -> Vec<Json> {
    vec![Json::obj()
        .with("v", Json::num_u64(2))
        .with("id", id.clone())
        .with("ok", Json::Bool(true))
        .with("cache", Json::str(cache))
        .with("result", Json::Raw(result))]
}

/// Write spans as JSON Lines.
fn write_spans(spans: &[Span], path: &Path) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for (index, span) in spans.iter().enumerate() {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"span\":{index},\"request\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            span.request, span.name, span.start_ns, span.end_ns
        )?;
    }
    out.flush()
}
