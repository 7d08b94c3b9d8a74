//! The serving loop: a pipelined, multi-threaded TCP request handler over
//! [`PrivacyEngine`] with sharded LRU response caches.
//!
//! # Connection anatomy
//!
//! One **reactor thread** (the `readiness` module's `Reactor`) owns every
//! socket: sockets are nonblocking, partial frames accumulate per
//! connection until a complete frame appears, and the server's handler
//! hands each decoded request to a fixed, shared pool of **worker threads**
//! (the compute budget). Completed responses are queued on the connection's
//! outbox and pumped out as the socket turns writable, so frames never
//! interleave mid-frame and no thread ever parks on a socket. Many requests
//! from one connection can therefore be in flight at once, and replies may
//! complete — and be written — **out of order**; clients match them by the
//! request `id` they chose. A `sweep` streams: one `sweep_item` frame per
//! completed α (completion order, each carrying its input `index`, via
//! [`PrivacyEngine::sweep_with`]) and a terminal `sweep_done` frame with
//! aggregate statistics.
//!
//! Backpressure is **readiness gating**: at the per-connection in-flight cap
//! ([`ServerConfig::max_inflight_per_conn`]) the reactor drops the
//! connection's read interest — the client's sends back up into the
//! kernel's TCP receive window — and restores it as terminal frames retire.
//! A peer that stops *reading* accumulates outbox bytes instead of wedging a
//! worker on a blocking write; past `readiness::MAX_OUTBOX_BYTES` the
//! connection is torn down.
//!
//! # Caching
//!
//! Every compute op (`solve`, `sweep`, `interact`, `zoo_table`,
//! `zoo_eval`) runs one keyed step (`keyed_step`) from the request's
//! lexical key (`op|tag|canonical spec|payload`, built by
//! [`crate::proto`] and shared with the router's ring): the key memo, then,
//! without a memo entry, validation through the negative cache, then
//! exactly one response-cache lookup. Each op supplies only its validation
//! and its compute. Response-cache entries are keyed on the canonical
//! request fingerprint
//! ([`ValidatedRequest::fingerprint`](privmech_core::ValidatedRequest::fingerprint))
//! composed with the operation and scalar tag, so a cached response is
//! byte-identical to what an uncached solve of the same request would render
//! — with [`ServerConfig::verify_hits`], the server re-solves on every hit
//! and *asserts* that identity at runtime. A streaming sweep's cache entry
//! is the monolithic rendering of all its solves; a hit replays it item by
//! item, so cached and uncached streams carry byte-identical items.
//! Deterministic **validation errors** are negatively cached under their own
//! counters (see `PROTOCOL.md` § Negative caching), and
//! [`ServerConfig::cache_file`] persists both caches across restarts as
//! JSON Lines ([`crate::persist`]) — portable precisely because of the
//! bit-identity contract.

use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use privmech_core::{Mechanism, PrivacyEngine, PrivacyLevel, RequestFingerprint};
use privmech_numerics::Rational;

use crate::cache::{CacheStats, ShardedCache};
use crate::json::{self, Json};
use crate::metrics::{Metrics, TRACKED_OPS};
use crate::persist;
use crate::proto::{
    assemble_solves, decode_request, error_response, is_validation_code, lexical_key,
    matrix_to_wire, mechanism_from_wire, ok_response, render_interaction, render_solve,
    split_solves, stats_from_wire, sweep_done_frame, sweep_item_frame, wire_error_json,
    CacheDisposition, CacheMode, ComputeRequest, ConsumerSpec, StatsReply, WireError, WireScalar,
};
use crate::readiness::{ConnWriter, Doorbell, Handler, Reactor};
use crate::sys::Poller;

/// Configuration of a serving instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; use port 0 for an ephemeral port (read it back from
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads — the number of requests *computed* concurrently
    /// (connections are limited only by reactor bookkeeping, not by this
    /// pool: an idle connection costs one epoll registration and two small
    /// buffers, no thread).
    pub worker_threads: usize,
    /// Total response-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Number of cache shards (lock granularity).
    pub cache_shards: usize,
    /// Negative-cache capacity in entries for deterministic validation
    /// errors (0 disables negative caching).
    pub neg_cache_capacity: usize,
    /// Re-solve on every cache hit (positive and negative) and assert the
    /// cached response is byte-identical to the fresh one. Turns each hit
    /// into a full solve — for correctness harnesses, not production
    /// throughput.
    pub verify_hits: bool,
    /// Persist both caches to this JSON Lines file: loaded on startup,
    /// dumped on shutdown, so a restarted server keeps its hot set (entries
    /// are portable by the bit-identity contract).
    pub cache_file: Option<PathBuf>,
    /// Per-connection bound on decoded requests in flight (queued for or
    /// executing on the worker pool). At the cap the reactor drops the
    /// connection's read interest — real backpressure through the kernel's
    /// TCP receive window — and restores it as terminal frames are written,
    /// so a client pipelining thousands of requests costs bounded server
    /// memory. 0 disables the bound.
    pub max_inflight_per_conn: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            worker_threads: 4,
            cache_capacity: 4096,
            cache_shards: 8,
            neg_cache_capacity: 1024,
            verify_hits: false,
            cache_file: None,
            max_inflight_per_conn: 256,
        }
    }
}

struct Shared {
    /// Rendered `result` objects by canonical request key. Storing bytes
    /// rather than trees keeps the hit path allocation-free up to the
    /// envelope: hits splice the `Arc<str>` into the response via
    /// [`Json::Raw`].
    cache: ShardedCache<Arc<str>>,
    /// Rendered `{code, message}` error objects for deterministic validation
    /// failures, with counters separate from `cache` so error hits don't
    /// pollute the solve hit rate.
    neg_cache: ShardedCache<Arc<str>>,
    /// Response-cache keys by lexical request key
    /// ([`ComputeRequest::key`]). A response-cache key comes from the
    /// validated fingerprint, which costs a full validation pass; equal
    /// lexical keys validate to the same fingerprint, so a repeat skips
    /// validation. Misses are conservative: a differently-spelled equivalent
    /// request validates and lands on the same response key.
    key_memo: ShardedCache<Arc<str>>,
    /// Per-op latency histograms (the `metrics` op).
    metrics: Metrics,
    verify_hits: bool,
    addr: SocketAddr,
    /// Wakes and stops the reactor; also keeps the in-flight high-water
    /// mark the `stats` op reports.
    bell: Arc<Doorbell>,
    cache_file: Option<PathBuf>,
    dumped: AtomicBool,
    /// Per-connection in-flight cap ([`ServerConfig::max_inflight_per_conn`];
    /// 0 = unbounded).
    max_inflight: usize,
}

impl Shared {
    /// Dump both caches to the configured cache file, once.
    fn dump_cache_file(&self) {
        if self.dumped.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Some(path) = &self.cache_file {
            if let Err(e) = persist::dump(path, &self.cache, &self.neg_cache) {
                eprintln!(
                    "privmech-serve: cache dump to {} failed: {e}",
                    path.display()
                );
            }
        }
    }
}

/// One decoded request frame queued for the worker pool.
struct Job {
    writer: Arc<ConnWriter>,
    payload: Vec<u8>,
}

/// The server's reactor handler: every decoded frame becomes a [`Job`].
struct Dispatch {
    jobs_tx: Sender<Job>,
}

impl Handler for Dispatch {
    fn on_frame(&mut self, _: &Poller, writer: &Arc<ConnWriter>, payload: Vec<u8>) -> bool {
        // A send can only fail if every worker died; the connection closes.
        self.jobs_tx
            .send(Job {
                writer: Arc::clone(writer),
                payload,
            })
            .is_ok()
    }
}

/// A running server. Dropping the handle shuts the server down and joins its
/// threads.
pub struct ServerHandle {
    shared: Arc<Shared>,
    event: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound listen address (resolves ephemeral ports).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Current response-cache counters.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// Signal the reactor to stop and join every thread. Also invoked on
    /// drop; calling it explicitly surfaces the join.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// Block until the server stops (e.g. a client sent the `shutdown` op),
    /// then join every thread and persist the cache file if configured.
    pub fn join(mut self) {
        self.join_threads();
        self.shared.dump_cache_file();
    }

    fn join_threads(&mut self) {
        if let Some(event) = self.event.take() {
            let _ = event.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }

    fn stop_and_join(&mut self) {
        self.shared.bell.stop();
        self.join_threads();
        self.shared.dump_cache_file();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Bind and start serving; returns immediately with a handle. If a cache
/// file is configured and present, both caches are pre-loaded from it.
pub fn spawn(config: ServerConfig) -> io::Result<ServerHandle> {
    let reactor = Reactor::bind(&config.addr, config.max_inflight_per_conn, 0)?;
    let shared = Arc::new(Shared {
        cache: ShardedCache::new(config.cache_capacity, config.cache_shards),
        neg_cache: ShardedCache::new(config.neg_cache_capacity, config.cache_shards),
        key_memo: ShardedCache::new(config.cache_capacity, config.cache_shards),
        metrics: Metrics::default(),
        verify_hits: config.verify_hits,
        addr: reactor.local_addr()?,
        bell: Arc::clone(reactor.doorbell()),
        cache_file: config.cache_file.clone(),
        dumped: AtomicBool::new(false),
        max_inflight: config.max_inflight_per_conn,
    });
    if let Some(path) = &shared.cache_file {
        match persist::load(path, &shared.cache, &shared.neg_cache) {
            Ok(report) if report.results + report.errors > 0 => eprintln!(
                "privmech-serve: loaded {} result + {} error cache entries from {}",
                report.results,
                report.errors,
                path.display()
            ),
            Ok(_) => {}
            Err(e) => eprintln!(
                "privmech-serve: cache load from {} failed: {e}",
                path.display()
            ),
        }
    }

    let (jobs_tx, jobs_rx): (Sender<Job>, Receiver<Job>) = std::sync::mpsc::channel();
    let jobs_rx = Arc::new(Mutex::new(jobs_rx));
    let workers: Vec<JoinHandle<()>> = (0..config.worker_threads.max(1))
        .map(|_| {
            let jobs_rx = Arc::clone(&jobs_rx);
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || loop {
                let job = {
                    let guard = jobs_rx.lock().expect("job queue poisoned");
                    guard.recv()
                };
                match job {
                    Ok(job) => {
                        if run_job(&shared, &job) {
                            shared.bell.stop();
                        }
                    }
                    Err(_) => break, // the reactor is gone
                }
            })
        })
        .collect();

    // Dropping the handler's `jobs_tx` when the reactor returns lets the
    // worker pool drain out.
    let event = std::thread::spawn(move || reactor.run(&mut Dispatch { jobs_tx }));

    Ok(ServerHandle {
        shared,
        event: Some(event),
        workers,
    })
}

/// Handle one queued request on a worker thread; returns whether the server
/// should stop afterwards.
fn run_job(shared: &Arc<Shared>, job: &Job) -> bool {
    // A request whose connection writer is already dead (outbox overflow, or
    // a socket error seen by the reactor) can never deliver a byte: skip the
    // compute instead of burning a worker on it.
    if job.writer.is_dead() {
        job.writer.release();
        return false;
    }
    let start = Instant::now();
    // A panicking handler (a solver bug, a pathological input that slipped
    // past validation) must cost one response, not the worker thread.
    // Handlers never hold cache or writer locks across compute, so unwinding
    // here cannot poison shared state.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        handle_payload(shared, &job.writer, &job.payload)
    }));
    let (op, terminal, stop) = outcome.unwrap_or_else(|_| {
        // Recover the request's id from the payload (parsing cannot panic)
        // so a pipelined client can correlate the failure with its ticket
        // instead of mistaking it for a connection-level error.
        let id = std::str::from_utf8(&job.payload)
            .ok()
            .and_then(|text| json::parse(text).ok())
            .and_then(|request| request.get("id").cloned())
            .unwrap_or(Json::Null);
        let frame = error_response(
            id,
            wire_error_json(&WireError::new("internal", "request handler panicked")),
            None,
        );
        (None, frame, false)
    });
    // Record the latency *before* the terminal write: a client that has read
    // this request's terminal frame must observe its sample in any later
    // `metrics` reply, no matter which worker answers it.
    if let Some(op) = op {
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        shared.metrics.record(op, ns);
    }
    let _ = job.writer.send_terminal(&terminal);
    stop
}

/// A computation failure plus its (negative-)cache disposition.
struct ComputeError {
    /// Rendered or tree-form `{code, message}` object.
    error: Json,
    cache: Option<CacheDisposition>,
}

impl From<WireError> for ComputeError {
    fn from(e: WireError) -> Self {
        ComputeError {
            error: wire_error_json(&e),
            cache: None,
        }
    }
}

/// Handle one raw frame payload, writing any *non-terminal* frames it
/// produces (`sweep_item`s); returns the op name (for metrics), the
/// **terminal** response frame — written by the caller *after* recording
/// metrics, so a client that has seen a request's terminal frame is
/// guaranteed to observe its latency in a subsequent `metrics` call — and
/// whether the server should stop.
fn handle_payload(
    shared: &Arc<Shared>,
    writer: &Arc<ConnWriter>,
    payload: &[u8],
) -> (Option<&'static str>, Json, bool) {
    let (request, id) = match decode_request(payload) {
        Ok(decoded) => decoded,
        Err(frame) => return (None, frame, false),
    };
    let op = request.get("op").and_then(Json::as_str).unwrap_or("");
    // A `stats` probe reports the in-flight peak, so it must not raise it:
    // an idle server's first probe reads 0.
    if op != "stats" {
        writer.record_depth();
    }
    match op {
        "ping" => (
            Some("ping"),
            ok_response(id, None, Json::obj().with("pong", Json::Bool(true))),
            false,
        ),
        "stats" => {
            let stats = StatsReply::new(
                &shared.cache.stats(),
                &shared.neg_cache.stats(),
                shared.max_inflight as u64,
                shared.bell.inflight_peak(),
            );
            (Some("stats"), ok_response(id, None, stats.to_wire()), false)
        }
        "metrics" => {
            // `reset: true` returns the snapshot and zeroes the histograms
            // in one op, giving back-to-back load runs clean measurement
            // windows (see PROTOCOL.md § metrics).
            let result = if request.get("reset").and_then(Json::as_bool) == Some(true) {
                shared.metrics.snapshot_and_reset()
            } else {
                shared.metrics.to_wire()
            };
            (Some("metrics"), ok_response(id, None, result), false)
        }
        "shutdown" => (
            Some("shutdown"),
            ok_response(id, None, Json::obj().with("stopping", Json::Bool(true))),
            true,
        ),
        "solve" | "sweep" | "interact" | "zoo_table" | "zoo_eval" => {
            let op = TRACKED_OPS
                .iter()
                .copied()
                .find(|&tracked| tracked == op)
                .expect("every compute op is tracked");
            let outcome = match request.get("scalar").and_then(Json::as_str) {
                Some("rational") | None => {
                    handle_compute::<Rational>(shared, writer, op, &id, &request)
                }
                Some("f64") => handle_compute::<f64>(shared, writer, op, &id, &request),
                Some(other) => Err(ComputeError::from(WireError::new(
                    "unsupported_scalar",
                    format!("unknown scalar backend \"{other}\""),
                ))),
            };
            let terminal = outcome.unwrap_or_else(|e| error_response(id, e.error, e.cache));
            (Some(op), terminal, false)
        }
        other => {
            let error = if other.is_empty() {
                WireError::bad_request("request needs an \"op\"")
            } else {
                WireError::new("unknown_op", format!("unknown op \"{other}\""))
            };
            (
                None,
                error_response(id, wire_error_json(&error), None),
                false,
            )
        }
    }
}

/// Validation's access to the negative cache: none under `cache: "bypass"`
/// and for a memoized key, whose spelling validated before.
struct Gate<'a>(Option<&'a Shared>);

impl Gate<'_> {
    /// Run one validation stage. Deterministic failures
    /// ([`is_validation_code`]) are cached under `neg|` + `key`, the lexical
    /// key of what the stage validates, and replayed byte-identically — with
    /// `verify_hits`, re-validated first.
    fn check<X>(
        &self,
        key: &str,
        validate: impl FnOnce() -> Result<X, WireError>,
    ) -> Result<X, ComputeError> {
        let Some(shared) = self.0 else {
            return Ok(validate()?);
        };
        let neg_key = format!("neg|{key}");
        if let Some(cached) = shared.neg_cache.get(&neg_key) {
            if shared.verify_hits {
                let fresh = match validate() {
                    Err(e) => json::to_string(&wire_error_json(&e)),
                    Ok(_) => String::new(), // a now-valid request can never match
                };
                if fresh != *cached {
                    return Err(ComputeError::from(WireError::new(
                        "cache_verify_failed",
                        "cached validation error is not identical to fresh validation",
                    )));
                }
            }
            return Err(ComputeError {
                error: Json::Raw(cached),
                cache: Some(CacheDisposition::Hit),
            });
        }
        match validate() {
            Ok(x) => Ok(x),
            Err(e) if is_validation_code(e.code) => {
                let rendered: Arc<str> = json::to_string(&wire_error_json(&e)).into();
                shared.neg_cache.insert(&neg_key, Arc::clone(&rendered));
                Err(ComputeError {
                    error: Json::Raw(rendered),
                    cache: Some(CacheDisposition::Miss),
                })
            }
            Err(e) => Err(ComputeError::from(e)),
        }
    }
}

/// How [`keyed_step`] answered: a cached rendering (verified under
/// `verify_hits`), or a validated request to compute, with the
/// response-cache key to record it under (none under `cache: "bypass"`).
enum Keyed<V> {
    Hit(Arc<str>),
    Miss(V, Option<Arc<str>>),
}

/// The one keyed step of every compute op: (1) the key memo, read by the
/// lexical request key except under `verify_hits` or `cache: "bypass"`;
/// (2) without a memo entry, `validate` through the negative cache, which
/// yields the response-cache key and writes the memo; (3) exactly one
/// response-cache lookup. A memoized key whose entry was evicted validates
/// again, outside the negative cache. `fresh` re-renders a verified hit.
fn keyed_step<V>(
    shared: &Shared,
    mode: CacheMode,
    key: &str,
    validate: impl Fn(&Gate<'_>) -> Result<(String, V), ComputeError>,
    fresh: impl FnOnce(&V) -> Result<String, WireError>,
) -> Result<Keyed<V>, ComputeError> {
    if mode == CacheMode::Bypass {
        let (_, valid) = validate(&Gate(None))?;
        return Ok(Keyed::Miss(valid, None));
    }
    let memoized = if shared.verify_hits {
        None
    } else {
        shared.key_memo.get(key)
    };
    let (response_key, valid) = match memoized {
        Some(response_key) => (response_key, None),
        None => {
            let (response_key, valid) = validate(&Gate(Some(shared)))?;
            let response_key: Arc<str> = response_key.into();
            shared.key_memo.insert(key, Arc::clone(&response_key));
            (response_key, Some(valid))
        }
    };
    if let Some(cached) = shared.cache.get(&response_key) {
        if shared.verify_hits {
            let valid = valid.as_ref().expect("verify_hits skips the key memo");
            if fresh(valid)? != *cached {
                return Err(ComputeError::from(WireError::new(
                    "cache_verify_failed",
                    "cached response is not byte-identical to a fresh computation",
                )));
            }
        }
        return Ok(Keyed::Hit(cached));
    }
    let valid = match valid {
        Some(valid) => valid,
        None => validate(&Gate(None))?.1,
    };
    Ok(Keyed::Miss(valid, Some(response_key)))
}

/// Record a computed rendering under its response-cache key, if any, and
/// return the reply's disposition.
fn record(shared: &Shared, response_key: Option<Arc<str>>, rendered: Arc<str>) -> CacheDisposition {
    match response_key {
        Some(key) => {
            shared.cache.insert(&key, rendered);
            CacheDisposition::Miss
        }
        None => CacheDisposition::Bypass,
    }
}

/// [`keyed_step`] for every op but `sweep`: `compute` renders the result
/// once, and the same string becomes the cache entry and the reply bytes.
fn serve_result<V>(
    shared: &Shared,
    id: &Json,
    mode: CacheMode,
    key: &str,
    validate: impl Fn(&Gate<'_>) -> Result<(String, V), ComputeError>,
    compute: impl Fn(&V) -> Result<String, WireError>,
) -> Result<Json, ComputeError> {
    let (result, disposition) = match keyed_step(shared, mode, key, validate, &compute)? {
        Keyed::Hit(cached) => (cached, CacheDisposition::Hit),
        Keyed::Miss(valid, response_key) => {
            let rendered: Arc<str> = compute(&valid)?.into();
            (
                Arc::clone(&rendered),
                record(shared, response_key, rendered),
            )
        }
    };
    Ok(ok_response(
        id.clone(),
        Some(disposition),
        Json::Raw(result),
    ))
}

/// One compute op through [`keyed_step`], returning its **terminal** frame
/// (`sweep_item` frames are written through `writer` as they complete).
fn handle_compute<T: WireScalar>(
    shared: &Shared,
    writer: &Arc<ConnWriter>,
    op: &'static str,
    id: &Json,
    request: &Json,
) -> Result<Json, ComputeError> {
    let mode = CacheMode::from_wire(request)?;
    let compute = ComputeRequest::<T>::from_wire(op, request)?;
    if let ComputeRequest::Sweep { alphas: [], .. } = compute {
        // Nothing to compute or cache; report the disposition the client
        // asked for rather than a miss that never counted.
        let disposition = match mode {
            CacheMode::Bypass => CacheDisposition::Bypass,
            CacheMode::Use => CacheDisposition::Miss,
        };
        return Ok(sweep_done_frame(id, disposition, 0, &Default::default()));
    }
    let key = compute.key();
    // One thread per sweep: request-level parallelism is the worker pool's.
    let engine = PrivacyEngine::with_threads(1);
    match compute {
        ComputeRequest::Solve { spec, alpha } => serve_result(
            shared,
            id,
            mode,
            &key,
            |gate| {
                let validated = gate.check(&key, || spec.to_request(alpha.clone()))?;
                let response_key =
                    format!("solve|{}|{}", T::TAG, validated.fingerprint().canonical());
                Ok((response_key, validated))
            },
            |validated| Ok(render_solve(&engine.solve(validated)?)),
        ),
        ComputeRequest::Sweep { spec, alphas } => {
            handle_sweep(shared, writer, id, mode, &key, &spec, alphas)
        }
        ComputeRequest::Interact { spec, mechanism } => serve_result(
            shared,
            id,
            mode,
            &key,
            |gate| {
                let mechanism = gate.check(&key, || {
                    let mechanism: Mechanism<T> = mechanism_from_wire(mechanism)?;
                    if mechanism.n() != spec.n {
                        // Deliberately *not* negative-cached: bad_request is
                        // a schema-level code, outside `is_validation_code`.
                        return Err(WireError::bad_request(format!(
                            "mechanism is for n = {}, request says n = {}",
                            mechanism.n(),
                            spec.n
                        )));
                    }
                    Ok(mechanism)
                })?;
                // The privacy level plays no role in post-processing (the
                // deployed mechanism already embodies it) and the strategy
                // is not consulted; both are normalized out of the cache
                // key, and the consumer validates under its own key.
                let spec = spec.clone().with_strategy(Default::default());
                let consumer = spec.canonical();
                let consumer = lexical_key("interact", T::TAG, &consumer, Some("consumer"));
                let validated = gate.check(&consumer, || spec.to_request(T::zero()))?;
                let response_key = format!(
                    "interact|{}|{}|mech={}",
                    T::TAG,
                    validated.fingerprint().canonical(),
                    json::to_string(&matrix_to_wire(mechanism.matrix()))
                );
                Ok((response_key, (mechanism, validated)))
            },
            |(mechanism, validated)| {
                Ok(render_interaction(&engine.interact(mechanism, validated)?))
            },
        ),
        // Zoo entries are keyed on the scenario's canonical form wrapped in
        // a `RequestFingerprint`, the way solves are, so every spelling of a
        // scenario shares one entry.
        ComputeRequest::Zoo(scenario) => serve_result(
            shared,
            id,
            mode,
            &key,
            |gate| {
                let validated = gate.check(&format!("{key}|-"), || scenario.validate())?;
                let canonical = format!("zoo-v1;{}", scenario.canonical());
                let fingerprint = RequestFingerprint::from_canonical(canonical);
                let response_key = format!("{op}|{}|{}", T::TAG, fingerprint.canonical());
                Ok((response_key, validated))
            },
            |validated| validated.evaluate(),
        ),
    }
}

/// The `sweep` op: a stream of `sweep_item` frames (completion order, via
/// [`PrivacyEngine::sweep_with`]) closed by `sweep_done`. The cache entry is
/// the monolithic rendering of every solve, which a hit replays item by
/// item, so cached ≡ uncached, byte for byte, per solve.
fn handle_sweep<T: WireScalar>(
    shared: &Shared,
    writer: &Arc<ConnWriter>,
    id: &Json,
    mode: CacheMode,
    key: &str,
    spec: &ConsumerSpec<T>,
    alphas: &[Json],
) -> Result<Json, ComputeError> {
    // One thread per sweep: request-level parallelism is the worker pool's.
    let engine = PrivacyEngine::with_threads(1);
    // Levels and the consumer validate together: a bad α at any position,
    // or a bad spec, is one deterministic rejection.
    let validate = |gate: &Gate<'_>| {
        let (levels, validated) = gate.check(key, || {
            let mut levels: Vec<PrivacyLevel<T>> = Vec::with_capacity(alphas.len());
            for value in alphas {
                let alpha = T::from_wire(value)
                    .ok_or_else(|| WireError::bad_request("unparsable scalar in alphas"))?;
                levels.push(PrivacyLevel::new(alpha).map_err(WireError::from)?);
            }
            let validated = spec.to_request(levels[0].alpha().clone())?;
            Ok((levels, validated))
        })?;
        let levels_key = json::to_string(&Json::Arr(
            levels.iter().map(|l| l.alpha().to_wire()).collect(),
        ));
        let response_key = format!(
            "sweep|{}|{}|levels={levels_key}",
            T::TAG,
            validated.fingerprint().canonical()
        );
        Ok((response_key, (levels, validated)))
    };
    let fresh = |(levels, validated): &(Vec<PrivacyLevel<T>>, _)| {
        let solves = engine.sweep(levels, validated)?;
        let items: Vec<String> = solves.iter().map(render_solve).collect();
        Ok(assemble_solves(items.iter().map(String::as_str)))
    };
    let outcome = keyed_step(shared, mode, key, validate, fresh)?;
    let ((levels, validated), response_key) = match outcome {
        Keyed::Hit(cached) => return replay_sweep_hit(writer, id, &cached),
        Keyed::Miss(valid, response_key) => (valid, response_key),
    };

    // Miss (or bypass): stream items as they complete, then assemble the
    // monolithic rendering for the cache from the per-item renderings.
    let mut rendered: Vec<Option<Arc<str>>> = vec![None; levels.len()];
    let mut first_error: Option<(usize, WireError)> = None;
    let mut aggregate = privmech_core::PivotStats::default();
    engine.sweep_with(&levels, &validated, |index, solve| match solve {
        Ok(solve) => {
            aggregate += &solve.stats;
            let item: Arc<str> = render_solve(&solve).into();
            let _ = writer.send(&sweep_item_frame(id, index, Json::Raw(Arc::clone(&item))));
            rendered[index] = Some(item);
        }
        Err(e) => {
            if first_error.as_ref().is_none_or(|(i, _)| index < *i) {
                first_error = Some((index, WireError::from(e)));
            }
        }
    });
    if let Some((index, error)) = first_error {
        // Partial streams are closed by a terminal error frame (matched by
        // id); already-emitted items remain valid solves of their levels.
        return Err(ComputeError::from(WireError::new(
            error.code,
            format!("sweep failed at level index {index}: {}", error.message),
        )));
    }
    let monolithic = assemble_solves(
        rendered
            .iter()
            .map(|item| item.as_deref().expect("every sweep slot is filled")),
    );
    let disposition = record(shared, response_key, monolithic.into());
    Ok(sweep_done_frame(id, disposition, levels.len(), &aggregate))
}

/// Replay a cached monolithic sweep as a stream. The cached entry is
/// split lexically ([`crate::proto::split_solves`]) instead of parsed as a
/// tree: per item the replay costs one slice copy into an `Arc<str>` plus a
/// parse of the item's small trailing `"stats"` object (for the terminal
/// aggregate) — the mechanism matrix, which dominates the entry's bytes,
/// is never parsed.
fn replay_sweep_hit(
    writer: &Arc<ConnWriter>,
    id: &Json,
    cached: &Arc<str>,
) -> Result<Json, ComputeError> {
    let items = split_solves(cached)
        .ok_or_else(|| ComputeError::from(WireError::new("internal", "malformed cached sweep")))?;
    let mut aggregate = privmech_core::PivotStats::default();
    for (index, item) in items.iter().enumerate() {
        if let Some(stats) = item_stats(item) {
            aggregate += &stats;
        }
        let _ = writer.send(&sweep_item_frame(id, index, Json::Raw(Arc::from(*item))));
    }
    Ok(sweep_done_frame(
        id,
        CacheDisposition::Hit,
        items.len(),
        &aggregate,
    ))
}

/// Parse just the trailing `"stats":{...}` object out of one cached solve
/// rendering. [`render_solve`] renders `stats` as the last field, so the
/// object runs from the marker to the item's closing brace.
fn item_stats(item: &str) -> Option<privmech_core::PivotStats> {
    let at = item.rfind("\"stats\":")? + "\"stats\":".len();
    let parsed = json::parse(item.get(at..item.len().checked_sub(1)?)?).ok()?;
    stats_from_wire(&parsed)
}
