//! The fleet router: one listen address fronting N `privmech-serve` shard
//! processes, with requests partitioned by consistent hashing on the
//! canonical request key.
//!
//! # Why routing preserves byte identity
//!
//! Every compute response is a deterministic function of the *parsed*
//! request (the server re-renders parsed trees into its envelopes and cache
//! keys; it never echoes raw client bytes), so any shard produces the same
//! bytes for the same request — the paper's mechanisms are pure functions of
//! the consumer. What sharding buys is **cache partitioning**: the ring
//! ([`crate::ring`]) sends every spelling of a request that shares a
//! canonical key ([`crate::proto::routing_key`], which *is* the server's
//! key-memo key) to the same shard, so each shard's LRU holds a disjoint
//! slice of the keyspace and the fleet's aggregate cache capacity scales
//! with shard count. Routing costs one parse and one re-render per frame —
//! never a validation.
//!
//! # Mechanics
//!
//! The router is a handler on the same reactor as the server (the
//! `readiness` module's `Reactor`, which owns the client connections): it
//! rewrites each decoded request's `id` to an internal ticket, forwards it
//! on a multiplexed nonblocking connection to the owning shard (registered
//! on the reactor's poller under the router's reserved tokens), and splices
//! the client's original `id` rendering back into each reply — including
//! every `sweep_item` of a streaming sweep — before relaying it. The splice
//! is lexical (the reply is never re-rendered), so relayed frames are
//! byte-identical to what a direct connection would have read. A stopping
//! router drains like a server: forwarded requests still in flight are
//! answered before their connections close.
//!
//! Per-op routing:
//!
//! * `solve` / `sweep` / `interact` → the ring owner of the canonical key;
//! * `stats` / `metrics` (including `reset`) → fanned out to every live
//!   shard and aggregated, so fleet counters read like one server's;
//! * `shutdown` → broadcast to every live shard (each dumps its cache file),
//!   answered locally, then the router itself stops;
//! * everything else (`ping`, unknown ops, schema errors) → the lowest live
//!   shard, whose reply is deterministic.
//!
//! A dead shard (connect failure, reset, EOF) fails **only its own
//! requests**: every pending ticket on it is answered with a
//! `shard_unavailable` error frame and the shard enters a short cooldown;
//! reconnection is attempted (bounded) on the next request it owns, reading
//! the shard's current address — [`RouterHandle::update_shard`] re-admits a
//! restarted shard at a new port without disturbing ring ownership, which
//! hashes stable shard *indices*.

use std::collections::{HashMap, HashSet};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::json::{self, Json};
use crate::metrics::MetricsReply;
use crate::proto::{
    decode_request, error_response, ok_response, routing_key, scan_reply, wire_error_json,
    StatsReply, WireError,
};
use crate::readiness::{
    ConnWriter, Doorbell, FrameReader, Handler, Outbox, Reactor, FIRST_HANDLER_TOKEN,
};
use crate::ring::ShardRing;
use crate::sys::{Poller, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT};

/// Configuration of a router instance.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Listen address; use port 0 for an ephemeral port (read it back from
    /// [`RouterHandle::addr`]).
    pub addr: String,
    /// Shard addresses, one per shard index. Ring ownership hashes the
    /// *index*, so the order given here is the fleet's stable identity.
    pub shards: Vec<String>,
    /// Per-client-connection bound on forwarded requests awaiting replies;
    /// enforced by readiness gating exactly like the server's cap. 0
    /// disables the bound.
    pub max_inflight_per_conn: usize,
}

impl RouterConfig {
    /// A router over the given shard addresses with default knobs.
    #[must_use]
    pub fn new(shards: Vec<String>) -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            shards,
            max_inflight_per_conn: 256,
        }
    }
}

/// How long a failed shard stays in cooldown before forwarding retries it.
const SHARD_COOLDOWN: Duration = Duration::from_millis(250);

/// Per-request bound on reconnection attempts to a cold shard.
const CONNECT_ATTEMPTS: usize = 2;

/// Timeout of one reconnection attempt.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(250);

/// A running router. Dropping the handle shuts it down and joins its thread.
pub struct RouterHandle {
    addr: SocketAddr,
    /// Current shard addresses by index, consulted on every reconnection —
    /// restarted shards may come back on fresh ephemeral ports.
    addrs: Arc<Mutex<Vec<String>>>,
    bell: Arc<Doorbell>,
    event: Option<JoinHandle<()>>,
}

impl RouterHandle {
    /// The bound listen address (resolves ephemeral ports).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Point shard `index` at a new address — re-admits a restarted shard.
    /// Takes effect on the next reconnection attempt; ring ownership is
    /// untouched (it hashes the index, not the address).
    pub fn update_shard(&self, index: usize, addr: impl Into<String>) {
        let mut addrs = self.addrs.lock().expect("shard address list poisoned");
        if let Some(slot) = addrs.get_mut(index) {
            *slot = addr.into();
        }
    }

    /// Signal the loop to stop and join it. Also invoked on drop.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// Block until the router stops (e.g. a client sent `shutdown`).
    pub fn join(mut self) {
        if let Some(event) = self.event.take() {
            let _ = event.join();
        }
    }

    fn stop_and_join(&mut self) {
        self.bell.stop();
        if let Some(event) = self.event.take() {
            let _ = event.join();
        }
    }
}

impl Drop for RouterHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Bind and start routing; returns immediately with a handle. Shards are
/// connected lazily, on the first request each one owns.
pub fn spawn(config: RouterConfig) -> io::Result<RouterHandle> {
    if config.shards.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "a router needs at least one shard",
        ));
    }
    let nshards = config.shards.len();
    let reactor = Reactor::bind(&config.addr, config.max_inflight_per_conn, nshards as u64)?;
    let addrs = Arc::new(Mutex::new(config.shards));
    let bell = Arc::clone(reactor.doorbell());
    let mut router = Router {
        addrs: Arc::clone(&addrs),
        bell: Arc::clone(&bell),
        ring: ShardRing::with_default_vnodes(nshards),
        shards: (0..nshards)
            .map(|_| ShardState::Down {
                until: Instant::now(),
            })
            .collect(),
        owned: vec![HashSet::new(); nshards],
        pendings: HashMap::new(),
        aggs: HashMap::new(),
        next_ticket: 1,
        scratch: vec![0u8; 64 * 1024],
    };
    Ok(RouterHandle {
        addr: reactor.local_addr()?,
        addrs,
        bell,
        event: Some(std::thread::spawn(move || reactor.run(&mut router))),
    })
}

struct ShardConn {
    stream: TcpStream,
    reader: FrameReader,
    outbox: Outbox,
    interest: u32,
}

enum ShardState {
    Up(ShardConn),
    Down { until: Instant },
}

/// What a ticket (rewritten request id) resolves to when its reply arrives.
enum Pending {
    /// Relay to a client, restoring its original `id` rendering.
    Forward {
        client: Arc<ConnWriter>,
        id_rendering: String,
    },
    /// One member of a `stats`/`metrics` fan-out, remembering which shard it
    /// was sent to so `metrics` can report a per-shard breakdown.
    AggMember { agg: u64, shard: usize },
    /// A broadcast whose reply nobody needs (`shutdown`).
    Discard,
}

/// An in-progress `stats`/`metrics` fan-out.
struct Agg {
    client: Arc<ConnWriter>,
    id_rendering: String,
    waiting: usize,
    successes: usize,
    acc: AggAcc,
}

enum AggAcc {
    Stats(StatsReply),
    /// Each answering shard's reply keyed by shard index, so the fleet reply
    /// can expose per-shard latency skew next to the fleet sum.
    Metrics(Vec<(usize, MetricsReply)>),
}

impl AggAcc {
    /// Fold one member's `result` in. A `metrics` result without `ops`
    /// contributes nothing, not even a `shards` entry.
    fn merge(&mut self, shard: usize, result: &Json) {
        match self {
            AggAcc::Stats(acc) => acc.merge(result),
            AggAcc::Metrics(shards) => {
                if let Some(reply) = MetricsReply::from_wire(result) {
                    shards.push((shard, reply));
                }
            }
        }
    }

    /// The merged `result`. A fleet `metrics` result renders the summed
    /// `ops` in the server's shape, then a router-only `shards` section: each
    /// answering shard's per-op summaries (`{count, total_ns, mean_ns,
    /// p99_le_ns}`) in ascending shard order.
    fn into_wire(self) -> Json {
        match self {
            AggAcc::Stats(acc) => acc.to_wire(),
            AggAcc::Metrics(mut shards) => {
                shards.sort_unstable_by_key(|(shard, _)| *shard);
                let mut fleet = MetricsReply::default();
                let mut members = Vec::with_capacity(shards.len());
                for (shard, reply) in &shards {
                    fleet += reply;
                    members.push(
                        Json::obj()
                            .with("shard", Json::num_u64(*shard as u64))
                            .with("ops", reply.summaries()),
                    );
                }
                fleet.to_wire().with("shards", Json::Arr(members))
            }
        }
    }
}

/// The router's reactor handler: shard connections, tickets and fan-outs.
/// Shard `i`'s connection carries poller token `FIRST_HANDLER_TOKEN + i`,
/// stable across reconnections.
struct Router {
    addrs: Arc<Mutex<Vec<String>>>,
    bell: Arc<Doorbell>,
    ring: ShardRing,
    shards: Vec<ShardState>,
    /// Tickets outstanding on each shard, for fault fan-out on death.
    owned: Vec<HashSet<u64>>,
    pendings: HashMap<u64, Pending>,
    aggs: HashMap<u64, Agg>,
    next_ticket: u64,
    scratch: Vec<u8>,
}

impl Handler for Router {
    fn on_frame(&mut self, poller: &Poller, writer: &Arc<ConnWriter>, payload: Vec<u8>) -> bool {
        self.handle_client_frame(poller, writer, &payload);
        true
    }

    fn on_event(&mut self, poller: &Poller, token: u64, mask: u32) {
        self.shard_ready(poller, (token - FIRST_HANDLER_TOKEN) as usize, mask);
    }

    /// Shutdown broadcasts must reach the shards before the router exits.
    fn quiesced(&self) -> bool {
        self.shards.iter().all(|s| match s {
            ShardState::Up(conn) => conn.outbox.is_empty(),
            ShardState::Down { .. } => true,
        })
    }
}

/// Answer a frame locally: its terminal reply, and its in-flight slot back.
fn reply_local(writer: &ConnWriter, frame: &Json) {
    let _ = writer.send(frame);
    writer.release();
}

impl Router {
    fn handle_client_frame(&mut self, poller: &Poller, writer: &Arc<ConnWriter>, payload: &[u8]) {
        // Frames the server would reject before reaching an op handler are
        // rejected here through the same gate, with the identical bytes:
        // there is nothing cache-dependent to route.
        let (request, id) = match decode_request(payload) {
            Ok(decoded) => decoded,
            Err(frame) => {
                reply_local(writer, &frame);
                return;
            }
        };
        let op = request.get("op").and_then(Json::as_str).unwrap_or("");
        match op {
            "stats" | "metrics" => self.handle_agg(poller, writer, &id, &request),
            "shutdown" => self.handle_shutdown(poller, writer, id, &request),
            _ => {
                let shard = match routing_key(&request) {
                    Some(key) => self.ring.shard_for(&key),
                    // Keyless requests (ping, unknown ops…) have
                    // deterministic, cache-independent responses: any shard
                    // answers them identically.
                    None => self.lowest_live_shard(poller),
                };
                self.forward(poller, writer, shard, &id, request);
            }
        }
    }

    // ------------------------------------------------------------------
    // Forwarding
    // ------------------------------------------------------------------

    /// Rewrite the request's id to a fresh ticket and queue it on `shard`'s
    /// connection; on an unreachable shard, answer `shard_unavailable`.
    fn forward(
        &mut self,
        poller: &Poller,
        client: &Arc<ConnWriter>,
        shard: usize,
        id: &Json,
        mut request: Json,
    ) {
        let id_rendering = json::to_string(id);
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        set_field(&mut request, "id", Json::num_u64(ticket));
        // A failed push kills the shard, whose pendings are failed with it;
        // fail this request the same way.
        if !self.ensure_shard(poller, shard)
            || !self.push_to_shard(poller, shard, json::to_string(&request).as_bytes())
        {
            reply_local(client, &shard_unavailable_frame(&id_rendering, shard));
            return;
        }
        self.pendings.insert(
            ticket,
            Pending::Forward {
                client: Arc::clone(client),
                id_rendering,
            },
        );
        self.owned[shard].insert(ticket);
    }

    /// The first shard accepting a connection, for keyless requests. Falls
    /// back to shard 0 (whose unavailability then surfaces naturally).
    fn lowest_live_shard(&mut self, poller: &Poller) -> usize {
        for shard in 0..self.shards.len() {
            if matches!(self.shards[shard], ShardState::Up(_)) {
                return shard;
            }
        }
        for shard in 0..self.shards.len() {
            if self.ensure_shard(poller, shard) {
                return shard;
            }
        }
        0
    }

    /// Make sure `shard` has a live connection, reconnecting (bounded) if
    /// its cooldown has lapsed. Returns whether it is usable.
    fn ensure_shard(&mut self, poller: &Poller, shard: usize) -> bool {
        match &self.shards[shard] {
            ShardState::Up(_) => true,
            ShardState::Down { until } => {
                if Instant::now() < *until {
                    return false;
                }
                let addr = self
                    .addrs
                    .lock()
                    .expect("shard address list poisoned")
                    .get(shard)
                    .cloned()
                    .unwrap_or_default();
                for _ in 0..CONNECT_ATTEMPTS {
                    let Some(resolved) = resolve(&addr) else {
                        break;
                    };
                    let Ok(stream) = TcpStream::connect_timeout(&resolved, CONNECT_TIMEOUT) else {
                        continue;
                    };
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    if poller
                        .register(stream.as_raw_fd(), shard_token(shard), EPOLLIN)
                        .is_err()
                    {
                        continue;
                    }
                    self.shards[shard] = ShardState::Up(ShardConn {
                        stream,
                        reader: FrameReader::new(),
                        outbox: Outbox::new(),
                        interest: EPOLLIN,
                    });
                    return true;
                }
                self.shards[shard] = ShardState::Down {
                    until: Instant::now() + SHARD_COOLDOWN,
                };
                false
            }
        }
    }

    /// Queue one frame on a shard connection and flush. Returns false — and
    /// fails the shard — if the push or flush breaks the connection.
    fn push_to_shard(&mut self, poller: &Poller, shard: usize, payload: &[u8]) -> bool {
        let pushed = match &mut self.shards[shard] {
            ShardState::Up(conn) => conn.outbox.push_frame(payload).is_ok(),
            ShardState::Down { .. } => false,
        };
        if !pushed {
            self.kill_shard(poller, shard);
            return false;
        }
        self.flush_shard(poller, shard)
    }

    /// Pump a shard's outbox and refresh its poller interest. Returns false
    /// — and fails the shard — on a write error.
    fn flush_shard(&mut self, poller: &Poller, shard: usize) -> bool {
        let ShardState::Up(conn) = &mut self.shards[shard] else {
            return false;
        };
        let flushed = match conn.outbox.pump(&mut &conn.stream) {
            Ok(emptied) => emptied,
            Err(_) => {
                self.kill_shard(poller, shard);
                return false;
            }
        };
        let desired = EPOLLIN | if flushed { 0 } else { EPOLLOUT };
        if desired != conn.interest
            && poller
                .modify(conn.stream.as_raw_fd(), shard_token(shard), desired)
                .is_ok()
        {
            conn.interest = desired;
        }
        true
    }

    /// A shard connection failed: close it, start its cooldown, and fail
    /// every ticket it owned with `shard_unavailable` — other shards'
    /// traffic is untouched.
    fn kill_shard(&mut self, poller: &Poller, shard: usize) {
        let state = std::mem::replace(
            &mut self.shards[shard],
            ShardState::Down {
                until: Instant::now() + SHARD_COOLDOWN,
            },
        );
        if let ShardState::Up(conn) = state {
            let _ = poller.deregister(conn.stream.as_raw_fd());
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        let tickets: Vec<u64> = self.owned[shard].drain().collect();
        for ticket in tickets {
            match self.pendings.remove(&ticket) {
                Some(Pending::Forward {
                    client,
                    id_rendering,
                }) => reply_local(&client, &shard_unavailable_frame(&id_rendering, shard)),
                Some(Pending::AggMember { agg, shard }) => self.agg_member_done(agg, shard, None),
                Some(Pending::Discard) | None => {}
            }
        }
    }

    // ------------------------------------------------------------------
    // Shard side
    // ------------------------------------------------------------------

    fn shard_ready(&mut self, poller: &Poller, shard: usize, mask: u32) {
        if mask & (EPOLLERR | EPOLLHUP) != 0 {
            self.kill_shard(poller, shard);
            return;
        }
        let mut eof = false;
        if mask & EPOLLIN != 0 {
            let ShardState::Up(conn) = &mut self.shards[shard] else {
                return;
            };
            match conn.reader.fill(&mut &conn.stream, &mut self.scratch) {
                Ok(e) => eof = e,
                Err(_) => {
                    self.kill_shard(poller, shard);
                    return;
                }
            }
        }
        // Relay every complete buffered reply before acting on the EOF, so
        // a shard that answered-then-exited loses nothing.
        loop {
            let frame = {
                let ShardState::Up(conn) = &mut self.shards[shard] else {
                    return;
                };
                match conn.reader.next_frame() {
                    Ok(Some(payload)) => payload,
                    Ok(None) => break,
                    Err(_) => {
                        self.kill_shard(poller, shard);
                        return;
                    }
                }
            };
            self.handle_shard_reply(shard, &frame);
        }
        if eof {
            self.kill_shard(poller, shard);
            return;
        }
        if mask & EPOLLOUT != 0 {
            self.flush_shard(poller, shard);
        }
    }

    /// One reply frame from a shard: splice the original client id back in
    /// (lexically — the reply is never re-rendered, preserving byte
    /// identity) and relay it; terminal frames retire the ticket.
    fn handle_shard_reply(&mut self, shard: usize, payload: &[u8]) {
        let Ok(text) = std::str::from_utf8(payload) else {
            return;
        };
        let Some((ticket, span, sweep_item)) = scan_reply(text) else {
            return;
        };
        if let Some(Pending::Forward {
            client,
            id_rendering,
        }) = self.pendings.get(&ticket)
        {
            let _ = client.send_bytes(splice_id(text, &span, id_rendering).as_bytes());
        }
        if sweep_item {
            return;
        }
        self.owned[shard].remove(&ticket);
        match self.pendings.remove(&ticket) {
            Some(Pending::Forward { client, .. }) => client.release(),
            Some(Pending::AggMember { agg, shard }) => {
                self.agg_member_done(agg, shard, json::parse(text).ok());
            }
            Some(Pending::Discard) | None => {}
        }
    }

    // ------------------------------------------------------------------
    // Fan-out ops
    // ------------------------------------------------------------------

    /// `stats` / `metrics`: forward (rewritten) copies to every reachable
    /// shard and merge the results into one fleet-wide reply. `reset: true`
    /// passes through inside the copies, so a fleet metrics reset clears
    /// every shard's window in one op.
    fn handle_agg(&mut self, poller: &Poller, client: &Arc<ConnWriter>, id: &Json, request: &Json) {
        let id_rendering = json::to_string(id);
        let members: Vec<usize> = (0..self.shards.len())
            .filter(|&shard| self.ensure_shard(poller, shard))
            .collect();
        if members.is_empty() {
            reply_local(client, &no_shard_frame(&id_rendering));
            return;
        }
        let op = request.get("op").and_then(Json::as_str).unwrap_or("");
        let agg_id = self.next_ticket;
        self.next_ticket += 1;
        self.aggs.insert(
            agg_id,
            Agg {
                client: Arc::clone(client),
                id_rendering,
                waiting: members.len(),
                successes: 0,
                acc: if op == "stats" {
                    AggAcc::Stats(StatsReply::default())
                } else {
                    AggAcc::Metrics(Vec::new())
                },
            },
        );
        for shard in members {
            let ticket = self.next_ticket;
            self.next_ticket += 1;
            let mut copy = request.clone();
            set_field(&mut copy, "id", Json::num_u64(ticket));
            if self.push_to_shard(poller, shard, json::to_string(&copy).as_bytes()) {
                self.pendings
                    .insert(ticket, Pending::AggMember { agg: agg_id, shard });
                self.owned[shard].insert(ticket);
            } else {
                self.agg_member_done(agg_id, shard, None);
            }
        }
    }

    /// One fan-out member finished (with a parsed reply, or `None` on shard
    /// failure); on the last member, build and send the merged reply.
    fn agg_member_done(&mut self, agg_id: u64, shard: usize, reply: Option<Json>) {
        let Some(agg) = self.aggs.get_mut(&agg_id) else {
            return;
        };
        if let Some(reply) = reply {
            if reply.get("ok").and_then(Json::as_bool) == Some(true) {
                if let Some(result) = reply.get("result") {
                    agg.acc.merge(shard, result);
                    agg.successes += 1;
                }
            }
        }
        agg.waiting -= 1;
        if agg.waiting > 0 {
            return;
        }
        let agg = self.aggs.remove(&agg_id).expect("agg entry just seen");
        let id = Json::Raw(agg.id_rendering.as_str().into());
        let frame = if agg.successes == 0 {
            error_response(
                id,
                wire_error_json(&WireError::new(
                    "shard_unavailable",
                    "no shard answered the fan-out",
                )),
                None,
            )
        } else {
            ok_response(id, None, agg.acc.into_wire())
        };
        reply_local(&agg.client, &frame);
    }

    /// `shutdown`: broadcast to every reachable shard (each stops and dumps
    /// its cache file), answer the client locally with the server's exact
    /// reply shape, then stop the router, which drains like a server.
    fn handle_shutdown(&mut self, poller: &Poller, client: &ConnWriter, id: Json, request: &Json) {
        for shard in 0..self.shards.len() {
            if !self.ensure_shard(poller, shard) {
                continue;
            }
            let ticket = self.next_ticket;
            self.next_ticket += 1;
            let mut copy = request.clone();
            set_field(&mut copy, "id", Json::num_u64(ticket));
            if self.push_to_shard(poller, shard, json::to_string(&copy).as_bytes()) {
                self.pendings.insert(ticket, Pending::Discard);
                self.owned[shard].insert(ticket);
            }
        }
        reply_local(
            client,
            &ok_response(id, None, Json::obj().with("stopping", Json::Bool(true))),
        );
        self.bell.stop();
    }
}

/// The poller token of shard `shard`'s connection.
fn shard_token(shard: usize) -> u64 {
    FIRST_HANDLER_TOKEN + shard as u64
}

/// The synthesized failure frame for a request owned by an unreachable
/// shard. The client's original id rendering is spliced in verbatim.
fn shard_unavailable_frame(id_rendering: &str, shard: usize) -> Json {
    error_response(
        Json::Raw(id_rendering.into()),
        wire_error_json(&WireError::new(
            "shard_unavailable",
            format!("shard {shard} is unavailable"),
        )),
        None,
    )
}

/// The failure frame for a fan-out that found no reachable shard at all.
fn no_shard_frame(id_rendering: &str) -> Json {
    error_response(
        Json::Raw(id_rendering.into()),
        wire_error_json(&WireError::new(
            "shard_unavailable",
            "no shard is available",
        )),
        None,
    )
}

/// `text` with the bytes of `span` (a ticket) replaced by the client's
/// original id rendering.
fn splice_id(text: &str, span: &std::ops::Range<usize>, id_rendering: &str) -> String {
    let mut spliced = String::with_capacity(text.len() + id_rendering.len());
    spliced.push_str(&text[..span.start]);
    spliced.push_str(id_rendering);
    spliced.push_str(&text[span.end..]);
    spliced
}

/// Replace (or insert) a top-level object field, preserving its position —
/// the request is re-rendered afterwards, and the server derives everything
/// from the parsed tree, so the rewrite cannot perturb response bytes.
fn set_field(request: &mut Json, key: &str, value: Json) {
    if let Json::Obj(pairs) = request {
        if let Some(slot) = pairs.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
            return;
        }
        pairs.push((key.to_string(), value));
    }
}

fn resolve(addr: &str) -> Option<SocketAddr> {
    addr.to_socket_addrs().ok()?.next()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fixture holds four members' `metrics` results as `<shard>
    /// <result>` lines, out of shard order: two overlapping shards (shared
    /// ops and buckets, overflow buckets, an op only one reports, an
    /// untracked op), a member without `ops`, and a member reporting only an
    /// untracked op. Its `= <reply>` line pins the fleet reply's bytes, as
    /// the router's earlier hand-written merge rendered them.
    #[test]
    fn fleet_metrics_reply_bytes_are_pinned() {
        let fixture = include_str!("../tests/fixtures/fleet_metrics.txt");
        let mut acc = AggAcc::Metrics(Vec::new());
        let mut expected = "";
        for line in fixture.lines() {
            let (tag, text) = line.split_once(' ').unwrap();
            match tag {
                "=" => expected = text,
                shard => acc.merge(shard.parse().unwrap(), &json::parse(text).unwrap()),
            }
        }
        assert_eq!(json::to_string(&acc.into_wire()), expected);
    }
}
