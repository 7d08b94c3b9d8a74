//! The typed protocol client: blocking calls and a nonblocking, pipelined
//! surface over protocol v2.
//!
//! One [`Client`] owns one connection. The nonblocking surface is
//! [`Client::submit`] (send a request, get a [`Ticket`]), [`Client::recv`]
//! (the next completion from the server, any ticket), [`Client::wait`]
//! (block for one ticket) and [`Client::sweep_stream`] (iterate a sweep's
//! per-α results **as the server finishes them**, out of order, each tagged
//! with its input index). The blocking helpers ([`Client::solve`],
//! [`Client::sweep`], [`Client::interact`]) are thin wrappers over
//! submit/wait.
//!
//! Every typed reply carries `raw`: the canonical serialization of the
//! response's `result` object. Two replies are byte-identical exactly when
//! their `raw` strings are equal — this is how callers check the cached ≡
//! uncached contract end to end. A blocking `sweep` reassembles the
//! monolithic `{"solves":[...]}` rendering from its streamed items
//! ([`crate::proto::assemble_solves`]), so its `raw` is byte-comparable with
//! the server's cache entry for the same request.

use std::collections::VecDeque;
use std::io::{self, BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};

use privmech_core::PivotStats;
use privmech_zoo::{LdpProtocol, QueryClass};

use crate::frame::{read_frame, write_frame};
use crate::json::{self, Json};
use crate::proto::{
    intern_code, rows_from_wire, stats_from_wire, CacheDisposition, CacheMode, ConsumerSpec,
    LossSpec, StatsReply, WireError, WireScalar, PROTOCOL_VERSION,
};
use crate::zoo::{query_to_wire, ZooAgentSpec, ZooConsumerSpec};

/// Client-side failure: transport, protocol, or a server-reported error.
#[derive(Debug)]
pub enum ClientError {
    /// Socket or framing failure.
    Io(io::Error),
    /// The server answered, but not with the schema this client expects.
    Protocol(String),
    /// The server reported an error response.
    Server(WireError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A solve (or one sweep entry) as decoded from the wire.
#[derive(Debug, Clone)]
pub struct SolveReply<T> {
    /// The privacy level the solve answered.
    pub alpha: T,
    /// The consumer's optimal loss.
    pub loss: T,
    /// The tailored optimal mechanism, row by row.
    pub mechanism: Vec<Vec<T>>,
    /// Simplex pivot statistics of the underlying solve.
    pub stats: PivotStats,
}

/// An `interact` result as decoded from the wire.
#[derive(Debug, Clone)]
pub struct InteractReply<T> {
    /// The consumer's loss after optimal post-processing.
    pub loss: T,
    /// The optimal post-processing matrix `T*`.
    pub post_processing: Vec<Vec<T>>,
    /// The induced mechanism (deployed · `T*`).
    pub induced: Vec<Vec<T>>,
    /// Simplex pivot statistics of the interaction LP.
    pub stats: PivotStats,
}

/// A typed reply plus its transport metadata.
#[derive(Debug, Clone)]
pub struct Reply<R> {
    /// The decoded result.
    pub value: R,
    /// How the server answered (hit / miss / bypass).
    pub cache: CacheDisposition,
    /// Canonical serialization of the `result` object — byte-comparable
    /// across replies.
    pub raw: String,
}

/// Server cache counters as reported by the `stats` op. The `neg_*` fields
/// mirror the negative (validation-error) cache, whose counters are kept
/// separate so error hits don't pollute the solve hit rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStatsReply {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that computed fresh.
    pub misses: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Total capacity.
    pub capacity: u64,
    /// Shard count.
    pub shards: u64,
    /// Negative-cache lookups answered from the cache.
    pub neg_hits: u64,
    /// Negative-cache lookups that found nothing (every request probes once).
    pub neg_misses: u64,
    /// Negative-cache entries displaced by capacity pressure.
    pub neg_evictions: u64,
    /// Negative-cache entries currently resident.
    pub neg_entries: u64,
    /// Negative-cache capacity.
    pub neg_capacity: u64,
    /// Per-connection in-flight cap (0 = unbounded; 0 against pre-PR7
    /// servers, which did not bound the queue).
    pub max_inflight: u64,
    /// High-water mark of any single connection's in-flight depth.
    pub inflight_peak: u64,
}

/// A handle to one in-flight request, matched against completions by its
/// client-chosen id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ticket {
    id: u64,
}

impl Ticket {
    /// The wire id this ticket's frames carry.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// One completion read off the wire (see [`Client::recv`]). Completions for
/// different tickets may arrive in any order; a sweep produces many
/// [`Event::SweepItem`]s closed by one terminal [`Event::SweepDone`], while
/// every other request produces exactly one terminal [`Event::Reply`] or
/// [`Event::Error`].
#[derive(Debug, Clone)]
pub enum Event {
    /// A terminal successful reply.
    Reply {
        /// The request this completes.
        ticket: Ticket,
        /// The full response envelope.
        response: Json,
    },
    /// A terminal error reply.
    Error {
        /// The request this completes.
        ticket: Ticket,
        /// The decoded server error.
        error: WireError,
    },
    /// One streamed `sweep_item` frame (non-terminal).
    SweepItem {
        /// The sweep request this belongs to.
        ticket: Ticket,
        /// Index into the request's `alphas` array.
        index: usize,
        /// The full frame envelope (its `result` is one solve).
        response: Json,
    },
    /// The terminal `sweep_done` frame.
    SweepDone {
        /// The sweep request this completes.
        ticket: Ticket,
        /// The full frame envelope (its `result` carries aggregate stats).
        response: Json,
    },
}

impl Event {
    /// The ticket this event belongs to.
    #[must_use]
    pub fn ticket(&self) -> Ticket {
        match self {
            Event::Reply { ticket, .. }
            | Event::Error { ticket, .. }
            | Event::SweepItem { ticket, .. }
            | Event::SweepDone { ticket, .. } => *ticket,
        }
    }
}

/// A protocol client over one TCP connection: blocking typed helpers plus
/// the pipelined submit/recv surface (see the module docs).
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u64,
    /// Completions read while looking for a different ticket, replayed in
    /// arrival order by [`Client::recv`] / [`Client::wait`].
    buffered: VecDeque<Event>,
}

impl Client {
    /// Connect to a server (or router).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
            next_id: 0,
            buffered: VecDeque::new(),
        })
    }

    /// Send a request without waiting for its completion. The `v` and `id`
    /// fields are filled in; the returned [`Ticket`] matches the completion
    /// frames, which may arrive in any order.
    pub fn submit(&mut self, request: Json) -> Result<Ticket, ClientError> {
        self.next_id += 1;
        let id = self.next_id;
        let mut framed = Json::obj()
            .with("v", Json::num_u64(PROTOCOL_VERSION))
            .with("id", Json::num_u64(id));
        if let (Json::Obj(dst), Json::Obj(src)) = (&mut framed, request) {
            dst.extend(src);
        }
        write_frame(&mut self.writer, json::to_string(&framed).as_bytes())?;
        Ok(Ticket { id })
    }

    /// Read one frame off the wire and classify it.
    fn read_event(&mut self) -> Result<Event, ClientError> {
        let payload = read_frame(&mut self.reader)?
            .ok_or_else(|| ClientError::Protocol("server closed the connection".to_string()))?;
        let text = std::str::from_utf8(&payload)
            .map_err(|_| ClientError::Protocol("response is not UTF-8".to_string()))?;
        let response =
            json::parse(text).map_err(|e| ClientError::Protocol(format!("bad response: {e}")))?;
        let Some(id) = response.get("id").and_then(Json::as_u64) else {
            // A response that cannot be correlated (the server could not
            // even read an id out of the frame) is connection-fatal.
            return Err(match decode_error(&response) {
                Some(error) => ClientError::Server(error),
                None => ClientError::Protocol("response lacks a numeric \"id\"".to_string()),
            });
        };
        let ticket = Ticket { id };
        match response.get("ok").and_then(Json::as_bool) {
            Some(true) => match response.get("stream").and_then(Json::as_str) {
                Some("sweep_item") => {
                    let index =
                        response
                            .get("index")
                            .and_then(Json::as_usize)
                            .ok_or_else(|| {
                                ClientError::Protocol("sweep_item lacks an \"index\"".to_string())
                            })?;
                    Ok(Event::SweepItem {
                        ticket,
                        index,
                        response,
                    })
                }
                Some("sweep_done") => Ok(Event::SweepDone { ticket, response }),
                Some(other) => Err(ClientError::Protocol(format!(
                    "unknown stream frame \"{other}\""
                ))),
                None => Ok(Event::Reply { ticket, response }),
            },
            Some(false) => Ok(Event::Error {
                ticket,
                error: decode_error(&response).unwrap_or_else(|| {
                    WireError::new("internal", "error response without error object")
                }),
            }),
            None => Err(ClientError::Protocol(
                "response lacks an \"ok\" field".to_string(),
            )),
        }
    }

    /// The next completion from the server, for any ticket: buffered events
    /// first (in arrival order), then the wire. Blocks until one arrives.
    pub fn recv(&mut self) -> Result<Event, ClientError> {
        if let Some(event) = self.buffered.pop_front() {
            return Ok(event);
        }
        self.read_event()
    }

    /// The next event belonging to `ticket`, buffering events of other
    /// tickets for later [`Client::recv`] / [`Client::wait`] calls.
    fn next_event_for(&mut self, ticket: Ticket) -> Result<Event, ClientError> {
        if let Some(pos) = self.buffered.iter().position(|e| e.ticket() == ticket) {
            return Ok(self.buffered.remove(pos).expect("position just found"));
        }
        loop {
            let event = self.read_event()?;
            if event.ticket() == ticket {
                return Ok(event);
            }
            self.buffered.push_back(event);
        }
    }

    /// Block until `ticket`'s terminal reply arrives and return the response
    /// envelope; completions for other tickets are buffered, not lost. For
    /// streaming sweeps use [`Client::sweep_stream`] instead.
    pub fn wait(&mut self, ticket: Ticket) -> Result<Json, ClientError> {
        match self.next_event_for(ticket)? {
            Event::Reply { response, .. } => Ok(response),
            Event::Error { error, .. } => Err(ClientError::Server(error)),
            Event::SweepItem { .. } | Event::SweepDone { .. } => Err(ClientError::Protocol(
                "wait() used on a streaming sweep; use sweep_stream()".to_string(),
            )),
        }
    }

    /// Send a raw request object (the `v` and `id` fields are filled in) and
    /// block for the raw response object. Server-side errors come back as
    /// [`ClientError::Server`].
    pub fn call(&mut self, request: Json) -> Result<Json, ClientError> {
        let ticket = self.submit(request)?;
        self.wait(ticket)
    }

    /// Liveness check.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        let response = self.call(Json::obj().with("op", Json::str("ping")))?;
        match result_of(&response)?.get("pong").and_then(Json::as_bool) {
            Some(true) => Ok(()),
            _ => Err(ClientError::Protocol("ping got no pong".to_string())),
        }
    }

    /// Fetch the server's cache counters.
    pub fn cache_stats(&mut self) -> Result<CacheStatsReply, ClientError> {
        let response = self.call(Json::obj().with("op", Json::str("stats")))?;
        let result = result_of(&response)?;
        let stats = StatsReply::from_wire(result)
            .map_err(|name| ClientError::Protocol(format!("stats reply lacks \"{name}\"")))?;
        Ok(stats.into())
    }

    /// Fetch the server's per-op latency histograms (the `metrics` op) as
    /// the raw result object (`{ops: {<op>: {count, total_ns, buckets}}}`).
    pub fn metrics(&mut self) -> Result<Json, ClientError> {
        let response = self.call(Json::obj().with("op", Json::str("metrics")))?;
        result_of(&response).cloned()
    }

    /// Fetch the server's latency histograms **and zero them** in one op
    /// (`metrics` with `reset: true`) — the snapshot covers everything since
    /// the last reset, and the next window starts empty. For back-to-back
    /// measurement runs; see `PROTOCOL.md` § metrics.
    pub fn metrics_reset(&mut self) -> Result<Json, ClientError> {
        let response = self.call(
            Json::obj()
                .with("op", Json::str("metrics"))
                .with("reset", Json::Bool(true)),
        )?;
        result_of(&response).cloned()
    }

    /// Ask the server to stop accepting connections and exit.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.call(Json::obj().with("op", Json::str("shutdown")))
            .map(|_| ())
    }

    /// Submit a solve without waiting (pair with [`Client::wait`] and
    /// [`decode_solve`], or drain completions via [`Client::recv`]).
    pub fn submit_solve<T: WireScalar>(
        &mut self,
        spec: &ConsumerSpec<T>,
        alpha: &T,
        cache: CacheMode,
    ) -> Result<Ticket, ClientError> {
        self.submit(
            spec.encode_onto(compute_head::<T>("solve", cache))
                .with("alpha", alpha.to_wire()),
        )
    }

    /// Submit an interact without waiting.
    pub fn submit_interact<T: WireScalar>(
        &mut self,
        spec: &ConsumerSpec<T>,
        mechanism: &[Vec<T>],
        cache: CacheMode,
    ) -> Result<Ticket, ClientError> {
        let rows = mechanism
            .iter()
            .map(|row| Json::Arr(row.iter().map(WireScalar::to_wire).collect()))
            .collect();
        self.submit(
            spec.encode_onto(compute_head::<T>("interact", cache))
                .with("mechanism", Json::Arr(rows)),
        )
    }

    /// Submit a sweep without waiting. Its completions are `sweep_item`
    /// events closed by one `sweep_done` (or an error).
    pub fn submit_sweep<T: WireScalar>(
        &mut self,
        spec: &ConsumerSpec<T>,
        alphas: &[T],
        cache: CacheMode,
    ) -> Result<Ticket, ClientError> {
        let alphas = alphas.iter().map(WireScalar::to_wire).collect();
        self.submit(
            spec.encode_onto(compute_head::<T>("sweep", cache))
                .with("alphas", Json::Arr(alphas)),
        )
    }

    /// Solve one request at one privacy level (blocking).
    pub fn solve<T: WireScalar>(
        &mut self,
        spec: &ConsumerSpec<T>,
        alpha: &T,
        cache: CacheMode,
    ) -> Result<Reply<SolveReply<T>>, ClientError> {
        let ticket = self.submit_solve(spec, alpha, cache)?;
        let response = self.wait(ticket)?;
        let (result, cache, raw) = cached_result(&response)?;
        Ok(Reply {
            value: decode_solve(result)?,
            cache,
            raw,
        })
    }

    /// Solve one request at a batch of privacy levels (blocking). This
    /// consumes the stream and reorders to input order; `raw` is the
    /// reassembled monolithic rendering `{"solves":[...]}`.
    pub fn sweep<T: WireScalar>(
        &mut self,
        spec: &ConsumerSpec<T>,
        alphas: &[T],
        cache: CacheMode,
    ) -> Result<Reply<Vec<SolveReply<T>>>, ClientError> {
        let mut stream = self.sweep_stream(spec, alphas, cache)?;
        let mut slots: Vec<Option<(SolveReply<T>, String)>> = Vec::new();
        slots.resize_with(alphas.len(), || None);
        for item in stream.by_ref() {
            let item = item?;
            if item.index >= slots.len() {
                return Err(ClientError::Protocol(format!(
                    "sweep_item index {} out of range",
                    item.index
                )));
            }
            slots[item.index] = Some((item.value, item.raw));
        }
        let done = stream.done()?;
        let mut value = Vec::with_capacity(slots.len());
        let mut raws = Vec::with_capacity(slots.len());
        for (k, slot) in slots.into_iter().enumerate() {
            let (solve, item_raw) = slot.ok_or_else(|| {
                ClientError::Protocol(format!("sweep stream never delivered index {k}"))
            })?;
            raws.push(item_raw);
            value.push(solve);
        }
        let raw = crate::proto::assemble_solves(raws.iter().map(String::as_str));
        Ok(Reply {
            value,
            cache: done.cache,
            raw,
        })
    }

    /// Optimal post-processing of a deployed mechanism (blocking).
    pub fn interact<T: WireScalar>(
        &mut self,
        spec: &ConsumerSpec<T>,
        mechanism: &[Vec<T>],
        cache: CacheMode,
    ) -> Result<Reply<InteractReply<T>>, ClientError> {
        let ticket = self.submit_interact(spec, mechanism, cache)?;
        let response = self.wait(ticket)?;
        let (result, cache, raw) = cached_result(&response)?;
        let loss = scalar_reply_field::<T>(result, "loss")?;
        let post_processing = rows_from_wire(result.get("post_processing").ok_or_else(|| {
            ClientError::Protocol("interact reply lacks \"post_processing\"".to_string())
        })?)
        .map_err(|e| ClientError::Protocol(e.to_string()))?;
        let induced = rows_from_wire(result.get("induced").ok_or_else(|| {
            ClientError::Protocol("interact reply lacks \"induced\"".to_string())
        })?)
        .map_err(|e| ClientError::Protocol(e.to_string()))?;
        let stats = result
            .get("stats")
            .and_then(stats_from_wire)
            .ok_or_else(|| ClientError::Protocol("interact reply lacks \"stats\"".to_string()))?;
        Ok(Reply {
            value: InteractReply {
                loss,
                post_processing,
                induced,
                stats,
            },
            cache,
            raw,
        })
    }

    /// The minimax-regret table of a query class over a consumer panel
    /// (blocking; the `zoo_table` op). The reply's `value` is the raw result
    /// object — see `PROTOCOL.md` § Zoo operations for its fields
    /// (`candidates`, `losses`, `regrets`, `dominant`, `non_dominated_pair`).
    pub fn zoo_table<T: WireScalar>(
        &mut self,
        query: &QueryClass,
        alpha: &T,
        consumers: &[ZooConsumerSpec<T>],
        cache: CacheMode,
    ) -> Result<Reply<Json>, ClientError> {
        let consumers = consumers.iter().map(ZooConsumerSpec::to_wire).collect();
        self.zoo_call(
            compute_head::<T>("zoo_table", cache)
                .with("query", query_to_wire(query))
                .with("alpha", alpha.to_wire())
                .with("consumers", Json::Arr(consumers)),
        )
    }

    /// One point of the local-model gap profile (blocking; `zoo_eval`
    /// scenario `"ldp"`): the minimax loss of the protocol's induced central
    /// mechanism next to the centralized optimum, and their difference.
    pub fn zoo_ldp<T: WireScalar>(
        &mut self,
        protocol: LdpProtocol,
        users: usize,
        alpha: &T,
        loss: &LossSpec<T>,
        cache: CacheMode,
    ) -> Result<Reply<Json>, ClientError> {
        self.zoo_call(
            compute_head::<T>("zoo_eval", cache)
                .with("scenario", Json::str("ldp"))
                .with("protocol", Json::str(protocol.name()))
                .with("users", Json::num_u64(users as u64))
                .with("alpha", alpha.to_wire())
                .with("loss", loss.to_wire()),
        )
    }

    /// Multi-agent composition (blocking; `zoo_eval` scenario `"compose"`):
    /// each agent's tailored optimum plus the composed privacy level of the
    /// joint release.
    pub fn zoo_compose<T: WireScalar>(
        &mut self,
        agents: &[ZooAgentSpec<T>],
        cache: CacheMode,
    ) -> Result<Reply<Json>, ClientError> {
        let agents = agents.iter().map(ZooAgentSpec::to_wire).collect();
        self.zoo_call(
            compute_head::<T>("zoo_eval", cache)
                .with("scenario", Json::str("compose"))
                .with("agents", Json::Arr(agents)),
        )
    }

    /// Send a zoo request and block for its raw result object.
    fn zoo_call(&mut self, request: Json) -> Result<Reply<Json>, ClientError> {
        let response = self.call(request)?;
        let (result, cache, raw) = cached_result(&response)?;
        Ok(Reply {
            value: result.clone(),
            cache,
            raw,
        })
    }

    /// Submit a sweep and iterate its results **in completion order**, each
    /// tagged with its input index — the first item arrives while later
    /// levels are still solving. Call [`SweepStream::done`] after iteration
    /// for the terminal frame's cache disposition and aggregate statistics.
    pub fn sweep_stream<'c, T: WireScalar>(
        &'c mut self,
        spec: &ConsumerSpec<T>,
        alphas: &[T],
        cache: CacheMode,
    ) -> Result<SweepStream<'c, T>, ClientError> {
        let ticket = self.submit_sweep(spec, alphas, cache)?;
        Ok(SweepStream {
            client: self,
            ticket,
            done: None,
            terminated: false,
            _marker: std::marker::PhantomData,
        })
    }
}

/// One streamed sweep result.
#[derive(Debug, Clone)]
pub struct SweepItemReply<T> {
    /// Index into the request's `alphas` array this solve answers.
    pub index: usize,
    /// The decoded solve.
    pub value: SolveReply<T>,
    /// Canonical serialization of the item's `result` object —
    /// byte-identical to the corresponding element of the monolithic
    /// rendering.
    pub raw: String,
}

/// The terminal summary of a streamed sweep.
#[derive(Debug, Clone)]
pub struct SweepDoneReply {
    /// How the server answered the sweep as a whole.
    pub cache: CacheDisposition,
    /// Number of items streamed.
    pub count: u64,
    /// Field-wise sum of the items' pivot statistics.
    pub stats: PivotStats,
}

/// An iterator over a sweep's per-α results in completion order (see
/// [`Client::sweep_stream`]). Completions for other in-flight tickets
/// observed while streaming are buffered on the client, not lost.
pub struct SweepStream<'c, T: WireScalar> {
    client: &'c mut Client,
    ticket: Ticket,
    done: Option<SweepDoneReply>,
    terminated: bool,
    _marker: std::marker::PhantomData<T>,
}

impl<T: WireScalar> Iterator for SweepStream<'_, T> {
    type Item = Result<SweepItemReply<T>, ClientError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.terminated {
            return None;
        }
        match self.client.next_event_for(self.ticket) {
            Ok(Event::SweepItem {
                index, response, ..
            }) => {
                let item = (|| {
                    let result = result_of(&response)?;
                    Ok(SweepItemReply {
                        index,
                        value: decode_solve(result)?,
                        raw: json::to_string(result),
                    })
                })();
                Some(item)
            }
            Ok(Event::SweepDone { response, .. }) => {
                self.terminated = true;
                self.done = decode_sweep_done(&response).ok();
                None
            }
            Ok(Event::Error { error, .. }) => {
                self.terminated = true;
                Some(Err(ClientError::Server(error)))
            }
            Ok(Event::Reply { .. }) => {
                self.terminated = true;
                Some(Err(ClientError::Protocol(
                    "sweep answered with a non-stream reply".to_string(),
                )))
            }
            Err(e) => {
                self.terminated = true;
                Some(Err(e))
            }
        }
    }
}

impl<T: WireScalar> SweepStream<'_, T> {
    /// The terminal frame's summary. Drains any remaining items first (they
    /// cannot be delivered after this call), so prefer calling it once the
    /// iterator has returned `None`. A terminal failure encountered while
    /// draining — e.g. the server closing the stream with an error frame —
    /// is returned as that error, not masked.
    pub fn done(mut self) -> Result<SweepDoneReply, ClientError> {
        loop {
            match self.next() {
                Some(Ok(_)) => {}
                Some(Err(e)) => return Err(e),
                None => break,
            }
        }
        self.done.take().ok_or_else(|| {
            ClientError::Protocol("sweep stream ended without a sweep_done frame".to_string())
        })
    }
}

fn result_of(response: &Json) -> Result<&Json, ClientError> {
    response
        .get("result")
        .ok_or_else(|| ClientError::Protocol("response lacks a \"result\"".to_string()))
}

fn decode_error(response: &Json) -> Option<WireError> {
    if response.get("ok").and_then(Json::as_bool) != Some(false) {
        return None;
    }
    let error = response.get("error");
    let code = error
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        .unwrap_or("internal");
    let message = error
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_string();
    // Return the server's code through a static table so the WireError keeps
    // its &'static str code type.
    Some(WireError::new(intern_code(code), message))
}

fn decode_sweep_done(response: &Json) -> Result<SweepDoneReply, ClientError> {
    let cache = response
        .get("cache")
        .and_then(CacheDisposition::from_wire)
        .ok_or_else(|| ClientError::Protocol("sweep_done lacks a \"cache\" field".to_string()))?;
    let result = result_of(response)?;
    let count = result
        .get("count")
        .and_then(Json::as_u64)
        .ok_or_else(|| ClientError::Protocol("sweep_done lacks a \"count\"".to_string()))?;
    let stats = result
        .get("stats")
        .and_then(stats_from_wire)
        .ok_or_else(|| ClientError::Protocol("sweep_done lacks \"stats\"".to_string()))?;
    Ok(SweepDoneReply {
        cache,
        count,
        stats,
    })
}

/// The head every compute request starts with: op, scalar tag and cache mode.
fn compute_head<T: WireScalar>(op: &str, cache: CacheMode) -> Json {
    Json::obj()
        .with("op", Json::str(op))
        .with("scalar", Json::str(T::TAG))
        .with("cache", Json::str(cache.as_wire()))
}

fn cached_result(response: &Json) -> Result<(&Json, CacheDisposition, String), ClientError> {
    let result = result_of(response)?;
    let cache = response
        .get("cache")
        .and_then(CacheDisposition::from_wire)
        .ok_or_else(|| ClientError::Protocol("response lacks a \"cache\" field".to_string()))?;
    Ok((result, cache, json::to_string(result)))
}

fn scalar_reply_field<T: WireScalar>(result: &Json, field: &str) -> Result<T, ClientError> {
    result
        .get(field)
        .and_then(T::from_wire)
        .ok_or_else(|| ClientError::Protocol(format!("reply lacks a scalar \"{field}\"")))
}

/// Decode one solve result object (a `solve` reply's `result` or a
/// `sweep_item`'s `result`).
pub fn decode_solve<T: WireScalar>(result: &Json) -> Result<SolveReply<T>, ClientError> {
    let alpha = scalar_reply_field::<T>(result, "alpha")?;
    let loss = scalar_reply_field::<T>(result, "loss")?;
    let mechanism = rows_from_wire(
        result
            .get("mechanism")
            .ok_or_else(|| ClientError::Protocol("solve reply lacks \"mechanism\"".to_string()))?,
    )
    .map_err(|e| ClientError::Protocol(e.to_string()))?;
    let stats = result
        .get("stats")
        .and_then(stats_from_wire)
        .ok_or_else(|| ClientError::Protocol("solve reply lacks \"stats\"".to_string()))?;
    Ok(SolveReply {
        alpha,
        loss,
        mechanism,
        stats,
    })
}
