//! The readiness reactor under both the server and the router, and its
//! nonblocking building blocks: an incremental frame decoder and a buffered
//! outbox.
//!
//! The blocking [`crate::frame`] helpers assume they may park on the socket;
//! an event loop cannot. [`FrameReader`] accumulates whatever bytes a
//! readiness-driven read produced and yields complete frames as they appear;
//! [`Outbox`] queues rendered frames and pumps them out in `WouldBlock`-sized
//! steps. Both preserve the wire format of [`crate::frame`] exactly.
//!
//! [`Reactor`] is the one event loop. It owns the listener, the poller, the
//! [`Doorbell`] other threads ring to wake it, and the client connection
//! table: accept, reads, the in-flight read gate, the `malformed_frame`
//! reply, flushes, teardown, and the single drain → quiesce → shutdown
//! sequence bounded by [`DRAIN_GRACE`]. What a decoded frame *means* is the
//! [`Handler`]'s business: the server queues it for its worker pool, the
//! router forwards it to a shard. Every client write goes through one
//! [`ConnWriter`], whichever thread makes it.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

use crate::frame::MAX_FRAME_LEN;
use crate::json::{self, Json};
use crate::proto::{error_response, wire_error_json, WireError};
use crate::sys::{EpollEvent, Poller, WakeFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT};

/// How many buffered-but-unsent bytes a connection may accumulate before it
/// is declared dead. A client that stops *reading* while its requests are in
/// flight would otherwise grow its outbox without bound (the readiness loop
/// never blocks on writes, so there is no write timeout to save it); past
/// this cap the connection is torn down instead. Generous enough for a full
/// in-flight window of maximum-size frames not to trip it under ordinary
/// slowness.
pub const MAX_OUTBOX_BYTES: usize = 256 * 1024 * 1024;

/// Incremental decoder for length-prefixed frames: feed it raw socket bytes,
/// take complete frames out.
pub struct FrameReader {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameReader {
    /// An empty decoder.
    #[must_use]
    pub fn new() -> Self {
        FrameReader {
            buf: Vec::new(),
            pos: 0,
        }
    }

    /// Append raw bytes from the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact before growing: decoded frames leave a dead prefix behind.
        if self.pos > 0 && (self.pos == self.buf.len() || self.pos >= 64 * 1024) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Read from `source` (a nonblocking socket) into the decode buffer
    /// until it would block. Returns `Ok(true)` if the peer reached EOF.
    pub fn fill(&mut self, source: &mut impl Read, scratch: &mut [u8]) -> io::Result<bool> {
        loop {
            match source.read(scratch) {
                Ok(0) => return Ok(true),
                Ok(n) => self.extend(&scratch[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Pop the next complete frame, if one is buffered. An oversized length
    /// prefix is unrecoverable (the stream can never resynchronize) and
    /// errors out, mirroring [`crate::frame::read_frame`].
    pub fn next_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        let pending = &self.buf[self.pos..];
        if pending.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes([pending[0], pending[1], pending[2], pending[3]]) as usize;
        if len > MAX_FRAME_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {len} exceeds limit {MAX_FRAME_LEN}"),
            ));
        }
        if pending.len() < 4 + len {
            return Ok(None);
        }
        let frame = pending[4..4 + len].to_vec();
        self.pos += 4 + len;
        Ok(Some(frame))
    }

    /// Whether undecoded bytes remain (a partial frame at EOF means the
    /// stream was truncated mid-frame).
    #[must_use]
    pub fn has_partial(&self) -> bool {
        self.pos < self.buf.len()
    }
}

impl Default for FrameReader {
    fn default() -> Self {
        FrameReader::new()
    }
}

/// A byte queue of rendered frames awaiting socket writability.
pub struct Outbox {
    buf: Vec<u8>,
    pos: usize,
}

impl Outbox {
    /// An empty outbox.
    #[must_use]
    pub fn new() -> Self {
        Outbox {
            buf: Vec::new(),
            pos: 0,
        }
    }

    /// Queue one frame (length prefix + payload). Errors if the payload is
    /// oversized or the outbox would exceed [`MAX_OUTBOX_BYTES`].
    pub fn push_frame(&mut self, payload: &[u8]) -> io::Result<()> {
        let len = u32::try_from(payload.len())
            .ok()
            .filter(|&len| len as usize <= MAX_FRAME_LEN)
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "frame length {} exceeds limit {MAX_FRAME_LEN}",
                        payload.len()
                    ),
                )
            })?;
        if self.len() + 4 + payload.len() > MAX_OUTBOX_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::WouldBlock,
                "connection outbox overflow (peer is not reading)",
            ));
        }
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        }
        self.buf.extend_from_slice(&len.to_be_bytes());
        self.buf.extend_from_slice(payload);
        Ok(())
    }

    /// Unsent bytes queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether everything queued has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Write as much as the (nonblocking) sink accepts right now. Returns
    /// whether the outbox is now empty.
    pub fn pump(&mut self, sink: &mut impl Write) -> io::Result<bool> {
        while self.pos < self.buf.len() {
            match sink.write(&self.buf[self.pos..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => {
                    self.pos += n;
                    if self.pos >= 64 * 1024 && self.pos == self.buf.len() {
                        self.buf.clear();
                        self.pos = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.pos = 0;
        Ok(true)
    }
}

impl Default for Outbox {
    fn default() -> Self {
        Outbox::new()
    }
}

/// How long a stopping reactor keeps flushing outboxes and waiting for
/// in-flight requests before force-closing what remains.
pub(crate) const DRAIN_GRACE: Duration = Duration::from_secs(5);

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
/// The first poller token a [`Handler`] may reserve for its own sockets;
/// client connections are numbered after the reserved range.
pub(crate) const FIRST_HANDLER_TOKEN: u64 = 2;

/// The reactor's doorbell: threads that change a connection's outbox or
/// in-flight count push its token here and wake the loop out of
/// `epoll_wait`; the handles raise the stop flag the same way.
pub(crate) struct Doorbell {
    wake: WakeFd,
    dirty: Mutex<Vec<u64>>,
    stop: AtomicBool,
    /// The reactor thread, which services the dirty list before it waits
    /// again and so never needs the eventfd to wake itself.
    loop_thread: OnceLock<ThreadId>,
    /// High-water mark of any single connection's in-flight depth, as
    /// recorded by [`ConnWriter::record_depth`].
    inflight_peak: AtomicU64,
}

impl Doorbell {
    fn new() -> io::Result<Self> {
        Ok(Doorbell {
            wake: WakeFd::new()?,
            dirty: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
            loop_thread: OnceLock::new(),
            inflight_peak: AtomicU64::new(0),
        })
    }

    fn ring(&self, token: u64) {
        self.dirty
            .lock()
            .expect("dirty token list poisoned")
            .push(token);
        if self.loop_thread.get() != Some(&thread::current().id()) {
            self.wake.signal();
        }
    }

    fn take(&self) -> Vec<u64> {
        std::mem::take(&mut *self.dirty.lock().expect("dirty token list poisoned"))
    }

    /// Ask the reactor to drain and exit.
    pub(crate) fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.wake.signal();
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// The deepest any one connection's in-flight window has been.
    pub(crate) fn inflight_peak(&self) -> u64 {
        self.inflight_peak.load(Ordering::Relaxed)
    }
}

/// One client connection's write half. Writers never touch the socket:
/// [`ConnWriter::send`] queues whole frames into the outbox under a mutex
/// (frames never interleave mid-frame; interleaving *between* requests is
/// what the `id` tag is for) and rings the doorbell so the reactor flushes
/// it. Worker threads and the router's loop-thread relays share this type.
pub(crate) struct ConnWriter {
    outbox: Mutex<Outbox>,
    /// Set on the first unrecoverable failure (outbox overflow — the peer
    /// stopped reading — or a socket error or teardown seen by the reactor):
    /// later sends fail fast instead of queueing bytes that can never be
    /// delivered.
    dead: AtomicBool,
    /// Frames handed to the handler and not yet answered with a terminal
    /// frame. The reactor gates read interest at the configured cap.
    inflight: AtomicUsize,
    token: u64,
    bell: Arc<Doorbell>,
}

impl ConnWriter {
    /// Whether the connection is unrecoverable.
    pub(crate) fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Relaxed)
    }

    fn acquire(&self) {
        self.inflight.fetch_add(1, Ordering::SeqCst);
    }

    /// Raise the in-flight peak to this connection's current depth. The
    /// handler calls it for the requests it starts; leaving a request out
    /// keeps that request from measuring itself.
    pub(crate) fn record_depth(&self) {
        self.bell
            .inflight_peak
            .fetch_max(self.inflight() as u64, Ordering::Relaxed);
    }

    fn inflight(&self) -> usize {
        self.inflight.load(Ordering::SeqCst)
    }

    /// Return the in-flight slot of one frame whose terminal reply is sent.
    pub(crate) fn release(&self) {
        self.inflight.fetch_sub(1, Ordering::SeqCst);
        self.bell.ring(self.token);
    }

    /// Render and queue one frame.
    pub(crate) fn send(&self, frame: &Json) -> io::Result<()> {
        self.send_bytes(json::to_string(frame).as_bytes())
    }

    /// Queue one already-rendered frame payload.
    pub(crate) fn send_bytes(&self, payload: &[u8]) -> io::Result<()> {
        if self.is_dead() {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "connection writer is dead",
            ));
        }
        let result = self
            .outbox
            .lock()
            .expect("connection outbox poisoned")
            .push_frame(payload);
        if result.is_err() {
            self.dead.store(true, Ordering::Relaxed);
        }
        self.bell.ring(self.token);
        result
    }
}

/// What a server or router does on top of the [`Reactor`].
pub(crate) trait Handler {
    /// One decoded client frame. It holds one in-flight slot on `writer`
    /// until the handler calls [`ConnWriter::release`] after the request's
    /// terminal frame. Returns `false` if the frame could not be taken; the
    /// connection then closes once it has flushed.
    fn on_frame(&mut self, poller: &Poller, writer: &Arc<ConnWriter>, payload: Vec<u8>) -> bool;

    /// Readiness on a token in the handler's reserved range (see
    /// [`Reactor::bind`]).
    fn on_event(&mut self, _poller: &Poller, _token: u64, _mask: u32) {}

    /// Whether the handler's own sockets have drained; a stopping reactor
    /// exits only once this and every client connection are quiet.
    fn quiesced(&self) -> bool {
        true
    }
}

/// One client connection's reactor state. Partial frames accumulate in
/// `reader` across readiness events; partially written frames drain from
/// the writer's outbox across writability events.
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    writer: Arc<ConnWriter>,
    /// The interest mask currently registered with the poller.
    interest: u32,
    /// Peer EOF seen (or reads retired by a stop): buffered frames still
    /// dispatch, but no more bytes arrive.
    read_closed: bool,
    /// Unrecoverable framing state or a stop: decode nothing more, flush the
    /// outbox, close.
    closing: bool,
}

impl Conn {
    fn quiesced(&self) -> bool {
        self.writer.inflight() == 0
            && self
                .writer
                .outbox
                .lock()
                .expect("connection outbox poisoned")
                .is_empty()
    }

    /// Hand every complete buffered frame to the handler, stopping at the
    /// in-flight cap (read gating: the caller then drops read interest, so
    /// the client's sends back up into TCP flow control instead of memory).
    fn dispatch(&mut self, handler: &mut impl Handler, poller: &Poller, max_inflight: usize) {
        loop {
            if max_inflight != 0 && self.writer.inflight() >= max_inflight {
                return;
            }
            match self.reader.next_frame() {
                Ok(Some(payload)) => {
                    self.writer.acquire();
                    if !handler.on_frame(poller, &self.writer, payload) {
                        self.closing = true;
                        return;
                    }
                }
                Ok(None) if !(self.read_closed && self.reader.has_partial()) => return,
                // An oversized frame, or EOF mid-frame: framing is
                // unrecoverable. Report if the pipe still works, then close
                // once everything flushes.
                Ok(None) | Err(_) => {
                    let _ = self.writer.send(&error_response(
                        Json::Null,
                        wire_error_json(&WireError::new("malformed_frame", "unreadable frame")),
                        None,
                    ));
                    self.closing = true;
                    return;
                }
            }
        }
    }
}

/// The event loop: one thread owning the listener, the poller and every
/// client connection, driving a [`Handler`].
pub(crate) struct Reactor {
    poller: Poller,
    listener: TcpListener,
    bell: Arc<Doorbell>,
    conns: HashMap<u64, Conn>,
    first_conn_token: u64,
    next_token: u64,
    max_inflight: usize,
    scratch: Vec<u8>,
}

impl Reactor {
    /// Bind and register the listener and the doorbell, so setup failures
    /// surface to the caller rather than in the loop thread. Tokens
    /// `FIRST_HANDLER_TOKEN..FIRST_HANDLER_TOKEN + reserved_tokens` are the
    /// handler's; `max_inflight` (0 = unbounded) caps each connection's
    /// in-flight frames.
    pub(crate) fn bind(addr: &str, max_inflight: usize, reserved_tokens: u64) -> io::Result<Self> {
        let resolved = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unresolvable address"))?;
        let listener = TcpListener::bind(resolved)?;
        listener.set_nonblocking(true)?;
        let bell = Arc::new(Doorbell::new()?);
        let poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, EPOLLIN)?;
        poller.register(bell.wake.as_raw_fd(), TOKEN_WAKE, EPOLLIN)?;
        let first_conn_token = FIRST_HANDLER_TOKEN + reserved_tokens;
        Ok(Reactor {
            poller,
            listener,
            bell,
            conns: HashMap::new(),
            first_conn_token,
            next_token: first_conn_token,
            max_inflight,
            scratch: vec![0u8; 64 * 1024],
        })
    }

    /// The bound listen address (resolves ephemeral ports).
    pub(crate) fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The doorbell that wakes (and stops) this reactor.
    pub(crate) fn doorbell(&self) -> &Arc<Doorbell> {
        &self.bell
    }

    /// Run until stopped, then drain: stop accepting and decoding, let
    /// in-flight requests finish and every outbox (the handler's included)
    /// flush, and close what remains after [`DRAIN_GRACE`].
    pub(crate) fn run(mut self, handler: &mut impl Handler) {
        let _ = self.bell.loop_thread.set(thread::current().id());
        let mut events = [EpollEvent { events: 0, data: 0 }; 64];
        let mut drain_deadline: Option<Instant> = None;
        loop {
            let timeout = if drain_deadline.is_some() { 20 } else { 500 };
            let Ok(n) = self.poller.wait(&mut events, timeout) else {
                break;
            };
            for event in &events[..n] {
                let (token, mask) = (event.data, event.events);
                match token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => self.bell.wake.drain(),
                    token if token < self.first_conn_token => {
                        handler.on_event(&self.poller, token, mask);
                    }
                    token => self.conn_ready(handler, token, mask),
                }
            }
            self.service_dirty(handler);
            if self.bell.stopping() {
                let deadline = *drain_deadline.get_or_insert_with(|| self.begin_drain(handler));
                let quiesced = self.conns.values().all(Conn::quiesced) && handler.quiesced();
                if quiesced || Instant::now() >= deadline {
                    break;
                }
            }
        }
        for (_, conn) in self.conns.drain() {
            conn.writer.dead.store(true, Ordering::Relaxed);
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
    }

    /// Stop accepting and decoding everywhere; in-flight requests finish and
    /// their terminal frames flush. Returns the drain deadline.
    fn begin_drain(&mut self, handler: &mut impl Handler) -> Instant {
        let _ = self.poller.deregister(self.listener.as_raw_fd());
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.read_closed = true;
                conn.closing = true;
            }
            self.service(handler, token);
        }
        self.service_dirty(handler);
        Instant::now() + DRAIN_GRACE
    }

    /// Service every connection whose writer rang the doorbell, until none
    /// is left — servicing can dispatch frames whose replies ring again.
    fn service_dirty(&mut self, handler: &mut impl Handler) {
        loop {
            let dirty = self.bell.take();
            if dirty.is_empty() {
                return;
            }
            for token in dirty {
                self.service(handler, token);
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.bell.stopping() {
                        continue; // drop it; the loop is about to drain
                    }
                    // Pipelined responses are many small back-to-back
                    // frames; leaving Nagle on would stall every frame after
                    // the first behind a delayed ACK whenever the client
                    // isn't writing.
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .register(stream.as_raw_fd(), token, EPOLLIN)
                        .is_err()
                    {
                        continue;
                    }
                    let writer = Arc::new(ConnWriter {
                        outbox: Mutex::new(Outbox::new()),
                        dead: AtomicBool::new(false),
                        inflight: AtomicUsize::new(0),
                        token,
                        bell: Arc::clone(&self.bell),
                    });
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            reader: FrameReader::new(),
                            writer,
                            interest: EPOLLIN,
                            read_closed: false,
                            closing: false,
                        },
                    );
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
    }

    /// A readiness event on a client connection: pull bytes in if readable,
    /// then run the service pass.
    fn conn_ready(&mut self, handler: &mut impl Handler, token: u64, mask: u32) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if mask & (EPOLLERR | EPOLLHUP) != 0 {
            self.teardown(token);
            return;
        }
        if mask & EPOLLIN != 0 && !conn.read_closed {
            match conn.reader.fill(&mut &conn.stream, &mut self.scratch) {
                Ok(eof) => conn.read_closed |= eof,
                Err(_) => {
                    self.teardown(token);
                    return;
                }
            }
        }
        self.service(handler, token);
    }

    /// Advance one connection: dispatch decodable frames (gated by the
    /// in-flight cap), flush the outbox, update poller interest, and tear
    /// the connection down once it is finished.
    fn service(&mut self, handler: &mut impl Handler, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.writer.is_dead() {
            self.teardown(token);
            return;
        }
        if !conn.closing {
            conn.dispatch(handler, &self.poller, self.max_inflight);
        }
        let flushed = {
            let mut outbox = conn
                .writer
                .outbox
                .lock()
                .expect("connection outbox poisoned");
            match outbox.pump(&mut &conn.stream) {
                Ok(emptied) => emptied,
                Err(_) => {
                    drop(outbox);
                    self.teardown(token);
                    return;
                }
            }
        };
        let at_cap = self.max_inflight != 0 && conn.writer.inflight() >= self.max_inflight;
        let readable = !conn.read_closed && !conn.closing && !at_cap;
        let desired = if readable { EPOLLIN } else { 0 } | if flushed { 0 } else { EPOLLOUT };
        if desired != conn.interest
            && self
                .poller
                .modify(conn.stream.as_raw_fd(), token, desired)
                .is_ok()
        {
            conn.interest = desired;
        }
        if (conn.closing || conn.read_closed) && flushed && conn.quiesced() {
            self.teardown(token);
        }
    }

    fn teardown(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            conn.writer.dead.store(true, Ordering::Relaxed);
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_reassemble_from_single_bytes() {
        let mut reader = FrameReader::new();
        let payload = b"{\"v\":2}";
        let mut wire = (payload.len() as u32).to_be_bytes().to_vec();
        wire.extend_from_slice(payload);
        for &byte in &wire[..wire.len() - 1] {
            reader.extend(&[byte]);
            assert!(reader.next_frame().unwrap().is_none());
        }
        reader.extend(&wire[wire.len() - 1..]);
        assert_eq!(reader.next_frame().unwrap().unwrap(), payload);
        assert!(!reader.has_partial());
    }

    #[test]
    fn oversized_length_is_fatal() {
        let mut reader = FrameReader::new();
        reader.extend(&u32::MAX.to_be_bytes());
        assert!(reader.next_frame().is_err());
    }

    #[test]
    fn outbox_round_trips_frames() {
        let mut outbox = Outbox::new();
        outbox.push_frame(b"hello").unwrap();
        outbox.push_frame(b"world").unwrap();
        let mut sink = Vec::new();
        assert!(outbox.pump(&mut sink).unwrap());
        let mut reader = FrameReader::new();
        reader.extend(&sink);
        assert_eq!(reader.next_frame().unwrap().unwrap(), b"hello");
        assert_eq!(reader.next_frame().unwrap().unwrap(), b"world");
    }
}
