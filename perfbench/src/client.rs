//! The closed-loop client: two framed TCP connections, each keeping a fixed
//! window of requests in flight, matched to replies by id.
//!
//! Replies are taken apart lexically (the server renders `v`, `id`, `ok`,
//! the stream tags and `cache` before `result`/`error`, and never anything
//! after them), so the client spends as little of the shared cores as it
//! can; every distinct `result` is kept for the correctness gate.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use privmech_serve::frame::read_frame;
use privmech_serve::proto::assemble_solves;

use crate::plan::Plan;

/// One blocking framed connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Conn {
    /// Connect with Nagle off (requests are small and latency-bound).
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, stream.try_clone()?),
            writer: BufWriter::with_capacity(1 << 16, stream),
        })
    }

    /// Queue one frame (sent on the next [`Conn::flush`]).
    pub fn send(&mut self, payload: &str) -> io::Result<()> {
        let len = u32::try_from(payload.len()).map_err(|_| io::Error::other("frame too long"))?;
        self.writer.write_all(&len.to_be_bytes())?;
        self.writer.write_all(payload.as_bytes())
    }

    /// Push queued frames to the socket.
    pub fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }

    /// Read one frame.
    pub fn recv(&mut self) -> io::Result<String> {
        let payload = read_frame(&mut self.reader)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?;
        String::from_utf8(payload).map_err(|_| io::Error::other("reply is not UTF-8"))
    }

    /// One request, one reply (nothing else in flight).
    pub fn call(&mut self, payload: &str) -> io::Result<String> {
        self.send(payload)?;
        self.flush()?;
        self.recv()
    }
}

/// A reply frame, taken apart lexically.
struct Reply<'a> {
    id: u64,
    /// `Some(index)` for a non-terminal `sweep_item`.
    item: Option<usize>,
    /// The `result` value (ok replies).
    result: Option<&'a str>,
    /// The error code (failed replies).
    code: Option<&'a str>,
}

fn parse_reply(text: &str) -> Option<Reply<'_>> {
    let rest = text.strip_prefix("{\"v\":2,\"id\":")?;
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    let id = rest[..digits].parse().ok()?;
    let rest = &rest[digits..];
    if let Some(rest) = rest.strip_prefix(",\"ok\":true") {
        let item = match rest.strip_prefix(",\"stream\":\"sweep_item\",\"index\":") {
            Some(tail) => {
                let digits = tail.bytes().take_while(u8::is_ascii_digit).count();
                Some(tail[..digits].parse().ok()?)
            }
            None => None,
        };
        let at = rest.find("\"result\":")? + "\"result\":".len();
        let result = rest.get(at..rest.len().checked_sub(1)?)?;
        Some(Reply {
            id,
            item,
            result: Some(result),
            code: None,
        })
    } else {
        let at = rest.find("\"error\":{\"code\":\"")? + "\"error\":{\"code\":\"".len();
        let len = rest[at..].find('"')?;
        Some(Reply {
            id,
            item: None,
            result: None,
            code: Some(&rest[at..at + len]),
        })
    }
}

/// How a phase walks its sequence.
#[derive(Clone, Copy)]
pub enum Pace {
    /// Walk the sequence once.
    Once,
    /// Wrap around the sequence, sending from `start` until `deadline`;
    /// sample times count from `start`.
    Until { start: Instant, deadline: Instant },
}

/// What one connection (or, merged, one phase) observed.
#[derive(Default)]
pub struct Outcome {
    /// One sample per completed request.
    pub samples: Vec<Sample>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed.
    pub failed: u64,
    /// Failed requests by error code.
    pub failures: BTreeMap<String, u64>,
    /// Failures that are not pinned, or pinned ones failing with another
    /// code; any entry fails the run.
    pub unexpected: Vec<String>,
    /// Every distinct successful result per template (sweeps reassembled
    /// into their monolithic rendering).
    pub results: HashMap<usize, Vec<String>>,
    /// CPU time the connection's thread used.
    pub cpu_ns: u64,
}

impl Outcome {
    /// Fold another connection's outcome into this one.
    pub fn merge(&mut self, other: Outcome) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (code, count) in other.failures {
            *self.failures.entry(code).or_default() += count;
        }
        self.unexpected.extend(other.unexpected);
        for (template, results) in other.results {
            let mine = self.results.entry(template).or_default();
            for result in results {
                if !mine.contains(&result) {
                    mine.push(result);
                }
            }
        }
        self.cpu_ns += other.cpu_ns;
    }
}

/// A completed request.
#[derive(Clone, Copy)]
pub struct Sample {
    /// The connection that sent it.
    pub conn: usize,
    /// Its position in that connection's sequence (counting on past the end
    /// when the sequence wraps around).
    pub position: usize,
    /// The template it was an instance of.
    pub template: usize,
    /// Sent, from the start of the phase.
    pub sent_ns: u64,
    /// Terminal frame received, from the start of the phase.
    pub done_ns: u64,
    /// Whether it succeeded.
    pub ok: bool,
}

struct InFlight {
    id: u64,
    position: usize,
    template: usize,
    sent: Instant,
    items: Vec<Option<String>>,
}

/// Drive connection number `index` through its own `sequence` with
/// `window` requests in flight. Each connection walks a sequence of its own,
/// so how fast one goes never changes what the other sends.
#[allow(clippy::too_many_arguments)]
pub fn drive(
    conn: &mut Conn,
    index: usize,
    plan: &Plan,
    sequence: &[usize],
    window: usize,
    bypass: bool,
    pace: Pace,
    epoch: Instant,
) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    if sequence.is_empty() {
        return Ok(out);
    }
    let cpu_start = thread_cpu_ns();
    let mut next_id: u64 = 1;
    let mut cursor = 0;
    let mut inflight: Vec<InFlight> = Vec::with_capacity(window);
    // The next (position, template) to send, if any.
    let mut next = |now: Instant| -> Option<(usize, usize)> {
        let template = match pace {
            Pace::Once => *sequence.get(cursor)?,
            Pace::Until { deadline, .. } if now < deadline => sequence[cursor % sequence.len()],
            Pace::Until { .. } => return None,
        };
        cursor += 1;
        Some((cursor - 1, template))
    };
    // Fill the window.
    while inflight.len() < window {
        let Some((position, template)) = next(Instant::now()) else {
            break;
        };
        let frame = plan.templates[template].frame(next_id, bypass);
        // Stamped before sending: a reply can arrive before this thread
        // runs again.
        let sent = Instant::now();
        conn.send(&frame)?;
        out.attempted += 1;
        inflight.push(InFlight {
            id: next_id,
            position,
            template,
            sent,
            items: Vec::new(),
        });
        next_id += 1;
    }
    conn.flush()?;
    while !inflight.is_empty() {
        let text = conn.recv()?;
        let now = Instant::now();
        let reply = parse_reply(&text)
            .ok_or_else(|| io::Error::other(format!("unparsable reply: {text:.200}")))?;
        let slot = inflight
            .iter()
            .position(|f| f.id == reply.id)
            .ok_or_else(|| io::Error::other(format!("reply for unknown id {}", reply.id)))?;
        if let Some(index) = reply.item {
            let items = &mut inflight[slot].items;
            if items.len() <= index {
                items.resize(index + 1, None);
            }
            items[index] = reply.result.map(str::to_string);
            continue;
        }
        let done = inflight.swap_remove(slot);
        let template = &plan.templates[done.template];
        out.samples.push(Sample {
            conn: index,
            position: done.position,
            template: done.template,
            sent_ns: (done.sent - epoch).as_nanos() as u64,
            done_ns: (now - epoch).as_nanos() as u64,
            ok: reply.result.is_some(),
        });
        match (reply.result, reply.code) {
            (Some(result), _) => {
                let assembled;
                let result = if template.op == "sweep" {
                    let items: Option<Vec<&str>> =
                        done.items.iter().map(Option::as_deref).collect();
                    let items = items.ok_or_else(|| io::Error::other("sweep stream has gaps"))?;
                    assembled = assemble_solves(items);
                    assembled.as_str()
                } else {
                    result
                };
                let distinct = out.results.entry(done.template).or_default();
                if !distinct.iter().any(|r| r == result) {
                    distinct.push(result.to_string());
                }
            }
            (None, Some(code)) => {
                out.failed += 1;
                *out.failures.entry(code.to_string()).or_default() += 1;
                if template.pinned != Some(code) {
                    out.unexpected.push(format!(
                        "{} failed with {code}: {}",
                        template.op,
                        &template.tail[..template.tail.len().min(160)]
                    ));
                }
            }
            (None, None) => return Err(io::Error::other("reply has neither result nor error")),
        }
        if let Some((position, template)) = next(now) {
            let frame = plan.templates[template].frame(next_id, bypass);
            let sent = Instant::now();
            conn.send(&frame)?;
            conn.flush()?;
            out.attempted += 1;
            inflight.push(InFlight {
                id: next_id,
                position,
                template,
                sent,
                items: Vec::new(),
            });
            next_id += 1;
        }
    }
    out.cpu_ns = thread_cpu_ns().saturating_sub(cpu_start);
    Ok(out)
}

/// Run one phase over both connections, each through its own sequence
/// (this thread drives the first, one scoped thread the second), and merge
/// what they saw.
pub fn phase(
    conns: &mut [Conn; 2],
    plan: &Plan,
    sequences: &[Vec<usize>; 2],
    window: usize,
    bypass: bool,
    pace: Pace,
) -> io::Result<Outcome> {
    let [first, second] = conns;
    let epoch = match pace {
        Pace::Once => Instant::now(),
        Pace::Until { start, .. } => start,
    };
    let (a, b) = std::thread::scope(|scope| {
        let other =
            scope.spawn(move || drive(second, 1, plan, &sequences[1], window, bypass, pace, epoch));
        let mine = drive(first, 0, plan, &sequences[0], window, bypass, pace, epoch);
        (mine, other.join().expect("connection thread panicked"))
    });
    let mut outcome = a?;
    outcome.merge(b?);
    Ok(outcome)
}

/// CPU time this thread has used, in ns (`/proc/thread-self/schedstat`).
fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}
