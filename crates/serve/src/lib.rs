//! # privmech-serve
//!
//! A cached, batched TCP serving layer over
//! [`PrivacyEngine`](privmech_core::PrivacyEngine).
//!
//! The paper's central result (Theorem 1) is what makes a *server* the right
//! shape for this workload: one mechanism is simultaneously optimal for
//! every minimax consumer, so a solve result depends only on the request
//! content — `(kind, n, α, loss, side information)` — and is perfectly
//! shareable across clients. This crate turns that observation into
//! infrastructure:
//!
//! * a **wire protocol** (v2: tagged multi-in-flight requests, streaming
//!   sweeps): length-prefixed JSON frames over TCP (see [`frame`], [`json`],
//!   [`proto`] and the prose spec in `crates/serve/PROTOCOL.md`),
//! * a **pipelined request loop** ([`server`]): one epoll-style readiness
//!   reactor (hand-rolled bindings, nonblocking sockets, per-connection
//!   frame state machines; shared with the [`router`]) feeding a shared
//!   worker pool, completions queued back through a per-connection outbox —
//!   possibly out of order, matched by request `id` — mapping wire requests
//!   onto
//!   [`PrivacyEngine::solve`](privmech_core::PrivacyEngine::solve) /
//!   [`sweep_with`](privmech_core::PrivacyEngine::sweep_with) /
//!   [`interact`](privmech_core::PrivacyEngine::interact),
//! * a **sharded LRU response cache** ([`cache`]) keyed on the canonical
//!   request fingerprint
//!   ([`ValidatedRequest::fingerprint`](privmech_core::ValidatedRequest::fingerprint)),
//!   with hit/miss/eviction counters, a runtime-checkable guarantee that
//!   cached responses are byte-identical to uncached solves, optional
//!   cross-process persistence ([`persist`]), and a **negative cache** for
//!   deterministic validation errors with its own counters,
//! * per-op **latency histograms** ([`metrics`], the `metrics` op),
//! * a typed **client** ([`client`]): blocking helpers mirroring the engine
//!   API plus the nonblocking surface —
//!   [`Client::submit`](client::Client::submit) → [`Ticket`],
//!   [`Client::recv`](client::Client::recv), and the [`SweepStream`]
//!   iterator that yields per-α results as the server completes them,
//! * a **fleet tier** ([`ring`], [`router`], the `privmech-router` binary):
//!   N shard processes behind one listen address, each frame forwarded to
//!   the shard chosen by consistent hashing on the canonical request key, so
//!   the cache keyspace partitions with zero cross-shard coordination and
//!   routed responses stay byte-identical to a single process.
//!
//! Everything is hand-rolled on `std` — the build environment is offline, so
//! no serde, no tokio (see the workspace shim policy in the root
//! `Cargo.toml`).
//!
//! # Example
//!
//! Spin up an in-process server, solve the paper's flu-report example twice,
//! and watch the second request come back from the cache:
//!
//! ```
//! use privmech_numerics::{rat, Rational};
//! use privmech_serve::client::Client;
//! use privmech_serve::proto::{CacheDisposition, CacheMode, ConsumerSpec, LossSpec};
//! use privmech_serve::server::{self, ServerConfig};
//!
//! let handle = server::spawn(ServerConfig::default()).unwrap();
//! let mut client = Client::connect(handle.addr()).unwrap();
//!
//! let government = ConsumerSpec::<Rational>::minimax(3, LossSpec::Absolute);
//! let first = client.solve(&government, &rat(1, 4), CacheMode::Use).unwrap();
//! let second = client.solve(&government, &rat(1, 4), CacheMode::Use).unwrap();
//!
//! assert_eq!(first.cache, CacheDisposition::Miss);
//! assert_eq!(second.cache, CacheDisposition::Hit);
//! // Byte-identical responses — the cache is invisible to results.
//! assert_eq!(first.raw, second.raw);
//! assert_eq!(first.value.loss, rat(168, 415)); // Table 1(a)
//! handle.shutdown();
//! ```
//!
//! Pipelined: submit many requests on one connection, then
//! consume completions as they arrive — and stream a sweep's per-α results
//! in completion order:
//!
//! ```
//! use privmech_numerics::{rat, Rational};
//! use privmech_serve::client::Client;
//! use privmech_serve::proto::{CacheMode, ConsumerSpec, LossSpec};
//! use privmech_serve::server::{self, ServerConfig};
//!
//! let handle = server::spawn(ServerConfig::default()).unwrap();
//! let mut client = Client::connect(handle.addr()).unwrap();
//!
//! // Two solves in flight at once; replies are matched by ticket.
//! let spec = ConsumerSpec::<Rational>::minimax(2, LossSpec::Absolute);
//! let t1 = client.submit_solve(&spec, &rat(1, 4), CacheMode::Use).unwrap();
//! let t2 = client.submit_solve(&spec, &rat(1, 2), CacheMode::Use).unwrap();
//! let second = client.wait(t2).unwrap(); // out-of-order wait is fine
//! let first = client.wait(t1).unwrap();
//! assert!(first.get("result").is_some() && second.get("result").is_some());
//!
//! // A streaming sweep: items arrive as each α finishes, tagged by index.
//! let alphas = vec![rat(1, 5), rat(1, 3), rat(1, 2)];
//! let mut seen = [false; 3];
//! let mut stream = client.sweep_stream(&spec, &alphas, CacheMode::Use).unwrap();
//! for item in stream.by_ref() {
//!     seen[item.unwrap().index] = true;
//! }
//! assert_eq!(stream.done().unwrap().count, 3);
//! assert!(seen.iter().all(|&s| s));
//! handle.shutdown();
//! ```

// `deny` (not `forbid`) so the one FFI module below can opt back in; every
// other module stays safe-only.
#![deny(unsafe_code)]
#![deny(missing_docs)]

pub mod cache;
pub mod client;
pub mod frame;
pub mod json;
pub mod metrics;
pub mod persist;
pub mod proto;
pub(crate) mod readiness;
pub mod ring;
pub mod router;
pub mod server;
#[allow(unsafe_code)]
pub(crate) mod sys;
pub mod zoo;

pub use cache::{CacheStats, ShardedCache};
pub use client::{
    CacheStatsReply, Client, ClientError, Event, InteractReply, Reply, SolveReply, SweepDoneReply,
    SweepItemReply, SweepStream, Ticket,
};
pub use json::Json;
pub use metrics::{LatencyHistogram, Metrics};
pub use proto::{
    CacheDisposition, CacheMode, ConsumerSpec, LossSpec, WireError, WireScalar, PROTOCOL_VERSION,
};
pub use ring::ShardRing;
pub use router::{RouterConfig, RouterHandle};
pub use server::{spawn, ServerConfig, ServerHandle};
