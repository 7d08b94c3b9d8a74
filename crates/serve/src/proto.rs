//! The request/response schema shared by the server and the client
//! (protocol v2).
//!
//! The authoritative prose specification lives in `crates/serve/PROTOCOL.md`;
//! this module is its executable form. Keep the two in sync: every schema
//! field or error code added here must be documented there, and vice versa.
//!
//! Design notes:
//!
//! * Requests and responses are single JSON objects, one per frame (see
//!   [`crate::frame`]). The `"v"` field carries the protocol major version;
//!   the server answers only [`PROTOCOL_VERSION`] and rejects every other
//!   major with `unsupported_version` (additive fields do not bump the
//!   version — unknown fields are ignored). Every frame must carry a
//!   client-chosen `"id"`; many may be in flight per connection and replies
//!   are matched by `"id"`, with `sweep` answered as a stream of
//!   `sweep_item` frames plus a terminal `sweep_done`.
//! * Scalars travel in backend-tagged form (the request's `"scalar"` field):
//!   exact rationals as strings (`"5/3"`, also accepting integer and decimal
//!   literals), doubles as JSON numbers in shortest round-tripping form, so
//!   IEEE equality coincides with lexical equality on the wire.
//! * A compute request has one **lexical key**, `op|tag|canonical
//!   spec|payload` ([`routing_key`]): the router's ring key, the server's
//!   key-memo key and, behind `neg|`, its negative-cache key, computed by one
//!   function from the decoded request.
//! * The reply envelopes are rendered here, and the lexical reading of
//!   their head that the router and load runner rely on ([`scan_reply`])
//!   sits next to the renderers; so does the one field list of the `stats`
//!   reply, which the server renders and the router sums.

use std::sync::Arc;

use privmech_core::{
    AbsoluteError, ConsumerKind, CoreError, Interaction, Mechanism, PivotStats, Solve,
    SolveRequest, SolveStrategy, SquaredError, TableLoss, ToleranceError, ValidatedRequest,
    ZeroOneError,
};
use privmech_linalg::{Matrix, Scalar};
use privmech_numerics::Rational;

use crate::cache::CacheStats;
use crate::client::CacheStatsReply;
use crate::json::{self, Json};
use crate::zoo::ZooRequest;

/// The protocol major this build speaks (v2: tagged multi-in-flight
/// requests and streaming sweeps); frames of any other major are rejected
/// (see `PROTOCOL.md` § Versioning).
pub const PROTOCOL_VERSION: u64 = 2;

/// Upper bound on the query-range bound `n` a server accepts over the wire.
///
/// The request itself is tiny (`n` is one integer), so without this guard a
/// 60-byte frame could demand an `(n+1)²` allocation and an astronomically
/// large LP — an attack, not a workload (exact solves are already
/// multi-minute by `n = 16`). Requests beyond the limit are rejected with
/// `bad_request` before anything is allocated.
pub const MAX_WIRE_N: usize = 1024;

/// A schema- or computation-level failure, carried as `{code, message}` in
/// error responses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Stable machine-readable code (see `PROTOCOL.md` for the full table).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    /// Build an error with a stable code.
    #[must_use]
    pub fn new(code: &'static str, message: impl Into<String>) -> Self {
        WireError {
            code,
            message: message.into(),
        }
    }

    /// Schema-level rejection (missing or ill-typed field).
    #[must_use]
    pub fn bad_request(message: impl Into<String>) -> Self {
        WireError::new("bad_request", message)
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for WireError {}

/// Map a [`CoreError`] onto its stable wire code. Field-level validation
/// failures keep distinct codes so clients can react precisely.
#[must_use]
pub fn core_error_code(e: &CoreError) -> &'static str {
    match e {
        CoreError::InvalidAlpha { .. } => "invalid_alpha",
        CoreError::InvalidMechanism { .. } => "invalid_mechanism",
        CoreError::InvalidPostProcessing { .. } => "invalid_post_processing",
        CoreError::NonMonotoneLoss { .. } => "non_monotone_loss",
        CoreError::InvalidSideInformation { .. } => "invalid_side_information",
        CoreError::InvalidPrior { .. } => "invalid_prior",
        CoreError::InvalidPrivacyLevels { .. } => "invalid_privacy_levels",
        CoreError::NotDerivable { .. } => "not_derivable",
        CoreError::InvalidRequest { .. } => "invalid_request",
        CoreError::InputOutOfRange { .. } => "input_out_of_range",
        CoreError::Linalg(_) => "linalg_error",
        CoreError::Lp(_) => "lp_error",
    }
}

impl From<CoreError> for WireError {
    fn from(e: CoreError) -> Self {
        WireError::new(core_error_code(&e), e.to_string())
    }
}

/// Whether a wire code names a **deterministic validation failure** — a
/// [`CoreError`]-mapped rejection that depends only on the request content,
/// never on server state. Exactly these are eligible for negative caching
/// (`lp_error`/`linalg_error` are compute-stage and deliberately excluded).
#[must_use]
pub fn is_validation_code(code: &str) -> bool {
    matches!(
        code,
        "invalid_alpha"
            | "invalid_mechanism"
            | "invalid_post_processing"
            | "non_monotone_loss"
            | "invalid_side_information"
            | "invalid_prior"
            | "invalid_privacy_levels"
            | "not_derivable"
            | "invalid_request"
            | "input_out_of_range"
    )
}

/// Map a wire error code onto its static form (unknown codes collapse to
/// `"internal"`; messages still carry the original text). The table is the
/// full code list of `PROTOCOL.md` § Error codes.
#[must_use]
pub fn intern_code(code: &str) -> &'static str {
    const CODES: &[&str] = &[
        "unsupported_version",
        "malformed_frame",
        "malformed_json",
        "bad_request",
        "unknown_op",
        "unsupported_scalar",
        "invalid_alpha",
        "invalid_mechanism",
        "invalid_post_processing",
        "non_monotone_loss",
        "invalid_side_information",
        "invalid_prior",
        "invalid_privacy_levels",
        "not_derivable",
        "invalid_request",
        "input_out_of_range",
        "linalg_error",
        "lp_error",
        "cache_verify_failed",
        "shard_unavailable",
    ];
    CODES
        .iter()
        .find(|&&c| c == code)
        .copied()
        .unwrap_or("internal")
}

/// The **routing key** of a compute request: its lexical key,
/// `op|tag|canonical spec|payload` (for zoo ops `op|tag|canonical
/// scenario`), which *is* the server's key-memo key, so every spelling of a
/// request that shares a memoized cache key routes to the same shard.
///
/// `None` for non-compute ops, undecodable specs, and missing payload fields
/// — requests whose (error) response doesn't depend on cache state, so the
/// router may send them anywhere. The decode here never *validates* (no loss
/// matrices, no fingerprints): routing costs one parse and one re-render.
#[must_use]
pub fn routing_key(request: &Json) -> Option<String> {
    let op = request.get("op").and_then(Json::as_str)?;
    match request.get("scalar").and_then(Json::as_str) {
        Some("rational") | None => ComputeRequest::<Rational>::from_wire(op, request)
            .map(|compute| compute.key())
            .ok(),
        Some("f64") => ComputeRequest::<f64>::from_wire(op, request)
            .map(|compute| compute.key())
            .ok(),
        Some(_) => None,
    }
}

/// A compute request decoded to the schema level — typed, never validated
/// (no loss matrices, no fingerprints). The payloads a validation failure
/// may lie in (`sweep`'s `alphas`, `interact`'s `mechanism`) stay lexical.
pub(crate) enum ComputeRequest<'a, T: WireScalar> {
    /// `solve`: a consumer at one privacy level (not yet checked).
    Solve { spec: ConsumerSpec<T>, alpha: T },
    /// `sweep`: a consumer at the levels of an `alphas` array.
    Sweep {
        spec: ConsumerSpec<T>,
        alphas: &'a [Json],
    },
    /// `interact`: a consumer post-processing a deployed `mechanism`.
    Interact {
        spec: ConsumerSpec<T>,
        mechanism: &'a Json,
    },
    /// `zoo_table` or `zoo_eval`.
    Zoo(ZooRequest<T>),
}

impl<'a, T: WireScalar> ComputeRequest<'a, T> {
    /// Decode the compute op `op` from a request object. Every failure is
    /// schema-level `bad_request`.
    pub(crate) fn from_wire(op: &str, request: &'a Json) -> Result<Self, WireError> {
        // Dispatch on the op *first*: zoo requests carry no top-level
        // consumer spec (and the zoo decoder rejects every other op).
        let spec = match op {
            "solve" | "sweep" | "interact" => ConsumerSpec::from_wire(request)?,
            _ => return Ok(ComputeRequest::Zoo(ZooRequest::from_wire(op, request)?)),
        };
        Ok(match op {
            "solve" => {
                let alpha = request
                    .get("alpha")
                    .ok_or_else(|| WireError::bad_request("request needs \"alpha\""))?;
                ComputeRequest::Solve {
                    alpha: T::from_wire(alpha)
                        .ok_or_else(|| WireError::bad_request("unparsable scalar in \"alpha\""))?,
                    spec,
                }
            }
            "sweep" => ComputeRequest::Sweep {
                alphas: request
                    .get("alphas")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| WireError::bad_request("sweep needs an \"alphas\" array"))?,
                spec,
            },
            _ => ComputeRequest::Interact {
                mechanism: request
                    .get("mechanism")
                    .ok_or_else(|| WireError::bad_request("interact needs a \"mechanism\""))?,
                spec,
            },
        })
    }

    /// The request's **lexical key**, `op|tag|canonical spec|payload` (zoo
    /// ops: `op|tag|canonical scenario`). The spec and `solve`'s α are
    /// re-encoded canonically; the other payloads enter lexically. Equal
    /// keys imply equal validation outcomes. It is the router's ring key
    /// ([`routing_key`]), the server's key-memo key, and the stem of its
    /// negative-cache keys.
    pub(crate) fn key(&self) -> String {
        let (op, canonical, payload) = match self {
            ComputeRequest::Solve { spec, alpha } => {
                let payload = json::to_string(&alpha.to_wire());
                ("solve", spec.canonical(), Some(payload))
            }
            ComputeRequest::Sweep { spec, alphas } => {
                let payload = json::to_string(&Json::Arr(alphas.to_vec()));
                ("sweep", spec.canonical(), Some(payload))
            }
            ComputeRequest::Interact { spec, mechanism } => (
                "interact",
                spec.canonical(),
                Some(json::to_string(mechanism)),
            ),
            ComputeRequest::Zoo(scenario @ ZooRequest::Table { .. }) => {
                ("zoo_table", scenario.canonical(), None)
            }
            ComputeRequest::Zoo(scenario) => ("zoo_eval", scenario.canonical(), None),
        };
        lexical_key(op, T::TAG, &canonical, payload.as_deref())
    }
}

/// Format a lexical request key: the one place its `op|tag|…` layout is
/// written ([`ComputeRequest::key`], and `interact`'s consumer stage, whose
/// payload is `consumer`).
pub(crate) fn lexical_key(op: &str, tag: &str, canonical: &str, payload: Option<&str>) -> String {
    match payload {
        Some(payload) => format!("{op}|{tag}|{canonical}|{payload}"),
        None => format!("{op}|{tag}|{canonical}"),
    }
}

/// A scalar backend that can travel over the wire.
pub trait WireScalar: Scalar + Send + Sync {
    /// The request `"scalar"` tag selecting this backend.
    const TAG: &'static str;

    /// Encode one value.
    fn to_wire(&self) -> Json;

    /// Decode one value; `None` on type or syntax mismatch.
    fn from_wire(value: &Json) -> Option<Self>;

    /// Append the rendering of [`WireScalar::to_wire`] directly onto `out`
    /// — byte-identical to `json::to_string(&self.to_wire())`, without
    /// building the tree node. The direct result renderers
    /// ([`render_solve`], [`render_interaction`], the zoo renderers) are
    /// built on this, which is what keeps large-matrix miss paths from
    /// allocating one `Json` node per cell (asserted against the tree
    /// oracles in this module's tests).
    fn render_onto(&self, out: &mut String);
}

impl WireScalar for Rational {
    const TAG: &'static str = "rational";

    fn to_wire(&self) -> Json {
        Json::Str(self.to_string())
    }

    fn from_wire(value: &Json) -> Option<Self> {
        // Strings are the canonical form ("5/3"); integer and decimal JSON
        // numbers are accepted for convenience and converted exactly.
        let text = value.as_str().or_else(|| value.num_text())?;
        text.parse().ok()
    }

    fn render_onto(&self, out: &mut String) {
        use std::fmt::Write as _;
        // The Display form is digits, '-' and '/' — nothing the JSON string
        // escaper would touch, so quoting it verbatim matches the tree path.
        let _ = write!(out, "\"{self}\"");
    }
}

impl WireScalar for f64 {
    const TAG: &'static str = "f64";

    fn to_wire(&self) -> Json {
        Json::num_f64(*self).unwrap_or(Json::Null)
    }

    fn from_wire(value: &Json) -> Option<Self> {
        let v = value.as_f64()?;
        v.is_finite().then_some(v)
    }

    fn render_onto(&self, out: &mut String) {
        use std::fmt::Write as _;
        if self.is_finite() {
            // Debug is the shortest round-tripping decimal — the same text
            // `Json::num_f64` stores.
            let _ = write!(out, "{self:?}");
        } else {
            out.push_str("null");
        }
    }
}

/// The loss-function part of a wire request.
#[derive(Debug, Clone, PartialEq)]
pub enum LossSpec<T: Scalar> {
    /// Mean absolute error `|i - r|`.
    Absolute,
    /// Squared error `(i - r)²`.
    Squared,
    /// 0/1 error `[i ≠ r]`.
    ZeroOne,
    /// Hinge loss, free within `width` units.
    Tolerance(usize),
    /// An explicit `(n+1) × (n+1)` table (validated for monotonicity
    /// server-side).
    Table(Vec<Vec<T>>),
}

impl<T: WireScalar> LossSpec<T> {
    /// Encode as the request's `"loss"` field.
    #[must_use]
    pub fn to_wire(&self) -> Json {
        match self {
            LossSpec::Absolute => Json::str("absolute"),
            LossSpec::Squared => Json::str("squared"),
            LossSpec::ZeroOne => Json::str("zero-one"),
            LossSpec::Tolerance(width) => Json::obj()
                .with("kind", Json::str("tolerance"))
                .with("width", Json::num_u64(*width as u64)),
            LossSpec::Table(rows) => Json::obj().with("kind", Json::str("table")).with(
                "rows",
                Json::Arr(
                    rows.iter()
                        .map(|row| Json::Arr(row.iter().map(WireScalar::to_wire).collect()))
                        .collect(),
                ),
            ),
        }
    }

    /// Build the typed loss function. Table losses are validated for shape
    /// here; monotonicity is checked wherever the loss is consumed (core
    /// request validation, or the zoo's explicit `validate_monotone` pass).
    pub fn to_loss(
        &self,
    ) -> Result<Arc<dyn privmech_core::LossFunction<T> + Send + Sync>, WireError> {
        Ok(match self {
            LossSpec::Absolute => Arc::new(AbsoluteError),
            LossSpec::Squared => Arc::new(SquaredError),
            LossSpec::ZeroOne => Arc::new(ZeroOneError),
            LossSpec::Tolerance(width) => Arc::new(ToleranceError { width: *width }),
            LossSpec::Table(rows) => {
                let matrix = Matrix::from_rows(rows.clone())
                    .map_err(|e| WireError::from(CoreError::from(e)))?;
                Arc::new(TableLoss::new(matrix, "wire-table").map_err(WireError::from)?)
            }
        })
    }

    /// Decode the request's `"loss"` field.
    pub fn from_wire(value: &Json) -> Result<Self, WireError> {
        if let Some(name) = value.as_str() {
            return match name {
                "absolute" => Ok(LossSpec::Absolute),
                "squared" => Ok(LossSpec::Squared),
                "zero-one" => Ok(LossSpec::ZeroOne),
                other => Err(WireError::bad_request(format!("unknown loss \"{other}\""))),
            };
        }
        match value.get("kind").and_then(Json::as_str) {
            Some("tolerance") => {
                let width = value
                    .get("width")
                    .and_then(Json::as_usize)
                    .ok_or_else(|| WireError::bad_request("tolerance loss needs a width"))?;
                Ok(LossSpec::Tolerance(width))
            }
            Some("table") => {
                let rows = value
                    .get("rows")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| WireError::bad_request("table loss needs rows"))?;
                let mut table = Vec::with_capacity(rows.len());
                for row in rows {
                    let cells = row
                        .as_arr()
                        .ok_or_else(|| WireError::bad_request("table rows must be arrays"))?;
                    let mut out = Vec::with_capacity(cells.len());
                    for cell in cells {
                        out.push(T::from_wire(cell).ok_or_else(|| {
                            WireError::bad_request("unparsable scalar in loss table")
                        })?);
                    }
                    table.push(out);
                }
                Ok(LossSpec::Table(table))
            }
            _ => Err(WireError::bad_request(
                "loss must be a builtin name or {kind: tolerance|table, ...}",
            )),
        }
    }
}

/// The consumer part of a wire request: everything except the privacy
/// level(s), matching the shareable content of a solve (one cache entry
/// serves every consumer with the same spec and α).
#[derive(Debug, Clone)]
pub struct ConsumerSpec<T: Scalar> {
    /// Minimax or Bayesian.
    pub kind: ConsumerKind,
    /// Query-range bound `n`.
    pub n: usize,
    /// Minimax side information (`None` = full `{0, …, n}`).
    pub support: Option<Vec<usize>>,
    /// Bayesian prior over `{0, …, n}`.
    pub prior: Option<Vec<T>>,
    /// The loss function.
    pub loss: LossSpec<T>,
    /// Solve strategy (ignored by `interact`).
    pub strategy: SolveStrategy,
}

impl<T: WireScalar> ConsumerSpec<T> {
    /// A minimax spec with full side information and the default strategy.
    #[must_use]
    pub fn minimax(n: usize, loss: LossSpec<T>) -> Self {
        ConsumerSpec {
            kind: ConsumerKind::Minimax,
            n,
            support: None,
            prior: None,
            loss,
            strategy: SolveStrategy::default(),
        }
    }

    /// A Bayesian spec (`n` is inferred from the prior length).
    #[must_use]
    pub fn bayesian(prior: Vec<T>, loss: LossSpec<T>) -> Self {
        ConsumerSpec {
            kind: ConsumerKind::Bayesian,
            n: prior.len().saturating_sub(1),
            support: None,
            prior: Some(prior),
            loss,
            strategy: SolveStrategy::default(),
        }
    }

    /// Restrict a minimax spec's side information.
    #[must_use]
    pub fn with_support(mut self, support: Vec<usize>) -> Self {
        self.support = Some(support);
        self
    }

    /// Select the solve strategy.
    #[must_use]
    pub fn with_strategy(mut self, strategy: SolveStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Append this spec's fields onto a request object.
    #[must_use]
    pub fn encode_onto(&self, mut obj: Json) -> Json {
        obj = obj.with(
            "kind",
            Json::str(match self.kind {
                ConsumerKind::Minimax => "minimax",
                ConsumerKind::Bayesian => "bayesian",
            }),
        );
        obj = obj.with("n", Json::num_u64(self.n as u64));
        if let Some(support) = &self.support {
            obj = obj.with(
                "support",
                Json::Arr(support.iter().map(|&m| Json::num_u64(m as u64)).collect()),
            );
        }
        if let Some(prior) = &self.prior {
            obj = obj.with(
                "prior",
                Json::Arr(prior.iter().map(WireScalar::to_wire).collect()),
            );
        }
        obj = obj.with("loss", self.loss.to_wire());
        obj.with(
            "strategy",
            Json::str(match self.strategy {
                SolveStrategy::GeometricFactorization => "factorization",
                SolveStrategy::DirectLp => "direct",
            }),
        )
    }

    /// The canonical rendering of [`ConsumerSpec::encode_onto`] on an empty
    /// object: every spelling of the same spec renders identically.
    pub(crate) fn canonical(&self) -> String {
        json::to_string(&self.encode_onto(Json::obj()))
    }

    /// Decode a spec from a request object.
    pub fn from_wire(obj: &Json) -> Result<Self, WireError> {
        let kind = match obj.get("kind").and_then(Json::as_str) {
            Some("minimax") | None => ConsumerKind::Minimax,
            Some("bayesian") => ConsumerKind::Bayesian,
            Some(other) => {
                return Err(WireError::bad_request(format!(
                    "unknown consumer kind \"{other}\""
                )))
            }
        };
        let prior = match obj.get("prior") {
            Some(value) => {
                let cells = value
                    .as_arr()
                    .ok_or_else(|| WireError::bad_request("prior must be an array"))?;
                let mut out = Vec::with_capacity(cells.len());
                for cell in cells {
                    out.push(
                        T::from_wire(cell)
                            .ok_or_else(|| WireError::bad_request("unparsable scalar in prior"))?,
                    );
                }
                Some(out)
            }
            None => None,
        };
        let n = match (obj.get("n").and_then(Json::as_usize), &prior) {
            (Some(n), _) => n,
            (None, Some(p)) if !p.is_empty() => p.len() - 1,
            _ => return Err(WireError::bad_request("request needs an integer n")),
        };
        if n > MAX_WIRE_N {
            return Err(WireError::bad_request(format!(
                "n = {n} exceeds the serving limit of {MAX_WIRE_N}"
            )));
        }
        let support = match obj.get("support") {
            Some(value) => {
                let cells = value
                    .as_arr()
                    .ok_or_else(|| WireError::bad_request("support must be an array"))?;
                let mut out = Vec::with_capacity(cells.len());
                for cell in cells {
                    out.push(cell.as_usize().ok_or_else(|| {
                        WireError::bad_request("support members must be non-negative integers")
                    })?);
                }
                Some(out)
            }
            None => None,
        };
        let loss = LossSpec::from_wire(
            obj.get("loss")
                .ok_or_else(|| WireError::bad_request("request needs a loss"))?,
        )?;
        let strategy = match obj.get("strategy").and_then(Json::as_str) {
            Some("factorization") | None => SolveStrategy::GeometricFactorization,
            Some("direct") => SolveStrategy::DirectLp,
            Some(other) => {
                return Err(WireError::bad_request(format!(
                    "unknown strategy \"{other}\""
                )))
            }
        };
        Ok(ConsumerSpec {
            kind,
            n,
            support,
            prior,
            loss,
            strategy,
        })
    }

    /// Build the typed core request at a privacy level. All consumer-level
    /// validation (monotone loss, support bounds, stochastic prior) happens
    /// here, inside [`SolveRequest::validate`].
    pub fn to_request(&self, alpha: T) -> Result<ValidatedRequest<T>, WireError> {
        let loss = self.loss.to_loss()?;
        let builder = match self.kind {
            ConsumerKind::Minimax => {
                let members = self
                    .support
                    .clone()
                    .unwrap_or_else(|| (0..=self.n).collect());
                SolveRequest::minimax().support(self.n, members)
            }
            ConsumerKind::Bayesian => {
                let prior = self
                    .prior
                    .clone()
                    .ok_or_else(|| WireError::bad_request("bayesian request needs a prior"))?;
                SolveRequest::bayesian().prior(prior)
            }
        };
        builder
            .name("wire")
            .loss(loss)
            .privacy_level(alpha)
            .strategy(self.strategy)
            .validate()
            .map_err(WireError::from)
    }
}

/// Whether a request may be answered from (and recorded into) the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheMode {
    /// Normal operation: answer from the cache when possible, record misses.
    #[default]
    Use,
    /// Compute fresh and leave the cache untouched (used by clients checking
    /// the cached ≡ uncached bit-identity contract).
    Bypass,
}

impl CacheMode {
    /// Encode as the request's `"cache"` field value.
    #[must_use]
    pub fn as_wire(self) -> &'static str {
        match self {
            CacheMode::Use => "use",
            CacheMode::Bypass => "bypass",
        }
    }

    /// Decode the request's `"cache"` field (absent = `Use`).
    pub fn from_wire(obj: &Json) -> Result<Self, WireError> {
        match obj.get("cache").and_then(Json::as_str) {
            None | Some("use") => Ok(CacheMode::Use),
            Some("bypass") => Ok(CacheMode::Bypass),
            Some(other) => Err(WireError::bad_request(format!(
                "unknown cache mode \"{other}\""
            ))),
        }
    }
}

/// How the server answered: from the cache, by solving, or with the cache
/// bypassed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheDisposition {
    /// Served from the response cache.
    Hit,
    /// Solved and recorded into the cache.
    Miss,
    /// Solved fresh with the cache bypassed on request.
    Bypass,
}

impl CacheDisposition {
    /// Encode as the response's `"cache"` field value.
    #[must_use]
    pub fn as_wire(self) -> &'static str {
        match self {
            CacheDisposition::Hit => "hit",
            CacheDisposition::Miss => "miss",
            CacheDisposition::Bypass => "bypass",
        }
    }

    /// Decode the response's `"cache"` field.
    #[must_use]
    pub fn from_wire(value: &Json) -> Option<Self> {
        match value.as_str()? {
            "hit" => Some(CacheDisposition::Hit),
            "miss" => Some(CacheDisposition::Miss),
            "bypass" => Some(CacheDisposition::Bypass),
            _ => None,
        }
    }
}

/// The head every reply envelope starts with: `v`, then `id`, then `ok`
/// (the order [`scan_reply`] relies on), then the cache disposition, if any.
fn envelope(id: Json, ok: bool, cache: Option<CacheDisposition>) -> Json {
    let head = Json::obj()
        .with("v", Json::num_u64(PROTOCOL_VERSION))
        .with("id", id)
        .with("ok", Json::Bool(ok));
    match cache {
        Some(disposition) => head.with("cache", Json::str(disposition.as_wire())),
        None => head,
    }
}

/// A successful terminal reply envelope.
pub(crate) fn ok_response(id: Json, cache: Option<CacheDisposition>, result: Json) -> Json {
    envelope(id, true, cache).with("result", result)
}

/// Render a [`WireError`] as the response's `error` object — also the exact
/// form stored in the negative cache, so negative hits splice byte-identical
/// bytes.
pub(crate) fn wire_error_json(error: &WireError) -> Json {
    Json::obj()
        .with("code", Json::str(error.code))
        .with("message", Json::str(error.message.clone()))
}

/// A failed terminal reply envelope around a rendered `error` object.
pub(crate) fn error_response(id: Json, error: Json, cache: Option<CacheDisposition>) -> Json {
    envelope(id, false, cache).with("error", error)
}

/// A `sweep_item` stream frame: one completed α, tagged with its input index.
pub(crate) fn sweep_item_frame(id: &Json, index: usize, result: Json) -> Json {
    envelope(id.clone(), true, None)
        .with("stream", Json::str("sweep_item"))
        .with("index", Json::num_u64(index as u64))
        .with("result", result)
}

/// The terminal `sweep_done` stream frame: the item count and aggregate
/// statistics.
pub(crate) fn sweep_done_frame(
    id: &Json,
    cache: CacheDisposition,
    count: usize,
    stats: &PivotStats,
) -> Json {
    let result = Json::obj()
        .with("count", Json::num_u64(count as u64))
        .with("stats", stats_to_wire(stats));
    envelope(id.clone(), true, None)
        .with("stream", Json::str("sweep_done"))
        .with("cache", Json::str(cache.as_wire()))
        .with("result", result)
}

/// Read a rendered reply's head lexically, without parsing it: the
/// envelope's numeric `id`, the byte range of its digits (the router
/// splices the client's own id rendering over it), and whether the frame is
/// a non-terminal `sweep_item`. Every reply starts with the envelope head,
/// ahead of any payload that could contain the byte pattern, and a
/// `sweep_item` writes its `stream` marker right after it. `None` when the
/// id is not a non-negative integer.
#[must_use]
pub fn scan_reply(text: &str) -> Option<(u64, std::ops::Range<usize>, bool)> {
    const SWEEP_ITEM: &str = ",\"ok\":true,\"stream\":\"sweep_item\"";
    let start = text.find("\"id\":")? + "\"id\":".len();
    let end = start + text[start..].bytes().take_while(u8::is_ascii_digit).count();
    let id = text[start..end].parse().ok()?;
    Some((id, start..end, text[end..].starts_with(SWEEP_ITEM)))
}

/// The `stats` result, rendered by the server and merged by the router from
/// one field list: the cache counters, which add across a fleet's shards
/// (disjoint keyspace slices, so capacities and entry counts sum too), then
/// the per-connection in-flight cap and peak, which merge as maxima.
#[derive(Debug, Default)]
pub(crate) struct StatsReply([u64; STATS_FIELDS.len()]);

const STATS_FIELDS: [&str; 13] = [
    "hits",
    "misses",
    "evictions",
    "entries",
    "capacity",
    "shards",
    "neg_hits",
    "neg_misses",
    "neg_evictions",
    "neg_entries",
    "neg_capacity",
    "max_inflight",
    "inflight_peak",
];

/// The index of the first field that merges as a maximum.
const STATS_MAXIMA: usize = 11;

impl StatsReply {
    /// One server's figures.
    pub(crate) fn new(
        cache: &CacheStats,
        neg: &CacheStats,
        max_inflight: u64,
        inflight_peak: u64,
    ) -> Self {
        StatsReply([
            cache.hits,
            cache.misses,
            cache.evictions,
            cache.entries as u64,
            cache.capacity as u64,
            cache.shards as u64,
            neg.hits,
            neg.misses,
            neg.evictions,
            neg.entries as u64,
            neg.capacity as u64,
            max_inflight,
            inflight_peak,
        ])
    }

    /// Fold one shard's `stats` result in.
    pub(crate) fn merge(&mut self, result: &Json) {
        for (i, (slot, name)) in self.0.iter_mut().zip(STATS_FIELDS).enumerate() {
            let value = result.get(name).and_then(Json::as_u64).unwrap_or(0);
            *slot = if i < STATS_MAXIMA {
                *slot + value
            } else {
                (*slot).max(value)
            };
        }
    }

    /// Render as the `stats` result object.
    pub(crate) fn to_wire(&self) -> Json {
        let fields = STATS_FIELDS.iter().zip(self.0);
        fields.fold(Json::obj(), |obj, (name, value)| {
            obj.with(name, Json::num_u64(value))
        })
    }

    /// Read a `stats` result object, every field required; the error names
    /// the first missing one.
    pub(crate) fn from_wire(result: &Json) -> Result<Self, &'static str> {
        let mut reply = StatsReply::default();
        for (slot, name) in reply.0.iter_mut().zip(STATS_FIELDS) {
            *slot = result.get(name).and_then(Json::as_u64).ok_or(name)?;
        }
        Ok(reply)
    }
}

/// The typed client's view of the same fields. The pattern lists
/// [`STATS_FIELDS`] in order, so a field added there fails to compile here
/// until the client carries it too.
impl From<StatsReply> for CacheStatsReply {
    fn from(StatsReply(fields): StatsReply) -> Self {
        let [hits, misses, evictions, entries, capacity, shards, neg_hits, neg_misses, neg_evictions, neg_entries, neg_capacity, max_inflight, inflight_peak] =
            fields;
        CacheStatsReply {
            hits,
            misses,
            evictions,
            entries,
            capacity,
            shards,
            neg_hits,
            neg_misses,
            neg_evictions,
            neg_entries,
            neg_capacity,
            max_inflight,
            inflight_peak,
        }
    }
}

/// Gate one request frame up to its op: the parsed request and its `id`, or
/// the terminal error frame for a payload that is not UTF-8 JSON, is not v2,
/// or carries no `id`. The server and the router both gate through this, so
/// their rejections are byte-identical.
pub(crate) fn decode_request(payload: &[u8]) -> Result<(Json, Json), Json> {
    let reject = |id, error: WireError| Err(error_response(id, wire_error_json(&error), None));
    let Ok(text) = std::str::from_utf8(payload) else {
        return reject(
            Json::Null,
            WireError::new("malformed_json", "frame is not UTF-8"),
        );
    };
    let request = match json::parse(text) {
        Ok(value) => value,
        Err(e) => return reject(Json::Null, WireError::new("malformed_json", e.to_string())),
    };
    let id = request.get("id").cloned().unwrap_or(Json::Null);
    let message = match request.get("v").and_then(Json::as_u64) {
        Some(PROTOCOL_VERSION) => None,
        Some(v) => Some(format!(
            "server speaks protocol v{PROTOCOL_VERSION}, request is v{v}"
        )),
        None => Some(format!(
            "request needs an integer \"v\" ({PROTOCOL_VERSION})"
        )),
    };
    if let Some(message) = message {
        return reject(id, WireError::new("unsupported_version", message));
    }
    if id == Json::Null {
        // Replies are matched by id, and many may be in flight — an untagged
        // request could never be correlated.
        return reject(
            Json::Null,
            WireError::bad_request("v2 requests must carry a client-chosen \"id\""),
        );
    }
    Ok((request, id))
}

/// Assemble the monolithic sweep rendering `{"solves":[...]}` from per-item
/// result renderings in input order — the **one** definition of that shape,
/// shared by the server (cache-entry assembly from a streamed miss), the
/// client (reassembling a stream into one byte-comparable `raw`) and the
/// bench harness (the independently hand-rolled copies in
/// `tests/pipeline.rs` / `examples/pipelining.rs` stay as oracles).
#[must_use]
pub fn assemble_solves<'a>(items: impl IntoIterator<Item = &'a str>) -> String {
    let mut out = String::from("{\"solves\":[");
    for (k, item) in items.into_iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        out.push_str(item);
    }
    out.push_str("]}");
    out
}

/// Split a monolithic sweep rendering `{"solves":[...]}` back into the
/// renderings of its items, in order — the lexical inverse of
/// [`assemble_solves`]. The server replays cached sweeps as v2 streams
/// through this instead of a full tree parse: each returned slice is
/// byte-identical to the item rendering originally assembled, so a replayed
/// `sweep_item` costs a slice copy rather than a parse, a tree clone and a
/// re-render. Returns `None` when the input is not of the assembled shape
/// (wrong envelope, unbalanced nesting, or an unterminated string).
#[must_use]
pub fn split_solves(monolithic: &str) -> Option<Vec<&str>> {
    let inner = monolithic
        .strip_prefix("{\"solves\":[")?
        .strip_suffix("]}")?;
    if inner.is_empty() {
        return Some(Vec::new());
    }
    let mut items = Vec::new();
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    let mut item_start = 0usize;
    for (i, &b) in inner.as_bytes().iter().enumerate() {
        if in_string {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_string = false;
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'{' | b'[' => depth += 1,
            b'}' | b']' => depth = depth.checked_sub(1)?,
            b',' if depth == 0 => {
                items.push(&inner[item_start..i]);
                item_start = i + 1;
            }
            _ => {}
        }
    }
    if depth != 0 || in_string {
        return None;
    }
    items.push(&inner[item_start..]);
    Some(items)
}

/// Encode [`PivotStats`] as a response object.
#[must_use]
pub fn stats_to_wire(stats: &PivotStats) -> Json {
    Json::obj()
        .with("phase1_pivots", Json::num_u64(stats.phase1_pivots as u64))
        .with("phase2_pivots", Json::num_u64(stats.phase2_pivots as u64))
        .with(
            "degenerate_pivots",
            Json::num_u64(stats.degenerate_pivots as u64),
        )
        .with("dantzig_pivots", Json::num_u64(stats.dantzig_pivots as u64))
        .with("bland_pivots", Json::num_u64(stats.bland_pivots as u64))
        .with(
            "fallback_activations",
            Json::num_u64(stats.fallback_activations as u64),
        )
}

/// Decode a response stats object (the inverse of [`stats_to_wire`]).
#[must_use]
pub fn stats_from_wire(value: &Json) -> Option<PivotStats> {
    Some(PivotStats {
        phase1_pivots: value.get("phase1_pivots")?.as_usize()?,
        phase2_pivots: value.get("phase2_pivots")?.as_usize()?,
        degenerate_pivots: value.get("degenerate_pivots")?.as_usize()?,
        dantzig_pivots: value.get("dantzig_pivots")?.as_usize()?,
        bland_pivots: value.get("bland_pivots")?.as_usize()?,
        fallback_activations: value.get("fallback_activations")?.as_usize()?,
    })
}

/// Encode a row-stochastic matrix (mechanism or post-processing) as nested
/// arrays.
#[must_use]
pub fn matrix_to_wire<T: WireScalar>(matrix: &Matrix<T>) -> Json {
    Json::Arr(
        matrix
            .row_iter()
            .map(|row| Json::Arr(row.iter().map(WireScalar::to_wire).collect()))
            .collect(),
    )
}

/// Append the rendering of [`matrix_to_wire`] directly onto `out` —
/// byte-identical to `json::to_string(&matrix_to_wire(matrix))` without the
/// per-cell `Json` nodes.
pub fn render_matrix_onto<T: WireScalar>(out: &mut String, matrix: &Matrix<T>) {
    out.push('[');
    for (i, row) in matrix.row_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (r, cell) in row.iter().enumerate() {
            if r > 0 {
                out.push(',');
            }
            cell.render_onto(out);
        }
        out.push(']');
    }
    out.push(']');
}

/// Encode a [`Solve`] as the `solve` op's `result` object — the **tree
/// oracle** for [`render_solve`], kept for tests and decoding symmetry.
#[must_use]
pub fn solve_to_wire<T: WireScalar>(solve: &Solve<T>) -> Json {
    Json::obj()
        .with("alpha", solve.level.alpha().to_wire())
        .with("loss", solve.loss.to_wire())
        .with("mechanism", matrix_to_wire(solve.mechanism.matrix()))
        .with("stats", stats_to_wire(&solve.stats))
}

/// Encode an [`Interaction`] as the `interact` op's `result` object — the
/// **tree oracle** for [`render_interaction`].
#[must_use]
pub fn interaction_to_wire<T: WireScalar>(interaction: &Interaction<T>) -> Json {
    Json::obj()
        .with("loss", interaction.loss.to_wire())
        .with(
            "post_processing",
            matrix_to_wire(&interaction.post_processing),
        )
        .with("induced", matrix_to_wire(interaction.induced.matrix()))
        .with("stats", stats_to_wire(&interaction.lp_stats))
}

/// Render a solve result **once**, straight into a `String` — byte-identical
/// to `json::to_string(&solve_to_wire(solve))` (asserted in tests) but
/// without materializing the `(n+1)²`-node mechanism tree. This is the
/// server's miss path: the returned string becomes the cache entry *and* the
/// bytes spliced into the wire envelope, so large mechanisms are rendered
/// exactly one time.
#[must_use]
pub fn render_solve<T: WireScalar>(solve: &Solve<T>) -> String {
    let mut out = String::from("{\"alpha\":");
    solve.level.alpha().render_onto(&mut out);
    out.push_str(",\"loss\":");
    solve.loss.render_onto(&mut out);
    out.push_str(",\"mechanism\":");
    render_matrix_onto(&mut out, solve.mechanism.matrix());
    out.push_str(",\"stats\":");
    out.push_str(&crate::json::to_string(&stats_to_wire(&solve.stats)));
    out.push('}');
    out
}

/// Render an interact result once, straight into a `String` — byte-identical
/// to `json::to_string(&interaction_to_wire(interaction))`; see
/// [`render_solve`].
#[must_use]
pub fn render_interaction<T: WireScalar>(interaction: &Interaction<T>) -> String {
    let mut out = String::from("{\"loss\":");
    interaction.loss.render_onto(&mut out);
    out.push_str(",\"post_processing\":");
    render_matrix_onto(&mut out, &interaction.post_processing);
    out.push_str(",\"induced\":");
    render_matrix_onto(&mut out, interaction.induced.matrix());
    out.push_str(",\"stats\":");
    out.push_str(&crate::json::to_string(&stats_to_wire(
        &interaction.lp_stats,
    )));
    out.push('}');
    out
}

/// Decode nested arrays into rows of scalars.
pub fn rows_from_wire<T: WireScalar>(value: &Json) -> Result<Vec<Vec<T>>, WireError> {
    let rows = value
        .as_arr()
        .ok_or_else(|| WireError::bad_request("matrix must be an array of arrays"))?;
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        let cells = row
            .as_arr()
            .ok_or_else(|| WireError::bad_request("matrix rows must be arrays"))?;
        let mut r = Vec::with_capacity(cells.len());
        for cell in cells {
            r.push(
                T::from_wire(cell)
                    .ok_or_else(|| WireError::bad_request("unparsable scalar in matrix"))?,
            );
        }
        out.push(r);
    }
    Ok(out)
}

/// Decode a wire matrix into a validated [`Mechanism`].
pub fn mechanism_from_wire<T: WireScalar>(value: &Json) -> Result<Mechanism<T>, WireError> {
    Mechanism::from_rows(rows_from_wire(value)?).map_err(WireError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use privmech_numerics::rat;

    #[test]
    fn split_solves_inverts_assemble_solves() {
        // Items with nested arrays/objects, commas inside strings, and
        // escaped quotes — everything the depth/string tracker must survive.
        let items = [
            r#"{"alpha":{"num":1,"den":3},"mechanism":[[1,0],[0,1]],"stats":{"pivots":2}}"#,
            r#"{"note":"a,b],} \" tricky","stats":{"pivots":0}}"#,
            r#"{"loss":"absolute","stats":{"pivots":7}}"#,
        ];
        let monolithic = assemble_solves(items.iter().copied());
        let split = split_solves(&monolithic).expect("assembled shape");
        assert_eq!(split, items);

        assert_eq!(
            split_solves("{\"solves\":[]}").expect("empty sweep"),
            Vec::<&str>::new()
        );
        let single = assemble_solves(std::iter::once(items[0]));
        assert_eq!(split_solves(&single).expect("single"), vec![items[0]]);

        // Non-assembled shapes are rejected, not mis-split.
        assert!(split_solves("{\"other\":[]}").is_none());
        assert!(split_solves("{\"solves\":[{]}").is_none());
        assert!(split_solves("{\"solves\":[\"unterminated]}").is_none());
    }

    #[test]
    fn rational_wire_round_trip() {
        for r in [rat(5, 3), rat(-7, 2), rat(0, 1), rat(4, 1)] {
            assert_eq!(Rational::from_wire(&r.to_wire()), Some(r));
        }
        // Decimal and integer literals are accepted on input.
        assert_eq!(
            Rational::from_wire(&Json::Num("0.25".into())),
            Some(rat(1, 4))
        );
        assert_eq!(Rational::from_wire(&Json::Num("3".into())), Some(rat(3, 1)));
        assert_eq!(Rational::from_wire(&Json::Str("1/0".into())), None);
        assert_eq!(Rational::from_wire(&Json::Bool(true)), None);
    }

    #[test]
    fn f64_wire_round_trip_is_bit_exact() {
        for x in [0.25f64, 1.0 / 3.0, -1.5e-8, 1e300] {
            let decoded = f64::from_wire(&x.to_wire()).unwrap();
            assert_eq!(decoded.to_bits(), x.to_bits());
        }
        assert_eq!(f64::from_wire(&Json::Str("nope".into())), None);
    }

    #[test]
    fn loss_spec_round_trips() {
        let specs: Vec<LossSpec<Rational>> = vec![
            LossSpec::Absolute,
            LossSpec::Squared,
            LossSpec::ZeroOne,
            LossSpec::Tolerance(2),
            LossSpec::Table(vec![vec![rat(0, 1), rat(1, 2)], vec![rat(1, 1), rat(0, 1)]]),
        ];
        for spec in specs {
            let decoded = LossSpec::<Rational>::from_wire(&spec.to_wire()).unwrap();
            assert_eq!(decoded, spec);
        }
        assert!(LossSpec::<Rational>::from_wire(&Json::str("nope")).is_err());
    }

    #[test]
    fn consumer_spec_round_trips_and_validates() {
        let spec = ConsumerSpec::<Rational>::minimax(3, LossSpec::Absolute)
            .with_support(vec![1, 2, 3])
            .with_strategy(SolveStrategy::DirectLp);
        let encoded = spec.encode_onto(Json::obj());
        let decoded = ConsumerSpec::<Rational>::from_wire(&encoded).unwrap();
        assert_eq!(decoded.n, 3);
        assert_eq!(decoded.support.as_deref(), Some(&[1usize, 2, 3][..]));
        assert_eq!(decoded.strategy, SolveStrategy::DirectLp);
        let request = decoded.to_request(rat(1, 4)).unwrap();
        assert_eq!(request.n(), 3);

        // Core validation failures surface with their field-level codes.
        let bad = ConsumerSpec::<Rational>::minimax(3, LossSpec::Absolute).with_support(vec![9]);
        let err = bad.to_request(rat(1, 4)).unwrap_err();
        assert_eq!(err.code, "invalid_side_information");
        let err = ConsumerSpec::<Rational>::minimax(3, LossSpec::Absolute)
            .to_request(rat(3, 2))
            .unwrap_err();
        assert_eq!(err.code, "invalid_alpha");
    }

    #[test]
    fn oversized_n_is_rejected_before_allocation() {
        let request = Json::obj()
            .with("n", Json::Num("4000000000".into()))
            .with("loss", Json::str("absolute"));
        let err = ConsumerSpec::<Rational>::from_wire(&request).unwrap_err();
        assert_eq!(err.code, "bad_request");
        assert!(err.message.contains("serving limit"));
        // The boundary itself is accepted at decode time.
        let request = Json::obj()
            .with("n", Json::num_u64(MAX_WIRE_N as u64))
            .with("loss", Json::str("absolute"));
        assert!(ConsumerSpec::<Rational>::from_wire(&request).is_ok());
    }

    #[test]
    fn mechanism_wire_round_trip() {
        let m = Mechanism::<Rational>::uniform(2);
        let decoded = mechanism_from_wire::<Rational>(&matrix_to_wire(m.matrix())).unwrap();
        assert_eq!(decoded, m);
        // Non-stochastic matrices are rejected with the core's code.
        let bad = Json::Arr(vec![Json::Arr(vec![
            Json::Num("1".into()),
            Json::Num("1".into()),
        ])]);
        assert!(mechanism_from_wire::<Rational>(&bad).is_err());
    }

    #[test]
    fn scalar_render_onto_matches_tree_rendering() {
        for r in [rat(5, 3), rat(-7, 2), rat(0, 1), rat(168, 415)] {
            let mut direct = String::new();
            r.render_onto(&mut direct);
            assert_eq!(direct, crate::json::to_string(&r.to_wire()));
        }
        for x in [0.25f64, 1.0 / 3.0, -1.5e-8, 1e300, f64::NAN, f64::INFINITY] {
            let mut direct = String::new();
            x.render_onto(&mut direct);
            assert_eq!(direct, crate::json::to_string(&x.to_wire()));
        }
    }

    #[test]
    fn direct_renderers_match_the_tree_oracles() {
        // The render-once miss path must be invisible on the wire: the
        // direct string renderers and the tree oracles agree byte for byte,
        // for both scalar backends.
        let engine = privmech_core::PrivacyEngine::with_threads(1);

        let spec = ConsumerSpec::<Rational>::minimax(3, LossSpec::Absolute);
        let validated = spec.to_request(rat(1, 4)).unwrap();
        let solve = engine.solve(&validated).unwrap();
        assert_eq!(
            render_solve(&solve),
            crate::json::to_string(&solve_to_wire(&solve))
        );
        let interaction = engine.interact(&solve.mechanism, &validated).unwrap();
        assert_eq!(
            render_interaction(&interaction),
            crate::json::to_string(&interaction_to_wire(&interaction))
        );

        let spec = ConsumerSpec::<f64>::minimax(4, LossSpec::Squared);
        let validated = spec.to_request(1.0 / 3.0).unwrap();
        let solve = engine.solve(&validated).unwrap();
        assert_eq!(
            render_solve(&solve),
            crate::json::to_string(&solve_to_wire(&solve))
        );
        let interaction = engine.interact(&solve.mechanism, &validated).unwrap();
        assert_eq!(
            render_interaction(&interaction),
            crate::json::to_string(&interaction_to_wire(&interaction))
        );
    }

    #[test]
    fn stats_wire_round_trip() {
        let stats = PivotStats {
            phase1_pivots: 3,
            phase2_pivots: 5,
            degenerate_pivots: 1,
            dantzig_pivots: 7,
            bland_pivots: 1,
            fallback_activations: 1,
        };
        assert_eq!(stats_from_wire(&stats_to_wire(&stats)), Some(stats));
    }
}
