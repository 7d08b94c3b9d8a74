//! Hand-rolled per-operation latency histograms for the `metrics` op.
//!
//! Buckets are **fixed, log-spaced and disjoint**: bucket `k` counts only
//! the requests whose handling latency fell in `(1 µs · 2^(k-1), 1 µs · 2^k]`
//! (the last bucket is unbounded), so the full range from a cache hit (~µs)
//! to a multi-minute exact LP solve fits in [`BUCKET_COUNT`] counters with
//! constant-time recording and no allocation on the hot path. Everything is relaxed atomics — the snapshot
//! is a racing read, which is the right trade for observability counters.
//!
//! The wire rendering (see `PROTOCOL.md`, op `metrics`) reports, per
//! operation, the total count, the summed latency, and the non-empty buckets
//! as `{le_ns, count}` pairs (cumulative-free, i.e. plain per-bucket counts).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::json::Json;

/// Number of latency buckets: 30 bounded buckets with upper bounds
/// `1 µs · 2^k` for `k` in `0..=29`, plus one unbounded overflow bucket.
/// The largest bounded bucket ends at 2^29 µs ≈ 9 minutes, comfortably past
/// the slowest exact solve worth serving.
pub const BUCKET_COUNT: usize = 31;

/// The operations the server tracks, in wire-name form. Recording an op
/// outside this list is a no-op (there is nothing useful to aggregate for
/// unparsable frames).
pub const TRACKED_OPS: &[&str] = &[
    "ping",
    "stats",
    "metrics",
    "solve",
    "sweep",
    "interact",
    "zoo_eval",
    "zoo_table",
    "shutdown",
];

/// One operation's latency histogram.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKET_COUNT],
    count: AtomicU64,
    total_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
        }
    }
}

/// Bucket `k` holds latencies in `(upper(k-1), upper(k)]` nanoseconds.
fn bucket_upper_ns(k: usize) -> u64 {
    1_000u64 << k
}

fn bucket_index(ns: u64) -> usize {
    // Smallest k with ns <= 1000 * 2^k; saturates into the overflow bucket.
    (0..BUCKET_COUNT - 1)
        .find(|&k| ns <= bucket_upper_ns(k))
        .unwrap_or(BUCKET_COUNT - 1)
}

impl LatencyHistogram {
    /// Record one observation.
    pub fn record(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Render as a wire object: `{count, total_ns, buckets: [{le_ns, count}]}`
    /// with empty buckets omitted; the overflow bucket reports `le_ns: 0`
    /// (meaning "unbounded"). Every counter is read through `read`: a plain
    /// [`load`] for a snapshot, or [`take`] to zero it in the same step.
    fn render(&self, read: fn(&AtomicU64) -> u64) -> Json {
        let mut buckets = Vec::new();
        for (k, bucket) in self.buckets.iter().enumerate() {
            let count = read(bucket);
            if count == 0 {
                continue;
            }
            let le_ns = if k == BUCKET_COUNT - 1 {
                0
            } else {
                bucket_upper_ns(k)
            };
            buckets.push(
                Json::obj()
                    .with("le_ns", Json::num_u64(le_ns))
                    .with("count", Json::num_u64(count)),
            );
        }
        Json::obj()
            .with("count", Json::num_u64(read(&self.count)))
            .with("total_ns", Json::num_u64(read(&self.total_ns)))
            .with("buckets", Json::Arr(buckets))
    }
}

/// Snapshot read of one counter. The snapshot is a racing read, the right
/// trade for observability counters.
fn load(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

/// Read one counter and zero it (`swap(0)`). Each counter is taken
/// atomically on its own, so concurrent recordings may straddle the reset,
/// landing partly in each window.
fn take(counter: &AtomicU64) -> u64 {
    counter.swap(0, Ordering::Relaxed)
}

/// Per-operation latency histograms, indexed by [`TRACKED_OPS`].
#[derive(Debug)]
pub struct Metrics {
    histograms: Vec<LatencyHistogram>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

impl Metrics {
    /// Fresh, all-zero metrics.
    #[must_use]
    pub fn new() -> Self {
        Metrics {
            histograms: TRACKED_OPS
                .iter()
                .map(|_| LatencyHistogram::default())
                .collect(),
        }
    }

    /// Record one handled request. Unknown ops are ignored.
    pub fn record(&self, op: &str, ns: u64) {
        if let Some(idx) = TRACKED_OPS.iter().position(|&o| o == op) {
            self.histograms[idx].record(ns);
        }
    }

    /// The histogram of one tracked op (`None` for unknown names).
    #[must_use]
    pub fn histogram(&self, op: &str) -> Option<&LatencyHistogram> {
        TRACKED_OPS
            .iter()
            .position(|&o| o == op)
            .map(|idx| &self.histograms[idx])
    }

    /// Render the `metrics` op result: `{ops: {<op>: <histogram>, ...}}`,
    /// with never-recorded ops omitted.
    #[must_use]
    pub fn to_wire(&self) -> Json {
        self.render(load)
    }

    /// Render the `metrics` op result exactly as [`Metrics::to_wire`] would,
    /// while zeroing every histogram — the `metrics` op's `reset: true` form.
    /// Recordings racing the reset may straddle the window boundary; callers
    /// wanting exact windows should quiesce traffic around the reset.
    #[must_use]
    pub fn snapshot_and_reset(&self) -> Json {
        self.render(take)
    }

    fn render(&self, read: fn(&AtomicU64) -> u64) -> Json {
        let mut ops = Json::obj();
        for (op, histogram) in TRACKED_OPS.iter().zip(&self.histograms) {
            if histogram.count() == 0 {
                continue;
            }
            ops = ops.with(op, histogram.render(read));
        }
        Json::obj().with("ops", ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn bucket_index_is_log_spaced_with_saturating_overflow() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1_000), 0);
        assert_eq!(bucket_index(1_001), 1);
        assert_eq!(bucket_index(2_000), 1);
        assert_eq!(bucket_index(1_000_000), 10); // 1 ms
        assert_eq!(bucket_index(u64::MAX), BUCKET_COUNT - 1);
    }

    #[test]
    fn records_aggregate_counts_and_totals() {
        let metrics = Metrics::new();
        metrics.record("solve", 1_500); // bucket 1
        metrics.record("solve", 1_500);
        metrics.record("solve", 3_000_000); // bucket 12
        metrics.record("nonsense", 1); // ignored
        let hist = metrics.histogram("solve").unwrap();
        assert_eq!(hist.count(), 3);

        let wire = metrics.to_wire();
        let solve = wire.get("ops").and_then(|o| o.get("solve")).unwrap();
        assert_eq!(solve.get("count").and_then(Json::as_u64), Some(3));
        assert_eq!(
            solve.get("total_ns").and_then(Json::as_u64),
            Some(1_500 + 1_500 + 3_000_000)
        );
        let buckets = solve.get("buckets").and_then(Json::as_arr).unwrap();
        assert_eq!(buckets.len(), 2, "two non-empty buckets");
        assert_eq!(buckets[0].get("le_ns").and_then(Json::as_u64), Some(2_000));
        assert_eq!(buckets[0].get("count").and_then(Json::as_u64), Some(2));
        // Never-recorded ops are omitted entirely.
        assert!(wire.get("ops").unwrap().get("ping").is_none());
        // The rendering is valid, deterministic JSON.
        let text = json::to_string(&wire);
        assert_eq!(json::to_string(&json::parse(&text).unwrap()), text);
    }

    #[test]
    fn snapshot_and_reset_returns_window_then_zeroes() {
        let metrics = Metrics::new();
        metrics.record("solve", 1_500);
        metrics.record("sweep", 900);
        // The reset snapshot is byte-identical to a plain snapshot of the
        // same window...
        let plain = json::to_string(&metrics.to_wire());
        let taken = metrics.snapshot_and_reset();
        assert_eq!(json::to_string(&taken), plain);
        // ...and afterwards the window is empty (all ops omitted).
        assert_eq!(json::to_string(&metrics.to_wire()), "{\"ops\":{}}");
        assert_eq!(metrics.histogram("solve").unwrap().count(), 0);
        // New recordings land in the fresh window.
        metrics.record("solve", 2_500);
        assert_eq!(metrics.histogram("solve").unwrap().count(), 1);
    }
}
