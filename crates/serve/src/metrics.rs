//! Hand-rolled per-operation latency histograms for the `metrics` op, and
//! the one definition of their wire format.
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
//! `Histogram` and [`MetricsReply`] are that format as plain values: the
//! server snapshots its atomics into them, the fleet router parses shard
//! replies into them and sums them, and both render through them, as do the
//! `{count, total_ns, mean_ns, p99_le_ns}` summaries (`Histogram::summary`)
//! of the fleet reply's per-shard section and `privmech-load`'s `server_ops`.

use std::ops::AddAssign;
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
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKET_COUNT],
    count: AtomicU64,
    total_ns: AtomicU64,
}

/// Bucket `k` holds latencies in `(upper(k-1), upper(k)]` nanoseconds.
fn bucket_upper_ns(k: usize) -> u64 {
    1_000u64 << k
}

/// Bucket `k`'s wire label `le_ns`: its upper bound, or 0 for the unbounded
/// overflow bucket.
fn bucket_le_ns(k: usize) -> u64 {
    if k == BUCKET_COUNT - 1 {
        0
    } else {
        bucket_upper_ns(k)
    }
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

    /// Every counter read through `read`: a plain [`load`] for a snapshot,
    /// or [`take`] to zero it in the same step.
    fn read(&self, read: fn(&AtomicU64) -> u64) -> Histogram {
        Histogram {
            buckets: self.buckets.each_ref().map(read),
            count: read(&self.count),
            total_ns: read(&self.total_ns),
        }
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

/// One operation's latency histogram as plain values — the unit of the wire
/// format. `count` is read apart from the buckets, so a snapshot racing
/// recordings may briefly disagree with their sum.
#[derive(Debug, Default, PartialEq, Eq)]
struct Histogram {
    /// Per-bucket counts, bucket `k` as described in the module docs.
    buckets: [u64; BUCKET_COUNT],
    /// Number of observations.
    count: u64,
    /// Summed latency in nanoseconds.
    total_ns: u64,
}

impl Histogram {
    /// Read one per-op wire object `{count, total_ns, buckets}`. Absent
    /// fields read as 0; a bucket whose `le_ns` is no bucket's label is
    /// skipped.
    fn from_wire(wire: &Json) -> Self {
        let field = |obj: &Json, name| obj.get(name).and_then(Json::as_u64).unwrap_or(0);
        let mut histogram = Histogram {
            count: field(wire, "count"),
            total_ns: field(wire, "total_ns"),
            ..Histogram::default()
        };
        for bucket in wire.get("buckets").and_then(Json::as_arr).unwrap_or(&[]) {
            let le_ns = field(bucket, "le_ns");
            if let Some(k) = (0..BUCKET_COUNT).find(|&k| bucket_le_ns(k) == le_ns) {
                histogram.buckets[k] += field(bucket, "count");
            }
        }
        histogram
    }

    /// Render as `{count, total_ns, buckets: [{le_ns, count}]}`: empty
    /// buckets omitted, the overflow bucket (`le_ns: 0`) last.
    fn to_wire(&self) -> Json {
        let buckets = (0..BUCKET_COUNT)
            .filter(|&k| self.buckets[k] > 0)
            .map(|k| {
                Json::obj()
                    .with("le_ns", Json::num_u64(bucket_le_ns(k)))
                    .with("count", Json::num_u64(self.buckets[k]))
            })
            .collect();
        Json::obj()
            .with("count", Json::num_u64(self.count))
            .with("total_ns", Json::num_u64(self.total_ns))
            .with("buckets", Json::Arr(buckets))
    }

    /// Compress to `{count, total_ns, mean_ns, p99_le_ns}`: `mean_ns` is the
    /// integer mean (0 when empty); `p99_le_ns` is the `le_ns` label of the
    /// bucket holding the ⌈0.99·count⌉-th smallest observation, and also 0
    /// when the buckets sum to less than that rank or the histogram is empty.
    fn summary(&self) -> Json {
        // ⌈0.99·count⌉ in integers, at least 1: no bucket holds a 0th one.
        let rank = (self.count - self.count / 100).max(1);
        let mut seen = 0;
        let p99 = self.buckets.iter().position(|&n| {
            seen += n;
            seen >= rank
        });
        Json::obj()
            .with("count", Json::num_u64(self.count))
            .with("total_ns", Json::num_u64(self.total_ns))
            .with(
                "mean_ns",
                Json::num_u64(self.total_ns.checked_div(self.count).unwrap_or(0)),
            )
            .with("p99_le_ns", Json::num_u64(p99.map_or(0, bucket_le_ns)))
    }
}

impl AddAssign<&Histogram> for Histogram {
    fn add_assign(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.total_ns += other.total_ns;
    }
}

/// The `metrics` op's result as plain values: one latency histogram per
/// [`TRACKED_OPS`] entry, in that order. Replies merge op by op (`+=`).
#[derive(Debug, Default, PartialEq, Eq)]
pub struct MetricsReply([Histogram; TRACKED_OPS.len()]);

impl MetricsReply {
    /// Read a `metrics` result `{ops: {<op>: <histogram>, ...}}`; `None`
    /// when it has no `ops` object. Untracked op names are ignored.
    #[must_use]
    pub fn from_wire(result: &Json) -> Option<Self> {
        let Some(Json::Obj(ops)) = result.get("ops") else {
            return None;
        };
        let mut reply = MetricsReply::default();
        for (op, wire) in ops {
            if let Some(idx) = TRACKED_OPS.iter().position(|o| o == op) {
                reply.0[idx] += &Histogram::from_wire(wire);
            }
        }
        Some(reply)
    }

    /// Render as the `metrics` result `{ops: {<op>: <histogram>, ...}}`.
    #[must_use]
    pub(crate) fn to_wire(&self) -> Json {
        Json::obj().with("ops", self.render(Histogram::to_wire))
    }

    /// Render each op's summary `{count, total_ns, mean_ns, p99_le_ns}` (see
    /// `PROTOCOL.md` § Fan-out ops): `{<op>: <summary>, ...}`.
    #[must_use]
    pub fn summaries(&self) -> Json {
        self.render(Histogram::summary)
    }

    /// `{<op>: render(histogram), ...}` over the ops with at least one
    /// observation, in tracked-op order; the wire omits the rest.
    fn render(&self, render: fn(&Histogram) -> Json) -> Json {
        let recorded = TRACKED_OPS.iter().zip(&self.0).filter(|(_, h)| h.count > 0);
        recorded.fold(Json::obj(), |ops, (op, h)| ops.with(op, render(h)))
    }
}

impl AddAssign<&MetricsReply> for MetricsReply {
    fn add_assign(&mut self, other: &MetricsReply) {
        for (mine, theirs) in self.0.iter_mut().zip(&other.0) {
            *mine += theirs;
        }
    }
}

/// Per-operation latency histograms, indexed by [`TRACKED_OPS`].
#[derive(Debug, Default)]
pub struct Metrics {
    histograms: [LatencyHistogram; TRACKED_OPS.len()],
}

impl Metrics {
    /// Record one handled request. Unknown ops are ignored.
    pub fn record(&self, op: &str, ns: u64) {
        if let Some(idx) = TRACKED_OPS.iter().position(|&o| o == op) {
            self.histograms[idx].record(ns);
        }
    }

    /// Render the `metrics` op result: `{ops: {<op>: <histogram>, ...}}`,
    /// with never-recorded ops omitted.
    #[must_use]
    pub fn to_wire(&self) -> Json {
        self.read(load).to_wire()
    }

    /// Render the `metrics` op result exactly as [`Metrics::to_wire`] would,
    /// while zeroing every histogram — the `metrics` op's `reset: true` form.
    /// Recordings racing the reset may straddle the window boundary; callers
    /// wanting exact windows should quiesce traffic around the reset.
    #[must_use]
    pub fn snapshot_and_reset(&self) -> Json {
        self.read(take).to_wire()
    }

    fn read(&self, read: fn(&AtomicU64) -> u64) -> MetricsReply {
        MetricsReply(self.histograms.each_ref().map(|h| h.read(read)))
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

    fn count(metrics: &Metrics, op: &str) -> u64 {
        let idx = TRACKED_OPS.iter().position(|&o| o == op).unwrap();
        metrics.read(load).0[idx].count
    }

    #[test]
    fn records_aggregate_counts_and_totals() {
        let metrics = Metrics::default();
        metrics.record("solve", 1_500); // bucket 1
        metrics.record("solve", 1_500);
        metrics.record("solve", 3_000_000); // bucket 12
        metrics.record("nonsense", 1); // ignored
        assert_eq!(count(&metrics, "solve"), 3);

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
        let metrics = Metrics::default();
        metrics.record("solve", 1_500);
        metrics.record("sweep", 900);
        // The reset snapshot is byte-identical to a plain snapshot of the
        // same window...
        let plain = json::to_string(&metrics.to_wire());
        let taken = metrics.snapshot_and_reset();
        assert_eq!(json::to_string(&taken), plain);
        // ...and afterwards the window is empty (all ops omitted).
        assert_eq!(json::to_string(&metrics.to_wire()), "{\"ops\":{}}");
        assert_eq!(count(&metrics, "solve"), 0);
        // New recordings land in the fresh window.
        metrics.record("solve", 2_500);
        assert_eq!(count(&metrics, "solve"), 1);
    }

    /// Samples spread over many buckets, the overflow bucket included.
    fn spread(n: u64, salt: u64) -> Vec<u64> {
        (0..n)
            .map(|i| (i * 7919 + salt) % 1_000_003 * (1 << (i % 23)))
            .chain([1 << 40])
            .collect()
    }

    fn recorded(samples: &[u64]) -> LatencyHistogram {
        let histogram = LatencyHistogram::default();
        for &ns in samples {
            histogram.record(ns);
        }
        histogram
    }

    #[test]
    fn wire_round_trip_is_identity() {
        let histogram = recorded(&spread(500, 3)).read(load);
        assert!(
            histogram.buckets[BUCKET_COUNT - 1] > 0,
            "overflow bucket used"
        );
        assert_eq!(Histogram::from_wire(&histogram.to_wire()), histogram);

        let metrics = Metrics::default();
        for (i, ns) in spread(60, 5).into_iter().enumerate() {
            metrics.record(TRACKED_OPS[i % 4 * 2], ns);
        }
        let reply = metrics.read(load);
        assert_eq!(MetricsReply::from_wire(&reply.to_wire()), Some(reply));
    }

    #[test]
    fn merged_snapshots_equal_one_histogram_of_both_sample_sets() {
        let (a, b) = (spread(300, 1), spread(77, 2));
        let both: Vec<u64> = a.iter().chain(&b).copied().collect();
        let mut merged = Histogram::from_wire(&recorded(&a).read(load).to_wire());
        merged += &Histogram::from_wire(&recorded(&b).read(load).to_wire());
        assert_eq!(merged, recorded(&both).read(load));
        assert_eq!(merged.count, merged.buckets.iter().sum::<u64>());

        // Op-wise: an op only one side recorded passes through unchanged.
        let (left, right, union) = (Metrics::default(), Metrics::default(), Metrics::default());
        for (side, op, samples) in [
            (&left, "solve", &a),
            (&right, "solve", &b),
            (&right, "ping", &a),
        ] {
            for &ns in samples {
                side.record(op, ns);
                union.record(op, ns);
            }
        }
        let mut fleet = MetricsReply::from_wire(&left.to_wire()).unwrap();
        fleet += &MetricsReply::from_wire(&right.to_wire()).unwrap();
        assert_eq!(fleet, union.read(load));
        for histogram in &fleet.0 {
            assert_eq!(histogram.count, histogram.buckets.iter().sum::<u64>());
        }
    }

    #[test]
    fn p99_matches_a_brute_force_rank() {
        // The 20 largest samples sit in distinct buckets (the largest in
        // the overflow bucket) and the rest in bucket 0, so a rank off by
        // one reports a different bucket.
        for n in [1u64, 99, 100, 101, 199, 1000] {
            let samples: Vec<u64> = (0..n)
                .rev()
                .map(|i| match (i + 21).saturating_sub(n) {
                    0 => 500,
                    20 => 1 << 40,
                    k => (1_000 << k) - 1,
                })
                .collect();
            let summary = recorded(&samples).read(load).summary();
            let field = |name| summary.get(name).and_then(Json::as_u64).unwrap();

            let mut sorted = samples.clone();
            sorted.sort_unstable();
            let rank = (1..=n).find(|&r| 100 * r >= 99 * n).unwrap();
            let p99 = sorted[rank as usize - 1];
            let le_ns = (0..30).map(|k| 1_000u64 << k).find(|&b| p99 <= b);
            assert_eq!(field("p99_le_ns"), le_ns.unwrap_or(0), "n = {n}");
            assert_eq!(field("count"), n);
            assert_eq!(field("mean_ns"), samples.iter().sum::<u64>() / n);
        }
        assert_eq!(
            json::to_string(&Histogram::default().summary()),
            r#"{"count":0,"total_ns":0,"mean_ns":0,"p99_le_ns":0}"#
        );
    }
}
