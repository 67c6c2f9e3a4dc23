//! A process-wide registry of named counters, timers, and log-scale
//! histograms — the quantitative half of the observability layer (the
//! qualitative half, spans, lives in [`crate::trace`]).
//!
//! Three metric kinds with different determinism contracts:
//!
//! * **Counters** count *events* (solver queries, explored paths, emitted
//!   programs). They are pure functions of the work performed, so their
//!   values must be byte-identical across thread counts and runs — the
//!   deterministic-replay test asserts exactly that on a snapshot diff.
//! * **Timers** accumulate *nanoseconds* (per-origin solver time). They are
//!   inherently nondeterministic and are therefore kept in a separate
//!   namespace that golden comparisons exclude.
//! * **Histograms** record value *distributions* (paths per instruction,
//!   solver-query latency) in power-of-two buckets.
//!
//! Recording is always on: one relaxed atomic add per event, the same order
//! of cost as the enabled-check the span layer does, so there is no separate
//! off switch to keep consistent. Handles ([`Counter`], [`Timer`],
//! [`Histogram`]) are `Copy` pointers into leaked registry slots; hot code
//! looks them up once and stores them. [`snapshot`] + [`MetricsSnapshot::since`]
//! give benches and tests delta assertions without a global reset.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{OnceLock, RwLock};
use std::time::Duration;

/// Number of histogram buckets: bucket 0 holds zeros, bucket `i` (1..=64)
/// holds values with `floor(log2(v)) == i - 1`, i.e. `2^(i-1) ..= 2^i - 1`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// The bucket index a value lands in.
pub fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// The smallest value that lands in bucket `i`.
pub fn bucket_lo(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// The largest value that lands in bucket `i`.
pub fn bucket_hi(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

#[derive(Debug)]
struct HistogramInner {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl HistogramInner {
    fn new() -> Self {
        HistogramInner {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Handle to a named monotonic event counter.
#[derive(Debug, Clone, Copy)]
pub struct Counter(&'static AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Handle to a named nanosecond accumulator (kept apart from counters so
/// golden comparisons can exclude wall-clock noise).
#[derive(Debug, Clone, Copy)]
pub struct Timer(&'static AtomicU64);

impl Timer {
    /// Accumulates a duration.
    pub fn add(&self, d: Duration) {
        self.0.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Accumulates raw nanoseconds.
    pub fn add_ns(&self, ns: u64) {
        self.0.fetch_add(ns, Ordering::Relaxed);
    }

    /// Current value in nanoseconds.
    pub fn get_ns(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Handle to a named log-scale histogram.
#[derive(Debug, Clone, Copy)]
pub struct Histogram(&'static HistogramInner);

impl Histogram {
    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
        self.0.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos() as u64);
    }
}

#[derive(Debug, Default)]
struct Registry {
    counters: RwLock<BTreeMap<&'static str, &'static AtomicU64>>,
    timers: RwLock<BTreeMap<&'static str, &'static AtomicU64>>,
    histograms: RwLock<BTreeMap<&'static str, &'static HistogramInner>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

fn lookup<T: 'static + Sync>(
    map: &RwLock<BTreeMap<&'static str, &'static T>>,
    name: &'static str,
    make: impl FnOnce() -> T,
) -> &'static T {
    if let Some(&v) = map.read().expect("metrics registry poisoned").get(name) {
        return v;
    }
    let mut w = map.write().expect("metrics registry poisoned");
    // One leaked allocation per distinct metric name for the process
    // lifetime; names are compile-time constants, so this is bounded.
    w.entry(name).or_insert_with(|| Box::leak(Box::new(make())))
}

/// The counter named `name`, created on first use.
pub fn counter(name: &'static str) -> Counter {
    Counter(lookup(&registry().counters, name, || AtomicU64::new(0)))
}

/// The timer named `name`, created on first use.
pub fn timer(name: &'static str) -> Timer {
    Timer(lookup(&registry().timers, name, || AtomicU64::new(0)))
}

/// The histogram named `name`, created on first use.
pub fn histogram(name: &'static str) -> Histogram {
    Histogram(lookup(&registry().histograms, name, HistogramInner::new))
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Per-bucket observation counts (see [`bucket_of`]).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile (`q` in 0..=1): the lower bound of the bucket
    /// containing the q-th observation. Exact to within one power of two.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen > rank {
                return bucket_lo(i);
            }
        }
        bucket_lo(self.buckets.len().saturating_sub(1))
    }

    /// Median ([`quantile`](Self::quantile) at 0.50). Like all histogram
    /// quantiles this is the **lower bound of the power-of-two bucket**
    /// containing the ranked observation — exact at bucket boundaries
    /// (values 0 and 1 have dedicated buckets), otherwise a lower bound
    /// within a factor of two of the true order statistic.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile, bucket lower bound (see [`p50`](Self::p50)).
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// Subtracts an earlier snapshot bucket-wise.
    pub fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let buckets = (0..self.buckets.len().max(earlier.buckets.len()))
            .map(|i| {
                let now = self.buckets.get(i).copied().unwrap_or(0);
                let was = earlier.buckets.get(i).copied().unwrap_or(0);
                now.saturating_sub(was)
            })
            .collect();
        HistogramSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            buckets,
        }
    }
}

/// Point-in-time copy of the whole registry.
///
/// Metric values are cumulative for the process; use [`MetricsSnapshot::since`]
/// to scope them to a region of interest (snapshot before, snapshot after,
/// diff). `counters` is the only map with a cross-run determinism guarantee.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Deterministic event counts.
    pub counters: BTreeMap<String, u64>,
    /// Nanosecond accumulators (nondeterministic; excluded from golden
    /// comparisons).
    pub timers: BTreeMap<String, u64>,
    /// Value distributions.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Difference versus an earlier snapshot (missing earlier entries count
    /// as zero; metrics are monotonic so saturation never triggers in
    /// correct use).
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let sub_map = |now: &BTreeMap<String, u64>, was: &BTreeMap<String, u64>| {
            now.iter()
                .map(|(k, &v)| {
                    (
                        k.clone(),
                        v.saturating_sub(was.get(k).copied().unwrap_or(0)),
                    )
                })
                .collect()
        };
        MetricsSnapshot {
            counters: sub_map(&self.counters, &earlier.counters),
            timers: sub_map(&self.timers, &earlier.timers),
            histograms: self
                .histograms
                .iter()
                .map(|(k, v)| {
                    let was = earlier.histograms.get(k).cloned().unwrap_or_default();
                    (k.clone(), v.since(&was))
                })
                .collect(),
        }
    }

    /// Counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Timer value in nanoseconds by name (0 when absent).
    pub fn timer_ns(&self, name: &str) -> u64 {
        self.timers.get(name).copied().unwrap_or(0)
    }

    /// Renders the snapshot as JSON lines, one metric per line — the format
    /// of the `<run>.metrics.jsonl` dump consumed by `pokemu-report`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!(
                "{{\"kind\":\"counter\",\"name\":\"{name}\",\"value\":{v}}}\n"
            ));
        }
        for (name, v) in &self.timers {
            out.push_str(&format!(
                "{{\"kind\":\"timer\",\"name\":\"{name}\",\"ns\":{v}}}\n"
            ));
        }
        for (name, h) in &self.histograms {
            let buckets: Vec<String> = h
                .buckets
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(i, &c)| format!("[{},{c}]", bucket_lo(i)))
                .collect();
            out.push_str(&format!(
                "{{\"kind\":\"histogram\",\"name\":\"{name}\",\"count\":{},\"sum\":{},\
                 \"buckets\":[{}]}}\n",
                h.count,
                h.sum,
                buckets.join(",")
            ));
        }
        out
    }

    /// Parses a [`MetricsSnapshot::to_jsonl`] dump back into a snapshot —
    /// the read half of the `<run>.metrics.jsonl` interchange, going
    /// through [`crate::json`].
    ///
    /// Histogram buckets are reconstructed from their `[lo, count]` pairs
    /// via [`bucket_of`], so a parsed snapshot re-renders byte-identically
    /// through `to_jsonl`. Numbers travel as JSON numbers (`f64`): values
    /// up to 2^53 round-trip exactly, and `u64::MAX` survives via the
    /// saturating cast; other >2^53 values may lose low bits.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed line.
    pub fn from_jsonl(text: &str) -> Result<MetricsSnapshot, String> {
        use crate::json::Value;
        let mut snap = MetricsSnapshot::default();
        for (idx, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let err = |what: &str| format!("metrics line {}: {what}: {line}", idx + 1);
            let v = crate::json::parse(line).map_err(|e| err(&e.to_string()))?;
            let name = v
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| err("missing name"))?
                .to_owned();
            match v.get("kind").and_then(Value::as_str) {
                Some("counter") => {
                    let value = v
                        .get("value")
                        .and_then(Value::as_u64)
                        .ok_or_else(|| err("counter without value"))?;
                    snap.counters.insert(name, value);
                }
                Some("timer") => {
                    let ns = v
                        .get("ns")
                        .and_then(Value::as_u64)
                        .ok_or_else(|| err("timer without ns"))?;
                    snap.timers.insert(name, ns);
                }
                Some("histogram") => {
                    let count = v
                        .get("count")
                        .and_then(Value::as_u64)
                        .ok_or_else(|| err("histogram without count"))?;
                    let sum = v
                        .get("sum")
                        .and_then(Value::as_u64)
                        .ok_or_else(|| err("histogram without sum"))?;
                    let mut buckets = vec![0u64; HISTOGRAM_BUCKETS];
                    for pair in v
                        .get("buckets")
                        .and_then(Value::as_array)
                        .ok_or_else(|| err("histogram without buckets"))?
                    {
                        let pair = pair.as_array().ok_or_else(|| err("bucket not a pair"))?;
                        let (lo, c) = match (
                            pair.first().and_then(Value::as_u64),
                            pair.get(1).and_then(Value::as_u64),
                        ) {
                            (Some(lo), Some(c)) if pair.len() == 2 => (lo, c),
                            _ => return Err(err("bucket not a [lo, count] pair")),
                        };
                        buckets[bucket_of(lo)] = c;
                    }
                    snap.histograms.insert(
                        name,
                        HistogramSnapshot {
                            count,
                            sum,
                            buckets,
                        },
                    );
                }
                _ => return Err(err("unknown metric kind")),
            }
        }
        Ok(snap)
    }
}

/// Copies the current value of every registered metric.
pub fn snapshot() -> MetricsSnapshot {
    let reg = registry();
    let counters = reg
        .counters
        .read()
        .expect("metrics registry poisoned")
        .iter()
        .map(|(&k, v)| (k.to_owned(), v.load(Ordering::Relaxed)))
        .collect();
    let timers = reg
        .timers
        .read()
        .expect("metrics registry poisoned")
        .iter()
        .map(|(&k, v)| (k.to_owned(), v.load(Ordering::Relaxed)))
        .collect();
    let histograms = reg
        .histograms
        .read()
        .expect("metrics registry poisoned")
        .iter()
        .map(|(&k, h)| {
            (
                k.to_owned(),
                HistogramSnapshot {
                    count: h.count.load(Ordering::Relaxed),
                    sum: h.sum.load(Ordering::Relaxed),
                    buckets: h
                        .buckets
                        .iter()
                        .map(|b| b.load(Ordering::Relaxed))
                        .collect(),
                },
            )
        })
        .collect();
    MetricsSnapshot {
        counters,
        timers,
        histograms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_diff() {
        let c = counter("test.metrics.counters_accumulate");
        let before = snapshot();
        c.inc();
        c.add(4);
        let delta = snapshot().since(&before);
        assert_eq!(delta.counter("test.metrics.counters_accumulate"), 5);
    }

    #[test]
    fn same_name_is_the_same_counter() {
        let a = counter("test.metrics.same_name");
        let b = counter("test.metrics.same_name");
        let before = a.get();
        b.inc();
        assert_eq!(a.get(), before + 1);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // Zeros get their own bucket; powers of two start a new bucket.
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(7), 3);
        assert_eq!(bucket_of(8), 4);
        assert_eq!(bucket_of(u64::MAX), 64);
        for i in 1..64 {
            // Bucket ranges tile the value space exactly.
            assert_eq!(bucket_of(bucket_lo(i)), i);
            assert_eq!(bucket_of(bucket_hi(i)), i);
            assert_eq!(bucket_hi(i).wrapping_add(1), bucket_lo(i + 1));
        }
    }

    #[test]
    fn histogram_records_into_buckets() {
        let h = histogram("test.metrics.hist_buckets");
        let before = snapshot();
        for v in [0u64, 1, 2, 3, 1024] {
            h.record(v);
        }
        let d = snapshot().since(&before);
        let hs = &d.histograms["test.metrics.hist_buckets"];
        assert_eq!(hs.count, 5);
        assert_eq!(hs.sum, 1030);
        assert_eq!(hs.buckets[0], 1); // 0
        assert_eq!(hs.buckets[1], 1); // 1
        assert_eq!(hs.buckets[2], 2); // 2, 3
        assert_eq!(hs.buckets[11], 1); // 1024
        assert!((hs.mean() - 206.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_is_bucket_accurate() {
        let h = histogram("test.metrics.hist_quantile");
        let before = snapshot();
        for v in 1..=100u64 {
            h.record(v);
        }
        let d = snapshot().since(&before);
        let hs = &d.histograms["test.metrics.hist_quantile"];
        // p50 of 1..=100 is ~50, whose bucket lower bound is 32.
        assert_eq!(hs.quantile(0.5), 32);
        // p100 is 100, bucket lower bound 64.
        assert_eq!(hs.quantile(1.0), 64);
        assert_eq!(hs.quantile(0.0), 1);
        // The named accessors are the same bucket-boundary quantiles.
        assert_eq!(hs.p50(), hs.quantile(0.50));
        assert_eq!(hs.p95(), hs.quantile(0.95));
        // p95 of 1..=100 ranks ~95, bucket lower bound 64.
        assert_eq!(hs.p95(), 64);
        assert_eq!(HistogramSnapshot::default().p95(), 0);
    }

    #[test]
    fn snapshot_diff_ignores_unrelated_history() {
        let c = counter("test.metrics.diff_scoped");
        c.add(17); // history from before the region of interest
        let before = snapshot();
        c.add(3);
        let d = snapshot().since(&before);
        assert_eq!(d.counter("test.metrics.diff_scoped"), 3);
    }

    #[test]
    fn histogram_extreme_values_land_in_the_edge_buckets() {
        let h = histogram("test.metrics.hist_edges");
        let before = snapshot();
        h.record(0);
        h.record(1);
        h.record(u64::MAX);
        let d = snapshot().since(&before);
        let hs = &d.histograms["test.metrics.hist_edges"];
        assert_eq!(hs.count, 3);
        assert_eq!(hs.buckets[0], 1, "0 lands in the zero bucket");
        assert_eq!(hs.buckets[1], 1, "1 lands in bucket 1 (2^0..2^1-1)");
        assert_eq!(hs.buckets[64], 1, "u64::MAX lands in the top bucket");
        assert_eq!(hs.buckets.iter().sum::<u64>(), 3, "no stray buckets");
        // The sum accumulator wraps (0 + 1 + u64::MAX ≡ 0 mod 2^64); the
        // histogram stays usable, it just cannot report an exact mean for
        // near-overflow totals.
        assert_eq!(hs.sum, 0);
    }

    #[test]
    fn snapshot_diff_round_trips_byte_identically_through_json() {
        let c = counter("test.metrics.rt_c");
        let t = timer("test.metrics.rt_t");
        let h = histogram("test.metrics.rt_h");
        let before = snapshot();
        c.add(7);
        t.add_ns(123_456_789);
        for v in [0u64, 1, 3, 1024, u64::MAX] {
            h.record(v);
        }
        let delta = snapshot().since(&before);
        let text = delta.to_jsonl();
        let parsed = MetricsSnapshot::from_jsonl(&text).expect("dump parses");
        // The parsed snapshot is semantically equal (bucket vectors are
        // rebuilt at full width) and re-renders to the exact same bytes.
        assert_eq!(parsed, delta);
        assert_eq!(
            parsed.to_jsonl(),
            text,
            "render → parse → render is a fixpoint"
        );
        // The edge values survived the trip through rt::json's f64 numbers.
        let hs = &parsed.histograms["test.metrics.rt_h"];
        assert_eq!(hs.buckets[0], 1);
        assert_eq!(hs.buckets[1], 1);
        assert_eq!(hs.buckets[64], 1);
        assert_eq!(parsed.counter("test.metrics.rt_c"), 7);
        assert_eq!(parsed.timer_ns("test.metrics.rt_t"), 123_456_789);
    }

    #[test]
    fn from_jsonl_rejects_malformed_lines() {
        assert!(MetricsSnapshot::from_jsonl("not json").is_err());
        assert!(
            MetricsSnapshot::from_jsonl("{\"kind\":\"gauge\",\"name\":\"x\",\"value\":1}")
                .unwrap_err()
                .contains("unknown metric kind")
        );
        assert!(
            MetricsSnapshot::from_jsonl("{\"kind\":\"counter\",\"value\":1}")
                .unwrap_err()
                .contains("missing name")
        );
        assert_eq!(
            MetricsSnapshot::from_jsonl("\n  \n").unwrap(),
            MetricsSnapshot::default(),
            "blank lines are skipped"
        );
    }

    #[test]
    fn jsonl_render_contains_every_kind() {
        counter("test.metrics.jsonl_c").inc();
        timer("test.metrics.jsonl_t").add_ns(42);
        histogram("test.metrics.jsonl_h").record(9);
        let text = snapshot().to_jsonl();
        assert!(text.contains("{\"kind\":\"counter\",\"name\":\"test.metrics.jsonl_c\""));
        assert!(text.contains("{\"kind\":\"timer\",\"name\":\"test.metrics.jsonl_t\""));
        assert!(text.contains("{\"kind\":\"histogram\",\"name\":\"test.metrics.jsonl_h\""));
    }
}
