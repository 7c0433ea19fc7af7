//! Metric primitives: named atomic counters, gauges and fixed-bucket
//! histograms, registered once and snapshotted into a serialisable,
//! deterministic structure.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc`-backed
//! clones over atomics, so the hot paths (one network exchange, one
//! Topics call) never take the registry lock — the lock is only held
//! while resolving a name to a handle or while snapshotting.
//!
//! Metric names follow Prometheus conventions. A name may carry a single
//! label pair in curly braces (e.g. `topics_calls_total{class="legitimate"}`,
//! built with [`labeled`]); the part before the brace is the *base name*
//! used for `# TYPE` grouping in the text exposition. Metrics whose base
//! name contains `wall` are wall-clock measurements and are removed by
//! [`MetricsSnapshot::strip_wall_clock`], which is what makes same-seed
//! snapshots byte-identical across runs.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Default histogram bucket upper bounds for latency-style observations,
/// in milliseconds.
pub const DEFAULT_LATENCY_BUCKETS_MS: &[u64] = &[
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 30_000,
];

/// Default histogram bucket upper bounds for allocation-size
/// observations, in bytes: powers of two from 16 B to 1 GiB. Latency
/// buckets top out at 30 000, so a size histogram reusing them would
/// collapse every allocation above 30 kB into `+Inf`.
pub const DEFAULT_SIZE_BUCKETS_BYTES: &[u64] = &[
    1 << 4,
    1 << 6,
    1 << 8,
    1 << 10,
    1 << 12,
    1 << 14,
    1 << 16,
    1 << 18,
    1 << 20,
    1 << 22,
    1 << 24,
    1 << 26,
    1 << 28,
    1 << 30,
];

/// Default cap on distinct label values per `(base name, label)` pair.
/// The first `DEFAULT_LABEL_CAP` values each get their own series;
/// later values collapse into the [`OTHER_LABEL`] bucket, so a
/// 50k-site campaign labelling per-CP series cannot blow up the
/// Prometheus render.
pub const DEFAULT_LABEL_CAP: usize = 64;

/// Overflow bucket used once a label exceeds the cardinality cap.
pub const OTHER_LABEL: &str = "other";

/// Build a labelled metric name: `name{label="value"}`. The value is
/// escaped with [`escape_label_value`], so arbitrary strings (domains
/// with quotes, multi-line phase names) stay within one well-formed
/// exposition line.
pub fn labeled(name: &str, label: &str, value: &str) -> String {
    format!("{name}{{{label}=\"{}\"}}", escape_label_value(value))
}

/// Escape a label value per the Prometheus text exposition format:
/// backslash, double quote and newline become `\\`, `\"` and `\n`.
/// Values without those characters are returned borrowed (no
/// allocation on the common path).
pub fn escape_label_value(value: &str) -> std::borrow::Cow<'_, str> {
    if !value.contains(['\\', '"', '\n']) {
        return std::borrow::Cow::Borrowed(value);
    }
    let mut out = String::with_capacity(value.len() + 2);
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    std::borrow::Cow::Owned(out)
}

/// The base name of a possibly-labelled metric (the part before `{`).
pub fn base_name(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

/// A monotonically increasing counter handle.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle (latest-value semantics).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Set the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add to the value (negative deltas allowed).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramInner {
    /// Inclusive upper bounds, strictly increasing; an implicit `+Inf`
    /// bucket follows the last bound.
    bounds: Vec<u64>,
    /// One slot per bound plus the `+Inf` slot.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

/// A fixed-bucket histogram handle for non-negative integer observations
/// (typically latencies in milliseconds).
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    fn new(bounds: &[u64]) -> Histogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds ascend");
        Histogram(Arc::new(HistogramInner {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }

    /// Record one observation.
    pub fn observe(&self, value: u64) {
        self.observe_n(value, 1);
    }

    /// Record `n` observations of the same value in one update — the
    /// bulk-transfer path for pre-aggregated counts (e.g. the
    /// allocator's size-class counters), where calling
    /// [`Histogram::observe`] per event would be millions of updates.
    pub fn observe_n(&self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let inner = &self.0;
        let idx = inner
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(inner.bounds.len());
        inner.buckets[idx].fetch_add(n, Ordering::Relaxed);
        inner.count.fetch_add(n, Ordering::Relaxed);
        inner
            .sum
            .fetch_add(value.saturating_mul(n), Ordering::Relaxed);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.0.bounds.clone(),
            buckets: self
                .0
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.0.count.load(Ordering::Relaxed),
            sum: self.0.sum.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Inclusive bucket upper bounds (the `+Inf` bucket is implicit).
    pub bounds: Vec<u64>,
    /// Per-bucket (non-cumulative) observation counts; one entry per
    /// bound plus the trailing `+Inf` entry.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Estimate the `q`-quantile as the upper bound of the bucket where
    /// the cumulative count crosses `q × count`. Values in the `+Inf`
    /// bucket report the last finite bound.
    ///
    /// Edge cases are defined, not panics:
    /// * empty histogram → the documented sentinel `0`;
    /// * `q <= 0.0` (and `NaN`) → the bucket of the smallest
    ///   observation;
    /// * `q >= 1.0` → the bucket of the largest observation;
    /// * a histogram with no finite bounds (every observation in
    ///   `+Inf`) → the sentinel `0`.
    ///
    /// Use [`HistogramSnapshot::quantile_checked`] to distinguish the
    /// sentinel from a genuine `0` bound.
    pub fn quantile(&self, q: f64) -> u64 {
        self.quantile_checked(q).unwrap_or(0)
    }

    /// [`HistogramSnapshot::quantile`] without the sentinel: `None` for
    /// an empty histogram or when the answer falls in the `+Inf` bucket
    /// of a histogram with no finite bounds.
    pub fn quantile_checked(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        // NaN compares false on both sides and clamps to the minimum.
        let q = if q > 0.0 { q.min(1.0) } else { 0.0 };
        let target = (q * self.count as f64).ceil().clamp(1.0, self.count as f64) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return self.bounds.get(i).or(self.bounds.last()).copied();
            }
        }
        self.bounds.last().copied()
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// The process-wide registry of named metrics.
///
/// Resolving the same name twice returns handles over the same atomic, so
/// concurrent workers can each hold their own clone.
///
/// Labelled series are cardinality-bounded: per `(base name, label)`
/// pair, only the first [`DEFAULT_LABEL_CAP`] distinct values (or the
/// cap set with [`MetricsRegistry::with_label_cap`]) get their own
/// series; later values collapse into `label="other"`.
#[derive(Debug)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    label_cap: usize,
    /// Distinct values seen per `name\u{0}label` key.
    label_values: Mutex<BTreeMap<String, BTreeSet<String>>>,
}

impl Default for MetricsRegistry {
    fn default() -> MetricsRegistry {
        MetricsRegistry {
            counters: Mutex::default(),
            gauges: Mutex::default(),
            histograms: Mutex::default(),
            label_cap: DEFAULT_LABEL_CAP,
            label_values: Mutex::default(),
        }
    }
}

impl MetricsRegistry {
    /// An empty registry with the default label-cardinality cap.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Override the label-cardinality cap (≥ 1).
    #[must_use]
    pub fn with_label_cap(mut self, cap: usize) -> MetricsRegistry {
        self.label_cap = cap.max(1);
        self
    }

    /// Apply the cardinality cap: the first `label_cap` distinct values
    /// pass through; later values collapse into [`OTHER_LABEL`].
    fn capped<'v>(&self, name: &str, label: &str, value: &'v str) -> &'v str {
        if value == OTHER_LABEL {
            return value;
        }
        let key = format!("{name}\u{0}{label}");
        let mut seen = self.label_values.lock();
        let values = seen.entry(key).or_default();
        if values.contains(value) {
            value
        } else if values.len() < self.label_cap {
            values.insert(value.to_owned());
            value
        } else {
            OTHER_LABEL
        }
    }

    /// Get or create a counter.
    pub fn counter(&self, name: &str) -> Counter {
        self.counters
            .lock()
            .entry(name.to_owned())
            .or_default()
            .clone()
    }

    /// Get or create a counter with one label pair. Distinct values per
    /// `(name, label)` are capped; overflow goes to `label="other"`.
    pub fn labeled_counter(&self, name: &str, label: &str, value: &str) -> Counter {
        let value = self.capped(name, label, value);
        self.counter(&labeled(name, label, value))
    }

    /// Get or create a gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauges
            .lock()
            .entry(name.to_owned())
            .or_default()
            .clone()
    }

    /// Get or create a gauge with one label pair. Distinct values per
    /// `(name, label)` are capped; overflow goes to `label="other"`.
    pub fn labeled_gauge(&self, name: &str, label: &str, value: &str) -> Gauge {
        let value = self.capped(name, label, value);
        self.gauge(&labeled(name, label, value))
    }

    /// Get or create a histogram with the default latency buckets. The
    /// name must be label-free (histograms expand into their own
    /// `le`-labelled series in the exposition).
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with_buckets(name, DEFAULT_LATENCY_BUCKETS_MS)
    }

    /// Get or create a histogram with explicit bucket bounds. Bounds are
    /// fixed at first registration; later calls return the existing
    /// histogram regardless of the bounds passed.
    pub fn histogram_with_buckets(&self, name: &str, bounds: &[u64]) -> Histogram {
        debug_assert!(!name.contains('{'), "histogram names must be label-free");
        self.histograms
            .lock()
            .entry(name.to_owned())
            .or_insert_with(|| Histogram::new(bounds))
            .clone()
    }

    /// Copy every registered metric into a serialisable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// A point-in-time copy of every metric in a registry: serialisable,
/// comparable, and renderable as Prometheus text exposition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct MetricsSnapshot {
    /// Counter values by (possibly labelled) name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by (possibly labelled) name.
    pub gauges: BTreeMap<String, i64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Value of a counter, 0 when absent. Accepts labelled names.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Value of a gauge, 0 when absent.
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Sum of every counter sharing `base` as base name (i.e. across all
    /// label values).
    pub fn counter_sum(&self, base: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| base_name(k) == base)
            .map(|(_, v)| v)
            .sum()
    }

    /// Deterministically combine per-shard snapshots. Counters and
    /// histogram buckets/count/sum add — disjoint shards contribute
    /// disjoint observations — while gauges take the elementwise
    /// maximum, the only combiner that is independent of merge order
    /// for point-in-time values. Histograms sharing a name must agree
    /// on bucket bounds; a series missing from a snapshot contributes
    /// nothing. Beware that series counting *deduplicated* work (e.g.
    /// attestation probes, which several shards may repeat) do not sum
    /// to the unsharded value; callers cross-check those against the
    /// merged records instead.
    pub fn merge(snapshots: &[MetricsSnapshot]) -> Result<MetricsSnapshot, String> {
        let mut out = MetricsSnapshot::default();
        for s in snapshots {
            for (k, v) in &s.counters {
                *out.counters.entry(k.clone()).or_insert(0) += v;
            }
            for (k, v) in &s.gauges {
                out.gauges
                    .entry(k.clone())
                    .and_modify(|e| *e = (*e).max(*v))
                    .or_insert(*v);
            }
            for (k, h) in &s.histograms {
                match out.histograms.entry(k.clone()) {
                    std::collections::btree_map::Entry::Vacant(e) => {
                        e.insert(h.clone());
                    }
                    std::collections::btree_map::Entry::Occupied(mut e) => {
                        let acc = e.get_mut();
                        if acc.bounds != h.bounds || acc.buckets.len() != h.buckets.len() {
                            return Err(format!(
                                "histogram {k}: bucket bounds differ across snapshots"
                            ));
                        }
                        for (a, b) in acc.buckets.iter_mut().zip(&h.buckets) {
                            *a += b;
                        }
                        acc.count += h.count;
                        acc.sum += h.sum;
                    }
                }
            }
        }
        Ok(out)
    }

    /// Remove every operational metric: wall-clock measurements (base
    /// name containing `wall`) and memory-accounting series (base name
    /// starting with `mem_` or `alloc_` — allocation counts depend on
    /// thread scheduling and allocator internals, not the seeded
    /// campaign). Everything left derives from the simulated clock and
    /// the seeded world, so two same-seed runs produce byte-identical
    /// stripped snapshots.
    #[must_use]
    pub fn strip_wall_clock(mut self) -> MetricsSnapshot {
        fn operational(name: &str) -> bool {
            let base = base_name(name);
            base.contains("wall") || base.starts_with("mem_") || base.starts_with("alloc_")
        }
        self.counters.retain(|k, _| !operational(k));
        self.gauges.retain(|k, _| !operational(k));
        self.histograms.retain(|k, _| !operational(k));
        self
    }

    /// Render the snapshot in the Prometheus text exposition format.
    ///
    /// Histograms expand into cumulative `_bucket{le=…}` series plus
    /// `_sum`/`_count`, followed by p50/p90/p99 estimate gauges. Each
    /// base name gets exactly one `# HELP` and one `# TYPE` line, even
    /// when it appears in more than one section (the CI lint checks
    /// this invariant).
    pub fn render_prometheus(&self) -> String {
        // Writing into a `String` cannot fail, so the `write!` results
        // are ignored.
        let mut out = String::new();
        let mut described: BTreeSet<&str> = BTreeSet::new();
        let mut type_line = |out: &mut String, base, kind: &str| {
            if described.insert(base) {
                let _ = write!(
                    out,
                    "# HELP {base} topics-lab {kind}\n# TYPE {base} {kind}\n"
                );
            }
        };
        for (name, value) in &self.counters {
            type_line(&mut out, base_name(name), "counter");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, value) in &self.gauges {
            type_line(&mut out, base_name(name), "gauge");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, h) in &self.histograms {
            type_line(&mut out, name, "histogram");
            let mut cumulative = 0u64;
            for (i, &c) in h.buckets.iter().enumerate() {
                cumulative += c;
                let _ = match h.bounds.get(i) {
                    Some(b) => writeln!(out, "{name}_bucket{{le=\"{b}\"}} {cumulative}"),
                    None => writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}"),
                };
            }
            let _ = writeln!(out, "{name}_sum {}", h.sum);
            let _ = writeln!(out, "{name}_count {}", h.count);
            for (label, q) in [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99)] {
                let _ = writeln!(out, "{name}_quantile{{q=\"{label}\"}} {}", h.quantile(q));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_values_are_escaped_per_the_exposition_format() {
        // Regression: a backslash, quote or newline in a label value
        // used to land verbatim in the series name and corrupt the
        // /metrics payload (the quote ended the value early; the
        // newline split the sample across two lines).
        assert_eq!(escape_label_value("plain.example"), "plain.example");
        assert_eq!(escape_label_value(r#"a"b"#), r#"a\"b"#);
        assert_eq!(escape_label_value(r"a\b"), r"a\\b");
        assert_eq!(escape_label_value("a\nb"), r"a\nb");
        assert_eq!(
            labeled("calls_total", "cp", "evil\"\n\\.example"),
            "calls_total{cp=\"evil\\\"\\n\\\\.example\"}"
        );
        // Through the registry: the rendered exposition stays one
        // sample per line and parseable.
        let r = MetricsRegistry::new();
        r.labeled_counter("calls_total", "cp", "evil\"cp\n.example")
            .inc();
        let text = r.snapshot().render_prometheus();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert!(
                line.ends_with(" 1"),
                "sample line split by an unescaped newline: {line:?}"
            );
            let quotes_unescaped = line
                .as_bytes()
                .windows(2)
                .filter(|w| w[1] == b'"' && w[0] != b'\\')
                .count()
                + usize::from(line.as_bytes().first() == Some(&b'"'));
            assert_eq!(quotes_unescaped, 2, "stray quote in {line:?}");
        }
        assert!(text.contains("calls_total{cp=\"evil\\\"cp\\n.example\"} 1"));
    }

    #[test]
    fn counters_share_state_by_name() {
        let r = MetricsRegistry::new();
        let a = r.counter("x_total");
        let b = r.counter("x_total");
        a.inc();
        b.add(2);
        assert_eq!(r.counter("x_total").get(), 3);
        assert_eq!(r.snapshot().counter("x_total"), 3);
    }

    #[test]
    fn labeled_counters_are_distinct_series_with_shared_base() {
        let r = MetricsRegistry::new();
        r.labeled_counter("calls_total", "class", "a").add(2);
        r.labeled_counter("calls_total", "class", "b").add(3);
        let s = r.snapshot();
        assert_eq!(s.counter("calls_total{class=\"a\"}"), 2);
        assert_eq!(s.counter_sum("calls_total"), 5);
    }

    #[test]
    fn merge_adds_counters_and_histograms_and_maxes_gauges() {
        let snap = |c: u64, g: i64, buckets: [u64; 3]| {
            let r = MetricsRegistry::new();
            r.counter("visits_total").add(c);
            r.gauge("phase_workers").set(g);
            let h = r.histogram_with_buckets("lat_ms", &[10, 20]);
            for (i, &n) in buckets.iter().enumerate() {
                for _ in 0..n {
                    h.observe(5 + 10 * i as u64);
                }
            }
            r.snapshot()
        };
        let a = snap(3, 2, [1, 0, 2]);
        let b = snap(4, 8, [0, 5, 0]);
        let merged = MetricsSnapshot::merge(&[a.clone(), b]).expect("merges");
        assert_eq!(merged.counter("visits_total"), 7);
        assert_eq!(merged.gauge("phase_workers"), 8);
        let h = &merged.histograms["lat_ms"];
        assert_eq!(h.buckets, vec![1, 5, 2]);
        assert_eq!(h.count, 8);
        // Merging with an empty snapshot is the identity; merge order
        // does not matter.
        let id = MetricsSnapshot::merge(&[a.clone(), MetricsSnapshot::default()]).unwrap();
        assert_eq!(id, a);
        // Mismatched bounds are refused.
        let r = MetricsRegistry::new();
        r.histogram_with_buckets("lat_ms", &[99]).observe(1);
        assert!(MetricsSnapshot::merge(&[a, r.snapshot()]).is_err());
    }

    #[test]
    fn gauges_hold_latest_value() {
        let r = MetricsRegistry::new();
        let g = r.gauge("depth");
        g.set(5);
        g.add(-2);
        assert_eq!(r.snapshot().gauge("depth"), 3);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let r = MetricsRegistry::new();
        let h = r.histogram_with_buckets("lat_ms", &[10, 100, 1000]);
        for v in [1, 5, 9, 50, 99, 200] {
            h.observe(v);
        }
        h.observe(5_000); // +Inf bucket
        let s = r.snapshot();
        let snap = &s.histograms["lat_ms"];
        assert_eq!(snap.buckets, vec![3, 2, 1, 1]);
        assert_eq!(snap.count, 7);
        assert_eq!(snap.sum, 1 + 5 + 9 + 50 + 99 + 200 + 5_000);
        assert_eq!(snap.quantile(0.5), 100);
        assert_eq!(snap.quantile(0.99), 1000, "+Inf reports last bound");
        assert!(snap.mean() > 0.0);
    }

    #[test]
    fn prometheus_rendering_has_types_buckets_and_quantiles() {
        let r = MetricsRegistry::new();
        r.labeled_counter("calls_total", "class", "a").inc();
        r.labeled_counter("calls_total", "class", "b").inc();
        r.gauge("phase_wall_us").set(12);
        r.histogram_with_buckets("lat_ms", &[10, 100]).observe(7);
        let text = r.snapshot().render_prometheus();
        assert!(text.contains("# TYPE calls_total counter"));
        // One TYPE line for both labelled series.
        assert_eq!(text.matches("# TYPE calls_total").count(), 1);
        assert!(text.contains("calls_total{class=\"a\"} 1"));
        assert!(text.contains("# TYPE lat_ms histogram"));
        assert!(text.contains("lat_ms_bucket{le=\"10\"} 1"));
        assert!(text.contains("lat_ms_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("lat_ms_count 1"));
        assert!(text.contains("lat_ms_quantile{q=\"0.5\"} 10"));
    }

    #[test]
    fn prometheus_exposition_is_pinned_byte_for_byte() {
        // A base name shared by a counter and a gauge gets one header,
        // from the section it first appears in.
        let r = MetricsRegistry::new();
        r.labeled_counter("calls_total", "class", "b").add(3);
        r.labeled_counter("calls_total", "class", "a").inc();
        r.counter("shared").add(2);
        r.gauge("depth").set(-4);
        r.labeled_gauge("shared", "k", "v").set(9);
        let h = r.histogram_with_buckets("lat_ms", &[10, 100]);
        for v in [7, 50, 500] {
            h.observe(v);
        }
        let want = "\
# HELP calls_total topics-lab counter
# TYPE calls_total counter
calls_total{class=\"a\"} 1
calls_total{class=\"b\"} 3
# HELP shared topics-lab counter
# TYPE shared counter
shared 2
# HELP depth topics-lab gauge
# TYPE depth gauge
depth -4
shared{k=\"v\"} 9
# HELP lat_ms topics-lab histogram
# TYPE lat_ms histogram
lat_ms_bucket{le=\"10\"} 1
lat_ms_bucket{le=\"100\"} 2
lat_ms_bucket{le=\"+Inf\"} 3
lat_ms_sum 557
lat_ms_count 3
lat_ms_quantile{q=\"0.5\"} 100
lat_ms_quantile{q=\"0.9\"} 100
lat_ms_quantile{q=\"0.99\"} 100
";
        assert_eq!(r.snapshot().render_prometheus(), want);
    }

    #[test]
    fn strip_wall_clock_removes_only_operational_metrics() {
        let r = MetricsRegistry::new();
        r.counter("visits_total").inc();
        r.labeled_gauge("phase_wall_us", "phase", "crawl").set(99);
        r.histogram("crawl_wall_ms").observe(1);
        // Memory-accounting series are operational too.
        r.gauge("mem_live_bytes").set(4096);
        r.gauge("mem_peak_rss_bytes").set(1 << 20);
        r.histogram_with_buckets("alloc_size_bytes", DEFAULT_SIZE_BUCKETS_BYTES)
            .observe(64);
        let s = r.snapshot().strip_wall_clock();
        assert_eq!(s.counter("visits_total"), 1);
        assert!(s.gauges.is_empty());
        assert!(s.histograms.is_empty());
    }

    #[test]
    fn observe_n_bulk_transfers_preaggregated_counts() {
        let r = MetricsRegistry::new();
        let h = r.histogram_with_buckets("sz", &[16, 64]);
        h.observe_n(16, 3);
        h.observe_n(100, 2);
        h.observe_n(8, 0); // no-op
        let snap = r.snapshot().histograms["sz"].clone();
        assert_eq!(snap.buckets, vec![3, 0, 2]);
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 16 * 3 + 100 * 2);
    }

    #[test]
    fn size_buckets_resolve_large_allocations() {
        // The regression this bucket set fixes: a 1 MiB allocation must
        // not collapse into +Inf the way it does on latency buckets.
        let r = MetricsRegistry::new();
        let h = r.histogram_with_buckets("alloc_size_bytes", DEFAULT_SIZE_BUCKETS_BYTES);
        h.observe(1 << 20);
        let snap = r.snapshot().histograms["alloc_size_bytes"].clone();
        assert_eq!(snap.quantile(0.5), 1 << 20);
        let inf_bucket = snap.buckets.last().copied().unwrap();
        assert_eq!(inf_bucket, 0);
    }

    #[test]
    fn label_cardinality_is_capped_into_other() {
        let r = MetricsRegistry::new().with_label_cap(2);
        r.labeled_counter("cp_calls_total", "cp", "cp0.example")
            .inc();
        r.labeled_counter("cp_calls_total", "cp", "cp1.example")
            .inc();
        // Over the cap: both land in the `other` bucket…
        r.labeled_counter("cp_calls_total", "cp", "cp2.example")
            .inc();
        r.labeled_counter("cp_calls_total", "cp", "cp3.example")
            .inc();
        // …while already-admitted values keep their own series…
        r.labeled_counter("cp_calls_total", "cp", "cp0.example")
            .inc();
        // …and other labels/names have their own budget.
        r.labeled_gauge("cp_depth", "cp", "cp9.example").set(4);
        let s = r.snapshot();
        assert_eq!(s.counter("cp_calls_total{cp=\"cp0.example\"}"), 2);
        assert_eq!(s.counter("cp_calls_total{cp=\"cp1.example\"}"), 1);
        assert_eq!(s.counter("cp_calls_total{cp=\"cp2.example\"}"), 0);
        assert_eq!(s.counter("cp_calls_total{cp=\"other\"}"), 2);
        assert_eq!(s.counter_sum("cp_calls_total"), 5, "no observations lost");
        assert_eq!(s.gauge("cp_depth{cp=\"cp9.example\"}"), 4);
        // Series count is bounded by cap + 1.
        let series = s
            .counters
            .keys()
            .filter(|k| base_name(k) == "cp_calls_total")
            .count();
        assert_eq!(series, 3);
    }

    #[test]
    fn quantile_edge_cases_are_defined() {
        // Empty histogram: documented sentinel.
        let empty = HistogramSnapshot {
            bounds: vec![10, 100],
            buckets: vec![0, 0, 0],
            count: 0,
            sum: 0,
        };
        assert_eq!(empty.quantile(0.5), 0);
        assert_eq!(empty.quantile_checked(0.5), None);

        let r = MetricsRegistry::new();
        let h = r.histogram_with_buckets("m", &[10, 100, 1000]);
        for v in [5, 50, 500] {
            h.observe(v);
        }
        let snap = r.snapshot().histograms["m"].clone();
        // q clamps into [0, 1]; 0 → smallest, 1 → largest observation.
        assert_eq!(snap.quantile(0.0), 10);
        assert_eq!(snap.quantile(-3.0), 10);
        assert_eq!(snap.quantile(1.0), 1000);
        assert_eq!(snap.quantile(7.5), 1000);
        assert_eq!(snap.quantile(f64::NAN), 10, "NaN clamps to the minimum");

        // Single bucket of finite bound.
        let hb = r.histogram_with_buckets("one", &[42]);
        hb.observe(1);
        let one = r.snapshot().histograms["one"].clone();
        assert_eq!(one.quantile(0.5), 42);
        assert_eq!(one.quantile(1.0), 42);

        // No finite bounds at all: every observation is +Inf → sentinel.
        let hinf = r.histogram_with_buckets("inf", &[]);
        hinf.observe(9);
        let inf = r.snapshot().histograms["inf"].clone();
        assert_eq!(inf.quantile(0.5), 0);
        assert_eq!(inf.quantile_checked(0.5), None);
    }

    #[test]
    fn prometheus_help_and_type_lines_are_unique() {
        let r = MetricsRegistry::new();
        r.labeled_counter("calls_total", "class", "a").inc();
        r.labeled_counter("calls_total", "class", "b").inc();
        r.gauge("depth").set(1);
        r.histogram_with_buckets("lat_ms", &[10]).observe(1);
        let text = r.snapshot().render_prometheus();
        let mut meta: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("# HELP") || l.starts_with("# TYPE"))
            .collect();
        let total = meta.len();
        meta.sort_unstable();
        meta.dedup();
        assert_eq!(meta.len(), total, "duplicate HELP/TYPE lines");
        assert!(text.contains("# HELP calls_total topics-lab counter"));
        assert!(text.contains("# HELP lat_ms topics-lab histogram"));
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let r = MetricsRegistry::new();
        r.counter("a_total").add(7);
        r.gauge("b").set(-2);
        r.histogram_with_buckets("h_ms", &[1, 2]).observe(2);
        let s = r.snapshot();
        let json = serde_json::to_string(&s).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
