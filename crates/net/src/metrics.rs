//! Network-side observability: request counts per resource kind, a
//! latency histogram over simulated exchange times, and DNS failures.
//!
//! [`NetMetrics`] is a bundle of pre-resolved handles into a
//! [`MetricsRegistry`], so recording an exchange on the page-load hot
//! path is a couple of relaxed atomic increments — no lock, no lookup.

use crate::http::ResourceKind;
use topics_obs::{Counter, Histogram, MetricsRegistry, Word};

/// A resource kind as the trace's `kind` field records it.
pub fn kind_word(kind: ResourceKind) -> Word {
    match kind {
        ResourceKind::Document => Word::Document,
        ResourceKind::Script => Word::Script,
        ResourceKind::Fetch => Word::Fetch,
        ResourceKind::Image => Word::Image,
        ResourceKind::Style => Word::Style,
        ResourceKind::WellKnown => Word::WellKnown,
    }
}

/// Label value used for a resource kind in `net_requests_total{kind=…}`:
/// the same text the trace records.
pub fn kind_label(kind: ResourceKind) -> &'static str {
    kind_word(kind).as_str()
}

const KINDS: [ResourceKind; 6] = [
    ResourceKind::Document,
    ResourceKind::Script,
    ResourceKind::Fetch,
    ResourceKind::Image,
    ResourceKind::Style,
    ResourceKind::WellKnown,
];

fn kind_index(kind: ResourceKind) -> usize {
    KINDS.iter().position(|&k| k == kind).expect("known kind")
}

/// Pre-resolved handles for the network exchange hot path.
///
/// Series recorded:
/// * `net_requests_total{kind="document"|…}` — one per exchange;
/// * `net_request_latency_ms` — histogram of simulated exchange
///   latencies (deterministic: they come from the seeded latency model);
/// * `net_dns_failures_total` — failed resolutions;
/// * `net_retries_total` — retry attempts issued by the backoff layer;
/// * `net_retries_exhausted_total` — exchanges that still failed after
///   the retry budget (always ≤ `net_retries_total` when retries are
///   enabled, which the chaos suite asserts).
#[derive(Debug, Clone)]
pub struct NetMetrics {
    by_kind: [Counter; 6],
    latency: Histogram,
    dns_failures: Counter,
    retries: Counter,
    retries_exhausted: Counter,
}

impl NetMetrics {
    /// Resolve the handles in `registry`.
    pub fn new(registry: &MetricsRegistry) -> NetMetrics {
        let by_kind =
            KINDS.map(|k| registry.labeled_counter("net_requests_total", "kind", kind_label(k)));
        NetMetrics {
            by_kind,
            latency: registry.histogram("net_request_latency_ms"),
            dns_failures: registry.counter("net_dns_failures_total"),
            retries: registry.counter("net_retries_total"),
            retries_exhausted: registry.counter("net_retries_exhausted_total"),
        }
    }

    /// Record one network exchange of `kind` taking `latency_ms` of
    /// simulated time.
    pub fn record_exchange(&self, kind: ResourceKind, latency_ms: u64) {
        self.by_kind[kind_index(kind)].inc();
        self.latency.observe(latency_ms);
    }

    /// Record a failed DNS resolution.
    pub fn record_dns_failure(&self) {
        self.dns_failures.inc();
    }

    /// Record one retry attempt issued after a transient failure.
    pub fn record_retry(&self) {
        self.retries.inc();
    }

    /// Record an exchange that still failed after the retry budget.
    pub fn record_retries_exhausted(&self) {
        self.retries_exhausted.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exchanges_count_per_kind_and_feed_the_histogram() {
        let registry = MetricsRegistry::new();
        let m = NetMetrics::new(&registry);
        m.record_exchange(ResourceKind::Document, 120);
        m.record_exchange(ResourceKind::Image, 30);
        m.record_exchange(ResourceKind::Image, 25);
        m.record_dns_failure();
        m.record_retry();
        m.record_retry();
        m.record_retries_exhausted();
        let s = registry.snapshot();
        assert_eq!(s.counter("net_requests_total{kind=\"document\"}"), 1);
        assert_eq!(s.counter("net_requests_total{kind=\"image\"}"), 2);
        assert_eq!(s.counter_sum("net_requests_total"), 3);
        assert_eq!(s.histograms["net_request_latency_ms"].count, 3);
        assert_eq!(s.counter("net_dns_failures_total"), 1);
        assert_eq!(s.counter("net_retries_total"), 2);
        assert_eq!(s.counter("net_retries_exhausted_total"), 1);
    }

    #[test]
    fn every_kind_has_a_distinct_label() {
        let mut labels: Vec<&str> = KINDS.iter().map(|&k| kind_label(k)).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), KINDS.len());
    }
}
