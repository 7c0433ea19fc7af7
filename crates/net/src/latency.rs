//! Deterministic network-latency model.
//!
//! The paper's crawl of 50,000 sites "ends after about one day" — page
//! load time is a real resource the crawler spends. This model assigns
//! every exchange a deterministic latency from the server's registrable
//! domain (a per-host base RTT in a realistic band) plus a
//! per-resource-kind service time, so simulated page-load durations are
//! stable, plausible and reproducible.

use crate::clock::Timestamp;
use crate::domain::Domain;
use crate::http::ResourceKind;
use crate::psl::registrable_str;
use crate::seed;

/// Latency-model parameters (milliseconds).
#[derive(Debug, Clone)]
pub struct LatencyModel {
    /// Minimum per-host round-trip time.
    pub min_rtt_ms: u64,
    /// Span above the minimum over which per-host RTTs spread.
    pub rtt_span_ms: u64,
    /// Extra service time for document renders.
    pub document_ms: u64,
    /// Extra service time for scripts/fetches.
    pub script_ms: u64,
    /// Extra service time for passive objects (images, styles).
    pub passive_ms: u64,
    seed: u64,
}

impl LatencyModel {
    /// A model with broadband-like defaults: RTTs of 20–220 ms plus
    /// small service times.
    pub fn new(campaign_seed: u64) -> LatencyModel {
        LatencyModel {
            min_rtt_ms: 20,
            rtt_span_ms: 200,
            document_ms: 80,
            script_ms: 15,
            passive_ms: 5,
            seed: seed::derive(campaign_seed, "latency"),
        }
    }

    /// The stable base RTT to a host (keyed on its registrable domain —
    /// one server farm per party).
    pub fn rtt_ms(&self, host: &Domain) -> u64 {
        let reg = registrable_str(host);
        let u = seed::unit_f64(seed::derive(self.seed, reg));
        self.min_rtt_ms + (u * self.rtt_span_ms as f64) as u64
    }

    /// Total latency of one exchange.
    pub fn exchange_ms(&self, host: &Domain, kind: ResourceKind) -> u64 {
        let service = match kind {
            ResourceKind::Document => self.document_ms,
            ResourceKind::Script | ResourceKind::Fetch => self.script_ms,
            ResourceKind::Image | ResourceKind::Style => self.passive_ms,
            ResourceKind::WellKnown => self.script_ms,
        };
        self.rtt_ms(host) + service
    }

    /// Advance a timestamp by one exchange's latency.
    #[must_use]
    pub fn after_exchange(&self, now: Timestamp, host: &Domain, kind: ResourceKind) -> Timestamp {
        now.plus_millis(self.exchange_ms(host, kind))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> Domain {
        Domain::parse(s).unwrap()
    }

    #[test]
    fn rtt_is_stable_and_in_band() {
        let m = LatencyModel::new(7);
        for i in 0..500 {
            let host = d(&format!("host{i}.com"));
            let rtt = m.rtt_ms(&host);
            assert_eq!(rtt, m.rtt_ms(&host), "stable");
            assert!((m.min_rtt_ms..m.min_rtt_ms + m.rtt_span_ms + 1).contains(&rtt));
        }
    }

    #[test]
    fn subdomains_share_the_server_rtt() {
        let m = LatencyModel::new(9);
        assert_eq!(m.rtt_ms(&d("cdn.foo.com")), m.rtt_ms(&d("www.foo.com")));
        assert_ne!(
            m.rtt_ms(&d("one-of-many-hosts.com")),
            m.rtt_ms(&d("another-far-host.net")),
            "different parties usually differ"
        );
    }

    #[test]
    fn documents_cost_more_than_pixels() {
        let m = LatencyModel::new(3);
        let host = d("site.com");
        assert!(
            m.exchange_ms(&host, ResourceKind::Document)
                > m.exchange_ms(&host, ResourceKind::Image)
        );
        assert!(
            m.exchange_ms(&host, ResourceKind::Script) >= m.exchange_ms(&host, ResourceKind::Style)
        );
    }

    #[test]
    fn after_exchange_advances_time() {
        let m = LatencyModel::new(3);
        let t0 = Timestamp(1_000);
        let t1 = m.after_exchange(t0, &d("site.com"), ResourceKind::Document);
        assert!(t1 > t0);
        assert_eq!(
            t1.millis() - t0.millis(),
            m.exchange_ms(&d("site.com"), ResourceKind::Document)
        );
    }

    #[test]
    fn rtt_distribution_is_spread() {
        let m = LatencyModel::new(11);
        let rtts: Vec<u64> = (0..1_000)
            .map(|i| m.rtt_ms(&d(&format!("spread{i}.org"))))
            .collect();
        let min = *rtts.iter().min().unwrap();
        let max = *rtts.iter().max().unwrap();
        assert!(
            max - min > 150,
            "RTTs should use most of the band: {min}..{max}"
        );
    }
}
