//! Deterministic DNS with a realistic failure model.
//!
//! The paper visits the Tranco top-50,000 and succeeds on 43,405 sites; the
//! remainder "fail due to domain name resolution or connection-related
//! errors". [`SimDns`] reproduces this: each registrable domain either
//! always resolves or always fails (for a given seed), with the failure
//! kind drawn from a configurable mix. The per-domain decision is a pure
//! function of `(seed, registrable domain)` so repeated lookups — and
//! repeated campaigns — agree.

use crate::domain::Domain;
use crate::psl::registrable_str;
use crate::seed;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Why a name lookup failed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum DnsError {
    /// NXDOMAIN: the name does not exist.
    NameError {
        /// The failed name.
        domain: String,
    },
    /// The resolver timed out.
    Timeout {
        /// The failed name.
        domain: String,
    },
    /// The name resolved but the host refused the connection. (Grouped
    /// here because the paper lumps resolution and connection errors.)
    ConnectionRefused {
        /// The failed name.
        domain: String,
    },
}

impl DnsError {
    /// The domain the failure applies to.
    pub fn domain(&self) -> &str {
        match self {
            DnsError::NameError { domain }
            | DnsError::Timeout { domain }
            | DnsError::ConnectionRefused { domain } => domain,
        }
    }

    /// True for kinds that would be worth retrying against a real
    /// resolver. Note that both [`SimDns`] and the fault layer decide
    /// *per registrable domain*, so within one simulated campaign even
    /// these kinds are sticky; the retry layer therefore treats DNS
    /// failures as final and this classification is informational.
    pub fn is_transient(&self) -> bool {
        matches!(self, DnsError::Timeout { .. })
    }
}

impl fmt::Display for DnsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DnsError::NameError { domain } => write!(f, "NXDOMAIN for {domain}"),
            DnsError::Timeout { domain } => write!(f, "lookup timeout for {domain}"),
            DnsError::ConnectionRefused { domain } => {
                write!(f, "connection refused by {domain}")
            }
        }
    }
}

impl std::error::Error for DnsError {}

/// Failure model for [`SimDns`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DnsPolicy {
    /// Probability that a *first-party* (ranked) site fails entirely. The
    /// paper's rate is (50,000 − 43,405) / 50,000 ≈ 13.2%.
    pub first_party_failure_rate: f64,
    /// Probability that a third-party host fails. Third parties on
    /// successfully visited pages are mostly reachable; a small rate
    /// models dead includes.
    pub third_party_failure_rate: f64,
    /// Of the failures, the fraction that are NXDOMAIN (the rest split
    /// between timeouts and refused connections).
    pub name_error_share: f64,
    /// Of the non-NXDOMAIN failures, the fraction that are timeouts.
    pub timeout_share: f64,
}

impl DnsPolicy {
    /// The paper-calibrated policy: ≈13.2% of ranked sites unreachable.
    pub fn paper() -> DnsPolicy {
        DnsPolicy {
            first_party_failure_rate: (50_000.0 - 43_405.0) / 50_000.0,
            third_party_failure_rate: 0.01,
            name_error_share: 0.55,
            timeout_share: 0.5,
        }
    }

    /// Everything resolves — useful in unit tests.
    pub fn all_healthy() -> DnsPolicy {
        DnsPolicy {
            first_party_failure_rate: 0.0,
            third_party_failure_rate: 0.0,
            name_error_share: 0.55,
            timeout_share: 0.5,
        }
    }
}

impl Default for DnsPolicy {
    fn default() -> Self {
        DnsPolicy::paper()
    }
}

/// A deterministic simulated resolver.
///
/// Whether a domain is "first party" (a ranked site, subject to the higher
/// failure rate) is decided by the caller via [`SimDns::resolve_ranked`] vs
/// [`SimDns::resolve_third_party`]; DNS itself is rank-agnostic.
#[derive(Debug, Clone)]
pub struct SimDns {
    policy: DnsPolicy,
    seed: u64,
}

impl SimDns {
    /// Build a resolver from a policy and campaign seed.
    pub fn new(policy: DnsPolicy, campaign_seed: u64) -> SimDns {
        SimDns {
            policy,
            seed: seed::derive(campaign_seed, "dns"),
        }
    }

    /// Resolve a ranked (first-party) site.
    pub fn resolve_ranked(&self, domain: &Domain) -> Result<(), DnsError> {
        self.resolve_with_rate(domain, self.policy.first_party_failure_rate)
    }

    /// Resolve a third-party host.
    pub fn resolve_third_party(&self, domain: &Domain) -> Result<(), DnsError> {
        self.resolve_with_rate(domain, self.policy.third_party_failure_rate)
    }

    fn resolve_with_rate(&self, domain: &Domain, rate: f64) -> Result<(), DnsError> {
        // Decide at registrable-domain granularity: if example.com is dead,
        // www.example.com is dead too.
        let reg = registrable_str(domain);
        let s = seed::derive(self.seed, reg);
        if seed::unit_f64(s) >= rate {
            return Ok(());
        }
        let name = reg.to_owned();
        let kind = seed::unit_f64(seed::derive(s, "kind"));
        if kind < self.policy.name_error_share {
            Err(DnsError::NameError { domain: name })
        } else {
            let t = seed::unit_f64(seed::derive(s, "timeout"));
            if t < self.policy.timeout_share {
                Err(DnsError::Timeout { domain: name })
            } else {
                Err(DnsError::ConnectionRefused { domain: name })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> Domain {
        Domain::parse(s).unwrap()
    }

    #[test]
    fn healthy_policy_never_fails() {
        let dns = SimDns::new(DnsPolicy::all_healthy(), 1);
        for i in 0..1000 {
            assert!(dns.resolve_ranked(&d(&format!("site{i}.com"))).is_ok());
        }
    }

    #[test]
    fn failure_rate_is_close_to_policy() {
        let dns = SimDns::new(DnsPolicy::paper(), 7);
        let n = 20_000;
        let fails = (0..n)
            .filter(|i| dns.resolve_ranked(&d(&format!("site{i}.com"))).is_err())
            .count();
        let rate = fails as f64 / n as f64;
        let expect = DnsPolicy::paper().first_party_failure_rate;
        assert!(
            (rate - expect).abs() < 0.01,
            "rate {rate} vs expected {expect}"
        );
    }

    #[test]
    fn decision_is_stable_and_covers_subdomains() {
        let dns = SimDns::new(DnsPolicy::paper(), 9);
        for i in 0..200 {
            let base = d(&format!("host{i}.org"));
            let www = d(&format!("www.host{i}.org"));
            assert_eq!(
                dns.resolve_ranked(&base).is_ok(),
                dns.resolve_ranked(&www).is_ok(),
                "subdomain decision must match registrable domain"
            );
            assert_eq!(dns.resolve_ranked(&base), dns.resolve_ranked(&base));
        }
    }

    #[test]
    fn failure_kinds_are_mixed() {
        let dns = SimDns::new(DnsPolicy::paper(), 3);
        let mut nx = 0;
        let mut to = 0;
        let mut cr = 0;
        for i in 0..50_000 {
            match dns.resolve_ranked(&d(&format!("k{i}.net"))) {
                Err(DnsError::NameError { .. }) => nx += 1,
                Err(DnsError::Timeout { .. }) => to += 1,
                Err(DnsError::ConnectionRefused { .. }) => cr += 1,
                Ok(()) => {}
            }
        }
        assert!(nx > 0 && to > 0 && cr > 0, "nx={nx} to={to} cr={cr}");
        assert!(
            nx > to && nx > cr,
            "NXDOMAIN should dominate: {nx}/{to}/{cr}"
        );
    }

    #[test]
    fn transience_is_informational_only() {
        assert!(DnsError::Timeout { domain: "x".into() }.is_transient());
        assert!(!DnsError::NameError { domain: "x".into() }.is_transient());
        assert!(!DnsError::ConnectionRefused { domain: "x".into() }.is_transient());
    }

    #[test]
    fn third_party_rate_is_lower() {
        let dns = SimDns::new(DnsPolicy::paper(), 11);
        let n = 20_000;
        let fails = (0..n)
            .filter(|i| dns.resolve_third_party(&d(&format!("tp{i}.io"))).is_err())
            .count();
        assert!((fails as f64 / n as f64) < 0.02);
    }
}
