//! Deterministic fault injection for the simulated network.
//!
//! The paper's crawl is a *lossy* measurement: of the Tranco top-50,000
//! only 43,405 sites are successfully visited, attestation fetches fail or
//! return malformed JSON, and the §4 anomalous-usage finding exists only
//! because a corrupted allow-list component fails open. The base world
//! models a calibrated amount of that loss (see [`crate::dns`]); this
//! module adds a *tunable* layer on top so the pipeline's tolerance to
//! worse conditions can be exercised and tested.
//!
//! Everything is a pure function of a fault seed, so campaigns stay
//! reproducible: per-exchange decisions are keyed on
//! `(fault seed, URL, simulated time)` — a retried exchange lands at a
//! later simulated instant (backoff) and therefore draws a fresh coin,
//! which is how deterministic-yet-transient faults are modelled without
//! any shared mutable state. DNS faults are *sticky* per registrable
//! domain (a dead name stays dead, retrying does not help), matching the
//! paper's "domain name resolution errors" site drops.

use crate::clock::Timestamp;
use crate::dns::DnsError;
use crate::domain::Domain;
use crate::error::NetError;
use crate::http::{HttpRequest, HttpResponse};
use crate::psl::registrable_str;
use crate::seed;
use crate::service::NetworkService;
use crate::url::Url;
use crate::wellknown::ATTESTATION_PATH;
use serde::{Deserialize, Serialize};
use topics_obs::{Counter, MetricsRegistry};

/// Default simulated milliseconds a client waits before declaring an
/// injected slow response timed out.
pub const DEFAULT_EXCHANGE_TIMEOUT_MS: u64 = 10_000;

/// Tunable fault rates for one campaign. All rates are probabilities in
/// `[0, 1]`; the profile is inert (and provably zero-cost) when every
/// rate is zero.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultProfile {
    /// Probability that a ranked (first-party) registrable domain fails
    /// DNS for the whole campaign — sticky, on top of the base
    /// [`crate::dns::DnsPolicy`] failure model.
    pub dns_failure_rate: f64,
    /// Per-exchange probability of a connection reset.
    pub connection_reset_rate: f64,
    /// Per-exchange probability of an HTTP 500.
    pub server_error_rate: f64,
    /// Per-exchange probability that the response is slower than
    /// `exchange_timeout_ms` and the client gives up.
    pub slow_response_rate: f64,
    /// Per-exchange probability that a served attestation body arrives
    /// truncated (invalid JSON) at the well-known path.
    pub attestation_truncation_rate: f64,
    /// Per-campaign probability that the browser's allow-list component
    /// download is corrupt (downgrades a healthy store; see the paper's
    /// §4 fail-open finding).
    pub allow_list_corruption_rate: f64,
    /// Simulated client timeout for injected slow responses.
    pub exchange_timeout_ms: u64,
}

impl FaultProfile {
    /// No faults at all. This is the default; the layer is inert.
    pub fn off() -> FaultProfile {
        FaultProfile::uniform(0.0)
    }

    /// A profile where `rate` is the headline fault probability: each
    /// exchange faults with probability `rate` (split evenly between
    /// resets, 500s and slow responses), each first-party domain is dead
    /// with probability `rate`, and attestation truncation / allow-list
    /// corruption fire at `rate`.
    pub fn uniform(rate: f64) -> FaultProfile {
        let rate = rate.clamp(0.0, 1.0);
        FaultProfile {
            dns_failure_rate: rate,
            connection_reset_rate: rate / 3.0,
            server_error_rate: rate / 3.0,
            slow_response_rate: rate / 3.0,
            attestation_truncation_rate: rate,
            allow_list_corruption_rate: rate,
            exchange_timeout_ms: DEFAULT_EXCHANGE_TIMEOUT_MS,
        }
    }

    /// Mild degradation (5% everywhere): the §3/§4/§5 rate-style findings
    /// must survive this band (see `tests/integration_faults.rs`).
    pub fn light() -> FaultProfile {
        FaultProfile::uniform(0.05)
    }

    /// Heavy degradation (25% everywhere): the pipeline must complete and
    /// reconcile its counts, but findings may move.
    pub fn heavy() -> FaultProfile {
        FaultProfile::uniform(0.25)
    }

    /// Parse a CLI profile name: `off`, `light`, `heavy`, or a bare
    /// uniform rate such as `0.1`.
    pub fn parse(input: &str) -> Result<FaultProfile, String> {
        match input.trim() {
            "off" => Ok(FaultProfile::off()),
            "light" => Ok(FaultProfile::light()),
            "heavy" => Ok(FaultProfile::heavy()),
            other => match other.parse::<f64>() {
                Ok(rate) if (0.0..=1.0).contains(&rate) => Ok(FaultProfile::uniform(rate)),
                _ => Err(format!(
                    "unknown fault profile {other:?} (expected off, light, heavy, or a rate in [0,1])"
                )),
            },
        }
    }

    /// True when every rate is zero and the layer can do nothing.
    pub fn is_off(&self) -> bool {
        self.dns_failure_rate == 0.0
            && self.connection_reset_rate == 0.0
            && self.server_error_rate == 0.0
            && self.slow_response_rate == 0.0
            && self.attestation_truncation_rate == 0.0
            && self.allow_list_corruption_rate == 0.0
    }
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile::off()
    }
}

/// A fault injected into one HTTP exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// The connection was reset mid-exchange.
    ConnectionReset,
    /// The server answered 500.
    ServerError,
    /// The response took longer than the client timeout.
    SlowResponse {
        /// Simulated milliseconds the client waited before giving up.
        after_ms: u64,
    },
}

/// A seeded, deterministic schedule of faults for one campaign.
///
/// All decision methods are pure: the plan can be cloned into worker
/// threads and queried in any order without changing outcomes.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    profile: FaultProfile,
    seed: u64,
}

impl FaultPlan {
    /// Build a plan from a profile and a fault seed (by convention derived
    /// from the campaign seed unless overridden with `--fault-seed`).
    pub fn new(profile: FaultProfile, fault_seed: u64) -> FaultPlan {
        FaultPlan {
            profile,
            seed: seed::derive(fault_seed, "fault-plan"),
        }
    }

    /// The profile this plan draws from.
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    /// True when the plan can ever inject anything.
    pub fn is_active(&self) -> bool {
        !self.profile.is_off()
    }

    /// Sticky per-registrable-domain DNS fault (first-party lookups only;
    /// third-party flakiness is part of the base model). Retrying cannot
    /// help, which is deliberate: it models persistent NXDOMAIN-style
    /// loss, the paper's main reason for dropped sites.
    pub fn dns_fault(&self, domain: &Domain) -> Option<DnsError> {
        if self.profile.dns_failure_rate == 0.0 {
            return None;
        }
        let reg = registrable_str(domain);
        let s = seed::derive(seed::derive(self.seed, "dns"), reg);
        (seed::unit_f64(s) < self.profile.dns_failure_rate).then(|| DnsError::Timeout {
            domain: reg.to_owned(),
        })
    }

    /// Per-exchange transient fault, keyed on `(url, now)`. A retried
    /// exchange arrives later (after backoff) and draws a fresh coin.
    pub fn exchange_fault(&self, url: &Url, now: Timestamp) -> Option<InjectedFault> {
        let p = &self.profile;
        let total = p.connection_reset_rate + p.server_error_rate + p.slow_response_rate;
        if total == 0.0 {
            return None;
        }
        let x = seed::unit_f64(self.exchange_seed("exchange", url, now));
        if x >= total {
            None
        } else if x < p.connection_reset_rate {
            Some(InjectedFault::ConnectionReset)
        } else if x < p.connection_reset_rate + p.server_error_rate {
            Some(InjectedFault::ServerError)
        } else {
            Some(InjectedFault::SlowResponse {
                after_ms: p.exchange_timeout_ms,
            })
        }
    }

    /// Should the attestation body served for this exchange arrive
    /// truncated? Only meaningful at the well-known path; transient like
    /// [`FaultPlan::exchange_fault`].
    pub fn truncate_attestation(&self, url: &Url, now: Timestamp) -> bool {
        if self.profile.attestation_truncation_rate == 0.0 || url.path() != ATTESTATION_PATH {
            return false;
        }
        seed::unit_f64(self.exchange_seed("attestation", url, now))
            < self.profile.attestation_truncation_rate
    }

    /// Campaign-level coin: is the browser's allow-list component
    /// download corrupt this campaign?
    pub fn corrupt_allow_list(&self) -> bool {
        self.profile.allow_list_corruption_rate > 0.0
            && seed::bernoulli(
                self.seed,
                "allow-list",
                self.profile.allow_list_corruption_rate,
            )
    }

    fn exchange_seed(&self, label: &str, url: &Url, now: Timestamp) -> u64 {
        seed::derive_idx(
            seed::derive(seed::derive(self.seed, label), &url.to_string()),
            now.millis(),
        )
    }
}

/// Counters for injected faults: `net_faults_injected_total{kind=…}`.
#[derive(Debug, Clone)]
pub struct FaultMetrics {
    dns: Counter,
    reset: Counter,
    server_error: Counter,
    timeout: Counter,
    truncated: Counter,
}

impl FaultMetrics {
    /// Resolve the handles in `registry`.
    pub fn new(registry: &MetricsRegistry) -> FaultMetrics {
        let c = |kind: &str| registry.labeled_counter("net_faults_injected_total", "kind", kind);
        FaultMetrics {
            dns: c("dns"),
            reset: c("reset"),
            server_error: c("server_error"),
            timeout: c("timeout"),
            truncated: c("truncated_body"),
        }
    }
}

/// A [`NetworkService`] decorator that injects the plan's faults in front
/// of an inner service. With an inert plan every call delegates verbatim,
/// so wrapping is free when faults are off.
pub struct FaultyService<'a, S: ?Sized> {
    inner: &'a S,
    plan: FaultPlan,
    metrics: Option<FaultMetrics>,
}

impl<'a, S: NetworkService + ?Sized> FaultyService<'a, S> {
    /// Wrap `inner` with `plan`.
    pub fn new(inner: &'a S, plan: FaultPlan) -> FaultyService<'a, S> {
        FaultyService {
            inner,
            plan,
            metrics: None,
        }
    }

    /// Count injected faults into a registry.
    pub fn with_metrics(mut self, metrics: FaultMetrics) -> FaultyService<'a, S> {
        self.metrics = Some(metrics);
        self
    }

    /// The plan driving this wrapper.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

/// Truncate a body roughly in half (on a char boundary), turning any
/// non-trivial JSON document into invalid JSON.
fn truncate_body(body: &mut String) {
    let mut cut = body.len() / 2;
    while cut > 0 && !body.is_char_boundary(cut) {
        cut -= 1;
    }
    body.truncate(cut);
}

impl<S: NetworkService + ?Sized> NetworkService for FaultyService<'_, S> {
    fn resolve_ranked(&self, domain: &Domain) -> Result<(), DnsError> {
        if let Some(e) = self.plan.dns_fault(domain) {
            if let Some(m) = &self.metrics {
                m.dns.inc();
            }
            return Err(e);
        }
        self.inner.resolve_ranked(domain)
    }

    fn resolve_third_party(&self, domain: &Domain) -> Result<(), DnsError> {
        self.inner.resolve_third_party(domain)
    }

    fn fetch(&self, request: &HttpRequest, now: Timestamp) -> Result<HttpResponse, NetError> {
        match self.plan.exchange_fault(&request.url, now) {
            Some(InjectedFault::ConnectionReset) => {
                if let Some(m) = &self.metrics {
                    m.reset.inc();
                }
                Err(NetError::ConnectionReset {
                    host: request.url.host().as_str().to_owned(),
                })
            }
            Some(InjectedFault::ServerError) => {
                if let Some(m) = &self.metrics {
                    m.server_error.inc();
                }
                Ok(HttpResponse::server_error("injected fault: server error"))
            }
            Some(InjectedFault::SlowResponse { after_ms }) => {
                if let Some(m) = &self.metrics {
                    m.timeout.inc();
                }
                Err(NetError::TimedOut {
                    url: request.url.to_string(),
                    after_ms,
                })
            }
            None => {
                let mut response = self.inner.fetch(request, now)?;
                if response.status.is_success() && self.plan.truncate_attestation(&request.url, now)
                {
                    truncate_body(&mut response.body);
                    if let Some(m) = &self.metrics {
                        m.truncated.inc();
                    }
                }
                Ok(response)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{ResourceKind, StatusCode};
    use crate::wellknown::{attestation_url, AttestationError, AttestationFile};

    fn d(s: &str) -> Domain {
        Domain::parse(s).unwrap()
    }

    /// An always-healthy inner service serving a fixed body everywhere.
    struct Healthy;
    impl NetworkService for Healthy {
        fn resolve_ranked(&self, _d: &Domain) -> Result<(), DnsError> {
            Ok(())
        }
        fn resolve_third_party(&self, _d: &Domain) -> Result<(), DnsError> {
            Ok(())
        }
        fn fetch(&self, req: &HttpRequest, _now: Timestamp) -> Result<HttpResponse, NetError> {
            if req.url.path() == ATTESTATION_PATH {
                let f = AttestationFile::for_topics(req.url.host(), Timestamp::from_days(30), true);
                Ok(HttpResponse::ok("application/json", f.to_json()))
            } else {
                Ok(HttpResponse::ok("text/html", "<html></html>"))
            }
        }
    }

    fn req(url: &str) -> HttpRequest {
        HttpRequest::get(Url::parse(url).unwrap(), ResourceKind::Document)
    }

    #[test]
    fn profile_parsing() {
        assert!(FaultProfile::parse("off").unwrap().is_off());
        assert_eq!(FaultProfile::parse("light").unwrap(), FaultProfile::light());
        assert_eq!(FaultProfile::parse("heavy").unwrap(), FaultProfile::heavy());
        assert_eq!(
            FaultProfile::parse("0.1").unwrap(),
            FaultProfile::uniform(0.1)
        );
        assert!(FaultProfile::parse("2.0").is_err());
        assert!(FaultProfile::parse("chaotic").is_err());
    }

    #[test]
    fn inert_plan_delegates_verbatim() {
        let plan = FaultPlan::new(FaultProfile::off(), 1);
        assert!(!plan.is_active());
        let svc = FaultyService::new(&Healthy, plan);
        assert!(svc.resolve_ranked(&d("site.com")).is_ok());
        let r = svc
            .fetch(&req("https://site.com/"), Timestamp::ORIGIN)
            .unwrap();
        assert_eq!(r.status, StatusCode::Ok);
        assert_eq!(r.body, "<html></html>");
        let a = svc
            .fetch(
                &req(&attestation_url(&d("site.com")).to_string()),
                Timestamp::ORIGIN,
            )
            .unwrap();
        assert!(AttestationFile::parse_and_validate(&a.body).is_ok());
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::new(FaultProfile::uniform(0.3), 7);
        let b = FaultPlan::new(FaultProfile::uniform(0.3), 7);
        let c = FaultPlan::new(FaultProfile::uniform(0.3), 8);
        let mut agree = 0;
        let mut differ = 0;
        for i in 0..500u64 {
            let url = Url::parse(&format!("https://s{i}.com/p")).unwrap();
            let t = Timestamp::from_days(i);
            assert_eq!(a.exchange_fault(&url, t), b.exchange_fault(&url, t));
            assert_eq!(
                a.dns_fault(&d(&format!("s{i}.com"))),
                b.dns_fault(&d(&format!("s{i}.com")))
            );
            if a.exchange_fault(&url, t) == c.exchange_fault(&url, t) {
                agree += 1;
            } else {
                differ += 1;
            }
        }
        assert!(
            differ > 0,
            "different fault seeds must differ ({agree} agreements)"
        );
    }

    #[test]
    fn dns_faults_are_sticky_per_registrable_domain() {
        let plan = FaultPlan::new(FaultProfile::uniform(0.5), 3);
        let mut dead = 0;
        for i in 0..400 {
            let base = d(&format!("host{i}.org"));
            let www = d(&format!("www.host{i}.org"));
            assert_eq!(
                plan.dns_fault(&base).is_some(),
                plan.dns_fault(&www).is_some()
            );
            if plan.dns_fault(&base).is_some() {
                dead += 1;
            }
        }
        assert!((120..=280).contains(&dead), "rate off: {dead}/400");
    }

    #[test]
    fn retried_exchanges_draw_fresh_coins() {
        // At 50% per-exchange rate, the same URL must both fault and
        // succeed across nearby simulated instants — time is the retry
        // axis.
        let plan = FaultPlan::new(FaultProfile::uniform(0.5), 11);
        let url = Url::parse("https://flaky.com/x").unwrap();
        let outcomes: Vec<bool> = (0..50u64)
            .map(|ms| {
                plan.exchange_fault(&url, Timestamp::ORIGIN.plus_millis(ms * 311))
                    .is_some()
            })
            .collect();
        assert!(outcomes.iter().any(|&f| f) && outcomes.iter().any(|&f| !f));
    }

    #[test]
    fn injected_faults_surface_as_errors_and_counters() {
        let registry = MetricsRegistry::new();
        let plan = FaultPlan::new(FaultProfile::uniform(0.4), 5);
        let svc = FaultyService::new(&Healthy, plan).with_metrics(FaultMetrics::new(&registry));
        let mut resets = 0;
        let mut errors_500 = 0;
        let mut timeouts = 0;
        for i in 0..600u64 {
            let r = svc.fetch(
                &req(&format!("https://s{i}.com/page")),
                Timestamp::from_days(i % 30),
            );
            match r {
                Err(NetError::ConnectionReset { .. }) => resets += 1,
                Err(NetError::TimedOut { after_ms, .. }) => {
                    assert_eq!(after_ms, DEFAULT_EXCHANGE_TIMEOUT_MS);
                    timeouts += 1;
                }
                Ok(resp) if resp.status == StatusCode::InternalServerError => errors_500 += 1,
                Ok(_) => {}
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(resets > 0 && errors_500 > 0 && timeouts > 0);
        let s = registry.snapshot();
        assert_eq!(
            s.counter("net_faults_injected_total{kind=\"reset\"}"),
            resets
        );
        assert_eq!(
            s.counter("net_faults_injected_total{kind=\"server_error\"}"),
            errors_500
        );
        assert_eq!(
            s.counter("net_faults_injected_total{kind=\"timeout\"}"),
            timeouts
        );
    }

    #[test]
    fn attestation_truncation_yields_malformed_json() {
        let profile = FaultProfile {
            attestation_truncation_rate: 0.9,
            ..FaultProfile::off()
        };
        let plan = FaultPlan::new(profile, 13);
        let svc = FaultyService::new(&Healthy, plan);
        let mut truncated = 0;
        for i in 0..50u64 {
            let url = attestation_url(&d(&format!("party{i}.com")));
            let resp = svc
                .fetch(
                    &HttpRequest::get(url, ResourceKind::WellKnown),
                    Timestamp::from_days(i),
                )
                .unwrap();
            match AttestationFile::parse_and_validate(&resp.body) {
                Err(AttestationError::Malformed) => truncated += 1,
                Ok(_) => {}
                Err(e) => panic!("unexpected validation error {e}"),
            }
        }
        assert!(truncated > 0, "0.9 truncation rate never fired");
    }

    #[test]
    fn allow_list_corruption_is_a_campaign_level_coin() {
        let on = FaultPlan::new(FaultProfile::uniform(1.0), 1);
        assert!(on.corrupt_allow_list());
        let off = FaultPlan::new(FaultProfile::off(), 1);
        assert!(!off.corrupt_allow_list());
        // Deterministic per seed.
        let p = FaultProfile::uniform(0.5);
        for fault_seed in 0..20 {
            let a = FaultPlan::new(p.clone(), fault_seed).corrupt_allow_list();
            let b = FaultPlan::new(p.clone(), fault_seed).corrupt_allow_list();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn truncate_body_respects_char_boundaries() {
        let mut s = "ééééé".to_owned();
        truncate_body(&mut s);
        assert!(s.len() < 10);
        let mut empty = String::new();
        truncate_body(&mut empty);
        assert!(empty.is_empty());
    }
}
