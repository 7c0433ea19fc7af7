//! The boundary between clients (browser, crawler) and the simulated web.
//!
//! `topics-webgen`'s `World` implements [`NetworkService`]; the browser's
//! page loader and the crawler's well-known prober only ever talk to this
//! trait, so tests can substitute tiny hand-built services.

use crate::clock::Timestamp;
use crate::dns::DnsError;
use crate::domain::Domain;
use crate::error::NetError;
use crate::http::{HttpRequest, HttpResponse};
use crate::metrics::NetMetrics;
use crate::seed;
use crate::url::Url;
use topics_obs::{TraceBuilder, Word};

/// A simulated web: name resolution plus request handling.
pub trait NetworkService {
    /// Resolve a ranked (first-party) site. Failure aborts the visit.
    fn resolve_ranked(&self, domain: &Domain) -> Result<(), DnsError>;

    /// Resolve a third-party host.
    fn resolve_third_party(&self, domain: &Domain) -> Result<(), DnsError>;

    /// Handle one HTTP exchange at simulated time `now`.
    fn fetch(&self, request: &HttpRequest, now: Timestamp) -> Result<HttpResponse, NetError>;
}

/// Maximum redirect hops before giving up, matching browser defaults.
pub const MAX_REDIRECTS: usize = 10;

/// Bounded retry with exponential backoff and deterministic jitter.
///
/// Backoff delays are *simulated* milliseconds: a retried exchange is
/// issued at `now + accumulated delay` on the simulated clock, so retries
/// cost simulated page-load time (and draw fresh fault coins from the
/// fault layer) while runs stay byte-for-byte reproducible. Jitter is
/// derived from the request URL and attempt number — no wall clock, no
/// global RNG.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts including the first (1 = never retry).
    pub max_attempts: u32,
    /// Delay before the first retry, doubled each further retry.
    pub base_delay_ms: u64,
    /// Cap on a single backoff delay.
    pub max_delay_ms: u64,
    /// Jitter as a fraction of the delay (0 = none, 0.5 = ±25%).
    pub jitter: f64,
}

impl RetryPolicy {
    /// Never retry; zero added latency. This is the default everywhere —
    /// campaigns only enable retries when a fault profile is active, so
    /// the retry layer is provably zero-cost when faults are off.
    pub const fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_delay_ms: 0,
            max_delay_ms: 0,
            jitter: 0.0,
        }
    }

    /// The campaign default under an active fault profile: three attempts,
    /// 250 ms base delay, 4 s cap, ±25% jitter.
    pub const fn standard() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_delay_ms: 250,
            max_delay_ms: 4_000,
            jitter: 0.5,
        }
    }

    /// True when this policy never retries.
    pub fn is_none(&self) -> bool {
        self.max_attempts <= 1
    }

    /// Backoff delay after `failed_attempt` (1-based) fails, with
    /// deterministic jitter drawn from `key`.
    pub fn backoff_ms(&self, failed_attempt: u32, key: u64) -> u64 {
        let shift = failed_attempt.saturating_sub(1).min(16);
        let exp = self
            .base_delay_ms
            .saturating_mul(1u64 << shift)
            .min(self.max_delay_ms);
        if self.jitter <= 0.0 || exp == 0 {
            return exp;
        }
        let span = (exp as f64 * self.jitter).round() as u64;
        let u = seed::unit_f64(seed::derive_idx(key, u64::from(failed_attempt)));
        exp - span / 2 + (u * span as f64) as u64
    }
}

/// What the retry layer did for one logical fetch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Retry attempts issued beyond the first try.
    pub retries: u32,
    /// Simulated milliseconds spent waiting: backoff delays plus time
    /// burned on injected slow responses.
    pub waited_ms: u64,
}

impl RetryStats {
    /// Fold another fetch's stats into this one.
    pub fn absorb(&mut self, other: RetryStats) {
        self.retries += other.retries;
        self.waited_ms += other.waited_ms;
    }
}

/// Issue one HTTP exchange, retrying transient failures (connection
/// resets, timeouts, HTTP 5xx) under `policy`. Each retry is issued at
/// `now + waited_ms` on the simulated clock. The final attempt's result
/// is returned as-is — an exhausted 5xx stays an `Ok` response, matching
/// how pathological always-500 sites behave without retries. With
/// `trace`, every retry adds a `retry` leaf span covering the backoff
/// window on the simulated clock, with the host, 1-based failed
/// attempt, backoff delay, and the failure kind that triggered it.
pub fn fetch_exchange_traced<S: NetworkService + ?Sized>(
    service: &S,
    request: &HttpRequest,
    now: Timestamp,
    policy: &RetryPolicy,
    metrics: Option<&NetMetrics>,
    mut trace: Option<&mut TraceBuilder>,
) -> (Result<HttpResponse, NetError>, RetryStats) {
    let key = seed::derive_idx(
        seed::fnv1a(request.url.to_string().as_bytes()),
        now.millis(),
    );
    let mut stats = RetryStats::default();
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let result = service.fetch(request, now.plus_millis(stats.waited_ms));
        if let Err(NetError::TimedOut { after_ms, .. }) = &result {
            // The client sat through the timeout before giving up.
            stats.waited_ms += after_ms;
        }
        let transient = match &result {
            Ok(r) => r.status.is_server_error(),
            Err(e) => e.is_transient(),
        };
        if !transient || attempt >= policy.max_attempts {
            if transient && !policy.is_none() {
                if let Some(m) = metrics {
                    m.record_retries_exhausted();
                }
            }
            return (result, stats);
        }
        stats.retries += 1;
        if let Some(m) = metrics {
            m.record_retry();
        }
        let backoff = policy.backoff_ms(attempt, key);
        if let Some(tb) = trace.as_deref_mut() {
            let failed_at = now.millis() + stats.waited_ms;
            let span = tb.leaf(Word::Retry, Some(failed_at), Some(failed_at + backoff));
            tb.field(span, Word::Host, request.url.host());
            tb.field(span, Word::Attempt, u64::from(attempt));
            tb.field(span, Word::BackoffMs, backoff);
            let cause = match &result {
                Ok(_) => Word::Http5xx,
                Err(e) => e.kind(),
            };
            tb.field(span, Word::Cause, cause);
        }
        stats.waited_ms += backoff;
    }
}

/// The outcome of following a redirect chain.
#[derive(Debug, Clone)]
pub struct FetchOutcome {
    /// The final URL after redirects.
    pub final_url: Url,
    /// Every URL visited, in order, including the final one.
    pub chain: Vec<Url>,
    /// The final (non-redirect) response.
    pub response: HttpResponse,
}

impl FetchOutcome {
    /// Number of redirect hops taken.
    pub fn hops(&self) -> usize {
        self.chain.len() - 1
    }
}

/// Issue `request` and follow redirects (up to [`MAX_REDIRECTS`]),
/// resolving each new host as a third party, with per-hop bounded retry
/// and `retry` span emission (see [`fetch_exchange_traced`]). Stats are
/// returned even when the chain ultimately fails, so callers can account
/// for simulated time spent on retries.
///
/// The browser fetches every subresource through this.
pub fn fetch_following_redirects_traced<S: NetworkService + ?Sized>(
    service: &S,
    mut request: HttpRequest,
    now: Timestamp,
    policy: &RetryPolicy,
    metrics: Option<&NetMetrics>,
    mut trace: Option<&mut TraceBuilder>,
) -> (Result<FetchOutcome, NetError>, RetryStats) {
    let mut chain = vec![request.url.clone()];
    let mut total = RetryStats::default();
    loop {
        let (result, stats) = fetch_exchange_traced(
            service,
            &request,
            now.plus_millis(total.waited_ms),
            policy,
            metrics,
            trace.as_deref_mut(),
        );
        total.absorb(stats);
        let response = match result {
            Ok(r) => r,
            Err(e) => return (Err(e), total),
        };
        if !response.status.is_redirect() {
            return (
                Ok(FetchOutcome {
                    final_url: request.url,
                    chain,
                    response,
                }),
                total,
            );
        }
        let location = match response.location() {
            Some(l) => l,
            None => {
                return (
                    Err(NetError::BadRedirect {
                        url: request.url.to_string(),
                    }),
                    total,
                )
            }
        };
        let next = match request.url.join(location) {
            Ok(u) => u,
            Err(e) => return (Err(e), total),
        };
        if chain.len() > MAX_REDIRECTS {
            return (
                Err(NetError::TooManyRedirects {
                    url: next.to_string(),
                    hops: chain.len(),
                }),
                total,
            );
        }
        if next.host() != request.url.host() {
            if let Err(e) = service.resolve_third_party(next.host()) {
                return (Err(e.into()), total);
            }
        }
        chain.push(next.clone());
        request.url = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{Method, ResourceKind, StatusCode};

    /// Follow redirects with no retries and no trace.
    fn fetch_following_redirects<S: NetworkService + ?Sized>(
        service: &S,
        request: HttpRequest,
        now: Timestamp,
    ) -> Result<FetchOutcome, NetError> {
        fetch_following_redirects_traced(service, request, now, &RetryPolicy::none(), None, None).0
    }

    /// A toy service: `/hop{n}` redirects to `/hop{n+1}` until `limit`,
    /// then serves a body.
    struct HopService {
        limit: usize,
    }

    impl NetworkService for HopService {
        fn resolve_ranked(&self, _d: &Domain) -> Result<(), DnsError> {
            Ok(())
        }
        fn resolve_third_party(&self, d: &Domain) -> Result<(), DnsError> {
            if d.as_str() == "dead.example" {
                Err(DnsError::NameError {
                    domain: d.as_str().to_owned(),
                })
            } else {
                Ok(())
            }
        }
        fn fetch(&self, req: &HttpRequest, _now: Timestamp) -> Result<HttpResponse, NetError> {
            let n: usize = req
                .url
                .path()
                .strip_prefix("/hop")
                .and_then(|s| s.parse().ok())
                .unwrap_or(0);
            if n >= self.limit {
                Ok(HttpResponse::ok("text/plain", format!("arrived at {n}")))
            } else {
                let next = req.url.with_path(&format!("/hop{}", n + 1));
                Ok(HttpResponse::redirect(&next))
            }
        }
    }

    fn req(path: &str) -> HttpRequest {
        HttpRequest {
            method: Method::Get,
            url: Url::parse(&format!("https://a.com{path}")).unwrap(),
            headers: Default::default(),
            kind: ResourceKind::Document,
            body: None,
            vantage: Default::default(),
        }
    }

    #[test]
    fn follows_short_chain() {
        let svc = HopService { limit: 3 };
        let out = fetch_following_redirects(&svc, req("/hop0"), Timestamp::ORIGIN).unwrap();
        assert_eq!(out.hops(), 3);
        assert_eq!(out.final_url.path(), "/hop3");
        assert_eq!(out.response.status, StatusCode::Ok);
        assert_eq!(out.response.body, "arrived at 3");
    }

    #[test]
    fn aborts_long_chain() {
        let svc = HopService { limit: 100 };
        let err = fetch_following_redirects(&svc, req("/hop0"), Timestamp::ORIGIN).unwrap_err();
        assert!(matches!(err, NetError::TooManyRedirects { .. }));
    }

    #[test]
    fn cross_host_redirect_resolves_target() {
        struct CrossService;
        impl NetworkService for CrossService {
            fn resolve_ranked(&self, _d: &Domain) -> Result<(), DnsError> {
                Ok(())
            }
            fn resolve_third_party(&self, d: &Domain) -> Result<(), DnsError> {
                if d.as_str() == "dead.example" {
                    Err(DnsError::Timeout {
                        domain: d.as_str().into(),
                    })
                } else {
                    Ok(())
                }
            }
            fn fetch(&self, req: &HttpRequest, _n: Timestamp) -> Result<HttpResponse, NetError> {
                if req.url.host().as_str() == "a.com" {
                    Ok(HttpResponse::redirect(
                        &Url::parse("https://dead.example/x").unwrap(),
                    ))
                } else {
                    Ok(HttpResponse::ok("text/plain", "hi"))
                }
            }
        }
        let err =
            fetch_following_redirects(&CrossService, req("/"), Timestamp::ORIGIN).unwrap_err();
        assert!(matches!(err, NetError::Dns(DnsError::Timeout { .. })));
    }

    /// Fails with transient errors until the simulated clock passes
    /// `healthy_after_ms` — retries (which advance simulated time via
    /// backoff) eventually get through.
    struct FlakyUntil {
        healthy_after_ms: u64,
        error_500: bool,
    }

    impl NetworkService for FlakyUntil {
        fn resolve_ranked(&self, _d: &Domain) -> Result<(), DnsError> {
            Ok(())
        }
        fn resolve_third_party(&self, _d: &Domain) -> Result<(), DnsError> {
            Ok(())
        }
        fn fetch(&self, r: &HttpRequest, now: Timestamp) -> Result<HttpResponse, NetError> {
            if now.millis() >= self.healthy_after_ms {
                Ok(HttpResponse::ok("text/plain", "recovered"))
            } else if self.error_500 {
                Ok(HttpResponse::server_error("injected"))
            } else {
                Err(NetError::ConnectionReset {
                    host: r.url.host().as_str().to_owned(),
                })
            }
        }
    }

    #[test]
    fn retry_recovers_from_transient_resets_and_5xx() {
        use crate::metrics::NetMetrics;
        use topics_obs::MetricsRegistry;
        for error_500 in [false, true] {
            let svc = FlakyUntil {
                healthy_after_ms: 100,
                error_500,
            };
            let registry = MetricsRegistry::new();
            let m = NetMetrics::new(&registry);
            let (result, stats) = fetch_exchange_traced(
                &svc,
                &req("/x"),
                Timestamp::ORIGIN,
                &RetryPolicy::standard(),
                Some(&m),
                None,
            );
            let response = result.unwrap();
            assert_eq!(response.body, "recovered");
            assert!(stats.retries >= 1);
            assert!(stats.waited_ms >= 100);
            let s = registry.snapshot();
            assert_eq!(s.counter("net_retries_total"), u64::from(stats.retries));
            assert_eq!(s.counter("net_retries_exhausted_total"), 0);
        }
    }

    #[test]
    fn retry_budget_is_bounded_and_exhaustion_is_counted() {
        use crate::metrics::NetMetrics;
        use topics_obs::MetricsRegistry;
        let svc = FlakyUntil {
            healthy_after_ms: u64::MAX,
            error_500: false,
        };
        let registry = MetricsRegistry::new();
        let m = NetMetrics::new(&registry);
        let policy = RetryPolicy::standard();
        let (result, stats) =
            fetch_exchange_traced(&svc, &req("/x"), Timestamp::ORIGIN, &policy, Some(&m), None);
        assert!(matches!(result, Err(NetError::ConnectionReset { .. })));
        assert_eq!(stats.retries, policy.max_attempts - 1);
        let s = registry.snapshot();
        assert_eq!(s.counter("net_retries_exhausted_total"), 1);
        assert!(s.counter("net_retries_total") >= s.counter("net_retries_exhausted_total"));
    }

    #[test]
    fn none_policy_is_a_single_attempt_with_no_delay() {
        let svc = FlakyUntil {
            healthy_after_ms: u64::MAX,
            error_500: true,
        };
        let (result, stats) = fetch_exchange_traced(
            &svc,
            &req("/x"),
            Timestamp::ORIGIN,
            &RetryPolicy::none(),
            None,
            None,
        );
        assert!(result.unwrap().status.is_server_error());
        assert_eq!(stats, RetryStats::default());
    }

    #[test]
    fn injected_timeouts_cost_simulated_waiting_time() {
        struct AlwaysSlow;
        impl NetworkService for AlwaysSlow {
            fn resolve_ranked(&self, _d: &Domain) -> Result<(), DnsError> {
                Ok(())
            }
            fn resolve_third_party(&self, _d: &Domain) -> Result<(), DnsError> {
                Ok(())
            }
            fn fetch(&self, r: &HttpRequest, _n: Timestamp) -> Result<HttpResponse, NetError> {
                Err(NetError::TimedOut {
                    url: r.url.to_string(),
                    after_ms: 10_000,
                })
            }
        }
        let (result, stats) = fetch_exchange_traced(
            &AlwaysSlow,
            &req("/x"),
            Timestamp::ORIGIN,
            &RetryPolicy::standard(),
            None,
            None,
        );
        assert!(matches!(result, Err(NetError::TimedOut { .. })));
        // Three attempts sat through three timeouts plus two backoffs.
        assert!(stats.waited_ms >= 30_000);
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_grows() {
        let p = RetryPolicy::standard();
        for key in 0..50u64 {
            let d1 = p.backoff_ms(1, key);
            let d2 = p.backoff_ms(2, key);
            assert_eq!(d1, p.backoff_ms(1, key), "deterministic per (key, attempt)");
            // ±25% jitter around 250 and 500 ms.
            assert!((187..=313).contains(&d1), "d1={d1}");
            assert!((375..=625).contains(&d2), "d2={d2}");
        }
        // The cap binds for late attempts.
        assert!(p.backoff_ms(10, 3) <= p.max_delay_ms + p.max_delay_ms / 2);
        assert_eq!(RetryPolicy::none().backoff_ms(1, 3), 0);
    }

    #[test]
    fn retrying_redirect_follower_reports_stats_on_failure() {
        struct DeadEnd;
        impl NetworkService for DeadEnd {
            fn resolve_ranked(&self, _d: &Domain) -> Result<(), DnsError> {
                Ok(())
            }
            fn resolve_third_party(&self, _d: &Domain) -> Result<(), DnsError> {
                Ok(())
            }
            fn fetch(&self, r: &HttpRequest, _n: Timestamp) -> Result<HttpResponse, NetError> {
                Err(NetError::ConnectionReset {
                    host: r.url.host().as_str().to_owned(),
                })
            }
        }
        let (result, stats) = fetch_following_redirects_traced(
            &DeadEnd,
            req("/x"),
            Timestamp::ORIGIN,
            &RetryPolicy::standard(),
            None,
            None,
        );
        assert!(matches!(result, Err(NetError::ConnectionReset { .. })));
        assert_eq!(stats.retries, RetryPolicy::standard().max_attempts - 1);
        assert!(stats.waited_ms > 0);
    }

    #[test]
    fn redirect_without_location_is_an_error() {
        struct Broken;
        impl NetworkService for Broken {
            fn resolve_ranked(&self, _d: &Domain) -> Result<(), DnsError> {
                Ok(())
            }
            fn resolve_third_party(&self, _d: &Domain) -> Result<(), DnsError> {
                Ok(())
            }
            fn fetch(&self, _r: &HttpRequest, _n: Timestamp) -> Result<HttpResponse, NetError> {
                Ok(HttpResponse {
                    status: StatusCode::Found,
                    headers: Default::default(),
                    body: String::new(),
                })
            }
        }
        let err = fetch_following_redirects(&Broken, req("/"), Timestamp::ORIGIN).unwrap_err();
        assert!(matches!(err, NetError::BadRedirect { .. }));
    }
}
