//! The measurement campaign: crawl every ranked site, then probe
//! attestations.
//!
//! Reproduces §2.2–2.4: the crawl starts March 30th, 2024, covers the
//! Tranco top list in about one day, runs with the Topics API opted in
//! and the browser's attestation allow-list **corrupted on purpose** so
//! non-enrolled callers are observable, and afterwards probes the
//! `/.well-known/privacy-sandbox-attestations.json` of every encountered
//! party (plus every allow-listed domain) to assign the *Attested* label.

use crate::metrics::CrawlMetrics;
use crate::record::{
    AttestationInfo, AttestationProbe, CampaignOutcome, SiteOutcome, CAMPAIGN_SCHEMA_VERSION,
};
use crate::visit::{run_site, ConsentAction, VisitPolicy, DEFAULT_VISIT_TIMEOUT_MS};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};
use topics_browser::attestation::{AttestationStore, EnforcementMode};
use topics_net::clock::Timestamp;
use topics_net::domain::Domain;
use topics_net::fault::{FaultMetrics, FaultPlan, FaultProfile, FaultyService};
use topics_net::http::{HttpRequest, ResourceKind};
use topics_net::metrics::NetMetrics;
use topics_net::pool;
use topics_net::seed;
use topics_net::service::{NetworkService, RetryPolicy};
use topics_net::url::Url;
use topics_net::wellknown::{attestation_url, AttestationError, AttestationFile};
use topics_obs::alloc::{AllocDelta, AllocSpan};
use topics_obs::{Obs, PhaseGuard, TraceBuilder, Tracer, Word};
use topics_taxonomy::Classifier;

/// The crawl start: 2024-03-30, i.e. day 303 of the simulation
/// (origin 2023-06-01).
pub const CRAWL_START_DAY: u64 = topics_net::clock::CRAWL_START_DAY;

/// The paper's attestation snapshot date: June 6th, 2024 (day 371).
pub const ATTESTATION_SNAPSHOT_DAY: u64 = 371;

/// How the crawler's browser is configured with respect to the
/// attestation allow-list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllowListSetup {
    /// The paper's setup: the local list is corrupted and the (buggy)
    /// browser fails open, executing every call.
    CorruptedFailOpen,
    /// A stock browser with a healthy allow-list: non-enrolled calls are
    /// blocked (they still appear in our instrumentation, marked
    /// blocked).
    Healthy,
    /// The fixed browser with a corrupted list: everything is blocked
    /// (ablation).
    CorruptedFailClosed,
}

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Allow-list setup (the paper uses `CorruptedFailOpen`).
    pub allow_list: AllowListSetup,
    /// Worker threads for the crawl and the attestation probe; the
    /// campaign is byte-identical for every value.
    pub threads: usize,
    /// Milliseconds of simulated time between consecutive site starts
    /// (the paper's crawl covers 50k sites in about one day ⇒ ~1.7s).
    pub per_site_interval_ms: u64,
    /// Crawl start time.
    pub start: Timestamp,
    /// What to do with recognised banners (the paper accepts; the
    /// opt-out extension rejects).
    pub consent_action: ConsentAction,
    /// Where the crawler connects from (the paper: Europe).
    pub vantage: topics_net::http::Vantage,
    /// Fault-injection profile; [`FaultProfile::off`] (the default)
    /// keeps the campaign byte-identical to a build without the layer.
    pub fault: FaultProfile,
    /// Seed for the fault plan; `None` derives one from the campaign
    /// seed so faults are reproducible without extra configuration.
    pub fault_seed: Option<u64>,
    /// Per-exchange retry policy. Only honoured while the fault profile
    /// is active — with faults off the crawler never retries, which is
    /// what makes the fault layer provably zero-cost when disabled.
    pub retry: RetryPolicy,
    /// Per-visit simulated time budget (see
    /// [`DEFAULT_VISIT_TIMEOUT_MS`]).
    pub visit_timeout_ms: u64,
    /// Memoise probe results across campaigns in this process (keyed by
    /// world fingerprint, probe time, and domain). Off by default so a
    /// fresh process and a warm one report identical live metrics;
    /// benches, ablations, and `run_repeated` drivers opt in.
    pub probe_cache: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            allow_list: AllowListSetup::CorruptedFailOpen,
            threads: pool::available_workers(),
            per_site_interval_ms: 1_728, // 86,400,000 ms / 50,000 sites
            start: Timestamp::from_days(CRAWL_START_DAY),
            consent_action: ConsentAction::Accept,
            vantage: topics_net::http::Vantage::Europe,
            fault: FaultProfile::off(),
            fault_seed: None,
            retry: RetryPolicy::standard(),
            visit_timeout_ms: DEFAULT_VISIT_TIMEOUT_MS,
            probe_cache: false,
        }
    }
}

impl CampaignConfig {
    /// The fault plan this campaign runs under.
    pub fn fault_plan(&self, campaign_seed: u64) -> FaultPlan {
        let fault_seed = self
            .fault_seed
            .unwrap_or_else(|| seed::derive(campaign_seed, "faults"));
        FaultPlan::new(self.fault.clone(), fault_seed)
    }

    /// The per-visit policy implied by the fault plan: retries are only
    /// enabled when faults can actually occur.
    pub fn visit_policy(&self, plan: &FaultPlan) -> VisitPolicy {
        VisitPolicy {
            retry: if plan.is_active() {
                self.retry
            } else {
                RetryPolicy::none()
            },
            visit_timeout_ms: self.visit_timeout_ms,
        }
    }
}

/// A simulated web the campaign can run against: the crawl needs the
/// network service plus the ranked target list and the allow-list the
/// browser component updater would have downloaded.
pub trait CrawlTarget: NetworkService + Sync {
    /// The ranked URLs to visit, in rank order.
    fn targets(&self) -> Vec<Url>;
    /// The domains on the current attestation allow-list.
    fn allow_list_snapshot(&self) -> Vec<Domain>;
    /// The campaign seed (drives per-profile seeds and A/B keys).
    fn campaign_seed(&self) -> u64;
    /// A fingerprint identifying the served content, or `None` if the
    /// target cannot guarantee two instances with the same fingerprint
    /// serve identical responses. Only targets returning `Some` can
    /// participate in the process-wide probe memo cache.
    fn probe_cache_key(&self) -> Option<u64> {
        None
    }
}

impl CrawlTarget for topics_webgen::World {
    fn targets(&self) -> Vec<Url> {
        self.tranco_list()
    }
    fn allow_list_snapshot(&self) -> Vec<Domain> {
        self.allow_list()
    }
    fn campaign_seed(&self) -> u64 {
        self.seed()
    }
    fn probe_cache_key(&self) -> Option<u64> {
        Some(self.fingerprint())
    }
}

/// Attribute a measured allocation delta to a builder span. Nothing is
/// attached for an empty delta (counting disabled), and the stripped
/// trace view drops these fields regardless, so same-seed traces stay
/// byte-identical whether or not instrumentation ran.
fn attribute_alloc(tb: &mut TraceBuilder, idx: usize, delta: &AllocDelta) {
    if delta.is_zero() {
        return;
    }
    tb.field(idx, Word::AllocBytes, delta.alloc_bytes);
    tb.field(idx, Word::AllocCount, delta.alloc_count);
    tb.field(idx, Word::PeakBytes, delta.peak_bytes);
}

/// Open campaign phase `name` on `obs` ([`Obs::phase`]) and set its
/// `phase_workers` gauge.
fn open_phase<'o>(obs: Option<&'o Obs>, name: Word, threads: usize) -> Option<PhaseGuard<'o>> {
    obs.map(|o| {
        o.metrics
            .labeled_gauge("phase_workers", "phase", name.as_str())
            .set(threads as i64);
        o.phase(name)
    })
}

/// Attach each unit's span tree in job order, then the pool's worker
/// spans, set `fields`, and close the phase. Its simulated bounds run
/// from `sim_start` to the latest unit end.
fn close_phase(
    phase: Option<PhaseGuard<'_>>,
    units: Vec<Option<TraceBuilder>>,
    workers: Vec<TraceBuilder>,
    sim_start: u64,
    fields: &[(Word, usize)],
) {
    let Some(mut phase) = phase else {
        return;
    };
    let mut sim_end = sim_start;
    for tb in units.into_iter().flatten() {
        sim_end = sim_end.max(tb.max_sim_end().unwrap_or(sim_end));
        phase.attach(tb);
    }
    for tb in workers {
        phase.attach(tb);
    }
    for &(key, value) in fields {
        phase.field(key, value);
    }
    phase.end(sim_start, sim_end);
}

/// Build the browser-side attestation store for a setup.
pub fn build_store(setup: AllowListSetup, allow_list: &[Domain]) -> AttestationStore {
    match setup {
        AllowListSetup::CorruptedFailOpen => AttestationStore::corrupted(),
        AllowListSetup::Healthy => AttestationStore::healthy(allow_list.iter().cloned()),
        AllowListSetup::CorruptedFailClosed => {
            AttestationStore::corrupted().with_mode(EnforcementMode::FailClosed)
        }
    }
}

/// Run the full campaign.
pub fn run_campaign<W: CrawlTarget + ?Sized>(
    world: &W,
    config: &CampaignConfig,
) -> CampaignOutcome {
    run_campaign_observed(world, config, None, |_done, _total| {})
}

/// [`run_campaign`] with observability attached: live crawl counters,
/// browser-level network and Topics-call series, and the `crawl` /
/// `attestation-probe` phases ([`Obs::phase`]: wall-time, worker and
/// allocation gauges, plus per-visit and per-probe spans when tracing).
/// `progress` is invoked roughly every 500 completed sites with
/// `(done, total)` (from whichever worker crosses the boundary — counts
/// are monotone but not strictly sequential).
pub fn run_campaign_observed<W, F>(
    world: &W,
    config: &CampaignConfig,
    obs: Option<&Obs>,
    progress: F,
) -> CampaignOutcome
where
    W: CrawlTarget + ?Sized,
    F: Fn(usize, usize) + Sync,
{
    run_campaign_inner(world, config, None, obs, progress)
}

/// Run one rank stripe of the campaign — the shard body.
///
/// The stripe only restricts which sites are *visited*: ranks, visit
/// start times, the crawl-end timestamp and hence the probe time are
/// all derived from the **global** target list, so every per-site
/// record (and every probe result) is byte-identical to the one the
/// unsharded run produces for the same rank. The probe set is the
/// allow-list plus the parties this stripe actually encountered; since
/// probe results are pure functions of `(domain, probe_time)` under a
/// shared fault seed, segments from disjoint stripes merge back into
/// the single-process outcome (see `crate::shard`).
///
/// # Panics
///
/// Panics if `stripe` is not contained in `0..targets.len()`.
pub fn run_campaign_stripe<W, F>(
    world: &W,
    config: &CampaignConfig,
    stripe: std::ops::Range<usize>,
    obs: Option<&Obs>,
    progress: F,
) -> CampaignOutcome
where
    W: CrawlTarget + ?Sized,
    F: Fn(usize, usize) + Sync,
{
    run_campaign_inner(world, config, Some(stripe), obs, progress)
}

fn run_campaign_inner<W, F>(
    world: &W,
    config: &CampaignConfig,
    stripe: Option<std::ops::Range<usize>>,
    obs: Option<&Obs>,
    progress: F,
) -> CampaignOutcome
where
    W: CrawlTarget + ?Sized,
    F: Fn(usize, usize) + Sync,
{
    let metrics = obs.map(|o| CrawlMetrics::new(&o.metrics));
    let targets = world.targets();
    let stripe = stripe.unwrap_or(0..targets.len());
    assert!(
        stripe.start <= stripe.end && stripe.end <= targets.len(),
        "stripe {stripe:?} outside 0..{}",
        targets.len()
    );
    let allow_list = world.allow_list_snapshot();
    let plan = config.fault_plan(world.campaign_seed());
    let policy = config.visit_policy(&plan);
    // The §2.3 corruption coin: under fault injection, a campaign that
    // asked for a *healthy* allow-list may find its downloaded component
    // corrupt — which (in the buggy browser) silently fails open, exactly
    // the failure mode the paper stumbled into. The paper's own setup
    // corrupts the list on purpose, so it cannot be corrupted further.
    let effective_setup =
        if plan.corrupt_allow_list() && config.allow_list == AllowListSetup::Healthy {
            AllowListSetup::CorruptedFailOpen
        } else {
            config.allow_list
        };
    let store = build_store(effective_setup, &allow_list);
    let classifier = Arc::new(Classifier::new(world.campaign_seed()));
    let seed = world.campaign_seed();
    let fault_metrics = obs.map(|o| FaultMetrics::new(&o.metrics));
    let faulty = match fault_metrics {
        Some(fm) => FaultyService::new(world, plan.clone()).with_metrics(fm),
        None => FaultyService::new(world, plan.clone()),
    };
    let service: &FaultyService<'_, W> = &faulty;

    let threads = config.threads.max(1);
    let stripe_len = stripe.len();
    let done = std::sync::atomic::AtomicUsize::new(0);
    // Trace wiring: each visit records into a private builder (no
    // shared state on the hot path); the coordinator attaches them
    // under the `crawl` phase span in rank order, so span IDs are
    // byte-identical for every thread count. Worker utilization rides
    // along as operational spans, excluded from the stripped view.
    let tracer: Option<&Tracer> = obs.map(|o| &o.trace).filter(|t| t.is_enabled());
    let crawl_phase = open_phase(obs, Word::Crawl, threads);
    // Jobs are global ranks, so the timestamps and per-profile seeds a
    // visit derives from its rank coincide in sharded and unsharded runs.
    let crawled = pool::run(
        stripe.collect(),
        threads,
        tracer.map(|t| (t, Word::Crawl)),
        |rank: usize| {
            let started = config
                .start
                .plus_millis(rank as u64 * config.per_site_interval_ms);
            let mut vtrace = tracer.and_then(Tracer::visit_builder);
            // Thread-local allocation scope for this visit; the visit
            // root is always builder span index 0.
            let vspan = AllocSpan::start();
            let outcome = run_site(
                service,
                &targets[rank],
                rank,
                classifier.clone(),
                store.clone(),
                seed,
                started,
                config.consent_action,
                config.vantage,
                metrics.as_ref(),
                &policy,
                vtrace.as_mut(),
            );
            let valloc = vspan.finish();
            if let Some(tb) = vtrace.as_mut() {
                attribute_alloc(tb, 0, &valloc);
            }
            let n = done.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
            if n % 500 == 0 || n == stripe_len {
                progress(n, stripe_len);
            }
            (outcome, vtrace)
        },
    );
    let (sites, visit_traces): (Vec<SiteOutcome>, Vec<_>) = crawled.results.into_iter().unzip();
    close_phase(
        crawl_phase,
        visit_traces,
        crawled.workers,
        config.start.millis(),
        &[(Word::Sites, sites.len())],
    );

    // ---- Attestation probing (§2.3) ----------------------------------
    // Probe every encountered party (first and third) plus every domain
    // on the allow-list, once. The paper's crawl ran on March 30th, 2024
    // but its attestation snapshot is from June 6th, 2024 (day 371) —
    // which is how it can see enrolment dates up to May 2024 — so the
    // probe happens at whichever is later: crawl end or that snapshot
    // date.
    let crawl_end = config
        .start
        .plus_millis(targets.len() as u64 * config.per_site_interval_ms);
    let probe_time = crawl_end.max(Timestamp::from_days(ATTESTATION_SNAPSHOT_DAY));
    let domains = probe_set(&sites, &allow_list, threads);
    let probe_phase = open_phase(obs, Word::AttestationProbe, threads);

    // The memo cache only applies when the target vouches for its
    // content (a fingerprint) and no fault plan can perturb responses.
    let memo_key = if config.probe_cache && !plan.is_active() {
        world.probe_cache_key().map(|fp| (fp, probe_time.millis()))
    } else {
        None
    };
    // One slot per domain: the memoised probe, or `None` to fetch.
    let cached: Vec<Option<AttestationProbe>> = match memo_key {
        Some(key) => {
            let cache = probe_memo().lock();
            let warm = cache.get(&key);
            domains
                .iter()
                .map(|d| warm.and_then(|w| w.get(*d)).cloned())
                .collect()
        }
        None => vec![None; domains.len()],
    };
    let pending: Vec<&Domain> = domains
        .iter()
        .zip(&cached)
        .filter(|(_, c)| c.is_none())
        .map(|(d, _)| *d)
        .collect();
    let cache_hits = domains.len() - pending.len();
    if let Some(o) = obs {
        if memo_key.is_some() {
            o.metrics
                .counter("attestation_probe_cache_hits_total")
                .add(cache_hits as u64);
        }
    }
    let fetched = probe_domains(
        service,
        &pending,
        probe_time,
        &policy.retry,
        threads,
        obs,
        tracer,
        metrics.as_ref().map(|m| &m.net),
    );
    if let Some(key) = memo_key {
        if !fetched.results.is_empty() {
            let mut cache = probe_memo().lock();
            let warm = cache.entry(key).or_default();
            for (probe, _) in &fetched.results {
                warm.insert(probe.domain.clone(), probe.clone());
            }
        }
    }
    let probes_fetched = fetched.results.len();
    let (fetched_probes, probe_traces): (Vec<_>, Vec<_>) = fetched.results.into_iter().unzip();
    // Fetched probes arrive in pending order, which is slot order with
    // the memo hits left out.
    let mut fetched_probes = fetched_probes.into_iter();
    let attestation_probes: Vec<AttestationProbe> = cached
        .into_iter()
        .map(|c| c.unwrap_or_else(|| fetched_probes.next().expect("one probe per pending slot")))
        .collect();
    // Probe span trees attach in slot (= sorted-domain) order, so the
    // trace is independent of which worker won which domain.
    close_phase(
        probe_phase,
        probe_traces,
        fetched.workers,
        probe_time.millis(),
        &[
            (Word::Probes, probes_fetched),
            (Word::CacheHits, cache_hits),
        ],
    );

    CampaignOutcome {
        schema_version: CAMPAIGN_SCHEMA_VERSION,
        sites,
        allow_list,
        attestation_probes,
        started: config.start,
    }
}

/// The domains the attestation probe visits, each once, in sorted
/// order: the allow-list plus every party and caller site the visits
/// encountered. Collected by reference, so each distinct domain is
/// cloned exactly once, inside the probe result it ends up in anyway.
/// Each of up to `threads` workers dedupes one contiguous chunk of
/// sites in a hash set and sorts what is left; the sorted runs and the
/// allow-list are then merged by a run-adaptive stable sort and
/// deduplicated.
fn probe_set<'a>(
    sites: &'a [SiteOutcome],
    allow_list: &'a [Domain],
    threads: usize,
) -> Vec<&'a Domain> {
    let runs = pool::run(
        pool::chunks(sites, threads),
        threads,
        None,
        |chunk: &[SiteOutcome]| {
            let mut seen: HashSet<&Domain> = HashSet::new();
            for v in chunk
                .iter()
                .flat_map(|s| s.before.iter().chain(s.after.iter()))
            {
                seen.extend(v.party_domains.iter());
                seen.extend(v.topics_calls.iter().map(|c| &c.caller_site));
            }
            let mut run: Vec<&Domain> = seen.into_iter().collect();
            run.sort_unstable();
            run
        },
    );
    let mut domains: Vec<&Domain> = allow_list
        .iter()
        .chain(runs.results.into_iter().flatten())
        .collect();
    domains.sort();
    domains.dedup();
    domains
}

/// The process-wide probe memo: `(world fingerprint, probe-time millis)`
/// scopes a map from domain to its probe result. Entries are only ever
/// written (and read) for fault-free campaigns against targets that
/// vouch for their content via [`CrawlTarget::probe_cache_key`], so a
/// warm hit is byte-identical to a fresh fetch.
type ProbeMemo = HashMap<(u64, u64), HashMap<Domain, AttestationProbe>>;

fn probe_memo() -> &'static parking_lot::Mutex<ProbeMemo> {
    static PROBE_MEMO: OnceLock<parking_lot::Mutex<ProbeMemo>> = OnceLock::new();
    PROBE_MEMO.get_or_init(|| parking_lot::Mutex::new(HashMap::new()))
}

/// Drop every memoised probe result (test/bench hygiene).
pub fn clear_probe_memo() {
    probe_memo().lock().clear();
}

/// Probe every domain in `domains` (pre-sorted by the caller) at
/// `probe_time` over a [`pool`] of `threads` workers: each result in
/// domain order with its span tree when tracing, plus the pool's
/// `attestation-probe` worker spans.
///
/// The pool returns results in job order, so the probes are
/// byte-identical to a sequential pass regardless of `threads`. Retry
/// backoff keys derive from the domain and timestamp alone
/// ([`probe_attestation_traced`]), so fault schedules reproduce under
/// any worker layout too.
#[allow(clippy::too_many_arguments)]
pub fn probe_domains<S: NetworkService + Sync + ?Sized>(
    service: &S,
    domains: &[&Domain],
    probe_time: Timestamp,
    retry: &RetryPolicy,
    threads: usize,
    obs: Option<&Obs>,
    tracer: Option<&Tracer>,
    net_metrics: Option<&NetMetrics>,
) -> pool::Pooled<(AttestationProbe, Option<TraceBuilder>)> {
    let probes_sent = obs.map(|o| o.metrics.counter("attestation_probes_sent_total"));
    pool::run(
        domains.to_vec(),
        threads,
        tracer.map(|t| (t, Word::AttestationProbe)),
        |domain| {
            if let Some(c) = &probes_sent {
                c.inc();
            }
            let mut tb = tracer.and_then(Tracer::visit_builder);
            // Thread-local allocation scope for this probe; the probe
            // root is always builder span index 0.
            let aspan = AllocSpan::start();
            let probe = probe_attestation_traced(
                service,
                domain,
                probe_time,
                retry,
                net_metrics,
                tb.as_mut(),
            );
            let delta = aspan.finish();
            if let Some(tb) = tb.as_mut() {
                attribute_alloc(tb, 0, &delta);
            }
            (probe, tb)
        },
    )
}

/// Probe one domain's attestation file (single attempt, no retries —
/// the pre-fault-layer behaviour, kept for benchmarks and ablations).
pub fn probe_attestation<S: NetworkService + ?Sized>(
    service: &S,
    domain: &Domain,
    now: Timestamp,
) -> AttestationProbe {
    probe_attestation_traced(service, domain, now, &RetryPolicy::none(), None, None)
}

/// Probe one domain's attestation file with bounded retry on the
/// simulated clock, recording a `probe` span (with a `retry` leaf per
/// backoff wait) into `trace` when given.
///
/// Transient failures — connection resets, injected timeouts, HTTP 5xx,
/// and *malformed* attestation JSON (what a fault-truncated body parses
/// as) — are re-fetched after backoff, each attempt drawing a fresh
/// fault coin because simulated time has advanced. Definitive answers
/// (404, a well-formed file that fails validation, a dead DNS name)
/// return immediately.
pub fn probe_attestation_traced<S: NetworkService + ?Sized>(
    service: &S,
    domain: &Domain,
    now: Timestamp,
    policy: &RetryPolicy,
    metrics: Option<&NetMetrics>,
    mut trace: Option<&mut TraceBuilder>,
) -> AttestationProbe {
    let url = attestation_url(domain);
    let key = seed::derive_idx(seed::fnv1a(url.to_string().as_bytes()), now.millis());
    let req = HttpRequest::get(url, ResourceKind::WellKnown);
    let span = trace.as_deref_mut().map(|tb| {
        let idx = tb.open(Word::Probe, Some(now.millis()));
        tb.field(idx, Word::Domain, domain);
        idx
    });
    let finish =
        |probe: AttestationProbe, trace: Option<&mut TraceBuilder>, waited: u64, retries: u64| {
            if let (Some(tb), Some(idx)) = (trace, span) {
                tb.field(idx, Word::Attested, probe.valid.is_some());
                if retries > 0 {
                    tb.field(idx, Word::Retries, retries);
                }
                tb.close(idx, Some(now.millis() + waited + 1));
            }
            probe
        };
    let mut waited = 0u64;
    let mut attempt = 1u32;
    loop {
        let result = service.fetch(&req, now.plus_millis(waited));
        let transient = match &result {
            Ok(r) if r.status.is_success() => match AttestationFile::parse_and_validate(&r.body) {
                Ok(f) => {
                    return finish(
                        AttestationProbe {
                            domain: domain.clone(),
                            valid: Some(AttestationInfo {
                                issued: f.issued,
                                has_enrollment_site: f.enrollment_site.is_some(),
                            }),
                        },
                        trace,
                        waited,
                        u64::from(attempt - 1),
                    )
                }
                Err(AttestationError::Malformed) => true,
                Err(_) => false,
            },
            Ok(r) => r.status.is_server_error(),
            Err(e) => e.is_transient(),
        };
        if !transient || attempt >= policy.max_attempts {
            if transient && !policy.is_none() {
                if let Some(m) = metrics {
                    m.record_retries_exhausted();
                }
            }
            return finish(
                AttestationProbe {
                    domain: domain.clone(),
                    valid: None,
                },
                trace,
                waited,
                u64::from(attempt - 1),
            );
        }
        let backoff = policy.backoff_ms(attempt, key);
        if let Some(tb) = trace.as_deref_mut() {
            let failed_at = now.millis() + waited;
            let leaf = tb.leaf(Word::Retry, Some(failed_at), Some(failed_at + backoff));
            tb.field(leaf, Word::Host, domain);
            tb.field(leaf, Word::Attempt, u64::from(attempt));
            tb.field(leaf, Word::BackoffMs, backoff);
        }
        waited += backoff;
        attempt += 1;
        if let Some(m) = metrics {
            m.record_retry();
        }
    }
}

/// Re-visit a fixed set of sites repeatedly over time with persistent
/// per-site consent — the §3 "repeated tests" that expose ON/OFF
/// alternation of A/B arms. Returns, for each requested time, the
/// outcomes in the same order as `urls`.
pub fn run_repeated<W: CrawlTarget + ?Sized>(
    world: &W,
    urls: &[Url],
    times: &[Timestamp],
    config: &CampaignConfig,
) -> Vec<Vec<SiteOutcome>> {
    let allow_list = world.allow_list_snapshot();
    let store = build_store(config.allow_list, &allow_list);
    let classifier = Arc::new(Classifier::new(world.campaign_seed()));
    times
        .iter()
        .map(|&t| {
            urls.iter()
                .enumerate()
                .map(|(rank, url)| {
                    run_site(
                        world,
                        url,
                        rank,
                        classifier.clone(),
                        store.clone(),
                        world.campaign_seed(),
                        t,
                        config.consent_action,
                        config.vantage,
                        None,
                        &VisitPolicy::default(),
                        None,
                    )
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Phase;
    use std::collections::BTreeSet;
    use topics_webgen::{World, WorldConfig};

    fn small_campaign(seed: u64, n: usize) -> (World, CampaignOutcome) {
        let world = World::generate(WorldConfig::scaled(seed, n));
        let config = CampaignConfig {
            threads: 4,
            ..Default::default()
        };
        let outcome = run_campaign(&world, &config);
        (world, outcome)
    }

    #[test]
    fn campaign_covers_all_sites_in_rank_order() {
        let (_, outcome) = small_campaign(51, 400);
        assert_eq!(outcome.sites.len(), 400);
        for (i, s) in outcome.sites.iter().enumerate() {
            assert_eq!(s.rank, i);
        }
        let visited = outcome.visited_count();
        assert!(
            (320..=380).contains(&visited),
            "≈87% of 400 visited, got {visited}"
        );
        let accepted = outcome.accepted_count();
        assert!(
            (80..=180).contains(&accepted),
            "≈30% accepted, got {accepted}"
        );
    }

    #[test]
    fn campaign_is_deterministic() {
        let (_, a) = small_campaign(53, 150);
        let (_, b) = small_campaign(53, 150);
        assert_eq!(a.visited_count(), b.visited_count());
        assert_eq!(a.accepted_count(), b.accepted_count());
        for (x, y) in a.sites.iter().zip(&b.sites) {
            assert_eq!(x.website, y.website);
            let calls = |s: &SiteOutcome| {
                s.before
                    .iter()
                    .chain(s.after.iter())
                    .map(|v| v.topics_calls.len())
                    .sum::<usize>()
            };
            assert_eq!(calls(x), calls(y));
        }
    }

    #[test]
    fn corrupted_list_permits_everything_healthy_blocks_unenrolled() {
        let world = World::generate(WorldConfig::scaled(55, 500));
        let corrupted = run_campaign(
            &world,
            &CampaignConfig {
                threads: 4,
                allow_list: AllowListSetup::CorruptedFailOpen,
                ..Default::default()
            },
        );
        let healthy = run_campaign(
            &world,
            &CampaignConfig {
                threads: 4,
                allow_list: AllowListSetup::Healthy,
                ..Default::default()
            },
        );
        let permitted_unallowed = |o: &CampaignOutcome| {
            o.sites
                .iter()
                .flat_map(|s| s.before.iter().chain(s.after.iter()))
                .flat_map(|v| v.topics_calls.iter())
                .filter(|c| c.permitted() && !o.is_allowed(&c.caller_site))
                .count()
        };
        assert!(
            permitted_unallowed(&corrupted) > 0,
            "fail-open exposes anomalous callers"
        );
        assert_eq!(
            permitted_unallowed(&healthy),
            0,
            "a healthy list blocks all non-enrolled callers"
        );
    }

    #[test]
    fn probe_set_equals_the_sorted_set_fold() {
        let world = World::generate(WorldConfig::scaled(67, 200));
        let outcome = run_campaign(
            &world,
            &CampaignConfig {
                threads: 2,
                fault: FaultProfile::light(),
                ..Default::default()
            },
        );
        let mut allow_list = outcome.allow_list.clone();
        allow_list.push(Domain::parse("never-visited.example").unwrap());
        allow_list.push(allow_list[0].clone());
        let encountered: BTreeSet<&Domain> = outcome
            .sites
            .iter()
            .flat_map(|s| s.before.iter().chain(s.after.iter()))
            .flat_map(|v| {
                v.party_domains
                    .iter()
                    .chain(v.topics_calls.iter().map(|c| &c.caller_site))
            })
            .collect();
        assert!(outcome.sites.iter().any(|s| s.error.is_some()));
        assert!(allow_list.iter().any(|d| !encountered.contains(d)));
        let mut fold: BTreeSet<&Domain> = allow_list.iter().collect();
        fold.extend(encountered);
        let fold: Vec<&Domain> = fold.into_iter().collect();
        for threads in [1, 2, 3, 8] {
            assert_eq!(
                probe_set(&outcome.sites, &allow_list, threads),
                fold,
                "{threads} threads"
            );
        }
        let allowed: BTreeSet<&Domain> = allow_list.iter().collect();
        assert_eq!(
            probe_set(&[], &allow_list, 2),
            allowed.into_iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn attestation_probes_cover_allow_list_and_match_ground_truth() {
        let (world, outcome) = small_campaign(57, 200);
        for p in world.registry() {
            if p.allowed {
                let probed = outcome
                    .attestation_probes
                    .iter()
                    .find(|pr| pr.domain == p.domain)
                    .expect("every allow-listed domain probed");
                assert_eq!(
                    probed.valid.is_some(),
                    p.attested,
                    "{} attested mismatch",
                    p.domain
                );
            }
        }
        // Encountered ranked sites are probed too (and are not attested).
        let some_site = outcome
            .sites
            .iter()
            .find(|s| s.visited() && s.website.as_str() != "distillery.com")
            .unwrap();
        assert!(outcome
            .attestation_probes
            .iter()
            .any(|pr| pr.domain == some_site.website && pr.valid.is_none()));
    }

    #[test]
    fn progress_callback_fires_and_reaches_the_total() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let world = World::generate(WorldConfig::scaled(63, 1_000));
        let calls = AtomicUsize::new(0);
        let max_seen = AtomicUsize::new(0);
        let outcome = run_campaign_observed(
            &world,
            &CampaignConfig {
                threads: 4,
                ..Default::default()
            },
            None,
            |done, total| {
                calls.fetch_add(1, Ordering::Relaxed);
                assert_eq!(total, 1_000);
                max_seen.fetch_max(done, Ordering::Relaxed);
            },
        );
        assert_eq!(outcome.sites.len(), 1_000);
        assert!(calls.load(Ordering::Relaxed) >= 2, "every-500 plus final");
        assert_eq!(max_seen.load(Ordering::Relaxed), 1_000);
    }

    #[test]
    fn visits_are_timestamped_along_the_crawl() {
        let (_, outcome) = small_campaign(59, 100);
        let starts: Vec<_> = outcome
            .sites
            .iter()
            .filter_map(|s| s.before.as_ref())
            .map(|v| v.started)
            .collect();
        for w in starts.windows(2) {
            assert!(w[0] < w[1], "site start times increase with rank");
        }
        for s in &outcome.sites {
            if let (Some(b), Some(a)) = (&s.before, &s.after) {
                assert!(a.started > b.started);
                assert_eq!(a.phase, Phase::AfterAccept);
            }
        }
    }

    #[test]
    fn probe_domains_matches_sequential_order_for_any_thread_count() {
        let world = World::generate(WorldConfig::scaled(77, 80));
        let allow = world.allow_list_snapshot();
        let domains: Vec<&Domain> = allow.iter().collect();
        let t = Timestamp::from_days(ATTESTATION_SNAPSHOT_DAY);
        let probes = |threads| -> Vec<AttestationProbe> {
            probe_domains(
                &world,
                &domains,
                t,
                &RetryPolicy::none(),
                threads,
                None,
                None,
                None,
            )
            .results
            .into_iter()
            .map(|(probe, _)| probe)
            .collect()
        };
        let seq = probes(1);
        for threads in [2, 5, 16] {
            assert_eq!(
                seq,
                probes(threads),
                "probe order diverged at {threads} threads"
            );
        }
        assert_eq!(seq.len(), domains.len());
        for (d, p) in domains.iter().zip(&seq) {
            assert_eq!(**d, p.domain);
        }
    }

    #[test]
    fn probe_memo_cache_is_transparent_and_skips_refetch() {
        use topics_obs::Obs;
        let world = World::generate(WorldConfig::scaled(79, 120));
        clear_probe_memo();
        let cold = run_campaign(
            &world,
            &CampaignConfig {
                threads: 2,
                ..Default::default()
            },
        );
        let warm_cfg = CampaignConfig {
            threads: 2,
            probe_cache: true,
            ..Default::default()
        };
        let first = run_campaign(&world, &warm_cfg);
        let obs = Obs::new();
        let second = run_campaign_observed(&world, &warm_cfg, Some(&obs), |_, _| {});
        assert_eq!(cold.attestation_probes, first.attestation_probes);
        assert_eq!(first.attestation_probes, second.attestation_probes);
        let s = obs.metrics.snapshot();
        assert_eq!(
            s.counter("attestation_probes_sent_total"),
            0,
            "warm run re-fetches nothing"
        );
        assert_eq!(
            s.counter("attestation_probe_cache_hits_total"),
            second.attestation_probes.len() as u64
        );
        // A fault profile disables the cache even when requested.
        let faulty_cfg = CampaignConfig {
            threads: 2,
            probe_cache: true,
            fault: FaultProfile::uniform(0.05),
            ..Default::default()
        };
        let obs2 = Obs::new();
        run_campaign_observed(&world, &faulty_cfg, Some(&obs2), |_, _| {});
        let s2 = obs2.metrics.snapshot();
        assert_eq!(s2.counter("attestation_probe_cache_hits_total"), 0);
        assert!(s2.counter("attestation_probes_sent_total") > 0);
        clear_probe_memo();
    }

    #[test]
    fn repeated_visits_share_ab_assignment_with_campaigns() {
        let world = World::generate(WorldConfig::scaled(61, 120));
        let config = CampaignConfig {
            threads: 2,
            ..Default::default()
        };
        let urls: Vec<Url> = world.targets().into_iter().take(10).collect();
        let t0 = Timestamp::from_days(CRAWL_START_DAY);
        let rounds = run_repeated(&world, &urls, &[t0, t0.plus_days(1)], &config);
        assert_eq!(rounds.len(), 2);
        assert_eq!(rounds[0].len(), 10);
        // Same URL at the same time gives identical call sets.
        let again = run_repeated(&world, &urls, &[t0], &config);
        for (a, b) in rounds[0].iter().zip(&again[0]) {
            let count =
                |s: &SiteOutcome| s.before.as_ref().map(|v| v.topics_calls.len()).unwrap_or(0);
            assert_eq!(count(a), count(b));
        }
    }
}
