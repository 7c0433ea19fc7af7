//! The per-site visit protocol (§2.2).
//!
//! For each ranked website: (1) visit and record everything
//! **Before-Accept**, without touching the banner; (2) run Priv-Accept on
//! the rendered page; (3) if an accept button matched, grant consent,
//! **delete the browser cache** so every object is downloaded again, and
//! visit once more (**After-Accept**). Sites that fail DNS/connection are
//! dropped, as in the paper.

use crate::metrics::CrawlMetrics;
use crate::privaccept;
use crate::record::{FaultStats, Phase, SiteOutcome, VisitRecord};
use std::sync::Arc;
use topics_browser::attestation::AttestationStore;
use topics_browser::browser::{Browser, BrowserConfig};
use topics_browser::origin::Site;
use topics_net::clock::Timestamp;
use topics_net::psl::registrable_domain;
use topics_net::seed;
use topics_net::service::{NetworkService, RetryPolicy};
use topics_net::url::Url;
use topics_obs::{TraceBuilder, Word};
use topics_taxonomy::Classifier;

/// How long after the Before-Accept visit the After-Accept one starts
/// (banner interaction plus cache clearing).
pub const ACCEPT_DELAY_MS: u64 = 30_000;

/// Default per-visit simulated time budget. Generous — fault-free page
/// loads finish well under a minute — so it only ever fires when
/// injected slow-responses and backoff waits pile up.
pub const DEFAULT_VISIT_TIMEOUT_MS: u64 = 120_000;

/// Resilience knobs for one site visit: how hard to retry individual
/// exchanges, and when to declare the whole visit dead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VisitPolicy {
    /// Per-exchange retry/backoff policy handed to the browser.
    pub retry: RetryPolicy,
    /// Abandon a visit whose simulated duration exceeds this budget.
    pub visit_timeout_ms: u64,
}

impl Default for VisitPolicy {
    /// No retries, 120 s budget — the exact pre-fault-layer behaviour.
    fn default() -> VisitPolicy {
        VisitPolicy {
            retry: RetryPolicy::none(),
            visit_timeout_ms: DEFAULT_VISIT_TIMEOUT_MS,
        }
    }
}

/// What the crawler does with a recognised consent banner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConsentAction {
    /// The paper's protocol: click the accept button.
    #[default]
    Accept,
    /// The opt-out extension: click the reject button instead. Gated
    /// tags must then stay hidden, and any Topics call in the second
    /// visit is a violation of an *explicit* refusal.
    Reject,
}

/// Visit one ranked site with a fresh browser profile.
///
/// `attestation` is cloned into the browser — the paper's configuration
/// passes a corrupted store so non-enrolled callers become observable.
/// `action` says which banner button to click (the opt-out experiment
/// passes [`ConsentAction::Reject`]), `metrics` records the browser's
/// network and Topics-call series and the visit outcome counters, and
/// `policy` sets retries and the visit's time budget. With `trace`, the
/// visit records a `visit` span (domain, rank, outcome, retries)
/// wrapping the browser's `page-load` trees and a `consent-click` leaf
/// at the moment the banner button is clicked.
#[allow(clippy::too_many_arguments)]
pub fn run_site<S: NetworkService + ?Sized>(
    service: &S,
    url: &Url,
    rank: usize,
    classifier: Arc<Classifier>,
    attestation: AttestationStore,
    campaign_seed: u64,
    started: Timestamp,
    action: ConsentAction,
    vantage: topics_net::http::Vantage,
    metrics: Option<&CrawlMetrics>,
    policy: &VisitPolicy,
    mut trace: Option<&mut TraceBuilder>,
) -> SiteOutcome {
    let website = registrable_domain(url.host());
    let visit_span = trace.as_deref_mut().map(|tb| {
        let idx = tb.open(Word::Visit, Some(started.millis()));
        tb.field(idx, Word::Domain, &website);
        tb.field(idx, Word::Rank, rank);
        idx
    });
    let profile_seed = seed::derive(seed::derive(campaign_seed, "profile"), website.as_str());
    let config = BrowserConfig {
        topics_enabled: true, // the paper manually opts in (§2.2)
        ab_seed: campaign_seed,
        vantage,
        retry: policy.retry,
        ..BrowserConfig::default()
    };
    let mut browser = Browser::new(classifier, attestation, config, profile_seed);
    if let Some(m) = metrics {
        browser = browser
            .with_net_metrics(m.net.clone())
            .with_topics_metrics(m.topics.clone());
    }
    let mut faults = FaultStats::default();

    // ---- Before-Accept ----------------------------------------------
    let before_visit = match browser.visit_traced(
        service,
        url,
        started,
        Word::BeforeAccept,
        trace.as_deref_mut(),
    ) {
        Ok(v) if v.duration_ms > policy.visit_timeout_ms => {
            faults.retries += v.retries;
            faults.timed_out = true;
            if let Some(m) = metrics {
                m.visits_failed.inc();
                m.visits_timed_out.inc();
            }
            if let (Some(tb), Some(idx)) = (trace, visit_span) {
                tb.field(idx, Word::Outcome, Word::Failed);
                tb.field(idx, Word::Retries, u64::from(faults.retries));
                tb.field(idx, Word::Error, Word::Timeout);
                tb.close(idx, Some(started.millis() + v.duration_ms));
            }
            return SiteOutcome {
                rank,
                website,
                before: None,
                after: None,
                error: Some(format!(
                    "visit timed out: {} ms > {} ms budget",
                    v.duration_ms, policy.visit_timeout_ms
                )),
                faults,
            };
        }
        Ok(v) => v,
        Err(e) => {
            if let Some(m) = metrics {
                m.visits_failed.inc();
            }
            if let (Some(tb), Some(idx)) = (trace, visit_span) {
                tb.field(idx, Word::Outcome, Word::Failed);
                tb.field(idx, Word::Retries, u64::from(faults.retries));
                tb.field(idx, Word::Error, e.kind());
                tb.close(idx, Some(started.millis()));
            }
            return SiteOutcome {
                rank,
                website,
                before: None,
                after: None,
                error: Some(e.to_string()),
                faults,
            };
        }
    };
    let mut end_ms = started.millis() + before_visit.duration_ms;
    faults.retries += before_visit.retries;
    if let Some(m) = metrics {
        m.visits_ok.inc();
    }
    let scan = privaccept::scan(&before_visit.document);
    let final_website = before_visit.website();
    let before = VisitRecord::assemble(
        Phase::BeforeAccept,
        website.clone(),
        final_website.clone(),
        &before_visit.objects,
        &before_visit.topics_calls,
        scan.banner_found,
        started,
        before_visit.duration_ms,
    );

    // ---- Banner interaction + second visit ---------------------------
    let proceed = match action {
        ConsentAction::Accept => scan.can_accept(),
        ConsentAction::Reject => scan.can_reject(),
    };
    let after = if proceed {
        let click_time = started.plus_millis(ACCEPT_DELAY_MS / 2);
        let site = Site::of(&Url::https(final_website.clone(), "/"));
        if let Some(tb) = trace.as_deref_mut() {
            let click_ms = click_time.millis();
            let leaf = tb.leaf(Word::ConsentClick, Some(click_ms), Some(click_ms));
            let label = match action {
                ConsentAction::Accept => Word::Accept,
                ConsentAction::Reject => Word::Reject,
            };
            tb.field(leaf, Word::Action, label);
        }
        let phase = match action {
            ConsentAction::Accept => {
                browser.grant_consent(&site, click_time);
                if let Some(m) = metrics {
                    m.banner_accepted.inc();
                }
                Phase::AfterAccept
            }
            ConsentAction::Reject => {
                browser.deny_consent(&site, click_time);
                if let Some(m) = metrics {
                    m.banner_rejected.inc();
                }
                Phase::AfterReject
            }
        };
        browser.clear_cache(); // §2.2: reload all objects
        let after_started = started.plus_millis(ACCEPT_DELAY_MS);
        let after_label = match phase {
            Phase::AfterReject => Word::AfterReject,
            _ => Word::AfterAccept,
        };
        match browser.visit_traced(
            service,
            url,
            after_started,
            after_label,
            trace.as_deref_mut(),
        ) {
            Ok(v) if v.duration_ms > policy.visit_timeout_ms => {
                faults.retries += v.retries;
                faults.timed_out = true;
                faults.second_visit_failed = true;
                if let Some(m) = metrics {
                    m.visits_timed_out.inc();
                }
                end_ms = end_ms.max(after_started.millis() + v.duration_ms);
                None
            }
            Ok(v) => {
                faults.retries += v.retries;
                end_ms = end_ms.max(after_started.millis() + v.duration_ms);
                let fw = v.website();
                Some(VisitRecord::assemble(
                    phase,
                    website.clone(),
                    fw,
                    &v.objects,
                    &v.topics_calls,
                    privaccept::scan(&v.document).banner_found,
                    after_started,
                    v.duration_ms,
                ))
            }
            // A failure on the second visit (rare: a flaky third party
            // cannot kill it, only the site itself) drops the site from
            // the second dataset but keeps it in D_BA, like the paper's
            // pipeline.
            Err(_) => {
                faults.second_visit_failed = true;
                None
            }
        }
    } else {
        None
    };

    let outcome = SiteOutcome {
        rank,
        website,
        before: Some(before),
        after,
        error: None,
        faults,
    };
    if let Some(m) = metrics {
        if outcome.outcome() == crate::record::VisitOutcome::Degraded {
            m.visits_degraded.inc();
        }
    }
    if let (Some(tb), Some(idx)) = (trace, visit_span) {
        tb.field(idx, Word::Outcome, outcome.outcome().word());
        tb.field(idx, Word::Retries, u64::from(outcome.faults.retries));
        tb.close(idx, Some(end_ms));
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use topics_webgen::{World, WorldConfig};

    fn classifier() -> Arc<Classifier> {
        Arc::new(Classifier::new(1))
    }

    fn visit_rank(world: &World, rank: usize) -> SiteOutcome {
        let url = &world.tranco_list()[rank];
        run_site(
            world,
            url,
            rank,
            classifier(),
            AttestationStore::corrupted(),
            world.seed(),
            Timestamp::from_days(302),
            ConsentAction::Accept,
            topics_net::http::Vantage::Europe,
            None,
            &VisitPolicy::default(),
            None,
        )
    }

    #[test]
    fn visits_record_objects_and_phase() {
        let world = World::generate(WorldConfig::scaled(41, 300));
        let mut visited = 0;
        let mut accepted = 0;
        for rank in 0..300 {
            let o = visit_rank(&world, rank);
            if o.visited() {
                visited += 1;
                let b = o.before.as_ref().unwrap();
                assert_eq!(b.phase, Phase::BeforeAccept);
                assert!(b.object_count >= 1);
                assert_eq!(b.party_domains[0], b.final_website);
            }
            if o.accepted() {
                accepted += 1;
                let a = o.after.as_ref().unwrap();
                assert_eq!(a.phase, Phase::AfterAccept);
                // After-Accept re-downloads everything, so it sees at
                // least as many parties (gated tags appear).
                let b = o.before.as_ref().unwrap();
                assert!(a.party_domains.len() + 1 >= b.party_domains.len());
            }
        }
        // DNS failure rate ≈13%, acceptance ≈30%: sanity bands.
        assert!((230..=280).contains(&visited), "visited {visited} of 300");
        assert!((50..=140).contains(&accepted), "accepted {accepted} of 300");
    }

    #[test]
    fn page_load_durations_are_plausible_and_deterministic() {
        let world = World::generate(WorldConfig::scaled(41, 60));
        for rank in 0..60 {
            let a = visit_rank(&world, rank);
            let b = visit_rank(&world, rank);
            if let (Some(va), Some(vb)) = (&a.before, &b.before) {
                assert_eq!(va.duration_ms, vb.duration_ms, "deterministic");
                // A page with N objects costs at least one RTT each and
                // far less than a minute in total.
                assert!(va.duration_ms >= 100, "{}", va.duration_ms);
                assert!(va.duration_ms < 60_000, "{}", va.duration_ms);
            }
        }
    }

    #[test]
    fn failed_sites_carry_an_error() {
        let world = World::generate(WorldConfig::scaled(41, 400));
        let failed = (0..400)
            .map(|r| visit_rank(&world, r))
            .find(|o| !o.visited())
            .expect("some site fails DNS in 400");
        assert!(failed.error.is_some());
        assert!(!failed.accepted());
    }

    #[test]
    fn consent_unlocks_gated_tags() {
        let world = World::generate(WorldConfig::scaled(43, 800));
        // Find a gating site with platforms and a detectable banner.
        let spec = world
            .sites()
            .iter()
            .find(|s| {
                s.gates_pre_consent
                    && !s.platforms.is_empty()
                    && s.has_banner
                    && !s.banner_quirky
                    && s.language.priv_accept_supported()
                    && s.alias_of.is_none()
            })
            .expect("such a site exists");
        let o = visit_rank(&world, spec.rank);
        if !o.visited() {
            return; // this particular site may be in the DNS-failed 13%
        }
        assert!(o.accepted(), "banner should be accepted");
        let before = o.before.as_ref().unwrap();
        let after = o.after.as_ref().unwrap();
        let party = &world.registry()[spec.platforms[0].0].domain;
        assert!(!before.has_party(party), "gated tag absent pre-consent");
        assert!(after.has_party(party), "gated tag present post-consent");
    }

    #[test]
    fn unsupported_language_banners_are_not_accepted() {
        use topics_webgen::lang::Language;
        let world = World::generate(WorldConfig::scaled(47, 600));
        // Note: Dutch is excluded although Priv-Accept does not list it —
        // "Alles accepteren" happens to contain the English keyword
        // "accept", a realistic cross-language match the tool also gets
        // for free. Cyrillic/CJK banners genuinely never match.
        let spec = world
            .sites()
            .iter()
            .find(|s| {
                s.has_banner
                    && matches!(
                        s.language,
                        Language::Russian | Language::Japanese | Language::Polish
                    )
            })
            .expect("a non-supported-language banner site");
        let o = visit_rank(&world, spec.rank);
        if let Some(before) = &o.before {
            assert!(before.banner_found, "banner container detected");
            assert!(!o.accepted(), "but the button text never matches");
        }
    }

    #[test]
    fn alias_sites_record_both_identities() {
        let world = World::generate(WorldConfig::scaled(49, 3_000));
        let spec = world
            .sites()
            .iter()
            .find(|s| s.alias_of.is_some())
            .expect("an alias site");
        let o = visit_rank(&world, spec.rank);
        if let Some(before) = &o.before {
            assert_eq!(before.website, spec.domain);
            assert_eq!(&before.final_website, spec.alias_of.as_ref().unwrap());
        }
    }
}
