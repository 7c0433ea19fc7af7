//! Crawl-side observability: live counters updated as the campaign
//! runs, and the authoritative post-hoc tally computed from a
//! [`CampaignOutcome`].
//!
//! The two layers use disjoint metric names so nothing is counted twice:
//!
//! * **live** series (`crawl_*`, `attestation_probes_sent_total`, plus
//!   the `net_*` / `topics_api_*` series recorded inside the browser)
//!   are incremented on the hot path and give operators a running view;
//! * **tally** series (`sites_attempted_total`, `visits_total`,
//!   `topics_calls_total{class=…}`, …) are derived by [`tally_outcome`]
//!   from the finished outcome — the same data the §2.4 report is
//!   rendered from, so snapshot and report reconcile by construction.

use crate::record::CampaignOutcome;
use std::collections::HashSet;
use topics_browser::topics::TopicsMetrics;
use topics_net::domain::Domain;
use topics_net::metrics::NetMetrics;
use topics_obs::{Counter, MetricsRegistry};

/// The values the `class` label of `topics_calls_total{class=…}` can
/// take. The partition is total: every recorded call lands in exactly
/// one class, so the per-class series sum to
/// `topics_calls_recorded_total`.
pub const CALL_CLASSES: [&str; 5] = [
    "legitimate",
    "questionable",
    "anomalous",
    "other",
    "blocked",
];

/// Pre-resolved live counters shared by every crawl worker (each handle
/// is an `Arc` over one atomic, so cloning is cheap too).
#[derive(Debug, Clone)]
pub struct CrawlMetrics {
    /// Network-layer handles threaded into each browser.
    pub net: NetMetrics,
    /// Topics-call handles threaded into each browser.
    pub topics: TopicsMetrics,
    /// `crawl_visits_ok_total` — Before-Accept visits that loaded.
    pub visits_ok: Counter,
    /// `crawl_visits_failed_total` — sites dropped by DNS/connect errors.
    pub visits_failed: Counter,
    /// `crawl_banner_accepted_total` — banners accepted (second visit ran).
    pub banner_accepted: Counter,
    /// `crawl_banner_rejected_total` — banners rejected (opt-out runs).
    pub banner_rejected: Counter,
    /// `crawl_visits_degraded_total` — sites kept in the dataset despite
    /// retries, a lost second visit, or a timeout (fault campaigns only).
    pub visits_degraded: Counter,
    /// `crawl_visits_timed_out_total` — visits abandoned past the
    /// per-visit simulated time budget.
    pub visits_timed_out: Counter,
}

impl CrawlMetrics {
    /// Resolve the handles in `registry`.
    pub fn new(registry: &MetricsRegistry) -> CrawlMetrics {
        CrawlMetrics {
            net: NetMetrics::new(registry),
            topics: TopicsMetrics::new(registry),
            visits_ok: registry.counter("crawl_visits_ok_total"),
            visits_failed: registry.counter("crawl_visits_failed_total"),
            banner_accepted: registry.counter("crawl_banner_accepted_total"),
            banner_rejected: registry.counter("crawl_banner_rejected_total"),
            visits_degraded: registry.counter("crawl_visits_degraded_total"),
            visits_timed_out: registry.counter("crawl_visits_timed_out_total"),
        }
    }
}

/// Classify one recorded call for the `class` label.
///
/// Mirrors the analysis-side semantics (`topics_analysis::dataset`):
/// blocked calls never execute; executed calls from an
/// Allowed∧Attested CP are *legitimate* — except before any consent
/// interaction, where the paper calls them *questionable* (§5); calls
/// from a CP with neither label are the §4 *anomalous* population; a CP
/// with exactly one label is *other* (the paper's tiny mixed cells of
/// Table 1).
fn classify(permitted: bool, before_accept: bool, allowed: bool, attested: bool) -> &'static str {
    if !permitted {
        "blocked"
    } else if allowed && attested {
        if before_accept {
            "questionable"
        } else {
            "legitimate"
        }
    } else if !allowed && !attested {
        "anomalous"
    } else {
        "other"
    }
}

/// Derive the authoritative tally metrics from a finished outcome.
///
/// Both `Lab::run` and the `topics-lab metrics` subcommand call this on
/// the same [`CampaignOutcome`] the report is computed from, which is
/// what guarantees `visits_total`, `banner_accepted_total` and the
/// per-class `topics_calls_total` reconcile exactly with §2.4.
pub fn tally_outcome(outcome: &CampaignOutcome, registry: &MetricsRegistry) {
    let allowed: HashSet<&Domain> = outcome.allow_list.iter().collect();
    let attested: HashSet<&Domain> = outcome
        .attestation_probes
        .iter()
        .filter(|p| p.valid.is_some())
        .map(|p| &p.domain)
        .collect();

    registry
        .counter("sites_attempted_total")
        .add(outcome.sites.len() as u64);
    registry
        .counter("visits_total")
        .add(outcome.visited_count() as u64);
    registry
        .counter("visits_failed_total")
        .add(outcome.sites.iter().filter(|s| !s.visited()).count() as u64);
    registry.counter("banner_found_total").add(
        outcome
            .sites
            .iter()
            .filter_map(|s| s.before.as_ref())
            .filter(|v| v.banner_found)
            .count() as u64,
    );
    registry
        .counter("banner_accepted_total")
        .add(outcome.accepted_count() as u64);
    registry
        .counter("banner_rejected_total")
        .add(outcome.sites.iter().filter(|s| s.rejected()).count() as u64);

    // Fixed class label set: every class appears in the snapshot even at
    // zero, so dashboards and the reconciliation test see a stable shape.
    let class_counters: Vec<Counter> = CALL_CLASSES
        .iter()
        .map(|c| registry.labeled_counter("topics_calls_total", "class", c))
        .collect();
    let recorded = registry.counter("topics_calls_recorded_total");
    let durations = registry.histogram("visit_sim_duration_ms");

    for site in &outcome.sites {
        for (visit, before_accept) in site
            .before
            .iter()
            .map(|v| (v, true))
            .chain(site.after.iter().map(|v| (v, false)))
        {
            durations.observe(visit.duration_ms);
            for call in &visit.topics_calls {
                recorded.inc();
                let class = classify(
                    call.permitted(),
                    before_accept,
                    allowed.contains(&call.caller_site),
                    attested.contains(&call.caller_site),
                );
                let idx = CALL_CLASSES
                    .iter()
                    .position(|c| *c == class)
                    .expect("class is in CALL_CLASSES");
                class_counters[idx].inc();
            }
        }
    }

    registry
        .counter("attestation_probes_total")
        .add(outcome.attestation_probes.len() as u64);
    registry
        .counter("attestation_probes_attested_total")
        .add(attested.len() as u64);

    // Fault-layer reconciliation: the three outcome classes partition
    // the attempted sites, and the per-site retry/timeout stats roll up
    // into campaign totals. All fixed-label so the snapshot shape is
    // stable whether or not faults were injected.
    let counts = outcome.outcome_counts();
    for (label, n) in [
        ("complete", counts.complete),
        ("degraded", counts.degraded),
        ("failed", counts.failed),
    ] {
        registry
            .labeled_counter("sites_outcome_total", "outcome", label)
            .add(n as u64);
    }
    registry.counter("site_retries_total").add(
        outcome
            .sites
            .iter()
            .map(|s| u64::from(s.faults.retries))
            .sum(),
    );
    registry
        .counter("site_visits_timed_out_total")
        .add(outcome.sites.iter().filter(|s| s.faults.timed_out).count() as u64);
    registry.counter("site_second_visit_lost_total").add(
        outcome
            .sites
            .iter()
            .filter(|s| s.faults.second_visit_failed)
            .count() as u64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, CampaignConfig};
    use topics_webgen::{World, WorldConfig};

    #[test]
    fn classes_partition_every_call() {
        assert_eq!(classify(false, true, true, true), "blocked");
        assert_eq!(classify(true, false, true, true), "legitimate");
        assert_eq!(classify(true, true, true, true), "questionable");
        assert_eq!(classify(true, true, false, false), "anomalous");
        assert_eq!(classify(true, false, true, false), "other");
        assert_eq!(classify(true, false, false, true), "other");
    }

    #[test]
    fn tally_reconciles_with_the_outcome() {
        let world = World::generate(WorldConfig::scaled(67, 300));
        let outcome = run_campaign(
            &world,
            &CampaignConfig {
                threads: 4,
                ..Default::default()
            },
        );
        let registry = MetricsRegistry::new();
        tally_outcome(&outcome, &registry);
        let s = registry.snapshot();
        assert_eq!(s.counter("sites_attempted_total"), 300);
        assert_eq!(s.counter("visits_total"), outcome.visited_count() as u64);
        assert_eq!(
            s.counter("visits_total") + s.counter("visits_failed_total"),
            300
        );
        assert_eq!(
            s.counter("banner_accepted_total"),
            outcome.accepted_count() as u64
        );
        let recorded: usize = outcome
            .sites
            .iter()
            .flat_map(|site| site.before.iter().chain(site.after.iter()))
            .map(|v| v.topics_calls.len())
            .sum();
        assert_eq!(s.counter("topics_calls_recorded_total"), recorded as u64);
        assert_eq!(
            s.counter_sum("topics_calls_total"),
            recorded as u64,
            "classes partition the recorded calls"
        );
        assert!(s.counter("topics_calls_total{class=\"anomalous\"}") > 0);
        // Every visit contributes one duration observation.
        let visits: usize = outcome
            .sites
            .iter()
            .map(|site| site.before.iter().count() + site.after.iter().count())
            .sum();
        assert_eq!(s.histograms["visit_sim_duration_ms"].count, visits as u64);
        // The outcome classes partition the attempted sites; without a
        // fault profile nothing is degraded.
        assert_eq!(s.counter_sum("sites_outcome_total"), 300);
        assert_eq!(s.counter("sites_outcome_total{outcome=\"degraded\"}"), 0);
        assert_eq!(
            s.counter("sites_outcome_total{outcome=\"failed\"}"),
            s.counter("visits_failed_total")
        );
        assert_eq!(s.counter("site_retries_total"), 0);
    }
}
