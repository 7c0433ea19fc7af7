//! Dataset views over a campaign outcome.
//!
//! The paper works with two datasets: **D_BA** (every successfully
//! visited site's Before-Accept visit; 43,405 sites at paper scale) and
//! **D_AA** (the After-Accept visits of the ~30% of sites whose banner
//! Priv-Accept accepted; 14,719 sites). This module provides iteration
//! over both, the Allowed/Attested classification of calling parties, and
//! the aggregate counts quoted in §2.4.

use crate::index::CampaignIndex;
use std::collections::BTreeSet;
use topics_crawler::record::{
    CampaignOutcome, OutcomeCounts, TopicsCallRecord, VisitOutcome, VisitRecord,
};
use topics_net::domain::Domain;
use topics_net::pool;

/// Which dataset a query runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetId {
    /// Before-Accept visits of all visited sites.
    BeforeAccept,
    /// After-Accept visits of consented sites.
    AfterAccept,
    /// After-Reject visits of the opt-out experiment (an extension
    /// beyond the paper's protocol).
    AfterReject,
}

/// The paper's two-axis classification of a calling party.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CpClass {
    /// On the attestation allow-list.
    pub allowed: bool,
    /// Serves a valid attestation file.
    pub attested: bool,
}

/// Analysis wrapper around a campaign outcome.
///
/// Construction builds a [`CampaignIndex`] once, so every query
/// (and every figure/table module consuming the wrapper) reads the
/// shared index instead of re-scanning the outcome.
pub struct Datasets<'a> {
    outcome: &'a CampaignOutcome,
    index: CampaignIndex<'a>,
    index_alloc: topics_obs::AllocDelta,
}

impl<'a> Datasets<'a> {
    /// Wrap a campaign outcome (builds the index on
    /// [`pool::available_workers`] workers).
    pub fn new(outcome: &'a CampaignOutcome) -> Datasets<'a> {
        Datasets::new_with(outcome, pool::available_workers())
    }

    /// [`new`](Self::new) with the index built over `workers` workers.
    pub(crate) fn new_with(outcome: &'a CampaignOutcome, workers: usize) -> Datasets<'a> {
        // Measure what the index costs in heap (its hash sets, candidate
        // slots, the chunk passes and the ordered maps it hands out), so
        // memory profiles can attribute it. Zero unless the counting
        // allocator is enabled.
        let aspan = topics_obs::AllocSpan::start();
        let (index, on_workers) = CampaignIndex::new_with(outcome, workers);
        Datasets {
            outcome,
            index,
            index_alloc: aspan.finish() + on_workers,
        }
    }

    /// Heap allocated while building the index (all-zero unless the
    /// counting allocator was enabled during construction): the
    /// calling thread's span plus the span of each chunk pass on its
    /// worker. The workers run side by side, so the peak is the
    /// caller's peak plus the sum of the workers' peaks, an upper bound
    /// of the joint peak.
    pub fn index_alloc(&self) -> topics_obs::AllocDelta {
        self.index_alloc
    }

    /// The underlying outcome.
    pub fn outcome(&self) -> &'a CampaignOutcome {
        self.outcome
    }

    /// The shared index.
    pub fn index(&self) -> &CampaignIndex<'a> {
        &self.index
    }

    /// Iterate over the visits of a dataset, with the ranked website.
    pub fn visits(&self, id: DatasetId) -> impl Iterator<Item = &'a VisitRecord> + '_ {
        self.index.visits(id).iter().copied()
    }

    /// Number of sites in a dataset.
    pub fn len(&self, id: DatasetId) -> usize {
        self.index.visits(id).len()
    }

    /// True when the dataset has no visits.
    pub fn is_empty(&self, id: DatasetId) -> bool {
        self.index.visits(id).is_empty()
    }

    /// All *executed* Topics calls of a dataset, paired with the website
    /// they happened on. Blocked calls (healthy allow-list setups) are
    /// excluded: the paper's instrumentation only sees executed calls.
    pub fn calls(
        &self,
        id: DatasetId,
    ) -> impl Iterator<Item = (&'a Domain, &'a TopicsCallRecord)> + '_ {
        self.index.calls(id).iter().copied()
    }

    /// Classify a calling party (registrable domain).
    pub fn classify(&self, cp: &Domain) -> CpClass {
        self.index.classify(cp)
    }

    /// Distinct calling parties (registrable domains) of a dataset.
    pub fn calling_parties(&self, id: DatasetId) -> BTreeSet<Domain> {
        self.index
            .calling_parties(id)
            .iter()
            .map(|d| (*d).clone())
            .collect()
    }

    /// Distinct third parties across D_BA (§2.4 quotes 19,534 in
    /// addition to the 43,405 first parties).
    pub fn unique_third_parties(&self) -> usize {
        self.index.unique_third_parties()
    }

    /// Median simulated page-load duration of a dataset, in ms.
    pub fn median_visit_duration_ms(&self, id: DatasetId) -> u64 {
        let mut d: Vec<u64> = self.visits(id).map(|v| v.duration_ms).collect();
        if d.is_empty() {
            return 0;
        }
        d.sort_unstable();
        d[d.len() / 2]
    }

    /// Per-outcome site counts (complete / degraded / failed). The
    /// analysis keeps degraded sites — partial data beats no data, as in
    /// the paper's own lossy crawl — but reports surface the count so
    /// rate-style results can be read with the right error bars.
    pub fn outcome_counts(&self) -> OutcomeCounts {
        self.outcome.outcome_counts()
    }

    /// Sites that entered the dataset despite fault-layer intervention
    /// (retries, a per-visit timeout, or a lost second visit).
    pub fn degraded_site_count(&self) -> usize {
        self.outcome
            .sites
            .iter()
            .filter(|s| s.outcome() == VisitOutcome::Degraded)
            .count()
    }

    /// Fraction of *visited* sites whose records are degraded — the
    /// number a report quotes next to any rate computed from D_BA/D_AA
    /// under fault injection.
    pub fn degraded_share(&self) -> f64 {
        let visited = self.outcome.visited_count();
        if visited == 0 {
            return 0.0;
        }
        self.degraded_site_count() as f64 / visited as f64
    }

    /// Share of a dataset's websites with at least one executed call
    /// from an Allowed∧Attested CP (§3: ≈45% for D_AA).
    pub fn legitimate_coverage(&self, id: DatasetId) -> f64 {
        let total = self.len(id);
        if total == 0 {
            return 0.0;
        }
        let covered = self
            .visits(id)
            .filter(|v| {
                v.topics_calls.iter().any(|c| {
                    c.permitted() && {
                        let class = self.classify(&c.caller_site);
                        class.allowed && class.attested
                    }
                })
            })
            .count();
        covered as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::tiny_outcome;

    #[test]
    fn datasets_split_visits_by_phase() {
        let outcome = tiny_outcome();
        let ds = Datasets::new(&outcome);
        assert_eq!(ds.len(DatasetId::BeforeAccept), 3);
        assert_eq!(ds.len(DatasetId::AfterAccept), 2);
        assert!(!ds.is_empty(DatasetId::BeforeAccept));
    }

    #[test]
    fn calls_are_filtered_to_permitted() {
        let outcome = tiny_outcome();
        let ds = Datasets::new(&outcome);
        // tiny_outcome has one blocked call in D_AA that must not count.
        let aa: Vec<_> = ds.calls(DatasetId::AfterAccept).collect();
        assert!(aa.iter().all(|(_, c)| c.permitted()));
    }

    #[test]
    fn classification_follows_outcome_labels() {
        let outcome = tiny_outcome();
        let ds = Datasets::new(&outcome);
        let allowed = Domain::parse("goodads.com").unwrap();
        assert_eq!(
            ds.classify(&allowed),
            CpClass {
                allowed: true,
                attested: true
            }
        );
        let rogue = Domain::parse("site-a.com").unwrap();
        assert_eq!(
            ds.classify(&rogue),
            CpClass {
                allowed: false,
                attested: false
            }
        );
    }

    #[test]
    fn degraded_sites_stay_in_the_dataset_but_are_counted() {
        let outcome = tiny_outcome();
        let ds = Datasets::new(&outcome);
        // site-b.ru carries retry stats: still a D_BA member…
        assert_eq!(ds.len(DatasetId::BeforeAccept), 3);
        // …but surfaced as degraded coverage.
        assert_eq!(ds.degraded_site_count(), 1);
        let counts = ds.outcome_counts();
        assert_eq!(counts.degraded, 1);
        assert_eq!(counts.failed, 1);
        assert_eq!(counts.total(), outcome.sites.len());
        let share = ds.degraded_share();
        assert!((share - 1.0 / 3.0).abs() < 1e-9, "{share}");
    }

    #[test]
    fn third_party_universe_counts_distinct_domains() {
        let outcome = tiny_outcome();
        let ds = Datasets::new(&outcome);
        // D_BA third parties: hubspot.com, googletagmanager.com and
        // violator.com on site-a.com, violator.com again on site-b.ru,
        // onetrust.com and goodads.com on site-c.de.
        assert_eq!(ds.unique_third_parties(), 5);
    }

    #[test]
    fn legitimate_coverage_counts_aa_sites_with_legit_calls() {
        let outcome = tiny_outcome();
        let ds = Datasets::new(&outcome);
        let cov = ds.legitimate_coverage(DatasetId::AfterAccept);
        assert!(cov > 0.0 && cov <= 1.0);
    }
}
