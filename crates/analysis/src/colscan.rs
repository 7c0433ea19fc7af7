//! Column-native analysis: the [`CampaignIndex`](crate::index::CampaignIndex)
//! aggregates computed straight from a [`ColumnarCampaign`]'s columns,
//! without materialising row-struct records.
//!
//! The report path decodes `campaign.col` → row structs → one-pass
//! index. A column scan can skip the middle step: every aggregate the
//! figures consume is a scan over a handful of columns plus id-space
//! set operations against the intern table — allocation happens only
//! for the final domain-keyed maps, and domains are `Arc`-cloned out of
//! the arena. The `integration_store` suite proves each field equals
//! the row-struct index bit for bit.

use std::collections::{BTreeMap, BTreeSet};
use topics_crawler::columnar::{ColumnarCampaign, ColumnarError};
use topics_crawler::record::{OutcomeCounts, Phase};
use topics_net::domain::Domain;

use crate::index::PresenceCount;

/// The index aggregates, owned (domains are cheap `Arc` clones of the
/// store's arena). Field order mirrors `CampaignIndex`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnIndex {
    /// Allowed∧Attested domains in allow-list order (the Figure 2
    /// candidate set).
    pub candidates: Vec<Domain>,
    /// Visits per dataset (D_BA / D_AA / D_AR).
    pub visit_counts: [usize; 3],
    /// Executed calls per dataset.
    pub call_counts: [usize; 3],
    /// Distinct calling parties per dataset.
    pub calling_parties: [BTreeSet<Domain>; 3],
    /// Per-candidate presence/called counts per dataset.
    pub presence: [BTreeMap<Domain, PresenceCount>; 3],
    /// Per-CP distinct websites with an executed call, per dataset.
    pub calling_sites: [BTreeMap<Domain, BTreeSet<Domain>>; 3],
    /// Distinct third parties across D_BA.
    pub unique_third_parties: usize,
    /// Before-Accept visits with at least one executed call (the
    /// questionable-visit count behind Figure 5).
    pub questionable_ba_visits: usize,
    /// Per-health site counts.
    pub outcome_counts: OutcomeCounts,
}

/// Scan the columns into a [`ColumnIndex`].
///
/// Dataset membership follows the index's rule: a site's `before` visit
/// lands in D_BA, its `after` visit in D_AA or D_AR by phase. Sets are
/// accumulated in id space (bit vectors / id sets over the intern
/// table) and only converted to domain keys at the end.
pub fn scan(store: &ColumnarCampaign) -> Result<ColumnIndex, ColumnarError> {
    let arena = store.domains()?;
    let n = arena.len();

    let probes = store.probe_scan()?;
    let mut attested = vec![false; n];
    for (i, (_, valid)) in probes.iter().enumerate() {
        if valid.is_some() {
            attested[probes.domain_id(i) as usize] = true;
        }
    }
    let allow = store.allow_ids()?;
    let mut candidate_mask = vec![false; n];
    let mut candidates: Vec<Domain> = Vec::new();
    for &id in allow {
        if attested[id as usize] {
            candidate_mask[id as usize] = true;
            candidates.push(arena[id as usize].clone());
        }
    }

    let sites = store.sites()?;
    let visits = store.visits()?;
    let calls = store.calls()?;

    let mut visit_counts = [0usize; 3];
    let mut call_counts = [0usize; 3];
    let mut calling_parties: [BTreeSet<u32>; 3] = Default::default();
    let mut presence: [BTreeMap<u32, PresenceCount>; 3] = Default::default();
    let mut calling_sites: [BTreeMap<u32, BTreeSet<Domain>>; 3] = Default::default();
    let mut third_parties: BTreeSet<u32> = BTreeSet::new();
    let mut questionable_ba_visits = 0usize;
    let mut outcome_counts = OutcomeCounts::default();

    for site in sites.iter() {
        match (site.before, site.faults.is_zero()) {
            (None, _) => outcome_counts.failed += 1,
            (Some(_), true) => outcome_counts.complete += 1,
            (Some(_), false) => outcome_counts.degraded += 1,
        }
        let slotted = site.before.map(|idx| (idx, 0usize)).into_iter().chain(
            site.after
                .into_iter()
                .filter_map(|idx| match visits.get(idx).phase() {
                    Phase::AfterAccept => Some((idx, 1)),
                    Phase::AfterReject => Some((idx, 2)),
                    Phase::BeforeAccept => None,
                }),
        );
        for (idx, slot) in slotted {
            let v = visits.get(idx);
            visit_counts[slot] += 1;
            let website = v.website();
            let mut visit_callers: BTreeSet<u32> = BTreeSet::new();
            for c in calls.range(v.call_range()) {
                if c.permitted() {
                    call_counts[slot] += 1;
                    let caller_site = c.caller_site_id();
                    calling_parties[slot].insert(caller_site);
                    visit_callers.insert(caller_site);
                    calling_sites[slot]
                        .entry(caller_site)
                        .or_default()
                        .insert(website.clone());
                }
            }
            let page_parties: BTreeSet<u32> = v.party_ids().iter().copied().collect();
            for &p in &page_parties {
                if candidate_mask[p as usize] {
                    let e = presence[slot].entry(p).or_default();
                    e.present += 1;
                    if visit_callers.contains(&p) {
                        e.called += 1;
                    }
                }
            }
            if slot == 0 {
                let final_website = v.final_website();
                for &p in &page_parties {
                    let d = &arena[p as usize];
                    if d != website && d != final_website {
                        third_parties.insert(p);
                    }
                }
                if !visit_callers.is_empty() {
                    questionable_ba_visits += 1;
                }
            }
        }
    }

    let to_domains = |ids: &BTreeSet<u32>| -> BTreeSet<Domain> {
        ids.iter().map(|&id| arena[id as usize].clone()).collect()
    };
    Ok(ColumnIndex {
        candidates,
        visit_counts,
        call_counts,
        calling_parties: [
            to_domains(&calling_parties[0]),
            to_domains(&calling_parties[1]),
            to_domains(&calling_parties[2]),
        ],
        presence: std::array::from_fn(|s| {
            presence[s]
                .iter()
                .map(|(&id, &c)| (arena[id as usize].clone(), c))
                .collect()
        }),
        calling_sites: std::array::from_fn(|s| {
            calling_sites[s]
                .iter()
                .map(|(&id, sites)| (arena[id as usize].clone(), sites.clone()))
                .collect()
        }),
        unique_third_parties: third_parties.len(),
        questionable_ba_visits,
        outcome_counts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetId;
    use crate::index::CampaignIndex;
    use crate::testutil::tiny_outcome;

    const DATASETS: [DatasetId; 3] = [
        DatasetId::BeforeAccept,
        DatasetId::AfterAccept,
        DatasetId::AfterReject,
    ];

    #[test]
    fn column_scan_matches_row_index() {
        let outcome = tiny_outcome();
        let idx = CampaignIndex::new(&outcome);
        let store = ColumnarCampaign::from_outcome(&outcome);
        let col = scan(&store).unwrap();

        let want_candidates: Vec<Domain> = idx.candidates().iter().map(|d| (*d).clone()).collect();
        assert_eq!(col.candidates, want_candidates);
        for (slot, id) in DATASETS.into_iter().enumerate() {
            assert_eq!(
                col.visit_counts[slot],
                idx.visits(id).len(),
                "{id:?} visits"
            );
            assert_eq!(col.call_counts[slot], idx.calls(id).len(), "{id:?} calls");
            let want_parties: BTreeSet<Domain> = idx
                .calling_parties(id)
                .iter()
                .map(|d| (*d).clone())
                .collect();
            assert_eq!(col.calling_parties[slot], want_parties, "{id:?} parties");
            let want_presence: BTreeMap<Domain, PresenceCount> = idx
                .presence(id)
                .iter()
                .map(|(d, c)| ((*d).clone(), *c))
                .collect();
            assert_eq!(col.presence[slot], want_presence, "{id:?} presence");
            let want_sites: BTreeMap<Domain, BTreeSet<Domain>> = idx
                .calling_sites(id)
                .iter()
                .map(|(d, s)| ((*d).clone(), s.iter().map(|w| (*w).clone()).collect()))
                .collect();
            assert_eq!(col.calling_sites[slot], want_sites, "{id:?} calling sites");
        }
        assert_eq!(col.unique_third_parties, idx.unique_third_parties());
        assert_eq!(
            col.questionable_ba_visits,
            idx.ba_tags().iter().filter(|t| t.questionable).count()
        );
        assert_eq!(col.outcome_counts, outcome.outcome_counts());
    }

    #[test]
    fn scan_spot_checks_on_the_fixture() {
        let outcome = tiny_outcome();
        let store = ColumnarCampaign::from_outcome(&outcome);
        let col = scan(&store).unwrap();
        // goodads.com and violator.com are allowed and attested;
        // unattested-ads.com fails attestation.
        assert_eq!(col.candidates.len(), 2);
        assert_eq!(col.visit_counts, [3, 2, 0]);
        // Two questionable BA visits (violator.com calls on a and b).
        assert_eq!(col.questionable_ba_visits, 2);
        assert_eq!(col.outcome_counts.failed, 1);
        assert_eq!(col.outcome_counts.degraded, 1);
    }
}
