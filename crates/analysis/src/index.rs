//! One-pass index over a campaign outcome.
//!
//! Every figure/table module used to re-scan all visits and re-derive
//! the Allowed/Attested classification with linear probes into
//! `allow_list` / `attestation_probes`. [`CampaignIndex`] materialises
//! all of that once — per-CP class sets, per-dataset visit and call
//! slices, per-CP presence/calling-site aggregates, and per-site CMP /
//! TLD-region tags — so `report` pays a single pass instead of a dozen.
//!
//! The pass does no per-occurrence work in ordered string sets:
//!
//! - the allowed, attested and candidate tests are hash sets, so
//!   [`CampaignIndex::classify`] is O(1);
//! - each Allowed∧Attested candidate owns a dense counter slot per
//!   dataset, and per-slot visit stamps count it once per visit;
//! - a visit's callers are sorted and deduplicated in one reused
//!   buffer;
//! - distinct D_BA third parties are counted in one hash set;
//! - the domain-ordered maps and sets the accessors return are built
//!   once, at the end.
//!
//! Every lookup is by the domain's text, never by its allocation: a
//! live crawl gives every visit's parties fresh allocations, a decoded
//! store shares one per domain, and both must index alike.
//!
//! Nothing is keyed by an id of its own, so the index needs no intern
//! table: it borrows the outcome's domains, and the store's ids never
//! leak into an aggregate.
//!
//! Every aggregate is defined to reproduce the direct computation bit
//! for bit (see the `index_equivalence` and `index_edge_cases`
//! integration suites).

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use topics_crawler::record::{CampaignOutcome, Phase, TopicsCallRecord, VisitRecord};
use topics_net::domain::Domain;
use topics_net::region::Region;
use topics_webgen::cmp::{cmp_by_domain, CmpId};

use crate::dataset::{CpClass, DatasetId};

/// Presence aggregate of one Allowed∧Attested CP in one dataset.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PresenceCount {
    /// Websites where the CP was present (the Figure 2 notion).
    pub present: usize,
    /// Of those, websites where it also called the API.
    pub called: usize,
}

/// Per-visit tags of a Before-Accept visit (aligned with
/// [`CampaignIndex::visits`] for [`DatasetId::BeforeAccept`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VisitTags {
    /// First CMP domain among the page objects, Wappalyzer-style.
    pub cmp: Option<CmpId>,
    /// TLD-derived website region.
    pub region: Region,
    /// At least one executed Topics call on the visit.
    pub questionable: bool,
}

fn dataset_slot(id: DatasetId) -> usize {
    match id {
        DatasetId::BeforeAccept => 0,
        DatasetId::AfterAccept => 1,
        DatasetId::AfterReject => 2,
    }
}

/// Presence counters of the candidates, one slot per distinct
/// Allowed∧Attested domain. A slot's stamps name the last visit that
/// counted it present and the last visit it called on, so a visit
/// counts each candidate once however often its parties or callers
/// repeat it.
struct CandidateSlots<'a> {
    slot_of: HashMap<&'a Domain, u32>,
    counts: [Vec<PresenceCount>; 3],
    present_stamp: Vec<usize>,
    called_stamp: Vec<usize>,
}

impl<'a> CandidateSlots<'a> {
    fn new(candidates: &[&'a Domain]) -> CandidateSlots<'a> {
        let mut slot_of: HashMap<&Domain, u32> = HashMap::with_capacity(candidates.len());
        for &d in candidates {
            let next = u32::try_from(slot_of.len()).expect("fewer than 2^32 candidates");
            slot_of.entry(d).or_insert(next);
        }
        let n = slot_of.len();
        CandidateSlots {
            slot_of,
            counts: std::array::from_fn(|_| vec![PresenceCount::default(); n]),
            present_stamp: vec![0; n],
            called_stamp: vec![0; n],
        }
    }

    /// The slot of a candidate domain.
    fn slot(&self, d: &Domain) -> Option<u32> {
        self.slot_of.get(d).copied()
    }

    /// Candidate `s` called on visit `stamp` (unique per visit, never 0).
    fn called(&mut self, stamp: usize, s: u32) {
        self.called_stamp[s as usize] = stamp;
    }

    /// Candidate `s` is a party of visit `stamp` in dataset `ds`; only
    /// the first sighting per visit counts.
    fn present(&mut self, ds: usize, stamp: usize, s: u32) {
        let s = s as usize;
        if self.present_stamp[s] != stamp {
            self.present_stamp[s] = stamp;
            let e = &mut self.counts[ds][s];
            e.present += 1;
            if self.called_stamp[s] == stamp {
                e.called += 1;
            }
        }
    }

    /// The per-dataset presence maps, holding only candidates present
    /// at least once.
    fn into_maps(self, candidates: &[&'a Domain]) -> [BTreeMap<&'a Domain, PresenceCount>; 3] {
        let slot_of = &self.slot_of;
        self.counts.map(|counts| {
            candidates
                .iter()
                .map(|&d| (d, counts[slot_of[d] as usize]))
                .filter(|(_, c)| c.present > 0)
                .collect()
        })
    }
}

/// The one-pass index. Borrows the outcome; build it once per analysis
/// session (``Datasets::new`` does) and let every consumer share it.
pub struct CampaignIndex<'a> {
    outcome: &'a CampaignOutcome,
    allowed: HashSet<&'a Domain>,
    attested: HashSet<&'a Domain>,
    /// Allowed∧Attested domains in allow-list order (the Figure 2
    /// candidate set).
    candidates: Vec<&'a Domain>,
    visits: [Vec<&'a VisitRecord>; 3],
    calls: [Vec<(&'a Domain, &'a TopicsCallRecord)>; 3],
    calling_parties: [BTreeSet<&'a Domain>; 3],
    presence: [BTreeMap<&'a Domain, PresenceCount>; 3],
    calling_sites: [BTreeMap<&'a Domain, BTreeSet<&'a Domain>>; 3],
    ba_tags: Vec<VisitTags>,
    unique_third_parties: usize,
}

impl<'a> CampaignIndex<'a> {
    /// Build the index in one pass over the outcome.
    pub fn new(outcome: &'a CampaignOutcome) -> CampaignIndex<'a> {
        let allowed: HashSet<&Domain> = outcome.allow_list.iter().collect();
        let attested: HashSet<&Domain> = outcome
            .attestation_probes
            .iter()
            .filter(|p| p.valid.is_some())
            .map(|p| &p.domain)
            .collect();
        let candidates: Vec<&Domain> = outcome
            .allow_list
            .iter()
            .filter(|d| attested.contains(d))
            .collect();
        let mut slots = CandidateSlots::new(&candidates);

        let mut visits: [Vec<&VisitRecord>; 3] = Default::default();
        let mut calls: [Vec<(&Domain, &TopicsCallRecord)>; 3] = Default::default();
        // Websites of each caller in visit order; a visit adds each of
        // its distinct callers once.
        let mut sites_of: [HashMap<&Domain, Vec<&Domain>>; 3] = Default::default();
        let mut ba_tags: Vec<VisitTags> = Vec::new();
        let mut third_parties: HashSet<&Domain> = HashSet::new();
        let mut visit_callers: Vec<&Domain> = Vec::new();
        let mut stamp = 0usize;

        for site in &outcome.sites {
            let classified =
                site.before
                    .iter()
                    .map(|v| (v, 0usize))
                    .chain(site.after.iter().filter_map(|v| match v.phase {
                        Phase::AfterAccept => Some((v, 1)),
                        Phase::AfterReject => Some((v, 2)),
                        Phase::BeforeAccept => None,
                    }));
            for (v, ds) in classified {
                visits[ds].push(v);
                stamp += 1;
                // Permitted callers of this visit, deduplicated — both
                // the presence `called` notion and the calling-site sets
                // count a CP once per visit.
                visit_callers.clear();
                for c in &v.topics_calls {
                    if c.permitted() {
                        calls[ds].push((&v.website, c));
                        visit_callers.push(&c.caller_site);
                    }
                }
                visit_callers.sort_unstable();
                visit_callers.dedup();
                for &caller in &visit_callers {
                    sites_of[ds].entry(caller).or_default().push(&v.website);
                    if let Some(s) = slots.slot(caller) {
                        slots.called(stamp, s);
                    }
                }
                for p in &v.party_domains {
                    if let Some(s) = slots.slot(p) {
                        slots.present(ds, stamp, s);
                    }
                }
                if ds == 0 {
                    third_parties.extend(v.third_parties());
                    ba_tags.push(VisitTags {
                        cmp: v.party_domains.iter().find_map(cmp_by_domain),
                        region: Region::of(&v.website),
                        questionable: !visit_callers.is_empty(),
                    });
                }
            }
        }

        let calling_sites: [BTreeMap<&Domain, BTreeSet<&Domain>>; 3] = sites_of.map(|by_caller| {
            by_caller
                .into_iter()
                .map(|(cp, sites)| (cp, sites.into_iter().collect()))
                .collect()
        });
        CampaignIndex {
            outcome,
            allowed,
            attested,
            presence: slots.into_maps(&candidates),
            candidates,
            visits,
            calls,
            calling_parties: std::array::from_fn(|s| calling_sites[s].keys().copied().collect()),
            calling_sites,
            ba_tags,
            unique_third_parties: third_parties.len(),
        }
    }

    /// The underlying outcome.
    pub fn outcome(&self) -> &'a CampaignOutcome {
        self.outcome
    }

    /// Whether a domain is on the allow-list.
    pub fn is_allowed(&self, d: &Domain) -> bool {
        self.allowed.contains(d)
    }

    /// Whether a domain served a valid attestation.
    pub fn is_attested(&self, d: &Domain) -> bool {
        self.attested.contains(d)
    }

    /// Two-axis CP classification, O(1).
    pub fn classify(&self, d: &Domain) -> CpClass {
        CpClass {
            allowed: self.is_allowed(d),
            attested: self.is_attested(d),
        }
    }

    /// Allowed∧Attested domains in allow-list order — Figure 2's
    /// candidate CPs.
    pub fn candidates(&self) -> &[&'a Domain] {
        &self.candidates
    }

    /// The visits of one dataset, in site-rank order.
    pub fn visits(&self, id: DatasetId) -> &[&'a VisitRecord] {
        &self.visits[dataset_slot(id)]
    }

    /// Every executed call of one dataset with its website, in visit
    /// order.
    pub fn calls(&self, id: DatasetId) -> &[(&'a Domain, &'a TopicsCallRecord)] {
        &self.calls[dataset_slot(id)]
    }

    /// Distinct calling parties of one dataset.
    pub fn calling_parties(&self, id: DatasetId) -> &BTreeSet<&'a Domain> {
        &self.calling_parties[dataset_slot(id)]
    }

    /// Per-candidate presence/called counts of one dataset.
    pub fn presence(&self, id: DatasetId) -> &BTreeMap<&'a Domain, PresenceCount> {
        &self.presence[dataset_slot(id)]
    }

    /// Per-CP distinct websites with an executed call, one dataset.
    pub fn calling_sites(&self, id: DatasetId) -> &BTreeMap<&'a Domain, BTreeSet<&'a Domain>> {
        &self.calling_sites[dataset_slot(id)]
    }

    /// Per-visit CMP/region/questionable tags of the Before-Accept
    /// dataset, aligned with `visits(BeforeAccept)`.
    pub fn ba_tags(&self) -> &[VisitTags] {
        &self.ba_tags
    }

    /// Distinct third parties across D_BA.
    pub fn unique_third_parties(&self) -> usize {
        self.unique_third_parties
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{d, tiny_outcome};

    #[test]
    fn class_sets_match_linear_scans() {
        let outcome = tiny_outcome();
        let idx = CampaignIndex::new(&outcome);
        let mut everyone: BTreeSet<Domain> = outcome.allow_list.iter().cloned().collect();
        everyone.extend(outcome.attestation_probes.iter().map(|p| p.domain.clone()));
        everyone.insert(d("site-a.com"));
        for domain in &everyone {
            assert_eq!(idx.is_allowed(domain), outcome.is_allowed(domain));
            assert_eq!(idx.is_attested(domain), outcome.is_attested(domain));
        }
    }

    #[test]
    fn visit_and_call_slices_follow_site_order() {
        let outcome = tiny_outcome();
        let idx = CampaignIndex::new(&outcome);
        assert_eq!(idx.visits(DatasetId::BeforeAccept).len(), 3);
        assert_eq!(idx.visits(DatasetId::AfterAccept).len(), 2);
        assert!(idx.visits(DatasetId::AfterReject).is_empty());
        assert!(idx
            .calls(DatasetId::AfterAccept)
            .iter()
            .all(|(_, c)| c.permitted()));
    }

    #[test]
    fn presence_counts_match_has_party() {
        let outcome = tiny_outcome();
        let idx = CampaignIndex::new(&outcome);
        let goodads = d("goodads.com");
        let aa = idx.presence(DatasetId::AfterAccept);
        let counts = aa[&goodads];
        let mut present = 0;
        let mut called = 0;
        for v in idx.visits(DatasetId::AfterAccept) {
            if v.has_party(&goodads) {
                present += 1;
                if v.topics_calls
                    .iter()
                    .any(|c| c.permitted() && c.caller_site == goodads)
                {
                    called += 1;
                }
            }
        }
        assert_eq!(counts.present, present);
        assert_eq!(counts.called, called);
    }

    #[test]
    fn ba_tags_align_with_visits() {
        let outcome = tiny_outcome();
        let idx = CampaignIndex::new(&outcome);
        let visits = idx.visits(DatasetId::BeforeAccept);
        let tags = idx.ba_tags();
        assert_eq!(visits.len(), tags.len());
        for (v, t) in visits.iter().zip(tags) {
            assert_eq!(t.region, Region::of(&v.website));
            assert_eq!(t.cmp, v.party_domains.iter().find_map(cmp_by_domain));
            assert_eq!(t.questionable, v.topics_calls.iter().any(|c| c.permitted()));
        }
    }
}
