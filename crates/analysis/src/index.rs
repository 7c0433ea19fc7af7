//! The index over a campaign outcome.
//!
//! Every figure/table module used to re-scan all visits and re-derive
//! the Allowed/Attested classification with linear probes into
//! `allow_list` / `attestation_probes`. [`CampaignIndex`] materialises
//! all of that once — per-CP class sets, per-dataset visit and call
//! slices, per-CP presence/calling-site aggregates, and per-site CMP /
//! TLD-region tags — so `report` reads every site once instead of a
//! dozen times.
//!
//! The sites are cut into one contiguous chunk per worker of the
//! `topics_net::pool`, and the pass runs over each chunk on its own
//! worker. A visit never spans two chunks, so each chunk deduplicates
//! its visits with stamps and counters of its own; the chunks merge in
//! site order by concatenation, sums and unions, and the index is the
//! same for every worker count.
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
use topics_crawler::record::{CampaignOutcome, Phase, SiteOutcome, TopicsCallRecord, VisitRecord};
use topics_net::domain::Domain;
use topics_net::pool;
use topics_net::region::Region;
use topics_obs::{AllocDelta, AllocSpan};
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

/// Presence counters of the candidates, one per slot and dataset. A
/// slot's stamps name the last visit that counted it present and the
/// last visit it called on, so a visit counts each candidate once
/// however often its parties or callers repeat it.
struct Presence {
    counts: [Vec<PresenceCount>; 3],
    present_stamp: Vec<usize>,
    called_stamp: Vec<usize>,
}

impl Presence {
    fn new(slots: usize) -> Presence {
        Presence {
            counts: std::array::from_fn(|_| vec![PresenceCount::default(); slots]),
            present_stamp: vec![0; slots],
            called_stamp: vec![0; slots],
        }
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
    fn into_maps<'a>(
        self,
        candidates: &[&'a Domain],
        slot_of: &HashMap<&'a Domain, u32>,
    ) -> [BTreeMap<&'a Domain, PresenceCount>; 3] {
        self.counts.map(|counts| {
            candidates
                .iter()
                .map(|&d| (d, counts[slot_of[d] as usize]))
                .filter(|(_, c)| c.present > 0)
                .collect()
        })
    }
}

/// What the pass gathers from one contiguous chunk of sites. A visit
/// lies within one chunk, so the per-visit deduplication (the stamps,
/// the caller buffer) never crosses a chunk boundary, and chunks merge
/// by concatenation, sums and unions.
struct Chunk<'a> {
    visits: [Vec<&'a VisitRecord>; 3],
    calls: [Vec<(&'a Domain, &'a TopicsCallRecord)>; 3],
    /// Websites of each caller in visit order; a visit adds each of
    /// its distinct callers once.
    sites_of: [HashMap<&'a Domain, Vec<&'a Domain>>; 3],
    presence: Presence,
    ba_tags: Vec<VisitTags>,
    third_parties: HashSet<&'a Domain>,
}

impl<'a> Chunk<'a> {
    /// The pass over `sites`, with candidate slots from `slot_of`.
    fn scan(slot_of: &HashMap<&'a Domain, u32>, sites: &'a [SiteOutcome]) -> Chunk<'a> {
        let mut chunk = Chunk {
            visits: Default::default(),
            calls: Default::default(),
            sites_of: Default::default(),
            presence: Presence::new(slot_of.len()),
            ba_tags: Vec::new(),
            third_parties: HashSet::new(),
        };
        let mut visit_callers: Vec<&Domain> = Vec::new();
        let mut stamp = 0usize;
        for site in sites {
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
                chunk.visits[ds].push(v);
                stamp += 1;
                // Permitted callers of this visit, deduplicated — both
                // the presence `called` notion and the calling-site sets
                // count a CP once per visit.
                visit_callers.clear();
                for c in &v.topics_calls {
                    if c.permitted() {
                        chunk.calls[ds].push((&v.website, c));
                        visit_callers.push(&c.caller_site);
                    }
                }
                visit_callers.sort_unstable();
                visit_callers.dedup();
                for &caller in &visit_callers {
                    chunk.sites_of[ds]
                        .entry(caller)
                        .or_default()
                        .push(&v.website);
                    if let Some(&s) = slot_of.get(caller) {
                        chunk.presence.called(stamp, s);
                    }
                }
                for p in &v.party_domains {
                    if let Some(&s) = slot_of.get(p) {
                        chunk.presence.present(ds, stamp, s);
                    }
                }
                if ds == 0 {
                    chunk.third_parties.extend(v.third_parties());
                    chunk.ba_tags.push(VisitTags {
                        cmp: v.party_domains.iter().find_map(cmp_by_domain),
                        region: Region::of(&v.website),
                        questionable: !visit_callers.is_empty(),
                    });
                }
            }
        }
        chunk
    }

    /// Append `next`, the chunk of the sites that follow this chunk's.
    fn absorb(&mut self, next: Chunk<'a>) {
        for (mine, theirs) in self.visits.iter_mut().zip(next.visits) {
            mine.extend(theirs);
        }
        for (mine, theirs) in self.calls.iter_mut().zip(next.calls) {
            mine.extend(theirs);
        }
        for (mine, theirs) in self.sites_of.iter_mut().zip(next.sites_of) {
            for (caller, sites) in theirs {
                mine.entry(caller).or_default().extend(sites);
            }
        }
        for (mine, theirs) in self.presence.counts.iter_mut().zip(next.presence.counts) {
            for (sum, c) in mine.iter_mut().zip(theirs) {
                sum.present += c.present;
                sum.called += c.called;
            }
        }
        self.ba_tags.extend(next.ba_tags);
        self.third_parties.extend(next.third_parties);
    }
}

/// The class tests of one outcome, and the candidate slots every
/// chunk of the pass shares.
struct Classes<'a> {
    allowed: HashSet<&'a Domain>,
    attested: HashSet<&'a Domain>,
    candidates: Vec<&'a Domain>,
    slot_of: HashMap<&'a Domain, u32>,
}

impl<'a> Classes<'a> {
    fn new(outcome: &'a CampaignOutcome) -> Classes<'a> {
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
        // One dense slot per distinct candidate, in allow-list order.
        let mut slot_of: HashMap<&Domain, u32> = HashMap::with_capacity(candidates.len());
        for &d in &candidates {
            let next = u32::try_from(slot_of.len()).expect("fewer than 2^32 candidates");
            slot_of.entry(d).or_insert(next);
        }
        Classes {
            allowed,
            attested,
            candidates,
            slot_of,
        }
    }

    /// Merge the chunks of the pass, in site order, into the index.
    fn index(self, outcome: &'a CampaignOutcome, chunks: Vec<Chunk<'a>>) -> CampaignIndex<'a> {
        let mut chunks = chunks.into_iter();
        let mut merged = chunks
            .next()
            .unwrap_or_else(|| Chunk::scan(&self.slot_of, &[]));
        for chunk in chunks {
            merged.absorb(chunk);
        }
        let calling_sites: [BTreeMap<&Domain, BTreeSet<&Domain>>; 3] =
            merged.sites_of.map(|by_caller| {
                by_caller
                    .into_iter()
                    .map(|(cp, sites)| (cp, sites.into_iter().collect()))
                    .collect()
            });
        CampaignIndex {
            outcome,
            allowed: self.allowed,
            attested: self.attested,
            presence: merged.presence.into_maps(&self.candidates, &self.slot_of),
            candidates: self.candidates,
            visits: merged.visits,
            calls: merged.calls,
            calling_parties: std::array::from_fn(|s| calling_sites[s].keys().copied().collect()),
            calling_sites,
            ba_tags: merged.ba_tags,
            unique_third_parties: merged.third_parties.len(),
        }
    }
}

/// The campaign index. Borrows the outcome; build it once per analysis
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
    /// Build the index over the outcome on
    /// [`pool::available_workers`] workers.
    pub fn new(outcome: &'a CampaignOutcome) -> CampaignIndex<'a> {
        CampaignIndex::new_with(outcome, pool::available_workers()).0
    }

    /// [`new`](Self::new) over `workers` workers: one pass per
    /// contiguous chunk of sites (one chunk per worker), each with its
    /// own stamps, counters, caller maps and third-party set and the
    /// shared candidate slots, merged in chunk order. The index is the
    /// same for every worker count. Also returns the sum of the heap
    /// the chunk passes allocated, each measured on its own worker,
    /// where the caller's thread-local span cannot see it.
    pub(crate) fn new_with(
        outcome: &'a CampaignOutcome,
        workers: usize,
    ) -> (CampaignIndex<'a>, AllocDelta) {
        let classes = Classes::new(outcome);
        let scanned = pool::run(
            pool::chunks(&outcome.sites, workers),
            workers,
            None,
            |sites| {
                let span = AllocSpan::start();
                let chunk = Chunk::scan(&classes.slot_of, sites);
                (chunk, span.finish())
            },
        )
        .results;
        let (chunks, allocs): (Vec<Chunk<'a>>, Vec<AllocDelta>) = scanned.into_iter().unzip();
        (classes.index(outcome, chunks), allocs.into_iter().sum())
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
    use crate::dataset::Datasets;
    use crate::index_cases;
    use crate::testutil::{d, light_fault_campaign, tiny_outcome};

    /// Every field of two indexes over one outcome; visits and calls
    /// must be the same records, not equal copies.
    fn assert_same_index(a: &CampaignIndex<'_>, b: &CampaignIndex<'_>, tag: &str) {
        assert_eq!(a.allowed, b.allowed, "{tag}: allowed");
        assert_eq!(a.attested, b.attested, "{tag}: attested");
        assert_eq!(a.candidates, b.candidates, "{tag}: candidates");
        for ds in 0..3 {
            let same_visits = a.visits[ds].len() == b.visits[ds].len()
                && a.visits[ds]
                    .iter()
                    .zip(&b.visits[ds])
                    .all(|(x, y)| std::ptr::eq(*x, *y));
            assert!(same_visits, "{tag}: dataset {ds} visits");
            let same_calls = a.calls[ds].len() == b.calls[ds].len()
                && a.calls[ds]
                    .iter()
                    .zip(&b.calls[ds])
                    .all(|((w, c), (v, e))| std::ptr::eq(*w, *v) && std::ptr::eq(*c, *e));
            assert!(same_calls, "{tag}: dataset {ds} calls");
            assert_eq!(
                a.calling_parties[ds], b.calling_parties[ds],
                "{tag}: dataset {ds} calling parties"
            );
            assert_eq!(
                a.presence[ds], b.presence[ds],
                "{tag}: dataset {ds} presence"
            );
            assert_eq!(
                a.calling_sites[ds], b.calling_sites[ds],
                "{tag}: dataset {ds} calling sites"
            );
        }
        assert_eq!(a.ba_tags, b.ba_tags, "{tag}: tags");
        assert_eq!(
            a.unique_third_parties, b.unique_third_parties,
            "{tag}: third parties"
        );
    }

    #[test]
    fn every_worker_count_builds_the_one_worker_index() {
        let tiny = tiny_outcome();
        let mut cases = index_cases::cases();
        cases.push(("200-site light-fault campaign", light_fault_campaign()));
        cases.push((
            "empty outcome",
            CampaignOutcome {
                sites: vec![],
                ..tiny.clone()
            },
        ));
        cases.push(("fewer sites than workers", tiny));
        for (tag, o) in &cases {
            let (want, _) = CampaignIndex::new_with(o, 1);
            for workers in [1, 2, 3, 8] {
                let (got, _) = CampaignIndex::new_with(o, workers);
                assert_same_index(&want, &got, &format!("{tag}, {workers} workers"));
            }
        }
    }

    /// `Datasets::index_alloc` must see the chunk passes, which run on
    /// pool workers whose allocations the caller's thread-local span
    /// misses: the pooled build counts at least what the same build
    /// on the calling thread counts, and more chunks count no less.
    #[test]
    fn index_alloc_counts_the_chunk_passes_on_the_workers() {
        let o = light_fault_campaign();
        topics_obs::alloc::set_enabled(true);
        let span = AllocSpan::start();
        let classes = Classes::new(&o);
        let chunk = Chunk::scan(&classes.slot_of, &o.sites);
        drop(classes.index(&o, vec![chunk]));
        let in_thread = span.finish();
        let one = Datasets::new_with(&o, 1).index_alloc();
        let two = Datasets::new_with(&o, 2).index_alloc();
        topics_obs::alloc::set_enabled(false);
        assert!(in_thread.alloc_count > 0, "counting is on");
        assert!(
            one.alloc_count >= in_thread.alloc_count,
            "1 worker counted {} allocations, the calling thread {}",
            one.alloc_count,
            in_thread.alloc_count
        );
        assert!(
            two.alloc_count >= one.alloc_count,
            "2 workers counted {} allocations, 1 worker {}",
            two.alloc_count,
            one.alloc_count
        );
    }

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
