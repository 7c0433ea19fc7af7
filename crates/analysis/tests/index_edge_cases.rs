//! Index edge cases the crawl never produces.
//!
//! `VisitRecord::assemble` deduplicates a visit's party domains, so
//! the real campaign behind `index_equivalence` never repeats a party,
//! and it never runs the opt-out (After-Reject) visit. Hand-built
//! outcomes can do both. Each case here is checked field by field
//! against the pre-index direct scans (the same definitions
//! `index_equivalence` reimplements), both as built — every domain its
//! own allocation, as in a live crawl — and after a round trip through
//! `campaign.col`, whose decoded rows share one allocation per domain.

use std::collections::{BTreeMap, BTreeSet};

#[path = "support/index_cases.rs"]
mod index_cases;

use index_cases::{cases, d};
use topics_analysis::dataset::{CpClass, DatasetId};
use topics_analysis::{CampaignIndex, PresenceCount, VisitTags};
use topics_crawler::columnar::ColumnarCampaign;
use topics_crawler::record::{CampaignOutcome, Phase, TopicsCallRecord, VisitRecord};
use topics_net::domain::Domain;
use topics_net::region::Region;
use topics_webgen::cmp::cmp_by_domain;

const ALL_DATASETS: [DatasetId; 3] = [
    DatasetId::BeforeAccept,
    DatasetId::AfterAccept,
    DatasetId::AfterReject,
];

// ---------------------------------------------------------------------
// Direct scans over the raw outcome, as before the index existed.
// ---------------------------------------------------------------------

fn legacy_visits(o: &CampaignOutcome, id: DatasetId) -> Vec<&VisitRecord> {
    o.sites
        .iter()
        .filter_map(move |s| match id {
            DatasetId::BeforeAccept => s.before.as_ref(),
            DatasetId::AfterAccept => s.after.as_ref().filter(|v| v.phase == Phase::AfterAccept),
            DatasetId::AfterReject => s.after.as_ref().filter(|v| v.phase == Phase::AfterReject),
        })
        .collect()
}

fn legacy_calls(o: &CampaignOutcome, id: DatasetId) -> Vec<(&Domain, &TopicsCallRecord)> {
    legacy_visits(o, id)
        .into_iter()
        .flat_map(|v| {
            v.topics_calls
                .iter()
                .filter(|c| c.permitted())
                .map(move |c| (&v.website, c))
        })
        .collect()
}

fn legacy_calling_sites(o: &CampaignOutcome, id: DatasetId) -> BTreeMap<Domain, BTreeSet<Domain>> {
    let mut sites: BTreeMap<Domain, BTreeSet<Domain>> = BTreeMap::new();
    for (website, c) in legacy_calls(o, id) {
        sites
            .entry(c.caller_site.clone())
            .or_default()
            .insert(website.clone());
    }
    sites
}

fn legacy_presence(o: &CampaignOutcome, id: DatasetId) -> BTreeMap<Domain, PresenceCount> {
    let candidates: Vec<&Domain> = o.allow_list.iter().filter(|d| o.is_attested(d)).collect();
    let mut presence = BTreeMap::new();
    for v in legacy_visits(o, id) {
        for cp in &candidates {
            if v.has_party(cp) {
                let e: &mut PresenceCount = presence.entry((*cp).clone()).or_default();
                e.present += 1;
                if v.topics_calls
                    .iter()
                    .any(|c| c.permitted() && c.caller_site == **cp)
                {
                    e.called += 1;
                }
            }
        }
    }
    presence
}

fn legacy_ba_tags(o: &CampaignOutcome) -> Vec<VisitTags> {
    legacy_visits(o, DatasetId::BeforeAccept)
        .into_iter()
        .map(|v| VisitTags {
            cmp: v.party_domains.iter().find_map(cmp_by_domain),
            region: Region::of(&v.website),
            questionable: v.topics_calls.iter().any(|c| c.permitted()),
        })
        .collect()
}

fn legacy_unique_third_parties(o: &CampaignOutcome) -> usize {
    let mut set = BTreeSet::new();
    for v in legacy_visits(o, DatasetId::BeforeAccept) {
        set.extend(v.third_parties().cloned());
    }
    set.len()
}

fn owned<'a>(domains: impl IntoIterator<Item = &'a Domain>) -> Vec<Domain> {
    domains.into_iter().cloned().collect()
}

/// Every accessor of the index against its direct scan.
fn assert_index_matches_scans(tag: &str, o: &CampaignOutcome) {
    let idx = CampaignIndex::new(o);
    let candidates: Vec<&Domain> = o.allow_list.iter().filter(|d| o.is_attested(d)).collect();
    assert_eq!(idx.candidates(), candidates.as_slice(), "{tag}: candidates");
    for id in ALL_DATASETS {
        let visits = legacy_visits(o, id);
        assert_eq!(idx.visits(id).len(), visits.len(), "{tag}: {id:?} visits");
        assert!(
            idx.visits(id)
                .iter()
                .zip(&visits)
                .all(|(a, b)| std::ptr::eq(*a, *b)),
            "{tag}: {id:?} visit order"
        );
        let calls: Vec<_> = idx
            .calls(id)
            .iter()
            .map(|(w, c)| ((*w).clone(), (*c).clone()))
            .collect();
        let want: Vec<_> = legacy_calls(o, id)
            .into_iter()
            .map(|(w, c)| (w.clone(), c.clone()))
            .collect();
        assert_eq!(calls, want, "{tag}: {id:?} calls");
        let sites = legacy_calling_sites(o, id);
        assert_eq!(
            owned(idx.calling_parties(id).iter().copied()),
            owned(sites.keys()),
            "{tag}: {id:?} calling parties"
        );
        let got: BTreeMap<Domain, BTreeSet<Domain>> = idx
            .calling_sites(id)
            .iter()
            .map(|(cp, s)| ((*cp).clone(), s.iter().map(|w| (*w).clone()).collect()))
            .collect();
        assert_eq!(got, sites, "{tag}: {id:?} calling sites");
        let got: BTreeMap<Domain, PresenceCount> = idx
            .presence(id)
            .iter()
            .map(|(cp, c)| ((*cp).clone(), *c))
            .collect();
        assert_eq!(got, legacy_presence(o, id), "{tag}: {id:?} presence");
    }
    assert_eq!(idx.ba_tags(), legacy_ba_tags(o).as_slice(), "{tag}: tags");
    assert_eq!(
        idx.unique_third_parties(),
        legacy_unique_third_parties(o),
        "{tag}: third parties"
    );
    let mut everyone: BTreeSet<&Domain> = o.allow_list.iter().collect();
    everyone.extend(o.attestation_probes.iter().map(|p| &p.domain));
    for v in o.sites.iter().flat_map(|s| s.before.iter().chain(&s.after)) {
        everyone.extend(&v.party_domains);
        everyone.extend(v.topics_calls.iter().map(|c| &c.caller_site));
    }
    for domain in everyone {
        let want = CpClass {
            allowed: o.is_allowed(domain),
            attested: o.is_attested(domain),
        };
        assert_eq!(idx.classify(domain), want, "{tag}: class of {domain}");
    }
}

#[test]
fn index_matches_direct_scans_on_hand_built_edge_cases() {
    for (tag, o) in cases() {
        assert_index_matches_scans(tag, &o);
        let stored = ColumnarCampaign::from_outcome(&o)
            .to_outcome()
            .expect("store round trip");
        assert_index_matches_scans(&format!("{tag} (stored)"), &stored);
    }
}

#[test]
fn edge_cases_exercise_what_they_claim() {
    let cases = cases();
    let idx = |i: usize| CampaignIndex::new(&cases[i].1);
    let goodads = d("goodads.com");

    // A party repeated within a visit counts once, a repeated third
    // party once.
    let repeated = idx(0);
    let aa = repeated.presence(DatasetId::AfterAccept)[&goodads];
    assert_eq!((aa.present, aa.called), (1, 1));
    assert_eq!(repeated.unique_third_parties(), 2);

    // The first party is not a third party, yet counts as present.
    let first = idx(1);
    assert_eq!(first.unique_third_parties(), 4);
    let adsfirst = d("adsfirst.com");
    let ba = first.presence(DatasetId::BeforeAccept);
    assert_eq!((ba[&adsfirst].present, ba[&adsfirst].called), (2, 1));
    assert_eq!((ba[&goodads].present, ba[&goodads].called), (2, 1));

    // The first CMP in page order wins, wherever it is listed.
    let cmps: Vec<Option<&str>> = idx(2)
        .ba_tags()
        .iter()
        .map(|t| t.cmp.map(|c| c.spec().name))
        .collect();
    assert_eq!(cmps, [Some("HubSpot"), Some("Cookiebot"), None]);

    // One calling site per visit, however often the caller calls.
    let twice = idx(3);
    assert_eq!(twice.calls(DatasetId::BeforeAccept).len(), 6);
    assert_eq!(
        twice.calling_sites(DatasetId::BeforeAccept)[&goodads].len(),
        2
    );
    assert_eq!(
        twice.presence(DatasetId::BeforeAccept)[&goodads],
        PresenceCount {
            present: 2,
            called: 2
        }
    );

    // After-Reject visits form their own dataset.
    let reject = idx(4);
    assert_eq!(reject.visits(DatasetId::AfterReject).len(), 2);
    assert_eq!(reject.visits(DatasetId::AfterAccept).len(), 1);
    assert_eq!(reject.calling_parties(DatasetId::AfterReject).len(), 3);
    assert_eq!(
        reject.presence(DatasetId::AfterReject)[&d("quiet.org")],
        PresenceCount {
            present: 1,
            called: 1
        }
    );

    // The first and last sites share a caller and a third party; a
    // candidate appears on the last site only.
    let seams = idx(5);
    assert_eq!(
        owned(
            seams.calling_sites(DatasetId::BeforeAccept)[&goodads]
                .iter()
                .copied()
        ),
        [d("shop.com"), d("store.ru")]
    );
    assert_eq!(seams.unique_third_parties(), 4);
    for id in [DatasetId::BeforeAccept, DatasetId::AfterAccept] {
        assert_eq!(
            seams.presence(id)[&d("quiet.org")],
            PresenceCount {
                present: 1,
                called: 1
            },
            "{id:?}"
        );
    }
}
