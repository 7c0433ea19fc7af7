//! Hand-built miniature campaign outcomes for unit tests.
//!
//! Integration tests exercise the real crawl pipeline; these fixtures
//! keep the per-module unit tests fast and targeted.

use topics_browser::attestation::AllowDecision;
use topics_browser::observer::CallType;
use topics_crawler::record::{
    AttestationInfo, AttestationProbe, CampaignOutcome, FaultStats, Phase, SiteOutcome,
    TopicsCallRecord, VisitRecord, CAMPAIGN_SCHEMA_VERSION,
};
use topics_net::clock::Timestamp;
use topics_net::domain::Domain;

pub(crate) fn d(s: &str) -> Domain {
    Domain::parse(s).unwrap()
}

pub(crate) fn call(
    caller: &str,
    call_type: CallType,
    decision: AllowDecision,
    root: bool,
    script_source: Option<&str>,
) -> TopicsCallRecord {
    TopicsCallRecord {
        caller: d(caller),
        caller_site: topics_net::psl::registrable_domain(&d(caller)),
        call_type,
        root_context: root,
        script_source: script_source.map(d),
        decision,
        topics_returned: 0,
        timestamp: Timestamp(1),
    }
}

pub(crate) fn visit(
    phase: Phase,
    website: &str,
    final_website: &str,
    parties: &[&str],
    calls: Vec<TopicsCallRecord>,
    banner: bool,
) -> VisitRecord {
    let mut party_domains = vec![d(website)];
    if final_website != website {
        party_domains.push(d(final_website));
    }
    party_domains.extend(parties.iter().map(|p| d(p)));
    VisitRecord {
        phase,
        website: d(website),
        final_website: d(final_website),
        party_domains,
        object_count: parties.len() + 1,
        failed_objects: 0,
        topics_calls: calls,
        banner_found: banner,
        started: Timestamp(0),
        duration_ms: 700,
    }
}

/// Three sites:
/// * `site-a.com` — HubSpot CMP, GTM anomalous caller (root JS from the
///   site's own origin), a questionable Before-Accept call by
///   `violator.com`, and legit After-Accept calls by `goodads.com`
///   (plus one blocked rogue call).
/// * `site-b.ru` — no banner; `violator.com` calls Before-Accept.
/// * `site-c.de` — OneTrust CMP, clean; After-Accept call by
///   `goodads.com`.
pub(crate) fn tiny_outcome() -> CampaignOutcome {
    let goodads_aa = || {
        call(
            "ads.goodads.com",
            CallType::Fetch,
            AllowDecision::AllowedFailOpen,
            true,
            Some("static.goodads.com"),
        )
    };
    let gtm_anomalous = |site: &str| {
        call(
            site,
            CallType::JavaScript,
            AllowDecision::AllowedFailOpen,
            true,
            Some("www.googletagmanager.com"),
        )
    };
    let violator_ba = || {
        call(
            "frame.violator.com",
            CallType::JavaScript,
            AllowDecision::AllowedFailOpen,
            false,
            None,
        )
    };
    let blocked = || {
        call(
            "rogue.net",
            CallType::JavaScript,
            AllowDecision::BlockedNotEnrolled,
            true,
            None,
        )
    };

    let sites = vec![
        SiteOutcome {
            rank: 0,
            website: d("site-a.com"),
            before: Some(visit(
                Phase::BeforeAccept,
                "site-a.com",
                "site-a.com",
                &["hubspot.com", "googletagmanager.com", "violator.com"],
                vec![violator_ba(), gtm_anomalous("www.site-a.com")],
                true,
            )),
            after: Some(visit(
                Phase::AfterAccept,
                "site-a.com",
                "site-a.com",
                &[
                    "hubspot.com",
                    "googletagmanager.com",
                    "goodads.com",
                    "violator.com",
                ],
                vec![goodads_aa(), gtm_anomalous("www.site-a.com"), blocked()],
                false,
            )),
            error: None,
            faults: FaultStats::default(),
        },
        SiteOutcome {
            rank: 1,
            website: d("site-b.ru"),
            before: Some(visit(
                Phase::BeforeAccept,
                "site-b.ru",
                "site-b.ru",
                &["violator.com"],
                vec![violator_ba()],
                false,
            )),
            after: None,
            error: None,
            // Exercises the degraded-coverage path: the site stays in
            // D_BA even though its exchanges needed retries.
            faults: FaultStats {
                retries: 2,
                ..FaultStats::default()
            },
        },
        SiteOutcome {
            rank: 2,
            website: d("site-c.de"),
            before: Some(visit(
                Phase::BeforeAccept,
                "site-c.de",
                "site-c.de",
                &["onetrust.com", "goodads.com"],
                vec![],
                true,
            )),
            after: Some(visit(
                Phase::AfterAccept,
                "site-c.de",
                "site-c.de",
                &["onetrust.com", "goodads.com"],
                vec![goodads_aa()],
                false,
            )),
            error: None,
            faults: FaultStats::default(),
        },
        SiteOutcome {
            rank: 3,
            website: d("dead-site.com"),
            before: None,
            after: None,
            error: Some("NXDOMAIN".into()),
            faults: FaultStats::default(),
        },
    ];

    CampaignOutcome {
        schema_version: CAMPAIGN_SCHEMA_VERSION,
        sites,
        allow_list: vec![d("goodads.com"), d("violator.com"), d("unattested-ads.com")],
        attestation_probes: vec![
            AttestationProbe {
                domain: d("goodads.com"),
                valid: Some(AttestationInfo {
                    issued: Timestamp::from_days(20),
                    has_enrollment_site: false,
                }),
            },
            AttestationProbe {
                domain: d("violator.com"),
                valid: Some(AttestationInfo {
                    issued: Timestamp::from_days(120),
                    has_enrollment_site: false,
                }),
            },
            AttestationProbe {
                domain: d("unattested-ads.com"),
                valid: None,
            },
            AttestationProbe {
                domain: d("lonely-attested.org"),
                valid: Some(AttestationInfo {
                    issued: Timestamp::from_days(160),
                    has_enrollment_site: false,
                }),
            },
        ],
        started: Timestamp::from_days(302),
    }
}

/// A real 200-site crawl under light faults: failed sites and retried
/// ones among the ordinary visits.
pub(crate) fn light_fault_campaign() -> CampaignOutcome {
    let world = topics_webgen::World::generate(topics_webgen::WorldConfig::scaled(67, 200));
    let config = topics_crawler::campaign::CampaignConfig {
        threads: 2,
        fault: topics_net::fault::FaultProfile::light(),
        ..Default::default()
    };
    topics_crawler::campaign::run_campaign(&world, &config)
}
