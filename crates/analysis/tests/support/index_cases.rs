//! Hand-built campaign outcomes for the index's edge cases, shared by
//! the `index_edge_cases` suite (checked against direct scans) and the
//! index's unit tests (checked across worker counts).

use topics_browser::attestation::AllowDecision;
use topics_browser::observer::CallType;
use topics_crawler::record::{
    AttestationInfo, AttestationProbe, CampaignOutcome, FaultStats, Phase, SiteOutcome,
    TopicsCallRecord, VisitRecord, CAMPAIGN_SCHEMA_VERSION,
};
use topics_net::clock::Timestamp;
use topics_net::domain::Domain;
use topics_net::psl::registrable_domain;

pub fn d(s: &str) -> Domain {
    Domain::parse(s).unwrap()
}

fn call(caller: &str, decision: AllowDecision) -> TopicsCallRecord {
    TopicsCallRecord {
        caller: d(caller),
        caller_site: registrable_domain(&d(caller)),
        call_type: CallType::JavaScript,
        root_context: true,
        script_source: None,
        decision,
        topics_returned: 0,
        timestamp: Timestamp(1),
    }
}

fn executed(caller: &str) -> TopicsCallRecord {
    call(caller, AllowDecision::AllowedFailOpen)
}

fn blocked(caller: &str) -> TopicsCallRecord {
    call(caller, AllowDecision::BlockedNotEnrolled)
}

/// A visit whose party list is taken as given: no website prepended,
/// no deduplication.
fn visit(
    phase: Phase,
    website: &str,
    final_website: &str,
    parties: &[&str],
    calls: Vec<TopicsCallRecord>,
) -> VisitRecord {
    VisitRecord {
        phase,
        website: d(website),
        final_website: d(final_website),
        party_domains: parties.iter().map(|p| d(p)).collect(),
        object_count: parties.len(),
        failed_objects: 0,
        topics_calls: calls,
        banner_found: true,
        started: Timestamp(0),
        duration_ms: 500,
    }
}

fn site(rank: usize, before: VisitRecord, after: Option<VisitRecord>) -> SiteOutcome {
    SiteOutcome {
        rank,
        website: before.website.clone(),
        before: Some(before),
        after,
        error: None,
        faults: FaultStats::default(),
    }
}

fn attested(domain: &str) -> AttestationProbe {
    AttestationProbe {
        domain: d(domain),
        valid: Some(AttestationInfo {
            issued: Timestamp::from_days(40),
            has_enrollment_site: false,
        }),
    }
}

fn outcome(sites: Vec<SiteOutcome>) -> CampaignOutcome {
    CampaignOutcome {
        schema_version: CAMPAIGN_SCHEMA_VERSION,
        sites,
        // `adsfirst.com` is also a website; `unattested.net` never
        // passes the probe; `rogue.io` is attested but not allowed.
        allow_list: vec![
            d("goodads.com"),
            d("adsfirst.com"),
            d("unattested.net"),
            d("quiet.org"),
        ],
        attestation_probes: vec![
            attested("goodads.com"),
            attested("adsfirst.com"),
            attested("quiet.org"),
            attested("rogue.io"),
            AttestationProbe {
                domain: d("unattested.net"),
                valid: None,
            },
        ],
        started: Timestamp::from_days(300),
    }
}

/// One outcome per edge case, each named for the assertion messages.
pub fn cases() -> Vec<(&'static str, CampaignOutcome)> {
    vec![
        (
            "repeated parties",
            outcome(vec![
                site(
                    0,
                    visit(
                        Phase::BeforeAccept,
                        "shop.com",
                        "shop.com",
                        &[
                            "shop.com",
                            "goodads.com",
                            "tracker.net",
                            "goodads.com",
                            "tracker.net",
                        ],
                        vec![executed("ads.goodads.com")],
                    ),
                    Some(visit(
                        Phase::AfterAccept,
                        "shop.com",
                        "shop.com",
                        &["goodads.com", "goodads.com", "shop.com", "shop.com"],
                        vec![executed("goodads.com")],
                    )),
                ),
                site(
                    1,
                    visit(
                        Phase::BeforeAccept,
                        "news.de",
                        "news.de",
                        &["tracker.net", "news.de", "tracker.net"],
                        vec![],
                    ),
                    None,
                ),
            ]),
        ),
        (
            "first parties among the parties",
            outcome(vec![
                // The website is itself a candidate and calls.
                site(
                    0,
                    visit(
                        Phase::BeforeAccept,
                        "adsfirst.com",
                        "adsfirst.com",
                        &["adsfirst.com", "goodads.com"],
                        vec![executed("www.adsfirst.com")],
                    ),
                    None,
                ),
                // An alias redirect: the final website is a candidate
                // and a third party elsewhere.
                site(
                    1,
                    visit(
                        Phase::BeforeAccept,
                        "alias.com",
                        "goodads.com",
                        &["alias.com", "goodads.com", "cdn.net"],
                        vec![executed("goodads.com")],
                    ),
                    Some(visit(
                        Phase::AfterAccept,
                        "alias.com",
                        "goodads.com",
                        &["goodads.com", "alias.com"],
                        vec![],
                    )),
                ),
                site(
                    2,
                    visit(
                        Phase::BeforeAccept,
                        "blog.org",
                        "blog.org",
                        &["blog.org", "alias.com", "adsfirst.com"],
                        vec![],
                    ),
                    None,
                ),
            ]),
        ),
        (
            "CMP after other parties",
            outcome(vec![
                site(
                    0,
                    visit(
                        Phase::BeforeAccept,
                        "shop.jp",
                        "shop.jp",
                        &[
                            "shop.jp",
                            "goodads.com",
                            "cdn.net",
                            "hubspot.com",
                            "onetrust.com",
                        ],
                        vec![executed("goodads.com")],
                    ),
                    None,
                ),
                // A CMP reached through a subdomain, after the website.
                site(
                    1,
                    visit(
                        Phase::BeforeAccept,
                        "store.ru",
                        "store.ru",
                        &["store.ru", "cdn.net", "consent.cookiebot.com"],
                        vec![],
                    ),
                    None,
                ),
                site(
                    2,
                    visit(
                        Phase::BeforeAccept,
                        "plain.fr",
                        "plain.fr",
                        &["plain.fr", "cdn.net"],
                        vec![],
                    ),
                    None,
                ),
            ]),
        ),
        (
            "repeated calls by one caller",
            outcome(vec![
                site(
                    0,
                    visit(
                        Phase::BeforeAccept,
                        "shop.com",
                        "shop.com",
                        &["shop.com", "goodads.com", "rogue.io"],
                        vec![
                            executed("ads.goodads.com"),
                            executed("goodads.com"),
                            executed("rogue.io"),
                            blocked("rogue.io"),
                            executed("ads.goodads.com"),
                        ],
                    ),
                    Some(visit(
                        Phase::AfterAccept,
                        "shop.com",
                        "shop.com",
                        &["shop.com", "goodads.com", "quiet.org"],
                        vec![
                            executed("goodads.com"),
                            executed("goodads.com"),
                            blocked("quiet.org"),
                        ],
                    )),
                ),
                site(
                    1,
                    visit(
                        Phase::BeforeAccept,
                        "news.de",
                        "news.de",
                        &["news.de", "goodads.com"],
                        vec![executed("goodads.com"), executed("goodads.com")],
                    ),
                    None,
                ),
            ]),
        ),
        (
            "after-reject visits",
            outcome(vec![
                site(
                    0,
                    visit(
                        Phase::BeforeAccept,
                        "shop.com",
                        "shop.com",
                        &["shop.com", "goodads.com", "sourcepoint.com"],
                        vec![executed("goodads.com")],
                    ),
                    Some(visit(
                        Phase::AfterReject,
                        "shop.com",
                        "shop.com",
                        &["shop.com", "goodads.com", "rogue.io", "goodads.com"],
                        vec![executed("goodads.com"), executed("rogue.io")],
                    )),
                ),
                site(
                    1,
                    visit(
                        Phase::BeforeAccept,
                        "blog.it",
                        "blog.it",
                        &["blog.it", "quiet.org"],
                        vec![],
                    ),
                    Some(visit(
                        Phase::AfterReject,
                        "blog.it",
                        "blog.it",
                        &["blog.it", "quiet.org", "quiet.org"],
                        vec![executed("quiet.org"), executed("quiet.org")],
                    )),
                ),
                site(
                    2,
                    visit(
                        Phase::BeforeAccept,
                        "mall.com",
                        "mall.com",
                        &["mall.com"],
                        vec![],
                    ),
                    Some(visit(
                        Phase::AfterAccept,
                        "mall.com",
                        "mall.com",
                        &["mall.com", "goodads.com"],
                        vec![executed("goodads.com")],
                    )),
                ),
            ]),
        ),
        (
            "a caller and a third party across chunks",
            // Cut into chunks for the index's worker pool, the first and
            // the last site always land in different chunks (unless
            // there is one): `goodads.com` calls and `cdn.net` is a
            // third party on both, and the candidate `quiet.org` is a
            // party of the last site only.
            outcome(vec![
                site(
                    0,
                    visit(
                        Phase::BeforeAccept,
                        "shop.com",
                        "shop.com",
                        &["shop.com", "goodads.com", "cdn.net"],
                        vec![executed("ads.goodads.com")],
                    ),
                    Some(visit(
                        Phase::AfterAccept,
                        "shop.com",
                        "shop.com",
                        &["shop.com", "goodads.com"],
                        vec![executed("goodads.com")],
                    )),
                ),
                site(
                    1,
                    visit(
                        Phase::BeforeAccept,
                        "news.de",
                        "news.de",
                        &["news.de"],
                        vec![],
                    ),
                    None,
                ),
                site(
                    2,
                    visit(
                        Phase::BeforeAccept,
                        "blog.org",
                        "blog.org",
                        &["blog.org", "adsfirst.com"],
                        vec![executed("adsfirst.com")],
                    ),
                    None,
                ),
                site(
                    3,
                    visit(
                        Phase::BeforeAccept,
                        "mall.com",
                        "mall.com",
                        &["mall.com", "cdn.net"],
                        vec![],
                    ),
                    Some(visit(
                        Phase::AfterAccept,
                        "mall.com",
                        "mall.com",
                        &["mall.com", "goodads.com"],
                        vec![executed("goodads.com")],
                    )),
                ),
                site(
                    4,
                    visit(
                        Phase::BeforeAccept,
                        "store.ru",
                        "store.ru",
                        &["store.ru", "goodads.com", "cdn.net", "quiet.org"],
                        vec![executed("goodads.com"), executed("quiet.org")],
                    ),
                    Some(visit(
                        Phase::AfterAccept,
                        "store.ru",
                        "store.ru",
                        &["store.ru", "quiet.org"],
                        vec![executed("quiet.org")],
                    )),
                ),
            ]),
        ),
    ]
}
