//! The measurement record schema.
//!
//! Mirrors what the paper's modified Chromium logs (§2.2): for every
//! visited website, the set of first-/third-party objects downloaded, and
//! for every Topics API call the calling party, the website, the call
//! type, and the timestamp — plus the context fields our instrumentation
//! adds (root vs iframe context, script source, allow-list decision).

use serde::{Deserialize, Serialize};
use topics_browser::attestation::AllowDecision;
use topics_browser::observer::{CallType, ObjectEvent, TopicsCallEvent};
use topics_net::clock::Timestamp;
use topics_net::domain::Domain;
use topics_net::psl::{registrable_domain, registrable_str};
use topics_obs::Word;

/// Which of the two visits a record belongs to (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// The first visit, before any interaction with the privacy banner.
    BeforeAccept,
    /// The second visit, after consent was granted and the cache cleared.
    AfterAccept,
    /// The second visit of the opt-out experiment, after consent was
    /// explicitly REFUSED (an extension beyond the paper's protocol).
    AfterReject,
}

/// One Topics API call, as recorded by the crawler.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopicsCallRecord {
    /// Full host attributed as the Calling Party.
    pub caller: Domain,
    /// The CP at registrable-domain granularity (the unit of the paper's
    /// Allowed/Attested classification).
    pub caller_site: Domain,
    /// Call type (JavaScript / Fetch / IFrame).
    pub call_type: CallType,
    /// True when the call came from the root (top-level) context.
    pub root_context: bool,
    /// Host that served the calling script, if external.
    pub script_source: Option<Domain>,
    /// The browser's allow-list decision.
    pub decision: AllowDecision,
    /// Topics returned to the caller.
    pub topics_returned: usize,
    /// Timestamp of the call.
    pub timestamp: Timestamp,
}

impl TopicsCallRecord {
    /// Build from a browser instrumentation event.
    pub fn from_event(e: &TopicsCallEvent) -> TopicsCallRecord {
        TopicsCallRecord {
            caller: e.caller.clone(),
            caller_site: registrable_domain(&e.caller),
            call_type: e.call_type,
            root_context: e.root_context,
            script_source: e.script_source.clone(),
            decision: e.decision,
            topics_returned: e.topics_returned,
            timestamp: e.timestamp,
        }
    }

    /// Whether the call was executed (permitted by the allow-list layer).
    pub fn permitted(&self) -> bool {
        self.decision.permits()
    }
}

/// One visit to one website.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VisitRecord {
    /// Which visit this is.
    pub phase: Phase,
    /// The ranked website (requested domain) — the identity under which
    /// the paper's per-website statistics are keyed.
    pub website: Domain,
    /// The registrable domain that actually served the page (differs for
    /// alias redirects — the §4 case-ii signature).
    pub final_website: Domain,
    /// Unique registrable domains of every object loaded, including the
    /// site itself, in first-seen order.
    pub party_domains: Vec<Domain>,
    /// Total objects requested (with multiplicity).
    pub object_count: usize,
    /// Objects that failed to load.
    pub failed_objects: usize,
    /// Every Topics API call observed during the visit.
    pub topics_calls: Vec<TopicsCallRecord>,
    /// A privacy banner was detected on the page.
    pub banner_found: bool,
    /// When the visit started.
    pub started: Timestamp,
    /// Simulated page-load duration (sum of network latencies).
    #[serde(default)]
    pub duration_ms: u64,
}

impl VisitRecord {
    /// Assemble a record from the browser's per-visit output.
    #[allow(clippy::too_many_arguments)]
    pub fn assemble(
        phase: Phase,
        website: Domain,
        final_website: Domain,
        objects: &[ObjectEvent],
        calls: &[TopicsCallEvent],
        banner_found: bool,
        started: Timestamp,
        duration_ms: u64,
    ) -> VisitRecord {
        let mut party_domains: Vec<Domain> = Vec::new();
        let mut failed = 0usize;
        for o in objects {
            if !o.ok {
                failed += 1;
            }
            let reg = registrable_str(o.url.host());
            if !party_domains.iter().any(|d| d.as_str() == reg) {
                party_domains.push(registrable_domain(o.url.host()));
            }
        }
        VisitRecord {
            phase,
            website,
            final_website,
            party_domains,
            object_count: objects.len(),
            failed_objects: failed,
            topics_calls: calls.iter().map(TopicsCallRecord::from_event).collect(),
            banner_found,
            started,
            duration_ms,
        }
    }

    /// Third-party registrable domains (everything except the website
    /// itself and its final serving domain).
    pub fn third_parties(&self) -> impl Iterator<Item = &Domain> {
        self.party_domains
            .iter()
            .filter(move |d| **d != self.website && **d != self.final_website)
    }

    /// True when a given party (registrable domain) was present on the
    /// page — the Figure 2 presence notion.
    pub fn has_party(&self, party: &Domain) -> bool {
        self.party_domains.contains(party)
    }
}

/// Fault-layer bookkeeping for one site: what the retry/backoff layer
/// had to do to produce (or fail to produce) the visits.
///
/// Serialized only when non-zero, so campaigns run without fault
/// injection emit byte-identical records to builds that predate the
/// fault layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Network retries issued across both visits (document hops and
    /// subresources).
    #[serde(default)]
    pub retries: u32,
    /// A visit blew through the per-visit time budget.
    #[serde(default)]
    pub timed_out: bool,
    /// The banner was actionable but the second visit failed, so the
    /// site is missing from D_AA/D_AR despite consent interaction.
    #[serde(default)]
    pub second_visit_failed: bool,
}

impl FaultStats {
    /// True when nothing fault-related happened (the serde skip gate).
    pub fn is_zero(&self) -> bool {
        *self == FaultStats::default()
    }
}

/// The typed health of one site's crawl, derived from the record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VisitOutcome {
    /// The site was visited and no fault-layer intervention was needed.
    Complete,
    /// The site is in the dataset, but retries fired, a visit timed out,
    /// or the second visit was lost — its records may undercount.
    Degraded,
    /// The site never made it into D_BA.
    Failed,
}

impl VisitOutcome {
    /// Stable lower-case label (metric label values): the text of
    /// [`VisitOutcome::word`].
    pub fn label(self) -> &'static str {
        self.word().as_str()
    }

    /// The outcome as the trace's `outcome` field records it.
    pub fn word(self) -> Word {
        match self {
            VisitOutcome::Complete => Word::Complete,
            VisitOutcome::Degraded => Word::Degraded,
            VisitOutcome::Failed => Word::Failed,
        }
    }
}

/// The outcome for one ranked site: up to two visits.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SiteOutcome {
    /// 0-based Tranco rank.
    pub rank: usize,
    /// The ranked domain.
    pub website: Domain,
    /// The Before-Accept visit; `None` when the site failed to load
    /// (DNS/connection errors — the paper loses ≈13% of sites this way).
    pub before: Option<VisitRecord>,
    /// The second visit (After-Accept, or After-Reject in the opt-out
    /// experiment); `None` when no banner interaction succeeded.
    pub after: Option<VisitRecord>,
    /// Human-readable failure, if the site could not be visited.
    pub error: Option<String>,
    /// What the fault/retry layer observed while crawling this site.
    #[serde(default, skip_serializing_if = "FaultStats::is_zero")]
    pub faults: FaultStats,
}

impl SiteOutcome {
    /// The site was successfully visited (enters D_BA).
    pub fn visited(&self) -> bool {
        self.before.is_some()
    }

    /// The typed health of this site's crawl.
    pub fn outcome(&self) -> VisitOutcome {
        if !self.visited() {
            VisitOutcome::Failed
        } else if !self.faults.is_zero() {
            VisitOutcome::Degraded
        } else {
            VisitOutcome::Complete
        }
    }

    /// Consent was granted and the second visit ran (enters D_AA).
    pub fn accepted(&self) -> bool {
        self.after
            .as_ref()
            .is_some_and(|v| v.phase == Phase::AfterAccept)
    }

    /// Consent was explicitly refused and the second visit ran (the
    /// opt-out experiment's D_AR).
    pub fn rejected(&self) -> bool {
        self.after
            .as_ref()
            .is_some_and(|v| v.phase == Phase::AfterReject)
    }
}

/// Result of probing a domain's attestation well-known file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttestationProbe {
    /// The probed registrable domain.
    pub domain: Domain,
    /// `Some` when a valid Topics attestation was served.
    pub valid: Option<AttestationInfo>,
}

/// Extracted fields of a valid attestation file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttestationInfo {
    /// Issue timestamp (the §3 enrolment timeline).
    pub issued: Timestamp,
    /// Whether the file carries the post-October-2024 `enrollment_site`.
    pub has_enrollment_site: bool,
}

/// Version of the campaign record schema, stamped into the columnar
/// file header (and the outcome's serialized form). Bump it when
/// a field changes meaning — additive `#[serde(default)]` evolution
/// (like `duration_ms`) stays within one version.
pub const CAMPAIGN_SCHEMA_VERSION: u32 = 1;

/// A store was written by a schema this build does not understand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnknownSchemaVersion {
    /// The version found in the store header.
    pub found: u32,
    /// The newest version this build reads ([`CAMPAIGN_SCHEMA_VERSION`]).
    pub supported: u32,
}

impl std::fmt::Display for UnknownSchemaVersion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown campaign schema version {} (this build reads <= {})",
            self.found, self.supported
        )
    }
}

impl std::error::Error for UnknownSchemaVersion {}

/// Everything a campaign produces — the input to `topics-analysis`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignOutcome {
    /// Schema version the store was written with. `0` marks a legacy
    /// file from before versioning existed (the field defaults when
    /// absent); the columnar decoder rejects anything above
    /// [`CAMPAIGN_SCHEMA_VERSION`] with a typed [`UnknownSchemaVersion`].
    #[serde(default)]
    pub schema_version: u32,
    /// Per-site outcomes in rank order.
    pub sites: Vec<SiteOutcome>,
    /// The allow-list snapshot, when the crawler's browser had a healthy
    /// one; `None` under the paper's corrupted-list configuration — in
    /// which case the analysis uses the separately downloaded list (the
    /// paper uses the June 6th, 2024 file).
    pub allow_list: Vec<Domain>,
    /// Attestation probes for every encountered party and every
    /// allow-listed domain.
    pub attestation_probes: Vec<AttestationProbe>,
    /// When the crawl started.
    pub started: Timestamp,
}

/// Per-[`VisitOutcome`] site counts; `complete + degraded + failed`
/// always equals the number of attempted sites.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutcomeCounts {
    /// Sites crawled with no fault-layer intervention.
    pub complete: usize,
    /// Sites in the dataset with degraded coverage.
    pub degraded: usize,
    /// Sites that never entered D_BA.
    pub failed: usize,
}

impl OutcomeCounts {
    /// Total attempted sites.
    pub fn total(&self) -> usize {
        self.complete + self.degraded + self.failed
    }
}

impl CampaignOutcome {
    /// Number of successfully visited sites (|D_BA|).
    pub fn visited_count(&self) -> usize {
        self.sites.iter().filter(|s| s.visited()).count()
    }

    /// Partition the attempted sites by [`VisitOutcome`].
    pub fn outcome_counts(&self) -> OutcomeCounts {
        let mut counts = OutcomeCounts::default();
        for s in &self.sites {
            match s.outcome() {
                VisitOutcome::Complete => counts.complete += 1,
                VisitOutcome::Degraded => counts.degraded += 1,
                VisitOutcome::Failed => counts.failed += 1,
            }
        }
        counts
    }

    /// Number of sites with an After-Accept visit (|D_AA|).
    pub fn accepted_count(&self) -> usize {
        self.sites.iter().filter(|s| s.accepted()).count()
    }

    /// Whether a domain served a valid attestation (the paper's
    /// **Attested** label).
    pub fn is_attested(&self, domain: &Domain) -> bool {
        self.attestation_probes
            .iter()
            .any(|p| &p.domain == domain && p.valid.is_some())
    }

    /// Whether a domain is on the allow-list (the paper's **Allowed**).
    pub fn is_allowed(&self, domain: &Domain) -> bool {
        self.allow_list.contains(domain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topics_net::http::ResourceKind;
    use topics_net::url::Url;

    fn d(s: &str) -> Domain {
        Domain::parse(s).unwrap()
    }

    fn obj(url: &str, ok: bool) -> ObjectEvent {
        ObjectEvent {
            url: Url::parse(url).unwrap(),
            kind: ResourceKind::Script,
            ok,
            timestamp: Timestamp(1),
        }
    }

    #[test]
    fn assemble_dedups_party_domains() {
        let objects = vec![
            obj("https://www.site.com/", true),
            obj("https://static.ads.com/tag.js", true),
            obj("https://ads.com/px.gif", true),
            obj("https://cdn.example.net/lib.js", false),
        ];
        let v = VisitRecord::assemble(
            Phase::BeforeAccept,
            d("site.com"),
            d("site.com"),
            &objects,
            &[],
            false,
            Timestamp(0),
            420,
        );
        assert_eq!(
            v.party_domains,
            vec![d("site.com"), d("ads.com"), d("example.net")]
        );
        assert_eq!(v.object_count, 4);
        assert_eq!(v.failed_objects, 1);
        let tp: Vec<_> = v.third_parties().cloned().collect();
        assert_eq!(tp, vec![d("ads.com"), d("example.net")]);
        assert!(v.has_party(&d("ads.com")));
        assert!(!v.has_party(&d("missing.com")));
    }

    #[test]
    fn alias_visits_keep_both_identities() {
        let objects = vec![obj("https://corp.com/", true)];
        let v = VisitRecord::assemble(
            Phase::AfterAccept,
            d("brand.com"),
            d("corp.com"),
            &objects,
            &[],
            true,
            Timestamp(0),
            180,
        );
        let tp: Vec<_> = v.third_parties().collect();
        assert!(tp.is_empty(), "the serving domain is not a third party");
    }

    #[test]
    fn outcome_counts() {
        let visit = VisitRecord::assemble(
            Phase::BeforeAccept,
            d("a.com"),
            d("a.com"),
            &[],
            &[],
            false,
            Timestamp(0),
            0,
        );
        let outcome = CampaignOutcome {
            schema_version: CAMPAIGN_SCHEMA_VERSION,
            sites: vec![
                SiteOutcome {
                    rank: 0,
                    website: d("a.com"),
                    before: Some(visit.clone()),
                    after: Some(VisitRecord {
                        phase: Phase::AfterAccept,
                        ..visit.clone()
                    }),
                    error: None,
                    faults: FaultStats::default(),
                },
                SiteOutcome {
                    rank: 1,
                    website: d("b.com"),
                    before: None,
                    after: None,
                    error: Some("NXDOMAIN".into()),
                    faults: FaultStats::default(),
                },
            ],
            allow_list: vec![d("criteo.com")],
            attestation_probes: vec![AttestationProbe {
                domain: d("criteo.com"),
                valid: Some(AttestationInfo {
                    issued: Timestamp(5),
                    has_enrollment_site: false,
                }),
            }],
            started: Timestamp(0),
        };
        assert_eq!(outcome.visited_count(), 1);
        assert_eq!(outcome.accepted_count(), 1);
        assert!(outcome.is_allowed(&d("criteo.com")));
        assert!(outcome.is_attested(&d("criteo.com")));
        assert!(!outcome.is_attested(&d("b.com")));
        let counts = outcome.outcome_counts();
        assert_eq!(
            counts,
            OutcomeCounts {
                complete: 1,
                degraded: 0,
                failed: 1
            }
        );
        assert_eq!(counts.total(), outcome.sites.len());
    }

    #[test]
    fn fault_stats_drive_the_outcome_and_stay_out_of_clean_json() {
        let visit = VisitRecord::assemble(
            Phase::BeforeAccept,
            d("a.com"),
            d("a.com"),
            &[],
            &[],
            false,
            Timestamp(0),
            0,
        );
        let mut site = SiteOutcome {
            rank: 0,
            website: d("a.com"),
            before: Some(visit),
            after: None,
            error: None,
            faults: FaultStats::default(),
        };
        assert_eq!(site.outcome(), VisitOutcome::Complete);
        let clean = serde_json::to_string(&site).unwrap();
        assert!(
            !clean.contains("faults"),
            "zero fault stats are skipped so rate-0 output is byte-stable"
        );
        // Old-format JSON (no `faults` key) still deserializes.
        let back: SiteOutcome = serde_json::from_str(&clean).unwrap();
        assert!(back.faults.is_zero());

        site.faults.retries = 2;
        assert_eq!(site.outcome(), VisitOutcome::Degraded);
        assert!(serde_json::to_string(&site).unwrap().contains("retries"));
        site.before = None;
        assert_eq!(site.outcome(), VisitOutcome::Failed);
    }

    #[test]
    fn records_serialize_round_trip() {
        let rec = TopicsCallRecord {
            caller: d("www.foo.com"),
            caller_site: d("foo.com"),
            call_type: CallType::JavaScript,
            root_context: true,
            script_source: Some(d("www.googletagmanager.com")),
            decision: AllowDecision::AllowedFailOpen,
            topics_returned: 0,
            timestamp: Timestamp(9),
        };
        let j = serde_json::to_string(&rec).unwrap();
        let back: TopicsCallRecord = serde_json::from_str(&j).unwrap();
        assert_eq!(back, rec);
        assert!(back.permitted());
    }

    #[test]
    fn schema_version_gates_unknown_futures() {
        use crate::columnar::{ColumnarCampaign, ColumnarError};

        // Legacy outcomes carry no version field and deserialize to 0.
        let legacy = r#"{"sites":[],"allow_list":[],"attestation_probes":[],"started":0}"#;
        let outcome: CampaignOutcome = serde_json::from_str(legacy).unwrap();
        assert_eq!(outcome.schema_version, 0);

        // Current stores carry the version and decode.
        let mut current = outcome.clone();
        current.schema_version = CAMPAIGN_SCHEMA_VERSION;
        let store = ColumnarCampaign::from_outcome(&current);
        let back = ColumnarCampaign::decode(store.bytes().to_vec()).unwrap();
        assert_eq!(back.schema_version(), CAMPAIGN_SCHEMA_VERSION);

        // A future version (bytes 12..16 of the header) is a typed
        // error, not a silent best-effort read.
        let mut future = store.bytes().to_vec();
        future[12..16].copy_from_slice(&(CAMPAIGN_SCHEMA_VERSION + 1).to_le_bytes());
        let Err(ColumnarError::UnknownSchema(err)) = ColumnarCampaign::decode(future) else {
            panic!("a future schema version must be refused");
        };
        assert_eq!(err.found, CAMPAIGN_SCHEMA_VERSION + 1);
        assert_eq!(err.supported, CAMPAIGN_SCHEMA_VERSION);
        assert!(err.to_string().contains("unknown campaign schema version"));
    }
}
