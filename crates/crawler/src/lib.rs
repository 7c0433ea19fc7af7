//! # topics-crawler — the paper's measurement crawler
//!
//! The reproduction of the Selenium + Priv-Accept pipeline of §2.2: a
//! [`topics_browser::Browser`] visits every site of a Tranco-style list
//! twice — **Before-Accept** and, when the consent banner can be
//! accepted, **After-Accept** (with the cache cleared in between) — and
//! records every downloaded object and every Topics API call. After the
//! crawl, every encountered party is probed for its attestation
//! well-known file.
//!
//! * [`privaccept`] — consent-banner detection and acceptance (keyword
//!   matching in five languages, like the Priv-Accept tool).
//! * [`visit`] — the per-site two-visit protocol.
//! * [`campaign`] — the parallel campaign runner, allow-list setups
//!   (including the paper's corrupted-on-purpose configuration), the
//!   attestation prober, and repeated-visit support for the §3 A/B
//!   alternation experiment.
//! * [`record`] — the measurement schema handed to `topics-analysis`.
//! * [`columnar`] — the interned struct-of-arrays campaign store and
//!   its zero-deserialization query layer.
//! * [`shard`] — rank-stripe shard planning, checksummed record
//!   segments, and the deterministic merge back into one campaign.
//! * [`spans`] — the span codec shard segments and `trace.col` share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod columnar;
mod container;
pub mod metrics;
pub mod privaccept;
pub mod record;
pub mod shard;
pub mod spans;
pub mod visit;

pub use campaign::{
    probe_attestation, run_campaign, run_campaign_observed, run_campaign_stripe, run_repeated,
    AllowListSetup, CampaignConfig, CrawlTarget,
};
pub use columnar::{
    ColumnarBuilder, ColumnarCampaign, ColumnarError, COLUMNAR_MAGIC, COLUMNAR_VERSION,
};
pub use metrics::{tally_outcome, CrawlMetrics, CALL_CLASSES};
pub use record::{
    AttestationInfo, AttestationProbe, CampaignOutcome, FaultStats, OutcomeCounts, Phase,
    SiteOutcome, TopicsCallRecord, UnknownSchemaVersion, VisitOutcome, VisitRecord,
    CAMPAIGN_SCHEMA_VERSION,
};
pub use shard::{
    merge_to_store, shard_token, split_outcome, tally_snapshot, MergeError, Segment, SegmentError,
    SegmentHeader, ShardPlan, StreamingMerge, SEGMENT_MAGIC, SEGMENT_VERSION,
};
pub use visit::{run_site, ConsentAction, VisitPolicy};
