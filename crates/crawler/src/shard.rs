//! Sharded campaigns: rank-stripe planning, the on-disk record segment
//! a shard process writes, and the deterministic merge that reassembles
//! segments into the single-process campaign store.
//!
//! The contract is byte-identity: running `N` shards of the same seeded
//! world and merging their segments must produce a `campaign.col`
//! identical to one unsharded run. Three properties make that hold:
//!
//! 1. **Global ranks.** A shard visits only its stripe, but every
//!    rank-derived quantity (visit start time, per-profile seeds, the
//!    crawl-end timestamp and hence the probe time) comes from the
//!    *global* target list (see
//!    [`run_campaign_stripe`](crate::campaign::run_campaign_stripe)).
//! 2. **Shared fault seed.** The fault plan's seed is resolved once
//!    (`fault_seed.unwrap_or(derive(campaign_seed, "faults"))`) and
//!    pinned into every shard header, and fault coins key on URL and
//!    timestamp — so the fault schedule is a pure function of the work
//!    item, not of which shard performs it.
//! 3. **Pure probes.** An attestation probe result is a pure function
//!    of `(domain, probe_time)` under the shared plan, so the same
//!    domain probed by two shards yields identical records and the
//!    merge can dedup the union back into the sorted probe vector the
//!    unsharded run produces.
//!
//! A segment is a binary file in the sectioned container `campaign.col`
//! uses (magic `TOPICSEG`), with four checksummed sections:
//!
//! * `header` — the [`SegmentHeader`] as JSON;
//! * `store` — the stripe's own `campaign.col` bytes (sites, allow-list
//!   and probes), read back by the columnar decoder;
//! * `metrics` — the shard's tally-derived [`MetricsSnapshot`] as JSON;
//! * `spans` — the stripped trace in the span codec `trace.col` shares
//!   (see [`spans`](crate::spans)).
//!
//! The container's header checksum, per-section FNV-1a digests and
//! contiguity checks detect truncation, bit-rot and editing before a
//! merge can silently produce a wrong campaign.

use crate::columnar::{ColumnarBuilder, ColumnarCampaign, ColumnarError};
use crate::container::{self, Format};
use crate::metrics::tally_outcome;
use crate::record::{AttestationProbe, CampaignOutcome, SiteOutcome, CAMPAIGN_SCHEMA_VERSION};
use crate::spans::{decode_spans, encode_spans};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::Range;
use topics_net::clock::Timestamp;
use topics_net::domain::Domain;
use topics_net::seed;
use topics_obs::{MetricsRegistry, MetricsSnapshot, SpanRecord};

/// Current segment format version; bumped on incompatible change.
pub const SEGMENT_VERSION: u32 = 2;

/// First eight bytes of every segment file.
pub const SEGMENT_MAGIC: [u8; 8] = *b"TOPICSEG";

const TAG_HEADER: u8 = 1;
const TAG_STORE: u8 = 2;
const TAG_METRICS: u8 = 3;
const TAG_SPANS: u8 = 4;

/// The segment container: no preamble, four sections.
static FORMAT: Format = Format {
    magic: SEGMENT_MAGIC,
    version: SEGMENT_VERSION,
    preamble_len: 0,
    sections: &[
        (TAG_HEADER, "header"),
        (TAG_STORE, "store"),
        (TAG_METRICS, "metrics"),
        (TAG_SPANS, "spans"),
    ],
};

/// Rank-stripe assignment: shard `k` of `n` owns a contiguous range of
/// site ranks, with the first `num_sites % n` stripes one rank longer
/// so the stripes partition `0..num_sites` exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    shards: usize,
    num_sites: usize,
}

impl ShardPlan {
    /// Plan `shards` stripes over `num_sites` ranks.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize, num_sites: usize) -> ShardPlan {
        assert!(shards >= 1, "a shard plan needs at least one shard");
        ShardPlan { shards, num_sites }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Number of site ranks covered.
    pub fn num_sites(&self) -> usize {
        self.num_sites
    }

    /// The rank stripe owned by shard `shard` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shards`.
    pub fn stripe(&self, shard: usize) -> Range<usize> {
        assert!(shard < self.shards, "shard {shard} of {}", self.shards);
        let base = self.num_sites / self.shards;
        let extra = self.num_sites % self.shards;
        let start = shard * base + shard.min(extra);
        let len = base + usize::from(shard < extra);
        start..start + len
    }

    /// The shard owning rank `rank` — the inverse of [`Self::stripe`].
    ///
    /// # Panics
    ///
    /// Panics if `rank >= num_sites`.
    pub fn shard_of(&self, rank: usize) -> usize {
        assert!(rank < self.num_sites, "rank {rank} of {}", self.num_sites);
        let base = self.num_sites / self.shards;
        let extra = self.num_sites % self.shards;
        let wide = (base + 1) * extra;
        if rank < wide {
            rank / (base + 1)
        } else {
            extra + (rank - wide) / base
        }
    }
}

/// The per-shard derived seed recorded in the segment header: stable
/// under shard reordering (it depends only on the campaign seed and the
/// shard index) and distinct per shard. Shard-local randomness — and
/// the header self-check at merge time — keys off this token; the
/// *fault* seed is deliberately not derived per shard, because fault
/// schedules must match the unsharded run.
pub fn shard_token(campaign_seed: u64, shard: usize) -> u64 {
    seed::derive_idx(seed::derive(campaign_seed, "shard"), shard as u64)
}

/// The `header` section of a segment: everything the merge needs to check
/// that a set of segments belongs to the same sharded campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SegmentHeader {
    /// Segment format version ([`SEGMENT_VERSION`]).
    pub version: u32,
    /// The campaign (= world) seed.
    pub seed: u64,
    /// This shard's index, 0-based.
    pub shard: usize,
    /// Total shard count.
    pub shards: usize,
    /// Global site count the plan was computed over.
    pub num_sites: usize,
    /// First rank of this shard's stripe.
    pub stripe_start: usize,
    /// One past the last rank of this shard's stripe.
    pub stripe_end: usize,
    /// [`shard_token`] for (`seed`, `shard`) — a header self-check.
    pub token: u64,
    /// Campaign start time.
    pub started: Timestamp,
    /// The fault profile, rendered via `Debug` (compared, not parsed).
    pub fault: String,
    /// The resolved fault seed shared by every shard.
    pub fault_seed: u64,
}

/// A decoded record segment: one shard's complete output.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Identity and plan parameters.
    pub header: SegmentHeader,
    /// Site outcomes for this shard's stripe, in rank order.
    pub sites: Vec<SiteOutcome>,
    /// The allow-list snapshot (identical across shards).
    pub allow_list: Vec<Domain>,
    /// Probe results for the allow-list plus this stripe's parties.
    pub probes: Vec<AttestationProbe>,
    /// Tally-derived metrics snapshot of this shard's outcome.
    pub metrics: MetricsSnapshot,
    /// Stripped trace spans of the shard run (may be empty).
    pub trace: Vec<SpanRecord>,
}

/// Why a segment failed to decode. `Display` gives each variant a
/// stable name that doctor and `topics-lab merge` surface verbatim.
#[derive(Debug, Clone, PartialEq)]
pub enum SegmentError {
    /// The file does not start with [`SEGMENT_MAGIC`] — a JSONL
    /// segment of format version 1, for example.
    BadMagic,
    /// The container or one of its sections is damaged: truncation, a
    /// checksum mismatch, a bad directory, or a malformed payload.
    Container(ColumnarError),
    /// The `store` section is not a valid stripe store.
    Store(ColumnarError),
    /// The header is internally inconsistent or from another version.
    HeaderInvalid(String),
}

impl fmt::Display for SegmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentError::BadMagic => write!(
                f,
                "not a binary shard segment (bad magic; JSONL segments of version 1 are not read)"
            ),
            SegmentError::Container(e) => write!(f, "{e}"),
            SegmentError::Store(e) => write!(f, "stripe store: {e}"),
            SegmentError::HeaderInvalid(why) => write!(f, "segment header invalid: {why}"),
        }
    }
}

impl std::error::Error for SegmentError {}

impl From<ColumnarError> for SegmentError {
    fn from(e: ColumnarError) -> SegmentError {
        match e {
            ColumnarError::BadMagic => SegmentError::BadMagic,
            ColumnarError::UnsupportedVersion(v) => SegmentError::HeaderInvalid(format!(
                "unsupported segment version {v} (this build reads {SEGMENT_VERSION})"
            )),
            e => SegmentError::Container(e),
        }
    }
}

impl Segment {
    /// Serialize to the binary sectioned layout. The stripe store is
    /// encoded on the worker pool, so never call this from a pool
    /// worker.
    pub fn encode(&self) -> Vec<u8> {
        let header = serde_json::to_string(&self.header).expect("segment header serializes");
        let store = ColumnarCampaign::from_sites(
            CAMPAIGN_SCHEMA_VERSION,
            &self.sites,
            &self.allow_list,
            &self.probes,
            self.header.started,
        );
        let metrics = serde_json::to_string(&self.metrics).expect("metrics snapshot serializes");
        let spans = encode_spans(&self.trace);
        container::assemble(
            &FORMAT,
            &[],
            &[
                (TAG_HEADER, header.as_bytes()),
                (TAG_STORE, store.bytes()),
                (TAG_METRICS, metrics.as_bytes()),
                (TAG_SPANS, &spans),
            ],
        )
    }

    /// Parse and verify a segment file.
    pub fn decode(bytes: &[u8]) -> Result<Segment, SegmentError> {
        let ((), dir) = container::parse(&FORMAT, bytes, |_| Ok(()))?;
        let header: SegmentHeader = json_section(dir.section(bytes, TAG_HEADER)?, "header")?;
        check_header(&header)?;
        let store = ColumnarCampaign::decode(dir.section(bytes, TAG_STORE)?.to_vec())
            .map_err(SegmentError::Store)?;
        if store.started() != header.started {
            return Err(SegmentError::HeaderInvalid(format!(
                "the header starts at {} but the stripe store at {}",
                header.started.0,
                store.started().0
            )));
        }
        let outcome = store.to_outcome().map_err(SegmentError::Store)?;
        let metrics = json_section(dir.section(bytes, TAG_METRICS)?, "metrics")?;
        let trace = decode_spans(dir.section(bytes, TAG_SPANS)?)?;
        Ok(Segment {
            header,
            sites: outcome.sites,
            allow_list: outcome.allow_list,
            probes: outcome.attestation_probes,
            metrics,
            trace,
        })
    }
}

/// Parse a JSON section payload.
fn json_section<T: Deserialize>(payload: &[u8], section: &str) -> Result<T, ColumnarError> {
    std::str::from_utf8(payload)
        .map_err(|_| ColumnarError::Malformed(format!("segment {section} is not UTF-8")))
        .and_then(|text| {
            serde_json::from_str(text)
                .map_err(|e| ColumnarError::Malformed(format!("segment {section}: {e}")))
        })
}

/// Reject a header the merge could not plan with: it must be this
/// version, and its stripe must lie inside a plan of at least one shard.
fn check_header(h: &SegmentHeader) -> Result<(), SegmentError> {
    let why = if h.version != SEGMENT_VERSION {
        format!(
            "unsupported segment version {} (this build reads {SEGMENT_VERSION})",
            h.version
        )
    } else if h.shards == 0 {
        "a plan of 0 shards".to_owned()
    } else if h.shard >= h.shards {
        format!(
            "shard index {} out of range for {} shards",
            h.shard, h.shards
        )
    } else if h.stripe_start > h.stripe_end {
        format!("stripe {}..{} is reversed", h.stripe_start, h.stripe_end)
    } else if h.stripe_end > h.num_sites {
        format!(
            "stripe end {} lies past {} sites",
            h.stripe_end, h.num_sites
        )
    } else {
        return Ok(());
    };
    Err(SegmentError::HeaderInvalid(why))
}

/// Why a set of segments refused to merge. `Display` gives each
/// variant a stable name surfaced by `topics-lab merge` and doctor.
#[derive(Debug, Clone, PartialEq)]
pub enum MergeError {
    /// Two headers disagree on a campaign-wide parameter.
    HeaderMismatch(String),
    /// The same shard index appears in more than one segment.
    DuplicateShard(usize),
    /// A shard index of the plan has no segment.
    MissingShard(usize),
    /// A header's stripe is not the one the plan assigns its shard.
    StripeMismatch(usize),
    /// A header's token is not [`shard_token`] of its shard.
    TokenMismatch(usize),
    /// The concatenated site ranks do not cover `0..num_sites`.
    CoverageGap(String),
    /// Segments carry different allow-list snapshots.
    AllowListMismatch,
    /// Two shards probed the same domain and disagreed.
    ProbeConflict(Domain),
    /// A segment's stored metrics snapshot does not reproduce from its
    /// own records.
    TallyMismatch(usize),
    /// No segments were given.
    Empty,
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::HeaderMismatch(why) => write!(f, "segment header mismatch: {why}"),
            MergeError::DuplicateShard(k) => write!(f, "duplicate shard segment: shard {k}"),
            MergeError::MissingShard(k) => write!(f, "missing shard segment: shard {k}"),
            MergeError::StripeMismatch(k) => {
                write!(f, "segment stripe mismatch: shard {k} is not on plan")
            }
            MergeError::TokenMismatch(k) => {
                write!(
                    f,
                    "segment token mismatch: shard {k} seed derivation differs"
                )
            }
            MergeError::CoverageGap(why) => write!(f, "shard coverage gap: {why}"),
            MergeError::AllowListMismatch => {
                write!(f, "allow-list mismatch: segments snapshot different worlds")
            }
            MergeError::ProbeConflict(d) => {
                write!(f, "conflicting probe results for {d}")
            }
            MergeError::TallyMismatch(k) => write!(
                f,
                "per-shard tally mismatch: shard {k} metrics do not reproduce from its records"
            ),
            MergeError::Empty => write!(f, "no segments to merge"),
        }
    }
}

impl std::error::Error for MergeError {}

/// The tally-only metrics snapshot of an outcome — what a shard stores
/// in its segment, recomputed at merge time as an integrity check.
pub fn tally_snapshot(outcome: &CampaignOutcome) -> MetricsSnapshot {
    let registry = MetricsRegistry::new();
    tally_outcome(outcome, &registry);
    registry.snapshot()
}

/// The deterministic merge, one segment at a time: `accept` takes each
/// segment by value and hands back its sites for the columnar writer to
/// push straight into its column vectors, so the merge itself keeps no
/// decoded segment, only the first header, its allow-list and the
/// probes seen so far.
///
/// Segments must arrive in shard order — exactly what iterating the
/// canonical `shard-K-of-N.seg` file names in sorted order yields.
/// [`StreamingMerge::accept`] verifies header agreement, the shard's
/// place in the plan (stripe, token, gapless ranks), allow-list
/// equality, probe consistency across shards, and that the segment's
/// stored metrics snapshot reproduces from its own records;
/// [`StreamingMerge::finish`] checks that every shard arrived and
/// releases the merged probe set in the sorted order the unsharded run
/// produces.
#[derive(Debug, Default)]
pub struct StreamingMerge {
    first: Option<(SegmentHeader, Vec<Domain>)>,
    next_shard: usize,
    probe_map: BTreeMap<Domain, AttestationProbe>,
}

impl StreamingMerge {
    /// A merge expecting shard 0 first.
    pub fn new() -> StreamingMerge {
        StreamingMerge::default()
    }

    /// Validate one segment and hand back its sites (moved, in rank
    /// order) for the caller to consume.
    pub fn accept(&mut self, segment: Segment) -> Result<Vec<SiteOutcome>, MergeError> {
        let h = &segment.header;
        match &self.first {
            None => {
                if h.shard != 0 {
                    return Err(MergeError::MissingShard(0));
                }
                self.first = Some((h.clone(), segment.allow_list.clone()));
            }
            Some((h0, allow)) => {
                let same = h.seed == h0.seed
                    && h.shards == h0.shards
                    && h.num_sites == h0.num_sites
                    && h.started == h0.started
                    && h.fault == h0.fault
                    && h.fault_seed == h0.fault_seed;
                if !same {
                    return Err(MergeError::HeaderMismatch(format!(
                        "shard {} disagrees with shard {} on campaign parameters",
                        h.shard, h0.shard
                    )));
                }
                if segment.allow_list != *allow {
                    return Err(MergeError::AllowListMismatch);
                }
            }
        }
        let (h0, _) = self.first.as_ref().expect("set above");
        if h0.shards == 0 {
            return Err(MergeError::HeaderMismatch("a plan of 0 shards".to_owned()));
        }
        let plan = ShardPlan::new(h0.shards, h0.num_sites);
        let k = h.shard;
        if k >= plan.shards() {
            return Err(MergeError::HeaderMismatch(format!(
                "shard index {k} out of range for {} shards",
                plan.shards()
            )));
        }
        if k < self.next_shard {
            return Err(MergeError::DuplicateShard(k));
        }
        if k > self.next_shard {
            return Err(MergeError::MissingShard(self.next_shard));
        }
        let stripe = plan.stripe(k);
        if h.stripe_start != stripe.start || h.stripe_end != stripe.end {
            return Err(MergeError::StripeMismatch(k));
        }
        if h.token != shard_token(h0.seed, k) {
            return Err(MergeError::TokenMismatch(k));
        }
        if segment.sites.len() != stripe.len() {
            return Err(MergeError::CoverageGap(format!(
                "shard {k} holds {} sites for a stripe of {}",
                segment.sites.len(),
                stripe.len()
            )));
        }
        for (site, rank) in segment.sites.iter().zip(stripe.clone()) {
            if site.rank != rank {
                return Err(MergeError::CoverageGap(format!(
                    "shard {k} records rank {} where the plan expects {rank}",
                    site.rank
                )));
            }
        }
        // Tally check without cloning the sites: build the shard's
        // outcome around the moved vector, verify, then hand it on.
        let shard_outcome = CampaignOutcome {
            schema_version: CAMPAIGN_SCHEMA_VERSION,
            sites: segment.sites,
            allow_list: segment.allow_list,
            attestation_probes: segment.probes,
            started: h.started,
        };
        if tally_snapshot(&shard_outcome) != segment.metrics {
            return Err(MergeError::TallyMismatch(k));
        }
        for p in shard_outcome.attestation_probes {
            match self.probe_map.get(&p.domain) {
                Some(existing) if *existing != p => {
                    return Err(MergeError::ProbeConflict(p.domain));
                }
                Some(_) => {}
                None => {
                    self.probe_map.insert(p.domain.clone(), p);
                }
            }
        }
        self.next_shard += 1;
        Ok(shard_outcome.sites)
    }

    /// Verify every shard arrived and release the campaign-wide pieces:
    /// `(allow list, probes in sorted-domain order, start time)`.
    #[allow(clippy::type_complexity)]
    pub fn finish(self) -> Result<(Vec<Domain>, Vec<AttestationProbe>, Timestamp), MergeError> {
        let (h0, allow) = self.first.ok_or(MergeError::Empty)?;
        if self.next_shard != h0.shards {
            return Err(MergeError::MissingShard(self.next_shard));
        }
        Ok((allow, self.probe_map.into_values().collect(), h0.started))
    }
}

/// Merge in-memory segments, given in shard order, through
/// [`StreamingMerge`] into the columnar store a single-process crawl of
/// the same campaign writes.
pub fn merge_to_store(
    segments: impl IntoIterator<Item = Segment>,
) -> Result<ColumnarCampaign, MergeError> {
    let mut merge = StreamingMerge::new();
    let mut builder = ColumnarBuilder::new();
    for segment in segments {
        for site in &merge.accept(segment)? {
            builder.push_site(site);
        }
    }
    let (allow_list, probes, started) = merge.finish()?;
    Ok(builder.finish(CAMPAIGN_SCHEMA_VERSION, &allow_list, &probes, started))
}

/// Slice an unsharded outcome into the segments its sharded run would
/// have produced (traces empty): each shard keeps its stripe's sites
/// and the probes for the allow-list plus the parties that stripe
/// encountered. `merge_to_store(split_outcome(o, ..))` is the store of
/// `o` — the roundtrip the `shard_merge` bench exercises.
pub fn split_outcome(
    outcome: &CampaignOutcome,
    plan: ShardPlan,
    seed: u64,
    fault: &str,
    fault_seed: u64,
) -> Vec<Segment> {
    assert_eq!(plan.num_sites(), outcome.sites.len(), "plan covers outcome");
    let probe_index: BTreeMap<&Domain, &AttestationProbe> = outcome
        .attestation_probes
        .iter()
        .map(|p| (&p.domain, p))
        .collect();
    (0..plan.shards())
        .map(|k| {
            let stripe = plan.stripe(k);
            let sites: Vec<SiteOutcome> = outcome.sites[stripe.clone()].to_vec();
            let mut wanted: BTreeSet<&Domain> = outcome.allow_list.iter().collect();
            for s in &sites {
                for v in s.before.iter().chain(s.after.iter()) {
                    wanted.extend(v.party_domains.iter());
                    wanted.extend(v.topics_calls.iter().map(|c| &c.caller_site));
                }
            }
            let probes: Vec<AttestationProbe> = wanted
                .iter()
                .filter_map(|d| probe_index.get(d).map(|p| (*p).clone()))
                .collect();
            let shard_outcome = CampaignOutcome {
                schema_version: CAMPAIGN_SCHEMA_VERSION,
                sites,
                allow_list: outcome.allow_list.clone(),
                attestation_probes: probes,
                started: outcome.started,
            };
            Segment {
                header: SegmentHeader {
                    version: SEGMENT_VERSION,
                    seed,
                    shard: k,
                    shards: plan.shards(),
                    num_sites: plan.num_sites(),
                    stripe_start: stripe.start,
                    stripe_end: stripe.end,
                    token: shard_token(seed, k),
                    started: outcome.started,
                    fault: fault.to_owned(),
                    fault_seed,
                },
                metrics: tally_snapshot(&shard_outcome),
                sites: shard_outcome.sites,
                allow_list: shard_outcome.allow_list,
                probes: shard_outcome.attestation_probes,
                trace: Vec::new(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, CampaignConfig};
    use crate::spans::tests::{non_word_edits, sample_spans, span_bits};
    use topics_webgen::{World, WorldConfig};

    fn campaign(seed: u64, n: usize) -> (World, CampaignOutcome) {
        let world = World::generate(WorldConfig::scaled(seed, n));
        let config = CampaignConfig {
            threads: 2,
            ..Default::default()
        };
        let outcome = run_campaign(&world, &config);
        (world, outcome)
    }

    fn split(outcome: &CampaignOutcome, seed: u64, shards: usize) -> Vec<Segment> {
        split_outcome(
            outcome,
            ShardPlan::new(shards, outcome.sites.len()),
            seed,
            "FaultProfile::off()",
            seed::derive(seed, "faults"),
        )
    }

    #[test]
    fn streaming_merge_demands_shard_order() {
        let (world, outcome) = campaign(58, 12);
        let segments = split(&outcome, world.seed(), 3);

        // Starting anywhere but shard 0 is a missing-shard error.
        let mut sm = StreamingMerge::new();
        assert_eq!(
            sm.accept(segments[1].clone()).unwrap_err(),
            MergeError::MissingShard(0)
        );

        // Skipping a shard names the one that was expected.
        let mut sm = StreamingMerge::new();
        sm.accept(segments[0].clone()).unwrap();
        assert_eq!(
            sm.accept(segments[2].clone()).unwrap_err(),
            MergeError::MissingShard(1)
        );

        // Replays are duplicates.
        let mut sm = StreamingMerge::new();
        sm.accept(segments[0].clone()).unwrap();
        assert_eq!(
            sm.accept(segments[0].clone()).unwrap_err(),
            MergeError::DuplicateShard(0)
        );

        // Finishing early names the missing shard; an empty merge is Empty.
        let mut sm = StreamingMerge::new();
        sm.accept(segments[0].clone()).unwrap();
        assert_eq!(sm.finish().unwrap_err(), MergeError::MissingShard(1));
        assert_eq!(
            StreamingMerge::new().finish().unwrap_err(),
            MergeError::Empty
        );
    }

    #[test]
    fn stripes_partition_the_rank_space() {
        let plan = ShardPlan::new(4, 10);
        let stripes: Vec<_> = (0..4).map(|k| plan.stripe(k)).collect();
        assert_eq!(stripes, vec![0..3, 3..6, 6..8, 8..10]);
        for rank in 0..10 {
            assert_eq!(rank >= 3, plan.shard_of(rank) >= 1);
            assert!(stripes[plan.shard_of(rank)].contains(&rank));
        }
    }

    #[test]
    fn more_shards_than_sites_leaves_empty_stripes() {
        let plan = ShardPlan::new(5, 3);
        let lens: Vec<usize> = (0..5).map(|k| plan.stripe(k).len()).collect();
        assert_eq!(lens, vec![1, 1, 1, 0, 0]);
        for rank in 0..3 {
            assert_eq!(plan.shard_of(rank), rank);
        }
    }

    #[test]
    fn tokens_are_distinct_and_stable() {
        let a: Vec<u64> = (0..8).map(|k| shard_token(42, k)).collect();
        let b: Vec<u64> = (0..8).rev().map(|k| shard_token(42, k)).collect();
        assert_eq!(a, b.into_iter().rev().collect::<Vec<_>>());
        let distinct: BTreeSet<u64> = a.iter().copied().collect();
        assert_eq!(distinct.len(), 8);
    }

    /// A 2-shard split of a small campaign whose first segment carries
    /// the sample spans.
    fn traced_segment() -> Segment {
        let (world, outcome) = campaign(95, 40);
        let mut seg = split(&outcome, world.seed(), 2).swap_remove(0);
        seg.trace = sample_spans();
        seg
    }

    #[test]
    fn segment_roundtrips_through_encode_decode() {
        let (world, outcome) = campaign(91, 60);
        let mut segments = split(&outcome, world.seed(), 3);
        segments[1].trace = sample_spans();
        for seg in &segments {
            let bytes = seg.encode();
            assert_eq!(&bytes[..8], b"TOPICSEG");
            let decoded = Segment::decode(&bytes).expect("decodes");
            assert_eq!(decoded.header, seg.header);
            assert_eq!(decoded.allow_list, seg.allow_list);
            assert_eq!(decoded.probes, seg.probes);
            assert_eq!(decoded.metrics, seg.metrics);
            assert_eq!(
                serde_json::to_string(&decoded.sites).unwrap(),
                serde_json::to_string(&seg.sites).unwrap()
            );
            assert_eq!(span_bits(&decoded.trace), span_bits(&seg.trace));
            // Encoding is canonical: the decoded segment re-encodes to
            // the same bytes.
            assert!(decoded.encode() == bytes);
        }
    }

    #[test]
    fn merge_of_split_is_the_identity() {
        let (world, outcome) = campaign(93, 80);
        let single = ColumnarCampaign::from_outcome(&outcome);
        for shards in [1usize, 2, 3, 7] {
            let merged = merge_to_store(split(&outcome, world.seed(), shards)).expect("merges");
            assert_eq!(
                merged.bytes(),
                single.bytes(),
                "{shards}-way split/merge changed the store"
            );
        }
    }

    #[test]
    fn decode_names_truncation_corruption_and_trailing_data() {
        let encoded = traced_segment().encode();

        // Truncation anywhere: the directory promises more bytes.
        for cut in [encoded.len() - 1, encoded.len() / 2] {
            let err = Segment::decode(&encoded[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SegmentError::Container(ColumnarError::Truncated { .. })
                ),
                "{err:?}"
            );
            assert!(err.to_string().contains("truncated"), "{err}");
        }
        // A flipped byte inside the stripe store breaks its digest.
        let ((), dir) = container::parse(&FORMAT, &encoded, |_| Ok(())).unwrap();
        let store = dir.entries().iter().find(|e| e.tag == TAG_STORE).unwrap();
        let mut corrupted = encoded.clone();
        corrupted[(store.offset + store.len / 2) as usize] ^= 0x01;
        let err = Segment::decode(&corrupted).unwrap_err();
        assert!(
            matches!(
                err,
                SegmentError::Container(ColumnarError::SectionChecksum {
                    section: "store",
                    ..
                })
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        // Bytes after the last section.
        let mut trailing = encoded.clone();
        trailing.push(b'\n');
        assert_eq!(
            Segment::decode(&trailing).unwrap_err(),
            SegmentError::Container(ColumnarError::TrailingData("file"))
        );
        // A header section that is not JSON is malformed, not truncated.
        let garbled = container::reseal(&FORMAT, &encoded, TAG_HEADER, |p| p.insert(0, b'#'));
        assert!(matches!(
            Segment::decode(&garbled).unwrap_err(),
            SegmentError::Container(ColumnarError::Malformed(_))
        ));
        // Another file format entirely.
        assert_eq!(
            Segment::decode(b"{\"kind\":\"header\"}\n").unwrap_err(),
            SegmentError::BadMagic
        );
    }

    /// A spans section naming a span or field key outside the span
    /// vocabulary is the typed error that names the column, like in
    /// `trace.col`.
    #[test]
    fn resealed_spans_outside_the_vocabulary_are_typed_errors() {
        let encoded = traced_segment().encode();
        for (edit, want) in non_word_edits() {
            let bytes = container::reseal(&FORMAT, &encoded, TAG_SPANS, edit);
            assert_eq!(
                Segment::decode(&bytes).unwrap_err(),
                SegmentError::Container(want)
            );
        }
    }

    #[test]
    fn resealed_headers_outside_the_plan_are_header_invalid() {
        let seg = traced_segment();
        let encoded = seg.encode();
        let with_header = |edit: fn(&mut SegmentHeader)| {
            let mut h = seg.header.clone();
            edit(&mut h);
            let json = serde_json::to_string(&h).unwrap();
            container::reseal(&FORMAT, &encoded, TAG_HEADER, |p| *p = json.into_bytes())
        };
        let edits: [fn(&mut SegmentHeader); 6] = [
            |h| h.shards = 0,
            |h| h.shard = h.shards,
            |h| h.stripe_start = h.stripe_end + 1,
            |h| h.stripe_end = h.num_sites + 1,
            |h| h.version = 1,
            |h| h.started = Timestamp(h.started.0 + 1),
        ];
        for (i, edit) in edits.into_iter().enumerate() {
            let err = Segment::decode(&with_header(edit)).unwrap_err();
            assert!(
                matches!(err, SegmentError::HeaderInvalid(_)),
                "edit {i}: {err:?}"
            );
        }
        // An in-memory segment bypasses decode: the merge still answers a
        // zero-shard plan with an error instead of a panic.
        let mut zero = seg.clone();
        zero.header.shards = 0;
        assert!(matches!(
            StreamingMerge::new().accept(zero),
            Err(MergeError::HeaderMismatch(_))
        ));
    }

    #[test]
    fn merge_names_duplicate_missing_and_mismatched_shards() {
        let (world, outcome) = campaign(97, 60);
        let segs = split(&outcome, world.seed(), 3);

        let dup = vec![segs[0].clone(), segs[1].clone(), segs[1].clone()];
        assert_eq!(
            merge_to_store(dup).unwrap_err(),
            MergeError::DuplicateShard(1)
        );

        let missing = vec![segs[0].clone(), segs[2].clone()];
        assert_eq!(
            merge_to_store(missing).unwrap_err(),
            MergeError::MissingShard(1)
        );

        let mut wrong_stripe = segs.clone();
        wrong_stripe[1].header.stripe_start += 1;
        assert_eq!(
            merge_to_store(wrong_stripe).unwrap_err(),
            MergeError::StripeMismatch(1)
        );

        let mut wrong_token = segs.clone();
        wrong_token[2].header.token ^= 1;
        assert_eq!(
            merge_to_store(wrong_token).unwrap_err(),
            MergeError::TokenMismatch(2)
        );

        let mut wrong_seed = segs.clone();
        wrong_seed[1].header.seed ^= 1;
        assert!(matches!(
            merge_to_store(wrong_seed),
            Err(MergeError::HeaderMismatch(_))
        ));

        let mut stale_tally = segs.clone();
        stale_tally[0].metrics = MetricsSnapshot::default();
        assert_eq!(
            merge_to_store(stale_tally).unwrap_err(),
            MergeError::TallyMismatch(0)
        );

        assert_eq!(merge_to_store([]).unwrap_err(), MergeError::Empty);
    }
}
