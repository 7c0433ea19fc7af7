//! Sharded campaign execution and the deterministic merge.
//!
//! A campaign over `num_sites` ranks can be split into `N` rank-stripe
//! shards ([`topics_crawler::shard::ShardPlan`]) and run as independent
//! processes: each shard crawls only its stripe, probes only the
//! parties its stripe encountered (plus the allow-list), and writes a
//! checksummed binary segment (`shard-K-of-N.seg`: the stripe's own
//! `campaign.col`, its header, metrics tally and stripped trace as
//! sections of one container).
//! [`merge_dir_columnar`] streams the segments back into one
//! `campaign.col`, metrics snapshot, and stripped trace that are
//! **byte-identical** to a single-process run of the same seed — the contract proven by
//! `tests/integration_shard.rs` and enforced in CI.
//!
//! Why byte-identity holds: every per-visit input (global rank,
//! simulated start time, per-profile seed, fault coins) is derived from
//! the global rank and the campaign seed, never from the stripe, and
//! each shard resolves the same fault seed the unsharded run would
//! (pinned in the segment header so the merge can verify it). Probe
//! results are pure in (domain, probe time, world, fault plan), so the
//! union of per-shard probe sets, sorted by domain, is exactly the
//! single run's probe vector.

use crate::config::LabConfig;
use crate::lab::Lab;
use std::io;
use std::path::{Path, PathBuf};
use topics_crawler::campaign::{run_campaign_stripe, CrawlTarget};
use topics_crawler::columnar::{ColumnarBuilder, ColumnarCampaign};
use topics_crawler::record::{CampaignOutcome, CAMPAIGN_SCHEMA_VERSION};
use topics_crawler::shard::{
    shard_token, tally_snapshot, Segment, SegmentHeader, ShardPlan, StreamingMerge, SEGMENT_VERSION,
};
use topics_net::seed;
use topics_obs::{merge_stripped, MergeRule, MetricsSnapshot, Obs, Trace};

/// How the two campaign phases combine across shard traces: visits are
/// striped disjointly (concatenate in shard order = rank order), probe
/// subtrees may repeat across shards (dedup by domain, which also
/// restores the single run's sorted slot order).
pub const MERGE_RULES: [(&str, MergeRule); 2] = [
    ("crawl", MergeRule::Concat),
    (
        "attestation-probe",
        MergeRule::DedupByField {
            key: "domain",
            count_field: "probes",
        },
    ),
];

/// Canonical segment file name for shard `shard` (0-based) of `shards`,
/// zero-padded so lexicographic directory order is shard order:
/// `shard-01-of-16.seg`.
pub fn segment_file_name(shard: usize, shards: usize) -> String {
    let width = shards.to_string().len();
    format!("shard-{:0width$}-of-{shards}.seg", shard + 1)
}

/// Run shard `shard` (0-based) of `shards` for `config` and return its
/// record segment. The caller's `obs` must have tracing enabled — the
/// segment carries the shard's stripped span trace — and must not have
/// opened any other trace phases (the merge expects exactly the
/// campaign's phase sequence).
///
/// The shard run derives the same fault seed the unsharded run would
/// (`config.campaign.fault_seed`, else `derive(world_seed, "faults")`)
/// and pins it into both the running config and the segment header, so
/// fault schedules match the single-process run and the merge can
/// verify every shard agreed. The probe memo cache is forced off: warm
/// hits would change the trace's `cache_hits` accounting and break
/// byte-identity.
pub fn run_shard(config: &LabConfig, shard: usize, shards: usize, obs: &Obs) -> Segment {
    assert!(shard < shards, "shard {shard} out of range 0..{shards}");
    assert!(
        obs.trace.is_enabled(),
        "run_shard needs a trace-enabled Obs (the segment records the stripped trace)"
    );
    let lab = Lab::new(config.clone());
    let num_sites = lab.world.targets().len();
    let plan = ShardPlan::new(shards, num_sites);
    let stripe = plan.stripe(shard);

    let world_seed = lab.world.seed();
    let fault_seed = lab
        .campaign
        .fault_seed
        .unwrap_or_else(|| seed::derive(world_seed, "faults"));
    let mut campaign = lab.campaign.clone();
    campaign.fault_seed = Some(fault_seed);
    campaign.probe_cache = false;

    let outcome = run_campaign_stripe(
        &lab.world,
        &campaign,
        stripe.clone(),
        Some(obs),
        |done, total| {
            obs.events.info(
                "progress",
                vec![
                    ("done".to_owned(), done.into()),
                    ("total".to_owned(), total.into()),
                ],
            );
        },
    );

    let metrics = tally_snapshot(&outcome);
    let trace = obs.trace.finish().stripped().spans;
    Segment {
        header: SegmentHeader {
            version: SEGMENT_VERSION,
            seed: world_seed,
            shard,
            shards,
            num_sites,
            stripe_start: stripe.start,
            stripe_end: stripe.end,
            token: shard_token(world_seed, shard),
            started: campaign.start,
            fault: format!("{:?}", campaign.fault),
            fault_seed,
        },
        sites: outcome.sites,
        allow_list: outcome.allow_list,
        probes: outcome.attestation_probes,
        metrics,
        trace,
    }
}

/// Write a segment to its canonical file name under `dir` and return
/// the path.
pub fn write_segment(dir: &Path, segment: &Segment) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(segment_file_name(
        segment.header.shard,
        segment.header.shards,
    ));
    std::fs::write(&path, segment.encode())?;
    Ok(path)
}

/// Read and integrity-check one segment file.
pub fn read_segment(path: &Path) -> Result<Segment, String> {
    let bytes =
        std::fs::read(path).map_err(|e| format!("reading segment {}: {e}", path.display()))?;
    Segment::decode(&bytes).map_err(|e| format!("segment {}: {e}", path.display()))
}

/// Paths of every `*.seg` file directly under `dir`, sorted by name
/// (the canonical names make that shard order).
pub fn segment_paths(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "seg"))
        .collect();
    paths.sort();
    Ok(paths)
}

/// A merged campaign, streamed straight into the columnar writer.
#[derive(Debug)]
pub struct MergedColumnar {
    /// The merged campaign as an encoded columnar store — byte-identical
    /// to the store a single-process `crawl` writes.
    pub store: ColumnarCampaign,
    /// The reassembled outcome (reconstructed from the store's arena,
    /// so equal domains share storage).
    pub outcome: CampaignOutcome,
    /// Tally snapshot of the merged outcome, re-tallied from the merged
    /// records (per-shard tallies are *not* additive for deduplicated
    /// probe series).
    pub metrics: MetricsSnapshot,
    /// Merged stripped trace, byte-identical to the single run's
    /// [`Trace::stripped`] trace.
    pub trace: Trace,
}

/// Merge every `*.seg` under `dir` by streaming each segment's sites
/// directly into a [`ColumnarBuilder`] — one decoded segment in memory
/// at a time. Any decode failure (truncation, checksum mismatch,
/// malformed section) or merge violation (missing/duplicate shard, stripe
/// or token mismatch, diverging duplicates) is a named error.
///
/// Shard order is validated per segment by
/// [`topics_crawler::shard::StreamingMerge`] (the canonical zero-padded
/// file names make sorted directory order shard order). Because the
/// builder interns strings in first-use order of the same rank-order
/// site walk a single-process crawl performs, the resulting store is
/// byte-identical to the one `crawl` writes without sharding.
pub fn merge_dir_columnar(dir: &Path) -> Result<MergedColumnar, String> {
    let paths = segment_paths(dir)?;
    if paths.is_empty() {
        return Err(format!("no segment files (*.seg) in {}", dir.display()));
    }
    let mut merge = StreamingMerge::default();
    let mut builder = ColumnarBuilder::new();
    let mut traces: Vec<Trace> = Vec::with_capacity(paths.len());
    for path in &paths {
        let mut segment = read_segment(path)?;
        traces.push(Trace {
            spans: std::mem::take(&mut segment.trace),
        });
        let sites = merge.accept(segment).map_err(|e| e.to_string())?;
        for site in &sites {
            builder.push_site(site);
        }
    }
    let (allow_list, probes, started) = merge.finish().map_err(|e| e.to_string())?;
    let store = builder.finish(CAMPAIGN_SCHEMA_VERSION, &allow_list, &probes, started);
    let outcome = store.to_outcome().map_err(|e| e.to_string())?;
    let trace = merge_stripped(traces, &MERGE_RULES).map_err(|e| format!("merging traces: {e}"))?;
    let metrics = tally_snapshot(&outcome);
    Ok(MergedColumnar {
        store,
        outcome,
        metrics,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard_obs() -> Obs {
        Obs::new().with_trace()
    }

    #[test]
    fn sharded_segments_merge_back_to_the_single_run() {
        let config = LabConfig::quick(91, 60).with_threads(2);
        let single_obs = shard_obs();
        let single = Lab::new(config.clone()).run_observed(&single_obs).outcome;
        let single_store = ColumnarCampaign::from_outcome(&single);
        let single_trace = single_obs.trace.finish().stripped();

        let dir = std::env::temp_dir().join(format!("topics-shard-core-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for shard in 0..3 {
            let segment = run_shard(&config, shard, 3, &shard_obs());
            write_segment(&dir, &segment).unwrap();
        }
        let merged = merge_dir_columnar(&dir).unwrap();
        assert_eq!(
            merged.store.bytes(),
            single_store.bytes(),
            "streamed merge store must be byte-identical to the single-run store"
        );
        assert_eq!(merged.trace, single_trace);
        assert_eq!(
            serde_json::to_string(&merged.outcome).unwrap(),
            serde_json::to_string(&single).unwrap()
        );
        assert_eq!(merged.metrics, tally_snapshot(&single));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segment_file_names_sort_in_shard_order() {
        assert_eq!(segment_file_name(0, 4), "shard-1-of-4.seg");
        assert_eq!(segment_file_name(3, 4), "shard-4-of-4.seg");
        assert_eq!(segment_file_name(9, 16), "shard-10-of-16.seg");
        let mut names: Vec<String> = (0..16).map(|k| segment_file_name(k, 16)).collect();
        let sorted = {
            let mut s = names.clone();
            s.sort();
            s
        };
        assert_eq!(names, sorted, "zero-padding keeps shard order");
        names.dedup();
        assert_eq!(names.len(), 16);
    }

    #[test]
    fn merge_dir_demands_segments() {
        let dir = std::env::temp_dir().join(format!("topics-shard-empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let err = merge_dir_columnar(&dir).unwrap_err();
        assert!(err.contains("no segment files"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
