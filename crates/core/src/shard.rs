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
use topics_net::{pool, seed};
use topics_obs::{merge_stripped, MergeRule, MetricsSnapshot, Obs, Trace, Word};

/// How the two campaign phases combine across shard traces: visits are
/// striped disjointly (concatenate in shard order = rank order), probe
/// subtrees may repeat across shards (dedup by domain, which also
/// restores the single run's sorted slot order).
pub const MERGE_RULES: [(Word, MergeRule); 2] = [
    (Word::Crawl, MergeRule::Concat),
    (
        Word::AttestationProbe,
        MergeRule::DedupByField {
            key: Word::Domain,
            count_field: Word::Probes,
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
/// directly into a [`ColumnarBuilder`]. Segments are read and decoded
/// on the worker pool, one window of as many segments as the host has
/// cores at a time, and accepted in shard order, so at most that many
/// decoded segments are in memory besides the kept traces. Any decode
/// failure (truncation, checksum mismatch, malformed section) or merge
/// violation (missing/duplicate shard, stripe or token mismatch,
/// diverging duplicates) is a named error; the first failing segment
/// in shard order is the one reported, for any worker count.
///
/// Shard order is validated per segment by
/// [`topics_crawler::shard::StreamingMerge`] (the canonical zero-padded
/// file names make sorted directory order shard order). Because the
/// builder interns strings in first-use order of the same rank-order
/// site walk a single-process crawl performs, the resulting store is
/// byte-identical to the one `crawl` writes without sharding.
pub fn merge_dir_columnar(dir: &Path) -> Result<MergedColumnar, String> {
    merge_dir_with(dir, pool::available_workers())
}

/// [`merge_dir_columnar`] over `workers` decode workers.
fn merge_dir_with(dir: &Path, workers: usize) -> Result<MergedColumnar, String> {
    let paths = segment_paths(dir)?;
    if paths.is_empty() {
        return Err(format!("no segment files (*.seg) in {}", dir.display()));
    }
    let mut merge = StreamingMerge::default();
    let mut builder = ColumnarBuilder::new();
    let mut traces: Vec<Trace> = Vec::with_capacity(paths.len());
    for window in paths.chunks(workers.max(1)) {
        let jobs: Vec<&Path> = window.iter().map(PathBuf::as_path).collect();
        for decoded in pool::run(jobs, workers, None, read_segment).results {
            let mut segment = decoded?;
            traces.push(Trace {
                spans: std::mem::take(&mut segment.trace),
            });
            let sites = merge.accept(segment).map_err(|e| e.to_string())?;
            for site in &sites {
                builder.push_site(site);
            }
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

    /// Write a 5-shard split of a 200-site light-fault campaign into a
    /// fresh `dir` and return the segment paths in shard order.
    fn five_shard_split(config: &LabConfig, tag: &str) -> (PathBuf, Vec<PathBuf>) {
        let dir = std::env::temp_dir().join(format!("topics-shard-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let paths = (0..5)
            .map(|shard| write_segment(&dir, &run_shard(config, shard, 5, &shard_obs())).unwrap())
            .collect();
        (dir, paths)
    }

    fn light_config() -> LabConfig {
        LabConfig::quick(67, 200)
            .with_threads(2)
            .with_fault_profile(topics_net::fault::FaultProfile::light())
    }

    #[test]
    fn sharded_segments_merge_back_to_the_single_run() {
        // At any decode window: 3 workers leave a partial last window,
        // 8 are more than the 5 segments.
        let config = light_config();
        let single_obs = shard_obs();
        let single = Lab::new(config.clone()).run_observed(&single_obs).outcome;
        let single_store = ColumnarCampaign::from_outcome(&single);
        let single_trace = single_obs.trace.finish().stripped();
        let single_json = serde_json::to_string(&single).unwrap();
        let (dir, _) = five_shard_split(&config, "merge");
        for workers in [1, 2, 3, 8] {
            let merged = merge_dir_with(&dir, workers).unwrap();
            assert!(
                merged.store.bytes() == single_store.bytes(),
                "campaign.col differs at {workers} workers"
            );
            assert_eq!(merged.trace, single_trace, "{workers} workers");
            assert_eq!(
                serde_json::to_string(&merged.outcome).unwrap(),
                single_json,
                "{workers} workers"
            );
            assert_eq!(merged.metrics, tally_snapshot(&single), "{workers} workers");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `segment` with one byte in the middle of its `store` section
    /// flipped: the directory's second entry (after the 16-byte magic,
    /// version and section count; each entry is tag u8, offset u64,
    /// len u64, fnv1a u64).
    fn flip_store_byte(segment: &[u8]) -> Vec<u8> {
        let entry = 16 + 25;
        assert_eq!(segment[entry], 2, "the second section is the store");
        let word = |at: usize| u64::from_le_bytes(segment[at..at + 8].try_into().unwrap());
        let mut flipped = segment.to_vec();
        flipped[(word(entry + 1) + word(entry + 9) / 2) as usize] ^= 0x01;
        flipped
    }

    /// The merge error at 1, 2, 3 and 8 workers, checked to be one
    /// message: the one-at-a-time merge's.
    fn merge_error(dir: &Path) -> String {
        let sequential = merge_dir_with(dir, 1).unwrap_err();
        for workers in [2, 3, 8] {
            assert_eq!(
                merge_dir_with(dir, workers).unwrap_err(),
                sequential,
                "{workers} workers"
            );
        }
        sequential
    }

    #[test]
    fn the_first_failing_segment_in_shard_order_is_reported_at_any_worker_count() {
        let (dir, paths) = five_shard_split(&light_config(), "precedence");
        let pristine: Vec<Vec<u8>> = paths.iter().map(|p| std::fs::read(p).unwrap()).collect();
        let fourth = paths[3].file_name().unwrap().to_str().unwrap();

        // A flipped store byte in segment 4, inside the second window at
        // 2 workers: a decode error naming its file.
        std::fs::write(&paths[3], flip_store_byte(&pristine[3])).unwrap();
        let err = merge_error(&dir);
        assert!(
            err.contains("checksum mismatch") && err.contains(fourth),
            "{err}"
        );

        // Shard 1 again at position 2, before the corrupt segment 4: the
        // duplicate is reported, though segment 4 fails to decode in the
        // same window at 8 workers.
        std::fs::write(&paths[1], &pristine[0]).unwrap();
        let err = merge_error(&dir);
        assert!(err.contains("duplicate shard segment: shard 0"), "{err}");

        // A missing last shard.
        std::fs::write(&paths[1], &pristine[1]).unwrap();
        std::fs::write(&paths[3], &pristine[3]).unwrap();
        std::fs::remove_file(&paths[4]).unwrap();
        let err = merge_error(&dir);
        assert!(err.contains("missing shard segment: shard 4"), "{err}");

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
