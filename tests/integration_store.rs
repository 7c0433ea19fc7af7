//! Integration: `campaign.col` is the one campaign store.
//!
//! The store contract: a bundle's `campaign.col` loads back the exact
//! dataset the crawl produced, and the column-scan index agrees with
//! the row-struct `CampaignIndex` field for field — plain and under
//! fault injection. The bytes themselves are deterministic: same seed →
//! same file, regardless of thread count, run repetition, or whether
//! the store was written by a single crawl or streamed out of a
//! segment merge. And the decoder answers every truncation and every
//! flipped byte with a typed error, never a panic or a wrong campaign.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;
use topics_core::analysis::colscan::{self, ColumnIndex};
use topics_core::analysis::dataset::DatasetId;
use topics_core::analysis::index::{CampaignIndex, PresenceCount};
use topics_core::crawler::columnar::ColumnarCampaign;
use topics_core::crawler::record::CampaignOutcome;
use topics_core::export::BUNDLE_FILES;
use topics_core::net::domain::Domain;
use topics_core::net::fault::FaultProfile;
use topics_core::obs::Obs;
use topics_core::{
    evaluate, load_campaign, merge_dir_columnar, run_shard, write_bundle, write_segment, Lab,
    LabConfig, QueryService, ServeError, StoreKind, API_ENDPOINTS,
};

const SITES: usize = 200;

/// Unique temp dir per test (tests run concurrently in one process).
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("topics-istore-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const DATASETS: [DatasetId; 3] = [
    DatasetId::BeforeAccept,
    DatasetId::AfterAccept,
    DatasetId::AfterReject,
];

/// Every aggregate of the column scan must equal the row-struct index.
fn assert_index_equiv(outcome: &CampaignOutcome, col: &ColumnIndex, tag: &str) {
    let idx = CampaignIndex::new(outcome);
    let want_candidates: Vec<Domain> = idx.candidates().iter().map(|d| (*d).clone()).collect();
    assert_eq!(col.candidates, want_candidates, "{tag}: candidates");
    for (slot, id) in DATASETS.into_iter().enumerate() {
        assert_eq!(
            col.visit_counts[slot],
            idx.visits(id).len(),
            "{tag}: {id:?} visits"
        );
        assert_eq!(
            col.call_counts[slot],
            idx.calls(id).len(),
            "{tag}: {id:?} calls"
        );
        let want_parties: BTreeSet<Domain> = idx
            .calling_parties(id)
            .iter()
            .map(|d| (*d).clone())
            .collect();
        assert_eq!(
            col.calling_parties[slot], want_parties,
            "{tag}: {id:?} parties"
        );
        let want_presence: BTreeMap<Domain, PresenceCount> = idx
            .presence(id)
            .iter()
            .map(|(d, c)| ((*d).clone(), *c))
            .collect();
        assert_eq!(col.presence[slot], want_presence, "{tag}: {id:?} presence");
        let want_sites: BTreeMap<Domain, BTreeSet<Domain>> = idx
            .calling_sites(id)
            .iter()
            .map(|(d, s)| ((*d).clone(), s.iter().map(|w| (*w).clone()).collect()))
            .collect();
        assert_eq!(
            col.calling_sites[slot], want_sites,
            "{tag}: {id:?} calling sites"
        );
    }
    assert_eq!(
        col.unique_third_parties,
        idx.unique_third_parties(),
        "{tag}: third parties"
    );
    assert_eq!(
        col.questionable_ba_visits,
        idx.ba_tags().iter().filter(|t| t.questionable).count(),
        "{tag}: questionable visits"
    );
    assert_eq!(
        col.outcome_counts,
        outcome.outcome_counts(),
        "{tag}: outcome counts"
    );
}

/// Write the bundle for one outcome and assert every artefact is
/// there, the store loads back the same dataset, and the column scan
/// matches the row index.
fn assert_bundle_round_trips(outcome: &CampaignOutcome, tag: &str) {
    let eval = evaluate(outcome);
    let dir = temp_dir(tag);
    write_bundle(&dir, outcome, &eval, false, StoreKind::Columnar).unwrap();
    for artefact in BUNDLE_FILES {
        assert!(dir.join(artefact).is_file(), "{tag}: no {artefact}");
    }

    let loaded = load_campaign(&dir.join("campaign.col")).unwrap();
    assert_eq!(
        serde_json::to_string(&loaded).unwrap(),
        serde_json::to_string(outcome).unwrap(),
        "{tag}: the loaded dataset differs from the crawled one"
    );

    let store = ColumnarCampaign::decode(std::fs::read(dir.join("campaign.col")).unwrap()).unwrap();
    store.verify().unwrap();
    let col = colscan::scan(&store).unwrap();
    assert_index_equiv(outcome, &col, tag);

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn columnar_bundle_round_trips_and_scans_like_the_row_index() {
    let outcome = Lab::new(LabConfig::quick(67, SITES).with_threads(2))
        .run()
        .outcome;
    assert_bundle_round_trips(&outcome, "plain");
}

#[test]
fn columnar_bundle_round_trips_under_fault_injection() {
    let config = LabConfig::quick(73, SITES)
        .with_threads(2)
        .with_fault_profile(FaultProfile::parse("0.05").unwrap());
    let outcome = Lab::new(config).run().outcome;
    let counts = outcome.outcome_counts();
    assert!(
        counts.degraded + counts.failed > 0,
        "fault profile must actually degrade some sites"
    );
    assert_bundle_round_trips(&outcome, "faulted");
}

#[test]
fn columnar_bytes_are_identical_across_runs_and_thread_counts() {
    let reference = ColumnarCampaign::from_outcome(
        &Lab::new(LabConfig::quick(71, 150).with_threads(1))
            .run()
            .outcome,
    );
    for threads in [1, 2, 4] {
        let outcome = Lab::new(LabConfig::quick(71, 150).with_threads(threads))
            .run()
            .outcome;
        let store = ColumnarCampaign::from_outcome(&outcome);
        assert_eq!(
            store.bytes(),
            reference.bytes(),
            "{threads}-thread store bytes differ"
        );
    }
}

#[test]
fn sharded_columnar_merge_reproduces_the_single_run_store() {
    for (tag, config) in [
        ("plain", LabConfig::quick(79, SITES).with_threads(2)),
        (
            "faulted",
            LabConfig::quick(83, SITES)
                .with_threads(2)
                .with_fault_profile(FaultProfile::parse("0.05").unwrap()),
        ),
    ] {
        let outcome = Lab::new(config.clone()).run().outcome;
        let single = ColumnarCampaign::from_outcome(&outcome);
        let report = evaluate(&outcome).render_report();
        for shards in [1, 2, 4] {
            let dir = temp_dir(&format!("merge-{tag}-{shards}"));
            for shard in 0..shards {
                let segment = run_shard(&config, shard, shards, &Obs::new().with_trace());
                write_segment(&dir, &segment).unwrap();
            }
            let merged = merge_dir_columnar(&dir).unwrap();
            assert_eq!(
                merged.store.bytes(),
                single.bytes(),
                "{tag}: {shards}-shard merged store differs from the single-run store"
            );
            assert_eq!(
                evaluate(&merged.outcome).render_report(),
                report,
                "{tag}: {shards}-shard report differs"
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

fn lab(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_topics-lab"))
        .args(args)
        .output()
        .expect("topics-lab runs")
}

/// A small crawled store plus what it must decode to: the outcome's
/// serialization and every body `serve` renders from it.
struct Fixture {
    bytes: Vec<u8>,
    outcome: String,
    bodies: Vec<Vec<u8>>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let outcome = Lab::new(LabConfig::quick(89, 12).with_threads(2))
            .run()
            .outcome;
        let bytes = ColumnarCampaign::from_outcome(&outcome).bytes().to_vec();
        let dir = temp_dir("fixture");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.col");
        std::fs::write(&path, &bytes).unwrap();
        let bodies = served_bodies(&QueryService::build(&path, None).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
        Fixture {
            bytes,
            outcome: serde_json::to_string(&outcome).unwrap(),
            bodies,
        }
    })
}

fn served_bodies(service: &QueryService) -> Vec<Vec<u8>> {
    API_ENDPOINTS
        .iter()
        .map(|(path, _)| service.body(path).expect("artefact endpoint").1.to_vec())
        .collect()
}

/// Load `bytes` through both readers of the store: each must refuse
/// them with an error, or — if they still decode — reproduce the
/// original campaign exactly.
fn assert_rejected_or_identical(path: &Path, bytes: &[u8]) {
    let fixture = fixture();
    std::fs::write(path, bytes).unwrap();
    if let Ok(outcome) = load_campaign(path) {
        assert_eq!(serde_json::to_string(&outcome).unwrap(), fixture.outcome);
    }
    if let Ok(service) = QueryService::build(path, None) {
        assert!(served_bodies(&service) == fixture.bodies);
    }
}

#[test]
fn every_truncation_of_the_store_is_a_typed_error() {
    let fixture = fixture();
    let dir = temp_dir("truncate");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("campaign.col");
    for len in 0..fixture.bytes.len() {
        std::fs::write(&path, &fixture.bytes[..len]).unwrap();
        let err = load_campaign(&path).expect_err("a truncated store must not load");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "len {len}");
        assert!(
            matches!(
                QueryService::build(&path, None),
                Err(ServeError::Corrupt(..))
            ),
            "serve built from {len} of {} bytes",
            fixture.bytes.len()
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn every_header_byte_flip_is_rejected() {
    // The header (magic, versions, counts, section directory and its
    // checksum) is read before any checksum vouches for it, so every
    // byte of it is flipped, not a random sample.
    const HEADER_BYTES: usize = 8 + 4 + 4 + 8 + 8 * 4 + 4 + 8 * 25 + 8;
    let dir = temp_dir("header-flips");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("campaign.col");
    for at in 0..HEADER_BYTES {
        for mask in [0x01, 0x80, 0xFF] {
            let mut bytes = fixture().bytes.clone();
            bytes[at] ^= mask;
            assert_rejected_or_identical(&path, &bytes);
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn flipped_store_bytes_never_load_a_wrong_campaign(
        at in any::<usize>(),
        mask in 1u8..=255u8,
    ) {
        let fixture = fixture();
        let mut bytes = fixture.bytes.clone();
        let at = at % bytes.len();
        bytes[at] ^= mask;
        let dir = temp_dir("flip");
        std::fs::create_dir_all(&dir).unwrap();
        assert_rejected_or_identical(&dir.join("campaign.col"), &bytes);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn a_legacy_campaign_json_is_a_typed_bad_magic_error() {
    let dir = temp_dir("legacy");
    std::fs::create_dir_all(&dir).unwrap();
    let legacy = dir.join("campaign.json");
    std::fs::write(&legacy, &fixture().outcome).unwrap();

    let err = load_campaign(&legacy).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("bad magic"), "{err}");

    // The CLI classifies it as a corrupt store: exit 4.
    let out = lab(&["report", "--campaign", legacy.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(4),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad magic"));
    std::fs::remove_dir_all(&dir).unwrap();
}
