//! Integration: sharded campaigns reassemble byte-identically.
//!
//! The shard/merge contract: splitting a seeded world into N rank
//! stripes, running each shard independently, and merging the record
//! segments must reproduce the single-process campaign **byte for
//! byte** — the `campaign.col` store, the stripped span
//! trace, and the rendered report — for every shard count, including
//! under fault injection and probe-pool parallelism. Corrupted,
//! truncated, duplicated or missing segments must be rejected with
//! named violations, by the library, the `merge` subcommand, and
//! `doctor`; and the segment decoder answers every truncation and
//! every flipped byte with a typed error, never a panic.

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;
use topics_core::crawler::columnar::ColumnarCampaign;
use topics_core::crawler::shard::Segment;
use topics_core::net::fault::FaultProfile;
use topics_core::obs::{merge_stripped, Obs, Trace};
use topics_core::{
    evaluate, merge_dir_columnar, read_segment, run_shard, write_segment, Lab, LabConfig,
    MERGE_RULES,
};

const SITES: usize = 200;

/// Unique temp dir per test (tests run concurrently in one process).
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("topics-ishard-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The single-process artefacts: `campaign.col` bytes, stripped trace
/// JSONL, rendered report.
fn single_run(config: &LabConfig) -> (Vec<u8>, String, String) {
    let obs = Obs::new().with_trace();
    let run = Lab::new(config.clone()).run_observed(&obs);
    (
        ColumnarCampaign::from_outcome(&run.outcome)
            .bytes()
            .to_vec(),
        obs.trace.finish().stripped().to_jsonl(),
        evaluate(&run.outcome).render_report(),
    )
}

/// Run every shard of an N-way split into `dir` and merge the segments
/// back into the same three artefacts.
fn sharded_run(config: &LabConfig, shards: usize, dir: &Path) -> (Vec<u8>, String, String) {
    for shard in 0..shards {
        let segment = run_shard(config, shard, shards, &Obs::new().with_trace());
        write_segment(dir, &segment).unwrap();
    }
    let merged = merge_dir_columnar(dir).unwrap();
    (
        merged.store.bytes().to_vec(),
        merged.trace.to_jsonl(),
        evaluate(&merged.outcome).render_report(),
    )
}

#[test]
fn one_two_and_four_shards_reassemble_byte_identically() {
    let config = LabConfig::quick(47, SITES).with_threads(2);
    let (store, trace, report) = single_run(&config);
    assert!(!store.is_empty() && !trace.is_empty());
    for shards in [1, 2, 4] {
        let dir = temp_dir(&format!("plain-{shards}"));
        let (mstore, mtrace, mreport) = sharded_run(&config, shards, &dir);
        assert!(mstore == store, "{shards}-shard campaign.col differs");
        assert_eq!(mtrace, trace, "{shards}-shard stripped trace differs");
        assert_eq!(mreport, report, "{shards}-shard report differs");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn sharding_is_byte_identical_under_faults_and_probe_parallelism() {
    let config = LabConfig::quick(53, SITES)
        .with_threads(4)
        .with_fault_profile(FaultProfile::parse("0.05").unwrap());
    let (store, trace, report) = single_run(&config);
    for shards in [1, 2, 4] {
        let dir = temp_dir(&format!("fault-{shards}"));
        let (mstore, mtrace, mreport) = sharded_run(&config, shards, &dir);
        assert!(
            mstore == store,
            "{shards}-shard faulty campaign.col differs"
        );
        assert_eq!(mtrace, trace, "{shards}-shard faulty trace differs");
        assert_eq!(mreport, report, "{shards}-shard faulty report differs");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Write a 2-shard split of a small campaign and return the segment
/// paths (shard order).
fn small_split(tag: &str) -> (PathBuf, Vec<PathBuf>) {
    let config = LabConfig::quick(59, 40).with_threads(2);
    let dir = temp_dir(tag);
    let paths: Vec<PathBuf> = (0..2)
        .map(|shard| {
            let segment = run_shard(&config, shard, 2, &Obs::new().with_trace());
            write_segment(&dir, &segment).unwrap()
        })
        .collect();
    (dir, paths)
}

/// Offset of a byte in the middle of a segment's `store` section: the
/// directory's second entry (after the 16-byte magic, version and
/// section count; each entry is tag u8, offset u64, len u64, fnv1a u64).
fn store_payload_byte(segment: &[u8]) -> usize {
    let entry = 16 + 25;
    assert_eq!(segment[entry], 2, "the second section is the store");
    let word = |at: usize| u64::from_le_bytes(segment[at..at + 8].try_into().unwrap());
    (word(entry + 1) + word(entry + 9) / 2) as usize
}

/// `segment` with one byte of its stripe store flipped.
fn flip_store_byte(segment: &[u8]) -> Vec<u8> {
    let mut flipped = segment.to_vec();
    flipped[store_payload_byte(segment)] ^= 0x01;
    flipped
}

#[test]
fn merge_rejects_corrupted_segments_with_named_violations() {
    let (dir, paths) = small_split("corrupt");
    let pristine = std::fs::read(&paths[0]).unwrap();
    let name = paths[0].file_name().unwrap().to_str().unwrap();

    // Truncation: the directory promises bytes the file lacks.
    std::fs::write(&paths[0], &pristine[..pristine.len() / 2]).unwrap();
    let err = merge_dir_columnar(&dir).unwrap_err();
    assert!(err.contains("truncated") && err.contains(name), "{err}");

    // A flipped byte inside the stripe store: only the checksum can
    // catch it.
    std::fs::write(&paths[0], flip_store_byte(&pristine)).unwrap();
    let err = merge_dir_columnar(&dir).unwrap_err();
    assert!(
        err.contains("checksum mismatch") && err.contains(name),
        "{err}"
    );

    // Duplicated shard: the same segment under both file names.
    std::fs::write(&paths[0], &pristine).unwrap();
    std::fs::copy(&paths[0], &paths[1]).unwrap();
    let err = merge_dir_columnar(&dir).unwrap_err();
    assert!(err.contains("duplicate shard"), "{err}");

    // Missing shard: only one of the two segments present.
    std::fs::remove_file(&paths[1]).unwrap();
    let err = merge_dir_columnar(&dir).unwrap_err();
    assert!(err.contains("missing shard"), "{err}");

    std::fs::remove_dir_all(&dir).unwrap();
}

fn lab(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_topics-lab"))
        .args(args)
        .output()
        .expect("topics-lab runs")
}

#[test]
fn cli_shard_merge_doctor_round_trip_and_failure_exits() {
    let dir = temp_dir("cli");
    let segs = dir.join("segs");
    let single = dir.join("single");
    let sd = segs.to_str().unwrap();

    // Single-process reference bundle.
    let out = lab(&[
        "crawl",
        "--sites",
        "60",
        "--seed",
        "13",
        "--quiet",
        "--out",
        single.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The bundle holds the one store, and `report` reads the directory.
    assert!(!single.join("campaign.json").exists());
    let out = lab(&["report", "--campaign", single.to_str().unwrap()]);
    assert_eq!(
        String::from_utf8_lossy(&out.stdout).trim_end(),
        std::fs::read_to_string(single.join("report.txt"))
            .unwrap()
            .trim_end()
    );

    // Shard twice, merge in place, compare byte-for-byte.
    for spec in ["1/2", "2/2"] {
        let out = lab(&[
            "shard", "--shard", spec, "--sites", "60", "--seed", "13", "--quiet", "--out", sd,
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let out = lab(&["merge", "--segments", sd]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for artefact in ["campaign.col", "report.txt"] {
        assert!(
            std::fs::read(single.join(artefact)).unwrap()
                == std::fs::read(segs.join(artefact)).unwrap(),
            "merged {artefact} differs from the single-process run"
        );
    }

    // Doctor verifies the segments sitting next to the merged bundle.
    let out = lab(&["doctor", "--campaign", sd]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(stdout.contains("== Shard segments =="), "{stdout}");
    assert!(stdout.contains("[ok] 2 segment file(s)"), "{stdout}");
    assert!(stdout.contains("== Columnar store =="), "{stdout}");
    assert!(stdout.contains("[ok] campaign.col"), "{stdout}");

    // Corrupt one segment: merge exits 4 like every other corrupt
    // input, and merge and doctor both name the checksum violation.
    let seg_path = segs.join("shard-1-of-2.seg");
    let pristine = std::fs::read(&seg_path).unwrap();
    std::fs::write(&seg_path, flip_store_byte(&pristine)).unwrap();
    let out = lab(&["merge", "--segments", sd]);
    assert_eq!(
        out.status.code(),
        Some(4),
        "merge must exit 4 on corruption: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("checksum mismatch"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // A truncated segment is corrupt too.
    std::fs::write(&seg_path, &pristine[..pristine.len() / 2]).unwrap();
    let out = lab(&["merge", "--segments", sd]);
    assert_eq!(out.status.code(), Some(4), "truncated segment");
    assert!(String::from_utf8_lossy(&out.stderr).contains("truncated"));
    std::fs::write(&seg_path, flip_store_byte(&pristine)).unwrap();
    let out = lab(&["doctor", "--campaign", sd]);
    assert!(!out.status.success(), "doctor must fail on corruption");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("checksum mismatch"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );

    // A missing segments directory, or one without *.seg files, is a
    // missing input: exit 3.
    let empty = dir.join("empty");
    std::fs::create_dir_all(&empty).unwrap();
    for absent in [dir.join("absent"), empty] {
        let out = lab(&["merge", "--segments", absent.to_str().unwrap()]);
        assert_eq!(
            out.status.code(),
            Some(3),
            "{}: {}",
            absent.display(),
            String::from_utf8_lossy(&out.stderr)
        );
    }

    std::fs::remove_dir_all(&dir).unwrap();
}

/// The encoded segments of a 2-shard split of a 40-site campaign.
fn fixture() -> &'static [Vec<u8>] {
    static SEGMENTS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    SEGMENTS.get_or_init(|| {
        let config = LabConfig::quick(61, 40).with_threads(2);
        (0..2)
            .map(|shard| run_shard(&config, shard, 2, &Obs::new().with_trace()).encode())
            .collect()
    })
}

#[test]
fn segments_decode_back_to_the_shard_run() {
    // The decoded trace is the shard's stripped trace exactly, F64
    // fields included; the decoded store is the stripe's own store.
    let config = LabConfig::quick(61, 40).with_threads(2);
    for (shard, bytes) in fixture().iter().enumerate() {
        let segment = run_shard(&config, shard, 2, &Obs::new().with_trace());
        let decoded = Segment::decode(bytes).expect("a fresh segment decodes");
        assert!(!decoded.trace.is_empty());
        assert_eq!(decoded.trace, segment.trace);
        assert_eq!(decoded.header, segment.header);
        assert_eq!(decoded.metrics, segment.metrics);
        assert_eq!(decoded.allow_list, segment.allow_list);
        assert_eq!(decoded.probes, segment.probes);
        assert_eq!(
            serde_json::to_string(&decoded.sites).unwrap(),
            serde_json::to_string(&segment.sites).unwrap()
        );
    }
}

#[test]
fn every_truncation_of_a_segment_is_a_typed_error() {
    for bytes in fixture() {
        for len in 0..bytes.len() {
            assert!(
                Segment::decode(&bytes[..len]).is_err(),
                "{len} of {} bytes decoded",
                bytes.len()
            );
        }
    }
}

#[test]
fn every_header_byte_flip_of_a_segment_is_rejected() {
    // Magic, version, section count, the four 25-byte directory entries
    // and the header checksum are read before any checksum vouches for
    // them, so every byte of them is flipped, not a random sample.
    const HEADER_BYTES: usize = 8 + 4 + 4 + 4 * 25 + 8;
    for bytes in fixture() {
        for at in 0..HEADER_BYTES {
            for mask in [0x01, 0x80, 0xFF] {
                let mut flipped = bytes.clone();
                flipped[at] ^= mask;
                assert!(
                    Segment::decode(&flipped).is_err(),
                    "flip {mask:#04x} at {at}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn flipped_segment_bytes_are_typed_errors(
        which in 0usize..2,
        at in any::<usize>(),
        mask in 1u8..=255u8,
    ) {
        // FNV-1a changes under any single-byte change, so every flip is
        // caught by the header or a section checksum.
        let mut bytes = fixture()[which].clone();
        let at = at % bytes.len();
        bytes[at] ^= mask;
        prop_assert!(Segment::decode(&bytes).is_err());
    }
}

#[test]
fn a_v1_jsonl_segment_is_a_bad_magic_error_naming_the_file() {
    let dir = temp_dir("legacy");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("shard-1-of-1.seg");
    std::fs::write(
        &path,
        "{\"kind\":\"header\",\"version\":1,\"seed\":7,\"shard\":0,\"shards\":1}\n",
    )
    .unwrap();
    let err = read_segment(&path).unwrap_err();
    assert!(err.contains("bad magic"), "{err}");
    assert!(err.contains(path.to_str().unwrap()), "{err}");
    let err = merge_dir_columnar(&dir).unwrap_err();
    assert!(err.contains("bad magic"), "{err}");

    // The CLI classifies it as a corrupt input: exit 4.
    let out = lab(&["merge", "--segments", dir.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(4),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad magic"));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The stripped trace of a traced single-process run of `config`.
fn stripped_trace(config: &LabConfig) -> Trace {
    let obs = Obs::new().with_trace();
    Lab::new(config.clone()).run_observed(&obs);
    obs.trace.finish().stripped()
}

/// A 20-site light-fault campaign's stripped trace: the base the
/// mutation cases below corrupt.
fn base_trace() -> &'static Trace {
    static TRACE: OnceLock<Trace> = OnceLock::new();
    TRACE.get_or_init(|| {
        stripped_trace(&LabConfig::quick(67, 20).with_fault_profile(FaultProfile::light()))
    })
}

/// One structural corruption of a stripped trace, chosen by `kind`, at
/// span positions derived from `a` and `b`.
fn mutate(mut trace: Trace, kind: usize, a: usize, b: usize) -> Trace {
    let n = trace.spans.len();
    // A non-root span, and a different span.
    let i = 1 + a % (n - 1);
    let j = (i + 1 + b % (n - 1)) % n;
    let spans = &mut trace.spans;
    match kind {
        // Duplicated id.
        0 => spans[i].id = spans[j].id,
        // Shuffled ids: two spans trade theirs.
        1 => {
            let id = spans[i].id;
            spans[i].id = spans[j].id;
            spans[j].id = id;
        }
        // A parent pointing forward, at the span itself, or nowhere.
        2 => {
            let i = i.min(n - 2);
            spans[i].parent = Some(spans[i + 1 + b % (n - 1 - i)].id);
        }
        3 => spans[i].parent = Some(spans[i].id),
        4 => spans[i].parent = [None, Some(0), Some(n as u64 + 1 + b as u64 % 1000)][b % 3],
        // An operational span left in.
        5 => spans[i].op = true,
        // The root missing.
        _ => {
            spans.remove(0);
        }
    }
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn merged_shard_traces_equal_the_single_run_trace(
        seed in 0u64..1_000,
        shards in 1usize..=5,
    ) {
        let config = LabConfig::quick(seed, 30).with_fault_profile(FaultProfile::light());
        let traces: Vec<Trace> = (0..shards)
            .map(|shard| Trace {
                spans: run_shard(&config, shard, shards, &Obs::new().with_trace()).trace,
            })
            .collect();
        let borrowed = merge_stripped(&traces, &MERGE_RULES).unwrap();
        let owned = merge_stripped(traces, &MERGE_RULES).unwrap();
        prop_assert_eq!(&owned, &borrowed, "owned and borrowed inputs merge alike");
        prop_assert_eq!(owned, stripped_trace(&config), "{} shards", shards);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn corrupted_stripped_traces_are_merge_errors(
        kind in 0usize..7,
        a in any::<usize>(),
        b in any::<usize>(),
        paired in any::<bool>(),
    ) {
        let base = base_trace();
        let bad = mutate(base.clone(), kind, a, b);
        let inputs = if paired { vec![base.clone(), bad] } else { vec![bad] };
        prop_assert!(merge_stripped(inputs, &MERGE_RULES).is_err(), "mutation {} merged", kind);
    }
}
