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
//! `doctor`.

use std::path::{Path, PathBuf};
use std::process::Command;
use topics_core::crawler::columnar::ColumnarCampaign;
use topics_core::net::fault::FaultProfile;
use topics_core::obs::Obs;
use topics_core::{evaluate, merge_dir_columnar, run_shard, write_segment, Lab, LabConfig};

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
        .with_threads(2)
        .with_fault_profile(FaultProfile::parse("0.05").unwrap())
        .with_probe_threads(4);
    let (store, trace, report) = single_run(&config);
    for shards in [1, 4] {
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

#[test]
fn merge_rejects_corrupted_segments_with_named_violations() {
    let (dir, paths) = small_split("corrupt");
    let pristine = std::fs::read_to_string(&paths[0]).unwrap();

    // Truncation: no checksum trailer survives.
    std::fs::write(&paths[0], &pristine[..pristine.len() / 2]).unwrap();
    let err = merge_dir_columnar(&dir).unwrap_err();
    assert!(err.contains("truncated"), "{err}");

    // Bit flip that stays valid JSON: only the checksum can catch it.
    std::fs::write(&paths[0], pristine.replacen("\"rank\":0", "\"rank\":9", 1)).unwrap();
    let err = merge_dir_columnar(&dir).unwrap_err();
    assert!(err.contains("checksum mismatch"), "{err}");

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

    // Corrupt one segment: merge and doctor both exit non-zero, naming
    // the checksum violation.
    let seg_path = segs.join("shard-1-of-2.seg");
    let pristine = std::fs::read_to_string(&seg_path).unwrap();
    std::fs::write(&seg_path, pristine.replacen("\"rank\":0", "\"rank\":9", 1)).unwrap();
    let out = lab(&["merge", "--segments", sd]);
    assert!(!out.status.success(), "merge must fail on corruption");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("checksum mismatch"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = lab(&["doctor", "--campaign", sd]);
    assert!(!out.status.success(), "doctor must fail on corruption");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("checksum mismatch"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );

    // Strict argument handling: bad shard specs and typo'd flags are
    // hard errors, same as every other subcommand.
    for bad in [
        vec!["shard", "--shard", "0/4", "--quiet"],
        vec!["shard", "--shard", "5/4", "--quiet"],
        vec!["shard", "--shard", "1/0", "--quiet"],
        vec!["shard", "--quiet"],
        vec!["shard", "--shar", "1/2", "--quiet"],
        vec!["merge"],
        vec!["merge", "--segment", "dir"],
        vec!["merge", "--segments"],
    ] {
        let out = lab(&bad);
        assert!(!out.status.success(), "must reject {bad:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("error:"),
            "{bad:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    std::fs::remove_dir_all(&dir).unwrap();
}
