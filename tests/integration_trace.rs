//! Integration: the hierarchical trace subsystem.
//!
//! The trace is part of the determinism contract: with wall-clock and
//! operational worker spans stripped, the same seed and configuration
//! must serialize to byte-identical JSONL regardless of thread counts.
//! On top of the trace, the doctor report must profile a real campaign
//! and catch structural corruption, and the `trace.col` reader must
//! answer every damaged file with a typed error.

use std::path::{Path, PathBuf};
use std::process::Command;
use topics_core::crawler::record::CampaignOutcome;
use topics_core::crawler::spans::{decode_trace, encode_trace};
use topics_core::crawler::ColumnarError;
use topics_core::net::fault::FaultProfile;
use topics_core::obs::{mem_profile, FieldValue, Obs, Trace, Word};
use topics_core::{
    diagnose, diagnose_bundle, diagnose_trace, load_campaign, load_trace, Lab, LabConfig,
    QueryService, StoreKind, TRACE_FILE,
};

const SITES: usize = 500;

fn traced_run(config: LabConfig) -> (CampaignOutcome, Trace) {
    let obs = Obs::new().with_trace();
    let run = Lab::new(config).run_observed(&obs);
    (run.outcome, obs.trace.finish())
}

fn stripped_jsonl(config: LabConfig) -> String {
    traced_run(config).1.stripped().to_jsonl()
}

#[test]
fn same_seed_traces_are_byte_identical_across_runs_and_thread_counts() {
    let config = || LabConfig::quick(23, SITES).with_threads(4);
    let baseline = stripped_jsonl(config());
    assert!(!baseline.is_empty());
    assert_eq!(
        baseline,
        stripped_jsonl(config()),
        "re-running the same configuration changes the stripped trace"
    );
    // Pool parallelism (crawl and probe alike) must not leak into it.
    for threads in [1, 2, 8] {
        assert_eq!(
            baseline,
            stripped_jsonl(config().with_threads(threads)),
            "--threads {threads} changes the stripped trace"
        );
    }
}

/// The pool's operational `worker` spans are the one per-worker record:
/// per phase, the workers' `items` count every visit and every probe
/// exactly once, whatever the thread count.
#[test]
fn worker_items_sum_to_the_visit_and_probe_spans() {
    for threads in [1, 2, 4] {
        let (outcome, trace) = traced_run(LabConfig::quick(31, 200).with_threads(threads));
        let workers = |phase: Word| {
            let spans: Vec<u64> = trace
                .spans
                .iter()
                .filter(|s| s.op && s.name == "worker")
                .filter(|s| s.field(Word::Phase) == Some(&FieldValue::from(phase)))
                .map(|s| match s.field(Word::Items) {
                    Some(FieldValue::U64(n)) => *n,
                    other => panic!("worker items field: {other:?}"),
                })
                .collect();
            (spans.len(), spans.iter().sum::<u64>() as usize)
        };
        assert_eq!(trace.count_named(Word::Visit), outcome.sites.len());
        assert_eq!(
            workers(Word::Crawl),
            (threads, outcome.sites.len()),
            "{threads} threads"
        );
        let probes = trace.count_named(Word::Probe);
        assert_eq!(probes, outcome.attestation_probes.len());
        assert_eq!(
            workers(Word::AttestationProbe),
            (threads, probes),
            "{threads} threads"
        );
    }
}

/// The `trace.col` reader (the `doctor`, `memprofile` and `serve`
/// loader) against every truncation, every flip of a header byte, and
/// 2,000 single-bit flips of a small light-fault campaign's trace
/// file: each is a typed error, never a panic or a silently different
/// trace.
#[test]
fn trace_col_reader_survives_truncation_and_byte_flips() {
    let (_, trace) = traced_run(LabConfig::quick(37, 3).with_fault_profile(FaultProfile::light()));
    assert!(trace.count_named(Word::Retry) > 0 && trace.count_named(Word::Probe) > 0);
    let bytes = encode_trace(&trace);
    assert_eq!(decode_trace(&bytes).expect("the file decodes"), trace);
    for cut in 0..bytes.len() {
        let err = decode_trace(&bytes[..cut]).expect_err("a cut file");
        assert!(
            matches!(err, ColumnarError::Truncated { .. }),
            "cut at {cut}: {err}"
        );
    }
    // The header: magic, version, section count, one directory entry
    // and the header checksum.
    let header = 8 + 4 + 4 + 25 + 8;
    let mut flipped = bytes.clone();
    for at in 0..header {
        for bit in 0..8 {
            flipped[at] ^= 1 << bit;
            assert!(decode_trace(&flipped).is_err(), "bit {bit} of byte {at}");
            flipped[at] ^= 1 << bit;
        }
    }
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..2_000 {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let at = (state >> 33) as usize % bytes.len();
        let mask = 1u8 << (state % 7);
        flipped[at] ^= mask;
        assert!(decode_trace(&flipped).is_err(), "flip {mask:#04x} at {at}");
        flipped[at] ^= mask;
    }
}

#[test]
fn doctor_profiles_a_faulty_campaign() {
    let (outcome, trace) = traced_run(
        LabConfig::quick(37, SITES)
            .with_threads(2)
            .with_fault_profile(FaultProfile::parse("0.05").unwrap()),
    );
    let report = diagnose(&outcome, &trace, 10);
    assert!(report.is_healthy(), "violations: {:?}", report.violations());
    assert_eq!(report.attempted, SITES);

    // Critical path descends from a phase into campaign work.
    assert!(report.profile.critical_path.len() >= 2);

    // Worker utilization is present and sane for the crawl pool.
    let idle = report.profile.idle_fractions();
    let crawl_idle = idle
        .iter()
        .find(|(phase, _)| phase == "crawl")
        .map(|(_, f)| *f)
        .expect("crawl worker spans recorded");
    assert!((0.0..=1.0).contains(&crawl_idle));

    // Top-10 slowest visits, ranked.
    assert_eq!(report.profile.slowest_visits.len(), 10);
    let durations: Vec<u64> = report
        .profile
        .slowest_visits
        .iter()
        .map(|v| v.duration_ms)
        .collect();
    let mut sorted = durations.clone();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    assert_eq!(durations, sorted, "slowest visits are ordered");
    assert!(!report.profile.slowest_visits[0].domain.is_empty());

    // 5% faults produce retries, and the profiler clusters them.
    assert!(!report.profile.retry_clusters.is_empty());

    // The rendered report names every advertised section.
    let text = report.render();
    for needle in [
        "Trace/metric reconciliation",
        "Critical path",
        "Worker utilization",
        "Retry hot-spots",
        "Slowest visits",
    ] {
        assert!(text.contains(needle), "missing section {needle}");
    }
}

/// A `trace.col` written with an orphan span, the way a broken writer
/// would, read back by the `doctor` subcommand: exit 1, naming the
/// orphan's ID.
#[test]
fn doctor_detects_an_injected_orphan_in_a_serialized_trace() {
    let (outcome, mut trace) = traced_run(LabConfig::quick(41, 60).with_threads(2));
    let dir = std::env::temp_dir().join(format!("topics-itrace-orphan-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let eval = topics_core::evaluate(&outcome);
    topics_core::write_bundle(&dir, &outcome, &eval, false, StoreKind::Columnar).unwrap();
    let orphan = trace.spans[5].id;
    trace.spans[5].parent = Some(999_999);
    std::fs::write(dir.join(TRACE_FILE), encode_trace(&trace)).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_topics-lab"))
        .args(["doctor", "--campaign", dir.to_str().unwrap()])
        .output()
        .expect("doctor runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(
        stdout.contains(&format!("orphan span(s) (missing parent): IDs [{orphan}")),
        "{stdout}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A file under `tests/golden/trace` (see its README for how each
/// fixture was recorded).
fn trace_fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/trace")
        .join(name)
}

/// The committed text `name` under `tests/golden/trace`.
fn pinned(name: &str) -> String {
    let path = trace_fixture(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `topics-lab ARGS…`'s stdout; the command must exit 0.
fn cli_stdout(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_topics-lab"))
        .args(args)
        .output()
        .expect("topics-lab runs");
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

/// `doctor` and `memprofile` over three fixed `trace.col` files, wall
/// clocks and allocation counts frozen in the file: a light-fault
/// crawl recorded with `--alloc-stats`, a 3-shard merged bundle and a
/// `simulate` trace. Every span name, field key and label shows up in
/// this text, so the text must not move by one byte, through the
/// library or the CLI.
#[test]
fn doctor_and_memprofile_text_is_pinned_on_fixed_traces() {
    let load = |name: &str| load_trace(&trace_fixture(name)).expect("the fixture decodes");
    for bundle in ["crawl", "merged"] {
        let campaign = trace_fixture(&format!("{bundle}/campaign.col"));
        let outcome = load_campaign(&campaign).expect("the fixture's campaign decodes");
        let trace = load(&format!("{bundle}/trace.col"));
        let doctor = pinned(&format!("{bundle}/doctor.txt"));
        assert_eq!(
            diagnose_bundle(&campaign, &outcome, &trace, 10).render(),
            doctor,
            "{bundle}: doctor"
        );
        let dir = trace_fixture(bundle);
        assert_eq!(
            cli_stdout(&["doctor", "--campaign", dir.to_str().unwrap()]),
            doctor,
            "{bundle}: topics-lab doctor"
        );
    }
    let crawl = load("crawl/trace.col");
    let memprofile = pinned("crawl/memprofile.txt");
    assert_eq!(mem_profile(&crawl, 10).render(), memprofile);
    let dir = trace_fixture("crawl");
    assert_eq!(
        cli_stdout(&["memprofile", "--campaign", dir.to_str().unwrap()]),
        memprofile
    );

    let sim = load("sim/trace.col");
    let path = trace_fixture("sim/trace.col");
    let path = path.to_str().unwrap();
    assert_eq!(diagnose_trace(&sim, 10).render(), pinned("sim/doctor.txt"));
    assert_eq!(
        cli_stdout(&["doctor", "--trace", path]),
        pinned("sim/doctor.txt")
    );
    assert_eq!(mem_profile(&sim, 10).render(), pinned("sim/memprofile.txt"));
    assert_eq!(
        cli_stdout(&["memprofile", "--trace", path]),
        pinned("sim/memprofile.txt")
    );
}

/// serve's `/api/doctor` and `/api/profile` bodies over the fixed
/// bundles: the doctor body is the subcommand's text, the profile body
/// its own pinned text.
#[test]
fn api_doctor_and_profile_bodies_are_pinned_on_fixed_traces() {
    for bundle in ["crawl", "merged"] {
        let campaign = trace_fixture(&format!("{bundle}/campaign.col"));
        let service = QueryService::build(&campaign, None).expect("the fixture serves");
        for (path, file) in [
            ("/api/doctor", "doctor.txt"),
            ("/api/profile", "profile.txt"),
        ] {
            let (_, body) = service
                .body(path)
                .expect("a trace sits next to the campaign");
            assert_eq!(
                std::str::from_utf8(body).unwrap(),
                pinned(&format!("{bundle}/{file}")),
                "{bundle}: {path}"
            );
        }
    }
}
