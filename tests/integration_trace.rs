//! Integration: the hierarchical trace subsystem.
//!
//! The trace is part of the determinism contract: with wall-clock and
//! operational worker spans stripped, the same seed and configuration
//! must serialize to byte-identical JSONL regardless of thread counts.
//! On top of the trace, the doctor report must profile a real campaign
//! and catch structural corruption.

use topics_core::crawler::record::CampaignOutcome;
use topics_core::net::fault::FaultProfile;
use topics_core::obs::{merge_stripped, FieldValue, Obs, Trace};
use topics_core::{diagnose, Lab, LabConfig, MERGE_RULES};

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
        let workers = |phase: &str| {
            let spans: Vec<u64> = trace
                .spans
                .iter()
                .filter(|s| s.op && s.name == "worker")
                .filter(|s| s.field("phase") == Some(&FieldValue::Str(phase.to_owned())))
                .map(|s| match s.field("items") {
                    Some(FieldValue::U64(n)) => *n,
                    other => panic!("worker items field: {other:?}"),
                })
                .collect();
            (spans.len(), spans.iter().sum::<u64>() as usize)
        };
        assert_eq!(trace.count_named("visit"), outcome.sites.len());
        assert_eq!(
            workers("crawl"),
            (threads, outcome.sites.len()),
            "{threads} threads"
        );
        let probes = trace.count_named("probe");
        assert_eq!(probes, outcome.attestation_probes.len());
        assert_eq!(
            workers("attestation-probe"),
            (threads, probes),
            "{threads} threads"
        );
    }
}

#[test]
fn trace_survives_a_jsonl_round_trip() {
    let (_, trace) = traced_run(LabConfig::quick(29, 60).with_threads(2));
    let parsed = Trace::from_jsonl(&trace.to_jsonl()).expect("round trip parses");
    assert_eq!(trace.spans, parsed.spans);
    // The Chrome export wraps at least one event per span in the
    // `traceEvents` envelope Perfetto expects.
    let chrome = trace.to_chrome_json();
    assert!(chrome.starts_with("{\"traceEvents\":["));
    assert!(chrome.matches("\"ph\":").count() >= trace.spans.len());
}

/// The trace JSONL reader (the `doctor` and `serve` loader) against
/// every line-boundary truncation, every cut one byte short of a line
/// end, and 2,000 single-bit flips of a small light-fault campaign's
/// stripped trace. Each input is an error naming the line it broke, or a trace
/// that `merge_stripped` accepts or rejects without panicking; a cut at
/// a line boundary leaves a trace the merge accepts.
#[test]
fn trace_jsonl_reader_survives_truncation_and_byte_flips() {
    // 444 lines: three visits with retries, then the probe phase. An
    // 800-site trace has 38k lines; at ~15 µs a line in a debug build,
    // reading each of its truncations would take hours.
    let text = stripped_jsonl(LabConfig::quick(37, 3).with_fault_profile(FaultProfile::light()));
    assert!(text.contains("\"retry\"") && text.contains("\"probe\""));
    let read = |input: &str, line: usize| match Trace::from_jsonl(input) {
        Err(e) => {
            assert!(e.starts_with(&format!("trace line {line}:")), "{e}");
            None
        }
        Ok(trace) => Some(merge_stripped(vec![trace], &MERGE_RULES)),
    };
    for (line, (end, _)) in text.match_indices('\n').enumerate() {
        let merged = read(&text[..=end], line + 1).expect("whole lines parse");
        assert!(merged.is_ok(), "cut after line {}: {merged:?}", line + 1);
        assert!(
            read(&text[..end - 1], line + 1).is_none(),
            "line {} cut short parsed",
            line + 1
        );
    }
    let mut bytes = text.into_bytes();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..2_000 {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let at = (state >> 33) as usize % bytes.len();
        let mask = 1u8 << (state % 7);
        bytes[at] ^= mask;
        let line = 1 + bytes[..at].iter().filter(|&&c| c == b'\n').count();
        read(&String::from_utf8_lossy(&bytes), line);
        bytes[at] ^= mask;
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

#[test]
fn doctor_detects_an_injected_orphan_in_a_serialized_trace() {
    let (outcome, trace) = traced_run(LabConfig::quick(41, 60).with_threads(2));
    // Corrupt the trace the way a broken writer would: through the
    // serialized fixture, not the in-memory structs.
    let corrupted: String = trace
        .to_jsonl()
        .lines()
        .enumerate()
        .map(|(i, line)| {
            let mut span: topics_core::obs::SpanRecord = serde_json::from_str(line).unwrap();
            if i == 5 {
                span.parent = Some(999_999);
            }
            format!("{}\n", serde_json::to_string(&span).unwrap())
        })
        .collect();
    let trace = Trace::from_jsonl(&corrupted).expect("corrupted fixture still parses");
    let report = diagnose(&outcome, &trace, 10);
    assert!(!report.is_healthy());
    assert!(
        report.violations().iter().any(|v| v.contains("orphan")),
        "violations: {:?}",
        report.violations()
    );
}
