//! Integration: memory & allocation observability.
//!
//! The counting allocator must be invisible to the science: with it on
//! or off, the same seed serializes to a byte-identical campaign and a
//! byte-identical stripped trace, at any probe-thread count. With it
//! on, the trace carries per-phase/per-span allocation attribution that
//! the memory view of `profile` can report and the doctor's
//! allocation-balance check can audit — on clean and fault-injected
//! campaigns alike.

use std::sync::Mutex;
use topics_core::analysis::dataset::Datasets;
use topics_core::baseline::SimConfig;
use topics_core::crawler::spans::{decode_trace, encode_trace};
use topics_core::net::fault::FaultProfile;
use topics_core::obs::{alloc, profile, Obs, Text, Trace, Word};
use topics_core::{diagnose, run_simulation, Lab, LabConfig};

/// The test binary routes its heap through the counting allocator, the
/// same way the `topics-lab` binary does.
#[global_allocator]
static ALLOC: topics_core::obs::CountingAlloc = topics_core::obs::CountingAlloc;

/// Counting is a process-global switch; tests that flip it serialize.
static GATE: Mutex<()> = Mutex::new(());

const SITES: usize = 300;

struct RunOutput {
    campaign_json: String,
    stripped_trace: String,
    trace: Trace,
    outcome: topics_core::crawler::record::CampaignOutcome,
}

fn run(config: LabConfig, counting: bool) -> RunOutput {
    alloc::set_enabled(counting);
    let obs = Obs::new().with_trace();
    let run = Lab::new(config).run_observed(&obs);
    alloc::set_enabled(false);
    let trace = obs.trace.finish();
    RunOutput {
        campaign_json: serde_json::to_string(&run.outcome).expect("outcome serialises"),
        stripped_trace: trace.clone().stripped().to_jsonl(),
        trace,
        outcome: run.outcome,
    }
}

#[test]
fn counting_allocator_does_not_change_campaign_or_stripped_trace() {
    let _gate = GATE.lock().unwrap();
    let config = |threads| LabConfig::quick(53, SITES).with_threads(threads);
    let baseline = run(config(1), false);
    assert!(!baseline.stripped_trace.is_empty());
    for counting in [false, true] {
        for threads in [1, 4] {
            let candidate = run(config(threads), counting);
            assert_eq!(
                baseline.campaign_json, candidate.campaign_json,
                "campaign.json changed (counting={counting}, threads={threads})"
            );
            assert_eq!(
                baseline.stripped_trace, candidate.stripped_trace,
                "stripped trace changed (counting={counting}, threads={threads})"
            );
        }
    }
}

#[test]
fn attribution_reaches_phases_visits_and_memprofile() {
    let _gate = GATE.lock().unwrap();
    let out = run(LabConfig::quick(59, SITES).with_threads(2), true);

    // Phase spans (children of the campaign root) carry window deltas.
    let attributed_phases: Vec<&str> = out
        .trace
        .spans
        .iter()
        .filter(|s| s.parent == Some(1) && !s.op)
        .filter(|s| s.fields.iter().any(|(k, _)| *k == Word::AllocBytes))
        .map(|s| s.name.as_str())
        .collect();
    assert!(
        attributed_phases.contains(&"crawl"),
        "crawl phase lacks allocation attribution: {attributed_phases:?}"
    );
    assert!(
        attributed_phases.contains(&"attestation-probe"),
        "probe phase lacks allocation attribution: {attributed_phases:?}"
    );

    // Visit spans carry thread-local deltas.
    let attributed_visits = out
        .trace
        .spans
        .iter()
        .filter(|s| s.name == "visit" && s.fields.iter().any(|(k, _)| *k == Word::AllocBytes))
        .count();
    assert!(attributed_visits > SITES / 2, "{attributed_visits} visits");

    // The profile report assembles from the same trace.
    let profile = profile(&out.trace, 10);
    assert!(profile.has_alloc());
    assert!(profile
        .phases
        .iter()
        .any(|p| p.attributed && p.name == "crawl"));
    assert!(!profile.top_spans.is_empty());
    let text = profile.render_memory();
    for needle in [
        "Per-phase allocation",
        "Top allocating spans",
        "Retry-storm allocation",
    ] {
        assert!(text.contains(needle), "missing section {needle}");
    }

    // The stripped trace keeps determinism: no alloc fields survive.
    assert!(!out.stripped_trace.contains("alloc_bytes"));
}

/// Every span name in `trace` is a vocabulary word, held as one (field
/// keys are words by type).
fn names_are_words(trace: &Trace) -> bool {
    trace.spans.iter().all(|s| matches!(s.name, Text::Word(_)))
}

/// `trace.col` keeps everything a traced, alloc-counted crawl under
/// light faults records: wall clocks, allocation fields, retries,
/// probes and operational `worker` spans decode back to an equal trace
/// whose names are all vocabulary words, and so does a `simulate`
/// trace. The Chrome export wraps at least one event per span in the
/// `traceEvents` envelope Perfetto expects.
#[test]
fn trace_survives_a_trace_col_round_trip() {
    let _gate = GATE.lock().unwrap();
    let config = LabConfig::quick(29, 60)
        .with_threads(2)
        .with_fault_profile(FaultProfile::light());
    let trace = run(config, true).trace;
    assert!(trace.spans.iter().any(|s| s.op && s.name == Word::Worker));
    assert!(trace.spans.iter().all(|s| s.wall_end_us > 0));
    assert!(trace
        .spans
        .iter()
        .any(|s| s.field(Word::AllocBytes).is_some()));
    assert!(trace.count_named(Word::Retry) > 0 && trace.count_named(Word::Probe) > 0);
    assert!(names_are_words(&trace));
    let decoded = decode_trace(&encode_trace(&trace)).expect("trace.col decodes");
    assert_eq!(decoded, trace);
    assert!(names_are_words(&decoded));

    let obs = Obs::new().with_trace();
    alloc::set_enabled(true);
    let cfg = SimConfig::new(5, 300, 6);
    run_simulation(&cfg, 2, &obs).expect("the simulation runs");
    alloc::set_enabled(false);
    let sim = obs.trace.finish();
    assert!(sim.count_named(Word::SimAttack) == 1 && names_are_words(&sim));
    assert!(sim
        .spans
        .iter()
        .any(|s| s.field(Word::AllocBytes).is_some()));
    assert_eq!(decode_trace(&encode_trace(&sim)).expect("decodes"), sim);

    let chrome = trace.to_chrome_json();
    assert!(chrome.starts_with("{\"traceEvents\":["));
    assert!(chrome.matches("\"ph\":").count() >= trace.spans.len());
}

#[test]
fn doctor_allocation_balance_holds_on_clean_and_faulty_campaigns() {
    let _gate = GATE.lock().unwrap();
    let clean = run(LabConfig::quick(61, SITES).with_threads(2), true);
    let faulty = run(
        LabConfig::quick(67, SITES)
            .with_threads(2)
            .with_fault_profile(FaultProfile::parse("0.05").unwrap()),
        true,
    );
    for (label, out) in [("clean", &clean), ("5%-fault", &faulty)] {
        let report = diagnose(Some(&out.outcome), &out.trace, 10);
        assert!(
            report.is_healthy(),
            "{label}: violations {:?}",
            report.violations()
        );
        assert!(
            report.balance().count() > 0,
            "{label}: no balance rows despite attribution"
        );
        assert!(report.render().contains("Allocation balance"));
    }
}

#[test]
fn dataset_index_alloc_is_measured_only_under_counting() {
    let _gate = GATE.lock().unwrap();
    let outcome = Lab::new(LabConfig::quick(71, 100)).run().outcome;

    alloc::set_enabled(true);
    let counted = Datasets::new(&outcome).index_alloc();
    alloc::set_enabled(false);
    assert!(counted.alloc_bytes > 0, "index build allocates");
    assert!(counted.alloc_count > 0);

    let uncounted = Datasets::new(&outcome).index_alloc();
    assert!(uncounted.is_zero(), "counting off records nothing");
}
