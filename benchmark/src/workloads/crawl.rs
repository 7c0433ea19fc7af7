//! `paper-crawl` and `chaos-shards`: the crawl layers, used two ways.

use super::{timed_loop, Layers, RunSpec, PAPER_SITES, THREADS};
use crate::report::Report;
use crate::timed_world::{TimedWorld, FETCH_KIND_METRICS};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use topics_core::crawler::campaign::run_campaign_observed;
use topics_core::crawler::columnar::{ColumnarBuilder, ColumnarCampaign};
use topics_core::crawler::record::{CampaignOutcome, CAMPAIGN_SCHEMA_VERSION};
use topics_core::crawler::shard::{tally_snapshot, StreamingMerge};
use topics_core::net::fault::FaultProfile;
use topics_core::net::seed::fnv1a;
use topics_core::obs::{alloc, merge_stripped, MetricsSnapshot, Obs, Trace};
use topics_core::{
    comparison_rows, evaluate, merge_dir_columnar, read_segment, run_shard, segment_paths,
    write_segment, Lab, LabConfig, MERGE_RULES,
};

/// Shards the `chaos-shards` campaign is split into.
const SHARDS: usize = 2;

/// `campaign.col` encodes timed per crawl in `paper-crawl`.
const ENCODES_PER_CRAWL: usize = 5;

fn paper_config(spec: &RunSpec<'_>) -> LabConfig {
    LabConfig::quick(spec.seed, spec.scale.paper_sites).with_threads(THREADS)
}

fn chaos_config(spec: &RunSpec<'_>) -> LabConfig {
    LabConfig::quick(spec.seed, spec.scale.chaos_sites)
        .with_threads(THREADS)
        .with_fault_profile(FaultProfile::light())
}

/// FNV-1a digest of an outcome's `campaign.col` encoding.
fn store_digest(outcome: &CampaignOutcome) -> u64 {
    fnv1a(ColumnarCampaign::from_outcome(outcome).bytes())
}

/// `paper-crawl`: each operation's set-up generates the world; the
/// operation crawls it and encodes `campaign.col`.
pub fn paper_crawl(spec: &RunSpec<'_>) -> Report {
    if spec.traced {
        return paper_crawl_traced(spec);
    }
    let mut report = Report::default();
    let config = paper_config(spec);
    let sites = spec.scale.paper_sites as f64;
    let mut reference = None;
    let (mut rate, mut op_ms, mut encode_ms) = (Vec::new(), Vec::new(), Vec::new());
    let setup_s = timed_loop(
        spec.seconds,
        || Lab::new(config.clone()),
        |lab, timed| {
            let started = Instant::now();
            let run = lab.run();
            let crawled = Instant::now();
            let store = ColumnarCampaign::from_outcome(&run.outcome);
            let done = Instant::now();
            let digest = fnv1a(store.bytes());
            let reference = *reference.get_or_insert(digest);
            report.check(digest == reference, || {
                format!("campaign.col digest {digest:016x} differs from the first run's {reference:016x}")
            });
            if timed {
                let secs = (done - started).as_secs_f64();
                rate.push(sites / secs);
                op_ms.push(secs * 1000.0);
                encode_ms.push((done - crawled).as_secs_f64() * 1000.0);
                // The encode is short next to the crawl: time it again so
                // its median rests on more samples.
                for _ in 1..ENCODES_PER_CRAWL {
                    let started = Instant::now();
                    black_box(ColumnarCampaign::from_outcome(&run.outcome));
                    encode_ms.push(started.elapsed().as_secs_f64() * 1000.0);
                }
            }
        },
    );
    report.samples("setup_s", "s", &setup_s);
    report.ops(op_ms.len() as u64, 0);
    report.samples("throughput_per_s", "1/s", &rate);
    report.samples("latency_p50_ms", "ms", &op_ms);
    report.samples("stage_ms", "ms", &encode_ms);
    report
}

/// Read the crawl's own counters and phase gauges off a run's metrics.
fn program_counters(layers: &mut Layers, metrics: &MetricsSnapshot, outcome: &CampaignOutcome) {
    let phase_ms =
        |phase: &str| metrics.gauge(&format!("phase_wall_us{{phase=\"{phase}\"}}")) as f64 / 1000.0;
    layers.set("crawler.crawl_phase_ms", phase_ms("crawl"));
    layers.set("crawler.probe_phase_ms", phase_ms("attestation-probe"));
    layers.set(
        "crawler.probe.domains",
        outcome.attestation_probes.len() as f64,
    );
    layers.set(
        "browser.topics_calls",
        metrics.counter_sum("topics_api_calls_total") as f64,
    );
    layers.set("net.retries", metrics.counter("net_retries_total") as f64);
    layers.set(
        "net.faults_injected",
        metrics.counter_sum("net_faults_injected_total") as f64,
    );
}

/// Crawl through a [`TimedWorld`], check the records are the plain
/// crawl's, and record the render and parse layers.
fn timed_world_crawl(layers: &mut Layers, report: &mut Report, lab: &Lab, reference: u64) {
    let timed = TimedWorld::new(&lab.world);
    let outcome = run_campaign_observed(&timed, &lab.campaign, Some(&Obs::new()), |_, _| {});
    report.check(store_digest(&outcome) == reference, || {
        "the TimedWorld crawl differs from the plain crawl".to_owned()
    });
    layers.set("webgen.fetch.calls", timed.fetch_calls() as f64);
    layers.set("webgen.fetch.busy_ms", timed.fetch_busy_ms());
    layers.set("webgen.fetch.bytes", timed.fetch_bytes() as f64);
    for (name, tally) in FETCH_KIND_METRICS.into_iter().zip(&timed.fetch) {
        layers.set(name, tally.calls() as f64);
    }
    layers.set("webgen.resolve.calls", timed.resolve.calls() as f64);
    layers.set("browser.html_parse.calls", timed.html_parse.calls() as f64);
    layers.set("browser.html_parse.busy_ms", timed.html_parse.busy_ms());
    layers.set("browser.html_parse.bytes", timed.html_parse.bytes() as f64);
    layers.set(
        "browser.script_parse.calls",
        timed.script_parse.calls() as f64,
    );
    layers.set("browser.script_parse.busy_ms", timed.script_parse.busy_ms());
    layers.set(
        "browser.script_parse.distinct_share",
        timed.script_distinct_share(),
    );
}

/// Traced `paper-crawl`: the render/parse layers through a
/// `TimedWorld`, the program's own counters, the store codec, the cost
/// of tracing and of allocation counting, and the paper's shape checks.
fn paper_crawl_traced(spec: &RunSpec<'_>) -> Report {
    let mut report = Report::default();
    let mut layers = Layers::new(true);
    let lab = Lab::new(paper_config(spec));
    let sites = spec.scale.paper_sites as f64;

    let started = Instant::now();
    let plain = lab.run_observed(&Obs::new());
    let plain_s = started.elapsed().as_secs_f64();
    let reference = store_digest(&plain.outcome);
    program_counters(&mut layers, &plain.metrics, &plain.outcome);

    timed_world_crawl(&mut layers, &mut report, &lab, reference);

    let started = Instant::now();
    let traced = lab.run_observed(&Obs::new().with_trace());
    layers.set(
        "overhead.trace_ratio",
        started.elapsed().as_secs_f64() / plain_s,
    );
    report.check(store_digest(&traced.outcome) == reference, || {
        "the traced crawl differs from the plain crawl".to_owned()
    });
    drop(traced);

    alloc::set_enabled(true);
    let before = alloc::global_stats();
    let started = Instant::now();
    let counted = lab.run();
    let counted_s = started.elapsed().as_secs_f64();
    let after = alloc::global_stats();
    alloc::set_enabled(false);
    layers.set("overhead.alloc_count_ratio", counted_s / plain_s);
    layers.set(
        "crawler.alloc_bytes_per_site",
        (after.alloc_bytes - before.alloc_bytes) as f64 / sites,
    );
    layers.set(
        "crawler.allocs_per_site",
        (after.alloc_count - before.alloc_count) as f64 / sites,
    );
    drop(counted);

    let store = layers.span("crawler.columnar.encode", || {
        ColumnarCampaign::from_outcome(&plain.outcome)
    });
    layers.set("crawler.columnar.bytes", store.bytes().len() as f64);
    let decoded = layers.span("crawler.columnar.decode", || {
        ColumnarCampaign::decode(store.bytes().to_vec())
    });
    match decoded.map_err(|e| e.to_string()).and_then(|d| {
        layers
            .span("crawler.columnar.to_outcome", || d.to_outcome())
            .map_err(|e| e.to_string())
    }) {
        Ok(outcome) => report.check(store_digest(&outcome) == reference, || {
            "campaign.col does not decode back to the crawl".to_owned()
        }),
        Err(e) => report.check(false, || format!("campaign.col does not decode: {e}")),
    }

    let eval = evaluate(&plain.outcome);
    let rows = comparison_rows(&eval, spec.scale.paper_sites == PAPER_SITES);
    let shape_ok = rows.iter().filter(|r| r.ok == Some(true)).count();
    layers.set("fidelity.shape_checks_ok", shape_ok as f64);

    report.ops(4, 0);
    layers.finish(&mut report);
    report
}

/// Crawl both shards into `dir` and merge them into one store.
fn shards_and_merge(config: &LabConfig, dir: &Path) -> Result<(f64, ColumnarCampaign), String> {
    let _ = std::fs::remove_dir_all(dir);
    for shard in 0..SHARDS {
        let segment = run_shard(config, shard, SHARDS, &Obs::new().with_trace());
        write_segment(dir, &segment).map_err(|e| format!("writing segment: {e}"))?;
    }
    let started = Instant::now();
    let merged = merge_dir_columnar(dir)?;
    Ok((started.elapsed().as_secs_f64(), merged.store))
}

/// `chaos-shards`: each operation's set-up generates the world and
/// crawls it in one process under light faults (the reference store);
/// the operation runs both shards, writes their segments, and merges
/// them, and the merged store must equal the reference byte for byte.
pub fn chaos_shards(spec: &RunSpec<'_>) -> Report {
    if spec.traced {
        return chaos_shards_traced(spec);
    }
    let mut report = Report::default();
    let config = chaos_config(spec);
    let dir = spec.work.join("segments");
    let sites = spec.scale.chaos_sites as f64;
    let mut first_reference = None;
    let (mut rate, mut op_ms, mut merge_ms, mut failed) = (Vec::new(), Vec::new(), Vec::new(), 0);
    let setup_s = timed_loop(
        spec.seconds,
        || store_digest(&Lab::new(config.clone()).run().outcome),
        |&reference, timed| {
            let first = *first_reference.get_or_insert(reference);
            report.check(reference == first, || {
                format!("set-up crawl {reference:016x} differs from the first one {first:016x}")
            });
            let started = Instant::now();
            let result = shards_and_merge(&config, &dir);
            let secs = started.elapsed().as_secs_f64();
            match result {
                Ok((merge_s, store)) => {
                    let digest = fnv1a(store.bytes());
                    report.check(digest == reference, || {
                        format!("merged store {digest:016x} differs from the single-process crawl {reference:016x}")
                    });
                    if timed {
                        rate.push(sites / secs);
                        op_ms.push(secs * 1000.0);
                        merge_ms.push(merge_s * 1000.0);
                    }
                }
                Err(e) => {
                    failed += 1;
                    report.failures.push(e);
                }
            }
        },
    );
    report.samples("setup_s", "s", &setup_s);
    report.ops(op_ms.len() as u64 + failed, failed);
    report.samples("throughput_per_s", "1/s", &rate);
    report.samples("latency_p50_ms", "ms", &op_ms);
    report.samples("stage_ms", "ms", &merge_ms);
    report
}

/// Traced `chaos-shards`: the crawl layers under faults, each shard
/// run, and the merge taken apart into its public steps.
fn chaos_shards_traced(spec: &RunSpec<'_>) -> Report {
    let mut report = Report::default();
    let mut layers = Layers::new(true);
    let config = chaos_config(spec);
    let lab = Lab::new(config.clone());
    let plain = lab.run_observed(&Obs::new());
    let reference = store_digest(&plain.outcome);
    program_counters(&mut layers, &plain.metrics, &plain.outcome);
    timed_world_crawl(&mut layers, &mut report, &lab, reference);

    let dir = spec.work.join("segments");
    let _ = std::fs::remove_dir_all(&dir);
    let mut segment_bytes = 0;
    for shard in 0..SHARDS {
        let segment = layers.span("core.shard.run", || {
            run_shard(&config, shard, SHARDS, &Obs::new().with_trace())
        });
        match write_segment(&dir, &segment) {
            Ok(path) => segment_bytes += std::fs::metadata(path).map_or(0, |m| m.len()),
            Err(e) => report.check(false, || format!("writing segment: {e}")),
        }
    }
    layers.set("crawler.segment.bytes", segment_bytes as f64);

    match traced_merge(&layers, &dir) {
        Ok(store) => {
            layers.set("crawler.columnar.bytes", store.bytes().len() as f64);
            report.check(fnv1a(store.bytes()) == reference, || {
                "the merged store differs from the single-process crawl".to_owned()
            });
        }
        Err(e) => report.check(false, || e),
    }
    report.ops(3 + SHARDS as u64, 0);
    layers.finish(&mut report);
    report
}

/// `merge_dir_columnar`, step by step under spans.
fn traced_merge(layers: &Layers, dir: &Path) -> Result<ColumnarCampaign, String> {
    let mut merge = StreamingMerge::default();
    let mut builder = ColumnarBuilder::new();
    let mut traces = Vec::new();
    for path in segment_paths(dir)? {
        let mut segment = layers.span("crawler.segment.decode", || read_segment(&path))?;
        traces.push(Trace {
            spans: std::mem::take(&mut segment.trace),
        });
        let sites = layers
            .span("crawler.merge.accept", || merge.accept(segment))
            .map_err(|e| e.to_string())?;
        layers.span("crawler.columnar.build", || {
            for site in &sites {
                builder.push_site(site);
            }
        });
    }
    let (allow_list, probes, started) = merge.finish().map_err(|e| e.to_string())?;
    let store = layers.span("crawler.columnar.build", || {
        builder.finish(CAMPAIGN_SCHEMA_VERSION, &allow_list, &probes, started)
    });
    let outcome = layers
        .span("crawler.columnar.to_outcome", || store.to_outcome())
        .map_err(|e| e.to_string())?;
    layers
        .span("obs.trace_merge", || merge_stripped(&traces, &MERGE_RULES))
        .map_err(|e| format!("merging traces: {e}"))?;
    layers.span("crawler.tally", || tally_snapshot(&outcome));
    Ok(store)
}
