//! The four workloads, their fixed sizes, and the metric vocabulary.
//!
//! Every run prints every end-to-end metric (untraced) or every
//! per-layer metric (traced), so each end-to-end name has one reading
//! per workload; the table in `README.md` says what it measures there.
//! A traced run reports 0 for a layer its workload does not exercise.

mod crawl;
pub mod query;
mod simulate;

use crate::report::Report;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;
use topics_core::obs::{alloc, Tracer};

/// Worker threads everywhere (crawl, probe, simulate, serve) and client
/// connections: the benchmark's load fits a 2-core machine.
pub const THREADS: usize = 2;

/// Sites of the paper's full-scale campaign, the scale at which the
/// absolute-count shape checks apply.
const PAPER_SITES: usize = 50_000;

/// Seed used when none is given.
pub const BENCH_SEED: u64 = 2024;

/// Timed operations per run at the least, however short `--seconds`.
const MIN_OPS: usize = 2;

/// The workloads, in `BENCHMARK.json` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's 50,000-site crawl into `campaign.col`.
    PaperCrawl,
    /// A faulty crawl split into two shards, written and merged.
    ChaosShards,
    /// Loading a crawled store and serving it to a closed loop of clients.
    Query,
    /// The population engine: advance, k-anonymity, re-identification.
    Simulate,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::PaperCrawl,
        Workload::ChaosShards,
        Workload::Query,
        Workload::Simulate,
    ];

    /// Name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCrawl => "paper-crawl",
            Workload::ChaosShards => "chaos-shards",
            Workload::Query => "query",
            Workload::Simulate => "simulate",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Scale::FULL`] is what the benchmark runs; tests use a
/// tiny scale so every workload body can run under `cargo test`.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Sites in the `paper-crawl` world (the paper's 50,000).
    pub paper_sites: usize,
    /// Sites in the `chaos-shards` world.
    pub chaos_sites: usize,
    /// Sites crawled into the `query` store.
    pub query_sites: usize,
    /// Users in the `simulate` population.
    pub sim_users: usize,
    /// Epochs the population is advanced.
    pub sim_epochs: u64,
    /// Re-identification queries per checkpoint.
    pub sim_sample: usize,
    /// Closed-loop requests answered before latencies are recorded.
    pub serve_warmup_requests: u64,
    /// Closed-loop requests recorded.
    pub serve_requests: u64,
}

impl Scale {
    /// The benchmark's sizes. A 50,000-site crawl takes ~3.6 s and a
    /// 30,000-user simulation ~2.6 s at 2 threads, so a 15 s run
    /// measures several of each; 5,000 chaos sites keep the merge's
    /// peak memory near 350 MiB; 200,000 requests take ~8 s.
    pub const FULL: Scale = Scale {
        paper_sites: 50_000,
        chaos_sites: 5_000,
        query_sites: 50_000,
        sim_users: 30_000,
        sim_epochs: 30,
        sim_sample: 10_000,
        serve_warmup_requests: 20_000,
        serve_requests: 200_000,
    };
}

/// One run's parameters.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec<'a> {
    /// Seed every input derives from.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// Input sizes.
    pub scale: &'a Scale,
    /// Scratch directory for the files the workload writes.
    pub work: &'a Path,
}

/// End-to-end metrics: name and unit, in `BENCHMARK.json` order.
#[cfg(test)]
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("stage_ms", "ms"),
];

/// Per-layer metrics: name and unit, in `BENCHMARK.json` order. A name
/// ending in `_ms` that is not set directly is the total duration of
/// the benchmark's spans named like it without the suffix.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("webgen.fetch.calls", "count"),
    ("webgen.fetch.busy_ms", "ms"),
    ("webgen.fetch.bytes", "bytes"),
    ("webgen.fetch.document.calls", "count"),
    ("webgen.fetch.script.calls", "count"),
    ("webgen.fetch.subresource.calls", "count"),
    ("webgen.fetch.wellknown.calls", "count"),
    ("webgen.resolve.calls", "count"),
    ("browser.html_parse.calls", "count"),
    ("browser.html_parse.busy_ms", "ms"),
    ("browser.html_parse.bytes", "bytes"),
    ("browser.script_parse.calls", "count"),
    ("browser.script_parse.busy_ms", "ms"),
    ("browser.script_parse.distinct_share", "ratio"),
    ("browser.topics_calls", "count"),
    ("net.retries", "count"),
    ("net.faults_injected", "count"),
    ("crawler.crawl_phase_ms", "ms"),
    ("crawler.probe_phase_ms", "ms"),
    ("crawler.probe.domains", "count"),
    ("crawler.alloc_bytes_per_site", "bytes"),
    ("crawler.allocs_per_site", "count"),
    ("crawler.columnar.encode_ms", "ms"),
    ("crawler.columnar.bytes", "bytes"),
    ("crawler.columnar.decode_ms", "ms"),
    ("crawler.columnar.to_outcome_ms", "ms"),
    ("crawler.columnar.build_ms", "ms"),
    ("core.shard.run_ms", "ms"),
    ("crawler.segment.bytes", "bytes"),
    ("crawler.segment.decode_ms", "ms"),
    ("crawler.merge.accept_ms", "ms"),
    ("obs.trace_merge_ms", "ms"),
    ("crawler.tally_ms", "ms"),
    ("analysis.colscan.scan_ms", "ms"),
    ("analysis.datasets_ms", "ms"),
    ("core.evaluate_ms", "ms"),
    ("core.render_report_ms", "ms"),
    ("core.serve.bind_ms", "ms"),
    ("core.serve.connect_p50_us", "us"),
    ("core.serve.ttfb_p50_us", "us"),
    ("core.serve.tail_us", "us"),
    ("core.serve.requests", "count"),
    ("baseline.universe_ms", "ms"),
    ("baseline.advance_ms", "ms"),
    ("baseline.kanon_ms", "ms"),
    ("baseline.attack_ms", "ms"),
    ("baseline.arena_bytes", "bytes"),
    ("baseline.queries", "count"),
    ("baseline.api_calls", "count"),
    ("overhead.trace_ratio", "ratio"),
    ("overhead.alloc_count_ratio", "ratio"),
    ("fidelity.shape_checks_ok", "count"),
];

/// Run one workload.
pub fn run(workload: Workload, spec: &RunSpec<'_>) -> Report {
    let mut report = match workload {
        Workload::PaperCrawl => crawl::paper_crawl(spec),
        Workload::ChaosShards => crawl::chaos_shards(spec),
        Workload::Query => query::query(spec),
        Workload::Simulate => simulate::simulate(spec),
    };
    if !spec.traced {
        let rss = alloc::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0);
        report.value("peak_rss_mib", "MiB", rss);
    }
    report
}

/// Set up and run one untimed warm-up operation, then set up and run
/// timed operations until `seconds` have passed and at least
/// [`MIN_OPS`] ran. Each operation gets a set-up of its own, so set-up
/// times (returned, in seconds) are sampled across the whole run rather
/// than in one burst: on a shared machine one core can run slower than
/// the other for minutes at a time.
fn timed_loop<S>(
    seconds: f64,
    mut setup: impl FnMut() -> S,
    mut op: impl FnMut(&S, bool),
) -> Vec<f64> {
    let mut setup_s = Vec::new();
    let mut once = |timed: bool| {
        let started = Instant::now();
        let state = setup();
        setup_s.push(started.elapsed().as_secs_f64());
        op(&state, timed);
    };
    once(false);
    let started = Instant::now();
    let mut done = 0;
    while done < MIN_OPS || started.elapsed().as_secs_f64() < seconds {
        once(true);
        done += 1;
    }
    setup_s
}

/// Per-layer readings of a traced run: the benchmark's own spans
/// around calls into each crate, plus values read off counters.
pub struct Layers {
    tracer: Tracer,
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Layers of a run; an untraced run's spans record nothing.
    fn new(traced: bool) -> Layers {
        Layers {
            tracer: if traced {
                Tracer::enabled()
            } else {
                Tracer::disabled()
            },
            values: BTreeMap::new(),
        }
    }

    /// Time `f` under a span called `name`.
    fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let _span = self.tracer.phase(name);
        f()
    }

    /// Set a per-layer metric directly.
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.values.insert(name, value);
    }

    /// Record every per-layer metric into `report` and print the layer
    /// table to stderr.
    fn finish(self, report: &mut Report) {
        let trace = self.tracer.finish();
        let mut spans: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        // The first span is the synthetic root `Tracer::finish` adds.
        for s in trace.spans.iter().skip(1) {
            spans
                .entry(s.name.as_str())
                .or_default()
                .push(s.wall_duration_us() as f64 / 1000.0);
        }
        eprintln!(
            "{:<40} {:>16} {:<6} {:>5}",
            "layer", "value", "unit", "spans"
        );
        for (name, unit) in PER_LAYER {
            let from_spans = name.strip_suffix("_ms").and_then(|base| spans.get(base));
            let value = match (self.values.get(name), from_spans) {
                (Some(&v), _) => v,
                (None, Some(durations)) => durations.iter().sum(),
                (None, None) => 0.0,
            };
            report.value(name, unit, value);
            let count = from_spans.map_or(0, Vec::len);
            eprintln!("{name:<40} {value:>16.3} {unit:<6} {count:>5}");
        }
    }
}

#[cfg(test)]
impl Scale {
    /// Every workload body in a second or two of a debug build.
    pub const TINY: Scale = Scale {
        paper_sites: 300,
        chaos_sites: 200,
        query_sites: 300,
        sim_users: 2_000,
        sim_epochs: 10,
        sim_sample: 500,
        serve_warmup_requests: 200,
        serve_requests: 2_000,
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Spec;

    fn spec() -> Spec {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
        Spec::parse(&text).expect("BENCHMARK.json parses")
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let spec = spec();
        let names = |ms: &[crate::spec::MetricSpec]| -> Vec<(String, String)> {
            ms.iter()
                .map(|m| (m.name.clone(), m.unit.clone()))
                .collect()
        };
        let own = |ms: &[(&str, &str)]| -> Vec<(String, String)> {
            ms.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&spec.end_to_end), own(&END_TO_END));
        assert_eq!(names(&spec.per_layer), own(&PER_LAYER));
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(spec.workloads, workloads);
    }

    /// Each workload body at tiny scale, untraced and traced: every
    /// check passes and every metric of `BENCHMARK.json` is printed
    /// once, with its unit.
    #[test]
    fn every_workload_emits_every_metric_with_its_unit() {
        let spec = spec();
        let work = std::env::temp_dir().join(format!("topics-benchmark-{}", std::process::id()));
        for workload in Workload::ALL {
            for traced in [false, true] {
                let dir = work.join(format!("{}-{traced}", workload.name()));
                std::fs::create_dir_all(&dir).expect("work dir");
                let run_spec = RunSpec {
                    seed: 5,
                    seconds: 0.0,
                    traced,
                    scale: &Scale::TINY,
                    work: &dir,
                };
                let report = run(workload, &run_spec);
                let what = format!("{} traced={traced}", workload.name());
                assert!(report.correct(), "{what}: {:?}", report.failures);
                assert!(report.attempted > 0, "{what}");
                let expected = if traced {
                    &spec.per_layer
                } else {
                    &spec.end_to_end
                };
                let got: Vec<(&str, &str)> =
                    report.metrics.iter().map(|m| (m.name, m.unit)).collect();
                let want: Vec<(&str, &str)> = expected
                    .iter()
                    .map(|m| (m.name.as_str(), m.unit.as_str()))
                    .collect();
                let mut got_sorted = got.clone();
                got_sorted.sort_unstable();
                let mut want_sorted = want.clone();
                want_sorted.sort_unstable();
                assert_eq!(got_sorted, want_sorted, "{what}");
                if !traced {
                    for m in &report.metrics {
                        assert!(m.value > 0.0, "{what}: {} is {}", m.name, m.value);
                    }
                }
            }
        }
        let _ = std::fs::remove_dir_all(&work);
    }
}
