//! CI perf smoke and regression ledger.
//!
//! Runs a few identical campaigns at `TOPICS_BENCH_SITES` (CI uses
//! 2,000) under the counting allocator and measures four things per
//! run, keeping the minimum of each (single samples on busy 1-core
//! runners vary ~2×):
//!
//! * `crawl_wall_ms`   — the campaign wall clock;
//! * `probe_wall_us`   — the `phase_wall_us{phase="attestation-probe"}` gauge;
//! * `report_wall_ms`  — full evaluation + report render;
//! * `alloc_bytes`     — heap allocated across the run (counting allocator);
//! * `shard_merge_wall_ms` — decode a 4-way segment split of the final
//!   run and stream it through the merge into the columnar writer;
//! * `encode_wall_ms` / `store_bytes` / `query_wall_ms` — columnar
//!   store encode time, encoded size, and a full column scan over a
//!   freshly decoded store;
//! * `serve_query_wall_ms` — 64 sequential `/api/report` fetches
//!   against an in-process `topics-lab serve` holding the store
//!   resident (the live service's steady-state query latency);
//! * `simulate_wall_ms` / `simulate_peak_rss` — one population-engine
//!   run (arena advancement + k-anonymity + re-identification) at
//!   `sites × 10` users over 10 epochs, measured **first** so the RSS
//!   reading bounds the engine rather than the later crawl;
//!
//! plus the process peak RSS (`VmHWM`) once at the end. The current
//! numbers are compared against the **last entry** of the append-only
//! history in `BENCH_summary.json`: more than 30% slower on a time
//! column or 25% heavier on a memory column exits non-zero. A missing history,
//! scale mismatch, or zero baseline column skips that check so the
//! smoke never blocks unrelated work.
//!
//! Modes:
//!
//! * default                 — measure and compare against the history;
//! * `TOPICS_PERF_RECORD=1`  — measure and append a chained entry;
//! * `verify-history` (arg)  — no campaign: verify the hash chain, and
//!   when `TOPICS_PERF_PREV` names a file, that the current history is
//!   an append-only extension of it.
//!
//! `TOPICS_PERF_RUNS` overrides the number of runs (default 3).

use std::time::Instant;
use topics_bench::{
    bench_sites, check_regression, is_append_only, read_history, summary_path, verify_history,
    BenchSummary, BENCH_SEED, PROBE_WALL_GAUGE,
};
use topics_core::analysis::colscan;
use topics_core::crawler::columnar::ColumnarCampaign;
use topics_core::crawler::{merge_to_store, split_outcome, Segment, ShardPlan};
use topics_core::net::seed;
use topics_core::{evaluate, Lab, LabConfig};
use topics_obs::{alloc, CountingAlloc};

/// Every heap byte of the process goes through the counting allocator;
/// counting is switched on at the top of `main`, so the setup noise
/// before it stays out of the ledger.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn verify_history_mode() {
    let path = summary_path();
    let Some(history) = read_history(&path) else {
        println!(
            "perf-smoke: no history at {} — nothing to verify",
            path.display()
        );
        return;
    };
    if let Err(e) = verify_history(&history) {
        eprintln!("perf-smoke FAIL: {} — {e}", path.display());
        std::process::exit(1);
    }
    if let Ok(prev_path) = std::env::var("TOPICS_PERF_PREV") {
        let prev = read_history(std::path::Path::new(&prev_path)).unwrap_or_default();
        if !is_append_only(&prev, &history) {
            eprintln!(
                "perf-smoke FAIL: {} is not an append-only extension of {prev_path} \
                 (recorded entries were edited or dropped)",
                path.display()
            );
            std::process::exit(1);
        }
    }
    println!(
        "perf-smoke OK: history at {} verifies ({} entries)",
        path.display(),
        history.len()
    );
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("verify-history") {
        verify_history_mode();
        return;
    }

    let sites = bench_sites();
    let path = summary_path();
    let record = std::env::var("TOPICS_PERF_RECORD").as_deref() == Ok("1");
    let runs: usize = std::env::var("TOPICS_PERF_RUNS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(3);

    alloc::set_enabled(true);

    // Population engine first: at this point the process has allocated
    // almost nothing, so VmHWM right after the run is an honest upper
    // bound on the simulate footprint (the crawl below would otherwise
    // dominate the peak). Scale tracks the crawl scale: sites × 10
    // users over 10 epochs keeps CI at ~20k users.
    let sim_cfg = topics_core::baseline::SimConfig {
        sites: sites.max(500),
        sample: 2_000,
        ..topics_core::baseline::SimConfig::new(BENCH_SEED, sites * 10, 10)
    };
    let sim_universe = topics_core::baseline::simulate::build_universe(&sim_cfg);
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut simulate_wall_ms = u64::MAX;
    for _ in 0..runs {
        let started = Instant::now();
        let arena = topics_core::baseline::simulate::build_arena(&sim_cfg, &sim_universe, threads)
            .expect("smoke config validates");
        let kanon = topics_core::baseline::simulate::kanon_curve(&arena, threads);
        let (reident, _) = topics_core::baseline::simulate::reident_curve(
            &sim_cfg,
            &sim_universe,
            &arena,
            threads,
        );
        simulate_wall_ms = simulate_wall_ms.min(started.elapsed().as_millis() as u64);
        std::hint::black_box((kanon, reident));
    }
    let simulate_peak_rss = alloc::peak_rss_bytes().unwrap_or(0);

    let lab = Lab::new(LabConfig::quick(BENCH_SEED, sites));

    let mut crawl_wall_ms = u64::MAX;
    let mut probe_wall_us = u64::MAX;
    let mut report_wall_ms = u64::MAX;
    let mut alloc_bytes = u64::MAX;
    let mut run = None;
    for _ in 0..runs {
        let alloc_before = alloc::global_stats().alloc_bytes;
        let started = Instant::now();
        let r = lab.run();
        crawl_wall_ms = crawl_wall_ms.min(started.elapsed().as_millis() as u64);
        probe_wall_us = probe_wall_us.min(r.metrics.gauge(PROBE_WALL_GAUGE).max(0) as u64);
        let report_started = Instant::now();
        let eval = evaluate(&r.outcome);
        let report = eval.render_report();
        report_wall_ms = report_wall_ms.min(report_started.elapsed().as_millis() as u64);
        std::hint::black_box(report);
        alloc_bytes = alloc_bytes.min(alloc::global_stats().alloc_bytes - alloc_before);
        run = Some(r);
    }
    let run = run.expect("at least one run");
    let peak_rss_bytes = alloc::peak_rss_bytes().unwrap_or(0);

    // Shard-merge roundtrip: encode a 4-way split of the final run once,
    // then time decode + streaming merge into the columnar writer (the
    // `merge` subcommand's hot path, minus disk I/O).
    let fault_seed = lab
        .campaign
        .fault_seed
        .unwrap_or_else(|| seed::derive(lab.world.seed(), "faults"));
    let encoded: Vec<Vec<u8>> = split_outcome(
        &run.outcome,
        ShardPlan::new(4, run.outcome.sites.len()),
        lab.world.seed(),
        &format!("{:?}", lab.campaign.fault),
        fault_seed,
    )
    .iter()
    .map(Segment::encode)
    .collect();
    let mut shard_merge_wall_ms = u64::MAX;
    for _ in 0..runs {
        let started = Instant::now();
        let segments = encoded
            .iter()
            .map(|e| Segment::decode(e).expect("own segments decode"));
        std::hint::black_box(merge_to_store(segments).expect("own segments merge"));
        shard_merge_wall_ms = shard_merge_wall_ms.min(started.elapsed().as_millis() as u64);
    }

    // Columnar store roundtrip: time the struct-of-arrays encode, record
    // the store size, and time a full column scan over a freshly decoded
    // store (the zero-deserialization query path over `campaign.col`).
    let mut encode_wall_ms = u64::MAX;
    let mut store_bytes = 0u64;
    let mut query_wall_ms = u64::MAX;
    for _ in 0..runs {
        let started = Instant::now();
        let col = ColumnarCampaign::from_outcome(&run.outcome);
        encode_wall_ms = encode_wall_ms.min(started.elapsed().as_millis() as u64);
        store_bytes = col.bytes().len() as u64;
        let decoded = ColumnarCampaign::decode(col.bytes().to_vec()).expect("own store decodes");
        let started = Instant::now();
        let index = colscan::scan(&decoded).expect("own store scans");
        query_wall_ms = query_wall_ms.min(started.elapsed().as_millis() as u64);
        std::hint::black_box(index);
    }

    // Live-serving latency: persist the store once, bind an in-process
    // server over it (load + scan + pre-render happen in bind), and
    // time 64 sequential /api/report fetches per run — the same request
    // path a scraping client sees, minus network distance.
    let serve_dir = std::env::temp_dir().join(format!("topics-perf-serve-{}", std::process::id()));
    std::fs::create_dir_all(&serve_dir).expect("temp dir");
    let col_path = serve_dir.join("campaign.col");
    std::fs::write(
        &col_path,
        ColumnarCampaign::from_outcome(&run.outcome).bytes(),
    )
    .expect("store persists");
    let config = topics_core::ServeConfig::new(col_path);
    let server = topics_core::Server::bind(&config, std::sync::Arc::new(topics_obs::Obs::new()))
        .expect("server binds");
    let addr = server.local_addr().to_string();
    let mut serve_query_wall_ms = u64::MAX;
    std::thread::scope(|scope| {
        scope.spawn(|| server.run());
        for _ in 0..runs {
            let started = Instant::now();
            for _ in 0..64 {
                let resp =
                    topics_core::http_fetch(&addr, "GET", "/api/report").expect("report fetches");
                assert_eq!(resp.status, 200);
                std::hint::black_box(resp.body);
            }
            serve_query_wall_ms = serve_query_wall_ms.min(started.elapsed().as_millis() as u64);
        }
        server.handle().stop();
    });
    std::fs::remove_dir_all(&serve_dir).expect("temp dir cleanup");

    println!(
        "perf-smoke: sites={sites} visited={} (best of {runs}) crawl_wall_ms={crawl_wall_ms} \
         probe_wall_us={probe_wall_us} report_wall_ms={report_wall_ms} \
         alloc_bytes={alloc_bytes} peak_rss_bytes={peak_rss_bytes} \
         shard_merge_wall_ms={shard_merge_wall_ms} encode_wall_ms={encode_wall_ms} \
         store_bytes={store_bytes} query_wall_ms={query_wall_ms} \
         serve_query_wall_ms={serve_query_wall_ms} simulate_wall_ms={simulate_wall_ms} \
         simulate_peak_rss={simulate_peak_rss}",
        run.visited_count(),
    );

    let current = BenchSummary {
        sites,
        seed: BENCH_SEED,
        crawl_wall_ms,
        visited: run.visited_count(),
        accepted: run.accepted_count(),
        probe_wall_us,
        report_wall_ms,
        alloc_bytes,
        peak_rss_bytes,
        shard_merge_wall_ms,
        encode_wall_ms,
        store_bytes,
        query_wall_ms,
        serve_query_wall_ms,
        simulate_wall_ms,
        simulate_peak_rss,
        chain: 0, // assigned by append_entry
    };

    if record {
        if let Err(e) = topics_bench::append_entry(&path, current) {
            eprintln!("perf-smoke FAIL: recording entry: {e}");
            std::process::exit(1);
        }
        println!("perf-smoke: entry appended to {}", path.display());
        return;
    }

    let Some(history) = read_history(&path) else {
        println!(
            "perf-smoke: no history at {} — skipping comparison",
            path.display()
        );
        return;
    };
    if let Err(e) = verify_history(&history) {
        eprintln!("perf-smoke FAIL: {} — {e}", path.display());
        std::process::exit(1);
    }
    let Some(baseline) = history.last() else {
        println!("perf-smoke: empty history — skipping comparison");
        return;
    };
    if baseline.sites != sites {
        println!(
            "perf-smoke: baseline scale mismatch (baseline sites={}, current sites={sites}) — skipping",
            baseline.sites
        );
        return;
    }
    let violations = check_regression(baseline, &current);
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("perf-smoke FAIL: {v}");
        }
        std::process::exit(1);
    }
    println!(
        "perf-smoke OK: within 13/10 × time and 5/4 × memory of baseline entry {} of {}",
        history.len(),
        path.display()
    );
}
