//! Serve-latency probe: cold build cost vs warm per-endpoint latency.
//!
//! ```sh
//! cargo run --release --example serve_latency [SITES]
//! ```
//!
//! Runs a traced campaign at SITES sites (default 2,000), persists the
//! columnar store plus its trace, then measures the two costs a
//! `topics-lab serve` operator cares about:
//!
//! * **cold** — one `Server::bind`: load the store, scan the column
//!   index, pre-render every endpoint body (the `serve_build_wall_ms`
//!   gauge);
//! * **warm** — steady-state request latency per endpoint, mean over
//!   64 sequential loopback fetches after an 8-fetch warm-up.
//!
//! The numbers in EXPERIMENTS.md §"Live serving" come from this probe
//! at 2,000 and 6,000 sites.

use std::sync::Arc;
use std::time::Instant;
use topics_core::crawler::columnar::ColumnarCampaign;
use topics_core::crawler::spans::encode_trace;
use topics_core::obs::Obs;
use topics_core::{http_fetch, Lab, LabConfig, ServeConfig, Server, API_ENDPOINTS, TRACE_FILE};

const WARMUP: usize = 8;
const SAMPLES: u32 = 64;

fn main() {
    let sites = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2_000);
    let seed = 7;
    eprintln!("crawling {sites} sites (seed {seed}, traced) …");
    let obs = Obs::new().with_trace();
    let lab = Lab::new(LabConfig::quick(seed, sites));
    let run = lab.run_observed(&obs);

    let dir = std::env::temp_dir().join(format!("topics-serve-latency-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let store = ColumnarCampaign::from_outcome(&run.outcome);
    std::fs::write(dir.join("campaign.col"), store.bytes()).expect("store persists");
    let trace = encode_trace(&obs.trace.finish());
    std::fs::write(dir.join(TRACE_FILE), trace).expect("trace persists");

    // Cold: everything `bind` does once so requests never touch rows.
    let config = ServeConfig::new(dir.join("campaign.col"));
    let started = Instant::now();
    let server = Server::bind(&config, Arc::new(Obs::new())).expect("server binds");
    let cold_ms = started.elapsed().as_millis();
    let addr = server.local_addr().to_string();
    println!(
        "sites={sites} store_bytes={} cold_build_ms={cold_ms} (service-reported {} ms)",
        store.bytes().len(),
        server.service().build_wall_ms(),
    );

    // Warm: mean loopback round-trip per endpoint, body fully read.
    let mut paths: Vec<&str> = API_ENDPOINTS.iter().map(|(p, _)| *p).collect();
    paths.extend(["/api/doctor", "/api/profile", "/metrics", "/healthz"]);
    std::thread::scope(|scope| {
        scope.spawn(|| server.run());
        println!(
            "{:<18} {:>12} {:>14}",
            "endpoint", "body bytes", "warm us/req"
        );
        for path in paths {
            let mut bytes = 0;
            for _ in 0..WARMUP {
                bytes = fetch_ok(&addr, path).len();
            }
            let started = Instant::now();
            for _ in 0..SAMPLES {
                std::hint::black_box(fetch_ok(&addr, path));
            }
            let mean_us = started.elapsed().as_micros() as u32 / SAMPLES;
            println!("{path:<18} {bytes:>12} {mean_us:>14}");
        }
        server.handle().stop();
    });
    std::fs::remove_dir_all(&dir).expect("temp dir cleanup");
}

/// One GET that must succeed; returns the body.
fn fetch_ok(addr: &str, path: &str) -> Vec<u8> {
    let resp = http_fetch(addr, "GET", path).expect("fetch succeeds");
    assert_eq!(resp.status, 200, "{path}");
    resp.body
}
