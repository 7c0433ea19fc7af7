//! Integration: `topics-lab serve` answers the offline artefacts.
//!
//! The serving contract: every `/api/*` response is **byte-identical**
//! to the artefact the offline pipeline writes for the same campaign
//! store — for a plain campaign, under fault injection, and for a
//! 4-shard-merged columnar store — including under concurrent clients.
//! The server's own telemetry reconciles exactly: after a known set of
//! requests, the `/metrics` counters sum to the requests issued. The
//! CLI front end exits with typed codes (3 missing, 4 corrupt) instead
//! of a catch-all 1.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use topics_core::crawler::spans::encode_trace;
use topics_core::net::fault::FaultProfile;
use topics_core::obs::Obs;
use topics_core::{
    evaluate, http_fetch, merge_dir_columnar, run_shard, write_segment, Lab, LabConfig,
    QueryService, ServeConfig, ServeError, Server, StoreKind, API_ENDPOINTS, TRACE_FILE,
};

const SITES: usize = 150;

/// Unique temp dir per test (tests run concurrently in one process).
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("topics-iserve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Bind a server over `dir`'s campaign.col, run it on a background
/// thread, and hand the bound address to `f`; drains via the handle
/// afterwards and returns the served-request count.
fn with_server(dir: &Path, threads: usize, f: impl FnOnce(&str, &Server)) -> u64 {
    let (addr, server, _, served) = spawn_server(dir, threads);
    f(&addr, &server);
    server.handle().stop();
    drained(&served, &format!("{} at {threads} threads", dir.display()))
}

/// Fetch every artefact endpoint and assert the bytes equal the files
/// the offline pipeline wrote into `dir`.
fn assert_endpoints_match_artefacts(addr: &str, dir: &Path, tag: &str) {
    for (path, artefact) in API_ENDPOINTS {
        let resp = http_fetch(addr, "GET", path).expect("fetch succeeds");
        assert_eq!(resp.status, 200, "{tag}: {path}");
        let want = std::fs::read(dir.join(artefact))
            .unwrap_or_else(|e| panic!("{tag}: reading {artefact}: {e}"));
        assert_eq!(resp.body, want, "{tag}: {path} differs from {artefact}");
    }
}

#[test]
fn serve_answers_byte_identical_artefacts_plain_and_faulted() {
    for (tag, config) in [
        ("plain", LabConfig::quick(41, SITES).with_threads(2)),
        (
            "faulted",
            LabConfig::quick(43, SITES)
                .with_threads(2)
                .with_fault_profile(FaultProfile::parse("0.05").unwrap()),
        ),
    ] {
        let dir = temp_dir(tag);
        let outcome = Lab::new(config).run().outcome;
        let eval = evaluate(&outcome);
        topics_core::write_bundle(&dir, &outcome, &eval, false, StoreKind::Columnar).unwrap();

        with_server(&dir, 2, |addr, server| {
            assert_endpoints_match_artefacts(addr, &dir, tag);

            // Probes answer; no trace next to the store → doctor and
            // profile are a clean 404, not a panic.
            assert_eq!(http_fetch(addr, "GET", "/healthz").unwrap().status, 200);
            assert_eq!(http_fetch(addr, "GET", "/readyz").unwrap().status, 200);
            assert_eq!(http_fetch(addr, "GET", "/api/doctor").unwrap().status, 404);
            assert_eq!(http_fetch(addr, "GET", "/api/profile").unwrap().status, 404);
            assert_eq!(http_fetch(addr, "GET", "/nope").unwrap().status, 404);
            assert_eq!(
                http_fetch(addr, "DELETE", "/api/report").unwrap().status,
                405
            );

            // The build published its one-time cost and footprint.
            let snap = server.service();
            assert!(!snap.store().bytes().is_empty(), "{tag}: resident store");
            assert_eq!(snap.api_paths().len(), API_ENDPOINTS.len(), "{tag}");
        });
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn serve_answers_the_merged_store_with_doctor_and_profile() {
    let config = LabConfig::quick(47, SITES).with_threads(2);
    let dir = temp_dir("merged");
    for shard in 0..4 {
        let segment = run_shard(&config, shard, 4, &Obs::new().with_trace());
        write_segment(&dir, &segment).unwrap();
    }
    let merged = merge_dir_columnar(&dir).unwrap();
    std::fs::write(dir.join("campaign.col"), merged.store.bytes()).unwrap();
    std::fs::write(dir.join(TRACE_FILE), encode_trace(&merged.trace)).unwrap();
    let eval = evaluate(&merged.outcome);
    topics_core::export::write_artefacts(&dir, &merged.outcome, &eval, false).unwrap();

    // The offline doctor body, straight from the subcommand.
    let doctor = Command::new(env!("CARGO_BIN_EXE_topics-lab"))
        .args(["doctor", "--campaign", dir.to_str().unwrap()])
        .output()
        .expect("doctor runs");
    assert!(
        doctor.status.success(),
        "{}",
        String::from_utf8_lossy(&doctor.stderr)
    );

    with_server(&dir, 4, |addr, _| {
        assert_endpoints_match_artefacts(addr, &dir, "merged");

        // With a trace next to the store, /api/doctor replicates the
        // doctor subcommand byte for byte (segment + columnar checks
        // included) and /api/profile renders the span profile.
        let api_doctor = http_fetch(addr, "GET", "/api/doctor").unwrap();
        assert_eq!(api_doctor.status, 200);
        assert_eq!(
            api_doctor.body, doctor.stdout,
            "/api/doctor differs from the doctor subcommand"
        );
        let profile = http_fetch(addr, "GET", "/api/profile").unwrap();
        assert_eq!(profile.status, 200);
        let text = String::from_utf8(profile.body).unwrap();
        assert!(text.contains("== Per-phase time =="), "{text}");
    });
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn concurrent_clients_get_identical_bytes_and_metrics_reconcile() {
    const CLIENTS: usize = 8;
    const ROUNDS: usize = 5;
    let dir = temp_dir("concurrent");
    let outcome = Lab::new(LabConfig::quick(53, SITES).with_threads(2))
        .run()
        .outcome;
    let eval = evaluate(&outcome);
    topics_core::write_bundle(&dir, &outcome, &eval, false, StoreKind::Columnar).unwrap();

    let served = with_server(&dir, 4, |addr, _| {
        // 8 clients, each fetching every artefact endpoint 5 times;
        // every response must equal the offline artefact bytes.
        std::thread::scope(|scope| {
            for _ in 0..CLIENTS {
                scope.spawn(|| {
                    for _ in 0..ROUNDS {
                        assert_endpoints_match_artefacts(addr, &dir, "concurrent");
                    }
                });
            }
        });

        // Quiescent now: one /metrics scrape must account for every
        // request issued — including itself, since the counter is
        // incremented before the exposition is rendered.
        let scrape = http_fetch(addr, "GET", "/metrics").unwrap();
        assert_eq!(scrape.status, 200);
        let text = String::from_utf8(scrape.body).unwrap();
        let mut by_path: BTreeMap<String, u64> = BTreeMap::new();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            if let Some(rest) = line.strip_prefix("http_requests_total{path=\"") {
                let (path, value) = rest.split_once("\"} ").expect("well-formed sample");
                by_path.insert(path.to_owned(), value.parse().expect("numeric counter"));
            }
        }
        let per_endpoint = (CLIENTS * ROUNDS) as u64;
        for (path, _) in API_ENDPOINTS {
            assert_eq!(
                by_path.get(*path).copied(),
                Some(per_endpoint),
                "{path} counter"
            );
        }
        assert_eq!(by_path.get("/metrics").copied(), Some(1), "self-scrape");
        let total: u64 = by_path.values().sum();
        assert_eq!(
            total,
            per_endpoint * API_ENDPOINTS.len() as u64 + 1,
            "every request accounted for: {by_path:?}"
        );
        assert!(
            text.contains("serve_ready 1"),
            "readiness gauge exported: {text}"
        );
        // Every answered request is one latency observation, in µs. A
        // request is observed before its connection closes, and the
        // client reads to the close, so the scrape (observed after it
        // renders) sees exactly the requests before it.
        assert_eq!(
            sample(&text, "http_request_wall_us_count"),
            per_endpoint * API_ENDPOINTS.len() as u64
        );
        assert!(sample(&text, "http_request_wall_us_sum") > 0, "{text}");
        // The bind's one-time cost is published split by step, in the
        // crawl's `phase_wall_us` style.
        for phase in [
            "serve-decode",
            "serve-to-outcome",
            "serve-evaluate",
            "serve-render",
            "serve-doctor",
        ] {
            let series = format!("phase_wall_us{{phase=\"{phase}\"}} ");
            assert!(
                text.lines().any(|l| l.starts_with(&series)),
                "{phase} wall time exported: {text}"
            );
        }
    });
    // The drain served everything: the clients' requests, the scrape,
    // and nothing else (the stop poke is dropped unserved).
    assert_eq!(served, (CLIENTS * ROUNDS * API_ENDPOINTS.len()) as u64 + 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn requests_are_counted_but_not_stored_as_events() {
    const REQUESTS: u64 = 1_000;
    let dir = small_bundle("request-count", 57);
    let (addr, server, _, served) = spawn_server(&dir, 2);
    for i in 0..REQUESTS {
        let (path, _) = API_ENDPOINTS[i as usize % API_ENDPOINTS.len()];
        assert_eq!(http_fetch(&addr, "GET", path).unwrap().status, 200);
    }
    let scrape = String::from_utf8(http_fetch(&addr, "GET", "/metrics").unwrap().body).unwrap();
    let counted: u64 = scrape
        .lines()
        .filter(|l| l.starts_with("http_requests_total{"))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .sum();
    assert_eq!(counted, REQUESTS + 1, "/metrics counts every request");
    server.handle().stop();
    assert_eq!(drained(&served, "request count"), REQUESTS + 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn trace_read_failures_are_typed_errors() {
    let dir = temp_dir("trace-errors");
    let obs = Obs::new().with_trace();
    let outcome = Lab::new(LabConfig::quick(63, 40).with_threads(2))
        .run_observed(&obs)
        .outcome;
    let trace = obs.trace.finish();
    let eval = evaluate(&outcome);
    topics_core::write_bundle(&dir, &outcome, &eval, false, StoreKind::Columnar).unwrap();
    let campaign = dir.join("campaign.col");
    let build = |trace: Option<&Path>| QueryService::build(&campaign, trace).map(|_| ());

    // No trace next to the campaign and none named: served without
    // the doctor and profile endpoints.
    assert_eq!(build(None), Ok(()));

    // A named trace that does not exist.
    let absent = dir.join("absent.col");
    assert_eq!(
        build(Some(&absent)),
        Err(ServeError::Missing(absent.clone()))
    );

    // A cut, a flipped or an empty file, named or found by default.
    let default = dir.join(TRACE_FILE);
    let good = encode_trace(&trace);
    let mut flipped = good.clone();
    flipped[good.len() / 2] ^= 0x01;
    for (bytes, why) in [
        (&good[..good.len() - 1], "truncated"),
        (&flipped[..], "checksum mismatch"),
        (&[][..], "truncated"),
    ] {
        std::fs::write(&default, bytes).unwrap();
        for trace in [Some(default.as_path()), None] {
            assert!(
                matches!(build(trace), Err(ServeError::Corrupt(p, e)) if p == default && e.contains(why)),
                "{why} trace {trace:?}"
            );
        }
    }

    // A JSONL trace is an export: it fails the magic check.
    let jsonl = dir.join("trace.jsonl");
    std::fs::write(&jsonl, trace.to_jsonl()).unwrap();
    match build(Some(&jsonl)) {
        Err(ServeError::Corrupt(p, e)) => {
            assert_eq!(p, jsonl);
            assert!(e.contains("bad magic") && e.contains("export"), "{e}");
        }
        other => panic!("a JSONL trace must be corrupt, got {other:?}"),
    }

    // A trace path that cannot be read as a file.
    std::fs::remove_file(&default).unwrap();
    std::fs::create_dir(&default).unwrap();
    for trace in [Some(default.as_path()), None] {
        assert!(
            matches!(build(trace), Err(ServeError::Io(p, _)) if p == default),
            "unreadable trace {trace:?}"
        );
    }

    // The CLI maps a missing named trace to the missing-input exit and
    // a JSONL one, in serve, doctor and memprofile alike, to the
    // corrupt-input exit.
    let cli = |cmd: &str, trace: &Path| {
        lab(&[
            cmd,
            "--campaign",
            dir.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
        ])
    };
    let out = cli("serve", &absent);
    assert_eq!(
        out.status.code(),
        Some(3),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for cmd in ["serve", "doctor", "memprofile"] {
        let out = cli(cmd, &jsonl);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(4), "{cmd}: {stderr}");
        assert!(
            stderr.contains("bad magic") && stderr.contains("a JSONL trace is an export"),
            "{cmd}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

fn lab(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_topics-lab"))
        .args(args)
        .output()
        .expect("topics-lab runs")
}

/// Start `topics-lab serve` over `campaign` and wait for the address
/// it writes once the listener is bound and the service built.
fn serve_cli(campaign: &Path, addr_file: &Path) -> (std::process::Child, String) {
    let mut server = Command::new(env!("CARGO_BIN_EXE_topics-lab"))
        .args(["serve", "--campaign", campaign.to_str().unwrap()])
        .args(["--threads", "2", "--quiet", "--addr-file"])
        .arg(addr_file)
        .spawn()
        .expect("serve starts");
    for _ in 0..600 {
        if let Ok(s) = std::fs::read_to_string(addr_file) {
            if s.ends_with('\n') {
                return (server, s.trim().to_owned());
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let _ = server.kill();
    let _ = server.wait();
    panic!("server never wrote its address");
}

/// `POST /shutdown`, then wait for a clean exit; a drain that hangs
/// fails the test instead of stalling it.
fn shutdown_cli(mut server: std::process::Child, addr: &str) {
    let out = lab(&["fetch", "--addr", addr, "--path", "/shutdown", "--post"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = server.try_wait().expect("polling serve") {
            break status;
        }
        if Instant::now() >= deadline {
            let _ = server.kill();
            panic!("serve still running 10 s after POST /shutdown");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "serve exited {status:?}");
}

/// Every subcommand that takes `--campaign` reads a bundle directory
/// as its `campaign.col`, exits 3 naming a store that does not exist
/// and 4 naming one that fails validation. `memprofile` reads the
/// trace beside the named store, so its corrupt input is that trace.
#[test]
fn cli_exit_codes_distinguish_missing_from_corrupt() {
    let root = temp_dir("campaign-inputs");
    let bundle = root.join("bundle");
    let crawl =
        "crawl --sites 300 --seed 3 --threads 2 --quiet --alloc-stats --trace-out trace.col";
    let out = lab(&[
        crawl.split(' ').collect(),
        vec!["--out", bundle.to_str().unwrap()],
    ]
    .concat());
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let corrupt = root.join("corrupt");
    std::fs::create_dir_all(&corrupt).unwrap();
    let mut store = std::fs::read(bundle.join("campaign.col")).unwrap();
    let mid = store.len() / 2;
    store[mid] ^= 0x40;
    std::fs::write(corrupt.join("campaign.col"), store).unwrap();
    std::fs::write(corrupt.join(TRACE_FILE), "{\"id\":1,\"parent\":").unwrap();
    let missing = root.join("missing");

    let commands: [(&str, &[&str]); 7] = [
        ("report", &[]),
        ("metrics", &[]),
        ("compare", &[]),
        ("dossier", &["--cp", "example.com"]),
        ("doctor", &[]),
        ("memprofile", &[]),
        ("serve", &["--quiet"]),
    ];
    for (cmd, extra) in commands {
        for (input, code) in [
            (bundle.clone(), 0),
            (missing.join("campaign.col"), 3),
            (corrupt.join("campaign.col"), 4),
        ] {
            if cmd == "serve" && code == 0 {
                // A healthy serve runs until shutdown.
                let (server, addr) = serve_cli(&input, &root.join("addr.txt"));
                shutdown_cli(server, &addr);
                continue;
            }
            let out = lab(&[&[cmd, "--campaign", input.to_str().unwrap()], extra].concat());
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(code), "{cmd} {input:?}: {stderr}");
            let dir = input.parent().unwrap().to_str().unwrap();
            assert!(
                code == 0 || stderr.contains(dir),
                "{cmd} names the input: {stderr}"
            );
        }
    }

    // Usage errors stay exit 2; other failures stay exit 1.
    assert_eq!(lab(&[]).status.code(), Some(2), "bare invocation is usage");
    let out = lab(&["fetch", "--addr", "127.0.0.1:1", "--path", "/healthz"]);
    assert_eq!(out.status.code(), Some(1), "unreachable server is exit 1");
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn cli_serve_and_fetch_round_trip() {
    let dir = temp_dir("cli-serve");
    let outcome = Lab::new(LabConfig::quick(61, 60).with_threads(2))
        .run()
        .outcome;
    let eval = evaluate(&outcome);
    topics_core::write_bundle(&dir, &outcome, &eval, false, StoreKind::Columnar).unwrap();

    let (server, addr) = serve_cli(&dir, &dir.join("addr.txt"));

    // fetch writes the report body; it must equal the offline file.
    let report_out = dir.join("fetched-report.txt");
    let out = lab(&[
        "fetch",
        "--addr",
        &addr,
        "--path",
        "/api/report",
        "--out",
        report_out.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::read(&report_out).unwrap(),
        std::fs::read(dir.join("report.txt")).unwrap(),
        "fetched report differs from the offline artefact"
    );

    // A 404 path is a non-zero fetch exit.
    let out = lab(&["fetch", "--addr", &addr, "--path", "/nope"]);
    assert_eq!(out.status.code(), Some(1));

    // POST /shutdown drains the server to a clean exit.
    shutdown_cli(server, &addr);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The value of the series `name` in a `/metrics` exposition.
fn sample(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("{name} exported: {text}"))
}

/// Write a small columnar bundle for `tag` and return its directory.
fn small_bundle(tag: &str, seed: u64) -> PathBuf {
    let dir = temp_dir(tag);
    let outcome = Lab::new(LabConfig::quick(seed, 40).with_threads(2))
        .run()
        .outcome;
    let eval = evaluate(&outcome);
    topics_core::write_bundle(&dir, &outcome, &eval, false, StoreKind::Columnar).unwrap();
    dir
}

/// Bind a server over `dir` on `threads` workers and run it on a
/// detached thread, so that a failed assertion or a drain that never
/// finishes fails the test instead of hanging it. Returns the address,
/// the server, its observability handle and the receiver of `run`'s
/// count.
fn spawn_server(
    dir: &Path,
    threads: usize,
) -> (String, Arc<Server>, Arc<Obs>, mpsc::Receiver<u64>) {
    let obs = Arc::new(Obs::new());
    let config = ServeConfig {
        threads,
        ..ServeConfig::new(dir.join("campaign.col"))
    };
    let server = Arc::new(Server::bind(&config, Arc::clone(&obs)).expect("server binds"));
    let (runner, (done, served)) = (Arc::clone(&server), mpsc::channel());
    std::thread::spawn(move || done.send(runner.run()));
    (server.local_addr().to_string(), server, obs, served)
}

/// `run`'s served count, which must arrive within a few seconds.
fn drained(served: &mpsc::Receiver<u64>, what: &str) -> u64 {
    served
        .recv_timeout(Duration::from_secs(10))
        .unwrap_or_else(|e| panic!("{what}: the server did not drain: {e}"))
}

#[test]
fn every_worker_wakes_on_stop_and_on_post_shutdown() {
    const REQUESTS: u64 = 5;
    let dir = small_bundle("drain", 67);
    for threads in [1, 2, 4, 8] {
        for post in [false, true] {
            let what = format!("threads={threads} post={post}");
            let (addr, server, _, served) = spawn_server(&dir, threads);
            for _ in 0..REQUESTS {
                assert_eq!(http_fetch(&addr, "GET", "/healthz").unwrap().status, 200);
            }
            if post {
                let resp = http_fetch(&addr, "POST", "/shutdown").unwrap();
                assert_eq!((resp.status, resp.body), (200, b"draining\n".to_vec()));
            } else {
                server.handle().stop();
            }
            // The wake-up connections are dropped, not counted; the
            // shutdown request itself is answered and counted.
            assert_eq!(
                drained(&served, &what),
                REQUESTS + u64::from(post),
                "{what}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_silent_client_does_not_block_another() {
    let dir = small_bundle("silent", 69);
    let (addr, server, obs, served) = spawn_server(&dir, 2);
    // Hold a connection that sends nothing, and wait until a worker
    // has taken it and is blocked reading it.
    let mut silent = TcpStream::connect(&addr).unwrap();
    let inflight = obs.metrics.gauge("http_inflight_requests");
    let deadline = Instant::now() + Duration::from_secs(10);
    while inflight.get() < 1 {
        assert!(Instant::now() < deadline, "no worker took the connection");
        std::thread::yield_now();
    }
    let held = Instant::now();
    // The other worker answers well inside the silent client's read
    // timeout.
    let started = Instant::now();
    assert_eq!(http_fetch(&addr, "GET", "/healthz").unwrap().status, 200);
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "answered after {:?}",
        started.elapsed()
    );
    // Closed with no request, the silent connection is answered 400.
    let held_us = held.elapsed().as_micros() as u64;
    silent.shutdown(std::net::Shutdown::Write).unwrap();
    let mut answer = Vec::new();
    silent.read_to_end(&mut answer).unwrap();
    assert!(answer.starts_with(b"HTTP/1.1 400 "), "{answer:?}");
    // Both requests are observed, in µs: the silent one was open on
    // the server for at least `held_us`.
    let text = String::from_utf8(http_fetch(&addr, "GET", "/metrics").unwrap().body).unwrap();
    assert_eq!(sample(&text, "http_request_wall_us_count"), 2, "{text}");
    assert!(
        sample(&text, "http_request_wall_us_sum") >= held_us,
        "held {held_us} µs: {text}"
    );
    server.handle().stop();
    assert_eq!(drained(&served, "silent"), 3);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Send `pieces` as separate writes on one connection and read the
/// answer to the close. A reset while sending or reading is `Err`.
fn raw_request(addr: &str, pieces: &[&[u8]]) -> std::io::Result<Vec<u8>> {
    let mut conn = TcpStream::connect(addr)?;
    conn.set_nodelay(true)?;
    conn.set_read_timeout(Some(Duration::from_secs(10)))?;
    for piece in pieces {
        conn.write_all(piece)?;
    }
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw)?;
    Ok(raw)
}

#[test]
fn malformed_oversized_and_split_requests() {
    let dir = small_bundle("request-bytes", 71);
    let (addr, server, _, served) = spawn_server(&dir, 2);

    let malformed = raw_request(&addr, &[b"GARBAGE\r\n\r\n"]).unwrap();
    assert!(malformed.starts_with(b"HTTP/1.1 400 "), "{malformed:?}");
    // A well-formed request that is not answered 200 counts under
    // `other`, not under its path.
    let delete = raw_request(&addr, &[b"DELETE /api/report HTTP/1.1\r\n\r\n"]).unwrap();
    assert!(delete.starts_with(b"HTTP/1.1 405 "), "{delete:?}");

    // 16 KiB with no header terminator: past the 8 KiB cap the server
    // answers 400 and closes with bytes unread, which may reset the
    // connection before the client reads the answer.
    let oversized = vec![b'a'; 16 * 1024];
    match raw_request(&addr, &[b"GET /healthz HTTP/1.1\r\nX: ", &oversized]) {
        Ok(raw) => assert!(raw.starts_with(b"HTTP/1.1 400 "), "{raw:?}"),
        Err(e) => assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::BrokenPipe
            ),
            "{e}"
        ),
    }

    // A request line split over several writes still parses.
    let split = raw_request(
        &addr,
        &[
            b"G",
            b"ET /hea",
            b"lthz HTTP/1",
            b".1\r\nHost: x\r\n",
            b"\r\n",
        ],
    )
    .unwrap();
    assert!(split.starts_with(b"HTTP/1.1 200 OK\r\n"), "{split:?}");
    assert!(split.ends_with(b"\r\n\r\nok\n"), "{split:?}");

    let scrape = String::from_utf8(http_fetch(&addr, "GET", "/metrics").unwrap().body).unwrap();
    assert_eq!(sample(&scrape, "http_responses_total{status=\"400\"}"), 2);
    assert_eq!(sample(&scrape, "http_requests_total{path=\"other\"}"), 3);
    assert!(!scrape.contains("path=\"/api/report\""), "{scrape}");
    server.handle().stop();
    assert_eq!(drained(&served, "request bytes"), 5);
    std::fs::remove_dir_all(&dir).unwrap();
}
