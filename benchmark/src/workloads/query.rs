//! `query`: the read side. The crawl runs only in set-up; the timed
//! phase loads the store into a server and serves it to a closed loop
//! of clients, because the service's callers (scrapers, dashboards)
//! each wait for a reply before sending the next request.

use super::{Layers, RunSpec, Scale, PAPER_SITES, THREADS};
use crate::report::Report;
use crate::stats::{percentile, tail_percentile};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use topics_core::analysis::colscan;
use topics_core::analysis::Datasets;
use topics_core::crawler::columnar::ColumnarCampaign;
use topics_core::export::{self, StoreKind};
use topics_core::net::seed::fnv1a;
use topics_core::obs::Obs;
use topics_core::{evaluate, Lab, LabConfig, ServeConfig, Server, API_ENDPOINTS};

/// `Server::bind` calls per run at the least.
const MIN_BINDS: usize = 3;

/// Failure messages kept per client; the count is always exact.
const KEPT_FAILURES: usize = 5;

/// The crawled store plus what serving it must answer.
struct Served {
    store: PathBuf,
    /// Offline renderings, by API path.
    expected: BTreeMap<&'static str, Vec<u8>>,
}

/// Crawl `sites` sites of the world for `seed` and write the bundle
/// `topics-lab crawl --store columnar` writes: `campaign.col` and every
/// offline artefact. This is the `crawl-store` subcommand's body.
pub fn write_bundle(dir: &Path, seed: u64, sites: usize) -> Result<(), String> {
    let run = Lab::new(LabConfig::quick(seed, sites).with_threads(THREADS)).run();
    let eval = evaluate(&run.outcome);
    export::write_bundle(
        dir,
        &run.outcome,
        &eval,
        sites == PAPER_SITES,
        StoreKind::Columnar,
    )
    .map_err(|e| format!("writing the bundle to {}: {e}", dir.display()))
}

/// Run [`write_bundle`] in a child process, so that the crawl's memory
/// stays out of the serving process's peak. Unit tests cannot re-run
/// their own executable as the benchmark, so they crawl in-process.
fn crawl_bundle(dir: &Path, seed: u64, sites: usize) -> Result<(), String> {
    if cfg!(test) {
        return write_bundle(dir, seed, sites);
    }
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let status = Command::new(exe)
        .arg("crawl-store")
        .arg(dir)
        .arg(seed.to_string())
        .arg(sites.to_string())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("starting the set-up crawl: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("the set-up crawl exited with {status}"))
    }
}

/// Crawl the world into a bundle `times` times (the set-up whose time
/// `setup_s` reports), check every `campaign.col` is the same, and read
/// the offline artefacts the served bodies must equal.
fn set_up(spec: &RunSpec<'_>, times: usize, report: &mut Report) -> (Vec<f64>, Served) {
    let dir = spec.work.join("bundle");
    let store = dir.join("campaign.col");
    let (mut setup_s, mut digests) = (Vec::new(), Vec::new());
    for _ in 0..times {
        let started = Instant::now();
        let crawled = crawl_bundle(&dir, spec.seed, spec.scale.query_sites);
        setup_s.push(started.elapsed().as_secs_f64());
        let bytes = crawled.and_then(|()| std::fs::read(&store).map_err(|e| e.to_string()));
        digests.push(bytes.map(|b| fnv1a(&b)));
    }
    let first = digests[0].clone();
    report.check(first.is_ok() && digests.iter().all(|d| *d == first), || {
        format!("set-up stores disagree or failed: {digests:x?}")
    });

    let mut expected = BTreeMap::new();
    for (path, file) in API_ENDPOINTS {
        let body = std::fs::read(dir.join(file));
        report.check(body.is_ok(), || format!("offline {file} missing"));
        expected.insert(*path, body.unwrap_or_default());
    }
    (setup_s, Served { store, expected })
}

/// One answered request, timed in three parts.
struct Answer {
    status: u16,
    body: Vec<u8>,
    connect_us: f64,
    ttfb_us: f64,
    total_us: f64,
}

/// One `GET` over a fresh connection, as the program's `http_fetch`
/// sends it, with the connect, first-byte and complete times split.
fn get(addr: SocketAddr, path: &str) -> std::io::Result<Answer> {
    let started = Instant::now();
    let mut conn = TcpStream::connect(addr)?;
    let connect_us = started.elapsed().as_secs_f64() * 1e6;
    conn.set_read_timeout(Some(Duration::from_secs(5)))?;
    conn.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: topics-lab\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut raw = vec![0u8; 16 * 1024];
    let first = conn.read(&mut raw)?;
    let ttfb_us = started.elapsed().as_secs_f64() * 1e6;
    raw.truncate(first);
    conn.read_to_end(&mut raw)?;
    let total_us = started.elapsed().as_secs_f64() * 1e6;
    let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_owned());
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("no header terminator"))?;
    let status = std::str::from_utf8(&raw[..head_end])
        .ok()
        .and_then(|head| head.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    Ok(Answer {
        status,
        body: raw.split_off(head_end + 4),
        connect_us,
        ttfb_us,
        total_us,
    })
}

/// Whether a served body is what the path must answer.
fn body_ok(path: &str, answer: &Answer, expected: &BTreeMap<&str, Vec<u8>>) -> bool {
    answer.status == 200
        && match path {
            "/healthz" => answer.body == b"ok\n",
            "/metrics" => answer
                .body
                .windows(b"serve_ready 1".len())
                .any(|w| w == b"serve_ready 1"),
            _ => expected.get(path).is_some_and(|b| *b == answer.body),
        }
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    sent: u64,
    failed: u64,
    failures: Vec<String>,
    connect_us: Vec<f64>,
    ttfb_us: Vec<f64>,
    total_us: Vec<f64>,
    /// Completion of each recorded request, seconds after the loop began.
    done_s: Vec<f64>,
    /// When this client's recorded requests began and ended.
    start_s: f64,
    end_s: f64,
}

/// Closed loop: each client sends its next request when the last one is
/// answered, cycling over the eight artefact endpoints, `/metrics` and
/// `/healthz`. Every answer is checked; the first `warmup` requests are
/// not recorded. The request count is fixed, so the memory the server's
/// per-request event log takes does not depend on how fast it answers;
/// `deadline` only bounds a run against a stalled server.
fn closed_loop(
    addr: SocketAddr,
    expected: &BTreeMap<&'static str, Vec<u8>>,
    warmup: u64,
    requests: u64,
    deadline: Instant,
) -> Vec<ClientLog> {
    let paths: Vec<&str> = API_ENDPOINTS
        .iter()
        .map(|(p, _)| *p)
        .chain(["/metrics", "/healthz"])
        .collect();
    let epoch = Instant::now();
    let recording = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..THREADS)
            .map(|c| {
                let (paths, recording) = (&paths, &recording);
                scope.spawn(move || {
                    let mut log = ClientLog::default();
                    let mut next = c * paths.len() / THREADS;
                    let mut send = |log: &mut ClientLog, record: bool| {
                        let path = paths[next % paths.len()];
                        next += 1;
                        log.sent += 1;
                        let answer = get(addr, path);
                        let done_s = epoch.elapsed().as_secs_f64();
                        match answer {
                            Ok(a) if body_ok(path, &a, expected) => {
                                if record {
                                    log.connect_us.push(a.connect_us);
                                    log.ttfb_us.push(a.ttfb_us);
                                    log.total_us.push(a.total_us);
                                    log.done_s.push(done_s);
                                }
                            }
                            answer => {
                                log.failed += 1;
                                if log.failures.len() < KEPT_FAILURES {
                                    log.failures.push(match answer {
                                        Ok(a) => format!(
                                            "{path} answered {} with a wrong body",
                                            a.status
                                        ),
                                        Err(e) => format!("{path}: {e}"),
                                    });
                                }
                            }
                        }
                    };
                    let quota = |total: u64| total.div_ceil(THREADS as u64);
                    for _ in 0..quota(warmup) {
                        if Instant::now() >= deadline {
                            break;
                        }
                        send(&mut log, false);
                    }
                    recording.wait();
                    log.start_s = epoch.elapsed().as_secs_f64();
                    for _ in 0..quota(requests) {
                        if Instant::now() >= deadline {
                            break;
                        }
                        send(&mut log, true);
                    }
                    log.end_s = epoch.elapsed().as_secs_f64();
                    log
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Everything a serve phase measured.
struct ServeResult {
    logs: Vec<ClientLog>,
    scraped_requests: u64,
}

/// Serve the store with `server`, run the closed loop, then scrape
/// `/metrics` and check its request count against what was sent.
fn serve(
    server: Server,
    served: &Served,
    scale: &Scale,
    deadline: Instant,
    report: &mut Report,
) -> ServeResult {
    let addr = server.local_addr();
    let (logs, scrape, answered) = std::thread::scope(|scope| {
        let running = scope.spawn(|| server.run());
        let logs = closed_loop(
            addr,
            &served.expected,
            scale.serve_warmup_requests,
            scale.serve_requests,
            deadline,
        );
        let scrape = get(addr, "/metrics");
        server.handle().stop();
        let answered = running.join().expect("server thread panicked");
        (logs, scrape, answered)
    });
    let sent: u64 = logs.iter().map(|l| l.sent).sum();
    let failed: u64 = logs.iter().map(|l| l.failed).sum();
    report.ops(sent, failed);
    report
        .failures
        .extend(logs.iter().flat_map(|l| l.failures.iter().cloned()));
    let scraped_requests = match scrape {
        Ok(a) => String::from_utf8_lossy(&a.body)
            .lines()
            .filter(|l| l.starts_with("http_requests_total{"))
            .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
            .sum(),
        Err(_) => 0,
    };
    report.check(scraped_requests == sent + 1, || {
        format!("/metrics counts {scraped_requests} requests, {sent} + 1 were sent")
    });
    report.check(answered == sent + 1, || {
        format!("the server answered {answered} requests, {sent} + 1 were sent")
    });
    ServeResult {
        logs,
        scraped_requests,
    }
}

impl ServeResult {
    fn all(&self, field: impl Fn(&ClientLog) -> &Vec<f64>) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .logs
            .iter()
            .flat_map(|l| field(l).iter().copied())
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Requests answered per second in each whole second while every
    /// client was recording (one bucket when that is under a second).
    fn rate_per_bucket(&self) -> Vec<f64> {
        let start = self.logs.iter().map(|l| l.start_s).fold(0.0, f64::max);
        let end = self
            .logs
            .iter()
            .map(|l| l.end_s)
            .fold(f64::INFINITY, f64::min);
        let span = end - start;
        if span <= 0.0 {
            return Vec::new();
        }
        let buckets = (span.floor() as usize).max(1);
        let width = if span < 1.0 { span } else { 1.0 };
        let mut counts = vec![0u64; buckets];
        for t in self.logs.iter().flat_map(|l| &l.done_s) {
            if *t >= start {
                if let Some(c) = counts.get_mut(((t - start) / width) as usize) {
                    *c += 1;
                }
            }
        }
        counts.into_iter().map(|c| c as f64 / width).collect()
    }
}

/// Bind `Server::bind` with a fresh observability handle.
fn bind(store: &Path) -> Result<Server, String> {
    let config = ServeConfig {
        threads: THREADS,
        ..ServeConfig::new(store.to_path_buf())
    };
    Server::bind(&config, Arc::new(Obs::new())).map_err(|e| e.to_string())
}

/// `query`, untraced: set-up crawls and writes the store three times.
/// The timed phase binds a server (store load, column scan and the
/// rendering of every body), serves the fixed closed loop from it, and
/// then times further binds until `--seconds` have passed.
pub fn query(spec: &RunSpec<'_>) -> Report {
    if spec.traced {
        return query_traced(spec);
    }
    let mut report = Report::default();
    let (setup_s, served) = set_up(spec, 3, &mut report);
    report.samples("setup_s", "s", &setup_s);

    let started = Instant::now();
    let mut bind_ms = Vec::new();
    let mut failures = Vec::new();
    if let Some(server) = timed_bind(&served.store, &mut bind_ms, &mut failures) {
        let result = serve(
            server,
            &served,
            spec.scale,
            serve_deadline(spec),
            &mut report,
        );
        report.samples("throughput_per_s", "1/s", &result.rate_per_bucket());
        let latency_ms: Vec<f64> = result
            .all(|l| &l.total_us)
            .iter()
            .map(|us| us / 1000.0)
            .collect();
        report.samples("latency_p50_ms", "ms", &latency_ms);
    }
    while bind_ms.len() < MIN_BINDS || started.elapsed().as_secs_f64() < spec.seconds {
        timed_bind(&served.store, &mut bind_ms, &mut failures);
    }
    let failed_binds = failures.len() as u64;
    report.failures.extend(failures);
    report.ops(bind_ms.len() as u64, failed_binds);
    report.samples("stage_ms", "ms", &bind_ms);
    report
}

/// `Server::bind`, timed into `bind_ms`; a failure is kept in `failures`.
fn timed_bind(store: &Path, bind_ms: &mut Vec<f64>, failures: &mut Vec<String>) -> Option<Server> {
    let started = Instant::now();
    let bound = bind(store);
    bind_ms.push(started.elapsed().as_secs_f64() * 1000.0);
    bound
        .map_err(|e| failures.push(format!("binding the server: {e}")))
        .ok()
}

/// The latest a serve loop may run: far past its expected length, well
/// inside a run's time limit.
fn serve_deadline(spec: &RunSpec<'_>) -> Instant {
    Instant::now() + Duration::from_secs_f64((4.0 * spec.seconds).max(30.0))
}

/// `query`, traced: one report build taken apart into its public calls,
/// one timed bind, then the serve loop with each request's connect and
/// first byte timed apart.
fn query_traced(spec: &RunSpec<'_>) -> Report {
    let mut report = Report::default();
    let mut layers = Layers::new(true);
    let (_, served) = set_up(spec, 1, &mut report);

    let built = std::fs::read(&served.store)
        .map_err(|e| e.to_string())
        .and_then(|bytes| {
            layers.set("crawler.columnar.bytes", bytes.len() as f64);
            let store = layers
                .span("crawler.columnar.decode", || {
                    ColumnarCampaign::decode(bytes)
                })
                .map_err(|e| e.to_string())?;
            let outcome = layers
                .span("crawler.columnar.to_outcome", || store.to_outcome())
                .map_err(|e| e.to_string())?;
            layers
                .span("analysis.colscan.scan", || colscan::scan(&store))
                .map_err(|e| e.to_string())?;
            layers.span("analysis.datasets", || black_box(Datasets::new(&outcome)));
            let eval = layers.span("core.evaluate", || evaluate(&outcome));
            Ok(layers.span("core.render_report", || eval.render_report()))
        });
    match built {
        Ok(text) => report.check(
            served.expected.get("/api/report") == Some(&text.into_bytes()),
            || "the report built from campaign.col differs from report.txt".to_owned(),
        ),
        Err(e) => report.check(false, || format!("building the report: {e}")),
    }

    match layers.span("core.serve.bind", || bind(&served.store)) {
        Ok(server) => {
            let result = serve(
                server,
                &served,
                spec.scale,
                serve_deadline(spec),
                &mut report,
            );
            let p50 = |v: Vec<f64>| percentile(&v, 50.0).unwrap_or(0.0);
            layers.set(
                "core.serve.connect_p50_us",
                p50(result.all(|l| &l.connect_us)),
            );
            layers.set("core.serve.ttfb_p50_us", p50(result.all(|l| &l.ttfb_us)));
            let total = result.all(|l| &l.total_us);
            let tail = tail_percentile(&total).or_else(|| Some((100.0, *total.last()?)));
            layers.set("core.serve.tail_us", tail.map_or(0.0, |(_, v)| v));
            layers.set("core.serve.requests", result.scraped_requests as f64);
        }
        Err(e) => report.check(false, || format!("binding the server: {e}")),
    }
    layers.finish(&mut report);
    report
}
