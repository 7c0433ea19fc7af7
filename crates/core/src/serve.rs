//! `topics-lab serve` — a live query + observability service over a
//! campaign store.
//!
//! The batch pipeline renders every artefact once and exits; this
//! module keeps a campaign resident and answers per-figure queries
//! over HTTP/1.1 — dependency-free, `std::net::TcpListener` plus a
//! few scoped workers that each accept on the shared listener and
//! answer the connection themselves. At startup `campaign.col` is loaded
//! **once**: the interned [`ColumnarCampaign`] arena stays in memory,
//! every endpoint body is rendered into an immutable cache from the
//! same evaluation the offline pipeline runs, and the row structs are
//! dropped. From then on a request is a map lookup — zero row-struct
//! materialisation per query. Every `/api/*` response is
//! byte-identical to the artefact the offline `crawl`/`merge`
//! pipeline writes for the same store (`tests/integration_serve.rs`
//! proves it).
//!
//! The server is observed with the repo's own stack: per-endpoint
//! request counters, an in-flight gauge and a latency histogram live
//! in a [`MetricsRegistry`](topics_obs::MetricsRegistry) exported at
//! `/metrics` (Prometheus text), every request is echoed to stderr as
//! an `http-access` line when the [`EventLog`](topics_obs::EventLog)
//! echoes (never stored, so a long-lived server's memory does not grow
//! with its request count), and `POST /shutdown` drains gracefully:
//! every worker is woken, finishes the connection it holds and joins.
//!
//! | Path              | Body (byte-identical artefact)         |
//! |-------------------|----------------------------------------|
//! | `/api/report`     | `report.txt`                           |
//! | `/api/table1`     | `table1.csv`                           |
//! | `/api/fig2`       | `fig2_presence.csv`                    |
//! | `/api/fig3`       | `fig3_fractions.csv`                   |
//! | `/api/fig5`       | `fig5_questionable.csv`                |
//! | `/api/fig6`       | `fig6_geo.csv`                         |
//! | `/api/fig7`       | `fig7_cmp.csv`                         |
//! | `/api/anomalous`  | `sec4_anomalous.csv`                   |
//! | `/api/doctor`     | the `doctor` subcommand's report       |
//! | `/api/profile`    | the trace profile (`topics_obs::profile`) |
//! | `/metrics`        | live Prometheus exposition             |
//! | `/healthz` `/readyz` | liveness / readiness probes         |

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crate::export::{load_trace, TRACE_FILE};
use topics_analysis::export as csv;
use topics_crawler::columnar::ColumnarCampaign;
use topics_obs::{Counter, FieldValue, Gauge, Histogram, Level, MetricsRegistry, Obs};

/// The eight artefact-backed API endpoints: URL path → the bundle file
/// whose bytes the endpoint serves. `/api/doctor` and `/api/profile`
/// are served too but render from the trace, not a bundle file.
pub const API_ENDPOINTS: &[(&str, &str)] = &[
    ("/api/report", "report.txt"),
    ("/api/table1", "table1.csv"),
    ("/api/fig2", "fig2_presence.csv"),
    ("/api/fig3", "fig3_fractions.csv"),
    ("/api/fig5", "fig5_questionable.csv"),
    ("/api/fig6", "fig6_geo.csv"),
    ("/api/fig7", "fig7_cmp.csv"),
    ("/api/anomalous", "sec4_anomalous.csv"),
];

/// Request header cap: anything larger is a 400, not a buffer grown
/// at a hostile client's pace.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Per-connection socket read timeout — a stalled client cannot pin a
/// worker past this.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Every `path` label of `http_requests_total`: a 200 answer is counted
/// under its path, any other under `other`, so the series are bounded
/// by this table.
const ROUTE_LABELS: [&str; 15] = [
    "/api/report",
    "/api/table1",
    "/api/fig2",
    "/api/fig3",
    "/api/fig5",
    "/api/fig6",
    "/api/fig7",
    "/api/anomalous",
    "/api/doctor",
    "/api/profile",
    "/healthz",
    "/readyz",
    "/metrics",
    "/shutdown",
    OTHER_ROUTE,
];
const OTHER_ROUTE: &str = "other";

/// Every status the server answers with, and its reason phrase.
const STATUSES: [(u16, &str); 4] = [
    (200, "OK"),
    (400, "Bad Request"),
    (404, "Not Found"),
    (405, "Method Not Allowed"),
];

/// Upper bounds of the `http_request_wall_us` buckets, in µs: a
/// loopback request takes tens of µs, a stalled client up to the read
/// timeout.
const REQUEST_WALL_BUCKETS_US: &[u64] = &[
    10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 100_000, 1_000_000, 5_000_000,
];

const TEXT: &str = "text/plain; charset=utf-8";

/// What can go wrong binding and loading the service, kept typed so
/// the CLI maps each case to a distinct exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The campaign, or a trace named explicitly, does not exist.
    Missing(PathBuf),
    /// The campaign or trace exists but does not decode/validate.
    Corrupt(PathBuf, String),
    /// Reading the campaign or trace failed for another I/O reason.
    Io(PathBuf, String),
    /// Binding the listen address failed.
    Bind(String, String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Missing(p) => write!(f, "{} not found", p.display()),
            ServeError::Corrupt(p, e) => write!(f, "{} is corrupt: {e}", p.display()),
            ServeError::Io(p, e) => write!(f, "reading {}: {e}", p.display()),
            ServeError::Bind(addr, e) => write!(f, "binding {addr}: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Configuration for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The campaign file (`campaign.col`; a directory must be resolved
    /// by the caller, the CLI does).
    pub campaign: PathBuf,
    /// The span trace backing `/api/doctor` and `/api/profile`.
    /// `None` means "try `trace.col` next to the campaign"; the two
    /// endpoints answer 404 when that file does not exist. A trace
    /// named here must exist, and any trace that is found must decode,
    /// or the build fails.
    pub trace: Option<PathBuf>,
    /// Listen address; port 0 picks an ephemeral port (read it back
    /// with [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads handling connections.
    pub threads: usize,
}

impl ServeConfig {
    /// Defaults: ephemeral loopback port, 4 workers, trace discovered
    /// next to the campaign.
    pub fn new(campaign: PathBuf) -> ServeConfig {
        ServeConfig {
            campaign,
            trace: None,
            addr: "127.0.0.1:0".to_owned(),
            threads: 4,
        }
    }
}

/// The immutable query state built once at startup: the resident
/// columnar store (its bytes and header; the sections decoded for the
/// build are released) and every endpoint body pre-rendered.
pub struct QueryService {
    store: ColumnarCampaign,
    bodies: BTreeMap<&'static str, (&'static str, Arc<[u8]>)>,
    build_wall_ms: u64,
    /// Wall time of each build step, published by [`Server::bind`] as
    /// `phase_wall_us{phase=…}`.
    phase_wall_us: [(&'static str, u64); 5],
}

impl QueryService {
    /// Load a `campaign.col` and build the service: the rows are
    /// materialised once here to render every artefact through the
    /// offline pipeline's own evaluation, then dropped — queries never
    /// touch row structs again.
    pub fn build(campaign: &Path, trace: Option<&Path>) -> Result<QueryService, ServeError> {
        let started = Instant::now();
        let mut lap = Instant::now();
        let mut lap_us = || {
            let us = lap.elapsed().as_micros() as u64;
            lap = Instant::now();
            us
        };
        let bytes = std::fs::read(campaign).map_err(|e| read_error(campaign, e))?;
        let corrupt = |e: String| -> ServeError { ServeError::Corrupt(campaign.to_path_buf(), e) };
        let store = ColumnarCampaign::decode(bytes).map_err(|e| corrupt(e.to_string()))?;
        let decode_us = lap_us();
        let outcome = store.to_outcome().map_err(|e| corrupt(e.to_string()))?;
        // Queries never read the decoded sections: release them before
        // the analysis runs, and keep only the bytes and the header.
        let store = ColumnarCampaign::decode(store.into_bytes())
            .expect("bytes that decoded once decode again");
        let to_outcome_us = lap_us();
        let eval = crate::evaluate(&outcome);
        let evaluate_us = lap_us();

        let mut bodies: BTreeMap<&'static str, (&'static str, Arc<[u8]>)> = BTreeMap::new();
        let mut put = |path: &'static str, content_type: &'static str, body: String| {
            bodies.insert(path, (content_type, body.into_bytes().into()));
        };
        const CSV: &str = "text/csv; charset=utf-8";
        put("/api/report", TEXT, eval.render_report());
        put("/api/table1", CSV, csv::table1_csv(&eval.table1));
        put("/api/fig2", CSV, csv::presence_csv(&eval.fig2));
        put("/api/fig3", CSV, csv::presence_csv(&eval.fig3));
        put("/api/fig5", CSV, csv::questionable_csv(&eval.fig5));
        put("/api/fig6", CSV, csv::geo_csv(&eval.fig6));
        put("/api/fig7", CSV, csv::cmp_csv(&eval.fig7));
        put("/api/anomalous", CSV, csv::anomalous_csv(&eval.anomalous));
        let render_us = lap_us();

        // The doctor/profile endpoints mirror the subcommands byte for
        // byte. Only the default trace may be absent.
        let trace_path = trace
            .map(Path::to_path_buf)
            .unwrap_or_else(|| campaign.with_file_name(TRACE_FILE));
        let found = match load_trace(&trace_path) {
            Ok(trace) => Some(trace),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound && trace.is_none() => None,
            Err(e) => return Err(read_error(&trace_path, e)),
        };
        if let Some(trace) = found {
            // The doctor's report carries the profile `/api/profile`
            // renders: one analysis pass serves both.
            let report = crate::doctor::diagnose_bundle(campaign, &outcome, &trace, 10);
            put("/api/doctor", TEXT, report.render());
            put("/api/profile", TEXT, report.profile.render());
        }

        let doctor_us = lap_us();
        let build_wall_ms = started.elapsed().as_millis() as u64;
        // `outcome` and `eval` drop here: the resident state is the
        // store's bytes and the body cache.
        Ok(QueryService {
            store,
            bodies,
            build_wall_ms,
            phase_wall_us: [
                ("serve-decode", decode_us),
                ("serve-to-outcome", to_outcome_us),
                ("serve-evaluate", evaluate_us),
                ("serve-render", render_us),
                ("serve-doctor", doctor_us),
            ],
        })
    }

    /// The resident store (`bytes().len()` is the store footprint;
    /// its sections decode again on first use).
    pub fn store(&self) -> &ColumnarCampaign {
        &self.store
    }

    /// Milliseconds the one-time load + render took (the cold
    /// cost a first query would otherwise pay).
    pub fn build_wall_ms(&self) -> u64 {
        self.build_wall_ms
    }

    /// The pre-rendered body for an API path, if the path exists.
    pub fn body(&self, path: &str) -> Option<&(&'static str, Arc<[u8]>)> {
        self.bodies.get(path)
    }

    /// Every served API path (the artefact endpoints plus
    /// doctor/profile when a trace was found).
    pub fn api_paths(&self) -> Vec<&'static str> {
        self.bodies.keys().copied().collect()
    }
}

/// A failed read of the campaign or a trace, typed by its cause: a
/// file that is not there, one that does not decode, or any other I/O
/// failure.
fn read_error(path: &Path, e: std::io::Error) -> ServeError {
    match e.kind() {
        std::io::ErrorKind::NotFound => ServeError::Missing(path.to_path_buf()),
        std::io::ErrorKind::InvalidData => ServeError::Corrupt(path.to_path_buf(), e.to_string()),
        _ => ServeError::Io(path.to_path_buf(), e.to_string()),
    }
}

/// One parsed response, as [`http_fetch`] returns it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code (200, 404, …).
    pub status: u16,
    /// Response body bytes.
    pub body: Vec<u8>,
}

/// The in-repo test client: one blocking HTTP/1.1 request over a
/// fresh connection (`Connection: close`), used by the CI smoke, the
/// integration suite, and the `fetch` subcommand. Deliberately
/// minimal — it only understands what [`Server`] emits.
pub fn http_fetch(addr: &str, method: &str, path: &str) -> std::io::Result<HttpResponse> {
    let mut conn = TcpStream::connect(addr)?;
    conn.set_read_timeout(Some(READ_TIMEOUT))?;
    let request =
        format!("{method} {path} HTTP/1.1\r\nHost: topics-lab\r\nConnection: close\r\n\r\n");
    conn.write_all(request.as_bytes())?;
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw)?;
    let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_owned());
    let header_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("no header terminator in response"))?;
    let head = std::str::from_utf8(&raw[..header_end]).map_err(|_| bad("non-UTF-8 header"))?;
    let status_line = head.lines().next().ok_or_else(|| bad("empty response"))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    Ok(HttpResponse {
        status,
        body: raw[header_end + 4..].to_vec(),
    })
}

/// A closed-over stop switch: flips the shutdown flag and wakes every
/// worker so [`Server::run`] can drain and return.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    shutdown: Arc<AtomicBool>,
    addr: SocketAddr,
    workers: usize,
}

impl ServerHandle {
    /// Request a graceful drain: stop accepting, finish the requests
    /// already accepted, join the workers.
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // One connection per worker: each worker blocked in `accept`
        // takes one, sees the flag and exits; they are dropped unread.
        for _ in 0..self.workers {
            let _ = TcpStream::connect(self.addr);
        }
    }
}

/// The request path's metric handles. Each is resolved from the
/// registry on its first use, so `/metrics` lists only the series some
/// request touched, and is kept from then on: a request takes no
/// registry lock and formats no label.
#[derive(Default)]
struct RequestMeters {
    inflight: OnceLock<Gauge>,
    wall_us: OnceLock<Histogram>,
    requests: [OnceLock<Counter>; ROUTE_LABELS.len()],
    responses: [OnceLock<Counter>; STATUSES.len()],
}

impl RequestMeters {
    fn inflight(&self, registry: &MetricsRegistry) -> &Gauge {
        self.inflight
            .get_or_init(|| registry.gauge("http_inflight_requests"))
    }

    fn wall_us(&self, registry: &MetricsRegistry) -> &Histogram {
        self.wall_us.get_or_init(|| {
            registry.histogram_with_buckets("http_request_wall_us", REQUEST_WALL_BUCKETS_US)
        })
    }

    /// `http_requests_total{path=…}`; a label outside the route table
    /// counts as `other`.
    fn requests(&self, registry: &MetricsRegistry, label: &str) -> &Counter {
        let i = ROUTE_LABELS
            .iter()
            .position(|l| *l == label)
            .unwrap_or(ROUTE_LABELS.len() - 1);
        self.requests[i].get_or_init(|| {
            registry.labeled_counter("http_requests_total", "path", ROUTE_LABELS[i])
        })
    }

    fn responses(&self, registry: &MetricsRegistry, status: u16) -> &Counter {
        let i = STATUSES
            .iter()
            .position(|(s, _)| *s == status)
            .expect("the server answers only with the statuses in STATUSES");
        self.responses[i].get_or_init(|| {
            registry.labeled_counter("http_responses_total", "status", &status.to_string())
        })
    }
}

/// The HTTP server: a bound listener plus the immutable
/// [`QueryService`] and the live observability handle.
pub struct Server {
    listener: TcpListener,
    service: Arc<QueryService>,
    obs: Arc<Obs>,
    threads: usize,
    shutdown: Arc<AtomicBool>,
    served: AtomicU64,
    meters: RequestMeters,
}

impl Server {
    /// Load the campaign and bind the listen address. The service is
    /// fully built (store decoded, bodies rendered)
    /// before this returns, so `/readyz` is truthful immediately; the
    /// one-time cost is published as `serve_build_wall_ms`, and its
    /// steps (store read and decode, `to_outcome`, `evaluate`, the
    /// artefact bodies' render, and the trace read plus doctor/profile
    /// build) as `phase_wall_us{phase="serve-…"}`.
    pub fn bind(config: &ServeConfig, obs: Arc<Obs>) -> Result<Server, ServeError> {
        let service = Arc::new(QueryService::build(
            &config.campaign,
            config.trace.as_deref(),
        )?);
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| ServeError::Bind(config.addr.clone(), e.to_string()))?;
        obs.metrics
            .gauge("serve_build_wall_ms")
            .set(service.build_wall_ms() as i64);
        for (phase, us) in service.phase_wall_us {
            obs.metrics
                .labeled_gauge("phase_wall_us", "phase", phase)
                .set(us as i64);
        }
        obs.metrics
            .gauge("serve_store_bytes")
            .set(service.store().bytes().len() as i64);
        obs.metrics
            .gauge("serve_sites")
            .set(service.store().site_count() as i64);
        obs.metrics.gauge("serve_ready").set(1);
        Ok(Server {
            listener,
            service,
            obs,
            threads: config.threads.max(1),
            shutdown: Arc::new(AtomicBool::new(false)),
            served: AtomicU64::new(0),
            meters: RequestMeters::default(),
        })
    }

    /// The bound address (resolves port 0 to the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener")
    }

    /// A stop switch usable from other threads (tests, signal hooks).
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shutdown: Arc::clone(&self.shutdown),
            addr: self.local_addr(),
            workers: self.threads,
        }
    }

    /// The service this server answers from.
    pub fn service(&self) -> &QueryService {
        &self.service
    }

    /// Serve until a shutdown is requested (`POST /shutdown` or
    /// [`ServerHandle::stop`]), then drain: accepted connections are
    /// finished, the workers join, and the total request count is
    /// returned. The workers are scoped — no detached threads survive
    /// this call.
    pub fn run(&self) -> u64 {
        std::thread::scope(|scope| {
            for _ in 0..self.threads {
                scope.spawn(|| self.work());
            }
        });
        self.obs.metrics.gauge("serve_ready").set(0);
        self.served.load(Ordering::SeqCst)
    }

    /// One worker: accept on the shared listener and answer each
    /// connection on this thread, until a shutdown is requested. Waiting
    /// connections queue in the kernel's listen backlog.
    fn work(&self) {
        let mut out = Vec::new();
        while !self.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                // The shutdown pokes, and anything racing them, are
                // dropped, not served.
                _ if self.shutdown.load(Ordering::SeqCst) => break,
                Ok((conn, _)) => self.handle_conn(conn, &mut out),
                Err(e) => self.obs.events.error(
                    "http-accept-error",
                    vec![("error".to_owned(), FieldValue::from(e.to_string()))],
                ),
            }
        }
    }

    /// Route one request to `(status, content type, body)`. `/metrics`
    /// answers an empty body here; the caller renders it.
    fn route(&self, method: &str, path: &str) -> (u16, &'static str, &[u8]) {
        if method == "POST" && path == "/shutdown" {
            // Wake every worker so the drain starts now, not at the
            // next client connection.
            self.handle().stop();
            return (200, TEXT, b"draining\n");
        }
        if method != "GET" {
            return (405, TEXT, b"method not allowed\n");
        }
        match path {
            "/healthz" => (200, TEXT, b"ok\n"),
            "/readyz" => (200, TEXT, b"ready\n"),
            "/metrics" => (200, TEXT, b""),
            _ => match self.service.body(path) {
                Some((content_type, body)) => (200, content_type, body),
                None if path == "/api/doctor" || path == "/api/profile" => {
                    (404, TEXT, b"no trace.col next to the campaign\n")
                }
                None => (404, TEXT, b"not found\n"),
            },
        }
    }

    /// Handle one connection: parse, count, answer from `out` (the
    /// worker's reused response buffer), echo the access line.
    fn handle_conn(&self, mut conn: TcpStream, out: &mut Vec<u8>) {
        let started = Instant::now();
        let _ = conn.set_read_timeout(Some(READ_TIMEOUT));
        let registry = &self.obs.metrics;
        let inflight = self.meters.inflight(registry);
        inflight.add(1);
        let parsed = read_request(&mut conn);
        let (method, path) = match &parsed {
            Ok((m, p)) => (m.as_str(), p.as_str()),
            Err(_) => ("", ""),
        };
        let (status, content_type, body) = if parsed.is_ok() {
            self.route(method, path)
        } else {
            (400, TEXT, &b"bad request\n"[..])
        };
        let label = if status == 200 { path } else { OTHER_ROUTE };
        self.meters.requests(registry, label).inc();
        self.meters.responses(registry, status).inc();
        // Rendered after the request counter increment, so a scrape
        // observes itself — counters reconcile exactly against requests
        // issued.
        let exposition;
        let body = if status == 200 && path == "/metrics" {
            exposition = registry.snapshot().render_prometheus();
            exposition.as_bytes()
        } else {
            body
        };
        let wrote = write_response(&mut conn, out, status, content_type, body);
        let wall_us = started.elapsed().as_micros() as u64;
        self.meters.wall_us(registry).observe(wall_us);
        inflight.add(-1);
        self.served.fetch_add(1, Ordering::SeqCst);
        if !self.obs.events.echo_enabled() {
            return;
        }
        let or_unknown = |s: &str| if s.is_empty() { "?" } else { s }.to_owned();
        self.obs.events.echo(
            Level::Info,
            "http-access",
            &[
                ("method".to_owned(), FieldValue::from(or_unknown(method))),
                ("path".to_owned(), FieldValue::from(or_unknown(path))),
                ("status".to_owned(), FieldValue::U64(status as u64)),
                ("bytes".to_owned(), FieldValue::U64(body.len() as u64)),
                ("wall_us".to_owned(), FieldValue::U64(wall_us)),
                (
                    "write_ok".to_owned(),
                    FieldValue::from(wrote.is_ok().to_string()),
                ),
            ],
        );
    }
}

/// Read and parse the request line; headers are consumed and ignored
/// (no endpoint takes a body).
fn read_request(conn: &mut TcpStream) -> std::io::Result<(String, String)> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 1024];
    while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
        if buf.len() > MAX_REQUEST_BYTES {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "request header too large",
            ));
        }
        let n = conn.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    parse_request_line(&buf)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad request line"))
}

/// `METHOD PATH HTTP/…` → `(METHOD, PATH)`; anything else is `None`.
fn parse_request_line(raw: &[u8]) -> Option<(String, String)> {
    let line_end = raw.windows(2).position(|w| w == b"\r\n")?;
    let line = std::str::from_utf8(&raw[..line_end]).ok()?;
    let mut parts = line.split(' ');
    let method = parts.next()?.to_owned();
    let path = parts.next()?.to_owned();
    let version = parts.next()?;
    if method.is_empty() || !path.starts_with('/') || !version.starts_with("HTTP/") {
        return None;
    }
    Some((method, path))
}

/// Write a complete `Connection: close` response: the status line,
/// headers and body are assembled in `out` and reach the socket in one
/// write, so the client is woken once.
fn write_response(
    conn: &mut TcpStream,
    out: &mut Vec<u8>,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let reason = STATUSES
        .iter()
        .find(|(s, _)| *s == status)
        .map_or("Error", |(_, r)| r);
    out.clear();
    write!(
        out,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    out.extend_from_slice(body);
    conn.write_all(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_parse_strictly() {
        let ok = parse_request_line(b"GET /api/report HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(ok, ("GET".to_owned(), "/api/report".to_owned()));
        let post = parse_request_line(b"POST /shutdown HTTP/1.0\r\n\r\n").unwrap();
        assert_eq!(post.0, "POST");
        for bad in [
            &b"GET\r\n\r\n"[..],
            b"GET /x\r\n\r\n",
            b"GET x HTTP/1.1\r\n\r\n",
            b"/x GET\r\n",
            b"",
            b"no crlf at all",
        ] {
            assert!(parse_request_line(bad).is_none(), "{bad:?}");
        }
    }

    #[test]
    fn endpoint_table_matches_bundle_files() {
        // Every artefact-backed endpoint must point at a real bundle
        // file name — the byte-identity contract depends on it.
        for (path, artefact) in API_ENDPOINTS {
            assert!(path.starts_with("/api/"), "{path}");
            assert!(
                crate::export::BUNDLE_FILES.contains(artefact),
                "{artefact} is not a bundle file"
            );
            assert!(ROUTE_LABELS.contains(path), "{path} has no request counter");
        }
    }

    #[test]
    fn serve_error_display_names_the_path() {
        let p = PathBuf::from("/tmp/x/campaign.col");
        assert!(ServeError::Missing(p.clone())
            .to_string()
            .contains("not found"));
        assert!(ServeError::Corrupt(p.clone(), "bad magic".into())
            .to_string()
            .contains("corrupt"));
        assert!(ServeError::Bind("127.0.0.1:1".into(), "denied".into())
            .to_string()
            .contains("127.0.0.1:1"));
        let _ = ServeError::Io(p, "weird".into()).to_string();
    }

    fn build_err(path: &Path) -> ServeError {
        match QueryService::build(path, None) {
            Ok(_) => panic!("expected an error for {}", path.display()),
            Err(e) => e,
        }
    }

    #[test]
    fn missing_campaign_is_typed() {
        let err = build_err(Path::new("/nonexistent/campaign.col"));
        assert!(matches!(err, ServeError::Missing(_)), "{err}");
    }

    #[test]
    fn corrupt_campaign_is_typed() {
        let dir = std::env::temp_dir().join(format!("topics-serve-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.json");
        std::fs::write(&path, "definitely not json").unwrap();
        let err = build_err(&path);
        assert!(matches!(err, ServeError::Corrupt(..)), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
