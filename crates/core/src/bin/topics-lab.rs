//! `topics-lab` — the command-line front end of the reproduction.
//!
//! ```text
//! topics-lab crawl   [--sites N] [--seed S] [--full] [--out DIR]
//!                    [--allow-list corrupted|healthy|fail-closed]
//!                    [--reject] [--vantage eu|us] [--quiet]
//!                    [--metrics-out FILE] [--events-out FILE]
//!                    [--fault-profile off|light|heavy|RATE] [--fault-seed S]
//!                    [--probe-threads N] [--trace-out FILE] [--alloc-stats]
//!     Generate a synthetic web, run the Before/After-Accept campaign,
//!     and write the artefact bundle to DIR (default: ./topics-lab-out):
//!     the campaign dataset campaign.col (the interned struct-of-arrays
//!     store with checksummed sections), the report, the comparison and
//!     the per-figure CSVs. With
//!     --metrics-out / --events-out, also write the Prometheus-style
//!     metrics snapshot and the JSONL event stream (relative paths land
//!     next to campaign.col). --fault-profile injects seeded network
//!     faults (DNS failures, resets, 5xx, slow responses, truncated
//!     attestations) at a named band or uniform RATE in [0,1];
//!     --fault-seed repositions the faults without changing the world.
//!     --probe-threads bounds the attestation-probe worker pool (default:
//!     the crawl thread count); the outputs are byte-identical for every
//!     value. --trace-out enables hierarchical span tracing and writes
//!     the sealed trace: a `.json` extension selects Chrome trace-event
//!     format (loadable in Perfetto / chrome://tracing), anything else
//!     one span per line as JSONL (what `doctor` reads). --alloc-stats
//!     turns on the counting allocator: phase/visit/probe spans gain
//!     alloc_bytes/alloc_count/peak_bytes attributes (read by
//!     `memprofile`), and the metrics snapshot gains mem_* gauges and
//!     the alloc_size_bytes histogram. The campaign outputs stay
//!     byte-identical with or without the flag.
//!
//! topics-lab shard   --shard K/N [--sites N] [--seed S] [--full]
//!                    [--out DIR] [--allow-list corrupted|healthy|fail-closed]
//!                    [--reject] [--vantage eu|us] [--quiet]
//!                    [--fault-profile off|light|heavy|RATE] [--fault-seed S]
//!                    [--probe-threads N]
//!     Run shard K of N (K is 1-based) of the same campaign `crawl`
//!     would run, as an independent process: generate the world, crawl
//!     only the shard's site-rank stripe, probe only the parties that
//!     stripe encountered (plus the allow-list), and write a
//!     checksummed binary segment (shard-K-of-N.seg: the stripe's own
//!     campaign.col, header, metrics tally and stripped trace, each an
//!     FNV-1a-checked section of one container) to DIR (default:
//!     ./topics-lab-shards). Per-visit seeds, timestamps, and fault
//!     schedules are derived from the *global* rank, so the shards of a
//!     seed reassemble byte-identically.
//!
//! topics-lab merge   --segments DIR [--out DIR]
//!     Verify and merge every *.seg in DIR back into one campaign:
//!     checks each segment's checksum, shard coverage and header
//!     agreement, streams the segments one at a time straight into the
//!     columnar writer, and writes the same artefact bundle `crawl`
//!     writes (campaign.col, report, CSVs) plus the merged stripped
//!     trace (trace.jsonl) to DIR (default: the segments directory).
//!     The bundle is byte-identical to a single-process `crawl` of the
//!     same seed. Exits non-zero with a named violation on truncated,
//!     corrupted, duplicated or missing segments: 3 when DIR is absent
//!     or holds no *.seg file, 4 when a segment fails to read, decode
//!     or merge.
//!
//! topics-lab simulate [--users N] [--epochs N] [--sites N] [--visits N]
//!                    [--context N] [--window N] [--sample N]
//!                    [--noise RATE] [--seed S] [--threads N] [--out DIR]
//!                    [--metrics-out FILE] [--events-out FILE]
//!                    [--trace-out FILE] [--alloc-stats] [--quiet]
//!     Run the population-scale privacy testbed: advance a synthetic
//!     population's Topics histories in one epoch-major arena (parallel
//!     over --threads workers, default: all cores), then measure
//!     k-anonymity of the exposed top-5 sets per epoch and the
//!     cross-context re-identification rate per collection epoch.
//!     Writes sim_kanon.csv, sim_reident.csv and sim_report.txt to DIR
//!     (default: ./topics-sim-out). The CSVs are byte-identical for any
//!     --threads value and depend only on the config. Defaults: 100k
//!     users, 30 epochs, 5000 sites, 20 visits/epoch, 2 × 20-site
//!     context panels, trailing window auto-sized from --epochs, 10k
//!     query sample, API noise 0.05. --metrics-out / --events-out /
//!     --trace-out / --alloc-stats behave as in `crawl` (phase spans:
//!     sim-universe, sim-advance, sim-kanon, sim-attack).
//!
//! topics-lab doctor  --campaign DIR|FILE [--trace FILE] [--top N]
//!     Run-health report over a finished campaign and its trace: outcome
//!     partition, trace/metric reconciliation, critical path, per-phase
//!     self/total time, worker utilization, retry hot-spots, allocation
//!     balance (phase windows vs attributed children, when the trace
//!     carries memory attribution), and the top-N slowest visits.
//!     --campaign accepts the bundle directory or the campaign.col
//!     path; --trace defaults to trace.jsonl next to it. With --trace
//!     and no --campaign, runs in trace-only mode: integrity,
//!     phases and allocation balance without campaign reconciliation
//!     (e.g. over a `simulate` trace, which has no campaign). Exits
//!     non-zero when the trace has integrity violations (orphan spans,
//!     duplicate IDs, negative durations), the trace and the metric
//!     tally disagree, or a phase's allocation window undercuts its
//!     children.
//!
//! topics-lab memprofile --trace FILE | --campaign DIR [--top N]
//!     Memory-attribution report over a trace recorded with
//!     `crawl --alloc-stats --trace-out`: per-phase self/total heap
//!     allocation, the top-N allocating spans, and retry-storm
//!     allocation clusters. --campaign resolves to trace.jsonl inside
//!     the bundle directory. Exits non-zero when the trace carries no
//!     allocation attribution.
//!
//! topics-lab report  --campaign DIR|FILE
//!     Re-render the evaluation report from a dumped campaign; a
//!     directory resolves to its campaign.col.
//!
//! topics-lab metrics --campaign DIR/campaign.col
//!     Re-derive the metrics snapshot from a dumped campaign and print
//!     it in Prometheus text format.
//!
//! topics-lab compare --campaign DIR/campaign.col [--full-scale]
//!     Print the paper-vs-measured table from a dumped campaign.
//!
//! topics-lab dossier --campaign DIR/campaign.col --cp DOMAIN
//!     Print everything the campaign knows about one calling party.
//!
//! topics-lab serve   --campaign DIR|FILE [--addr HOST:PORT] [--threads N]
//!                    [--trace FILE] [--addr-file FILE] [--quiet]
//!     Hold the campaign resident and answer per-figure queries over
//!     HTTP: `/api/report`, `/api/table1`, `/api/fig2`…`/api/fig7`,
//!     `/api/anomalous` (each byte-identical to the offline artefact),
//!     plus `/api/doctor` and `/api/profile` when a trace is found,
//!     `/metrics` (live Prometheus self-telemetry), `/healthz` and
//!     `/readyz`. --addr defaults to 127.0.0.1:0 (ephemeral port;
//!     --addr-file writes the bound address for scripts). Serves until
//!     `POST /shutdown`, then drains gracefully.
//!
//! topics-lab fetch   --addr HOST:PORT [--path /api/report] [--out FILE]
//!                    [--post]
//!     The in-repo HTTP client: one request against a running `serve`,
//!     body to stdout (or --out FILE). Exits 0 on 2xx, 1 otherwise.
//! ```
//!
//! Failures exit with a typed code scripts can branch on: 2 for usage
//! errors, 3 when a named campaign/trace input does not exist, 4 when
//! a campaign store exists but fails validation, 1 otherwise.
//!
//! Progress logging goes through the structured event log (echoed to
//! stderr); `--quiet` or `TOPICS_LOG=off` silences it.

use std::path::PathBuf;
use std::process::ExitCode;
use topics_core::crawler::campaign::AllowListSetup;
use topics_core::export::{
    load_campaign, write_artefacts, write_bundle, StoreKind, CAMPAIGN_COLUMNAR_FILE,
};
use topics_core::obs::Obs;
use topics_core::{
    comparison_rows, diagnose, evaluate, metrics_snapshot_of, render_comparison, Lab, LabConfig,
};

/// The instrumented allocator wraps the system one for the whole
/// binary. It is pass-through (one relaxed load) until `--alloc-stats`
/// enables counting, so untracked runs pay nothing measurable.
#[global_allocator]
static ALLOC: topics_core::obs::CountingAlloc = topics_core::obs::CountingAlloc;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  topics-lab crawl   [--sites N] [--seed S] [--full] [--out DIR] [--allow-list corrupted|healthy|fail-closed] [--reject] [--vantage eu|us] [--quiet] [--metrics-out FILE] [--events-out FILE] [--fault-profile off|light|heavy|RATE] [--fault-seed S] [--probe-threads N] [--trace-out FILE] [--alloc-stats]\n  topics-lab shard   --shard K/N [--sites N] [--seed S] [--full] [--out DIR] [--allow-list corrupted|healthy|fail-closed] [--reject] [--vantage eu|us] [--quiet] [--fault-profile off|light|heavy|RATE] [--fault-seed S] [--probe-threads N]\n  topics-lab merge   --segments DIR [--out DIR]\n  topics-lab simulate [--users N] [--epochs N] [--sites N] [--visits N] [--context N] [--window N] [--sample N] [--noise RATE] [--seed S] [--threads N] [--out DIR] [--metrics-out FILE] [--events-out FILE] [--trace-out FILE] [--alloc-stats] [--quiet]\n  topics-lab report  --campaign DIR|FILE\n  topics-lab metrics --campaign FILE\n  topics-lab compare --campaign FILE [--full-scale]\n  topics-lab dossier --campaign FILE --cp DOMAIN\n  topics-lab doctor  --campaign DIR|FILE [--trace FILE] [--top N] | --trace FILE [--top N]\n  topics-lab memprofile --trace FILE | --campaign DIR [--top N]\n  topics-lab serve   --campaign DIR|FILE [--addr HOST:PORT] [--threads N] [--trace FILE] [--addr-file FILE] [--quiet]\n  topics-lab fetch   --addr HOST:PORT [--path /api/report] [--out FILE] [--post]"
    );
    ExitCode::from(2)
}

/// Tiny flag parser: `--name value` pairs plus bare `--flags`.
struct Args {
    rest: Vec<String>,
}

impl Args {
    fn new(rest: Vec<String>) -> Args {
        Args { rest }
    }

    /// The value following `--name`, if the flag is present. A following
    /// token that is itself a flag does not count — `--out --reject`
    /// is an error, not an output directory named `--reject`.
    fn value_of(&self, name: &str) -> Result<Option<&str>, String> {
        let Some(i) = self.rest.iter().position(|a| a == name) else {
            return Ok(None);
        };
        match self.rest.get(i + 1).map(String::as_str) {
            Some(v) if !v.starts_with("--") => Ok(Some(v)),
            _ => Err(format!("flag {name} requires a value")),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.rest.iter().any(|a| a == name)
    }

    /// Reject flags no subcommand knows about (and stray positional
    /// tokens), so `--fault-profil heavy` fails loudly instead of
    /// silently running fault-free. `value_flags` consume the following
    /// token when it is not itself a flag — the same pairing rule as
    /// [`Args::value_of`].
    fn reject_unknown(&self, value_flags: &[&str], bare_flags: &[&str]) -> Result<(), String> {
        let mut i = 0;
        while i < self.rest.len() {
            let tok = self.rest[i].as_str();
            if value_flags.contains(&tok) {
                if self.rest.get(i + 1).is_some_and(|v| !v.starts_with("--")) {
                    i += 2;
                    continue;
                }
                i += 1; // missing value: value_of reports the error
            } else if bare_flags.contains(&tok) {
                i += 1;
            } else if tok.starts_with("--") {
                return Err(format!("unknown flag {tok:?}"));
            } else {
                return Err(format!("unexpected argument {tok:?}"));
            }
        }
        Ok(())
    }
}

/// A failure with its exit code attached: missing campaign, trace or
/// segment inputs exit 3, a store or segment that exists but fails
/// validation exits 4, everything else 1 (usage errors exit 2 via
/// [`usage`]). Scripts can branch on the class without parsing stderr.
#[derive(Debug, PartialEq, Eq)]
enum CliError {
    /// A named input file does not exist (exit 3).
    Missing(String),
    /// A campaign store or segment exists but fails validation (exit 4).
    Corrupt(String),
    /// Any other failure (exit 1).
    Other(String),
}

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Missing(_) => 3,
            CliError::Corrupt(_) => 4,
            CliError::Other(_) => 1,
        }
    }

    fn message(&self) -> &str {
        match self {
            CliError::Missing(m) | CliError::Corrupt(m) | CliError::Other(m) => m,
        }
    }
}

impl From<String> for CliError {
    fn from(m: String) -> CliError {
        CliError::Other(m)
    }
}

impl From<&str> for CliError {
    fn from(m: &str) -> CliError {
        CliError::Other(m.to_owned())
    }
}

/// [`load_campaign`] with the error classified for exit codes: the
/// `io::ErrorKind` distinction the loader already makes (NotFound for
/// an absent file, InvalidData for a store that fails decode or
/// schema validation) becomes [`CliError::Missing`] vs
/// [`CliError::Corrupt`].
fn load_campaign_cli(
    path: &std::path::Path,
) -> Result<topics_core::crawler::record::CampaignOutcome, CliError> {
    load_campaign(path).map_err(|e| {
        let msg = format!("campaign {}: {e}", path.display());
        match e.kind() {
            std::io::ErrorKind::NotFound => CliError::Missing(msg),
            std::io::ErrorKind::InvalidData => CliError::Corrupt(msg),
            _ => CliError::Other(msg),
        }
    })
}

/// Strict `--probe-threads` parse: a positive integer, nothing else.
fn parse_probe_threads(s: &str) -> Result<usize, String> {
    match s.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("bad --probe-threads {s:?} (want an integer ≥ 1)")),
    }
}

/// Strict `--shard K/N` parse: K is 1-based, 1 ≤ K ≤ N. Returns the
/// 0-based shard index and the shard count.
fn parse_shard_spec(s: &str) -> Result<(usize, usize), String> {
    let err = || format!("bad --shard {s:?} (want K/N with 1 ≤ K ≤ N, e.g. 2/4)");
    let (k, n) = s.split_once('/').ok_or_else(err)?;
    let k: usize = k.parse().map_err(|_| err())?;
    let n: usize = n.parse().map_err(|_| err())?;
    if k >= 1 && k <= n {
        Ok((k - 1, n))
    } else {
        Err(err())
    }
}

/// The campaign flags `crawl` and `shard` share — seed, scale, allow
/// list, consent, vantage, faults, probe threads — parsed into a
/// [`LabConfig`]. Returns the config plus the resolved site count and
/// seed (for progress logging and the full-scale switch).
fn parse_lab_config(args: &Args) -> Result<(LabConfig, usize, u64), String> {
    let seed: u64 = args
        .value_of("--seed")?
        .map(|s| s.parse().map_err(|_| format!("bad --seed {s:?}")))
        .transpose()?
        .unwrap_or(2024);
    let sites: usize = if args.has("--full") {
        50_000
    } else {
        args.value_of("--sites")?
            .map(|s| s.parse().map_err(|_| format!("bad --sites {s:?}")))
            .transpose()?
            .unwrap_or(5_000)
    };
    let allow_list = match args.value_of("--allow-list")?.unwrap_or("corrupted") {
        "corrupted" => AllowListSetup::CorruptedFailOpen,
        "healthy" => AllowListSetup::Healthy,
        "fail-closed" => AllowListSetup::CorruptedFailClosed,
        other => return Err(format!("unknown --allow-list {other:?}")),
    };
    let vantage = match args.value_of("--vantage")?.unwrap_or("eu") {
        "eu" => topics_core::net::http::Vantage::Europe,
        "us" => topics_core::net::http::Vantage::UnitedStates,
        other => return Err(format!("unknown --vantage {other:?} (eu|us)")),
    };
    let fault_profile = args
        .value_of("--fault-profile")?
        .map(topics_core::net::fault::FaultProfile::parse)
        .transpose()?
        .unwrap_or_else(topics_core::net::fault::FaultProfile::off);
    let fault_seed: Option<u64> = args
        .value_of("--fault-seed")?
        .map(|s| s.parse().map_err(|_| format!("bad --fault-seed {s:?}")))
        .transpose()?;
    let probe_threads: Option<usize> = args
        .value_of("--probe-threads")?
        .map(parse_probe_threads)
        .transpose()?;

    let mut config = LabConfig::quick(seed, sites)
        .with_allow_list(allow_list)
        .with_fault_profile(fault_profile);
    if let Some(s) = fault_seed {
        config = config.with_fault_seed(s);
    }
    if let Some(n) = probe_threads {
        config = config.with_probe_threads(n);
    }
    config.campaign.vantage = vantage;
    config.campaign.consent_action = if args.has("--reject") {
        topics_core::crawler::ConsentAction::Reject
    } else {
        topics_core::crawler::ConsentAction::Accept
    };
    Ok((config, sites, seed))
}

/// Resolve an output path: relative paths land next to the bundle.
fn resolve_out(out_dir: &std::path::Path, value: &str) -> PathBuf {
    let p = PathBuf::from(value);
    if p.is_absolute() {
        p
    } else {
        out_dir.join(p)
    }
}

fn cmd_crawl(args: &Args) -> Result<(), String> {
    args.reject_unknown(
        &[
            "--sites",
            "--seed",
            "--out",
            "--allow-list",
            "--vantage",
            "--metrics-out",
            "--events-out",
            "--fault-profile",
            "--fault-seed",
            "--probe-threads",
            "--trace-out",
        ],
        &["--full", "--reject", "--quiet", "--alloc-stats"],
    )?;
    let (config, sites, seed) = parse_lab_config(args)?;
    let out = PathBuf::from(args.value_of("--out")?.unwrap_or("topics-lab-out"));
    let metrics_out = args
        .value_of("--metrics-out")?
        .map(|v| resolve_out(&out, v));
    let events_out = args.value_of("--events-out")?.map(|v| resolve_out(&out, v));
    let trace_out = args.value_of("--trace-out")?.map(|v| resolve_out(&out, v));
    let alloc_stats = args.has("--alloc-stats");
    if alloc_stats {
        topics_core::obs::alloc::set_enabled(true);
    }

    let mut obs = if args.has("--quiet") {
        Obs::new()
    } else {
        Obs::with_stderr_echo()
    };
    if trace_out.is_some() {
        obs = obs.with_trace();
    }

    obs.events.info(
        "world-gen",
        vec![("sites".into(), sites.into()), ("seed".into(), seed.into())],
    );
    if !config.campaign.fault.is_off() {
        obs.events.info(
            "fault-injection",
            vec![(
                "profile".into(),
                format!("{:?}", config.campaign.fault).into(),
            )],
        );
    }
    let lab = {
        let _span = obs.phase("world-gen");
        Lab::new(config)
    };

    obs.events.info("crawl-start", vec![]);
    let run = lab.run_observed(&obs);
    obs.events.info(
        "crawl-done",
        vec![
            ("visited".into(), run.visited_count().into()),
            ("accepted".into(), run.accepted_count().into()),
        ],
    );

    let eval = {
        let _span = obs.phase("analysis");
        evaluate(&run.outcome)
    };
    {
        let _span = obs.phase("export");
        write_bundle(
            &out,
            &run.outcome,
            &eval,
            sites >= 50_000,
            StoreKind::Columnar,
        )
        .map_err(|e| format!("writing bundle to {}: {e}", out.display()))?;
    }

    if let Some(path) = &metrics_out {
        // Snapshot at write time so every phase gauge is included.
        if alloc_stats {
            topics_core::obs::alloc::publish(&obs.metrics);
        }
        let prom = obs.metrics.snapshot().render_prometheus();
        std::fs::write(path, prom)
            .map_err(|e| format!("writing metrics to {}: {e}", path.display()))?;
    }
    if let Some(path) = &events_out {
        std::fs::write(path, obs.events.to_jsonl())
            .map_err(|e| format!("writing events to {}: {e}", path.display()))?;
    }
    if let Some(path) = &trace_out {
        let trace = obs.trace.finish();
        let body = if path.extension().is_some_and(|e| e == "json") {
            trace.to_chrome_json()
        } else {
            trace.to_jsonl()
        };
        std::fs::write(path, body)
            .map_err(|e| format!("writing trace to {}: {e}", path.display()))?;
    }

    println!("{}", eval.render_report());
    println!("artefact bundle written to {}", out.display());
    if let Some(p) = &metrics_out {
        println!("metrics snapshot written to {}", p.display());
    }
    if let Some(p) = &events_out {
        println!("event stream written to {}", p.display());
    }
    if let Some(p) = &trace_out {
        println!("trace written to {}", p.display());
    }
    Ok(())
}

fn cmd_shard(args: &Args) -> Result<(), String> {
    args.reject_unknown(
        &[
            "--shard",
            "--sites",
            "--seed",
            "--out",
            "--allow-list",
            "--vantage",
            "--fault-profile",
            "--fault-seed",
            "--probe-threads",
        ],
        &["--full", "--reject", "--quiet"],
    )?;
    let (shard, shards) = parse_shard_spec(
        args.value_of("--shard")?
            .ok_or("shard needs --shard K/N (e.g. 2/4)")?,
    )?;
    let (config, _, seed) = parse_lab_config(args)?;
    let out = PathBuf::from(args.value_of("--out")?.unwrap_or("topics-lab-shards"));

    // The segment carries the stripped span trace, so the shard run is
    // always traced. No other phases may open on this handle — the
    // merge expects exactly the campaign's phase sequence.
    let obs = if args.has("--quiet") {
        Obs::new()
    } else {
        Obs::with_stderr_echo()
    }
    .with_trace();
    obs.events.info(
        "shard-start",
        vec![
            ("shard".into(), (shard + 1).into()),
            ("shards".into(), shards.into()),
            ("seed".into(), seed.into()),
        ],
    );
    let segment = topics_core::run_shard(&config, shard, shards, &obs);
    let sites = segment.sites.len();
    let probes = segment.probes.len();
    let path = topics_core::write_segment(&out, &segment)
        .map_err(|e| format!("writing segment to {}: {e}", out.display()))?;
    println!(
        "shard {}/{} segment written to {} ({} sites, {} probes)",
        shard + 1,
        shards,
        path.display(),
        sites,
        probes,
    );
    Ok(())
}

fn cmd_merge(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&["--segments", "--out"], &[])?;
    let segments = PathBuf::from(
        args.value_of("--segments")?
            .ok_or("merge needs --segments DIR")?,
    );
    let out = args
        .value_of("--out")?
        .map(PathBuf::from)
        .unwrap_or_else(|| segments.clone());

    // An absent directory, or one without segments, is a missing input
    // (exit 3); a segment that fails to read, decode or merge is a
    // corrupt one (exit 4).
    let count = topics_core::segment_paths(&segments)
        .map_err(CliError::Missing)?
        .len();
    if count == 0 {
        return Err(CliError::Missing(format!(
            "no segment files (*.seg) in {}",
            segments.display()
        )));
    }
    // Stream each segment straight into the columnar writer and persist
    // the streamed bytes — byte-identical to a single-process `crawl`.
    let merged = topics_core::merge_dir_columnar(&segments).map_err(CliError::Corrupt)?;
    std::fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let col_path = out.join(CAMPAIGN_COLUMNAR_FILE);
    std::fs::write(&col_path, merged.store.bytes())
        .map_err(|e| format!("writing store to {}: {e}", col_path.display()))?;
    let eval = evaluate(&merged.outcome);
    let full_scale = merged.outcome.sites.len() >= 50_000;
    write_artefacts(&out, &merged.outcome, &eval, full_scale)
        .map_err(|e| format!("writing bundle to {}: {e}", out.display()))?;
    let trace_path = out.join("trace.jsonl");
    std::fs::write(&trace_path, merged.trace.to_jsonl())
        .map_err(|e| format!("writing trace to {}: {e}", trace_path.display()))?;

    println!("{}", eval.render_report());
    println!(
        "merged {count} segment(s) from {} into {}",
        segments.display(),
        out.display(),
    );
    Ok(())
}

fn cmd_report(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&["--campaign"], &[])?;
    let path = args
        .value_of("--campaign")?
        .ok_or("report needs --campaign DIR|FILE")?;
    let campaign = resolve_campaign(path);
    let outcome = load_campaign_cli(&campaign)?;
    let eval = evaluate(&outcome);
    println!("{}", eval.render_report());
    Ok(())
}

fn cmd_metrics(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&["--campaign"], &[])?;
    let path = args
        .value_of("--campaign")?
        .ok_or("metrics needs --campaign FILE")?;
    let outcome = load_campaign_cli(&PathBuf::from(path))?;
    print!("{}", metrics_snapshot_of(&outcome).render_prometheus());
    Ok(())
}

fn cmd_compare(args: &Args) -> Result<(), String> {
    args.reject_unknown(&["--campaign"], &["--full-scale"])?;
    let path = args
        .value_of("--campaign")?
        .ok_or("compare needs --campaign FILE")?;
    let outcome = load_campaign(&PathBuf::from(path)).map_err(|e| e.to_string())?;
    let eval = evaluate(&outcome);
    let full = args.has("--full-scale") || outcome.sites.len() >= 50_000;
    println!("{}", render_comparison(&comparison_rows(&eval, full)));
    Ok(())
}

fn cmd_dossier(args: &Args) -> Result<(), String> {
    args.reject_unknown(&["--campaign", "--cp"], &[])?;
    let path = args
        .value_of("--campaign")?
        .ok_or("dossier needs --campaign FILE")?;
    let cp = args.value_of("--cp")?.ok_or("dossier needs --cp DOMAIN")?;
    let cp = topics_core::net::Domain::parse(cp).map_err(|e| format!("bad --cp: {e}"))?;
    let outcome = load_campaign(&PathBuf::from(path)).map_err(|e| e.to_string())?;
    let ds = topics_core::analysis::dataset::Datasets::new(&outcome);
    println!(
        "{}",
        topics_core::analysis::dossier::dossier(&ds, &cp).render()
    );
    Ok(())
}

/// Strict `--top` parse: a positive integer, nothing else.
fn parse_top(s: &str) -> Result<usize, String> {
    match s.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("bad --top {s:?} (want an integer ≥ 1)")),
    }
}

/// Resolve `--campaign`: a bundle directory means its `campaign.col`.
fn resolve_campaign(path: &str) -> PathBuf {
    let p = PathBuf::from(path);
    if p.is_dir() {
        p.join(CAMPAIGN_COLUMNAR_FILE)
    } else {
        p
    }
}

/// Read and parse a span trace, classifying a missing file as exit 3.
fn load_trace_cli(trace_path: &std::path::Path) -> Result<topics_core::obs::Trace, CliError> {
    let text = std::fs::read_to_string(trace_path).map_err(|e| {
        let msg = format!("reading trace {}: {e}", trace_path.display());
        match e.kind() {
            std::io::ErrorKind::NotFound => CliError::Missing(msg),
            _ => CliError::Other(msg),
        }
    })?;
    topics_core::obs::Trace::from_jsonl(&text)
        .map_err(|e| CliError::Other(format!("parsing trace {}: {e}", trace_path.display())))
}

fn cmd_doctor(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&["--campaign", "--trace", "--top"], &[])?;
    let top = args
        .value_of("--top")?
        .map(parse_top)
        .transpose()?
        .unwrap_or(10);
    let Some(campaign) = args.value_of("--campaign")? else {
        // Trace-only mode: no campaign to reconcile against — e.g. a
        // `simulate` trace, which has no campaign dataset at all.
        let trace_path = PathBuf::from(
            args.value_of("--trace")?
                .ok_or("doctor needs --campaign DIR|FILE (or --trace FILE for trace-only mode)")?,
        );
        let trace = load_trace_cli(&trace_path)?;
        let report = topics_core::diagnose_trace(&trace, top);
        print!("{}", report.render());
        return if report.is_healthy() {
            Ok(())
        } else {
            Err(format!("doctor found {} violation(s)", report.violations().len()).into())
        };
    };
    let campaign = resolve_campaign(campaign);
    let trace_path = match args.value_of("--trace")? {
        Some(p) => PathBuf::from(p),
        None => campaign.with_file_name("trace.jsonl"),
    };

    let outcome = load_campaign_cli(&campaign)?;
    let trace = load_trace_cli(&trace_path)?;

    // Shard segments and the columnar store next to the campaign are
    // verified automatically: segment checksums, coverage, and
    // byte-identity of their merge with campaign.col; campaign.col
    // section checksums and intern referential integrity.
    let mut report = diagnose(&outcome, &trace, top);
    if let Some(dir) = campaign.parent().filter(|d| d.is_dir()) {
        let (checked, violations) = topics_core::doctor::verify_segments(dir);
        if checked > 0 {
            report = report.with_segment_checks(checked, violations);
        }
        if let Some(check) = topics_core::doctor::verify_columnar(dir) {
            report = report.with_columnar_check(check);
        }
    }
    print!("{}", report.render());
    if report.is_healthy() {
        Ok(())
    } else {
        Err(format!("doctor found {} violation(s)", report.violations().len()).into())
    }
}

fn cmd_memprofile(args: &Args) -> Result<(), String> {
    args.reject_unknown(&["--trace", "--campaign", "--top"], &[])?;
    let trace_path = match (args.value_of("--trace")?, args.value_of("--campaign")?) {
        (Some(t), _) => PathBuf::from(t),
        (None, Some(c)) => resolve_campaign(c).with_file_name("trace.jsonl"),
        (None, None) => return Err("memprofile needs --trace FILE or --campaign DIR".into()),
    };
    let top = args
        .value_of("--top")?
        .map(parse_top)
        .transpose()?
        .unwrap_or(10);

    let text = std::fs::read_to_string(&trace_path)
        .map_err(|e| format!("reading trace {}: {e}", trace_path.display()))?;
    let trace = topics_core::obs::Trace::from_jsonl(&text)
        .map_err(|e| format!("parsing trace {}: {e}", trace_path.display()))?;

    let profile = topics_core::obs::mem_profile(&trace, top);
    if profile.is_empty() {
        return Err(format!(
            "trace {} carries no allocation attribution (record it with crawl --alloc-stats --trace-out)",
            trace_path.display()
        ));
    }
    print!("{}", profile.render());
    Ok(())
}

/// Strict `--threads` parse: a positive integer, nothing else.
fn parse_threads(s: &str) -> Result<usize, String> {
    match s.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("bad --threads {s:?} (want an integer ≥ 1)")),
    }
}

/// Strict parse for the simulate shape flags: a positive integer.
fn parse_sim_count(flag: &str, s: &str) -> Result<usize, String> {
    match s.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("bad {flag} {s:?} (want an integer ≥ 1)")),
    }
}

fn cmd_simulate(args: &Args) -> Result<(), String> {
    args.reject_unknown(
        &[
            "--users",
            "--epochs",
            "--sites",
            "--visits",
            "--context",
            "--window",
            "--sample",
            "--noise",
            "--seed",
            "--threads",
            "--out",
            "--metrics-out",
            "--events-out",
            "--trace-out",
        ],
        &["--alloc-stats", "--quiet"],
    )?;
    let seed: u64 = args
        .value_of("--seed")?
        .map(|s| s.parse().map_err(|_| format!("bad --seed {s:?}")))
        .transpose()?
        .unwrap_or(42);
    let users = args
        .value_of("--users")?
        .map(|s| parse_sim_count("--users", s))
        .transpose()?
        .unwrap_or(100_000);
    let epochs = args
        .value_of("--epochs")?
        .map(|s| parse_sim_count("--epochs", s))
        .transpose()?
        .unwrap_or(30) as u64;
    let mut cfg = topics_core::baseline::SimConfig::new(seed, users, epochs);
    if let Some(s) = args.value_of("--sites")? {
        cfg.sites = parse_sim_count("--sites", s)?;
    }
    if let Some(s) = args.value_of("--visits")? {
        cfg.visits_per_epoch = parse_sim_count("--visits", s)?;
    }
    if let Some(s) = args.value_of("--context")? {
        cfg.context_sites = parse_sim_count("--context", s)?;
    }
    if let Some(s) = args.value_of("--window")? {
        cfg.window = parse_sim_count("--window", s)? as u64;
    }
    if let Some(s) = args.value_of("--sample")? {
        cfg.sample = parse_sim_count("--sample", s)?;
    }
    if let Some(s) = args.value_of("--noise")? {
        cfg.noise = s
            .parse::<f64>()
            .ok()
            .filter(|n| (0.0..=1.0).contains(n))
            .ok_or_else(|| format!("bad --noise {s:?} (want a rate in [0, 1])"))?;
    }
    cfg.validate()?;
    let threads = args
        .value_of("--threads")?
        .map(parse_threads)
        .transpose()?
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });

    let out = PathBuf::from(args.value_of("--out")?.unwrap_or("topics-sim-out"));
    let metrics_out = args
        .value_of("--metrics-out")?
        .map(|v| resolve_out(&out, v));
    let events_out = args.value_of("--events-out")?.map(|v| resolve_out(&out, v));
    let trace_out = args.value_of("--trace-out")?.map(|v| resolve_out(&out, v));
    let alloc_stats = args.has("--alloc-stats");
    if alloc_stats {
        topics_core::obs::alloc::set_enabled(true);
    }

    let mut obs = if args.has("--quiet") {
        Obs::new()
    } else {
        Obs::with_stderr_echo()
    };
    if trace_out.is_some() {
        obs = obs.with_trace();
    }

    obs.events.info(
        "sim-start",
        vec![
            ("users".into(), cfg.users.into()),
            ("epochs".into(), cfg.epochs.into()),
            ("seed".into(), cfg.seed.into()),
            ("threads".into(), threads.into()),
        ],
    );
    let run = topics_core::run_simulation(&cfg, threads, &obs)?;
    obs.events.info(
        "sim-done",
        vec![
            ("visits".into(), run.visits_total.into()),
            ("api_calls".into(), run.stats.api_calls.into()),
        ],
    );
    topics_core::publish_sim_metrics(&run, &obs.metrics);
    topics_core::write_sim_artefacts(&out, &run)?;

    if let Some(path) = &metrics_out {
        if alloc_stats {
            topics_core::obs::alloc::publish(&obs.metrics);
        }
        let prom = obs.metrics.snapshot().render_prometheus();
        std::fs::write(path, prom)
            .map_err(|e| format!("writing metrics to {}: {e}", path.display()))?;
    }
    if let Some(path) = &events_out {
        std::fs::write(path, obs.events.to_jsonl())
            .map_err(|e| format!("writing events to {}: {e}", path.display()))?;
    }
    if let Some(path) = &trace_out {
        let trace = obs.trace.finish();
        let body = if path.extension().is_some_and(|e| e == "json") {
            trace.to_chrome_json()
        } else {
            trace.to_jsonl()
        };
        std::fs::write(path, body)
            .map_err(|e| format!("writing trace to {}: {e}", path.display()))?;
    }

    print!(
        "{}",
        topics_core::baseline::simulate::render_sim_report(&run)
    );
    println!("simulation artefacts written to {}", out.display());
    if let Some(p) = &metrics_out {
        println!("metrics snapshot written to {}", p.display());
    }
    if let Some(p) = &events_out {
        println!("event stream written to {}", p.display());
    }
    if let Some(p) = &trace_out {
        println!("trace written to {}", p.display());
    }
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(
        &[
            "--campaign",
            "--addr",
            "--threads",
            "--trace",
            "--addr-file",
        ],
        &["--quiet"],
    )?;
    let path = args
        .value_of("--campaign")?
        .ok_or("serve needs --campaign DIR|FILE")?;
    let mut config = topics_core::ServeConfig::new(resolve_campaign(path));
    if let Some(addr) = args.value_of("--addr")? {
        config.addr = addr.to_owned();
    }
    if let Some(threads) = args.value_of("--threads")? {
        config.threads = parse_threads(threads)?;
    }
    if let Some(trace) = args.value_of("--trace")? {
        config.trace = Some(PathBuf::from(trace));
    }

    let obs = std::sync::Arc::new(if args.has("--quiet") {
        Obs::new()
    } else {
        Obs::with_stderr_echo()
    });
    let server = topics_core::Server::bind(&config, obs).map_err(|e| {
        let msg = e.to_string();
        match e {
            topics_core::ServeError::Missing(_) => CliError::Missing(msg),
            topics_core::ServeError::Corrupt(..) => CliError::Corrupt(msg),
            _ => CliError::Other(msg),
        }
    })?;
    let addr = server.local_addr();
    if let Some(addr_file) = args.value_of("--addr-file")? {
        std::fs::write(addr_file, format!("{addr}\n"))
            .map_err(|e| format!("writing {addr_file}: {e}"))?;
    }
    eprintln!(
        "serving {} on http://{addr} ({} API endpoints; POST /shutdown to drain)",
        config.campaign.display(),
        server.service().api_paths().len(),
    );
    let served = server.run();
    eprintln!("drained after {served} request(s)");
    Ok(())
}

fn cmd_fetch(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&["--addr", "--path", "--out"], &["--post"])?;
    let addr = args
        .value_of("--addr")?
        .ok_or("fetch needs --addr HOST:PORT")?;
    let path = args.value_of("--path")?.unwrap_or("/api/report");
    let method = if args.has("--post") { "POST" } else { "GET" };
    let resp = topics_core::http_fetch(addr, method, path)
        .map_err(|e| format!("fetch {method} http://{addr}{path}: {e}"))?;
    match args.value_of("--out")? {
        Some(out) => std::fs::write(out, &resp.body).map_err(|e| format!("writing {out}: {e}"))?,
        None => {
            use std::io::Write;
            std::io::stdout()
                .write_all(&resp.body)
                .map_err(|e| format!("writing stdout: {e}"))?;
        }
    }
    if (200..300).contains(&resp.status) {
        Ok(())
    } else {
        Err(format!("HTTP {} for {path}", resp.status).into())
    }
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let Some(cmd) = argv.next() else {
        return usage();
    };
    let args = Args::new(argv.collect());
    let result = match cmd.as_str() {
        "crawl" => cmd_crawl(&args).map_err(CliError::from),
        "shard" => cmd_shard(&args).map_err(CliError::from),
        "merge" => cmd_merge(&args),
        "report" => cmd_report(&args),
        "metrics" => cmd_metrics(&args),
        "compare" => cmd_compare(&args).map_err(CliError::from),
        "dossier" => cmd_dossier(&args).map_err(CliError::from),
        "simulate" => cmd_simulate(&args).map_err(CliError::from),
        "doctor" => cmd_doctor(&args),
        "memprofile" => cmd_memprofile(&args).map_err(CliError::from),
        "serve" => cmd_serve(&args),
        "fetch" => cmd_fetch(&args),
        "--help" | "-h" | "help" => return usage(),
        other => Err(format!("unknown subcommand {other:?}").into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message());
            ExitCode::from(e.exit_code())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(tokens: &[&str]) -> Args {
        Args::new(tokens.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn value_of_returns_the_following_token() {
        let a = args(&["--sites", "250", "--quiet"]);
        assert_eq!(a.value_of("--sites").unwrap(), Some("250"));
        assert_eq!(a.value_of("--seed").unwrap(), None);
        assert!(a.has("--quiet"));
    }

    #[test]
    fn a_flag_never_consumes_another_flag_as_its_value() {
        // Regression: `--out --reject` must be "missing value", not an
        // output directory literally named "--reject".
        let a = args(&["--out", "--reject"]);
        let err = a.value_of("--out").unwrap_err();
        assert!(err.contains("requires a value"), "{err}");
        assert!(a.has("--reject"), "the flag is still visible as itself");
    }

    #[test]
    fn trailing_flag_with_missing_value_is_an_error() {
        let a = args(&["--fault-profile"]);
        assert!(a
            .value_of("--fault-profile")
            .unwrap_err()
            .contains("requires a value"));
    }

    #[test]
    fn fault_flags_parse_named_bands_and_rates() {
        use topics_core::net::fault::FaultProfile;
        let a = args(&["--fault-profile", "light", "--fault-seed", "7"]);
        let profile = a
            .value_of("--fault-profile")
            .unwrap()
            .map(FaultProfile::parse)
            .transpose()
            .unwrap()
            .unwrap();
        assert_eq!(profile, FaultProfile::light());
        assert_eq!(a.value_of("--fault-seed").unwrap(), Some("7"));
        let rate = FaultProfile::parse("0.25").unwrap();
        assert!(!rate.is_off());
        assert!(FaultProfile::parse("1.5").is_err());
        assert!(FaultProfile::parse("surprise").is_err());
    }

    #[test]
    fn probe_threads_flag_parses_strictly() {
        let a = args(&["--probe-threads", "8"]);
        let n = a
            .value_of("--probe-threads")
            .unwrap()
            .map(parse_probe_threads)
            .transpose()
            .unwrap();
        assert_eq!(n, Some(8));
        // Absent flag means "inherit the crawl thread count".
        assert_eq!(args(&[]).value_of("--probe-threads").unwrap(), None);
        // Zero, negatives, fractions and words are all hard errors.
        for bad in ["0", "-3", "2.5", "many", ""] {
            let err = parse_probe_threads(bad).unwrap_err();
            assert!(err.contains("--probe-threads"), "{err}");
        }
        // A following flag is a missing value, not a thread count.
        let b = args(&["--probe-threads", "--quiet"]);
        assert!(b
            .value_of("--probe-threads")
            .unwrap_err()
            .contains("requires a value"));
    }

    #[test]
    fn trace_out_flag_is_accepted_and_strict() {
        // The crawl flag set accepts --trace-out as a value flag.
        let a = args(&["--trace-out", "trace.jsonl", "--quiet"]);
        assert!(a.reject_unknown(&["--trace-out"], &["--quiet"]).is_ok());
        assert_eq!(a.value_of("--trace-out").unwrap(), Some("trace.jsonl"));
        // A following flag is a missing value, not a file name.
        let b = args(&["--trace-out", "--quiet"]);
        assert!(b
            .value_of("--trace-out")
            .unwrap_err()
            .contains("requires a value"));
        // A typo stays a hard error — no silent untraced run.
        let c = args(&["--trace-ou", "trace.jsonl"]);
        assert!(c
            .reject_unknown(&["--trace-out"], &[])
            .unwrap_err()
            .contains("--trace-ou"));
        // Relative paths land in the bundle directory, absolute ones win.
        let out = std::path::Path::new("bundle");
        assert_eq!(resolve_out(out, "trace.jsonl"), out.join("trace.jsonl"));
        assert_eq!(
            resolve_out(out, "/tmp/t.json"),
            PathBuf::from("/tmp/t.json")
        );
    }

    #[test]
    fn serve_flags_parse_strictly() {
        let a = args(&[
            "--campaign",
            "out",
            "--addr",
            "127.0.0.1:8080",
            "--threads",
            "2",
            "--addr-file",
            "addr.txt",
            "--quiet",
        ]);
        assert!(a
            .reject_unknown(
                &[
                    "--campaign",
                    "--addr",
                    "--threads",
                    "--trace",
                    "--addr-file",
                ],
                &["--quiet"],
            )
            .is_ok());
        assert_eq!(a.value_of("--addr").unwrap(), Some("127.0.0.1:8080"));
        assert_eq!(
            a.value_of("--threads").unwrap().map(parse_threads),
            Some(Ok(2))
        );
        // --threads rejects zero, words and fractions.
        for bad in ["0", "-1", "1.5", "lots", ""] {
            assert!(
                parse_threads(bad).unwrap_err().contains("--threads"),
                "{bad:?}"
            );
        }
        // A typo stays a hard error — no silently ignored flag.
        let b = args(&["--campaign", "out", "--adr", "x"]);
        assert!(b
            .reject_unknown(&["--campaign", "--addr"], &[])
            .unwrap_err()
            .contains("--adr"));
    }

    #[test]
    fn fetch_flags_parse_strictly() {
        let a = args(&["--addr", "127.0.0.1:9", "--path", "/metrics", "--post"]);
        assert!(a
            .reject_unknown(&["--addr", "--path", "--out"], &["--post"])
            .is_ok());
        assert_eq!(a.value_of("--path").unwrap(), Some("/metrics"));
        assert!(a.has("--post"));
        // Default path when the flag is absent.
        assert_eq!(args(&[]).value_of("--path").unwrap(), None);
    }

    #[test]
    fn cli_errors_carry_their_exit_codes() {
        assert_eq!(CliError::Missing("x".into()).exit_code(), 3);
        assert_eq!(CliError::Corrupt("x".into()).exit_code(), 4);
        assert_eq!(CliError::Other("x".into()).exit_code(), 1);
        // Plain strings classify as Other — the pre-existing exit 1.
        let e: CliError = "boom".into();
        assert_eq!(e, CliError::Other("boom".into()));
        assert_eq!(e.message(), "boom");
    }

    #[test]
    fn load_campaign_cli_classifies_missing_and_corrupt() {
        let missing = load_campaign_cli(std::path::Path::new("/nonexistent/campaign.json"));
        assert!(
            matches!(missing, Err(CliError::Missing(_))),
            "missing file classifies as Missing"
        );
        let dir = std::env::temp_dir().join(format!("topics-cli-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.json");
        std::fs::write(&path, "not a campaign").unwrap();
        let corrupt = load_campaign_cli(&path);
        match corrupt {
            Err(CliError::Corrupt(msg)) => {
                assert!(msg.contains("campaign.json"), "{msg}");
            }
            other => panic!("corrupt store must classify as Corrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn doctor_flags_parse_strictly() {
        let a = args(&["--campaign", "out", "--trace", "t.jsonl", "--top", "5"]);
        assert!(a
            .reject_unknown(&["--campaign", "--trace", "--top"], &[])
            .is_ok());
        assert_eq!(a.value_of("--campaign").unwrap(), Some("out"));
        assert_eq!(a.value_of("--trace").unwrap(), Some("t.jsonl"));
        assert_eq!(
            a.value_of("--top").unwrap().map(parse_top).transpose(),
            Ok(Some(5))
        );
        // --top rejects zero, words and fractions.
        for bad in ["0", "-1", "2.5", "lots", ""] {
            assert!(parse_top(bad).unwrap_err().contains("--top"), "{bad:?}");
        }
        // Unknown doctor flags are rejected, same as every subcommand.
        let b = args(&["--campaign", "out", "--trase", "t.jsonl"]);
        assert!(b
            .reject_unknown(&["--campaign", "--trace", "--top"], &[])
            .unwrap_err()
            .contains("--trase"));
        // A campaign file path passes through; only directories gain
        // the campaign.col suffix (exercised with a real temp dir).
        assert_eq!(
            resolve_campaign("bundle/campaign.col"),
            PathBuf::from("bundle/campaign.col")
        );
        let dir = std::env::temp_dir();
        assert_eq!(
            resolve_campaign(dir.to_str().unwrap()),
            dir.join("campaign.col")
        );
    }

    #[test]
    fn alloc_stats_is_a_bare_crawl_flag() {
        let a = args(&["--alloc-stats", "--trace-out", "t.jsonl"]);
        assert!(a
            .reject_unknown(&["--trace-out"], &["--alloc-stats"])
            .is_ok());
        assert!(a.has("--alloc-stats"));
        // A typo stays a hard error — no silent uncounted run.
        let b = args(&["--alloc-stat"]);
        assert!(b
            .reject_unknown(&[], &["--alloc-stats"])
            .unwrap_err()
            .contains("--alloc-stat"));
    }

    #[test]
    fn memprofile_flags_parse_strictly() {
        let a = args(&["--trace", "t.jsonl", "--top", "7"]);
        assert!(a
            .reject_unknown(&["--trace", "--campaign", "--top"], &[])
            .is_ok());
        assert_eq!(a.value_of("--trace").unwrap(), Some("t.jsonl"));
        assert_eq!(
            a.value_of("--top").unwrap().map(parse_top).transpose(),
            Ok(Some(7))
        );
        // --campaign DIR resolves to trace.jsonl next to campaign.col.
        let dir = std::env::temp_dir();
        assert_eq!(
            resolve_campaign(dir.to_str().unwrap()).with_file_name("trace.jsonl"),
            dir.join("trace.jsonl")
        );
        // Unknown flags stay hard errors.
        let b = args(&["--trase", "t.jsonl"]);
        assert!(b
            .reject_unknown(&["--trace", "--campaign", "--top"], &[])
            .unwrap_err()
            .contains("--trase"));
    }

    #[test]
    fn store_flag_is_rejected_by_every_subcommand() {
        // There is one campaign store, so no subcommand takes --store:
        // each rejects it before doing any work.
        let with_store = args(&["--store", "columnar"]);
        let errors = [
            cmd_crawl(&with_store).unwrap_err(),
            cmd_shard(&with_store).unwrap_err(),
            cmd_merge(&with_store).unwrap_err().message().to_owned(),
            cmd_report(&with_store).unwrap_err().message().to_owned(),
            cmd_serve(&with_store).unwrap_err().message().to_owned(),
        ];
        for err in errors {
            assert!(err.contains("unknown flag \"--store\""), "{err}");
        }
    }

    #[test]
    fn campaign_resolution_prefers_an_existing_store() {
        // A file path passes through untouched, whatever its name.
        assert_eq!(
            resolve_campaign("bundle/old.col"),
            PathBuf::from("bundle/old.col")
        );
        // A directory resolves to its campaign.col — never to a
        // campaign.json an older bundle left beside it.
        let dir = std::env::temp_dir().join(format!("topics-lab-resolve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("campaign.json"), b"{}").unwrap();
        assert_eq!(
            resolve_campaign(dir.to_str().unwrap()),
            dir.join("campaign.col")
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_spec_parses_strictly() {
        assert_eq!(parse_shard_spec("1/1"), Ok((0, 1)));
        assert_eq!(parse_shard_spec("2/4"), Ok((1, 4)));
        assert_eq!(parse_shard_spec("16/16"), Ok((15, 16)));
        // Zero-based, out-of-range, zero shards, and malformed specs
        // are all hard errors — never a silently empty stripe.
        for bad in [
            "0/4", "5/4", "1/0", "0/0", "1", "1/", "/4", "a/b", "1/4/2", "-1/4", "",
        ] {
            let err = parse_shard_spec(bad).unwrap_err();
            assert!(err.contains("--shard"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn shard_flags_parse_strictly() {
        // The shard flag set accepts the shared campaign flags.
        let a = args(&["--shard", "2/4", "--sites", "500", "--quiet"]);
        assert!(a
            .reject_unknown(&["--shard", "--sites"], &["--quiet"])
            .is_ok());
        assert_eq!(a.value_of("--shard").unwrap(), Some("2/4"));
        // A typo stays a hard error — no silent unsharded run.
        let b = args(&["--shar", "2/4"]);
        assert!(b
            .reject_unknown(&["--shard"], &[])
            .unwrap_err()
            .contains("--shar"));
        // A following flag is a missing value, not a shard spec.
        let c = args(&["--shard", "--quiet"]);
        assert!(c
            .value_of("--shard")
            .unwrap_err()
            .contains("requires a value"));
        // Crawl-only flags are rejected by the shard flag set.
        let d = args(&["--shard", "1/2", "--trace-out", "t.jsonl"]);
        assert!(d
            .reject_unknown(&["--shard"], &[])
            .unwrap_err()
            .contains("--trace-out"));
    }

    #[test]
    fn merge_flags_parse_strictly() {
        let a = args(&["--segments", "shards", "--out", "bundle"]);
        assert!(a.reject_unknown(&["--segments", "--out"], &[]).is_ok());
        assert_eq!(a.value_of("--segments").unwrap(), Some("shards"));
        assert_eq!(a.value_of("--out").unwrap(), Some("bundle"));
        // A typo stays a hard error — no merge of the wrong directory.
        let b = args(&["--segment", "shards"]);
        assert!(b
            .reject_unknown(&["--segments", "--out"], &[])
            .unwrap_err()
            .contains("--segment"));
        // A following flag is a missing value, not a directory.
        let c = args(&["--segments", "--out"]);
        assert!(c
            .value_of("--segments")
            .unwrap_err()
            .contains("requires a value"));
        // Stray positionals are rejected, same as every subcommand.
        let d = args(&["shards"]);
        assert!(d
            .reject_unknown(&["--segments", "--out"], &[])
            .unwrap_err()
            .contains("unexpected argument"));
    }

    #[test]
    fn simulate_flags_parse_strictly() {
        let a = args(&["--users", "5000", "--epochs", "12", "--noise", "0.1"]);
        assert_eq!(
            a.value_of("--users")
                .unwrap()
                .map(|s| parse_sim_count("--users", s))
                .transpose()
                .unwrap(),
            Some(5000)
        );
        assert_eq!(a.value_of("--epochs").unwrap(), Some("12"));
        // Shape flags reject zero and garbage — a zero-user simulation
        // must fail at the flag, not deep inside the engine.
        assert!(parse_sim_count("--users", "0")
            .unwrap_err()
            .contains("--users"));
        assert!(parse_sim_count("--sample", "lots").is_err());
        // A typo'd flag is a hard error, same as every subcommand.
        let b = args(&["--user", "5000"]);
        assert!(b
            .reject_unknown(&["--users", "--epochs"], &[])
            .unwrap_err()
            .contains("--user"));
    }

    #[test]
    fn unknown_flags_are_rejected_not_ignored() {
        // A typo'd fault flag must not silently run a fault-free crawl.
        let a = args(&["--fault-profil", "heavy"]);
        let err = a.reject_unknown(&["--fault-profile"], &[]).unwrap_err();
        assert!(err.contains("--fault-profil"), "{err}");

        let ok = args(&["--fault-profile", "heavy", "--quiet"]);
        assert!(ok
            .reject_unknown(&["--fault-profile"], &["--quiet"])
            .is_ok());
    }

    #[test]
    fn stray_positionals_and_flag_valued_flags_are_rejected() {
        let a = args(&["extra"]);
        assert!(a
            .reject_unknown(&["--campaign"], &[])
            .unwrap_err()
            .contains("unexpected argument"));
        // `--campaign --full-scale` leaves --full-scale as a bare flag
        // (known), and value_of then reports the missing value.
        let b = args(&["--campaign", "--full-scale"]);
        assert!(b.reject_unknown(&["--campaign"], &["--full-scale"]).is_ok());
        assert!(b
            .value_of("--campaign")
            .unwrap_err()
            .contains("requires a value"));
    }
}
