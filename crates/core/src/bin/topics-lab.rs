//! `topics-lab` — the command-line front end of the reproduction.
//!
//! `topics-lab --help` prints every subcommand, what it does, and its
//! flags with their defaults. That text and the flag parsing both come
//! from one table, [`COMMANDS`]: a flag a command does not list there is
//! an error (exit 1), never silently ignored. README documents each
//! command at length.
//!
//! Every artefact is byte-identical for any `--threads`: the crawl, the
//! attestation probe and the population engine share one worker pool
//! that returns results in job order. `--full` is the paper's 50,000
//! sites and excludes `--sites`. `--campaign` takes a bundle directory
//! or its `campaign.col`; a trace defaults to `trace.col` beside it.
//! `--metrics-out` and `--trace-out` paths are relative to `--out`. The
//! `--trace-out` extension picks the format: `.col` is the trace file
//! `doctor`, `memprofile` and `serve` read; `.jsonl` (one span per
//! line) and `.json` (Chrome trace-event format, for Perfetto) are
//! exports that nothing reads back.
//! `--alloc-stats` turns on the counting allocator; the outputs stay
//! byte-identical.
//!
//! Failures exit with a typed code scripts can branch on: 2 for usage
//! errors, 3 when a named campaign, trace or segment input does not
//! exist, 4 when one exists but fails validation, 1 otherwise.
//! Progress lines go to stderr, and nowhere else; `--quiet` or
//! `TOPICS_LOG=off` silences them.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use topics_core::crawler::campaign::AllowListSetup;
use topics_core::crawler::record::CampaignOutcome;
use topics_core::crawler::spans::encode_trace;
use topics_core::export::{
    load_campaign, load_trace, write_artefacts, write_bundle, StoreKind, CAMPAIGN_COLUMNAR_FILE,
    TRACE_FILE,
};
use topics_core::obs::{alloc, Obs, Trace, Word};
use topics_core::{
    comparison_rows, crawler::shard::tally_snapshot, diagnose_bundle, evaluate, render_comparison,
    Lab, LabConfig,
};

/// The instrumented allocator wraps the system one for the whole
/// binary. It is pass-through (one relaxed load) until `--alloc-stats`
/// enables counting, so untracked runs pay nothing measurable.
#[global_allocator]
static ALLOC: topics_core::obs::CountingAlloc = topics_core::obs::CountingAlloc;

/// What a flag takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A bare switch.
    Switch,
    /// A positive integer (`N`).
    Count,
    /// Any `u64` (`S`).
    Seed,
    /// Text the command interprets; the string is its usage placeholder.
    Text(&'static str),
}

/// One flag of one subcommand.
#[derive(Debug)]
struct Flag {
    name: &'static str,
    kind: Kind,
    /// The value an absent flag takes.
    default: Option<&'static str>,
    /// Whether the command refuses to run without it.
    required: bool,
}

impl Flag {
    const fn new(name: &'static str, kind: Kind) -> Flag {
        Flag {
            name,
            kind,
            default: None,
            required: false,
        }
    }

    const fn or(self, default: &'static str) -> Flag {
        Flag {
            default: Some(default),
            ..self
        }
    }

    const fn required(self) -> Flag {
        Flag {
            required: true,
            ..self
        }
    }

    /// Reject a value its kind does not accept.
    fn check(&self, value: &str) -> Result<(), String> {
        match self.kind {
            Kind::Count if !value.parse::<usize>().is_ok_and(|n| n >= 1) => {
                Err(format!("bad {} {value:?} (want an integer ≥ 1)", self.name))
            }
            Kind::Seed if value.parse::<u64>().is_err() => {
                Err(format!("bad {} {value:?}", self.name))
            }
            _ => Ok(()),
        }
    }

    /// The flag and its value placeholder, e.g. `--sites N`.
    fn synopsis(&self) -> String {
        match self.kind {
            Kind::Switch => self.name.to_owned(),
            Kind::Count => format!("{} N", self.name),
            Kind::Seed => format!("{} S", self.name),
            Kind::Text(placeholder) => format!("{} {placeholder}", self.name),
        }
    }

    /// The flag as the usage text shows it.
    fn usage(&self) -> String {
        let synopsis = self.synopsis();
        match (self.required, self.default) {
            (true, _) => synopsis,
            (false, Some(default)) => format!("[{synopsis} ({default})]"),
            (false, None) => format!("[{synopsis}]"),
        }
    }
}

/// One subcommand: what it does, its flags (in groups some commands
/// share), and its body.
struct Command {
    name: &'static str,
    about: &'static str,
    flags: &'static [&'static [Flag]],
    run: fn(&Args) -> Result<(), CliError>,
}

impl Command {
    fn flags(&'static self) -> impl Iterator<Item = &'static Flag> {
        self.flags.iter().flat_map(|group| group.iter())
    }

    fn flag(&'static self, name: &str) -> Option<&'static Flag> {
        self.flags().find(|f| f.name == name)
    }
}

use Kind::{Count, Seed, Switch, Text};
const DIR: Kind = Text("DIR");
const FILE: Kind = Text("FILE");
const QUIET: Flag = Flag::new("--quiet", Switch);
const THREADS: Flag = Flag::new("--threads", Count);
const CAMPAIGN: Flag = Flag::new("--campaign", Text("DIR|FILE")).required();
const TOP: Flag = Flag::new("--top", Count).or("10");

/// The campaign `crawl` and `shard` run.
const CAMPAIGN_FLAGS: &[Flag] = &[
    Flag::new("--sites", Count).or("5000"),
    Flag::new("--seed", Seed).or("2024"),
    Flag::new("--full", Switch),
    Flag::new("--allow-list", Text("corrupted|healthy|fail-closed")).or("corrupted"),
    Flag::new("--reject", Switch),
    Flag::new("--vantage", Text("eu|us")).or("eu"),
    Flag::new("--fault-profile", Text("off|light|heavy|RATE")).or("off"),
    Flag::new("--fault-seed", Seed),
    THREADS,
    QUIET,
];

/// Where the observability of a `crawl` or `simulate` run goes.
const SINK_FLAGS: &[Flag] = &[
    Flag::new("--metrics-out", FILE),
    Flag::new("--trace-out", FILE),
    Flag::new("--alloc-stats", Switch),
];

/// The simulated population `simulate` runs; unset shape flags keep
/// `SimConfig::new`'s values.
const SIM_FLAGS: &[Flag] = &[
    Flag::new("--users", Count).or("100000"),
    Flag::new("--epochs", Count).or("30"),
    Flag::new("--sites", Count),
    Flag::new("--visits", Count),
    Flag::new("--context", Count),
    Flag::new("--window", Count),
    Flag::new("--sample", Count),
    Flag::new("--noise", Text("RATE")),
    Flag::new("--seed", Seed).or("42"),
    THREADS,
    Flag::new("--out", DIR).or("topics-sim-out"),
    QUIET,
];

/// Every subcommand and every flag it accepts.
const COMMANDS: &[Command] = &[
    Command {
        name: "crawl",
        about: "crawl a synthetic web (§2) and write the artefact bundle to --out",
        flags: &[
            &[Flag::new("--out", DIR).or("topics-lab-out")],
            CAMPAIGN_FLAGS,
            SINK_FLAGS,
        ],
        run: cmd_crawl,
    },
    Command {
        name: "shard",
        about: "crawl rank stripe K of N into a checksummed segment for merge",
        flags: &[
            &[
                Flag::new("--shard", Text("K/N")).required(),
                Flag::new("--out", DIR).or("topics-lab-shards"),
            ],
            CAMPAIGN_FLAGS,
        ],
        run: cmd_shard,
    },
    Command {
        name: "merge",
        about: "verify the segments in a directory and merge them into one bundle",
        flags: &[&[
            Flag::new("--segments", DIR).required(),
            Flag::new("--out", DIR),
        ]],
        run: cmd_merge,
    },
    Command {
        name: "simulate",
        about: "advance a synthetic population; k-anonymity and re-identification curves",
        flags: &[SIM_FLAGS, SINK_FLAGS],
        run: cmd_simulate,
    },
    Command {
        name: "report",
        about: "re-render the evaluation report from a campaign",
        flags: &[&[CAMPAIGN]],
        run: cmd_report,
    },
    Command {
        name: "metrics",
        about: "re-derive the Prometheus metrics snapshot from a campaign",
        flags: &[&[CAMPAIGN]],
        run: cmd_metrics,
    },
    Command {
        name: "compare",
        about: "print the paper-vs-measured table for a campaign",
        flags: &[&[CAMPAIGN, Flag::new("--full-scale", Switch)]],
        run: cmd_compare,
    },
    Command {
        name: "dossier",
        about: "print what a campaign knows about one calling party",
        flags: &[&[CAMPAIGN, Flag::new("--cp", Text("DOMAIN")).required()]],
        run: cmd_dossier,
    },
    Command {
        name: "doctor",
        about: "run-health report over a campaign and its trace, or a trace alone",
        flags: &[&[
            Flag::new("--campaign", Text("DIR|FILE")),
            Flag::new("--trace", FILE),
            TOP,
        ]],
        run: cmd_doctor,
    },
    Command {
        name: "memprofile",
        about: "memory attribution from a trace recorded with --alloc-stats",
        flags: &[&[
            Flag::new("--trace", FILE),
            Flag::new("--campaign", Text("DIR|FILE")),
            TOP,
        ]],
        run: cmd_memprofile,
    },
    Command {
        name: "serve",
        about: "answer the campaign's artefacts over HTTP until POST /shutdown",
        flags: &[&[
            CAMPAIGN,
            Flag::new("--addr", Text("HOST:PORT")),
            THREADS,
            Flag::new("--trace", FILE),
            Flag::new("--addr-file", FILE),
            QUIET,
        ]],
        run: cmd_serve,
    },
    Command {
        name: "fetch",
        about: "one HTTP request against a running serve; exit 0 on 2xx",
        flags: &[&[
            Flag::new("--addr", Text("HOST:PORT")).required(),
            Flag::new("--path", Text("PATH")).or("/api/report"),
            Flag::new("--out", FILE),
            Flag::new("--post", Switch),
        ]],
        run: cmd_fetch,
    },
];

fn usage_text() -> String {
    let mut text = String::from("usage:");
    for cmd in COMMANDS {
        text.push_str(&format!("\n  topics-lab {:<10} {}", cmd.name, cmd.about));
        let mut line = String::from("\n     ");
        for flag in cmd.flags() {
            if line.len() + flag.usage().len() > 78 {
                text.push_str(&line);
                line = String::from("\n     ");
            }
            line = format!("{line} {}", flag.usage());
        }
        text.push_str(&line);
    }
    text
}

fn usage() -> ExitCode {
    eprintln!("{}", usage_text());
    ExitCode::from(2)
}

/// A subcommand's command line, checked against its table entry.
struct Args {
    cmd: &'static Command,
    /// The given flags in command-line order, each with its value
    /// (`None` for a switch).
    given: Vec<(&'static Flag, Option<String>)>,
}

impl Args {
    /// Check `tokens` against `cmd`'s flags: every token is a listed
    /// flag, every value flag has a value its kind accepts, and every
    /// required flag is present. A following token that is itself a
    /// flag is not a value — `--out --reject` is an error, not an
    /// output directory named `--reject`.
    fn parse(cmd: &'static Command, tokens: &[String]) -> Result<Args, String> {
        let mut given = Vec::new();
        let mut tokens = tokens.iter().peekable();
        while let Some(token) = tokens.next() {
            let flag = cmd.flag(token).ok_or_else(|| {
                if token.starts_with("--") {
                    format!("unknown flag {token:?}")
                } else {
                    format!("unexpected argument {token:?}")
                }
            })?;
            let value = match flag.kind {
                Kind::Switch => None,
                _ => {
                    let value = tokens
                        .next_if(|v| !v.starts_with("--"))
                        .ok_or_else(|| format!("flag {} requires a value", flag.name))?;
                    flag.check(value)?;
                    Some(value.clone())
                }
            };
            given.push((flag, value));
        }
        if let Some(missing) = cmd
            .flags()
            .find(|f| f.required && !given.iter().any(|(g, _)| g.name == f.name))
        {
            return Err(format!("{} needs {}", cmd.name, missing.synopsis()));
        }
        Ok(Args { cmd, given })
    }

    /// Whether `name` is on the command line.
    fn has(&self, name: &str) -> bool {
        self.given.iter().any(|(f, _)| f.name == name)
    }

    /// The first given value of `name`, else its default. The first
    /// occurrence of a repeated flag wins.
    fn text(&self, name: &str) -> Option<&str> {
        let flag = self
            .cmd
            .flag(name)
            .unwrap_or_else(|| panic!("{name} is not a {} flag", self.cmd.name));
        match self.given.iter().find(|(f, _)| f.name == name) {
            Some((_, value)) => value.as_deref(),
            None => flag.default,
        }
    }

    /// [`Args::text`] parsed as `T`; [`Args::parse`] already checked it.
    fn opt<T: FromStr>(&self, name: &str) -> Option<T> {
        self.text(name).map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("{name} {v:?} passed its check"))
        })
    }

    /// [`Args::opt`] for a flag the table defaults or requires.
    fn get<T: FromStr>(&self, name: &str) -> T {
        self.opt(name)
            .unwrap_or_else(|| panic!("{name} has a default or is required"))
    }
}

/// A failure with its exit code attached: missing campaign, trace or
/// segment inputs exit 3, one that exists but fails validation exits 4,
/// everything else 1 (usage errors exit 2 via [`usage`]). Scripts can
/// branch on the class without parsing stderr.
#[derive(Debug, PartialEq, Eq)]
enum CliError {
    /// A named input file does not exist (exit 3).
    Missing(String),
    /// A named input exists but fails validation (exit 4).
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

    /// Classify an I/O failure on a named input: NotFound is
    /// [`CliError::Missing`], InvalidData [`CliError::Corrupt`].
    fn io(e: &std::io::Error, msg: String) -> CliError {
        match e.kind() {
            std::io::ErrorKind::NotFound => CliError::Missing(msg),
            std::io::ErrorKind::InvalidData => CliError::Corrupt(msg),
            _ => CliError::Other(msg),
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

/// Resolve a `--campaign` value: a bundle directory means its
/// `campaign.col`.
fn resolve_campaign(path: &str) -> PathBuf {
    let p = PathBuf::from(path);
    if p.is_dir() {
        p.join(CAMPAIGN_COLUMNAR_FILE)
    } else {
        p
    }
}

/// The `--campaign` store path, if given.
fn campaign_path(args: &Args) -> Option<PathBuf> {
    args.text("--campaign").map(resolve_campaign)
}

/// `--trace`, else `trace.col` next to the `--campaign` store.
fn trace_path(args: &Args) -> Option<PathBuf> {
    args.opt("--trace")
        .or_else(|| Some(campaign_path(args)?.with_file_name(TRACE_FILE)))
}

/// [`load_campaign`] with the error classified for exit codes.
fn load_campaign_cli(path: &Path) -> Result<CampaignOutcome, CliError> {
    load_campaign(path).map_err(|e| CliError::io(&e, format!("campaign {}: {e}", path.display())))
}

/// Load the required `--campaign` store.
fn load_campaign_arg(args: &Args) -> Result<CampaignOutcome, CliError> {
    load_campaign_cli(&campaign_path(args).expect("--campaign is required"))
}

/// [`load_trace`] with the error classified for exit codes: a missing
/// file is exit 3, one that is not a valid `trace.col` exit 4.
fn load_trace_cli(path: &Path) -> Result<Trace, CliError> {
    load_trace(path).map_err(|e| CliError::io(&e, format!("trace {}: {e}", path.display())))
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

/// The campaign `crawl` and `shard` run, from [`CAMPAIGN_FLAGS`].
fn lab_config(args: &Args) -> Result<LabConfig, String> {
    let seed = args.get("--seed");
    let sites = match (args.has("--full"), args.has("--sites")) {
        (true, true) => return Err("--full is 50,000 sites: drop --sites or --full".into()),
        (true, false) => 50_000,
        (false, _) => args.get("--sites"),
    };
    let allow_list = match args.get::<String>("--allow-list").as_str() {
        "corrupted" => AllowListSetup::CorruptedFailOpen,
        "healthy" => AllowListSetup::Healthy,
        "fail-closed" => AllowListSetup::CorruptedFailClosed,
        other => return Err(format!("unknown --allow-list {other:?}")),
    };
    let vantage = match args.get::<String>("--vantage").as_str() {
        "eu" => topics_core::net::http::Vantage::Europe,
        "us" => topics_core::net::http::Vantage::UnitedStates,
        other => return Err(format!("unknown --vantage {other:?} (eu|us)")),
    };
    let fault_profile =
        topics_core::net::fault::FaultProfile::parse(&args.get::<String>("--fault-profile"))?;

    let mut config = LabConfig::quick(seed, sites)
        .with_allow_list(allow_list)
        .with_fault_profile(fault_profile);
    if let Some(s) = args.opt("--fault-seed") {
        config = config.with_fault_seed(s);
    }
    if let Some(n) = args.opt("--threads") {
        config = config.with_threads(n);
    }
    config.campaign.vantage = vantage;
    config.campaign.consent_action = if args.has("--reject") {
        topics_core::crawler::ConsentAction::Reject
    } else {
        topics_core::crawler::ConsentAction::Accept
    };
    Ok(config)
}

/// Write `body` to `path`, naming `what` and the path on failure.
fn write_file(path: &Path, what: &str, body: impl AsRef<[u8]>) -> Result<(), String> {
    std::fs::write(path, body).map_err(|e| format!("writing {what} to {}: {e}", path.display()))
}

/// The run's observability handle: echoed to stderr unless `--quiet`.
fn obs_for(args: &Args) -> Obs {
    if args.has("--quiet") {
        Obs::new()
    } else {
        Obs::with_stderr_echo()
    }
}

/// How a trace is written to `path`, chosen by its extension:
/// `trace.col`, or one of the two write-only exports.
fn trace_encoder(path: &Path) -> Result<fn(&Trace) -> Vec<u8>, String> {
    match path.extension().and_then(|e| e.to_str()) {
        Some("col") => Ok(encode_trace),
        Some("jsonl") => Ok(|t| t.to_jsonl().into_bytes()),
        Some("json") => Ok(|t| t.to_chrome_json().into_bytes()),
        _ => Err(format!(
            "bad --trace-out {} (want a .col trace, a .jsonl or a .json export)",
            path.display()
        )),
    }
}

/// The trace's encoder and path.
type TraceSink = (fn(&Trace) -> Vec<u8>, PathBuf);

/// The files [`SINK_FLAGS`] ask a run to write.
struct Sinks {
    metrics: Option<PathBuf>,
    trace: Option<TraceSink>,
    alloc_stats: bool,
}

impl Sinks {
    /// Read the sink flags (relative paths land in `out`, absolute ones
    /// replace it) and turn on allocation counting when asked. A
    /// `--trace-out` with no known extension fails here, before any work.
    fn new(args: &Args, out: &Path) -> Result<Sinks, String> {
        let at = |flag| args.text(flag).map(|v| out.join(v));
        let trace = match at("--trace-out") {
            Some(path) => Some((trace_encoder(&path)?, path)),
            None => None,
        };
        let sinks = Sinks {
            metrics: at("--metrics-out"),
            trace,
            alloc_stats: args.has("--alloc-stats"),
        };
        if sinks.alloc_stats {
            alloc::set_enabled(true);
        }
        Ok(sinks)
    }

    /// The run's `Obs`, tracing when a trace is to be written.
    fn obs(&self, args: &Args) -> Obs {
        let obs = obs_for(args);
        if self.trace.is_some() {
            obs.with_trace()
        } else {
            obs
        }
    }

    /// Write the requested files. The metrics snapshot is taken now, so
    /// every phase gauge is in it.
    fn write(&self, obs: &Obs) -> Result<(), String> {
        if let Some(path) = &self.metrics {
            if self.alloc_stats {
                alloc::publish(&obs.metrics);
            }
            write_file(path, "metrics", obs.metrics.snapshot().render_prometheus())?;
        }
        if let Some((encode, path)) = &self.trace {
            write_file(path, "trace", encode(&obs.trace.finish()))?;
        }
        Ok(())
    }

    /// Say where each file went.
    fn announce(&self) {
        let trace = self.trace.as_ref().map(|(_, path)| path);
        for (what, path) in [
            ("metrics snapshot", self.metrics.as_ref()),
            ("trace", trace),
        ] {
            if let Some(p) = path {
                println!("{what} written to {}", p.display());
            }
        }
    }
}

fn cmd_crawl(args: &Args) -> Result<(), CliError> {
    let config = lab_config(args)?;
    let (sites, seed) = (config.world.num_sites, config.world.seed);
    let out: PathBuf = args.get("--out");
    let sinks = Sinks::new(args, &out)?;
    let obs = sinks.obs(args);

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
        let _span = obs.phase(Word::WorldGen);
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
        let _span = obs.phase(Word::Analysis);
        evaluate(&run.outcome)
    };
    {
        let _span = obs.phase(Word::Export);
        write_bundle(
            &out,
            &run.outcome,
            &eval,
            sites >= 50_000,
            StoreKind::Columnar,
        )
        .map_err(|e| format!("writing bundle to {}: {e}", out.display()))?;
    }
    sinks.write(&obs)?;

    println!("{}", eval.render_report());
    println!("artefact bundle written to {}", out.display());
    sinks.announce();
    Ok(())
}

fn cmd_shard(args: &Args) -> Result<(), CliError> {
    let (shard, shards) = parse_shard_spec(args.text("--shard").expect("--shard is required"))?;
    let config = lab_config(args)?;
    let out: PathBuf = args.get("--out");

    // The segment carries the stripped span trace, so the shard run is
    // always traced. No other phases may open on this handle — the
    // merge expects exactly the campaign's phase sequence.
    let obs = obs_for(args).with_trace();
    obs.events.info(
        "shard-start",
        vec![
            ("shard".into(), (shard + 1).into()),
            ("shards".into(), shards.into()),
            ("seed".into(), config.world.seed.into()),
        ],
    );
    let segment = topics_core::run_shard(&config, shard, shards, &obs);
    let path = topics_core::write_segment(&out, &segment)
        .map_err(|e| format!("writing segment to {}: {e}", out.display()))?;
    println!(
        "shard {}/{shards} segment written to {} ({} sites, {} probes)",
        shard + 1,
        path.display(),
        segment.sites.len(),
        segment.probes.len(),
    );
    Ok(())
}

fn cmd_merge(args: &Args) -> Result<(), CliError> {
    let segments: PathBuf = args.get("--segments");
    let out = args.opt("--out").unwrap_or_else(|| segments.clone());

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
    write_file(
        &out.join(CAMPAIGN_COLUMNAR_FILE),
        "store",
        merged.store.bytes(),
    )?;
    let eval = evaluate(&merged.outcome);
    let full_scale = merged.outcome.sites.len() >= 50_000;
    write_artefacts(&out, &merged.outcome, &eval, full_scale)
        .map_err(|e| format!("writing bundle to {}: {e}", out.display()))?;
    write_file(&out.join(TRACE_FILE), "trace", encode_trace(&merged.trace))?;

    println!("{}", eval.render_report());
    println!(
        "merged {count} segment(s) from {} into {}",
        segments.display(),
        out.display(),
    );
    Ok(())
}

fn cmd_report(args: &Args) -> Result<(), CliError> {
    let outcome = load_campaign_arg(args)?;
    println!("{}", evaluate(&outcome).render_report());
    Ok(())
}

fn cmd_metrics(args: &Args) -> Result<(), CliError> {
    let outcome = load_campaign_arg(args)?;
    print!("{}", tally_snapshot(&outcome).render_prometheus());
    Ok(())
}

fn cmd_compare(args: &Args) -> Result<(), CliError> {
    let outcome = load_campaign_arg(args)?;
    let eval = evaluate(&outcome);
    let full = args.has("--full-scale") || outcome.sites.len() >= 50_000;
    println!("{}", render_comparison(&comparison_rows(&eval, full)));
    Ok(())
}

fn cmd_dossier(args: &Args) -> Result<(), CliError> {
    let cp = topics_core::net::Domain::parse(args.text("--cp").expect("--cp is required"))
        .map_err(|e| format!("bad --cp: {e}"))?;
    let outcome = load_campaign_arg(args)?;
    let ds = topics_core::analysis::dataset::Datasets::new(&outcome);
    println!(
        "{}",
        topics_core::analysis::dossier::dossier(&ds, &cp).render()
    );
    Ok(())
}

fn cmd_doctor(args: &Args) -> Result<(), CliError> {
    let top = args.get("--top");
    let verdict = |rendered: String, violations: usize| {
        print!("{rendered}");
        match violations {
            0 => Ok(()),
            n => Err(format!("doctor found {n} violation(s)").into()),
        }
    };
    let Some(campaign) = campaign_path(args) else {
        // Trace-only mode: no campaign to reconcile against — e.g. a
        // `simulate` trace, which has no campaign dataset at all.
        let path = trace_path(args)
            .ok_or("doctor needs --campaign DIR|FILE (or --trace FILE for trace-only mode)")?;
        let report = topics_core::diagnose_trace(&load_trace_cli(&path)?, top);
        return verdict(report.render(), report.violations().len());
    };
    let outcome = load_campaign_cli(&campaign)?;
    let trace = load_trace_cli(&trace_path(args).expect("a campaign gives a trace path"))?;
    let report = diagnose_bundle(&campaign, &outcome, &trace, top);
    verdict(report.render(), report.violations().len())
}

fn cmd_memprofile(args: &Args) -> Result<(), CliError> {
    let path = trace_path(args).ok_or("memprofile needs --trace FILE or --campaign DIR")?;
    let profile = topics_core::obs::mem_profile(&load_trace_cli(&path)?, args.get("--top"));
    if profile.is_empty() {
        return Err(format!(
            "trace {} carries no allocation attribution (record it with crawl --alloc-stats --trace-out)",
            path.display()
        )
        .into());
    }
    print!("{}", profile.render());
    Ok(())
}

fn cmd_simulate(args: &Args) -> Result<(), CliError> {
    let mut cfg = topics_core::baseline::SimConfig::new(
        args.get("--seed"),
        args.get("--users"),
        args.get("--epochs"),
    );
    for (flag, field) in [
        ("--sites", &mut cfg.sites),
        ("--visits", &mut cfg.visits_per_epoch),
        ("--context", &mut cfg.context_sites),
        ("--sample", &mut cfg.sample),
    ] {
        *field = args.opt(flag).unwrap_or(*field);
    }
    cfg.window = args.opt("--window").unwrap_or(cfg.window);
    if let Some(s) = args.text("--noise") {
        cfg.noise = s
            .parse::<f64>()
            .ok()
            .filter(|n| (0.0..=1.0).contains(n))
            .ok_or_else(|| format!("bad --noise {s:?} (want a rate in [0, 1])"))?;
    }
    cfg.validate()?;
    let threads = args.opt("--threads").unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });

    let out: PathBuf = args.get("--out");
    let sinks = Sinks::new(args, &out)?;
    let obs = sinks.obs(args);
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
    sinks.write(&obs)?;

    print!(
        "{}",
        topics_core::baseline::simulate::render_sim_report(&run)
    );
    println!("simulation artefacts written to {}", out.display());
    sinks.announce();
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), CliError> {
    let mut config =
        topics_core::ServeConfig::new(campaign_path(args).expect("--campaign is required"));
    config.addr = args.opt("--addr").unwrap_or(config.addr);
    config.threads = args.opt("--threads").unwrap_or(config.threads);
    config.trace = args.opt("--trace");

    let server =
        topics_core::Server::bind(&config, std::sync::Arc::new(obs_for(args))).map_err(|e| {
            let msg = e.to_string();
            match e {
                topics_core::ServeError::Missing(_) => CliError::Missing(msg),
                topics_core::ServeError::Corrupt(..) => CliError::Corrupt(msg),
                _ => CliError::Other(msg),
            }
        })?;
    let addr = server.local_addr();
    if let Some(addr_file) = args.opt::<PathBuf>("--addr-file") {
        write_file(&addr_file, "address", format!("{addr}\n"))?;
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
    let addr = args.text("--addr").expect("--addr is required");
    let path = args.text("--path").expect("--path has a default");
    let method = if args.has("--post") { "POST" } else { "GET" };
    let resp = topics_core::http_fetch(addr, method, path)
        .map_err(|e| format!("fetch {method} http://{addr}{path}: {e}"))?;
    match args.text("--out") {
        Some(out) => write_file(Path::new(out), "body", &resp.body)?,
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
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, tokens)) = argv.split_first() else {
        return usage();
    };
    if matches!(name.as_str(), "--help" | "-h" | "help") {
        return usage();
    }
    let result = match COMMANDS.iter().find(|c| c.name == name) {
        Some(cmd) => Args::parse(cmd, tokens)
            .map_err(CliError::from)
            .and_then(|args| (cmd.run)(&args)),
        None => Err(format!("unknown subcommand {name:?}").into()),
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

    fn command(name: &str) -> &'static Command {
        COMMANDS.iter().find(|c| c.name == name).expect("a command")
    }

    fn parse(name: &str, tokens: &[&str]) -> Result<Args, String> {
        let tokens: Vec<String> = tokens.iter().map(|s| s.to_string()).collect();
        Args::parse(command(name), &tokens)
    }

    /// The error `name` gives for `tokens`.
    fn error(name: &str, tokens: &[&str]) -> String {
        parse(name, tokens).err().expect("a flag error")
    }

    /// Every flag of `name` with a value its kind accepts (`--full`
    /// left out: it excludes `--sites`).
    fn every_flag(name: &str) -> Vec<&'static str> {
        let mut tokens = Vec::new();
        for flag in command(name).flags().filter(|f| f.name != "--full") {
            tokens.push(flag.name);
            match flag.kind {
                Switch => {}
                Count | Seed => tokens.push("3"),
                Text(_) => tokens.push(flag.default.unwrap_or("x")),
            }
        }
        tokens
    }

    /// `name` takes all its flags at once, `flag` among them, and
    /// rejects a typo of `flag` and `foreign`, a flag of other commands.
    fn assert_strict(name: &str, flag: &str, foreign: &str) {
        let all = parse(name, &every_flag(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(all.has(flag), "{name} takes {flag}");
        for unknown in [&flag[..flag.len() - 1], foreign] {
            let err = error(name, &[unknown, "x"]);
            assert_eq!(err, format!("unknown flag {unknown:?}"), "{name}");
        }
    }

    #[test]
    fn value_of_returns_the_following_token() {
        let a = parse("crawl", &["--sites", "250", "--quiet", "--sites", "9"]).unwrap();
        assert_eq!(a.get::<usize>("--sites"), 250, "the first occurrence wins");
        assert_eq!(a.get::<u64>("--seed"), 2024, "the table's default");
        assert_eq!(a.opt::<u64>("--fault-seed"), None);
        assert!(a.has("--quiet") && !a.has("--reject"));
    }

    #[test]
    fn a_flag_never_consumes_another_flag_as_its_value() {
        // `--out --reject` is a missing value, not a directory "--reject".
        assert_eq!(
            error("crawl", &["--out", "--reject"]),
            "flag --out requires a value"
        );
    }

    #[test]
    fn trailing_flag_with_missing_value_is_an_error() {
        for cmd in COMMANDS {
            for flag in cmd.flags().filter(|f| f.kind != Switch) {
                let want = format!("flag {} requires a value", flag.name);
                assert_eq!(error(cmd.name, &[flag.name]), want);
                assert_eq!(error(cmd.name, &[flag.name, "--quiet"]), want);
            }
        }
    }

    #[test]
    fn fault_flags_parse_named_bands_and_rates() {
        use topics_core::net::fault::FaultProfile;
        let a = parse("crawl", &["--fault-profile", "light", "--fault-seed", "7"]).unwrap();
        let config = lab_config(&a).unwrap();
        assert_eq!(config.campaign.fault, FaultProfile::light());
        assert_eq!(config.campaign.fault_seed, Some(7));
        let off = lab_config(&parse("shard", &["--shard", "1/2"]).unwrap()).unwrap();
        assert!(off.campaign.fault.is_off(), "the default profile is off");
        for bad in ["1.5", "surprise"] {
            assert!(lab_config(&parse("crawl", &["--fault-profile", bad]).unwrap()).is_err());
        }
        assert!(error("crawl", &["--fault-seed", "-1"]).contains("bad --fault-seed"));
    }

    #[test]
    fn threads_flag_parses_strictly() {
        // One --threads sizes the crawl and probe pool; the old
        // --probe-threads is an unknown flag.
        for name in ["crawl", "shard", "simulate", "serve"] {
            assert!(command(name).flag("--threads").is_some(), "{name}");
            for bad in ["0", "-3", "2.5", "many", ""] {
                let err = error(name, &["--threads", bad]);
                assert!(err.contains("bad --threads"), "{name} {bad:?}: {err}");
            }
            let err = error(name, &["--probe-threads", "4"]);
            assert_eq!(err, "unknown flag \"--probe-threads\"");
        }
        let a = parse("crawl", &["--threads", "3"]).unwrap();
        assert_eq!(lab_config(&a).unwrap().campaign.threads, 3);
    }

    #[test]
    fn trace_out_flag_is_accepted_and_strict() {
        assert_strict("crawl", "--trace-out", "--trace");
        assert_strict("simulate", "--trace-out", "--campaign");
        // The shard always traces into its segment.
        assert!(error("shard", &["--trace-out", "t"]).contains("--trace-out"));
        // Relative paths land in the bundle directory, absolute ones win.
        let a = parse(
            "crawl",
            &["--trace-out", "/tmp/t.json", "--metrics-out", "m"],
        )
        .unwrap();
        let sinks = Sinks::new(&a, Path::new("bundle")).unwrap();
        let trace = sinks.trace.map(|(_, path)| path);
        assert_eq!(trace, Some(PathBuf::from("/tmp/t.json")));
        assert_eq!(sinks.metrics, Some(PathBuf::from("bundle/m")));
        // The extension picks the format; any other than .col, .jsonl
        // and .json is refused before the run starts.
        for bad in ["t.txt", "trace", "t.col.gz"] {
            let a = parse("crawl", &["--trace-out", bad]).unwrap();
            let err = Sinks::new(&a, Path::new("bundle")).err().expect("refused");
            assert!(
                err.contains("bad --trace-out") && err.contains(bad),
                "{err}"
            );
        }
    }

    #[test]
    fn serve_flags_parse_strictly() {
        assert_strict("serve", "--addr-file", "--top");
        let a = parse("serve", &["--campaign", "out"]).unwrap();
        assert_eq!(a.opt::<usize>("--threads"), None, "ServeConfig's default");
    }

    #[test]
    fn fetch_flags_parse_strictly() {
        assert_strict("fetch", "--post", "--campaign");
        let a = parse("fetch", &["--addr", "127.0.0.1:9"]).unwrap();
        assert_eq!(a.text("--path"), Some("/api/report"));
    }

    #[test]
    fn cli_errors_carry_their_exit_codes() {
        assert_eq!(CliError::Missing("x".into()).exit_code(), 3);
        assert_eq!(CliError::Corrupt("x".into()).exit_code(), 4);
        // Plain strings classify as Other — exit 1.
        let e: CliError = "boom".into();
        assert_eq!((e.exit_code(), e.message()), (1, "boom"));
    }

    #[test]
    fn load_campaign_cli_classifies_missing_and_corrupt() {
        let missing = load_campaign_cli(Path::new("/nonexistent/campaign.col"));
        assert!(matches!(missing, Err(CliError::Missing(_))), "{missing:?}");
        let dir = std::env::temp_dir().join(format!("topics-cli-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.col");
        std::fs::write(&path, "not a campaign").unwrap();
        for err in [load_campaign_cli(&path).err(), load_trace_cli(&path).err()] {
            match err {
                Some(CliError::Corrupt(msg)) => assert!(msg.contains("campaign.col"), "{msg}"),
                other => panic!("a corrupt input must classify as Corrupt, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn doctor_flags_parse_strictly() {
        assert_strict("doctor", "--top", "--cp");
        // Either mode may be chosen, so neither input is required.
        let a = parse("doctor", &[]).unwrap();
        assert_eq!((a.get::<usize>("--top"), trace_path(&a)), (10, None));
        let a = parse("doctor", &["--campaign", "bundle/campaign.col"]).unwrap();
        assert_eq!(trace_path(&a), Some(PathBuf::from("bundle/trace.col")));
        assert!(error("doctor", &["--top", "0"]).contains("bad --top"));
    }

    #[test]
    fn alloc_stats_is_a_bare_crawl_flag() {
        assert_strict("crawl", "--alloc-stats", "--cp");
        assert_eq!(command("crawl").flag("--alloc-stats").unwrap().kind, Switch);
    }

    #[test]
    fn memprofile_flags_parse_strictly() {
        assert_strict("memprofile", "--trace", "--addr");
        // --campaign DIR resolves to trace.col next to campaign.col.
        let dir = std::env::temp_dir();
        let a = parse("memprofile", &["--campaign", dir.to_str().unwrap()]).unwrap();
        assert_eq!(trace_path(&a), Some(dir.join("trace.col")));
        let a = parse("memprofile", &["--trace", "t.col", "--campaign", "c"]).unwrap();
        assert_eq!(trace_path(&a), Some(PathBuf::from("t.col")), "--trace wins");
    }

    #[test]
    fn store_flag_is_rejected_by_every_subcommand() {
        // Removed flags are unknown to every subcommand: there is one
        // campaign store (no --store), and events are only echoed to
        // stderr, never written to a file (no --events-out).
        for flag in ["--store", "--events-out"] {
            for cmd in COMMANDS {
                let err = error(cmd.name, &[flag, "x"]);
                assert_eq!(err, format!("unknown flag {flag:?}"), "{}", cmd.name);
            }
        }
    }

    #[test]
    fn campaign_resolution_prefers_an_existing_store() {
        // A file path passes through untouched, whatever its name.
        assert_eq!(resolve_campaign("b/old.col"), Path::new("b/old.col"));
        // A directory resolves to its campaign.col — never to a
        // campaign.json an older bundle left beside it.
        let dir = std::env::temp_dir().join(format!("topics-lab-resolve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("campaign.json"), b"{}").unwrap();
        let resolved = resolve_campaign(dir.to_str().unwrap());
        assert_eq!(resolved, dir.join("campaign.col"));
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
        assert_strict("shard", "--shard", "--metrics-out");
        assert_eq!(error("shard", &["--sites", "5"]), "shard needs --shard K/N");
    }

    #[test]
    fn merge_flags_parse_strictly() {
        assert_strict("merge", "--segments", "--sites");
        assert_eq!(
            error("merge", &["--out", "b"]),
            "merge needs --segments DIR"
        );
    }

    #[test]
    fn simulate_flags_parse_strictly() {
        assert_strict("simulate", "--users", "--full");
        let a = parse("simulate", &["--users", "5000"]).unwrap();
        assert_eq!(
            (a.get::<usize>("--users"), a.get::<u64>("--epochs")),
            (5000, 30)
        );
        assert_eq!(a.opt::<usize>("--sample"), None, "SimConfig's default");
        // Shape flags reject zero and garbage — a zero-user simulation
        // must fail at the flag, not deep inside the engine.
        for (flag, bad) in [("--users", "0"), ("--sample", "lots"), ("--window", "-2")] {
            assert!(error("simulate", &[flag, bad]).contains(&format!("bad {flag}")));
        }
    }

    #[test]
    fn unknown_flags_are_rejected_not_ignored() {
        // A typo'd flag never runs with its default, for any flag.
        for cmd in COMMANDS {
            for flag in cmd.flags() {
                let typo = &flag.name[..flag.name.len() - 1];
                if cmd.flag(typo).is_none() {
                    assert_eq!(error(cmd.name, &[typo]), format!("unknown flag {typo:?}"));
                }
            }
        }
        // --full is 50,000 sites; a --sites beside it is an error.
        let a = parse("crawl", &["--full", "--sites", "10"]).unwrap();
        assert!(lab_config(&a).unwrap_err().contains("--full"));
        let a = parse("crawl", &["--full"]).unwrap();
        assert_eq!(lab_config(&a).unwrap().world.num_sites, 50_000);
    }

    #[test]
    fn stray_positionals_and_flag_valued_flags_are_rejected() {
        for cmd in COMMANDS {
            assert_eq!(error(cmd.name, &["extra"]), "unexpected argument \"extra\"");
        }
    }

    #[test]
    fn the_table_is_consistent_and_generates_the_usage() {
        let usage = usage_text();
        for cmd in COMMANDS {
            let flags: Vec<&Flag> = cmd.flags().collect();
            for (i, flag) in flags.iter().enumerate() {
                assert!(
                    flags[..i].iter().all(|f| f.name != flag.name),
                    "{}",
                    flag.name
                );
                assert!(usage.contains(&flag.usage()), "{}", flag.name);
                if let Some(default) = flag.default {
                    assert_eq!(flag.check(default), Ok(()), "{}", flag.name);
                    assert!(!flag.required && flag.kind != Switch);
                }
            }
            parse(cmd.name, &every_flag(cmd.name)).unwrap_or_else(|e| panic!("{}: {e}", cmd.name));
        }
    }
}
