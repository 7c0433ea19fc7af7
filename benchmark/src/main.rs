//! The repository benchmark.
//!
//! ```text
//! benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! benchmark compare A.jsonl B.jsonl
//! ```
//!
//! A run executes one workload in this process, checks the program's
//! outputs, prints one JSON line per metric and then the result line
//! `{"correct", "attempted", "failed", "metrics"}`, and exits non-zero
//! when any check failed. `--trace 0` reports the end-to-end metrics,
//! `--trace 1` the per-layer ones. `compare` reads the metric lines of
//! two run sets and judges each metric against `BENCHMARK.json`.
//! `crawl-store` is the `query` workload's set-up, which it runs in a
//! child process.

mod compare;
mod report;
mod spec;
mod stats;
mod timed_world;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{RunSpec, Scale, Workload, BENCH_SEED};

/// The allocator the `topics-lab` binary installs: counting is off
/// except during the traced run's allocation pass, so untraced runs pay
/// what the shipped program pays.
#[global_allocator]
static ALLOC: topics_core::obs::CountingAlloc = topics_core::obs::CountingAlloc;

/// Default length of the timed phase.
const DEFAULT_SECONDS: f64 = 15.0;

const USAGE: &str = "usage: benchmark --workload <paper-crawl|chaos-shards|query|simulate> \
                     [--seed N] [--seconds S] [--trace 0|1]\n       \
                     benchmark compare A.jsonl B.jsonl";

/// Parsed run arguments.
#[derive(Debug, PartialEq)]
struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut run = RunArgs {
        workload: Workload::PaperCrawl,
        seed: BENCH_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} requires a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => run.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                run.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                run.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    run.workload = workload.ok_or("--workload is required")?;
    Ok(run)
}

fn run_workload(args: &RunArgs) -> ExitCode {
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("benchmark: creating {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let report = workloads::run(
        args.workload,
        &RunSpec {
            seed: args.seed,
            seconds: args.seconds,
            traced: args.traced,
            scale: &Scale::FULL,
            work: &work,
        },
    );
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");

    for line in report.metric_lines(args.workload.name(), args.seed, args.traced) {
        println!("{line}");
    }
    println!("{}", report.result_line());
    for failure in &report.failures {
        eprintln!("benchmark: check failed: {failure}");
    }
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_compare(a: &str, b: &str) -> Result<ExitCode, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"));
    let spec = spec::Spec::parse(&read("BENCHMARK.json")?)?;
    let rows = compare::compare(
        &spec,
        &compare::read_set(&read(a)?).map_err(|e| format!("{a}: {e}"))?,
        &compare::read_set(&read(b)?).map_err(|e| format!("{b}: {e}"))?,
    );
    print!("{}", compare::render(&rows));
    let worse = rows
        .iter()
        .filter(|r| r.verdict == Some(stats::Verdict::Worse))
        .count();
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `crawl-store DIR SEED SITES`: the `query` workload's set-up crawl,
/// run as a child process of the benchmark.
fn crawl_store(args: &[String]) -> Result<ExitCode, String> {
    let [dir, seed, sites] = args else {
        return Err("crawl-store takes DIR SEED SITES".to_owned());
    };
    let seed = seed.parse().map_err(|_| format!("bad seed {seed:?}"))?;
    let sites = sites
        .parse()
        .map_err(|_| format!("bad site count {sites:?}"))?;
    workloads::query::write_bundle(dir.as_ref(), seed, sites)?;
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => run_compare(&args[1], &args[2]),
        Some("compare") => Err("compare takes two files".to_owned()),
        Some("crawl-store") => crawl_store(&args[1..]),
        _ => parse_run_args(&args).map(|a| run_workload(&a)),
    };
    result.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_contract_command_line() {
        let a = parse_run_args(&args("--workload query --seed 9 --seconds 12 --trace 1")).unwrap();
        assert_eq!(
            a,
            RunArgs {
                workload: Workload::Query,
                seed: 9,
                seconds: 12.0,
                traced: true
            }
        );
        let d = parse_run_args(&args("--workload simulate")).unwrap();
        assert_eq!(
            (d.seed, d.seconds, d.traced),
            (BENCH_SEED, DEFAULT_SECONDS, false)
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope",
            "--workload query --trace 2",
            "--workload query --seconds -1",
            "--workload query --seed",
            "--workload query --bogus 1",
        ] {
            assert!(parse_run_args(&args(bad)).is_err(), "{bad:?} accepted");
        }
    }
}
