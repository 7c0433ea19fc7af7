//! Integration: the `topics-lab simulate` subcommand end to end.
//!
//! The population engine's determinism contract is byte-level: the
//! k-anonymity and re-identification CSVs must be identical for any
//! `--threads` value and across reruns of the same seed, and must
//! change when the seed changes. On top of the artefacts, the trace a
//! simulate run records must pass `doctor --trace` (trace-only mode)
//! and the published metrics must reconcile exactly with the
//! simulation shape.

use std::path::{Path, PathBuf};
use std::process::Command;
use topics_core::baseline::SimConfig;
use topics_core::crawler::spans::encode_trace;
use topics_core::obs::{Obs, Trace};
use topics_core::{run_simulation, SIM_KANON_FILE, SIM_REIDENT_FILE, SIM_REPORT_FILE};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("topics-isim-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run `topics-lab simulate` into `out`, panicking on failure.
fn simulate_cli(out: &Path, extra: &[&str]) -> std::process::Output {
    let output = Command::new(env!("CARGO_BIN_EXE_topics-lab"))
        .args([
            "simulate", "--users", "400", "--epochs", "6", "--sites", "300", "--sample", "200",
            "--seed", "9", "--quiet", "--out",
        ])
        .arg(out)
        .args(extra)
        .output()
        .expect("simulate runs");
    assert!(
        output.status.success(),
        "simulate failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    output
}

fn curves(dir: &Path) -> (String, String) {
    (
        std::fs::read_to_string(dir.join(SIM_KANON_FILE)).unwrap(),
        std::fs::read_to_string(dir.join(SIM_REIDENT_FILE)).unwrap(),
    )
}

#[test]
fn curves_are_byte_identical_for_any_thread_count_and_depend_on_the_seed() {
    let base = temp_dir("threads1");
    simulate_cli(&base, &["--threads", "1"]);
    let (kanon, reident) = curves(&base);
    assert!(kanon.starts_with("epoch,"), "{kanon}");
    assert!(reident.starts_with("epochs_observed,"), "{reident}");

    for threads in ["4", "8"] {
        let dir = temp_dir(&format!("threads{threads}"));
        simulate_cli(&dir, &["--threads", threads]);
        let (k, r) = curves(&dir);
        assert_eq!(kanon, k, "--threads {threads} changed the k-anonymity CSV");
        assert_eq!(
            reident, r,
            "--threads {threads} changed the re-identification CSV"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // Same seed, same bytes — including the report.
    let rerun = temp_dir("rerun");
    simulate_cli(&rerun, &["--threads", "2"]);
    let (k, r) = curves(&rerun);
    assert_eq!(kanon, k, "re-running the same seed changed the CSV");
    assert_eq!(reident, r);
    assert_eq!(
        std::fs::read_to_string(base.join(SIM_REPORT_FILE)).unwrap(),
        std::fs::read_to_string(rerun.join(SIM_REPORT_FILE)).unwrap(),
    );
    std::fs::remove_dir_all(&rerun).unwrap();

    // A different seed must actually move the curves.
    let other = temp_dir("seed");
    let output = Command::new(env!("CARGO_BIN_EXE_topics-lab"))
        .args([
            "simulate", "--users", "400", "--epochs", "6", "--sites", "300", "--sample", "200",
            "--seed", "10", "--quiet", "--out",
        ])
        .arg(&other)
        .output()
        .expect("simulate runs");
    assert!(output.status.success());
    let (k, r) = curves(&other);
    assert!(
        kanon != k || reident != r,
        "seed 9 and seed 10 produced identical curves"
    );
    std::fs::remove_dir_all(&other).unwrap();
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn doctor_trace_only_mode_accepts_a_simulate_trace() {
    let dir = temp_dir("doctor");
    simulate_cli(
        &dir,
        &[
            "--threads",
            "2",
            "--alloc-stats",
            "--trace-out",
            "trace.col",
            "--metrics-out",
            "metrics.prom",
        ],
    );
    let trace_path = dir.join("trace.col");
    assert!(trace_path.is_file(), "trace.col lands inside --out");

    let doctor = Command::new(env!("CARGO_BIN_EXE_topics-lab"))
        .args(["doctor", "--trace"])
        .arg(&trace_path)
        .output()
        .expect("doctor runs");
    assert!(
        doctor.status.success(),
        "doctor --trace failed: {}\n{}",
        String::from_utf8_lossy(&doctor.stderr),
        String::from_utf8_lossy(&doctor.stdout)
    );
    let body = String::from_utf8(doctor.stdout).unwrap();
    assert!(body.contains("integrity: clean"), "{body}");
    for phase in ["sim-universe", "sim-advance", "sim-kanon", "sim-attack"] {
        assert!(body.contains(phase), "missing {phase} in:\n{body}");
    }

    // The metrics snapshot carries the simulation counters.
    let prom = std::fs::read_to_string(dir.join("metrics.prom")).unwrap();
    assert!(prom.contains("sim_users 400"), "{prom}");
    assert!(prom.contains("sim_api_calls_total"), "{prom}");

    // A trace.col without spans has no root span: a violation, exit
    // 1. A zero-byte file is no trace.col at all: corrupt, exit 4.
    let empty = dir.join("empty.col");
    std::fs::write(&empty, encode_trace(&Trace::default())).unwrap();
    let zero = dir.join("zero.col");
    std::fs::write(&zero, b"").unwrap();
    for (path, code, needle) in [(&empty, 1, "missing root span"), (&zero, 4, "truncated")] {
        let out = Command::new(env!("CARGO_BIN_EXE_topics-lab"))
            .args(["doctor", "--trace"])
            .arg(path)
            .output()
            .expect("doctor runs");
        let text = String::from_utf8_lossy(&out.stdout) + String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{text}");
        assert!(text.contains(needle), "{text}");
    }

    // Without --campaign and without --trace the subcommand points at
    // both modes; exit 2 is the usage error.
    let bare = Command::new(env!("CARGO_BIN_EXE_topics-lab"))
        .arg("doctor")
        .output()
        .expect("doctor runs");
    assert!(!bare.status.success());
    assert!(
        String::from_utf8_lossy(&bare.stderr).contains("trace-only"),
        "{}",
        String::from_utf8_lossy(&bare.stderr)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn rejects_bad_flags_before_running_anything() {
    for bad in [
        vec!["simulate", "--users", "0"],
        vec!["simulate", "--noise", "1.5"],
        vec!["simulate", "--threads", "none"],
        vec!["simulate", "--user", "10"],
        // Twice this wraps a 64-bit `usize`.
        vec!["simulate", "--context", "9223372036854775808"],
        // Site ids are 32-bit.
        vec!["simulate", "--sites", "18446744073709551615"],
        // The extension picks the trace format.
        vec!["simulate", "--trace-out", "trace.txt"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_topics-lab"))
            .args(&bad)
            .output()
            .expect("simulate runs");
        assert_eq!(
            output.status.code(),
            Some(1),
            "{bad:?}: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(bad[1]),
            "{bad:?} error does not name the flag: {stderr}"
        );
    }
}

#[test]
fn library_metrics_reconcile_with_the_run() {
    let cfg = SimConfig {
        sites: 300,
        sample: 200,
        ..SimConfig::new(9, 400, 6)
    };
    let obs = Obs::new();
    let run = run_simulation(&cfg, 2, &obs).unwrap();
    topics_core::publish_sim_metrics(&run, &obs.metrics);
    let snap = obs.metrics.snapshot();
    // Every API call is accounted for: both panels query every user
    // once per context site per window epoch.
    assert_eq!(
        snap.counter("sim_api_calls_total"),
        cfg.users as u64 * cfg.context_sites as u64 * cfg.window * 2
    );
    assert_eq!(
        snap.counter("sim_queries_total"),
        cfg.sample as u64 * cfg.window
    );
    assert_eq!(
        snap.counter("sim_correct_total"),
        run.reident.iter().map(|r| r.correct).sum::<u64>()
    );
    assert_eq!(run.kanon.len(), cfg.epochs as usize);
    assert_eq!(run.reident.len(), cfg.window as usize);
    // The k-anonymity rows cover the whole population every epoch.
    assert!(run.kanon.iter().all(|r| r.users == cfg.users as u64));
}

/// The committed golden named `name`.
fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn library_runs_match_the_committed_goldens() {
    use topics_core::baseline::simulate::{kanon_csv, reident_csv, run, SimStats};
    // The CI smoke shape: both CSVs, and the API counters that the
    // CSVs do not show (the report's `api:` line).
    let smoke = SimConfig {
        sites: 800,
        sample: 500,
        ..SimConfig::new(7, 2000, 8)
    };
    // The noiseless shape whose panels cover the universe: it links
    // over half the sample, so a wrong argmax moves its CSV.
    let strong = SimConfig {
        sites: 200,
        context_sites: 100,
        sample: 500,
        noise: 0.0,
        ..SimConfig::new(7, 500, 12)
    };
    for threads in [1, 4] {
        let r = run(&smoke, threads).unwrap();
        assert_eq!(kanon_csv(&r.kanon), golden("sim_kanon_smoke.csv"));
        assert_eq!(reident_csv(&r.reident), golden("sim_reident_smoke.csv"));
        assert_eq!(
            r.stats,
            SimStats {
                api_calls: 400_000,
                topics_returned: 95_058,
                noised_topics: 59_388,
                queries: 2_500,
                correct: r.reident.iter().map(|row| row.correct).sum(),
            },
            "--threads {threads}"
        );
        let r = run(&strong, threads).unwrap();
        assert_eq!(reident_csv(&r.reident), golden("sim_reident_strong.csv"));
    }
}
