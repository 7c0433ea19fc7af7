//! Population engine — the `simulate` arena, its accuracy and its stages.
//!
//! Two sweeps print the re-identification attack's accuracy at the last
//! checkpoint of [`simulate::run`]:
//!
//! * noise ∈ {0, 0.05, 0.15, 0.3, 0.6} at the strong-golden shape (500
//!   users, 12 epochs, panels covering the whole 200-site universe) —
//!   how much the per-slot random replacement hides;
//! * users ∈ {500, 2,000, 5,000} at 8 epochs over 1,000 sites, every
//!   user queried — how the crowd dilutes the linkage, with the
//!   engine's wall time.
//!
//! Criterion then times the engine's three stages (advance, k-anonymity,
//! attack) at 10,000 users.

use criterion::Criterion;
use std::hint::black_box;
use std::time::Instant;
use topics_bench::{banner, BENCH_SEED};
use topics_core::baseline::{simulate, ReidentRow, SimConfig};

/// The last checkpoint of one full `simulate` run, and its wall time.
fn last_checkpoint(cfg: &SimConfig, threads: usize) -> (ReidentRow, u64) {
    let started = Instant::now();
    let run = simulate::run(cfg, threads).expect("bench config validates");
    let ms = started.elapsed().as_millis() as u64;
    (*run.reident.last().expect("window ≥ 1"), ms)
}

fn main() {
    banner("Population engine — arena accuracy sweeps and stage timings");
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    eprintln!(
        "{:>6} {:>9} {:>9}  (500 users, 12 epochs, 200 sites, 2 × 100-site panels, seed 7)",
        "noise", "correct", "accuracy"
    );
    for noise in [0.0, 0.05, 0.15, 0.3, 0.6] {
        let cfg = SimConfig {
            sites: 200,
            context_sites: 100,
            sample: 500,
            noise,
            ..SimConfig::new(7, 500, 12)
        };
        let (row, _) = last_checkpoint(&cfg, threads);
        eprintln!(
            "{noise:>6.2} {:>5}/{:<3} {:>9.3}",
            row.correct,
            row.queries,
            row.accuracy()
        );
    }

    eprintln!(
        "\n{:>6} {:>13} {:>9} {:>12} {:>10}  (8 epochs, 1,000 sites, 15 visits/epoch, {threads} threads)",
        "users", "correct", "accuracy", "random floor", "engine ms"
    );
    for users in [500usize, 2_000, 5_000] {
        let cfg = SimConfig {
            sites: 1_000,
            visits_per_epoch: 15,
            sample: users,
            ..SimConfig::new(BENCH_SEED, users, 8)
        };
        let (row, ms) = last_checkpoint(&cfg, threads);
        eprintln!(
            "{users:>6} {:>6}/{:<6} {:>9.4} {:>12.6} {ms:>10}",
            row.correct,
            row.queries,
            row.accuracy(),
            row.random_floor()
        );
    }
    eprintln!();

    let cfg = SimConfig {
        sites: 1_000,
        visits_per_epoch: 15,
        sample: 2_000,
        ..SimConfig::new(BENCH_SEED, 10_000, 8)
    };
    let sim_universe = simulate::build_universe(&cfg);
    let arena = simulate::build_arena(&cfg, &sim_universe, threads).expect("config validates");
    let mut c = Criterion::default().sample_size(10).configure_from_args();
    c.bench_function("sim/advance_10k_users_8_epochs", |b| {
        b.iter(|| black_box(simulate::build_arena(&cfg, &sim_universe, threads).unwrap()))
    });
    c.bench_function("sim/kanon_10k_users", |b| {
        b.iter(|| black_box(simulate::kanon_curve(&arena, threads)))
    });
    c.bench_function("sim/attack_10k_users_2k_sample", |b| {
        b.iter(|| {
            black_box(simulate::reident_curve(
                &cfg,
                &sim_universe,
                &arena,
                threads,
            ))
        })
    });
    c.final_summary();
}
