//! `simulate`: the population engine alone. Each operation's set-up
//! builds the site universe and advances the population through every
//! epoch; the operation computes the two privacy curves from it (the
//! k-anonymity curve and the re-identification attack), whose CSVs must
//! repeat byte for byte. The population is the curves' input as the
//! world is the crawl's in `paper-crawl`.

use super::{timed_loop, Layers, RunSpec, THREADS};
use crate::report::Report;
use std::time::Instant;
use topics_core::baseline::simulate::{
    build_arena, build_universe, kanon_csv, kanon_curve, reident_csv, reident_curve, SimConfig,
};
use topics_core::baseline::{PopulationArena, SiteUniverse};
use topics_core::net::seed::fnv1a;

pub fn simulate(spec: &RunSpec<'_>) -> Report {
    let mut report = Report::default();
    let mut layers = Layers::new(spec.traced);
    let cfg = SimConfig {
        sample: spec.scale.sim_sample,
        ..SimConfig::new(spec.seed, spec.scale.sim_users, spec.scale.sim_epochs)
    };
    let setup = || {
        let universe = layers.span("baseline.universe", || build_universe(&cfg));
        let arena = layers.span("baseline.advance", || build_arena(&cfg, &universe, THREADS));
        (universe, arena)
    };

    let user_epochs = (cfg.users as u64 * cfg.epochs) as f64;
    let mut reference = None;
    let mut last_stats = None;
    let (mut rate, mut op_ms, mut attack_ms, mut failed) = (Vec::new(), Vec::new(), Vec::new(), 0);
    let mut op = |(universe, arena): &(SiteUniverse, Result<PopulationArena, String>),
                  timed: bool| {
        let arena = match arena {
            Ok(arena) => arena,
            Err(e) => {
                failed += 1;
                report.failures.push(e.clone());
                return;
            }
        };
        let started = Instant::now();
        let kanon = layers.span("baseline.kanon", || kanon_curve(arena, THREADS));
        let attack_started = Instant::now();
        let (reident, stats) = layers.span("baseline.attack", || {
            reident_curve(&cfg, universe, arena, THREADS)
        });
        let done = Instant::now();
        let digest = fnv1a((kanon_csv(&kanon) + &reident_csv(&reident)).as_bytes());
        let reference = *reference.get_or_insert(digest);
        report.check(digest == reference, || {
            format!(
                "simulate CSV digest {digest:016x} differs from the first run's {reference:016x}"
            )
        });
        last_stats = Some((stats, arena.heap_bytes()));
        if timed {
            let secs = (done - started).as_secs_f64();
            rate.push(user_epochs / secs);
            op_ms.push(secs * 1000.0);
            attack_ms.push((done - attack_started).as_secs_f64() * 1000.0);
        }
    };

    if spec.traced {
        let state = setup();
        op(&state, true);
        report.ops(1 + failed, failed);
        if let Some((stats, arena_bytes)) = last_stats {
            layers.set("baseline.arena_bytes", arena_bytes as f64);
            layers.set("baseline.queries", stats.queries as f64);
            layers.set("baseline.api_calls", stats.api_calls as f64);
        }
        layers.finish(&mut report);
    } else {
        let setup_s = timed_loop(spec.seconds, setup, op);
        report.ops(op_ms.len() as u64 + failed, failed);
        report.samples("setup_s", "s", &setup_s);
        report.samples("throughput_per_s", "1/s", &rate);
        report.samples("latency_p50_ms", "ms", &op_ms);
        report.samples("stage_ms", "ms", &attack_ms);
    }
    report
}
