//! `topics-lab simulate` orchestration: the population-scale
//! simulation engine of [`topics_baseline::simulate`] wired into the
//! repo's observability spine.
//!
//! The baseline crate stays obs-free (its engine is a pure function of
//! the config); this module wraps each stage in a phase span —
//! `sim-universe`, `sim-advance`, `sim-kanon`, `sim-attack` — so wall
//! time and (under `--alloc-stats`) heap attribution land in the trace
//! and metrics exactly like the crawl phases, writes the curve
//! artefacts, and publishes the simulation counters the integration
//! tests reconcile against.

use std::path::Path;
use topics_baseline::simulate::{self, SimConfig, SimRun};
use topics_obs::{MetricsRegistry, Obs, Word};

/// File name of the k-anonymity curve CSV.
pub const SIM_KANON_FILE: &str = "sim_kanon.csv";
/// File name of the re-identification curve CSV.
pub const SIM_REIDENT_FILE: &str = "sim_reident.csv";
/// File name of the human-readable simulation report.
pub const SIM_REPORT_FILE: &str = "sim_report.txt";

/// Run the whole simulation under phase observation: universe →
/// arena advancement → k-anonymity curve → collection + linkage
/// attack. The artefacts depend only on `(cfg, threads ≥ 1)` — and
/// not on the `threads` value.
pub fn run_simulation(cfg: &SimConfig, threads: usize, obs: &Obs) -> Result<SimRun, String> {
    cfg.validate()?;
    let universe = {
        let _span = obs.phase(Word::SimUniverse);
        simulate::build_universe(cfg)
    };
    let arena = {
        let _span = obs.phase(Word::SimAdvance);
        simulate::build_arena(cfg, &universe, threads)?
    };
    let kanon = {
        let _span = obs.phase(Word::SimKanon);
        simulate::kanon_curve(&arena, threads)
    };
    let (reident, stats) = {
        let _span = obs.phase(Word::SimAttack);
        simulate::reident_curve(cfg, &universe, &arena, threads)
    };
    Ok(SimRun {
        config: *cfg,
        kanon,
        reident,
        stats,
        visits_total: arena.visits_total(),
        arena_bytes: arena.heap_bytes(),
    })
}

/// Write the simulation artefacts — both curve CSVs plus the report —
/// into `dir` (created if absent).
pub fn write_sim_artefacts(dir: &Path, run: &SimRun) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    for (name, body) in [
        (SIM_KANON_FILE, simulate::kanon_csv(&run.kanon)),
        (SIM_REIDENT_FILE, simulate::reident_csv(&run.reident)),
        (SIM_REPORT_FILE, simulate::render_sim_report(run)),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, body).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(())
}

/// Publish the simulation's shape and counters into a metrics
/// registry. `sim_api_calls_total` reconciles exactly against
/// `users × context × window × 2` and `sim_correct_total` against the
/// re-identification CSV's `correct` column — the `doctor`-style
/// cross-checks the simulate integration tests assert.
pub fn publish_sim_metrics(run: &SimRun, metrics: &MetricsRegistry) {
    let c = &run.config;
    metrics.gauge("sim_users").set(c.users as i64);
    metrics.gauge("sim_epochs").set(c.epochs as i64);
    metrics.gauge("sim_window").set(c.window as i64);
    metrics
        .gauge("sim_sample_users")
        .set(c.sample.min(c.users) as i64);
    metrics.gauge("sim_arena_bytes").set(run.arena_bytes as i64);
    metrics.counter("sim_visits_total").add(run.visits_total);
    metrics
        .counter("sim_api_calls_total")
        .add(run.stats.api_calls);
    metrics
        .counter("sim_topics_returned_total")
        .add(run.stats.topics_returned);
    metrics
        .counter("sim_noised_topics_total")
        .add(run.stats.noised_topics);
    metrics.counter("sim_queries_total").add(run.stats.queries);
    metrics.counter("sim_correct_total").add(run.stats.correct);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SimConfig {
        SimConfig {
            sites: 200,
            visits_per_epoch: 10,
            context_sites: 8,
            sample: 100,
            ..SimConfig::new(5, 100, 5)
        }
    }

    #[test]
    fn phases_land_in_the_trace() {
        let obs = Obs::new().with_trace();
        let run = run_simulation(&tiny(), 2, &obs).unwrap();
        assert_eq!(run.kanon.len(), 5);
        let trace = obs.trace.finish();
        for phase in [
            Word::SimUniverse,
            Word::SimAdvance,
            Word::SimKanon,
            Word::SimAttack,
        ] {
            assert_eq!(trace.count_named(phase), 1, "{phase}");
        }
        let report = crate::doctor::diagnose(None, &trace, 5);
        assert!(report.is_healthy(), "{:?}", report.violations());
        assert!(report.render().contains("sim-advance"));
    }

    #[test]
    fn artefacts_write_and_metrics_reconcile() {
        let obs = Obs::new();
        let cfg = tiny();
        let run = run_simulation(&cfg, 2, &obs).unwrap();
        publish_sim_metrics(&run, &obs.metrics);
        let snap = obs.metrics.snapshot();
        assert_eq!(snap.gauge("sim_users"), 100);
        assert_eq!(
            snap.counter("sim_api_calls_total"),
            cfg.users as u64 * cfg.context_sites as u64 * cfg.window * 2
        );
        assert_eq!(
            snap.counter("sim_correct_total"),
            run.reident.iter().map(|r| r.correct).sum::<u64>()
        );
        assert_eq!(
            snap.counter("sim_queries_total"),
            cfg.sample.min(cfg.users) as u64 * cfg.window
        );
        assert!(snap.counter("sim_visits_total") > 0);

        let dir = std::env::temp_dir().join(format!("topics-sim-art-{}", std::process::id()));
        write_sim_artefacts(&dir, &run).unwrap();
        let kanon = std::fs::read_to_string(dir.join(SIM_KANON_FILE)).unwrap();
        assert!(kanon.starts_with("epoch,"));
        let reident = std::fs::read_to_string(dir.join(SIM_REIDENT_FILE)).unwrap();
        assert_eq!(reident.lines().count(), 1 + cfg.window as usize);
        let report = std::fs::read_to_string(dir.join(SIM_REPORT_FILE)).unwrap();
        assert!(report.contains("100 users × 5 epochs"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn invalid_config_is_rejected_before_any_phase() {
        let obs = Obs::new().with_trace();
        let bad = SimConfig { users: 1, ..tiny() };
        assert!(run_simulation(&bad, 2, &obs).is_err());
        assert_eq!(obs.trace.finish().count_named(Word::SimUniverse), 0);
    }
}
