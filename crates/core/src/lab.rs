//! World construction, campaign execution, and the evaluation bundle.

use crate::config::LabConfig;
use topics_analysis::anomalous::{anomalous_stats, render_anomalous, AnomalousStats};
use topics_analysis::calltypes::{call_type_mix, render_call_types, CallTypeMix};
use topics_analysis::cmp_usage::{fig7, render_fig7, Fig7};
use topics_analysis::concentration::{concentration, render_concentration, Concentration};
use topics_analysis::dataset::{DatasetId, Datasets};
use topics_analysis::figures::{
    fig2, fig3, fig5, fig6, render_fig2, render_fig3, render_fig5, render_fig6, GeoRow,
    PresenceRow, QuestionableRow,
};
use topics_analysis::report::pct;
use topics_analysis::table1::{table1, Table1};
use topics_analysis::timeline::{render_timeline, timeline, Timeline};
use topics_crawler::campaign::{run_campaign_observed, CampaignConfig};
use topics_crawler::metrics::tally_outcome;
use topics_crawler::record::CampaignOutcome;
use topics_obs::{MetricsSnapshot, Obs};
use topics_webgen::World;

/// A built world plus a campaign configuration, ready to run.
pub struct Lab {
    /// The synthetic web.
    pub world: World,
    /// The crawl parameters.
    pub campaign: CampaignConfig,
}

/// A finished campaign: the outcome plus the metrics snapshot taken
/// right after the crawl. Derefs to [`CampaignOutcome`], so existing
/// call sites keep working unchanged.
#[derive(Debug, Clone)]
pub struct CampaignRun {
    /// The measurement records.
    pub outcome: CampaignOutcome,
    /// Snapshot of every metric the run produced (live crawl series
    /// plus the authoritative tally).
    pub metrics: MetricsSnapshot,
}

impl std::ops::Deref for CampaignRun {
    type Target = CampaignOutcome;
    fn deref(&self) -> &CampaignOutcome {
        &self.outcome
    }
}

impl Lab {
    /// Generate the world for a configuration.
    pub fn new(config: LabConfig) -> Lab {
        Lab {
            world: World::generate(config.world),
            campaign: config.campaign,
        }
    }

    /// Run the measurement campaign with a private observability handle
    /// and return the outcome together with its metrics snapshot.
    pub fn run(&self) -> CampaignRun {
        self.run_observed(&Obs::new())
    }

    /// Run the measurement campaign against a caller-supplied
    /// observability handle (the CLI passes one wired to stderr and its
    /// metrics and trace files). Live series fill `obs.metrics` while
    /// the crawl runs; the authoritative tally is added before the
    /// snapshot is taken.
    pub fn run_observed(&self, obs: &Obs) -> CampaignRun {
        #[cfg(feature = "mem-regression-fixture")]
        let fixture_before = topics_obs::alloc::global_stats().alloc_bytes;
        let outcome =
            run_campaign_observed(&self.world, &self.campaign, Some(obs), |done, total| {
                obs.events.info(
                    "progress",
                    vec![
                        ("done".to_owned(), done.into()),
                        ("total".to_owned(), total.into()),
                    ],
                );
            });
        tally_outcome(&outcome, &obs.metrics);
        // CI-only regression fixture: double the run's heap footprint by
        // allocating ballast equal to what the campaign itself used, so
        // the perf-smoke memory gate demonstrably fires.
        #[cfg(feature = "mem-regression-fixture")]
        topics_obs::alloc::ballast(
            topics_obs::alloc::global_stats()
                .alloc_bytes
                .saturating_sub(fixture_before),
        );
        CampaignRun {
            metrics: obs.metrics.snapshot(),
            outcome,
        }
    }
}

/// Aggregate §2.4 statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignStats {
    /// Sites attempted.
    pub attempted: usize,
    /// |D_BA| — successfully visited.
    pub visited: usize,
    /// |D_AA| — banner accepted, second visit done.
    pub accepted: usize,
    /// Distinct third parties across D_BA.
    pub unique_third_parties: usize,
    /// Share of D_AA sites with ≥1 legitimate Topics call (§3's 45%).
    pub legitimate_coverage_aa: f64,
    /// Median simulated page-load time across D_BA (latency model).
    pub median_page_load_ms: u64,
    /// Per-outcome site counts: `complete + degraded + failed ==
    /// attempted`. Degraded is always 0 without a fault profile.
    pub outcomes: topics_crawler::record::OutcomeCounts,
}

/// Everything the paper's evaluation section reports, computed from one
/// campaign.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// §2.4 aggregates.
    pub stats: CampaignStats,
    /// Table 1.
    pub table1: Table1,
    /// Figure 2 rows (top 15).
    pub fig2: Vec<PresenceRow>,
    /// Figure 3 rows (top 15 by enabled fraction).
    pub fig3: Vec<PresenceRow>,
    /// Figure 5 rows (top 15 questionable CPs).
    pub fig5: Vec<QuestionableRow>,
    /// Figure 6 rows (top 4 questionable CPs by region).
    pub fig6: Vec<GeoRow>,
    /// Figure 7.
    pub fig7: Fig7,
    /// §4 anomalous statistics over D_AA.
    pub anomalous: AnomalousStats,
    /// Call-type mix over D_AA (§2.2).
    pub call_types: CallTypeMix,
    /// Concentration of legitimate call volume over D_AA.
    pub concentration: Concentration,
    /// §3 enrolment timeline.
    pub timeline: Timeline,
}

/// Compute the full evaluation from a campaign outcome.
pub fn evaluate(outcome: &CampaignOutcome) -> Evaluation {
    let ds = Datasets::new(outcome);
    let fig5_rows = fig5(&ds, 15);
    let top4: Vec<_> = fig5_rows.iter().take(4).map(|r| r.cp.clone()).collect();
    Evaluation {
        stats: CampaignStats {
            attempted: outcome.sites.len(),
            visited: outcome.visited_count(),
            accepted: outcome.accepted_count(),
            unique_third_parties: ds.unique_third_parties(),
            legitimate_coverage_aa: ds.legitimate_coverage(DatasetId::AfterAccept),
            median_page_load_ms: ds.median_visit_duration_ms(DatasetId::BeforeAccept),
            outcomes: ds.outcome_counts(),
        },
        table1: table1(&ds),
        fig2: fig2(&ds, 15),
        fig3: fig3(&ds, 15),
        fig6: fig6(&ds, &top4),
        fig5: fig5_rows,
        fig7: fig7(&ds),
        anomalous: anomalous_stats(&ds, DatasetId::AfterAccept),
        call_types: call_type_mix(&ds, DatasetId::AfterAccept),
        concentration: concentration(&ds, DatasetId::AfterAccept),
        timeline: timeline(outcome),
    }
}

impl Evaluation {
    /// Render the full evaluation as a plain-text report.
    pub fn render_report(&self) -> String {
        let mut out = String::new();
        out.push_str("== Campaign (§2.4) ==\n");
        out.push_str(&format!(
            "attempted {}  visited (D_BA) {}  accepted (D_AA) {} ({})\n",
            self.stats.attempted,
            self.stats.visited,
            self.stats.accepted,
            pct(self.stats.accepted as f64 / self.stats.visited.max(1) as f64),
        ));
        out.push_str(&format!(
            "unique third parties {}  legitimate coverage of D_AA {}  median page load {} ms\n",
            self.stats.unique_third_parties,
            pct(self.stats.legitimate_coverage_aa),
            self.stats.median_page_load_ms,
        ));
        out.push_str(&format!(
            "site outcomes: {} complete, {} degraded, {} failed\n",
            self.stats.outcomes.complete, self.stats.outcomes.degraded, self.stats.outcomes.failed,
        ));
        if self.stats.outcomes.degraded > 0 {
            out.push_str(&format!(
                "NOTE: degraded coverage on {} of {} visited sites (retries/timeouts under fault injection) — rate-style results carry extra noise\n",
                self.stats.outcomes.degraded, self.stats.visited,
            ));
        }
        out.push('\n');
        out.push_str("== Table 1 ==\n");
        out.push_str(&self.table1.render());
        out.push('\n');
        out.push_str(&render_fig2(&self.fig2));
        out.push('\n');
        out.push_str(&render_fig3(&self.fig3));
        out.push('\n');
        out.push_str(&render_fig5(&self.fig5));
        out.push('\n');
        out.push_str(&render_fig6(&self.fig6));
        out.push('\n');
        out.push_str(&render_fig7(&self.fig7));
        out.push('\n');
        out.push_str(&render_anomalous(&self.anomalous));
        out.push('\n');
        out.push_str(&render_call_types(&self.call_types));
        out.push('\n');
        out.push_str(&render_concentration(&self.concentration));
        out.push('\n');
        out.push_str(&render_timeline(&self.timeline));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_lab_end_to_end() {
        let lab = Lab::new(crate::LabConfig::quick(71, 600).with_threads(4));
        let outcome = lab.run();
        let eval = evaluate(&outcome);
        assert_eq!(eval.stats.attempted, 600);
        assert!(eval.stats.visited > 480);
        assert!(eval.stats.accepted > 100);
        assert!(eval.stats.unique_third_parties > 100);
        // Without faults the outcome partition is degenerate.
        assert_eq!(eval.stats.outcomes.degraded, 0);
        assert_eq!(eval.stats.outcomes.total(), 600);
        // The report renders every section.
        let report = eval.render_report();
        assert!(report.contains("site outcomes:"));
        assert!(
            !report.contains("NOTE: degraded"),
            "no degraded note without faults"
        );
        for needle in [
            "Table 1",
            "Figure 2",
            "Figure 3",
            "Figure 5",
            "Figure 6",
            "Figure 7",
            "anomalous",
            "enrolment",
        ] {
            assert!(report.contains(needle), "missing section {needle}");
        }
    }
}
