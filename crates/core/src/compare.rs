//! Paper-vs-measured comparison.
//!
//! For every quantity the paper reports, this module pairs the published
//! value with the value measured on the synthetic web and judges whether
//! the *shape* holds (EXPERIMENTS.md is generated from these rows). Pure
//! counts only make sense at the paper's 50,000-site scale; rate-style
//! metrics are checked at any scale.

use crate::lab::Evaluation;
use topics_analysis::abtest::{clustering_share, fit_fraction};
use topics_analysis::report::{pct, Table};

/// One comparison row.
#[derive(Debug, Clone)]
pub struct ComparisonRow {
    /// Which experiment (table/figure/section) the metric belongs to.
    pub experiment: &'static str,
    /// Metric name.
    pub metric: &'static str,
    /// The value the paper reports.
    pub paper: String,
    /// The value measured on the synthetic web.
    pub measured: String,
    /// `Some(ok)` when the row is checkable at this scale. At full scale
    /// every row is: a row without data is `Some(false)`.
    pub ok: Option<bool>,
}

fn row(
    experiment: &'static str,
    metric: &'static str,
    paper: impl Into<String>,
    measured: impl Into<String>,
    ok: Option<bool>,
) -> ComparisonRow {
    ComparisonRow {
        experiment,
        metric,
        paper: paper.into(),
        measured: measured.into(),
        ok,
    }
}

fn within(x: f64, lo: f64, hi: f64) -> Option<bool> {
    Some(x >= lo && x <= hi)
}

/// Build the full comparison. `full_scale` marks a 50,000-site campaign,
/// enabling the absolute-count checks.
pub fn comparison_rows(eval: &Evaluation, full_scale: bool) -> Vec<ComparisonRow> {
    let mut rows = Vec::new();
    let s = &eval.stats;
    let t = &eval.table1;
    let gate = |ok: Option<bool>| if full_scale { ok } else { None };

    // ---- §2.4 aggregates -------------------------------------------
    let visit_rate = s.visited as f64 / s.attempted.max(1) as f64;
    rows.push(row(
        "§2.4",
        "visited / attempted",
        "43,405 / 50,000 (86.8%)",
        format!("{} / {} ({})", s.visited, s.attempted, pct(visit_rate)),
        within(visit_rate, 0.84, 0.90),
    ));
    let accept_rate = s.accepted as f64 / s.visited.max(1) as f64;
    rows.push(row(
        "§2.4",
        "After-Accept share",
        "14,719 / 43,405 (33.9%)",
        format!("{} / {} ({})", s.accepted, s.visited, pct(accept_rate)),
        within(accept_rate, 0.25, 0.42),
    ));
    rows.push(row(
        "§2.4",
        "unique third parties",
        "19,534",
        s.unique_third_parties.to_string(),
        gate(within(s.unique_third_parties as f64, 14_000.0, 26_000.0)),
    ));

    // ---- Table 1 -----------------------------------------------------
    rows.push(row(
        "Table 1",
        "Allowed",
        "193",
        t.allowed_total.to_string(),
        Some(t.allowed_total == 193),
    ));
    rows.push(row(
        "Table 1",
        "Allowed & !Attested",
        "12",
        t.allowed_not_attested.to_string(),
        Some(t.allowed_not_attested == 12),
    ));
    rows.push(row(
        "Table 1",
        "D_AA Allowed & Attested callers",
        "47",
        t.daa_allowed_attested.to_string(),
        gate(within(t.daa_allowed_attested as f64, 38.0, 47.0)),
    ));
    rows.push(row(
        "Table 1",
        "D_AA !Allowed & Attested",
        "1 (distillery.com)",
        t.daa_not_allowed_attested.to_string(),
        gate(Some(t.daa_not_allowed_attested == 1)),
    ));
    rows.push(row(
        "Table 1",
        "D_AA !Allowed (anomalous)",
        "2,614",
        t.daa_not_allowed.to_string(),
        gate(within(t.daa_not_allowed as f64, 1_800.0, 3_600.0)),
    ));
    rows.push(row(
        "Table 1",
        "D_BA Allowed & Attested (questionable)",
        "28",
        t.dba_allowed_attested.to_string(),
        gate(within(t.dba_allowed_attested as f64, 20.0, 32.0)),
    ));
    rows.push(row(
        "Table 1",
        "D_BA !Allowed (questionable)",
        "1,308",
        t.dba_not_allowed.to_string(),
        gate(within(t.dba_not_allowed as f64, 800.0, 2_000.0)),
    ));

    // ---- §3 -----------------------------------------------------------
    rows.push(row(
        "§3",
        "D_AA sites with ≥1 legitimate call",
        "45%",
        pct(s.legitimate_coverage_aa),
        within(s.legitimate_coverage_aa, 0.35, 0.55),
    ));
    let ga_never_calls = eval
        .fig2
        .iter()
        .find(|r| r.cp.as_str() == "google-analytics.com")
        .map(|r| r.called == 0);
    rows.push(row(
        "Fig. 2",
        "google-analytics present-but-never-calls",
        "present on most sites, 0 calls",
        format!("{ga_never_calls:?}"),
        ga_never_calls,
    ));
    let dc = eval
        .fig2
        .iter()
        .find(|r| r.cp.as_str() == "doubleclick.net");
    rows.push(row(
        "Fig. 2",
        "doubleclick enabled fraction",
        "≈1/3 of sites where present",
        dc.map(|r| pct(r.enabled_fraction())).unwrap_or_default(),
        dc.map(|r| (0.22..=0.45).contains(&r.enabled_fraction())),
    ));
    let cluster = clustering_share(&eval.fig3, 0.08);
    rows.push(row(
        "Fig. 3",
        "CPs near canonical A/B fractions",
        "clusters at 100/75/66/50/33/25%",
        pct(cluster),
        within(cluster, 0.6, 1.0),
    ));
    let criteo = eval.fig3.iter().find(|r| r.cp.as_str() == "criteo.com");
    rows.push(row(
        "Fig. 3",
        "criteo.com enabled fraction",
        "75%",
        criteo
            .map(|r| pct(r.enabled_fraction()))
            .unwrap_or_default(),
        criteo.map(|r| fit_fraction(r.enabled_fraction()).nearest == 0.75),
    ));

    // ---- §4 -----------------------------------------------------------
    let a = &eval.anomalous;
    rows.push(row(
        "§4",
        "anomalous calls (D_AA)",
        "3,450",
        a.total_calls.to_string(),
        gate(within(a.total_calls as f64, 2_300.0, 5_000.0)),
    ));
    rows.push(row(
        "§4",
        "calls from same second-level label",
        "72%",
        pct(a.same_second_level_fraction),
        within(a.same_second_level_fraction, 0.60, 0.85),
    ));
    rows.push(row(
        "§4",
        "GTM on anomalous pages",
        "95%",
        pct(a.gtm_cooccurrence),
        within(a.gtm_cooccurrence, 0.88, 1.0),
    ));
    rows.push(row(
        "§4",
        "JavaScript call type",
        "100%",
        pct(a.javascript_fraction),
        within(a.javascript_fraction, 0.999, 1.0),
    ));

    // ---- §5 -----------------------------------------------------------
    let yandex_top = eval
        .fig5
        .first()
        .map(|r| r.cp.as_str().starts_with("yandex"));
    rows.push(row(
        "Fig. 5",
        "top questionable CP",
        "yandex.com (611 sites)",
        eval.fig5
            .first()
            .map(|r| format!("{} ({})", r.cp, r.websites))
            .unwrap_or_default(),
        yandex_top,
    ));
    let dc_questionable = eval.fig5.iter().any(|r| r.cp.as_str() == "doubleclick.net");
    rows.push(row(
        "Fig. 5",
        "doubleclick Before-Accept calls",
        "0",
        if dc_questionable { ">0" } else { "0" }.to_owned(),
        Some(!dc_questionable),
    ));
    let hubspot = eval
        .fig7
        .rows
        .iter()
        .find(|r| r.cmp.spec().name == "HubSpot");
    let hubspot_ratio = hubspot.map(|h| {
        if h.p_cmp > 0.0 {
            h.p_cmp_given_questionable / h.p_cmp
        } else {
            0.0
        }
    });
    rows.push(row(
        "Fig. 7",
        "HubSpot over-representation",
        "≈3×",
        hubspot_ratio
            .map(|r| format!("{r:.1}×"))
            .unwrap_or_default(),
        hubspot_ratio.map(|r| (1.5..=4.5).contains(&r)),
    ));
    let hubspot_q = hubspot.map(|h| h.p_questionable_given_cmp());
    rows.push(row(
        "Fig. 7",
        "P(questionable | HubSpot)",
        "12% (≈2× average)",
        hubspot_q.map(pct).unwrap_or_default(),
        hubspot_q.map(|q| q > 1.5 * eval.fig7.p_questionable()),
    ));

    // ---- timeline ------------------------------------------------------
    let first = eval.timeline.first.map(|f| f.to_date());
    rows.push(row(
        "§3",
        "first attestation",
        "2023-06-16",
        first
            .map(|(y, m, d)| format!("{y:04}-{m:02}-{d:02}"))
            .unwrap_or_default(),
        first.map(|(y, m, _)| (y, m) == (2023, 6)),
    ));
    rows.push(row(
        "§3",
        "enrolments per month",
        "≈a dozen",
        format!("{:.1}", eval.timeline.monthly_rate()),
        Some((6.0..=25.0).contains(&eval.timeline.monthly_rate())),
    ));

    // At full scale the scale gate passes every check through, so a row
    // left unchecked is one whose value is absent (a platform the paper
    // names that never called, say): a deviation, not "n/a".
    if full_scale {
        for r in rows.iter_mut().filter(|r| r.ok.is_none()) {
            r.measured = "no data".to_owned();
            r.ok = Some(false);
        }
    }
    rows
}

/// Render the comparison as text.
pub fn render_comparison(rows: &[ComparisonRow]) -> String {
    let mut t = Table::new(["experiment", "metric", "paper", "measured", "shape"]);
    for r in rows {
        t.row(vec![
            r.experiment.to_owned(),
            r.metric.to_owned(),
            r.paper.clone(),
            r.measured.clone(),
            match r.ok {
                Some(true) => "OK".into(),
                Some(false) => "DEVIATES".into(),
                None => "n/a at this scale".into(),
            },
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{evaluate, Lab, LabConfig};

    #[test]
    fn comparison_builds_at_small_scale() {
        let lab = Lab::new(LabConfig::quick(73, 800).with_threads(4));
        let outcome = lab.run();
        let eval = evaluate(&outcome);
        let rows = comparison_rows(&eval, false);
        assert!(rows.len() >= 18);
        // Scale-gated rows must be n/a at small scale.
        let anomalous_count = rows
            .iter()
            .find(|r| r.metric == "anomalous calls (D_AA)")
            .unwrap();
        assert!(anomalous_count.ok.is_none());
        // Rate rows are checkable.
        let visit = rows
            .iter()
            .find(|r| r.metric == "visited / attempted")
            .unwrap();
        assert_eq!(
            visit.ok,
            Some(true),
            "visit rate in band: {}",
            visit.measured
        );
        // Table-level identity checks hold at any scale.
        let allowed = rows.iter().find(|r| r.metric == "Allowed").unwrap();
        assert_eq!(allowed.ok, Some(true));
        let render = render_comparison(&rows);
        assert!(render.contains("paper"));
        assert!(render.contains("§4"));
    }

    #[test]
    fn missing_data_deviates_at_full_scale_only() {
        let lab = Lab::new(LabConfig::quick(73, 800).with_threads(4));
        let mut eval = evaluate(&lab.run());
        eval.fig3.retain(|r| r.cp.as_str() != "criteo.com");
        let criteo = |full_scale| {
            comparison_rows(&eval, full_scale)
                .into_iter()
                .find(|r| r.metric == "criteo.com enabled fraction")
                .unwrap()
        };
        let full = criteo(true);
        assert_eq!((full.measured.as_str(), full.ok), ("no data", Some(false)));
        assert!(render_comparison(&[full]).contains("DEVIATES"));
        assert_eq!(criteo(false).ok, None);
        // Rows with data keep their verdicts at full scale; only the
        // missing one changes.
        let (small, full) = (comparison_rows(&eval, false), comparison_rows(&eval, true));
        for (s, f) in small.iter().zip(&full) {
            if s.ok.is_some() {
                assert_eq!((s.ok, &s.measured), (f.ok, &f.measured), "{}", s.metric);
            }
        }
    }
}
