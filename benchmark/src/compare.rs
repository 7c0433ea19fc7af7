//! `benchmark compare A.jsonl B.jsonl`: the noise-aware gate. Each file
//! holds the metric lines of a set of runs (one value per run); for every
//! workload and metric the two sets' medians and quartiles are compared
//! against the bound `BENCHMARK.json` fixes.

use crate::spec::{field, parse_json, Spec};
use crate::stats::{verdict, worsening, Summary, Verdict};
use serde::Content;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Run values keyed by (workload, metric).
pub type RunSet = BTreeMap<(String, String), Vec<f64>>;

/// Read the metric lines of a run set; result lines and blank lines
/// are skipped, anything else that is not JSON is an error.
pub fn read_set(text: &str) -> Result<RunSet, String> {
    let mut set = RunSet::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let json = parse_json(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let text_of = |key| field(&json, key).and_then(Content::as_str);
        if let (Some(workload), Some(name), Some(value)) = (
            text_of("workload"),
            text_of("name"),
            field(&json, "value").and_then(Content::as_f64),
        ) {
            set.entry((workload.to_owned(), name.to_owned()))
                .or_default()
                .push(value);
        }
    }
    Ok(set)
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Unit.
    pub unit: String,
    /// Base set.
    pub a: Summary,
    /// Candidate set.
    pub b: Summary,
    /// Relative change of the median, positive when worse.
    pub worse_by: f64,
    /// Verdict against the bound; `None` for per-layer metrics.
    pub verdict: Option<Verdict>,
}

/// Compare every metric of `spec` that both sets measured, workload by
/// workload in `spec` order.
pub fn compare(spec: &Spec, a: &RunSet, b: &RunSet) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in &spec.workloads {
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            let key = (workload.clone(), m.name.clone());
            let (Some(a), Some(b)) = (
                a.get(&key).and_then(|v| Summary::of(v)),
                b.get(&key).and_then(|v| Summary::of(v)),
            ) else {
                continue;
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: m.name.clone(),
                unit: m.unit.clone(),
                worse_by: worsening(a.median, b.median, m.better),
                verdict: m.bound.map(|bound| verdict(&a, &b, m.better, bound)),
                a,
                b,
            });
        }
    }
    rows
}

/// The comparison as a text table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<13} {:<36} {:<6} {:>34} {:>34} {:>8}  {}\n",
        "workload",
        "metric",
        "unit",
        "A median [q1 q3] n",
        "B median [q1 q3] n",
        "worse",
        "verdict"
    );
    let cell = |s: &Summary| format!("{:.4} [{:.4} {:.4}] {}", s.median, s.q1, s.q3, s.n);
    for r in rows {
        let _ = writeln!(
            out,
            "{:<13} {:<36} {:<6} {:>34} {:>34} {:>+7.2}%  {}",
            r.workload,
            r.metric,
            r.unit,
            cell(&r.a),
            cell(&r.b),
            r.worse_by * 100.0,
            r.verdict.map_or("no bound", Verdict::label),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::MetricSpec;
    use crate::stats::Better;

    fn line(workload: &str, name: &str, value: f64) -> String {
        format!(
            "{{\"workload\":\"{workload}\",\"seed\":1,\"trace\":0,\"name\":\"{name}\",\
             \"value\":{value},\"unit\":\"ms\",\"n\":1,\"q1\":{value},\"q3\":{value}}}\n"
        )
    }

    #[test]
    fn compares_each_workload_metric_against_its_bound() {
        let spec = Spec {
            workloads: vec!["w".to_owned()],
            end_to_end: vec![MetricSpec {
                name: "latency_p50_ms".to_owned(),
                unit: "ms".to_owned(),
                better: Better::Lower,
                bound: Some(0.1),
            }],
            per_layer: vec![MetricSpec {
                name: "layer_ms".to_owned(),
                unit: "ms".to_owned(),
                better: Better::Lower,
                bound: None,
            }],
        };
        let mut a = String::new();
        let mut b = String::new();
        for v in [100.0, 101.0, 99.0, 100.5, 99.5] {
            a += &line("w", "latency_p50_ms", v);
            b += &line("w", "latency_p50_ms", v * 1.2);
            a += &line("w", "layer_ms", v);
            b += &line("w", "layer_ms", v);
        }
        a += "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{}}\n";
        let rows = compare(&spec, &read_set(&a).unwrap(), &read_set(&b).unwrap());
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].verdict, Some(Verdict::Worse));
        assert!((rows[0].worse_by - 0.2).abs() < 1e-9);
        assert_eq!(rows[1].verdict, None);
        let table = render(&rows);
        assert!(
            table.contains("worse") && table.contains("no bound"),
            "{table}"
        );
    }

    #[test]
    fn rejects_lines_that_are_not_json() {
        assert!(read_set("{\"workload\": \"w\"}\nnot json\n").is_err());
        assert!(read_set("\n\n").unwrap().is_empty());
    }
}
