//! `BENCHMARK.json`: the workloads and metrics the benchmark promises,
//! and the regression bound of each end-to-end metric.

use crate::stats::Better;
use serde::{Content, Deserialize, Error};

/// A JSON value as the vendored `serde_json` parses it.
pub struct Json(pub Content);

impl Deserialize for Json {
    fn from_content(content: &Content) -> Result<Json, Error> {
        Ok(Json(content.clone()))
    }
}

/// Parse any JSON text into its content tree.
pub fn parse_json(text: &str) -> Result<Content, String> {
    serde_json::from_str::<Json>(text)
        .map(|j| j.0)
        .map_err(|e| e.to_string())
}

/// The value under `key` of a JSON object.
pub fn field<'a>(content: &'a Content, key: &str) -> Option<&'a Content> {
    serde::map_get(content.as_map_slice()?, key)
}

/// One metric entry.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Which direction is an improvement.
    pub better: Better,
    /// Share of the base median the metric may worsen by; `None` for
    /// per-layer metrics.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark itself reads.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// End-to-end metrics, each with a bound.
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics.
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// Parse the text of `BENCHMARK.json`.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let root = parse_json(text)?;
        let list = |key: &str| -> Result<&[Content], String> {
            field(&root, key)
                .and_then(Content::as_seq)
                .ok_or_else(|| format!("BENCHMARK.json: `{key}` is not a list"))
        };
        let text_of = |entry: &Content, key: &str| -> Result<String, String> {
            field(entry, key)
                .and_then(Content::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("BENCHMARK.json: an entry has no `{key}`"))
        };
        let metrics = |key: &str, bounded: bool| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|entry| {
                    let name = text_of(entry, "name")?;
                    let better = match text_of(entry, "better")?.as_str() {
                        "lower" => Better::Lower,
                        "higher" => Better::Higher,
                        other => return Err(format!("{name}: `better` is {other}")),
                    };
                    let bound = match bounded {
                        true => Some(
                            field(entry, "bound")
                                .and_then(Content::as_f64)
                                .ok_or_else(|| format!("{name}: no numeric `bound`"))?,
                        ),
                        false => None,
                    };
                    Ok(MetricSpec {
                        unit: text_of(entry, "unit")?,
                        name,
                        better,
                        bound,
                    })
                })
                .collect()
        };
        Ok(Spec {
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end", true)?,
            per_layer: metrics("per_layer", false)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_metrics_with_direction_and_bound() {
        let spec = Spec::parse(
            r#"{"command": ["x"], "workloads": [{"name": "a", "why": "w"}],
                "end_to_end": [{"name": "t", "unit": "ms", "better": "lower", "bound": 0.1}],
                "per_layer": [{"name": "c", "unit": "count", "better": "higher"}]}"#,
        )
        .unwrap();
        assert_eq!(spec.workloads, vec!["a".to_owned()]);
        assert_eq!(spec.end_to_end[0].bound, Some(0.1));
        assert_eq!(spec.end_to_end[0].better, Better::Lower);
        assert_eq!(spec.per_layer[0].better, Better::Higher);
        assert_eq!(spec.per_layer[0].bound, None);
    }

    #[test]
    fn rejects_a_missing_bound() {
        let err = Spec::parse(
            r#"{"workloads": [], "per_layer": [],
                "end_to_end": [{"name": "t", "unit": "ms", "better": "lower"}]}"#,
        )
        .unwrap_err();
        assert!(err.contains("bound"), "{err}");
    }
}
