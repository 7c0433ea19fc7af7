//! What one benchmark run prints: a JSON line per metric (value, unit,
//! sample count, quartiles) and a final result line with every metric
//! plus the count of operations and output checks attempted and failed.

use crate::stats::Summary;
use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The reported value (the median when there are several samples).
    pub value: f64,
    /// Samples behind the value.
    pub n: usize,
    /// First quartile of the samples.
    pub q1: f64,
    /// Third quartile of the samples.
    pub q3: f64,
}

/// Everything a workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in the order they were recorded.
    pub metrics: Vec<Metric>,
    /// Timed operations plus output checks attempted.
    pub attempted: u64,
    /// Timed operations plus output checks that failed.
    pub failed: u64,
    /// One line per failure, printed to stderr.
    pub failures: Vec<String>,
}

impl Report {
    /// Record an output check; a failure is counted and described.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Record timed operations that are not output checks.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Record the median and quartiles of a sample set (nothing for an
    /// empty set, which the completeness test then reports).
    pub fn samples(&mut self, name: &'static str, unit: &'static str, values: &[f64]) {
        if let Some(s) = Summary::of(values) {
            self.metrics.push(Metric {
                name,
                unit,
                value: s.median,
                n: s.n,
                q1: s.q1,
                q3: s.q3,
            });
        }
    }

    /// Record a single measured value or count.
    pub fn value(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.samples(name, unit, &[value]);
    }

    /// True when every operation and check succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// One JSON line per metric, tagged with the run's workload, seed
    /// and mode so that run sets can be compared later.
    pub fn metric_lines(&self, workload: &str, seed: u64, trace: bool) -> Vec<String> {
        self.metrics
            .iter()
            .map(|m| {
                format!(
                    "{{\"workload\":\"{workload}\",\"seed\":{seed},\"trace\":{},\"name\":\"{}\",\
                     \"value\":{},\"unit\":\"{}\",\"n\":{},\"q1\":{},\"q3\":{}}}",
                    u8::from(trace),
                    m.name,
                    num(m.value),
                    m.unit,
                    m.n,
                    num(m.q1),
                    num(m.q3),
                )
            })
            .collect()
    }

    /// The final result line.
    pub fn result_line(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push(',');
            }
            let _ = write!(
                metrics,
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            );
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
        )
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_the_contract_shape() {
        let mut r = Report::default();
        r.ops(10, 0);
        r.check(true, || unreachable!());
        r.samples("latency_p50_ms", "ms", &[1.25, 1.0, 1.5]);
        r.value("setup_s", "s", 0.8127);
        assert_eq!(
            r.result_line(),
            "{\"correct\":true,\"attempted\":11,\"failed\":0,\"metrics\":{\
             \"latency_p50_ms\":{\"value\":1.25,\"unit\":\"ms\"},\
             \"setup_s\":{\"value\":0.8127,\"unit\":\"s\"}}}"
        );
        let lines = r.metric_lines("query", 7, false);
        assert_eq!(
            lines[0],
            "{\"workload\":\"query\",\"seed\":7,\"trace\":0,\"name\":\"latency_p50_ms\",\
             \"value\":1.25,\"unit\":\"ms\",\"n\":3,\"q1\":1,\"q3\":1.5}"
        );
    }

    #[test]
    fn failed_checks_make_the_run_incorrect() {
        let mut r = Report::default();
        r.check(false, || "digest differs".to_owned());
        assert!(!r.correct());
        assert_eq!((r.attempted, r.failed), (1, 1));
        assert_eq!(r.failures, vec!["digest differs".to_owned()]);
    }
}
