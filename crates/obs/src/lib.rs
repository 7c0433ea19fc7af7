//! # topics-obs — observability for the reproduction pipeline
//!
//! A dependency-light metrics + tracing layer shared by every stage of
//! the crawl pipeline (world generation, crawl, attestation probing,
//! analysis, export):
//!
//! * [`metrics`] — a [`MetricsRegistry`] of named atomic counters,
//!   gauges and fixed-bucket latency histograms, snapshotted into a
//!   serialisable [`MetricsSnapshot`] with a Prometheus-style text
//!   exposition;
//! * [`trace`] — a hierarchical span [`Tracer`] carrying both the
//!   simulated campaign clock and wall-clock timings, with JSONL and
//!   Chrome trace-event sinks;
//! * [`events`] — the [`EventLog`], a stderr logger that stores
//!   nothing (every fact it prints is also in the metrics or the trace).
//!
//! The three are bundled in [`Obs`], the handle the pipeline threads
//! share; [`Obs::phase`] records one pipeline phase into all of them.
//! Determinism contract: every metric derived from the simulated world
//! is reproducible bit-for-bit for a fixed seed; every wall-clock
//! measurement carries `wall` in its metric name, and every
//! memory-accounting series carries a `mem_`/`alloc_` prefix, so
//! [`MetricsSnapshot::strip_wall_clock`] can separate operational data
//! from the deterministic view.
//!
//! A fourth pillar, [`alloc`], adds opt-in allocation accounting: an
//! instrumented `#[global_allocator]` wrapper whose per-thread and
//! process-wide counters feed `alloc_bytes`/`peak_bytes` span
//! attributes and `mem_*` gauges. It is the one module allowed to use
//! `unsafe` (a `GlobalAlloc` impl is an unsafe trait); the rest of the
//! crate stays deny-by-default.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod events;
pub mod metrics;
pub mod profile;
pub mod trace;
pub mod vocab;

pub use alloc::{AllocDelta, AllocSpan, AllocStats, CountingAlloc, WindowSpan};
pub use events::{EventLog, FieldValue, Level};
pub use metrics::{
    escape_label_value, labeled, Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry,
    MetricsSnapshot,
};
pub use profile::{profile, Integrity, Profile};
pub use trace::{
    merge_stripped, MergeRule, SpanRecord, Trace, TraceBuilder, Tracer, TracerSpan,
    ALLOC_FIELD_KEYS,
};
pub use vocab::{Text, Word};

use std::time::Instant;

/// The shared observability handle: one metric registry, one stderr
/// logger, and one (default-disabled) span tracer. Cheap to share
/// across crawl workers behind an `Arc` (all inner state is atomic or
/// mutex-guarded).
#[derive(Debug, Default)]
pub struct Obs {
    /// Named counters, gauges and histograms.
    pub metrics: MetricsRegistry,
    /// The stderr logger.
    pub events: EventLog,
    /// Hierarchical span tracer; disabled unless [`Obs::with_trace`]
    /// was called (disabled recording costs one branch per span site).
    pub trace: Tracer,
}

impl Obs {
    /// A silent observability handle (no stderr echo).
    pub fn new() -> Obs {
        Obs::default()
    }

    /// An observability handle that echoes info events to stderr (the
    /// CLI front end), unless `TOPICS_LOG=off`.
    pub fn with_stderr_echo() -> Obs {
        Obs {
            events: EventLog::new().with_stderr_echo(),
            ..Obs::default()
        }
    }

    /// Enable hierarchical span tracing (CLI `--trace-out`).
    #[must_use]
    pub fn with_trace(mut self) -> Obs {
        self.trace = Tracer::enabled();
        self
    }

    /// Start a pipeline phase. On drop (or [`PhaseGuard::end`]) the
    /// guard sets the `phase_wall_us{phase="…"}` gauge and echoes one
    /// `span` line. Wall-clock by design — phase gauges are stripped
    /// before determinism comparisons. When tracing is enabled the
    /// guard also opens a top-level trace span of the same name, and
    /// when the counting allocator is on ([`alloc::set_enabled`]) the
    /// guard attributes the phase's process-wide allocation delta to
    /// that span plus `mem_phase_alloc_bytes`/`mem_phase_peak_bytes`
    /// gauges. `Obs::phase` guards must not overlap (they measure a
    /// process-wide allocation window); the pipeline's phases are
    /// sequential by construction.
    pub fn phase(&self, name: Word) -> PhaseGuard<'_> {
        PhaseGuard {
            obs: self,
            name,
            started: Instant::now(),
            window: Some(WindowSpan::start()),
            span: Some(self.trace.phase(name.as_str())),
            fields: Vec::new(),
            sim_bounds: None,
        }
    }
}

/// Guard returned by [`Obs::phase`].
pub struct PhaseGuard<'a> {
    obs: &'a Obs,
    name: Word,
    started: Instant,
    window: Option<WindowSpan>,
    span: Option<TracerSpan<'a>>,
    fields: Vec<(Word, FieldValue)>,
    sim_bounds: Option<(u64, u64)>,
}

impl PhaseGuard<'_> {
    /// Attach a finished unit's span tree under the phase's trace span,
    /// in a deterministic order (see [`TracerSpan::attach`]).
    pub fn attach(&self, builder: TraceBuilder) {
        if let Some(span) = &self.span {
            span.attach(builder);
        }
    }

    /// Add a field to the phase's trace span and its echoed line.
    pub fn field(&mut self, key: Word, value: impl Into<FieldValue>) {
        let value = value.into();
        if let Some(span) = &self.span {
            span.field(key, value.clone());
        }
        self.fields.push((key, value));
    }

    /// Close the phase, stamping the trace span's simulated bounds.
    pub fn end(mut self, sim_start: u64, sim_end: u64) {
        self.sim_bounds = Some((sim_start, sim_end));
    }
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        let us = self.started.elapsed().as_micros().max(1) as u64;
        let metrics = &self.obs.metrics;
        let name = self.name.as_str();
        metrics
            .labeled_gauge("phase_wall_us", "phase", name)
            .set(us as i64);
        let mut line = vec![
            ("phase".to_owned(), FieldValue::from(self.name)),
            ("wall_us".to_owned(), FieldValue::U64(us)),
        ];
        line.extend(
            self.fields
                .drain(..)
                .map(|(k, v)| (k.as_str().to_owned(), v)),
        );
        let delta = self.window.take().map(WindowSpan::finish);
        let span = self.span.take().expect("a phase ends once");
        if let Some(delta) = delta.filter(|d| !d.is_zero()) {
            span.field(Word::AllocBytes, delta.alloc_bytes);
            span.field(Word::AllocCount, delta.alloc_count);
            span.field(Word::PeakBytes, delta.peak_bytes);
            metrics
                .labeled_gauge("mem_phase_alloc_bytes", "phase", name)
                .set(delta.alloc_bytes as i64);
            metrics
                .labeled_gauge("mem_phase_peak_bytes", "phase", name)
                .set(delta.peak_bytes as i64);
            line.push(("alloc_bytes".to_owned(), FieldValue::U64(delta.alloc_bytes)));
        }
        span.end(self.sim_bounds);
        self.obs.events.echo(Level::Info, "span", &line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_guard_sets_gauge_and_records_span() {
        let obs = Obs::new().with_trace();
        obs.phase(Word::WorldGen);
        let mut crawl = obs.phase(Word::Crawl);
        crawl.field(Word::Sites, 3usize);
        crawl.end(10, 20);
        let snapshot = obs.metrics.snapshot();
        assert!(snapshot.gauge("phase_wall_us{phase=\"world-gen\"}") >= 1);
        assert!(snapshot.gauge("phase_wall_us{phase=\"crawl\"}") >= 1);
        let trace = obs.trace.finish();
        let span = trace.spans.iter().find(|s| s.name == "crawl").unwrap();
        assert_eq!(span.field(Word::Sites), Some(&FieldValue::U64(3)));
        assert_eq!((span.sim_start_ms, span.sim_end_ms), (Some(10), Some(20)));
    }

    #[test]
    fn obs_is_sync_and_send() {
        fn check<T: Send + Sync>() {}
        check::<Obs>();
    }

    #[test]
    fn phase_guard_opens_trace_span_when_tracing() {
        let obs = Obs::new().with_trace();
        obs.phase(Word::Analysis);
        let trace = obs.trace.finish();
        let span = trace.spans.iter().find(|s| s.name == "analysis").unwrap();
        assert_eq!(span.parent, Some(1));
        assert!(span.wall_end_us >= span.wall_start_us);
        // Tracing off (the default): nothing recorded.
        let silent = Obs::new();
        silent.phase(Word::Analysis);
        assert!(silent.trace.is_empty());
    }

    #[test]
    fn stripped_snapshot_drops_phase_gauges() {
        let obs = Obs::new();
        obs.phase(Word::Crawl);
        obs.metrics.counter("visits_total").inc();
        let s = obs.metrics.snapshot().strip_wall_clock();
        assert!(s.gauges.is_empty());
        assert_eq!(s.counter("visits_total"), 1);
    }
}
