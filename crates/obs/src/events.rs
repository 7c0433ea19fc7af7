//! Structured events: a timestamped, append-only log with phase spans
//! and a JSONL sink.
//!
//! Every event carries both clocks: `wall_us` (microseconds of real time
//! since the log was created — operational, non-deterministic) and
//! `sim_ms` (the simulated campaign clock, when the event has one —
//! deterministic). The JSONL sink writes one event per line, so a crawl
//! leaves a machine-readable trace next to its metrics.
//!
//! Echoing to stderr is off by default (library users stay silent);
//! front ends opt in with [`EventLog::with_stderr_echo`], which in turn
//! honours `TOPICS_LOG=off`.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Environment variable that globally disables stderr echo when set to
/// `off` (events are still recorded).
pub const LOG_ENV: &str = "TOPICS_LOG";

/// Event severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Level {
    /// Fine-grained diagnostics.
    Debug,
    /// Normal progress reporting.
    Info,
    /// Something unexpected but recoverable.
    Warn,
    /// A failed operation.
    Error,
}

impl Level {
    /// Lower-case label used in echoes and sinks.
    pub fn label(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }
}

/// One structured field value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> FieldValue {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> FieldValue {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> FieldValue {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> FieldValue {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> FieldValue {
        FieldValue::Bool(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> FieldValue {
        FieldValue::Str(v.to_owned())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> FieldValue {
        FieldValue::Str(v)
    }
}

/// One structured event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Severity.
    pub level: Level,
    /// Event name (e.g. `progress`, `span`).
    pub name: String,
    /// Microseconds of wall-clock time since the log was created.
    pub wall_us: u64,
    /// Simulated-clock milliseconds, for events that happen at a point
    /// of campaign time.
    pub sim_ms: Option<u64>,
    /// Ordered key/value payload.
    pub fields: Vec<(String, FieldValue)>,
}

impl Event {
    /// Value of a field, if present.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// Append-only structured event log.
#[derive(Debug)]
pub struct EventLog {
    started: Instant,
    events: Mutex<Vec<Event>>,
    echo: bool,
}

impl Default for EventLog {
    fn default() -> EventLog {
        EventLog::new()
    }
}

impl EventLog {
    /// A silent log (events recorded, nothing echoed).
    pub fn new() -> EventLog {
        EventLog {
            started: Instant::now(),
            events: Mutex::new(Vec::new()),
            echo: false,
        }
    }

    /// Echo info-and-above events to stderr, unless `TOPICS_LOG=off`.
    #[must_use]
    pub fn with_stderr_echo(mut self) -> EventLog {
        self.echo = std::env::var(LOG_ENV).as_deref() != Ok("off");
        self
    }

    /// Whether events are echoed to stderr.
    pub fn echo_enabled(&self) -> bool {
        self.echo
    }

    /// Record an event (echoing it first, see [`EventLog::echo`]).
    pub fn event(
        &self,
        level: Level,
        name: &str,
        sim_ms: Option<u64>,
        fields: Vec<(String, FieldValue)>,
    ) {
        self.echo(level, name, &fields);
        let event = Event {
            level,
            name: name.to_owned(),
            wall_us: self.started.elapsed().as_micros().max(1) as u64,
            sim_ms,
            fields,
        };
        self.events.lock().push(event);
    }

    /// Print an info-and-above event line to stderr when echo is on,
    /// without recording it — for per-request lines of a long-lived
    /// process, whose log would otherwise grow without bound.
    pub fn echo(&self, level: Level, name: &str, fields: &[(String, FieldValue)]) {
        if self.echo && level >= Level::Info {
            let mut line = format!("[topics-lab] {} {name}", level.label());
            for (k, v) in fields {
                line.push_str(&format!(" {k}={v}"));
            }
            eprintln!("{line}");
        }
    }

    /// Record an info event without a simulated timestamp.
    pub fn info(&self, name: &str, fields: Vec<(String, FieldValue)>) {
        self.event(Level::Info, name, None, fields);
    }

    /// Record an error event.
    pub fn error(&self, name: &str, fields: Vec<(String, FieldValue)>) {
        self.event(Level::Error, name, None, fields);
    }

    /// Start a named phase span; the span event is recorded when the
    /// guard is dropped (or [`SpanGuard::end`] is called).
    pub fn span(&self, phase: &str) -> SpanGuard<'_> {
        SpanGuard {
            log: self,
            phase: phase.to_owned(),
            started: Instant::now(),
            extra: Vec::new(),
        }
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }

    /// Snapshot of the recorded events.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().clone()
    }

    /// Serialise the log as JSON Lines: one event object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for event in self.events.lock().iter() {
            out.push_str(&serde_json::to_string(event).expect("event serialises"));
            out.push('\n');
        }
        out
    }
}

/// Guard for one phase span: measures wall time from creation to drop
/// and records a `span` event with the phase name and duration.
pub struct SpanGuard<'a> {
    log: &'a EventLog,
    phase: String,
    started: Instant,
    extra: Vec<(String, FieldValue)>,
}

impl SpanGuard<'_> {
    /// Attach an extra field to the eventual span event.
    pub fn field(&mut self, key: &str, value: impl Into<FieldValue>) {
        self.extra.push((key.to_owned(), value.into()));
    }

    /// Elapsed wall time so far, in microseconds (always nonzero).
    pub fn elapsed_us(&self) -> u64 {
        self.started.elapsed().as_micros().max(1) as u64
    }

    /// End the span now (equivalent to dropping it).
    pub fn end(self) {}
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let mut fields = vec![
            ("phase".to_owned(), FieldValue::Str(self.phase.clone())),
            ("wall_us".to_owned(), FieldValue::U64(self.elapsed_us())),
        ];
        fields.append(&mut self.extra);
        self.log.event(Level::Info, "span", None, fields);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_record_in_order_with_fields() {
        let log = EventLog::new();
        log.info("start", vec![("sites".to_owned(), 100usize.into())]);
        log.event(
            Level::Debug,
            "detail",
            Some(42),
            vec![("ok".to_owned(), true.into())],
        );
        let events = log.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "start");
        assert_eq!(events[0].field("sites"), Some(&FieldValue::U64(100)));
        assert_eq!(events[1].sim_ms, Some(42));
        assert!(events[0].wall_us >= 1);
    }

    #[test]
    fn spans_emit_phase_events_with_nonzero_duration() {
        let log = EventLog::new();
        {
            let mut span = log.span("crawl");
            span.field("sites", 10usize);
        }
        log.span("analysis").end();
        let events = log.events();
        assert_eq!(events.len(), 2);
        for e in &events {
            assert_eq!(e.name, "span");
            let FieldValue::U64(us) = e.field("wall_us").unwrap() else {
                panic!("wall_us is u64");
            };
            assert!(*us >= 1, "span durations are nonzero");
        }
        assert_eq!(
            events[0].field("phase"),
            Some(&FieldValue::Str("crawl".into()))
        );
        assert_eq!(events[0].field("sites"), Some(&FieldValue::U64(10)));
    }

    #[test]
    fn jsonl_has_one_line_per_event_and_round_trips() {
        let log = EventLog::new();
        log.info("a", vec![]);
        log.error("b", vec![("what".to_owned(), "broke".into())]);
        let jsonl = log.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        for (line, original) in lines.iter().zip(log.events()) {
            let back: Event = serde_json::from_str(line).unwrap();
            assert_eq!(back, original);
        }
    }

    #[test]
    fn default_log_does_not_echo() {
        assert!(!EventLog::new().echo_enabled());
    }

    #[test]
    fn jsonl_escapes_quotes_backslashes_and_newlines() {
        let log = EventLog::new();
        log.info(
            "tricky",
            vec![
                ("quote".to_owned(), "say \"hi\"".into()),
                ("backslash".to_owned(), "C:\\topics\\lab".into()),
                ("newline".to_owned(), "line1\nline2\r\ttab".into()),
                ("unicode".to_owned(), "smørrebrød → ☂".into()),
            ],
        );
        let jsonl = log.to_jsonl();
        // Raw control characters never appear inside a line; the log
        // still yields exactly one line for one event.
        let lines: Vec<&str> = jsonl.split('\n').filter(|l| !l.is_empty()).collect();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("\\\"hi\\\""));
        assert!(lines[0].contains("C:\\\\topics\\\\lab"));
        assert!(lines[0].contains("line1\\nline2"));
        assert!(!lines[0].contains('\r'));
        // And the escaped payload round-trips exactly.
        let back: Event = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(back, log.events()[0]);
        assert_eq!(
            back.field("newline"),
            Some(&FieldValue::Str("line1\nline2\r\ttab".to_owned()))
        );
    }

    #[test]
    fn span_guards_record_fields_under_concurrent_phases() {
        let log = std::sync::Arc::new(EventLog::new());
        let mut handles = Vec::new();
        for t in 0..8usize {
            let log = std::sync::Arc::clone(&log);
            handles.push(std::thread::spawn(move || {
                for i in 0..25usize {
                    let mut span = log.span(&format!("phase-{t}"));
                    span.field("worker", t);
                    span.field("iter", i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let events = log.events();
        assert_eq!(events.len(), 8 * 25, "every span event recorded");
        for t in 0..8usize {
            let mine: Vec<_> = events
                .iter()
                .filter(|e| e.field("phase") == Some(&FieldValue::Str(format!("phase-{t}"))))
                .collect();
            assert_eq!(mine.len(), 25, "no cross-phase loss for phase-{t}");
            // Extra fields stay attached to their own span event and
            // arrive in per-thread order.
            for (i, e) in mine.iter().enumerate() {
                assert_eq!(e.field("worker"), Some(&FieldValue::U64(t as u64)));
                assert_eq!(e.field("iter"), Some(&FieldValue::U64(i as u64)));
            }
        }
    }
}
