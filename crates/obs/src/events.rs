//! The stderr logger: one `[topics-lab] LEVEL NAME k=v …` line per
//! event, kept nowhere.
//!
//! Every fact a line carries also lands in a persistent output: phase
//! timings in the `phase_wall_us` gauges and the trace's phase spans,
//! per-site outcomes in the trace's visit spans and `campaign.col`, and
//! served requests in the `/metrics` counters. So the log stores
//! nothing, and neither a long crawl nor a long-lived server grows with
//! it.
//!
//! Echoing is off by default (library users stay silent); front ends
//! opt in with [`EventLog::with_stderr_echo`], which in turn honours
//! `TOPICS_LOG=off`.

use crate::vocab::{Text, Word};
use serde::Serialize;

/// Environment variable that globally disables stderr echo when set to
/// `off`.
pub const LOG_ENV: &str = "TOPICS_LOG";

/// Event severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Normal progress reporting.
    Info,
    /// A failed operation.
    Error,
}

impl Level {
    /// Lower-case label used in echoes.
    pub fn label(self) -> &'static str {
        match self {
            Level::Info => "info",
            Level::Error => "error",
        }
    }
}

/// One structured field value.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// String: a vocabulary word or owned text.
    Str(Text),
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
impl From<Word> for FieldValue {
    fn from(v: Word) -> FieldValue {
        FieldValue::Str(Text::Word(v))
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> FieldValue {
        FieldValue::Str(v.into())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> FieldValue {
        FieldValue::Str(v.into())
    }
}

/// The stderr logger (silent unless built with
/// [`EventLog::with_stderr_echo`]).
#[derive(Debug, Default)]
pub struct EventLog {
    echo: bool,
}

impl EventLog {
    /// A silent log.
    pub fn new() -> EventLog {
        EventLog::default()
    }

    /// Echo events to stderr, unless `TOPICS_LOG=off`.
    #[must_use]
    pub fn with_stderr_echo(mut self) -> EventLog {
        self.echo = std::env::var(LOG_ENV).as_deref() != Ok("off");
        self
    }

    /// Whether events are echoed to stderr.
    pub fn echo_enabled(&self) -> bool {
        self.echo
    }

    /// Print one event line to stderr when echo is on.
    pub fn echo(&self, level: Level, name: &str, fields: &[(String, FieldValue)]) {
        if self.echo {
            let mut line = format!("[topics-lab] {} {name}", level.label());
            for (k, v) in fields {
                line.push_str(&format!(" {k}={v}"));
            }
            eprintln!("{line}");
        }
    }

    /// Echo an info event.
    pub fn info(&self, name: &str, fields: Vec<(String, FieldValue)>) {
        self.echo(Level::Info, name, &fields);
    }

    /// Echo an error event.
    pub fn error(&self, name: &str, fields: Vec<(String, FieldValue)>) {
        self.echo(Level::Error, name, &fields);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_log_does_not_echo() {
        assert!(!EventLog::new().echo_enabled());
    }
}
