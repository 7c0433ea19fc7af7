//! The span vocabulary: every span name, field key and fixed label
//! value the pipeline records, as one static table.
//!
//! A [`Word`] is one byte. Recording, sealing, stripping, encoding and
//! decoding a trace carry words, not strings, so none of them
//! allocates, hashes or copies a string per span name, field key or
//! label. Open-ended values (hosts, URLs, domains, callers, error
//! messages) are owned [`Text`]; so are phase names that are not words,
//! such as the benchmark's own layer spans. Owned text is
//! reference-counted: a recorded host shares its `Domain`'s string, and
//! a decoded trace holds each distinct string once. The `trace.col`
//! decoder maps each distinct string once, and a span name or field key
//! that is not a word is a decode error.

use serde::{Content, Serialize};
use std::fmt;
use std::sync::Arc;

macro_rules! vocabulary {
    ($($word:ident = $text:literal,)*) => {
        /// One word of the span vocabulary: a span name, a field key
        /// or a fixed label value. Its text is [`Word::as_str`].
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
        #[repr(u8)]
        pub enum Word {
            $(#[doc = concat!("`", $text, "`")] $word,)*
        }

        /// Each word's text, indexed by the word.
        const TEXT: &[&str] = &[$($text,)*];

        impl Word {
            /// Every word, in vocabulary order.
            pub const ALL: &'static [Word] = &[$(Word::$word,)*];

            /// The word spelled `text`, if there is one.
            pub fn parse(text: &str) -> Option<Word> {
                match text {
                    $($text => Some(Word::$word),)*
                    _ => None,
                }
            }
        }
    };
}

vocabulary! {
    // Span names: the root, the phases, and what runs under them.
    Campaign = "campaign",
    WorldGen = "world-gen",
    Crawl = "crawl",
    AttestationProbe = "attestation-probe",
    Analysis = "analysis",
    Export = "export",
    SimUniverse = "sim-universe",
    SimAdvance = "sim-advance",
    SimKanon = "sim-kanon",
    SimAttack = "sim-attack",
    Visit = "visit",
    PageLoad = "page-load",
    ConsentClick = "consent-click",
    Fetch = "fetch",
    Script = "script",
    TopicsCall = "topics-call",
    Retry = "retry",
    Probe = "probe",
    Worker = "worker",
    // Field keys (`worker` above is one too).
    Sites = "sites",
    Probes = "probes",
    CacheHits = "cache_hits",
    Domain = "domain",
    Rank = "rank",
    Outcome = "outcome",
    Retries = "retries",
    Error = "error",
    Url = "url",
    Phase = "phase",
    Ok = "ok",
    Action = "action",
    Host = "host",
    Kind = "kind",
    Redirects = "redirects",
    Cached = "cached",
    Caller = "caller",
    Type = "type",
    Permitted = "permitted",
    Topics = "topics",
    Attempt = "attempt",
    BackoffMs = "backoff_ms",
    Cause = "cause",
    Attested = "attested",
    BusyUs = "busy_us",
    SpanUs = "span_us",
    Items = "items",
    AllocBytes = "alloc_bytes",
    AllocCount = "alloc_count",
    PeakBytes = "peak_bytes",
    // Label values: visit outcomes, page-load phases, consent actions,
    // resource kinds (`fetch` and `script` above), call types, and
    // failure causes.
    Complete = "complete",
    Degraded = "degraded",
    Failed = "failed",
    BeforeAccept = "before-accept",
    AfterAccept = "after-accept",
    AfterReject = "after-reject",
    Accept = "accept",
    Reject = "reject",
    Document = "document",
    Image = "image",
    Style = "style",
    WellKnown = "wellknown",
    JavaScript = "JavaScript",
    FetchCall = "Fetch",
    IFrame = "IFrame",
    Timeout = "timeout",
    Http5xx = "http-5xx",
    Dns = "dns",
    ConnectionFailed = "connection-failed",
    ConnectionReset = "connection-reset",
    TimedOut = "timed-out",
    NotFound = "not-found",
    TooManyRedirects = "too-many-redirects",
    BadRedirect = "bad-redirect",
    BadUrl = "bad-url",
}

impl Word {
    /// The word's text.
    pub fn as_str(self) -> &'static str {
        TEXT[self as usize]
    }
}

impl fmt::Display for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.as_str())
    }
}

impl Serialize for Word {
    fn to_content(&self) -> Content {
        Content::Str(self.as_str().to_owned())
    }
}

/// A span name or string field value: a vocabulary [`Word`], or owned
/// text for what no vocabulary can list. Two texts are equal when they
/// spell the same string, whichever way each is held.
#[derive(Clone)]
pub enum Text {
    /// A vocabulary word.
    Word(Word),
    /// Any other string, shared by reference count.
    Owned(Arc<str>),
}

impl Text {
    /// The text as a string.
    pub fn as_str(&self) -> &str {
        match self {
            Text::Word(w) => w.as_str(),
            Text::Owned(s) => s,
        }
    }

    /// The word `text` spells, or `text` itself when it is none.
    pub fn parse(text: &str) -> Text {
        Word::parse(text).map_or_else(|| Text::Owned(text.into()), Text::Word)
    }
}

/// The empty text. It allocates nothing: every empty `Arc<str>`
/// shares one static string.
impl Default for Text {
    fn default() -> Text {
        Text::Owned(Arc::default())
    }
}

impl PartialEq for Text {
    fn eq(&self, other: &Text) -> bool {
        match (self, other) {
            (Text::Word(a), Text::Word(b)) => a == b,
            _ => self.as_str() == other.as_str(),
        }
    }
}

impl Eq for Text {}

impl PartialEq<Word> for Text {
    fn eq(&self, word: &Word) -> bool {
        match self {
            Text::Word(w) => w == word,
            Text::Owned(s) => **s == *word.as_str(),
        }
    }
}

impl PartialEq<&str> for Text {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl From<&str> for Text {
    fn from(s: &str) -> Text {
        Text::Owned(s.into())
    }
}

impl From<String> for Text {
    fn from(s: String) -> Text {
        Text::Owned(s.into())
    }
}

impl fmt::Display for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.as_str())
    }
}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl Serialize for Text {
    fn to_content(&self) -> Content {
        Content::Str(self.as_str().to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_word_parses_back_and_spells_a_distinct_string() {
        let mut seen = std::collections::BTreeSet::new();
        for (i, &w) in Word::ALL.iter().enumerate() {
            assert_eq!(w as usize, i);
            assert_eq!(Word::parse(w.as_str()), Some(w), "{w}");
            assert!(seen.insert(w.as_str()), "{w} spelled twice");
        }
        assert!(Word::ALL.len() <= usize::from(u8::MAX));
        assert_eq!(Word::parse("crawler.segment.decode"), None);
        assert_eq!(Word::parse("Visit"), None, "words are case-sensitive");
    }

    #[test]
    fn texts_compare_by_spelling() {
        assert_eq!(Text::Word(Word::Visit), Text::from("visit"));
        assert_eq!(Text::parse("visit"), Text::Word(Word::Visit));
        assert_ne!(Text::Word(Word::Visit), Text::from("visits"));
        assert_eq!(Text::from("fetch"), Word::Fetch);
        assert_eq!(Text::Word(Word::FetchCall), "Fetch");
        assert_eq!(format!("[{:<8}]", Text::Word(Word::Retry)), "[retry   ]");
        assert_eq!(format!("{:?}", Text::from("a.example")), "\"a.example\"");
    }
}
