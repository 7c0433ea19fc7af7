//! Instrumentation — the reproduction of the paper's modified
//! `BrowsingTopicsSiteDataManagerImpl`.
//!
//! The paper records, for every Topics API call: the calling party, the
//! website the call happened on, the timestamp of the call, the API call
//! type (JavaScript / Fetch / IFrame), and multiplicity of calls per page.
//! We additionally record the calling *context* (root document vs iframe)
//! and the host that served the calling script — the two fields that make
//! the §4 "wrong context" analysis possible — and the allow-list decision.

use crate::attestation::AllowDecision;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use topics_net::clock::Timestamp;
use topics_net::domain::Domain;
use topics_net::http::ResourceKind;
use topics_net::url::Url;
use topics_obs::Word;

/// The three Topics API call types distinguished by the integration guide
/// and logged by the paper's modified handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CallType {
    /// `document.browsingTopics()` from JavaScript.
    JavaScript,
    /// `fetch(url, {browsingTopics: true})` — topics ride the
    /// `Sec-Browsing-Topics` request header.
    Fetch,
    /// `<iframe browsingtopics src=…>` — topics ride the frame's document
    /// request.
    Iframe,
}

impl CallType {
    /// Human-readable label: the text of [`CallType::word`].
    pub fn label(self) -> &'static str {
        self.word().as_str()
    }

    /// The call type as the trace's `type` field records it.
    pub fn word(self) -> Word {
        match self {
            CallType::JavaScript => Word::JavaScript,
            CallType::Fetch => Word::FetchCall,
            CallType::Iframe => Word::IFrame,
        }
    }
}

/// One observed Topics API call.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopicsCallEvent {
    /// The host attributed as Calling Party by the browser: the calling
    /// context's origin host for JavaScript calls, the destination host
    /// for fetch/iframe calls.
    pub caller: Domain,
    /// The website (registrable domain of the top-level page) the call
    /// happened on.
    pub website: Domain,
    /// Call type.
    pub call_type: CallType,
    /// True when the calling context was the root (top-level) document —
    /// the §4 signature of scripts included via `<script src=…>`.
    pub root_context: bool,
    /// Host that served the calling script, when the call came from an
    /// external script (e.g. `www.googletagmanager.com`); `None` for
    /// inline scripts and iframe-type calls.
    pub script_source: Option<Domain>,
    /// Allow-list decision taken by the browser for this call.
    pub decision: AllowDecision,
    /// Number of topics the engine returned (0 when blocked).
    pub topics_returned: usize,
    /// When the call happened.
    pub timestamp: Timestamp,
}

impl TopicsCallEvent {
    /// Whether the call was actually executed (not blocked by enrolment
    /// enforcement).
    pub fn permitted(&self) -> bool {
        self.decision.permits()
    }
}

/// One object downloaded while rendering a page (§2.2: "the URL of each
/// first- and third-party object downloaded to render the page").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObjectEvent {
    /// The object URL.
    pub url: Url,
    /// What kind of resource it was.
    pub kind: ResourceKind,
    /// Whether the fetch succeeded.
    pub ok: bool,
    /// When it was requested.
    pub timestamp: Timestamp,
}

/// Receiver for browser instrumentation events.
pub trait BrowserObserver: Send + Sync {
    /// A Topics API call was made (whether permitted or blocked).
    fn on_topics_call(&self, event: &TopicsCallEvent);
    /// An object was requested during page load.
    fn on_object(&self, event: &ObjectEvent);
}

/// An observer that discards everything.
#[derive(Debug, Default)]
pub struct NullObserver;

impl BrowserObserver for NullObserver {
    fn on_topics_call(&self, _event: &TopicsCallEvent) {}
    fn on_object(&self, _event: &ObjectEvent) {}
}

/// An observer that records everything, for tests and the crawler.
#[derive(Debug, Default)]
pub struct RecordingObserver {
    calls: Mutex<Vec<TopicsCallEvent>>,
    objects: Mutex<Vec<ObjectEvent>>,
}

impl RecordingObserver {
    /// A fresh, shareable recorder.
    pub fn shared() -> Arc<RecordingObserver> {
        Arc::new(RecordingObserver::default())
    }

    /// Snapshot of the Topics calls recorded so far.
    pub fn calls(&self) -> Vec<TopicsCallEvent> {
        self.calls.lock().clone()
    }

    /// Snapshot of the object loads recorded so far.
    pub fn objects(&self) -> Vec<ObjectEvent> {
        self.objects.lock().clone()
    }

    /// Drain both logs, returning `(calls, objects)` and leaving the
    /// recorder empty — the crawler does this per visit.
    pub fn drain(&self) -> (Vec<TopicsCallEvent>, Vec<ObjectEvent>) {
        (
            std::mem::take(&mut self.calls.lock()),
            std::mem::take(&mut self.objects.lock()),
        )
    }
}

impl BrowserObserver for RecordingObserver {
    fn on_topics_call(&self, event: &TopicsCallEvent) {
        self.calls.lock().push(event.clone());
    }
    fn on_object(&self, event: &ObjectEvent) {
        self.objects.lock().push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event() -> TopicsCallEvent {
        TopicsCallEvent {
            caller: Domain::parse("cp.com").unwrap(),
            website: Domain::parse("news.com").unwrap(),
            call_type: CallType::JavaScript,
            root_context: true,
            script_source: Some(Domain::parse("www.googletagmanager.com").unwrap()),
            decision: AllowDecision::AllowedFailOpen,
            topics_returned: 2,
            timestamp: Timestamp(1),
        }
    }

    #[test]
    fn recording_observer_accumulates_and_drains() {
        let rec = RecordingObserver::shared();
        rec.on_topics_call(&event());
        rec.on_topics_call(&event());
        rec.on_object(&ObjectEvent {
            url: Url::parse("https://a.com/x.js").unwrap(),
            kind: ResourceKind::Script,
            ok: true,
            timestamp: Timestamp(2),
        });
        assert_eq!(rec.calls().len(), 2);
        assert_eq!(rec.objects().len(), 1);
        let (calls, objects) = rec.drain();
        assert_eq!((calls.len(), objects.len()), (2, 1));
        assert!(rec.calls().is_empty());
        assert!(rec.objects().is_empty());
    }

    #[test]
    fn call_type_labels_match_paper_terms() {
        assert_eq!(CallType::JavaScript.label(), "JavaScript");
        assert_eq!(CallType::Fetch.label(), "Fetch");
        assert_eq!(CallType::Iframe.label(), "IFrame");
    }

    #[test]
    fn permitted_reflects_decision() {
        let mut e = event();
        assert!(e.permitted());
        e.decision = AllowDecision::BlockedNotEnrolled;
        assert!(!e.permitted());
    }

    #[test]
    fn events_serialize() {
        let j = serde_json::to_string(&event()).unwrap();
        assert!(j.contains("googletagmanager"));
        let back: TopicsCallEvent = serde_json::from_str(&j).unwrap();
        assert_eq!(back, event());
    }
}
