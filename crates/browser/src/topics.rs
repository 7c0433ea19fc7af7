//! The Topics API engine — the in-browser half of the Privacy Sandbox
//! mechanism the paper measures.
//!
//! Reproduces the behaviour described in §2.1 and the public Chrome
//! documentation:
//!
//! * the browser monitors browsing activity and classifies each visited
//!   site (registrable domain) into taxonomy topics;
//! * time is divided into one-week **epochs**; at the end of each epoch
//!   the **top 5** topics by number of distinct contributing sites are
//!   selected (padded with random topics when fewer than 5 exist);
//! * `browsingTopics()` returns up to **three topics — one per each of
//!   the last three completed epochs** — each chosen from that epoch's
//!   top 5 with a per-`(epoch, site)` stable pick;
//! * with probability **5%** the answer for an `(epoch, site)` is replaced
//!   by a uniformly random topic (plausible deniability);
//! * a caller only *receives* a real topic if it **observed** the user on
//!   a site contributing that topic during the epoch window (random
//!   replacement topics are exempt — that is what gives every topic a
//!   minimum exposure probability);
//! * topics under the sensitive root are never returned.

use crate::observer::CallType;
use crate::origin::Site;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use topics_net::clock::Timestamp;
use topics_net::domain::Domain;
use topics_net::psl::registrable_domain;
use topics_net::seed;
use topics_obs::{Counter, MetricsRegistry};
use topics_taxonomy::{Classification, Classifier, Taxonomy, TopicId};

/// Probability that an epoch's answer is replaced by a random topic.
pub const NOISE_PROBABILITY: f64 = 0.05;
/// Topics kept per epoch.
pub const TOP_N: usize = 5;
/// Number of past epochs an answer draws from.
pub const EPOCH_WINDOW: u64 = 3;

/// Pre-resolved counters for the Topics call path, recorded by the
/// [`crate::Browser`] at the single point every call goes through.
///
/// Series recorded:
/// * `topics_api_calls_total{type="javascript"|"fetch"|"iframe"}` — one
///   per invocation, whatever the enrolment decision;
/// * `topics_api_permitted_total` / `topics_api_blocked_total` — the
///   allow-list decision split;
/// * `topics_api_topics_returned_total` — total topics handed out.
#[derive(Debug, Clone)]
pub struct TopicsMetrics {
    js: Counter,
    fetch: Counter,
    iframe: Counter,
    permitted: Counter,
    blocked: Counter,
    topics_returned: Counter,
}

impl TopicsMetrics {
    /// Resolve the handles in `registry`.
    pub fn new(registry: &MetricsRegistry) -> TopicsMetrics {
        let call = |t: &str| registry.labeled_counter("topics_api_calls_total", "type", t);
        TopicsMetrics {
            js: call("javascript"),
            fetch: call("fetch"),
            iframe: call("iframe"),
            permitted: registry.counter("topics_api_permitted_total"),
            blocked: registry.counter("topics_api_blocked_total"),
            topics_returned: registry.counter("topics_api_topics_returned_total"),
        }
    }

    /// Record one `browsingTopics()` invocation.
    pub fn record_call(&self, call_type: CallType, permitted: bool, topics_returned: usize) {
        match call_type {
            CallType::JavaScript => self.js.inc(),
            CallType::Fetch => self.fetch.inc(),
            CallType::Iframe => self.iframe.inc(),
        }
        if permitted {
            self.permitted.inc();
        } else {
            self.blocked.inc();
        }
        self.topics_returned.add(topics_returned as u64);
    }
}

/// Per-epoch browsing record.
#[derive(Debug, Clone, Default)]
struct EpochHistory {
    /// Topics contributed by each visited site (registrable domain).
    site_topics: HashMap<Domain, Vec<TopicId>>,
    /// For caller filtering: which sites each caller observed the user on.
    observations: HashMap<Domain, HashSet<Domain>>,
}

/// One entry of an epoch's top-5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopTopic {
    /// The topic.
    pub topic: TopicId,
    /// False when this slot was padded with a random topic because fewer
    /// than five real topics existed.
    pub real: bool,
}

/// One topic as returned to a caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ReturnedTopic {
    /// The topic id.
    pub topic: TopicId,
    /// Which completed epoch it represents.
    pub epoch: u64,
    /// True when this topic is a *random* one — either the 5% noise
    /// replacement or a random padding slot of an epoch with fewer than
    /// five real topics. Random topics are exempt from the caller
    /// witness filter (that exemption is what gives every topic a
    /// minimum exposure probability).
    pub noised: bool,
}

/// The answer of one `browsingTopics()` invocation.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TopicsAnswer {
    /// Up to three topics, deduplicated, ascending by topic id.
    pub topics: Vec<ReturnedTopic>,
    /// Taxonomy version string (Chrome reports e.g. `"2"`).
    pub taxonomy_version: String,
}

/// The per-profile Topics engine.
#[derive(Debug)]
pub struct TopicsEngine {
    classifier: Arc<Classifier>,
    epochs: BTreeMap<u64, EpochHistory>,
    seed: u64,
    enabled: bool,
}

impl TopicsEngine {
    /// A fresh engine for one browser profile. `enabled` models the
    /// Chrome setting the paper's crawler manually opts into.
    pub fn new(classifier: Arc<Classifier>, profile_seed: u64, enabled: bool) -> TopicsEngine {
        TopicsEngine {
            classifier,
            epochs: BTreeMap::new(),
            seed: seed::derive(profile_seed, "topics-engine"),
            enabled,
        }
    }

    /// Whether the user has the Topics API enabled.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record a page visit: classify the site and add its topics to the
    /// current epoch's history.
    pub fn record_visit(&mut self, site: &Site, now: Timestamp) {
        let epoch = now.epoch();
        let reg = site.domain().clone();
        let entry = self.epochs.entry(epoch).or_default();
        if let Classification::Topics(topics) = self.classifier.classify(&reg) {
            entry.site_topics.entry(reg).or_insert(topics);
        } else {
            entry.site_topics.entry(reg).or_default();
        }
    }

    /// Record that `caller` observed the user on `site` (a caller present
    /// on a page — via script, fetch with `Observe-Browsing-Topics`, or
    /// iframe — becomes eligible to receive that site's topics later).
    pub fn record_observation(&mut self, caller: &Domain, site: &Site, now: Timestamp) {
        let epoch = now.epoch();
        self.epochs
            .entry(epoch)
            .or_default()
            .observations
            .entry(registrable_domain(caller))
            .or_default()
            .insert(site.domain().clone());
    }

    /// The taxonomy this engine's model targets (the answer's version
    /// string and the noise/padding pools follow it).
    fn taxonomy(&self) -> &'static Taxonomy {
        Taxonomy::of(self.classifier.taxonomy_version())
    }

    /// The top-5 topics of a *completed* epoch, padded with random
    /// returnable topics when fewer than five real topics were observed.
    pub fn top5(&self, epoch: u64) -> Vec<TopTopic> {
        let taxonomy = self.taxonomy();
        let mut counts: HashMap<TopicId, usize> = HashMap::new();
        if let Some(h) = self.epochs.get(&epoch) {
            for topics in h.site_topics.values() {
                for &t in topics {
                    *counts.entry(t).or_insert(0) += 1;
                }
            }
        }
        let mut ranked: Vec<(TopicId, usize)> = counts.into_iter().collect();
        // By contributing-site count descending, then topic id ascending
        // for a total, deterministic order.
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut top: Vec<TopTopic> = ranked
            .into_iter()
            .take(TOP_N)
            .map(|(topic, _)| TopTopic { topic, real: true })
            .collect();
        // Pad to 5 with deterministic random returnable topics.
        let mut attempt = 0u64;
        while top.len() < TOP_N {
            let pick = random_returnable_topic(
                taxonomy,
                seed::derive_idx(seed::derive(self.seed, "pad"), epoch ^ (attempt << 32)),
            );
            attempt += 1;
            if top.iter().any(|t| t.topic == pick) {
                continue;
            }
            top.push(TopTopic {
                topic: pick,
                real: false,
            });
            if attempt > 64 {
                break; // defensive; cannot happen with 468 returnable topics
            }
        }
        debug_assert!(!top.iter().any(|t| t.topic == taxonomy.sensitive_root()));
        top
    }

    /// Execute `browsingTopics()` for `caller` on `top_site` at `now`.
    ///
    /// Returns `None` when the user has the API disabled. Enrolment
    /// enforcement is *not* done here — the [`crate::Browser`] consults
    /// the [`crate::attestation::AttestationStore`] first, mirroring the
    /// layering in Chromium (and letting us reproduce the fail-open bug
    /// at the right layer).
    pub fn browsing_topics(
        &mut self,
        caller: &Domain,
        top_site: &Site,
        now: Timestamp,
    ) -> Option<TopicsAnswer> {
        self.browsing_topics_with_options(caller, top_site, now, true)
    }

    /// Like [`TopicsEngine::browsing_topics`] but with the real API's
    /// `{skipObservation: true}` option: when `observe` is false, the
    /// call returns topics without marking the caller as having observed
    /// the user on this site (so it does not feed future epochs).
    pub fn browsing_topics_with_options(
        &mut self,
        caller: &Domain,
        top_site: &Site,
        now: Timestamp,
        observe: bool,
    ) -> Option<TopicsAnswer> {
        if !self.enabled {
            return None;
        }
        let caller_reg = registrable_domain(caller);
        let current = now.epoch();
        let mut out: Vec<ReturnedTopic> = Vec::with_capacity(EPOCH_WINDOW as usize);
        // The last three *completed* epochs: current-3 .. current-1.
        for back in 1..=EPOCH_WINDOW {
            let Some(epoch) = current.checked_sub(back) else {
                break;
            };
            if let Some(rt) = self.topic_for_epoch(epoch, &caller_reg, top_site) {
                out.push(rt);
            }
        }
        // A call is also an observation for future epochs — unless the
        // caller opted out with skipObservation.
        if observe {
            self.record_observation(caller, top_site, now);
        }
        // Deduplicate by topic id, keep ascending order for determinism.
        out.sort_by_key(|r| (r.topic, r.epoch));
        out.dedup_by_key(|r| r.topic);
        Some(TopicsAnswer {
            topics: out,
            taxonomy_version: self.taxonomy().version().as_str().to_owned(),
        })
    }

    /// The (stable) answer slot for one epoch, filtered by observation.
    fn topic_for_epoch(
        &self,
        epoch: u64,
        caller_reg: &Domain,
        top_site: &Site,
    ) -> Option<ReturnedTopic> {
        let h = self.epochs.get(&epoch)?;
        if h.site_topics.is_empty() {
            return None; // epoch never happened for this profile
        }
        // Stable per (profile, epoch, top-site): every caller on the same
        // site sees the same slot, as in Chrome.
        let slot_seed = seed::derive(
            seed::derive_idx(self.seed, epoch),
            top_site.domain().as_str(),
        );
        let noised = seed::unit_f64(seed::derive(slot_seed, "noise")) < NOISE_PROBABILITY;
        if noised {
            // Random replacement: returned regardless of observation.
            return Some(ReturnedTopic {
                topic: random_returnable_topic(
                    self.taxonomy(),
                    seed::derive(slot_seed, "replacement"),
                ),
                epoch,
                noised: true,
            });
        }
        let top = self.top5(epoch);
        let idx = (seed::derive(slot_seed, "pick") % TOP_N as u64) as usize;
        let chosen = top.get(idx)?;
        if chosen.real {
            // Caller filtering: only reveal a real topic to a caller that
            // observed the user on a contributing site this epoch.
            let observed = h.observations.get(caller_reg);
            let witnessed = observed.is_some_and(|sites| {
                sites.iter().any(|s| {
                    h.site_topics
                        .get(s)
                        .is_some_and(|topics| topics.contains(&chosen.topic))
                })
            });
            if !witnessed {
                return None;
            }
        }
        Some(ReturnedTopic {
            topic: chosen.topic,
            epoch,
            // Padded slots carry random topics and behave like noise.
            noised: !chosen.real,
        })
    }

    /// Epochs that have any recorded history.
    pub fn epochs_with_data(&self) -> Vec<u64> {
        self.epochs.keys().copied().collect()
    }

    /// Number of distinct sites recorded in an epoch.
    pub fn sites_in_epoch(&self, epoch: u64) -> usize {
        self.epochs
            .get(&epoch)
            .map(|h| h.site_topics.len())
            .unwrap_or(0)
    }
}

/// A deterministic uniformly random topic outside the sensitive subtree
/// of the given taxonomy version.
fn random_returnable_topic(taxonomy: &Taxonomy, s: u64) -> TopicId {
    let sensitive = taxonomy.sensitive_root();
    let size = taxonomy.len() as u64;
    let mut attempt = 0u64;
    loop {
        let id = TopicId((seed::derive_idx(s, attempt) % size) as u16 + 1);
        if id != sensitive {
            return id;
        }
        attempt += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topics_net::url::Url;

    fn site(s: &str) -> Site {
        Site::of(&Url::parse(&format!("https://{s}/")).unwrap())
    }

    fn d(s: &str) -> Domain {
        Domain::parse(s).unwrap()
    }

    fn engine() -> TopicsEngine {
        let classifier = Arc::new(Classifier::new(77).with_unclassifiable_rate(0.0));
        TopicsEngine::new(classifier, 42, true)
    }

    /// Populate `n` distinct site visits in `epoch`, observed by `caller`.
    fn browse(e: &mut TopicsEngine, epoch: u64, n: usize, caller: &Domain) {
        let t = Timestamp::from_weeks(epoch);
        for i in 0..n {
            let s = site(&format!("browse{epoch}x{i}.com"));
            e.record_visit(&s, t);
            e.record_observation(caller, &s, t);
        }
    }

    #[test]
    fn disabled_engine_returns_none() {
        let classifier = Arc::new(Classifier::new(1));
        let mut e = TopicsEngine::new(classifier, 1, false);
        assert!(e
            .browsing_topics(&d("cp.com"), &site("news.com"), Timestamp::from_weeks(4))
            .is_none());
    }

    #[test]
    fn empty_history_yields_empty_answer() {
        let mut e = engine();
        let a = e
            .browsing_topics(&d("cp.com"), &site("news.com"), Timestamp::from_weeks(4))
            .unwrap();
        assert!(a.topics.is_empty());
        assert_eq!(a.taxonomy_version, "2");
    }

    #[test]
    fn top5_is_padded_to_five() {
        let mut e = engine();
        e.record_visit(&site("one-site.com"), Timestamp::from_weeks(0));
        let top = e.top5(0);
        assert_eq!(top.len(), TOP_N);
        let real: Vec<_> = top.iter().filter(|t| t.real).collect();
        assert!(!real.is_empty() && real.len() <= 3, "1–3 topics per site");
        // Padding topics are unique.
        let mut ids: Vec<_> = top.iter().map(|t| t.topic).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), TOP_N);
    }

    #[test]
    fn top5_ranks_by_contributing_sites() {
        let mut e = engine();
        // Visit many sites; the most common topics should win.
        browse(&mut e, 0, 100, &d("cp.com"));
        let top = e.top5(0);
        assert_eq!(top.len(), TOP_N);
        assert!(top.iter().all(|t| t.real), "100 sites produce ≥5 topics");
    }

    #[test]
    fn answer_covers_last_three_epochs_only() {
        let mut e = engine();
        let caller = d("cp.com");
        for epoch in 0..4 {
            browse(&mut e, epoch, 40, &caller);
        }
        let a = e
            .browsing_topics(&caller, &site("news.com"), Timestamp::from_weeks(4))
            .unwrap();
        assert!(!a.topics.is_empty());
        for rt in &a.topics {
            assert!(
                (1..=3).contains(&rt.epoch),
                "epoch {} outside window",
                rt.epoch
            );
        }
        assert!(a.topics.len() <= 3);
    }

    #[test]
    fn same_site_same_epoch_answers_are_stable_across_callers() {
        let mut e = engine();
        let a_caller = d("alpha.com");
        let b_caller = d("beta.com");
        for epoch in 0..3 {
            browse(&mut e, epoch, 50, &a_caller);
            browse(&mut e, epoch, 50, &b_caller);
        }
        let now = Timestamp::from_weeks(3);
        let s = site("news.com");
        let a = e.browsing_topics(&a_caller, &s, now).unwrap();
        let b = e.browsing_topics(&b_caller, &s, now).unwrap();
        // Both callers observed everything, so both receive the full
        // per-(epoch, site) stable slots.
        assert_eq!(a, b);
        // And the answer is idempotent.
        let a2 = e.browsing_topics(&a_caller, &s, now).unwrap();
        assert_eq!(a, a2);
    }

    #[test]
    fn unobserving_caller_gets_no_real_topics() {
        let mut e = engine();
        let observer = d("observer.com");
        for epoch in 0..3 {
            browse(&mut e, epoch, 50, &observer);
        }
        let now = Timestamp::from_weeks(3);
        let stranger = d("stranger.com");
        let a = e
            .browsing_topics(&stranger, &site("news.com"), now)
            .unwrap();
        // The stranger never observed the user: every returned topic must
        // be a 5% noise replacement (usually none at all).
        assert!(a.topics.iter().all(|t| t.noised), "{:?}", a.topics);
        let b = e
            .browsing_topics(&observer, &site("news.com"), now)
            .unwrap();
        assert!(b.topics.len() >= a.topics.iter().filter(|t| !t.noised).count());
    }

    #[test]
    fn noise_rate_is_about_five_percent() {
        // Across many (profile, site) pairs, ~5% of slots are noised.
        let classifier = Arc::new(Classifier::new(3).with_unclassifiable_rate(0.0));
        let caller = d("cp.com");
        let mut noised = 0usize;
        let mut total = 0usize;
        for p in 0..300u64 {
            let mut e = TopicsEngine::new(classifier.clone(), p, true);
            for epoch in 0..3 {
                browse(&mut e, epoch, 30, &caller);
            }
            for s in 0..10 {
                let a = e
                    .browsing_topics(
                        &caller,
                        &site(&format!("visit{s}.com")),
                        Timestamp::from_weeks(3),
                    )
                    .unwrap();
                // Count slots, not topics: each epoch contributes one slot.
                total += 3;
                noised += a.topics.iter().filter(|t| t.noised).count();
            }
        }
        let rate = noised as f64 / total as f64;
        assert!(
            (rate - NOISE_PROBABILITY).abs() < 0.015,
            "noise rate {rate} (n={total})"
        );
    }

    #[test]
    fn calls_count_as_observations() {
        let mut e = engine();
        let caller = d("cp.com");
        // Epoch 0: caller calls the API on a site (observing it) but has
        // not observed anything else.
        let s = site("visited.com");
        e.record_visit(&s, Timestamp::from_weeks(0));
        let _ = e.browsing_topics(&caller, &s, Timestamp::from_weeks(0));
        // Epoch 1+: the topic of visited.com is now witnessable by caller.
        for epoch in 1..4 {
            e.record_visit(&site("filler.com"), Timestamp::from_weeks(epoch));
        }
        let a = e
            .browsing_topics(&caller, &s, Timestamp::from_weeks(4))
            .unwrap();
        // visited.com contributed topics in epoch 0; but epoch 0 is outside
        // the 3-epoch window at week 4 — verify window logic holds.
        for t in &a.topics {
            assert!(t.epoch >= 1);
        }
    }

    #[test]
    fn skip_observation_reads_without_observing() {
        let mut e = engine();
        let caller = d("quiet.com");
        // Epoch 0: browse, then call with skipObservation.
        let s = site("visited.com");
        e.record_visit(&s, Timestamp::from_weeks(0));
        let _ = e.browsing_topics_with_options(&caller, &s, Timestamp::from_weeks(0), false);
        for epoch in 1..4 {
            e.record_visit(&site("filler.com"), Timestamp::from_weeks(epoch));
        }
        // The quiet caller never became an observer: it can only ever
        // receive noise topics.
        let a = e
            .browsing_topics(&caller, &site("elsewhere.com"), Timestamp::from_weeks(3))
            .unwrap();
        assert!(a.topics.iter().all(|t| t.noised), "{:?}", a.topics);

        // Contrast: an ordinary call in epoch 0 does observe.
        let mut e2 = engine();
        let loud = d("loud.com");
        let s2 = site("visited.com");
        e2.record_visit(&s2, Timestamp::from_weeks(0));
        let _ = e2.browsing_topics(&loud, &s2, Timestamp::from_weeks(0));
        // In later epochs the loud caller is a witness of visited.com's
        // topics (when the slot picks one of them).
        let mut got_real = false;
        for probe in 0..30 {
            let a = e2
                .browsing_topics(
                    &loud,
                    &site(&format!("probe{probe}.com")),
                    Timestamp::from_weeks(1),
                )
                .unwrap();
            if a.topics.iter().any(|t| !t.noised) {
                got_real = true;
                break;
            }
        }
        assert!(got_real, "observing caller eventually receives real topics");
    }

    #[test]
    fn sensitive_topics_never_returned() {
        let sensitive = Taxonomy::global().sensitive_root();
        let mut e = engine();
        let caller = d("cp.com");
        for epoch in 0..3 {
            browse(&mut e, epoch, 60, &caller);
        }
        for s in 0..50 {
            let a = e
                .browsing_topics(
                    &caller,
                    &site(&format!("check{s}.com")),
                    Timestamp::from_weeks(3),
                )
                .unwrap();
            assert!(a.topics.iter().all(|t| t.topic != sensitive));
        }
    }

    #[test]
    fn v1_engine_reports_v1_and_stays_in_range() {
        use topics_taxonomy::{TaxonomyVersion, TAXONOMY_V1_SIZE};
        let classifier = Arc::new(
            Classifier::new_with_version(7, TaxonomyVersion::V1).with_unclassifiable_rate(0.0),
        );
        let mut e = TopicsEngine::new(classifier, 42, true);
        let caller = d("cp.com");
        for epoch in 0..3 {
            let t = Timestamp::from_weeks(epoch);
            for i in 0..40 {
                let s = site(&format!("v1x{epoch}x{i}.com"));
                e.record_visit(&s, t);
                e.record_observation(&caller, &s, t);
            }
        }
        let a = e
            .browsing_topics(&caller, &site("news.com"), Timestamp::from_weeks(3))
            .unwrap();
        assert_eq!(a.taxonomy_version, "1");
        for t in &a.topics {
            assert!((t.topic.get() as usize) <= TAXONOMY_V1_SIZE);
        }
    }

    #[test]
    fn epochs_with_data_reflect_history() {
        let mut e = engine();
        e.record_visit(&site("a.com"), Timestamp::from_weeks(2));
        e.record_visit(&site("b.com"), Timestamp::from_weeks(5));
        assert_eq!(e.epochs_with_data(), vec![2, 5]);
        assert_eq!(e.sites_in_epoch(2), 1);
        assert_eq!(e.sites_in_epoch(3), 0);
    }
}
