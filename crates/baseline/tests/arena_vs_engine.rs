//! Oracle: the population arena against the real Topics engine.
//!
//! For every user and epoch of a small [`PopulationArena`], one real
//! [`TopicsEngine`] (same [`Classifier`] as the site universe) records
//! exactly the visits the arena drew for that user — the list from
//! [`arena::visits_for`] — and the two must agree on what the epoch
//! holds:
//!
//! * the slot's real topics equal the real topics of `engine.top5(e)`,
//!   in rank order;
//! * the slot answers exactly when the engine's epoch has history
//!   (`sites_in_epoch(e) > 0`), since the engine answers any epoch with
//!   history — with a real topic, a pad or noise. Every arena slot
//!   answers, so the engine must have history in every user-epoch;
//! * every slot holds [`TOP_N`] distinct, non-sensitive topics.
//!
//! Pads and exposed topics are not compared slot for slot. The engine
//! seeds its pads and its per-call answer from
//! `derive(profile_seed, "topics-engine")` and the top site's text; the
//! arena seeds them from `user_seed` and the site's universe index.
//! Making those derivations match would change every committed
//! `tests/golden/sim_*.csv`, so it is out of scope here: this oracle
//! pins the ranking and the answered-or-silent decision, which the
//! exposure path builds on.

use std::sync::Arc;
use topics_baseline::arena::{self, slot_topic, user_seed, PopulationArena, TOP_N};
use topics_baseline::SiteUniverse;
use topics_browser::topics::TopicsEngine;
use topics_net::clock::Timestamp;
use topics_taxonomy::{Classifier, Taxonomy, TopicId};

const USERS: usize = 300;
const EPOCHS: u64 = 6;
const SITES: usize = 400;

/// Check every user-epoch of one arena shape against the engine.
fn check(seed: u64, visits: usize, classifier: Classifier) {
    let classifier = Arc::new(classifier);
    let universe = SiteUniverse::generate(seed, SITES, &classifier);
    let arena =
        PopulationArena::build(seed, USERS, EPOCHS, visits, &universe, 2).expect("arena builds");
    let sensitive = Taxonomy::global().sensitive_root();
    let mut drawn = Vec::new();
    for u in 0..USERS {
        let us = user_seed(seed, u);
        let mut engine = TopicsEngine::new(classifier.clone(), us, true);
        for e in 0..EPOCHS {
            arena::visits_for(us, arena.interests_of(u), &universe, e, visits, &mut drawn);
            for &i in &drawn {
                engine.record_visit(&universe.site(i as usize), Timestamp::from_weeks(e));
            }
            let slot: Vec<(TopicId, bool)> =
                arena.slot(e, u).iter().map(|&v| slot_topic(v)).collect();
            let real: Vec<TopicId> = slot.iter().filter(|t| t.1).map(|t| t.0).collect();
            let engine_real: Vec<TopicId> = engine
                .top5(e)
                .iter()
                .filter(|t| t.real)
                .map(|t| t.topic)
                .collect();
            assert_eq!(real, engine_real, "real top-5, user {u} epoch {e}");
            // An arena slot always answers (with a real topic, a pad or
            // noise), so the engine's epoch must have history too.
            assert!(
                engine.sites_in_epoch(e) > 0,
                "the arena answers but the engine is silent, user {u} epoch {e}"
            );
            let mut ids: Vec<TopicId> = slot.iter().map(|t| t.0).collect();
            assert!(
                !ids.contains(&sensitive),
                "sensitive topic, user {u} epoch {e}"
            );
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), TOP_N, "distinct topics, user {u} epoch {e}");
        }
    }
}

#[test]
fn full_epochs_agree_with_the_engine() {
    check(41, 18, Classifier::new(41));
}

#[test]
fn one_visit_epochs_agree_with_the_engine() {
    // A single visit to an unclassifiable site still gives the epoch
    // history: the engine pads it to five and answers.
    check(42, 1, Classifier::new(42));
}

#[test]
fn mostly_unclassifiable_epochs_agree_with_the_engine() {
    check(43, 2, Classifier::new(43).with_unclassifiable_rate(0.9));
}
