//! The site universe a synthetic population browses.
//!
//! The re-identification experiments (refs [17, 23] of the paper) need
//! many users with persistent browsing habits. Each user carries a few
//! interest topics and, epoch after epoch, visits sites whose classifier
//! topics overlap those interests (see [`crate::arena::visits_for`]) —
//! so their Topics profiles are stable enough to attack, like real
//! users'. This module holds the sites they visit, indexed by topic.

use topics_browser::origin::Site;
use topics_net::domain::Domain;
use topics_net::seed;
use topics_net::url::Url;
use topics_taxonomy::{Classification, Classifier, TopicId, TAXONOMY_SIZE};

/// The browsable site universe: a pool of domains with stable
/// classifier-assigned topics.
#[derive(Debug, Clone)]
pub struct SiteUniverse {
    domains: Vec<Domain>,
    topics: Vec<Vec<TopicId>>,
    by_topic: Vec<Vec<usize>>,
}

impl SiteUniverse {
    /// Build a universe of `n` sites classified by `classifier`.
    ///
    /// Generated domains are guaranteed pairwise distinct: a colliding
    /// name would silently alias two site indices onto one registrable
    /// domain and shrink the effective universe, so collisions are
    /// disambiguated with a deterministic retry suffix. First-attempt
    /// names are unchanged, keeping existing seeds' universes stable.
    pub fn generate(seed_val: u64, n: usize, classifier: &Classifier) -> SiteUniverse {
        let mut domains = Vec::with_capacity(n);
        let mut topics = Vec::with_capacity(n);
        let mut by_topic: Vec<Vec<usize>> = vec![Vec::new(); TAXONOMY_SIZE + 1];
        let mut taken: std::collections::HashSet<String> = std::collections::HashSet::new();
        for i in 0..n {
            let prefix = seed::derive_idx(seed_val, i as u64) % 0x1000;
            let mut attempt = 0u32;
            let reg = loop {
                let name = if attempt == 0 {
                    format!("pop{prefix:03x}-{i}.com")
                } else {
                    format!("pop{prefix:03x}-{i}-r{attempt}.com")
                };
                let d = Domain::parse(&name).expect("valid generated domain");
                let reg = topics_net::psl::registrable_domain(&d);
                if taken.insert(reg.as_str().to_string()) {
                    break reg;
                }
                attempt += 1;
            };
            let t = match classifier.classify(&reg) {
                Classification::Topics(t) => t,
                Classification::Unclassifiable => Vec::new(),
            };
            for id in &t {
                by_topic[id.get() as usize].push(i);
            }
            domains.push(reg);
            topics.push(t);
        }
        SiteUniverse {
            domains,
            topics,
            by_topic,
        }
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.domains.len()
    }

    /// True when the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.domains.is_empty()
    }

    /// The site at an index, as a Topics-API [`Site`].
    pub fn site(&self, idx: usize) -> Site {
        Site::of(&Url::https(self.domains[idx].clone(), "/"))
    }

    /// The topics of the site at `idx`.
    pub fn topics(&self, idx: usize) -> &[TopicId] {
        &self.topics[idx]
    }

    /// Sites carrying a given topic.
    pub fn sites_with_topic(&self, topic: TopicId) -> &[usize] {
        &self.by_topic[topic.get() as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::{slot_topic, user_seed, visits_for, PopulationArena, MAX_INTERESTS};

    const SEED: u64 = 7;
    const VISITS: usize = 20;

    fn setup() -> (SiteUniverse, PopulationArena) {
        let classifier = Classifier::new(5).with_unclassifiable_rate(0.0);
        let universe = SiteUniverse::generate(SEED, 400, &classifier);
        let arena = PopulationArena::build(SEED, 30, 4, VISITS, &universe, 1).unwrap();
        (universe, arena)
    }

    /// The sites `user` visits in `epoch`.
    fn visits(
        universe: &SiteUniverse,
        arena: &PopulationArena,
        user: usize,
        epoch: u64,
    ) -> Vec<u32> {
        let mut out = Vec::new();
        let interests = arena.interests_of(user);
        visits_for(
            user_seed(SEED, user),
            interests,
            universe,
            epoch,
            VISITS,
            &mut out,
        );
        out
    }

    #[test]
    fn universe_indexes_topics() {
        let (u, _) = setup();
        assert_eq!(u.len(), 400);
        assert!(!u.is_empty());
        for i in 0..u.len() {
            for t in u.topics(i) {
                assert!(u.sites_with_topic(*t).contains(&i));
            }
        }
    }

    #[test]
    fn users_have_interests_and_history() {
        let (universe, arena) = setup();
        for user in 0..arena.users() {
            assert!((2..=MAX_INTERESTS).contains(&arena.interests_of(user).len()));
            for epoch in 0..arena.epochs() {
                assert!(!visits(&universe, &arena, user, epoch).is_empty());
                // Every site is classified, so every epoch has real topics.
                assert!(slot_topic(arena.slot(epoch, user)[0]).1);
            }
            assert!(arena.seen_count(user) > 0);
        }
    }

    #[test]
    fn generated_domains_are_unique_even_past_the_prefix_space() {
        // 8192 sites overflow the 0x1000 prefix space twice over; every
        // registrable domain must still be distinct or sites alias.
        let classifier = Classifier::new(3);
        let u = SiteUniverse::generate(3, 0x2000, &classifier);
        let mut names: Vec<String> = (0..u.len())
            .map(|i| u.site(i).domain().as_str().to_string())
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "colliding generated domains");
    }

    #[test]
    fn browsing_is_interest_skewed() {
        let (universe, arena) = setup();
        // A user's visited sites should over-represent their interests.
        let interests = arena.interests_of(0);
        let visits = visits(&universe, &arena, 0, 0);
        let interest_hits = visits
            .iter()
            .filter(|&&i| {
                universe
                    .topics(i as usize)
                    .iter()
                    .any(|t| interests.contains(&t.get()))
            })
            .count();
        assert!(
            interest_hits * 2 > visits.len(),
            "{interest_hits}/{} visits on-interest",
            visits.len()
        );
    }

    #[test]
    fn browsing_is_deterministic() {
        let (universe, arena) = setup();
        let a = visits(&universe, &arena, 3, 2);
        let b = visits(&universe, &arena, 3, 2);
        assert_eq!(a, b);
        let c = visits(&universe, &arena, 3, 3);
        assert_ne!(a, c, "different epochs differ");
    }
}
