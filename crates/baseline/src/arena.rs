//! Population-wide epoch-major topic-history arena.
//!
//! Each user carries 2–4 interest topics and, every epoch, visits sites
//! of the [`SiteUniverse`] that mostly carry those interests
//! ([`visits_for`]). The arena keeps, per user-epoch, what the real
//! `topics_browser::topics::TopicsEngine` would rank from those visits:
//! the top-[`TOP_N`] topics by contributing-site count, padded with
//! random returnable topics when fewer are real, so an epoch with any
//! visit always answers. `tests/arena_vs_engine.rs` checks that
//! agreement against the engine itself. One engine per user would be
//! hash maps of hash maps of `Domain` strings — tens of millions of
//! small heap objects for a million users over thirty epochs — so the
//! whole population lives in three flat buffers instead, fits in a few
//! hundred megabytes and advances in parallel:
//!
//! * `top5` — epoch-major packed slots: the ranked top-[`TOP_N`]
//!   topics of `(epoch e, user u)` live at
//!   `((e * users + u) * TOP_N)..+TOP_N`, one `u16` per topic (low
//!   bits the topic id, bit 15 set when the topic is real rather than
//!   padding). 10 bytes per user-epoch: a 1M-user × 30-epoch world is
//!   300 MB, laid out so one epoch is one contiguous stripe.
//! * `seen` — one fixed-size taxonomy bitset ([`BITSET_WORDS`] ×
//!   `u64`) per user: every topic that ever entered the user's
//!   per-epoch history.
//! * `interests` — up to [`MAX_INTERESTS`] packed topic ids per user
//!   (`0` marks an empty slot; real topic ids start at 1).
//!
//! ## Seeding contract
//!
//! Every per-user quantity is a pure function of
//! `(sim_seed, user_id, epoch)`:
//!
//! ```text
//! user_seed(u)        = derive_idx(derive(sim_seed, "sim-user"), u)
//! visits(u, e)        = f(derive_idx(derive(user_seed, "visits"), e))
//! pad topics (u, e)   = f(derive_idx(derive(user_seed, "pad"), e ^ (attempt << 32)))
//! answer slot (u,e,s) = f(derive_idx(derive_idx(derive(user_seed, "slot"), e), s))
//! ```
//!
//! Nothing depends on scheduling: epoch advancement distributes
//! fixed user blocks over the workspace's claim-queue pool
//! ([`topics_net::pool`], the crawler's pool too), and each block owns
//! its output slices. The arena bytes are therefore identical for any
//! `--threads`, which the simulation determinism suite asserts.

use topics_net::{pool, seed};
use topics_taxonomy::{Taxonomy, TopicId, TAXONOMY_SIZE};

use crate::population::SiteUniverse;

/// Topics kept per user-epoch slot (mirrors
/// [`topics_browser::topics::TOP_N`]).
pub const TOP_N: usize = topics_browser::topics::TOP_N;
/// Words per fixed-size taxonomy bitset: topic ids 1..=469 plus the
/// unused id 0, rounded up to whole `u64`s.
pub const BITSET_WORDS: usize = (TAXONOMY_SIZE + 1).div_ceil(64);
/// Interest slots per user; the generator draws 2–4 interests.
pub const MAX_INTERESTS: usize = 4;

/// Bit 15 marks a slot topic as real (organic) rather than padding.
/// Topic ids fit in 9 bits, so the flag never collides.
const REAL_BIT: u16 = 1 << 15;

/// Users per parallel work block. Big enough that the queue lock is
/// cold (a 1M-user epoch is ~250 claims), small enough to load-balance
/// the tail.
const BLOCK_USERS: usize = 4096;

/// The per-user seed every simulated quantity derives from — the
/// `(campaign_seed, user_id)` half of the seeding contract.
#[inline]
pub fn user_seed(sim_seed: u64, user: usize) -> u64 {
    seed::derive_idx(seed::derive(sim_seed, "sim-user"), user as u64)
}

/// Unpack one arena slot: the topic and whether it was real (`true`)
/// or padding (`false`).
#[inline]
pub fn slot_topic(v: u16) -> (TopicId, bool) {
    (TopicId(v & !REAL_BIT), v & REAL_BIT != 0)
}

/// A deterministic uniformly random topic outside the sensitive
/// subtree — the same padding/noise draw as
/// `topics_browser::topics`' private helper.
pub(crate) fn random_returnable(taxonomy: &Taxonomy, s: u64) -> TopicId {
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

/// A fixed-size topic membership set over the taxonomy — 64 bytes,
/// no heap, `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopicBitset {
    words: [u64; BITSET_WORDS],
}

impl TopicBitset {
    /// The empty set.
    pub const fn new() -> TopicBitset {
        TopicBitset {
            words: [0; BITSET_WORDS],
        }
    }

    /// Add a topic.
    #[inline]
    pub fn insert(&mut self, t: TopicId) {
        let id = t.get() as usize;
        self.words[id / 64] |= 1 << (id % 64);
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, t: TopicId) -> bool {
        let id = t.get() as usize;
        self.words[id / 64] & (1 << (id % 64)) != 0
    }

    /// Remove every topic.
    pub fn clear(&mut self) {
        self.words = [0; BITSET_WORDS];
    }

    /// Number of topics in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no topic is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}

impl Default for TopicBitset {
    fn default() -> TopicBitset {
        TopicBitset::new()
    }
}

/// The deterministic visit list of `(user_seed, epoch)`: 80%
/// interest-driven, 20% uniform exploration, deduplicated, written into
/// `out` so the caller can reuse one buffer across users.
///
/// Both epoch advancement and adversary profile collection call this;
/// having a single definition is what makes the witness filter agree
/// with the recorded history.
pub fn visits_for(
    user_seed: u64,
    interests: &[u16],
    universe: &SiteUniverse,
    epoch: u64,
    per_epoch: usize,
    out: &mut Vec<u32>,
) {
    out.clear();
    let s = seed::derive_idx(seed::derive(user_seed, "visits"), epoch);
    let n_sites = universe.len() as u64;
    for k in 0..per_epoch {
        let pick = seed::derive_idx(s, k as u64);
        let idx = if !interests.is_empty() && seed::unit_f64(seed::derive(pick, "drive")) < 0.8 {
            let interest = TopicId(interests[(pick % interests.len() as u64) as usize]);
            let candidates = universe.sites_with_topic(interest);
            if candidates.is_empty() {
                (pick % n_sites) as u32
            } else {
                candidates[(seed::derive(pick, "cand") % candidates.len() as u64) as usize] as u32
            }
        } else {
            (pick % n_sites) as u32
        };
        if !out.contains(&idx) {
            out.push(idx);
        }
    }
}

/// The population-wide topic-history arena. See the module docs for
/// the layout and seeding contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PopulationArena {
    seed: u64,
    users: usize,
    epochs: u64,
    visits_per_epoch: usize,
    top5: Vec<u16>,
    seen: Vec<u64>,
    interests: Vec<u16>,
    visits_total: u64,
}

impl PopulationArena {
    /// Build the arena: draw every user's interests, then advance all
    /// `epochs` epochs of browsing over `threads` workers. The result
    /// is byte-identical for any `threads` value.
    pub fn build(
        sim_seed: u64,
        users: usize,
        epochs: u64,
        visits_per_epoch: usize,
        universe: &SiteUniverse,
        threads: usize,
    ) -> Result<PopulationArena, String> {
        if users == 0 || epochs == 0 || visits_per_epoch == 0 {
            return Err("population needs users ≥ 1, epochs ≥ 1, visits ≥ 1".into());
        }
        let slots = users
            .checked_mul(epochs as usize)
            .and_then(|n| n.checked_mul(TOP_N))
            .ok_or("users × epochs overflows the arena")?;
        let taxonomy = Taxonomy::global();
        let sensitive = taxonomy.sensitive_root();
        // Interests come from topics that actually cover ≥ 2 universe
        // sites, so interest-driven browsing has sites to land on.
        let available: Vec<u16> = (1..=TAXONOMY_SIZE as u16)
            .filter(|&t| t != sensitive.get() && universe.sites_with_topic(TopicId(t)).len() >= 2)
            .collect();
        if available.is_empty() {
            return Err("universe too small: no topic covers ≥ 2 sites".into());
        }

        let mut top5 = vec![0u16; slots];
        let mut seen = vec![0u64; users * BITSET_WORDS];
        let mut interests = vec![0u16; users * MAX_INTERESTS];
        let mut visits_total = 0u64;

        // Pass 1: interests. Blocks only touch their own slice, so the
        // claim order cannot leak into the output.
        {
            let jobs: Vec<(usize, &mut [u16])> = interests
                .chunks_mut(BLOCK_USERS * MAX_INTERESTS)
                .enumerate()
                .collect();
            pool::run(jobs, threads, None, |(block, chunk)| {
                for local in 0..chunk.len() / MAX_INTERESTS {
                    let u = block * BLOCK_USERS + local;
                    let s = user_seed(sim_seed, u);
                    let n_interests = 2 + (seed::derive(s, "k") % 3) as usize;
                    let out = &mut chunk[local * MAX_INTERESTS..][..MAX_INTERESTS];
                    let mut picked = 0;
                    let mut attempt = 0u64;
                    while picked < n_interests && attempt < 64 {
                        let t = available[(seed::derive_idx(seed::derive(s, "interest"), attempt)
                            % available.len() as u64)
                            as usize];
                        attempt += 1;
                        if !out[..picked].contains(&t) {
                            out[picked] = t;
                            picked += 1;
                        }
                    }
                }
            });
        }

        // Pass 2: epoch advancement. Epochs run in order (the clock is
        // sequential); within an epoch the user stripe is split into
        // blocks and each block's top-5 slots and seen-bitset words are
        // owned by exactly one claim.
        for e in 0..epochs {
            let stripe = &mut top5[(e as usize) * users * TOP_N..][..users * TOP_N];
            let jobs: Vec<(usize, &mut [u16], &mut [u64])> = stripe
                .chunks_mut(BLOCK_USERS * TOP_N)
                .zip(seen.chunks_mut(BLOCK_USERS * BITSET_WORDS))
                .enumerate()
                .map(|(block, (slots, seen))| (block, slots, seen))
                .collect();
            let visits = pool::run(jobs, threads, None, |(block, slot_chunk, seen_chunk)| {
                let mut counts = vec![0u16; TAXONOMY_SIZE + 1];
                let mut touched: Vec<u16> = Vec::with_capacity(64);
                let mut visits: Vec<u32> = Vec::with_capacity(visits_per_epoch);
                let mut block_visits = 0u64;
                for local in 0..slot_chunk.len() / TOP_N {
                    let u = block * BLOCK_USERS + local;
                    let us = user_seed(sim_seed, u);
                    let ints = trimmed(interests_ref(&interests, u));
                    visits_for(us, ints, universe, e, visits_per_epoch, &mut visits);
                    block_visits += visits.len() as u64;

                    touched.clear();
                    for &si in &visits {
                        for t in universe.topics(si as usize) {
                            let id = t.get();
                            if counts[id as usize] == 0 {
                                touched.push(id);
                            }
                            counts[id as usize] += 1;
                        }
                    }
                    // Rank by contributing-site count descending, topic
                    // id ascending — the engine's `top5` order.
                    touched.sort_unstable_by(|a, b| {
                        counts[*b as usize].cmp(&counts[*a as usize]).then(a.cmp(b))
                    });
                    let slot = &mut slot_chunk[local * TOP_N..][..TOP_N];
                    let n_real = touched.len().min(TOP_N);
                    for k in 0..n_real {
                        slot[k] = touched[k] | REAL_BIT;
                    }
                    // Pad to TOP_N with deterministic random returnable
                    // topics, exactly as the engine pads a thin epoch —
                    // including one whose visits carry no classifiable
                    // topic: the engine still has history for it and
                    // answers with a pad or noise. `visits_per_epoch ≥ 1`
                    // gives every user-epoch at least one visit. With 468
                    // returnable topics the draw always finds five.
                    let pad_seed = seed::derive(us, "pad");
                    let mut k = n_real;
                    let mut attempt = 0u64;
                    while k < TOP_N {
                        let pick = random_returnable(
                            taxonomy,
                            seed::derive_idx(pad_seed, e ^ (attempt << 32)),
                        )
                        .get();
                        attempt += 1;
                        if !slot[..k].iter().any(|&v| v & !REAL_BIT == pick) {
                            slot[k] = pick;
                            k += 1;
                        }
                    }
                    let sw = &mut seen_chunk[local * BITSET_WORDS..][..BITSET_WORDS];
                    for &id in &touched {
                        sw[id as usize / 64] |= 1 << (id % 64);
                        counts[id as usize] = 0;
                    }
                }
                block_visits
            });
            visits_total += visits.results.iter().sum::<u64>();
        }

        Ok(PopulationArena {
            seed: sim_seed,
            users,
            epochs,
            visits_per_epoch,
            top5,
            seen,
            interests,
            visits_total,
        })
    }

    /// The simulation seed the arena was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Population size.
    pub fn users(&self) -> usize {
        self.users
    }

    /// Epochs advanced.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Visit budget per user-epoch (before dedup).
    pub fn visits_per_epoch(&self) -> usize {
        self.visits_per_epoch
    }

    /// Total deduplicated site visits simulated across the population.
    pub fn visits_total(&self) -> u64 {
        self.visits_total
    }

    /// The packed top-[`TOP_N`] slot of `(epoch, user)`.
    #[inline]
    pub fn slot(&self, epoch: u64, user: usize) -> &[u16] {
        let at = ((epoch as usize) * self.users + user) * TOP_N;
        &self.top5[at..at + TOP_N]
    }

    /// The user's interests (2–4 packed topic ids).
    pub fn interests_of(&self, user: usize) -> &[u16] {
        trimmed(interests_ref(&self.interests, user))
    }

    /// The user's observed-topic bitset words.
    pub fn seen_of(&self, user: usize) -> &[u64] {
        &self.seen[user * BITSET_WORDS..][..BITSET_WORDS]
    }

    /// Distinct topics that ever entered the user's history.
    pub fn seen_count(&self, user: usize) -> u32 {
        self.seen_of(user).iter().map(|w| w.count_ones()).sum()
    }

    /// Heap footprint of the three buffers, in bytes — what the
    /// simulate report and the ledger call the arena size.
    pub fn heap_bytes(&self) -> u64 {
        (self.top5.len() * 2 + self.seen.len() * 8 + self.interests.len() * 2) as u64
    }
}

#[inline]
fn interests_ref(packed: &[u16], user: usize) -> &[u16] {
    &packed[user * MAX_INTERESTS..][..MAX_INTERESTS]
}

/// Drop trailing empty (`0`) interest slots.
#[inline]
fn trimmed(slots: &[u16]) -> &[u16] {
    let n = slots.iter().position(|&t| t == 0).unwrap_or(slots.len());
    &slots[..n]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use topics_taxonomy::Classifier;

    fn universe() -> SiteUniverse {
        let classifier = Classifier::new(5).with_unclassifiable_rate(0.0);
        SiteUniverse::generate(5, 300, &classifier)
    }

    #[test]
    fn bitset_inserts_and_counts() {
        let mut s = TopicBitset::new();
        assert!(s.is_empty());
        s.insert(TopicId(1));
        s.insert(TopicId(64));
        s.insert(TopicId(469));
        s.insert(TopicId(469));
        assert_eq!(s.len(), 3);
        assert!(s.contains(TopicId(64)));
        assert!(!s.contains(TopicId(65)));
        s.clear();
        assert!(s.is_empty());
        assert_eq!(TopicBitset::default(), TopicBitset::new());
    }

    #[test]
    fn slot_packing_roundtrips() {
        assert_eq!(slot_topic(7 | REAL_BIT), (TopicId(7), true));
        assert_eq!(slot_topic(7), (TopicId(7), false));
        assert_eq!(slot_topic(469 | REAL_BIT), (TopicId(469), true));
    }

    #[test]
    fn arena_is_byte_identical_for_any_thread_count() {
        let u = universe();
        let one = PopulationArena::build(11, 500, 6, 15, &u, 1).unwrap();
        let four = PopulationArena::build(11, 500, 6, 15, &u, 4).unwrap();
        let eight = PopulationArena::build(11, 500, 6, 15, &u, 8).unwrap();
        assert_eq!(one, four);
        assert_eq!(four, eight);
        assert!(one.visits_total() > 0);
    }

    #[test]
    fn arena_depends_on_the_seed() {
        let u = universe();
        let a = PopulationArena::build(11, 200, 4, 15, &u, 2).unwrap();
        let b = PopulationArena::build(12, 200, 4, 15, &u, 2).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn slots_hold_five_unique_ranked_topics() {
        let u = universe();
        let arena = PopulationArena::build(23, 120, 5, 20, &u, 3).unwrap();
        let sensitive = Taxonomy::global().sensitive_root();
        for user in 0..arena.users() {
            assert!((2..=MAX_INTERESTS).contains(&arena.interests_of(user).len()));
            for e in 0..arena.epochs() {
                let slot = arena.slot(e, user);
                let topics: Vec<u16> = slot.iter().map(|&v| slot_topic(v).0.get()).collect();
                let mut dedup = topics.clone();
                dedup.sort_unstable();
                dedup.dedup();
                assert_eq!(dedup.len(), TOP_N, "no duplicate topics in a slot");
                assert!(!topics.contains(&sensitive.get()));
                // Real topics precede pads, and every real topic is in
                // the user's seen bitset.
                let mut seen_pad = false;
                for &v in slot {
                    let (t, real) = slot_topic(v);
                    if real {
                        assert!(!seen_pad, "real topic after a pad");
                        assert!(
                            arena.seen_of(user)[t.get() as usize / 64] & (1 << (t.get() % 64)) != 0
                        );
                    } else {
                        seen_pad = true;
                    }
                }
            }
        }
    }

    #[test]
    fn real_topics_match_an_independent_ranking() {
        let u = universe();
        let arena = PopulationArena::build(31, 60, 4, 25, &u, 2).unwrap();
        for user in [0usize, 17, 59] {
            for e in 0..4u64 {
                let mut visits = Vec::new();
                visits_for(
                    user_seed(31, user),
                    arena.interests_of(user),
                    &u,
                    e,
                    25,
                    &mut visits,
                );
                let mut counts: HashMap<u16, usize> = HashMap::new();
                for &si in &visits {
                    for t in u.topics(si as usize) {
                        *counts.entry(t.get()).or_insert(0) += 1;
                    }
                }
                let mut ranked: Vec<(u16, usize)> = counts.into_iter().collect();
                ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                let expect: Vec<u16> = ranked.into_iter().take(TOP_N).map(|(t, _)| t).collect();
                let reals: Vec<u16> = arena
                    .slot(e, user)
                    .iter()
                    .map(|&v| slot_topic(v))
                    .filter(|(_, real)| *real)
                    .map(|(t, _)| t.get())
                    .collect();
                assert_eq!(reals, expect, "user {user} epoch {e}");
            }
        }
    }

    #[test]
    fn build_rejects_degenerate_configs() {
        let u = universe();
        assert!(PopulationArena::build(1, 0, 3, 10, &u, 1).is_err());
        assert!(PopulationArena::build(1, 10, 0, 10, &u, 1).is_err());
        assert!(PopulationArena::build(1, 10, 3, 0, &u, 1).is_err());
        let empty = SiteUniverse::generate(9, 0, &Classifier::new(9));
        assert!(PopulationArena::build(1, 10, 3, 10, &empty, 1).is_err());
    }

    #[test]
    fn heap_bytes_counts_the_three_buffers() {
        let u = universe();
        let arena = PopulationArena::build(3, 100, 4, 10, &u, 2).unwrap();
        let expect = (100 * 4 * TOP_N * 2) + (100 * BITSET_WORDS * 8) + (100 * MAX_INTERESTS * 2);
        assert_eq!(arena.heap_bytes(), expect as u64);
    }
}
