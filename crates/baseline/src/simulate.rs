//! Population-scale Topics simulation: k-anonymity and
//! re-identification curves over the arena.
//!
//! This module runs Jha et al.'s cross-context linkage attack against
//! the [`crate::arena::PopulationArena`], so the curves the paper's
//! references report (k-anonymity of the exposed top-5 sets,
//! re-identification rate versus epochs observed) can be measured at
//! 10⁵–10⁶ users:
//!
//! * Two disjoint context panels (A and B) of embedded-caller sites
//!   each call the API once per user per site per collection epoch,
//!   reproducing the engine's answer path slot-for-slot: per-epoch
//!   uniform noise, pads, and the witness rule (a real topic is only
//!   returned if the caller observed the user on a matching site in
//!   that epoch). Each back-epoch's answers are drawn once per user,
//!   for both panels at a time, and carried for as long as the epoch
//!   stays in the call window.
//! * Returned topics accumulate into **sparse CSR profiles** — one
//!   `(topic, count)` run per user — instead of dense `TAXONOMY_SIZE`
//!   histograms.
//! * After every collection epoch the adversary links a user sample's
//!   context-B profiles against all context-A profiles by cosine,
//!   using per-profile norms computed once and per-topic **inverted
//!   candidate lists** so each query only touches users it shares a
//!   topic with — no all-pairs scan. Dot products are exact `u64`
//!   integers in a zeroed scratch array, where zero marks an untouched
//!   user, so candidates are gathered without a per-update branch.
//!
//! Everything is a pure function of `(seed, config)`: collection
//!   fans out over user blocks through the same claim-queue pool as
//!   arena advancement, and ties break toward the smallest user id,
//!   so the CSV artefacts are byte-identical for any `--threads`.

use std::collections::HashMap;
use std::fmt::Write as _;
use topics_net::{pool, seed};
use topics_taxonomy::{Taxonomy, TAXONOMY_SIZE};

use crate::arena::{self, slot_topic, user_seed, visits_for, PopulationArena, TopicBitset, TOP_N};
use crate::population::SiteUniverse;
use topics_taxonomy::Classifier;

/// Users per parallel collection/attack block.
const BLOCK: usize = 2048;

/// How far back one API call reaches (the engine's epoch window).
const WINDOW_BACK: u64 = topics_browser::topics::EPOCH_WINDOW;

/// Simulation shape: everything the curves depend on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Root seed; every derived quantity flows from it.
    pub seed: u64,
    /// Population size.
    pub users: usize,
    /// Epochs of browsing to advance.
    pub epochs: u64,
    /// Sites in the browsable universe.
    pub sites: usize,
    /// Visit budget per user per epoch (pre-dedup).
    pub visits_per_epoch: usize,
    /// Sites per adversary context panel (two disjoint panels).
    pub context_sites: usize,
    /// Trailing collection window: the adversary observes the last
    /// `window` epochs.
    pub window: u64,
    /// Users sampled as re-identification queries per checkpoint.
    pub sample: usize,
    /// Per-slot uniform-noise probability (the API's is 0.05).
    pub noise: f64,
}

impl SimConfig {
    /// A config with the defaults the `simulate` subcommand documents.
    pub fn new(seed: u64, users: usize, epochs: u64) -> SimConfig {
        SimConfig {
            seed,
            users,
            epochs,
            sites: 5000,
            visits_per_epoch: 20,
            context_sites: 20,
            window: default_window(epochs),
            sample: 10_000,
            noise: topics_browser::topics::NOISE_PROBABILITY,
        }
    }

    /// Check the shape is simulatable.
    pub fn validate(&self) -> Result<(), String> {
        if self.users < 2 {
            return Err("simulate needs --users ≥ 2".into());
        }
        if u32::try_from(self.users).is_err() {
            // Profiles, inverted lists, the sample and the best-match
            // ids all store user ids as `u32`.
            return Err(format!(
                "simulate needs --users ≤ {} (user ids are 32-bit), got {}",
                u32::MAX,
                self.users
            ));
        }
        if self.epochs == 0 {
            return Err("simulate needs --epochs ≥ 1".into());
        }
        if self.visits_per_epoch == 0 {
            return Err("simulate needs --visits ≥ 1".into());
        }
        if u32::try_from(self.sites).is_err() {
            // Panels and visit lists store site ids as `u32`.
            return Err(format!(
                "simulate needs --sites ≤ {} (site ids are 32-bit), got {}",
                u32::MAX,
                self.sites
            ));
        }
        if self.context_sites == 0 {
            return Err("simulate needs --context ≥ 1".into());
        }
        if !matches!(self.context_sites.checked_mul(2), Some(both) if both <= self.sites) {
            return Err(format!(
                "simulate needs --sites ≥ 2 × --context (sites {}, context {})",
                self.sites, self.context_sites
            ));
        }
        if self.window == 0 || self.window > self.epochs {
            return Err(format!(
                "simulate needs 1 ≤ --window ≤ --epochs (window {}, epochs {})",
                self.window, self.epochs
            ));
        }
        if self.sample == 0 {
            return Err("simulate needs --sample ≥ 1".into());
        }
        if !(0.0..=1.0).contains(&self.noise) {
            return Err(format!("--noise must be in [0, 1], got {}", self.noise));
        }
        Ok(())
    }
}

/// The default trailing observation window: everything after warm-up
/// (the engine answers from the previous [`WINDOW_BACK`] epochs, so
/// earlier collection sees mostly empty history), capped at 12 so
/// giant `--epochs` runs don't collect forever.
pub fn default_window(epochs: u64) -> u64 {
    epochs.saturating_sub(WINDOW_BACK).clamp(1, 12)
}

/// Aggregate API/attack counters, exposed as metrics by the CLI.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// `browsing_topics` calls issued (user × context site × epoch).
    pub api_calls: u64,
    /// Topics returned across all calls, post-dedup.
    pub topics_returned: u64,
    /// Returned topics that were noise or padding.
    pub noised_topics: u64,
    /// Re-identification queries evaluated across all checkpoints.
    pub queries: u64,
    /// Queries whose best cosine match was the true user.
    pub correct: u64,
}

/// One epoch of the k-anonymity curve: users grouped by their exact
/// exposed (real) top-5 topic set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KanonRow {
    /// Epoch the groups are computed over.
    pub epoch: u64,
    /// Population size.
    pub users: u64,
    /// Distinct real-topic-set groups.
    pub groups: u64,
    /// Users alone in their group (k = 1: fully identified by the set).
    pub unique_users: u64,
    /// Group size of the median user (user-weighted).
    pub median_group: u64,
    /// Group size of the 10th-percentile user (user-weighted).
    pub p10_group: u64,
}

/// One checkpoint of the re-identification curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReidentRow {
    /// Collection epochs observed so far.
    pub epochs_observed: u64,
    /// Queries evaluated at this checkpoint.
    pub queries: u64,
    /// Correct top-1 matches.
    pub correct: u64,
    /// Candidate population size.
    pub population: u64,
}

impl ReidentRow {
    /// Fraction of queries linked to the right user.
    pub fn accuracy(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.correct as f64 / self.queries as f64
        }
    }

    /// Random-guessing baseline.
    pub fn random_floor(&self) -> f64 {
        if self.population == 0 {
            0.0
        } else {
            1.0 / self.population as f64
        }
    }
}

/// Everything a finished simulation produced.
#[derive(Debug, Clone, PartialEq)]
pub struct SimRun {
    /// The config the run used.
    pub config: SimConfig,
    /// Per-epoch k-anonymity of the exposed top-5 sets.
    pub kanon: Vec<KanonRow>,
    /// Re-identification rate per collection checkpoint.
    pub reident: Vec<ReidentRow>,
    /// API/attack counters.
    pub stats: SimStats,
    /// Deduplicated site visits simulated.
    pub visits_total: u64,
    /// Arena heap footprint in bytes.
    pub arena_bytes: u64,
}

/// Build the site universe the population browses — derived from the
/// root seed, classified at the classifier's default unclassifiable
/// rate.
pub fn build_universe(cfg: &SimConfig) -> SiteUniverse {
    let s = seed::derive(cfg.seed, "sim-universe");
    SiteUniverse::generate(s, cfg.sites, &Classifier::new(s))
}

/// Advance the whole population — see [`PopulationArena::build`].
pub fn build_arena(
    cfg: &SimConfig,
    universe: &SiteUniverse,
    threads: usize,
) -> Result<PopulationArena, String> {
    PopulationArena::build(
        cfg.seed,
        cfg.users,
        cfg.epochs,
        cfg.visits_per_epoch,
        universe,
        threads,
    )
}

/// The per-epoch k-anonymity curve: group users by their exact set of
/// *real* (organic) top-5 topics — what an observer who strips the
/// uniform noise would learn — and report how identifying that set is.
pub fn kanon_curve(arena: &PopulationArena, threads: usize) -> Vec<KanonRow> {
    let jobs: Vec<u64> = (0..arena.epochs()).collect();
    pool::run(jobs, threads, None, |e| {
        // Real topic ids are ≤ 469 < 2^12 and arrive ranked; re-sorting
        // ascending makes the 12-bit-packed key canonical per set.
        let mut groups: HashMap<u64, u64> = HashMap::new();
        let mut ids = [0u16; TOP_N];
        for u in 0..arena.users() {
            let mut n = 0;
            for &v in arena.slot(e, u) {
                if let (t, true) = slot_topic(v) {
                    ids[n] = t.get();
                    n += 1;
                }
            }
            ids[..n].sort_unstable();
            let mut key = 1u64;
            for &id in &ids[..n] {
                key = key << 12 | id as u64;
            }
            *groups.entry(key).or_insert(0) += 1;
        }
        let mut sizes: Vec<u64> = groups.values().copied().collect();
        sizes.sort_unstable();
        let users = arena.users() as u64;
        let unique_users = sizes.iter().filter(|&&s| s == 1).count() as u64;
        KanonRow {
            epoch: e,
            users,
            groups: sizes.len() as u64,
            unique_users,
            median_group: weighted_percentile(&sizes, users, 50),
            p10_group: weighted_percentile(&sizes, users, 10),
        }
    })
    .results
}

/// The group size of the `pct`-th percentile **user** (not group):
/// walk group sizes ascending until `pct`% of users are covered.
fn weighted_percentile(sorted_sizes: &[u64], users: u64, pct: u64) -> u64 {
    let threshold = (users * pct).div_ceil(100).max(1);
    let mut covered = 0u64;
    for &s in sorted_sizes {
        covered += s;
        if covered >= threshold {
            return s;
        }
    }
    sorted_sizes.last().copied().unwrap_or(0)
}

/// The adversary's two disjoint context panels of embedding sites:
/// panel A is index 0, panel B index 1.
struct Panels {
    /// Each panel's sites, in draw order.
    sites: [Vec<u32>; 2],
    /// Per universe site: the panel it belongs to, or [`NO_PANEL`].
    panel_of: Vec<u8>,
}

/// [`Panels::panel_of`] marker for a site in neither panel.
const NO_PANEL: u8 = u8::MAX;

/// Draw two disjoint context panels from the universe.
fn pick_panels(cfg: &SimConfig, n_sites: usize) -> Panels {
    let s = seed::derive(cfg.seed, "ctx");
    let want = cfg.context_sites * 2;
    let mut picked: Vec<u32> = Vec::with_capacity(want);
    let mut panel_of = vec![NO_PANEL; n_sites];
    let mut j = 0u64;
    while picked.len() < want {
        let idx = (seed::derive_idx(s, j) % n_sites as u64) as usize;
        j += 1;
        if panel_of[idx] == NO_PANEL {
            panel_of[idx] = (picked.len() / cfg.context_sites) as u8;
            picked.push(idx as u32);
        }
    }
    let b = picked.split_off(cfg.context_sites);
    Panels {
        sites: [picked, b],
        panel_of,
    }
}

/// Sparse per-user topic profiles in CSR form: user `u`'s
/// `(topic, count)` run is `offsets[u]..offsets[u + 1]`, topics
/// ascending.
#[derive(Debug, PartialEq)]
struct Csr {
    offsets: Vec<u64>,
    topics: Vec<u16>,
    counts: Vec<u16>,
}

impl Csr {
    fn empty(users: usize) -> Csr {
        Csr {
            offsets: vec![0; users + 1],
            topics: Vec::new(),
            counts: Vec::new(),
        }
    }

    fn row(&self, u: usize) -> (&[u16], &[u16]) {
        let at = self.offsets[u] as usize..self.offsets[u + 1] as usize;
        (&self.topics[at.clone()], &self.counts[at])
    }
}

/// Merge per-user sorted runs of `inc` into `cum` (two-pointer,
/// saturating counts).
fn merge_csr(cum: &Csr, inc: &Csr) -> Csr {
    let users = cum.offsets.len() - 1;
    let mut out = Csr {
        offsets: Vec::with_capacity(users + 1),
        topics: Vec::with_capacity(cum.topics.len() + inc.topics.len()),
        counts: Vec::with_capacity(cum.counts.len() + inc.counts.len()),
    };
    out.offsets.push(0);
    for u in 0..users {
        let (at, ac) = cum.row(u);
        let (bt, bc) = inc.row(u);
        let (mut i, mut j) = (0, 0);
        while i < at.len() || j < bt.len() {
            if j >= bt.len() || (i < at.len() && at[i] < bt[j]) {
                out.topics.push(at[i]);
                out.counts.push(ac[i]);
                i += 1;
            } else if i >= at.len() || bt[j] < at[i] {
                out.topics.push(bt[j]);
                out.counts.push(bc[j]);
                j += 1;
            } else {
                out.topics.push(at[i]);
                out.counts.push(ac[i].saturating_add(bc[j]));
                i += 1;
                j += 1;
            }
        }
        out.offsets.push(out.topics.len() as u64);
    }
    out
}

/// Counters one collection epoch produces for one panel.
#[derive(Debug, Default, PartialEq)]
struct CollectStats {
    api_calls: u64,
    topics_returned: u64,
    noised: u64,
}

/// One block's worth of freshly collected profiles for one panel.
struct BlockOut {
    lens: Vec<u32>,
    topics: Vec<u16>,
    counts: Vec<u16>,
    stats: CollectStats,
}

impl BlockOut {
    fn new(users: usize) -> BlockOut {
        BlockOut {
            lens: Vec::with_capacity(users),
            topics: Vec::new(),
            counts: Vec::new(),
            stats: CollectStats::default(),
        }
    }
}

/// Low bits of a packed answer: the topic id (`0` marks a skip entry,
/// as real topic ids start at 1).
const TOPIC_BITS: u32 = 9;
const TOPIC_MASK: u32 = (1 << TOPIC_BITS) - 1;
/// Set when the answer was noise or padding.
const NOISED_BIT: u32 = 1 << TOPIC_BITS;
/// The high bits hold the gap to the previous answer's position.
const GAP_SHIFT: u32 = TOPIC_BITS + 1;
/// The largest gap one packed answer holds; a longer one is bridged by
/// skip entries of this gap each, so no shape is out of reach.
const GAP_MAX: u64 = (1 << (32 - GAP_SHIFT)) - 1;
const _: () = assert!(TAXONOMY_SIZE <= TOPIC_MASK as usize);

/// One back-epoch's API answers for one user block, drawn once and
/// carried for as long as the epoch stays in the call window.
///
/// Only calls that return a topic are kept, in position order: the call
/// of block-local user `l` on site `i` of panel `p` sits at position
/// `(2l + p) × context_sites + i`. Each answer packs into one `u32`:
/// topic, noised flag, and the gap to the previous answer's position
/// (from 0 for the first).
struct EpochAnswers {
    epoch: u64,
    packed: Vec<u32>,
    /// The newest answer's position.
    last: u64,
}

impl EpochAnswers {
    fn new(epoch: u64) -> EpochAnswers {
        EpochAnswers {
            epoch,
            packed: Vec::new(),
            last: 0,
        }
    }

    /// Append an answer at `pos`, after every answer so far.
    fn push(&mut self, pos: u64, topic: u16, noised: bool) {
        let mut gap = pos - self.last;
        while gap > GAP_MAX {
            self.packed.push((GAP_MAX as u32) << GAP_SHIFT);
            gap -= GAP_MAX;
        }
        let flag = if noised { NOISED_BIT } else { 0 };
        self.packed
            .push(((gap as u32) << GAP_SHIFT) | flag | topic as u32);
        self.last = pos;
    }
}

/// A reader over one [`EpochAnswers`], walking positions upward.
struct Cursor<'a> {
    packed: &'a [u32],
    at: usize,
    pos: u64,
}

impl<'a> Cursor<'a> {
    fn new(answers: &'a EpochAnswers) -> Cursor<'a> {
        Cursor {
            packed: &answers.packed,
            at: 0,
            pos: 0,
        }
    }

    /// The next answer positioned before `end`: `(position, topic,
    /// noised)`.
    fn next_before(&mut self, end: u64) -> Option<(u64, u16, bool)> {
        loop {
            let &w = self.packed.get(self.at)?;
            let pos = self.pos + (w >> GAP_SHIFT) as u64;
            if pos >= end {
                return None;
            }
            self.at += 1;
            self.pos = pos;
            let topic = (w & TOPIC_MASK) as u16;
            if topic != 0 {
                return Some((pos, topic, w & NOISED_BIT != 0));
            }
        }
    }
}

/// Collects both context panels checkpoint by checkpoint.
///
/// One API call at checkpoint `e` answers from the [`WINDOW_BACK`]
/// epochs before `e`, and each answer is a pure function of `(user,
/// site, back-epoch)` (the arena's seeding contract; the witness set is
/// empty before collection began). So every back-epoch is drawn once,
/// when it first enters the window, and carried by its user block for
/// the next checkpoints.
struct Collector<'a> {
    cfg: &'a SimConfig,
    universe: &'a SiteUniverse,
    arena: &'a PopulationArena,
    panels: Panels,
    /// The first collection epoch.
    first: u64,
    /// Per user block: the answers of the back-epochs still in the
    /// window, oldest first.
    carried: Vec<Vec<EpochAnswers>>,
}

impl<'a> Collector<'a> {
    fn new(cfg: &'a SimConfig, universe: &'a SiteUniverse, arena: &'a PopulationArena) -> Self {
        Collector {
            cfg,
            universe,
            arena,
            panels: pick_panels(cfg, universe.len()),
            first: cfg.epochs - cfg.window,
            carried: (0..cfg.users.div_ceil(BLOCK)).map(|_| Vec::new()).collect(),
        }
    }

    /// Run collection epoch `e` for both panels: every panel site calls
    /// the API once per user, answers are reproduced slot-for-slot from
    /// the arena (noise → replacement topic; real topics gated on the
    /// witness rule; pads always returnable), and the per-call engine
    /// dedup (smallest epoch wins per topic) is applied before topics
    /// land in the panel's CSR increment. Returns the `[A, B]`
    /// increments. Checkpoints must come one by one from the first
    /// collection epoch.
    fn checkpoint(&mut self, e: u64, threads: usize) -> [(Csr, CollectStats); 2] {
        let jobs: Vec<(usize, Vec<EpochAnswers>)> = std::mem::take(&mut self.carried)
            .into_iter()
            .enumerate()
            .collect();
        let this = &*self;
        let blocks = pool::run(jobs, threads, None, |(block, ring)| {
            this.collect_block(block, ring, e)
        });
        let (rings, outs): (Vec<_>, Vec<_>) = blocks.results.into_iter().unzip();
        self.carried = rings;
        let (a, b): (Vec<BlockOut>, Vec<BlockOut>) = outs.into_iter().map(|[a, b]| (a, b)).unzip();
        [
            concat_blocks(self.cfg.users, a),
            concat_blocks(self.cfg.users, b),
        ]
    }

    /// One user block at checkpoint `e`: draw the back-epochs the ring
    /// lacks, combine the ring's answers call by call, and return the
    /// ring trimmed to what the next checkpoint reuses.
    fn collect_block(
        &self,
        block: usize,
        mut ring: Vec<EpochAnswers>,
        e: u64,
    ) -> (Vec<EpochAnswers>, [BlockOut; 2]) {
        let lo = block * BLOCK;
        let hi = (lo + BLOCK).min(self.cfg.users);
        let drawn = ring
            .last()
            .map_or(e.saturating_sub(WINDOW_BACK), |a| a.epoch + 1);
        for pe in drawn..e {
            ring.push(self.draw(lo, hi, pe));
        }

        let context = self.cfg.context_sites as u64;
        let mut out = [BlockOut::new(hi - lo), BlockOut::new(hi - lo)];
        let mut counts = vec![0u16; TAXONOMY_SIZE + 1];
        let mut touched: Vec<u16> = Vec::with_capacity(64);
        let mut cursors: Vec<Cursor> = ring.iter().map(Cursor::new).collect();
        // (position, topic, ring index, noised): ring index order is
        // epoch order.
        let mut cand: Vec<(u64, u16, usize, bool)> = Vec::new();
        for run in 0..(hi - lo) as u64 * 2 {
            let panel_out = &mut out[(run % 2) as usize];
            panel_out.stats.api_calls += context;
            let end = (run + 1) * context;
            cand.clear();
            for (k, cursor) in cursors.iter_mut().enumerate() {
                while let Some((pos, t, noised)) = cursor.next_before(end) {
                    cand.push((pos, t, k, noised));
                }
            }
            // Engine dedup: one result per call and topic, oldest epoch
            // wins.
            cand.sort_unstable_by_key(|&(pos, t, k, _)| (pos, t, k));
            cand.dedup_by_key(|&mut (pos, t, _, _)| (pos, t));
            for &(_, t, _, noised) in &cand {
                panel_out.stats.topics_returned += 1;
                panel_out.stats.noised += noised as u64;
                if counts[t as usize] == 0 {
                    touched.push(t);
                }
                counts[t as usize] = counts[t as usize].saturating_add(1);
            }
            touched.sort_unstable();
            panel_out.lens.push(touched.len() as u32);
            for &t in &touched {
                panel_out.topics.push(t);
                panel_out.counts.push(counts[t as usize]);
                counts[t as usize] = 0;
            }
            touched.clear();
        }
        // The next checkpoint reaches back to `e + 1 - WINDOW_BACK`; the
        // last one carries nothing.
        if e + 1 < self.cfg.epochs {
            ring.retain(|a| a.epoch + WINDOW_BACK > e);
        } else {
            ring.clear();
        }
        (ring, out)
    }

    /// Every answer of back-epoch `pe` for users `lo..hi`. Each user's
    /// visit list is drawn once and fills both panels' witness sets,
    /// and only in epochs the adversary was collecting in.
    fn draw(&self, lo: usize, hi: usize, pe: u64) -> EpochAnswers {
        let (cfg, universe, arena, panels) = (self.cfg, self.universe, self.arena, &self.panels);
        let taxonomy = Taxonomy::global();
        let context = cfg.context_sites as u64;
        let mut answers = EpochAnswers::new(pe);
        let mut visits: Vec<u32> = Vec::with_capacity(cfg.visits_per_epoch);
        let mut wit = [TopicBitset::new(); 2];
        for u in lo..hi {
            let us = user_seed(arena.seed(), u);
            let epoch_root = seed::derive_idx(seed::derive(us, "slot"), pe);
            let slot = arena.slot(pe, u);
            wit[0].clear();
            wit[1].clear();
            if pe >= self.first {
                visits_for(
                    us,
                    arena.interests_of(u),
                    universe,
                    pe,
                    cfg.visits_per_epoch,
                    &mut visits,
                );
                for &si in &visits {
                    let p = panels.panel_of[si as usize];
                    if p != NO_PANEL {
                        for &t in universe.topics(si as usize) {
                            wit[p as usize].insert(t);
                        }
                    }
                }
            }
            for (p, (sites, wit)) in panels.sites.iter().zip(&wit).enumerate() {
                let base = ((u - lo) * 2 + p) as u64 * context;
                for (i, &site) in sites.iter().enumerate() {
                    let slot_seed = seed::derive_idx(epoch_root, site as u64);
                    let answer = if seed::unit_f64(seed::derive(slot_seed, "noise")) < cfg.noise {
                        let t = arena::random_returnable(
                            taxonomy,
                            seed::derive(slot_seed, "replacement"),
                        );
                        Some((t, true))
                    } else {
                        let idx = (seed::derive(slot_seed, "pick") % TOP_N as u64) as usize;
                        match slot_topic(slot[idx]) {
                            // Real topics need a witness: the caller saw
                            // the user on a matching site in that epoch.
                            (t, true) => wit.contains(t).then_some((t, false)),
                            (t, false) => Some((t, true)),
                        }
                    };
                    if let Some((t, noised)) = answer {
                        answers.push(base + i as u64, t.get(), noised);
                    }
                }
            }
        }
        answers.packed.shrink_to_fit();
        answers
    }
}

/// Stitch one panel's per-block outputs (in block order) into a
/// CSR increment and sum their counters.
fn concat_blocks(users: usize, blocks: Vec<BlockOut>) -> (Csr, CollectStats) {
    let mut csr = Csr {
        offsets: Vec::with_capacity(users + 1),
        topics: Vec::with_capacity(blocks.iter().map(|b| b.topics.len()).sum()),
        counts: Vec::with_capacity(blocks.iter().map(|b| b.counts.len()).sum()),
    };
    let mut stats = CollectStats::default();
    csr.offsets.push(0);
    for b in blocks {
        for len in b.lens {
            csr.offsets
                .push(csr.offsets.last().expect("non-empty offsets") + len as u64);
        }
        csr.topics.extend_from_slice(&b.topics);
        csr.counts.extend_from_slice(&b.counts);
        stats.api_calls += b.stats.api_calls;
        stats.topics_returned += b.stats.topics_returned;
        stats.noised += b.stats.noised;
    }
    (csr, stats)
}

/// Per-topic inverted candidate lists over a CSR profile set:
/// `(user, count)` pairs for every user carrying the topic, users
/// ascending.
struct Inverted {
    offsets: Vec<u64>,
    user: Vec<u32>,
    count: Vec<u16>,
}

impl Inverted {
    /// Topic `t`'s `(users, counts)` lists.
    fn list(&self, t: u16) -> (&[u32], &[u16]) {
        let at = self.offsets[t as usize] as usize..self.offsets[t as usize + 1] as usize;
        (&self.user[at.clone()], &self.count[at])
    }
}

fn invert(csr: &Csr) -> Inverted {
    let mut sizes = vec![0u64; TAXONOMY_SIZE + 2];
    for &t in &csr.topics {
        sizes[t as usize + 1] += 1;
    }
    let mut offsets = sizes;
    for i in 1..offsets.len() {
        offsets[i] += offsets[i - 1];
    }
    let mut user = vec![0u32; csr.topics.len()];
    let mut count = vec![0u16; csr.topics.len()];
    let mut cursor = offsets.clone();
    for u in 0..csr.offsets.len() - 1 {
        let (ts, cs) = csr.row(u);
        for (t, c) in ts.iter().zip(cs) {
            let at = cursor[*t as usize] as usize;
            user[at] = u as u32;
            count[at] = *c;
            cursor[*t as usize] += 1;
        }
    }
    Inverted {
        offsets,
        user,
        count,
    }
}

/// Euclidean norm of every profile row.
fn norms(csr: &Csr) -> Vec<f64> {
    (0..csr.offsets.len() - 1)
        .map(|u| {
            csr.row(u)
                .1
                .iter()
                .map(|&c| c as f64 * c as f64)
                .sum::<f64>()
                .sqrt()
        })
        .collect()
}

/// Queries per parallel attack block.
const QUERY_BLOCK: usize = 512;

/// Link each sampled user's context-B profile against all context-A
/// profiles: the best cosine match per query, or `u32::MAX` when the
/// query shares no topic with any A profile. Only users sharing at
/// least one topic with the query are scored (via the inverted lists);
/// ties break toward the smallest user id.
///
/// Dot products accumulate as `u64` in a per-block score array that is
/// zero everywhere between queries. Every CSR count is ≥ 1, so a score
/// of zero marks an untouched user: candidates append branch-free (the
/// slot is always written, the cursor only advances on first touch),
/// and the argmax resets each score as it reads it. Every partial sum
/// is an integer below `TAXONOMY_SIZE · 65535² < 2⁵³`, so `score as
/// f64` is the exact dot product and the cosine matches an `f64`
/// accumulation bit for bit. The query's own norm is a per-query
/// constant and is left out.
fn best_matches(cum_a: &Csr, cum_b: &Csr, sample: &[u32], threads: usize) -> Vec<u32> {
    let users = cum_a.offsets.len() - 1;
    let inv = invert(cum_a);
    let norm_a = norms(cum_a);
    let mut best = vec![u32::MAX; sample.len()];
    let jobs: Vec<(&[u32], &mut [u32])> = sample
        .chunks(QUERY_BLOCK)
        .zip(best.chunks_mut(QUERY_BLOCK))
        .collect();
    pool::run(jobs, threads, None, |(queries, out)| {
        let mut score = vec![0u64; users];
        let mut touched: Vec<u32> = Vec::new();
        for (&q, out) in queries.iter().zip(out) {
            let (qt, qc) = cum_b.row(q as usize);
            // The cursor stays below both the postings visited and the
            // distinct users touched.
            let postings: usize = qt.iter().map(|&t| inv.list(t).0.len()).sum();
            let need = postings.min(users + 1);
            if touched.len() < need {
                touched.resize(need, 0);
            }
            let mut n = 0;
            for (&t, &c) in qt.iter().zip(qc) {
                let (us, cs) = inv.list(t);
                let qc = c as u64;
                for (&u, &ac) in us.iter().zip(cs) {
                    let s = &mut score[u as usize];
                    touched[n] = u;
                    n += (*s == 0) as usize;
                    *s += qc * ac as u64;
                }
            }
            let mut best = f64::NEG_INFINITY;
            let mut best_u = u32::MAX;
            for &u in &touched[..n] {
                let s = std::mem::take(&mut score[u as usize]) as i64 as f64 / norm_a[u as usize];
                if s > best || (s == best && u < best_u) {
                    best = s;
                    best_u = u;
                }
            }
            *out = best_u;
        }
    });
    best
}

/// How many sampled users' best match is themselves.
fn eval_checkpoint(cum_a: &Csr, cum_b: &Csr, sample: &[u32], threads: usize) -> u64 {
    best_matches(cum_a, cum_b, sample, threads)
        .iter()
        .zip(sample)
        .filter(|(best, q)| best == q)
        .count() as u64
}

/// The deterministic user sample the adversary queries at every
/// checkpoint (partial Fisher–Yates; all users when `sample` covers
/// the population).
pub fn sample_users(cfg: &SimConfig) -> Vec<u32> {
    let n = cfg.users;
    if cfg.sample >= n {
        return (0..n as u32).collect();
    }
    let s = seed::derive(cfg.seed, "sample");
    let mut idx: Vec<u32> = (0..n as u32).collect();
    for i in 0..cfg.sample {
        let j = i + (seed::derive_idx(s, i as u64) % (n - i) as u64) as usize;
        idx.swap(i, j);
    }
    idx.truncate(cfg.sample);
    idx
}

/// The re-identification curve: collect both context panels epoch by
/// epoch over the trailing window, and after each epoch link the
/// sampled users' B-profiles against all A-profiles.
pub fn reident_curve(
    cfg: &SimConfig,
    universe: &SiteUniverse,
    arena: &PopulationArena,
    threads: usize,
) -> (Vec<ReidentRow>, SimStats) {
    let sample = sample_users(cfg);
    let mut collector = Collector::new(cfg, universe, arena);
    let first = collector.first;
    let mut cum = [Csr::empty(cfg.users), Csr::empty(cfg.users)];
    let mut stats = SimStats::default();
    let mut rows = Vec::with_capacity(cfg.window as usize);
    for e in first..cfg.epochs {
        let incs = collector.checkpoint(e, threads);
        for (cum, (inc, cs)) in cum.iter_mut().zip(incs) {
            *cum = merge_csr(cum, &inc);
            stats.api_calls += cs.api_calls;
            stats.topics_returned += cs.topics_returned;
            stats.noised_topics += cs.noised;
        }
        let correct = eval_checkpoint(&cum[0], &cum[1], &sample, threads);
        stats.queries += sample.len() as u64;
        stats.correct += correct;
        rows.push(ReidentRow {
            epochs_observed: e - first + 1,
            queries: sample.len() as u64,
            correct,
            population: cfg.users as u64,
        });
    }
    (rows, stats)
}

/// Run the whole simulation: universe → arena → curves.
pub fn run(cfg: &SimConfig, threads: usize) -> Result<SimRun, String> {
    cfg.validate()?;
    let universe = build_universe(cfg);
    let arena = build_arena(cfg, &universe, threads)?;
    let kanon = kanon_curve(&arena, threads);
    let (reident, stats) = reident_curve(cfg, &universe, &arena, threads);
    Ok(SimRun {
        config: *cfg,
        kanon,
        reident,
        stats,
        visits_total: arena.visits_total(),
        arena_bytes: arena.heap_bytes(),
    })
}

/// Render the k-anonymity curve as CSV.
pub fn kanon_csv(rows: &[KanonRow]) -> String {
    let mut out =
        String::from("epoch,users,groups,unique_users,frac_unique,median_group,p10_group\n");
    for r in rows {
        let frac = if r.users == 0 {
            0.0
        } else {
            r.unique_users as f64 / r.users as f64
        };
        writeln!(
            out,
            "{},{},{},{},{frac:.6},{},{}",
            r.epoch, r.users, r.groups, r.unique_users, r.median_group, r.p10_group
        )
        .expect("string write");
    }
    out
}

/// Render the re-identification curve as CSV.
pub fn reident_csv(rows: &[ReidentRow]) -> String {
    let mut out = String::from("epochs_observed,queries,correct,accuracy,random_floor\n");
    for r in rows {
        writeln!(
            out,
            "{},{},{},{:.6},{:.9}",
            r.epochs_observed,
            r.queries,
            r.correct,
            r.accuracy(),
            r.random_floor()
        )
        .expect("string write");
    }
    out
}

/// Render the human-readable simulation report (deterministic: no
/// wall times or host facts).
pub fn render_sim_report(run: &SimRun) -> String {
    let c = &run.config;
    let mut out = String::new();
    let _ = writeln!(out, "topics simulation report");
    let _ = writeln!(out, "========================");
    let _ = writeln!(
        out,
        "population: {} users × {} epochs ({} visits/epoch over {} sites), seed {}",
        c.users, c.epochs, c.visits_per_epoch, c.sites, c.seed
    );
    let _ = writeln!(
        out,
        "adversary: 2 × {}-site context panels, trailing window {} epochs, sample {} queries, noise {:.3}",
        c.context_sites, c.window, c.sample, c.noise
    );
    let _ = writeln!(
        out,
        "arena: {} bytes for {} simulated visits",
        run.arena_bytes, run.visits_total
    );
    let _ = writeln!(
        out,
        "api: {} calls, {} topics returned ({} noised, {:.4} noise share)",
        run.stats.api_calls,
        run.stats.topics_returned,
        run.stats.noised_topics,
        if run.stats.topics_returned == 0 {
            0.0
        } else {
            run.stats.noised_topics as f64 / run.stats.topics_returned as f64
        }
    );
    if let Some(k) = run.kanon.last() {
        let _ = writeln!(
            out,
            "k-anonymity (final epoch): {} groups, {} unique users ({:.4}), median group {}, p10 group {}",
            k.groups,
            k.unique_users,
            k.unique_users as f64 / k.users.max(1) as f64,
            k.median_group,
            k.p10_group
        );
    }
    if let Some(r) = run.reident.last() {
        let _ = writeln!(
            out,
            "re-identification (after {} epochs): {}/{} correct = {:.4} (random floor {:.6})",
            r.epochs_observed,
            r.correct,
            r.queries,
            r.accuracy(),
            r.random_floor()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A back-epoch one API call can draw from: its index into the witness
    /// sets, the epoch, its slot, and the slot seed's per-epoch root.
    type LiveEpoch<'a> = (usize, u64, &'a [u16], u64);

    /// The reference for [`Collector::checkpoint`]: run collection epoch
    /// `e` from scratch, redrawing every back-epoch's visits and answers,
    /// and deduplicate each call's candidates in one sort. Returns the
    /// `[A, B]` increments.
    fn collect_epoch(
        cfg: &SimConfig,
        universe: &SiteUniverse,
        arena: &PopulationArena,
        panels: &Panels,
        e: u64,
        first: u64,
        threads: usize,
    ) -> [(Csr, CollectStats); 2] {
        let taxonomy = Taxonomy::global();
        let users = cfg.users;
        let jobs: Vec<usize> = (0..users.div_ceil(BLOCK)).collect();
        let blocks = pool::run(jobs, threads, None, |block| {
            let lo = block * BLOCK;
            let hi = (lo + BLOCK).min(users);
            let mut out = [BlockOut::new(hi - lo), BlockOut::new(hi - lo)];
            let mut counts = vec![0u16; TAXONOMY_SIZE + 1];
            let mut touched: Vec<u16> = Vec::with_capacity(64);
            let mut visits: Vec<u32> = Vec::with_capacity(cfg.visits_per_epoch);
            // Per panel, per back-epoch: topics the panel observed the user
            // on (only in epochs the adversary was actually collecting in).
            let mut wit = [[TopicBitset::new(); WINDOW_BACK as usize]; 2];
            let mut live: Vec<LiveEpoch> = Vec::with_capacity(WINDOW_BACK as usize);
            let mut cand: Vec<(u16, u64, bool)> = Vec::with_capacity(WINDOW_BACK as usize);
            for u in lo..hi {
                let us = user_seed(arena.seed(), u);
                let slot_root = seed::derive(us, "slot");
                live.clear();
                for back in 1..=WINDOW_BACK {
                    let Some(pe) = e.checked_sub(back) else {
                        continue;
                    };
                    let slot = arena.slot(pe, u);
                    let b = back as usize - 1;
                    wit[0][b].clear();
                    wit[1][b].clear();
                    if pe >= first {
                        visits_for(
                            us,
                            arena.interests_of(u),
                            universe,
                            pe,
                            cfg.visits_per_epoch,
                            &mut visits,
                        );
                        for &si in &visits {
                            let p = panels.panel_of[si as usize];
                            if p != NO_PANEL {
                                for &t in universe.topics(si as usize) {
                                    wit[p as usize][b].insert(t);
                                }
                            }
                        }
                    }
                    live.push((b, pe, slot, seed::derive_idx(slot_root, pe)));
                }
                for ((sites, out), wit) in panels.sites.iter().zip(&mut out).zip(&wit) {
                    out.stats.api_calls += sites.len() as u64;
                    for &site in sites {
                        cand.clear();
                        for &(b, pe, slot, epoch_root) in &live {
                            let slot_seed = seed::derive_idx(epoch_root, site as u64);
                            if seed::unit_f64(seed::derive(slot_seed, "noise")) < cfg.noise {
                                let t = arena::random_returnable(
                                    taxonomy,
                                    seed::derive(slot_seed, "replacement"),
                                );
                                cand.push((t.get(), pe, true));
                                continue;
                            }
                            let idx = (seed::derive(slot_seed, "pick") % TOP_N as u64) as usize;
                            let (t, real) = slot_topic(slot[idx]);
                            if real {
                                // Real topics need a witness: the caller saw
                                // the user on a matching site in that epoch
                                // (the set is empty before collection began).
                                if wit[b].contains(t) {
                                    cand.push((t.get(), pe, false));
                                }
                            } else {
                                cand.push((t.get(), pe, true));
                            }
                        }
                        // Engine dedup: one result per topic, oldest epoch wins.
                        cand.sort_unstable_by_key(|&(t, pe, _)| (t, pe));
                        cand.dedup_by_key(|&mut (t, _, _)| t);
                        for &(t, _, n) in cand.iter() {
                            out.stats.topics_returned += 1;
                            out.stats.noised += n as u64;
                            if counts[t as usize] == 0 {
                                touched.push(t);
                            }
                            counts[t as usize] = counts[t as usize].saturating_add(1);
                        }
                    }
                    touched.sort_unstable();
                    out.lens.push(touched.len() as u32);
                    for &t in &touched {
                        out.topics.push(t);
                        out.counts.push(counts[t as usize]);
                        counts[t as usize] = 0;
                    }
                    touched.clear();
                }
            }
            out
        });

        let (a, b): (Vec<BlockOut>, Vec<BlockOut>) =
            blocks.results.into_iter().map(|[a, b]| (a, b)).unzip();
        [concat_blocks(users, a), concat_blocks(users, b)]
    }

    fn small() -> SimConfig {
        SimConfig {
            sites: 300,
            visits_per_epoch: 15,
            context_sites: 10,
            sample: 200,
            ..SimConfig::new(11, 200, 6)
        }
    }

    #[test]
    fn validate_rejects_bad_shapes() {
        assert!(small().validate().is_ok());
        assert!(SimConfig {
            users: 1,
            ..small()
        }
        .validate()
        .is_err());
        assert!(SimConfig {
            epochs: 0,
            ..small()
        }
        .validate()
        .is_err());
        assert!(SimConfig {
            visits_per_epoch: 0,
            ..small()
        }
        .validate()
        .is_err());
        assert!(SimConfig {
            context_sites: 0,
            ..small()
        }
        .validate()
        .is_err());
        assert!(SimConfig {
            sites: 19,
            ..small()
        }
        .validate()
        .is_err());
        assert!(SimConfig {
            window: 0,
            ..small()
        }
        .validate()
        .is_err());
        assert!(SimConfig {
            window: 7,
            ..small()
        }
        .validate()
        .is_err());
        assert!(SimConfig {
            sample: 0,
            ..small()
        }
        .validate()
        .is_err());
        assert!(SimConfig {
            noise: 1.5,
            ..small()
        }
        .validate()
        .is_err());
        // User ids are stored as `u32`; a larger population would
        // silently truncate them (only reachable with a 64-bit usize).
        if let Ok(users) = usize::try_from(u64::from(u32::MAX) + 1) {
            let err = SimConfig { users, ..small() }.validate().unwrap_err();
            assert!(err.contains("--users ≤ 4294967295"), "{err}");
            assert!(SimConfig {
                users: users - 1,
                ..small()
            }
            .validate()
            .is_ok());
        }
        // Site ids are `u32` too, and the panel width must not wrap
        // when doubled.
        if let Ok(sites) = usize::try_from(u64::from(u32::MAX) + 1) {
            let err = SimConfig { sites, ..small() }.validate().unwrap_err();
            assert!(err.contains("--sites ≤ 4294967295"), "{err}");
            assert!(SimConfig {
                sites: sites - 1,
                ..small()
            }
            .validate()
            .is_ok());
        }
        let err = SimConfig {
            context_sites: usize::MAX / 2 + 1,
            ..small()
        }
        .validate()
        .unwrap_err();
        assert!(err.contains("--context"), "{err}");
    }

    #[test]
    fn default_window_tracks_epochs() {
        assert_eq!(default_window(1), 1);
        assert_eq!(default_window(4), 1);
        assert_eq!(default_window(8), 5);
        assert_eq!(default_window(30), 12);
        assert_eq!(default_window(100), 12);
    }

    #[test]
    fn run_is_identical_for_any_thread_count() {
        let cfg = small();
        let one = run(&cfg, 1).unwrap();
        let three = run(&cfg, 3).unwrap();
        assert_eq!(one, three);
        assert_eq!(kanon_csv(&one.kanon), kanon_csv(&three.kanon));
        assert_eq!(reident_csv(&one.reident), reident_csv(&three.reident));
    }

    #[test]
    fn run_depends_on_the_seed() {
        let a = run(&small(), 2).unwrap();
        let b = run(
            &SimConfig {
                seed: 12,
                ..small()
            },
            2,
        )
        .unwrap();
        assert_ne!(a.kanon, b.kanon);
        assert_ne!(a.reident, b.reident);
    }

    #[test]
    fn api_calls_reconcile_exactly() {
        let cfg = small();
        let r = run(&cfg, 2).unwrap();
        let expect = cfg.users as u64 * cfg.context_sites as u64 * cfg.window * 2;
        assert_eq!(r.stats.api_calls, expect);
        assert_eq!(
            r.stats.queries,
            cfg.sample.min(cfg.users) as u64 * cfg.window
        );
        assert_eq!(
            r.stats.correct,
            r.reident.iter().map(|row| row.correct).sum::<u64>()
        );
        assert!(r.stats.noised_topics <= r.stats.topics_returned);
        assert_eq!(r.kanon.len(), cfg.epochs as usize);
        assert_eq!(r.reident.len(), cfg.window as usize);
    }

    #[test]
    fn kanon_rows_are_internally_consistent() {
        let r = run(&small(), 2).unwrap();
        for k in &r.kanon {
            assert_eq!(k.users, 200);
            assert!(k.groups >= 1 && k.groups <= k.users);
            assert!(k.unique_users <= k.users);
            assert!(k.median_group >= 1);
            assert!(k.p10_group >= 1);
            assert!(k.p10_group <= k.median_group);
        }
    }

    #[test]
    fn attack_beats_the_random_floor() {
        // A stronger adversary than `small()`: wider panels and a
        // longer window, since the witness rule keeps single-epoch
        // 10-site panels close to noise-only.
        let cfg = SimConfig {
            sites: 300,
            visits_per_epoch: 20,
            context_sites: 40,
            sample: 200,
            ..SimConfig::new(11, 200, 9)
        };
        let r = run(&cfg, 4).unwrap();
        let last = r.reident.last().unwrap();
        // 200 users, stable interests: after the full window the
        // linker should do far better than 1/200 random guessing.
        // (The witness rule caps how far: only topics carried by some
        // panel site are ever returned as real.)
        assert!(
            last.accuracy() > 8.0 * last.random_floor(),
            "accuracy {} vs floor {}",
            last.accuracy(),
            last.random_floor()
        );
        // And accuracy should not degrade with more observation.
        assert!(r.reident.last().unwrap().correct >= r.reident[0].correct / 2);
    }

    #[test]
    fn merge_csr_merges_sorted_runs() {
        let a = Csr {
            offsets: vec![0, 2, 2],
            topics: vec![3, 9 /* user 1 empty */],
            counts: vec![1, 2],
        };
        let b = Csr {
            offsets: vec![0, 2, 3],
            topics: vec![3, 5, 7],
            counts: vec![4, 1, 9],
        };
        let m = merge_csr(&a, &b);
        assert_eq!(m.offsets, vec![0, 3, 4]);
        assert_eq!(m.topics, vec![3, 5, 9, 7]);
        assert_eq!(m.counts, vec![5, 1, 2, 9]);
    }

    #[test]
    fn sample_users_is_a_deterministic_subset() {
        let cfg = SimConfig {
            sample: 50,
            ..small()
        };
        let a = sample_users(&cfg);
        let b = sample_users(&cfg);
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 50, "samples are distinct users");
        assert!(dedup.iter().all(|&u| (u as usize) < cfg.users));
        let all = sample_users(&SimConfig {
            sample: 500,
            ..small()
        });
        assert_eq!(all.len(), 200, "sample beyond population takes everyone");
    }

    #[test]
    fn csv_renders_with_headers() {
        let r = run(&small(), 2).unwrap();
        let k = kanon_csv(&r.kanon);
        assert!(
            k.starts_with("epoch,users,groups,unique_users,frac_unique,median_group,p10_group\n")
        );
        assert_eq!(k.lines().count(), 1 + r.kanon.len());
        let re = reident_csv(&r.reident);
        assert!(re.starts_with("epochs_observed,queries,correct,accuracy,random_floor\n"));
        assert_eq!(re.lines().count(), 1 + r.reident.len());
        let report = render_sim_report(&r);
        assert!(report.contains("200 users × 6 epochs"));
        assert!(report.contains("re-identification"));
    }

    /// Build a CSR from per-user `(topic, count)` rows (topics
    /// ascending, counts ≥ 1 — the invariants collection guarantees).
    fn csr(rows: &[Vec<(u16, u16)>]) -> Csr {
        let mut out = Csr::empty(0);
        for row in rows {
            for &(t, c) in row {
                out.topics.push(t);
                out.counts.push(c);
            }
            out.offsets.push(out.topics.len() as u64);
        }
        out
    }

    /// A random CSR over topics `1..=max_topic` with counts in
    /// `1..=max_count`; a low `density` leaves some rows empty.
    fn random_csr(s: u64, users: usize, max_topic: u16, max_count: u16, density: f64) -> Csr {
        let rows: Vec<Vec<(u16, u16)>> = (0..users)
            .map(|u| {
                let us = seed::derive_idx(s, u as u64);
                (1..=max_topic)
                    .filter_map(|t| {
                        let ts = seed::derive_idx(us, t as u64);
                        (seed::unit_f64(ts) < density)
                            .then(|| (t, 1 + (seed::derive(ts, "c") % max_count as u64) as u16))
                    })
                    .collect()
            })
            .collect();
        csr(&rows)
    }

    /// Naive all-pairs reference for [`best_matches`]: a dense `f64`
    /// cosine of the query against every A profile (the query's own
    /// norm, a per-query constant, left out), ties to the smallest id,
    /// and users sharing no topic with the query are no candidates.
    fn reference_matches(cum_a: &Csr, cum_b: &Csr, sample: &[u32]) -> Vec<u32> {
        let users = cum_a.offsets.len() - 1;
        let mut dense = vec![0f64; TAXONOMY_SIZE + 1];
        sample
            .iter()
            .map(|&q| {
                dense.fill(0.0);
                let (qt, qc) = cum_b.row(q as usize);
                for (&t, &c) in qt.iter().zip(qc) {
                    dense[t as usize] = c as f64;
                }
                let (mut best, mut best_u) = (f64::NEG_INFINITY, u32::MAX);
                for u in 0..users {
                    let (at, ac) = cum_a.row(u);
                    let mut dot = 0f64;
                    let mut norm2 = 0f64;
                    for (&t, &c) in at.iter().zip(ac) {
                        dot += dense[t as usize] * c as f64;
                        norm2 += c as f64 * c as f64;
                    }
                    if dot == 0.0 {
                        continue;
                    }
                    let s = dot / norm2.sqrt();
                    // Users ascend, so a strict `>` keeps the smallest
                    // id among equal scores.
                    if s > best {
                        best = s;
                        best_u = u as u32;
                    }
                }
                best_u
            })
            .collect()
    }

    fn assert_matches_reference(a: &Csr, b: &Csr, sample: &[u32]) -> Vec<u32> {
        let want = reference_matches(a, b, sample);
        for threads in [1, 3] {
            assert_eq!(
                best_matches(a, b, sample, threads),
                want,
                "threads {threads}"
            );
        }
        want
    }

    #[test]
    fn kernel_matches_the_all_pairs_reference_on_random_profiles() {
        // (seed, users, topic range, max count, density): narrow topic
        // ranges and small counts make exact ties common; the wide ones
        // exercise long inverted lists and large dot products.
        let shapes = [
            (1, 50, 12, 2, 0.2),
            (2, 400, 24, 3, 0.3),
            (3, 2000, 40, 4, 0.1),
            (4, 300, 469, 65535, 0.05),
            (5, 1000, 469, 9, 0.02),
        ];
        for (s, users, max_topic, max_count, density) in shapes {
            let a = random_csr(s, users, max_topic, max_count, density);
            let b = random_csr(s + 100, users, max_topic, max_count, density);
            let sample: Vec<u32> = (0..users as u32).step_by(3).collect();
            let got = assert_matches_reference(&a, &b, &sample);
            assert!(
                got.iter().any(|&u| u != u32::MAX),
                "shape {s} produced no candidates at all"
            );
            // Querying A against itself: every non-empty row finds a
            // best match (itself or an equal-cosine smaller id).
            assert_matches_reference(&a, &a, &sample);
        }
    }

    #[test]
    fn kernel_breaks_exact_ties_to_the_smallest_id() {
        // Topic 2 lists user 1 first, so query 0's candidate order is
        // 1, 0, 3; all three score exactly 1. User 2's row is empty.
        // Users 4 and 5 are proportional with exact norms (5 and 10),
        // so their cosines are the same double.
        let a = csr(&[
            vec![(9, 1)],
            vec![(2, 1)],
            vec![],
            vec![(9, 1)],
            vec![(7, 3), (8, 4)],
            vec![(7, 6), (8, 8)],
        ]);
        let b = csr(&[
            vec![(2, 1), (9, 1)],
            vec![(7, 1), (8, 1)],
            vec![(9, 5)],
            vec![(2, 4)],
        ]);
        let got = assert_matches_reference(&a, &b, &[0, 1, 2, 3]);
        assert_eq!(got, vec![0, 4, 0, 1]);
    }

    #[test]
    fn kernel_is_exact_at_saturated_counts() {
        // The largest possible dot product: every topic at u16::MAX on
        // both sides. It must stay below 2^53 for the integer scores to
        // convert to f64 exactly.
        let max = u16::MAX as u64;
        assert!((TAXONOMY_SIZE as u64) * max * max < 1 << 53);
        let all =
            |c: u16| -> Vec<(u16, u16)> { (1..=TAXONOMY_SIZE as u16).map(|t| (t, c)).collect() };
        let mut near = all(u16::MAX);
        near[TAXONOMY_SIZE - 1].1 = u16::MAX - 1;
        let a = csr(&[
            vec![(1, u16::MAX)],
            near.clone(),
            all(u16::MAX),
            vec![(2, u16::MAX)],
            all(u16::MAX),
        ]);
        let b = csr(&[
            all(u16::MAX),
            near,
            vec![(1, u16::MAX), (2, 1)],
            vec![(469, 1)],
        ]);
        let got = assert_matches_reference(&a, &b, &[0, 1, 2, 3]);
        // The all-saturated query prefers the identical rows (2 ties 4
        // and wins on id) over row 1, one count short; the one-short
        // query finds row 1 itself, ~1000 ulps ahead of rows 2 and 4.
        assert_eq!(got[0], 2);
        assert_eq!(got[1], 1);
    }

    #[test]
    fn kernel_misses_on_empty_rows() {
        let a = csr(&[vec![], vec![(3, 2)], vec![]]);
        // Query 0 is empty; query 1 shares no topic with any A row;
        // query 2 only shares topic 3, carried by user 1 alone.
        let b = csr(&[vec![], vec![(4, 1)], vec![(3, 1), (5, 7)]]);
        let got = assert_matches_reference(&a, &b, &[0, 1, 2]);
        assert_eq!(got, vec![u32::MAX, u32::MAX, 1]);
        assert_eq!(eval_checkpoint(&a, &b, &[0, 1, 2], 2), 0);
        // No A profile at all: every query misses.
        let none = csr(&[vec![], vec![], vec![]]);
        assert_eq!(
            assert_matches_reference(&none, &b, &[0, 1, 2]),
            vec![u32::MAX; 3]
        );
    }

    #[test]
    fn noiseless_run_matches_the_reference_checkpoint_by_checkpoint() {
        // Panels covering the whole universe and no noise: the attack
        // links a large share of users, so a wrong argmax would show.
        let cfg = SimConfig {
            sites: 100,
            context_sites: 50,
            sample: 200,
            noise: 0.0,
            ..SimConfig::new(11, 200, 8)
        };
        let r = run(&cfg, 2).unwrap();
        let universe = build_universe(&cfg);
        let arena = build_arena(&cfg, &universe, 2).unwrap();
        let mut collector = Collector::new(&cfg, &universe, &arena);
        let sample = sample_users(&cfg);
        let first = cfg.epochs - cfg.window;
        let mut cum = [Csr::empty(cfg.users), Csr::empty(cfg.users)];
        for (e, row) in (first..cfg.epochs).zip(&r.reident) {
            let incs = collector.checkpoint(e, 2);
            for (cum, (inc, _)) in cum.iter_mut().zip(incs) {
                *cum = merge_csr(cum, &inc);
            }
            let want = reference_matches(&cum[0], &cum[1], &sample)
                .iter()
                .zip(&sample)
                .filter(|(best, q)| best == q)
                .count() as u64;
            assert_eq!(row.correct, want, "checkpoint after epoch {e}");
        }
        let last = r.reident.last().unwrap();
        assert!(last.accuracy() > 0.3, "accuracy {}", last.accuracy());
    }

    #[test]
    fn carried_answers_match_the_redrawing_reference_at_every_checkpoint() {
        // Every valid window for 1 to 10 epochs, over 2,049 users (the
        // last block holds one). Visits, noise and thread count cycle
        // through all twelve combinations as the shapes go by.
        let mut case = 0;
        for epochs in 1..=10 {
            let shapes = [1, 20].map(|visits_per_epoch| {
                let shape = SimConfig {
                    sites: 120,
                    visits_per_epoch,
                    context_sites: 8,
                    sample: 1,
                    ..SimConfig::new(epochs, 2049, epochs)
                };
                let universe = build_universe(&shape);
                let arena = build_arena(&shape, &universe, 2).unwrap();
                (shape, universe, arena)
            });
            for window in 1..=epochs {
                let (shape, universe, arena) = &shapes[case % 2];
                let noise = [0.0, 0.05, 1.0][case % 3];
                let threads = [1, 3][case / 6 % 2];
                case += 1;
                let cfg = SimConfig {
                    window,
                    noise,
                    ..*shape
                };
                let mut collector = Collector::new(&cfg, universe, arena);
                let first = epochs - window;
                for e in first..epochs {
                    let want = collect_epoch(&cfg, universe, arena, &collector.panels, e, first, 2);
                    assert_eq!(
                        collector.checkpoint(e, threads),
                        want,
                        "epochs {epochs}, window {window}, visits {}, noise {noise}, \
                         threads {threads}, checkpoint {e}",
                        cfg.visits_per_epoch
                    );
                    // Each back-epoch is drawn once: the next checkpoint
                    // finds all its back-epochs but the newest carried,
                    // and the last one carries nothing.
                    let keep = if e + 1 < epochs {
                        e.saturating_sub(WINDOW_BACK - 1)..e
                    } else {
                        e..e
                    };
                    assert!(
                        collector
                            .carried
                            .iter()
                            .all(|ring| ring.iter().map(|a| a.epoch).eq(keep.clone())),
                        "carried after checkpoint {e} of {epochs}"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_answers_round_trip_across_long_gaps() {
        // Gaps up to and far beyond one entry's reach, an answer at
        // position 0, and adjacent answers.
        let want: Vec<(u64, u16, bool)> = vec![
            (0, 1, false),
            (1, TAXONOMY_SIZE as u16, true),
            (1 + GAP_MAX, 7, false),
            (2 + GAP_MAX, 7, true),
            (3 + 3 * GAP_MAX, 300, false),
            (1 << 40, 2, true),
        ];
        let mut answers = EpochAnswers::new(0);
        for &(pos, t, n) in &want {
            answers.push(pos, t, n);
        }
        assert!(answers.packed.len() > want.len(), "long gaps need skips");
        let mut all = Cursor::new(&answers);
        let got: Vec<_> = std::iter::from_fn(|| all.next_before(u64::MAX)).collect();
        assert_eq!(got, want);
        // Reading run by run stops at each run's end and resumes there,
        // also where a skip entry crosses the boundary.
        let mut runs = Cursor::new(&answers);
        let mut start = 0;
        for end in [1, 2 + GAP_MAX, 2 * GAP_MAX, 1 << 40, u64::MAX] {
            let got: Vec<_> = std::iter::from_fn(|| runs.next_before(end)).collect();
            let run: Vec<_> = want
                .iter()
                .copied()
                .filter(|a| (start..end).contains(&a.0))
                .collect();
            assert_eq!(got, run, "run {start}..{end}");
            start = end;
        }
        assert_eq!(runs.next_before(u64::MAX), None);
    }
}
