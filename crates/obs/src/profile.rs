//! Trace analysis in one pass over a sealed [`Trace`]: integrity,
//! per-phase time and allocation, critical path, worker utilization,
//! retry-storm windows, slowest visits, top allocating spans and the
//! span counts the doctor reconciles, all in one [`Profile`]. Time comes
//! from simulated-clock bounds where a span has them (deterministic),
//! else from wall time (e.g. `world-gen`).

use crate::events::FieldValue;
use crate::trace::{SpanRecord, Trace};
use crate::vocab::{Text, Word};
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::fmt::Write;

/// Width of a retry-cluster window on the simulated clock.
const RETRY_WINDOW_MS: u64 = 60_000;
/// Number of retry clusters reported.
const RETRY_CLUSTERS: usize = 5;

/// Structural problems found in a trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Integrity {
    /// Spans whose `parent` ID does not exist in the trace.
    pub orphans: Vec<u64>,
    /// IDs used by more than one span.
    pub duplicates: Vec<u64>,
    /// Spans with inverted durations (end before start, either clock).
    pub negative: Vec<u64>,
    /// Non-root spans with no parent link at all.
    pub rootless: Vec<u64>,
    /// Spans whose parent chain loops instead of ending, so it never
    /// reaches the root: the spans of a parent cycle and all under them.
    pub cyclic: Vec<u64>,
    /// No root span: a sealed trace always starts with span 1, which
    /// has no parent, so an empty or headless trace is not one.
    pub missing_root: bool,
}

impl Integrity {
    /// True when the trace is structurally sound.
    pub fn is_clean(&self) -> bool {
        self.violations().is_empty()
    }

    /// Human-readable violation lines (empty when clean).
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.missing_root {
            out.push("missing root span (no span 1 without a parent)".to_owned());
        }
        for (ids, what) in [
            (&self.orphans, "orphan span(s) (missing parent): IDs"),
            (&self.duplicates, "duplicate span ID(s):"),
            (&self.negative, "span(s) with negative duration: IDs"),
            (&self.rootless, "non-root span(s) without a parent: IDs"),
            (&self.cyclic, "looping span(s) (never reach root): IDs"),
        ] {
            let preview = &ids[..ids.len().min(8)];
            if !ids.is_empty() {
                out.push(format!("{} {what} {preview:?}", ids.len()));
            }
        }
        out
    }
}

/// One top-level phase: its time and, when it carries attribution, its
/// allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStat {
    /// Phase span name (`world-gen`, `crawl`, `attestation-probe`, …).
    pub name: Text,
    /// Duration in ms: simulated when the phase has simulated bounds.
    pub total_ms: u64,
    /// Time not covered by any direct child (same clock as `total_ms`).
    pub self_ms: u64,
    /// True when the time columns are on the simulated clock.
    pub simulated: bool,
    /// True when the phase carries `alloc_bytes` (else bytes are 0).
    pub attributed: bool,
    /// Bytes allocated process-wide while the phase ran.
    pub total_bytes: u64,
    /// What the phase's direct children attributed to themselves.
    pub children_bytes: u64,
    /// `total_bytes − children_bytes`: coordination, channels, results.
    pub self_bytes: u64,
    /// Allocation calls inside the phase.
    pub alloc_count: u64,
    /// Peak live-heap growth above the phase's starting level.
    pub peak_bytes: u64,
}

/// One hop of the campaign critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct Hop {
    /// Span name.
    pub name: Text,
    /// Best identifying field (domain, host, or phase name).
    pub label: String,
    /// Simulated start (ms).
    pub start_ms: u64,
    /// Simulated end (ms).
    pub end_ms: u64,
}

/// Utilization of one worker thread in one phase (from operational
/// `worker` spans — wall-clock, non-deterministic).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerStat {
    /// Phase the worker served.
    pub phase: String,
    /// Worker index.
    pub worker: u64,
    /// Wall µs spent inside work items.
    pub busy_us: u64,
    /// Wall µs the worker span covered.
    pub span_us: u64,
    /// Items processed.
    pub items: u64,
}

/// A burst of retries inside one simulated-minute window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RetryCluster {
    /// Window start on the simulated clock (ms).
    pub window_start_ms: u64,
    /// Retry attempts inside the window.
    pub retries: usize,
    /// Bytes allocated by the visits/probes doing those retries (each
    /// retrying span counted once per window) — the memory face of a
    /// retry storm.
    pub alloc_bytes: u64,
    /// Up to three sample hosts seen retrying.
    pub hosts: Vec<String>,
}

/// One of the slowest visits, with its dominant child span.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowVisit {
    /// Visited domain.
    pub domain: String,
    /// Tranco-style rank, when recorded.
    pub rank: u64,
    /// Simulated visit duration (ms).
    pub duration_ms: u64,
    /// Name of the longest direct child span (`page-load`, `fetch`, …;
    /// empty when the visit has none).
    pub dominant: Text,
    /// That child's simulated duration (ms).
    pub dominant_ms: u64,
}

/// One of the top allocating spans (visit, probe, page-load, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemSpan {
    /// Span ID in the sealed trace.
    pub id: u64,
    /// Span name.
    pub name: Text,
    /// Best identifying field (domain, host, phase).
    pub label: String,
    /// Bytes the span allocated net of its attributed children.
    pub self_bytes: u64,
    /// Bytes the span allocated including children.
    pub total_bytes: u64,
    /// Allocation calls (including children).
    pub alloc_count: u64,
}

/// The span counts the doctor reconciles against a campaign's tally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanCounts {
    /// `visit` spans.
    pub visits: u64,
    /// `topics-call` spans.
    pub topics_calls: u64,
    /// `probe` spans (network probes only).
    pub probes: u64,
    /// Probe cache hits, summed over the `attestation-probe` phase spans.
    pub cache_hits: u64,
}

/// Everything read off a trace, in one pass ([`profile`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    /// Structural checks.
    pub integrity: Integrity,
    /// Per-phase time and allocation, in sealed span order.
    pub phases: Vec<PhaseStat>,
    /// Root-to-leaf chain of latest-finishing spans (simulated clock).
    pub critical_path: Vec<Hop>,
    /// Per-worker utilization (empty when the trace has no worker
    /// spans, e.g. a stripped trace).
    pub workers: Vec<WorkerStat>,
    /// Every retry window, in window order; see [`Profile::top_retries`].
    pub retry_clusters: Vec<RetryCluster>,
    /// Top-N visits by simulated duration.
    pub slowest_visits: Vec<SlowVisit>,
    /// Top-N non-phase spans by self-allocated bytes.
    pub top_spans: Vec<MemSpan>,
    /// Span counts for the doctor's reconciliation.
    pub counts: SpanCounts,
}

impl Profile {
    /// Idle fraction per phase, aggregated over that phase's workers:
    /// `1 − Σbusy / Σspan`. Empty when no worker spans were recorded.
    pub fn idle_fractions(&self) -> Vec<(String, f64)> {
        let mut acc: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for w in &self.workers {
            let e = acc.entry(&w.phase).or_insert((0, 0));
            e.0 += w.busy_us;
            e.1 += w.span_us;
        }
        acc.into_iter()
            .filter(|(_, (_, span))| *span > 0)
            .map(|(phase, (busy, span))| {
                let idle = 1.0 - (busy as f64 / span as f64).min(1.0);
                (phase.to_owned(), idle)
            })
            .collect()
    }

    /// The reported retry windows, largest `key` first: by retry count
    /// in the time view, by the retrying spans' bytes in the memory view.
    pub fn top_retries(&self, key: impl Fn(&RetryCluster) -> u64) -> Vec<&RetryCluster> {
        let mut top: Vec<&RetryCluster> = self.retry_clusters.iter().collect();
        top.sort_by_key(|c| (Reverse(key(c)), c.window_start_ms));
        top.truncate(RETRY_CLUSTERS);
        top
    }

    /// True when the trace carries allocation attribution (recorded
    /// with `--alloc-stats` and not stripped).
    pub fn has_alloc(&self) -> bool {
        self.phases.iter().any(|p| p.attributed) || !self.top_spans.is_empty()
    }

    /// The time view as plain text (the `topics-lab serve`
    /// `/api/profile` body).
    pub fn render(&self) -> String {
        let mut out = String::from(
            "== Per-phase time ==\nphase                  total ms    self ms  clock\n",
        );
        for p in &self.phases {
            let (name, total, own) = (&p.name, p.total_ms, p.self_ms);
            let clock = if p.simulated { "sim" } else { "wall" };
            let _ = writeln!(out, "{name:<20} {total:>10} {own:>10}  {clock}");
        }
        out.push_str("\n== Critical path (simulated clock) ==\n");
        if self.critical_path.is_empty() {
            out.push_str("(no simulated spans in trace)\n");
        }
        for h in &self.critical_path {
            let (name, label, start, end) = (&h.name, &h.label, h.start_ms, h.end_ms);
            let _ = writeln!(out, "{name:<16} {label:<28} {start:>8} → {end:>8} ms");
        }
        out.push_str("\n== Worker idle fractions ==\n");
        let idle = self.idle_fractions();
        if idle.is_empty() {
            out.push_str("(no worker spans in trace)\n");
        }
        for (phase, frac) in &idle {
            let _ = writeln!(out, "{phase:<20} {:>6.1}% idle", frac * 100.0);
        }
        out.push_str("\n== Retry clusters ==\n");
        let retries = self.top_retries(|c| c.retries as u64);
        if retries.is_empty() {
            out.push_str("(no retries in trace)\n");
        }
        for c in retries {
            let (start, n, hosts) = (c.window_start_ms, c.retries, c.hosts.join(", "));
            let _ = writeln!(out, "window @{start:>8} ms: {n:>4} retries (e.g. {hosts})");
        }
        out.push_str("\n== Slowest visits ==\n");
        for (i, v) in self.slowest_visits.iter().enumerate() {
            let (domain, rank, ms, dominant) = (&v.domain, v.rank, v.duration_ms, &v.dominant);
            let _ = writeln!(
                out,
                "{:>3}. {domain:<28} rank {rank:>6}  {ms:>8} ms (dominant: {dominant} {} ms)",
                i + 1,
                v.dominant_ms
            );
        }
        out
    }

    /// The memory view as plain text (the `topics-lab memprofile`
    /// body).
    pub fn render_memory(&self) -> String {
        let mut out = String::from("== Per-phase allocation ==\nphase                         total           self       allocs           peak\n");
        for p in self.phases.iter().filter(|p| p.attributed) {
            let (name, total, own) = (&p.name, fmt_bytes(p.total_bytes), fmt_bytes(p.self_bytes));
            let (n, peak) = (p.alloc_count, fmt_bytes(p.peak_bytes));
            let _ = writeln!(out, "{name:<20} {total:>14} {own:>14} {n:>12} {peak:>14}");
        }
        out.push_str("\n== Top allocating spans ==\n");
        for (i, s) in self.top_spans.iter().enumerate() {
            let (name, label, own) = (&s.name, &s.label, fmt_bytes(s.self_bytes));
            let (total, allocs) = (fmt_bytes(s.total_bytes), s.alloc_count);
            let _ = writeln!(
                out,
                "{:>3}. {name:<12} {label:<28} self {own:>12}  total {total:>12}  allocs {allocs}",
                i + 1
            );
        }
        out.push_str("\n== Retry-storm allocation ==\n");
        let retries = self.top_retries(|c| c.alloc_bytes);
        if retries.is_empty() {
            out.push_str("(no retries in trace)\n");
        }
        for c in retries {
            let (start, n, bytes) = (c.window_start_ms, c.retries, fmt_bytes(c.alloc_bytes));
            let hosts = c.hosts.join(", ");
            let _ = writeln!(
                out,
                "window @{start:>8} ms: {n:>4} retries, {bytes:>12} allocated by retrying spans (e.g. {hosts})"
            );
        }
        out
    }
}

/// Human-readable byte count (binary units, one decimal).
fn fmt_bytes(b: u64) -> String {
    let unit = ((63 - b.max(1).leading_zeros()) / 10).min(4);
    let v = b as f64 / (1u64 << (10 * unit)) as f64;
    match unit {
        0 => format!("{b} B"),
        _ => format!("{v:.1} {}", ["", "KiB", "MiB", "GiB", "TiB"][unit as usize]),
    }
}

/// A span's best identifying field (domain, host, phase or URL),
/// borrowed from the span when it is text; empty when it has none.
fn label_of(s: &SpanRecord) -> Cow<'_, str> {
    [Word::Domain, Word::Host, Word::Phase, Word::Url]
        .into_iter()
        .find_map(|key| s.field(key))
        .map_or(Cow::Borrowed(""), |v| match v {
            FieldValue::Str(t) => Cow::Borrowed(t.as_str()),
            other => Cow::Owned(other.to_string()),
        })
}

/// Push `host` onto a retry window's sample of up to three hosts.
fn sample_host(hosts: &mut Vec<String>, host: Cow<'_, str>) {
    if hosts.len() < 3 && !host.is_empty() && !hosts.iter().any(|h| *h == host) {
        hosts.push(host.into_owned());
    }
}

/// An integer field's value; 0 when absent or not an integer.
fn u64_field(s: &SpanRecord, key: Word) -> u64 {
    match s.field(key) {
        Some(FieldValue::U64(v)) => *v,
        Some(FieldValue::I64(v)) => *v as u64,
        _ => 0,
    }
}

/// Ends a child list in [`Tree`].
const NONE: usize = usize::MAX;

/// Spans found by position. A sealed trace's span `id` sits at position
/// `id - 1`, so only a span anywhere else (an edited or corrupted trace)
/// goes through `moved`, which is empty on a sealed trace.
struct Tree<'a> {
    spans: &'a [SpanRecord],
    /// `(id, position)` of every span not at `id - 1`, sorted.
    moved: Vec<(u64, usize)>,
    /// Children as linked lists in span order: `first[k]` starts slot
    /// `k`'s list and `next[i]` follows span `i` in its list. A slot is
    /// the parent's position, or `spans.len()` for the children of a
    /// missing span 1.
    first: Vec<usize>,
    next: Vec<usize>,
}

impl<'a> Tree<'a> {
    fn new(spans: &'a [SpanRecord]) -> Self {
        let mut moved: Vec<(u64, usize)> = (spans.iter().enumerate())
            .filter(|&(i, s)| s.id != i as u64 + 1)
            .map(|(i, s)| (s.id, i))
            .collect();
        moved.sort_unstable();
        let (first, next) = (vec![NONE; spans.len() + 1], vec![NONE; spans.len()]);
        let mut tree = Tree {
            spans,
            moved,
            first,
            next,
        };
        for i in (0..spans.len()).rev() {
            if let Some(k) = tree.parent_slot(i) {
                (tree.next[i], tree.first[k]) = (tree.first[k], i);
            }
        }
        tree
    }

    /// Position of the span `id`: the last copy when it is duplicated.
    fn pos(&self, id: u64) -> Option<usize> {
        let home = (id as usize)
            .checked_sub(1)
            .filter(|&i| self.spans.get(i).is_some_and(|s| s.id == id));
        let k = self.moved.partition_point(|&(m, _)| m <= id);
        let moved = k.checked_sub(1).map(|k| self.moved[k]);
        home.max(moved.filter(|m| m.0 == id).map(|m| m.1))
    }

    fn parent(&self, i: usize) -> Option<usize> {
        self.pos(self.spans[i].parent?)
    }

    fn parent_slot(&self, i: usize) -> Option<usize> {
        let names_one = self.spans[i].parent == Some(1);
        self.parent(i).or(names_one.then_some(self.spans.len()))
    }

    /// The children in slot `k`.
    fn kids(&self, k: usize) -> impl Iterator<Item = usize> + '_ {
        let link = |i: usize| Some(i).filter(|&i| i != NONE);
        std::iter::successors(link(self.first[k]), move |&i| link(self.next[i]))
    }

    /// The children of every span with the ID of the one at `i` (that
    /// ID is always found: at `i`, or at a later copy).
    fn children(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.kids(self.pos(self.spans[i].id).unwrap_or(i))
    }

    /// Per position: true when the span's parent chain loops instead of
    /// ending. The chains that end are the spans reached walking down
    /// from every span whose parent is absent or not found.
    fn loops(&self) -> Vec<bool> {
        let mut loops = vec![true; self.spans.len()];
        let mut down: Vec<usize> = (0..self.spans.len())
            .filter(|&i| self.parent(i).is_none())
            .collect();
        while let Some(i) = down.pop() {
            if std::mem::replace(&mut loops[i], false) {
                down.extend(self.kids(i));
            }
        }
        loops
    }
}

/// Analyze a sealed trace in one pass. `top_n` bounds the slowest-visit
/// and top-allocating-span lists.
pub fn profile(trace: &Trace, top_n: usize) -> Profile {
    let spans = trace.spans.as_slice();
    let tree = Tree::new(spans);
    let loops = tree.loops();
    let alloc_of = |s: &SpanRecord| u64_field(s, Word::AllocBytes);
    let attributed = |s: &SpanRecord| s.field(Word::AllocBytes).is_some();
    // What a span's direct children attributed to themselves. Their
    // thread-local deltas nest inside its scope, so subtracting it does
    // not go negative on a well-formed trace; saturate anyway.
    let kid_bytes = |i: usize| -> u64 { tree.children(i).map(|c| alloc_of(&spans[c])).sum() };

    let mut p = Profile::default();
    let mut root = false;
    let mut windows: BTreeMap<u64, (RetryCluster, Vec<usize>)> = BTreeMap::new();
    let (mut visits, mut allocating) = (Vec::new(), Vec::new());
    for (i, s) in spans.iter().enumerate() {
        let integrity = &mut p.integrity;
        match s.parent {
            Some(parent) if tree.pos(parent).is_none() => integrity.orphans.push(s.id),
            None if s.id == 1 => root = true,
            None => integrity.rootless.push(s.id),
            Some(_) => {}
        }
        // Every copy of a duplicated ID but the last.
        if tree.pos(s.id) != Some(i) {
            integrity.duplicates.push(s.id);
        }
        let sim_bad = matches!((s.sim_start_ms, s.sim_end_ms), (Some(a), Some(b)) if b < a);
        let wall_bad = s.wall_start_us > 0 && s.wall_end_us > 0 && s.wall_end_us < s.wall_start_us;
        if sim_bad || wall_bad {
            integrity.negative.push(s.id);
        }
        if loops[i] {
            integrity.cyclic.push(s.id);
        }
        if s.parent != Some(1) && attributed(s) {
            allocating.push((alloc_of(s).saturating_sub(kid_bytes(i)), i));
        }

        if s.name == Word::Visit {
            p.counts.visits += 1;
            visits.push(i);
        } else if s.name == Word::TopicsCall {
            p.counts.topics_calls += 1;
        } else if s.name == Word::Probe {
            p.counts.probes += 1;
        } else if s.name == Word::AttestationProbe {
            p.counts.cache_hits += u64_field(s, Word::CacheHits);
        } else if s.op && s.name == Word::Worker {
            p.workers.push(WorkerStat {
                phase: (s.field(Word::Phase)).map_or_else(|| "?".to_owned(), |v| v.to_string()),
                worker: u64_field(s, Word::Worker),
                busy_us: u64_field(s, Word::BusyUs),
                span_us: u64_field(s, Word::SpanUs).max(s.wall_duration_us()),
                items: u64_field(s, Word::Items),
            });
        } else if s.name == Word::Retry {
            let Some(start) = s.sim_start_ms else {
                continue;
            };
            // Retries go into simulated-minute windows. Each window is
            // charged once for the nearest ancestor carrying attribution
            // (the visit or probe that paid for the retries); a chain
            // that loops has none to find.
            let (window, charged) = windows.entry(start / RETRY_WINDOW_MS).or_default();
            window.window_start_ms = start - start % RETRY_WINDOW_MS;
            window.retries += 1;
            let mut up = if loops[i] { None } else { tree.parent(i) };
            while let Some(a) = up {
                if attributed(&spans[a]) {
                    if !charged.contains(&a) {
                        charged.push(a);
                        window.alloc_bytes += alloc_of(&spans[a]);
                    }
                    break;
                }
                up = tree.parent(a);
            }
            sample_host(&mut window.hosts, label_of(s));
        }
    }
    p.integrity.missing_root = !root;
    p.integrity.duplicates.sort_unstable();
    p.integrity.duplicates.dedup();
    p.retry_clusters = windows.into_values().map(|(cluster, _)| cluster).collect();

    // The phases are the root's children; a missing span 1 still has
    // the children that name it.
    let root = tree.pos(1).unwrap_or(spans.len());
    for i in tree.kids(root).filter(|&i| !spans[i].op) {
        let s = &spans[i];
        let (total_ms, self_ms, simulated) = phase_time(s, tree.children(i), spans);
        let (total_bytes, children_bytes) = (alloc_of(s), kid_bytes(i));
        p.phases.push(PhaseStat {
            name: s.name.clone(),
            total_ms,
            self_ms,
            simulated,
            attributed: attributed(s),
            total_bytes,
            children_bytes,
            self_bytes: total_bytes.saturating_sub(children_bytes),
            alloc_count: u64_field(s, Word::AllocCount),
            peak_bytes: u64_field(s, Word::PeakBytes),
        });
    }

    // Critical path: from the root, repeatedly descend into the child
    // that finishes last on the simulated clock, never into one slot
    // twice (duplicated IDs can lead back up the tree).
    let mut seen = vec![false; spans.len() + 1];
    let mut slot = Some(root);
    while let Some(k) = slot.filter(|&k| !std::mem::replace(&mut seen[k], true)) {
        let next = (tree.kids(k))
            .map(|c| &spans[c])
            .filter(|c| !c.op && c.sim_end_ms.is_some())
            .max_by_key(|c| (c.sim_end_ms, Reverse(c.id)));
        let Some(next) = next else { break };
        p.critical_path.push(Hop {
            name: next.name.clone(),
            label: label_of(next).into_owned(),
            start_ms: next.sim_start_ms.unwrap_or(0),
            end_ms: next.sim_end_ms.unwrap_or(0),
        });
        slot = tree.pos(next.id);
    }

    // Slowest visits with their dominant child span.
    let duration = |s: &SpanRecord| s.sim_duration_ms().unwrap_or(0);
    visits.sort_by_key(|&i| (Reverse(duration(&spans[i])), spans[i].id));
    p.slowest_visits = (visits.into_iter().take(top_n))
        .map(|i| {
            let dominant = (tree.children(i))
                .map(|c| &spans[c])
                .max_by_key(|c| (duration(c), Reverse(c.id)));
            SlowVisit {
                domain: label_of(&spans[i]).into_owned(),
                rank: u64_field(&spans[i], Word::Rank),
                duration_ms: duration(&spans[i]),
                dominant: dominant.map(|d| d.name.clone()).unwrap_or_default(),
                dominant_ms: dominant.map_or(0, duration),
            }
        })
        .collect();

    // Top non-phase spans by self bytes; only the kept ones are labelled.
    allocating.sort_by_key(|&(bytes, i)| (Reverse(bytes), spans[i].id));
    allocating.truncate(top_n);
    p.top_spans = (allocating.into_iter())
        .map(|(self_bytes, i)| MemSpan {
            id: spans[i].id,
            name: spans[i].name.clone(),
            label: label_of(&spans[i]).into_owned(),
            self_bytes,
            total_bytes: alloc_of(&spans[i]),
            alloc_count: u64_field(&spans[i], Word::AllocCount),
        })
        .collect();
    p
}

/// A phase's total and self time, and whether both are on the simulated
/// clock. Self time is the simulated time none of its `kids` covers, or
/// the whole wall-clock total.
fn phase_time(
    phase: &SpanRecord,
    kids: impl Iterator<Item = usize>,
    spans: &[SpanRecord],
) -> (u64, u64, bool) {
    let Some(total) = phase.sim_duration_ms() else {
        let wall = phase.wall_duration_us() / 1000;
        return (wall, wall, false);
    };
    let start = phase.sim_start_ms.unwrap_or(0);
    let mut intervals: Vec<(u64, u64)> = kids
        .filter_map(|c| Some((spans[c].sim_start_ms?, spans[c].sim_end_ms?)))
        .map(|(a, b)| (a.max(start), b.min(start + total)))
        .filter(|(a, b)| b > a)
        .collect();
    intervals.sort_unstable();
    let (mut covered, mut cursor) = (0, start);
    for (a, b) in intervals {
        let a = a.max(cursor);
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    (total, total.saturating_sub(covered), true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;

    fn traced_campaign() -> Trace {
        let tracer = Tracer::enabled();
        let crawl = tracer.phase("crawl");
        for (i, (start, end)) in [(0u64, 300u64), (0, 900), (100, 500)].iter().enumerate() {
            let mut b = tracer.visit_builder().unwrap();
            let v = b.open(Word::Visit, Some(*start));
            b.field(v, Word::Domain, format!("site{i}.example"));
            b.field(v, Word::Rank, i + 1);
            let f = b.open(Word::Fetch, Some(*start));
            b.field(f, Word::Host, format!("site{i}.example"));
            b.close(f, Some(start + (end - start) / 2));
            if i == 1 {
                let r = b.leaf(Word::Retry, Some(start + 10), Some(start + 200));
                b.field(r, Word::Host, "site1.example");
                b.field(r, Word::Attempt, 1usize);
            }
            b.close(v, Some(*end));
            crawl.attach(b);
        }
        let mut w = tracer.visit_builder().unwrap();
        let ws = w.open_op(Word::Worker, None);
        w.field(ws, Word::Phase, "crawl");
        w.field(ws, Word::Worker, 0usize);
        w.field(ws, Word::BusyUs, 750u64);
        w.field(ws, Word::SpanUs, 1000u64);
        w.field(ws, Word::Items, 3usize);
        w.close(ws, None);
        crawl.attach(w);
        crawl.end(Some((0, 900)));
        tracer.finish()
    }

    /// A corrupting edit of a sealed trace.
    type Mutation = fn(&mut Trace);

    /// Every field the trace pass computes: integrity; phases with time
    /// and allocation columns; critical path; workers; retry windows
    /// with count and bytes; slowest visits; top spans. A corner case
    /// asserts it whole, so no part of the result can move unseen.
    fn summary(t: &Trace) -> String {
        let p = profile(t, 2);
        let i = &p.integrity;
        assert!(i.cyclic.is_empty(), "{:?}", i.cyclic);
        let (o, d, n, r) = (&i.orphans, &i.duplicates, &i.negative, &i.rootless);
        let i = (o, d, n, r, i.missing_root);
        let phases: Vec<_> = (p.phases.iter())
            .map(|x| {
                let mem = (x.total_bytes, x.self_bytes, x.alloc_count, x.peak_bytes);
                let mem = x.attributed.then_some(mem);
                (&x.name, x.total_ms, x.self_ms, x.simulated, mem)
            })
            .collect();
        let retries: Vec<_> = (p.top_retries(|c| c.retries as u64).into_iter())
            .map(|c| (c.window_start_ms, c.retries, c.alloc_bytes, &c.hosts))
            .collect();
        let (path, workers, slow) = (&p.critical_path, &p.workers, &p.slowest_visits);
        format!(
            "{i:?} {phases:?} {path:?} {workers:?} {retries:?} {slow:?} {:?}",
            p.top_spans
        )
    }

    #[test]
    fn clean_trace_passes_integrity() {
        let report = profile(&traced_campaign(), 10).integrity;
        assert!(report.is_clean(), "violations: {:?}", report.violations());
    }

    #[test]
    fn orphan_duplicate_and_negative_spans_are_detected() {
        let mut t = traced_campaign();
        // Orphan: point a span at a parent that does not exist.
        t.spans[2].parent = Some(9999);
        // Duplicate: reuse an ID.
        let dup = t.spans[3].clone();
        t.spans.push(dup);
        // Negative: invert a simulated duration.
        let last = t.spans.len() - 1;
        t.spans[last].sim_start_ms = Some(100);
        t.spans[last].sim_end_ms = Some(50);
        let report = profile(&t, 10).integrity;
        assert!(!report.is_clean());
        assert!(report.orphans.contains(&t.spans[2].id));
        assert!(!report.duplicates.is_empty());
        assert!(!report.negative.is_empty());
        assert_eq!(report.violations().len(), 3);
        // A sealed trace always has its root span: an empty one does not.
        let empty = profile(&Trace::default(), 10).integrity;
        assert!(empty.missing_root && !empty.is_clean());
        assert_eq!(
            empty.violations(),
            ["missing root span (no span 1 without a parent)"]
        );

        // The sealed trace pins the whole profile: the visits cover the
        // crawl (self 0 ms), the critical path descends through the
        // latest finisher to its fetch, and the slowest visits rank by
        // simulated duration with their dominant child. Spans the lookup
        // cannot find at their position give the same result.
        let cases: [(Mutation, &str); 5] = [
            (
                |_| {},
                r#"([], [], [], [], false) [("crawl", 900, 0, true, None)] [Hop { name: "crawl", label: "", start_ms: 0, end_ms: 900 }, Hop { name: "visit", label: "site1.example", start_ms: 0, end_ms: 900 }, Hop { name: "fetch", label: "site1.example", start_ms: 0, end_ms: 450 }] [WorkerStat { phase: "crawl", worker: 0, busy_us: 750, span_us: 1000, items: 3 }] [(0, 1, 0, ["site1.example"])] [SlowVisit { domain: "site1.example", rank: 2, duration_ms: 900, dominant: "fetch", dominant_ms: 450 }, SlowVisit { domain: "site2.example", rank: 3, duration_ms: 400, dominant: "fetch", dominant_ms: 200 }] []"#,
            ),
            (
                |t| t.spans.reverse(),
                r#"([], [], [], [], false) [("crawl", 900, 0, true, None)] [Hop { name: "crawl", label: "", start_ms: 0, end_ms: 900 }, Hop { name: "visit", label: "site1.example", start_ms: 0, end_ms: 900 }, Hop { name: "fetch", label: "site1.example", start_ms: 0, end_ms: 450 }] [WorkerStat { phase: "crawl", worker: 0, busy_us: 750, span_us: 1000, items: 3 }] [(0, 1, 0, ["site1.example"])] [SlowVisit { domain: "site1.example", rank: 2, duration_ms: 900, dominant: "fetch", dominant_ms: 450 }, SlowVisit { domain: "site2.example", rank: 3, duration_ms: 400, dominant: "fetch", dominant_ms: 200 }] []"#,
            ),
            (
                |t| {
                    (t.spans[4].id, t.spans[5].parent) = (500, Some(500));
                    (t.spans[7].id, t.spans[8].parent) = (0, Some(0));
                },
                r#"([7], [], [], [], false) [("crawl", 900, 0, true, None)] [Hop { name: "crawl", label: "", start_ms: 0, end_ms: 900 }, Hop { name: "visit", label: "site1.example", start_ms: 0, end_ms: 900 }, Hop { name: "fetch", label: "site1.example", start_ms: 0, end_ms: 450 }] [WorkerStat { phase: "crawl", worker: 0, busy_us: 750, span_us: 1000, items: 3 }] [(0, 1, 0, ["site1.example"])] [SlowVisit { domain: "site1.example", rank: 2, duration_ms: 900, dominant: "fetch", dominant_ms: 450 }, SlowVisit { domain: "site2.example", rank: 3, duration_ms: 400, dominant: "fetch", dominant_ms: 200 }] []"#,
            ),
            // Both copies of ID 5 have children.
            (
                |t| (t.spans[7].id, t.spans[8].parent) = (5, Some(5)),
                r#"([], [5], [], [], false) [("crawl", 900, 0, true, None)] [Hop { name: "crawl", label: "", start_ms: 0, end_ms: 900 }, Hop { name: "visit", label: "site1.example", start_ms: 0, end_ms: 900 }, Hop { name: "fetch", label: "site1.example", start_ms: 0, end_ms: 450 }] [WorkerStat { phase: "crawl", worker: 0, busy_us: 750, span_us: 1000, items: 3 }] [(0, 1, 0, ["site1.example"])] [SlowVisit { domain: "site1.example", rank: 2, duration_ms: 900, dominant: "fetch", dominant_ms: 450 }, SlowVisit { domain: "site2.example", rank: 3, duration_ms: 400, dominant: "fetch", dominant_ms: 450 }] []"#,
            ),
            // No span 1, but the phases still name it as their parent.
            (
                |t| drop(t.spans.remove(0)),
                r#"([2], [], [], [], true) [("crawl", 900, 0, true, None)] [Hop { name: "crawl", label: "", start_ms: 0, end_ms: 900 }, Hop { name: "visit", label: "site1.example", start_ms: 0, end_ms: 900 }, Hop { name: "fetch", label: "site1.example", start_ms: 0, end_ms: 450 }] [WorkerStat { phase: "crawl", worker: 0, busy_us: 750, span_us: 1000, items: 3 }] [(0, 1, 0, ["site1.example"])] [SlowVisit { domain: "site1.example", rank: 2, duration_ms: 900, dominant: "fetch", dominant_ms: 450 }, SlowVisit { domain: "site2.example", rank: 3, duration_ms: 400, dominant: "fetch", dominant_ms: 200 }] []"#,
            ),
        ];
        for (mutate, want) in cases {
            let mut t = traced_campaign();
            mutate(&mut t);
            assert_eq!(summary(&t), want);
        }
    }

    #[test]
    fn critical_path_follows_latest_finisher() {
        let p = profile(&traced_campaign(), 10);
        assert_eq!(p.critical_path[0].name, "crawl");
        assert_eq!(p.critical_path[1].name, "visit");
        assert_eq!(p.critical_path[1].label, "site1.example");
        assert_eq!(p.critical_path[1].end_ms, 900);
    }

    #[test]
    fn phase_self_time_subtracts_child_cover() {
        let p = profile(&traced_campaign(), 10);
        let crawl = p.phases.iter().find(|s| s.name == "crawl").unwrap();
        assert!(crawl.simulated);
        assert_eq!(crawl.total_ms, 900);
        // Visits cover [0,900] completely.
        assert_eq!(crawl.self_ms, 0);
    }

    #[test]
    fn worker_idle_fraction_and_retry_clusters() {
        let p = profile(&traced_campaign(), 10);
        let idle = p.idle_fractions();
        assert!(idle.len() == 1 && idle[0].0 == "crawl" && (idle[0].1 - 0.25).abs() < 1e-9);
        let retries = &p.retry_clusters;
        assert!(retries.len() == 1 && retries[0].retries == 1);
        assert_eq!(retries[0].hosts, ["site1.example"]);
    }

    fn traced_campaign_with_alloc() -> Trace {
        let tracer = Tracer::enabled();
        let crawl = tracer.phase("crawl");
        for (i, bytes) in [4_096u64, 65_536, 16_384].iter().enumerate() {
            let mut b = tracer.visit_builder().unwrap();
            let v = b.open(Word::Visit, Some(i as u64 * 100));
            b.field(v, Word::Domain, format!("site{i}.example"));
            b.field(v, Word::AllocBytes, *bytes);
            b.field(v, Word::AllocCount, 10u64 + i as u64);
            b.field(v, Word::PeakBytes, bytes / 2);
            let pl = b.open(Word::PageLoad, Some(i as u64 * 100));
            b.field(pl, Word::AllocBytes, bytes / 4);
            b.close(pl, Some(i as u64 * 100 + 40));
            if i == 1 {
                let r = b.leaf(Word::Retry, Some(110), Some(150));
                b.field(r, Word::Host, "site1.example");
            }
            b.close(v, Some(i as u64 * 100 + 80));
            crawl.attach(b);
        }
        crawl.field(Word::AllocBytes, 100_000u64);
        crawl.field(Word::AllocCount, 40u64);
        crawl.field(Word::PeakBytes, 50_000u64);
        crawl.end(Some((0, 280)));
        tracer.finish()
    }

    #[test]
    fn mem_profile_attributes_phases_spans_and_retries() {
        assert!(profile(&traced_campaign_with_alloc(), 2).has_alloc());
        // Crawl self = 100000 − (4096 + 65536 + 16384); visit 1 allocated
        // the most net of its page-load child; the retry window charges
        // the retrying visit's bytes once.
        let cases: [(Mutation, &str); 3] = [
            (
                |_| {},
                r#"([], [], [], [], false) [("crawl", 280, 40, true, Some((100000, 13984, 40, 50000)))] [Hop { name: "crawl", label: "", start_ms: 0, end_ms: 280 }, Hop { name: "visit", label: "site2.example", start_ms: 200, end_ms: 280 }, Hop { name: "page-load", label: "", start_ms: 200, end_ms: 240 }] [] [(0, 1, 65536, ["site1.example"])] [SlowVisit { domain: "site0.example", rank: 0, duration_ms: 80, dominant: "page-load", dominant_ms: 40 }, SlowVisit { domain: "site1.example", rank: 0, duration_ms: 80, dominant: "page-load", dominant_ms: 40 }] [MemSpan { id: 5, name: "visit", label: "site1.example", self_bytes: 49152, total_bytes: 65536, alloc_count: 11 }, MemSpan { id: 6, name: "page-load", label: "", self_bytes: 16384, total_bytes: 16384, alloc_count: 0 }]"#,
            ),
            // Both copies of ID 5 have children; the retry under the
            // first is charged to the last.
            (
                |t| (t.spans[7].id, t.spans[8].parent) = (5, Some(5)),
                r#"([], [5], [], [], false) [("crawl", 280, 40, true, Some((100000, 13984, 40, 50000)))] [Hop { name: "crawl", label: "", start_ms: 0, end_ms: 280 }, Hop { name: "visit", label: "site2.example", start_ms: 200, end_ms: 280 }, Hop { name: "page-load", label: "", start_ms: 200, end_ms: 240 }] [] [(0, 1, 16384, ["site1.example"])] [SlowVisit { domain: "site0.example", rank: 0, duration_ms: 80, dominant: "page-load", dominant_ms: 40 }, SlowVisit { domain: "site1.example", rank: 0, duration_ms: 80, dominant: "page-load", dominant_ms: 40 }] [MemSpan { id: 5, name: "visit", label: "site1.example", self_bytes: 45056, total_bytes: 65536, alloc_count: 11 }, MemSpan { id: 6, name: "page-load", label: "", self_bytes: 16384, total_bytes: 16384, alloc_count: 0 }]"#,
            ),
            // `alloc_bytes` that is not an integer attributes 0 bytes.
            (
                |t| {
                    t.spans[1].fields[0].1 = FieldValue::Str("lots".into());
                    t.spans[4].fields[1].1 = FieldValue::F64(1.5);
                },
                r#"([], [], [], [], false) [("crawl", 280, 40, true, Some((0, 0, 40, 50000)))] [Hop { name: "crawl", label: "", start_ms: 0, end_ms: 280 }, Hop { name: "visit", label: "site2.example", start_ms: 200, end_ms: 280 }, Hop { name: "page-load", label: "", start_ms: 200, end_ms: 240 }] [] [(0, 1, 0, ["site1.example"])] [SlowVisit { domain: "site0.example", rank: 0, duration_ms: 80, dominant: "page-load", dominant_ms: 40 }, SlowVisit { domain: "site1.example", rank: 0, duration_ms: 80, dominant: "page-load", dominant_ms: 40 }] [MemSpan { id: 6, name: "page-load", label: "", self_bytes: 16384, total_bytes: 16384, alloc_count: 0 }, MemSpan { id: 8, name: "visit", label: "site2.example", self_bytes: 12288, total_bytes: 16384, alloc_count: 12 }]"#,
            ),
        ];
        for (mutate, want) in cases {
            let mut t = traced_campaign_with_alloc();
            mutate(&mut t);
            assert_eq!(summary(&t), want);
        }
    }

    #[test]
    fn mem_profile_is_empty_without_attribution() {
        let p = profile(&traced_campaign(), 5);
        assert!(!p.has_alloc());
        // No phase row, no span; the retry window is charged nothing.
        assert_eq!(
            p.render_memory(),
            "== Per-phase allocation ==
phase                         total           self       allocs           peak

== Top allocating spans ==

== Retry-storm allocation ==
window @       0 ms:    1 retries,          0 B allocated by retrying spans (e.g. site1.example)
"
        );
    }

    #[test]
    fn fmt_bytes_uses_binary_units() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.0 KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.0 MiB");
        assert_eq!(fmt_bytes(1023), "1023 B");
        assert_eq!(fmt_bytes(u64::MAX), "16777216.0 TiB");
    }

    #[test]
    fn slowest_visits_rank_by_sim_duration_with_dominant_child() {
        let p = profile(&traced_campaign(), 2);
        assert_eq!(p.slowest_visits.len(), 2);
        assert_eq!(p.slowest_visits[0].domain, "site1.example");
        assert_eq!(p.slowest_visits[0].duration_ms, 900);
        assert_eq!(p.slowest_visits[0].dominant, "fetch");
        assert_eq!(p.slowest_visits[0].dominant_ms, 450);
        assert_eq!(p.slowest_visits[1].domain, "site2.example");
    }
}
