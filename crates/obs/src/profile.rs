//! Trace analysis: critical path, per-phase self/total time, worker
//! utilization, retry-storm clusters, slowest visits, and structural
//! integrity checks over a sealed [`Trace`].
//!
//! Everything here is computed from simulated-clock span bounds where
//! available (deterministic) and falls back to wall time only for spans
//! that never touch campaign time (e.g. `world-gen`).

use crate::events::FieldValue;
use crate::trace::{SpanRecord, Trace};
use crate::vocab::{Text, Word};
use std::borrow::Cow;
use std::collections::BTreeMap;

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
    /// No root span: a sealed trace always starts with span 1, which
    /// has no parent, so an empty or headless trace is not one.
    pub missing_root: bool,
}

impl Integrity {
    /// True when the trace is structurally sound.
    pub fn is_clean(&self) -> bool {
        self.orphans.is_empty()
            && self.duplicates.is_empty()
            && self.negative.is_empty()
            && self.rootless.is_empty()
            && !self.missing_root
    }

    /// Human-readable violation lines (empty when clean).
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.missing_root {
            out.push("missing root span (no span 1 without a parent)".to_owned());
        }
        if !self.orphans.is_empty() {
            out.push(format!(
                "{} orphan span(s) (missing parent): IDs {:?}",
                self.orphans.len(),
                preview(&self.orphans)
            ));
        }
        if !self.duplicates.is_empty() {
            out.push(format!(
                "{} duplicate span ID(s): {:?}",
                self.duplicates.len(),
                preview(&self.duplicates)
            ));
        }
        if !self.negative.is_empty() {
            out.push(format!(
                "{} span(s) with negative duration: IDs {:?}",
                self.negative.len(),
                preview(&self.negative)
            ));
        }
        if !self.rootless.is_empty() {
            out.push(format!(
                "{} non-root span(s) without a parent: IDs {:?}",
                self.rootless.len(),
                preview(&self.rootless)
            ));
        }
        out
    }
}

fn preview(ids: &[u64]) -> Vec<u64> {
    ids.iter().take(8).copied().collect()
}

/// Check a trace for a missing root, orphan spans, duplicate IDs, and
/// negative durations.
pub fn integrity(trace: &Trace) -> Integrity {
    let mut seen: BTreeMap<u64, usize> = BTreeMap::new();
    for s in &trace.spans {
        *seen.entry(s.id).or_insert(0) += 1;
    }
    let duplicates: Vec<u64> = seen
        .iter()
        .filter(|(_, &n)| n > 1)
        .map(|(&id, _)| id)
        .collect();
    let mut orphans = Vec::new();
    let mut rootless = Vec::new();
    let mut negative = Vec::new();
    for s in &trace.spans {
        match s.parent {
            Some(p) => {
                if !seen.contains_key(&p) {
                    orphans.push(s.id);
                }
            }
            None => {
                if s.id != 1 {
                    rootless.push(s.id);
                }
            }
        }
        let sim_bad = matches!((s.sim_start_ms, s.sim_end_ms), (Some(a), Some(b)) if b < a);
        let wall_bad = s.wall_start_us > 0 && s.wall_end_us > 0 && s.wall_end_us < s.wall_start_us;
        if sim_bad || wall_bad {
            negative.push(s.id);
        }
    }
    Integrity {
        orphans,
        duplicates,
        negative,
        rootless,
        missing_root: !trace.spans.iter().any(|s| s.id == 1 && s.parent.is_none()),
    }
}

/// Total vs self time of one top-level phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStat {
    /// Phase span name (`world-gen`, `crawl`, `attestation-probe`, …).
    pub name: Text,
    /// Phase duration: simulated ms when the phase has simulated
    /// bounds, otherwise wall-clock ms.
    pub total_ms: u64,
    /// Time not covered by any direct child (same clock as `total_ms`).
    pub self_ms: u64,
    /// True when the stats are on the simulated clock.
    pub simulated: bool,
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
#[derive(Debug, Clone, PartialEq)]
pub struct RetryCluster {
    /// Window start on the simulated clock (ms).
    pub window_start_ms: u64,
    /// Retry attempts inside the window.
    pub retries: usize,
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

/// The full analyzer output.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    /// Per-phase total vs self time, in sealed span order.
    pub phases: Vec<PhaseStat>,
    /// Root-to-leaf chain of latest-finishing spans on the simulated
    /// clock.
    pub critical_path: Vec<Hop>,
    /// Per-worker utilization (empty when the trace has no worker
    /// spans, e.g. a stripped trace).
    pub workers: Vec<WorkerStat>,
    /// Retry windows ordered by retry count, densest first.
    pub retry_clusters: Vec<RetryCluster>,
    /// Top-N visits by simulated duration.
    pub slowest_visits: Vec<SlowVisit>,
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

    /// Plain-text report (the `topics-lab serve` `/api/profile` body).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== Per-phase time ==\n");
        out.push_str(&format!(
            "{:<20} {:>10} {:>10}  clock\n",
            "phase", "total ms", "self ms"
        ));
        for p in &self.phases {
            out.push_str(&format!(
                "{:<20} {:>10} {:>10}  {}\n",
                p.name,
                p.total_ms,
                p.self_ms,
                if p.simulated { "sim" } else { "wall" },
            ));
        }
        out.push('\n');
        out.push_str("== Critical path (simulated clock) ==\n");
        if self.critical_path.is_empty() {
            out.push_str("(no simulated spans in trace)\n");
        }
        for h in &self.critical_path {
            out.push_str(&format!(
                "{:<16} {:<28} {:>8} → {:>8} ms\n",
                h.name, h.label, h.start_ms, h.end_ms
            ));
        }
        out.push('\n');
        out.push_str("== Worker idle fractions ==\n");
        let idle = self.idle_fractions();
        if idle.is_empty() {
            out.push_str("(no worker spans in trace)\n");
        }
        for (phase, frac) in &idle {
            out.push_str(&format!("{phase:<20} {:>6.1}% idle\n", frac * 100.0));
        }
        out.push('\n');
        out.push_str("== Retry clusters ==\n");
        if self.retry_clusters.is_empty() {
            out.push_str("(no retries in trace)\n");
        }
        for c in &self.retry_clusters {
            out.push_str(&format!(
                "window @{:>8} ms: {:>4} retries (e.g. {})\n",
                c.window_start_ms,
                c.retries,
                c.hosts.join(", "),
            ));
        }
        out.push('\n');
        out.push_str("== Slowest visits ==\n");
        for (i, v) in self.slowest_visits.iter().enumerate() {
            out.push_str(&format!(
                "{:>3}. {:<28} rank {:>6}  {:>8} ms (dominant: {} {} ms)\n",
                i + 1,
                v.domain,
                v.rank,
                v.duration_ms,
                v.dominant,
                v.dominant_ms,
            ));
        }
        out
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

fn u64_field(s: &SpanRecord, key: Word) -> u64 {
    match s.field(key) {
        Some(FieldValue::U64(v)) => *v,
        Some(FieldValue::I64(v)) => *v as u64,
        _ => 0,
    }
}

/// Analyze a sealed trace. `top_n` bounds the slowest-visit list.
pub fn profile(trace: &Trace, top_n: usize) -> Profile {
    let mut children: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, s) in trace.spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(i);
        }
    }

    // Per-phase total vs self time.
    let mut phases = Vec::new();
    for &pi in children.get(&1).map(Vec::as_slice).unwrap_or(&[]) {
        let p = &trace.spans[pi];
        if p.op {
            continue;
        }
        let (total_ms, simulated) = match p.sim_duration_ms() {
            Some(d) => (d, true),
            None => (p.wall_duration_us() / 1000, false),
        };
        let self_ms = if simulated {
            let (ps, pe) = (p.sim_start_ms.unwrap(), p.sim_end_ms.unwrap());
            let mut intervals: Vec<(u64, u64)> = children
                .get(&p.id)
                .map(Vec::as_slice)
                .unwrap_or(&[])
                .iter()
                .filter_map(|&ci| {
                    let c = &trace.spans[ci];
                    match (c.sim_start_ms, c.sim_end_ms) {
                        (Some(a), Some(b)) if b > a => Some((a.max(ps), b.min(pe))),
                        _ => None,
                    }
                })
                .filter(|(a, b)| b > a)
                .collect();
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = ps;
            for (a, b) in intervals {
                let a = a.max(cursor);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            total_ms.saturating_sub(covered)
        } else {
            total_ms
        };
        phases.push(PhaseStat {
            name: p.name.clone(),
            total_ms,
            self_ms,
            simulated,
        });
    }

    // Critical path: from the root, repeatedly descend into the child
    // that finishes last on the simulated clock.
    let mut critical_path = Vec::new();
    let mut cursor = 1u64;
    while let Some(kids) = children.get(&cursor) {
        let next = kids
            .iter()
            .map(|&i| &trace.spans[i])
            .filter(|s| !s.op && s.sim_end_ms.is_some())
            .max_by_key(|s| (s.sim_end_ms, std::cmp::Reverse(s.id)));
        let Some(next) = next else { break };
        critical_path.push(Hop {
            name: next.name.clone(),
            label: label_of(next).into_owned(),
            start_ms: next.sim_start_ms.unwrap_or(0),
            end_ms: next.sim_end_ms.unwrap_or(0),
        });
        cursor = next.id;
    }

    // Worker utilization from operational `worker` spans.
    let workers: Vec<WorkerStat> = trace
        .spans
        .iter()
        .filter(|s| s.op && s.name == Word::Worker)
        .map(|s| WorkerStat {
            phase: s
                .field(Word::Phase)
                .map(|v| v.to_string())
                .unwrap_or_else(|| "?".to_owned()),
            worker: u64_field(s, Word::Worker),
            busy_us: u64_field(s, Word::BusyUs),
            span_us: u64_field(s, Word::SpanUs).max(s.wall_duration_us()),
            items: u64_field(s, Word::Items),
        })
        .collect();

    // Retry storms: bucket retry spans into simulated-minute windows.
    let mut buckets: BTreeMap<u64, (usize, Vec<String>)> = BTreeMap::new();
    for s in trace.spans.iter().filter(|s| s.name == Word::Retry) {
        let Some(start) = s.sim_start_ms else {
            continue;
        };
        let entry = buckets.entry(start / RETRY_WINDOW_MS).or_default();
        entry.0 += 1;
        sample_host(&mut entry.1, label_of(s));
    }
    let mut retry_clusters: Vec<RetryCluster> = buckets
        .into_iter()
        .map(|(window, (retries, hosts))| RetryCluster {
            window_start_ms: window * RETRY_WINDOW_MS,
            retries,
            hosts,
        })
        .collect();
    retry_clusters.sort_by_key(|c| (std::cmp::Reverse(c.retries), c.window_start_ms));
    retry_clusters.truncate(RETRY_CLUSTERS);

    // Slowest visits with their dominant child span.
    let mut visits: Vec<&SpanRecord> = trace
        .spans
        .iter()
        .filter(|s| s.name == Word::Visit)
        .collect();
    visits.sort_by_key(|s| (std::cmp::Reverse(s.sim_duration_ms().unwrap_or(0)), s.id));
    let slowest_visits = visits
        .into_iter()
        .take(top_n)
        .map(|v| {
            let dominant = children
                .get(&v.id)
                .map(Vec::as_slice)
                .unwrap_or(&[])
                .iter()
                .map(|&i| &trace.spans[i])
                .max_by_key(|c| (c.sim_duration_ms().unwrap_or(0), std::cmp::Reverse(c.id)));
            SlowVisit {
                domain: label_of(v).into_owned(),
                rank: u64_field(v, Word::Rank),
                duration_ms: v.sim_duration_ms().unwrap_or(0),
                dominant: dominant.map(|d| d.name.clone()).unwrap_or_default(),
                dominant_ms: dominant.and_then(|d| d.sim_duration_ms()).unwrap_or(0),
            }
        })
        .collect();

    Profile {
        phases,
        critical_path,
        workers,
        retry_clusters,
        slowest_visits,
    }
}

/// Allocation attributed to one top-level phase span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemPhase {
    /// Phase span name (`crawl`, `attestation-probe`, …).
    pub name: Text,
    /// Bytes allocated process-wide while the phase ran.
    pub total_bytes: u64,
    /// `total_bytes` minus what the phase's direct children attributed
    /// to themselves (coordination overhead, channels, result
    /// collection).
    pub self_bytes: u64,
    /// Allocation calls inside the phase.
    pub alloc_count: u64,
    /// Peak live-heap growth above the phase's starting level.
    pub peak_bytes: u64,
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

/// Allocation attributed to retries inside one simulated-minute window
/// — the memory face of a retry storm (buffers rebuilt per attempt).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemRetryCluster {
    /// Window start on the simulated clock (ms).
    pub window_start_ms: u64,
    /// Retry attempts inside the window.
    pub retries: usize,
    /// Bytes allocated by the visits/probes doing those retries
    /// (each retrying span counted once per window).
    pub alloc_bytes: u64,
    /// Up to three sample hosts seen retrying.
    pub hosts: Vec<String>,
}

/// The memory-attribution analyzer output ([`mem_profile`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemProfile {
    /// Per-phase allocation, in sealed span order.
    pub phases: Vec<MemPhase>,
    /// Top-K spans by self-allocated bytes (phases excluded).
    pub top_spans: Vec<MemSpan>,
    /// Retry windows ordered by attributed bytes, heaviest first.
    pub retry_clusters: Vec<MemRetryCluster>,
}

impl MemProfile {
    /// True when the trace carried no allocation attribution at all
    /// (campaign ran without `--alloc-stats`, or the trace was
    /// stripped).
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty() && self.top_spans.is_empty()
    }

    /// Plain-text report (the `topics-lab memprofile` body).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== Per-phase allocation ==\n");
        out.push_str(&format!(
            "{:<20} {:>14} {:>14} {:>12} {:>14}\n",
            "phase", "total", "self", "allocs", "peak"
        ));
        for p in &self.phases {
            out.push_str(&format!(
                "{:<20} {:>14} {:>14} {:>12} {:>14}\n",
                p.name,
                fmt_bytes(p.total_bytes),
                fmt_bytes(p.self_bytes),
                p.alloc_count,
                fmt_bytes(p.peak_bytes),
            ));
        }
        out.push('\n');
        out.push_str("== Top allocating spans ==\n");
        for (i, s) in self.top_spans.iter().enumerate() {
            out.push_str(&format!(
                "{:>3}. {:<12} {:<28} self {:>12}  total {:>12}  allocs {}\n",
                i + 1,
                s.name,
                s.label,
                fmt_bytes(s.self_bytes),
                fmt_bytes(s.total_bytes),
                s.alloc_count,
            ));
        }
        out.push('\n');
        out.push_str("== Retry-storm allocation ==\n");
        if self.retry_clusters.is_empty() {
            out.push_str("(no retries in trace)\n");
        }
        for c in &self.retry_clusters {
            out.push_str(&format!(
                "window @{:>8} ms: {:>4} retries, {:>12} allocated by retrying spans (e.g. {})\n",
                c.window_start_ms,
                c.retries,
                fmt_bytes(c.alloc_bytes),
                c.hosts.join(", "),
            ));
        }
        out
    }
}

/// Human-readable byte count (binary units, one decimal).
pub fn fmt_bytes(b: u64) -> String {
    const UNITS: &[&str] = &["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = b as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit < UNITS.len() - 1 {
        v /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{b} B")
    } else {
        format!("{v:.1} {}", UNITS[unit])
    }
}

/// Analyze allocation attribution in a sealed trace: per-phase
/// total/self bytes, the `top_k` spans by self-allocated bytes, and
/// retry-storm allocation clusters. Spans without `alloc_bytes` fields
/// (instrumentation off) contribute nothing; [`MemProfile::is_empty`]
/// reports whether any attribution was found.
pub fn mem_profile(trace: &Trace, top_k: usize) -> MemProfile {
    let mut children: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    let mut index_of: BTreeMap<u64, usize> = BTreeMap::new();
    for (i, s) in trace.spans.iter().enumerate() {
        index_of.insert(s.id, i);
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(i);
        }
    }
    let alloc_of = |s: &SpanRecord| u64_field(s, Word::AllocBytes);
    // Self bytes of any attributed span: its own delta minus what its
    // direct children attributed to themselves. Children's thread-local
    // deltas nest inside the parent's scope, so the subtraction cannot
    // go negative on a well-formed trace; saturate anyway.
    let self_bytes_of = |s: &SpanRecord| {
        let kid_sum: u64 = children
            .get(&s.id)
            .map(Vec::as_slice)
            .unwrap_or(&[])
            .iter()
            .map(|&ci| alloc_of(&trace.spans[ci]))
            .sum();
        alloc_of(s).saturating_sub(kid_sum)
    };

    // Per-phase rows: direct children of the campaign root that carry
    // allocation attribution.
    let mut phases = Vec::new();
    for &pi in children.get(&1).map(Vec::as_slice).unwrap_or(&[]) {
        let p = &trace.spans[pi];
        if p.op || p.field(Word::AllocBytes).is_none() {
            continue;
        }
        phases.push(MemPhase {
            name: p.name.clone(),
            total_bytes: alloc_of(p),
            self_bytes: self_bytes_of(p),
            alloc_count: u64_field(p, Word::AllocCount),
            peak_bytes: u64_field(p, Word::PeakBytes),
        });
    }

    // Top-K non-phase spans by self bytes; only the kept ones are
    // labelled.
    let mut ranked: Vec<(u64, &SpanRecord)> = trace
        .spans
        .iter()
        .filter(|s| s.parent != Some(1) && s.field(Word::AllocBytes).is_some())
        .map(|s| (self_bytes_of(s), s))
        .collect();
    ranked.sort_by_key(|&(self_bytes, s)| (std::cmp::Reverse(self_bytes), s.id));
    ranked.truncate(top_k);
    let top_spans = ranked
        .into_iter()
        .map(|(self_bytes, s)| MemSpan {
            id: s.id,
            name: s.name.clone(),
            label: label_of(s).into_owned(),
            self_bytes,
            total_bytes: alloc_of(s),
            alloc_count: u64_field(s, Word::AllocCount),
        })
        .collect();

    // Retry storms, memory edition: for each retry leaf, climb to the
    // nearest ancestor carrying allocation attribution (the visit or
    // probe that paid for the retries) and charge its bytes to the
    // retry's window — once per (window, span).
    let mut buckets: BTreeMap<u64, (usize, u64, Vec<u64>, Vec<String>)> = BTreeMap::new();
    for s in trace.spans.iter().filter(|s| s.name == Word::Retry) {
        let Some(start) = s.sim_start_ms else {
            continue;
        };
        let entry = buckets.entry(start / RETRY_WINDOW_MS).or_default();
        entry.0 += 1;
        let mut cursor = s.parent;
        while let Some(pid) = cursor {
            let Some(&pi) = index_of.get(&pid) else { break };
            let p = &trace.spans[pi];
            if p.field(Word::AllocBytes).is_some() {
                if !entry.2.contains(&p.id) {
                    entry.2.push(p.id);
                    entry.1 += alloc_of(p);
                }
                break;
            }
            cursor = p.parent;
        }
        sample_host(&mut entry.3, label_of(s));
    }
    let mut retry_clusters: Vec<MemRetryCluster> = buckets
        .into_iter()
        .map(
            |(window, (retries, alloc_bytes, _, hosts))| MemRetryCluster {
                window_start_ms: window * RETRY_WINDOW_MS,
                retries,
                alloc_bytes,
                hosts,
            },
        )
        .collect();
    retry_clusters.sort_by_key(|c| (std::cmp::Reverse(c.alloc_bytes), c.window_start_ms));
    retry_clusters.truncate(RETRY_CLUSTERS);

    MemProfile {
        phases,
        top_spans,
        retry_clusters,
    }
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

    #[test]
    fn clean_trace_passes_integrity() {
        let t = traced_campaign();
        let report = integrity(&t);
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
        let report = integrity(&t);
        assert!(!report.is_clean());
        assert!(report.orphans.contains(&t.spans[2].id));
        assert!(!report.duplicates.is_empty());
        assert!(!report.negative.is_empty());
        assert_eq!(report.violations().len(), 3);
        // A sealed trace always has its root span: an empty one does not.
        let empty = integrity(&Trace::default());
        assert!(empty.missing_root && !empty.is_clean());
        assert_eq!(
            empty.violations(),
            ["missing root span (no span 1 without a parent)"]
        );
    }

    #[test]
    fn critical_path_follows_latest_finisher() {
        let t = traced_campaign();
        let p = profile(&t, 10);
        assert_eq!(p.critical_path[0].name, "crawl");
        assert_eq!(p.critical_path[1].name, "visit");
        assert_eq!(p.critical_path[1].label, "site1.example");
        assert_eq!(p.critical_path[1].end_ms, 900);
    }

    #[test]
    fn phase_self_time_subtracts_child_cover() {
        let t = traced_campaign();
        let p = profile(&t, 10);
        let crawl = p.phases.iter().find(|s| s.name == "crawl").unwrap();
        assert!(crawl.simulated);
        assert_eq!(crawl.total_ms, 900);
        // Visits cover [0,900] completely.
        assert_eq!(crawl.self_ms, 0);
    }

    #[test]
    fn worker_idle_fraction_and_retry_clusters() {
        let t = traced_campaign();
        let p = profile(&t, 10);
        let idle = p.idle_fractions();
        assert_eq!(idle.len(), 1);
        assert_eq!(idle[0].0, "crawl");
        assert!((idle[0].1 - 0.25).abs() < 1e-9);
        assert_eq!(p.retry_clusters.len(), 1);
        assert_eq!(p.retry_clusters[0].retries, 1);
        assert_eq!(p.retry_clusters[0].hosts, vec!["site1.example".to_owned()]);
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
        let t = traced_campaign_with_alloc();
        let m = mem_profile(&t, 2);
        assert!(!m.is_empty());

        assert_eq!(m.phases.len(), 1);
        let crawl = &m.phases[0];
        assert_eq!(crawl.name, "crawl");
        assert_eq!(crawl.total_bytes, 100_000);
        // Self = 100000 − (4096 + 65536 + 16384).
        assert_eq!(crawl.self_bytes, 100_000 - 86_016);
        assert_eq!(crawl.peak_bytes, 50_000);

        // Visit 1 allocated the most net of its page-load child.
        assert_eq!(m.top_spans.len(), 2);
        assert_eq!(m.top_spans[0].name, "visit");
        assert_eq!(m.top_spans[0].label, "site1.example");
        assert_eq!(m.top_spans[0].total_bytes, 65_536);
        assert_eq!(m.top_spans[0].self_bytes, 65_536 - 65_536 / 4);

        // The retry window charges the retrying visit's bytes once.
        assert_eq!(m.retry_clusters.len(), 1);
        assert_eq!(m.retry_clusters[0].retries, 1);
        assert_eq!(m.retry_clusters[0].alloc_bytes, 65_536);
        assert_eq!(m.retry_clusters[0].hosts, vec!["site1.example".to_owned()]);

        let text = m.render();
        for needle in [
            "Per-phase allocation",
            "Top allocating spans",
            "Retry-storm allocation",
            "crawl",
        ] {
            assert!(text.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn mem_profile_is_empty_without_attribution() {
        let t = traced_campaign();
        let m = mem_profile(&t, 5);
        assert!(m.is_empty());
        assert!(m.render().contains("no retries in trace") || !m.render().is_empty());
    }

    #[test]
    fn fmt_bytes_uses_binary_units() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.0 KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.0 MiB");
    }

    #[test]
    fn slowest_visits_rank_by_sim_duration_with_dominant_child() {
        let t = traced_campaign();
        let p = profile(&t, 2);
        assert_eq!(p.slowest_visits.len(), 2);
        assert_eq!(p.slowest_visits[0].domain, "site1.example");
        assert_eq!(p.slowest_visits[0].duration_ms, 900);
        assert_eq!(p.slowest_visits[0].dominant, "fetch");
        assert_eq!(p.slowest_visits[0].dominant_ms, 450);
        assert_eq!(p.slowest_visits[1].domain, "site2.example");
    }
}
