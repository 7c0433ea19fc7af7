//! Hierarchical trace spans: causal, per-visit span trees for the
//! campaign pipeline.
//!
//! The metrics answer *how much happened*; traces answer *where the
//! time went*. A [`Tracer`] owns one span tree per
//! campaign: `campaign → phase → visit → {fetch, retry, consent-click,
//! topics-call, probe}`. Every span carries both clocks — the simulated
//! campaign clock (`sim_start_ms`/`sim_end_ms`, deterministic) and wall
//! time in microseconds since the tracer's epoch (operational).
//!
//! ## Lock discipline and determinism
//!
//! Crawl and probe workers never touch the shared tracer on the hot
//! path. Each unit of work (one visit, one probe) records into a
//! private [`TraceBuilder`] — a plain `Vec` with local parent indices —
//! and the coordinating thread *attaches* finished builders under a
//! phase span in a deterministic order (visits by rank, probes by slot
//! index). Span IDs are assigned once, at [`Tracer::finish`], from that
//! attach order, so traces from the same seed are byte-identical no
//! matter how many worker threads ran.
//!
//! Spans whose shape depends on scheduling (per-worker utilization
//! spans) are flagged *operational* ([`TraceBuilder::open_op`]); the
//! seal sorts them after every deterministic span and
//! [`Trace::stripped`] drops them together with the wall-clock fields,
//! yielding the seed-reproducible trace the determinism suite compares.

use crate::events::FieldValue;
use crate::vocab::{Text, Word};
use parking_lot::Mutex;
use serde::Serialize;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::time::Instant;

/// Sentinel index used by span handles on a disabled tracer.
const DISABLED: usize = usize::MAX;

/// Span field keys carrying allocation-accounting data (attached when
/// the counting allocator is enabled). Like wall clocks, allocation
/// counts depend on thread scheduling and allocator internals, so
/// [`Trace::stripped`] removes these fields to keep the deterministic
/// trace byte-identical whether or not instrumentation was on.
pub const ALLOC_FIELD_KEYS: [Word; 3] = [Word::AllocBytes, Word::AllocCount, Word::PeakBytes];

/// One span under construction (builder-local or tracer-global; the
/// meaning of `parent` differs — see the owning container).
#[derive(Debug)]
struct RawSpan {
    /// Index of the parent span in the owning container; `None` for a
    /// builder's root span (re-parented on attach) or a tracer-level
    /// phase span (re-parented under the synthetic campaign root).
    parent: Option<usize>,
    name: Text,
    /// Operational spans depend on thread scheduling and are excluded
    /// from the stripped trace.
    op: bool,
    sim_start_ms: Option<u64>,
    sim_end_ms: Option<u64>,
    wall_start_us: u64,
    wall_end_us: u64,
    fields: Vec<(Word, FieldValue)>,
}

impl RawSpan {
    fn new(parent: Option<usize>, name: Text, op: bool, sim_ms: Option<u64>, wall_us: u64) -> Self {
        RawSpan {
            parent,
            name,
            op,
            sim_start_ms: sim_ms,
            sim_end_ms: None,
            wall_start_us: wall_us,
            wall_end_us: 0,
            fields: Vec::new(),
        }
    }
}

/// A private, lock-free span subtree recorded by one unit of work (one
/// visit, one attestation probe, one worker thread). Obtained from
/// [`Tracer::visit_builder`] and handed back via [`TracerSpan::attach`].
#[derive(Debug)]
pub struct TraceBuilder {
    epoch: Instant,
    spans: Vec<RawSpan>,
    /// Stack of open span indices; new spans become children of the
    /// top of the stack.
    stack: Vec<usize>,
}

impl TraceBuilder {
    fn new(epoch: Instant) -> TraceBuilder {
        TraceBuilder {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn wall_us(&self) -> u64 {
        self.epoch.elapsed().as_micros().max(1) as u64
    }

    /// Open a span as a child of the innermost open span (or as the
    /// builder's root). Returns the index to pass to [`close`].
    ///
    /// [`close`]: TraceBuilder::close
    pub fn open(&mut self, name: Word, sim_ms: Option<u64>) -> usize {
        self.push(name, false, sim_ms)
    }

    /// Open an *operational* span — excluded from the deterministic
    /// stripped trace (used for scheduling-dependent data such as
    /// per-worker utilization).
    pub fn open_op(&mut self, name: Word, sim_ms: Option<u64>) -> usize {
        self.push(name, true, sim_ms)
    }

    fn push(&mut self, name: Word, op: bool, sim_ms: Option<u64>) -> usize {
        let idx = self.spans.len();
        let wall = self.wall_us();
        self.spans.push(RawSpan::new(
            self.stack.last().copied(),
            Text::Word(name),
            op,
            sim_ms,
            wall,
        ));
        self.stack.push(idx);
        idx
    }

    /// Record a closed point-in-time or already-finished span (e.g. a
    /// `topics-call` or a single `retry` attempt).
    pub fn leaf(
        &mut self,
        name: Word,
        sim_start_ms: Option<u64>,
        sim_end_ms: Option<u64>,
    ) -> usize {
        let idx = self.push(name, false, sim_start_ms);
        self.close(idx, sim_end_ms.or(sim_start_ms));
        idx
    }

    /// Attach a field to an open or closed span.
    pub fn field(&mut self, idx: usize, key: Word, value: impl Into<FieldValue>) {
        if let Some(span) = self.spans.get_mut(idx) {
            span.fields.push((key, value.into()));
        }
    }

    /// Close a span, recording the simulated end time (if any) and the
    /// wall-clock end. Also closes any nested spans left open.
    pub fn close(&mut self, idx: usize, sim_end_ms: Option<u64>) {
        let wall = self.wall_us();
        while let Some(top) = self.stack.pop() {
            let span = &mut self.spans[top];
            if span.wall_end_us == 0 {
                span.wall_end_us = wall;
            }
            if top == idx {
                span.sim_end_ms = sim_end_ms.or(span.sim_start_ms);
                return;
            }
            span.sim_end_ms = span.sim_end_ms.or(span.sim_start_ms);
        }
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Latest simulated end time across all spans (used by the campaign
    /// to stamp deterministic phase bounds).
    pub fn max_sim_end(&self) -> Option<u64> {
        self.spans
            .iter()
            .filter_map(|s| s.sim_end_ms.or(s.sim_start_ms))
            .max()
    }

    /// Close any spans still open (defensive; called before attach).
    fn seal_open(&mut self) {
        let wall = self.wall_us();
        while let Some(top) = self.stack.pop() {
            let span = &mut self.spans[top];
            if span.wall_end_us == 0 {
                span.wall_end_us = wall;
            }
            span.sim_end_ms = span.sim_end_ms.or(span.sim_start_ms);
        }
    }
}

/// The campaign-wide trace collector. Disabled by default (all methods
/// are no-ops and [`Tracer::visit_builder`] returns `None`, so the
/// traced code paths cost one branch); enable with [`Tracer::enabled`].
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    inner: Mutex<Vec<RawSpan>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::disabled()
    }
}

impl Tracer {
    /// A tracer that records nothing (the default inside [`crate::Obs`]).
    pub fn disabled() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            inner: Mutex::new(Vec::new()),
        }
    }

    /// A live tracer.
    pub fn enabled() -> Tracer {
        Tracer {
            on: true,
            epoch: Instant::now(),
            inner: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.on
    }

    /// A private builder for one unit of work, or `None` when tracing
    /// is off (lets hot paths skip all recording).
    pub fn visit_builder(&self) -> Option<TraceBuilder> {
        self.on.then(|| TraceBuilder::new(self.epoch))
    }

    /// Open a top-level phase span (a direct child of the synthetic
    /// `campaign` root). No-op handle when disabled. A name that is not
    /// a vocabulary word is kept as owned text; such a span reads and
    /// exports like any other, but `trace.col` refuses it on read.
    pub fn phase(&self, name: &str) -> TracerSpan<'_> {
        if !self.on {
            return TracerSpan {
                tracer: self,
                idx: DISABLED,
            };
        }
        let wall = self.epoch.elapsed().as_micros().max(1) as u64;
        let mut inner = self.inner.lock();
        let idx = inner.len();
        inner.push(RawSpan::new(None, Text::parse(name), false, None, wall));
        TracerSpan { tracer: self, idx }
    }

    /// Number of spans recorded so far (excluding the synthetic root).
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// True when no spans have been recorded.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    /// Seal the trace: assign stable 1-based span IDs (the synthetic
    /// `campaign` root is ID 1), re-parent phase spans under the root,
    /// order deterministic spans before operational ones, and compute
    /// the root's simulated bounds from its children.
    pub fn finish(&self) -> Trace {
        let mut raw: Vec<RawSpan> = std::mem::take(&mut *self.inner.lock());
        let finished_wall = self.epoch.elapsed().as_micros().max(1) as u64;
        for span in &mut raw {
            if span.wall_end_us == 0 {
                span.wall_end_us = finished_wall;
            }
            span.sim_end_ms = span.sim_end_ms.or(span.sim_start_ms);
        }
        // Children are always appended after their parents, so one
        // forward pass propagates the operational flag down subtrees.
        for i in 0..raw.len() {
            if let Some(p) = raw[i].parent {
                if raw[p].op {
                    raw[i].op = true;
                }
            }
        }
        // Stable partition: deterministic spans keep their attach order
        // and take IDs 2..; operational spans follow.
        let mut next = [2u64, 2 + raw.iter().filter(|s| !s.op).count() as u64];
        let new_id: Vec<u64> = raw
            .iter()
            .map(|s| {
                next[s.op as usize] += 1;
                next[s.op as usize] - 1
            })
            .collect();
        let sim_start = raw
            .iter()
            .filter(|s| !s.op)
            .filter_map(|s| s.sim_start_ms)
            .min();
        let sim_end = raw
            .iter()
            .filter(|s| !s.op)
            .filter_map(|s| s.sim_end_ms)
            .max();
        let mut spans = Vec::with_capacity(raw.len() + 1);
        spans.push(SpanRecord {
            id: 1,
            parent: None,
            name: Text::Word(Word::Campaign),
            op: false,
            sim_start_ms: sim_start,
            sim_end_ms: sim_end,
            wall_start_us: 1,
            wall_end_us: finished_wall,
            fields: Vec::new(),
        });
        let mut ops = Vec::new();
        for (s, &id) in raw.into_iter().zip(&new_id) {
            let record = SpanRecord {
                id,
                parent: Some(s.parent.map_or(1, |p| new_id[p])),
                name: s.name,
                op: s.op,
                sim_start_ms: s.sim_start_ms,
                sim_end_ms: s.sim_end_ms,
                wall_start_us: s.wall_start_us,
                wall_end_us: s.wall_end_us,
                fields: s.fields,
            };
            if record.op { &mut ops } else { &mut spans }.push(record);
        }
        spans.append(&mut ops);
        Trace { spans }
    }
}

/// Handle to a tracer-level phase span. Close it explicitly with
/// [`TracerSpan::end`] to stamp deterministic simulated bounds, or let
/// it drop (wall-clock close only).
#[derive(Debug)]
pub struct TracerSpan<'a> {
    tracer: &'a Tracer,
    idx: usize,
}

impl TracerSpan<'_> {
    /// Attach a field to the phase span.
    pub fn field(&self, key: Word, value: impl Into<FieldValue>) {
        if self.idx == DISABLED {
            return;
        }
        let mut inner = self.tracer.inner.lock();
        if let Some(span) = inner.get_mut(self.idx) {
            span.fields.push((key, value.into()));
        }
    }

    /// Stamp the span's simulated start time.
    pub fn sim_start(&self, sim_ms: u64) {
        if self.idx == DISABLED {
            return;
        }
        let mut inner = self.tracer.inner.lock();
        if let Some(span) = inner.get_mut(self.idx) {
            span.sim_start_ms = Some(sim_ms);
        }
    }

    /// Attach a finished builder's subtree under this span. Call in a
    /// deterministic order (rank order for visits, slot order for
    /// probes) — span IDs are assigned from attach order at seal time.
    pub fn attach(&self, mut builder: TraceBuilder) {
        if self.idx == DISABLED {
            return;
        }
        builder.seal_open();
        let mut inner = self.tracer.inner.lock();
        let offset = inner.len();
        for mut span in builder.spans {
            span.parent = Some(span.parent.map(|p| p + offset).unwrap_or(self.idx));
            inner.push(span);
        }
    }

    /// Close the span, stamping the simulated end (and start, if given).
    pub fn end(self, sim_bounds: Option<(u64, u64)>) {
        if self.idx == DISABLED {
            return;
        }
        let wall = self.tracer.epoch.elapsed().as_micros().max(1) as u64;
        let mut inner = self.tracer.inner.lock();
        if let Some(span) = inner.get_mut(self.idx) {
            if let Some((start, end)) = sim_bounds {
                span.sim_start_ms = Some(start);
                span.sim_end_ms = Some(end);
            }
            span.wall_end_us = wall;
        }
    }
}

impl Drop for TracerSpan<'_> {
    fn drop(&mut self) {
        if self.idx == DISABLED {
            return;
        }
        let wall = self.tracer.epoch.elapsed().as_micros().max(1) as u64;
        let mut inner = self.tracer.inner.lock();
        if let Some(span) = inner.get_mut(self.idx) {
            if span.wall_end_us == 0 {
                span.wall_end_us = wall;
            }
        }
    }
}

fn u64_is_zero(v: &u64) -> bool {
    *v == 0
}
fn bool_is_false(v: &bool) -> bool {
    !*v
}

/// One sealed span: stable ID, parent link, both clocks, fields.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct SpanRecord {
    /// Stable 1-based span ID (1 is always the `campaign` root).
    pub id: u64,
    /// Parent span ID; `None` only for the root.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub parent: Option<u64>,
    /// Span name (`crawl`, `visit`, `fetch`, `retry`, `topics-call`, …):
    /// a vocabulary word, or owned text for a phase named outside it.
    pub name: Text,
    /// Operational (scheduling-dependent) spans are dropped from the
    /// stripped trace.
    #[serde(skip_serializing_if = "bool_is_false")]
    pub op: bool,
    /// Simulated-clock start, ms since campaign epoch.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub sim_start_ms: Option<u64>,
    /// Simulated-clock end.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub sim_end_ms: Option<u64>,
    /// Wall-clock start, µs since the tracer epoch (0 when stripped).
    #[serde(skip_serializing_if = "u64_is_zero")]
    pub wall_start_us: u64,
    /// Wall-clock end, µs since the tracer epoch (0 when stripped).
    #[serde(skip_serializing_if = "u64_is_zero")]
    pub wall_end_us: u64,
    /// Ordered key/value payload (domain, CP, retry attempt, …).
    #[serde(skip_serializing_if = "Vec::is_empty")]
    pub fields: Vec<(Word, FieldValue)>,
}

impl SpanRecord {
    /// Value of a field, if present.
    pub fn field(&self, key: Word) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Simulated duration in ms, when both bounds are present and
    /// ordered.
    pub fn sim_duration_ms(&self) -> Option<u64> {
        match (self.sim_start_ms, self.sim_end_ms) {
            (Some(s), Some(e)) if e >= s => Some(e - s),
            _ => None,
        }
    }

    /// Wall-clock duration in µs (0 when stripped or inverted).
    pub fn wall_duration_us(&self) -> u64 {
        self.wall_end_us.saturating_sub(self.wall_start_us)
    }
}

/// A sealed, immutable span tree.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    /// Spans in sealed order: root first, then deterministic spans in
    /// attach order, then operational spans.
    pub spans: Vec<SpanRecord>,
}

impl Trace {
    /// Number of spans with the given name.
    pub fn count_named(&self, name: Word) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// The deterministic trace: operational spans dropped, wall-clock
    /// fields zeroed, allocation-accounting fields
    /// ([`ALLOC_FIELD_KEYS`]) removed, all in place. Two same-seed runs
    /// produce byte-identical [`Trace::to_jsonl`] output of the result
    /// regardless of thread counts or whether the counting allocator
    /// was enabled.
    #[must_use]
    pub fn stripped(mut self) -> Trace {
        self.spans.retain(|s| !s.op);
        for s in &mut self.spans {
            s.wall_start_us = 0;
            s.wall_end_us = 0;
            s.fields.retain(|(k, _)| !ALLOC_FIELD_KEYS.contains(k));
        }
        self
    }

    /// JSONL export: one span object per line, in sealed order. It is
    /// write-only: `trace.col` is the trace file the tools read.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            out.push_str(&serde_json::to_string(span).expect("span serialises"));
            out.push('\n');
        }
        out
    }

    /// Chrome trace-event JSON (the `{"traceEvents": […]}` format),
    /// loadable in Perfetto / `chrome://tracing`. Spans with simulated
    /// bounds are laid out on the simulated clock (µs = sim ms × 1000);
    /// purely operational spans use wall time. Concurrent sibling
    /// subtrees are fanned out over synthetic track IDs so overlapping
    /// visits render side by side.
    pub fn to_chrome_json(&self) -> String {
        // Greedy lane assignment: direct children of phase spans that
        // overlap in simulated time go to separate tracks; descendants
        // inherit their ancestor's track.
        let mut tid = vec![0u64; self.spans.len()];
        let index_of: std::collections::BTreeMap<u64, usize> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| (s.id, i))
            .collect();
        let phase_ids: std::collections::BTreeSet<u64> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(1))
            .map(|s| s.id)
            .collect();
        let mut lanes: std::collections::BTreeMap<u64, Vec<u64>> = Default::default();
        for (i, s) in self.spans.iter().enumerate() {
            let Some(parent) = s.parent else { continue };
            if phase_ids.contains(&parent) {
                let start = s.sim_start_ms.unwrap_or(0);
                let end = s.sim_end_ms.unwrap_or(start).max(start);
                let ends = lanes.entry(parent).or_default();
                let lane = match ends.iter().position(|&e| e <= start) {
                    Some(l) => {
                        ends[l] = end.max(start + 1);
                        l
                    }
                    None => {
                        ends.push(end.max(start + 1));
                        ends.len() - 1
                    }
                };
                tid[i] = lane as u64 + 1;
            } else if let Some(&pi) = index_of.get(&parent) {
                tid[i] = tid[pi];
            }
        }
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let (ts, dur) = match (s.sim_start_ms, s.sim_end_ms) {
                (Some(start), end) => {
                    let e = end.unwrap_or(start).max(start);
                    (start * 1000, ((e - start) * 1000).max(1))
                }
                _ => (s.wall_start_us, s.wall_duration_us().max(1)),
            };
            let track = if s.op { 900 + tid[i] } else { tid[i] };
            out.push_str(&format!(
                "{{\"name\":{},\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\"pid\":1,\"tid\":{track},\"args\":{{\"id\":{},\"parent\":{}",
                json_escape(s.name.as_str()),
                s.id,
                s.parent.unwrap_or(0),
            ));
            for (k, v) in &s.fields {
                out.push(',');
                out.push_str(&json_escape(k.as_str()));
                out.push(':');
                match v {
                    FieldValue::Str(t) => out.push_str(&json_escape(t.as_str())),
                    other => out.push_str(&other.to_string()),
                }
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }
}

/// How one phase's child subtrees combine across shard traces in
/// [`merge_stripped`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeRule {
    /// Concatenate subtrees in input order — for work already striped
    /// disjointly across shards (visits by rank). Numeric phase fields
    /// sum.
    Concat,
    /// Subtrees may be duplicated across inputs (probes: several
    /// shards encounter the same domain): dedup by the string field
    /// `key` on each subtree's root, verify duplicates are structurally
    /// identical, sort by the key — byte order, matching the sealed
    /// slot order of the unsharded run — and set the phase field
    /// `count_field` to the deduplicated count. Other numeric phase
    /// fields sum.
    DedupByField {
        /// Root-span string field identifying a subtree.
        key: Word,
        /// Phase field overwritten with the deduplicated subtree count.
        count_field: Word,
    },
}

/// One trace's structure, decomposed by position for merging: per
/// phase (a direct child of the root), the phase span's position and
/// its child subtrees as position lists, subtree root first and the
/// rest in trace order.
type Phases = Vec<(usize, Vec<Vec<usize>>)>;

/// Check that `trace` is a sealed, stripped span tree — root first,
/// each span's ID its position + 1, each parent an earlier span, no
/// operational span — and decompose it.
fn decompose(trace: &Trace, which: usize) -> Result<Phases, String> {
    match trace.spans.first() {
        Some(root) if root.id == 1 && root.parent.is_none() => {}
        _ => return Err(format!("trace {which}: missing root span")),
    }
    if trace.spans.iter().any(|s| s.op) {
        return Err(format!(
            "trace {which}: operational spans present — merge inputs must be stripped"
        ));
    }
    let mut phases: Phases = Vec::new();
    // Per position: the phase and, below a phase, the subtree the span
    // belongs to.
    let mut home: Vec<(usize, Option<usize>)> = vec![(0, None); trace.spans.len()];
    for (i, s) in trace.spans.iter().enumerate().skip(1) {
        if s.id != i as u64 + 1 {
            return Err(format!(
                "trace {which}: span {} at position {} — IDs must be dense and in order",
                s.id,
                i + 1
            ));
        }
        let parent = s
            .parent
            .ok_or_else(|| format!("trace {which}: span {} has no parent", s.id))?;
        if parent == 0 || parent >= s.id {
            return Err(format!(
                "trace {which}: span {} has parent {parent}, not an earlier span",
                s.id
            ));
        }
        home[i] = if parent == 1 {
            phases.push((i, Vec::new()));
            (phases.len() - 1, None)
        } else {
            let (phase, slot) = home[parent as usize - 1];
            let subtrees = &mut phases[phase].1;
            // A direct child of a phase starts a new subtree.
            let slot = slot.unwrap_or_else(|| {
                subtrees.push(Vec::new());
                subtrees.len() - 1
            });
            subtrees[slot].push(i);
            (phase, Some(slot))
        };
    }
    Ok(phases)
}

/// Whether two subtrees record the same work: span by span equal in
/// everything but IDs, with each parent at the same position within its
/// subtree (the roots' parents, phases, lie outside both).
fn same_subtree(a: &[SpanRecord], sub_a: &[usize], b: &[SpanRecord], sub_b: &[usize]) -> bool {
    fn shape(s: &SpanRecord) -> impl PartialEq + '_ {
        let clocks = (s.sim_start_ms, s.sim_end_ms, s.wall_start_us, s.wall_end_us);
        (&s.name, s.op, clocks, &s.fields)
    }
    let local = |spans: &[SpanRecord], sub: &[usize], i: usize| {
        let parent = spans[i].parent.map_or(0, |p| p as usize - 1);
        sub.binary_search(&parent).ok()
    };
    sub_a.len() == sub_b.len()
        && sub_a.iter().zip(sub_b).all(|(&i, &j)| {
            shape(&a[i]) == shape(&b[j]) && local(a, sub_a, i) == local(b, sub_b, j)
        })
}

/// What [`emit_subtree`] leaves in a moved span's place: a value that
/// owns nothing, so neither the move nor the drop touches the heap.
const MOVED: SpanRecord = SpanRecord {
    id: 0,
    parent: None,
    name: Text::Word(Word::Campaign),
    op: false,
    sim_start_ms: None,
    sim_end_ms: None,
    wall_start_us: 0,
    wall_end_us: 0,
    fields: Vec::new(),
};

/// Move one subtree's spans to the end of `out`, renumbered with the
/// next dense IDs (a merged span's ID is its position + 1). `new_id`
/// maps the source trace's positions to merged IDs; its entry for the
/// subtree's phase must already be set.
fn emit_subtree(
    out: &mut Vec<SpanRecord>,
    spans: &mut [SpanRecord],
    new_id: &mut [u64],
    subtree: &[usize],
) {
    for &i in subtree {
        let mut s = std::mem::replace(&mut spans[i], MOVED);
        s.id = out.len() as u64 + 1;
        s.parent = s.parent.map(|p| new_id[p as usize - 1]);
        s.wall_start_us = 0;
        s.wall_end_us = 0;
        new_id[i] = s.id;
        out.push(s);
    }
}

/// Merge the numeric fields of per-trace phase spans: the key sequence
/// must match the first trace's; `U64` values sum, everything else must
/// be equal.
fn merge_fields(phase: &Text, spans: &[&SpanRecord]) -> Result<Vec<(Word, FieldValue)>, String> {
    let mut merged: Vec<(Word, FieldValue)> = spans[0].fields.clone();
    for s in &spans[1..] {
        if s.fields.len() != merged.len() {
            return Err(format!("phase {phase}: field sets differ across traces"));
        }
        for ((k, acc), (k2, v)) in merged.iter_mut().zip(&s.fields) {
            if k != k2 {
                return Err(format!("phase {phase}: field order differs across traces"));
            }
            match (acc, v) {
                (FieldValue::U64(a), FieldValue::U64(b)) => *a += b,
                (a, b) if *a == *b => {}
                _ => {
                    return Err(format!(
                        "phase {phase}: non-summable field {k} differs across traces"
                    ))
                }
            }
        }
    }
    Ok(merged)
}

/// Deterministically merge stripped per-shard traces into the span tree
/// the unsharded run seals: one `campaign` root, the shared phase
/// sequence, and per phase the combined child subtrees — concatenated
/// or deduplicated per the matching [`MergeRule`] — renumbered with
/// dense sealed-order IDs. Phase simulated bounds take the min start
/// and max end across inputs; the root takes the min/max across input
/// roots.
///
/// Inputs must be [`Trace::stripped`] traces sharing the same root name
/// and phase-name sequence, and every phase name must have a rule.
/// Owned inputs are taken apart and their spans moved into the result;
/// borrowed ones are cloned once first.
pub fn merge_stripped<'a>(
    traces: impl Into<Cow<'a, [Trace]>>,
    rules: &[(Word, MergeRule)],
) -> Result<Trace, String> {
    let mut traces = traces.into().into_owned();
    if traces.is_empty() {
        return Err("no traces to merge".to_owned());
    }
    let parts: Vec<Phases> = traces
        .iter()
        .enumerate()
        .map(|(i, t)| decompose(t, i))
        .collect::<Result<_, _>>()?;
    let (first, root) = (&traces[0].spans, &traces[0].spans[0]);
    for (i, (p, t)) in parts.iter().zip(&traces).enumerate().skip(1) {
        if t.spans[0].name != root.name {
            return Err(format!("trace {i}: root name differs"));
        }
        if t.spans[0].fields != root.fields {
            return Err(format!("trace {i}: root fields differ"));
        }
        let same_phase =
            |(&(a, _), &(b, _)): (&(usize, _), &(usize, _))| t.spans[a].name == first[b].name;
        if p.len() != parts[0].len() || !p.iter().zip(&parts[0]).all(same_phase) {
            return Err(format!("trace {i}: phase sequence differs"));
        }
    }

    let mut out: Vec<SpanRecord> = Vec::with_capacity(traces.iter().map(|t| t.spans.len()).sum());
    out.push(SpanRecord {
        id: 1,
        name: root.name.clone(),
        sim_start_ms: traces.iter().filter_map(|t| t.spans[0].sim_start_ms).min(),
        sim_end_ms: traces.iter().filter_map(|t| t.spans[0].sim_end_ms).max(),
        fields: root.fields.clone(),
        ..SpanRecord::default()
    });
    let mut new_ids: Vec<Vec<u64>> = traces.iter().map(|t| vec![0; t.spans.len()]).collect();
    for pos in 0..parts[0].len() {
        let phase_spans: Vec<&SpanRecord> = parts
            .iter()
            .zip(&traces)
            .map(|(p, t)| &t.spans[p[pos].0])
            .collect();
        let name = &phase_spans[0].name;
        let rule = rules
            .iter()
            .find(|(rule_name, _)| name == rule_name)
            .map(|&(_, r)| r)
            .ok_or_else(|| format!("no merge rule for phase {name}"))?;
        let mut fields = merge_fields(name, &phase_spans)?;
        // (trace, subtree) pairs in merged order.
        let order: Vec<(usize, usize)> = match rule {
            MergeRule::Concat => parts
                .iter()
                .enumerate()
                .flat_map(|(t, p)| (0..p[pos].1.len()).map(move |sub| (t, sub)))
                .collect(),
            MergeRule::DedupByField { key, count_field } => {
                // key → its first occurrence; later ones must match it.
                let mut unique: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
                for (t, p) in parts.iter().enumerate() {
                    let spans = &traces[t].spans;
                    for (sub, subtree) in p[pos].1.iter().enumerate() {
                        let Some(FieldValue::Str(k)) = spans[subtree[0]].field(key) else {
                            return Err(format!(
                                "phase {name}: subtree root {} lacks string field {key}",
                                spans[subtree[0]].name
                            ));
                        };
                        let k = k.as_str();
                        match unique.get(k) {
                            Some(&(u, u_sub))
                                if !same_subtree(
                                    &traces[u].spans,
                                    &parts[u][pos].1[u_sub],
                                    spans,
                                    subtree,
                                ) =>
                            {
                                return Err(format!(
                                    "phase {name}: divergent duplicate subtrees for {key}={k}"
                                ));
                            }
                            Some(_) => {}
                            None => {
                                unique.insert(k, (t, sub));
                            }
                        }
                    }
                }
                match fields.iter_mut().find(|(k, _)| *k == count_field) {
                    Some((_, v)) => *v = FieldValue::U64(unique.len() as u64),
                    None => return Err(format!("phase {name}: missing count field {count_field}")),
                }
                unique.into_values().collect()
            }
        };
        let phase = SpanRecord {
            id: out.len() as u64 + 1,
            parent: Some(1),
            name: name.clone(),
            sim_start_ms: phase_spans.iter().filter_map(|s| s.sim_start_ms).min(),
            sim_end_ms: phase_spans.iter().filter_map(|s| s.sim_end_ms).max(),
            fields,
            ..SpanRecord::default()
        };
        for (p, ids) in parts.iter().zip(&mut new_ids) {
            ids[p[pos].0] = phase.id;
        }
        out.push(phase);
        for (t, sub) in order {
            emit_subtree(
                &mut out,
                &mut traces[t].spans,
                &mut new_ids[t],
                &parts[t][pos].1[sub],
            );
        }
    }
    Ok(Trace { spans: out })
}

/// Minimal JSON string escaping for the Chrome exporter.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let tracer = Tracer::enabled();
        let phase = tracer.phase("crawl");
        let mut b = tracer.visit_builder().unwrap();
        let visit = b.open(Word::Visit, Some(100));
        b.field(visit, Word::Domain, "site0.example");
        let fetch = b.open(Word::Fetch, Some(100));
        b.field(fetch, Word::Host, "site0.example");
        b.close(fetch, Some(140));
        b.leaf(Word::TopicsCall, Some(150), None);
        b.close(visit, Some(200));
        phase.attach(b);
        let mut w = tracer.visit_builder().unwrap();
        let ws = w.open_op(Word::Worker, None);
        w.field(ws, Word::Worker, 0usize);
        w.close(ws, None);
        phase.attach(w);
        phase.end(Some((100, 200)));
        tracer.finish()
    }

    #[test]
    fn seal_assigns_stable_ids_and_parent_links() {
        let t = sample_trace();
        assert_eq!(t.spans[0].name, "campaign");
        assert_eq!(t.spans[0].id, 1);
        assert_eq!(t.spans[0].sim_start_ms, Some(100));
        assert_eq!(t.spans[0].sim_end_ms, Some(200));
        let phase = t.spans.iter().find(|s| s.name == "crawl").unwrap();
        assert_eq!(phase.parent, Some(1));
        let visit = t.spans.iter().find(|s| s.name == "visit").unwrap();
        assert_eq!(visit.parent, Some(phase.id));
        let fetch = t.spans.iter().find(|s| s.name == "fetch").unwrap();
        assert_eq!(fetch.parent, Some(visit.id));
        assert_eq!(fetch.sim_duration_ms(), Some(40));
        // IDs are dense and unique.
        let mut ids: Vec<u64> = t.spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), t.spans.len());
        assert_eq!(*ids.last().unwrap(), t.spans.len() as u64);
    }

    #[test]
    fn operational_spans_sort_last_and_strip_out() {
        let t = sample_trace();
        let worker = t.spans.iter().find(|s| s.name == "worker").unwrap();
        assert!(worker.op);
        assert_eq!(
            worker.id,
            t.spans.len() as u64,
            "op spans take the last IDs"
        );
        let stripped = t.stripped();
        assert!(stripped.spans.iter().all(|s| !s.op));
        assert!(stripped
            .spans
            .iter()
            .all(|s| s.wall_start_us == 0 && s.wall_end_us == 0));
        assert_eq!(stripped.count_named(Word::Visit), 1);
        assert_eq!(stripped.count_named(Word::Worker), 0);
    }

    #[test]
    fn stripped_drops_alloc_fields_but_keeps_payload_fields() {
        let tracer = Tracer::enabled();
        let phase = tracer.phase("crawl");
        let mut b = tracer.visit_builder().unwrap();
        let visit = b.open(Word::Visit, Some(10));
        b.field(visit, Word::Domain, "site0.example");
        b.field(visit, Word::AllocBytes, 4096u64);
        b.field(visit, Word::AllocCount, 12u64);
        b.field(visit, Word::PeakBytes, 2048u64);
        b.close(visit, Some(20));
        phase.attach(b);
        phase.field(Word::AllocCount, 999u64);
        phase.end(Some((10, 20)));
        let t = tracer.finish();
        let stripped = t.clone().stripped();
        let visit = stripped.spans.iter().find(|s| s.name == "visit").unwrap();
        assert_eq!(
            visit.fields,
            vec![(Word::Domain, FieldValue::from("site0.example"))]
        );
        let phase = stripped.spans.iter().find(|s| s.name == "crawl").unwrap();
        assert!(phase.fields.is_empty());
        // The unstripped trace keeps the attribution.
        let full = t.spans.iter().find(|s| s.name == "visit").unwrap();
        assert_eq!(full.field(Word::AllocBytes), Some(&FieldValue::U64(4096)));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        assert!(tracer.visit_builder().is_none());
        let phase = tracer.phase("crawl");
        phase.field(Word::Sites, 10usize);
        phase.end(Some((0, 1)));
        assert!(tracer.is_empty());
        let t = tracer.finish();
        assert_eq!(t.spans.len(), 1, "just the synthetic root");
    }

    #[test]
    fn builder_close_also_closes_nested_spans() {
        let tracer = Tracer::enabled();
        let phase = tracer.phase("crawl");
        let mut b = tracer.visit_builder().unwrap();
        let outer = b.open(Word::Visit, Some(10));
        b.open(Word::Fetch, Some(10)); // left open on purpose
        b.close(outer, Some(50));
        phase.attach(b);
        drop(phase);
        let t = tracer.finish();
        let fetch = t.spans.iter().find(|s| s.name == "fetch").unwrap();
        assert_eq!(fetch.sim_end_ms, Some(10), "auto-closed at its start");
    }

    #[test]
    fn chrome_export_has_trace_events_with_sim_timestamps() {
        let t = sample_trace();
        let json = t.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":100000"), "sim ms → µs");
        assert!(json.contains("\"domain\":\"site0.example\""));
    }

    #[test]
    fn json_escape_handles_control_characters() {
        assert_eq!(json_escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_escape("\u{1}"), "\"\\u0001\"");
    }

    /// Attach one deterministic visit subtree for `rank`.
    fn add_visit(tracer: &Tracer, phase: &TracerSpan<'_>, rank: u64) {
        let mut b = tracer.visit_builder().unwrap();
        let v = b.open(Word::Visit, Some(rank * 10));
        b.field(v, Word::Domain, format!("site{rank}.example"));
        b.leaf(Word::Fetch, Some(rank * 10), Some(rank * 10 + 5));
        b.close(v, Some(rank * 10 + 9));
        phase.attach(b);
    }

    /// Attach one deterministic probe subtree for `domain` at `at` ms.
    fn add_probe(tracer: &Tracer, phase: &TracerSpan<'_>, domain: &str, at: u64) {
        let mut b = tracer.visit_builder().unwrap();
        let p = b.open(Word::Probe, Some(at));
        b.field(p, Word::Domain, domain);
        b.leaf(Word::Fetch, Some(at), Some(at + 5));
        b.close(p, Some(at + 5));
        phase.attach(b);
    }

    /// A sealed + stripped two-phase trace: visits for `ranks`, probes
    /// for `(domain, at)` pairs, mimicking the campaign shape.
    fn campaign_trace(ranks: &[u64], probes: &[(&str, u64)]) -> Trace {
        let tracer = Tracer::enabled();
        {
            let phase = tracer.phase("crawl");
            for &r in ranks {
                add_visit(&tracer, &phase, r);
            }
            phase.field(Word::Sites, ranks.len());
            let lo = ranks.iter().map(|r| r * 10).min().unwrap_or(0);
            let hi = ranks.iter().map(|r| r * 10 + 9).max().unwrap_or(0);
            phase.end(Some((lo, hi)));
        }
        {
            let phase = tracer.phase("attestation-probe");
            for &(d, at) in probes {
                add_probe(&tracer, &phase, d, at);
            }
            phase.field(Word::Probes, probes.len());
            phase.field(Word::CacheHits, 0u64);
            let lo = probes.iter().map(|&(_, at)| at).min().unwrap_or(0);
            let hi = probes.iter().map(|&(_, at)| at + 5).max().unwrap_or(0);
            phase.end(Some((lo, hi)));
        }
        tracer.finish().stripped()
    }

    const RULES: &[(Word, MergeRule)] = &[
        (Word::Crawl, MergeRule::Concat),
        (
            Word::AttestationProbe,
            MergeRule::DedupByField {
                key: Word::Domain,
                count_field: Word::Probes,
            },
        ),
    ];

    #[test]
    fn merge_stripped_reassembles_the_unsharded_trace() {
        // Probes sorted by domain in each input, duplicates identical —
        // exactly what per-shard campaign runs produce.
        let shard0 = campaign_trace(&[0, 1], &[("a.example", 100), ("b.example", 105)]);
        let shard1 = campaign_trace(&[2, 3], &[("b.example", 105), ("c.example", 110)]);
        let single = campaign_trace(
            &[0, 1, 2, 3],
            &[("a.example", 100), ("b.example", 105), ("c.example", 110)],
        );
        let merged = merge_stripped(&[shard0, shard1], RULES).unwrap();
        assert_eq!(merged, single);
        // A one-shard "merge" is the identity.
        let alone = merge_stripped(std::slice::from_ref(&single), RULES).unwrap();
        assert_eq!(alone, single);
    }

    #[test]
    fn merge_stripped_handles_empty_stripes() {
        let shard0 = campaign_trace(&[0, 1], &[("a.example", 100)]);
        let shard1 = campaign_trace(&[], &[("a.example", 100)]);
        let merged = merge_stripped(&[shard0.clone(), shard1], RULES).unwrap();
        assert_eq!(merged, shard0);
    }

    #[test]
    fn merge_stripped_rejects_bad_inputs() {
        let t = campaign_trace(&[0], &[("a.example", 100)]);
        let err = merge_stripped(
            std::slice::from_ref(&t),
            &[(Word::Crawl, MergeRule::Concat)],
        )
        .unwrap_err();
        assert!(err.contains("no merge rule"), "{err}");

        // Same domain, different payload: the duplicate check trips.
        let conflicting = campaign_trace(&[1], &[("a.example", 101)]);
        let err = merge_stripped(&[t.clone(), conflicting], RULES).unwrap_err();
        assert!(err.contains("divergent duplicate"), "{err}");

        // Unstripped input (op spans survive) is refused.
        let raw = {
            let tracer = Tracer::enabled();
            let phase = tracer.phase("crawl");
            let mut b = tracer.visit_builder().unwrap();
            let w = b.open_op(Word::Worker, None);
            b.close(w, None);
            phase.attach(b);
            phase.end(Some((0, 1)));
            tracer.finish()
        };
        let err = merge_stripped(&[raw], RULES).unwrap_err();
        assert!(err.contains("must be stripped"), "{err}");

        assert!(merge_stripped(&[], RULES).is_err());
    }
}
