//! Run-health doctor: reconcile a saved campaign with its trace.
//!
//! The doctor cross-checks three records of the same run: the dataset
//! (`campaign.col`), the metric tally recomputed from it, and the span
//! trace, read once into a [`Profile`]. It renders one report; any
//! structural trace violation or failed check makes it unhealthy (the
//! CLI exits non-zero on those). Without a campaign it reports on the
//! trace alone.

use crate::export::CAMPAIGN_COLUMNAR_FILE;
use std::fmt::Write;
use std::path::Path;
use topics_crawler::columnar::{ColumnarCampaign, SectionInfo};
use topics_crawler::record::{CampaignOutcome, OutcomeCounts};
use topics_crawler::shard::tally_snapshot;
use topics_obs::profile::{profile, PhaseStat, Profile, SpanCounts};
use topics_obs::Trace;

/// One trace-vs-metric reconciliation line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reconciliation {
    /// What is being compared (e.g. `visit spans vs sites_attempted_total`).
    pub check: String,
    /// Count seen in the trace.
    pub traced: u64,
    /// Count from the metric tally.
    pub tallied: u64,
    /// True when the counts agree under the check's rule.
    pub ok: bool,
}

/// Slack allowed on the allocation balance: child scopes are sampled
/// with relaxed atomics while the window is racing, so a small
/// overshoot is measurement noise, not an accounting bug.
const ALLOC_BALANCE_TOLERANCE: f64 = 0.02;
const ALLOC_BALANCE_SLACK_BYTES: u64 = 64 * 1024;

/// The doctor's report: the trace's one-pass [`Profile`] (integrity
/// included) and, when a campaign was given, the checks against it.
#[derive(Debug, Clone)]
pub struct DoctorReport {
    /// Everything read off the trace.
    pub profile: Profile,
    /// The campaign checks; `None` for a trace alone (`doctor --trace`).
    pub campaign: Option<CampaignChecks>,
}

/// The part of a doctor report that needs the campaign.
#[derive(Debug, Clone, Default)]
pub struct CampaignChecks {
    /// Sites attempted (length of the outcome's site list).
    pub attempted: usize,
    /// Per-outcome site partition.
    pub outcomes: OutcomeCounts,
    /// Trace-vs-metric count checks.
    pub reconciliation: Vec<Reconciliation>,
    /// Shard-segment files verified (0 when the campaign has none).
    pub segments_checked: usize,
    /// Segment-integrity and shard-coverage violations ([`verify_segments`]).
    pub segment_violations: Vec<String>,
    /// The `campaign.col` check, when the bundle has one ([`verify_columnar`]).
    pub columnar: Option<ColumnarCheck>,
}

/// Integrity result of one `campaign.col` file.
#[derive(Debug, Clone)]
pub struct ColumnarCheck {
    /// Store size in bytes.
    pub bytes: u64,
    /// Per-section directory entries (empty when the header itself is
    /// unreadable).
    pub sections: Vec<SectionInfo>,
    /// Checksum and referential-integrity violations.
    pub violations: Vec<String>,
}

/// Verify the `campaign.col` in `dir`, if one exists: header and
/// per-section FNV-1a checksums and intern referential integrity
/// (every id in range, no orphan strings, visit/call range tiling —
/// [`ColumnarCampaign::verify`]). Returns `None` when the directory has
/// no columnar store.
pub fn verify_columnar(dir: &Path) -> Option<ColumnarCheck> {
    let bytes = std::fs::read(dir.join(CAMPAIGN_COLUMNAR_FILE)).ok()?;
    let len = bytes.len() as u64;
    let (sections, verdict) = match ColumnarCampaign::decode(bytes) {
        Ok(store) => (store.section_map(), store.verify()),
        Err(e) => (Vec::new(), Err(e)),
    };
    let violations = verdict.err().map(|e| format!("campaign.col: {e}"));
    let violations = violations.into_iter().collect();
    Some(ColumnarCheck {
        bytes: len,
        sections,
        violations,
    })
}

/// Segment-integrity and shard-coverage checks over every `*.seg` file
/// in `dir`: each segment must decode (checksums, version, header plan,
/// required sections), the set must merge (exact shard coverage of the
/// plan's rank space, matching tokens and headers), and the store the
/// merge streams out must equal the `campaign.col` in `dir` byte for
/// byte. Returns `(files checked, violations)`.
pub fn verify_segments(dir: &Path) -> (usize, Vec<String>) {
    let count = match crate::shard::segment_paths(dir) {
        Ok(p) => p.len(),
        Err(e) => return (0, vec![e]),
    };
    if count == 0 {
        return (0, Vec::new());
    }
    let merged = match crate::shard::merge_dir_columnar(dir) {
        Ok(m) => m.store,
        Err(e) => return (count, vec![e]),
    };
    let violation = match std::fs::read(dir.join(CAMPAIGN_COLUMNAR_FILE)) {
        Err(e) => Some(format!("reading campaign.col: {e}")),
        Ok(bytes) if bytes == merged.bytes() => None,
        Ok(bytes) => Some(match ColumnarCampaign::decode(bytes) {
            Ok(store) if store.site_count() != merged.site_count() => format!(
                "shard coverage gap: segments cover {} sites, campaign.col has {}",
                merged.site_count(),
                store.site_count()
            ),
            _ => "merged segments do not reproduce campaign.col byte-for-byte".to_owned(),
        }),
    };
    (count, violation.into_iter().collect())
}

/// The `doctor` report over a bundle: [`diagnose`] of `outcome`
/// against `trace`, with [`verify_segments`] and [`verify_columnar`]
/// over the directory that holds the `campaign` store. The `doctor`
/// subcommand and serve's `/api/doctor` both render this report, so
/// their bodies are the same bytes.
pub fn diagnose_bundle(
    campaign: &Path,
    outcome: &CampaignOutcome,
    trace: &Trace,
    top_n: usize,
) -> DoctorReport {
    let profile = profile(trace, top_n);
    let mut checks = reconcile(outcome, profile.counts);
    if let Some(dir) = campaign.parent().filter(|d| d.is_dir()) {
        (checks.segments_checked, checks.segment_violations) = verify_segments(dir);
        checks.columnar = verify_columnar(dir);
    }
    let campaign = Some(checks);
    DoctorReport { profile, campaign }
}

/// Diagnose a trace in one pass, reconciled with `outcome` when there
/// is one. `top_n` bounds the slowest-visit and top-span lists.
pub fn diagnose(outcome: Option<&CampaignOutcome>, trace: &Trace, top_n: usize) -> DoctorReport {
    let profile = profile(trace, top_n);
    let campaign = outcome.map(|outcome| reconcile(outcome, profile.counts));
    DoctorReport { profile, campaign }
}

/// Check the trace's span counts against the metric tally recomputed
/// from `outcome`. Every attempted site opens exactly one visit span.
/// Timed-out visits run the full page (tracing their Topics calls) but
/// contribute no VisitRecord, so the trace may hold MORE calls than the
/// dataset, never fewer. The probe tally counts every probed domain; the
/// trace only spans network probes, with cache hits summarized on the
/// phase span.
fn reconcile(outcome: &CampaignOutcome, traced: SpanCounts) -> CampaignChecks {
    let tally = tally_snapshot(outcome);
    let line = |rule: &str, traced, metric| {
        let tallied = tally.counter(metric);
        let ok = traced == tallied || rule.ends_with(">=") && traced > tallied;
        let check = format!("{rule} {metric}");
        Reconciliation {
            check,
            traced,
            tallied,
            ok,
        }
    };
    let (calls, p) = (traced.topics_calls, traced.probes + traced.cache_hits);
    CampaignChecks {
        attempted: outcome.sites.len(),
        outcomes: outcome.outcome_counts(),
        reconciliation: vec![
            line("visit spans ==", traced.visits, "sites_attempted_total"),
            line("topics-call spans >=", calls, "topics_calls_recorded_total"),
            line("probe spans + cache_hits ==", p, "attestation_probes_total"),
        ],
        ..CampaignChecks::default()
    }
}

impl DoctorReport {
    /// The allocation-balance rows, read off the profile's phases that
    /// carry attribution: the thread-local deltas a phase's children
    /// attributed to themselves must fit inside its process-wide window
    /// (within tolerance), or something counted twice.
    pub fn balance(&self) -> impl Iterator<Item = (&PhaseStat, bool)> {
        let rows = self.profile.phases.iter().filter(|p| p.attributed);
        rows.map(|p| {
            let slack = (p.total_bytes as f64 * ALLOC_BALANCE_TOLERANCE) as u64;
            let budget = p.total_bytes + slack + ALLOC_BALANCE_SLACK_BYTES;
            (p, p.children_bytes <= budget)
        })
    }

    /// Every violation found: structural trace problems, then failed
    /// segment, store and reconciliation checks, then failed allocation
    /// balances. Empty iff [`DoctorReport::is_healthy`].
    pub fn violations(&self) -> Vec<String> {
        let mut out = self.profile.integrity.violations();
        if let Some(c) = &self.campaign {
            out.extend(c.segment_violations.iter().cloned());
            out.extend(
                c.columnar
                    .iter()
                    .flat_map(|col| col.violations.iter().cloned()),
            );
            out.extend(c.reconciliation.iter().filter(|r| !r.ok).map(|r| {
                let (check, traced, tallied) = (&r.check, r.traced, r.tallied);
                format!("reconciliation failed: {check} (trace {traced}, tally {tallied})")
            }));
        }
        out.extend(self.balance().filter(|(_, ok)| !ok).map(|(p, _)| {
            let (phase, window, children) = (&p.name, p.total_bytes, p.children_bytes);
            format!("allocation balance failed: phase {phase} window {window} B < children {children} B")
        }));
        out
    }

    /// True when every check passed.
    pub fn is_healthy(&self) -> bool {
        self.violations().is_empty()
    }

    /// Render the report as plain text: the run-health report with a
    /// campaign, the trace-health report without one.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let profile = &self.profile;
        match &self.campaign {
            None => {
                let clean = profile.integrity.is_clean();
                let integrity = if clean { "clean" } else { "VIOLATIONS" };
                out.push_str("== Doctor: trace health (no campaign) ==\n");
                let _ = writeln!(out, "integrity: {integrity}\n");
            }
            Some(c) => {
                let (n, o) = (c.attempted, &c.outcomes);
                let _ = write!(
                    out,
                    "== Doctor: run health ==\nsites: {n} attempted — {} complete, {} degraded, {} failed\n\n",
                    o.complete, o.degraded, o.failed
                );
                out.push_str("== Trace/metric reconciliation ==\n");
                for r in &c.reconciliation {
                    let mark = if r.ok { "ok" } else { "FAIL" };
                    let (check, traced, tallied) = (&r.check, r.traced, r.tallied);
                    let _ = writeln!(out, "[{mark}] {check} (trace {traced}, tally {tallied})");
                }
                out.push('\n');
            }
        }
        out.push_str("== Phases (simulated unless noted) ==\n");
        for p in &profile.phases {
            let (name, total, own) = (&p.name, p.total_ms, p.self_ms);
            let wall = if p.simulated { "" } else { "  (wall)" };
            let _ = writeln!(
                out,
                "{name:<18} total {total:>9} ms  self {own:>9} ms{wall}"
            );
        }
        out.push('\n');
        if self.campaign.is_some() {
            out.push_str("== Critical path ==\n");
            for hop in &profile.critical_path {
                let label = if hop.label.is_empty() { "" } else { " " };
                let (name, start, end) = (&hop.name, hop.start_ms, hop.end_ms);
                let _ = writeln!(out, "  {name}{label}{} [{start}..{end} ms]", hop.label);
            }
            out.push_str("\n== Worker utilization ==\n");
            let idle = profile.idle_fractions();
            if idle.is_empty() {
                out.push_str("no worker spans in trace (stripped or single-pass run)\n");
            }
            for (phase, frac) in &idle {
                let _ = writeln!(out, "{phase:<18} idle fraction {:.1}%", frac * 100.0);
            }
            for w in profile.workers.iter().filter(|_| !idle.is_empty()) {
                let (phase, worker, items) = (&w.phase, w.worker, w.items);
                let _ = writeln!(
                    out,
                    "  {phase} worker {worker}: {items} items, busy {} µs of {} µs",
                    w.busy_us, w.span_us
                );
            }
            out.push('\n');
        }

        out.push_str("== Allocation balance ==\n");
        if self.balance().next().is_none() {
            let verb = self.campaign.as_ref().map_or("record", |_| "run");
            let _ = writeln!(
                out,
                "no allocation attribution in trace ({verb} with --alloc-stats)"
            );
        }
        for (p, ok) in self.balance() {
            let mark = if ok { "ok" } else { "FAIL" };
            let (name, window, children) = (&p.name, p.total_bytes, p.children_bytes);
            let _ = writeln!(
                out,
                "[{mark}] {name:<18} phase window {window:>12} B  children {children:>12} B"
            );
        }
        if let Some(c) = &self.campaign {
            out.push('\n');
            render_stores(&mut out, c);
            out.push_str("== Retry hot-spots ==\n");
            let retries = profile.top_retries(|c| c.retries as u64);
            if retries.is_empty() {
                out.push_str("no retries recorded\n");
            }
            for c in retries {
                let (start, n, hosts) = (c.window_start_ms, c.retries, c.hosts.join(", "));
                let _ = writeln!(out, "window @{start:>9} ms: {n} retries ({hosts})");
            }
            out.push_str("\n== Slowest visits ==\n");
            for v in &profile.slowest_visits {
                let (domain, rank, ms) = (&v.domain, v.rank, v.duration_ms);
                let (dominant, dominant_ms) = (&v.dominant, v.dominant_ms);
                let _ = writeln!(
                    out,
                    "{domain:<28} rank {rank:>5}  {ms:>7} ms  (dominant: {dominant} {dominant_ms} ms)"
                );
            }
        }

        let violations = self.violations();
        if !violations.is_empty() {
            out.push_str("\n== Violations ==\n");
            for v in &violations {
                let _ = writeln!(out, "- {v}");
            }
        }
        out
    }
}

/// The shard-segment and columnar-store sections of a run report.
fn render_stores(out: &mut String, c: &CampaignChecks) {
    if c.segments_checked > 0 {
        out.push_str("== Shard segments ==\n");
        if c.segment_violations.is_empty() {
            let _ = writeln!(
                out,
                "[ok] {} segment file(s): checksums verified, shard coverage complete, merge reproduces campaign.col",
                c.segments_checked,
            );
        }
        for v in &c.segment_violations {
            let _ = writeln!(out, "[FAIL] {v}");
        }
        out.push('\n');
    }
    if let Some(col) = &c.columnar {
        out.push_str("== Columnar store ==\n");
        if col.violations.is_empty() {
            let _ = writeln!(
                out,
                "[ok] campaign.col ({} B): header + section checksums verified, intern table referentially intact",
                col.bytes,
            );
        }
        for v in &col.violations {
            let _ = writeln!(out, "[FAIL] {v}");
        }
        for s in &col.sections {
            let (name, len, fnv) = (&s.name, s.len, s.fnv1a);
            let _ = writeln!(out, "  section {name:<8} {len:>10} B  fnv1a {fnv:016x}");
        }
        out.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LabConfig;
    use topics_obs::{FieldValue, Obs, SpanRecord, Text, Word};

    /// Assert that some violation names every one of `needles`.
    #[track_caller]
    fn assert_named(violations: &[String], needles: &[&str]) {
        let found = violations
            .iter()
            .any(|v| needles.iter().all(|n| v.contains(n)));
        assert!(found, "{needles:?} not in {violations:?}");
    }

    fn traced_run() -> (CampaignOutcome, Trace) {
        let obs = Obs::new().with_trace();
        let lab = crate::Lab::new(LabConfig::quick(31, 40).with_threads(2));
        let run = lab.run_observed(&obs);
        (run.outcome, obs.trace.finish())
    }

    /// The report on a traced 40-site run after `edit` changed its trace.
    fn diagnosed(edit: impl FnOnce(&mut Trace)) -> DoctorReport {
        let (outcome, mut trace) = traced_run();
        edit(&mut trace);
        diagnose(Some(&outcome), &trace, 5)
    }

    fn first_visit(trace: &mut Trace) -> &mut SpanRecord {
        trace.spans.iter_mut().find(|s| s.name == "visit").unwrap()
    }

    #[test]
    fn healthy_run_reconciles_and_renders() {
        let report = diagnosed(|_| {});
        assert!(report.is_healthy(), "violations: {:?}", report.violations());
        let checks = report.campaign.as_ref().unwrap();
        assert_eq!((checks.attempted, checks.reconciliation.len()), (40, 3));
        let text = report.render();
        for needle in [
            "Doctor: run health",
            "Trace/metric reconciliation",
            "Critical path",
            "Worker utilization",
            "Slowest visits",
        ] {
            assert!(text.contains(needle), "missing section {needle}");
        }
        assert!(!text.contains("FAIL") && !text.contains("Violations"));
    }

    #[test]
    fn corrupted_trace_fails_doctor() {
        // Inject an orphan span.
        let report = diagnosed(|t| first_visit(t).parent = Some(999_999));
        assert_named(&report.violations(), &["orphan span"]);
        assert!(report.render().contains("Violations"));
    }

    /// `trace` with `alloc_bytes` on the crawl phase and on its first
    /// `visits` visits.
    fn attribute(trace: &mut Trace, phase_bytes: u64, visit_bytes: u64, visits: usize) {
        let bytes = |n| (Word::AllocBytes, FieldValue::U64(n));
        let crawl = trace.spans.iter().position(|s| s.name == "crawl").unwrap();
        trace.spans[crawl].fields.push(bytes(phase_bytes));
        let id = Some(trace.spans[crawl].id);
        let children = trace.spans.iter_mut().filter(|s| s.parent == id);
        for s in children.filter(|s| s.name == "visit").take(visits) {
            s.fields.push(bytes(visit_bytes));
        }
    }

    #[test]
    fn allocation_imbalance_fails_doctor() {
        // Without attribution the check list is empty and healthy.
        let clean = diagnosed(|_| {});
        assert_eq!(clean.balance().count(), 0);
        assert!(clean.render().contains("no allocation attribution"));

        // Forge an imbalance: the crawl window claims 1 kB while one
        // child visit claims 10 MB.
        let report = diagnosed(|t| attribute(t, 1_000, 10_000_000, 1));
        assert_eq!(report.balance().count(), 1);
        assert_named(&report.violations(), &["allocation balance"]);
        let text = report.render();
        assert!(text.contains("== Allocation balance ==") && text.contains("FAIL"));
    }

    #[test]
    fn balanced_allocation_passes_doctor() {
        // Window 1 MB, children well inside it.
        let report = diagnosed(|t| attribute(t, 1 << 20, 4_096, usize::MAX));
        let rows: Vec<_> = report.balance().collect();
        assert_eq!(rows.len(), 1);
        assert!(rows[0].1 && rows[0].0.children_bytes > 0);
        assert!(report.is_healthy(), "violations: {:?}", report.violations());
    }

    /// Offset of a byte in the middle of a segment's `store` section:
    /// the directory's second entry (after the 16-byte magic, version
    /// and section count; each entry is tag u8, offset u64, len u64,
    /// fnv1a u64).
    fn store_payload_byte(segment: &[u8]) -> usize {
        let entry = 16 + 25;
        assert_eq!(segment[entry], 2, "the second section is the store");
        let word = |at: usize| u64::from_le_bytes(segment[at..at + 8].try_into().unwrap());
        (word(entry + 1) + word(entry + 9) / 2) as usize
    }

    #[test]
    fn segment_checks_flow_into_the_report() {
        let config = LabConfig::quick(33, 40).with_threads(2);
        let dir = std::env::temp_dir().join(format!("topics-doctor-seg-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut paths = Vec::new();
        for shard in 0..2 {
            let segment = crate::shard::run_shard(&config, shard, 2, &Obs::new().with_trace());
            paths.push(crate::shard::write_segment(&dir, &segment).unwrap());
        }
        let merged = crate::shard::merge_dir_columnar(&dir).unwrap();
        let col_path = dir.join(CAMPAIGN_COLUMNAR_FILE);

        // Segments without a store next to them have nothing to reproduce.
        let (checked, violations) = verify_segments(&dir);
        assert_eq!(checked, 2);
        assert_named(&violations, &["reading campaign.col"]);

        std::fs::write(&col_path, merged.store.bytes()).unwrap();
        let (checked, violations) = verify_segments(&dir);
        assert_eq!(checked, 2);
        assert!(violations.is_empty(), "{violations:?}");
        let report = diagnose_bundle(&col_path, &merged.outcome, &merged.trace, 5);
        assert!(report.is_healthy(), "violations: {:?}", report.violations());
        assert!(report.render().contains("== Shard segments =="));
        assert!(report.render().contains("[ok] 2 segment file(s)"));

        // A store that does not match the segments is a coverage gap.
        let mut short = merged.outcome.clone();
        short.sites.pop();
        std::fs::write(&col_path, ColumnarCampaign::from_outcome(&short).bytes()).unwrap();
        let (_, violations) = verify_segments(&dir);
        assert_named(&violations, &["coverage gap"]);
        std::fs::write(&col_path, merged.store.bytes()).unwrap();

        // Flip one byte inside a segment's stripe store: only the
        // section checksum can catch it, and the check names the file.
        let pristine = std::fs::read(&paths[0]).unwrap();
        let mut flipped = pristine.clone();
        flipped[store_payload_byte(&pristine)] ^= 0x01;
        std::fs::write(&paths[0], &flipped).unwrap();
        let (checked, violations) = verify_segments(&dir);
        assert_eq!(checked, 2);
        let name = paths[0].file_name().unwrap().to_str().unwrap();
        assert_named(&violations, &["checksum mismatch", name]);
        let report = diagnose_bundle(&col_path, &merged.outcome, &merged.trace, 5);
        assert!(!report.is_healthy());
        assert!(report.render().contains("[FAIL]"));

        // Truncation is named too.
        std::fs::write(&paths[0], &pristine[..pristine.len() / 2]).unwrap();
        let (_, violations) = verify_segments(&dir);
        assert_named(&violations, &["truncated", name]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn columnar_store_checks_flow_into_the_report() {
        let (outcome, trace) = traced_run();
        let dir = std::env::temp_dir().join(format!("topics-doctor-col-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        // No store, no check.
        assert!(verify_columnar(&dir).is_none());

        // A healthy store validates and lists every section.
        let store = ColumnarCampaign::from_outcome(&outcome);
        let path = dir.join(CAMPAIGN_COLUMNAR_FILE);
        std::fs::write(&path, store.bytes()).unwrap();
        let check = verify_columnar(&dir).unwrap();
        assert!(check.violations.is_empty(), "{:?}", check.violations);
        assert_eq!(check.sections.len(), 8);
        assert_eq!(check.bytes, store.bytes().len() as u64);
        let report = diagnose_bundle(&path, &outcome, &trace, 5);
        assert!(report.is_healthy(), "violations: {:?}", report.violations());
        let text = report.render();
        assert!(text.contains("== Columnar store =="));
        assert!(text.contains("[ok] campaign.col"));
        assert!(text.contains("section strings"));

        // A flipped payload byte is a named section-checksum violation.
        let mut bytes = store.bytes().to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let check = verify_columnar(&dir).unwrap();
        assert_named(&check.violations, &["checksum"]);
        let report = diagnose_bundle(&path, &outcome, &trace, 5);
        assert!(!report.is_healthy());
        assert!(report.render().contains("[FAIL]"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_visit_span_breaks_reconciliation() {
        let report = diagnosed(|t| first_visit(t).name = Text::from("not-a-visit"));
        assert_named(&report.violations(), &["sites_attempted_total"]);
    }
}
