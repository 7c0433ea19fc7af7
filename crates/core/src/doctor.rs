//! Run-health doctor: reconcile a saved campaign with its trace.
//!
//! The doctor cross-checks three independent records of the same run —
//! the measurement dataset (`campaign.col`), the authoritative metric
//! tally recomputed from it, and the span trace — and renders one
//! report: outcome partition, trace/metric reconciliation, critical
//! path, per-phase self/total time, worker utilization, retry
//! hot-spots, and the slowest visits. Any structural trace violation or
//! reconciliation mismatch makes the report unhealthy (the CLI exits
//! non-zero on those).

use crate::export::CAMPAIGN_COLUMNAR_FILE;
use std::path::Path;
use topics_crawler::columnar::{ColumnarCampaign, SectionInfo};
use topics_crawler::record::{CampaignOutcome, OutcomeCounts};
use topics_crawler::shard::tally_snapshot;
use topics_obs::profile::{integrity, profile, Integrity, Profile};
use topics_obs::{FieldValue, Text, Trace, Word};

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

/// One phase's allocation-balance check: the thread-local deltas its
/// sealed child spans attributed to themselves must fit inside the
/// phase's process-wide allocation window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocBalance {
    /// Phase span name.
    pub phase: Text,
    /// Bytes the phase window recorded (process-wide, all threads).
    pub phase_bytes: u64,
    /// Sum of the direct children's attributed bytes.
    pub children_bytes: u64,
    /// True when `children_bytes` fits in `phase_bytes` within
    /// tolerance.
    pub ok: bool,
}

/// Slack allowed on the allocation balance: child scopes are sampled
/// with relaxed atomics while the window is racing, so a small
/// overshoot is measurement noise, not an accounting bug.
const ALLOC_BALANCE_TOLERANCE: f64 = 0.02;
const ALLOC_BALANCE_SLACK_BYTES: u64 = 64 * 1024;

/// The full doctor output for one campaign + trace pair.
#[derive(Debug, Clone)]
pub struct DoctorReport {
    /// Sites attempted (length of the outcome's site list).
    pub attempted: usize,
    /// Per-outcome site partition.
    pub outcomes: OutcomeCounts,
    /// Structural trace checks (orphans, duplicates, negative spans).
    pub integrity: Integrity,
    /// Trace-vs-metric count checks.
    pub reconciliation: Vec<Reconciliation>,
    /// Per-phase allocation-balance checks (empty when the trace has no
    /// allocation attribution).
    pub alloc_balance: Vec<AllocBalance>,
    /// Analyzer output: critical path, phases, workers, retries,
    /// slowest visits.
    pub profile: Profile,
    /// Shard-segment files verified (0 when the campaign has none).
    pub segments_checked: usize,
    /// Segment-integrity and shard-coverage violations (see
    /// [`verify_segments`]).
    pub segment_violations: Vec<String>,
    /// Columnar-store check, when `campaign.col` sits in the bundle
    /// (see [`verify_columnar`]).
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
    let mut check = ColumnarCheck {
        bytes: bytes.len() as u64,
        sections: Vec::new(),
        violations: Vec::new(),
    };
    match ColumnarCampaign::decode(bytes) {
        Ok(store) => {
            check.sections = store.section_map();
            if let Err(e) = store.verify() {
                check.violations.push(format!("campaign.col: {e}"));
            }
        }
        Err(e) => check.violations.push(format!("campaign.col: {e}")),
    }
    Some(check)
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
    let mut report = diagnose(outcome, trace, top_n);
    if let Some(dir) = campaign.parent().filter(|d| d.is_dir()) {
        let (checked, violations) = verify_segments(dir);
        if checked > 0 {
            report.segments_checked = checked;
            report.segment_violations = violations;
        }
        report.columnar = verify_columnar(dir);
    }
    report
}

fn u64_field(trace: &Trace, span_name: Word, key: Word) -> u64 {
    trace
        .spans
        .iter()
        .filter(|s| s.name == span_name)
        .map(|s| match s.field(key) {
            Some(FieldValue::U64(v)) => *v,
            Some(FieldValue::I64(v)) => *v as u64,
            _ => 0,
        })
        .sum()
}

/// Diagnose a campaign against its trace. `top_n` bounds the
/// slowest-visit list.
pub fn diagnose(outcome: &CampaignOutcome, trace: &Trace, top_n: usize) -> DoctorReport {
    let snapshot = tally_snapshot(outcome);
    let mut reconciliation = Vec::new();

    // Every attempted site opens exactly one visit span — strict.
    let visit_spans = trace.count_named(Word::Visit) as u64;
    let attempted = snapshot.counter("sites_attempted_total");
    reconciliation.push(Reconciliation {
        check: "visit spans == sites_attempted_total".to_owned(),
        traced: visit_spans,
        tallied: attempted,
        ok: visit_spans == attempted,
    });

    // Timed-out visits run the full page (tracing their Topics calls)
    // but contribute no VisitRecord, so the trace may legitimately hold
    // MORE calls than the dataset — never fewer.
    let call_spans = trace.count_named(Word::TopicsCall) as u64;
    let recorded = snapshot.counter("topics_calls_recorded_total");
    reconciliation.push(Reconciliation {
        check: "topics-call spans >= topics_calls_recorded_total".to_owned(),
        traced: call_spans,
        tallied: recorded,
        ok: call_spans >= recorded,
    });

    // The probe tally counts every probed domain; the trace only spans
    // network probes, with cache hits summarized on the phase span.
    let probe_spans = trace.count_named(Word::Probe) as u64;
    let cache_hits = u64_field(trace, Word::AttestationProbe, Word::CacheHits);
    let probes = snapshot.counter("attestation_probes_total");
    reconciliation.push(Reconciliation {
        check: "probe spans + cache_hits == attestation_probes_total".to_owned(),
        traced: probe_spans + cache_hits,
        tallied: probes,
        ok: probe_spans + cache_hits == probes,
    });

    DoctorReport {
        attempted: outcome.sites.len(),
        outcomes: outcome.outcome_counts(),
        integrity: integrity(trace),
        reconciliation,
        alloc_balance: alloc_balance(trace),
        profile: profile(trace, top_n),
        segments_checked: 0,
        segment_violations: Vec::new(),
        columnar: None,
    }
}

/// Check, for every phase span carrying allocation attribution, that
/// the self-attributed deltas of its direct children sum to no more
/// than the phase's process-wide window (within tolerance). Child
/// scopes are thread-local slices of the phase window, so a genuine
/// overshoot means double counting or a broken seal.
fn alloc_balance(trace: &Trace) -> Vec<AllocBalance> {
    let alloc_of = |s: &topics_obs::SpanRecord| match s.field(Word::AllocBytes) {
        Some(FieldValue::U64(v)) => Some(*v),
        Some(FieldValue::I64(v)) => Some(*v as u64),
        _ => None,
    };
    let mut out = Vec::new();
    for phase in trace.spans.iter().filter(|s| s.parent == Some(1) && !s.op) {
        let Some(phase_bytes) = alloc_of(phase) else {
            continue;
        };
        let children_bytes: u64 = trace
            .spans
            .iter()
            .filter(|s| s.parent == Some(phase.id))
            .filter_map(alloc_of)
            .sum();
        let budget = phase_bytes
            + (phase_bytes as f64 * ALLOC_BALANCE_TOLERANCE) as u64
            + ALLOC_BALANCE_SLACK_BYTES;
        out.push(AllocBalance {
            phase: phase.name.clone(),
            phase_bytes,
            children_bytes,
            ok: children_bytes <= budget,
        });
    }
    out
}

/// A trace-only health report: the structural and allocation checks of
/// [`diagnose`] without a campaign to reconcile against. This is what
/// `topics-lab doctor --trace FILE` (no `--campaign`) runs — e.g. over
/// a `simulate` trace, which has no campaign dataset at all.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Structural trace checks (orphans, duplicates, negative spans).
    pub integrity: Integrity,
    /// Per-phase allocation-balance checks (empty when the trace has no
    /// allocation attribution).
    pub alloc_balance: Vec<AllocBalance>,
    /// Analyzer output: critical path, phases, workers, retries.
    pub profile: Profile,
}

/// Diagnose a trace on its own: integrity, allocation balance, and the
/// span profile. `top_n` bounds the analyzer's slowest-span lists.
pub fn diagnose_trace(trace: &Trace, top_n: usize) -> TraceReport {
    TraceReport {
        integrity: integrity(trace),
        alloc_balance: alloc_balance(trace),
        profile: profile(trace, top_n),
    }
}

impl TraceReport {
    /// Every violation found: structural trace problems plus failed
    /// allocation-balance checks. Empty iff [`TraceReport::is_healthy`].
    pub fn violations(&self) -> Vec<String> {
        let mut out = self.integrity.violations();
        out.extend(alloc_violations(&self.alloc_balance));
        out
    }

    /// True when the trace is structurally sound and every
    /// allocation-balance check passed.
    pub fn is_healthy(&self) -> bool {
        self.violations().is_empty()
    }

    /// Render the report as plain text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== Doctor: trace health (no campaign) ==\n");
        out.push_str(&format!(
            "integrity: {}\n",
            if self.integrity.is_clean() {
                "clean"
            } else {
                "VIOLATIONS"
            }
        ));
        out.push('\n');
        render_phases(&mut out, &self.profile);
        render_alloc_balance(&mut out, &self.alloc_balance, "record");

        let violations = self.violations();
        if !violations.is_empty() {
            out.push('\n');
            out.push_str("== Violations ==\n");
            for v in &violations {
                out.push_str(&format!("- {v}\n"));
            }
        }
        out
    }
}

impl DoctorReport {
    /// Every violation found: structural trace problems plus failed
    /// reconciliation checks. Empty iff [`DoctorReport::is_healthy`].
    pub fn violations(&self) -> Vec<String> {
        let mut out = self.integrity.violations();
        out.extend(self.segment_violations.iter().cloned());
        if let Some(col) = &self.columnar {
            out.extend(col.violations.iter().cloned());
        }
        for r in self.reconciliation.iter().filter(|r| !r.ok) {
            out.push(format!(
                "reconciliation failed: {} (trace {}, tally {})",
                r.check, r.traced, r.tallied
            ));
        }
        out.extend(alloc_violations(&self.alloc_balance));
        out
    }

    /// True when the trace is structurally sound and every
    /// reconciliation, allocation-balance, segment and store check
    /// passed.
    pub fn is_healthy(&self) -> bool {
        self.violations().is_empty()
    }

    /// Render the report as plain text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== Doctor: run health ==\n");
        out.push_str(&format!(
            "sites: {} attempted — {} complete, {} degraded, {} failed\n",
            self.attempted, self.outcomes.complete, self.outcomes.degraded, self.outcomes.failed,
        ));
        out.push('\n');

        out.push_str("== Trace/metric reconciliation ==\n");
        for r in &self.reconciliation {
            out.push_str(&format!(
                "[{}] {} (trace {}, tally {})\n",
                if r.ok { "ok" } else { "FAIL" },
                r.check,
                r.traced,
                r.tallied,
            ));
        }
        out.push('\n');
        render_phases(&mut out, &self.profile);

        out.push_str("== Critical path ==\n");
        for hop in &self.profile.critical_path {
            let label = if hop.label.is_empty() {
                String::new()
            } else {
                format!(" {}", hop.label)
            };
            out.push_str(&format!(
                "  {}{} [{}..{} ms]\n",
                hop.name, label, hop.start_ms, hop.end_ms,
            ));
        }
        out.push('\n');

        out.push_str("== Worker utilization ==\n");
        let idle = self.profile.idle_fractions();
        if idle.is_empty() {
            out.push_str("no worker spans in trace (stripped or single-pass run)\n");
        } else {
            for (phase, frac) in &idle {
                out.push_str(&format!("{phase:<18} idle fraction {:.1}%\n", frac * 100.0));
            }
            for w in &self.profile.workers {
                out.push_str(&format!(
                    "  {} worker {}: {} items, busy {} µs of {} µs\n",
                    w.phase, w.worker, w.items, w.busy_us, w.span_us,
                ));
            }
        }
        out.push('\n');

        render_alloc_balance(&mut out, &self.alloc_balance, "run");
        out.push('\n');

        if self.segments_checked > 0 {
            out.push_str("== Shard segments ==\n");
            if self.segment_violations.is_empty() {
                out.push_str(&format!(
                    "[ok] {} segment file(s): checksums verified, shard coverage complete, merge reproduces campaign.col\n",
                    self.segments_checked,
                ));
            } else {
                for v in &self.segment_violations {
                    out.push_str(&format!("[FAIL] {v}\n"));
                }
            }
            out.push('\n');
        }

        if let Some(col) = &self.columnar {
            out.push_str("== Columnar store ==\n");
            if col.violations.is_empty() {
                out.push_str(&format!(
                    "[ok] campaign.col ({} B): header + section checksums verified, intern table referentially intact\n",
                    col.bytes,
                ));
            } else {
                for v in &col.violations {
                    out.push_str(&format!("[FAIL] {v}\n"));
                }
            }
            for s in &col.sections {
                out.push_str(&format!(
                    "  section {:<8} {:>10} B  fnv1a {:016x}\n",
                    s.name, s.len, s.fnv1a,
                ));
            }
            out.push('\n');
        }

        out.push_str("== Retry hot-spots ==\n");
        if self.profile.retry_clusters.is_empty() {
            out.push_str("no retries recorded\n");
        } else {
            for c in &self.profile.retry_clusters {
                out.push_str(&format!(
                    "window @{:>9} ms: {} retries ({})\n",
                    c.window_start_ms,
                    c.retries,
                    c.hosts.join(", "),
                ));
            }
        }
        out.push('\n');

        out.push_str("== Slowest visits ==\n");
        for v in &self.profile.slowest_visits {
            out.push_str(&format!(
                "{:<28} rank {:>5}  {:>7} ms  (dominant: {} {} ms)\n",
                v.domain, v.rank, v.duration_ms, v.dominant, v.dominant_ms,
            ));
        }

        let violations = self.violations();
        if !violations.is_empty() {
            out.push('\n');
            out.push_str("== Violations ==\n");
            for v in &violations {
                out.push_str(&format!("- {v}\n"));
            }
        }
        out
    }
}

/// The per-phase time section both reports print.
fn render_phases(out: &mut String, profile: &Profile) {
    out.push_str("== Phases (simulated unless noted) ==\n");
    for p in &profile.phases {
        out.push_str(&format!(
            "{:<18} total {:>9} ms  self {:>9} ms{}\n",
            p.name,
            p.total_ms,
            p.self_ms,
            if p.simulated { "" } else { "  (wall)" },
        ));
    }
    out.push('\n');
}

/// The allocation-balance section both reports print; `verb` starts
/// the hint shown when the trace has no attribution.
fn render_alloc_balance(out: &mut String, rows: &[AllocBalance], verb: &str) {
    out.push_str("== Allocation balance ==\n");
    if rows.is_empty() {
        out.push_str(&format!(
            "no allocation attribution in trace ({verb} with --alloc-stats)\n"
        ));
    }
    for b in rows {
        out.push_str(&format!(
            "[{}] {:<18} phase window {:>12} B  children {:>12} B\n",
            if b.ok { "ok" } else { "FAIL" },
            b.phase,
            b.phase_bytes,
            b.children_bytes,
        ));
    }
}

/// One violation line per failed allocation-balance check.
fn alloc_violations(rows: &[AllocBalance]) -> impl Iterator<Item = String> + '_ {
    rows.iter().filter(|b| !b.ok).map(|b| {
        format!(
            "allocation balance failed: phase {} window {} B < children {} B",
            b.phase, b.phase_bytes, b.children_bytes
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LabConfig;
    use topics_obs::Obs;

    fn traced_run() -> (CampaignOutcome, Trace) {
        let obs = Obs::new().with_trace();
        let lab = crate::Lab::new(LabConfig::quick(31, 40).with_threads(2));
        let run = lab.run_observed(&obs);
        (run.outcome, obs.trace.finish())
    }

    #[test]
    fn healthy_run_reconciles_and_renders() {
        let (outcome, trace) = traced_run();
        let report = diagnose(&outcome, &trace, 5);
        assert!(report.is_healthy(), "violations: {:?}", report.violations());
        assert_eq!(report.attempted, 40);
        assert_eq!(report.reconciliation.len(), 3);
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
        assert!(!text.contains("FAIL"));
        assert!(!text.contains("Violations"));
    }

    #[test]
    fn corrupted_trace_fails_doctor() {
        let (outcome, mut trace) = traced_run();
        // Inject an orphan span and drop a visit span.
        let visit_idx = trace
            .spans
            .iter()
            .position(|s| s.name == "visit")
            .expect("trace has visits");
        trace.spans[visit_idx].parent = Some(999_999);
        let report = diagnose(&outcome, &trace, 5);
        assert!(!report.is_healthy());
        assert!(report
            .violations()
            .iter()
            .any(|v| v.contains("orphan span")));
        assert!(report.render().contains("Violations"));
    }

    #[test]
    fn allocation_imbalance_fails_doctor() {
        let (outcome, mut trace) = traced_run();
        // Without attribution the check list is empty and healthy.
        let clean = diagnose(&outcome, &trace, 5);
        assert!(clean.alloc_balance.is_empty());
        assert!(clean.render().contains("no allocation attribution"));

        // Forge an imbalance: the crawl window claims 1 kB while one
        // child visit claims 10 MB.
        let crawl_id = trace
            .spans
            .iter()
            .find(|s| s.name == "crawl")
            .expect("crawl phase span")
            .id;
        let mut tagged_child = false;
        for s in trace.spans.iter_mut() {
            if s.name == "crawl" {
                s.fields.push((Word::AllocBytes, FieldValue::U64(1_000)));
            } else if !tagged_child && s.parent == Some(crawl_id) && s.name == "visit" {
                s.fields
                    .push((Word::AllocBytes, FieldValue::U64(10_000_000)));
                tagged_child = true;
            }
        }
        assert!(tagged_child, "found a visit child to tag");
        let report = diagnose(&outcome, &trace, 5);
        assert_eq!(report.alloc_balance.len(), 1);
        assert!(!report.is_healthy());
        assert!(report
            .violations()
            .iter()
            .any(|v| v.contains("allocation balance")));
        assert!(report.render().contains("== Allocation balance =="));
        assert!(report.render().contains("FAIL"));
    }

    #[test]
    fn balanced_allocation_passes_doctor() {
        let (outcome, mut trace) = traced_run();
        let crawl_id = trace
            .spans
            .iter()
            .find(|s| s.name == "crawl")
            .expect("crawl phase span")
            .id;
        // Window 1 MB, children well inside it.
        for s in trace.spans.iter_mut() {
            if s.name == "crawl" {
                s.fields.push((Word::AllocBytes, FieldValue::U64(1 << 20)));
            } else if s.parent == Some(crawl_id) && s.name == "visit" {
                s.fields.push((Word::AllocBytes, FieldValue::U64(4_096)));
            }
        }
        let report = diagnose(&outcome, &trace, 5);
        assert_eq!(report.alloc_balance.len(), 1);
        assert!(report.is_healthy(), "violations: {:?}", report.violations());
        assert!(report.alloc_balance[0].children_bytes > 0);
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
        assert!(
            violations
                .iter()
                .any(|v| v.contains("reading campaign.col")),
            "{violations:?}"
        );

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
        assert!(
            violations.iter().any(|v| v.contains("coverage gap")),
            "{violations:?}"
        );
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
        assert!(
            violations
                .iter()
                .any(|v| v.contains("checksum mismatch") && v.contains(name)),
            "{violations:?}"
        );
        let report = diagnose_bundle(&col_path, &merged.outcome, &merged.trace, 5);
        assert!(!report.is_healthy());
        assert!(report.render().contains("[FAIL]"));

        // Truncation is named too.
        std::fs::write(&paths[0], &pristine[..pristine.len() / 2]).unwrap();
        let (_, violations) = verify_segments(&dir);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("truncated") && v.contains(name)),
            "{violations:?}"
        );
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
        assert!(
            check.violations.iter().any(|v| v.contains("checksum")),
            "{:?}",
            check.violations
        );
        let report = diagnose_bundle(&path, &outcome, &trace, 5);
        assert!(!report.is_healthy());
        assert!(report.render().contains("[FAIL]"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_visit_span_breaks_reconciliation() {
        let (outcome, mut trace) = traced_run();
        let visit_idx = trace
            .spans
            .iter()
            .position(|s| s.name == "visit")
            .expect("trace has visits");
        trace.spans[visit_idx].name = Text::from("not-a-visit");
        let report = diagnose(&outcome, &trace, 5);
        assert!(!report.is_healthy());
        assert!(report
            .violations()
            .iter()
            .any(|v| v.contains("sites_attempted_total")));
    }
}
