//! Bundle export: write a campaign's dataset and every reproduced
//! artefact to a directory.

use crate::lab::Evaluation;
use std::fs;
use std::io;
use std::path::Path;
use topics_analysis::dataset::{DatasetId, Datasets};
use topics_analysis::export as csv;
use topics_crawler::columnar::{ColumnarCampaign, ColumnarError};
use topics_crawler::record::CampaignOutcome;
use topics_crawler::spans::decode_trace;
use topics_obs::Trace;

/// The bundle's dataset file: the columnar campaign store.
pub const CAMPAIGN_COLUMNAR_FILE: &str = "campaign.col";

/// The bundle's span trace (`crawl --trace-out trace.col`, `merge`):
/// what `doctor`, `memprofile` and `serve` read beside a campaign.
pub const TRACE_FILE: &str = "trace.col";

/// The on-disk representation of a bundle's campaign dataset. There is
/// one: the interned struct-of-arrays layout in
/// [`topics_crawler::columnar`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreKind {
    /// `campaign.col` — checksummed columnar sections, lazy readable.
    Columnar,
}

/// File names written by [`write_bundle`].
pub const BUNDLE_FILES: [&str; 13] = [
    "campaign.col",
    "report.txt",
    "comparison.txt",
    "calls.csv",
    "sites.csv",
    "table1.csv",
    "fig2_presence.csv",
    "fig3_fractions.csv",
    "fig5_questionable.csv",
    "fig6_geo.csv",
    "fig7_cmp.csv",
    "sec4_anomalous.csv",
    "sec3_timeline.csv",
];

/// Write the full artefact bundle for a campaign:
///
/// * `campaign.col` — the raw dataset (every visit, call and probe),
///   loadable back with [`load_campaign`];
/// * `report.txt` / `comparison.txt` — the rendered evaluation and the
///   paper-vs-measured table;
/// * one CSV per reproduced table/figure plus the raw calls/sites CSVs
///   and the enrolment timeline.
pub fn write_bundle(
    dir: &Path,
    outcome: &CampaignOutcome,
    eval: &Evaluation,
    full_scale: bool,
    store: StoreKind,
) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    match store {
        StoreKind::Columnar => {
            let col = ColumnarCampaign::from_outcome(outcome);
            fs::write(dir.join(CAMPAIGN_COLUMNAR_FILE), col.bytes())?;
        }
    }
    write_artefacts(dir, outcome, eval, full_scale)
}

/// Write every rendered artefact except the campaign file itself —
/// what [`write_bundle`] adds on top of the store. Used directly by
/// `merge`, which already holds the streamed store bytes and must not
/// re-encode them.
pub fn write_artefacts(
    dir: &Path,
    outcome: &CampaignOutcome,
    eval: &Evaluation,
    full_scale: bool,
) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let ds = Datasets::new(outcome);
    fs::write(dir.join("report.txt"), eval.render_report())?;
    let rows = crate::compare::comparison_rows(eval, full_scale);
    fs::write(
        dir.join("comparison.txt"),
        crate::compare::render_comparison(&rows),
    )?;

    fs::write(dir.join("calls.csv"), csv::calls_csv(&ds))?;
    fs::write(dir.join("sites.csv"), csv::sites_csv(&ds))?;
    fs::write(dir.join("table1.csv"), csv::table1_csv(&eval.table1))?;
    fs::write(dir.join("fig2_presence.csv"), csv::presence_csv(&eval.fig2))?;
    fs::write(
        dir.join("fig3_fractions.csv"),
        csv::presence_csv(&eval.fig3),
    )?;
    fs::write(
        dir.join("fig5_questionable.csv"),
        csv::questionable_csv(&eval.fig5),
    )?;
    fs::write(dir.join("fig6_geo.csv"), csv::geo_csv(&eval.fig6))?;
    fs::write(dir.join("fig7_cmp.csv"), csv::cmp_csv(&eval.fig7))?;
    fs::write(
        dir.join("sec4_anomalous.csv"),
        csv::anomalous_csv(&eval.anomalous),
    )?;
    fs::write(
        dir.join("sec3_timeline.csv"),
        csv::timeline_csv(&eval.timeline),
    )?;
    Ok(())
}

/// Load a campaign dumped by [`write_bundle`]. The columnar decoder
/// verifies the magic bytes, section checksums and schema version on
/// the way in: any other file — a `campaign.json` from an older bundle,
/// say — is an `InvalidData` error naming the typed decode failure, a
/// missing one `NotFound`.
pub fn load_campaign(path: &Path) -> io::Result<CampaignOutcome> {
    let bad = |e: ColumnarError| {
        io::Error::new(io::ErrorKind::InvalidData, format!("bad campaign.col: {e}"))
    };
    ColumnarCampaign::decode(fs::read(path)?)
        .and_then(|col| col.to_outcome())
        .map_err(bad)
}

/// Load a `trace.col` ([`topics_crawler::spans`]). The decoder checks
/// the magic, checksums and every id and range: any failure is an
/// `InvalidData` error naming it, a missing file `NotFound`. A JSONL
/// trace is an export, not read back: it fails the magic check like
/// any other file, and the message says so.
pub fn load_trace(path: &Path) -> io::Result<Trace> {
    decode_trace(&fs::read(path)?).map_err(|e| {
        let why = match e {
            ColumnarError::BadMagic => {
                "not a trace.col file (bad magic); a JSONL trace is an export and is not read"
                    .to_owned()
            }
            e => e.to_string(),
        };
        io::Error::new(io::ErrorKind::InvalidData, format!("bad trace.col: {why}"))
    })
}

/// Quick sanity accessor used by tests: dataset sizes of a loaded
/// campaign.
pub fn dataset_sizes(outcome: &CampaignOutcome) -> (usize, usize) {
    let ds = Datasets::new(outcome);
    (
        ds.len(DatasetId::BeforeAccept),
        ds.len(DatasetId::AfterAccept),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{evaluate, Lab, LabConfig};

    #[test]
    fn bundle_round_trips() {
        let lab = Lab::new(LabConfig::quick(81, 200).with_threads(2));
        let outcome = lab.run();
        let eval = evaluate(&outcome);
        let dir = std::env::temp_dir().join(format!("topics-lab-test-{}", std::process::id()));
        write_bundle(&dir, &outcome, &eval, false, StoreKind::Columnar).unwrap();
        for f in BUNDLE_FILES {
            let p = dir.join(f);
            assert!(p.exists(), "missing {f}");
            assert!(fs::metadata(&p).unwrap().len() > 0, "{f} is empty");
        }
        let back = load_campaign(&dir.join("campaign.col")).unwrap();
        assert_eq!(dataset_sizes(&back), dataset_sizes(&outcome));
        assert_eq!(back.allow_list, outcome.allow_list);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn columnar_bundle_loads_back_identically() {
        let lab = Lab::new(LabConfig::quick(82, 150).with_threads(2));
        let outcome = lab.run().outcome;
        let eval = evaluate(&outcome);
        let dir = std::env::temp_dir().join(format!("topics-lab-coltest-{}", std::process::id()));
        write_bundle(&dir, &outcome, &eval, false, StoreKind::Columnar).unwrap();
        let col_path = dir.join("campaign.col");
        let back = load_campaign(&col_path).unwrap();
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(&outcome).unwrap(),
            "columnar load must reproduce the outcome exactly"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_rejects_garbage() {
        let dir = std::env::temp_dir().join(format!("topics-lab-garbage-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let p = dir.join("campaign.col");
        fs::write(&p, "not a campaign at all").unwrap();
        let err = load_campaign(&p).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("bad magic"), "{err}");
        let missing = load_campaign(&dir.join("absent.col")).unwrap_err();
        assert_eq!(missing.kind(), io::ErrorKind::NotFound);
        fs::remove_dir_all(&dir).unwrap();
    }
}
