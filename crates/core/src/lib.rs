//! # topics-core — the top-level API of the reproduction
//!
//! One import gives a downstream user the whole pipeline of "A First
//! View of Topics API Usage in the Wild" (CoNEXT '24):
//!
//! ```no_run
//! use topics_core::{Lab, LabConfig};
//!
//! // Paper-scale: 50,000 sites, corrupted allow-list, Before/After visits.
//! let lab = Lab::new(LabConfig::paper(42));
//! let outcome = lab.run();
//! let eval = topics_core::evaluate(&outcome);
//! println!("{}", eval.render_report());
//! ```
//!
//! * [`config`] — presets bundling the world and campaign parameters.
//! * [`lab`] — world construction + campaign execution + evaluation.
//! * [`compare`] — the paper's reference numbers and paper-vs-measured
//!   comparison rows (the EXPERIMENTS.md source of truth).
//! * [`doctor`] — run-health report reconciling a saved campaign with
//!   its span trace (the `topics-lab doctor` subcommand).
//! * [`export`] — artefact bundles: the campaign dataset
//!   (`campaign.col`, the columnar store) plus one CSV per table/figure
//!   (the `topics-lab` CLI writes these).
//! * [`shard`] — sharded campaign execution (`topics-lab shard`) and
//!   the deterministic merge (`topics-lab merge`) back into a bundle
//!   byte-identical to a single-process run.
//! * [`serve`] — the live query + observability service
//!   (`topics-lab serve`): a dependency-free HTTP server answering
//!   per-figure queries from the resident columnar store, responses
//!   byte-identical to the offline artefacts, self-observed at
//!   `/metrics`.
//! * [`sim`] — the population-scale privacy testbed
//!   (`topics-lab simulate`): arena-backed million-user simulation with
//!   k-anonymity and re-identification curve artefacts, observed phase
//!   by phase.
//! * [`fidelity`] — crawler measurements vs generator ground truth: the
//!   pipeline's own measurement error, quantifiable only in simulation.
//!
//! The underlying crates are re-exported for direct access.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod config;
pub mod doctor;
pub mod export;
pub mod fidelity;
pub mod lab;
pub mod serve;
pub mod shard;
pub mod sim;

pub use compare::{comparison_rows, render_comparison, ComparisonRow};
pub use config::LabConfig;
pub use doctor::{
    diagnose, diagnose_bundle, diagnose_trace, verify_columnar, verify_segments, ColumnarCheck,
    DoctorReport, TraceReport,
};
pub use export::{load_campaign, load_trace, write_bundle, StoreKind, TRACE_FILE};
pub use fidelity::{fidelity, FidelityReport};
pub use lab::{evaluate, CampaignRun, Evaluation, Lab};
pub use serve::{
    http_fetch, HttpResponse, QueryService, ServeConfig, ServeError, Server, ServerHandle,
    API_ENDPOINTS,
};
pub use shard::{
    merge_dir_columnar, read_segment, run_shard, segment_file_name, segment_paths, write_segment,
    MergedColumnar, MERGE_RULES,
};
pub use sim::{
    publish_sim_metrics, run_simulation, write_sim_artefacts, SIM_KANON_FILE, SIM_REIDENT_FILE,
    SIM_REPORT_FILE,
};

pub use topics_analysis as analysis;
pub use topics_baseline as baseline;
pub use topics_browser as browser;
pub use topics_crawler as crawler;
pub use topics_net as net;
pub use topics_obs as obs;
pub use topics_taxonomy as taxonomy;
pub use topics_webgen as webgen;
