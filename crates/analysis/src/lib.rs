//! # topics-analysis — datasets and the paper's evaluation
//!
//! Takes a [`topics_crawler::record::CampaignOutcome`] and regenerates
//! every table and figure of "A First View of Topics API Usage in the
//! Wild":
//!
//! * [`dataset`] — the D_BA / D_AA views and the Allowed/Attested CP
//!   classification (§2.3–2.4).
//! * [`index`] — the shared [`CampaignIndex`] every module
//!   reads instead of re-scanning the outcome.
//! * [`colscan`] — the same aggregates computed straight from a
//!   columnar store's columns, no row structs materialised.
//! * [`mod@table1`] — Table 1, the overall usage matrix.
//! * [`figures`] — Figures 2 (presence vs calls), 3 (enabled fractions),
//!   5 (questionable calls per CP) and 6 (geographic breakdown).
//! * [`cmp_usage`] — Figure 7, CMPs vs questionable calls.
//! * [`anomalous`] — the §4 statistics (non-allowed callers, the 72%
//!   same-label share, GTM co-occurrence, all-JavaScript calls).
//! * [`calltypes`] — the call-type mix per caller class (§2.2's
//!   JavaScript / Fetch / IFrame distinction).
//! * [`dossier`] — a per-CP drill-down report (classification, presence,
//!   experiment arm, call types, regional footprint).
//! * [`concentration`] — top-k shares and the Gini coefficient of call
//!   volume (how centralised Topics usage is).
//! * [`mod@timeline`] — the §3 enrolment timeline from attestation files.
//! * [`abtest`] — §3's A/B evidence: fraction clustering and ON/OFF
//!   alternation across repeated visits.
//! * [`report`] — plain-text table/bar rendering shared by examples and
//!   the bench harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abtest;
pub mod anomalous;
pub mod calltypes;
pub mod cmp_usage;
pub mod colscan;
pub mod concentration;
pub mod dataset;
pub mod dossier;
pub mod export;
pub mod figures;
pub mod index;
pub mod report;
pub mod table1;
pub mod timeline;

#[cfg(test)]
pub(crate) mod testutil;

// The `index_edge_cases` suite's outcomes, for the index's unit tests.
#[cfg(test)]
#[path = "../tests/support/index_cases.rs"]
mod index_cases;

// Counting stays off until a test turns it on (`index_alloc`'s test).
#[cfg(test)]
#[global_allocator]
static ALLOC: topics_obs::alloc::CountingAlloc = topics_obs::alloc::CountingAlloc;

pub use abtest::{alternation_series, clustering_share, fit_fraction, AlternationSeries};
pub use anomalous::{anomalous_stats, AnomalousStats};
pub use calltypes::{call_type_mix, CallTypeMix, TypeCounts};
pub use cmp_usage::{fig7, CmpRow, Fig7};
pub use colscan::ColumnIndex;
pub use concentration::{concentration, gini, Concentration};
pub use dataset::{CpClass, DatasetId, Datasets};
pub use dossier::{dossier, Dossier};
pub use figures::{fig2, fig3, fig5, fig6, GeoRow, PresenceRow, QuestionableRow};
pub use index::{CampaignIndex, PresenceCount, VisitTags};
pub use table1::{table1, Table1};
pub use timeline::{timeline, Timeline};
