//! # topics-baseline — the Topics re-identification testbed
//!
//! The paper frames the Topics API as the replacement for cookie-based
//! cross-site tracking (§1) and cites re-identification analyses of the
//! API ([17, 23]). This crate measures that residual risk with one
//! population engine:
//!
//! * [`population`] — the browsable site universe, indexed by
//!   classifier topic;
//! * [`arena`] — the population itself: interest-driven browsing over
//!   the universe, advanced epoch by epoch into one epoch-major arena of
//!   packed top-5 slots plus per-user taxonomy bitsets, in parallel and
//!   byte-identical for any thread count. Its top-5 semantics are
//!   checked against the real [`topics_browser::topics::TopicsEngine`]
//!   by `tests/arena_vs_engine.rs`;
//! * [`simulate`] — k-anonymity and cross-context re-identification
//!   curves over the arena, with sparse CSR profiles and an
//!   inverted-index attack kernel (the `topics-lab simulate` engine).
//!
//! The `sim_engine` bench times the engine's stages and sweeps the
//! attack's accuracy against noise and population size.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod population;
pub mod simulate;

pub use arena::{PopulationArena, TopicBitset};
pub use population::SiteUniverse;
pub use simulate::{KanonRow, ReidentRow, SimConfig, SimRun, SimStats};
