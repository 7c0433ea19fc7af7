//! # topics-net — simulated network substrate
//!
//! This crate provides the networking primitives on which the rest of the
//! `topics-lab` workspace is built. The original paper ("A First View of
//! Topics API Usage in the Wild", CoNEXT '24) crawled the live web; this
//! reproduction replaces the live web with a deterministic simulation, and
//! this crate is the boundary between "the world" (implemented by
//! `topics-webgen`) and "the clients" (the browser simulator and the
//! crawler).
//!
//! It contains:
//!
//! * [`domain`] / [`url`] — strict hostname and URL types used everywhere.
//! * [`psl`] — an embedded public-suffix subset and eTLD+1 (registrable
//!   domain) computation, the unit at which the Topics API and the paper's
//!   analysis operate.
//! * [`region`] — the paper's Figure 6 TLD→region mapping
//!   (`.com`, `.jp`, `.ru`, EU, other).
//! * [`dns`] — a deterministic DNS resolver with a configurable failure
//!   model (the paper successfully visits 43,405 of 50,000 sites; the rest
//!   fail with resolution/connection errors).
//! * [`http`] — request/response types, headers, status codes and the
//!   `Sec-Browsing-Topics` request header used by fetch-type Topics calls.
//! * [`service`] — the [`service::NetworkService`] trait a simulated web
//!   must implement, plus redirect-following helpers and the bounded
//!   retry/backoff layer ([`service::RetryPolicy`]).
//! * [`fault`] — seeded, deterministic fault injection
//!   ([`fault::FaultPlan`] / [`fault::FaultyService`]): DNS failures,
//!   connection resets, HTTP 5xx, slow responses, truncated attestation
//!   JSON, and corrupt-allow-list scenarios at tunable rates.
//! * [`wellknown`] — the `/.well-known/privacy-sandbox-attestations.json`
//!   file format (parsing, validation, issue dates).
//! * [`latency`] — a deterministic per-host/per-kind latency model, so
//!   page-load durations (and the paper's ≈one-day crawl span) are
//!   emergent quantities.
//! * [`metrics`] — observability hooks ([`metrics::NetMetrics`]): request
//!   counts per resource kind, exchange-latency histogram, DNS failures.
//! * [`clock`] — simulated time ([`clock::Timestamp`], [`clock::SimClock`]);
//!   no wall clock is used anywhere in the workspace.
//! * [`seed`] — seed-derivation utilities (splitmix64 / FNV-1a) so that all
//!   randomness in the workspace flows deterministically from one campaign
//!   seed.
//! * [`pool`] — the one worker pool ([`pool::run`]): a claim queue whose
//!   results come back in job order for any thread count, with
//!   per-worker utilisation spans built in.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod dns;
pub mod domain;
pub mod error;
pub mod fault;
pub mod http;
pub mod latency;
pub mod metrics;
pub mod pool;
pub mod psl;
pub mod region;
pub mod seed;
pub mod service;
pub mod url;
pub mod wellknown;

pub use clock::{SimClock, Timestamp};
pub use dns::{DnsError, DnsPolicy, SimDns};
pub use domain::Domain;
pub use error::NetError;
pub use fault::{FaultPlan, FaultProfile, FaultyService};
pub use http::{HttpRequest, HttpResponse, Method, StatusCode};
pub use metrics::NetMetrics;
pub use region::Region;
pub use service::NetworkService;
pub use url::Url;
