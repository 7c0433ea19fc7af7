//! Attestation-probe micro-benchmarks: the sequential baseline vs the
//! sharded worker pool, plus the warm memo-cache path. The probe set is
//! rebuilt exactly the way a campaign builds it (allow-list plus every
//! encountered party and caller), so the timings reflect the real
//! `attestation-probe` phase at the shared bench scale.

use criterion::Criterion;
use std::collections::BTreeSet;
use std::hint::black_box;
use topics_bench::{banner, shared};
use topics_core::crawler::campaign::{clear_probe_memo, probe_domains, ATTESTATION_SNAPSHOT_DAY};
use topics_core::net::clock::Timestamp;
use topics_core::net::domain::Domain;
use topics_core::net::service::RetryPolicy;
use topics_core::{Lab, LabConfig};

fn main() {
    let sc = shared();
    let outcome = &sc.outcome;

    // The campaign's probe set: allow-list ∪ parties ∪ callers.
    let mut to_probe: BTreeSet<&Domain> = outcome.allow_list.iter().collect();
    for s in &outcome.sites {
        for v in s.before.iter().chain(s.after.iter()) {
            to_probe.extend(v.party_domains.iter());
            to_probe.extend(v.topics_calls.iter().map(|c| &c.caller_site));
        }
    }
    let domains: Vec<&Domain> = to_probe.into_iter().collect();
    let probe_time = Timestamp::from_days(ATTESTATION_SNAPSHOT_DAY);
    let world = sc.world();
    let retry = RetryPolicy::none();

    banner(&format!(
        "Attestation probing — {} distinct domains",
        domains.len()
    ));

    let mut c = Criterion::default().configure_from_args();
    c.bench_function("probe/sequential", |b| {
        b.iter(|| {
            black_box(probe_domains(
                world, &domains, probe_time, &retry, 1, None, None, None,
            ))
        })
    });
    for threads in [4usize, 8] {
        c.bench_function(&format!("probe/threads-{threads}"), |b| {
            b.iter(|| {
                black_box(probe_domains(
                    world, &domains, probe_time, &retry, threads, None, None, None,
                ))
            })
        });
    }

    // Whole campaigns with a warm probe memo: after the first run, every
    // probe is a cache hit (the crawl still dominates; the probe phase
    // collapses to a map scan).
    let sites = 500.min(outcome.sites.len());
    let warm_lab = Lab::new(LabConfig::quick(7, sites).with_probe_cache());
    clear_probe_memo();
    warm_lab.run(); // prime the memo
    c.bench_function("probe/campaign-warm-cache", |b| {
        b.iter(|| black_box(warm_lab.run()))
    });
    clear_probe_memo();

    c.final_summary();
}
