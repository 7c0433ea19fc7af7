//! Shard segment codec and merge micro-benchmarks.
//!
//! A sharded campaign pays three costs the single-process run does not:
//! encoding each shard's segment, decoding every segment back, and the
//! deterministic merge, streamed into the columnar writer, that must
//! reproduce `campaign.col` byte for byte. The split here is
//! synthesised from the shared campaign via
//! `split_outcome`, so the segments carry exactly the payload a real
//! `topics-lab shard` run would write (traces excluded — trace merge is
//! covered by the obs unit suite).

use criterion::Criterion;
use std::hint::black_box;
use topics_bench::{banner, shared};
use topics_core::crawler::{merge_to_store, split_outcome, Segment, ShardPlan};
use topics_core::net::seed;

fn main() {
    let sc = shared();
    let outcome = &sc.outcome;
    let world_seed = sc.world().seed();
    let fault = format!("{:?}", sc.lab.campaign.fault);
    let fault_seed = sc
        .lab
        .campaign
        .fault_seed
        .unwrap_or_else(|| seed::derive(world_seed, "faults"));

    banner(&format!(
        "Shard merge — {} sites, {} probes",
        outcome.sites.len(),
        outcome.attestation_probes.len()
    ));

    let mut c = Criterion::default().configure_from_args();
    for shards in [2usize, 4, 8] {
        let plan = ShardPlan::new(shards, outcome.sites.len());
        let segments = split_outcome(outcome, plan, world_seed, &fault, fault_seed);
        let encoded: Vec<Vec<u8>> = segments.iter().map(Segment::encode).collect();

        c.bench_function(&format!("shard/encode-{shards}"), |b| {
            b.iter(|| {
                black_box(
                    segments
                        .iter()
                        .map(Segment::encode)
                        .collect::<Vec<Vec<u8>>>(),
                )
            })
        });
        c.bench_function(&format!("shard/decode-{shards}"), |b| {
            b.iter(|| {
                black_box(
                    encoded
                        .iter()
                        .map(|e| Segment::decode(e).expect("own segments decode"))
                        .collect::<Vec<Segment>>(),
                )
            })
        });
        c.bench_function(&format!("shard/merge-{shards}"), |b| {
            b.iter(|| {
                black_box(merge_to_store(segments.iter().cloned()).expect("own segments merge"))
            })
        });
    }
    c.final_summary();
}
