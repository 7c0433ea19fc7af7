//! Integration: determinism and configuration isolation.
//!
//! The whole workspace derives from a single campaign seed; two runs
//! with the same seed must agree bit for bit, different seeds must
//! differ, and the allow-list ablation setups must only change what
//! they claim to change.

use topics_core::analysis::dataset::{DatasetId, Datasets};
use topics_core::crawler::campaign::AllowListSetup;
use topics_core::crawler::record::CampaignOutcome;
use topics_core::net::fault::FaultProfile;
use topics_core::{CampaignRun, Lab, LabConfig};

const SITES: usize = 600;

fn run(seed: u64) -> CampaignRun {
    Lab::new(LabConfig::quick(seed, SITES)).run()
}

fn call_signature(outcome: &CampaignOutcome) -> Vec<(String, String, usize)> {
    outcome
        .sites
        .iter()
        .flat_map(|s| s.before.iter().chain(s.after.iter()))
        .map(|v| {
            (
                v.website.as_str().to_owned(),
                format!("{:?}", v.phase),
                v.topics_calls.len(),
            )
        })
        .collect()
}

#[test]
fn same_seed_is_bit_identical() {
    let a = run(11);
    let b = run(11);
    assert_eq!(a.visited_count(), b.visited_count());
    assert_eq!(a.accepted_count(), b.accepted_count());
    assert_eq!(call_signature(&a), call_signature(&b));
    // Full record equality via serde.
    let ja = serde_json::to_string(&a.outcome).unwrap();
    let jb = serde_json::to_string(&b.outcome).unwrap();
    assert_eq!(ja, jb, "identical seeds produce identical campaigns");
}

#[test]
fn same_seed_metrics_snapshots_are_byte_identical_without_wall_clock() {
    let a = run(13);
    let b = run(13);
    // Wall-clock series (phase gauges, anything with "wall" in the
    // name) legitimately differ between runs; everything else — counts
    // and simulated-time histograms — must agree bit for bit.
    let sa = a.metrics.clone().strip_wall_clock();
    let sb = b.metrics.clone().strip_wall_clock();
    let ja = serde_json::to_string(&sa).unwrap();
    let jb = serde_json::to_string(&sb).unwrap();
    assert_eq!(ja, jb, "stripped metric snapshots are byte-identical");
}

#[test]
fn metrics_reconcile_with_the_outcome_and_report_counts() {
    let run = run(17);
    let s = &run.metrics;
    // The tally series equal the outcome's own §2.4 aggregates …
    assert_eq!(s.counter("sites_attempted_total"), SITES as u64);
    assert_eq!(s.counter("visits_total"), run.visited_count() as u64);
    assert_eq!(
        s.counter("banner_accepted_total"),
        run.accepted_count() as u64
    );
    // … the live counters agree with the tally taken from the records …
    assert_eq!(
        s.counter("crawl_visits_ok_total"),
        s.counter("visits_total")
    );
    assert_eq!(
        s.counter("crawl_banner_accepted_total"),
        s.counter("banner_accepted_total")
    );
    // … and the class partition covers every recorded call exactly once.
    let recorded: usize = run
        .sites
        .iter()
        .flat_map(|site| site.before.iter().chain(site.after.iter()))
        .map(|v| v.topics_calls.len())
        .sum();
    assert_eq!(s.counter("topics_calls_recorded_total"), recorded as u64);
    assert_eq!(s.counter_sum("topics_calls_total"), recorded as u64);
    // The browser-side live series counts the same executed calls the
    // engine-enabled browser observed (every call is either permitted or
    // blocked).
    assert_eq!(
        s.counter("topics_api_permitted_total") + s.counter("topics_api_blocked_total"),
        s.counter_sum("topics_api_calls_total")
    );
}

#[test]
fn different_seeds_differ() {
    let a = run(11);
    let b = run(12);
    assert_ne!(call_signature(&a), call_signature(&b));
}

fn run_faulty(world_seed: u64, fault_seed: u64) -> CampaignRun {
    Lab::new(
        LabConfig::quick(world_seed, SITES)
            .with_fault_profile(FaultProfile::light())
            .with_fault_seed(fault_seed),
    )
    .run()
}

#[test]
fn same_world_and_fault_seed_is_bit_identical() {
    let a = run_faulty(11, 5);
    let b = run_faulty(11, 5);
    let ja = serde_json::to_string(&a.outcome).unwrap();
    let jb = serde_json::to_string(&b.outcome).unwrap();
    assert_eq!(ja, jb, "same world + fault seed reproduces the campaign");
    let sa = serde_json::to_string(&a.metrics.clone().strip_wall_clock()).unwrap();
    let sb = serde_json::to_string(&b.metrics.clone().strip_wall_clock()).unwrap();
    assert_eq!(sa, sb, "fault metrics are reproducible too");
}

#[test]
fn different_fault_seeds_differ_only_where_faults_landed() {
    let a = run_faulty(11, 5);
    let b = run_faulty(11, 6);

    // The fault plan moved, so the campaigns as a whole differ …
    let ja = serde_json::to_string(&a.outcome).unwrap();
    let jb = serde_json::to_string(&b.outcome).unwrap();
    assert_ne!(ja, jb, "moving the fault seed must move some faults");

    // … but the perturbation is confined to fault-attributed records: a
    // site that came back Complete (zero fault scars) under BOTH plans
    // never saw an injected fault in either run, so its record is
    // byte-identical.
    use topics_core::crawler::record::VisitOutcome;
    let mut untouched = 0usize;
    for (x, y) in a.sites.iter().zip(&b.sites) {
        assert_eq!(x.website, y.website, "site order is world-determined");
        if x.outcome() == VisitOutcome::Complete && y.outcome() == VisitOutcome::Complete {
            assert_eq!(
                serde_json::to_string(x).unwrap(),
                serde_json::to_string(y).unwrap(),
                "{}: fault-free records must not feel the fault seed",
                x.website
            );
            untouched += 1;
        }
    }
    // A site makes dozens of exchanges across two visits, so even a 5%
    // per-exchange rate touches most sites — but the check above is only
    // meaningful if a non-trivial fault-free population exists in both.
    assert!(
        untouched > 10,
        "too few doubly-clean sites to make the check meaningful ({untouched})"
    );
}

#[test]
fn probe_thread_count_does_not_change_campaign_or_tallies() {
    use topics_core::crawler::shard::tally_snapshot;
    // The crawl and probe phases share one worker pool, but the campaign
    // record and the tally metrics derived from it must be byte-identical
    // for any `--threads` (crawl and probe parallelism alike) — with and
    // without fault injection.
    for fault in [None, Some("0.05")] {
        let mut reference: Option<(String, String)> = None;
        for pt in [1usize, 4, 8] {
            let mut cfg = LabConfig::quick(61, SITES).with_threads(pt);
            if let Some(rate) = fault {
                cfg = cfg.with_fault_profile(FaultProfile::parse(rate).unwrap());
            }
            let run = Lab::new(cfg).run();
            let campaign = serde_json::to_string(&run.outcome).unwrap();
            let tally = serde_json::to_string(&tally_snapshot(&run.outcome)).unwrap();
            match &reference {
                None => reference = Some((campaign, tally)),
                Some((c, t)) => {
                    assert_eq!(
                        c, &campaign,
                        "campaign differs at threads={pt}, fault={fault:?}"
                    );
                    assert_eq!(
                        t, &tally,
                        "metrics tally differs at threads={pt}, fault={fault:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn allow_list_setups_only_change_decisions() {
    let corrupted = Lab::new(LabConfig::quick(41, SITES)).run();
    let healthy =
        Lab::new(LabConfig::quick(41, SITES).with_allow_list(AllowListSetup::Healthy)).run();

    // Same sites visited, same objects loaded.
    assert_eq!(corrupted.visited_count(), healthy.visited_count());
    for (a, b) in corrupted.sites.iter().zip(&healthy.sites) {
        assert_eq!(a.website, b.website);
        match (&a.before, &b.before) {
            (Some(x), Some(y)) => {
                assert_eq!(x.party_domains, y.party_domains);
                assert_eq!(x.object_count, y.object_count);
            }
            (None, None) => {}
            _ => panic!("visit success must not depend on the allow-list"),
        }
    }

    // But executed calls differ: the healthy browser blocks non-enrolled
    // callers.
    let executed_unallowed = |o: &CampaignOutcome| {
        let ds = Datasets::new(o);
        ds.calls(DatasetId::AfterAccept)
            .filter(|(_, c)| !o.is_allowed(&c.caller_site))
            .count()
    };
    assert!(executed_unallowed(&corrupted) > 0);
    assert_eq!(executed_unallowed(&healthy), 0);

    // Legitimate (allowed) callers behave identically in both setups.
    let legit_calls = |o: &CampaignOutcome| {
        let ds = Datasets::new(o);
        let mut v: Vec<String> = ds
            .calls(DatasetId::AfterAccept)
            .filter(|(_, c)| o.is_allowed(&c.caller_site))
            .map(|(site, c)| format!("{site}:{}", c.caller_site))
            .collect();
        v.sort();
        v
    };
    assert_eq!(legit_calls(&corrupted), legit_calls(&healthy));
}

#[test]
fn fixed_browser_blocks_everything_under_corruption() {
    let fixed =
        Lab::new(LabConfig::quick(51, SITES).with_allow_list(AllowListSetup::CorruptedFailClosed))
            .run();
    let ds = Datasets::new(&fixed);
    assert_eq!(
        ds.calls(DatasetId::AfterAccept).count() + ds.calls(DatasetId::BeforeAccept).count(),
        0,
        "fail-closed + corrupt DB executes no calls at all"
    );
}

/// FNV-1a digests of the three deterministic artefacts of an 800-site,
/// seed-5, light-fault, 2-thread crawl: `campaign.col`, the stripped
/// span trace as JSONL, and the rendered report. They were recorded
/// before the page pipeline's allocation work, so any change to the
/// browser, the HTML tokenizer, the public-suffix code or the world's
/// routing that moves a single output byte fails here.
/// `scripts/ci.sh` checks the same crawl through the CLI against
/// `tests/golden/crawl_800_seed5.sha256`.
#[test]
fn golden_crawl_digests_are_unchanged() {
    use topics_core::crawler::columnar::ColumnarCampaign;
    use topics_core::net::seed::fnv1a;
    use topics_core::obs::Obs;

    let config = LabConfig::quick(5, 800)
        .with_threads(2)
        .with_fault_profile(FaultProfile::light());
    let obs = Obs::new().with_trace();
    let run = Lab::new(config).run_observed(&obs);
    let store = fnv1a(ColumnarCampaign::from_outcome(&run.outcome).bytes());
    let trace = fnv1a(obs.trace.finish().stripped().to_jsonl().as_bytes());
    let report = fnv1a(
        topics_core::evaluate(&run.outcome)
            .render_report()
            .as_bytes(),
    );
    assert_eq!(
        [store, trace, report],
        [
            0x23c7_da1a_365b_9152,
            0x891d_809d_92f8_e339,
            0x5ef4_b299_807d_b5f9
        ],
        "campaign.col, stripped trace, report digests: \
         [{store:#018x}, {trace:#018x}, {report:#018x}]"
    );
}

/// FNV-1a digests of the same 800-site, seed-5, light-fault campaign
/// run as three shards and merged by `merge_dir_columnar`: the merged
/// stripped trace, read back from the `trace.col` that `merge` writes
/// and exported as JSONL, and `campaign.col`. Both equal the crawl's
/// golden digests above, as the shard contract demands; the
/// `trace.col` bytes are pinned too. The shard-equivalence tests only
/// compare merges with each other; this pins the merge itself.
/// `scripts/ci.sh` checks the same merge through the CLI against
/// `tests/golden/merge_800_seed5.sha256`.
#[test]
fn golden_merge_digests_are_unchanged() {
    use topics_core::crawler::spans::{decode_trace, encode_trace};
    use topics_core::net::seed::fnv1a;
    use topics_core::obs::Obs;
    use topics_core::{merge_dir_columnar, run_shard, write_segment};

    let config = LabConfig::quick(5, 800).with_fault_profile(FaultProfile::light());
    let dir = std::env::temp_dir().join(format!("topics-golden-merge-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for shard in 0..3 {
        let segment = run_shard(&config, shard, 3, &Obs::new().with_trace());
        write_segment(&dir, &segment).unwrap();
    }
    let merged = merge_dir_columnar(&dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    let trace_col = encode_trace(&merged.trace);
    let decoded = decode_trace(&trace_col).expect("trace.col decodes");
    let trace = fnv1a(decoded.to_jsonl().as_bytes());
    let store = fnv1a(merged.store.bytes());
    let trace_col = fnv1a(&trace_col);
    assert_eq!(
        [trace, store, trace_col],
        [
            0x891d_809d_92f8_e339,
            0x23c7_da1a_365b_9152,
            0x94e7_85da_c519_ea10
        ],
        "merged trace (JSONL export of the decoded trace.col), campaign.col, trace.col \
         digests: [{trace:#018x}, {store:#018x}, {trace_col:#018x}]"
    );
}

/// FNV-1a digests of every `/api/*` body `QueryService::build` renders
/// from the same 800-site, seed-5, light-fault, 2-thread crawl's
/// `campaign.col`, plus the raw `calls.csv` and `sites.csv` that
/// `write_artefacts` writes next to it. They were recorded before the
/// campaign index dropped its ordered string sets, so an index change
/// that moves one byte of a figure, Table 1 or the anomalous-call
/// statistics fails here, not only one that moves the report.
#[test]
fn golden_api_body_digests_are_unchanged() {
    use topics_core::net::seed::fnv1a;
    use topics_core::{evaluate, write_bundle, QueryService, StoreKind};

    let config = LabConfig::quick(5, 800)
        .with_threads(2)
        .with_fault_profile(FaultProfile::light());
    let outcome = Lab::new(config).run().outcome;
    let dir = std::env::temp_dir().join(format!("topics-golden-api-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    write_bundle(
        &dir,
        &outcome,
        &evaluate(&outcome),
        false,
        StoreKind::Columnar,
    )
    .unwrap();
    let service = QueryService::build(&dir.join("campaign.col"), None).expect("service builds");

    let mut digests: Vec<(&str, u64)> = [
        "/api/table1",
        "/api/fig2",
        "/api/fig3",
        "/api/fig5",
        "/api/fig6",
        "/api/fig7",
        "/api/anomalous",
    ]
    .into_iter()
    .map(|path| {
        let (_, body) = service.body(path).expect("endpoint rendered");
        (path, fnv1a(body))
    })
    .collect();
    for file in ["calls.csv", "sites.csv"] {
        digests.push((file, fnv1a(&std::fs::read(dir.join(file)).unwrap())));
    }
    std::fs::remove_dir_all(&dir).unwrap();

    let want: [(&str, u64); 9] = [
        ("/api/table1", 0x62a8_fc51_d6d2_05c6),
        ("/api/fig2", 0x4501_94d7_d26e_958a),
        ("/api/fig3", 0xeca4_9463_1465_1153),
        ("/api/fig5", 0x20a5_559d_216a_19bd),
        ("/api/fig6", 0xb352_7311_1aa7_b515),
        ("/api/fig7", 0xe6bd_563e_e234_89f5),
        ("/api/anomalous", 0x6299_0876_504c_40a1),
        ("calls.csv", 0x4eb1_253e_3d81_72ab),
        ("sites.csv", 0x8274_2897_a208_1cfa),
    ];
    assert_eq!(digests, want, "body digests: {digests:#018x?}");
}
