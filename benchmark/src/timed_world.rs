//! `TimedWorld`: the synthetic web seen through a stopwatch.
//!
//! It implements the crawler's `NetworkService` and `CrawlTarget` by
//! delegating every call to a `World`, so a campaign run on it is the
//! campaign run on the world (the delegation test proves the records
//! are byte-identical). On the way it counts and times every fetch by
//! resource kind — the webgen render layer — and replays each document
//! and script body it served through the browser's own `html::parse`
//! and `script::parse`, timing those too. Replay time is kept out of
//! the fetch busy time.

use std::collections::HashSet;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use topics_core::browser::{html, script};
use topics_core::crawler::campaign::CrawlTarget;
use topics_core::net::http::ResourceKind;
use topics_core::net::seed::fnv1a;
use topics_core::net::wellknown::ATTESTATION_PATH;
use topics_core::net::{
    DnsError, Domain, HttpRequest, HttpResponse, NetError, NetworkService, Timestamp, Url,
};
use topics_core::webgen::World;

/// Indices into [`TimedWorld::fetch`].
const DOCUMENT: usize = 0;
const SCRIPT: usize = 1;
const SUBRESOURCE: usize = 2;
const WELL_KNOWN: usize = 3;

/// The per-kind fetch metrics, in [`TimedWorld::fetch`] order.
pub const FETCH_KIND_METRICS: [&str; 4] = [
    "webgen.fetch.document.calls",
    "webgen.fetch.script.calls",
    "webgen.fetch.subresource.calls",
    "webgen.fetch.wellknown.calls",
];

/// Calls, busy nanoseconds and bytes at one boundary. The counters
/// publish nothing else, so relaxed ordering is enough; they are read
/// after the crawl's worker threads have been joined.
#[derive(Debug, Default)]
pub struct Tally {
    calls: AtomicU64,
    busy_ns: AtomicU64,
    bytes: AtomicU64,
}

impl Tally {
    fn add(&self, started: Instant, bytes: usize) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.busy_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Calls counted.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Busy time in milliseconds.
    pub fn busy_ms(&self) -> f64 {
        self.busy_ns.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// Bytes passed through.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

/// A `World` wrapper that times what the crawl asks of it.
pub struct TimedWorld<'w> {
    world: &'w World,
    /// Fetches by kind: document, script, other subresource, and the
    /// attestation probe's well-known file.
    pub fetch: [Tally; 4],
    /// DNS resolutions (ranked and third-party).
    pub resolve: Tally,
    /// Replayed `html::parse` calls over served document bodies.
    pub html_parse: Tally,
    /// Replayed `script::parse` calls over served script bodies.
    pub script_parse: Tally,
    script_digests: Mutex<HashSet<u64>>,
}

impl<'w> TimedWorld<'w> {
    /// Wrap a world with zeroed counters.
    pub fn new(world: &'w World) -> TimedWorld<'w> {
        TimedWorld {
            world,
            fetch: Default::default(),
            resolve: Tally::default(),
            html_parse: Tally::default(),
            script_parse: Tally::default(),
            script_digests: Mutex::new(HashSet::new()),
        }
    }

    /// Fetches of every kind.
    pub fn fetch_calls(&self) -> u64 {
        self.fetch.iter().map(Tally::calls).sum()
    }

    /// Busy time of every fetch, in milliseconds.
    pub fn fetch_busy_ms(&self) -> f64 {
        self.fetch.iter().map(Tally::busy_ms).sum()
    }

    /// Bytes of every fetched body.
    pub fn fetch_bytes(&self) -> u64 {
        self.fetch.iter().map(Tally::bytes).sum()
    }

    /// Distinct script bodies over script bodies parsed: the most a
    /// content-keyed parse cache could leave to do.
    pub fn script_distinct_share(&self) -> f64 {
        let distinct = self.script_digests.lock().expect("digest set lock").len();
        distinct as f64 / self.script_parse.calls().max(1) as f64
    }

    fn kind_of(req: &HttpRequest) -> usize {
        if req.url.path() == ATTESTATION_PATH {
            WELL_KNOWN
        } else {
            match req.kind {
                ResourceKind::Document => DOCUMENT,
                ResourceKind::Script => SCRIPT,
                _ => SUBRESOURCE,
            }
        }
    }

    fn replay(&self, kind: usize, body: &str) {
        if body.is_empty() {
            return;
        }
        match kind {
            DOCUMENT => {
                let started = Instant::now();
                black_box(html::parse(black_box(body)));
                self.html_parse.add(started, body.len());
            }
            SCRIPT => {
                let started = Instant::now();
                let _ = black_box(script::parse(black_box(body)));
                self.script_parse.add(started, body.len());
                self.script_digests
                    .lock()
                    .expect("digest set lock")
                    .insert(fnv1a(body.as_bytes()));
            }
            _ => {}
        }
    }
}

impl NetworkService for TimedWorld<'_> {
    fn resolve_ranked(&self, domain: &Domain) -> Result<(), DnsError> {
        let started = Instant::now();
        let result = self.world.resolve_ranked(domain);
        self.resolve.add(started, 0);
        result
    }

    fn resolve_third_party(&self, domain: &Domain) -> Result<(), DnsError> {
        let started = Instant::now();
        let result = self.world.resolve_third_party(domain);
        self.resolve.add(started, 0);
        result
    }

    fn fetch(&self, request: &HttpRequest, now: Timestamp) -> Result<HttpResponse, NetError> {
        let kind = Self::kind_of(request);
        let started = Instant::now();
        let result = self.world.fetch(request, now);
        let bytes = result.as_ref().map_or(0, |r| r.body.len());
        self.fetch[kind].add(started, bytes);
        if let Ok(response) = &result {
            if response.status.is_success() {
                self.replay(kind, &response.body);
            }
        }
        result
    }
}

impl CrawlTarget for TimedWorld<'_> {
    fn targets(&self) -> Vec<Url> {
        self.world.targets()
    }
    fn allow_list_snapshot(&self) -> Vec<Domain> {
        self.world.allow_list_snapshot()
    }
    fn campaign_seed(&self) -> u64 {
        self.world.campaign_seed()
    }
    fn probe_cache_key(&self) -> Option<u64> {
        self.world.probe_cache_key()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topics_core::crawler::campaign::run_campaign;
    use topics_core::crawler::columnar::ColumnarCampaign;
    use topics_core::net::fault::FaultProfile;
    use topics_core::LabConfig;

    fn store_of(world: &(impl CrawlTarget + ?Sized), config: &LabConfig) -> Vec<u8> {
        let outcome = run_campaign(world, &config.campaign);
        ColumnarCampaign::from_outcome(&outcome).bytes().to_vec()
    }

    #[test]
    fn timed_world_delegates_without_changing_the_crawl() {
        for config in [
            LabConfig::quick(17, 150).with_threads(2),
            LabConfig::quick(17, 150)
                .with_threads(2)
                .with_fault_profile(FaultProfile::light()),
        ] {
            let world = World::generate(config.world.clone());
            let plain = store_of(&world, &config);
            let timed = TimedWorld::new(&world);
            assert_eq!(store_of(&timed, &config), plain, "same campaign.col bytes");

            let per_kind: u64 = timed.fetch.iter().map(Tally::calls).sum();
            assert_eq!(per_kind, timed.fetch_calls());
            assert!(timed.fetch[DOCUMENT].calls() > 0, "documents fetched");
            assert!(timed.fetch[SCRIPT].calls() > 0, "scripts fetched");
            assert!(
                timed.fetch[WELL_KNOWN].calls() > 0,
                "attestation probes fetched"
            );
            assert!(timed.html_parse.calls() > 0 && timed.html_parse.bytes() > 0);
            assert!(timed.script_parse.calls() > 0);
            let share = timed.script_distinct_share();
            assert!(share > 0.0 && share <= 1.0, "distinct share {share}");
        }
    }
}
