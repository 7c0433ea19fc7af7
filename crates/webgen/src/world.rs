//! The assembled synthetic web.
//!
//! [`World`] owns the full ground truth — the ranked site list, every
//! site's spec, the ad-platform registry — and implements
//! [`NetworkService`]: DNS with the paper's failure rates and an HTTP
//! handler that routes every URL the browser can produce: site pages
//! (rendered against the visitor's consent cookie), GTM containers, ad
//! tags and frames, CMP loaders, attestation well-known files, sibling ad
//! frames, corporate parent frames, alias redirects, and the long tail of
//! minor third parties.

use crate::names;
use crate::parties::{build_registry_with, AdPlatform, RegistryScenario};
use crate::render;
use crate::site::{generate_site, SiteModelConfig, SiteSpec};
use std::collections::HashMap;
use topics_net::clock::Timestamp;
use topics_net::dns::{DnsError, DnsPolicy, SimDns};
use topics_net::domain::Domain;
use topics_net::http::{HttpRequest, HttpResponse, OBSERVE_BROWSING_TOPICS};
use topics_net::psl::{registrable_domain, registrable_str};
use topics_net::seed;

use topics_net::service::NetworkService;
use topics_net::url::Url;
use topics_net::wellknown::{AttestationFile, ATTESTATION_PATH};
use topics_net::NetError;

/// Simulation day on which the October 17th, 2024 attestation-schema
/// update lands (adds the `enrollment_site` field). Day 0 = 2023-06-01.
pub const ENROLLMENT_SITE_UPDATE_DAY: u64 = 504;

/// World construction parameters.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Campaign seed: all ground truth derives from it.
    pub seed: u64,
    /// Number of ranked sites (the paper crawls 50,000).
    pub num_sites: usize,
    /// Site-model behaviour rates.
    pub site_model: SiteModelConfig,
    /// DNS failure model.
    pub dns_policy: DnsPolicy,
    /// Which deployment era the platform registry models.
    pub scenario: RegistryScenario,
}

impl WorldConfig {
    /// The paper's configuration at full scale.
    pub fn paper(seed: u64) -> WorldConfig {
        WorldConfig {
            seed,
            num_sites: 50_000,
            site_model: SiteModelConfig::default(),
            dns_policy: DnsPolicy::paper(),
            scenario: RegistryScenario::Paper2024,
        }
    }

    /// A scaled-down configuration for tests and quick runs; behaviour
    /// rates are identical, only the population shrinks.
    pub fn scaled(seed: u64, num_sites: usize) -> WorldConfig {
        WorldConfig {
            seed,
            num_sites,
            site_model: SiteModelConfig::default(),
            dns_policy: DnsPolicy::paper(),
            scenario: RegistryScenario::Paper2024,
        }
    }
}

/// What answers the paths of one registrable domain, other than the
/// attestation file. When a domain plays several roles, the first role
/// in declaration order wins.
#[derive(Debug, Clone, Copy)]
enum Serves {
    /// A sibling ad domain (`ad.<label>.net`) of the site at this rank.
    Sibling(usize),
    /// A corporate parent; the flag says whether its frame calls Topics.
    Parent(bool),
    /// The ranked site at this rank.
    Site(usize),
    /// The canonical domain an alias site at this rank redirects to.
    Canonical(usize),
    /// The ad platform at this registry index.
    Party(usize),
}

/// The world's routing entry for one registrable domain.
#[derive(Debug, Clone, Copy)]
struct Route {
    serves: Serves,
    /// Registry index of the ad platform at this domain, whatever else
    /// the domain serves: it owns the attestation file, and party paths
    /// on a domain that is also a ranked site.
    party: Option<usize>,
}

/// The synthetic web.
pub struct World {
    config: WorldConfig,
    registry: Vec<AdPlatform>,
    /// `(tag script, frame document)` of each platform, by registry
    /// index. Both are immutable, so they are rendered once.
    party_bodies: Vec<(String, String)>,
    /// The long-tail third-party domains, by pool index.
    minor_domains: Vec<Domain>,
    sites: Vec<SiteSpec>,
    routes: HashMap<Domain, Route>,
    dns: SimDns,
}

impl World {
    /// Build the world: generate the registry and every site spec.
    pub fn generate(config: WorldConfig) -> World {
        let registry = build_registry_with(config.seed, config.scenario);
        let sites: Vec<SiteSpec> = (0..config.num_sites)
            .map(|rank| generate_site(config.seed, rank, &registry, &config.site_model))
            .collect();
        let party_bodies = registry
            .iter()
            .map(|p| (p.tag_script(), p.frame_document()))
            .collect();
        let minor_domains = (0..config.site_model.minor_pool)
            .map(|i| names::minor_party_domain(config.seed, i))
            .collect();
        let routes = Self::routes(&registry, &sites);
        let dns = SimDns::new(config.dns_policy.clone(), config.seed);
        World {
            config,
            registry,
            party_bodies,
            minor_domains,
            sites,
            routes,
            dns,
        }
    }

    /// One routing entry per registrable domain the world serves. Roles
    /// are laid down from the weakest ([`Serves::Party`]) to the
    /// strongest ([`Serves::Sibling`]), each replacing the one before,
    /// and within a role a later site replaces an earlier one.
    fn routes(registry: &[AdPlatform], sites: &[SiteSpec]) -> HashMap<Domain, Route> {
        let mut routes: HashMap<Domain, Route> =
            HashMap::with_capacity(sites.len() + registry.len());
        let mut set = |domain: &Domain, serves: Serves| {
            routes
                .entry(domain.clone())
                .and_modify(|r| r.serves = serves)
                .or_insert(Route {
                    serves,
                    party: None,
                });
        };
        for (i, p) in registry.iter().enumerate() {
            set(&p.domain, Serves::Party(i));
        }
        for (rank, spec) in sites.iter().enumerate() {
            if let Some(canonical) = &spec.alias_of {
                set(canonical, Serves::Canonical(rank));
            }
        }
        for (rank, spec) in sites.iter().enumerate() {
            set(&spec.domain, Serves::Site(rank));
        }
        for spec in sites {
            if let Some((parent, calls)) = &spec.parent_frame {
                set(parent, Serves::Parent(*calls));
            }
        }
        for (rank, spec) in sites.iter().enumerate() {
            if let Some(sibling) = &spec.sibling_frame {
                set(&registrable_domain(sibling), Serves::Sibling(rank));
            }
        }
        for (i, p) in registry.iter().enumerate() {
            if let Some(route) = routes.get_mut(&p.domain) {
                route.party = Some(i);
            }
        }
        routes
    }

    /// The campaign seed.
    pub fn seed(&self) -> u64 {
        self.config.seed
    }

    /// A stable hash of the full construction config. Two worlds with
    /// equal fingerprints serve identical content for the same request
    /// and timestamp, so the value is safe to use as a memo-cache key.
    pub fn fingerprint(&self) -> u64 {
        seed::fnv1a(format!("{:?}", self.config).as_bytes())
    }

    /// The ranked site list, in rank order — the crawl targets.
    pub fn tranco_list(&self) -> Vec<Url> {
        self.sites
            .iter()
            .map(|s| Url::https(s.domain.clone(), "/"))
            .collect()
    }

    /// All site specs (ground truth, used by tests and ablations).
    pub fn sites(&self) -> &[SiteSpec] {
        &self.sites
    }

    /// The ad-platform registry (ground truth).
    pub fn registry(&self) -> &[AdPlatform] {
        &self.registry
    }

    /// The allow-list the browser's attestation component would download
    /// — every `allowed` platform's domain (193 at paper scale).
    pub fn allow_list(&self) -> Vec<Domain> {
        self.registry
            .iter()
            .filter(|p| p.allowed)
            .map(|p| p.domain.clone())
            .collect()
    }

    /// The minor-party domain for a pool index.
    fn minor_domain(&self, idx: u64) -> Domain {
        self.minor_domains[idx as usize].clone()
    }

    /// Whether the request carries the consent cookie for any site.
    fn request_consented(req: &HttpRequest) -> bool {
        req.headers
            .get("Cookie")
            .is_some_and(|c| c.contains("euconsent=granted"))
    }

    /// Serve a ranked site's own paths.
    fn serve_site(&self, spec: &SiteSpec, req: &HttpRequest) -> HttpResponse {
        match req.url.path() {
            "/" => {
                // Pathological sites (≈0.3% of the ranked web) exercise
                // the crawler's failure handling.
                match spec.pathology {
                    Some(crate::site::Pathology::RedirectLoop) => {
                        return HttpResponse::redirect(&Url::https(spec.domain.clone(), "/"));
                    }
                    Some(crate::site::Pathology::ServerError) => {
                        let mut r = HttpResponse::not_found();
                        r.status = topics_net::http::StatusCode::InternalServerError;
                        return r;
                    }
                    Some(crate::site::Pathology::EmptyPage) => {
                        return HttpResponse::ok("text/html", "");
                    }
                    None => {}
                }
                if let Some(canonical) = &spec.alias_of {
                    // §4 case (ii): the ranked entry redirects to the
                    // canonical corporate domain.
                    return HttpResponse::redirect(&Url::https(canonical.clone(), "/"));
                }
                let consented = Self::request_consented(req);
                let visitor_is_eu = req.vantage == topics_net::http::Vantage::Europe;
                let html =
                    render::render_page_for(spec, &self.registry, consented, visitor_is_eu, |i| {
                        self.minor_domain(i)
                    });
                HttpResponse::ok("text/html", html)
            }
            "/main.css" => HttpResponse::ok("text/css", "body { margin: 0 }"),
            "/hero.jpg" => HttpResponse::ok("image/jpeg", "\u{1}JPG"),
            _ => HttpResponse::not_found(),
        }
    }

    /// Serve the paths of the ad platform at registry index `index`.
    fn serve_party(&self, index: usize, req: &HttpRequest) -> HttpResponse {
        let party = &self.registry[index];
        let (tag_script, frame_document) = &self.party_bodies[index];
        match req.url.path() {
            "/tag.js" => HttpResponse::ok("text/javascript", tag_script.as_str()),
            "/frame" => HttpResponse::ok("text/html", frame_document.as_str()),
            "/afr" => HttpResponse::ok("text/html", "<html><div>ad</div></html>"),
            "/bid" => {
                // Ad servers read the Sec-Browsing-Topics request header
                // (the fetch-type call's payload) and use it to pick a
                // creative; the response marks the caller as observing.
                let topics = req
                    .headers
                    .get(topics_net::http::SEC_BROWSING_TOPICS)
                    .and_then(topics_net::http::parse_topics_header)
                    .filter(|h| !h.topics.is_empty());
                let body = match topics {
                    Some(h) => format!(
                        "{{\"ad\":\"personalised-creative\",\"topics_used\":true,\"topic_count\":{}}}",
                        h.topics.len()
                    ),
                    None => "{\"ad\":\"contextual-creative\",\"topics_used\":false}".to_owned(),
                };
                let mut r = HttpResponse::ok("application/json", body);
                r.headers.set(OBSERVE_BROWSING_TOPICS, "?1");
                r
            }
            "/px.gif" | "/p.gif" => HttpResponse::ok("image/gif", "GIF89a"),
            "/analytics.js" => HttpResponse::ok(
                "text/javascript",
                format!("# analytics\nimg https://{}/px.gif\n", party.domain),
            ),
            _ => HttpResponse::not_found(),
        }
    }

    /// Serve the attestation well-known file of the platform at registry
    /// index `party`, if any. A file only exists from its issue date
    /// onwards — probing before a platform enrolled returns 404, which
    /// the longitudinal experiment relies on.
    fn serve_attestation(&self, party: Option<usize>, now: Timestamp) -> HttpResponse {
        match party {
            Some(i) if self.registry[i].attested => {
                let p = &self.registry[i];
                let issued = Timestamp::from_days(p.enrolled_day);
                if now < issued {
                    return HttpResponse::not_found();
                }
                // Files re-issued after the October 2024 schema update
                // carry the `enrollment_site` field (§3).
                let with_site =
                    now.millis() / topics_net::clock::MILLIS_PER_DAY >= ENROLLMENT_SITE_UPDATE_DAY;
                let file = AttestationFile::for_topics(&p.domain, issued, with_site);
                HttpResponse::ok("application/json", file.to_json())
            }
            Some(i) if self.registry[i].attestation_malformed => {
                // A half-finished enrolment: the URL answers, but with
                // JSON the validator must reject.
                HttpResponse::ok(
                    "application/json",
                    "{\"attestation_version\": \"not-a-number\", \"oops\": [",
                )
            }
            _ => HttpResponse::not_found(),
        }
    }
}

impl NetworkService for World {
    fn resolve_ranked(&self, domain: &Domain) -> Result<(), DnsError> {
        // Pinned real-world domains (distillery.com) always resolve: the
        // paper positively observed them, so the ≈13% random failure
        // model must not erase them.
        if crate::site::special_domain_ranks()
            .iter()
            .any(|(_, d)| d.as_str() == registrable_str(domain))
        {
            return Ok(());
        }
        self.dns.resolve_ranked(domain)
    }

    fn resolve_third_party(&self, domain: &Domain) -> Result<(), DnsError> {
        self.dns.resolve_third_party(domain)
    }

    fn fetch(&self, req: &HttpRequest, now: Timestamp) -> Result<HttpResponse, NetError> {
        let host = req.url.host();
        let reg = registrable_str(host);
        let path = req.url.path();
        let route = self.routes.get(reg).copied();

        // Attestation probes work against any host.
        if path == ATTESTATION_PATH {
            return Ok(self.serve_attestation(route.and_then(|r| r.party), now));
        }

        // GTM containers.
        if host.as_str() == render::GTM_HOST {
            if path == "/gtm.js" {
                if let Some(gtm) = req
                    .url
                    .query()
                    .and_then(|q| q.strip_prefix("id=GTM-"))
                    .and_then(|id| id.parse::<usize>().ok())
                    .and_then(|rank| self.sites.get(rank))
                    .and_then(|s| s.gtm.as_ref())
                {
                    return Ok(HttpResponse::ok(
                        "text/javascript",
                        render::render_gtm_container(gtm),
                    ));
                }
            }
            return Ok(HttpResponse::not_found());
        }

        // The secondary analytics library.
        if host.as_str() == render::EXTRA_LIB_HOST {
            return Ok(match path {
                "/stats.js" => HttpResponse::ok("text/javascript", render::render_extra_lib()),
                "/c.gif" => HttpResponse::ok("image/gif", "GIF89a"),
                _ => HttpResponse::not_found(),
            });
        }

        let Some(route) = route else {
            return Ok(Self::serve_unrouted(host, reg, path));
        };
        Ok(match route.serves {
            // Sibling ad frames (ad.<label>.net).
            Serves::Sibling(rank) => match (path, self.sites[rank].gtm.as_ref()) {
                ("/adframe", Some(gtm)) => {
                    HttpResponse::ok("text/html", render::render_sibling_frame(&gtm.container_id))
                }
                _ => HttpResponse::not_found(),
            },
            // Corporate parent frames.
            Serves::Parent(calls) => match path {
                "/pframe" => HttpResponse::ok("text/html", render::render_parent_frame(calls)),
                _ => HttpResponse::not_found(),
            },
            // Ranked sites. A domain that is both a ranked site and a
            // platform (distillery.com) serves its party paths for
            // non-page requests.
            Serves::Site(rank) => match route.party {
                Some(i) if path != "/" && path != "/main.css" && path != "/hero.jpg" => {
                    self.serve_party(i, req)
                }
                _ => self.serve_site(&self.sites[rank], req),
            },
            // Canonical domains of alias sites.
            Serves::Canonical(rank) => match path {
                "/" => {
                    let spec = &self.sites[rank];
                    let consented = Self::request_consented(req);
                    let visitor_is_eu = req.vantage == topics_net::http::Vantage::Europe;
                    let html = render::render_page_for(
                        spec,
                        &self.registry,
                        consented,
                        visitor_is_eu,
                        |i| self.minor_domain(i),
                    );
                    HttpResponse::ok("text/html", html)
                }
                "/main.css" => HttpResponse::ok("text/css", "body { margin: 0 }"),
                "/hero.jpg" => HttpResponse::ok("image/jpeg", "\u{1}JPG"),
                _ => HttpResponse::not_found(),
            },
            // Ad platforms.
            Serves::Party(i) => self.serve_party(i, req),
        })
    }
}

impl World {
    /// Serve a registrable domain with no routing entry: CMP loaders,
    /// the long tail of minor third parties (`cdn-*`), or nothing.
    fn serve_unrouted(host: &Domain, reg: &str, path: &str) -> HttpResponse {
        if let Some(cmp) = crate::cmp::cmp_by_domain(host) {
            return match path {
                "/cmp.js" => HttpResponse::ok(
                    "text/javascript",
                    render::render_cmp_script(cmp.spec().domain),
                ),
                "/px.gif" => HttpResponse::ok("image/gif", "GIF89a"),
                _ => HttpResponse::not_found(),
            };
        }
        // Minor third parties (cdn-*): inert scripts and pixels.
        if reg.starts_with("cdn-") {
            return match path {
                "/lib.js" => HttpResponse::ok("text/javascript", render::render_minor_script(reg)),
                "/p.gif" | "/b.gif" => HttpResponse::ok("image/gif", "GIF89a"),
                _ => HttpResponse::not_found(),
            };
        }
        HttpResponse::not_found()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topics_net::http::{Method, ResourceKind, StatusCode};

    fn world(n: usize) -> World {
        World::generate(WorldConfig::scaled(31, n))
    }

    fn get(w: &World, url: &str) -> HttpResponse {
        let req = HttpRequest::get(Url::parse(url).unwrap(), ResourceKind::Document);
        w.fetch(&req, Timestamp::from_days(302)).unwrap()
    }

    fn get_consented(w: &World, url: &str) -> HttpResponse {
        let mut req = HttpRequest::get(Url::parse(url).unwrap(), ResourceKind::Document);
        req.headers.set("Cookie", "euconsent=granted");
        w.fetch(&req, Timestamp::from_days(302)).unwrap()
    }

    #[test]
    fn serves_site_pages() {
        let w = world(100);
        let first = &w.sites()[0];
        if first.alias_of.is_none() {
            let r = get(&w, &format!("https://{}/", first.domain));
            assert_eq!(r.status, StatusCode::Ok);
            assert!(r.body.contains("<html>"));
        }
        let r = get(&w, &format!("https://{}/main.css", first.domain));
        assert_eq!(r.status, StatusCode::Ok);
    }

    #[test]
    fn alias_sites_redirect_to_canonical_which_serves() {
        let w = world(3_000);
        let alias = w
            .sites()
            .iter()
            .find(|s| s.alias_of.is_some() && s.gtm.is_some())
            .expect("some alias site with GTM in 3k");
        let r = get(&w, &format!("https://{}/", alias.domain));
        assert!(r.status.is_redirect());
        let loc = r.location().unwrap().to_owned();
        assert!(loc.contains(alias.alias_of.as_ref().unwrap().as_str()));
        let r2 = get(&w, &loc);
        assert_eq!(r2.status, StatusCode::Ok);
        assert!(
            r2.body.contains("gtm.js"),
            "alias canonicals carry GTM+topics"
        );
    }

    #[test]
    fn gtm_container_served_per_site() {
        let w = world(2_000);
        let with_gtm = w
            .sites()
            .iter()
            .find(|s| s.gtm.as_ref().is_some_and(|g| g.has_topics_tag))
            .expect("some topics-tagged GTM site");
        let id = &with_gtm.gtm.as_ref().unwrap().container_id;
        let r = get(
            &w,
            &format!("https://www.googletagmanager.com/gtm.js?id={id}"),
        );
        assert_eq!(r.status, StatusCode::Ok);
        assert!(r.body.contains("topics js"));
        // Unknown container 404s.
        let r = get(&w, "https://www.googletagmanager.com/gtm.js?id=GTM-999999");
        assert_eq!(r.status, StatusCode::NotFound);
    }

    #[test]
    fn party_endpoints_serve() {
        let w = world(100);
        let r = get(&w, "https://static.doubleclick.net/tag.js");
        assert_eq!(r.status, StatusCode::Ok);
        assert!(r.body.contains("consent {"), "doubleclick gates on consent");
        let r = get(&w, "https://ads.criteo.com/frame");
        assert!(r.body.contains("topics js"));
        let r = get(&w, "https://doubleclick.net/bid");
        assert!(r.observes_topics());
    }

    #[test]
    fn attestation_files_follow_ground_truth() {
        let w = world(100);
        // An attested platform serves a valid file.
        let r = get(
            &w,
            "https://criteo.com/.well-known/privacy-sandbox-attestations.json",
        );
        assert_eq!(r.status, StatusCode::Ok);
        let file = AttestationFile::parse_and_validate(&r.body).unwrap();
        // During the crawl (before October 2024), no enrollment_site.
        assert!(file.enrollment_site.is_none());
        // A non-attested allowed platform either 404s or serves a file
        // the validator rejects — never a valid attestation.
        let mut saw_404 = false;
        let mut saw_malformed = false;
        for p in w.registry().iter().filter(|p| p.allowed && !p.attested) {
            let r = get(&w, &format!("https://{}{ATTESTATION_PATH}", p.domain));
            if r.status == StatusCode::NotFound {
                saw_404 = true;
            } else {
                assert!(
                    AttestationFile::parse_and_validate(&r.body).is_err(),
                    "{} served a VALID file while marked !attested",
                    p.domain
                );
                saw_malformed = true;
            }
        }
        assert!(saw_404, "some non-attested platforms 404");
        assert!(saw_malformed, "some serve malformed JSON");
        // distillery.com is attested despite not being allowed.
        let r = get(&w, &format!("https://distillery.com{ATTESTATION_PATH}"));
        assert_eq!(r.status, StatusCode::Ok);
        // Random sites 404.
        let site0 = w.sites()[0].domain.clone();
        if site0.as_str() != "distillery.com" {
            let r = get(&w, &format!("https://{site0}{ATTESTATION_PATH}"));
            assert_eq!(r.status, StatusCode::NotFound);
        }
    }

    #[test]
    fn attestation_files_gain_enrollment_site_after_october_2024() {
        let w = world(50);
        let req = HttpRequest::get(
            Url::parse("https://criteo.com/.well-known/privacy-sandbox-attestations.json").unwrap(),
            ResourceKind::WellKnown,
        );
        let late = Timestamp::from_days(ENROLLMENT_SITE_UPDATE_DAY + 1);
        let r = w.fetch(&req, late).unwrap();
        let file = AttestationFile::parse_and_validate(&r.body).unwrap();
        assert_eq!(file.enrollment_site.as_deref(), Some("https://criteo.com"));
    }

    #[test]
    fn consent_cookie_changes_the_page() {
        let w = world(4_000);
        let gating = w
            .sites()
            .iter()
            .find(|s| s.gates_pre_consent && !s.platforms.is_empty() && s.alias_of.is_none())
            .expect("a gating site with platforms");
        let before = get(&w, &format!("https://{}/", gating.domain));
        let after = get_consented(&w, &format!("https://{}/", gating.domain));
        let party = &w.registry()[gating.platforms[0].0].domain;
        assert!(!before.body.contains(party.as_str()));
        assert!(after.body.contains(party.as_str()));
        assert!(before.body.contains("consent-banner"));
        assert!(!after.body.contains("consent-banner"));
    }

    #[test]
    fn sibling_frames_serve_gtm_wrapper() {
        let w = world(6_000);
        let with_sibling = w
            .sites()
            .iter()
            .find(|s| s.sibling_frame.is_some())
            .expect("a sibling-frame site in 6k");
        let sib = with_sibling.sibling_frame.as_ref().unwrap();
        let id = &with_sibling.gtm.as_ref().unwrap().container_id;
        let r = get(&w, &format!("https://{sib}/adframe?id={id}"));
        assert_eq!(r.status, StatusCode::Ok);
        assert!(r.body.contains("gtm.js"));
    }

    #[test]
    fn minor_parties_and_cmps_serve() {
        let w = world(100);
        let minor = names::minor_party_domain(31, 5);
        let r = get(&w, &format!("https://{minor}/lib.js"));
        assert_eq!(r.status, StatusCode::Ok);
        let r = get(&w, "https://cdn.onetrust.com/cmp.js");
        assert_eq!(r.status, StatusCode::Ok);
        assert!(r.body.contains("cookie"));
    }

    #[test]
    fn pathological_sites_fail_in_their_own_way() {
        use crate::site::Pathology;
        let w = world(20_000);
        let mut seen = std::collections::BTreeSet::new();
        for spec in w.sites().iter().filter(|s| s.pathology.is_some()) {
            let r = get(&w, &format!("https://{}/", spec.domain));
            match spec.pathology.unwrap() {
                Pathology::RedirectLoop => {
                    assert!(r.status.is_redirect());
                    assert!(r.location().unwrap().contains(spec.domain.as_str()));
                }
                Pathology::ServerError => {
                    assert_eq!(r.status, StatusCode::InternalServerError);
                }
                Pathology::EmptyPage => {
                    assert_eq!(r.status, StatusCode::Ok);
                    assert!(r.body.is_empty());
                }
            }
            seen.insert(format!("{:?}", spec.pathology.unwrap()));
        }
        assert_eq!(seen.len(), 3, "all three pathologies occur in 20k sites");
    }

    #[test]
    fn bid_endpoint_reads_the_topics_header() {
        let w = world(10);
        let mut req = HttpRequest::get(
            Url::parse("https://doubleclick.net/bid").unwrap(),
            ResourceKind::Fetch,
        );
        let plain = w.fetch(&req, Timestamp::ORIGIN).unwrap();
        assert!(plain.body.contains("\"topics_used\":false"));
        req.headers.set(
            topics_net::http::SEC_BROWSING_TOPICS,
            "(123 45);v=chrome.1:2",
        );
        let personalised = w.fetch(&req, Timestamp::ORIGIN).unwrap();
        assert!(personalised.body.contains("\"topics_used\":true"));
        assert!(personalised.observes_topics());
    }

    #[test]
    fn unknown_hosts_404() {
        let w = world(10);
        let r = get(&w, "https://completely-unknown-host.zz/");
        assert_eq!(r.status, StatusCode::NotFound);
    }

    #[test]
    fn post_requests_to_bid_endpoints_work() {
        let w = world(10);
        let mut req = HttpRequest::post(
            Url::parse("https://doubleclick.net/bid").unwrap(),
            ResourceKind::Fetch,
            "{\"topics\":[1,2,3]}".to_owned(),
        );
        req.headers.set("Content-Type", "application/json");
        assert_eq!(req.method, Method::Post);
        let r = w.fetch(&req, Timestamp::ORIGIN).unwrap();
        assert_eq!(r.status, StatusCode::Ok);
    }

    #[test]
    fn tranco_list_has_requested_size_and_order() {
        let w = world(500);
        let list = w.tranco_list();
        assert_eq!(list.len(), 500);
        assert_eq!(list[0].host(), &w.sites()[0].domain);
    }

    #[test]
    fn allow_list_matches_registry() {
        let w = world(10);
        let allow = w.allow_list();
        assert_eq!(allow.len(), crate::parties::totals::ALLOWED);
        assert!(allow.iter().any(|d| d.as_str() == "doubleclick.net"));
        assert!(!allow.iter().any(|d| d.as_str() == "distillery.com"));
    }
}
