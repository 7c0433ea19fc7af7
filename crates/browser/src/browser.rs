//! The browser itself: page loading, script execution, frames, and the
//! Topics API call path.
//!
//! This is the reproduction's stand-in for Chromium 122. A [`Browser`]
//! owns one profile (cookies, cache, Topics engine), an attestation store
//! (possibly corrupted, as in the paper's crawler), and an observer that
//! receives instrumentation events. [`Browser::visit`] loads a page from a
//! [`NetworkService`], parses it, executes every tag, descends into
//! iframes, and reproduces the origin semantics of Figure 4:
//!
//! * an external `<script src=…>` runs **in the embedding document's
//!   context** — a `topics js` inside it is attributed to the page's own
//!   origin;
//! * an `<iframe src=…>` creates a **new browsing context** with the
//!   frame URL's origin — calls inside it are attributed to the frame's
//!   host.

use crate::attestation::AttestationStore;
use crate::cache::ResourceCache;
use crate::cookies::CookieJar;
use crate::html::{self, Document, Node};
use crate::observer::{BrowserObserver, CallType, NullObserver, ObjectEvent, TopicsCallEvent};
use crate::origin::{Origin, Site};
use crate::script::{self, AbScope, Stmt};
use crate::topics::{TopicsEngine, TopicsMetrics};
use std::sync::Arc;
use topics_net::clock::Timestamp;
use topics_net::domain::Domain;
use topics_net::http::{HttpRequest, HttpResponse, ResourceKind, Vantage, SEC_BROWSING_TOPICS};
use topics_net::latency::LatencyModel;
use topics_net::metrics::{kind_word, NetMetrics};
use topics_net::psl::{registrable_domain, registrable_str};
use topics_net::seed;
use topics_net::service::{
    fetch_exchange_traced, fetch_following_redirects_traced, NetworkService, RetryPolicy,
    RetryStats,
};
use topics_net::url::Url;
use topics_net::NetError;
use topics_obs::{TraceBuilder, Word};
use topics_taxonomy::Classifier;

/// Name of the consent cookie a granted privacy banner sets. The
/// simulated web's servers read it to decide whether consent-gated tags
/// are rendered into the page.
pub const CONSENT_COOKIE: &str = "euconsent";
/// Value meaning consent granted.
pub const CONSENT_GRANTED: &str = "granted";
/// Value meaning consent explicitly refused.
pub const CONSENT_DENIED: &str = "denied";

/// Static browser configuration.
#[derive(Debug, Clone)]
pub struct BrowserConfig {
    /// The Chrome settings flag the paper's crawler manually opts into.
    pub topics_enabled: bool,
    /// Maximum iframe nesting depth processed.
    pub max_frame_depth: usize,
    /// Maximum number of scripts executed per page visit (guards against
    /// inclusion cycles in a malformed world).
    pub max_scripts_per_visit: usize,
    /// Seed keying A/B-gate decisions. This models the *server-side*
    /// experiment assignment of the calling parties, so it must be shared
    /// across every browser instance of a campaign (the paper observes
    /// per-(CP, website) fractions that are stable across the crawl).
    pub ab_seed: u64,
    /// Where this browser connects from (the paper crawls from Europe;
    /// geo-targeted consent UX behaves differently elsewhere — its §6
    /// limitation).
    pub vantage: Vantage,
    /// Retry policy for document and subresource exchanges. Defaults to
    /// [`RetryPolicy::none`]; campaigns enable it only under an active
    /// fault profile so the retry layer is zero-cost when faults are off.
    pub retry: RetryPolicy,
}

impl Default for BrowserConfig {
    fn default() -> Self {
        BrowserConfig {
            topics_enabled: true,
            max_frame_depth: 3,
            max_scripts_per_visit: 256,
            ab_seed: 0,
            vantage: Vantage::Europe,
            retry: RetryPolicy::none(),
        }
    }
}

/// The result of one page visit.
#[derive(Debug, Clone)]
pub struct PageVisit {
    /// Simulated wall time the page load took (network latencies of
    /// every exchange, from the latency model).
    pub duration_ms: u64,
    /// The URL requested.
    pub requested_url: Url,
    /// The final URL after redirects.
    pub final_url: Url,
    /// Redirect chain including the final URL.
    pub redirect_chain: Vec<Url>,
    /// The parsed top-level document (for banner detection).
    pub document: Document,
    /// Every object requested while rendering, in order.
    pub objects: Vec<ObjectEvent>,
    /// Every Topics API call observed, in order.
    pub topics_calls: Vec<TopicsCallEvent>,
    /// Retry attempts issued while loading the page (0 unless a retry
    /// policy is active *and* transient failures occurred; backoff time
    /// is already folded into `duration_ms`).
    pub retries: u32,
}

impl PageVisit {
    /// The website identity (registrable domain of the final URL).
    pub fn website(&self) -> Domain {
        registrable_domain(self.final_url.host())
    }
}

/// Per-visit mutable state. The optional trace builder is borrowed from
/// the crawl worker for the duration of one page visit, so span
/// recording never touches shared tracer state on the hot path.
struct VisitState<'t> {
    top_site: Site,
    objects: Vec<ObjectEvent>,
    calls: Vec<TopicsCallEvent>,
    scripts_executed: usize,
    elapsed_ms: u64,
    started: Timestamp,
    visit_nonce: u64,
    retries: u32,
    trace: Option<&'t mut TraceBuilder>,
}

impl VisitState<'_> {
    /// Account for what the retry layer did on one fetch: retries are
    /// counted and the simulated time spent waiting extends the page
    /// load.
    fn absorb_retries(&mut self, stats: RetryStats) {
        self.retries += stats.retries;
        self.elapsed_ms += stats.waited_ms;
    }

    /// Advance simulated time by one network exchange and return its
    /// timestamp — records are ordered and spaced by real latencies.
    fn tick_network(
        &mut self,
        model: &LatencyModel,
        host: &Domain,
        kind: ResourceKind,
        net: Option<&NetMetrics>,
    ) -> Timestamp {
        let ms = model.exchange_ms(host, kind);
        if let Some(net) = net {
            net.record_exchange(kind, ms);
        }
        self.elapsed_ms += ms;
        self.started.plus_millis(self.elapsed_ms)
    }

    /// Advance by one in-browser operation (a Topics call costs no
    /// network round trip but must still order after prior events).
    fn tick_local(&mut self) -> Timestamp {
        self.elapsed_ms += 1;
        self.started.plus_millis(self.elapsed_ms)
    }

    /// Current position of the simulated clock within this visit.
    fn sim_now_ms(&self) -> u64 {
        self.started.plus_millis(self.elapsed_ms).millis()
    }

    /// Open a trace span at the current simulated time.
    fn trace_open(&mut self, name: Word) -> Option<usize> {
        let sim = self.sim_now_ms();
        self.trace.as_deref_mut().map(|tb| tb.open(name, Some(sim)))
    }

    /// Attach a field to an open trace span.
    fn trace_field(
        &mut self,
        span: Option<usize>,
        key: Word,
        value: impl Into<topics_obs::FieldValue>,
    ) {
        if let (Some(tb), Some(idx)) = (self.trace.as_deref_mut(), span) {
            tb.field(idx, key, value);
        }
    }

    /// Close a trace span at the current simulated time.
    fn trace_close(&mut self, span: Option<usize>) {
        let sim = self.sim_now_ms();
        if let (Some(tb), Some(idx)) = (self.trace.as_deref_mut(), span) {
            tb.close(idx, Some(sim));
        }
    }

    /// Record a point-in-time trace leaf at `sim` milliseconds.
    fn trace_leaf_at(&mut self, name: Word, sim: u64) -> Option<usize> {
        self.trace
            .as_deref_mut()
            .map(|tb| tb.leaf(name, Some(sim), Some(sim)))
    }
}

/// Execution context for one script or frame.
#[derive(Clone)]
struct ExecCtx {
    /// Origin of the browsing context the code runs in.
    frame_origin: Origin,
    /// Host that served the running script (None for inline code).
    script_source: Option<Domain>,
    /// Iframe nesting depth.
    depth: usize,
}

/// The simulated browser.
pub struct Browser {
    /// Cookie storage (survives cache clearing, like the paper's consent
    /// state between Before-Accept and After-Accept).
    pub cookies: CookieJar,
    /// Resource cache (cleared between the two visits).
    pub cache: ResourceCache,
    engine: TopicsEngine,
    attestation: AttestationStore,
    observer: Arc<dyn BrowserObserver>,
    config: BrowserConfig,
    latency: LatencyModel,
    visit_counter: u64,
    net_metrics: Option<NetMetrics>,
    topics_metrics: Option<TopicsMetrics>,
}

impl Browser {
    /// Build a browser with a fresh profile.
    pub fn new(
        classifier: Arc<Classifier>,
        attestation: AttestationStore,
        config: BrowserConfig,
        profile_seed: u64,
    ) -> Browser {
        let engine = TopicsEngine::new(classifier, profile_seed, config.topics_enabled);
        // Latencies are a property of the *world* (per-host RTTs), so the
        // model is keyed on the shared campaign seed, not the profile.
        let latency = LatencyModel::new(config.ab_seed);
        Browser {
            cookies: CookieJar::new(),
            cache: ResourceCache::new(),
            engine,
            attestation,
            observer: Arc::new(NullObserver),
            config,
            latency,
            visit_counter: 0,
            net_metrics: None,
            topics_metrics: None,
        }
    }

    /// Attach an instrumentation observer (the crawler's recorder).
    #[must_use]
    pub fn with_observer(mut self, observer: Arc<dyn BrowserObserver>) -> Browser {
        self.observer = observer;
        self
    }

    /// Attach network-layer metrics (request counts, exchange latencies,
    /// DNS failures).
    #[must_use]
    pub fn with_net_metrics(mut self, metrics: NetMetrics) -> Browser {
        self.net_metrics = Some(metrics);
        self
    }

    /// Attach Topics-call metrics (per-type call counts, permit/block
    /// split, topics handed out).
    #[must_use]
    pub fn with_topics_metrics(mut self, metrics: TopicsMetrics) -> Browser {
        self.topics_metrics = Some(metrics);
        self
    }

    /// Mutable access to the Topics engine (used by the baseline crate to
    /// feed synthetic browsing histories).
    pub fn topics_engine_mut(&mut self) -> &mut TopicsEngine {
        &mut self.engine
    }

    /// The attestation store in use.
    pub fn attestation(&self) -> &AttestationStore {
        &self.attestation
    }

    /// Record the user accepting the privacy banner on `site` — the CMP
    /// sets the consent cookie that both the server-side gating and the
    /// client-side `consent { … }` blocks consult.
    pub fn grant_consent(&mut self, site: &Site, now: Timestamp) {
        self.cookies.set(site, CONSENT_COOKIE, CONSENT_GRANTED, now);
    }

    /// Record the user explicitly refusing the privacy banner on `site`
    /// — the CMP stores the refusal (so the banner is not shown again),
    /// but nothing is unlocked.
    pub fn deny_consent(&mut self, site: &Site, now: Timestamp) {
        self.cookies.set(site, CONSENT_COOKIE, CONSENT_DENIED, now);
    }

    /// True when consent has been granted for `site`.
    pub fn has_consent(&self, site: &Site) -> bool {
        self.cookies
            .get(site, CONSENT_COOKIE)
            .is_some_and(|c| c.value == CONSENT_GRANTED)
    }

    /// Clear the resource cache ("we delete the browser cache to load
    /// again all objects", §2.2). Cookies and Topics state survive.
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }

    /// Visit a page: fetch, parse, execute tags, descend into frames.
    pub fn visit<S: NetworkService + ?Sized>(
        &mut self,
        service: &S,
        url: &Url,
        now: Timestamp,
    ) -> Result<PageVisit, NetError> {
        self.visit_traced(service, url, now, Word::BeforeAccept, None)
    }

    /// [`Browser::visit`] recording a span tree into `trace` (when
    /// given): a `page-load` span encloses the document `fetch`,
    /// per-resource `fetch` spans, `script` executions and `topics-call`
    /// leaves, all stamped on the simulated clock. `phase` tags the
    /// page-load span with the crawl phase that requested it
    /// (`before-accept`, `after-accept` or `after-reject`).
    pub fn visit_traced<S: NetworkService + ?Sized>(
        &mut self,
        service: &S,
        url: &Url,
        now: Timestamp,
        phase: Word,
        mut trace: Option<&mut TraceBuilder>,
    ) -> Result<PageVisit, NetError> {
        let start_ms = now.millis();
        let page_span = trace.as_deref_mut().map(|tb| {
            let idx = tb.open(Word::PageLoad, Some(start_ms));
            tb.field(idx, Word::Url, url.to_string());
            tb.field(idx, Word::Phase, phase);
            idx
        });
        // Thread-local allocation scope for the page load; no-op (and no
        // fields) unless the counting allocator is enabled.
        let aspan = topics_obs::alloc::AllocSpan::start();
        let result = self.visit_inner(service, url, now, trace.as_deref_mut());
        let alloc = aspan.finish();
        if let (Some(tb), Some(idx)) = (trace, page_span) {
            match &result {
                Ok(v) => {
                    tb.field(idx, Word::Ok, true);
                    if !alloc.is_zero() {
                        tb.field(idx, Word::AllocBytes, alloc.alloc_bytes);
                        tb.field(idx, Word::AllocCount, alloc.alloc_count);
                        tb.field(idx, Word::PeakBytes, alloc.peak_bytes);
                    }
                    tb.close(idx, Some(start_ms + v.duration_ms));
                }
                Err(e) => {
                    tb.field(idx, Word::Ok, false);
                    tb.field(idx, Word::Error, e.kind());
                    tb.close(idx, Some(start_ms));
                }
            }
        }
        result
    }

    fn visit_inner<S: NetworkService + ?Sized>(
        &mut self,
        service: &S,
        url: &Url,
        now: Timestamp,
        mut trace: Option<&mut TraceBuilder>,
    ) -> Result<PageVisit, NetError> {
        self.visit_counter += 1;
        if let Err(e) = service.resolve_ranked(url.host()) {
            if let Some(net) = &self.net_metrics {
                net.record_dns_failure();
            }
            if let Some(tb) = trace.as_deref_mut() {
                let leaf = tb.leaf(Word::Fetch, Some(now.millis()), Some(now.millis()));
                tb.field(leaf, Word::Host, url.host());
                tb.field(leaf, Word::Kind, kind_word(ResourceKind::Document));
                tb.field(leaf, Word::Ok, false);
                tb.field(leaf, Word::Error, Word::Dns);
            }
            return Err(e.into());
        }

        // Follow document redirects by hand so cookies are re-evaluated
        // per hop — an alias domain's redirect target must see its own
        // consent cookie, exactly as a real browser would send it.
        let mut current = url.clone();
        let mut chain = vec![current.clone()];
        let mut doc_retry = RetryStats::default();
        let doc_span = trace.as_deref_mut().map(|tb| {
            let idx = tb.open(Word::Fetch, Some(now.millis()));
            tb.field(idx, Word::Host, url.host());
            tb.field(idx, Word::Kind, kind_word(ResourceKind::Document));
            idx
        });
        let outcome = loop {
            let mut request = HttpRequest::get(current.clone(), ResourceKind::Document);
            request.vantage = self.config.vantage;
            let cookie_header = self.cookies.header_for(&Site::of(&current));
            if !cookie_header.is_empty() {
                request.headers.set("Cookie", cookie_header);
            }
            let (result, stats) = fetch_exchange_traced(
                service,
                &request,
                now.plus_millis(doc_retry.waited_ms),
                &self.config.retry,
                self.net_metrics.as_ref(),
                trace.as_deref_mut(),
            );
            doc_retry.absorb(stats);
            let response = result?;
            if !response.status.is_redirect() {
                break topics_net::service::FetchOutcome {
                    final_url: current,
                    chain,
                    response,
                };
            }
            let location = response.location().ok_or_else(|| NetError::BadRedirect {
                url: current.to_string(),
            })?;
            let next = current.join(location)?;
            if chain.len() > topics_net::service::MAX_REDIRECTS {
                return Err(NetError::TooManyRedirects {
                    url: next.to_string(),
                    hops: chain.len(),
                });
            }
            if next.host() != current.host() {
                if let Err(e) = service.resolve_third_party(next.host()) {
                    if let Some(net) = &self.net_metrics {
                        net.record_dns_failure();
                    }
                    return Err(e.into());
                }
            }
            chain.push(next.clone());
            current = next;
        };
        let top_site = Site::of(&outcome.final_url);

        let mut state = VisitState {
            top_site: top_site.clone(),
            objects: Vec::new(),
            calls: Vec::new(),
            scripts_executed: 0,
            elapsed_ms: 0,
            started: now,
            visit_nonce: self.visit_counter,
            retries: 0,
            trace,
        };
        state.absorb_retries(doc_retry);
        // The document itself is the first recorded object; redirects
        // each cost a round trip.
        let mut ts = now;
        for hop in &outcome.chain {
            ts = state.tick_network(
                &self.latency,
                hop.host(),
                ResourceKind::Document,
                self.net_metrics.as_ref(),
            );
        }
        state.trace_field(doc_span, Word::Ok, outcome.response.status.is_success());
        state.trace_field(doc_span, Word::Redirects, outcome.chain.len() as u64 - 1);
        state.trace_close(doc_span);
        let doc_event = ObjectEvent {
            url: outcome.final_url.clone(),
            kind: ResourceKind::Document,
            ok: outcome.response.status.is_success(),
            timestamp: ts,
        };
        self.observer.on_object(&doc_event);
        state.objects.push(doc_event);

        // Browsing activity feeds the Topics history.
        self.engine.record_visit(&top_site, now);

        let document = html::parse(&outcome.response.body);
        let ctx = ExecCtx {
            frame_origin: Origin::of(&outcome.final_url),
            script_source: None,
            depth: 0,
        };
        self.process_document(service, &document, &ctx, &mut state, &outcome.final_url);

        Ok(PageVisit {
            duration_ms: state.elapsed_ms,
            requested_url: url.clone(),
            final_url: outcome.final_url,
            redirect_chain: outcome.chain,
            document,
            objects: state.objects,
            topics_calls: state.calls,
            retries: state.retries,
        })
    }

    /// Walk a parsed document's nodes in order.
    fn process_document<S: NetworkService + ?Sized>(
        &mut self,
        service: &S,
        document: &Document,
        ctx: &ExecCtx,
        state: &mut VisitState<'_>,
        base: &Url,
    ) {
        for node in &document.nodes {
            match node {
                Node::Script { src: Some(src), .. } => {
                    if let Ok(url) = base.join(src) {
                        self.load_and_run_script(service, &url, ctx, state);
                    }
                }
                Node::Script {
                    src: None, inline, ..
                } => {
                    if let Ok(stmts) = script::parse(inline) {
                        let inline_ctx = ExecCtx {
                            script_source: None,
                            ..ctx.clone()
                        };
                        self.execute(service, &stmts, &inline_ctx, state, base);
                    }
                }
                Node::Iframe {
                    src,
                    browsing_topics,
                    ..
                } => {
                    if let Ok(url) = base.join(src) {
                        self.load_iframe(service, &url, *browsing_topics, ctx, state);
                    }
                }
                Node::Img { src } => {
                    if let Ok(url) = base.join(src) {
                        let _ = self.fetch_subresource(service, &url, ResourceKind::Image, state);
                    }
                }
                Node::Stylesheet { href } => {
                    if let Ok(url) = base.join(href) {
                        let _ = self.fetch_subresource(service, &url, ResourceKind::Style, state);
                    }
                }
                Node::Clickable { .. } | Node::Container { .. } => {}
            }
        }
    }

    /// Fetch an external script and execute it **in the current context**
    /// — the Figure 4 mechanism that makes GTM's `browsingTopics()` call
    /// appear to come from the website itself.
    fn load_and_run_script<S: NetworkService + ?Sized>(
        &mut self,
        service: &S,
        url: &Url,
        ctx: &ExecCtx,
        state: &mut VisitState<'_>,
    ) {
        if state.scripts_executed >= self.config.max_scripts_per_visit {
            return;
        }
        state.scripts_executed += 1;
        let span = state.trace_open(Word::Script);
        state.trace_field(span, Word::Host, url.host());
        let Some(response) = self.fetch_subresource(service, url, ResourceKind::Script, state)
        else {
            state.trace_field(span, Word::Ok, false);
            state.trace_close(span);
            return;
        };
        let Ok(stmts) = script::parse(&response.body) else {
            // a broken third-party script fails silently, as on the web
            state.trace_field(span, Word::Ok, false);
            state.trace_close(span);
            return;
        };
        let script_ctx = ExecCtx {
            frame_origin: ctx.frame_origin.clone(), // unchanged: root context!
            script_source: Some(url.host().clone()),
            depth: ctx.depth,
        };
        let base = url.clone();
        self.execute(service, &stmts, &script_ctx, state, &base);
        state.trace_field(span, Word::Ok, true);
        state.trace_close(span);
    }

    /// Create a child browsing context for an iframe and process its
    /// document. With `browsing_topics` set, the frame's document request
    /// is itself a Topics call attributed to the frame host.
    fn load_iframe<S: NetworkService + ?Sized>(
        &mut self,
        service: &S,
        url: &Url,
        browsing_topics: bool,
        ctx: &ExecCtx,
        state: &mut VisitState<'_>,
    ) {
        if ctx.depth >= self.config.max_frame_depth {
            return;
        }
        let mut extra_header: Option<String> = None;
        if browsing_topics {
            let header = self.record_topics_call(url.host(), CallType::Iframe, None, ctx, state);
            extra_header = header;
        }
        let Some(response) = self.fetch_subresource_with_header(
            service,
            url,
            ResourceKind::Document,
            state,
            extra_header,
        ) else {
            return;
        };
        let child_doc = html::parse(&response.body);
        let child_ctx = ExecCtx {
            frame_origin: Origin::of(url),
            script_source: None,
            depth: ctx.depth + 1,
        };
        self.process_document(service, &child_doc, &child_ctx, state, url);
    }

    /// Execute TagScript statements.
    fn execute<S: NetworkService + ?Sized>(
        &mut self,
        service: &S,
        stmts: &[Stmt],
        ctx: &ExecCtx,
        state: &mut VisitState<'_>,
        base: &Url,
    ) {
        for stmt in stmts {
            match stmt {
                Stmt::TopicsJs | Stmt::TopicsJsSkipObservation => {
                    // JavaScript call: caller is the *calling context's*
                    // origin host, not the script's source.
                    let caller = ctx.frame_origin.host.clone();
                    let observe = matches!(stmt, Stmt::TopicsJs);
                    self.record_topics_call_with_options(
                        &caller,
                        CallType::JavaScript,
                        ctx.script_source.clone(),
                        ctx,
                        state,
                        observe,
                    );
                }
                Stmt::TopicsFetch(target) => {
                    if let Ok(url) = base.join(target) {
                        let header = self.record_topics_call(
                            url.host(),
                            CallType::Fetch,
                            ctx.script_source.clone(),
                            ctx,
                            state,
                        );
                        let response = self.fetch_subresource_with_header(
                            service,
                            &url,
                            ResourceKind::Fetch,
                            state,
                            header,
                        );
                        // `Observe-Browsing-Topics: ?1` marks the caller as
                        // observing the user on this site.
                        if response.is_some_and(|r| r.observes_topics()) {
                            let now = state.started;
                            self.engine
                                .record_observation(url.host(), &state.top_site, now);
                        }
                    }
                }
                Stmt::TopicsIframe(target) => {
                    if let Ok(url) = base.join(target) {
                        self.load_iframe(service, &url, true, ctx, state);
                    }
                }
                Stmt::Fetch(target) => {
                    if let Ok(url) = base.join(target) {
                        let _ = self.fetch_subresource(service, &url, ResourceKind::Fetch, state);
                    }
                }
                Stmt::Img(target) => {
                    if let Ok(url) = base.join(target) {
                        let _ = self.fetch_subresource(service, &url, ResourceKind::Image, state);
                    }
                }
                Stmt::LoadScript(target) => {
                    if let Ok(url) = base.join(target) {
                        self.load_and_run_script(service, &url, ctx, state);
                    }
                }
                Stmt::LoadIframe(target) => {
                    if let Ok(url) = base.join(target) {
                        self.load_iframe(service, &url, false, ctx, state);
                    }
                }
                Stmt::SetCookie { name, value } => {
                    let site = ctx.frame_origin.site();
                    let now = state.started;
                    self.cookies.set(&site, name, value, now);
                }
                Stmt::Ab { p, scope, body } => {
                    if self.ab_decision(*p, *scope, ctx, state) {
                        self.execute(service, body, ctx, state, base);
                    }
                }
                Stmt::IfConsent(body) => {
                    if self.has_consent(&state.top_site) {
                        self.execute(service, body, ctx, state, base);
                    }
                }
                Stmt::IfNoConsent(body) => {
                    if !self.has_consent(&state.top_site) {
                        self.execute(service, body, ctx, state, base);
                    }
                }
                Stmt::After { day, body } => {
                    let today = state.started.millis() / topics_net::clock::MILLIS_PER_DAY;
                    if today >= *day {
                        self.execute(service, body, ctx, state, base);
                    }
                }
            }
        }
    }

    /// Evaluate an A/B gate. The coin is keyed on the experimenting party
    /// (the script's serving host, or the frame host for inline code),
    /// the visited website, the scope extras, and the gate's probability
    /// itself — so distinct gates in one script draw independent coins
    /// while repeated gates with the same parameters agree (real
    /// experimentation systems salt assignments by experiment id).
    fn ab_decision(&self, p: f64, scope: AbScope, ctx: &ExecCtx, state: &VisitState<'_>) -> bool {
        let party = registrable_str(ctx.script_source.as_ref().unwrap_or(&ctx.frame_origin.host));
        let mut key = seed::derive(self.config.ab_seed, party);
        key = seed::derive(key, state.top_site.domain().as_str());
        match scope {
            AbScope::Site => {}
            AbScope::Visit => {
                key = seed::derive_idx(key, state.visit_nonce);
            }
            AbScope::TimeWindow { hours } => {
                let window = state.started.millis() / (u64::from(hours) * 3_600_000);
                key = seed::derive_idx(key, window);
            }
        }
        seed::unit_f64(seed::derive(key, &format!("ab:{p:.4}"))) < p
    }

    /// The single Topics-call path: enrolment check, engine invocation,
    /// instrumentation event. Returns the `Sec-Browsing-Topics` header
    /// value for fetch/iframe-type calls when topics were attached.
    fn record_topics_call(
        &mut self,
        caller: &Domain,
        call_type: CallType,
        script_source: Option<Domain>,
        ctx: &ExecCtx,
        state: &mut VisitState<'_>,
    ) -> Option<String> {
        self.record_topics_call_with_options(caller, call_type, script_source, ctx, state, true)
    }

    /// [`Browser::record_topics_call`] with the `skipObservation`
    /// option surfaced (`observe = false` ⇒ the caller reads topics
    /// without being recorded as observing this site).
    #[allow(clippy::too_many_arguments)]
    fn record_topics_call_with_options(
        &mut self,
        caller: &Domain,
        call_type: CallType,
        script_source: Option<Domain>,
        ctx: &ExecCtx,
        state: &mut VisitState<'_>,
        observe: bool,
    ) -> Option<String> {
        if !self.engine.enabled() {
            return None; // API disabled: the promise rejects, nothing is logged
        }
        let decision = self.attestation.check(caller);
        let timestamp = state.tick_local();
        let mut topics_returned = 0usize;
        let mut header = None;
        if decision.permits() {
            if let Some(answer) = self.engine.browsing_topics_with_options(
                caller,
                &state.top_site,
                timestamp,
                observe,
            ) {
                topics_returned = answer.topics.len();
                if !answer.topics.is_empty()
                    && matches!(call_type, CallType::Fetch | CallType::Iframe)
                {
                    let ids: Vec<String> = answer
                        .topics
                        .iter()
                        .map(|t| t.topic.get().to_string())
                        .collect();
                    header = Some(format!(
                        "({});v=chrome.1:{}",
                        ids.join(" "),
                        answer.taxonomy_version
                    ));
                }
            }
        }
        if let Some(m) = &self.topics_metrics {
            m.record_call(call_type, decision.permits(), topics_returned);
        }
        let leaf = state.trace_leaf_at(Word::TopicsCall, timestamp.millis());
        state.trace_field(leaf, Word::Caller, caller);
        state.trace_field(leaf, Word::Type, call_type.word());
        state.trace_field(leaf, Word::Permitted, decision.permits());
        state.trace_field(leaf, Word::Topics, topics_returned);
        let event = TopicsCallEvent {
            caller: caller.clone(),
            website: state.top_site.domain().clone(),
            call_type,
            root_context: ctx.depth == 0,
            script_source,
            decision,
            topics_returned,
            timestamp,
        };
        self.observer.on_topics_call(&event);
        state.calls.push(event);
        header
    }

    /// Fetch a subresource through cache + DNS + redirects, recording the
    /// object event. Returns the response on success.
    fn fetch_subresource<S: NetworkService + ?Sized>(
        &mut self,
        service: &S,
        url: &Url,
        kind: ResourceKind,
        state: &mut VisitState<'_>,
    ) -> Option<Arc<HttpResponse>> {
        self.fetch_subresource_with_header(service, url, kind, state, None)
    }

    fn fetch_subresource_with_header<S: NetworkService + ?Sized>(
        &mut self,
        service: &S,
        url: &Url,
        kind: ResourceKind,
        state: &mut VisitState<'_>,
        topics_header: Option<String>,
    ) -> Option<Arc<HttpResponse>> {
        // Cache hit: no network, but the object was still "used by the
        // page" — record it as loaded (at local-op cost).
        if topics_header.is_none() {
            if let Some(cached) = self.cache.lookup(url) {
                let timestamp = state.tick_local();
                let leaf = state.trace_leaf_at(Word::Fetch, timestamp.millis());
                state.trace_field(leaf, Word::Host, url.host());
                state.trace_field(leaf, Word::Kind, kind_word(kind));
                state.trace_field(leaf, Word::Cached, true);
                state.trace_field(leaf, Word::Ok, true);
                let event = ObjectEvent {
                    url: url.clone(),
                    kind,
                    ok: true,
                    timestamp,
                };
                self.observer.on_object(&event);
                state.objects.push(event);
                return Some(cached);
            }
        }
        let span = state.trace_open(Word::Fetch);
        state.trace_field(span, Word::Host, url.host());
        state.trace_field(span, Word::Kind, kind_word(kind));
        let timestamp =
            state.tick_network(&self.latency, url.host(), kind, self.net_metrics.as_ref());
        let resolved = service.resolve_third_party(url.host());
        if resolved.is_err() {
            if let Some(net) = &self.net_metrics {
                net.record_dns_failure();
            }
            state.trace_field(span, Word::Error, Word::Dns);
        }
        let response = match resolved {
            Err(e) => Err(NetError::from(e)),
            Ok(()) => {
                let mut request = HttpRequest::get(url.clone(), kind);
                request.vantage = self.config.vantage;
                let cookie_header = self.cookies.header_for(&Site::of(url));
                if !cookie_header.is_empty() {
                    request.headers.set("Cookie", cookie_header);
                }
                if let Some(h) = &topics_header {
                    request.headers.set(SEC_BROWSING_TOPICS, h.clone());
                }
                let (result, stats) = fetch_following_redirects_traced(
                    service,
                    request,
                    timestamp,
                    &self.config.retry,
                    self.net_metrics.as_ref(),
                    state.trace.as_deref_mut(),
                );
                state.absorb_retries(stats);
                result
            }
        };
        let (ok, response) = match response {
            Ok(outcome) if outcome.response.status.is_success() => {
                (true, Some(Arc::new(outcome.response)))
            }
            Ok(_) | Err(_) => (false, None),
        };
        state.trace_field(span, Word::Ok, ok);
        state.trace_close(span);
        if let Some(r) = &response {
            self.cache.store(url, r);
        }
        let event = ObjectEvent {
            url: url.clone(),
            kind,
            ok,
            timestamp,
        };
        self.observer.on_object(&event);
        state.objects.push(event);
        response
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attestation::AllowDecision;
    use std::collections::HashMap;
    use topics_net::dns::DnsError;

    /// A hand-built two-page web for browser tests.
    struct TinyWeb {
        pages: HashMap<String, String>,
    }

    impl TinyWeb {
        fn new() -> TinyWeb {
            TinyWeb {
                pages: HashMap::new(),
            }
        }
        fn page(mut self, url: &str, body: &str) -> TinyWeb {
            self.pages.insert(url.to_owned(), body.to_owned());
            self
        }
    }

    impl NetworkService for TinyWeb {
        fn resolve_ranked(&self, _d: &Domain) -> Result<(), DnsError> {
            Ok(())
        }
        fn resolve_third_party(&self, _d: &Domain) -> Result<(), DnsError> {
            Ok(())
        }
        fn fetch(&self, req: &HttpRequest, _now: Timestamp) -> Result<HttpResponse, NetError> {
            let key = format!(
                "{}://{}{}",
                req.url.scheme().as_str(),
                req.url.host(),
                req.url.path()
            );
            match self.pages.get(&key) {
                Some(body) => {
                    let ct = if req.kind == ResourceKind::Script {
                        "text/tagscript"
                    } else {
                        "text/html"
                    };
                    Ok(HttpResponse::ok(ct, body.clone()))
                }
                None => Ok(HttpResponse::not_found()),
            }
        }
    }

    fn browser(attestation: AttestationStore) -> Browser {
        let classifier = Arc::new(Classifier::new(5).with_unclassifiable_rate(0.0));
        Browser::new(classifier, attestation, BrowserConfig::default(), 11)
    }

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    fn d(s: &str) -> Domain {
        Domain::parse(s).unwrap()
    }

    #[test]
    fn external_script_runs_in_root_context() {
        // Figure 4 / §4: GTM included via <script src> calls browsingTopics
        // with the website's own origin.
        let web = TinyWeb::new()
            .page(
                "https://news.example/",
                r#"<html><script src="https://tags.gtm-like.com/gtm.js"></script></html>"#,
            )
            .page("https://tags.gtm-like.com/gtm.js", "topics js");
        let mut b = browser(AttestationStore::corrupted());
        let visit = b
            .visit(&web, &url("https://news.example/"), Timestamp::ORIGIN)
            .unwrap();
        assert_eq!(visit.topics_calls.len(), 1);
        let call = &visit.topics_calls[0];
        assert_eq!(call.caller.as_str(), "news.example", "caller is the SITE");
        assert_eq!(
            call.script_source.as_ref().unwrap().as_str(),
            "tags.gtm-like.com"
        );
        assert!(call.root_context);
        assert_eq!(call.call_type, CallType::JavaScript);
        assert_eq!(call.decision, AllowDecision::AllowedFailOpen);
    }

    #[test]
    fn iframe_script_runs_in_frame_context() {
        let web = TinyWeb::new()
            .page(
                "https://news.example/",
                r#"<iframe src="https://adplatform.com/frame"></iframe>"#,
            )
            .page(
                "https://adplatform.com/frame",
                r#"<html><script>topics js</script></html>"#,
            );
        let mut b = browser(AttestationStore::corrupted());
        let visit = b
            .visit(&web, &url("https://news.example/"), Timestamp::ORIGIN)
            .unwrap();
        assert_eq!(visit.topics_calls.len(), 1);
        let call = &visit.topics_calls[0];
        assert_eq!(
            call.caller.as_str(),
            "adplatform.com",
            "caller is the FRAME"
        );
        assert!(!call.root_context);
        assert_eq!(call.website.as_str(), "news.example");
    }

    #[test]
    fn healthy_allowlist_blocks_unenrolled_callers() {
        let web = TinyWeb::new()
            .page(
                "https://news.example/",
                r#"<script src="https://notenrolled.com/tag.js"></script>
                   <iframe src="https://enrolled.com/frame"></iframe>"#,
            )
            .page("https://notenrolled.com/tag.js", "topics js")
            .page("https://enrolled.com/frame", "<script>topics js</script>");
        let mut b = browser(AttestationStore::healthy([d("enrolled.com")]));
        let visit = b
            .visit(&web, &url("https://news.example/"), Timestamp::ORIGIN)
            .unwrap();
        assert_eq!(visit.topics_calls.len(), 2);
        // Call 1: JS call attributed to news.example (not enrolled) → blocked.
        assert_eq!(
            visit.topics_calls[0].decision,
            AllowDecision::BlockedNotEnrolled
        );
        // Call 2: from enrolled.com's frame → allowed.
        assert_eq!(
            visit.topics_calls[1].decision,
            AllowDecision::AllowedEnrolled
        );
    }

    #[test]
    fn iframe_browsingtopics_attribute_is_an_iframe_call() {
        let web = TinyWeb::new()
            .page(
                "https://news.example/",
                r#"<iframe src="https://ads.example/slot" browsingtopics></iframe>"#,
            )
            .page("https://ads.example/slot", "<html></html>");
        let mut b = browser(AttestationStore::corrupted());
        let visit = b
            .visit(&web, &url("https://news.example/"), Timestamp::ORIGIN)
            .unwrap();
        assert_eq!(visit.topics_calls.len(), 1);
        assert_eq!(visit.topics_calls[0].call_type, CallType::Iframe);
        assert_eq!(visit.topics_calls[0].caller.as_str(), "ads.example");
    }

    #[test]
    fn consent_blocks_guarded_calls() {
        let web = TinyWeb::new()
            .page(
                "https://shop.example/",
                r#"<script src="https://goodactor.com/tag.js"></script>"#,
            )
            .page("https://goodactor.com/tag.js", "consent {\ntopics js\n}");
        let mut b = browser(AttestationStore::corrupted());
        let u = url("https://shop.example/");
        // Before-Accept: no call.
        let before = b.visit(&web, &u, Timestamp::ORIGIN).unwrap();
        assert!(before.topics_calls.is_empty());
        // Grant consent, After-Accept: call happens.
        b.grant_consent(&Site::of(&u), Timestamp::ORIGIN);
        b.clear_cache();
        let after = b.visit(&web, &u, Timestamp(1000)).unwrap();
        assert_eq!(after.topics_calls.len(), 1);
    }

    #[test]
    fn ab_site_gate_is_stable_per_site_and_varies_across_sites() {
        let tag = "ab 0.5 site {\ntopics js\n}";
        let mut pages = TinyWeb::new().page("https://cp-tags.com/tag.js", tag);
        for i in 0..40 {
            pages = pages.page(
                &format!("https://site{i}.example/"),
                r#"<script src="https://cp-tags.com/tag.js"></script>"#,
            );
        }
        let mut called = Vec::new();
        let mut b = browser(AttestationStore::corrupted());
        for i in 0..40 {
            let v = b
                .visit(
                    &pages,
                    &url(&format!("https://site{i}.example/")),
                    Timestamp::ORIGIN,
                )
                .unwrap();
            called.push(!v.topics_calls.is_empty());
        }
        let on = called.iter().filter(|&&c| c).count();
        assert!(on > 5 && on < 35, "should split sites, got {on}/40");
        // Re-visiting gives identical decisions (site scope is stable).
        for (i, was_called) in called.iter().enumerate() {
            let v = b
                .visit(
                    &pages,
                    &url(&format!("https://site{i}.example/")),
                    Timestamp(5),
                )
                .unwrap();
            assert_eq!(!v.topics_calls.is_empty(), *was_called);
        }
    }

    #[test]
    fn time_window_gate_alternates() {
        let tag = "ab 0.5 time:6h {\ntopics js\n}";
        let web = TinyWeb::new().page("https://cp-tags.com/tag.js", tag).page(
            "https://onesite.example/",
            r#"<script src="https://cp-tags.com/tag.js"></script>"#,
        );
        let mut b = browser(AttestationStore::corrupted());
        let mut pattern = Vec::new();
        for hour in (0..96).step_by(6) {
            let v = b
                .visit(
                    &web,
                    &url("https://onesite.example/"),
                    Timestamp(hour * 3_600_000),
                )
                .unwrap();
            pattern.push(!v.topics_calls.is_empty());
        }
        // Within one window, decisions are constant; across 16 windows we
        // should see both ON and OFF periods.
        assert!(pattern.iter().any(|&x| x));
        assert!(pattern.iter().any(|&x| !x));
    }

    #[test]
    fn objects_are_recorded_for_all_resource_kinds() {
        let web = TinyWeb::new()
            .page(
                "https://media.example/",
                r#"<script src="https://lib.example/l.js"></script>
                   <img src="https://px.example/p.gif">
                   <link rel="stylesheet" href="/main.css">"#,
            )
            .page(
                "https://lib.example/l.js",
                "img https://beacon.example/b.gif",
            )
            .page("https://media.example/main.css", "body{}")
            .page("https://px.example/p.gif", "gif")
            .page("https://beacon.example/b.gif", "gif");
        let mut b = browser(AttestationStore::corrupted());
        let visit = b
            .visit(&web, &url("https://media.example/"), Timestamp::ORIGIN)
            .unwrap();
        let kinds: Vec<ResourceKind> = visit.objects.iter().map(|o| o.kind).collect();
        assert_eq!(
            kinds,
            vec![
                ResourceKind::Document,
                ResourceKind::Script,
                ResourceKind::Image, // beacon fired by the script
                ResourceKind::Image, // px
                ResourceKind::Style,
            ]
        );
        assert!(visit.objects.iter().all(|o| o.ok));
        // Timestamps are strictly increasing.
        for w in visit.objects.windows(2) {
            assert!(w[0].timestamp < w[1].timestamp);
        }
    }

    #[test]
    fn script_inclusion_cycles_are_bounded() {
        let web = TinyWeb::new()
            .page(
                "https://loop.example/",
                r#"<script src="https://a.example/a.js"></script>"#,
            )
            .page("https://a.example/a.js", "script https://b.example/b.js")
            .page("https://b.example/b.js", "script https://a.example/a.js");
        let mut b = browser(AttestationStore::corrupted());
        // Must terminate.
        let visit = b
            .visit(&web, &url("https://loop.example/"), Timestamp::ORIGIN)
            .unwrap();
        assert!(visit.objects.len() <= BrowserConfig::default().max_scripts_per_visit + 2);
    }

    #[test]
    fn frame_depth_is_bounded() {
        let mut web = TinyWeb::new().page(
            "https://deep.example/",
            r#"<iframe src="https://f0.example/f"></iframe>"#,
        );
        for i in 0..10 {
            web = web.page(
                &format!("https://f{i}.example/f"),
                &format!(r#"<iframe src="https://f{}.example/f"></iframe>"#, i + 1),
            );
        }
        let mut b = browser(AttestationStore::corrupted());
        let visit = b
            .visit(&web, &url("https://deep.example/"), Timestamp::ORIGIN)
            .unwrap();
        let frames = visit
            .objects
            .iter()
            .filter(|o| o.kind == ResourceKind::Document)
            .count();
        // Top document + at most max_frame_depth nested documents.
        assert!(frames <= 1 + BrowserConfig::default().max_frame_depth);
    }

    #[test]
    fn topics_fetch_attaches_header_and_observes() {
        struct HeaderCheck;
        impl NetworkService for HeaderCheck {
            fn resolve_ranked(&self, _d: &Domain) -> Result<(), DnsError> {
                Ok(())
            }
            fn resolve_third_party(&self, _d: &Domain) -> Result<(), DnsError> {
                Ok(())
            }
            fn fetch(&self, req: &HttpRequest, _n: Timestamp) -> Result<HttpResponse, NetError> {
                match req.url.path() {
                    "/" => Ok(HttpResponse::ok(
                        "text/html",
                        r#"<script src="https://adnet.com/tag.js"></script>"#,
                    )),
                    "/tag.js" => Ok(HttpResponse::ok(
                        "text/tagscript",
                        "topics fetch https://adnet.com/bid",
                    )),
                    "/bid" => {
                        let mut r = HttpResponse::ok("application/json", "{}");
                        r.headers
                            .set(topics_net::http::OBSERVE_BROWSING_TOPICS, "?1");
                        Ok(r)
                    }
                    _ => Ok(HttpResponse::not_found()),
                }
            }
        }
        let mut b = browser(AttestationStore::corrupted());
        // Seed three epochs of history so there are topics to attach.
        for epoch in 0..3 {
            for i in 0..20 {
                let s = Site::of(&url(&format!("https://hist{epoch}x{i}.com/")));
                b.topics_engine_mut()
                    .record_visit(&s, Timestamp::from_weeks(epoch));
                b.topics_engine_mut().record_observation(
                    &d("adnet.com"),
                    &s,
                    Timestamp::from_weeks(epoch),
                );
            }
        }
        let visit = b
            .visit(
                &HeaderCheck,
                &url("https://pub.example/"),
                Timestamp::from_weeks(3),
            )
            .unwrap();
        assert_eq!(visit.topics_calls.len(), 1);
        let call = &visit.topics_calls[0];
        assert_eq!(call.call_type, CallType::Fetch);
        assert_eq!(call.caller.as_str(), "adnet.com");
        assert!(call.topics_returned > 0, "history should yield topics");
    }

    #[test]
    fn disabled_topics_setting_suppresses_everything() {
        let web = TinyWeb::new().page("https://news.example/", "<script>topics js</script>");
        let classifier = Arc::new(Classifier::new(5));
        let config = BrowserConfig {
            topics_enabled: false,
            ..Default::default()
        };
        let mut b = Browser::new(classifier, AttestationStore::corrupted(), config, 1);
        let visit = b
            .visit(&web, &url("https://news.example/"), Timestamp::ORIGIN)
            .unwrap();
        assert!(visit.topics_calls.is_empty());
    }

    #[test]
    fn emitted_topics_headers_parse_with_the_net_parser() {
        use parking_lot::Mutex;
        use std::sync::Arc as StdArc;
        // Capture the raw header the browser attaches to a topics-fetch.
        struct HeaderSpy {
            captured: StdArc<Mutex<Vec<String>>>,
        }
        impl NetworkService for HeaderSpy {
            fn resolve_ranked(&self, _d: &Domain) -> Result<(), topics_net::dns::DnsError> {
                Ok(())
            }
            fn resolve_third_party(&self, _d: &Domain) -> Result<(), topics_net::dns::DnsError> {
                Ok(())
            }
            fn fetch(&self, req: &HttpRequest, _n: Timestamp) -> Result<HttpResponse, NetError> {
                if let Some(h) = req.headers.get(SEC_BROWSING_TOPICS) {
                    self.captured.lock().push(h.to_owned());
                }
                Ok(match req.url.path() {
                    "/" => HttpResponse::ok(
                        "text/html",
                        r#"<script src="https://adnet.com/tag.js"></script>"#,
                    ),
                    "/tag.js" => {
                        HttpResponse::ok("text/tagscript", "topics fetch https://adnet.com/bid")
                    }
                    _ => HttpResponse::ok("application/json", "{}"),
                })
            }
        }
        let captured = StdArc::new(Mutex::new(Vec::new()));
        let spy = HeaderSpy {
            captured: captured.clone(),
        };
        let mut b = browser(AttestationStore::corrupted());
        // Seed history so the header carries topics.
        for epoch in 0..3 {
            for i in 0..20 {
                let s = Site::of(&url(&format!("https://h{epoch}x{i}.com/")));
                b.topics_engine_mut()
                    .record_visit(&s, Timestamp::from_weeks(epoch));
                b.topics_engine_mut().record_observation(
                    &d("adnet.com"),
                    &s,
                    Timestamp::from_weeks(epoch),
                );
            }
        }
        b.visit(&spy, &url("https://pub.example/"), Timestamp::from_weeks(3))
            .unwrap();
        let headers = captured.lock().clone();
        assert!(!headers.is_empty(), "a topics header was sent");
        for h in &headers {
            let parsed = topics_net::http::parse_topics_header(h)
                .unwrap_or_else(|| panic!("unparsable header {h:?}"));
            assert!(!parsed.topics.is_empty());
            assert!(parsed.version.starts_with("chrome.1:"));
        }
    }

    #[test]
    fn recording_observer_mirrors_page_visit() {
        use crate::observer::RecordingObserver;
        let web = TinyWeb::new()
            .page(
                "https://news.example/",
                r#"<script>topics js</script><img src="https://px.example/p.gif">"#,
            )
            .page("https://px.example/p.gif", "gif");
        let rec = RecordingObserver::shared();
        let classifier = Arc::new(Classifier::new(5).with_unclassifiable_rate(0.0));
        let mut b = Browser::new(
            classifier,
            AttestationStore::corrupted(),
            BrowserConfig::default(),
            11,
        )
        .with_observer(rec.clone());
        let visit = b
            .visit(&web, &url("https://news.example/"), Timestamp::ORIGIN)
            .unwrap();
        let (calls, objects) = rec.drain();
        assert_eq!(calls, visit.topics_calls, "observer sees the same calls");
        assert_eq!(objects, visit.objects, "observer sees the same objects");
    }

    #[test]
    fn cache_survives_within_profile_until_cleared() {
        let web = TinyWeb::new()
            .page(
                "https://s.example/",
                r#"<img src="https://cdn.example/i.png">"#,
            )
            .page("https://cdn.example/i.png", "png");
        let mut b = browser(AttestationStore::corrupted());
        let u = url("https://s.example/");
        b.visit(&web, &u, Timestamp::ORIGIN).unwrap();
        let (h0, _) = b.cache.stats();
        b.visit(&web, &u, Timestamp(1)).unwrap();
        let (h1, _) = b.cache.stats();
        assert!(h1 > h0, "second visit hits the cache");
        b.clear_cache();
        assert!(b.cache.is_empty());
    }
}
