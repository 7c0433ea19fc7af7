//! The browser resource cache.
//!
//! The paper clears the cache between the Before-Accept and After-Accept
//! visits so every object is downloaded again and both visits observe the
//! full set of first- and third-party URLs. The cache here is a plain
//! URL-keyed store with hit counting, enough to verify that behaviour.
//! Entries are shared: a hit or a store clones a pointer, not a body.

use std::collections::HashMap;
use std::sync::Arc;
use topics_net::http::HttpResponse;
use topics_net::url::Url;

/// A URL-keyed response cache.
#[derive(Debug, Default)]
pub struct ResourceCache {
    entries: HashMap<Url, Arc<HttpResponse>>,
    hits: u64,
    misses: u64,
}

impl ResourceCache {
    /// An empty cache.
    pub fn new() -> ResourceCache {
        ResourceCache::default()
    }

    /// Look up a cached response, counting the hit/miss.
    pub fn lookup(&mut self, url: &Url) -> Option<Arc<HttpResponse>> {
        match self.entries.get(url) {
            Some(r) => {
                self.hits += 1;
                Some(r.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Store a response. Redirects and errors are not cached.
    pub fn store(&mut self, url: &Url, response: &Arc<HttpResponse>) {
        if response.status.is_success() {
            self.entries.insert(url.clone(), Arc::clone(response));
        }
    }

    /// Drop every entry ("We delete the browser cache to load again all
    /// objects", §2.2). Hit/miss counters are preserved for diagnostics.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(hits, misses)` since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topics_net::http::StatusCode;

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    #[test]
    fn store_then_hit() {
        let mut c = ResourceCache::new();
        let u = url("https://a.com/lib.js");
        assert!(c.lookup(&u).is_none());
        c.store(&u, &Arc::new(HttpResponse::ok("text/javascript", "x")));
        let r = c.lookup(&u).unwrap();
        assert_eq!(r.body, "x");
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn non_success_is_not_cached() {
        let mut c = ResourceCache::new();
        let u = url("https://a.com/missing");
        c.store(&u, &Arc::new(HttpResponse::not_found()));
        assert!(c.lookup(&u).is_none());
        let mut r = HttpResponse::ok("text/html", "");
        r.status = StatusCode::Found;
        c.store(&u, &Arc::new(r));
        assert!(c.lookup(&u).is_none());
    }

    #[test]
    fn clear_forces_refetch() {
        let mut c = ResourceCache::new();
        let u = url("https://a.com/x");
        c.store(&u, &Arc::new(HttpResponse::ok("text/html", "page")));
        assert!(!c.is_empty());
        c.clear();
        assert!(c.is_empty());
        assert!(c.lookup(&u).is_none());
    }

    #[test]
    fn query_distinguishes_entries() {
        let mut c = ResourceCache::new();
        c.store(
            &url("https://a.com/t?id=1"),
            &Arc::new(HttpResponse::ok("text/javascript", "one")),
        );
        assert!(c.lookup(&url("https://a.com/t?id=2")).is_none());
        assert_eq!(c.lookup(&url("https://a.com/t?id=1")).unwrap().body, "one");
    }
}
