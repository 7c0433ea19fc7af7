//! A small cookie jar.
//!
//! Two things in the reproduction need cookies: the consent state a CMP
//! records when the user accepts the privacy banner (which survives the
//! cache clearing between the Before-Accept and After-Accept visits), and
//! the third-party identifier cookies of the classical tracking baseline
//! (`topics-baseline`).

use crate::origin::Site;
use std::collections::HashMap;
use topics_net::clock::Timestamp;

/// One cookie.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cookie {
    /// Cookie name.
    pub name: String,
    /// Cookie value.
    pub value: String,
    /// When it was set (simulated time).
    pub set_at: Timestamp,
}

/// Cookie storage keyed by site and partitioned by access context.
///
/// Cookies set by a third party embedded in a page are classic
/// *third-party cookies*: they live under the third party's own site key,
/// visible to that party on any page — exactly the cross-site linkage the
/// Topics API was designed to replace.
#[derive(Debug, Clone, Default)]
pub struct CookieJar {
    by_site: HashMap<Site, HashMap<String, Cookie>>,
}

impl CookieJar {
    /// An empty jar.
    pub fn new() -> CookieJar {
        CookieJar::default()
    }

    /// Set a cookie for `site`.
    pub fn set(&mut self, site: &Site, name: &str, value: &str, now: Timestamp) {
        self.by_site.entry(site.clone()).or_default().insert(
            name.to_owned(),
            Cookie {
                name: name.to_owned(),
                value: value.to_owned(),
                set_at: now,
            },
        );
    }

    /// Look up a cookie.
    pub fn get(&self, site: &Site, name: &str) -> Option<&Cookie> {
        self.by_site.get(site).and_then(|m| m.get(name))
    }

    /// All cookies for a site, in arbitrary order.
    pub fn cookies_for(&self, site: &Site) -> Vec<&Cookie> {
        self.by_site
            .get(site)
            .map(|m| m.values().collect())
            .unwrap_or_default()
    }

    /// Render the `Cookie:` request-header value for a site, sorted by
    /// name for determinism. Empty string when no cookies exist.
    pub fn header_for(&self, site: &Site) -> String {
        let mut cookies = self.cookies_for(site);
        cookies.sort_by(|a, b| a.name.cmp(&b.name));
        let mut header = String::new();
        for (i, c) in cookies.iter().enumerate() {
            if i > 0 {
                header.push_str("; ");
            }
            header.push_str(&c.name);
            header.push('=');
            header.push_str(&c.value);
        }
        header
    }

    /// Delete every cookie (full browser reset). Note the paper clears
    /// only the *cache* between visits, so the consent cookie survives;
    /// this method exists for starting fresh profiles.
    pub fn clear(&mut self) {
        self.by_site.clear();
    }

    /// Total cookie count across all sites.
    pub fn len(&self) -> usize {
        self.by_site.values().map(|m| m.len()).sum()
    }

    /// True when the jar holds no cookies.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topics_net::url::Url;

    fn site(s: &str) -> Site {
        Site::of(&Url::parse(s).unwrap())
    }

    #[test]
    fn set_get_roundtrip() {
        let mut jar = CookieJar::new();
        let s = site("https://example.com/");
        jar.set(&s, "euconsent", "granted", Timestamp(5));
        let c = jar.get(&s, "euconsent").unwrap();
        assert_eq!(c.value, "granted");
        assert_eq!(c.set_at, Timestamp(5));
        assert!(jar.get(&s, "other").is_none());
    }

    #[test]
    fn sites_are_isolated() {
        let mut jar = CookieJar::new();
        jar.set(&site("https://a.com/"), "id", "1", Timestamp(0));
        assert!(jar.get(&site("https://b.com/"), "id").is_none());
    }

    #[test]
    fn subdomains_share_site_cookies() {
        let mut jar = CookieJar::new();
        jar.set(&site("https://www.a.com/"), "id", "1", Timestamp(0));
        assert!(jar.get(&site("https://shop.a.com/"), "id").is_some());
    }

    #[test]
    fn header_is_sorted_and_joined() {
        let mut jar = CookieJar::new();
        let s = site("https://a.com/");
        jar.set(&s, "zz", "2", Timestamp(0));
        jar.set(&s, "aa", "1", Timestamp(0));
        assert_eq!(jar.header_for(&s), "aa=1; zz=2");
        assert_eq!(jar.header_for(&site("https://b.com/")), "");
    }

    #[test]
    fn overwrite_replaces_value() {
        let mut jar = CookieJar::new();
        let s = site("https://a.com/");
        jar.set(&s, "k", "old", Timestamp(0));
        jar.set(&s, "k", "new", Timestamp(1));
        assert_eq!(jar.get(&s, "k").unwrap().value, "new");
        assert_eq!(jar.len(), 1);
    }

    #[test]
    fn clear_empties_jar() {
        let mut jar = CookieJar::new();
        jar.set(&site("https://a.com/"), "k", "v", Timestamp(0));
        assert!(!jar.is_empty());
        jar.clear();
        assert!(jar.is_empty());
    }
}
