//! A minimal URL type sufficient for the simulated web.
//!
//! Only `https` and `http` schemes exist in the simulation; URLs carry a
//! host, a path and an optional query. Fragments are parsed and discarded
//! (they never reach the network, as on the real web).

use crate::domain::{Domain, DomainError};
use crate::error::NetError;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// URL scheme. The simulated web is HTTPS-first; HTTP exists so redirects
/// to HTTPS can be modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Scheme {
    /// `http://`
    Http,
    /// `https://`
    Https,
}

impl Scheme {
    /// The scheme name without `://`.
    pub fn as_str(self) -> &'static str {
        match self {
            Scheme::Http => "http",
            Scheme::Https => "https",
        }
    }
}

/// A parsed URL: scheme, host, absolute path, optional query.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Url {
    scheme: Scheme,
    host: Domain,
    path: String,
    query: Option<String>,
}

impl Url {
    /// Construct an HTTPS URL for `host` with the given absolute path.
    ///
    /// Panics if `path` does not start with `/` — paths in the simulation
    /// are always absolute.
    pub fn https(host: Domain, path: &str) -> Url {
        assert!(path.starts_with('/'), "path must be absolute: {path:?}");
        Url {
            scheme: Scheme::Https,
            host,
            path: path.to_owned(),
            query: None,
        }
    }

    /// Parse an absolute URL string.
    pub fn parse(input: &str) -> Result<Url, NetError> {
        let bad = |reason: &'static str| NetError::BadUrl {
            input: input.to_owned(),
            reason,
        };
        let (scheme, rest) = if let Some(r) = input.strip_prefix("https://") {
            (Scheme::Https, r)
        } else if let Some(r) = input.strip_prefix("http://") {
            (Scheme::Http, r)
        } else {
            return Err(bad("missing http(s) scheme"));
        };
        // Strip fragment first: it never reaches the network.
        let rest = rest.split('#').next().unwrap_or(rest);
        let (authority, path_query) = match rest.find('/') {
            Some(i) => (&rest[..i], &rest[i..]),
            None => (rest, "/"),
        };
        if authority.contains('@') || authority.contains(':') {
            return Err(bad("userinfo and ports are not modelled"));
        }
        let host = Domain::parse(authority).map_err(|_e: DomainError| bad("invalid host"))?;
        let (path, query) = split_path_query(path_query);
        Ok(Url {
            scheme,
            host,
            path,
            query,
        })
    }

    /// The URL scheme.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// The host.
    pub fn host(&self) -> &Domain {
        &self.host
    }

    /// The absolute path (always starts with `/`).
    pub fn path(&self) -> &str {
        &self.path
    }

    /// The query string without the leading `?`, if any.
    pub fn query(&self) -> Option<&str> {
        self.query.as_deref()
    }

    /// A copy of this URL with a different path (query dropped).
    #[must_use]
    pub fn with_path(&self, path: &str) -> Url {
        assert!(path.starts_with('/'), "path must be absolute: {path:?}");
        Url {
            scheme: self.scheme,
            host: self.host.clone(),
            path: path.to_owned(),
            query: None,
        }
    }

    /// Resolve a reference against this URL as base: absolute URLs pass
    /// through, `//host/path` inherits the scheme, `/path` inherits host.
    pub fn join(&self, reference: &str) -> Result<Url, NetError> {
        if reference.starts_with("http://") || reference.starts_with("https://") {
            Url::parse(reference)
        } else if let Some(rest) = reference.strip_prefix("//") {
            Url::parse(&format!("{}://{}", self.scheme.as_str(), rest))
        } else if reference.starts_with('/') {
            let (path, query) = split_path_query(reference.split('#').next().unwrap_or(reference));
            Ok(Url {
                scheme: self.scheme,
                host: self.host.clone(),
                path,
                query,
            })
        } else {
            Err(NetError::BadUrl {
                input: reference.to_owned(),
                reason: "relative (non-rooted) references are not modelled",
            })
        }
    }
}

/// Split a fragment-free `/path?query` into its path and query parts.
fn split_path_query(path_query: &str) -> (String, Option<String>) {
    match path_query.split_once('?') {
        Some((path, query)) => (path.to_owned(), Some(query.to_owned())),
        None => (path_query.to_owned(), None),
    }
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}://{}{}", self.scheme.as_str(), self.host, self.path)?;
        if let Some(q) = &self.query {
            write!(f, "?{q}")?;
        }
        Ok(())
    }
}

impl FromStr for Url {
    type Err = NetError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Url::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trip() {
        let u = Url::parse("https://www.example.com/a/b?x=1").unwrap();
        assert_eq!(u.scheme(), Scheme::Https);
        assert_eq!(u.host().as_str(), "www.example.com");
        assert_eq!(u.path(), "/a/b");
        assert_eq!(u.query(), Some("x=1"));
        assert_eq!(u.to_string(), "https://www.example.com/a/b?x=1");
    }

    #[test]
    fn bare_host_gets_root_path() {
        let u = Url::parse("https://example.com").unwrap();
        assert_eq!(u.path(), "/");
        assert_eq!(u.to_string(), "https://example.com/");
    }

    #[test]
    fn fragment_is_dropped() {
        let u = Url::parse("https://example.com/p#frag").unwrap();
        assert_eq!(u.path(), "/p");
        assert_eq!(u.to_string(), "https://example.com/p");
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(Url::parse("ftp://example.com/").is_err());
        assert!(Url::parse("https://user@example.com/").is_err());
        assert!(Url::parse("https://example.com:8080/").is_err());
        assert!(Url::parse("https:///path").is_err());
        assert!(Url::parse("example.com/path").is_err());
    }

    #[test]
    fn join_variants() {
        let base = Url::parse("https://example.com/dir/page").unwrap();
        assert_eq!(
            base.join("https://other.net/x").unwrap().to_string(),
            "https://other.net/x"
        );
        assert_eq!(
            base.join("//cdn.example.com/lib.js").unwrap().to_string(),
            "https://cdn.example.com/lib.js"
        );
        assert_eq!(
            base.join("/rooted?q=2").unwrap().to_string(),
            "https://example.com/rooted?q=2"
        );
        assert!(base.join("relative/path").is_err());
    }

    #[test]
    fn join_and_parse_agree_on_absolute_and_rooted_forms() {
        let base = Url::parse("https://example.com/dir/page?x=1").unwrap();
        for path in [
            "/",
            "/main.css",
            "/main.css#x",
            "/a?b#c",
            "/a?b",
            "/a?#",
            "/#only",
            "/a?b?c#d#e",
        ] {
            let absolute = format!("https://example.com{path}");
            let parsed = Url::parse(&absolute).unwrap();
            assert_eq!(base.join(path).unwrap(), parsed, "rooted {path}");
            assert_eq!(base.join(&absolute).unwrap(), parsed, "absolute {path}");
            assert_eq!(
                base.join(&format!("//example.com{path}")).unwrap(),
                parsed,
                "scheme-relative {path}"
            );
            assert!(!parsed.to_string().contains('#'), "{parsed}");
        }
        let css = base.join("/main.css#x").unwrap();
        assert_eq!((css.path(), css.query()), ("/main.css", None));
        let q = base.join("/a?b#c").unwrap();
        assert_eq!((q.path(), q.query()), ("/a", Some("b")));
    }

    #[test]
    fn with_path_drops_query() {
        let u = Url::parse("https://example.com/a?x=1").unwrap();
        let v = u.with_path("/b");
        assert_eq!(v.to_string(), "https://example.com/b");
    }

    #[test]
    #[should_panic(expected = "absolute")]
    fn https_requires_absolute_path() {
        Url::https(Domain::parse("a.com").unwrap(), "nope");
    }
}
