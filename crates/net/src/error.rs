//! Error types shared across the network substrate.

use crate::dns::DnsError;
use std::fmt;
use topics_obs::Word;

/// Any failure while fetching a resource over the simulated network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// DNS resolution failed (name error, timeout, …).
    Dns(DnsError),
    /// The TCP/TLS connection failed after resolution.
    ConnectionFailed {
        /// Host we attempted to connect to.
        host: String,
    },
    /// The connection was reset mid-exchange (injected by the fault
    /// layer; transient — a retry may succeed).
    ConnectionReset {
        /// Host whose connection was reset.
        host: String,
    },
    /// The client gave up waiting for a slow response (injected by the
    /// fault layer; transient — a retry may succeed).
    TimedOut {
        /// Requested URL, for diagnostics.
        url: String,
        /// Simulated milliseconds waited before giving up.
        after_ms: u64,
    },
    /// The server has no resource at the requested path.
    NotFound {
        /// Requested URL, for diagnostics.
        url: String,
    },
    /// Too many redirects while following a redirect chain.
    TooManyRedirects {
        /// URL where we gave up.
        url: String,
        /// Redirect hops taken before giving up.
        hops: usize,
    },
    /// A redirect response carried no (or an unparsable) `Location`.
    BadRedirect {
        /// URL that produced the bad redirect.
        url: String,
    },
    /// A URL failed to parse.
    BadUrl {
        /// The offending input.
        input: String,
        /// Human-readable reason.
        reason: &'static str,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Dns(e) => write!(f, "dns error: {e}"),
            NetError::ConnectionFailed { host } => write!(f, "connection to {host} failed"),
            NetError::ConnectionReset { host } => {
                write!(f, "connection to {host} reset by peer")
            }
            NetError::TimedOut { url, after_ms } => {
                write!(f, "timed out after {after_ms} ms fetching {url}")
            }
            NetError::NotFound { url } => write!(f, "no resource at {url}"),
            NetError::TooManyRedirects { url, hops } => {
                write!(f, "gave up after {hops} redirects at {url}")
            }
            NetError::BadRedirect { url } => write!(f, "bad redirect from {url}"),
            NetError::BadUrl { input, reason } => write!(f, "bad url {input:?}: {reason}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<DnsError> for NetError {
    fn from(e: DnsError) -> Self {
        NetError::Dns(e)
    }
}

impl NetError {
    /// True for errors that make the whole site visit fail (the paper's
    /// "domain name resolution or connection-related errors" causing
    /// 50,000 − 43,405 sites to be dropped).
    pub fn is_visit_fatal(&self) -> bool {
        matches!(
            self,
            NetError::Dns(_)
                | NetError::ConnectionFailed { .. }
                | NetError::ConnectionReset { .. }
                | NetError::TimedOut { .. }
        )
    }

    /// True for failures a bounded retry may fix: resets and timeouts.
    /// DNS failures are sticky in the simulation (the fault layer decides
    /// per registrable domain), so they are deliberately *not* transient.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            NetError::ConnectionReset { .. } | NetError::TimedOut { .. }
        )
    }

    /// The failure's kind, as the trace's `error` and `cause` fields
    /// record it.
    pub fn kind(&self) -> Word {
        match self {
            NetError::Dns(_) => Word::Dns,
            NetError::ConnectionFailed { .. } => Word::ConnectionFailed,
            NetError::ConnectionReset { .. } => Word::ConnectionReset,
            NetError::TimedOut { .. } => Word::TimedOut,
            NetError::NotFound { .. } => Word::NotFound,
            NetError::TooManyRedirects { .. } => Word::TooManyRedirects,
            NetError::BadRedirect { .. } => Word::BadRedirect,
            NetError::BadUrl { .. } => Word::BadUrl,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = NetError::NotFound {
            url: "https://a.com/x".into(),
        };
        assert!(e.to_string().contains("a.com/x"));
    }

    #[test]
    fn fatality_classification() {
        assert!(NetError::Dns(DnsError::NameError {
            domain: "x.com".into()
        })
        .is_visit_fatal());
        assert!(NetError::ConnectionFailed { host: "x".into() }.is_visit_fatal());
        assert!(!NetError::NotFound { url: "u".into() }.is_visit_fatal());
        assert!(!NetError::BadRedirect { url: "u".into() }.is_visit_fatal());
    }

    #[test]
    fn transience_classification() {
        let reset = NetError::ConnectionReset { host: "x".into() };
        let timeout = NetError::TimedOut {
            url: "https://x/y".into(),
            after_ms: 10_000,
        };
        assert!(reset.is_transient() && reset.is_visit_fatal());
        assert!(timeout.is_transient() && timeout.is_visit_fatal());
        assert!(!NetError::Dns(DnsError::Timeout { domain: "x".into() }).is_transient());
        assert!(!NetError::ConnectionFailed { host: "x".into() }.is_transient());
        assert!(timeout.to_string().contains("10000 ms"));
    }
}
