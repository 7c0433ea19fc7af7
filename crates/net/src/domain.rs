//! Hostname handling.
//!
//! A [`Domain`] is a validated, lowercased DNS hostname. The analysis in
//! the paper operates on domains at two granularities: the full host (for
//! object URLs) and the registrable domain / eTLD+1 (for identifying
//! parties); see [`crate::psl`] for the latter.

use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;
use topics_obs::{FieldValue, Text};

/// A validated, lowercase DNS hostname such as `www.example.co.uk`.
///
/// Cheap to clone (`Arc<str>` inside); ordering and hashing are by the
/// textual host, which makes it usable directly as a map key in datasets.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Domain(Arc<str>);

/// Why a hostname failed validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DomainError {
    /// The input was empty.
    Empty,
    /// The hostname exceeded 253 characters.
    TooLong,
    /// A label was empty (leading/trailing/double dot).
    EmptyLabel,
    /// A label exceeded 63 characters.
    LabelTooLong,
    /// A character outside `[a-z0-9-]` appeared in a label.
    BadCharacter,
    /// A label started or ended with a hyphen.
    BadHyphen,
    /// The hostname had only one label (no dot), e.g. `localhost`.
    NotFullyQualified,
}

/// A domain recorded as a trace field value shares the domain's string.
impl From<&Domain> for FieldValue {
    fn from(d: &Domain) -> FieldValue {
        FieldValue::Str(Text::Owned(Arc::clone(&d.0)))
    }
}

impl fmt::Display for DomainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DomainError::Empty => "empty hostname",
            DomainError::TooLong => "hostname longer than 253 characters",
            DomainError::EmptyLabel => "empty label",
            DomainError::LabelTooLong => "label longer than 63 characters",
            DomainError::BadCharacter => "invalid character in label",
            DomainError::BadHyphen => "label starts or ends with a hyphen",
            DomainError::NotFullyQualified => "hostname has a single label",
        };
        f.write_str(s)
    }
}

impl std::error::Error for DomainError {}

impl Domain {
    /// Parse and validate a hostname, lowercasing ASCII letters.
    pub fn parse(input: &str) -> Result<Self, DomainError> {
        if input.is_empty() {
            return Err(DomainError::Empty);
        }
        if input.len() > 253 {
            return Err(DomainError::TooLong);
        }
        let mut labels = 0usize;
        for label in input.split('.') {
            labels += 1;
            if label.is_empty() {
                return Err(DomainError::EmptyLabel);
            }
            if label.len() > 63 {
                return Err(DomainError::LabelTooLong);
            }
            if !label
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'-')
            {
                return Err(DomainError::BadCharacter);
            }
            if label.starts_with('-') || label.ends_with('-') {
                return Err(DomainError::BadHyphen);
            }
        }
        if labels < 2 {
            return Err(DomainError::NotFullyQualified);
        }
        if input.bytes().any(|b| b.is_ascii_uppercase()) {
            Ok(Domain(input.to_ascii_lowercase().into()))
        } else {
            Ok(Domain(input.into()))
        }
    }

    /// A domain from a label-aligned suffix of a validated domain that
    /// keeps at least two labels (a registrable domain, say). Such a
    /// suffix is valid by construction, so it is not validated again.
    pub(crate) fn from_label_suffix(suffix: &str) -> Domain {
        debug_assert_eq!(
            Domain::parse(suffix).as_ref().map(Domain::as_str),
            Ok(suffix)
        );
        Domain(suffix.into())
    }

    /// The full hostname as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Iterate over the labels from left (most specific) to right.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.0.split('.')
    }

    /// Number of labels.
    pub fn label_count(&self) -> usize {
        self.0.split('.').count()
    }

    /// The last label, e.g. `uk` for `www.example.co.uk`.
    pub fn tld_label(&self) -> &str {
        self.0.rsplit('.').next().expect("validated non-empty")
    }

    /// True if `self` equals `other` or is a subdomain of it
    /// (`a.b.com`.is_subdomain_of(`b.com`) == true).
    pub fn is_subdomain_of(&self, other: &Domain) -> bool {
        self.0.as_ref() == other.0.as_ref()
            || (self.0.len() > other.0.len()
                && self.0.ends_with(other.0.as_ref())
                && self.0.as_bytes()[self.0.len() - other.0.len() - 1] == b'.')
    }
}

impl fmt::Debug for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Domain({})", self.0)
    }
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl FromStr for Domain {
    type Err = DomainError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Domain::parse(s)
    }
}

impl Borrow<str> for Domain {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Domain {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_lowercases() {
        let d = Domain::parse("WWW.Example.COM").unwrap();
        assert_eq!(d.as_str(), "www.example.com");
    }

    #[test]
    fn rejects_bad_inputs() {
        assert_eq!(Domain::parse(""), Err(DomainError::Empty));
        assert_eq!(Domain::parse("a..b"), Err(DomainError::EmptyLabel));
        assert_eq!(Domain::parse(".a.b"), Err(DomainError::EmptyLabel));
        assert_eq!(Domain::parse("a.b."), Err(DomainError::EmptyLabel));
        assert_eq!(
            Domain::parse("localhost"),
            Err(DomainError::NotFullyQualified)
        );
        assert_eq!(
            Domain::parse("exa mple.com"),
            Err(DomainError::BadCharacter)
        );
        assert_eq!(Domain::parse("-a.com"), Err(DomainError::BadHyphen));
        assert_eq!(Domain::parse("a-.com"), Err(DomainError::BadHyphen));
        let long_label = format!("{}.com", "a".repeat(64));
        assert_eq!(Domain::parse(&long_label), Err(DomainError::LabelTooLong));
        let long_host = format!("{}.com", "a.".repeat(130));
        assert_eq!(Domain::parse(&long_host), Err(DomainError::TooLong));
    }

    #[test]
    fn labels_iterate_left_to_right() {
        let d = Domain::parse("a.b.co.uk").unwrap();
        let v: Vec<_> = d.labels().collect();
        assert_eq!(v, ["a", "b", "co", "uk"]);
        assert_eq!(d.label_count(), 4);
        assert_eq!(d.tld_label(), "uk");
    }

    #[test]
    fn subdomain_relation() {
        let base = Domain::parse("foo.com").unwrap();
        assert!(Domain::parse("foo.com").unwrap().is_subdomain_of(&base));
        assert!(Domain::parse("a.foo.com").unwrap().is_subdomain_of(&base));
        assert!(!Domain::parse("afoo.com").unwrap().is_subdomain_of(&base));
        assert!(!Domain::parse("foo.com.br").unwrap().is_subdomain_of(&base));
    }

    #[test]
    fn serde_round_trip() {
        let d = Domain::parse("x.example.org").unwrap();
        let j = serde_json::to_string(&d).unwrap();
        assert_eq!(j, "\"x.example.org\"");
        let back: Domain = serde_json::from_str(&j).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn digits_only_labels_are_fine() {
        // e.g. 3lift.com-style domains with leading digits
        let d = Domain::parse("3lift.com").unwrap();
        assert_eq!(d.as_str(), "3lift.com");
    }
}
