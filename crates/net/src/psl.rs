//! Public-suffix handling and registrable-domain (eTLD+1) computation.
//!
//! The Topics API identifies callers and sites by their *registrable
//! domain* (public suffix plus one label), and the paper's §4 analysis
//! compares second-level domains of calling party and visited site
//! (`www.foo.com` vs `ad.foo.net` → same party `foo`). We embed the subset
//! of the public-suffix list needed by the synthetic web: every plain TLD
//! we generate plus the multi-label suffixes in common use.

use crate::domain::Domain;

/// Second-level labels that form a multi-label public suffix under a
/// given TLD (a practical subset of the PSL): `second_levels("uk")`
/// holds `co`, so `co.uk` is a suffix. Single-label TLDs need no table:
/// any final label acts as a suffix.
fn second_levels(tld: &str) -> &'static [&'static str] {
    match tld {
        // United Kingdom
        "uk" => &["co", "org", "ac", "gov", "net"],
        // Japan
        "jp" => &["co", "ne", "or", "ac", "go"],
        // Brazil
        "br" => &["com", "net", "org", "gov"],
        // Australia
        "au" => &["com", "net", "org"],
        // India
        "in" => &["co", "net", "org"],
        // Russia (historic suffixes)
        "ru" => &["com", "net", "org"],
        // China
        "cn" => &["com", "net", "org"],
        // Mexico / Argentina
        "mx" | "ar" => &["com"],
        // South Korea / Taiwan
        "kr" => &["co", "or"],
        "tw" => &["com"],
        // Europe misc
        "pl" => &["com", "net"],
        "gr" | "pt" | "ro" => &["com"],
        "at" => &["co"],
        // New Zealand / South Africa
        "nz" | "za" => &["co"],
        // Turkey
        "tr" => &["com"],
        _ => &[],
    }
}

/// Is `suffix` (e.g. `co.uk`) a known public suffix?
///
/// Any single label is treated as a public suffix; multi-label suffixes
/// must appear in the embedded table.
pub fn is_public_suffix(suffix: &str) -> bool {
    if suffix.is_empty() {
        return false;
    }
    match suffix.split_once('.') {
        None => true,
        Some((second, tld)) => second_levels(tld).contains(&second),
    }
}

/// Where the registrable domain and the public suffix of `host` begin,
/// found in one backwards scan over its last three labels. A host that
/// is itself a public suffix begins both at 0.
fn split(host: &str) -> (usize, usize) {
    // Start of the last, second-last and third-last label; 0 when the
    // host has fewer labels.
    let mut starts = [0usize; 3];
    let mut found = 0;
    for (i, b) in host.bytes().enumerate().rev() {
        if b == b'.' {
            starts[found] = i + 1;
            found += 1;
            if found == starts.len() {
                break;
            }
        }
    }
    if found == 0 {
        return (0, 0);
    }
    let [tld, second, third] = starts;
    if second_levels(&host[tld..]).contains(&&host[second..tld - 1]) {
        (third, second)
    } else {
        (second, tld)
    }
}

/// The public suffix of a domain: the longest known suffix.
///
/// `www.example.co.uk` → `co.uk`; `www.example.com` → `com`. A host that
/// is itself a multi-label suffix (`co.uk`) is its own suffix.
pub fn public_suffix(domain: &Domain) -> &str {
    let host = domain.as_str();
    &host[split(host).1..]
}

/// The registrable domain (eTLD+1) of a host, as a slice of the host.
///
/// The lookup form of [`registrable_domain`]: it allocates nothing, so
/// callers that only hash or compare the registrable domain should use
/// it. A bare public suffix is its own registrable domain.
///
/// ```
/// use topics_net::domain::Domain;
/// use topics_net::psl::registrable_str;
///
/// let host = Domain::parse("ads.shop.example.co.uk").unwrap();
/// assert_eq!(registrable_str(&host), "example.co.uk");
/// ```
pub fn registrable_str(domain: &Domain) -> &str {
    let host = domain.as_str();
    &host[split(host).0..]
}

/// The registrable domain (eTLD+1) of a host.
///
/// `a.b.example.co.uk` → `example.co.uk`; `www.example.com` → `example.com`.
///
/// ```
/// use topics_net::domain::Domain;
/// use topics_net::psl::registrable_domain;
///
/// let host = Domain::parse("ads.shop.example.co.uk").unwrap();
/// assert_eq!(registrable_domain(&host).as_str(), "example.co.uk");
/// ```
/// If the host itself is a bare public suffix, it is returned unchanged —
/// the synthetic web never serves pages from bare suffixes, and analysis
/// treats such hosts as their own party. A host that is its own
/// registrable domain is returned as a clone of its shared storage.
pub fn registrable_domain(domain: &Domain) -> Domain {
    let reg = registrable_str(domain);
    if reg.len() == domain.as_str().len() {
        domain.clone()
    } else {
        Domain::from_label_suffix(reg)
    }
}

/// True when two hosts share the same *second-level label* even across
/// different suffixes — the paper's §4 notion of "the website and CP
/// second-level domains are the same, e.g. `www.foo.com` and `ad.foo.net`".
pub fn same_second_level_label(a: &Domain, b: &Domain) -> bool {
    second_level_label(a) == second_level_label(b)
}

/// The label immediately left of the public suffix (`foo` in
/// `www.foo.com`), or the whole host when it is a bare suffix.
pub fn second_level_label(domain: &Domain) -> &str {
    let host = domain.as_str();
    let suffix = public_suffix(domain);
    if host == suffix {
        return host;
    }
    let prefix = &host[..host.len() - suffix.len() - 1];
    prefix.rsplit('.').next().expect("non-empty prefix")
}

/// True when `a` and `b` have the same registrable domain.
pub fn same_site(a: &Domain, b: &Domain) -> bool {
    registrable_str(a) == registrable_str(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> Domain {
        Domain::parse(s).unwrap()
    }

    #[test]
    fn simple_tld() {
        assert_eq!(public_suffix(&d("www.example.com")), "com");
        assert_eq!(
            registrable_domain(&d("www.example.com")).as_str(),
            "example.com"
        );
        assert_eq!(
            registrable_domain(&d("example.com")).as_str(),
            "example.com"
        );
    }

    #[test]
    fn multi_label_suffix() {
        assert_eq!(public_suffix(&d("www.example.co.uk")), "co.uk");
        assert_eq!(
            registrable_domain(&d("a.b.example.co.uk")).as_str(),
            "example.co.uk"
        );
    }

    #[test]
    fn bare_suffix_is_its_own_registrable() {
        assert_eq!(registrable_domain(&d("co.uk")).as_str(), "co.uk");
    }

    #[test]
    fn deep_subdomains() {
        assert_eq!(
            registrable_domain(&d("x.y.z.site.ne.jp")).as_str(),
            "site.ne.jp"
        );
        assert_eq!(registrable_domain(&d("x.y.z.site.ru")).as_str(), "site.ru");
    }

    #[test]
    fn second_level_cross_suffix_match() {
        // The paper's motivating example: www.foo.com vs ad.foo.net.
        assert!(same_second_level_label(&d("www.foo.com"), &d("ad.foo.net")));
        assert!(!same_second_level_label(
            &d("www.foo.com"),
            &d("www.bar.com")
        ));
        assert_eq!(second_level_label(&d("www.foo.co.uk")), "foo");
    }

    #[test]
    fn same_site_matches_registrable() {
        assert!(same_site(&d("a.foo.com"), &d("b.foo.com")));
        assert!(!same_site(&d("a.foo.com"), &d("foo.net")));
    }

    /// The suffix table and eTLD+1 construction as they stood before
    /// the borrowed form: a flat 45-entry table scanned on every call,
    /// and a `format!` re-validated by `Domain::parse`.
    const ORACLE_SUFFIXES: &[&str] = &[
        "co.uk", "org.uk", "ac.uk", "gov.uk", "net.uk", "co.jp", "ne.jp", "or.jp", "ac.jp",
        "go.jp", "com.br", "net.br", "org.br", "gov.br", "com.au", "net.au", "org.au", "co.in",
        "net.in", "org.in", "com.ru", "net.ru", "org.ru", "com.cn", "net.cn", "org.cn", "com.mx",
        "com.ar", "co.kr", "or.kr", "com.tw", "com.pl", "net.pl", "com.gr", "com.pt", "com.ro",
        "co.at", "co.nz", "co.za", "com.tr",
    ];

    fn oracle_public_suffix(host: &str) -> &str {
        let Some(idx) = host.rfind('.') else {
            return host;
        };
        let two = match host[..idx].rfind('.') {
            Some(idx2) => &host[idx2 + 1..],
            None => host,
        };
        if ORACLE_SUFFIXES.contains(&two) {
            two
        } else {
            &host[idx + 1..]
        }
    }

    /// The pre-borrow `registrable_domain`, kept as the reference the
    /// fast forms are checked against.
    fn oracle_registrable_domain(domain: &Domain) -> Domain {
        let host = domain.as_str();
        let suffix = oracle_public_suffix(host);
        if host == suffix {
            return domain.clone();
        }
        let prefix = &host[..host.len() - suffix.len() - 1];
        let last_label = prefix.rsplit('.').next().expect("non-empty prefix");
        Domain::parse(&format!("{last_label}.{suffix}")).expect("valid recombination")
    }

    #[test]
    fn borrowed_and_owned_forms_match_the_oracle() {
        let mut hosts = vec![
            "com".to_owned(), // not a Domain: filtered below
            "uk.com".to_owned(),
            "co.com".to_owned(),
            "www.co.com".to_owned(),
            "a.b.c.d.e.example.org".to_owned(),
            "co.uk.example.com".to_owned(),
        ];
        for suffix in ORACLE_SUFFIXES {
            let (second, tld) = suffix.split_once('.').unwrap();
            for h in [
                suffix.to_string(),
                format!("example.{suffix}"),
                format!("www.example.{suffix}"),
                format!("a.b.example.{suffix}"),
                format!("{second}.{second}.{tld}"),
                format!("x.{tld}"),
                format!("{second}.x.{tld}"),
            ] {
                hosts.push(h);
            }
        }
        let mut checked = 0;
        for h in hosts {
            let Ok(host) = Domain::parse(&h) else {
                continue;
            };
            let expected = oracle_registrable_domain(&host);
            assert_eq!(registrable_str(&host), expected.as_str(), "{h}");
            assert_eq!(registrable_domain(&host), expected, "{h}");
            assert_eq!(public_suffix(&host), oracle_public_suffix(&h), "{h}");
            checked += 1;
        }
        assert!(checked > 250, "{checked} hosts checked");
        for suffix in ORACLE_SUFFIXES {
            assert!(is_public_suffix(suffix), "{suffix}");
        }
    }

    #[test]
    fn is_public_suffix_cases() {
        assert!(is_public_suffix("com"));
        assert!(is_public_suffix("co.uk"));
        assert!(!is_public_suffix("example.com"));
        assert!(!is_public_suffix(""));
        assert!(!is_public_suffix("a.b.c"));
    }
}
