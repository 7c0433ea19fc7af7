//! Consent Management Platforms.
//!
//! CMPs are the commercial products websites embed to run their privacy
//! banner and gate third parties on consent (§5). The paper identifies a
//! site's CMP Wappalyzer-style — by the CMP's domain appearing among the
//! page's objects — and shows (Figure 7) that questionable Before-Accept
//! Topics calls are roughly independent of the CMP in use, *except* that
//! HubSpot (and to a lesser degree LiveRamp) sites are ~2–3× more likely
//! to leak calls, i.e. those CMPs do a worse job of gating the Topics API.
//!
//! Each CMP here has a market share (driving which sites use it) and a
//! `misconfiguration_rate`: the probability that a site using it fails to
//! gate its third parties before consent. The Figure 7 anomaly is encoded
//! as ground-truth *behaviour* (worse gating), and the measured
//! conditional probabilities then emerge from the crawl.

use topics_net::domain::Domain;

/// Identifier of a CMP in the registry (index into [`CMPS`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CmpId(pub usize);

/// Static description of one CMP product.
#[derive(Debug, Clone)]
pub struct CmpSpec {
    /// Product name as shown in Figure 7.
    pub name: &'static str,
    /// The domain whose presence identifies the CMP (Wappalyzer-style).
    pub domain: &'static str,
    /// Share of *CMP-using* sites that pick this CMP (weights; they are
    /// normalised at sampling time).
    pub market_weight: u32,
    /// Probability that a site using this CMP fails to gate third
    /// parties before consent. The fleet average is ≈6%; HubSpot ≈12%
    /// and LiveRamp ≈11% reproduce the paper's outliers.
    pub misconfiguration_rate: f64,
    /// True for CMPs whose Google-Consent-Mode integration is broken on
    /// a large share of sites, so GTM's consent-gated tags (including
    /// the Topics-calling one) fire before consent. This is the
    /// behavioural root of Figure 7's HubSpot/LiveRamp anomaly.
    pub breaks_consent_mode: bool,
}

/// The fifteen CMPs of Figure 7, with OneTrust the clear market leader.
pub const CMPS: [CmpSpec; 15] = [
    CmpSpec {
        name: "OneTrust",
        domain: "onetrust.com",
        market_weight: 300,
        misconfiguration_rate: 0.055,
        breaks_consent_mode: false,
    },
    CmpSpec {
        name: "HubSpot",
        domain: "hubspot.com",
        market_weight: 95,
        misconfiguration_rate: 0.12,
        breaks_consent_mode: true,
    },
    CmpSpec {
        name: "LiveRamp",
        domain: "liveramp.com",
        market_weight: 55,
        misconfiguration_rate: 0.11,
        breaks_consent_mode: true,
    },
    CmpSpec {
        name: "Cookiebot",
        domain: "cookiebot.com",
        market_weight: 140,
        misconfiguration_rate: 0.05,
        breaks_consent_mode: false,
    },
    CmpSpec {
        name: "TrustArc",
        domain: "trustarc.com",
        market_weight: 90,
        misconfiguration_rate: 0.055,
        breaks_consent_mode: false,
    },
    CmpSpec {
        name: "Didomi",
        domain: "didomi.io",
        market_weight: 85,
        misconfiguration_rate: 0.05,
        breaks_consent_mode: false,
    },
    CmpSpec {
        name: "Sourcepoint",
        domain: "sourcepoint.com",
        market_weight: 70,
        misconfiguration_rate: 0.05,
        breaks_consent_mode: false,
    },
    CmpSpec {
        name: "Osano",
        domain: "osano.com",
        market_weight: 55,
        misconfiguration_rate: 0.055,
        breaks_consent_mode: false,
    },
    CmpSpec {
        name: "Iubenda",
        domain: "iubenda.com",
        market_weight: 55,
        misconfiguration_rate: 0.05,
        breaks_consent_mode: false,
    },
    CmpSpec {
        name: "CookieYes",
        domain: "cookieyes.com",
        market_weight: 50,
        misconfiguration_rate: 0.055,
        breaks_consent_mode: false,
    },
    CmpSpec {
        name: "Usercentrics",
        domain: "usercentrics.eu",
        market_weight: 45,
        misconfiguration_rate: 0.05,
        breaks_consent_mode: false,
    },
    CmpSpec {
        name: "CookieScript",
        domain: "cookie-script.com",
        market_weight: 35,
        misconfiguration_rate: 0.055,
        breaks_consent_mode: false,
    },
    CmpSpec {
        name: "Civic",
        domain: "civiccomputing.com",
        market_weight: 30,
        misconfiguration_rate: 0.05,
        breaks_consent_mode: false,
    },
    CmpSpec {
        name: "Cookie Information",
        domain: "cookieinformation.com",
        market_weight: 25,
        misconfiguration_rate: 0.055,
        breaks_consent_mode: false,
    },
    CmpSpec {
        name: "SFBX",
        domain: "sfbx.io",
        market_weight: 20,
        misconfiguration_rate: 0.05,
        breaks_consent_mode: false,
    },
];

impl CmpId {
    /// The spec for this id.
    pub fn spec(self) -> &'static CmpSpec {
        &CMPS[self.0]
    }

    /// The CMP's identifying domain, parsed.
    pub fn domain(self) -> Domain {
        Domain::parse(self.spec().domain).expect("static CMP domains are valid")
    }
}

/// Sample a CMP by market weight from a uniform draw in `[0, 1)`.
pub fn sample_cmp(unit: f64) -> CmpId {
    let total: u32 = CMPS.iter().map(|c| c.market_weight).sum();
    let mut pick = (unit * f64::from(total)) as u32;
    for (i, c) in CMPS.iter().enumerate() {
        if pick < c.market_weight {
            return CmpId(i);
        }
        pick -= c.market_weight;
    }
    CmpId(0)
}

/// Find a CMP by its identifying domain (registrable-domain match) —
/// how the analysis side recognises a CMP among loaded objects.
pub fn cmp_by_domain(domain: &Domain) -> Option<CmpId> {
    let reg = topics_net::psl::registrable_str(domain);
    CMPS.iter().position(|c| c.domain == reg).map(CmpId)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifteen_cmps_match_figure_7() {
        assert_eq!(CMPS.len(), 15);
        assert_eq!(CMPS[0].name, "OneTrust");
        // OneTrust has the largest market weight.
        assert!(CMPS
            .iter()
            .all(|c| c.market_weight <= CMPS[0].market_weight));
    }

    #[test]
    fn hubspot_and_liveramp_are_the_misconfiguration_outliers() {
        let avg: f64 = CMPS.iter().map(|c| c.misconfiguration_rate).sum::<f64>() / 15.0;
        let hubspot = CMPS.iter().find(|c| c.name == "HubSpot").unwrap();
        let liveramp = CMPS.iter().find(|c| c.name == "LiveRamp").unwrap();
        assert!(hubspot.misconfiguration_rate > 1.8 * avg);
        assert!(liveramp.misconfiguration_rate > 1.6 * avg);
        for c in &CMPS {
            if c.name != "HubSpot" && c.name != "LiveRamp" {
                assert!(c.misconfiguration_rate < 0.07, "{} too leaky", c.name);
            }
        }
    }

    #[test]
    fn sampling_covers_all_and_respects_weights() {
        let mut counts = [0u32; 15];
        let n = 50_000;
        for i in 0..n {
            let u = (i as f64 + 0.5) / n as f64;
            counts[sample_cmp(u).0] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "every CMP sampled");
        let total: u32 = CMPS.iter().map(|c| c.market_weight).sum();
        for (i, c) in CMPS.iter().enumerate() {
            let expected = f64::from(c.market_weight) / f64::from(total);
            let got = f64::from(counts[i]) / n as f64;
            assert!(
                (got - expected).abs() < 0.01,
                "{}: {got} vs {expected}",
                c.name
            );
        }
    }

    #[test]
    fn domain_lookup_roundtrip() {
        for (i, spec) in CMPS.iter().enumerate() {
            let id = CmpId(i);
            assert_eq!(cmp_by_domain(&id.domain()), Some(id));
            // Subdomains also identify the CMP (cdn.onetrust.com etc.).
            let sub = Domain::parse(&format!("cdn.{}", spec.domain)).unwrap();
            assert_eq!(cmp_by_domain(&sub), Some(id));
        }
        assert_eq!(
            cmp_by_domain(&Domain::parse("unrelated.com").unwrap()),
            None
        );
    }
}
