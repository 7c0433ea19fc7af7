//! Page and script rendering.
//!
//! Turns a [`SiteSpec`] plus the visitor's consent state into the HTML
//! the browser parses, and renders the auxiliary documents: GTM
//! containers, CMP loaders, sibling ad frames, corporate parent frames,
//! and the secondary analytics library. Consent gating is applied here,
//! server-side: pre-consent requests from a gating site simply do not
//! contain the gated ad tags — which is how CMP-managed sites behave.

use crate::parties::{AdPlatform, ApiStyle};
use crate::site::{GtmContainer, SiteSpec};
// `write!` into a `String` cannot fail, so its `Ok` is discarded.
use std::fmt::Write;
use topics_net::domain::Domain;

/// The host serving GTM containers.
pub const GTM_HOST: &str = "www.googletagmanager.com";
/// The host of the secondary topics-calling library (the ≈5% of §4
/// anomalous pages without GTM).
pub const EXTRA_LIB_HOST: &str = "webstats-metrics.com";

/// Render a site's page HTML.
///
/// `consented` is derived by the server from the consent cookie: a gating
/// site withholds its gated ad tags until consent, and the banner markup
/// disappears once consent is given.
pub fn render_page(
    spec: &SiteSpec,
    registry: &[AdPlatform],
    consented: bool,
    minor_domain: impl Fn(u64) -> Domain,
) -> String {
    render_page_for(spec, registry, consented, true, minor_domain)
}

/// [`render_page`] with an explicit visitor geography. Non-European
/// visitors to a geo-targeted site get no banner and the implied-consent
/// page (tags ungated) — the behaviour behind the paper's §6 remark that
/// "websites may exhibit different behavior based on a user's location".
pub fn render_page_for(
    spec: &SiteSpec,
    registry: &[AdPlatform],
    consented: bool,
    visitor_is_eu: bool,
    minor_domain: impl Fn(u64) -> Domain,
) -> String {
    // Geo-targeted sites treat non-EU traffic as an implied-consent
    // regime: no banner, nothing withheld.
    let banner_applies = !spec.banner_geo_targeted || visitor_is_eu;
    let effective_consented = consented || !banner_applies;
    let mut html = String::with_capacity(2048);
    let content = spec.content_domain();
    html.push_str("<html><head>\n");
    let _ = writeln!(
        html,
        "<title>{} — {}</title>",
        content,
        spec.language.banner_prose()
    );
    html.push_str("<link rel=\"stylesheet\" href=\"/main.css\">\n");

    // CMP loader: present whenever the site uses a CMP (that is what the
    // Wappalyzer-style detection keys on), consent or not.
    if let Some(cmp) = spec.cmp {
        let _ = writeln!(
            html,
            "<script src=\"https://cdn.{}/cmp.js\"></script>",
            cmp.spec().domain
        );
    }
    html.push_str("</head><body>\n");

    // Privacy banner, shown until consent is granted.
    if spec.has_banner && banner_applies && !consented {
        let phrase = if spec.banner_quirky {
            spec.language.quirky_accept_phrase()
        } else {
            spec.language.standard_accept_phrase()
        };
        let _ = writeln!(
            html,
            "<div class=\"consent-banner\" id=\"privacy-banner\">\n<p>{}</p>\n\
             <button id=\"accept-btn\" class=\"accept\">{}</button>\n\
             <button id=\"reject-btn\" class=\"reject\">{}</button>\n</div>",
            spec.language.banner_prose(),
            phrase,
            spec.language.standard_reject_phrase()
        );
    }

    // GTM: either directly in the page (root context — the Figure 4
    // mechanism) or inside a sibling-domain iframe.
    if let Some(gtm) = &spec.gtm {
        match &spec.sibling_frame {
            Some(sibling) => {
                let _ = writeln!(
                    html,
                    "<iframe src=\"https://{}/adframe?id={}\"></iframe>",
                    sibling, gtm.container_id
                );
            }
            None => {
                let _ = writeln!(
                    html,
                    "<script src=\"https://{}/gtm.js?id={}\"></script>",
                    GTM_HOST, gtm.container_id
                );
            }
        }
    }

    // Corporate parent frame.
    if let Some((parent, _)) = &spec.parent_frame {
        let _ = writeln!(
            html,
            "<iframe src=\"https://{}/pframe?brand={}\"></iframe>",
            parent, content
        );
    }

    // Ad platforms. A gated embed is withheld pre-consent.
    for (idx, gated) in &spec.platforms {
        if *gated && !effective_consented {
            continue;
        }
        let p = &registry[*idx];
        match p.style {
            ApiStyle::IframeJs => {
                let _ = writeln!(
                    html,
                    "<iframe src=\"https://ads.{}/frame\"></iframe>",
                    p.domain
                );
            }
            ApiStyle::ScriptFetch | ApiStyle::ScriptIframe => {
                let _ = writeln!(
                    html,
                    "<script src=\"https://static.{}/tag.js\"></script>",
                    p.domain
                );
            }
        }
    }

    // Secondary analytics library.
    if spec.extra_lib {
        let _ = writeln!(
            html,
            "<script src=\"https://{EXTRA_LIB_HOST}/stats.js\"></script>"
        );
    }

    // distillery.com's own first-party integration (§2.4: "we observe it
    // using the Topics API on the distillery.com website only").
    if content.as_str() == "distillery.com" {
        html.push_str("<script src=\"https://distillery.com/tag.js\"></script>\n");
    }

    // Long-tail minor third parties: inert scripts and pixels.
    for (k, &idx) in spec.minor_parties.iter().enumerate() {
        let d = minor_domain(idx);
        if k % 2 == 0 {
            let _ = writeln!(html, "<script src=\"https://{d}/lib.js\"></script>");
        } else {
            let _ = writeln!(html, "<img src=\"https://{d}/p.gif\">");
        }
    }

    // First-party content: navigation, article body, footer — markup
    // noise the parser and banner detector must see through, like any
    // real page.
    html.push_str(
        "<div class=\"navbar\"><a href=\"/\">Home</a> <a href=\"/about\">About</a> \
         <a href=\"/contact\">Contact</a></div>\n",
    );
    let _ = writeln!(html, "<img src=\"https://{content}/hero.jpg\">");
    html.push_str(
        "<div class=\"content\"><p>Lorem ipsum dolor sit amet, consectetur \
         adipiscing elit.</p><p>Sed do eiusmod tempor incididunt ut labore.</p>\
         <button class=\"cta\">Subscribe to our newsletter</button></div>\n",
    );
    let _ = writeln!(
        html,
        "<div class=\"footer\"><a href=\"https://{content}/privacy\">Privacy policy</a> \
         <a href=\"https://{content}/terms\">Terms</a></div>"
    );
    html.push_str("</body></html>\n");
    html
}

/// Render a GTM container script. The container is per-site
/// configuration: some include the tag that calls `browsingTopics()`
/// (gated on consent when Consent Mode is set up, firing twice when the
/// trigger is duplicated), and every container loads the inert
/// analytics library — which is why GA appears on nearly every GTM page.
pub fn render_gtm_container(gtm: &GtmContainer) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "# GTM container {}", gtm.container_id);
    s.push_str("script https://www.google-analytics.com/analytics.js\n");
    if gtm.has_topics_tag {
        let mut call = String::from("topics js\n");
        if gtm.double_fire {
            call.push_str("topics js\n");
        }
        if gtm.consent_gated {
            let _ = writeln!(s, "consent {{\n{call}}}");
        } else {
            s.push_str(&call);
        }
    }
    s
}

/// Render a sibling-domain ad frame: a document that loads the site's GTM
/// container inside the sibling's browsing context, so the call is
/// attributed to `ad.<label>.net` instead of the page.
pub fn render_sibling_frame(container_id: &str) -> String {
    format!("<html><script src=\"https://{GTM_HOST}/gtm.js?id={container_id}\"></script></html>")
}

/// Render a corporate-parent frame document. When `calls_topics`, the
/// inline script invokes the API from the parent's own context —
/// gated on consent, so parent frames show up in §4 (After-Accept) but
/// not in the §5 Before-Accept data.
pub fn render_parent_frame(calls_topics: bool) -> String {
    if calls_topics {
        "<html><script>\nconsent {\ntopics js\n}\n</script></html>".to_owned()
    } else {
        "<html><div class=\"brandbar\">group navigation</div></html>".to_owned()
    }
}

/// Render the CMP loader script (inert: a pixel plus a preference
/// cookie; the consent *decision* is modelled by the consent cookie the
/// browser sets on accept).
pub fn render_cmp_script(cmp_domain: &str) -> String {
    format!("# CMP loader\ncookie cmp-pref 1\nimg https://cdn.{cmp_domain}/px.gif\n")
}

/// Render the secondary analytics library (the non-GTM anomalous
/// caller): it invokes the API on half of the sites embedding it,
/// after consent only.
pub fn render_extra_lib() -> String {
    "# site analytics\nimg https://webstats-metrics.com/c.gif\nconsent {\nab 0.5 site {\ntopics js\n}\n}\n"
        .to_owned()
}

/// Render an inert minor-party library.
pub fn render_minor_script(domain: &str) -> String {
    format!("# {domain} utility\nimg https://{domain}/b.gif\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names;
    use crate::parties::build_registry;
    use crate::site::{generate_site, SiteModelConfig};

    fn spec_with(f: impl Fn(&mut SiteSpec)) -> (Vec<AdPlatform>, SiteSpec) {
        let reg = build_registry(21);
        let cfg = SiteModelConfig::default();
        let mut spec = generate_site(21, 3, &reg, &cfg);
        f(&mut spec);
        (reg, spec)
    }

    fn render(reg: &[AdPlatform], spec: &SiteSpec, consented: bool) -> String {
        render_page(spec, reg, consented, |i| names::minor_party_domain(21, i))
    }

    #[test]
    fn banner_disappears_after_consent() {
        let (reg, spec) = spec_with(|s| {
            s.has_banner = true;
            s.banner_quirky = false;
        });
        let before = render(&reg, &spec, false);
        let after = render(&reg, &spec, true);
        assert!(before.contains("consent-banner"));
        assert!(before.contains(spec.language.standard_accept_phrase()));
        assert!(!after.contains("consent-banner"));
    }

    #[test]
    fn gated_tags_are_withheld_pre_consent() {
        let (reg, spec) = spec_with(|s| {
            s.gates_pre_consent = true;
            s.platforms = vec![(1, true)]; // doubleclick, gated
            s.gtm = None;
            s.extra_lib = false;
            s.parent_frame = None;
        });
        let before = render(&reg, &spec, false);
        let after = render(&reg, &spec, true);
        assert!(!before.contains("doubleclick.net"));
        assert!(after.contains("doubleclick.net"));
    }

    #[test]
    fn ungated_tags_render_pre_consent() {
        let (reg, spec) = spec_with(|s| {
            s.gates_pre_consent = false;
            s.platforms = vec![(1, false)];
        });
        assert!(render(&reg, &spec, false).contains("doubleclick.net"));
    }

    #[test]
    fn gtm_renders_in_root_or_sibling_frame() {
        let (reg, mut spec) = spec_with(|s| {
            s.gtm = Some(GtmContainer {
                container_id: "GTM-3".into(),
                has_topics_tag: true,
                consent_gated: false,
                double_fire: false,
            });
            s.sibling_frame = None;
        });
        let html = render(&reg, &spec, false);
        assert!(html.contains("googletagmanager.com/gtm.js?id=GTM-3"));
        assert!(!html.contains("adframe"));

        spec.sibling_frame = Some(crate::site::sibling_domain(&spec.domain));
        let html = render(&reg, &spec, false);
        assert!(!html.contains("gtm.js"), "GTM moved into the sibling frame");
        assert!(html.contains("/adframe?id=GTM-3"));
    }

    #[test]
    fn gtm_container_respects_gating_and_double_fire() {
        let gated = render_gtm_container(&GtmContainer {
            container_id: "GTM-1".into(),
            has_topics_tag: true,
            consent_gated: true,
            double_fire: false,
        });
        assert!(gated.contains("consent {"));
        assert_eq!(gated.matches("topics js").count(), 1);

        let double = render_gtm_container(&GtmContainer {
            container_id: "GTM-2".into(),
            has_topics_tag: true,
            consent_gated: false,
            double_fire: true,
        });
        assert!(!double.contains("consent {"));
        assert_eq!(double.matches("topics js").count(), 2);

        let inert = render_gtm_container(&GtmContainer {
            container_id: "GTM-3".into(),
            has_topics_tag: false,
            consent_gated: true,
            double_fire: false,
        });
        assert!(!inert.contains("topics"));
        assert!(inert.contains("analytics.js"), "GTM always loads GA");
    }

    #[test]
    fn rendered_scripts_parse_as_tagscript() {
        for script in [
            render_gtm_container(&GtmContainer {
                container_id: "GTM-9".into(),
                has_topics_tag: true,
                consent_gated: true,
                double_fire: true,
            }),
            render_cmp_script("onetrust.com"),
            render_extra_lib(),
            render_minor_script("cdn-x.com"),
        ] {
            topics_browser::script::parse(&script).unwrap_or_else(|e| panic!("{e}\n{script}"));
        }
    }

    #[test]
    fn cmp_script_tag_identifies_the_cmp() {
        let (reg, spec) = spec_with(|s| {
            s.has_banner = true;
            s.cmp = Some(crate::cmp::CmpId(0)); // OneTrust
        });
        let html = render(&reg, &spec, false);
        assert!(html.contains("onetrust.com/cmp.js"));
    }

    #[test]
    fn distillery_page_embeds_its_own_tag() {
        let reg = build_registry(21);
        let cfg = SiteModelConfig::default();
        let spec = generate_site(21, 1_200, &reg, &cfg);
        assert_eq!(spec.domain.as_str(), "distillery.com");
        let html = render(&reg, &spec, true);
        assert!(html.contains("https://distillery.com/tag.js"));
    }

    #[test]
    fn parent_frame_documents() {
        assert!(render_parent_frame(true).contains("topics js"));
        assert!(!render_parent_frame(false).contains("topics"));
    }
}
