//! Differential checks of the browser's fast paths on everything a
//! 2,000-site world serves.
//!
//! Starting from every ranked site, before and after consent, the test
//! fetches each page, frame document and script the world serves and
//! follows every URL in them. Each HTML body must parse node for node
//! as the reference parser parses it (`oracle.rs`, the parser the
//! one-pass tokenizer replaced, with close tags matched at a tag
//! boundary), and every host seen must have the registrable domain the
//! `format!` + `Domain::parse` construction gives.

use std::collections::{BTreeSet, HashSet};
use topics_browser::html::{self, Attr, Document, Node};
use topics_browser::script::{self, Stmt};
use topics_net::clock::Timestamp;
use topics_net::domain::Domain;
use topics_net::http::{HttpRequest, ResourceKind};
use topics_net::psl::{public_suffix, registrable_domain, registrable_str};
use topics_net::service::NetworkService;
use topics_net::url::Url;
use topics_webgen::{World, WorldConfig};

#[path = "../../browser/src/html/oracle.rs"]
mod oracle;

/// The registrable domain as built before the borrowed form existed.
fn oracle_registrable(host: &Domain) -> Domain {
    let suffix = public_suffix(host);
    if host.as_str() == suffix {
        return host.clone();
    }
    let prefix = &host.as_str()[..host.as_str().len() - suffix.len() - 1];
    let label = prefix.rsplit('.').next().expect("non-empty prefix");
    Domain::parse(&format!("{label}.{suffix}")).expect("valid recombination")
}

/// Every URL a TagScript body can make the browser request.
fn script_targets<'s>(stmts: &'s [Stmt], out: &mut Vec<&'s str>) {
    for stmt in stmts {
        match stmt {
            Stmt::TopicsFetch(u)
            | Stmt::TopicsIframe(u)
            | Stmt::Fetch(u)
            | Stmt::Img(u)
            | Stmt::LoadScript(u)
            | Stmt::LoadIframe(u) => out.push(u),
            Stmt::Ab { body, .. }
            | Stmt::IfConsent(body)
            | Stmt::IfNoConsent(body)
            | Stmt::After { body, .. } => script_targets(body, out),
            Stmt::TopicsJs | Stmt::TopicsJsSkipObservation | Stmt::SetCookie { .. } => {}
        }
    }
}

/// Every URL an HTML document can make the browser request.
fn document_targets(doc: &Document) -> Vec<&str> {
    doc.nodes
        .iter()
        .filter_map(|n| match n {
            Node::Script { src, .. } => src.as_deref(),
            Node::Iframe { src, .. } | Node::Img { src } => Some(src),
            Node::Stylesheet { href } => Some(href),
            Node::Clickable { .. } | Node::Container { .. } => None,
        })
        .collect()
}

#[test]
fn fast_paths_match_their_references_on_everything_the_world_serves() {
    let world = World::generate(WorldConfig::scaled(2024, 2_000));
    let now = Timestamp::from_days(302);
    let mut queue: Vec<(Url, bool)> = Vec::new();
    for consented in [false, true] {
        queue.extend(world.tranco_list().into_iter().map(|u| (u, consented)));
    }
    let mut requested: HashSet<(Url, bool)> = queue.iter().cloned().collect();
    let mut hosts: BTreeSet<Domain> = BTreeSet::new();
    let (mut documents, mut with_text) = (0usize, 0usize);
    while let Some((url, consented)) = queue.pop() {
        hosts.insert(url.host().clone());
        let mut request = HttpRequest::get(url.clone(), ResourceKind::Document);
        if consented {
            request.headers.set("Cookie", "euconsent=granted");
        }
        let response = world.fetch(&request, now).expect("the world answers");
        let mut targets: Vec<&str> = Vec::new();
        let doc;
        let stmts;
        if let Some(location) = response.location() {
            targets.push(location);
        } else if response.headers.get("Content-Type") == Some("text/html") {
            doc = html::parse(&response.body);
            assert_eq!(doc, oracle::parse(&response.body), "{url}");
            documents += 1;
            with_text += usize::from(doc.nodes.iter().any(|n| {
                matches!(n, Node::Container { text, .. } | Node::Clickable { text, .. } if !text.is_empty())
            }));
            targets = document_targets(&doc);
        } else if response.headers.get("Content-Type") == Some("text/javascript") {
            stmts = script::parse(&response.body).expect("served scripts parse");
            script_targets(&stmts, &mut targets);
        }
        for target in targets {
            if let Ok(next) = url.join(target) {
                if requested.insert((next.clone(), consented)) {
                    queue.push((next, consented));
                }
            }
        }
    }
    assert!(documents > 4_000, "{documents} documents checked");
    assert!(
        with_text > 3_000,
        "{with_text} documents with collected text"
    );

    for host in &hosts {
        let expected = oracle_registrable(host);
        assert_eq!(registrable_str(host), expected.as_str(), "{host}");
        assert_eq!(registrable_domain(host), expected, "{host}");
    }
    assert!(hosts.len() > 1_000, "{} hosts checked", hosts.len());
}
