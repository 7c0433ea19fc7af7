//! Property-based tests for the browser: the HTML parser, the TagScript
//! parser, and the Topics engine's privacy invariants.

use proptest::prelude::*;
use std::sync::Arc;
use topics_browser::html;
use topics_browser::origin::Site;
use topics_browser::script::{self, Stmt};
use topics_browser::topics::{TopicsEngine, EPOCH_WINDOW, TOP_N};
use topics_net::clock::Timestamp;
use topics_net::domain::Domain;
use topics_net::url::Url;
use topics_taxonomy::{Classifier, Taxonomy};

fn site(name: &str) -> Site {
    Site::of(&Url::parse(&format!("https://{name}/")).unwrap())
}

proptest! {
    // ---- HTML parser --------------------------------------------------

    #[test]
    fn html_parse_never_panics(input in ".*") {
        let _ = html::parse(&input);
    }

    #[test]
    fn html_parse_never_panics_on_taggy_soup(
        parts in prop::collection::vec(
            prop_oneof![
                Just("<script>".to_owned()),
                Just("</script>".to_owned()),
                Just("<div class='x'>".to_owned()),
                Just("</div>".to_owned()),
                Just("<iframe src='https://a.example/f'>".to_owned()),
                Just("<button>".to_owned()),
                Just("<!--".to_owned()),
                Just("-->".to_owned()),
                "[a-zA-Z <>/='\"]{0,12}".prop_map(|s: String| s),
            ],
            0..24
        )
    ) {
        let soup = parts.concat();
        let _ = html::parse(&soup);
    }

    #[test]
    fn script_src_extraction_is_faithful(
        host in "[a-z]{2,10}", path in "[a-z]{1,10}"
    ) {
        let url = format!("https://{host}.example/{path}.js");
        let doc = html::parse(&format!(r#"<script src="{url}"></script>"#));
        prop_assert_eq!(doc.nodes.len(), 1);
        match &doc.nodes[0] {
            html::Node::Script { src, .. } => prop_assert_eq!(src.as_deref(), Some(url.as_str())),
            n => prop_assert!(false, "unexpected node {:?}", n),
        }
    }

    // ---- TagScript parser ----------------------------------------------

    #[test]
    fn script_parse_never_panics(input in ".*") {
        let _ = script::parse(&input);
    }

    #[test]
    fn generated_scripts_roundtrip(
        p in 0.0f64..=1.0,
        urls in prop::collection::vec("[a-z]{2,8}", 1..4)
    ) {
        // Build a script from known constructs; it must parse and the
        // statement count must match construction.
        let mut src = String::new();
        for u in &urls {
            src.push_str(&format!("fetch https://{u}.example/x\n"));
        }
        src.push_str(&format!("ab {p:.4} site {{\ntopics js\n}}\n"));
        src.push_str("consent {\ntopics fetch https://cp.example/bid\n}\n");
        let stmts = script::parse(&src).expect("constructed script parses");
        prop_assert_eq!(stmts.len(), urls.len() + 2);
        prop_assert_eq!(script::count_topics_statements(&stmts), 2);
        match &stmts[urls.len()] {
            Stmt::Ab { p: parsed, .. } => {
                prop_assert!((parsed - p).abs() < 1e-3, "p {} vs {}", parsed, p);
            }
            s => prop_assert!(false, "unexpected {:?}", s),
        }
    }

    // ---- Topics engine invariants ---------------------------------------

    #[test]
    fn answers_respect_all_privacy_invariants(
        profile_seed in any::<u64>(),
        visits_per_epoch in 1usize..25,
        call_epoch in 0u64..6
    ) {
        let taxonomy = Taxonomy::global();
        let classifier = Arc::new(Classifier::new(7).with_unclassifiable_rate(0.0));
        let caller = Domain::parse("adtech.example").unwrap();
        let mut engine = TopicsEngine::new(classifier, profile_seed, true);
        for epoch in 0..call_epoch {
            let t = Timestamp::from_weeks(epoch);
            for i in 0..visits_per_epoch {
                let s = site(&format!("hist{epoch}x{i}.com"));
                engine.record_visit(&s, t);
                engine.record_observation(&caller, &s, t);
            }
        }
        let now = Timestamp::from_weeks(call_epoch);
        let answer = engine
            .browsing_topics(&caller, &site("visited.com"), now)
            .expect("enabled engine always answers");
        // ≤ 3 topics, unique, valid ids, never sensitive, within the
        // 3-epoch window.
        prop_assert!(answer.topics.len() <= EPOCH_WINDOW as usize);
        let mut ids: Vec<_> = answer.topics.iter().map(|t| t.topic).collect();
        let before = ids.len();
        ids.sort();
        ids.dedup();
        prop_assert_eq!(ids.len(), before, "topics are unique");
        for t in &answer.topics {
            prop_assert!(taxonomy.get(t.topic).is_some());
            prop_assert!(t.topic != taxonomy.sensitive_root());
            prop_assert!(t.epoch < call_epoch);
            prop_assert!(call_epoch - t.epoch <= EPOCH_WINDOW);
        }
    }

    #[test]
    fn top5_always_has_five_unique_topics_when_any_history_exists(
        profile_seed in any::<u64>(),
        n_sites in 1usize..40
    ) {
        let classifier = Arc::new(Classifier::new(3).with_unclassifiable_rate(0.0));
        let mut engine = TopicsEngine::new(classifier, profile_seed, true);
        for i in 0..n_sites {
            engine.record_visit(&site(&format!("s{i}.com")), Timestamp::from_weeks(0));
        }
        let top = engine.top5(0);
        prop_assert_eq!(top.len(), TOP_N);
        let mut ids: Vec<_> = top.iter().map(|t| t.topic).collect();
        ids.sort();
        ids.dedup();
        prop_assert_eq!(ids.len(), TOP_N);
    }
}
