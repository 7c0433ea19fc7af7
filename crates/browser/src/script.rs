//! TagScript — the miniature scripting language of the simulated web.
//!
//! Real third-party tags are JavaScript; reproducing a JS engine is out of
//! scope, so the synthetic web's scripts are written in a small,
//! well-defined command language that captures exactly the behaviours the
//! paper measures: Topics API invocations (all three call types),
//! subresource loading, script/iframe inclusion (which is what produces
//! the §4 "wrong context" effect), cookies, consent checks and A/B gates.
//!
//! Grammar (line-oriented; `#` starts a comment):
//!
//! ```text
//! topics js                          # document.browsingTopics()
//! topics js noobserve                # …({skipObservation: true})
//! topics fetch <url>                 # fetch(url, {browsingTopics: true})
//! topics iframe <url>                # <iframe src=url browsingtopics>
//! fetch <url>                        # plain fetch
//! img <url>                          # tracking pixel
//! script <url>                       # inject <script src=url> (same context!)
//! iframe <url>                       # inject <iframe src=url> (new context)
//! cookie <name> <value>              # set a cookie for the current site
//! ab <p> site|visit|time:<hours>h {  # deterministic A/B gate
//!     ...
//! }
//! consent {                          # body runs only with user consent
//!     ...
//! }
//! noconsent {                        # body runs only WITHOUT consent
//!     ...
//! }
//! after <day> {                      # body runs only on/after sim day N
//!     ...
//! }
//! ```
//!
//! Blocks open with `{` at end of line and close with a line containing
//! only `}`. The interpreter lives in [`crate::browser`]; this module owns
//! parsing and the AST.

use std::fmt;

/// The A/B gate's hashing scope — what varies the coin flip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbScope {
    /// Stable per (party, website): the paper's Figure 3 site-level
    /// fractions ("calls it 75% of times" across sites).
    Site,
    /// Fresh per visit: classic per-impression experiment.
    Visit,
    /// Stable per (party, website, time window): the §3 "alternating
    /// periods … ON for all visits, followed by some time when it is OFF".
    TimeWindow {
        /// Window length in hours.
        hours: u32,
    },
}

/// One TagScript statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `topics js`
    TopicsJs,
    /// `topics js noobserve` — `browsingTopics({skipObservation: true})`:
    /// read topics without being recorded as an observer.
    TopicsJsSkipObservation,
    /// `topics fetch <url>`
    TopicsFetch(String),
    /// `topics iframe <url>`
    TopicsIframe(String),
    /// `fetch <url>`
    Fetch(String),
    /// `img <url>`
    Img(String),
    /// `script <url>` — include and run another script in the *current*
    /// context (the Figure 4 mechanism).
    LoadScript(String),
    /// `iframe <url>` — create a child browsing context.
    LoadIframe(String),
    /// `cookie <name> <value>`
    SetCookie {
        /// Cookie name.
        name: String,
        /// Cookie value.
        value: String,
    },
    /// `ab <p> <scope> { body }`
    Ab {
        /// Probability in `[0, 1]` that the body runs.
        p: f64,
        /// What keys the deterministic coin.
        scope: AbScope,
        /// Gated statements.
        body: Vec<Stmt>,
    },
    /// `consent { body }`
    IfConsent(Vec<Stmt>),
    /// `noconsent { body }`
    IfNoConsent(Vec<Stmt>),
    /// `after <day> { body }` — the body runs only when the simulated
    /// date has reached day `day` (since the simulation origin). Tags
    /// use this to model platforms that enrolled but have not yet
    /// switched their Topics integration on.
    After {
        /// First simulation day (inclusive) the body is active.
        day: u64,
        /// Gated statements.
        body: Vec<Stmt>,
    },
}

/// A parse failure, with 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptError {
    /// 1-based line of the offending statement.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ScriptError {}

/// Parse a TagScript source into statements.
///
/// ```
/// use topics_browser::script::{parse, Stmt};
///
/// let stmts = parse("consent {\nab 0.75 site {\ntopics js\n}\n}").unwrap();
/// assert!(matches!(stmts[0], Stmt::IfConsent(_)));
/// assert_eq!(topics_browser::script::count_topics_statements(&stmts), 1);
/// ```
pub fn parse(source: &str) -> Result<Vec<Stmt>, ScriptError> {
    let mut lines = source
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, strip_comment(l).trim()))
        .filter(|(_, l)| !l.is_empty());
    parse_block(&mut lines, None)
}

fn strip_comment(line: &str) -> &str {
    match line.find('#') {
        Some(i) => &line[..i],
        None => line,
    }
}

/// Parse statements until EOF (outer) or a closing `}` (inner). `lines`
/// yields `(1-based line number, trimmed non-empty line)`.
fn parse_block<'a>(
    lines: &mut impl Iterator<Item = (usize, &'a str)>,
    opened_at: Option<usize>,
) -> Result<Vec<Stmt>, ScriptError> {
    let mut out = Vec::new();
    loop {
        let Some((lineno, line)) = lines.next() else {
            return match opened_at {
                None => Ok(out),
                Some(open_line) => Err(ScriptError {
                    line: open_line,
                    message: "unclosed block".to_owned(),
                }),
            };
        };
        if line == "}" {
            return match opened_at {
                Some(_) => Ok(out),
                None => Err(ScriptError {
                    line: lineno,
                    message: "unmatched '}'".to_owned(),
                }),
            };
        }
        out.push(parse_stmt(lineno, line, lines)?);
    }
}

fn parse_stmt<'a>(
    lineno: usize,
    line: &str,
    lines: &mut impl Iterator<Item = (usize, &'a str)>,
) -> Result<Stmt, ScriptError> {
    let err = |message: String| ScriptError {
        line: lineno,
        message,
    };
    // No statement has more than four tokens, so a fifth only has to
    // make the line match no pattern.
    let mut tokens = [""; 5];
    let mut count = 0;
    for token in line.split_whitespace().take(tokens.len()) {
        tokens[count] = token;
        count += 1;
    }
    match &tokens[..count] {
        ["topics", "js"] => Ok(Stmt::TopicsJs),
        ["topics", "js", "noobserve"] => Ok(Stmt::TopicsJsSkipObservation),
        ["topics", "fetch", url] => Ok(Stmt::TopicsFetch((*url).to_owned())),
        ["topics", "iframe", url] => Ok(Stmt::TopicsIframe((*url).to_owned())),
        ["fetch", url] => Ok(Stmt::Fetch((*url).to_owned())),
        ["img", url] => Ok(Stmt::Img((*url).to_owned())),
        ["script", url] => Ok(Stmt::LoadScript((*url).to_owned())),
        ["iframe", url] => Ok(Stmt::LoadIframe((*url).to_owned())),
        ["cookie", name, value] => Ok(Stmt::SetCookie {
            name: (*name).to_owned(),
            value: (*value).to_owned(),
        }),
        ["ab", p, scope, "{"] => {
            let p: f64 = p
                .parse()
                .map_err(|_| err(format!("invalid probability {p:?}")))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(err(format!("probability {p} outside [0, 1]")));
            }
            let scope = parse_scope(scope).map_err(&err)?;
            let body = parse_block(lines, Some(lineno))?;
            Ok(Stmt::Ab { p, scope, body })
        }
        ["consent", "{"] => Ok(Stmt::IfConsent(parse_block(lines, Some(lineno))?)),
        ["noconsent", "{"] => Ok(Stmt::IfNoConsent(parse_block(lines, Some(lineno))?)),
        ["after", day, "{"] => {
            let day: u64 = day
                .parse()
                .map_err(|_| err(format!("invalid day {day:?}")))?;
            let body = parse_block(lines, Some(lineno))?;
            Ok(Stmt::After { day, body })
        }
        _ => Err(err(format!("unrecognised statement {line:?}"))),
    }
}

fn parse_scope(s: &str) -> Result<AbScope, String> {
    match s {
        "site" => Ok(AbScope::Site),
        "visit" => Ok(AbScope::Visit),
        _ => {
            if let Some(h) = s.strip_prefix("time:").and_then(|r| r.strip_suffix('h')) {
                let hours: u32 = h
                    .parse()
                    .map_err(|_| format!("invalid time window {s:?}"))?;
                if hours == 0 {
                    return Err("time window must be positive".to_owned());
                }
                Ok(AbScope::TimeWindow { hours })
            } else {
                Err(format!("unknown ab scope {s:?} (site|visit|time:<h>h)"))
            }
        }
    }
}

/// Count the Topics-API statements in a script (any call type, including
/// inside blocks) — a quick static check used by tests and world
/// validation.
pub fn count_topics_statements(stmts: &[Stmt]) -> usize {
    stmts
        .iter()
        .map(|s| match s {
            Stmt::TopicsJs
            | Stmt::TopicsJsSkipObservation
            | Stmt::TopicsFetch(_)
            | Stmt::TopicsIframe(_) => 1,
            Stmt::Ab { body, .. }
            | Stmt::IfConsent(body)
            | Stmt::IfNoConsent(body)
            | Stmt::After { body, .. } => count_topics_statements(body),
            _ => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_statements() {
        let src = r#"
            # a comment
            topics js
            topics fetch https://cp.com/bid
            topics iframe https://cp.com/frame
            fetch https://cp.com/sync
            img https://cp.com/px.gif
            script https://lib.com/l.js
            iframe https://other.com/f
            cookie uid abc123
        "#;
        let stmts = parse(src).unwrap();
        assert_eq!(
            stmts,
            vec![
                Stmt::TopicsJs,
                Stmt::TopicsFetch("https://cp.com/bid".into()),
                Stmt::TopicsIframe("https://cp.com/frame".into()),
                Stmt::Fetch("https://cp.com/sync".into()),
                Stmt::Img("https://cp.com/px.gif".into()),
                Stmt::LoadScript("https://lib.com/l.js".into()),
                Stmt::LoadIframe("https://other.com/f".into()),
                Stmt::SetCookie {
                    name: "uid".into(),
                    value: "abc123".into()
                },
            ]
        );
    }

    #[test]
    fn parses_nested_blocks() {
        let src = r#"
            consent {
                ab 0.75 site {
                    topics js
                }
                fetch https://cp.com/beacon
            }
        "#;
        let stmts = parse(src).unwrap();
        assert_eq!(stmts.len(), 1);
        match &stmts[0] {
            Stmt::IfConsent(body) => {
                assert_eq!(body.len(), 2);
                match &body[0] {
                    Stmt::Ab { p, scope, body } => {
                        assert_eq!(*p, 0.75);
                        assert_eq!(*scope, AbScope::Site);
                        assert_eq!(body, &[Stmt::TopicsJs]);
                    }
                    s => panic!("unexpected {s:?}"),
                }
            }
            s => panic!("unexpected {s:?}"),
        }
    }

    #[test]
    fn parses_time_window_scope() {
        let stmts = parse("ab 0.5 time:6h {\ntopics js\n}").unwrap();
        match &stmts[0] {
            Stmt::Ab { scope, .. } => assert_eq!(*scope, AbScope::TimeWindow { hours: 6 }),
            s => panic!("unexpected {s:?}"),
        }
    }

    #[test]
    fn after_block_parses() {
        let stmts = parse("after 310 {\ntopics js\n}").unwrap();
        match &stmts[0] {
            Stmt::After { day, body } => {
                assert_eq!(*day, 310);
                assert_eq!(body, &[Stmt::TopicsJs]);
            }
            s => panic!("unexpected {s:?}"),
        }
        assert!(parse("after notaday {\n}").is_err());
        assert_eq!(count_topics_statements(&stmts), 1);
    }

    #[test]
    fn noconsent_block() {
        let stmts = parse("noconsent {\nimg https://cp.com/prompt.gif\n}").unwrap();
        assert!(matches!(&stmts[0], Stmt::IfNoConsent(b) if b.len() == 1));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse("topics js\nbogus statement here").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("unrecognised"));

        let err = parse("ab 1.5 site {\n}").unwrap_err();
        assert!(err.message.contains("outside"));

        let err = parse("ab 0.5 nonsense {\n}").unwrap_err();
        assert!(err.message.contains("unknown ab scope"));

        let err = parse("ab 0.5 time:0h {\n}").unwrap_err();
        assert!(err.message.contains("positive"));

        let err = parse("consent {\ntopics js").unwrap_err();
        assert_eq!(err.line, 1, "unclosed block reports the opener");

        let err = parse("}").unwrap_err();
        assert!(err.message.contains("unmatched"));
    }

    #[test]
    fn empty_and_comment_only_scripts_parse() {
        assert!(parse("").unwrap().is_empty());
        assert!(parse("# just a comment\n\n   \n").unwrap().is_empty());
    }

    #[test]
    fn counts_topics_statements_recursively() {
        let stmts = parse(
            "topics js\nconsent {\nab 0.5 site {\ntopics fetch https://x.com/y\n}\ntopics iframe https://x.com/f\n}",
        )
        .unwrap();
        assert_eq!(count_topics_statements(&stmts), 3);
        assert_eq!(count_topics_statements(&[]), 0);
    }
}
