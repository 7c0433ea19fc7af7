//! A tolerant HTML parser for the subset of markup the simulated web
//! serves and the crawler inspects.
//!
//! The measurement pipeline needs four things from a page:
//!
//! 1. the `<script>` tags (external `src` or inline body) — these drive
//!    tag execution and the §4 root-context semantics;
//! 2. the `<iframe>` tags, including the `browsingtopics` attribute that
//!    triggers the iframe-type Topics call;
//! 3. passive subresources (`<img>`, `<link rel=stylesheet>`) so the
//!    crawler can record "the URL of each first- and third-party object
//!    downloaded to render the page" (§2.2);
//! 4. visible clickable text (`<button>`, `<a>`, and container `<div>`s)
//!    for Priv-Accept's consent-banner detection.
//!
//! The parser is a forgiving single-pass tokenizer: unknown tags are
//! skipped, attributes may be quoted or bare, and malformed markup
//! degrades to text rather than failing. It borrows from the document
//! while it scans and allocates only the strings the nodes keep.

#[cfg(test)]
mod oracle;

/// One attribute on a tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attr {
    /// Attribute name, lowercased.
    pub name: String,
    /// Attribute value; empty for boolean attributes.
    pub value: String,
}

/// A parsed node of interest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// `<script src=…>` or `<script>inline</script>`.
    Script {
        /// External source URL, if any.
        src: Option<String>,
        /// Inline body (empty for external scripts).
        inline: String,
        /// All attributes.
        attrs: Vec<Attr>,
    },
    /// `<iframe src=…>`.
    Iframe {
        /// Frame document URL.
        src: String,
        /// True when the `browsingtopics` attribute is present — the
        /// iframe-type Topics API call.
        browsing_topics: bool,
        /// All attributes.
        attrs: Vec<Attr>,
    },
    /// `<img src=…>`.
    Img {
        /// Image URL.
        src: String,
    },
    /// `<link rel=stylesheet href=…>`.
    Stylesheet {
        /// Stylesheet URL.
        href: String,
    },
    /// A text-bearing element relevant to banner detection.
    Clickable {
        /// `button` or `a`.
        tag: String,
        /// Inner text with tags stripped, whitespace collapsed.
        text: String,
        /// `id` attribute, if present.
        id: Option<String>,
        /// `class` attribute tokens.
        classes: Vec<String>,
    },
    /// A `<div>` with its class list and flattened inner text (used to
    /// find banner containers).
    Container {
        /// `class` attribute tokens.
        classes: Vec<String>,
        /// `id` attribute, if present.
        id: Option<String>,
        /// Flattened text of the subtree.
        text: String,
    },
}

/// A parsed document.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Document {
    /// Nodes in document order.
    pub nodes: Vec<Node>,
    /// `<title>` text, if present.
    pub title: Option<String>,
}

impl Document {
    /// All script nodes in order.
    pub fn scripts(&self) -> impl Iterator<Item = &Node> {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Script { .. }))
    }

    /// All clickable (button/anchor) nodes.
    pub fn clickables(&self) -> impl Iterator<Item = &Node> {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Clickable { .. }))
    }
}

/// Parse a page. Never fails: unparsable input yields fewer nodes.
///
/// One forward pass over the bytes builds every node. Tag names match
/// case-insensitively in place, and a tag name only matches when it
/// ends at a tag boundary (`</abbr>` does not close an `<a>`). The text
/// of a `<div>`, `<a>` or `<button>` is its body with the tags
/// removed and whitespace collapsed; its body ends at the close tag
/// that balances its own open tag, counting every open and close tag of
/// that name after it, even inside comments and script bodies. A
/// `<button>` or `<a>` body yields no nodes of its own; a `<div>` body
/// does.
///
/// ```
/// use topics_browser::html::{parse, Node};
///
/// let doc = parse(r#"<script src="https://cdn.example/a.js"></script>"#);
/// assert!(matches!(&doc.nodes[0], Node::Script { src: Some(_), .. }));
/// ```
pub fn parse(html: &str) -> Document {
    Tokenizer::new(html).run()
}

/// The elements whose flattened text the tokenizer collects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TextTag {
    Div,
    A,
    Button,
}

impl TextTag {
    fn name(self) -> &'static str {
        match self {
            TextTag::Div => "div",
            TextTag::A => "a",
            TextTag::Button => "button",
        }
    }
}

/// The elements whose body is raw text, not markup, and what their
/// body becomes.
#[derive(Debug, Clone, Copy)]
enum RawBody {
    /// The inline body of the script at this node index.
    Script(usize),
    /// Discarded.
    Iframe,
    /// The document title.
    Title,
}

impl RawBody {
    fn name(self) -> &'static str {
        match self {
            RawBody::Script(_) => "script",
            RawBody::Iframe => "iframe",
            RawBody::Title => "title",
        }
    }
}

/// Where the node-building part of the scan stands.
#[derive(Debug, Clone, Copy)]
enum Scan {
    /// The next tag to read is the first `<` at or after this index.
    From(usize),
    /// Inside a raw-text body that began at `start`.
    Raw { body: RawBody, start: usize },
    /// Inside a `<button>` or `<a>` body, which ends when that element
    /// closes.
    Clickable,
}

/// A `div`, `a` or `button` whose body is being read.
#[derive(Debug, Clone, Copy)]
struct Open {
    tag: TextTag,
    /// Its node in [`Document::nodes`].
    node: usize,
    /// The balance of its tag name when its body began. The close tag
    /// that takes the balance below this value ends the body.
    base: isize,
    /// Where its text begins in [`Tokenizer::text`].
    text_from: usize,
}

/// The single-pass parser state.
struct Tokenizer<'a> {
    html: &'a str,
    doc: Document,
    scan: Scan,
    /// Open tags minus close tags of each [`TextTag`] name so far.
    balance: [isize; 3],
    /// The elements whose bodies are being read, innermost last.
    open: Vec<Open>,
    /// An element whose tag has been read, with the index its body
    /// begins at; it opens when the scan reaches that index.
    pending: Option<(TextTag, usize, usize)>,
    /// The text of the open bodies: words joined by single spaces.
    /// Each open element owns the part from its `text_from` onwards,
    /// less the leading space.
    text: String,
    /// A word break is due before the next text character.
    gap: bool,
    /// Between `<` and `>`: the characters are markup, not text.
    in_tag: bool,
    /// Attributes of the tag being read, borrowed from the document.
    attrs: Vec<(&'a str, &'a str)>,
}

impl<'a> Tokenizer<'a> {
    fn new(html: &'a str) -> Tokenizer<'a> {
        Tokenizer {
            html,
            doc: Document::default(),
            scan: Scan::From(0),
            balance: [0; 3],
            open: Vec::new(),
            pending: None,
            text: String::new(),
            gap: false,
            in_tag: false,
            attrs: Vec::new(),
        }
    }

    /// True while some element's text is being collected.
    fn collecting(&self) -> bool {
        self.pending.is_some() || !self.open.is_empty()
    }

    fn run(mut self) -> Document {
        let bytes = self.html.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if let Some((tag, node, start)) = self.pending {
                if start == i {
                    self.begin_body(tag, node, start);
                }
            }
            match bytes[i] {
                b'<' => {
                    self.in_tag = true;
                    self.gap = true;
                    self.at_lt(i);
                    i += 1;
                }
                _ if !self.collecting() => {
                    i = find(bytes, i, |b| b == b'<');
                }
                b'>' => {
                    self.in_tag = false;
                    i += 1;
                }
                _ if self.in_tag => i = find(bytes, i, |b| b == b'<' || b == b'>'),
                _ => i = self.text_run(i),
            }
        }
        self.finish()
    }

    /// Collect the text from `i`, which is outside any tag, up to the
    /// next `<` or `>` into the open bodies' text; returns where it
    /// stopped.
    fn text_run(&mut self, mut i: usize) -> usize {
        let html = self.html;
        let bytes = html.as_bytes();
        let is_space = |b: u8| matches!(b, b'\t'..=b'\r' | b' ');
        while i < bytes.len() && bytes[i] != b'<' && bytes[i] != b'>' {
            let (end, space) = if !bytes[i].is_ascii() {
                let c = html[i..].chars().next().expect("i is a char boundary");
                (i + c.len_utf8(), c.is_whitespace())
            } else if is_space(bytes[i]) {
                (i + 1, true)
            } else {
                let end = find(bytes, i, |b| {
                    !b.is_ascii() || is_space(b) || b == b'<' || b == b'>'
                });
                (end, false)
            };
            if space {
                self.gap = true;
            } else {
                if self.gap {
                    self.text.push(' ');
                    self.gap = false;
                }
                self.text.push_str(&html[i..end]);
            }
            i = end;
        }
        i
    }

    /// Handle the `<` at index `p`.
    fn at_lt(&mut self, p: usize) {
        let bytes = self.html.as_bytes();
        if let Some((tag, closing)) = text_tag_at(bytes, p) {
            if closing {
                self.close(tag, p);
            } else {
                self.balance[tag as usize] += 1;
            }
        }
        match self.scan {
            Scan::From(next) if p >= next => self.read_tag(p),
            Scan::Raw { body, start } if p >= start && close_tag_at(bytes, p, body.name()) => {
                self.end_raw(body, &self.html[start..p]);
                self.scan = Scan::From(after_gt(self.html, p));
            }
            _ => {}
        }
    }

    /// Start collecting the body, which begins at `start`, of the
    /// element whose tag was just read.
    fn begin_body(&mut self, tag: TextTag, node: usize, start: usize) {
        self.pending = None;
        if self.text.capacity() == 0 {
            // Each collected byte stands for a distinct byte of the rest
            // of the document, so this is the only allocation it needs.
            self.text.reserve(self.html.len() - start);
        }
        self.open.push(Open {
            tag,
            node,
            base: self.balance[tag as usize],
            text_from: self.text.len(),
        });
    }

    /// A close tag of `tag` at `p`: end every body it balances.
    fn close(&mut self, tag: TextTag, p: usize) {
        let k = tag as usize;
        self.balance[k] -= 1;
        // The bodies this ends are the innermost open ones of `tag`.
        while let Some(i) = self.open.iter().rposition(|o| o.tag == tag) {
            let open = self.open[i];
            if open.base != self.balance[k] + 1 {
                break;
            }
            self.open.remove(i);
            self.end_body(open, self.text.len());
            if tag != TextTag::Div {
                self.scan = Scan::From(after_gt(self.html, p));
            }
        }
        if !self.collecting() {
            self.text.clear();
        }
    }

    /// Store the text an element collected up to `end` in its node.
    fn end_body(&mut self, open: Open, end: usize) {
        let collected = self.text[open.text_from..end].trim_start_matches(' ');
        match &mut self.doc.nodes[open.node] {
            Node::Container { text, .. } | Node::Clickable { text, .. } => {
                collected.clone_into(text);
            }
            _ => unreachable!("only containers and clickables collect text"),
        }
    }

    /// Store a finished raw-text body.
    fn end_raw(&mut self, body: RawBody, raw: &str) {
        match body {
            RawBody::Script(node) => {
                if let Node::Script { inline, .. } = &mut self.doc.nodes[node] {
                    raw.trim().clone_into(inline);
                }
            }
            RawBody::Iframe => {}
            RawBody::Title => self.doc.title = Some(collapse_ws(raw)),
        }
    }

    /// Read the markup at `p` and build its node, if it makes one.
    fn read_tag(&mut self, p: usize) {
        let html = self.html;
        if html[p..].starts_with("<!--") {
            self.scan = Scan::From(html[p..].find("-->").map_or(html.len(), |j| p + j + 3));
            return;
        }
        let mut attrs = std::mem::take(&mut self.attrs);
        attrs.clear();
        match parse_tag(html, p, &mut attrs) {
            Some((name, self_closing, after)) => {
                self.scan = Scan::From(after);
                self.build_node(name, &attrs, self_closing, after);
            }
            None => self.scan = Scan::From(p + 1),
        }
        self.attrs = attrs;
    }

    /// Build the node for tag `name`, whose body begins at `after`.
    fn build_node(&mut self, name: &str, attrs: &[(&str, &str)], self_closing: bool, after: usize) {
        let attr = |key: &str| {
            attrs
                .iter()
                .find(|(n, _)| n.eq_ignore_ascii_case(key))
                .map(|&(_, v)| v)
        };
        let node = self.doc.nodes.len();
        // Every tag of interest has at most six letters.
        let mut lower = [0u8; 6];
        let Some(lower) = lower.get_mut(..name.len()) else {
            return;
        };
        lower.copy_from_slice(name.as_bytes());
        lower.make_ascii_lowercase();
        let tag = match &*lower {
            b"a" => TextTag::A,
            b"button" => TextTag::Button,
            b"div" => TextTag::Div,
            b"script" => {
                self.doc.nodes.push(Node::Script {
                    src: attr("src").map(str::to_owned),
                    inline: String::new(),
                    attrs: owned_attrs(attrs),
                });
                if !self_closing {
                    self.scan = Scan::Raw {
                        body: RawBody::Script(node),
                        start: after,
                    };
                }
                return;
            }
            b"iframe" => {
                if let Some(src) = attr("src") {
                    self.doc.nodes.push(Node::Iframe {
                        src: src.to_owned(),
                        browsing_topics: attr("browsingtopics").is_some(),
                        attrs: owned_attrs(attrs),
                    });
                }
                if !self_closing {
                    self.scan = Scan::Raw {
                        body: RawBody::Iframe,
                        start: after,
                    };
                }
                return;
            }
            b"img" => {
                if let Some(src) = attr("src") {
                    self.doc.nodes.push(Node::Img {
                        src: src.to_owned(),
                    });
                }
                return;
            }
            b"link" => {
                if attr("rel").is_some_and(|rel| rel.eq_ignore_ascii_case("stylesheet")) {
                    if let Some(href) = attr("href") {
                        self.doc.nodes.push(Node::Stylesheet {
                            href: href.to_owned(),
                        });
                    }
                }
                return;
            }
            b"title" => {
                self.scan = Scan::Raw {
                    body: RawBody::Title,
                    start: after,
                };
                return;
            }
            _ => return,
        };
        let (classes, id) = (class_list(attr("class")), attr("id").map(str::to_owned));
        let text = String::new();
        self.doc.nodes.push(match tag {
            TextTag::Div => Node::Container { classes, id, text },
            TextTag::A | TextTag::Button => {
                self.scan = Scan::Clickable;
                Node::Clickable {
                    tag: tag.name().to_owned(),
                    text,
                    id,
                    classes,
                }
            }
        });
        self.pending = Some((tag, node, after));
    }

    /// Close whatever the end of the document leaves open.
    fn finish(mut self) -> Document {
        // A body still pending begins at the very end: its text is empty.
        let end = self.text.len();
        for open in std::mem::take(&mut self.open) {
            self.end_body(open, end);
        }
        if let Scan::Raw { body, start } = self.scan {
            self.end_raw(body, &self.html[start..]);
        }
        self.doc
    }
}

/// Parse the tag at `start` (which points at `<`) into `attrs`, as
/// `(name, self_closing, index_after_gt)`. A close tag has an empty
/// name; `None` means the `<` does not start a tag.
fn parse_tag<'a>(
    html: &'a str,
    start: usize,
    attrs: &mut Vec<(&'a str, &'a str)>,
) -> Option<(&'a str, bool, usize)> {
    let bytes = html.as_bytes();
    let mut i = start + 1;
    if i >= bytes.len() {
        return None;
    }
    if bytes[i] == b'/' {
        let end = i + bytes[i..].iter().position(|&b| b == b'>')? + 1;
        return Some(("", true, end));
    }
    let name_start = i;
    while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'!') {
        i += 1;
    }
    if i == name_start {
        return None;
    }
    let name = &html[name_start..i];
    let mut self_closing = false;
    loop {
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if i >= bytes.len() {
            return None;
        }
        if bytes[i] == b'>' {
            i += 1;
            break;
        }
        if bytes[i] == b'/' {
            self_closing = true;
            i += 1;
            continue;
        }
        let an_start = i;
        while i < bytes.len()
            && !bytes[i].is_ascii_whitespace()
            && bytes[i] != b'='
            && bytes[i] != b'>'
            && bytes[i] != b'/'
        {
            i += 1;
        }
        if i == an_start {
            i += 1;
            continue;
        }
        let an = &html[an_start..i];
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        let mut value = "";
        if i < bytes.len() && bytes[i] == b'=' {
            i += 1;
            while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            if i < bytes.len() && (bytes[i] == b'"' || bytes[i] == b'\'') {
                let quote = char::from(bytes[i]);
                i += 1;
                let v_start = i;
                i = find(bytes, i, |b| char::from(b) == quote);
                value = &html[v_start..i];
                i = (i + 1).min(bytes.len());
            } else {
                let v_start = i;
                while i < bytes.len() && !bytes[i].is_ascii_whitespace() && bytes[i] != b'>' {
                    i += 1;
                }
                value = &html[v_start..i];
            }
        }
        attrs.push((an, value));
    }
    Some((name, self_closing, i))
}

/// The index of the first byte at or after `from` that matches `pred`,
/// or the end of `bytes`.
fn find(bytes: &[u8], from: usize, pred: impl Fn(u8) -> bool) -> usize {
    bytes[from..]
        .iter()
        .position(|&b| pred(b))
        .map_or(bytes.len(), |k| from + k)
}

/// The index just past the first `>` at or after `p`, or the end of the
/// document.
fn after_gt(html: &str, p: usize) -> usize {
    (find(html.as_bytes(), p, |b| b == b'>') + 1).min(html.len())
}

/// True when `name` starts at `at`, in any case, and ends at a tag
/// boundary: whitespace, `>`, `/` or the end of the document.
fn name_at(bytes: &[u8], at: usize, name: &str) -> bool {
    let end = at + name.len();
    bytes
        .get(at..end)
        .is_some_and(|s| s.eq_ignore_ascii_case(name.as_bytes()))
        && bytes
            .get(end)
            .map_or(true, |&b| b.is_ascii_whitespace() || b == b'>' || b == b'/')
}

/// True when the `<` at `p` starts the close tag `</name`.
fn close_tag_at(bytes: &[u8], p: usize, name: &str) -> bool {
    bytes.get(p + 1) == Some(&b'/') && name_at(bytes, p + 2, name)
}

/// The text-collecting tag the `<` at `p` opens or (`true`) closes.
fn text_tag_at(bytes: &[u8], p: usize) -> Option<(TextTag, bool)> {
    let closing = bytes.get(p + 1) == Some(&b'/');
    let at = p + 1 + usize::from(closing);
    let tag = match bytes.get(at)?.to_ascii_lowercase() {
        b'd' => TextTag::Div,
        b'a' => TextTag::A,
        b'b' => TextTag::Button,
        _ => return None,
    };
    name_at(bytes, at, tag.name()).then_some((tag, closing))
}

/// Collapse runs of whitespace to single spaces and trim.
fn collapse_ws(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for word in s.split_whitespace() {
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(word);
    }
    out
}

/// Attributes as [`Attr`]s, names lowercased.
fn owned_attrs(attrs: &[(&str, &str)]) -> Vec<Attr> {
    attrs
        .iter()
        .map(|&(name, value)| Attr {
            name: name.to_ascii_lowercase(),
            value: value.to_owned(),
        })
        .collect()
}

/// Split a `class` attribute value into tokens.
fn class_list(class: Option<&str>) -> Vec<String> {
    class
        .map(|c| c.split_whitespace().map(str::to_owned).collect())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn external_and_inline_scripts() {
        let doc = parse(
            r#"<html><head>
            <script src="https://cdn.example.com/lib.js"></script>
            <script>topics js</script>
            </head></html>"#,
        );
        let scripts: Vec<_> = doc.scripts().collect();
        assert_eq!(scripts.len(), 2);
        match scripts[0] {
            Node::Script { src, inline, .. } => {
                assert_eq!(src.as_deref(), Some("https://cdn.example.com/lib.js"));
                assert!(inline.is_empty());
            }
            _ => unreachable!(),
        }
        match scripts[1] {
            Node::Script { src, inline, .. } => {
                assert!(src.is_none());
                assert_eq!(inline, "topics js");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn iframe_with_browsingtopics_attribute() {
        let doc = parse(
            r#"<iframe src="https://ad.example/frame" browsingtopics></iframe>
               <iframe src="https://other.example/f2"></iframe>"#,
        );
        let frames: Vec<_> = doc
            .nodes
            .iter()
            .filter_map(|n| match n {
                Node::Iframe {
                    src,
                    browsing_topics,
                    ..
                } => Some((src.clone(), *browsing_topics)),
                _ => None,
            })
            .collect();
        assert_eq!(
            frames,
            vec![
                ("https://ad.example/frame".to_owned(), true),
                ("https://other.example/f2".to_owned(), false)
            ]
        );
    }

    #[test]
    fn images_and_stylesheets() {
        let doc = parse(
            r#"<img src="https://px.example/p.gif">
               <link rel="stylesheet" href="/style.css">
               <link rel="icon" href="/favicon.ico">"#,
        );
        assert!(doc.nodes.contains(&Node::Img {
            src: "https://px.example/p.gif".into()
        }));
        assert!(doc.nodes.contains(&Node::Stylesheet {
            href: "/style.css".into()
        }));
        assert!(!doc
            .nodes
            .iter()
            .any(|n| matches!(n, Node::Stylesheet { href } if href == "/favicon.ico")));
    }

    #[test]
    fn clickable_text_is_flattened() {
        let doc =
            parse(r#"<button id="accept" class="cta big"><b>Accept</b>   all cookies</button>"#);
        match &doc.nodes[0] {
            Node::Clickable {
                tag,
                text,
                id,
                classes,
            } => {
                assert_eq!(tag, "button");
                assert_eq!(text, "Accept all cookies");
                assert_eq!(id.as_deref(), Some("accept"));
                assert_eq!(classes, &["cta", "big"]);
            }
            n => panic!("unexpected {n:?}"),
        }
    }

    #[test]
    fn banner_div_and_inner_button_both_surface() {
        let html = r#"
            <div class="cmp-banner" id="consent">
              <p>We value your privacy</p>
              <button>Alle akzeptieren</button>
            </div>"#;
        let doc = parse(html);
        let container = doc
            .nodes
            .iter()
            .find_map(|n| match n {
                Node::Container { classes, text, .. } if classes.contains(&"cmp-banner".into()) => {
                    Some(text.clone())
                }
                _ => None,
            })
            .expect("banner container parsed");
        assert!(container.contains("Alle akzeptieren"));
        // The button inside is also parsed as its own node.
        assert!(doc.clickables().any(|n| matches!(
            n,
            Node::Clickable { text, .. } if text == "Alle akzeptieren"
        )));
    }

    #[test]
    fn nested_divs_respect_depth() {
        let html = r#"<div class="outer"><div class="inner">deep</div>tail</div><div class="after">x</div>"#;
        let doc = parse(html);
        let texts: Vec<_> = doc
            .nodes
            .iter()
            .filter_map(|n| match n {
                Node::Container { classes, text, .. } => Some((classes.clone(), text.clone())),
                _ => None,
            })
            .collect();
        assert!(texts.contains(&(vec!["outer".into()], "deep tail".into())));
        assert!(texts.contains(&(vec!["inner".into()], "deep".into())));
        assert!(texts.contains(&(vec!["after".into()], "x".into())));
    }

    #[test]
    fn title_is_extracted() {
        let doc = parse("<html><title>  My   Site </title></html>");
        assert_eq!(doc.title.as_deref(), Some("My Site"));
    }

    #[test]
    fn comments_are_skipped() {
        let doc = parse(r#"<!-- <script src="https://evil/x.js"></script> --><img src="/a.png">"#);
        assert_eq!(doc.nodes.len(), 1);
        assert!(matches!(&doc.nodes[0], Node::Img { src } if src == "/a.png"));
    }

    #[test]
    fn malformed_markup_does_not_panic() {
        for html in [
            "<",
            "<scr",
            "<script src=",
            "<script>never closed",
            "<div><div>unbalanced",
            "<button>no close",
            "<iframe src='x'",
            "< script >",
            "<a href='#'",
        ] {
            let _ = parse(html); // must not panic
        }
    }

    #[test]
    fn bare_and_single_quoted_attributes() {
        let doc = parse("<img src=/pix.gif><iframe src='https://f.example/a'></iframe>");
        assert!(matches!(&doc.nodes[0], Node::Img { src } if src == "/pix.gif"));
        assert!(matches!(&doc.nodes[1], Node::Iframe { src, .. } if src == "https://f.example/a"));
    }

    #[test]
    fn close_tags_match_only_at_a_tag_boundary() {
        let doc = parse(r#"<a href="/x">Read <abbr>GDPR</abbr> notice</a>"#);
        assert!(
            matches!(&doc.nodes[0], Node::Clickable { text, .. } if text == "Read GDPR notice"),
            "{doc:?}"
        );
        let doc = parse(r#"<div class="a">one<divider>x</divider>two</div>"#);
        assert!(
            matches!(&doc.nodes[0], Node::Container { text, .. } if text == "one x two"),
            "{doc:?}"
        );
        let doc = parse("<script>a</scripts>b</script><img src=/i.gif>");
        assert!(matches!(&doc.nodes[0], Node::Script { inline, .. } if inline == "a</scripts>b"));
        assert_eq!(doc.nodes.len(), 2);
    }

    /// Markup that exercises every rule of the tokenizer, for the
    /// differential checks against the reference parser.
    const FRAGMENTS: &[&str] = &[
        "<div class='x y'>",
        "<DIV id=Top>",
        "<div title='a>b'>",
        "<div/>",
        "</div>",
        "</DiV >",
        "<divider>",
        "</divider>",
        "<a href='/z'>",
        "<A class=cta>",
        "</a>",
        "</A>",
        "</a ",
        "<abbr>",
        "</abbr>",
        "<button class='accept'>",
        "<BUTTON id=b>",
        "</button>",
        "</BUTTON>",
        "</button\t",
        "<script>",
        "<SCRIPT src='/s.js'>",
        "<script src=/t.js />",
        "</script>",
        "</Script >",
        "<iframe src='https://f.example/' browsingtopics>",
        "<IFRAME SRC=/g>",
        "</iframe>",
        "<title>",
        "</TITLE>",
        "<img src=/p.gif>",
        "<link rel=STYLESHEET href=/m.css>",
        "<!--",
        "-->",
        "<!doctype html>",
        "<p>",
        "</p>",
        "<br/>",
        "</",
        "<",
        ">",
        " ",
        "\n\t",
        "\u{a0}",
        "\u{3000}",
        "\u{85}",
        "\u{b}",
        "Alle akzeptieren",
        "Tout accepter",
        "すべて同意",
    ];

    /// A document from fragment indices. The index one past the table
    /// takes the random markup `junk`, the next one the random text.
    fn markup(parts: &[(usize, String, String)]) -> String {
        parts
            .iter()
            .map(|(i, junk, text)| match FRAGMENTS.get(*i) {
                Some(fragment) => *fragment,
                None if *i == FRAGMENTS.len() => junk.as_str(),
                None => text.as_str(),
            })
            .collect()
    }

    #[test]
    fn tokenizer_matches_the_reference_on_edge_cases() {
        let cases = [
            "",
            "<",
            "<div>",
            "<div",
            "<a>x",
            "<a>x</a",
            "<a>x</a <div>>y",
            "<div><div-x>in</div>out</div>",
            "<div><a>in<div>deep</div></a>tail</div>after",
            "<div title='</div>'>t</div>",
            "<div>a<!-- </div> -->b</div>c",
            "<div>a<script>x = '</div>';</script>b</div>",
            "<button><button>x</button>y</button>z",
            "<div>é<b>語</b>\u{a0}☃ x\u{b}y</div>",
            "<DIV>Mixed</dIv><A>Case</a>",
            "<title>a <b>c</b></title><title>second</title>",
            "<script>never closed <div>x</div>",
            "<div><img src=/a.gif><iframe src=/f>x</iframe></div>",
            "a>b<div>c>d</div>",
        ];
        for html in cases {
            assert_eq!(parse(html), oracle::parse(html), "{html:?}");
        }
        let every: Vec<_> = (0..FRAGMENTS.len())
            .map(|i| (i, String::new(), String::new()))
            .collect();
        let html = markup(&every);
        assert_eq!(parse(&html), oracle::parse(&html), "{html:?}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(2_000))]

        #[test]
        fn tokenizer_matches_the_reference_on_random_markup(
            parts in proptest::collection::vec(
                (0..FRAGMENTS.len() + 2, "[a-zA-Z <>/='\"!-]{0,6}", ".{0,4}"),
                0..40
            )
        ) {
            let html = markup(&parts);
            proptest::prop_assert_eq!(parse(&html), oracle::parse(&html), "{:?}", html);
        }
    }

    #[test]
    fn gtm_style_snippet_parses() {
        // The real-world inclusion pattern from Figure 4: a script tag
        // placed directly in the page HTML.
        let html = r#"<script src="https://www.googletagmanager.com/gtm.js?id=GTM-XYZ"></script>"#;
        let doc = parse(html);
        match &doc.nodes[0] {
            Node::Script { src, .. } => assert_eq!(
                src.as_deref(),
                Some("https://www.googletagmanager.com/gtm.js?id=GTM-XYZ")
            ),
            n => panic!("unexpected {n:?}"),
        }
    }
}
