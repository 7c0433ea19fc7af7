//! The reference HTML parser that [`super::parse`] is checked against.
//!
//! This is the straightforward parser the one-pass tokenizer replaced,
//! kept with a single change: a close tag (and a nested open tag) only
//! counts when the tag name ends at a tag boundary, so `</abbr>` does
//! not close an `<a>` and `</divider>` does not close a `<div>`. Each
//! container lowercases the document and re-scans its own body, which
//! makes it slow and obviously faithful to its rules.
//!
//! The file is self-contained apart from the node types it builds, so
//! the webgen tests include it by path to check every page the world
//! serves.

use super::{Attr, Document, Node};

/// Parse a page the reference way.
pub fn parse(html: &str) -> Document {
    let mut doc = Document::default();
    let bytes = html.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] != b'<' {
            i += 1;
            continue;
        }
        if html[i..].starts_with("<!--") {
            i = html[i..]
                .find("-->")
                .map(|j| i + j + 3)
                .unwrap_or(bytes.len());
            continue;
        }
        let Some((tag, attrs, self_closing, after)) = parse_tag(html, i) else {
            i += 1;
            continue;
        };
        i = after;
        match tag.as_str() {
            "script" => {
                let src = attr(&attrs, "src");
                let (inline, next) = if self_closing {
                    (String::new(), i)
                } else {
                    read_raw_until_close(html, i, "script")
                };
                i = next;
                doc.nodes.push(Node::Script {
                    src,
                    inline: inline.trim().to_owned(),
                    attrs,
                });
            }
            "iframe" => {
                if let Some(src) = attr(&attrs, "src") {
                    let browsing_topics = attrs.iter().any(|a| a.name == "browsingtopics");
                    doc.nodes.push(Node::Iframe {
                        src,
                        browsing_topics,
                        attrs,
                    });
                }
                if !self_closing {
                    let (_, next) = read_raw_until_close(html, i, "iframe");
                    i = next;
                }
            }
            "img" => {
                if let Some(src) = attr(&attrs, "src") {
                    doc.nodes.push(Node::Img { src });
                }
            }
            "link" => {
                let rel = attr(&attrs, "rel").unwrap_or_default();
                if rel.eq_ignore_ascii_case("stylesheet") {
                    if let Some(href) = attr(&attrs, "href") {
                        doc.nodes.push(Node::Stylesheet { href });
                    }
                }
            }
            "title" => {
                let (text, next) = read_raw_until_close(html, i, "title");
                i = next;
                doc.title = Some(collapse_ws(&text));
            }
            "button" | "a" => {
                let (raw, next) = read_nested_until_close(html, i, &tag);
                i = next;
                doc.nodes.push(Node::Clickable {
                    tag,
                    text: collapse_ws(&strip_tags(&raw)),
                    id: attr(&attrs, "id"),
                    classes: class_list(&attrs),
                });
            }
            "div" => {
                // The div body is not skipped: nested nodes are parsed
                // as top-level nodes too.
                let (raw, _) = read_nested_until_close(html, i, "div");
                doc.nodes.push(Node::Container {
                    classes: class_list(&attrs),
                    id: attr(&attrs, "id"),
                    text: collapse_ws(&strip_tags(&raw)),
                });
            }
            _ => {}
        }
    }
    doc
}

/// Parse `<tag attr=… >` starting at `start` (which points at `<`).
/// Returns `(tag_name, attrs, self_closing, index_after_gt)`.
fn parse_tag(html: &str, start: usize) -> Option<(String, Vec<Attr>, bool, usize)> {
    let bytes = html.as_bytes();
    let mut i = start + 1;
    if i >= bytes.len() {
        return None;
    }
    if bytes[i] == b'/' {
        let end = html[i..].find('>').map(|j| i + j + 1)?;
        return Some((String::new(), Vec::new(), true, end));
    }
    let name_start = i;
    while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'!') {
        i += 1;
    }
    if i == name_start {
        return None;
    }
    let name = html[name_start..i].to_ascii_lowercase();
    let mut attrs = Vec::new();
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
        let an = html[an_start..i].to_ascii_lowercase();
        if an.is_empty() {
            i += 1;
            continue;
        }
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        let mut value = String::new();
        if i < bytes.len() && bytes[i] == b'=' {
            i += 1;
            while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            if i < bytes.len() && (bytes[i] == b'"' || bytes[i] == b'\'') {
                let quote = bytes[i];
                i += 1;
                let v_start = i;
                while i < bytes.len() && bytes[i] != quote {
                    i += 1;
                }
                value = html[v_start..i].to_owned();
                i = (i + 1).min(bytes.len());
            } else {
                let v_start = i;
                while i < bytes.len() && !bytes[i].is_ascii_whitespace() && bytes[i] != b'>' {
                    i += 1;
                }
                value = html[v_start..i].to_owned();
            }
        }
        attrs.push(Attr { name: an, value });
    }
    Some((name, attrs, self_closing, i))
}

/// Index of the first `pattern` in `lower` at or after `from` that is
/// followed by a tag boundary.
fn find_tag(lower: &str, from: usize, pattern: &str) -> Option<usize> {
    let mut at = from;
    while let Some(j) = lower[at..].find(pattern) {
        let found = at + j;
        if is_tag_boundary(lower, found + pattern.len()) {
            return Some(found);
        }
        at = found + 1;
    }
    None
}

/// Raw text from `start` to the first `</tag>`, returning (text, index
/// after the close tag).
fn read_raw_until_close(html: &str, start: usize, tag: &str) -> (String, usize) {
    let close = format!("</{tag}");
    let lower = html.to_ascii_lowercase();
    match find_tag(&lower, start, &close) {
        Some(c) => {
            let after = html[c..].find('>').map(|k| c + k + 1).unwrap_or(html.len());
            (html[start..c].to_owned(), after)
        }
        None => (html[start..].to_owned(), html.len()),
    }
}

/// Like [`read_raw_until_close`] but respects nesting of the same tag.
fn read_nested_until_close(html: &str, start: usize, tag: &str) -> (String, usize) {
    let open = format!("<{tag}");
    let close = format!("</{tag}");
    let lower = html.to_ascii_lowercase();
    let mut depth = 1usize;
    let mut i = start;
    loop {
        let next_open = find_tag(&lower, i, &open);
        let next_close = find_tag(&lower, i, &close);
        match (next_open, next_close) {
            (Some(o), Some(c)) if o < c => {
                depth += 1;
                i = o + open.len();
            }
            (_, Some(c)) => {
                depth -= 1;
                if depth == 0 {
                    let after = html[c..].find('>').map(|k| c + k + 1).unwrap_or(html.len());
                    return (html[start..c].to_owned(), after);
                }
                i = c + close.len();
            }
            _ => return (html[start..].to_owned(), html.len()),
        }
    }
}

/// True when the byte at `idx` ends a tag name (so `<divx` is not `<div`).
fn is_tag_boundary(lower: &str, idx: usize) -> bool {
    match lower.as_bytes().get(idx) {
        Some(b) => b.is_ascii_whitespace() || *b == b'>' || *b == b'/',
        None => true,
    }
}

/// Remove all tags from a fragment, keeping text.
fn strip_tags(fragment: &str) -> String {
    let mut out = String::with_capacity(fragment.len());
    let mut in_tag = false;
    for ch in fragment.chars() {
        match ch {
            '<' => {
                in_tag = true;
                out.push(' ');
            }
            '>' => in_tag = false,
            c if !in_tag => out.push(c),
            _ => {}
        }
    }
    out
}

/// Collapse runs of whitespace to single spaces and trim.
fn collapse_ws(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Fetch an attribute value by (lowercase) name.
fn attr(attrs: &[Attr], name: &str) -> Option<String> {
    attrs
        .iter()
        .find(|a| a.name == name)
        .map(|a| a.value.clone())
}

/// Split the `class` attribute into tokens.
fn class_list(attrs: &[Attr]) -> Vec<String> {
    attr(attrs, "class")
        .map(|c| c.split_whitespace().map(str::to_owned).collect())
        .unwrap_or_default()
}
