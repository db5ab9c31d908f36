//! Tolerant HTML tree builder.
//!
//! Two entry points:
//!
//! * [`parse_document`] — builds a full document with the implicit
//!   `html`/`head`/`body` (or `frameset`) structure browsers synthesize;
//! * [`parse_fragment_into`] — parses a fragment into detached nodes, the
//!   primitive behind `set_inner_html` (what Ajax-Snippet effectively does
//!   when it assigns innerHTML on the participant browser, §4.2.2).

use rcb_util::{RcbError, Result};

use crate::dom::{Document, NodeData, NodeId};
use crate::tokenizer::{is_escapable_raw_text_element, is_raw_text_element, tokenize, Token};

/// Elements that never have children (HTML void elements, plus `frame`).
pub fn is_void_element(tag: &str) -> bool {
    matches!(
        tag,
        "area"
            | "base"
            | "br"
            | "col"
            | "embed"
            | "frame"
            | "hr"
            | "img"
            | "input"
            | "link"
            | "meta"
            | "param"
            | "source"
            | "track"
            | "wbr"
    )
}

/// Elements that belong to the document head.
fn is_head_content(tag: &str) -> bool {
    matches!(
        tag,
        "title" | "meta" | "link" | "style" | "script" | "base" | "noscript"
    )
}

/// Returns the set of open tags that a new `tag` implicitly closes.
fn implicitly_closes(tag: &str, open: &str) -> bool {
    match tag {
        "li" => open == "li",
        "p" => open == "p",
        "tr" => matches!(open, "tr" | "td" | "th"),
        "td" | "th" => matches!(open, "td" | "th"),
        "option" => open == "option",
        "dt" | "dd" => matches!(open, "dt" | "dd"),
        "thead" | "tbody" | "tfoot" => {
            matches!(open, "thead" | "tbody" | "tfoot" | "tr" | "td" | "th")
        }
        // Block-level content closes an open paragraph.
        "div" | "ul" | "ol" | "table" | "form" | "h1" | "h2" | "h3" | "h4" | "h5" | "h6"
        | "blockquote" | "pre" | "section" | "article" => open == "p",
        _ => false,
    }
}

/// Parses a complete HTML document.
pub fn parse_document(input: &str) -> Document {
    let mut doc = Document::new();
    let tokens = tokenize(input);
    let root = doc.root();

    // Pass 1: does the page use frames?
    let uses_frameset = tokens
        .iter()
        .any(|t| matches!(t, Token::StartTag { name, .. } if name == "frameset"));

    // Synthesized skeleton; real <html>/<head>/<body> tags merge into it.
    let html = doc.create_element("html");
    let head = doc.create_element("head");
    doc.append_child(root, html).expect("fresh tree is acyclic");
    doc.append_child(html, head).expect("fresh tree is acyclic");
    let body = if uses_frameset {
        None
    } else {
        let b = doc.create_element("body");
        doc.append_child(html, b).expect("fresh tree is acyclic");
        Some(b)
    };

    #[derive(PartialEq)]
    enum Mode {
        BeforeBody,
        InBody,
    }
    let mut mode = Mode::BeforeBody;
    // Stack of open elements *below* head/body level.
    let mut stack: Vec<NodeId> = Vec::new();

    let current_container = |stack: &[NodeId], mode: &Mode| -> NodeId {
        if let Some(&top) = stack.last() {
            top
        } else {
            match mode {
                Mode::BeforeBody => head,
                Mode::InBody => body.unwrap_or(html),
            }
        }
    };

    for token in tokens {
        match token {
            Token::Doctype(d) => {
                let dt = doc.create_doctype(d);
                // Doctype precedes <html> under the document node.
                doc.detach(dt);
                let _ = doc.insert_before(root, dt, html);
            }
            Token::StartTag {
                name,
                attrs,
                self_closing,
            } => {
                match name.as_str() {
                    "html" => {
                        for (n, v) in attrs {
                            doc.set_attr(html, &n, v);
                        }
                        continue;
                    }
                    "head" => continue,
                    "body" => {
                        if let Some(b) = body {
                            for (n, v) in attrs {
                                doc.set_attr(b, &n, v);
                            }
                        }
                        mode = Mode::InBody;
                        stack.clear();
                        continue;
                    }
                    "frameset" if stack.is_empty() => {
                        let fs = doc.create_element_with_attrs("frameset", attrs);
                        doc.append_child(html, fs).expect("frameset under html");
                        stack.push(fs);
                        mode = Mode::InBody;
                        continue;
                    }
                    _ => {}
                }
                // Head content stays in head until body content appears.
                if mode == Mode::BeforeBody && !is_head_content(&name) && stack.is_empty() {
                    mode = Mode::InBody;
                }
                // Implicit end tags.
                while let Some(&top) = stack.last() {
                    let top_tag = doc.tag(top).unwrap_or("").to_string();
                    if implicitly_closes(&name, &top_tag) {
                        stack.pop();
                    } else {
                        break;
                    }
                }
                let parent = current_container(&stack, &mode);
                let el = doc.create_element_with_attrs(&name, attrs);
                doc.append_child(parent, el)
                    .expect("parser tree is acyclic");
                if !self_closing && !is_void_element(&name) {
                    stack.push(el);
                }
            }
            Token::EndTag { name } => {
                match name.as_str() {
                    "html" | "head" => continue,
                    "body" => {
                        stack.clear();
                        continue;
                    }
                    _ => {}
                }
                // Pop to the matching open element, if present.
                if let Some(idx) = stack
                    .iter()
                    .rposition(|&n| doc.tag(n).is_some_and(|t| t == name))
                {
                    stack.truncate(idx);
                }
                // Unmatched end tags are ignored (browser-tolerant).
            }
            Token::Text(text) => {
                if stack.is_empty() && text.trim().is_empty() {
                    continue; // inter-element whitespace at top level
                }
                if mode == Mode::BeforeBody && stack.is_empty() {
                    mode = Mode::InBody;
                }
                let parent = current_container(&stack, &mode);
                let t = doc.create_text(text);
                doc.append_child(parent, t).expect("parser tree is acyclic");
            }
            Token::Comment(c) => {
                let parent = current_container(&stack, &mode);
                let n = doc.create_comment(c);
                doc.append_child(parent, n).expect("parser tree is acyclic");
            }
        }
    }
    doc
}

/// Parses an HTML fragment, appending the resulting top-level nodes as
/// children of `container` in `doc`. Returns the new child ids.
pub fn parse_fragment_into(doc: &mut Document, container: NodeId, input: &str) -> Vec<NodeId> {
    let tokens = tokenize(input);
    let mut stack: Vec<NodeId> = Vec::new();
    let mut created: Vec<NodeId> = Vec::new();
    for token in tokens {
        match token {
            Token::StartTag {
                name,
                attrs,
                self_closing,
            } => {
                while let Some(&top) = stack.last() {
                    let top_tag = doc.tag(top).unwrap_or("").to_string();
                    if implicitly_closes(&name, &top_tag) {
                        stack.pop();
                    } else {
                        break;
                    }
                }
                let parent = stack.last().copied().unwrap_or(container);
                let el = doc.create_element_with_attrs(&name, attrs);
                doc.append_child(parent, el)
                    .expect("fragment tree is acyclic");
                if parent == container {
                    created.push(el);
                }
                if !self_closing && !is_void_element(&name) {
                    stack.push(el);
                }
            }
            Token::EndTag { name } => {
                if let Some(idx) = stack
                    .iter()
                    .rposition(|&n| doc.tag(n).is_some_and(|t| t == name))
                {
                    stack.truncate(idx);
                }
            }
            Token::Text(text) => {
                let parent = stack.last().copied().unwrap_or(container);
                let t = doc.create_text(text);
                doc.append_child(parent, t)
                    .expect("fragment tree is acyclic");
                if parent == container {
                    created.push(t);
                }
            }
            Token::Comment(c) => {
                let parent = stack.last().copied().unwrap_or(container);
                let n = doc.create_comment(c);
                doc.append_child(parent, n)
                    .expect("fragment tree is acyclic");
                if parent == container {
                    created.push(n);
                }
            }
            Token::Doctype(_) => {} // doctypes are ignored inside fragments
        }
    }
    created
}

/// Replaces the children of `node` with the parse of `html` — the DOM
/// `innerHTML` setter. The old children are removed for good
/// ([`Document::remove`]): their ids must not be used again.
pub fn set_inner_html(doc: &mut Document, node: NodeId, html: &str) -> Vec<NodeId> {
    for child in doc.children(node).to_vec() {
        doc.remove(child);
    }
    parse_fragment_into(doc, node, html)
}

/// [`set_inner_html`] for a run of children: replaces `drop` children of
/// `node`, from child `at` on, with the parse of `html` (removing the
/// replaced ones for good), and returns the new children. Errors,
/// changing nothing, when the run lies outside `node`'s children.
///
/// Splicing the serialization of children `at..at + k` of a node whose
/// children [`is_splice_safe`] says re-parse one for one gives the same
/// children as re-parsing that node's whole innerHTML.
pub fn splice_inner_html(
    doc: &mut Document,
    node: NodeId,
    at: usize,
    drop: usize,
    html: &str,
) -> Result<Vec<NodeId>> {
    let len = doc.children(node).len();
    if at.checked_add(drop).is_none_or(|end| end > len) {
        return Err(RcbError::InvalidInput(format!(
            "splice of {drop} children at {at} outside {len} children"
        )));
    }
    // The fragment parser ignores its container's tag, so a detached
    // stand-in holds the parse until it is spliced into `node`.
    let staging = doc.create_element("template");
    let created = parse_fragment_into(doc, staging, html);
    doc.clear_children(staging);
    doc.remove(staging);
    let dropped = doc.children(node)[at..at + drop].to_vec();
    doc.splice_children(node, at, drop, created.clone())?;
    for child in dropped {
        doc.remove(child);
    }
    Ok(created)
}

/// Whether the fragment parse of `node`'s innerHTML gives back `node`'s
/// children one for one, each parsing alone exactly as it does in place,
/// so a run of them can be replaced by re-parsing only that run
/// ([`splice_inner_html`]). The test is conservative. It fails on:
///
/// * an empty text child of `node`, or two adjacent ones (the first
///   parses to nothing, the others to one merged node);
/// * anywhere below `node`: a comment holding `-->`, a raw-text element
///   whose text holds its own end tag, a `title` or `textarea` holding
///   anything but text (each can end the element early), an element
///   with a direct child that implicitly closes it (a `<p>` holding a
///   `<div>`, an `<li>` holding an `<li>`), a doctype (fragments drop
///   it), or a tag or attribute name the tokenizer would not read back
///   whole.
///
/// It is [`children_splice_safe`] over each child's [`splice_child`], so
/// a caller that kept those per child can decide without the subtree.
pub fn is_splice_safe(doc: &Document, node: NodeId) -> bool {
    children_splice_safe(doc.children(node).iter().map(|&c| splice_child(doc, c)))
}

/// What one child contributes to its parent's [`is_splice_safe`]: whether
/// it is a text node (two adjacent ones merge), and whether it is safe
/// on its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpliceChild {
    /// The child is a text node.
    pub text: bool,
    /// The child's own subtree passes every per-node rule (an empty text
    /// node does not).
    pub safe: bool,
}

/// Whether children, each described by its [`splice_child`], in order,
/// are splice-safe together: each safe, and no two text nodes adjacent.
pub fn children_splice_safe(children: impl IntoIterator<Item = SpliceChild>) -> bool {
    let mut after_text = false;
    for child in children {
        if !child.safe || (child.text && after_text) {
            return false;
        }
        after_text = child.text;
    }
    true
}

/// The per-child half of [`is_splice_safe`] for `child` and its subtree.
pub fn splice_child(doc: &Document, child: NodeId) -> SpliceChild {
    if let Some(t) = doc.text(child) {
        return SpliceChild {
            text: true,
            safe: !t.is_empty(),
        };
    }
    SpliceChild {
        text: false,
        safe: subtree_splice_safe(doc, child),
    }
}

/// The per-node rules of [`is_splice_safe`], over `root` and everything
/// below it.
fn subtree_splice_safe(doc: &Document, root: NodeId) -> bool {
    let mut stack = vec![root];
    while let Some(n) = stack.pop() {
        let (tag, attrs) = match doc.data(n) {
            NodeData::Text(_) => continue,
            NodeData::Comment(c) if !c.contains("-->") => continue,
            NodeData::Element { tag, attrs } => (tag, attrs),
            NodeData::Comment(_) | NodeData::Doctype(_) | NodeData::Document => return false,
        };
        if !lexes_as_name(tag) || !attrs.iter().all(|(name, _)| attr_name_lexes(name)) {
            return false;
        }
        let children = doc.children(n);
        if is_void_element(tag) {
            continue; // its children are never serialized
        }
        if is_raw_text_element(tag) {
            // Serialized as the concatenation of its text children.
            let mut texts = children.iter().filter_map(|&c| doc.text(c));
            let ends_early = match (texts.next(), texts.next()) {
                (None, _) => false,
                (Some(one), None) => holds_end_tag(one, tag),
                (Some(a), Some(b)) => {
                    let all: String = [a, b].into_iter().chain(texts).collect();
                    holds_end_tag(&all, tag)
                }
            };
            if ends_early {
                return false;
            }
            continue;
        }
        if is_escapable_raw_text_element(tag) {
            // Text is escaped, so only an element child can end it early.
            if children.iter().any(|&c| doc.text(c).is_none()) {
                return false;
            }
            continue;
        }
        for &child in children {
            if doc.tag(child).is_some_and(|t| implicitly_closes(t, tag)) {
                return false;
            }
            stack.push(child);
        }
    }
    true
}

/// Whether the tokenizer reads `name` back as one tag name: an ASCII
/// letter, then letters, digits, `-` and `:`, all lower case (names are
/// lower-cased when read).
fn lexes_as_name(name: &str) -> bool {
    let mut bytes = name.bytes();
    bytes.next().is_some_and(|b| b.is_ascii_lowercase())
        && bytes.all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-' || b == b':')
}

/// Whether the tokenizer reads `name` back as one attribute name.
fn attr_name_lexes(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| !b.is_ascii_whitespace() && !matches!(b, b'=' | b'>' | b'/'))
}

/// Whether raw text holds `</tag`, in any case: the tokenizer ends the
/// element there.
fn holds_end_tag(text: &str, tag: &str) -> bool {
    let tag = tag.as_bytes();
    text.as_bytes()
        .windows(tag.len() + 2)
        .any(|w| w.starts_with(b"</") && w[2..].eq_ignore_ascii_case(tag))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serialize::{inner_html, outer_html};

    #[test]
    fn implicit_structure_synthesized() {
        let doc = parse_document("<p>hello</p>");
        let body = doc.body().unwrap();
        assert_eq!(doc.children(body).len(), 1);
        assert!(doc.head().is_some());
        assert_eq!(doc.text_content(body), "hello");
    }

    #[test]
    fn explicit_structure_merges() {
        let doc = parse_document(
            "<!DOCTYPE html><html lang=\"en\"><head><title>T</title></head>\
             <body class=\"home\"><div>x</div></body></html>",
        );
        let html = doc.document_element().unwrap();
        assert_eq!(doc.get_attr(html, "lang"), Some("en"));
        let body = doc.body().unwrap();
        assert_eq!(doc.get_attr(body, "class"), Some("home"));
        let head = doc.head().unwrap();
        assert_eq!(doc.children(head).len(), 1);
        assert!(doc.is_element(doc.children(head)[0], "title"));
    }

    #[test]
    fn head_content_lands_in_head() {
        let doc = parse_document(
            "<title>T</title><meta charset=\"utf-8\"><link rel=\"stylesheet\" href=\"a.css\">\
             <style>b{}</style><script src=\"s.js\"></script><p>body starts</p>",
        );
        let head = doc.head().unwrap();
        let tags: Vec<&str> = doc
            .children(head)
            .iter()
            .filter_map(|&c| doc.tag(c))
            .collect();
        assert_eq!(tags, vec!["title", "meta", "link", "style", "script"]);
        assert_eq!(doc.text_content(doc.body().unwrap()), "body starts");
    }

    #[test]
    fn script_in_body_stays_in_body() {
        let doc = parse_document("<div>x</div><script>f()</script>");
        let body = doc.body().unwrap();
        let tags: Vec<&str> = doc
            .children(body)
            .iter()
            .filter_map(|&c| doc.tag(c))
            .collect();
        assert_eq!(tags, vec!["div", "script"]);
    }

    #[test]
    fn frameset_page_has_no_body() {
        let doc = parse_document(
            "<html><head><title>F</title></head>\
             <frameset cols=\"50%,50%\"><frame src=\"/a\"><frame src=\"/b\">\
             <noframes>need frames</noframes></frameset></html>",
        );
        assert!(doc.body().is_none());
        let fs = doc.frameset().unwrap();
        assert_eq!(doc.get_attr(fs, "cols"), Some("50%,50%"));
        let frames: Vec<&str> = doc
            .children(fs)
            .iter()
            .filter_map(|&c| doc.tag(c))
            .collect();
        assert_eq!(frames, vec!["frame", "frame", "noframes"]);
    }

    #[test]
    fn void_elements_do_not_nest() {
        let doc = parse_document("<p><img src=\"a\"><br>text</p>");
        let body = doc.body().unwrap();
        let p = doc.children(body)[0];
        assert_eq!(doc.children(p).len(), 3);
        let img = doc.children(p)[0];
        assert!(doc.children(img).is_empty());
    }

    #[test]
    fn implicit_li_closing() {
        let doc = parse_document("<ul><li>a<li>b<li>c</ul>");
        let body = doc.body().unwrap();
        let ul = doc.children(body)[0];
        assert_eq!(doc.children(ul).len(), 3);
        for &li in doc.children(ul) {
            assert!(doc.is_element(li, "li"));
        }
    }

    #[test]
    fn implicit_p_closing_by_block() {
        let doc = parse_document("<p>one<div>two</div>");
        let body = doc.body().unwrap();
        let tags: Vec<&str> = doc
            .children(body)
            .iter()
            .filter_map(|&c| doc.tag(c))
            .collect();
        assert_eq!(tags, vec!["p", "div"]);
    }

    #[test]
    fn table_row_and_cell_closing() {
        let doc = parse_document("<table><tr><td>a<td>b<tr><td>c</table>");
        let body = doc.body().unwrap();
        let table = doc.children(body)[0];
        let rows: Vec<NodeId> = doc
            .children(table)
            .iter()
            .copied()
            .filter(|&c| doc.is_element(c, "tr"))
            .collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(doc.children(rows[0]).len(), 2);
        assert_eq!(doc.children(rows[1]).len(), 1);
    }

    #[test]
    fn unmatched_end_tag_ignored() {
        let doc = parse_document("<div>a</span>b</div>");
        let body = doc.body().unwrap();
        let div = doc.children(body)[0];
        assert_eq!(doc.text_content(div), "ab");
    }

    #[test]
    fn fragment_parsing_appends() {
        let mut doc = Document::new();
        let container = doc.create_element("div");
        let created = parse_fragment_into(&mut doc, container, "<b>x</b>y<i>z</i>");
        assert_eq!(created.len(), 3);
        assert_eq!(inner_html(&doc, container), "<b>x</b>y<i>z</i>");
    }

    #[test]
    fn set_inner_html_replaces() {
        let mut doc = Document::new();
        let container = doc.create_element("div");
        parse_fragment_into(&mut doc, container, "<b>old</b>");
        set_inner_html(&mut doc, container, "<i>new</i>");
        assert_eq!(inner_html(&doc, container), "<i>new</i>");
    }

    #[test]
    fn splice_inner_html_replaces_a_run_of_children() {
        let mut doc = Document::new();
        let container = doc.create_element("div");
        parse_fragment_into(&mut doc, container, "<b>1</b>two<i>3</i><!--4-->");
        let created = splice_inner_html(&mut doc, container, 1, 2, "<u>a</u><s>b</s>").unwrap();
        assert_eq!(created.len(), 2);
        assert_eq!(doc.children(container)[1..3], created[..]);
        assert_eq!(
            inner_html(&doc, container),
            "<b>1</b><u>a</u><s>b</s><!--4-->"
        );
        // Insert at the end, drop at the front.
        splice_inner_html(&mut doc, container, 4, 0, "tail").unwrap();
        splice_inner_html(&mut doc, container, 0, 1, "").unwrap();
        assert_eq!(inner_html(&doc, container), "<u>a</u><s>b</s><!--4-->tail");
        // A run outside the children changes nothing.
        assert!(splice_inner_html(&mut doc, container, 3, 2, "<p>x</p>").is_err());
        assert_eq!(inner_html(&doc, container), "<u>a</u><s>b</s><!--4-->tail");
    }

    /// A container with `build`'s children, built through the DOM (the
    /// way host-side edits build them, so any shape is reachable).
    fn built(build: impl FnOnce(&mut Document, NodeId)) -> (Document, NodeId) {
        let mut doc = Document::new();
        let body = doc.create_element("body");
        build(&mut doc, body);
        (doc, body)
    }

    fn element(doc: &mut Document, parent: NodeId, tag: &str) -> NodeId {
        let el = doc.create_element(tag);
        doc.append_child(parent, el).unwrap();
        el
    }

    fn text(doc: &mut Document, parent: NodeId, s: &str) {
        let t = doc.create_text(s);
        doc.append_child(parent, t).unwrap();
    }

    #[test]
    fn splice_safety_rejects_children_that_reparse_otherwise() {
        type Build = fn(&mut Document, NodeId);
        let unsafe_cases: [(&str, Build); 8] = [
            ("adjacent text", |d, b| {
                text(d, b, "one");
                text(d, b, "two");
            }),
            ("empty text", |d, b| {
                element(d, b, "p");
                text(d, b, "");
            }),
            ("p holding div", |d, b| {
                let p = element(d, b, "p");
                element(d, p, "div");
            }),
            ("li holding li, deep", |d, b| {
                let ul = element(d, b, "ul");
                let li = element(d, ul, "li");
                element(d, li, "li");
            }),
            ("script holding its end tag", |d, b| {
                let s = element(d, b, "script");
                text(d, s, "document.write('</SCRIPT><p>')");
            }),
            ("comment holding -->", |d, b| {
                let c = d.create_comment("a --> b");
                d.append_child(b, c).unwrap();
            }),
            ("textarea holding an element", |d, b| {
                let t = element(d, b, "textarea");
                element(d, t, "textarea");
            }),
            ("unreadable tag name", |d, b| {
                element(d, b, "my tag");
            }),
        ];
        for (case, build) in unsafe_cases {
            let (doc, body) = built(build);
            assert!(!is_splice_safe(&doc, body), "{case}");
        }
        let (doc, body) = built(|d, b| {
            text(d, b, "lead");
            let p = element(d, b, "p");
            element(d, p, "span");
            let s = element(d, b, "script");
            text(d, s, "if (a </b) { x = '</scrip' + 't>'; }");
            let img = element(d, b, "img");
            element(d, img, "div"); // never serialized
            text(d, b, "  ");
        });
        assert!(is_splice_safe(&doc, body));
        let page = parse_document(
            "<body><p>a<b>b</b></p><ul><li>1<li>2</ul>\
             <table><tr><td>x<td>y</table><!-- c --><p>z</body>",
        );
        assert!(is_splice_safe(&page, page.body().unwrap()));
    }

    /// A random tree over a vocabulary that reaches every rule: blocks,
    /// paragraphs, lists, raw text, escapable raw text, voids, comments
    /// and text (some empty, some adjacent).
    fn random_children(doc: &mut Document, parent: NodeId, rng: &mut rcb_util::DetRng, depth: u32) {
        const TAGS: [&str; 12] = [
            "div", "p", "span", "ul", "li", "b", "script", "style", "textarea", "img", "br", "td",
        ];
        const TEXTS: [&str; 6] = ["x", "", " ", "a</script>b", "--> y", "</style"];
        for _ in 0..rng.next_below(4) {
            match rng.next_below(10) {
                0..=5 => {
                    let tag = *rng.choose(&TAGS);
                    let el = element(doc, parent, tag);
                    if depth < 3 {
                        random_children(doc, el, rng, depth + 1);
                    }
                }
                6 => {
                    let c = doc.create_comment(*rng.choose(&TEXTS));
                    doc.append_child(parent, c).unwrap();
                }
                _ => {
                    let t: &&str = rng.choose(&TEXTS);
                    text(doc, parent, t);
                }
            }
        }
    }

    /// The property [`is_splice_safe`] promises: when it holds, the whole
    /// innerHTML re-parses to exactly the children the per-child
    /// serializations re-parse to, one node each.
    #[test]
    fn splice_safe_children_reparse_one_for_one() {
        let mut rng = rcb_util::DetRng::new(2009);
        let (mut safe, mut rejected) = (0, 0);
        for _ in 0..3000 {
            let (doc, body) = built(|d, b| random_children(d, b, &mut rng, 0));
            if !is_splice_safe(&doc, body) {
                rejected += 1;
                continue;
            }
            safe += 1;
            let html = crate::serialize::inner_html(&doc, body);
            let children: Vec<String> = doc
                .children(body)
                .iter()
                .map(|&c| outer_html(&doc, c))
                .collect();
            let mut whole = Document::new();
            let c = whole.create_element("body");
            let parsed = parse_fragment_into(&mut whole, c, &html);
            assert_eq!(parsed.len(), children.len(), "{html:?}");
            for (child, &node) in children.iter().zip(&parsed) {
                let mut alone = Document::new();
                let a = alone.create_element("body");
                let one = parse_fragment_into(&mut alone, a, child);
                assert_eq!(one.len(), 1, "{child:?} in {html:?}");
                assert_eq!(outer_html(&whole, node), outer_html(&alone, one[0]));
            }
        }
        assert!(
            safe > 500 && rejected > 500,
            "{safe} safe, {rejected} rejected"
        );
    }

    #[test]
    fn doctype_precedes_html() {
        let doc = parse_document("<!DOCTYPE html><p>x</p>");
        let kinds: Vec<bool> = doc
            .children(doc.root())
            .iter()
            .map(|&c| matches!(doc.data(c), crate::dom::NodeData::Doctype(_)))
            .collect();
        assert_eq!(kinds, vec![true, false]);
        assert!(outer_html(&doc, doc.document_element().unwrap()).starts_with("<html"));
    }

    #[test]
    fn forms_with_event_attributes_survive() {
        let doc = parse_document(
            "<form action=\"/checkout\" method=\"post\" onsubmit=\"return validate()\">\
             <input type=\"text\" name=\"addr\"><input type=\"submit\"></form>",
        );
        let body = doc.body().unwrap();
        let form = doc.children(body)[0];
        assert_eq!(doc.get_attr(form, "onsubmit"), Some("return validate()"));
        assert_eq!(doc.children(form).len(), 2);
    }
}
