//! `innerHTML` / `outerHTML` serialization.
//!
//! The agent extracts innerHTML values per top-level element (Fig. 4), and
//! the snippet assigns them back on the participant browser; serialization
//! must therefore round-trip through the parser. Rules follow the HTML
//! fragment serialization algorithm: text is escaped except inside raw-text
//! elements, attribute values are double-quoted and escaped, void elements
//! emit no end tag.

use crate::dom::{Document, NodeData, NodeId};
use crate::parser::is_void_element;
use crate::tokenizer::is_raw_text_element;

/// Serializes the children of `id` (the DOM `innerHTML` getter).
pub fn inner_html(doc: &Document, id: NodeId) -> String {
    let mut out = String::new();
    for &child in doc.children(id) {
        write_node(doc, child, &mut out);
    }
    out
}

/// Serializes `id` itself including its tag (the DOM `outerHTML` getter).
pub fn outer_html(doc: &Document, id: NodeId) -> String {
    let mut out = String::new();
    write_node(doc, id, &mut out);
    out
}

/// [`outer_html`], appended to `out`.
pub fn outer_html_into(doc: &Document, id: NodeId, out: &mut String) {
    write_node(doc, id, out);
}

/// Serializes a whole document, including any doctype.
pub fn serialize_document(doc: &Document) -> String {
    let mut out = String::new();
    for &child in doc.children(doc.root()) {
        write_node(doc, child, &mut out);
    }
    out
}

fn write_node(doc: &Document, id: NodeId, out: &mut String) {
    match doc.data(id) {
        NodeData::Document => {
            for &child in doc.children(id) {
                write_node(doc, child, out);
            }
        }
        NodeData::Doctype(d) => {
            out.push_str("<!DOCTYPE ");
            out.push_str(d);
            out.push('>');
        }
        NodeData::Element { tag, attrs } => {
            out.push('<');
            out.push_str(tag);
            for (name, value) in attrs {
                out.push(' ');
                out.push_str(name);
                out.push_str("=\"");
                out.push_str(&escape_attr(value));
                out.push('"');
            }
            out.push('>');
            if is_void_element(tag) {
                return;
            }
            if is_raw_text_element(tag) {
                // Raw text is emitted verbatim.
                for &child in doc.children(id) {
                    if let NodeData::Text(t) = doc.data(child) {
                        out.push_str(t);
                    }
                }
            } else {
                for &child in doc.children(id) {
                    write_node(doc, child, out);
                }
            }
            out.push_str("</");
            out.push_str(tag);
            out.push('>');
        }
        NodeData::Text(t) => out.push_str(&escape_text(t)),
        NodeData::Comment(c) => {
            out.push_str("<!--");
            out.push_str(c);
            out.push_str("-->");
        }
    }
}

/// Escapes text content (`&`, `<`, `>`).
pub fn escape_text(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Escapes an attribute value (`&`, `"`).
pub fn escape_attr(s: &str) -> String {
    s.replace('&', "&amp;").replace('"', "&quot;")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_document;

    #[test]
    fn inner_and_outer() {
        let doc = parse_document("<div id=\"a\"><b>x</b></div>");
        let body = doc.body().unwrap();
        let div = doc.children(body)[0];
        assert_eq!(inner_html(&doc, div), "<b>x</b>");
        assert_eq!(outer_html(&doc, div), "<div id=\"a\"><b>x</b></div>");
    }

    #[test]
    fn text_is_escaped() {
        let doc = parse_document("<p>1 &lt; 2 &amp; 3</p>");
        let body = doc.body().unwrap();
        assert_eq!(inner_html(&doc, body), "<p>1 &lt; 2 &amp; 3</p>");
    }

    #[test]
    fn attr_quotes_escaped() {
        let doc = parse_document("<p title='say &quot;hi&quot; &amp; bye'>x</p>");
        let body = doc.body().unwrap();
        assert_eq!(
            inner_html(&doc, body),
            "<p title=\"say &quot;hi&quot; &amp; bye\">x</p>"
        );
    }

    #[test]
    fn void_elements_have_no_end_tag() {
        let doc = parse_document("<p><img src=\"a.png\"><br></p>");
        let body = doc.body().unwrap();
        assert_eq!(inner_html(&doc, body), "<p><img src=\"a.png\"><br></p>");
    }

    #[test]
    fn script_round_trips_verbatim() {
        let src = "<script>if (a<b && c>d) { go(\"x\"); }</script>";
        let doc = parse_document(src);
        let head = doc.head().unwrap();
        assert_eq!(inner_html(&doc, head), src);
    }

    #[test]
    fn comments_round_trip() {
        let doc = parse_document("<div><!-- menu --></div>");
        let body = doc.body().unwrap();
        assert_eq!(inner_html(&doc, body), "<div><!-- menu --></div>");
    }

    #[test]
    fn document_serialization_includes_doctype() {
        let doc = parse_document("<!DOCTYPE html><p>x</p>");
        let s = serialize_document(&doc);
        assert!(s.starts_with("<!DOCTYPE html><html>"));
        assert!(s.contains("<p>x</p>"));
    }

    #[test]
    fn parse_serialize_fixpoint() {
        // After one parse→serialize pass the output must be a fixpoint.
        let inputs = [
            "<div class=\"a\"><ul><li>1</li><li>2</li></ul></div>",
            "<form action=\"/s\" onsubmit=\"return f()\"><input type=\"text\" name=\"q\"></form>",
            "<style>a { content: \"<p>\"; }</style><p>body</p>",
        ];
        for input in inputs {
            let once = serialize_document(&parse_document(input));
            let twice = serialize_document(&parse_document(&once));
            assert_eq!(once, twice, "not a fixpoint for {input:?}");
        }
    }
}
