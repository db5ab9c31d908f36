//! DOM traversal and lookup helpers.
//!
//! The agent's URL rewriting walks every element with a `src`/`href`-like
//! attribute; event rewriting walks forms and clickable elements; the
//! participant browser collects supplementary-object URLs the same way.

use crate::dom::{Document, NodeData, NodeId};

/// All descendant elements with the given (case-insensitive) tag.
pub fn elements_by_tag(doc: &Document, scope: NodeId, tag: &str) -> Vec<NodeId> {
    doc.descendants(scope)
        .into_iter()
        .filter(|&n| doc.is_element(n, tag))
        .collect()
}

/// First descendant element with a matching `id` attribute.
pub fn element_by_id(doc: &Document, scope: NodeId, id: &str) -> Option<NodeId> {
    doc.descendants(scope)
        .into_iter()
        .find(|&n| doc.get_attr(n, "id") == Some(id))
}

/// All descendant elements (skipping text/comment nodes).
pub fn all_elements(doc: &Document, scope: NodeId) -> Vec<NodeId> {
    doc.descendants(scope)
        .into_iter()
        .filter(|&n| matches!(doc.data(n), NodeData::Element { .. }))
        .collect()
}

/// `root`, when it is an element, then [`all_elements`] below it: the
/// elements of a subtree in document order.
pub fn subtree_elements(doc: &Document, root: NodeId) -> Vec<NodeId> {
    fn push_elements(doc: &Document, node: NodeId, out: &mut Vec<NodeId>) {
        if doc.tag(node).is_some() {
            out.push(node);
        }
        for &child in doc.children(node) {
            push_elements(doc, child, out);
        }
    }
    let mut out = Vec::new();
    push_elements(doc, root, &mut out);
    out
}

/// The attribute that carries a URL for each element kind, per HTML 4.
/// Returns `None` for elements that do not reference external resources.
pub fn url_attribute(tag: &str) -> Option<&'static str> {
    match tag {
        "img" | "script" | "frame" | "iframe" | "embed" | "input" => Some("src"),
        "link" | "a" | "area" => Some("href"),
        "form" => Some("action"),
        "object" => Some("data"),
        "body" | "table" | "td" => Some("background"),
        _ => None,
    }
}

/// Elements that reference *supplementary objects* the participant browser
/// must download to render the page (images, stylesheets, scripts, frames)
/// — as opposed to navigation links.
pub fn is_supplementary_ref(doc: &Document, node: NodeId) -> bool {
    let Some(tag) = doc.tag(node) else {
        return false;
    };
    match tag {
        "img" | "script" | "frame" | "iframe" | "embed" | "object" => true,
        "input" => doc
            .get_attr(node, "type")
            .is_some_and(|t| t.eq_ignore_ascii_case("image")),
        "link" => doc.get_attr(node, "rel").is_some_and(|r| {
            r.to_ascii_lowercase().contains("stylesheet") || r.to_ascii_lowercase().contains("icon")
        }),
        _ => false,
    }
}

/// The URL attribute `node` carries and its value, when non-empty.
pub fn url_ref(doc: &Document, node: NodeId) -> Option<(&'static str, &str)> {
    let attr = url_attribute(doc.tag(node)?)?;
    let value = doc.get_attr(node, attr)?;
    (!value.is_empty()).then_some((attr, value))
}

/// The URL of the supplementary object `node` references, if any.
pub fn supplementary_url(doc: &Document, node: NodeId) -> Option<&str> {
    if !is_supplementary_ref(doc, node) {
        return None;
    }
    url_ref(doc, node).map(|(_, value)| value)
}

/// Collects the URLs of supplementary objects under `scope` (images, CSS,
/// scripts, frames), in document order, deduplicated.
pub fn collect_supplementary_urls(doc: &Document, scope: NodeId) -> Vec<String> {
    let mut seen = std::collections::HashSet::new();
    all_elements(doc, scope)
        .into_iter()
        .filter_map(|n| supplementary_url(doc, n))
        .filter(|url| seen.insert(*url))
        .map(str::to_string)
        .collect()
}

/// All form elements under `scope`.
pub fn forms(doc: &Document, scope: NodeId) -> Vec<NodeId> {
    elements_by_tag(doc, scope, "form")
}

/// The `(name, value)` pairs of a form's input/select/textarea controls.
pub fn form_fields(doc: &Document, form: NodeId) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for n in doc.descendants(form) {
        let Some(tag) = doc.tag(n) else { continue };
        if !matches!(tag, "input" | "select" | "textarea") {
            continue;
        }
        let Some(name) = doc.get_attr(n, "name") else {
            continue;
        };
        let value = match tag {
            "textarea" => doc.text_content(n),
            _ => doc.get_attr(n, "value").unwrap_or("").to_string(),
        };
        out.push((name.to_string(), value));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_document;

    fn sample() -> Document {
        parse_document(
            "<html><head>\
             <link rel=\"stylesheet\" href=\"main.css\">\
             <link rel=\"alternate\" href=\"feed.xml\">\
             <script src=\"app.js\"></script></head><body background=\"bg.png\">\
             <img src=\"logo.png\"><img src=\"logo.png\">\
             <a href=\"/about\">about</a>\
             <form id=\"f\" action=\"/search\">\
             <input type=\"text\" name=\"q\" value=\"laptop\">\
             <input type=\"image\" src=\"go.png\" name=\"go\">\
             <textarea name=\"notes\">hello</textarea>\
             </form></body></html>",
        )
    }

    #[test]
    fn by_tag_and_id() {
        let doc = sample();
        let root = doc.root();
        assert_eq!(elements_by_tag(&doc, root, "img").len(), 2);
        assert_eq!(elements_by_tag(&doc, root, "IMG").len(), 2);
        assert!(element_by_id(&doc, root, "f").is_some());
        assert!(element_by_id(&doc, root, "nope").is_none());
    }

    #[test]
    fn url_refs_collected() {
        let doc = sample();
        let urls: Vec<&str> = all_elements(&doc, doc.root())
            .into_iter()
            .filter_map(|n| url_ref(&doc, n).map(|(_, url)| url))
            .collect();
        assert!(urls.contains(&"main.css"));
        assert!(urls.contains(&"app.js"));
        assert!(urls.contains(&"logo.png"));
        assert!(urls.contains(&"/about"));
        assert!(urls.contains(&"/search"));
        assert!(urls.contains(&"bg.png"));
    }

    #[test]
    fn supplementary_urls_filtered_and_deduped() {
        let doc = sample();
        let urls = collect_supplementary_urls(&doc, doc.root());
        // Stylesheet yes; alternate-rel link no; nav anchor no; form action
        // no; image input yes; duplicate img deduped.
        assert_eq!(urls, vec!["main.css", "app.js", "logo.png", "go.png"]);
    }

    #[test]
    fn form_fields_extracted() {
        let doc = sample();
        let f = forms(&doc, doc.root())[0];
        assert_eq!(
            form_fields(&doc, f),
            vec![
                ("q".to_string(), "laptop".to_string()),
                ("go".to_string(), String::new()),
                ("notes".to_string(), "hello".to_string()),
            ]
        );
    }

    #[test]
    fn url_attribute_table() {
        assert_eq!(url_attribute("img"), Some("src"));
        assert_eq!(url_attribute("link"), Some("href"));
        assert_eq!(url_attribute("form"), Some("action"));
        assert_eq!(url_attribute("div"), None);
    }
}
