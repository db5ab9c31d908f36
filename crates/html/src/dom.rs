//! Arena-backed DOM.
//!
//! Nodes live in a flat `Vec` owned by the [`Document`]; relationships are
//! indices ([`NodeId`]). Detached nodes stay in the arena until the
//! document is dropped — fine for this workload, where documents are
//! rebuilt per navigation (matching how the agent regenerates content per
//! page, §4.1.2).

use rcb_util::{RcbError, Result};

/// Index of a node within its [`Document`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// The payload of a DOM node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeData {
    /// The document node (arena root).
    Document,
    /// `<!DOCTYPE ...>` — stored verbatim after the keyword.
    Doctype(String),
    /// An element: lower-cased tag plus attributes in source order.
    Element {
        /// Lower-cased tag name.
        tag: String,
        /// Attribute name-value pairs (names lower-cased).
        attrs: Vec<(String, String)>,
    },
    /// A text node (entity-decoded).
    Text(String),
    /// A comment node.
    Comment(String),
}

#[derive(Debug, Clone)]
struct Node {
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    data: NodeData,
}

/// An HTML document backed by a node arena.
#[derive(Debug, Clone)]
pub struct Document {
    nodes: Vec<Node>,
}

impl Default for Document {
    fn default() -> Self {
        Self::new()
    }
}

impl Document {
    /// Creates a document containing only the document node.
    pub fn new() -> Document {
        Document {
            nodes: vec![Node {
                parent: None,
                children: Vec::new(),
                data: NodeData::Document,
            }],
        }
    }

    /// The document node.
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Number of nodes in the arena (including detached ones).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    // ---- Node constructors -------------------------------------------------

    /// Creates a detached element.
    pub fn create_element(&mut self, tag: &str) -> NodeId {
        self.push(NodeData::Element {
            tag: tag.to_ascii_lowercase(),
            attrs: Vec::new(),
        })
    }

    /// Creates a detached element with attributes.
    pub fn create_element_with_attrs(&mut self, tag: &str, attrs: Vec<(String, String)>) -> NodeId {
        self.push(NodeData::Element {
            tag: tag.to_ascii_lowercase(),
            attrs,
        })
    }

    /// Creates a detached text node.
    pub fn create_text(&mut self, text: impl Into<String>) -> NodeId {
        self.push(NodeData::Text(text.into()))
    }

    /// Creates a detached comment node.
    pub fn create_comment(&mut self, text: impl Into<String>) -> NodeId {
        self.push(NodeData::Comment(text.into()))
    }

    /// Creates a detached doctype node.
    pub fn create_doctype(&mut self, text: impl Into<String>) -> NodeId {
        self.push(NodeData::Doctype(text.into()))
    }

    fn push(&mut self, data: NodeData) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            parent: None,
            children: Vec::new(),
            data,
        });
        id
    }

    // ---- Accessors ---------------------------------------------------------

    /// The node's payload.
    pub fn data(&self, id: NodeId) -> &NodeData {
        &self.nodes[id.0].data
    }

    /// The node's parent, if attached.
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.nodes[id.0].parent
    }

    /// The node's children, in order.
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.nodes[id.0].children
    }

    /// The element's tag, if `id` is an element.
    pub fn tag(&self, id: NodeId) -> Option<&str> {
        match &self.nodes[id.0].data {
            NodeData::Element { tag, .. } => Some(tag.as_str()),
            _ => None,
        }
    }

    /// Whether `id` is an element with the given (case-insensitive) tag.
    pub fn is_element(&self, id: NodeId, tag: &str) -> bool {
        self.tag(id).is_some_and(|t| t.eq_ignore_ascii_case(tag))
    }

    /// The element's attributes, if `id` is an element.
    pub fn attrs(&self, id: NodeId) -> &[(String, String)] {
        match &self.nodes[id.0].data {
            NodeData::Element { attrs, .. } => attrs,
            _ => &[],
        }
    }

    /// Attribute value by (case-insensitive) name.
    pub fn get_attr(&self, id: NodeId, name: &str) -> Option<&str> {
        self.attrs(id)
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Text of a text node.
    pub fn text(&self, id: NodeId) -> Option<&str> {
        match &self.nodes[id.0].data {
            NodeData::Text(t) => Some(t.as_str()),
            _ => None,
        }
    }

    // ---- Mutation ----------------------------------------------------------

    /// Sets (or adds) an attribute.
    pub fn set_attr(&mut self, id: NodeId, name: &str, value: impl Into<String>) {
        let name_lower = name.to_ascii_lowercase();
        if let NodeData::Element { attrs, .. } = &mut self.nodes[id.0].data {
            if let Some(slot) = attrs.iter_mut().find(|(n, _)| *n == name_lower) {
                slot.1 = value.into();
            } else {
                attrs.push((name_lower, value.into()));
            }
        }
    }

    /// Removes an attribute if present.
    pub fn remove_attr(&mut self, id: NodeId, name: &str) {
        let name_lower = name.to_ascii_lowercase();
        if let NodeData::Element { attrs, .. } = &mut self.nodes[id.0].data {
            attrs.retain(|(n, _)| *n != name_lower);
        }
    }

    /// Replaces a text node's contents.
    pub fn set_text(&mut self, id: NodeId, text: impl Into<String>) -> Result<()> {
        match &mut self.nodes[id.0].data {
            NodeData::Text(t) => {
                *t = text.into();
                Ok(())
            }
            _ => Err(RcbError::InvalidInput("set_text on a non-text node".into())),
        }
    }

    /// Appends `child` as the last child of `parent`, detaching it from any
    /// previous parent first. Errors on cycles.
    pub fn append_child(&mut self, parent: NodeId, child: NodeId) -> Result<()> {
        if parent == child || self.is_ancestor(child, parent) {
            return Err(RcbError::InvalidInput(
                "append_child would create a cycle".into(),
            ));
        }
        self.detach(child);
        self.nodes[child.0].parent = Some(parent);
        self.nodes[parent.0].children.push(child);
        Ok(())
    }

    /// Inserts `child` before `reference` under `parent`.
    pub fn insert_before(
        &mut self,
        parent: NodeId,
        child: NodeId,
        reference: NodeId,
    ) -> Result<()> {
        if parent == child || self.is_ancestor(child, parent) {
            return Err(RcbError::InvalidInput(
                "insert_before would create a cycle".into(),
            ));
        }
        let idx = self.nodes[parent.0]
            .children
            .iter()
            .position(|&c| c == reference)
            .ok_or_else(|| RcbError::InvalidInput("reference is not a child of parent".into()))?;
        self.detach(child);
        self.nodes[child.0].parent = Some(parent);
        self.nodes[parent.0].children.insert(idx, child);
        Ok(())
    }

    /// Detaches a node from its parent (no-op when already detached).
    pub fn detach(&mut self, id: NodeId) {
        if let Some(p) = self.nodes[id.0].parent.take() {
            self.nodes[p.0].children.retain(|&c| c != id);
        }
    }

    /// Removes all children of `id` (they remain in the arena, detached).
    pub fn clear_children(&mut self, id: NodeId) {
        let children = std::mem::take(&mut self.nodes[id.0].children);
        for c in children {
            self.nodes[c.0].parent = None;
        }
    }

    /// Replaces `drop` children of `parent`, from child `at` on, with
    /// `new`, in order. The replaced children stay in the arena, detached.
    /// Errors (changing nothing) when the run lies outside the children or
    /// a node of `new` is attached or is `parent` itself.
    pub fn splice_children(
        &mut self,
        parent: NodeId,
        at: usize,
        drop: usize,
        new: Vec<NodeId>,
    ) -> Result<()> {
        let len = self.nodes[parent.0].children.len();
        if at.checked_add(drop).is_none_or(|end| end > len) {
            return Err(RcbError::InvalidInput(format!(
                "splice of {drop} children at {at} outside {len} children"
            )));
        }
        if new
            .iter()
            .any(|&n| n == parent || self.nodes[n.0].parent.is_some())
        {
            return Err(RcbError::InvalidInput(
                "splice_children takes detached nodes only".into(),
            ));
        }
        for &n in &new {
            self.nodes[n.0].parent = Some(parent);
        }
        let removed: Vec<NodeId> = self.nodes[parent.0]
            .children
            .splice(at..at + drop, new)
            .collect();
        for c in removed {
            self.nodes[c.0].parent = None;
        }
        Ok(())
    }

    fn is_ancestor(&self, candidate: NodeId, of: NodeId) -> bool {
        let mut cur = self.nodes[of.0].parent;
        while let Some(p) = cur {
            if p == candidate {
                return true;
            }
            cur = self.nodes[p.0].parent;
        }
        false
    }

    // ---- Cloning -----------------------------------------------------------

    /// Deep-clones the subtree rooted at `id`, returning the detached clone
    /// root. This is the agent's "clone a documentElement node" primitive
    /// (Fig. 3, step 1): mutations to the clone never touch the original.
    pub fn deep_clone(&mut self, id: NodeId) -> NodeId {
        let data = self.nodes[id.0].data.clone();
        let children: Vec<NodeId> = self.nodes[id.0].children.clone();
        let clone = self.push(data);
        for child in children {
            let cc = self.deep_clone(child);
            self.nodes[cc.0].parent = Some(clone);
            self.nodes[clone.0].children.push(cc);
        }
        clone
    }

    /// Deep-clones a subtree from `src` into `self`, returning the new root.
    pub fn import_subtree(&mut self, src: &Document, id: NodeId) -> NodeId {
        let clone = self.push(src.nodes[id.0].data.clone());
        for &child in &src.nodes[id.0].children {
            let cc = self.import_subtree(src, child);
            self.nodes[cc.0].parent = Some(clone);
            self.nodes[clone.0].children.push(cc);
        }
        clone
    }

    // ---- Document structure ------------------------------------------------

    /// The `<html>` element, if present.
    pub fn document_element(&self) -> Option<NodeId> {
        self.children(self.root())
            .iter()
            .copied()
            .find(|&c| self.is_element(c, "html"))
    }

    /// The `<head>` element, if present.
    pub fn head(&self) -> Option<NodeId> {
        let html = self.document_element()?;
        self.children(html)
            .iter()
            .copied()
            .find(|&c| self.is_element(c, "head"))
    }

    /// The `<body>` element, if present.
    pub fn body(&self) -> Option<NodeId> {
        let html = self.document_element()?;
        self.children(html)
            .iter()
            .copied()
            .find(|&c| self.is_element(c, "body"))
    }

    /// The `<frameset>` element, if this is a frame page.
    pub fn frameset(&self) -> Option<NodeId> {
        let html = self.document_element()?;
        self.children(html)
            .iter()
            .copied()
            .find(|&c| self.is_element(c, "frameset"))
    }

    /// All descendants of `id` in document order (excluding `id`).
    pub fn descendants(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack: Vec<NodeId> = self.children(id).iter().rev().copied().collect();
        while let Some(n) = stack.pop() {
            out.push(n);
            stack.extend(self.children(n).iter().rev().copied());
        }
        out
    }

    /// Concatenated text of all descendant text nodes.
    pub fn text_content(&self, id: NodeId) -> String {
        let mut out = String::new();
        for n in self.descendants(id) {
            if let NodeData::Text(t) = self.data(n) {
                out.push_str(t);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skeleton() -> (Document, NodeId, NodeId, NodeId) {
        let mut doc = Document::new();
        let html = doc.create_element("html");
        let head = doc.create_element("head");
        let body = doc.create_element("body");
        let root = doc.root();
        doc.append_child(root, html).unwrap();
        doc.append_child(html, head).unwrap();
        doc.append_child(html, body).unwrap();
        (doc, html, head, body)
    }

    #[test]
    fn structure_accessors() {
        let (doc, html, head, body) = skeleton();
        assert_eq!(doc.document_element(), Some(html));
        assert_eq!(doc.head(), Some(head));
        assert_eq!(doc.body(), Some(body));
        assert_eq!(doc.frameset(), None);
        assert_eq!(doc.parent(head), Some(html));
    }

    #[test]
    fn attrs_case_insensitive() {
        let mut doc = Document::new();
        let el = doc.create_element("IMG");
        assert_eq!(doc.tag(el), Some("img"));
        doc.set_attr(el, "SRC", "/a.png");
        assert_eq!(doc.get_attr(el, "src"), Some("/a.png"));
        doc.set_attr(el, "src", "/b.png");
        assert_eq!(doc.attrs(el).len(), 1);
        assert_eq!(doc.get_attr(el, "Src"), Some("/b.png"));
        doc.remove_attr(el, "SRC");
        assert_eq!(doc.get_attr(el, "src"), None);
    }

    #[test]
    fn append_detach_reparent() {
        let (mut doc, _, head, body) = skeleton();
        let div = doc.create_element("div");
        doc.append_child(body, div).unwrap();
        assert_eq!(doc.children(body), &[div]);
        // Re-appending moves, not duplicates.
        doc.append_child(head, div).unwrap();
        assert!(doc.children(body).is_empty());
        assert_eq!(doc.children(head), &[div]);
        doc.detach(div);
        assert_eq!(doc.parent(div), None);
        doc.detach(div); // idempotent
    }

    #[test]
    fn cycles_rejected() {
        let (mut doc, html, _, body) = skeleton();
        assert!(doc.append_child(body, html).is_err());
        assert!(doc.append_child(body, body).is_err());
    }

    #[test]
    fn insert_before_positions() {
        let (mut doc, _, _, body) = skeleton();
        let a = doc.create_element("a");
        let b = doc.create_element("b");
        let c = doc.create_element("c");
        doc.append_child(body, a).unwrap();
        doc.append_child(body, c).unwrap();
        doc.insert_before(body, b, c).unwrap();
        assert_eq!(doc.children(body), &[a, b, c]);
        let stray = doc.create_element("x");
        assert!(doc.insert_before(body, stray, NodeId(0)).is_err());
    }

    #[test]
    fn deep_clone_is_independent() {
        let (mut doc, _, _, body) = skeleton();
        let div = doc.create_element("div");
        doc.set_attr(div, "id", "menu");
        let t = doc.create_text("hello");
        doc.append_child(div, t).unwrap();
        doc.append_child(body, div).unwrap();

        let clone = doc.deep_clone(div);
        assert_eq!(doc.parent(clone), None);
        assert_eq!(doc.get_attr(clone, "id"), Some("menu"));
        // Mutating the clone leaves the original untouched (Fig. 3 step 1).
        doc.set_attr(clone, "id", "changed");
        let clone_text = doc.children(clone)[0];
        doc.set_text(clone_text, "bye").unwrap();
        assert_eq!(doc.get_attr(div, "id"), Some("menu"));
        assert_eq!(doc.text_content(div), "hello");
        assert_eq!(doc.text_content(clone), "bye");
    }

    #[test]
    fn import_subtree_across_documents() {
        let (doc_a, _, _, body_a) = {
            let (mut d, h, hd, b) = skeleton();
            let p = d.create_element("p");
            let t = d.create_text("imported");
            d.append_child(p, t).unwrap();
            d.append_child(b, p).unwrap();
            (d, h, hd, b)
        };
        let mut doc_b = Document::new();
        let copied = doc_b.import_subtree(&doc_a, body_a);
        assert!(doc_b.is_element(copied, "body"));
        assert_eq!(doc_b.text_content(copied), "imported");
    }

    #[test]
    fn descendants_in_document_order() {
        let (mut doc, html, head, body) = skeleton();
        let d1 = doc.create_element("div");
        let d2 = doc.create_element("span");
        doc.append_child(body, d1).unwrap();
        doc.append_child(d1, d2).unwrap();
        assert_eq!(doc.descendants(html), vec![head, body, d1, d2]);
    }

    #[test]
    fn clear_children_detaches_all() {
        let (mut doc, _, _, body) = skeleton();
        let a = doc.create_element("a");
        let b = doc.create_element("b");
        doc.append_child(body, a).unwrap();
        doc.append_child(body, b).unwrap();
        doc.clear_children(body);
        assert!(doc.children(body).is_empty());
        assert_eq!(doc.parent(a), None);
        assert_eq!(doc.parent(b), None);
    }

    #[test]
    fn splice_children_replaces_a_run() {
        let (mut doc, _, _, body) = skeleton();
        let [a, b, c, d] = ["a", "b", "c", "d"].map(|t| doc.create_element(t));
        for n in [a, b, c] {
            doc.append_child(body, n).unwrap();
        }
        doc.splice_children(body, 1, 1, vec![d]).unwrap();
        assert_eq!(doc.children(body), &[a, d, c]);
        assert_eq!(doc.parent(d), Some(body));
        assert_eq!(doc.parent(b), None, "the replaced child is detached");
        // Pure insert and pure removal, at both ends.
        doc.splice_children(body, 0, 0, vec![b]).unwrap();
        assert_eq!(doc.children(body), &[b, a, d, c]);
        doc.splice_children(body, 3, 1, Vec::new()).unwrap();
        assert_eq!(doc.children(body), &[b, a, d]);
        // Out of range, attached or self: rejected, nothing changed.
        let x = doc.create_element("x");
        assert!(doc.splice_children(body, 2, 2, vec![x]).is_err());
        assert!(doc.splice_children(body, 0, 0, vec![a]).is_err());
        assert!(doc.splice_children(body, 0, 0, vec![body]).is_err());
        assert_eq!(doc.children(body), &[b, a, d]);
        assert_eq!(doc.parent(x), None);
    }

    #[test]
    fn set_text_rejects_non_text() {
        let mut doc = Document::new();
        let el = doc.create_element("p");
        assert!(doc.set_text(el, "x").is_err());
    }
}
