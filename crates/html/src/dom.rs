//! Arena-backed DOM.
//!
//! Nodes live in a flat `Vec` owned by the [`Document`]; relationships are
//! indices ([`NodeId`]). Detached nodes stay in the arena until the
//! document is dropped, unless [`Document::remove`] frees them: a
//! participant replacing its body on every update removes the children it
//! replaces, so its arena holds what its document holds.
//!
//! # Change stamps
//!
//! A document tells a reader which subtrees changed since it last looked.
//! Every mutation stamps the node it changes, and each of that node's
//! ancestors, with the document's current *epoch*; [`Document::advance_epoch`]
//! closes the epoch, so a reader that recorded the closed epoch knows a
//! subtree whose [`Document::stamp`] is no later is unchanged since. A
//! stamp is never below a descendant's, so stamping stops at the first
//! ancestor that already holds the current epoch: building a document
//! node by node stamps each parent once. Stamps are meaningful only
//! within one document: [`Document::id`] tells documents apart, and no
//! new, parsed or cloned document repeats another's.

use std::sync::atomic::{AtomicU64, Ordering};

use rcb_util::{RcbError, Result};

/// The next [`Document::id`] to hand out.
static NEXT_DOCUMENT_ID: AtomicU64 = AtomicU64::new(1);

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
    /// The epoch of the latest change to this node's subtree.
    stamp: u64,
}

/// An HTML document backed by a node arena.
#[derive(Debug)]
pub struct Document {
    nodes: Vec<Node>,
    /// Slots of removed nodes, reused by the nodes created next.
    free: Vec<NodeId>,
    /// This document's identity (see the module docs).
    id: u64,
    /// The epoch mutations stamp nodes with. Advanced through a shared
    /// reference, by a reader that holds the document read-only.
    epoch: AtomicU64,
}

/// A clone is a new document: it takes a fresh identity, so stamps read
/// from the original never vouch for it.
impl Clone for Document {
    fn clone(&self) -> Self {
        Document {
            nodes: self.nodes.clone(),
            free: self.free.clone(),
            id: NEXT_DOCUMENT_ID.fetch_add(1, Ordering::Relaxed),
            epoch: AtomicU64::new(self.epoch.load(Ordering::Relaxed)),
        }
    }
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
                stamp: 0,
            }],
            free: Vec::new(),
            id: NEXT_DOCUMENT_ID.fetch_add(1, Ordering::Relaxed),
            epoch: AtomicU64::new(0),
        }
    }

    /// This document's identity: no other new, parsed or cloned document
    /// in the process has it.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The epoch of the latest change to `id`'s subtree: to the node, its
    /// attributes or text, its children, or anything below them.
    pub fn stamp(&self, id: NodeId) -> u64 {
        self.nodes[id.0].stamp
    }

    /// Closes the current epoch and returns it: every change made so far
    /// is stamped with it or an earlier one, every later change with a
    /// later one. Takes `&self`, so a reader holding the document
    /// read-only can mark where it looked.
    pub fn advance_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::Relaxed)
    }

    /// Stamps `id` and its ancestors with the current epoch, up to the
    /// first one that already holds it (whose ancestors hold it too).
    fn touch(&mut self, id: NodeId) {
        let epoch = *self.epoch.get_mut();
        let mut cur = Some(id);
        while let Some(n) = cur {
            let node = &mut self.nodes[n.0];
            if node.stamp == epoch {
                break;
            }
            node.stamp = epoch;
            cur = node.parent;
        }
    }

    /// The document node.
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Number of slots in the arena: live and detached nodes, and slots
    /// [`Document::remove`] freed that no node has reused yet.
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
        let stamp = *self.epoch.get_mut();
        if let Some(id) = self.free.pop() {
            // `remove` left the slot detached and childless.
            let node = &mut self.nodes[id.0];
            node.data = data;
            node.stamp = stamp;
            return id;
        }
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            parent: None,
            children: Vec::new(),
            data,
            stamp,
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
        self.touch(id);
    }

    /// Removes an attribute if present.
    pub fn remove_attr(&mut self, id: NodeId, name: &str) {
        let name_lower = name.to_ascii_lowercase();
        if let NodeData::Element { attrs, .. } = &mut self.nodes[id.0].data {
            attrs.retain(|(n, _)| *n != name_lower);
        }
        self.touch(id);
    }

    /// Replaces a text node's contents.
    pub fn set_text(&mut self, id: NodeId, text: impl Into<String>) -> Result<()> {
        match &mut self.nodes[id.0].data {
            NodeData::Text(t) => {
                *t = text.into();
                self.touch(id);
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
        self.touch(parent);
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
        self.touch(parent);
        Ok(())
    }

    /// Detaches a node from its parent (no-op when already detached).
    pub fn detach(&mut self, id: NodeId) {
        if let Some(p) = self.nodes[id.0].parent.take() {
            self.nodes[p.0].children.retain(|&c| c != id);
            self.touch(p);
        }
    }

    /// Removes `id` and every node below it from the document for good:
    /// detaches `id` and frees the nodes' slots for the nodes created
    /// next. A removed node's id must not be used again: it may name a
    /// later node. The document node is never removed.
    pub fn remove(&mut self, id: NodeId) {
        if id == self.root() {
            return;
        }
        self.detach(id);
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            let node = &mut self.nodes[n.0];
            stack.append(&mut node.children);
            node.parent = None;
            node.data = NodeData::Comment(String::new());
            self.free.push(n);
        }
    }

    /// Removes all children of `id` (they remain in the arena, detached).
    pub fn clear_children(&mut self, id: NodeId) {
        let children = std::mem::take(&mut self.nodes[id.0].children);
        for c in children {
            self.nodes[c.0].parent = None;
        }
        self.touch(id);
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
        self.touch(parent);
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
    fn a_change_stamps_its_node_and_ancestors_only() {
        let (mut doc, html, head, body) = skeleton();
        let [a, b] = ["a", "b"].map(|t| doc.create_element(t));
        let t = doc.create_text("x");
        doc.append_child(body, a).unwrap();
        doc.append_child(body, b).unwrap();
        doc.append_child(a, t).unwrap();
        let seen = doc.advance_epoch();
        let unchanged = |doc: &Document, n: NodeId| doc.stamp(n) <= seen;
        assert!([html, head, body, a, b, t]
            .iter()
            .all(|&n| unchanged(&doc, n)));
        doc.set_text(t, "y").unwrap();
        assert!(!unchanged(&doc, t) && !unchanged(&doc, a) && !unchanged(&doc, body));
        assert!(!unchanged(&doc, html) && !unchanged(&doc, doc.root()));
        assert!(
            unchanged(&doc, b) && unchanged(&doc, head),
            "siblings keep theirs"
        );
        // Every kind of change stamps: attributes, moves, removals.
        let seen = doc.advance_epoch();
        doc.set_attr(b, "id", "x");
        assert!(doc.stamp(b) > seen && doc.stamp(a) <= seen);
        let seen = doc.advance_epoch();
        doc.append_child(head, t).unwrap();
        assert!(doc.stamp(a) > seen, "losing a child is a change");
        assert!(doc.stamp(head) > seen && doc.stamp(b) <= seen);
        let seen = doc.advance_epoch();
        doc.splice_children(body, 0, 1, Vec::new()).unwrap();
        assert!(doc.stamp(body) > seen && doc.stamp(b) <= seen);
        // A change to a detached subtree shows once it is attached.
        let seen = doc.advance_epoch();
        doc.set_attr(a, "class", "moved");
        doc.append_child(body, a).unwrap();
        assert!(doc.stamp(a) > seen && doc.stamp(b) <= seen);
    }

    #[test]
    fn no_two_documents_share_an_identity() {
        let (doc, ..) = skeleton();
        let copy = doc.clone();
        let parsed = crate::parse_document("<p>x</p>");
        let ids = [doc.id(), copy.id(), parsed.id(), Document::new().id()];
        for (i, a) in ids.iter().enumerate() {
            assert!(ids[i + 1..].iter().all(|b| b != a), "{ids:?}");
        }
    }

    /// Over random edits, a parent's stamp is never below a child's (what
    /// lets stamping stop early), and a node whose serialization changed
    /// since an epoch was closed is stamped after it.
    #[test]
    fn stamps_cover_every_serialized_change() {
        use crate::serialize::outer_html;
        let mut rng = rcb_util::DetRng::new(7);
        let (mut doc, html, _, body) = skeleton();
        let mut nodes = vec![body];
        for round in 0..400 {
            let before: Vec<(NodeId, String)> =
                nodes.iter().map(|&n| (n, outer_html(&doc, n))).collect();
            let seen = doc.advance_epoch();
            for _ in 0..rng.next_below(3) {
                let n = *rng.choose(&nodes);
                match rng.next_below(6) {
                    0 => {
                        let el = doc.create_element("div");
                        nodes.push(el);
                        let _ = doc.append_child(n, el);
                    }
                    1 => {
                        let t = doc.create_text(format!("t{round}"));
                        let _ = doc.append_child(n, t);
                    }
                    2 => doc.set_attr(n, "data-r", round.to_string()),
                    3 if n != body => doc.detach(n),
                    4 => {
                        let m = *rng.choose(&nodes);
                        let _ = doc.append_child(n, m);
                    }
                    _ => doc.remove_attr(n, "data-r"),
                }
            }
            for (n, html_before) in before {
                if outer_html(&doc, n) != html_before {
                    assert!(
                        doc.stamp(n) > seen,
                        "round {round}: {n:?} changed unstamped"
                    );
                }
            }
            for n in doc.descendants(html) {
                let parent = doc.parent(n).unwrap();
                assert!(doc.stamp(parent) >= doc.stamp(n), "round {round}");
            }
        }
    }

    #[test]
    fn removed_nodes_free_their_slots_for_later_nodes() {
        let (mut doc, _, head, body) = skeleton();
        let div = doc.create_element("div");
        let t = doc.create_text("gone");
        doc.append_child(div, t).unwrap();
        doc.append_child(body, div).unwrap();
        let slots = doc.node_count();
        let seen = doc.advance_epoch();
        doc.remove(div);
        assert!(doc.children(body).is_empty());
        assert!(doc.stamp(body) > seen, "removing a child is a change");
        // Two new nodes take the two freed slots, detached and fresh.
        let (a, b) = (doc.create_element("a"), doc.create_text("b"));
        assert_eq!(doc.node_count(), slots);
        for n in [a, b] {
            assert_eq!(doc.parent(n), None);
            assert!(doc.children(n).is_empty());
            assert!(doc.stamp(n) > seen);
        }
        assert!(doc.is_element(a, "a") && doc.text(b) == Some("b"));
        doc.append_child(head, a).unwrap();
        assert_eq!(doc.children(head), &[a]);
        // The document node stays.
        let root = doc.root();
        doc.remove(root);
        assert_eq!(
            doc.document_element().map(|h| doc.parent(h)),
            Some(Some(root))
        );
        doc.create_element("c");
        assert_eq!(doc.node_count(), slots + 1);
    }

    #[test]
    fn set_text_rejects_non_text() {
        let mut doc = Document::new();
        let el = doc.create_element("p");
        assert!(doc.set_text(el, "x").is_err());
    }
}
