//! Response content generation (paper §4.1.2, Fig. 3).
//!
//! When the host document changes, the agent produces the XML payload a
//! participant browser renders from. The five steps, verbatim from the
//! paper:
//!
//! 1. clone the documentElement node of the current HTMLDocument (changes
//!    below never touch the live host page);
//! 2. change relative URL addresses to absolute URL addresses for elements
//!    in the cloned document (so non-cache-mode participants can reach
//!    origin servers);
//! 3. in cache mode, change absolute URL addresses of cached objects to
//!    RCB-Agent URL addresses (per-object granularity — the mode can
//!    differ per object);
//! 4. rewrite event attributes (`onclick`, `onsubmit`) so interactions on
//!    the participant browser call back into Ajax-Snippet;
//! 5. assemble the Fig.-4 XML: per-head-child payloads plus
//!    body/frameset/noframes payloads, all JS-escaped in CDATA.
//!
//! The wall-clock cost of this function is the paper's **M5** metric; the
//! caller (the agent) measures it with a stopwatch and reuses the result
//! for every participant ("the generated XML format response content is
//! reusable for multiple participant browsers").
//!
//! # Pipelined generation
//!
//! Generation is split into two phases so concurrent deployments can keep
//! their write-path critical section down to step 1 alone:
//!
//! * [`prepare_generation`] — performed **with** exclusive host access:
//!   clone what must be regenerated and capture frozen inputs (page URL,
//!   observer records, cache view, host-action batch) into a
//!   self-contained [`GenerationJob`];
//! * [`finish_generation`] — steps 2–5 (URL rewriting, event rewriting,
//!   escaping, XML assembly) on the clones, **without** the host: the
//!   only shared state it touches is the URL↔key mapping table, locked
//!   briefly for step 3's key minting only.
//!
//! [`generate_content`] runs both phases back to back for callers that
//! hold the host for the whole generation (the Table-1 measurements).
//!
//! # Incremental generation
//!
//! Steps 2–5 act on each element alone, and step 4 names the synthetic
//! id of an id-less form or clickable after the subtree it lies in:
//! `rcb-{n}-{k}` for the k-th under live root node `n`. So each top-level
//! body child's output depends only on its own subtree and a handful of
//! inputs: the page URL, the download observer's records, the cache view,
//! the cache mode and the session path prefix. The same holds for the
//! head, whose output is the `docHead` section. Every generation keeps,
//! for the head and per body child, what it produced (a `ContentMemo`):
//! the live node, where its escaped bytes lie in the XML, its object
//! URLs, cache rewrites and splice safety. A later generation given it as
//! its *base* clones, under the host lock, only the body element's own tag
//! and attributes, and the head and body children whose
//! [`rcb_html::Document::stamp`] moved past the epoch the base closed;
//! every other subtree's bytes and results are copied from the base. A
//! subtree is copied only when the document (by identity) and all the
//! inputs above are the base's; otherwise it is regenerated. The head is
//! copied only on a page with one head and no frameset, from the same
//! place among the documentElement's children. A first generation, a
//! navigation, a frameset page and [`generate_content`] run the same code
//! with nothing to copy.

use std::collections::HashSet;
use std::ops::Range;
use std::sync::{Arc, Mutex};

use rcb_browser::{Browser, DownloadObserver};
use rcb_cache::{CacheView, MappingTable};
use rcb_crypto::SessionKey;
use rcb_html::dom::{Document, NodeData, NodeId};
use rcb_html::parser::{children_splice_safe, splice_child, SpliceChild};
use rcb_html::serialize::outer_html_into;
use rcb_html::{inner_html, query};
use rcb_url::Url;
use rcb_util::{RcbError, Result, SimDuration, Stopwatch};
use rcb_xml::{
    write_new_content_parts, BodyChild, ElementPayload, HeadParts, Sections, TopLevel, TopParts,
};

use crate::agent::CacheMode;
use crate::auth::object_token;

/// One generated response content, reusable across participants.
#[derive(Debug, Clone)]
pub struct GeneratedContent {
    /// The serialized Fig.-4 XML document. A snapshot's poll reply
    /// shares this allocation as its body.
    pub xml: Arc<str>,
    /// Where the writer put each section of `xml`, and each top-level
    /// body child: deltas are spliced from these bytes, and comparing them
    /// across generations tells which sections and children changed.
    pub sections: Sections,
    /// Whether a participant's fragment parse of this body gives back its
    /// top-level children one for one ([`rcb_html::parser::is_splice_safe`]):
    /// only then may a delta to this generation splice the body's
    /// children instead of replacing them all.
    pub body_splice_safe: bool,
    /// The document timestamp embedded in it.
    pub doc_time: u64,
    /// Supplementary-object URLs a participant must fetch after applying
    /// this content (agent-relative in cache mode, absolute otherwise).
    pub object_urls: Vec<String>,
    /// How many objects were rewritten to agent URLs (cache mode hits).
    pub cache_rewrites: usize,
    /// Wall-clock generation cost — the paper's M5.
    pub generation_cost: SimDuration,
    /// Top-level body children copied from the base generation.
    pub children_reused: usize,
    /// Top-level body children cloned and generated afresh.
    pub children_regenerated: usize,
    /// Whether the `docHead` section was copied from the base generation
    /// rather than cloned and generated afresh.
    pub head_reused: bool,
    /// What a later generation may copy from this one.
    memo: ContentMemo,
}

/// What a generation produced for the head and per top-level body child,
/// kept so a later generation can copy it (see the module docs). About
/// 56 B per child plus the subtrees' object URLs; the escaped bytes are
/// ranges of the generation's own XML.
#[derive(Debug, Clone)]
struct ContentMemo {
    /// The inputs every subtree's output depends on.
    inputs: Inputs,
    /// The host document epoch the generation's plan closed: a subtree
    /// stamped no later is as this generation saw it.
    epoch: u64,
    /// The head, on a page with one head and no frameset; its bytes are
    /// the XML's [`Sections::head`].
    head: Option<HeadMemo>,
    /// One entry per top-level body child, in order; none on a frameset
    /// page.
    children: Vec<ChildMemo>,
    /// `(node, index into children)`, sorted, for children that moved.
    by_node: Vec<(NodeId, u32)>,
    /// Every subtree's object URLs, in document order, repeats kept.
    urls: Vec<String>,
}

/// The inputs beyond its own subtree that a subtree's output depends on.
#[derive(Debug, Clone)]
struct Inputs {
    /// [`Document::id`] of the host document.
    doc: u64,
    page_url: Url,
    /// [`DownloadObserver::change_token`] of the host's observer.
    observer: u64,
    /// Held, so its identity cannot be reused while compared against.
    cache: CacheView,
    mode: CacheMode,
    path_prefix: String,
}

impl Inputs {
    fn same_as(&self, other: &Inputs) -> bool {
        self.doc == other.doc
            && self.observer == other.observer
            && self.mode == other.mode
            && self.cache.same_view(&other.cache)
            && self.page_url == other.page_url
            && self.path_prefix == other.path_prefix
    }
}

/// What generating one subtree (the head, or a top-level body child)
/// produced beyond its bytes.
#[derive(Debug, Clone)]
struct SubtreeMemo {
    /// The subtree's root in the live host document.
    node: NodeId,
    /// Its object URLs, in document order: a range of
    /// [`ContentMemo::urls`].
    urls: Range<u32>,
    /// Its cache rewrites.
    rewrites: u32,
}

/// What the head produced.
#[derive(Debug, Clone)]
struct HeadMemo {
    /// Its index among the documentElement's children.
    at: usize,
    subtree: SubtreeMemo,
}

/// What one top-level body child produced.
#[derive(Debug, Clone)]
struct ChildMemo {
    subtree: SubtreeMemo,
    splice: SpliceChild,
}

impl ContentMemo {
    /// The index of live body child `node` when its output may be
    /// copied: it is one of this generation's children, unchanged since.
    /// `cursor` is where the previous child was found: children that kept
    /// their order are found without a search.
    fn reusable_child(&self, live: &Document, node: NodeId, cursor: &mut usize) -> Option<usize> {
        let at = match self.children.get(*cursor) {
            Some(child) if child.subtree.node == node => *cursor,
            _ => {
                let i = self.by_node.binary_search_by_key(&node, |&(n, _)| n).ok()?;
                self.by_node[i].1 as usize
            }
        };
        *cursor = at + 1;
        (live.stamp(node) <= self.epoch).then_some(at)
    }

    /// Whether the head's output may be copied: live child `node` is the
    /// page's one head, at index `at` as it was in this generation, and
    /// unchanged since.
    fn reusable_head(&self, live: &Document, at: usize, node: NodeId) -> bool {
        self.head.as_ref().is_some_and(|head| {
            head.at == at && head.subtree.node == node && live.stamp(node) <= self.epoch
        })
    }
}

/// The frozen inputs of one content generation, captured under exclusive
/// host access by [`prepare_generation`]. Self-contained: finishing the
/// job touches neither the host browser nor the agent, so it can run
/// after the host lock is released.
pub struct GenerationJob {
    /// Scratch document holding the clones (step 1).
    doc: Document,
    /// The documentElement's children, in order: cloned into `doc` (the
    /// body's entry is its element alone, without children), or the head
    /// copied from the base.
    top: Vec<SubtreeJob>,
    /// Where the head lies in `top`, on a page with one head and no
    /// frameset: only such a head is memoized.
    head_at: Option<usize>,
    /// The body's children, on a body page.
    body: Option<BodyJob>,
    /// The generation unchanged subtrees are copied from.
    base: Option<Arc<GeneratedContent>>,
    inputs: Inputs,
    epoch: u64,
    doc_time: u64,
    user_actions: String,
    /// Observer records frozen at capture time (small: one string pair
    /// per recorded download).
    observer: DownloadObserver,
    /// Wall-clock cost of the capture phase, carried into the final M5.
    prep_cost: SimDuration,
}

/// The body's top-level children in a [`GenerationJob`].
struct BodyJob {
    /// The body element's clone in the job's scratch document.
    element: NodeId,
    children: Vec<SubtreeJob>,
}

/// One top-level body child, or one child of the documentElement:
/// generated from a clone, or copied.
enum SubtreeJob {
    /// `clone` (in the scratch document) of live node `live`.
    Generate { live: NodeId, clone: NodeId },
    /// Body child `i` of the base generation; at the top level, the
    /// base's head (`i` is where it lies).
    Copy(usize),
}

impl GenerationJob {
    /// The document timestamp this job will embed.
    pub fn doc_time(&self) -> u64 {
        self.doc_time
    }

    /// The view of the host cache the job was captured with.
    pub fn cache(&self) -> &CacheView {
        &self.inputs.cache
    }
}

/// Phase 1 (requires exclusive host access, paper step 1): close the host
/// document's epoch, clone the body element and the head and every body
/// child that `base` (a generation of this agent, for the same mode)
/// cannot supply, and freeze every other generation input.
pub fn prepare_generation(
    host: &Browser,
    mode: CacheMode,
    path_prefix: &str,
    doc_time: u64,
    user_actions: String,
    base: Option<Arc<GeneratedContent>>,
) -> Result<GenerationJob> {
    let sw = Stopwatch::start();
    let live = host
        .doc
        .as_ref()
        .ok_or_else(|| RcbError::InvalidInput("host has no document loaded".into()))?;
    let page_url = host
        .url
        .as_ref()
        .ok_or_else(|| RcbError::InvalidInput("host has no page URL".into()))?
        .clone();
    let html_el = live
        .document_element()
        .ok_or_else(|| RcbError::InvalidInput("host document has no <html>".into()))?;
    let epoch = live.advance_epoch();
    let inputs = Inputs {
        doc: live.id(),
        page_url,
        observer: host.observer.change_token(),
        cache: host.cache.view(),
        mode,
        path_prefix: path_prefix.to_string(),
    };
    let base = base.filter(|b| b.memo.inputs.same_as(&inputs));
    let memo = base.as_deref().map(|b| &b.memo);

    // The body that step 5 writes, the last one, and the head, on a page
    // without a frameset that holds one head.
    let html_children = live.children(html_el);
    let (body_at, head_at) = if html_children
        .iter()
        .any(|&c| live.is_element(c, "frameset"))
    {
        (None, None)
    } else {
        let mut heads =
            (0..html_children.len()).filter(|&i| live.is_element(html_children[i], "head"));
        let head_at = heads.next().filter(|_| heads.next().is_none());
        let body_at = html_children
            .iter()
            .rposition(|&c| live.is_element(c, "body"));
        (body_at, head_at)
    };

    // Step 1: clone into a scratch document.
    let mut doc = Document::new();
    let mut top = Vec::with_capacity(html_children.len());
    let mut body = None;
    for (i, &child) in html_children.iter().enumerate() {
        if Some(i) == head_at && memo.is_some_and(|m| m.reusable_head(live, i, child)) {
            top.push(SubtreeJob::Copy(i));
            continue;
        }
        if Some(i) != body_at {
            let clone = doc.import_subtree(live, child);
            top.push(SubtreeJob::Generate { live: child, clone });
            continue;
        }
        let element = doc.create_element_with_attrs("body", live.attrs(child).to_vec());
        let mut cursor = 0;
        let mut reusable = |node| memo.and_then(|m| m.reusable_child(live, node, &mut cursor));
        let children = live
            .children(child)
            .iter()
            .map(|&node| match reusable(node) {
                Some(at) => SubtreeJob::Copy(at),
                None => SubtreeJob::Generate {
                    live: node,
                    clone: doc.import_subtree(live, node),
                },
            })
            .collect();
        top.push(SubtreeJob::Generate {
            live: child,
            clone: element,
        });
        body = Some(BodyJob { element, children });
    }

    Ok(GenerationJob {
        doc,
        top,
        head_at,
        body,
        base,
        inputs,
        epoch,
        doc_time,
        user_actions,
        observer: host.observer.clone(),
        prep_cost: sw.elapsed(),
    })
}

/// Generates response content from the host browser's current document
/// (both phases back to back, for callers that hold the host throughout),
/// with no base: every child is generated.
///
/// `user_actions` carries host-side action data (e.g. mouse-pointer
/// positions) to mirror to participants inside the `userActions` element.
pub fn generate_content(
    host: &Browser,
    mode: CacheMode,
    mapping: &Mutex<MappingTable>,
    key: &SessionKey,
    path_prefix: &str,
    doc_time: u64,
    user_actions: &str,
) -> Result<GeneratedContent> {
    let job = prepare_generation(
        host,
        mode,
        path_prefix,
        doc_time,
        user_actions.to_string(),
        None,
    )?;
    finish_generation(job, mapping, key)
}

/// One body child of the document being written: bytes in the raw
/// buffer to escape, or escaped bytes of the base's XML to copy.
enum Piece {
    Raw(Range<usize>),
    Escaped(Range<usize>),
}

/// Phase 2 (no host access, paper steps 2–5): rewrite the clones, copy
/// what the base supplies, and assemble the Fig.-4 XML. The mapping
/// table is the only shared state, locked just for step 3's key minting;
/// everything else runs on frozen captures.
pub fn finish_generation(
    job: GenerationJob,
    mapping: &Mutex<MappingTable>,
    key: &SessionKey,
) -> Result<GeneratedContent> {
    let sw = Stopwatch::start();
    let GenerationJob {
        mut doc,
        top,
        head_at,
        body,
        base,
        inputs,
        epoch,
        doc_time,
        user_actions,
        observer,
        prep_cost,
    } = job;
    let base = base.as_deref();
    let mut steps = Rewriter {
        observer: &observer,
        inputs: &inputs,
        key,
        mapping,
        rewrites: 0,
    };
    // Every subtree's object URLs, in document order: a subtree's are a
    // range of it, so the memo keeps them for a later copy.
    let mut urls: Vec<String> = Vec::new();
    let (mut head, mut head_reused) = (None, false);
    let mut head_children = Vec::new();
    let (mut frameset, mut noframes) = (None, None);
    let n = body.as_ref().map_or(0, |b| b.children.len());
    let (mut children, mut pieces) = (Vec::with_capacity(n), Vec::with_capacity(n));
    let mut raw = String::new();
    for (i, job) in top.iter().enumerate() {
        let (live, node) = match *job {
            SubtreeJob::Generate { live, clone } => (live, clone),
            SubtreeJob::Copy(_) => {
                let base = base.expect("a copy has a base");
                let memo = base.memo.head.as_ref().expect("a copied head is memoized");
                let subtree = steps.copy(&memo.subtree, &base.memo.urls, &mut urls);
                head = Some(HeadMemo { at: i, subtree });
                head_reused = true;
                continue;
            }
        };
        let subtree = steps.generate(&mut doc, live, node, &mut urls);
        match (&body, doc.tag(node)) {
            (Some(body), _) if body.element == node => {
                for child in &body.children {
                    children.push(match *child {
                        SubtreeJob::Generate { live, clone } => {
                            let subtree = steps.generate(&mut doc, live, clone, &mut urls);
                            let start = raw.len();
                            outer_html_into(&doc, clone, &mut raw);
                            pieces.push(Piece::Raw(start..raw.len()));
                            let splice = splice_child(&doc, clone);
                            ChildMemo { subtree, splice }
                        }
                        SubtreeJob::Copy(at) => {
                            let base = base.expect("a copy has a base");
                            let spans = base.sections.body_children.as_ref();
                            let span = spans.expect("a base with children").span(at..at + 1);
                            pieces.push(Piece::Escaped(span));
                            let memo = &base.memo.children[at];
                            let subtree = steps.copy(&memo.subtree, &base.memo.urls, &mut urls);
                            let splice = memo.splice;
                            ChildMemo { subtree, splice }
                        }
                    });
                }
            }
            (_, Some("head")) => {
                if Some(i) == head_at {
                    head = Some(HeadMemo { at: i, subtree });
                }
                for &hc in doc.children(node) {
                    if let NodeData::Element { tag, attrs } = doc.data(hc) {
                        head_children.push(ElementPayload {
                            tag: tag.clone(),
                            attrs: attrs.clone(),
                            inner_html: inner_html(&doc, hc),
                        });
                    }
                    // Stray text/comments in head are dropped, as the
                    // paper's per-child extraction implies.
                }
            }
            (_, Some("frameset")) => frameset = Some(payload_of(&doc, node)),
            (_, Some("noframes")) => noframes = Some(payload_of(&doc, node)),
            _ => {}
        }
    }

    // Step 5: XML assembly. Generated subtrees are escaped, copied ones
    // are the base's escaped bytes, so the next generation's deltas can
    // ship only the changed children.
    let head_parts = match base.filter(|_| head_reused) {
        Some(base) => HeadParts::Escaped(&base.xml[base.sections.head.clone()]),
        None => HeadParts::Payloads(&head_children),
    };
    let (xml, sections) = match (frameset, &body) {
        (Some(frameset), _) => {
            let frames = TopLevel::Frames { frameset, noframes };
            let top = TopParts::Whole(&frames);
            write_new_content_parts(doc_time, head_parts, top, &user_actions)
        }
        (None, Some(body)) => {
            let base_xml = base.map_or("", |b| &*b.xml);
            let pieces: Vec<BodyChild<'_>> = pieces
                .iter()
                .map(|piece| match piece {
                    Piece::Raw(r) => BodyChild::Raw(&raw[r.clone()]),
                    Piece::Escaped(r) => BodyChild::Escaped(&base_xml[r.clone()]),
                })
                .collect();
            let top = TopParts::Body {
                tag: doc.tag(body.element).unwrap_or("body"),
                attrs: doc.attrs(body.element),
                children: &pieces,
            };
            write_new_content_parts(doc_time, head_parts, top, &user_actions)
        }
        (None, None) => {
            return Err(RcbError::InvalidInput(
                "document has neither body nor frameset".into(),
            ))
        }
    };
    // M5 ends with the XML written; moving it into its shared buffer is
    // not generation.
    let generation_cost = prep_cost + sw.elapsed();
    let cache_rewrites = steps.rewrites;
    let children_reused = body.as_ref().map_or(0, |b| {
        b.children
            .iter()
            .filter(|c| matches!(c, SubtreeJob::Copy(_)))
            .count()
    });
    let mut by_node: Vec<(NodeId, u32)> = (0u32..)
        .zip(&children)
        .map(|(i, child)| (child.subtree.node, i))
        .collect();
    by_node.sort_unstable();
    let mut seen = HashSet::new();
    let object_urls = urls
        .iter()
        .filter(|url| seen.insert(url.as_str()))
        .cloned()
        .collect();
    Ok(GeneratedContent {
        xml: Arc::from(xml),
        sections,
        body_splice_safe: body.is_some() && children_splice_safe(children.iter().map(|c| c.splice)),
        doc_time,
        object_urls,
        cache_rewrites,
        generation_cost,
        children_reused,
        children_regenerated: children.len() - children_reused,
        head_reused,
        memo: ContentMemo {
            inputs,
            epoch,
            head,
            children,
            by_node,
            urls,
        },
    })
}

fn range(r: &Range<u32>) -> Range<usize> {
    r.start as usize..r.end as usize
}

/// Steps 2–4, one subtree at a time in document order. Every step acts on
/// each element alone, and step 4 names ids after the subtree's root, so
/// rewriting subtree by subtree gives what rewriting the whole document
/// step by step gives.
struct Rewriter<'a> {
    observer: &'a DownloadObserver,
    inputs: &'a Inputs,
    key: &'a SessionKey,
    mapping: &'a Mutex<MappingTable>,
    /// Cache rewrites so far, copied subtrees' included.
    rewrites: usize,
}

impl Rewriter<'_> {
    /// Steps 2–4 on `clone` (of live node `live`) and everything below
    /// it; appends the subtree's supplementary-object URLs to `urls`, in
    /// document order, and returns what it produced.
    fn generate(
        &mut self,
        doc: &mut Document,
        live: NodeId,
        clone: NodeId,
        urls: &mut Vec<String>,
    ) -> SubtreeMemo {
        let nodes = query::subtree_elements(doc, clone);
        rewrite_urls_absolute(doc, &nodes, self.observer, &self.inputs.page_url);
        let rewrites = match self.inputs.mode {
            CacheMode::Cache => rewrite_cached_to_agent(
                doc,
                &nodes,
                &self.inputs.cache,
                self.mapping,
                self.key,
                &self.inputs.path_prefix,
            ),
            CacheMode::NonCache => 0,
        };
        self.rewrites += rewrites;
        rewrite_event_attributes(doc, &nodes, live);
        let start = urls.len() as u32;
        let found = nodes
            .iter()
            .filter_map(|&n| query::supplementary_url(doc, n));
        urls.extend(found.map(str::to_string));
        SubtreeMemo {
            node: live,
            urls: start..urls.len() as u32,
            rewrites: rewrites as u32,
        }
    }

    /// Takes over what a base generation's subtree produced (`memo`, its
    /// URLs a range of `base_urls`) for a copy of its bytes, as
    /// [`Rewriter::generate`] would have produced it here.
    fn copy(
        &mut self,
        memo: &SubtreeMemo,
        base_urls: &[String],
        urls: &mut Vec<String>,
    ) -> SubtreeMemo {
        let start = urls.len() as u32;
        urls.extend_from_slice(&base_urls[range(&memo.urls)]);
        self.rewrites += memo.rewrites as usize;
        SubtreeMemo {
            urls: start..urls.len() as u32,
            ..memo.clone()
        }
    }
}

/// Step 2: make every URL-bearing attribute absolute, using the download
/// observer's records where available (paper: nsIObserverService).
fn rewrite_urls_absolute(
    doc: &mut Document,
    nodes: &[NodeId],
    observer: &DownloadObserver,
    page: &Url,
) {
    for &node in nodes {
        let Some((attr, raw)) = query::url_ref(doc, node) else {
            continue;
        };
        if Url::is_absolute(raw) || raw.starts_with('#') {
            continue;
        }
        if let Some(abs) = observer.resolve(page, raw) {
            doc.set_attr(node, attr, abs);
        }
    }
}

/// Step 3: rewrite supplementary objects that exist in the host cache to
/// agent-local `{prefix}/cache/{key}?k={token}` URLs (the prefix is `""`
/// outside a session router; the token covers the full prefixed path, so
/// object URLs are session-bound). Returns the rewrite count. The mapping
/// table is locked only to mint the keys, and only when there are any.
fn rewrite_cached_to_agent(
    doc: &mut Document,
    nodes: &[NodeId],
    cache: &CacheView,
    mapping: &Mutex<MappingTable>,
    key: &SessionKey,
    path_prefix: &str,
) -> usize {
    // Per-object mode flexibility (paper: "even allow different objects
    // on the same webpage to use different modes"): only rewrite what
    // the host cache can actually serve.
    let hits: Vec<(NodeId, &'static str, String)> = nodes
        .iter()
        .filter(|&&node| query::is_supplementary_ref(doc, node))
        .filter_map(|&node| {
            let attr = query::url_attribute(doc.tag(node)?)?;
            let abs = doc.get_attr(node, attr)?;
            cache.contains(abs).then(|| (node, attr, abs.to_string()))
        })
        .collect();
    if hits.is_empty() {
        return 0;
    }
    let keys: Vec<_> = {
        let mut m = mapping
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        hits.iter().map(|(_, _, abs)| m.key_for(abs)).collect()
    };
    for ((node, attr, _), cache_key) in hits.iter().zip(keys) {
        let path = format!("{path_prefix}{}", MappingTable::agent_path(cache_key));
        let token = object_token(key, &path);
        doc.set_attr(*node, attr, format!("{path}?k={token}"));
    }
    hits.len()
}

/// Whether step 4 hooks `tag`'s events, giving an element without an id
/// a synthetic one.
fn hooks_events(tag: &str) -> bool {
    matches!(tag, "form" | "a" | "button" | "input")
}

/// Step 4: event-attribute rewriting.
///
/// Forms gain a call to the snippet's submit hook prepended to `onsubmit`;
/// anchors and other clickables gain the click hook on `onclick`. Elements
/// without stable identifiers get a synthetic id so action messages can
/// name them (the paper relies on the DOM reference; a wire protocol needs
/// a name): the k-th id-less one among `nodes`, the subtree of live root
/// node `n`, is `rcb-{n}-{k}`, so no other subtree moves it.
fn rewrite_event_attributes(doc: &mut Document, nodes: &[NodeId], root: NodeId) {
    let mut k = 0;
    for &node in nodes {
        let Some(tag) = doc
            .tag(node)
            .filter(|t| hooks_events(t))
            .map(str::to_string)
        else {
            continue;
        };
        let id = ensure_identifier(doc, node, root, &mut k);
        match tag.as_str() {
            "form" => {
                let existing = doc.get_attr(node, "onsubmit").unwrap_or("").to_string();
                doc.set_attr(
                    node,
                    "onsubmit",
                    format!("return rcbSubmit('{id}');{existing}"),
                );
            }
            "input" => {
                let ty = doc
                    .get_attr(node, "type")
                    .unwrap_or("text")
                    .to_ascii_lowercase();
                if matches!(ty.as_str(), "submit" | "button" | "image") {
                    let existing = doc.get_attr(node, "onclick").unwrap_or("").to_string();
                    doc.set_attr(
                        node,
                        "onclick",
                        format!("return rcbClick('{id}');{existing}"),
                    );
                } else {
                    doc.set_attr(node, "onchange", format!("return rcbInput('{id}');"));
                }
            }
            _ => {
                let existing = doc.get_attr(node, "onclick").unwrap_or("").to_string();
                doc.set_attr(
                    node,
                    "onclick",
                    format!("return rcbClick('{id}');{existing}"),
                );
            }
        }
    }
}

fn ensure_identifier(doc: &mut Document, node: NodeId, root: NodeId, k: &mut u64) -> String {
    if let Some(id) = doc.get_attr(node, "id") {
        return id.to_string();
    }
    let id = format!("rcb-{}-{k}", root.0);
    *k += 1;
    doc.set_attr(node, "id", id.clone());
    id
}

fn payload_of(doc: &Document, node: NodeId) -> ElementPayload {
    let (tag, attrs) = match doc.data(node) {
        NodeData::Element { tag, attrs } => (tag.clone(), attrs.clone()),
        _ => (String::new(), Vec::new()),
    };
    ElementPayload {
        tag,
        attrs,
        inner_html: inner_html(doc, node),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcb_browser::BrowserKind;
    use rcb_origin::OriginRegistry;
    use rcb_sim::link::Pipe;
    use rcb_sim::profiles::NetProfile;
    use rcb_util::{DetRng, SimTime};

    fn key() -> SessionKey {
        SessionKey::generate_deterministic(&mut DetRng::new(1))
    }

    /// Loads a real synthetic site into a host browser.
    fn loaded_host(site: &str) -> Browser {
        let mut origins = OriginRegistry::with_alexa20();
        let profile = NetProfile::lan();
        let mut pipe = Pipe::new(profile.host_origin);
        let mut b = Browser::new(BrowserKind::Firefox);
        b.navigate(
            &Url::parse(&format!("http://{site}/")).unwrap(),
            &mut origins,
            &mut pipe,
            &profile,
            SimTime::ZERO,
        )
        .unwrap();
        b
    }

    #[test]
    fn generation_produces_parseable_figure4_xml() {
        let host = loaded_host("google.com");
        let mapping = Mutex::new(MappingTable::new());
        let gc =
            generate_content(&host, CacheMode::NonCache, &mapping, &key(), "", 1234, "").unwrap();
        let nc = rcb_xml::parse_new_content(&gc.xml).unwrap().unwrap();
        assert_eq!(nc.doc_time, 1234);
        assert!(!nc.head_children.is_empty());
        assert!(matches!(nc.top, TopLevel::Body(_)));
    }

    #[test]
    fn non_cache_mode_uses_absolute_origin_urls() {
        let host = loaded_host("apple.com");
        let mapping = Mutex::new(MappingTable::new());
        let gc = generate_content(&host, CacheMode::NonCache, &mapping, &key(), "", 1, "").unwrap();
        assert!(gc.cache_rewrites == 0);
        assert!(!gc.object_urls.is_empty());
        for u in &gc.object_urls {
            assert!(
                u.starts_with("http://apple.com/"),
                "expected absolute origin URL, got {u}"
            );
        }
        assert!(mapping.lock().unwrap().is_empty());
    }

    #[test]
    fn cache_mode_rewrites_to_agent_urls() {
        let host = loaded_host("apple.com");
        let mapping = Mutex::new(MappingTable::new());
        let gc = generate_content(&host, CacheMode::Cache, &mapping, &key(), "", 1, "").unwrap();
        assert!(gc.cache_rewrites > 0);
        assert_eq!(gc.cache_rewrites, mapping.lock().unwrap().len());
        for u in &gc.object_urls {
            assert!(u.starts_with("/cache/"), "expected agent URL, got {u}");
            assert!(u.contains("?k="), "expected object token in {u}");
        }
    }

    #[test]
    fn cache_mode_cost_exceeds_non_cache_cost() {
        // The Table-1 claim: "RCB-Agent needs more processing time in the
        // cache mode than in the non-cache mode" — extra lookups/rewrites.
        // Compare total work over several repetitions to squash noise.
        let host = loaded_host("amazon.com");
        let k = key();
        let mut nc_total = SimDuration::ZERO;
        let mut c_total = SimDuration::ZERO;
        for _ in 0..5 {
            let m1 = Mutex::new(MappingTable::new());
            nc_total += generate_content(&host, CacheMode::NonCache, &m1, &k, "", 1, "")
                .unwrap()
                .generation_cost;
            let m2 = Mutex::new(MappingTable::new());
            c_total += generate_content(&host, CacheMode::Cache, &m2, &k, "", 1, "")
                .unwrap()
                .generation_cost;
        }
        assert!(
            c_total > nc_total,
            "cache {} !> non-cache {}",
            c_total,
            nc_total
        );
    }

    #[test]
    fn event_attributes_rewritten_with_hooks() {
        let host = loaded_host("facebook.com");
        let mapping = Mutex::new(MappingTable::new());
        let gc = generate_content(&host, CacheMode::NonCache, &mapping, &key(), "", 1, "").unwrap();
        let nc = rcb_xml::parse_new_content(&gc.xml).unwrap().unwrap();
        let TopLevel::Body(body) = &nc.top else {
            panic!("expected body page")
        };
        assert!(body.inner_html.contains("rcbSubmit('"));
        assert!(body.inner_html.contains("rcbClick('"));
        // Original handlers preserved after the hook.
        assert!(body.inner_html.contains(");return track("));
    }

    #[test]
    fn generation_does_not_mutate_live_host_dom() {
        let host = loaded_host("live.com");
        let before = rcb_html::serialize::serialize_document(host.doc.as_ref().unwrap());
        let mapping = Mutex::new(MappingTable::new());
        generate_content(&host, CacheMode::Cache, &mapping, &key(), "", 1, "").unwrap();
        let after = rcb_html::serialize::serialize_document(host.doc.as_ref().unwrap());
        assert_eq!(before, after);
    }

    #[test]
    fn larger_documents_cost_more_to_generate() {
        let small = loaded_host("google.com"); // 6.8 KB
        let large = loaded_host("amazon.com"); // 228.5 KB
        let k = key();
        let mut total_small = SimDuration::ZERO;
        let mut total_large = SimDuration::ZERO;
        for _ in 0..5 {
            let m = Mutex::new(MappingTable::new());
            total_small += generate_content(&small, CacheMode::NonCache, &m, &k, "", 1, "")
                .unwrap()
                .generation_cost;
            let m = Mutex::new(MappingTable::new());
            total_large += generate_content(&large, CacheMode::NonCache, &m, &k, "", 1, "")
                .unwrap()
                .generation_cost;
        }
        assert!(total_large > total_small);
    }

    #[test]
    fn user_actions_carried_through() {
        let host = loaded_host("google.com");
        let mapping = Mutex::new(MappingTable::new());
        let gc = generate_content(
            &host,
            CacheMode::NonCache,
            &mapping,
            &key(),
            "",
            9,
            "mouse|10|20",
        )
        .unwrap();
        let nc = rcb_xml::parse_new_content(&gc.xml).unwrap().unwrap();
        assert_eq!(nc.user_actions, "mouse|10|20");
    }

    /// Generates `host` with `base` as the base on `mapping`, and checks
    /// it against a generation from scratch; returns it.
    fn generate_on(
        host: &Browser,
        mapping: &Mutex<MappingTable>,
        base: Option<Arc<GeneratedContent>>,
    ) -> Arc<GeneratedContent> {
        let job = prepare_generation(host, CacheMode::Cache, "", 1, String::new(), base).unwrap();
        let content = finish_generation(job, mapping, &key()).unwrap();
        let expected =
            generate_content(host, CacheMode::Cache, mapping, &key(), "", 1, "").unwrap();
        assert!(*content.xml == *expected.xml);
        assert_eq!(content.object_urls, expected.object_urls);
        assert_eq!(content.cache_rewrites, expected.cache_rewrites);
        Arc::new(content)
    }

    /// A head holding an id-less clickable names its ids after itself, so
    /// a clickable that lands before it leaves it to be copied.
    #[test]
    fn a_head_holding_a_clickable_is_copied_after_one_lands_before_it() {
        let mut host = loaded_host("google.com");
        let clickable = |doc: &mut Document, parent: NodeId| {
            let a = doc.create_element_with_attrs("a", vec![("href".into(), "/x".into())]);
            doc.append_child(parent, a).unwrap();
        };
        // A top-level element before the head, and an anchor in the head.
        let mut before = None;
        host.mutate_dom(|doc| {
            let html = doc.document_element().unwrap();
            let div = doc.create_element("div");
            doc.splice_children(html, 0, 0, vec![div]).unwrap();
            clickable(doc, doc.head().unwrap());
            before = Some(div);
        })
        .unwrap();
        let before = before.unwrap();
        let mapping = Mutex::new(MappingTable::new());
        let first = generate_on(&host, &mapping, None);
        let head = host.doc.as_ref().unwrap().head().unwrap();
        let head_id = format!("rcb-{}-0", head.0);
        let anchor_id = |content: &GeneratedContent| {
            let nc = rcb_xml::parse_new_content(&content.xml).unwrap().unwrap();
            let a = nc.head_children.iter().find(|c| c.tag == "a").unwrap();
            let id = a.attrs.iter().find(|(name, _)| name == "id").unwrap();
            id.1.clone()
        };
        assert_eq!(anchor_id(&first), head_id);
        host.mutate_dom(|doc| clickable(doc, before)).unwrap();
        let after = generate_on(&host, &mapping, Some(first));
        assert!(after.head_reused, "a clickable before the head");
        assert_eq!(anchor_id(&after), head_id);
    }

    #[test]
    fn errors_without_loaded_document() {
        let b = Browser::new(BrowserKind::Firefox);
        let mapping = Mutex::new(MappingTable::new());
        assert!(generate_content(&b, CacheMode::Cache, &mapping, &key(), "", 1, "").is_err());
    }
}
