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
//!   clone the documentElement and capture frozen inputs (page URL,
//!   observer records, host-action batch) into a self-contained
//!   [`GenerationJob`];
//! * [`finish_generation`] — steps 2–5 (URL rewriting, event rewriting,
//!   escaping, XML assembly) on the clone, **without** the host: the only
//!   shared state it touches is the URL↔key mapping table, locked briefly
//!   for step 3 only.
//!
//! [`generate_content`] runs both phases back to back for callers that
//! hold the host for the whole generation (the Table-1 measurements).

use std::sync::{Arc, Mutex};

use rcb_browser::{Browser, DownloadObserver};
use rcb_cache::{CacheView, MappingTable};
use rcb_crypto::SessionKey;
use rcb_html::dom::{Document, NodeData, NodeId};
use rcb_html::parser::is_splice_safe;
use rcb_html::serialize::inner_html_with_child_ends;
use rcb_html::{inner_html, query};
use rcb_url::Url;
use rcb_util::{RcbError, Result, SimDuration, Stopwatch};
use rcb_xml::{write_new_content_with_sections, ElementPayload, NewContent, Sections, TopLevel};

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
}

/// The frozen inputs of one content generation, captured under exclusive
/// host access by [`prepare_generation`]. Self-contained: finishing the
/// job touches neither the host browser nor the agent, so it can run
/// after the host lock is released.
pub struct GenerationJob {
    /// Scratch document holding the cloned documentElement (step 1).
    doc: Document,
    /// The cloned `<html>` node inside `doc`.
    clone: NodeId,
    page_url: Url,
    doc_time: u64,
    mode: CacheMode,
    user_actions: String,
    /// Observer records frozen at capture time (small: one string pair
    /// per recorded download).
    observer: DownloadObserver,
    /// Wall-clock cost of the capture phase, carried into the final M5.
    prep_cost: SimDuration,
}

impl GenerationJob {
    /// The document timestamp this job will embed.
    pub fn doc_time(&self) -> u64 {
        self.doc_time
    }
}

/// Phase 1 (requires exclusive host access, paper step 1): clone the
/// documentElement and freeze every other generation input.
pub fn prepare_generation(
    host: &Browser,
    mode: CacheMode,
    doc_time: u64,
    user_actions: String,
) -> Result<GenerationJob> {
    let sw = Stopwatch::start();
    let live_doc = host
        .doc
        .as_ref()
        .ok_or_else(|| RcbError::InvalidInput("host has no document loaded".into()))?;
    let page_url = host
        .url
        .as_ref()
        .ok_or_else(|| RcbError::InvalidInput("host has no page URL".into()))?
        .clone();
    let html_el = live_doc
        .document_element()
        .ok_or_else(|| RcbError::InvalidInput("host document has no <html>".into()))?;

    // Step 1: clone the documentElement into a scratch document.
    let mut doc = Document::new();
    let clone = doc.import_subtree(live_doc, html_el);
    let root = doc.root();
    doc.append_child(root, clone).expect("fresh scratch tree");

    Ok(GenerationJob {
        doc,
        clone,
        page_url,
        doc_time,
        mode,
        user_actions,
        observer: host.observer.clone(),
        prep_cost: sw.elapsed(),
    })
}

/// Phase 2 (no host access, paper steps 2–5): rewrite the clone and
/// assemble the Fig.-4 XML. `cache` is a view of the host cache frozen
/// alongside the job (the caller captures exactly one, under the same
/// lock as [`prepare_generation`], and reuses it for object resolution
/// afterwards). The mapping table is the only shared state, locked just
/// for step 3's rewrites; everything else runs on frozen captures.
pub fn finish_generation(
    job: GenerationJob,
    cache: &CacheView,
    mapping: &Mutex<MappingTable>,
    key: &SessionKey,
    path_prefix: &str,
) -> Result<GeneratedContent> {
    finish_impl(job, cache, MappingAccess::Shared(mapping), key, path_prefix)
}

/// Generates response content from the host browser's current document
/// (both phases back to back, for callers that hold the host throughout).
///
/// `user_actions` carries host-side action data (e.g. mouse-pointer
/// positions) to mirror to participants inside the `userActions` element.
pub fn generate_content(
    host: &Browser,
    mode: CacheMode,
    mapping: &mut MappingTable,
    key: &SessionKey,
    path_prefix: &str,
    doc_time: u64,
    user_actions: &str,
) -> Result<GeneratedContent> {
    let job = prepare_generation(host, mode, doc_time, user_actions.to_string())?;
    let cache = host.cache.view();
    finish_impl(
        job,
        &cache,
        MappingAccess::Exclusive(mapping),
        key,
        path_prefix,
    )
}

/// How phase 2 reaches the mapping table: exclusively borrowed (a caller
/// that holds the host throughout) or behind the shared leaf mutex (the
/// pipelined path).
enum MappingAccess<'a> {
    Exclusive(&'a mut MappingTable),
    Shared(&'a Mutex<MappingTable>),
}

fn finish_impl(
    job: GenerationJob,
    cache: &CacheView,
    mapping: MappingAccess<'_>,
    key: &SessionKey,
    path_prefix: &str,
) -> Result<GeneratedContent> {
    let sw = Stopwatch::start();
    let GenerationJob {
        mut doc,
        clone,
        page_url,
        doc_time,
        mode,
        user_actions,
        observer,
        prep_cost,
    } = job;

    // Step 2: relative → absolute URL conversion, using the download
    // observer's records where available (paper: nsIObserverService).
    rewrite_urls_absolute(&mut doc, clone, &observer, &page_url);

    // Step 3: cache mode — absolute → agent URLs for cached objects. Only
    // this step touches shared state; with `Shared` access the table lock
    // is held for the rewrite loop alone, never across escaping/assembly.
    let cache_rewrites = match mode {
        CacheMode::Cache => match mapping {
            MappingAccess::Exclusive(m) => {
                rewrite_cached_to_agent(&mut doc, clone, cache, m, key, path_prefix)
            }
            MappingAccess::Shared(mx) => {
                let mut m = mx.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                rewrite_cached_to_agent(&mut doc, clone, cache, &mut m, key, path_prefix)
            }
        },
        CacheMode::NonCache => 0,
    };

    // Step 4: event-attribute rewriting.
    rewrite_event_attributes(&mut doc, clone);

    // Step 5: XML assembly. The body's children are escaped one by one,
    // so the next generation's deltas can ship only the changed ones.
    let (head_children, top, body_children) = extract_payloads(&doc, clone)?;
    let object_urls = query::collect_supplementary_urls(&doc, clone);
    let nc = NewContent {
        doc_time,
        head_children,
        top,
        user_actions,
    };
    let (xml, sections) =
        write_new_content_with_sections(&nc, body_children.as_ref().map(|c| &c.ends[..]));
    // M5 ends with the XML written; moving it into its shared buffer is
    // not generation.
    let generation_cost = prep_cost + sw.elapsed();
    Ok(GeneratedContent {
        xml: Arc::from(xml),
        sections,
        body_splice_safe: body_children.is_some_and(|c| c.splice_safe),
        doc_time,
        object_urls,
        cache_rewrites,
        generation_cost,
    })
}

/// Step 2: make every URL-bearing attribute absolute.
fn rewrite_urls_absolute(
    doc: &mut Document,
    scope: NodeId,
    observer: &DownloadObserver,
    page: &Url,
) {
    let refs = query::collect_url_refs(doc, scope);
    for (node, attr, raw) in refs {
        if Url::is_absolute(&raw) || raw.starts_with('#') {
            continue;
        }
        if let Some(abs) = observer.resolve(page, &raw) {
            doc.set_attr(node, attr, abs);
        }
    }
}

/// Step 3: rewrite supplementary objects that exist in the host cache to
/// agent-local `{prefix}/cache/{key}?k={token}` URLs (the prefix is `""`
/// outside a session router; the token covers the full prefixed path, so
/// object URLs are session-bound). Returns the rewrite count.
fn rewrite_cached_to_agent(
    doc: &mut Document,
    scope: NodeId,
    cache: &CacheView,
    mapping: &mut MappingTable,
    key: &SessionKey,
    path_prefix: &str,
) -> usize {
    let mut rewrites = 0;
    for node in query::all_elements(doc, scope) {
        if !query::is_supplementary_ref(doc, node) {
            continue;
        }
        let Some(tag) = doc.tag(node) else { continue };
        let Some(attr) = query::url_attribute(tag) else {
            continue;
        };
        let Some(abs) = doc.get_attr(node, attr).map(str::to_string) else {
            continue;
        };
        // Per-object mode flexibility (paper: "even allow different objects
        // on the same webpage to use different modes"): only rewrite what
        // the host cache can actually serve.
        if !cache.contains(&abs) {
            continue;
        }
        let cache_key = mapping.key_for(&abs);
        let path = format!("{path_prefix}{}", MappingTable::agent_path(cache_key));
        let token = object_token(key, &path);
        doc.set_attr(node, attr, format!("{path}?k={token}"));
        rewrites += 1;
    }
    rewrites
}

/// Step 4: event-attribute rewriting.
///
/// Forms gain a call to the snippet's submit hook prepended to `onsubmit`;
/// anchors and other clickables gain the click hook on `onclick`. Elements
/// without stable identifiers get a synthetic `rcb-id` so action messages
/// can name them (the paper relies on the DOM reference; a wire protocol
/// needs a name).
fn rewrite_event_attributes(doc: &mut Document, scope: NodeId) {
    let mut counter = 0u64;
    for node in query::all_elements(doc, scope) {
        let Some(tag) = doc.tag(node).map(str::to_string) else {
            continue;
        };
        match tag.as_str() {
            "form" => {
                let id = ensure_identifier(doc, node, &mut counter);
                let existing = doc.get_attr(node, "onsubmit").unwrap_or("").to_string();
                doc.set_attr(
                    node,
                    "onsubmit",
                    format!("return rcbSubmit('{id}');{existing}"),
                );
            }
            "a" | "button" => {
                let id = ensure_identifier(doc, node, &mut counter);
                let existing = doc.get_attr(node, "onclick").unwrap_or("").to_string();
                doc.set_attr(
                    node,
                    "onclick",
                    format!("return rcbClick('{id}');{existing}"),
                );
            }
            "input" => {
                let ty = doc
                    .get_attr(node, "type")
                    .unwrap_or("text")
                    .to_ascii_lowercase();
                if matches!(ty.as_str(), "submit" | "button" | "image") {
                    let id = ensure_identifier(doc, node, &mut counter);
                    let existing = doc.get_attr(node, "onclick").unwrap_or("").to_string();
                    doc.set_attr(
                        node,
                        "onclick",
                        format!("return rcbClick('{id}');{existing}"),
                    );
                } else {
                    let id = ensure_identifier(doc, node, &mut counter);
                    doc.set_attr(node, "onchange", format!("return rcbInput('{id}');"));
                }
            }
            _ => {}
        }
    }
}

fn ensure_identifier(doc: &mut Document, node: NodeId, counter: &mut u64) -> String {
    if let Some(id) = doc.get_attr(node, "id") {
        return id.to_string();
    }
    let id = format!("rcb-el-{counter}");
    *counter += 1;
    doc.set_attr(node, "id", id.clone());
    id
}

/// Where a body payload's top-level children end in its innerHTML, and
/// whether a participant re-parses them one for one.
struct BodyChildEnds {
    ends: Vec<usize>,
    splice_safe: bool,
}

/// Step 5: extract per-element payloads in DOM order, with the body's
/// child boundaries on a body page.
fn extract_payloads(
    doc: &Document,
    html_el: NodeId,
) -> Result<(Vec<ElementPayload>, TopLevel, Option<BodyChildEnds>)> {
    let mut head_children = Vec::new();
    let mut body: Option<(ElementPayload, BodyChildEnds)> = None;
    let mut frameset: Option<ElementPayload> = None;
    let mut noframes: Option<ElementPayload> = None;
    for &child in doc.children(html_el) {
        let Some(tag) = doc.tag(child) else { continue };
        match tag {
            "head" => {
                for &hc in doc.children(child) {
                    if let NodeData::Element { tag, attrs } = doc.data(hc) {
                        head_children.push(ElementPayload {
                            tag: tag.clone(),
                            attrs: attrs.clone(),
                            inner_html: inner_html(doc, hc),
                        });
                    }
                    // Stray text/comments in head are dropped, as the
                    // paper's per-child extraction implies.
                }
            }
            "body" => {
                let (tag, attrs) = tag_and_attrs(doc, child);
                let (inner_html, ends) = inner_html_with_child_ends(doc, child);
                let splice_safe = is_splice_safe(doc, child);
                body = Some((
                    ElementPayload {
                        tag,
                        attrs,
                        inner_html,
                    },
                    BodyChildEnds { ends, splice_safe },
                ));
            }
            "frameset" => frameset = Some(payload_of(doc, child)),
            "noframes" => noframes = Some(payload_of(doc, child)),
            _ => {}
        }
    }
    let (top, body_children) = if let Some(fs) = frameset {
        let frames = TopLevel::Frames {
            frameset: fs,
            noframes,
        };
        (frames, None)
    } else if let Some((b, children)) = body {
        (TopLevel::Body(b), Some(children))
    } else {
        return Err(RcbError::InvalidInput(
            "document has neither body nor frameset".into(),
        ));
    };
    Ok((head_children, top, body_children))
}

fn tag_and_attrs(doc: &Document, node: NodeId) -> (String, Vec<(String, String)>) {
    match doc.data(node) {
        NodeData::Element { tag, attrs } => (tag.clone(), attrs.clone()),
        _ => (String::new(), Vec::new()),
    }
}

fn payload_of(doc: &Document, node: NodeId) -> ElementPayload {
    let (tag, attrs) = tag_and_attrs(doc, node);
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
        let mut mapping = MappingTable::new();
        let gc = generate_content(
            &host,
            CacheMode::NonCache,
            &mut mapping,
            &key(),
            "",
            1234,
            "",
        )
        .unwrap();
        let nc = rcb_xml::parse_new_content(&gc.xml).unwrap().unwrap();
        assert_eq!(nc.doc_time, 1234);
        assert!(!nc.head_children.is_empty());
        assert!(matches!(nc.top, TopLevel::Body(_)));
    }

    #[test]
    fn non_cache_mode_uses_absolute_origin_urls() {
        let host = loaded_host("apple.com");
        let mut mapping = MappingTable::new();
        let gc =
            generate_content(&host, CacheMode::NonCache, &mut mapping, &key(), "", 1, "").unwrap();
        assert!(gc.cache_rewrites == 0);
        assert!(!gc.object_urls.is_empty());
        for u in &gc.object_urls {
            assert!(
                u.starts_with("http://apple.com/"),
                "expected absolute origin URL, got {u}"
            );
        }
        assert!(mapping.is_empty());
    }

    #[test]
    fn cache_mode_rewrites_to_agent_urls() {
        let host = loaded_host("apple.com");
        let mut mapping = MappingTable::new();
        let gc =
            generate_content(&host, CacheMode::Cache, &mut mapping, &key(), "", 1, "").unwrap();
        assert!(gc.cache_rewrites > 0);
        assert_eq!(gc.cache_rewrites, mapping.len());
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
            let mut m1 = MappingTable::new();
            nc_total += generate_content(&host, CacheMode::NonCache, &mut m1, &k, "", 1, "")
                .unwrap()
                .generation_cost;
            let mut m2 = MappingTable::new();
            c_total += generate_content(&host, CacheMode::Cache, &mut m2, &k, "", 1, "")
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
        let mut mapping = MappingTable::new();
        let gc =
            generate_content(&host, CacheMode::NonCache, &mut mapping, &key(), "", 1, "").unwrap();
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
        let mut mapping = MappingTable::new();
        generate_content(&host, CacheMode::Cache, &mut mapping, &key(), "", 1, "").unwrap();
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
            let mut m = MappingTable::new();
            total_small += generate_content(&small, CacheMode::NonCache, &mut m, &k, "", 1, "")
                .unwrap()
                .generation_cost;
            let mut m = MappingTable::new();
            total_large += generate_content(&large, CacheMode::NonCache, &mut m, &k, "", 1, "")
                .unwrap()
                .generation_cost;
        }
        assert!(total_large > total_small);
    }

    #[test]
    fn user_actions_carried_through() {
        let host = loaded_host("google.com");
        let mut mapping = MappingTable::new();
        let gc = generate_content(
            &host,
            CacheMode::NonCache,
            &mut mapping,
            &key(),
            "",
            9,
            "mouse|10|20",
        )
        .unwrap();
        let nc = rcb_xml::parse_new_content(&gc.xml).unwrap().unwrap();
        assert_eq!(nc.user_actions, "mouse|10|20");
    }

    #[test]
    fn errors_without_loaded_document() {
        let b = Browser::new(BrowserKind::Firefox);
        let mut mapping = MappingTable::new();
        assert!(generate_content(&b, CacheMode::Cache, &mut mapping, &key(), "", 1, "").is_err());
    }
}
