//! Ajax-Snippet: the participant-side poller (paper §4.2).
//!
//! The snippet lives in the head of whatever document is currently shown
//! on the participant browser ("it always keeps itself as a `<script>`
//! child element within the head element of any current document"). It
//! does two things:
//!
//! * **request sending** (§4.2.1): POST polling requests whose bodies
//!   piggyback the participant's pending actions, with the content
//!   timestamp of the current page and an HMAC on the request-URI;
//! * **response processing** (§4.2.2, Fig. 5): on "no new content",
//!   schedule the next poll; otherwise run the four-step smooth update —
//!   (1) clean the head keeping the snippet, (2) set head children from
//!   the payloads (Firefox: innerHTML assignment; IE: DOM construction),
//!   (3) remove stale top-level elements (body ↔ frameset switches),
//!   (4) set the new top-level content — then poll again.
//!
//! The wall-clock cost of one content update is the paper's **M6**.

use std::fmt::Write as _;

use rcb_browser::{Browser, BrowserKind, UserAction};
use rcb_crypto::SessionKey;
use rcb_html::dom::{Document, NodeId};
use rcb_html::parser::{parse_fragment_into, splice_inner_html};
use rcb_http::message::utf8_lossy;
use rcb_http::{parse_batch_parts, Request, Response, BATCH_MEDIA_TYPE};
use rcb_util::{Histogram, RcbError, Result, SimDuration, SimTime, Stopwatch};
use rcb_xml::{parse_poll_payload, DeltaContent, DeltaTop, ElementPayload, PollPayload, TopLevel};

use crate::agent::build_poll_body;
use crate::auth::sign_request;

/// Outcome of processing one polling response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnippetOutcome {
    /// Empty response: nothing changed on the host; poll again later.
    NoNewContent,
    /// The page was updated to the given content timestamp.
    Updated {
        /// New content timestamp now acknowledged by this snippet.
        doc_time: u64,
        /// Supplementary-object URLs the browser must now fetch
        /// (agent-relative in cache mode, absolute otherwise).
        object_urls: Vec<String>,
        /// Host-side actions mirrored to this participant (mouse moves).
        host_actions: Vec<UserAction>,
    },
}

/// Ajax-Snippet state for one participant.
pub struct AjaxSnippet {
    /// Participant id carried in the `p` query parameter.
    pub participant_id: u64,
    key: SessionKey,
    /// Timestamp of the content currently displayed.
    pub doc_time: u64,
    /// Actions captured since the last poll (drained into the next one).
    pending: Vec<UserAction>,
    /// Poll interval (the paper used one second).
    pub poll_interval: SimDuration,
    /// Wall-clock costs of content updates (the paper's M6 samples), the
    /// most recent [`SAMPLE_LOG`](crate::agent::SAMPLE_LOG) of them.
    pub m6: Histogram,
    /// Updates applied.
    pub updates_applied: u64,
    /// Polls sent.
    pub polls_sent: u64,
    /// Require a valid `X-RCB-MAC` on every successful response (the
    /// §3.4 future-work extension; pairs with
    /// `AgentConfig::authenticate_responses`).
    pub require_response_auth: bool,
    /// When set, every poll asks the agent to *park* it for up to this
    /// long instead of answering an up-to-date poll immediately (the
    /// `lp=<ms>` query parameter; the agent caps the wait at its own
    /// `park_timeout`). Converts the protocol's per-interval cost into a
    /// per-change cost: the reply arrives when content changes, not on
    /// the next interval tick. `None` (the default) keeps the paper's
    /// plain interval polling.
    pub long_poll: Option<SimDuration>,
    /// When set, every poll advertises delta capability (the `d=1` query
    /// parameter, MAC-covered like `lp=`): a woken long-poll may then be
    /// answered with a `deltaContent` document — or a
    /// `multipart/x-rcb-batch` reply inlining new cache objects — instead
    /// of the full Fig.-4 XML. The agent falls back to full XML whenever
    /// the acked generation has left its delta ring, so enabling this is
    /// always safe. `false` (the default) keeps the legacy protocol.
    pub delta: bool,
    /// Delta replies applied (a subset of `updates_applied`).
    pub deltas_applied: u64,
    /// Path prefix every poll target lives under — `""` for the classic
    /// single-session deployment, `"/s/{sid}"` when the session sits
    /// behind a router. Part of the signed request-URI, so the session id
    /// is covered by the poll HMAC like every other parameter.
    pub base_path: String,
}

impl AjaxSnippet {
    /// Creates a snippet with the shared session key.
    pub fn new(participant_id: u64, key: SessionKey, poll_interval: SimDuration) -> AjaxSnippet {
        AjaxSnippet {
            participant_id,
            key,
            doc_time: 0,
            pending: Vec::new(),
            poll_interval,
            m6: Histogram::recent(crate::agent::SAMPLE_LOG),
            updates_applied: 0,
            polls_sent: 0,
            require_response_auth: false,
            long_poll: None,
            delta: false,
            deltas_applied: 0,
            base_path: String::new(),
        }
    }

    /// Captures a user action for piggybacking on the next poll.
    pub fn capture_action(&mut self, action: UserAction) {
        self.pending.push(action);
    }

    /// Number of actions waiting to be piggybacked.
    pub fn pending_actions(&self) -> usize {
        self.pending.len()
    }

    /// Builds the next signed polling request, draining pending actions
    /// (§4.2.1: POST method so action data rides in the body;
    /// `Content-Length` is set by the request constructor).
    pub fn build_poll(&mut self) -> Request {
        self.polls_sent += 1;
        let actions = std::mem::take(&mut self.pending);
        let body = build_poll_body(self.doc_time, &actions);
        // The `lp` and `d` parameters ride in the request-URI *before*
        // signing, so the requested park duration and the delta
        // capability are covered by the HMAC like the participant id.
        let mut target = format!("{}/poll?p={}", self.base_path, self.participant_id);
        if let Some(wait) = self.long_poll {
            let _ = write!(target, "&lp={}", wait.as_millis().max(1));
        }
        if self.delta {
            target.push_str("&d=1");
        }
        let mut req = Request::post(target, body);
        sign_request(&self.key, &mut req);
        req
    }

    /// Processes a polling response against the participant browser
    /// (Fig. 5). Returns what happened; on `Updated` the caller is
    /// responsible for fetching the returned object URLs.
    pub fn process_response(
        &mut self,
        resp: &Response,
        browser: &mut Browser,
    ) -> Result<SnippetOutcome> {
        if !resp.status.is_success() {
            return Err(RcbError::Protocol(format!(
                "poll failed with status {}",
                resp.status.0
            )));
        }
        if self.require_response_auth && !crate::auth::verify_response(&self.key, resp) {
            return Err(RcbError::Auth("response MAC missing or invalid".into()));
        }
        // A batch reply carries the poll payload as its first part and
        // inlines new cache objects as further parts: unpack it, store the
        // objects, and process the payload exactly like a plain reply. The
        // payload is parsed where it lies, not copied out first.
        let first;
        let (body, inlined) = if resp.content_type().as_deref() == Some(BATCH_MEDIA_TYPE) {
            let mut parts = parse_batch_parts(resp.body.as_slice())?;
            first = parts.remove(0);
            (first.data.as_slice(), parts)
        } else {
            (resp.body.as_slice(), Vec::new())
        };
        let Some(payload) = parse_poll_payload(&utf8_lossy(body))? else {
            return Ok(SnippetOutcome::NoNewContent);
        };
        // Inlined objects go into the browser cache *before* the update is
        // applied, so the caller's object-fetch pass sees them as already
        // present and issues no follow-up round trips for them.
        for part in inlined {
            if let Some(url) = &part.url {
                browser
                    .cache
                    .store(url, &part.content_type, part.data, SimTime::ZERO);
            }
        }
        match payload {
            PollPayload::Full(nc) => {
                let (doc_time, object_urls) = self.apply_update(browser, |doc, kind| {
                    apply_new_content(doc, kind, &nc.head_children, &nc.top)?;
                    Ok(nc.doc_time)
                })?;
                Ok(SnippetOutcome::Updated {
                    doc_time,
                    object_urls,
                    host_actions: UserAction::decode_batch(&nc.user_actions).unwrap_or_default(),
                })
            }
            PollPayload::Delta(dc) => self.apply_delta(dc, browser),
        }
    }

    /// Applies a delta reply. The base-generation guard makes deltas safe
    /// against any server/client disagreement: a delta whose base is not
    /// the content this snippet currently shows is dropped as "no new
    /// content", and the next poll's stale timestamp makes the agent
    /// answer with the full document — clean recovery, never a mix of two
    /// generations. A body splice has a second guard, checked before
    /// anything is applied: the body must hold exactly the `of` children
    /// the splice was computed against; a mismatch is dropped the same
    /// way.
    fn apply_delta(&mut self, dc: DeltaContent, browser: &mut Browser) -> Result<SnippetOutcome> {
        if dc.from_doc_time != self.doc_time {
            return Ok(SnippetOutcome::NoNewContent);
        }
        if let Some(DeltaTop::BodySplice(splice)) = &dc.top {
            let children = browser
                .doc
                .as_ref()
                .and_then(|d| Some(d.children(d.body()?).len()));
            if children != Some(splice.of) {
                return Ok(SnippetOutcome::NoNewContent);
            }
        }
        let (doc_time, object_urls) = self.apply_update(browser, |doc, kind| {
            if let Some(head_children) = &dc.head_children {
                apply_head_children(doc, kind, head_children)?;
            }
            match &dc.top {
                Some(DeltaTop::Whole(top)) => apply_top_level(doc, top)?,
                Some(DeltaTop::BodySplice(splice)) => {
                    let body = doc.body().expect("guarded above");
                    splice_inner_html(doc, body, splice.at, splice.drop, &splice.inner_html)?;
                }
                None => {}
            }
            Ok(dc.doc_time)
        })?;
        self.deltas_applied += 1;
        Ok(SnippetOutcome::Updated {
            doc_time,
            object_urls,
            host_actions: UserAction::decode_batch(&dc.user_actions).unwrap_or_default(),
        })
    }

    /// Shared update bookkeeping: runs `apply` against the participant
    /// DOM under the M6 stopwatch, advances `doc_time`, and collects the
    /// supplementary URLs of the updated document.
    fn apply_update(
        &mut self,
        browser: &mut Browser,
        apply: impl FnOnce(&mut Document, BrowserKind) -> Result<u64>,
    ) -> Result<(u64, Vec<String>)> {
        let sw = Stopwatch::start();
        let kind = browser.kind;
        let doc = browser
            .doc
            .as_mut()
            .ok_or_else(|| RcbError::InvalidInput("participant has no document".into()))?;
        let doc_time = apply(doc, kind)?;
        let object_urls = {
            let d = browser.doc.as_ref().expect("document still loaded");
            rcb_html::query::collect_supplementary_urls(d, d.root())
        };
        self.m6.record(sw.elapsed());
        self.updates_applied += 1;
        self.doc_time = doc_time;
        Ok((doc_time, object_urls))
    }
}

/// The four-step smooth update of Fig. 5, applied to a participant DOM:
/// steps 1–2 ([`apply_head_children`]) then 3–4 ([`apply_top_level`]).
pub fn apply_new_content(
    doc: &mut Document,
    kind: BrowserKind,
    head_children: &[ElementPayload],
    top: &TopLevel,
) -> Result<()> {
    apply_head_children(doc, kind, head_children)?;
    apply_top_level(doc, top)
}

/// Fig.-5 steps 1–2: clean the head (keeping Ajax-Snippet) and append
/// the new head children per browser capability. Also the delta path's
/// head-component apply, which is why it stands alone.
pub fn apply_head_children(
    doc: &mut Document,
    kind: BrowserKind,
    head_children: &[ElementPayload],
) -> Result<()> {
    let html = doc
        .document_element()
        .ok_or_else(|| RcbError::InvalidInput("participant document has no <html>".into()))?;
    let head = match doc.head() {
        Some(h) => h,
        None => {
            let h = doc.create_element("head");
            doc.append_child(html, h)?;
            h
        }
    };

    // Step 1: clean the head, keeping only Ajax-Snippet.
    let snippet_node = find_snippet(doc, head);
    let children: Vec<NodeId> = doc.children(head).to_vec();
    for child in children {
        if Some(child) != snippet_node {
            doc.remove(child);
        }
    }

    // Step 2: append the new head children, per browser capability.
    for payload in head_children {
        if is_snippet_payload(payload) {
            continue; // never duplicate the snippet
        }
        let el = doc.create_element_with_attrs(&payload.tag, payload.attrs.clone());
        doc.append_child(head, el)?;
        match kind {
            BrowserKind::Firefox => {
                // Firefox path: head innerHTML is writable — one shot.
                rcb_html::parser::set_inner_html(doc, el, &payload.inner_html);
            }
            BrowserKind::InternetExplorer => {
                // IE path: construct children with DOM methods. For style
                // (innerHTML read-only even on the element) install a
                // single text node, as createTextNode+appendChild would.
                if payload.tag == "style" || payload.tag == "script" {
                    let text = doc.create_text(payload.inner_html.clone());
                    doc.append_child(el, text)?;
                } else {
                    let staging = doc.create_element("div");
                    let created = parse_fragment_into(doc, staging, &payload.inner_html);
                    for c in created {
                        doc.append_child(el, c)?;
                    }
                    doc.remove(staging);
                }
            }
        }
    }
    Ok(())
}

/// Fig.-5 steps 3–4: remove stale top-level elements (body ↔ frameset
/// switches) and set the new top-level content. Also the delta path's
/// top-component apply.
pub fn apply_top_level(doc: &mut Document, top: &TopLevel) -> Result<()> {
    let html = doc
        .document_element()
        .ok_or_else(|| RcbError::InvalidInput("participant document has no <html>".into()))?;

    // Step 3: clean up stale top-level elements.
    let top_level: Vec<NodeId> = doc.children(html).to_vec();
    for child in top_level {
        let Some(tag) = doc.tag(child) else { continue };
        let stale = match top {
            TopLevel::Body(_) => matches!(tag, "frameset" | "noframes"),
            TopLevel::Frames { .. } => tag == "body",
        };
        if stale {
            doc.remove(child);
        }
    }

    // Step 4: set the new top-level content.
    match top {
        TopLevel::Body(body) => {
            set_top_element(doc, html, "body", body)?;
        }
        TopLevel::Frames { frameset, noframes } => {
            set_top_element(doc, html, "frameset", frameset)?;
            if let Some(nf) = noframes {
                set_top_element(doc, html, "noframes", nf)?;
            }
        }
    }
    Ok(())
}

/// Finds the snippet script element (`id="ajax-snippet"`) in the head.
fn find_snippet(doc: &Document, head: NodeId) -> Option<NodeId> {
    doc.children(head)
        .iter()
        .copied()
        .find(|&c| doc.is_element(c, "script") && doc.get_attr(c, "id") == Some("ajax-snippet"))
}

fn is_snippet_payload(p: &ElementPayload) -> bool {
    p.tag == "script"
        && p.attrs
            .iter()
            .any(|(k, v)| k == "id" && v == "ajax-snippet")
}

/// Replaces (or creates) the named top-level element under `<html>` and
/// fills it from the payload.
fn set_top_element(
    doc: &mut Document,
    html: NodeId,
    tag: &str,
    payload: &ElementPayload,
) -> Result<()> {
    let existing = doc
        .children(html)
        .iter()
        .copied()
        .find(|&c| doc.is_element(c, tag));
    let el = match existing {
        Some(el) => {
            // Refresh attributes: drop then re-add.
            let names: Vec<String> = doc.attrs(el).iter().map(|(n, _)| n.clone()).collect();
            for n in names {
                doc.remove_attr(el, &n);
            }
            el
        }
        None => {
            let el = doc.create_element(tag);
            doc.append_child(html, el)?;
            el
        }
    };
    for (n, v) in &payload.attrs {
        doc.set_attr(el, n, v.clone());
    }
    rcb_html::parser::set_inner_html(doc, el, &payload.inner_html);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcb_html::parse_document;
    use rcb_util::DetRng;

    fn key() -> SessionKey {
        SessionKey::generate_deterministic(&mut DetRng::new(11))
    }

    fn initial_participant_doc() -> Document {
        parse_document(
            "<html><head><script id=\"ajax-snippet\">/*rcb*/</script>\
             <title>RCB co-browsing session</title></head>\
             <body><div id=\"rcb-status\">waiting</div></body></html>",
        )
    }

    fn payload(tag: &str, attrs: &[(&str, &str)], inner: &str) -> ElementPayload {
        ElementPayload {
            tag: tag.into(),
            attrs: attrs
                .iter()
                .map(|(a, b)| (a.to_string(), b.to_string()))
                .collect(),
            inner_html: inner.into(),
        }
    }

    #[test]
    fn poll_requests_are_signed_posts_with_timestamp() {
        let mut s = AjaxSnippet::new(3, key(), SimDuration::from_secs(1));
        s.doc_time = 42;
        s.capture_action(UserAction::MouseMove { x: 1, y: 2 });
        let req = s.build_poll();
        assert_eq!(req.method, rcb_http::Method::Post);
        assert!(req.target.starts_with("/poll?p=3"));
        assert!(req.target.contains("hmac="));
        let body = String::from_utf8(req.body.clone()).unwrap();
        assert!(body.starts_with("t=42"));
        assert!(body.contains("mouse|1|2"));
        assert_eq!(s.pending_actions(), 0, "pending drained");
        assert!(crate::auth::verify_request(&key(), &req));
    }

    #[test]
    fn long_poll_parameter_rides_the_signed_uri() {
        let mut s = AjaxSnippet::new(3, key(), SimDuration::from_secs(1));
        s.long_poll = Some(SimDuration::from_millis(2500));
        let req = s.build_poll();
        assert!(req.target.starts_with("/poll?p=3&lp=2500"));
        assert!(
            crate::auth::verify_request(&key(), &req),
            "lp must be MAC-covered"
        );
        // Sub-millisecond waits still request a nonzero park.
        s.long_poll = Some(SimDuration::from_micros(10));
        assert!(s.build_poll().target.contains("&lp=1"));
    }

    #[test]
    fn delta_parameter_rides_the_signed_uri() {
        let mut s = AjaxSnippet::new(3, key(), SimDuration::from_secs(1));
        s.delta = true;
        let req = s.build_poll();
        assert!(req.target.starts_with("/poll?p=3&d=1"));
        assert!(
            crate::auth::verify_request(&key(), &req),
            "d must be MAC-covered"
        );
        // Composes with long-poll: both parameters, both covered.
        s.long_poll = Some(SimDuration::from_millis(2500));
        let req = s.build_poll();
        assert!(req.target.starts_with("/poll?p=3&lp=2500&d=1"));
        assert!(crate::auth::verify_request(&key(), &req));
    }

    #[test]
    fn delta_reply_updates_only_the_shipped_components() {
        use rcb_xml::write_delta_content;
        let mut browser = Browser::new(BrowserKind::Firefox);
        browser.doc = Some(initial_participant_doc());
        let mut s = AjaxSnippet::new(1, key(), SimDuration::from_secs(1));
        s.doc_time = 10;
        // Top-only delta: head (snippet + title) must survive untouched.
        let dc = DeltaContent {
            doc_time: 11,
            from_doc_time: 10,
            head_children: None,
            top: Some(DeltaTop::Whole(TopLevel::Body(payload(
                "body",
                &[],
                "<p>delta v11</p>",
            )))),
            user_actions: String::new(),
        };
        let resp = Response::xml(write_delta_content(&dc));
        let out = s.process_response(&resp, &mut browser).unwrap();
        assert!(matches!(out, SnippetOutcome::Updated { doc_time: 11, .. }));
        assert_eq!(s.doc_time, 11);
        assert_eq!(s.deltas_applied, 1);
        assert_eq!(s.updates_applied, 1);
        let doc = browser.doc.as_ref().unwrap();
        assert_eq!(doc.text_content(doc.body().unwrap()), "delta v11");
        let head = doc.head().unwrap();
        assert_eq!(
            doc.children(head).len(),
            2,
            "head untouched by top-only delta"
        );

        // Head-only delta: body stays.
        let dc = DeltaContent {
            doc_time: 12,
            from_doc_time: 11,
            head_children: Some(vec![payload("title", &[], "new title")]),
            top: None,
            user_actions: String::new(),
        };
        let out = s
            .process_response(&Response::xml(write_delta_content(&dc)), &mut browser)
            .unwrap();
        assert!(matches!(out, SnippetOutcome::Updated { doc_time: 12, .. }));
        let doc = browser.doc.as_ref().unwrap();
        assert_eq!(doc.text_content(doc.body().unwrap()), "delta v11");
        assert_eq!(s.deltas_applied, 2);
    }

    #[test]
    fn stale_base_delta_is_dropped_not_misapplied() {
        use rcb_xml::write_delta_content;
        let mut browser = Browser::new(BrowserKind::Firefox);
        browser.doc = Some(initial_participant_doc());
        let mut s = AjaxSnippet::new(1, key(), SimDuration::from_secs(1));
        s.doc_time = 10;
        let dc = DeltaContent {
            doc_time: 12,
            from_doc_time: 11, // we hold 10, not 11
            head_children: None,
            top: Some(DeltaTop::Whole(TopLevel::Body(payload(
                "body",
                &[],
                "<p>wrong</p>",
            )))),
            user_actions: String::new(),
        };
        let out = s
            .process_response(&Response::xml(write_delta_content(&dc)), &mut browser)
            .unwrap();
        assert_eq!(out, SnippetOutcome::NoNewContent);
        assert_eq!(
            s.doc_time, 10,
            "timestamp unchanged: next poll recovers in full"
        );
        assert_eq!(s.deltas_applied, 0);
        let doc = browser.doc.as_ref().unwrap();
        assert_ne!(doc.text_content(doc.body().unwrap()), "wrong");
    }

    /// A participant showing generation 10 of a three-child body.
    fn synced_participant() -> (AjaxSnippet, Browser) {
        let mut browser = Browser::new(BrowserKind::Firefox);
        browser.doc = Some(initial_participant_doc());
        let mut s = AjaxSnippet::new(1, key(), SimDuration::from_secs(1));
        s.delta = true;
        let nc = rcb_xml::NewContent {
            doc_time: 10,
            head_children: vec![payload("title", &[], "t")],
            top: TopLevel::Body(payload("body", &[], "<p>a</p>b<i>c</i>")),
            user_actions: String::new(),
        };
        let full = Response::xml(rcb_xml::write_new_content(&nc));
        s.process_response(&full, &mut browser).unwrap();
        (s, browser)
    }

    /// Every update replaces the head's and the body's children; the
    /// replaced nodes are removed for good, so a participant's arena
    /// holds its document, not every document it has shown.
    #[test]
    fn replaced_nodes_do_not_accumulate_in_the_participant_dom() {
        for kind in [BrowserKind::Firefox, BrowserKind::InternetExplorer] {
            let mut browser = Browser::new(kind);
            browser.doc = Some(initial_participant_doc());
            let mut s = AjaxSnippet::new(1, key(), SimDuration::from_secs(1));
            let mut slots = Vec::new();
            for t in 1..=40u64 {
                let nc = rcb_xml::NewContent {
                    doc_time: t,
                    head_children: vec![payload("title", &[], &format!("t{t}"))],
                    top: TopLevel::Body(payload("body", &[], "<p>a<b>b</b></p>c<i>d</i>")),
                    user_actions: String::new(),
                };
                let full = Response::xml(rcb_xml::write_new_content(&nc));
                s.process_response(&full, &mut browser).unwrap();
                let splice = splice_reply(1, 1, 3, "<u>e</u>").body_str().replace(
                    "<fromDocTime>10</fromDocTime>",
                    &format!("<fromDocTime>{t}</fromDocTime>"),
                );
                let _ = s.process_response(&Response::xml(splice), &mut browser);
                slots.push(browser.doc.as_ref().unwrap().node_count());
            }
            assert_eq!(slots[39], slots[1], "{kind:?}: {slots:?}");
        }
    }

    fn splice_reply(at: usize, drop: usize, of: usize, inner: &str) -> Response {
        Response::xml(rcb_xml::write_delta_content(&DeltaContent {
            doc_time: 11,
            from_doc_time: 10,
            head_children: Some(vec![payload("title", &[], "spliced")]),
            top: Some(DeltaTop::BodySplice(rcb_xml::BodySplice {
                at,
                drop,
                of,
                inner_html: inner.into(),
            })),
            user_actions: String::new(),
        }))
    }

    #[test]
    fn a_body_splice_replaces_only_the_named_children() {
        let (mut s, mut browser) = synced_participant();
        let doc = browser.doc.as_ref().unwrap();
        let kept: Vec<NodeId> = doc.children(doc.body().unwrap()).to_vec();
        let out = s
            .process_response(&splice_reply(1, 1, 3, "<b>B</b><u>U</u>"), &mut browser)
            .unwrap();
        assert!(matches!(out, SnippetOutcome::Updated { doc_time: 11, .. }));
        assert_eq!(s.deltas_applied, 1);
        let doc = browser.doc.as_ref().unwrap();
        let body = doc.body().unwrap();
        assert_eq!(
            rcb_html::inner_html(doc, body),
            "<p>a</p><b>B</b><u>U</u><i>c</i>"
        );
        // The children outside the run are the very nodes it had.
        let now = doc.children(body);
        assert_eq!((now[0], now[3]), (kept[0], kept[2]));
        assert_eq!(doc.text_content(doc.head().unwrap()), "/*rcb*/spliced");
    }

    #[test]
    fn a_splice_that_does_not_fit_the_body_is_dropped() {
        let (mut s, mut browser) = synced_participant();
        let before = rcb_html::serialize::serialize_document(browser.doc.as_ref().unwrap());
        let out = s
            .process_response(&splice_reply(0, 1, 4, "<b>B</b>"), &mut browser)
            .unwrap();
        assert_eq!(out, SnippetOutcome::NoNewContent);
        assert_eq!(s.doc_time, 10);
        assert_eq!(s.deltas_applied, 0);
        // Nothing was applied, not even the head the delta carried.
        let after = rcb_html::serialize::serialize_document(browser.doc.as_ref().unwrap());
        assert_eq!(before, after);
        // The next poll carries the old timestamp, which the agent answers
        // with the full document.
        assert!(s.build_poll().body.starts_with(b"t=10"));
    }

    #[test]
    fn batch_reply_caches_inlined_objects_and_applies_the_delta() {
        use rcb_http::BATCH_CONTENT_TYPE;
        use rcb_xml::write_delta_content;
        let mut browser = Browser::new(BrowserKind::Firefox);
        browser.doc = Some(initial_participant_doc());
        let mut s = AjaxSnippet::new(1, key(), SimDuration::from_secs(1));
        s.doc_time = 5;
        let dc = DeltaContent {
            doc_time: 6,
            from_doc_time: 5,
            head_children: None,
            top: Some(DeltaTop::Whole(TopLevel::Body(payload(
                "body",
                &[],
                "<img src=\"/cache/3?k=tok\">",
            )))),
            user_actions: String::new(),
        };
        let xml = write_delta_content(&dc);
        let obj: &[u8] = b"\x89PNG binary \x00 bytes";
        let mut body = Vec::new();
        body.extend_from_slice(
            format!(
                "--rcb-batch\r\nContent-Type: application/xml; charset=utf-8\r\nContent-Length: {}\r\n\r\n",
                xml.len()
            )
            .as_bytes(),
        );
        body.extend_from_slice(xml.as_bytes());
        body.extend_from_slice(b"\r\n");
        body.extend_from_slice(
            format!(
                "--rcb-batch\r\nContent-Type: image/png\r\nContent-Length: {}\r\nX-RCB-Url: /cache/3?k=tok\r\n\r\n",
                obj.len()
            )
            .as_bytes(),
        );
        body.extend_from_slice(obj);
        body.extend_from_slice(b"\r\n--rcb-batch--\r\n");
        let resp = Response::with_body(
            rcb_http::Status::OK,
            BATCH_CONTENT_TYPE,
            rcb_http::Body::Owned(body),
        );
        let out = s.process_response(&resp, &mut browser).unwrap();
        match out {
            SnippetOutcome::Updated {
                doc_time,
                object_urls,
                ..
            } => {
                assert_eq!(doc_time, 6);
                assert_eq!(object_urls, vec!["/cache/3?k=tok".to_string()]);
            }
            other => panic!("expected update, got {other:?}"),
        }
        // The inlined object is already cached: no follow-up fetch needed.
        assert!(browser.cache.contains("/cache/3?k=tok"));
        let entry = browser.cache.lookup("/cache/3?k=tok").unwrap();
        assert_eq!(entry.data.as_ref(), obj);
        assert_eq!(entry.content_type, "image/png");
        assert_eq!(s.deltas_applied, 1);
    }

    #[test]
    fn head_update_keeps_snippet_firefox_and_ie() {
        for kind in [BrowserKind::Firefox, BrowserKind::InternetExplorer] {
            let mut doc = initial_participant_doc();
            let heads = vec![
                payload("title", &[], "cnn.com — home"),
                payload("style", &[("type", "text/css")], "body{color:red}"),
            ];
            let top = TopLevel::Body(payload("body", &[("class", "home")], "<p>news</p>"));
            apply_new_content(&mut doc, kind, &heads, &top).unwrap();
            let head = doc.head().unwrap();
            let tags: Vec<&str> = doc
                .children(head)
                .iter()
                .filter_map(|&c| doc.tag(c))
                .collect();
            assert_eq!(tags, vec!["script", "title", "style"], "kind {kind:?}");
            let snippet = doc.children(head)[0];
            assert_eq!(doc.get_attr(snippet, "id"), Some("ajax-snippet"));
            let body = doc.body().unwrap();
            assert_eq!(doc.get_attr(body, "class"), Some("home"));
            assert_eq!(doc.text_content(body), "news");
        }
    }

    #[test]
    fn body_to_frameset_switch() {
        let mut doc = initial_participant_doc();
        let top = TopLevel::Frames {
            frameset: payload(
                "frameset",
                &[("cols", "50%,50%")],
                "<frame src=\"/a\"><frame src=\"/b\">",
            ),
            noframes: Some(payload("noframes", &[], "frames needed")),
        };
        apply_new_content(&mut doc, BrowserKind::Firefox, &[], &top).unwrap();
        assert!(doc.body().is_none(), "stale body removed");
        let fs = doc.frameset().unwrap();
        assert_eq!(doc.get_attr(fs, "cols"), Some("50%,50%"));
        // And back to a body page.
        let top2 = TopLevel::Body(payload("body", &[], "<p>back</p>"));
        apply_new_content(&mut doc, BrowserKind::Firefox, &[], &top2).unwrap();
        assert!(doc.frameset().is_none());
        assert_eq!(doc.text_content(doc.body().unwrap()), "back");
    }

    #[test]
    fn repeated_updates_converge_to_latest_content() {
        let mut doc = initial_participant_doc();
        for i in 0..5 {
            let top = TopLevel::Body(payload("body", &[], &format!("<p>v{i}</p>")));
            apply_new_content(
                &mut doc,
                BrowserKind::Firefox,
                &[payload("title", &[], &format!("page v{i}"))],
                &top,
            )
            .unwrap();
        }
        assert_eq!(doc.text_content(doc.body().unwrap()), "v4");
        let head = doc.head().unwrap();
        // One snippet plus one title — no accumulation across updates.
        assert_eq!(doc.children(head).len(), 2);
    }

    #[test]
    fn snippet_payload_from_agent_is_not_duplicated() {
        let mut doc = initial_participant_doc();
        let heads = vec![
            payload("script", &[("id", "ajax-snippet")], "/*rcb*/"),
            payload("title", &[], "t"),
        ];
        let top = TopLevel::Body(payload("body", &[], ""));
        apply_new_content(&mut doc, BrowserKind::Firefox, &heads, &top).unwrap();
        let head = doc.head().unwrap();
        let snippets = doc
            .children(head)
            .iter()
            .filter(|&&c| doc.get_attr(c, "id") == Some("ajax-snippet"))
            .count();
        assert_eq!(snippets, 1);
    }

    #[test]
    fn ie_path_constructs_equivalent_dom() {
        let heads = vec![payload("style", &[], ".x{color:blue}")];
        let top = TopLevel::Body(payload(
            "body",
            &[],
            "<div id=\"a\"><b>rich</b> content</div>",
        ));
        let mut ff_doc = initial_participant_doc();
        apply_new_content(&mut ff_doc, BrowserKind::Firefox, &heads, &top).unwrap();
        let mut ie_doc = initial_participant_doc();
        apply_new_content(&mut ie_doc, BrowserKind::InternetExplorer, &heads, &top).unwrap();
        // Both paths must render identical body content.
        let ff_body = rcb_html::inner_html(&ff_doc, ff_doc.body().unwrap());
        let ie_body = rcb_html::inner_html(&ie_doc, ie_doc.body().unwrap());
        assert_eq!(ff_body, ie_body);
        let ff_head = rcb_html::inner_html(&ff_doc, ff_doc.head().unwrap());
        let ie_head = rcb_html::inner_html(&ie_doc, ie_doc.head().unwrap());
        assert_eq!(ff_head, ie_head);
    }

    #[test]
    fn process_response_full_cycle() {
        use rcb_xml::{write_new_content, NewContent};
        let mut browser = Browser::new(BrowserKind::Firefox);
        browser.doc = Some(initial_participant_doc());
        let mut s = AjaxSnippet::new(1, key(), SimDuration::from_secs(1));

        // Empty response → NoNewContent.
        let out = s
            .process_response(&Response::empty_ok(), &mut browser)
            .unwrap();
        assert_eq!(out, SnippetOutcome::NoNewContent);

        // Real content → Updated with object URLs and host actions.
        let nc = NewContent {
            doc_time: 99,
            head_children: vec![payload("title", &[], "shop")],
            top: TopLevel::Body(payload(
                "body",
                &[],
                "<img src=\"http://shop/a.png\"><p>hi</p>",
            )),
            user_actions: "mouse|4|5".into(),
        };
        let resp = Response::xml(write_new_content(&nc));
        let out = s.process_response(&resp, &mut browser).unwrap();
        match out {
            SnippetOutcome::Updated {
                doc_time,
                object_urls,
                host_actions,
            } => {
                assert_eq!(doc_time, 99);
                assert_eq!(object_urls, vec!["http://shop/a.png".to_string()]);
                assert_eq!(host_actions, vec![UserAction::MouseMove { x: 4, y: 5 }]);
            }
            other => panic!("expected update, got {other:?}"),
        }
        assert_eq!(s.doc_time, 99);
        assert_eq!(s.updates_applied, 1);
        assert_eq!(s.m6.len(), 1);

        // Error statuses are surfaced.
        let err = s.process_response(
            &Response::error(rcb_http::Status::UNAUTHORIZED, "bad mac"),
            &mut browser,
        );
        assert!(err.is_err());
    }
}
