//! Immutable content snapshots: the contention-free, zero-copy read path.
//!
//! The paper's scalability pitch (§5.1.2) is that one host browser serves a
//! whole co-browsing session; that only holds if the hot read path —
//! Ajax polls and `/cache/{key}` object requests, which every participant
//! issues once per second — does not serialize on host-side state. A
//! [`ContentSnapshot`] makes that path lock-free in the data-structure
//! sense: it is a frozen view of everything a read-only request needs,
//! published as an `Arc` behind an `RwLock<Arc<ContentSnapshot>>`:
//!
//! * the **document timestamp** for timestamp inspection (Fig. 2's
//!   "compare the participant's content timestamp");
//! * the generated **Fig.-4 XML** for the agent's configured cache mode
//!   ("the generated XML format response content is reusable for multiple
//!   participant browsers", §4.1.2), held as the body of a **prefab** poll
//!   response: its head (status line + headers, pre-signed when response
//!   authentication is on) is serialized once at snapshot build time, the
//!   XML is its shared body, and every participant's content poll is
//!   answered by cloning the prefab, which bumps `Arc`s — zero bytes are
//!   heap-copied per request, and the XML's one copy is shared with the
//!   agent's newest generation;
//! * every supplementary object the content (and its immediate
//!   predecessor) references, each likewise a prefab response whose body
//!   *is* the host browser cache entry's `Arc`, resolved through a
//!   [`MappingView`] so `/cache/{key}` requests never touch the live
//!   mapping table or host browser cache.
//!
//! # Pipelined regeneration
//!
//! Building a snapshot is split in two so the write path's critical
//! section shrinks to the DOM clone:
//!
//! * [`ContentSnapshot::plan`] — runs **under the host mutex**: mints the
//!   document timestamp and, given the agent's newest generation as its
//!   base, clones the body element and only the head and body children
//!   changed since that generation ([`prepare_generation`]), freezing a
//!   view of the cache alongside. Proportional to what changed, never to
//!   the serialized content.
//! * [`SnapshotPlan::finish`] — runs **with no locks held**: URL
//!   rewriting, event rewriting, escaping, XML assembly (copying the
//!   base's bytes for the head and every body child left unchanged),
//!   object resolution, the delta ring, and freezing the prefab heads.
//!   The mapping table is the only shared state it touches (a leaf
//!   mutex, locked briefly, and not at all when the predecessor's object
//!   table is shared).
//!
//! # Delta ring
//!
//! Each snapshot also freezes up to [`DELTA_RING`] delta replies, one per
//! recent predecessor generation, for polls that advertised `d=1`. The XML
//! writer reports the byte range of each section it wrote (`docHead`, the
//! top-level block, `userActions`) and of each top-level body child, and
//! `finish` works on those bytes alone: a section changed when its bytes
//! differ from the predecessor's, and a delta is the `deltaContent`
//! framing around the changed sections, copied verbatim. A changed body
//! ships as a *splice* when it can: only the children between the common
//! prefix and the common suffix of the base's children and this
//! generation's (compared byte for byte), inside a `docBodySplice`
//! element that names the run it replaces. The server never parses its
//! own output back or re-escapes a payload to build a delta.
//!
//! The caller publishes the finished snapshot with a single pointer swap
//! under the snapshot write lock, discarding it if a newer DOM version was
//! published in the meantime.
//!
//! **Memory bound:** a snapshot carries the objects of at most two
//! generations — its own plus the live keys of the snapshot it replaced —
//! so a participant mid-flight on the previous content version can still
//! fetch its objects while agent memory stays constant no matter how many
//! DOM versions a session produces (the agent itself keeps one
//! generation: its newest).
//!
//! **Shared object table:** a generation that references the same objects
//! as its predecessor, in the same cache view, shares the predecessor's
//! table (an `Arc`) instead of resolving it again — when that table holds
//! only the predecessor's own live keys, so sharing it keeps the
//! two-generation bound. A body edit that leaves every object alone
//! resolves none.
//!
//! **Lock ordering** (documented here because this module sits at the
//! center of it): `host mutex → snapshot write lock`. The host mutex is
//! taken first (plan), content is generated with no lock held (finish),
//! and the write lock is taken last, only for the pointer swap.
//! Participant-shard locks and the mapping-table mutex are leaves: never
//! held while acquiring anything else.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, Mutex};

use rcb_browser::Browser;
use rcb_cache::{CacheKey, CacheView, MappingTable, MappingView};
use rcb_crypto::SessionKey;
use rcb_http::{Body, Response, Status};
use rcb_util::{Result, SimTime};

use rcb_xml::{Sections, TopCopy};

use crate::agent::{CacheMode, RcbAgent};
use crate::content::{finish_generation, prepare_generation, GeneratedContent, GenerationJob};

/// Number of predecessor generations the delta ring covers: a woken
/// long-poll whose acked `dom_version` is at most this many generations
/// behind receives a delta instead of the full Fig.-4 XML. Small on
/// purpose — each slot freezes one prefab delta reply, so the ring adds a
/// bounded constant to per-snapshot memory, and a participant further
/// behind than this has effectively missed the session's cadence anyway
/// (the negotiated fallback sends it the full document).
pub const DELTA_RING: usize = 3;

pub use rcb_http::{BATCH_BOUNDARY, BATCH_CONTENT_TYPE, BATCH_MEDIA_TYPE};

/// One servable delta in the ring: everything needed to answer a woken
/// poll whose acked generation is `from_dom_version`. Its reply is the
/// `deltaContent` framing around the sections (or the body children) that
/// changed since that base, copied verbatim from this generation's XML
/// when the snapshot is built; serving it copies no bytes.
#[derive(Debug)]
struct DeltaSlot {
    /// The acked generation this delta upgrades from.
    from_dom_version: u64,
    /// That generation's document timestamp (the client-side guard: a
    /// participant applies a delta only when its own `doc_time` matches).
    from_doc_time: u64,
    /// Whether the head component changed across the span: its section
    /// bytes differed in at least one step. Conservative: accumulated by
    /// OR while the slot is carried forward, so a changed-then-reverted
    /// component re-ships (idempotent), never skips.
    head_changed: bool,
    /// Whether the top-level (body/frameset) component changed.
    top_changed: bool,
    /// How the base's body children line up with this generation's; `None`
    /// when the base body is not splice-safe, or some step of the span
    /// cannot be lined up (a frameset page, or a change of the body
    /// element's own attributes).
    body_span: Option<BodySpan>,
    /// Live cache keys of the base generation — objects the participant
    /// already holds, excluded from the batched reply.
    from_live_keys: Vec<CacheKey>,
    /// Prefab reply: plain delta XML, or a [`BATCH_CONTENT_TYPE`]
    /// multipart when new objects are inlined.
    response: Response,
}

/// How a base generation's top-level body children line up with a later
/// generation's: the base has `of` children, its first `prefix` are byte
/// for byte the later body's first `prefix`, and its last `suffix` the
/// later body's last `suffix`. Each run is the longest found on its own,
/// so the two may overlap: an unchanged body is `prefix == suffix == of`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BodySpan {
    of: usize,
    prefix: usize,
    suffix: usize,
}

impl BodySpan {
    /// The span over two steps, base → middle (`self`) then middle →
    /// end: the smaller prefix and suffix, since a run kept by both steps
    /// is kept across them. An unchanged step narrows nothing.
    fn then(self, step: BodySpan) -> BodySpan {
        BodySpan {
            of: self.of,
            prefix: self.prefix.min(step.prefix),
            suffix: self.suffix.min(step.suffix),
        }
    }

    /// The splice that turns the base's children into a body of `len`
    /// children: it keeps the prefix and the part of the suffix that does
    /// not overlap it (both runs lie within both bodies).
    fn splice(self, len: usize) -> TopCopy {
        let suffix = self.suffix.min(self.of.min(len) - self.prefix);
        TopCopy::BodySplice {
            at: self.prefix,
            drop: self.of - self.prefix - suffix,
            of: self.of,
        }
    }
}

/// A frozen, shareable view of one content generation (see module docs).
#[derive(Debug)]
pub struct ContentSnapshot {
    /// The host DOM version this snapshot was generated from.
    pub dom_version: u64,
    /// The document timestamp embedded in the XML.
    pub doc_time: u64,
    /// The content-bearing poll response, frozen: its body is the
    /// serialized Fig.-4 XML, UTF-8.
    poll_response: Response,
    /// Cache keys referenced by *this* generation's content.
    live_keys: Vec<CacheKey>,
    /// Servable objects, frozen responses whose bodies are the host cache
    /// entries: this generation's plus the predecessor's live set
    /// (two-generation bound). Shared with the predecessor when nothing
    /// it would resolve changed (see the module docs).
    objects: Arc<HashMap<CacheKey, Response>>,
    /// Whether `objects` holds keys beyond `live_keys`, carried from the
    /// predecessor: a successor must not share such a table.
    objects_carried: bool,
    /// The view of the host cache `objects` was resolved in.
    cache: CacheView,
    /// Where each section of the XML, and each top-level body child, lies.
    /// The *next* generation compares its head, top and body-child bytes
    /// against these to decide what its deltas must carry.
    sections: Sections,
    /// Whether a participant re-parses this body's children one for one,
    /// so a delta from this generation may splice them.
    body_splice_safe: bool,
    /// Deltas from up to [`DELTA_RING`] predecessor generations to this
    /// one, newest base first.
    delta_ring: Vec<DeltaSlot>,
}

/// Everything a snapshot build needs after the host mutex is released: a
/// prepared generation job plus the frozen inputs for object resolution
/// and prefab assembly.
pub struct SnapshotPlan {
    dom_version: u64,
    doc_time: u64,
    mode: CacheMode,
    /// Generation steps 2–5 still to run (outside any lock).
    job: Box<GenerationJob>,
    mapping: Arc<Mutex<MappingTable>>,
    key: SessionKey,
    /// The session path prefix object URLs are minted under (see
    /// [`crate::agent::AgentConfig::path_prefix`]); stripped again when
    /// mapping generated URLs back to cache keys.
    path_prefix: String,
    sign: bool,
}

impl ContentSnapshot {
    /// Phase 1, **under the host mutex**: mint the document timestamp,
    /// clone what the agent's newest generation cannot supply (the head,
    /// the body element, changed body children), freeze the cache view
    /// and generation inputs. Everything expensive is deferred to
    /// [`SnapshotPlan::finish`]. Minting the timestamp marks the version
    /// planned in the agent; a plan that fails un-plans it.
    pub fn plan(agent: &mut RcbAgent, host: &Browser, now: SimTime) -> Result<SnapshotPlan> {
        let mode = agent.config.cache_mode;
        let dom_version = host.dom_version();
        let doc_time = agent.current_doc_time(host, now);
        let user_actions = agent.take_host_actions();
        let base = agent.newest_content(mode);
        let path_prefix = &agent.config.path_prefix;
        let job = prepare_generation(host, mode, path_prefix, doc_time, user_actions, base)
            .inspect_err(|_| agent.unplan(dom_version))?;
        Ok(SnapshotPlan {
            dom_version,
            doc_time,
            mode,
            job: Box::new(job),
            mapping: Arc::clone(agent.mapping()),
            key: agent.key().clone(),
            path_prefix: agent.config.path_prefix.clone(),
            sign: agent.config.authenticate_responses,
        })
    }

    /// Builds a snapshot of the host's current DOM version in one go
    /// (plan + finish + cache admission) — for callers that already hold
    /// exclusive host access end to end, such as a session host's build.
    /// `prev` is the snapshot being replaced; its live generation's
    /// objects are carried forward so participants still applying the
    /// previous content can fetch them.
    pub fn build(
        agent: &mut RcbAgent,
        host: &Browser,
        now: SimTime,
        prev: Option<&ContentSnapshot>,
    ) -> Result<Arc<ContentSnapshot>> {
        let mode = agent.config.cache_mode;
        let plan = Self::plan(agent, host, now)?;
        let (snap, generated) = plan.finish(prev)?;
        if let Some(content) = generated {
            agent.admit_generated(snap.dom_version, mode, content);
        }
        Ok(snap)
    }

    /// The snapshot of a host that has loaded no page yet: no content
    /// (`doc_time` 0, so every poll is up to date and answered empty), no
    /// objects, and no generation run.
    pub(crate) fn empty(dom_version: u64) -> Arc<ContentSnapshot> {
        Arc::new(ContentSnapshot {
            dom_version,
            doc_time: 0,
            poll_response: Response::with_body(Status::OK, "application/xml", Vec::new()),
            live_keys: Vec::new(),
            objects: Arc::default(),
            objects_carried: false,
            cache: CacheView::default(),
            sections: Sections {
                head: 0..0,
                top: 0..0,
                user_actions: 0..0,
                body_children: None,
            },
            body_splice_safe: false,
            delta_ring: Vec::new(),
        })
    }

    /// The serialized Fig.-4 XML: the poll response's body.
    pub fn xml(&self) -> &str {
        std::str::from_utf8(&self.poll_response.body).expect("generated XML is UTF-8")
    }

    /// The ready-to-send content poll response: a clone of the prefab —
    /// the head was serialized once at build time and the body is shared,
    /// so this copies pointers, not bytes.
    pub fn poll_response(&self) -> Response {
        self.poll_response.clone()
    }

    /// The frozen response for a servable object, by cache key. Its body
    /// is the host cache entry's `Arc`; serving a clone copies no bytes.
    pub fn object(&self, key: CacheKey) -> Option<&Response> {
        self.objects.get(&key)
    }

    /// Number of objects this snapshot can serve (current + predecessor).
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Number of objects referenced by the live generation alone.
    pub fn live_object_count(&self) -> usize {
        self.live_keys.len()
    }

    /// The ready-to-send delta reply for a participant whose acked
    /// generation is `acked_dom_version`, when that base is still in the
    /// ring: a prefab clone (zero bytes copied), either plain delta XML or
    /// a [`BATCH_CONTENT_TYPE`] multipart inlining the objects the base
    /// generation did not reference. `None` on a ring miss — the caller
    /// falls back to [`ContentSnapshot::poll_response`].
    pub fn delta_response_for(&self, acked_dom_version: u64) -> Option<Response> {
        self.delta_ring
            .iter()
            .find(|s| s.from_dom_version == acked_dom_version)
            .map(|s| s.response.clone())
    }

    /// Number of delta slots currently in the ring (≤ [`DELTA_RING`]).
    pub fn delta_ring_len(&self) -> usize {
        self.delta_ring.len()
    }

    /// The bytes of one section of this snapshot's XML.
    fn section(&self, range: &Range<usize>) -> &[u8] {
        &self.poll_response.body[range.clone()]
    }
}

impl SnapshotPlan {
    /// Phase 2, **no locks held**: run the deferred generation, resolve
    /// object bytes from the frozen cache view, and freeze the prefab
    /// replies and the delta ring against `prev`. Returns the snapshot
    /// plus the generated content, always `Some`, for the caller to admit
    /// as the agent's newest generation under the host mutex,
    /// where the next plan finds it as its base.
    pub fn finish(
        self,
        prev: Option<&ContentSnapshot>,
    ) -> Result<(Arc<ContentSnapshot>, Option<Arc<GeneratedContent>>)> {
        let cache = self.job.cache().clone();
        let content = Arc::new(finish_generation(*self.job, &self.mapping, &self.key)?);

        // Live keys: the agent-relative object URLs of this generation,
        // mapped back to cache keys (`/cache/{key}?k={token}`). Non-cache
        // mode leaves absolute URLs, which parse to no key — the snapshot
        // then carries no objects, as participants fetch from origins.
        // `minted_urls` keeps the exact agent URL (token included) each key
        // was minted under — the URL participants cache objects by, stamped
        // on inlined batch parts so the receiver stores them addressably.
        let mut minted_urls: HashMap<CacheKey, &str> = HashMap::new();
        let live_keys: Vec<CacheKey> = content
            .object_urls
            .iter()
            .filter_map(|u| {
                let path = u.split('?').next().unwrap_or(u);
                let local = path.strip_prefix(self.path_prefix.as_str()).unwrap_or(path);
                let key = MappingTable::parse_agent_path(local)?;
                minted_urls.insert(key, u.as_str());
                Some(key)
            })
            .collect();
        // The predecessor's table, when this generation would resolve the
        // same one: the same live keys (the mapping never rebinds a key)
        // in the same cache view, and nothing carried beyond them.
        let shared = prev.filter(|prev| {
            !prev.objects_carried && prev.live_keys == live_keys && prev.cache.same_view(&cache)
        });
        let (objects, objects_carried) = match shared {
            Some(prev) => (Arc::clone(&prev.objects), false),
            None => {
                let sign_with = self.sign.then_some(&self.key);
                let (objects, carried) =
                    resolve_objects(&self.mapping, sign_with, &live_keys, &cache, prev);
                (Arc::new(objects), carried)
            }
        };

        // Freeze the poll reply: every participant's content poll for this
        // generation is byte-identical, so its head is serialized exactly
        // once, and its body is the generation's one copy of the XML, the
        // allocation the agent's newest generation holds too.
        let poll_response = prefab_response(
            Status::OK,
            "application/xml; charset=utf-8",
            Arc::<[u8]>::from(Arc::clone(&content.xml)),
            self.sign.then_some(&self.key),
        );

        // Delta ring: one prefab delta per surviving predecessor base, each
        // the deltaContent framing around this generation's changed
        // sections, copied verbatim from the XML just written. A section
        // changed in this step when its bytes differ from the
        // predecessor's: escaping is injective and the framing fixed, so
        // equal bytes mean equal payloads. The same holds per body child.
        let sections = content.sections.clone();
        let mut delta_ring = Vec::new();
        if let Some(prev) = prev {
            let xml = content.xml.as_bytes();
            let step_head = prev.section(&prev.sections.head) != &xml[sections.head.clone()];
            let step_top = prev.section(&prev.sections.top) != &xml[sections.top.clone()];
            let step_span = body_step(prev, xml, &sections);
            // Candidate bases: the predecessor itself, then every base its
            // ring still covered, with changed flags OR-accumulated and
            // body spans narrowed across the new step. Strictly older than
            // this generation.
            let mut bases: Vec<Base<'_>> = Vec::new();
            if prev.dom_version < self.dom_version {
                bases.push(Base {
                    version: prev.dom_version,
                    doc_time: prev.doc_time,
                    head_changed: step_head,
                    top_changed: step_top,
                    body_span: step_span.filter(|_| prev.body_splice_safe),
                    live_keys: &prev.live_keys,
                });
            }
            for slot in &prev.delta_ring {
                if slot.from_dom_version < self.dom_version {
                    bases.push(Base {
                        version: slot.from_dom_version,
                        doc_time: slot.from_doc_time,
                        head_changed: slot.head_changed || step_head,
                        top_changed: slot.top_changed || step_top,
                        body_span: slot.body_span.zip(step_span).map(|(s, t)| s.then(t)),
                        live_keys: &slot.from_live_keys,
                    });
                }
            }
            bases.sort_by_key(|b| std::cmp::Reverse(b.version));
            bases.dedup_by_key(|b| b.version);
            bases.truncate(DELTA_RING);
            for base in bases {
                // A changed body ships as a splice of the children between
                // the common prefix and suffix when the participant's parse
                // of both bodies is known to give their children one for
                // one; whole otherwise.
                let top = match (base.body_span, &sections.body_children) {
                    _ if !base.top_changed => TopCopy::Omit,
                    (Some(span), Some(children)) if content.body_splice_safe => {
                        span.splice(children.len())
                    }
                    _ => TopCopy::Whole,
                };
                let delta_xml = rcb_xml::splice_delta_content(
                    &content.xml,
                    &sections,
                    self.doc_time,
                    base.doc_time,
                    base.head_changed,
                    top,
                );
                // Inline the objects this generation references that the
                // base generation did not: the receiver gets them in one
                // response instead of N `/cache/{key}` round trips.
                let new_keys: Vec<CacheKey> = live_keys
                    .iter()
                    .copied()
                    .filter(|k| !base.live_keys.contains(k))
                    .filter(|k| objects.contains_key(k) && minted_urls.contains_key(k))
                    .collect();
                let response = if new_keys.is_empty() {
                    prefab_response(
                        Status::OK,
                        "application/xml; charset=utf-8",
                        Arc::from(delta_xml.as_bytes()),
                        self.sign.then_some(&self.key),
                    )
                } else {
                    let body = assemble_batch(&delta_xml, &new_keys, &objects, &minted_urls);
                    prefab_response(
                        Status::OK,
                        BATCH_CONTENT_TYPE,
                        Arc::from(body),
                        self.sign.then_some(&self.key),
                    )
                };
                delta_ring.push(DeltaSlot {
                    from_dom_version: base.version,
                    from_doc_time: base.doc_time,
                    head_changed: base.head_changed,
                    top_changed: base.top_changed,
                    body_span: base.body_span,
                    from_live_keys: base.live_keys.to_vec(),
                    response,
                });
            }
        }

        Ok((
            Arc::new(ContentSnapshot {
                dom_version: self.dom_version,
                doc_time: self.doc_time,
                poll_response,
                live_keys,
                objects,
                objects_carried,
                cache,
                sections,
                body_splice_safe: content.body_splice_safe,
                delta_ring,
            }),
            Some(content),
        ))
    }

    /// The DOM version this plan will publish.
    pub fn dom_version(&self) -> u64 {
        self.dom_version
    }

    /// The cache mode the plan's content was (or will be) generated for.
    pub fn mode(&self) -> CacheMode {
        self.mode
    }
}

/// Resolves the object table of a generation whose live keys are
/// `live_keys` in `cache`, carrying forward `prev`'s live set; returns
/// it with whether it holds keys beyond `live_keys`.
fn resolve_objects(
    mapping: &Mutex<MappingTable>,
    sign_with: Option<&SessionKey>,
    live_keys: &[CacheKey],
    cache: &CacheView,
    prev: Option<&ContentSnapshot>,
) -> (HashMap<CacheKey, Response>, bool) {
    let view: MappingView = mapping
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .view_for(live_keys.iter().copied());
    let mut objects = HashMap::with_capacity(live_keys.len());
    for &key in live_keys {
        let Some(url) = view.url_for(key) else {
            continue;
        };
        let Some(entry) = cache.get(url) else {
            continue;
        };
        // The predecessor's prefab for the same cache entry is carried
        // forward: its head is frozen (and, with response
        // authentication, signed) over this very body already.
        let frozen = prev
            .and_then(|prev| prev.objects.get(&key))
            .filter(|obj| frozen_over(obj, &entry.content_type, &entry.data));
        let object = match frozen {
            Some(obj) => obj.clone(),
            None => prefab_response(
                Status::OK,
                &entry.content_type,
                Arc::clone(&entry.data),
                sign_with,
            ),
        };
        objects.insert(key, object);
    }
    // Two-generation bound: carry forward only the predecessor's live
    // set (its prefabs already frozen); anything older ages out with
    // the snapshot it belonged to.
    let mut carried = false;
    if let Some(prev) = prev {
        for &key in &prev.live_keys {
            let Some(obj) = prev.objects.get(&key) else {
                continue;
            };
            if let Entry::Vacant(slot) = objects.entry(key) {
                carried |= !live_keys.contains(&key);
                slot.insert(obj.clone());
            }
        }
    }
    (objects, carried)
}

/// One candidate base of a new snapshot's delta ring.
struct Base<'a> {
    version: u64,
    doc_time: u64,
    head_changed: bool,
    top_changed: bool,
    body_span: Option<BodySpan>,
    live_keys: &'a [CacheKey],
}

/// How `prev`'s body children line up with those of the generation
/// written as `xml` with `sections`: the longest common prefix and the
/// longest common suffix, each compared byte for byte on its own. `None`
/// when either side reports no children (a frameset page) or the body
/// element's own bytes (its tag and attributes) differ.
fn body_step(prev: &ContentSnapshot, xml: &[u8], sections: &Sections) -> Option<BodySpan> {
    let (old, new) = (
        prev.sections.body_children.as_ref()?,
        sections.body_children.as_ref()?,
    );
    let prev_xml = prev.poll_response.body.as_slice();
    if prev_xml[prev.sections.top.start..old.start] != xml[sections.top.start..new.start] {
        return None;
    }
    let same = |i: usize, j: usize| prev_xml[old.span(i..i + 1)] == xml[new.span(j..j + 1)];
    let common = old.len().min(new.len());
    let prefix = (0..common).take_while(|&i| same(i, i)).count();
    let suffix = if prefix == old.len() && prefix == new.len() {
        prefix
    } else {
        (1..=common)
            .take_while(|&k| same(old.len() - k, new.len() - k))
            .count()
    };
    Some(BodySpan {
        of: old.len(),
        prefix,
        suffix,
    })
}

/// Serializes one multipart batch body: part 1 is the delta XML, every
/// further part one inlined object stamped (`X-RCB-Url`) with the exact
/// agent URL it is cached under on the participant side. Parts are framed
/// by per-part `Content-Length`, so binary object bytes never collide
/// with the fixed boundary.
fn assemble_batch(
    delta_xml: &str,
    new_keys: &[CacheKey],
    objects: &HashMap<CacheKey, Response>,
    minted_urls: &HashMap<CacheKey, &str>,
) -> Vec<u8> {
    use std::io::Write as _;
    let extra: usize = new_keys
        .iter()
        .filter_map(|k| objects.get(k))
        .map(|o| o.body.len() + 160)
        .sum();
    let mut body = Vec::with_capacity(delta_xml.len() + extra + 160);
    let _ = write!(
        body,
        "--{BATCH_BOUNDARY}\r\nContent-Type: application/xml; charset=utf-8\r\nContent-Length: {}\r\n\r\n",
        delta_xml.len()
    );
    body.extend_from_slice(delta_xml.as_bytes());
    body.extend_from_slice(b"\r\n");
    for key in new_keys {
        let (Some(obj), Some(url)) = (objects.get(key), minted_urls.get(key)) else {
            continue;
        };
        let _ = write!(
            body,
            "--{BATCH_BOUNDARY}\r\nContent-Type: {}\r\nContent-Length: {}\r\nX-RCB-Url: {}\r\n\r\n",
            obj.headers.get("content-type").unwrap_or_default(),
            obj.body.len(),
            url
        );
        body.extend_from_slice(&obj.body);
        body.extend_from_slice(b"\r\n");
    }
    let _ = write!(body, "--{BATCH_BOUNDARY}--\r\n");
    body
}

/// Whether `obj` is a prefab of exactly this cache entry: the same body
/// `Arc` under the same content type.
fn frozen_over(obj: &Response, content_type: &str, data: &Arc<[u8]>) -> bool {
    matches!(&obj.body, Body::Shared(body) if Arc::ptr_eq(body, data))
        && obj.headers.get("content-type") == Some(content_type)
}

/// Builds a frozen, ready-to-send response: shared body, optional
/// response MAC, head serialized once.
pub(crate) fn prefab_response(
    status: Status,
    content_type: &str,
    body: Arc<[u8]>,
    sign_with: Option<&SessionKey>,
) -> Response {
    let mut resp = Response::with_body(status, content_type, Body::Shared(body));
    if let Some(key) = sign_with {
        crate::auth::sign_response(key, &mut resp);
    }
    resp.into_prefab()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::AgentConfig;
    use rcb_browser::BrowserKind;
    use rcb_html::{Document, NodeId};
    use rcb_origin::OriginRegistry;
    use rcb_sim::link::Pipe;
    use rcb_sim::profiles::NetProfile;
    use rcb_url::Url;
    use rcb_util::DetRng;
    use rcb_xml::{BodySplice, DeltaTop};

    fn agent(mode: CacheMode) -> RcbAgent {
        RcbAgent::new(
            SessionKey::generate_deterministic(&mut DetRng::new(21)),
            AgentConfig {
                cache_mode: mode,
                ..AgentConfig::default()
            },
        )
    }

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
    fn snapshot_serves_cached_objects_without_host_access() {
        let mut a = agent(CacheMode::Cache);
        let mut host = loaded_host("apple.com");
        let snap = ContentSnapshot::build(&mut a, &host, SimTime::from_secs(1), None).unwrap();
        assert!(
            snap.object_count() > 0,
            "apple.com has supplementary objects"
        );
        assert_eq!(snap.object_count(), snap.live_object_count());
        let mapping = a.mapping().lock().unwrap();
        for key in snap.live_keys.clone() {
            let resp = snap.object(key).expect("live object servable").clone();
            assert!(resp.is_prefab());
            assert_eq!(resp.body.copied_len(), 0, "object body is shared");
            // The body *is* the host cache entry's bytes, and the head
            // carries the entry's content type.
            let cached = host.cache.lookup(mapping.url_for(key).unwrap()).unwrap();
            assert_eq!(resp.body.as_ptr(), cached.data.as_ptr());
            assert_eq!(resp.body.len(), cached.data.len());
            assert_eq!(
                resp.headers.get("content-type"),
                Some(&*cached.content_type)
            );
        }
        // XML parses as a Fig.-4 document carrying the snapshot timestamp.
        let nc = rcb_xml::parse_new_content(snap.xml()).unwrap().unwrap();
        assert_eq!(nc.doc_time, snap.doc_time);
    }

    #[test]
    fn poll_response_is_a_frozen_head_over_the_xml() {
        let mut a = agent(CacheMode::Cache);
        let host = loaded_host("google.com");
        let snap = ContentSnapshot::build(&mut a, &host, SimTime::from_secs(1), None).unwrap();
        let resp = snap.poll_response();
        assert!(resp.is_prefab());
        assert_eq!(resp.status, Status::OK);
        // The body is the snapshot's one copy of the XML.
        assert_eq!(resp.body.as_ptr(), snap.xml().as_ptr());
        assert_eq!(resp.body.copied_len(), 0, "poll body is shared");
        // Two serves share one head and one body (pointer equality, not
        // re-serialization).
        let again = snap.poll_response();
        assert_eq!(resp.head().as_ptr(), again.head().as_ptr());
        assert_eq!(resp.body.as_ptr(), again.body.as_ptr());
        // The wire form parses back to exactly the response it froze.
        let wire = rcb_http::serialize::serialize_response(&resp);
        assert_eq!(rcb_http::parse_response(&wire).unwrap(), resp);
    }

    #[test]
    fn signed_snapshots_carry_valid_response_macs() {
        let key = SessionKey::generate_deterministic(&mut DetRng::new(22));
        let mut a = RcbAgent::new(
            key.clone(),
            AgentConfig {
                authenticate_responses: true,
                ..AgentConfig::default()
            },
        );
        let host = loaded_host("apple.com");
        let snap = ContentSnapshot::build(&mut a, &host, SimTime::from_secs(1), None).unwrap();
        assert!(crate::auth::verify_response(&key, &snap.poll_response()));
        for key_id in snap.live_keys.clone() {
            let obj = snap.object(key_id).unwrap();
            assert!(crate::auth::verify_response(&key, obj));
        }
    }

    #[test]
    fn unchanged_objects_carry_their_signed_prefab_forward() {
        let key = SessionKey::generate_deterministic(&mut DetRng::new(23));
        let mut a = RcbAgent::new(
            key.clone(),
            AgentConfig {
                authenticate_responses: true,
                ..AgentConfig::default()
            },
        );
        let mut host = loaded_host("wikipedia.org");
        let first = ContentSnapshot::build(&mut a, &host, SimTime::from_secs(1), None).unwrap();
        append_div(&mut host, "a body edit that leaves every object alone");
        let second =
            ContentSnapshot::build(&mut a, &host, SimTime::from_secs(2), Some(&first)).unwrap();
        assert!(!second.live_keys.is_empty(), "wikipedia.org has objects");
        for key_id in &second.live_keys {
            let (before, after) = (
                first.object(*key_id).unwrap(),
                second.object(*key_id).unwrap(),
            );
            // The same frozen head — neither re-serialized nor re-signed —
            // over the same body, and its MAC still verifies.
            assert_eq!(after.head().as_ptr(), before.head().as_ptr());
            assert_eq!(after.body.as_ptr(), before.body.as_ptr());
            assert!(crate::auth::verify_response(&key, after));
        }
    }

    #[test]
    fn non_cache_snapshot_carries_no_objects() {
        let mut a = agent(CacheMode::NonCache);
        let host = loaded_host("apple.com");
        let snap = ContentSnapshot::build(&mut a, &host, SimTime::from_secs(1), None).unwrap();
        assert_eq!(snap.object_count(), 0);
    }

    #[test]
    fn rebuilds_carry_one_predecessor_and_stay_bounded() {
        let mut a = agent(CacheMode::Cache);
        let mut host = loaded_host("apple.com");
        let mut snap = ContentSnapshot::build(&mut a, &host, SimTime::ZERO, None).unwrap();
        let baseline = snap.live_object_count();
        assert!(baseline > 0);
        for i in 1..=1_000u64 {
            host.mutate_dom(|_| {}).unwrap();
            snap = ContentSnapshot::build(&mut a, &host, SimTime::from_millis(i), Some(&snap))
                .unwrap();
            // The object set never exceeds two generations' worth — here
            // the page is unchanged, so the carried set equals the live
            // set and the total stays flat.
            assert!(
                snap.object_count() <= 2 * baseline,
                "object set unbounded at rebuild {i}"
            );
            assert!(snap.doc_time > 0);
        }
        // The agent keeps one generation throughout.
        assert_eq!((a.content_cache_len(), a.timestamps_len()), (1, 1));
    }

    fn append_div(host: &mut Browser, text: &str) {
        host.mutate_dom(|doc| {
            let body = doc.body().expect("page has a body");
            let div = doc.create_element("div");
            let t = doc.create_text(text);
            doc.append_child(div, t).unwrap();
            doc.append_child(body, div).unwrap();
        })
        .unwrap();
    }

    fn prepend_div(host: &mut Browser, text: &str) {
        host.mutate_dom(|doc| {
            let body = doc.body().expect("page has a body");
            let div = doc.create_element("div");
            let t = doc.create_text(text);
            doc.append_child(div, t).unwrap();
            doc.splice_children(body, 0, 0, vec![div]).unwrap();
        })
        .unwrap();
    }

    /// Replaces the text of the page's `<title>`, returning the old text.
    fn set_title(host: &mut Browser, text: &str) -> String {
        let mut old = String::new();
        host.mutate_dom(|doc| {
            let head = doc.head().expect("page has a head");
            let title = doc
                .descendants(head)
                .into_iter()
                .find(|&n| doc.is_element(n, "title"))
                .expect("page has a title");
            let t = doc.children(title)[0];
            old = doc.text(t).expect("title holds text").to_string();
            doc.set_text(t, text).unwrap();
        })
        .unwrap();
        old
    }

    /// The delta XML of a slot's reply: the whole body, or its first part
    /// when new objects ride along in a batch.
    fn slot_xml(slot: &DeltaSlot) -> String {
        let body = slot.response.body.as_slice();
        if slot.response.content_type().as_deref() == Some(BATCH_MEDIA_TYPE) {
            let parts = rcb_http::batch::parse_batch_parts(body).unwrap();
            String::from_utf8(parts[0].data.clone()).unwrap()
        } else {
            String::from_utf8(body.to_vec()).unwrap()
        }
    }

    /// The top-level children of a body's innerHTML as a participant's
    /// fragment parse finds them, each re-serialized; they must join back
    /// into the innerHTML (the writer's child boundaries are the parser's).
    fn parsed_children(inner_html: &str) -> Vec<String> {
        let mut doc = rcb_html::Document::new();
        let body = doc.create_element("body");
        let children: Vec<String> = rcb_html::parse_fragment_into(&mut doc, body, inner_html)
            .into_iter()
            .map(|c| rcb_html::outer_html(&doc, c))
            .collect();
        assert_eq!(
            children.concat(),
            inner_html,
            "body re-serializes as it was sent"
        );
        children
    }

    fn body_of(nc: &rcb_xml::NewContent) -> &rcb_xml::ElementPayload {
        match &nc.top {
            rcb_xml::TopLevel::Body(body) => body,
            other => panic!("expected a body page, got {other:?}"),
        }
    }

    /// What a slot must equal: the typed delta writer over `snap`'s XML
    /// parsed back (`nc`), carrying the components the slot's flags name.
    /// A body splice carries the children its `at`, `drop` and `of` name,
    /// cut from `nc`'s body where a participant's parse splits it; the
    /// children it keeps must equal those of the base's body (`base`, the
    /// base's XML parsed back), and so must the body element.
    fn reference_delta(
        snap: &ContentSnapshot,
        nc: &rcb_xml::NewContent,
        base: &rcb_xml::NewContent,
        slot: &DeltaSlot,
    ) -> String {
        let shipped = rcb_xml::parse_delta_content(&slot_xml(slot))
            .unwrap()
            .unwrap();
        let top = match shipped.top {
            None => None,
            Some(DeltaTop::Whole(_)) => Some(DeltaTop::Whole(nc.top.clone())),
            Some(DeltaTop::BodySplice(splice)) => {
                let (new, old) = (body_of(nc), body_of(base));
                assert_eq!(new.attrs, old.attrs, "a splice keeps the body element");
                let (new, old) = (
                    parsed_children(&new.inner_html),
                    parsed_children(&old.inner_html),
                );
                let BodySplice { at, drop, of, .. } = splice;
                assert_eq!(old.len(), of, "a splice names its base's child count");
                let kept_after = of - at - drop;
                let inserted = new.len() - at - kept_after;
                assert_eq!(new[..at], old[..at], "kept prefix");
                assert_eq!(new[at + inserted..], old[at + drop..], "kept suffix");
                Some(DeltaTop::BodySplice(BodySplice {
                    at,
                    drop,
                    of,
                    inner_html: new[at..at + inserted].concat(),
                }))
            }
        };
        assert_eq!(top.is_some(), slot.top_changed);
        rcb_xml::write_delta_content(&rcb_xml::DeltaContent {
            doc_time: snap.doc_time,
            from_doc_time: slot.from_doc_time,
            head_children: slot.head_changed.then(|| nc.head_children.clone()),
            top,
            user_actions: nc.user_actions.clone(),
        })
    }

    /// How a slot ships the top-level component.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum TopShipped {
        Omitted,
        Whole,
        Splice,
    }

    /// The slot of `snap`'s ring for `base`, checked against the reference
    /// writer; returns whether it ships the head, and how the top.
    fn checked_slot(snap: &ContentSnapshot, base: &ContentSnapshot) -> (bool, TopShipped) {
        let nc = rcb_xml::parse_new_content(snap.xml()).unwrap().unwrap();
        let base_nc = rcb_xml::parse_new_content(base.xml()).unwrap().unwrap();
        let slot = snap
            .delta_ring
            .iter()
            .find(|s| s.from_dom_version == base.dom_version)
            .expect("base in ring");
        let xml = slot_xml(slot);
        assert_eq!(xml, reference_delta(snap, &nc, &base_nc, slot));
        let top = if xml.contains("<docBodySplice ") {
            TopShipped::Splice
        } else if slot.top_changed {
            TopShipped::Whole
        } else {
            TopShipped::Omitted
        };
        (slot.head_changed, top)
    }

    /// Replaces the text of the body's first non-empty `<p>` text node.
    fn edit_first_paragraph(host: &mut Browser, text: &str) {
        host.mutate_dom(|doc| {
            let body = doc.body().expect("page has a body");
            let first = doc
                .descendants(body)
                .into_iter()
                .filter(|&p| doc.is_element(p, "p"))
                .filter_map(|p| doc.children(p).first().copied())
                .find(|&t| doc.text(t).is_some_and(|s| !s.is_empty()));
            if let Some(t) = first {
                doc.set_text(t, text).unwrap();
            }
        })
        .unwrap();
    }

    #[test]
    fn ring_slots_equal_the_reference_writer_on_every_table1_page() {
        // Head, body, both, neither, body edits at both ends and inside,
        // and an edit of the body element itself: the rings built along
        // this sequence hold slots that ship every combination of the
        // head and the top's three forms.
        let edits: [fn(&mut Browser); 9] = [
            |h| {
                set_title(h, "edited title");
            },
            |h| append_div(h, "edited body"),
            |h| {
                set_title(h, "edited both");
                append_div(h, "edited both");
            },
            |h| h.mutate_dom(|_| {}).unwrap(),
            |h| prepend_div(h, "at the front"),
            |h| edit_first_paragraph(h, "a paragraph edit"),
            |h| {
                h.mutate_dom(|doc| {
                    let body = doc.body().unwrap();
                    let first = doc.children(body)[0];
                    doc.detach(first);
                    let last = *doc.children(body).last().unwrap();
                    doc.set_attr(last, "data-edited", "yes");
                })
                .unwrap();
            },
            |h| {
                h.mutate_dom(|doc| {
                    let body = doc.body().unwrap();
                    doc.set_attr(body, "data-theme", "dark");
                })
                .unwrap();
            },
            |h| {
                set_title(h, "edited after the body element");
            },
        ];
        let mut seen = std::collections::HashSet::new();
        for spec in rcb_origin::alexa20() {
            for mode in [CacheMode::Cache, CacheMode::NonCache] {
                let mut a = agent(mode);
                let mut host = loaded_host(spec.name);
                let mut chain =
                    vec![ContentSnapshot::build(&mut a, &host, SimTime::ZERO, None).unwrap()];
                for (i, edit) in (1u64..).zip(edits) {
                    edit(&mut host);
                    let prev = chain.last().map(|s| &**s);
                    let snap = ContentSnapshot::build(&mut a, &host, SimTime::from_millis(i), prev)
                        .unwrap();
                    for slot in &snap.delta_ring {
                        let base = chain
                            .iter()
                            .find(|s| s.dom_version == slot.from_dom_version)
                            .expect("the base was built here");
                        seen.insert(checked_slot(&snap, base));
                    }
                    chain.push(snap);
                }
            }
        }
        for head in [false, true] {
            for top in [TopShipped::Omitted, TopShipped::Whole, TopShipped::Splice] {
                assert!(
                    seen.contains(&(head, top)),
                    "no slot ships head={head} top={top:?}: {seen:?}"
                );
            }
        }
    }

    #[test]
    fn head_edits_and_chained_bases_ship_the_accumulated_components() {
        let mut a = agent(CacheMode::Cache);
        let mut host = loaded_host("apple.com");
        let mut build = |host: &Browser, ms: u64, prev: Option<&ContentSnapshot>| {
            ContentSnapshot::build(&mut a, host, SimTime::from_millis(ms), prev).unwrap()
        };
        let s1 = build(&host, 0, None);
        let original = set_title(&mut host, "retitled");
        let s2 = build(&host, 1, Some(&s1));
        append_div(&mut host, "body edit");
        let s3 = build(&host, 2, Some(&s2));
        use TopShipped::{Omitted, Splice};
        assert_eq!(checked_slot(&s2, &s1), (true, Omitted), "head-only step");
        assert_eq!(checked_slot(&s3, &s2), (false, Splice), "top-only step");
        assert_eq!(
            checked_slot(&s3, &s1),
            (true, Splice),
            "chained base: OR of both steps"
        );

        // Revert the title: s4's head bytes equal s1's again, yet the slot
        // for s1 still ships the head, because the span changed it.
        set_title(&mut host, &original);
        let s4 = build(&host, 3, Some(&s3));
        assert_eq!(s4.section(&s4.sections.head), s1.section(&s1.sections.head));
        assert_eq!(checked_slot(&s4, &s3), (true, Omitted));
        assert_eq!(checked_slot(&s4, &s2), (true, Splice), "top, then head");
        assert_eq!(
            checked_slot(&s4, &s1),
            (true, Splice),
            "reverted head still ships"
        );
    }

    /// The splice a slot ships: `(at, drop, of, inserted children)`.
    fn splice_of(snap: &ContentSnapshot, base: &ContentSnapshot) -> (usize, usize, usize, usize) {
        checked_slot(snap, base);
        let xml = String::from_utf8(
            snap.delta_response_for(base.dom_version)
                .unwrap()
                .body
                .to_vec(),
        )
        .unwrap();
        match rcb_xml::parse_delta_content(&xml).unwrap().unwrap().top {
            Some(DeltaTop::BodySplice(s)) => {
                let inserted = parsed_children(&s.inner_html).len();
                (s.at, s.drop, s.of, inserted)
            }
            other => panic!("expected a splice, got {other:?}"),
        }
    }

    /// Replaces the first text below body child `i` with `text`.
    fn edit_text_in_child(host: &mut Browser, i: usize, text: &str) {
        host.mutate_dom(|doc| {
            let child = doc.children(doc.body().unwrap())[i];
            let t = doc
                .descendants(child)
                .into_iter()
                .find(|&n| doc.text(n).is_some_and(|t| !t.trim().is_empty()))
                .expect("the child holds text");
            doc.set_text(t, text).unwrap();
        })
        .unwrap();
    }

    #[test]
    fn chained_splices_cover_every_child_changed_since_their_base() {
        let mut a = agent(CacheMode::Cache);
        let mut host = loaded_host("wikipedia.org");
        // Two body children that hold text, well apart.
        let (n, first, second) = {
            let doc = host.doc.as_ref().unwrap();
            let children = doc.children(doc.body().unwrap());
            let with_text: Vec<usize> = (0..children.len())
                .filter(|&i| !doc.text_content(children[i]).trim().is_empty())
                .collect();
            (children.len(), with_text[1], with_text[with_text.len() / 2])
        };
        assert!(
            first + 1 < second && second + 1 < n,
            "{first} {second} of {n}"
        );
        let mut build = |host: &Browser, ms: u64, prev: Option<&ContentSnapshot>| {
            ContentSnapshot::build(&mut a, host, SimTime::from_millis(ms), prev).unwrap()
        };
        let s1 = build(&host, 0, None);
        edit_text_in_child(&mut host, first, "first edit");
        let s2 = build(&host, 1, Some(&s1));
        set_title(&mut host, "a title edit");
        let s3 = build(&host, 2, Some(&s2));
        edit_text_in_child(&mut host, second, "second edit");
        let s4 = build(&host, 3, Some(&s3));
        append_div(&mut host, "appended");
        let s5 = build(&host, 4, Some(&s4));
        assert_eq!(splice_of(&s2, &s1), (first, 1, n, 1));
        assert_eq!(checked_slot(&s3, &s2), (true, TopShipped::Omitted));
        // An unchanged body between two edits narrows nothing.
        assert_eq!(splice_of(&s3, &s1), (first, 1, n, 1), "across the title");
        assert_eq!(splice_of(&s4, &s3), (second, 1, n, 1));
        assert_eq!(splice_of(&s4, &s2), (second, 1, n, 1), "across the title");
        let between = second + 1 - first;
        assert_eq!(
            splice_of(&s4, &s1),
            (first, between, n, between),
            "both edits and all between"
        );
        assert_eq!(splice_of(&s5, &s4), (n, 0, n, 1), "a pure append");
        let to_end = (second, n - second, n, n + 1 - second);
        assert_eq!(splice_of(&s5, &s3), to_end);
        assert_eq!(splice_of(&s5, &s2), to_end, "across the title");
    }

    /// Inserting, removing or replacing a body child that holds an id-less
    /// clickable regenerates and ships that child alone: a synthetic id is
    /// named after the subtree it lies in, so no later child changes.
    #[test]
    fn a_clickable_inserted_removed_or_replaced_splices_one_child() {
        type Edit = fn(&mut Document, NodeId);
        type Splice = (usize, usize, usize, usize);
        let edits: [(&str, Edit, Splice, usize); 3] = [
            (
                "insert",
                |doc, body| {
                    let p = doc.create_element("p");
                    let a = doc.create_element_with_attrs("a", vec![("href".into(), "/x".into())]);
                    let t = doc.create_text("a link");
                    doc.append_child(a, t).unwrap();
                    doc.append_child(p, a).unwrap();
                    doc.splice_children(body, 3, 0, vec![p]).unwrap();
                },
                (3, 0, 219, 1),
                1,
            ),
            (
                "remove",
                |doc, body| {
                    doc.splice_children(body, 3, 1, Vec::new()).unwrap();
                },
                (3, 1, 219, 0),
                0,
            ),
            (
                "replace",
                |doc, body| {
                    let div = doc.create_element("div");
                    doc.splice_children(body, 3, 1, vec![div]).unwrap();
                },
                (3, 1, 219, 1),
                1,
            ),
        ];
        for (what, edit, splice, regenerated) in edits {
            let mut a = agent(CacheMode::Cache);
            let mut host = loaded_host("wikipedia.org");
            let doc = host.doc.as_ref().unwrap();
            let child = doc.children(doc.body().unwrap())[3];
            let clickable = doc
                .descendants(child)
                .into_iter()
                .any(|n| doc.is_element(n, "a") && doc.get_attr(n, "id").is_none());
            assert!(clickable, "body child 3 holds an id-less anchor");
            let s1 = ContentSnapshot::build(&mut a, &host, SimTime::ZERO, None).unwrap();
            host.mutate_dom(|doc| {
                let body = doc.body().unwrap();
                edit(doc, body);
            })
            .unwrap();
            let s2 =
                ContentSnapshot::build(&mut a, &host, SimTime::from_millis(1), Some(&s1)).unwrap();
            assert_eq!(splice_of(&s2, &s1), splice, "{what}");
            let content = a.newest_content(CacheMode::Cache).unwrap();
            assert_eq!(content.children_regenerated, regenerated, "{what}");
            let scratch = crate::content::generate_content(
                &host,
                CacheMode::Cache,
                a.mapping(),
                a.key(),
                "",
                s2.doc_time,
                "",
            )
            .unwrap();
            assert!(*scratch.xml == *s2.xml(), "{what}: as from scratch");
        }
    }

    /// A child inserted beside an equal one: the common prefix and suffix
    /// overlap on the twin, and the splice inserts it once.
    #[test]
    fn a_twin_inserted_beside_its_twin_is_spliced_in_once() {
        let mut a = agent(CacheMode::Cache);
        let mut host = loaded_host("wikipedia.org");
        prepend_div(&mut host, "twin");
        let n = {
            let doc = host.doc.as_ref().unwrap();
            doc.children(doc.body().unwrap()).len()
        };
        let mut build = |host: &Browser, ms: u64, prev: Option<&ContentSnapshot>| {
            ContentSnapshot::build(&mut a, host, SimTime::from_millis(ms), prev).unwrap()
        };
        let s1 = build(&host, 0, None);
        prepend_div(&mut host, "twin");
        let s2 = build(&host, 1, Some(&s1));
        prepend_div(&mut host, "twin");
        let s3 = build(&host, 2, Some(&s2));
        assert_eq!(splice_of(&s2, &s1), (1, 0, n, 1));
        assert_eq!(splice_of(&s3, &s2), (2, 0, n + 1, 1));
        assert_eq!(splice_of(&s3, &s1), (1, 0, n, 2));
    }

    #[test]
    fn delta_ring_covers_recent_generations_and_evicts_old_bases() {
        let mut a = agent(CacheMode::Cache);
        let mut host = loaded_host("apple.com");
        let mut snaps = vec![ContentSnapshot::build(&mut a, &host, SimTime::ZERO, None).unwrap()];
        assert_eq!(snaps[0].delta_ring_len(), 0, "first generation has no base");
        for i in 1..=5u64 {
            append_div(&mut host, &format!("update {i}"));
            let prev = Arc::clone(snaps.last().unwrap());
            snaps.push(
                ContentSnapshot::build(&mut a, &host, SimTime::from_millis(i), Some(&prev))
                    .unwrap(),
            );
        }
        let last = snaps.last().unwrap();
        assert_eq!(last.delta_ring_len(), DELTA_RING);
        // The three newest bases are covered, older ones miss.
        for covered in &snaps[2..5] {
            assert!(
                last.delta_response_for(covered.dom_version).is_some(),
                "base v{} should be in the ring",
                covered.dom_version
            );
        }
        assert!(last.delta_response_for(snaps[0].dom_version).is_none());
        assert!(last.delta_response_for(snaps[1].dom_version).is_none());
        assert!(last.delta_response_for(last.dom_version).is_none());
    }

    #[test]
    fn delta_reply_is_prefab_parses_and_is_smaller_than_full_xml() {
        let mut a = agent(CacheMode::Cache);
        let mut host = loaded_host("apple.com");
        let s1 = ContentSnapshot::build(&mut a, &host, SimTime::ZERO, None).unwrap();
        append_div(&mut host, "body-only change");
        let s2 = ContentSnapshot::build(&mut a, &host, SimTime::from_millis(5), Some(&s1)).unwrap();
        let delta = s2.delta_response_for(s1.dom_version).expect("base in ring");
        assert!(delta.is_prefab());
        assert_eq!(delta.content_type().as_deref(), Some("application/xml"));
        let dc = rcb_xml::parse_delta_content(std::str::from_utf8(delta.body.as_slice()).unwrap())
            .unwrap()
            .unwrap();
        assert_eq!(dc.doc_time, s2.doc_time);
        assert_eq!(dc.from_doc_time, s1.doc_time);
        assert!(dc.head_children.is_none(), "head unchanged: slot omitted");
        assert!(dc.top.is_some(), "body changed: slot shipped");
        // The whole point: strictly fewer wire bytes than the full reply.
        assert!(
            delta.wire_len() < s2.poll_response().wire_len(),
            "delta ({}) must undercut full XML ({})",
            delta.wire_len(),
            s2.poll_response().wire_len()
        );
    }

    #[test]
    fn delta_with_new_objects_is_a_multipart_batch() {
        let mut a = agent(CacheMode::Cache);
        let mut host = loaded_host("apple.com");
        let s1 = ContentSnapshot::build(&mut a, &host, SimTime::ZERO, None).unwrap();
        // Plant an extra cached object the current DOM does not reference,
        // then reference it: generation 2 gains a live key generation 1
        // never minted.
        let extra_url = "http://apple.com/extra-object.png";
        host.cache.store(
            extra_url,
            "image/png",
            b"PNG-ish bytes \x00\x01\x02".to_vec(),
            SimTime::ZERO,
        );
        host.mutate_dom(|doc| {
            let body = doc.body().expect("page has a body");
            let img =
                doc.create_element_with_attrs("img", vec![("src".into(), extra_url.to_string())]);
            doc.append_child(body, img).unwrap();
        })
        .unwrap();
        let s2 = ContentSnapshot::build(&mut a, &host, SimTime::from_millis(5), Some(&s1)).unwrap();
        let delta = s2.delta_response_for(s1.dom_version).expect("base in ring");
        assert_eq!(
            delta.content_type().as_deref(),
            Some("multipart/x-rcb-batch"),
            "batch media type with boundary {BATCH_BOUNDARY} stripped"
        );
        let body = delta.body.as_slice();
        let text = String::from_utf8_lossy(body);
        assert!(text.contains("X-RCB-Url: "), "inlined part carries its URL");
        assert!(text.contains("--rcb-batch--"), "closing boundary present");
        // The inlined bytes are the cached object's bytes.
        let needle: &[u8] = b"PNG-ish bytes \x00\x01\x02";
        assert!(
            body.windows(needle.len()).any(|w| w == needle),
            "object bytes inlined verbatim"
        );
        // And still one self-contained response, smaller than full XML +
        // a separate object round trip.
        let full = s2.poll_response().wire_len()
            + s2.objects.values().map(Response::wire_len).sum::<usize>();
        assert!(delta.wire_len() < full);
    }

    #[test]
    fn unchanged_content_yields_minimal_deltas() {
        let mut a = agent(CacheMode::Cache);
        let mut host = loaded_host("google.com");
        let s1 = ContentSnapshot::build(&mut a, &host, SimTime::ZERO, None).unwrap();
        // Version bump with byte-identical serialized content.
        host.mutate_dom(|_| {}).unwrap();
        let s2 = ContentSnapshot::build(&mut a, &host, SimTime::from_millis(9), Some(&s1)).unwrap();
        let delta = s2.delta_response_for(s1.dom_version).expect("base in ring");
        let dc = rcb_xml::parse_delta_content(std::str::from_utf8(delta.body.as_slice()).unwrap())
            .unwrap()
            .unwrap();
        assert!(dc.head_children.is_none() && dc.top.is_none());
    }

    #[test]
    fn signed_delta_replies_carry_valid_response_macs() {
        let key = SessionKey::generate_deterministic(&mut DetRng::new(23));
        let mut a = RcbAgent::new(
            key.clone(),
            AgentConfig {
                authenticate_responses: true,
                ..AgentConfig::default()
            },
        );
        let mut host = loaded_host("apple.com");
        let s1 = ContentSnapshot::build(&mut a, &host, SimTime::ZERO, None).unwrap();
        append_div(&mut host, "signed update");
        let s2 = ContentSnapshot::build(&mut a, &host, SimTime::from_millis(3), Some(&s1)).unwrap();
        let delta = s2.delta_response_for(s1.dom_version).expect("base in ring");
        assert!(crate::auth::verify_response(&key, &delta));
    }

    #[test]
    fn snapshot_tracks_dom_version() {
        let mut a = agent(CacheMode::Cache);
        let mut host = loaded_host("google.com");
        let s1 = ContentSnapshot::build(&mut a, &host, SimTime::ZERO, None).unwrap();
        assert_eq!(s1.dom_version, host.dom_version());
        host.mutate_dom(|_| {}).unwrap();
        let s2 = ContentSnapshot::build(&mut a, &host, SimTime::from_secs(1), Some(&s1)).unwrap();
        assert_eq!(s2.dom_version, host.dom_version());
        assert!(s2.doc_time > s1.doc_time);
    }

    #[test]
    fn plan_then_finish_matches_build_and_returns_content_to_admit() {
        let mut a = agent(CacheMode::Cache);
        let host = loaded_host("apple.com");
        // Pipelined: plan under "the host mutex", finish afterwards.
        let plan = ContentSnapshot::plan(&mut a, &host, SimTime::from_secs(1)).unwrap();
        assert_eq!(plan.dom_version(), host.dom_version());
        let (snap, generated) = plan.finish(None).unwrap();
        let content = generated.expect("every finish generates");
        assert_eq!(a.stats.generations.get(), 0, "not yet admitted");
        a.admit_generated(snap.dom_version, CacheMode::Cache, content);
        assert_eq!(a.stats.generations.get(), 1);
        assert_eq!(a.content_cache_len(), 1);
        // A second plan for the same version copies every body child of
        // the admitted content, and writes the same document.
        let plan2 = ContentSnapshot::plan(&mut a, &host, SimTime::from_secs(2)).unwrap();
        let (snap2, generated2) = plan2.finish(Some(&snap)).unwrap();
        let content2 = generated2.expect("every finish generates");
        assert_eq!(content2.children_regenerated, 0);
        assert!(content2.children_reused > 0);
        assert_eq!(snap2.doc_time, snap.doc_time);
        assert_eq!(snap2.xml(), snap.xml());
    }

    /// The index of the first top-level body child that holds text.
    fn first_child_with_text(host: &Browser) -> usize {
        let doc = host.doc.as_ref().unwrap();
        let children = doc.children(doc.body().unwrap());
        (0..children.len())
            .find(|&i| !doc.text_content(children[i]).trim().is_empty())
            .expect("a body child holds text")
    }

    /// Builds the next snapshot of `host` on `chain`, returning whether
    /// its generation copied the head.
    fn build_next(a: &mut RcbAgent, host: &Browser, chain: &mut Vec<Arc<ContentSnapshot>>) -> bool {
        let now = SimTime::from_millis(chain.len() as u64);
        let prev = chain.last().map(|s| &**s);
        let snap = ContentSnapshot::build(a, host, now, prev).unwrap();
        chain.push(snap);
        let content = a.newest_content(a.config.cache_mode).unwrap();
        content.head_reused
    }

    /// Whether the two newest snapshots of `chain` share one object table.
    fn shares_table(chain: &[Arc<ContentSnapshot>]) -> bool {
        let [.., prev, last] = chain else {
            panic!("two snapshots")
        };
        Arc::ptr_eq(&prev.objects, &last.objects)
    }

    #[test]
    fn a_body_edit_copies_the_head_and_shares_the_object_table() {
        for site in ["wikipedia.org", "google.com"] {
            let mut a = agent(CacheMode::Cache);
            let mut host = loaded_host(site);
            let mut chain = Vec::new();
            assert!(!build_next(&mut a, &host, &mut chain), "{site}: first");
            assert!(chain[0].live_object_count() > 0, "{site} has objects");
            let child = first_child_with_text(&host);
            for i in 1..=3 {
                edit_text_in_child(&mut host, child, &format!("edit {i}"));
                assert!(build_next(&mut a, &host, &mut chain), "{site} {i}: head");
                assert!(shares_table(&chain), "{site} {i}: table resolved again");
                let [.., prev, last] = &chain[..] else {
                    unreachable!()
                };
                assert_eq!(
                    last.section(&last.sections.head),
                    prev.section(&prev.sections.head)
                );
                assert_eq!(last.live_keys, prev.live_keys);
            }
        }
    }

    /// Replaces the body with a frameset in the same document.
    fn switch_to_frameset(host: &mut Browser) {
        host.mutate_dom(|doc| {
            let html = doc.document_element().unwrap();
            let body = doc.body().unwrap();
            let frameset =
                doc.create_element_with_attrs("frameset", vec![("rows".into(), "*".into())]);
            let frame = doc.create_element_with_attrs("frame", vec![("src".into(), "/a".into())]);
            doc.append_child(frameset, frame).unwrap();
            doc.detach(body);
            doc.append_child(html, frameset).unwrap();
        })
        .unwrap();
    }

    #[test]
    fn head_edits_navigations_cache_stores_and_framesets_regenerate_the_head() {
        type Change = fn(&mut Browser);
        let changes: [(&str, Change); 4] = [
            ("a head edit", |h| {
                set_title(h, "retitled");
            }),
            ("a navigation", |h| {
                let profile = NetProfile::lan();
                let mut pipe = Pipe::new(profile.host_origin);
                let url = Url::parse("http://wikipedia.org/").unwrap();
                let mut origins = OriginRegistry::with_alexa20();
                h.navigate(&url, &mut origins, &mut pipe, &profile, SimTime::ZERO)
                    .unwrap();
            }),
            ("a cache store", |h| {
                let url = "http://google.com/stored.png";
                h.cache
                    .store(url, "image/png", vec![1, 2, 3], SimTime::ZERO);
                append_div(h, "after a store");
            }),
            ("a frameset", switch_to_frameset),
        ];
        for (what, change) in changes {
            let mut a = agent(CacheMode::Cache);
            let mut host = loaded_host("google.com");
            let mut chain = Vec::new();
            build_next(&mut a, &host, &mut chain);
            append_div(&mut host, "a body edit");
            assert!(build_next(&mut a, &host, &mut chain), "{what}: body edit");
            change(&mut host);
            assert!(
                !build_next(&mut a, &host, &mut chain),
                "{what}: head copied"
            );
            let last = chain.last().unwrap();
            let nc = rcb_xml::parse_new_content(last.xml()).unwrap().unwrap();
            assert!(!nc.head_children.is_empty(), "{what}");
        }
    }

    #[test]
    fn a_cache_store_or_new_live_keys_rebuild_the_object_table() {
        let mut a = agent(CacheMode::Cache);
        let mut host = loaded_host("wikipedia.org");
        let mut chain = Vec::new();
        build_next(&mut a, &host, &mut chain);
        // A live object stored again with new bytes: the same live keys in
        // another cache view.
        let key = chain[0].live_keys[0];
        let url = a
            .mapping()
            .lock()
            .unwrap()
            .url_for(key)
            .unwrap()
            .to_string();
        host.cache
            .store(&url, "text/css", b"new bytes".to_vec(), SimTime::ZERO);
        append_div(&mut host, "after a store");
        build_next(&mut a, &host, &mut chain);
        assert!(!shares_table(&chain), "a cache store");
        let last = chain.last().unwrap();
        assert_eq!(last.live_keys, chain[0].live_keys);
        assert_eq!(last.object(key).unwrap().body.as_slice(), b"new bytes");

        // A stylesheet link removed: one live key fewer, in the same view.
        remove_head_link(&mut host);
        build_next(&mut a, &host, &mut chain);
        assert!(!shares_table(&chain), "a dropped live key");
        let [.., prev, last] = &chain[..] else {
            unreachable!()
        };
        assert!(last.cache.same_view(&prev.cache));
        assert_eq!(last.live_object_count() + 1, prev.live_object_count());
    }

    /// Removes the head's first stylesheet link.
    fn remove_head_link(host: &mut Browser) {
        host.mutate_dom(|doc| {
            let head = doc.head().unwrap();
            let link = doc
                .children(head)
                .iter()
                .copied()
                .find(|&n| doc.is_element(n, "link"))
                .expect("a stylesheet link");
            doc.detach(link);
        })
        .unwrap();
    }

    #[test]
    fn after_a_rebuild_that_dropped_keys_the_table_holds_two_generations_at_most() {
        let mut a = agent(CacheMode::Cache);
        let mut host = loaded_host("wikipedia.org");
        let mut chain = Vec::new();
        build_next(&mut a, &host, &mut chain);
        remove_head_link(&mut host);
        build_next(&mut a, &host, &mut chain);
        let child = first_child_with_text(&host);
        for i in 0..3 {
            edit_text_in_child(&mut host, child, &format!("edit {i}"));
            build_next(&mut a, &host, &mut chain);
        }
        let [first, dropped, carried_over, rebuilt, shared] = &chain[..] else {
            unreachable!()
        };
        // The dropped key stays servable one generation, for participants
        // still on the content that referenced it.
        let gone: Vec<CacheKey> = first
            .live_keys
            .iter()
            .copied()
            .filter(|k| !dropped.live_keys.contains(k))
            .collect();
        assert_eq!(gone.len(), 1);
        assert!(dropped.object(gone[0]).is_some());
        assert!(dropped.objects_carried);
        // A table holding a carried key is not shared: the next generation
        // resolves its own, which carries the dropped key no further.
        assert!(!Arc::ptr_eq(&carried_over.objects, &dropped.objects));
        assert!(carried_over.object(gone[0]).is_none());
        assert!(!carried_over.objects_carried);
        assert!(Arc::ptr_eq(&rebuilt.objects, &carried_over.objects));
        assert!(Arc::ptr_eq(&shared.objects, &carried_over.objects));
        for pair in chain.windows(2) {
            let (prev, snap) = (&pair[0], &pair[1]);
            for key in snap.objects.keys() {
                assert!(snap.live_keys.contains(key) || prev.live_keys.contains(key));
            }
            assert!(snap.object_count() <= snap.live_object_count() + prev.live_object_count());
        }
    }

    /// A generation's XML is one allocation: the agent's newest generation
    /// and the poll reply frozen over that generation share it.
    #[test]
    fn the_cached_content_and_the_poll_reply_share_one_xml_buffer() {
        for mode in [CacheMode::Cache, CacheMode::NonCache] {
            let mut a = agent(mode);
            let mut host = loaded_host("wikipedia.org");
            let first = ContentSnapshot::build(&mut a, &host, SimTime::from_secs(1), None).unwrap();
            let cached = a.newest_content(mode).expect("generation admitted");
            append_div(&mut host, "an edit");
            let second =
                ContentSnapshot::build(&mut a, &host, SimTime::from_secs(2), Some(&first)).unwrap();
            let newest = a.newest_content(mode).expect("generation admitted");
            for (name, reply, content) in [
                ("first", first.poll_response(), cached),
                ("second", second.poll_response(), newest),
            ] {
                assert_eq!(reply.body.as_ptr(), content.xml.as_ptr(), "{mode:?} {name}");
                assert_eq!(reply.body.len(), content.xml.len(), "{mode:?} {name}");
            }
        }
    }
}
