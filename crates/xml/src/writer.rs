//! Serializes a [`NewContent`] into the exact Figure-4 document, and a
//! [`DeltaContent`] into the same layout with unchanged slots omitted.
//!
//! A document is written as three *sections* — the `docHead` block, the
//! top-level block (`docBody`, or `docFrameSet` plus an optional
//! `docNoFrames`) and the `userActions` line — inside a fixed framing.
//! The full document's writer reports where each section landed
//! ([`Sections`]), and, given the body child by child, where each
//! top-level body child's escaped bytes lie ([`BodyChildren`]).
//! [`splice_delta_content`] is the one writer of the `deltaContent`
//! framing: it copies sections, or a run of body children, verbatim,
//! either from a full document (a server building its deltas from its own
//! output) or from sections [`write_delta_content`] has just written.
//! [`write_new_content_parts`] writes a full document whose head and body
//! come in pieces: the head either as payloads to escape or as the
//! escaped `docHead` section of an earlier document, copied, and each
//! top-level body child either serialized HTML to escape or the escaped
//! bytes of the same child in an earlier document, copied.

use std::fmt::Write as _;
use std::ops::Range;
use std::sync::Arc;

use rcb_url::jsescape::escape_into;

use crate::model::{
    encode_escaped_head_into, BodySplice, DeltaContent, DeltaTop, ElementPayload, NewContent,
    TopLevel,
};
use crate::scanner::encode_text;

/// Byte ranges of the three sections within one written document. Each
/// range includes its section's trailing newline; a section the writer
/// omitted is an empty range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sections {
    /// The `<docHead>` block.
    pub head: Range<usize>,
    /// The top-level block, from its `<!-- for a page using ... -->`
    /// comment through `</docBody>` or the last of `</docFrameSet>` /
    /// `</docNoFrames>`.
    pub top: Range<usize>,
    /// The `<userActions>` line.
    pub user_actions: Range<usize>,
    /// Where the body's top-level children lie in the `docBody` CDATA:
    /// reported when the writer was given the body child by child
    /// ([`TopParts::Body`]), so never on a frameset page.
    pub body_children: Option<BodyChildren>,
}

/// Where a body's top-level children lie in a written document. JS
/// escaping is per character, so the escaped body is the concatenation of
/// its children's escaped bytes, and each child's are a range of the
/// document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BodyChildren {
    /// Where the first child's escaped bytes start. What the top-level
    /// section holds before it (the comment, the `docBody` open, the
    /// escaped tag and attributes) is the body element's own.
    pub start: usize,
    /// Where each child's escaped bytes end, in order. Shared, so the
    /// content and every snapshot built from it hold one copy.
    pub ends: Arc<[u32]>,
}

impl BodyChildren {
    /// Number of top-level body children.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the body has no children.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The bytes of children `children` (a run of indices, possibly
    /// empty) in the document.
    pub fn span(&self, children: Range<usize>) -> Range<usize> {
        let edge = |i: usize| match i {
            0 => self.start,
            i => self.ends[i - 1] as usize,
        };
        edge(children.start)..edge(children.end)
    }
}

/// What a spliced delta carries of the top-level component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopCopy {
    /// Nothing: the component is unchanged.
    Omit,
    /// The whole top-level section.
    Whole,
    /// A `docBodySplice` against a base body of `of` children: `drop`
    /// children from `at` on are replaced by the source's children from
    /// `at` on, `n - of + drop` of them for a source body of `n`.
    BodySplice {
        /// First replaced child.
        at: usize,
        /// Children replaced.
        drop: usize,
        /// Children of the base body.
        of: usize,
    },
}

/// The head as [`write_new_content_parts`] takes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeadParts<'a> {
    /// The head's child payloads, each JS-escaped into an `hChildN`
    /// CDATA section.
    Payloads(&'a [ElementPayload]),
    /// The whole `docHead` section as an earlier document holds it (its
    /// [`Sections::head`] bytes), already escaped: copied verbatim.
    Escaped(&'a str),
}

/// One top-level body child as [`write_new_content_parts`] takes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BodyChild<'a> {
    /// The child's serialized HTML, JS-escaped into the document.
    Raw(&'a str),
    /// The child's bytes as an earlier document holds them, already
    /// escaped: copied verbatim.
    Escaped(&'a str),
}

/// The top-level component [`write_new_content_parts`] writes.
#[derive(Debug, Clone, Copy)]
pub enum TopParts<'a> {
    /// A whole component: a frameset page, or a body whose children are
    /// not reported.
    Whole(&'a TopLevel),
    /// A body given as its element's tag and attributes and, in order,
    /// its top-level children; [`Sections::body_children`] says where
    /// each landed.
    Body {
        /// The body element's tag.
        tag: &'a str,
        /// The body element's attributes.
        attrs: &'a [(String, String)],
        /// Its top-level children.
        children: &'a [BodyChild<'a>],
    },
}

/// Writes the newContent document, matching the paper's Figure 4 layout
/// (XML declaration, `docTime`, `docContent` with per-head-child
/// `hChildN` CDATA sections, `docBody` or `docFrameSet`/`docNoFrames`,
/// and `userActions`).
pub fn write_new_content(nc: &NewContent) -> String {
    let head = HeadParts::Payloads(&nc.head_children);
    let top = TopParts::Whole(&nc.top);
    write_new_content_parts(nc.doc_time, head, top, &nc.user_actions).0
}

/// Writes a newContent document from its parts, returning it with the
/// byte range of each section. Equals [`write_new_content`] over the same
/// content: escaping is per character, so the escaped body is its
/// children's escaped bytes back to back, a child's escaped bytes are the
/// same wherever it stands, and an [`BodyChild::Escaped`] child copied
/// from an earlier document is the [`BodyChild::Raw`] child it was
/// written from. Likewise a [`HeadParts::Escaped`] head is the
/// `docHead` section written from the payloads it was copied for: the
/// section's framing is fixed.
///
/// Assembly is single-pass into one output buffer: each payload is
/// JS-escaped straight into it via
/// [`ElementPayload::encode_escaped_into`], with no per-child
/// `escape(&child.encode())` intermediates — the document is the only
/// allocation that grows.
pub fn write_new_content_parts(
    doc_time: u64,
    head: HeadParts<'_>,
    top: TopParts<'_>,
    user_actions: &str,
) -> (String, Sections) {
    let top = TopWrite::Parts(top);
    let mut out =
        String::with_capacity(sections_len_hint(Some(head), Some(&top), user_actions) + 128);
    out.push_str("<?xml version='1.0' encoding='utf-8'?>\n");
    out.push_str("<newContent>\n");
    let _ = writeln!(out, "<docTime>{doc_time}</docTime>");
    out.push_str("<docContent>\n");
    let sections = write_sections_into(&mut out, Some(head), Some(top), user_actions);
    out.push_str("</newContent>\n");
    (out, sections)
}

/// Writes the deltaContent document: same Fig.-4 framing as
/// [`write_new_content`] plus `fromDocTime`, with the `docHead` and
/// top-level sections *omitted entirely* when that slot is unchanged. A
/// whole top-level component is written as in the full document, so a
/// fully populated delta differs from the full document only in the root
/// element name and the extra timestamp line; a body splice is one
/// `docBodySplice` element around the escaped inserted children.
///
/// The typed entry point: it writes the sections the delta carries, then
/// frames them with [`splice_delta_content`].
pub fn write_delta_content(dc: &DeltaContent) -> String {
    let head = dc.head_children.as_deref().map(HeadParts::Payloads);
    let top = dc.top.as_ref().map(|top| match top {
        DeltaTop::Whole(top) => TopWrite::Parts(TopParts::Whole(top)),
        DeltaTop::BodySplice(splice) => TopWrite::Splice(splice),
    });
    let mut src = String::with_capacity(sections_len_hint(head, top.as_ref(), &dc.user_actions));
    let sections = write_sections_into(&mut src, head, top, &dc.user_actions);
    // An omitted section is an empty range: copying it copies nothing.
    splice_delta_content(
        &src,
        &sections,
        dc.doc_time,
        dc.from_doc_time,
        true,
        TopCopy::Whole,
    )
}

/// Writes a deltaContent document whose sections are copied verbatim from
/// `src`: the head section when `head` is set, the top-level component as
/// `top` says, and always the `userActions` line. `sections` must be the
/// ranges the writer reported for `src`, with body children for a
/// [`TopCopy::BodySplice`] that fits them (anything else panics).
///
/// Copying is exact because the framing around a section is fixed and
/// JS escaping is injective and per character: equal section bytes mean
/// equal payloads, so a delta spliced from a full document equals
/// [`write_delta_content`] over that document's parsed payloads (for a
/// body splice, over the inserted children's serialization).
pub fn splice_delta_content(
    src: &str,
    sections: &Sections,
    doc_time: u64,
    from_doc_time: u64,
    head: bool,
    top: TopCopy,
) -> String {
    let head = if head {
        &src[sections.head.clone()]
    } else {
        ""
    };
    let (top, splice) = match top {
        TopCopy::Omit => ("", None),
        TopCopy::Whole => (&src[sections.top.clone()], None),
        TopCopy::BodySplice { at, drop, of } => {
            let children = sections
                .body_children
                .as_ref()
                .expect("a body splice copies from a document with body children");
            let inserted = (children.len() + drop)
                .checked_sub(of)
                .expect("a splice keeps no more children than the source has");
            (&src[children.span(at..at + inserted)], Some((at, drop, of)))
        }
    };
    let user_actions = &src[sections.user_actions.clone()];
    let mut out = String::with_capacity(head.len() + top.len() + user_actions.len() + 256);
    out.push_str("<?xml version='1.0' encoding='utf-8'?>\n");
    out.push_str("<deltaContent>\n");
    let _ = writeln!(out, "<docTime>{doc_time}</docTime>");
    let _ = writeln!(out, "<fromDocTime>{from_doc_time}</fromDocTime>");
    out.push_str("<docContent>\n");
    out.push_str(head);
    match splice {
        Some((at, drop, of)) => write_splice_element(&mut out, at, drop, of, |out| {
            out.push_str(top);
        }),
        None => out.push_str(top),
    }
    out.push_str("</docContent>\n");
    out.push_str(user_actions);
    out.push_str("</deltaContent>\n");
    out
}

/// The top-level component a writer writes: a full document's, or a
/// body splice.
enum TopWrite<'a> {
    Parts(TopParts<'a>),
    Splice(&'a BodySplice),
}

/// Appends the head and top-level sections (each only when given), the
/// `</docContent>` close and the `userActions` line to `out`, returning
/// where each section landed.
fn write_sections_into(
    out: &mut String,
    head: Option<HeadParts<'_>>,
    top: Option<TopWrite<'_>>,
    user_actions: &str,
) -> Sections {
    let start = out.len();
    match head {
        Some(HeadParts::Payloads(head_children)) => write_head_into(out, head_children),
        Some(HeadParts::Escaped(bytes)) => out.push_str(bytes),
        None => {}
    }
    let head = start..out.len();
    let body_children = match top {
        Some(TopWrite::Parts(top)) => write_top_into(out, top),
        Some(TopWrite::Splice(splice)) => {
            write_splice_element(out, splice.at, splice.drop, splice.of, |out| {
                escape_into(&splice.inner_html, out);
            });
            None
        }
        None => None,
    };
    let top = head.end..out.len();
    out.push_str("</docContent>\n");
    let actions_start = out.len();
    out.push_str("<userActions>");
    out.push_str(&encode_text(user_actions));
    out.push_str("</userActions>\n");
    Sections {
        head,
        top,
        user_actions: actions_start..out.len(),
        body_children,
    }
}

/// Capacity estimate for [`write_sections_into`]: escaping inflates HTML
/// payloads by roughly 2×, and starting near the final size keeps the
/// buffer from reallocating log(n) times.
fn sections_len_hint(
    head: Option<HeadParts<'_>>,
    top: Option<&TopWrite<'_>>,
    user_actions: &str,
) -> usize {
    // Escaped sections and children are copied as they are: they count
    // once.
    let head = match head {
        Some(HeadParts::Payloads(hc)) => 2 * hc.iter().map(payload_len).sum::<usize>(),
        Some(HeadParts::Escaped(bytes)) => bytes.len(),
        None => 0,
    };
    let top = match top {
        Some(TopWrite::Parts(TopParts::Whole(TopLevel::Body(b)))) => 2 * payload_len(b),
        Some(TopWrite::Parts(TopParts::Whole(TopLevel::Frames { frameset, noframes }))) => {
            2 * (payload_len(frameset) + noframes.as_ref().map_or(0, payload_len))
        }
        Some(TopWrite::Parts(TopParts::Body {
            tag,
            attrs,
            children,
        })) => {
            let own: usize = attrs.iter().map(|(n, v)| n.len() + v.len() + 4).sum();
            let children: usize = children
                .iter()
                .map(|child| match child {
                    BodyChild::Raw(html) => 2 * html.len(),
                    BodyChild::Escaped(bytes) => bytes.len(),
                })
                .sum();
            2 * (tag.len() + own) + children + 128
        }
        Some(TopWrite::Splice(splice)) => 2 * (splice.inner_html.len() + 64),
        None => 0,
    };
    head + top + user_actions.len() + 384
}

fn write_head_into(out: &mut String, head_children: &[ElementPayload]) {
    out.push_str("<docHead>\n");
    for (i, child) in head_children.iter().enumerate() {
        let _ = write!(out, "<hChild{}><![CDATA[", i + 1);
        child.encode_escaped_into(out);
        let _ = writeln!(out, "]]></hChild{}>", i + 1);
    }
    out.push_str("</docHead>\n");
}

/// Writes a whole top-level component; for a body given child by child,
/// escapes or copies each child and returns where the children landed.
fn write_top_into(out: &mut String, top: TopParts<'_>) -> Option<BodyChildren> {
    match top {
        TopParts::Body {
            tag,
            attrs,
            children,
        } => {
            out.push_str("<!-- for a page using body element -->\n");
            out.push_str("<docBody><![CDATA[");
            encode_escaped_head_into(tag, attrs, out);
            let start = out.len();
            let mut escaped_ends = Vec::with_capacity(children.len());
            for child in children {
                match child {
                    BodyChild::Raw(html) => escape_into(html, out),
                    BodyChild::Escaped(bytes) => out.push_str(bytes),
                }
                escaped_ends.push(u32::try_from(out.len()).ok());
            }
            out.push_str("]]></docBody>\n");
            let ends: Option<Arc<[u32]>> = escaped_ends.into_iter().collect();
            ends.map(|ends| BodyChildren { start, ends })
        }
        TopParts::Whole(TopLevel::Body(body)) => {
            out.push_str("<!-- for a page using body element -->\n");
            out.push_str("<docBody><![CDATA[");
            body.encode_escaped_into(out);
            out.push_str("]]></docBody>\n");
            None
        }
        TopParts::Whole(TopLevel::Frames { frameset, noframes }) => {
            out.push_str("<!-- for a page using frames -->\n");
            out.push_str("<docFrameSet><![CDATA[");
            frameset.encode_escaped_into(out);
            out.push_str("]]></docFrameSet>\n");
            if let Some(nf) = noframes {
                out.push_str("<docNoFrames><![CDATA[");
                nf.encode_escaped_into(out);
                out.push_str("]]></docNoFrames>\n");
            }
            None
        }
    }
}

/// Writes one `docBodySplice` element; `children` writes its escaped
/// children into the CDATA.
fn write_splice_element(
    out: &mut String,
    at: usize,
    drop: usize,
    of: usize,
    children: impl FnOnce(&mut String),
) {
    let _ = write!(
        out,
        "<docBodySplice at=\"{at}\" drop=\"{drop}\" of=\"{of}\"><![CDATA["
    );
    children(out);
    out.push_str("]]></docBodySplice>\n");
}

fn payload_len(p: &ElementPayload) -> usize {
    p.inner_html.len() + p.tag.len() + 64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{BodySplice, ElementPayload};
    use rcb_url::jsescape::escape;

    fn sample() -> NewContent {
        NewContent {
            doc_time: 1_244_937_600_123,
            head_children: vec![
                ElementPayload::new("title", "Example Home"),
                ElementPayload {
                    tag: "style".into(),
                    attrs: vec![("type".into(), "text/css".into())],
                    inner_html: "body { margin: 0; }".into(),
                },
            ],
            top: TopLevel::Body(ElementPayload {
                tag: "body".into(),
                attrs: vec![("class".into(), "home".into())],
                inner_html: "<div id=\"main\">hello</div>".into(),
            }),
            user_actions: String::new(),
        }
    }

    #[test]
    fn output_matches_figure4_shape() {
        let xml = write_new_content(&sample());
        assert!(xml.starts_with("<?xml version='1.0' encoding='utf-8'?>"));
        assert!(xml.contains("<newContent>"));
        assert!(xml.contains("<docTime>1244937600123</docTime>"));
        assert!(xml.contains("<hChild1><![CDATA["));
        assert!(xml.contains("<hChild2><![CDATA["));
        assert!(xml.contains("<!-- for a page using body element -->"));
        assert!(xml.contains("<docBody><![CDATA["));
        assert!(xml.contains("<userActions></userActions>"));
        assert!(xml.trim_end().ends_with("</newContent>"));
    }

    #[test]
    fn frames_variant_uses_frameset_elements() {
        let nc = NewContent {
            doc_time: 1,
            head_children: vec![],
            top: TopLevel::Frames {
                frameset: ElementPayload {
                    tag: "frameset".into(),
                    attrs: vec![("cols".into(), "50%,50%".into())],
                    inner_html: "<frame src=\"a\"/><frame src=\"b\"/>".into(),
                },
                noframes: Some(ElementPayload::new("noframes", "frames required")),
            },
            user_actions: "none".into(),
        };
        let xml = write_new_content(&nc);
        assert!(xml.contains("<docFrameSet><![CDATA["));
        assert!(xml.contains("<docNoFrames><![CDATA["));
        assert!(!xml.contains("<docBody>"));
    }

    #[test]
    fn delta_omits_unchanged_slots() {
        let full = sample();
        let head_only = DeltaContent {
            doc_time: 10,
            from_doc_time: 9,
            head_children: Some(full.head_children.clone()),
            top: None,
            user_actions: String::new(),
        };
        let xml = write_delta_content(&head_only);
        assert!(xml.contains("<deltaContent>"));
        assert!(xml.contains("<docTime>10</docTime>"));
        assert!(xml.contains("<fromDocTime>9</fromDocTime>"));
        assert!(xml.contains("<docHead>"));
        assert!(!xml.contains("<docBody>"));
        assert!(!xml.contains("<docFrameSet>"));

        let top_only = DeltaContent {
            doc_time: 10,
            from_doc_time: 9,
            head_children: None,
            top: Some(DeltaTop::Whole(full.top.clone())),
            user_actions: "a".into(),
        };
        let xml = write_delta_content(&top_only);
        assert!(!xml.contains("<docHead>"));
        assert!(xml.contains("<docBody><![CDATA["));
    }

    #[test]
    fn full_delta_reuses_figure4_section_bytes() {
        // A delta carrying both slots emits the exact section bytes of the
        // full document — only the root name and fromDocTime line differ.
        let nc = sample();
        let dc = DeltaContent {
            doc_time: nc.doc_time,
            from_doc_time: 7,
            head_children: Some(nc.head_children.clone()),
            top: Some(DeltaTop::Whole(nc.top.clone())),
            user_actions: nc.user_actions.clone(),
        };
        let full = write_new_content(&nc);
        let delta = write_delta_content(&dc);
        let section = |xml: &str| {
            let s = xml.find("<docContent>").unwrap();
            let e = xml.find("</docContent>").unwrap();
            xml[s..e].to_string()
        };
        assert_eq!(section(&full), section(&delta));
    }

    #[test]
    fn payloads_are_js_escaped_inside_cdata() {
        let xml = write_new_content(&sample());
        // "<div" must appear escaped (%3Cdiv), never raw inside the CDATA.
        assert!(xml.contains("%3Cdiv"));
        // The raw CDATA terminator cannot be produced by escaped payloads.
        let inner = xml.split("<docBody><![CDATA[").nth(1).unwrap();
        let payload = inner.split("]]>").next().unwrap();
        assert!(!payload.contains('<'));
    }

    /// [`write_new_content_parts`] over `nc`, its body given child by
    /// child when `ends` (where each child ends in the innerHTML) are.
    fn write_with_ends(nc: &NewContent, ends: Option<&[usize]>) -> (String, Sections) {
        let (TopLevel::Body(body), Some(ends)) = (&nc.top, ends) else {
            let top = TopParts::Whole(&nc.top);
            let head = HeadParts::Payloads(&nc.head_children);
            return write_new_content_parts(nc.doc_time, head, top, &nc.user_actions);
        };
        let starts = std::iter::once(0).chain(ends.iter().copied());
        let children: Vec<BodyChild<'_>> = starts
            .zip(ends)
            .map(|(start, &end)| BodyChild::Raw(&body.inner_html[start..end]))
            .collect();
        let top = TopParts::Body {
            tag: &body.tag,
            attrs: &body.attrs,
            children: &children,
        };
        let head = HeadParts::Payloads(&nc.head_children);
        write_new_content_parts(nc.doc_time, head, top, &nc.user_actions)
    }

    /// A body payload made of `children`, and where each child ends in
    /// its innerHTML.
    fn body_of(attrs: &[(&str, &str)], children: &[&str]) -> (TopLevel, Vec<usize>) {
        let ends = children
            .iter()
            .scan(0, |end, c| {
                *end += c.len();
                Some(*end)
            })
            .collect();
        let body = ElementPayload {
            tag: "body".into(),
            attrs: attrs
                .iter()
                .map(|(n, v)| (n.to_string(), v.to_string()))
                .collect(),
            inner_html: children.concat(),
        };
        (TopLevel::Body(body), ends)
    }

    /// Documents whose sections a splice must copy exactly, with the body's
    /// child boundaries (none for a frameset page): a frameset page with
    /// and without `noframes`, CDATA-hostile and non-ASCII payloads, an
    /// empty body, and a `userActions` string that needs XML escaping.
    fn splice_corpus() -> Vec<(NewContent, Option<Vec<usize>>)> {
        let frames = |noframes| NewContent {
            doc_time: 5,
            head_children: vec![ElementPayload::new("title", "frames")],
            top: TopLevel::Frames {
                frameset: ElementPayload {
                    tag: "frameset".into(),
                    attrs: vec![("rows".into(), "20%,*".into())],
                    inner_html: "<frame src=\"nav\"/><frame src=\"main\"/>".into(),
                },
                noframes,
            },
            user_actions: String::new(),
        };
        let with_body = |nc: NewContent, (top, ends): (TopLevel, Vec<usize>)| {
            (NewContent { top, ..nc }, Some(ends))
        };
        vec![
            with_body(
                sample(),
                body_of(&[("class", "home")], &["<div id=\"main\">hello</div>"]),
            ),
            (
                frames(Some(ElementPayload::new("noframes", "frames required"))),
                None,
            ),
            (frames(None), None),
            with_body(
                NewContent {
                    head_children: vec![ElementPayload::new(
                        "script",
                        "if (a[b[0]]>c) { s = '<![CDATA[x]]>'; }",
                    )],
                    ..sample()
                },
                body_of(&[], &["<p>]]></p>", "<![CDATA[<b>]]]]>", "<![CDATA[>"]),
            ),
            with_body(
                NewContent {
                    head_children: vec![ElementPayload::new("title", "Grüße — 日本語 🎉")],
                    ..sample()
                },
                body_of(
                    &[("data-naïve", "ñ=ü")],
                    &["<p>café ", "☕ \u{1}", "\u{2}</p>", "🎉"],
                ),
            ),
            with_body(sample(), body_of(&[], &[])),
            with_body(
                NewContent {
                    user_actions: "mouse|<3|&>|a&amp;b]]>".into(),
                    ..sample()
                },
                body_of(&[], &["<p>a</p>", "text", "<!-- c -->", "<i>z</i>"]),
            ),
        ]
    }

    #[test]
    fn sections_cover_exactly_their_blocks() {
        for (nc, ends) in splice_corpus() {
            let (xml, s) = write_with_ends(&nc, ends.as_deref());
            assert_eq!(xml, write_new_content(&nc));
            let head = &xml[s.head.clone()];
            assert!(head.starts_with("<docHead>\n") && head.ends_with("</docHead>\n"));
            assert_eq!(s.head.end, s.top.start, "head and top are adjacent");
            let top = &xml[s.top.clone()];
            let last = match &nc.top {
                TopLevel::Body(_) => "</docBody>\n",
                TopLevel::Frames { noframes: None, .. } => "</docFrameSet>\n",
                TopLevel::Frames {
                    noframes: Some(_), ..
                } => "</docNoFrames>\n",
            };
            assert!(top.starts_with("<!-- for a page using ") && top.ends_with(last));
            assert_eq!(
                xml[s.user_actions.clone()],
                format!(
                    "<userActions>{}</userActions>\n",
                    encode_text(&nc.user_actions)
                )
            );
            assert_eq!(&xml[s.top.end..s.user_actions.start], "</docContent>\n");

            // Each body child's escaped bytes, back to back from the end
            // of the body's own tag and attributes to the CDATA's end.
            let (TopLevel::Body(body), Some(ends)) = (&nc.top, ends) else {
                assert_eq!(s.body_children, None);
                continue;
            };
            let children = s.body_children.expect("body children reported");
            let mut own =
                String::from("<!-- for a page using body element -->\n<docBody><![CDATA[");
            body.encode_escaped_head_into(&mut own);
            assert_eq!(&xml[s.top.start..children.start], own);
            assert_eq!(children.len(), ends.len());
            let mut from = 0;
            for (i, &end) in ends.iter().enumerate() {
                let child = &body.inner_html[from..end];
                assert_eq!(xml[children.span(i..i + 1)], escape(child), "child {i}");
                from = end;
            }
            let all = children.span(0..children.len());
            assert_eq!(&xml[all.end..s.top.end], "]]></docBody>\n");
        }
    }

    /// A document written from pieces, its head and some body children
    /// copied escaped from an earlier document, equals the document
    /// written whole, and its sections and children land where the whole
    /// writer put them.
    #[test]
    fn escaped_head_and_children_copy_into_the_same_document() {
        for (nc, ends) in splice_corpus() {
            let (xml, sections) = write_with_ends(&nc, ends.as_deref());
            let heads = [
                HeadParts::Payloads(&nc.head_children),
                HeadParts::Escaped(&xml[sections.head.clone()]),
            ];
            let (TopLevel::Body(body), Some(ends)) = (&nc.top, ends) else {
                for head in heads {
                    let top = TopParts::Whole(&nc.top);
                    let parts = write_new_content_parts(nc.doc_time, head, top, &nc.user_actions);
                    assert_eq!(parts, (xml.clone(), sections.clone()), "{head:?}");
                }
                continue;
            };
            let children = sections.body_children.as_ref().expect("children reported");
            let raw: Vec<&str> = std::iter::once(0)
                .chain(ends.iter().copied())
                .zip(ends.iter().copied())
                .map(|(from, end)| &body.inner_html[from..end])
                .collect();
            for (copy_every, head) in (1..=3).flat_map(|n| heads.map(|head| (n, head))) {
                let pieces: Vec<BodyChild<'_>> = (0..raw.len())
                    .map(|i| match i % copy_every {
                        0 => BodyChild::Escaped(&xml[children.span(i..i + 1)]),
                        _ => BodyChild::Raw(raw[i]),
                    })
                    .collect();
                let top = TopParts::Body {
                    tag: &body.tag,
                    attrs: &body.attrs,
                    children: &pieces,
                };
                let parts = write_new_content_parts(nc.doc_time, head, top, &nc.user_actions);
                assert_eq!(
                    parts,
                    (xml.clone(), sections.clone()),
                    "copy every {copy_every}, {head:?}"
                );
            }
        }
    }

    #[test]
    fn spliced_deltas_equal_the_typed_writer() {
        for (nc, ends) in splice_corpus() {
            let (xml, sections) = write_with_ends(&nc, ends.as_deref());
            let mut tops = vec![
                (TopCopy::Omit, None),
                (TopCopy::Whole, Some(DeltaTop::Whole(nc.top.clone()))),
            ];
            // Every run of the body's children, inserted in place of 0–2
            // children of a base.
            if let (TopLevel::Body(body), Some(ends)) = (&nc.top, &ends) {
                let edge = |i: usize| if i == 0 { 0 } else { ends[i - 1] };
                let n = ends.len();
                for at in 0..=n {
                    for inserted in 0..=n - at {
                        for drop in 0..=2 {
                            let of = n - inserted + drop;
                            let splice = BodySplice {
                                at,
                                drop,
                                of,
                                inner_html: body.inner_html[edge(at)..edge(at + inserted)]
                                    .to_string(),
                            };
                            tops.push((
                                TopCopy::BodySplice { at, drop, of },
                                Some(DeltaTop::BodySplice(splice)),
                            ));
                        }
                    }
                }
            }
            for head in [false, true] {
                for (copy, top) in &tops {
                    let dc = DeltaContent {
                        doc_time: nc.doc_time,
                        from_doc_time: 3,
                        head_children: head.then(|| nc.head_children.clone()),
                        top: top.clone(),
                        user_actions: nc.user_actions.clone(),
                    };
                    let spliced =
                        splice_delta_content(&xml, &sections, nc.doc_time, 3, head, *copy);
                    assert_eq!(
                        spliced,
                        write_delta_content(&dc),
                        "head={head} top={copy:?}"
                    );
                    let parsed = crate::reader::parse_delta_content(&spliced)
                        .unwrap()
                        .unwrap();
                    assert_eq!(parsed, dc, "head={head} top={copy:?}");
                }
            }
        }
    }
}
