//! Serializes a [`NewContent`] into the exact Figure-4 document, and a
//! [`DeltaContent`] into the same layout with unchanged slots omitted.
//!
//! A document is written as three *sections* — the `docHead` block, the
//! top-level block (`docBody`, or `docFrameSet` plus an optional
//! `docNoFrames`) and the `userActions` line — inside a fixed framing.
//! The full document's writer reports where each section landed
//! ([`Sections`]), and [`splice_delta_content`] is the one writer of the
//! `deltaContent` framing: it copies sections verbatim, either from a
//! full document (a server building its deltas from its own output) or
//! from sections [`write_delta_content`] has just written.

use std::fmt::Write as _;
use std::ops::Range;

use crate::model::{DeltaContent, ElementPayload, NewContent, TopLevel};
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
}

/// Writes the newContent document, matching the paper's Figure 4 layout
/// (XML declaration, `docTime`, `docContent` with per-head-child
/// `hChildN` CDATA sections, `docBody` or `docFrameSet`/`docNoFrames`,
/// and `userActions`).
pub fn write_new_content(nc: &NewContent) -> String {
    write_new_content_with_sections(nc).0
}

/// [`write_new_content`], also returning the byte range of each section
/// in the document.
///
/// Assembly is single-pass into one output buffer: each payload is
/// JS-escaped straight into it via
/// [`ElementPayload::encode_escaped_into`], with no per-child
/// `escape(&child.encode())` intermediates — the document is the only
/// allocation that grows.
pub fn write_new_content_with_sections(nc: &NewContent) -> (String, Sections) {
    let mut out = String::with_capacity(
        sections_len_hint(Some(&nc.head_children), Some(&nc.top), &nc.user_actions) + 128,
    );
    out.push_str("<?xml version='1.0' encoding='utf-8'?>\n");
    out.push_str("<newContent>\n");
    let _ = writeln!(out, "<docTime>{}</docTime>", nc.doc_time);
    out.push_str("<docContent>\n");
    let sections = write_sections_into(
        &mut out,
        Some(&nc.head_children),
        Some(&nc.top),
        &nc.user_actions,
    );
    out.push_str("</newContent>\n");
    (out, sections)
}

/// Writes the deltaContent document: same Fig.-4 framing as
/// [`write_new_content`] plus `fromDocTime`, with the `docHead` and
/// `docBody`/`docFrameSet` sections *omitted entirely* when that slot is
/// unchanged. A fully populated delta therefore differs from the full
/// document only in the root element name and the extra timestamp line.
///
/// The typed entry point: it writes the sections the delta carries, then
/// frames them with [`splice_delta_content`].
pub fn write_delta_content(dc: &DeltaContent) -> String {
    let head = dc.head_children.as_deref();
    let top = dc.top.as_ref();
    let mut src = String::with_capacity(sections_len_hint(head, top, &dc.user_actions));
    let sections = write_sections_into(&mut src, head, top, &dc.user_actions);
    splice_delta_content(&src, &sections, dc.doc_time, dc.from_doc_time, true, true)
}

/// Writes a deltaContent document whose sections are copied verbatim from
/// `src`: the head section when `head` is set, the top-level section when
/// `top` is set, and always the `userActions` line. `sections` must be
/// the ranges the writer reported for `src` (a range outside it panics).
///
/// Copying is exact because the framing around a section is fixed and
/// JS escaping is injective: equal section bytes mean equal payloads, so
/// a delta spliced from a full document equals [`write_delta_content`]
/// over that document's parsed payloads.
pub fn splice_delta_content(
    src: &str,
    sections: &Sections,
    doc_time: u64,
    from_doc_time: u64,
    head: bool,
    top: bool,
) -> String {
    let head = if head {
        &src[sections.head.clone()]
    } else {
        ""
    };
    let top = if top { &src[sections.top.clone()] } else { "" };
    let user_actions = &src[sections.user_actions.clone()];
    let mut out = String::with_capacity(head.len() + top.len() + user_actions.len() + 192);
    out.push_str("<?xml version='1.0' encoding='utf-8'?>\n");
    out.push_str("<deltaContent>\n");
    let _ = writeln!(out, "<docTime>{doc_time}</docTime>");
    let _ = writeln!(out, "<fromDocTime>{from_doc_time}</fromDocTime>");
    out.push_str("<docContent>\n");
    out.push_str(head);
    out.push_str(top);
    out.push_str("</docContent>\n");
    out.push_str(user_actions);
    out.push_str("</deltaContent>\n");
    out
}

/// Appends the head and top-level sections (each only when given), the
/// `</docContent>` close and the `userActions` line to `out`, returning
/// where each section landed.
fn write_sections_into(
    out: &mut String,
    head: Option<&[ElementPayload]>,
    top: Option<&TopLevel>,
    user_actions: &str,
) -> Sections {
    let start = out.len();
    if let Some(head_children) = head {
        write_head_into(out, head_children);
    }
    let head = start..out.len();
    if let Some(top) = top {
        write_top_into(out, top);
    }
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
    }
}

/// Capacity estimate for [`write_sections_into`]: escaping inflates HTML
/// payloads by roughly 2×, and starting near the final size keeps the
/// buffer from reallocating log(n) times.
fn sections_len_hint(
    head: Option<&[ElementPayload]>,
    top: Option<&TopLevel>,
    user_actions: &str,
) -> usize {
    let payload_bytes: usize = head.map_or(0, |hc| hc.iter().map(payload_len).sum())
        + match top {
            Some(TopLevel::Body(b)) => payload_len(b),
            Some(TopLevel::Frames { frameset, noframes }) => {
                payload_len(frameset) + noframes.as_ref().map_or(0, payload_len)
            }
            None => 0,
        };
    2 * payload_bytes + user_actions.len() + 384
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

fn write_top_into(out: &mut String, top: &TopLevel) {
    match top {
        TopLevel::Body(body) => {
            out.push_str("<!-- for a page using body element -->\n");
            out.push_str("<docBody><![CDATA[");
            body.encode_escaped_into(out);
            out.push_str("]]></docBody>\n");
        }
        TopLevel::Frames { frameset, noframes } => {
            out.push_str("<!-- for a page using frames -->\n");
            out.push_str("<docFrameSet><![CDATA[");
            frameset.encode_escaped_into(out);
            out.push_str("]]></docFrameSet>\n");
            if let Some(nf) = noframes {
                out.push_str("<docNoFrames><![CDATA[");
                nf.encode_escaped_into(out);
                out.push_str("]]></docNoFrames>\n");
            }
        }
    }
}

fn payload_len(p: &ElementPayload) -> usize {
    p.inner_html.len() + p.tag.len() + 64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ElementPayload;

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
            top: Some(full.top.clone()),
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
            top: Some(nc.top.clone()),
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

    /// Documents whose sections a splice must copy exactly: a frameset
    /// page with and without `noframes`, CDATA-hostile and non-ASCII
    /// payloads, and a `userActions` string that needs XML escaping.
    fn splice_corpus() -> Vec<NewContent> {
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
        vec![
            sample(),
            frames(Some(ElementPayload::new("noframes", "frames required"))),
            frames(None),
            NewContent {
                head_children: vec![ElementPayload::new(
                    "script",
                    "if (a[b[0]]>c) { s = '<![CDATA[x]]>'; }",
                )],
                top: TopLevel::Body(ElementPayload::new(
                    "body",
                    "<p>]]></p><![CDATA[<b>]]]]><![CDATA[>",
                )),
                ..sample()
            },
            NewContent {
                head_children: vec![ElementPayload::new("title", "Grüße — 日本語 🎉")],
                top: TopLevel::Body(ElementPayload {
                    tag: "body".into(),
                    attrs: vec![("data-naïve".into(), "ñ=ü".into())],
                    inner_html: "<p>café ☕ \u{1}\u{2}</p>".into(),
                }),
                ..sample()
            },
            NewContent {
                user_actions: "mouse|<3|&>|a&amp;b]]>".into(),
                ..sample()
            },
        ]
    }

    #[test]
    fn sections_cover_exactly_their_blocks() {
        for nc in splice_corpus() {
            let (xml, s) = write_new_content_with_sections(&nc);
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
        }
    }

    #[test]
    fn spliced_deltas_equal_the_typed_writer() {
        for nc in splice_corpus() {
            let (xml, sections) = write_new_content_with_sections(&nc);
            for (head, top) in [(false, false), (true, false), (false, true), (true, true)] {
                let dc = DeltaContent {
                    doc_time: nc.doc_time,
                    from_doc_time: 3,
                    head_children: head.then(|| nc.head_children.clone()),
                    top: top.then(|| nc.top.clone()),
                    user_actions: nc.user_actions.clone(),
                };
                let spliced = splice_delta_content(&xml, &sections, nc.doc_time, 3, head, top);
                assert_eq!(spliced, write_delta_content(&dc), "head={head} top={top}");
                let parsed = crate::reader::parse_delta_content(&spliced)
                    .unwrap()
                    .unwrap();
                assert_eq!(parsed, dc, "head={head} top={top}");
            }
        }
    }
}
