//! Parses a Figure-4 document back into a [`NewContent`].
//!
//! This is the participant-side half: Ajax-Snippet's response processing
//! (paper Fig. 5) starts from the `responseXML` document, which this module
//! reconstructs from raw bytes.

use rcb_url::jsescape::unescape;
use rcb_util::{RcbError, Result};

use crate::model::{
    BodySplice, DeltaContent, DeltaTop, ElementPayload, NewContent, PollPayload, TopLevel,
};
use crate::scanner::{parse_document, XmlElement};

/// Parses the `application/xml` body of a polling response.
///
/// Returns `Ok(None)` for an empty body — the agent's "no new content"
/// signal (§4.1.1) — and `Ok(Some(..))` for a full newContent document.
pub fn parse_new_content(body: &str) -> Result<Option<NewContent>> {
    if body.trim().is_empty() {
        return Ok(None);
    }
    let root = parse_document(body)?;
    if root.name != "newContent" {
        return Err(RcbError::parse(
            "newContent",
            format!("unexpected root element {:?}", root.name),
        ));
    }
    new_content_from_root(&root).map(Some)
}

/// Parses a `deltaContent` document (the woken long-poll reply when the
/// acked generation is still in the server's delta ring).
///
/// Same empty-body convention as [`parse_new_content`].
pub fn parse_delta_content(body: &str) -> Result<Option<DeltaContent>> {
    if body.trim().is_empty() {
        return Ok(None);
    }
    let root = parse_document(body)?;
    if root.name != "deltaContent" {
        return Err(RcbError::parse(
            "deltaContent",
            format!("unexpected root element {:?}", root.name),
        ));
    }
    delta_content_from_root(&root).map(Some)
}

/// Parses either poll-reply document, dispatching on the root element:
/// `newContent` → [`PollPayload::Full`], `deltaContent` →
/// [`PollPayload::Delta`]. Empty body still means "no new content".
pub fn parse_poll_payload(body: &str) -> Result<Option<PollPayload>> {
    if body.trim().is_empty() {
        return Ok(None);
    }
    let root = parse_document(body)?;
    match root.name {
        "newContent" => new_content_from_root(&root).map(|nc| Some(PollPayload::Full(nc))),
        "deltaContent" => delta_content_from_root(&root).map(|dc| Some(PollPayload::Delta(dc))),
        other => Err(RcbError::parse(
            "pollPayload",
            format!("unexpected root element {other:?}"),
        )),
    }
}

fn new_content_from_root(root: &XmlElement) -> Result<NewContent> {
    let doc_time = parse_doc_time(root, "newContent", "docTime")?;
    let content = root
        .child("docContent")
        .ok_or_else(|| RcbError::parse("newContent", "missing docContent"))?;
    let head = content
        .child("docHead")
        .ok_or_else(|| RcbError::parse("newContent", "missing docHead"))?;
    let head_children = parse_head_children(head)?;
    let top = parse_top(content)?.ok_or_else(|| {
        RcbError::parse(
            "newContent",
            "docContent carries neither docBody nor docFrameSet",
        )
    })?;
    let user_actions = root
        .child("userActions")
        .map(|e| e.text().into_owned())
        .unwrap_or_default();
    Ok(NewContent {
        doc_time,
        head_children,
        top,
        user_actions,
    })
}

fn delta_content_from_root(root: &XmlElement) -> Result<DeltaContent> {
    let doc_time = parse_doc_time(root, "deltaContent", "docTime")?;
    let from_doc_time = parse_doc_time(root, "deltaContent", "fromDocTime")?;
    let content = root
        .child("docContent")
        .ok_or_else(|| RcbError::parse("deltaContent", "missing docContent"))?;
    // Unlike the full document, an absent docHead means "head unchanged".
    let head_children = content
        .child("docHead")
        .map(parse_head_children)
        .transpose()?;
    let top = match content.child("docBodySplice") {
        Some(splice) => Some(DeltaTop::BodySplice(parse_body_splice(splice)?)),
        None => parse_top(content)?.map(DeltaTop::Whole),
    };
    let user_actions = root
        .child("userActions")
        .map(|e| e.text().into_owned())
        .unwrap_or_default();
    Ok(DeltaContent {
        doc_time,
        from_doc_time,
        head_children,
        top,
        user_actions,
    })
}

fn parse_doc_time(root: &XmlElement, what: &'static str, name: &str) -> Result<u64> {
    root.child(name)
        .ok_or_else(|| RcbError::parse(what, format!("missing {name}")))?
        .text()
        .trim()
        .parse()
        .map_err(|_| RcbError::parse(what, format!("{name} is not an integer")))
}

fn parse_head_children(head: &XmlElement) -> Result<Vec<ElementPayload>> {
    let mut head_children = Vec::new();
    for (i, child) in head.child_elements().enumerate() {
        let expected = format!("hChild{}", i + 1);
        if child.name != expected {
            return Err(RcbError::parse(
                "newContent",
                format!("expected {expected}, found {}", child.name),
            ));
        }
        head_children.push(decode_payload(child)?);
    }
    Ok(head_children)
}

/// Parses the top-level slot of a `docContent` section; `Ok(None)` when
/// neither `docBody` nor `docFrameSet` is present (legal only in deltas).
fn parse_top(content: &XmlElement) -> Result<Option<TopLevel>> {
    if let Some(body_el) = content.child("docBody") {
        Ok(Some(TopLevel::Body(decode_payload(body_el)?)))
    } else if let Some(fs) = content.child("docFrameSet") {
        let noframes = content
            .child("docNoFrames")
            .map(decode_payload)
            .transpose()?;
        Ok(Some(TopLevel::Frames {
            frameset: decode_payload(fs)?,
            noframes,
        }))
    } else {
        Ok(None)
    }
}

/// Parses a `docBodySplice` element: its `at`, `drop` and `of`
/// attributes, and the escaped children in its CDATA. A splice must fit
/// its base (`at + drop <= of`).
fn parse_body_splice(el: &XmlElement) -> Result<BodySplice> {
    let number = |name: &str| -> Result<usize> {
        el.attrs
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| v.parse().ok())
            .ok_or_else(|| {
                RcbError::parse(
                    "deltaContent",
                    format!("docBodySplice needs a numeric {name}"),
                )
            })
    };
    let (at, drop, of) = (number("at")?, number("drop")?, number("of")?);
    if at.checked_add(drop).is_none_or(|end| end > of) {
        return Err(RcbError::parse(
            "deltaContent",
            format!("docBodySplice of {drop} children at {at} outside {of}"),
        ));
    }
    Ok(BodySplice {
        at,
        drop,
        of,
        inner_html: unescape(&el.text()),
    })
}

fn decode_payload(el: &XmlElement) -> Result<ElementPayload> {
    ElementPayload::decode(&unescape(&el.text()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::write_new_content;

    fn sample(top: TopLevel) -> NewContent {
        NewContent {
            doc_time: 1_244_937_600_555,
            head_children: vec![
                ElementPayload::new("title", "cnn.com — breaking <news> & more"),
                ElementPayload {
                    tag: "script".into(),
                    attrs: vec![("type".into(), "text/javascript".into())],
                    inner_html: "function f(a,b){return a<b && b>0;}".into(),
                },
            ],
            top,
            user_actions: "mouse:10,20".into(),
        }
    }

    #[test]
    fn roundtrip_body_page() {
        let nc = sample(TopLevel::Body(ElementPayload {
            tag: "body".into(),
            attrs: vec![("onload".into(), "boot()".into())],
            inner_html: "<p>café 地图 😀</p><!-- c --><form action=\"/s\"></form>".into(),
        }));
        let xml = write_new_content(&nc);
        let parsed = parse_new_content(&xml).unwrap().unwrap();
        assert_eq!(parsed, nc);
    }

    #[test]
    fn roundtrip_frames_page() {
        let nc = sample(TopLevel::Frames {
            frameset: ElementPayload {
                tag: "frameset".into(),
                attrs: vec![("rows".into(), "20%,80%".into())],
                inner_html: "<frame src=\"/top\"/><frame src=\"/main\"/>".into(),
            },
            noframes: None,
        });
        let parsed = parse_new_content(&write_new_content(&nc)).unwrap().unwrap();
        assert_eq!(parsed, nc);
    }

    #[test]
    fn empty_body_means_no_new_content() {
        assert_eq!(parse_new_content("").unwrap(), None);
        assert_eq!(parse_new_content("  \n ").unwrap(), None);
    }

    #[test]
    fn rejects_wrong_root_or_missing_parts() {
        assert!(parse_new_content("<other/>").is_err());
        assert!(parse_new_content("<newContent></newContent>").is_err());
        assert!(parse_new_content(
            "<newContent><docTime>zz</docTime><docContent><docHead></docHead><docBody><![CDATA[b\u{1}\u{1}]]></docBody></docContent></newContent>"
        )
        .is_err());
    }

    #[test]
    fn rejects_out_of_order_head_children() {
        let xml = "<newContent><docTime>1</docTime><docContent><docHead>\
                   <hChild2><![CDATA[title%01%01x]]></hChild2></docHead>\
                   <docBody><![CDATA[body%01%01y]]></docBody></docContent></newContent>";
        assert!(parse_new_content(xml).is_err());
    }

    #[test]
    fn delta_roundtrip_all_slot_combinations() {
        use crate::writer::write_delta_content;
        let nc = sample(TopLevel::Body(ElementPayload::new("body", "<p>v2</p>")));
        let whole = Some(DeltaTop::Whole(nc.top.clone()));
        let splice = Some(DeltaTop::BodySplice(BodySplice {
            at: 2,
            drop: 1,
            of: 5,
            inner_html: "<p>café</p>tail".into(),
        }));
        let combos = [
            (Some(nc.head_children.clone()), whole.clone()),
            (Some(nc.head_children.clone()), None),
            (None, whole),
            (None, None),
            (Some(nc.head_children.clone()), splice.clone()),
            (None, splice),
        ];
        for (head_children, top) in combos {
            let dc = DeltaContent {
                doc_time: 42,
                from_doc_time: 41,
                head_children,
                top,
                user_actions: "mouse:1,2".into(),
            };
            let xml = write_delta_content(&dc);
            assert_eq!(parse_delta_content(&xml).unwrap().unwrap(), dc);
            assert_eq!(
                parse_poll_payload(&xml).unwrap().unwrap(),
                PollPayload::Delta(dc)
            );
        }
    }

    #[test]
    fn poll_payload_dispatches_on_root() {
        let nc = sample(TopLevel::Body(ElementPayload::new("body", "x")));
        let xml = write_new_content(&nc);
        assert_eq!(
            parse_poll_payload(&xml).unwrap().unwrap(),
            PollPayload::Full(nc)
        );
        assert_eq!(parse_poll_payload("").unwrap(), None);
        assert_eq!(parse_poll_payload(" \n").unwrap(), None);
        assert!(parse_poll_payload("<other/>").is_err());
    }

    #[test]
    fn delta_rejects_missing_from_doc_time() {
        let xml = "<deltaContent><docTime>1</docTime><docContent></docContent></deltaContent>";
        assert!(parse_delta_content(xml).is_err());
        // And the full parser still refuses a delta root.
        assert!(parse_new_content(
            "<deltaContent><docTime>1</docTime><fromDocTime>0</fromDocTime>\
             <docContent></docContent></deltaContent>"
        )
        .is_err());
    }

    #[test]
    fn body_splices_must_name_a_run_of_their_base() {
        let splice = |attrs: &str| {
            format!(
                "<deltaContent><docTime>2</docTime><fromDocTime>1</fromDocTime>\
                 <docContent><docBodySplice {attrs}><![CDATA[%3Cp%3E]]></docBodySplice>\
                 </docContent></deltaContent>"
            )
        };
        let dc = parse_delta_content(&splice("at=\"1\" drop=\"2\" of=\"3\""))
            .unwrap()
            .unwrap();
        assert_eq!(
            dc.top,
            Some(DeltaTop::BodySplice(BodySplice {
                at: 1,
                drop: 2,
                of: 3,
                inner_html: "<p>".into()
            }))
        );
        for bad in [
            "at=\"2\" drop=\"2\" of=\"3\"",
            "at=\"1\" of=\"3\"",
            "at=\"x\" drop=\"0\" of=\"3\"",
            "at=\"-1\" drop=\"0\" of=\"3\"",
        ] {
            assert!(parse_delta_content(&splice(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn cdata_hostile_inner_html_survives() {
        // innerHTML containing a literal CDATA end marker and XML syntax.
        let nc = sample(TopLevel::Body(ElementPayload::new(
            "body",
            "x ]]> y <![CDATA[ z & <tag attr=\"v\">",
        )));
        let parsed = parse_new_content(&write_new_content(&nc)).unwrap().unwrap();
        assert_eq!(parsed, nc);
    }
}
