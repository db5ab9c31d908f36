//! Typed model of the newContent response.

use rcb_util::{RcbError, Result};

/// One transported element: its tag, attribute name-value list, and
/// innerHTML — the unit Figure 4 carries per `hChildN`/`docBody`/... slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElementPayload {
    /// Element tag name (`title`, `style`, `body`, `frameset`, ...).
    pub tag: String,
    /// Attribute name-value pairs in document order.
    pub attrs: Vec<(String, String)>,
    /// The element's innerHTML serialization.
    pub inner_html: String,
}

impl ElementPayload {
    /// Builds a payload with no attributes.
    pub fn new(tag: impl Into<String>, inner_html: impl Into<String>) -> Self {
        ElementPayload {
            tag: tag.into(),
            attrs: Vec::new(),
            inner_html: inner_html.into(),
        }
    }

    /// Encodes the payload into the paper's "attribute name-value list and
    /// innerHTML value" string form: `tag\u{1}name=value\u{2}...\u{1}inner`.
    ///
    /// The paper leaves the intra-CDATA framing unspecified (it is internal
    /// to RCB); this encoding uses control separators that cannot appear in
    /// HTML text, then the whole string is JS-escaped, so framing survives
    /// transport unambiguously.
    pub fn encode(&self) -> String {
        let mut s = String::with_capacity(self.inner_html.len() + 64);
        s.push_str(&self.tag);
        s.push('\u{1}');
        for (i, (name, value)) in self.attrs.iter().enumerate() {
            if i > 0 {
                s.push('\u{2}');
            }
            s.push_str(name);
            s.push('=');
            s.push_str(value);
        }
        s.push('\u{1}');
        s.push_str(&self.inner_html);
        s
    }

    /// Appends `escape(self.encode())` to `out` in a single pass, with no
    /// intermediate string: every component is JS-escaped straight into
    /// the output buffer (escaping is character-wise, so escaping the
    /// pieces equals escaping the concatenation). The separators escape to
    /// fixed sequences: `\u{1}` → `%01`, `\u{2}` → `%02`, `=` → `%3D`.
    ///
    /// This is the hot half of Fig.-4 XML assembly; the two-step
    /// `escape(&payload.encode())` remains as the reference the writer
    /// tests equate against.
    pub fn encode_escaped_into(&self, out: &mut String) {
        out.reserve(self.inner_html.len() + 64);
        self.encode_escaped_head_into(out);
        rcb_url::jsescape::escape_into(&self.inner_html, out);
    }

    /// The part of [`ElementPayload::encode_escaped_into`] before the
    /// innerHTML: the escaped tag and attribute list, each followed by
    /// its `%01` separator.
    pub fn encode_escaped_head_into(&self, out: &mut String) {
        encode_escaped_head_into(&self.tag, &self.attrs, out);
    }

    /// Decodes the [`ElementPayload::encode`] form.
    pub fn decode(s: &str) -> Result<ElementPayload> {
        let mut parts = s.splitn(3, '\u{1}');
        let tag = parts
            .next()
            .filter(|t| !t.is_empty())
            .ok_or_else(|| RcbError::parse("newContent", "missing tag"))?;
        let attrs_raw = parts
            .next()
            .ok_or_else(|| RcbError::parse("newContent", "missing attribute list"))?;
        let inner_html = parts
            .next()
            .ok_or_else(|| RcbError::parse("newContent", "missing innerHTML"))?;
        let attrs = if attrs_raw.is_empty() {
            Vec::new()
        } else {
            attrs_raw
                .split('\u{2}')
                .map(|kv| match kv.split_once('=') {
                    Some((k, v)) => Ok((k.to_string(), v.to_string())),
                    None => Err(RcbError::parse(
                        "newContent",
                        format!("malformed attribute {kv:?}"),
                    )),
                })
                .collect::<Result<Vec<_>>>()?
        };
        Ok(ElementPayload {
            tag: tag.to_string(),
            attrs,
            inner_html: inner_html.to_string(),
        })
    }
}

/// [`ElementPayload::encode_escaped_head_into`] for an element given as
/// its tag and attributes.
pub(crate) fn encode_escaped_head_into(tag: &str, attrs: &[(String, String)], out: &mut String) {
    use rcb_url::jsescape::escape_into;
    escape_into(tag, out);
    out.push_str("%01");
    for (i, (name, value)) in attrs.iter().enumerate() {
        if i > 0 {
            out.push_str("%02");
        }
        escape_into(name, out);
        out.push_str("%3D");
        escape_into(value, out);
    }
    out.push_str("%01");
}

/// The top-level (non-head) content of a page: either a body element, or a
/// frameset with an optional noframes fallback (paper §4.1.2: "their
/// top-level children may include a head element, a frameset element, and
/// probably a noframes element").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopLevel {
    /// Regular page: one `<body>`.
    Body(ElementPayload),
    /// Frame page: `<frameset>` plus optional `<noframes>`.
    Frames {
        /// The frameset element.
        frameset: ElementPayload,
        /// Optional noframes fallback.
        noframes: Option<ElementPayload>,
    },
}

/// A complete newContent response (Fig. 4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NewContent {
    /// Document timestamp: milliseconds since the Unix epoch (§4.1.1).
    pub doc_time: u64,
    /// Children of the document head, in DOM order.
    pub head_children: Vec<ElementPayload>,
    /// The page's top-level content.
    pub top: TopLevel,
    /// Additional browsing-action data (mouse-pointer movement etc.),
    /// already encoded by the action codec in `rcb-core`.
    pub user_actions: String,
}

/// A delta update between two published generations (`deltaContent`).
///
/// Mirrors [`NewContent`] but carries only the components that changed
/// since the generation stamped `from_doc_time`: a `None` slot means
/// "unchanged — keep what you have". The paper's Fig.-4 layout is reused
/// verbatim for the present slots, so a delta with both slots populated
/// is byte-equivalent in payload encoding to the full document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaContent {
    /// Document timestamp of the generation this delta produces.
    pub doc_time: u64,
    /// Document timestamp of the base generation the receiver must
    /// already hold for this delta to apply.
    pub from_doc_time: u64,
    /// Replacement head children, or `None` when the head is unchanged.
    pub head_children: Option<Vec<ElementPayload>>,
    /// Replacement top-level content, or `None` when unchanged.
    pub top: Option<DeltaTop>,
    /// Additional browsing-action data, as in [`NewContent`].
    pub user_actions: String,
}

/// The top-level component of a delta.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaTop {
    /// The whole component, as the full document carries it.
    Whole(TopLevel),
    /// A run of the body's top-level children, replaced; the body
    /// element's own attributes are unchanged.
    BodySplice(BodySplice),
}

/// A splice of the body's top-level children (`docBodySplice`): `drop`
/// children from child `at` on are replaced by the children
/// `inner_html` parses to. It applies only to a body of exactly `of`
/// children; any other body is not the base it was computed against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BodySplice {
    /// Index of the first replaced child.
    pub at: usize,
    /// How many children are replaced (0 for a pure insert).
    pub drop: usize,
    /// How many children the base body holds.
    pub of: usize,
    /// The serialization of the inserted children (empty for a pure
    /// removal).
    pub inner_html: String,
}

/// Either poll-reply document: the full Fig.-4 snapshot or a delta.
///
/// The participant can receive both on one connection (full XML on an
/// immediate reply or a ring miss, delta on a woken long-poll), so the
/// response parser dispatches on the root element name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PollPayload {
    /// A complete `newContent` snapshot.
    Full(NewContent),
    /// A `deltaContent` update against an acked base generation.
    Delta(DeltaContent),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_encode_decode_roundtrip() {
        let p = ElementPayload {
            tag: "body".into(),
            attrs: vec![
                ("class".into(), "home page".into()),
                ("onload".into(), "init()".into()),
            ],
            inner_html: "<div id=\"x\">hello &amp; bye</div>".into(),
        };
        assert_eq!(ElementPayload::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn payload_without_attrs() {
        let p = ElementPayload::new("title", "Google");
        let d = ElementPayload::decode(&p.encode()).unwrap();
        assert_eq!(d, p);
        assert!(d.attrs.is_empty());
    }

    #[test]
    fn decode_rejects_malformed() {
        assert!(ElementPayload::decode("").is_err());
        assert!(ElementPayload::decode("tagonly").is_err());
        assert!(ElementPayload::decode("t\u{1}badattr\u{1}x").is_err());
    }

    #[test]
    fn inner_html_may_contain_separator_free_controls() {
        let p = ElementPayload::new("style", "a>b { color: red; }\n/* ]]> inside */");
        assert_eq!(ElementPayload::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn streaming_escaped_encode_matches_two_step_reference() {
        let payloads = [
            ElementPayload::new("title", "Example <Home> & more"),
            ElementPayload {
                tag: "body".into(),
                attrs: vec![
                    ("class".into(), "home page".into()),
                    ("onload".into(), "init('café', 中)".into()),
                ],
                inner_html: "<div id=\"x\">hello 😀 =%01 literal</div>".into(),
            },
            ElementPayload::new("style", ""),
        ];
        for p in &payloads {
            let mut streamed = String::from("seed");
            p.encode_escaped_into(&mut streamed);
            let reference = format!("seed{}", rcb_url::jsescape::escape(&p.encode()));
            assert_eq!(streamed, reference, "payload {:?}", p.tag);
        }
    }
}
