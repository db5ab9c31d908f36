//! A minimal XML scanner.
//!
//! Ajax-Snippet receives the newContent document as `responseXML`; on the
//! participant side we must actually parse the bytes that crossed the wire.
//! This scanner handles exactly what the format needs: the XML declaration,
//! elements with optional attributes, character data, CDATA sections, and
//! comments. It is not a general XML parser (no DTDs, namespaces, or
//! processing instructions beyond the declaration).
//!
//! The tree borrows from the input: every delimiter the scanner stops at
//! is ASCII, so names, attribute values, text and CDATA sections are
//! slices of the input `&str` and need no copy or re-validation. Only
//! text or attribute values that hold entity references are decoded into
//! owned strings. A CDATA section ends at the first `]]>`, found with a
//! substring search.

use std::borrow::Cow;

use rcb_util::{RcbError, Result};

/// A parsed XML element: name, attributes, and children, borrowed from
/// the document they were parsed from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlElement<'a> {
    /// Element name.
    pub name: &'a str,
    /// Attributes in document order (values entity-decoded).
    pub attrs: Vec<(&'a str, Cow<'a, str>)>,
    /// Child nodes.
    pub children: Vec<XmlNode<'a>>,
}

/// A node in the parsed XML tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlNode<'a> {
    /// A child element.
    Element(XmlElement<'a>),
    /// Character data (entity-decoded) or CDATA content (verbatim).
    Text(Cow<'a, str>),
}

impl<'a> XmlElement<'a> {
    /// Concatenated text content of this element (direct children only).
    /// Borrowed when there is at most one text child, as for every
    /// Fig.-4 payload slot (one CDATA section).
    pub fn text(&self) -> Cow<'_, str> {
        let mut texts = self.children.iter().filter_map(|c| match c {
            XmlNode::Text(t) => Some(t.as_ref()),
            XmlNode::Element(_) => None,
        });
        match (texts.next(), texts.next()) {
            (None, _) => Cow::Borrowed(""),
            (Some(only), None) => Cow::Borrowed(only),
            (Some(first), Some(second)) => {
                let mut joined = format!("{first}{second}");
                texts.for_each(|t| joined.push_str(t));
                Cow::Owned(joined)
            }
        }
    }

    /// First child element named `name`.
    pub fn child(&self, name: &str) -> Option<&XmlElement<'a>> {
        self.children.iter().find_map(|c| match c {
            XmlNode::Element(e) if e.name == name => Some(e),
            _ => None,
        })
    }

    /// All child elements, in order.
    pub fn child_elements(&self) -> impl Iterator<Item = &XmlElement<'a>> {
        self.children.iter().filter_map(|c| match c {
            XmlNode::Element(e) => Some(e),
            _ => None,
        })
    }
}

/// Parses a document and returns its root element.
pub fn parse_document(input: &str) -> Result<XmlElement<'_>> {
    let mut s = Scanner { input, pos: 0 };
    s.skip_prolog()?;
    let root = s.parse_element()?;
    s.skip_whitespace_and_comments()?;
    if s.pos != input.len() {
        return Err(RcbError::parse(
            "xml",
            "trailing content after root element",
        ));
    }
    Ok(root)
}

struct Scanner<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn err(&self, detail: impl Into<String>) -> RcbError {
        RcbError::parse("xml", format!("{} at byte {}", detail.into(), self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input.as_bytes()[self.pos..].starts_with(s.as_bytes())
    }

    /// Advances while `keep` holds for the next byte and returns the
    /// bytes passed over. `keep` must reject every non-ASCII byte or
    /// accept all of them, so the slice ends on a char boundary.
    fn take_while(&mut self, keep: impl Fn(u8) -> bool) -> &'a str {
        let start = self.pos;
        while self.peek().is_some_and(&keep) {
            self.pos += 1;
        }
        &self.input[start..self.pos]
    }

    /// Moves past the next `end` at or after `from`, returning the text
    /// between `from` and it.
    fn take_until(&mut self, from: usize, end: &str, what: &str) -> Result<&'a str> {
        match self.input[from..].find(end) {
            Some(rel) => {
                self.pos = from + rel + end.len();
                Ok(&self.input[from..from + rel])
            }
            None => Err(self.err(format!("unterminated {what}"))),
        }
    }

    fn skip_whitespace(&mut self) {
        self.take_while(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n'));
    }

    fn skip_prolog(&mut self) -> Result<()> {
        self.skip_whitespace();
        if self.starts_with("<?xml") {
            self.take_until(self.pos, "?>", "XML declaration")?;
        }
        self.skip_whitespace_and_comments()
    }

    fn skip_whitespace_and_comments(&mut self) -> Result<()> {
        loop {
            self.skip_whitespace();
            if !self.starts_with("<!--") {
                return Ok(());
            }
            self.take_until(self.pos + 4, "-->", "comment")?;
        }
    }

    fn parse_name(&mut self) -> Result<&'a str> {
        let name = self
            .take_while(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b':' | b'.'));
        if name.is_empty() {
            return Err(self.err("expected name"));
        }
        Ok(name)
    }

    fn parse_element(&mut self) -> Result<XmlElement<'a>> {
        if self.peek() != Some(b'<') {
            return Err(self.err("expected '<'"));
        }
        self.pos += 1;
        let name = self.parse_name()?;
        let mut attrs = Vec::new();
        loop {
            self.skip_whitespace();
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(b'/') => {
                    if self.starts_with("/>") {
                        self.pos += 2;
                        return Ok(XmlElement {
                            name,
                            attrs,
                            children: Vec::new(),
                        });
                    }
                    return Err(self.err("stray '/' in tag"));
                }
                Some(_) => {
                    let attr_name = self.parse_name()?;
                    self.skip_whitespace();
                    if self.peek() != Some(b'=') {
                        return Err(self.err("expected '=' after attribute name"));
                    }
                    self.pos += 1;
                    self.skip_whitespace();
                    let quote = self
                        .peek()
                        .filter(|b| *b == b'"' || *b == b'\'')
                        .ok_or_else(|| self.err("expected quoted attribute value"))?;
                    self.pos += 1;
                    let raw = self.take_while(|b| b != quote);
                    if self.peek() != Some(quote) {
                        return Err(self.err("unterminated attribute value"));
                    }
                    self.pos += 1;
                    attrs.push((attr_name, decode_entities(raw)));
                }
                None => return Err(self.err("unterminated start tag")),
            }
        }
        // Children until matching close tag.
        let mut children = Vec::new();
        loop {
            if self.starts_with("</") {
                self.pos += 2;
                let close = self.parse_name()?;
                if close != name {
                    return Err(self.err(format!("mismatched close tag {close:?} for {name:?}")));
                }
                self.skip_whitespace();
                if self.peek() != Some(b'>') {
                    return Err(self.err("malformed close tag"));
                }
                self.pos += 1;
                return Ok(XmlElement {
                    name,
                    attrs,
                    children,
                });
            }
            if self.starts_with("<![CDATA[") {
                let text = self.take_until(self.pos + 9, "]]>", "CDATA section")?;
                children.push(XmlNode::Text(Cow::Borrowed(text)));
                continue;
            }
            if self.starts_with("<!--") {
                self.skip_whitespace_and_comments()?;
                continue;
            }
            match self.peek() {
                Some(b'<') => children.push(XmlNode::Element(self.parse_element()?)),
                Some(_) => {
                    let raw = self.take_while(|b| b != b'<');
                    // Whitespace-only runs between elements are formatting.
                    if !raw.trim().is_empty() {
                        children.push(XmlNode::Text(decode_entities(raw)));
                    }
                }
                None => return Err(self.err(format!("unterminated element {name:?}"))),
            }
        }
    }
}

/// Decodes the five predefined XML entities plus decimal/hex references;
/// text without a `&` is returned as it is.
pub fn decode_entities(s: &str) -> Cow<'_, str> {
    if !s.contains('&') {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(idx) = rest.find('&') {
        out.push_str(&rest[..idx]);
        rest = &rest[idx..];
        let Some(semi) = rest.find(';') else {
            out.push('&');
            rest = &rest[1..];
            continue;
        };
        let entity = &rest[1..semi];
        let decoded = match entity {
            "amp" => Some('&'),
            "lt" => Some('<'),
            "gt" => Some('>'),
            "quot" => Some('"'),
            "apos" => Some('\''),
            _ if entity.starts_with("#x") || entity.starts_with("#X") => {
                u32::from_str_radix(&entity[2..], 16)
                    .ok()
                    .and_then(char::from_u32)
            }
            _ if entity.starts_with('#') => {
                entity[1..].parse::<u32>().ok().and_then(char::from_u32)
            }
            _ => None,
        };
        match decoded {
            Some(c) => {
                out.push(c);
                rest = &rest[semi + 1..];
            }
            None => {
                out.push('&');
                rest = &rest[1..];
            }
        }
    }
    out.push_str(rest);
    Cow::Owned(out)
}

/// Encodes text for inclusion as XML character data.
pub fn encode_text(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Encodes text for inclusion as a double-quoted attribute value.
pub fn encode_attr(s: &str) -> String {
    encode_text(s).replace('"', "&quot;")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_document() {
        let root = parse_document("<?xml version='1.0'?><a x=\"1\"><b>hi</b><c/></a>").unwrap();
        assert_eq!(root.name, "a");
        assert_eq!(root.attrs, vec![("x", Cow::Borrowed("1"))]);
        assert_eq!(root.child("b").unwrap().text(), "hi");
        assert!(root.child("c").unwrap().children.is_empty());
        assert!(root.child("zz").is_none());
    }

    #[test]
    fn cdata_is_verbatim() {
        let root = parse_document("<r><![CDATA[a < b & c]]></r>").unwrap();
        assert_eq!(root.text(), "a < b & c");
    }

    #[test]
    fn cdata_ends_at_the_first_full_terminator() {
        // Multi-byte UTF-8 right before the terminator.
        let root = parse_document("<r><![CDATA[ä中😀]]></r>").unwrap();
        assert_eq!(root.text(), "ä中😀");
        // `]]` not followed by `>` (and a lone `]`) is content.
        let root = parse_document("<r><![CDATA[a]]b]] >c]]]></r>").unwrap();
        assert_eq!(root.text(), "a]]b]] >c]");
        assert!(matches!(root.text(), Cow::Borrowed(_)));
    }

    #[test]
    fn unterminated_cdata_at_end_of_input_is_an_error() {
        for doc in [
            "<r><![CDATA[",
            "<r><![CDATA[abc",
            "<r><![CDATA[x]]",
            "<r><![CDATA[中]",
        ] {
            let err = parse_document(doc).unwrap_err().to_string();
            assert!(err.contains("unterminated CDATA section"), "{doc:?}: {err}");
        }
    }

    #[test]
    fn non_ascii_survives_in_attribute_values_and_text() {
        let root =
            parse_document("<r a=\"café 中\" b='😀 &amp; ü'>naïve 地图 &lt; 😀</r>").unwrap();
        assert_eq!(root.attrs[0], ("a", Cow::Borrowed("café 中")));
        assert_eq!(root.attrs[1].1, "😀 & ü");
        assert_eq!(root.text(), "naïve 地图 < 😀");
    }

    #[test]
    fn text_borrows_a_single_child_and_joins_several() {
        let root = parse_document("<r>a<![CDATA[<b>]]>c</r>").unwrap();
        assert_eq!(root.children.len(), 3);
        assert_eq!(root.text(), "a<b>c");
        assert!(matches!(root.text(), Cow::Owned(_)));
        assert_eq!(parse_document("<r/>").unwrap().text(), "");
    }

    #[test]
    fn entities_decode_in_text_and_attrs() {
        let root = parse_document("<r a=\"x &amp; &#65;\">1 &lt; 2 &#x41;</r>").unwrap();
        assert_eq!(root.attrs[0].1, "x & A");
        assert_eq!(root.text(), "1 < 2 A");
    }

    #[test]
    fn comments_are_skipped() {
        let root =
            parse_document("<!-- lead --><r><!-- for a page using body element --><b>x</b></r>")
                .unwrap();
        assert_eq!(root.child_elements().count(), 1);
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse_document("<a><b></a></b>").is_err());
        assert!(parse_document("<a>").is_err());
        assert!(parse_document("<a></a><b></b>").is_err());
        assert!(parse_document("<a x=1></a>").is_err());
        assert!(parse_document("plain").is_err());
        assert!(parse_document("<a><![CDATA[x]]</a>").is_err());
    }

    #[test]
    fn whitespace_between_elements_dropped() {
        let root = parse_document("<r>\n  <a/>\n  <b/>\n</r>").unwrap();
        assert_eq!(root.children.len(), 2);
    }

    #[test]
    fn encode_decode_entities_roundtrip() {
        let s = "a < b & \"c\" > 'd'";
        assert_eq!(decode_entities(&encode_attr(s)), s);
        assert_eq!(decode_entities("&bogus; &#xZZ; & x"), "&bogus; &#xZZ; & x");
    }
}
