//! The JavaScript `escape`/`unescape` pair.
//!
//! The paper's XML response format (§4.1.2, Fig. 4) encodes every innerHTML
//! value and attribute list "using the JavaScript escape function" before
//! wrapping it in a CDATA section, and Ajax-Snippet reverses it with
//! `unescape`. The functions here replicate the exact legacy semantics:
//!
//! * ASCII letters, digits and `@ * _ + - . /` pass through;
//! * other code units below 0x100 become `%XX`;
//! * code units at or above 0x100 become `%uXXXX` (UTF-16 code units, so
//!   supplementary-plane characters produce surrogate pairs, exactly as
//!   browsers do).
//!
//! Both directions sit on every content update (the host escapes each
//! payload, the participant unescapes it), so both work on bytes rather
//! than chars. [`escape_into`] copies each maximal run of pass-through
//! ASCII with one `push_str`, escapes other ASCII bytes from a table, and
//! takes the UTF-16 path only for non-ASCII chars. [`unescape`] decodes
//! straight to UTF-8: the runs between `%` signs are copied whole, a
//! `%uD8xx%uDCxx` pair is combined inline, a lone surrogate becomes U+FFFD,
//! and a malformed escape passes through verbatim. Tests hold both to a
//! char-by-char, UTF-16 reference implementation of the same semantics.

/// Whether the legacy `escape` passes the byte through unchanged.
const fn is_passthrough(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'@' | b'*' | b'_' | b'+' | b'-' | b'.' | b'/')
}

/// [`is_passthrough`] for every byte value (false for all non-ASCII).
const PASSTHROUGH: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0;
    while b < 128 {
        table[b] = is_passthrough(b as u8);
        b += 1;
    }
    table
};

const HEX: &[u8; 16] = b"0123456789ABCDEF";

/// JavaScript's legacy `escape` function.
pub fn escape(input: &str) -> String {
    let mut out = String::with_capacity(input.len() + input.len() / 4);
    escape_into(input, &mut out);
    out
}

/// [`escape`], appended to an existing buffer.
///
/// Escaping is character-wise, so `escape(a) + escape(b) == escape(a + b)`:
/// streaming writers (the Fig.-4 XML assembler) escape each fragment of a
/// payload straight into one output buffer instead of building
/// per-fragment intermediate strings.
pub fn escape_into(input: &str, out: &mut String) {
    out.reserve(input.len() + input.len() / 4);
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let run = i;
        while i < bytes.len() && PASSTHROUGH[bytes[i] as usize] {
            i += 1;
        }
        out.push_str(&input[run..i]);
        let Some(&b) = bytes.get(i) else { break };
        if b.is_ascii() {
            push_unit(out, u16::from(b));
            i += 1;
        } else {
            // `i` sits on a char boundary: everything before it was
            // consumed as ASCII bytes or whole chars.
            let c = input[i..].chars().next().expect("non-empty tail");
            let mut units = [0u16; 2];
            for &unit in c.encode_utf16(&mut units).iter() {
                push_unit(out, unit);
            }
            i += c.len_utf8();
        }
    }
}

/// Appends the escape of one UTF-16 code unit: `%XX` below 0x100,
/// `%uXXXX` from there on.
fn push_unit(out: &mut String, unit: u16) {
    let hex = |shift: u16| char::from(HEX[usize::from((unit >> shift) & 0xF)]);
    if unit < 0x100 {
        out.push('%');
    } else {
        out.push_str("%u");
        out.push(hex(12));
        out.push(hex(8));
    }
    out.push(hex(4));
    out.push(hex(0));
}

/// JavaScript's legacy `unescape` function.
///
/// Malformed escapes pass through verbatim, matching browser behaviour:
/// `%XX` needs exactly two hex digits and `%uXXXX` exactly four (no sign).
/// Surrogate pairs produced by [`escape`] are re-combined; unpaired
/// surrogates become U+FFFD.
pub fn unescape(input: &str) -> String {
    let bytes = input.as_bytes();
    let mut out = String::with_capacity(input.len());
    // `input[copied..at]` is the verbatim run before the escape at `at`.
    // A plain byte scan beats a `find('%')` per escape here: escapes in
    // escaped HTML are a few bytes apart.
    let (mut copied, mut at) = (0, 0);
    while at < bytes.len() {
        if bytes[at] == b'%' {
            if let Some((c, len)) = decode_escape(bytes, at) {
                out.push_str(&input[copied..at]);
                out.push(c);
                at += len;
                copied = at;
                continue;
            }
        }
        at += 1;
    }
    out.push_str(&input[copied..]);
    out
}

/// Decodes the escape whose `%` sits at `bytes[at]`: the char it stands
/// for and the bytes it spans, or `None` when it is malformed (the `%`
/// then passes through as text).
fn decode_escape(bytes: &[u8], at: usize) -> Option<(char, usize)> {
    if let Some(unit) = u_escape(bytes, at) {
        let decoded = match unit {
            0xD800..=0xDBFF => match u_escape(bytes, at + 6) {
                Some(low @ 0xDC00..=0xDFFF) => {
                    let scalar =
                        0x10000 + ((u32::from(unit) - 0xD800) << 10) + (u32::from(low) - 0xDC00);
                    (char::from_u32(scalar).expect("a surrogate pair"), 12)
                }
                _ => (char::REPLACEMENT_CHARACTER, 6),
            },
            0xDC00..=0xDFFF => (char::REPLACEMENT_CHARACTER, 6),
            _ => (char::from_u32(u32::from(unit)).expect("not a surrogate"), 6),
        };
        return Some(decoded);
    }
    let high = hex_digit(*bytes.get(at + 1)?)?;
    let low = hex_digit(*bytes.get(at + 2)?)?;
    Some((char::from(high << 4 | low), 3))
}

/// The code unit of a well-formed `%uXXXX` at `bytes[at]`.
fn u_escape(bytes: &[u8], at: usize) -> Option<u16> {
    match bytes.get(at..at + 6)? {
        [b'%', b'u', digits @ ..] => digits
            .iter()
            .try_fold(0u16, |unit, &d| Some(unit << 4 | u16::from(hex_digit(d)?))),
        _ => None,
    }
}

/// The value of an ASCII hex digit.
fn hex_digit(b: u8) -> Option<u8> {
    (b as char).to_digit(16).map(|d| d as u8)
}

/// The char-by-char `escape` and UTF-16 `unescape` the byte kernels
/// replaced, kept as the reference they are differentially tested against.
#[cfg(test)]
mod reference;

/// The edge-case corpus `tests/codec_roundtrip.rs` runs on.
#[cfg(test)]
#[path = "../tests/corpus/mod.rs"]
mod corpus;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_passthrough() {
        assert_eq!(escape("Az09@*_+-./"), "Az09@*_+-./");
    }

    #[test]
    fn latin1_uses_two_digit_form() {
        assert_eq!(escape(" "), "%20");
        assert_eq!(escape("<div>"), "%3Cdiv%3E");
        assert_eq!(escape("é"), "%E9");
    }

    #[test]
    fn bmp_uses_u_form() {
        assert_eq!(escape("中"), "%u4E2D");
    }

    #[test]
    fn supplementary_plane_is_surrogate_pair() {
        // U+1F600 GRINNING FACE → D83D DE00 surrogates.
        assert_eq!(escape("😀"), "%uD83D%uDE00");
        assert_eq!(unescape("%uD83D%uDE00"), "😀");
    }

    #[test]
    fn roundtrip_html_fragment() {
        let html = r#"<a href="http://example.com/?q=1&r=2" onclick="go('x')">café 地图</a>"#;
        assert_eq!(unescape(&escape(html)), html);
    }

    #[test]
    fn unescape_tolerates_malformed() {
        assert_eq!(unescape("100%"), "100%");
        assert_eq!(unescape("%zz"), "%zz");
        assert_eq!(unescape("%u12"), "%u12");
    }

    #[test]
    fn unescape_pairs_surrogates_inline() {
        // High, high, low: the first high is lone, the second pairs.
        assert_eq!(unescape("%uD83D%uD83D%uDE00"), "\u{FFFD}😀");
        // A low first, or a high before anything but a low, is lone.
        assert_eq!(unescape("%uDE00%uD83D"), "\u{FFFD}\u{FFFD}");
        assert_eq!(unescape("%uD83Dx%uDE00"), "\u{FFFD}x\u{FFFD}");
        assert_eq!(unescape("%uD83D%41"), "\u{FFFD}A");
        // A malformed escape after a high is text, not its partner.
        assert_eq!(unescape("%uD83D%uDE0"), "\u{FFFD}%uDE0");
    }

    #[test]
    fn unescape_plain_text() {
        assert_eq!(unescape("hello world"), "hello world");
        assert_eq!(unescape("中 %E9%u4E2D 😀"), "中 é中 😀");
    }

    #[test]
    fn escape_into_appends_and_concatenates() {
        let mut out = String::from("prefix:");
        escape_into("<a b>", &mut out);
        assert_eq!(out, "prefix:%3Ca%20b%3E");
        // Character-wise escaping is concatenation-preserving.
        let (a, b) = ("café <", "中 &😀");
        let mut streamed = String::new();
        escape_into(a, &mut streamed);
        escape_into(b, &mut streamed);
        assert_eq!(streamed, escape(&format!("{a}{b}")));
    }

    #[test]
    fn kernels_match_the_reference_on_the_corpus() {
        for s in corpus::corpus() {
            let escaped = escape(&s);
            assert_eq!(escaped, reference::escape(&s), "escape({s:?})");
            assert_eq!(unescape(&s), reference::unescape(&s), "unescape({s:?})");
            assert_eq!(unescape(&escaped), reference::unescape(&escaped));
        }
    }

    #[test]
    fn kernels_match_the_reference_on_generated_strings() {
        use proptest::Strategy;
        // Fragments that make well-formed, malformed and signed escapes,
        // paired and lone surrogates, and raw non-ASCII chars collide.
        let fragment = proptest::sample::select(vec![
            "%", "u", "+", "-", "0", "4", "9", "a", "D", "e", "F", "g", "x", " ", "%u", "%4",
            "%uD83D", "%uDE00", "%uDC00", "%uDBFF", "%u00E9", "%E9", "é", "中", "😀", "\u{80}",
            "\u{FFFF}",
        ]);
        let strings = proptest::collection::vec(fragment, 0..24);
        for case in 0..10_000.max(proptest::cases()) {
            let mut rng = proptest::test_rng("jsescape_differential", case);
            let s = strings.generate(&mut rng).concat();
            assert_eq!(
                escape(&s),
                reference::escape(&s),
                "case {case}: escape({s:?})"
            );
            assert_eq!(
                unescape(&s),
                reference::unescape(&s),
                "case {case}: unescape({s:?})"
            );
        }
    }
}
