//! Focused round-trip tests for the pure codecs the property suite leans
//! on: percent-encoding and the legacy JavaScript escape/unescape pair.
//! These pin down the edge cases with a deterministic corpus so a codec
//! regression fails here with a readable input, not just in a generated
//! property case.

mod corpus;

use corpus::corpus;
use rcb_url::jsescape::{escape, unescape};
use rcb_url::percent;

#[test]
fn percent_encode_decode_roundtrips() {
    for s in corpus() {
        assert_eq!(percent::decode(&percent::encode(&s)), s, "input {s:?}");
    }
}

#[test]
fn percent_form_coding_roundtrips() {
    for s in corpus() {
        assert_eq!(
            percent::decode_form(&percent::encode_form(&s)),
            s,
            "input {s:?}"
        );
    }
}

#[test]
fn percent_encode_output_is_uri_safe() {
    for s in corpus() {
        let enc = percent::encode(&s);
        assert!(
            enc.bytes().all(|b| b.is_ascii_alphanumeric()
                || matches!(b, b'-' | b'_' | b'.' | b'~' | b'%')),
            "encode({s:?}) produced reserved byte in {enc:?}"
        );
    }
}

#[test]
fn query_codec_roundtrips_hostile_pairs() {
    let pairs: Vec<(String, String)> = vec![
        ("q".into(), "macbook air".into()),
        ("a&b".into(), "c=d".into()),
        ("unicode".into(), "中文 🙂".into()),
        ("empty".into(), "".into()),
        ("".into(), "valueless key".into()),
        ("pct".into(), "50%+50%".into()),
    ];
    let q = percent::build_query(&pairs);
    assert_eq!(percent::parse_query(&q), pairs);
}

#[test]
fn js_escape_unescape_roundtrips() {
    for s in corpus() {
        assert_eq!(unescape(&escape(&s)), s, "input {s:?}");
    }
}

#[test]
fn js_escape_output_is_cdata_and_xml_safe() {
    // The Fig.-4 writer relies on escape() output never containing the
    // characters that could terminate a CDATA section or open markup.
    for s in corpus() {
        let e = escape(&s);
        for banned in ['<', '>', '&', ']', '"', '\''] {
            assert!(
                !e.contains(banned),
                "escape({s:?}) contains {banned:?}: {e}"
            );
        }
        assert!(e.is_ascii(), "escape({s:?}) not ASCII: {e}");
    }
}

#[test]
fn js_escape_matches_browser_reference_values() {
    // Reference outputs from the legacy JS escape() semantics.
    assert_eq!(escape("a1@*_+-./"), "a1@*_+-./");
    assert_eq!(escape(" "), "%20");
    assert_eq!(escape("é"), "%E9");
    assert_eq!(escape("Ω"), "%u03A9");
    assert_eq!(escape("🙂"), "%uD83D%uDE42"); // surrogate pair
    assert_eq!(unescape("%uD83D%uDE42"), "🙂");
}

#[test]
fn js_unescape_tolerates_malformed_input() {
    // Browser behaviour: malformed escapes pass through verbatim.
    assert_eq!(unescape("100%"), "100%");
    assert_eq!(unescape("%zz"), "%zz");
    assert_eq!(unescape("%u12"), "%u12");
    assert_eq!(unescape("%u12zz"), "%u12zz");
    // Exactly four hex digits: a sign is not one.
    assert_eq!(unescape("%u+12A"), "%u+12A");
    assert_eq!(unescape("%u+0041"), "%u+0041");
    // An unpaired surrogate cannot form a char; it becomes U+FFFD.
    assert_eq!(unescape("%uD83D"), "\u{FFFD}");
}
