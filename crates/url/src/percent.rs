//! Percent-encoding (RFC 3986 subset).
//!
//! Used when the agent embeds request parameters (HMAC values, cache tokens,
//! piggybacked action payloads) into request-URIs.

/// Returns true for characters RFC 3986 leaves unreserved.
fn is_unreserved(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'~')
}

/// Percent-encodes everything except unreserved characters.
pub fn encode(input: &str) -> String {
    let mut out = String::with_capacity(input.len());
    for &b in input.as_bytes() {
        if is_unreserved(b) {
            out.push(b as char);
        } else {
            out.push('%');
            out.push_str(&format!("{b:02X}"));
        }
    }
    out
}

/// Percent-encodes a path component, additionally passing `/` through.
pub fn encode_path(input: &str) -> String {
    let mut out = String::with_capacity(input.len());
    for &b in input.as_bytes() {
        if is_unreserved(b) || b == b'/' {
            out.push(b as char);
        } else {
            out.push('%');
            out.push_str(&format!("{b:02X}"));
        }
    }
    out
}

/// Decodes percent-escapes; malformed escapes are passed through verbatim
/// (browser-like tolerance). `+` is *not* treated as a space; callers doing
/// form decoding use [`decode_form`].
pub fn decode(input: &str) -> String {
    decode_with(input, false)
}

/// Decodes `application/x-www-form-urlencoded` content (`+` becomes space).
pub fn decode_form(input: &str) -> String {
    decode_with(input, true)
}

/// One pass over `input` into one buffer; invalid UTF-8 in the decoded
/// bytes is replaced as `String::from_utf8_lossy` replaces it.
fn decode_with(input: &str, plus_is_space: bool) -> String {
    let bytes = input.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                if let (Some(h), Some(l)) = (
                    bytes.get(i + 1).and_then(|b| (*b as char).to_digit(16)),
                    bytes.get(i + 2).and_then(|b| (*b as char).to_digit(16)),
                ) {
                    out.push((h * 16 + l) as u8);
                    i += 3;
                    continue;
                }
                out.push(b'%');
            }
            b'+' if plus_is_space => out.push(b' '),
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8(out)
        .unwrap_or_else(|invalid| String::from_utf8_lossy(invalid.as_bytes()).into_owned())
}

/// Encodes a string for use as a form value (`space` becomes `+`).
pub fn encode_form(input: &str) -> String {
    encode(input).replace("%20", "+")
}

/// Splits a query string (`a=1&b=2`) into decoded key/value pairs.
pub fn parse_query(query: &str) -> Vec<(String, String)> {
    query
        .split('&')
        .filter(|s| !s.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (decode_form(k), decode_form(v)),
            None => (decode_form(pair), String::new()),
        })
        .collect()
}

/// Joins key/value pairs into an encoded query string.
pub fn build_query(pairs: &[(String, String)]) -> String {
    pairs
        .iter()
        .map(|(k, v)| format!("{}={}", encode_form(k), encode_form(v)))
        .collect::<Vec<_>>()
        .join("&")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_roundtrip() {
        let s = "a b/c?d=e&f#g%";
        assert_eq!(decode(&encode(s)), s);
    }

    #[test]
    fn encode_leaves_unreserved() {
        assert_eq!(encode("AZaz09-_.~"), "AZaz09-_.~");
    }

    #[test]
    fn encode_path_keeps_slashes() {
        assert_eq!(encode_path("/a b/c"), "/a%20b/c");
    }

    #[test]
    fn decode_tolerates_malformed() {
        assert_eq!(decode("100%"), "100%");
        assert_eq!(decode("%zz"), "%zz");
        assert_eq!(decode("%4"), "%4");
    }

    /// Decoding as it was written before it became one pass: `+` replaced
    /// first, then a byte buffer turned into a string lossily.
    fn reference_decode(input: &str, plus_is_space: bool) -> String {
        let input = if plus_is_space {
            input.replace('+', " ")
        } else {
            input.to_string()
        };
        let bytes = input.as_bytes();
        let mut out = Vec::new();
        let mut i = 0;
        while i < bytes.len() {
            let hex = |j: usize| bytes.get(j).and_then(|b| (*b as char).to_digit(16));
            match (bytes[i], hex(i + 1), hex(i + 2)) {
                (b'%', Some(h), Some(l)) => {
                    out.push((h * 16 + l) as u8);
                    i += 3;
                }
                (b, _, _) => {
                    out.push(b);
                    i += 1;
                }
            }
        }
        String::from_utf8_lossy(&out).into_owned()
    }

    #[test]
    fn one_pass_decoding_matches_the_reference() {
        for input in [
            "", "%", "%2", "%+2", "%2+", "+", "a+b%2B", "%2b+%2B", "%zz", "%C3%A9", "%C3",
            "%FF%FE", "+%20+", "é+%E9", "100%", "%%41", "%4%41", "%%%",
        ] {
            assert_eq!(decode(input), reference_decode(input, false), "{input:?}");
            assert_eq!(
                decode_form(input),
                reference_decode(input, true),
                "{input:?}"
            );
        }
    }

    #[test]
    fn form_coding() {
        assert_eq!(encode_form("a b"), "a+b");
        assert_eq!(decode_form("a+b%21"), "a b!");
    }

    #[test]
    fn query_roundtrip() {
        let pairs = vec![
            ("q".to_string(), "macbook air".to_string()),
            ("page".to_string(), "2".to_string()),
        ];
        let q = build_query(&pairs);
        assert_eq!(q, "q=macbook+air&page=2");
        assert_eq!(parse_query(&q), pairs);
    }

    #[test]
    fn query_without_value() {
        assert_eq!(
            parse_query("flag&x=1"),
            vec![
                ("flag".to_string(), String::new()),
                ("x".to_string(), "1".to_string())
            ]
        );
    }

    #[test]
    fn decode_utf8_sequences() {
        assert_eq!(decode("%C3%A9"), "é");
    }
}
