//! Deterministic edge-case corpus shared by the codec tests: the
//! round-trip suite (`tests/codec_roundtrip.rs`) and the differential
//! tests that hold the JS escape kernels to their reference.

/// Deterministic edge-case corpus shared by the codec tests.
pub fn corpus() -> Vec<String> {
    let mut cases: Vec<String> = [
        "",
        " ",
        "plain-ascii_text~.",
        "a b/c?d=e&f#g%",
        "100% + 5% = %zz",             // malformed-escape lookalikes
        "%u0041 %41 %4 %",             // escape-syntax fragments as content
        "%u+12A %u+0041 %+4 %u-041",   // signed escape lookalikes
        "%uD83D%uDE00 %uDE00 %uD83D",  // paired and lone surrogate escapes
        "key=value&key2=value2",       // query separators as content
        "\u{1}\u{2}\u{3}\t\r\n",       // control characters
        "é è ü ß ñ",                   // Latin-1 range (%XX in jsescape)
        "Ω λ Ж 中文 日本語 한글",      // BMP beyond 0xFF (%uXXXX)
        "🙂🦀𝄞",                       // supplementary plane (surrogate pairs)
        "<tag attr=\"x\">&amp;</tag>", // markup-significant chars
        "]]> closes CDATA",
    ]
    .into_iter()
    .map(String::from)
    .collect();
    // Every single byte 0x00..=0x7F as a one-char string.
    cases.extend((0u8..=0x7F).map(|b| (b as char).to_string()));
    cases
}
