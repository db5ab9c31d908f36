//! The char-by-char `escape` and the UTF-16 `unescape` that
//! [`super::escape_into`] and [`super::unescape`] must match byte for byte.
//! Only the hex-digit check on `%uXXXX` differs from the code they
//! replaced, which let `u16::from_str_radix` take a leading `+`.

/// Characters the legacy `escape` passes through unchanged.
fn is_passthrough(c: char) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, '@' | '*' | '_' | '+' | '-' | '.' | '/')
}

/// Char-by-char `escape`: every char, pass-through or not, goes through
/// `chars()` and every escaped one through its UTF-16 units.
pub fn escape(input: &str) -> String {
    const HEX: &[u8; 16] = b"0123456789ABCDEF";
    let mut out = String::with_capacity(input.len() + input.len() / 4);
    for c in input.chars() {
        if is_passthrough(c) {
            out.push(c);
        } else {
            let mut units = [0u16; 2];
            for unit in c.encode_utf16(&mut units) {
                let u = *unit;
                if u < 0x100 {
                    out.push('%');
                    out.push(HEX[(u >> 4) as usize] as char);
                    out.push(HEX[(u & 0xF) as usize] as char);
                } else {
                    out.push_str("%u");
                    out.push(HEX[(u >> 12) as usize] as char);
                    out.push(HEX[((u >> 8) & 0xF) as usize] as char);
                    out.push(HEX[((u >> 4) & 0xF) as usize] as char);
                    out.push(HEX[(u & 0xF) as usize] as char);
                }
            }
        }
    }
    out
}

/// UTF-16 `unescape`: every char and escape becomes code units, and
/// `String::from_utf16_lossy` pairs the surrogates at the end.
pub fn unescape(input: &str) -> String {
    let bytes = input.as_bytes();
    let mut units: Vec<u16> = Vec::with_capacity(input.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            // %uXXXX form: exactly four hex digits.
            if bytes.get(i + 1) == Some(&b'u')
                && i + 5 < bytes.len()
                && bytes[i + 2..i + 6].iter().all(u8::is_ascii_hexdigit)
            {
                if let Ok(v) =
                    u16::from_str_radix(std::str::from_utf8(&bytes[i + 2..i + 6]).unwrap_or(""), 16)
                {
                    units.push(v);
                    i += 6;
                    continue;
                }
            }
            // %XX form.
            if let (Some(h), Some(l)) = (
                bytes.get(i + 1).and_then(|b| (*b as char).to_digit(16)),
                bytes.get(i + 2).and_then(|b| (*b as char).to_digit(16)),
            ) {
                units.push((h * 16 + l) as u16);
                i += 3;
                continue;
            }
        }
        // Pass-through: push the char's UTF-16 units. `i` always sits on
        // a char boundary.
        let c = input[i..].chars().next().expect("char boundary");
        let mut buf = [0u16; 2];
        units.extend_from_slice(c.encode_utf16(&mut buf));
        i += c.len_utf8();
    }
    String::from_utf16_lossy(&units)
}
