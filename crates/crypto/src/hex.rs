//! Hex encoding/decoding for digests and keys.

use rcb_util::{RcbError, Result};

/// The lower-case hex digit of each nibble value.
pub(crate) const DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Lower-case hex encoding.
pub fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(char::from(DIGITS[usize::from(b >> 4)]));
        s.push(char::from(DIGITS[usize::from(b & 0xf)]));
    }
    s
}

/// Decodes a hex string (case-insensitive, even length).
pub fn from_hex(s: &str) -> Result<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return Err(RcbError::parse("hex", "odd length"));
    }
    let mut out = Vec::with_capacity(s.len() / 2);
    let bytes = s.as_bytes();
    for pair in bytes.chunks_exact(2) {
        let h = (pair[0] as char)
            .to_digit(16)
            .ok_or_else(|| RcbError::parse("hex", format!("bad digit {:?}", pair[0] as char)))?;
        let l = (pair[1] as char)
            .to_digit(16)
            .ok_or_else(|| RcbError::parse("hex", format!("bad digit {:?}", pair[1] as char)))?;
        out.push((h * 16 + l) as u8);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let data = [0x00u8, 0x01, 0xab, 0xff];
        assert_eq!(to_hex(&data), "0001abff");
        assert_eq!(from_hex("0001abff").unwrap(), data);
        assert_eq!(from_hex("0001ABFF").unwrap(), data);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(from_hex("abc").is_err());
        assert!(from_hex("zz").is_err());
    }

    #[test]
    fn every_byte_encodes_as_format_does() {
        let all: Vec<u8> = (0..=255).collect();
        let reference: String = all.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(to_hex(&all), reference);
    }

    #[test]
    fn empty_ok() {
        assert_eq!(from_hex("").unwrap(), Vec::<u8>::new());
        assert_eq!(to_hex(&[]), "");
    }
}
