//! HMAC-SHA256 (RFC 2104) and constant-time verification.
//!
//! RCB-Agent verifies an HMAC appended as a request-URI parameter
//! (paper §3.4): the agent recomputes the MAC over the received request
//! (with the HMAC parameter removed) and compares. Comparison here is
//! constant-time to avoid the obvious timing side channel.

use crate::hex::{to_hex, DIGITS};
use crate::sha256::Sha256;

const BLOCK: usize = 64;

/// Computes `HMAC-SHA256(key, message)`.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    let mut key_block = [0u8; BLOCK];
    if key.len() > BLOCK {
        let d = Sha256::digest(key);
        key_block[..32].copy_from_slice(&d);
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }
    let mut ipad = [0x36u8; BLOCK];
    let mut opad = [0x5cu8; BLOCK];
    for i in 0..BLOCK {
        ipad[i] ^= key_block[i];
        opad[i] ^= key_block[i];
    }
    let mut inner = Sha256::new();
    inner.update(&ipad);
    inner.update(message);
    let inner_digest = inner.finalize();
    let mut outer = Sha256::new();
    outer.update(&opad);
    outer.update(&inner_digest);
    outer.finalize()
}

/// Hex-encoded HMAC, the form embedded into request-URIs.
pub fn hmac_sha256_hex(key: &[u8], message: &[u8]) -> String {
    to_hex(&hmac_sha256(key, message))
}

/// Constant-time equality of two byte strings.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

/// Verifies a hex-encoded MAC (either case) against the expected value
/// for `message`. Constant-time in the MAC's digits: every digit is
/// compared, lower-cased inside the loop.
pub fn verify_hmac_hex(key: &[u8], message: &[u8], mac_hex: &str) -> bool {
    let expected = hmac_sha256(key, message);
    let presented = mac_hex.as_bytes();
    if presented.len() != 2 * expected.len() {
        return false;
    }
    let mut diff = 0u8;
    for (byte, digits) in expected.iter().zip(presented.chunks_exact(2)) {
        diff |= DIGITS[usize::from(byte >> 4)] ^ digits[0].to_ascii_lowercase();
        diff |= DIGITS[usize::from(byte & 0xf)] ^ digits[1].to_ascii_lowercase();
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    // RFC 4231 test vectors for HMAC-SHA256.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        assert_eq!(
            hmac_sha256_hex(&key, b"Hi There"),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2() {
        assert_eq!(
            hmac_sha256_hex(b"Jefe", b"what do ya want for nothing?"),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        assert_eq!(
            hmac_sha256_hex(&key, &data),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaau8; 131];
        assert_eq!(
            hmac_sha256_hex(
                &key,
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            ),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let key = b"session-secret";
        let msg = b"POST /poll?t=123";
        let mac = hmac_sha256_hex(key, msg);
        assert!(verify_hmac_hex(key, msg, &mac));
        assert!(verify_hmac_hex(key, msg, &mac.to_ascii_uppercase()));
        assert!(!verify_hmac_hex(key, b"POST /poll?t=124", &mac));
        assert!(!verify_hmac_hex(b"other-key", msg, &mac));
        assert!(!verify_hmac_hex(key, msg, "deadbeef"));
    }

    /// The in-loop comparison answers as lower-casing the whole presented
    /// MAC and then comparing did.
    #[test]
    fn verify_matches_lowercase_then_compare() {
        let key = b"session-secret";
        let msg = b"POST /s/0123456789abcdef/poll?p=17";
        let mac = hmac_sha256_hex(key, msg);
        let reference =
            |presented: &str| ct_eq(mac.as_bytes(), presented.to_ascii_lowercase().as_bytes());
        let mixed: String = mac
            .chars()
            .enumerate()
            .map(|(i, c)| {
                if i % 3 == 0 {
                    c.to_ascii_uppercase()
                } else {
                    c
                }
            })
            .collect();
        let last_digit_changed = format!(
            "{}{}",
            &mac[..63],
            if mac.ends_with('0') { '1' } else { '0' }
        );
        let presented = [
            mac.clone(),
            mac.to_ascii_uppercase(),
            mixed,
            last_digit_changed,
            mac[..63].to_string(),
            format!("{mac}0"),
            String::new(),
            format!("é{}", &mac[2..]),
            format!("{}g", &mac[..63]),
            format!("{}@", &mac[..63]),
            "@".repeat(64),
        ];
        for p in &presented {
            assert_eq!(verify_hmac_hex(key, msg, p), reference(p), "{p:?}");
        }
    }

    #[test]
    fn ct_eq_basic() {
        assert!(ct_eq(b"abc", b"abc"));
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"ab"));
        assert!(ct_eq(b"", b""));
    }
}
