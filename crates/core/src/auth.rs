//! Request-URI HMAC authentication (paper §3.4).
//!
//! "Before sending a request, Ajax-Snippet computes an HMAC for the
//! request and appends the HMAC as an additional parameter of the
//! request-URI. After receiving a request sent by Ajax-Snippet, RCB-Agent
//! computes a new HMAC for the received request (discarding the HMAC
//! parameter) and verifies the new HMAC against the HMAC embedded in the
//! request-URI."
//!
//! The MAC covers the method, the request-target with the `hmac` parameter
//! removed, and the SHA-256 of the body (polling requests carry action
//! payloads in the body, which must not be forgeable).

use rcb_crypto::hmac::hmac_sha256_hex;
use rcb_crypto::{SessionKey, Sha256};
use rcb_http::Request;

/// Name of the request-URI parameter carrying the MAC.
pub const HMAC_PARAM: &str = "hmac";

/// Canonical message for a request: `METHOD target-without-hmac\nbodyhash`.
fn canonical_message(method: &str, target_without_mac: &str, body: &[u8]) -> Vec<u8> {
    let body_hash = Sha256::digest(body);
    let mut msg = Vec::with_capacity(target_without_mac.len() + 80);
    msg.extend_from_slice(method.as_bytes());
    msg.push(b' ');
    msg.extend_from_slice(target_without_mac.as_bytes());
    msg.push(b'\n');
    msg.extend_from_slice(&body_hash);
    msg
}

/// Removes the `hmac` parameter from a request-target, returning the
/// stripped target and the extracted MAC value (if present).
pub fn strip_mac(target: &str) -> (String, Option<String>) {
    let Some((path, query)) = target.split_once('?') else {
        return (target.to_string(), None);
    };
    let mut mac = None;
    let kept: Vec<&str> = query
        .split('&')
        .filter(|kv| {
            if let Some(v) = kv.strip_prefix("hmac=") {
                mac = Some(v.to_string());
                false
            } else {
                true
            }
        })
        .collect();
    let stripped = if kept.is_empty() {
        path.to_string()
    } else {
        format!("{}?{}", path, kept.join("&"))
    };
    (stripped, mac)
}

/// Signs a request in place: computes the MAC over the canonical message
/// and appends it as the `hmac` request-URI parameter.
pub fn sign_request(key: &SessionKey, req: &mut Request) {
    let (stripped, _) = strip_mac(&req.target);
    let msg = canonical_message(req.method.as_str(), &stripped, &req.body);
    let mac = hmac_sha256_hex(key.as_bytes(), &msg);
    let sep = if stripped.contains('?') { '&' } else { '?' };
    req.target = format!("{stripped}{sep}hmac={mac}");
}

/// Verifies a signed request. Returns `true` iff a MAC is present and
/// matches the canonical message under `key`.
pub fn verify_request(key: &SessionKey, req: &Request) -> bool {
    let (stripped, mac) = strip_mac(&req.target);
    let Some(mac) = mac else {
        return false;
    };
    let msg = canonical_message(req.method.as_str(), &stripped, &req.body);
    rcb_crypto::verify_hmac_hex(key.as_bytes(), &msg, &mac)
}

/// Header carrying a response MAC (extension; paper §3.4 future work).
pub const RESPONSE_MAC_HEADER: &str = "X-RCB-MAC";

/// Signs a response body: `HMAC(key, body)` placed in
/// [`RESPONSE_MAC_HEADER`].
pub fn sign_response(key: &SessionKey, resp: &mut rcb_http::Response) {
    let mac = hmac_sha256_hex(key.as_bytes(), &resp.body);
    resp.headers.set(RESPONSE_MAC_HEADER, mac);
}

/// Verifies a response MAC. Returns `true` iff the header is present and
/// matches the body under `key`.
pub fn verify_response(key: &SessionKey, resp: &rcb_http::Response) -> bool {
    match resp.headers.get(RESPONSE_MAC_HEADER) {
        Some(mac) => rcb_crypto::verify_hmac_hex(key.as_bytes(), &resp.body, mac),
        None => false,
    }
}

/// A short per-object token for cache-mode URLs: the first 16 hex digits
/// of `HMAC(key, path)`. Rewritten object URLs carry it so the agent never
/// serves cached content to unauthenticated fetchers.
pub fn object_token(key: &SessionKey, path: &str) -> String {
    hmac_sha256_hex(key.as_bytes(), path.as_bytes())[..16].to_string()
}

/// Verifies an object token in constant time.
pub fn verify_object_token(key: &SessionKey, path: &str, token: &str) -> bool {
    rcb_crypto::hmac::ct_eq(object_token(key, path).as_bytes(), token.as_bytes())
}

/// The 400 body for an object request whose `k` parameter is missing *or*
/// empty — no token material was presented, which is a malformed request,
/// not an authentication failure.
pub const OBJECT_TOKEN_REQUIRED: &str = "missing object token";

#[cfg(test)]
mod tests {
    use super::*;
    use rcb_util::DetRng;

    fn key() -> SessionKey {
        SessionKey::generate_deterministic(&mut DetRng::new(7))
    }

    #[test]
    fn sign_then_verify() {
        let k = key();
        let mut req = Request::post("/poll?t=5&p=2", b"click|%23add".to_vec());
        sign_request(&k, &mut req);
        assert!(req.target.contains("hmac="));
        assert!(verify_request(&k, &req));
    }

    #[test]
    fn missing_mac_rejected() {
        let k = key();
        let req = Request::post("/poll?t=5", Vec::new());
        assert!(!verify_request(&k, &req));
    }

    #[test]
    fn tampered_target_rejected() {
        let k = key();
        let mut req = Request::post("/poll?t=5", Vec::new());
        sign_request(&k, &mut req);
        let mut tampered = req.clone();
        tampered.target = tampered.target.replace("t=5", "t=6");
        assert!(!verify_request(&k, &tampered));
    }

    #[test]
    fn tampered_body_rejected() {
        let k = key();
        let mut req = Request::post("/poll?t=5", b"nav|http%3A%2F%2Fa".to_vec());
        sign_request(&k, &mut req);
        let mut tampered = req.clone();
        tampered.body = b"nav|http%3A%2F%2Fevil".to_vec();
        assert!(!verify_request(&k, &tampered));
    }

    #[test]
    fn wrong_key_rejected() {
        let k1 = key();
        let k2 = SessionKey::generate_deterministic(&mut DetRng::new(8));
        let mut req = Request::post("/poll", Vec::new());
        sign_request(&k1, &mut req);
        assert!(!verify_request(&k2, &req));
    }

    #[test]
    fn re_signing_replaces_mac() {
        let k = key();
        let mut req = Request::post("/poll?t=1", Vec::new());
        sign_request(&k, &mut req);
        let first = req.target.clone();
        sign_request(&k, &mut req);
        assert_eq!(first, req.target, "idempotent for same content");
        // Changing content then re-signing yields a different MAC.
        req.target = "/poll?t=2".to_string();
        sign_request(&k, &mut req);
        assert_ne!(first, req.target);
        assert!(verify_request(&k, &req));
    }

    #[test]
    fn strip_mac_variants() {
        assert_eq!(strip_mac("/p"), ("/p".to_string(), None));
        assert_eq!(
            strip_mac("/p?hmac=ff"),
            ("/p".to_string(), Some("ff".to_string()))
        );
        assert_eq!(
            strip_mac("/p?a=1&hmac=ff&b=2"),
            ("/p?a=1&b=2".to_string(), Some("ff".to_string()))
        );
    }

    #[test]
    fn object_tokens_bind_paths() {
        let k = key();
        let t = object_token(&k, "/cache/5");
        assert_eq!(t.len(), 16);
        assert!(verify_object_token(&k, "/cache/5", &t));
        assert!(!verify_object_token(&k, "/cache/6", &t));
        assert!(!verify_object_token(&k, "/cache/5", "0000000000000000"));
    }
}
