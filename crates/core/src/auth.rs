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

use rcb_crypto::hex::to_hex;
use rcb_crypto::hmac::{hmac_sha256, hmac_sha256_hex};
use rcb_crypto::{SessionKey, Sha256};
use rcb_http::Request;

/// Name of the request-URI parameter carrying the MAC.
pub const HMAC_PARAM: &str = "hmac";

/// Appends `target` with every `hmac` parameter removed to `out`, and
/// returns the value of the last one (`None` when there is none). The
/// kept parameters stay in order: the first after `?`, the rest after
/// `&`.
fn push_stripped<'t>(out: &mut String, target: &'t str) -> Option<&'t str> {
    let Some((path, query)) = target.split_once('?') else {
        out.push_str(target);
        return None;
    };
    out.push_str(path);
    let mut mac = None;
    let mut sep = '?';
    for kv in query.split('&') {
        match kv.strip_prefix("hmac=") {
            Some(v) => mac = Some(v),
            None => {
                out.push(sep);
                out.push_str(kv);
                sep = '&';
            }
        }
    }
    mac
}

/// Canonical message for a request, `METHOD target-without-hmac\nbodyhash`,
/// built in one buffer, and the MAC the target carried.
fn canonical_message(req: &Request) -> (Vec<u8>, Option<&str>) {
    let method = req.method.as_str();
    let mut msg = String::with_capacity(method.len() + req.target.len() + 2 + 32);
    msg.push_str(method);
    msg.push(' ');
    let mac = push_stripped(&mut msg, &req.target);
    msg.push('\n');
    let mut msg = msg.into_bytes();
    msg.extend_from_slice(&Sha256::digest(&req.body));
    (msg, mac)
}

/// Removes the `hmac` parameter from a request-target, returning the
/// stripped target and the extracted MAC value (if present).
pub fn strip_mac(target: &str) -> (String, Option<String>) {
    let mut stripped = String::with_capacity(target.len());
    let mac = push_stripped(&mut stripped, target);
    (stripped, mac.map(str::to_string))
}

/// Signs a request in place: computes the MAC over the canonical message
/// and appends it as the `hmac` request-URI parameter.
pub fn sign_request(key: &SessionKey, req: &mut Request) {
    let (msg, _) = canonical_message(req);
    let mac = hmac_sha256_hex(key.as_bytes(), &msg);
    let (stripped, _) = strip_mac(&req.target);
    let sep = if stripped.contains('?') { '&' } else { '?' };
    req.target = format!("{stripped}{sep}hmac={mac}");
}

/// Verifies a signed request. Returns `true` iff a MAC is present and
/// matches the canonical message under `key`. The MAC and the stripped
/// target are slices of the request's own target.
pub fn verify_request(key: &SessionKey, req: &Request) -> bool {
    let (msg, mac) = canonical_message(req);
    mac.is_some_and(|mac| rcb_crypto::verify_hmac_hex(key.as_bytes(), &msg, mac))
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
    to_hex(&hmac_sha256(key.as_bytes(), path.as_bytes())[..8])
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

    /// `strip_mac` as a filtered `Vec`, a `join` and a `format!`: the
    /// reference the one-pass strip is held to.
    fn reference_strip(target: &str) -> (String, Option<String>) {
        let Some((path, query)) = target.split_once('?') else {
            return (target.to_string(), None);
        };
        let mut mac = None;
        let kept: Vec<&str> = query
            .split('&')
            .filter(|kv| match kv.strip_prefix("hmac=") {
                Some(v) => {
                    mac = Some(v.to_string());
                    false
                }
                None => true,
            })
            .collect();
        if kept.is_empty() {
            (path.to_string(), mac)
        } else {
            (format!("{path}?{}", kept.join("&")), mac)
        }
    }

    /// Verification over [`reference_strip`]: the message is rebuilt from
    /// the stripped copy, and the expected MAC is hex-formatted and
    /// compared with the lower-cased presented one.
    fn reference_verify(key: &SessionKey, req: &Request) -> bool {
        let (stripped, mac) = reference_strip(&req.target);
        let Some(mac) = mac else {
            return false;
        };
        let mut msg = format!("{} {stripped}\n", req.method.as_str()).into_bytes();
        msg.extend_from_slice(&Sha256::digest(&req.body));
        let expected: String = hmac_sha256(key.as_bytes(), &msg)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        rcb_crypto::hmac::ct_eq(expected.as_bytes(), mac.to_ascii_lowercase().as_bytes())
    }

    #[test]
    fn one_pass_strip_and_verify_match_the_reference() {
        let k = key();
        let mut targets = Vec::new();
        for (unsigned, body) in [
            ("/s/0123456789abcdef/poll?p=17", &b""[..]),
            ("/s/0123456789abcdef/poll?p=17&lp=25000&d=1", b""),
            ("/poll?t=5&p=2", b"click|%23add"),
            ("/poll", b"t=0"),
        ] {
            let mut req = Request::post(unsigned, body.to_vec());
            sign_request(&k, &mut req);
            let mac = strip_mac(&req.target).1.unwrap();
            let (path, query) = unsigned.split_once('?').unwrap_or((unsigned, ""));
            let upper = mac.to_ascii_uppercase();
            for target in [
                req.target.clone(),
                // Reordered: the MAC first, or between parameters.
                format!("{path}?hmac={mac}&{query}"),
                format!(
                    "{path}?{}",
                    query.replacen('&', &format!("&hmac={mac}&"), 1)
                ),
                // Duplicated: the last one counts, every one is stripped.
                format!("{path}?{query}&hmac=00&hmac={mac}"),
                format!("{path}?{query}&hmac={mac}&hmac=00"),
                format!("{path}?hmac={mac}&hmac={mac}&{query}"),
                // Missing, empty, or not quite the parameter.
                unsigned.to_string(),
                format!("{path}?{query}&hmac="),
                format!("{path}?{query}&HMAC={mac}"),
                format!("{path}?{query}&xhmac={mac}"),
                format!("{path}?{query}&hmac"),
                // Upper-case digits.
                format!("{path}?{query}&hmac={upper}"),
                // Empty segments and a bare `?`.
                format!("{path}?&{query}&&hmac={mac}"),
                format!("{path}?"),
                format!("{path}?hmac={mac}"),
            ] {
                targets.push((target, body.to_vec()));
            }
        }
        let total = targets.len();
        let mut verified = 0;
        for (target, body) in targets {
            assert_eq!(strip_mac(&target), reference_strip(&target), "{target}");
            let req = Request::post(target.clone(), body);
            let ok = verify_request(&k, &req);
            assert_eq!(ok, reference_verify(&k, &req), "{target}");
            verified += usize::from(ok);
        }
        // Both answers are exercised, many times over.
        assert!(
            verified >= 16 && total - verified >= 16,
            "{verified} of {total} targets verified"
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
