//! Ordered, case-insensitive header map.
//!
//! HTTP header field names are case-insensitive (RFC 2616 §4.2) but order
//! can matter for repeated fields (`Set-Cookie`), so the map preserves
//! insertion order and stores the original spelling.
//!
//! The fields are shared copy-on-write: cloning a map bumps one `Arc`,
//! and a mutation copies the fields only while another clone still holds
//! them. Every reply a session serves is a clone of a prefab, so its
//! headers cost no allocation.

use std::fmt;
use std::sync::Arc;

use rcb_util::{RcbError, Result};

/// An ordered multimap of HTTP header fields.
#[derive(Clone, Default)]
pub struct HeaderMap {
    /// `None` until the first field: an empty map allocates nothing.
    entries: Option<Arc<Vec<(String, String)>>>,
}

impl HeaderMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        HeaderMap::default()
    }

    fn entries(&self) -> &[(String, String)] {
        self.entries.as_deref().map_or(&[], Vec::as_slice)
    }

    /// The fields for writing: this map's own copy, made now if a clone
    /// shares them.
    fn entries_mut(&mut self) -> &mut Vec<(String, String)> {
        Arc::make_mut(self.entries.get_or_insert_with(Arc::default))
    }

    /// Appends a field, keeping any existing fields with the same name.
    pub fn append(&mut self, name: impl Into<String>, value: impl Into<String>) {
        self.entries_mut().push((name.into(), value.into()));
    }

    /// Sets a field, replacing all existing fields with the same name.
    pub fn set(&mut self, name: &str, value: impl Into<String>) {
        let entries = self.entries_mut();
        entries.retain(|(n, _)| !n.eq_ignore_ascii_case(name));
        entries.push((name.to_string(), value.into()));
    }

    /// First value for `name`, case-insensitively.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.entries()
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// All values for `name`, in insertion order.
    pub fn get_all(&self, name: &str) -> Vec<&str> {
        self.entries()
            .iter()
            .filter(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// Whether a field named `name` exists.
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Removes all fields named `name`.
    pub fn remove(&mut self, name: &str) {
        if self.contains(name) {
            self.entries_mut()
                .retain(|(n, _)| !n.eq_ignore_ascii_case(name));
        }
    }

    /// Iterates `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries().iter().map(|(n, v)| (n.as_str(), v.as_str()))
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries().is_empty()
    }

    /// Parses `Content-Length`, distinguishing *absent* from *invalid*.
    ///
    /// `Ok(None)` means the header is absent (callers pick their own
    /// default); `Ok(Some(n))` means every `Content-Length` field agrees
    /// on the decimal value `n`. Anything else — a non-digit value, an
    /// empty value, a signed value like `+5`, or duplicates that disagree
    /// — is `Err`, never silently 0: a message framed by a bad length
    /// desyncs the connection (the request-smuggling shape), so it must
    /// be rejected, not guessed at. Identical duplicates are tolerated
    /// (RFC 7230 §3.3.2 allows receivers to accept them).
    pub fn content_length(&self) -> Result<Option<usize>> {
        let values = self.get_all("content-length");
        let Some(first) = values.first() else {
            return Ok(None);
        };
        let parse = |v: &str| {
            let v = v.trim();
            // `usize::from_str` accepts a leading '+'; HTTP does not.
            if v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) {
                return Err(RcbError::parse(
                    "http",
                    format!("invalid Content-Length {v:?}"),
                ));
            }
            v.parse::<usize>()
                .map_err(|_| RcbError::parse("http", format!("invalid Content-Length {v:?}")))
        };
        let n = parse(first)?;
        for v in &values[1..] {
            if parse(v)? != n {
                return Err(RcbError::parse(
                    "http",
                    "conflicting duplicate Content-Length",
                ));
            }
        }
        Ok(Some(n))
    }
}

/// Maps compare by their fields, however they are shared.
impl PartialEq for HeaderMap {
    fn eq(&self, other: &Self) -> bool {
        self.entries() == other.entries()
    }
}

impl Eq for HeaderMap {}

impl fmt::Debug for HeaderMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HeaderMap")
            .field("entries", &self.entries())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_insensitive_get() {
        let mut h = HeaderMap::new();
        h.append("Content-Type", "text/html");
        assert_eq!(h.get("content-type"), Some("text/html"));
        assert_eq!(h.get("CONTENT-TYPE"), Some("text/html"));
        assert!(h.contains("Content-type"));
    }

    #[test]
    fn set_replaces_append_keeps() {
        let mut h = HeaderMap::new();
        h.append("Set-Cookie", "a=1");
        h.append("Set-Cookie", "b=2");
        assert_eq!(h.get_all("set-cookie"), vec!["a=1", "b=2"]);
        h.set("Set-Cookie", "c=3");
        assert_eq!(h.get_all("set-cookie"), vec!["c=3"]);
    }

    #[test]
    fn remove_clears_all() {
        let mut h = HeaderMap::new();
        h.append("X", "1");
        h.append("x", "2");
        h.remove("X");
        assert!(h.is_empty());
    }

    #[test]
    fn content_length_parsing() {
        let mut h = HeaderMap::new();
        assert_eq!(h.content_length().unwrap(), None, "absent is fine");
        h.set("Content-Length", " 42 ");
        assert_eq!(h.content_length().unwrap(), Some(42));
        // Invalid values are errors, never a silent 0.
        for bad in ["nan", "", "+5", "-1", "4 2", "0x10", "42abc"] {
            h.set("Content-Length", bad);
            assert!(h.content_length().is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn content_length_duplicates() {
        // Identical duplicates are tolerated (RFC 7230 §3.3.2)...
        let mut h = HeaderMap::new();
        h.append("Content-Length", "7");
        h.append("content-length", " 7");
        assert_eq!(h.content_length().unwrap(), Some(7));
        // ...conflicting ones are the smuggling shape: hard error.
        h.append("Content-Length", "8");
        assert!(h.content_length().is_err());
        // A duplicate that is itself malformed is also an error.
        let mut h2 = HeaderMap::new();
        h2.append("Content-Length", "7");
        h2.append("Content-Length", "x");
        assert!(h2.content_length().is_err());
    }

    #[test]
    fn clones_share_fields_until_one_is_written() {
        let mut original = HeaderMap::new();
        original.append("Content-Type", "text/plain");
        original.append("Content-Length", "0");
        let copy = original.clone();
        // A clone holds the same field strings, not copies of them.
        let field_ptrs = |h: &HeaderMap| -> Vec<*const u8> {
            h.iter()
                .flat_map(|(n, v)| [n.as_ptr(), v.as_ptr()])
                .collect()
        };
        assert_eq!(field_ptrs(&copy), field_ptrs(&original));
        // Writing one copies its fields first; the other is untouched.
        let mut written = copy.clone();
        written.set("Content-Length", "5");
        written.remove("content-type");
        assert_eq!(
            written.iter().collect::<Vec<_>>(),
            [("Content-Length", "5")]
        );
        assert_eq!(copy, original);
        assert_eq!(
            copy.iter().collect::<Vec<_>>(),
            [("Content-Type", "text/plain"), ("Content-Length", "0")]
        );
        assert_eq!(field_ptrs(&copy), field_ptrs(&original));
        // Equality is by fields: an emptied map equals a new one.
        let mut emptied = original.clone();
        emptied.remove("content-type");
        emptied.remove("content-length");
        assert_eq!(emptied, HeaderMap::new());
    }

    #[test]
    fn iteration_preserves_order() {
        let mut h = HeaderMap::new();
        h.append("A", "1");
        h.append("B", "2");
        let names: Vec<&str> = h.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["A", "B"]);
        assert_eq!(h.len(), 2);
    }
}
