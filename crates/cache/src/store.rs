//! The object cache: bounded, LRU-evicting, with streaming read sessions.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use rcb_util::{ByteSize, RcbError, Result, SimTime};

/// One cached object.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// The absolute URL this object was fetched from.
    pub url: String,
    /// The response `Content-Type`.
    pub content_type: String,
    /// Body bytes as a shared slice: read sessions, snapshot views, and
    /// HTTP response bodies all hold this same allocation, so serving a
    /// cached object never copies its bytes.
    pub data: Arc<[u8]>,
    /// When the entry was stored.
    pub stored_at: SimTime,
}

impl CacheEntry {
    /// Body size.
    pub fn size(&self) -> ByteSize {
        ByteSize::bytes(self.data.len() as u64)
    }
}

/// A bounded browser cache keyed by absolute URL.
#[derive(Debug)]
pub struct Cache {
    entries: HashMap<String, CacheEntry>,
    /// Recency list: front = least recently used.
    lru: Vec<String>,
    capacity: ByteSize,
    used: ByteSize,
    hits: u64,
    misses: u64,
    /// Memoized frozen view of `entries`, invalidated by any content
    /// mutation (store/remove/clear — recency touches don't affect it).
    /// Lets [`Cache::view`] be an `Arc` bump on the hot regeneration
    /// path instead of an O(entries) map clone per DOM version.
    view_memo: Mutex<Option<CacheView>>,
}

impl Cache {
    /// Creates a cache bounded to `capacity` bytes of body data.
    pub fn new(capacity: ByteSize) -> Cache {
        Cache {
            entries: HashMap::new(),
            lru: Vec::new(),
            capacity,
            used: ByteSize::ZERO,
            hits: 0,
            misses: 0,
            view_memo: Mutex::new(None),
        }
    }

    /// A cache sized like a 2009 browser default (50 MB).
    pub fn with_default_capacity() -> Cache {
        Cache::new(ByteSize::kib(50 * 1024))
    }

    /// Stores an object, evicting LRU entries if needed. Objects larger
    /// than the whole capacity are not cached. Accepts anything that
    /// converts into a shared slice (a `Vec<u8>` is converted once at
    /// store time; an already-shared `Arc<[u8]>` is adopted without
    /// copying).
    pub fn store(
        &mut self,
        url: &str,
        content_type: &str,
        data: impl Into<Arc<[u8]>>,
        now: SimTime,
    ) -> bool {
        let data = data.into();
        let size = ByteSize::bytes(data.len() as u64);
        if size > self.capacity {
            return false;
        }
        self.remove(url);
        while self.used + size > self.capacity {
            let Some(victim) = self.lru.first().cloned() else {
                break;
            };
            self.remove(&victim);
        }
        self.used += size;
        self.entries.insert(
            url.to_string(),
            CacheEntry {
                url: url.to_string(),
                content_type: content_type.to_string(),
                data,
                stored_at: now,
            },
        );
        self.lru.push(url.to_string());
        self.invalidate_view();
        true
    }

    /// Looks up an object, updating recency and hit/miss counters.
    pub fn lookup(&mut self, url: &str) -> Option<CacheEntry> {
        if let Some(entry) = self.entries.get(url) {
            let entry = entry.clone();
            self.touch(url);
            self.hits += 1;
            Some(entry)
        } else {
            self.misses += 1;
            None
        }
    }

    /// Whether `url` is cached (no recency/counter side effects).
    pub fn contains(&self, url: &str) -> bool {
        self.entries.contains_key(url)
    }

    /// Removes an entry if present.
    pub fn remove(&mut self, url: &str) {
        if let Some(e) = self.entries.remove(url) {
            self.used = self.used.saturating_sub(e.size());
            self.lru.retain(|u| u != url);
            self.invalidate_view();
        }
    }

    /// Clears everything — the experiment protocol cleans caches "before
    /// each round of co-browsing" (paper §5.1.1).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.lru.clear();
        self.used = ByteSize::ZERO;
        self.invalidate_view();
    }

    /// Opens a streaming read session for `url`.
    pub fn open_read_session(&mut self, url: &str) -> Result<ReadSession> {
        let entry = self
            .lookup(url)
            .ok_or_else(|| RcbError::CacheMiss(url.to_string()))?;
        Ok(ReadSession {
            data: entry.data,
            content_type: entry.content_type,
            offset: 0,
        })
    }

    /// Bytes currently stored.
    pub fn used(&self) -> ByteSize {
        self.used
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// All cached URLs (unordered).
    pub fn urls(&self) -> Vec<String> {
        self.entries.keys().cloned().collect()
    }

    /// A frozen view of every entry, for readers that must not hold the
    /// cache (or its owner) while they work: the view shares one
    /// `Arc`-held copy of the entry map (body bytes `Arc`-shared with the
    /// live entries), memoized until the next content mutation — so the
    /// pipelined content-generation path, which captures one of these
    /// under the host mutex on every DOM version, usually pays a pointer
    /// bump, and at worst one map clone per cache change.
    pub fn view(&self) -> CacheView {
        let mut memo = self
            .view_memo
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        memo.get_or_insert_with(|| CacheView {
            entries: Arc::new(self.entries.clone()),
        })
        .clone()
    }

    fn invalidate_view(&mut self) {
        *self
            .view_memo
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = None;
    }

    fn touch(&mut self, url: &str) {
        if let Some(idx) = self.lru.iter().position(|u| u == url) {
            let u = self.lru.remove(idx);
            self.lru.push(u);
        }
    }
}

/// A detached, immutable view of a cache's contents (see [`Cache::view`]).
/// Cloning is an `Arc` bump; lookups have no recency or counter side
/// effects.
#[derive(Debug, Clone, Default)]
pub struct CacheView {
    entries: Arc<HashMap<String, CacheEntry>>,
}

impl CacheView {
    /// Whether `url` was cached when the view was taken.
    pub fn contains(&self, url: &str) -> bool {
        self.entries.contains_key(url)
    }

    /// The entry for `url`, if cached when the view was taken.
    pub fn get(&self, url: &str) -> Option<&CacheEntry> {
        self.entries.get(url)
    }

    /// Number of entries in the view.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `other` is this very view: taken from the same cache with
    /// no store, remove or clear in between (see [`Cache::view`]).
    pub fn same_view(&self, other: &CacheView) -> bool {
        Arc::ptr_eq(&self.entries, &other.entries)
    }
}

/// A streaming read over a cached object — the analogue of copying a cache
/// input stream into a socket output stream chunk by chunk (§4.1.1).
#[derive(Debug)]
pub struct ReadSession {
    data: Arc<[u8]>,
    /// The cached object's content type.
    pub content_type: String,
    offset: usize,
}

impl ReadSession {
    /// Reads up to `max` bytes, returning an empty slice at EOF.
    pub fn read_chunk(&mut self, max: usize) -> &[u8] {
        let start = self.offset;
        let end = (start + max).min(self.data.len());
        self.offset = end;
        &self.data[start..end]
    }

    /// Total object length.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the object is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Remaining unread bytes.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.offset
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn store_lookup_roundtrip() {
        let mut c = Cache::new(ByteSize::kib(10));
        assert!(c.store("http://h/a.png", "image/png", vec![1, 2, 3], t(0)));
        let e = c.lookup("http://h/a.png").unwrap();
        assert_eq!(&*e.data, &[1, 2, 3]);
        assert_eq!(e.content_type, "image/png");
        assert_eq!(c.stats(), (1, 0));
        assert!(c.lookup("http://h/missing").is_none());
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = Cache::new(ByteSize::bytes(30));
        c.store("a", "t", vec![0; 10], t(0));
        c.store("b", "t", vec![0; 10], t(1));
        c.store("c", "t", vec![0; 10], t(2));
        // Touch "a" so "b" becomes LRU.
        c.lookup("a");
        c.store("d", "t", vec![0; 10], t(3));
        assert!(c.contains("a"));
        assert!(!c.contains("b"));
        assert!(c.contains("c"));
        assert!(c.contains("d"));
        assert_eq!(c.used(), ByteSize::bytes(30));
    }

    #[test]
    fn oversized_object_rejected() {
        let mut c = Cache::new(ByteSize::bytes(5));
        assert!(!c.store("big", "t", vec![0; 6], t(0)));
        assert!(c.is_empty());
    }

    #[test]
    fn restore_replaces() {
        let mut c = Cache::new(ByteSize::bytes(100));
        c.store("a", "t", vec![0; 10], t(0));
        c.store("a", "t", vec![0; 4], t(1));
        assert_eq!(c.len(), 1);
        assert_eq!(c.used(), ByteSize::bytes(4));
    }

    #[test]
    fn clear_resets() {
        let mut c = Cache::new(ByteSize::bytes(100));
        c.store("a", "t", vec![0; 10], t(0));
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.used(), ByteSize::ZERO);
    }

    #[test]
    fn views_are_memoized_until_content_changes() {
        let mut c = Cache::new(ByteSize::kib(10));
        c.store("a", "t", vec![1, 2], t(0));
        let v1 = c.view();
        let v2 = c.view();
        // Same frozen map until the cache content changes.
        assert!(v1.same_view(&v2));
        // Recency-only traffic (lookup/touch) does not invalidate.
        c.lookup("a");
        assert!(v1.same_view(&c.view()));
        // A store invalidates; the old view stays frozen.
        c.store("b", "t", vec![3], t(1));
        let v3 = c.view();
        assert!(!v1.same_view(&v3));
        assert!(!v1.contains("b"));
        assert!(v3.contains("b"));
        // Body bytes are shared, never copied, between cache and views.
        let live = c.lookup("a").unwrap();
        assert!(Arc::ptr_eq(&v3.get("a").unwrap().data, &live.data));
        // Remove and clear invalidate too.
        c.remove("b");
        let v4 = c.view();
        assert!(!v4.contains("b") && !v4.same_view(&v3));
        c.clear();
        assert!(c.view().is_empty() && !c.view().same_view(&v4));
    }

    #[test]
    fn read_session_streams_chunks() {
        let mut c = Cache::new(ByteSize::kib(1));
        c.store("a", "text/css", (0u8..100).collect::<Vec<u8>>(), t(0));
        let mut s = c.open_read_session("a").unwrap();
        assert_eq!(s.len(), 100);
        let mut collected = Vec::new();
        loop {
            let chunk = s.read_chunk(16).to_vec();
            if chunk.is_empty() {
                break;
            }
            collected.extend_from_slice(&chunk);
        }
        assert_eq!(collected, (0u8..100).collect::<Vec<u8>>());
        assert_eq!(s.remaining(), 0);
        assert!(c.open_read_session("missing").is_err());
    }
}
