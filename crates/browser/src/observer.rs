//! The download observer.
//!
//! §4.1.2: "To achieve an accurate URL conversion, we create an observer
//! object which implements the methods of Mozilla's nsIObserverService.
//! Using this observer object, RCB-Agent can record complete URL addresses
//! for all the object downloading requests." The observer therefore knows,
//! for every raw reference that appeared in the page, which absolute URL
//! the browser actually fetched — including cases plain base-URL joining
//! cannot reconstruct (e.g. a `<base>` tag or script-rewritten paths).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use rcb_url::Url;

/// The next [`DownloadObserver::change_token`] a change hands out.
static NEXT_CHANGE: AtomicU64 = AtomicU64::new(1);

/// Records raw-reference → absolute-URL resolutions per page.
#[derive(Debug, Default, Clone)]
pub struct DownloadObserver {
    /// Keyed by (page URL, raw reference as written in the DOM).
    records: HashMap<(String, String), String>,
    /// Absolute URLs fetched for each page, in fetch order.
    per_page: HashMap<String, Vec<String>>,
    /// See [`DownloadObserver::change_token`].
    token: u64,
}

impl DownloadObserver {
    /// Creates an empty observer.
    pub fn new() -> Self {
        DownloadObserver::default()
    }

    /// Records that, while loading `page`, the raw reference `raw`
    /// resolved to `absolute` and was fetched.
    pub fn record(&mut self, page: &Url, raw: &str, absolute: &Url) {
        let key = (page.to_string(), raw.to_string());
        let abs = absolute.to_string();
        self.records.insert(key, abs.clone());
        self.per_page.entry(page.to_string()).or_default().push(abs);
        self.changed();
    }

    /// A token that changes with the records: every change takes one no
    /// observer in the process has had, and a new observer's (no records)
    /// is 0. Two observers with equal tokens resolve every reference
    /// alike, so a reader that kept the token of the records it used
    /// knows, by comparing tokens alone, whether they still hold.
    pub fn change_token(&self) -> u64 {
        self.token
    }

    fn changed(&mut self) {
        self.token = NEXT_CHANGE.fetch_add(1, Ordering::Relaxed);
    }

    /// Resolves a raw reference seen on `page`: recorded resolution first,
    /// falling back to RFC-3986 joining against the page URL.
    pub fn resolve(&self, page: &Url, raw: &str) -> Option<String> {
        if let Some(abs) = self.records.get(&(page.to_string(), raw.to_string())) {
            return Some(abs.clone());
        }
        page.join(raw).ok().map(|u| u.to_string())
    }

    /// Absolute object URLs fetched for `page`, in order.
    pub fn downloads_for(&self, page: &Url) -> &[String] {
        self.per_page
            .get(&page.to_string())
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Forgets everything (navigation away, or experiment reset).
    pub fn clear(&mut self) {
        self.records.clear();
        self.per_page.clear();
        self.changed();
    }

    /// Number of recorded resolutions.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    #[test]
    fn recorded_resolution_wins() {
        let mut obs = DownloadObserver::new();
        let page = url("http://cnn.com/");
        // A script rewrote "logo.png" to a CDN URL at fetch time.
        obs.record(&page, "logo.png", &url("http://cdn.cnn.com/v2/logo.png"));
        assert_eq!(
            obs.resolve(&page, "logo.png").unwrap(),
            "http://cdn.cnn.com/v2/logo.png"
        );
    }

    #[test]
    fn fallback_joins_against_page() {
        let obs = DownloadObserver::new();
        let page = url("http://cnn.com/world/index.html");
        assert_eq!(
            obs.resolve(&page, "img/a.png").unwrap(),
            "http://cnn.com/world/img/a.png"
        );
        assert_eq!(
            obs.resolve(&page, "/root.css").unwrap(),
            "http://cnn.com/root.css"
        );
        // Unsupported schemes cannot be resolved.
        assert!(obs.resolve(&page, "ftp://mirror/x").is_none());
    }

    #[test]
    fn per_page_download_order() {
        let mut obs = DownloadObserver::new();
        let p1 = url("http://a.com/");
        let p2 = url("http://b.com/");
        obs.record(&p1, "x.css", &url("http://a.com/x.css"));
        obs.record(&p1, "y.js", &url("http://a.com/y.js"));
        obs.record(&p2, "z.png", &url("http://b.com/z.png"));
        assert_eq!(
            obs.downloads_for(&p1),
            &["http://a.com/x.css", "http://a.com/y.js"]
        );
        assert_eq!(obs.downloads_for(&p2).len(), 1);
        assert_eq!(obs.len(), 3);
    }

    #[test]
    fn every_change_moves_the_token_and_a_clone_keeps_it() {
        let mut obs = DownloadObserver::new();
        assert_eq!(obs.change_token(), 0);
        let page = url("http://a.com/");
        obs.record(&page, "x", &url("http://a.com/x"));
        let first = obs.change_token();
        assert_ne!(first, 0);
        let mut copy = obs.clone();
        assert_eq!(copy.change_token(), first, "same records, same token");
        obs.record(&page, "y", &url("http://a.com/y"));
        copy.record(&page, "z", &url("http://a.com/z"));
        let tokens = [first, obs.change_token(), copy.change_token()];
        assert!(tokens[0] != tokens[1] && tokens[1] != tokens[2] && tokens[0] != tokens[2]);
        obs.clear();
        assert!(!tokens.contains(&obs.change_token()));
    }

    #[test]
    fn clear_resets() {
        let mut obs = DownloadObserver::new();
        obs.record(&url("http://a.com/"), "x", &url("http://a.com/x"));
        obs.clear();
        assert!(obs.is_empty());
        assert!(obs.downloads_for(&url("http://a.com/")).is_empty());
    }
}
