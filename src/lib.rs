//! # RCB — Real-time Collaborative Browsing
//!
//! A comprehensive Rust reproduction of *"RCB: A Simple and Practical
//! Framework for Real-time Collaborative Browsing"* (Yue, Chu, Wang —
//! USENIX ATC 2009), including every substrate the paper's system leans
//! on: an HTML/DOM engine, an HTTP/1.1 stack, a discrete-event network
//! simulator, a browser cache, origin-server applications, and
//! from-scratch crypto for request authentication.
//!
//! This facade crate re-exports the workspace so applications can depend
//! on one crate:
//!
//! ```
//! use rcb::core::agent::{AgentConfig, CacheMode};
//! use rcb::core::session::CoBrowsingWorld;
//! use rcb::browser::BrowserKind;
//! use rcb::sim::NetProfile;
//!
//! // Build a co-browsing world on a simulated LAN, host a page, sync it.
//! let mut world = CoBrowsingWorld::with_alexa20(
//!     NetProfile::lan(),
//!     AgentConfig { cache_mode: CacheMode::Cache, ..AgentConfig::default() },
//!     42,
//! );
//! let alice = world.add_participant(BrowserKind::Firefox);
//! world.host_navigate("http://google.com/").unwrap();
//! let (sync, _) = world.poll_participant(alice).unwrap();
//! assert!(sync.is_some());
//! ```
//!
//! See `ROADMAP.md` for the architecture and open items; the `rcb-bench`
//! binaries (`cargo run -p rcb-bench --bin table1`, ...) regenerate every
//! table and figure beside the paper's published numbers.

/// The paper's contribution: RCB-Agent, Ajax-Snippet, sessions, policies.
pub use rcb_core as core;

/// Simulated browser engine (navigation, cache, actions, observer).
pub use rcb_browser as browser;

/// Browser object cache and the agent's URI→key mapping table.
pub use rcb_cache as cache;

/// From-scratch SHA-256 / HMAC / keystream / session keys.
pub use rcb_crypto as crypto;

/// HTML tokenizer, tolerant tree builder, arena DOM, serialization.
pub use rcb_html as html;

/// HTTP/1.1 messages, incremental parser, TCP server/client.
pub use rcb_http as http;

/// Simulated origin servers: Alexa-20 synthetic sites, maps and shop apps.
pub use rcb_origin as origin;

/// Discrete-event network simulator and environment profiles.
pub use rcb_sim as sim;

/// URL parsing/resolution, percent-encoding, JS escape/unescape.
pub use rcb_url as url;

/// Shared plumbing: errors, simulated time, RNG, metrics.
pub use rcb_util as util;

/// The Fig.-4 newContent XML wire format.
pub use rcb_xml as xml;
