//! RCB: a simple and practical framework for Real-time Collaborative
//! Browsing — the core library.
//!
//! This crate implements the paper's contribution on top of the substrate
//! crates (`rcb-html`, `rcb-http`, `rcb-sim`, ...):
//!
//! * [`agent`] — **RCB-Agent**, the HTTP server living in the host
//!   browser, as its write path: participant-action merging (handing
//!   back the host effects actions ask for), document timestamps, the
//!   URL↔key mapping table and the newest generated content;
//! * `fig2` (crate-private) — the paper's Fig.-2 request procedure of one
//!   session, written once: request classification, HMAC verification,
//!   participant bookkeeping, timestamp inspection, and prefab replies
//!   (content, empty, object, initial page, long-poll wake and timeout);
//! * [`content`] — the agent's response-content generation pipeline
//!   (Fig. 3): documentElement cloning, relative→absolute URL rewriting,
//!   cache-mode agent-URL rewriting, event-attribute rewriting, and the
//!   Fig.-4 XML assembly;
//! * [`snippet`] — **Ajax-Snippet**, the participant-side poller: request
//!   construction with piggybacked actions and HMAC signing, and the
//!   four-step smooth content update of Fig. 5 with Firefox/IE capability
//!   paths;
//! * [`participant`] — the participant protocol around the snippet (join,
//!   signed poll, Fig.-5 apply, agent-object fetches, the `503` back-off)
//!   as one sans-IO state machine, driven over blocking sockets by
//!   [`tcp`] and over the seeded fabric by [`worldsim`];
//! * [`auth`] — request-URI HMAC authentication (§3.4);
//! * [`policy`] — navigation/interaction policies (§3.3);
//! * [`session`] — the virtual-time co-browsing world: the session host
//!   called in-process + participants + pipes, collecting the paper's
//!   six metrics (M1–M6), and carrying out the host effects of
//!   participant actions under the navigation policy;
//! * [`metrics`] — metric definitions and report formatting;
//! * [`baseline`] — the URL-sharing and proxy-based co-browsing baselines
//!   the paper positions against (§1, §2);
//! * [`push`] — the rejected `multipart/x-mixed-replace` push alternative
//!   (§3.2.3), implemented so the poll-vs-push decision can be measured;
//! * [`recorder`] — an append-only session event log with text
//!   round-tripping and replay statistics (audit/replay for the paper's
//!   training and support scenarios);
//! * [`usability`] — the §5.2 usability study: the 20-task script
//!   (Table 2) executed by simulated role-players, and the Likert
//!   questionnaire model (Tables 3/4);
//! * [`snapshot`] — immutable [`ContentSnapshot`]s: the contention-free
//!   read path for concurrent deployments (polls and object requests are
//!   served from a published frozen view; only host-side merges write);
//! * [`tcp`] — the session host every host serves (a snapshot-based
//!   concurrent request pipeline around the agent) and the real-socket
//!   deployment: RCB-Agent served over `std::net` TCP, participants
//!   joining with a plain HTTP client;
//! * [`router`] — the multi-tenant session layer: a sharded
//!   `sid → session` map multiplexing thousands of isolated sessions
//!   (own snapshot/agent/park channel each) over one serving engine,
//!   with per-session fairness and two-tier stats;
//! * [`worldsim`] — the deterministic world sim: the same agent handler
//!   and snippet, pumped over the seeded in-process fabric
//!   (`rcb_sim::world`) under virtual time — scripted, replayable
//!   scenarios with partitions, long-polls, and thousands of
//!   participants, no sockets or sleeps anywhere.

pub mod agent;
pub mod auth;
pub mod baseline;
pub mod content;
mod fig2;
pub mod metrics;
pub mod participant;
pub mod policy;
pub mod push;
pub mod recorder;
pub mod router;
pub mod session;
pub mod snapshot;
pub mod snippet;
pub mod tcp;
pub mod usability;
pub mod worldsim;

pub use agent::{AgentConfig, CacheMode, ParticipantShards, RcbAgent};
pub use metrics::PageMetrics;
pub use router::{RouterConfig, RouterHost, RouterStats, SessionHandle, SessionRouter};
pub use session::CoBrowsingWorld;
pub use snapshot::ContentSnapshot;
pub use snippet::AjaxSnippet;
