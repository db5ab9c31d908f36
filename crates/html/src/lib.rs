//! HTML/DOM substrate.
//!
//! RCB-Agent operates on the host browser's live DOM: it *clones the
//! documentElement node*, rewrites URLs and event attributes on the clone,
//! and extracts per-element attribute lists and innerHTML values (paper
//! §4.1.2). Ajax-Snippet does the inverse on the participant browser:
//! it sets head/body content from the received payloads, via innerHTML on
//! Firefox or DOM construction on IE (§4.2.2). None of that machinery
//! exists in Rust, so this crate builds it:
//!
//! * [`tokenizer`] — an HTML tokenizer (tags, attributes, entities,
//!   comments, doctype, raw-text elements);
//! * [`parser`] — a tolerant tree builder with the implicit `html`/`head`/
//!   `body` structure, frameset pages, void elements, and implicit end
//!   tags; plus a fragment parser used by `set_inner_html`;
//! * [`dom`] — an arena [`Document`] with typed nodes, deep clone, and
//!   mutation primitives;
//! * [`serialize`] — `innerHTML`/`outerHTML` serialization;
//! * [`query`] — traversal and lookup helpers;
//! * [`css`] — CSS selector matching (compounds, descendant/child
//!   combinators, groups) for scenario scripts and downstream users.
//!
//! The parser covers the HTML subset a 2009-era homepage exercises; it is
//! deliberately not a full HTML5 spec tree-builder.

pub mod css;
pub mod dom;
pub mod parser;
pub mod query;
pub mod serialize;
pub mod tokenizer;

pub use dom::{Document, NodeData, NodeId};
pub use parser::{parse_document, parse_fragment_into};
pub use serialize::{inner_html, outer_html};
