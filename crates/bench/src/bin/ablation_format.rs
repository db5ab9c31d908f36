//! Ablation A4 — the content format choice.
//!
//! §4.1.2 argues the Fig.-4 XML format "combines both the structural
//! advantages of using DOM and the performance and simplicity advantages
//! of using innerHTML". This ablation compares three designs for moving a
//! document update to a participant:
//!
//! 1. **RCB (Fig. 4)** — per-top-element payloads, JS-escaped in CDATA;
//! 2. **naive full-page resend** — raw outerHTML of the whole document
//!    (no structure: snippet placement, head preservation and partial
//!    updates all become the client's problem);
//! 3. **per-node DOM protocol** — one XML element per DOM node (pure
//!    structure: maximal flexibility, heavy encode cost and bytes).
//!
//! Reported: wire bytes and encode CPU per site, on three Table-1 sizes.

use std::sync::Mutex;

use rcb_browser::{Browser, BrowserKind};
use rcb_cache::MappingTable;
use rcb_core::agent::CacheMode;
use rcb_core::content::generate_content;
use rcb_crypto::SessionKey;
use rcb_html::dom::{Document, NodeData, NodeId};
use rcb_origin::OriginRegistry;
use rcb_sim::link::Pipe;
use rcb_sim::profiles::NetProfile;
use rcb_util::{DetRng, SimTime, Stopwatch};

fn loaded_host(site: &str) -> Browser {
    let mut origins = OriginRegistry::with_alexa20();
    let profile = NetProfile::lan();
    let mut pipe = Pipe::new(profile.host_origin);
    let mut b = Browser::new(BrowserKind::Firefox);
    b.navigate(
        &rcb_url::Url::parse(&format!("http://{site}/")).unwrap(),
        &mut origins,
        &mut pipe,
        &profile,
        SimTime::ZERO,
    )
    .unwrap();
    b
}

/// The per-node strawman: every DOM node becomes its own XML element.
fn per_node_encode(doc: &Document, node: NodeId, out: &mut String) {
    match doc.data(node) {
        NodeData::Element { tag, attrs } => {
            out.push_str(&format!("<n t=\"{tag}\""));
            for (i, (k, v)) in attrs.iter().enumerate() {
                out.push_str(&format!(
                    " a{i}=\"{}={}\"",
                    k,
                    rcb_xml::scanner::encode_attr(v)
                ));
            }
            out.push('>');
            for &c in doc.children(node) {
                per_node_encode(doc, c, out);
            }
            out.push_str("</n>");
        }
        NodeData::Text(t) => {
            out.push_str(&format!(
                "<x><![CDATA[{}]]></x>",
                rcb_url::jsescape::escape(t)
            ));
        }
        NodeData::Comment(_) | NodeData::Doctype(_) | NodeData::Document => {}
    }
}

fn main() {
    let key = SessionKey::generate_deterministic(&mut DetRng::new(1));
    println!("Ablation A4 — content format comparison (encode CPU + wire bytes)");
    println!("{:-<86}", "");
    println!(
        "{:<14} {:>9} | {:>11} {:>10} | {:>11} {:>10} | {:>11} {:>10}",
        "site",
        "page KB",
        "rcb bytes",
        "rcb cpu",
        "naive bytes",
        "naive cpu",
        "pernode B",
        "pernode cpu"
    );
    for site in ["google.com", "wikipedia.org", "amazon.com"] {
        let host = loaded_host(site);
        let doc = host.doc.as_ref().unwrap();
        let kb = rcb_origin::sites::TABLE1_SIZES_KB
            .iter()
            .find(|(_, s, _)| *s == site)
            .map(|(_, _, kb)| *kb)
            .unwrap();

        // RCB Fig.-4 format (best of 5).
        let mut rcb_bytes = 0;
        let mut rcb_cpu = u64::MAX;
        for _ in 0..5 {
            let m = Mutex::new(MappingTable::new());
            let sw = Stopwatch::start();
            let gc = generate_content(&host, CacheMode::NonCache, &m, &key, "", 1, "").unwrap();
            rcb_cpu = rcb_cpu.min(sw.elapsed().as_micros());
            rcb_bytes = gc.xml.len();
        }

        // Naive full-document resend.
        let mut naive_bytes = 0;
        let mut naive_cpu = u64::MAX;
        for _ in 0..5 {
            let sw = Stopwatch::start();
            let s = rcb_html::serialize::serialize_document(doc);
            naive_cpu = naive_cpu.min(sw.elapsed().as_micros());
            naive_bytes = s.len();
        }

        // Per-node protocol.
        let mut pn_bytes = 0;
        let mut pn_cpu = u64::MAX;
        for _ in 0..5 {
            let sw = Stopwatch::start();
            let mut s = String::new();
            per_node_encode(doc, doc.document_element().unwrap(), &mut s);
            pn_cpu = pn_cpu.min(sw.elapsed().as_micros());
            pn_bytes = s.len();
        }

        println!(
            "{:<14} {:>9.1} | {:>11} {:>9}us | {:>11} {:>9}us | {:>11} {:>9}us",
            site, kb, rcb_bytes, rcb_cpu, naive_bytes, naive_cpu, pn_bytes, pn_cpu
        );
    }
    println!("\nshape: the naive resend is cheapest to encode but loses the structural");
    println!("guarantees (snippet survival, per-element head updates, frames switching);");
    println!("the per-node protocol pays the most CPU and bytes; Fig. 4 sits between —");
    println!("structure exactly where the update algorithm needs it, innerHTML elsewhere.");
}
