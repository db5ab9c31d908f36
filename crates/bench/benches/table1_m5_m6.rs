//! Criterion benches for Table 1's CPU columns.
//!
//! `m5_noncache/<site>` and `m5_cache/<site>` time the agent's response
//! content generation (Fig. 3); `m6/<site>` times the snippet's four-step
//! content update (Fig. 5). Three representative page sizes span the
//! Table-1 range (6.8 KB → 228.5 KB).

use std::sync::Mutex;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use rcb_browser::{Browser, BrowserKind};
use rcb_cache::MappingTable;
use rcb_core::agent::CacheMode;
use rcb_core::content::generate_content;
use rcb_core::snippet::apply_new_content;
use rcb_crypto::SessionKey;
use rcb_origin::OriginRegistry;
use rcb_sim::link::Pipe;
use rcb_sim::profiles::NetProfile;
use rcb_util::{DetRng, SimTime};

const SITES: [&str; 3] = ["google.com", "wikipedia.org", "amazon.com"];

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

fn bench_m5(c: &mut Criterion) {
    let key = SessionKey::generate_deterministic(&mut DetRng::new(1));
    let mut group = c.benchmark_group("table1_m5");
    for site in SITES {
        let host = loaded_host(site);
        group.bench_with_input(BenchmarkId::new("noncache", site), &host, |b, host| {
            b.iter(|| {
                let m = Mutex::new(MappingTable::new());
                generate_content(host, CacheMode::NonCache, &m, &key, "", 1, "").unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("cache", site), &host, |b, host| {
            b.iter(|| {
                let m = Mutex::new(MappingTable::new());
                generate_content(host, CacheMode::Cache, &m, &key, "", 1, "").unwrap()
            })
        });
    }
    group.finish();
}

fn bench_m6(c: &mut Criterion) {
    let key = SessionKey::generate_deterministic(&mut DetRng::new(1));
    let mut group = c.benchmark_group("table1_m6");
    for site in SITES {
        let host = loaded_host(site);
        let m = Mutex::new(MappingTable::new());
        let gc = generate_content(&host, CacheMode::NonCache, &m, &key, "", 1, "").unwrap();
        let nc = rcb_xml::parse_new_content(&gc.xml).unwrap().unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(site), &nc, |b, nc| {
            b.iter(|| {
                let mut doc = rcb_html::parse_document(
                    "<html><head><script id=\"ajax-snippet\">/*rcb*/</script></head><body></body></html>",
                );
                apply_new_content(&mut doc, BrowserKind::Firefox, &nc.head_children, &nc.top)
                    .unwrap();
                doc
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_m5, bench_m6
}
criterion_main!(benches);
