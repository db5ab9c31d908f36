//! Benchmark harness shared code.
//!
//! One binary per table/figure regenerates the paper's series (`table1`,
//! `fig6`, ... under `src/bin/`); this library holds the experiment
//! runners, the paper's published numbers for side-by-side reporting,
//! the pretty-printers, and the [`gates`] module of pure pass/fail
//! predicates behind the `scale1` CI gate.

pub mod gates;

use rcb_core::agent::CacheMode;
use rcb_core::metrics::PageMetrics;
use rcb_core::session::measure_site;
use rcb_origin::sites::TABLE1_SIZES_KB;
use rcb_sim::profiles::NetProfile;
use rcb_util::{Result, SimDuration};

/// The paper's Table 1: `(site, M5 non-cache s, M5 cache s, M6 s)`.
// amazon.com's published 0.318 s happens to approximate 1/π.
#[allow(clippy::approx_constant)]
pub const PAPER_TABLE1: [(&str, f64, f64, f64); 20] = [
    ("yahoo.com", 0.066, 0.098, 0.135),
    ("google.com", 0.015, 0.020, 0.045),
    ("youtube.com", 0.107, 0.172, 0.126),
    ("live.com", 0.019, 0.037, 0.057),
    ("msn.com", 0.079, 0.145, 0.119),
    ("myspace.com", 0.085, 0.097, 0.126),
    ("wikipedia.org", 0.113, 0.138, 0.171),
    ("facebook.com", 0.029, 0.036, 0.067),
    ("yahoo.co.jp", 0.111, 0.156, 0.154),
    ("ebay.com", 0.049, 0.098, 0.100),
    ("aol.com", 0.099, 0.189, 0.142),
    ("mail.ru", 0.176, 0.346, 0.268),
    ("amazon.com", 0.371, 0.687, 0.318),
    ("cnn.com", 0.298, 0.599, 0.280),
    ("espn.go.com", 0.175, 0.376, 0.194),
    ("free.fr", 0.211, 0.279, 0.222),
    ("adobe.com", 0.050, 0.085, 0.086),
    ("apple.com", 0.029, 0.056, 0.118),
    ("about.com", 0.056, 0.100, 0.081),
    ("nytimes.com", 0.221, 0.382, 0.196),
];

/// Number of repetitions per site ("This procedure was repeated five
/// times and we present the average results", §5.1.1).
pub const REPETITIONS: usize = 5;

/// Runs the full M1/M2 (+objects) measurement for all 20 sites under the
/// given environment and cache mode, averaged over [`REPETITIONS`].
pub fn run_all_sites(profile: &NetProfile, mode: CacheMode) -> Result<Vec<PageMetrics>> {
    let mut out = Vec::with_capacity(20);
    for &(idx, site, kb) in TABLE1_SIZES_KB.iter() {
        let mut reps = Vec::with_capacity(REPETITIONS);
        for rep in 0..REPETITIONS {
            let (load, sync) =
                measure_site(profile.clone(), mode, site, (idx as u64) << 8 | rep as u64)?;
            let mut record = PageMetrics {
                site: site.to_string(),
                page_bytes: (kb * 1024.0) as u64,
                m1: load.html_time,
                m2: sync.m2,
                ..PageMetrics::default()
            };
            match mode {
                CacheMode::Cache => record.m4 = sync.object_time,
                CacheMode::NonCache => record.m3 = sync.object_time,
            }
            reps.push(record);
        }
        out.push(rcb_core::metrics::average(&reps));
    }
    Ok(out)
}

/// Measures M5 (both modes) and M6 for one site with real CPU timing,
/// best-of-`reps` to de-noise.
pub fn measure_m5_m6(site: &str, reps: usize) -> Result<(SimDuration, SimDuration, SimDuration)> {
    use rcb_browser::{Browser, BrowserKind};
    use rcb_cache::MappingTable;
    use rcb_core::content::generate_content;
    use rcb_core::snippet::apply_new_content;
    use rcb_crypto::SessionKey;
    use rcb_origin::OriginRegistry;
    use rcb_sim::link::Pipe;
    use rcb_util::{DetRng, SimTime, Stopwatch};

    let key = SessionKey::generate_deterministic(&mut DetRng::new(1));
    let mut origins = OriginRegistry::with_alexa20();
    let profile = NetProfile::lan();
    let mut pipe = Pipe::new(profile.host_origin);
    let mut host = Browser::new(BrowserKind::Firefox);
    host.navigate(
        &rcb_url::Url::parse(&format!("http://{site}/"))?,
        &mut origins,
        &mut pipe,
        &profile,
        SimTime::ZERO,
    )?;

    let mut best_nc = SimDuration::from_secs(3600);
    let mut best_c = SimDuration::from_secs(3600);
    let mut best_m6 = SimDuration::from_secs(3600);
    for _ in 0..reps {
        let mut m = MappingTable::new();
        let nc = generate_content(&host, CacheMode::NonCache, &mut m, &key, "", 1, "")?;
        best_nc = best_nc.min(nc.generation_cost);
        let mut m = MappingTable::new();
        let c = generate_content(&host, CacheMode::Cache, &mut m, &key, "", 1, "")?;
        best_c = best_c.min(c.generation_cost);
        // M6: apply the generated content to a participant document.
        let parsed = rcb_xml::parse_new_content(&c.xml)?.expect("content present");
        let mut doc = rcb_html::parse_document(
            "<html><head><script id=\"ajax-snippet\">/*rcb*/</script></head><body></body></html>",
        );
        let sw = Stopwatch::start();
        apply_new_content(
            &mut doc,
            BrowserKind::Firefox,
            &parsed.head_children,
            &parsed.top,
        )?;
        best_m6 = best_m6.min(sw.elapsed());
    }
    Ok((best_nc, best_c, best_m6))
}

/// Formats seconds with millisecond precision, like the paper's tables.
pub fn secs(d: SimDuration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Prints a two-series figure (the M1-vs-M2 bar charts of Figs. 6/7) as
/// an aligned text table plus a coarse ASCII bar pair per site.
pub fn print_two_series(
    title: &str,
    label_a: &str,
    label_b: &str,
    rows: &[(String, SimDuration, SimDuration)],
) {
    println!("{title}");
    println!("{:-<78}", "");
    println!(
        "{:<4} {:<16} {:>10} {:>10}   comparison",
        "#", "site", label_a, label_b
    );
    let max = rows
        .iter()
        .map(|(_, a, b)| a.as_secs_f64().max(b.as_secs_f64()))
        .fold(0.0f64, f64::max)
        .max(1e-9);
    for (i, (site, a, b)) in rows.iter().enumerate() {
        let bar = |v: SimDuration| {
            let n = ((v.as_secs_f64() / max) * 28.0).round() as usize;
            "█".repeat(n.max(1))
        };
        println!(
            "{:<4} {:<16} {:>10} {:>10}   {} {}",
            i + 1,
            site,
            secs(*a),
            secs(*b),
            bar(*a),
            bar(*b),
        );
    }
    println!();
}

/// Single-repetition variant of [`run_all_sites`] for tests and smoke runs.
pub fn run_all_sites_quick(profile: &NetProfile, mode: CacheMode) -> Result<Vec<PageMetrics>> {
    let mut out = Vec::with_capacity(20);
    for &(idx, site, kb) in TABLE1_SIZES_KB.iter() {
        let (load, sync) = measure_site(profile.clone(), mode, site, idx as u64)?;
        let mut record = PageMetrics {
            site: site.to_string(),
            page_bytes: (kb * 1024.0) as u64,
            m1: load.html_time,
            m2: sync.m2,
            ..PageMetrics::default()
        };
        match mode {
            CacheMode::Cache => record.m4 = sync.object_time,
            CacheMode::NonCache => record.m3 = sync.object_time,
        }
        out.push(record);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table_is_complete() {
        assert_eq!(PAPER_TABLE1.len(), 20);
        assert_eq!(PAPER_TABLE1[12].0, "amazon.com");
        // Paper observation: cache-mode M5 exceeds non-cache M5 everywhere.
        for (site, nc, c, m6) in PAPER_TABLE1 {
            assert!(c > nc, "{site}");
            assert!(m6 < 0.334, "{site}");
        }
    }

    #[test]
    fn m5_m6_measurement_runs() {
        let (nc, c, m6) = measure_m5_m6("google.com", 3).unwrap();
        assert!(nc > SimDuration::ZERO);
        assert!(c > SimDuration::ZERO);
        assert!(m6 > SimDuration::ZERO);
    }

    #[test]
    fn run_all_sites_covers_20() {
        // Single repetition for test speed.
        let rows = run_all_sites_quick(&NetProfile::lan(), CacheMode::Cache).unwrap();
        assert_eq!(rows.len(), 20);
        assert!(rows.iter().all(|r| r.m1 > SimDuration::ZERO));
    }
}
