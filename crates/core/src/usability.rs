//! The §5.2 usability study, reproduced with scripted role-players.
//!
//! The paper ran 10 pairs of human subjects through two scenarios —
//! coordinating a meeting spot on Google Maps and co-shopping at
//! Amazon.com — as 20 concrete tasks (Table 2), then collected a 16
//! question Likert questionnaire (Tables 3/4).
//!
//! Humans cannot be re-run, so this module does two separable things:
//!
//! 1. **Task execution is genuinely re-measured**: [`run_session`] drives
//!    the 20 tasks of Table 2 against the real RCB stack (maps app, shop
//!    app, agent, snippet, simulated users with think time) and records
//!    per-task success and duration. A failure anywhere (missed sync,
//!    broken form merge, lost action) fails the task — this is an
//!    end-to-end correctness harness, the same role the study played.
//! 2. **The questionnaire is a calibrated regeneration**: [`likert`]
//!    samples simulated subjects from the paper's published per-question
//!    response distributions (Table 4) so the reporting pipeline
//!    (median/mode/percentage summarization over merged positive and
//!    inverted negative questions) can be reproduced and printed. The
//!    `table4` bench binary labels its output as synthetic.

use rcb_browser::{BrowserKind, UserAction};
use rcb_origin::apps::maps::{MapsApp, Viewport};
use rcb_origin::apps::ShopApp;
use rcb_origin::OriginRegistry;
use rcb_sim::profiles::NetProfile;
use rcb_util::{Result, SimDuration};

use crate::agent::AgentConfig;
use crate::session::CoBrowsingWorld;

/// Hosts used by the study scenarios.
pub const MAPS_HOST: &str = "maps.example.com";
/// Shop host (the Amazon.com stand-in).
pub const SHOP_HOST: &str = "shop.example.com";

/// Result of one Table-2 task.
#[derive(Debug, Clone)]
pub struct TaskResult {
    /// Task id, matching Table 2 ("T1-B", "T1-A", ...).
    pub id: &'static str,
    /// Short description.
    pub description: &'static str,
    /// Whether the task's verification check passed.
    pub ok: bool,
    /// Virtual time the task consumed.
    pub duration: SimDuration,
}

/// Result of one full 20-task co-browsing session.
#[derive(Debug, Clone)]
pub struct SessionResult {
    /// Per-task outcomes, in Table-2 order.
    pub tasks: Vec<TaskResult>,
    /// Total virtual session time.
    pub total: SimDuration,
}

impl SessionResult {
    /// Whether every task succeeded.
    pub fn all_ok(&self) -> bool {
        self.tasks.iter().all(|t| t.ok)
    }
}

/// Builds the scenario world: maps + shop apps, LAN profile (the study ran
/// on two campus computers).
pub fn study_world(seed: u64) -> CoBrowsingWorld {
    let mut origins = OriginRegistry::new();
    origins.register(Box::new(MapsApp::new(MAPS_HOST)));
    origins.register(Box::new(ShopApp::new(SHOP_HOST)));
    CoBrowsingWorld::new(origins, NetProfile::lan(), AgentConfig::default(), seed)
}

/// Applies a maps viewport to the host page: swaps the tile-grid image
/// sources and fetches the new tiles — what the map page's JavaScript
/// does on pan/zoom/search (the URL never changes). Both run in one host
/// borrow, so the content published for the new viewport sees its tiles.
pub fn host_maps_set_viewport(world: &mut CoBrowsingWorld, vp: Viewport) -> Result<()> {
    let tiles = vp.tiles();
    world.browse_host(|browser, origins, pipe, profile, now| {
        browser.mutate_dom(move |doc| {
            let root = doc.root();
            let imgs = rcb_html::query::elements_by_tag(doc, root, "img");
            for (img, (x, y, z)) in imgs.into_iter().zip(tiles.iter()) {
                doc.set_attr(img, "src", Viewport::tile_path(*x, *y, *z));
                doc.set_attr(img, "id", format!("tile-{x}-{y}"));
            }
            if let Some(status) = rcb_html::query::element_by_id(doc, root, "status") {
                doc.clear_children(status);
                let t = doc.create_text(format!("viewport {} {} z{}", vp.x, vp.y, vp.z));
                doc.append_child(status, t).expect("status node attached");
            }
        })?;
        // The host browser fetches the new tiles (Ajax image loads).
        let refs = browser.supplementary_refs();
        let page = browser.url.clone().expect("maps page is loaded");
        let (done, _, _, _) = browser.fetch_objects(&page, &refs, origins, pipe, profile, now)?;
        Ok(((), done))
    })
}

/// True if the participant's current page shows the tile at the
/// north-west corner of `vp`.
fn participant_sees_viewport(world: &CoBrowsingWorld, idx: usize, vp: Viewport) -> bool {
    let Some(doc) = world.participants[idx].browser.doc.as_ref() else {
        return false;
    };
    let marker = format!("viewport {} {} z{}", vp.x, vp.y, vp.z);
    doc.text_content(doc.root()).contains(&marker)
}

fn participant_page_text(world: &CoBrowsingWorld, idx: usize) -> String {
    world.participants[idx]
        .browser
        .doc
        .as_ref()
        .map(|d| d.text_content(d.root()))
        .unwrap_or_default()
}

/// Runs one complete 20-task session (Table 2) with Bob hosting and Alice
/// participating. Think times are deterministic per `seed`.
pub fn run_session(seed: u64) -> Result<SessionResult> {
    let mut world = study_world(seed);
    let mut tasks: Vec<TaskResult> = Vec::new();
    let session_start = world.now;

    let task = |world: &mut CoBrowsingWorld,
                tasks: &mut Vec<TaskResult>,
                id: &'static str,
                description: &'static str,
                run: &mut dyn FnMut(&mut CoBrowsingWorld) -> Result<bool>|
     -> Result<()> {
        let start = world.now;
        world.think(4_000, 12_000); // read instructions, move mouse, type
        let ok = run(world)?;
        tasks.push(TaskResult {
            id,
            description,
            ok,
            duration: world.now.since(start),
        });
        Ok(())
    };

    // T1-B / T1-A: Bob starts the session; Alice joins via the agent URL.
    task(
        &mut world,
        &mut tasks,
        "T1-B",
        "Bob starts an RCB co-browsing session",
        &mut |w| Ok(w.session().participant_count() == 0),
    )?;
    let alice = world.add_participant(BrowserKind::Firefox);
    task(
        &mut world,
        &mut tasks,
        "T1-A",
        "Alice joins with the agent URL",
        &mut |w| Ok(w.participants.len() == 1),
    )?;

    // T2-B / T2-A: Bob searches the Cartier address on the maps site.
    let cartier = MapsApp::geocode("653 5th Ave, New York");
    task(
        &mut world,
        &mut tasks,
        "T2-B",
        "Bob searches 653 5th Ave on Maps",
        &mut |w| {
            w.host_navigate(&format!(
                "http://{MAPS_HOST}/maps?q=653+5th+Ave%2C+New+York"
            ))?;
            Ok(true)
        },
    )?;
    task(
        &mut world,
        &mut tasks,
        "T2-A",
        "The map appears on Alice's browser",
        &mut |w| {
            w.poll_participant(alice)?;
            Ok(participant_sees_viewport(w, alice, cartier))
        },
    )?;

    // T3-B / T3-A: Bob zooms and pans; Alice's map follows.
    let panned = cartier.zoom_in().pan(1, 0);
    task(
        &mut world,
        &mut tasks,
        "T3-B",
        "Bob zooms in and drags the map",
        &mut |w| {
            host_maps_set_viewport(w, cartier.zoom_in())?;
            w.think(1_500, 4_000);
            host_maps_set_viewport(w, panned)?;
            Ok(true)
        },
    )?;
    task(
        &mut world,
        &mut tasks,
        "T3-A",
        "Alice's map updates automatically",
        &mut |w| {
            w.poll_participant(alice)?;
            Ok(participant_sees_viewport(w, alice, panned))
        },
    )?;

    // T4-B / T4-A: street view (a deeper zoom in this reproduction — the
    // paper notes Flash internals are NOT synchronized, only the page).
    let street = panned.zoom_in().zoom_in();
    task(
        &mut world,
        &mut tasks,
        "T4-B",
        "Bob opens the street-level view",
        &mut |w| {
            host_maps_set_viewport(w, street)?;
            Ok(true)
        },
    )?;
    task(
        &mut world,
        &mut tasks,
        "T4-A",
        "Street view appears on Alice's browser",
        &mut |w| {
            w.poll_participant(alice)?;
            Ok(participant_sees_viewport(w, alice, street))
        },
    )?;

    // T5-B / T5-A: agree on the meeting spot over the voice channel.
    task(
        &mut world,
        &mut tasks,
        "T5-B",
        "Bob points out the Cartier show-windows",
        &mut |w| {
            w.participant_action(alice, UserAction::MouseMove { x: 512, y: 384 });
            w.think(15_000, 40_000); // voice discussion
            Ok(true)
        },
    )?;
    task(
        &mut world,
        &mut tasks,
        "T5-A",
        "Alice agrees on the meeting spot",
        &mut |w| {
            w.poll_participant(alice)?;
            Ok(true)
        },
    )?;

    // T6-B / T6-A: Bob visits the shop homepage.
    task(
        &mut world,
        &mut tasks,
        "T6-B",
        "Bob visits the shop homepage",
        &mut |w| {
            w.host_navigate(&format!("http://{SHOP_HOST}/"))?;
            Ok(true)
        },
    )?;
    task(
        &mut world,
        &mut tasks,
        "T6-A",
        "Shop homepage shows on Alice's browser",
        &mut |w| {
            w.poll_participant(alice)?;
            Ok(participant_page_text(w, alice).contains("rcb-shop"))
        },
    )?;

    // T7-B / T7-A: Bob searches for a MacBook Air and opens a product.
    task(
        &mut world,
        &mut tasks,
        "T7-B",
        "Bob searches for a MacBook Air",
        &mut |w| {
            w.host_navigate(&format!("http://{SHOP_HOST}/search?q=macbook"))?;
            w.think(2_000, 6_000);
            w.host_navigate(&format!("http://{SHOP_HOST}/product/0"))?;
            Ok(true)
        },
    )?;
    task(
        &mut world,
        &mut tasks,
        "T7-A",
        "Pages update on Alice's browser",
        &mut |w| {
            w.poll_participant(alice)?;
            Ok(participant_page_text(w, alice).contains("MacBook"))
        },
    )?;

    // T8-B / T8-A: Alice drives — searches and picks a different laptop.
    task(
        &mut world,
        &mut tasks,
        "T8-B",
        "Bob asks Alice to choose a laptop",
        &mut |_| Ok(true),
    )?;
    task(
        &mut world,
        &mut tasks,
        "T8-A",
        "Alice searches and picks her laptop",
        &mut |w| {
            w.participant_action(
                alice,
                UserAction::Navigate {
                    url: format!("http://{SHOP_HOST}/search?q=macbook"),
                },
            );
            w.poll_participant(alice)?; // action rides this poll; host navigates
            w.sleep(SimDuration::from_secs(1));
            w.poll_participant(alice)?; // results sync back
            w.think(3_000, 9_000);
            w.participant_action(
                alice,
                UserAction::Navigate {
                    url: format!("http://{SHOP_HOST}/product/3"),
                },
            );
            w.poll_participant(alice)?;
            w.sleep(SimDuration::from_secs(1));
            w.poll_participant(alice)?;
            Ok(w.host_url().is_some_and(|u| u.path == "/product/3")
                && participant_page_text(w, alice).contains("MacBook"))
        },
    )?;

    // T9-B / T9-A: Bob adds to cart and starts checkout; Alice co-fills
    // the shipping form from her browser.
    task(
        &mut world,
        &mut tasks,
        "T9-B",
        "Bob adds the laptop and starts checkout",
        &mut |w| {
            w.host_navigate(&format!("http://{SHOP_HOST}/cart/add?id=3"))?;
            w.host_navigate(&format!("http://{SHOP_HOST}/checkout"))?;
            Ok(w.host_browser(|b| {
                b.doc.as_ref().is_some_and(|d| {
                    rcb_html::query::element_by_id(d, d.root(), "shipping").is_some()
                })
            }))
        },
    )?;
    task(
        &mut world,
        &mut tasks,
        "T9-A",
        "Alice fills the shipping address form",
        &mut |w| {
            w.poll_participant(alice)?; // checkout form syncs to Alice
            for (field, value) in [
                ("fullname", "Alice Cousin"),
                ("street", "653 5th Ave"),
                ("city", "New York"),
                ("zip", "10022"),
            ] {
                w.think(2_000, 5_000);
                w.participant_action(
                    alice,
                    UserAction::FormInput {
                        form: "shipping".into(),
                        field: field.into(),
                        value: value.into(),
                    },
                );
            }
            w.poll_participant(alice)?; // inputs merge into the host form
            let fields = w.session().form_fields("shipping");
            Ok(fields.contains(&("street".into(), "653 5th Ave".into()))
                && fields.contains(&("zip".into(), "10022".into())))
        },
    )?;

    // T10-B / T10-A: Bob completes checkout; Alice leaves.
    task(
        &mut world,
        &mut tasks,
        "T10-B",
        "Bob finishes the checkout",
        &mut |w| {
            w.host_submit_form("shipping")?;
            w.host_submit_form("confirm")?;
            Ok(w.host_browser(|b| {
                b.doc
                    .as_ref()
                    .is_some_and(|d| d.text_content(d.root()).contains("Order placed"))
            }))
        },
    )?;
    task(
        &mut world,
        &mut tasks,
        "T10-A",
        "Alice leaves the session",
        &mut |w| {
            w.poll_participant(alice)?;
            let saw_confirmation = participant_page_text(w, alice).contains("Order placed");
            w.remove_participant(alice);
            Ok(saw_confirmation && w.participants.is_empty())
        },
    )?;

    Ok(SessionResult {
        total: world.now.since(session_start),
        tasks,
    })
}

/// Runs the full study: `pairs` subject pairs, each completing two
/// sessions with swapped roles (the paper used 10 pairs → 20 sessions).
pub fn run_study(pairs: usize, seed: u64) -> Result<Vec<SessionResult>> {
    let mut out = Vec::with_capacity(pairs * 2);
    for pair in 0..pairs {
        for session in 0..2 {
            out.push(run_session(seed ^ ((pair as u64) << 8 | session as u64))?);
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Likert questionnaire (Tables 3 and 4)
// ---------------------------------------------------------------------------

/// The five Likert answer categories.
pub const LIKERT_LEVELS: [&str; 5] = [
    "Strongly disagree",
    "Disagree",
    "Neither agree nor disagree",
    "Agree",
    "Strongly Agree",
];

/// One question group (positive + inverted negative), with the response
/// distribution published in Table 4 used to calibrate simulated subjects.
#[derive(Debug, Clone)]
pub struct LikertQuestion {
    /// Question id ("Q1" ... "Q8").
    pub id: &'static str,
    /// The positive phrasing (Table 3).
    pub positive: &'static str,
    /// Published response percentages (strongly-disagree → strongly-agree).
    pub paper_percent: [f64; 5],
}

/// The eight question groups of Table 3 with the Table-4 distributions.
pub fn questions() -> Vec<LikertQuestion> {
    vec![
        LikertQuestion {
            id: "Q1",
            positive: "It is helpful to use RCB to coordinate a meeting spot via Google Maps.",
            paper_percent: [0.0, 0.0, 7.5, 52.5, 40.0],
        },
        LikertQuestion {
            id: "Q2",
            positive: "It is helpful to use RCB to perform online co-shopping at Amazon.com.",
            paper_percent: [0.0, 0.0, 7.5, 52.5, 40.0],
        },
        LikertQuestion {
            id: "Q3",
            positive: "It is easy to use RCB to host the Google Maps scenario.",
            paper_percent: [5.0, 0.0, 5.0, 50.0, 40.0],
        },
        LikertQuestion {
            id: "Q4",
            positive: "It is easy to use RCB to host the online co-shopping scenario.",
            paper_percent: [0.0, 2.5, 7.5, 62.5, 27.5],
        },
        LikertQuestion {
            id: "Q5",
            positive: "It is easy to participate in the RCB Google Maps scenario.",
            paper_percent: [0.0, 2.5, 0.0, 62.5, 35.0],
        },
        LikertQuestion {
            id: "Q6",
            positive: "It is easy to participate in the RCB online co-shopping scenario.",
            paper_percent: [0.0, 5.0, 2.5, 57.5, 35.0],
        },
        LikertQuestion {
            id: "Q7",
            positive: "It would be helpful to use RCB on other co-browsing activities.",
            paper_percent: [0.0, 2.5, 5.0, 55.0, 37.5],
        },
        LikertQuestion {
            id: "Q8",
            positive: "I would like to use RCB in the future.",
            paper_percent: [0.0, 0.0, 15.0, 55.0, 30.0],
        },
    ]
}

/// Summary row of regenerated responses for one question.
#[derive(Debug, Clone)]
pub struct LikertSummary {
    /// Question id.
    pub id: &'static str,
    /// Observed percentages per category.
    pub percent: [f64; 5],
    /// Median category name.
    pub median: &'static str,
    /// Mode category name.
    pub mode: &'static str,
}

/// Regenerates the questionnaire: `subjects` simulated subjects answer
/// each group's positive question and its inverted negative twin; the
/// negative scores are mirrored about the neutral mark and merged, as the
/// paper's Table 4 does.
pub fn likert(subjects: usize, seed: u64) -> Vec<LikertSummary> {
    let mut rng = rcb_util::DetRng::new(seed);
    questions()
        .into_iter()
        .map(|q| {
            let mut counts = [0usize; 5];
            for _ in 0..subjects {
                // Positive question: sampled straight from the calibrated
                // distribution.
                let pos = rng.weighted_index(&q.paper_percent);
                counts[pos] += 1;
                // Negative twin: the subject answers the inverted
                // statement consistently (mirror category), with a small
                // chance of response-style noise toward neighbours.
                let mut neg = 4 - pos;
                if rng.chance(0.10) {
                    let drift: i64 = if rng.chance(0.5) { 1 } else { -1 };
                    neg = (neg as i64 + drift).clamp(0, 4) as usize;
                }
                // Merging inverts the negative back.
                counts[4 - neg] += 1;
            }
            let total = (subjects * 2) as f64;
            let mut percent = [0.0; 5];
            for (i, c) in counts.iter().enumerate() {
                percent[i] = *c as f64 / total * 100.0;
            }
            // Median by cumulative count; mode by max bucket.
            let mut cum = 0usize;
            let mut median_idx = 4;
            for (i, c) in counts.iter().enumerate() {
                cum += c;
                if cum * 2 >= subjects * 2 {
                    median_idx = i;
                    break;
                }
            }
            let mode_idx = counts
                .iter()
                .enumerate()
                .max_by_key(|(_, c)| **c)
                .map(|(i, _)| i)
                .unwrap_or(3);
            LikertSummary {
                id: q.id,
                percent,
                median: LIKERT_LEVELS[median_idx],
                mode: LIKERT_LEVELS[mode_idx],
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_session_completes_all_twenty_tasks() {
        let result = run_session(1).unwrap();
        assert_eq!(result.tasks.len(), 20);
        for t in &result.tasks {
            assert!(t.ok, "task {} failed: {}", t.id, t.description);
        }
        assert!(result.all_ok());
    }

    #[test]
    fn task_ids_match_table2() {
        let result = run_session(2).unwrap();
        let ids: Vec<&str> = result.tasks.iter().map(|t| t.id).collect();
        assert_eq!(
            ids,
            vec![
                "T1-B", "T1-A", "T2-B", "T2-A", "T3-B", "T3-A", "T4-B", "T4-A", "T5-B", "T5-A",
                "T6-B", "T6-A", "T7-B", "T7-A", "T8-B", "T8-A", "T9-B", "T9-A", "T10-B", "T10-A"
            ]
        );
    }

    #[test]
    fn session_duration_is_study_scale() {
        // The paper: each pair averaged 10.8 minutes for two sessions, so
        // one session is ~5.4 minutes. Accept the right order of
        // magnitude: 2–12 minutes.
        let result = run_session(3).unwrap();
        let minutes = result.total.as_secs_f64() / 60.0;
        assert!(
            (2.0..12.0).contains(&minutes),
            "session took {minutes:.1} minutes"
        );
    }

    #[test]
    fn study_runs_multiple_pairs_deterministically() {
        let a = run_study(2, 9).unwrap();
        let b = run_study(2, 9).unwrap();
        assert_eq!(a.len(), 4);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!(x.all_ok());
            assert_eq!(x.tasks.len(), y.tasks.len());
            // Think times and network timing are deterministic per seed;
            // only the real CPU costs (M5/M6, microseconds) may wiggle.
            let diff = x.total.as_micros().abs_diff(y.total.as_micros());
            assert!(diff < 50_000, "totals diverged by {diff} us");
        }
    }

    #[test]
    fn likert_distributions_match_paper_shape() {
        let summaries = likert(200, 7); // large N to tighten sampling noise
        assert_eq!(summaries.len(), 8);
        for (s, q) in summaries.iter().zip(questions()) {
            // Median and mode land on "Agree" for every question (Table 4).
            assert_eq!(s.mode, "Agree", "{}", s.id);
            assert_eq!(s.median, "Agree", "{}", s.id);
            // Percentages within sampling distance of the published ones.
            for i in 0..5 {
                assert!(
                    (s.percent[i] - q.paper_percent[i]).abs() < 8.0,
                    "{} category {i}: {} vs paper {}",
                    s.id,
                    s.percent[i],
                    q.paper_percent[i]
                );
            }
        }
    }

    #[test]
    fn likert_is_deterministic() {
        let a = likert(20, 5);
        let b = likert(20, 5);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.percent, y.percent);
        }
    }
}
