//! Ablation A1 — the poll-interval trade-off.
//!
//! The paper fixed the Ajax-Snippet polling interval at one second,
//! arguing users' average think time is ~10 s (§5.1.1). This ablation
//! sweeps the interval and measures both sides of the trade: how stale a
//! participant's view can get (worst-case sync lag after a host change)
//! versus how many requests the host must absorb per minute of idle
//! session.

use rcb_browser::BrowserKind;
use rcb_core::agent::{AgentConfig, CacheMode};
use rcb_core::session::CoBrowsingWorld;
use rcb_sim::profiles::NetProfile;
use rcb_util::SimDuration;

fn main() {
    println!("Ablation A1 — poll interval sweep (LAN, wikipedia.org)");
    println!("{:-<72}", "");
    println!(
        "{:>12} {:>16} {:>20} {:>16}",
        "interval", "polls/min idle", "worst-case lag", "mean sync m2"
    );
    for interval_ms in [100u64, 250, 500, 1000, 2000, 5000] {
        let config = AgentConfig {
            cache_mode: CacheMode::Cache,
            poll_interval: SimDuration::from_millis(interval_ms),
            ..AgentConfig::default()
        };
        let mut world = CoBrowsingWorld::with_alexa20(NetProfile::lan(), config, interval_ms);
        let p = world.add_participant(BrowserKind::Firefox);
        world.host_navigate("http://wikipedia.org/").unwrap();
        let (first, _) = world.poll_participant(p).unwrap();
        let m2 = first.expect("initial sync").m2;

        // Idle-phase cost: polls for one virtual minute without changes.
        let start_polls = world.session().stats().polls_empty;
        let idle_rounds = (60_000 / interval_ms) as usize;
        for _ in 0..idle_rounds {
            world.sleep(SimDuration::from_millis(interval_ms));
            world.poll_participant(p).unwrap();
        }
        let polls_per_min = world.session().stats().polls_empty - start_polls;

        // Staleness: a change can land right after a poll; worst-case lag
        // is one full interval plus the sync time itself.
        let worst_lag = SimDuration::from_millis(interval_ms) + m2;
        println!(
            "{:>12} {:>16} {:>20} {:>16}",
            format!("{} ms", interval_ms),
            polls_per_min,
            worst_lag.to_string(),
            m2.to_string()
        );
    }
    println!("\nshape: staleness scales with the interval; request load scales inversely —");
    println!("1 s sits where worst-case lag (~1 s) stays well under the ~10 s think time.");
}
