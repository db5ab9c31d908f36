//! Ablation A2 — participant fan-out.
//!
//! §4.1.2: "the whole response content generation procedure is executed
//! only once for each new document content, and the generated XML format
//! response content is reusable for multiple participant browsers."
//! This ablation scales the participant count and shows (a) generations
//! stay at one per page regardless of fan-out, and (b) how the last
//! participant's sync completion time grows as the host uplink serializes
//! the deliveries.

use rcb_browser::BrowserKind;
use rcb_core::agent::{AgentConfig, CacheMode};
use rcb_core::session::CoBrowsingWorld;
use rcb_sim::profiles::NetProfile;
use rcb_util::SimDuration;

fn main() {
    println!("Ablation A2 — participant fan-out (LAN and WAN, cnn.com)");
    println!("{:-<76}", "");
    println!(
        "{:>5} {:>12} {:>13} {:>18} {:>18}",
        "N", "profile", "generations", "first sync m2", "last sync m2"
    );
    for profile in [NetProfile::lan(), NetProfile::wan()] {
        for n in [1usize, 2, 4, 8, 16, 32] {
            let config = AgentConfig {
                cache_mode: CacheMode::Cache,
                ..AgentConfig::default()
            };
            let mut world = CoBrowsingWorld::with_alexa20(profile.clone(), config, n as u64);
            let participants: Vec<usize> = (0..n)
                .map(|_| world.add_participant(BrowserKind::Firefox))
                .collect();
            world.host_navigate("http://cnn.com/").unwrap();
            // All snippets poll within the same interval tick: reset the
            // clock to the same instant per participant so deliveries
            // contend on the shared host access link.
            let t0 = world.now;
            let mut first = SimDuration::ZERO;
            let mut last = SimDuration::ZERO;
            for (i, &p) in participants.iter().enumerate() {
                world.now = t0;
                let (sync, _) = world.poll_participant(p).unwrap();
                let m2 = sync.expect("content on first poll").m2;
                if i == 0 {
                    first = m2;
                }
                last = last.max(m2);
            }
            println!(
                "{:>5} {:>12} {:>13} {:>18} {:>18}",
                n,
                profile.name,
                world.session().with_agent_stats(|s| s.generations.get()),
                first.to_string(),
                last.to_string()
            );
        }
    }
    println!("\nshape: exactly one generation per page at every fan-out (content reuse);");
    println!("the last participant's delivery queues behind earlier documents *and their");
    println!("cache-mode object downloads* on the shared host uplink — mild on 100 Mbps");
    println!("Ethernet, prohibitive on the 384 Kbps WAN uplink. Cache mode should be");
    println!("switched off per participant as fan-out grows on slow uplinks (the per-");
    println!("object mode flexibility of §4.1.2).");
}
