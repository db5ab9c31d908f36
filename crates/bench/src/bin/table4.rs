//! Tables 3 and 4 — the Likert questionnaire summary.
//!
//! Regenerates the questionnaire pipeline with 20 simulated subjects
//! sampled from the paper's published response distributions (this is a
//! calibrated regeneration — humans cannot be re-run).
//! Negative (inverted) questions are mirrored about the neutral mark and
//! merged with the positive twins, exactly as the paper's Table 4 does.

use rcb_core::usability::{likert, questions, LIKERT_LEVELS};

fn main() {
    println!("Table 3 — the eight positive questions (each has an inverted negative twin)\n");
    for q in questions() {
        println!("  {}-P: {}", q.id, q.positive);
    }

    let summaries = likert(20, 2009);
    println!("\nTable 4 — summary of responses (20 simulated subjects × positive+negative)\n");
    println!(
        "{:<5} {:>9} {:>9} {:>13} {:>7} {:>9}   {:<8} {:<8}",
        "Q", "Str.dis%", "Disagr%", "Neither%", "Agree%", "Str.agr%", "Median", "Mode"
    );
    for s in &summaries {
        println!(
            "{:<5} {:>9.1} {:>9.1} {:>13.1} {:>7.1} {:>9.1}   {:<8} {:<8}",
            s.id,
            s.percent[0],
            s.percent[1],
            s.percent[2],
            s.percent[3],
            s.percent[4],
            s.median,
            s.mode
        );
    }
    println!(
        "\npaper's summary: median and mode responses are \"Agree\" for all questions — ours: {}",
        if summaries
            .iter()
            .all(|s| s.median == LIKERT_LEVELS[3] && s.mode == LIKERT_LEVELS[3])
        {
            "same"
        } else {
            "DIFFERS"
        }
    );
    println!("(synthetic regeneration calibrated to the paper's Table 4 distributions)");
}
