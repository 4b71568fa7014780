//! A miniature of the paper's evaluation (§6): build networks of growing
//! size over the synthetic bible-words dataset, run nearest-neighbor word
//! searches with all three strategies, and watch the naive method lose its
//! early advantage as the network grows — the story of Figure 1.
//!
//! ```text
//! cargo run --release --example word_search
//! ```

use sqo::core::{EngineBuilder, Strategy};
use sqo::datasets::{bible_words, string_rows};
use sqo::plan::{Query, Session};

fn main() {
    let words = bible_words(5_000, 1);
    let rows = string_rows("word", &words, "w");
    println!("dataset: {} distinct synthetic bible-like words\n", words.len());

    let queries: Vec<&String> = words.iter().step_by(977).take(5).collect();

    for peers in [64usize, 512, 4096] {
        let mut engine = EngineBuilder::new().peers(peers).q(2).seed(13).build_with_rows(&rows);
        println!("--- {} peers ({} partitions) ---", peers, engine.network().partition_count());
        for strategy in [Strategy::QSamples, Strategy::QGrams, Strategy::Naive] {
            let mut msgs = 0u64;
            let mut kib = 0f64;
            let mut cmp = 0u64;
            let mut found = 0usize;
            for q in &queries {
                let from = engine.random_peer();
                let top = Query::top_n_similar(Some("word"), 5, *q, 3).strategy(strategy);
                let res = Session::new(&mut engine, from).run(&top).expect("valid query");
                msgs += res.stats.traffic.messages;
                kib += res.stats.traffic.bytes as f64 / 1024.0;
                cmp += res.stats.edit_comparisons;
                found += res.rows.len();
            }
            let n = queries.len() as f64;
            println!(
                "  {:<9} {:>8.0} msgs/query {:>9.1} KiB/query {:>9.0} local edit-cmp/query ({} results)",
                strategy.label(),
                msgs as f64 / n,
                kib / n,
                cmp as f64 / n,
                found
            );
        }
        println!();
    }
    println!(
        "note how 'strings' (the naive broadcast) starts competitive and ends dominated,\n\
         while its local comparison count stays enormous at every size — exactly the\n\
         trade-off Figure 1 of the paper reports."
    );
}
