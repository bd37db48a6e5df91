//! Derived candidate sets: run two labeled searches against one shared
//! repository handle, then treat their discoveries as *collections* —
//! union / intersection / difference with journaled lineage, and top-k
//! under the score contract.
//!
//! Run with: `cargo run --example derive_sets`

use std::sync::Arc;
use syno::nn::{ProxyConfig, TrainConfig};
use syno::search::MctsConfig;
use syno::{DeriveOp, ScoreContract, Session};

fn main() {
    // 1. Attach the repository by path; the session opens it, and
    //    `Session::store` hands the same warm handle back for the direct
    //    store reads below. Separate OS processes would instead each open
    //    the dir with `StoreBuilder::writer("<name>")` to get their own
    //    journal shard.
    let dir = std::env::temp_dir().join("syno-derive-sets-repo");
    let _ = std::fs::remove_dir_all(&dir);

    let proxy = ProxyConfig {
        train: TrainConfig {
            steps: 4,
            batch: 4,
            eval_batches: 1,
            ..TrainConfig::default()
        },
        ..ProxyConfig::default()
    };
    let reduce_width = proxy.train.exec.reduce_width as u32;
    let session = Session::builder()
        .primary("N", 4)
        .primary("Cin", 3)
        .primary("Cout", 4)
        .primary("H", 8)
        .primary("W", 8)
        .coefficient("k", 3)
        .store(&dir)
        .build()
        .expect("session builds");
    let store = Arc::clone(session.store().expect("store attached"));
    let spec = session
        .spec(&["N", "Cin", "H", "W"], &["N", "Cout", "H", "W"])
        .expect("spec builds");

    // 2. Two searches over the same spec from different seeds: each run
    //    journals its discoveries as a named CandidateSet (lineage
    //    `run:<label>`) and checkpoints its position.
    for (label, seed) in [("site-a", 11u64), ("site-b", 23)] {
        let report = session
            .scenario(label, &spec)
            .proxy(proxy)
            .mcts(MctsConfig {
                iterations: 16,
                seed,
                ..MctsConfig::default()
            })
            .run()
            .expect("search runs");
        println!("{label}: {} candidates discovered", report.candidates.len());
    }

    // 3. Read the run sets back and derive new collections. Members are
    //    canonical (sorted, deduped content hashes), so every derive is
    //    deterministic: same inputs, byte-identical journaled output. Each
    //    derived set names its parents in its lineage
    //    (`difference(site-a,site-b)`), so a collection's provenance
    //    survives compaction and process restarts.
    let a = session.candidates("site-a").expect("site-a set journaled");
    let b = session.candidates("site-b").expect("site-b set journaled");
    println!("site-a: {} members ({})", a.len(), a.lineage());
    println!("site-b: {} members ({})", b.len(), b.lineage());

    let union = session
        .derive(DeriveOp::Union, "either-site", "site-a", "site-b")
        .expect("union derives");
    let common = session
        .derive(DeriveOp::Intersection, "both-sites", "site-a", "site-b")
        .expect("intersection derives");
    let only_a = session
        .derive(DeriveOp::Difference, "only-site-a", "site-a", "site-b")
        .expect("difference derives");
    println!(
        "either-site: {} members, both-sites: {}, only-site-a: {} \
         (lineage {})",
        union.len(),
        common.len(),
        only_a.len(),
        only_a.lineage(),
    );

    // 4. Rank the union under the score contract the runs trained with.
    //    NaN failure markers and scores from other families/widths are
    //    excluded — a recall and a ranking always mean "same value
    //    contract".
    let contract = ScoreContract::new("vision", reduce_width);
    for (hash, accuracy) in union.top_k(&store, 3, &contract) {
        println!("  top: {hash:#018x} accuracy {accuracy:.4}");
    }
    let stats = store.stats();
    println!(
        "repository: {} candidates, {} sets, {} segment(s)",
        stats.candidates, stats.candidate_sets, stats.segments
    );
}
