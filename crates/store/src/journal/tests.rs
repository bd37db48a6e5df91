//! Behaviour of the whole journal: what survives reopen, crash and
//! compaction, across the segment, index and store modules.

use super::segment::{journal_path, shard_path, HEADER_LEN};
use super::*;
use std::fs::OpenOptions;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use syno_core::prelude::*;

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "syno-store-test-{}-{tag}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Shorthand score contract for tests.
fn c(family: &str, width: u32) -> ScoreContract {
    ScoreContract::new(family, width)
}

/// The journaled `vision@w1` score of `hash`.
fn vision_score(store: &Store, hash: u64) -> Option<f64> {
    store.score_for_contract(hash, &c("vision", 1))
}

fn has(store: &Store, hash: u64) -> bool {
    store.hashes().contains(&hash)
}

/// The journaled latency of `hash` on the one device/compiler pair the
/// tests tune for.
fn latency(store: &Store, hash: u64) -> Option<f64> {
    Some(store.latencies(hash, &["mobile-cpu"], "TVM")?[0])
}

fn pool_graphs(n: usize) -> Vec<PGraph> {
    let mut vars = VarTable::new();
    let h = vars.declare("H", VarKind::Primary);
    let s = vars.declare("s", VarKind::Coefficient);
    vars.push_valuation(vec![(h, 16), (s, 2)]);
    let vars = vars.into_shared();
    let spec = OperatorSpec::new(
        TensorShape::new(vec![Size::var(h)]),
        TensorShape::new(vec![Size::var(h).div(&Size::var(s))]),
    );
    Enumerator::new(SynthConfig::auto(&vars, 3))
        .synthesis(&vars, &spec)
        .take(n)
        .map(|r| r.unwrap())
        .collect()
}

#[test]
fn records_survive_reopen() {
    let dir = temp_dir("reopen");
    let graphs = pool_graphs(3);
    {
        let store = StoreBuilder::new(&dir).open().unwrap();
        for (i, g) in graphs.iter().enumerate() {
            let hash = g.content_hash();
            assert!(store.put_candidate(hash, g).unwrap());
            store.put_score(hash, 0.5 + i as f64 / 10.0, &c("vision", 1)).unwrap();
            store.put_latency(hash, "mobile-cpu", "TVM", 1e-3 * (i + 1) as f64).unwrap();
        }
        store
            .put_checkpoint(&Checkpoint {
                label: "pool".into(),
                spec_fingerprint: 42,
                seed: 7,
                iterations: 100,
            })
            .unwrap();
    }
    let store = StoreBuilder::new(&dir).open().unwrap();
    let stats = store.stats();
    assert_eq!(stats.candidates, 3);
    assert_eq!(stats.scored, 3);
    assert_eq!(stats.latency_measurements, 3);
    assert_eq!(stats.checkpoints, 1);
    assert_eq!(stats.recovered_bytes, 0);
    assert!(format!("{store:?}").contains("journal.syno"));
    for (i, g) in graphs.iter().enumerate() {
        let hash = g.content_hash();
        assert_eq!(vision_score(&store, hash), Some(0.5 + i as f64 / 10.0));
        assert_eq!(latency(&store, hash), Some(1e-3 * (i + 1) as f64));
        let back = store.graph(hash).unwrap();
        assert_eq!(back.content_hash(), hash);
        assert_eq!(back.render(), g.render());
    }
    let cp = store.checkpoint("pool", 42).unwrap();
    assert_eq!(cp.iterations, 100);
    assert!(store.checkpoint("pool", 43).is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn duplicate_candidates_are_not_rewritten() {
    let dir = temp_dir("dedup");
    let graphs = pool_graphs(1);
    let store = StoreBuilder::new(&dir).open().unwrap();
    let hash = graphs[0].content_hash();
    assert!(store.put_candidate(hash, &graphs[0]).unwrap());
    let bytes_after_first = store.stats().file_bytes;
    assert!(!store.put_candidate(hash, &graphs[0]).unwrap());
    assert_eq!(store.stats().file_bytes, bytes_after_first);
    assert_eq!(store.stats().candidates, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_tail_is_truncated_on_open() {
    let dir = temp_dir("torn");
    let graphs = pool_graphs(2);
    let (h0, h1) = (graphs[0].content_hash(), graphs[1].content_hash());
    {
        let store = StoreBuilder::new(&dir).open().unwrap();
        store.put_candidate(h0, &graphs[0]).unwrap();
        store.put_score(h0, 0.9, &c("vision", 1)).unwrap();
        store.put_candidate(h1, &graphs[1]).unwrap();
    }
    // Simulate a crash mid-append: chop bytes off the last record.
    let journal = journal_path(&dir);
    let len = std::fs::metadata(&journal).unwrap().len();
    let file = OpenOptions::new().write(true).open(&journal).unwrap();
    file.set_len(len - 7).unwrap();
    drop(file);

    let store = StoreBuilder::new(&dir).open().unwrap();
    let stats = store.stats();
    assert!(stats.recovered_bytes > 0, "{stats:?}");
    assert_eq!(stats.candidates, 1, "torn second candidate dropped");
    assert_eq!(vision_score(&store, h0), Some(0.9));
    assert!(!has(&store, h1));
    // The store keeps working after recovery.
    store.put_candidate(h1, &graphs[1]).unwrap();
    drop(store);
    let store = StoreBuilder::new(&dir).open().unwrap();
    assert_eq!(store.stats().candidates, 2);
    assert_eq!(store.stats().recovered_bytes, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn garbage_tail_checksum_is_recovered() {
    let dir = temp_dir("garbage");
    let graphs = pool_graphs(1);
    let hash = graphs[0].content_hash();
    {
        let store = StoreBuilder::new(&dir).open().unwrap();
        store.put_candidate(hash, &graphs[0]).unwrap();
    }
    let journal = journal_path(&dir);
    let mut file = OpenOptions::new().append(true).open(&journal).unwrap();
    file.write_all(&[2, 16, 0, 0, 0]).unwrap(); // score frame header…
    file.write_all(&[0xab; 20]).unwrap(); // …with garbage payload+crc
    drop(file);
    let store = StoreBuilder::new(&dir).open().unwrap();
    assert!(store.stats().recovered_bytes > 0);
    assert!(has(&store, hash));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn foreign_file_is_rejected() {
    let dir = temp_dir("foreign");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(journal_path(&dir), b"definitely not a journal").unwrap();
    assert_eq!(StoreBuilder::new(&dir).open().unwrap_err(), StoreError::BadMagic);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_store_without_create_fails() {
    let dir = temp_dir("missing");
    let err = StoreBuilder::new(&dir).create(false).open().unwrap_err();
    assert!(matches!(err, StoreError::Io { op: "open", .. }));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compaction_drops_superseded_records() {
    let dir = temp_dir("compact");
    let graphs = pool_graphs(2);
    let store = StoreBuilder::new(&dir).open().unwrap();
    for g in &graphs {
        store.put_candidate(g.content_hash(), g).unwrap();
    }
    let h = graphs[0].content_hash();
    for i in 0..10 {
        store.put_score(h, i as f64 / 10.0, &c("vision", 1)).unwrap();
        store.put_latency(h, "mobile-cpu", "TVM", 1e-3 * (i + 1) as f64).unwrap();
        store
            .put_checkpoint(&Checkpoint {
                label: "pool".into(),
                spec_fingerprint: 1,
                seed: 0,
                iterations: i,
            })
            .unwrap();
    }
    let before = store.stats();
    let after = store.compact().unwrap();
    assert!(after.file_bytes < before.file_bytes, "{after:?} vs {before:?}");
    assert_eq!(after.candidates, 2);
    assert_eq!(after.scored, 1);
    assert_eq!(after.latency_measurements, 1);
    assert_eq!(after.checkpoints, 1);
    // Latest values won.
    assert_eq!(vision_score(&store, h), Some(0.9));
    assert_eq!(latency(&store, h), Some(1e-2));
    assert_eq!(store.checkpoint("pool", 1).unwrap().iterations, 9);
    // Appending still works after the swap, and a reopen sees one
    // consistent journal.
    store.put_score(h, 0.95, &c("vision", 1)).unwrap();
    drop(store);
    let store = StoreBuilder::new(&dir).open().unwrap();
    assert_eq!(vision_score(&store, h), Some(0.95));
    assert_eq!(store.stats().candidates, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn second_writer_is_locked_out() {
    let dir = temp_dir("lock");
    let store = StoreBuilder::new(&dir).open().unwrap();
    let err = StoreBuilder::new(&dir).open().unwrap_err();
    assert!(matches!(err, StoreError::Io { .. }), "{err}");
    drop(store);
    StoreBuilder::new(&dir).open().expect("lock released on drop");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn nan_scores_mark_journaled_failures() {
    let dir = temp_dir("nan");
    let graphs = pool_graphs(1);
    let h = graphs[0].content_hash();
    {
        let store = StoreBuilder::new(&dir).open().unwrap();
        store.put_candidate(h, &graphs[0]).unwrap();
        store.put_score(h, f64::NAN, &c("sequence", 1)).unwrap();
        assert!(store.score_for_contract(h, &c("sequence", 1)).unwrap().is_nan());
        assert_eq!(store.stats().scored, 0, "failure markers are not scores");
        store.compact().unwrap();
    }
    let store = StoreBuilder::new(&dir).open().unwrap();
    assert!(
        store.score_for_contract(h, &c("sequence", 1)).unwrap().is_nan(),
        "failure marker survives reopen and compaction"
    );
    assert_eq!(store.stats().scored, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recall_counts_cache_hits() {
    let dir = temp_dir("hits");
    let graphs = pool_graphs(1);
    let h = graphs[0].content_hash();
    let store = StoreBuilder::new(&dir).open().unwrap();
    assert_eq!(vision_score(&store, h), None);
    store.put_candidate(h, &graphs[0]).unwrap();
    store.put_score(h, 0.7, &c("vision", 1)).unwrap();
    // A probe counts a lookup; the hit is the caller's to record, once the
    // recall was actually served.
    assert_eq!(vision_score(&store, h), Some(0.7));
    assert_eq!(store.stats().cache_hits, 0, "probe does not count");
    store.record_hit();
    let stats = store.stats();
    assert_eq!((stats.cache_hits, stats.lookups), (1, 2));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Family tags round-trip across reopen and compaction.
#[test]
fn score_family_tags_survive_reopen_and_compaction() {
    let dir = temp_dir("family");
    let graphs = pool_graphs(2);
    let (h0, h1) = (graphs[0].content_hash(), graphs[1].content_hash());
    {
        let store = StoreBuilder::new(&dir).open().unwrap();
        store.put_candidate(h0, &graphs[0]).unwrap();
        store.put_score(h0, 0.6, &c("sequence", 1)).unwrap();
        store.put_candidate(h1, &graphs[1]).unwrap();
        store.put_score(h1, 0.4, &c("vision", 1)).unwrap();
    }
    let by_family = vec![("sequence".to_owned(), 1), ("vision".to_owned(), 1)];
    let store = StoreBuilder::new(&dir).open().unwrap();
    assert_eq!(store.stats().scores_by_family, by_family);
    assert_eq!(store.score_for_contract(h0, &c("sequence", 1)), Some(0.6));
    assert_eq!(vision_score(&store, h0), None, "another family's score is a miss");
    store.compact().unwrap();
    drop(store);
    let store = StoreBuilder::new(&dir).open().unwrap();
    assert_eq!(store.stats().scores_by_family, by_family);
    assert_eq!(store.score_for_contract(h0, &c("sequence", 1)), Some(0.6));
    assert_eq!(vision_score(&store, h1), Some(0.4));
    assert_eq!(vision_score(&store, 0xdead), None);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `score_for_contract` treats the reduction-tree width as part of the
/// score's identity: a score journaled under one width is a *miss* under
/// any other, both ways, and the width survives reopen and compaction.
#[test]
fn score_for_contract_requires_matching_width() {
    let dir = temp_dir("width");
    let graphs = pool_graphs(2);
    let (h1, h4) = (graphs[0].content_hash(), graphs[1].content_hash());
    {
        let store = StoreBuilder::new(&dir).open().unwrap();
        store.put_candidate(h1, &graphs[0]).unwrap();
        store.put_score(h1, 0.6, &c("vision", 1)).unwrap();
        store.put_candidate(h4, &graphs[1]).unwrap();
        store.put_score(h4, 0.8, &c("vision", 4)).unwrap();
        assert_eq!(store.score_for_contract(h1, &c("vision", 1)), Some(0.6));
        assert_eq!(store.score_for_contract(h1, &c("vision", 4)), None);
        assert_eq!(store.score_for_contract(h4, &c("vision", 4)), Some(0.8));
        assert_eq!(store.score_for_contract(h4, &c("vision", 1)), None);
        // Family mismatches are still misses, width notwithstanding.
        assert_eq!(store.score_for_contract(h4, &c("sequence", 4)), None);
        // Every probe above counts as a lookup; hits are only recorded
        // by the caller once the recall is actually served.
        assert_eq!(store.stats().lookups, 5);
        assert_eq!(store.stats().cache_hits, 0);
    }
    let store = StoreBuilder::new(&dir).open().unwrap();
    assert_eq!(store.score_for_contract(h4, &c("vision", 4)), Some(0.8));
    assert_eq!(store.score_for_contract(h4, &c("vision", 1)), None);
    store.compact().unwrap();
    drop(store);
    let store = StoreBuilder::new(&dir).open().unwrap();
    assert_eq!(store.score_for_contract(h1, &c("vision", 1)), Some(0.6));
    assert_eq!(store.score_for_contract(h1, &c("vision", 4)), None);
    assert_eq!(store.score_for_contract(h4, &c("vision", 4)), Some(0.8));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Scores are keyed by the full contract, and the latest score journaled
/// for a hash is the one score it has.
#[test]
fn contract_api_keys_scores_by_family_and_width() {
    let dir = temp_dir("contract-keyed");
    let graphs = pool_graphs(1);
    let h = graphs[0].content_hash();
    let store = StoreBuilder::new(&dir).open().unwrap();
    store.put_candidate(h, &graphs[0]).unwrap();
    store.put_score(h, 0.625, &c("vision", 4)).unwrap();
    assert_eq!(store.score_for_contract(h, &c("vision", 4)), Some(0.625));
    assert_eq!(store.score_for_contract(h, &c("vision", 1)), None);
    assert_eq!(store.score_for_contract(h, &c("sequence", 4)), None);
    store.put_score(h, 0.5, &c("vision", 1)).unwrap();
    assert_eq!(store.score_for_contract(h, &c("vision", 1)), Some(0.5));
    assert_eq!(store.score_for_contract(h, &c("vision", 4)), None, "last writer wins");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn invalid_writer_names_are_rejected() {
    let dir = temp_dir("badwriter");
    for bad in ["", "a/b", "dots.bad", "sp ace", &"x".repeat(65)] {
        let err = StoreBuilder::new(&dir).writer(bad).open().unwrap_err();
        assert!(matches!(err, StoreError::InvalidWriter { .. }), "{bad:?}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two writers share one repository directory concurrently: each locks
/// only its own shard, both sets of records are visible to a fresh
/// reader, and fan-in compaction merges them into one canonical
/// segment with nothing lost.
#[test]
fn two_writers_share_a_repository_and_compact_fans_in() {
    let dir = temp_dir("shards");
    let graphs = pool_graphs(4);
    let hashes: Vec<u64> = graphs.iter().map(|g| g.content_hash()).collect();
    let w1 = StoreBuilder::new(&dir).writer("w1").open().unwrap();
    let w2 = StoreBuilder::new(&dir).writer("w2").open().unwrap();
    // Same writer name is still locked out; a different name is not.
    assert!(StoreBuilder::new(&dir).writer("w1").open().is_err());
    for (i, g) in graphs.iter().enumerate() {
        let (store, width) = if i % 2 == 0 { (&w1, 1) } else { (&w2, 4) };
        store.put_candidate(hashes[i], g).unwrap();
        store.put_score(hashes[i], i as f64 / 10.0, &c("vision", width)).unwrap();
    }
    w1.put_set(&CandidateSet::new("even", "run:even", vec![hashes[0], hashes[2]]))
        .unwrap();
    w2.put_set(&CandidateSet::new("odd", "run:odd", vec![hashes[1], hashes[3]]))
        .unwrap();
    // A writer sees only the segments present when it opened, so a
    // fresh handle (any writer name not in use) sees everything.
    drop(w2);
    let reader = StoreBuilder::new(&dir).writer("reader").open().unwrap();
    let stats = reader.stats();
    assert_eq!(stats.candidates, 4, "{stats:?}");
    assert_eq!(stats.candidate_sets, 2);
    assert_eq!(stats.segments, 3, "canonical + w1 + w2");
    // Fan-in compaction fails while w1 is live…
    let err = reader.compact().unwrap_err();
    assert!(matches!(err, StoreError::Io { .. }), "{err}");
    drop(w1);
    // …and succeeds once the shard locks are free.
    let after = reader.compact().unwrap();
    assert_eq!(after.candidates, 4);
    assert_eq!(after.candidate_sets, 2);
    assert!(
        !shard_path(&dir, "w1").exists() && !shard_path(&dir, "w2").exists(),
        "merged shards removed"
    );
    let union = reader.derive(DeriveOp::Union, "all", "even", "odd").unwrap();
    assert_eq!(union.hashes().len(), 4);
    drop(reader);
    // The merged repository reopens as a plain canonical store.
    let store = StoreBuilder::new(&dir).open().unwrap();
    assert_eq!(store.stats().candidates, 4);
    assert_eq!(store.candidate_set("all").unwrap().hashes().len(), 4);
    for (i, &h) in hashes.iter().enumerate() {
        let width = if i % 2 == 0 { 1 } else { 4 };
        assert_eq!(store.score_for_contract(h, &c("vision", width)), Some(i as f64 / 10.0));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fan-in compaction is byte-stable: two repositories built by the
/// same writers in the same order compact to identical canonical
/// bytes.
#[test]
fn fan_in_compaction_is_byte_stable() {
    let graphs = pool_graphs(3);
    let build = |tag: &str| -> (PathBuf, Vec<u8>) {
        let dir = temp_dir(tag);
        {
            let w1 = StoreBuilder::new(&dir).writer("w1").open().unwrap();
            let w2 = StoreBuilder::new(&dir).writer("w2").open().unwrap();
            for (i, g) in graphs.iter().enumerate() {
                let store = if i % 2 == 0 { &w1 } else { &w2 };
                store.put_candidate(g.content_hash(), g).unwrap();
                store.put_score(g.content_hash(), 0.25, &c("vision", 1)).unwrap();
            }
            w1.put_set(&CandidateSet::new(
                "a",
                "run:a",
                graphs.iter().map(|g| g.content_hash()).collect(),
            ))
            .unwrap();
        }
        let reader = StoreBuilder::new(&dir).writer("z").open().unwrap();
        reader.compact().unwrap();
        drop(reader);
        let bytes = std::fs::read(journal_path(&dir)).unwrap();
        (dir, bytes)
    };
    let (dir_a, bytes_a) = build("stable-a");
    let (dir_b, bytes_b) = build("stable-b");
    assert_eq!(bytes_a, bytes_b, "same history compacts to identical bytes");
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// Records in a segment file, counted frame by frame after the header.
fn frames(path: &std::path::Path) -> usize {
    let bytes = std::fs::read(path).unwrap();
    let mut rest = &bytes[HEADER_LEN..];
    let mut count = 0;
    while let Some((_, _, used)) = syno_core::codec::split_frame(rest, u32::MAX).unwrap() {
        rest = &rest[used..];
        count += 1;
    }
    assert!(rest.is_empty(), "no torn tail");
    count
}

/// Compaction is a fixed point: compacting a compacted repository
/// rewrites identical bytes, because compaction journals nothing of its
/// own. A checkpoint heartbeat and a derive each append exactly one
/// frame.
#[test]
fn compaction_is_a_fixed_point() {
    let dir = temp_dir("fixed-point");
    let journal = journal_path(&dir);
    let graphs = pool_graphs(1);
    let h = graphs[0].content_hash();
    let store = StoreBuilder::new(&dir).open().unwrap();
    store.put_candidate(h, &graphs[0]).unwrap();
    store.put_score(h, 0.5, &c("vision", 1)).unwrap();
    store.put_latency(h, "mobile-cpu", "TVM", 1e-3).unwrap();
    let heartbeat = Checkpoint {
        label: "pool".into(),
        spec_fingerprint: 42,
        seed: 7,
        iterations: 10,
    };
    let before = frames(&journal);
    store.put_checkpoint(&heartbeat).unwrap();
    assert_eq!(frames(&journal), before + 1, "a heartbeat is one frame");
    store.put_set(&CandidateSet::new("a", "run:a", vec![h, 1])).unwrap();
    store.put_set(&CandidateSet::new("b", "run:b", vec![h, 2])).unwrap();
    let before = frames(&journal);
    store.derive(DeriveOp::Union, "u", "a", "b").unwrap();
    assert_eq!(frames(&journal), before + 1, "a derive is one frame");

    store.compact().unwrap();
    let once = std::fs::read(&journal).unwrap();
    store.compact().unwrap();
    assert_eq!(std::fs::read(&journal).unwrap(), once, "compaction is idempotent");
    drop(store);
    // A fresh handle (and a named writer's fan-in) converges on the same bytes.
    StoreBuilder::new(&dir).open().unwrap().compact().unwrap();
    StoreBuilder::new(&dir).writer("w").open().unwrap().compact().unwrap();
    assert_eq!(std::fs::read(&journal).unwrap(), once);
    // Only the live state is left: candidate, score, latency, checkpoint
    // and the three sets.
    assert_eq!(frames(&journal), 7);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Derive operations are deterministic set algebra over named
/// collections, journal their lineage on the derived set, and survive
/// reopen.
#[test]
fn derive_set_operations_are_deterministic_and_journaled() {
    let dir = temp_dir("derive");
    let store = StoreBuilder::new(&dir).open().unwrap();
    // Hash order in the input is irrelevant: sets are canonicalized.
    store.put_set(&CandidateSet::new("a", "run:a", vec![30, 10, 20, 10])).unwrap();
    store.put_set(&CandidateSet::new("b", "run:b", vec![20, 40])).unwrap();
    let union = store.derive(DeriveOp::Union, "u", "a", "b").unwrap();
    assert_eq!(union.hashes(), &[10, 20, 30, 40]);
    assert_eq!(union.lineage(), "union(a,b)");
    let inter = store.derive(DeriveOp::Intersection, "i", "a", "b").unwrap();
    assert_eq!(inter.hashes(), &[20]);
    let diff = store.derive(DeriveOp::Difference, "d", "a", "b").unwrap();
    assert_eq!(diff.hashes(), &[10, 30]);
    assert_eq!(
        store.derive(DeriveOp::Union, "u2", "a", "b").unwrap().digest(),
        store.derive(DeriveOp::Union, "u2", "a", "b").unwrap().digest(),
        "repeat derives agree"
    );
    let err = store.derive(DeriveOp::Union, "x", "a", "nope").unwrap_err();
    assert!(matches!(err, StoreError::UnknownSet { .. }), "{err}");
    drop(store);
    let store = StoreBuilder::new(&dir).open().unwrap();
    assert_eq!(store.candidate_set("u").unwrap().hashes(), &[10, 20, 30, 40]);
    assert_eq!(store.candidate_set("i").unwrap().lineage(), "intersection(a,b)");
    assert_eq!(store.candidate_set("d").unwrap().hashes(), &[10, 30]);
    assert_eq!(store.stats().candidate_sets, 6, "a, b, d, i, u, u2");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `CandidateSet::top_k` ranks by contract score (desc, hash asc
/// tiebreak), skipping unscored members and NaN failure markers.
#[test]
fn candidate_set_top_k_ranks_by_contract_score() {
    let dir = temp_dir("topk");
    let graphs = pool_graphs(4);
    let hashes: Vec<u64> = graphs.iter().map(|g| g.content_hash()).collect();
    let store = StoreBuilder::new(&dir).open().unwrap();
    for g in &graphs {
        store.put_candidate(g.content_hash(), g).unwrap();
    }
    store.put_score(hashes[0], 0.5, &c("vision", 1)).unwrap();
    store.put_score(hashes[1], 0.9, &c("vision", 1)).unwrap();
    store.put_score(hashes[2], f64::NAN, &c("vision", 1)).unwrap();
    store.put_score(hashes[3], 0.9, &c("sequence", 1)).unwrap();
    let set = CandidateSet::new("s", "run:s", hashes.clone());
    let top = set.top_k(&store, 10, &c("vision", 1));
    assert_eq!(top.len(), 2, "NaN and family-mismatch excluded: {top:?}");
    assert_eq!(top[0], (hashes[1], 0.9));
    assert_eq!(top[1], (hashes[0], 0.5));
    assert_eq!(set.top_k(&store, 1, &c("vision", 1)), vec![(hashes[1], 0.9)]);
    assert!(set.top_k(&store, 10, &c("vision", 4)).is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash recovery is per-shard: a torn tail on one shard truncates
/// only when its owner reopens, and never damages the other shards'
/// records or the derived sets stored in them.
#[test]
fn torn_shard_tail_leaves_other_shards_and_sets_intact() {
    let dir = temp_dir("tornshard");
    let graphs = pool_graphs(3);
    let hashes: Vec<u64> = graphs.iter().map(|g| g.content_hash()).collect();
    {
        let w1 = StoreBuilder::new(&dir).writer("w1").open().unwrap();
        let w2 = StoreBuilder::new(&dir).writer("w2").open().unwrap();
        w1.put_candidate(hashes[0], &graphs[0]).unwrap();
        w1.put_set(&CandidateSet::new("keep", "run:keep", vec![hashes[0]])).unwrap();
        w2.put_candidate(hashes[1], &graphs[1]).unwrap();
        w2.put_candidate(hashes[2], &graphs[2]).unwrap();
    }
    // Crash mid-append on w2's shard.
    let shard = shard_path(&dir, "w2");
    let len = std::fs::metadata(&shard).unwrap().len();
    let file = OpenOptions::new().write(true).open(&shard).unwrap();
    file.set_len(len - 5).unwrap();
    drop(file);
    // A *foreign* reader skips the torn tail without truncating.
    {
        let reader = StoreBuilder::new(&dir).writer("r").open().unwrap();
        let stats = reader.stats();
        assert_eq!(stats.candidates, 2, "torn third candidate skipped");
        assert_eq!(stats.recovered_bytes, 0, "foreign tails are not truncated");
        assert!(has(&reader, hashes[0]) && has(&reader, hashes[1]));
        assert_eq!(reader.candidate_set("keep").unwrap().hashes(), &[hashes[0]]);
    }
    assert_eq!(std::fs::metadata(&shard).unwrap().len(), len - 5);
    // The shard's own writer truncates and keeps going.
    let w2 = StoreBuilder::new(&dir).writer("w2").open().unwrap();
    assert!(w2.stats().recovered_bytes > 0);
    w2.put_candidate(hashes[2], &graphs[2]).unwrap();
    assert_eq!(w2.stats().candidates, 3);
    assert_eq!(w2.candidate_set("keep").unwrap().hashes(), &[hashes[0]]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A named writer's compaction folds everything into the canonical
/// segment, resets its own shard to header-only, and keeps accepting
/// appends.
#[test]
fn named_writer_compaction_resets_own_shard() {
    let dir = temp_dir("shardreset");
    let graphs = pool_graphs(2);
    let (h0, h1) = (graphs[0].content_hash(), graphs[1].content_hash());
    let w1 = StoreBuilder::new(&dir).writer("w1").open().unwrap();
    w1.put_candidate(h0, &graphs[0]).unwrap();
    w1.compact().unwrap();
    assert_eq!(
        std::fs::metadata(shard_path(&dir, "w1")).unwrap().len(),
        HEADER_LEN as u64,
        "own shard reset to header-only"
    );
    w1.put_candidate(h1, &graphs[1]).unwrap();
    assert_eq!(w1.stats().candidates, 2);
    drop(w1);
    let store = StoreBuilder::new(&dir).open().unwrap();
    assert_eq!(store.stats().candidates, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_is_shareable_across_threads() {
    let dir = temp_dir("threads");
    let graphs = pool_graphs(4);
    let store = Arc::new(StoreBuilder::new(&dir).open().unwrap());
    std::thread::scope(|scope| {
        for g in &graphs {
            let store = Arc::clone(&store);
            scope.spawn(move || {
                let h = g.content_hash();
                store.put_candidate(h, g).unwrap();
                store.put_score(h, 0.5, &c("vision", 1)).unwrap();
            });
        }
    });
    assert_eq!(store.stats().candidates, graphs.len() as u64);
    let _ = std::fs::remove_dir_all(&dir);
}
