//! The task-family registry end to end through the public facade: specs
//! the 4-D vision proxy rejects (1-D pooling, `[B, T, C]` sequence
//! operators) now run search with the sequence/LM family, stream scored
//! candidates, and persist family-tagged scores in the store.

use std::sync::Arc;
use syno::{ProxyFamilyId, SearchEvent, Session, StopReason, SynoError};

fn quick_proxy() -> syno::nn::ProxyConfig {
    syno::nn::ProxyConfig {
        train: syno::nn::TrainConfig {
            steps: 8,
            batch: 4,
            eval_batches: 1,
            lr: 0.2,
            ..syno::nn::TrainConfig::default()
        },
        ..syno::nn::ProxyConfig::default()
    }
}

fn quick_mcts(seed: u64) -> syno::search::MctsConfig {
    syno::search::MctsConfig {
        iterations: 12,
        seed,
        ..syno::search::MctsConfig::default()
    }
}

/// The acceptance criterion of the registry: a 1-D pool spec that PR 3's
/// `SearchBuilder::start()` rejected with `SynoError::Proxy` now completes
/// a search end to end, emitting `CandidateFound` events and nonzero proxy
/// scores.
#[test]
fn one_d_pool_spec_searches_end_to_end() {
    let session = Session::builder()
        .primary("H", 16)
        .coefficient("s", 2)
        .build()
        .unwrap();
    let spec = session.spec(&["H"], &["H/s"]).unwrap();

    let run = session
        .scenario("pool", &spec)
        .proxy(quick_proxy())
        .mcts(quick_mcts(3))
        .start()
        .expect("1-D specs are scorable through the sequence family");
    let mut found = 0usize;
    let mut scores = Vec::new();
    for event in run.events() {
        match event {
            SearchEvent::CandidateFound { .. } => found += 1,
            SearchEvent::ProxyScored { accuracy, .. } => scores.push(accuracy),
            _ => {}
        }
    }
    let report = run.join().unwrap();
    assert_eq!(report.stopped, StopReason::Completed);
    assert!(found > 0, "search must announce candidates");
    assert!(!scores.is_empty(), "candidates must be proxy-scored");
    assert!(
        scores.iter().any(|&a| a > 0.0),
        "the sequence proxy must produce nonzero scores: {scores:?}"
    );
    assert!(!report.candidates.is_empty());
    for c in &report.candidates {
        assert!(c.graph.is_complete());
        assert!(c.latencies[0].is_finite());
    }
}

/// A `[B, T, C] → [B, T, C]` LM-style spec — the Fig. 10 workload shape —
/// searches alongside a vision spec in one session.
#[test]
fn sequence_and_vision_scenarios_share_a_session() {
    let session = Session::builder()
        .primary("N", 4)
        .primary("Cin", 3)
        .primary("Cout", 4)
        .primary("H", 8)
        .primary("W", 8)
        .primary("B", 4)
        .primary("T", 4)
        .primary("C", 8)
        .coefficient("k", 2)
        .build()
        .unwrap();
    let conv = session
        .spec(&["N", "Cin", "H", "W"], &["N", "Cout", "H", "W"])
        .unwrap();
    let lm = session.spec(&["B", "T", "C"], &["B", "T", "C"]).unwrap();

    let report = session
        .scenario("conv", &conv)
        .scenario("lm", session.vars(), &lm)
        .proxy(quick_proxy())
        .mcts(syno::search::MctsConfig {
            iterations: 30,
            seed: 5,
            ..syno::search::MctsConfig::default()
        })
        .run()
        .expect("mixed-family search finishes");
    let scenarios: std::collections::HashSet<usize> =
        report.candidates.iter().map(|c| c.scenario).collect();
    assert!(
        scenarios.contains(&0) && scenarios.contains(&1),
        "both families contribute: {scenarios:?}"
    );
}

/// The family override on a session's search: forcing vision onto a
/// sequence spec is a typed error naming the family, not a silent
/// zero-reward search.
#[test]
fn session_family_override_is_validated() {
    let session = Session::builder()
        .primary("H", 16)
        .coefficient("s", 2)
        .build()
        .unwrap();
    let spec = session.spec(&["H"], &["H/s"]).unwrap();
    let err = session
        .scenario("pool", &spec)
        .proxy_family(ProxyFamilyId::Vision)
        .start()
        .expect_err("vision cannot score 1-D");
    match err {
        SynoError::Proxy { reason } => {
            assert!(reason.contains("pool"), "names the scenario: {reason}");
        }
        other => panic!("expected SynoError::Proxy, got {other:?}"),
    }
}

/// Sequence-family evaluations journal family-tagged score records, and a
/// reopened store recalls them as cache hits (codec format version 2
/// round trip through a real search).
#[test]
fn store_round_trips_family_tagged_scores() {
    let dir = std::env::temp_dir().join(format!("syno-lm-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let session = |store: bool| {
        let mut b = Session::builder().primary("H", 16).coefficient("s", 2);
        if store {
            b = b.store(dir.clone());
        }
        b.build().unwrap()
    };

    // Cold run: train and journal.
    let cold = session(true);
    let spec = cold.spec(&["H"], &["H/s"]).unwrap();
    let report = cold
        .scenario("pool", &spec)
        .proxy(quick_proxy())
        .mcts(quick_mcts(9))
        .run()
        .unwrap();
    assert!(!report.candidates.is_empty());
    let store = Arc::clone(cold.store().expect("store attached"));
    assert!(!store.hashes().is_empty());
    let families: Vec<_> = store.stats().scores_by_family;
    assert!(
        matches!(&families[..], [(family, n)] if family == "sequence" && *n > 0),
        "pool-scenario scores carry the sequence tag: {families:?}"
    );
    drop(store);
    drop(cold);

    // Warm run against the reopened journal: recalls, no re-training.
    let warm = session(true);
    let run = warm
        .scenario("pool", &spec)
        .proxy(quick_proxy())
        .mcts(quick_mcts(9))
        .start()
        .unwrap();
    let mut hits = 0usize;
    for event in run.events() {
        match event {
            SearchEvent::CacheHit { .. } => hits += 1,
            SearchEvent::ProxyScored { id, .. } => {
                panic!("candidate {id:#x} re-trained despite a warm store")
            }
            _ => {}
        }
    }
    run.join().unwrap();
    assert!(hits >= 1, "warm run must recall sequence-tagged scores");
    let _ = std::fs::remove_dir_all(&dir);
}
