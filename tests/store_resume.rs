//! Acceptance tests for the persistent candidate store (`syno-store`):
//!
//! 1. a cold run followed by a warm run of the same scenario against the
//!    same store performs **zero duplicate proxy trainings** (asserted via
//!    `CacheHit` event counts), and
//! 2. killing a run mid-stream and then calling `resume_from` completes
//!    with the **same candidate set** as an uninterrupted run.
//!
//! When `SYNO_STORE_TEST_DIR` is set (the CI reload-path job runs this test
//! binary twice against the same directory), store directories persist
//! across invocations and every assertion below stays valid on a pre-warmed
//! store: the per-run invariants are relative, never "the store starts
//! empty".

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use syno::nn::{ProxyConfig, TrainConfig};
use syno::search::MctsConfig;
use syno::{SearchEvent, SearchReport, Session, SessionBuilder, StopReason};

/// A store directory for `tag`: persistent across test-binary invocations
/// when `SYNO_STORE_TEST_DIR` is set (CI), unique per process otherwise.
fn store_dir(tag: &str) -> (PathBuf, bool) {
    match std::env::var("SYNO_STORE_TEST_DIR") {
        Ok(root) => (PathBuf::from(root).join(tag), true),
        Err(_) => (
            std::env::temp_dir().join(format!("syno-store-it-{}-{tag}", std::process::id())),
            false,
        ),
    }
}

fn session_builder() -> SessionBuilder {
    Session::builder()
        .primary("N", 4)
        .primary("Cin", 3)
        .primary("Cout", 4)
        .primary("H", 8)
        .primary("W", 8)
        .coefficient("k", 3)
}

fn quick_proxy() -> ProxyConfig {
    ProxyConfig {
        train: TrainConfig {
            steps: 2,
            batch: 4,
            eval_batches: 1,
            ..TrainConfig::default()
        },
        ..ProxyConfig::default()
    }
}

fn mcts() -> MctsConfig {
    MctsConfig {
        iterations: 15,
        seed: 33,
        ..MctsConfig::default()
    }
}

fn conv_spec(session: &Session) -> syno::core::spec::OperatorSpec {
    session
        .spec(&["N", "Cin", "H", "W"], &["N", "Cout", "H", "W"])
        .unwrap()
}

/// Sorted content hashes of a report's candidates.
fn candidate_ids(report: &SearchReport) -> Vec<u64> {
    let mut ids: Vec<u64> = report
        .candidates
        .iter()
        .map(|c| c.graph.content_hash())
        .collect();
    ids.sort_unstable();
    ids
}

#[derive(Default)]
struct Tally {
    scored: HashSet<u64>,
    hits: HashSet<u64>,
    checkpoints: usize,
}

/// Runs the conv scenario against `dir`, tallying evaluation events.
fn run_with_store(dir: &Path, resume: bool) -> (Tally, SearchReport) {
    let session = session_builder()
        .store(dir)
        .build()
        .expect("session builds");
    let spec = conv_spec(&session);
    let builder = if resume {
        session.resume().expect("store attached")
    } else {
        session.search()
    };
    let run = builder
        .scenario("conv", session.vars(), &spec)
        .proxy(quick_proxy())
        .mcts(mcts())
        .start()
        .expect("run starts");
    let mut tally = Tally::default();
    for event in run.events() {
        match event {
            SearchEvent::ProxyScored { id, .. } => {
                tally.scored.insert(id);
            }
            SearchEvent::CacheHit { id, .. } => {
                tally.hits.insert(id);
            }
            SearchEvent::CheckpointWritten { .. } => tally.checkpoints += 1,
            _ => {}
        }
    }
    let report = run.join().expect("run joins");
    (tally, report)
}

/// Cold → warm: the second run against the same store performs zero
/// duplicate proxy trainings; everything it would have trained is served as
/// a `CacheHit` from the journal.
#[test]
fn warm_cache_eliminates_duplicate_proxy_trainings() {
    let (dir, persistent) = store_dir("warm-cache");
    if !persistent {
        let _ = std::fs::remove_dir_all(&dir);
    }

    let (first, first_report) = run_with_store(&dir, false);
    // A run never both trains and recalls the same candidate.
    assert_eq!(first.scored.intersection(&first.hits).count(), 0);
    assert!(first.checkpoints > 0, "store runs journal checkpoints");
    assert!(
        !first.scored.is_empty() || !first.hits.is_empty(),
        "the scenario evaluates candidates"
    );

    let (second, second_report) = run_with_store(&dir, false);
    assert!(
        !second.hits.is_empty(),
        "second run against the same store must recall"
    );
    assert!(
        second.scored.is_empty(),
        "zero duplicate proxy trainings on a warm store, got {:?}",
        second.scored
    );
    assert_eq!(
        candidate_ids(&first_report),
        candidate_ids(&second_report),
        "cross-run dedup preserves the candidate set"
    );

    if !persistent {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Kill a run mid-stream, then `resume_from` the same store: the resumed
/// run completes and surfaces the same candidate set as an uninterrupted
/// run of the same configuration.
#[test]
fn resume_after_kill_matches_uninterrupted_run() {
    // Reference: an uninterrupted run with no store at all.
    let session = session_builder().build().expect("session builds");
    let spec = conv_spec(&session);
    let reference = session
        .scenario("conv", &spec)
        .proxy(quick_proxy())
        .mcts(mcts())
        .run()
        .expect("reference run");
    assert_eq!(reference.stopped, StopReason::Completed);
    let reference_ids = candidate_ids(&reference);
    assert!(!reference_ids.is_empty());

    // Interrupted: same scenario against a store, killed after the first
    // fully evaluated candidate reaches the stream. Its iteration count is
    // far above the reference's, so it cannot finish before the cancel is
    // seen; the resumed run re-adopts the journaled seed and stops at the
    // reference's count.
    let (dir, persistent) = store_dir("resume");
    if !persistent {
        let _ = std::fs::remove_dir_all(&dir);
    }
    let session = session_builder()
        .store(dir.clone())
        .build()
        .expect("session builds");
    let spec = conv_spec(&session);
    let run = session
        .scenario("conv", &spec)
        .proxy(quick_proxy())
        .mcts(MctsConfig {
            iterations: 1_000_000,
            ..mcts()
        })
        .start()
        .expect("run starts");
    let token = run.cancel_token();
    let mut evaluated_before_kill = 0usize;
    let mut trained_before_kill = HashSet::new();
    for event in run.events() {
        match event {
            SearchEvent::LatencyTuned { .. } | SearchEvent::CacheHit { .. } => {
                evaluated_before_kill += 1;
                token.cancel();
            }
            SearchEvent::ProxyScored { id, .. } => {
                trained_before_kill.insert(id);
            }
            _ => {}
        }
    }
    let interrupted = run.join().expect("interrupted run joins");
    assert!(evaluated_before_kill >= 1);
    assert_eq!(interrupted.stopped, StopReason::Cancelled);
    // Release the journal's single-writer lock before resuming.
    drop(session);

    // Resume: replays the journaled prefix as cache hits, continues to the
    // end, and matches the uninterrupted candidate set.
    let (resumed_tally, resumed) = run_with_store(&dir, true);
    assert_eq!(resumed.stopped, StopReason::Completed);
    assert_eq!(
        candidate_ids(&resumed),
        reference_ids,
        "resume_from completes with the same candidate set as an uninterrupted run"
    );
    assert!(
        !resumed_tally.hits.is_empty(),
        "the journaled prefix is replayed from the store"
    );
    assert_eq!(
        resumed_tally.scored.intersection(&trained_before_kill).count(),
        0,
        "nothing the killed run trained is trained again"
    );

    if !persistent {
        let _ = std::fs::remove_dir_all(&dir);
    }
}
