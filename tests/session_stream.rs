//! End-to-end coverage of the `Session` facade's streaming search API:
//! events arrive in pipeline order, budgets and cancellation stop runs
//! early, a cancelled run still returns everything it announced, and a
//! warm store serves recalls instead of recomputing.

use syno::{SearchEvent, Session, SessionBuilder, StopReason, SynoError, SynthError};
use syno::nn::{ProxyConfig, TrainConfig};
use syno::search::MctsConfig;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;

fn conv_session_builder() -> SessionBuilder {
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

fn conv_session() -> Session {
    conv_session_builder().build().expect("session builds")
}

#[test]
fn events_arrive_in_pipeline_order() {
    let session = conv_session();
    let spec = session
        .spec(&["N", "Cin", "H", "W"], &["N", "Cout", "H", "W"])
        .unwrap();
    let run = session
        .scenario("conv", &spec)
        .proxy(quick_proxy())
        .mcts(MctsConfig {
            iterations: 20,
            seed: 11,
            ..MctsConfig::default()
        })
        .start()
        .expect("run starts");

    // Per candidate id, the pipeline must announce
    // CandidateFound -> ProxyScored -> LatencyTuned, in that order.
    #[derive(Default)]
    struct Stages {
        found: usize,
        scored: usize,
        tuned: usize,
    }
    let mut stages: HashMap<u64, Stages> = HashMap::new();
    for event in run.events() {
        match event {
            SearchEvent::CandidateFound { id, graph, .. } => {
                let s = stages.entry(id).or_default();
                assert_eq!(s.found, 0, "candidate {id} announced twice");
                s.found += 1;
                assert!(graph.is_complete());
            }
            SearchEvent::ProxyScored { id, accuracy, .. } => {
                let s = stages.entry(id).or_default();
                assert_eq!(s.found, 1, "scored before found");
                assert_eq!(s.scored, 0);
                s.scored += 1;
                assert!((0.0..=1.0).contains(&accuracy));
            }
            SearchEvent::LatencyTuned { id, candidate, .. } => {
                let s = stages.entry(id).or_default();
                assert_eq!(s.scored, 1, "tuned before scored");
                s.tuned += 1;
                assert_eq!(candidate.latencies.len(), 1);
                assert!(candidate.latencies[0].is_finite() && candidate.latencies[0] > 0.0);
            }
            SearchEvent::CandidateSkipped { id, .. } => {
                let s = stages.entry(id).or_default();
                assert_eq!(s.found, 1, "skipped before found");
            }
            SearchEvent::CacheHit { .. } => {
                panic!("no store attached: nothing can be recalled");
            }
            SearchEvent::CheckpointWritten { .. } => {
                panic!("no store attached: nothing can be checkpointed");
            }
            SearchEvent::Progress { .. } | SearchEvent::ScenarioFinished { .. } => {}
        }
    }
    let report = run.join().expect("run joins");
    assert_eq!(report.stopped, StopReason::Completed);
    let tuned_total: usize = stages.values().map(|s| s.tuned).sum();
    assert!(tuned_total > 0, "conv search must tune candidates");
    assert_eq!(report.candidates.len(), tuned_total);
}

#[test]
fn cancellation_returns_partial_results() {
    let session = conv_session();
    let spec = session
        .spec(&["N", "Cin", "H", "W"], &["N", "Cout", "H", "W"])
        .unwrap();
    let run = session
        .scenario("conv", &spec)
        .proxy(quick_proxy())
        .mcts(MctsConfig {
            iterations: 1_000_000, // would run (effectively) forever
            seed: 7,
            ..MctsConfig::default()
        })
        .start()
        .expect("run starts");
    let token = run.cancel_token();

    let mut announced: HashSet<u64> = HashSet::new();
    for event in run.events() {
        if let SearchEvent::LatencyTuned { id, .. } = event {
            announced.insert(id);
            token.cancel(); // stop after the first fully-tuned candidate
        }
    }
    let report = run.join().expect("cancelled runs still join cleanly");
    assert_eq!(report.stopped, StopReason::Cancelled);
    assert!(!announced.is_empty());
    assert_eq!(
        report.candidates.len(),
        announced.len(),
        "a cancelled run keeps exactly the candidates it announced"
    );
    assert!(
        report.steps < 1_000_000,
        "cancellation must cut the run short ({} steps)",
        report.steps
    );
}

#[test]
fn step_budget_stops_multi_scenario_runs() {
    let session = conv_session();
    let spec = session
        .spec(&["N", "Cin", "H", "W"], &["N", "Cout", "H", "W"])
        .unwrap();
    let report = session
        .search()
        .scenario("site-a", session.vars(), &spec)
        .scenario("site-b", session.vars(), &spec)
        .proxy(quick_proxy())
        .mcts(MctsConfig {
            iterations: 1_000_000,
            seed: 3,
            ..MctsConfig::default()
        })
        .max_steps(25)
        .run()
        .expect("run finishes");
    assert_eq!(report.stopped, StopReason::StepBudget);
    assert!(report.steps >= 25, "{}", report.steps);
    // Workers poll the budget between iterations, so the overshoot is at
    // most one iteration per worker.
    assert!(report.steps < 25 + 4, "{}", report.steps);
}

/// Warm-store event order: the second run of an identical scenario against
/// the same store must recall every previously evaluated candidate
/// (`CacheHit`) and re-train none of them (`ProxyScored` only for genuinely
/// new candidates — with an identical deterministic run, that means zero).
#[test]
fn warm_store_second_run_recalls_instead_of_retraining() {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "syno-session-stream-store-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mcts = MctsConfig {
        iterations: 15,
        seed: 21,
        ..MctsConfig::default()
    };
    let run_once = || {
        let session = conv_session_builder()
            .store(dir.clone())
            .build()
            .expect("session builds");
        let spec = session
            .spec(&["N", "Cin", "H", "W"], &["N", "Cout", "H", "W"])
            .unwrap();
        let run = session
            .scenario("conv", &spec)
            .proxy(quick_proxy())
            .mcts(mcts)
            .start()
            .expect("run starts");
        let mut scored = HashSet::new();
        let mut tuned = HashSet::new();
        let mut hits = HashSet::new();
        let mut checkpoints = 0usize;
        for event in run.events() {
            match event {
                SearchEvent::ProxyScored { id, .. } => {
                    scored.insert(id);
                }
                SearchEvent::LatencyTuned { id, .. } => {
                    tuned.insert(id);
                }
                SearchEvent::CacheHit { id, candidate, .. } => {
                    hits.insert(id);
                    assert!(candidate.graph.is_complete());
                    assert!((0.0..=1.0).contains(&candidate.accuracy));
                }
                SearchEvent::CheckpointWritten { iterations, .. } => {
                    checkpoints += 1;
                    assert!(iterations <= mcts.iterations as u64);
                }
                _ => {}
            }
        }
        let report = run.join().expect("run joins");
        let stats = session.store().expect("store attached").stats();
        (scored, tuned, hits, checkpoints, report, stats)
    };

    let (cold_scored, cold_tuned, cold_hits, cold_checkpoints, cold_report, _) = run_once();
    assert!(!cold_scored.is_empty(), "cold run trains candidates");
    assert!(!cold_tuned.is_empty(), "cold run tunes candidates");
    assert!(cold_hits.is_empty(), "cold run cannot hit an empty store");
    assert!(cold_checkpoints > 0, "store runs journal checkpoints");

    let (warm_scored, _, warm_hits, _, warm_report, warm_stats) = run_once();
    assert!(!warm_hits.is_empty(), "warm run must recall from the store");
    assert_eq!(
        warm_scored.intersection(&cold_scored).count(),
        0,
        "zero recomputed ProxyScored for cached candidates"
    );
    assert!(
        warm_scored.is_empty(),
        "identical deterministic run: everything is recalled, {warm_scored:?}"
    );
    assert!(
        warm_hits.is_subset(&cold_scored),
        "hits can only recall journaled scores"
    );
    assert!(
        cold_tuned.is_subset(&warm_hits),
        "every fully evaluated candidate must come back as a hit"
    );
    assert!(warm_stats.cache_hits as usize >= warm_hits.len());

    // Cross-run dedup: both runs surface the same candidate set.
    let ids = |r: &syno::SearchReport| {
        let mut v: Vec<u64> = r.candidates.iter().map(|c| c.graph.content_hash()).collect();
        v.sort_unstable();
        v
    };
    assert_eq!(ids(&cold_report), ids(&warm_report));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn session_errors_are_typed() {
    // No variables at all.
    let err = Session::builder().build().expect_err("must fail");
    assert!(matches!(err, SynoError::Synth(SynthError::InvalidConfig(_))));

    // A search with no scenarios.
    let session = conv_session();
    let err = session.search().start().expect_err("must fail");
    assert!(matches!(err, SynoError::Synth(SynthError::InvalidConfig(_))));
}
