//! The within-scenario evaluation pipeline through the `Session` facade:
//! `eval_workers(n)` keeps seeded runs set-deterministic (identical
//! candidate sets and per-candidate event subsequences vs. serial),
//! cancellation drains in-flight evaluations, unscorable specs fail fast
//! with a typed error, and a warm store still serves recalls under
//! pipelining.

use std::collections::HashMap;
use syno::nn::{ProxyConfig, TrainConfig};
use syno::search::MctsConfig;
use syno::{SearchBuilder, SearchEvent, Session, SessionBuilder, StopReason, SynoError};

fn conv_session_builder() -> SessionBuilder {
    Session::builder()
        .primary("N", 4)
        .primary("Cin", 3)
        .primary("Cout", 4)
        .primary("H", 8)
        .primary("W", 8)
        .coefficient("k", 3)
}

/// The conv scenario of `session` with this suite's quick run settings.
fn conv_search(session: &Session) -> SearchBuilder {
    let spec = session
        .spec(&["N", "Cin", "H", "W"], &["N", "Cout", "H", "W"])
        .unwrap();
    session
        .scenario("conv", &spec)
        .proxy(ProxyConfig {
            train: TrainConfig {
                steps: 2,
                batch: 4,
                eval_batches: 1,
                ..TrainConfig::default()
            },
            ..ProxyConfig::default()
        })
        .mcts(MctsConfig {
            iterations: 18,
            seed: 42,
            ..MctsConfig::default()
        })
}

/// Per-candidate event-kind subsequences, in stream order.
fn sequences(events: &[SearchEvent]) -> HashMap<u64, Vec<&'static str>> {
    let mut map: HashMap<u64, Vec<&'static str>> = HashMap::new();
    for event in events {
        let (id, kind) = match event {
            SearchEvent::CandidateFound { id, .. } => (*id, "found"),
            SearchEvent::ProxyScored { id, .. } => (*id, "scored"),
            SearchEvent::CacheHit { id, .. } => (*id, "hit"),
            SearchEvent::LatencyTuned { id, .. } => (*id, "tuned"),
            SearchEvent::CandidateSkipped { id, .. } => (*id, "skipped"),
            _ => continue,
        };
        map.entry(id).or_default().push(kind);
    }
    map
}

#[test]
fn pipelined_session_run_matches_serial() {
    let run_with = |eval_workers: usize| {
        let session = conv_session_builder().build().expect("session builds");
        let run = conv_search(&session)
            .eval_workers(eval_workers)
            .start()
            .expect("run starts");
        let events: Vec<SearchEvent> = run.events().collect();
        let report = run.join().expect("run joins");
        (events, report)
    };

    let (serial_events, serial_report) = run_with(1);
    let (piped_events, piped_report) = run_with(4);

    assert_eq!(serial_report.stopped, StopReason::Completed);
    assert_eq!(piped_report.stopped, StopReason::Completed);
    assert!(!serial_report.candidates.is_empty());

    // Identical candidate sets, by stable content hash and accuracy.
    let ids = |r: &syno::SearchReport| {
        let mut v: Vec<(u64, u64)> = r
            .candidates
            .iter()
            .map(|c| (c.graph.content_hash(), c.accuracy.to_bits()))
            .collect();
        v.sort_unstable();
        v
    };
    assert_eq!(ids(&serial_report), ids(&piped_report));

    // Identical per-candidate pipeline subsequences.
    assert_eq!(sequences(&serial_events), sequences(&piped_events));
}

#[test]
fn pipelined_cancellation_drains_in_flight_evaluations() {
    let session = conv_session_builder().build().expect("session builds");
    let run = conv_search(&session)
        .eval_workers(3)
        .mcts(MctsConfig {
            iterations: 1_000_000,
            seed: 5,
            ..MctsConfig::default()
        })
        .start()
        .expect("run starts");
    let token = run.cancel_token();

    let mut events = Vec::new();
    for event in run.events() {
        if let SearchEvent::LatencyTuned { .. } = event {
            token.cancel();
        }
        events.push(event);
    }
    let report = run.join().expect("cancelled runs still join");
    assert_eq!(report.stopped, StopReason::Cancelled);

    // Every announced candidate drained to a terminal event and the report
    // keeps exactly the candidates that finished the pipeline.
    let sequences = sequences(&events);
    let mut finished = 0usize;
    for (id, seq) in &sequences {
        let terminal = *seq.last().unwrap();
        assert!(
            terminal == "tuned" || terminal == "skipped" || terminal == "hit",
            "candidate {id:#x} left in flight: {seq:?}"
        );
        if terminal == "tuned" || terminal == "hit" {
            finished += 1;
        }
    }
    assert!(finished >= 1);
    assert_eq!(report.candidates.len(), finished);
}

#[test]
fn unscorable_spec_fails_fast_with_typed_error() {
    let session = Session::builder()
        .primary("H", 16)
        .coefficient("s", 2)
        .build()
        .expect("session builds");
    // 1-D pooling enumerates fine, and since the task-family registry it
    // also *scores* fine (sequence family) — `start()` accepts it now.
    let spec = session.spec(&["H"], &["H/s"]).unwrap();
    assert!(session.synthesis(&spec, 3).next().is_some());
    let run = session
        .scenario("pool", &spec)
        .start()
        .expect("the sequence family scores 1-D specs");
    run.cancel();
    run.join().unwrap();
    // A spec no family claims (rank 5) still fails fast with a typed
    // error instead of burning the iteration budget on zero rewards.
    let five = session.spec(&["H"; 5], &["H"; 5]).unwrap();
    let err = session
        .scenario("weird", &five)
        .start()
        .expect_err("must fail fast");
    match err {
        SynoError::Proxy { reason } => {
            assert!(reason.contains("vision") && reason.contains("sequence"),
                "names the families tried: {reason}");
            assert!(reason.contains("rank 5"), "states the rank: {reason}");
        }
        other => panic!("expected SynoError::Proxy, got {other:?}"),
    }
}

#[test]
fn warm_store_serves_recalls_under_pipelining() {
    let dir = std::env::temp_dir().join(format!("syno-eval-pipeline-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let run_once = |eval_workers: usize| {
        let session = conv_session_builder()
            .store(dir.clone())
            .build()
            .expect("session builds");
        let run = conv_search(&session)
            .eval_workers(eval_workers)
            .start()
            .expect("run starts");
        let mut scored = 0usize;
        let mut hits = 0usize;
        for event in run.events() {
            match event {
                SearchEvent::ProxyScored { .. } => scored += 1,
                SearchEvent::CacheHit { .. } => hits += 1,
                _ => {}
            }
        }
        let report = run.join().expect("run joins");
        let mut ids: Vec<u64> = report
            .candidates
            .iter()
            .map(|c| c.graph.content_hash())
            .collect();
        ids.sort_unstable();
        (scored, hits, ids)
    };

    // Cold run pipelined, warm run pipelined: the second must recall every
    // evaluation from the journal — zero duplicate proxy trainings even
    // with concurrent evaluator workers sharing the store.
    let (cold_scored, cold_hits, cold_ids) = run_once(4);
    assert!(cold_scored > 0);
    assert_eq!(cold_hits, 0);
    let (warm_scored, warm_hits, warm_ids) = run_once(4);
    assert_eq!(warm_scored, 0, "warm pipelined run re-trained a candidate");
    assert!(warm_hits > 0);
    assert_eq!(cold_ids, warm_ids);
    let _ = std::fs::remove_dir_all(&dir);
}
