//! A run costs one thread per scenario and its own evaluator pool, and all
//! of them die with the run: a one-scenario run is one `syno-run` thread, a
//! second scenario adds one `syno-scenario-1`, an `eval_workers(3)` run adds
//! its `syno-eval-*` pool, and after `join()` none of them is left in the
//! process. A file of its own, so that no other test's threads are alive
//! beside it.
#![cfg(target_os = "linux")]

use std::sync::Arc;
use std::time::{Duration, Instant};
use syno_core::prelude::*;
use syno_nn::{ProxyConfig, TrainConfig};
use syno_search::{MctsConfig, SearchBuilder, SearchEvent};

/// Threads of this process the kernel knows under a name starting with
/// `prefix`.
fn threads(prefix: &str) -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_owned())
        .filter(|comm| comm.starts_with(prefix))
        .collect()
}

/// The threads named with `prefix` once they had time to be unlisted.
///
/// A joined thread has exited in user space, but the kernel unlists its
/// task a moment later (`pthread_join` wakes on the tid futex, which is
/// cleared before the task is reaped). A leaked thread stays parked for
/// good, so waiting for the list to empty tells the two apart.
fn left_over(prefix: &str) -> Vec<String> {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !threads(prefix).is_empty() && Instant::now() < deadline {
        std::thread::yield_now();
    }
    threads(prefix)
}

/// More iterations than a run can finish before it is cancelled, so its
/// threads are certainly alive when they are looked for.
fn endless(vars: &Arc<VarTable>, spec: &OperatorSpec, scenarios: usize) -> SearchBuilder {
    let mut builder = SearchBuilder::new()
        .mcts(MctsConfig {
            iterations: 100_000,
            seed: 2,
            ..MctsConfig::default()
        })
        .proxy(ProxyConfig {
            train: TrainConfig {
                steps: 2,
                batch: 4,
                eval_batches: 1,
                ..TrainConfig::default()
            },
            ..ProxyConfig::default()
        });
    for i in 0..scenarios {
        builder = builder.scenario(format!("conv-{i}"), vars, spec);
    }
    builder
}

#[test]
fn a_runs_own_evaluators_are_joined_before_join_returns() {
    let mut vars = VarTable::new();
    let n = vars.declare("N", VarKind::Primary);
    let cin = vars.declare("Cin", VarKind::Primary);
    let cout = vars.declare("Cout", VarKind::Primary);
    let h = vars.declare("H", VarKind::Primary);
    let w = vars.declare("W", VarKind::Primary);
    let k = vars.declare("k", VarKind::Coefficient);
    vars.push_valuation(vec![(n, 4), (cin, 3), (cout, 4), (h, 8), (w, 8), (k, 3)]);
    let vars = vars.into_shared();
    let dims = |c| TensorShape::new(vec![Size::var(n), Size::var(c), Size::var(h), Size::var(w)]);
    let spec = OperatorSpec::new(dims(cin), dims(cout));

    let none = Vec::<String>::new();
    for prefix in ["syno-run", "syno-scenario-", "syno-eval-"] {
        assert_eq!(threads(prefix), none, "nothing runs yet");
    }

    // One scenario evaluated in place: the run thread is the whole run.
    let run = endless(&vars, &spec, 1).eval_workers(1).start().unwrap();
    let mut seen_alive = false;
    for event in run.events() {
        // Every event of an in-place run comes from its one thread.
        if let (SearchEvent::CandidateFound { .. }, false) = (&event, seen_alive) {
            assert_eq!(threads("syno-run"), ["syno-run"]);
            assert_eq!(threads("syno-scenario-"), none);
            seen_alive = true;
            run.cancel();
        }
    }
    assert!(seen_alive, "the run must find a candidate");
    run.join().unwrap();
    assert_eq!(left_over("syno-run"), none);

    // A second scenario adds exactly one thread, `syno-scenario-1`.
    let run = endless(&vars, &spec, 2).start().unwrap();
    let mut seen_alive = false;
    for event in run.events() {
        // Scenario 1's own thread announced this candidate, so it is running
        // under its name.
        if let (SearchEvent::CandidateFound { scenario: 1, .. }, false) = (&event, seen_alive) {
            assert_eq!(threads("syno-run"), ["syno-run"]);
            assert_eq!(threads("syno-scenario-"), ["syno-scenario-1"]);
            seen_alive = true;
            run.cancel();
        }
    }
    assert!(seen_alive, "scenario 1 must find a candidate");
    run.join().unwrap();
    assert_eq!(left_over("syno-run"), none);
    assert_eq!(left_over("syno-scenario-"), none);

    // A run's own evaluator pool.
    let run = endless(&vars, &spec, 1).eval_workers(3).start().unwrap();
    let mut seen_alive = false;
    for event in run.events() {
        // A tuned candidate was streamed by an evaluator thread, which is
        // therefore running under its name.
        if let (SearchEvent::LatencyTuned { .. }, false) = (&event, seen_alive) {
            assert!(
                !threads("syno-eval-").is_empty(),
                "evaluators are named threads"
            );
            seen_alive = true;
            run.cancel();
        }
    }
    assert!(seen_alive, "the run must tune a candidate on its pool");
    run.join().unwrap();
    for prefix in ["syno-run", "syno-eval-"] {
        assert_eq!(left_over(prefix), none);
    }
}
