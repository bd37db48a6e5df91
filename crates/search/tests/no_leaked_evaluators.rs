//! A run's own evaluator pool dies with the run: after `join()` of an
//! `eval_workers(3)` search no `syno-eval-*` thread is left in the process.
//! A file of its own, so that no other test's pool is alive beside it.
#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};
use syno_core::prelude::*;
use syno_nn::{ProxyConfig, TrainConfig};
use syno_search::{MctsConfig, SearchBuilder, SearchEvent};

/// Threads of this process the kernel knows under an evaluator's name.
fn evaluator_threads() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_owned())
        .filter(|comm| comm.starts_with("syno-eval-"))
        .collect()
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

    assert!(evaluator_threads().is_empty(), "nothing runs yet");
    let run = SearchBuilder::new()
        .scenario("conv", &vars, &spec)
        // More iterations than the run can finish before it is cancelled
        // below, so its pool is certainly alive when it is looked for.
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
        })
        .eval_workers(3)
        .start()
        .unwrap();
    let mut seen_alive = false;
    for event in run.events() {
        // A tuned candidate was streamed by an evaluator thread, which is
        // therefore running under its name.
        if let (SearchEvent::LatencyTuned { .. }, false) = (&event, seen_alive) {
            assert!(
                !evaluator_threads().is_empty(),
                "evaluators are named threads"
            );
            seen_alive = true;
            run.cancel();
        }
    }
    assert!(seen_alive, "the run must tune a candidate on its pool");
    run.join().unwrap();
    // A joined thread has exited in user space, but the kernel unlists its
    // task a moment later (`pthread_join` wakes on the tid futex, which is
    // cleared before the task is reaped). A leaked evaluator stays parked on
    // its queue for good, so waiting for the list to empty tells the two
    // apart.
    let deadline = Instant::now() + Duration::from_secs(5);
    while !evaluator_threads().is_empty() && Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(evaluator_threads(), Vec::<String>::new());
}
