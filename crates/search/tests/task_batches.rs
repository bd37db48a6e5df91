//! A search generates each batch of its proxy task once, however many
//! candidates train on it: `syno_nn_task_batches_total` rises by exactly
//! `steps + eval_batches` over a run that trains several candidates on two
//! evaluator workers, and by nothing over a warm run that recalls them all.
//! A file of its own: the registry is process-global, and sibling tests
//! train too.

use std::sync::Arc;
use syno_core::prelude::*;
use syno_nn::{ProxyConfig, TrainConfig};
use syno_search::{MctsConfig, SearchBuilder, SearchEvent};
use syno_store::StoreBuilder;

fn counter(name: &str) -> u64 {
    syno_telemetry::metrics::global().counter(name).get()
}

#[test]
fn a_search_generates_each_task_batch_once() {
    syno_telemetry::set_enabled(true);
    let mut vars = VarTable::new();
    let [n, cin, cout, h, w] = ["N", "Cin", "Cout", "H", "W"].map(|v| vars.declare(v, VarKind::Primary));
    let k = vars.declare("k", VarKind::Coefficient);
    vars.push_valuation(vec![(n, 4), (cin, 3), (cout, 4), (h, 8), (w, 8), (k, 3)]);
    let vars = vars.into_shared();
    let dims = |c| TensorShape::new(vec![Size::var(n), Size::var(c), Size::var(h), Size::var(w)]);
    let spec = OperatorSpec::new(dims(cin), dims(cout));
    let train = TrainConfig {
        steps: 3,
        eval_batches: 2,
        ..TrainConfig::default()
    };

    let dir = std::env::temp_dir().join(format!("syno-task-batches-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // `(batches generated, trainings, candidates scored)` of one run.
    let run = || {
        let store = Arc::new(StoreBuilder::new(&dir).open().unwrap());
        let before = (counter("syno_nn_task_batches_total"), counter("syno_search_proxy_train_total"));
        let run = SearchBuilder::new()
            .scenario("conv", &vars, &spec)
            .mcts(MctsConfig {
                iterations: 30,
                seed: 5,
                ..MctsConfig::default()
            })
            .proxy(ProxyConfig {
                train,
                ..ProxyConfig::default()
            })
            .eval_workers(2)
            .store(store)
            .start()
            .unwrap();
        let scored = run.events().filter(|e| matches!(e, SearchEvent::ProxyScored { .. })).count();
        run.join().unwrap();
        (
            counter("syno_nn_task_batches_total") - before.0,
            counter("syno_search_proxy_train_total") - before.1,
            scored,
        )
    };

    let (batches, trainings, scored) = run();
    assert!(scored >= 3 && trainings >= scored as u64, "{trainings} trainings scored {scored}");
    // Every slot was filled — so some candidate trained to the last step and
    // through evaluation — and filled once, not once per training.
    assert_eq!(batches, (train.steps + train.eval_batches) as u64);

    let (batches, trainings, _) = run();
    assert_eq!((batches, trainings), (0, 0), "a warm run recalls every score");
    let _ = std::fs::remove_dir_all(&dir);
}
