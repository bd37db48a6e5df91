use super::*;
use crate::mcts::Mcts;
use syno_core::prelude::*;
use syno_nn::TrainConfig;
use syno_telemetry::metrics::labeled;

/// A 1-D pooling spec, scored by the sequence family.
fn pool_scenario() -> (Arc<VarTable>, OperatorSpec) {
    let mut vars = VarTable::new();
    let h = vars.declare("H", VarKind::Primary);
    let s = vars.declare("s", VarKind::Coefficient);
    vars.push_valuation(vec![(h, 16), (s, 2)]);
    let vars = vars.into_shared();
    let spec = OperatorSpec::new(
        TensorShape::new(vec![Size::var(h)]),
        TensorShape::new(vec![Size::var(h).div(&Size::var(s))]),
    );
    (vars, spec)
}

/// A `[B, T, C] → [B, T, C]` sequence spec — the LM-workload analogue
/// of [`conv_scenario`], scored by the sequence/LM proxy family.
fn lm_scenario() -> (Arc<VarTable>, OperatorSpec) {
    let mut vars = VarTable::new();
    let b = vars.declare("B", VarKind::Primary);
    let t = vars.declare("T", VarKind::Primary);
    let c = vars.declare("C", VarKind::Primary);
    let k = vars.declare("k", VarKind::Coefficient);
    vars.push_valuation(vec![(b, 4), (t, 4), (c, 8), (k, 2)]);
    let vars = vars.into_shared();
    let spec = OperatorSpec::new(
        TensorShape::new(vec![Size::var(b), Size::var(t), Size::var(c)]),
        TensorShape::new(vec![Size::var(b), Size::var(t), Size::var(c)]),
    );
    (vars, spec)
}

/// No registered family scores rank 5.
fn unscorable_scenario() -> (Arc<VarTable>, OperatorSpec) {
    let mut vars = VarTable::new();
    let h = vars.declare("H", VarKind::Primary);
    vars.push_valuation(vec![(h, 4)]);
    let vars = vars.into_shared();
    let dims = vec![Size::var(h); 5];
    let spec = OperatorSpec::new(
        TensorShape::new(dims.clone()),
        TensorShape::new(dims),
    );
    (vars, spec)
}

/// A tiny 4-D conv-like scenario the vision proxy can actually score.
fn conv_scenario() -> (Arc<VarTable>, OperatorSpec) {
    let mut vars = VarTable::new();
    let n = vars.declare("N", VarKind::Primary);
    let cin = vars.declare("Cin", VarKind::Primary);
    let cout = vars.declare("Cout", VarKind::Primary);
    let h = vars.declare("H", VarKind::Primary);
    let w = vars.declare("W", VarKind::Primary);
    let k = vars.declare("k", VarKind::Coefficient);
    vars.push_valuation(vec![(n, 4), (cin, 3), (cout, 4), (h, 8), (w, 8), (k, 3)]);
    let vars = vars.into_shared();
    let spec = OperatorSpec::new(
        TensorShape::new(vec![
            Size::var(n),
            Size::var(cin),
            Size::var(h),
            Size::var(w),
        ]),
        TensorShape::new(vec![
            Size::var(n),
            Size::var(cout),
            Size::var(h),
            Size::var(w),
        ]),
    );
    (vars, spec)
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

#[test]
fn builder_without_scenarios_is_a_typed_error() {
    let err = SearchBuilder::new().start().expect_err("must fail");
    assert!(matches!(
        err,
        SynoError::Synth(SynthError::InvalidConfig(_))
    ));
}

#[test]
fn invalid_scenario_spec_is_a_typed_error() {
    let mut vars = VarTable::new();
    let h = vars.declare("H", VarKind::Primary);
    let vars = vars.into_shared(); // no valuations pushed
    let spec = OperatorSpec::new(
        TensorShape::new(vec![Size::var(h)]),
        TensorShape::new(vec![Size::var(h)]),
    );
    let err = SearchBuilder::new()
        .scenario("bad", &vars, &spec)
        .start()
        .expect_err("must fail");
    assert!(matches!(err, SynoError::Synth(SynthError::InvalidSpec(_))));
}

#[test]
fn events_stream_in_pipeline_order_per_candidate() {
    let (vars, spec) = conv_scenario();
    let run = SearchBuilder::new()
        .scenario("conv", &vars, &spec)
        .mcts(MctsConfig {
            iterations: 25,
            seed: 2,
            ..MctsConfig::default()
        })
        .proxy(quick_proxy())
        .progress_every(5)
        .start()
        .unwrap();

    let events: Vec<SearchEvent> = run.events().collect();
    let mut seen_found = std::collections::HashSet::new();
    let mut seen_scored = std::collections::HashSet::new();
    let mut tuned = 0usize;
    for event in &events {
        match event {
            SearchEvent::CandidateFound { id, .. } => {
                assert!(seen_found.insert(*id), "duplicate CandidateFound for {id}");
            }
            SearchEvent::ProxyScored { id, .. } => {
                assert!(seen_found.contains(id), "scored before found");
                seen_scored.insert(*id);
            }
            SearchEvent::LatencyTuned { id, candidate, .. } => {
                assert!(seen_scored.contains(id), "tuned before scored");
                assert!(candidate.graph.is_complete());
                tuned += 1;
            }
            _ => {}
        }
    }
    assert!(tuned > 0, "conv scenario must produce tuned candidates");

    let report = run.join().unwrap();
    assert_eq!(report.stopped, StopReason::Completed);
    assert_eq!(report.candidates.len(), tuned);
    assert!(report.steps > 0);
}

#[test]
fn cancellation_stops_early_with_partial_results() {
    let (vars, spec) = conv_scenario();
    let token = CancelToken::new();
    let run = SearchBuilder::new()
        .scenario("conv", &vars, &spec)
        .mcts(MctsConfig {
            iterations: 100_000,
            seed: 3,
            ..MctsConfig::default()
        })
        .proxy(quick_proxy())
        .cancel_token(token.clone())
        .start()
        .unwrap();

    // Cancel as soon as the first candidate is fully through the
    // pipeline; the run must wind down and keep what it announced.
    let mut tuned_before_cancel = 0usize;
    for event in run.events() {
        if let SearchEvent::LatencyTuned { .. } = event {
            tuned_before_cancel += 1;
            if !token.is_cancelled() {
                token.cancel();
            }
        }
    }
    let report = run.join().unwrap();
    assert_eq!(report.stopped, StopReason::Cancelled);
    assert!(tuned_before_cancel >= 1);
    assert_eq!(report.candidates.len(), tuned_before_cancel);
    assert!(
        report.steps < 100_000,
        "cancellation must cut the run short ({} steps)",
        report.steps
    );
}

#[test]
fn step_budget_bounds_total_iterations() {
    let (vars, spec) = conv_scenario();
    let report = SearchBuilder::new()
        .scenario("conv", &vars, &spec)
        .mcts(MctsConfig {
            iterations: 100_000,
            seed: 4,
            ..MctsConfig::default()
        })
        .proxy(quick_proxy())
        .max_steps(30)
        .run()
        .unwrap();
    assert_eq!(report.stopped, StopReason::StepBudget);
    assert!(report.steps >= 30 && report.steps < 40, "{}", report.steps);
}

/// A synthesis config that cannot search (`max_steps: 0` leaves the root
/// childless) fails `start()` instead of completing with no candidates.
#[test]
fn unsearchable_synth_config_is_rejected_at_start() {
    let (vars, spec) = conv_scenario();
    let err = SearchBuilder::new()
        .scenario("conv", &vars, &spec)
        .synth(SynthConfig {
            max_steps: 0,
            ..SynthConfig::auto(&vars, 4)
        })
        .start()
        .expect_err("a zero step budget must fail fast");
    assert!(
        matches!(err, SynoError::Synth(SynthError::InvalidConfig(_))),
        "{err:?}"
    );
}

/// A spec no proxy family can score (here rank 5) must be rejected at
/// `start()` with a typed error naming the scenario, every family
/// tried, and the rank seen — instead of burning the whole iteration
/// budget on zero rewards.
#[test]
fn unscorable_spec_is_rejected_at_start() {
    let (vars, spec) = unscorable_scenario();
    let err = SearchBuilder::new()
        .scenario("weird", &vars, &spec)
        .start()
        .expect_err("rank-5 specs are unscorable and must fail fast");
    match err {
        SynoError::Proxy { reason } => {
            assert!(reason.contains("weird"), "names the scenario: {reason}");
            assert!(reason.contains("vision"), "names the vision family: {reason}");
            assert!(reason.contains("sequence"), "names the sequence family: {reason}");
            assert!(reason.contains("rank 5"), "states the rank seen: {reason}");
        }
        other => panic!("expected SynoError::Proxy, got {other:?}"),
    }
}

/// The `proxy_family` override is re-validated per scenario: forcing
/// the vision family onto a 1-D spec fails fast instead of zeroing
/// every reward.
#[test]
fn family_override_is_validated_against_the_spec() {
    let (vars, spec) = pool_scenario();
    let err = SearchBuilder::new()
        .scenario("pool", &vars, &spec)
        .proxy_family(syno_nn::ProxyFamilyId::Vision)
        .start()
        .expect_err("vision cannot score a 1-D spec");
    assert!(matches!(err, SynoError::Proxy { .. }), "{err}");

    // The matching override works like auto-detection.
    let run = SearchBuilder::new()
        .scenario("pool", &vars, &spec)
        .proxy_family(syno_nn::ProxyFamilyId::Sequence)
        .mcts(MctsConfig {
            iterations: 3,
            seed: 1,
            ..MctsConfig::default()
        })
        .proxy(quick_proxy())
        .start()
        .expect("sequence override accepts the 1-D spec");
    run.join().unwrap();
}

/// The 1-D pooling spec runs search end-to-end and produces scored
/// candidates through the sequence family.
#[test]
fn pool_scenario_now_searches_end_to_end() {
    let (vars, spec) = pool_scenario();
    let run = SearchBuilder::new()
        .scenario("pool", &vars, &spec)
        .mcts(MctsConfig {
            iterations: 12,
            seed: 2,
            ..MctsConfig::default()
        })
        .proxy(quick_proxy())
        .start()
        .expect("1-D specs are scorable now");
    let events: Vec<SearchEvent> = run.events().collect();
    let scored: Vec<f64> = events
        .iter()
        .filter_map(|e| match e {
            SearchEvent::ProxyScored { accuracy, .. } => Some(*accuracy),
            _ => None,
        })
        .collect();
    assert!(!scored.is_empty(), "pool search must score candidates");
    assert!(
        scored.iter().any(|&a| a > 0.0),
        "sequence proxy must produce nonzero rewards: {scored:?}"
    );
    let report = run.join().unwrap();
    assert_eq!(report.stopped, StopReason::Completed);
    assert!(!report.candidates.is_empty());
}

/// Vision and LM scenarios run side by side in one multi-scenario
/// search, each scored by its own family.
#[test]
fn mixed_vision_and_lm_scenarios_run_concurrently() {
    let (conv_vars, conv_spec) = conv_scenario();
    let (lm_vars, lm_spec) = lm_scenario();
    let report = SearchBuilder::new()
        .scenario("conv", &conv_vars, &conv_spec)
        .scenario("lm", &lm_vars, &lm_spec)
        .mcts(MctsConfig {
            iterations: 10,
            seed: 5,
            ..MctsConfig::default()
        })
        .proxy(quick_proxy())
        .run()
        .unwrap();
    let scenarios: std::collections::HashSet<usize> =
        report.candidates.iter().map(|c| c.scenario).collect();
    assert!(
        scenarios.contains(&0) && scenarios.contains(&1),
        "both families must contribute candidates: {scenarios:?}"
    );
}

#[test]
fn scenarios_run_concurrently_and_tag_results() {
    let (vars, spec) = conv_scenario();
    let report = SearchBuilder::new()
        .scenario("conv-a", &vars, &spec)
        .scenario("conv-b", &vars, &spec)
        .mcts(MctsConfig {
            iterations: 20,
            seed: 5,
            ..MctsConfig::default()
        })
        .proxy(quick_proxy())
        .run()
        .unwrap();
    let scenarios: std::collections::HashSet<usize> =
        report.candidates.iter().map(|c| c.scenario).collect();
    assert!(scenarios.contains(&0) && scenarios.contains(&1), "{scenarios:?}");
    for pair in report.candidates.windows(2) {
        assert!(pair[0].accuracy >= pair[1].accuracy);
    }
}

#[test]
fn warm_store_serves_cache_hits_without_retraining() {
    let dir = std::env::temp_dir().join(format!("syno-run-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (vars, spec) = conv_scenario();
    let mcts = MctsConfig {
        iterations: 15,
        seed: 9,
        ..MctsConfig::default()
    };

    let store = Arc::new(syno_store::StoreBuilder::new(&dir).open().unwrap());
    let cold = SearchBuilder::new()
        .scenario("conv", &vars, &spec)
        .mcts(mcts)
        .proxy(quick_proxy())
        .store(Arc::clone(&store))
        .start()
        .unwrap();
    let mut cold_scored = std::collections::HashSet::new();
    let mut cold_checkpoints = 0usize;
    for event in cold.events() {
        match event {
            SearchEvent::ProxyScored { id, .. } => {
                cold_scored.insert(id);
            }
            SearchEvent::CacheHit { .. } => panic!("cold run cannot hit the cache"),
            SearchEvent::CheckpointWritten { .. } => cold_checkpoints += 1,
            _ => {}
        }
    }
    let cold_report = cold.join().unwrap();
    assert!(!cold_scored.is_empty());
    assert!(cold_checkpoints > 0, "store runs must journal checkpoints");

    // Same scenario, same store, fresh process state: every evaluation
    // must come back from the journal — zero duplicate proxy trainings.
    drop(store);
    let store = Arc::new(syno_store::StoreBuilder::new(&dir).open().unwrap());
    let warm = SearchBuilder::new()
        .scenario("conv", &vars, &spec)
        .mcts(mcts)
        .proxy(quick_proxy())
        .store(Arc::clone(&store))
        .start()
        .unwrap();
    let mut hits = 0usize;
    for event in warm.events() {
        match event {
            SearchEvent::ProxyScored { id, .. } => {
                assert!(
                    !cold_scored.contains(&id),
                    "candidate {id:#x} was re-trained despite a warm store"
                );
            }
            SearchEvent::CacheHit { id, candidate, .. } => {
                assert!(cold_scored.contains(&id), "hit for unknown candidate");
                assert!(candidate.latencies.iter().all(|l| l.is_finite()));
                hits += 1;
            }
            _ => {}
        }
    }
    let warm_report = warm.join().unwrap();
    assert!(hits >= 1, "warm run must recall from the store");
    assert_eq!(
        store.stats().cache_hits,
        hits as u64,
        "store hit counter and events agree"
    );
    // Deterministic replay: the warm run rediscovers the same set.
    let ids = |r: &SearchReport| {
        let mut v: Vec<u64> = r.candidates.iter().map(|c| c.graph.content_hash()).collect();
        v.sort_unstable();
        v
    };
    assert_eq!(ids(&cold_report), ids(&warm_report));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The event-kind subsequence each candidate produced, in stream order
/// (pipeline heartbeats and scenario bookkeeping excluded).
fn per_candidate_sequences(
    events: &[SearchEvent],
) -> std::collections::HashMap<u64, Vec<&'static str>> {
    let mut map: std::collections::HashMap<u64, Vec<&'static str>> =
        std::collections::HashMap::new();
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

/// The determinism contract, checked against the reference outside
/// this module: at every width, and for two concurrent runs on one
/// shared pool, a seeded run reports exactly the `(content_hash,
/// accuracy bits)` set that `Mcts::search` reaches when driven with the
/// same family score, and every candidate streams the event
/// subsequence that score implies — only cross-candidate interleaving
/// may differ.
#[test]
fn every_width_and_a_shared_pool_match_the_reference_search() {
    let (vars, spec) = conv_scenario();
    let mcts = MctsConfig {
        iterations: 25,
        seed: 2,
        ..MctsConfig::default()
    };
    let proxy = quick_proxy();

    let family = resolve_family(&spec, &vars, 0).unwrap().family();
    let mut expected_set: Vec<(u64, u64)> = Vec::new();
    let mut expected_seq = std::collections::HashMap::new();
    let mut reference = Mcts::new(Enumerator::new(SynthConfig::auto(&vars, 4)), mcts);
    reference.search(&PGraph::new(Arc::clone(&vars), spec.clone()), |graph| {
        let id = graph.content_hash();
        match family.score(graph, 0, &proxy) {
            Ok(accuracy) => {
                let accuracy = f64::from(accuracy).clamp(0.0, 1.0);
                expected_set.push((id, accuracy.to_bits()));
                expected_seq.insert(id, vec!["found", "scored", "tuned"]);
                accuracy
            }
            Err(_) => {
                expected_seq.insert(id, vec!["found", "skipped"]);
                0.0
            }
        }
    });
    expected_set.sort_unstable();
    assert!(!expected_set.is_empty());

    let pool = EvalPool::new(3);
    let start = |name: &str, place: &dyn Fn(SearchBuilder) -> SearchBuilder| {
        let builder = SearchBuilder::new()
            .scenario("conv", &vars, &spec)
            .mcts(mcts)
            .proxy(proxy);
        (name.to_owned(), place(builder).start().unwrap())
    };
    let runs = [
        start("eval_workers(1)", &|b| b.eval_workers(1)),
        start("eval_workers(2)", &|b| b.eval_workers(2)),
        start("eval_workers(4)", &|b| b.eval_workers(4)),
        // Two concurrent runs share the one pool — the daemon's shape.
        start("shared pool, first run", &|b| b.eval_pool(pool.clone())),
        start("shared pool, second run", &|b| b.eval_pool(pool.clone())),
    ];
    for (name, run) in runs {
        let events: Vec<SearchEvent> = run.events().collect();
        let report = run.join().unwrap();
        assert_eq!(report.stopped, StopReason::Completed, "{name}");
        assert_eq!(report.steps, 25, "{name}");
        let mut set: Vec<(u64, u64)> = report
            .candidates
            .iter()
            .map(|c| (c.graph.content_hash(), c.accuracy.to_bits()))
            .collect();
        set.sort_unstable();
        assert_eq!(set, expected_set, "{name}");
        assert_eq!(per_candidate_sequences(&events), expected_seq, "{name}");
    }
    pool.shutdown().expect("no evaluation panicked");
}

/// Cancelling a pipelined run must drain in-flight evaluations
/// cleanly: every announced candidate still reaches a terminal event
/// (tuned or skipped) and the report keeps everything announced.
#[test]
fn eval_pipeline_cancellation_drains_in_flight() {
    let (vars, spec) = conv_scenario();
    let token = CancelToken::new();
    let run = SearchBuilder::new()
        .scenario("conv", &vars, &spec)
        .mcts(MctsConfig {
            iterations: 100_000,
            seed: 3,
            ..MctsConfig::default()
        })
        .proxy(quick_proxy())
        .eval_workers(3)
        .cancel_token(token.clone())
        .start()
        .unwrap();

    let mut events = Vec::new();
    for event in run.events() {
        if let SearchEvent::LatencyTuned { .. } = event {
            if !token.is_cancelled() {
                token.cancel();
            }
        }
        events.push(event);
    }
    let report = run.join().unwrap();
    assert_eq!(report.stopped, StopReason::Cancelled);
    assert!(
        report.steps < 100_000,
        "cancellation must cut the run short ({} steps)",
        report.steps
    );

    let sequences = per_candidate_sequences(&events);
    assert!(!sequences.is_empty());
    let mut tuned = 0usize;
    for (id, seq) in &sequences {
        assert_eq!(seq[0], "found", "candidate {id:#x}: {seq:?}");
        let terminal = seq.last().unwrap();
        assert!(
            *terminal == "tuned" || *terminal == "skipped" || *terminal == "hit",
            "candidate {id:#x} was announced but never finished: {seq:?}"
        );
        if *terminal == "tuned" {
            tuned += 1;
        }
    }
    assert!(tuned >= 1);
    assert_eq!(
        report.candidates.len(),
        tuned,
        "a cancelled pipelined run keeps exactly what it finished"
    );
}

/// A pool shut down mid-run must degrade loudly: every candidate whose
/// evaluation was lost surfaces a typed `SynoError::Eval` through the
/// event stream instead of silently scoring 0.0.
#[test]
fn dead_pool_surfaces_typed_eval_errors() {
    let (vars, spec) = conv_scenario();
    let pool = EvalPool::new(1);
    pool.shutdown().expect("no evaluation panicked");
    // Every skip is counted by reason. Other tests of this binary run
    // while telemetry is on and may skip candidates too, but only a
    // dead pool loses them, so the `lost` series is this run's alone.
    let _telemetry = syno_telemetry::metrics::test_lock();
    let lost = syno_telemetry::metrics::global()
        .counter(&labeled("syno_search_skips_total", &[("reason", "lost")]));
    let lost_before = lost.get();
    syno_telemetry::set_enabled(true);
    let run = SearchBuilder::new()
        .scenario("conv", &vars, &spec)
        .mcts(MctsConfig {
            iterations: 10,
            seed: 2,
            ..MctsConfig::default()
        })
        .proxy(quick_proxy())
        .eval_pool(pool)
        .start()
        .unwrap();
    let events: Vec<SearchEvent> = run.events().collect();
    syno_telemetry::set_enabled(false);
    let skips: Vec<&SynoError> = events
        .iter()
        .filter_map(|e| match e {
            SearchEvent::CandidateSkipped { error, .. } => Some(error),
            _ => None,
        })
        .collect();
    assert!(!skips.is_empty(), "a dead pool must report lost candidates");
    assert_eq!(
        lost.get() - lost_before,
        skips.len() as u64,
        "every streamed skip is counted"
    );
    for error in &skips {
        assert!(
            matches!(error, SynoError::Eval { .. }),
            "lost evaluations carry SynoError::Eval, got {error:?}"
        );
    }
    // Every announced candidate still reaches a terminal event.
    for (id, seq) in per_candidate_sequences(&events) {
        assert_eq!(seq.first(), Some(&"found"), "candidate {id:#x}: {seq:?}");
        assert_eq!(seq.last(), Some(&"skipped"), "candidate {id:#x}: {seq:?}");
    }
    let report = run.join().unwrap();
    assert!(report.candidates.is_empty());
}

/// `SearchRun::progress` exposes live counters without cloning: the
/// handle is the same `Arc` throughout, counters advance while the run
/// streams, and the final values agree with the report.
#[test]
fn progress_counters_track_the_run_allocation_free() {
    let (vars, spec) = conv_scenario();
    let run = SearchBuilder::new()
        .scenario("conv", &vars, &spec)
        .mcts(MctsConfig {
            iterations: 20,
            seed: 2,
            ..MctsConfig::default()
        })
        .proxy(quick_proxy())
        .start()
        .unwrap();
    let progress = Arc::clone(run.progress());
    assert_eq!(progress.scenarios().len(), 1);
    assert_eq!(progress.scenarios()[0].label(), "conv");
    assert_eq!(progress.scenarios()[0].total_iterations(), 20);
    assert!(Arc::ptr_eq(&progress, run.progress()), "same Arc every poll");

    let mut tuned = 0u64;
    for event in run.events() {
        if let SearchEvent::LatencyTuned { .. } = event {
            tuned += 1;
            assert!(
                progress.scenarios()[0].candidates() >= tuned,
                "candidate counter advances with the stream"
            );
        }
    }
    let report = run.join().unwrap();
    assert!(progress.finished());
    assert_eq!(progress.steps(), report.steps);
    assert_eq!(
        progress.scenarios()[0].candidates() as usize,
        report.candidates.len()
    );
    assert!(progress.scenarios()[0].discovered() >= tuned);
}
