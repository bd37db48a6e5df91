//! The telemetry out-of-band contract, end to end: enabling tracing +
//! metrics must not change what the search discovers (bit-identical
//! candidate sets), the metrics dump must be byte-stable across
//! identical runs once timing series are stripped, the drained span log
//! must name the search's phases, and the daemon must serve the live dump
//! over the wire.
//!
//! Every test here mutates the process-global telemetry state, so they
//! all serialize on `metrics::test_lock()` and restore the disabled
//! default before returning.

use std::collections::BTreeSet;
use std::sync::Arc;

use syno::core::codec::encode_spec;
use syno::core::prelude::*;
use syno::nn::{ProxyConfig, TrainConfig};
use syno::search::{MctsConfig, SearchBuilder};
use syno::serve::daemon::{Daemon, ServeConfig};
use syno::serve::{SearchRequest, SessionMessage, SynoClient};
use syno::telemetry::{metrics, trace};

fn quick_proxy() -> ProxyConfig {
    ProxyConfig {
        train: TrainConfig {
            steps: 8,
            batch: 4,
            eval_batches: 1,
            lr: 0.2,
            ..TrainConfig::default()
        },
        ..ProxyConfig::default()
    }
}

/// `[N, Cin, H, W] -> [N, Cout, H, W]` conv-shaped scenario.
fn vision_space() -> (Arc<VarTable>, OperatorSpec) {
    let mut vars = VarTable::new();
    let n = vars.declare("N", VarKind::Primary);
    let cin = vars.declare("Cin", VarKind::Primary);
    let cout = vars.declare("Cout", VarKind::Primary);
    let h = vars.declare("H", VarKind::Primary);
    let w = vars.declare("W", VarKind::Primary);
    let k = vars.declare("k", VarKind::Coefficient);
    vars.push_valuation(vec![(n, 4), (cin, 3), (cout, 4), (h, 8), (w, 8), (k, 2)]);
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

/// One serial search over the vision space; returns the candidate set
/// keyed by content hash with exact accuracy bits, plus the report.
fn serial_run(iterations: usize, seed: u64) -> (BTreeSet<(u64, u64)>, syno::SearchReport) {
    let (vars, spec) = vision_space();
    let report = SearchBuilder::new()
        .scenario("conv", &vars, &spec)
        .mcts(MctsConfig {
            iterations,
            seed,
            ..MctsConfig::default()
        })
        .proxy(quick_proxy())
        .run()
        .expect("search finishes");
    let set = report
        .candidates
        .iter()
        .map(|c| (c.graph.content_hash(), c.accuracy.to_bits()))
        .collect();
    (set, report)
}

/// Tracing enabled vs disabled: the discovered candidate set (with exact
/// accuracy bits) must not move, the disabled report must attribute its
/// whole wall to `idle`, and the enabled report must attribute real time
/// to the synthesis and proxy phases.
#[test]
fn telemetry_enabled_search_is_bit_identical() {
    let _guard = metrics::test_lock();
    syno::telemetry::set_enabled(false);
    syno::telemetry::reset();

    let (cold_set, cold_report) = serial_run(14, 5);
    assert!(!cold_set.is_empty(), "baseline run discovers candidates");
    assert_eq!(
        cold_report.phases.synth.as_nanos(),
        0,
        "disabled telemetry attributes nothing to synth"
    );
    assert_eq!(cold_report.phases.eval.as_nanos(), 0);
    assert_eq!(cold_report.phases.idle, cold_report.wall);

    syno::telemetry::set_enabled(true);
    let (traced_set, traced_report) = serial_run(14, 5);
    syno::telemetry::set_enabled(false);

    assert_eq!(
        traced_set, cold_set,
        "enabling telemetry changed the discovered candidate set"
    );
    assert!(
        traced_report.phases.synth.as_nanos() > 0,
        "enabled telemetry attributes wall time to synthesis: {:?}",
        traced_report.phases
    );
    assert!(
        traced_report.phases.eval.as_nanos() > 0,
        "enabled telemetry attributes wall time to proxy training: {:?}",
        traced_report.phases
    );
}

/// Two identical telemetry-enabled runs must render byte-identical
/// metrics dumps once the (inherently nondeterministic) `*_seconds`
/// timing series are stripped.
#[test]
fn metrics_dump_is_byte_stable_across_identical_runs() {
    let _guard = metrics::test_lock();
    syno::telemetry::set_enabled(true);

    let mut dumps = Vec::new();
    for _ in 0..2 {
        syno::telemetry::reset();
        let (set, _) = serial_run(12, 9);
        assert!(!set.is_empty());
        dumps.push(metrics::strip_timing_lines(&metrics::global().render()));
    }
    syno::telemetry::set_enabled(false);

    assert_eq!(
        dumps[0], dumps[1],
        "identical runs rendered different (timing-stripped) metrics dumps"
    );
    assert!(
        dumps[0].contains("syno_search_candidates_total"),
        "dump carries the search counters:\n{}",
        dumps[0]
    );
    assert!(
        !dumps[0].contains("_seconds"),
        "strip_timing_lines removed every timing series"
    );
}

/// The span log drains and its flamegraph summary reflects the search's
/// span taxonomy.
#[test]
fn trace_log_survives_its_versioned_codec() {
    let _guard = metrics::test_lock();
    syno::telemetry::reset();
    syno::telemetry::set_enabled(true);
    let (set, _) = serial_run(12, 9);
    syno::telemetry::set_enabled(false);
    assert!(!set.is_empty());

    let spans = trace::drain();
    assert!(!spans.is_empty(), "the run recorded spans");
    let summary = trace::flame_summary(&spans);
    for name in ["synthesis", "ucb_select", "proxy_train", "task_batch", "latency_tune"] {
        assert!(summary.contains(name), "summary mentions '{name}':\n{summary}");
    }
}

/// The wire path: a daemon with telemetry enabled serves its live
/// registry through `SynoClient::metrics()`, including the per-tenant
/// session counters.
#[test]
fn daemon_serves_live_metrics_dump() {
    let _guard = metrics::test_lock();
    syno::telemetry::reset();
    syno::telemetry::set_enabled(true);

    let daemon = Daemon::bind(
        "127.0.0.1:0",
        None,
        ServeConfig {
            eval_workers: 1,
            proxy: quick_proxy(),
            ..ServeConfig::default()
        },
    )
    .expect("daemon binds");
    let (handle, daemon_thread) = daemon.spawn();

    let client = SynoClient::connect(handle.addr(), "obs-team").expect("client connects");
    let (vars, spec) = vision_space();
    let session = client
        .submit(&SearchRequest {
            label: "conv".to_owned(),
            spec: encode_spec(&vars, &spec),
            family: "vision".to_owned(),
            iterations: 10,
            seed: 5,
            progress_every: 0,
            max_steps: 0,
            train_steps: 0,
            train_batch: 0,
            eval_batches: 0,
            resume: false,
        })
        .expect("session admitted");
    let done = session
        .messages()
        .find_map(|m| match m {
            SessionMessage::Done { stopped, .. } => Some(stopped),
            _ => None,
        })
        .expect("terminal frame");
    assert_eq!(done, "completed");

    let dump = client.metrics().expect("metrics reply");
    assert!(
        dump.contains("syno_serve_sessions_total{tenant=\"obs-team\"} 1"),
        "dump carries the per-tenant session counter:\n{dump}"
    );
    assert!(
        dump.contains("syno_search_candidates_total"),
        "dump carries the search counters the session drove:\n{dump}"
    );

    client.shutdown().expect("daemon acknowledges shutdown");
    drop(client);
    daemon_thread.join().expect("daemon exits");
    syno::telemetry::set_enabled(false);
}
