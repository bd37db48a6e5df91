//! Daemon sessions share the feasible-children memo and move no bit:
//! two tenants submit the identical `(spec, seed)` at once and a third
//! session searches the same spec under another seed, all through one
//! storeless daemon. Each session's ordered `CandidateFound` ids and its
//! `(id, accuracy bits)` set must equal the same request run alone in
//! process through `SearchBuilder`, while the daemon fills each action
//! path of the spec at most once. A later session on a tagged spec (one
//! extra, unused variable) must share nothing with it.
//!
//! This file is its own test binary on purpose: the assertions read
//! process-global telemetry counters, so no other test may share the
//! process.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use syno::core::codec::encode_spec;
use syno::core::prelude::*;
use syno::search::{MctsConfig, SearchBuilder, SearchEvent, SynthMemo};
use syno::serve::daemon::{Daemon, ServeConfig};
use syno::serve::{SearchRequest, SessionMessage, SynoClient, WireEvent};
use syno::ProxyFamilyId;

const ITERATIONS: u32 = 24;

fn quick_proxy() -> syno::nn::ProxyConfig {
    syno::nn::ProxyConfig {
        train: syno::nn::TrainConfig {
            steps: 4,
            batch: 4,
            eval_batches: 1,
            lr: 0.2,
            ..syno::nn::TrainConfig::default()
        },
        ..syno::nn::ProxyConfig::default()
    }
}

/// `[N, Cin, H, W] -> [N, Cout, H, W]`; `tagged` declares one more primary,
/// 1 in the valuation and in no shape, so the search space is the same
/// but the spec's bytes (and every content hash) differ.
fn vision_space(tagged: bool) -> (Arc<VarTable>, OperatorSpec) {
    let mut vars = VarTable::new();
    let n = vars.declare("N", VarKind::Primary);
    let cin = vars.declare("Cin", VarKind::Primary);
    let cout = vars.declare("Cout", VarKind::Primary);
    let h = vars.declare("H", VarKind::Primary);
    let w = vars.declare("W", VarKind::Primary);
    let k = vars.declare("k", VarKind::Coefficient);
    let mut valuation = vec![(n, 4), (cin, 3), (cout, 4), (h, 8), (w, 8), (k, 2)];
    if tagged {
        valuation.push((vars.declare("tag", VarKind::Primary), 1));
    }
    vars.push_valuation(valuation);
    let dims = |c| TensorShape::new(vec![Size::var(n), Size::var(c), Size::var(h), Size::var(w)]);
    let spec = OperatorSpec::new(dims(cin), dims(cout));
    (vars.into_shared(), spec)
}

fn counter(name: &str) -> u64 {
    syno::telemetry::metrics::global().counter(name).get()
}

fn fills() -> u64 {
    counter("syno_search_synth_memo_fills_total")
}

/// What a session must reproduce: its discoveries in order, and each
/// candidate's score bits.
#[derive(Debug, PartialEq)]
struct Outcome {
    found: Vec<u64>,
    scored: BTreeSet<(u64, u64)>,
}

/// The request run in process, on `table` when given, else alone.
fn in_process(space: &(Arc<VarTable>, OperatorSpec), seed: u64, table: Option<&SynthMemo>) -> Outcome {
    let mut builder = SearchBuilder::new()
        .scenario("memo", &space.0, &space.1)
        .mcts(MctsConfig {
            iterations: ITERATIONS as usize,
            seed,
            ..MctsConfig::default()
        })
        .proxy(quick_proxy())
        .proxy_family(ProxyFamilyId::from_name("vision").expect("vision family"));
    if let Some(table) = table {
        builder = builder.synth_memo(table.clone());
    }
    let run = builder.start().expect("run starts");
    let mut outcome = Outcome {
        found: Vec::new(),
        scored: BTreeSet::new(),
    };
    for event in run.events() {
        match event {
            SearchEvent::CandidateFound { id, .. } => outcome.found.push(id),
            SearchEvent::ProxyScored { id, accuracy, .. } => {
                outcome.scored.insert((id, accuracy.to_bits()));
            }
            _ => {}
        }
    }
    run.join().expect("run completes");
    outcome
}

fn served(stream: &[SessionMessage]) -> Outcome {
    let mut outcome = Outcome {
        found: Vec::new(),
        scored: BTreeSet::new(),
    };
    for message in stream {
        match message {
            SessionMessage::Event(WireEvent::CandidateFound { id, .. }) => outcome.found.push(*id),
            SessionMessage::Event(WireEvent::ProxyScored { id, accuracy, .. }) => {
                outcome.scored.insert((*id, accuracy.to_bits()));
            }
            _ => {}
        }
    }
    assert!(
        matches!(stream.last(), Some(SessionMessage::Done { stopped, .. }) if stopped == "completed"),
        "the session completed: {:?}",
        stream.last()
    );
    outcome
}

fn request(space: &(Arc<VarTable>, OperatorSpec), seed: u64) -> SearchRequest {
    SearchRequest {
        label: "memo".to_owned(),
        spec: encode_spec(&space.0, &space.1),
        family: "vision".to_owned(),
        iterations: ITERATIONS,
        seed,
        progress_every: 0,
        max_steps: 0,
        train_steps: 0,
        train_batch: 0,
        eval_batches: 0,
        resume: false,
    }
}

#[test]
fn daemon_sessions_share_the_memo_and_move_no_bit() {
    syno::telemetry::set_enabled(true);
    let space = vision_space(false);
    let tagged = vision_space(true);

    // Alone, each run fills every path it reaches once.
    let before = fills();
    let alone_7 = in_process(&space, 7, None);
    let alone_8 = in_process(&space, 8, None);
    let own_fills = fills() - before;
    let before = fills();
    let alone_tagged = in_process(&tagged, 7, None);
    let tagged_fills = fills() - before;
    assert!(!alone_7.found.is_empty() && !alone_tagged.found.is_empty());

    // One shared table, one run after the other: the fills are the
    // distinct paths the two seeds reach, and the runs move no bit.
    let table = SynthMemo::new();
    let before = fills();
    assert_eq!(in_process(&space, 7, Some(&table)), alone_7);
    assert_eq!(in_process(&space, 8, Some(&table)), alone_8);
    let distinct_paths = fills() - before;
    assert!(distinct_paths < own_fills, "seeds 7 and 8 share some paths");
    drop(table);

    let config = ServeConfig {
        eval_workers: 2,
        max_sessions: 3,
        proxy: quick_proxy(),
        progress_every: 0,
        ..ServeConfig::default()
    };
    let daemon = Daemon::bind("127.0.0.1:0", None, config).expect("daemon binds");
    let (handle, daemon_thread) = daemon.spawn();
    let addr = handle.addr().to_owned();
    let clients: Vec<SynoClient> = ["tenant-a", "tenant-b", "tenant-c"]
        .iter()
        .map(|tenant| SynoClient::connect(&addr, tenant).expect("tenant connects"))
        .collect();

    let (fills_before, hits_before) = (fills(), counter("syno_search_synth_memo_hits_total"));
    // Admit all three before reading any stream, so they run together.
    let sessions: Vec<_> = clients
        .iter()
        .zip([7, 7, 8])
        .map(|(client, seed)| client.submit(&request(&space, seed)).expect("admitted"))
        .collect();
    let streams: Vec<Vec<SessionMessage>> = std::thread::scope(|scope| {
        let readers: Vec<_> = sessions
            .into_iter()
            .map(|session| scope.spawn(move || session.messages().collect()))
            .collect();
        readers.into_iter().map(|r| r.join().expect("stream")).collect()
    });
    assert_eq!(served(&streams[0]), alone_7, "tenant-a moved a bit");
    assert_eq!(served(&streams[1]), alone_7, "tenant-b moved a bit");
    assert_eq!(served(&streams[2]), alone_8, "tenant-c moved a bit");
    let daemon_fills = fills() - fills_before;
    let hits = counter("syno_search_synth_memo_hits_total") - hits_before;
    assert!(hits > 0, "sessions took lists from the memo");
    assert!(
        daemon_fills <= distinct_paths,
        "{daemon_fills} fills for {distinct_paths} distinct paths"
    );

    // Wait for the daemon to go idle, so the tagged session starts a new
    // generation: the untagged spec's memo survives this idle point.
    while clients[0].status().expect("status").active_sessions > 0 {
        std::thread::sleep(Duration::from_millis(5));
    }
    let before = fills();
    let session = clients[0]
        .submit(&request(&tagged, 7))
        .expect("tagged admitted");
    let stream: Vec<SessionMessage> = session.messages().collect();
    assert_eq!(served(&stream), alone_tagged, "the tagged session moved a bit");
    assert_eq!(
        fills() - before,
        tagged_fills,
        "the tagged spec filled every path it reached itself"
    );

    clients[0].shutdown().expect("daemon acknowledges shutdown");
    drop(clients);
    daemon_thread.join().expect("daemon exits");
    // The untagged spec went unused between the two idle points, so the
    // daemon dropped it at the second and holds the tagged one only.
    let specs = syno::telemetry::metrics::global().gauge("syno_search_synth_memo_specs");
    assert_eq!(specs.get(), 1, "the daemon holds the one spec in use");
    drop(handle);
}
