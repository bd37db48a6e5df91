//! The serving layer end to end: an in-process `syno-serve` daemon
//! multiplexing two concurrent tenants — a vision search and a
//! sequence/LM search — over ONE shared warm store and ONE shared eval
//! pool, checked against serial in-process baselines for the
//! determinism contract, warm-pass dedup, status parity, admission
//! control, and shutdown → checkpoint → resume.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use syno::core::codec::encode_spec;
use syno::core::prelude::*;
use syno::search::{MctsConfig, SearchBuilder, SearchEvent};
use syno::serve::daemon::{Daemon, ServeConfig};
use syno::serve::{SearchRequest, ServeError, SessionMessage, SynoClient, WireEvent};
use syno::{StoreBuilder, StoreStats};

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

fn serve_config() -> ServeConfig {
    ServeConfig {
        eval_workers: 2,
        proxy: quick_proxy(),
        progress_every: 5,
        ..ServeConfig::default()
    }
}

/// `[N, Cin, H, W] -> [N, Cout, H, W]` conv-shaped vision scenario.
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

/// `[B, T, C] -> [B, T, C]` LM-shaped sequence scenario.
fn lm_space() -> (Arc<VarTable>, OperatorSpec) {
    let mut vars = VarTable::new();
    let b = vars.declare("B", VarKind::Primary);
    let t = vars.declare("T", VarKind::Primary);
    let c = vars.declare("C", VarKind::Primary);
    vars.push_valuation(vec![(b, 4), (t, 4), (c, 8)]);
    let vars = vars.into_shared();
    let shape = TensorShape::new(vec![Size::var(b), Size::var(t), Size::var(c)]);
    let spec = OperatorSpec::new(shape.clone(), shape);
    (vars, spec)
}

fn request(
    label: &str,
    vars: &VarTable,
    spec: &OperatorSpec,
    family: &str,
    iterations: u32,
    seed: u64,
) -> SearchRequest {
    SearchRequest {
        label: label.to_owned(),
        spec: encode_spec(vars, spec),
        family: family.to_owned(),
        iterations,
        seed,
        progress_every: 0,
        max_steps: 0,
        train_steps: 0,
        train_batch: 0,
        eval_batches: 0,
        resume: false,
    }
}

/// Per-candidate evaluation trace: the subsequence of meaningful event
/// steps each candidate id went through, with exact accuracy bits.
type Trace = BTreeMap<u64, Vec<(String, u64)>>;

fn serial_run(
    label: &str,
    space: &(Arc<VarTable>, OperatorSpec),
    iterations: usize,
    seed: u64,
) -> (Trace, BTreeSet<(u64, u64)>) {
    let run = SearchBuilder::new()
        .scenario(label, &space.0, &space.1)
        .mcts(MctsConfig {
            iterations,
            seed,
            ..MctsConfig::default()
        })
        .proxy(quick_proxy())
        .progress_every(5)
        .start()
        .expect("serial baseline starts");
    let mut trace = Trace::new();
    for event in run.events() {
        match event {
            SearchEvent::CandidateFound { id, .. } => {
                trace.entry(id).or_default().push(("found".into(), 0));
            }
            SearchEvent::ProxyScored { id, accuracy, .. } => {
                trace
                    .entry(id)
                    .or_default()
                    .push(("scored".into(), accuracy.to_bits()));
            }
            SearchEvent::CacheHit { id, candidate, .. } => {
                trace
                    .entry(id)
                    .or_default()
                    .push(("hit".into(), candidate.accuracy.to_bits()));
            }
            SearchEvent::LatencyTuned { id, candidate, .. } => {
                trace
                    .entry(id)
                    .or_default()
                    .push(("tuned".into(), candidate.accuracy.to_bits()));
            }
            _ => {}
        }
    }
    let report = run.join().expect("serial baseline finishes");
    let set = report
        .candidates
        .iter()
        .map(|c| (c.graph.content_hash(), c.accuracy.to_bits()))
        .collect();
    (trace, set)
}

/// Runs one session through the daemon and collects its wire trace.
fn daemon_run(client: &SynoClient, request: &SearchRequest) -> (Trace, String, u64, usize) {
    let session = client.submit(request).expect("session admitted");
    let mut trace = Trace::new();
    let mut stopped = String::new();
    let mut steps = 0;
    let mut scored_frames = 0usize;
    for message in session.messages() {
        match message {
            SessionMessage::Event(WireEvent::CandidateFound { id, .. }) => {
                trace.entry(id).or_default().push(("found".into(), 0));
            }
            SessionMessage::Event(WireEvent::ProxyScored { id, accuracy, .. }) => {
                scored_frames += 1;
                trace
                    .entry(id)
                    .or_default()
                    .push(("scored".into(), accuracy.to_bits()));
            }
            SessionMessage::Event(WireEvent::CacheHit { id, candidate, .. }) => {
                trace
                    .entry(id)
                    .or_default()
                    .push(("hit".into(), candidate.accuracy.to_bits()));
            }
            SessionMessage::Event(WireEvent::LatencyTuned { id, candidate, .. }) => {
                trace
                    .entry(id)
                    .or_default()
                    .push(("tuned".into(), candidate.accuracy.to_bits()));
            }
            SessionMessage::Done {
                stopped: s, steps: n, ..
            } => {
                stopped = s;
                steps = n;
            }
            _ => {}
        }
    }
    (trace, stopped, steps, scored_frames)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("syno-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The tentpole acceptance path: two tenants with different proxy
/// families complete deterministic searches through one daemon against
/// one shared store; each tenant's per-candidate event subsequence
/// matches a serial in-process run, the warm second pass re-trains
/// nothing, and the `Status` frame mirrors the store's statistics.
#[test]
fn two_tenants_complete_identical_searches_through_one_daemon() {
    let vision = vision_space();
    let lm = lm_space();
    let (vision_trace, vision_set) = serial_run("conv", &vision, 14, 5);
    let (lm_trace, lm_set) = serial_run("lm", &lm, 12, 9);
    assert!(!vision_set.is_empty() && !lm_set.is_empty());

    let dir = temp_dir("tenants");
    let store = Arc::new(StoreBuilder::new(&dir).open().expect("store opens"));
    let daemon = Daemon::bind("127.0.0.1:0", Some(store), serve_config()).expect("daemon binds");
    let (handle, daemon_thread) = daemon.spawn();
    let addr = handle.addr().to_owned();

    let vision_req = request("conv", &vision.0, &vision.1, "vision", 14, 5);
    let lm_req = request("lm", &lm.0, &lm.1, "sequence", 12, 9);

    // Cold pass: both tenants concurrently, one shared store.
    let (cold_vision, cold_lm) = std::thread::scope(|scope| {
        let vision_req = &vision_req;
        let lm_req = &lm_req;
        let addr_a = addr.clone();
        let addr_b = addr.clone();
        let a = scope.spawn(move || {
            let client = SynoClient::connect(&addr_a, "vision-team").expect("tenant connects");
            daemon_run(&client, vision_req)
        });
        let b = scope.spawn(move || {
            let client = SynoClient::connect(&addr_b, "lm-team").expect("tenant connects");
            daemon_run(&client, lm_req)
        });
        (a.join().expect("vision tenant"), b.join().expect("lm tenant"))
    });

    assert_eq!(cold_vision.1, "completed");
    assert_eq!(cold_lm.1, "completed");
    // The determinism contract crosses the wire: each tenant's
    // per-candidate event subsequence matches its serial in-process run.
    assert_eq!(cold_vision.0, vision_trace, "vision trace matches serial");
    assert_eq!(cold_lm.0, lm_trace, "lm trace matches serial");

    // Warm pass: the shared store already holds every evaluation, so both
    // tenants replay entirely from cache — zero duplicate proxy trainings.
    let observer = SynoClient::connect(&addr, "observer").expect("observer connects");
    let (warm_vision, warm_stop, _, warm_scored) = daemon_run(&observer, &vision_req);
    assert_eq!(warm_stop, "completed");
    assert_eq!(warm_scored, 0, "warm pass must not re-train any candidate");
    let warm_ids: BTreeSet<u64> = warm_vision.keys().copied().collect();
    let cold_ids: BTreeSet<u64> = cold_vision.0.keys().copied().collect();
    assert_eq!(warm_ids, cold_ids, "warm pass rediscovers the same set");
    for steps in warm_vision.values() {
        assert!(
            steps.iter().all(|(kind, _)| kind != "scored" && kind != "tuned"),
            "every warm evaluation is a cache hit: {steps:?}"
        );
    }
    let (_, warm_lm_stop, _, warm_lm_scored) = daemon_run(&observer, &lm_req);
    assert_eq!(warm_lm_stop, "completed");
    assert_eq!(warm_lm_scored, 0);

    // Status parity: the daemon's reply carries the same per-family score
    // counts and hit ratio the store itself reports.
    let status = observer.status().expect("status reply");
    assert_eq!(status.total_admitted, 4, "2 cold + 2 warm sessions");
    assert!(!status.shutting_down);
    let wire_stats = status.store.as_ref().expect("store section present");
    assert!(wire_stats.candidates > 0 && wire_stats.scored > 0);
    for family in ["vision", "sequence"] {
        let count = wire_stats
            .scores_by_family
            .iter()
            .find(|(name, _)| name == family)
            .map(|(_, n)| *n)
            .unwrap_or(0);
        assert!(count > 0, "family '{family}' has scores: {wire_stats:?}");
    }
    let ratio = wire_stats.cache_hit_ratio().expect("warm pass probed");
    assert!(ratio > 0.0, "warm pass produced hits: {ratio}");

    // Graceful shutdown from the wire; no sessions were live, so none
    // needed a drain checkpoint.
    let checkpointed = observer.shutdown().expect("daemon acknowledges shutdown");
    assert_eq!(checkpointed, 0);
    drop(observer);
    daemon_thread.join().expect("daemon thread exits");
    drop(handle);

    // The status frame's persistent counters must equal a fresh reopen of
    // the journal (`Store::stats()`, the numbers an in-process session reads
    // from its store).
    let reopened = StoreBuilder::new(&dir).open().expect("store reopens");
    let stats: StoreStats = reopened.stats();
    assert_eq!(wire_stats.candidates, stats.candidates);
    assert_eq!(wire_stats.scored, stats.scored);
    assert_eq!(wire_stats.scores_by_family, stats.scores_by_family);
    assert_eq!(wire_stats.latency_measurements, stats.latency_measurements);
    assert_eq!(wire_stats.checkpoints, stats.checkpoints);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The SIGINT acceptance path (the binary's handler calls exactly
/// `DaemonHandle::shutdown`): shutdown mid-run drains in-flight
/// evaluations, checkpoints both live sessions to the store, answers
/// every pending client with terminal frames, and `resume_from` replays
/// each session to the identical candidate set an uninterrupted run
/// discovers.
#[test]
fn shutdown_mid_run_checkpoints_sessions_for_identical_resume() {
    let vision = vision_space();
    let lm = lm_space();
    let (_, vision_set) = serial_run("conv-r", &vision, 20, 11);
    let (_, lm_set) = serial_run("lm-r", &lm, 16, 13);

    let dir = temp_dir("resume");
    let store = Arc::new(StoreBuilder::new(&dir).open().expect("store opens"));
    let daemon = Daemon::bind("127.0.0.1:0", Some(store), serve_config()).expect("daemon binds");
    let (handle, daemon_thread) = daemon.spawn();
    let addr = handle.addr().to_owned();

    let vision_req = request("conv-r", &vision.0, &vision.1, "vision", 20, 11);
    let lm_req = request("lm-r", &lm.0, &lm.1, "sequence", 16, 13);

    // Neither tenant may trigger the shutdown before both sessions are
    // admitted: a draining daemon rejects new submissions.
    let both_admitted = std::sync::Barrier::new(2);
    let (vision_out, lm_out) = std::thread::scope(|scope| {
        let (handle, both_admitted) = (&handle, &both_admitted);
        let pump = |req: &SearchRequest, addr: String, tenant: &'static str| {
            let req = req.clone();
            scope.spawn(move || {
                let client = SynoClient::connect(&addr, tenant).expect("tenant connects");
                let session = client.submit(&req).expect("session admitted");
                both_admitted.wait();
                let mut stopped = String::new();
                let mut tuned = 0usize;
                for message in session.messages() {
                    match message {
                        SessionMessage::Event(WireEvent::LatencyTuned { .. }) => {
                            tuned += 1;
                            // Mid-run: the first finished evaluation
                            // triggers the daemon-wide drain.
                            if tuned == 1 {
                                handle.shutdown();
                            }
                        }
                        SessionMessage::Done { stopped: s, .. } => stopped = s,
                        _ => {}
                    }
                }
                let checkpointed = client.wait_shutdown().expect("terminal frame");
                (stopped, checkpointed)
            })
        };
        let a = pump(&vision_req, addr.clone(), "vision-team");
        let b = pump(&lm_req, addr.clone(), "lm-team");
        (a.join().expect("vision tenant"), b.join().expect("lm tenant"))
    });

    // Both clients got their terminal frames; every session that drained
    // during shutdown was checkpointed first.
    for (stopped, checkpointed) in [&vision_out, &lm_out] {
        assert!(
            stopped == "cancelled" || stopped == "completed",
            "terminal SearchDone arrived: {stopped}"
        );
        assert!(
            *checkpointed >= 1,
            "own session checkpointed before ShuttingDown: {checkpointed}"
        );
    }
    // One drain, one count: both tenants read the same number, and it
    // covers at least every session the drain cancelled.
    assert_eq!(vision_out.1, lm_out.1, "both tenants read one checkpointed count");
    let cancelled = [&vision_out, &lm_out]
        .iter()
        .filter(|(stopped, _)| stopped == "cancelled")
        .count() as u64;
    assert!(
        vision_out.1 >= cancelled,
        "checkpointed {} covers the {cancelled} cancelled sessions",
        vision_out.1
    );
    daemon_thread.join().expect("daemon drains and exits");
    drop(handle);

    // Resume each interrupted session in process from the daemon's store:
    // the replay must land on the identical candidate set an
    // uninterrupted run discovers.
    let store = Arc::new(StoreBuilder::new(&dir).open().expect("store reopens"));
    for (label, space, iterations, seed, expected) in [
        ("conv-r", &vision, 20usize, 11u64, &vision_set),
        ("lm-r", &lm, 16, 13, &lm_set),
    ] {
        let report = SearchBuilder::new()
            .scenario(label, &space.0, &space.1)
            .mcts(MctsConfig {
                iterations,
                seed,
                ..MctsConfig::default()
            })
            .proxy(quick_proxy())
            .progress_every(5)
            .resume_from(Arc::clone(&store))
            .run()
            .expect("resume finishes");
        let resumed: BTreeSet<(u64, u64)> = report
            .candidates
            .iter()
            .map(|c| (c.graph.content_hash(), c.accuracy.to_bits()))
            .collect();
        assert_eq!(
            &resumed, expected,
            "{label}: resume replays the interrupted session to the \
             uninterrupted candidate set"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Admission control: per-tenant and daemon-wide caps reject with typed
/// reasons, bad requests never wedge the daemon, and a wire `Cancel`
/// lands as a cooperative cancellation.
#[test]
fn admission_caps_reject_and_cancel_is_cooperative() {
    let vision = vision_space();
    let config = ServeConfig {
        eval_workers: 1,
        max_sessions: 2,
        max_sessions_per_tenant: 1,
        proxy: quick_proxy(),
        progress_every: 5,
        ..ServeConfig::default()
    };
    let daemon = Daemon::bind("127.0.0.1:0", None, config).expect("daemon binds");
    let (handle, daemon_thread) = daemon.spawn();
    let addr = handle.addr().to_owned();

    let long = request("cap", &vision.0, &vision.1, "vision", 500, 21);
    let t1 = SynoClient::connect(&addr, "tenant-1").expect("t1 connects");

    // Malformed requests reject with typed reasons and never wedge the
    // connection (checked before the caps fill so the cap rejection does
    // not mask them — admission control runs first by design).
    match t1.submit(&request("bad", &vision.0, &vision.1, "graph", 10, 1)) {
        Err(ServeError::Rejected(reason)) => {
            assert!(reason.contains("family"), "names the family: {reason}")
        }
        other => panic!("expected family rejection, got {other:?}"),
    }
    let mut resume_req = request("bad", &vision.0, &vision.1, "vision", 10, 1);
    resume_req.resume = true;
    match t1.submit(&resume_req) {
        Err(ServeError::Rejected(reason)) => {
            assert!(reason.contains("store"), "names the missing store: {reason}")
        }
        other => panic!("expected resume rejection, got {other:?}"),
    }

    let s1 = t1.submit(&long).expect("first session admitted");

    // Same tenant, second live session: per-tenant cap.
    match t1.submit(&long) {
        Err(ServeError::Rejected(reason)) => {
            assert!(reason.contains("tenant"), "names the tenant cap: {reason}")
        }
        other => panic!("expected tenant-cap rejection, got {other:?}"),
    }

    // Second tenant fits; a third session then hits the daemon-wide cap.
    let t2 = SynoClient::connect(&addr, "tenant-2").expect("t2 connects");
    let s2 = t2.submit(&long).expect("second tenant admitted");
    let t3 = SynoClient::connect(&addr, "tenant-3").expect("t3 connects");
    match t3.submit(&long) {
        Err(ServeError::Rejected(reason)) => {
            assert!(reason.contains("cap"), "names the session cap: {reason}")
        }
        other => panic!("expected daemon-cap rejection, got {other:?}"),
    }

    // Wire cancellation winds both long sessions down cooperatively.
    s1.cancel().expect("cancel frame sent");
    s2.cancel().expect("cancel frame sent");
    for session in [&s1, &s2] {
        let done = session
            .messages()
            .find_map(|message| match message {
                SessionMessage::Done { stopped, .. } => Some(stopped),
                _ => None,
            })
            .expect("terminal frame");
        assert_eq!(done, "cancelled");
    }

    t3.shutdown().expect("daemon acknowledges shutdown");
    daemon_thread.join().expect("daemon exits");
}

/// Two threads share one client and submit at once, asking for different
/// iteration counts. Each must stream its own session: a reply taken by the
/// other thread shows up as the other request's `steps`.
#[test]
fn threads_sharing_a_client_each_get_their_own_session() {
    let vision = vision_space();
    let daemon = Daemon::bind("127.0.0.1:0", None, serve_config()).expect("daemon binds");
    let (handle, daemon_thread) = daemon.spawn();
    let client = SynoClient::connect(handle.addr(), "shared").expect("client connects");
    let barrier = std::sync::Barrier::new(2);
    for round in 0..20u64 {
        std::thread::scope(|scope| {
            for iterations in [3u32, 4] {
                let (client, barrier, vision) = (&client, &barrier, &vision);
                scope.spawn(move || {
                    let req = request("shared", &vision.0, &vision.1, "vision", iterations, round);
                    barrier.wait();
                    let (_, stopped, steps, _) = daemon_run(client, &req);
                    assert_eq!(
                        (stopped.as_str(), steps),
                        ("completed", u64::from(iterations)),
                        "round {round}: the session streamed another thread's run"
                    );
                });
            }
        });
    }
    client.shutdown().expect("daemon acknowledges shutdown");
    daemon_thread.join().expect("daemon exits");
}

/// A spec whose variable count claims 4 Gi entries in 8 bytes reaches
/// `decode_spec` on the daemon's event-loop thread. It must come back as a
/// typed rejection — believed, the count aborts the process on a 16 GB
/// reservation — and the daemon must go on serving: the same connection gets
/// its `Status`, and a normal session then runs to completion.
#[test]
fn hostile_spec_count_is_rejected_and_the_daemon_keeps_serving() {
    use syno::serve::protocol::PROTOCOL_VERSION;
    use syno::serve::Frame;
    let daemon = Daemon::bind("127.0.0.1:0", None, serve_config()).expect("daemon binds");
    let (handle, daemon_thread) = daemon.spawn();
    let addr = handle.addr().to_owned();

    let mut raw = std::net::TcpStream::connect(&addr).expect("raw client connects");
    let mut exchange = |frame: Frame| {
        frame.write_to(&mut raw).expect("frame sent");
        Frame::read_from(&mut raw).expect("reply decodes").expect("a reply")
    };
    let hello = exchange(Frame::Hello {
        protocol: PROTOCOL_VERSION,
        tenant: "hostile".to_owned(),
    });
    assert!(matches!(hello, Frame::HelloAck { .. }), "{hello:?}");
    let vision = vision_space();
    let mut hostile = request("hostile", &vision.0, &vision.1, "", 10, 1);
    hostile.spec = [syno::core::codec::FORMAT_VERSION, u32::MAX]
        .iter()
        .flat_map(|word| word.to_le_bytes())
        .collect();
    match exchange(Frame::SubmitSearch(hostile)) {
        Frame::Rejected { reason } => {
            assert!(reason.contains("spec did not decode"), "{reason}")
        }
        other => panic!("expected a rejection, got {other:?}"),
    }
    match exchange(Frame::Status) {
        Frame::StatusReply(status) => assert_eq!(status.total_admitted, 0),
        other => panic!("expected a status reply, got {other:?}"),
    }

    let client = SynoClient::connect(&addr, "tenant").expect("client connects");
    let (trace, stopped, steps, _) =
        daemon_run(&client, &request("normal", &vision.0, &vision.1, "vision", 12, 5));
    assert_eq!((stopped.as_str(), steps), ("completed", 12));
    assert!(!trace.is_empty(), "the normal session found candidates");
    client.shutdown().expect("daemon acknowledges shutdown");
    daemon_thread.join().expect("daemon exits");
}

/// A request may lower the daemon's proxy settings, never raise them.
/// Believed, `train_steps = u32::MAX` or `eval_batches = u32::MAX` sizes one
/// task-batch slot per step before anything trains and aborts the whole
/// process on that allocation. Each comes back `Rejected`, naming its field,
/// as does a batch one above the daemon's; the next ordinary submit on the
/// same connection, which lowers `train_steps`, is admitted and completes.
#[test]
fn proxy_settings_above_the_daemons_are_rejected() {
    let vision = vision_space();
    let daemon = Daemon::bind("127.0.0.1:0", None, serve_config()).expect("daemon binds");
    let (handle, daemon_thread) = daemon.spawn();
    let client = SynoClient::connect(handle.addr(), "hostile").expect("client connects");
    let mut ordinary = request("proxy", &vision.0, &vision.1, "vision", 6, 3);
    let batch_above = quick_proxy().train.batch as u32 + 1;
    let hostile = [
        ("train_steps", SearchRequest { train_steps: u32::MAX, ..ordinary.clone() }),
        ("eval_batches", SearchRequest { eval_batches: u32::MAX, ..ordinary.clone() }),
        ("train_batch", SearchRequest { train_batch: batch_above, ..ordinary.clone() }),
    ];
    for (field, hostile) in hostile {
        match client.submit(&hostile) {
            Err(ServeError::Rejected(reason)) => assert!(reason.contains(field), "{reason}"),
            other => panic!("expected a {field} rejection, got {other:?}"),
        }
    }
    ordinary.train_steps = 2;
    let (_, stopped, steps, _) = daemon_run(&client, &ordinary);
    assert_eq!((stopped.as_str(), steps), ("completed", 6));
    client.shutdown().expect("daemon acknowledges shutdown");
    daemon_thread.join().expect("daemon exits");
}
