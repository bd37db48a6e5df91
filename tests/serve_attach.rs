//! Session takeover end to end: a session id outlives its socket. A
//! client that loses its connection mid-run reconnects, `Attach`es at
//! the sequence number it had reached, and replays the rest of the
//! stream — and the assembled prefix + replay is bit-identical to an
//! uninterrupted run's stream. Also covers attach authorization and the
//! per-tenant step budget accumulating across sessions.

use std::sync::Arc;

use syno::core::codec::encode_spec;
use syno::core::prelude::*;
use syno::serve::daemon::{Daemon, ServeConfig};
use syno::serve::{SearchRequest, ServeError, SessionMessage, SynoClient};
use syno::store::StoreBuilder;

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

fn request(label: &str, vars: &VarTable, spec: &OperatorSpec, iterations: u32) -> SearchRequest {
    SearchRequest {
        label: label.to_owned(),
        spec: encode_spec(vars, spec),
        family: "vision".to_owned(),
        iterations,
        seed: 5,
        progress_every: 0,
        max_steps: 0,
        train_steps: 0,
        train_batch: 0,
        eval_batches: 0,
        resume: false,
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("syno-attach-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The takeover acceptance path, raced against an *uninterrupted*
/// client of the same session: an observer attaches at sequence 0 and
/// streams the whole run without interruption, while the submitting
/// connection is dropped mid-run (the daemon detaches the socket but
/// keeps the session running) and a fresh connection `Attach`es at the
/// consumed count. The cut client's prefix + replay must equal the
/// uninterrupted observer's stream bit for bit — accuracies included.
#[test]
fn mid_run_disconnect_then_attach_replays_the_stream_bit_identically() {
    let (vars, spec) = vision_space();
    let req = request("takeover", &vars, &spec, 14);

    let dir = temp_dir("takeover");
    let store = Arc::new(StoreBuilder::new(&dir).open().expect("store opens"));
    let daemon = Daemon::bind("127.0.0.1:0", Some(store), serve_config()).expect("daemon binds");
    let (handle, thread) = daemon.spawn();
    let addr = handle.addr().to_owned();

    // First connection: submit, consume a handful of messages, then drop
    // the socket with the session still running.
    const CUT: usize = 5;
    let mut assembled = Vec::new();
    let client1 = SynoClient::connect(&addr, "takeover-team").expect("first connection");
    let session1 = client1.submit(&req).expect("session admitted");
    let session_id = session1.id();

    // The uninterrupted client: a second connection of the same tenant,
    // attached from sequence 0, streaming the entire run live on its own
    // socket while the submitting connection comes and goes.
    let observer = SynoClient::connect(&addr, "takeover-team").expect("observer connects");
    let observer_session = observer
        .attach(session_id, 0)
        .expect("observer attaches from 0");

    for _ in 0..CUT {
        assembled.push(session1.recv().expect("message before the cut"));
    }
    drop(session1);
    drop(client1); // the daemon sees EOF and detaches — the session runs on

    // Reconnect as the same tenant: attach at the consumed count and
    // replay everything the first connection missed.
    let client = SynoClient::connect(&addr, "takeover-team").expect("reconnect");

    // Authorization first: a foreign tenant may not attach, nor may
    // anyone attach an unknown session.
    let intruder = SynoClient::connect(&addr, "other-team").expect("intruder connects");
    assert!(
        intruder.attach(session_id, 0).is_err(),
        "attach is tenant-scoped"
    );
    assert!(
        client.attach(session_id + 999, 0).is_err(),
        "unknown sessions do not attach"
    );

    let session = client
        .attach(session_id, assembled.len() as u64)
        .expect("owner reattaches");
    assert_eq!(session.id(), session_id, "attach resumes the same session id");
    assembled.extend(session.messages());

    let uninterrupted: Vec<SessionMessage> = observer_session.messages().collect();
    assert!(
        assembled.len() > CUT + 2,
        "the run streamed past the cut: {} messages",
        assembled.len()
    );
    assert_eq!(
        assembled, uninterrupted,
        "prefix + attach replay equals the uninterrupted client's stream bit for bit"
    );

    client.shutdown().expect("daemon acknowledges shutdown");
    drop(client);
    drop(observer);
    drop(intruder);
    thread.join().expect("daemon exits");
    drop(handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The per-tenant step budget accumulates across *sessions*, not
/// connections: once a tenant's completed runs spend the configured
/// step budget, new submissions reject with a typed "budget" reason —
/// while other tenants are unaffected.
#[test]
fn tenant_step_budget_accumulates_across_sessions() {
    let (vars, spec) = vision_space();
    let config = ServeConfig {
        tenant_max_steps: 5,
        ..serve_config()
    };
    let daemon = Daemon::bind("127.0.0.1:0", None, config).expect("daemon binds");
    let (handle, thread) = daemon.spawn();
    let addr = handle.addr().to_owned();

    // After a session's `Done`, the status charges its tenant exactly the
    // steps of the tenant's finished sessions: no live iterations are left
    // and none are counted twice.
    let run_to_done = |client: &SynoClient, label: &str, iterations: u32| {
        let session = client
            .submit(&request(label, &vars, &spec, iterations))
            .expect("session admitted");
        let done = session.messages().find_map(|message| match message {
            SessionMessage::Done { stopped, steps, .. } => Some((stopped, steps)),
            _ => None,
        });
        done.expect("terminal frame")
    };
    let tenant_steps = |client: &SynoClient, tenant: &str| {
        let status = client.status().expect("status");
        status
            .tenants
            .iter()
            .find(|(t, _)| t == tenant)
            .map_or(0, |(_, steps)| *steps)
    };

    // First session runs to completion and spends 8 steps — past the
    // 5-step budget.
    let metered = SynoClient::connect(&addr, "metered").expect("metered connects");
    let done = run_to_done(&metered, "budget", 8);
    assert_eq!(done.0, "completed");
    assert!(done.1 >= 5, "the run spent the budget: {} steps", done.1);
    assert_eq!(tenant_steps(&metered, "metered"), done.1);

    // The spend survives the session: a second submission rejects.
    match metered.submit(&request("budget-again", &vars, &spec, 8)) {
        Err(ServeError::Rejected(reason)) => {
            assert!(reason.contains("budget"), "names the budget: {reason}")
        }
        other => panic!("expected budget rejection, got {other:?}"),
    }
    // ... even over a brand-new connection.
    let reconnected = SynoClient::connect(&addr, "metered").expect("metered reconnects");
    match reconnected.submit(&request("budget-third", &vars, &spec, 8)) {
        Err(ServeError::Rejected(reason)) => {
            assert!(reason.contains("budget"), "names the budget: {reason}")
        }
        other => panic!("expected budget rejection, got {other:?}"),
    }

    // The budget is per tenant: a different tenant still runs, twice,
    // each `Done` charging its steps once.
    let fresh = SynoClient::connect(&addr, "fresh").expect("fresh connects");
    let first = run_to_done(&fresh, "fresh-run", 2);
    assert_eq!(first.0, "completed");
    assert_eq!(tenant_steps(&fresh, "fresh"), first.1);
    let second = run_to_done(&fresh, "fresh-again", 2);
    assert_eq!(second.0, "completed");
    assert_eq!(tenant_steps(&fresh, "fresh"), first.1 + second.1);
    assert_eq!(tenant_steps(&fresh, "metered"), done.1);

    fresh.shutdown().expect("daemon acknowledges shutdown");
    thread.join().expect("daemon exits");
}
