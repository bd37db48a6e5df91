//! A daemon's memory is bounded by its recent sessions, not by every
//! session it ever ran: one storeless daemon serves 200 short sessions one
//! after the other, going idle after each. Finished sessions retire one
//! idle period after they end, and each session's pump is joined when it
//! ends, so neither the session table nor the process's mappings grow with
//! the session count. A retired session no longer attaches; the last one
//! still replays exactly what it streamed.
//!
//! This file is its own test binary on purpose: it reads a process-global
//! telemetry gauge and the process's own memory map, so no other test may
//! share the process.

use std::sync::Arc;

use syno::core::codec::encode_spec;
use syno::core::prelude::*;
use syno::serve::daemon::{Daemon, ServeConfig};
use syno::serve::{SearchRequest, ServeError, SessionMessage, SynoClient};

const SESSIONS: u64 = 200;
/// The session after which the map is first measured: every lazily
/// created buffer and thread-local exists by then.
const WARM: u64 = 20;

fn quick_proxy() -> syno::nn::ProxyConfig {
    syno::nn::ProxyConfig {
        train: syno::nn::TrainConfig {
            steps: 1,
            batch: 2,
            eval_batches: 1,
            lr: 0.2,
            ..syno::nn::TrainConfig::default()
        },
        ..syno::nn::ProxyConfig::default()
    }
}

/// `[N, Cin, H, W] -> [N, Cout, H, W]` at toy sizes.
fn vision_space() -> (Arc<VarTable>, OperatorSpec) {
    let mut vars = VarTable::new();
    let n = vars.declare("N", VarKind::Primary);
    let cin = vars.declare("Cin", VarKind::Primary);
    let cout = vars.declare("Cout", VarKind::Primary);
    let h = vars.declare("H", VarKind::Primary);
    let w = vars.declare("W", VarKind::Primary);
    let k = vars.declare("k", VarKind::Coefficient);
    vars.push_valuation(vec![(n, 2), (cin, 3), (cout, 4), (h, 4), (w, 4), (k, 2)]);
    let dims = |c| TensorShape::new(vec![Size::var(n), Size::var(c), Size::var(h), Size::var(w)]);
    let spec = OperatorSpec::new(dims(cin), dims(cout));
    (vars.into_shared(), spec)
}

/// Lines in this process's memory map: two per thread stack (stack and
/// guard page) that is still mapped. `None` off Linux.
fn mapped_regions() -> Option<usize> {
    let maps = std::fs::read_to_string("/proc/self/maps").ok()?;
    Some(maps.lines().count())
}

#[test]
fn sequential_sessions_keep_the_daemon_bounded() {
    syno::telemetry::set_enabled(true);
    let (vars, spec) = vision_space();
    let config = ServeConfig {
        eval_workers: 1,
        proxy: quick_proxy(),
        progress_every: 0,
        ..ServeConfig::default()
    };
    let daemon = Daemon::bind("127.0.0.1:0", None, config).expect("daemon binds");
    let (handle, daemon_thread) = daemon.spawn();
    let addr = handle.addr().to_owned();
    let client = SynoClient::connect(&addr, "steady").expect("client connects");

    let mut warm_regions = None;
    let mut last = (0, Vec::new());
    for ix in 1..=SESSIONS {
        let request = SearchRequest {
            label: format!("steady-{ix}"),
            spec: encode_spec(&vars, &spec),
            family: "vision".to_owned(),
            iterations: 2,
            seed: ix,
            progress_every: 0,
            max_steps: 0,
            train_steps: 0,
            train_batch: 0,
            eval_batches: 0,
            resume: false,
        };
        let session = client.submit(&request).expect("session admitted");
        let id = session.id();
        let messages: Vec<SessionMessage> = session.messages().collect();
        assert!(
            matches!(messages.last(), Some(SessionMessage::Done { .. })),
            "session {id} ends on its terminal frame"
        );
        // `SearchDone` is written in the same step that leaves the live
        // set, so the daemon is idle by the time the client reads it.
        let status = client.status().expect("status");
        assert_eq!(status.active_sessions, 0, "idle after session {id}");
        if ix == WARM {
            warm_regions = mapped_regions();
        }
        last = (id, messages);
    }

    let sessions_held = syno::telemetry::metrics::global().gauge("syno_serve_session_logs");
    assert!(
        sessions_held.get() <= 2,
        "the daemon holds {} sessions after {SESSIONS}",
        sessions_held.get()
    );
    if let (Some(warm), Some(now)) = (warm_regions, mapped_regions()) {
        assert!(
            now <= warm + 16,
            "memory map grew from {warm} to {now} lines between sessions {WARM} and {SESSIONS}"
        );
    }

    let observer = SynoClient::connect(&addr, "steady").expect("observer connects");
    match observer.attach(1, 0) {
        Err(ServeError::Daemon(message)) => {
            assert!(
                message.contains("unknown session"),
                "names the cause: {message}"
            )
        }
        Err(other) => panic!("expected an unknown-session error, got {other:?}"),
        Ok(_) => panic!("session 1 was retired, yet it attached"),
    }
    let (id, streamed) = last;
    let replay: Vec<SessionMessage> = observer
        .attach(id, 0)
        .expect("the last session attaches")
        .messages()
        .collect();
    assert_eq!(
        replay, streamed,
        "the last session replays what it streamed"
    );

    client.shutdown().expect("daemon acknowledges shutdown");
    drop(client);
    drop(observer);
    daemon_thread.join().expect("daemon exits");
    drop(handle);
}
