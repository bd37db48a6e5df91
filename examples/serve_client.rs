//! Serving-layer quickstart: spawn an in-process `syno-serve` daemon over
//! a persistent store, submit a search as a tenant, stream its events
//! over the wire, survive a mid-run disconnect by reattaching to the
//! session, read the shared store's stats off a status frame, and shut
//! the daemon down gracefully.
//!
//! Run with: `cargo run --example serve_client` (twice, to watch the
//! second run served entirely from the warm store as `CacheHit` frames).

use std::sync::Arc;
use syno::core::codec::encode_spec;
use syno::core::size::Size;
use syno::core::spec::{OperatorSpec, TensorShape};
use syno::core::var::{VarKind, VarTable};
use syno::serve::{Daemon, WireEvent};
use syno::store::StoreBuilder;
use syno::{SearchRequest, ServeConfig, SessionMessage, SynoClient};

fn main() {
    // 0. Telemetry on: the daemon's metrics registry fills as sessions
    //    run, and `SynoClient::metrics()` dumps it over the wire.
    syno::telemetry::set_enabled(true);

    // 1. The operator spec a tenant wants searched: a conv-like
    //    [N, Cin, H, W] -> [N, Cout, H, W] space. On the wire it travels
    //    as `encode_spec` bytes — variable table included — so the daemon
    //    reconstructs it exactly.
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

    // 2. A daemon over one shared warm store. `127.0.0.1:0` picks a free
    //    port; a `unix:/path` spec would serve over a Unix socket instead.
    //    Every tenant's evaluations journal into this store, so tenants
    //    (and re-runs) deduplicate each other's proxy trainings.
    let store_dir = std::env::temp_dir().join("syno-serve-example-store");
    let store = Arc::new(
        StoreBuilder::new(&store_dir)
            .open()
            .expect("store opens"),
    );
    let daemon = Daemon::bind("127.0.0.1:0", Some(store), ServeConfig::default())
        .expect("daemon binds");
    let (handle, daemon_thread) = daemon.spawn();
    println!("daemon listening on {}", handle.addr());

    // 3. Connect as a tenant and submit a search. Zero-valued tuning
    //    fields mean "daemon default"; the proxy overrides here keep the
    //    example fast.
    let request = SearchRequest {
        label: "serve-example-conv".into(),
        spec: encode_spec(&vars, &spec),
        family: "vision".into(),
        iterations: 12,
        seed: 7,
        progress_every: 4,
        max_steps: 0,
        train_steps: 6,
        train_batch: 4,
        eval_batches: 1,
        resume: false,
    };
    let client = SynoClient::connect(handle.addr(), "example-tenant").expect("client connects");
    let session = client.submit(&request).expect("session admitted");
    println!("admitted as session {}", session.id());

    // 4. Stream the session's events. The iterator ends at the terminal
    //    `SearchDone` frame.
    for message in session.messages() {
        match message {
            SessionMessage::Event(WireEvent::ProxyScored { id, accuracy, .. }) => {
                println!("  proxy-scored {id:#018x}: accuracy {accuracy:.4}");
            }
            SessionMessage::Event(WireEvent::CacheHit { candidate, .. }) => {
                println!(
                    "  cache hit (warm store): accuracy {:.4}, no re-training",
                    candidate.accuracy
                );
            }
            SessionMessage::Event(WireEvent::LatencyTuned { candidate, .. }) => {
                println!(
                    "  latency-tuned: accuracy {:.4}, {:?} ms across devices",
                    candidate.accuracy, candidate.latencies
                );
            }
            SessionMessage::Event(_) => {}
            SessionMessage::Done {
                stopped,
                steps,
                candidates,
            } => {
                println!("search done ({stopped}): {steps} iterations, {candidates} candidates");
            }
            SessionMessage::Error(error) => {
                eprintln!("session failed: {error}");
            }
            SessionMessage::Lost { session, received } => {
                // Not reachable here (the connection stays open), but
                // this is the reconnect signal: attach(session, received)
                // on a fresh client replays the rest — see step 5.
                eprintln!("connection lost; attach({session}, {received}) to take over");
            }
        }
    }

    // 5. Reconnect and take over: a session id outlives its socket. Kick
    //    off a second run, read a few frames, then drop the connection
    //    mid-stream — the daemon detaches the socket but keeps the
    //    session running and its event log retained.
    let mut takeover = request.clone();
    takeover.label = "serve-example-takeover".into();
    let (session_id, consumed) = {
        let cut_client =
            SynoClient::connect(handle.addr(), "example-tenant").expect("client reconnects");
        let session = cut_client.submit(&takeover).expect("second session admitted");
        let mut consumed = 0u64;
        while consumed < 3 && session.recv().is_some() {
            consumed += 1;
        }
        println!(
            "dropping the socket after {consumed} messages; session {} runs on",
            session.id()
        );
        (session.id(), consumed)
    }; // the socket closes here — mid-run, on purpose

    //    A fresh connection of the same tenant attaches at the consumed
    //    count: the daemon replays every missed event bit-identically,
    //    then resumes live streaming to the terminal frame.
    let client = SynoClient::connect(handle.addr(), "example-tenant").expect("fresh connection");
    let resumed = client
        .attach(session_id, consumed)
        .expect("attach replays the missed events");
    let mut replayed = 0u64;
    for message in resumed.messages() {
        replayed += 1;
        if let SessionMessage::Done { stopped, .. } = message {
            println!("takeover finished ({stopped}) after {replayed} replayed/resumed messages");
        }
    }

    // 6. The status frame carries the shared store's stats — the same
    //    numbers `Store::stats()` reports in process — so a
    //    client can check the store is actually warm.
    let status = client.status().expect("status round-trips");
    if let Some(store) = &status.store {
        println!(
            "store: {} candidates, {} scores {:?}, cache-hit ratio {:.2}",
            store.candidates,
            store.scored,
            store.scores_by_family,
            store.cache_hit_ratio().unwrap_or(0.0)
        );
    }

    // 7. The live metrics dump (step 0): per-tenant session counters,
    //    search counters, frame codec timings — Prometheus exposition
    //    text, the same payload `syno-serve --metrics ADDR` prints.
    let dump = client.metrics().expect("metrics round-trip");
    for line in dump.lines().filter(|l| !l.starts_with('#')).take(6) {
        println!("metric: {line}");
    }

    // 8. Graceful shutdown: live sessions (none here) would be cancelled,
    //    checkpointed to the store, and answered before the daemon's
    //    terminal `ShuttingDown` frame.
    let checkpointed = client.shutdown().expect("daemon acknowledges shutdown");
    println!("daemon shut down ({checkpointed} sessions checkpointed mid-run)");
    daemon_thread.join().expect("daemon thread joins");
}
