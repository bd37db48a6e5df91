//! One submission's life inside the daemon: admission control and run
//! construction, the pump that records its event stream, and the derive
//! requests answered against the sets its runs journal.

use super::{DaemonState, Session, LIVE};
use crate::event_loop::LoopMsg;
use crate::protocol::{wire_event, Frame, SearchRequest, WireCandidateSet};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use syno_core::codec::decode_spec;
use syno_search::{CancelToken, MctsConfig, ProxyFamilyId, SearchBuilder, SearchRun};
use syno_store::DeriveOp;

/// Answers a [`Frame::Derive`] against the shared repository: `"get"`
/// fetches a named [`CandidateSet`](syno_store::CandidateSet); `"union"`,
/// `"intersection"`, and `"difference"` derive (and journal) a new set
/// from two existing ones. Failures come back as connection-scoped
/// [`Frame::Error`]s — a bad set name must not kill the connection.
pub(crate) fn handle_derive(
    state: &DaemonState,
    op: &str,
    name: &str,
    left: &str,
    right: &str,
) -> Frame {
    let Some(store) = &state.store else {
        return Frame::Error {
            session: 0,
            message: "derive requested but the daemon has no store attached".to_owned(),
        };
    };
    let result = if op == "get" {
        store
            .candidate_set(name)
            .ok_or_else(|| format!("no candidate set named {name:?} in the repository"))
    } else {
        match DeriveOp::from_name(op) {
            Some(derive) => store.derive(derive, name, left, right).map_err(|e| e.to_string()),
            None => Err(format!(
                "unknown derive op {op:?} (want get, union, intersection, or difference)"
            )),
        }
    };
    match result {
        Ok(set) => Frame::DeriveReply {
            set: WireCandidateSet {
                name: set.name().to_owned(),
                lineage: set.lineage().to_owned(),
                hashes: set.hashes().to_vec(),
            },
        },
        Err(message) => Frame::Error {
            session: 0,
            message,
        },
    }
}

/// The per-session pump: appends the run's event stream to the session's
/// record (waking the event loop per frame), then ends the session with
/// [`DaemonState::finish`]. The run's final checkpoint is journaled before
/// its event channel closes, so `SearchDone` always trails the checkpoint —
/// the ordering clients rely on for resume. The pump never cancels the run
/// on client loss: sessions outlive sockets by design.
fn pump(state: &DaemonState, id: u64, session: &Session, run: SearchRun) {
    for event in run.events() {
        let event = wire_event(&event);
        session.push(Frame::Event { session: id, event });
        state.mailbox.post(LoopMsg::Activity(id));
    }
    let (stopped, steps, candidates) = match run.join() {
        Ok(report) => (
            report.stopped.name().to_owned(),
            report.steps,
            report.candidates.len() as u64,
        ),
        Err(error) => {
            session.push(Frame::Error {
                session: id,
                message: error.to_string(),
            });
            ("error".to_owned(), 0, 0)
        }
    };
    let done = Frame::SearchDone {
        session: id,
        stopped,
        steps,
        candidates,
    };
    state.finish(session, done, steps);
    state.mailbox.post(LoopMsg::Done(id));
}

/// Admission control + session construction: checks the caps and the
/// tenant step budget, builds the [`SearchBuilder`] bound to the shared
/// store, pool, coalescing table and feasible-children memo, starts the
/// run and its pump, and inserts the session into the table. Returns the
/// rejection reason otherwise.
pub(crate) fn admit(
    state: &Arc<DaemonState>,
    tenant: &str,
    request: &SearchRequest,
) -> Result<(u64, Arc<Session>), String> {
    if state.is_shutting_down() {
        return Err("daemon is shutting down".to_owned());
    }
    {
        let sessions = state.sessions.lock().expect("sessions lock");
        let live = sessions.values().filter(|session| session.phase() == LIVE);
        let (daemon_live, tenant_live) = live.fold((0, 0), |(all, own), session| {
            (all + 1, own + usize::from(session.tenant == tenant))
        });
        if daemon_live >= state.config.max_sessions {
            return Err(format!(
                "daemon session cap reached ({daemon_live} live, max {})",
                state.config.max_sessions
            ));
        }
        if tenant_live >= state.config.max_sessions_per_tenant {
            return Err(format!(
                "tenant '{tenant}' session cap reached ({tenant_live} live, max {})",
                state.config.max_sessions_per_tenant
            ));
        }
    }
    if state.config.tenant_max_steps > 0 {
        let used = state.tenant_steps_used(tenant);
        if used >= state.config.tenant_max_steps {
            return Err(format!(
                "tenant '{tenant}' step budget exhausted ({used} of {} used)",
                state.config.tenant_max_steps
            ));
        }
    }
    if request.resume && state.store.is_none() {
        return Err("resume requested but the daemon has no store attached".to_owned());
    }

    let (vars, spec) =
        decode_spec(&request.spec).map_err(|error| format!("spec did not decode: {error}"))?;

    // A request may lower the daemon's proxy settings, never raise them:
    // each one sizes buffers allocated before any candidate trains.
    let mut proxy = state.config.proxy;
    let train = &mut proxy.train;
    for (field, asked, value) in [
        ("train_steps", request.train_steps, &mut train.steps),
        ("train_batch", request.train_batch, &mut train.batch),
        ("eval_batches", request.eval_batches, &mut train.eval_batches),
    ] {
        let asked = asked as usize;
        if asked > *value {
            return Err(format!("{field} {asked} is above the daemon's {value}"));
        }
        if asked > 0 {
            *value = asked;
        }
    }
    let mut mcts = MctsConfig::default();
    if request.iterations > 0 {
        mcts.iterations = request.iterations as usize;
    }
    mcts.seed = request.seed;

    let cancel = CancelToken::new();
    let mut builder = SearchBuilder::new()
        .scenario(&request.label, &vars, &spec)
        .mcts(mcts)
        .proxy(proxy)
        .eval_pool(state.pool.clone())
        .cancel_token(cancel.clone())
        .coalesce_table(state.coalesce.clone())
        .synth_memo(state.synth_memo.clone())
        .progress_every(if request.progress_every > 0 {
            request.progress_every
        } else {
            state.config.progress_every
        });
    if !request.family.is_empty() {
        let family = ProxyFamilyId::from_name(&request.family)
            .ok_or_else(|| format!("unknown proxy family '{}'", request.family))?;
        builder = builder.proxy_family(family);
    }
    if let Some(store) = &state.store {
        builder = if request.resume {
            builder.resume_from(Arc::clone(store))
        } else {
            builder.store(Arc::clone(store))
        };
    }
    if request.max_steps > 0 {
        builder = builder.max_steps(request.max_steps);
    }

    let run = builder.start().map_err(|error| error.to_string())?;

    let session = Arc::new(Session {
        tenant: tenant.to_owned(),
        label: request.label.clone(),
        cancel,
        progress: Arc::clone(run.progress()),
        frames: Mutex::new(Vec::new()),
        phase: AtomicU8::new(LIVE),
        pump: Mutex::new(None),
    });
    // The pump takes the run only once the session is in the table, so a
    // failed spawn leaves the run here to cancel and join.
    let (hand_over, take_over) = mpsc::channel::<(u64, SearchRun)>();
    let spawned = {
        let (state, session) = (Arc::clone(state), Arc::clone(&session));
        thread::Builder::new()
            .name("syno-serve-pump".into())
            .spawn(move || {
                if let Ok((id, run)) = take_over.recv() {
                    pump(&state, id, &session, run);
                }
            })
    };
    let pump = match spawned {
        Ok(pump) => pump,
        Err(error) => {
            run.cancel();
            let _ = run.join();
            return Err(format!("cannot start the session pump: {error}"));
        }
    };
    *session.pump() = Some(pump);
    let id = {
        let mut sessions = state.sessions.lock().expect("sessions lock");
        // A shutdown that began after the check above cancelled only the
        // sessions already in the table.
        if state.is_shutting_down() {
            session.cancel.cancel();
        }
        let id = state.next_session.fetch_add(1, Ordering::SeqCst) + 1;
        sessions.insert(id, Arc::clone(&session));
        syno_telemetry::gauge!("syno_serve_session_logs").set(sessions.len() as i64);
        id
    };
    syno_telemetry::metrics::global()
        .counter(&syno_telemetry::metrics::labeled(
            "syno_serve_sessions_total",
            &[("tenant", tenant)],
        ))
        .inc();
    syno_telemetry::gauge!("syno_serve_active_sessions").add(1);
    // The pump holds the receiver until it gets the run.
    let _ = hand_over.send((id, run));
    Ok((id, session))
}
