//! One submission's life inside the daemon: admission control and run
//! construction, the pump that retains its event stream, and the derive
//! requests answered against the sets its runs journal.

use super::{DaemonState, SessionEntry, SessionLog};
use crate::event_loop::LoopMsg;
use crate::protocol::{wire_event, Frame, SearchRequest, WireCandidateSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;
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
/// retained log (waking the event loop per frame), then the terminal
/// `SearchDone`. The run's final checkpoint is journaled before its event
/// channel closes, so `SearchDone` always trails the checkpoint — the
/// ordering clients rely on for resume. The pump never cancels the run on
/// client loss: sessions outlive sockets by design.
pub(crate) fn spawn_pump(
    state: Arc<DaemonState>,
    session: u64,
    run: SearchRun,
    log: Arc<SessionLog>,
) -> thread::JoinHandle<()> {
    thread::Builder::new()
        .name(format!("syno-serve-session-{session}"))
        .spawn(move || {
            for event in run.events() {
                let event = wire_event(&event);
                log.push(Frame::Event { session, event });
                state.mailbox.post(LoopMsg::Activity(session));
            }
            let (done, steps) = match run.join() {
                Ok(report) => (
                    Frame::SearchDone {
                        session,
                        stopped: report.stopped.name().to_owned(),
                        steps: report.steps,
                        candidates: report.candidates.len() as u64,
                    },
                    report.steps,
                ),
                Err(error) => {
                    log.push(Frame::Error {
                        session,
                        message: error.to_string(),
                    });
                    (
                        Frame::SearchDone {
                            session,
                            stopped: "error".to_owned(),
                            steps: 0,
                            candidates: 0,
                        },
                        0,
                    )
                }
            };
            log.push(done);
            log.done.store(true, Ordering::SeqCst);
            state.add_tenant_steps(&log.tenant, steps);
            let now_idle = {
                let mut sessions = state.sessions.lock().expect("sessions lock");
                sessions.remove(&session);
                sessions.is_empty()
            };
            if now_idle {
                // No session can still be racing a training: drop the
                // memoized outcomes so the next generation is served
                // `CacheHit`s from the store instead of the table.
                state.coalesce.clear();
                // Keep the feasible children of every spec in use since the
                // previous idle point: twin tenants finish together, so
                // clearing here would drop a spec between each pair.
                state.synth_memo.drop_unused();
            }
            syno_telemetry::gauge!("syno_serve_active_sessions").sub(1);
            if state.shutting_down.load(Ordering::SeqCst) && state.store.is_some() {
                state.checkpointed.fetch_add(1, Ordering::SeqCst);
            }
            state.mailbox.post(LoopMsg::Done(session));
        })
        .expect("spawn session pump")
}

/// Admission control + session construction: checks the caps and the
/// tenant step budget, builds the [`SearchBuilder`] bound to the shared
/// store, pool, coalescing table and feasible-children memo, and starts
/// the run. Returns the rejection reason otherwise.
pub(crate) fn admit(
    state: &Arc<DaemonState>,
    tenant: &str,
    request: &SearchRequest,
) -> Result<(u64, SearchRun), String> {
    if state.shutting_down.load(Ordering::SeqCst) {
        return Err("daemon is shutting down".to_owned());
    }
    {
        let sessions = state.sessions.lock().expect("sessions lock");
        if sessions.len() >= state.config.max_sessions {
            return Err(format!(
                "daemon session cap reached ({} live, max {})",
                sessions.len(),
                state.config.max_sessions
            ));
        }
        let tenant_live = sessions
            .values()
            .filter(|entry| entry.tenant == tenant)
            .count();
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

    let session = state.next_session.fetch_add(1, Ordering::SeqCst) + 1;
    state.total_admitted.fetch_add(1, Ordering::SeqCst);
    syno_telemetry::metrics::global()
        .counter(&syno_telemetry::metrics::labeled(
            "syno_serve_sessions_total",
            &[("tenant", tenant)],
        ))
        .inc();
    syno_telemetry::gauge!("syno_serve_active_sessions").add(1);
    state.sessions.lock().expect("sessions lock").insert(
        session,
        SessionEntry {
            tenant: tenant.to_owned(),
            cancel,
            progress: Arc::clone(run.progress()),
        },
    );
    Ok((session, run))
}
