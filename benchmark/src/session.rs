//! One search session as its user sees it — started in process through
//! `SearchBuilder` or submitted to a daemon through `SynoClient` — reduced
//! to the counts and times every workload reports.

use crate::seed::fnv64;
use crate::specs::Spec;
use std::sync::Arc;
use std::time::Instant;
use syno::core::codec::{decode_graph, encode_spec};
use syno::core::graph::PGraph;
use syno::core::synth::SynthConfig;
use syno::nn::ProxyConfig;
use syno::search::MctsConfig;
use syno::serve::{WireCandidate, WireEvent};
use syno::{SearchBuilder, SearchEvent, SearchRequest, SessionMessage, Store, SynoClient};

/// What one session delivered and what it cost.
#[derive(Clone, Debug, Default)]
pub struct Session {
    /// Start (or the caller's earlier clock) to the end of the run.
    pub wall_s: f64,
    /// Same clock to the first fully evaluated candidate, if any arrived.
    pub ttfc_s: Option<f64>,
    /// MCTS iterations the run reported.
    pub iterations: u64,
    pub found: u64,
    pub skipped: u64,
    pub cache_hits: u64,
    /// Candidate ids that streamed a `ProxyScored` event.
    pub trained: Vec<u64>,
    /// `(content_hash, accuracy bits)` of every delivered candidate, sorted.
    pub scored: Vec<(u64, u64)>,
    /// Delivered graphs, kept only when the caller asked for them.
    pub graphs: Vec<PGraph>,
    /// The session was refused, errored, lost its connection or panicked.
    pub failed: bool,
}

impl Session {
    /// A session that never ran: refused, unreachable, or its thread died.
    pub fn failed() -> Session {
        Session {
            failed: true,
            ..Session::default()
        }
    }

    /// Fully evaluated candidates delivered (`LatencyTuned` + `CacheHit`).
    pub fn delivered(&self) -> u64 {
        self.scored.len() as u64
    }

    fn deliver(&mut self, clock: Instant, id: u64, accuracy: f64, graph: Option<PGraph>) {
        self.ttfc_s.get_or_insert(clock.elapsed().as_secs_f64());
        self.scored.push((id, accuracy.to_bits()));
        self.graphs.extend(graph);
    }

    /// A wire candidate's graph is decoded only when the caller keeps it;
    /// bytes that do not decode fail the session.
    fn deliver_wire(&mut self, clock: Instant, id: u64, candidate: &WireCandidate, keep: bool) {
        let graph = keep.then(|| decode_graph(&candidate.graph));
        self.failed |= matches!(graph, Some(Err(_)));
        self.deliver(clock, id, candidate.accuracy, graph.and_then(Result::ok));
    }

    fn finish(mut self, clock: Instant) -> Session {
        self.wall_s = clock.elapsed().as_secs_f64();
        self.scored.sort_unstable();
        self
    }
}

/// Digest of the sessions' delivered sets, in session order.
pub fn digest<'a>(sessions: impl IntoIterator<Item = &'a Session>) -> u64 {
    fnv64(sessions.into_iter().flat_map(|s| {
        std::iter::once(s.scored.len() as u64).chain(s.scored.iter().flat_map(|&(h, a)| [h, a]))
    }))
}

/// An in-process search: the generated spec and configuration only.
pub struct SearchJob<'a> {
    pub label: &'a str,
    pub spec: &'a Spec,
    pub iterations: usize,
    pub seed: u64,
    pub proxy: ProxyConfig,
    pub eval_workers: usize,
    pub store: Option<Arc<Store>>,
    /// The FLOPs budget of §7.2: synthesis rejects operators whose naive
    /// FLOPs exceed it. `None` searches the unbounded space.
    pub max_flops: Option<u128>,
}

/// Runs `job` to completion. `clock` is when the user's wait began — the
/// `start()` call unless the caller already paid for something (a store
/// open) that belongs to the same wait.
pub fn run_search(job: &SearchJob<'_>, keep_graphs: bool, clock: Option<Instant>) -> Session {
    let clock = clock.unwrap_or_else(Instant::now);
    let mut session = Session::default();
    let mut builder = SearchBuilder::new()
        .scenario(job.label, &job.spec.vars, &job.spec.spec)
        .mcts(MctsConfig {
            iterations: job.iterations,
            seed: job.seed,
            ..MctsConfig::default()
        })
        .proxy(job.proxy)
        .eval_workers(job.eval_workers);
    if let Some(store) = &job.store {
        builder = builder.store(Arc::clone(store));
    }
    if job.max_flops.is_some() {
        // What `SearchBuilder` synthesizes with by default, plus the budget.
        builder = builder.synth(SynthConfig {
            max_flops: job.max_flops,
            ..SynthConfig::auto(&job.spec.vars, 4)
        });
    }
    let run = match builder.start() {
        Ok(run) => run,
        Err(_) => return Session::failed().finish(clock),
    };
    for event in run.events() {
        match event {
            SearchEvent::CandidateFound { .. } => session.found += 1,
            SearchEvent::CandidateSkipped { .. } => session.skipped += 1,
            SearchEvent::ProxyScored { id, .. } => session.trained.push(id),
            SearchEvent::CacheHit { id, candidate, .. } => {
                session.cache_hits += 1;
                session.deliver(
                    clock,
                    id,
                    candidate.accuracy,
                    keep_graphs.then_some(candidate.graph),
                );
            }
            SearchEvent::LatencyTuned { id, candidate, .. } => {
                session.deliver(
                    clock,
                    id,
                    candidate.accuracy,
                    keep_graphs.then_some(candidate.graph),
                );
            }
            _ => {}
        }
    }
    match run.join() {
        Ok(report) => session.iterations = report.steps,
        Err(_) => session.failed = true,
    }
    session.finish(clock)
}

/// A daemon submission for `spec`; zero-valued fields keep daemon defaults.
pub fn request(
    label: &str,
    spec: &Spec,
    iterations: u32,
    seed: u64,
    train_steps: u32,
) -> SearchRequest {
    SearchRequest {
        label: label.to_owned(),
        spec: encode_spec(&spec.vars, &spec.spec),
        family: spec.family.to_owned(),
        iterations,
        seed,
        progress_every: 0,
        max_steps: 0,
        train_steps,
        train_batch: 4,
        eval_batches: 1,
        resume: false,
    }
}

/// Submits `request` and consumes the session's stream to its `Done`.
pub fn run_served(client: &SynoClient, request: &SearchRequest, keep_graphs: bool) -> Session {
    let clock = Instant::now();
    let mut session = Session::default();
    let stream = match client.submit(request) {
        Ok(stream) => stream,
        Err(_) => return Session::failed().finish(clock),
    };
    let mut done = false;
    for message in stream.messages() {
        match message {
            SessionMessage::Event(WireEvent::CandidateFound { .. }) => session.found += 1,
            SessionMessage::Event(WireEvent::CandidateSkipped { .. }) => session.skipped += 1,
            SessionMessage::Event(WireEvent::ProxyScored { id, .. }) => session.trained.push(id),
            SessionMessage::Event(WireEvent::CacheHit { id, candidate, .. }) => {
                session.cache_hits += 1;
                session.deliver_wire(clock, id, &candidate, keep_graphs);
            }
            SessionMessage::Event(WireEvent::LatencyTuned { id, candidate, .. }) => {
                session.deliver_wire(clock, id, &candidate, keep_graphs);
            }
            SessionMessage::Event(_) => {}
            SessionMessage::Done { stopped, steps, .. } => {
                session.iterations = steps;
                session.failed |= stopped == "error";
                done = true;
            }
            SessionMessage::Error(_) | SessionMessage::Lost { .. } => session.failed = true,
        }
    }
    session.failed |= !done;
    session.finish(clock)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session(scored: &[(u64, u64)]) -> Session {
        Session {
            scored: scored.to_vec(),
            ..Session::default()
        }
    }

    #[test]
    fn digest_separates_sessions_and_sees_accuracy_bits() {
        let a = session(&[(1, 10), (2, 20)]);
        let b = session(&[(3, 30)]);
        assert_eq!(digest([&a, &b]), digest([&a.clone(), &b.clone()]));
        assert_ne!(digest([&a, &b]), digest([&b, &a]));
        assert_ne!(digest([&a]), digest([&session(&[(1, 10), (2, 21)])]));
        // Moving a candidate across the session boundary changes the digest.
        assert_ne!(
            digest([&session(&[(1, 10)]), &session(&[(2, 20), (3, 30)])]),
            digest([&a, &b])
        );
    }
}
