//! The one function that knows `syno_search::SearchEvent`.

use super::payload::{WireCandidate, WireEvent};

/// Converts a [`SearchEvent`](syno_search::SearchEvent) into its wire
/// shape (graphs re-encoded with the graph codec, errors tagged by kind).
///
/// Total: every event has a wire shape, so a variant added to `SearchEvent`
/// fails to compile here instead of vanishing from tenants' streams.
pub fn wire_event(event: &syno_search::SearchEvent) -> WireEvent {
    use syno_core::codec::encode_graph;
    use syno_search::SearchEvent as E;
    let wire_candidate = |c: &syno_search::Candidate| WireCandidate {
        graph: encode_graph(&c.graph),
        accuracy: c.accuracy,
        flops: c.flops,
        params: c.params,
        latencies: c.latencies.clone(),
    };
    match event {
        E::CandidateFound { scenario, id, .. } => WireEvent::CandidateFound {
            scenario: *scenario as u32,
            id: *id,
        },
        E::ProxyScored {
            scenario,
            id,
            accuracy,
        } => WireEvent::ProxyScored {
            scenario: *scenario as u32,
            id: *id,
            accuracy: *accuracy,
        },
        E::CacheHit {
            scenario,
            id,
            candidate,
        } => WireEvent::CacheHit {
            scenario: *scenario as u32,
            id: *id,
            candidate: wire_candidate(candidate),
        },
        E::LatencyTuned {
            scenario,
            id,
            candidate,
        } => WireEvent::LatencyTuned {
            scenario: *scenario as u32,
            id: *id,
            candidate: wire_candidate(candidate),
        },
        E::CandidateSkipped {
            scenario,
            id,
            error,
        } => {
            use syno_core::error::SynoError;
            let kind = match error {
                SynoError::Eval { .. } => "eval",
                SynoError::Proxy { .. } => "proxy",
                SynoError::Worker { .. } => "worker",
                _ => "other",
            };
            WireEvent::CandidateSkipped {
                scenario: *scenario as u32,
                id: *id,
                kind: kind.to_owned(),
                message: error.to_string(),
            }
        }
        E::CheckpointWritten {
            scenario,
            iterations,
        } => WireEvent::CheckpointWritten {
            scenario: *scenario as u32,
            iterations: *iterations,
        },
        E::Progress {
            scenario,
            iterations,
            total_iterations,
            discovered,
        } => WireEvent::Progress {
            scenario: *scenario as u32,
            iterations: *iterations,
            total_iterations: *total_iterations,
            discovered: *discovered,
        },
        E::ScenarioFinished {
            scenario,
            candidates,
        } => WireEvent::ScenarioFinished {
            scenario: *scenario as u32,
            candidates: *candidates as u64,
        },
    }
}
