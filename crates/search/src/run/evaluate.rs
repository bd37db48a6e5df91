//! One candidate, from discovery to its terminal event: coalesce, recall,
//! train, tune, deliver — or skip, with the typed reason.

use super::driver::Shared;
use super::progress::ScenarioProgress;
use super::{Candidate, SearchEvent};
use crate::coalesce::{Claim, TrainOutcome};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use syno_compiler::{CompilerKind, DType, Device, OperatorClass};
use syno_core::error::SynoError;
use syno_core::graph::PGraph;
use syno_nn::{ProxyFamilyId, ProxyScorer};
use syno_store::ScoreContract;
use syno_telemetry::metrics::labeled;

/// Where a candidate's accuracy came from, which decides how
/// [`EvalContext::deliver`] announces and journals it.
#[derive(PartialEq)]
enum Source {
    /// Recalled from the attached store: one `CacheHit`, no `ProxyScored`.
    Recalled,
    /// This evaluation trained the proxy.
    Trained,
    /// Replayed from another run's in-flight training. That run journals
    /// the evaluation, so this one journals nothing.
    Replayed,
}

/// Everything one candidate evaluation needs. A clone rides inside each
/// `'static` candidate job, so it owns or `Arc`-shares every field.
#[derive(Clone)]
pub(super) struct EvalContext {
    pub(super) index: usize,
    /// The proxy family start() bound this scenario to; tags journaled
    /// scores.
    pub(super) family: ProxyFamilyId,
    /// The family prepared for this scenario's spec, once per run: every
    /// candidate trains on the batches it holds. An `Err` — which `start()`'s
    /// validation rules out — is every candidate's typed skip.
    pub(super) scorer: Result<Arc<dyn ProxyScorer>, SynoError>,
    pub(super) shared: Arc<Shared>,
    pub(super) candidates: Arc<Mutex<Vec<Candidate>>>,
}

impl EvalContext {
    /// This scenario's live progress counters.
    fn progress(&self) -> &ScenarioProgress {
        &self.shared.progress.scenarios[self.index]
    }

    /// Evaluates one discovered candidate, emitting its
    /// `ProxyScored`/`CacheHit`/`LatencyTuned`/`CandidateSkipped` events
    /// (the `CandidateFound` announcement is the submit hook's job, so it
    /// always precedes these regardless of worker scheduling), and returns
    /// the reward to backpropagate.
    pub(super) fn evaluate(&self, id: u64, graph: &PGraph) -> f64 {
        let _eval_span = syno_telemetry::span!("evaluate", candidate = id);
        syno_telemetry::counter!("syno_search_candidates_total").inc();
        let shared = &*self.shared;
        let config = &shared.config;
        let contract =
            ScoreContract::new(self.family.name(), config.proxy.train.exec.reduce_width as u32);
        // Single-flight first: with a shared coalescing table, the first
        // evaluator of this `(hash, contract)` becomes the leader and
        // proceeds (store probe, then training); concurrent duplicates
        // park here and replay the leader's freshly-trained outcome as
        // their own bit-identical events. A leader whose probe recalls a
        // journaled score `release`s the claim instead of publishing, so
        // followers re-probe the store and surface their own `CacheHit` —
        // warm-run semantics are untouched.
        let mut leader = match config.coalesce.as_ref().map(|t| t.claim(id, &contract)) {
            // Training is deterministic, so the replayed accuracy — or the
            // replayed typed failure — is what a fresh training here would
            // have produced: one training, many observers.
            Some(Claim::Ready(TrainOutcome::Scored { accuracy })) => {
                return self.deliver(id, graph, accuracy, Source::Replayed);
            }
            Some(Claim::Ready(TrainOutcome::Failed(error))) => {
                return self.skip(id, "proxy", error);
            }
            Some(Claim::Leader(guard)) => Some(guard),
            None => None,
        };
        // Store second: a journaled evaluation makes proxy training (and
        // usually latency tuning) unnecessary — the cross-run analogue
        // of the paper's canonical-form dedup within a run. A score is
        // only served when its journaled family tag matches the
        // scenario's family (content hashes cover the spec, so a mismatch
        // cannot happen through the normal pipeline — this guards against
        // hand-edited or cross-version journals) *and* it was computed
        // under this run's reduction-tree width (the width fixes the FP
        // summation order, so a score from another width is a different
        // value — re-evaluated, not served).
        if let Some(store) = config.store.as_deref() {
            let span = syno_telemetry::span!("store_lookup", candidate = id);
            let recalled = store.score_for_contract(id, &contract);
            shared.progress.phases.add_store(span.elapsed());
            drop(span);
            if let Some(accuracy) = recalled {
                if let Some(guard) = leader.take() {
                    guard.release();
                }
                // NaN is the journaled-failure marker: this candidate's
                // proxy training failed in a previous run, and it fails
                // deterministically — skip without re-training.
                if accuracy.is_nan() {
                    let error = SynoError::proxy("proxy failure recalled from store");
                    return self.skip(id, "recalled", error);
                }
                return self.deliver(id, graph, accuracy, Source::Recalled);
            }
        }

        // No panic boundary here: a panic in training unwinds to the job's
        // one panic boundary (`run_scenario`), which skips the candidate
        // under `reason="panic"`; the leader guard re-opens the claim on the
        // way out, so a waiting follower takes over.
        let scored = {
            let span = syno_telemetry::span!("proxy_train", candidate = id);
            // The acceptance counter for coalescing: incremented only when
            // a training actually runs, never on recalls or replays.
            syno_telemetry::counter!("syno_search_proxy_train_total").inc();
            let scored = self
                .scorer
                .as_ref()
                .map_err(SynoError::clone)
                .and_then(|scorer| scorer.score(graph))
                .map(|accuracy| f64::from(accuracy).clamp(0.0, 1.0));
            shared.progress.phases.add_eval(span.elapsed());
            scored
        };
        // Publish before journaling: parked followers replay from the memo,
        // not the store, so they never wait on I/O. Failures train
        // deterministically too: followers replay the identical typed skip
        // instead of re-failing.
        if let Some(guard) = leader.take() {
            guard.publish(match &scored {
                Ok(accuracy) => TrainOutcome::Scored {
                    accuracy: *accuracy,
                },
                Err(error) => TrainOutcome::Failed(error.clone()),
            });
        }
        if let Some(store) = config.store.as_deref() {
            // Journal best-effort: a full disk degrades the run to
            // cache-less, it does not kill it. A failure is journaled as
            // the NaN marker, so resumed runs skip this candidate instead
            // of re-training it.
            let span = syno_telemetry::span!("store_append", candidate = id);
            let _ = store.put_candidate(id, graph);
            let _ = store.put_score(id, *scored.as_ref().unwrap_or(&f64::NAN), &contract);
            shared.progress.phases.add_store(span.elapsed());
        }
        match scored {
            Ok(accuracy) => self.deliver(id, graph, accuracy, Source::Trained),
            Err(error) => self.skip(id, "proxy", error),
        }
    }

    /// Prices a candidate whose accuracy is known, streams and records it,
    /// and returns the accuracy as the reward.
    ///
    /// Latency tuning happens right here, not in a later pass: the
    /// candidate is complete in the stream, and a cancelled run keeps every
    /// candidate it has announced.
    fn deliver(&self, id: u64, graph: &PGraph, accuracy: f64, source: Source) -> f64 {
        let shared = &*self.shared;
        let scenario = self.index;
        let recalled = source == Source::Recalled;
        if !recalled {
            shared.emit(SearchEvent::ProxyScored {
                scenario,
                id,
                accuracy,
            });
        }
        self.progress().discovered.fetch_add(1, Ordering::Relaxed);
        let (devices, compiler) = (&shared.config.devices, shared.config.compiler);
        let store = shared.config.store.as_deref();
        let stored = match store {
            Some(store) if recalled => {
                let device_names: Vec<&str> = devices.iter().map(|d| d.name).collect();
                store.latencies(id, &device_names, compiler.name())
            }
            _ => None,
        };
        let latencies = match stored {
            Some(latencies) => latencies,
            // Not recalled — or scored in a previous run but tuned for
            // different devices: reuse the accuracy, tune the latency.
            None => {
                let span = syno_telemetry::span!("latency_tune", candidate = id);
                let tuned = tune_latencies(graph, devices, compiler);
                shared.progress.phases.add_tune(span.elapsed());
                drop(span);
                let latencies = match tuned {
                    Ok(latencies) => latencies,
                    Err(error) => {
                        self.skip(id, "tune", error);
                        return accuracy;
                    }
                };
                if let (Some(store), true) = (store, source != Source::Replayed) {
                    for (device, latency) in devices.iter().zip(&latencies) {
                        let _ = store.put_latency(id, device.name, compiler.name(), *latency);
                    }
                }
                latencies
            }
        };
        let candidate = Candidate {
            scenario,
            graph: graph.clone(),
            accuracy,
            flops: syno_core::analysis::naive_flops(graph, 0).unwrap_or(u128::MAX),
            params: syno_core::analysis::parameter_count(graph, 0).unwrap_or(u128::MAX),
            latencies,
        };
        if let (Some(store), true) = (store, recalled) {
            // Counted only now, when the recall is actually served:
            // stats.cache_hits == CacheHit events.
            store.record_hit();
            syno_telemetry::counter!("syno_search_cache_hits_total").inc();
        }
        // Counters advance before the event is emitted, so a status poll
        // racing the stream never undercounts what the consumer already saw.
        self.progress().candidates.fetch_add(1, Ordering::Relaxed);
        self.candidates
            .lock()
            .expect("candidates lock")
            .push(candidate.clone());
        shared.emit(if recalled {
            SearchEvent::CacheHit {
                scenario,
                id,
                candidate,
            }
        } else {
            SearchEvent::LatencyTuned {
                scenario,
                id,
                candidate,
            }
        });
        accuracy
    }

    /// The one way a candidate is dropped: counts it under
    /// `syno_search_skips_total{reason="…"}`, streams the typed
    /// `CandidateSkipped`, and returns the skip's reward, 0.0.
    ///
    /// Reasons: `recalled` (a journaled proxy failure), `proxy` (training
    /// failed, here or in the run this one coalesced with), `tune` (the
    /// compiler rejected it), `panic` (something in its job panicked),
    /// `lost` (the evaluator pool refused or dropped its job).
    pub(super) fn skip(&self, id: u64, reason: &str, error: SynoError) -> f64 {
        let series = labeled("syno_search_skips_total", &[("reason", reason)]);
        syno_telemetry::metrics::global().counter(&series).inc();
        self.shared.emit(SearchEvent::CandidateSkipped {
            scenario: self.index,
            id,
            error,
        });
        0.0
    }
}

/// Tunes one candidate on every device.
fn tune_latencies(
    graph: &PGraph,
    devices: &[Device],
    compiler: CompilerKind,
) -> Result<Vec<f64>, SynoError> {
    // Profile once (lowering enumerates materialization plans — the
    // expensive part), then compile the shared profile per device.
    let profile = syno_compiler::profile_graph(graph, 0, OperatorClass::Novel, "candidate")?;
    Ok(devices
        .iter()
        .map(|device| syno_compiler::compile(&profile, device, compiler, DType::F32).latency)
        .collect())
}
