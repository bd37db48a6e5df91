//! Search-throughput measurement: candidates/second of the evaluation
//! pipeline across three sections —
//!
//! * **serial vs pipelined** (`eval_workers(1)` vs `eval_workers(n)`) on
//!   the vision spec, with the determinism contract (identical candidate
//!   sets) checked alongside the timing;
//! * **multi-scenario**: a vision and an LM scenario side by side over the
//!   scenario worker pool — the task-family registry's throughput probe;
//! * **warm-store**: the same vision run cold (journal everything) and
//!   warm (recall everything), measuring the cross-run caching win.
//!
//! This is the perf-trajectory probe for the system's hottest path — the
//! paper's search cost is dominated by evaluating complete candidates
//! (§7.2, ≈0.1 GPU-hours of proxy training each). The `bench_search`
//! binary prints the result and emits `BENCH_search.json`; CI archives it
//! per commit and gates on the determinism section (throughput across
//! commits is compared with `benchmark/run.sh compare`).

use std::sync::Arc;
use std::time::Instant;
use syno_core::size::Size;
use syno_core::spec::{OperatorSpec, TensorShape};
use syno_core::var::{VarKind, VarTable};
use syno_nn::{ProxyConfig, TrainConfig};
use syno_search::{ExecPolicy, MctsConfig, SearchBuilder, SearchEvent};
use syno_store::StoreBuilder;

/// One timed pipeline configuration.
#[derive(Clone, Copy, Debug)]
pub struct PipelineSample {
    /// `SearchBuilder::eval_workers` setting.
    pub eval_workers: usize,
    /// Wall-clock seconds for the whole run.
    pub wall_secs: f64,
    /// Fully evaluated candidates the run produced.
    pub candidates: usize,
    /// Candidates per second of wall clock.
    pub throughput: f64,
}

/// The multi-scenario (vision + LM) section: both task families searched
/// in one run over the scenario worker pool.
#[derive(Clone, Copy, Debug)]
pub struct MultiScenarioSample {
    /// Wall-clock seconds for the combined run.
    pub wall_secs: f64,
    /// Fully evaluated candidates from the vision scenario.
    pub vision_candidates: usize,
    /// Fully evaluated candidates from the LM scenario.
    pub lm_candidates: usize,
    /// Combined candidates per second of wall clock.
    pub throughput: f64,
}

/// The warm-store section: one vision run journaling to a cold store, then
/// the identical run recalling from it.
#[derive(Clone, Copy, Debug)]
pub struct WarmStoreSample {
    /// Wall-clock seconds of the cold (journal-everything) run.
    pub cold_wall_secs: f64,
    /// Wall-clock seconds of the warm (recall-everything) run.
    pub warm_wall_secs: f64,
    /// `CacheHit` evaluations the warm run served from the journal.
    pub cache_hits: usize,
    /// Proxy trainings the warm run still had to perform (0 when the
    /// journal covers the whole candidate set).
    pub warm_trainings: usize,
    /// Cold-over-warm wall-clock speedup — the cross-run caching win.
    pub speedup: f64,
    /// Whether cold and warm discovered the identical candidate set — the
    /// replay-determinism contract of the store.
    pub identical_sets: bool,
}

/// One per-phase wall-clock split (fractions of the run's wall clock),
/// measured with telemetry enabled.
#[derive(Clone, Copy, Debug)]
pub struct PhaseSample {
    /// `SearchBuilder::eval_workers` setting.
    pub eval_workers: usize,
    /// Wall-clock seconds for the run.
    pub wall_secs: f64,
    /// Fraction of wall in tree search (selection + rollout synthesis).
    pub synth_frac: f64,
    /// Fraction of wall in proxy training.
    pub eval_frac: f64,
    /// Fraction of wall in store lookups/appends.
    pub store_frac: f64,
    /// Fraction of wall in latency tuning.
    pub tune_frac: f64,
    /// Unattributed fraction (clamped at zero when phases overlap wall
    /// with `eval_workers > 1`).
    pub idle_frac: f64,
}

/// The telemetry section: serial throughput with the spans + metrics
/// machinery enabled vs disabled (the <5% overhead budget), the
/// determinism contract with tracing on, and the per-phase breakdown.
#[derive(Clone, Debug)]
pub struct TelemetryData {
    /// Serial wall-clock seconds with telemetry disabled (the plain
    /// serial sample, re-stated here for the overhead ratio).
    pub disabled_wall_secs: f64,
    /// Serial wall-clock seconds with telemetry enabled.
    pub enabled_wall_secs: f64,
    /// `enabled/disabled - 1` — positive means telemetry cost wall time.
    pub overhead_frac: f64,
    /// Whether the telemetry-enabled run discovered the identical
    /// candidate set as the disabled run — tracing must be out-of-band.
    pub identical_sets: bool,
    /// Per-phase splits at `eval_workers` 1 and n (empty when the
    /// breakdown was not requested).
    pub phase_breakdown: Vec<PhaseSample>,
}

/// The exec-thread invariance section: the same search run under
/// data-parallel execution policies with 1, 2, and 4 worker threads (at
/// the pinned reduction width) must discover **bit-identical** candidate
/// sets — `exec_threads` shards loops without ever moving a score bit,
/// so the deterministic-search contract survives data parallelism.
#[derive(Clone, Debug)]
pub struct ExecInvarianceData {
    /// The thread levels compared.
    pub exec_threads: Vec<usize>,
    /// Whether every level discovered the same `(content hash, accuracy
    /// bits)` set.
    pub identical_candidate_sets: bool,
}

/// Runs the bench scenario once per exec-thread level and diffs the
/// scored candidate sets bit-for-bit.
pub fn exec_thread_invariance(iterations: usize, proxy_steps: usize) -> ExecInvarianceData {
    let (vars, spec) = bench_scenario();
    let exec_threads = vec![1usize, 2, 4];
    let sets: Vec<Vec<(u64, u64)>> = exec_threads
        .iter()
        .map(|&threads| {
            let report = SearchBuilder::new()
                .scenario("bench-conv", &vars, &spec)
                .mcts(MctsConfig {
                    iterations,
                    seed: 7,
                    ..MctsConfig::default()
                })
                .proxy(bench_proxy(proxy_steps))
                .exec_policy(ExecPolicy::with_threads(threads))
                .run()
                .expect("exec-invariance bench runs");
            let mut ids: Vec<(u64, u64)> = report
                .candidates
                .iter()
                .map(|c| (c.graph.content_hash(), c.accuracy.to_bits()))
                .collect();
            ids.sort_unstable();
            ids
        })
        .collect();
    ExecInvarianceData {
        exec_threads,
        identical_candidate_sets: sets.iter().all(|s| s == &sets[0]),
    }
}

/// The serial-versus-pipelined comparison on the bench spec.
#[derive(Clone, Debug)]
pub struct SearchPipelineData {
    /// MCTS iterations per run.
    pub iterations: usize,
    /// The serial baseline.
    pub serial: PipelineSample,
    /// The pipelined run.
    pub pipelined: PipelineSample,
    /// Wall-clock speedup of the pipelined run over serial.
    pub speedup: f64,
    /// Whether both runs discovered the identical candidate set (keyed by
    /// content hash) — the determinism contract.
    pub identical_sets: bool,
    /// Hardware parallelism the measurement ran on; a speedup near 1.0 is
    /// expected when this is 1 regardless of `eval_workers`.
    pub available_parallelism: usize,
    /// The vision + LM multi-scenario section (`None` when not requested —
    /// determinism-only runs skip this unasserted timing).
    pub multi_scenario: Option<MultiScenarioSample>,
    /// The cold/warm store section (`None` when not requested).
    pub warm_store: Option<WarmStoreSample>,
    /// The telemetry overhead + phase-breakdown section (`None` when not
    /// requested).
    pub telemetry: Option<TelemetryData>,
}

/// The 4-D conv-like spec the accuracy proxy can score — the same shape
/// family as the search integration tests.
pub(crate) fn bench_scenario() -> (Arc<VarTable>, OperatorSpec) {
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
    (vars, spec)
}

/// The `[B, T, C] → [B, T, C]` sequence spec scored by the LM proxy
/// family — the second half of the multi-scenario section.
fn lm_bench_scenario() -> (Arc<VarTable>, OperatorSpec) {
    let mut vars = VarTable::new();
    let b = vars.declare("B", VarKind::Primary);
    let t = vars.declare("T", VarKind::Primary);
    let c = vars.declare("C", VarKind::Primary);
    let k = vars.declare("k", VarKind::Coefficient);
    vars.push_valuation(vec![(b, 4), (t, 4), (c, 8), (k, 2)]);
    let vars = vars.into_shared();
    let spec = OperatorSpec::new(
        TensorShape::new(vec![Size::var(b), Size::var(t), Size::var(c)]),
        TensorShape::new(vec![Size::var(b), Size::var(t), Size::var(c)]),
    );
    (vars, spec)
}

pub(crate) fn bench_proxy(proxy_steps: usize) -> ProxyConfig {
    ProxyConfig {
        train: TrainConfig {
            steps: proxy_steps,
            batch: 4,
            eval_batches: 1,
            ..TrainConfig::default()
        },
        ..ProxyConfig::default()
    }
}

fn timed_run(
    vars: &Arc<VarTable>,
    spec: &OperatorSpec,
    iterations: usize,
    proxy_steps: usize,
    eval_workers: usize,
) -> (PipelineSample, Vec<u64>, PhaseSample) {
    let proxy = bench_proxy(proxy_steps);
    let started = Instant::now();
    let report = SearchBuilder::new()
        .scenario("bench-conv", vars, spec)
        .mcts(MctsConfig {
            iterations,
            seed: 7,
            ..MctsConfig::default()
        })
        .proxy(proxy)
        .eval_workers(eval_workers)
        .run()
        .expect("bench search runs");
    let wall_secs = started.elapsed().as_secs_f64();
    let mut ids: Vec<u64> = report
        .candidates
        .iter()
        .map(|c| c.graph.content_hash())
        .collect();
    ids.sort_unstable();
    let candidates = report.candidates.len();
    let frac = |phase| syno_search::PhaseWall::fraction_of(phase, report.wall);
    let phases = PhaseSample {
        eval_workers,
        wall_secs,
        synth_frac: frac(report.phases.synth),
        eval_frac: frac(report.phases.eval),
        store_frac: frac(report.phases.store),
        tune_frac: frac(report.phases.tune),
        idle_frac: frac(report.phases.idle),
    };
    (
        PipelineSample {
            eval_workers,
            wall_secs,
            candidates,
            throughput: if wall_secs > 0.0 {
                candidates as f64 / wall_secs
            } else {
                0.0
            },
        },
        ids,
        phases,
    )
}

/// The vision + LM multi-scenario section: one run, two task families,
/// two scenario workers.
fn multi_scenario_sample(iterations: usize, proxy_steps: usize) -> MultiScenarioSample {
    let (conv_vars, conv_spec) = bench_scenario();
    let (lm_vars, lm_spec) = lm_bench_scenario();
    let started = Instant::now();
    let report = SearchBuilder::new()
        .scenario("bench-conv", &conv_vars, &conv_spec)
        .scenario("bench-lm", &lm_vars, &lm_spec)
        .mcts(MctsConfig {
            iterations,
            seed: 7,
            ..MctsConfig::default()
        })
        .proxy(bench_proxy(proxy_steps))
        .workers(2)
        .run()
        .expect("multi-scenario bench runs");
    let wall_secs = started.elapsed().as_secs_f64();
    let vision = report.candidates.iter().filter(|c| c.scenario == 0).count();
    let lm = report.candidates.iter().filter(|c| c.scenario == 1).count();
    MultiScenarioSample {
        wall_secs,
        vision_candidates: vision,
        lm_candidates: lm,
        throughput: if wall_secs > 0.0 {
            (vision + lm) as f64 / wall_secs
        } else {
            0.0
        },
    }
}

/// The cold/warm store section: journal a run, then replay it from disk.
fn warm_store_sample(iterations: usize, proxy_steps: usize) -> WarmStoreSample {
    let (vars, spec) = bench_scenario();
    let dir = std::env::temp_dir().join(format!("syno-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mcts = MctsConfig {
        iterations,
        seed: 7,
        ..MctsConfig::default()
    };

    let run = |label: &str| {
        let store = Arc::new(
            StoreBuilder::new(&dir)
                .open()
                .unwrap_or_else(|e| panic!("open bench store ({label}): {e}")),
        );
        let started = Instant::now();
        let run = SearchBuilder::new()
            .scenario("bench-conv", &vars, &spec)
            .mcts(mcts)
            .proxy(bench_proxy(proxy_steps))
            .store(Arc::clone(&store))
            .start()
            .expect("warm-store bench runs");
        let mut hits = 0usize;
        let mut trainings = 0usize;
        for event in run.events() {
            match event {
                SearchEvent::CacheHit { .. } => hits += 1,
                SearchEvent::ProxyScored { .. } => trainings += 1,
                _ => {}
            }
        }
        let report = run.join().expect("warm-store bench joins");
        let wall = started.elapsed().as_secs_f64();
        let mut ids: Vec<u64> = report
            .candidates
            .iter()
            .map(|c| c.graph.content_hash())
            .collect();
        ids.sort_unstable();
        (wall, hits, trainings, ids)
    };

    let (cold_wall, _, _, cold_ids) = run("cold");
    let (warm_wall, warm_hits, warm_trainings, warm_ids) = run("warm");
    let _ = std::fs::remove_dir_all(&dir);
    WarmStoreSample {
        cold_wall_secs: cold_wall,
        warm_wall_secs: warm_wall,
        cache_hits: warm_hits,
        warm_trainings,
        speedup: if warm_wall > 0.0 { cold_wall / warm_wall } else { 0.0 },
        identical_sets: cold_ids == warm_ids,
    }
}

/// The telemetry section: re-runs the serial bench with tracing + metrics
/// enabled (same seed), comparing wall clock and candidate sets against
/// the disabled serial sample, and — when `with_breakdown` — the
/// per-phase splits at `eval_workers` 1 and n.
fn telemetry_data(
    iterations: usize,
    proxy_steps: usize,
    eval_workers: usize,
    disabled: &PipelineSample,
    disabled_ids: &[u64],
    with_breakdown: bool,
) -> TelemetryData {
    let (vars, spec) = bench_scenario();
    syno_telemetry::reset();
    syno_telemetry::set_enabled(true);
    let (enabled, enabled_ids, serial_phases) =
        timed_run(&vars, &spec, iterations, proxy_steps, 1);
    let mut phase_breakdown = Vec::new();
    if with_breakdown {
        phase_breakdown.push(serial_phases);
        let (_, _, pooled_phases) = timed_run(&vars, &spec, iterations, proxy_steps, eval_workers);
        phase_breakdown.push(pooled_phases);
    }
    syno_telemetry::set_enabled(false);
    TelemetryData {
        disabled_wall_secs: disabled.wall_secs,
        enabled_wall_secs: enabled.wall_secs,
        overhead_frac: if disabled.wall_secs > 0.0 {
            enabled.wall_secs / disabled.wall_secs - 1.0
        } else {
            0.0
        },
        identical_sets: enabled_ids == disabled_ids,
        phase_breakdown,
    }
}

/// Times the bench spec serially and with `eval_workers` evaluator threads
/// (same seed), `iterations` MCTS iterations each, `proxy_steps` training
/// steps per candidate. `with_multi_scenario` / `with_warm_store` /
/// `with_telemetry` opt into the vision + LM, cold/warm store, and
/// telemetry-overhead sections individually — the determinism-only CI
/// step runs the warm-store and telemetry sections (both assert
/// contracts) but skips the unasserted multi-scenario timing;
/// `with_breakdown` additionally measures the per-phase splits (a timing,
/// so determinism-only runs skip it).
pub fn search_pipeline_data(
    iterations: usize,
    proxy_steps: usize,
    eval_workers: usize,
    with_multi_scenario: bool,
    with_warm_store: bool,
    with_telemetry: bool,
    with_breakdown: bool,
) -> SearchPipelineData {
    let (vars, spec) = bench_scenario();
    let (serial, serial_ids, _) = timed_run(&vars, &spec, iterations, proxy_steps, 1);
    let (pipelined, piped_ids, _) = timed_run(&vars, &spec, iterations, proxy_steps, eval_workers);
    let multi_scenario = with_multi_scenario.then(|| multi_scenario_sample(iterations, proxy_steps));
    let warm_store = with_warm_store.then(|| warm_store_sample(iterations, proxy_steps));
    let telemetry = with_telemetry.then(|| {
        telemetry_data(
            iterations,
            proxy_steps,
            eval_workers,
            &serial,
            &serial_ids,
            with_breakdown,
        )
    });
    SearchPipelineData {
        iterations,
        serial,
        pipelined,
        speedup: if pipelined.wall_secs > 0.0 {
            serial.wall_secs / pipelined.wall_secs
        } else {
            0.0
        },
        identical_sets: serial_ids == piped_ids,
        available_parallelism: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        multi_scenario,
        warm_store,
        telemetry,
    }
}
