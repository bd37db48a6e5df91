//! One workload, one pass, in this process: what the driver's command line
//! runs, and what the full run spawns once per workload and pass so that
//! no workload inherits another's heap, threads or warm caches.
//!
//! `--trace 0` times untraced units and reports the end-to-end metrics.
//! `--trace 1` reruns units with telemetry on under the benchmark's span
//! recorder, runs the per-layer probes, writes the trace file and reports
//! the per-layer metrics. End-to-end numbers never come from traced units.

use crate::host;
use crate::json::Json;
use crate::layers::{self, Probe};
use crate::metrics::{self, Metric};
use crate::stats::{highest_percentile, median, percentile, quartiles};
use crate::trace::{self, link_program_spans, Recorder, Span};
use crate::workloads::{self, Unit, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use syno::core::graph::PGraph;
use syno::ir::{eager, lower_optimized};

/// Seed of the committed digests and of `run.sh` without `--seed`.
pub const DEFAULT_SEED: u64 = 7;
/// Units a run measures however short `--seconds` is.
const MIN_UNITS: usize = 3;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// A unit counts as quiet while the hypervisor withheld at most this share
/// of the machine's CPU time from it (`steal` in `/proc/stat`). On the
/// reference host a unit with no stolen time takes 1.35 s, one at this
/// share 1.42 s, and one inside a neighbour's burst (0.2 and more) 2.3 s
/// and up; the bursts last a minute or two, longer than a run.
const MAX_STOLEN: f64 = 0.01;
/// Timings come from at least this many units: the quietest, where fewer
/// were quiet.
const MIN_QUIET: usize = 6;
/// Units the traced pass reruns with telemetry on.
const TRACED_UNITS: u64 = 2;
/// Candidates on which the compiled kernel is checked against eager.
const EQUIVALENCE_SAMPLES: usize = 8;

static PANICS: AtomicU64 = AtomicU64::new(0);
static LAST_PANIC: Mutex<String> = Mutex::new(String::new());

/// Counts panics instead of printing them. The search swallows a panic per
/// untrainable candidate (`einsum VJP requires duplicate-free operand
/// indices`) behind `catch_unwind`; the default hook would dump a
/// backtrace for each. A panic that does end the run is reported by
/// `main` from [`last_panic`].
pub fn install_panic_hook() {
    std::panic::set_hook(Box::new(|info| {
        PANICS.fetch_add(1, Ordering::Relaxed);
        if let Ok(mut last) = LAST_PANIC.lock() {
            *last = info.to_string();
        }
    }));
}

pub fn last_panic() -> String {
    LAST_PANIC.lock().map(|s| s.clone()).unwrap_or_default()
}

/// What one pass prints as its last line.
pub struct Outcome {
    pub checks: Vec<(String, bool)>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(Metric, f64)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// The result object of the benchmark contract.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(m, value)| {
                            let fields =
                                [("value", Json::Num(*value)), ("unit", Json::str(m.unit))];
                            (m.name.clone(), Json::obj(fields))
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Pairs `values` with the contract's metric list, in its order. A missing
/// or extra name is a bug in this program, not in the program under test.
fn in_contract_order(
    list: Vec<Metric>,
    mut values: Vec<(&str, f64)>,
) -> Result<Vec<(Metric, f64)>, String> {
    let out = list
        .into_iter()
        .map(|m| {
            let at = values
                .iter()
                .position(|(name, _)| *name == m.name)
                .ok_or_else(|| format!("metric {} was not measured", m.name))?;
            Ok((m, values.swap_remove(at).1))
        })
        .collect::<Result<Vec<_>, String>>()?;
    match values.first() {
        Some((name, _)) => Err(format!("metric {name} is measured but not in the contract")),
        None => Ok(out),
    }
}

/// Runs unit `index`; a panic inside it fails as many operations as the
/// warm-up unit had.
fn guarded_unit(
    workload: &mut dyn Workload,
    index: u64,
    rec: &Recorder,
    parent: u64,
    operations: usize,
) -> Unit {
    catch_unwind(AssertUnwindSafe(|| {
        workload.unit(index, false, rec, parent)
    }))
    .unwrap_or_else(|_| Unit::failed(operations))
}

/// Folds the units' own checks: a check passes if it passed in every unit.
fn unit_checks(units: &[&Unit]) -> Vec<(String, bool)> {
    let mut checks: Vec<(String, bool)> = Vec::new();
    for (name, ok) in units.iter().flat_map(|u| &u.checks) {
        match checks.iter_mut().find(|(n, _)| n == name) {
            Some(entry) => entry.1 &= ok,
            None => checks.push((name.to_string(), *ok)),
        }
    }
    checks
}

/// `benchmark/expected/<workload>.digest` holds unit 0's digest at the
/// default seed; other seeds have nothing to be pinned to.
fn pinned_digest_check(workload: &str, seed: u64, digest: u64) -> Option<(String, bool)> {
    if seed != DEFAULT_SEED {
        return None;
    }
    let path = crate::package_dir()
        .join("expected")
        .join(format!("{workload}.digest"));
    let expected = std::fs::read_to_string(path).ok()?;
    Some((
        "digest_pinned".to_owned(),
        expected.trim() == format!("{digest:016x}"),
    ))
}

/// `CompiledKernel::execute` against `eager::execute` — two independent
/// paths from the same pGraph — on evenly spaced candidates.
fn kernel_matches_eager(graphs: &[PGraph], seed: u64) -> bool {
    let mut rng = StdRng::seed_from_u64(seed);
    let stride = (graphs.len() / EQUIVALENCE_SAMPLES).max(1);
    graphs
        .iter()
        .step_by(stride)
        .take(EQUIVALENCE_SAMPLES)
        .all(|graph| {
            let Some((input, weights)) = layers::operands(graph, &mut rng) else {
                return false;
            };
            match (
                lower_optimized(graph, 0),
                eager::execute(graph, 0, &input, &weights),
            ) {
                (Ok(kernel), Ok(want)) => kernel
                    .compile()
                    .execute(&input, &weights)
                    .allclose(&want, 1e-3),
                _ => false,
            }
        })
}

/// One unit of the untraced pass, with what the host did while it ran.
struct Timed {
    unit: Unit,
    /// Share of the machine's CPU time the hypervisor withheld meanwhile.
    stolen: f64,
    peak_rss_mb: f64,
}

/// The units whose timings count: those the host left alone. The choice
/// reads the kernel's steal counter only, never a unit's own duration, so
/// it cannot favour fast units over slow ones — and where the kernel
/// reports no steal every unit is quiet.
fn quiet_units(timed: &[Timed]) -> Vec<&Unit> {
    let mut by_stolen: Vec<&Timed> = timed.iter().collect();
    by_stolen.sort_by(|a, b| a.stolen.total_cmp(&b.stolen));
    let quiet = by_stolen
        .iter()
        .take_while(|t| t.stolen <= MAX_STOLEN)
        .count();
    by_stolen
        .into_iter()
        .take(quiet.max(MIN_QUIET))
        .map(|t| &t.unit)
        .collect()
}

/// The untraced pass.
pub fn timed(name: &str, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let rec = Recorder::new(false);
    let mut setups = Vec::new();
    let mut state = None;
    for _ in 0..SETUPS {
        // The previous set-up owns the scratch directory the next one
        // recreates, so it goes first; tearing down is not set-up time.
        drop(state.take());
        let clock = Instant::now();
        state = Some(workloads::set_up(name, seed, false, &rec)?);
        setups.push(clock.elapsed().as_secs_f64());
    }
    let (mut workload, warm_up) = state.expect("SETUPS is at least 1");

    // Units run until `seconds` have passed, and at least MIN_UNITS of them:
    // a slower host measures fewer units, not for longer.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let clock = Instant::now();
    let mut timed: Vec<Timed> = Vec::new();
    while timed.len() < MIN_UNITS || clock.elapsed().as_secs_f64() < seconds as f64 {
        let index = timed.len() as u64;
        host::release_free_heap();
        host::reset_peak_rss();
        let stolen_before = host::stolen_cpu_s();
        let began = Instant::now();
        let unit = guarded_unit(workload.as_mut(), index, &rec, 0, warm_up.sessions.len());
        let span_s = began.elapsed().as_secs_f64();
        timed.push(Timed {
            unit,
            stolen: (host::stolen_cpu_s() - stolen_before) / (span_s * cpus),
            peak_rss_mb: host::peak_rss_mb(),
        });
    }
    let quiet = quiet_units(&timed);
    for (index, t) in timed.iter().enumerate() {
        println!(
            "unit {index}: wall_s={:.4} stolen={:.4}{} peak_rss_mb={:.2}",
            t.unit.wall_s,
            t.stolen,
            if quiet.iter().any(|q| std::ptr::eq(*q, &t.unit)) {
                ""
            } else {
                " (not timed)"
            },
            t.peak_rss_mb,
        );
    }

    // Timings come from the quiet units; counts and memory, which a busy
    // host does not change, from all of them.
    let units: Vec<&Unit> = timed.iter().map(|t| &t.unit).collect();
    let peaks: Vec<f64> = timed.iter().map(|t| t.peak_rss_mb).collect();
    let walls: Vec<f64> = quiet.iter().map(|u| u.wall_s).collect();
    let session_walls: Vec<f64> = quiet
        .iter()
        .flat_map(|u| &u.sessions)
        .map(|s| s.wall_s)
        .collect();
    // What the user waits for per request: a session where a daemon serves
    // them; in process, where the caller runs the searches itself, the unit.
    let requests = if units.iter().all(|u| u.served) {
        &session_walls
    } else {
        &walls
    };
    // The 90th percentile where ten samples lie beyond it, else the median.
    let tail_s = match highest_percentile(requests.len()) {
        Some(p) if p >= 90.0 => percentile(requests, 90.0),
        _ => median(requests),
    };
    let rates: Vec<f64> = quiet
        .iter()
        .map(|u| u.delivered() as f64 / u.wall_s)
        .collect();
    let sessions: Vec<_> = units.iter().flat_map(|u| &u.sessions).collect();
    let delivered: u64 = units
        .iter()
        .map(|u| u.delivered() + u.extra_delivered)
        .sum();
    let trainings: u64 = units.iter().map(|u| u.trainings).sum();

    // Every unit has its own seeds, so these are medians over independent
    // samples of the workload, not over repeats of one input.
    let values = vec![
        ("setup_s", median(&setups)),
        ("wall_s", median(&walls)),
        ("candidates_per_s", median(&rates)),
        ("session_p50_s", median(requests)),
        ("session_p90_s", tail_s),
        (
            "trainings_per_candidate",
            trainings as f64 / delivered.max(1) as f64,
        ),
        ("peak_rss_mb", median(&peaks)),
    ];

    let describe = |label: &str, samples: &[f64]| {
        let (q1, q3) = quartiles(samples);
        println!(
            "  {label}: n={} q1={q1:.4} median={:.4} q3={q3:.4}",
            samples.len(),
            median(samples)
        );
    };
    println!("digest {name} seed={seed} unit0={:016x}", warm_up.digest);
    println!("samples {name} seed={seed}");
    describe("setup_s", &setups);
    println!(
        "  units: {} run, {} timed (at most {MAX_STOLEN} of the CPU time stolen, or the {MIN_QUIET} quietest)",
        timed.len(),
        quiet.len()
    );
    describe("unit wall_s", &walls);
    describe("unit candidates_per_s", &rates);
    describe("session wall_s", &session_walls);
    describe("unit peak_rss_mb", &peaks);
    match highest_percentile(requests.len()) {
        Some(p) => println!(
            "  requests: n={}, p{p} is the highest percentile with ten samples beyond it",
            requests.len()
        ),
        None => println!(
            "  requests: n={}, too few for any percentile but the median",
            requests.len()
        ),
    }

    let mut checks = vec![(
        "digest_repeats".to_owned(),
        units[0].digest == warm_up.digest,
    )];
    checks.extend(pinned_digest_check(name, seed, warm_up.digest));
    checks.extend(unit_checks(
        &units.iter().copied().chain([&warm_up]).collect::<Vec<_>>(),
    ));
    checks.push((
        "kernel_matches_eager".to_owned(),
        kernel_matches_eager(&warm_up.graphs(), seed),
    ));
    checks.push((
        "delivered_candidates".to_owned(),
        units.iter().all(|u| u.delivered() > 0),
    ));

    Ok(Outcome {
        checks,
        attempted: sessions.len() as u64,
        failed: sessions.iter().filter(|s| s.failed).count() as u64,
        metrics: in_contract_order(metrics::end_to_end(), values)?,
    })
}

fn counter(name: &str) -> u64 {
    syno::telemetry::metrics::global().counter(name).get()
}

/// The traced pass.
pub fn traced(name: &str, seed: u64) -> Result<Outcome, String> {
    let off = Recorder::new(false);
    let (mut workload, warm_up) = workloads::set_up(name, seed, true, &off)?;
    let operations = warm_up.sessions.len();

    // Each unit untraced, then traced, in this process: the untraced walls
    // are the base of the tracing overhead (alternating keeps drift of the
    // host out of the ratio).
    let rec = Recorder::new(true);
    let panics_before = PANICS.load(Ordering::Relaxed);
    syno::telemetry::reset();
    let mut untraced = Vec::new();
    let mut units = Vec::new();
    let mut program: Vec<Span> = Vec::new();
    for index in 0..TRACED_UNITS {
        untraced.push(guarded_unit(workload.as_mut(), index, &off, 0, operations));
        syno::telemetry::set_enabled(true);
        let span = rec.enter("unit", 0, index);
        units.push(guarded_unit(
            workload.as_mut(),
            index,
            &rec,
            span.id(),
            operations,
        ));
        drop(span);
        syno::telemetry::set_enabled(false);
        // Drained per unit: the program's rings hold 8192 spans a thread.
        let first_id = 1_000_000 + program.len() as u64;
        program.extend(link_program_spans(
            &syno::telemetry::trace::drain(),
            first_id,
            index,
        ));
    }
    let dropped = syno::telemetry::trace::dropped_total();
    let trained_counter = counter("syno_search_proxy_train_total");
    let leaders = counter("syno_search_coalesce_leaders_total");
    let followers = counter("syno_search_coalesce_followers_total");
    let swallowed = PANICS.load(Ordering::Relaxed) - panics_before;

    let probes = rec.enter("probes", 0, 0);
    let mut probe = Probe::new(&rec, probes.id());
    let scratch = crate::out_dir()
        .join("tmp")
        .join(format!("probe-{name}-{}", std::process::id()));
    let probed = std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("create {}: {e}", scratch.display()))
        .and_then(|()| {
            layers::run(
                &mut probe,
                &workload.probe_inputs(),
                &warm_up.graphs(),
                seed,
                &scratch,
            )
        });
    let _ = std::fs::remove_dir_all(&scratch);
    probed?;
    drop(probes);
    drop(workload);

    let own = rec.take();
    let search_wall_ns: u64 = own
        .iter()
        .filter(|s| matches!(s.name.as_str(), "session" | "cold_run" | "warm_run"))
        .map(Span::dur_ns)
        .sum();
    let table = trace::summarize(&program);
    // Self time, so that waiting for the evaluator inside `ucb_select`
    // (its nested `eval_wait` span) is not booked as tree search.
    let own_ns = |names: &[&str]| {
        names
            .iter()
            .map(|n| table.get(*n).map_or(0, |row| row.2))
            .sum::<u64>()
    };
    // Phase time is summed over the search thread and the evaluator's
    // workers, which overlap, so it can exceed the wall: the shares are of
    // whichever is larger and always sum to 1 with `idle`.
    let phase_ns = [
        own_ns(&["ucb_select", "synthesis"]),
        own_ns(&["proxy_train"]),
        own_ns(&["store_lookup", "store_append"]),
        own_ns(&["latency_tune"]),
    ];
    let whole_ns = search_wall_ns.max(phase_ns.iter().sum()).max(1);
    let frac = |ns: u64| ns as f64 / whole_ns as f64;
    let [synth, eval, store, tune] = phase_ns.map(frac);

    let sessions: Vec<_> = units.iter().flat_map(|u| &u.sessions).collect();
    let sum =
        |f: fn(&crate::session::Session) -> u64| sessions.iter().map(|s| f(s)).sum::<u64>() as f64;
    let (iterations, found, skipped) =
        (sum(|s| s.iterations), sum(|s| s.found), sum(|s| s.skipped));
    let traced_wall: f64 = units.iter().map(|u| u.wall_s).sum();
    let untraced_wall: f64 = untraced.iter().map(|u| u.wall_s).sum();
    let trainings: u64 = units.iter().map(|u| u.trainings).sum();
    let (hits, lookups) = units
        .iter()
        .filter_map(|u| u.cache)
        .fold((0, 0), |(h, l), (hits, lookups)| (h + hits, l + lookups));

    let mut values = probe.out;
    values.extend([
        ("search.run.synth_frac", synth),
        ("search.run.eval_frac", eval),
        ("search.run.store_frac", store),
        ("search.run.tune_frac", tune),
        (
            "search.run.idle_frac",
            frac(whole_ns - phase_ns.iter().sum::<u64>()),
        ),
        ("search.run.skipped_frac", skipped / found.max(1.0)),
        // Two timings a user sees, measured on the untraced units here
        // because across runs they do not repeat within a tenth.
        (
            "search.run.ttfc_ms",
            1e3 * median(
                &untraced
                    .iter()
                    .flat_map(|u| &u.sessions)
                    .filter_map(|s| s.ttfc_s)
                    .collect::<Vec<f64>>(),
            ),
        ),
        (
            "store.journal.resume_s",
            median(&untraced.iter().map(|u| u.resume_s).collect::<Vec<f64>>()),
        ),
        ("search.run.swallowed_panics", swallowed as f64),
        ("search.mcts.iterations_per_s", iterations / traced_wall),
        ("search.mcts.distinct_frac", found / iterations.max(1.0)),
        ("search.pool.eval_wait_frac", frac(own_ns(&["eval_wait"]))),
        ("search.coalesce.leaders", leaders as f64),
        ("search.coalesce.followers", followers as f64),
        // Trainings run per evaluation asked for: 1 without coalescing,
        // 0.5 when every training also served one follower.
        (
            "search.coalesce.train_ratio",
            trained_counter as f64 / (trained_counter + followers).max(1) as f64,
        ),
        (
            "store.journal.cache_hit_ratio",
            hits as f64 / (lookups as f64).max(1.0),
        ),
        (
            "telemetry.trace.overhead_frac",
            traced_wall / untraced_wall - 1.0,
        ),
        ("telemetry.trace.dropped", dropped as f64),
    ]);
    let code = host::code_size(&std::env::current_dir().map_err(|e| e.to_string())?);
    let code_names: Vec<String> = code
        .iter()
        .map(|(name, ..)| format!("code.lines.{name}"))
        .collect();
    values.push((
        "code.lines_total",
        code.iter().map(|c| c.1).sum::<u64>() as f64,
    ));
    values.push((
        "code.pub_items_total",
        code.iter().map(|c| c.2).sum::<u64>() as f64,
    ));
    values.extend(
        code_names
            .iter()
            .zip(&code)
            .map(|(name, c)| (name.as_str(), c.1 as f64)),
    );

    let path = crate::out_dir().join(format!("trace-{name}.json"));
    std::fs::write(&path, trace::trace_document(name, &own, &program).pretty())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "trace {name}: {} own spans, {} program spans -> {}",
        own.len(),
        program.len(),
        path.display()
    );

    let mut checks = vec![
        (
            "digest_traced".to_owned(),
            units[0].digest == warm_up.digest,
        ),
        (
            "digest_untraced".to_owned(),
            untraced[0].digest == warm_up.digest,
        ),
        // The counter also counts trainings that failed, which stream a
        // skip instead of a score.
        (
            "trainings_match_counter".to_owned(),
            trainings <= trained_counter && trained_counter <= trainings + skipped as u64,
        ),
        ("code_was_counted".to_owned(), code.iter().all(|c| c.1 > 0)),
    ];
    checks.extend(pinned_digest_check(name, seed, warm_up.digest));
    checks.extend(unit_checks(
        &units.iter().chain(&untraced).collect::<Vec<_>>(),
    ));

    Ok(Outcome {
        checks,
        attempted: sessions.len() as u64,
        failed: sessions.iter().filter(|s| s.failed).count() as u64,
        metrics: in_contract_order(metrics::per_layer(), values)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measured(list: &[Metric]) -> Vec<(&str, f64)> {
        list.iter()
            .enumerate()
            .map(|(i, m)| (m.name.as_str(), i as f64 + 0.5))
            .collect()
    }

    #[test]
    fn result_line_round_trips_with_every_metric_once() {
        for list in [metrics::end_to_end(), metrics::per_layer()] {
            // Measured in another order than the contract lists them.
            let mut values = measured(&list);
            values.reverse();
            let outcome = Outcome {
                checks: vec![("digest_repeats".to_owned(), true)],
                attempted: 96,
                failed: 0,
                metrics: in_contract_order(list.clone(), values).unwrap(),
            };
            let parsed = Json::parse(&outcome.to_json().render()).unwrap();
            assert_eq!(parsed, outcome.to_json());
            let keys: Vec<&str> = parsed.fields().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let printed: Vec<&String> = parsed
                .get("metrics")
                .unwrap()
                .fields()
                .iter()
                .map(|(k, _)| k)
                .collect();
            assert_eq!(printed, list.iter().map(|m| &m.name).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_missing_or_unlisted_metric_is_an_error() {
        let list = metrics::end_to_end();
        let mut short = measured(&list);
        short.pop();
        assert!(in_contract_order(list.clone(), short).is_err());
        let mut extra = measured(&list);
        extra.push(("not_in_the_contract", 1.0));
        assert!(in_contract_order(list.clone(), extra).is_err());
    }

    fn timed_unit(wall_s: f64, stolen: f64) -> Timed {
        Timed {
            unit: Unit {
                wall_s,
                ..Unit::default()
            },
            stolen,
            peak_rss_mb: 1.0,
        }
    }

    fn quiet_walls(timed: &[Timed]) -> Vec<f64> {
        let mut walls: Vec<f64> = quiet_units(timed).iter().map(|u| u.wall_s).collect();
        walls.sort_by(f64::total_cmp);
        walls
    }

    #[test]
    fn timings_come_from_the_units_the_host_left_alone() {
        // A neighbour's burst over units 3 to 5: they are left out.
        let stolen = [0.0, 0.002, 0.0, 0.2, 0.35, 0.011, 0.01, 0.0, 0.0, 0.004];
        let timed: Vec<Timed> = stolen
            .iter()
            .enumerate()
            .map(|(i, &s)| timed_unit(i as f64, s))
            .collect();
        assert_eq!(quiet_walls(&timed), [0.0, 1.0, 2.0, 6.0, 7.0, 8.0, 9.0]);
        // A kernel that reports no steal: every unit counts.
        let timed: Vec<Timed> = (0..6).map(|i| timed_unit(i as f64, 0.0)).collect();
        assert_eq!(quiet_walls(&timed).len(), 6);
        // The burst covers the whole run: the quietest MIN_QUIET units.
        let timed: Vec<Timed> = (0..8)
            .map(|i| timed_unit(i as f64, 0.1 + 0.01 * i as f64))
            .collect();
        assert_eq!(quiet_walls(&timed), [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        // Fewer units than that: all of them.
        assert_eq!(quiet_walls(&timed[..2]).len(), 2);
    }

    #[test]
    fn a_failed_check_makes_the_pass_incorrect() {
        let outcome = Outcome {
            checks: vec![("a".to_owned(), true), ("b".to_owned(), false)],
            attempted: 1,
            failed: 0,
            metrics: Vec::new(),
        };
        assert!(!outcome.correct());
        assert_eq!(outcome.to_json().get("correct"), Some(&Json::Bool(false)));
    }
}
