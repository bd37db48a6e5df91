//! The five workloads. Each is a fixed *unit* of work whose every input is
//! derived from `--seed`; the runner times units, nothing inside them.
//!
//! Unit `u` of a run draws its own MCTS, task and init seeds (`derive(seed,
//! [workload, u, session, …])`), so a run of `n` units samples `n ×
//! sessions` independent searches. That is what keeps the medians steady
//! from one `--seed` to the next: what a single search costs varies with
//! its seed, the median over a dozen units of several searches far less.
//! Unit 0 is also the warm-up, which is how determinism is checked
//! (warm-up digest = timed digest).
//!
//! Sizes below were fitted on the 2-core reference host so that one unit
//! takes about 1.5 s there (a run of 36 s then measures some 25 units
//! after three set-ups); they shrink iterations and train steps, never
//! tensor sizes.

use crate::seed::derive;
use crate::session::{digest, request, run_search, run_served, SearchJob, Session};
use crate::specs::{proxy, SeqDims, Spec, VisionDims, BIG_SEQ, BIG_VISION, TOY_SEQ, TOY_VISION};
use crate::trace::Recorder;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::Instant;
use syno::core::graph::PGraph;
use syno::nn::{ExecPolicy, ProxyConfig};
use syno::serve::{Daemon, DaemonHandle};
use syno::{ScoreContract, SearchRequest, ServeConfig, Store, StoreBuilder, SynoClient};

/// Workload names, in the order they run. Later issues cite these.
/// `BENCHMARK.json` lists three of them: `serve_distinct` and `store_resume`
/// run here and in `compare`, but the time the contract allows for all its
/// runs is better spent on longer runs of the others (README.md).
pub const NAMES: [&str; 5] = [
    "search_synth_bound",
    "search_proxy_bound",
    "serve_distinct",
    "serve_shared",
    "store_resume",
];

/// Closed-loop tenants on the serve workloads: each its own connection and
/// thread, the next submit only after the previous `Done`. Two is both the
/// reference host's `nproc` and the least that can share work.
pub const TENANTS: usize = 2;

/// One measured unit of work.
#[derive(Debug, Default)]
pub struct Unit {
    /// Seconds the user waited for the unit (see each workload).
    pub wall_s: f64,
    /// Seconds to get the unit's results again from what it persisted —
    /// the whole unit again where nothing persists.
    pub resume_s: f64,
    /// The sessions inside `wall_s`.
    pub sessions: Vec<Session>,
    /// The sessions went through a daemon, each one a request of its own.
    pub served: bool,
    /// Candidates delivered outside `wall_s` (the warm half of a resume).
    pub extra_delivered: u64,
    /// Proxy trainings the unit ran.
    pub trainings: u64,
    /// Digest of the delivered `(content_hash, accuracy bits)` sets.
    pub digest: u64,
    /// `(cache hits, lookups)` of the unit's store, where it has one.
    pub cache: Option<(u64, u64)>,
    /// Within-unit correctness checks: `(name, passed)`.
    pub checks: Vec<(&'static str, bool)>,
}

impl Unit {
    /// Sessions run back to back in one thread: the unit is their sum.
    fn sequential(sessions: Vec<Session>) -> Unit {
        let wall_s = sessions.iter().map(|s| s.wall_s).sum();
        Unit {
            wall_s,
            resume_s: wall_s,
            trainings: sessions.iter().map(|s| s.trained.len() as u64).sum(),
            digest: digest(&sessions),
            sessions,
            ..Unit::default()
        }
    }

    /// A unit that could not run: every operation counts as failed.
    pub fn failed(operations: usize) -> Unit {
        Unit {
            sessions: (0..operations).map(|_| Session::failed()).collect(),
            ..Unit::default()
        }
    }

    pub fn delivered(&self) -> u64 {
        self.sessions.iter().map(Session::delivered).sum()
    }

    /// Distinct delivered graphs, sorted by content hash.
    pub fn graphs(&self) -> Vec<PGraph> {
        let mut graphs: Vec<(u64, &PGraph)> = self
            .sessions
            .iter()
            .flat_map(|s| s.graphs.iter().map(|g| (g.content_hash(), g)))
            .collect();
        graphs.sort_by_key(|&(hash, _)| hash);
        graphs.dedup_by_key(|&mut (hash, _)| hash);
        graphs.into_iter().map(|(_, g)| g.clone()).collect()
    }
}

/// What the per-layer probes need from a workload: its own inputs.
pub struct ProbeInputs {
    /// The spec rollouts, enumeration and the serve probes run on.
    pub primary: Spec,
    pub vision: VisionDims,
    pub sequence: SeqDims,
    /// The proxy configuration of unit 0's first session.
    pub proxy: ProxyConfig,
    /// Iterations of one of the workload's sessions.
    pub iterations: usize,
}

pub trait Workload {
    /// Runs unit `index`. A warm-up unit keeps the delivered graphs (the
    /// checks and probes run on them).
    fn unit(&mut self, index: u64, warm_up: bool, rec: &Recorder, parent: u64) -> Unit;

    fn probe_inputs(&self) -> ProbeInputs;
}

/// Builds workload `name` for `seed` and runs its warm-up unit (unit 0
/// with graphs kept). This is what `setup_s` times. With `cross_check`
/// the warm-up takes the program's other evaluator path where the
/// workload has one, so that its digest checks one path against the other
/// — at a cost that does not belong in set-up time.
pub fn set_up(
    name: &str,
    seed: u64,
    cross_check: bool,
    rec: &Recorder,
) -> Result<(Box<dyn Workload>, Unit), String> {
    let id = NAMES
        .iter()
        .position(|&n| n == name)
        .ok_or_else(|| format!("unknown workload '{name}' (one of: {})", NAMES.join(", ")))?
        as u64;
    let seeds = Seeds {
        master: seed,
        workload: id,
    };
    let mut workload: Box<dyn Workload> = match name {
        "search_synth_bound" => Box::new(SynthBound {
            seeds,
            spec: TOY_VISION.spec(),
        }),
        "search_proxy_bound" => Box::new(ProxyBound {
            seeds,
            serial_warm_up: cross_check,
            vision: BIG_VISION.spec(),
            sequence: BIG_SEQ.spec(),
            // The paper's use of the search: operators several times
            // cheaper than the convolution they replace, and sequence
            // mixers no dearer than a dense projection. The budgets also
            // make the workload steady: without them a candidate's cost
            // spans two orders of magnitude, and which few expensive ones
            // a seed happens to find decides what a run costs (±35%).
            vision_budget: BIG_VISION.conv2d_flops() / 4,
            sequence_budget: BIG_SEQ.projection_flops(),
        }),
        "serve_distinct" => Box::new(ServeDistinct { seeds }),
        "serve_shared" => Box::new(ServeShared {
            seeds,
            spec: TOY_VISION.spec(),
            scratch: Scratch::new(name)?,
        }),
        _ => Box::new(StoreResume::new(seeds, rec)?),
    };
    let warm_up = workload.unit(0, true, rec, 0);
    Ok((workload, warm_up))
}

/// The seed path prefix of one workload.
#[derive(Clone, Copy)]
struct Seeds {
    master: u64,
    workload: u64,
}

/// The `session` of a unit's daemon in the seed path: no real session has
/// this index.
const DAEMON: u64 = u64::MAX;

impl Seeds {
    /// The MCTS seed of session `session` in unit `unit`.
    fn mcts(self, unit: u64, session: u64) -> u64 {
        derive(self.master, &[self.workload, unit, session, 0])
    }

    /// The proxy configuration of session `session` in unit `unit`. Task
    /// and init seeds are fixed across one search's candidates — rewards
    /// must be comparable — but drawn per session: shared by a whole run
    /// they would shift every one of its searches the same way, and no
    /// number of units averages that out.
    fn proxy(self, steps: usize, unit: u64, session: u64) -> ProxyConfig {
        let fixed = |purpose| derive(self.master, &[self.workload, unit, session, purpose]);
        proxy(steps, fixed(1), fixed(2))
    }
}

/// Directories under `benchmark/out/tmp`, removed when the workload drops.
/// The benchmark may write only inside its checkout, so not `/tmp`.
struct Scratch {
    base: PathBuf,
    next: u64,
}

impl Scratch {
    fn new(tag: &str) -> Result<Scratch, String> {
        let base = crate::out_dir()
            .join("tmp")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).map_err(|e| format!("create {}: {e}", base.display()))?;
        Ok(Scratch { base, next: 0 })
    }

    /// A path no earlier call returned; nothing exists there yet.
    fn fresh(&mut self) -> PathBuf {
        self.next += 1;
        self.base.join(self.next.to_string())
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.base);
    }
}

// ---------------------------------------------------------------------------
// search_synth_bound
// ---------------------------------------------------------------------------

/// In-process searches on the toy vision spec with one train step per
/// candidate: tree search and synthesis do most of the work.
struct SynthBound {
    seeds: Seeds,
    spec: Spec,
}

impl SynthBound {
    const SESSIONS: u64 = 8;
    const ITERATIONS: usize = 300;
    const TRAIN_STEPS: usize = 1;
}

impl Workload for SynthBound {
    fn unit(&mut self, index: u64, warm_up: bool, rec: &Recorder, parent: u64) -> Unit {
        let sessions = (0..Self::SESSIONS)
            .map(|s| {
                let job = SearchJob {
                    label: "synth-bound",
                    spec: &self.spec,
                    iterations: Self::ITERATIONS,
                    seed: self.seeds.mcts(index, s),
                    proxy: self.seeds.proxy(Self::TRAIN_STEPS, index, s),
                    eval_workers: 1,
                    store: None,
                    max_flops: None,
                };
                rec.within("session", parent, index, || run_search(&job, warm_up, None))
            })
            .collect();
        Unit::sequential(sessions)
    }

    fn probe_inputs(&self) -> ProbeInputs {
        ProbeInputs {
            primary: self.spec.clone(),
            vision: TOY_VISION,
            sequence: TOY_SEQ,
            proxy: self.seeds.proxy(Self::TRAIN_STEPS, 0, 0),
            iterations: Self::ITERATIONS,
        }
    }
}

// ---------------------------------------------------------------------------
// search_proxy_bound
// ---------------------------------------------------------------------------

/// In-process searches on the paper-scale vision and sequence specs through
/// the pooled evaluator: training dominates, synthesis is a few percent.
struct ProxyBound {
    seeds: Seeds,
    serial_warm_up: bool,
    vision: Spec,
    sequence: Spec,
    /// FLOPs budgets of the two families' searches (see `set_up`).
    vision_budget: u128,
    sequence_budget: u128,
}

impl ProxyBound {
    // Several short searches rather than the one long search per family:
    // what one search costs still varies with how many candidates its
    // seed finds, and only the sum over many of them is steady from one
    // `--seed` to the next. Vision candidates are few per iteration and
    // dear per train step, sequence ones many and cheap, hence the steps.
    const VISION: Family = Family {
        sessions: 4,
        iterations: 40,
        train_steps: 8,
    };
    const SEQUENCE: Family = Family {
        sessions: 3,
        iterations: 50,
        train_steps: 64,
    };
}

/// How many searches of one proxy family a unit runs, and how long each.
struct Family {
    sessions: u64,
    iterations: usize,
    train_steps: usize,
}

impl Workload for ProxyBound {
    fn unit(&mut self, index: u64, warm_up: bool, rec: &Recorder, parent: u64) -> Unit {
        // A cross-checking warm-up runs the serial evaluator, every other
        // unit the pooled one; equal digests are the pipeline's
        // determinism contract.
        let eval_workers = if warm_up && self.serial_warm_up { 1 } else { 2 };
        let sessions = (0..Self::VISION.sessions + Self::SEQUENCE.sessions)
            .map(|s| {
                let vision = s < Self::VISION.sessions;
                let family = if vision { Self::VISION } else { Self::SEQUENCE };
                let job = SearchJob {
                    label: if vision {
                        "proxy-bound-vision"
                    } else {
                        "proxy-bound-sequence"
                    },
                    spec: if vision { &self.vision } else { &self.sequence },
                    iterations: family.iterations,
                    seed: self.seeds.mcts(index, s),
                    proxy: self.seeds.proxy(family.train_steps, index, s),
                    eval_workers,
                    store: None,
                    max_flops: Some(if vision {
                        self.vision_budget
                    } else {
                        self.sequence_budget
                    }),
                };
                rec.within("session", parent, index, || run_search(&job, warm_up, None))
            })
            .collect();
        Unit::sequential(sessions)
    }

    fn probe_inputs(&self) -> ProbeInputs {
        ProbeInputs {
            primary: self.vision.clone(),
            vision: BIG_VISION,
            sequence: BIG_SEQ,
            proxy: self.seeds.proxy(Self::VISION.train_steps, 0, 0),
            iterations: Self::VISION.iterations,
        }
    }
}

// ---------------------------------------------------------------------------
// serve workloads
// ---------------------------------------------------------------------------

/// A daemon on a free local port, serving on its own thread.
struct Served {
    handle: DaemonHandle,
    thread: std::thread::JoinHandle<()>,
}

impl Served {
    fn start(store: Option<Arc<Store>>, proxy: ProxyConfig) -> Result<Served, String> {
        let config = ServeConfig {
            eval_workers: 2,
            proxy,
            ..ServeConfig::default()
        };
        let daemon =
            Daemon::bind("127.0.0.1:0", store, config).map_err(|e| format!("bind daemon: {e}"))?;
        let (handle, thread) = daemon.spawn();
        Ok(Served { handle, thread })
    }

    /// Drains the daemon and waits for its thread; `false` if it panicked.
    fn stop(self) -> bool {
        self.handle.shutdown();
        self.thread.join().is_ok()
    }
}

/// Runs each tenant's request list closed-loop on its own thread and
/// connection; before request `rendezvous` every tenant waits for the
/// others. Returns the sessions per tenant and the wall from the first
/// connect to the last `Done`.
fn run_tenants(
    addr: &str,
    requests: &[Vec<SearchRequest>],
    rendezvous: Option<usize>,
    keep_graphs: bool,
    rec: &Recorder,
    parent: u64,
    unit: u64,
) -> (Vec<Vec<Session>>, f64) {
    let clock = Instant::now();
    let barrier = Barrier::new(requests.len());
    let sessions = std::thread::scope(|scope| {
        let tenants: Vec<_> = requests
            .iter()
            .enumerate()
            .map(|(t, list)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let tenant = rec.enter("tenant", parent, unit);
                    // A tenant that cannot connect still keeps the
                    // rendezvous, or the others would wait forever.
                    let client = SynoClient::connect(addr, &format!("tenant-{t}"));
                    list.iter()
                        .enumerate()
                        .map(|(i, request)| {
                            if rendezvous == Some(i) {
                                barrier.wait();
                            }
                            match &client {
                                Ok(client) => rec.within("session", tenant.id(), unit, || {
                                    run_served(client, request, keep_graphs)
                                }),
                                Err(_) => Session::failed(),
                            }
                        })
                        .collect::<Vec<Session>>()
                })
            })
            .collect();
        tenants
            .into_iter()
            .zip(requests)
            // A tenant thread that panicked failed all its sessions.
            .map(|(tenant, list)| {
                tenant
                    .join()
                    .unwrap_or_else(|_| list.iter().map(|_| Session::failed()).collect())
            })
            .collect()
    });
    (sessions, clock.elapsed().as_secs_f64())
}

/// Two tenants on different specs, every session tagged and seeded apart
/// from every other: no candidate key can be shared, so the coalescing
/// table and the store are bypassed while the protocol, the event loop,
/// the session manager and the shared pool carry every event.
///
/// The tags matter. Untagged, a tenant's later sessions replay what its
/// earlier ones left in the daemon's coalescing table — until the daemon
/// happens to go idle and clears it — and a replayed score comes from
/// whichever structural variant of the operator was trained first, so the
/// delivered accuracies would depend on timing.
struct ServeDistinct {
    seeds: Seeds,
}

impl ServeDistinct {
    const SESSIONS_PER_TENANT: u64 = 12;
    const ITERATIONS: u32 = 100;
    const TRAIN_STEPS: u32 = 6;
}

impl Workload for ServeDistinct {
    fn unit(&mut self, index: u64, warm_up: bool, rec: &Recorder, parent: u64) -> Unit {
        let per_unit = TENANTS as u64 * Self::SESSIONS_PER_TENANT;
        let requests: Vec<Vec<SearchRequest>> = (0..TENANTS as u64)
            .map(|t| {
                (0..Self::SESSIONS_PER_TENANT)
                    .map(|s| {
                        let session = t * Self::SESSIONS_PER_TENANT + s;
                        let tag = Some(index * per_unit + session);
                        let spec = if t == 0 {
                            TOY_VISION.tagged(tag)
                        } else {
                            TOY_SEQ.tagged(tag)
                        };
                        let seed = self.seeds.mcts(index, session);
                        request(
                            &format!("distinct-{t}-{s}"),
                            &spec,
                            Self::ITERATIONS,
                            seed,
                            Self::TRAIN_STEPS,
                        )
                    })
                    .collect()
            })
            .collect();
        let proxy = self.seeds.proxy(Self::TRAIN_STEPS as usize, index, DAEMON);
        let Ok(served) = Served::start(None, proxy) else {
            return Unit::failed(per_unit as usize);
        };
        let (per_tenant, wall_s) = run_tenants(
            served.handle.addr(),
            &requests,
            None,
            warm_up,
            rec,
            parent,
            index,
        );
        let clean_stop = served.stop();
        let sessions: Vec<Session> = per_tenant.into_iter().flatten().collect();
        Unit {
            wall_s,
            resume_s: wall_s,
            trainings: sessions.iter().map(|s| s.trained.len() as u64).sum(),
            digest: digest(&sessions),
            checks: vec![("daemon_clean_stop", clean_stop)],
            sessions,
            served: true,
            ..Unit::default()
        }
    }

    fn probe_inputs(&self) -> ProbeInputs {
        ProbeInputs {
            primary: TOY_VISION.spec(),
            vision: TOY_VISION,
            sequence: TOY_SEQ,
            proxy: self.seeds.proxy(Self::TRAIN_STEPS as usize, 0, DAEMON),
            iterations: Self::ITERATIONS as usize,
        }
    }
}

/// Both tenants submit the *same* `(spec, seed)` list concurrently against
/// a fresh store, then the same list again: pass 1 is coalesced in flight,
/// replayed from the table or recalled from what an earlier pair
/// journaled; pass 2 is all warm `CacheHit`s. Coalescing, store reads and
/// frame encoding do the work; training almost none.
struct ServeShared {
    seeds: Seeds,
    spec: Spec,
    scratch: Scratch,
}

impl ServeShared {
    const PAIRS: usize = 8;
    const ITERATIONS: u32 = 100;
    const TRAIN_STEPS: u32 = 6;
}

impl Workload for ServeShared {
    fn unit(&mut self, index: u64, warm_up: bool, rec: &Recorder, parent: u64) -> Unit {
        let pass: Vec<SearchRequest> = (0..Self::PAIRS as u64)
            .map(|p| {
                let seed = self.seeds.mcts(index, p);
                request(
                    &format!("shared-{p}"),
                    &self.spec,
                    Self::ITERATIONS,
                    seed,
                    Self::TRAIN_STEPS,
                )
            })
            .collect();
        let both_passes: Vec<SearchRequest> = pass.iter().chain(&pass).cloned().collect();
        let requests = vec![both_passes; TENANTS];

        let proxy = self.seeds.proxy(Self::TRAIN_STEPS as usize, index, DAEMON);
        let served = StoreBuilder::new(self.scratch.fresh())
            .open()
            .map_err(|e| e.to_string())
            .and_then(|store| Served::start(Some(Arc::new(store)), proxy));
        let Ok(served) = served else {
            return Unit::failed(TENANTS * 2 * Self::PAIRS);
        };
        // The passes meet at a rendezvous: once every pass-1 session is done
        // the daemon is idle and drops its coalescing table, so pass 2 is
        // served from the store (`CacheHit`), not from the table's replays.
        let (per_tenant, wall_s) = run_tenants(
            served.handle.addr(),
            &requests,
            Some(Self::PAIRS),
            warm_up,
            rec,
            parent,
            index,
        );
        let cache = SynoClient::connect(served.handle.addr(), "stats")
            .and_then(|client| client.status())
            .ok()
            .and_then(|status| status.store)
            .map(|store| (store.cache_hits, store.lookups));
        let clean_stop = served.stop();

        let second_pass =
            |tenant: &Vec<Session>| -> f64 { tenant[Self::PAIRS..].iter().map(|s| s.wall_s).sum() };
        let warm_hits = per_tenant
            .iter()
            .flat_map(|tenant| &tenant[Self::PAIRS..])
            .all(|s| s.trained.is_empty() && s.cache_hits == s.delivered());
        let trained: BTreeSet<u64> = per_tenant
            .iter()
            .flatten()
            .flat_map(|s| s.trained.iter().copied())
            .collect();
        Unit {
            wall_s,
            // Each tenant's second pass; the slower one is when both have
            // their results again.
            resume_s: per_tenant.iter().map(second_pass).fold(0.0, f64::max),
            // Followers replay the leader's `ProxyScored`, so events count
            // a coalesced training once per session it served; distinct
            // ids count it once. The traced pass checks this against the
            // program's own training counter.
            trainings: trained.len() as u64,
            digest: digest(&per_tenant[0]),
            cache,
            checks: vec![
                ("daemon_clean_stop", clean_stop),
                (
                    "tenants_identical",
                    digest(&per_tenant[0]) == digest(&per_tenant[1]),
                ),
                ("pass_two_all_cache_hits", warm_hits),
            ],
            sessions: per_tenant.into_iter().flatten().collect(),
            served: true,
            ..Unit::default()
        }
    }

    fn probe_inputs(&self) -> ProbeInputs {
        ProbeInputs {
            primary: self.spec.clone(),
            vision: TOY_VISION,
            sequence: TOY_SEQ,
            proxy: self.seeds.proxy(Self::TRAIN_STEPS as usize, 0, DAEMON),
            iterations: Self::ITERATIONS as usize,
        }
    }
}

// ---------------------------------------------------------------------------
// store_resume
// ---------------------------------------------------------------------------

/// Cold searches journaling into a pre-populated repository through a
/// writer shard, reopen (replay), the identical searches warm, compact,
/// reopen: the journal's write path beside its read path, at a paper-scale
/// record count.
struct StoreResume {
    seeds: Seeds,
    /// One spec per search of a unit, tagged apart so that within a unit no
    /// search recalls what an earlier one journaled: the cold half stays
    /// all trainings, the warm half all recalls.
    specs: Vec<Spec>,
    scratch: Scratch,
    /// Repository holding only the synthetic records; copied per unit.
    template: PathBuf,
}

impl StoreResume {
    const SEARCHES: u64 = 3;
    const ITERATIONS: usize = 350;
    const TRAIN_STEPS: usize = 6;
    /// Journal records written in set-up: one candidate, one score and one
    /// latency record per synthetic hash.
    const PREPOPULATED_RECORDS: u64 = 20_000;
    /// Synthetic hashes live here; a real content hash landing in the
    /// range is a 2⁻¹⁶ event per candidate and would only skip one append.
    const RESERVED: u64 = 0x5EED_0000_0000_0000;
    const WRITER: &'static str = "bench";

    fn new(seeds: Seeds, rec: &Recorder) -> Result<StoreResume, String> {
        let mut workload = StoreResume {
            seeds,
            specs: (0..Self::SEARCHES)
                .map(|i| TOY_SEQ.tagged(Some(i)))
                .collect(),
            scratch: Scratch::new("store_resume")?,
            template: PathBuf::new(),
        };
        workload.template = workload.scratch.fresh();
        // Unit 0's searches without a store; their graphs become the
        // synthetic records' payloads.
        let graphs = Unit::sequential(workload.searches(0, None, true, None)).graphs();
        if graphs.is_empty() {
            return Err("store_resume found no candidate to pre-populate the journal with".into());
        }
        rec.within("prepopulate", 0, 0, || {
            prepopulate(&workload.template, &graphs)
        })
        .map_err(|e| format!("pre-populate journal: {e}"))?;
        Ok(workload)
    }

    /// The unit's searches, back to back. `clock` moves the start of the
    /// first one's wait back to when the caller began opening the store.
    fn searches(
        &self,
        unit: u64,
        store: Option<&Arc<Store>>,
        keep_graphs: bool,
        clock: Option<Instant>,
    ) -> Vec<Session> {
        (0..Self::SEARCHES)
            .map(|i| {
                let job = SearchJob {
                    label: &format!("store-resume-{i}"),
                    spec: &self.specs[i as usize],
                    iterations: Self::ITERATIONS,
                    seed: self.seeds.mcts(unit, i),
                    proxy: self.seeds.proxy(Self::TRAIN_STEPS, unit, i),
                    eval_workers: 1,
                    store: store.cloned(),
                    max_flops: None,
                };
                run_search(&job, keep_graphs, clock.filter(|_| i == 0))
            })
            .collect()
    }

    fn open(dir: &Path) -> Result<Arc<Store>, String> {
        StoreBuilder::new(dir)
            .writer(Self::WRITER)
            .open()
            .map(Arc::new)
            .map_err(|e| e.to_string())
    }

    fn cycle(
        &mut self,
        index: u64,
        warm_up: bool,
        rec: &Recorder,
        parent: u64,
    ) -> Result<Unit, String> {
        let dir = self.scratch.fresh();
        copy_dir(&self.template, &dir).map_err(|e| format!("copy template: {e}"))?;

        let store = Self::open(&dir)?;
        let cold = rec.within("cold_run", parent, index, || {
            self.searches(index, Some(&store), warm_up, None)
        });
        drop(store);

        let clock = Instant::now();
        let store = rec.within("reopen", parent, index, || Self::open(&dir))?;
        let warm = rec.within("warm_run", parent, index, || {
            self.searches(index, Some(&store), false, Some(clock))
        });
        let resume_s = clock.elapsed().as_secs_f64();

        let before = store.stats();
        let compacted = rec
            .within("compact", parent, index, || store.compact())
            .map_err(|e| e.to_string())?;
        drop(store);
        let after = rec
            .within("reopen", parent, index, || Self::open(&dir))?
            .stats();
        let _ = std::fs::remove_dir_all(&dir);

        let checks = vec![
            ("cold_equals_warm", digest(&cold) == digest(&warm)),
            (
                "warm_ran_no_training",
                warm.iter()
                    .all(|s| s.trained.is_empty() && s.cache_hits == s.delivered()),
            ),
            (
                "compaction_keeps_candidates",
                before.candidates == compacted.candidates
                    && before.candidates == after.candidates
                    && before.scored == after.scored,
            ),
        ];
        let mut unit = Unit::sequential(cold);
        // `ttfc_s` on this workload is the resume's alone: reopen to the
        // first recalled candidate.
        for (i, session) in unit.sessions.iter_mut().enumerate() {
            session.ttfc_s = warm[i].ttfc_s.filter(|_| i == 0);
            session.failed |= warm[i].failed;
        }
        Ok(Unit {
            resume_s,
            extra_delivered: warm.iter().map(Session::delivered).sum(),
            cache: Some((before.cache_hits, before.lookups)),
            checks,
            ..unit
        })
    }
}

impl Workload for StoreResume {
    fn unit(&mut self, index: u64, warm_up: bool, rec: &Recorder, parent: u64) -> Unit {
        self.cycle(index, warm_up, rec, parent)
            .unwrap_or_else(|error| {
                eprintln!("store_resume unit {index}: {error}");
                Unit::failed(Self::SEARCHES as usize)
            })
    }

    fn probe_inputs(&self) -> ProbeInputs {
        ProbeInputs {
            primary: TOY_SEQ.spec(),
            vision: TOY_VISION,
            sequence: TOY_SEQ,
            proxy: self.seeds.proxy(Self::TRAIN_STEPS, 0, 0),
            iterations: Self::ITERATIONS,
        }
    }
}

/// Writes [`StoreResume::PREPOPULATED_RECORDS`] records into a new
/// repository at `dir` under synthetic hashes, cycling through `graphs`.
fn prepopulate(dir: &Path, graphs: &[PGraph]) -> Result<(), syno::StoreError> {
    let store = StoreBuilder::new(dir).open()?;
    let contract = ScoreContract::new("sequence", ExecPolicy::default().reduce_width as u32);
    for i in 0..StoreResume::PREPOPULATED_RECORDS / 3 {
        let hash = StoreResume::RESERVED | i;
        store.put_candidate(hash, &graphs[i as usize % graphs.len()])?;
        store.put_score(hash, 0.25 + (i % 512) as f64 / 1024.0, &contract)?;
        store.put_latency(hash, "mobile-cpu", "tvm", 1e-4 * (1 + i % 97) as f64)?;
    }
    Ok(())
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}
