//! Sharded-repository probe: multiple OS-process writers appending to one
//! repository directory through their own journal shards
//! (`StoreBuilder::writer`), then fan-in [`compact`](Store::compact) and a
//! deterministic `derive_union` over the per-run candidate sets.
//!
//! Two consumers share this module:
//!
//! * the `bench_search` binary's `store_sharded` section — wall clock of
//!   two *concurrent* writer processes vs the same two searches run by
//!   one writer sequentially;
//! * the `multi_writer_smoke` binary — the CI gating step: zero lost
//!   records after fan-in compaction and byte-stable `derive_union`
//!   output across repeat runs.
//!
//! Both binaries re-exec themselves as the writer children: a process
//! whose environment carries [`ENV_WRITER`] runs one small search against
//! the shared repository dir and exits, so the concurrency under test is
//! real process-level concurrency over the shard files, not threads.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

use syno_search::{MctsConfig, SearchBuilder};
use syno_store::{DeriveOp, Record, Store, StoreBuilder};

use crate::search_pipeline::{bench_proxy, bench_scenario};

/// Shard writer name for the re-exec'd child (empty = canonical segment).
pub const ENV_WRITER: &str = "SYNO_SHARD_WRITER";
const ENV_DIR: &str = "SYNO_SHARD_DIR";
const ENV_LABEL: &str = "SYNO_SHARD_LABEL";
const ENV_SEED: &str = "SYNO_SHARD_SEED";
const ENV_ITERS: &str = "SYNO_SHARD_ITERS";
const ENV_PROXY_STEPS: &str = "SYNO_SHARD_PROXY_STEPS";

/// Child mode: when [`ENV_WRITER`] is present, run one writer search
/// against the repository dir named by the companion env vars and return
/// `true` (the caller's `main` should then return immediately). Call this
/// first in any binary that spawns writers via [`spawn_writer`].
pub fn run_writer_from_env() -> bool {
    let Ok(writer) = std::env::var(ENV_WRITER) else {
        return false;
    };
    let dir = PathBuf::from(std::env::var(ENV_DIR).expect("writer child needs SYNO_SHARD_DIR"));
    let label = std::env::var(ENV_LABEL).expect("writer child needs SYNO_SHARD_LABEL");
    let seed: u64 = std::env::var(ENV_SEED)
        .expect("writer child needs SYNO_SHARD_SEED")
        .parse()
        .expect("SYNO_SHARD_SEED is a u64");
    let iterations: usize = std::env::var(ENV_ITERS)
        .expect("writer child needs SYNO_SHARD_ITERS")
        .parse()
        .expect("SYNO_SHARD_ITERS is a usize");
    let proxy_steps: usize = std::env::var(ENV_PROXY_STEPS)
        .expect("writer child needs SYNO_SHARD_PROXY_STEPS")
        .parse()
        .expect("SYNO_SHARD_PROXY_STEPS is a usize");
    run_writer(&dir, &writer, &label, seed, iterations, proxy_steps);
    true
}

/// One writer's workload: open the shared repository (through the named
/// shard, or the canonical segment when `writer` is empty) and run a
/// small deterministic search against it. The search journals its
/// candidates, scores, checkpoints, operation log, and the per-run
/// `CandidateSet` named after `label`.
pub fn run_writer(
    dir: &Path,
    writer: &str,
    label: &str,
    seed: u64,
    iterations: usize,
    proxy_steps: usize,
) {
    let mut builder = StoreBuilder::new(dir);
    if !writer.is_empty() {
        builder = builder.writer(writer);
    }
    let store = Arc::new(builder.open().expect("writer opens its shard"));
    let (vars, spec) = bench_scenario();
    let report = SearchBuilder::new()
        .scenario(label, &vars, &spec)
        .mcts(MctsConfig {
            iterations,
            seed,
            ..MctsConfig::default()
        })
        .proxy(bench_proxy(proxy_steps))
        .store(store)
        .run()
        .expect("writer search runs");
    eprintln!(
        "writer '{}' ({label}): {} candidates",
        if writer.is_empty() { "journal" } else { writer },
        report.candidates.len()
    );
}

/// Re-execs the current binary as one writer child. The caller's `main`
/// must begin with [`run_writer_from_env`].
pub fn spawn_writer(
    dir: &Path,
    writer: &str,
    label: &str,
    seed: u64,
    iterations: usize,
    proxy_steps: usize,
) -> std::io::Result<std::process::Child> {
    let exe = std::env::current_exe()?;
    Command::new(exe)
        .env(ENV_WRITER, writer)
        .env(ENV_DIR, dir)
        .env(ENV_LABEL, label)
        .env(ENV_SEED, seed.to_string())
        .env(ENV_ITERS, iterations.to_string())
        .env(ENV_PROXY_STEPS, proxy_steps.to_string())
        .spawn()
}

/// The two scenarios every pass runs: distinct labels and seeds so the
/// shards hold overlapping-but-different candidate populations.
const SCENARIOS: [(&str, u64); 2] = [("shard-a", 11), ("shard-b", 23)];

/// Result of one concurrent two-writer pass over a fresh repository.
#[derive(Clone, Debug)]
pub struct TwoWriterPass {
    /// Wall-clock seconds from first spawn to last exit.
    pub wall_secs: f64,
    /// Candidates in the merged repository after both writers exited.
    pub candidates: u64,
    /// Journal segments the merged repository replayed (canonical + one
    /// shard per writer).
    pub segments: u64,
    /// Run-set member hashes whose graph is missing from the merged,
    /// compacted repository (must be 0 — the zero-lost-records contract).
    pub lost_records: usize,
    /// Members of `derive_union(shard-a, shard-b)` after compaction.
    pub union_len: usize,
    /// Stable digest of the union set.
    pub union_digest: u64,
    /// Canonical record encoding of the union set — byte-stable across
    /// repeat passes by the derive-determinism contract.
    pub union_bytes: Vec<u8>,
}

fn wait_ok(child: std::io::Result<std::process::Child>, what: &str) -> std::process::Child {
    child.unwrap_or_else(|e| panic!("spawn {what}: {e}"))
}

/// Spawns both writers concurrently against a fresh repository at `dir`,
/// waits for them, fan-in compacts, and checks the lost-record and
/// derive contracts. Panics when a writer process fails.
pub fn two_writer_pass(dir: &Path, iterations: usize, proxy_steps: usize) -> TwoWriterPass {
    let _ = std::fs::remove_dir_all(dir);
    let started = Instant::now();
    let children: Vec<_> = SCENARIOS
        .iter()
        .enumerate()
        .map(|(i, (label, seed))| {
            let writer = format!("w{}", i + 1);
            wait_ok(
                spawn_writer(dir, &writer, label, *seed, iterations, proxy_steps),
                label,
            )
        })
        .collect();
    for (mut child, (label, _)) in children.into_iter().zip(SCENARIOS) {
        let status = child.wait().expect("wait for writer");
        assert!(status.success(), "writer '{label}' failed: {status}");
    }
    let wall_secs = started.elapsed().as_secs_f64();

    // A fresh canonical-segment handle sees every shard's records.
    let store = Store::open(dir).expect("merged repository opens");
    let stats = store.stats();
    let segments = stats.segments;
    let run_sets: Vec<_> = SCENARIOS
        .iter()
        .map(|(label, _)| {
            store
                .candidate_set(label)
                .unwrap_or_else(|| panic!("run set '{label}' survives the merge"))
        })
        .collect();
    store.compact().expect("fan-in compaction succeeds");
    let lost_records = run_sets
        .iter()
        .flat_map(|set| set.hashes())
        .filter(|&&hash| store.graph(hash).is_err())
        .count();
    let union = store
        .derive(DeriveOp::Union, "shard-union", "shard-a", "shard-b")
        .expect("derive_union after compaction");
    TwoWriterPass {
        wall_secs,
        candidates: stats.candidates,
        segments,
        lost_records,
        union_len: union.len(),
        union_digest: union.digest(),
        union_bytes: Record::CandidateSet(union).encode_payload(),
    }
}

/// Runs the same two searches through one canonical writer, sequentially
/// (one child process at a time — the same per-process cost as the
/// concurrent pass, minus the concurrency). Returns (wall_secs,
/// candidates).
pub fn one_writer_baseline(dir: &Path, iterations: usize, proxy_steps: usize) -> (f64, u64) {
    let _ = std::fs::remove_dir_all(dir);
    let started = Instant::now();
    for (label, seed) in SCENARIOS {
        let mut child = wait_ok(
            spawn_writer(dir, "", label, seed, iterations, proxy_steps),
            label,
        );
        let status = child.wait().expect("wait for writer");
        assert!(status.success(), "baseline writer '{label}' failed: {status}");
    }
    let wall_secs = started.elapsed().as_secs_f64();
    let store = Store::open(dir).expect("baseline repository opens");
    (wall_secs, store.stats().candidates)
}

/// The `store_sharded` bench section.
#[derive(Clone, Debug)]
pub struct StoreShardedData {
    /// MCTS iterations per writer.
    pub iterations: usize,
    /// Sequential single-writer wall clock for both searches.
    pub one_writer_secs: f64,
    /// Candidates the single-writer repository holds.
    pub one_writer_candidates: u64,
    /// Concurrent two-writer wall clock for the same searches.
    pub two_writer_secs: f64,
    /// Candidates the merged two-writer repository holds.
    pub two_writer_candidates: u64,
    /// one-writer / two-writer wall — >1 means concurrency won.
    pub speedup: f64,
    /// Segments the merged repository replayed before compaction.
    pub segments: u64,
    /// Whether no run-set member lost its graph across merge + compaction.
    pub zero_lost_records: bool,
    /// Whether two independent passes produced byte-identical
    /// `derive_union` records.
    pub derive_union_deterministic: bool,
    /// Members of the derived union set.
    pub union_len: usize,
}

/// Runs the full section: sequential baseline, then two independent
/// concurrent passes (the repeat pass checks derive byte-stability).
pub fn store_sharded_data(iterations: usize, proxy_steps: usize) -> StoreShardedData {
    let root = std::env::temp_dir().join(format!("syno-bench-sharded-{}", std::process::id()));
    let baseline_dir = root.join("one-writer");
    let (one_writer_secs, one_writer_candidates) =
        one_writer_baseline(&baseline_dir, iterations, proxy_steps);
    let first = two_writer_pass(&root.join("two-writers-1"), iterations, proxy_steps);
    let second = two_writer_pass(&root.join("two-writers-2"), iterations, proxy_steps);
    let data = StoreShardedData {
        iterations,
        one_writer_secs,
        one_writer_candidates,
        two_writer_secs: first.wall_secs,
        two_writer_candidates: first.candidates,
        speedup: one_writer_secs / first.wall_secs.max(1e-9),
        segments: first.segments,
        zero_lost_records: first.lost_records == 0 && second.lost_records == 0,
        derive_union_deterministic: first.union_bytes == second.union_bytes
            && first.union_digest == second.union_digest,
        union_len: first.union_len,
    };
    let _ = std::fs::remove_dir_all(&root);
    data
}
