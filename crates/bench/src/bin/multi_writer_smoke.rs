//! CI smoke test for the sharded candidate repository: two concurrent OS
//! processes each run a small search against the same repository
//! directory through their own journal shards (`StoreBuilder::writer`),
//! the parent fan-in compacts, and the run asserts (a) **zero lost
//! records** — every member of both per-run candidate sets still resolves
//! to its graph after the merge + compaction — and (b) **byte-stable
//! derives** — a second, independent pass produces a bit-identical
//! `derive_union` record.
//!
//! Exits nonzero on any violation; CI runs this as a gating step.
//!
//! The binary re-execs itself as the writer children: a process whose
//! environment carries [`ENV_WRITER`] runs one small search against the
//! shared repository dir and exits, so the concurrency under test is real
//! process-level concurrency over the shard files, not threads.

use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::sync::Arc;
use std::time::Instant;

use syno_core::size::Size;
use syno_core::spec::{OperatorSpec, TensorShape};
use syno_core::var::{VarKind, VarTable};
use syno_nn::{ProxyConfig, TrainConfig};
use syno_search::{MctsConfig, SearchBuilder};
use syno_store::{DeriveOp, Record, Store, StoreBuilder};

/// MCTS iterations per writer.
const ITERATIONS: usize = 10;
/// Proxy train steps per candidate.
const PROXY_STEPS: usize = 3;

/// Shard writer name for the re-exec'd child. This and the three below are
/// the parent → child hand-off of the re-exec, not user options.
const ENV_WRITER: &str = "SYNO_SHARD_WRITER";
const ENV_DIR: &str = "SYNO_SHARD_DIR";
const ENV_LABEL: &str = "SYNO_SHARD_LABEL";
const ENV_SEED: &str = "SYNO_SHARD_SEED";

/// The two scenarios every pass runs: distinct labels and seeds so the
/// shards hold overlapping-but-different candidate populations.
const SCENARIOS: [(&str, u64); 2] = [("shard-a", 11), ("shard-b", 23)];

/// The 4-D conv-like spec the accuracy proxy can score — the same shape
/// family as the search integration tests.
fn conv_scenario() -> (Arc<VarTable>, OperatorSpec) {
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

/// Child mode: when [`ENV_WRITER`] is present, this process is one writer.
/// It opens the shared repository named by the companion env vars through
/// its shard, runs a small deterministic search against it — journaling
/// candidates, scores, checkpoints and the per-run `CandidateSet` named
/// after the label — and returns `true` (`main` then returns immediately).
fn run_writer_from_env() -> bool {
    let Ok(writer) = std::env::var(ENV_WRITER) else {
        return false;
    };
    let dir = PathBuf::from(std::env::var(ENV_DIR).expect("writer child needs SYNO_SHARD_DIR"));
    let label = std::env::var(ENV_LABEL).expect("writer child needs SYNO_SHARD_LABEL");
    let seed: u64 = std::env::var(ENV_SEED)
        .expect("writer child needs SYNO_SHARD_SEED")
        .parse()
        .expect("SYNO_SHARD_SEED is a u64");
    let store = StoreBuilder::new(dir)
        .writer(&writer)
        .open()
        .expect("writer opens its shard");
    let (vars, spec) = conv_scenario();
    let report = SearchBuilder::new()
        .scenario(&label, &vars, &spec)
        .mcts(MctsConfig {
            iterations: ITERATIONS,
            seed,
            ..MctsConfig::default()
        })
        .proxy(ProxyConfig {
            train: TrainConfig {
                steps: PROXY_STEPS,
                batch: 4,
                eval_batches: 1,
                ..TrainConfig::default()
            },
            ..ProxyConfig::default()
        })
        .store(Arc::new(store))
        .run()
        .expect("writer search runs");
    eprintln!(
        "writer '{writer}' ({label}): {} candidates",
        report.candidates.len()
    );
    true
}

/// Re-execs this binary as one writer child.
fn spawn_writer(dir: &Path, writer: &str, label: &str, seed: u64) -> std::io::Result<Child> {
    Command::new(std::env::current_exe()?)
        .env(ENV_WRITER, writer)
        .env(ENV_DIR, dir)
        .env(ENV_LABEL, label)
        .env(ENV_SEED, seed.to_string())
        .spawn()
}

/// Result of one concurrent two-writer pass over a fresh repository.
struct TwoWriterPass {
    /// Wall-clock seconds from first spawn to last exit.
    wall_secs: f64,
    /// Candidates in the merged repository after both writers exited.
    candidates: u64,
    /// Journal segments the merged repository replayed (canonical + one
    /// shard per writer).
    segments: u64,
    /// Run-set member hashes whose graph is missing from the merged,
    /// compacted repository (must be 0 — the zero-lost-records contract).
    lost_records: usize,
    /// Members of `derive_union(shard-a, shard-b)` after compaction.
    union_len: usize,
    /// Stable digest of the union set.
    union_digest: u64,
    /// Canonical record encoding of the union set — byte-stable across
    /// repeat passes by the derive-determinism contract.
    union_bytes: Vec<u8>,
}

/// Spawns both writers concurrently against a fresh repository at `dir`,
/// waits for them, fan-in compacts, and checks the lost-record and
/// derive contracts. Panics when a writer process fails.
fn two_writer_pass(dir: &Path) -> TwoWriterPass {
    let _ = std::fs::remove_dir_all(dir);
    let started = Instant::now();
    let children: Vec<_> = SCENARIOS
        .iter()
        .enumerate()
        .map(|(i, (label, seed))| {
            spawn_writer(dir, &format!("w{}", i + 1), label, *seed)
                .unwrap_or_else(|e| panic!("spawn {label}: {e}"))
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
        segments: stats.segments,
        lost_records,
        union_len: union.len(),
        union_digest: union.digest(),
        union_bytes: Record::CandidateSet(union).encode_payload(),
    }
}

fn main() {
    if run_writer_from_env() {
        return;
    }
    let root = std::env::temp_dir().join(format!("syno-multi-writer-smoke-{}", std::process::id()));

    eprintln!("multi-writer smoke: 2 writer processes x {ITERATIONS} iterations, two passes ...");
    let passes: Vec<_> = (1..=2)
        .map(|i| {
            let pass = two_writer_pass(&root.join(format!("pass-{i}")));
            println!(
                "pass {i}: {:.3}s wall, {} candidates over {} segments, {} lost, \
                 union {} members (digest {:#018x})",
                pass.wall_secs,
                pass.candidates,
                pass.segments,
                pass.lost_records,
                pass.union_len,
                pass.union_digest,
            );
            pass
        })
        .collect();
    let _ = std::fs::remove_dir_all(&root);

    let mut ok = true;
    for (i, pass) in passes.iter().enumerate() {
        if pass.segments != 3 {
            eprintln!(
                "FAIL pass {}: expected 3 segments (canonical + 2 shards), saw {}",
                i + 1,
                pass.segments
            );
            ok = false;
        }
        if pass.lost_records != 0 {
            eprintln!(
                "FAIL pass {}: {} run-set members lost their graph across merge + compaction",
                i + 1,
                pass.lost_records
            );
            ok = false;
        }
        if pass.union_len == 0 {
            eprintln!("FAIL pass {}: derive_union came back empty", i + 1);
            ok = false;
        }
    }
    if passes[0].union_bytes != passes[1].union_bytes
        || passes[0].union_digest != passes[1].union_digest
    {
        eprintln!(
            "FAIL: derive_union is not byte-stable across repeat runs \
             (digests {:#018x} vs {:#018x}, {} vs {} bytes)",
            passes[0].union_digest,
            passes[1].union_digest,
            passes[0].union_bytes.len(),
            passes[1].union_bytes.len(),
        );
        ok = false;
    }
    if !ok {
        std::process::exit(1);
    }
    println!("multi-writer smoke: zero lost records, derive_union byte-stable");
}
