//! Quickstart: synthesize pooling-like operators for `[H] -> [H/s]` with
//! the `Session` facade, execute the best one on real data through both
//! code generators, then search a conv-like spec with a persistent store
//! attached so the next run recalls evaluations instead of recomputing.
//!
//! Run with: `cargo run --example quickstart` (twice, to see cache hits)

use syno::ir::{eager, lower_optimized};
use syno::nn::{ProxyConfig, TrainConfig};
use syno::tensor::Tensor;
use syno::{SearchEvent, Session};

fn main() {
    // 0. Turn on telemetry (off by default, near-zero cost either way):
    //    search runs then split their wall clock by phase in the report.
    syno::telemetry::set_enabled(true);

    // 1. Declare symbolic shapes with one concrete valuation, and attach a
    //    persistent candidate store: search evaluations journal there and
    //    are recalled across runs (delete the directory to start cold).
    let store_dir = std::env::temp_dir().join("syno-quickstart-store");
    let session = Session::builder()
        .primary("H", 16)
        .primary("N", 4)
        .primary("Cin", 3)
        .primary("Cout", 4)
        .primary("W", 8)
        .coefficient("s", 2)
        .coefficient("k", 3)
        .store(&store_dir)
        .build()
        .expect("session builds");

    // 2. Ask for operators mapping [H] to [H/s].
    let spec = session.spec(&["H"], &["H/s"]).expect("spec builds");

    // 3. Stream canonical operators of at most 3 primitives (Algorithm 1
    //    with shape-distance pruning) — the driver suspends between
    //    discoveries, so taking a few costs only a few.
    let mut driver = session.synthesis(&spec, 3);
    let found: Vec<_> = driver
        .by_ref()
        .take(8)
        .collect::<Result<Vec<_>, _>>()
        .expect("synthesis yields operators");
    println!("streamed {} operators ({:?})", found.len(), driver.stats());

    // 4. Execute the first discovery on concrete data with both backends.
    let graph = &found[0];
    println!("operator:\n{}", graph.render());
    let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[16]);
    let weights: Vec<Tensor> = eager::weight_shapes(graph, 0)
        .expect("weight shapes")
        .iter()
        .map(|shape| Tensor::ones(shape))
        .collect();
    let eager_out = eager::execute(graph, 0, &x, &weights).expect("eager executes");
    let kernel = lower_optimized(graph, 0).expect("lowers");
    let kernel_out = kernel.execute(&x, &weights);
    assert!(eager_out.allclose(&kernel_out, 1e-4));
    println!("output: {:?}", eager_out.data());
    println!("both code generators agree; kernel flops = {}", kernel.flops());

    // 5. Search a conv-like spec with the store attached: proxy-train +
    //    latency-tune every discovery, journaling results. Re-run this
    //    example and the same candidates come back as CacheHit events — no
    //    retraining (watch `recalled` flip from 0 to nonzero). Run settings
    //    (devices, proxy, MCTS, evaluator threads) go on the search builder.
    let conv = session
        .spec(&["N", "Cin", "W", "W"], &["N", "Cout", "W", "W"])
        .expect("spec builds");
    let run = session
        .scenario("conv", &conv)
        .proxy(ProxyConfig {
            train: TrainConfig {
                steps: 4,
                batch: 4,
                eval_batches: 1,
                ..TrainConfig::default()
            },
            ..ProxyConfig::default()
        })
        // Train two candidates at a time, each on its own thread. The worker
        // count never moves a score bit; `TrainConfig::exec`'s reduction
        // width (left at the pinned default) is the knob that does, and
        // stored scores are tagged with it so a cache hit always means
        // "same value contract".
        .eval_workers(2)
        .max_steps(12)
        .start()
        .expect("search starts");
    let (mut fresh, mut recalled) = (0usize, 0usize);
    for event in run.events() {
        match event {
            SearchEvent::LatencyTuned { .. } => fresh += 1,
            SearchEvent::CacheHit { .. } => recalled += 1,
            _ => {}
        }
    }
    let report = run.join().expect("search finishes");
    let stats = session.store().expect("store attached").stats();
    println!(
        "search: {fresh} evaluated, {recalled} recalled from {} \
         ({} candidates journaled, {} cache hits served)",
        store_dir.display(),
        stats.candidates,
        stats.cache_hits,
    );
    // Telemetry (step 0) splits the report's wall clock by phase: tree
    // search vs proxy training vs store traffic vs latency tuning.
    println!("phases: {} (wall {:.1?})", report.phases, report.wall);
}
