//! Telemetry tour: run a small search with tracing + metrics enabled,
//! then inspect everything the `syno-telemetry` crate collected —
//!
//! * the **metrics registry** rendered as Prometheus exposition text
//!   (counters/gauges/histograms named `syno_<crate>_<name>`);
//! * the **span log** drained from the per-thread ring buffers, as a
//!   flamegraph-style nesting summary;
//! * the **per-phase wall breakdown** the search report carries.
//!
//! Telemetry is strictly out-of-band: the same run with it disabled
//! discovers the bit-identical candidate set, and every instrument
//! degrades to one relaxed atomic load when off.
//!
//! Run with: `cargo run --example metrics_dump`

use syno::nn::{ProxyConfig, TrainConfig};
use syno::telemetry::{metrics, trace};
use syno::Session;

fn main() {
    // Everything below records only while the global switch is on.
    syno::telemetry::set_enabled(true);

    let session = Session::builder()
        .primary("N", 4)
        .primary("Cin", 3)
        .primary("Cout", 4)
        .primary("W", 8)
        .coefficient("k", 3)
        .build()
        .expect("session builds");
    let spec = session
        .spec(&["N", "Cin", "W", "W"], &["N", "Cout", "W", "W"])
        .expect("spec builds");
    let report = session
        .scenario("conv", &spec)
        .proxy(ProxyConfig {
            train: TrainConfig {
                steps: 4,
                batch: 4,
                eval_batches: 1,
                ..TrainConfig::default()
            },
            ..ProxyConfig::default()
        })
        .max_steps(40)
        .start()
        .expect("search starts")
        .join()
        .expect("search finishes");

    // 1. The report's own phase split (also served live by `syno-serve`'s
    //    status frames while a session runs).
    println!(
        "search finished: {} candidates in {:.1?}",
        report.candidates.len(),
        report.wall
    );
    println!("phases: {}", report.phases);
    // Every candidate trained on the same task batches, each generated once:
    // `steps + eval_batches` of them, however many trainings ran.
    let counter = |name| metrics::global().counter(name).get();
    println!(
        "task batches generated: {} for {} proxy trainings\n",
        counter("syno_nn_task_batches_total"),
        counter("syno_search_proxy_train_total")
    );

    // 2. The span log: drain every thread's ring buffer and summarize the
    //    nesting.
    let spans = trace::drain();
    println!("{}", trace::flame_summary(&spans));

    // 3. The metrics registry, rendered as deterministic (sorted)
    //    Prometheus exposition text. `*_seconds` series carry timings and
    //    therefore vary run to run; everything else is reproducible.
    print!("{}", metrics::global().render());
}
