//! Discover convolution substitutes with the streaming `Session` search:
//! MCTS synthesis, accuracy-proxy scoring, and per-device latency tuning,
//! with live events printed as the pipeline advances — the full Algorithm 1
//! pipeline at toy scale.
//!
//! Run with: `cargo run --release --example discover_substitute`

use syno::compiler::Device;
use syno::nn::{ProxyConfig, TrainConfig};
use syno::search::MctsConfig;
use syno::{SearchEvent, Session};

fn main() {
    let session = Session::builder()
        .primary("N", 8)
        .primary("Cin", 4)
        .primary("Cout", 8)
        .primary("H", 8)
        .primary("W", 8)
        .coefficient("k", 3)
        .build()
        .expect("session builds");

    let spec = session
        .spec(&["N", "Cin", "H", "W"], &["N", "Cout", "H", "W"])
        .expect("spec builds");

    // Tune every candidate for all three platforms (the search default is
    // the mobile CPU alone).
    let run = session
        .scenario("conv", &spec)
        .devices(Device::all())
        .mcts(MctsConfig {
            iterations: 40,
            seed: 1,
            ..MctsConfig::default()
        })
        .proxy(ProxyConfig {
            train: TrainConfig {
                steps: 15,
                batch: 8,
                eval_batches: 2,
                ..TrainConfig::default()
            },
            ..ProxyConfig::default()
        })
        .start()
        .expect("run starts");
    for event in run.events() {
        match event {
            SearchEvent::ProxyScored { id, accuracy, .. } => {
                println!("scored   {id:>20}  accuracy {accuracy:.3}");
            }
            SearchEvent::Progress {
                iterations,
                total_iterations,
                discovered,
                ..
            } => {
                println!("progress {iterations}/{total_iterations} iterations, {discovered} operators");
            }
            _ => {}
        }
    }
    let report = run.join().expect("search finishes");

    println!(
        "\ndiscovered {} candidate operators in {:?} ({} MCTS steps, stop: {:?})",
        report.candidates.len(),
        report.wall,
        report.steps,
        report.stopped
    );
    println!(
        "{:<6} {:>9} {:>12} {:>10} {:>12} {:>12} {:>12}",
        "rank", "accuracy", "flops", "params", "cpu(us)", "mgpu(us)", "a100(us)"
    );
    for (i, c) in report.candidates.iter().take(10).enumerate() {
        println!(
            "{:<6} {:>9.3} {:>12} {:>10} {:>12.1} {:>12.1} {:>12.1}",
            i + 1,
            c.accuracy,
            c.flops,
            c.params,
            c.latencies[0] * 1e6,
            c.latencies[1] * 1e6,
            c.latencies[2] * 1e6
        );
    }
}
