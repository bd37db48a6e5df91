//! The whole Algorithm 1 pipeline across crates through the public facade:
//! synthesize, train the proxy, and price the candidates — via the
//! `Session` API.

use syno::compiler::{CompilerKind, Device};
use syno::core::prelude::*;
use syno::nn::{ProxyConfig, TrainConfig};
use syno::search::MctsConfig;
use syno::Session;

fn quick_proxy() -> ProxyConfig {
    ProxyConfig {
        train: TrainConfig {
            steps: 5,
            batch: 8,
            eval_batches: 1,
            ..TrainConfig::default()
        },
        ..ProxyConfig::default()
    }
}

#[test]
fn session_search_discovers_priced_candidates() {
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
        .unwrap();
    let report = session
        .scenario("conv", &spec)
        .devices(vec![Device::mobile_cpu(), Device::server_gpu()])
        .compiler(CompilerKind::Tvm)
        .proxy(quick_proxy())
        .mcts(MctsConfig {
            iterations: 10,
            seed: 3,
            ..MctsConfig::default()
        })
        .run()
        .expect("search finishes");
    assert!(!report.candidates.is_empty());
    for c in &report.candidates {
        assert!(c.graph.is_complete());
        assert_eq!(c.latencies.len(), 2);
        assert!(c.latencies.iter().all(|l| l.is_finite() && *l > 0.0));
        assert!(c.flops > 0);
    }
    for pair in report.candidates.windows(2) {
        assert!(pair[0].accuracy >= pair[1].accuracy);
    }
}

#[test]
fn flops_budget_is_a_hard_ceiling() {
    // §7.2: FLOPs are a hard limit, not part of the reward — expressed
    // through `SynthConfig::max_flops`.
    let session = Session::builder()
        .primary("H", 16)
        .coefficient("s", 2)
        .build()
        .unwrap();
    let spec = session.spec(&["H"], &["H/s"]).unwrap();
    let config = SynthConfig {
        max_flops: Some(8), // nothing real fits
        ..SynthConfig::auto(session.vars(), 3)
    };
    let mut driver = Enumerator::new(config).synthesis(session.vars(), &spec);
    let mut found = 0;
    while let Some(item) = driver.next_operator() {
        if item.is_ok() {
            found += 1;
        }
    }
    assert_eq!(found, 0);
    assert!(driver.stats().expanded > 0);
}
