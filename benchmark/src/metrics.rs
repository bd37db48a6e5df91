//! The metric contract: every name the benchmark prints, with its unit, in
//! print order. `BENCHMARK.json` repeats these lists (a unit test keeps the
//! two equal); direction and regression bounds live only there.

use crate::host::CRATES;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
}

fn metric(name: &str, unit: &'static str) -> Metric {
    Metric {
        name: name.to_owned(),
        unit,
    }
}

/// What a user of the system sees. Defined on every workload (README.md
/// says what each means where the workload has no native notion of it).
pub fn end_to_end() -> Vec<Metric> {
    vec![
        metric("setup_s", "s"),
        metric("wall_s", "s"),
        metric("candidates_per_s", "1/s"),
        metric("session_p50_s", "s"),
        metric("session_p90_s", "s"),
        metric("trainings_per_candidate", "ratio"),
        metric("peak_rss_mb", "MiB"),
    ]
}

/// One number per layer boundary, measured in the traced pass.
pub fn per_layer() -> Vec<Metric> {
    let mut list = vec![
        metric("core.synth.rollout_us", "us"),
        metric("core.synth.rollout_complete_frac", "ratio"),
        metric("core.synth.children_us", "us"),
        metric("core.synth.enumerate_ops_per_s", "1/s"),
        metric("core.synth.expanded_per_result", "ratio"),
        metric("core.canon.allows_ns", "ns"),
        metric("core.canon.reject_frac", "ratio"),
        metric("core.distance.shape_distance_ns", "ns"),
        metric("core.graph.apply_us", "us"),
        metric("core.graph.content_hash_ns", "ns"),
        metric("core.codec.encode_graph_us", "us"),
        metric("core.codec.decode_graph_us", "us"),
        metric("core.codec.graph_bytes", "bytes"),
        metric("ir.lower.lower_optimized_us", "us"),
        metric("ir.plan.compile_us", "us"),
        metric("ir.plan.execute_us", "us"),
        metric("ir.plan.fused_stage_frac", "ratio"),
        metric("ir.eager.record_us", "us"),
        metric("tensor.einsum.plan_compile_us", "us"),
        metric("tensor.einsum.conv_gflops", "GFLOP/s"),
        metric("tensor.einsum.seq_gflops", "GFLOP/s"),
        metric("tensor.einsum.matmul_gflops", "GFLOP/s"),
        metric("tensor.autodiff.fwd_bwd_us", "us"),
        metric("tensor.exec.threads1_overhead_frac", "ratio"),
        metric("tensor.exec.threads2_speedup", "ratio"),
        metric("nn.train.step_ms", "ms"),
        metric("nn.proxy.score_ms", "ms"),
        metric("nn.seq.score_ms", "ms"),
        metric("compiler.compile.tune_us", "us"),
        metric("search.run.synth_frac", "ratio"),
        metric("search.run.eval_frac", "ratio"),
        metric("search.run.store_frac", "ratio"),
        metric("search.run.tune_frac", "ratio"),
        metric("search.run.idle_frac", "ratio"),
        metric("search.run.skipped_frac", "ratio"),
        metric("search.run.ttfc_ms", "ms"),
        metric("search.run.swallowed_panics", "count"),
        metric("search.mcts.iterations_per_s", "1/s"),
        metric("search.mcts.distinct_frac", "ratio"),
        metric("search.pool.eval_wait_frac", "ratio"),
        metric("search.coalesce.leaders", "count"),
        metric("search.coalesce.followers", "count"),
        metric("search.coalesce.train_ratio", "ratio"),
        metric("store.journal.append_us", "us"),
        metric("store.journal.bytes_per_candidate", "bytes"),
        metric("store.journal.replay_records_per_s", "1/s"),
        metric("store.journal.compact_s", "s"),
        metric("store.journal.recall_ns", "ns"),
        metric("store.journal.cache_hit_ratio", "ratio"),
        metric("store.journal.resume_s", "s"),
        metric("serve.protocol.encode_us", "us"),
        metric("serve.protocol.decode_us", "us"),
        metric("serve.protocol.event_frame_bytes", "bytes"),
        metric("serve.event_loop.status_rtt_idle_us", "us"),
        metric("serve.event_loop.status_rtt_busy_us", "us"),
        metric("serve.daemon.admit_us", "us"),
        metric("serve.daemon.overhead_frac", "ratio"),
        metric("telemetry.trace.overhead_frac", "ratio"),
        metric("telemetry.trace.span_ns", "ns"),
        metric("telemetry.trace.dropped", "count"),
        metric("code.lines_total", "count"),
        metric("code.pub_items_total", "count"),
    ];
    list.extend(
        CRATES
            .iter()
            .map(|name| metric(&format!("code.lines.{name}"), "count")),
    );
    list
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let names: Vec<String> = end_to_end()
            .into_iter()
            .chain(per_layer())
            .map(|m| m.name)
            .collect();
        assert_eq!(names.iter().collect::<BTreeSet<_>>().len(), names.len());
        for name in &names {
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        assert!(end_to_end().len() <= 16 && per_layer().len() <= 128);
    }

    /// `BENCHMARK.json` at the repository root lists exactly these metrics
    /// and workloads; a rename in one place fails here.
    #[test]
    fn benchmark_json_matches_this_contract() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
            .unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .expect(key)
                .as_arr()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_owned();
                    assert!(["lower", "higher"].contains(&field("better").as_str()));
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let ours = |list: Vec<Metric>| -> Vec<(String, String)> {
            list.into_iter()
                .map(|m| (m.name, m.unit.to_owned()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(end_to_end()));
        assert_eq!(listed("per_layer"), ours(per_layer()));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .filter_map(|w| w.get("name")?.as_str())
            .collect();
        // The contract leaves two of the five out (README.md says why).
        let kept: Vec<&str> = crate::workloads::NAMES
            .into_iter()
            .filter(|name| !["serve_distinct", "store_resume"].contains(name))
            .collect();
        assert_eq!(workloads, kept);
        for m in doc.get("end_to_end").unwrap().as_arr() {
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }
}
