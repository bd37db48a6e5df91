//! Figure 10: GPT-2 language-modeling perplexity over training steps, the
//! baseline dense QKV projection versus the Syno grouped projection.

use std::sync::Arc;
use syno_compiler::{compile, CompilerKind, DType, Device, OperatorClass};
use syno_core::graph::PGraph;
use syno_core::primitive::Action;
use syno_core::size::Size;
use syno_core::spec::{OperatorSpec, TensorShape};
use syno_core::var::{VarKind, VarTable};
use syno_nn::{LmConfig, OperatorLayer, QkvProjection, TextTask, TinyGpt};

/// The Fig. 10 result: two perplexity curves plus the training-step
/// speedup of the substituted projection.
#[derive(Clone, Debug)]
pub struct Fig10Data {
    /// `(step, perplexity)` for the dense-QKV baseline.
    pub baseline_curve: Vec<(usize, f32)>,
    /// `(step, perplexity)` for the Syno grouped-QKV model.
    pub syno_curve: Vec<(usize, f32)>,
    /// Modeled speedup of the QKV projection at GPT-2 scale (A100, TVM).
    pub projection_speedup: f64,
}

/// Builds the grouped projection `[M, K] → [M, N]` with `g` groups as a
/// pGraph: the §9.3 discovery ("constructs the original projections by
/// groups, which allows the QKV matrices to learn from different features").
pub fn grouped_projection(m: u64, k: u64, n: u64, g: u64) -> Option<PGraph> {
    if !k.is_multiple_of(g) || !n.is_multiple_of(g) || k / g < 2 || n / g < 2 {
        return None;
    }
    let mut vars = VarTable::new();
    let vm = vars.declare("M", VarKind::Primary);
    let vk = vars.declare("K", VarKind::Primary);
    let vn = vars.declare("Nv", VarKind::Primary);
    let vg = vars.declare("g", VarKind::Coefficient);
    vars.push_valuation(vec![(vm, m), (vk, k), (vn, n), (vg, g)]);
    let vars = vars.into_shared();
    let spec = OperatorSpec::new(
        TensorShape::new(vec![Size::var(vm), Size::var(vk)]),
        TensorShape::new(vec![Size::var(vm), Size::var(vn)]),
    );
    let g0 = PGraph::new(Arc::clone(&vars), spec);
    let j = g0.frontier()[1];
    let gsize = Size::var(vg);
    let kg = Size::var(vk).div(&gsize);

    let gr = g0.apply(&Action::Merge { coord: j, block: gsize }).ok()?;
    let q = gr.last_node()?.produced()[0];
    let gamma = gr.last_node()?.produced()[1];
    let gr = gr.apply(&Action::Reduce { domain: kg }).ok()?;
    let r = gr.last_node()?.produced()[0];
    let gr = gr
        .apply(&Action::Share {
            coord: gamma,
            weight: 0,
        })
        .ok()?;
    let gamma_copy = gr.last_node()?.produced()[0];
    let gr = gr.apply(&Action::Share { coord: r, weight: 0 }).ok()?;
    let r_copy = gr.last_node()?.produced()[0];
    let gr = gr
        .apply(&Action::Split {
            lhs: r_copy,
            rhs: gamma_copy,
        })
        .ok()?;
    let gr = gr.apply(&Action::Share { coord: q, weight: 0 }).ok()?;
    let q_copy = gr.last_node()?.produced()[0];
    let gr = gr.apply(&Action::Expand { coord: q_copy }).ok()?;
    debug_assert!(gr.is_complete(), "grouped projection:\n{}", gr.render());
    Some(gr)
}

/// Runs the Fig. 10 experiment.
pub fn fig10_data(steps: usize, quick: bool) -> Fig10Data {
    let config = LmConfig {
        vocab: 12,
        context: 6,
        dim: 16,
    };
    let task = TextTask::new(5, config.vocab, config.context);
    let batch = 32;
    let eval_every = (steps / 6).max(1);
    let lr = 0.2;

    let mut baseline = TinyGpt::new(config, QkvProjection::Dense, 7);
    let baseline_curve = baseline.train_curve(&task, steps, batch, lr, eval_every);

    // Grouped QKV at the proxy scale: [batch·context, dim] -> [.., 3·dim].
    let m = (batch * config.context) as u64;
    let proj = grouped_projection(m, config.dim as u64, 3 * config.dim as u64, 2)
        .expect("proxy projection builds");
    let layer = OperatorLayer::new(proj, 0).expect("projection realizable");
    let mut syno = TinyGpt::new(config, QkvProjection::Operator(layer), 7);
    let syno_curve = syno.train_curve(&task, steps, batch, lr, eval_every);

    // Projection speedup at GPT-2 scale (seq 1024, 768 -> 2304).
    let projection_speedup = if quick {
        1.0
    } else {
        let device = Device::server_gpu();
        let dense = grouped_projection(1024, 768, 2304, 1)
            .or_else(|| {
                // g = 1 is degenerate; use the plain matmul builder.
                let mut vars = VarTable::new();
                let vm = vars.declare("M", VarKind::Primary);
                let vk = vars.declare("K", VarKind::Primary);
                let vn = vars.declare("Nv", VarKind::Primary);
                vars.push_valuation(vec![(vm, 1024), (vk, 768), (vn, 2304)]);
                let vars = vars.into_shared();
                syno_core::ops::matmul(&vars, vm, vn, vk).ok()
            })
            .expect("dense projection");
        let grouped = grouped_projection(1024, 768, 2304, 4).expect("grouped projection");
        let dl = syno_compiler::profile_graph(&dense, 0, OperatorClass::Standard, "qkv")
            .map(|p| compile(&p, &device, CompilerKind::Tvm, DType::F32).latency)
            .unwrap_or(f64::NAN);
        let gl = syno_compiler::profile_graph(&grouped, 0, OperatorClass::Novel, "qkv-g")
            .map(|p| compile(&p, &device, CompilerKind::Tvm, DType::F32).latency)
            .unwrap_or(f64::NAN);
        dl / gl
    };

    Fig10Data {
        baseline_curve,
        syno_curve,
        projection_speedup,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouped_projection_builds_and_shrinks_params() {
        let dense_params = 768u128 * 2304;
        let g = grouped_projection(1024, 768, 2304, 4).unwrap();
        let params = syno_core::analysis::parameter_count(&g, 0).unwrap();
        assert_eq!(params, dense_params / 4);
    }

    #[test]
    fn fig10_curves_fall_and_syno_trains_at_least_as_well() {
        let data = fig10_data(240, true);
        let first = data.baseline_curve.first().unwrap().1;
        let last = data.baseline_curve.last().unwrap().1;
        assert!(last < first, "baseline PPL must fall: {first} -> {last}");
        let syno_last = data.syno_curve.last().unwrap().1;
        assert!(
            syno_last < first,
            "syno PPL must fall below the initial {first}: {syno_last}"
        );
        // The paper's grouped projection reaches *better* perplexity; allow
        // proxy noise but require the same ballpark or better.
        assert!(
            syno_last <= last * 1.25,
            "syno {syno_last} vs baseline {last}"
        );
    }
}
