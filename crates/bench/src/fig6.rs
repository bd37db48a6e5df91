//! Figure 6: accuracy-vs-latency Pareto curves per model (ImageNet in the
//! paper; the proxy task here — see DESIGN.md §3).

use crate::vision_accuracy;
use syno_compiler::{CompilerKind, Device};
use syno_models::{model_latency, vision_backbones, ConvShape, Substitution};
use syno_nn::{ProxyConfig, TrainConfig};
use syno_search::{pareto_front, TradeoffPoint};

/// One point of a Fig. 6 curve.
#[derive(Clone, Debug)]
pub struct Fig6Point {
    /// Model name.
    pub model: String,
    /// Substitution label (`baseline` is the hollow point of the paper).
    pub operator: String,
    /// End-to-end latency (seconds).
    pub latency: f64,
    /// Proxy accuracy in `[0, 1]`.
    pub accuracy: f64,
    /// `true` when the point is on the Pareto front.
    pub on_front: bool,
}

/// Proxy accuracy of a substitution, evaluated once at a representative
/// residual-block shape (the paper trains the full substituted model; the
/// proxy trains the operator inside a fixed student — DESIGN.md §3).
fn substitution_accuracy(subst: Substitution, config: &ProxyConfig) -> f64 {
    let shape = ConvShape {
        n: 16,
        cin: 8,
        cout: 8,
        hw: 8,
        k: 3,
        g: 2,
        s: 2,
    };
    let graph = match subst {
        Substitution::Baseline | Substitution::Int8 => syno_models::conv_graph(&shape),
        Substitution::Operator1 => syno_models::operator1(&shape),
        Substitution::Operator2 => syno_models::operator2(&shape),
        Substitution::NasPte(seq) => {
            syno_models::nas_pte_graphs(&shape, seq).and_then(|mut v| v.pop())
        }
    };
    match graph {
        Some(g) => {
            let mut acc = vision_accuracy(&g, config);
            if subst == Substitution::Int8 {
                // Quantization costs a little accuracy (Fig. 8: INT8 sits
                // slightly below Operator 1).
                acc -= 0.02;
            }
            acc
        }
        None => 0.0,
    }
}

/// Computes the Fig. 6 points for all vision models on one device/compiler.
pub fn fig6_data(device: &Device, compiler: CompilerKind, quick: bool) -> Vec<Fig6Point> {
    let proxy = ProxyConfig {
        train: TrainConfig {
            steps: if quick { 30 } else { 80 },
            batch: 16,
            eval_batches: if quick { 2 } else { 4 },
            ..TrainConfig::default()
        },
        ..ProxyConfig::default()
    };
    let substitutions = [
        Substitution::Baseline,
        Substitution::Operator1,
        Substitution::Operator2,
    ];
    // Accuracies depend on the operator, not the backbone: evaluate once.
    let accuracies: Vec<f64> = substitutions
        .iter()
        .map(|&s| substitution_accuracy(s, &proxy))
        .collect();

    let mut out = Vec::new();
    for backbone in vision_backbones() {
        let mut points = Vec::new();
        for (&subst, &accuracy) in substitutions.iter().zip(&accuracies) {
            let latency = model_latency(&backbone, subst, device, compiler);
            points.push((subst, latency, accuracy));
        }
        let tradeoffs: Vec<TradeoffPoint> = points
            .iter()
            .map(|&(_, latency, accuracy)| TradeoffPoint { latency, accuracy })
            .collect();
        let front = pareto_front(&tradeoffs);
        for (idx, (subst, latency, accuracy)) in points.into_iter().enumerate() {
            out.push(Fig6Point {
                model: backbone.name.to_owned(),
                operator: subst.name(),
                latency,
                accuracy,
                on_front: front.contains(&idx),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_pareto_structure() {
        let points = fig6_data(&Device::mobile_cpu(), CompilerKind::Tvm, true);
        assert_eq!(points.len(), 5 * 3);
        for model in ["ResNet-18", "ResNet-34"] {
            let slice: Vec<&Fig6Point> =
                points.iter().filter(|p| p.model == model).collect();
            // Syno operators must be faster than the baseline...
            let base = slice.iter().find(|p| p.operator == "baseline").unwrap();
            let op1 = slice.iter().find(|p| p.operator == "syno-op1").unwrap();
            assert!(op1.latency < base.latency);
            // ...at bounded accuracy cost (the paper's 1–2% regime scaled
            // to the proxy's resolution).
            assert!(op1.accuracy > base.accuracy - 0.25);
            // At least one point is on the front.
            assert!(slice.iter().any(|p| p.on_front));
        }
    }
}
