//! The vision accuracy proxy: the [`crate::family::ProxyFamilyId::Vision`]
//! member of the task-family registry.
//!
//! The paper trains each candidate-substituted model for ~100 CIFAR-100
//! epochs (≈0.1 GPU-hours amortized); the reproduction trains a small
//! student on the teacher-labeled synthetic task instead (DESIGN.md §3).
//! The proxy preserves what the search needs: candidates whose operators
//! mix spatial/channel information train to higher accuracy than degenerate
//! ones, and divergent candidates score zero (the paper's early
//! termination). The sequence/LM counterpart lives in [`crate::seq`].

use crate::data::VisionTask;
use crate::family::{ProxyFamily, ProxyFamilyId, ProxyScorer, VisionFamily, OTHER_SPEC};
use crate::layer::{GlobalAvgPool, LinearLayer, Model, OperatorLayer, ReluLayer};
use crate::train::{train_on_task, vision_batches, TrainConfig, VisionBatches};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use syno_core::error::SynoError;
use syno_core::graph::PGraph;
use syno_core::spec::OperatorSpec;
use syno_core::var::VarTable;
use syno_tensor::Tape;

/// Proxy-task configuration: the operator is trained inside a
/// conv→relu→pool→linear student whose conv slot it fills.
#[derive(Clone, Copy, Debug)]
pub struct ProxyConfig {
    /// Training hyperparameters.
    pub train: TrainConfig,
    /// Task seed (fixed across candidates so rewards are comparable).
    pub task_seed: u64,
    /// Parameter-initialization seed.
    pub init_seed: u64,
}

impl Default for ProxyConfig {
    fn default() -> Self {
        ProxyConfig {
            train: TrainConfig::default(),
            task_seed: 1234,
            init_seed: 99,
        }
    }
}

/// The concrete `(input, output)` task shapes — both must evaluate under
/// `valuation` and be the 4-D `[N, C, H, W]` layout — or why the vision
/// proxy cannot score the spec: [`SynoError::Proxy`] for another rank,
/// [`SynoError::Eval`] for a shape that does not evaluate.
fn task_shapes(
    spec: &OperatorSpec,
    vars: &VarTable,
    valuation: usize,
) -> Result<(Vec<u64>, Vec<u64>), SynoError> {
    let dims = match spec.input.eval(vars, valuation) {
        Some(d) if d.len() == 4 => d,
        Some(d) => {
            return Err(SynoError::proxy(format!(
                "input rank {} is not the 4-D vision layout",
                d.len()
            )))
        }
        None => return Err(SynoError::eval("input shape does not evaluate under the valuation")),
    };
    let out_dims = match spec.output.eval(vars, valuation) {
        Some(d) if d.len() == 4 => d,
        Some(d) => {
            return Err(SynoError::proxy(format!(
                "output rank {} is not the 4-D vision layout",
                d.len()
            )))
        }
        None => return Err(SynoError::eval("output shape does not evaluate under the valuation")),
    };
    Ok((dims, out_dims))
}

/// Teacher classes of the vision task.
const CLASSES: usize = 4;

/// The vision family prepared for one search: the teacher-labelled task of
/// the spec's `[N, Cin, H, W]` and the batches every candidate trains on.
#[derive(Debug)]
struct VisionScorer {
    valuation: usize,
    /// The `(input, output)` shapes prepared for.
    shapes: (Vec<u64>, Vec<u64>),
    task: VisionBatches,
    /// The search's configuration, training at the operator's batch size.
    config: ProxyConfig,
}

impl ProxyFamily for VisionFamily {
    fn id(&self) -> ProxyFamilyId {
        ProxyFamilyId::Vision
    }

    fn validate(
        &self,
        spec: &OperatorSpec,
        vars: &VarTable,
        valuation: usize,
    ) -> Result<(), SynoError> {
        task_shapes(spec, vars, valuation).map(|_| ())
    }

    fn prepare(
        &self,
        spec: &OperatorSpec,
        vars: &VarTable,
        valuation: usize,
        config: &ProxyConfig,
    ) -> Result<Arc<dyn ProxyScorer>, SynoError> {
        let shapes = task_shapes(spec, vars, valuation)?;
        let (batch, channels, height) = (shapes.0[0], shapes.0[1], shapes.0[2]);
        let mut config = *config;
        config.train.batch = batch as usize;
        let task = VisionTask::new(config.task_seed, channels as usize, height as usize, CLASSES);
        let task = vision_batches(task, &config.train);
        Ok(Arc::new(VisionScorer { valuation, shapes, task, config }))
    }
}

impl ProxyScorer for VisionScorer {
    /// The operator must map `[N, Cin, H, W] → [N, Cout, H, W]`. Errors are
    /// [`SynoError::Eager`] for non-realizable graphs and
    /// [`SynoError::Proxy`] for a graph of another spec.
    fn score(&self, graph: &PGraph) -> Result<f32, SynoError> {
        if task_shapes(graph.spec(), graph.vars(), self.valuation)? != self.shapes {
            return Err(SynoError::proxy(OTHER_SPEC));
        }
        let layer = OperatorLayer::new(graph, self.valuation)?;
        let mut rng = StdRng::seed_from_u64(self.config.init_seed);
        let mut model = Model::new();
        model.push(Box::new(layer), &mut rng);
        model.push(Box::new(ReluLayer), &mut rng);
        model.push(Box::new(GlobalAvgPool), &mut rng);
        let features = self.shapes.1[1] as usize;
        model.push(Box::new(LinearLayer::new(features, CLASSES)), &mut rng);
        let train = &self.config.train;
        let (_, acc) = train_on_task(&mut Tape::with_policy(train.exec), &mut model, &self.task, train);
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use syno_core::ops;
    use syno_core::primitive::Action;
    use syno_core::size::Size;
    use syno_core::spec::{OperatorSpec, TensorShape};
    use syno_core::var::{VarId, VarKind, VarTable};

    struct F {
        vars: Arc<VarTable>,
        n: VarId,
        cin: VarId,
        cout: VarId,
        h: VarId,
        w: VarId,
        k: VarId,
    }

    fn fixture() -> F {
        let mut vars = VarTable::new();
        let n = vars.declare("N", VarKind::Primary);
        let cin = vars.declare("Cin", VarKind::Primary);
        let cout = vars.declare("Cout", VarKind::Primary);
        let h = vars.declare("H", VarKind::Primary);
        let w = vars.declare("W", VarKind::Primary);
        let k = vars.declare("k", VarKind::Coefficient);
        vars.push_valuation(vec![(n, 16), (cin, 3), (cout, 8), (h, 8), (w, 8), (k, 3)]);
        F {
            vars: vars.into_shared(),
            n,
            cin,
            cout,
            h,
            w,
            k,
        }
    }

    fn quick() -> ProxyConfig {
        ProxyConfig {
            train: TrainConfig {
                steps: 40,
                batch: 16,
                ..TrainConfig::default()
            },
            ..ProxyConfig::default()
        }
    }

    /// The one public way to score: through the registry.
    fn score(graph: &PGraph, config: &ProxyConfig) -> Result<f32, SynoError> {
        crate::ProxyFamilyId::Vision.family().score(graph, 0, config)
    }

    #[test]
    fn conv_scores_above_chance() {
        let f = fixture();
        let conv = ops::conv2d(&f.vars, f.n, f.cin, f.cout, f.h, f.w, f.k).unwrap();
        let acc = score(&conv, &quick()).unwrap();
        assert!(acc > 0.3, "conv proxy accuracy {acc}");
    }

    #[test]
    fn degenerate_operator_scores_lower_than_conv() {
        // Sum-all-channels-and-replicate: no learnable weights at all.
        let f = fixture();
        let spec = OperatorSpec::new(
            TensorShape::new(vec![
                Size::var(f.n),
                Size::var(f.cin),
                Size::var(f.h),
                Size::var(f.w),
            ]),
            TensorShape::new(vec![
                Size::var(f.n),
                Size::var(f.cout),
                Size::var(f.h),
                Size::var(f.w),
            ]),
        );
        let g = syno_core::graph::PGraph::new(Arc::clone(&f.vars), spec);
        let co = g.frontier()[1];
        let g = g.apply(&Action::Expand { coord: co }).unwrap();
        let g = g
            .apply(&Action::Reduce {
                domain: Size::var(f.cin),
            })
            .unwrap();
        assert!(g.is_complete());

        let conv = ops::conv2d(&f.vars, f.n, f.cin, f.cout, f.h, f.w, f.k).unwrap();
        let config = quick();
        let weightless = score(&g, &config).unwrap();
        let conv_acc = score(&conv, &config).unwrap();
        assert!(
            conv_acc >= weightless,
            "conv {conv_acc} must match/beat weightless {weightless}"
        );
    }

    #[test]
    fn non_vision_spec_scores_zero() {
        let f = fixture();
        let mm = ops::matmul(&f.vars, f.cin, f.cout, f.h).unwrap();
        let err = score(&mm, &quick()).expect_err("matmul is not 4-D");
        assert!(matches!(err, SynoError::Proxy { .. }), "{err}");
    }
}
