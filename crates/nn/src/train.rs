//! Training loop and optimizer for the proxy models.

use crate::data::{TaskBatches, VisionTask};
use crate::layer::Model;
use syno_tensor::{ExecPolicy, Tape, Tensor};

/// `w -= g·lr` in place, each element rounded as the allocating
/// `w - g.scale(lr)` rounded it — the one parameter update of every optimizer
/// in this crate.
pub(crate) fn descend(w: &mut Tensor, g: &Tensor, lr: f32) {
    assert_eq!(w.shape(), g.shape(), "gradient shape mismatch");
    for (w, &g) in w.data_mut().iter_mut().zip(g.data()) {
        *w -= g * lr;
    }
}

/// SGD with momentum and weight decay.
#[derive(Debug)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient.
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    velocity: Vec<Vec<Tensor>>,
}

impl Sgd {
    /// Creates an optimizer for `model`.
    pub fn new(model: &Model, lr: f32, momentum: f32, weight_decay: f32) -> Self {
        let velocity = model
            .params()
            .iter()
            .map(|layer| layer.iter().map(|p| Tensor::zeros(p.shape())).collect())
            .collect();
        Sgd {
            lr,
            momentum,
            weight_decay,
            velocity,
        }
    }

    /// Applies one update given per-parameter gradients (same nesting as
    /// `model.params()`); missing gradients are skipped.
    pub fn step(&mut self, model: &mut Model, grads: &[Vec<Option<Tensor>>]) {
        for (l, layer_grads) in grads.iter().enumerate() {
            for (p, grad) in layer_grads.iter().enumerate() {
                let Some(grad) = grad else { continue };
                let param = &mut model.params_mut()[l][p];
                let v = &mut self.velocity[l][p];
                // v = momentum*v + (grad + wd*param) ; param -= lr*v
                assert_eq!(param.shape(), grad.shape(), "gradient shape mismatch");
                for ((v, &g), &w) in v.data_mut().iter_mut().zip(grad.data()).zip(param.data()) {
                    *v = *v * self.momentum + (g + w * self.weight_decay);
                }
                descend(param, v, self.lr);
            }
        }
    }
}

/// One optimization step on a labeled batch, recorded on a caller-owned
/// tape; returns the loss. The tape is
/// [`reset`](Tape::reset) first, so step *n+1* reuses step *n*'s buffers
/// and every einsum runs its already-compiled stride plan.
pub fn train_step_on(
    tape: &mut Tape,
    model: &mut Model,
    opt: &mut Sgd,
    images: &Tensor,
    labels: &[usize],
) -> f32 {
    tape.reset();
    // The batch is data: nothing reads its gradient, so none is computed.
    let x = tape.constant(images.clone());
    let (logits, param_vars) = model.forward(tape, x);
    let loss = tape.softmax_cross_entropy(logits, labels);
    let loss_value = tape.value(loss).data()[0];
    let grads = tape.backward(loss);
    let grad_tensors: Vec<Vec<Option<Tensor>>> = param_vars
        .iter()
        .map(|layer| layer.iter().map(|&v| grads.get(v).cloned()).collect())
        .collect();
    tape.recycle_gradients(grads);
    opt.step(model, &grad_tensors);
    loss_value
}

/// Top-1 accuracy on a labeled batch, on a caller-owned (reused) tape.
fn accuracy_on(tape: &mut Tape, model: &Model, images: &Tensor, labels: &[usize]) -> f32 {
    tape.reset();
    let x = tape.constant(images.clone());
    let (logits, _) = model.forward(tape, x);
    let preds = tape.value(logits).argmax_last();
    let correct = preds
        .iter()
        .zip(labels)
        .filter(|(p, l)| p == l)
        .count();
    correct as f32 / labels.len().max(1) as f32
}

/// Training configuration for the accuracy proxy.
#[derive(Clone, Copy, Debug)]
pub struct TrainConfig {
    /// Optimization steps.
    pub steps: usize,
    /// Batch size.
    pub batch: usize,
    /// Learning rate.
    pub lr: f32,
    /// Momentum.
    pub momentum: f32,
    /// Weight decay.
    pub weight_decay: f32,
    /// Number of evaluation batches (each of the training batch size —
    /// operator layers fix the batch dimension via their valuation); a
    /// proxy evaluates at least one.
    pub eval_batches: usize,
    /// Execution policy for the proxy's tapes: the reduction-tree width,
    /// part of the score contract (see [`ExecPolicy`]).
    pub exec: ExecPolicy,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            steps: 60,
            batch: 16,
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 1e-4,
            eval_batches: 4,
            exec: ExecPolicy::default(),
        }
    }
}

/// A vision task with its batch slots (see [`TaskBatches`]).
pub(crate) type VisionBatches = TaskBatches<VisionTask, (Tensor, Vec<usize>)>;

/// `task` with the slots a training under `config` draws from.
pub(crate) fn vision_batches(task: VisionTask, config: &TrainConfig) -> VisionBatches {
    let TrainConfig { batch, steps, eval_batches, .. } = *config;
    TaskBatches::new(task, VisionTask::batch, batch, steps, eval_batches.max(1))
}

/// Trains `model` on `task` and returns `(final_train_loss, eval_accuracy)`.
/// The tape is the engine-mode hook: [`Tape::with_policy`] for the
/// stride-compiled engine or [`Tape::new_reference`] for the naive
/// pre-compilation engine (scores are bit-identical either way;
/// `engines_agree_bitwise` below holds one against the other).
pub(crate) fn train_on_task(
    tape: &mut Tape,
    model: &mut Model,
    task: &VisionBatches,
    config: &TrainConfig,
) -> (f32, f32) {
    let mut opt = Sgd::new(model, config.lr, config.momentum, config.weight_decay);
    let mut last_loss = f32::NAN;
    for step in 0..config.steps {
        let (images, labels) = task.train(step);
        last_loss = train_step_on(tape, model, &mut opt, images, labels);
        if !last_loss.is_finite() {
            // Diverged — early terminate, like the paper's early stopping
            // for bad candidates (§9.1 "terminate early when accuracy is
            // not as high as expected").
            return (last_loss, 0.0);
        }
    }
    // Held-out evaluation over at least one batch of the training batch
    // size (operator layers pin the batch dimension).
    let rounds = task.eval_rounds();
    let mut correct_frac = 0.0;
    for i in 0..rounds {
        let (images, labels) = task.eval(i);
        correct_frac += accuracy_on(tape, model, images, labels);
    }
    syno_telemetry::gauge!("syno_tensor_scratch_bytes").set(tape.scratch_bytes() as i64);
    (last_loss, correct_frac / rounds as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{GlobalAvgPool, LinearLayer, Model, OperatorLayer, ReluLayer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use syno_core::ops;
    use syno_core::var::{VarKind, VarTable};

    fn small_model(seed: u64) -> Model {
        let mut vars = VarTable::new();
        let n = vars.declare("N", VarKind::Primary);
        let cin = vars.declare("Cin", VarKind::Primary);
        let cout = vars.declare("Cout", VarKind::Primary);
        let h = vars.declare("H", VarKind::Primary);
        let w = vars.declare("W", VarKind::Primary);
        let k = vars.declare("k", VarKind::Coefficient);
        vars.push_valuation(vec![(n, 16), (cin, 3), (cout, 8), (h, 8), (w, 8), (k, 3)]);
        let vars = vars.into_shared();
        let conv = ops::conv2d(&vars, n, cin, cout, h, w, k).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model = Model::new();
        model.push(Box::new(OperatorLayer::new(conv, 0).unwrap()), &mut rng);
        model.push(Box::new(ReluLayer), &mut rng);
        model.push(Box::new(GlobalAvgPool), &mut rng);
        model.push(Box::new(LinearLayer::new(8, 4)), &mut rng);
        model
    }

    #[test]
    fn training_reduces_loss() {
        let task = VisionTask::new(21, 3, 8, 4);
        let mut model = small_model(2);
        let mut opt = Sgd::new(&model, 0.05, 0.9, 0.0);
        let (images, labels) = task.batch(0, 16);
        let mut tape = Tape::new();
        let first = train_step_on(&mut tape, &mut model, &mut opt, &images, &labels);
        let mut last = first;
        for _ in 0..15 {
            last = train_step_on(&mut tape, &mut model, &mut opt, &images, &labels);
        }
        assert!(last < first, "loss must fall: {first} -> {last}");
    }

    #[test]
    fn trained_model_beats_chance() {
        let task = VisionTask::new(23, 3, 8, 4);
        let mut model = small_model(3);
        let config = TrainConfig {
            steps: 50,
            batch: 16,
            ..TrainConfig::default()
        };
        let task = vision_batches(task, &config);
        let (_, acc) = train_on_task(&mut Tape::new(), &mut model, &task, &config);
        assert!(acc > 0.3, "accuracy {acc} must beat 4-way chance");
    }

    #[test]
    fn accuracy_is_bounded() {
        let task = VisionTask::new(29, 3, 8, 4);
        let model = small_model(4);
        let (images, labels) = task.batch(u64::MAX / 2, 16);
        let acc = accuracy_on(&mut Tape::new(), &model, &images, &labels);
        assert!((0.0..=1.0).contains(&acc));
    }

    /// `(final loss, held-out accuracy)` bits of the same student, init
    /// seed and task stream trained for three steps on `tape`.
    fn trained_bits(tape: &mut Tape) -> (u32, u32) {
        let task = VisionTask::new(1234, 3, 8, 4);
        let config = TrainConfig {
            steps: 3,
            batch: 16,
            eval_batches: 2,
            ..TrainConfig::default()
        };
        let task = vision_batches(task, &config);
        let (loss, acc) = train_on_task(tape, &mut small_model(99), &task, &config);
        (loss.to_bits(), acc.to_bits())
    }

    #[test]
    fn engines_agree_bitwise() {
        assert_eq!(
            trained_bits(&mut Tape::new_reference()),
            trained_bits(&mut Tape::new()),
            "compiled and reference engines diverged"
        );
    }
}
