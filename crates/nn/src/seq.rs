//! The sequence/LM proxy family: scoring rank-1/2/3 operator specs on the
//! Markov text source.
//!
//! The paper's second workload replaces projection matmuls inside a
//! GPT-2-style model with synthesized operators (Fig. 10, the
//! [`crate::lm`] machinery). This module gives the *search* a reward for
//! that family: a next-token prediction student built from the same pieces
//! — token embedding from [`TextTask`], the candidate [`OperatorLayer`] as
//! the trainable mixing stage, and a linear vocabulary head — trained for a
//! few steps and scored by held-out next-token accuracy in `[0, 1]`.
//!
//! Supported spec layouts (under the scoring valuation):
//!
//! | rank | layout | student input |
//! |------|--------------------|------------------------------------------|
//! | 3    | `[B, T, C] → [B, T, C']` | `T` embedded context tokens per sample |
//! | 2    | `[M, D] → [M, D']` | mean context embedding per row (`M` = batch) |
//! | 1    | `[F] → [G]`        | mean context embedding, one sample a step |
//!
//! (The context for rank-1/2 layouts is the last token: the Markov source
//! is first-order, so that token carries the whole predictive signal.)
//!
//! For rank ≥ 2 the operator must preserve its leading (batch) dimension so
//! per-sample logits exist; rank-1 specs (e.g. the `[H] → [H/s]` pooling
//! spec the search previously rejected outright) train one sample per step.
//! Like the vision family, operators that mix information across the
//! temporal/feature axes train to higher accuracy than degenerate ones, and
//! diverging candidates score `0.0` — the ranking signal the MCTS consumes.

use crate::data::{TaskBatches, TextTask};
use crate::family::{ProxyFamily, ProxyFamilyId, ProxyScorer, OTHER_SPEC};
use crate::layer::{Layer, OperatorLayer};
use crate::proxy::ProxyConfig;
use crate::train::descend;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use syno_core::error::SynoError;
use syno_core::graph::PGraph;
use syno_core::spec::OperatorSpec;
use syno_core::var::VarTable;
use syno_tensor::{init, Tape, Tensor, Var};

/// Vocabulary of the synthetic Markov source. Small enough that a few
/// training steps separate structure-learning operators from degenerate
/// ones, large enough that chance accuracy (1/6) leaves headroom.
const VOCAB: usize = 6;
/// Context length when the spec does not pin one (rank-1/2 inputs). The
/// [`TextTask`] source is first-order Markov, so the last token carries the
/// whole predictive signal; feeding exactly that token keeps the rank-1/2
/// students' task cleanly learnable (rank-3 specs take `T` from the spec
/// and see the full embedded sequence instead).
const CONTEXT: usize = 1;
/// Minimum held-out predictions per evaluation (batched up as needed).
const MIN_EVAL_SAMPLES: usize = 32;

/// The resolved student geometry for one spec.
#[derive(PartialEq, Debug)]
struct SeqShapes {
    /// Input dims under the valuation.
    input: Vec<u64>,
    /// Samples per training step (the operator's leading dim, or 1).
    batch: usize,
    /// Context tokens embedded per sample.
    context: usize,
    /// Embedding width (the operator's trailing input dim).
    embed: usize,
    /// Flattened per-sample feature count of the operator output.
    features: usize,
}

/// Checks the spec against the table above and derives the student
/// geometry.
fn seq_shapes(
    spec: &OperatorSpec,
    vars: &VarTable,
    valuation: usize,
) -> Result<SeqShapes, SynoError> {
    let input = spec
        .input
        .eval(vars, valuation)
        .ok_or_else(|| SynoError::eval("input shape does not evaluate under the valuation"))?;
    let output = spec
        .output
        .eval(vars, valuation)
        .ok_or_else(|| SynoError::eval("output shape does not evaluate under the valuation"))?;
    if !(1..=3).contains(&input.len()) {
        return Err(SynoError::proxy(format!(
            "input rank {} is outside the 1-D/2-D/3-D sequence layouts",
            input.len()
        )));
    }
    if !(1..=3).contains(&output.len()) {
        return Err(SynoError::proxy(format!(
            "output rank {} is outside the 1-D/2-D/3-D sequence layouts",
            output.len()
        )));
    }
    let (batch, context, embed) = match input.as_slice() {
        [b, t, c] => (*b as usize, *t as usize, *c as usize),
        [m, d] => (*m as usize, CONTEXT, *d as usize),
        [f] => (1, CONTEXT, *f as usize),
        _ => unreachable!("rank checked above"),
    };
    let features = if input.len() >= 2 {
        if output.len() < 2 || output[0] != input[0] {
            return Err(SynoError::proxy(format!(
                "output must preserve the batch dimension: input leads with {}, output is {:?}",
                input[0], output
            )));
        }
        output[1..].iter().product::<u64>() as usize
    } else {
        output.iter().product::<u64>() as usize
    };
    Ok(SeqShapes {
        input,
        batch,
        context,
        embed,
        features,
    })
}

/// The sequence/LM [`ProxyFamily`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SequenceFamily;

impl ProxyFamily for SequenceFamily {
    fn id(&self) -> ProxyFamilyId {
        ProxyFamilyId::Sequence
    }

    fn validate(
        &self,
        spec: &OperatorSpec,
        vars: &VarTable,
        valuation: usize,
    ) -> Result<(), SynoError> {
        seq_shapes(spec, vars, valuation).map(|_| ())
    }

    fn prepare(
        &self,
        spec: &OperatorSpec,
        vars: &VarTable,
        valuation: usize,
        config: &ProxyConfig,
    ) -> Result<Arc<dyn ProxyScorer>, SynoError> {
        let shapes = seq_shapes(spec, vars, valuation)?;
        // Held-out evaluation on disjoint batch streams; small operator
        // batch sizes are topped up to a stable sample count.
        let rounds = config
            .train
            .eval_batches
            .max(1)
            .max(MIN_EVAL_SAMPLES.div_ceil(shapes.batch));
        let task = TextTask::new(config.task_seed, VOCAB, shapes.context);
        let task = TaskBatches::new(task, TextTask::batch, shapes.batch, config.train.steps, rounds);
        Ok(Arc::new(SequenceScorer { valuation, shapes, task, config: *config }))
    }
}

/// The sequence family prepared for one search: the Markov source at the
/// spec's context length and the batches every candidate trains on.
#[derive(Debug)]
struct SequenceScorer {
    valuation: usize,
    shapes: SeqShapes,
    task: TaskBatches<TextTask, (Vec<usize>, Vec<usize>)>,
    config: ProxyConfig,
}

/// The student: embedding table, operator weights, and vocabulary head,
/// updated by plain SGD (the [`crate::lm`] recipe at proxy scale).
struct SeqStudent<'a> {
    shapes: &'a SeqShapes,
    layer: OperatorLayer,
    embedding: Tensor,
    op_weights: Vec<Tensor>,
    head: Tensor,
}

impl<'a> SeqStudent<'a> {
    fn new(graph: &PGraph, valuation: usize, shapes: &'a SeqShapes, seed: u64) -> Result<Self, SynoError> {
        let layer = OperatorLayer::new(graph, valuation)?;
        let mut rng = StdRng::seed_from_u64(seed);
        let embedding = init::randn(&mut rng, &[VOCAB, shapes.embed], 0.5);
        let op_weights = layer.init_params(&mut rng);
        let head = init::kaiming(&mut rng, &[shapes.features, VOCAB]);
        Ok(SeqStudent {
            shapes,
            layer,
            embedding,
            op_weights,
            head,
        })
    }

    /// Records the forward pass for `batch` contexts, returning next-token
    /// logits `[batch, VOCAB]` and the parameter vars (embedding, operator
    /// weights…, head — matching [`SeqStudent::params_mut`]).
    fn forward(&self, tape: &mut Tape, contexts: &[usize]) -> (Var, Vec<Var>) {
        let s = self.shapes;
        assert_eq!(contexts.len(), s.batch * s.context, "context batch mismatch");
        let emb = tape.leaf(self.embedding.clone());
        let op_vars: Vec<Var> = self.op_weights.iter().map(|w| tape.leaf(w.clone())).collect();
        let head = tape.leaf(self.head.clone());

        // Embed the context tokens: [batch * context, embed].
        let tok = tape.gather(emb, contexts);
        let x = match s.input.len() {
            // [B, T, C]: the operator sees the token sequence directly.
            3 => tape.reshape(tok, &[s.batch, s.context, s.embed]),
            // [M, D]: one mean context embedding per row.
            2 => {
                let t3 = tape.reshape(tok, &[s.batch, s.context, s.embed]);
                let sum = tape.sum_axis(t3, 1);
                tape.scale(sum, 1.0 / s.context as f32)
            }
            // [F]: a single mean context embedding.
            _ => {
                let sum = tape.sum_axis(tok, 0);
                tape.scale(sum, 1.0 / s.context as f32)
            }
        };
        let y = self.layer.forward(tape, x, &op_vars);
        let feat = tape.reshape(y, &[s.batch, s.features]);
        let h = tape.relu(feat);
        let logits = tape.matmul(h, head);

        let mut params = vec![emb];
        params.extend(op_vars);
        params.push(head);
        (logits, params)
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        let mut tensors: Vec<&mut Tensor> = vec![&mut self.embedding];
        for w in &mut self.op_weights {
            tensors.push(w);
        }
        tensors.push(&mut self.head);
        tensors
    }

    /// One SGD step on a caller-owned (reused) tape; returns the loss.
    fn train_step(
        &mut self,
        tape: &mut Tape,
        contexts: &[usize],
        targets: &[usize],
        lr: f32,
    ) -> f32 {
        tape.reset();
        let (logits, params) = self.forward(tape, contexts);
        let loss = tape.softmax_cross_entropy(logits, targets);
        let loss_value = tape.value(loss).data()[0];
        let grads = tape.backward(loss);
        for (var, tensor) in params.iter().zip(self.params_mut()) {
            if let Some(g) = grads.get(*var) {
                descend(tensor, g, lr);
            }
        }
        tape.recycle_gradients(grads);
        loss_value
    }

    /// Correct next-token predictions on a labeled batch.
    fn correct(&self, tape: &mut Tape, contexts: &[usize], targets: &[usize]) -> usize {
        tape.reset();
        let (logits, _) = self.forward(tape, contexts);
        let preds = tape.value(logits).argmax_last();
        preds.iter().zip(targets).filter(|(p, t)| p == t).count()
    }
}

impl ProxyScorer for SequenceScorer {
    /// Errors are [`SynoError::Eager`] when the graph cannot be realized and
    /// [`SynoError::Proxy`] for a graph of another spec.
    fn score(&self, graph: &PGraph) -> Result<f32, SynoError> {
        if seq_shapes(graph.spec(), graph.vars(), self.valuation)? != self.shapes {
            return Err(SynoError::proxy(OTHER_SPEC));
        }
        let mut student = SeqStudent::new(graph, self.valuation, &self.shapes, self.config.init_seed)?;

        // One tape for the whole evaluation: buffers and compiled einsum
        // plans carry across steps.
        let train = &self.config.train;
        let mut tape = Tape::with_policy(train.exec);
        for step in 0..train.steps {
            let (contexts, targets) = self.task.train(step);
            let loss = student.train_step(&mut tape, contexts, targets, train.lr);
            if !loss.is_finite() {
                // Diverged — early terminate, like the paper's early stopping.
                return Ok(0.0);
            }
        }

        let rounds = self.task.eval_rounds();
        let mut correct = 0usize;
        for i in 0..rounds {
            let (contexts, targets) = self.task.eval(i);
            correct += student.correct(&mut tape, contexts, targets);
        }
        syno_telemetry::gauge!("syno_tensor_scratch_bytes").set(tape.scratch_bytes() as i64);
        Ok(correct as f32 / (rounds * self.shapes.batch) as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TrainConfig;
    use syno_core::ops;
    use syno_core::size::Size;
    use syno_core::spec::TensorShape;
    use syno_core::synth::{Enumerator, SynthConfig};
    use syno_core::var::VarKind;

    fn quick() -> ProxyConfig {
        ProxyConfig {
            train: TrainConfig {
                steps: 10,
                batch: 4,
                eval_batches: 1,
                lr: 0.2,
                ..TrainConfig::default()
            },
            ..ProxyConfig::default()
        }
    }

    #[test]
    fn pool_spec_candidates_score_nonzero_and_deterministically() {
        let mut vars = VarTable::new();
        let h = vars.declare("H", VarKind::Primary);
        let s = vars.declare("s", VarKind::Coefficient);
        vars.push_valuation(vec![(h, 16), (s, 2)]);
        let vars = vars.into_shared();
        let spec = OperatorSpec::new(
            TensorShape::new(vec![Size::var(h)]),
            TensorShape::new(vec![Size::var(h).div(&Size::var(s))]),
        );
        assert!(SequenceFamily.validate(&spec, &vars, 0).is_ok());

        let graphs: Vec<PGraph> = Enumerator::new(SynthConfig::auto(&vars, 3))
            .synthesis(&vars, &spec)
            .take(4)
            .map(|r| r.unwrap())
            .collect();
        assert!(!graphs.is_empty());
        let config = quick();
        let mut best = 0.0f32;
        for g in &graphs {
            let acc = SequenceFamily.score(g, 0, &config).unwrap();
            assert!((0.0..=1.0).contains(&acc), "accuracy {acc}");
            let again = SequenceFamily.score(g, 0, &config).unwrap();
            assert_eq!(acc.to_bits(), again.to_bits(), "scores are deterministic");
            best = best.max(acc);
        }
        assert!(best > 0.0, "a trained sequence student must beat zero");
    }

    #[test]
    fn matmul_projection_scores_above_chance() {
        // [M, D] -> [M, N]: the QKV-projection layout of the Fig. 10 LM.
        let mut vars = VarTable::new();
        let m = vars.declare("M", VarKind::Primary);
        let n = vars.declare("Nout", VarKind::Primary);
        let k = vars.declare("K", VarKind::Primary);
        vars.push_valuation(vec![(m, 8), (n, 8), (k, 8)]);
        let vars = vars.into_shared();
        let mm = ops::matmul(&vars, m, n, k).unwrap();
        let config = ProxyConfig {
            train: TrainConfig {
                steps: 60,
                lr: 0.2,
                ..TrainConfig::default()
            },
            ..ProxyConfig::default()
        };
        let acc = SequenceFamily.score(&mm, 0, &config).unwrap();
        // Chance is 1/6; a learnable dense projection must clearly beat it.
        assert!(acc > 0.25, "matmul sequence accuracy {acc}");
    }

    #[test]
    fn batch_destroying_output_is_rejected() {
        let mut vars = VarTable::new();
        let b = vars.declare("B", VarKind::Primary);
        let t = vars.declare("T", VarKind::Primary);
        let c = vars.declare("C", VarKind::Primary);
        vars.push_valuation(vec![(b, 4), (t, 4), (c, 8)]);
        let vars = vars.into_shared();
        // [B, T, C] -> [T] drops the batch: no per-sample logits exist.
        let spec = OperatorSpec::new(
            TensorShape::new(vec![Size::var(b), Size::var(t), Size::var(c)]),
            TensorShape::new(vec![Size::var(t)]),
        );
        let err = SequenceFamily.validate(&spec, &vars, 0).expect_err("must reject");
        let SynoError::Proxy { reason } = err else {
            panic!("expected proxy error");
        };
        assert!(reason.contains("batch"), "{reason}");
    }

    #[test]
    fn rank_three_sequence_spec_validates() {
        let mut vars = VarTable::new();
        let b = vars.declare("B", VarKind::Primary);
        let t = vars.declare("T", VarKind::Primary);
        let c = vars.declare("C", VarKind::Primary);
        vars.push_valuation(vec![(b, 4), (t, 4), (c, 8)]);
        let vars = vars.into_shared();
        let spec = OperatorSpec::new(
            TensorShape::new(vec![Size::var(b), Size::var(t), Size::var(c)]),
            TensorShape::new(vec![Size::var(b), Size::var(t), Size::var(c)]),
        );
        assert!(SequenceFamily.validate(&spec, &vars, 0).is_ok());
    }
}
