//! A miniature GPT-style language model with a replaceable QKV projection —
//! the Fig. 10 substrate.
//!
//! The paper replaces GPT-2's QKV projection matmuls with synthesized
//! operators and compares perplexity over training steps. This module
//! provides the smallest model that preserves the experiment's structure:
//! token embedding → (replaceable) QKV projection → single-head causal
//! attention → output projection → vocabulary logits, trained on the
//! Markov text source of [`crate::data::TextTask`].

use crate::data::TextTask;
use crate::layer::{Layer, OperatorLayer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use syno_tensor::{init, Tape, Tensor, Var};

/// The QKV projection: either a dense matmul (the GPT-2 baseline) or a
/// synthesized operator mapping `[tokens, D] → [tokens, 3D]`.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // Operator layers are rare and long-lived
pub enum QkvProjection {
    /// Dense `[D, 3D]` matmul.
    Dense,
    /// A Syno operator layer (its spec must map `[M, D] → [M, 3D]`).
    Operator(OperatorLayer),
}

/// Configuration of the miniature LM.
#[derive(Clone, Copy, Debug)]
pub struct LmConfig {
    /// Vocabulary size.
    pub vocab: usize,
    /// Context length.
    pub context: usize,
    /// Embedding width.
    pub dim: usize,
}

impl Default for LmConfig {
    fn default() -> Self {
        LmConfig {
            vocab: 12,
            context: 6,
            dim: 16,
        }
    }
}

/// The miniature GPT-style model.
#[derive(Debug)]
pub struct TinyGpt {
    config: LmConfig,
    qkv: QkvProjection,
    /// Parameters: embedding [V,D], positional [T,D], qkv (when dense)
    /// [D,3D] or operator weights, out-proj [D,D], head [D,V].
    embedding: Tensor,
    positional: Tensor,
    qkv_weights: Vec<Tensor>,
    out_proj: Tensor,
    head: Tensor,
    mask: Tensor,
}

impl TinyGpt {
    /// Builds a model with fresh parameters.
    pub fn new(config: LmConfig, qkv: QkvProjection, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let embedding = init::randn(&mut rng, &[config.vocab, config.dim], 0.5);
        let positional = init::randn(&mut rng, &[config.context, config.dim], 0.5);
        let qkv_weights = match &qkv {
            QkvProjection::Dense => {
                vec![init::kaiming(&mut rng, &[config.dim, 3 * config.dim])]
            }
            QkvProjection::Operator(op) => op.init_params(&mut rng),
        };
        let out_proj = init::kaiming(&mut rng, &[config.dim, config.dim]);
        let head = init::kaiming(&mut rng, &[config.dim, config.vocab]);
        // Causal mask [T, T]: 0 on/below diagonal, -1e9 above.
        let t = config.context;
        let mut mask = Tensor::zeros(&[t, t]);
        for i in 0..t {
            for j in 0..t {
                if j > i {
                    mask.set(&[i, j], -1e9);
                }
            }
        }
        TinyGpt {
            config,
            qkv,
            embedding,
            positional,
            qkv_weights,
            out_proj,
            head,
            mask,
        }
    }

    /// Parameter count (for FLOPs/params comparisons).
    pub fn param_count(&self) -> usize {
        self.embedding.numel()
            + self.positional.numel()
            + self.qkv_weights.iter().map(Tensor::numel).sum::<usize>()
            + self.out_proj.numel()
            + self.head.numel()
    }

    /// Forward pass on a batch of contexts (`[n * T]` token ids), producing
    /// next-token logits `[n, V]`; also returns parameter vars for updates.
    fn forward(&self, tape: &mut Tape, contexts: &[usize], n: usize) -> (Var, Vec<Var>) {
        let (t, d) = (self.config.context, self.config.dim);
        assert_eq!(contexts.len(), n * t, "context length mismatch");

        let emb = tape.leaf(self.embedding.clone());
        let pos = tape.leaf(self.positional.clone());
        let qkv_vars: Vec<Var> = self.qkv_weights.iter().map(|w| tape.leaf(w.clone())).collect();
        let proj = tape.leaf(self.out_proj.clone());
        let head = tape.leaf(self.head.clone());
        let mask = tape.constant(self.mask.clone());

        // Embed tokens and add positions: [n*T, D].
        let tok = tape.gather(emb, contexts);
        let tok3 = tape.reshape(tok, &[n, t, d]);
        let pos_b = tape.repeat(pos, 0, n); // [n, T, D]
        let x3 = tape.add(tok3, pos_b);
        let x = tape.reshape(x3, &[n * t, d]);
        // QKV projection: [n*T, 3D]
        let qkv = match &self.qkv {
            QkvProjection::Dense => tape.matmul(x, qkv_vars[0]),
            QkvProjection::Operator(op) => op.forward(tape, x, &qkv_vars),
        };
        // Split into Q, K, V as [n, T, D] each.
        let qkv = tape.reshape(qkv, &[n, t, 3, d]);
        let qkv = tape.permute(qkv, &[2, 0, 1, 3]); // [3, n, T, D]
        let qkv_flat = tape.reshape(qkv, &[3, n * t * d]);
        // Extract the three projections with strided views via einsum-free
        // slicing: reshape tricks keep everything differentiable.
        let q_flat = slice_first(tape, qkv_flat, 0, n * t * d);
        let q = tape.reshape(q_flat, &[n, t, d]);
        let k_flat = slice_first(tape, qkv_flat, 1, n * t * d);
        let k = tape.reshape(k_flat, &[n, t, d]);
        let v_flat = slice_first(tape, qkv_flat, 2, n * t * d);
        let val = tape.reshape(v_flat, &[n, t, d]);

        // Attention scores [n, T, T] with causal mask.
        let scores = tape.einsum("ntd,nsd->nts", &[q, k]);
        let scores = tape.scale(scores, 1.0 / (d as f32).sqrt());
        let mask_b = tape.repeat(mask, 0, n); // [n, T, T]
        let scores = tape.add(scores, mask_b);
        let attn = tape.softmax_last(scores);
        let ctx = tape.einsum("nts,nsd->ntd", &[attn, val]);

        // Output projection and head on the LAST position only, with a
        // residual from the last token's embedding (the direct order-1
        // path).
        let ctx_flat = tape.reshape(ctx, &[n * t, d]);
        let h = tape.matmul(ctx_flat, proj);
        let h = tape.relu(h);
        let h = tape.reshape(h, &[n, t, d]);
        // Select the final time step: einsum with a constant one-hot.
        let mut pick = Tensor::zeros(&[t]);
        pick.set(&[t - 1], 1.0);
        let pick = tape.constant(pick);
        let last_h = tape.einsum("ntd,t->nd", &[h, pick]);
        let last_x = tape.einsum("ntd,t->nd", &[x3, pick]);
        let last = tape.add(last_h, last_x);
        let logits = tape.matmul(last, head);

        let mut params = vec![emb, pos];
        params.extend(qkv_vars);
        params.push(proj);
        params.push(head);
        (logits, params)
    }

    /// One SGD training step on a caller-owned (reused) tape; returns the
    /// batch loss.
    pub fn train_step_on(
        &mut self,
        tape: &mut Tape,
        contexts: &[usize],
        targets: &[usize],
        lr: f32,
    ) -> f32 {
        let n = targets.len();
        tape.reset();
        let (logits, params) = self.forward(tape, contexts, n);
        let loss = tape.softmax_cross_entropy(logits, targets);
        let loss_value = tape.value(loss).data()[0];
        let grads = tape.backward(loss);

        let mut tensors: Vec<&mut Tensor> = Vec::new();
        tensors.push(&mut self.embedding);
        tensors.push(&mut self.positional);
        for w in &mut self.qkv_weights {
            tensors.push(w);
        }
        tensors.push(&mut self.out_proj);
        tensors.push(&mut self.head);
        for (var, tensor) in params.iter().zip(tensors) {
            if let Some(g) = grads.get(*var) {
                crate::train::descend(tensor, g, lr);
            }
        }
        tape.recycle_gradients(grads);
        loss_value
    }

    /// Perplexity on an evaluation batch: `exp(mean CE)`.
    pub fn perplexity(&self, contexts: &[usize], targets: &[usize]) -> f32 {
        let n = targets.len();
        let mut tape = Tape::new();
        let (logits, _) = self.forward(&mut tape, contexts, n);
        let loss = tape.softmax_cross_entropy(logits, targets);
        tape.value(loss).data()[0].exp()
    }

    /// Trains on `task` for `steps`, recording `(step, perplexity)` every
    /// `eval_every` steps — the Fig. 10 curve.
    pub fn train_curve(
        &mut self,
        task: &TextTask,
        steps: usize,
        batch: usize,
        lr: f32,
        eval_every: usize,
    ) -> Vec<(usize, f32)> {
        // Operator projections pin M = batch·context, so evaluation uses
        // the training batch size.
        let (eval_ctx, eval_tgt) = task.eval_batch(batch);
        let mut curve = vec![(0, self.perplexity(&eval_ctx, &eval_tgt))];
        let mut tape = Tape::new();
        for step in 1..=steps {
            let (ctx, tgt) = task.batch(step as u64, batch);
            self.train_step_on(&mut tape, &ctx, &tgt, lr);
            if step % eval_every == 0 || step == steps {
                curve.push((step, self.perplexity(&eval_ctx, &eval_tgt)));
            }
        }
        curve
    }
}

/// Selects block `index` of size `len` from axis 0 of a `[blocks, len]`
/// reshaped tensor (differentiable: einsum with a one-hot selector).
fn slice_first(tape: &mut Tape, x: Var, index: usize, len: usize) -> Var {
    let blocks = tape.value(x).shape()[0];
    let mut onehot = Tensor::zeros(&[blocks]);
    onehot.set(&[index], 1.0);
    let sel = tape.constant(onehot);
    let picked = tape.einsum("bl,b->l", &[x, sel]);
    tape.reshape(picked, &[len])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_lm_learns_markov_structure() {
        let config = LmConfig {
            vocab: 12,
            context: 6,
            dim: 16,
        };
        let task = TextTask::new(5, config.vocab, config.context);
        let mut model = TinyGpt::new(config, QkvProjection::Dense, 3);
        let curve = model.train_curve(&task, 300, 32, 0.2, 100);
        let first = curve.first().unwrap().1;
        let last = curve.last().unwrap().1;
        assert!(
            last < first * 0.8,
            "perplexity must fall: {first} -> {last}"
        );
        // Uniform perplexity is 12; the learned model must beat it clearly.
        assert!(last < 9.0, "final perplexity {last}");
    }

    #[test]
    fn perplexity_starts_near_uniform() {
        let config = LmConfig::default();
        let task = TextTask::new(7, config.vocab, config.context);
        let model = TinyGpt::new(config, QkvProjection::Dense, 1);
        let (ctx, tgt) = task.eval_batch(64);
        let ppl = model.perplexity(&ctx, &tgt);
        assert!(ppl > 6.0 && ppl < 30.0, "untrained ppl {ppl}");
    }

    #[test]
    fn param_count_includes_qkv() {
        let config = LmConfig::default();
        let model = TinyGpt::new(config, QkvProjection::Dense, 1);
        let expect = 12 * 16 + 6 * 16 + 16 * 48 + 16 * 16 + 16 * 12;
        assert_eq!(model.param_count(), expect);
    }
}
