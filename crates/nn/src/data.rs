//! Synthetic datasets — the reproduction's stand-ins for CIFAR-100,
//! ImageNet and lm1b (see DESIGN.md §3).
//!
//! * [`VisionTask`] — teacher-student image classification: a frozen random
//!   convolutional teacher labels spatially-correlated noise images. The
//!   teacher has genuine spatial and channel structure, so students whose
//!   operators mix information well (receptive field, channel mixing) attain
//!   higher accuracy — preserving the *ranking* signal the search consumes.
//! * [`TextTask`] — an order-2 Markov character source for the GPT-2
//!   perplexity experiment (Fig. 10): the entropy is controlled, so a model
//!   that learns the transition structure reaches a perplexity well below
//!   the uniform baseline.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;
use syno_tensor::{einsum, init, ops, Tensor};

/// One search's task and the batches it deals: a slot per training step and
/// per evaluation round, filled by whichever candidate's training gets there
/// first and read-only afterwards. The task seed is fixed per search so that
/// rewards are comparable, which makes batch *i* the same for every
/// candidate — it is generated once (`syno_nn_task_batches_total` counts).
/// Slots fill lazily: a search whose candidates all diverge early never pays
/// for the later steps, and none waits for batches before its first
/// candidate.
#[derive(Debug)]
pub(crate) struct TaskBatches<T, B> {
    task: T,
    deal: fn(&T, u64, usize) -> B,
    n: usize,
    train: Vec<OnceLock<B>>,
    eval: Vec<OnceLock<B>>,
}

impl<T, B> TaskBatches<T, B> {
    /// `task` dealing batches of `n` samples through `deal` (its `batch`
    /// method) into `steps` training and `evals` evaluation slots.
    pub(crate) fn new(
        task: T,
        deal: fn(&T, u64, usize) -> B,
        n: usize,
        steps: usize,
        evals: usize,
    ) -> Self {
        let slots = |count| std::iter::repeat_with(OnceLock::new).take(count).collect();
        TaskBatches {
            task,
            deal,
            n,
            train: slots(steps),
            eval: slots(evals),
        }
    }

    /// The batch of training step `step`.
    pub(crate) fn train(&self, step: usize) -> &B {
        self.fill(&self.train[step], step as u64)
    }

    /// How many held-out batches there are.
    pub(crate) fn eval_rounds(&self) -> usize {
        self.eval.len()
    }

    /// The `round`-th held-out batch (a stream disjoint from training's).
    pub(crate) fn eval(&self, round: usize) -> &B {
        self.fill(&self.eval[round], u64::MAX / 2 - round as u64)
    }

    fn fill<'a>(&'a self, slot: &'a OnceLock<B>, index: u64) -> &'a B {
        slot.get_or_init(|| {
            let _span = syno_telemetry::span!("task_batch");
            syno_telemetry::counter!("syno_nn_task_batches_total").inc();
            (self.deal)(&self.task, index, self.n)
        })
    }
}

/// A teacher-labeled synthetic vision classification task.
#[derive(Debug)]
pub struct VisionTask {
    /// Image channels.
    pub channels: usize,
    /// Image height and width.
    pub size: usize,
    /// Number of classes.
    pub classes: usize,
    teacher_filters: Tensor, // [F, C, 3, 3]
    teacher_head: Tensor,    // [F, classes]
    seed: u64,
}

impl VisionTask {
    /// Builds a task with a frozen random teacher.
    pub fn new(seed: u64, channels: usize, size: usize, classes: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7e3a_11cd);
        let filters = init::randn(&mut rng, &[2 * classes, channels, 3, 3], 0.8);
        let head = init::randn(&mut rng, &[2 * classes, classes], 1.0);
        VisionTask {
            channels,
            size,
            classes,
            teacher_filters: filters,
            teacher_head: head,
            seed,
        }
    }

    /// Spatially-correlated random image batch `[n, C, S, S]`.
    fn images(&self, rng: &mut StdRng, n: usize) -> Tensor {
        // Coarse 1/2-resolution noise upsampled by repetition + fine noise:
        // neighboring pixels correlate, like natural images.
        let half = (self.size / 2).max(1);
        let coarse = init::randn(rng, &[n, self.channels, half, half], 1.0);
        let mut img = Tensor::zeros(&[n, self.channels, self.size, self.size]);
        let (size, coarse) = (self.size, coarse.data());
        // Output row `y` of a plane repeats coarse row `y / 2`, each cell
        // twice (the last one once more when the size is odd).
        for (y, row) in img.data_mut().chunks_exact_mut(size.max(1)).enumerate() {
            let (plane, y) = (y / size, y % size);
            let from = &coarse[(plane * half + (y / 2).min(half - 1)) * half..][..half];
            for (x, cell) in row.iter_mut().enumerate() {
                *cell = from[(x / 2).min(half - 1)];
            }
        }
        let fine = init::randn(rng, &[n, self.channels, self.size, self.size], 0.3);
        img.add(&fine)
    }

    /// The teacher's same-padded 3×3 convolution `[n, C, S, S] → [n, F, S,
    /// S]`, computed one `(n, h)` output row at a time for all `F` filters.
    ///
    /// Every output element sums its terms `image · filter` over `(c, a, b)`
    /// ascending from `+0.0`: the order in which `nchwab,fcab->nfhw` sums a
    /// twice-unfolded image (the test oracle). Input rows on the padding are
    /// skipped, and the padding columns are read as zeros. Either way such a
    /// term is `±0.0` because the filters are finite, and adding `±0.0` to a
    /// sum that started at `+0.0` never changes a bit of it.
    fn convolve(&self, images: &Tensor) -> Tensor {
        let (n, c, s) = (images.shape()[0], images.shape()[1], images.shape()[3]);
        let f = self.teacher_filters.shape()[0];
        let mut out = Tensor::zeros(&[n, f, s, s]);
        let (image, filters) = (images.data(), self.teacher_filters.data());
        let dst = out.data_mut();
        // The input row being read, between two zero padding columns: tap b
        // of output column x reads `padded[x + b]`.
        let mut padded = vec![0.0f32; s + 2];
        for (i, y) in (0..n * s).map(|r| (r / s, r % s)) {
            for ch in 0..c {
                for a in 0..3 {
                    // Output row y reads input row y + a − 1.
                    let Some(row) = (y + a).checked_sub(1).filter(|&r| r < s) else {
                        continue;
                    };
                    padded[1..=s].copy_from_slice(&image[((i * c + ch) * s + row) * s..][..s]);
                    for k in 0..f {
                        let acc = &mut dst[((i * f + k) * s + y) * s..][..s];
                        let taps = &filters[((k * c + ch) * 3 + a) * 3..][..3];
                        for (b, &weight) in taps.iter().enumerate() {
                            for (sum, &v) in acc.iter_mut().zip(&padded[b..b + s]) {
                                *sum += v * weight;
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Teacher labels from its convolution `[n, F, S, S]`: relu → global
    /// pool → standardise → linear → argmax.
    fn classify(&self, features: &Tensor) -> Vec<usize> {
        let n = features.shape()[0];
        let features = features.map(|v| v.max(0.0));
        let pooled = ops::mean_axis(&ops::mean_axis(&features, 3), 2); // [n, F]
        // Per-image feature standardization: without it the ReLU'd DC
        // component dominates every image identically and the argmax
        // collapses to a single class.
        let f = pooled.shape()[1];
        let mut centered = pooled.clone();
        for b in 0..n {
            let row: Vec<f32> = (0..f).map(|j| pooled.get(&[b, j])).collect();
            let mean: f32 = row.iter().sum::<f32>() / f as f32;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / f as f32;
            let std = var.sqrt().max(1e-6);
            for (j, v) in row.iter().enumerate() {
                centered.set(&[b, j], (v - mean) / std);
            }
        }
        let logits =
            einsum("nf,fk->nk", &[&centered, &self.teacher_head]).expect("teacher head");
        logits.argmax_last()
    }

    /// Samples a labeled batch deterministically from `batch_index`.
    pub fn batch(&self, batch_index: u64, n: usize) -> (Tensor, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_mul(31).wrapping_add(batch_index));
        let images = self.images(&mut rng, n);
        let labels = self.classify(&self.convolve(&images));
        (images, labels)
    }
}

/// A first-order Markov character source with peaked transitions.
///
/// The conditional entropy is ≈ log₂3 bits (three likely successors per
/// token), so a language model that learns the transition structure reaches
/// a perplexity near 3–4, far below the uniform `vocab` baseline — giving
/// the Fig. 10 curve a meaningful floor.
#[derive(Debug)]
pub struct TextTask {
    /// Vocabulary size.
    pub vocab: usize,
    /// Context length used by models.
    pub context: usize,
    table: Vec<Vec<f32>>, // [vocab][vocab] transition rows (cumulative)
    seed: u64,
}

impl TextTask {
    /// Builds a source with peaked (low-entropy) transitions.
    pub fn new(seed: u64, vocab: usize, context: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51a9_c0de);
        let mut table = Vec::with_capacity(vocab);
        for _ in 0..vocab {
            // Sparse, peaked distribution: 3 likely successors.
            let mut probs = vec![0.02f32; vocab];
            for _ in 0..3 {
                let j = rng.random_range(0..vocab);
                probs[j] += 1.0;
            }
            let total: f32 = probs.iter().sum();
            let mut acc = 0.0;
            let cumulative: Vec<f32> = probs
                .iter()
                .map(|p| {
                    acc += p / total;
                    acc
                })
                .collect();
            table.push(cumulative);
        }
        TextTask {
            vocab,
            context,
            table,
            seed,
        }
    }

    fn next_symbol(&self, rng: &mut StdRng, _a: usize, b: usize) -> usize {
        let row = &self.table[b];
        let u: f32 = rng.random();
        row.iter().position(|&c| u <= c).unwrap_or(self.vocab - 1)
    }

    /// Samples a token sequence of the given length.
    pub fn sequence(&self, stream: u64, len: usize) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_mul(131).wrapping_add(stream));
        let mut out = Vec::with_capacity(len);
        let mut a = rng.random_range(0..self.vocab);
        let mut b = rng.random_range(0..self.vocab);
        for _ in 0..len {
            let c = self.next_symbol(&mut rng, a, b);
            out.push(c);
            a = b;
            b = c;
        }
        out
    }

    /// A batch of `(contexts, next-token)` training pairs:
    /// contexts is `[n, context]` token ids flattened row-major.
    pub fn batch(&self, batch_index: u64, n: usize) -> (Vec<usize>, Vec<usize>) {
        let seq = self.sequence(batch_index, n + self.context);
        let mut contexts = Vec::with_capacity(n * self.context);
        let mut targets = Vec::with_capacity(n);
        for i in 0..n {
            contexts.extend_from_slice(&seq[i..i + self.context]);
            targets.push(seq[i + self.context]);
        }
        (contexts, targets)
    }

    /// A held-out evaluation batch.
    pub fn eval_batch(&self, n: usize) -> (Vec<usize>, Vec<usize>) {
        self.batch(u64::MAX / 2, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The teacher's convolution as the generic path computes it: both
    /// spatial axes unfolded into `[n, C, H, W, 3, 3]` (unfold appends its
    /// window last) and contracted with the filters.
    fn unfold_features(task: &VisionTask, images: &Tensor) -> Tensor {
        let u = ops::unfold(&ops::unfold(images, 2, 3), 3, 3);
        einsum("nchwab,fcab->nfhw", &[&u, &task.teacher_filters]).expect("teacher contraction")
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// A task of `channels × size × size` images whose teacher convolves
    /// with `filters` `[F, channels, 3, 3]`.
    fn with_filters(channels: usize, size: usize, filters: Tensor) -> VisionTask {
        VisionTask {
            teacher_filters: filters,
            ..VisionTask::new(0, channels, size, 4)
        }
    }

    #[test]
    fn teacher_convolution_matches_the_unfold_einsum_oracle_bit_for_bit() {
        for seed in [1, 7, 1234] {
            for size in [1, 2, 7, 8, 16] {
                for channels in [1, 3, 8] {
                    let task = VisionTask::new(seed, channels, size, 4);
                    for n in [1, 4, 8] {
                        let (images, labels) = task.batch(seed, n);
                        let (direct, oracle) =
                            (task.convolve(&images), unfold_features(&task, &images));
                        let at = format!("seed {seed}, S {size}, C {channels}, n {n}");
                        assert_eq!(direct.shape(), oracle.shape(), "{at}");
                        assert_eq!(bits(&direct), bits(&oracle), "{at}");
                        assert_eq!(labels, task.classify(&oracle), "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_delta_filter_returns_its_channel() {
        let (channels, size, f, n) = (3, 7, 8, 4);
        let mut filters = Tensor::zeros(&[f, channels, 3, 3]);
        for k in 0..f {
            filters.set(&[k, k % channels, 1, 1], 1.0);
        }
        let task = with_filters(channels, size, filters);
        let images = task.images(&mut StdRng::seed_from_u64(5), n);
        let plane = size * size;
        let expected: Vec<u32> = (0..n * f)
            .flat_map(|p| {
                images.data()[(p / f * channels + p % f % channels) * plane..][..plane].iter()
            })
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(bits(&task.convolve(&images)), expected);
    }

    #[test]
    fn all_ones_count_the_taps_on_the_image() {
        let (channels, size) = (3, 5);
        let task = with_filters(channels, size, Tensor::full(&[8, channels, 3, 3], 1.0));
        let features = task.convolve(&Tensor::full(&[2, channels, size, size], 1.0));
        // 9C inside, 6C on an edge, 4C in a corner.
        let taps = |z: usize| 3 - usize::from(z == 0) - usize::from(z == size - 1);
        for (at, &v) in features.data().iter().enumerate() {
            let (y, x) = (at / size % size, at % size);
            assert_eq!(v, (channels * taps(y) * taps(x)) as f32, "element {at}");
        }
    }

    #[test]
    fn sums_start_at_positive_zero() {
        // Every term of a zero image under negative filters is −0.0, which
        // leaves a sum that started at +0.0 where it was.
        let (channels, size) = (2, 4);
        let task = with_filters(channels, size, Tensor::full(&[8, channels, 3, 3], -1.0));
        let images = Tensor::zeros(&[2, channels, size, size]);
        let features = task.convolve(&images);
        assert!(
            bits(&features).iter().all(|&b| b == 0),
            "{:?}",
            features.data()
        );
        assert_eq!(bits(&features), bits(&unfold_features(&task, &images)));
    }

    #[test]
    fn vision_batches_are_deterministic() {
        let task = VisionTask::new(7, 3, 8, 4);
        let (xa, ya) = task.batch(0, 8);
        let (xb, yb) = task.batch(0, 8);
        assert_eq!(xa, xb);
        assert_eq!(ya, yb);
        let (xc, _) = task.batch(1, 8);
        assert_ne!(xa, xc);
    }

    #[test]
    fn vision_labels_in_range_and_nondegenerate() {
        let task = VisionTask::new(11, 3, 8, 4);
        let (_, labels) = task.batch(0, 64);
        assert!(labels.iter().all(|&l| l < 4));
        // The teacher must not collapse to one class.
        let mut counts = [0usize; 4];
        for &l in &labels {
            counts[l] += 1;
        }
        let nonzero = counts.iter().filter(|&&c| c > 0).count();
        assert!(nonzero >= 2, "degenerate teacher: {counts:?}");
    }

    #[test]
    fn vision_images_are_spatially_correlated() {
        let task = VisionTask::new(3, 1, 8, 2);
        let (x, _) = task.batch(0, 16);
        // Neighboring pixels correlate more than distant ones.
        let mut near = 0.0;
        let mut far = 0.0;
        let mut count = 0.0;
        for b in 0..16 {
            for y in 0..7 {
                for xx in 0..4 {
                    let v = x.get(&[b, 0, y, xx]);
                    near += v * x.get(&[b, 0, y + 1, xx]);
                    far += v * x.get(&[b, 0, y, xx + 4]);
                    count += 1.0;
                }
            }
        }
        assert!(near / count > far / count, "near {near} vs far {far}");
    }

    #[test]
    fn text_sequences_are_learnable() {
        let task = TextTask::new(5, 12, 4);
        let seq = task.sequence(0, 4000);
        assert!(seq.iter().all(|&t| t < 12));
        // Empirical bigram entropy must be far below uniform (log2 12 ≈ 3.58).
        let mut counts = vec![0f64; 12 * 12];
        for w in seq.windows(2) {
            counts[w[0] * 12 + w[1]] += 1.0;
        }
        let total: f64 = counts.iter().sum();
        let entropy: f64 = counts
            .iter()
            .filter(|&&c| c > 0.0)
            .map(|&c| {
                let p = c / total;
                -p * p.log2()
            })
            .sum();
        assert!(entropy < 2.0 * 3.58, "entropy {entropy}");
    }

    #[test]
    fn text_batches_have_consistent_shapes() {
        let task = TextTask::new(9, 16, 6);
        let (ctx, tgt) = task.batch(0, 10);
        assert_eq!(ctx.len(), 60);
        assert_eq!(tgt.len(), 10);
        assert!(ctx.iter().chain(tgt.iter()).all(|&t| t < 16));
    }
}
