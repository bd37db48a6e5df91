//! The operator specifications the workloads search, built from plain
//! dimension tuples so a workload's size is one line.

use std::sync::Arc;
use syno::core::analysis::naive_flops;
use syno::core::graph::PGraph;
use syno::core::size::Size;
use syno::core::spec::{OperatorSpec, TensorShape};
use syno::core::var::{VarId, VarKind, VarTable};
use syno::nn::{ProxyConfig, TrainConfig};

/// A variable table plus the spec declared over it.
#[derive(Clone)]
pub struct Spec {
    pub vars: Arc<VarTable>,
    pub spec: OperatorSpec,
    /// Proxy family name as the wire protocol spells it.
    pub family: &'static str,
}

/// `[N, Cin, H, W] → [N, Cout, H, W]` with kernel coefficient `k`.
#[derive(Clone, Copy, Debug)]
pub struct VisionDims {
    pub n: u64,
    pub cin: u64,
    pub cout: u64,
    pub hw: u64,
    pub k: u64,
}

/// `[B, T, C] → [B, T, C]` with coefficient `k`.
#[derive(Clone, Copy, Debug)]
pub struct SeqDims {
    pub b: u64,
    pub t: u64,
    pub c: u64,
    pub k: u64,
}

/// The toy vision spec of the repo's own tests and benches.
pub const TOY_VISION: VisionDims = VisionDims {
    n: 4,
    cin: 3,
    cout: 4,
    hw: 8,
    k: 3,
};
/// The paper-scale vision spec: training dominates every search on it.
pub const BIG_VISION: VisionDims = VisionDims {
    n: 8,
    cin: 8,
    cout: 16,
    hw: 16,
    k: 3,
};
pub const TOY_SEQ: SeqDims = SeqDims {
    b: 4,
    t: 4,
    c: 8,
    k: 2,
};
pub const BIG_SEQ: SeqDims = SeqDims {
    b: 4,
    t: 16,
    c: 32,
    k: 2,
};

/// Makes the specification unlike any other session's without changing
/// the search: an unused primary that is 1 under valuation 0 (so it never
/// becomes a `Reduce` domain or a quotient) and `tag + 2` under a second
/// valuation that otherwise repeats the first. Content hashes cover the
/// whole variable table, so two sessions with different tags cannot share
/// a candidate key in the coalescing table or the store.
fn tag_sessions(vars: &mut VarTable, base: Vec<(VarId, u64)>, tag: Option<u64>) {
    match tag {
        None => vars.push_valuation(base),
        Some(tag) => {
            let marker = vars.declare("session", VarKind::Primary);
            let with = |value| base.iter().copied().chain([(marker, value)]).collect();
            vars.push_valuation(with(1));
            vars.push_valuation(with(tag + 2));
        }
    }
}

impl VisionDims {
    pub fn spec(self) -> Spec {
        self.tagged(None)
    }

    /// [`spec`](Self::spec), distinct per `tag` (see [`tag_sessions`]).
    pub fn tagged(self, tag: Option<u64>) -> Spec {
        let mut vars = VarTable::new();
        let n = vars.declare("N", VarKind::Primary);
        let cin = vars.declare("Cin", VarKind::Primary);
        let cout = vars.declare("Cout", VarKind::Primary);
        let h = vars.declare("H", VarKind::Primary);
        let w = vars.declare("W", VarKind::Primary);
        let k = vars.declare("k", VarKind::Coefficient);
        let base = vec![
            (n, self.n),
            (cin, self.cin),
            (cout, self.cout),
            (h, self.hw),
            (w, self.hw),
            (k, self.k),
        ];
        tag_sessions(&mut vars, base, tag);
        let dims =
            |c| TensorShape::new(vec![Size::var(n), Size::var(c), Size::var(h), Size::var(w)]);
        Spec {
            vars: vars.into_shared(),
            spec: OperatorSpec::new(dims(cin), dims(cout)),
            family: "vision",
        }
    }

    /// The reference 2-D convolution at these dimensions.
    pub fn conv2d(self) -> PGraph {
        let Spec { vars, .. } = self.spec();
        let id = |name| vars.find(name).expect("declared above");
        syno::core::ops::conv2d(
            &vars,
            id("N"),
            id("Cin"),
            id("Cout"),
            id("H"),
            id("W"),
            id("k"),
        )
        .expect("conv2d builds at any positive dimensions")
    }

    /// Naive FLOPs of [`conv2d`](Self::conv2d), the operator a vision
    /// search substitutes.
    pub fn conv2d_flops(self) -> u128 {
        naive_flops(&self.conv2d(), 0).expect("every dimension has a value under valuation 0")
    }
}

impl SeqDims {
    pub fn spec(self) -> Spec {
        self.tagged(None)
    }

    /// [`spec`](Self::spec), distinct per `tag` (see [`tag_sessions`]).
    pub fn tagged(self, tag: Option<u64>) -> Spec {
        let mut vars = VarTable::new();
        let b = vars.declare("B", VarKind::Primary);
        let t = vars.declare("T", VarKind::Primary);
        let c = vars.declare("C", VarKind::Primary);
        let k = vars.declare("k", VarKind::Coefficient);
        tag_sessions(
            &mut vars,
            vec![(b, self.b), (t, self.t), (c, self.c), (k, self.k)],
            tag,
        );
        let dims = || TensorShape::new(vec![Size::var(b), Size::var(t), Size::var(c)]);
        Spec {
            vars: vars.into_shared(),
            spec: OperatorSpec::new(dims(), dims()),
            family: "sequence",
        }
    }

    /// FLOPs of the dense projection `btc,cd->btd`, the operator a
    /// sequence search substitutes.
    pub fn projection_flops(self) -> u128 {
        2 * u128::from(self.b * self.t * self.c * self.c)
    }
}

/// Proxy-training configuration with the batch pinned to 4 and one
/// evaluation batch, as every workload uses it.
pub fn proxy(steps: usize, task_seed: u64, init_seed: u64) -> ProxyConfig {
    ProxyConfig {
        train: TrainConfig {
            steps,
            batch: 4,
            eval_batches: 1,
            ..TrainConfig::default()
        },
        task_seed,
        init_seed,
    }
}
