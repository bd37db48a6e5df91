//! Layers: the building blocks of the proxy models.
//!
//! The central one is [`OperatorLayer`], which lowers a complete pGraph once
//! to its eager program and replays it on the autodiff tape at every
//! forward — i.e. a synthesized operator used as a trainable network layer,
//! exactly the paper's drop-in substitution (§4). The rest are the fixed
//! scaffolding the paper leaves untouched: activations, pooling, and the
//! classifier head.

use std::borrow::Borrow;
use std::fmt;
use syno_core::graph::PGraph;
use syno_ir::eager;
use syno_tensor::{init, Tape, Tensor, Var};

/// A trainable (or fixed) network layer.
pub trait Layer: fmt::Debug {
    /// Records the forward computation on the tape.
    fn forward(&self, tape: &mut Tape, x: Var, params: &[Var]) -> Var;

    /// Fresh parameter tensors for this layer.
    fn init_params(&self, rng: &mut dyn rand::RngCore) -> Vec<Tensor> {
        let _ = rng;
        Vec::new()
    }
}

/// A synthesized (or reference) operator used as a layer.
///
/// The input is expected shaped as the operator's input specification under
/// the layer's valuation.
pub struct OperatorLayer {
    program: eager::Program,
}

impl fmt::Debug for OperatorLayer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "OperatorLayer({} steps, {} weights)",
            self.program.steps().len(),
            self.program.weight_shapes().len()
        )
    }
}

impl OperatorLayer {
    /// Wraps a complete pGraph, lowered once to its eager program. The
    /// layer keeps only the program, so the graph may be borrowed or owned.
    ///
    /// # Errors
    ///
    /// Returns the eager-lowering error when the operator cannot be
    /// realized on a tape (incomplete graph, bad valuation, non-realizable
    /// or diagonal weight).
    pub fn new(graph: impl Borrow<PGraph>, valuation: usize) -> Result<Self, eager::EagerError> {
        // Lowered on shapes alone (no tensor is built) and checked
        // recordable once up front: rejecting here keeps training loops
        // panic-free.
        let program = eager::Program::new(graph.borrow(), valuation)?;
        program.recordable()?;
        Ok(OperatorLayer { program })
    }
}

impl Layer for OperatorLayer {
    fn forward(&self, tape: &mut Tape, x: Var, params: &[Var]) -> Var {
        self.program
            .record(tape, x, params)
            .expect("realizability checked at construction")
    }

    fn init_params(&self, rng: &mut dyn rand::RngCore) -> Vec<Tensor> {
        self.program
            .weight_shapes()
            .iter()
            .map(|s| init::kaiming(rng, s))
            .collect()
    }
}

/// Rectified linear unit.
#[derive(Debug, Default)]
pub struct ReluLayer;

impl Layer for ReluLayer {
    fn forward(&self, tape: &mut Tape, x: Var, _params: &[Var]) -> Var {
        tape.relu(x)
    }
}

/// Global average pooling `[B, C, H, W] → [B, C]`.
#[derive(Debug, Default)]
pub struct GlobalAvgPool;

impl Layer for GlobalAvgPool {
    fn forward(&self, tape: &mut Tape, x: Var, _params: &[Var]) -> Var {
        let shape = tape.value(x).shape().to_vec();
        assert_eq!(shape.len(), 4, "global pool expects [B, C, H, W]");
        let denom = (shape[2] * shape[3]) as f32;
        let s = tape.sum_axis(x, 3);
        let s = tape.sum_axis(s, 2);
        tape.scale(s, 1.0 / denom)
    }
}

/// Fully-connected classifier head `[B, F] → [B, C]`.
#[derive(Debug)]
pub struct LinearLayer {
    /// Input features.
    pub in_features: usize,
    /// Output features.
    pub out_features: usize,
}

impl LinearLayer {
    /// Creates a head with the given dimensions.
    pub fn new(in_features: usize, out_features: usize) -> Self {
        LinearLayer {
            in_features,
            out_features,
        }
    }
}

impl Layer for LinearLayer {
    fn forward(&self, tape: &mut Tape, x: Var, params: &[Var]) -> Var {
        tape.matmul(x, params[0])
    }

    fn init_params(&self, rng: &mut dyn rand::RngCore) -> Vec<Tensor> {
        vec![init::kaiming(rng, &[self.in_features, self.out_features])]
    }
}

/// A feed-forward stack of layers with owned parameters.
#[derive(Debug, Default)]
pub struct Model {
    layers: Vec<Box<dyn Layer>>,
    params: Vec<Vec<Tensor>>,
}

impl Model {
    /// An empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a layer, initializing its parameters from `rng`.
    pub fn push(&mut self, layer: Box<dyn Layer>, rng: &mut dyn rand::RngCore) {
        self.params.push(layer.init_params(rng));
        self.layers.push(layer);
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` when the model has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Total parameter count.
    pub fn param_count(&self) -> usize {
        self.params
            .iter()
            .flat_map(|p| p.iter())
            .map(Tensor::numel)
            .sum()
    }

    /// Runs the forward pass, returning the output plus the parameter vars
    /// (for gradient updates).
    pub fn forward(&self, tape: &mut Tape, x: Var) -> (Var, Vec<Vec<Var>>) {
        let mut h = x;
        let mut all_vars = Vec::with_capacity(self.layers.len());
        for (layer, params) in self.layers.iter().zip(&self.params) {
            let vars: Vec<Var> = params.iter().map(|p| tape.leaf(p.clone())).collect();
            h = layer.forward(tape, h, &vars);
            all_vars.push(vars);
        }
        (h, all_vars)
    }

    /// Mutable access to the parameter tensors (for optimizer updates).
    pub fn params_mut(&mut self) -> &mut Vec<Vec<Tensor>> {
        &mut self.params
    }

    /// Read-only access to the parameter tensors.
    pub fn params(&self) -> &[Vec<Tensor>] {
        &self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use syno_core::ops;
    use syno_core::var::{VarKind, VarTable};

    fn conv_layer() -> OperatorLayer {
        let mut vars = VarTable::new();
        let n = vars.declare("N", VarKind::Primary);
        let cin = vars.declare("Cin", VarKind::Primary);
        let cout = vars.declare("Cout", VarKind::Primary);
        let h = vars.declare("H", VarKind::Primary);
        let w = vars.declare("W", VarKind::Primary);
        let k = vars.declare("k", VarKind::Coefficient);
        vars.push_valuation(vec![(n, 4), (cin, 3), (cout, 8), (h, 8), (w, 8), (k, 3)]);
        let vars = vars.into_shared();
        let g = ops::conv2d(&vars, n, cin, cout, h, w, k).unwrap();
        OperatorLayer::new(g, 0).unwrap()
    }

    #[test]
    fn operator_layer_shapes() {
        let layer = conv_layer();
        let mut rng = StdRng::seed_from_u64(0);
        let params = layer.init_params(&mut rng);
        assert_eq!(params.len(), 1);
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::zeros(&[4, 3, 8, 8]));
        let pv: Vec<Var> = params.iter().map(|p| tape.leaf(p.clone())).collect();
        let y = layer.forward(&mut tape, x, &pv);
        assert_eq!(tape.value(y).shape(), &[4, 8, 8, 8]);
    }

    #[test]
    fn model_forward_and_params() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut model = Model::new();
        model.push(Box::new(conv_layer()), &mut rng);
        model.push(Box::new(ReluLayer), &mut rng);
        model.push(Box::new(GlobalAvgPool), &mut rng);
        model.push(Box::new(LinearLayer::new(8, 5)), &mut rng);
        assert_eq!(model.len(), 4);
        assert!(model.param_count() > 0);

        let mut tape = Tape::new();
        let x = tape.leaf(init::uniform(&mut rng, &[4, 3, 8, 8], -1.0, 1.0));
        let (logits, vars) = model.forward(&mut tape, x);
        assert_eq!(tape.value(logits).shape(), &[4, 5]);
        assert_eq!(vars.len(), 4);

        // Gradients reach the conv weights through the whole stack.
        let loss = tape.softmax_cross_entropy(logits, &[0, 1, 2, 3]);
        let grads = tape.backward(loss);
        let gw = grads.get(vars[0][0]).expect("conv weight gradient");
        assert!(gw.sq_norm() > 0.0);
    }

    #[test]
    fn global_pool_averages() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(
            (0..16).map(|v| v as f32).collect(),
            &[1, 1, 4, 4],
        ));
        let y = GlobalAvgPool.forward(&mut tape, x, &[]);
        assert_eq!(tape.value(y).shape(), &[1, 1]);
        assert!((tape.value(y).get(&[0, 0]) - 7.5).abs() < 1e-5);
    }
}
