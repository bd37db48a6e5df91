//! The eager program's typed failures and its step list, at every entry
//! point that lowers a pGraph: `Program::new`, `eager::execute`,
//! `eager::record`, `OperatorLayer::new` and the cost model's
//! `eager_chain`.

use syno::compiler::eager_chain;
use syno::core::prelude::*;
use syno::ir::eager::{self, EagerError, Program, Step};
use syno::nn::OperatorLayer;
use syno::tensor::{Tape, Tensor};

/// `[C; rank] → [C; rank]` under `C = c`, with axis 0 shared onto weight 0:
/// one weight product over all `rank` axes.
fn shared_axis(rank: usize, c: u64) -> PGraph {
    let mut vars = VarTable::new();
    let cv = vars.declare("C", VarKind::Primary);
    vars.push_valuation(vec![(cv, c)]);
    let shape = TensorShape::new(vec![Size::var(cv); rank]);
    let g = PGraph::new(vars.into_shared(), OperatorSpec::new(shape.clone(), shape));
    let coord = g.frontier()[0];
    let g = g.apply(&Action::Share { coord, weight: 0 }).unwrap();
    assert!(g.is_complete(), "{}", g.render());
    g
}

/// Every entry point's result on `graph`, with correctly shaped operands.
fn lower_everywhere(graph: &PGraph) -> [Result<(), EagerError>; 4] {
    let rank = graph.spec().input.dims().len();
    let input = Tensor::ones(&vec![1; rank]);
    let weights = [Tensor::ones(&[1])];
    let mut tape = Tape::new();
    let x = tape.constant(input.clone());
    let w = tape.leaf(weights[0].clone());
    [
        Program::new(graph, 0).map(|_| ()),
        eager::execute(graph, 0, &input, &weights).map(|_| ()),
        eager::record(&mut tape, graph, 0, x, &[w]).map(|_| ()),
        OperatorLayer::new(graph, 0).map(|_| ()),
    ]
}

/// The einsum spec of a weight product names each live axis by one of 52
/// letters: rank 52 lowers and runs everywhere, rank 53 is a typed error
/// everywhere (and no eager chain to price).
#[test]
fn more_axes_than_einsum_letters_is_a_typed_error() {
    let fits = shared_axis(52, 1);
    assert_eq!(lower_everywhere(&fits), [Ok(()), Ok(()), Ok(()), Ok(())]);
    assert_eq!(eager_chain(&fits, 0).len(), 1, "one weight product");

    let too_many = shared_axis(53, 1);
    let err = Err(EagerError::TooManyAxes(53));
    assert_eq!(lower_everywhere(&too_many), [err.clone(), err.clone(), err.clone(), err]);
    assert!(eager_chain(&too_many, 0).is_empty());
}

/// A weight shaped unlike the program's weight shape is refused on both
/// replay paths before any tensor op runs.
#[test]
fn a_wrongly_shaped_weight_is_a_shape_mismatch() {
    let g = shared_axis(2, 4);
    let program = Program::new(&g, 0).unwrap();
    assert_eq!(program.weight_shapes(), [vec![4]]);
    let input = Tensor::ones(&[4, 4]);
    let wrong = Tensor::ones(&[3]);
    let mismatch = Err(EagerError::ShapeMismatch("weight"));

    assert_eq!(eager::execute(&g, 0, &input, std::slice::from_ref(&wrong)).map(|_| ()), mismatch);
    let mut tape = Tape::new();
    let (x, w) = (tape.constant(input), tape.leaf(wrong));
    assert_eq!(eager::record(&mut tape, &g, 0, x, &[w]).map(|_| ()), mismatch);
    assert_eq!(tape.len(), 2, "nothing is recorded");
}

/// An operator whose frontier already runs in input order, and whose output
/// axes end in output order, is its weight product alone: no identity
/// permute is built, and none is recorded.
#[test]
fn identity_orders_record_no_permute() {
    let g = shared_axis(3, 2);
    let program = Program::new(&g, 0).unwrap();
    assert!(
        matches!(program.steps(), [Step::Einsum(spec, 0)] if spec == "abc,a->abc"),
        "{:?}",
        program.steps()
    );
    let mut tape = Tape::new();
    let x = tape.constant(Tensor::ones(&[2, 2, 2]));
    let w = tape.leaf(Tensor::ones(&[2]));
    let out = program.record(&mut tape, x, &[w]).unwrap();
    assert_eq!(tape.len(), 3, "one node: the weight product");
    assert_eq!(tape.value(out).shape(), &[2, 2, 2]);
}
