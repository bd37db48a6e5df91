//! The child filter runs without the heap. A counting global allocator (this
//! file is its own test binary) sees every allocation the test thread makes
//! while it asks, on every state of seeded walks over two toy specs:
//!
//! * [`CanonRules::allows`], of every candidate the permissive rule set
//!   keeps, and [`shape_distance`], of the state's frontier and of each
//!   child's: no allocation at all;
//! * [`Enumerator::feasible_children`]: two new blocks at most — the list it
//!   returns and the one buffer holding the parent's frontier and each child
//!   frontier written out — and no regrowth but the list's own, however many
//!   candidates it tries.
//!
//! [`PGraph::apply`] is bounded too, on average per depth: the child is one
//! copy of each of the parent's growing vectors, with room for what the
//! action adds.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use syno_core::prelude::*;

/// Forwards to the system allocator, counting new blocks and regrowths made
/// on a thread that is counting.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    static REALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn note(counter: &'static std::thread::LocalKey<Cell<usize>>) {
    if COUNTING.with(Cell::get) {
        counter.with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `note` only touches const-initialised
// thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(&ALLOCS);
        // SAFETY: the caller's guarantees for `alloc` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(&ALLOCS);
        // SAFETY: the caller's guarantees for `alloc_zeroed` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`, as the caller
        // guarantees for this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(&REALLOCS);
        // SAFETY: the caller's guarantees for `realloc` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f`, returning its result and the `(allocs, reallocs)` it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, (usize, usize)) {
    ALLOCS.with(|n| n.set(0));
    REALLOCS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, (ALLOCS.with(Cell::get), REALLOCS.with(Cell::get)))
}

/// `[N, Cin, H, W] → [N, Cout, H, W]` at N=4, Cin=3, Cout=4, H=W=8, k=3.
fn toy_vision() -> (Arc<VarTable>, OperatorSpec) {
    let mut vars = VarTable::new();
    let [n, cin, cout, h, w] =
        ["N", "Cin", "Cout", "H", "W"].map(|v| vars.declare(v, VarKind::Primary));
    let k = vars.declare("k", VarKind::Coefficient);
    vars.push_valuation(vec![(n, 4), (cin, 3), (cout, 4), (h, 8), (w, 8), (k, 3)]);
    let dims = |c| TensorShape::new(vec![Size::var(n), Size::var(c), Size::var(h), Size::var(w)]);
    (vars.into_shared(), OperatorSpec::new(dims(cin), dims(cout)))
}

/// `[B, T, C] → [B, T, C]` at B=4, T=4, C=8, k=2.
fn toy_sequence() -> (Arc<VarTable>, OperatorSpec) {
    let mut vars = VarTable::new();
    let [b, t, c] = ["B", "T", "C"].map(|v| vars.declare(v, VarKind::Primary));
    let k = vars.declare("k", VarKind::Coefficient);
    vars.push_valuation(vec![(b, 4), (t, 4), (c, 8), (k, 2)]);
    let dims = TensorShape::new(vec![Size::var(b), Size::var(t), Size::var(c)]);
    (vars.into_shared(), OperatorSpec::new(dims.clone(), dims))
}

/// Checks every state of `walks` seeded 4-step walks over `spec`'s
/// canonical children (feasible or not, so dead ends are visited too, and
/// the last state has no step left), and returns how many states it checked.
fn check_walks((vars, spec): (Arc<VarTable>, OperatorSpec), walks: u64) -> usize {
    let config = SynthConfig::auto(&vars, 4);
    let enumerator = Enumerator::new(config.clone());
    let permissive = Enumerator::new(SynthConfig {
        canon: CanonRules::permissive(),
        ..config.clone()
    });
    let input = spec.input.dims().to_vec();
    let root = PGraph::new(vars, spec);
    let mut states = 0;
    for seed in 0..walks {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut state = root.clone();
        loop {
            states += 1;
            let offered = permissive.children(&state);
            let (_, made) = counted(|| {
                for action in &offered {
                    let _ = config.canon.allows(&state, action);
                }
            });
            assert_eq!(made, (0, 0), "allows allocated on\n{state}");

            let frontiers: Vec<Vec<Size>> = std::iter::once(Ok(state.frontier_sizes()))
                .chain(offered.iter().map(|action| state.peek(action)))
                .filter_map(Result::ok)
                .collect();
            let (_, made) = counted(|| {
                for frontier in &frontiers {
                    shape_distance(frontier, &input, state.vars());
                }
            });
            assert_eq!(made, (0, 0), "shape_distance allocated on\n{state}");

            let (feasible, (allocs, reallocs)) = counted(|| enumerator.feasible_children(&state));
            let growths = usize::BITS - feasible.len().leading_zeros();
            assert!(
                allocs <= 2 && reallocs as u32 <= growths,
                "feasible_children made {allocs} blocks and {reallocs} regrowths \
                 for {} children of {} offered on\n{state}",
                feasible.len(),
                offered.len(),
            );

            let children = enumerator.children(&state);
            if children.is_empty() || state.len() == config.max_steps {
                break;
            }
            let pick = &children[rng.random_range(0..children.len())];
            state = state.apply(pick).expect("a child applies");
        }
    }
    states
}

/// Mean allocations (new blocks plus regrowths) of one [`PGraph::apply`] at
/// depths 0, 1 and 2: every canonical child of every state at that depth of
/// `walks` seeded walks over `spec`.
fn apply_allocs((vars, spec): (Arc<VarTable>, OperatorSpec), walks: u64) -> [f64; 3] {
    let enumerator = Enumerator::new(SynthConfig::auto(&vars, 4));
    let root = PGraph::new(vars, spec);
    let mut totals = [(0usize, 0usize); 3];
    for seed in 0..walks {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut state = root.clone();
        for (allocs, applies) in &mut totals {
            let children = enumerator.children(&state);
            if children.is_empty() {
                break;
            }
            for action in &children {
                let (child, (made, grown)) = counted(|| state.apply(action));
                drop(child);
                *allocs += made + grown;
                *applies += 1;
            }
            state = state.apply(&children[rng.random_range(0..children.len())]).unwrap();
        }
    }
    totals.map(|(allocs, applies)| allocs as f64 / applies.max(1) as f64)
}

#[test]
fn apply_allocations_are_bounded() {
    for spec in [toy_vision(), toy_sequence()] {
        let means = apply_allocs(spec, 24);
        for (mean, bound) in means.into_iter().zip([5.6, 6.2, 6.9]) {
            assert!(mean <= bound, "apply allocated {means:?} per call at depths 0-2");
        }
    }
}

#[test]
fn the_child_filter_allocates_only_its_result() {
    assert!(check_walks(toy_vision(), 24) > 24);
    assert!(check_walks(toy_sequence(), 24) > 24);
}
