//! A training loop that resets one [`Tape`] each step stops allocating
//! tensor buffers once its scratch pool holds the step's working set: from
//! the third repetition of a fixed step on, every `f32` buffer of at least
//! 1 KiB comes from the pool, none is regrown. A counting global allocator
//! (this file is its own test binary) sees every allocation the step's
//! thread makes. The tape's own records are not buffers: a gather or a loss
//! keeps its own copy of the caller's ids or labels (`usize`, 8-aligned) for
//! the backward pass, one small allocation per op and step.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use syno_tensor::{Tape, Tensor};

/// Forwards to the system allocator, noting every `f32`-aligned allocation
/// or reallocation of at least [`BIG`] bytes on a thread that is counting.
struct Counting;

/// The size from which an allocation counts as a tensor buffer.
const BIG: usize = 1024;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static BIG_ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize, layout: Layout) {
    if size >= BIG && layout.align() == align_of::<f32>() && COUNTING.with(Cell::get) {
        BIG_ALLOCS.with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `note` only touches const-initialised
// thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), layout);
        // SAFETY: the caller's guarantees for `alloc` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), layout);
        // SAFETY: the caller's guarantees for `alloc_zeroed` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`, as the caller
        // guarantees for this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size, layout);
        // SAFETY: the caller's guarantees for `realloc` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn noisy(shape: &[usize], salt: u64) -> Tensor {
    let n: usize = shape.iter().product();
    let data = (0..n as u64)
        .map(|i| {
            let h = (i + salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            ((h >> 40) as f32) / ((1u64 << 24) as f32) - 0.5
        })
        .collect();
    Tensor::from_vec(data, shape)
}

/// One proxy-training-shaped step: embed 128 tokens, window them, weigh
/// each channel (a broadcast weight product), sum the windows, window and
/// sum the channels (a trailing-axis unfold), mix channels, classify four
/// rows. Returns the loss.
fn step(
    tape: &mut Tape,
    [table, gain, mix, head]: [Tensor; 4],
    ids: &[usize],
    labels: &[usize],
) -> f32 {
    tape.reset();
    let [table, gain, mix, head] = [table, gain, mix, head].map(|t| tape.leaf(t));
    let tok = tape.gather(table, ids);
    let x = tape.reshape(tok, &[4, 32, 8]);
    let windows = tape.unfold(x, 1, 3);
    let weighed = tape.einsum("abcd,c->abcd", &[windows, gain]);
    let summed = tape.sum_axis(weighed, 3);
    let taps = tape.unfold(summed, 2, 2);
    let summed = tape.sum_axis(taps, 3);
    let mixed = tape.einsum("btc,cd->btd", &[summed, mix]);
    let flat = tape.reshape(mixed, &[4, 256]);
    let h = tape.relu(flat);
    let logits = tape.matmul(h, head);
    let loss = tape.softmax_cross_entropy(logits, labels);
    let value = tape.value(loss).data()[0];
    let grads = tape.backward(loss);
    tape.recycle_gradients(grads);
    value
}

#[test]
fn a_training_step_stops_allocating_buffers() {
    let params = [
        noisy(&[16, 8], 1),
        noisy(&[8], 4),
        noisy(&[8, 8], 2),
        noisy(&[256, 6], 3),
    ];
    let ids: Vec<usize> = (0..128).map(|i| (i * 7 + 3) % 16).collect();
    let labels = [0, 3, 5, 1];
    let mut tape = Tape::new();
    let mut losses = Vec::new();
    for rep in 1..=3 {
        // The leaves are the caller's tensors: cloned before counting.
        let leaves = params.clone();
        COUNTING.with(|c| c.set(rep == 3));
        losses.push(step(&mut tape, leaves, &ids, &labels));
        COUNTING.with(|c| c.set(false));
    }
    assert!(
        losses.iter().all(|l| l.to_bits() == losses[0].to_bits()),
        "{losses:?}"
    );
    assert_eq!(
        BIG_ALLOCS.with(Cell::get),
        0,
        "f32 buffers of 1 KiB or more allocated in step 3"
    );
}
