//! Consumed buffers are freed at once. Backward: `autograd::grad` drops a
//! node's gradient as soon as it has been passed to the node's parents,
//! so the memory a pass needs on top of its forward graph is the gradient
//! frontier — a few tensors — not one gradient per graph node. Inference:
//! the attention block drops each activation once its consumer has run.
//!
//! A byte-counting global allocator measures live heap bytes on the test's
//! own thread (tests in this binary run concurrently), and the buffer pool
//! is switched off so every freed buffer really returns to the
//! allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use metadse_nn::autograd::{grad, no_grad};
use metadse_nn::layers::MultiHeadAttention;
use metadse_nn::tensor::pool::PoolModeGuard;
use metadse_nn::{Elem, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Counting;

thread_local! {
    /// Live heap bytes allocated (minus freed) on this thread.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// High-water mark of `LIVE` since the last [`reset_peak`].
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn track(delta: isize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every call forwards to the system allocator unchanged; the
// bookkeeping touches only const-initialised thread-locals, which never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            track(layout.size() as isize);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            track(layout.size() as isize);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        track(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let out = System.realloc(ptr, layout, new_size);
        if !out.is_null() {
            track(new_size as isize - layout.size() as isize);
        }
        out
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn live() -> isize {
    LIVE.with(Cell::get)
}

/// Restarts the high-water mark at the current live byte count.
fn reset_peak() {
    let now = live();
    PEAK.with(|peak| peak.set(now));
}

fn peak() -> isize {
    PEAK.with(Cell::get)
}

const LEN: usize = 1 << 16;
const CHAIN: usize = 32;
const TENSOR_BYTES: isize = (LEN * std::mem::size_of::<Elem>()) as isize;

#[test]
fn backward_frees_consumed_gradients() {
    let _pool = PoolModeGuard::set(false);
    let x = Tensor::param_from_vec((0..LEN).map(|i| i as Elem * 1e-3).collect(), &[LEN]);
    let mut y = x.clone();
    for _ in 0..CHAIN {
        y = y.mul_scalar(1.5);
    }
    let loss = y.sum_all();

    reset_peak();
    let before = live();
    let g = grad(&loss, std::slice::from_ref(&x), false);
    let rise = peak() - before;

    // Every gradient of the chain is 1.5^32 · ones; all 2^16 entries agree.
    let expected = 1.5f64.powi(CHAIN as i32);
    assert!(g[0].to_vec().iter().all(|&v| v == expected));
    // The frontier is the gradient being consumed, the one being produced
    // and the returned input gradient; keeping every intermediate gradient
    // alive would cost CHAIN tensors.
    assert!(
        rise <= 4 * TENSOR_BYTES,
        "backward raised live memory by {rise} B = {:.1} tensors of {TENSOR_BYTES} B \
         over a {CHAIN}-op chain",
        rise as f64 / TENSOR_BYTES as f64
    );
}

#[test]
fn intermediate_inputs_keep_their_gradient() {
    // A requested input with parents of its own is the one gradient the
    // pass must not free: y = h·h with h = 3x gives dy/dh = 2h, dy/dx = 18x.
    let x = Tensor::param_from_vec(vec![1.0, -2.0, 0.5], &[3]);
    let h = x.mul_scalar(3.0);
    let y = h.mul(&h).sum_all();
    let g = grad(&y, &[h.clone(), x.clone()], false);
    assert_eq!(g[0].to_vec(), vec![6.0, -12.0, 3.0]);
    assert_eq!(g[1].to_vec(), vec![18.0, -36.0, 9.0]);
}

#[test]
fn inference_attention_frees_consumed_activations() {
    let _pool = PoolModeGuard::set(false);
    let mut rng = StdRng::seed_from_u64(5);
    let attention = MultiHeadAttention::new("attn", 32, 4, &mut rng);
    // Token activations [256, 8, 32] and attention maps [256, 4, 8, 8]
    // both hold 2^16 elements, one TENSOR_BYTES each.
    let x = Tensor::randn(&[256, 8, 32], &mut rng);

    reset_peak();
    let before = live();
    let y = no_grad(|| attention.forward(&x));
    let rise = peak() - before;

    assert_eq!(y.shape(), &[256, 8, 32]);
    // q, k and two logits temporaries at the widest point, then the
    // output; holding q, k, v, logits and probabilities to the end of the
    // block costs about twice that.
    assert!(
        rise <= 6 * TENSOR_BYTES,
        "inference attention raised live memory by {rise} B = {:.1} activations",
        rise as f64 / TENSOR_BYTES as f64
    );
}
