//! Thread-local recycled storage for tensor element buffers, built on a
//! 32-byte-aligned growable buffer type ([`Buf`]).
//!
//! Every tensor op allocates a fresh buffer for its output; in the MAML
//! inner loop those buffers are dropped within microseconds, so the global
//! allocator sees a high-frequency churn of identically sized blocks. The
//! pool intercepts that churn: buffers are handed out by [`take`] /
//! [`take_filled`], and [`Tensor`](super::Tensor) returns its storage here
//! when the last handle drops.
//!
//! Storage is a [`Buf`], not a `Vec<f64>`: `Buf` keeps its elements in
//! 32-byte-aligned chunks so the SIMD backend's vector loads always start
//! on a full-width boundary (see `tensor/backend.rs`). `Buf` dereferences
//! to `[f64]`, so everything downstream of an op treats it as an ordinary
//! slice.
//!
//! Buffers are keyed by bucketed length (next power of two), so a request
//! for 45·21 elements reuses any previous 1024-capacity buffer. The pool is
//! transparent to values: [`take`] returns an *empty* buffer (length 0) that
//! the caller fully writes, and [`take_filled`] overwrites every element, so
//! no stale data can leak into results — enabling or disabling the pool is
//! bit-identical (asserted by the cross-build determinism digest).
//!
//! Lifetime policy: between meta-iterations the training loop calls
//! [`reclaim`], which trims each bucket to a small retained set and flushes
//! the hit/miss counters to `metadse-obs` (`nn/pool_hits` / `nn/pool_misses`),
//! and a task fan-out calls [`release`] on the calling thread, which frees
//! every pooled buffer before that thread starts its own task.
//! Set `METADSE_POOL=0` to disable recycling entirely, or use
//! [`PoolModeGuard`] to toggle it from tests.

use std::cell::RefCell;

use crate::Elem;
use metadse_obs as obs;

/// Largest pooled buffer: 2^20 elements (8 MiB of `f64`).
const MAX_LOG2: usize = 20;
/// Buffers retained per bucket while the pool is live.
const BUCKET_DEPTH: usize = 64;
/// Buffers retained per bucket after a [`reclaim`] trim.
const RETAIN_AFTER_RECLAIM: usize = 8;

/// Alignment of every [`Buf`] allocation, in bytes: one AVX2 vector.
pub const BUF_ALIGN: usize = 32;

/// Elements per alignment chunk.
const CHUNK: usize = BUF_ALIGN / std::mem::size_of::<Elem>();

/// One 32-byte-aligned group of four `f64`s. A `Vec<Chunk>` allocation is
/// therefore always 32-byte aligned, which is what gives [`Buf`] its
/// alignment guarantee without any unsafe allocator tricks.
#[repr(C, align(32))]
#[derive(Clone, Copy)]
struct Chunk([Elem; CHUNK]);

impl Chunk {
    const ZERO: Chunk = Chunk([0.0; CHUNK]);
}

/// A growable `f64` buffer whose storage is always 32-byte aligned.
///
/// `Buf` behaves like a `Vec<f64>` for the operations the tensor layer
/// needs (`push`, `extend`, `resize`, slicing via `Deref`/`DerefMut`) and
/// maintains two extra invariants:
///
/// * the first element sits on a [`BUF_ALIGN`]-byte boundary, so SIMD
///   kernels can assume full-width aligned rows for contiguous buffers;
/// * a non-empty `Buf`'s element capacity is a power of two (≥ [`CHUNK`]),
///   so the recycling pool can bucket it without inspection.
#[derive(Default)]
pub struct Buf {
    chunks: Vec<Chunk>,
    len: usize,
}

impl Buf {
    /// An empty buffer with no allocation.
    pub fn new() -> Buf {
        Buf {
            chunks: Vec::new(),
            len: 0,
        }
    }

    /// An empty buffer with capacity for at least `n` elements (rounded up
    /// to the pool's power-of-two sizing).
    pub fn with_capacity(n: usize) -> Buf {
        let mut buf = Buf::new();
        buf.reserve_total(n);
        buf
    }

    /// Number of initialised elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no elements are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Element capacity (always a power of two when non-zero).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.chunks.len() * CHUNK
    }

    /// Drops all elements, keeping the allocation.
    #[inline]
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Ensures capacity for at least `total` elements.
    fn reserve_total(&mut self, total: usize) {
        if total <= self.capacity() {
            return;
        }
        let elems = total.next_power_of_two().max(CHUNK);
        self.chunks.resize(elems / CHUNK, Chunk::ZERO);
    }

    /// Ensures room for `additional` more elements.
    #[inline]
    pub fn reserve(&mut self, additional: usize) {
        self.reserve_total(self.len + additional);
    }

    /// Appends one element.
    #[inline]
    pub fn push(&mut self, v: Elem) {
        if self.len == self.capacity() {
            self.reserve_total(self.len + 1);
        }
        // SAFETY: `len < capacity` after the reserve; the slot is inside
        // the chunk allocation and `f64` has no invalid bit patterns.
        unsafe {
            *self.chunks.as_mut_ptr().cast::<Elem>().add(self.len) = v;
        }
        self.len += 1;
    }

    /// Appends every element of `values`.
    pub fn extend_from_slice(&mut self, values: &[Elem]) {
        self.reserve(values.len());
        // SAFETY: capacity was just reserved; source and destination are
        // distinct allocations.
        unsafe {
            let dst = self.chunks.as_mut_ptr().cast::<Elem>().add(self.len);
            std::ptr::copy_nonoverlapping(values.as_ptr(), dst, values.len());
        }
        self.len += values.len();
    }

    /// Resizes to `new_len`, filling any new slots with `value`.
    pub fn resize(&mut self, new_len: usize, value: Elem) {
        if new_len > self.len {
            self.reserve_total(new_len);
            // SAFETY: capacity covers `new_len`; every slot written is in
            // bounds of the chunk allocation.
            unsafe {
                let base = self.chunks.as_mut_ptr().cast::<Elem>();
                for i in self.len..new_len {
                    *base.add(i) = value;
                }
            }
        }
        self.len = new_len;
    }

    /// The elements as an owned `Vec` (copies).
    pub fn to_vec(&self) -> Vec<Elem> {
        self[..].to_vec()
    }
}

impl std::ops::Deref for Buf {
    type Target = [Elem];

    #[inline]
    fn deref(&self) -> &[Elem] {
        // SAFETY: the first `len` elements of the chunk storage are
        // initialised (`f64` has no invalid bit patterns and chunks are
        // zero-filled on growth), contiguous, and in bounds.
        unsafe { std::slice::from_raw_parts(self.chunks.as_ptr().cast(), self.len) }
    }
}

impl std::ops::DerefMut for Buf {
    #[inline]
    fn deref_mut(&mut self) -> &mut [Elem] {
        // SAFETY: as in `deref`; exclusivity comes from `&mut self`.
        unsafe { std::slice::from_raw_parts_mut(self.chunks.as_mut_ptr().cast(), self.len) }
    }
}

impl Clone for Buf {
    fn clone(&self) -> Buf {
        let mut out = Buf::with_capacity(self.len);
        out.extend_from_slice(self);
        out
    }
}

impl From<Vec<Elem>> for Buf {
    fn from(values: Vec<Elem>) -> Buf {
        let mut out = Buf::with_capacity(values.len());
        out.extend_from_slice(&values);
        out
    }
}

impl Extend<Elem> for Buf {
    fn extend<I: IntoIterator<Item = Elem>>(&mut self, iter: I) {
        let it = iter.into_iter();
        let (lower, _) = it.size_hint();
        self.reserve(lower);
        for v in it {
            self.push(v);
        }
    }
}

impl PartialEq for Buf {
    fn eq(&self, other: &Buf) -> bool {
        self[..] == other[..]
    }
}

impl std::fmt::Debug for Buf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&self[..], f)
    }
}

struct Pool {
    /// `buckets[b]` holds free buffers of capacity exactly `1 << b`.
    buckets: Vec<Vec<Buf>>,
    enabled: bool,
    hits: u64,
    misses: u64,
}

impl Pool {
    fn new() -> Self {
        let enabled = std::env::var("METADSE_POOL").map_or(true, |v| v != "0");
        Pool {
            buckets: (0..=MAX_LOG2).map(|_| Vec::new()).collect(),
            enabled,
            hits: 0,
            misses: 0,
        }
    }

    /// Keeps at most `keep` free buffers per bucket and frees the rest,
    /// bucket storage included.
    fn trim(&mut self, keep: usize) {
        for bucket in &mut self.buckets {
            bucket.truncate(keep);
            bucket.shrink_to(keep);
        }
    }
}

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool::new());
}

#[inline]
fn bucket_of(len: usize) -> Option<usize> {
    let b = len.next_power_of_two().max(CHUNK).trailing_zeros() as usize;
    (b <= MAX_LOG2).then_some(b)
}

/// Hands out an empty buffer with capacity for at least `len` elements.
///
/// The returned buffer has length 0; the caller is responsible for writing
/// every element (via `extend`/`resize`/`push`) before wrapping it in a
/// tensor. Capacity is rounded up to a power of two so the buffer can be
/// recycled on drop, and the allocation is [`BUF_ALIGN`]-byte aligned.
pub fn take(len: usize) -> Buf {
    if len == 0 {
        return Buf::new();
    }
    POOL.try_with(|cell| {
        let mut pool = cell.borrow_mut();
        if !pool.enabled {
            return Buf::with_capacity(len);
        }
        match bucket_of(len) {
            Some(b) => {
                if let Some(mut buf) = pool.buckets[b].pop() {
                    pool.hits += 1;
                    buf.clear();
                    buf
                } else {
                    pool.misses += 1;
                    Buf::with_capacity(1 << b)
                }
            }
            None => Buf::with_capacity(len),
        }
    })
    .unwrap_or_else(|_| Buf::with_capacity(len))
}

/// Hands out a buffer of length `len` with every element set to `value`.
pub fn take_filled(len: usize, value: Elem) -> Buf {
    let mut buf = take(len);
    buf.resize(len, value);
    buf
}

/// Hands out a zero-initialised buffer of length `len`.
pub fn take_zeroed(len: usize) -> Buf {
    take_filled(len, 0.0)
}

/// Returns a buffer to the pool. Called from the `Tensor` storage drop and
/// from ops with transient scratch buffers.
///
/// Only power-of-two capacities are accepted (everything [`take`] hands out
/// qualifies); oversize buffers are simply freed.
pub fn recycle(buf: Buf) {
    let cap = buf.capacity();
    if cap == 0 || !cap.is_power_of_two() {
        return;
    }
    let b = cap.trailing_zeros() as usize;
    if b > MAX_LOG2 {
        return;
    }
    let _ = POOL.try_with(|cell| {
        let mut pool = cell.borrow_mut();
        if pool.enabled && pool.buckets[b].len() < BUCKET_DEPTH {
            pool.buckets[b].push(buf);
        }
    });
}

/// Epoch reclaim point: trims each bucket to a small retained set and
/// flushes the hit/miss counters to `metadse-obs`.
///
/// The training loop calls this between meta-iterations (and the WAM sweep
/// after each task adaptation), so peak retained memory is bounded by one
/// iteration's working set rather than the whole run's high-water mark.
pub fn reclaim() {
    let _ = POOL.try_with(|cell| {
        let mut pool = cell.borrow_mut();
        pool.trim(RETAIN_AFTER_RECLAIM);
        if pool.hits > 0 {
            obs::counter("nn/pool_hits", pool.hits);
            pool.hits = 0;
        }
        if pool.misses > 0 {
            obs::counter("nn/pool_misses", pool.misses);
            pool.misses = 0;
        }
    });
}

/// Frees every buffer the pool holds on the current thread.
///
/// A task fan-out calls this on the calling thread before it starts
/// working as worker 0: the freed blocks go back to this thread's
/// allocator and the caller's own task reuses them, instead of leaving
/// them stranded in the pool while the spawned worker's task grows memory
/// of its own. Values are unaffected; later takes simply miss.
pub fn release() {
    let _ = POOL.try_with(|cell| cell.borrow_mut().trim(0));
}

/// RAII toggle for the pool on the current thread; restores the previous
/// mode on drop. Disabling drains already-pooled buffers lazily (they are
/// never handed out while disabled) — values are unaffected either way.
pub struct PoolModeGuard {
    prev: bool,
}

impl PoolModeGuard {
    pub fn set(enabled: bool) -> Self {
        let prev = POOL.with(|cell| {
            let mut pool = cell.borrow_mut();
            let prev = pool.enabled;
            pool.enabled = enabled;
            prev
        });
        PoolModeGuard { prev }
    }
}

impl Drop for PoolModeGuard {
    fn drop(&mut self) {
        let _ = POOL.try_with(|cell| cell.borrow_mut().enabled = self.prev);
    }
}

/// True when recycling is active on this thread (used by tests).
pub fn is_enabled() -> bool {
    POOL.try_with(|cell| cell.borrow().enabled).unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_recycle_roundtrip_hits_the_pool() {
        let _guard = PoolModeGuard::set(true);
        reclaim(); // flush counters so the assertions below are local
        let buf = take(100);
        assert!(buf.capacity() >= 100);
        assert!(buf.capacity().is_power_of_two());
        let cap = buf.capacity();
        recycle(buf);
        let again = take(100);
        assert_eq!(again.capacity(), cap);
        assert!(again.is_empty());
    }

    #[test]
    fn disabled_pool_does_not_retain() {
        let _guard = PoolModeGuard::set(false);
        let buf = take(64);
        let ptr = buf.as_ptr();
        recycle(buf);
        let again = take(64);
        // With recycling off a fresh allocation is made; contents are empty
        // either way, which is all callers rely on.
        assert!(again.is_empty());
        let _ = ptr;
    }

    #[test]
    fn filled_buffers_are_fully_initialised() {
        let _guard = PoolModeGuard::set(true);
        let mut buf = take_filled(10, 3.5);
        assert_eq!(buf.len(), 10);
        assert!(buf.iter().all(|&x| x == 3.5));
        // Dirty the buffer, recycle, and confirm the next take sees no residue.
        buf.iter_mut().for_each(|x| *x = f64::NAN);
        recycle(buf);
        let clean = take_zeroed(10);
        assert!(clean.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn oversized_buffers_bypass_the_pool() {
        let _guard = PoolModeGuard::set(true);
        let buf = take((1 << MAX_LOG2) + 1);
        assert!(buf.capacity() > (1 << MAX_LOG2));
        recycle(buf); // silently freed, must not panic
    }

    /// The SIMD backend relies on every pooled allocation starting on a
    /// 32-byte boundary. This is guaranteed structurally (storage is a
    /// `Vec` of 32-byte-aligned chunks), so the assertion is deterministic,
    /// not a lucky-allocator flake.
    #[test]
    fn pooled_buffers_are_32_byte_aligned() {
        let _guard = PoolModeGuard::set(true);
        for len in [1, 3, 7, 100, 1024, 4097] {
            let buf = take_filled(len, 1.0);
            assert_eq!(
                buf.as_ptr() as usize % BUF_ALIGN,
                0,
                "take({len}) not {BUF_ALIGN}-byte aligned"
            );
            recycle(buf);
            // Recycled buffers stay aligned on reuse.
            let again = take(len);
            assert_eq!(again.as_ptr() as usize % BUF_ALIGN, 0);
        }
        // Buffers built from plain vecs (the `From<Vec>` path used by
        // `Tensor::from_vec`) are aligned too.
        let from_vec = Buf::from(vec![1.0; 37]);
        assert_eq!(from_vec.as_ptr() as usize % BUF_ALIGN, 0);
        // Growth re-aligns: push past the initial capacity.
        let mut grown = Buf::with_capacity(4);
        for i in 0..1000 {
            grown.push(i as f64);
        }
        assert_eq!(grown.as_ptr() as usize % BUF_ALIGN, 0);
        assert_eq!(grown.len(), 1000);
        assert!((0..1000).all(|i| grown[i] == i as f64));
    }

    #[test]
    fn buf_behaves_like_a_vec() {
        let mut b = Buf::new();
        assert!(b.is_empty());
        b.extend_from_slice(&[1.0, 2.0]);
        b.push(3.0);
        b.extend([4.0, 5.0]);
        assert_eq!(&b[..], &[1.0, 2.0, 3.0, 4.0, 5.0]);
        b.resize(7, 9.0);
        assert_eq!(&b[5..], &[9.0, 9.0]);
        b.resize(2, 0.0);
        assert_eq!(&b[..], &[1.0, 2.0]);
        assert!(b.capacity().is_power_of_two());
        let c = b.clone();
        assert_eq!(b, c);
        assert_eq!(b.to_vec(), vec![1.0, 2.0]);
        b.clear();
        assert!(b.is_empty());
        assert_ne!(b, c);
    }
}
