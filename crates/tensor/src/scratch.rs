//! Thread-local scratch buffers for the kernel hot path.
//!
//! The blocked GEMM kernels and the convolution lowering need short-lived
//! buffers (packed operand panels, lowered convolution blocks) on every
//! call. Heap-allocating them per call would dominate small layers and
//! churn the allocator under serving load, so each thread keeps a small pool of
//! typed `Vec`s: [`take_f32`]/[`take_i8`]/[`take_i32`] pop a buffer
//! (retaining whatever capacity it grew to on earlier calls) and the
//! matching `put_*` returns it. After a few warm-up passes the pools are
//! sized for the largest shapes a thread sees and the steady-state hot
//! path performs **zero** heap allocations here.
//!
//! The take/put discipline (rather than a `RefCell` borrow) makes nesting
//! trivially safe: a re-entrant caller simply takes the next (or a fresh)
//! buffer, and a panic between take and put only costs the buffer's
//! capacity, never correctness. Pools are capped at [`POOL_CAP`] buffers
//! per type so a pathological caller cannot hoard unbounded memory.
//!
//! # First-touch warming
//!
//! On NUMA (and even single-socket) machines, pages are physically
//! placed when first written, on the node of the writing core. The
//! `warm_*` helpers ([`warm_defaults`]) grow and zero one pooled buffer
//! per type **on the calling thread**, so a pool/serve thread that is
//! pinned to a core faults its scratch pages there before serving
//! traffic — instead of inheriting pages first touched by whichever
//! thread ran the model load. Embedders pass
//! `flexiq_tensor::scratch::warm_defaults` as the pool's
//! `on_thread_start` hook.

use std::cell::RefCell;

/// Buffers retained per thread per element type.
pub const POOL_CAP: usize = 8;

/// An element type with a scratch pool: the generic face of the
/// `take_*`/`put_*` pairs, for kernels written once over several element
/// types.
pub(crate) trait Pooled: Copy + Default + Send + Sync {
    /// Pops (or creates) a reusable buffer for this thread.
    fn take() -> Vec<Self>;
    /// Returns a buffer to this thread's pool, keeping its capacity.
    fn put(buf: Vec<Self>);
}

macro_rules! scratch_pool {
    ($static_:ident, $ty:ty, $take:ident, $put:ident, $warm:ident, $take_doc:expr, $put_doc:expr) => {
        thread_local! {
            static $static_: RefCell<Vec<Vec<$ty>>> = const { RefCell::new(Vec::new()) };
        }

        #[doc = $take_doc]
        pub fn $take() -> Vec<$ty> {
            flexiq_telemetry::count(flexiq_telemetry::Counter::ScratchTake, 1);
            $static_.with(|p| p.borrow_mut().pop().unwrap_or_default())
        }

        #[doc = $put_doc]
        pub fn $put(mut buf: Vec<$ty>) {
            flexiq_telemetry::count(flexiq_telemetry::Counter::ScratchPut, 1);
            buf.clear();
            $static_.with(|p| {
                let mut pool = p.borrow_mut();
                if pool.len() < POOL_CAP {
                    pool.push(buf);
                }
            });
        }

        impl Pooled for $ty {
            fn take() -> Vec<$ty> {
                $take()
            }
            fn put(buf: Vec<$ty>) {
                $put(buf)
            }
        }

        /// Grows one pooled buffer of this type to `elems` elements and
        /// zero-writes it on the calling thread (first-touch page
        /// placement), then parks it again.
        pub fn $warm(elems: usize) {
            let mut buf = $take();
            buf.clear();
            buf.resize(elems, <$ty>::default());
            $put(buf);
        }
    };
}

scratch_pool!(
    F32_POOL,
    f32,
    take_f32,
    put_f32,
    warm_f32,
    "Pops (or creates) a reusable `f32` scratch buffer for this thread.",
    "Returns an `f32` scratch buffer to this thread's pool, keeping its capacity."
);
scratch_pool!(
    I8_POOL,
    i8,
    take_i8,
    put_i8,
    warm_i8,
    "Pops (or creates) a reusable `i8` scratch buffer for this thread.",
    "Returns an `i8` scratch buffer to this thread's pool, keeping its capacity."
);
scratch_pool!(
    I32_POOL,
    i32,
    take_i32,
    put_i32,
    warm_i32,
    "Pops (or creates) a reusable `i32` scratch buffer for this thread.",
    "Returns an `i32` scratch buffer to this thread's pool, keeping its capacity."
);

/// Elements pre-faulted per type by [`warm_defaults`]: enough for the
/// packed panels and lowered blocks of the bundled models' largest layers
/// without reserving serving-irrelevant memory (512 KiB f32, 128 KiB i8,
/// 512 KiB i32 per thread).
pub const WARM_ELEMS: usize = 128 * 1024;

/// First-touch warms one buffer of each pooled type on the calling
/// thread (see the module docs). Pass as a pool's `on_thread_start`
/// hook or call at serve-worker startup.
pub fn warm_defaults() {
    warm_f32(WARM_ELEMS);
    warm_i8(WARM_ELEMS);
    warm_i32(WARM_ELEMS);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_put_retains_capacity() {
        let mut b = take_f32();
        b.resize(1024, 0.0);
        let ptr = b.as_ptr();
        put_f32(b);
        let b2 = take_f32();
        assert_eq!(b2.as_ptr(), ptr, "pool must hand back the same buffer");
        assert!(b2.capacity() >= 1024);
        assert!(b2.is_empty(), "put must clear the buffer");
        put_f32(b2);
    }

    #[test]
    fn nested_takes_yield_distinct_buffers() {
        let a = take_i8();
        let b = take_i8();
        // Distinct allocations (or both empty placeholders) — never the
        // same live buffer twice.
        assert!(a.as_ptr() != b.as_ptr() || (a.capacity() == 0 && b.capacity() == 0));
        put_i8(a);
        put_i8(b);
    }

    #[test]
    fn warm_parks_a_sized_buffer() {
        std::thread::spawn(|| {
            // Fresh thread → fresh pools: warming must leave one buffer
            // per type with at least WARM_ELEMS capacity parked.
            warm_defaults();
            let f = take_f32();
            let i8b = take_i8();
            let i32b = take_i32();
            assert!(f.capacity() >= WARM_ELEMS);
            assert!(i8b.capacity() >= WARM_ELEMS);
            assert!(i32b.capacity() >= WARM_ELEMS);
            assert!(f.is_empty() && i8b.is_empty() && i32b.is_empty());
            put_f32(f);
            put_i8(i8b);
            put_i32(i32b);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn pool_is_bounded() {
        let bufs: Vec<Vec<i32>> = (0..POOL_CAP + 4).map(|_| Vec::with_capacity(16)).collect();
        for b in bufs {
            put_i32(b);
        }
        let mut drained = 0;
        while take_i32().capacity() > 0 {
            drained += 1;
            assert!(drained <= POOL_CAP, "pool exceeded its cap");
        }
    }
}
