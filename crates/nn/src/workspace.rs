//! Reusable per-thread scratch for the quantized execution hot path.
//!
//! Every quantized layer pass needs the same family of scratch buffers:
//! the quantized activation (lowered in place for 4-bit groups), a
//! convolution's channel-quad copy of it (the layout its band GEMMs pack
//! their panels from), and the band accumulator the GEMMs write their
//! (shifted) sums straight into. Allocating them per layer per call
//! (as the engines originally did with `vec![0; …]`) dominates small
//! layers and churns the allocator under serving load.
//!
//! A [`Workspace`] owns all of them as capacity-retaining [`Buf`]s. The
//! quantized compute hook checks one out of the calling thread's slot on
//! construction ([`take`]) and parks it again on drop ([`put`]), so
//! repeated `infer` calls on one thread — a serve worker, a bench loop,
//! a selection sweep — reuse the same buffers: after a warm-up pass the
//! linear/conv hot path performs **zero** heap allocations here (pinned
//! by `tests/alloc_steady_state.rs` with a counting allocator). Pool
//! helper threads inside a pass never need their own `Workspace`: banded
//! sub-tasks write into disjoint chunks of these buffers, and the GEMM
//! packing scratch is per-thread already (`flexiq_tensor::scratch`).

use std::ops::{Deref, DerefMut};

/// One capacity-retaining scratch buffer that counts reallocation.
///
/// [`Buf::prep`] clears and resizes in place ([`Buf::prep_dirty`]
/// resizes without clearing); both record whether the request had to
/// grow the allocation, so tests can assert a warmed workspace serves a
/// steady-state pass without growing.
#[derive(Debug)]
pub struct Buf<T> {
    data: Vec<T>,
    grown: u64,
}

impl<T> Default for Buf<T> {
    fn default() -> Self {
        Buf {
            data: Vec::new(),
            grown: 0,
        }
    }
}

impl<T: Clone + Default> Buf<T> {
    /// Clears the buffer and resizes it to `len` default-valued (zeroed)
    /// elements, reusing capacity where possible.
    pub fn prep(&mut self, len: usize) -> &mut [T] {
        self.data.clear();
        self.prep_dirty(len)
    }

    /// Resizes the buffer to `len` elements **keeping whatever it
    /// held** (only elements past the previous length are
    /// default-valued), reusing capacity where possible — for a buffer
    /// the callee overwrites in full (the quantized activation, its
    /// channel quads), where [`Buf::prep`]'s zero fill would be a second
    /// write of every byte.
    pub fn prep_dirty(&mut self, len: usize) -> &mut [T] {
        if len > self.data.capacity() {
            self.grown += 1;
            flexiq_telemetry::count(flexiq_telemetry::Counter::WsBufGrowth, 1);
        }
        self.data.truncate(len);
        self.data.resize(len, T::default());
        &mut self.data
    }
}

impl<T> Buf<T> {
    /// Buffer-growth events since the last [`Buf::reset_growth`].
    pub fn grown(&self) -> u64 {
        self.grown
    }

    /// Resets the growth counter (call after warm-up).
    pub fn reset_growth(&mut self) {
        self.grown = 0;
    }
}

impl<T> Buf<T> {
    /// Clears the buffer and refills it from an iterator (the
    /// irregular-length counterpart of [`Buf::prep`], e.g. the live
    /// shifts of a band run), reusing capacity and counting growth.
    pub fn collect_from(&mut self, iter: impl Iterator<Item = T>) -> &mut [T] {
        self.data.clear();
        let cap = self.data.capacity();
        self.data.extend(iter);
        if self.data.capacity() > cap {
            self.grown += 1;
            flexiq_telemetry::count(flexiq_telemetry::Counter::WsBufGrowth, 1);
        }
        &mut self.data
    }
}

impl<T> Deref for Buf<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.data
    }
}

impl<T> DerefMut for Buf<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.data
    }
}

/// Reusable scratch buffers for one thread's quantized layer passes.
///
/// Distinct simultaneous roles get distinct fields (the channel quads
/// are interleaved from the quantized activation while it is read, and
/// the band GEMMs read the quads while writing the accumulator), so the
/// borrow checker can split them field-wise.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Quantized activation of the current layer, band-ready: the
    /// channels of 4-bit feature groups are already bit-lowered.
    pub act_q: Buf<i8>,
    /// The quantized activation of a conv layer as channel quads
    /// (`[N][quads][H][W][4]`, each band's last quad zero-padded): the
    /// rhs its band GEMMs pack their panels straight from.
    pub act_quads: Buf<i8>,
    /// Integer band accumulator of the current layer.
    pub acc: Buf<i32>,
    /// Live activation extraction shifts of a run of 4-bit bands
    /// (dynamic extraction only; static shifts come from the cache).
    pub live_shifts: Buf<u8>,
}

impl Workspace {
    /// A fresh, empty workspace.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Total buffer-growth events across all buffers since the last
    /// [`Workspace::reset_growth`]. A warmed workspace serving a
    /// steady-state pass reports zero.
    pub fn growth_events(&self) -> u64 {
        self.act_q.grown() + self.act_quads.grown() + self.acc.grown() + self.live_shifts.grown()
    }

    /// Resets every buffer's growth counter (call after warm-up).
    pub fn reset_growth(&mut self) {
        self.act_q.reset_growth();
        self.act_quads.reset_growth();
        self.acc.reset_growth();
        self.live_shifts.reset_growth();
    }
}

/// Workspaces parked per thread. Two, not one: a nested hook (one
/// engine invoking another on the same thread) checks out the second
/// slot, so recurring nested patterns also reach a zero-growth steady
/// state instead of re-allocating the inner workspace every round.
const PARKED_CAP: usize = 2;

thread_local! {
    /// Parked workspaces of this thread, innermost checkout last.
    /// Take/put (rather than borrowing in place) keeps re-entrancy
    /// trivially correct: deeper nesting than [`PARKED_CAP`] simply
    /// pays a fresh workspace.
    static SLOT: std::cell::RefCell<Vec<Workspace>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Checks a parked workspace out of the calling thread's pool (or
/// creates a fresh one). Pair with [`put`].
pub fn take() -> Workspace {
    SLOT.with(|s| s.borrow_mut().pop()).unwrap_or_default()
}

/// Parks a workspace for the calling thread's next [`take`]. At most
/// `PARKED_CAP` park; further workspaces drop (bounding per-thread
/// retained memory).
pub fn put(ws: Workspace) {
    SLOT.with(|s| {
        let mut parked = s.borrow_mut();
        if parked.len() < PARKED_CAP {
            parked.push(ws);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn growth_counter_tracks_only_real_growth() {
        let mut buf: Buf<i8> = Buf::default();
        buf.prep(128);
        assert_eq!(buf.grown(), 1, "first request must grow");
        buf.prep(64);
        buf.prep(128);
        assert_eq!(buf.grown(), 1, "within-capacity requests are free");
        buf.prep(256);
        assert_eq!(buf.grown(), 2);
        buf.reset_growth();
        assert_eq!(buf.grown(), 0);
    }

    #[test]
    fn prep_zeroes_previous_contents() {
        let mut buf: Buf<i32> = Buf::default();
        buf.prep(4).copy_from_slice(&[1, 2, 3, 4]);
        assert_eq!(&buf[..], &[1, 2, 3, 4]);
        buf.prep(3);
        assert_eq!(&buf[..], &[0, 0, 0]);
    }

    #[test]
    fn prep_dirty_keeps_contents_and_counts_growth() {
        let mut buf: Buf<i8> = Buf::default();
        buf.prep_dirty(4).copy_from_slice(&[1, 2, 3, 4]);
        assert_eq!(buf.grown(), 1);
        assert_eq!(&buf.prep_dirty(3)[..], &[1, 2, 3]);
        // Only the elements past the previous length are defaulted.
        assert_eq!(&buf.prep_dirty(4)[..], &[1, 2, 3, 0]);
        assert_eq!(buf.grown(), 1, "within-capacity requests are free");
        buf.prep_dirty(64);
        assert_eq!(buf.grown(), 2);
    }

    #[test]
    fn take_returns_the_parked_workspace() {
        let mut ws = take();
        ws.acc.prep(1024);
        let events = ws.growth_events();
        assert!(events >= 1);
        ws.reset_growth();
        put(ws);
        let mut ws2 = take();
        // Same parked buffers: an identical request must not grow.
        ws2.acc.prep(1024);
        assert_eq!(ws2.growth_events(), 0, "parked workspace lost capacity");
        put(ws2);
    }

    #[test]
    fn nested_takes_get_independent_workspaces() {
        let mut a = take();
        let mut b = take(); // nothing parked at this depth: fresh
        a.acc.prep(8);
        assert_eq!(b.acc.len(), 0);
        b.acc.prep(16);
        assert_eq!(a.acc.len(), 8);
        put(a);
        put(b);
    }

    #[test]
    fn nested_checkouts_reach_zero_growth_steady_state() {
        // Warm one nested round, then verify a second round grows
        // nothing: BOTH workspaces must park (a single parked slot
        // would re-allocate the inner one every round).
        let round = || -> u64 {
            let mut outer = take();
            let mut inner = take();
            outer.acc.prep(512);
            inner.acc.prep(256);
            let grown = outer.growth_events() + inner.growth_events();
            put(inner);
            put(outer);
            grown
        };
        let _ = round();
        let mut outer = take();
        let mut inner = take();
        outer.reset_growth();
        inner.reset_growth();
        put(inner);
        put(outer);
        assert_eq!(round(), 0, "second nested round must reuse both workspaces");
    }
}
