//! Bounded admission queue with backpressure.
//!
//! The queue is the server's single admission point: submissions beyond
//! `capacity` are rejected immediately ([`ServeError::QueueFull`]) so
//! overload surfaces as counted backpressure instead of unbounded memory
//! growth and silent latency collapse. Workers drain it through
//! [`AdmissionQueue::pop_batch`], which implements the dynamic batching
//! policy: dispatch as soon as `max_batch` requests are waiting, or when
//! `batch_timeout` has elapsed since the batch's first request was
//! picked up — whichever comes first.
//!
//! [`AdmissionQueue::pop_batch_bucketed`] layers length-class admission
//! on top for the decode scheduler's variable-length prompts: the FIFO
//! head still anchors every batch (no starvation), but the fill phase
//! prefers queued requests whose power-of-two length class matches the
//! anchor's, so a drafted group carries similar prefill cost.
//! Non-matching requests are left queued in order; the oldest one
//! anchors the next batch.
//!
//! The queue is generic over its item (`QueuedRequest` by default): the
//! continuous-batching decode scheduler reuses the same admission policy
//! for generation requests.
//!
//! # Lock-poison policy
//!
//! Every lock acquisition here clears poison instead of propagating it.
//! A worker that panics while holding the queue lock (an injected fault,
//! or a real bug) marks the mutex poisoned; if siblings then panicked on
//! `lock().unwrap()`, one caught panic would cascade into killing every
//! worker — exactly the amplification the supervision layer exists to
//! prevent. Clearing is sound because the guarded state is only ever
//! mutated by single, complete operations (one `push_back`, one
//! `remove`, one flag store): there is no half-written invariant a
//! panicking holder could leave behind.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::error::{Result, ServeError};
use crate::request::QueuedRequest;

/// Locks `m`, clearing poison (see the module-level lock-poison policy).
pub(crate) fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Inner<T> {
    deque: VecDeque<T>,
    closed: bool,
}

/// The bounded MPMC admission queue.
pub struct AdmissionQueue<T = QueuedRequest> {
    inner: Mutex<Inner<T>>,
    /// Signalled on push and close.
    arrived: Condvar,
    capacity: usize,
}

/// Power-of-two length class: lengths in `[2^k, 2^{k+1})` share a class.
fn len_class(len: usize) -> u32 {
    usize::BITS - len.max(1).leading_zeros()
}

/// Moves the requests `admit(anchor, candidate)` lets join the batch
/// anchored by `batch[0]` out of `deque`, in queue order, until the
/// batch holds `max_batch`; the rest stay queued in order.
fn fill<T>(
    batch: &mut Vec<T>,
    deque: &mut VecDeque<T>,
    max_batch: usize,
    admit: impl Fn(&T, &T) -> bool,
) {
    let mut i = 0;
    while batch.len() < max_batch && i < deque.len() {
        if admit(&batch[0], &deque[i]) {
            batch.push(deque.remove(i).expect("indexed request"));
        } else {
            i += 1;
        }
    }
}

impl<T> AdmissionQueue<T> {
    /// Creates a queue holding at most `capacity` requests.
    pub fn new(capacity: usize) -> Self {
        AdmissionQueue {
            inner: Mutex::new(Inner {
                deque: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            arrived: Condvar::new(),
            capacity,
        }
    }

    /// Admits a request, or rejects it when the queue is full or the
    /// server is shutting down. Never blocks.
    ///
    /// Returns the queue depth right after the push, so the admission
    /// path need not re-take the lock just to publish a gauge.
    pub fn try_push(&self, req: T) -> Result<usize> {
        let mut inner = lock_clean(&self.inner);
        if inner.closed {
            return Err(ServeError::ShuttingDown);
        }
        if inner.deque.len() >= self.capacity {
            // Rejections are counted once, by the server's MetricsHub —
            // the queue just reports the condition.
            return Err(ServeError::QueueFull {
                capacity: self.capacity,
            });
        }
        inner.deque.push_back(req);
        let depth = inner.deque.len();
        drop(inner);
        self.arrived.notify_one();
        Ok(depth)
    }

    /// Blocks for the next batch.
    ///
    /// Waits (indefinitely) for a first request, then keeps collecting
    /// until `max_batch` requests are in hand or `batch_timeout` has
    /// elapsed since the first was taken. Returns the batch plus the
    /// depth left behind (for the worker's gauge, measured while the
    /// lock is still held), or `None` once the queue is closed *and*
    /// drained — the worker's signal to exit.
    pub fn pop_batch(&self, max_batch: usize, batch_timeout: Duration) -> Option<(Vec<T>, usize)> {
        self.pop_batch_with(max_batch, batch_timeout, |_, _| true)
    }

    /// [`AdmissionQueue::pop_batch`] with length-class admission: the
    /// FIFO head anchors the batch as usual (so nothing starves), but
    /// the fill phase admits only requests whose power-of-two length
    /// class (per `len_of`) matches the anchor's, so a drafted batch
    /// holds lengths within 2× of each other. Requests `len_of` declines to
    /// classify (`None`) group with each other, not with classified
    /// ones. Skipped requests keep their queue order; the oldest
    /// anchors the next batch.
    pub fn pop_batch_bucketed(
        &self,
        max_batch: usize,
        batch_timeout: Duration,
        len_of: impl Fn(&T) -> Option<usize>,
    ) -> Option<(Vec<T>, usize)> {
        self.pop_batch_with(max_batch, batch_timeout, |anchor, cand| {
            len_of(anchor).map(len_class) == len_of(cand).map(len_class)
        })
    }

    /// Non-blocking [`AdmissionQueue::pop_batch_bucketed`]: same
    /// anchor-class admission, but returns immediately with whatever
    /// co-bucketed requests are queued right now (up to `max_batch`),
    /// possibly nothing. The continuous-batching decode scheduler uses
    /// this to refill free slots between fused steps without ever
    /// stalling the running batch. Returns the batch plus the depth left
    /// behind.
    pub fn try_pop_batch_bucketed(
        &self,
        max_batch: usize,
        len_of: impl Fn(&T) -> Option<usize>,
    ) -> (Vec<T>, usize) {
        let mut inner = lock_clean(&self.inner);
        let mut batch = Vec::new();
        if max_batch > 0 {
            if let Some(first) = inner.deque.pop_front() {
                batch.push(first);
                fill(&mut batch, &mut inner.deque, max_batch, |anchor, cand| {
                    len_of(anchor).map(len_class) == len_of(cand).map(len_class)
                });
            }
        }
        let depth = inner.deque.len();
        (batch, depth)
    }

    /// The shared two-phase batching loop: `admit(anchor, candidate)`
    /// decides which queued requests may join the anchor's batch.
    fn pop_batch_with(
        &self,
        max_batch: usize,
        batch_timeout: Duration,
        admit: impl Fn(&T, &T) -> bool,
    ) -> Option<(Vec<T>, usize)> {
        let mut inner = lock_clean(&self.inner);
        // Phase 1: wait for the first request.
        loop {
            if let Some(first) = inner.deque.pop_front() {
                let mut batch = Vec::with_capacity(max_batch);
                batch.push(first);
                // Phase 2: fill until full or the batching window closes.
                let t0 = Instant::now();
                loop {
                    fill(&mut batch, &mut inner.deque, max_batch, &admit);
                    if batch.len() >= max_batch || inner.closed {
                        return Some((batch, inner.deque.len()));
                    }
                    let elapsed = t0.elapsed();
                    if elapsed >= batch_timeout {
                        return Some((batch, inner.deque.len()));
                    }
                    let (guard, _timeout) = self
                        .arrived
                        .wait_timeout(inner, batch_timeout - elapsed)
                        .unwrap_or_else(PoisonError::into_inner);
                    inner = guard;
                }
            }
            if inner.closed {
                return None;
            }
            inner = self
                .arrived
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Requests currently waiting.
    pub fn depth(&self) -> usize {
        lock_clean(&self.inner).deque.len()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Stops admission and wakes all waiting workers. Queued requests
    /// are still drained by subsequent `pop_batch` calls.
    pub fn close(&self) {
        lock_clean(&self.inner).closed = true;
        self.arrived.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexiq_tensor::Tensor;
    use std::sync::mpsc;
    use std::sync::Arc;

    fn req(id: u64) -> QueuedRequest {
        let (tx, _rx) = mpsc::channel();
        // Leak the receiver so sends don't error in tests that execute.
        std::mem::forget(_rx);
        QueuedRequest {
            id,
            input: Tensor::zeros([1]),
            enqueued_at: Instant::now(),
            deadline: None,
            trace: 0,
            reply: tx,
        }
    }

    #[test]
    fn full_batch_dispatches_immediately() {
        let q = AdmissionQueue::new(64);
        for i in 0..8 {
            q.try_push(req(i)).unwrap();
        }
        let t0 = Instant::now();
        // Generous timeout: a full batch must not wait for it.
        let (batch, depth_left) = q.pop_batch(8, Duration::from_secs(5)).unwrap();
        assert_eq!(batch.len(), 8);
        assert_eq!(depth_left, 0);
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "full batch waited for timeout"
        );
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn partial_batch_dispatches_on_timeout() {
        let q = AdmissionQueue::new(64);
        for i in 0..3 {
            q.try_push(req(i)).unwrap();
        }
        let t0 = Instant::now();
        let (batch, _) = q.pop_batch(8, Duration::from_millis(30)).unwrap();
        assert_eq!(batch.len(), 3, "partial batch should flush on timeout");
        assert!(
            t0.elapsed() >= Duration::from_millis(25),
            "partial batch flushed before the batching window closed"
        );
    }

    #[test]
    fn late_arrivals_join_the_open_batch() {
        let q = Arc::new(AdmissionQueue::new(64));
        q.try_push(req(0)).unwrap();
        let q2 = Arc::clone(&q);
        let pusher = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            for i in 1..4 {
                q2.try_push(req(i)).unwrap();
            }
        });
        let (batch, _) = q.pop_batch(4, Duration::from_millis(500)).unwrap();
        pusher.join().unwrap();
        assert_eq!(
            batch.len(),
            4,
            "late arrivals should complete the batch early"
        );
    }

    #[test]
    fn overflow_is_rejected_not_queued() {
        let q = AdmissionQueue::new(2);
        q.try_push(req(0)).unwrap();
        q.try_push(req(1)).unwrap();
        let e = q.try_push(req(2)).unwrap_err();
        assert_eq!(e, ServeError::QueueFull { capacity: 2 });
        assert!(q.try_push(req(3)).is_err(), "still full");
        assert_eq!(
            q.depth(),
            2,
            "rejected requests must not displace queued ones"
        );
    }

    #[test]
    fn close_rejects_new_and_drains_old() {
        let q = AdmissionQueue::new(8);
        q.try_push(req(0)).unwrap();
        q.close();
        assert_eq!(q.try_push(req(1)).unwrap_err(), ServeError::ShuttingDown);
        let (batch, _) = q.pop_batch(4, Duration::from_millis(5)).unwrap();
        assert_eq!(batch.len(), 1);
        assert!(q.pop_batch(4, Duration::from_millis(5)).is_none());
    }

    #[test]
    fn bucketed_pop_prefers_co_bucketed_lengths() {
        // Items are prompt lengths; classes: {4,5,7} share [4,8), {9,12}
        // share [8,16), {2,3} share [2,4).
        let q = AdmissionQueue::<usize>::new(64);
        for len in [4usize, 9, 5, 2, 7, 12, 3] {
            q.try_push(len).unwrap();
        }
        let (batch, left) = q
            .pop_batch_bucketed(8, Duration::from_millis(5), |&l| Some(l))
            .unwrap();
        assert_eq!(batch, vec![4, 5, 7], "anchor's class fills in queue order");
        assert_eq!(left, 4);
        // Skipped requests kept their order; the oldest anchors next.
        let (batch, _) = q
            .pop_batch_bucketed(8, Duration::from_millis(5), |&l| Some(l))
            .unwrap();
        assert_eq!(batch, vec![9, 12]);
        let (batch, left) = q
            .pop_batch_bucketed(8, Duration::from_millis(5), |&l| Some(l))
            .unwrap();
        assert_eq!(batch, vec![2, 3]);
        assert_eq!(left, 0);
    }

    #[test]
    fn bucketed_pop_never_starves_the_head() {
        // A lone odd-class request at the head must still dispatch: the
        // FIFO head always anchors, whatever its class.
        let q = AdmissionQueue::<usize>::new(64);
        for len in [100usize, 4, 4, 4] {
            q.try_push(len).unwrap();
        }
        let (batch, _) = q
            .pop_batch_bucketed(4, Duration::from_millis(5), |&l| Some(l))
            .unwrap();
        assert_eq!(batch, vec![100], "mismatched head still dispatches alone");
        let (batch, _) = q
            .pop_batch_bucketed(4, Duration::from_millis(5), |&l| Some(l))
            .unwrap();
        assert_eq!(batch, vec![4, 4, 4]);
    }

    #[test]
    fn bucketed_pop_fills_from_late_co_bucketed_arrivals() {
        let q = Arc::new(AdmissionQueue::<usize>::new(64));
        q.try_push(5).unwrap();
        q.try_push(20).unwrap(); // different class — stays queued
        let q2 = Arc::clone(&q);
        let pusher = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            q2.try_push(6).unwrap();
        });
        let (batch, left) = q
            .pop_batch_bucketed(2, Duration::from_millis(500), |&l| Some(l))
            .unwrap();
        pusher.join().unwrap();
        assert_eq!(batch, vec![5, 6], "late co-bucketed arrival joins early");
        assert_eq!(left, 1, "the off-class request waits for its own batch");
    }

    #[test]
    fn unclassified_items_group_together() {
        let q = AdmissionQueue::<Option<usize>>::new(64);
        for item in [None, Some(4usize), None, Some(5)] {
            q.try_push(item).unwrap();
        }
        let (batch, _) = q
            .pop_batch_bucketed(4, Duration::from_millis(5), |l| *l)
            .unwrap();
        assert_eq!(batch, vec![None, None]);
        let (batch, _) = q
            .pop_batch_bucketed(4, Duration::from_millis(5), |l| *l)
            .unwrap();
        assert_eq!(batch, vec![Some(4), Some(5)]);
    }

    #[test]
    fn pop_blocks_until_first_arrival() {
        let q = Arc::new(AdmissionQueue::new(8));
        let q2 = Arc::clone(&q);
        let pusher = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            q2.try_push(req(7)).unwrap();
        });
        let t0 = Instant::now();
        let (batch, _) = q.pop_batch(4, Duration::from_millis(1)).unwrap();
        pusher.join().unwrap();
        assert_eq!(batch[0].id, 7);
        assert!(t0.elapsed() >= Duration::from_millis(15));
    }
}
