//! Vendored scoped thread pool for intra-batch data parallelism.
//!
//! A forward pass fans out in exactly one place: the GEMM driver in
//! `flexiq-tensor` splits a large problem into contiguous **output row
//! bands**, so every task writes a disjoint region and the parallel
//! result is bit-exact with serial execution — no float reduction is
//! ever reordered. In the library that driver is the only code that
//! submits work; the serve crate owns the pools (sizing, the
//! per-dispatch [`with_pool`] scope, the health ping). Vendored: the
//! build has no registry access (rayon cannot be a dependency).
//!
//! # Architecture
//!
//! A [`ThreadPool`] owns `threads - 1` persistent helper threads parked
//! on a condvar; the thread that calls [`ThreadPool::run`] is the
//! remaining executor, so a pool of size `T` never runs more than `T`
//! tasks of one job concurrently. Jobs are published to a shared
//! injector queue; helpers and the caller claim task indices from an
//! atomic cursor (chunked self-scheduling — the work-stealing analogue
//! for the indexed-task shape every caller here has), so load balances
//! even when task costs are skewed. [`ThreadPool::run`] returns only
//! after every task completed, which is what makes borrowing stack data
//! (`Fn(usize) + Sync` closures over `&`-captures) sound.
//!
//! # Nesting and oversubscription
//!
//! A task that submits a nested job runs it **inline on its own thread**
//! (serially), so a job can never wait on a pool it is running in.
//! Several serve workers may submit to one shared pool at once; their
//! jobs queue and share its threads rather than spawning more, and
//! each worker installs the shared pool around its dispatch (see
//! [`with_pool`]).
//!
//! # Configuration
//!
//! The ambient pool used by kernels ([`current`]) resolves, in order:
//! a scope-installed pool ([`with_pool`]), then the process-global pool
//! ([`global`]), which is sized from `FLEXIQ_THREADS` or, absent that,
//! the machine's available parallelism. `threads = 1` is the graceful
//! serial fallback: no helper threads exist and every job runs inline.
//! [`PoolConfig`] adds one embedder knob: an `on_thread_start` hook that
//! runs on each helper before it parks — the serve stack uses it for
//! first-touch initialization of per-thread kernel scratch, so helpers
//! fault their scratch pages on the thread that will reuse them.
//!
//! # Steady-state allocation
//!
//! Dispatch is allocation-free in steady state: exhausted `Job`
//! headers are parked on a small freelist and reused by later `run`
//! calls (an `Arc` refcount guard makes reuse race-free), and callers
//! that band work per call draw their `Vec<Range>` from a thread-local
//! pool ([`take_ranges`] / [`put_ranges`] / [`chunk_ranges_into`])
//! instead of allocating. Pre-sorted disjoint ranges — the only shape
//! the kernels produce — validate in place without the sort scratch.
//!
//! # Panics
//!
//! A panicking task poisons its job: remaining unclaimed tasks are
//! skipped, every in-flight task drains, and the first panic payload is
//! re-raised on the thread that called [`ThreadPool::run`].

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// One published parallel-for: `n_tasks` indexed calls into a borrowed
/// closure. The closure pointer is only dereferenced for claimed indices
/// `< n_tasks`, all of which complete before `run` returns — that is the
/// entire safety argument for the borrow.
struct Job {
    n_tasks: usize,
    /// Next unclaimed task index (may overshoot `n_tasks`).
    next: AtomicUsize,
    /// Completed (or skipped-after-panic) task count.
    done: AtomicUsize,
    /// Borrowed task body (type-erased); valid until `done == n_tasks`.
    data: *const (),
    /// Monomorphized trampoline re-typing `data` back to the closure.
    call: unsafe fn(*const (), usize),
    /// Set once a task panicked: unclaimed tasks are then skipped.
    poisoned: AtomicBool,
    /// First panic payload, re-raised by the submitting thread.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Completion latch.
    finished: Mutex<bool>,
    finished_cv: Condvar,
}

// SAFETY: the raw closure pointer is only dereferenced while `run`
// keeps the closure alive (see `Job` docs); everything else is atomics
// and locks.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Claims and executes tasks until the cursor is exhausted.
    fn work(&self) {
        use flexiq_telemetry as tel;
        // One clock pair per participation (not per task): busy time and
        // a per-thread `pool_work` span, recorded only while telemetry is
        // on so the disabled hot path pays a single relaxed load here.
        let t0 = tel::recording().then(tel::now_ns);
        let mut claimed = 0u64;
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n_tasks {
                break;
            }
            claimed += 1;
            if !self.poisoned.load(Ordering::Relaxed) {
                let body = IN_TASK.with(|flag| {
                    let outer = flag.replace(true);
                    // SAFETY: i < n_tasks, so `run` is still blocked on
                    // this job and the borrow behind `data` is live.
                    let r = catch_unwind(AssertUnwindSafe(|| unsafe { (self.call)(self.data, i) }));
                    flag.set(outer);
                    r
                });
                if let Err(payload) = body {
                    self.poisoned.store(true, Ordering::Relaxed);
                    let mut slot = self.panic.lock().expect("panic slot");
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                }
            }
            self.complete_one();
        }
        if claimed > 0 {
            tel::count(tel::Counter::PoolTasks, claimed);
        }
        if let Some(t0) = t0 {
            let t1 = tel::now_ns();
            tel::count(tel::Counter::PoolBusyNs, t1.saturating_sub(t0));
            if claimed > 0 {
                tel::record_span(
                    "pool_work",
                    tel::Cat::Pool,
                    0,
                    t0,
                    t1,
                    [claimed, self.n_tasks as u64, 0, 0],
                );
            }
        }
    }

    fn complete_one(&self) {
        // AcqRel: the final increment must observe every task's writes,
        // and the waiter acquires them through the finished latch.
        if self.done.fetch_add(1, Ordering::AcqRel) + 1 == self.n_tasks {
            *self.finished.lock().expect("finished latch") = true;
            self.finished_cv.notify_all();
        }
    }

    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.n_tasks
    }
}

struct Shared {
    queue: Mutex<VecDeque<Arc<Job>>>,
    work_cv: Condvar,
    shutdown: AtomicBool,
}

thread_local! {
    /// True while this thread is executing a pool task: nested submits
    /// run inline instead of re-entering the scheduler.
    static IN_TASK: Cell<bool> = const { Cell::new(false) };
    /// Scope-installed pools ([`with_pool`]), innermost last.
    static CURRENT: RefCell<Vec<Arc<ThreadPool>>> = const { RefCell::new(Vec::new()) };
    /// Parked `Vec<Range>` band buffers ([`take_ranges`]).
    static RANGE_POOL: RefCell<Vec<Vec<Range<usize>>>> = const { RefCell::new(Vec::new()) };
}

/// Parked job headers kept per pool for reuse; small because at most a
/// handful of external submitters ever dispatch concurrently.
const JOB_FREELIST_CAP: usize = 8;

/// Embedder knobs for [`ThreadPool::with_config`].
#[derive(Clone, Default)]
pub struct PoolConfig {
    /// Runs once on each helper thread (with its index `1..threads`;
    /// the caller thread is participant 0) before the helper parks for
    /// work. Used for first-touch initialization of per-thread scratch.
    pub on_thread_start: Option<Arc<dyn Fn(usize) + Send + Sync>>,
}

/// A scoped chunking/work-stealing thread pool (see the crate docs).
pub struct ThreadPool {
    shared: Arc<Shared>,
    helpers: Vec<JoinHandle<()>>,
    threads: usize,
    /// Exhausted job headers parked for reuse (refcount-guarded).
    jobs: Mutex<Vec<Arc<Job>>>,
}

impl ThreadPool {
    /// Creates a pool that runs jobs on `threads` threads (the caller
    /// plus `threads - 1` persistent helpers). `threads` is clamped to
    /// at least 1; a 1-thread pool executes every job inline (the
    /// serial fallback).
    pub fn new(threads: usize) -> Arc<ThreadPool> {
        ThreadPool::with_config(threads, PoolConfig::default())
    }

    /// Creates a pool with explicit [`PoolConfig`] knobs.
    pub fn with_config(threads: usize, cfg: PoolConfig) -> Arc<ThreadPool> {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let helpers = (1..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let cfg = cfg.clone();
                std::thread::Builder::new()
                    .name(format!("flexiq-pool-{i}"))
                    .spawn(move || {
                        if let Some(hook) = &cfg.on_thread_start {
                            hook(i);
                        }
                        helper_loop(&shared)
                    })
                    .expect("spawn pool helper thread")
            })
            .collect();
        Arc::new(ThreadPool {
            shared,
            helpers,
            threads,
            jobs: Mutex::new(Vec::new()),
        })
    }

    /// Number of threads this pool runs jobs on (including the caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Liveness probe: dispatches one trivial task per thread and
    /// returns the round-trip time. A serving supervisor calls this to
    /// verify the shared intra-batch pool still answers (helpers survive
    /// task panics by design, so an unresponsive pool means something
    /// external — a wedged core, a runaway task — deserves attention).
    pub fn ping(&self) -> std::time::Duration {
        let t0 = std::time::Instant::now();
        self.run(self.threads, |_| {});
        t0.elapsed()
    }

    /// Runs `f(0), …, f(n_tasks - 1)` across the pool and returns when
    /// every call finished. Tasks may run in any order and on any pool
    /// thread, so they must only touch disjoint data (or data safe to
    /// share); [`ThreadPool::run_disjoint_mut`] encodes the
    /// disjoint-output pattern the GEMM row bands use.
    ///
    /// Runs inline (serially, in index order) when the pool has one
    /// thread, when `n_tasks <= 1`, or when called from inside another
    /// pool task (nested submit).
    pub fn run<F: Fn(usize) + Sync>(&self, n_tasks: usize, f: F) {
        if n_tasks == 0 {
            return;
        }
        if self.threads == 1 || n_tasks == 1 || IN_TASK.with(|t| t.get()) {
            for i in 0..n_tasks {
                f(i);
            }
            return;
        }
        /// Calls the job's type-erased closure.
        ///
        /// # Safety
        ///
        /// `data` must point to a live `F`: `f` on this `run`'s stack,
        /// which returns only once every task has completed.
        unsafe fn trampoline<F: Fn(usize) + Sync>(data: *const (), i: usize) {
            (*data.cast::<F>())(i)
        }
        let job = self.checkout_job(n_tasks, (&f as *const F).cast::<()>(), trampoline::<F>);
        {
            let mut q = self.shared.queue.lock().expect("pool queue");
            q.push_back(Arc::clone(&job));
        }
        self.shared.work_cv.notify_all();
        // The caller is a full participant in its own job.
        job.work();
        self.retire(&job);
        let mut finished = job.finished.lock().expect("finished latch");
        while !*finished {
            finished = job.finished_cv.wait(finished).expect("finished latch wait");
        }
        drop(finished);
        let payload = job.panic.lock().expect("panic slot").take();
        // Park the spent header before any unwind so even a poisoned
        // dispatch keeps the freelist warm. The closure borrow behind
        // `data` ends here; a parked header's pointer is stale but never
        // dereferenced again until checkout overwrites it.
        self.park_job(job);
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// A job header for `run`: reuses a parked one when this thread is
    /// its sole owner, else allocates. `Arc::get_mut` is the race
    /// guard — a helper that still holds a clone of a parked job (it
    /// finished the tasks but has not dropped its `Arc` yet) makes the
    /// refcount `> 1`, so that header is skipped rather than reset
    /// under a live reader.
    fn checkout_job(
        &self,
        n_tasks: usize,
        data: *const (),
        call: unsafe fn(*const (), usize),
    ) -> Arc<Job> {
        let mut free = self.jobs.lock().expect("job freelist");
        for idx in 0..free.len() {
            if Arc::get_mut(&mut free[idx]).is_none() {
                continue;
            }
            let mut job = free.swap_remove(idx);
            drop(free);
            let j = Arc::get_mut(&mut job).expect("sole owner after guard");
            j.n_tasks = n_tasks;
            *j.next.get_mut() = 0;
            *j.done.get_mut() = 0;
            j.data = data;
            j.call = call;
            *j.poisoned.get_mut() = false;
            *j.panic.get_mut().expect("panic slot") = None;
            *j.finished.get_mut().expect("finished latch") = false;
            return job;
        }
        drop(free);
        Arc::new(Job {
            n_tasks,
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            data,
            call,
            poisoned: AtomicBool::new(false),
            panic: Mutex::new(None),
            finished: Mutex::new(false),
            finished_cv: Condvar::new(),
        })
    }

    /// Parks a spent job header for reuse (dropped if the list is full).
    fn park_job(&self, job: Arc<Job>) {
        let mut free = self.jobs.lock().expect("job freelist");
        if free.len() < JOB_FREELIST_CAP {
            free.push(job);
        }
    }

    /// Removes an exhausted job from the injector queue.
    fn retire(&self, job: &Arc<Job>) {
        let mut q = self.shared.queue.lock().expect("pool queue");
        q.retain(|j| !Arc::ptr_eq(j, job));
    }

    /// Runs `f(i, &mut data[ranges[i]])` in parallel. The ranges must be
    /// pairwise disjoint and within `data` — validated up front — which
    /// makes handing each task its own `&mut` chunk sound. This is the
    /// banded-output primitive behind the parallel GEMMs.
    ///
    /// # Panics
    ///
    /// Panics if any range exceeds `data.len()` or two ranges overlap.
    pub fn run_disjoint_mut<T, F>(&self, data: &mut [T], ranges: &[Range<usize>], f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        validate_disjoint(ranges, data.len());
        let base = SendPtr(data.as_mut_ptr());
        self.run(ranges.len(), |i| {
            let r = &ranges[i];
            // SAFETY: ranges are in-bounds and pairwise disjoint
            // (validated above), so each task gets a unique &mut chunk.
            let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(r.start), r.len()) };
            f(i, chunk);
        });
    }
}

/// Asserts that `ranges` are pairwise disjoint and end within `limit`.
/// Already-sorted inputs — the only shape the band planner produces —
/// validate in place; anything else pays a sort into scratch first.
fn validate_disjoint(ranges: &[Range<usize>], limit: usize) {
    if ranges.windows(2).all(|w| w[0].end <= w[1].start) {
        for r in ranges {
            assert!(r.start <= r.end, "ranges overlap");
            assert!(r.end <= limit, "range {r:?} outside data");
        }
        return;
    }
    let mut sorted: Vec<&Range<usize>> = ranges.iter().collect();
    sorted.sort_by_key(|r| r.start);
    let mut prev_end = 0usize;
    for r in sorted {
        assert!(r.start >= prev_end && r.start <= r.end, "ranges overlap");
        assert!(r.end <= limit, "range {r:?} outside data");
        prev_end = r.end.max(prev_end);
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            // The store must happen under the queue mutex: a helper
            // holding the lock between its shutdown check and
            // `work_cv.wait` would otherwise miss both the flag and the
            // notification and park forever (and the join below with it).
            // `lock()` pins the mutex even if poisoned.
            let _q = self.shared.queue.lock();
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.work_cv.notify_all();
        for h in self.helpers.drain(..) {
            let _ = h.join();
        }
    }
}

fn helper_loop(shared: &Shared) {
    use flexiq_telemetry as tel;
    loop {
        let job = {
            let mut q = shared.queue.lock().expect("pool queue");
            // Idle accounting: time parked between jobs, counted only
            // while telemetry is enabled.
            let idle_t0 = tel::enabled().then(tel::now_ns);
            let job = loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    if let Some(t0) = idle_t0 {
                        tel::count(tel::Counter::PoolIdleNs, tel::now_ns().saturating_sub(t0));
                    }
                    return;
                }
                if let Some(job) = q.front() {
                    break Arc::clone(job);
                }
                q = shared.work_cv.wait(q).expect("pool queue wait");
            };
            if let Some(t0) = idle_t0 {
                tel::count(tel::Counter::PoolIdleNs, tel::now_ns().saturating_sub(t0));
            }
            job
        };
        job.work();
        // The cursor is spent: drop the job from the queue so waiters
        // park instead of spinning on it (tasks may still be in flight
        // on other threads; the queue only hands out *claims*).
        if job.exhausted() {
            let mut q = shared.queue.lock().expect("pool queue");
            q.retain(|j| !Arc::ptr_eq(j, &job));
        }
    }
}

/// Raw pointer wrapper that is Send/Sync so banded closures can carve
/// disjoint `&mut` chunks out of one buffer.
struct SendPtr<T>(*mut T);
// SAFETY: the pointer is only ever turned into `&mut` chunks of
// pairwise-disjoint ranges (`run_disjoint_mut` validates them), each
// handed to exactly one task, so moving it to another thread moves
// access to `T: Send` values no other thread touches.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: sharing the wrapper shares only the address; every
// dereference goes through the same disjoint-chunk discipline, so no
// two threads ever reach the same `T`.
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Method receiver forces whole-struct capture in closures (a bare
    /// field access would capture the raw pointer itself, which is not
    /// `Sync`).
    fn get(&self) -> *mut T {
        self.0
    }
}

/// True while the calling thread is executing a pool task. Kernels use
/// this to skip band-planning work (and the [`current`] lookup, which
/// may lazily spawn the global pool) when a nested submit would run
/// inline anyway.
pub fn in_task() -> bool {
    IN_TASK.with(|t| t.get())
}

/// The one parse of `FLEXIQ_THREADS`: `Some(count)` when the variable is
/// set (values `< 1` clamp to 1; an unparsable value warns and yields
/// the machine's available parallelism), `None` when it is not. The
/// global pool and the serve crate's pool sizing both ask here.
pub fn env_threads() -> Option<usize> {
    let v = std::env::var("FLEXIQ_THREADS").ok()?;
    Some(match v.trim().parse::<usize>() {
        Ok(t) => t.max(1),
        Err(_) => {
            eprintln!(
                "warning: FLEXIQ_THREADS={v:?} is not a thread count; \
                 using machine parallelism"
            );
            machine_threads()
        }
    })
}

/// The machine's available parallelism (ignores `FLEXIQ_THREADS`).
pub fn machine_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The process-global pool, created on first use with [`env_threads`]
/// threads, else [`machine_threads`].
pub fn global() -> &'static Arc<ThreadPool> {
    static GLOBAL: OnceLock<Arc<ThreadPool>> = OnceLock::new();
    GLOBAL.get_or_init(|| ThreadPool::new(env_threads().unwrap_or_else(machine_threads)))
}

/// The ambient pool kernels should submit to: the innermost
/// [`with_pool`] scope on this thread, else the global pool.
pub fn current() -> Arc<ThreadPool> {
    CURRENT.with(|stack| {
        stack
            .borrow()
            .last()
            .cloned()
            .unwrap_or_else(|| Arc::clone(global()))
    })
}

/// Installs `pool` as this thread's ambient pool for the duration of
/// `f`. Scopes nest (innermost wins) and unwind safely. This is how an
/// embedder — the serving worker pool, the runtime, a bench — routes
/// every kernel underneath one shared pool.
pub fn with_pool<R>(pool: &Arc<ThreadPool>, f: impl FnOnce() -> R) -> R {
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            CURRENT.with(|stack| {
                stack.borrow_mut().pop();
            });
        }
    }
    CURRENT.with(|stack| stack.borrow_mut().push(Arc::clone(pool)));
    let _guard = Guard;
    f()
}

/// Splits `0..total` into at most `max_parts` contiguous, near-equal
/// ranges (the first `total % parts` ranges are one longer). Returns an
/// empty vec for `total == 0`; never returns empty ranges.
pub fn chunk_ranges(total: usize, max_parts: usize) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    chunk_ranges_into(total, max_parts, &mut out);
    out
}

/// [`chunk_ranges`] into a caller-provided buffer (cleared first) — the
/// allocation-free form hot paths pair with [`take_ranges`] /
/// [`put_ranges`].
pub fn chunk_ranges_into(total: usize, max_parts: usize, out: &mut Vec<Range<usize>>) {
    out.clear();
    if total == 0 {
        return;
    }
    let parts = max_parts.clamp(1, total);
    let base = total / parts;
    let extra = total % parts;
    out.reserve(parts);
    let mut start = 0usize;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        out.push(start..start + len);
        start += len;
    }
}

/// Takes a cleared `Vec<Range>` from this thread's band-buffer pool
/// (empty on a cold pool). Return it with [`put_ranges`] when the
/// dispatch using it completes; after a few warm-up calls per thread the
/// band planning in the kernels allocates nothing.
pub fn take_ranges() -> Vec<Range<usize>> {
    RANGE_POOL
        .with(|p| p.borrow_mut().pop())
        .map(|mut v| {
            v.clear();
            v
        })
        .unwrap_or_default()
}

/// Parks a band buffer for reuse on this thread. Zero-capacity vectors
/// are dropped (nothing to reuse); the pool keeps at most a handful.
pub fn put_ranges(mut v: Vec<Range<usize>>) {
    if v.capacity() == 0 {
        return;
    }
    v.clear();
    RANGE_POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < JOB_FREELIST_CAP {
            pool.push(v);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_every_task_exactly_once() {
        let pool = ThreadPool::new(4);
        let hits: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
        pool.run(hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "task {i}");
        }
    }

    #[test]
    fn zero_tasks_is_a_noop() {
        let pool = ThreadPool::new(4);
        pool.run(0, |_| panic!("must not be called"));
    }

    #[test]
    fn one_thread_pool_runs_inline_in_order() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.threads(), 1);
        let order = Mutex::new(Vec::new());
        pool.run(8, |i| order.lock().unwrap().push(i));
        assert_eq!(*order.lock().unwrap(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn panic_in_task_propagates_to_submitter() {
        let pool = ThreadPool::new(4);
        let executed = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(64, |i| {
                if i == 5 {
                    panic!("task 5 exploded");
                }
                executed.fetch_add(1, Ordering::Relaxed);
            });
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "task 5 exploded");
        // The pool stays usable after a poisoned job.
        let after = AtomicUsize::new(0);
        pool.run(16, |_| {
            after.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(after.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn nested_submit_runs_inline_without_deadlock() {
        let pool = ThreadPool::new(4);
        let count = AtomicU64::new(0);
        pool.run(8, |_| {
            // A task fanning out again must not re-enter the scheduler
            // (the outer job owns the threads); it runs inline.
            let inner = current();
            inner.run(8, |_| {
                assert!(IN_TASK.with(|t| t.get()), "nested task lost the flag");
                count.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn disjoint_bands_fill_the_whole_buffer() {
        let pool = ThreadPool::new(3);
        let mut data = vec![0usize; 100];
        let ranges = chunk_ranges(100, 7);
        pool.run_disjoint_mut(&mut data, &ranges, |i, chunk| {
            for v in chunk.iter_mut() {
                *v = i + 1;
            }
        });
        for (i, r) in ranges.iter().enumerate() {
            assert!(data[r.clone()].iter().all(|&v| v == i + 1));
        }
    }

    #[test]
    #[should_panic(expected = "ranges overlap")]
    fn overlapping_ranges_are_rejected() {
        let pool = ThreadPool::new(2);
        let mut data = vec![0u8; 10];
        pool.run_disjoint_mut(&mut data, &[0..6, 5..10], |_, _| {});
    }

    #[test]
    fn concurrent_external_submitters_share_the_pool() {
        // Several non-pool threads (the serve-worker shape) submit jobs
        // at once; every job completes and counts exactly its tasks.
        let pool = ThreadPool::new(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let pool = &pool;
                scope.spawn(move || {
                    let count = AtomicUsize::new(0);
                    pool.run(101, |_| {
                        count.fetch_add(1, Ordering::Relaxed);
                    });
                    assert_eq!(count.load(Ordering::Relaxed), 101);
                });
            }
        });
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        for total in [0usize, 1, 2, 5, 16, 97] {
            for parts in [1usize, 2, 3, 8, 200] {
                let ranges = chunk_ranges(total, parts);
                let mut covered = 0usize;
                for r in &ranges {
                    assert_eq!(r.start, covered, "gap at {covered}");
                    assert!(!r.is_empty());
                    covered = r.end;
                }
                assert_eq!(covered, total);
                assert!(ranges.len() <= parts.max(1));
            }
        }
    }

    #[test]
    fn with_pool_installs_and_restores() {
        let outer = ThreadPool::new(2);
        let inner = ThreadPool::new(3);
        with_pool(&outer, || {
            assert_eq!(current().threads(), 2);
            with_pool(&inner, || assert_eq!(current().threads(), 3));
            assert_eq!(current().threads(), 2);
        });
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)]
    fn chunk_ranges_into_matches_the_allocating_form() {
        let mut buf = vec![99..100]; // stale content must be cleared
        for total in [0usize, 1, 2, 5, 16, 97] {
            for parts in [1usize, 2, 3, 8, 200] {
                chunk_ranges_into(total, parts, &mut buf);
                assert_eq!(buf, chunk_ranges(total, parts), "{total}/{parts}");
            }
        }
    }

    #[test]
    fn pooled_range_buffers_keep_their_capacity() {
        // Drain this thread's pool so the test owns its state.
        let mut drained = Vec::new();
        loop {
            let v = take_ranges();
            if v.capacity() == 0 {
                break;
            }
            drained.push(v);
        }
        let mut v = take_ranges();
        assert_eq!(v.capacity(), 0, "cold pool hands out fresh vecs");
        chunk_ranges_into(100, 8, &mut v);
        let cap = v.capacity();
        assert!(cap >= 8);
        put_ranges(v);
        let v = take_ranges();
        assert!(v.is_empty(), "pooled vec comes back cleared");
        assert_eq!(v.capacity(), cap, "pooled vec keeps its allocation");
        put_ranges(v);
        for v in drained {
            put_ranges(v);
        }
    }

    #[test]
    fn repeated_runs_reuse_job_headers() {
        // Behavioral check that freelist reuse stays correct across many
        // dispatches (including closures of different types), plus a
        // direct look at the freelist length: it must stop growing.
        let pool = ThreadPool::new(4);
        for round in 0..32usize {
            let sum = AtomicU64::new(0);
            pool.run(64, |i| {
                sum.fetch_add((round * 64 + i) as u64, Ordering::Relaxed);
            });
            let expect: u64 = (0..64).map(|i| (round * 64 + i) as u64).sum();
            assert_eq!(sum.load(Ordering::Relaxed), expect, "round {round}");
            let parked = pool.jobs.lock().unwrap().len();
            // Headers park at most once per dispatch and get reused, so
            // the list stays bounded (usually length 1; a helper still
            // holding a clone at checkout time can briefly add another).
            assert!(parked <= JOB_FREELIST_CAP, "freelist grew: {parked}");
        }
        // A differently-typed closure reuses the same header too.
        let hits: Vec<AtomicUsize> = (0..16).map(|_| AtomicUsize::new(0)).collect();
        pool.run(hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn pool_drop_never_loses_the_shutdown_signal() {
        // Regression: `Drop` used to store the shutdown flag and notify
        // without holding the queue mutex, so a helper sitting between
        // its shutdown check and `work_cv.wait` missed both and parked
        // forever — and the join in `Drop` hung with it. Rapid
        // create/dispatch/drop cycles keep that window hot; with the
        // lost wakeup this test deadlocks instead of failing an assert.
        for round in 0..200usize {
            let pool = ThreadPool::new(2);
            let sum = AtomicU64::new(0);
            pool.run(4, |i| {
                sum.fetch_add(i as u64 + 1, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 10, "round {round}");
        }
    }

    #[test]
    fn freelist_survives_a_poisoned_job() {
        let pool = ThreadPool::new(2);
        for _ in 0..4 {
            let r = catch_unwind(AssertUnwindSafe(|| {
                pool.run(8, |i| {
                    if i == 3 {
                        panic!("boom");
                    }
                });
            }));
            assert!(r.is_err());
            // The poisoned header was parked and must come back clean.
            let ok = AtomicUsize::new(0);
            pool.run(8, |_| {
                ok.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(ok.load(Ordering::Relaxed), 8);
        }
    }

    #[test]
    #[should_panic(expected = "ranges overlap")]
    fn inverted_range_is_rejected_on_the_sorted_fast_path() {
        let pool = ThreadPool::new(2);
        let mut data = vec![0u8; 10];
        #[allow(clippy::reversed_empty_ranges, clippy::single_range_in_vec_init)]
        pool.run_disjoint_mut(&mut data, &[5..3], |_, _| {});
    }

    #[test]
    fn unsorted_disjoint_ranges_still_validate() {
        let pool = ThreadPool::new(2);
        let mut data = vec![0usize; 10];
        pool.run_disjoint_mut(&mut data, &[5..10, 0..5], |i, chunk| {
            chunk.fill(i + 1);
        });
        assert_eq!(data[..5], [2, 2, 2, 2, 2]);
        assert_eq!(data[5..], [1, 1, 1, 1, 1]);
    }

    #[test]
    fn on_thread_start_hook_runs_on_each_helper() {
        let started = Arc::new(Mutex::new(Vec::new()));
        let hook_started = Arc::clone(&started);
        let pool = ThreadPool::with_config(
            3,
            PoolConfig {
                on_thread_start: Some(Arc::new(move |i| {
                    hook_started.lock().unwrap().push(i);
                })),
            },
        );
        // The hook runs before helpers park; a dispatch synchronizes
        // loosely with helper startup, so poll briefly.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            let mut got = started.lock().unwrap().clone();
            got.sort_unstable();
            if got == [1, 2] {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "hooks never ran: {got:?}"
            );
            std::thread::yield_now();
        }
        drop(pool);
    }
}
