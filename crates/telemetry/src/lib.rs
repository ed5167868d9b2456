//! Vendored, dependency-free telemetry for the FlexiQ runtime (ISSUE 6).
//!
//! Every other observability hook in the workspace funnels through this
//! crate: per-node spans in the graph executor, per-phase spans in the
//! quantized engine, per-GEMM events in the kernel crate, pool busy/idle
//! accounting in `flexiq-parallel`, and request-scoped traces in
//! `flexiq-serve`. Design constraints, in order:
//!
//! 1. **~zero cost when disabled.** Every recording entry point starts
//!    with [`recording`]: one relaxed atomic load plus a thread-local
//!    `Cell` read. No clock is consulted, nothing allocates, nothing is
//!    written.
//! 2. **Lock-free, allocation-free recording when enabled.** Each thread
//!    owns a single-writer ring buffer, lazily allocated on its first
//!    recorded span and registered globally so a collector can snapshot
//!    all threads. Pushing a span is two relaxed/release atomics and one
//!    slot write; when the ring is full, new spans are dropped and
//!    counted — the hot path never blocks and never allocates, which is
//!    what lets the allocation steady-state tests hold with telemetry on.
//! 3. **Bit-exactness is untouchable.** Spans time existing code; they
//!    never reorder arithmetic. The CI equivalence suites re-run with
//!    `FLEXIQ_TELEMETRY=1` to pin this.
//!
//! Two recording triggers compose:
//! * the **global flag** — `FLEXIQ_TELEMETRY=1` in the environment or
//!   [`set_enabled`]`(true)`; and
//! * a **thread-scoped trace id** — [`with_trace`] forces recording on
//!   the current thread for the duration of a closure and stamps every
//!   span with the id. `flexiq-serve` uses this to record *sampled*
//!   requests end to end while the rest of the fleet pays the disabled
//!   fast path.
//!
//! Exporters: [`chrome`] renders a `chrome://tracing` / Perfetto JSON
//! timeline, [`prom`] renders Prometheus text exposition for the global
//! counters. [`top_spans`] aggregates a drained snapshot into the top-N
//! breakdowns the bench bins print.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

pub mod chrome;
pub mod prom;

// ───────────────────────── enabled flag ─────────────────────────

/// Tri-state so the env var is read exactly once, lazily: 0 = uninit,
/// 1 = disabled, 2 = enabled.
static ENABLED: AtomicU8 = AtomicU8::new(0);

#[cold]
fn init_enabled() -> bool {
    let on = std::env::var("FLEXIQ_TELEMETRY").is_ok_and(|v| v != "0" && !v.is_empty());
    // Racy init is fine: every racer computes the same value.
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

/// Whether global span recording is on (`FLEXIQ_TELEMETRY=1` or
/// [`set_enabled`]). A single relaxed load on the hot path.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => init_enabled(),
    }
}

/// Programmatically force telemetry on or off, overriding the
/// environment. Takes effect for spans started after the call.
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

thread_local! {
    /// Nonzero while inside [`with_trace`]: forces recording on this
    /// thread and stamps spans with the trace id.
    static CURRENT_TRACE: Cell<u64> = const { Cell::new(0) };
    /// Current span nesting depth on this thread (RAII-maintained).
    static DEPTH: Cell<u16> = const { Cell::new(0) };
}

/// True when spans started now on this thread would be recorded.
#[inline]
pub fn recording() -> bool {
    enabled() || CURRENT_TRACE.with(Cell::get) != 0
}

/// The trace id active on this thread (0 outside [`with_trace`]).
#[inline]
pub fn current_trace() -> u64 {
    CURRENT_TRACE.with(Cell::get)
}

/// Runs `f` with recording forced on this thread and every span stamped
/// with `trace_id` (0 leaves recording as-is). Nested calls restore the
/// outer id on exit.
pub fn with_trace<R>(trace_id: u64, f: impl FnOnce() -> R) -> R {
    let prev = CURRENT_TRACE.with(|c| c.replace(trace_id));
    struct Restore(u64);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT_TRACE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(prev);
    f()
}

// ───────────────────────── monotonic clock ─────────────────────────

static ANCHOR: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process-wide telemetry anchor (first call).
/// Monotonic; shared by every thread so spans are mutually ordered.
#[inline]
pub fn now_ns() -> u64 {
    ANCHOR.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

// ───────────────────────── span model ─────────────────────────

/// Span category: selects exporter formatting and aggregation buckets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Cat {
    /// One graph node in `exec::eval` (name = `Op::name()`).
    Node,
    /// A quantized-engine phase: act-quant, bit-lowering, band GEMM,
    /// requantization.
    Phase,
    /// One kernel-level GEMM call (args carry shape/packed/madds/skip).
    Gemm,
    /// Thread-pool work: per-thread job participation.
    Pool,
    /// Serving lifecycle: admit → dispatch → complete.
    Serve,
}

impl Cat {
    /// Stable lowercase label used by the exporters.
    pub fn as_str(self) -> &'static str {
        match self {
            Cat::Node => "node",
            Cat::Phase => "phase",
            Cat::Gemm => "gemm",
            Cat::Pool => "pool",
            Cat::Serve => "serve",
        }
    }
}

/// One recorded span. `Copy` so ring slots are plain stores and the
/// collector can snapshot by memcpy.
#[derive(Clone, Copy, Debug)]
pub struct SpanEvent {
    /// Static name ("conv2d", "act_quant", "gemm_i8_band", ...).
    pub name: &'static str,
    pub cat: Cat,
    /// Start, ns since the [`now_ns`] anchor.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Category-specific id: graph-node id for `Node`, lhs zero-skip
    /// per-mille for `Gemm`, request id for `Serve`.
    pub id: u32,
    /// Request trace id (0 when recorded outside [`with_trace`]).
    pub trace_id: u64,
    /// Nesting depth on the recording thread when the span started.
    pub depth: u16,
    /// Category-specific payload. For `Gemm`: `[m, n, k, packed_bytes]`.
    pub args: [u64; 4],
}

impl SpanEvent {
    const EMPTY: SpanEvent = SpanEvent {
        name: "",
        cat: Cat::Node,
        start_ns: 0,
        dur_ns: 0,
        id: 0,
        trace_id: 0,
        depth: 0,
        args: [0; 4],
    };
}

// ───────────────────────── per-thread rings ─────────────────────────

/// Events per thread ring. At ~88 B/event this is ~1.4 MiB per recording
/// thread, allocated once on the thread's first recorded span.
const RING_CAP: usize = 16_384;

/// Single-writer ring buffer: the owning thread appends, collectors read
/// `[0, len)` under acquire/release. Published slots are never rewritten
/// (full ⇒ drop-newest), so readers see immutable data.
struct ThreadRing {
    slots: Box<[std::cell::UnsafeCell<SpanEvent>]>,
    /// Writer: relaxed load + release store. Reader: acquire load.
    len: AtomicUsize,
    /// Spans discarded because the ring was full.
    dropped: AtomicU64,
    /// Stable exporter thread id (registration order).
    tid: u64,
    name: String,
}

// SAFETY: only the owning thread writes `slots`, and only at index
// `len` before publishing `len + 1` with release ordering; other
// threads read strictly below their acquire-loaded `len`, i.e. only
// slots the writer will never touch again (except via `reset`, which
// is documented to require quiescence).
unsafe impl Sync for ThreadRing {}
unsafe impl Send for ThreadRing {}

impl ThreadRing {
    fn new(tid: u64, name: String) -> Self {
        ThreadRing {
            slots: (0..RING_CAP)
                .map(|_| std::cell::UnsafeCell::new(SpanEvent::EMPTY))
                .collect(),
            len: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            tid,
            name,
        }
    }

    /// Owner-thread append; never allocates, never blocks.
    fn push(&self, ev: SpanEvent) {
        let len = self.len.load(Ordering::Relaxed);
        if len >= self.slots.len() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            count(Counter::SpansDropped, 1);
            return;
        }
        // SAFETY: single writer (the owning thread); slot `len` is not
        // yet published to readers.
        unsafe { *self.slots[len].get() = ev };
        self.len.store(len + 1, Ordering::Release);
    }

    fn snapshot(&self) -> Vec<SpanEvent> {
        let len = self.len.load(Ordering::Acquire).min(self.slots.len());
        // SAFETY: slots below the acquire-loaded `len` are published and
        // immutable (drop-newest ring, no overwrite of published slots).
        (0..len).map(|i| unsafe { *self.slots[i].get() }).collect()
    }
}

/// Registry of every ring ever created, so collectors can drain threads
/// that are still parked in pools. Locked only on ring creation and
/// during drain/reset — never on the span hot path.
static REGISTRY: Mutex<Vec<Arc<ThreadRing>>> = Mutex::new(Vec::new());
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static RING: RefCell<Option<Arc<ThreadRing>>> = const { RefCell::new(None) };
}

/// The calling thread's ring, created and registered on first use.
fn local_ring() -> Arc<ThreadRing> {
    RING.with(|r| {
        let mut slot = r.borrow_mut();
        if let Some(ring) = slot.as_ref() {
            return Arc::clone(ring);
        }
        let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        let name = std::thread::current()
            .name()
            .map(str::to_string)
            .unwrap_or_else(|| format!("thread-{tid}"));
        let ring = Arc::new(ThreadRing::new(tid, name));
        REGISTRY.lock().unwrap().push(Arc::clone(&ring));
        *slot = Some(Arc::clone(&ring));
        ring
    })
}

/// A drained snapshot of one thread's spans.
#[derive(Clone, Debug)]
pub struct ThreadSpans {
    /// Stable exporter thread id.
    pub tid: u64,
    /// OS thread name at ring creation ("flexiq-worker-0", ...).
    pub thread: String,
    pub spans: Vec<SpanEvent>,
    /// Spans lost to ring exhaustion on this thread.
    pub dropped: u64,
}

/// Snapshots every registered thread ring (threads with zero spans are
/// skipped). Non-destructive: recording continues concurrently; spans
/// pushed after the snapshot simply aren't in it.
pub fn drain() -> Vec<ThreadSpans> {
    let rings = REGISTRY.lock().unwrap();
    rings
        .iter()
        .map(|r| ThreadSpans {
            tid: r.tid,
            thread: r.name.clone(),
            spans: r.snapshot(),
            dropped: r.dropped.load(Ordering::Relaxed),
        })
        .filter(|t| !t.spans.is_empty() || t.dropped > 0)
        .collect()
}

/// Clears every ring and the global counters. **Requires quiescence**:
/// no thread may be recording a span concurrently (benches and tests
/// call this between otherwise-idle measurement passes).
pub fn reset() {
    let rings = REGISTRY.lock().unwrap();
    for r in rings.iter() {
        r.len.store(0, Ordering::Release);
        r.dropped.store(0, Ordering::Relaxed);
    }
    drop(rings);
    reset_counters();
}

// ───────────────────────── span guards ─────────────────────────

/// RAII span: measures from construction to drop, then pushes onto the
/// thread's ring. Construct via [`span`] / [`span_full`].
pub struct SpanGuard {
    name: &'static str,
    cat: Cat,
    id: u32,
    args: [u64; 4],
    start_ns: u64,
    depth: u16,
}

impl SpanGuard {
    fn begin(name: &'static str, cat: Cat, id: u32, args: [u64; 4]) -> SpanGuard {
        let depth = DEPTH.with(|d| {
            let v = d.get();
            d.set(v.saturating_add(1));
            v
        });
        SpanGuard {
            name,
            cat,
            id,
            args,
            start_ns: now_ns(),
            depth,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let dur_ns = now_ns().saturating_sub(self.start_ns);
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        local_ring().push(SpanEvent {
            name: self.name,
            cat: self.cat,
            start_ns: self.start_ns,
            dur_ns,
            id: self.id,
            trace_id: current_trace(),
            depth: self.depth,
            args: self.args,
        });
    }
}

/// Starts a span if this thread is recording; `None` is the disabled
/// fast path (one relaxed load, no clock).
#[inline]
#[must_use]
pub fn span(name: &'static str, cat: Cat) -> Option<SpanGuard> {
    if !recording() {
        return None;
    }
    Some(SpanGuard::begin(name, cat, 0, [0; 4]))
}

/// [`span`] with an id and payload attached up front.
#[inline]
#[must_use]
pub fn span_full(name: &'static str, cat: Cat, id: u32, args: [u64; 4]) -> Option<SpanGuard> {
    if !recording() {
        return None;
    }
    Some(SpanGuard::begin(name, cat, id, args))
}

/// Records a zero-duration marker (admission, completion, ...).
#[inline]
pub fn event(name: &'static str, cat: Cat, id: u32, args: [u64; 4]) {
    if !recording() {
        return;
    }
    local_ring().push(SpanEvent {
        name,
        cat,
        start_ns: now_ns(),
        dur_ns: 0,
        id,
        trace_id: current_trace(),
        depth: DEPTH.with(Cell::get),
        args,
    });
}

/// Records a completed span from explicit timestamps (used by the GEMM
/// wrappers, which time the inner call themselves so the zero-skip scan
/// stays outside the measured window).
#[inline]
pub fn record_span(
    name: &'static str,
    cat: Cat,
    id: u32,
    start_ns: u64,
    end_ns: u64,
    args: [u64; 4],
) {
    local_ring().push(SpanEvent {
        name,
        cat,
        start_ns,
        dur_ns: end_ns.saturating_sub(start_ns),
        id,
        trace_id: current_trace(),
        depth: DEPTH.with(Cell::get),
        args,
    });
}

// ───────────────────────── global counters ─────────────────────────

/// Global monotonic counters for the invariants PR 5 fought for. The
/// cheap ones (pure `fetch_add`) are unconditional so regressions show
/// up even with spans off; the clock-backed pool timers are only fed
/// when [`enabled`] (their call sites would otherwise pay `Instant`
/// reads on every pool interaction).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Workspace `Buf` growth events (steady state ⇒ 0 after warm-up).
    WsBufGrowth,
    /// Kernel scratch-pool takes.
    ScratchTake,
    /// Kernel scratch-pool puts.
    ScratchPut,
    /// Tasks executed by the parallel pool (all participants).
    PoolTasks,
    /// ns pool participants spent inside task bodies.
    PoolBusyNs,
    /// ns pool helpers spent parked waiting for work.
    PoolIdleNs,
    /// Kernel GEMM calls.
    GemmCalls,
    /// Multiply-adds issued by those GEMMs (`m·n·k` each).
    GemmMadds,
    /// Estimated bytes staged through packed GEMM panels.
    GemmPackedBytes,
    /// GEMM calls dispatched to the AVX2 tiles.
    GemmIsaAvx2,
    /// GEMM calls dispatched to the scalar tiles.
    GemmIsaScalar,
    /// GEMM calls dispatched to the AVX-VNNI tier (its integer GEMMs run
    /// the `vpdpbusd` tile, its f32 GEMMs AVX2's).
    GemmIsaVnni,
    /// Prepacked-weight cache lookups that found a ready entry.
    PackCacheHits,
    /// Prepacked-weight cache lookups that had to build an entry.
    PackCacheMisses,
    /// Bytes resident in prepacked-weight cache entries (built, not
    /// evicted — the cache only grows until invalidated).
    PackCacheBytes,
    /// Decode passes executed (a fused multi-session step counts once).
    DecodeSteps,
    /// Tokens produced by decode passes (prefill prompt tokens plus one
    /// per session per step).
    DecodeTokens,
    /// Bytes written into decode sessions' K/V caches (monotonic, like
    /// every counter here: growth since process start, not residency).
    KvCacheBytes,
    /// Faults fired by the serve tier's seeded fault-injection
    /// framework (`flexiq-serve::fault`). Zero unless chaos testing.
    FaultsInjected,
    /// Serve worker threads respawned by the supervisor after a death.
    WorkerRespawns,
    /// Decode scheduler restarts after a caught panic.
    SchedulerRespawns,
    /// Spans lost to ring exhaustion.
    SpansDropped,
}

const N_COUNTERS: usize = Counter::SpansDropped as usize + 1;

static COUNTERS: [AtomicU64; N_COUNTERS] = [const { AtomicU64::new(0) }; N_COUNTERS];

/// Adds `n` to a global counter (relaxed; never allocates).
#[inline]
pub fn count(c: Counter, n: u64) {
    COUNTERS[c as usize].fetch_add(n, Ordering::Relaxed);
}

/// Point-in-time copy of every global counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CountersSnapshot {
    pub ws_buf_growth: u64,
    pub scratch_takes: u64,
    pub scratch_puts: u64,
    pub pool_tasks: u64,
    pub pool_busy_ns: u64,
    pub pool_idle_ns: u64,
    pub gemm_calls: u64,
    pub gemm_madds: u64,
    pub gemm_packed_bytes: u64,
    pub gemm_isa_avx2: u64,
    pub gemm_isa_scalar: u64,
    pub gemm_isa_vnni: u64,
    pub pack_cache_hits: u64,
    pub pack_cache_misses: u64,
    pub pack_cache_bytes: u64,
    pub decode_steps: u64,
    pub decode_tokens: u64,
    pub kv_cache_bytes: u64,
    pub faults_injected: u64,
    pub worker_respawns: u64,
    pub scheduler_respawns: u64,
    pub spans_dropped: u64,
}

/// Snapshots the global counters.
pub fn counters() -> CountersSnapshot {
    let get = |c: Counter| COUNTERS[c as usize].load(Ordering::Relaxed);
    CountersSnapshot {
        ws_buf_growth: get(Counter::WsBufGrowth),
        scratch_takes: get(Counter::ScratchTake),
        scratch_puts: get(Counter::ScratchPut),
        pool_tasks: get(Counter::PoolTasks),
        pool_busy_ns: get(Counter::PoolBusyNs),
        pool_idle_ns: get(Counter::PoolIdleNs),
        gemm_calls: get(Counter::GemmCalls),
        gemm_madds: get(Counter::GemmMadds),
        gemm_packed_bytes: get(Counter::GemmPackedBytes),
        gemm_isa_avx2: get(Counter::GemmIsaAvx2),
        gemm_isa_scalar: get(Counter::GemmIsaScalar),
        gemm_isa_vnni: get(Counter::GemmIsaVnni),
        pack_cache_hits: get(Counter::PackCacheHits),
        pack_cache_misses: get(Counter::PackCacheMisses),
        pack_cache_bytes: get(Counter::PackCacheBytes),
        decode_steps: get(Counter::DecodeSteps),
        decode_tokens: get(Counter::DecodeTokens),
        kv_cache_bytes: get(Counter::KvCacheBytes),
        faults_injected: get(Counter::FaultsInjected),
        worker_respawns: get(Counter::WorkerRespawns),
        scheduler_respawns: get(Counter::SchedulerRespawns),
        spans_dropped: get(Counter::SpansDropped),
    }
}

/// Zeroes every global counter.
pub fn reset_counters() {
    for c in COUNTERS.iter() {
        c.store(0, Ordering::Relaxed);
    }
}

// ───────────────────────── aggregation ─────────────────────────

/// Aggregate of all spans sharing a name within one category.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanAgg {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub max_ns: u64,
}

/// Aggregates a drained snapshot by span name within `cat`, sorted by
/// total time descending, truncated to `n` rows. This is the "top-N
/// layer breakdown" the bench bins print.
pub fn top_spans(threads: &[ThreadSpans], cat: Cat, n: usize) -> Vec<SpanAgg> {
    let mut by_name: Vec<SpanAgg> = Vec::new();
    for t in threads {
        for s in &t.spans {
            if s.cat != cat {
                continue;
            }
            match by_name.iter_mut().find(|a| a.name == s.name) {
                Some(a) => {
                    a.count += 1;
                    a.total_ns += s.dur_ns;
                    a.max_ns = a.max_ns.max(s.dur_ns);
                }
                None => by_name.push(SpanAgg {
                    name: s.name,
                    count: 1,
                    total_ns: s.dur_ns,
                    max_ns: s.dur_ns,
                }),
            }
        }
    }
    by_name.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(b.name)));
    by_name.truncate(n);
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that toggle the global flag.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = lock();
        set_enabled(false);
        reset();
        {
            let _s = span("noop", Cat::Node);
            event("marker", Cat::Serve, 1, [0; 4]);
        }
        assert!(drain().iter().all(|t| t.spans.is_empty()));
    }

    #[test]
    fn enabled_records_nested_spans() {
        let _g = lock();
        set_enabled(true);
        reset();
        {
            let _a = span("outer", Cat::Node);
            std::hint::black_box(0u64);
            let _b = span("inner", Cat::Phase);
        }
        set_enabled(false);
        let mine: Vec<_> = drain()
            .into_iter()
            .filter(|t| t.spans.iter().any(|s| s.name == "outer"))
            .collect();
        assert_eq!(mine.len(), 1);
        let spans = &mine[0].spans;
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
    }

    #[test]
    fn with_trace_forces_recording_and_stamps_id() {
        let _g = lock();
        set_enabled(false);
        reset();
        with_trace(77, || {
            assert!(recording());
            let _s = span("sampled", Cat::Serve);
        });
        assert!(!recording());
        let all = drain();
        let s = all
            .iter()
            .flat_map(|t| t.spans.iter())
            .find(|s| s.name == "sampled")
            .unwrap();
        assert_eq!(s.trace_id, 77);
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let _g = lock();
        reset_counters();
        count(Counter::GemmCalls, 2);
        count(Counter::GemmMadds, 100);
        let c = counters();
        assert_eq!(c.gemm_calls, 2);
        assert_eq!(c.gemm_madds, 100);
        reset_counters();
        assert_eq!(counters().gemm_calls, 0);
    }

    #[test]
    fn top_spans_orders_by_total_time() {
        let threads = vec![ThreadSpans {
            tid: 1,
            thread: "t".into(),
            dropped: 0,
            spans: vec![
                SpanEvent {
                    name: "small",
                    dur_ns: 10,
                    ..SpanEvent::EMPTY
                },
                SpanEvent {
                    name: "big",
                    dur_ns: 100,
                    ..SpanEvent::EMPTY
                },
                SpanEvent {
                    name: "small",
                    dur_ns: 15,
                    ..SpanEvent::EMPTY
                },
            ],
        }];
        let top = top_spans(&threads, Cat::Node, 10);
        assert_eq!(top[0].name, "big");
        assert_eq!(top[1].name, "small");
        assert_eq!(top[1].count, 2);
        assert_eq!(top[1].total_ns, 25);
    }
}
