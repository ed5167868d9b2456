//! Steady-state allocation behavior of the inference hot path (ISSUE 5).
//!
//! A counting global allocator (per-thread counters, so the parallel
//! test harness cannot pollute a measurement) pins the two workspace
//! properties the kernel rewrite introduced:
//!
//! 1. a warmed blocked GEMM performs **zero** heap allocations — its
//!    packing panels come from the thread's scratch pool;
//! 2. repeated `FlexiRuntime::infer` calls reach a steady state: after
//!    warm-up, per-call allocation counts stop changing (the per-group
//!    scratch that used to be `vec![0; …]`-ed per layer per call now
//!    lives in the per-thread `Workspace`), and the engine's workspace
//!    reports zero buffer growth.
//!
//! Most tests run inside an explicit 1-thread pool so all work (and so
//! all counted allocation) happens on the measuring thread. The parallel
//! conv-group test instead flips the allocator into a **global** counting
//! mode (every thread, one atomic) and pins the fan-out path itself:
//! once warmed, a 2-thread grouped-conv batch pass must allocate exactly
//! as much as the serial pass — i.e. the parallel dispatch (job headers,
//! band ranges, per-thread workspaces, accumulator slabs) adds zero heap
//! traffic. Tests serialize on a file-wide mutex so the global counter
//! never sees a neighbor's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use flexiq::core::pipeline::{prepare, FlexiQConfig};
use flexiq::core::runtime::LEVEL_INT8;
use flexiq::core::selection::Strategy;
use flexiq::nn::data::gen_image_inputs;
use flexiq::nn::zoo::{ModelId, Scale};
use flexiq::parallel::ThreadPool;
use flexiq::tensor::gemm;
use flexiq::tensor::rng::seeded;
use rand::Rng;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// All-thread allocation counter, active only while a test that needs
/// cross-thread visibility (the parallel fan-out) enables it.
static GLOBAL_COUNT_ON: AtomicBool = AtomicBool::new(false);
static GLOBAL_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Serializes the tests in this binary: the global counter sees every
/// thread, so concurrent tests would pollute each other's measurements.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// System allocator wrapper counting allocations on the calling thread
/// (always) and, when enabled, process-wide.
struct CountingAlloc;

// SAFETY: delegates to `System`; the counters are a const-initialized
// thread-local `Cell` and static atomics, which allocate nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        if GLOBAL_COUNT_ON.load(Ordering::Relaxed) {
            GLOBAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        if GLOBAL_COUNT_ON.load(Ordering::Relaxed) {
            GLOBAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations on this thread while running `f`.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (ALLOCS.with(Cell::get) - before, r)
}

/// Allocations on **every** thread while running `f`.
fn count_global_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    GLOBAL_ALLOCS.store(0, Ordering::SeqCst);
    GLOBAL_COUNT_ON.store(true, Ordering::SeqCst);
    let r = f();
    GLOBAL_COUNT_ON.store(false, Ordering::SeqCst);
    (GLOBAL_ALLOCS.load(Ordering::SeqCst), r)
}

#[test]
fn warmed_blocked_gemm_allocates_nothing() {
    let _serial = serial();
    // Big enough that the packed/blocked path engages for both dtypes.
    let (m, n, k) = (64usize, 256usize, 192usize);
    let mut rng = seeded(0xA110C);
    let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let ai: Vec<i8> = (0..m * k)
        .map(|_| rng.gen_range(-128i16..=127) as i8)
        .collect();
    let bi: Vec<i8> = (0..k * n)
        .map(|_| rng.gen_range(-128i16..=127) as i8)
        .collect();
    let mut c = vec![0.0f32; m * n];
    let mut ci = vec![0i32; m * n];
    let pool = ThreadPool::new(1);
    flexiq::parallel::with_pool(&pool, || {
        // Warm-up grows the thread's pack-panel scratch.
        gemm::gemm_f32(m, n, k, &a, &b, &mut c);
        gemm::gemm_i8(m, n, k, &ai, &bi, &mut ci);
        c.fill(0.0);
        ci.fill(0);
        let (allocs, ()) = count_allocs(|| {
            gemm::gemm_f32(m, n, k, &a, &b, &mut c);
            gemm::gemm_i8(m, n, k, &ai, &bi, &mut ci);
        });
        assert_eq!(allocs, 0, "warmed blocked GEMMs must not allocate");
    });
    std::hint::black_box((&c, &ci));
}

/// Builds a small Int-mode runtime (the real integer arithmetic path —
/// the one the zero-allocation criterion targets).
fn int_runtime() -> (flexiq::core::FlexiRuntime, Vec<flexiq::tensor::Tensor>) {
    let id = ModelId::RNet20;
    let graph = id.build(Scale::Test).unwrap();
    let calib = gen_image_inputs(6, &id.input_dims(Scale::Test), 0xA110C2);
    let prepared = prepare(&graph, &calib, &FlexiQConfig::new(4, Strategy::Greedy)).unwrap();
    let inputs = gen_image_inputs(4, &id.input_dims(Scale::Test), 0xA110C3);
    (prepared.runtime, inputs)
}

#[test]
fn infer_reaches_allocation_steady_state() {
    let _serial = serial();
    let (rt, inputs) = int_runtime();
    let pool = ThreadPool::new(1);
    flexiq::parallel::with_pool(&pool, || {
        for (nth, level) in [LEVEL_INT8, rt.num_levels() - 1].into_iter().enumerate() {
            rt.set_level(level).unwrap();
            // First pass grows the workspace; second settles scratch pools.
            let (first, _) = count_allocs(|| rt.infer(&inputs[0]).unwrap());
            let _ = rt.infer(&inputs[0]).unwrap();
            let (a3, _) = count_allocs(|| rt.infer(&inputs[0]).unwrap());
            let (a4, _) = count_allocs(|| rt.infer(&inputs[0]).unwrap());
            // Steady state: per-call allocations stop changing, and the
            // warmed calls allocate strictly less than the cold one (the
            // workspace, pack scratch and weight cache no longer churn).
            // The second level may find nothing left to warm: a 4-bit
            // band needs no buffer an 8-bit band does not, and cached
            // weights are level-independent.
            assert_eq!(a3, a4, "level {level}: allocation count still drifting");
            assert!(
                a3 <= first && (nth > 0 || a3 < first),
                "level {level}: steady state ({a3}) not below cold start ({first})"
            );
        }
    });
}

#[test]
fn steady_state_workspace_never_regrows() {
    let _serial = serial();
    let (rt, inputs) = int_runtime();
    let pool = ThreadPool::new(1);
    flexiq::parallel::with_pool(&pool, || {
        rt.set_level(LEVEL_INT8).unwrap();
        // Warm the thread's parked workspace across both batch shapes.
        let _ = rt.infer(&inputs[0]).unwrap();
        let _ = rt.infer_batch(&inputs[..2]).unwrap();
        let mut ws = flexiq::nn::workspace::take();
        ws.reset_growth();
        flexiq::nn::workspace::put(ws);
        let _ = rt.infer(&inputs[0]).unwrap();
        let _ = rt.infer_batch(&inputs[..2]).unwrap();
        let ws = flexiq::nn::workspace::take();
        assert_eq!(
            ws.growth_events(),
            0,
            "steady-state passes must reuse the warmed workspace buffers"
        );
        flexiq::nn::workspace::put(ws);
    });
}

#[test]
fn disabled_telemetry_adds_no_spans_or_allocations() {
    let _serial = serial();
    let (rt, inputs) = int_runtime();
    let pool = ThreadPool::new(1);
    flexiq::parallel::with_pool(&pool, || {
        flexiq::telemetry::set_enabled(false);
        rt.set_level(rt.num_levels() - 1).unwrap();
        // Warm to steady state.
        let _ = rt.infer(&inputs[0]).unwrap();
        let _ = rt.infer(&inputs[0]).unwrap();
        let (steady, _) = count_allocs(|| rt.infer(&inputs[0]).unwrap());
        // With telemetry disabled the instrumented hot path must cost
        // nothing on the allocator (the kernel counters are static
        // atomics; span rings are only created on a recorded span)...
        flexiq::telemetry::reset();
        let (with_tel, _) = count_allocs(|| rt.infer(&inputs[0]).unwrap());
        assert_eq!(
            with_tel, steady,
            "disabled telemetry changed the hot path's allocation count"
        );
        // ...and must record no spans at all.
        let spans: usize = flexiq::telemetry::drain()
            .iter()
            .map(|t| t.spans.len())
            .sum();
        assert_eq!(spans, 0, "disabled telemetry must record no spans");
    });
}

#[test]
fn batched_infer_reaches_allocation_steady_state() {
    let _serial = serial();
    let (rt, inputs) = int_runtime();
    let pool = ThreadPool::new(1);
    flexiq::parallel::with_pool(&pool, || {
        rt.set_level(rt.num_levels() - 1).unwrap();
        let _ = rt.infer_batch(&inputs).unwrap();
        let _ = rt.infer_batch(&inputs).unwrap();
        let (a3, _) = count_allocs(|| rt.infer_batch(&inputs).unwrap());
        let (a4, _) = count_allocs(|| rt.infer_batch(&inputs).unwrap());
        assert_eq!(a3, a4, "batched allocation count still drifting");
    });
}

#[test]
fn warm_pack_cache_adds_zero_allocations_across_level_flips() {
    let _serial = serial();
    let (rt, inputs) = int_runtime();
    // Eagerly build every cached weight band up front, so no inference
    // below ever pays a lazy cache population.
    rt.prewarm_levels().unwrap();
    let pool = ThreadPool::new(1);
    flexiq::parallel::with_pool(&pool, || {
        let levels = [LEVEL_INT8, 0, rt.num_levels() - 1];
        // Reach allocation steady state at each level (workspace and
        // scratch pools warm on the first passes).
        let mut steady = [0u64; 3];
        for (i, &level) in levels.iter().enumerate() {
            rt.set_level(level).unwrap();
            let _ = rt.infer(&inputs[0]).unwrap();
            let _ = rt.infer(&inputs[0]).unwrap();
            let (a, _) = count_allocs(|| rt.infer(&inputs[0]).unwrap());
            steady[i] = a;
        }
        // Flipping between warmed levels costs exactly each level's
        // steady count: a cache lookup is an `Arc` clone under a read
        // lock — no packing, no lowering, no heap traffic.
        let before = flexiq::telemetry::counters();
        for round in 0..2 {
            for (i, &level) in levels.iter().enumerate() {
                rt.set_level(level).unwrap();
                let (a, _) = count_allocs(|| rt.infer(&inputs[0]).unwrap());
                assert_eq!(
                    a, steady[i],
                    "round {round} level {level}: flip changed the steady allocation count"
                );
            }
        }
        let after = flexiq::telemetry::counters();
        assert!(
            after.pack_cache_hits > before.pack_cache_hits,
            "warm passes must serve from the prepacked-weight cache"
        );
        assert_eq!(
            after.pack_cache_misses, before.pack_cache_misses,
            "a prewarmed cache must never miss on a level flip"
        );
    });
}

/// Builds an Int-mode runtime over a **grouped-conv** model (MobileNetV2:
/// depthwise layers, `groups == c_in`): many small per-group GEMMs
/// beside the pointwise ones large enough to split into row bands.
fn grouped_int_runtime() -> (flexiq::core::FlexiRuntime, Vec<flexiq::tensor::Tensor>) {
    let id = ModelId::MNetV2;
    let graph = id.build(Scale::Test).unwrap();
    let calib = gen_image_inputs(6, &id.input_dims(Scale::Test), 0xA110C4);
    let prepared = prepare(&graph, &calib, &FlexiQConfig::new(4, Strategy::Greedy)).unwrap();
    let inputs = gen_image_inputs(4, &id.input_dims(Scale::Test), 0xA110C5);
    (prepared.runtime, inputs)
}

#[test]
fn parallel_grouped_conv_allocates_exactly_like_serial() {
    let _serial = serial();
    let (rt, inputs) = grouped_int_runtime();
    rt.set_level(LEVEL_INT8).unwrap();
    // Serial baseline: steady-state allocations of a grouped batch pass
    // on a 1-thread pool, counted across all threads (only this one
    // works).
    let serial_pool = ThreadPool::new(1);
    let serial_steady = flexiq::parallel::with_pool(&serial_pool, || {
        let _ = rt.infer_batch(&inputs[..2]).unwrap();
        let _ = rt.infer_batch(&inputs[..2]).unwrap();
        let (a, _) = count_global_allocs(|| rt.infer_batch(&inputs[..2]).unwrap());
        let (b, _) = count_global_allocs(|| rt.infer_batch(&inputs[..2]).unwrap());
        assert_eq!(a, b, "serial grouped steady state still drifting");
        a
    });
    // Parallel: same model and batch on a 2-thread pool — the GEMMs
    // large enough to split run their row bands on both threads. Task
    // claiming is racy, so the helper's packing-scratch warm-up can
    // straggle across the first few passes; the invariant is that the
    // count **converges to exactly the serial count** — the row-band
    // fan-out itself (job dispatch, band ranges, per-thread packing
    // scratch) adds zero heap allocations once warm.
    let pool = ThreadPool::new(2);
    flexiq::parallel::with_pool(&pool, || {
        let _ = rt.infer_batch(&inputs[..2]).unwrap();
        let _ = rt.infer_batch(&inputs[..2]).unwrap();
        let mut last = u64::MAX;
        for _ in 0..10 {
            let (a, _) = count_global_allocs(|| rt.infer_batch(&inputs[..2]).unwrap());
            last = a;
            if a == serial_steady {
                break;
            }
        }
        assert_eq!(
            last, serial_steady,
            "parallel grouped-conv pass must allocate exactly the serial amount"
        );
    });
}
