//! Telemetry span correctness on the real inference path (ISSUE 6).
//!
//! Pins the structural guarantees the Chrome-trace exporter and the
//! serve trace sampling rely on, over the **Int-mode** engine (the path
//! the server runs):
//!
//! 1. spans recorded on a thread are well-nested — any two either
//!    contain one another or are disjoint in time;
//! 2. one traced stacked pass records each evaluated graph node exactly
//!    once, and the node set is identical across passes;
//! 3. the quantized engine's per-GEMM events are present;
//! 4. traced and untraced passes produce bit-identical outputs;
//! 5. disabled telemetry records no spans at all;
//! 6. with telemetry off, a server sampling every request records its
//!    admit → dispatch → complete spans and its graph-node spans under
//!    the request's trace id, and a server sampling none records nothing.
//!
//! Telemetry state (the enabled flag, the span rings) is process-global,
//! so every test here serializes on the one fixture mutex, and all
//! inference runs inside an explicit 1-thread pool so spans land on the
//! measuring thread.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use flexiq::core::pipeline::{prepare, FlexiQConfig};
use flexiq::core::runtime::LEVEL_INT8;
use flexiq::core::selection::Strategy;
use flexiq::core::FlexiRuntime;
use flexiq::nn::data::gen_image_inputs;
use flexiq::nn::zoo::{ModelId, Scale};
use flexiq::parallel::ThreadPool;
use flexiq::serve::{ServeConfig, Server};
use flexiq::telemetry as tel;
use flexiq::tensor::Tensor;
use proptest::prelude::*;

type Fixture = (Arc<FlexiRuntime>, Vec<Tensor>);

/// The shared Int-mode fixture; the mutex also serializes the tests'
/// use of the process-global telemetry state.
fn fixture() -> MutexGuard<'static, Fixture> {
    static FIX: OnceLock<Mutex<Fixture>> = OnceLock::new();
    FIX.get_or_init(|| {
        let id = ModelId::RNet20;
        let graph = id.build(Scale::Test).unwrap();
        let calib = gen_image_inputs(6, &id.input_dims(Scale::Test), 0x7E57E1);
        let prepared = prepare(&graph, &calib, &FlexiQConfig::new(4, Strategy::Greedy)).unwrap();
        let inputs = gen_image_inputs(3, &id.input_dims(Scale::Test), 0x7E57E2);
        Mutex::new((Arc::new(prepared.runtime), inputs))
    })
    .lock()
    .unwrap_or_else(|e| e.into_inner())
}

/// Maps a raw draw onto `LEVEL_INT8` or a schedule level.
fn pick_level(rt: &FlexiRuntime, raw: usize) -> usize {
    match raw % (rt.num_levels() + 1) {
        0 => LEVEL_INT8,
        k => k - 1,
    }
}

/// Runs one stacked pass with span tracing on, returning the outputs
/// and the drained spans of exactly that pass.
fn traced_pass(rt: &FlexiRuntime, inputs: &[Tensor]) -> (Vec<Tensor>, Vec<tel::ThreadSpans>) {
    let pool = ThreadPool::new(1);
    tel::set_enabled(true);
    tel::reset();
    let ys = flexiq::parallel::with_pool(&pool, || rt.infer_batch(inputs).unwrap());
    let threads = tel::drain();
    tel::set_enabled(false);
    (ys, threads)
}

/// Any two spans on one thread must contain one another or be disjoint
/// — partial overlap would mean a span outlived its parent.
fn assert_well_nested(threads: &[tel::ThreadSpans]) {
    for t in threads {
        for (i, a) in t.spans.iter().enumerate() {
            let (a0, a1) = (a.start_ns, a.start_ns + a.dur_ns);
            for b in &t.spans[i + 1..] {
                let (b0, b1) = (b.start_ns, b.start_ns + b.dur_ns);
                let disjoint = a1 <= b0 || b1 <= a0;
                let contained = (a0 <= b0 && b1 <= a1) || (b0 <= a0 && a1 <= b1);
                prop_assert!(
                    disjoint || contained,
                    "spans {:?}@[{a0},{a1}) and {:?}@[{b0},{b1}) partially overlap",
                    a.name,
                    b.name
                );
            }
        }
    }
}

/// The graph-node ids of every `Node` span, asserting each occurs
/// exactly once.
fn node_census(threads: &[tel::ThreadSpans]) -> BTreeSet<u32> {
    let ids: Vec<u32> = threads
        .iter()
        .flat_map(|t| t.spans.iter())
        .filter(|e| e.cat == tel::Cat::Node)
        .map(|e| e.id)
        .collect();
    let set: BTreeSet<u32> = ids.iter().copied().collect();
    prop_assert!(!ids.is_empty(), "a traced pass must record node spans");
    prop_assert_eq!(
        ids.len(),
        set.len(),
        "a graph node was recorded more than once in one pass"
    );
    set
}

proptest! {
    /// One traced stacked pass: well-nested spans, every graph node
    /// exactly once (and the same node set on a second pass), per-GEMM
    /// events present, and outputs bit-identical with tracing off.
    #[test]
    fn traced_pass_is_well_formed_and_bit_exact(n in 1usize..=3, raw_level in 0usize..16) {
        let guard = fixture();
        let (rt, inputs) = &*guard;
        rt.set_level(pick_level(rt, raw_level)).unwrap();
        let inputs = &inputs[..n];

        tel::set_enabled(false);
        let pool = ThreadPool::new(1);
        let untraced = flexiq::parallel::with_pool(&pool, || rt.infer_batch(inputs).unwrap());

        let (traced, threads) = traced_pass(rt, inputs);
        prop_assert_eq!(traced.len(), untraced.len());
        for (a, b) in traced.iter().zip(untraced.iter()) {
            prop_assert_eq!(a.dims(), b.dims());
            for (x, y) in a.data().iter().zip(b.data().iter()) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "tracing changed the output");
            }
        }

        assert_well_nested(&threads);
        let nodes = node_census(&threads);
        let gemms = threads
            .iter()
            .flat_map(|t| t.spans.iter())
            .filter(|e| e.cat == tel::Cat::Gemm)
            .count();
        prop_assert!(gemms > 0, "Int-mode pass must record per-GEMM events");

        // A second identical pass evaluates exactly the same node set.
        let (_, threads2) = traced_pass(rt, inputs);
        let nodes2 = node_census(&threads2);
        prop_assert_eq!(nodes, nodes2, "node census drifted between passes");
    }
}

#[test]
fn disabled_telemetry_records_nothing() {
    let guard = fixture();
    let (rt, inputs) = &*guard;
    rt.set_level(LEVEL_INT8).unwrap();
    tel::set_enabled(false);
    tel::reset();
    let pool = ThreadPool::new(1);
    let _ = flexiq::parallel::with_pool(&pool, || rt.infer_batch(&inputs[..2]).unwrap());
    let recorded: usize = tel::drain().iter().map(|t| t.spans.len()).sum();
    assert_eq!(recorded, 0, "disabled telemetry must record no spans");
}

/// Serves one request on a fixed-level server sampling at `rate`, with
/// global telemetry off, and returns the trace id the request would
/// carry if sampled plus every span recorded meanwhile.
fn served_spans(rt: &Arc<FlexiRuntime>, input: &Tensor, rate: f64) -> (u64, Vec<tel::SpanEvent>) {
    rt.set_level(LEVEL_INT8).unwrap();
    tel::set_enabled(false);
    tel::reset();
    let cfg = ServeConfig {
        workers: 1,
        pool_threads: Some(1),
        trace_sample_rate: rate,
        ..Default::default()
    };
    let server = Server::start_fixed(Arc::clone(rt), cfg).unwrap();
    let resp = server.submit(input.clone()).unwrap().wait().unwrap();
    server.shutdown();
    let spans = tel::drain().into_iter().flat_map(|t| t.spans).collect();
    (resp.id + 1, spans)
}

#[test]
fn sampled_request_is_traced_end_to_end() {
    let guard = fixture();
    let (rt, inputs) = &*guard;
    let (trace, spans) = served_spans(rt, &inputs[0], 1.0);
    for e in &spans {
        assert_eq!(
            e.trace_id, trace,
            "span {:?} lost the request's trace id",
            e.name
        );
    }
    let serve: BTreeSet<&str> = spans
        .iter()
        .filter(|e| e.cat == tel::Cat::Serve)
        .map(|e| e.name)
        .collect();
    assert_eq!(serve, BTreeSet::from(["admit", "complete", "dispatch"]));
    assert!(
        spans.iter().any(|e| e.cat == tel::Cat::Node),
        "a sampled request must record its graph-node spans"
    );

    let (_, spans) = served_spans(rt, &inputs[0], 0.0);
    assert!(
        spans.is_empty(),
        "an unsampled request recorded {} spans",
        spans.len()
    );
}
