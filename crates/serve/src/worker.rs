//! The worker pool: real `FlexiRuntime` execution of dispatched batches.
//!
//! Each worker thread owns nothing but an `Arc` of the shared runtime —
//! the paper's point is precisely that one set of 8-bit master weights
//! serves every ratio, so workers never copy weights. Workers (the body
//! [`crate::Server`] hands the serving core) assemble their own batches
//! straight from the admission queue (see
//! [`crate::queue::AdmissionQueue::pop_batch`]), which lets batch
//! assembly overlap with execution across workers without a dedicated
//! batcher thread in the hot path.
//!
//! **Batch execution model:** a dispatched batch runs as **one stacked
//! `[N, …]` forward pass** through the graph executor
//! (`FlexiRuntime::infer_batch_traced`): deadline-expired requests are
//! filtered out first, the survivors are stacked, each stack executes a
//! single batched pass (activations quantized and per-layer bit-lowering
//! applied once per layer per batch), and results fan back out to their
//! reply channels. Each stacked pass runs at one ratio level (read once
//! at dispatch), so the reported level is authoritative per dispatch
//! even while the controller is switching. `batch_timeout` is therefore
//! a genuine throughput/latency knob: a longer wait buys larger stacked
//! GEMMs, not just amortized dispatch.
//!
//! **Variable-length LM dispatch:** token-sequence requests (rank-1 id
//! inputs) of *different* lengths are not split into exact-shape
//! groups, which would collapse batching under real LM traffic: they
//! are planned into power-of-two length buckets ([`crate::bucket`]),
//! padded, and executed as masked stacked passes via
//! [`FlexiRuntime::infer_batch_varlen_traced`] — one pass per bucket
//! group, regardless of how many distinct lengths it contains. The mask
//! invariant guarantees every response is bit-exact with unpadded
//! inference, so bucketing only buys throughput; the
//! `MAX_PADDING_WASTE` cap bounds how much padded compute a merged group
//! may carry. Non-token inputs (CNN/ViT images)
//! keep the exact-shape grouping.
//!
//! **Intra-batch parallelism:** every worker installs the server's one
//! shared [`flexiq_parallel::ThreadPool`] around its dispatch, so the
//! large GEMMs of a stacked pass split their output row bands across
//! `pool_threads` threads — the pass's only fan-out. Workers submitting
//! concurrently share the same pool (the pool never runs more than its
//! size in tasks at once), which is how worker-level and intra-batch
//! parallelism compose without oversubscription — see
//! [`crate::ServeConfig::pool_threads`] for the sizing rule.
//!
//! **Panic isolation:** every stacked pass runs inside
//! `catch_unwind`, so a panicking model pass (a kernel bug, or an
//! injected [`crate::fault::FaultSite::WorkerPanic`]) answers its batch
//! with a typed [`ServeError::WorkerPanic`] instead of killing the
//! worker — sibling batches, the shared pool, and the thread itself all
//! survive. A panic that escapes the pass boundary (notably the
//! injected [`crate::fault::FaultSite::WorkerDeath`] site, which fires
//! outside the catch on purpose) kills the worker thread; its in-hand
//! batch resolves through dropped reply channels
//! ([`ServeError::ReplyDropped`]) and the serving core's supervisor
//! respawns the thread. Either way no ticket is left hanging.
//!
//! **Steady-state allocation:** worker threads are long-lived, so the
//! per-thread scratch the execution stack uses underneath — the
//! quantized engines' `flexiq_nn::workspace::Workspace` and the blocked
//! GEMM kernels' packing pools — warms up on a worker's first dispatch
//! and is reused for every dispatch after it. Under sustained load the
//! linear/conv hot path stops touching the allocator entirely (the
//! scratch grows to the largest dispatched shape and stays).

use std::sync::mpsc;
use std::time::Instant;

use flexiq_core::FlexiRuntime;
use flexiq_telemetry as tel;

use crate::bucket::plan_buckets;
use crate::error::{Result, ServeError};
use crate::fault::{self, FaultSite};
use crate::metrics::MetricsHub;
use crate::request::{InferResponse, QueuedRequest, RequestId};

/// Padding-waste cap for bucket merging: underfilled length buckets
/// merge into the next larger one while the merged group's fraction of
/// padded positions stays at or below this (see
/// [`crate::bucket::plan_buckets`]) — i.e. while the group still
/// computes more real than pad positions.
const MAX_PADDING_WASTE: f64 = 0.5;
const _: () = assert!(0.0 <= MAX_PADDING_WASTE && MAX_PADDING_WASTE < 1.0);

type ReplyMeta = (RequestId, Instant, mpsc::Sender<Result<InferResponse>>);

/// Fans one stacked pass's outcome back to its requests' reply channels.
///
/// Send failures (caller dropped its ticket) are ignored: the work is
/// already done and the caller opted out of the answer.
fn answer(
    metrics: &MetricsHub,
    size: usize,
    dispatched: Instant,
    metas: Vec<ReplyMeta>,
    result: Result<(Vec<flexiq_tensor::Tensor>, usize)>,
) {
    match result {
        Ok((outputs, level)) => {
            let done = Instant::now();
            for ((id, enqueued_at, reply), output) in metas.into_iter().zip(outputs) {
                let queue_delay = dispatched.duration_since(enqueued_at);
                let latency = done.duration_since(enqueued_at);
                metrics.on_completed(done, latency, queue_delay);
                tel::event(
                    "complete",
                    tel::Cat::Serve,
                    id as u32,
                    [level as u64, size as u64, latency.as_nanos() as u64, 0],
                );
                let _ = reply.send(Ok(InferResponse {
                    id,
                    output,
                    level,
                    batch_size: size,
                    queue_delay,
                    latency,
                }));
            }
        }
        Err(e) => {
            for (_, _, reply) in metas {
                metrics.on_exec_failed();
                let _ = reply.send(Err(e.clone()));
            }
        }
    }
}

/// Renders a caught panic payload as text (best effort).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one stacked pass inside the worker's panic-isolation boundary.
///
/// A panicking pass (kernel bug or injected fault) is caught here and
/// converted into a typed [`ServeError::WorkerPanic`] so [`answer`] can
/// resolve every ticket of the batch — the no-hung-ticket invariant's
/// per-pass leg. `AssertUnwindSafe` is sound at this boundary: the
/// runtime's mutable per-pass state is thread-local kernel scratch that
/// is re-initialized from shapes on the next dispatch, and the shared
/// pool already contains task panics (a poisoned job resumes its
/// payload on the submitting thread — right here). The injected
/// [`FaultSite::SlowPass`] / [`FaultSite::WorkerPanic`] sites fire
/// inside the catch region, before the model pass.
fn guarded_pass(
    metrics: &MetricsHub,
    f: impl FnOnce() -> flexiq_core::Result<(Vec<flexiq_tensor::Tensor>, usize)>,
) -> Result<(Vec<flexiq_tensor::Tensor>, usize)> {
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        fault::fire(FaultSite::SlowPass);
        fault::fire(FaultSite::WorkerPanic);
        f()
    }));
    match caught {
        Ok(r) => r.map_err(ServeError::Nn),
        Err(payload) => {
            metrics.on_worker_panic();
            Err(ServeError::WorkerPanic {
                message: panic_message(payload.as_ref()),
            })
        }
    }
}

/// Executes one dispatched batch on `runtime` as stacked forward passes,
/// answering every request.
///
/// Expired requests are answered with [`ServeError::DeadlineExpired`]
/// and counted — never silently dropped — and are filtered out *before*
/// stacking, so they cost no model time — and so are requests whose
/// input holds a non-finite value ([`ServeError::PoisonedInput`]).
/// Token-sequence requests are dispatched through the length-bucketed
/// padded path; everything else is grouped by exact input shape, one
/// stacked pass per shape class. Every stacked pass reads the ratio
/// level once, so each response's reported level is authoritative.
pub fn run_batch(runtime: &FlexiRuntime, metrics: &MetricsHub, batch: Vec<QueuedRequest>) {
    let size = batch.len();
    metrics.on_batch(size);
    let dispatched = Instant::now();
    let mut live: Vec<QueuedRequest> = Vec::with_capacity(size);
    // Stacked passes share activation-quantization statistics, so one
    // NaN/Inf sample would corrupt every co-batched output: reject
    // poisoned inputs with a typed answer before stacking (the scan is
    // one pass over the input — noise next to the model pass).
    for req in batch {
        if req.expired(dispatched) {
            metrics.on_expired();
            let _ = req.reply.send(Err(ServeError::DeadlineExpired));
        } else if !req.input.data().iter().all(|v| v.is_finite()) {
            metrics.on_poisoned();
            let _ = req.reply.send(Err(ServeError::PoisonedInput));
        } else {
            live.push(req);
        }
    }
    // Every request can expire before dispatch (a stalled queue, a tight
    // deadline): the drafted batch is then empty and there is nothing to
    // stack — skip the pass entirely instead of walking the dispatch path
    // with a zero-row batch.
    if live.is_empty() {
        return;
    }
    // A batch carrying any sampled request is traced end to end; the
    // first sampled member's id names the trace (spans record even when
    // global telemetry is off).
    let trace = live.iter().map(|r| r.trace).find(|&t| t != 0).unwrap_or(0);
    tel::with_trace(trace, || {
        run_batch_traced(runtime, metrics, live, size, dispatched)
    });
}

/// The traced body of [`run_batch`]: bucket planning plus every stacked
/// pass of one dispatched batch, executed under the batch's trace id.
fn run_batch_traced(
    runtime: &FlexiRuntime,
    metrics: &MetricsHub,
    mut live: Vec<QueuedRequest>,
    size: usize,
    dispatched: Instant,
) {
    // One stacked pass for `group`, answering every member. `pad` marks
    // a bucket group: `Some(len)` runs the masked varlen pass padded to
    // `len`, `None` the exact-shape pass.
    let dispatch = |group: Vec<QueuedRequest>, pad: Option<usize>| {
        // Move the inputs out of the requests (no clone on the hot
        // path); the stack inside the runtime is the copy.
        let (inputs, metas): (Vec<_>, Vec<ReplyMeta>) = group
            .into_iter()
            .map(|r| (r.input, (r.id, r.enqueued_at, r.reply)))
            .unzip();
        let dispatch_span = tel::span_full(
            "dispatch",
            tel::Cat::Serve,
            metas.len() as u32,
            [
                size as u64,
                pad.unwrap_or(0) as u64,
                pad.is_some() as u64,
                0,
            ],
        );
        let result = guarded_pass(metrics, || match pad {
            Some(_) => runtime.infer_batch_varlen_traced(&inputs, pad),
            None => runtime.infer_batch_traced(&inputs),
        });
        drop(dispatch_span);
        if result.is_err() && pad.is_some() && metas.len() > 1 {
            // Bucketing widens a group beyond one exact shape, so one
            // malformed request (empty ids, out-of-vocab token) must
            // not poison its co-bucketed neighbours: retry each member
            // alone, isolating the failure exactly as per-shape grouping
            // does. Error path only — a healthy dispatch never pays this.
            for (input, meta) in inputs.into_iter().zip(metas) {
                let single = guarded_pass(metrics, || {
                    runtime.infer_batch_varlen_traced(std::slice::from_ref(&input), None)
                });
                answer(metrics, size, dispatched, vec![meta], single);
            }
        } else {
            answer(metrics, size, dispatched, metas, result);
        }
    };
    // Token-sequence (LM) requests: one padded stacked pass per bucket
    // group, mixed lengths welcome. Groups pad tightly — to the longest
    // member, not the power-of-two class — so uniform-length groups keep
    // the unpadded fast path.
    let tokens: Vec<QueuedRequest>;
    (tokens, live) = live.into_iter().partition(|r| r.input.dims().len() == 1);
    if !tokens.is_empty() {
        let lens: Vec<usize> = tokens.iter().map(|r| r.input.numel()).collect();
        let mut slots: Vec<Option<QueuedRequest>> = tokens.into_iter().map(Some).collect();
        let plan_span = tel::span("bucket_plan", tel::Cat::Serve);
        let groups = plan_buckets(&lens, MAX_PADDING_WASTE);
        drop(plan_span);
        for group in groups {
            let members = group.members.iter().map(|&i| {
                slots[i]
                    .take()
                    .expect("request in exactly one bucket group")
            });
            dispatch(members.collect(), Some(group.pad_len(&lens)));
        }
    }
    // One stacked pass per input-shape class (normally exactly one).
    while !live.is_empty() {
        let dims = live[0].input.dims().to_vec();
        let group: Vec<QueuedRequest>;
        (group, live) = live.into_iter().partition(|r| r.input.dims() == dims);
        dispatch(group, None);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::request::Ticket;
    use flexiq_core::pipeline::{prepare, FlexiQConfig};
    use flexiq_core::selection::Strategy;
    use flexiq_nn::data::gen_image_inputs;
    use flexiq_nn::zoo::{ModelId, Scale};
    use std::sync::mpsc;
    use std::sync::Arc;
    use std::time::Duration;

    /// A tiny real runtime shared by the serving tests.
    pub(crate) fn tiny_runtime() -> (Arc<FlexiRuntime>, Vec<flexiq_tensor::Tensor>) {
        let id = ModelId::RNet20;
        let graph = id.build(Scale::Test).unwrap();
        let calib = gen_image_inputs(4, &id.input_dims(Scale::Test), 7101);
        let prepared = prepare(&graph, &calib, &FlexiQConfig::new(4, Strategy::Greedy)).unwrap();
        (Arc::new(prepared.runtime), calib)
    }

    /// A tiny LM runtime plus full-context calibration sequences.
    pub(crate) fn tiny_lm_runtime() -> (Arc<FlexiRuntime>, Vec<flexiq_tensor::Tensor>) {
        use flexiq_nn::data::{gen_token_stream, lm_sequences};
        use flexiq_nn::zoo::TinyLmCfg;
        let cfg = TinyLmCfg::at(Scale::Test);
        let graph = ModelId::TinyLm.build(Scale::Test).unwrap();
        let seqs = lm_sequences(
            &gen_token_stream(cfg.vocab, 8 * cfg.context, 7103),
            cfg.context,
        );
        let prepared =
            prepare(&graph, &seqs[..4], &FlexiQConfig::new(4, Strategy::Greedy)).unwrap();
        (Arc::new(prepared.runtime), seqs)
    }

    #[test]
    fn batch_execution_answers_every_request() {
        let (rt, inputs) = tiny_runtime();
        let metrics = MetricsHub::new(Duration::from_secs(1));
        let mut tickets = Vec::new();
        let mut batch = Vec::new();
        let now = Instant::now();
        for (i, x) in inputs.iter().enumerate().take(3) {
            let (tx, rx) = mpsc::channel();
            batch.push(QueuedRequest {
                id: i as u64,
                input: x.clone(),
                enqueued_at: now,
                // One request is already expired at dispatch.
                deadline: if i == 1 { Some(now) } else { None },
                trace: 0,
                reply: tx,
            });
            tickets.push(Ticket { id: i as u64, rx });
        }
        run_batch(&rt, &metrics, batch);
        let r0 = tickets.remove(0).wait().unwrap();
        assert_eq!(r0.batch_size, 3);
        assert!(r0.output.data().iter().all(|v| v.is_finite()));
        assert_eq!(
            tickets.remove(0).wait().unwrap_err(),
            ServeError::DeadlineExpired
        );
        assert!(tickets.remove(0).wait().is_ok());
        let s = metrics.snapshot();
        assert_eq!((s.completed, s.expired, s.batches), (2, 1, 1));
    }

    #[test]
    fn fully_expired_batch_skips_the_pass() {
        // When every drafted request has expired, the worker must answer
        // each with DeadlineExpired and dispatch nothing: no stacked pass,
        // no completion, no poisoned metrics.
        let (rt, inputs) = tiny_runtime();
        let metrics = MetricsHub::new(Duration::from_secs(1));
        let now = Instant::now();
        let mut tickets = Vec::new();
        let mut batch = Vec::new();
        for (i, x) in inputs.iter().enumerate().take(3) {
            let (tx, rx) = mpsc::channel();
            batch.push(QueuedRequest {
                id: i as u64,
                input: x.clone(),
                enqueued_at: now,
                deadline: Some(now), // expired before dispatch
                trace: 0,
                reply: tx,
            });
            tickets.push(Ticket { id: i as u64, rx });
        }
        run_batch(&rt, &metrics, batch);
        for t in tickets {
            assert_eq!(t.wait().unwrap_err(), ServeError::DeadlineExpired);
        }
        let s = metrics.snapshot();
        assert_eq!(
            (s.completed, s.expired, s.batches),
            (0, 3, 1),
            "expired-only batch must complete nothing"
        );
    }

    #[test]
    fn stacked_batch_matches_single_sample_inference() {
        // The dispatched batch must produce byte-identical outputs to
        // per-request `infer` calls at the same level.
        let (rt, inputs) = tiny_runtime();
        rt.set_level(0).unwrap();
        let metrics = MetricsHub::new(Duration::from_secs(1));
        let now = Instant::now();
        let mut tickets = Vec::new();
        let mut batch = Vec::new();
        for (i, x) in inputs.iter().enumerate() {
            let (tx, rx) = mpsc::channel();
            batch.push(QueuedRequest {
                id: i as u64,
                input: x.clone(),
                enqueued_at: now,
                deadline: None,
                trace: 0,
                reply: tx,
            });
            tickets.push(Ticket { id: i as u64, rx });
        }
        run_batch(&rt, &metrics, batch);
        for (i, (t, x)) in tickets.into_iter().zip(inputs.iter()).enumerate() {
            let resp = t.wait().unwrap();
            assert_eq!(resp.level, 0, "batch must report the dispatch level");
            let expect = rt.infer(x).unwrap();
            for (a, b) in resp.output.data().iter().zip(expect.data().iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "request {i} diverged");
            }
        }
    }

    #[test]
    fn pass_panic_is_isolated_into_a_typed_answer() {
        // A panicking model pass must not unwind past guarded_pass: the
        // batch answers with the typed WorkerPanic error, the panic is
        // counted, and the calling thread survives to run a real pass.
        let metrics = MetricsHub::new(Duration::from_secs(1));
        let r = guarded_pass(&metrics, || panic!("kernel exploded"));
        match r {
            Err(ServeError::WorkerPanic { message }) => {
                assert!(message.contains("kernel exploded"), "got: {message}")
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
        let s = metrics.snapshot();
        assert_eq!(s.worker_panics, 1);
        // The boundary is transparent for healthy and failing passes.
        assert!(guarded_pass(&metrics, || Ok((Vec::new(), 0))).is_ok());
        assert!(matches!(
            guarded_pass(&metrics, || Err(flexiq_nn::NnError::Invalid("x".into()))),
            Err(ServeError::Nn(_))
        ));
        // An answered Err is terminal: every meta is counted exec_failed
        // and the in-flight gauge returns to zero.
        let now = Instant::now();
        let (tx, rx) = mpsc::channel();
        metrics.on_batch(1);
        answer(
            &metrics,
            1,
            now,
            vec![(0, now, tx)],
            Err(ServeError::WorkerPanic {
                message: "boom".into(),
            }),
        );
        assert!(matches!(
            Ticket { id: 0, rx }.wait(),
            Err(ServeError::WorkerPanic { .. })
        ));
        let s = metrics.snapshot();
        assert_eq!(s.exec_failed, 1);
        assert_eq!(s.inflight, 0, "a panic-answered batch must deflate");
    }

    #[test]
    fn poisoned_input_is_rejected_and_siblings_stay_bit_exact() {
        // One NaN input in a stacked batch would corrupt the shared
        // activation statistics of every co-batched request: the
        // validator must answer it with PoisonedInput and run the
        // siblings bit-identical to a clean solo pass.
        let (rt, inputs) = tiny_runtime();
        rt.set_level(0).unwrap();
        let metrics = MetricsHub::new(Duration::from_secs(1));
        let now = Instant::now();
        let mut poisoned = inputs[1].clone();
        poisoned.data_mut()[3] = f32::NAN;
        let mk = |id: u64, input: flexiq_tensor::Tensor| {
            let (tx, rx) = mpsc::channel();
            (
                QueuedRequest {
                    id,
                    input,
                    enqueued_at: now,
                    deadline: None,
                    trace: 0,
                    reply: tx,
                },
                Ticket { id, rx },
            )
        };
        let (r0, t0) = mk(0, inputs[0].clone());
        let (r1, t1) = mk(1, poisoned);
        let (r2, t2) = mk(2, inputs[2].clone());
        run_batch(&rt, &metrics, vec![r0, r1, r2]);
        assert_eq!(t1.wait().unwrap_err(), ServeError::PoisonedInput);
        for (t, x) in [(t0, &inputs[0]), (t2, &inputs[2])] {
            let resp = t.wait().unwrap();
            let expect = rt.infer(x).unwrap();
            for (a, b) in resp.output.data().iter().zip(expect.data().iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "sibling diverged");
            }
        }
        let s = metrics.snapshot();
        assert_eq!((s.poisoned, s.completed), (1, 2));
        assert_eq!(s.inflight, 0, "poisoned answer must deflate in-flight");
    }

    #[test]
    fn mixed_shape_batch_splits_into_shape_groups() {
        // Requests with different input shapes in one dispatch each get a
        // stacked pass for their shape class; a shape the model rejects
        // answers with an error instead of poisoning the others.
        let (rt, inputs) = tiny_runtime();
        let metrics = MetricsHub::new(Duration::from_secs(1));
        let now = Instant::now();
        let mk = |id: u64, input: flexiq_tensor::Tensor| {
            let (tx, rx) = mpsc::channel();
            (
                QueuedRequest {
                    id,
                    input,
                    enqueued_at: now,
                    deadline: None,
                    trace: 0,
                    reply: tx,
                },
                Ticket { id, rx },
            )
        };
        let (r0, t0) = mk(0, inputs[0].clone());
        let (r1, t1) = mk(1, flexiq_tensor::Tensor::zeros([1, 2, 2]));
        let (r2, t2) = mk(2, inputs[1].clone());
        run_batch(&rt, &metrics, vec![r0, r1, r2]);
        assert!(t0.wait().is_ok());
        assert!(matches!(t1.wait().unwrap_err(), ServeError::Nn(_)));
        assert!(t2.wait().is_ok());
    }

    #[test]
    fn mixed_length_lm_batch_is_bucketed_and_bit_exact() {
        // A dispatch with many distinct sequence lengths must answer
        // every request with output byte-identical to unpadded
        // single-request inference — the bucketed padded path may change
        // the grouping, never the arithmetic.
        let (rt, seqs) = tiny_lm_runtime();
        rt.set_level(0).unwrap();
        let metrics = MetricsHub::new(Duration::from_secs(1));
        let now = Instant::now();
        let lens = [1usize, 3, 8, 5, 2, 8, 7];
        let inputs: Vec<flexiq_tensor::Tensor> = lens
            .iter()
            .enumerate()
            .map(|(i, &l)| seqs[i % seqs.len()].slice_axis0(l).unwrap())
            .collect();
        let mut tickets = Vec::new();
        let mut batch = Vec::new();
        for (i, x) in inputs.iter().enumerate() {
            let (tx, rx) = mpsc::channel();
            batch.push(QueuedRequest {
                id: i as u64,
                input: x.clone(),
                enqueued_at: now,
                deadline: None,
                trace: 0,
                reply: tx,
            });
            tickets.push(Ticket { id: i as u64, rx });
        }
        run_batch(&rt, &metrics, batch);
        for (i, (t, x)) in tickets.into_iter().zip(inputs.iter()).enumerate() {
            let resp = t.wait().unwrap();
            assert_eq!(resp.level, 0);
            let expect = rt.infer(x).unwrap();
            assert_eq!(resp.output.dims(), expect.dims(), "request {i} shape");
            for (a, b) in resp.output.data().iter().zip(expect.data().iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "request {i} diverged");
            }
        }
        // With the default 0.5 cap on these lengths the dispatch needs
        // strictly fewer stacked passes than distinct lengths.
        let groups = plan_buckets(&lens, MAX_PADDING_WASTE);
        let distinct: std::collections::BTreeSet<usize> = lens.iter().copied().collect();
        assert!(groups.len() < distinct.len());
    }

    #[test]
    fn malformed_request_does_not_poison_its_bucket_group() {
        // An empty id tensor co-buckets with valid length-1 requests;
        // the group pass fails, but the per-request retry isolates the
        // error to the malformed submission alone.
        let (rt, seqs) = tiny_lm_runtime();
        rt.set_level(0).unwrap();
        let metrics = MetricsHub::new(Duration::from_secs(1));
        let now = Instant::now();
        let inputs = [
            seqs[0].slice_axis0(1).unwrap(),
            flexiq_tensor::Tensor::zeros([0]), // malformed: empty ids
            seqs[1].slice_axis0(1).unwrap(),
            seqs[2].slice_axis0(2).unwrap(),
        ];
        let mut tickets = Vec::new();
        let mut batch = Vec::new();
        for (i, x) in inputs.iter().enumerate() {
            let (tx, rx) = mpsc::channel();
            batch.push(QueuedRequest {
                id: i as u64,
                input: x.clone(),
                enqueued_at: now,
                deadline: None,
                trace: 0,
                reply: tx,
            });
            tickets.push(Ticket { id: i as u64, rx });
        }
        run_batch(&rt, &metrics, batch);
        for (i, (t, x)) in tickets.into_iter().zip(inputs.iter()).enumerate() {
            if i == 1 {
                assert!(matches!(t.wait().unwrap_err(), ServeError::Nn(_)));
                continue;
            }
            let resp = t.wait().unwrap();
            let expect = rt.infer(x).unwrap();
            for (a, b) in resp.output.data().iter().zip(expect.data().iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "healthy request {i} poisoned");
            }
        }
    }
}
