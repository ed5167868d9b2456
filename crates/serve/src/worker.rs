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
//! **Grouping:** a dispatched batch splits into one stacked pass per
//! exact input shape — normally exactly one. Token-sequence requests
//! (rank-1 id inputs) group by length like images group by shape, so a
//! uniform-length LM batch is one unpadded stacked pass. A multi-member
//! pass that fails with a model error (an out-of-vocab id, say) retries
//! each member alone, so one malformed request answers its error without
//! taking its co-grouped neighbours down.
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

use crate::error::{Result, ServeError};
use crate::fault::{self, FaultSite};
use crate::metrics::MetricsHub;
use crate::request::{InferResponse, QueuedRequest, RequestId};

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
/// The survivors are grouped by exact input shape, one stacked pass per
/// shape class. Every stacked pass reads the ratio level once, so each
/// response's reported level is authoritative.
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

/// The traced body of [`run_batch`]: one stacked pass per input-shape
/// class, executed under the batch's trace id.
fn run_batch_traced(
    runtime: &FlexiRuntime,
    metrics: &MetricsHub,
    mut live: Vec<QueuedRequest>,
    size: usize,
    dispatched: Instant,
) {
    // One stacked pass for a same-shape `group`, answering every member.
    let dispatch = |group: Vec<QueuedRequest>| {
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
            [size as u64, 0, 0, 0],
        );
        let result = guarded_pass(metrics, || runtime.infer_batch_traced(&inputs));
        drop(dispatch_span);
        if matches!(result, Err(ServeError::Nn(_))) && metas.len() > 1 {
            // One malformed request (an out-of-vocab token) fails the
            // whole stacked pass: retry each member alone so the error
            // reaches only its own ticket. Error path only — a healthy
            // dispatch never pays this, and a caught panic still answers
            // the whole group.
            for (input, meta) in inputs.into_iter().zip(metas) {
                let single = guarded_pass(metrics, || {
                    runtime.infer_batch_traced(std::slice::from_ref(&input))
                });
                answer(metrics, size, dispatched, vec![meta], single);
            }
        } else {
            answer(metrics, size, dispatched, metas, result);
        }
    };
    // One stacked pass per input-shape class (normally exactly one).
    while !live.is_empty() {
        let dims = live[0].input.dims().to_vec();
        let group: Vec<QueuedRequest>;
        (group, live) = live.into_iter().partition(|r| r.input.dims() == dims);
        dispatch(group);
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

    /// Queues `inputs` as one dispatched batch (no deadlines, untraced).
    fn queued(inputs: &[flexiq_tensor::Tensor]) -> (Vec<QueuedRequest>, Vec<Ticket>) {
        let now = Instant::now();
        inputs
            .iter()
            .enumerate()
            .map(|(i, x)| {
                let (tx, rx) = mpsc::channel();
                let id = i as u64;
                let req = QueuedRequest {
                    id,
                    input: x.clone(),
                    enqueued_at: now,
                    deadline: None,
                    trace: 0,
                    reply: tx,
                };
                (req, Ticket { id, rx })
            })
            .unzip()
    }

    #[test]
    fn mixed_length_lm_batch_groups_by_length_bit_exact() {
        // A dispatch with many distinct sequence lengths (and repeats)
        // must answer every request with output byte-identical to
        // single-request inference: grouping by length changes the
        // stacking, never the arithmetic.
        let (rt, seqs) = tiny_lm_runtime();
        rt.set_level(0).unwrap();
        let metrics = MetricsHub::new(Duration::from_secs(1));
        let lens = [1usize, 3, 8, 5, 2, 8, 7];
        let inputs: Vec<flexiq_tensor::Tensor> = lens
            .iter()
            .enumerate()
            .map(|(i, &l)| seqs[i % seqs.len()].slice_axis0(l).unwrap())
            .collect();
        let (batch, tickets) = queued(&inputs);
        run_batch(&rt, &metrics, batch);
        for (i, (t, x)) in tickets.into_iter().zip(inputs.iter()).enumerate() {
            let resp = t.wait().unwrap();
            assert_eq!(resp.level, 0);
            assert_eq!(resp.batch_size, lens.len());
            let expect = rt.infer(x).unwrap();
            assert_eq!(resp.output.dims(), expect.dims(), "request {i} shape");
            for (a, b) in resp.output.data().iter().zip(expect.data().iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "request {i} diverged");
            }
        }
    }

    #[test]
    fn malformed_request_does_not_poison_its_shape_group() {
        use flexiq_nn::zoo::TinyLmCfg;
        let (rt, seqs) = tiny_lm_runtime();
        rt.set_level(0).unwrap();
        let metrics = MetricsHub::new(Duration::from_secs(1));
        // One out-of-vocab id among three valid length-2 requests: the
        // stacked pass of their shape group fails, and the per-member
        // retry isolates the error to the malformed request alone.
        let mut oov = seqs[3].slice_axis0(2).unwrap();
        oov.data_mut()[1] = TinyLmCfg::at(Scale::Test).vocab as f32;
        // An empty id tensor is a shape group of its own.
        let inputs = [
            seqs[0].slice_axis0(2).unwrap(),
            flexiq_tensor::Tensor::zeros([0]),
            seqs[1].slice_axis0(2).unwrap(),
            oov,
            seqs[2].slice_axis0(2).unwrap(),
            seqs[4].slice_axis0(1).unwrap(),
        ];
        let (batch, tickets) = queued(&inputs);
        run_batch(&rt, &metrics, batch);
        for (i, (t, x)) in tickets.into_iter().zip(inputs.iter()).enumerate() {
            if i == 1 || i == 3 {
                let err = t.wait().unwrap_err();
                assert!(matches!(err, ServeError::Nn(_)), "request {i}: {err:?}");
                continue;
            }
            let resp = t.wait().unwrap();
            let expect = rt.infer(x).unwrap();
            for (a, b) in resp.output.data().iter().zip(expect.data().iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "healthy request {i} poisoned");
            }
        }
        let s = metrics.snapshot();
        assert_eq!((s.completed, s.exec_failed, s.worker_panics), (4, 2, 0));
        assert_eq!(s.inflight, 0);
    }
}
