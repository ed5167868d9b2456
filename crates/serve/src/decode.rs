//! Continuous-batching autoregressive decode server.
//!
//! The classification-shaped serving stack ([`crate::server::Server`])
//! answers each request with one stacked forward pass. Generation is a
//! different regime: a request occupies the model for *many* steps, each
//! step is a tiny `m = 1` pass, and requests finish at different times.
//! Batching them statically (admit a batch, step it at full width until
//! the slowest member finishes, then admit the next) burns the early
//! finishers' slots on pad rows; the scheduler here instead runs
//! **continuous batching**: every fused decode step, slots freed by
//! finished sessions are refilled from the admission queue without
//! stalling the sessions still in flight, so the batch width carries
//! live requests instead of padding.
//!
//! The execution substrate is [`flexiq_core::FlexiRuntime`]'s decode
//! API: [`FlexiRuntime::decode_start`] prefills a
//! [`flexiq_core::DecodeSession`] (quantized K/V cache in the paper's
//! effective-bit representation), and
//! [`FlexiRuntime::decode_step_batch`] runs one fused step for the whole
//! active set — every per-step linear executes once at `m = N` (the
//! regime the prepacked-weight cache was built for) while attention fans
//! out to each session's own cache. Fused steps are bit-exact with
//! per-session steps, so continuous batching is purely a throughput
//! knob: a request's tokens never depend on who it shared a batch with.
//!
//! Admission reuses the generic [`crate::queue::AdmissionQueue`] with
//! the length-class policy
//! ([`crate::queue::AdmissionQueue::pop_batch_bucketed`]): drafted
//! groups prefer prompts whose power-of-two length class matches, so
//! requests admitted together carry similar prefill cost and their
//! first tokens arrive together instead of the short prompt waiting out
//! the long one's prefill.
//!
//! Decoding is greedy (argmax over the step logits) and deterministic:
//! the served token stream for a prompt is byte-for-byte the stream an
//! offline [`FlexiRuntime::decode_step`] loop produces — pinned by this
//! module's tests.
//!
//! # Lifecycle and supervision
//!
//! The server is the serving core (`core.rs`, shared with
//! [`crate::Server`]) with **one** slot running the scheduler loop under
//! a fixed-level [`crate::Policy`]: admission gate, metrics hub,
//! [`DecodeServer::health`] / [`DecodeServer::drain`] /
//! [`DecodeServer::resume`], respawn, the crash-loop give-up and the
//! stop path are the code the one-shot server runs. Nothing in the
//! scheduler catches a panic: a runtime bug (or the injected
//! [`crate::fault::FaultSite::SchedulerPanic`]) unwinds the loop and
//! kills the thread. The unwind drops the loop's `Live` set, which
//! answers every drafted generation — prefilled or not — with the typed
//! [`ServeError::SchedulerRestarted`]; the core respawns the loop with
//! fresh state within a tick, and queued requests decode normally.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use flexiq_core::{DecodeSession, FlexiRuntime};
use flexiq_tensor::Tensor;

use crate::config::ServeConfig;
use crate::core::{Core, Health, Shared};
use crate::error::{Result, ServeError};
use crate::fault::{self, FaultSite};
use crate::metrics::MetricsHub;
use crate::request::RequestId;

/// Knobs of the [`DecodeServer`].
#[derive(Debug, Clone)]
pub struct DecodeConfig {
    /// Maximum sessions decoding concurrently (the fused-step width).
    pub max_active: usize,
    /// Tokens generated per request (including the one the prefill
    /// yields), unless the model context fills first.
    pub max_new_tokens: usize,
    /// Continuous batching: refill freed slots every fused step. When
    /// off, the scheduler runs classic padded static batching — the
    /// drafted batch steps at full width until its slowest member
    /// finishes, finished members riding along as discarded pad rows —
    /// the baseline the decode bench compares against.
    pub continuous: bool,
    /// Admission-queue capacity; submissions beyond it are rejected
    /// with [`ServeError::QueueFull`].
    pub queue_capacity: usize,
    /// How long an under-filled admission draft may wait for more
    /// arrivals when the server is idle.
    pub batch_timeout: Duration,
}

impl Default for DecodeConfig {
    fn default() -> Self {
        DecodeConfig {
            max_active: 8,
            max_new_tokens: 16,
            continuous: true,
            queue_capacity: 1024,
            batch_timeout: Duration::from_millis(2),
        }
    }
}

impl DecodeConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.max_active == 0 {
            return Err(ServeError::Config("max_active must be positive".into()));
        }
        if self.max_new_tokens == 0 {
            return Err(ServeError::Config("max_new_tokens must be positive".into()));
        }
        if self.queue_capacity == 0 {
            return Err(ServeError::Config("queue_capacity must be positive".into()));
        }
        Ok(())
    }
}

/// A queued generation request (the decode queue's item type).
struct GenQueued {
    id: RequestId,
    prompt: Tensor,
    /// Per-request generation cap (≤ [`DecodeConfig::max_new_tokens`]).
    max_new: usize,
    enqueued_at: Instant,
    reply: mpsc::Sender<Result<GenResponse>>,
}

/// A completed generation.
#[derive(Debug, Clone)]
pub struct GenResponse {
    /// Identifier assigned at admission.
    pub id: RequestId,
    /// Greedily decoded token ids, in generation order. The first entry
    /// is the prefill's token; generation stops at the request's token
    /// cap ([`DecodeConfig::max_new_tokens`], or the tighter
    /// per-request bound given to [`DecodeServer::submit_bounded`]) or
    /// when the model context fills, whichever comes first.
    pub tokens: Vec<u32>,
    /// Prompt length in tokens.
    pub prompt_len: usize,
    /// Ratio level the *last* step executed at (levels can flip
    /// mid-generation via [`FlexiRuntime::set_level`]).
    pub level: usize,
    /// Admission → first token (prefill included): time to first token.
    pub ttft: Duration,
    /// First token → last token: the decode loop's share of latency.
    pub decode_time: Duration,
    /// Admission → prefill dispatch.
    pub queue_delay: Duration,
}

/// The caller's handle to a pending generation.
pub struct GenTicket {
    id: RequestId,
    rx: mpsc::Receiver<Result<GenResponse>>,
}

impl GenTicket {
    /// The admitted request's id.
    pub fn id(&self) -> RequestId {
        self.id
    }

    /// Blocks until the generation completes.
    pub fn wait(self) -> Result<GenResponse> {
        self.rx.recv().map_err(|_| ServeError::ReplyDropped)?
    }

    /// Blocks until the generation completes or `timeout` elapses
    /// (answered with [`ServeError::DeadlineExpired`]). The chaos tests
    /// lean on this: a hung ticket fails the wait instead of wedging
    /// the harness.
    pub fn wait_timeout(self, timeout: Duration) -> Result<GenResponse> {
        match self.rx.recv_timeout(timeout) {
            Ok(r) => r,
            Err(mpsc::RecvTimeoutError::Timeout) => Err(ServeError::DeadlineExpired),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(ServeError::ReplyDropped),
        }
    }
}

/// A session mid-generation on the scheduler thread.
struct Active {
    id: RequestId,
    session: DecodeSession,
    /// The token fed into the next fused step (last one argmaxed).
    last: f32,
    tokens: Vec<u32>,
    /// Fused steps this session may still take.
    steps_left: usize,
    level: usize,
    ttft: Duration,
    queue_delay: Duration,
    first_token_at: Instant,
    /// Taken when the response goes out; a finished session may keep
    /// riding fused steps as padding (static mode) after answering.
    reply: Option<mpsc::Sender<Result<GenResponse>>>,
}

impl Active {
    /// Answers the ticket (idempotent: the first call takes the sender).
    fn finish(&mut self, metrics: &MetricsHub) {
        let Some(reply) = self.reply.take() else {
            return;
        };
        let decode_time = self.first_token_at.elapsed();
        metrics.on_completed(Instant::now(), self.ttft + decode_time, self.queue_delay);
        let resp = GenResponse {
            id: self.id,
            tokens: std::mem::take(&mut self.tokens),
            prompt_len: self.session.prompt_len(),
            level: self.level,
            ttft: self.ttft,
            decode_time,
            queue_delay: self.queue_delay,
        };
        // A dropped ticket abandons the response; the work is done.
        let _ = reply.send(Ok(resp));
    }
}

/// Every generation the scheduler has drafted and not yet answered —
/// the in-flight set. It answers on drop: when a panic unwinds the
/// scheduler loop, whatever is still here — prefilled or only drafted —
/// gets the typed [`ServeError::SchedulerRestarted`] and leaves the
/// hub's in-flight gauge, so a dead scheduler never strands a ticket.
struct Live<'a> {
    metrics: &'a MetricsHub,
    /// Drafted from the queue, not yet prefilled.
    drafted: VecDeque<GenQueued>,
    /// Prefilled and decoding.
    active: Vec<Active>,
}

impl Live<'_> {
    /// Answers every unanswered generation with `err` and empties the set.
    fn fail_all(&mut self, err: &ServeError) {
        let drafted = self.drafted.drain(..).map(|r| r.reply);
        let active = self.active.drain(..).filter_map(|a| a.reply);
        for reply in drafted.chain(active) {
            self.metrics.on_exec_failed();
            let _ = reply.send(Err(err.clone()));
        }
    }
}

impl Drop for Live<'_> {
    fn drop(&mut self) {
        self.fail_all(&ServeError::SchedulerRestarted);
    }
}

/// Greedy decoding: index of the largest logit (lowest index on ties).
fn argmax(row: &Tensor) -> usize {
    row.argmax().unwrap_or(0)
}

/// The continuous-batching generation server.
///
/// One scheduler thread owns every [`DecodeSession`]; callers submit
/// rank-1 token-id prompts and block on a [`GenTicket`]. Intra-step
/// parallelism is the GEMM driver's alone: it splits each large step
/// GEMM into output row bands on the ambient
/// [`flexiq_parallel::ThreadPool`], while the fused sessions' attention
/// runs on the scheduler thread. The server adds no second thread pool.
pub struct DecodeServer {
    core: Core<GenQueued>,
    max_new_tokens: usize,
}

impl DecodeServer {
    /// Starts the scheduler thread under the core's supervisor. The
    /// level stays whatever the caller set on `runtime`; the brownout
    /// ladder runs at its defaults.
    pub fn start(runtime: Arc<FlexiRuntime>, config: DecodeConfig) -> Result<DecodeServer> {
        config.validate()?;
        // The core's lifecycle knobs: one slot, the rest at defaults.
        let lifecycle = ServeConfig {
            workers: 1,
            queue_capacity: config.queue_capacity,
            ..ServeConfig::default()
        };
        let max_new_tokens = config.max_new_tokens;
        let core = Core::start(
            runtime,
            &lifecycle,
            false,
            |_| "flexiq-decode-scheduler".into(),
            flexiq_telemetry::Counter::SchedulerRespawns,
            |req: GenQueued| {
                let _ = req.reply.send(Err(ServeError::SchedulerRestarted));
            },
            move |shared, _| scheduler_loop(shared, &config),
        );
        Ok(DecodeServer {
            core,
            max_new_tokens,
        })
    }

    /// Submits a rank-1 token-id prompt for greedy generation, stopping
    /// at the server-wide [`DecodeConfig::max_new_tokens`] cap.
    pub fn submit(&self, prompt: Tensor) -> Result<GenTicket> {
        self.submit_bounded(prompt, self.max_new_tokens)
    }

    /// Submits a prompt with a per-request generation cap: at most
    /// `max_new` tokens come back (prefill's token included), clamped to
    /// the server-wide [`DecodeConfig::max_new_tokens`]. `max_new == 0`
    /// is rejected — an admitted request always yields at least the
    /// prefill token.
    pub fn submit_bounded(&self, prompt: Tensor, max_new: usize) -> Result<GenTicket> {
        if max_new == 0 {
            return Err(ServeError::Config(
                "per-request max_new must be positive".into(),
            ));
        }
        let (id, _, rx) = self.core.admit(|id| {
            let (tx, rx) = mpsc::channel();
            let req = GenQueued {
                id,
                prompt,
                max_new: max_new.min(self.max_new_tokens),
                enqueued_at: Instant::now(),
                reply: tx,
            };
            (req, rx)
        })?;
        Ok(GenTicket { id, rx })
    }

    /// Requests currently queued (not yet prefilling or decoding).
    pub fn queue_depth(&self) -> usize {
        self.core.shared.queue.depth()
    }

    /// Times the scheduler loop has been restarted after a panic.
    pub fn respawns(&self) -> u64 {
        self.metrics().snapshot().worker_respawns
    }

    /// The server's metrics hub. A drafted group counts as a batch; a
    /// generation's latency is admission → last token.
    pub fn metrics(&self) -> &MetricsHub {
        &self.core.shared.metrics
    }

    /// A point-in-time liveness/readiness report (`workers` is the one
    /// scheduler; `inflight` the generations drafted and unanswered).
    pub fn health(&self) -> Health {
        self.core.health(flexiq_parallel::global())
    }

    /// Enters `Draining` (admission answers [`ServeError::Draining`])
    /// and waits up to `timeout` for queued and in-flight generations to
    /// finish. Returns whether the drain completed. The state is sticky:
    /// call [`DecodeServer::resume`] to serve again, or shut down.
    pub fn drain(&self, timeout: Duration) -> bool {
        self.core.drain(timeout)
    }

    /// Leaves `Draining` (or any browned-out rung) and serves again.
    pub fn resume(&self) {
        self.core.resume()
    }

    /// Stops admission, drains in-flight generations, joins the
    /// scheduler.
    pub fn shutdown(self) {
        drop(self);
    }
}

/// Prefills one drafted request into an [`Active`] session. The request
/// is only borrowed — its reply handle stays in the guarded [`Live`]
/// set, so a prefill that panics still answers it.
fn prefill(runtime: &FlexiRuntime, req: &GenQueued) -> flexiq_core::Result<Active> {
    let queue_delay = req.enqueued_at.elapsed();
    let (session, first_logits, level) = runtime.decode_start(&req.prompt)?;
    let first = argmax(&first_logits);
    // The prefill already yielded token 1; each remaining step appends
    // one token, bounded by the model context. The per-request cap was
    // clamped to the server-wide one at submission.
    let room = session.context() - session.pos();
    Ok(Active {
        id: req.id,
        session,
        last: first as f32,
        tokens: vec![first as u32],
        steps_left: room.min(req.max_new - 1),
        level,
        ttft: req.enqueued_at.elapsed(),
        queue_delay,
        first_token_at: Instant::now(),
        reply: None,
    })
}

/// The scheduler body: admit → fused step → retire, until the queue
/// closes and the last session drains.
fn scheduler_loop(shared: &Shared<GenQueued>, cfg: &DecodeConfig) {
    let (runtime, queue, metrics) = (&shared.runtime, &shared.queue, &*shared.metrics);
    let mut live = Live {
        metrics,
        drafted: VecDeque::new(),
        // Grows with the sessions admitted: `max_active` is a bound.
        active: Vec::new(),
    };
    loop {
        // Injected scheduler death: fires before any state mutation so
        // a panicked iteration never half-applies a step.
        fault::fire(FaultSite::SchedulerPanic);
        // Admission. Idle: block for work (exit when closed + drained).
        // Mid-decode: continuous mode refills free slots without
        // waiting; static mode admits only once the batch has drained.
        let free = cfg.max_active - live.active.len();
        let len_of = |r: &GenQueued| Some(r.prompt.numel());
        let (draft, depth_left) = if live.active.is_empty() {
            match queue.pop_batch_bucketed(free, cfg.batch_timeout, len_of) {
                Some(popped) => popped,
                None => return,
            }
        } else if cfg.continuous && free > 0 {
            queue.try_pop_batch_bucketed(free, len_of)
        } else {
            (Vec::new(), 0)
        };
        if !draft.is_empty() {
            // In flight from here: every drafted request leaves through
            // an answer, `Live`'s drop included.
            metrics.on_batch(draft.len());
            metrics.set_queue_depth(depth_left);
            live.drafted.extend(draft);
        }
        // Admission errors (over-long prompt, malformed ids) answer the
        // ticket directly.
        while let Some(req) = live.drafted.front() {
            let prefilled = prefill(runtime, req);
            let reply = live.drafted.pop_front().expect("front is Some").reply;
            match prefilled {
                Ok(a) => live.active.push(Active {
                    reply: Some(reply),
                    ..a
                }),
                Err(e) => {
                    metrics.on_exec_failed();
                    let _ = reply.send(Err(ServeError::Nn(e)));
                }
            }
        }
        // Finished sessions answer their tickets immediately. What
        // happens to their slot is the scheduler policy under test:
        // continuous mode frees it for the refill above; static mode —
        // classic padded batching — keeps the session riding the fused
        // step as a pad row (output discarded) until the whole batch
        // drains, so the batch holds its admission width to the end.
        // A pad row still appends to its KV cache, so a session whose
        // context fills retires regardless.
        let all_done = live.active.iter().all(|a| a.steps_left == 0);
        live.active.retain_mut(|a| {
            if a.steps_left > 0 {
                return true;
            }
            a.finish(metrics);
            !cfg.continuous && !all_done && a.session.pos() < a.session.context()
        });
        if live.active.is_empty() {
            continue;
        }
        // One fused step for the whole active set (pad rows included).
        let tokens: Vec<f32> = live.active.iter().map(|a| a.last).collect();
        let mut refs: Vec<&mut DecodeSession> =
            live.active.iter_mut().map(|a| &mut a.session).collect();
        match runtime.decode_step_batch(&mut refs, &tokens) {
            Ok((rows, level)) => {
                for (a, row) in live.active.iter_mut().zip(rows.iter()) {
                    if a.steps_left == 0 {
                        // Pad row: the step ran (that waste is the
                        // point of the static baseline), the output is
                        // dropped.
                        continue;
                    }
                    let tok = argmax(row);
                    a.tokens.push(tok as u32);
                    a.last = tok as f32;
                    a.steps_left -= 1;
                    a.level = level;
                }
            }
            // A fused-step failure poisons the whole step; every
            // in-flight request learns about it.
            Err(e) => live.fail_all(&ServeError::Nn(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::tests::tiny_lm_runtime;

    /// Offline oracle: the greedy token stream a plain
    /// `decode_start`/`decode_step` loop produces for `prompt`.
    fn offline_greedy(rt: &FlexiRuntime, prompt: &Tensor, max_new: usize) -> Vec<u32> {
        let (mut session, first, _) = rt.decode_start(prompt).unwrap();
        let mut tokens = vec![argmax(&first) as u32];
        let mut last = tokens[0] as f32;
        let room = session.context() - session.pos();
        for _ in 0..room.min(max_new - 1) {
            let (row, _) = rt.decode_step(&mut session, last).unwrap();
            let tok = argmax(&row);
            tokens.push(tok as u32);
            last = tok as f32;
        }
        tokens
    }

    fn prompts(seqs: &[Tensor], lens: &[usize]) -> Vec<Tensor> {
        lens.iter()
            .enumerate()
            .map(|(i, &l)| seqs[i % seqs.len()].slice_axis0(l).unwrap())
            .collect()
    }

    #[test]
    fn served_stream_matches_offline_greedy_decode() {
        let (rt, seqs) = tiny_lm_runtime();
        rt.set_level(0).unwrap();
        let cfg = DecodeConfig {
            max_new_tokens: 4,
            ..DecodeConfig::default()
        };
        let want = offline_greedy(&rt, &seqs[0].slice_axis0(3).unwrap(), 4);
        let server = DecodeServer::start(Arc::clone(&rt), cfg).unwrap();
        let resp = server
            .submit(seqs[0].slice_axis0(3).unwrap())
            .unwrap()
            .wait()
            .unwrap();
        server.shutdown();
        assert_eq!(resp.tokens, want, "served stream must be the greedy oracle");
        assert_eq!(resp.prompt_len, 3);
        assert_eq!(resp.level, 0);
        assert!(resp.ttft <= resp.ttft + resp.decode_time);
    }

    /// Caps at `usize::MAX` pass `validate`, so they must serve: the
    /// scheduler's slots and the queue allocate by occupancy.
    #[test]
    fn caps_at_usize_max_complete_a_generation() {
        let (rt, seqs) = tiny_lm_runtime();
        rt.set_level(0).unwrap();
        let prompt = seqs[0].slice_axis0(3).unwrap();
        let want = offline_greedy(&rt, &prompt, 4);
        let cfg = DecodeConfig {
            max_active: usize::MAX,
            queue_capacity: usize::MAX,
            max_new_tokens: 4,
            ..DecodeConfig::default()
        };
        let server = DecodeServer::start(Arc::clone(&rt), cfg).unwrap();
        let resp = server.submit(prompt).unwrap().wait().unwrap();
        server.shutdown();
        assert_eq!(resp.tokens, want);
    }

    #[test]
    fn concurrent_requests_each_match_their_solo_stream() {
        // Continuous batching must not change anyone's tokens: each
        // request's stream equals its offline solo decode, whatever mix
        // of sessions it shared fused steps with.
        let (rt, seqs) = tiny_lm_runtime();
        rt.set_level(0).unwrap();
        let lens = [2usize, 5, 3, 7, 4, 2];
        let inputs = prompts(&seqs, &lens);
        let want: Vec<Vec<u32>> = inputs.iter().map(|p| offline_greedy(&rt, p, 5)).collect();
        let cfg = DecodeConfig {
            max_active: 3, // force slot reuse: 6 requests through 3 slots
            max_new_tokens: 5,
            ..DecodeConfig::default()
        };
        let server = DecodeServer::start(Arc::clone(&rt), cfg).unwrap();
        let tickets: Vec<GenTicket> = inputs
            .iter()
            .map(|p| server.submit(p.clone()).unwrap())
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            let resp = t.wait().unwrap();
            assert_eq!(resp.tokens, want[i], "request {i} diverged");
        }
        server.shutdown();
    }

    #[test]
    fn static_mode_completes_with_identical_streams() {
        let (rt, seqs) = tiny_lm_runtime();
        rt.set_level(0).unwrap();
        let lens = [3usize, 6, 2, 5];
        let inputs = prompts(&seqs, &lens);
        let want: Vec<Vec<u32>> = inputs.iter().map(|p| offline_greedy(&rt, p, 4)).collect();
        let cfg = DecodeConfig {
            max_active: 2,
            max_new_tokens: 4,
            continuous: false,
            ..DecodeConfig::default()
        };
        let server = DecodeServer::start(Arc::clone(&rt), cfg).unwrap();
        let tickets: Vec<GenTicket> = inputs
            .iter()
            .map(|p| server.submit(p.clone()).unwrap())
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            let resp = t.wait().unwrap();
            assert_eq!(resp.tokens, want[i], "request {i} diverged (static)");
        }
        server.shutdown();
    }

    #[test]
    fn generation_respects_context_and_token_caps() {
        let (rt, seqs) = tiny_lm_runtime();
        rt.set_level(0).unwrap();
        let context = seqs[0].numel();
        let cfg = DecodeConfig {
            max_new_tokens: 64, // far beyond what the context allows
            ..DecodeConfig::default()
        };
        let server = DecodeServer::start(Arc::clone(&rt), cfg).unwrap();
        // A near-full prompt: only (context - prompt_len) steps fit, so
        // the stream is 1 prefill token + that many step tokens.
        let prompt_len = context - 2;
        let resp = server
            .submit(seqs[0].slice_axis0(prompt_len).unwrap())
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(resp.tokens.len(), 1 + (context - prompt_len));
        // An over-long prompt is rejected with a model error, not wedged.
        let over = flexiq_tensor::Tensor::zeros([context + 1]);
        assert!(matches!(
            server.submit(over).unwrap().wait().unwrap_err(),
            ServeError::Nn(_)
        ));
        server.shutdown();
    }

    #[test]
    fn per_request_bounds_cap_and_clamp() {
        let (rt, seqs) = tiny_lm_runtime();
        rt.set_level(0).unwrap();
        let cfg = DecodeConfig {
            max_new_tokens: 5,
            ..DecodeConfig::default()
        };
        let server = DecodeServer::start(Arc::clone(&rt), cfg).unwrap();
        let prompt = seqs[0].slice_axis0(3).unwrap();
        // A tighter per-request bound truncates the stream — and the
        // tokens it does yield are a prefix of the unbounded stream.
        let want = offline_greedy(&rt, &prompt, 5);
        let short = server
            .submit_bounded(prompt.clone(), 2)
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(short.tokens, want[..2], "bounded stream must be a prefix");
        // A looser bound clamps to the server-wide cap.
        let clamped = server
            .submit_bounded(prompt.clone(), 64)
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(clamped.tokens, want, "over-cap bound must clamp");
        // Zero is rejected at submission: every admitted request yields
        // at least the prefill token.
        match server.submit_bounded(prompt, 0) {
            Err(ServeError::Config(_)) => {}
            other => panic!(
                "zero bound must be a config error, got {:?}",
                other.map(|t| t.id())
            ),
        }
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_requests() {
        let (rt, seqs) = tiny_lm_runtime();
        rt.set_level(0).unwrap();
        let cfg = DecodeConfig {
            max_new_tokens: 2,
            ..DecodeConfig::default()
        };
        let server = DecodeServer::start(Arc::clone(&rt), cfg).unwrap();
        let tickets: Vec<GenTicket> = (0..6)
            .map(|i| {
                server
                    .submit(seqs[i % seqs.len()].slice_axis0(2 + i % 3).unwrap())
                    .unwrap()
            })
            .collect();
        server.shutdown(); // close + join: everything queued must answer
        for t in tickets {
            assert!(t.wait().is_ok(), "queued request lost at shutdown");
        }
    }

    #[test]
    fn wait_timeout_reports_pending_and_dropped_tickets() {
        // Pending: sender alive but silent → DeadlineExpired.
        let (tx, rx) = mpsc::channel::<Result<GenResponse>>();
        let t = GenTicket { id: 0, rx };
        assert!(matches!(
            t.wait_timeout(Duration::from_millis(5)),
            Err(ServeError::DeadlineExpired)
        ));
        // Dropped: sender gone → ReplyDropped, immediately.
        drop(tx);
        let (tx2, rx2) = mpsc::channel::<Result<GenResponse>>();
        drop(tx2);
        let t = GenTicket { id: 1, rx: rx2 };
        assert!(matches!(
            t.wait_timeout(Duration::from_secs(5)),
            Err(ServeError::ReplyDropped)
        ));
        // Answered: the value comes through within the timeout.
        let (rt, seqs) = tiny_lm_runtime();
        rt.set_level(0).unwrap();
        let cfg = DecodeConfig {
            max_new_tokens: 2,
            ..DecodeConfig::default()
        };
        let server = DecodeServer::start(Arc::clone(&rt), cfg).unwrap();
        let resp = server
            .submit(seqs[0].slice_axis0(2).unwrap())
            .unwrap()
            .wait_timeout(Duration::from_secs(30))
            .unwrap();
        assert_eq!(resp.tokens.len(), 2);
        assert_eq!(server.respawns(), 0, "no panics on the happy path");
        server.shutdown();
    }

    #[test]
    fn unwinding_scheduler_answers_prefilled_and_drafted_generations() {
        // What the scheduler holds when `decode_start` panics on the
        // second prompt of a draft: one prefilled session and one
        // request that is drafted (counted in flight) but not prefilled.
        // Both must read the typed error, and the gauge must deflate.
        let (rt, seqs) = tiny_lm_runtime();
        rt.set_level(0).unwrap();
        let server = DecodeServer::start(Arc::clone(&rt), DecodeConfig::default()).unwrap();
        let queued = |id: RequestId| {
            let (tx, rx) = mpsc::channel();
            let req = GenQueued {
                id,
                prompt: seqs[0].slice_axis0(3).unwrap(),
                max_new: 4,
                enqueued_at: Instant::now(),
                reply: tx,
            };
            (req, GenTicket { id, rx })
        };
        let ((first, t0), (second, t1)) = (queued(0), queued(1));
        server.metrics().on_batch(2);
        assert_eq!(server.health().inflight, 2);
        let prefilled = Active {
            reply: Some(first.reply.clone()),
            ..prefill(&rt, &first).unwrap()
        };
        drop(first);
        // As in production, the panic kills the thread it unwinds.
        let died = std::thread::scope(|s| {
            s.spawn(|| {
                let _live = Live {
                    metrics: server.metrics(),
                    drafted: VecDeque::from([second]),
                    active: vec![prefilled],
                };
                panic!("decode_start exploded mid-draft");
            })
            .join()
        });
        assert!(died.is_err());
        for t in [t0, t1] {
            assert!(matches!(
                t.wait_timeout(Duration::from_secs(5)),
                Err(ServeError::SchedulerRestarted)
            ));
        }
        let h = server.health();
        assert_eq!(h.inflight, 0, "answered-on-drop must deflate in-flight");
        assert_eq!((h.workers_alive, h.worker_respawns), (1, 0));
        server.shutdown();
    }

    #[test]
    fn drain_finishes_generations_then_rejects_until_resume() {
        let (rt, seqs) = tiny_lm_runtime();
        rt.set_level(0).unwrap();
        let cfg = DecodeConfig {
            max_active: 2, // 5 requests through 2 slots: some wait queued
            max_new_tokens: 4,
            ..DecodeConfig::default()
        };
        let inputs = prompts(&seqs, &[3, 5, 2, 6, 4]);
        let want: Vec<Vec<u32>> = inputs.iter().map(|p| offline_greedy(&rt, p, 4)).collect();
        let server = DecodeServer::start(Arc::clone(&rt), cfg).unwrap();
        let tickets: Vec<GenTicket> = inputs
            .iter()
            .map(|p| server.submit(p.clone()).unwrap())
            .collect();
        assert!(
            server.drain(Duration::from_secs(60)),
            "queued and in-flight generations must finish within the drain"
        );
        for (i, t) in tickets.into_iter().enumerate() {
            let resp = t.wait_timeout(Duration::from_secs(60)).unwrap();
            assert_eq!(resp.tokens, want[i], "drained stream {i} diverged");
        }
        let h = server.health();
        assert_eq!(h.state, crate::ServeState::Draining);
        assert_eq!((h.queue_depth, h.inflight), (0, 0));
        assert!(matches!(
            server.submit(inputs[0].clone()).map(|t| t.id()),
            Err(ServeError::Draining)
        ));
        server.resume();
        let resp = server.submit(inputs[0].clone()).unwrap().wait().unwrap();
        assert_eq!(resp.tokens, want[0]);
        let s = server.metrics().snapshot();
        assert_eq!((s.completed, s.exec_failed), (6, 0));
        server.shutdown();
    }

    #[test]
    fn config_validation_rejects_zeroes() {
        let bad = DecodeConfig {
            max_active: 0,
            ..DecodeConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = DecodeConfig {
            max_new_tokens: 0,
            ..DecodeConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = DecodeConfig {
            queue_capacity: 0,
            ..DecodeConfig::default()
        };
        assert!(bad.validate().is_err());
    }
}
