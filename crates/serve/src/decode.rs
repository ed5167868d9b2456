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
//! the bucket-aware policy
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
//! # Supervision
//!
//! The scheduler thread is the decode stack's single point of failure,
//! so its loop runs inside `catch_unwind`: a panic (a runtime bug, or
//! the injected [`crate::fault::FaultSite::SchedulerPanic`]) unwinds the
//! loop, every in-flight generation is answered with the typed
//! [`ServeError::SchedulerRestarted`] from a kept registry of reply
//! handles, and the loop re-enters with fresh state — queued requests
//! are untouched and decode normally. A crash loop (repeated panics
//! with no progress between them) gives up instead of spinning: the
//! queue closes and everything still queued is error-answered, so no
//! ticket hangs even under a 100% panic schedule.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use flexiq_core::{DecodeSession, FlexiRuntime};
use flexiq_tensor::Tensor;

use crate::error::{Result, ServeError};
use crate::fault::{self, FaultSite};
use crate::queue::{lock_clean, AdmissionQueue};
use crate::request::RequestId;

/// Consecutive no-progress panics after which the scheduler's respawn
/// loop concludes the fault is deterministic and gives up (closing the
/// queue and error-answering everything) instead of crash-looping.
const CRASH_LOOP_LIMIT: u32 = 8;

/// Reply handles of generations currently owned by the scheduler,
/// kept *outside* the unwindable loop so a panic can answer them.
type InflightRegistry = Arc<Mutex<HashMap<RequestId, mpsc::Sender<Result<GenResponse>>>>>;

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
    fn finish(&mut self) {
        let Some(reply) = self.reply.take() else {
            return;
        };
        let resp = GenResponse {
            id: self.id,
            tokens: std::mem::take(&mut self.tokens),
            prompt_len: self.session.prompt_len(),
            level: self.level,
            ttft: self.ttft,
            decode_time: self.first_token_at.elapsed(),
            queue_delay: self.queue_delay,
        };
        // A dropped ticket abandons the response; the work is done.
        let _ = reply.send(Ok(resp));
    }
}

/// Greedy decoding: index of the largest logit (lowest index on ties).
fn argmax(row: &Tensor) -> usize {
    let data = row.data();
    let mut best = 0usize;
    for (i, &v) in data.iter().enumerate() {
        if v > data[best] {
            best = i;
        }
    }
    best
}

/// The continuous-batching generation server.
///
/// One scheduler thread owns every [`DecodeSession`]; callers submit
/// rank-1 token-id prompts and block on a [`GenTicket`]. Intra-step
/// parallelism comes from the runtime itself (its executor fans fused
/// sessions and GEMM bands across the ambient
/// [`flexiq_parallel::ThreadPool`]), so the server adds no second
/// thread pool.
pub struct DecodeServer {
    queue: Arc<AdmissionQueue<GenQueued>>,
    next_id: AtomicU64,
    max_new_tokens: usize,
    respawns: Arc<AtomicU64>,
    scheduler: Option<JoinHandle<()>>,
}

impl DecodeServer {
    /// Starts the scheduler thread (wrapped in its respawn supervisor).
    pub fn start(runtime: Arc<FlexiRuntime>, config: DecodeConfig) -> Result<DecodeServer> {
        config.validate()?;
        let queue = Arc::new(AdmissionQueue::<GenQueued>::new(config.queue_capacity));
        let q = Arc::clone(&queue);
        let max_new_tokens = config.max_new_tokens;
        let respawns = Arc::new(AtomicU64::new(0));
        let r = Arc::clone(&respawns);
        let scheduler = std::thread::Builder::new()
            .name("flexiq-decode-scheduler".into())
            .spawn(move || supervise_scheduler(&runtime, &q, &config, &r))
            .expect("spawn decode scheduler");
        Ok(DecodeServer {
            queue,
            next_id: AtomicU64::new(0),
            max_new_tokens,
            respawns,
            scheduler: Some(scheduler),
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
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        self.queue.try_push(GenQueued {
            id,
            prompt,
            max_new: max_new.min(self.max_new_tokens),
            enqueued_at: Instant::now(),
            reply: tx,
        })?;
        Ok(GenTicket { id, rx })
    }

    /// Requests currently queued (not yet prefilling or decoding).
    pub fn queue_depth(&self) -> usize {
        self.queue.depth()
    }

    /// Times the scheduler loop has been restarted after a panic.
    pub fn respawns(&self) -> u64 {
        self.respawns.load(Ordering::Relaxed)
    }

    /// Stops admission, drains in-flight generations, joins the
    /// scheduler.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for DecodeServer {
    fn drop(&mut self) {
        self.queue.close();
        if let Some(h) = self.scheduler.take() {
            let _ = h.join();
        }
    }
}

/// Pops an admission draft. Blocking when the server is idle (so the
/// thread sleeps instead of spinning; `None` = closed and drained),
/// non-blocking when sessions are mid-decode.
fn pop_draft(
    queue: &AdmissionQueue<GenQueued>,
    cfg: &DecodeConfig,
    slots: usize,
    idle: bool,
) -> Option<Vec<GenQueued>> {
    let len_of = |r: &GenQueued| Some(r.prompt.numel());
    if idle {
        queue
            .pop_batch_bucketed(slots, cfg.batch_timeout, len_of)
            .map(|(batch, _)| batch)
    } else {
        Some(queue.try_pop_batch_bucketed(slots, len_of).0)
    }
}

/// Prefills one admitted request into an [`Active`] session; admission
/// errors (over-long prompt, malformed ids) answer the ticket directly.
fn admit(runtime: &FlexiRuntime, req: GenQueued) -> Option<Active> {
    let queue_delay = req.enqueued_at.elapsed();
    match runtime.decode_start(&req.prompt) {
        Ok((session, first_logits, level)) => {
            let first = argmax(&first_logits);
            let ttft = req.enqueued_at.elapsed();
            // The prefill already yielded token 1; each remaining step
            // appends one token, bounded by the model context. The
            // per-request cap was clamped to the server-wide one at
            // submission.
            let room = session.context() - session.pos();
            let steps_left = room.min(req.max_new - 1);
            Some(Active {
                id: req.id,
                session,
                last: first as f32,
                tokens: vec![first as u32],
                steps_left,
                level,
                ttft,
                queue_delay,
                first_token_at: Instant::now(),
                reply: Some(req.reply),
            })
        }
        Err(e) => {
            let _ = req.reply.send(Err(ServeError::Nn(e)));
            None
        }
    }
}

/// The scheduler's panic-isolation wrapper: re-enters [`scheduler_loop`]
/// after a caught panic until the loop exits normally (queue closed and
/// drained) or a crash loop is detected.
///
/// In-flight generations do not survive a panic — their sessions lived
/// in the unwound stack — but their *reply handles* do, in the shared
/// registry: each is answered with [`ServeError::SchedulerRestarted`]
/// so callers see a typed retryable error, never a hang. Progress is a
/// shared counter bumped by admissions and fused steps; a panic with no
/// progress since the previous one counts toward [`CRASH_LOOP_LIMIT`],
/// after which the supervisor closes the queue and error-answers every
/// queued request rather than burning cycles on a deterministic fault.
fn supervise_scheduler(
    runtime: &FlexiRuntime,
    queue: &AdmissionQueue<GenQueued>,
    cfg: &DecodeConfig,
    respawns: &AtomicU64,
) {
    let registry: InflightRegistry = Arc::new(Mutex::new(HashMap::new()));
    let progress = AtomicU64::new(0);
    let mut last_progress = 0u64;
    let mut stuck = 0u32;
    loop {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            scheduler_loop(runtime, queue, cfg, &registry, &progress)
        }));
        match caught {
            Ok(()) => return, // closed and drained: normal shutdown
            Err(_) => {
                respawns.fetch_add(1, Ordering::Relaxed);
                flexiq_telemetry::count(flexiq_telemetry::Counter::SchedulerRespawns, 1);
                // The panicked loop's sessions are gone; their tickets
                // must not hang on a dead scheduler's word.
                for (_, reply) in lock_clean(&registry).drain() {
                    let _ = reply.send(Err(ServeError::SchedulerRestarted));
                }
                let seen = progress.load(Ordering::Relaxed);
                stuck = if seen == last_progress { stuck + 1 } else { 0 };
                last_progress = seen;
                if stuck >= CRASH_LOOP_LIMIT {
                    // Deterministic crash: stop admitting, answer
                    // everything queued, and exit — no ticket hangs.
                    queue.close();
                    while let Some((batch, _)) = queue.pop_batch(cfg.max_active, Duration::ZERO) {
                        for req in batch {
                            let _ = req.reply.send(Err(ServeError::SchedulerRestarted));
                        }
                    }
                    return;
                }
            }
        }
    }
}

/// The scheduler: admit → fused step → retire, until the queue closes
/// and the last session drains.
fn scheduler_loop(
    runtime: &FlexiRuntime,
    queue: &AdmissionQueue<GenQueued>,
    cfg: &DecodeConfig,
    registry: &InflightRegistry,
    progress: &AtomicU64,
) {
    let mut active: Vec<Active> = Vec::with_capacity(cfg.max_active);
    loop {
        // Injected scheduler death: fires before any state mutation so
        // a panicked iteration never half-applies a step.
        fault::fire(FaultSite::SchedulerPanic);
        // Admission. Idle: block for work (exit when closed + drained).
        // Mid-decode: continuous mode refills free slots without
        // waiting; static mode admits only once the batch has drained.
        let admitted_from = active.len();
        if active.is_empty() {
            match pop_draft(queue, cfg, cfg.max_active, true) {
                None => return,
                Some(batch) => {
                    active.extend(batch.into_iter().filter_map(|r| admit(runtime, r)));
                }
            }
        } else if cfg.continuous && active.len() < cfg.max_active {
            let slots = cfg.max_active - active.len();
            if let Some(batch) = pop_draft(queue, cfg, slots, false) {
                active.extend(batch.into_iter().filter_map(|r| admit(runtime, r)));
            }
        }
        if active.len() > admitted_from {
            // Register the newcomers' reply handles with the supervisor
            // (cloned: [`Active::finish`] still owns the primary) and
            // record admission progress for crash-loop detection.
            let mut reg = lock_clean(registry);
            for a in &active[admitted_from..] {
                if let Some(reply) = &a.reply {
                    reg.insert(a.id, reply.clone());
                }
            }
            drop(reg);
            progress.fetch_add((active.len() - admitted_from) as u64, Ordering::Relaxed);
        }
        // Finished sessions answer their tickets immediately. What
        // happens to their slot is the scheduler policy under test:
        // continuous mode frees it for the refill above; static mode —
        // classic padded batching — keeps the session riding the fused
        // step as a pad row (output discarded) until the whole batch
        // drains, so the batch holds its admission width to the end.
        // A pad row still appends to its KV cache, so a session whose
        // context fills retires regardless.
        let all_done = active.iter().all(|a| a.steps_left == 0);
        let mut i = 0;
        while i < active.len() {
            let a = &mut active[i];
            if a.steps_left > 0 {
                i += 1;
                continue;
            }
            a.finish();
            lock_clean(registry).remove(&a.id);
            let can_pad = !cfg.continuous && !all_done && a.session.pos() < a.session.context();
            if can_pad {
                i += 1;
            } else {
                active.swap_remove(i);
            }
        }
        if active.is_empty() {
            continue;
        }
        // One fused step for the whole active set (pad rows included).
        let tokens: Vec<f32> = active.iter().map(|a| a.last).collect();
        let mut refs: Vec<&mut DecodeSession> = active.iter_mut().map(|a| &mut a.session).collect();
        match runtime.decode_step_batch(&mut refs, &tokens) {
            Ok((rows, level)) => {
                progress.fetch_add(1, Ordering::Relaxed);
                for (a, row) in active.iter_mut().zip(rows.iter()) {
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
            Err(e) => {
                // A fused-step failure poisons the whole step; every
                // in-flight request learns about it.
                let mut reg = lock_clean(registry);
                for mut a in active.drain(..) {
                    reg.remove(&a.id);
                    if let Some(reply) = a.reply.take() {
                        let _ = reply.send(Err(ServeError::Nn(e.clone())));
                    }
                }
            }
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
