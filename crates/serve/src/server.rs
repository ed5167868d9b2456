//! The assembled server: admission → batching → workers → feedback.
//!
//! ```text
//!  submit() ──► AdmissionQueue ──► worker pool ──► FlexiRuntime.infer
//!     │   (bounded, rejects)  (dynamic batches)        │
//!     │                                                ▼
//!     ◄───────────── Ticket ◄──────────────── reply channels
//!
//!  supervisor:  reap dead workers ──► respawn
//!               MetricsHub + queue depth ──► Policy::tick ──► set_level / serve state
//! ```
//!
//! One `flexiq-supervise` thread is the whole control plane. Every
//! [`ServeConfig::supervise_tick`] it reaps worker threads that died (an
//! escaped panic, or the injected
//! [`crate::fault::FaultSite::WorkerDeath`]) and respawns identical
//! replacements from a kept [`WorkerContext`], samples the hub into an
//! [`Observation`], ticks the pure [`Policy`] (see [`crate::policy`] for
//! what it decides and why) and applies the outcome:
//! [`FlexiRuntime::set_level`] — the one-atomic-store switch the runtime
//! was designed around, flipped while inference threads keep executing
//! — and the serve state the submit path gates on. [`Server::health`],
//! [`Server::drain`] and [`Server::resume`] expose the operator surface.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use flexiq_core::runtime::LEVEL_INT8;
use flexiq_core::FlexiRuntime;
use flexiq_tensor::Tensor;

use crate::config::ServeConfig;
use crate::error::{Result, ServeError};
use crate::fault;
use crate::metrics::{MetricsHub, Snapshot};
use crate::policy::{Observation, Policy, ServeState};
use crate::queue::{lock_clean, AdmissionQueue};
use crate::request::{QueuedRequest, Ticket};
use crate::worker::WorkerContext;

/// A point-in-time liveness/readiness report (see [`Server::health`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Health {
    /// The brownout ladder's current rung.
    pub state: ServeState,
    /// Requests waiting in the admission queue.
    pub queue_depth: usize,
    /// Requests dispatched and not yet answered.
    pub inflight: u64,
    /// Configured worker count.
    pub workers: usize,
    /// Workers currently running (the supervisor restores this to
    /// `workers` within a tick of a death).
    pub workers_alive: usize,
    /// Total supervisor respawns so far.
    pub worker_respawns: u64,
    /// Total brownout sheds so far.
    pub shed: u64,
    /// Current precision level, runtime encoding ([`LEVEL_INT8`] or a
    /// schedule index).
    pub level: usize,
    /// Round-trip of a trivial job through the shared intra-batch pool
    /// (a liveness probe for the compute substrate).
    pub pool_ping: Duration,
}

/// Worker join handles by slot; the supervisor reaps and refills them.
type WorkerSlots = Arc<Mutex<Vec<Option<JoinHandle<()>>>>>;

/// A running threaded batching inference server.
pub struct Server {
    cfg: ServeConfig,
    queue: Arc<AdmissionQueue>,
    metrics: Arc<MetricsHub>,
    runtime: Arc<FlexiRuntime>,
    workers: WorkerSlots,
    supervisor: Option<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    next_id: AtomicU64,
    pool: Arc<flexiq_parallel::ThreadPool>,
}

impl Server {
    /// Starts a server whose [`Policy`] adapts the level to the
    /// measured latency window ([`ServeConfig::control`]).
    pub fn start_adaptive(runtime: Arc<FlexiRuntime>, cfg: ServeConfig) -> Result<Server> {
        Self::start(runtime, cfg, true)
    }

    /// Starts a server that never decides a level: it is whatever the
    /// caller sets on the runtime (fixed-level baselines and benches).
    /// Supervision and the brownout ladder's states still run.
    pub fn start_fixed(runtime: Arc<FlexiRuntime>, cfg: ServeConfig) -> Result<Server> {
        Self::start(runtime, cfg, false)
    }

    fn start(runtime: Arc<FlexiRuntime>, cfg: ServeConfig, adaptive: bool) -> Result<Server> {
        cfg.validate()?;
        let metrics = Arc::new(MetricsHub::new(cfg.control.window));
        // Prepack every controller-reachable level's weight bands before
        // any worker accepts a request: the adaptive controller can then
        // switch levels without a packing latency spike, and the first
        // request runs the same steady-state path as the thousandth.
        runtime
            .prewarm_levels()
            .map_err(|e| ServeError::Config(e.to_string()))?;
        let queue = Arc::new(AdmissionQueue::new(cfg.queue_capacity));
        // One shared intra-batch pool for the whole worker fleet (see
        // `ServeConfig::pool_threads` for the sizing rule). Helpers
        // first-touch their kernel scratch at startup, so the pages are
        // local to the thread that reuses them every dispatch.
        let pool = flexiq_parallel::ThreadPool::with_config(
            cfg.resolved_pool_threads(),
            flexiq_parallel::PoolConfig {
                on_thread_start: Some(Arc::new(|_| flexiq_tensor::scratch::warm_defaults())),
            },
        );
        // Arm the process-global fault plan before any worker can hit a
        // failure point (env `FLEXIQ_FAULT` is the other entry; an
        // explicit config wins over it).
        if let Some(f) = &cfg.fault {
            fault::arm(f.clone());
        }
        let ctx = WorkerContext {
            queue: Arc::clone(&queue),
            runtime: Arc::clone(&runtime),
            metrics: Arc::clone(&metrics),
            max_batch: cfg.max_batch,
            batch_timeout: cfg.batch_timeout,
            pool: Arc::clone(&pool),
        };
        let workers: WorkerSlots = Arc::new(Mutex::new(
            (0..cfg.workers).map(|i| Some(ctx.spawn(i))).collect(),
        ));
        let stop = Arc::new(AtomicBool::new(false));
        let policy = Policy::new(
            adaptive.then_some(&cfg.control),
            cfg.brownout.clone(),
            runtime.num_levels(),
            runtime.cheapest_level().unwrap_or(LEVEL_INT8),
            // The runtime's actual level — the caller may have set one
            // before starting the server, and assuming INT8 here would
            // leave it in place, uncorrected, for as long as the policy
            // keeps wanting INT8.
            runtime.level(),
        );
        let supervisor = Some(spawn_supervisor(
            ctx,
            policy,
            Arc::clone(&workers),
            Arc::clone(&stop),
            &cfg,
        ));
        Ok(Server {
            cfg,
            queue,
            metrics,
            runtime,
            workers,
            supervisor,
            stop,
            next_id: AtomicU64::new(0),
            pool,
        })
    }

    /// Intra-batch threads of the shared worker pool.
    pub fn pool_threads(&self) -> usize {
        self.pool.threads()
    }

    /// Submits a request under the configured default deadline.
    pub fn submit(&self, input: Tensor) -> Result<Ticket> {
        self.submit_with_deadline(input, self.cfg.default_deadline)
    }

    /// Submits a request with an explicit deadline (`None` = never
    /// expires). Returns backpressure errors immediately; a returned
    /// [`Ticket`] means the request is queued.
    pub fn submit_with_deadline(
        &self,
        input: Tensor,
        deadline: Option<Duration>,
    ) -> Result<Ticket> {
        // Brownout admission gate: one relaxed load on the happy path.
        match self.metrics.serve_state() {
            ServeState::Shedding => {
                self.metrics.on_shed();
                return Err(ServeError::Shedding);
            }
            ServeState::Draining => return Err(ServeError::Draining),
            ServeState::Ready | ServeState::Degraded => {}
        }
        let mut input = input;
        fault::maybe_poison(&mut input);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = std::sync::mpsc::channel();
        let now = Instant::now();
        let trace = trace_id_for(id, self.cfg.trace_sample_rate);
        let req = QueuedRequest {
            id,
            input,
            enqueued_at: now,
            deadline: deadline.map(|d| now + d),
            trace,
            reply: tx,
        };
        match self.queue.try_push(req) {
            Ok(depth) => {
                self.metrics.on_submitted();
                self.metrics.set_queue_depth(depth);
                if trace != 0 {
                    // Admission marker for the sampled request's trace.
                    flexiq_telemetry::with_trace(trace, || {
                        flexiq_telemetry::event(
                            "admit",
                            flexiq_telemetry::Cat::Serve,
                            id as u32,
                            [depth as u64, 0, 0, 0],
                        );
                    });
                }
                Ok(Ticket { id, rx })
            }
            Err(e) => {
                self.metrics.on_rejected();
                Err(e)
            }
        }
    }

    /// The server's metrics hub.
    pub fn metrics(&self) -> &MetricsHub {
        &self.metrics
    }

    /// A shared handle to the metrics hub, e.g. for a monitoring thread
    /// that outlives individual borrows of the server.
    pub fn metrics_handle(&self) -> Arc<MetricsHub> {
        Arc::clone(&self.metrics)
    }

    /// The shared runtime (e.g. to pin a level on a fixed server).
    pub fn runtime(&self) -> &FlexiRuntime {
        &self.runtime
    }

    /// The server configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The brownout ladder's current rung.
    pub fn state(&self) -> ServeState {
        self.metrics.serve_state()
    }

    /// A point-in-time liveness/readiness report.
    pub fn health(&self) -> Health {
        let (workers, workers_alive) = {
            let slots = lock_clean(&self.workers);
            let alive = slots
                .iter()
                .filter(|s| s.as_ref().is_some_and(|h| !h.is_finished()))
                .count();
            (slots.len(), alive)
        };
        let snap = self.metrics.snapshot();
        Health {
            state: self.metrics.serve_state(),
            queue_depth: self.queue.depth(),
            inflight: self.metrics.inflight(),
            workers,
            workers_alive,
            worker_respawns: snap.worker_respawns,
            shed: snap.shed,
            level: self.runtime.level(),
            pool_ping: self.pool.ping(),
        }
    }

    /// Enters `Draining` (admission answers [`ServeError::Draining`])
    /// and waits up to `timeout` for the queue and in-flight set to
    /// empty. Returns whether the drain completed. The state is sticky:
    /// call [`Server::resume`] to serve again, or shut down.
    pub fn drain(&self, timeout: Duration) -> bool {
        self.metrics.set_serve_state(ServeState::Draining);
        let deadline = Instant::now() + timeout;
        loop {
            if self.queue.depth() == 0 && self.metrics.inflight() == 0 {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Leaves `Draining` (or any browned-out rung) and serves again.
    pub fn resume(&self) {
        self.metrics.set_serve_state(ServeState::Ready);
    }

    /// Stops admission, drains queued work, joins every thread, and
    /// returns the final metrics snapshot.
    pub fn shutdown(self) -> Snapshot {
        let metrics = Arc::clone(&self.metrics);
        drop(self);
        metrics.snapshot()
    }
}

/// The stop path: a server dropped without [`Server::shutdown`] (an
/// early `?`, a panicking test) must not leak workers blocked on the
/// queue, a ticking supervisor or an armed fault plan.
impl Drop for Server {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Join the supervisor before closing the queue so it cannot
        // respawn a worker that would outlive the drain.
        if let Some(s) = self.supervisor.take() {
            let _ = s.join();
        }
        self.queue.close();
        for w in lock_clean(&self.workers).iter_mut() {
            if let Some(h) = w.take() {
                let _ = h.join();
            }
        }
        // This server armed the global fault plan: disarm on the way
        // out so the process does not keep injecting after shutdown.
        if self.cfg.fault.is_some() {
            fault::disarm();
        }
    }
}

/// Deterministic trace sampling: request `id` is traced iff the count
/// of sampled admissions `floor(id·rate)` increments at this id — every
/// `1/rate`-th request, no RNG, reproducible across runs. The trace id
/// is `id + 1` so that 0 always means "unsampled".
fn trace_id_for(id: u64, rate: f64) -> u64 {
    if rate <= 0.0 {
        return 0;
    }
    if rate >= 1.0 {
        return id + 1;
    }
    let before = (id as f64 * rate).floor();
    let after = ((id + 1) as f64 * rate).floor();
    if after > before {
        id + 1
    } else {
        0
    }
}

/// The supervision loop: respawn dead workers, then tick the [`Policy`].
///
/// Worker slots are reaped with `is_finished` (never a blocking join on
/// a live thread); the replacement drains the same queue, so a worker
/// death costs at most one batch (answered as `ReplyDropped` through the
/// dropped reply channels).
fn spawn_supervisor(
    ctx: WorkerContext,
    mut policy: Policy,
    workers: WorkerSlots,
    stop: Arc<AtomicBool>,
    cfg: &ServeConfig,
) -> JoinHandle<()> {
    let (tick, percentile) = (cfg.supervise_tick, cfg.control.percentile);
    let queue_capacity = cfg.queue_capacity as f64;
    std::thread::Builder::new()
        .name("flexiq-supervise".into())
        .spawn(move || {
            let metrics = &ctx.metrics;
            let mut last_expired = metrics.expired();
            while !stop.load(Ordering::Acquire) {
                std::thread::sleep(tick);
                {
                    let mut slots = lock_clean(&workers);
                    for (i, slot) in slots.iter_mut().enumerate() {
                        let dead = slot.as_ref().is_none_or(|h| h.is_finished());
                        if dead && !stop.load(Ordering::Acquire) {
                            if let Some(h) = slot.take() {
                                let _ = h.join();
                            }
                            *slot = Some(ctx.spawn(i));
                            metrics.on_worker_respawn();
                            flexiq_telemetry::count(flexiq_telemetry::Counter::WorkerRespawns, 1);
                        }
                    }
                }
                let now_s = metrics.uptime_s();
                let expired = metrics.expired();
                let window = || metrics.window.percentile_s(Instant::now(), percentile);
                let obs = Observation {
                    window: policy.level_due(now_s).then(window).flatten(),
                    depth_frac: ctx.queue.depth() as f64 / queue_capacity,
                    expired_delta: expired - last_expired,
                    state: metrics.serve_state(),
                };
                last_expired = expired;
                let decision = policy.tick(now_s, obs);
                if let Some(next) = decision.state {
                    metrics.set_serve_state(next);
                }
                if let Some(level) = decision.level {
                    if ctx.runtime.set_level(level).is_ok() {
                        metrics.on_level_switch(&decision);
                    }
                }
            }
        })
        .expect("spawn supervisor thread")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::tests::tiny_runtime;

    #[test]
    fn serves_requests_end_to_end_with_real_inference() {
        let (rt, inputs) = tiny_runtime();
        let cfg = ServeConfig {
            workers: 2,
            max_batch: 4,
            batch_timeout: Duration::from_millis(1),
            ..Default::default()
        };
        let server = Server::start_fixed(Arc::clone(&rt), cfg).unwrap();
        let tickets: Vec<_> = (0..12)
            .map(|i| server.submit(inputs[i % inputs.len()].clone()).unwrap())
            .collect();
        for t in tickets {
            let r = t.wait().unwrap();
            assert!(r.output.data().iter().all(|v| v.is_finite()));
            assert!(r.latency >= r.queue_delay);
            assert!(r.batch_size >= 1);
        }
        let s = server.shutdown();
        assert_eq!(s.completed, 12);
        assert_eq!(s.rejected, 0);
        assert!(
            s.batches >= 3,
            "12 requests / max_batch 4 needs ≥ 3 batches"
        );
        assert!(s.p50_s > 0.0 && s.p50_s <= s.p95_s && s.p95_s <= s.p99_s);
    }

    #[test]
    fn start_fixed_never_switches_the_level() {
        let (rt, inputs) = tiny_runtime();
        let cfg = ServeConfig {
            workers: 1,
            control: crate::config::ControlConfig {
                tick: Duration::from_millis(1),
                ..Default::default()
            },
            ..Default::default()
        };
        let top = rt.num_levels() - 1;
        rt.set_level(top).unwrap();
        let server = Server::start_fixed(Arc::clone(&rt), cfg).unwrap();
        // Twenty control ticks in which an adaptive server would have
        // pulled the idle runtime back to INT8.
        std::thread::sleep(Duration::from_millis(20));
        for x in &inputs {
            let r = server.submit(x.clone()).unwrap().wait().unwrap();
            assert_eq!(r.level, top, "must run at the level the caller set");
        }
        assert_eq!(server.health().level, top);
        assert_eq!(server.shutdown().level_switches, 0);
    }

    #[test]
    fn adaptive_server_speaks_runtime_levels_and_stops_on_drop() {
        let (rt, _) = tiny_runtime();
        let cfg = ServeConfig {
            workers: 2,
            control: crate::config::ControlConfig {
                tick: Duration::from_millis(1),
                ..Default::default()
            },
            ..Default::default()
        };
        // The caller left schedule level 0 set; the idle policy wants
        // INT8 and must say so in the runtime's encoding.
        rt.set_level(0).unwrap();
        let server = Server::start_adaptive(Arc::clone(&rt), cfg).unwrap();
        let t0 = Instant::now();
        while server.metrics().level_trace().is_empty() && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let trace = server.metrics().level_trace();
        assert_eq!(trace.len(), 1, "one switch: preset level → INT8");
        assert_eq!(trace[0].level, LEVEL_INT8);
        assert_eq!((trace[0].samples, trace[0].state), (0, ServeState::Ready));
        assert_eq!(server.health().level, LEVEL_INT8);
        assert_eq!(rt.level(), LEVEL_INT8);
        // Dropped without shutdown(): workers and supervisor must stop
        // and release the runtime.
        drop(server);
        assert_eq!(Arc::strong_count(&rt), 1, "a service thread outlived drop");
    }

    #[test]
    fn composed_worker_and_intra_batch_pools_stay_bit_exact() {
        // Workers submitting concurrently to one shared multi-thread
        // intra-batch pool must produce outputs identical to plain
        // single-threaded `infer` calls at the same level.
        let (rt, inputs) = tiny_runtime();
        rt.set_level(0).unwrap();
        let cfg = ServeConfig {
            workers: 2,
            pool_threads: Some(2),
            max_batch: 4,
            batch_timeout: Duration::from_millis(1),
            ..Default::default()
        };
        let server = Server::start_fixed(Arc::clone(&rt), cfg).unwrap();
        assert_eq!(server.pool_threads(), 2);
        let tickets: Vec<_> = (0..16)
            .map(|i| {
                let x = inputs[i % inputs.len()].clone();
                (i % inputs.len(), server.submit(x).unwrap())
            })
            .collect();
        for (src, t) in tickets {
            let r = t.wait().unwrap();
            let expect = rt.infer(&inputs[src]).unwrap();
            for (a, b) in r.output.data().iter().zip(expect.data().iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "parallel dispatch diverged");
            }
        }
        server.shutdown();
    }

    #[test]
    fn pool_threads_resolution_respects_worker_budget() {
        let cfg = ServeConfig {
            workers: 2,
            pool_threads: None,
            ..Default::default()
        };
        // Explicit setting wins; zero is rejected.
        let auto = cfg.resolved_pool_threads();
        assert!(auto >= 1);
        if flexiq_parallel::env_threads().is_none() {
            assert!(
                auto * cfg.workers <= flexiq_parallel::machine_threads().max(cfg.workers),
                "default must keep workers x threads within the core budget"
            );
        }
        let cfg = ServeConfig {
            pool_threads: Some(3),
            ..Default::default()
        };
        assert_eq!(cfg.resolved_pool_threads(), 3);
        assert!(ServeConfig {
            pool_threads: Some(0),
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn server_serves_mixed_length_lm_requests_end_to_end() {
        // The full admission → bucketed dispatch → reply path on a live
        // server: mixed-length token requests must come back bit-exact
        // with unpadded single-sample inference.
        let (rt, seqs) = crate::worker::tests::tiny_lm_runtime();
        rt.set_level(0).unwrap();
        let cfg = ServeConfig {
            workers: 2,
            max_batch: 8,
            batch_timeout: Duration::from_millis(2),
            ..Default::default()
        };
        let server = Server::start_fixed(Arc::clone(&rt), cfg).unwrap();
        let lens = [1usize, 4, 7, 2, 8, 5, 3, 6, 8, 1, 5, 7];
        let inputs: Vec<Tensor> = lens
            .iter()
            .enumerate()
            .map(|(i, &l)| seqs[i % seqs.len()].slice_axis0(l).unwrap())
            .collect();
        let tickets: Vec<_> = inputs
            .iter()
            .map(|x| server.submit(x.clone()).unwrap())
            .collect();
        for (i, (t, x)) in tickets.into_iter().zip(inputs.iter()).enumerate() {
            let r = t.wait().unwrap();
            let expect = rt.infer(x).unwrap();
            assert_eq!(r.output.dims(), expect.dims(), "request {i} shape");
            for (a, b) in r.output.data().iter().zip(expect.data().iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "request {i} diverged");
            }
        }
        let s = server.shutdown();
        assert_eq!(s.completed, lens.len() as u64);
    }

    #[test]
    fn backpressure_is_reported_not_dropped() {
        let (rt, inputs) = tiny_runtime();
        let cfg = ServeConfig {
            workers: 1,
            max_batch: 1,
            queue_capacity: 2,
            batch_timeout: Duration::from_millis(1),
            ..Default::default()
        };
        let server = Server::start_fixed(Arc::clone(&rt), cfg).unwrap();
        let mut accepted = Vec::new();
        let mut rejected = 0u64;
        let mut shed = 0u64;
        for i in 0..64 {
            match server.submit(inputs[i % inputs.len()].clone()) {
                Ok(t) => accepted.push(t),
                Err(crate::error::ServeError::QueueFull { .. }) => rejected += 1,
                // A sustained full queue may trip the brownout ladder
                // into shedding — also a typed, counted rejection.
                Err(crate::error::ServeError::Shedding) => shed += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        for t in accepted {
            t.wait().unwrap();
        }
        let s = server.shutdown();
        assert!(
            rejected > 0,
            "tiny queue must reject under a 64-request blast"
        );
        assert_eq!(s.rejected, rejected, "every rejection must be counted");
        assert_eq!(s.shed, shed, "every shed must be counted");
        assert_eq!(
            s.completed + s.rejected + s.shed,
            64,
            "no request may vanish"
        );
    }

    #[test]
    fn supervisor_respawns_dead_workers() {
        let (rt, inputs) = tiny_runtime();
        let cfg = ServeConfig {
            workers: 1,
            supervise_tick: Duration::from_millis(1),
            batch_timeout: Duration::from_millis(1),
            ..Default::default()
        };
        let server = Server::start_fixed(Arc::clone(&rt), cfg).unwrap();
        // Swap the live worker's handle for an already-finished thread:
        // to the supervisor this is indistinguishable from a worker
        // that died, and it must reap the slot and spawn a replacement.
        // (The displaced real worker keeps draining the shared queue
        // until shutdown closes it — harmless here.)
        {
            let mut slots = lock_clean(&server.workers);
            let decoy = std::thread::spawn(|| {});
            drop(slots[0].replace(decoy));
        }
        let t0 = Instant::now();
        while server.health().worker_respawns == 0 && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let h = server.health();
        assert!(h.worker_respawns >= 1, "supervisor must respawn the slot");
        assert_eq!(h.workers_alive, h.workers, "fleet must be whole again");
        // The respawned fleet still serves.
        let r = server.submit(inputs[0].clone()).unwrap().wait().unwrap();
        assert!(r.output.data().iter().all(|v| v.is_finite()));
        server.shutdown();
    }

    #[test]
    fn drain_rejects_then_resume_serves_again() {
        let (rt, inputs) = tiny_runtime();
        let cfg = ServeConfig {
            workers: 1,
            batch_timeout: Duration::from_millis(1),
            ..Default::default()
        };
        let server = Server::start_fixed(Arc::clone(&rt), cfg).unwrap();
        server.submit(inputs[0].clone()).unwrap().wait().unwrap();
        assert!(
            server.drain(Duration::from_secs(5)),
            "an idle server must drain immediately"
        );
        assert_eq!(server.state(), ServeState::Draining);
        match server.submit(inputs[0].clone()) {
            Err(ServeError::Draining) => {}
            Err(e) => panic!("draining server must reject with Draining, got {e}"),
            Ok(_) => panic!("draining server must reject"),
        }
        server.resume();
        assert_eq!(server.state(), ServeState::Ready);
        let r = server.submit(inputs[0].clone()).unwrap().wait().unwrap();
        assert!(r.output.data().iter().all(|v| v.is_finite()));
        let s = server.shutdown();
        assert_eq!(s.completed, 2);
    }

    #[test]
    fn shedding_state_rejects_with_typed_error_and_counts() {
        let (rt, inputs) = tiny_runtime();
        let cfg = ServeConfig {
            workers: 1,
            // Pin the state for the assertion: no ladder ticks.
            brownout: crate::policy::BrownoutConfig {
                enabled: false,
                ..Default::default()
            },
            ..Default::default()
        };
        let server = Server::start_fixed(Arc::clone(&rt), cfg).unwrap();
        server.metrics().set_serve_state(ServeState::Shedding);
        match server.submit(inputs[0].clone()) {
            Err(ServeError::Shedding) => {}
            Err(e) => panic!("shedding server must reject with Shedding, got {e}"),
            Ok(_) => panic!("shedding server must reject"),
        }
        let h = server.health();
        assert_eq!(h.shed, 1);
        assert_eq!(h.state, ServeState::Shedding);
        server.resume();
        server.submit(inputs[0].clone()).unwrap().wait().unwrap();
        server.shutdown();
    }

    #[test]
    fn trace_sampling_is_deterministic_and_proportional() {
        assert!((0..1000).all(|id| trace_id_for(id, 0.0) == 0));
        assert!((0..1000).all(|id| trace_id_for(id, 1.0) == id + 1));
        // A sampled id never maps to trace 0, and the rate holds.
        for rate in [0.1, 0.25, 0.5] {
            let sampled = (0..1000).filter(|&id| trace_id_for(id, rate) != 0).count();
            let expect = (1000.0 * rate) as usize;
            assert!(
                sampled.abs_diff(expect) <= 1,
                "rate {rate}: {sampled} of 1000 sampled"
            );
            // Deterministic: same ids every call.
            assert!((0..1000).all(|id| trace_id_for(id, rate) == trace_id_for(id, rate)));
        }
    }
}
