//! The one-shot batching server: the serving core (`core.rs`, whose
//! module docs draw the whole picture) with `workers` slots each running
//! the `pop_batch → run_batch` body. The admission gate, supervision,
//! [`Server::health`] / [`Server::drain`] / [`Server::resume`] and the
//! stop path are the core's, shared with [`crate::DecodeServer`]; this
//! module adds what is particular to one-shot inference: the shared
//! intra-batch pool, per-request deadlines, level prewarming and trace
//! sampling.

use std::sync::Arc;
use std::time::{Duration, Instant};

use flexiq_core::FlexiRuntime;
use flexiq_telemetry as tel;
use flexiq_tensor::Tensor;

use crate::config::ServeConfig;
pub use crate::core::Health;
use crate::core::{Core, Shared};
use crate::error::{Result, ServeError};
use crate::fault::{self, FaultSite};
use crate::metrics::{MetricsHub, Snapshot};
use crate::request::{QueuedRequest, Ticket};
use crate::worker::run_batch;

/// A running threaded batching inference server.
pub struct Server {
    cfg: ServeConfig,
    core: Core<QueuedRequest>,
    pool: Arc<flexiq_parallel::ThreadPool>,
}

impl Server {
    /// Starts a server whose [`crate::Policy`] adapts the level to the
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
        // Prepack every controller-reachable level's weight bands before
        // any worker accepts a request: the adaptive controller can then
        // switch levels without a packing latency spike, and the first
        // request runs the same steady-state path as the thousandth.
        runtime
            .prewarm_levels()
            .map_err(|e| ServeError::Config(e.to_string()))?;
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
        let (p, max_batch, batch_timeout) = (Arc::clone(&pool), cfg.max_batch, cfg.batch_timeout);
        // The body: drain the queue in dynamic batches until it is
        // closed and empty.
        let body = move |shared: &Shared<QueuedRequest>, _| {
            // The caller thread of a pool dispatch runs kernels too:
            // first-touch its kernel scratch before the first request.
            flexiq_tensor::scratch::warm_defaults();
            loop {
                // Injected consumer stall: the queue backs up, which is
                // what drives the brownout ladder in chaos runs.
                fault::fire(FaultSite::QueueStall);
                let Some((batch, depth_left)) = shared.queue.pop_batch(max_batch, batch_timeout)
                else {
                    break;
                };
                // Injected worker death: fires *outside* the pass catch
                // on purpose — the unwind drops the batch (tickets
                // resolve as ReplyDropped) and kills this thread,
                // exercising the core's respawn path.
                fault::fire(FaultSite::WorkerDeath);
                shared.metrics.set_queue_depth(depth_left);
                // One shared pool across all workers: the stacked pass
                // underneath parallelizes inside it (unless the runtime
                // pinned its own pool).
                flexiq_parallel::with_pool(&p, || {
                    run_batch(&shared.runtime, &shared.metrics, batch)
                });
            }
        };
        let core = Core::start(
            runtime,
            &cfg,
            adaptive,
            |i| format!("flexiq-worker-{i}"),
            tel::Counter::WorkerRespawns,
            |req: QueuedRequest| {
                let _ = req.reply.send(Err(ServeError::ShuttingDown));
            },
            body,
        );
        Ok(Server { cfg, core, pool })
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
        mut input: Tensor,
        deadline: Option<Duration>,
    ) -> Result<Ticket> {
        let (id, depth, (rx, trace)) = self.core.admit(|id| {
            fault::maybe_poison(&mut input);
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
            (req, (rx, trace))
        })?;
        if trace != 0 {
            // Admission marker for the sampled request's trace.
            tel::with_trace(trace, || {
                tel::event("admit", tel::Cat::Serve, id as u32, [depth as u64, 0, 0, 0]);
            });
        }
        Ok(Ticket { id, rx })
    }

    /// The server's metrics hub.
    pub fn metrics(&self) -> &MetricsHub {
        &self.core.shared.metrics
    }

    /// The server configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// A point-in-time liveness/readiness report.
    pub fn health(&self) -> Health {
        self.core.health(&self.pool)
    }

    /// Enters `Draining` (admission answers [`ServeError::Draining`])
    /// and waits up to `timeout` for the queue and in-flight set to
    /// empty. Returns whether the drain completed. The state is sticky:
    /// call [`Server::resume`] to serve again, or shut down.
    pub fn drain(&self, timeout: Duration) -> bool {
        self.core.drain(timeout)
    }

    /// Leaves `Draining` (or any browned-out rung) and serves again.
    pub fn resume(&self) {
        self.core.resume()
    }

    /// Stops admission, drains queued work, joins every thread, and
    /// returns the final metrics snapshot.
    pub fn shutdown(self) -> Snapshot {
        let metrics = Arc::clone(&self.core.shared.metrics);
        drop(self);
        metrics.snapshot()
    }
}

/// Deterministic trace sampling: request `id` is traced iff the count
/// of sampled admissions `floor(id·rate)` increments at this id — every
/// `1/rate`-th request, no RNG, reproducible across runs (`rate` is
/// validated into `[0, 1]`: 0 never increments, 1 always does). The
/// trace id is `id + 1` so that 0 always means "unsampled".
fn trace_id_for(id: u64, rate: f64) -> u64 {
    if ((id + 1) as f64 * rate).floor() > (id as f64 * rate).floor() {
        id + 1
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ServeState;
    use crate::worker::tests::tiny_runtime;
    use flexiq_core::runtime::LEVEL_INT8;

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
        // The full admission → dispatch → reply path on a live server:
        // mixed-length token requests must come back bit-exact with
        // single-sample inference.
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
            let mut slots = crate::queue::lock_clean(&server.core.shared.slots);
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
        assert_eq!(server.health().state, ServeState::Draining);
        match server.submit(inputs[0].clone()) {
            Err(ServeError::Draining) => {}
            Err(e) => panic!("draining server must reject with Draining, got {e}"),
            Ok(_) => panic!("draining server must reject"),
        }
        server.resume();
        assert_eq!(server.health().state, ServeState::Ready);
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
