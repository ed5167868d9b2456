//! The supervised serving core both servers are built on.
//!
//! ```text
//!  submit() ─► admit: serve state? ─► AdmissionQueue<Q> ─► body(slot) × N
//!     │        (Shedding / Draining / full / closed: typed reject, counted)
//!     │                                       │
//!     │          Server:       pop_batch ─► run_batch          (`workers` slots)
//!     │          DecodeServer: scheduler_loop, fused steps     (1 slot)
//!     │                                       ▼
//!     ◄───────────── ticket ◄──────────── reply channels
//!
//!  flexiq-supervise, every SUPERVISE_TICK:
//!     reap dead slots ─► respawn body(slot)        (crash loop: give up)
//!     MetricsHub + queue depth ─► Policy::tick ─► set_level / serve state
//! ```
//!
//! A [`Core`] owns what the two serving modes share — the bounded
//! [`AdmissionQueue`], the [`MetricsHub`], the service threads, their
//! one supervisor and the stop path — and is told only what differs:
//! a few constants and what a slot's thread runs, the *body*, a plain
//! closure.
//!
//! Every [`SUPERVISE_TICK`] the `flexiq-supervise` thread reaps slots
//! whose thread died (an escaped panic, or the injected
//! [`crate::fault::FaultSite::WorkerDeath`] /
//! [`crate::fault::FaultSite::SchedulerPanic`]) and respawns the same
//! body, so a death costs the work that thread had in hand and at most
//! one tick of capacity. [`CRASH_LOOP_LIMIT`] deaths in a row with no
//! batch dispatched between them are a deterministic fault, not bad
//! luck: the core closes the queue, refuses everything still queued with
//! a typed error and stops respawning, so no ticket hangs even under a
//! 100 % death schedule. The same tick samples the hub into an
//! [`Observation`], ticks the pure [`Policy`] (see [`crate::policy`])
//! and applies the decision: [`FlexiRuntime::set_level`] — one atomic
//! store, flipped while bodies keep executing — and the serve state the
//! admission gate reads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use flexiq_core::runtime::LEVEL_INT8;
use flexiq_core::FlexiRuntime;
use flexiq_parallel::ThreadPool;
use flexiq_telemetry as tel;

use crate::config::ServeConfig;
use crate::error::{Result, ServeError};
use crate::fault;
use crate::metrics::MetricsHub;
use crate::policy::{Observation, Policy, ServeState};
use crate::queue::{lock_clean, AdmissionQueue};
use crate::request::RequestId;

/// How often the supervisor reaps dead slots and ticks the [`Policy`]
/// (the brownout ladder moves on every tick, the level every
/// [`crate::ControlConfig::tick`]). The serving simulator ticks its
/// virtual-clock `Policy` at the same cadence.
pub const SUPERVISE_TICK: Duration = Duration::from_millis(2);

/// Consecutive no-progress deaths after which the supervisor concludes
/// the fault is deterministic and gives up instead of crash-looping.
const CRASH_LOOP_LIMIT: u32 = 8;

/// A point-in-time liveness/readiness report of either server.
#[derive(Debug, Clone, PartialEq)]
pub struct Health {
    /// The brownout ladder's current rung.
    pub state: ServeState,
    /// Requests waiting in the admission queue.
    pub queue_depth: usize,
    /// Requests dispatched and not yet answered.
    pub inflight: u64,
    /// Configured service threads (workers, or the one decode scheduler).
    pub workers: usize,
    /// Service threads currently running (the supervisor restores this
    /// to `workers` within a tick of a death).
    pub workers_alive: usize,
    /// Total supervisor respawns so far.
    pub worker_respawns: u64,
    /// Total brownout sheds so far.
    pub shed: u64,
    /// Current precision level, runtime encoding ([`LEVEL_INT8`] or a
    /// schedule index).
    pub level: usize,
    /// Round-trip of a trivial job through the intra-batch pool the
    /// bodies compute on (a liveness probe for the compute substrate).
    pub pool_ping: Duration,
}

/// The state service threads, the supervisor and the handle share.
pub(crate) struct Shared<Q> {
    pub queue: AdmissionQueue<Q>,
    pub metrics: Arc<MetricsHub>,
    pub runtime: Arc<FlexiRuntime>,
    /// Join handles by slot; the supervisor reaps and refills them.
    pub slots: Mutex<Vec<Option<JoinHandle<()>>>>,
}

/// One running queue → bodies → supervisor → policy → metrics lifecycle.
pub(crate) struct Core<Q> {
    pub shared: Arc<Shared<Q>>,
    supervisor: Option<JoinHandle<()>>,
    next_id: AtomicU64,
    /// This core armed the global fault plan and disarms it on drop.
    armed: bool,
}

fn spawn(name: String, f: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    let spawned = std::thread::Builder::new().name(name).spawn(f);
    spawned.expect("spawn service thread")
}

impl<Q: Send + 'static> Core<Q> {
    /// Starts `cfg.workers` threads named by `thread_name`, each running
    /// `body(shared, slot)`, and the supervisor that keeps them alive.
    /// Of `cfg` the core reads the lifecycle part: `workers`,
    /// `queue_capacity`, `control`, `brownout`, `fault`. `adaptive` lets
    /// the [`Policy`] decide the level (else it stays the caller's; the
    /// ladder still runs); `refuse` answers what a give-up finds queued.
    pub fn start(
        runtime: Arc<FlexiRuntime>,
        cfg: &ServeConfig,
        adaptive: bool,
        thread_name: fn(usize) -> String,
        respawned: tel::Counter,
        refuse: fn(Q),
        body: impl Fn(&Shared<Q>, usize) + Clone + Send + 'static,
    ) -> Core<Q> {
        // Arm before any body can hit a failure point (env
        // `FLEXIQ_FAULT` is the other entry; an explicit plan wins).
        if let Some(f) = &cfg.fault {
            fault::arm(f.clone());
        }
        let policy = Policy::new(
            cfg,
            adaptive,
            runtime.num_levels(),
            runtime.cheapest_level().unwrap_or(LEVEL_INT8),
            // The runtime's actual level — the caller may have set one
            // before starting, and assuming INT8 here would leave it in
            // place, uncorrected, for as long as the policy keeps
            // wanting INT8.
            runtime.level(),
        );
        let shared = Arc::new(Shared {
            queue: AdmissionQueue::new(cfg.queue_capacity),
            metrics: Arc::new(MetricsHub::new(cfg.control.window)),
            runtime,
            slots: Mutex::new(Vec::with_capacity(cfg.workers)),
        });
        let launch = move |shared: &Arc<Shared<Q>>, i: usize| {
            let (s, b) = (Arc::clone(shared), body.clone());
            spawn(thread_name(i), move || b(&s, i))
        };
        lock_clean(&shared.slots).extend((0..cfg.workers).map(|i| Some(launch(&shared, i))));
        let (s, percentile) = (Arc::clone(&shared), cfg.control.percentile);
        let supervisor = spawn("flexiq-supervise".into(), move || {
            supervise(&s, policy, percentile, respawned, refuse, launch)
        });
        Core {
            shared,
            supervisor: Some(supervisor),
            next_id: AtomicU64::new(0),
            armed: cfg.fault.is_some(),
        }
    }

    /// The admission gate: serve-state check → id → `try_push` →
    /// counters. `make` runs only when the gate is open: it builds the
    /// queue item for the assigned id plus what the caller keeps (the
    /// reply receiver). Every refusal is typed and counted.
    pub fn admit<T>(
        &self,
        make: impl FnOnce(RequestId) -> (Q, T),
    ) -> Result<(RequestId, usize, T)> {
        let metrics = &self.shared.metrics;
        // One relaxed load on the happy path.
        match metrics.serve_state() {
            ServeState::Shedding => {
                metrics.on_shed();
                return Err(ServeError::Shedding);
            }
            ServeState::Draining => return Err(ServeError::Draining),
            ServeState::Ready | ServeState::Degraded => {}
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (item, kept) = make(id);
        match self.shared.queue.try_push(item) {
            Ok(depth) => {
                metrics.on_submitted();
                metrics.set_queue_depth(depth);
                Ok((id, depth, kept))
            }
            Err(e) => {
                metrics.on_rejected();
                Err(e)
            }
        }
    }

    /// The liveness report; `pool` is the pool the bodies compute on.
    pub fn health(&self, pool: &ThreadPool) -> Health {
        let (workers, workers_alive) = {
            let slots = lock_clean(&self.shared.slots);
            let alive = slots.iter().flatten().filter(|h| !h.is_finished());
            (slots.len(), alive.count())
        };
        let metrics = &self.shared.metrics;
        let snap = metrics.snapshot();
        Health {
            state: metrics.serve_state(),
            queue_depth: self.shared.queue.depth(),
            inflight: metrics.inflight(),
            workers,
            workers_alive,
            worker_respawns: snap.worker_respawns,
            shed: snap.shed,
            level: self.shared.runtime.level(),
            pool_ping: pool.ping(),
        }
    }

    /// Enters the sticky `Draining` state and waits up to `timeout` for
    /// the queue and in-flight set to empty; returns whether they did.
    pub fn drain(&self, timeout: Duration) -> bool {
        self.shared.metrics.set_serve_state(ServeState::Draining);
        let deadline = Instant::now() + timeout;
        while self.shared.queue.depth() > 0 || self.shared.metrics.inflight() > 0 {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        true
    }

    /// Leaves `Draining` (or any browned-out rung) and serves again.
    pub fn resume(&self) {
        self.shared.metrics.set_serve_state(ServeState::Ready);
    }
}

/// The stop path of both servers: a server dropped without `shutdown`
/// (an early `?`, a panicking test) must not leak threads blocked on the
/// queue, a ticking supervisor or an armed fault plan. Queued work is
/// drained, not dropped: bodies exit once the closed queue is empty.
impl<Q> Drop for Core<Q> {
    fn drop(&mut self) {
        // Taking the handles out is the supervisor's stop signal. It is
        // joined before the bodies are released: glibc hands a new thread
        // the arena of the latest exit, so this order keeps worker heaps
        // with the next server's workers (else peak RSS reads ~1 MB up).
        let bodies = std::mem::take(&mut *lock_clean(&self.shared.slots));
        if let Some(s) = self.supervisor.take() {
            let _ = s.join();
        }
        self.shared.queue.close();
        for h in bodies.into_iter().flatten() {
            let _ = h.join();
        }
        if self.armed {
            fault::disarm();
        }
    }
}

/// The supervision loop: respawn dead slots (reaped with `is_finished`,
/// never a blocking join on a live thread), then tick the [`Policy`],
/// until the slot table is emptied (the server is stopping) or it gives
/// up. Progress, for the crash-loop rule, is the hub's batch count.
fn supervise<Q>(
    shared: &Arc<Shared<Q>>,
    mut policy: Policy,
    percentile: f64,
    respawned: tel::Counter,
    refuse: fn(Q),
    launch: impl Fn(&Arc<Shared<Q>>, usize) -> JoinHandle<()>,
) {
    let (metrics, queue) = (&shared.metrics, &shared.queue);
    let mut last_expired = metrics.expired();
    let (mut stuck, mut last_progress) = (0u32, metrics.batches());
    loop {
        std::thread::sleep(SUPERVISE_TICK);
        let mut slots = lock_clean(&shared.slots);
        if slots.is_empty() {
            return;
        }
        for (i, slot) in slots.iter_mut().enumerate() {
            if slot.as_ref().is_some_and(|h| !h.is_finished()) {
                continue;
            }
            if let Some(h) = slot.take() {
                let _ = h.join();
            }
            let seen = metrics.batches();
            stuck = if seen == last_progress { stuck + 1 } else { 0 };
            last_progress = seen;
            if stuck >= CRASH_LOOP_LIMIT {
                // Deterministic crash: stop admitting and refuse
                // everything queued — no ticket hangs. The closed queue,
                // not a ladder rung nobody ticks down, answers admissions.
                queue.close();
                metrics.set_serve_state(ServeState::Ready);
                while let Some((batch, _)) = queue.pop_batch(queue.capacity(), Duration::ZERO) {
                    batch.into_iter().for_each(refuse);
                }
                return;
            }
            *slot = Some(launch(shared, i));
            metrics.on_worker_respawn();
            tel::count(respawned, 1);
        }
        drop(slots);
        let now_s = metrics.uptime_s();
        let expired = metrics.expired();
        let window = || metrics.window.percentile_s(Instant::now(), percentile);
        let obs = Observation {
            window: policy.level_due(now_s).then(window).flatten(),
            depth_frac: queue.depth() as f64 / queue.capacity() as f64,
            expired_delta: expired - last_expired,
            state: metrics.serve_state(),
        };
        last_expired = expired;
        let decision = policy.tick(now_s, obs);
        if let Some(next) = decision.state {
            metrics.set_serve_state(next);
        }
        if let Some(level) = decision.level {
            if shared.runtime.set_level(level).is_ok() {
                metrics.on_level_switch(&decision);
            }
        }
    }
}
