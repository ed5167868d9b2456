//! Server configuration.

use std::time::Duration;

use crate::error::{Result, ServeError};
use crate::fault::FaultConfig;
use crate::policy::BrownoutConfig;

/// Upper bound on [`ServeConfig::workers`] and on
/// [`ServeConfig::pool_threads`]. Each counts OS threads the server
/// starts (`Core::start` spawns one per worker, the shared pool one per
/// intra-batch thread), so `validate` rejects a count no process could
/// start rather than let the spawn loop run into the OS limit. 1024 is
/// far above any core count the pool can use.
const MAX_THREADS: usize = 1024;

/// Dynamic-batching and admission parameters of a [`crate::Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum requests per dispatched batch.
    pub max_batch: usize,
    /// How long a partially filled batch may wait for more arrivals
    /// before dispatching anyway.
    pub batch_timeout: Duration,
    /// Admission-queue capacity; submissions beyond it are rejected with
    /// [`ServeError::QueueFull`] (counted, never silently dropped).
    pub queue_capacity: usize,
    /// Worker threads running [`flexiq_core::FlexiRuntime`] forward
    /// passes. Each worker assembles its own batches, so batching and
    /// execution overlap across workers.
    pub workers: usize,
    /// Intra-batch threads of the **one shared**
    /// [`flexiq_parallel::ThreadPool`] the workers install around their
    /// stacked passes. Its only use inside a pass is the GEMM driver's
    /// output row bands; everything else in the pass runs on the worker
    /// thread. `None` resolves to `FLEXIQ_THREADS` if set, else
    /// `max(1, cores / workers)` — the documented default that keeps
    /// `workers × intra-batch threads ≤ cores`, so worker-level and
    /// intra-batch parallelism compose without oversubscription. (The
    /// pool is shared and a worker mid-dispatch occupies one of its
    /// slots itself, so even `Some(cores)` degrades gracefully: the pool
    /// never runs more than its size in tasks at once.)
    pub pool_threads: Option<usize>,
    /// Default per-request deadline measured from admission; `None`
    /// means requests never expire. Individual submissions can override
    /// it.
    pub default_deadline: Option<Duration>,
    /// Fraction of requests traced end to end (admission → dispatch →
    /// completion), in `[0, 1]`.
    ///
    /// Sampled requests get a nonzero trace id at admission; the worker
    /// that dispatches a batch containing one records telemetry spans
    /// for the whole pass (via `flexiq_telemetry::with_trace`), even
    /// when global telemetry is off. Sampling is deterministic in the
    /// request id (every `1/rate`-th admission), so traces are
    /// reproducible. `0.0` (default) never samples; `1.0` traces every
    /// request.
    pub trace_sample_rate: f64,
    /// Brownout (graceful-degradation) ladder parameters.
    pub brownout: BrownoutConfig,
    /// Programmatic fault-injection schedule armed at server start
    /// (`None` leaves the global arming state alone, so `FLEXIQ_FAULT`
    /// still applies). Used by the chaos suite and `exp_fault`.
    pub fault: Option<FaultConfig>,
    /// Feedback-control parameters.
    pub control: ControlConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 16,
            batch_timeout: Duration::from_millis(2),
            queue_capacity: 1024,
            workers: 2,
            pool_threads: None,
            default_deadline: None,
            trace_sample_rate: 0.0,
            brownout: BrownoutConfig::default(),
            fault: None,
            control: ControlConfig::default(),
        }
    }
}

impl ServeConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.max_batch == 0 {
            return Err(ServeError::Config("max_batch must be positive".into()));
        }
        if self.queue_capacity == 0 {
            return Err(ServeError::Config("queue_capacity must be positive".into()));
        }
        if !(1..=MAX_THREADS).contains(&self.workers) {
            return Err(ServeError::Config(format!(
                "workers must be in 1..={MAX_THREADS}, got {}",
                self.workers
            )));
        }
        if let Some(t) = self.pool_threads.filter(|t| !(1..=MAX_THREADS).contains(t)) {
            return Err(ServeError::Config(format!(
                "pool_threads must be in 1..={MAX_THREADS} when set, got {t}"
            )));
        }
        if !(0.0..=1.0).contains(&self.trace_sample_rate) || !self.trace_sample_rate.is_finite() {
            return Err(ServeError::Config(format!(
                "trace_sample_rate {} outside [0, 1]",
                self.trace_sample_rate
            )));
        }
        self.brownout.validate()?;
        if let Some(fault) = &self.fault {
            fault.validate()?;
        }
        self.control.validate()
    }

    /// The intra-batch thread count the server will actually use (see
    /// [`ServeConfig::pool_threads`] for the resolution order).
    pub fn resolved_pool_threads(&self) -> usize {
        match self.pool_threads {
            Some(t) => t.max(1),
            None => flexiq_parallel::env_threads().unwrap_or_else(|| {
                (flexiq_parallel::machine_threads() / self.workers.max(1)).max(1)
            }),
        }
    }
}

/// Parameters of the measured-latency ratchet in [`crate::Policy`].
#[derive(Debug, Clone)]
pub struct ControlConfig {
    /// Latency target: the controller raises the 4-bit ratio while the
    /// sliding-window percentile exceeds this.
    pub target: Duration,
    /// Which percentile of the window the controller tracks (0..=1,
    /// e.g. 0.95).
    pub percentile: f64,
    /// Sliding window over completed requests.
    pub window: Duration,
    /// Hysteresis: step back down only when the tracked percentile falls
    /// below `target × down_margin` (must be < 1.0).
    pub down_margin: f64,
    /// Minimum completed requests in the window before the controller
    /// acts (avoids deciding on noise after idle periods).
    pub min_samples: usize,
    /// How often the policy re-evaluates the level (rounded up to the
    /// supervisor's fixed 2 ms cadence, which is what ticks the policy).
    pub tick: Duration,
    /// Minimum time between level changes (cooldown), so one burst does
    /// not thrash the level up and down within a single window.
    pub hold: Duration,
}

impl Default for ControlConfig {
    fn default() -> Self {
        ControlConfig {
            target: Duration::from_millis(50),
            percentile: 0.95,
            window: Duration::from_secs(1),
            down_margin: 0.5,
            min_samples: 8,
            tick: Duration::from_millis(20),
            hold: Duration::from_millis(100),
        }
    }
}

impl ControlConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if !(0.0..=1.0).contains(&self.percentile) {
            return Err(ServeError::Config(format!(
                "percentile {} outside [0, 1]",
                self.percentile
            )));
        }
        if !(0.0..1.0).contains(&self.down_margin) {
            return Err(ServeError::Config(format!(
                "down_margin {} outside [0, 1)",
                self.down_margin
            )));
        }
        if self.target.is_zero() {
            return Err(ServeError::Config("target latency must be positive".into()));
        }
        if self.window.is_zero() {
            return Err(ServeError::Config("window must be positive".into()));
        }
        // Zero would decide the level (and select a window percentile)
        // on every supervisor tick.
        if self.tick.is_zero() {
            return Err(ServeError::Config("control tick must be positive".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(ServeConfig::default().validate().is_ok());
    }

    #[test]
    fn bad_values_are_rejected() {
        let c = ServeConfig {
            max_batch: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = ServeConfig {
            workers: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        // Thread counts past the bound are refused by `validate` alone,
        // so no server or pool is ever started with one.
        for threads in [MAX_THREADS + 1, usize::MAX] {
            let c = ServeConfig {
                workers: threads,
                ..Default::default()
            };
            assert!(matches!(c.validate(), Err(ServeError::Config(_))));
            let c = ServeConfig {
                pool_threads: Some(threads),
                ..Default::default()
            };
            assert!(matches!(c.validate(), Err(ServeError::Config(_))));
        }
        let c = ServeConfig {
            workers: MAX_THREADS,
            pool_threads: Some(MAX_THREADS),
            ..Default::default()
        };
        assert!(c.validate().is_ok());
        let c = ServeConfig {
            control: ControlConfig {
                down_margin: 1.0,
                ..Default::default()
            },
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = ServeConfig {
            control: ControlConfig {
                percentile: 1.5,
                ..Default::default()
            },
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = ServeConfig {
            trace_sample_rate: 1.5,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = ServeConfig {
            trace_sample_rate: -0.5,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = ServeConfig {
            trace_sample_rate: 1.0,
            ..Default::default()
        };
        assert!(c.validate().is_ok());
        let c = ServeConfig {
            control: ControlConfig {
                tick: Duration::ZERO,
                ..Default::default()
            },
            ..Default::default()
        };
        assert!(matches!(c.validate(), Err(ServeError::Config(_))));
        // NaN in any fractional field is a typed error, never a panic.
        for c in [
            ServeConfig {
                trace_sample_rate: f64::NAN,
                ..Default::default()
            },
            ServeConfig {
                control: ControlConfig {
                    percentile: f64::NAN,
                    ..Default::default()
                },
                ..Default::default()
            },
            ServeConfig {
                control: ControlConfig {
                    down_margin: f64::NAN,
                    ..Default::default()
                },
                ..Default::default()
            },
        ] {
            assert!(matches!(c.validate(), Err(ServeError::Config(_))));
        }
        let c = ServeConfig {
            brownout: BrownoutConfig {
                shed_frac: 0.1,
                ..Default::default()
            },
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = ServeConfig {
            fault: Some(FaultConfig {
                worker_panic: 7.0,
                ..FaultConfig::off()
            }),
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    /// What `validate` promises of a backoff policy it accepts: finite
    /// ranges, and every delay the policy hands out, at the first attempt
    /// and far along the sequence, a `Duration` no longer than `cap`.
    fn assert_valid_backoff(policy: &crate::BackoffPolicy) {
        assert!(
            policy.factor.is_finite() && policy.factor >= 1.0,
            "{policy:?}"
        );
        assert!((0.0..=1.0).contains(&policy.jitter), "{policy:?}");
        assert!(policy.base <= policy.cap, "{policy:?}");
        for attempt in [0, 1 << 20, u32::MAX - 1] {
            let mut b = crate::retry::Backoff::new(policy.clone(), 7).at_attempt(attempt);
            if let Some(d) = b.next_delay() {
                assert!(d <= policy.cap, "attempt {attempt}: {d:?}, {policy:?}");
            }
        }
    }

    /// Draws field values from tables of extremes, one index per field.
    struct Draw(std::vec::IntoIter<usize>);

    impl Draw {
        fn pick<T: Copy>(&mut self, table: &[T]) -> T {
            table[self.0.next().expect("enough draws") % table.len()]
        }
    }

    const F64S: [f64; 12] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        1e-300,
        0.25,
        0.5,
        0.75,
        1.0 - f64::EPSILON,
        1.0,
        1.0 + f64::EPSILON,
    ];
    const DURATIONS: [Duration; 4] = [
        Duration::ZERO,
        Duration::from_nanos(1),
        Duration::from_millis(2),
        Duration::MAX,
    ];
    const USIZES: [usize; 3] = [0, 1, usize::MAX];
    const U32S: [u32; 3] = [0, 1, u32::MAX];
    const U64S: [u64; 3] = [0, 1, u64::MAX];

    proptest::proptest! {
        /// Every config's `validate` is total over extreme values: it
        /// returns `Ok` or a typed error, never panics, and an `Ok` holds
        /// finite fractions inside their ranges, thread counts within
        /// their bound, and (for a backoff policy) delays that never
        /// panic or pass `cap`. Nothing is started.
        #[test]
        fn validate_never_panics(draws in proptest::collection::vec(0usize..1 << 16, 48)) {
            let mut d = Draw(draws.into_iter());
            let frac = |v: f64| v.is_finite() && (0.0..=1.0).contains(&v);
            let fault = FaultConfig {
                seed: d.pick(&U64S),
                worker_panic: d.pick(&F64S),
                worker_death: d.pick(&F64S),
                slow_pass: d.pick(&F64S),
                slow: d.pick(&DURATIONS),
                poison_input: d.pick(&F64S),
                queue_stall: d.pick(&F64S),
                stall: d.pick(&DURATIONS),
                scheduler_panic: d.pick(&F64S),
            };
            let serve = ServeConfig {
                max_batch: d.pick(&USIZES),
                batch_timeout: d.pick(&DURATIONS),
                queue_capacity: d.pick(&USIZES),
                workers: d.pick(&USIZES),
                pool_threads: d.pick(&[None, Some(0), Some(1), Some(usize::MAX)]),
                default_deadline: d.pick(&[None, Some(Duration::ZERO), Some(Duration::MAX)]),
                trace_sample_rate: d.pick(&F64S),
                brownout: BrownoutConfig {
                    enabled: d.pick(&[false, true]),
                    degrade_frac: d.pick(&F64S),
                    shed_frac: d.pick(&F64S),
                    recover_frac: d.pick(&F64S),
                    miss_threshold: d.pick(&U64S),
                    escalate_ticks: d.pick(&U32S),
                    recover_ticks: d.pick(&U32S),
                },
                fault: d.pick(&[None, Some(())]).map(|()| fault),
                control: ControlConfig {
                    target: d.pick(&DURATIONS),
                    percentile: d.pick(&F64S),
                    window: d.pick(&DURATIONS),
                    down_margin: d.pick(&F64S),
                    min_samples: d.pick(&USIZES),
                    tick: d.pick(&DURATIONS),
                    hold: d.pick(&DURATIONS),
                },
            };
            if serve.validate().is_ok() {
                let (b, c) = (&serve.brownout, &serve.control);
                assert!(serve.workers <= MAX_THREADS, "{serve:?}");
                assert!(serve.pool_threads.is_none_or(|t| t <= MAX_THREADS), "{serve:?}");
                assert!(frac(serve.trace_sample_rate), "{serve:?}");
                assert!(frac(c.percentile) && frac(c.down_margin) && c.down_margin < 1.0);
                assert!(frac(b.recover_frac) && frac(b.degrade_frac) && frac(b.shed_frac));
                assert!(b.recover_frac < b.degrade_frac && b.degrade_frac <= b.shed_frac);
                if let Some(f) = &serve.fault {
                    let rates = [f.worker_panic, f.worker_death, f.slow_pass];
                    let more = [f.poison_input, f.queue_stall, f.scheduler_panic];
                    assert!(rates.into_iter().chain(more).all(frac), "{f:?}");
                }
            }
            let decode = crate::DecodeConfig {
                max_active: d.pick(&USIZES),
                max_new_tokens: d.pick(&USIZES),
                continuous: d.pick(&[false, true]),
                queue_capacity: d.pick(&USIZES),
                batch_timeout: d.pick(&DURATIONS),
            };
            if decode.validate().is_ok() {
                assert!(decode.max_active > 0 && decode.queue_capacity > 0, "{decode:?}");
            }
            // Backoff policies: the whole product of the tables, not a
            // sample of it (`base = cap = Duration::MAX` with no jitter is
            // one corner).
            for (base, cap) in DURATIONS.into_iter().flat_map(|b| DURATIONS.map(|c| (b, c))) {
                for (factor, jitter) in F64S.into_iter().flat_map(|f| F64S.map(|j| (f, j))) {
                    for max_retries in U32S {
                        let policy = crate::BackoffPolicy {
                            base,
                            cap,
                            factor,
                            jitter,
                            max_retries,
                        };
                        if policy.validate().is_ok() {
                            assert_valid_backoff(&policy);
                        }
                    }
                }
            }
        }
    }
}
