//! Server configuration.

use std::time::Duration;

use crate::error::{Result, ServeError};
use crate::fault::FaultConfig;
use crate::policy::BrownoutConfig;

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
        if self.workers == 0 {
            return Err(ServeError::Config("workers must be positive".into()));
        }
        if self.pool_threads == Some(0) {
            return Err(ServeError::Config(
                "pool_threads must be positive when set".into(),
            ));
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
}
