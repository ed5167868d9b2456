//! Bounded retry with exponential backoff and deterministic jitter.
//!
//! One shared policy for every "the queue pushed back, try again"
//! site: the chaos suite's probes, the fault-tolerance sweep's clients,
//! and external callers hitting [`ServeError::QueueFull`] or
//! [`ServeError::Shedding`]. The
//! jitter is *deterministic* (splitmix64 over `seed ^ attempt`) so two
//! runs with the same seed back off identically — load tests stay
//! reproducible, yet distinct seeds decorrelate competing clients.

use std::time::Duration;

use crate::error::ServeError;
use crate::fault::splitmix64;

/// Backoff shape: exponential with full-range deterministic jitter,
/// capped, bounded in attempt count.
#[derive(Clone, Debug, PartialEq)]
pub struct BackoffPolicy {
    /// First delay (before jitter).
    pub base: Duration,
    /// Upper bound on any single delay.
    pub cap: Duration,
    /// Growth factor per attempt.
    pub factor: f64,
    /// Jitter fraction in `[0, 1]`: each delay is scaled by a
    /// deterministic factor drawn from `[1 - jitter, 1]`.
    pub jitter: f64,
    /// Maximum number of retries (delays handed out) before giving up.
    pub max_retries: u32,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            base: Duration::from_micros(200),
            cap: Duration::from_millis(20),
            factor: 2.0,
            jitter: 0.5,
            max_retries: 10_000,
        }
    }
}

impl BackoffPolicy {
    /// Validates the policy's numeric ranges.
    pub fn validate(&self) -> crate::error::Result<()> {
        if !(self.factor.is_finite() && self.factor >= 1.0) {
            return Err(ServeError::Config(format!(
                "backoff factor must be >= 1, got {}",
                self.factor
            )));
        }
        if !(self.jitter.is_finite() && (0.0..=1.0).contains(&self.jitter)) {
            return Err(ServeError::Config(format!(
                "backoff jitter must be in [0, 1], got {}",
                self.jitter
            )));
        }
        if self.cap < self.base {
            return Err(ServeError::Config(
                "backoff cap must be >= base".to_string(),
            ));
        }
        Ok(())
    }
}

/// Iterator-like state over one retry sequence.
#[derive(Clone, Debug)]
pub struct Backoff {
    policy: BackoffPolicy,
    seed: u64,
    attempt: u32,
}

impl Backoff {
    /// A fresh sequence under `policy`; `seed` decorrelates clients.
    pub fn new(policy: BackoffPolicy, seed: u64) -> Self {
        Backoff {
            policy,
            seed,
            attempt: 0,
        }
    }

    /// Retries handed out so far.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// The next delay, or `None` when the retry budget is exhausted.
    pub fn next_delay(&mut self) -> Option<Duration> {
        if self.attempt >= self.policy.max_retries {
            return None;
        }
        // base · factor^attempt, capped — computed in f64 seconds so
        // large exponents saturate at the cap instead of overflowing.
        let exp = i32::try_from(self.attempt).unwrap_or(i32::MAX);
        let raw = self.policy.base.as_secs_f64() * self.policy.factor.powi(exp);
        let cap = self.policy.cap;
        let capped = raw.min(cap.as_secs_f64());
        // Deterministic jitter in [1 - jitter, 1].
        let u =
            (splitmix64(self.seed ^ u64::from(self.attempt)) >> 11) as f64 / (1u64 << 53) as f64;
        let scale = 1.0 - self.policy.jitter * u;
        self.attempt += 1;
        // The f64 round trip can land past `cap`, or past what a
        // `Duration` holds (`Duration::MAX` rounds up to 2^64 s).
        Some(Duration::try_from_secs_f64(capped * scale).map_or(cap, |d| d.min(cap)))
    }

    /// The sequence as it stands after `attempt` delays.
    #[cfg(test)]
    pub(crate) fn at_attempt(mut self, attempt: u32) -> Self {
        self.attempt = attempt;
        self
    }

    /// Resets the sequence (e.g. after a successful admission).
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

/// Outcome accounting for a retried operation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RetryStats {
    /// Delays actually slept.
    pub retries: u64,
    /// Total time spent sleeping in backoff.
    pub backoff: Duration,
}

/// Runs `op` until it succeeds, returns a non-retryable error, or the
/// policy's retry budget is exhausted (in which case the last error is
/// returned). `retryable` classifies errors; sleeping happens here.
pub fn retry_with<T, E>(
    policy: &BackoffPolicy,
    seed: u64,
    mut op: impl FnMut() -> std::result::Result<T, E>,
    mut retryable: impl FnMut(&E) -> bool,
) -> (std::result::Result<T, E>, RetryStats) {
    let mut backoff = Backoff::new(policy.clone(), seed);
    let mut stats = RetryStats::default();
    loop {
        match op() {
            Ok(v) => return (Ok(v), stats),
            Err(e) if retryable(&e) => match backoff.next_delay() {
                Some(d) => {
                    stats.retries += 1;
                    stats.backoff += d;
                    std::thread::sleep(d);
                }
                None => return (Err(e), stats),
            },
            Err(e) => return (Err(e), stats),
        }
    }
}

/// The admission-retry classifier for clients of either server: queue backpressure and brownout shedding are worth waiting
/// out; everything else is terminal.
pub fn admission_retryable(e: &ServeError) -> bool {
    matches!(e, ServeError::QueueFull { .. } | ServeError::Shedding)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_grow_cap_and_stay_deterministic() {
        let policy = BackoffPolicy {
            base: Duration::from_micros(100),
            cap: Duration::from_millis(1),
            factor: 2.0,
            jitter: 0.5,
            max_retries: 32,
        };
        policy.validate().unwrap();
        let mut a = Backoff::new(policy.clone(), 9);
        let mut b = Backoff::new(policy.clone(), 9);
        let da: Vec<_> = (0..32).map(|_| a.next_delay().unwrap()).collect();
        let db: Vec<_> = (0..32).map(|_| b.next_delay().unwrap()).collect();
        assert_eq!(da, db, "same seed ⇒ same schedule");
        assert!(a.next_delay().is_none(), "budget exhausted");
        for (i, d) in da.iter().enumerate() {
            assert!(*d <= Duration::from_millis(1), "attempt {i} over cap");
            // Jitter 0.5 ⇒ at least half the un-jittered delay.
            let raw = 100e-6 * 2f64.powi(i as i32);
            assert!(d.as_secs_f64() >= 0.5 * raw.min(1e-3) - 1e-12);
        }
        // A different seed produces a different (jittered) schedule.
        let mut c = Backoff::new(policy, 10);
        let dc: Vec<_> = (0..32).map(|_| c.next_delay().unwrap()).collect();
        assert_ne!(da, dc);
    }

    #[test]
    fn retry_with_respects_classifier_and_budget() {
        let policy = BackoffPolicy {
            base: Duration::from_micros(10),
            cap: Duration::from_micros(10),
            max_retries: 3,
            ..BackoffPolicy::default()
        };
        // Succeeds on the third try.
        let mut n = 0;
        let (r, stats) = retry_with(
            &policy,
            1,
            || {
                n += 1;
                if n < 3 {
                    Err(ServeError::QueueFull { capacity: 1 })
                } else {
                    Ok(n)
                }
            },
            admission_retryable,
        );
        assert_eq!(r.unwrap(), 3);
        assert_eq!(stats.retries, 2);
        assert!(stats.backoff > Duration::ZERO);

        // Non-retryable error is returned immediately.
        let (r, stats) = retry_with(
            &policy,
            1,
            || Err::<(), _>(ServeError::ShuttingDown),
            admission_retryable,
        );
        assert_eq!(r.unwrap_err(), ServeError::ShuttingDown);
        assert_eq!(stats.retries, 0);

        // Budget exhaustion returns the last retryable error.
        let (r, stats) = retry_with(
            &policy,
            1,
            || Err::<(), _>(ServeError::Shedding),
            admission_retryable,
        );
        assert_eq!(r.unwrap_err(), ServeError::Shedding);
        assert_eq!(stats.retries, 3);
    }

    #[test]
    fn policy_validation_rejects_bad_shapes() {
        let bad = |f: fn(&mut BackoffPolicy)| {
            let mut p = BackoffPolicy::default();
            f(&mut p);
            p.validate()
        };
        assert!(bad(|p| p.factor = 0.5).is_err());
        assert!(bad(|p| p.jitter = 2.0).is_err());
        assert!(bad(|p| p.cap = Duration::ZERO).is_err());
    }
}
