//! Load generators for driving a live [`Server`].
//!
//! Two classic shapes:
//!
//! * **Open loop** — arrivals follow a fixed timestamp trace (reuse the
//!   simulator's generators in `flexiq_serving::arrivals`), regardless
//!   of how the server is doing. This is the §8.3 serving experiment:
//!   offered load is exogenous, overload shows up as queueing, deadline
//!   misses and backpressure.
//! * **Closed loop** — `clients` concurrent callers each keep exactly
//!   one request in flight. Throughput self-limits to what the server
//!   sustains; this is the shape benchmarks use to measure capacity.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use flexiq_tensor::Tensor;

use crate::error::ServeError;
use crate::retry::{admission_retryable, retry_with, BackoffPolicy};
use crate::server::Server;

/// Outcome counts of one load-generation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadReport {
    /// Requests the generator attempted to submit.
    pub offered: u64,
    /// Requests admitted by the server.
    pub accepted: u64,
    /// Requests rejected by backpressure.
    pub rejected: u64,
    /// Responses received successfully.
    pub completed: u64,
    /// Requests answered with a missed deadline.
    pub expired: u64,
    /// Submission failures other than backpressure (e.g. shutdown).
    pub failed: u64,
    /// Admitted requests that failed in execution or lost their reply
    /// channel. Kept separate from `failed` so
    /// `offered == accepted + rejected + failed` and
    /// `accepted == completed + expired + exec_failed` both hold.
    pub exec_failed: u64,
    /// Closed loop only: admission retries across all clients (equal to
    /// `rejected` — each counted rejection was retried).
    pub retries: u64,
    /// Closed loop only: total wall-clock spent sleeping in backoff
    /// between retries, seconds, summed over clients.
    pub backoff_s: f64,
    /// Wall-clock duration of the run, seconds.
    pub wall_s: f64,
}

impl LoadReport {
    /// Completed requests per wall-clock second.
    pub fn throughput_rps(&self) -> f64 {
        if self.wall_s <= 0.0 {
            0.0
        } else {
            self.completed as f64 / self.wall_s
        }
    }
}

/// Replays `arrivals` (seconds, ascending — e.g. from
/// `flexiq_serving::arrivals::piecewise_poisson`) against `server`,
/// submitting `inputs` round-robin. `time_scale` stretches (`> 1`) or
/// compresses (`< 1`) the trace's clock.
///
/// Responses are collected on a separate thread so slow responses never
/// delay subsequent arrivals (a genuinely open loop).
pub fn open_loop(
    server: &Server,
    inputs: &[Tensor],
    arrivals: &[f64],
    time_scale: f64,
) -> LoadReport {
    assert!(!inputs.is_empty(), "open_loop needs at least one input");
    assert!(time_scale > 0.0, "time_scale must be positive");
    let completed = AtomicU64::new(0);
    let expired = AtomicU64::new(0);
    let exec_failed = AtomicU64::new(0);
    let mut report = LoadReport::default();
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        let (tx, rx) = std::sync::mpsc::channel::<crate::request::Ticket>();
        let completed = &completed;
        let expired = &expired;
        let exec_failed = &exec_failed;
        // Reply collector: waits tickets in submission order. FIFO
        // dispatch keeps head-of-line waits short, and ordering does not
        // affect the counts.
        let collector = scope.spawn(move || {
            while let Ok(ticket) = rx.recv() {
                match ticket.wait() {
                    Ok(_) => completed.fetch_add(1, Ordering::Relaxed),
                    Err(ServeError::DeadlineExpired) => expired.fetch_add(1, Ordering::Relaxed),
                    Err(_) => exec_failed.fetch_add(1, Ordering::Relaxed),
                };
            }
        });
        for (i, &at) in arrivals.iter().enumerate() {
            let due = t0 + Duration::from_secs_f64(at * time_scale);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            report.offered += 1;
            match server.submit(inputs[i % inputs.len()].clone()) {
                Ok(ticket) => {
                    report.accepted += 1;
                    tx.send(ticket).expect("collector alive");
                }
                Err(ServeError::QueueFull { .. }) => report.rejected += 1,
                Err(_) => report.failed += 1,
            }
        }
        drop(tx);
        collector.join().expect("collector thread");
    });
    report.completed = completed.load(Ordering::Relaxed);
    report.expired = expired.load(Ordering::Relaxed);
    report.exec_failed = exec_failed.load(Ordering::Relaxed);
    report.wall_s = t0.elapsed().as_secs_f64();
    report
}

/// Runs `clients` concurrent callers, each submitting `per_client`
/// requests back-to-back (one in flight per client).
///
/// On backpressure (a full queue, or the brownout ladder shedding) a
/// client retries under the shared [`crate::retry`] policy — bounded
/// exponential backoff with deterministic jitter, seeded per client so
/// colliding clients decorrelate instead of retrying in lockstep. In
/// the report, `rejected` counts retry attempts (it can exceed
/// `offered`), `retries`/`backoff_s` expose the retry cost, and
/// `accepted` counts logical requests that were eventually admitted.
pub fn closed_loop(
    server: &Server,
    inputs: &[Tensor],
    clients: usize,
    per_client: usize,
) -> LoadReport {
    assert!(!inputs.is_empty(), "closed_loop needs at least one input");
    let completed = AtomicU64::new(0);
    let expired = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    let exec_failed = AtomicU64::new(0);
    let rejected = AtomicU64::new(0);
    let offered = AtomicU64::new(0);
    let admitted = AtomicU64::new(0);
    let retries = AtomicU64::new(0);
    let backoff_us = AtomicU64::new(0);
    let policy = BackoffPolicy::default();
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let completed = &completed;
            let expired = &expired;
            let failed = &failed;
            let exec_failed = &exec_failed;
            let rejected = &rejected;
            let offered = &offered;
            let admitted = &admitted;
            let retries = &retries;
            let backoff_us = &backoff_us;
            let policy = &policy;
            let server = &server;
            scope.spawn(move || {
                for k in 0..per_client {
                    let input = inputs[(c + k * clients) % inputs.len()].clone();
                    offered.fetch_add(1, Ordering::Relaxed);
                    // Seed per (client, request): deterministic jitter,
                    // decorrelated across colliding clients.
                    let seed = (c as u64) << 32 | k as u64;
                    let (outcome, stats) = retry_with(
                        policy,
                        seed,
                        || server.submit(input.clone()),
                        |e| {
                            let again = admission_retryable(e);
                            if again {
                                rejected.fetch_add(1, Ordering::Relaxed);
                            }
                            again
                        },
                    );
                    retries.fetch_add(stats.retries, Ordering::Relaxed);
                    backoff_us.fetch_add(stats.backoff.as_micros() as u64, Ordering::Relaxed);
                    let ticket = match outcome {
                        Ok(t) => {
                            admitted.fetch_add(1, Ordering::Relaxed);
                            Some(t)
                        }
                        Err(_) => None,
                    };
                    match ticket.map(|t| t.wait()) {
                        Some(Ok(_)) => completed.fetch_add(1, Ordering::Relaxed),
                        Some(Err(ServeError::DeadlineExpired)) => {
                            expired.fetch_add(1, Ordering::Relaxed)
                        }
                        Some(Err(_)) => exec_failed.fetch_add(1, Ordering::Relaxed),
                        None => failed.fetch_add(1, Ordering::Relaxed),
                    };
                }
            });
        }
    });
    LoadReport {
        offered: offered.load(Ordering::Relaxed),
        accepted: admitted.load(Ordering::Relaxed),
        rejected: rejected.load(Ordering::Relaxed),
        completed: completed.load(Ordering::Relaxed),
        expired: expired.load(Ordering::Relaxed),
        failed: failed.load(Ordering::Relaxed),
        exec_failed: exec_failed.load(Ordering::Relaxed),
        retries: retries.load(Ordering::Relaxed),
        backoff_s: backoff_us.load(Ordering::Relaxed) as f64 / 1e6,
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServeConfig;
    use crate::server::Server;
    use crate::worker::tests::tiny_runtime;
    use std::sync::Arc;

    #[test]
    fn closed_loop_completes_everything_under_retry() {
        let (rt, inputs) = tiny_runtime();
        let cfg = ServeConfig {
            workers: 2,
            max_batch: 4,
            batch_timeout: Duration::from_millis(1),
            queue_capacity: 1,
            ..Default::default()
        };
        let server = Server::start_fixed(Arc::clone(&rt), cfg).unwrap();
        let report = closed_loop(&server, &inputs, 3, 5);
        // `rejected` counts retry attempts and may exceed `offered`;
        // `accepted` must still equal the logical requests admitted.
        assert_eq!(report.offered, 15);
        assert_eq!(
            report.accepted, 15,
            "all requests eventually admitted: {report:?}"
        );
        assert_eq!(
            report.completed, 15,
            "closed loop with retry must finish all: {report:?}"
        );
        assert_eq!(report.failed + report.exec_failed, 0);
        assert_eq!(
            report.retries, report.rejected,
            "every counted rejection was a retry attempt"
        );
        if report.retries > 0 {
            assert!(report.backoff_s > 0.0, "retries must have backed off");
        }
        assert!(report.throughput_rps() > 0.0);
        server.shutdown();
    }

    #[test]
    fn open_loop_counts_add_up() {
        let (rt, inputs) = tiny_runtime();
        let cfg = ServeConfig {
            workers: 2,
            max_batch: 8,
            batch_timeout: Duration::from_millis(1),
            ..Default::default()
        };
        let server = Server::start_fixed(Arc::clone(&rt), cfg).unwrap();
        // 40 arrivals over 40ms of scaled time.
        let arrivals: Vec<f64> = (0..40).map(|i| i as f64 * 0.001).collect();
        let report = open_loop(&server, &inputs, &arrivals, 1.0);
        assert_eq!(report.offered, 40);
        assert_eq!(
            report.accepted,
            report.completed + report.expired + report.exec_failed,
            "every accepted request must be answered: {report:?}"
        );
        assert_eq!(
            report.offered,
            report.accepted + report.rejected + report.failed
        );
        server.shutdown();
    }
}
