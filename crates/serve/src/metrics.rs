//! Serving metrics: latency histograms, counters, queue-depth gauge and
//! the level-switch trace.
//!
//! The histogram is log-bucketed (≈8% resolution from 1 µs to ~20 min),
//! lock-free on the record path, and supports percentile queries by
//! cumulative scan — the live counterpart of the simulator's exact
//! `flexiq_serving::stats` helpers. A separate bounded sliding window
//! keeps exact recent samples for the control policy, which needs
//! percentiles *of the last second*, not of all time.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::policy::{Decision, ServeState};
use crate::queue::lock_clean;

/// Lower edge of the first histogram bucket.
const HIST_MIN_S: f64 = 1e-6;
/// Geometric growth factor between bucket edges.
const HIST_GROWTH: f64 = 1.08;
/// Bucket count: covers 1 µs .. ~1300 s.
const HIST_BUCKETS: usize = 273;

/// A log-bucketed latency histogram with atomic counters.
pub struct LatencyHistogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum in nanoseconds, for mean latency.
    sum_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }

    fn bucket_of(seconds: f64) -> usize {
        if seconds <= HIST_MIN_S {
            return 0;
        }
        let idx = (seconds / HIST_MIN_S).ln() / HIST_GROWTH.ln();
        let mut i = (idx as usize).min(HIST_BUCKETS - 1);
        // The ln-derived index drifts a few ulps off the powi-derived
        // edges `bucket_upper` reports, so a sample exactly on an edge
        // could land one bucket high (and percentile queries would then
        // overstate it by a full growth factor). Realign against the
        // authoritative edges: bucket `i` holds
        // `bucket_upper(i-1) < s <= bucket_upper(i)`.
        while i > 0 && seconds <= Self::bucket_upper(i - 1) {
            i -= 1;
        }
        while i < HIST_BUCKETS - 1 && seconds > Self::bucket_upper(i) {
            i += 1;
        }
        i
    }

    /// Upper edge of bucket `i`, in seconds.
    fn bucket_upper(i: usize) -> f64 {
        HIST_MIN_S * HIST_GROWTH.powi(i as i32 + 1)
    }

    /// Records one latency sample.
    pub fn record(&self, latency: Duration) {
        let s = latency.as_secs_f64();
        self.buckets[Self::bucket_of(s)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns
            .fetch_add(latency.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency in seconds (0 when empty).
    pub fn mean_s(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        self.sum_ns.load(Ordering::Relaxed) as f64 / 1e9 / n as f64
    }

    /// The `p`-quantile (0..=1) in seconds, resolved to the containing
    /// bucket's upper edge. Returns 0.0 when empty.
    pub fn percentile_s(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "percentile must be in [0, 1]");
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        // Nearest-rank on the cumulative distribution.
        let rank = ((total as f64 * p).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::bucket_upper(i);
            }
        }
        Self::bucket_upper(HIST_BUCKETS - 1)
    }
}

/// An exact sliding window of `(completion instant, latency)` samples.
pub struct LatencyWindow {
    samples: Mutex<VecDeque<(Instant, f64)>>,
    span: Duration,
    max_samples: usize,
}

impl LatencyWindow {
    /// Creates a window spanning `span`, bounded to `max_samples` to cap
    /// memory under extreme throughput.
    pub fn new(span: Duration, max_samples: usize) -> Self {
        LatencyWindow {
            samples: Mutex::new(VecDeque::new()),
            span,
            max_samples,
        }
    }

    /// Records one completed request.
    pub fn record(&self, at: Instant, latency: Duration) {
        let mut w = lock_clean(&self.samples);
        w.push_back((at, latency.as_secs_f64()));
        let horizon = at.checked_sub(self.span);
        while let Some(&(t, _)) = w.front() {
            let stale = horizon.is_some_and(|h| t < h);
            if stale || w.len() > self.max_samples {
                w.pop_front();
            } else {
                break;
            }
        }
    }

    /// `(sample count, percentile seconds)` of the samples still inside
    /// the window at `now`. `None` when the window is empty.
    pub fn percentile_s(&self, now: Instant, p: f64) -> Option<(usize, f64)> {
        // Copy the live samples out, then release the lock before the
        // O(n log n) selection: workers record completions under the
        // same mutex, and the supervisor must not stall the latencies
        // it is measuring.
        let mut vals: Vec<f64> = {
            let w = lock_clean(&self.samples);
            let horizon = now.checked_sub(self.span);
            w.iter()
                .filter(|(t, _)| horizon.is_none_or(|h| *t >= h))
                .map(|&(_, l)| l)
                .collect()
        };
        if vals.is_empty() {
            return None;
        }
        let n = vals.len();
        let idx = ((n - 1) as f64 * p).round() as usize;
        let (_, v, _) = vals
            .select_nth_unstable_by(idx, |a, b| a.partial_cmp(b).expect("latencies are finite"));
        Some((n, *v))
    }
}

/// One entry of the level-switch trace: the switch and the observation
/// that caused it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelSwitch {
    /// Seconds since server start.
    pub at_s: f64,
    /// The runtime level switched to
    /// ([`flexiq_core::runtime::LEVEL_INT8`] or a schedule index).
    pub level: usize,
    /// Completions in the latency window the policy read (0 = empty).
    pub samples: usize,
    /// The window's tracked percentile, seconds (0.0 when empty).
    pub percentile_s: f64,
    /// The serve state in force at the decision — anything but `Ready`
    /// means the brownout ladder forced the level.
    pub state: ServeState,
}

/// All counters and instruments of one server.
pub struct MetricsHub {
    started_at: Instant,
    /// End-to-end latency of every completed request.
    pub latency: LatencyHistogram,
    /// Queueing delay (admission → dispatch) of every completed request.
    pub queue_delay: LatencyHistogram,
    /// Recent completions, for the feedback controller.
    pub window: LatencyWindow,
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    expired: AtomicU64,
    batches: AtomicU64,
    batched_requests: AtomicU64,
    queue_depth: AtomicUsize,
    shed: AtomicU64,
    poisoned: AtomicU64,
    exec_failed: AtomicU64,
    worker_panics: AtomicU64,
    worker_respawns: AtomicU64,
    brownout_transitions: AtomicU64,
    /// Requests dispatched into workers and not yet answered. Signed:
    /// transient interleavings may observe a decrement first.
    inflight: AtomicI64,
    /// Authoritative [`ServeState`], readable from the submit path with
    /// one relaxed load.
    serve_state: AtomicU8,
    level_trace: Mutex<Vec<LevelSwitch>>,
}

impl MetricsHub {
    /// Creates a hub whose controller window spans `window`.
    pub fn new(window: Duration) -> Self {
        MetricsHub {
            started_at: Instant::now(),
            latency: LatencyHistogram::new(),
            queue_delay: LatencyHistogram::new(),
            window: LatencyWindow::new(window, 65_536),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_requests: AtomicU64::new(0),
            queue_depth: AtomicUsize::new(0),
            shed: AtomicU64::new(0),
            poisoned: AtomicU64::new(0),
            exec_failed: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            worker_respawns: AtomicU64::new(0),
            brownout_transitions: AtomicU64::new(0),
            inflight: AtomicI64::new(0),
            serve_state: AtomicU8::new(ServeState::Ready as u8),
            level_trace: Mutex::new(Vec::new()),
        }
    }

    /// Seconds since the hub (server) was created.
    pub fn uptime_s(&self) -> f64 {
        self.started_at.elapsed().as_secs_f64()
    }

    /// Counts one admission.
    pub fn on_submitted(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one backpressure rejection.
    pub fn on_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one deadline expiry (a terminal answer: the request
    /// leaves the in-flight set).
    pub fn on_expired(&self) {
        self.expired.fetch_add(1, Ordering::Relaxed);
        self.inflight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Counts one dispatched batch of `size` requests, all now in
    /// flight.
    pub fn on_batch(&self, size: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_requests
            .fetch_add(size as u64, Ordering::Relaxed);
        self.inflight.fetch_add(size as i64, Ordering::Relaxed);
    }

    /// Records one completed request.
    pub fn on_completed(&self, done_at: Instant, latency: Duration, queue_delay: Duration) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.inflight.fetch_sub(1, Ordering::Relaxed);
        self.latency.record(latency);
        self.queue_delay.record(queue_delay);
        self.window.record(done_at, latency);
    }

    /// Counts one brownout shed (fast typed rejection at admission).
    pub fn on_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one poisoned-input rejection (a terminal answer).
    pub fn on_poisoned(&self) {
        self.poisoned.fetch_add(1, Ordering::Relaxed);
        self.inflight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Counts one request answered with an execution error (model
    /// failure or isolated pass panic — a terminal answer).
    pub fn on_exec_failed(&self) {
        self.exec_failed.fetch_add(1, Ordering::Relaxed);
        self.inflight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Counts one caught (isolated) worker pass panic.
    pub fn on_worker_panic(&self) {
        self.worker_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one supervisor worker respawn.
    pub fn on_worker_respawn(&self) {
        self.worker_respawns.fetch_add(1, Ordering::Relaxed);
    }

    /// Deadline expiries so far (one relaxed load — the supervisor's
    /// brownout tick reads this without taking a snapshot).
    pub fn expired(&self) -> u64 {
        self.expired.load(Ordering::Relaxed)
    }

    /// Batches dispatched so far (one relaxed load — the supervisor's
    /// crash-loop rule reads this as its progress mark).
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Requests dispatched and not yet answered (clamped at zero).
    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::Relaxed).max(0) as u64
    }

    /// The authoritative server state (one relaxed load).
    pub fn serve_state(&self) -> ServeState {
        ServeState::from_u8(self.serve_state.load(Ordering::Relaxed))
    }

    /// Publishes a new server state; counts the transition if it
    /// actually changed.
    pub fn set_serve_state(&self, state: ServeState) {
        let old = self.serve_state.swap(state as u8, Ordering::Relaxed);
        if old != state as u8 {
            self.brownout_transitions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Publishes the current queue depth.
    pub fn set_queue_depth(&self, depth: usize) {
        self.queue_depth.store(depth, Ordering::Relaxed);
    }

    /// Appends the level switch `decision` made (none: no entry) to the
    /// level-switch trace.
    pub fn on_level_switch(&self, decision: &Decision) {
        let Some(level) = decision.level else { return };
        let (samples, percentile_s) = decision.observed.window.unwrap_or((0, 0.0));
        lock_clean(&self.level_trace).push(LevelSwitch {
            at_s: self.uptime_s(),
            level,
            samples,
            percentile_s,
            state: decision.state.unwrap_or(decision.observed.state),
        });
    }

    /// The level-switch trace so far.
    pub fn level_trace(&self) -> Vec<LevelSwitch> {
        lock_clean(&self.level_trace).clone()
    }

    /// A point-in-time summary.
    pub fn snapshot(&self) -> Snapshot {
        let completed = self.completed.load(Ordering::Relaxed);
        let batches = self.batches.load(Ordering::Relaxed);
        let batched = self.batched_requests.load(Ordering::Relaxed);
        let uptime = self.uptime_s().max(1e-9);
        Snapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed,
            rejected: self.rejected.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            batches,
            mean_batch: if batches == 0 {
                0.0
            } else {
                batched as f64 / batches as f64
            },
            throughput_rps: completed as f64 / uptime,
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            p50_s: self.latency.percentile_s(0.50),
            p95_s: self.latency.percentile_s(0.95),
            p99_s: self.latency.percentile_s(0.99),
            mean_s: self.latency.mean_s(),
            queue_delay_p95_s: self.queue_delay.percentile_s(0.95),
            level_switches: lock_clean(&self.level_trace).len(),
            shed: self.shed.load(Ordering::Relaxed),
            poisoned: self.poisoned.load(Ordering::Relaxed),
            exec_failed: self.exec_failed.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            worker_respawns: self.worker_respawns.load(Ordering::Relaxed),
            brownout_transitions: self.brownout_transitions.load(Ordering::Relaxed),
            inflight: self.inflight(),
            state: self.serve_state(),
        }
    }

    /// Prometheus text exposition: every [`Snapshot`] field plus the
    /// global telemetry counters
    /// ([`flexiq_telemetry::prom`]).
    pub fn prometheus(&self) -> String {
        use std::fmt::Write as _;
        fn metric(out: &mut String, name: &str, help: &str, kind: &str, value: f64) {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} {kind}");
            let _ = writeln!(out, "{name} {value}");
        }
        let s = self.snapshot();
        let mut out = String::with_capacity(2048);
        metric(
            &mut out,
            "flexiq_serve_submitted_total",
            "Requests admitted.",
            "counter",
            s.submitted as f64,
        );
        metric(
            &mut out,
            "flexiq_serve_completed_total",
            "Requests answered successfully.",
            "counter",
            s.completed as f64,
        );
        metric(
            &mut out,
            "flexiq_serve_rejected_total",
            "Requests rejected by backpressure.",
            "counter",
            s.rejected as f64,
        );
        metric(
            &mut out,
            "flexiq_serve_expired_total",
            "Requests dropped at dispatch for missed deadlines.",
            "counter",
            s.expired as f64,
        );
        metric(
            &mut out,
            "flexiq_serve_batches_total",
            "Batches dispatched.",
            "counter",
            s.batches as f64,
        );
        metric(
            &mut out,
            "flexiq_serve_mean_batch",
            "Mean requests per dispatched batch.",
            "gauge",
            s.mean_batch,
        );
        metric(
            &mut out,
            "flexiq_serve_throughput_rps",
            "Completed requests per second of uptime.",
            "gauge",
            s.throughput_rps,
        );
        metric(
            &mut out,
            "flexiq_serve_queue_depth",
            "Last published admission-queue depth.",
            "gauge",
            s.queue_depth as f64,
        );
        let _ = writeln!(
            out,
            "# HELP flexiq_serve_latency_seconds End-to-end latency quantiles."
        );
        let _ = writeln!(out, "# TYPE flexiq_serve_latency_seconds gauge");
        let _ = writeln!(
            out,
            "flexiq_serve_latency_seconds{{quantile=\"0.5\"}} {}",
            s.p50_s
        );
        let _ = writeln!(
            out,
            "flexiq_serve_latency_seconds{{quantile=\"0.95\"}} {}",
            s.p95_s
        );
        let _ = writeln!(
            out,
            "flexiq_serve_latency_seconds{{quantile=\"0.99\"}} {}",
            s.p99_s
        );
        metric(
            &mut out,
            "flexiq_serve_latency_mean_seconds",
            "Mean end-to-end latency.",
            "gauge",
            s.mean_s,
        );
        metric(
            &mut out,
            "flexiq_serve_queue_delay_p95_seconds",
            "95th-percentile queueing delay.",
            "gauge",
            s.queue_delay_p95_s,
        );
        metric(
            &mut out,
            "flexiq_serve_level_switches_total",
            "Entries in the level-switch trace.",
            "counter",
            s.level_switches as f64,
        );
        metric(
            &mut out,
            "flexiq_serve_shed_total",
            "Requests shed by the brownout machine at admission.",
            "counter",
            s.shed as f64,
        );
        metric(
            &mut out,
            "flexiq_serve_poisoned_total",
            "Requests rejected for non-finite (poisoned) inputs.",
            "counter",
            s.poisoned as f64,
        );
        metric(
            &mut out,
            "flexiq_serve_exec_failed_total",
            "Requests answered with an execution error.",
            "counter",
            s.exec_failed as f64,
        );
        metric(
            &mut out,
            "flexiq_serve_worker_panics_total",
            "Worker pass panics caught and answered as typed errors.",
            "counter",
            s.worker_panics as f64,
        );
        metric(
            &mut out,
            "flexiq_serve_worker_respawns_total",
            "Worker threads respawned by the supervisor.",
            "counter",
            s.worker_respawns as f64,
        );
        metric(
            &mut out,
            "flexiq_serve_brownout_transitions_total",
            "Brownout/drain state transitions.",
            "counter",
            s.brownout_transitions as f64,
        );
        metric(
            &mut out,
            "flexiq_serve_state",
            "Server state: 0 ready, 1 degraded, 2 shedding, 3 draining.",
            "gauge",
            s.state as u8 as f64,
        );
        metric(
            &mut out,
            "flexiq_serve_inflight",
            "Requests dispatched and not yet answered.",
            "gauge",
            s.inflight as f64,
        );
        out.push_str(&flexiq_telemetry::prom::render(
            &flexiq_telemetry::counters(),
        ));
        out
    }
}

/// A point-in-time metrics summary.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Requests admitted.
    pub submitted: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests rejected by backpressure.
    pub rejected: u64,
    /// Requests dropped at dispatch for missed deadlines.
    pub expired: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Mean requests per batch.
    pub mean_batch: f64,
    /// Completed requests per second of uptime.
    pub throughput_rps: f64,
    /// Last published queue depth.
    pub queue_depth: usize,
    /// Median end-to-end latency, seconds.
    pub p50_s: f64,
    /// 95th-percentile end-to-end latency, seconds.
    pub p95_s: f64,
    /// 99th-percentile end-to-end latency, seconds.
    pub p99_s: f64,
    /// Mean end-to-end latency, seconds.
    pub mean_s: f64,
    /// 95th-percentile queueing delay, seconds.
    pub queue_delay_p95_s: f64,
    /// Entries in the level-switch trace.
    pub level_switches: usize,
    /// Requests shed by the brownout machine at admission.
    pub shed: u64,
    /// Requests rejected for non-finite (poisoned) inputs.
    pub poisoned: u64,
    /// Requests answered with an execution error (model failure or
    /// isolated pass panic).
    pub exec_failed: u64,
    /// Worker pass panics caught and answered as typed errors.
    pub worker_panics: u64,
    /// Worker threads respawned by the supervisor.
    pub worker_respawns: u64,
    /// Brownout/drain state transitions.
    pub brownout_transitions: u64,
    /// Requests dispatched and not yet answered.
    pub inflight: u64,
    /// The server state at snapshot time.
    pub state: ServeState,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Observation;

    /// A level decision made on an over-target window while `Degraded`.
    fn decision(level: usize) -> Decision {
        Decision {
            level: Some(level),
            state: Some(ServeState::Degraded),
            observed: Observation {
                window: Some((32, 0.25)),
                depth_frac: 0.9,
                expired_delta: 0,
                state: ServeState::Ready,
            },
        }
    }

    #[test]
    fn histogram_percentiles_bracket_known_distribution() {
        let h = LatencyHistogram::new();
        // 100 samples: 1ms .. 100ms.
        for i in 1..=100u64 {
            h.record(Duration::from_millis(i));
        }
        let p50 = h.percentile_s(0.50);
        let p95 = h.percentile_s(0.95);
        let p99 = h.percentile_s(0.99);
        // Log-bucketed: answers land within one growth factor of truth.
        assert!((0.045..=0.06).contains(&p50), "p50 {p50}");
        assert!((0.085..=0.11).contains(&p95), "p95 {p95}");
        assert!((0.09..=0.115).contains(&p99), "p99 {p99}");
        assert!((h.mean_s() - 0.0505).abs() < 1e-3);
        assert_eq!(h.count(), 100);
    }

    #[test]
    fn bucket_of_agrees_with_bucket_upper_edges() {
        // A sample exactly on bucket i's upper edge must land in bucket
        // i (edges are inclusive above), and a sample one ulp higher in
        // bucket i+1 — for every bucket, despite ln/powi float drift.
        for i in 0..HIST_BUCKETS - 1 {
            let edge = LatencyHistogram::bucket_upper(i);
            assert_eq!(
                LatencyHistogram::bucket_of(edge),
                i,
                "sample on upper edge of bucket {i} drifted"
            );
            let above = edge * (1.0 + 1e-15);
            assert_eq!(
                LatencyHistogram::bucket_of(above),
                i + 1,
                "sample just above bucket {i}'s edge drifted"
            );
        }
        // And percentile_s of a single edge-exact sample reports the
        // edge it landed on, not one growth factor high.
        let h = LatencyHistogram::new();
        let edge = LatencyHistogram::bucket_upper(100);
        h.record(Duration::from_secs_f64(edge));
        assert!((h.percentile_s(0.5) - edge).abs() / edge < 1e-12);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.percentile_s(0.99), 0.0);
        assert_eq!(h.mean_s(), 0.0);
    }

    #[test]
    fn window_prunes_old_samples() {
        let w = LatencyWindow::new(Duration::from_millis(100), 1024);
        let t0 = Instant::now();
        w.record(t0, Duration::from_millis(10));
        let late = t0 + Duration::from_millis(300);
        w.record(late, Duration::from_millis(20));
        // At `late`, the first sample is outside the 100ms span.
        let (n, p) = w.percentile_s(late, 0.5).unwrap();
        assert_eq!(n, 1);
        assert!((p - 0.020).abs() < 1e-9);
    }

    #[test]
    fn window_caps_sample_count() {
        let w = LatencyWindow::new(Duration::from_secs(3600), 16);
        let t0 = Instant::now();
        for i in 0..100 {
            w.record(t0 + Duration::from_micros(i), Duration::from_millis(1));
        }
        let (n, _) = w.percentile_s(t0 + Duration::from_millis(1), 0.5).unwrap();
        assert!(n <= 16, "window exceeded its bound: {n}");
    }

    #[test]
    fn hub_counters_and_trace() {
        let m = MetricsHub::new(Duration::from_secs(1));
        m.on_submitted();
        m.on_submitted();
        m.on_rejected();
        m.on_expired();
        m.on_batch(4);
        let now = Instant::now();
        m.on_completed(now, Duration::from_millis(5), Duration::from_millis(1));
        m.on_level_switch(&decision(2));
        m.set_queue_depth(7);
        let s = m.snapshot();
        assert_eq!(s.submitted, 2);
        assert_eq!(s.completed, 1);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.expired, 1);
        assert_eq!(s.batches, 1);
        assert_eq!(s.mean_batch, 4.0);
        assert_eq!(s.queue_depth, 7);
        assert_eq!(s.level_switches, 1);
        let sw = m.level_trace()[0];
        assert_eq!((sw.level, sw.samples, sw.percentile_s), (2, 32, 0.25));
        assert_eq!(sw.state, ServeState::Degraded, "the post-ladder state");
        assert!(s.p50_s > 0.0);
    }

    #[test]
    fn fault_counters_inflight_and_state_round_trip() {
        let m = MetricsHub::new(Duration::from_secs(1));
        assert_eq!(m.serve_state(), ServeState::Ready);
        m.on_batch(4);
        assert_eq!(m.inflight(), 4);
        m.on_completed(
            Instant::now(),
            Duration::from_millis(1),
            Duration::from_millis(1),
        );
        m.on_expired();
        m.on_exec_failed();
        m.on_poisoned();
        assert_eq!(m.inflight(), 0, "every terminal answer decrements");
        m.on_shed();
        m.on_worker_panic();
        m.on_worker_respawn();
        m.set_serve_state(ServeState::Degraded);
        m.set_serve_state(ServeState::Degraded); // no-op: same state
        m.set_serve_state(ServeState::Shedding);
        let s = m.snapshot();
        assert_eq!(s.shed, 1);
        assert_eq!(s.poisoned, 1);
        assert_eq!(s.exec_failed, 1);
        assert_eq!(s.worker_panics, 1);
        assert_eq!(s.worker_respawns, 1);
        assert_eq!(s.brownout_transitions, 2);
        assert_eq!(s.state, ServeState::Shedding);
        assert_eq!(s.inflight, 0);
    }

    #[test]
    fn poisoned_window_lock_recovers_instead_of_cascading() {
        use std::sync::Arc;
        // Regression for the supervision layer's poison policy: a
        // thread that panics while holding the window lock must not
        // take every later recorder down with it.
        let m = Arc::new(MetricsHub::new(Duration::from_secs(1)));
        let m2 = Arc::clone(&m);
        let t = std::thread::spawn(move || {
            let _guard = m2.window.samples.lock().unwrap();
            panic!("die holding the window lock");
        });
        assert!(t.join().is_err(), "the helper thread must panic");
        assert!(m.window.samples.is_poisoned());
        // Both paths still work on the poisoned mutex.
        let now = Instant::now();
        m.on_completed(now, Duration::from_millis(3), Duration::from_millis(1));
        let (n, p) = m.window.percentile_s(now, 0.5).expect("window readable");
        assert_eq!(n, 1);
        assert!((p - 0.003).abs() < 1e-9);
        // Same for the level trace.
        let m3 = Arc::clone(&m);
        let t = std::thread::spawn(move || {
            let _guard = m3.level_trace.lock().unwrap();
            panic!("die holding the trace lock");
        });
        assert!(t.join().is_err());
        m.on_level_switch(&decision(1));
        assert_eq!(m.level_trace().len(), 1);
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let m = MetricsHub::new(Duration::from_secs(1));
        m.on_submitted();
        m.on_completed(
            Instant::now(),
            Duration::from_millis(5),
            Duration::from_millis(1),
        );
        let text = m.prometheus();
        assert!(text.contains("# TYPE flexiq_serve_submitted_total counter"));
        assert!(text.contains("flexiq_serve_submitted_total 1"));
        assert!(text.contains("flexiq_serve_latency_seconds{quantile=\"0.95\"}"));
        assert!(text.contains("# TYPE flexiq_gemm_calls_total counter"));
        assert!(text.contains("# TYPE flexiq_serve_state gauge"));
        assert!(text.contains("flexiq_serve_shed_total 0"));
        assert!(text.contains("flexiq_serve_worker_respawns_total 0"));
        assert!(text.contains("# TYPE flexiq_faults_injected_total counter"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.rsplit_once(' ').expect("metric line");
            assert!(!name.is_empty());
            assert!(value.parse::<f64>().is_ok(), "bad value in {line:?}");
        }
    }
}
