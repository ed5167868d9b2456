//! The discrete-event batching server: one `flexiq-serve` worker under
//! the live control plane, on a virtual clock.
//!
//! [`simulate`] replays sorted arrival timestamps through what one worker
//! of the live server does — admission into the bounded queue
//! (`queue_capacity` rejections, refusals while Shedding), `pop_batch`
//! (`max_batch`, `batch_timeout`), `default_deadline` expiry at dispatch,
//! then one pass at the level in force — while the real
//! [`flexiq_serve::Policy`] is ticked every [`SUPERVISE_TICK`] with an
//! [`Observation`] built the way the live supervisor builds it. Only the
//! pass time is modelled ([`ServiceModel`]); levels are the runtime's
//! encoding ([`LEVEL_INT8`] or a schedule index) end to end.

use std::collections::VecDeque;

use flexiq_serve::policy::{rung, LEVEL_INT8};
use flexiq_serve::{Observation, Policy, ServeConfig, ServeState, SUPERVISE_TICK};

use crate::stats::percentile;

/// Service-time model: seconds to process a batch at a runtime level.
pub trait ServiceModel {
    /// Seconds to serve `batch` requests at runtime `level`.
    fn service_s(&self, batch: usize, level: usize) -> f64;

    /// Number of schedule levels (INT8 excluded), ordered by 4-bit
    /// ratio: the last is the cheapest.
    fn levels(&self) -> usize;
}

/// A simple table-backed service model (also handy in tests).
#[derive(Debug, Clone)]
pub struct TableService {
    /// Marginal seconds per request in a batch, by ratchet rung:
    /// `[INT8, schedule level 0, schedule level 1, …]`.
    pub per_request_s: Vec<f64>,
    /// Fixed per-batch overhead, seconds.
    pub batch_overhead_s: f64,
}

impl ServiceModel for TableService {
    fn service_s(&self, batch: usize, level: usize) -> f64 {
        self.batch_overhead_s + self.per_request_s[rung(level)] * batch as f64
    }

    fn levels(&self) -> usize {
        self.per_request_s.len() - 1
    }
}

/// One served request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestRecord {
    /// Arrival timestamp, seconds.
    pub arrival: f64,
    /// Completion timestamp, seconds.
    pub done: f64,
    /// Runtime level the batch ran at.
    pub level: usize,
}

impl RequestRecord {
    /// End-to-end response time (queueing + service), seconds.
    pub fn latency(&self) -> f64 {
        self.done - self.arrival
    }
}

/// Simulation outcome: every arrival ends as exactly one of a record,
/// a rejection, a shed or an expiry.
#[derive(Debug, Clone, Default)]
pub struct SimResult {
    /// Every completed request in completion order.
    pub records: Vec<RequestRecord>,
    /// Refused at admission: the queue was full.
    pub rejected: usize,
    /// Refused at admission: the server was Shedding.
    pub shed: usize,
    /// Past their deadline at dispatch.
    pub expired: usize,
    /// `(time, runtime level)` of every level switch the policy made.
    pub level_changes: Vec<(f64, usize)>,
    /// `(time, state)` of every brownout transition.
    pub state_changes: Vec<(f64, ServeState)>,
}

impl SimResult {
    /// All response times in seconds.
    pub fn latencies(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.latency()).collect()
    }

    /// `(completion time, latency)` pairs for windowed series.
    pub fn time_series(&self) -> Vec<(f64, f64)> {
        self.records.iter().map(|r| (r.done, r.latency())).collect()
    }

    /// Mean ratchet rung (0 = INT8) weighted by served requests.
    pub fn mean_rung(&self) -> f64 {
        let sum: usize = self.records.iter().map(|r| rung(r.level)).sum();
        sum as f64 / self.records.len().max(1) as f64
    }
}

/// Serves sorted `arrivals` (seconds) starting at runtime `level` with
/// the server `cfg` describes; `adaptive` lets the policy move the level
/// (else only the brownout ladder runs, as on a fixed-level server).
/// Runs until every arrival is answered and the policy is at rest:
/// `Ready` and, if adaptive, back at INT8.
pub fn simulate(
    arrivals: &[f64],
    service: &dyn ServiceModel,
    level: usize,
    cfg: &ServeConfig,
    adaptive: bool,
) -> SimResult {
    let cheapest = service.levels().checked_sub(1).unwrap_or(LEVEL_INT8);
    let mut policy = Policy::new(cfg, adaptive, service.levels(), cheapest, level);
    let tick_s = SUPERVISE_TICK.as_secs_f64();
    let timeout_s = cfg.batch_timeout.as_secs_f64();
    let deadline_s = cfg
        .default_deadline
        .map_or(f64::INFINITY, |d| d.as_secs_f64());
    let window_s = cfg.control.window.as_secs_f64();
    let mut res = SimResult::default();
    let (mut level, mut state) = (level, ServeState::Ready);
    let mut queue = VecDeque::new();
    // The batch the worker holds open (its first member's take time) and
    // the end of the pass it runs.
    let (mut batch, mut opened, mut busy_until) = (Vec::new(), 0.0, 0.0);
    let (mut next, mut ticks, mut expired_seen) = (0, 1u64, 0);
    loop {
        let tick_at = ticks as f64 * tick_s;
        let worker_at = match (batch.is_empty(), queue.is_empty()) {
            (false, _) => opened + timeout_s,
            (true, false) => busy_until,
            (true, true) => f64::INFINITY,
        };
        let now = arrivals
            .get(next)
            .map_or(tick_at, |&a| a.min(tick_at))
            .min(worker_at);
        while let Some(&a) = arrivals.get(next).filter(|&&a| a <= now) {
            next += 1;
            if state == ServeState::Shedding {
                res.shed += 1;
            } else if queue.len() >= cfg.queue_capacity {
                res.rejected += 1;
            } else {
                queue.push_back(a);
            }
        }
        // The worker: take the head once free, fill to `max_batch`, and
        // dispatch when full or when the batching window closes.
        while busy_until <= now {
            if batch.is_empty() {
                let Some(a) = queue.pop_front() else { break };
                batch.push(a);
                opened = now;
            }
            let fill = (cfg.max_batch - batch.len()).min(queue.len());
            batch.extend(queue.drain(..fill));
            if batch.len() < cfg.max_batch && now < opened + timeout_s {
                break;
            }
            let taken = batch.len();
            batch.retain(|&a| now < a + deadline_s);
            res.expired += taken - batch.len();
            if !batch.is_empty() {
                busy_until = now + service.service_s(batch.len(), level);
                let records = batch.drain(..).map(|arrival| RequestRecord {
                    arrival,
                    done: busy_until,
                    level,
                });
                res.records.extend(records);
            }
        }
        if now < tick_at {
            continue;
        }
        // The supervisor tick: completions inside the window (records are
        // in completion order; the pass in flight is not done yet).
        ticks += 1;
        let window = || {
            let done = &res.records[..res.records.partition_point(|r| r.done <= now)];
            let inside = &done[done.partition_point(|r| r.done < now - window_s)..];
            let lat: Vec<f64> = inside.iter().map(RequestRecord::latency).collect();
            (!lat.is_empty()).then(|| (lat.len(), percentile(&lat, cfg.control.percentile)))
        };
        let observed = Observation {
            window: policy.level_due(now).then(window).flatten(),
            depth_frac: queue.len() as f64 / cfg.queue_capacity as f64,
            expired_delta: (res.expired - expired_seen) as u64,
            state,
        };
        expired_seen = res.expired;
        let decision = policy.tick(now, observed);
        if let Some(s) = decision.state {
            state = s;
            res.state_changes.push((now, s));
        }
        if let Some(l) = decision.level {
            level = l;
            res.level_changes.push((now, l));
        }
        let answered =
            next == arrivals.len() && queue.is_empty() && batch.is_empty() && busy_until <= now;
        if answered && state == ServeState::Ready && (!adaptive || level == LEVEL_INT8) {
            return res;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::{piecewise_poisson, poisson};
    use crate::stats::{median, p90};
    use flexiq_serve::{BrownoutConfig, ControlConfig};
    use std::time::Duration;

    fn svc() -> TableService {
        // INT8 (slow) .. schedule level 3 = 100% 4-bit (fast).
        TableService {
            per_request_s: vec![1.0e-3, 0.92e-3, 0.84e-3, 0.76e-3, 0.7e-3],
            batch_overhead_s: 0.5e-3,
        }
    }

    /// Batches of up to 16 dispatched the moment the worker is free, an
    /// unbounded queue, no deadlines, no brownout.
    fn open() -> ServeConfig {
        ServeConfig {
            max_batch: 16,
            batch_timeout: Duration::ZERO,
            queue_capacity: usize::MAX,
            brownout: BrownoutConfig {
                enabled: false,
                ..BrownoutConfig::default()
            },
            ..ServeConfig::default()
        }
    }

    fn fixed(arrivals: &[f64], level: usize) -> SimResult {
        simulate(arrivals, &svc(), level, &open(), false)
    }

    #[test]
    fn low_load_latency_is_service_time() {
        let arrivals = poisson(20.0, 5.0, 411);
        let res = fixed(&arrivals, LEVEL_INT8);
        let med = median(&res.latencies());
        // Mostly batch-of-1: ~1.5 ms.
        assert!((0.001..0.004).contains(&med), "median {med}");
        assert_eq!(res.records.len(), arrivals.len());
    }

    #[test]
    fn saturation_produces_hockey_stick() {
        // Capacity at INT8 and batch 16: 16 / (0.5ms + 16ms) ≈ 970 rps.
        let lat_at = |rate: f64| p90(&fixed(&poisson(rate, 5.0, 412), LEVEL_INT8).latencies());
        let low = lat_at(200.0);
        let mid = lat_at(800.0);
        let high = lat_at(1200.0);
        assert!(
            mid < high,
            "p90 must explode past saturation: {mid} vs {high}"
        );
        assert!(low < high / 10.0, "hockey stick missing: {low} vs {high}");
    }

    #[test]
    fn faster_levels_sustain_higher_rates() {
        // At a rate past INT8 saturation, the 100% 4-bit level is fine.
        let arrivals = poisson(1150.0, 5.0, 413);
        let slow = p90(&fixed(&arrivals, LEVEL_INT8).latencies());
        let fast = p90(&fixed(&arrivals, 3).latencies());
        assert!(fast < slow / 3.0, "level 3 {fast} should beat INT8 {slow}");
    }

    #[test]
    fn fifo_order_and_conservation() {
        let arrivals = poisson(500.0, 3.0, 414);
        let res = fixed(&arrivals, 1);
        assert_eq!(res.records.len(), arrivals.len());
        for w in res.records.windows(2) {
            assert!(w[0].done <= w[1].done, "completion order violated");
            assert!(w[0].arrival <= w[1].arrival, "FIFO violated");
        }
        for r in &res.records {
            assert!(r.latency() > 0.0);
        }
    }

    #[test]
    fn partial_batches_wait_out_the_batch_timeout() {
        let cfg = ServeConfig {
            max_batch: 3,
            batch_timeout: Duration::from_millis(5),
            ..open()
        };
        let svc = TableService {
            per_request_s: vec![1e-3],
            batch_overhead_s: 0.0,
        };
        // Two arrivals share a batch held open 5 ms from the first; three
        // fill one, which leaves at once.
        let arrivals = [0.0, 0.001, 0.1, 0.1005, 0.101];
        let res = simulate(&arrivals, &svc, LEVEL_INT8, &cfg, false);
        let done_us: Vec<f64> = res.records.iter().map(|r| (r.done * 1e6).round()).collect();
        assert_eq!(done_us, [7e3, 7e3, 104e3, 104e3, 104e3]);
    }

    /// The default ratchet (p95 over a 1 s window) against `target_ms`.
    fn control(target_ms: u64) -> ControlConfig {
        ControlConfig {
            target: Duration::from_millis(target_ms),
            ..ControlConfig::default()
        }
    }

    #[test]
    fn adaptive_beats_int8_on_fluctuating_trace() {
        // Fig. 9's headline: under a fluctuating trace the adaptive
        // policy keeps median latency near INT4 while INT8 blows up at
        // the peaks.
        let segments = [
            (2.0, 500.0),
            (2.0, 1000.0),
            (2.0, 1150.0),
            (2.0, 800.0),
            (2.0, 500.0),
        ];
        let arrivals = piecewise_poisson(&segments, 422);
        let cfg = ServeConfig {
            control: control(20),
            ..open()
        };
        let adaptive = simulate(&arrivals, &svc(), LEVEL_INT8, &cfg, true);
        let med_a = median(&adaptive.latencies());
        let med_8 = median(&fixed(&arrivals, LEVEL_INT8).latencies());
        assert!(
            med_a < med_8,
            "adaptive median {med_a} should beat INT8 {med_8} under bursts"
        );
        // The policy actually moved, and did not just pin 100% 4-bit.
        assert!(
            adaptive.level_changes.len() >= 2,
            "no level changes recorded"
        );
        assert!(adaptive.mean_rung() < 4.0);
    }

    #[test]
    fn every_arrival_has_exactly_one_outcome() {
        // An overload past every level's capacity against a bounded
        // queue, deadlines and the brownout ladder.
        let cfg = ServeConfig {
            queue_capacity: 64,
            default_deadline: Some(Duration::from_millis(40)),
            control: control(20),
            brownout: BrownoutConfig::default(),
            ..open()
        };
        let arrivals = piecewise_poisson(&[(0.5, 400.0), (1.0, 3000.0), (0.5, 400.0)], 7);
        let res = simulate(&arrivals, &svc(), LEVEL_INT8, &cfg, true);
        let outcomes = [res.records.len(), res.expired, res.rejected, res.shed];
        assert!(
            outcomes.iter().all(|&n| n > 0),
            "every outcome occurs: {outcomes:?}"
        );
        assert_eq!(outcomes.iter().sum::<usize>(), arrivals.len());
    }

    /// A calm → burst → overload → calm → trickle → silence cycle through
    /// the live `Policy`, ticked every 2 ms of *virtual* time: no threads,
    /// no sleeps, exact traces.
    #[test]
    fn virtual_clock_replay_pins_the_level_and_state_traces() {
        // (segment end in ms, evenly spaced arrivals per second)
        let script = [
            (200, 250.0),  // calm
            (340, 1000.0), // burst: over INT8 capacity, under level 2's
            (380, 4500.0), // overload: over every level's capacity
            (540, 250.0),  // calm
            (1100, 15.0),  // trickle: fewer than min_samples per window
        ]; // then silence
        let mut arrivals = Vec::new();
        let mut t = 0.0;
        for (end_ms, rate) in script {
            while t < end_ms as f64 / 1e3 {
                arrivals.push(t);
                t += 1.0 / rate;
            }
        }
        // Full batches of 8 take 12 ms at INT8 and 10, 8, 6, 4 ms at
        // schedule levels 0..=3.
        let svc = TableService {
            per_request_s: vec![1.5e-3, 1.25e-3, 1.0e-3, 0.75e-3, 0.5e-3],
            batch_overhead_s: 0.0,
        };
        let cfg = ServeConfig {
            max_batch: 8,
            queue_capacity: 48,
            control: ControlConfig {
                target: Duration::from_millis(30),
                percentile: 0.95,
                window: Duration::from_millis(100),
                down_margin: 0.6,
                min_samples: 4,
                tick: Duration::from_millis(20),
                hold: Duration::from_millis(50),
            },
            brownout: BrownoutConfig {
                escalate_ticks: 5,
                recover_ticks: 10,
                ..BrownoutConfig::default()
            },
            ..ServeConfig::default()
        };
        let res = simulate(&arrivals, &svc, LEVEL_INT8, &cfg, true);
        let ms = |t: f64| (t * 1e3).round() as u32;
        let levels: Vec<(u32, usize)> =
            res.level_changes.iter().map(|&(t, l)| (ms(t), l)).collect();
        let states: Vec<_> = res.state_changes.iter().map(|&(t, s)| (ms(t), s)).collect();
        assert_eq!(
            levels,
            [
                (280, 0), // burst: p95 over target, one rung per hold
                (340, 1),
                (362, 3), // Degraded: cheapest forced at the next level tick
                (422, 2), // Ready again: the ratchet's own rung — it kept
                (462, 3), // stepping (1 → 2) under the override
                (522, 2), // calm: back down under the hysteresis margin
                (582, 1),
                (1182, 0), // the trickle held level 1; the empty window decays
                (1242, LEVEL_INT8),
            ]
        );
        assert_eq!(
            states,
            [(350, ServeState::Degraded), (416, ServeState::Ready)],
            "one brownout"
        );
        // The overload filled the queue: the excess was refused, not lost.
        let outcomes = (res.records.len(), res.rejected, res.shed, res.expired);
        assert_eq!(outcomes, (299, 120, 0, 0));
    }
}
