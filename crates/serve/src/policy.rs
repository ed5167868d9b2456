//! The serving control plane: one pure state machine over
//! `(now, observation)`.
//!
//! [`Policy`] makes the server's two run-time decisions — which
//! precision level to run and which [`ServeState`] to be in — and owns
//! no clock, no `Arc` and no thread: the one `flexiq-supervise` loop of
//! the serving core (`core.rs`, under both servers) samples the metrics
//! hub, calls [`Policy::tick`] and applies the [`Decision`]; the serving
//! simulator (`flexiq_serving::sim::simulate`) ticks the same code, at
//! the same [`crate::SUPERVISE_TICK`], under a virtual clock.
//!
//! **Precision ratchet** (§8.3, live). Every `ControlConfig::tick` the
//! policy reads a percentile of the end-to-end latency over a sliding
//! window of *measured* completions — no offline profile — and moves the
//! 4-bit ratio one schedule step at a time: up while the percentile
//! exceeds the target, down once it falls below `target × down_margin`
//! (hysteresis), with a `hold` cooldown between switches so a single
//! burst cannot thrash the level within one window.
//!
//! **Brownout ladder.** The same knob doubles as a *survival* mechanism:
//! before a saturated server misses deadlines wholesale it first runs
//! everything at the cheapest level the schedule offers, and only then
//! sheds load with fast typed rejections.
//!
//! ```text
//! Ready ──sustained pressure──▶ Degraded ──more pressure──▶ Shedding
//!   ▲                              │ ▲                          │
//!   └────────── calm ──────────────┘ └────────── calm ──────────┘
//!                        (hysteresis in both directions)
//!
//! Draining: entered only via Server::drain(); never left automatically.
//! ```
//!
//! * **Degraded** — every level decision is overridden to the cheapest
//!   level; everything is still admitted. The ratchet is still driven,
//!   so its cooldown and idle decay keep running and it resumes from a
//!   coherent position when the brownout lifts.
//! * **Shedding** — new submissions are additionally rejected with
//!   [`ServeError::Shedding`] so they can be retried elsewhere instead
//!   of queueing past their deadlines; queued work keeps draining.
//! * **Draining** — operator-initiated: no admissions, in-flight work
//!   finishes.
//!
//! Pressure — queue depth and deadline misses — is sampled on every
//! supervisor tick ([`crate::SUPERVISE_TICK`]); escalation and recovery
//! both need a *streak* of ticks, so a one-tick burst neither browns out
//! nor flaps.

pub use flexiq_core::runtime::LEVEL_INT8;

use crate::config::{ControlConfig, ServeConfig};
use crate::error::{Result, ServeError};

/// Server lifecycle / degradation state, ordered by severity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum ServeState {
    /// Normal operation.
    Ready = 0,
    /// Sustained pressure: precision forced to the cheapest level.
    Degraded = 1,
    /// Severe pressure: new submissions are rejected immediately.
    Shedding = 2,
    /// Operator-initiated drain: no admissions, in-flight work finishes.
    Draining = 3,
}

impl ServeState {
    /// Decodes the atomic representation (unknown values clamp to
    /// `Draining`, the most conservative state).
    pub fn from_u8(v: u8) -> ServeState {
        match v {
            0 => ServeState::Ready,
            1 => ServeState::Degraded,
            2 => ServeState::Shedding,
            _ => ServeState::Draining,
        }
    }

    /// Stable lowercase name (Prometheus label / logs).
    pub fn name(self) -> &'static str {
        match self {
            ServeState::Ready => "ready",
            ServeState::Degraded => "degraded",
            ServeState::Shedding => "shedding",
            ServeState::Draining => "draining",
        }
    }
}

/// Thresholds and hysteresis of the brownout ladder.
#[derive(Clone, Debug, PartialEq)]
pub struct BrownoutConfig {
    /// Master switch; disabled ⇒ the ladder never leaves `Ready` and
    /// never overrides the level.
    pub enabled: bool,
    /// Queue depth (fraction of capacity) that counts as pressure.
    pub degrade_frac: f64,
    /// Queue depth fraction that counts as severe pressure.
    pub shed_frac: f64,
    /// Queue depth fraction at or below which a tick counts as calm.
    pub recover_frac: f64,
    /// Deadline expiries within one tick that count as pressure.
    pub miss_threshold: u64,
    /// Consecutive pressured ticks before escalating one rung.
    pub escalate_ticks: u32,
    /// Consecutive calm ticks before recovering one rung.
    pub recover_ticks: u32,
}

impl Default for BrownoutConfig {
    fn default() -> Self {
        BrownoutConfig {
            enabled: true,
            degrade_frac: 0.75,
            shed_frac: 0.95,
            recover_frac: 0.25,
            miss_threshold: 1,
            escalate_ticks: 8,
            recover_ticks: 16,
        }
    }
}

impl BrownoutConfig {
    /// Validates threshold ordering and ranges.
    pub fn validate(&self) -> Result<()> {
        let frac_ok = |v: f64| v.is_finite() && (0.0..=1.0).contains(&v);
        if !frac_ok(self.degrade_frac) || !frac_ok(self.shed_frac) || !frac_ok(self.recover_frac) {
            return Err(ServeError::Config(
                "brownout fractions must be in [0, 1]".to_string(),
            ));
        }
        if !(self.recover_frac < self.degrade_frac && self.degrade_frac <= self.shed_frac) {
            return Err(ServeError::Config(format!(
                "brownout thresholds must satisfy recover < degrade <= shed, got {} / {} / {}",
                self.recover_frac, self.degrade_frac, self.shed_frac
            )));
        }
        if self.escalate_ticks == 0 || self.recover_ticks == 0 {
            return Err(ServeError::Config(
                "brownout escalate/recover tick streaks must be >= 1".to_string(),
            ));
        }
        Ok(())
    }
}

/// What the supervisor samples for one tick.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Observation {
    /// `(samples, tracked percentile in seconds)` of the sliding latency
    /// window, `None` when it is empty. Read only on ticks where
    /// [`Policy::level_due`] holds, so the sampler can skip the
    /// percentile selection on the others.
    pub window: Option<(usize, f64)>,
    /// Queue depth as a fraction of capacity.
    pub depth_frac: f64,
    /// Deadline expiries since the previous tick.
    pub expired_delta: u64,
    /// The authoritative state going into the tick (held by the metrics
    /// hub so the submit path reads it with one relaxed load).
    pub state: ServeState,
}

/// What one tick decided, with the observation that produced it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Decision {
    /// Runtime level to switch to ([`LEVEL_INT8`] or a schedule index);
    /// `None` keeps the current one.
    pub level: Option<usize>,
    /// State to publish; `None` keeps the current one.
    pub state: Option<ServeState>,
    /// The tick's input, for the decision log.
    pub observed: Observation,
}

/// Runtime level of a ratchet rung: rung 0 is pure INT8, rung `k` is
/// schedule level `k - 1`.
fn runtime_level(rung: usize) -> usize {
    rung.checked_sub(1).unwrap_or(LEVEL_INT8)
}

/// Ratchet rung of a runtime level, the inverse of the mapping above:
/// [`LEVEL_INT8`] is rung 0, schedule level `k` is rung `k + 1`.
pub fn rung(level: usize) -> usize {
    if level == LEVEL_INT8 {
        0
    } else {
        level + 1
    }
}

/// The latency ratchet: a rung position plus the clocks that pace it.
#[derive(Clone, Debug)]
struct Ratchet {
    cfg: ControlConfig,
    max_rung: usize,
    rung: usize,
    last_change_s: f64,
    next_due_s: f64,
}

impl Ratchet {
    /// Starts at `rung`; the first decision is due one `tick` in.
    fn new(cfg: &ControlConfig, max_rung: usize, rung: usize) -> Self {
        Ratchet {
            cfg: cfg.clone(),
            max_rung,
            rung: rung.min(max_rung),
            last_change_s: f64::NEG_INFINITY,
            next_due_s: cfg.tick.as_secs_f64(),
        }
    }

    /// One decision; the rung moves at most one step. Three regimes:
    ///
    /// * **Enough samples** (`n ≥ min_samples`): up over target, down
    ///   under the hysteresis margin.
    /// * **Some samples, fewer than `min_samples`**: hold. The traffic
    ///   is too sparse to decide confidently in either direction — a
    ///   slow trickle of over-target requests must not decay, and a few
    ///   lucky fast ones must not ratchet.
    /// * **Empty window**: decay one step toward INT8 per hold period.
    ///   Nothing is being served, so there is no latency pressure, and
    ///   sticking at a burst's final rung would pin the server at the
    ///   lowest-accuracy ratio indefinitely.
    fn decide(&mut self, now_s: f64, window: Option<(usize, f64)>) -> usize {
        if now_s - self.last_change_s < self.cfg.hold.as_secs_f64() {
            return self.rung;
        }
        let (before, target_s) = (self.rung, self.cfg.target.as_secs_f64());
        match window {
            Some((n, p)) if n >= self.cfg.min_samples => {
                if p > target_s && self.rung < self.max_rung {
                    self.rung += 1;
                } else if p < target_s * self.cfg.down_margin && self.rung > 0 {
                    self.rung -= 1;
                }
            }
            Some(_) => {} // sparse: hold
            None => self.rung = self.rung.saturating_sub(1),
        }
        if self.rung != before {
            self.last_change_s = now_s;
        }
        self.rung
    }
}

/// The brownout ladder's streak counters.
#[derive(Clone, Debug)]
struct Ladder {
    cfg: BrownoutConfig,
    hot: u32,
    calm: u32,
}

impl Ladder {
    /// Advances one tick; returns `Some(next)` when a transition fires.
    fn tick(&mut self, obs: &Observation) -> Option<ServeState> {
        let state = obs.state;
        if !self.cfg.enabled || state == ServeState::Draining {
            // Draining is operator-owned; the ladder never exits it.
            return None;
        }
        // Severity of this tick's pressure relative to the rung we'd
        // escalate *to*: escalating to Shedding needs shed-level depth,
        // not merely degrade-level.
        let escalate_frac = match state {
            ServeState::Ready => self.cfg.degrade_frac,
            _ => self.cfg.shed_frac,
        };
        let pressured =
            obs.depth_frac >= escalate_frac || obs.expired_delta >= self.cfg.miss_threshold;
        let calm = obs.depth_frac <= self.cfg.recover_frac && obs.expired_delta == 0;

        if pressured {
            self.hot = self.hot.saturating_add(1);
            self.calm = 0;
        } else if calm {
            self.calm = self.calm.saturating_add(1);
            self.hot = 0;
        } else {
            // Mid-band: hold position, break both streaks.
            self.hot = 0;
            self.calm = 0;
        }

        // At most one streak is live, so at most one edge fires.
        let escalate = self.hot >= self.cfg.escalate_ticks;
        let recover = self.calm >= self.cfg.recover_ticks;
        let next = match state {
            ServeState::Ready if escalate => Some(ServeState::Degraded),
            ServeState::Degraded if escalate => Some(ServeState::Shedding),
            ServeState::Shedding if recover => Some(ServeState::Degraded),
            ServeState::Degraded if recover => Some(ServeState::Ready),
            _ => None,
        };
        if next.is_some() {
            // A transition consumes the streak; the next rung needs a
            // fresh one.
            self.hot = 0;
            self.calm = 0;
        }
        next
    }
}

/// The server's whole control plane: latency ratchet, brownout ladder
/// and the level the ladder forces.
#[derive(Clone, Debug)]
pub struct Policy {
    /// `None` on a fixed-level server: the level is the caller's.
    ratchet: Option<Ratchet>,
    ladder: Ladder,
    /// Runtime level forced while browned out.
    cheapest: usize,
    /// Runtime level currently in force.
    level: usize,
}

impl Policy {
    /// The policy of a server configured by `cfg` (its `control` and
    /// `brownout`) over a runtime with `num_levels` schedule levels whose
    /// cheapest configuration is runtime level `cheapest`, currently
    /// running `level`. Built the same way by the live core and by the
    /// virtual-clock simulator. `adaptive: false` never decides a level
    /// (the ladder still runs); an adaptive one ratchets from `level`'s
    /// rung.
    pub fn new(
        cfg: &ServeConfig,
        adaptive: bool,
        num_levels: usize,
        cheapest: usize,
        level: usize,
    ) -> Self {
        Policy {
            ratchet: adaptive.then(|| Ratchet::new(&cfg.control, num_levels, rung(level))),
            ladder: Ladder {
                cfg: cfg.brownout.clone(),
                hot: 0,
                calm: 0,
            },
            cheapest,
            level,
        }
    }

    /// Whether a tick at `now_s` decides the level (and so reads
    /// [`Observation::window`]): once per `ControlConfig::tick`.
    pub fn level_due(&self, now_s: f64) -> bool {
        self.ratchet.as_ref().is_some_and(|r| now_s >= r.next_due_s)
    }

    /// Advances the policy to `now_s` (seconds since server start): the
    /// ladder moves on every call, the level on the due ones.
    pub fn tick(&mut self, now_s: f64, observed: Observation) -> Decision {
        let state = self.ladder.tick(&observed);
        let mut level = None;
        if self.level_due(now_s) {
            let ratchet = self.ratchet.as_mut().expect("level_due implies a ratchet");
            // Drift-free cadence; a stalled caller resumes at once.
            ratchet.next_due_s = (ratchet.next_due_s + ratchet.cfg.tick.as_secs_f64()).max(now_s);
            let wanted = runtime_level(ratchet.decide(now_s, observed.window));
            let browned_out =
                self.ladder.cfg.enabled && state.unwrap_or(observed.state) != ServeState::Ready;
            let target = if browned_out { self.cheapest } else { wanted };
            if target != self.level {
                self.level = target;
                level = Some(target);
            }
        }
        Decision {
            level,
            state,
            observed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn control() -> ControlConfig {
        ControlConfig {
            target: Duration::from_millis(100),
            percentile: 0.95,
            window: Duration::from_secs(1),
            down_margin: 0.5,
            min_samples: 4,
            tick: Duration::from_millis(10),
            hold: Duration::from_millis(50),
        }
    }

    fn brownout() -> BrownoutConfig {
        BrownoutConfig {
            escalate_ticks: 3,
            recover_ticks: 4,
            ..BrownoutConfig::default()
        }
    }

    fn obs(state: ServeState, depth_frac: f64, expired_delta: u64) -> Observation {
        Observation {
            window: None,
            depth_frac,
            expired_delta,
            state,
        }
    }

    fn hot(state: ServeState) -> Observation {
        obs(state, 1.0, 0)
    }

    fn calm(state: ServeState) -> Observation {
        obs(state, 0.0, 0)
    }

    /// A policy over four schedule levels (cheapest: 3) running `level`.
    fn policy(brownout: BrownoutConfig, adaptive: bool, level: usize) -> Policy {
        let cfg = ServeConfig {
            control: control(),
            brownout,
            ..ServeConfig::default()
        };
        Policy::new(&cfg, adaptive, 4, 3, level)
    }

    fn ladder(cfg: BrownoutConfig) -> Ladder {
        policy(cfg, false, LEVEL_INT8).ladder
    }

    #[test]
    fn converges_up_under_a_load_step_and_recovers() {
        let mut c = Ratchet::new(&control(), 4, 0);
        // Comfortable latency: stays at INT8.
        for i in 0..10 {
            assert_eq!(c.decide(i as f64, Some((32, 0.030))), 0);
        }
        // Step change: measured p95 jumps over the target. The rung
        // ratchets one step per hold period until the ceiling.
        let mut t = 10.0;
        let mut seen = vec![c.rung];
        while c.rung < 4 {
            let l = c.decide(t, Some((32, 0.250)));
            if *seen.last().unwrap() != l {
                seen.push(l);
            }
            t += 0.06; // > hold
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 4], "must ratchet one step at a time");
        // Saturated: further high readings keep it pinned at max.
        assert_eq!(c.decide(t + 1.0, Some((32, 0.250))), 4);
        // Load drops: recovery only below the hysteresis margin.
        t += 2.0;
        assert_eq!(
            c.decide(t, Some((32, 0.080))),
            4,
            "inside hysteresis band: hold"
        );
        let mut rungs = Vec::new();
        for k in 0..10 {
            rungs.push(c.decide(t + 0.06 * (k + 1) as f64, Some((32, 0.020))));
        }
        assert_eq!(rungs[..5], [3, 2, 1, 0, 0], "must step back down to INT8");
    }

    #[test]
    fn holds_level_without_enough_samples() {
        let mut c = Ratchet::new(&control(), 4, 0);
        assert_eq!(c.decide(0.0, Some((3, 9.9))), 0, "below min_samples");
        assert_eq!(c.decide(1.0, None), 0, "empty window");
        assert_eq!(c.decide(2.0, Some((4, 9.9))), 1, "enough samples now");
        // Sparse traffic at an elevated rung must hold — not decay
        // (the few samples are over target) and not ratchet further.
        assert_eq!(c.decide(3.0, Some((2, 9.9))), 1, "sparse over-target: hold");
        assert_eq!(
            c.decide(4.0, Some((2, 0.001))),
            1,
            "sparse under-target: hold"
        );
    }

    #[test]
    fn idle_window_decays_back_to_int8() {
        let mut c = Ratchet::new(&control(), 4, 0);
        // Drive to the top.
        let mut t = 0.0;
        while c.rung < 4 {
            c.decide(t, Some((32, 9.9)));
            t += 0.06;
        }
        // Traffic stops entirely: the empty window must not pin the
        // server at the lowest-accuracy rung — it decays one step per
        // hold period back to INT8.
        let mut rungs = Vec::new();
        for k in 0..6 {
            rungs.push(c.decide(t + 0.06 * (k + 1) as f64, None));
        }
        assert_eq!(rungs[..5], [3, 2, 1, 0, 0], "idle must decay to INT8");
    }

    #[test]
    fn cooldown_limits_switch_rate() {
        let mut c = Ratchet::new(&control(), 4, 0);
        assert_eq!(c.decide(0.0, Some((8, 1.0))), 1);
        // 10ms later: within the 50ms hold, no further change.
        assert_eq!(c.decide(0.010, Some((8, 1.0))), 1);
        assert_eq!(c.decide(0.060, Some((8, 1.0))), 2);
    }

    #[test]
    fn escalates_and_recovers_one_rung_at_a_time_with_hysteresis() {
        let mut b = ladder(brownout());
        let mut state = ServeState::Ready;
        // Two hot ticks: not enough.
        assert_eq!(b.tick(&hot(state)), None);
        assert_eq!(b.tick(&hot(state)), None);
        // Third completes the streak.
        state = b.tick(&hot(state)).expect("escalate");
        assert_eq!(state, ServeState::Degraded);
        // The streak was consumed: two more hot ticks don't escalate.
        assert_eq!(b.tick(&hot(state)), None);
        assert_eq!(b.tick(&hot(state)), None);
        state = b.tick(&hot(state)).expect("escalate");
        assert_eq!(state, ServeState::Shedding);
        // Shedding is the top rung.
        for _ in 0..8 {
            assert_eq!(b.tick(&hot(state)), None);
        }
        // Recovery needs recover_ticks consecutive calm ticks.
        for _ in 0..3 {
            assert_eq!(b.tick(&calm(state)), None);
        }
        state = b.tick(&calm(state)).expect("recover");
        assert_eq!(state, ServeState::Degraded);
        for _ in 0..3 {
            assert_eq!(b.tick(&calm(state)), None);
        }
        state = b.tick(&calm(state)).expect("recover");
        assert_eq!(state, ServeState::Ready);
    }

    #[test]
    fn deadline_misses_count_as_pressure_and_break_calm() {
        let mut b = ladder(brownout());
        let miss = obs(ServeState::Ready, 0.0, 2);
        assert_eq!(b.tick(&miss), None);
        assert_eq!(b.tick(&miss), None);
        assert_eq!(b.tick(&miss), Some(ServeState::Degraded));
    }

    #[test]
    fn mid_band_breaks_both_streaks() {
        let mut b = ladder(brownout());
        let ready = ServeState::Ready;
        assert_eq!(b.tick(&hot(ready)), None);
        assert_eq!(b.tick(&hot(ready)), None);
        // Mid-band tick resets the hot streak: pressure must restart.
        assert_eq!(b.tick(&obs(ready, 0.5, 0)), None);
        assert_eq!(b.tick(&hot(ready)), None);
        assert_eq!(b.tick(&hot(ready)), None);
        assert_eq!(b.tick(&hot(ready)), Some(ServeState::Degraded));
    }

    #[test]
    fn degrade_level_pressure_does_not_push_degraded_into_shedding() {
        let mut b = ladder(brownout());
        // Depth between degrade_frac and shed_frac: enough to *enter*
        // Degraded, not enough to escalate further.
        for _ in 0..16 {
            assert_eq!(b.tick(&obs(ServeState::Degraded, 0.8, 0)), None);
        }
    }

    #[test]
    fn draining_is_sticky_and_disabled_machines_never_move() {
        let mut b = ladder(brownout());
        assert_eq!(b.tick(&hot(ServeState::Draining)), None);
        assert_eq!(b.tick(&calm(ServeState::Draining)), None);
        let mut off = ladder(BrownoutConfig {
            enabled: false,
            ..brownout()
        });
        for _ in 0..32 {
            assert_eq!(off.tick(&hot(ServeState::Ready)), None);
        }
    }

    #[test]
    fn config_validation_rejects_bad_ladders() {
        let bad = |f: fn(&mut BrownoutConfig)| {
            let mut c = BrownoutConfig::default();
            f(&mut c);
            c.validate()
        };
        assert!(BrownoutConfig::default().validate().is_ok());
        assert!(bad(|c| c.degrade_frac = 1.5).is_err());
        assert!(bad(|c| c.recover_frac = 0.9).is_err());
        assert!(bad(|c| c.shed_frac = 0.5).is_err());
        assert!(bad(|c| c.escalate_ticks = 0).is_err());
        assert!(bad(|c| c.recover_ticks = 0).is_err());
    }

    #[test]
    fn state_encoding_round_trips_and_orders_by_severity() {
        for s in [
            ServeState::Ready,
            ServeState::Degraded,
            ServeState::Shedding,
            ServeState::Draining,
        ] {
            assert_eq!(ServeState::from_u8(s as u8), s);
            assert!(!s.name().is_empty());
        }
        assert!(ServeState::Ready < ServeState::Degraded);
        assert!(ServeState::Shedding < ServeState::Draining);
        assert_eq!(ServeState::from_u8(99), ServeState::Draining);
    }

    #[test]
    fn tick_reads_the_hub_window_and_speaks_runtime_levels() {
        // The observation the supervisor samples from a real hub: eight
        // 400 ms completions against a 100 ms target.
        let hub = crate::metrics::MetricsHub::new(Duration::from_secs(10));
        let now = std::time::Instant::now();
        for _ in 0..8 {
            hub.on_completed(now, Duration::from_millis(400), Duration::from_millis(1));
        }
        let window = hub.window.percentile_s(now, control().percentile);
        assert_eq!(window, Some((8, 0.4)));
        let sample = Observation {
            window,
            ..calm(ServeState::Ready)
        };
        let mut p = policy(brownout(), true, LEVEL_INT8);
        // Not due before one control tick has passed: the window is not
        // even looked at.
        assert!(!p.level_due(0.005));
        assert_eq!(p.tick(0.005, sample).level, None);
        // Due: measured p95 over target raises the ratio one rung —
        // schedule level 0 in the runtime's encoding.
        assert!(p.level_due(0.010));
        let d = p.tick(0.010, sample);
        assert_eq!((d.level, d.state, d.observed), (Some(0), None, sample));
        // An idle window decays back; INT8 is LEVEL_INT8, never 0.
        assert_eq!(
            p.tick(0.070, calm(ServeState::Ready)).level,
            Some(LEVEL_INT8)
        );
        // Started at a preset level, the ratchet climbs from that level's
        // rung: over target at schedule level 2 means more 4-bit, level 3.
        let mut preset = policy(brownout(), true, 2);
        assert_eq!(preset.tick(0.010, sample).level, Some(3));
        // A policy without a ratchet never decides a level.
        let mut fixed = policy(brownout(), false, 2);
        assert!(!fixed.level_due(1e9));
        assert_eq!(fixed.tick(1e9, sample).level, None);
    }

    #[test]
    fn brownout_overrides_the_level_only_while_browned_out() {
        // The ratchet wants rung 1 (runtime level 0) throughout.
        let over = |state| Observation {
            window: Some((8, 1.0)),
            ..obs(state, 0.5, 0)
        };
        let hold = |state| Observation {
            window: Some((8, 0.08)),
            ..obs(state, 0.5, 0)
        };
        let mut p = policy(brownout(), true, LEVEL_INT8);
        assert_eq!(p.tick(0.01, over(ServeState::Ready)).level, Some(0));
        // Degraded: forced to cheapest. Shedding: still cheapest, nothing
        // to switch. Recovered: the ratchet's rung again. Draining is
        // browned out too.
        assert_eq!(p.tick(0.02, hold(ServeState::Degraded)).level, Some(3));
        assert_eq!(p.tick(0.03, hold(ServeState::Shedding)).level, None);
        assert_eq!(p.tick(0.04, hold(ServeState::Ready)).level, Some(0));
        assert_eq!(p.tick(0.05, hold(ServeState::Draining)).level, Some(3));
        assert_eq!(p.tick(0.1, hold(ServeState::Ready)).level, Some(0));
        // A disabled ladder never overrides, whatever the operator set.
        let off = BrownoutConfig {
            enabled: false,
            ..brownout()
        };
        let mut p = policy(off, true, LEVEL_INT8);
        assert_eq!(p.tick(0.01, over(ServeState::Shedding)).level, Some(0));
    }
}
