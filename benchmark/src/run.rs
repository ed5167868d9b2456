//! One run of one workload: set up, build the oracle, drive traffic,
//! turn the records into the registered metrics.

use std::time::Instant;

use crate::json::{obj, Json};
use crate::loadgen::{burst_phases, closed_loop, open_loop, Ask, Asks, Target};
use crate::metrics::{Fold, Folded, Values};
use crate::rng::{piecewise_poisson, Rng};
use crate::spec::{self, MetricDef, Workload};
use crate::stats::quiet;
use crate::trace::Tracer;
use crate::workload::{BenchResult, Deployment, Oracle};

/// What the command line asks of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// The traced run (per-layer metrics) instead of the untraced one
    /// (end-to-end metrics).
    pub trace: bool,
    /// Fresh set-ups `setup_s` is read across ([`spec::SETUPS`]; the
    /// smoke test makes fewer).
    pub setups: usize,
}

/// What one run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// No response differed from the oracle, none was lost, none failed
    /// in execution, and every registered metric was measured.
    pub correct: bool,
    pub attempted: u64,
    /// Operations whose outcome a healthy server never produces. Typed
    /// refusals under overload are not failures of the run: they count
    /// against `answered_pct` and `slo_attainment_pct`.
    pub failed: u64,
    /// The registered metrics, in registry order.
    pub metrics: Vec<(MetricDef, f64)>,
    /// Unregistered numbers worth printing beside them.
    pub diagnostics: Vec<(String, f64, &'static str)>,
}

impl RunResult {
    /// The result line the driver reads: exactly `correct`,
    /// `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> Json {
        obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(m, v)| {
                            (
                                m.name.to_string(),
                                obj([("value", Json::Num(*v)), ("unit", Json::Str(m.unit.into()))]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Pairs the registry with measured values; a metric nobody measured
/// makes the run incorrect instead of vanishing.
pub(crate) fn collect(
    defs: &'static [MetricDef],
    values: &Values,
    correct: &mut bool,
) -> Vec<(MetricDef, f64)> {
    defs.iter()
        .map(|m| match values.get(m.name) {
            Some(v) if v.is_finite() => (*m, *v),
            _ => {
                eprintln!("metric {} was not measured", m.name);
                *correct = false;
                (*m, 0.0)
            }
        })
        .collect()
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Every dataset input once, one at a time: caches fill and lazy
/// set-up finishes before anything is timed.
pub fn warm_up(target: &Target<'_>) -> BenchResult<()> {
    for idx in 0..spec::DATASET {
        let ask = Ask {
            idx,
            budget: spec::LM_BUDGET.1,
        };
        let pending = target
            .submit(ask)
            .map_err(|e| format!("warm-up submit: {e}"))?;
        target.wait(pending, ask);
    }
    Ok(())
}

/// Drives the workload's traffic for `seconds` and folds it over the
/// segments the run's metrics are read across: half a second of a
/// closed loop, a whole burst cycle of the open loop.
pub fn drive(
    w: Workload,
    target: &Target<'_>,
    seed: u64,
    seconds: f64,
    tracer: Option<&mut Tracer>,
) -> Folded {
    let mut asks = Asks::new(seed, w.is_decode());
    if w == Workload::VitBurst {
        let phases = burst_phases(seconds);
        let cycle_s: f64 = spec::BURST_CYCLE.iter().map(|p| p.0).sum();
        let arrivals: Vec<(f64, bool)> = piecewise_poisson(&phases, &mut Rng::stream(seed, 4))
            .into_iter()
            .map(|at| (at, at % cycle_s < spec::BURST_CYCLE[0].0))
            .collect();
        let mut fold = Fold::new(w, cycle_s, phases.iter().map(|p| p.0).sum());
        open_loop(target, &mut asks, &arrivals, &mut fold, tracer);
        fold.finish()
    } else {
        let mut fold = Fold::new(w, spec::SEGMENT_S.min(seconds), seconds);
        closed_loop(
            target,
            &mut asks,
            spec::IN_FLIGHT,
            seconds,
            &mut fold,
            tracer,
        );
        fold.finish()
    }
}

/// `n` fresh set-ups; returns their times and keeps the last one up.
fn set_up_times(w: Workload, n: usize, times: &mut Vec<f64>) -> BenchResult<Option<Deployment>> {
    let mut kept: Option<Deployment> = None;
    for _ in 0..n {
        if let Some(old) = kept.take() {
            old.shut_down();
        }
        let fresh = Deployment::set_up(w)?;
        times.push(fresh.times.total_s());
        kept = Some(fresh);
    }
    Ok(kept)
}

/// The untraced run: fresh set-ups (the last one before the traffic
/// serves it, the rest follow it, so that they do not all land in one
/// mood of a shared box), the traffic, then the end-to-end metrics.
pub fn run_untraced(args: &RunArgs) -> BenchResult<RunResult> {
    let w = args.workload;
    let setups = args.setups.max(1);
    let mut setup_s = Vec::with_capacity(setups);
    let dep = set_up_times(w, setups.div_ceil(2), &mut setup_s)?.expect("at least one set-up");
    let oracle = Oracle::build(&dep)?;
    let target = Target::new(&dep, &oracle);
    warm_up(&target)?;

    let folded = drive(w, &target, args.seed, args.seconds, None);
    dep.shut_down();
    if let Some(last) = set_up_times(w, setups / 2, &mut setup_s)? {
        last.shut_down();
    }

    let mut values = folded.end_to_end();
    values.insert(
        "setup_s",
        quiet(&setup_s, false).expect("at least one set-up"),
    );
    values.insert("peak_rss_mb", peak_rss_mb());
    let failed = folded.unexpected();
    let mut correct = failed == 0 && folded.tally.offered > 0;
    let metrics = collect(spec::END_TO_END, &values, &mut correct);
    Ok(RunResult {
        correct,
        attempted: folded.tally.offered.max(1),
        failed,
        metrics,
        diagnostics: folded.diagnostics(),
    })
}

/// One run, traced or not.
pub fn run(args: &RunArgs) -> BenchResult<RunResult> {
    let started = Instant::now();
    let result = if args.trace {
        crate::layers::run_traced(args)
    } else {
        run_untraced(args)
    };
    eprintln!(
        "{} seed {} trace {}: {:.1} s",
        args.workload.name(),
        args.seed,
        args.trace as u8,
        started.elapsed().as_secs_f64()
    );
    result
}
