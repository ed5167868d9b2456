//! From request records to metric values.
//!
//! Records are folded one segment at a time as the generators produce
//! them, so the benchmark's own memory does not grow with the number
//! of requests a run completes: `peak_rss_mb` must not read worse
//! because the program under test got faster.

use std::collections::BTreeMap;

use crate::loadgen::{Outcome, Record};
use crate::spec::{self, Better, Workload};
use crate::stats::{highest_supported_tail, median, percentile, quiet, sorted};

/// Metric values by registered name.
pub type Values = BTreeMap<&'static str, f64>;

/// Percentile `p` of `seconds`, in milliseconds; sorts in place.
fn ms(seconds: &mut [f64], p: f64) -> f64 {
    seconds.sort_by(f64::total_cmp);
    percentile(seconds, p).map_or(0.0, |s| s * 1e3)
}

/// The requests due in the segment being filled.
#[derive(Debug, Default)]
struct Open {
    offered: usize,
    in_slo: usize,
    outputs: usize,
    /// Correctly answered requests.
    good: usize,
    // Of the correctly answered steady requests:
    latency: Vec<f64>,
    ttft: Vec<f64>,
    // Of the correctly answered requests:
    per_output: Vec<f64>,
    queue: Vec<f64>,
    exec: Vec<f64>,
    // Of every request:
    submit: Vec<f64>,
    lateness: Vec<f64>,
}

/// What is counted over the whole run instead of per segment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    pub offered: u64,
    pub rejected: u64,
    pub shed: u64,
    pub expired: u64,
    /// Execution failed, the reply was lost, the ticket hung.
    pub broken: u64,
    /// Answered, but not with the oracle's bits.
    pub mismatched: u64,
    /// Per dataset input: answers agreeing with the f32 model's, of how
    /// many compared.
    quality: Vec<(u64, u64)>,
    /// Correct answers by the level that served them.
    by_level: BTreeMap<usize, u64>,
    /// Latency from due time of every correct answer (f32: the tail
    /// diagnostic does not need more, and it keeps the list small).
    latency_s: Vec<f32>,
}

/// Folds a run's records, in the order the generators finish them,
/// into per-segment metric values and whole-run tallies.
///
/// The run is cut into whole segments of `segment_s` by when each
/// request was *due* (half a second of a closed loop, a calm-then-burst
/// cycle of the open loop). Requests due after the last whole segment
/// are tallied but belong to no segment.
#[derive(Debug)]
pub struct Fold {
    limit_s: f64,
    segment_s: f64,
    whole: usize,
    index: usize,
    open: Open,
    segments: Vec<Values>,
    tally: Tally,
}

impl Fold {
    pub fn new(w: Workload, segment_s: f64, run_s: f64) -> Fold {
        Fold {
            limit_s: w.slo_ms() / 1e3,
            segment_s,
            whole: ((run_s / segment_s + 1e-9).floor() as usize).max(1),
            index: 0,
            open: Open::default(),
            segments: Vec::new(),
            tally: Tally {
                quality: vec![(0, 0); spec::DATASET],
                ..Tally::default()
            },
        }
    }

    /// Adds one finished request. Due times must not decrease by more
    /// than a segment (both generators finish requests in due order).
    pub fn push(&mut self, r: &Record) {
        let i = (r.due_s / self.segment_s) as usize;
        if i > self.index {
            self.close();
            self.index = i;
        }
        let t = &mut self.tally;
        t.offered += 1;
        match &r.outcome {
            Outcome::Rejected => t.rejected += 1,
            Outcome::Shed => t.shed += 1,
            Outcome::Expired => t.expired += 1,
            Outcome::Broken(_) => t.broken += 1,
            Outcome::Answered(a) if !a.oracle_ok => t.mismatched += 1,
            Outcome::Answered(_) => {}
        }
        let good = r.from_due_s();
        if let Some((a, latency, _)) = good {
            *t.by_level.entry(a.level).or_default() += 1;
            let q = &mut t.quality[r.ask.idx];
            *q = (q.0 + a.agree as u64, q.1 + a.compared as u64);
            t.latency_s.push(latency as f32);
        }
        if i >= self.whole {
            return;
        }
        let o = &mut self.open;
        o.offered += 1;
        o.submit.push(r.submit_s);
        o.lateness.push(r.lateness_s);
        if let Some((a, latency, ttft)) = good {
            o.good += 1;
            o.in_slo += (latency <= self.limit_s) as usize;
            o.outputs += a.outputs;
            if r.steady {
                o.latency.push(latency);
                o.ttft.push(ttft);
            }
            o.per_output.push(a.per_output_s);
            o.queue.push(a.queue_s);
            o.exec.push(a.latency_s - a.queue_s);
        }
    }

    /// Turns the open segment into values. A segment in which no steady
    /// request was answered correctly yields none.
    fn close(&mut self) {
        let mut o = std::mem::take(&mut self.open);
        if o.latency.is_empty() {
            return;
        }
        let (offered, good, length_s) = (o.offered as f64, o.good as f64, self.segment_s);
        let mut v = Values::new();
        v.insert("answered_pct", 100.0 * good / offered);
        v.insert("throughput_rps", good / length_s);
        v.insert("latency_p50_ms", ms(&mut o.latency, 0.50));
        v.insert("loadgen.latency_p95_ms", ms(&mut o.latency, 0.95));
        v.insert("loadgen.latency_p99_ms", ms(&mut o.latency, 0.99));
        v.insert("slo_attainment_pct", 100.0 * o.in_slo as f64 / offered);
        v.insert("goodput_rps", o.in_slo as f64 / length_s);
        v.insert("tokens_per_s", o.outputs as f64 / length_s);
        v.insert("ttft_p50_ms", ms(&mut o.ttft, 0.50));
        v.insert("loadgen.ttft_p95_ms", ms(&mut o.ttft, 0.95));
        v.insert("itl_p50_ms", ms(&mut o.per_output, 0.50));
        v.insert("loadgen.itl_p95_ms", ms(&mut o.per_output, 0.95));
        v.insert("serve.queue_wait_p50_ms", ms(&mut o.queue, 0.50));
        v.insert("serve.queue_wait_p95_ms", ms(&mut o.queue, 0.95));
        v.insert("serve.exec_p50_ms", ms(&mut o.exec, 0.50));
        v.insert("serve.submit_us", ms(&mut o.submit, 0.50) * 1e3);
        v.insert("loadgen.lateness_p95_ms", ms(&mut o.lateness, 0.95));
        self.segments.push(v);
    }

    pub fn finish(mut self) -> Folded {
        self.close();
        Folded {
            segments: self.segments,
            tally: self.tally,
        }
    }
}

/// A folded run.
#[derive(Debug, Clone, PartialEq)]
pub struct Folded {
    segments: Vec<Values>,
    pub tally: Tally,
}

impl Folded {
    fn across(&self, name: &str) -> Vec<f64> {
        self.segments
            .iter()
            .filter_map(|s| s.get(name).copied())
            .collect()
    }

    /// The [`quiet`] reading of a per-segment value across the run's
    /// segments, from its better end. `None` when no segment has it.
    pub fn quiet(&self, name: &str) -> Option<f64> {
        let higher = spec::END_TO_END
            .iter()
            .any(|m| m.name == name && m.better == Better::Higher);
        quiet(&self.across(name), higher)
    }

    /// Operations whose outcome a healthy server never produces.
    pub fn unexpected(&self) -> u64 {
        self.tally.broken + self.tally.mismatched
    }

    /// The traffic half of the end-to-end metrics (everything but
    /// `setup_s` and `peak_rss_mb`). `quality_pct` does not depend on
    /// the machine's speed: it is taken over the whole run, every
    /// dataset input weighing the same however often the seed drew it.
    pub fn end_to_end(&self) -> Values {
        let mut v: Values = spec::END_TO_END
            .iter()
            .filter_map(|m| Some((m.name, self.quiet(m.name)?)))
            .collect();
        let shares: Vec<f64> = self
            .tally
            .quality
            .iter()
            .filter(|q| q.1 > 0)
            .map(|q| q.0 as f64 / q.1 as f64)
            .collect();
        if !shares.is_empty() {
            v.insert(
                "quality_pct",
                100.0 * shares.iter().sum::<f64>() / shares.len() as f64,
            );
        }
        v
    }

    /// The serve-layer and load-generator metrics. `levels[i]` is the
    /// runtime level the `i`-th per-level name stands for. Timings are
    /// per-segment percentiles read like the end-to-end ones; counts
    /// cover the run.
    pub fn serve_layer(&self, levels: &[(usize, String)]) -> Values {
        let mut v: Values = [
            "serve.queue_wait_p50_ms",
            "serve.queue_wait_p95_ms",
            "serve.exec_p50_ms",
            "serve.submit_us",
            "loadgen.lateness_p95_ms",
            "loadgen.latency_p95_ms",
            "loadgen.latency_p99_ms",
            "loadgen.ttft_p95_ms",
            "loadgen.itl_p95_ms",
        ]
        .into_iter()
        .filter_map(|name| Some((name, self.quiet(name)?)))
        .collect();
        let t = &self.tally;
        v.insert("serve.rejected", t.rejected as f64);
        v.insert("serve.shed", t.shed as f64);
        v.insert("serve.expired", t.expired as f64);
        v.insert("serve.exec_failed", t.broken as f64);
        let good: u64 = t.by_level.values().sum();
        for (name, (level, _)) in LEVEL_SHARE.iter().zip(levels) {
            let at = t.by_level.get(level).copied().unwrap_or(0);
            v.insert(name, at as f64 / good.max(1) as f64);
        }
        v.insert("loadgen.offered", t.offered as f64);
        // How much of the run the box (or the program) was slower than
        // at its quiet reading: 1 on a steady program on a quiet box.
        let rates = self.across("throughput_rps");
        if let (Some(mid), Some(q)) = (median(&rates), self.quiet("throughput_rps")) {
            v.insert("loadgen.median_to_quiet", mid / q);
        }
        v
    }

    /// Diagnostics printed beside the metrics but not registered: the
    /// highest tail the sample supports, and the outcome counts.
    pub fn diagnostics(&self) -> Vec<(String, f64, &'static str)> {
        let t = &self.tally;
        let latency = sorted(&t.latency_s.iter().map(|&s| s as f64).collect::<Vec<_>>());
        let mut out = vec![
            ("segments".to_string(), self.segments.len() as f64, "count"),
            ("samples".to_string(), latency.len() as f64, "count"),
        ];
        for name in [
            "loadgen.latency_p95_ms",
            "loadgen.ttft_p95_ms",
            "loadgen.itl_p95_ms",
        ] {
            out.push((name.to_string(), self.quiet(name).unwrap_or(0.0), "ms"));
        }
        if let Some(p) = highest_supported_tail(latency.len()) {
            let at = percentile(&latency, p).unwrap_or(0.0);
            out.push((
                format!("whole_run.latency_p{}_ms", p * 100.0),
                at * 1e3,
                "ms",
            ));
        }
        for (name, n) in [
            ("rejected", t.rejected),
            ("shed", t.shed),
            ("expired", t.expired),
            ("broken", t.broken),
            ("oracle_mismatch", t.mismatched),
        ] {
            out.push((name.to_string(), n as f64, "count"));
        }
        out
    }
}

/// The per-level metric names, INT8 first, in schedule order.
pub const LEVEL_SHARE: [&str; 5] = [
    "serve.level_share.int8",
    "serve.level_share.25",
    "serve.level_share.50",
    "serve.level_share.75",
    "serve.level_share.100",
];
pub const LEVEL_MS: [&str; 5] = [
    "core.level_ms.int8",
    "core.level_ms.25",
    "core.level_ms.50",
    "core.level_ms.75",
    "core.level_ms.100",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::{Answer, Ask};

    fn rec(due_s: f64, latency_s: f64, answered: bool) -> Record {
        Record {
            ask: Ask { idx: 0, budget: 1 },
            due_s,
            lateness_s: 0.0,
            submit_s: 2e-6,
            steady: true,
            outcome: if answered {
                Outcome::Answered(Answer {
                    level: 0,
                    queue_s: latency_s / 4.0,
                    latency_s,
                    ttft_s: latency_s,
                    per_output_s: latency_s * 0.75,
                    outputs: 1,
                    oracle_ok: true,
                    agree: 1,
                    compared: 1,
                })
            } else {
                Outcome::Expired
            },
        }
    }

    fn fold(w: Workload, segment_s: f64, run_s: f64, records: &[Record]) -> Folded {
        let mut f = Fold::new(w, segment_s, run_s);
        records.iter().for_each(|r| f.push(r));
        f.finish()
    }

    #[test]
    fn refused_requests_count_against_attainment_and_answered() {
        // One one-second segment: 100 answered in 10 ms, 100 expired.
        let mut records = Vec::new();
        for i in 0..100 {
            records.push(rec(0.009 * i as f64, 0.010, true));
            records.push(rec(0.009 * i as f64, 0.010, false));
        }
        let folded = fold(Workload::VitBurst, 1.0, 1.0, &records);
        let v = folded.end_to_end();
        assert_eq!(v["answered_pct"], 50.0);
        assert_eq!(v["slo_attainment_pct"], 50.0);
        assert_eq!(v["throughput_rps"], 100.0);
        assert_eq!(v["goodput_rps"], 100.0);
        assert_eq!(v["quality_pct"], 100.0);
        assert!((v["latency_p50_ms"] - 10.0).abs() < 1e-9);
        assert!((v["itl_p50_ms"] - 7.5).abs() < 1e-9);
        assert_eq!((folded.tally.offered, folded.tally.expired), (200, 100));
        assert_eq!(
            folded.unexpected(),
            0,
            "a typed refusal is the server's answer"
        );
    }

    #[test]
    fn wrong_bits_and_broken_replies_are_unexpected_and_miss_everything() {
        let mut wrong = rec(0.1, 0.01, true);
        if let Outcome::Answered(a) = &mut wrong.outcome {
            a.oracle_ok = false;
        }
        let broken = Record {
            outcome: Outcome::Broken("hung ticket".into()),
            ..rec(0.2, 0.01, true)
        };
        let folded = fold(
            Workload::CnnInt8,
            1.0,
            1.0,
            &[rec(0.0, 0.01, true), wrong, broken],
        );
        assert_eq!(folded.unexpected(), 2);
        let v = folded.end_to_end();
        assert_eq!(v["throughput_rps"], 1.0);
        assert!((v["answered_pct"] - 100.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn answers_past_the_limit_are_throughput_but_not_goodput() {
        // vit_burst's limit is 20 ms: half the answers take 30 ms.
        let records: Vec<Record> = (0..200)
            .map(|i| {
                rec(
                    0.004 * i as f64,
                    if i % 2 == 0 { 0.010 } else { 0.030 },
                    true,
                )
            })
            .collect();
        let v = fold(Workload::VitBurst, 1.0, 1.0, &records).end_to_end();
        assert_eq!(v["answered_pct"], 100.0);
        assert_eq!(v["slo_attainment_pct"], 50.0);
        assert_eq!(v["throughput_rps"], 200.0);
        assert_eq!(v["goodput_rps"], 100.0);
    }

    #[test]
    fn a_slowed_stretch_of_the_run_does_not_set_the_metrics() {
        // Sixteen half-second segments at 1000 answers/s and 8 ms; a
        // neighbour takes seconds 1..6, where the loop manages 600/s
        // at 13 ms.
        let mut records = Vec::new();
        for half in 0..16 {
            let (n, lat) = if (2..12).contains(&half) {
                (300, 0.013)
            } else {
                (500, 0.008)
            };
            for i in 0..n {
                records.push(rec(0.5 * (half as f64 + i as f64 / n as f64), lat, true));
            }
        }
        let folded = fold(Workload::CnnInt8, 0.5, 8.0, &records);
        let v = folded.end_to_end();
        assert_eq!(v["throughput_rps"], 1000.0);
        assert_eq!(v["tokens_per_s"], 1000.0);
        assert!((v["latency_p50_ms"] - 8.0).abs() < 1e-9);
        assert!((folded.quiet("loadgen.latency_p95_ms").unwrap() - 8.0).abs() < 1e-9);
        // The slow stretch is not hidden: the median segment ran at
        // 0.6 of the quiet one.
        let levels = [(0usize, "int8".to_string())];
        assert!((folded.serve_layer(&levels)["loadgen.median_to_quiet"] - 0.6).abs() < 1e-9);
    }

    #[test]
    fn requests_due_after_the_last_whole_segment_are_tallied_only() {
        let records = [
            rec(0.1, 0.01, true),
            rec(0.9, 0.01, true),
            rec(1.2, 0.01, true),
        ];
        let folded = fold(Workload::CnnInt8, 1.0, 1.5, &records);
        assert_eq!(folded.tally.offered, 3);
        assert_eq!(folded.end_to_end()["throughput_rps"], 2.0);
    }

    #[test]
    fn quality_weighs_every_input_the_same_however_often_it_is_drawn() {
        let mut records = Vec::new();
        for i in 0..30 {
            let mut r = rec(0.01 * i as f64, 0.01, true);
            // Input 0 is always right and drawn 29 times; input 1 is
            // always wrong and drawn once.
            if i == 7 {
                r.ask.idx = 1;
                if let Outcome::Answered(a) = &mut r.outcome {
                    a.agree = 0;
                }
            }
            records.push(r);
        }
        let v = fold(Workload::CnnInt8, 1.0, 1.0, &records).end_to_end();
        assert_eq!(v["quality_pct"], 50.0);
    }

    #[test]
    fn every_traffic_metric_of_the_registry_is_produced() {
        let records: Vec<Record> = (0..50).map(|i| rec(0.01 * i as f64, 0.01, true)).collect();
        let v = fold(Workload::LmDecode, 1.0, 1.0, &records).end_to_end();
        for m in spec::END_TO_END {
            if m.name != "setup_s" && m.name != "peak_rss_mb" {
                assert!(v.contains_key(m.name), "{} missing", m.name);
            }
        }
    }
}
