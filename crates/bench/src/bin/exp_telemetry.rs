//! Telemetry overhead sweep (ISSUE 6).
//!
//! Times the batch-16 RNet20 stacked pass with span tracing disabled and
//! fully enabled, at `Scale::Eval` (the scale the end-to-end benchmark
//! deploys) on the integer engine. The enabled pass records per-node,
//! per-engine-phase and per-GEMM spans, so this measures the all-in cost
//! of the tracing the serving path can switch on per request. Disabled
//! and enabled passes **alternate one by one** and the overhead is the
//! median of the per-pair enabled/disabled ratios: the box drifts by
//! ±5 % at the 100 ms scale, which cancels inside a ~10 ms pair and
//! lands in the result of anything coarser (best-of per side over
//! alternating 70 ms groups read −3 % to +6 % across 20 runs, this
//! estimator +0.4 % to +1.5 %). A sampled Chrome trace of one traced
//! pass lands in `results/telemetry_trace.json` and the top span
//! aggregates are printed as the per-layer breakdown.
//!
//! **Floor** ([`floors`], the only place it is stated): traced overhead
//! ≤ [`MAX_OVERHEAD_PCT`] %, and the traced pass must have recorded
//! spans and dropped none (an empty or truncated trace would make the
//! overhead number vacuous). The binary exits 1 on a miss — CI reads
//! the exit code.
//!
//! `FLEXIQ_BENCH_REPS` overrides the auto-calibrated pair count (e.g.
//! `FLEXIQ_BENCH_REPS=25` keeps a smoke run fast).

use std::time::Instant;

use flexiq_bench::{results_dir, ResultTable};
use flexiq_core::pipeline::{prepare, FlexiQConfig};
use flexiq_core::selection::Strategy;
use flexiq_core::FlexiRuntime;
use flexiq_nn::data::gen_image_inputs;
use flexiq_nn::qexec::{ExecMode, QuantExecOptions};
use flexiq_nn::zoo::{ModelId, Scale};
use flexiq_telemetry as tel;
use flexiq_tensor::Tensor;

const BATCH: usize = 16;
/// The floor: overhead budget of full tracing, percent.
const MAX_OVERHEAD_PCT: f64 = 3.0;

/// What the sweep measured, as the floor sees it.
struct Measured {
    /// Enabled / disabled pass time, one per alternating pair.
    pair_ratios: Vec<f64>,
    spans_per_pass: usize,
    spans_dropped: u64,
}

impl Measured {
    /// Median per-pair overhead, percent (NaN when there are no pairs).
    fn overhead_pct(&self) -> f64 {
        let mut r = self.pair_ratios.clone();
        r.sort_by(f64::total_cmp);
        (r.get(r.len() / 2).copied().unwrap_or(f64::NAN) - 1.0) * 100.0
    }
}

/// The floor, stated once. Returns one message per miss — empty means
/// pass.
fn floors(m: &Measured) -> Vec<String> {
    let mut misses = Vec::new();
    let overhead = m.overhead_pct();
    // Stated as the pass condition so a NaN reading is a miss.
    let within_budget = overhead <= MAX_OVERHEAD_PCT;
    if !within_budget {
        misses.push(format!(
            "telemetry overhead {overhead:+.2}% (median of {} pairs), floor {MAX_OVERHEAD_PCT}%",
            m.pair_ratios.len()
        ));
    }
    if m.spans_per_pass == 0 {
        misses.push("traced pass recorded no spans — the overhead is vacuous".into());
    }
    if m.spans_dropped > 0 {
        misses.push(format!(
            "traced pass dropped {} span(s) — a full ring is cheaper than recording",
            m.spans_dropped
        ));
    }
    misses
}

/// Seconds for one stacked pass. The ring buffers are cleared first
/// (untimed) so an enabled pass times span *recording*, never the
/// cheaper drop-when-full path.
fn pass_s(rt: &FlexiRuntime, inputs: &[Tensor]) -> f64 {
    tel::reset();
    let t0 = Instant::now();
    std::hint::black_box(rt.infer_batch(inputs).expect("batched inference"));
    t0.elapsed().as_secs_f64()
}

fn main() {
    let id = ModelId::RNet20;
    println!(
        "preparing {} (eval scale) for the telemetry overhead sweep...",
        id.name()
    );
    let graph = id.build(Scale::Eval).unwrap();
    let calib = gen_image_inputs(8, &id.input_dims(Scale::Eval), 0x7E1E01);
    let prepared = prepare(&graph, &calib, &FlexiQConfig::new(4, Strategy::Greedy)).unwrap();
    // The real integer engine, not the default fake-quant float path:
    // the overhead criterion targets the quantized hot path the server
    // runs, and only that path emits the band-GEMM/bit-lowering spans
    // the trace artifact exists to show.
    let rt = prepared.runtime.with_exec_options(QuantExecOptions {
        mode: ExecMode::Int,
        ..Default::default()
    });
    let inputs = gen_image_inputs(BATCH, &id.input_dims(Scale::Eval), 0x7E1E02);
    // Mixed-precision level: the traced pass must cover the full engine
    // (act-quant, bit-lowering, band GEMMs, requant), not the 8-bit
    // shortcut.
    rt.set_level(rt.num_levels() - 1).unwrap();

    tel::set_enabled(false);
    std::hint::black_box(rt.infer_batch(&inputs).expect("warm-up inference"));
    let once = pass_s(&rt, &inputs);
    // ~3 s of alternating passes.
    let pairs = std::env::var("FLEXIQ_BENCH_REPS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map(|r| r.max(1))
        .unwrap_or_else(|| ((1.5 / once.max(1e-6)) as usize).clamp(25, 1000));

    let mut disabled = f64::INFINITY;
    let mut pair_ratios = Vec::with_capacity(pairs);
    for _ in 0..pairs {
        tel::set_enabled(false);
        let d = pass_s(&rt, &inputs);
        tel::set_enabled(true);
        pair_ratios.push(pass_s(&rt, &inputs) / d);
        disabled = disabled.min(d);
    }

    // One clean traced pass for the span census, the Chrome trace
    // artifact and the per-layer breakdown.
    tel::reset();
    std::hint::black_box(rt.infer_batch(&inputs).expect("traced inference"));
    let threads = tel::drain();
    tel::set_enabled(false);
    let m = Measured {
        pair_ratios,
        spans_per_pass: threads.iter().map(|t| t.spans.len()).sum(),
        spans_dropped: threads.iter().map(|t| t.dropped).sum(),
    };

    let mut table = ResultTable::new(
        "Traced batch-16 pass: top spans by total time",
        &["span", "cat", "count", "total_ms", "max_ms"],
    );
    for cat in [tel::Cat::Node, tel::Cat::Phase, tel::Cat::Gemm] {
        for agg in tel::top_spans(&threads, cat, 5) {
            table.row(vec![
                agg.name.to_string(),
                cat.as_str().to_string(),
                agg.count.to_string(),
                format!("{:.4}", agg.total_ns as f64 / 1e6),
                format!("{:.4}", agg.max_ns as f64 / 1e6),
            ]);
        }
    }
    table.emit("telemetry_breakdown");

    let trace_path = results_dir().join("telemetry_trace.json");
    match tel::chrome::write_trace(&trace_path, &threads) {
        Ok(()) => println!("[written {}]", trace_path.display()),
        Err(e) => {
            eprintln!("FAIL: could not write {}: {e}", trace_path.display());
            std::process::exit(1);
        }
    }

    println!(
        "telemetry overhead ({pairs} alternating pass pairs, untraced pass {:.4} ms): \
         {:+.2}% ({} spans/pass, {} dropped)",
        disabled * 1e3,
        m.overhead_pct(),
        m.spans_per_pass,
        m.spans_dropped
    );
    let misses = floors(&m);
    for miss in &misses {
        eprintln!("FAIL: {miss}");
    }
    if !misses.is_empty() {
        std::process::exit(1);
    }
    println!("telemetry sweep PASS (overhead <= {MAX_OVERHEAD_PCT}%)");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measured(overhead_pct: f64) -> Measured {
        // One drifted pair either side of the true overhead.
        let r = 1.0 + overhead_pct / 100.0;
        Measured {
            pair_ratios: vec![r, 0.9, r, 1.4, r],
            spans_per_pass: 120,
            spans_dropped: 0,
        }
    }

    #[test]
    fn doctored_telemetry_regression_fails() {
        assert!(floors(&measured(1.1)).is_empty());
        assert!(floors(&measured(-0.4)).is_empty());
        // Overhead above the budget: the regression this floor exists
        // for.
        let misses = floors(&measured(7.5));
        assert_eq!(misses.len(), 1);
        assert!(misses[0].contains("+7.50%"), "{misses:?}");
        assert_eq!(floors(&measured(f64::NAN)).len(), 1);
        // A traced pass that recorded nothing, or overflowed its ring,
        // cannot vouch for the overhead number.
        let empty = Measured {
            spans_per_pass: 0,
            ..measured(1.0)
        };
        assert_eq!(floors(&empty).len(), 1);
        let truncated = Measured {
            spans_dropped: 3,
            ..measured(1.0)
        };
        assert_eq!(floors(&truncated).len(), 1);
    }
}
