//! Fig. 9: median latency under a fluctuating Azure-like request trace —
//! FlexiQ's adaptive ratio control vs fixed INT8 / INT4.
//!
//! The adaptive run is the live server's own control plane
//! (`flexiq_serve::Policy`) ticked under virtual time: it raises the
//! 4-bit ratio one step while the 1 s windowed median latency exceeds
//! 150 ms and lowers it once it falls below half that.
//!
//! Expected shape (paper §8.3): as the rate swings between ~500 and
//! ~1500 rps, INT8's median latency blows up at the peaks; the adaptive
//! policy tracks INT4's latency at peak load while serving mostly-8-bit
//! (higher accuracy) in the valleys.

use std::time::Duration;

use flexiq_bench::{f2, gpu_serve_config, GpuService, ResultTable};
use flexiq_core::runtime::LEVEL_INT8;
use flexiq_gpu_sim::models::vit_base;
use flexiq_serve::policy::rung;
use flexiq_serve::{ControlConfig, ServeConfig};
use flexiq_serving::stats::{median, windowed_median};
use flexiq_serving::{azure_like_trace, simulate};

fn main() {
    let svc = GpuService::a6000(vit_base());
    let cfg = ServeConfig {
        control: ControlConfig {
            // 150 ms — the paper's stable band is 100–150 ms.
            target: Duration::from_millis(150),
            percentile: 0.5,
            window: Duration::from_secs(1),
            ..ControlConfig::default()
        },
        ..gpu_serve_config()
    };
    let (arrivals, segments) = azure_like_trace(500.0, 2.0, 15, 901);

    let res_adapt = simulate(&arrivals, &svc, LEVEL_INT8, &cfg, true);
    let res_int8 = simulate(&arrivals, &svc, LEVEL_INT8, &cfg, false);
    let res_int4 = simulate(&arrivals, &svc, 3, &cfg, false);

    let mut table = ResultTable::new(
        "Fig. 9 — ViT-B under a fluctuating trace: windowed median latency (ms)",
        &[
            "t(s)",
            "rate(rps)",
            "INT8",
            "FlexiQ-adaptive",
            "INT4",
            "level",
        ],
    );
    let w = 2.0;
    let m8 = windowed_median(&res_int8.time_series(), w);
    let ma = windowed_median(&res_adapt.time_series(), w);
    let m4 = windowed_median(&res_int4.time_series(), w);
    let lvl_at = |t: f64| -> usize {
        res_adapt
            .level_changes
            .iter()
            .rev()
            .find(|(tt, _)| *tt <= t)
            .map_or(LEVEL_INT8, |(_, l)| *l)
    };
    for (i, &(t, v8)) in m8.iter().enumerate() {
        let rate = segments.get((t / 2.0) as usize).map(|s| s.1).unwrap_or(0.0);
        let va = ma.get(i).map(|x| x.1).unwrap_or(f64::NAN);
        let v4 = m4.get(i).map(|x| x.1).unwrap_or(f64::NAN);
        table.row(vec![
            f2(t),
            f2(rate),
            f2(v8 * 1e3),
            f2(va * 1e3),
            f2(v4 * 1e3),
            rung(lvl_at(t)).to_string(),
        ]);
    }
    table.emit("fig09_adaptive_trace");
    println!(
        "overall medians (ms): INT8 {:.1}, adaptive {:.1}, INT4 {:.1}; mean adaptive level {:.2} (0=INT8..4=100%)",
        median(&res_int8.latencies()) * 1e3,
        median(&res_adapt.latencies()) * 1e3,
        median(&res_int4.latencies()) * 1e3,
        res_adapt.mean_rung()
    );
    println!(
        "accuracy note: the adaptive policy serves level 0–1 in the valleys, so its\n\
         time-averaged accuracy tracks INT8's (paper: 84.64% vs 84.72%); see\n\
         results/table2_accuracy.csv for the accuracy at each level."
    );
}
