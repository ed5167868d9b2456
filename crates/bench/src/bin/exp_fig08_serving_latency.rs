//! Fig. 8: median and p90 response times vs Poisson request rate for
//! FlexiQ 25–100% ratios and the INT8/INT4 baselines (ViT-B and Swin-S
//! service times from the GPU model).
//!
//! Expected shape (paper §8.3): every configuration is flat until its
//! saturation knee, then explodes; the knee moves right with the 4-bit
//! ratio; FlexiQ-100% sustains ~1.5–1.6× the INT8 rate at comparable
//! p90.

use flexiq_bench::{f2, gpu_serve_config, GpuService, ResultTable};
use flexiq_core::runtime::LEVEL_INT8;
use flexiq_gpu_sim::models::{swin_small, vit_base};
use flexiq_serving::stats::{median, p90};
use flexiq_serving::{poisson, simulate};

fn main() {
    let cfg = gpu_serve_config();
    for workload in [vit_base(), swin_small()] {
        let name = workload.name;
        // (label, runtime level, uniform INT4 kernels)
        let configs = [
            ("INT8", LEVEL_INT8, false),
            ("F25", 0, false),
            ("F50", 1, false),
            ("F75", 2, false),
            ("F100", 3, false),
            ("INT4", LEVEL_INT8, true),
        ];
        let rates = [
            100.0, 300.0, 600.0, 900.0, 1200.0, 1500.0, 2000.0, 2500.0, 3000.0,
        ];
        let mut med_t = ResultTable::new(
            format!("Fig. 8 — {name}: median latency (ms) vs request rate"),
            &[
                "Config", "100", "300", "600", "900", "1200", "1500", "2000", "2500", "3000",
            ],
        );
        let mut p90_t = ResultTable::new(
            format!("Fig. 8 — {name}: p90 latency (ms) vs request rate"),
            &[
                "Config", "100", "300", "600", "900", "1200", "1500", "2000", "2500", "3000",
            ],
        );
        for (label, level, uniform_int4) in configs {
            let svc = GpuService {
                uniform_int4,
                ..GpuService::a6000(workload.clone())
            };
            let mut med_row = vec![label.to_string()];
            let mut p90_row = vec![label.to_string()];
            for (i, &rate) in rates.iter().enumerate() {
                let arrivals = poisson(rate, 4.0, 801 + i as u64);
                let lat = simulate(&arrivals, &svc, level, &cfg, false).latencies();
                med_row.push(f2(median(&lat) * 1e3));
                p90_row.push(f2(p90(&lat) * 1e3));
            }
            med_t.row(med_row);
            p90_t.row(p90_row);
        }
        let tag = name.to_lowercase().replace('-', "_");
        med_t.emit(&format!("fig08_median_{tag}"));
        p90_t.emit(&format!("fig08_p90_{tag}"));

        // Iso-p90 sustainable-rate ratio (the paper's 1.57x claim).
        let svc = GpuService::a6000(workload);
        let knee = |level: usize| -> f64 {
            let mut best = 0.0;
            let fine: Vec<f64> = (4..=32).map(|i| i as f64 * 100.0).collect();
            for &rate in &fine {
                let arrivals = poisson(rate, 4.0, 899);
                let res = simulate(&arrivals, &svc, level, &cfg, false);
                if p90(&res.latencies()) < 0.25 {
                    best = rate;
                }
            }
            best
        };
        let (r8, rf) = (knee(LEVEL_INT8), knee(3));
        println!(
            "{name}: FlexiQ-100% sustains {:.2}x the INT8 rate at iso-p90\n",
            rf / r8.max(1.0)
        );
    }
}
