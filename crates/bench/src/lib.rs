//! Shared harness for the experiment binaries (`exp_*`).
//!
//! Every table and figure of the paper's evaluation has a binary in
//! `src/bin/` that regenerates it (see DESIGN.md §4 for the index). This
//! library holds the common fixtures: model + dataset construction at
//! experiment scale, FlexiQ preparation, and plain-text/CSV table output
//! into `results/`.
//!
//! Four of the binaries are perf floors rather than reproductions —
//! `exp_gemm`, `exp_telemetry`, `exp_decode`, `exp_fault`: each states
//! its floor once, as a pure `floors` function over the numbers it
//! measured, and exits non-zero on a miss. Serving performance itself is
//! measured by the standalone `benchmark/` package (`BENCHMARK.json`).
//!
//! Experiment sizes are chosen so the full suite finishes in minutes on a
//! laptop CPU; the `FLEXIQ_SAMPLES`, `FLEXIQ_CALIB` and `FLEXIQ_EPOCHS`
//! environment variables scale them up for higher-fidelity runs.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::time::Duration;

use flexiq_core::evolution::EvolutionConfig;
use flexiq_core::pipeline::{prepare, FlexiQConfig, Prepared};
use flexiq_core::runtime::LEVEL_INT8;
use flexiq_core::selection::Strategy;
use flexiq_gpu_sim::cost::{KernelKind, LatencyModel};
use flexiq_gpu_sim::models::TransformerWorkload;
use flexiq_gpu_sim::profiles::GpuProfile;
use flexiq_nn::data::{gen_image_inputs, teacher_dataset_filtered, Dataset};
use flexiq_nn::graph::Graph;
use flexiq_nn::zoo::{ModelId, Scale};
use flexiq_serve::{BrownoutConfig, ServeConfig};
use flexiq_serving::ServiceModel;
use flexiq_tensor::Tensor;

/// Experiment-scale knobs (env-var overridable).
#[derive(Debug, Clone, Copy)]
pub struct ExpScale {
    /// Evaluation samples kept after margin filtering.
    pub eval_samples: usize,
    /// Calibration samples.
    pub calib_samples: usize,
    /// Finetuning epochs where applicable.
    pub finetune_epochs: usize,
}

impl ExpScale {
    /// Reads the scale from the environment (with defaults).
    pub fn from_env() -> Self {
        let get = |k: &str, d: usize| {
            std::env::var(k)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(d)
        };
        ExpScale {
            eval_samples: get("FLEXIQ_SAMPLES", 48),
            calib_samples: get("FLEXIQ_CALIB", 32),
            finetune_epochs: get("FLEXIQ_EPOCHS", 2),
        }
    }
}

/// A fully prepared experiment fixture for one model.
pub struct Fixture {
    /// The model.
    pub id: ModelId,
    /// The (original, pre-layout) graph.
    pub graph: Graph,
    /// Margin-filtered teacher dataset.
    pub data: Dataset,
    /// Calibration inputs.
    pub calib: Vec<Tensor>,
}

impl Fixture {
    /// Builds the model, dataset and calibration set.
    pub fn new(id: ModelId, scale: ExpScale) -> Self {
        let graph = id.build(Scale::Eval).expect("zoo model builds");
        let dims = id.input_dims(Scale::Eval);
        let pool = gen_image_inputs(scale.eval_samples * 4, &dims, 0xDA7A ^ id as u64);
        let data = teacher_dataset_filtered(&graph, pool, 0.25).expect("teacher labelling");
        let calib = gen_image_inputs(scale.calib_samples, &dims, 0xCA11B ^ id as u64);
        Fixture {
            id,
            graph,
            data,
            calib,
        }
    }

    /// Runs the FlexiQ pipeline with a strategy.
    pub fn prepare(&self, strategy: Strategy) -> Prepared {
        let mut cfg = FlexiQConfig::new(8, strategy);
        cfg.fitness_samples = 8;
        prepare(&self.graph, &self.calib, &cfg).expect("pipeline")
    }

    /// The harness default evolutionary configuration (reduced from the
    /// paper's 50×50 to stay CPU-friendly; see DESIGN.md §3).
    pub fn evolution() -> EvolutionConfig {
        EvolutionConfig {
            population: 8,
            generations: 6,
            parents: 4,
            ..Default::default()
        }
    }
}

/// A transformer served on the A6000 cost model, as the serving
/// simulator sees it (Figs. 8 and 9). Levels are the runtime's: INT8 is
/// [`LEVEL_INT8`], schedule level `k` runs `25·(k+1)` % of its channels
/// in 4 bits.
pub struct GpuService {
    /// The model's GEMM shapes and float-side work.
    pub workload: TransformerWorkload,
    /// The GPU latency model.
    pub model: LatencyModel,
    /// Run every level on uniform INT4 kernels (Fig. 8's INT4 baseline).
    pub uniform_int4: bool,
}

impl GpuService {
    /// `workload` on an A6000 with FlexiQ kernels.
    pub fn a6000(workload: TransformerWorkload) -> Self {
        GpuService {
            workload,
            model: LatencyModel::new(GpuProfile::A6000),
            uniform_int4: false,
        }
    }
}

impl ServiceModel for GpuService {
    fn service_s(&self, batch: usize, level: usize) -> f64 {
        let kind = match level {
            _ if self.uniform_int4 => KernelKind::UniformInt4,
            LEVEL_INT8 => KernelKind::UniformInt8,
            l => KernelKind::FlexiQ {
                low_fraction: 0.25 * (l + 1) as f64,
                dynamic_extract: false,
            },
        };
        self.workload
            .model_latency_us(&self.model, batch.max(1), kind)
            / 1e6
    }

    fn levels(&self) -> usize {
        4
    }
}

/// The paper's §8.3 serving setup: one GPU worker dispatching up to 32
/// queued requests the moment it is free, an unbounded queue, no
/// deadlines and no brownout.
pub fn gpu_serve_config() -> ServeConfig {
    ServeConfig {
        max_batch: 32,
        batch_timeout: Duration::ZERO,
        queue_capacity: usize::MAX,
        brownout: BrownoutConfig {
            enabled: false,
            ..BrownoutConfig::default()
        },
        ..ServeConfig::default()
    }
}

/// A plain-text + CSV result table.
pub struct ResultTable {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl ResultTable {
    /// Creates a table with a title and column header.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        ResultTable {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Renders the aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(c.len());
                } else {
                    widths.push(c.len());
                }
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], out: &mut String| {
            let mut parts = Vec::new();
            for (i, c) in cells.iter().enumerate() {
                parts.push(format!(
                    "{c:>width$}",
                    width = widths.get(i).copied().unwrap_or(8)
                ));
            }
            let _ = writeln!(out, "{}", parts.join("  "));
        };
        line(&self.header, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }

    /// Prints the table and writes `results/<name>.csv`.
    pub fn emit(&self, name: &str) {
        println!("{}", self.render());
        let mut csv = String::new();
        let _ = writeln!(csv, "{}", self.header.join(","));
        for row in &self.rows {
            let _ = writeln!(csv, "{}", row.join(","));
        }
        let dir = results_dir();
        let _ = fs::create_dir_all(&dir);
        let path = dir.join(format!("{name}.csv"));
        if let Err(e) = fs::write(&path, csv) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("[written {}]\n", path.display());
        }
    }
}

/// The `results/` directory at the workspace root.
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench → ../../results.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Formats a float with two decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a percentage with one decimal.
pub fn pct(v: f64) -> String {
    format!("{v:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_and_aligns() {
        let mut t = ResultTable::new("Demo", &["model", "acc"]);
        t.row(vec!["RNet20".into(), "99.1".into()]);
        t.row(vec!["ViT-B".into(), "85.0".into()]);
        let s = t.render();
        assert!(s.contains("Demo"));
        assert!(s.contains("RNet20"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    fn scale_reads_defaults() {
        let s = ExpScale::from_env();
        assert!(s.eval_samples >= 8);
        assert!(s.calib_samples >= 4);
    }
}
