//! Plumbing smoke test: `BENCHMARK.json` and the code register the
//! same names, and every workload, at a fraction of its run length,
//! emits every one of them with no failed operation.

use std::path::Path;
use std::time::Instant;

use flexiq_benchmark::run::{run, RunArgs, RunResult};
use flexiq_benchmark::spec::{BenchmarkFile, FileMetric, Workload};
use flexiq_benchmark::workload::size_ambient_pool;

fn names(result: &RunResult) -> Vec<&str> {
    result.metrics.iter().map(|(m, _)| m.name).collect()
}

fn registered(metrics: &[FileMetric]) -> Vec<&str> {
    metrics.iter().map(|m| m.name.as_str()).collect()
}

#[test]
fn every_workload_emits_every_registered_metric() {
    let started = Instant::now();
    // The benchmark runs from the root of the repository: BENCHMARK.json
    // is there, and traces go to benchmark/out/ under it.
    std::env::set_current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join(".."))
        .expect("the repository root");
    let text =
        std::fs::read_to_string("BENCHMARK.json").expect("BENCHMARK.json at the root of the repo");
    let file = BenchmarkFile::parse(&text).expect("a valid BENCHMARK.json");
    file.check_against_code()
        .expect("BENCHMARK.json and the code tables agree");
    assert_eq!(file.paths, ["benchmark"]);

    size_ambient_pool();
    for workload in Workload::ALL {
        for trace in [false, true] {
            let args = RunArgs {
                workload,
                seed: 7,
                seconds: 1.0,
                trace,
                setups: 2,
            };
            let result =
                run(&args).unwrap_or_else(|e| panic!("{} trace {trace}: {e}", workload.name()));
            let want = if trace {
                &file.per_layer
            } else {
                &file.end_to_end
            };
            assert_eq!(
                names(&result),
                registered(want),
                "{} trace {trace}",
                workload.name()
            );
            assert!(
                result.correct,
                "{} trace {trace} is not correct",
                workload.name()
            );
            assert_eq!(result.failed, 0, "{} trace {trace}", workload.name());
            assert!(result.attempted >= 1);
            assert!(result.metrics.iter().all(|(_, v)| v.is_finite()));
            if !trace {
                // End-to-end metrics must never read zero.
                for (m, v) in &result.metrics {
                    assert!(*v > 0.0, "{} {} = {v}", workload.name(), m.name);
                }
            }
        }
    }
    assert!(
        started.elapsed().as_secs() < 60,
        "the smoke test took {:?}",
        started.elapsed()
    );
}
