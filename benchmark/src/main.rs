//! `flexiq-benchmark`: the one command of the end-to-end benchmark.
//!
//! ```text
//! flexiq-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run of one workload in this process; the last line of
//!     standard output is the result as one JSON object
//! flexiq-benchmark run --seed <n> [--seconds <s>]   (default: run_seconds)
//!     every workload, each in a fresh child process: an untraced run
//!     (end-to-end metrics) and a traced run (per-layer metrics)
//! flexiq-benchmark repeat --seed <n> [--seconds <s>]
//!     two full sets of the same code; non-zero exit if any end-to-end
//!     metric disagrees beyond its bound
//! flexiq-benchmark spec
//!     the BENCHMARK.json the code's tables describe
//! ```

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use flexiq_benchmark::json::{obj, Json};
use flexiq_benchmark::run::{run, RunArgs};
use flexiq_benchmark::spec::{self, Better, Workload, END_TO_END, PER_LAYER};
use flexiq_benchmark::stamp;
use flexiq_benchmark::workload::size_ambient_pool;

type CliResult<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// `--key value` pairs after an optional subcommand.
struct Cli {
    command: Option<String>,
    flags: BTreeMap<String, String>,
}

impl Cli {
    fn parse(args: &[String]) -> CliResult<Cli> {
        let mut it = args.iter().peekable();
        let command = it.next_if(|a| !a.starts_with("--")).cloned();
        let mut flags = BTreeMap::new();
        while let Some(key) = it.next() {
            let name = key
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {key:?}"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            flags.insert(name.to_string(), value.clone());
        }
        Ok(Cli { command, flags })
    }

    fn get<T: std::str::FromStr>(&self, name: &str) -> CliResult<Option<T>> {
        self.flags
            .get(name)
            .map(|v| {
                v.parse::<T>()
                    .map_err(|_| format!("--{name}: cannot read {v:?}").into())
            })
            .transpose()
    }

    fn need<T: std::str::FromStr>(&self, name: &str) -> CliResult<T> {
        self.get(name)?
            .ok_or_else(|| format!("--{name} is required").into())
    }
}

/// One run in this process (the entry the driver calls).
fn single(cli: &Cli) -> CliResult<bool> {
    let name: String = cli.need("workload")?;
    let workload =
        Workload::from_name(&name).ok_or_else(|| format!("no workload named {name:?}"))?;
    let seconds: f64 = cli.need("seconds")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} outside (0, 60]").into());
    }
    let args = RunArgs {
        workload,
        seed: cli.need("seed")?,
        seconds,
        trace: match cli.need::<u8>("trace")? {
            0 => false,
            1 => true,
            other => return Err(format!("--trace {other}: 0 or 1").into()),
        },
        setups: spec::SETUPS,
    };
    size_ambient_pool();
    let result = run(&args)?;
    let stamp = stamp::stamp(args.seed);
    println!("stamp {stamp}");
    for (m, v) in &result.metrics {
        println!("{:<30} {:>16.6} {}", m.name, v, m.unit);
    }
    for (name, v, unit) in &result.diagnostics {
        println!("  ~ {:<26} {:>16.6} {}", name, v, unit);
    }
    let line = obj([
        ("stamp", stamp),
        ("workload", Json::Str(name)),
        ("seconds", Json::Num(seconds)),
        ("trace", Json::Bool(args.trace)),
        ("result", result.to_json()),
    ]);
    if let Err(e) = stamp::append_history(&line) {
        println!("history not written: {e}");
    }
    // A run that produced a result exits 0 whatever the result says:
    // `correct` is the reader's to judge.
    println!("{}", result.to_json());
    Ok(true)
}

/// The parsed result line of a child run.
struct Child {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, f64>,
}

/// Runs one workload in a fresh child process and reads its last line.
fn child(w: Workload, seed: u64, seconds: f64, trace: bool) -> CliResult<Child> {
    let out = Command::new(std::env::current_exe()?)
        .args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()?;
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().ok_or("the child printed nothing")?;
    let v = Json::parse(last).map_err(|e| format!("{} trace {}: {e}", w.name(), trace as u8))?;
    let metrics = v
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("result line without metrics")?
        .iter()
        .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(Child {
        correct: v.get("correct").and_then(Json::as_bool).unwrap_or(false) && out.status.success(),
        attempted: v.get("attempted").and_then(Json::as_f64).unwrap_or(0.0),
        failed: v.get("failed").and_then(Json::as_f64).unwrap_or(0.0),
        metrics,
    })
}

/// `workload → metric → value` of one full set.
type Set = BTreeMap<&'static str, BTreeMap<String, f64>>;

/// One full set: every workload, untraced then traced, each in its own
/// process (which appends its own line to the history file). Prints
/// every metric by name with its unit.
fn full_set(seed: u64, seconds: f64) -> CliResult<(Set, bool)> {
    let mut set = Set::new();
    let mut ok = true;
    for w in Workload::ALL {
        println!("== {} — {}", w.name(), w.why());
        let mut all = BTreeMap::new();
        for (trace, defs) in [(false, END_TO_END), (true, PER_LAYER)] {
            let c = child(w, seed, seconds, trace)?;
            ok &= c.correct;
            println!(
                "-- {} run: attempted {} failed {} correct {}",
                if trace { "traced" } else { "untraced" },
                c.attempted,
                c.failed,
                c.correct
            );
            for m in defs {
                match c.metrics.get(m.name) {
                    Some(v) => println!("{:<10} {:<30} {:>16.6} {}", w.name(), m.name, v, m.unit),
                    None => {
                        println!(
                            "{:<10} {:<30} {:>16} {}",
                            w.name(),
                            m.name,
                            "missing",
                            m.unit
                        );
                        ok = false;
                    }
                }
            }
            all.extend(c.metrics);
        }
        set.insert(w.name(), all);
    }
    // The knob's two ends against each other: the paper's relation is
    // a ratio of at most 1.
    if let (Some(a), Some(b)) = (
        set["cnn_int4"].get("latency_p50_ms"),
        set["cnn_int8"].get("latency_p50_ms"),
    ) {
        println!(
            "derived    knob.latency_ratio_100 = {:.4} (cnn_int4 / cnn_int8 latency_p50_ms)",
            a / b
        );
    }
    Ok((set, ok))
}

fn run_seconds(cli: &Cli) -> CliResult<f64> {
    Ok(cli.get("seconds")?.unwrap_or(spec::RUN_SECONDS as f64))
}

/// Two sets of the same code against the benchmark's own bounds.
fn repeat(cli: &Cli) -> CliResult<bool> {
    let (seed, seconds) = (cli.need("seed")?, run_seconds(cli)?);
    let (first, ok1) = full_set(seed, seconds)?;
    let (second, ok2) = full_set(seed, seconds)?;
    let mut agree = ok1 && ok2;
    println!("== repeat: first vs second set, relative difference against the bound");
    for w in Workload::ALL {
        for m in END_TO_END {
            let (Some(a), Some(b)) = (first[w.name()].get(m.name), second[w.name()].get(m.name))
            else {
                agree = false;
                continue;
            };
            // How much worse the second set reads, as a share of the first.
            let worse = match m.better {
                Better::Lower => (b - a) / a.abs().max(1e-12),
                Better::Higher => (a - b) / a.abs().max(1e-12),
            };
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let within = worse.abs() <= bound;
            agree &= within;
            println!(
                "{:<10} {:<20} {:>14.5} {:>14.5} {:>+8.2}% (bound {:.1}%) {}",
                w.name(),
                m.name,
                a,
                b,
                100.0 * worse,
                100.0 * bound,
                if within { "ok" } else { "DISAGREE" }
            );
        }
    }
    Ok(agree)
}

fn dispatch(cli: &Cli) -> CliResult<bool> {
    match cli.command.as_deref() {
        None => single(cli),
        Some("run") => Ok(full_set(cli.need("seed")?, run_seconds(cli)?)?.1),
        Some("repeat") => repeat(cli),
        Some("spec") => {
            print!("{}", spec::render_benchmark_file());
            Ok(true)
        }
        Some(other) => Err(format!("unknown command {other:?}").into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match Cli::parse(&args).and_then(|cli| dispatch(&cli)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("flexiq-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
