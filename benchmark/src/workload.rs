//! Setting a workload up: the fixed dataset, the deployed runtime and
//! server, and the oracle every served response is checked against.
//!
//! Everything here goes through public functions of the library crates.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use flexiq_core::pipeline::{prepare, FlexiQConfig};
use flexiq_core::runtime::LEVEL_INT8;
use flexiq_core::{FlexiRuntime, Strategy};
use flexiq_nn::exec::run_f32;
use flexiq_nn::kv::KvSpec;
use flexiq_nn::qexec::{ExecMode, QuantExecOptions};
use flexiq_nn::zoo::{ModelId, Scale, TinyLmCfg};
use flexiq_nn::Graph;
use flexiq_serve::{DecodeConfig, DecodeServer, ServeConfig, Server};
use flexiq_tensor::Tensor;

use crate::rng::Rng;
use crate::spec::{self, Workload};

/// Any failure of the benchmark itself (never of a request: those are
/// counted, not raised).
pub type BenchResult<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

impl Workload {
    pub fn model(self) -> ModelId {
        match self {
            Workload::CnnInt8 | Workload::CnnInt4 => ModelId::RNet20,
            Workload::VitBurst => ModelId::ViTS,
            Workload::LmDecode => ModelId::TinyLm,
        }
    }

    pub fn is_decode(self) -> bool {
        self == Workload::LmDecode
    }

    /// The engine options the deployment runs under. `vit_burst` takes
    /// the library default on purpose: the deployment as shipped.
    pub fn exec_options(self) -> QuantExecOptions {
        match self {
            Workload::VitBurst => QuantExecOptions::default(),
            _ => QuantExecOptions {
                mode: ExecMode::Int,
                ..Default::default()
            },
        }
    }

    /// The runtime level the server starts at.
    fn start_level(self, rt: &FlexiRuntime) -> usize {
        match self {
            Workload::CnnInt8 | Workload::VitBurst => LEVEL_INT8,
            Workload::CnnInt4 => rt.num_levels() - 1,
            Workload::LmDecode => spec::LM_LEVEL,
        }
    }
}

/// Name suffix of a runtime level in the metric names (`int8`, `25`, …).
pub fn level_label(rt: &FlexiRuntime, level: usize) -> String {
    if level == LEVEL_INT8 {
        "int8".into()
    } else {
        format!("{:.0}", rt.schedule().ratios[level] * 100.0)
    }
}

/// Every level of a runtime, INT8 first.
pub fn all_levels(rt: &FlexiRuntime) -> Vec<usize> {
    std::iter::once(LEVEL_INT8)
        .chain(0..rt.num_levels())
        .collect()
}

/// Sizes the process-global pool like the one-shot servers' own pool.
/// The decode server, the oracle and the direct probes run on it, and
/// the environment is the only way to size it: call once, first thing,
/// before anything touches the pool and while the process has one
/// thread.
pub fn size_ambient_pool() {
    std::env::set_var("FLEXIQ_THREADS", spec::POOL_THREADS.to_string());
}

// ───────────────────────── dataset ─────────────────────────

/// The fixed inputs requests draw from, with the f32 model's answer to
/// each: the class for an image, the greedy continuation for a prompt.
pub struct Dataset {
    pub inputs: Vec<Tensor>,
    pub f32_answer: Vec<Vec<u32>>,
}

fn image(dims: &[usize], rng: &mut Rng) -> Tensor {
    let n = dims.iter().product();
    Tensor::from_vec(dims.to_vec(), (0..n).map(|_| rng.normal()).collect()).expect("dims match")
}

fn images(n: usize, dims: &[usize], rng: &mut Rng) -> Vec<Tensor> {
    (0..n).map(|_| image(dims, rng)).collect()
}

/// Token-id prompts: a noisy ramp over the vocabulary, so the model has
/// local structure to continue.
fn prompts(n: usize, cfg: &TinyLmCfg, full_len: bool, rng: &mut Rng) -> Vec<Tensor> {
    (0..n)
        .map(|_| {
            let len = if full_len {
                cfg.context
            } else {
                rng.range(spec::LM_PROMPT.0, spec::LM_PROMPT.1)
            };
            let mut tok = rng.range(0, cfg.vocab - 1);
            let ids = (0..len)
                .map(|_| {
                    let out = tok as f32;
                    tok = match rng.unit() {
                        r if r < 0.7 => (tok + 1) % cfg.vocab,
                        r if r < 0.9 => (tok + 2) % cfg.vocab,
                        _ => rng.range(0, cfg.vocab - 1),
                    };
                    out
                })
                .collect();
            Tensor::from_vec([len], ids).expect("length matches")
        })
        .collect()
}

/// Tokens a generation yields: the prefill's one, then one per step
/// until the budget or the model context runs out.
pub fn generated_len(prompt_len: usize, budget: usize, context: usize) -> usize {
    1 + (context - prompt_len).min(budget.saturating_sub(1))
}

fn argmax_last_row(logits: &Tensor) -> BenchResult<u32> {
    let rows = logits.dims()[0];
    Ok(logits
        .index_axis0(rows - 1)?
        .argmax()
        .ok_or("empty logits row")? as u32)
}

/// Greedy decode on the f32 graph by re-running the growing prefix.
fn f32_greedy(
    graph: &Graph,
    prompt: &Tensor,
    budget: usize,
    context: usize,
) -> BenchResult<Vec<u32>> {
    let mut ids = prompt.data().to_vec();
    let want = generated_len(ids.len(), budget, context);
    let mut out = Vec::with_capacity(want);
    loop {
        let logits = run_f32(graph, &Tensor::from_vec([ids.len()], ids.clone())?)?;
        let tok = argmax_last_row(&logits)?;
        out.push(tok);
        if out.len() == want {
            return Ok(out);
        }
        ids.push(tok as f32);
    }
}

impl Dataset {
    fn build(w: Workload, graph: &Graph) -> BenchResult<Dataset> {
        let mut rng = Rng::stream(spec::DATASET_SEED, 1);
        if w.is_decode() {
            let cfg = TinyLmCfg::at(Scale::Eval);
            let inputs = prompts(spec::DATASET, &cfg, false, &mut rng);
            let f32_answer = inputs
                .iter()
                .map(|p| f32_greedy(graph, p, spec::LM_BUDGET.1, cfg.context))
                .collect::<BenchResult<_>>()?;
            Ok(Dataset { inputs, f32_answer })
        } else {
            let inputs = images(spec::DATASET, &w.model().input_dims(Scale::Eval), &mut rng);
            let f32_answer = inputs
                .iter()
                .map(|x| {
                    Ok(vec![
                        run_f32(graph, x)?.argmax().ok_or("empty logits")? as u32
                    ])
                })
                .collect::<BenchResult<_>>()?;
            Ok(Dataset { inputs, f32_answer })
        }
    }
}

// ───────────────────────── deployment ─────────────────────────

/// Where one set-up's time went.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub build_s: f64,
    pub prepare_s: f64,
    pub prewarm_s: f64,
    pub start_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.build_s + self.prepare_s + self.prewarm_s + self.start_s
    }
}

/// The running server of a deployment.
pub enum Serving {
    OneShot(Box<Server>),
    Decode(DecodeServer),
}

/// One set-up of one workload: graph → `prepare` → prewarm → server.
pub struct Deployment {
    pub workload: Workload,
    /// The graph as built: the f32 reference for `quality_pct`.
    pub graph: Graph,
    pub rt: Arc<FlexiRuntime>,
    pub serving: Serving,
    pub times: SetupTimes,
}

/// The one-shot servers' configuration: fixed sizing, library defaults
/// for everything else, a deadline only where the workload has one.
pub fn serve_config(w: Workload) -> ServeConfig {
    ServeConfig {
        workers: spec::WORKERS,
        pool_threads: Some(spec::POOL_THREADS),
        default_deadline: (w == Workload::VitBurst)
            .then(|| Duration::from_millis(spec::BURST_DEADLINE_MS)),
        ..ServeConfig::default()
    }
}

/// The decode server's configuration.
pub fn decode_config() -> DecodeConfig {
    DecodeConfig {
        max_active: spec::LM_MAX_ACTIVE,
        max_new_tokens: spec::LM_MAX_NEW,
        batch_timeout: Duration::from_millis(spec::LM_BATCH_TIMEOUT_MS),
        ..DecodeConfig::default()
    }
}

impl Deployment {
    /// A fresh set-up, timed phase by phase.
    pub fn set_up(w: Workload) -> BenchResult<Deployment> {
        let mut times = SetupTimes::default();
        let id = w.model();

        let t = Instant::now();
        let graph = id.build(Scale::Eval)?;
        times.build_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let mut rng = Rng::stream(spec::DATASET_SEED, 2);
        let calib = if w.is_decode() {
            prompts(
                spec::CALIB_SAMPLES,
                &TinyLmCfg::at(Scale::Eval),
                true,
                &mut rng,
            )
        } else {
            images(spec::CALIB_SAMPLES, &id.input_dims(Scale::Eval), &mut rng)
        };
        let mut cfg = FlexiQConfig::new(4, Strategy::Greedy);
        cfg.exec = w.exec_options();
        let mut rt = prepare(&graph, &calib, &cfg)?.runtime;
        if w.is_decode() {
            rt = rt.with_kv_spec(KvSpec::mixed(spec::LM_KV.0, spec::LM_KV.1));
        }
        rt.set_level(w.start_level(&rt))?;
        let rt = Arc::new(rt);
        times.prepare_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        rt.prewarm_levels()?;
        times.prewarm_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let serving = match w {
            Workload::CnnInt8 | Workload::CnnInt4 => Serving::OneShot(Box::new(
                Server::start_fixed(Arc::clone(&rt), serve_config(w))?,
            )),
            Workload::VitBurst => Serving::OneShot(Box::new(Server::start_adaptive(
                Arc::clone(&rt),
                serve_config(w),
            )?)),
            Workload::LmDecode => {
                Serving::Decode(DecodeServer::start(Arc::clone(&rt), decode_config())?)
            }
        };
        times.start_s = t.elapsed().as_secs_f64();

        Ok(Deployment {
            workload: w,
            graph,
            rt,
            serving,
            times,
        })
    }

    /// Stops the server and returns the one-shot server's final
    /// snapshot (`None` for the decode server, which keeps none).
    pub fn shut_down(self) -> Option<flexiq_serve::Snapshot> {
        match self.serving {
            Serving::OneShot(s) => Some(s.shutdown()),
            Serving::Decode(s) => {
                s.shutdown();
                None
            }
        }
    }
}

// ───────────────────────── oracle ─────────────────────────

/// What the runtime itself answers to every dataset input at every
/// level a response may report, computed before timing by direct
/// single-sample calls. Served responses must match it bit for bit.
pub struct Oracle {
    pub dataset: Dataset,
    /// `level → input → answer`: output bits for one-shot workloads,
    /// greedy tokens at the largest budget for `lm_decode`.
    reference: BTreeMap<usize, Vec<Vec<u32>>>,
    context: usize,
}

/// Solo greedy decode through the runtime's own decode API.
fn solo_decode(rt: &FlexiRuntime, prompt: &Tensor, budget: usize) -> BenchResult<Vec<u32>> {
    let (mut session, first, _) = rt.decode_start(prompt)?;
    let want = generated_len(session.prompt_len(), budget, session.context());
    let mut tok = first.argmax().ok_or("empty logits")? as u32;
    let mut out = vec![tok];
    while out.len() < want {
        let (row, _) = rt.decode_step(&mut session, tok as f32)?;
        tok = row.argmax().ok_or("empty logits")? as u32;
        out.push(tok);
    }
    Ok(out)
}

impl Oracle {
    /// Builds the dataset and its per-level references. Restores the
    /// runtime's level afterwards; call before traffic starts.
    pub fn build(dep: &Deployment) -> BenchResult<Oracle> {
        let w = dep.workload;
        let rt = &dep.rt;
        let dataset = Dataset::build(w, &dep.graph)?;
        let levels = match w {
            Workload::VitBurst => all_levels(rt),
            _ => vec![rt.level()],
        };
        let home = rt.level();
        let mut reference = BTreeMap::new();
        for level in levels {
            rt.set_level(level)?;
            let answers = dataset
                .inputs
                .iter()
                .map(|x| {
                    if w.is_decode() {
                        solo_decode(rt, x, spec::LM_BUDGET.1)
                    } else {
                        Ok(rt.infer(x)?.data().iter().map(|v| v.to_bits()).collect())
                    }
                })
                .collect::<BenchResult<Vec<_>>>()?;
            reference.insert(level, answers);
        }
        rt.set_level(home)?;
        let context = if w.is_decode() {
            TinyLmCfg::at(Scale::Eval).context
        } else {
            0
        };
        Ok(Oracle {
            dataset,
            reference,
            context,
        })
    }

    /// Whether a one-shot response's output is, bit for bit, what the
    /// runtime answers to dataset input `idx` at the reported level.
    pub fn check_output(&self, idx: usize, level: usize, output: &Tensor) -> bool {
        self.reference
            .get(&level)
            .and_then(|r| r.get(idx))
            .is_some_and(|want| {
                want.len() == output.numel()
                    && want
                        .iter()
                        .zip(output.data())
                        .all(|(w, v)| *w == v.to_bits())
            })
    }

    /// Whether a generation's tokens are the runtime's own greedy
    /// continuation of prompt `idx` at the reported level, cut at the
    /// request's budget.
    pub fn check_tokens(&self, idx: usize, level: usize, budget: usize, tokens: &[u32]) -> bool {
        self.reference
            .get(&level)
            .and_then(|r| r.get(idx))
            .is_some_and(|want| {
                let n = generated_len(self.dataset.inputs[idx].numel(), budget, self.context);
                tokens.len() == n && want.get(..n) == Some(tokens)
            })
    }

    /// How many of a response's answers agree with the f32 model's:
    /// `(agreeing, compared)`. One class for an image; every generated
    /// token, position by position, for a prompt.
    pub fn quality(&self, idx: usize, answer: &[u32]) -> (usize, usize) {
        let want = &self.dataset.f32_answer[idx];
        let agree = answer.iter().zip(want).filter(|(a, b)| a == b).count();
        (agree, answer.len())
    }
}
