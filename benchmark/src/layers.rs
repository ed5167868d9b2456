//! The traced run: the per-layer metrics, measured from outside.
//!
//! One set-up, then two short serving runs (spans off, spans on: their
//! difference is the tracing overhead, the second yields the serve and
//! load-generator metrics), then direct probes of each crate below the
//! server through its public functions: the runtime's passes at every
//! level, the executor under a timing `Compute` wrapper, and replays of
//! every quantized layer's true shapes through the tensor and quant
//! entry points.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use flexiq_core::runtime::LEVEL_INT8;
use flexiq_core::{DecodeSession, FlexiRuntime};
use flexiq_nn::decode::{self, DecodeState};
use flexiq_nn::exec::{self, Compute};
use flexiq_nn::graph::LayerView;
use flexiq_nn::kv::{KvLayerCache, KvSpec};
use flexiq_nn::ops::{Conv2d, Linear};
use flexiq_nn::qexec::{ExecMode, QuantCompute};
use flexiq_nn::zoo::{Scale, TinyLmCfg};
use flexiq_nn::{LayerId, NnError};
use flexiq_parallel::ThreadPool;
use flexiq_quant::{BitLowering, QParams, QuantBits};
use flexiq_telemetry::{counters, CountersSnapshot};
use flexiq_tensor::im2col::{im2col_batch_into, im2col_i8_batch_fill, Conv2dGeometry};
use flexiq_tensor::{gemm, SeqMask, Tensor};

use crate::json::{obj, Json};
use crate::loadgen::Target;
use crate::metrics::{Folded, Values, LEVEL_MS};
use crate::rng::Rng;
use crate::run::{collect, drive, warm_up, RunArgs, RunResult};
use crate::spec;
use crate::stats::{median, quiet};
use crate::trace::{chrome_json, fold, Tracer};
use crate::workload::{all_levels, level_label, BenchResult, Deployment, Oracle, Serving};

/// Passes a probe runs at: the fused width of the closed loops.
const B: usize = spec::IN_FLIGHT;

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_nanos() as f64)
}

// ───────────────────────── Compute wrappers ─────────────────────────

/// One hook call, as the timing wrapper saw it.
#[derive(Debug, Clone)]
pub struct Call {
    pub layer: LayerId,
    pub conv: bool,
    /// Dimensions of the activation the layer received.
    pub dims: Vec<usize>,
    pub start: Instant,
    pub ns: f64,
}

/// Delegates every quantizable layer to `inner` and times it.
struct Timed<'a> {
    inner: &'a mut dyn Compute,
    calls: Vec<Call>,
}

impl Timed<'_> {
    fn time(
        &mut self,
        layer: LayerId,
        conv: bool,
        x: &Tensor,
        f: impl FnOnce(&mut dyn Compute) -> flexiq_nn::Result<Tensor>,
    ) -> flexiq_nn::Result<Tensor> {
        let start = Instant::now();
        let y = f(self.inner);
        self.calls.push(Call {
            layer,
            conv,
            dims: x.dims().to_vec(),
            start,
            ns: start.elapsed().as_nanos() as f64,
        });
        y
    }
}

impl Compute for Timed<'_> {
    fn conv2d(&mut self, l: LayerId, conv: &Conv2d, x: &Tensor) -> flexiq_nn::Result<Tensor> {
        self.time(l, true, x, |c| c.conv2d(l, conv, x))
    }
    fn linear(&mut self, l: LayerId, lin: &Linear, x: &Tensor) -> flexiq_nn::Result<Tensor> {
        self.time(l, false, x, |c| c.linear(l, lin, x))
    }
    fn conv2d_batch(
        &mut self,
        l: LayerId,
        conv: &Conv2d,
        x: &Tensor,
        n: usize,
    ) -> flexiq_nn::Result<Tensor> {
        self.time(l, true, x, |c| c.conv2d_batch(l, conv, x, n))
    }
    fn linear_batch(
        &mut self,
        l: LayerId,
        lin: &Linear,
        x: &Tensor,
        n: usize,
    ) -> flexiq_nn::Result<Tensor> {
        self.time(l, false, x, |c| c.linear_batch(l, lin, x, n))
    }
    fn batch_invariant(&self) -> bool {
        self.inner.batch_invariant()
    }
    fn set_seq_mask(&mut self, mask: Option<&SeqMask>) {
        self.inner.set_seq_mask(mask)
    }
    fn kv_spec(&self) -> KvSpec {
        self.inner.kv_spec()
    }
    fn set_kv_spec(&mut self, spec: KvSpec) {
        self.inner.set_kv_spec(spec)
    }
}

/// Answers every quantizable layer at once with noise of the right
/// shape: a pass under it costs what the executor spends outside the
/// hooks (norms, activations, pooling, attention cores, residuals),
/// measured independently of the hooks' own time. Noise, not a
/// constant: softmax and GELU on one repeated value run faster than on
/// real activations, and the rest of the pass would read too cheap.
struct Hollow {
    kv: KvSpec,
    noise: Vec<f32>,
}

impl Hollow {
    fn new(kv: KvSpec, rng: &mut Rng) -> Hollow {
        Hollow {
            kv,
            noise: rand_f32(1 << 16, rng),
        }
    }

    fn answer(&self, dims: Vec<usize>) -> flexiq_nn::Result<Tensor> {
        let n = dims.iter().product();
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            data.extend_from_slice(&self.noise[..self.noise.len().min(n - data.len())]);
        }
        Ok(Tensor::from_vec(dims, data)?)
    }
}

impl Compute for Hollow {
    fn conv2d(&mut self, _: LayerId, conv: &Conv2d, x: &Tensor) -> flexiq_nn::Result<Tensor> {
        let (_, h, w) = conv.check_input(x)?;
        let g = conv.group_geometry(h, w);
        self.answer(vec![conv.c_out(), g.out_h(), g.out_w()])
    }
    fn linear(&mut self, _: LayerId, lin: &Linear, x: &Tensor) -> flexiq_nn::Result<Tensor> {
        let mut dims = x.dims().to_vec();
        *dims
            .last_mut()
            .ok_or_else(|| NnError::Invalid("rank-0 activation".into()))? = lin.c_out();
        self.answer(dims)
    }
    fn conv2d_batch(
        &mut self,
        _: LayerId,
        conv: &Conv2d,
        x: &Tensor,
        n: usize,
    ) -> flexiq_nn::Result<Tensor> {
        let (_, h, w) = conv.check_input_batch(x)?;
        let g = conv.group_geometry(h, w);
        self.answer(vec![n, conv.c_out(), g.out_h(), g.out_w()])
    }
    fn linear_batch(
        &mut self,
        l: LayerId,
        lin: &Linear,
        x: &Tensor,
        _: usize,
    ) -> flexiq_nn::Result<Tensor> {
        self.linear(l, lin, x)
    }
    fn kv_spec(&self) -> KvSpec {
        self.kv
    }
}

// ───────────────────────── passes ─────────────────────────

/// The unit pass of a workload, two ways: through the runtime's public
/// call, and through the executor's public walk under a given hook.
/// One-shot: `infer_batch_traced` / `exec::run_batch` over stacked
/// images. Decode: `decode_step(_batch)` / `decode::step_batch` over
/// live sessions, restarted from the dataset's prompts when a context
/// fills (restarts are not timed).
struct Passes<'a> {
    rt: &'a FlexiRuntime,
    inputs: &'a [Tensor],
    decode: bool,
    sessions: Vec<DecodeSession>,
    states: Vec<DecodeState>,
    last: Vec<f32>,
}

fn argmax_f32(row: &Tensor) -> f32 {
    row.argmax().unwrap_or(0) as f32
}

impl<'a> Passes<'a> {
    fn new(rt: &'a FlexiRuntime, inputs: &'a [Tensor], decode: bool) -> Passes<'a> {
        Passes {
            rt,
            inputs,
            decode,
            sessions: Vec::new(),
            states: Vec::new(),
            last: Vec::new(),
        }
    }

    /// One pass of width `b` through the runtime; nanoseconds.
    fn runtime(&mut self, b: usize) -> BenchResult<f64> {
        if !self.decode {
            let (out, ns) = timed(|| self.rt.infer_batch_traced(&self.inputs[..b]));
            out?;
            return Ok(ns);
        }
        if self.sessions.len() != b || self.sessions.iter().any(|s| s.pos() >= s.context()) {
            self.sessions.clear();
            self.last.clear();
            for p in &self.inputs[..b] {
                let (s, first, _) = self.rt.decode_start(p)?;
                self.sessions.push(s);
                self.last.push(argmax_f32(&first));
            }
        }
        let rt = self.rt;
        if b == 1 {
            let (out, ns) = timed(|| rt.decode_step(&mut self.sessions[0], self.last[0]));
            self.last[0] = argmax_f32(&out?.0);
            Ok(ns)
        } else {
            let mut refs: Vec<&mut DecodeSession> = self.sessions.iter_mut().collect();
            let (out, ns) = timed(|| rt.decode_step_batch(&mut refs, &self.last));
            for (l, row) in self.last.iter_mut().zip(out?.0.iter()) {
                *l = argmax_f32(row);
            }
            Ok(ns)
        }
    }

    /// Restarts the executor-side decode states from the dataset's
    /// prompts when there are none or a context is full. The prefills
    /// run under `hook` and are not part of any timed pass.
    fn ready(&mut self, hook: &mut dyn Compute) -> BenchResult<()> {
        if !self.decode
            || (self.states.len() == B && self.states.iter().all(|s| s.pos() < s.context()))
        {
            return Ok(());
        }
        let graph = self.rt.graph();
        self.states.clear();
        self.last.clear();
        for p in &self.inputs[..B] {
            let mut st = DecodeState::new(graph, *self.rt.kv_spec())?;
            let logits = decode::prefill(graph, &mut st, p, hook)?;
            self.last
                .push(argmax_f32(&logits.index_axis0(p.numel() - 1)?));
            self.states.push(st);
        }
        Ok(())
    }

    /// One pass of width [`B`] through the executor under `hook`. A
    /// caller that reads what the hook saw calls [`Passes::ready`]
    /// first, so that no prefill lands among the pass's calls.
    fn hooked(&mut self, stacked: &Tensor, hook: &mut dyn Compute) -> BenchResult<f64> {
        let graph = self.rt.graph();
        if !self.decode {
            let (out, ns) = timed(|| exec::run_batch(graph, stacked, hook));
            out?;
            return Ok(ns);
        }
        self.ready(hook)?;
        let mut refs: Vec<&mut DecodeState> = self.states.iter_mut().collect();
        let (out, ns) = timed(|| decode::step_batch(graph, &mut refs, &self.last, hook));
        let out = out?;
        for (i, l) in self.last.iter_mut().enumerate() {
            *l = argmax_f32(&out.index_axis0(i)?);
        }
        Ok(ns)
    }

    /// The pass that yields a request's first output: the single-sample
    /// `infer` for one-shot, the prefill (`decode_start`) for decode.
    fn first(&mut self, i: usize) -> BenchResult<f64> {
        let x = &self.inputs[i % self.inputs.len()];
        let ns = if self.decode {
            let (out, ns) = timed(|| self.rt.decode_start(x));
            out?;
            ns
        } else {
            let (out, ns) = timed(|| self.rt.infer(x));
            out?;
            ns
        };
        Ok(ns)
    }
}

// ───────────────────────── shape replays ─────────────────────────

/// One call into flexiq-tensor at a quantized layer's true shape, on
/// random operands allocated before timing.
enum Replay {
    Im2colI8 {
        x: Vec<i8>,
        nb: usize,
        stride: usize,
        g: Conv2dGeometry,
        out: Vec<i8>,
    },
    Im2colF32 {
        x: Vec<f32>,
        nb: usize,
        stride: usize,
        g: Conv2dGeometry,
        out: Vec<f32>,
    },
    /// `c[m,n] += a[m, k0..k1] · b[k0..k1, n]`.
    I8Band {
        m: usize,
        n: usize,
        k: usize,
        k0: usize,
        k1: usize,
        a: Vec<i8>,
        b: Vec<i8>,
        c: Vec<i32>,
    },
    /// The same with the rhs in weight layout `[n, k]`.
    I8BandWt {
        m: usize,
        n: usize,
        k: usize,
        k0: usize,
        k1: usize,
        a: Vec<i8>,
        w: Vec<i8>,
        c: Vec<i32>,
    },
    F32 {
        m: usize,
        n: usize,
        k: usize,
        a: Vec<f32>,
        b: Vec<f32>,
        c: Vec<f32>,
    },
    F32Wt {
        m: usize,
        n: usize,
        k: usize,
        a: Vec<f32>,
        w: Vec<f32>,
        c: Vec<f32>,
    },
}

impl Replay {
    fn is_gemm(&self) -> bool {
        !matches!(self, Replay::Im2colI8 { .. } | Replay::Im2colF32 { .. })
    }

    fn madds(&self) -> f64 {
        match self {
            Replay::I8Band { m, n, k0, k1, .. } | Replay::I8BandWt { m, n, k0, k1, .. } => {
                (m * n * (k1 - k0)) as f64
            }
            Replay::F32 { m, n, k, .. } | Replay::F32Wt { m, n, k, .. } => (m * n * k) as f64,
            _ => 0.0,
        }
    }

    /// Zeroes the output as the engine's scratch does, then runs.
    fn run(&mut self) {
        match self {
            Replay::Im2colI8 {
                x,
                nb,
                stride,
                g,
                out,
            } => {
                out.fill(0);
                im2col_i8_batch_fill(x, *nb, *stride, g, out);
            }
            Replay::Im2colF32 {
                x,
                nb,
                stride,
                g,
                out,
            } => im2col_batch_into(x, *nb, *stride, g, out),
            Replay::I8Band {
                m,
                n,
                k,
                k0,
                k1,
                a,
                b,
                c,
            } => {
                c.fill(0);
                gemm::gemm_i8_band(*m, *n, *k, *k0, *k1, a, b, c);
            }
            Replay::I8BandWt {
                m,
                n,
                k,
                k0,
                k1,
                a,
                w,
                c,
            } => {
                c.fill(0);
                gemm::gemm_i8_band_wt(*m, *n, *k, *k0, *k1, a, w, c);
            }
            Replay::F32 { m, n, k, a, b, c } => {
                c.fill(0.0);
                gemm::gemm_f32(*m, *n, *k, a, b, c);
            }
            Replay::F32Wt { m, n, k, a, w, c } => {
                c.fill(0.0);
                gemm::gemm_f32_wt(*m, *n, *k, a, w, c);
            }
        }
    }
}

fn rand_i8(n: usize, max: i32, rng: &mut Rng) -> Vec<i8> {
    (0..n)
        .map(|_| (rng.range(0, 2 * max as usize) as i32 - max) as i8)
        .collect()
}

fn rand_f32(n: usize, rng: &mut Rng) -> Vec<f32> {
    (0..n).map(|_| rng.normal()).collect()
}

/// Sizes of one hook call, as the replays need them.
struct LayerShape {
    /// Elements of the activation the layer quantizes.
    act: usize,
    /// Elements bit-lowering touches at the level (0 at INT8).
    lowered: usize,
}

/// Builds the replay of every hook call of one pass at `level`: per
/// conv group an im2col and the k-band GEMMs, per linear the k-band
/// GEMMs. A layer with `low` of its `c_in` channels at 4-bit runs two
/// bands, `[0, k_low)` on lowered operands and `[k_low, k)` on the
/// 8-bit ones; all-8-bit or all-4-bit layers run one.
fn build_replays(
    rt: &FlexiRuntime,
    calls: &[Call],
    level: usize,
    int: bool,
    rng: &mut Rng,
) -> BenchResult<(Vec<Replay>, Vec<LayerShape>)> {
    let group = rt.model().groups.group_size();
    let boundaries = if level == LEVEL_INT8 {
        None
    } else {
        rt.layer_boundaries(level)
    };
    let mut ops = Vec::new();
    let mut shapes = Vec::new();
    for call in calls {
        let act: usize = call.dims.iter().product();
        let low_groups = boundaries.map_or(0, |b| b[call.layer]);
        match rt.graph().layer(call.layer)? {
            LayerView::Conv(conv) => {
                let (h, w) = (
                    call.dims[call.dims.len() - 2],
                    call.dims[call.dims.len() - 1],
                );
                let nb = if call.dims.len() == 4 {
                    call.dims[0]
                } else {
                    1
                };
                let g = conv.group_geometry(h, w);
                let (k, ncols) = (g.rows(), nb * g.cols());
                let c_out_g = conv.c_out() / conv.groups;
                let low = (low_groups * group).min(conv.c_in());
                let k_low = k * low / conv.c_in();
                let stride = conv.c_in() * h * w;
                for _ in 0..conv.groups {
                    if int {
                        ops.push(Replay::Im2colI8 {
                            x: rand_i8(nb * stride, 127, rng),
                            nb,
                            stride,
                            g,
                            out: vec![0; k * ncols],
                        });
                        for (k0, k1, max) in [(0, k_low, 7), (k_low, k, 127)] {
                            if k1 > k0 {
                                ops.push(Replay::I8Band {
                                    m: c_out_g,
                                    n: ncols,
                                    k,
                                    k0,
                                    k1,
                                    a: rand_i8(c_out_g * k, max, rng),
                                    b: rand_i8(k * ncols, max, rng),
                                    c: vec![0; c_out_g * ncols],
                                });
                            }
                        }
                    } else {
                        ops.push(Replay::Im2colF32 {
                            x: rand_f32(nb * stride, rng),
                            nb,
                            stride,
                            g,
                            out: Vec::new(),
                        });
                        ops.push(Replay::F32 {
                            m: c_out_g,
                            n: ncols,
                            k,
                            a: rand_f32(c_out_g * k, rng),
                            b: rand_f32(k * ncols, rng),
                            c: vec![0.0; c_out_g * ncols],
                        });
                    }
                }
                shapes.push(LayerShape {
                    act,
                    lowered: k_low * ncols * conv.groups,
                });
            }
            LayerView::Linear(lin) => {
                let (k, n) = (lin.c_in(), lin.c_out());
                let m = act / k;
                let k_low = (low_groups * group).min(k);
                if int {
                    for (k0, k1, max) in [(0, k_low, 7), (k_low, k, 127)] {
                        if k1 > k0 {
                            ops.push(Replay::I8BandWt {
                                m,
                                n,
                                k,
                                k0,
                                k1,
                                a: rand_i8(m * k, max, rng),
                                w: rand_i8(n * k, max, rng),
                                c: vec![0; m * n],
                            });
                        }
                    }
                } else {
                    ops.push(Replay::F32Wt {
                        m,
                        n,
                        k,
                        a: rand_f32(m * k, rng),
                        w: rand_f32(n * k, rng),
                        c: vec![0.0; m * n],
                    });
                }
                shapes.push(LayerShape {
                    act,
                    lowered: m * k_low,
                });
            }
        }
    }
    Ok((ops, shapes))
}

// ───────────────────────── the traced run ─────────────────────────

fn delta(after: &CountersSnapshot, before: &CountersSnapshot) -> CountersSnapshot {
    CountersSnapshot {
        ws_buf_growth: after.ws_buf_growth - before.ws_buf_growth,
        pool_tasks: after.pool_tasks - before.pool_tasks,
        gemm_calls: after.gemm_calls - before.gemm_calls,
        gemm_madds: after.gemm_madds - before.gemm_madds,
        gemm_packed_bytes: after.gemm_packed_bytes - before.gemm_packed_bytes,
        pack_cache_hits: after.pack_cache_hits - before.pack_cache_hits,
        pack_cache_misses: after.pack_cache_misses - before.pack_cache_misses,
        decode_steps: after.decode_steps - before.decode_steps,
        decode_tokens: after.decode_tokens - before.decode_tokens,
        spans_dropped: after.spans_dropped - before.spans_dropped,
        ..CountersSnapshot::default()
    }
}

/// The traced run of one workload.
pub fn run_traced(args: &RunArgs) -> BenchResult<RunResult> {
    let w = args.workload;
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin, 0);
    let mut v = Values::new();

    let dep = Deployment::set_up(w)?;
    v.insert("core.prepare_s", dep.times.prepare_s);
    v.insert("core.prewarm_s", dep.times.prewarm_s);
    let oracle = Oracle::build(&dep)?;
    let rt = Arc::clone(&dep.rt);
    let levels: Vec<(usize, String)> = all_levels(&rt)
        .into_iter()
        .map(|l| (l, level_label(&rt, l)))
        .collect();

    // ── Serving, spans off then on ──
    let target = Target::new(&dep, &oracle);
    warm_up(&target)?;
    let stretch_s = args.seconds / 4.0;
    // batches, completed, level switches, brownout transitions
    let server_counts = |serving: &Serving| match serving {
        Serving::OneShot(s) => {
            let snap = s.metrics().snapshot();
            [
                snap.batches,
                snap.completed,
                snap.level_switches as u64,
                snap.brownout_transitions,
            ]
        }
        Serving::Decode(_) => [0; 4],
    };
    let quiet_p50 = |f: &Folded| f.quiet("latency_p50_ms").unwrap_or(0.0);
    let plain = drive(w, &target, args.seed, stretch_s, None);
    let (before, counters_before) = (server_counts(&dep.serving), counters());
    let traced = drive(w, &target, args.seed ^ 0x7ACE, stretch_s, Some(&mut tracer));
    let served = delta(&counters(), &counters_before);
    let server: Vec<u64> = server_counts(&dep.serving)
        .iter()
        .zip(before)
        .map(|(a, b)| a - b)
        .collect();
    v.extend(traced.serve_layer(&levels));
    v.insert(
        "telemetry.overhead_pct",
        100.0 * (quiet_p50(&traced) - quiet_p50(&plain)) / quiet_p50(&plain).max(1e-9),
    );
    v.insert("telemetry.spans_dropped", served.spans_dropped as f64);
    let tokens_per_step = served.decode_tokens as f64 / served.decode_steps.max(1) as f64;
    v.insert("serve.decode.tokens_per_step", tokens_per_step);
    if w.is_decode() {
        v.insert("serve.batches", served.decode_steps as f64);
        v.insert("serve.batch_mean", tokens_per_step);
    } else {
        v.insert("serve.batches", server[0] as f64);
        v.insert(
            "serve.batch_mean",
            server[1] as f64 / server[0].max(1) as f64,
        );
    }
    v.insert("serve.level_switches", server[2] as f64);
    v.insert("serve.brownout_transitions", server[3] as f64);
    let ping_ns: Vec<f64> = (0..25)
        .map(|_| {
            match &dep.serving {
                Serving::OneShot(s) => s.health().pool_ping,
                Serving::Decode(_) => flexiq_parallel::global().ping(),
            }
            .as_nanos() as f64
        })
        .collect();
    v.insert("parallel.ping_us", median(&ping_ns).unwrap_or(0.0) / 1e3);
    let unexpected = plain.unexpected() + traced.unexpected();
    let attempted = (plain.tally.offered + traced.tally.offered).max(1);
    // Dispatch → answer of a batch; one decode step.
    let served_pass_ms = traced.quiet("itl_p50_ms").unwrap_or(0.0);
    let home = rt.level();
    let inputs = &oracle.dataset.inputs;
    dep.shut_down();

    // ── The probes, round-robin ──
    // Every probe takes a few samples per round and the rounds repeat
    // for the rest of the run, so a slow stretch of a shared box lands
    // on all of them alike; each reads the quiet end of its
    // samples (see `stats::quiet`).
    let opts = w.exec_options();
    let int = opts.mode == ExecMode::Int;
    let graph = rt.graph();
    let mut passes = Passes::new(&rt, inputs, w.is_decode());
    let stacked = if w.is_decode() {
        Tensor::zeros([1])
    } else {
        Tensor::stack(&inputs[..B])?
    };
    let mut hook = QuantCompute::with_cache(
        rt.model(),
        rt.current_plan(),
        opts,
        Some(rt.pack_cache().clone()),
    )?;
    hook.set_kv_spec(*rt.kv_spec());

    // One wrapped pass first: it names the layer calls the replays
    // mirror, and is kept as spans (the pass, a child per layer call).
    let mut wrapped = Timed {
        inner: &mut hook,
        calls: Vec::new(),
    };
    passes.hooked(&stacked, &mut wrapped)?; // warm the hook's scratch
    passes.ready(&mut wrapped)?;
    wrapped.calls.clear();
    let pass_start = Instant::now();
    let ns = passes.hooked(&stacked, &mut wrapped)?;
    let calls = std::mem::take(&mut wrapped.calls);
    let start_ns = tracer.ns(pass_start);
    let root = tracer.record("nn.pass", start_ns, start_ns + ns as u64, None, 0);
    for c in &calls {
        let at = tracer.ns(c.start);
        tracer.record(
            format!("nn.layer/{}", graph.layer_label(c.layer)),
            at,
            at + c.ns as u64,
            Some(root),
            0,
        );
    }

    let mut rng = Rng::stream(args.seed, 5);
    let (mut replays, shapes) = build_replays(&rt, &calls, home, int, &mut rng)?;
    let madds: f64 = replays.iter().map(Replay::madds).sum();
    let biggest = shapes
        .iter()
        .map(|s| s.act.max(s.lowered))
        .max()
        .unwrap_or(0);
    let acts = rand_f32(biggest, &mut rng);
    let params = QParams::new(0.05, QuantBits::B8)?;
    // What bit-lowering is fed on the workload it matters on (cnn_int4):
    // quantized post-ReLU activations, half of them zero. Its cost
    // depends on the data (a sign branch per element); uniform noise
    // would read several times too slow.
    let q8: Vec<i8> = acts
        .iter()
        .map(|&x| params.quantize(x.max(0.0)) as i8)
        .collect();
    let mut qbuf = vec![0i8; biggest];
    let rule = BitLowering::with_shift(2, QuantBits::B4);
    // The KV cache is probed at the LM's shape and spec whatever the
    // workload: only lm_decode leans on it.
    let lm = TinyLmCfg::at(Scale::Eval);
    let kv_spec = KvSpec::mixed(spec::LM_KV.0, spec::LM_KV.1);
    let kv_rows: Vec<Vec<f32>> = (0..3 * lm.context)
        .map(|_| rand_f32(lm.dim, &mut rng))
        .collect();
    let mut kv_out = vec![0.0f32; lm.dim];
    let two_threads =
        (flexiq_parallel::machine_threads() >= 2).then(|| (ThreadPool::new(1), ThreadPool::new(2)));
    if two_threads.is_none() {
        println!("parallel.speedup_2t skipped: fewer than two hardware threads");
    }

    let mut hollow = Hollow::new(*rt.kv_spec(), &mut rng);
    let mut t: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut per_pass: Vec<(f64, f64, f64)> = Vec::new(); // (pass, conv, linear) ns
    let mut by_layer: BTreeMap<LayerId, (u64, f64, Vec<usize>, bool)> = BTreeMap::new();
    let mut one_pass = CountersSnapshot::default();
    let (mut ws_growth, mut bare_passes, mut first_i) = (0u64, 0u64, 0usize);
    const REPS: usize = 3;
    let probes_until = Instant::now() + Duration::from_secs_f64(args.seconds * 0.45);
    let probe_span = tracer.ns(Instant::now());
    let mut rounds = 0;
    while rounds < 3 || Instant::now() < probes_until {
        rounds += 1;
        // flexiq-core: the runtime's own calls.
        for _ in 0..REPS {
            first_i += 1;
            t.entry("core.first_pass_ms")
                .or_default()
                .push(passes.first(first_i)?);
        }
        for _ in 0..REPS {
            t.entry("core.pass_ms.b1")
                .or_default()
                .push(passes.runtime(1)?);
        }
        for (name, (level, _)) in LEVEL_MS.iter().zip(&levels) {
            rt.set_level(*level)?;
            for _ in 0..REPS {
                t.entry(name).or_default().push(passes.runtime(B)?);
            }
        }
        rt.set_level(home)?;
        let before = counters();
        t.entry("core.pass_ms.b8")
            .or_default()
            .push(passes.runtime(B)?);
        one_pass = delta(&counters(), &before);
        for _ in 1..REPS {
            t.entry("core.pass_ms.b8")
                .or_default()
                .push(passes.runtime(B)?);
        }
        if let Some((one, two)) = &two_threads {
            for (name, pool) in [("1t", one), ("2t", two)] {
                flexiq_parallel::with_pool(pool, || -> BenchResult<()> {
                    t.entry(name).or_default().push(passes.runtime(B)?);
                    Ok(())
                })?;
            }
        }
        // flexiq-nn: the executor's walk, bare, wrapped and hollow.
        let growth_before = counters().ws_buf_growth;
        for _ in 0..REPS {
            t.entry("bare")
                .or_default()
                .push(passes.hooked(&stacked, wrapped.inner)?);
            bare_passes += 1;
        }
        ws_growth += counters().ws_buf_growth - growth_before;
        for _ in 0..REPS {
            passes.ready(&mut wrapped)?;
            wrapped.calls.clear();
            let ns = passes.hooked(&stacked, &mut wrapped)?;
            let sum = |conv: bool| {
                wrapped
                    .calls
                    .iter()
                    .filter(|c| c.conv == conv)
                    .fold(0.0, |a, c| a + c.ns)
            };
            per_pass.push((ns, sum(true), sum(false)));
            for c in &wrapped.calls {
                let row = by_layer
                    .entry(c.layer)
                    .or_insert((0, 0.0, c.dims.clone(), c.conv));
                row.0 += 1;
                row.1 += c.ns;
            }
            t.entry("nn.pass_ms").or_default().push(ns);
        }
        for _ in 0..REPS {
            let ns = passes.hooked(&stacked, &mut hollow)?;
            t.entry("hollow").or_default().push(ns);
        }
        let mut cache = KvLayerCache::new(lm.dim, lm.heads, kv_spec, lm.context)?;
        for pos in 0..lm.context {
            let (r, ns) = timed(|| cache.append(&kv_rows[3 * pos], &kv_rows[3 * pos + 1]));
            r?;
            t.entry("nn.kv.append_us").or_default().push(ns);
            let (r, ns) = timed(|| cache.attend(&kv_rows[3 * pos + 2], &mut kv_out));
            r?;
            t.entry("nn.kv.attend_us").or_default().push(ns);
        }
        // flexiq-tensor: each quantized layer's shapes, replayed. The
        // clock brackets the loop, so a workload with nothing to replay
        // still reads a measured (tiny) time.
        for _ in 0..REPS {
            let (mut gemm_ns, mut im2col_ns) = (0.0, 0.0);
            let mut at = Instant::now();
            for op in &mut replays {
                op.run();
                let now = Instant::now();
                let ns = now.duration_since(at).as_nanos() as f64;
                if op.is_gemm() {
                    gemm_ns += ns
                } else {
                    im2col_ns += ns
                }
                at = now;
            }
            let tail = at.elapsed().as_nanos() as f64 / 2.0;
            t.entry("tensor.gemm_replay_ms")
                .or_default()
                .push(gemm_ns + tail);
            t.entry("tensor.im2col_replay_ms")
                .or_default()
                .push(im2col_ns + tail);
        }
        // flexiq-quant: activation quantization and bit-lowering over
        // each layer's element counts.
        for _ in 0..REPS {
            let ((), ns) = timed(|| {
                for s in &shapes {
                    for (dst, &x) in qbuf[..s.act].iter_mut().zip(&acts[..s.act]) {
                        *dst = params.quantize(x) as i8;
                    }
                }
            });
            t.entry("quant.act_quant_replay_ms").or_default().push(ns);
            let ((), ns) = timed(|| {
                for s in &shapes {
                    for (dst, &q) in qbuf[..s.lowered].iter_mut().zip(&q8[..s.lowered]) {
                        *dst = rule.lower(q);
                    }
                }
            });
            t.entry("quant.lower_replay_ms").or_default().push(ns);
        }
        std::hint::black_box(&qbuf);
    }
    let probe_end = tracer.ns(Instant::now());
    tracer.record("probes", probe_span, probe_end, None, 0);
    let switches = 20_000;
    let ((), ns) = timed(|| {
        for i in 0..switches {
            let _ = rt.set_level(levels[i % levels.len()].0);
        }
    });
    rt.set_level(home)?;

    // Quiet reading of a probe's samples, nanoseconds.
    let read = |name: &str| quiet(t.get(name).map_or(&[][..], |v| v), false).unwrap_or(0.0);
    for name in [
        "core.first_pass_ms",
        "core.pass_ms.b1",
        "core.pass_ms.b8",
        "nn.pass_ms",
    ]
    .into_iter()
    .chain(LEVEL_MS)
    .chain(["tensor.gemm_replay_ms", "tensor.im2col_replay_ms"])
    .chain(["quant.act_quant_replay_ms", "quant.lower_replay_ms"])
    {
        v.insert(name, read(name) / 1e6);
    }
    v.insert("nn.kv.append_us", read("nn.kv.append_us") / 1e3);
    v.insert("nn.kv.attend_us", read("nn.kv.attend_us") / 1e3);
    v.insert("core.set_level_ns", ns / switches as f64);
    let (pass_b8_ms, bare_ms, pass_ms, other_ms) = (
        v["core.pass_ms.b8"],
        read("bare") / 1e6,
        v["nn.pass_ms"],
        read("hollow") / 1e6,
    );
    // Stacking, hook construction and the output split: the runtime's
    // call against the executor's walk under a hook built beforehand.
    v.insert("core.hook_ms", pass_b8_ms - bare_ms);
    v.insert("nn.ws_growth", ws_growth as f64 / bare_passes.max(1) as f64);
    let total: f64 = per_pass.iter().map(|p| p.0).sum();
    let conv: f64 = per_pass.iter().map(|p| p.1).sum();
    let linear: f64 = per_pass.iter().map(|p| p.2).sum();
    v.insert("nn.qexec.conv_share", conv / total);
    v.insert("nn.qexec.linear_share", linear / total);
    v.insert("nn.exec.other_share", other_ms / pass_ms);
    // Closure: the hooks' rows plus the independently measured rest,
    // against the pass with no wrapper in the way.
    v.insert(
        "nn.coverage",
        ((conv + linear) / total * pass_ms + other_ms) / bare_ms,
    );
    v.insert("tensor.gemm_calls", one_pass.gemm_calls as f64);
    v.insert("tensor.gemm_madds", one_pass.gemm_madds as f64);
    v.insert(
        "tensor.gemm_packed_bytes",
        one_pass.gemm_packed_bytes as f64,
    );
    v.insert("tensor.pack_hits", one_pass.pack_cache_hits as f64);
    v.insert("tensor.pack_misses", one_pass.pack_cache_misses as f64);
    v.insert("parallel.pool_tasks", one_pass.pool_tasks as f64);
    let gemm_ms = v["tensor.gemm_replay_ms"];
    v.insert(
        "tensor.gemm_gmadds_per_s",
        madds / (gemm_ms * 1e-3).max(1e-12) / 1e9,
    );
    v.insert("tensor.gemm_share", gemm_ms / pass_b8_ms.max(1e-12));
    v.insert(
        "parallel.speedup_2t",
        if two_threads.is_some() {
            read("1t") / read("2t").max(1e-9)
        } else {
            1.0
        },
    );
    // What the server adds to the bare pass it runs: per dispatched
    // batch for one-shot, per decode step for generation.
    v.insert("serve.overhead_ms", served_pass_ms - pass_b8_ms);

    // ── The trace file ──
    let layer_table = Json::Arr(
        by_layer
            .iter()
            .map(|(l, (n, ns, dims, conv))| {
                obj([
                    ("layer", Json::Num(*l as f64)),
                    ("label", Json::Str(graph.layer_label(*l))),
                    (
                        "kind",
                        Json::Str(if *conv { "conv" } else { "linear" }.into()),
                    ),
                    (
                        "calls_per_pass",
                        Json::Num(*n as f64 / per_pass.len() as f64),
                    ),
                    ("ms_per_pass", Json::Num(ns / per_pass.len() as f64 / 1e6)),
                    ("share_of_pass", Json::Num(ns / total)),
                    (
                        "input_dims",
                        Json::Arr(dims.iter().map(|d| Json::Num(*d as f64)).collect()),
                    ),
                ])
            })
            .collect(),
    );
    let folded = fold(tracer.spans());
    let fold_table = Json::Arr(
        folded
            .iter()
            .map(|r| {
                obj([
                    ("name", Json::Str(r.name.clone())),
                    ("count", Json::Num(r.count as f64)),
                    ("total_ms", Json::Num(r.total_ns as f64 / 1e6)),
                    ("self_ms", Json::Num(r.self_ns as f64 / 1e6)),
                ])
            })
            .collect(),
    );
    let tables = obj([
        ("workload", Json::Str(w.name().into())),
        ("seed", Json::Num(args.seed as f64)),
        ("nn_layers", layer_table),
        ("nn_other_ms", Json::Num(other_ms)),
        ("fold", fold_table),
    ]);
    let path = Path::new("benchmark/out").join(format!("trace_{}.json", w.name()));
    match std::fs::create_dir_all("benchmark/out")
        .and_then(|()| std::fs::write(&path, chrome_json(tracer.spans(), &tables)))
    {
        Ok(()) => println!("trace: {} ({} spans)", path.display(), tracer.spans().len()),
        Err(e) => println!("trace not written ({}): {e}", path.display()),
    }

    let mut diagnostics: Vec<(String, f64, &'static str)> = folded
        .iter()
        .filter(|r| !r.name.starts_with("nn.layer/"))
        .map(|r| (format!("self[{}]", r.name), r.self_ns as f64 / 1e6, "ms"))
        .collect();
    diagnostics.extend(traced.diagnostics());

    let mut correct = unexpected == 0 && traced.tally.offered > 0;
    let metrics = collect(spec::PER_LAYER, &v, &mut correct);
    Ok(RunResult {
        correct,
        attempted,
        failed: unexpected,
        metrics,
        diagnostics,
    })
}
