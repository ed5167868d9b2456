//! Low-band equivalence against an independent oracle (ISSUE 13).
//!
//! The integer engine lowers 4-bit feature groups while it quantizes the
//! activation (ahead of im2col), coalesces adjacent bands into one GEMM
//! call, shifts each band's sum in at the GEMM write-back, and — on AVX2
//! — multiplies nibble-range operands with a dense `vpmaddubsw` tile over
//! prepacked weights. None of that may change a bit.
//!
//! The oracle below is what the paper's arithmetic *says*, written the
//! slow way and sharing no kernel with the engine: quantize → im2col →
//! lower each feature-group band **of the im2col'd matrix** with the
//! scalar `BitLowering::lower` → a naive `i32` triple loop per band →
//! `<< (s_a + s_w[o])` → requantize. `QuantCompute` must match it bit for
//! bit, single-sample and batched, with a shared cache and without, over
//! the layer geometries that stress the rewrite (strided 1×1 convolutions
//! whose im2col skips pixels, depthwise and grouped convolutions, channel
//! counts that do not divide into groups, odd band widths), at 4 and 2
//! low bits, under static, naive and dynamic extraction, under every
//! ISA cap the host supports (scalar, AVX2, AVX-VNNI) — and whole
//! networks must match it at every level.

use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard};

use flexiq::core::pipeline::{prepare, FlexiQConfig};
use flexiq::core::runtime::LEVEL_INT8;
use flexiq::core::selection::Strategy;
use flexiq::nn::data::gen_image_inputs;
use flexiq::nn::exec::{self, Compute};
use flexiq::nn::graph::LayerId;
use flexiq::nn::ops::{Conv2d, Linear};
use flexiq::nn::qexec::{
    LayerQuant, MixedPlan, PackCache, QuantCompute, QuantExecOptions, QuantizedModel,
};
use flexiq::nn::zoo::{ModelId, Scale};
use flexiq::quant::dynamic::dynamic_lowering;
use flexiq::quant::{BitLowering, GroupSpec, QParams, QuantBits};
use flexiq::tensor::rng::seeded;
use flexiq::tensor::simd::{self, Isa};
use flexiq::tensor::{I8Tensor, Tensor};
use rand::Rng;

/// Serializes the sections that pin the process-wide ISA cap.
static CAP_LOCK: Mutex<()> = Mutex::new(());

/// RAII ISA-cap scope: holds the cap lock and caps dispatch at `isa`
/// until drop.
struct Cap(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Cap {
    fn pin(isa: Isa) -> Cap {
        let lock = CAP_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        simd::set_cap(Some(isa));
        Cap(lock)
    }
}

impl Drop for Cap {
    fn drop(&mut self) {
        simd::set_cap(None);
    }
}

// ───────────────────────────── the oracle ─────────────────────────────

/// Everything the oracle reads: one layer's static state, the grouping,
/// which groups run low, and the extraction options.
struct Ctx<'a> {
    lq: &'a LayerQuant,
    groups: GroupSpec,
    low: &'a [bool],
    opts: QuantExecOptions,
}

impl Ctx<'_> {
    fn quantize(&self, x: &[f32]) -> Vec<i8> {
        let p = QParams::new(self.lq.act_scale, QuantBits::B8).unwrap();
        x.iter().map(|&v| p.quantize(v) as i8).collect()
    }

    fn a_rule(&self, g: usize, live: &[i8]) -> BitLowering {
        if self.opts.naive_lowering {
            BitLowering::naive(QuantBits::B8, self.opts.low_bits)
        } else if self.opts.dynamic_extract {
            dynamic_lowering(live, self.opts.low_bits)
        } else {
            BitLowering::for_max_abs(self.lq.act_group_max_q[g], self.opts.low_bits)
        }
    }

    fn w_rule(&self, g: usize, o: usize) -> BitLowering {
        if self.opts.naive_lowering {
            BitLowering::naive(QuantBits::B8, self.opts.low_bits)
        } else {
            BitLowering::for_max_abs(self.lq.w_group_max_q[g][o], self.opts.low_bits)
        }
    }

    /// `acc[o] += Σ_p w(o, p)·a[p]` over one feature-group band, at the
    /// band's precision: plain at 8 bits; at low precision both sides
    /// lowered, the sum shifted back by `s_a + s_w[o]`. `live` is what a
    /// dynamic rule derives from.
    fn band(
        &self,
        g: usize,
        outs: Range<usize>,
        w: impl Fn(usize, usize) -> i8,
        a: &[i8],
        live: &[i8],
        acc: &mut [i32],
    ) {
        let a_rule = self.a_rule(g, live);
        for (oi, o) in outs.enumerate() {
            let w_rule = self.w_rule(g, o);
            let mut sum = 0i32;
            for (p, &av) in a.iter().enumerate() {
                sum += if self.low[g] {
                    w_rule.lower(w(o, p)) as i32 * a_rule.lower(av) as i32
                } else {
                    w(o, p) as i32 * av as i32
                };
            }
            acc[oi] += if self.low[g] {
                sum << (a_rule.shift() + w_rule.shift())
            } else {
                sum
            };
        }
    }
}

/// Reference integer convolution of `n` stacked samples. A dynamic rule
/// derives from the band's rows of the im2col matrix across the whole
/// stack — padding zeros, duplicated and skipped pixels included.
fn oracle_conv(cx: &Ctx, conv: &Conv2d, x: &Tensor, n: usize, h: usize, w: usize) -> Vec<f32> {
    let (lq, c_in, c_out) = (cx.lq, conv.c_in(), conv.c_out());
    let (kh, kw, stride, pad) = (conv.kh(), conv.kw(), conv.stride, conv.pad);
    let (c_in_g, c_out_g) = (c_in / conv.groups, c_out / conv.groups);
    let (oh, ow) = (
        (h + 2 * pad - kh) / stride + 1,
        (w + 2 * pad - kw) / stride + 1,
    );
    let (cols, k) = (oh * ow, c_in_g * kh * kw);
    let xq = cx.quantize(x.data());
    let mut out = vec![0.0f32; n * c_out * cols];
    for cg in 0..conv.groups {
        // im2col of this conv group: `col[p][s*cols + j]`.
        let mut col = vec![vec![0i8; n * cols]; k];
        for (p, row) in col.iter_mut().enumerate() {
            let (cl, ky, kx) = (p / (kh * kw), p / kw % kh, p % kw);
            let plane = (cg * c_in_g + cl) * h * w;
            for s in 0..n {
                for j in 0..cols {
                    let iy = (j / ow * stride + ky) as isize - pad as isize;
                    let ix = (j % ow * stride + kx) as isize - pad as isize;
                    if (0..h as isize).contains(&iy) && (0..w as isize).contains(&ix) {
                        let at = s * c_in * h * w + plane + iy as usize * w + ix as usize;
                        row[s * cols + j] = xq[at];
                    }
                }
            }
        }
        let wq = lq.w_q.data();
        let outs = cg * c_out_g..(cg + 1) * c_out_g;
        let mut acc = vec![vec![0i32; c_out_g]; n * cols];
        // One band per feature group the conv group's channels touch.
        let mut cl = 0;
        while cl < c_in_g {
            let g = cx.groups.group_of(cg * c_in_g + cl);
            let end = (cx.groups.channel_range(g, c_in).end - cg * c_in_g).min(c_in_g);
            let (k0, k1) = (cl * kh * kw, end * kh * kw);
            let live: Vec<i8> = col[k0..k1].iter().flatten().copied().collect();
            for (j, acc) in acc.iter_mut().enumerate() {
                let a: Vec<i8> = col[k0..k1].iter().map(|row| row[j]).collect();
                let weight = |o: usize, p: usize| wq[o * k + k0 + p];
                cx.band(g, outs.clone(), weight, &a, &live, acc);
            }
            cl = end;
        }
        for (sj, acc) in acc.iter().enumerate() {
            let (s, j) = (sj / cols, sj % cols);
            for (oi, o) in outs.clone().enumerate() {
                let mut v = acc[oi] as f32 * (lq.act_scale * lq.w_scales[o]);
                if let Some(b) = &conv.bias {
                    v += b[o];
                }
                out[(s * c_out + o) * cols + j] = v;
            }
        }
    }
    out
}

/// Reference integer linear over `rows` token rows.
fn oracle_linear(cx: &Ctx, lin: &Linear, x: &Tensor, rows: usize) -> Vec<f32> {
    let (lq, c_in, c_out) = (cx.lq, lin.c_in(), lin.c_out());
    let xq = cx.quantize(x.data());
    let wq = lq.w_q.data();
    let mut acc = vec![vec![0i32; c_out]; rows];
    for g in 0..lq.num_groups() {
        let range = cx.groups.channel_range(g, c_in);
        let live: Vec<i8> = (0..rows)
            .flat_map(|t| xq[t * c_in + range.start..t * c_in + range.end].to_vec())
            .collect();
        for t in 0..rows {
            let a = &xq[t * c_in + range.start..t * c_in + range.end];
            let weight = |o: usize, p: usize| wq[o * c_in + range.start + p];
            cx.band(g, 0..c_out, weight, a, &live, &mut acc[t]);
        }
    }
    let mut out = vec![0.0f32; rows * c_out];
    for t in 0..rows {
        for o in 0..c_out {
            let mut v = acc[t][o] as f32 * lq.act_scale * lq.w_scales[o];
            if let Some(b) = &lin.bias {
                v += b[o];
            }
            out[t * c_out + o] = v;
        }
    }
    out
}

/// The oracle as a graph hook: single-sample layers only, so batched
/// walks fall back to the trait's per-sample default.
struct OracleHook<'a> {
    model: &'a QuantizedModel,
    plan: MixedPlan,
    opts: QuantExecOptions,
}

impl OracleHook<'_> {
    fn ctx(&self, l: LayerId) -> Ctx<'_> {
        Ctx {
            lq: &self.model.layers[l],
            groups: self.model.groups,
            low: &self.plan.low_groups[l],
            opts: self.opts,
        }
    }
}

impl Compute for OracleHook<'_> {
    fn conv2d(&mut self, l: LayerId, conv: &Conv2d, x: &Tensor) -> flexiq::nn::Result<Tensor> {
        let (_, h, w) = conv.check_input(x)?;
        let out = oracle_conv(&self.ctx(l), conv, x, 1, h, w);
        let hw = out.len() / conv.c_out();
        let oh = (h + 2 * conv.pad - conv.kh()) / conv.stride + 1;
        Ok(Tensor::from_vec([conv.c_out(), oh, hw / oh], out)?)
    }

    fn linear(&mut self, l: LayerId, lin: &Linear, x: &Tensor) -> flexiq::nn::Result<Tensor> {
        let (t, _) = lin.check_input(x)?;
        let out = oracle_linear(&self.ctx(l), lin, x, t);
        let mut dims = x.dims().to_vec();
        *dims.last_mut().unwrap() = lin.c_out();
        Ok(Tensor::from_vec(dims, out)?)
    }
}

// ───────────────────────────── fixtures ─────────────────────────────

/// A one-layer quantized model with random integer state. Weight
/// magnitudes are capped per (feature group, output channel) and
/// calibrated activation maxima per group, so extraction shifts differ
/// across bands and across a band's output channels; the recorded weight
/// maxima are the true ones, the activation maxima deliberately tighter
/// than some inputs (static windows must saturate exactly like the
/// oracle's).
fn random_layer(
    w_dims: &[usize],
    c_in: usize,
    groups: GroupSpec,
    group_of_weight: impl Fn(usize) -> usize,
    rng: &mut impl Rng,
) -> QuantizedModel {
    const CAPS: [i16; 5] = [5, 12, 30, 60, 127];
    let c_out = w_dims[0];
    let per_out = w_dims[1..].iter().product::<usize>();
    let n_groups = groups.num_groups(c_in);
    let caps: Vec<i16> = (0..n_groups * c_out)
        .map(|_| CAPS[rng.gen_range(0..CAPS.len())])
        .collect();
    let mut w_group_max_q = vec![vec![0u32; c_out]; n_groups];
    let mut w = vec![0i8; c_out * per_out];
    for (i, v) in w.iter_mut().enumerate() {
        let (o, g) = (i / per_out, group_of_weight(i));
        let cap = caps[g * c_out + o];
        *v = rng.gen_range(-cap..=cap).max(-128) as i8;
        w_group_max_q[g][o] = w_group_max_q[g][o].max(v.unsigned_abs() as u32);
    }
    let layer = LayerQuant {
        c_in,
        c_out,
        w_q: I8Tensor::from_vec(w_dims.to_vec(), w).unwrap(),
        w_scales: (0..c_out).map(|_| rng.gen_range(0.001f32..0.02)).collect(),
        act_scale: 0.05,
        act_group_max_q: (0..n_groups)
            .map(|_| CAPS[rng.gen_range(0..CAPS.len())] as u32)
            .collect(),
        w_group_max_q,
    };
    QuantizedModel {
        layers: vec![layer],
        groups,
    }
}

/// Activations whose quantized values span the full 8-bit range with
/// per-channel amplitudes, a share of exact zeros (post-ReLU data), and
/// a few values past the clip.
fn random_act(
    dims: &[usize],
    channel_stride: usize,
    channels: usize,
    rng: &mut impl Rng,
) -> Tensor {
    let amp: Vec<f32> = (0..channels)
        .map(|_| [0.3f32, 1.0, 2.5, 7.0][rng.gen_range(0..4)])
        .collect();
    let n: usize = dims.iter().product();
    let data = (0..n)
        .map(|i| {
            let a = amp[i / channel_stride % channels];
            if rng.gen_range(0..4) == 0 {
                0.0
            } else {
                rng.gen_range(-a..a)
            }
        })
        .collect();
    Tensor::from_vec(dims.to_vec(), data).unwrap()
}

/// The extraction modes × low bitwidths every layer case runs under.
fn modes() -> Vec<QuantExecOptions> {
    let mut out = Vec::new();
    for low_bits in [QuantBits::B4, QuantBits::B2] {
        for (dynamic_extract, naive_lowering) in [(false, false), (false, true), (true, false)] {
            out.push(QuantExecOptions {
                dynamic_extract,
                low_bits,
                naive_lowering,
                ..Default::default()
            });
        }
    }
    out
}

/// Plans to try on a layer with `n` groups: all low, alternating (every
/// band its own run), a low block in the middle (runs of each kind), and
/// all high.
fn plans(n: usize) -> Vec<Vec<bool>> {
    vec![
        vec![true; n],
        (0..n).map(|g| g % 2 == 0).collect(),
        (0..n).map(|g| g > 0 && g + 1 < n.max(3)).collect(),
        vec![false; n],
    ]
}

/// Every ISA cap the host supports, each without a cache and with the
/// shared one (which flushes when the cap moves).
fn caps_and_caches(cache: &Arc<PackCache>) -> Vec<(Isa, Option<Arc<PackCache>>)> {
    let caches = [None, Some(cache.clone())];
    let caps = simd::host_caps();
    caps.into_iter()
        .flat_map(|isa| caches.clone().map(|c| (isa, c)))
        .collect()
}

fn assert_bits(want: &[f32], got: &Tensor, what: &str) {
    assert_eq!(want.len(), got.data().len(), "{what}: length");
    for (i, (w, g)) in want.iter().zip(got.data()).enumerate() {
        assert_eq!(w.to_bits(), g.to_bits(), "{what}: element {i}: {w} vs {g}");
    }
}

// ───────────────────────────── layer cases ─────────────────────────────

struct ConvCase {
    name: &'static str,
    c_in: usize,
    c_out: usize,
    hw: usize,
    k: usize,
    stride: usize,
    pad: usize,
    groups: usize,
    group_size: usize,
}

const CONV_CASES: &[ConvCase] = &[
    ConvCase {
        name: "3x3 s1 p1",
        c_in: 16,
        c_out: 16,
        hw: 8,
        k: 3,
        stride: 1,
        pad: 1,
        groups: 1,
        group_size: 4,
    },
    ConvCase {
        name: "3x3 s2 p1",
        c_in: 8,
        c_out: 12,
        hw: 9,
        k: 3,
        stride: 2,
        pad: 1,
        groups: 1,
        group_size: 4,
    },
    ConvCase {
        name: "1x1 s2 (im2col skips pixels)",
        c_in: 12,
        c_out: 8,
        hw: 8,
        k: 1,
        stride: 2,
        pad: 0,
        groups: 1,
        group_size: 4,
    },
    ConvCase {
        name: "depthwise 3x3",
        c_in: 8,
        c_out: 8,
        hw: 7,
        k: 3,
        stride: 1,
        pad: 1,
        groups: 8,
        group_size: 4,
    },
    ConvCase {
        name: "grouped, feature groups straddle conv groups",
        c_in: 12,
        c_out: 8,
        hw: 6,
        k: 3,
        stride: 1,
        pad: 1,
        groups: 2,
        group_size: 4,
    },
    ConvCase {
        name: "c_in not a multiple of the group size",
        c_in: 10,
        c_out: 6,
        hw: 6,
        k: 3,
        stride: 1,
        pad: 0,
        groups: 1,
        group_size: 4,
    },
    ConvCase {
        name: "odd band widths (1x1, groups of 3)",
        c_in: 9,
        c_out: 5,
        hw: 12,
        k: 1,
        stride: 1,
        pad: 0,
        groups: 1,
        group_size: 3,
    },
    ConvCase {
        name: "wide output (blocked kernels, partial tiles)",
        c_in: 8,
        c_out: 18,
        hw: 20,
        k: 3,
        stride: 1,
        pad: 1,
        groups: 1,
        group_size: 4,
    },
];

#[test]
fn conv_matches_the_oracle_in_every_mode() {
    let mut rng = seeded(0x10BA);
    for case in CONV_CASES {
        let groups = GroupSpec::new(case.group_size);
        let c_in_g = case.c_in / case.groups;
        let w_dims = [case.c_out, c_in_g, case.k, case.k];
        let per_out = c_in_g * case.k * case.k;
        let c_out_g = case.c_out / case.groups;
        let group_of_weight = |i: usize| {
            let (o, cl) = (i / per_out, i % per_out / (case.k * case.k));
            groups.group_of(o / c_out_g * c_in_g + cl)
        };
        let model = random_layer(&w_dims, case.c_in, groups, group_of_weight, &mut rng);
        let bias = (0..case.c_out).map(|o| o as f32 * 0.25 - 1.0).collect();
        let conv = Conv2d::new(
            Tensor::zeros(w_dims.to_vec()),
            Some(bias),
            case.stride,
            case.pad,
            case.groups,
        )
        .unwrap();
        let (n, hw) = (3usize, case.hw);
        let x = random_act(&[n, case.c_in, hw, hw], hw * hw, case.c_in, &mut rng);
        let singles: Vec<Tensor> = (0..n).map(|s| x.index_axis0(s).unwrap()).collect();
        for opts in modes() {
            let cache = Arc::new(PackCache::new());
            for low in plans(model.layers[0].num_groups()) {
                let what = format!("{} {opts:?} low={low:?}", case.name);
                let cx = Ctx {
                    lq: &model.layers[0],
                    groups,
                    low: &low,
                    opts,
                };
                let plan = MixedPlan {
                    low_groups: vec![low.clone()],
                };
                let want_batch = oracle_conv(&cx, &conv, &x, n, hw, hw);
                let want_singles: Vec<Vec<f32>> = singles
                    .iter()
                    .map(|xs| oracle_conv(&cx, &conv, xs, 1, hw, hw))
                    .collect();
                for (isa, cached) in caps_and_caches(&cache) {
                    let _cap = Cap::pin(isa);
                    let what = format!("{what} {isa:?} cached={}", cached.is_some());
                    let mut hook =
                        QuantCompute::with_cache(&model, plan.clone(), opts, cached).unwrap();
                    let got = hook.conv2d_batch(0, &conv, &x, n).unwrap();
                    assert_bits(&want_batch, &got, &format!("{what} batched"));
                    for (s, (xs, want)) in singles.iter().zip(&want_singles).enumerate() {
                        let got = hook.conv2d(0, &conv, xs).unwrap();
                        assert_bits(want, &got, &format!("{what} sample {s}"));
                    }
                }
            }
        }
    }
}

#[test]
fn linear_matches_the_oracle_in_every_mode() {
    let mut rng = seeded(0x11BA);
    // (c_in, c_out, group size, tokens): divisible and ragged groupings,
    // sub-threshold and blocked shapes.
    for &(c_in, c_out, group_size, t) in &[
        (16usize, 12usize, 4usize, 5usize),
        (22, 40, 8, 9),
        (64, 48, 16, 24),
    ] {
        let groups = GroupSpec::new(group_size);
        let model = random_layer(
            &[c_out, c_in],
            c_in,
            groups,
            |i| groups.group_of(i % c_in),
            &mut rng,
        );
        let bias = (0..c_out).map(|o| 0.5 - o as f32 * 0.125).collect();
        let lin = Linear::new(Tensor::zeros([c_out, c_in]), Some(bias)).unwrap();
        let n = 3usize;
        let x = random_act(&[n, t, c_in], 1, c_in, &mut rng);
        let flat = Tensor::from_vec([n * t, c_in], x.data().to_vec()).unwrap();
        let singles: Vec<Tensor> = (0..n).map(|s| x.index_axis0(s).unwrap()).collect();
        for opts in modes() {
            let cache = Arc::new(PackCache::new());
            for low in plans(model.layers[0].num_groups()) {
                let what = format!("linear {c_in}->{c_out} {opts:?} low={low:?}");
                let cx = Ctx {
                    lq: &model.layers[0],
                    groups,
                    low: &low,
                    opts,
                };
                let plan = MixedPlan {
                    low_groups: vec![low.clone()],
                };
                // [N, T, C] and [N·T, C] stacks share one oracle call.
                let want = oracle_linear(&cx, &lin, &x, n * t);
                let want_singles: Vec<Vec<f32>> = singles
                    .iter()
                    .map(|xs| oracle_linear(&cx, &lin, xs, t))
                    .collect();
                for (isa, cached) in caps_and_caches(&cache) {
                    let _cap = Cap::pin(isa);
                    let what = format!("{what} {isa:?} cached={}", cached.is_some());
                    let mut hook =
                        QuantCompute::with_cache(&model, plan.clone(), opts, cached).unwrap();
                    assert_bits(
                        &want,
                        &hook.linear_batch(0, &lin, &x, n).unwrap(),
                        &format!("{what} [N,T,C]"),
                    );
                    assert_bits(
                        &want,
                        &hook.linear_batch(0, &lin, &flat, n * t).unwrap(),
                        &format!("{what} [N,C]"),
                    );
                    for (s, (xs, want)) in singles.iter().zip(&want_singles).enumerate() {
                        assert_bits(
                            want,
                            &hook.linear(0, &lin, xs).unwrap(),
                            &format!("{what} sample {s}"),
                        );
                    }
                }
            }
        }
    }
}

// ───────────────────────────── whole networks ─────────────────────────────

/// Every level of a zoo CNN, through the full pipeline (so the graph has
/// the reorder nodes and layout serving executes): the runtime's cached
/// engine, single-sample and batched under every ISA cap, against the
/// oracle hook walking the same graph.
fn network_matches_the_oracle(id: ModelId) {
    let graph = id.build(Scale::Test).unwrap();
    let inputs = gen_image_inputs(10, &id.input_dims(Scale::Test), 0x10BA ^ id as u64);
    let cfg = FlexiQConfig::new(4, Strategy::Greedy);
    let rt = prepare(&graph, &inputs[..8], &cfg).unwrap().runtime;
    rt.prewarm_levels().unwrap();
    let probe = &inputs[8..];
    for level in std::iter::once(LEVEL_INT8).chain(0..rt.num_levels()) {
        rt.set_level(level).unwrap();
        let mut oracle = OracleHook {
            model: rt.model(),
            plan: rt.current_plan(),
            opts: QuantExecOptions::default(),
        };
        let want: Vec<Tensor> = probe
            .iter()
            .map(|x| exec::run(rt.graph(), x, &mut oracle).unwrap())
            .collect();
        for isa in simd::host_caps() {
            let _cap = Cap::pin(isa);
            let what = format!("{id:?} level {level} {isa:?}");
            let batch = rt.infer_batch(probe).unwrap();
            for ((x, from_batch), want) in probe.iter().zip(&batch).zip(&want) {
                assert_bits(
                    want.data(),
                    &rt.infer(x).unwrap(),
                    &format!("{what} single"),
                );
                assert_bits(want.data(), from_batch, &format!("{what} batched"));
            }
        }
    }
}

#[test]
fn rnet20_matches_the_oracle_at_every_level() {
    network_matches_the_oracle(ModelId::RNet20);
}

#[test]
fn mnetv2_matches_the_oracle_at_every_level() {
    network_matches_the_oracle(ModelId::MNetV2);
}
