//! Cross-substrate validation: the NPU tile, the GPU functional kernel
//! and the reference integer GEMM must agree bit-for-bit on identical
//! operands — the §7 correctness story.

use flexiq::gpu::kernel::{MixedGemm, TILE_K};
use flexiq::npu::array::{NpuConfig, Precision, SystolicArray};
use flexiq::quant::lowering::BitLowering;
use flexiq::quant::QuantBits;
use flexiq::tensor::gemm::gemm_i8;
use flexiq::tensor::rng::seeded;
use rand::Rng;

#[test]
fn npu_and_gpu_kernels_agree_with_reference_in_8bit_mode() {
    let mut rng = seeded(9101);
    let (m, n, k) = (8, 16, 32);
    let a: Vec<i8> = (0..m * k)
        .map(|_| rng.gen_range(-100i16..=100) as i8)
        .collect();
    let w: Vec<i8> = (0..n * k)
        .map(|_| rng.gen_range(-100i16..=100) as i8)
        .collect();

    // Reference: out[i, o] = sum_c a[i, c] * w[o, c].
    let mut w_t = vec![0i8; k * n];
    for o in 0..n {
        for c in 0..k {
            w_t[c * n + o] = w[o * k + c];
        }
    }
    let mut reference = vec![0i32; m * n];
    gemm_i8(m, n, k, &a, &w_t, &mut reference);

    // GPU functional kernel at boundary 0 (pure 8-bit).
    let act_max = vec![127u32; k / TILE_K];
    let gpu = MixedGemm::new(&w, n, k, 0, &act_max).run(&a, &w, m);
    assert_eq!(gpu, reference, "GPU kernel diverges from reference");

    // NPU tile: weights [n][k], activations [k][m-columns].
    let arr = SystolicArray::new(NpuConfig::default());
    let w_rows: Vec<Vec<i8>> = (0..n).map(|o| w[o * k..(o + 1) * k].to_vec()).collect();
    let a_cols: Vec<Vec<i8>> = (0..k)
        .map(|c| (0..m).map(|i| a[i * k + c]).collect())
        .collect();
    let tile = arr.run_tile(Precision::Int8, &w_rows, &a_cols, None, None);
    for o in 0..n {
        for i in 0..m {
            assert_eq!(
                tile.partials[o * m + i],
                reference[i * n + o],
                "NPU tile diverges at (o={o}, i={i})"
            );
        }
    }
}

#[test]
fn npu_and_gpu_agree_in_4bit_mode_with_shared_extraction_rules() {
    let mut rng = seeded(9102);
    let (m, n, k) = (4, 8, TILE_K);
    let a: Vec<i8> = (0..m * k)
        .map(|_| rng.gen_range(-60i16..=60) as i8)
        .collect();
    let w: Vec<i8> = (0..n * k)
        .map(|_| rng.gen_range(-60i16..=60) as i8)
        .collect();
    // One shared activation rule per tile, per-row weight rules — both
    // devices must implement identical lowering + shifted accumulation.
    let act_abs = a
        .iter()
        .map(|&v| (v ^ (v >> 7)) as u8 as u32)
        .max()
        .unwrap_or(0);
    let act_max = vec![act_abs];
    let gpu = MixedGemm::new(&w, n, k, k, &act_max).run(&a, &w, m);

    let a_rule = BitLowering::for_max_abs(act_abs, QuantBits::B4);
    let w_rules: Vec<BitLowering> = (0..n)
        .map(|o| {
            let mx = w[o * k..(o + 1) * k]
                .iter()
                .map(|&v| v.unsigned_abs() as u32)
                .max()
                .unwrap_or(0);
            BitLowering::for_max_abs(mx, QuantBits::B4)
        })
        .collect();
    let arr = SystolicArray::new(NpuConfig::default());
    let w_rows: Vec<Vec<i8>> = (0..n).map(|o| w[o * k..(o + 1) * k].to_vec()).collect();
    let a_cols: Vec<Vec<i8>> = (0..k)
        .map(|c| (0..m).map(|i| a[i * k + c]).collect())
        .collect();
    let tile = arr.run_tile(
        Precision::Int4,
        &w_rows,
        &a_cols,
        Some(&w_rules),
        Some(a_rule),
    );
    for o in 0..n {
        for i in 0..m {
            assert_eq!(
                tile.partials[o * m + i],
                gpu[i * n + o],
                "4-bit NPU/GPU divergence at (o={o}, i={i})"
            );
        }
    }
}

#[test]
fn fused_low_band_kernel_agrees_with_gpu_and_npu_in_4bit_mode() {
    // The CPU's low-band kernel (dense nibble tile + shifted write-back
    // where the ISA has one) against the two simulated datapaths, on the
    // extraction rules the GPU descriptor derives: three 4-bit tiles,
    // per-tile activation rules, per-(tile, output) weight rules.
    use flexiq::tensor::gemm::{gemm_i8_band_wt, gemm_i8_low_bands, LowBandLhs, LowBands};

    let mut rng = seeded(9104);
    let (m, n, k) = (40usize, 12usize, 3 * TILE_K);
    let a: Vec<i8> = (0..m * k)
        .map(|_| rng.gen_range(-90i16..=90) as i8)
        .collect();
    let w: Vec<i8> = (0..n * k)
        .map(|_| rng.gen_range(-90i16..=90) as i8)
        .collect();
    let act_max: Vec<u32> = (0..k / TILE_K)
        .map(|t| {
            (0..m)
                .flat_map(|i| &a[i * k + t * TILE_K..i * k + (t + 1) * TILE_K])
                .map(|&v| (v ^ (v >> 7)) as u8 as u32)
                .max()
                .unwrap_or(0)
        })
        .collect();
    let kern = MixedGemm::new(&w, n, k, k, &act_max);
    let gpu = kern.run(&a, &w, m);

    // Lower both operands once with the descriptor's rules.
    let tile = |c: usize| &kern.rules[c / TILE_K];
    let a_low: Vec<i8> = (0..m * k).map(|i| tile(i % k).act.lower(a[i])).collect();
    let a_shifts: Vec<u8> = kern.rules.iter().map(|r| r.act.shift()).collect();
    let w_shifts = |t: usize| -> Vec<u8> {
        kern.rules[t]
            .weight
            .iter()
            .map(BitLowering::shift)
            .collect()
    };

    // Convolution orientation: weights are the lhs, one band per tile,
    // the whole run in one call against the transposed activations.
    let bands: Vec<LowBandLhs> = (0..k / TILE_K)
        .map(|t| {
            let block = (0..n * TILE_K)
                .map(|i| {
                    let (o, c) = (i / TILE_K, t * TILE_K + i % TILE_K);
                    kern.rules[t].weight[o].lower(w[o * k + c])
                })
                .collect();
            LowBandLhs::new(n, TILE_K, block, w_shifts(t))
        })
        .collect();
    let a_low_t: Vec<i8> = (0..k * m).map(|i| a_low[(i % m) * k + i / m]).collect();
    let mut conv_out = vec![0i32; n * m];
    let call = LowBands {
        n: m,
        bands: &bands,
        a_shifts: &a_shifts,
        b: &a_low_t,
    };
    gemm_i8_low_bands(call, &mut conv_out);

    // Linear orientation: the shifts fold into the operands —
    // `(a_low << s_a)·(w_low << s_w)` per tile — and the layer is one
    // plain weight-layout GEMM over the whole reduction.
    let a_eff: Vec<i8> = (0..m * k)
        .map(|i| tile(i % k).act.round_trip(a[i]) as i8)
        .collect();
    let w_eff: Vec<i8> = (0..n * k)
        .map(|i| kern.rules[i % k / TILE_K].weight[i / k].round_trip(w[i]) as i8)
        .collect();
    let mut lin_out = vec![0i32; m * n];
    gemm_i8_band_wt(m, n, k, 0, k, &a_eff, &w_eff, &mut lin_out);
    assert_eq!(
        lin_out, gpu,
        "folded linear operands diverge from the GPU kernel"
    );

    // NPU: one weight-stationary 4-bit tile per feature tile, summed.
    let arr = SystolicArray::new(NpuConfig::default());
    let mut npu = vec![0i32; n * m];
    for (t, rules) in kern.rules.iter().enumerate() {
        let cs = t * TILE_K..(t + 1) * TILE_K;
        let w_rows: Vec<Vec<i8>> = (0..n)
            .map(|o| w[o * k..(o + 1) * k][cs.clone()].to_vec())
            .collect();
        let a_cols: Vec<Vec<i8>> = cs
            .clone()
            .map(|c| (0..m).map(|i| a[i * k + c]).collect())
            .collect();
        let tile = arr.run_tile(
            Precision::Int4,
            &w_rows,
            &a_cols,
            Some(&rules.weight),
            Some(rules.act),
        );
        for (sum, part) in npu.iter_mut().zip(&tile.partials) {
            *sum += part;
        }
    }
    for o in 0..n {
        for i in 0..m {
            let got = conv_out[o * m + i];
            assert_eq!(got, gpu[i * n + o], "GPU divergence at (o={o}, i={i})");
            assert_eq!(got, npu[o * m + i], "NPU divergence at (o={o}, i={i})");
        }
    }
}

#[test]
fn quantized_executor_int_path_matches_gpu_kernel_for_a_linear_layer() {
    use flexiq::nn::calibrate::calibrate_default;
    use flexiq::nn::ops::Linear;
    use flexiq::nn::qexec::{run_quantized, MixedPlan, QuantExecOptions, QuantizedModel};
    use flexiq::nn::Graph;
    use flexiq::quant::GroupSpec;
    use flexiq::tensor::Tensor;

    let mut rng = seeded(9103);
    let (c_in, c_out) = (64usize, 12usize);
    let mut g = Graph::new("xcheck");
    let x = g.input();
    let w = Tensor::randn([c_out, c_in], 0.0, 0.4, &mut rng);
    let l = g.linear(x, Linear::new(w.clone(), None).unwrap()).unwrap();
    g.set_output(l).unwrap();
    let samples: Vec<Tensor> = (0..4)
        .map(|_| Tensor::randn([c_in], 0.0, 1.0, &mut rng))
        .collect();
    let calib = calibrate_default(&g, &samples).unwrap();
    let model = QuantizedModel::prepare(&g, &calib, GroupSpec::new(TILE_K)).unwrap();

    // Execute through the integer engine at 100% 4-bit.
    let plan = MixedPlan::all_low(&model);
    let opts = QuantExecOptions::default();
    let y_engine = run_quantized(&g, &model, &plan, opts, &samples[0]).unwrap();

    // Execute through the GPU functional kernel on the same quantized
    // operands.
    let lq = &model.layers[0];
    let xq: Vec<i8> = samples[0]
        .data()
        .iter()
        .map(|&v| (v / lq.act_scale).round().clamp(-128.0, 127.0) as i8)
        .collect();
    let act_max: Vec<u32> = lq.act_group_max_q.clone();
    let kern = MixedGemm::new(lq.w_q.data(), c_out, c_in, c_in, &act_max);
    let acc = kern.run(&xq, lq.w_q.data(), 1);
    for o in 0..c_out {
        let y_kernel = acc[o] as f32 * lq.act_scale * lq.w_scales[o];
        let diff = (y_kernel - y_engine.data()[o]).abs();
        assert!(
            diff <= 1e-4 * y_kernel.abs().max(1.0),
            "o={o}: engine {} vs kernel {y_kernel}",
            y_engine.data()[o]
        );
    }
}
