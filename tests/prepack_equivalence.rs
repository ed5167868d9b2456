//! Prepacked-weight equivalence (ISSUE 8).
//!
//! The tentpole invariant: consuming an ahead-of-time packed weight
//! band ([`gemm::prepack_i8_wt_band`], the tiles inside
//! [`gemm::LowBandLhs`]) is **bit-identical** to per-call packing — same
//! panels, same micro-kernels, same reduction order — at every shape,
//! thread count, and ISA cap the host supports (scalar, AVX2, AVX-VNNI
//! — each panel format), and a panel the call cannot consume (built
//! under another ISA) costs a per-call pack, never a wrong bit — which
//! the packed-byte counter makes visible. Proptests sweep the kernel
//! tier; the runtime test pins the end-to-end property: a
//! `FlexiRuntime` serving through its prepacked-weight cache, with
//! levels flipping mid-stream, reproduces an uncached oracle bit for
//! bit.

use std::sync::Mutex;

use flexiq::core::pipeline::{prepare, FlexiQConfig};
use flexiq::core::runtime::LEVEL_INT8;
use flexiq::core::selection::Strategy;
use flexiq::nn::data::gen_image_inputs;
use flexiq::nn::qexec::{run_quantized, QuantExecOptions};
use flexiq::nn::zoo::{ModelId, Scale};
use flexiq::parallel::ThreadPool;
use flexiq::tensor::gemm;
use flexiq::tensor::im2col::Conv2dGeometry;
use flexiq::tensor::rng::seeded;
use flexiq::tensor::simd::{self, Isa};
use proptest::prelude::*;
use rand::Rng;

const THREADS: [usize; 3] = [1, 2, 4];

/// Serializes the tests of this binary: they move the process-wide ISA
/// cap, and one reads global telemetry counter deltas.
static TOGGLE_LOCK: Mutex<()> = Mutex::new(());

fn toggle_lock() -> std::sync::MutexGuard<'static, ()> {
    TOGGLE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// RAII ISA-cap scope: dispatch is capped at `isa` until drop.
struct Cap;

impl Cap {
    fn pin(isa: Isa) -> Cap {
        simd::set_cap(Some(isa));
        Cap
    }
}

impl Drop for Cap {
    fn drop(&mut self) {
        simd::set_cap(None);
    }
}

fn rand_i8(len: usize, rng: &mut impl Rng) -> Vec<i8> {
    (0..len)
        .map(|_| rng.gen_range(-128i16..=127) as i8)
        .collect()
}

/// Runs the prepacked weight band against its per-call twin at one
/// shape and asserts bitwise equality, under every thread count and
/// every cap in `caps` (the panel prepacked and consumed under it).
fn check_wt_band(m: usize, n: usize, k: usize, seed: u64, caps: &[Isa]) {
    let mut rng = seeded(seed);
    let ai = rand_i8(m * k, &mut rng);
    let wi = rand_i8(n * k, &mut rng);
    let (k0, k1) = (k / 3, k - k / 4);
    for &isa in caps {
        let _cap = Cap::pin(isa);
        let pwi = gemm::prepack_i8_wt_band(n, k, k0, k1, &wi);
        for threads in THREADS {
            let pool = ThreadPool::new(threads);
            flexiq::parallel::with_pool(&pool, || {
                let (mut c0, mut c1) = (vec![0i32; m * n], vec![0i32; m * n]);
                gemm::gemm_i8_band_wt(m, n, k, k0, k1, &ai, &wi, &mut c0);
                gemm::gemm_i8_band_wt_prepacked(m, n, k, k0, k1, &ai, &wi, &pwi, &mut c1);
                assert_eq!(&c0, &c1, "{isa:?} i8 band wt ({m}, {n}, {k}) x{threads}");
            });
        }
    }
}

proptest! {
    /// Prepacked == per-call, bit for bit: any shape (blocked or
    /// sub-threshold), threads 1/2/4, every ISA cap the host supports.
    #[test]
    fn prepacked_matches_per_call_bitwise(
        m in 1usize..48,
        n in 1usize..180,
        k in 4usize..140,
        seed in 0u64..1000,
    ) {
        let _gate = toggle_lock();
        check_wt_band(m, n, k, seed, &simd::host_caps());
    }
}

/// Fixed shapes under scalar dispatch: panels are prepacked *and*
/// consumed with SIMD off, so the scalar prepacked path itself is
/// exercised (not just the ISA-mismatch fallback).
#[test]
fn prepacked_matches_per_call_under_forced_scalar() {
    let _gate = toggle_lock();
    for (i, &(m, n, k)) in [(33usize, 96usize, 80usize), (7, 40, 24), (1, 130, 64)]
        .iter()
        .enumerate()
    {
        check_wt_band(m, n, k, 0x5CA1A + i as u64, &[Isa::Scalar]);
    }
}

/// The silent fallback made visible: a consumed panel books no rhs
/// bytes in `GemmPackedBytes` (they were booked when the cache built
/// it), a panel built under the scalar cap and met by another ISA's
/// kernel is re-packed per call — and the bits are equal either way,
/// under every cap the host supports.
#[test]
fn foreign_isa_panel_is_repacked_per_call_and_counted() {
    let _gate = toggle_lock();
    for isa in simd::host_caps() {
        check_foreign_panel(isa);
    }
}

fn check_foreign_panel(isa: Isa) {
    let mut rng = seeded(0xF0E);
    // Blocked, single-threaded: one rhs pack, lhs tiles per block.
    let (m, n, k) = (24usize, 96usize, 72usize);
    let ai = rand_i8(m * k, &mut rng);
    let wi = rand_i8(n * k, &mut rng);
    let scalar_built = {
        let _cap = Cap::pin(Isa::Scalar);
        gemm::prepack_i8_wt_band(n, k, 0, k, &wi)
    };
    let _cap = Cap::pin(isa);
    let native = gemm::prepack_i8_wt_band(n, k, 0, k, &wi);
    let pool = ThreadPool::new(1);
    let booked = |run: &dyn Fn(&mut [i32])| -> (u64, Vec<i32>) {
        let mut c = vec![0i32; m * n];
        let before = flexiq::telemetry::counters().gemm_packed_bytes;
        flexiq::parallel::with_pool(&pool, || run(&mut c));
        (flexiq::telemetry::counters().gemm_packed_bytes - before, c)
    };
    let (per_call, want) = booked(&|c| gemm::gemm_i8_band_wt(m, n, k, 0, k, &ai, &wi, c));
    let (consumed, got) =
        booked(&|c| gemm::gemm_i8_band_wt_prepacked(m, n, k, 0, k, &ai, &wi, &native, c));
    assert_eq!(got, want);
    // Lhs tiles only: `m` rows (a multiple of MR) by `k` steps (a
    // multiple of 4) of i8, plus under AVX-VNNI the i32 correction of
    // each row the byte-quad lhs pack records.
    let corrections = if isa == Isa::AvxVnni { 4 * m } else { 0 };
    assert_eq!(
        consumed,
        (m * k + corrections) as u64,
        "{isa:?}: a consumed panel booked rhs bytes"
    );
    assert_eq!(
        per_call - consumed,
        native.bytes() as u64,
        "rhs panel bytes"
    );
    let (foreign, got) =
        booked(&|c| gemm::gemm_i8_band_wt_prepacked(m, n, k, 0, k, &ai, &wi, &scalar_built, c));
    assert_eq!(got, want);
    if isa == Isa::Scalar {
        // The scalar-built panel is native here and is consumed.
        assert_eq!(foreign, consumed);
    } else {
        assert_eq!(
            foreign, per_call,
            "{isa:?}: foreign panel was not re-packed"
        );
    }
}

/// A low-band run's prepacked dense lhs tiles are an optimization, not
/// a dependency: the same bands give the same sums when they were built
/// under the scalar cap and carry no tiles (packed per call under each
/// SIMD cap), and when the whole call runs the scalar tiles. The run is
/// a 1×1 convolution over bands of 36, 20 and 7 channels (the last one
/// padded to a whole quad).
#[test]
fn low_band_tiles_are_optional_bitwise() {
    let _gate = toggle_lock();
    let mut rng = seeded(0x10BA);
    let (m, hw, widths) = (16usize, 256usize, [36usize, 20, 7]);
    let kbs = widths.map(|w| w.div_ceil(4) * 4);
    let mut nibbles =
        |len: usize| -> Vec<i8> { (0..len).map(|_| rng.gen_range(-8i16..=7) as i8).collect() };
    let blocks: Vec<Vec<i8>> = kbs.iter().map(|&kb| nibbles(m * kb)).collect();
    let planes = nibbles(widths.iter().sum::<usize>() * hw);
    let mut quads = vec![0i8; kbs.iter().sum::<usize>() * hw];
    gemm::channel_quads_fill(&planes, 1, [1, hw], 0, &widths, &mut quads);
    let src = gemm::ConvSource {
        quads: &quads,
        nb: 1,
        sample_stride: quads.len(),
        geom: Conv2dGeometry {
            c_in: widths.iter().sum(),
            h: 1,
            w: hw,
            kh: 1,
            kw: 1,
            stride: 1,
            pad: 0,
        },
        q0: 0,
    };
    let build = || -> Vec<gemm::LowBandLhs> {
        kbs.iter()
            .zip(&blocks)
            .map(|(&kb, w)| gemm::LowBandLhs::new(m, kb, w.clone(), vec![2; m]))
            .collect()
    };
    let run = |bands: &[gemm::LowBandLhs]| {
        let mut c = vec![0i32; m * hw];
        let call = gemm::LowBands {
            bands,
            a_shifts: &[1, 3, 0],
            src,
        };
        gemm::gemm_i8_low_bands(call, &mut c);
        c
    };
    let (scalar_built, want) = {
        let _cap = Cap::pin(Isa::Scalar);
        let bands = build();
        let c = run(&bands);
        (bands, c)
    };
    assert!(want.iter().any(|&v| v != 0));
    for isa in simd::host_caps() {
        let _cap = Cap::pin(isa);
        assert_eq!(run(&build()), want, "{isa:?} tiles");
        assert_eq!(run(&scalar_built), want, "{isa:?}: bands without tiles");
    }
}

/// Builds an Int-mode runtime (cache-serving by construction).
fn int_runtime() -> (flexiq::core::FlexiRuntime, Vec<flexiq::tensor::Tensor>) {
    let id = ModelId::RNet20;
    let graph = id.build(Scale::Test).unwrap();
    let calib = gen_image_inputs(6, &id.input_dims(Scale::Test), 0x9AC7);
    let prepared = prepare(&graph, &calib, &FlexiQConfig::new(4, Strategy::Greedy)).unwrap();
    let inputs = gen_image_inputs(6, &id.input_dims(Scale::Test), 0x9AC8);
    (prepared.runtime, inputs)
}

/// Level switches mid-stream over a prewarmed cache: every output must
/// match the uncached oracle (the free `run_quantized`, which packs and
/// lowers per call) bit for bit — cached entries are level-independent,
/// so a flip must never serve stale or wrong-band state. Runs under
/// every ISA cap the host supports (the cap change flushes the cache).
#[test]
fn level_flips_mid_stream_match_uncached_oracle() {
    let _gate = toggle_lock();
    let (rt, inputs) = int_runtime();
    for isa in simd::host_caps() {
        let _cap = Cap::pin(isa);
        check_level_flips(&rt, &inputs);
    }
}

fn check_level_flips(rt: &flexiq::core::FlexiRuntime, inputs: &[flexiq::tensor::Tensor]) {
    rt.prewarm_levels().unwrap();
    let opts = QuantExecOptions::default();
    let mut levels = vec![LEVEL_INT8];
    levels.extend(0..rt.num_levels());
    for (i, x) in inputs.iter().enumerate() {
        // Interleave levels across consecutive requests of the stream.
        let level = levels[i % levels.len()];
        rt.set_level(level).unwrap();
        let y = rt.infer(x).unwrap();
        let oracle = run_quantized(rt.graph(), rt.model(), &rt.current_plan(), opts, x).unwrap();
        assert_eq!(oracle.dims(), y.dims());
        for (a, b) in oracle.data().iter().zip(y.data().iter()) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "level {level} request {i} diverged"
            );
        }
    }
    // Mid-batch flips too: a stacked dispatch at each level against the
    // oracle run per sample.
    for &level in &levels {
        rt.set_level(level).unwrap();
        let (ys, ran_at) = rt.infer_batch_traced(&inputs[..3]).unwrap();
        assert_eq!(ran_at, level);
        for (i, x) in inputs[..3].iter().enumerate() {
            let oracle =
                run_quantized(rt.graph(), rt.model(), &rt.current_plan(), opts, x).unwrap();
            for (a, b) in oracle.data().iter().zip(ys[i].data().iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "level {level} batched sample {i}");
            }
        }
    }
}
