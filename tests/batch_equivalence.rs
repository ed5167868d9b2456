//! Batched/single-sample equivalence of the runtime (ISSUE 2 acceptance).
//!
//! `FlexiRuntime::infer_batch` must be **bit-exact**, per sample, with N
//! independent `infer` calls — across ratio levels, under `set_level`
//! calls between dispatches, and (for the exact integer path) at every
//! quantization level. Verified on both a convolutional network
//! (ResNet-20) and an attention network (ViT-S) from the zoo, both run
//! through the full pipeline (calibrate → select → layout → runtime) so
//! the graphs contain the reorder nodes and layout the serving stack
//! actually executes. The exact integer path additionally runs under
//! every ISA cap the host supports, and each cap must reproduce the
//! scalar cap's outputs bit for bit.

use std::sync::{Mutex, MutexGuard, OnceLock};

use flexiq::core::pipeline::{prepare, FlexiQConfig};
use flexiq::core::runtime::LEVEL_INT8;
use flexiq::core::selection::Strategy;
use flexiq::core::FlexiRuntime;
use flexiq::nn::data::gen_image_inputs;
use flexiq::nn::zoo::{ModelId, Scale};
use flexiq::tensor::simd::{self, Isa};
use flexiq::tensor::Tensor;
use proptest::prelude::*;

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

type Fixture = (FlexiRuntime, Vec<Tensor>);

fn build_fixture(id: ModelId) -> Fixture {
    let graph = id.build(Scale::Test).unwrap();
    let calib = gen_image_inputs(8, &id.input_dims(Scale::Test), 0xBA7C ^ id as u64);
    let prepared = prepare(&graph, &calib, &FlexiQConfig::new(4, Strategy::Greedy)).unwrap();
    (prepared.runtime, calib)
}

/// Shared conv-net fixture; the mutex serializes level mutation across
/// concurrently running test functions.
fn conv_fixture() -> &'static Mutex<Fixture> {
    static CONV: OnceLock<Mutex<Fixture>> = OnceLock::new();
    CONV.get_or_init(|| Mutex::new(build_fixture(ModelId::RNet20)))
}

/// Shared attention-net fixture.
fn attn_fixture() -> &'static Mutex<Fixture> {
    static ATTN: OnceLock<Mutex<Fixture>> = OnceLock::new();
    ATTN.get_or_init(|| Mutex::new(build_fixture(ModelId::ViTS)))
}

/// Maps a raw draw onto `LEVEL_INT8` or a schedule level.
fn pick_level(rt: &FlexiRuntime, raw: usize) -> usize {
    match raw % (rt.num_levels() + 1) {
        0 => LEVEL_INT8,
        k => k - 1,
    }
}

/// Asserts `infer_batch` output equals per-sample `infer` bit-for-bit at
/// the runtime's current level.
fn assert_batch_bit_exact(rt: &FlexiRuntime, inputs: &[Tensor]) {
    let (ys, level) = rt.infer_batch_traced(inputs).unwrap();
    assert_eq!(level, rt.level());
    assert_eq!(ys.len(), inputs.len());
    for (i, x) in inputs.iter().enumerate() {
        let yi = rt.infer(x).unwrap();
        prop_assert_eq!(ys[i].dims(), yi.dims());
        for (a, b) in ys[i].data().iter().zip(yi.data().iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "level {} sample {}", level, i);
        }
    }
}

proptest! {
    /// Conv net: batch N is bit-exact with N independent infers at a
    /// random ratio level.
    #[test]
    fn conv_infer_batch_bit_exact(n in 1usize..=3, raw_level in 0usize..16) {
        let guard = conv_fixture().lock().unwrap();
        let (rt, inputs) = &*guard;
        rt.set_level(pick_level(rt, raw_level)).unwrap();
        assert_batch_bit_exact(rt, &inputs[..n]);
    }

    /// Attention net: same property.
    #[test]
    fn attn_infer_batch_bit_exact(n in 1usize..=3, raw_level in 0usize..16) {
        let guard = attn_fixture().lock().unwrap();
        let (rt, inputs) = &*guard;
        rt.set_level(pick_level(rt, raw_level)).unwrap();
        assert_batch_bit_exact(rt, &inputs[..n]);
    }

    /// `set_level` between dispatches: each dispatch runs wholly at the
    /// level it reports, and its outputs match per-sample inference at
    /// that level even after the level has moved on.
    #[test]
    fn set_level_between_dispatches_is_clean(
        raw_a in 0usize..16,
        raw_b in 0usize..16,
        n in 2usize..=3,
    ) {
        let guard = conv_fixture().lock().unwrap();
        let (rt, inputs) = &*guard;
        let (a, b) = (pick_level(rt, raw_a), pick_level(rt, raw_b));
        rt.set_level(a).unwrap();
        let (ys_a, ran_a) = rt.infer_batch_traced(&inputs[..n]).unwrap();
        rt.set_level(b).unwrap();
        let (ys_b, ran_b) = rt.infer_batch_traced(&inputs[..n]).unwrap();
        prop_assert_eq!(ran_a, a);
        prop_assert_eq!(ran_b, b);
        // Verify batch A against level A *after* the switch to B.
        rt.set_level(a).unwrap();
        for (i, x) in inputs[..n].iter().enumerate() {
            let yi = rt.infer(x).unwrap();
            for (p, q) in ys_a[i].data().iter().zip(yi.data().iter()) {
                prop_assert_eq!(p.to_bits(), q.to_bits(), "batch A sample {}", i);
            }
        }
        rt.set_level(b).unwrap();
        for (i, x) in inputs[..n].iter().enumerate() {
            let yi = rt.infer(x).unwrap();
            for (p, q) in ys_b[i].data().iter().zip(yi.data().iter()) {
                prop_assert_eq!(p.to_bits(), q.to_bits(), "batch B sample {}", i);
            }
        }
    }
}

/// The exact integer path (real band GEMMs, bit-extracted operands,
/// shifted accumulation) is bit-exact batched vs. single-sample at
/// **every** quantization level, for both model families, under every
/// ISA cap — and every cap's outputs equal the scalar cap's.
#[test]
fn int_mode_batched_bit_exact_at_every_level() {
    for fixture in [conv_fixture(), attn_fixture()] {
        let guard = fixture.lock().unwrap();
        let (rt, inputs) = &*guard;
        let mut levels = vec![LEVEL_INT8];
        levels.extend(0..rt.num_levels());
        for level in levels {
            rt.set_level(level).unwrap();
            let mut scalar: Option<Vec<Tensor>> = None;
            for isa in simd::host_caps() {
                let _cap = Cap::pin(isa);
                let (ys, ran_at) = rt.infer_batch_traced(&inputs[..3]).unwrap();
                assert_eq!(ran_at, level);
                for (i, x) in inputs[..3].iter().enumerate() {
                    let yi = rt.infer(x).unwrap();
                    for (a, b) in ys[i].data().iter().zip(yi.data().iter()) {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "int level {level} {isa:?} sample {i}"
                        );
                    }
                }
                let want = scalar.get_or_insert_with(|| ys.clone());
                for (i, (a, b)) in want.iter().zip(&ys).enumerate() {
                    let same = a
                        .data()
                        .iter()
                        .zip(b.data())
                        .all(|(p, q)| p.to_bits() == q.to_bits());
                    assert!(
                        same,
                        "int level {level}: {isa:?} differs from scalar, sample {i}"
                    );
                }
            }
        }
    }
}

/// Concurrent `set_level` flips while batches dispatch: every dispatch
/// reports one level and its outputs match per-sample inference at that
/// reported level (verified after the flipper stops).
#[test]
fn concurrent_level_flips_stay_batch_consistent() {
    let guard = conv_fixture().lock().unwrap();
    let (rt, inputs) = &*guard;
    let stop = std::sync::atomic::AtomicBool::new(false);
    let recorded: Vec<(Vec<Tensor>, usize)> = std::thread::scope(|scope| {
        let stop_ref = &stop;
        let flipper = scope.spawn(move || {
            let mut raw = 0usize;
            while !stop_ref.load(std::sync::atomic::Ordering::Acquire) {
                rt.set_level(pick_level(rt, raw)).unwrap();
                raw = raw.wrapping_add(1);
                std::thread::yield_now();
            }
        });
        let mut recorded = Vec::new();
        for _ in 0..16 {
            let (ys, level) = rt.infer_batch_traced(&inputs[..2]).unwrap();
            recorded.push((ys, level));
        }
        stop.store(true, std::sync::atomic::Ordering::Release);
        flipper.join().unwrap();
        recorded
    });
    for (ys, level) in recorded {
        rt.set_level(level).unwrap();
        for (i, x) in inputs[..2].iter().enumerate() {
            let yi = rt.infer(x).unwrap();
            for (a, b) in ys[i].data().iter().zip(yi.data().iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "flipped level {level} sample {i}");
            }
        }
    }
}
