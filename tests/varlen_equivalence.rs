//! Padded variable-length / unpadded equivalence of the runtime (ISSUE 4
//! acceptance).
//!
//! `FlexiRuntime::infer_batch_varlen` pads mixed-length TinyLm token
//! batches to a bucket length and threads a sequence mask through the
//! whole stack (embedding → masked-softmax attention cores → quantized
//! engines). These properties pin the tentpole invariant: the padded
//! batch must be **bit-exact**, per sample, with running each unpadded
//! sequence alone — across ratio levels, bucket sizes, and `set_level`
//! flips between dispatches.

use std::sync::{Mutex, OnceLock};

use flexiq::core::pipeline::{prepare, FlexiQConfig};
use flexiq::core::runtime::LEVEL_INT8;
use flexiq::core::selection::Strategy;
use flexiq::core::FlexiRuntime;
use flexiq::nn::data::{gen_token_stream, lm_sequences};
use flexiq::nn::zoo::{ModelId, Scale, TinyLmCfg};
use flexiq::tensor::Tensor;
use proptest::prelude::*;

/// Context length of the test-scale TinyLm (the maximum bucket).
fn context() -> usize {
    TinyLmCfg::at(Scale::Test).context
}

type Fixture = (FlexiRuntime, Vec<Tensor>);

/// Builds the TinyLm runtime through the full pipeline plus a pool of
/// full-context sequences to cut variable-length prefixes from.
fn build_fixture() -> Fixture {
    let cfg = TinyLmCfg::at(Scale::Test);
    let graph = ModelId::TinyLm.build(Scale::Test).unwrap();
    let seqs = lm_sequences(
        &gen_token_stream(cfg.vocab, 16 * cfg.context, 0x7A71E),
        cfg.context,
    );
    let prepared = prepare(&graph, &seqs[..4], &FlexiQConfig::new(4, Strategy::Greedy)).unwrap();
    (prepared.runtime, seqs)
}

/// Shared fixture; the mutex serializes level mutation
/// across concurrently running test functions.
fn lm_fixture() -> &'static Mutex<Fixture> {
    static LM: OnceLock<Mutex<Fixture>> = OnceLock::new();
    LM.get_or_init(|| Mutex::new(build_fixture()))
}

/// Maps a raw draw onto `LEVEL_INT8` or a schedule level.
fn pick_level(rt: &FlexiRuntime, raw: usize) -> usize {
    match raw % (rt.num_levels() + 1) {
        0 => LEVEL_INT8,
        k => k - 1,
    }
}

/// Cuts variable-length prefixes out of the sequence pool.
fn cut_inputs(seqs: &[Tensor], lens: &[usize]) -> Vec<Tensor> {
    lens.iter()
        .enumerate()
        .map(|(i, &l)| seqs[(4 + i) % seqs.len()].slice_axis0(l).unwrap())
        .collect()
}

/// Asserts the padded varlen batch equals per-sample unpadded `infer`
/// bit-for-bit at the runtime's current level.
fn assert_varlen_bit_exact(rt: &FlexiRuntime, inputs: &[Tensor], bucket: Option<usize>) {
    let (ys, level) = rt.infer_batch_varlen_traced(inputs, bucket).unwrap();
    prop_assert_eq!(level, rt.level());
    prop_assert_eq!(ys.len(), inputs.len());
    for (i, x) in inputs.iter().enumerate() {
        let yi = rt.infer(x).unwrap();
        prop_assert_eq!(ys[i].dims(), yi.dims());
        for (a, b) in ys[i].data().iter().zip(yi.data().iter()) {
            prop_assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "level {} bucket {:?} sample {} (len {})",
                level,
                bucket,
                i,
                x.numel()
            );
        }
    }
}

proptest! {
    /// Mixed lengths, default bucket (longest sequence): bit-exact with
    /// unpadded per-sample inference at a random ratio level.
    #[test]
    fn varlen_batch_bit_exact(
        lens in proptest::collection::vec(1usize..=8, 1..=4),
        raw_level in 0usize..16,
    ) {
        let guard = lm_fixture().lock().unwrap();
        let (rt, seqs) = &*guard;
        rt.set_level(pick_level(rt, raw_level)).unwrap();
        let inputs = cut_inputs(seqs, &lens);
        assert_varlen_bit_exact(rt, &inputs, None);
    }

    /// Explicit bucket sizes (any bucket from the longest length up to
    /// the full context) change the padding, never the outputs.
    #[test]
    fn bucket_size_does_not_change_outputs(
        lens in proptest::collection::vec(1usize..=8, 1..=4),
        extra in 0usize..8,
        raw_level in 0usize..16,
    ) {
        let guard = lm_fixture().lock().unwrap();
        let (rt, seqs) = &*guard;
        rt.set_level(pick_level(rt, raw_level)).unwrap();
        let inputs = cut_inputs(seqs, &lens);
        let max_len = *lens.iter().max().unwrap();
        let bucket = (max_len + extra).min(context());
        assert_varlen_bit_exact(rt, &inputs, Some(bucket));
    }

    /// `set_level` between varlen dispatches: each dispatch runs wholly
    /// at the level it reports, and its outputs match unpadded per-sample
    /// inference at that level even after the level has moved on.
    #[test]
    fn set_level_between_varlen_dispatches_is_clean(
        lens_a in proptest::collection::vec(1usize..=8, 2..=3),
        lens_b in proptest::collection::vec(1usize..=8, 2..=3),
        raw_a in 0usize..16,
        raw_b in 0usize..16,
    ) {
        let guard = lm_fixture().lock().unwrap();
        let (rt, seqs) = &*guard;
        let (a, b) = (pick_level(rt, raw_a), pick_level(rt, raw_b));
        let in_a = cut_inputs(seqs, &lens_a);
        let in_b = cut_inputs(seqs, &lens_b);
        rt.set_level(a).unwrap();
        let (ys_a, ran_a) = rt.infer_batch_varlen_traced(&in_a, None).unwrap();
        rt.set_level(b).unwrap();
        let (ys_b, ran_b) = rt.infer_batch_varlen_traced(&in_b, None).unwrap();
        prop_assert_eq!(ran_a, a);
        prop_assert_eq!(ran_b, b);
        // Verify batch A against level A *after* the switch to B.
        rt.set_level(a).unwrap();
        for (i, x) in in_a.iter().enumerate() {
            let yi = rt.infer(x).unwrap();
            for (p, q) in ys_a[i].data().iter().zip(yi.data().iter()) {
                prop_assert_eq!(p.to_bits(), q.to_bits(), "batch A sample {}", i);
            }
        }
        rt.set_level(b).unwrap();
        for (i, x) in in_b.iter().enumerate() {
            let yi = rt.infer(x).unwrap();
            for (p, q) in ys_b[i].data().iter().zip(yi.data().iter()) {
                prop_assert_eq!(p.to_bits(), q.to_bits(), "batch B sample {}", i);
            }
        }
    }
}

/// The exact integer path (real band GEMMs, bit-extracted operands,
/// shifted accumulation) keeps the padded/unpadded equivalence at
/// **every** quantization level and bucket size.
#[test]
fn int_mode_varlen_bit_exact_at_every_level() {
    let guard = lm_fixture().lock().unwrap();
    let (rt, seqs) = &*guard;
    let lens = [1usize, 5, 8, 3];
    let inputs = cut_inputs(seqs, &lens);
    let mut levels = vec![LEVEL_INT8];
    levels.extend(0..rt.num_levels());
    for level in levels {
        rt.set_level(level).unwrap();
        for bucket in [None, Some(context())] {
            let (ys, ran_at) = rt.infer_batch_varlen_traced(&inputs, bucket).unwrap();
            assert_eq!(ran_at, level);
            for (i, x) in inputs.iter().enumerate() {
                let yi = rt.infer(x).unwrap();
                assert_eq!(ys[i].dims(), yi.dims());
                for (a, b) in ys[i].data().iter().zip(yi.data().iter()) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "int level {level} bucket {bucket:?} sample {i}"
                    );
                }
            }
        }
    }
}

/// Single-length batches that underfill their bucket still match: the
/// degenerate case where bucketing pads a uniform group (e.g. three
/// length-3 requests in a power-of-two bucket of 4).
#[test]
fn uniform_underfilled_bucket_matches_unpadded() {
    let guard = lm_fixture().lock().unwrap();
    let (rt, seqs) = &*guard;
    rt.set_level(LEVEL_INT8).unwrap();
    let inputs = cut_inputs(seqs, &[3, 3, 3]);
    let (ys, _) = rt.infer_batch_varlen_traced(&inputs, Some(4)).unwrap();
    for (i, x) in inputs.iter().enumerate() {
        let yi = rt.infer(x).unwrap();
        assert_eq!(ys[i].dims(), yi.dims());
        for (a, b) in ys[i].data().iter().zip(yi.data().iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "sample {i}");
        }
    }
}
