//! Decode-equivalence suite (ISSUE 9).
//!
//! The tentpole invariant: **N incremental decode steps are
//! bit-identical to one full-context forward over the same prefix** —
//! at every ratio level (including pure 8-bit), under 1/2/4 intra-op
//! threads, for every KV-cache spec (f32, int8, and the paper's mixed
//! effective-bit representation with 4-bit bands carved from the live
//! 8-bit values).
//!
//! The identity is *by construction*: when a non-f32
//! [`KvSpec`] is installed, full-context attention routes through the
//! very same cache arithmetic the incremental path uses
//! (`flexiq_nn::kv::core_kv`), so "decode equals full forward" reduces
//! to "appending rows one at a time equals appending them all at once"
//! — which these tests pin bit for bit, so any future divergence in
//! reduction order, band carving, or scale handling fails loudly.
//!
//! Mid-decode `set_level` flips get their own pins: cached K/V rows
//! keep the representation they were written with, so a flipped session
//! is *not* comparable to a full forward at the new level — instead we
//! pin (a) the pre-flip prefix is untouched, (b) the flip is
//! deterministic under replay, and (c) each step reports the level it
//! actually executed at.

use std::sync::OnceLock;

use flexiq::core::pipeline::{prepare, FlexiQConfig};
use flexiq::core::runtime::LEVEL_INT8;
use flexiq::core::selection::Strategy;
use flexiq::core::{DecodeSession, FlexiRuntime};
use flexiq::nn::data::{gen_token_stream, lm_sequences};
use flexiq::nn::kv::KvSpec;
use flexiq::nn::zoo::{ModelId, Scale, TinyLmCfg};
use flexiq::parallel::ThreadPool;
use flexiq::tensor::Tensor;
use proptest::prelude::*;

const THREADS: [usize; 3] = [1, 2, 4];

/// KV-cache specs under test: reference, uniform 8-bit, half the groups
/// lowered to 4-bit bands, every group lowered.
fn specs() -> [KvSpec; 4] {
    [
        KvSpec::f32(),
        KvSpec::int8(2),
        KvSpec::mixed(2, 0.5),
        KvSpec::mixed(2, 1.0),
    ]
}

/// One shared prepared model; each check clones its pieces into a fresh
/// runtime so per-test level state never crosses tests.
fn base() -> &'static (FlexiRuntime, Vec<Tensor>) {
    static BASE: OnceLock<(FlexiRuntime, Vec<Tensor>)> = OnceLock::new();
    BASE.get_or_init(|| {
        let graph = ModelId::TinyLm.build(Scale::Test).unwrap();
        let cfg = TinyLmCfg::at(Scale::Test);
        let seqs = lm_sequences(
            &gen_token_stream(cfg.vocab, 8 * cfg.context, 0xDEC0DE),
            cfg.context,
        );
        let prepared =
            prepare(&graph, &seqs[..4], &FlexiQConfig::new(4, Strategy::Greedy)).unwrap();
        (prepared.runtime, seqs)
    })
}

fn runtime(spec: KvSpec) -> FlexiRuntime {
    let (b, _) = base();
    FlexiRuntime::new(
        b.graph().clone(),
        b.model().clone(),
        b.schedule().clone(),
        Default::default(),
    )
    .unwrap()
    .with_kv_spec(spec)
}

fn assert_rows_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: logit {i}");
    }
}

/// The core theorem at one configuration: prefill + N steps over `seq`
/// reproduce, bit for bit, the matching rows of full-context forwards
/// over every prefix.
fn check_decode_matches_full(rt: &FlexiRuntime, seq: &Tensor, prompt_len: usize, what: &str) {
    let context = seq.numel();
    let prompt = seq.slice_axis0(prompt_len).unwrap();
    let (mut session, first, _) = rt.decode_start(&prompt).unwrap();
    let full = rt.infer(&prompt).unwrap();
    let vocab = full.dims()[1];
    assert_rows_eq(
        first.data(),
        &full.data()[(prompt_len - 1) * vocab..prompt_len * vocab],
        &format!("{what}: prefill"),
    );
    for t in prompt_len..context {
        let tok = seq.data()[t];
        let (row, _) = rt.decode_step(&mut session, tok).unwrap();
        let prefix = seq.slice_axis0(t + 1).unwrap();
        let full = rt.infer(&prefix).unwrap();
        assert_rows_eq(
            row.data(),
            &full.data()[t * vocab..(t + 1) * vocab],
            &format!("{what}: step {t}"),
        );
    }
}

/// Every KV spec × level, single-threaded: the exhaustive sweep of the
/// bit-exactness matrix (thread counts get their own sweep).
#[test]
fn decode_matches_full_forward_at_every_level_and_spec() {
    let (_, seqs) = base();
    for spec in specs() {
        let rt = runtime(spec);
        let mut levels = vec![LEVEL_INT8];
        levels.extend(0..rt.num_levels());
        for level in levels {
            rt.set_level(level).unwrap();
            check_decode_matches_full(&rt, &seqs[5], 3, &format!("{spec:?} level {level}"));
        }
    }
}

/// The same identity under 1/2/4 intra-op threads: the walker and the
/// cache attention must be deterministic in the pool size *and* agree
/// with the (equally pooled) full forward.
#[test]
fn decode_matches_full_forward_under_every_thread_count() {
    let (_, seqs) = base();
    let rt = runtime(KvSpec::mixed(2, 0.5));
    rt.set_level(0).unwrap();
    let mut single: Option<Vec<u32>> = None;
    for threads in THREADS {
        let pool = ThreadPool::new(threads);
        flexiq::parallel::with_pool(&pool, || {
            check_decode_matches_full(&rt, &seqs[6], 2, &format!("x{threads}"));
            // Cross-thread determinism: the step logits themselves are
            // identical whatever the pool size.
            let (mut s, first, _) = rt.decode_start(&seqs[6].slice_axis0(2).unwrap()).unwrap();
            let mut bits: Vec<u32> = first.data().iter().map(|v| v.to_bits()).collect();
            for t in 2..seqs[6].numel() {
                let (row, _) = rt.decode_step(&mut s, seqs[6].data()[t]).unwrap();
                bits.extend(row.data().iter().map(|v| v.to_bits()));
            }
            match &single {
                None => single = Some(bits),
                Some(want) => assert_eq!(want, &bits, "x{threads} changed decode bits"),
            }
        });
    }
}

/// Fused multi-session steps == per-session steps, at every thread
/// count, with sessions admitted at different positions.
#[test]
fn fused_steps_match_per_session_steps_across_threads() {
    let (_, seqs) = base();
    let rt = runtime(KvSpec::mixed(2, 1.0));
    rt.set_level(1).unwrap();
    for threads in THREADS {
        let pool = ThreadPool::new(threads);
        flexiq::parallel::with_pool(&pool, || {
            let mk =
                |i: usize, l: usize| rt.decode_start(&seqs[i].slice_axis0(l).unwrap()).unwrap().0;
            let (mut a, mut b, mut c) = (mk(5, 2), mk(6, 5), mk(7, 3));
            let (mut a2, mut b2, mut c2) = (mk(5, 2), mk(6, 5), mk(7, 3));
            let toks = [3.0f32, 7.0, 1.0];
            let (ra, _) = rt.decode_step(&mut a, toks[0]).unwrap();
            let (rb, _) = rt.decode_step(&mut b, toks[1]).unwrap();
            let (rc, _) = rt.decode_step(&mut c, toks[2]).unwrap();
            let mut refs: Vec<&mut DecodeSession> = vec![&mut a2, &mut b2, &mut c2];
            let (fused, _) = rt.decode_step_batch(&mut refs, &toks).unwrap();
            assert_rows_eq(fused[0].data(), ra.data(), &format!("x{threads} session a"));
            assert_rows_eq(fused[1].data(), rb.data(), &format!("x{threads} session b"));
            assert_rows_eq(fused[2].data(), rc.data(), &format!("x{threads} session c"));
        });
    }
}

/// Mid-decode `set_level` flips: the pre-flip prefix is bit-identical
/// to a never-flipped session, the whole flipped stream is
/// deterministic under replay, and each step reports the level it ran
/// at.
#[test]
fn mid_decode_level_flips_are_prefix_stable_and_deterministic() {
    let (_, seqs) = base();
    for spec in [KvSpec::f32(), KvSpec::mixed(2, 0.5)] {
        let rt = runtime(spec);
        let seq = &seqs[5];
        let prompt = seq.slice_axis0(3).unwrap();
        let flip_at = 6; // step index where the level changes
        let run = |flip: bool| -> Vec<Vec<u32>> {
            rt.set_level(0).unwrap();
            let (mut s, first, l0) = rt.decode_start(&prompt).unwrap();
            assert_eq!(l0, 0);
            let mut rows: Vec<Vec<u32>> = vec![first.data().iter().map(|v| v.to_bits()).collect()];
            for t in 3..seq.numel() {
                if flip && t == flip_at {
                    rt.set_level(1).unwrap();
                }
                let (row, l) = rt.decode_step(&mut s, seq.data()[t]).unwrap();
                let want = if flip && t >= flip_at { 1 } else { 0 };
                assert_eq!(l, want, "{spec:?}: step {t} must report its own level");
                rows.push(row.data().iter().map(|v| v.to_bits()).collect());
            }
            rows
        };
        let flipped = run(true);
        let flipped_again = run(true);
        let straight = run(false);
        assert_eq!(
            flipped, flipped_again,
            "{spec:?}: flip schedule must replay deterministically"
        );
        // Steps strictly before the flip never saw level 1: bit-equal
        // with the never-flipped stream. (Row 0 is the prefill; step t
        // lands at row t - 2 here.)
        let flip_row = flip_at - 3 + 1;
        assert_eq!(
            &flipped[..flip_row],
            &straight[..flip_row],
            "{spec:?}: pre-flip prefix disturbed"
        );
        assert_ne!(
            flipped[flip_row..],
            straight[flip_row..],
            "{spec:?}: flip had no effect — the pin is vacuous"
        );
    }
}

proptest! {
    /// Randomized sweep of the same theorem: any prompt length, any
    /// level, any KV spec, any pool size.
    #[test]
    fn decode_matches_full_forward_randomized(
        seq_idx in 4usize..8,
        prompt_len in 1usize..8,
        level_idx in 0usize..8,
        spec_idx in 0usize..4,
        threads_idx in 0usize..3,
    ) {
        let (_, seqs) = base();
        let spec = specs()[spec_idx];
        let rt = runtime(spec);
        let mut levels = vec![LEVEL_INT8];
        levels.extend(0..rt.num_levels());
        let level = levels[level_idx % levels.len()];
        rt.set_level(level).unwrap();
        let prompt_len = prompt_len.min(seqs[seq_idx].numel() - 1);
        let pool = ThreadPool::new(THREADS[threads_idx]);
        flexiq::parallel::with_pool(&pool, || {
            check_decode_matches_full(
                &rt,
                &seqs[seq_idx],
                prompt_len,
                &format!("prop {spec:?} level {level}"),
            );
        });
    }
}
