//! Parallel == serial bit-exactness of the runtime (ISSUE 3 acceptance).
//!
//! A stacked pass fans out in one place only: the GEMM driver splits
//! large problems into output row bands, each element keeping its
//! serial reduction order. Running under a multi-thread
//! `flexiq-parallel` pool must therefore be **bit-exact** with the
//! 1-thread serial fallback — per sample, at every ratio level, at
//! every thread count. Verified on three
//! networks prepared through the full pipeline, i.e. the graphs the
//! serving stack actually executes: a convolutional network
//! (ResNet-20), an attention network (ViT-S) and a depthwise network
//! (MobileNetV2, `groups == C_in`).

use std::sync::{Mutex, OnceLock};

use flexiq::core::pipeline::{prepare, FlexiQConfig};
use flexiq::core::runtime::LEVEL_INT8;
use flexiq::core::selection::Strategy;
use flexiq::core::FlexiRuntime;
use flexiq::nn::data::gen_image_inputs;
use flexiq::nn::zoo::{ModelId, Scale};
use flexiq::parallel::ThreadPool;
use flexiq::tensor::Tensor;

const THREADS: [usize; 3] = [1, 2, 4];

type Fixture = (FlexiRuntime, Vec<Tensor>);

fn build_fixture(id: ModelId) -> Fixture {
    let graph = id.build(Scale::Test).unwrap();
    let calib = gen_image_inputs(6, &id.input_dims(Scale::Test), 0x9A41 ^ id as u64);
    let prepared = prepare(&graph, &calib, &FlexiQConfig::new(4, Strategy::Greedy)).unwrap();
    (prepared.runtime, calib)
}

fn conv_fixture() -> &'static Mutex<Fixture> {
    static CONV: OnceLock<Mutex<Fixture>> = OnceLock::new();
    CONV.get_or_init(|| Mutex::new(build_fixture(ModelId::RNet20)))
}

fn attn_fixture() -> &'static Mutex<Fixture> {
    static ATTN: OnceLock<Mutex<Fixture>> = OnceLock::new();
    ATTN.get_or_init(|| Mutex::new(build_fixture(ModelId::ViTS)))
}

fn depthwise_fixture() -> &'static Mutex<Fixture> {
    static DEPTHWISE: OnceLock<Mutex<Fixture>> = OnceLock::new();
    DEPTHWISE.get_or_init(|| Mutex::new(build_fixture(ModelId::MNetV2)))
}

fn all_levels(rt: &FlexiRuntime) -> Vec<usize> {
    let mut levels = vec![LEVEL_INT8];
    levels.extend(0..rt.num_levels());
    levels
}

/// Runs batched + single-sample inference at every level under each
/// thread count and demands bit-equality with the 1-thread results.
fn assert_parallel_serial_bit_exact(rt: &FlexiRuntime, inputs: &[Tensor]) {
    let serial = ThreadPool::new(1);
    for level in all_levels(rt) {
        rt.set_level(level).unwrap();
        let (batch_ref, singles_ref) = flexiq::parallel::with_pool(&serial, || {
            let ys = rt.infer_batch(inputs).unwrap();
            let singles: Vec<Tensor> = inputs.iter().map(|x| rt.infer(x).unwrap()).collect();
            (ys, singles)
        });
        for &t in &THREADS[1..] {
            let pool = ThreadPool::new(t);
            let (batch, singles) = flexiq::parallel::with_pool(&pool, || {
                let ys = rt.infer_batch(inputs).unwrap();
                let singles: Vec<Tensor> = inputs.iter().map(|x| rt.infer(x).unwrap()).collect();
                (ys, singles)
            });
            for (i, (a, b)) in batch.iter().zip(batch_ref.iter()).enumerate() {
                assert_eq!(a.dims(), b.dims());
                for (x, y) in a.data().iter().zip(b.data().iter()) {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "level {level}, {t} threads, batched sample {i}"
                    );
                }
            }
            for (i, (a, b)) in singles.iter().zip(singles_ref.iter()).enumerate() {
                for (x, y) in a.data().iter().zip(b.data().iter()) {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "level {level}, {t} threads, single sample {i}"
                    );
                }
            }
        }
    }
}

#[test]
fn conv_net_parallel_is_bit_exact_across_levels_and_threads() {
    let guard = conv_fixture().lock().unwrap();
    let (rt, inputs) = &*guard;
    assert_parallel_serial_bit_exact(rt, &inputs[..4]);
}

#[test]
fn attn_net_parallel_is_bit_exact_across_levels_and_threads() {
    let guard = attn_fixture().lock().unwrap();
    let (rt, inputs) = &*guard;
    assert_parallel_serial_bit_exact(rt, &inputs[..3]);
}

#[test]
fn depthwise_net_parallel_is_bit_exact_across_levels_and_threads() {
    let guard = depthwise_fixture().lock().unwrap();
    let (rt, inputs) = &*guard;
    assert_parallel_serial_bit_exact(rt, &inputs[..4]);
}
