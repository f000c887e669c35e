//! The headline microbenchmark: the MLCNN fused conv-pool kernel against
//! the dense `conv → avg-pool → ReLU` reference, at the paper's fused
//! layer geometries. This is where RME/LAR/GAR turn into wall-clock time
//! on a CPU substrate (Figs. 13/14's software-level counterpart).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mlcnn_core::FusedConvPool;
use mlcnn_tensor::{init, Shape4};
use std::hint::black_box;

struct Geometry {
    label: &'static str,
    in_ch: usize,
    out_ch: usize,
    d: usize,
    k: usize,
    pad: usize,
    pool: usize,
}

/// Representative fused layers from the evaluation models.
const GEOMETRIES: [Geometry; 4] = [
    // LeNet-5 C2: 6→16, 5x5 kernel, 14x14 input, 2x2 pool
    Geometry {
        label: "lenet_c2",
        in_ch: 6,
        out_ch: 16,
        d: 14,
        k: 5,
        pad: 0,
        pool: 2,
    },
    // VGG-16 C2-like (narrowed): 32→32, 3x3, 32x32, 2x2 pool
    Geometry {
        label: "vgg_c2_narrow",
        in_ch: 32,
        out_ch: 32,
        d: 32,
        k: 3,
        pad: 1,
        pool: 2,
    },
    // DenseNet transition-like: 1x1 kernel, 2x2 pool
    Geometry {
        label: "densenet_transition",
        in_ch: 64,
        out_ch: 32,
        d: 16,
        k: 1,
        pad: 0,
        pool: 2,
    },
    // GoogLeNet 5b-like: 3x3 kernel feeding the 8x8 global pool
    Geometry {
        label: "googlenet_5b_8x8pool",
        in_ch: 64,
        out_ch: 64,
        d: 8,
        k: 3,
        pad: 1,
        pool: 8,
    },
];

fn bench_fused_vs_dense(c: &mut Criterion) {
    let mut group = c.benchmark_group("fused_conv_pool_vs_dense");
    group.sample_size(20);
    for g in &GEOMETRIES {
        let mut rng = init::rng(7);
        let input = init::uniform(Shape4::new(1, g.in_ch, g.d, g.d), -1.0, 1.0, &mut rng);
        let weight = init::uniform(
            Shape4::new(g.out_ch, g.in_ch, g.k, g.k),
            -0.5,
            0.5,
            &mut rng,
        );
        let bias = vec![0.01_f32; g.out_ch];
        let fused = FusedConvPool::new(weight, bias, 1, g.pad, g.pool).unwrap();
        group.bench_with_input(BenchmarkId::new("mlcnn_fused", g.label), &fused, |b, f| {
            b.iter(|| black_box(f.forward(black_box(&input)).unwrap()))
        });
        group.bench_with_input(
            BenchmarkId::new("dense_reference", g.label),
            &fused,
            |b, f| b.iter(|| black_box(f.reference(black_box(&input)).unwrap())),
        );
    }
    group.finish();
}

fn bench_whole_model_fused_inference(c: &mut Criterion) {
    use mlcnn_core::reorder::reorder_activation_pool;
    use mlcnn_core::{EvalPlan, PlanOptions, Workspace};
    use mlcnn_nn::spec::build_network;
    use mlcnn_nn::zoo;

    let mut group = c.benchmark_group("whole_model_inference");
    group.sample_size(15);
    let specs = reorder_activation_pool(&zoo::lenet5_spec(10)).specs;
    let input = Shape4::new(1, 3, 32, 32);
    let mut net = build_network(&specs, input, 9).unwrap();
    let plan = net.eval_plan(PlanOptions::default()).unwrap();
    let mut ws = Workspace::for_plan(&plan, 4);
    let x = init::uniform(Shape4::new(4, 3, 32, 32), -1.0, 1.0, &mut init::rng(5));
    group.bench_function("lenet5_layerwise", |b| {
        b.iter(|| black_box(net.forward(black_box(&x)).unwrap()))
    });
    group.bench_function("lenet5_mlcnn_fused", |b| {
        b.iter(|| black_box(plan.forward(black_box(&x), &mut ws).unwrap()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fused_vs_dense,
    bench_whole_model_fused_inference
);
criterion_main!(benches);
