//! Execution-plan benchmarks: the compiled plan against the legacy
//! layerwise network, the Linear transpose-hoist regression, and
//! batch-parallel scaling.
//!
//! * `plan_vs_legacy` — whole-model LeNet-5 inference: the layerwise
//!   trainable network against the compiled fused plan with a reused
//!   workspace (zero steady-state allocation).
//! * `linear_transpose_hoist` — the pre-plan fused pipeline re-transposed
//!   each Linear weight on every forward; the plan transposes once at
//!   compile. Benching both forms keeps the hoist honest.
//! * `plan_batch_parallel` — `forward_batch` fan-out vs the sequential
//!   in-workspace loop at batch 8.

use criterion::{criterion_group, criterion_main, Criterion};
use mlcnn_core::reorder::reorder_activation_pool;
use mlcnn_core::{EvalPlan, PlanOptions, Workspace};
use mlcnn_nn::spec::build_network;
use mlcnn_nn::zoo;
use mlcnn_tensor::linalg::{matmul, transpose};
use mlcnn_tensor::{init, Shape2, Shape4};
use std::hint::black_box;

fn bench_plan_vs_legacy(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan_vs_legacy");
    group.sample_size(15);
    let specs = reorder_activation_pool(&zoo::lenet5_spec(10)).specs;
    let input = Shape4::new(1, 3, 32, 32);
    let mut net = build_network(&specs, input, 9).unwrap();
    let plan = net.eval_plan(PlanOptions::default()).unwrap();
    let x = init::uniform(Shape4::new(4, 3, 32, 32), -1.0, 1.0, &mut init::rng(5));
    group.bench_function("lenet5_layerwise_network", |b| {
        b.iter(|| black_box(net.forward(black_box(&x)).unwrap()))
    });
    let mut ws = Workspace::for_plan(&plan, 4);
    group.bench_function("lenet5_plan_reused_workspace", |b| {
        b.iter(|| black_box(plan.forward(black_box(&x), &mut ws).unwrap()))
    });
    group.finish();
}

fn bench_linear_transpose_hoist(c: &mut Criterion) {
    let mut group = c.benchmark_group("linear_transpose_hoist");
    group.sample_size(20);
    // LeNet FC1-like geometry: 400 -> 120, batch 8
    let (batch, in_f, out_f) = (8usize, 400usize, 120usize);
    let mut rng = init::rng(3);
    let w = init::uniform(Shape4::new(out_f, 1, 1, in_f), -0.5, 0.5, &mut rng);
    let x = init::uniform(Shape4::new(batch, 1, 1, in_f), -1.0, 1.0, &mut rng);
    // the pre-plan behavior: transpose on every call
    group.bench_function("transpose_every_forward", |b| {
        b.iter(|| {
            let w_t = transpose(w.as_slice(), Shape2::new(out_f, in_f));
            black_box(matmul(black_box(x.as_slice()), &w_t, batch, in_f, out_f))
        })
    });
    // the plan behavior: transpose once at compile
    let w_t = transpose(w.as_slice(), Shape2::new(out_f, in_f));
    group.bench_function("transpose_hoisted_to_compile", |b| {
        b.iter(|| {
            black_box(matmul(
                black_box(x.as_slice()),
                black_box(&w_t),
                batch,
                in_f,
                out_f,
            ))
        })
    });
    group.finish();
}

fn bench_plan_batch_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan_batch_parallel");
    group.sample_size(15);
    let specs = reorder_activation_pool(&zoo::lenet5_spec(10)).specs;
    let input = Shape4::new(1, 3, 32, 32);
    let mut net = build_network(&specs, input, 9).unwrap();
    let plan = net.eval_plan(PlanOptions::default()).unwrap();
    let x = init::uniform(Shape4::new(8, 3, 32, 32), -1.0, 1.0, &mut init::rng(7));
    let mut ws = Workspace::for_plan(&plan, 8);
    group.bench_function("batch8_sequential_workspace", |b| {
        b.iter(|| black_box(plan.forward(black_box(&x), &mut ws).unwrap()))
    });
    group.bench_function("batch8_forward_batch", |b| {
        b.iter(|| black_box(plan.forward_batch(black_box(&x)).unwrap()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_plan_vs_legacy,
    bench_linear_transpose_hoist,
    bench_plan_batch_parallel
);
criterion_main!(benches);
