//! Golden equivalence for the execution plan: the layerwise
//! `ExecutionPlan::forward` must be *bit-identical* to every legacy
//! forward path it replaced — the layerwise `Network` and the quantized
//! layerwise loop — and the fused plan must agree with `Network::forward`
//! to rounding, across the compilable model zoo; plus a proptest that
//! anything `mlcnn-check` accepts compiles to a plan that agrees with the
//! trainable network.

use mlcnn::core::quantized::{forward_quantized, quantize_network_weights};
use mlcnn::core::reorder::reorder_activation_pool;
use mlcnn::core::{EvalPlan, ExecutionPlan, PlanOptions, Workspace, WorkspacePool};
use mlcnn::nn::spec::build_network;
use mlcnn::nn::{zoo, LayerSpec};
use mlcnn::quant::Precision;
use mlcnn::tensor::{init, Shape4, Tensor};
use proptest::prelude::*;

/// Every sequential (plan-compilable) model the zoo offers, in both the
/// as-trained and reordered forms, plus a hand-rolled pipeline covering
/// max pool, sigmoid, global pooling, and an unfused tail.
fn compilable_zoo() -> Vec<(&'static str, Vec<LayerSpec>, Shape4)> {
    let cifar = Shape4::new(1, 3, 32, 32);
    vec![
        ("lenet5", zoo::lenet5_spec(10), cifar),
        (
            "lenet5-reordered",
            reorder_activation_pool(&zoo::lenet5_spec(10)).specs,
            cifar,
        ),
        ("vgg-mini", zoo::vgg_mini_spec(3, 10), cifar),
        (
            "vgg-mini-reordered",
            reorder_activation_pool(&zoo::vgg_mini_spec(3, 10)).specs,
            cifar,
        ),
        (
            "maxpool-sigmoid",
            vec![
                LayerSpec::Conv {
                    out_ch: 6,
                    k: 3,
                    stride: 1,
                    pad: 1,
                },
                LayerSpec::Sigmoid,
                LayerSpec::MaxPool {
                    window: 2,
                    stride: 2,
                },
                LayerSpec::Conv {
                    out_ch: 4,
                    k: 3,
                    stride: 1,
                    pad: 0,
                },
                LayerSpec::GlobalAvgPool,
                LayerSpec::ReLU,
                LayerSpec::Flatten,
                LayerSpec::Linear { out: 5 },
            ],
            Shape4::new(1, 3, 16, 16),
        ),
    ]
}

fn batch_input(input: Shape4, n: usize, seed: u64) -> Tensor<f32> {
    init::uniform(
        Shape4::new(n, input.c, input.h, input.w),
        -1.0,
        1.0,
        &mut init::rng(seed),
    )
}

#[test]
fn layerwise_plan_is_bit_identical_to_network_forward() {
    for (name, specs, input) in compilable_zoo() {
        let mut net = build_network(&specs, input, 41).unwrap();
        let plan = net.eval_plan(PlanOptions::layerwise()).unwrap();
        let x = batch_input(input, 3, 7);
        let legacy = net.forward(&x).unwrap();
        let mut ws = Workspace::for_plan(&plan, 3);
        let planned = plan.forward(&x, &mut ws).unwrap();
        assert_eq!(planned, legacy, "{name}: layerwise plan diverges");
    }
}

#[test]
fn fused_plan_matches_network_forward() {
    // the fused operator reassociates the conv-pool sums (RME), so the
    // fused plan agrees with the layerwise network to rounding, not bits
    for (name, specs, input) in compilable_zoo() {
        let mut net = build_network(&specs, input, 43).unwrap();
        let plan = net.eval_plan(PlanOptions::default()).unwrap();
        let x = batch_input(input, 2, 11);
        let legacy = net.forward(&x).unwrap();
        let mut ws = Workspace::for_plan(&plan, 2);
        let planned = plan.forward(&x, &mut ws).unwrap();
        assert_eq!(planned.shape(), legacy.shape(), "{name}");
        assert!(
            planned.approx_eq(&legacy, 1e-3),
            "{name}: fused plan diverges by {}",
            planned.max_abs_diff(&legacy).unwrap()
        );
    }
}

#[test]
fn quantized_plans_are_bit_identical_to_forward_quantized() {
    for (name, specs, input) in compilable_zoo() {
        for precision in [Precision::Fp16, Precision::Int8] {
            let mut net = build_network(&specs, input, 47).unwrap();
            // compile from the original weights: the plan quantizes at compile
            let plan = net
                .eval_plan(PlanOptions::layerwise().with_precision(precision))
                .unwrap();
            // batch > 1 exercises INT8's batch-global activation scale
            let x = batch_input(input, 3, 13);
            let mut ws = Workspace::for_plan(&plan, 3);
            let planned = plan.forward(&x, &mut ws).unwrap();
            quantize_network_weights(&mut net, precision);
            let legacy = forward_quantized(&mut net, &x, precision).unwrap();
            assert_eq!(
                planned, legacy,
                "{name}@{precision:?}: quantized plan diverges"
            );
        }
    }
}

#[test]
fn plan_is_send_sync_and_shareable_across_threads() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ExecutionPlan>();

    let specs = reorder_activation_pool(&zoo::lenet5_spec(10)).specs;
    let input = Shape4::new(1, 3, 32, 32);
    let mut net = build_network(&specs, input, 53).unwrap();
    let plan = net.eval_plan(PlanOptions::default()).unwrap();
    let x = batch_input(input, 2, 17);
    let baseline = plan
        .forward(&x, &mut Workspace::for_plan(&plan, 2))
        .unwrap();
    // one shared &plan, one workspace per thread
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                let mut ws = Workspace::new();
                let y = plan.forward(&x, &mut ws).unwrap();
                assert_eq!(y, baseline);
            });
        }
    });
}

#[test]
fn steady_state_forward_does_not_grow_the_workspace() {
    let specs = reorder_activation_pool(&zoo::lenet5_spec(10)).specs;
    let input = Shape4::new(1, 3, 32, 32);
    let mut net = build_network(&specs, input, 59).unwrap();
    let plan = net.eval_plan(PlanOptions::default()).unwrap();
    let x = batch_input(input, 4, 19);
    let mut ws = Workspace::for_plan(&plan, 4);
    let cap = ws.buffer_capacity();
    let mut out = Tensor::zeros(plan.batched_output_shape(4));
    for _ in 0..5 {
        plan.forward_into(&x, &mut ws, &mut out).unwrap();
        assert_eq!(ws.buffer_capacity(), cap, "forward grew the arena");
    }
    let fresh = plan.forward(&x, &mut ws).unwrap();
    assert_eq!(out, fresh);
}

#[test]
fn forward_batch_matches_sequential_forward() {
    let specs = reorder_activation_pool(&zoo::lenet5_spec(10)).specs;
    let input = Shape4::new(1, 3, 32, 32);
    let mut net = build_network(&specs, input, 61).unwrap();
    for opts in [
        PlanOptions::default(),
        PlanOptions::default().with_precision(Precision::Fp16),
        PlanOptions::default().with_precision(Precision::Int8),
    ] {
        let plan = net.eval_plan(opts).unwrap();
        let x = batch_input(input, 8, 23);
        let mut ws = Workspace::for_plan(&plan, 8);
        let sequential = plan.forward(&x, &mut ws).unwrap();
        let parallel = plan.forward_batch(&x).unwrap();
        assert_eq!(parallel, sequential, "{opts:?}");
    }
}

#[test]
fn forward_batch_with_shares_one_pool_across_threads() {
    // regression for the serving runtime's sharing model: multiple worker
    // threads run batched inference against ONE plan and ONE workspace
    // pool concurrently, without contending on a single workspace and
    // without cross-talk between their arenas
    let specs = reorder_activation_pool(&zoo::lenet5_spec(10)).specs;
    let input = Shape4::new(1, 3, 32, 32);
    let mut net = build_network(&specs, input, 67).unwrap();
    let plan = net.eval_plan(PlanOptions::default()).unwrap();
    let pool = WorkspacePool::for_plan(&plan, 2, 4);
    let xs: Vec<_> = (0..2).map(|i| batch_input(input, 4, 31 + i)).collect();
    let baselines: Vec<_> = xs
        .iter()
        .map(|x| plan.forward(x, &mut Workspace::for_plan(&plan, 4)).unwrap())
        .collect();
    std::thread::scope(|s| {
        for (x, baseline) in xs.iter().zip(&baselines) {
            let (plan, pool) = (&plan, &pool);
            s.spawn(move || {
                for _ in 0..8 {
                    let y = plan.forward_batch_with(x, pool).unwrap();
                    assert_eq!(&y, baseline, "shared-pool batch forward diverged");
                }
            });
        }
    });
    // leases all returned: the pool retains its warm workspaces
    assert!(pool.idle_count() >= 2, "pool lost its workspaces");
}

#[test]
fn forward_each_is_bitwise_per_item_at_every_precision() {
    // the serving runtime's INT8 path: per-item semantics must match
    // running each item through forward() alone, at every precision
    let specs = zoo::lenet5_spec(10);
    let input = Shape4::new(1, 3, 32, 32);
    let mut net = build_network(&specs, input, 71).unwrap();
    for precision in [Precision::Fp32, Precision::Fp16, Precision::Int8] {
        let plan = net
            .eval_plan(PlanOptions::default().with_precision(precision))
            .unwrap();
        let x = batch_input(input, 5, 37);
        let pool = WorkspacePool::new();
        let each = plan.forward_each(&x, &pool).unwrap();
        let mut ws = Workspace::for_plan(&plan, 1);
        for i in 0..5 {
            let alone = plan.forward(&x.batch_item(i).unwrap(), &mut ws).unwrap();
            assert_eq!(
                each.batch_item(i).unwrap(),
                alone,
                "forward_each item {i} diverges at {precision}"
            );
        }
    }
}

// -- proptest: the static gate is sound for the plan compiler too --

fn arb_layer() -> impl Strategy<Value = LayerSpec> {
    prop_oneof![
        ((0usize..=6), (0usize..=5), (0usize..=3), (0usize..=2)).prop_map(
            |(out_ch, k, stride, pad)| LayerSpec::Conv {
                out_ch,
                k,
                stride,
                pad
            }
        ),
        Just(LayerSpec::ReLU),
        Just(LayerSpec::Sigmoid),
        ((0usize..=5), (0usize..=4))
            .prop_map(|(window, stride)| LayerSpec::AvgPool { window, stride }),
        ((0usize..=5), (0usize..=4))
            .prop_map(|(window, stride)| LayerSpec::MaxPool { window, stride }),
        Just(LayerSpec::GlobalAvgPool),
        Just(LayerSpec::Flatten),
        (0usize..=12).prop_map(|out| LayerSpec::Linear { out }),
        (0u8..=90).prop_map(|percent| LayerSpec::Dropout { percent }),
    ]
}

fn arb_specs() -> impl Strategy<Value = Vec<LayerSpec>> {
    proptest::collection::vec(arb_layer(), 1..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any spec list `check_compile` accepts must compile to a plan in
    /// both modes, and the layerwise plan must agree with the trainable
    /// network bit for bit.
    #[test]
    fn check_accepted_specs_compile_to_matching_plans(specs in arb_specs()) {
        let input = Shape4::new(1, 3, 16, 16);
        if mlcnn::check::check_compile(&specs, input).is_ok() {
            let mut net = build_network(&specs, input, 11)
                .expect("check_compile implies buildable");
            let plan = net.eval_plan(PlanOptions::layerwise());
            prop_assert!(plan.is_ok(), "check accepted but plan rejected: {:?}", specs);
            let plan = plan.unwrap();
            prop_assert!(
                net.eval_plan(PlanOptions::default()).is_ok(),
                "fused-mode plan rejected: {:?}",
                specs
            );
            let x = batch_input(input, 2, 29);
            let legacy = net.forward(&x).unwrap();
            let mut ws = Workspace::for_plan(&plan, 2);
            let planned = plan.forward(&x, &mut ws).unwrap();
            prop_assert_eq!(planned, legacy, "plan diverges for {:?}", specs);
        }
    }
}
