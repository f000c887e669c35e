//! Integration: accelerator-stack consistency — the tile-level trace, the
//! aggregate cycle model and the fused execution plan must tell one
//! coherent story.

use mlcnn::accel::config::AcceleratorConfig;
use mlcnn::accel::cycle::{simulate_layer, LayerContext};
use mlcnn::accel::dataflow::search_tiling;
use mlcnn::accel::energy::EnergyModel;
use mlcnn::accel::trace::trace_layer;
use mlcnn::check::{OpView, StepView};
use mlcnn::core::opcount::dense_layer_counts;
use mlcnn::core::reorder::reorder_activation_pool;
use mlcnn::core::{EvalPlan, OpCounts, PlanOptions, Workspace};
use mlcnn::nn::spec::build_network;
use mlcnn::nn::zoo::{self, ConvLayerGeom, PoolAfter};
use mlcnn::sched::step_counts;
use mlcnn::tensor::{init, Shape4};

#[test]
fn trace_makespan_brackets_the_aggregate_cycle_model() {
    // For every VGG-16 layer, the event-level makespan must sit between
    // the aggregate model's max(compute, memory) (perfect overlap) and
    // their sum (no overlap).
    let cfg = AcceleratorConfig::mlcnn_fp32();
    let em = EnergyModel::default();
    for g in &zoo::vgg16(10).convs {
        let (tiling, _) = search_tiling(g, cfg.buffer_elements()).unwrap();
        let trace = trace_layer(g, &cfg, &tiling);
        let agg = simulate_layer(g, &cfg, &em, LayerContext::default());
        // the aggregate model may use a different (searched) tiling, so
        // compare against the trace's own resource totals
        let lower = trace.compute_busy.max(trace.dram_busy);
        let upper = trace.compute_busy + trace.dram_busy + 10;
        assert!(
            trace.makespan >= lower && trace.makespan <= upper,
            "{}: makespan {} outside [{lower}, {upper}]",
            g.name,
            trace.makespan
        );
        // and the aggregate layer cycles are in the same regime
        assert!(
            agg.cycles as f64 >= 0.5 * lower as f64,
            "{}: aggregate {} vs trace lower bound {lower}",
            g.name,
            agg.cycles
        );
    }
}

#[test]
fn fused_network_and_trained_network_agree_after_training() {
    use mlcnn::data::shapes::{generate, ShapesConfig};
    use mlcnn::nn::train::{evaluate, fit, TrainConfig};

    // train a small reordered model, compile it, and check the compiled
    // pipeline reproduces the trained network's test accuracy exactly
    let data = generate(ShapesConfig {
        per_class: 6,
        ..ShapesConfig::cifar10_like(6, 3)
    });
    let (train, test) = data.split(0.75);
    let input = train.item_shape().unwrap();
    let specs = reorder_activation_pool(&zoo::lenet5_spec(10)).specs;
    let mut net = build_network(&specs, input, 8).unwrap();
    fit(
        &mut net,
        &train,
        &TrainConfig {
            epochs: 3,
            batch_size: 8,
            lr: 0.02,
            ..Default::default()
        },
    )
    .unwrap();
    let acc_layerwise = evaluate(&mut net, &test, &[1], 8).unwrap().at(1).unwrap();

    let plan = net.eval_plan(PlanOptions::default()).unwrap();
    let mut ws = Workspace::for_plan(&plan, 8);
    let mut hits = 0usize;
    let mut total = 0usize;
    for batch in test.batches(8) {
        let logits = plan.forward(&batch.images, &mut ws).unwrap();
        let preds = mlcnn::nn::loss::argmax_rows(&logits);
        hits += preds
            .iter()
            .zip(&batch.labels)
            .filter(|(a, b)| a == b)
            .count();
        total += batch.len();
    }
    let acc_fused = hits as f32 / total as f32;
    assert!(
        (acc_layerwise - acc_fused).abs() < 1e-6,
        "layerwise {acc_layerwise} vs fused {acc_fused}"
    );
}

/// The conv layer a conv-bearing plan step stands for, as a dense CNN
/// would run it (`pool` = the avg-pool a fused step absorbed).
fn conv_geom(
    step: &StepView,
    k: usize,
    stride: usize,
    pad: usize,
    pool: Option<usize>,
) -> ConvLayerGeom {
    ConvLayerGeom {
        name: "step".into(),
        in_ch: step.in_shape.c,
        out_ch: step.out_shape.c,
        in_h: step.in_shape.h,
        in_w: step.in_shape.w,
        k,
        stride,
        pad,
        pool: pool.map(|p| PoolAfter {
            window: p,
            stride: p,
            avg: true,
        }),
    }
}

#[test]
fn fused_network_op_savings_match_the_accelerator_story() {
    let specs = reorder_activation_pool(&zoo::lenet5_spec(10)).specs;
    let input = Shape4::new(1, 3, 32, 32);
    let mut net = build_network(&specs, input, 4).unwrap();
    let plan = net.eval_plan(PlanOptions::default()).unwrap();
    // MLCNN bill: what the compiled conv steps execute. Dense bill: the
    // same conv (+ absorbed avg-pool) layers run as a dense CNN.
    let mut mlcnn_ops = OpCounts::zero();
    let mut dense_ops = OpCounts::zero();
    for step in &plan.view().steps {
        let dense = match step.op {
            OpView::Fused {
                k,
                stride,
                pad,
                pool,
                ..
            } => conv_geom(step, k, stride, pad, Some(pool)),
            OpView::Conv { k, stride, pad, .. } => conv_geom(step, k, stride, pad, None),
            _ => continue,
        };
        mlcnn_ops += step_counts(step);
        dense_ops += dense_layer_counts(&dense);
    }
    // the fused stages pay 1/4 of the multiplications; C3 (unfused)
    // contributes equally to both sides
    assert!(mlcnn_ops.mults < dense_ops.mults);
    assert!(mlcnn_ops.adds < dense_ops.adds);
    let ratio = mlcnn_ops.mults as f64 / dense_ops.mults as f64;
    assert!(ratio < 0.7, "mult ratio {ratio}");
    let x = init::uniform(input, -1.0, 1.0, &mut init::rng(1));
    // functional equality once more, through the public facade
    let a = plan
        .forward(&x, &mut Workspace::for_plan(&plan, 1))
        .unwrap();
    let b = net.forward(&x).unwrap();
    assert!(a.approx_eq(&b, 1e-3));
}
