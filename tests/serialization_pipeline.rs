//! Integration: the persistence story — train, serialize, reload in a new
//! "process" (fresh network object), and keep every downstream consumer
//! (plain eval, quantized eval, fused compilation) in exact agreement.

use mlcnn::core::quantized::evaluate_quantized;
use mlcnn::core::reorder::reorder_activation_pool;
use mlcnn::core::{EvalPlan, PlanOptions, Workspace};
use mlcnn::data::blobs::{generate, BlobsConfig};
use mlcnn::nn::serialize::{load_params, save_params};
use mlcnn::nn::spec::build_network;
use mlcnn::nn::train::{evaluate, fit, TrainConfig};
use mlcnn::nn::zoo;
use mlcnn::quant::Precision;
use mlcnn::tensor::Shape4;

#[test]
fn train_save_load_evaluate_roundtrip() {
    let data = generate(BlobsConfig {
        classes: 4,
        per_class: 16,
        channels: 3,
        side: 8,
        ..Default::default()
    });
    let (train, test) = data.split(0.75);
    let input = train.item_shape().unwrap();
    let specs = vec![
        mlcnn::nn::LayerSpec::conv3(4),
        mlcnn::nn::LayerSpec::ReLU,
        mlcnn::nn::LayerSpec::AvgPool {
            window: 2,
            stride: 2,
        },
        mlcnn::nn::LayerSpec::Flatten,
        mlcnn::nn::LayerSpec::Linear { out: 4 },
    ];
    let mut net = build_network(&specs, input, 11).unwrap();
    fit(
        &mut net,
        &train,
        &TrainConfig {
            epochs: 5,
            batch_size: 8,
            ..Default::default()
        },
    )
    .unwrap();
    let acc_before = evaluate(&mut net, &test, &[1], 8).unwrap().at(1).unwrap();
    let blob = save_params(&mut net);

    // "new process": rebuild from the (serializable) spec and load
    let mut restored = build_network(&specs, input, 424_242).unwrap();
    load_params(&mut restored, &blob).unwrap();
    let acc_after = evaluate(&mut restored, &test, &[1], 8)
        .unwrap()
        .at(1)
        .unwrap();
    assert_eq!(acc_before, acc_after, "accuracy changed across save/load");

    // quantized evaluation also agrees between original and restored
    let mut q_orig = build_network(&specs, input, 1).unwrap();
    load_params(&mut q_orig, &blob).unwrap();
    let mut q_rest = build_network(&specs, input, 2).unwrap();
    load_params(&mut q_rest, &blob).unwrap();
    let a = evaluate_quantized(&mut q_orig, &test, Precision::Int8, &[1], 8)
        .unwrap()
        .at(1)
        .unwrap();
    let b = evaluate_quantized(&mut q_rest, &test, Precision::Int8, &[1], 8)
        .unwrap()
        .at(1)
        .unwrap();
    assert_eq!(a, b);
}

#[test]
fn saved_lenet_compiles_to_the_same_fused_network() {
    let specs = reorder_activation_pool(&zoo::lenet5_spec(10)).specs;
    let input = Shape4::new(1, 3, 32, 32);
    let mut net = build_network(&specs, input, 77).unwrap();
    let blob = save_params(&mut net);

    let mut restored = build_network(&specs, input, 1).unwrap();
    load_params(&mut restored, &blob).unwrap();

    let fused_a = net.eval_plan(PlanOptions::default()).unwrap();
    let fused_b = restored.eval_plan(PlanOptions::default()).unwrap();
    let x = mlcnn::tensor::init::uniform(input, -1.0, 1.0, &mut mlcnn::tensor::init::rng(5));
    let mut ws = Workspace::for_plan(&fused_a, 1);
    assert_eq!(
        fused_a.forward(&x, &mut ws).unwrap(),
        fused_b.forward(&x, &mut ws).unwrap(),
        "fused plans diverge after save/load"
    );
}
