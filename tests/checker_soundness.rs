//! Soundness of `mlcnn-check` with respect to the builders it fronts:
//! any spec list the shape pass accepts without a denial must also
//! propagate and build, and any list `check_compile` accepts must
//! compile for fused inference. The generators deliberately emit
//! degenerate geometry (zero strides, oversized kernels, zero extents)
//! so both the accepting and rejecting paths are exercised.

use mlcnn::accel::dataflow::Tiling;
use mlcnn::check::{check_compile, check_shapes, lint_network, Code, Reporter, Severity};
use mlcnn::core::{ExecutionPlan, PlanOptions};
use mlcnn::nn::spec::{build_network, propagate_shape};
use mlcnn::nn::zoo::ConvLayerGeom;
use mlcnn::nn::LayerSpec;
use mlcnn::tensor::Shape4;
use proptest::prelude::*;

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
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn shape_clean_specs_propagate_and_build(specs in arb_specs()) {
        let input = Shape4::new(1, 3, 16, 16);
        let mut reporter = Reporter::new();
        let trace = check_shapes(&specs, input, &mut reporter);
        if !reporter.has_deny() {
            // the checker accepted: the authoritative propagation and the
            // trainable builder must agree
            let propagated = propagate_shape(&specs, input);
            prop_assert!(
                propagated.is_ok(),
                "checker accepted but propagate_shape rejected: {:?}",
                specs
            );
            prop_assert_eq!(trace.output, propagated.ok());
            prop_assert!(
                build_network(&specs, input, 7).is_ok(),
                "checker accepted but build_network rejected: {:?}",
                specs
            );
        } else {
            prop_assert!(trace.output.is_none());
        }
    }

    #[test]
    fn compile_clean_specs_compile(specs in arb_specs()) {
        let input = Shape4::new(1, 3, 16, 16);
        if check_compile(&specs, input).is_ok() {
            let mut net = build_network(&specs, input, 11)
                .expect("check_compile implies buildable");
            let params = net.export_params();
            prop_assert!(
                ExecutionPlan::compile(&specs, &params, input, PlanOptions::default()).is_ok(),
                "check_compile accepted but compile rejected: {:?}",
                specs
            );
        }
    }
}

// -- the four acceptance rejection classes, each with its distinct code --

#[test]
fn zero_extent_tiling_is_rejected_as_a001() {
    let g = ConvLayerGeom {
        name: "t".into(),
        in_ch: 8,
        out_ch: 8,
        in_h: 16,
        in_w: 16,
        k: 3,
        stride: 1,
        pad: 1,
        pool: None,
    };
    let t = Tiling {
        tm: 8,
        tn: 8,
        tr: 0,
        tc: 16,
    };
    let diags = t.validate(&g, 1 << 20);
    let d = diags
        .iter()
        .find(|d| d.code == Code::ZeroTileExtent)
        .expect("A001 expected");
    assert_eq!(d.severity, Severity::Deny);
}

#[test]
fn oversized_footprint_tiling_is_rejected_as_a002() {
    let g = ConvLayerGeom {
        name: "t".into(),
        in_ch: 64,
        out_ch: 64,
        in_h: 32,
        in_w: 32,
        k: 3,
        stride: 1,
        pad: 1,
        pool: None,
    };
    let whole = Tiling {
        tm: 64,
        tn: 64,
        tr: 32,
        tc: 32,
    };
    // a 134 kB FP32 buffer cannot hold the whole layer on chip
    let cap = 134 * 1024 / 4;
    assert!(whole.footprint_elements(g.k, g.stride) > cap);
    let diags = whole.validate(&g, cap);
    let d = diags
        .iter()
        .find(|d| d.code == Code::FootprintExceedsBuffer)
        .expect("A002 expected");
    assert_eq!(d.severity, Severity::Deny);
}

#[test]
fn overlapping_pool_fusion_candidate_is_flagged_f001() {
    let specs = vec![
        LayerSpec::conv3(8),
        LayerSpec::AvgPool {
            window: 3,
            stride: 2,
        },
    ];
    let r = lint_network("overlap", &specs, Shape4::new(1, 3, 16, 16), false);
    assert!(
        r.find(Code::OverlappingPoolFusion).is_some(),
        "{}",
        r.pretty()
    );
    // under -D warnings the candidate becomes a hard rejection
    let strict = lint_network("overlap", &specs, Shape4::new(1, 3, 16, 16), true);
    assert!(strict.has_deny());
}

#[test]
fn linear_on_unflattened_map_is_flagged_s006() {
    let specs = vec![LayerSpec::conv3(8), LayerSpec::Linear { out: 10 }];
    let r = lint_network("no-flatten", &specs, Shape4::new(1, 3, 16, 16), false);
    assert!(r.find(Code::LinearOnSpatial).is_some(), "{}", r.pretty());
    // inserting the Flatten silences it
    let fixed = vec![
        LayerSpec::conv3(8),
        LayerSpec::Flatten,
        LayerSpec::Linear { out: 10 },
    ];
    let r = lint_network("flattened", &fixed, Shape4::new(1, 3, 16, 16), false);
    assert!(r.find(Code::LinearOnSpatial).is_none(), "{}", r.pretty());
}
