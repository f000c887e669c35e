//! Model zoo: the CNNs the MLCNN paper evaluates.
//!
//! Two families of artifacts:
//!
//! * **Exact layer geometries** ([`ModelDesc`]) of LeNet-5, VGG-16, VGG-19,
//!   GoogLeNet and DenseNet-121 adapted to 3×32×32 (CIFAR-scale) inputs —
//!   the paper's Table I population and the workloads of Figs. 13–15.
//!   Only geometry matters for those experiments, so these carry no
//!   weights.
//! * **Trainable reduced-width variants** (`*_spec` functions) used for the
//!   accuracy experiments (Figs. 3/4/12), where full-size VGG/GoogLeNet
//!   training is out of scope but the architectural motifs (conv→ReLU→
//!   avg-pool blocks, inception branches, dense connectivity, transition
//!   layers) must be present for the reordering question to be meaningful.
//!
//! Fused-layer marking: a conv layer is annotated with the pooling that
//! consumes its output (after the activation). Those are exactly the
//! layers MLCNN can co-optimize once activation and average pooling are
//! reordered: LeNet-5 C1–C2, VGG's five block-final convs, GoogLeNet's
//! twelve branch-final convs feeding the three pooled concatenations
//! (the 5b module feeds the 8×8 global pool — the paper's headline case),
//! and DenseNet's three 1×1 transition convs.

use crate::spec::LayerSpec;
use serde::{Deserialize, Serialize};

/// Pooling that consumes a conv layer's (activated) output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolAfter {
    /// Pool window extent.
    pub window: usize,
    /// Pool stride.
    pub stride: usize,
    /// Average pooling (true) or max pooling (false) in the original net.
    pub avg: bool,
}

impl PoolAfter {
    /// The standard 2×2/stride-2 average pool.
    pub const fn avg2() -> Self {
        PoolAfter {
            window: 2,
            stride: 2,
            avg: true,
        }
    }
}

/// Geometry of one convolutional layer within a model.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConvLayerGeom {
    /// Layer label as the paper's figures use them ("C1", "C2", …).
    pub name: String,
    /// Input channels.
    pub in_ch: usize,
    /// Output channels.
    pub out_ch: usize,
    /// Input spatial height.
    pub in_h: usize,
    /// Input spatial width.
    pub in_w: usize,
    /// Kernel extent (square).
    pub k: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding.
    pub pad: usize,
    /// Pooling that follows this layer's activation, if any.
    pub pool: Option<PoolAfter>,
}

impl ConvLayerGeom {
    /// Convolution output height.
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.pad - self.k) / self.stride + 1
    }

    /// Convolution output width.
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.pad - self.k) / self.stride + 1
    }

    /// Learnable parameters (weights + per-output-channel bias).
    pub fn params(&self) -> u64 {
        (self.out_ch * (self.in_ch * self.k * self.k) + self.out_ch) as u64
    }

    /// Multiply–accumulate count of the dense convolution.
    pub fn macs(&self) -> u64 {
        (self.out_h() * self.out_w() * self.out_ch * self.in_ch * self.k * self.k) as u64
    }

    /// True when MLCNN can fuse this layer with its pooling.
    pub fn is_fusable(&self) -> bool {
        self.pool.is_some()
    }
}

/// Geometry-level description of a full CNN.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelDesc {
    /// Model name as the paper reports it.
    pub name: String,
    /// All convolutional layers in execution order.
    pub convs: Vec<ConvLayerGeom>,
    /// Fully connected layers as `(in_features, out_features)`.
    pub fc: Vec<(usize, usize)>,
}

impl ModelDesc {
    /// Number of convolutional layers (Table I, column 2).
    pub fn conv_layer_count(&self) -> usize {
        self.convs.len()
    }

    /// Total learnable parameters (Table I, column 3).
    pub fn param_count(&self) -> u64 {
        let conv: u64 = self.convs.iter().map(ConvLayerGeom::params).sum();
        let fc: u64 = self.fc.iter().map(|&(i, o)| (i * o + o) as u64).sum();
        conv + fc
    }

    /// Total dense-convolution MACs for one inference.
    pub fn total_macs(&self) -> u64 {
        self.convs.iter().map(ConvLayerGeom::macs).sum()
    }

    /// The layers MLCNN can co-optimize (conv followed by pooling).
    pub fn fused_convs(&self) -> Vec<&ConvLayerGeom> {
        self.convs.iter().filter(|c| c.is_fusable()).collect()
    }
}

fn conv(
    name: &str,
    in_ch: usize,
    out_ch: usize,
    in_hw: usize,
    k: usize,
    pad: usize,
    pool: Option<PoolAfter>,
) -> ConvLayerGeom {
    ConvLayerGeom {
        name: name.into(),
        in_ch,
        out_ch,
        in_h: in_hw,
        in_w: in_hw,
        k,
        stride: 1,
        pad,
        pool,
    }
}

/// LeNet-5 on 3×32×32 inputs (1+1+1 conv layers, two pooled).
pub fn lenet5(classes: usize) -> ModelDesc {
    ModelDesc {
        name: "LeNet5".into(),
        convs: vec![
            conv("C1", 3, 6, 32, 5, 0, Some(PoolAfter::avg2())),
            conv("C2", 6, 16, 14, 5, 0, Some(PoolAfter::avg2())),
            conv("C3", 16, 120, 5, 5, 0, None),
        ],
        fc: vec![(120, 84), (84, classes)],
    }
}

fn vgg(name: &str, blocks: &[(usize, usize)], classes: usize) -> ModelDesc {
    // blocks: (conv count, channels); 2x2 pool after every block.
    let mut convs = Vec::new();
    let mut in_ch = 3;
    let mut hw = 32;
    let mut idx = 1;
    for &(count, ch) in blocks {
        for i in 0..count {
            let pool = if i + 1 == count {
                Some(PoolAfter::avg2())
            } else {
                None
            };
            convs.push(conv(&format!("C{idx}"), in_ch, ch, hw, 3, 1, pool));
            in_ch = ch;
            idx += 1;
        }
        hw /= 2;
    }
    ModelDesc {
        name: name.into(),
        convs,
        fc: vec![(512, classes)],
    }
}

/// VGG-16 (2+2+3+3+3 conv layers, block-final convs pooled).
pub fn vgg16(classes: usize) -> ModelDesc {
    vgg(
        "VGG16",
        &[(2, 64), (2, 128), (3, 256), (3, 512), (3, 512)],
        classes,
    )
}

/// VGG-19 (2+2+4+4+4 conv layers).
pub fn vgg19(classes: usize) -> ModelDesc {
    vgg(
        "VGG19",
        &[(2, 64), (2, 128), (4, 256), (4, 512), (4, 512)],
        classes,
    )
}

/// GoogLeNet inception channel plan: (1x1, 3x3red, 3x3, 5x5red, 5x5, poolproj).
type InceptionPlan = (usize, usize, usize, usize, usize, usize);

const INCEPTIONS: [(&str, InceptionPlan); 9] = [
    ("3a", (64, 96, 128, 16, 32, 32)),
    ("3b", (128, 128, 192, 32, 96, 64)),
    ("4a", (192, 96, 208, 16, 48, 64)),
    ("4b", (160, 112, 224, 24, 64, 64)),
    ("4c", (128, 128, 256, 24, 64, 64)),
    ("4d", (112, 144, 288, 32, 64, 64)),
    ("4e", (256, 160, 320, 32, 128, 128)),
    ("5a", (256, 160, 320, 32, 128, 128)),
    ("5b", (384, 192, 384, 48, 128, 128)),
];

/// GoogLeNet adapted to 32×32 inputs: a 3-conv stem then nine inception
/// modules (Table I's 1+1+1+6×9 = 57 conv layers). The modules whose
/// concatenated output feeds a pooling stage — 3b, 4e (2×2) and 5b (the
/// final 8×8 global average pool) — have their four branch-final convs
/// marked fused: 3 modules × 4 branches = the paper's "twelve layers in
/// GoogLeNet \[that\] can benefit".
pub fn googlenet(classes: usize) -> ModelDesc {
    let mut convs = Vec::new();
    // Stem (CIFAR-scale): 3→64 (3x3), 64→64 (1x1), 64→192 (3x3), all at 32.
    convs.push(conv("C1", 3, 64, 32, 3, 1, None));
    convs.push(conv("C2", 64, 64, 32, 1, 0, None));
    convs.push(conv("C3", 64, 192, 32, 3, 1, None));

    let mut in_ch = 192;
    let mut hw = 32;
    for (label, plan) in INCEPTIONS {
        let (c1, r3, c3, r5, c5, pp) = plan;
        // pooled module? 3b and 4e feed 2x2 pools, 5b feeds the 8x8 global
        // average pool.
        let pool = match label {
            "3b" | "4e" => Some(PoolAfter::avg2()),
            "5b" => Some(PoolAfter {
                window: 8,
                stride: 8,
                avg: true,
            }),
            _ => None,
        };
        convs.push(conv(&format!("i{label}-1x1"), in_ch, c1, hw, 1, 0, pool));
        convs.push(conv(&format!("i{label}-3x3r"), in_ch, r3, hw, 1, 0, None));
        convs.push(conv(&format!("i{label}-3x3"), r3, c3, hw, 3, 1, pool));
        convs.push(conv(&format!("i{label}-5x5r"), in_ch, r5, hw, 1, 0, None));
        convs.push(conv(&format!("i{label}-5x5"), r5, c5, hw, 5, 2, pool));
        convs.push(conv(&format!("i{label}-pp"), in_ch, pp, hw, 1, 0, pool));
        in_ch = c1 + c3 + c5 + pp;
        if pool.is_some() && label != "5b" {
            hw /= 2;
        }
    }
    ModelDesc {
        name: "GoogLeNet".into(),
        convs,
        fc: vec![(1024, classes)],
    }
}

/// DenseNet-121 adapted to 32×32 inputs. Dense blocks of 6/12/24/16
/// bottleneck layers (growth 32); the three transition blocks each end in
/// a 1×1 conv followed by 2×2 average pooling — the "three layers in the
/// transition blocks \[that\] can benefit from MLCNN's optimization".
/// Those 1×1 fused layers are also why the paper measures *zero* addition
/// reuse on DenseNet (K = 1 disables LAR/GAR).
pub fn densenet121(classes: usize) -> ModelDesc {
    const GROWTH: usize = 32;
    let mut convs = Vec::new();
    convs.push(conv("C0", 3, 64, 32, 3, 1, None));
    let mut ch = 64;
    let mut hw = 32;
    let blocks = [(1usize, 6usize), (2, 12), (3, 24), (4, 16)];
    for (bi, layers) in blocks {
        for li in 0..layers {
            let bottleneck = 4 * GROWTH;
            convs.push(conv(
                &format!("b{bi}l{li}-1x1"),
                ch,
                bottleneck,
                hw,
                1,
                0,
                None,
            ));
            convs.push(conv(
                &format!("b{bi}l{li}-3x3"),
                bottleneck,
                GROWTH,
                hw,
                3,
                1,
                None,
            ));
            ch += GROWTH;
        }
        if bi != 4 {
            // transition: 1x1 conv halving channels, then 2x2 avg pool.
            convs.push(conv(
                &format!("C{bi}"), // C1..C3, the paper's DenseNet bars
                ch,
                ch / 2,
                hw,
                1,
                0,
                Some(PoolAfter::avg2()),
            ));
            ch /= 2;
            hw /= 2;
        }
    }
    ModelDesc {
        name: "DenseNet".into(),
        convs,
        fc: vec![(ch, classes)],
    }
}

/// ResNet-18 adapted to 32×32 inputs (the paper's conclusion: "The
/// convolutional layers with pooling in ResNet-18 can benefit from MLCNN
/// with layer reordering and cross-layer optimization").
///
/// CIFAR-style plan: 3×3 stem at 64 channels, four stages of two basic
/// blocks (64/128/256/512), spatial halving by stride-2 convs at stage
/// entries, and a final 4×4 global average pool. Average pooling
/// distributes over the residual sum (`avgpool(a+b) = avgpool(a) +
/// avgpool(b)`), so the last basic block's convs — both the residual 3×3
/// and the stage's identity path — are fusable with the global pool; we
/// mark the block's two 3×3 convs.
pub fn resnet18(classes: usize) -> ModelDesc {
    let mut convs = Vec::new();
    convs.push(conv("C0", 3, 64, 32, 3, 1, None));
    let mut ch = 64;
    let mut hw = 32;
    let stages = [(1usize, 64usize), (2, 128), (3, 256), (4, 512)];
    for (si, out_ch) in stages {
        for bi in 0..2usize {
            let downsample = si != 1 && bi == 0;
            let stride = if downsample { 2 } else { 1 };
            let in_hw = hw;
            if downsample {
                hw /= 2;
            }
            // the two 3x3 convs of the basic block
            let last_stage_last_block = si == 4 && bi == 1;
            let pool = if last_stage_last_block {
                Some(PoolAfter {
                    window: 4,
                    stride: 4,
                    avg: true,
                })
            } else {
                None
            };
            convs.push(ConvLayerGeom {
                name: format!("s{si}b{bi}-a"),
                in_ch: ch,
                out_ch,
                in_h: in_hw,
                in_w: in_hw,
                k: 3,
                stride,
                pad: 1,
                pool: None,
            });
            convs.push(ConvLayerGeom {
                name: format!("s{si}b{bi}-b"),
                in_ch: out_ch,
                out_ch,
                in_h: hw,
                in_w: hw,
                k: 3,
                stride: 1,
                pad: 1,
                pool,
            });
            if downsample {
                // 1x1 projection on the skip path
                convs.push(ConvLayerGeom {
                    name: format!("s{si}b{bi}-proj"),
                    in_ch: ch,
                    out_ch,
                    in_h: in_hw,
                    in_w: in_hw,
                    k: 1,
                    stride: 2,
                    pad: 0,
                    pool: None,
                });
            }
            ch = out_ch;
        }
    }
    ModelDesc {
        name: "ResNet18".into(),
        convs,
        fc: vec![(512, classes)],
    }
}

/// The four Table-I models, in the paper's row order.
pub fn table1_models(classes: usize) -> Vec<ModelDesc> {
    vec![
        lenet5(classes),
        vgg16(classes),
        vgg19(classes),
        googlenet(classes),
    ]
}

/// The four models of the Figs. 12–15 evaluation, in the paper's order.
pub fn evaluation_models(classes: usize) -> Vec<ModelDesc> {
    vec![
        densenet121(classes),
        vgg16(classes),
        googlenet(classes),
        lenet5(classes),
    ]
}

// ---------------------------------------------------------------------------
// Trainable reduced-width variants (accuracy experiments)
// ---------------------------------------------------------------------------

/// Trainable LeNet-5 in the paper's original order (conv → ReLU → avg pool).
pub fn lenet5_spec(classes: usize) -> Vec<LayerSpec> {
    vec![
        LayerSpec::Conv {
            out_ch: 6,
            k: 5,
            stride: 1,
            pad: 0,
        },
        LayerSpec::ReLU,
        LayerSpec::AvgPool {
            window: 2,
            stride: 2,
        },
        LayerSpec::Conv {
            out_ch: 16,
            k: 5,
            stride: 1,
            pad: 0,
        },
        LayerSpec::ReLU,
        LayerSpec::AvgPool {
            window: 2,
            stride: 2,
        },
        LayerSpec::Conv {
            out_ch: 120,
            k: 5,
            stride: 1,
            pad: 0,
        },
        LayerSpec::ReLU,
        LayerSpec::Flatten,
        LayerSpec::Linear { out: 84 },
        LayerSpec::ReLU,
        LayerSpec::Linear { out: classes },
    ]
}

/// Two-layer perceptron head: flatten → hidden linear → ReLU → classifier.
/// The smallest member of the zoo — its forward pass is a pair of matmuls,
/// which makes it the reference model for workloads bound by per-request
/// *dispatch* rather than compute (e.g. serving-runtime benchmarks).
pub fn mlp_mini_spec(hidden: usize, classes: usize) -> Vec<LayerSpec> {
    vec![
        LayerSpec::Flatten,
        LayerSpec::Linear { out: hidden },
        LayerSpec::ReLU,
        LayerSpec::Linear { out: classes },
    ]
}

/// Reduced-width VGG-style network: three conv→ReLU→avg-pool blocks.
/// `width` scales channel counts (paper-shape at width 64; accuracy
/// experiments use 8–16 for tractable training).
pub fn vgg_mini_spec(width: usize, classes: usize) -> Vec<LayerSpec> {
    vec![
        LayerSpec::conv3(width),
        LayerSpec::ReLU,
        LayerSpec::conv3(width),
        LayerSpec::ReLU,
        LayerSpec::AvgPool {
            window: 2,
            stride: 2,
        },
        LayerSpec::conv3(2 * width),
        LayerSpec::ReLU,
        LayerSpec::AvgPool {
            window: 2,
            stride: 2,
        },
        LayerSpec::conv3(4 * width),
        LayerSpec::ReLU,
        LayerSpec::AvgPool {
            window: 2,
            stride: 2,
        },
        LayerSpec::Flatten,
        LayerSpec::Linear { out: classes },
    ]
}

/// Inception module whose branches end in a *raw* convolution: the
/// module-exit activation is applied at the top level (after the channel
/// concat), which is what makes the ReLU ↔ avg-pool reordering a real
/// transformation for this architecture — branch outputs are mixed-sign
/// when the pool sees them.
fn inception_spec(c1: usize, r3: usize, c3: usize, pp: usize) -> LayerSpec {
    LayerSpec::Inception {
        branches: vec![
            vec![LayerSpec::conv1(c1)],
            vec![LayerSpec::conv1(r3), LayerSpec::ReLU, LayerSpec::conv3(c3)],
            vec![LayerSpec::conv1(pp)],
        ],
    }
}

/// Reduced GoogLeNet: stem conv + two inception modules with pooling
/// between, global average pooling head (preserving the 8×8 final pool
/// motif the paper highlights).
pub fn googlenet_mini_spec(width: usize, classes: usize) -> Vec<LayerSpec> {
    vec![
        LayerSpec::conv3(4 * width),
        LayerSpec::ReLU,
        inception_spec(2 * width, 2 * width, 4 * width, 2 * width),
        LayerSpec::ReLU,
        LayerSpec::AvgPool {
            window: 2,
            stride: 2,
        },
        inception_spec(4 * width, 2 * width, 4 * width, 2 * width),
        LayerSpec::ReLU,
        LayerSpec::AvgPool {
            window: 2,
            stride: 2,
        },
        LayerSpec::GlobalAvgPool,
        LayerSpec::Flatten,
        LayerSpec::Linear { out: classes },
    ]
}

/// Reduced DenseNet: init conv, two dense blocks, a transition
/// (1×1 conv + 2×2 avg pool — the fusable motif), global pool head.
/// Note DenseNet's transitions already use the *reordered* structure
/// (conv → pool → next block's activation), which the paper cites as
/// evidence the reordering is safe.
pub fn densenet_mini_spec(growth: usize, classes: usize) -> Vec<LayerSpec> {
    let dense = |g: usize| LayerSpec::DenseBlock {
        inner: vec![LayerSpec::conv3(g), LayerSpec::ReLU],
    };
    vec![
        LayerSpec::conv3(4 * growth),
        LayerSpec::ReLU,
        dense(2 * growth),
        dense(2 * growth),
        LayerSpec::conv1(4 * growth),
        LayerSpec::ReLU,
        LayerSpec::AvgPool {
            window: 2,
            stride: 2,
        },
        dense(2 * growth),
        dense(2 * growth),
        LayerSpec::GlobalAvgPool,
        LayerSpec::Flatten,
        LayerSpec::Linear { out: classes },
    ]
}

/// Reduced trainable ResNet: stem conv, two residual stages (one with a
/// projection downsample), batch norm and a global-pool head.
pub fn resnet_mini_spec(width: usize, classes: usize) -> Vec<LayerSpec> {
    let basic = |ch: usize| LayerSpec::Residual {
        inner: vec![
            LayerSpec::conv3(ch),
            LayerSpec::BatchNorm,
            LayerSpec::ReLU,
            LayerSpec::conv3(ch),
            LayerSpec::BatchNorm,
        ],
        projector: vec![],
    };
    let down = |ch: usize| LayerSpec::Residual {
        inner: vec![
            LayerSpec::Conv {
                out_ch: ch,
                k: 3,
                stride: 2,
                pad: 1,
            },
            LayerSpec::BatchNorm,
            LayerSpec::ReLU,
            LayerSpec::conv3(ch),
            LayerSpec::BatchNorm,
        ],
        projector: vec![LayerSpec::Conv {
            out_ch: ch,
            k: 1,
            stride: 2,
            pad: 0,
        }],
    };
    vec![
        LayerSpec::conv3(width),
        LayerSpec::BatchNorm,
        LayerSpec::ReLU,
        basic(width),
        LayerSpec::ReLU,
        down(2 * width),
        LayerSpec::ReLU,
        LayerSpec::GlobalAvgPool,
        LayerSpec::Flatten,
        LayerSpec::Linear { out: classes },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{build_network, propagate_shape};
    use mlcnn_tensor::Shape4;

    #[test]
    fn table1_conv_layer_counts_match_paper() {
        // Table I: LeNet5 1+1+1 = 3; VGG16 2+2+3+3+3 = 13;
        // VGG19 2+2+4+4+4 = 16; GoogLeNet 1+1+1 + 9*6 = 57.
        let models = table1_models(100);
        let counts: Vec<usize> = models.iter().map(ModelDesc::conv_layer_count).collect();
        assert_eq!(counts, vec![3, 13, 16, 57]);
    }

    #[test]
    fn lenet5_params_match_paper_62k() {
        // Table I reports 62K learnable parameters for LeNet-5.
        let p = lenet5(10).param_count();
        assert!((55_000..70_000).contains(&p), "LeNet-5 params {p}");
    }

    #[test]
    fn vgg_params_match_paper_scale() {
        // Table I: VGG16 14728K, VGG19 20040K.
        let p16 = vgg16(10).param_count();
        assert!(
            (14_000_000..15_200_000).contains(&p16),
            "VGG16 params {p16}"
        );
        let p19 = vgg19(10).param_count();
        assert!(
            (19_300_000..20_700_000).contains(&p19),
            "VGG19 params {p19}"
        );
        assert!(p19 > p16);
    }

    #[test]
    fn googlenet_params_plausible() {
        // ~6M parameters for GoogLeNet (the paper's Table I value 6166250
        // read as a raw count, not thousands).
        let p = googlenet(100).param_count();
        assert!((5_000_000..8_000_000).contains(&p), "GoogLeNet params {p}");
    }

    #[test]
    fn fused_layer_counts_match_paper_section_vii() {
        // LeNet-5: 2 fused; VGG-16: 5; GoogLeNet: 12; DenseNet: 3.
        assert_eq!(lenet5(10).fused_convs().len(), 2);
        assert_eq!(vgg16(10).fused_convs().len(), 5);
        assert_eq!(googlenet(10).fused_convs().len(), 12);
        assert_eq!(densenet121(10).fused_convs().len(), 3);
    }

    #[test]
    fn googlenet_has_8x8_final_pool() {
        let g = googlenet(10);
        let max_pool_window = g
            .fused_convs()
            .iter()
            .map(|c| c.pool.unwrap().window)
            .max()
            .unwrap();
        assert_eq!(max_pool_window, 8);
    }

    #[test]
    fn densenet_fused_layers_are_1x1() {
        let d = densenet121(10);
        for c in d.fused_convs() {
            assert_eq!(c.k, 1, "{} is not 1x1", c.name);
        }
    }

    #[test]
    fn geometry_chains_are_consistent() {
        // each conv's input channels must match the producing structure:
        // for the sequential models, out_ch of block-final layers chains.
        for m in [lenet5(10), vgg16(10), vgg19(10)] {
            let mut prev_out = 3;
            let mut prev_hw = 32;
            for c in &m.convs {
                assert_eq!(c.in_ch, prev_out, "{}: {}", m.name, c.name);
                assert_eq!(c.in_h, prev_hw, "{}: {}", m.name, c.name);
                prev_out = c.out_ch;
                prev_hw = c.out_h();
                if let Some(p) = c.pool {
                    prev_hw = (prev_hw - p.window) / p.stride + 1;
                }
            }
        }
    }

    #[test]
    fn googlenet_spatial_plan_reaches_8x8() {
        let g = googlenet(10);
        // the 5b module must operate at 8x8 so the final pool is 8x8 global
        let i5b = g.convs.iter().find(|c| c.name == "i5b-3x3").unwrap();
        assert_eq!(i5b.in_h, 8);
    }

    #[test]
    fn vgg16_macs_dominated_by_early_layers() {
        // sanity on MAC accounting: first block (64ch at 32x32) has more
        // MACs than the last block (512ch at 2x2).
        let m = vgg16(10);
        let c2 = m.convs[1].macs();
        let c13 = m.convs[12].macs();
        assert!(c2 > c13);
        assert!(m.total_macs() > 100_000_000);
    }

    #[test]
    fn trainable_specs_build_and_produce_class_logits() {
        let input = Shape4::new(1, 3, 32, 32);
        for (name, spec) in [
            ("lenet", lenet5_spec(10)),
            ("vgg-mini", vgg_mini_spec(4, 10)),
            ("googlenet-mini", googlenet_mini_spec(4, 10)),
            ("densenet-mini", densenet_mini_spec(4, 10)),
        ] {
            let out = propagate_shape(&spec, input).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(out, Shape4::new(1, 1, 1, 10), "{name}");
            let net = build_network(&spec, input, 7).unwrap();
            assert!(net.param_count() > 0, "{name}");
        }
    }

    #[test]
    fn resnet18_geometry() {
        let m = resnet18(10);
        // 1 stem + 8 blocks x 2 convs + 3 projections = 20 convs
        assert_eq!(m.conv_layer_count(), 20);
        // ~11M parameters like the reference ResNet-18
        let p = m.param_count();
        assert!((10_000_000..12_500_000).contains(&p), "params {p}");
        // exactly one fused conv: the last block's second 3x3 before the
        // 4x4 global pool
        let fused = m.fused_convs();
        assert_eq!(fused.len(), 1);
        assert_eq!(fused[0].name, "s4b1-b");
        assert_eq!(fused[0].pool.unwrap().window, 4);
        assert_eq!(fused[0].in_h, 4);
    }

    #[test]
    fn resnet_mini_trains_shapes() {
        let input = Shape4::new(1, 3, 32, 32);
        let spec = resnet_mini_spec(4, 10);
        let out = propagate_shape(&spec, input).unwrap();
        assert_eq!(out, Shape4::new(1, 1, 1, 10));
        let net = build_network(&spec, input, 2).unwrap();
        assert!(net.param_count() > 0);
    }

    #[test]
    fn evaluation_models_order_matches_figures() {
        let names: Vec<String> = evaluation_models(100).into_iter().map(|m| m.name).collect();
        assert_eq!(names, vec!["DenseNet", "VGG16", "GoogLeNet", "LeNet5"]);
    }
}
