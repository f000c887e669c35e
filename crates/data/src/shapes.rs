//! CIFAR-like procedural shape renders — the stand-in for CIFAR-10/100.
//!
//! Each image is 3×32×32 (RGB): a textured background, one foreground
//! geometric shape with jittered position/scale/rotation, and pixel noise.
//!
//! * 10-class mode (`ShapesConfig::cifar10_like`): class = shape kind.
//! * 100-class mode (`ShapesConfig::cifar100_like`): class = shape kind ×
//!   color family (10 × 10), mirroring CIFAR-100's finer label space and —
//!   like the paper observes — substantially harder for small models.

use crate::dataset::Dataset;
use mlcnn_tensor::init;
use mlcnn_tensor::{Shape4, Tensor};
use rand::rngs::StdRng;
use rand::RngExt;

/// The ten base shape kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeKind {
    /// Filled disc.
    Disc,
    /// Ring (annulus).
    Ring,
    /// Filled axis-aligned square.
    Square,
    /// Hollow square frame.
    Frame,
    /// Filled triangle.
    Triangle,
    /// Plus / cross.
    Cross,
    /// Diagonal X.
    Saltire,
    /// Horizontal bar.
    HBar,
    /// Vertical bar.
    VBar,
    /// Checkerboard patch.
    Checker,
}

/// All shape kinds, indexable by class id.
pub const KINDS: [ShapeKind; 10] = [
    ShapeKind::Disc,
    ShapeKind::Ring,
    ShapeKind::Square,
    ShapeKind::Frame,
    ShapeKind::Triangle,
    ShapeKind::Cross,
    ShapeKind::Saltire,
    ShapeKind::HBar,
    ShapeKind::VBar,
    ShapeKind::Checker,
];

/// Ten color families (RGB triples in \[0,1\]) for the 100-class mode.
pub const COLORS: [[f32; 3]; 10] = [
    [0.9, 0.1, 0.1],
    [0.1, 0.9, 0.1],
    [0.1, 0.1, 0.9],
    [0.9, 0.9, 0.1],
    [0.9, 0.1, 0.9],
    [0.1, 0.9, 0.9],
    [0.9, 0.5, 0.1],
    [0.5, 0.1, 0.9],
    [0.6, 0.6, 0.6],
    [0.9, 0.9, 0.9],
];

/// Configuration for [`generate`].
#[derive(Debug, Clone, Copy)]
pub struct ShapesConfig {
    /// 10 (shape only) or 100 (shape × color).
    pub classes: usize,
    /// Items per class.
    pub per_class: usize,
    /// Image side.
    pub side: usize,
    /// Additive pixel noise sigma.
    pub noise: f32,
    /// PRNG seed.
    pub seed: u64,
}

impl ShapesConfig {
    /// CIFAR-10-like preset: 10 classes of 3×32×32 images.
    pub fn cifar10_like(per_class: usize, seed: u64) -> Self {
        Self {
            classes: 10,
            per_class,
            side: 32,
            noise: 0.15,
            seed,
        }
    }

    /// CIFAR-100-like preset: 100 classes (shape × color family).
    pub fn cifar100_like(per_class: usize, seed: u64) -> Self {
        Self {
            classes: 100,
            per_class,
            side: 32,
            noise: 0.15,
            seed,
        }
    }
}

/// Signed distance-ish membership test: is pixel `(y, x)` inside `kind`
/// centered at `(cy, cx)` with radius `r` ?
fn inside(kind: ShapeKind, y: f32, x: f32, cy: f32, cx: f32, r: f32) -> bool {
    let dy = y - cy;
    let dx = x - cx;
    match kind {
        ShapeKind::Disc => dy * dy + dx * dx <= r * r,
        ShapeKind::Ring => {
            let d2 = dy * dy + dx * dx;
            d2 <= r * r && d2 >= (0.55 * r) * (0.55 * r)
        }
        ShapeKind::Square => dy.abs() <= r && dx.abs() <= r,
        ShapeKind::Frame => {
            dy.abs() <= r && dx.abs() <= r && (dy.abs() >= 0.55 * r || dx.abs() >= 0.55 * r)
        }
        ShapeKind::Triangle => {
            // upward triangle: inside if below the two slanted edges and
            // above the base.
            dy >= -r && dy <= r && dx.abs() <= (dy + r) * 0.5
        }
        ShapeKind::Cross => {
            (dy.abs() <= 0.33 * r && dx.abs() <= r) || (dx.abs() <= 0.33 * r && dy.abs() <= r)
        }
        ShapeKind::Saltire => {
            let band = 0.33 * r;
            ((dy - dx).abs() <= band || (dy + dx).abs() <= band) && dy.abs() <= r && dx.abs() <= r
        }
        ShapeKind::HBar => dy.abs() <= 0.33 * r && dx.abs() <= r,
        ShapeKind::VBar => dx.abs() <= 0.33 * r && dy.abs() <= r,
        ShapeKind::Checker => {
            if dy.abs() > r || dx.abs() > r {
                return false;
            }
            let cell = (r / 1.5).max(1.0);
            let iy = ((dy + r) / cell) as i32;
            let ix = ((dx + r) / cell) as i32;
            (iy + ix) % 2 == 0
        }
    }
}

/// Render one item.
fn render(
    side: usize,
    kind: ShapeKind,
    color: [f32; 3],
    noise: f32,
    rng: &mut StdRng,
) -> Tensor<f32> {
    let s = side as f32;
    let cy = rng.random_range(0.35 * s..0.65 * s);
    let cx = rng.random_range(0.35 * s..0.65 * s);
    let r = rng.random_range(0.18 * s..0.30 * s);
    let bg: f32 = rng.random_range(0.0..0.35);
    let bg_tint: [f32; 3] = [
        bg * rng.random_range(0.5f32..1.0),
        bg * rng.random_range(0.5f32..1.0),
        bg * rng.random_range(0.5f32..1.0),
    ];
    let mut img = Tensor::from_fn(Shape4::new(1, 3, side, side), |_, c, h, w| {
        if inside(kind, h as f32, w as f32, cy, cx, r) {
            color[c]
        } else {
            bg_tint[c]
        }
    });
    if noise > 0.0 {
        let n = init::normal(img.shape(), noise, rng);
        img = img.add(&n).expect("same shape");
    }
    img
}

/// Generate the dataset with class-interleaved item order (so positional
/// splits are class-balanced).
pub fn generate(cfg: ShapesConfig) -> Dataset {
    assert!(
        cfg.classes == 10 || cfg.classes == 100,
        "shapes dataset supports 10 or 100 classes"
    );
    let mut rng = init::rng(cfg.seed);
    let mut images = Vec::with_capacity(cfg.classes * cfg.per_class);
    let mut labels = Vec::with_capacity(cfg.classes * cfg.per_class);
    for _ in 0..cfg.per_class {
        for cls in 0..cfg.classes {
            let (kind, color) = if cfg.classes == 10 {
                // fixed saturated color per sample, class = shape.
                let color = COLORS[rng.random_range(0..COLORS.len())];
                (KINDS[cls], color)
            } else {
                (KINDS[cls / 10], COLORS[cls % 10])
            };
            images.push(render(cfg.side, kind, color, cfg.noise, &mut rng));
            labels.push(cls);
        }
    }
    Dataset::new(images, labels, cfg.classes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cifar10_like_shape_and_counts() {
        let ds = generate(ShapesConfig {
            per_class: 3,
            ..ShapesConfig::cifar10_like(3, 5)
        });
        assert_eq!(ds.len(), 30);
        assert_eq!(ds.num_classes(), 10);
        assert_eq!(ds.item_shape(), Some(Shape4::new(1, 3, 32, 32)));
        assert!(ds.class_histogram().iter().all(|&c| c == 3));
    }

    #[test]
    fn cifar100_like_has_100_balanced_classes() {
        let ds = generate(ShapesConfig::cifar100_like(2, 5));
        assert_eq!(ds.len(), 200);
        assert_eq!(ds.num_classes(), 100);
        assert!(ds.class_histogram().iter().all(|&c| c == 2));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(ShapesConfig::cifar10_like(2, 9));
        let b = generate(ShapesConfig::cifar10_like(2, 9));
        assert_eq!(a.item(11).0, b.item(11).0);
    }

    #[test]
    fn disc_and_ring_differ_in_the_center() {
        // A ring has a hole; pixel membership at the center must differ.
        assert!(inside(ShapeKind::Disc, 16.0, 16.0, 16.0, 16.0, 6.0));
        assert!(!inside(ShapeKind::Ring, 16.0, 16.0, 16.0, 16.0, 6.0));
        assert!(inside(ShapeKind::Ring, 16.0, 21.5, 16.0, 16.0, 6.0));
    }

    #[test]
    fn bars_have_the_claimed_orientation() {
        // HBar extends further horizontally than vertically.
        assert!(inside(ShapeKind::HBar, 16.0, 21.0, 16.0, 16.0, 6.0));
        assert!(!inside(ShapeKind::HBar, 21.0, 16.0, 16.0, 16.0, 6.0));
        assert!(inside(ShapeKind::VBar, 21.0, 16.0, 16.0, 16.0, 6.0));
        assert!(!inside(ShapeKind::VBar, 16.0, 21.0, 16.0, 16.0, 6.0));
    }

    #[test]
    fn every_kind_renders_nonempty_foreground() {
        for kind in KINDS {
            let mut hits = 0;
            for y in 0..32 {
                for x in 0..32 {
                    if inside(kind, y as f32, x as f32, 16.0, 16.0, 7.0) {
                        hits += 1;
                    }
                }
            }
            assert!(hits > 10, "{kind:?} renders only {hits} pixels");
            assert!(hits < 32 * 32, "{kind:?} fills the whole image");
        }
    }

    #[test]
    fn color_family_is_recoverable_in_100_class_mode() {
        // class = kind*10 + color; two items of classes that share a kind
        // but differ in color family should differ mostly in channel
        // balance. Just verify labels decode.
        let ds = generate(ShapesConfig::cifar100_like(1, 3));
        for i in 0..100 {
            let (_, label) = ds.item(i);
            assert_eq!(label, i);
        }
    }
}
