//! Sequential network executor.

use crate::layer::{Layer, ParamRef};
use crate::spec::LayerSpec;
use mlcnn_tensor::{Result, Shape4, Tensor};

/// A sequential stack of layers (branches live inside composite layers).
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
    input_shape: Shape4,
    specs: Option<Vec<LayerSpec>>,
}

impl Network {
    /// Assemble from layers. `input_shape` records the expected
    /// single-item input geometry (batch dimension ignored).
    pub fn new(layers: Vec<Box<dyn Layer>>, input_shape: Shape4) -> Self {
        Self {
            layers,
            input_shape,
            specs: None,
        }
    }

    /// Attach the [`LayerSpec`] blueprint this network was built from, so
    /// inference compilers (the execution plan) can be
    /// derived without the caller re-threading the spec list.
    /// `build_network` does this automatically.
    pub fn with_specs(mut self, specs: Vec<LayerSpec>) -> Self {
        self.specs = Some(specs);
        self
    }

    /// The blueprint recorded by [`Network::with_specs`], if any.
    pub fn specs(&self) -> Option<&[LayerSpec]> {
        self.specs.as_deref()
    }

    /// The input geometry this network was built for.
    pub fn input_shape(&self) -> Shape4 {
        self.input_shape
    }

    /// Number of layers (top level only).
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Layer names in execution order.
    pub fn layer_names(&self) -> Vec<String> {
        self.layers.iter().map(|l| l.name()).collect()
    }

    /// Inference forward pass (no caches kept).
    pub fn forward(&mut self, input: &Tensor<f32>) -> Result<Tensor<f32>> {
        self.forward_mode(input, false)
    }

    /// Forward pass with explicit train/inference mode.
    pub fn forward_mode(&mut self, input: &Tensor<f32>, train: bool) -> Result<Tensor<f32>> {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, train)?;
        }
        Ok(x)
    }

    /// Backward pass; must follow a `forward_mode(_, true)`.
    pub fn backward(&mut self, grad_out: &Tensor<f32>) -> Result<Tensor<f32>> {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        Ok(g)
    }

    /// All parameters (recursing into composite layers).
    pub fn params(&mut self) -> Vec<ParamRef<'_>> {
        self.layers.iter_mut().flat_map(|l| l.params()).collect()
    }

    /// Total learnable scalar count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Zero all gradient accumulators.
    pub fn zero_grad(&mut self) {
        for l in &mut self.layers {
            l.zero_grad();
        }
    }

    /// Output shape for a given input shape.
    pub fn out_shape(&self, input: Shape4) -> Result<Shape4> {
        let mut s = input;
        for l in &self.layers {
            s = l.out_shape(s)?;
        }
        Ok(s)
    }

    /// Mutable access to a layer by index (used by quantized evaluation to
    /// rewrite conv weights in place).
    pub fn layer_mut(&mut self, idx: usize) -> Option<&mut Box<dyn Layer>> {
        self.layers.get_mut(idx)
    }

    /// Rewrite every weight tensor in the network through `f` (recursing
    /// into composite layers). Used by the quantized-MLCNN evaluation.
    pub fn transform_weights(&mut self, f: &dyn Fn(&Tensor<f32>) -> Tensor<f32>) {
        for l in &mut self.layers {
            l.transform_weights(f);
        }
    }

    /// Snapshot every parameter tensor (in `params()` order).
    pub fn export_params(&mut self) -> Vec<Tensor<f32>> {
        self.params().iter().map(|p| p.value.clone()).collect()
    }

    /// Restore a snapshot taken by [`Network::export_params`] into this
    /// network (which must have the identical architecture).
    ///
    /// # Panics
    /// Panics on parameter-count or shape mismatch — restoring into a
    /// different architecture is a programming error.
    pub fn import_params(&mut self, params: &[Tensor<f32>]) {
        let mut refs = self.params();
        assert_eq!(refs.len(), params.len(), "architecture mismatch");
        for (r, p) in refs.iter_mut().zip(params) {
            assert_eq!(r.value.shape(), p.shape(), "parameter shape mismatch");
            *r.value = p.clone();
        }
    }
}

impl Layer for Network {
    fn name(&self) -> String {
        format!("network[{}]", self.layers.len())
    }

    fn forward(&mut self, input: &Tensor<f32>, train: bool) -> Result<Tensor<f32>> {
        self.forward_mode(input, train)
    }

    fn backward(&mut self, grad_out: &Tensor<f32>) -> Result<Tensor<f32>> {
        Network::backward(self, grad_out)
    }

    fn out_shape(&self, input: Shape4) -> Result<Shape4> {
        Network::out_shape(self, input)
    }

    fn params(&mut self) -> Vec<ParamRef<'_>> {
        Network::params(self)
    }

    fn param_count(&self) -> usize {
        Network::param_count(self)
    }

    fn transform_weights(&mut self, f: &dyn Fn(&Tensor<f32>) -> Tensor<f32>) {
        Network::transform_weights(self, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{build_network, LayerSpec};
    use mlcnn_tensor::init;

    fn tiny() -> Network {
        build_network(
            &[
                LayerSpec::Conv {
                    out_ch: 2,
                    k: 3,
                    stride: 1,
                    pad: 1,
                },
                LayerSpec::ReLU,
                LayerSpec::AvgPool {
                    window: 2,
                    stride: 2,
                },
                LayerSpec::Flatten,
                LayerSpec::Linear { out: 3 },
            ],
            Shape4::new(1, 1, 4, 4),
            5,
        )
        .unwrap()
    }

    #[test]
    fn forward_produces_declared_shape() {
        let mut net = tiny();
        let x = init::uniform(Shape4::new(2, 1, 4, 4), -1.0, 1.0, &mut init::rng(1));
        let y = net.forward(&x).unwrap();
        assert_eq!(y.shape(), Shape4::new(2, 1, 1, 3));
        assert_eq!(net.out_shape(x.shape()).unwrap(), y.shape());
    }

    #[test]
    fn end_to_end_gradient_check() {
        let mut net = tiny();
        let mut rng = init::rng(2);
        let x = init::uniform(Shape4::new(1, 1, 4, 4), -1.0, 1.0, &mut rng);
        let y0 = net.forward_mode(&x, true).unwrap();
        let mask = init::uniform(y0.shape(), -1.0, 1.0, &mut rng);
        let dx = net.backward(&mask).unwrap();
        let eps = 1e-3_f32;
        for probe in 0..16 {
            let mut xp = x.clone();
            xp.as_mut_slice()[probe] += eps;
            let up: f32 = net
                .forward(&xp)
                .unwrap()
                .as_slice()
                .iter()
                .zip(mask.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            xp.as_mut_slice()[probe] -= 2.0 * eps;
            let dn: f32 = net
                .forward(&xp)
                .unwrap()
                .as_slice()
                .iter()
                .zip(mask.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            let numeric = (up - dn) / (2.0 * eps);
            assert!(
                (numeric - dx.as_slice()[probe]).abs() < 2e-2,
                "probe {probe}: numeric {numeric} vs analytic {}",
                dx.as_slice()[probe]
            );
        }
    }

    #[test]
    fn params_cover_conv_and_linear() {
        let mut net = tiny();
        // conv W, conv b, fc W, fc b
        assert_eq!(net.params().len(), 4);
        assert_eq!(net.param_count(), (2 * 9 + 2) + (3 * 8 + 3));
    }

    #[test]
    fn zero_grad_clears_everything() {
        let mut net = tiny();
        let x = init::uniform(Shape4::new(1, 1, 4, 4), -1.0, 1.0, &mut init::rng(3));
        let y = net.forward_mode(&x, true).unwrap();
        net.backward(&Tensor::full(y.shape(), 1.0f32)).unwrap();
        let dirty: f32 = net.params().iter().map(|p| p.grad.sum().abs()).sum();
        assert!(dirty > 0.0);
        net.zero_grad();
        let clean: f32 = net.params().iter().map(|p| p.grad.sum().abs()).sum();
        assert_eq!(clean, 0.0);
    }

    #[test]
    fn network_nests_as_a_layer() {
        let inner = tiny();
        let mut outer = Network::new(vec![Box::new(inner)], Shape4::new(1, 1, 4, 4));
        let x = init::uniform(Shape4::new(1, 1, 4, 4), -1.0, 1.0, &mut init::rng(4));
        let y = outer.forward(&x).unwrap();
        assert_eq!(y.shape(), Shape4::new(1, 1, 1, 3));
        assert_eq!(outer.param_count(), (2 * 9 + 2) + (3 * 8 + 3));
    }
}
