//! Network layers with explicit forward and backward passes.
//!
//! Every layer caches whatever its backward pass needs during `forward`, so a
//! `forward` → `backward` pair must be issued in order (the [`Network`]
//! container enforces this usage).
//!
//! [`Network`]: crate::Network

use cscnn_ir::{ActivationKind, DescribeError, LayerNode, PoolKind};
use cscnn_rng::Rng;
use cscnn_sparse::centro;
use cscnn_tensor::{
    kaiming_uniform, matmul, matmul_at, matmul_bt, max_pool2d, max_pool2d_backward, ConvLowering,
    ConvSpec, PoolSpec, Tensor,
};

/// A trainable parameter: value, gradient accumulator, and an optional
/// pruning mask (1 = keep, 0 = pruned).
#[derive(Debug, Clone)]
pub struct Param {
    /// Current value.
    pub value: Tensor,
    /// Gradient of the last backward pass.
    pub grad: Tensor,
    /// Pruning mask; when present, masked positions of both value and grad
    /// are forced to zero after every update.
    pub mask: Option<Tensor>,
}

impl Param {
    /// Wraps a freshly initialized value with a zero gradient and no mask.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape().dims());
        Param {
            value,
            grad,
            mask: None,
        }
    }

    /// Applies the pruning mask (if any) to both value and gradient.
    pub fn enforce_mask(&mut self) {
        if let Some(mask) = &self.mask {
            for (v, &m) in self.value.as_mut_slice().iter_mut().zip(mask.as_slice()) {
                *v *= m;
            }
            for (g, &m) in self.grad.as_mut_slice().iter_mut().zip(mask.as_slice()) {
                *g *= m;
            }
        }
    }

    /// Fraction of unmasked (kept) weights; 1.0 without a mask.
    pub fn kept_fraction(&self) -> f64 {
        match &self.mask {
            None => 1.0,
            Some(m) => m.sum() as f64 / m.len() as f64,
        }
    }
}

/// A differentiable network layer.
///
/// Layers are stateful: `forward` caches activations that `backward`
/// consumes. `backward` must be called with the gradient of the loss w.r.t.
/// this layer's most recent output, and returns the gradient w.r.t. its
/// input.
pub trait Layer {
    /// Computes the layer output for `input` (batched: leading dim is `N`).
    fn forward(&mut self, input: &Tensor) -> Tensor;

    /// Propagates `grad_out` (gradient w.r.t. the last `forward` output)
    /// backwards, accumulating parameter gradients and returning the
    /// gradient w.r.t. the last input.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Mutable access to trainable parameters (empty for stateless layers).
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Shared access to trainable parameters.
    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    /// Human-readable layer kind.
    fn name(&self) -> &'static str;

    /// Describes this layer as a typed IR node given the shape of the
    /// tensor it will receive (`input` is the full batched shape, e.g.
    /// `[N, C, H, W]`). This is the `Network → Ir` lowering hook: every
    /// layer reports its exact geometry instead of being downcast by
    /// consumers.
    ///
    /// # Errors
    ///
    /// [`DescribeError`] when `input` is inconsistent with the layer.
    fn describe(&self, input: &[usize]) -> Result<LayerNode, DescribeError>;

    /// Density of this layer's *stored* weights (fraction with magnitude
    /// above `eps`), measured over the unique half for layers trained
    /// under the centrosymmetric constraint. `None` for weightless layers
    /// and layers the workload synthesis does not time (pool, norm, …).
    fn weight_density(&self, _eps: f32) -> Option<f64> {
        None
    }

    /// Typed accessor: `Some` when this layer is a [`Conv2d`]. Replaces
    /// the old `Any`-based downcasting — consumers outside `cscnn-nn` must
    /// go through these accessors or [`Layer::describe`].
    fn as_conv_mut(&mut self) -> Option<&mut Conv2d> {
        None
    }

    /// Typed accessor: `Some` when this layer is a [`Linear`].
    fn as_linear_mut(&mut self) -> Option<&mut Linear> {
        None
    }
}

/// 2-D convolution layer (`[N,C,H,W] → [N,K,H',W']`).
///
/// Supports the centrosymmetric constraint: when enabled, the backward pass
/// ties dual-weight gradients per Eq. 7 so that SGD preserves the Eq. 2
/// structure established by [`centrosymmetric::centrosymmetrize_conv`].
///
/// [`centrosymmetric::centrosymmetrize_conv`]: crate::centrosymmetric::centrosymmetrize_conv
pub struct Conv2d {
    spec: ConvSpec,
    groups: usize,
    weight: Param,
    bias: Param,
    centrosymmetric: bool,
    /// im2col lowering of the last forward input. The backward pass runs
    /// on it, and every forward re-lowers into its buffer, so repeated
    /// steps at a fixed geometry stop allocating.
    lowering: Option<ConvLowering>,
    /// Whether `lowering` holds a forward input no backward has used yet.
    lowered: bool,
}

impl Conv2d {
    /// Creates a dense (ungrouped) conv layer with Kaiming-uniform weights.
    ///
    /// # Panics
    ///
    /// Panics if any extent is zero.
    pub fn new<R: Rng>(
        rng: &mut R,
        in_channels: usize,
        out_channels: usize,
        spec: ConvSpec,
    ) -> Self {
        Self::grouped(rng, in_channels, out_channels, spec, 1)
    }

    /// Creates a grouped conv layer: filters are `[K, C/groups, R, S]` and
    /// each group of `K/groups` filters sees only its own `C/groups` input
    /// channels. `groups == in_channels == out_channels` is depthwise.
    ///
    /// # Panics
    ///
    /// Panics if any extent is zero or `groups` does not divide the
    /// channel counts.
    pub fn grouped<R: Rng>(
        rng: &mut R,
        in_channels: usize,
        out_channels: usize,
        spec: ConvSpec,
        groups: usize,
    ) -> Self {
        assert!(groups > 0, "groups must be positive");
        assert!(
            in_channels.is_multiple_of(groups) && out_channels.is_multiple_of(groups),
            "groups={groups} must divide C={in_channels} and K={out_channels}"
        );
        let c_local = in_channels / groups;
        let fan_in = c_local * spec.kernel_h * spec.kernel_w;
        let weight = kaiming_uniform(
            rng,
            &[out_channels, c_local, spec.kernel_h, spec.kernel_w],
            fan_in,
        );
        Conv2d {
            spec,
            groups,
            weight: Param::new(weight),
            bias: Param::new(Tensor::zeros(&[out_channels])),
            centrosymmetric: false,
            lowering: None,
            lowered: false,
        }
    }

    /// Creates a depthwise conv layer (`groups == channels`, one filter
    /// slice per channel).
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0`.
    pub fn depthwise<R: Rng>(rng: &mut R, channels: usize, spec: ConvSpec) -> Self {
        Self::grouped(rng, channels, channels, spec, channels)
    }

    /// The convolution geometry.
    pub fn spec(&self) -> &ConvSpec {
        &self.spec
    }

    /// The number of convolution groups (1 = dense).
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Whether the centrosymmetric gradient tying is active.
    pub fn is_centrosymmetric(&self) -> bool {
        self.centrosymmetric
    }

    /// Enables/disables centrosymmetric gradient tying. Enabling does *not*
    /// project the weights; call
    /// [`crate::centrosymmetric::centrosymmetrize_conv`] for that.
    pub fn set_centrosymmetric(&mut self, on: bool) {
        self.centrosymmetric = on;
    }

    /// The filter parameter (`[K, C, R, S]`).
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// Mutable access to the filter parameter.
    pub fn weight_mut(&mut self) -> &mut Param {
        &mut self.weight
    }

    /// Ties the weight gradient per Eq. 7 across every `R×S` slice.
    fn tie_weight_gradients(&mut self) {
        let dims = self.weight.grad.shape().dims().to_vec();
        let (k, c, r, s) = (dims[0], dims[1], dims[2], dims[3]);
        let g = self.weight.grad.as_mut_slice();
        for slice_idx in 0..k * c {
            let base = slice_idx * r * s;
            centro::tie_gradients(&mut g[base..base + r * s], r, s);
        }
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let lowering = match self.lowering.take() {
            Some(mut lowering) => {
                lowering.lower_into(input, &self.spec, self.groups);
                lowering
            }
            None => ConvLowering::lower(input, &self.spec, self.groups),
        };
        let out = lowering.forward(&self.weight.value, &self.bias.value);
        self.lowering = Some(lowering);
        self.lowered = true;
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        // One im2col per training step: the forward's lowering serves the
        // backward too, and only once.
        let lowered = std::mem::take(&mut self.lowered);
        let grads = self
            .lowering
            .as_ref()
            .filter(|_| lowered)
            .expect("backward called before forward")
            .backward(&self.weight.value, grad_out);
        self.weight.grad = grads.weight;
        self.bias.grad = grads.bias;
        if self.centrosymmetric {
            self.tie_weight_gradients();
        }
        self.weight.enforce_mask();
        grads.input
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }

    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn describe(&self, input: &[usize]) -> Result<LayerNode, DescribeError> {
        if input.len() != 4 {
            return Err(DescribeError::new(
                "conv2d",
                format!("expected rank-4 [N,C,H,W] input, got rank {}", input.len()),
            ));
        }
        let wd = self.weight.value.shape().dims();
        let (k, c_local, r, s) = (wd[0], wd[1], wd[2], wd[3]);
        let c = c_local * self.groups;
        if input[1] != c {
            return Err(DescribeError::new(
                "conv2d",
                format!("input has {} channels, layer expects {c}", input[1]),
            ));
        }
        Ok(LayerNode::grouped(
            self.name(),
            c,
            k,
            r,
            s,
            input[2],
            input[3],
            self.spec.stride,
            self.spec.padding,
            self.groups,
        )
        .with_centrosymmetric(self.centrosymmetric))
    }

    fn weight_density(&self, eps: f32) -> Option<f64> {
        let wd = self.weight.value.shape().dims();
        let (k, c_local, r, s) = (wd[0], wd[1], wd[2], wd[3]);
        let w = self.weight.value.as_slice();
        if self.centrosymmetric {
            // Hardware stores only the unique half (paper §III-A), so the
            // density the simulator needs is over unique positions.
            let unique = centro::unique_positions(r, s);
            let mut nnz = 0usize;
            for slice_idx in 0..k * c_local {
                let base = slice_idx * r * s;
                nnz += unique
                    .iter()
                    .filter(|&&(u, v)| w[base + u * s + v].abs() > eps)
                    .count();
            }
            Some(nnz as f64 / (k * c_local * unique.len()) as f64)
        } else {
            let nnz = w.iter().filter(|x| x.abs() > eps).count();
            Some(nnz as f64 / w.len() as f64)
        }
    }

    fn as_conv_mut(&mut self) -> Option<&mut Conv2d> {
        Some(self)
    }
}

/// Fully-connected layer (`[N, in] → [N, out]`).
pub struct Linear {
    weight: Param,
    bias: Param,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a linear layer with Kaiming-uniform weights (`[out, in]`).
    pub fn new<R: Rng>(rng: &mut R, in_features: usize, out_features: usize) -> Self {
        let weight = kaiming_uniform(rng, &[out_features, in_features], in_features);
        Linear {
            weight: Param::new(weight),
            bias: Param::new(Tensor::zeros(&[out_features])),
            cached_input: None,
        }
    }

    /// The weight parameter (`[out, in]`).
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// Mutable access to the weight parameter.
    pub fn weight_mut(&mut self) -> &mut Param {
        &mut self.weight
    }
}

impl Layer for Linear {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        assert_eq!(input.shape().rank(), 2, "Linear expects [N, features]");
        self.cached_input = Some(input.clone());
        let mut out = matmul_bt(input, &self.weight.value); // [N, out]
        let (n, o) = (out.shape().dim(0), out.shape().dim(1));
        let bias = self.bias.value.as_slice().to_vec();
        let buf = out.as_mut_slice();
        for i in 0..n {
            for j in 0..o {
                buf[i * o + j] += bias[j];
            }
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .take()
            .expect("backward called before forward");
        // dW = dOutᵀ · input  ([out, N]·[N, in]).
        self.weight.grad = matmul_at(grad_out, &input);
        // dBias = column sums of dOut.
        let (n, o) = (grad_out.shape().dim(0), grad_out.shape().dim(1));
        let mut db = Tensor::zeros(&[o]);
        for i in 0..n {
            for j in 0..o {
                db.as_mut_slice()[j] += grad_out.as_slice()[i * o + j];
            }
        }
        self.bias.grad = db;
        self.weight.enforce_mask();
        // dInput = dOut · W  ([N, out]·[out, in]).
        matmul(grad_out, &self.weight.value)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }

    fn name(&self) -> &'static str {
        "linear"
    }

    fn describe(&self, input: &[usize]) -> Result<LayerNode, DescribeError> {
        if input.len() != 2 {
            return Err(DescribeError::new(
                "linear",
                format!(
                    "expected rank-2 [N, features] input, got rank {}",
                    input.len()
                ),
            ));
        }
        let wd = self.weight.value.shape().dims();
        let (out_features, in_features) = (wd[0], wd[1]);
        if input[1] != in_features {
            return Err(DescribeError::new(
                "linear",
                format!(
                    "input has {} features, layer expects {in_features}",
                    input[1]
                ),
            ));
        }
        Ok(LayerNode::fc(self.name(), in_features, out_features))
    }

    fn weight_density(&self, eps: f32) -> Option<f64> {
        let w = self.weight.value.as_slice();
        let nnz = w.iter().filter(|x| x.abs() > eps).count();
        Some(nnz as f64 / w.len() as f64)
    }

    fn as_linear_mut(&mut self) -> Option<&mut Linear> {
        Some(self)
    }
}

/// Rectified linear unit.
#[derive(Default)]
pub struct Relu {
    cached_mask: Option<Vec<bool>>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu { cached_mask: None }
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        self.cached_mask = Some(input.as_slice().iter().map(|&x| x > 0.0).collect());
        input.map(|x| x.max(0.0))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self
            .cached_mask
            .take()
            .expect("backward called before forward");
        assert_eq!(
            mask.len(),
            grad_out.len(),
            "grad shape changed since forward"
        );
        Tensor::from_vec(
            grad_out
                .as_slice()
                .iter()
                .zip(&mask)
                .map(|(&g, &m)| if m { g } else { 0.0 })
                .collect(),
            grad_out.shape().dims(),
        )
    }

    fn name(&self) -> &'static str {
        "relu"
    }

    fn describe(&self, _input: &[usize]) -> Result<LayerNode, DescribeError> {
        Ok(LayerNode::Activation {
            kind: ActivationKind::Relu,
        })
    }
}

/// Max pooling layer.
pub struct MaxPool {
    spec: PoolSpec,
    cached: Option<(Vec<usize>, Vec<usize>)>, // (argmax, input dims)
}

impl MaxPool {
    /// Creates a max-pooling layer.
    pub fn new(spec: PoolSpec) -> Self {
        MaxPool { spec, cached: None }
    }
}

impl Layer for MaxPool {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let (out, argmax) = max_pool2d(input, &self.spec);
        self.cached = Some((argmax, input.shape().dims().to_vec()));
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (argmax, dims) = self.cached.take().expect("backward called before forward");
        max_pool2d_backward(grad_out, &argmax, &dims)
    }

    fn name(&self) -> &'static str {
        "maxpool"
    }

    fn describe(&self, input: &[usize]) -> Result<LayerNode, DescribeError> {
        if input.len() != 4 {
            return Err(DescribeError::new(
                "maxpool",
                format!("expected rank-4 [N,C,H,W] input, got rank {}", input.len()),
            ));
        }
        Ok(LayerNode::Pool {
            kind: PoolKind::Max,
            window: self.spec.window,
            stride: self.spec.stride,
        })
    }
}

/// Inverted dropout: during training each element is zeroed with
/// probability `p` and the survivors are scaled by `1/(1-p)`, so
/// evaluation needs no rescaling. AlexNet/VGG train with `p = 0.5` on
/// their FC layers.
pub struct Dropout {
    p: f64,
    training: bool,
    rng: cscnn_rng::rngs::StdRng,
    cached_mask: Option<Vec<f32>>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1)`.
    pub fn new(p: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "drop probability must be in [0,1)");
        Dropout {
            p,
            training: true,
            rng: <cscnn_rng::rngs::StdRng as cscnn_rng::SeedableRng>::seed_from_u64(seed),
            cached_mask: None,
        }
    }

    /// Switches between training (random drops) and evaluation (identity).
    pub fn set_training(&mut self, training: bool) {
        self.training = training;
    }
}

impl Layer for Dropout {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        if !self.training || self.p == 0.0 {
            self.cached_mask = None;
            return input.clone();
        }
        let scale = 1.0 / (1.0 - self.p) as f32;
        let mask: Vec<f32> = (0..input.len())
            .map(|_| {
                if cscnn_rng::Rng::gen_bool(&mut self.rng, self.p) {
                    0.0
                } else {
                    scale
                }
            })
            .collect();
        let out = Tensor::from_vec(
            input
                .as_slice()
                .iter()
                .zip(&mask)
                .map(|(&x, &m)| x * m)
                .collect(),
            input.shape().dims(),
        );
        self.cached_mask = Some(mask);
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        match self.cached_mask.take() {
            None => grad_out.clone(),
            Some(mask) => Tensor::from_vec(
                grad_out
                    .as_slice()
                    .iter()
                    .zip(&mask)
                    .map(|(&g, &m)| g * m)
                    .collect(),
                grad_out.shape().dims(),
            ),
        }
    }

    fn name(&self) -> &'static str {
        "dropout"
    }

    fn describe(&self, _input: &[usize]) -> Result<LayerNode, DescribeError> {
        Ok(LayerNode::Dropout { p: self.p })
    }
}

/// Flattens `[N, ...]` to `[N, features]`.
#[derive(Default)]
pub struct Flatten {
    cached_dims: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten { cached_dims: None }
    }
}

impl Layer for Flatten {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let dims = input.shape().dims().to_vec();
        let n = dims[0];
        let features = input.len() / n;
        self.cached_dims = Some(dims);
        input.reshape(&[n, features])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let dims = self
            .cached_dims
            .take()
            .expect("backward called before forward");
        grad_out.reshape(&dims)
    }

    fn name(&self) -> &'static str {
        "flatten"
    }

    fn describe(&self, input: &[usize]) -> Result<LayerNode, DescribeError> {
        if input.is_empty() {
            return Err(DescribeError::new(
                "flatten",
                "expected a batched input, got rank 0",
            ));
        }
        Ok(LayerNode::Flatten)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cscnn_rng::rngs::StdRng;
    use cscnn_rng::SeedableRng;

    #[test]
    fn relu_masks_negative_gradients() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 2.0, -3.0, 4.0], &[4]);
        let y = relu.forward(&x);
        assert_eq!(y.as_slice(), &[0.0, 2.0, 0.0, 4.0]);
        let g = relu.backward(&Tensor::full(&[4], 1.0));
        assert_eq!(g.as_slice(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn linear_forward_backward_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut lin = Linear::new(&mut rng, 6, 4);
        let x = Tensor::from_fn(&[3, 6], |i| (i as f32).sin());
        let y = lin.forward(&x);
        assert_eq!(y.shape().dims(), &[3, 4]);
        let gi = lin.backward(&Tensor::full(&[3, 4], 1.0));
        assert_eq!(gi.shape().dims(), &[3, 6]);
        assert_eq!(lin.weight().grad.shape().dims(), &[4, 6]);
        // Bias gradient of an all-ones output gradient is N per unit.
        for &b in lin.params()[1].grad.as_slice() {
            assert!((b - 3.0).abs() < 1e-6);
        }
    }

    #[test]
    fn linear_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut lin = Linear::new(&mut rng, 5, 3);
        let x = Tensor::from_fn(&[2, 5], |i| (i as f32 * 0.3).cos());
        // Loss = sum(out).
        let _ = lin.forward(&x);
        let go = Tensor::full(&[2, 3], 1.0);
        let _ = lin.backward(&go);
        let analytic = lin.weight().grad.clone();
        let eps = 1e-2;
        for idx in [0usize, 7, 14] {
            let orig = lin.weight().value.as_slice()[idx];
            lin.weight_mut().value.as_mut_slice()[idx] = orig + eps;
            let lp = lin.forward(&x).sum();
            lin.weight_mut().value.as_mut_slice()[idx] = orig - eps;
            let lm = lin.forward(&x).sum();
            lin.weight_mut().value.as_mut_slice()[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - analytic.as_slice()[idx]).abs() < 1e-2);
        }
    }

    #[test]
    fn conv_layer_ties_gradients_when_centrosymmetric() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut conv = Conv2d::new(&mut rng, 2, 3, ConvSpec::new(3, 3).with_padding(1));
        conv.set_centrosymmetric(true);
        let x = Tensor::from_fn(&[1, 2, 5, 5], |i| (i as f32 * 0.11).sin());
        let y = conv.forward(&x);
        let _ = conv.backward(&Tensor::from_fn(y.shape().dims(), |i| (i as f32).cos()));
        let g = conv.weight().grad.as_slice();
        for slice in 0..6 {
            let s = &g[slice * 9..slice * 9 + 9];
            assert!(cscnn_sparse::centro::is_centrosymmetric(s, 3, 3, 1e-6));
        }
    }

    #[test]
    fn param_mask_zeroes_value_and_grad() {
        let mut p = Param::new(Tensor::full(&[4], 2.0));
        p.grad = Tensor::full(&[4], 1.0);
        p.mask = Some(Tensor::from_vec(vec![1.0, 0.0, 1.0, 0.0], &[4]));
        p.enforce_mask();
        assert_eq!(p.value.as_slice(), &[2.0, 0.0, 2.0, 0.0]);
        assert_eq!(p.grad.as_slice(), &[1.0, 0.0, 1.0, 0.0]);
        assert!((p.kept_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn dropout_is_identity_in_eval_and_unbiased_in_training() {
        let mut d = Dropout::new(0.5, 7);
        d.set_training(false);
        let x = Tensor::from_fn(&[1000], |i| 1.0 + (i % 3) as f32);
        assert_eq!(d.forward(&x).as_slice(), x.as_slice());
        d.set_training(true);
        let y = d.forward(&x);
        // Inverted scaling keeps the expectation: mean within ~10 %.
        assert!((y.mean() - x.mean()).abs() / x.mean() < 0.1);
        // Roughly half the elements are dropped.
        let dropped = y.as_slice().iter().filter(|v| **v == 0.0).count();
        assert!((400..600).contains(&dropped), "dropped {dropped}");
        // Backward routes gradients through the same mask.
        let g = d.backward(&Tensor::full(&[1000], 1.0));
        for (yv, gv) in y.as_slice().iter().zip(g.as_slice()) {
            assert_eq!(*yv == 0.0, *gv == 0.0, "mask must match");
        }
    }

    #[test]
    fn flatten_round_trips() {
        let mut f = Flatten::new();
        let x = Tensor::from_fn(&[2, 3, 4, 4], |i| i as f32);
        let y = f.forward(&x);
        assert_eq!(y.shape().dims(), &[2, 48]);
        let g = f.backward(&y);
        assert_eq!(g.shape().dims(), &[2, 3, 4, 4]);
        assert_eq!(g.as_slice(), x.as_slice());
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    fn grouped_conv() -> Conv2d {
        let mut rng = StdRng::seed_from_u64(3);
        Conv2d::grouped(&mut rng, 4, 6, ConvSpec::new(3, 3).with_padding(1), 2)
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn conv_backward_before_forward_panics() {
        let mut conv = grouped_conv();
        let _ = conv.backward(&Tensor::zeros(&[1, 6, 5, 5]));
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn conv_second_backward_after_one_forward_panics() {
        let mut conv = grouped_conv();
        let y = conv.forward(&Tensor::from_fn(&[1, 4, 5, 5], |i| (i as f32).sin()));
        let go = Tensor::full(y.shape().dims(), 1.0);
        let _ = conv.backward(&go);
        let _ = conv.backward(&go);
    }

    #[test]
    fn conv_backward_uses_the_latest_forward_input() {
        let mut conv = grouped_conv();
        let a = Tensor::from_fn(&[2, 4, 5, 5], |i| (i as f32 * 0.13).sin());
        let b = Tensor::from_fn(&[2, 4, 5, 5], |i| (i as f32 * 0.29).cos());
        let _ = conv.forward(&a);
        let y = conv.forward(&b);
        let go = Tensor::from_fn(y.shape().dims(), |i| (i as f32 * 0.07).sin());
        let grad_in = conv.backward(&go);
        let want = cscnn_tensor::conv2d_grouped_backward(
            &b,
            &conv.weight().value,
            &go,
            conv.spec(),
            conv.groups(),
        );
        assert_eq!(bits(&grad_in), bits(&want.input));
        assert_eq!(bits(&conv.weight().grad), bits(&want.weight));
        assert_eq!(bits(&conv.params()[1].grad), bits(&want.bias));
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_without_forward_panics() {
        let mut relu = Relu::new();
        let _ = relu.backward(&Tensor::zeros(&[1]));
    }
}
