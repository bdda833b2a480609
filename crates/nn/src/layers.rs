//! Neural-network layers with explicit forward/backward passes.
//!
//! Every layer caches its forward inputs when called with `train = true` and
//! consumes the cache in `backward`, accumulating parameter gradients locally.
//! The optimizer then visits all parameters through [`Params::visit_params`].
//!
//! The set of layers is exactly what the DAC'19 network (paper Table 2) needs:
//! dense ([`Linear`]), 3×3 convolution ([`Conv2d`], stride 1 or 3), leaky ReLU
//! ([`LeakyRelu`]), residual MLP blocks ([`ResBlock`]), and global average
//! pooling ([`GlobalAvgPool`]) to bridge the conv tower into dense layers.

use crate::init::Initializer;
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Mutable view of one parameter tensor and its gradient.
pub struct ParamRef<'a> {
    /// Parameter values.
    pub value: &'a mut Tensor,
    /// Accumulated gradient.
    pub grad: &'a mut Tensor,
}

/// Anything holding trainable parameters (layers and composite models).
pub trait Params {
    /// Visits every `(value, gradient)` parameter pair in a stable order.
    fn visit_params(&mut self, f: &mut dyn FnMut(ParamRef<'_>));

    /// Clears accumulated gradients.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.grad.fill_zero());
    }

    /// Number of scalar parameters.
    fn num_params(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.value.numel());
        n
    }
}

/// A differentiable single-input layer.
pub trait Layer: Params {
    /// Forward pass; caches activations when `train` is true.
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor;

    /// Backward pass for the most recent `forward(.., true)` call. Returns the
    /// gradient with respect to the input and accumulates parameter gradients.
    /// The forward cache is consumed, so no activations outlive the step.
    ///
    /// # Panics
    ///
    /// Panics if no training forward pass preceded it (a second `backward`
    /// needs a new forward).
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;
}

/// Snapshots all gradients of a model in visit order (for data-parallel
/// gradient exchange between worker clones).
pub fn export_grads(model: &mut dyn Params) -> Vec<Tensor> {
    let mut out = Vec::new();
    model.visit_params(&mut |p| out.push(p.grad.clone()));
    out
}

/// Adds `grads` (in visit order) into the model's gradients.
///
/// # Panics
///
/// Panics if the gradient count or shapes do not match.
pub fn add_grads(model: &mut dyn Params, grads: &[Tensor]) {
    let mut i = 0;
    model.visit_params(&mut |p| {
        p.grad.add_assign(&grads[i]);
        i += 1;
    });
    assert_eq!(i, grads.len(), "gradient count mismatch");
}

/// Multiplies all gradients by `s` (e.g. `1 / batch` after accumulation).
pub fn scale_grads(model: &mut dyn Params, s: f32) {
    model.visit_params(&mut |p| p.grad.scale(s));
}

/// Fully connected layer `y = x W + b` with `x: [rows, in]`, `W: [in, out]`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Linear {
    w: Tensor,
    b: Tensor,
    #[serde(skip)]
    gw: Tensor,
    #[serde(skip)]
    gb: Tensor,
    #[serde(skip)]
    cache_x: Option<Tensor>,
}

impl Linear {
    /// Creates a dense layer with He-uniform weights.
    pub fn new(in_dim: usize, out_dim: usize, init: &mut Initializer) -> Linear {
        Linear {
            w: init.he_uniform(&[in_dim, out_dim], in_dim),
            b: Tensor::zeros(&[out_dim]),
            gw: Tensor::zeros(&[in_dim, out_dim]),
            gb: Tensor::zeros(&[out_dim]),
            cache_x: None,
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.w.shape()[0]
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.w.shape()[1]
    }

    fn ensure_grads(&mut self) {
        if self.gw.numel() != self.w.numel() {
            self.gw = Tensor::zeros(self.w.shape());
        }
        if self.gb.numel() != self.b.numel() {
            self.gb = Tensor::zeros(self.b.shape());
        }
    }

    /// [`Layer::backward`] for a stacked batch: the rows of the last forward
    /// input split into consecutive per-query `segments` (row counts).
    ///
    /// `gw` receives one `xₛᵀ gₛ` partial per segment, each reduced from
    /// `+0.0` and added in segment order, and `gb` sums rows in order, so the
    /// parameter gradients are bit-identical to one forward/backward per
    /// query. The input gradient is row-wise and needs no segments.
    ///
    /// # Panics
    ///
    /// Panics without a preceding training forward, or if the segments do
    /// not sum to the row count.
    pub fn backward_segments(&mut self, grad_out: &Tensor, segments: &[usize]) -> Tensor {
        self.ensure_grads();
        let x = self.cache_x.take().expect("backward without forward");
        // gw += Σₛ xₛᵀ gₛ; gb += Σ rows g; gx = g Wᵀ
        self.gw.add_t_matmul(&x, grad_out, segments);
        let (rows, out) = grad_out.dims2();
        let gd = grad_out.data();
        let gb = self.gb.data_mut();
        for r in 0..rows {
            for c in 0..out {
                gb[c] += gd[r * out + c];
            }
        }
        grad_out.matmul_t(&self.w)
    }
}

impl Params for Linear {
    fn visit_params(&mut self, f: &mut dyn FnMut(ParamRef<'_>)) {
        self.ensure_grads();
        f(ParamRef {
            value: &mut self.w,
            grad: &mut self.gw,
        });
        f(ParamRef {
            value: &mut self.b,
            grad: &mut self.gb,
        });
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let mut y = x.matmul(&self.w);
        let (rows, out) = y.dims2();
        let b = self.b.data();
        let yd = y.data_mut();
        for r in 0..rows {
            for c in 0..out {
                yd[r * out + c] += b[c];
            }
        }
        if train {
            self.cache_x = Some(x.clone());
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_segments(grad_out, &[grad_out.dims2().0])
    }
}

/// Leaky rectified linear unit `y = max(αx, x)` (the paper uses α = 0.01).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LeakyRelu {
    /// Negative-side slope.
    pub alpha: f32,
    #[serde(skip)]
    cache_x: Option<Tensor>,
}

impl LeakyRelu {
    /// Creates an LReLU with the paper's slope of 0.01.
    pub fn new() -> LeakyRelu {
        LeakyRelu {
            alpha: 0.01,
            cache_x: None,
        }
    }
}

impl Default for LeakyRelu {
    fn default() -> Self {
        LeakyRelu::new()
    }
}

impl Params for LeakyRelu {
    fn visit_params(&mut self, _f: &mut dyn FnMut(ParamRef<'_>)) {}
}

impl Layer for LeakyRelu {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let alpha = self.alpha;
        if train {
            self.cache_x = Some(x.clone());
        }
        x.map(|v| if v > 0.0 { v } else { alpha * v })
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let alpha = self.alpha;
        let x = self.cache_x.take().expect("backward without forward");
        x.zip_map(grad_out, |xv, g| if xv > 0.0 { g } else { alpha * g })
    }
}

/// 3×3 convolution with `same` padding and configurable stride, NCHW layout,
/// implemented as im2col + matmul.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Conv2d {
    /// Kernel `[C*k*k, OC]` as a matmul-ready matrix.
    w: Tensor,
    b: Tensor,
    in_ch: usize,
    out_ch: usize,
    k: usize,
    stride: usize,
    #[serde(skip)]
    gw: Tensor,
    #[serde(skip)]
    gb: Tensor,
    /// The training forward's input. Backward rebuilds its im2col matrix
    /// rather than keeping it: the matrix is up to `k²` times larger, and
    /// freeing that much after every backward makes the allocator hand
    /// pages back to the OS only to fault them in on the next forward.
    #[serde(skip)]
    cache_x: Option<Tensor>,
}

impl Conv2d {
    /// Creates a `k×k` convolution (`in_ch → out_ch`) with the given stride.
    pub fn new(
        in_ch: usize,
        out_ch: usize,
        k: usize,
        stride: usize,
        init: &mut Initializer,
    ) -> Conv2d {
        let fan_in = in_ch * k * k;
        Conv2d {
            w: init.he_uniform(&[fan_in, out_ch], fan_in),
            b: Tensor::zeros(&[out_ch]),
            in_ch,
            out_ch,
            k,
            stride,
            gw: Tensor::zeros(&[fan_in, out_ch]),
            gb: Tensor::zeros(&[out_ch]),
            cache_x: None,
        }
    }

    /// Output spatial size for an input of side `n` ("same" padding).
    pub fn out_size(&self, n: usize) -> usize {
        n.div_ceil(self.stride)
    }

    /// Padding used on each side for "same" behaviour.
    fn pad(&self) -> usize {
        self.k / 2
    }

    fn ensure_grads(&mut self) {
        if self.gw.numel() != self.w.numel() {
            self.gw = Tensor::zeros(self.w.shape());
        }
        if self.gb.numel() != self.b.numel() {
            self.gb = Tensor::zeros(self.b.shape());
        }
    }

    /// im2col: `(n, c, h, w)` → `(n*oh*ow, c*k*k)`.
    fn im2col(&self, x: &Tensor) -> Tensor {
        let (n, c, h, w) = x.dims4();
        assert_eq!(c, self.in_ch, "channel mismatch");
        let (oh, ow) = (self.out_size(h), self.out_size(w));
        let k = self.k;
        let pad = self.pad() as isize;
        let stride = self.stride as isize;
        let cols = c * k * k;
        let mut out = vec![0.0f32; n * oh * ow * cols];
        let xd = x.data();
        for b in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    let row = ((b * oh + oy) * ow + ox) * cols;
                    for ch in 0..c {
                        let base = (b * c + ch) * h * w;
                        for ky in 0..k {
                            let iy = oy as isize * stride + ky as isize - pad;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = ox as isize * stride + kx as isize - pad;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                out[row + (ch * k + ky) * k + kx] =
                                    xd[base + iy as usize * w + ix as usize];
                            }
                        }
                    }
                }
            }
        }
        Tensor::from_vec(&[n * oh * ow, cols], out)
    }

    /// col2im: scatter-add of `(n*oh*ow, c*k*k)` back to `(n, c, h, w)`.
    fn col2im(&self, col: &Tensor, in_shape: (usize, usize, usize, usize)) -> Tensor {
        let (n, c, h, w) = in_shape;
        let (oh, ow) = (self.out_size(h), self.out_size(w));
        let k = self.k;
        let pad = self.pad() as isize;
        let stride = self.stride as isize;
        let cols = c * k * k;
        let mut out = Tensor::zeros(&[n, c, h, w]);
        let od = out.data_mut();
        let cd = col.data();
        for b in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    let row = ((b * oh + oy) * ow + ox) * cols;
                    for ch in 0..c {
                        let base = (b * c + ch) * h * w;
                        for ky in 0..k {
                            let iy = oy as isize * stride + ky as isize - pad;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = ox as isize * stride + kx as isize - pad;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                od[base + iy as usize * w + ix as usize] +=
                                    cd[row + (ch * k + ky) * k + kx];
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// [`Layer::backward`] for a stacked batch of images split into
    /// consecutive per-query `segments` (image counts): `gw` receives one
    /// partial per segment, as [`Linear::backward_segments`] does.
    ///
    /// # Panics
    ///
    /// Panics without a preceding training forward, or if the segments do
    /// not sum to the image count.
    pub fn backward_segments(&mut self, grad_out: &Tensor, segments: &[usize]) -> Tensor {
        self.ensure_grads();
        let x = self.cache_x.take().expect("backward without forward");
        let (n, oc, oh, ow) = grad_out.dims4();
        assert_eq!(oc, self.out_ch);
        // (n, oc, oh, ow) → (n*oh*ow, oc)
        let mut g = vec![0.0f32; n * oh * ow * oc];
        let gd = grad_out.data();
        for b in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    let row = ((b * oh + oy) * ow + ox) * oc;
                    for c in 0..oc {
                        g[row + c] = gd[((b * oc + c) * oh + oy) * ow + ox];
                    }
                }
            }
        }
        let g = Tensor::from_vec(&[n * oh * ow, oc], g);
        let row_segments: Vec<usize> = segments.iter().map(|s| s * oh * ow).collect();
        self.gw.add_t_matmul(&self.im2col(&x), &g, &row_segments);
        {
            let gb = self.gb.data_mut();
            let gdd = g.data();
            for r in 0..n * oh * ow {
                for c in 0..oc {
                    gb[c] += gdd[r * oc + c];
                }
            }
        }
        let gcol = g.matmul_t(&self.w);
        self.col2im(&gcol, x.dims4())
    }
}

impl Params for Conv2d {
    fn visit_params(&mut self, f: &mut dyn FnMut(ParamRef<'_>)) {
        self.ensure_grads();
        f(ParamRef {
            value: &mut self.w,
            grad: &mut self.gw,
        });
        f(ParamRef {
            value: &mut self.b,
            grad: &mut self.gb,
        });
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let (n, _, h, w) = x.dims4();
        let (oh, ow) = (self.out_size(h), self.out_size(w));
        let col = self.im2col(x);
        let mut y = col.matmul(&self.w); // (n*oh*ow, oc)
        let b = self.b.data();
        {
            let oc = self.out_ch;
            let yd = y.data_mut();
            for r in 0..n * oh * ow {
                for c in 0..oc {
                    yd[r * oc + c] += b[c];
                }
            }
        }
        if train {
            self.cache_x = Some(x.clone());
        }
        // (n*oh*ow, oc) → (n, oc, oh, ow)
        let oc = self.out_ch;
        let mut out = vec![0.0f32; n * oc * oh * ow];
        let yd = y.data();
        for b in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    let row = ((b * oh + oy) * ow + ox) * oc;
                    for c in 0..oc {
                        out[((b * oc + c) * oh + oy) * ow + ox] = yd[row + c];
                    }
                }
            }
        }
        Tensor::from_vec(&[n, oc, oh, ow], out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_segments(grad_out, &[grad_out.dims4().0])
    }
}

/// Residual MLP block (paper Fig. 4): the output is the sum of the input and
/// three LReLU-activated dense layers of the same width.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResBlock {
    fc: [Linear; 3],
    act: [LeakyRelu; 3],
}

impl ResBlock {
    /// Creates a residual block of the given width.
    pub fn new(dim: usize, init: &mut Initializer) -> ResBlock {
        ResBlock {
            fc: [
                Linear::new(dim, dim, init),
                Linear::new(dim, dim, init),
                Linear::new(dim, dim, init),
            ],
            act: [LeakyRelu::new(), LeakyRelu::new(), LeakyRelu::new()],
        }
    }

    /// [`Layer::backward`] for a stacked batch of per-query row `segments`;
    /// see [`Linear::backward_segments`].
    pub fn backward_segments(&mut self, grad_out: &Tensor, segments: &[usize]) -> Tensor {
        let mut g = grad_out.clone();
        for i in (0..3).rev() {
            g = self.act[i].backward(&g);
            g = self.fc[i].backward_segments(&g, segments);
        }
        g.add_assign(grad_out); // skip connection
        g
    }
}

impl Params for ResBlock {
    fn visit_params(&mut self, f: &mut dyn FnMut(ParamRef<'_>)) {
        for fc in &mut self.fc {
            fc.visit_params(f);
        }
    }
}

impl Layer for ResBlock {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let mut h = x.clone();
        for i in 0..3 {
            h = self.fc[i].forward(&h, train);
            h = self.act[i].forward(&h, train);
        }
        h.add_assign(x);
        h
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_segments(grad_out, &[grad_out.dims2().0])
    }
}

/// Global average pooling `(n, c, h, w)` → `(n, c)`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct GlobalAvgPool {
    #[serde(skip)]
    cache_shape: Option<[usize; 4]>,
}

impl GlobalAvgPool {
    /// Creates the pool.
    pub fn new() -> GlobalAvgPool {
        GlobalAvgPool::default()
    }
}

impl Params for GlobalAvgPool {
    fn visit_params(&mut self, _f: &mut dyn FnMut(ParamRef<'_>)) {}
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let (n, c, h, w) = x.dims4();
        let mut out = Tensor::zeros(&[n, c]);
        let xd = x.data();
        let od = out.data_mut();
        let inv = 1.0 / (h * w) as f32;
        for b in 0..n {
            for ch in 0..c {
                let base = (b * c + ch) * h * w;
                let s: f32 = xd[base..base + h * w].iter().sum();
                od[b * c + ch] = s * inv;
            }
        }
        if train {
            self.cache_shape = Some([n, c, h, w]);
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let [n, c, h, w] = self.cache_shape.take().expect("backward without forward");
        let mut gx = Tensor::zeros(&[n, c, h, w]);
        let inv = 1.0 / (h * w) as f32;
        let gd = grad_out.data();
        let gxd = gx.data_mut();
        for b in 0..n {
            for ch in 0..c {
                let g = gd[b * c + ch] * inv;
                let base = (b * c + ch) * h * w;
                for v in &mut gxd[base..base + h * w] {
                    *v = g;
                }
            }
        }
        gx
    }
}

/// A stack of `Linear`+`LReLU` pairs (used for the plain dense parts).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MlpStack {
    layers: Vec<Linear>,
    acts: Vec<LeakyRelu>,
    /// Whether the final layer is followed by an activation.
    pub activate_last: bool,
}

impl MlpStack {
    /// Builds a stack with the given layer widths, e.g. `[27, 128]` for the
    /// paper's `fc1`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given.
    pub fn new(widths: &[usize], activate_last: bool, init: &mut Initializer) -> MlpStack {
        assert!(widths.len() >= 2, "need at least in/out widths");
        let mut layers = Vec::new();
        let mut acts = Vec::new();
        for w in widths.windows(2) {
            layers.push(Linear::new(w[0], w[1], init));
            acts.push(LeakyRelu::new());
        }
        MlpStack {
            layers,
            acts,
            activate_last,
        }
    }
}

impl Params for MlpStack {
    fn visit_params(&mut self, f: &mut dyn FnMut(ParamRef<'_>)) {
        for l in &mut self.layers {
            l.visit_params(f);
        }
    }
}

impl Layer for MlpStack {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let n = self.layers.len();
        let mut h = x.clone();
        for i in 0..n {
            h = self.layers[i].forward(&h, train);
            if i + 1 < n || self.activate_last {
                h = self.acts[i].forward(&h, train);
            }
        }
        h
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let n = self.layers.len();
        let mut g = grad_out.clone();
        for i in (0..n).rev() {
            if i + 1 < n || self.activate_last {
                g = self.acts[i].backward(&g);
            }
            g = self.layers[i].backward(&g);
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finite-difference gradient check of a layer's parameter and input
    /// gradients against backprop.
    fn grad_check<L: Layer>(layer: &mut L, x: &Tensor, eps: f32, tol: f32) {
        // Loss = sum of outputs (gradient of loss wrt output = ones).
        let y = layer.forward(x, true);
        let ones = y.map(|_| 1.0);
        layer.zero_grad();
        let gx = layer.backward(&ones);

        // Input gradient check on a few coordinates.
        for idx in [0, x.numel() / 2, x.numel() - 1] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let fp = layer.forward(&xp, false).sum();
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let fm = layer.forward(&xm, false).sum();
            let num = (fp - fm) / (2.0 * eps);
            let ana = gx.data()[idx];
            assert!(
                (num - ana).abs() <= tol * (1.0 + num.abs().max(ana.abs())),
                "input grad mismatch at {idx}: numeric {num} vs analytic {ana}"
            );
        }

        // Parameter gradient check on the first parameter tensor (skipped for
        // parameterless layers).
        let mut grads: Vec<f32> = Vec::new();
        layer.visit_params(&mut |p| {
            if grads.is_empty() {
                grads = p.grad.data().to_vec();
            }
        });
        if grads.is_empty() {
            return;
        }
        for idx in [0, grads.len() / 2] {
            let probe = |delta: f32, layer: &mut L| -> f32 {
                let mut first = true;
                layer.visit_params(&mut |p| {
                    if first {
                        p.value.data_mut()[idx] += delta;
                        first = false;
                    }
                });
                let out = layer.forward(x, false).sum();
                let mut first = true;
                layer.visit_params(&mut |p| {
                    if first {
                        p.value.data_mut()[idx] -= delta;
                        first = false;
                    }
                });
                out
            };
            let fp = probe(eps, layer);
            let fm = probe(-eps, layer);
            let num = (fp - fm) / (2.0 * eps);
            let ana = grads[idx];
            assert!(
                (num - ana).abs() <= tol * (1.0 + num.abs().max(ana.abs())),
                "param grad mismatch at {idx}: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn linear_gradients() {
        let mut init = Initializer::new(7);
        let mut layer = Linear::new(5, 4, &mut init);
        let x = init.uniform(&[3, 5], 1.0).reshape(&[3, 5]);
        grad_check(&mut layer, &x, 1e-2, 1e-2);
        // backward consumed the forward cache: a second backward without a
        // new training forward must panic, not reuse stale activations.
        let again = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            layer.backward(&Tensor::zeros(&[3, 4]))
        }));
        let payload = again.expect_err("second backward must panic");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert_eq!(message, "backward without forward");
    }

    #[test]
    fn conv_gradients() {
        let mut init = Initializer::new(7);
        let mut layer = Conv2d::new(2, 3, 3, 1, &mut init);
        let x = init.uniform(&[2 * 2 * 5 * 5], 1.0).reshape(&[2, 2, 5, 5]);
        grad_check(&mut layer, &x, 1e-2, 2e-2);
    }

    #[test]
    fn strided_conv_gradients() {
        let mut init = Initializer::new(9);
        let mut layer = Conv2d::new(2, 2, 3, 3, &mut init);
        let x = init.uniform(&[2 * 9 * 9], 1.0).reshape(&[1, 2, 9, 9]);
        grad_check(&mut layer, &x, 1e-2, 2e-2);
    }

    #[test]
    fn resblock_gradients() {
        let mut init = Initializer::new(11);
        let mut layer = ResBlock::new(6, &mut init);
        let x = init.uniform(&[4 * 6], 1.0).reshape(&[4, 6]);
        grad_check(&mut layer, &x, 1e-2, 2e-2);
    }

    #[test]
    fn pool_gradients() {
        let mut layer = GlobalAvgPool::new();
        let mut init = Initializer::new(13);
        let x = init.uniform(&[2 * 3 * 4 * 4], 1.0).reshape(&[2, 3, 4, 4]);
        grad_check(&mut layer, &x, 1e-2, 1e-3);
    }

    #[test]
    fn mlp_stack_gradients() {
        let mut init = Initializer::new(15);
        let mut layer = MlpStack::new(&[4, 8, 3], true, &mut init);
        let x = init.uniform(&[2 * 4], 1.0).reshape(&[2, 4]);
        grad_check(&mut layer, &x, 1e-2, 2e-2);
    }

    #[test]
    fn conv_same_padding_shapes() {
        let mut init = Initializer::new(1);
        let mut conv = Conv2d::new(1, 4, 3, 1, &mut init);
        let x = Tensor::zeros(&[1, 1, 99, 99]);
        assert_eq!(conv.forward(&x, false).shape(), &[1, 4, 99, 99]);
        let mut conv3 = Conv2d::new(1, 4, 3, 3, &mut init);
        assert_eq!(conv3.forward(&x, false).shape(), &[1, 4, 33, 33]);
        // The paper's tower: 99 → 33 → 11 → 4.
        let x = Tensor::zeros(&[1, 1, 11, 11]);
        assert_eq!(conv3.forward(&x, false).shape(), &[1, 4, 4, 4]);
    }

    #[test]
    fn resblock_is_residual() {
        let mut init = Initializer::new(3);
        let mut block = ResBlock::new(4, &mut init);
        // Zero all parameters: output must equal input exactly.
        block.visit_params(&mut |p| p.value.fill_zero());
        let x = Tensor::from_vec(&[1, 4], vec![1., -2., 3., -4.]);
        let y = block.forward(&x, false);
        assert_eq!(y, x);
    }

    #[test]
    fn leaky_relu_values() {
        let mut act = LeakyRelu::new();
        let x = Tensor::from_vec(&[4], vec![-2.0, -0.5, 0.5, 2.0]);
        let y = act.forward(&x, false);
        assert_eq!(y.data(), &[-0.02, -0.005, 0.5, 2.0]);
    }

    #[test]
    fn param_counts() {
        let mut init = Initializer::new(1);
        let mut lin = Linear::new(27, 128, &mut init);
        assert_eq!(lin.num_params(), 27 * 128 + 128);
        let mut block = ResBlock::new(128, &mut init);
        assert_eq!(block.num_params(), 3 * (128 * 128 + 128));
    }
}
