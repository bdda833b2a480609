//! The paper's hybrid neural network (§4.2, Fig. 4, Table 2).
//!
//! One *query* is a sink fragment with `n` candidate VPPs:
//!
//! * the **vector part** maps the `[n, 27]` candidate features through
//!   `fc1 (27×128)` and four residual blocks (`fc2 [128×128]×12`);
//! * the **image part** pushes the sink image and the `n` source images
//!   through a *shared* conv tower (`conv1..conv4`, each `[3×3, C]×3` with a
//!   stride-3 first layer from `conv2` on: 99 → 33 → 11 → 4), global average
//!   pooling, `fc3 (128×256)` and `fc4 (256×128)`; the sink embedding is
//!   computed once and concatenated with every source embedding, then
//!   `fc5 (256×128)` fuses each pair;
//! * the **merged part** concatenates vector and image outputs
//!   (`fc5 (256×128)`), runs three more residual blocks (`fc2 [128×128]×9`),
//!   `fc6 (128×32)` and `fc7 (32×1)` to produce one score per candidate —
//!   or `32×2` scores for the two-class ablation.
//!
//! Every dense/conv layer is followed by LReLU (`max(0.01x, x)`), as in the
//! paper.

use deepsplit_nn::init::Initializer;
use deepsplit_nn::layers::{
    Conv2d, GlobalAvgPool, Layer, LeakyRelu, Linear, ParamRef, Params, ResBlock,
};
use deepsplit_nn::loss::{softmax_regression, two_class};
use deepsplit_nn::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Which feature families the model consumes (Fig. 5 ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelKind {
    /// Vector features only.
    VecOnly,
    /// Vector and image features (the full paper model).
    VecImg,
}

/// Output head: the paper's softmax regression (one score per VPP) or the
/// two-class baseline (connect / non-connect scores per VPP).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LossKind {
    /// Softmax regression over the candidate group (paper Eq. 6).
    SoftmaxRegression,
    /// Independent two-class classification (paper Eq. 3).
    TwoClass,
}

/// The shared convolutional tower of the image part.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConvTower {
    convs: Vec<Conv2d>,
    acts: Vec<LeakyRelu>,
    pool: GlobalAvgPool,
    fc3: Linear,
    act3: LeakyRelu,
    fc4: Linear,
    act4: LeakyRelu,
}

impl ConvTower {
    /// Builds the tower for images with `channels` input planes.
    pub fn new(channels: usize, init: &mut Initializer) -> ConvTower {
        let mut convs = Vec::new();
        let mut acts = Vec::new();
        let stages: [(usize, usize); 4] = [(channels, 16), (16, 32), (32, 64), (64, 128)];
        for (stage, &(cin, cout)) in stages.iter().enumerate() {
            for k in 0..3 {
                let stride = if stage > 0 && k == 0 { 3 } else { 1 };
                let in_ch = if k == 0 { cin } else { cout };
                convs.push(Conv2d::new(in_ch, cout, 3, stride, init));
                acts.push(LeakyRelu::new());
            }
        }
        ConvTower {
            convs,
            acts,
            pool: GlobalAvgPool::new(),
            fc3: Linear::new(128, 256, init),
            act3: LeakyRelu::new(),
            fc4: Linear::new(256, 128, init),
            act4: LeakyRelu::new(),
        }
    }

    /// Embeds a batch of images `[k, C, H, W]` into `[k, 128]`.
    pub fn forward(&mut self, imgs: &Tensor, train: bool) -> Tensor {
        let mut h = imgs.clone();
        for i in 0..self.convs.len() {
            h = self.convs[i].forward(&h, train);
            h = self.acts[i].forward(&h, train);
        }
        let mut h = self.pool.forward(&h, train);
        h = self.fc3.forward(&h, train);
        h = self.act3.forward(&h, train);
        h = self.fc4.forward(&h, train);
        self.act4.forward(&h, train)
    }

    /// Backpropagates `[k, 128]` gradients through the tower. The `k`
    /// images split into consecutive per-query `segments` (image counts),
    /// which keep the weight gradients bit-identical to one pass per query
    /// (see [`Linear::backward_segments`]).
    pub fn backward(&mut self, grad: &Tensor, segments: &[usize]) {
        let mut g = self.act4.backward(grad);
        g = self.fc4.backward_segments(&g, segments);
        g = self.act3.backward(&g);
        g = self.fc3.backward_segments(&g, segments);
        let mut g = self.pool.backward(&g);
        for i in (0..self.convs.len()).rev() {
            g = self.acts[i].backward(&g);
            g = self.convs[i].backward_segments(&g, segments);
        }
    }

    /// Layer shape description for the Table 2 printout.
    pub fn describe(&self, px: usize) -> Vec<(String, String)> {
        let mut rows = Vec::new();
        let mut side = px;
        for stage in 0..4 {
            let ch = [16, 32, 64, 128][stage];
            if stage > 0 {
                side = side.div_ceil(3);
            }
            rows.push((
                format!("conv{}", stage + 1),
                format!("[3x3, {ch}] x 3 -> {side}x{side}x{ch}"),
            ));
        }
        rows.push(("fc3".into(), "128 x 256".into()));
        rows.push(("fc4".into(), "256 x 128".into()));
        rows
    }
}

impl Params for ConvTower {
    fn visit_params(&mut self, f: &mut dyn FnMut(ParamRef<'_>)) {
        for c in &mut self.convs {
            c.visit_params(f);
        }
        self.fc3.visit_params(f);
        self.fc4.visit_params(f);
    }
}

/// The complete attack network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AttackModel {
    /// Feature families consumed.
    pub kind: ModelKind,
    /// Output head / loss formulation.
    pub loss: LossKind,
    // Vector part.
    fc1: Linear,
    act1: LeakyRelu,
    vec_blocks: Vec<ResBlock>,
    // Image part.
    tower: Option<ConvTower>,
    fc5_img: Option<Linear>,
    act5_img: LeakyRelu,
    // Merged part.
    fc5: Linear,
    act5: LeakyRelu,
    merged_blocks: Vec<ResBlock>,
    fc6: Linear,
    act6: LeakyRelu,
    fc7: Linear,
}

impl AttackModel {
    /// Builds the model. `image_channels` is required for [`ModelKind::VecImg`]
    /// (3 scales × 2m planes; see `AttackConfig::image_channels`).
    pub fn new(kind: ModelKind, loss: LossKind, image_channels: usize, seed: u64) -> AttackModel {
        let mut init = Initializer::new(seed);
        let vec_dim = crate::vector_features::VECTOR_DIM;
        let (tower, fc5_img) = match kind {
            ModelKind::VecImg => (
                Some(ConvTower::new(image_channels, &mut init)),
                Some(Linear::new(256, 128, &mut init)),
            ),
            ModelKind::VecOnly => (None, None),
        };
        let merged_in = match kind {
            ModelKind::VecImg => 256,
            ModelKind::VecOnly => 128,
        };
        let out_dim = match loss {
            LossKind::SoftmaxRegression => 1,
            LossKind::TwoClass => 2,
        };
        AttackModel {
            kind,
            loss,
            fc1: Linear::new(vec_dim, 128, &mut init),
            act1: LeakyRelu::new(),
            vec_blocks: (0..4).map(|_| ResBlock::new(128, &mut init)).collect(),
            tower,
            fc5_img,
            act5_img: LeakyRelu::new(),
            fc5: Linear::new(merged_in, 128, &mut init),
            act5: LeakyRelu::new(),
            merged_blocks: (0..3).map(|_| ResBlock::new(128, &mut init)).collect(),
            fc6: Linear::new(128, 32, &mut init),
            act6: LeakyRelu::new(),
            fc7: Linear::new(32, out_dim, &mut init),
        }
    }

    /// Embeds a batch of images (inference-time reuse across queries).
    ///
    /// # Panics
    ///
    /// Panics for [`ModelKind::VecOnly`] models.
    pub fn embed_images(&mut self, imgs: &Tensor, train: bool) -> Tensor {
        self.tower
            .as_mut()
            .expect("VecOnly model has no image tower")
            .forward(imgs, train)
    }

    /// Scores one query from vector features `[n, 27]` and (for `VecImg`)
    /// image embeddings: source embeddings `[n, 128]` plus sink embedding
    /// `[1, 128]`. Returns `[n, 1]` or `[n, 2]` scores. Inference calls this
    /// with embeddings it computed once per unique image.
    pub fn score_from_embeddings(
        &mut self,
        vectors: &Tensor,
        embeddings: Option<(&Tensor, &Tensor)>,
        train: bool,
    ) -> Tensor {
        let n = vectors.dims2().0;
        let pairs = embeddings.map(|(src, sink)| {
            assert_eq!(src.dims2().0, n, "one source embedding per candidate");
            Tensor::concat_cols(&[src, &broadcast_rows(sink, n)])
        });
        self.score_rows(vectors, pairs.as_ref(), train)
    }

    /// Scores stacked candidate rows: `vectors` `[rows, 27]` and, for
    /// `VecImg`, the matching `[source ‖ sink]` embedding pairs `[rows, 256]`.
    /// Every layer here is row-wise, so rows need no query boundaries.
    fn score_rows(&mut self, vectors: &Tensor, pairs: Option<&Tensor>, train: bool) -> Tensor {
        // Vector part.
        let mut v = self.fc1.forward(vectors, train);
        v = self.act1.forward(&v, train);
        for b in &mut self.vec_blocks {
            v = b.forward(&v, train);
        }
        // Image part (pair fusion).
        let merged_in = match (self.kind, pairs) {
            (ModelKind::VecImg, Some(pairs)) => {
                let f = self.fc5_img.as_mut().expect("VecImg has fc5_img");
                let h = f.forward(pairs, train);
                let h = self.act5_img.forward(&h, train);
                Tensor::concat_cols(&[&v, &h])
            }
            (ModelKind::VecOnly, _) => v,
            (ModelKind::VecImg, None) => panic!("VecImg model requires image embeddings"),
        };
        // Merged part.
        let mut h = self.fc5.forward(&merged_in, train);
        h = self.act5.forward(&h, train);
        for b in &mut self.merged_blocks {
            h = b.forward(&h, train);
        }
        h = self.fc6.forward(&h, train);
        h = self.act6.forward(&h, train);
        self.fc7.forward(&h, train)
    }

    /// Full forward pass over a batch of queries stacked row-wise: `vectors`
    /// `[Σnᵢ, 27]` holds query `i`'s `nᵢ = segments[i]` candidate rows in
    /// order, and for `VecImg`, `images` `[Σ(nᵢ+1), C, H, W]` holds each
    /// query's sink image followed by its `nᵢ` source images. A single query
    /// is a batch of one (`segments == [n]`). Returns `[Σnᵢ, 1]` or
    /// `[Σnᵢ, 2]` scores; each query's loss reads its own row segment.
    ///
    /// # Panics
    ///
    /// Panics if the segments do not cover the rows, or if a `VecImg` model
    /// gets no (or mis-sized) images.
    pub fn forward_query(
        &mut self,
        vectors: &Tensor,
        segments: &[usize],
        images: Option<&Tensor>,
        train: bool,
    ) -> Tensor {
        let rows = vectors.dims2().0;
        assert_eq!(
            segments.iter().sum::<usize>(),
            rows,
            "segments must cover all rows"
        );
        let pairs = match self.kind {
            ModelKind::VecOnly => None,
            ModelKind::VecImg => {
                let imgs = images.expect("VecImg model requires images");
                let emb = self.embed_images(imgs, train);
                let (k, d) = emb.dims2();
                assert_eq!(k, rows + segments.len(), "one sink image per query");
                // Query i's images are [sink; sources]: pair every source
                // embedding with its own query's sink embedding.
                let mut pairs = Vec::with_capacity(rows * 2 * d);
                let mut at = 0;
                for &n in segments {
                    let sink = &emb.data()[at * d..(at + 1) * d];
                    for src in emb.data()[(at + 1) * d..(at + 1 + n) * d].chunks_exact(d) {
                        pairs.extend_from_slice(src);
                        pairs.extend_from_slice(sink);
                    }
                    at += n + 1;
                }
                Some(Tensor::from_vec(&[rows, 2 * d], pairs))
            }
        };
        self.score_rows(vectors, pairs.as_ref(), train)
    }

    /// Backward pass for the most recent training
    /// [`AttackModel::forward_query`], with the same `segments`.
    /// `grad_scores` stacks every query's loss gradient over its own rows.
    pub fn backward_query(&mut self, grad_scores: &Tensor, segments: &[usize]) {
        let mut g = self.fc7.backward_segments(grad_scores, segments);
        g = self.act6.backward(&g);
        g = self.fc6.backward_segments(&g, segments);
        for b in self.merged_blocks.iter_mut().rev() {
            g = b.backward_segments(&g, segments);
        }
        g = self.act5.backward(&g);
        g = self.fc5.backward_segments(&g, segments);
        let g_vec = match self.kind {
            ModelKind::VecOnly => g,
            ModelKind::VecImg => {
                let mut parts = g.split_cols(&[128, 128]);
                let g_img = self.act5_img.backward(&parts[1]);
                let f = self.fc5_img.as_mut().expect("VecImg");
                let g_pairs = f.backward_segments(&g_img, segments).data().to_vec();
                // Undo the pairing: the tower saw [sink; sources] per query,
                // and each sink embedding was broadcast over its query's
                // rows, so its gradient is their sum (rows in order, from 0).
                let mut stacked = Vec::with_capacity((g_pairs.len() / 2) + segments.len() * 128);
                let mut pair_rows = g_pairs.chunks_exact(256);
                for &n in segments {
                    let query_rows: Vec<&[f32]> = pair_rows.by_ref().take(n).collect();
                    let mut g_sink = [0.0f32; 128];
                    for row in &query_rows {
                        for (s, &v) in g_sink.iter_mut().zip(&row[128..]) {
                            *s += v;
                        }
                    }
                    stacked.extend_from_slice(&g_sink);
                    for row in &query_rows {
                        stacked.extend_from_slice(&row[..128]);
                    }
                }
                let images: Vec<usize> = segments.iter().map(|n| n + 1).collect();
                let stacked = Tensor::from_vec(&[stacked.len() / 128, 128], stacked);
                self.tower
                    .as_mut()
                    .expect("VecImg")
                    .backward(&stacked, &images);
                parts.swap_remove(0)
            }
        };
        let mut g = g_vec;
        for b in self.vec_blocks.iter_mut().rev() {
            g = b.backward_segments(&g, segments);
        }
        g = self.act1.backward(&g);
        let _ = self.fc1.backward_segments(&g, segments);
    }

    /// Each query's training loss over its own row segment of stacked
    /// `scores` (paper Eq. 6, or the Eq. 3 two-class baseline) for the
    /// positive candidate `targets[i]`, and the loss gradient stacked the
    /// same way as `scores`.
    ///
    /// # Panics
    ///
    /// Panics if a target is outside its segment or the segments do not
    /// cover the rows.
    pub fn segment_losses(
        &self,
        scores: &Tensor,
        segments: &[usize],
        targets: &[usize],
    ) -> (Vec<f32>, Tensor) {
        let cols = scores.dims2().1;
        let mut losses = Vec::with_capacity(segments.len());
        let mut grad = Vec::with_capacity(scores.numel());
        let mut row = 0;
        for (&n, &target) in segments.iter().zip(targets) {
            let query = scores.data()[row * cols..(row + n) * cols].to_vec();
            let query = Tensor::from_vec(&[n, cols], query);
            let (loss, g) = match self.loss {
                LossKind::SoftmaxRegression => softmax_regression(&query, target),
                LossKind::TwoClass => two_class(&query, target),
            };
            losses.push(loss);
            grad.extend_from_slice(g.data());
            row += n;
        }
        (losses, Tensor::from_vec(scores.shape(), grad))
    }

    /// Ranking probability per candidate (implements paper Eq. 2).
    pub fn candidate_scores(&self, raw: &Tensor) -> Vec<f32> {
        match self.loss {
            LossKind::SoftmaxRegression => raw.data().to_vec(),
            LossKind::TwoClass => deepsplit_nn::loss::two_class_probabilities(raw),
        }
    }

    /// Table 2 style description of the realised architecture.
    pub fn describe(&self, image_px: usize) -> Vec<(String, String, String)> {
        let mut rows = Vec::new();
        let vd = crate::vector_features::VECTOR_DIM;
        rows.push(("Vector".into(), "fc1".into(), format!("{vd} x 128")));
        rows.push(("Vector".into(), "fc2".into(), "[128 x 128] x 12".into()));
        if let Some(t) = &self.tower {
            for (name, shape) in t.describe(image_px) {
                rows.push(("Image".into(), name, shape));
            }
            rows.push(("Image".into(), "fc5".into(), "256 x 128".into()));
        }
        let in5 = self.fc5.in_dim();
        rows.push(("Merged".into(), "fc5".into(), format!("{in5} x 128")));
        rows.push(("Merged".into(), "fc2".into(), "[128 x 128] x 9".into()));
        rows.push(("Merged".into(), "fc6".into(), "128 x 32".into()));
        let out = self.fc7.out_dim();
        rows.push(("Merged".into(), "fc7".into(), format!("32 x {out}")));
        rows
    }
}

impl Params for AttackModel {
    fn visit_params(&mut self, f: &mut dyn FnMut(ParamRef<'_>)) {
        self.fc1.visit_params(f);
        for b in &mut self.vec_blocks {
            b.visit_params(f);
        }
        if let Some(t) = &mut self.tower {
            t.visit_params(f);
        }
        if let Some(l) = &mut self.fc5_img {
            l.visit_params(f);
        }
        self.fc5.visit_params(f);
        for b in &mut self.merged_blocks {
            b.visit_params(f);
        }
        self.fc6.visit_params(f);
        self.fc7.visit_params(f);
    }
}

/// Repeats a `[1, d]` row `n` times into `[n, d]`.
fn broadcast_rows(row: &Tensor, n: usize) -> Tensor {
    let (_, d) = row.dims2();
    let mut out = Tensor::zeros(&[n, d]);
    for r in 0..n {
        out.data_mut()[r * d..(r + 1) * d].copy_from_slice(row.data());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepsplit_nn::layers::{export_grads, Params};
    use deepsplit_nn::optim::{Adam, Optimizer};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const VD: usize = crate::vector_features::VECTOR_DIM;

    fn rand_tensor(shape: &[usize], rng: &mut StdRng) -> Tensor {
        let n: usize = shape.iter().product();
        Tensor::from_vec(shape, (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
    }

    #[test]
    fn vec_only_shapes() {
        let mut model = AttackModel::new(ModelKind::VecOnly, LossKind::SoftmaxRegression, 0, 1);
        let mut rng = StdRng::seed_from_u64(1);
        let x = rand_tensor(&[5, VD], &mut rng);
        let y = model.forward_query(&x, &[5], None, false);
        assert_eq!(y.shape(), &[5, 1]);
    }

    #[test]
    fn vec_img_shapes() {
        let mut model = AttackModel::new(ModelKind::VecImg, LossKind::SoftmaxRegression, 6, 1);
        let mut rng = StdRng::seed_from_u64(1);
        let n = 4;
        let x = rand_tensor(&[n, VD], &mut rng);
        let imgs = rand_tensor(&[n + 1, 6, 9, 9], &mut rng);
        let y = model.forward_query(&x, &[n], Some(&imgs), false);
        assert_eq!(y.shape(), &[n, 1]);
    }

    #[test]
    fn two_class_head_shapes() {
        let mut model = AttackModel::new(ModelKind::VecOnly, LossKind::TwoClass, 0, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let x = rand_tensor(&[3, VD], &mut rng);
        let y = model.forward_query(&x, &[3], None, false);
        assert_eq!(y.shape(), &[3, 2]);
        let probs = model.candidate_scores(&y);
        assert_eq!(probs.len(), 3);
        assert!(probs.iter().all(|p| (0.0..=1.0).contains(p)));
    }

    #[test]
    fn training_reduces_loss_vec_only() {
        let mut model = AttackModel::new(ModelKind::VecOnly, LossKind::SoftmaxRegression, 0, 3);
        let mut opt = Adam::new(1e-3);
        let mut rng = StdRng::seed_from_u64(3);
        // Fixed toy task: target candidate has a distinctive feature pattern.
        let make = |t: usize, rng: &mut StdRng| {
            let mut x = Tensor::zeros(&[6, VD]);
            for j in 0..6 {
                for k in 0..VD {
                    x.data_mut()[j * VD + k] = rng.gen_range(-0.1..0.1);
                }
                x.data_mut()[j * VD] = if j == t { 1.0 } else { -1.0 };
            }
            x
        };
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..60 {
            let t = step % 6;
            let x = make(t, &mut rng);
            let y = model.forward_query(&x, &[6], None, true);
            let (loss, grad) = softmax_regression(&y, t);
            model.zero_grad();
            model.backward_query(&grad, &[6]);
            opt.step(&mut model);
            if step == 0 {
                first = loss;
            }
            last = loss;
        }
        assert!(last < first * 0.5, "first {first} last {last}");
    }

    #[test]
    fn image_embeddings_flow_gradients() {
        let mut model = AttackModel::new(ModelKind::VecImg, LossKind::SoftmaxRegression, 2, 5);
        let mut rng = StdRng::seed_from_u64(5);
        let n = 3;
        let x = rand_tensor(&[n, VD], &mut rng);
        let imgs = rand_tensor(&[n + 1, 2, 9, 9], &mut rng);
        let y = model.forward_query(&x, &[n], Some(&imgs), true);
        let (_, grad) = softmax_regression(&y, 1);
        model.zero_grad();
        model.backward_query(&grad, &[n]);
        let grads = export_grads(&mut model);
        let nonzero = grads
            .iter()
            .filter(|g| g.data().iter().any(|&x| x != 0.0))
            .count();
        // Every parameter group should receive gradient signal.
        assert!(
            nonzero > grads.len() / 2,
            "{nonzero}/{} gradient tensors non-zero",
            grads.len()
        );
    }

    /// Gradient bits in visit order, so `-0.0` and `+0.0` differ.
    fn grad_bits(model: &mut AttackModel) -> Vec<Vec<u32>> {
        export_grads(model)
            .iter()
            .map(|g| g.data().iter().map(|x| x.to_bits()).collect())
            .collect()
    }

    #[test]
    fn clone_train_produces_same_grads() {
        // Data-parallel soundness: clones computing the same sample produce
        // identical gradients, and a clone of a trained model carries no
        // forward cache (a backward on it needs its own forward).
        let mut a = AttackModel::new(ModelKind::VecOnly, LossKind::SoftmaxRegression, 0, 7);
        let mut rng = StdRng::seed_from_u64(9);
        let x = rand_tensor(&[4, VD], &mut rng);
        let y = a.forward_query(&x, &[4], None, true);
        let (_, grad) = softmax_regression(&y, 2);
        a.zero_grad();
        a.backward_query(&grad, &[4]);
        let mut b = a.clone();
        let stale = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            b.clone().backward_query(&grad, &[4])
        }));
        assert!(stale.is_err(), "backward consumed the forward caches");
        for m in [&mut a, &mut b] {
            let y = m.forward_query(&x, &[4], None, true);
            let (_, grad) = softmax_regression(&y, 2);
            m.zero_grad();
            m.backward_query(&grad, &[4]);
        }
        assert_eq!(grad_bits(&mut a), grad_bits(&mut b));
    }

    #[test]
    fn batched_pass_matches_per_query_passes_bitwise() {
        // One forward/backward over a stacked batch must leave exactly the
        // gradients that one pass per query accumulates: training weights
        // (and every cached model) depend on it.
        let counts = [3usize, 5, 1, 4];
        let targets = [2usize, 0, 0, 3];
        for kind in [ModelKind::VecOnly, ModelKind::VecImg] {
            for loss in [LossKind::SoftmaxRegression, LossKind::TwoClass] {
                let channels = if kind == ModelKind::VecImg { 2 } else { 0 };
                let mut per_query = AttackModel::new(kind, loss, channels, 11);
                let mut batched = per_query.clone();
                let mut rng = StdRng::seed_from_u64(13);
                let queries: Vec<(Tensor, Tensor)> = counts
                    .iter()
                    .map(|&n| {
                        (
                            rand_tensor(&[n, VD], &mut rng),
                            rand_tensor(&[n + 1, 2, 9, 9], &mut rng),
                        )
                    })
                    .collect();
                let images =
                    |q: &(Tensor, Tensor)| (kind == ModelKind::VecImg).then(|| q.1.clone());

                per_query.zero_grad();
                let mut per_query_losses = Vec::new();
                for ((q, &n), &t) in queries.iter().zip(&counts).zip(&targets) {
                    let y = per_query.forward_query(&q.0, &[n], images(q).as_ref(), true);
                    let (l, g) = per_query.segment_losses(&y, &[n], &[t]);
                    per_query.backward_query(&g, &[n]);
                    per_query_losses.extend(l);
                }

                let rows: usize = counts.iter().sum();
                let vectors: Vec<f32> = queries.iter().flat_map(|q| q.0.data().to_vec()).collect();
                let vectors = Tensor::from_vec(&[rows, VD], vectors);
                let stack: Vec<f32> = queries.iter().flat_map(|q| q.1.data().to_vec()).collect();
                let stack = Tensor::from_vec(&[rows + counts.len(), 2, 9, 9], stack);
                let imgs = (kind == ModelKind::VecImg).then_some(&stack);
                batched.zero_grad();
                let y = batched.forward_query(&vectors, &counts, imgs, true);
                let (losses, grad) = batched.segment_losses(&y, &counts, &targets);
                batched.backward_query(&grad, &counts);
                let bits = |ls: &[f32]| ls.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&losses), bits(&per_query_losses), "{kind:?}/{loss:?}");
                assert!(
                    grad_bits(&mut batched) == grad_bits(&mut per_query),
                    "{kind:?}/{loss:?}: batched gradients differ from per-query ones"
                );
            }
        }
    }

    #[test]
    fn describe_matches_table2() {
        let model = AttackModel::new(ModelKind::VecImg, LossKind::SoftmaxRegression, 18, 1);
        let rows = model.describe(99);
        let find = |name: &str| rows.iter().find(|(_, n, _)| n == name).cloned();
        assert_eq!(find("fc1").unwrap().2, "27 x 128");
        assert!(find("conv1").unwrap().2.contains("99x99x16"));
        assert!(find("conv2").unwrap().2.contains("33x33x32"));
        assert!(find("conv3").unwrap().2.contains("11x11x64"));
        assert!(find("conv4").unwrap().2.contains("4x4x128"));
        assert_eq!(find("fc6").unwrap().2, "128 x 32");
        assert_eq!(find("fc7").unwrap().2, "32 x 1");
    }

    #[test]
    fn param_count_nontrivial() {
        let mut model = AttackModel::new(ModelKind::VecImg, LossKind::SoftmaxRegression, 18, 1);
        let n = model.num_params();
        // 21 dense 128×128 blocks alone exceed 340k parameters.
        assert!(n > 400_000, "{n} params");
    }
}
