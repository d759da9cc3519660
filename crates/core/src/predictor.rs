//! Transformer-based surrogate predictor (AttentionDSE-style).
//!
//! Each of the 21 architectural parameters becomes one token: a learned
//! per-parameter identity embedding plus a learned value direction scaled
//! by the parameter's normalized value. A transformer encoder mixes the
//! tokens through self-attention — whose attention weights expose which
//! parameter *interactions* the model relies on, the signal the WAM
//! algorithm consumes — and a mean-pooled MLP head regresses the metric.

use rand::rngs::StdRng;
use rand::SeedableRng;

use metadse_nn::autograd::no_grad;
use metadse_nn::layers::{Embedding, Mlp, Module, Param, TransformerEncoder};
use metadse_nn::{Elem, Tensor};

/// Geometry of the surrogate predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictorConfig {
    /// Number of tokens (architectural parameters). 21 for Table I.
    pub num_params: usize,
    /// Embedding width.
    pub d_model: usize,
    /// Attention heads.
    pub heads: usize,
    /// Encoder layers.
    pub depth: usize,
    /// FFN hidden width.
    pub d_hidden: usize,
    /// Hidden width of the regression head.
    pub head_hidden: usize,
}

impl Default for PredictorConfig {
    /// A compact geometry that trains in seconds on one CPU core while
    /// retaining the architecture of the paper's predictor.
    fn default() -> Self {
        PredictorConfig {
            num_params: 21,
            d_model: 32,
            heads: 4,
            depth: 2,
            d_hidden: 64,
            head_hidden: 32,
        }
    }
}

/// The transformer surrogate model `f_θ` of the paper.
///
/// # Example
///
/// ```
/// use metadse::predictor::{PredictorConfig, TransformerPredictor};
///
/// let model = TransformerPredictor::new(PredictorConfig::default(), 7);
/// let x = vec![vec![0.5; 21], vec![0.1; 21]];
/// let out = model.predict(&x);
/// assert_eq!(out.len(), 2);
/// ```
#[derive(Debug)]
pub struct TransformerPredictor {
    config: PredictorConfig,
    token_embedding: Embedding,
    value_direction: Param,
    encoder: TransformerEncoder,
    head: Mlp,
}

impl TransformerPredictor {
    /// Creates a predictor with seeded initialization.
    pub fn new(config: PredictorConfig, seed: u64) -> TransformerPredictor {
        let mut rng = StdRng::seed_from_u64(seed);
        let token_embedding = Embedding::new(
            "predictor.token",
            config.num_params,
            config.d_model,
            &mut rng,
        );
        let dir = metadse_nn::init::normal(&[config.num_params, config.d_model], 0.5, &mut rng);
        let value_direction = Param::new(
            "predictor.value_direction",
            Tensor::param_from_vec(dir.to_vec(), &[config.num_params, config.d_model]),
        );
        let encoder = TransformerEncoder::new(
            "predictor.encoder",
            config.depth,
            config.d_model,
            config.heads,
            config.d_hidden,
            &mut rng,
        );
        let head = Mlp::new(
            "predictor.head",
            &[config.d_model, config.head_hidden, 1],
            &mut rng,
        );
        TransformerPredictor {
            config,
            token_embedding,
            value_direction,
            encoder,
            head,
        }
    }

    /// The predictor's geometry.
    pub fn config(&self) -> &PredictorConfig {
        &self.config
    }

    /// The underlying encoder (for masking and attention inspection).
    pub fn encoder(&self) -> &TransformerEncoder {
        &self.encoder
    }

    /// Installs an additive attention mask in **every** encoder layer
    /// (Algorithm 2 equips the self-attention operator with `M`).
    pub fn install_mask(&self, mask: Param) {
        for layer in self.encoder.layers() {
            layer.attention().set_mask(mask.clone());
        }
    }

    /// Removes any installed attention masks.
    pub fn clear_masks(&self) {
        for layer in self.encoder.layers() {
            layer.attention().clear_mask();
        }
    }

    /// The attention mask installed on each encoder layer, in layer order
    /// (handles: layers sharing one mask share its slot).
    pub fn masks(&self) -> Vec<Option<Param>> {
        self.encoder
            .layers()
            .iter()
            .map(|layer| layer.attention().mask())
            .collect()
    }

    /// Installs `masks[l]` on encoder layer `l` and clears the layers
    /// given `None`: reinstates a set captured by
    /// [`TransformerPredictor::masks`].
    ///
    /// # Panics
    ///
    /// Panics if `masks` does not hold one entry per encoder layer.
    pub fn set_masks(&self, masks: &[Option<Param>]) {
        let layers = self.encoder.layers();
        assert_eq!(layers.len(), masks.len(), "one mask entry per layer");
        for (layer, mask) in layers.iter().zip(masks) {
            match mask {
                Some(mask) => layer.attention().set_mask(mask.clone()),
                None => layer.attention().clear_mask(),
            }
        }
    }

    /// Enables attention recording on the last encoder layer (the layer
    /// WAM statistics are extracted from, per Fig. 4).
    pub fn set_record_attention(&self, record: bool) {
        self.encoder.last_attention().set_record_attention(record);
    }

    /// Attention probabilities of the last layer from the most recent
    /// recorded forward pass, `[batch, heads, seq, seq]`.
    pub fn last_attention(&self) -> Option<Tensor> {
        self.encoder.last_attention().last_attention()
    }

    /// Converts feature rows to the `[batch, seq]` input tensor.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is empty or any row has the wrong arity.
    pub fn batch_tensor(&self, batch: &[Vec<Elem>]) -> Tensor {
        assert!(!batch.is_empty(), "empty batch");
        let seq = self.config.num_params;
        let mut data = Vec::with_capacity(batch.len() * seq);
        for row in batch {
            assert_eq!(row.len(), seq, "feature row must have {seq} entries");
            data.extend_from_slice(row);
        }
        Tensor::from_vec(data, &[batch.len(), seq])
    }

    /// Differentiable forward pass: `[batch, seq]` values → `[batch]`
    /// predictions.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.ndim(), 2, "input must be [batch, seq]");
        let (batch, seq) = (x.shape()[0], x.shape()[1]);
        assert_eq!(seq, self.config.num_params, "token count mismatch");

        // Identity embeddings, shared across the batch.
        let ids: Vec<usize> = (0..seq).collect();
        let identity = self
            .token_embedding
            .forward(&ids)
            .reshape(&[1, seq, self.config.d_model])
            .broadcast_to(&[batch, seq, self.config.d_model]);
        // Value component: x[b, t] scales the parameter's value direction.
        let values = x.reshape(&[batch, seq, 1]).mul(&self.value_direction.get());
        let tokens = identity.add(&values);

        let encoded = self.encoder.forward(&tokens);
        let pooled = encoded.mean_axis(1, false); // [batch, d_model]
        self.head.forward(&pooled).reshape(&[batch])
    }

    /// Convenience forward from raw feature rows.
    pub fn forward_batch(&self, batch: &[Vec<Elem>]) -> Tensor {
        self.forward(&self.batch_tensor(batch))
    }

    /// Inference without graph construction.
    pub fn predict(&self, batch: &[Vec<Elem>]) -> Vec<Elem> {
        no_grad(|| self.forward_batch(batch)).to_vec()
    }

    /// Captures every parameter's values as plain `Vec<Elem>` buffers (in
    /// [`Module::params`] order). Unlike the `Rc`-backed tensors, the
    /// buffers are `Send`, so worker threads can rebuild an identical
    /// predictor from them via [`TransformerPredictor::load_values`].
    pub fn snapshot_values(&self) -> Vec<Vec<Elem>> {
        self.params().iter().map(|p| p.get().to_vec()).collect()
    }

    /// Loads parameter values captured by
    /// [`TransformerPredictor::snapshot_values`] into this predictor's
    /// parameter slots (as fresh trainable leaves).
    ///
    /// # Panics
    ///
    /// Panics if the buffer count or any buffer length disagrees with this
    /// predictor's parameters.
    pub fn load_values(&self, values: &[Vec<Elem>]) {
        let params = self.params();
        assert_eq!(params.len(), values.len(), "parameter count mismatch");
        for (p, v) in params.iter().zip(values) {
            p.set(Tensor::param_from_vec(v.clone(), &p.shape()));
        }
    }

    /// Mean-squared-error loss on a labeled batch (differentiable).
    pub fn mse_on(&self, x: &[Vec<Elem>], y: &[Elem]) -> Tensor {
        assert_eq!(x.len(), y.len(), "feature/label length mismatch");
        let pred = self.forward_batch(x);
        let target = Tensor::from_vec(y.to_vec(), &[y.len()]);
        metadse_nn::loss::mse(&pred, &target)
    }
}

impl Module for TransformerPredictor {
    fn params(&self) -> Vec<Param> {
        let mut ps = self.token_embedding.params();
        ps.push(self.value_direction.clone());
        ps.extend(self.encoder.params());
        ps.extend(self.head.params());
        // A WAM mask installed via install_mask is shared by every encoder
        // layer and would otherwise be listed once per layer; keep the
        // first occurrence of each name.
        let mut seen = std::collections::HashSet::new();
        ps.retain(|p| seen.insert(p.name().to_string()));
        ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metadse_nn::autograd::grad;

    fn small() -> TransformerPredictor {
        TransformerPredictor::new(
            PredictorConfig {
                num_params: 6,
                d_model: 8,
                heads: 2,
                depth: 1,
                d_hidden: 16,
                head_hidden: 8,
            },
            3,
        )
    }

    #[test]
    fn forward_shapes() {
        let m = small();
        let x = vec![vec![0.2; 6]; 4];
        let out = m.forward_batch(&x);
        assert_eq!(out.shape(), &[4]);
        assert_eq!(m.predict(&x).len(), 4);
    }

    #[test]
    fn default_config_matches_design_space() {
        let m = TransformerPredictor::new(PredictorConfig::default(), 0);
        assert_eq!(m.config().num_params, 21);
        let out = m.predict(&[vec![0.0; 21]]);
        assert_eq!(out.len(), 1);
        assert!(out[0].is_finite());
    }

    #[test]
    fn predictions_depend_on_inputs() {
        let m = small();
        let a = m.predict(&[vec![0.0; 6]])[0];
        let b = m.predict(&[vec![1.0; 6]])[0];
        assert!((a - b).abs() > 1e-9);
    }

    #[test]
    fn construction_is_seed_deterministic() {
        let a = small().predict(&[vec![0.3; 6]])[0];
        let b = small().predict(&[vec![0.3; 6]])[0];
        assert_eq!(a, b);
    }

    #[test]
    fn every_param_receives_gradient_from_mse() {
        let m = small();
        let x = vec![vec![0.1; 6], vec![0.9; 6]];
        let y = vec![1.0, 2.0];
        let loss = m.mse_on(&x, &y);
        let tensors: Vec<_> = m.params().iter().map(|p| p.get()).collect();
        let grads = grad(&loss, &tensors, false);
        for (p, g) in m.params().iter().zip(&grads) {
            assert!(
                g.to_vec().iter().any(|&v| v != 0.0),
                "parameter {} got zero gradient",
                p.name()
            );
        }
    }

    #[test]
    fn snapshot_values_rebuild_an_identical_predictor() {
        let original = small();
        // A differently seeded predictor becomes bit-identical after
        // loading the snapshot — the mechanism parallel MAML workers use.
        let rebuilt = TransformerPredictor::new(*original.config(), 999);
        let x = vec![vec![0.25; 6], vec![0.75; 6]];
        assert_ne!(original.predict(&x), rebuilt.predict(&x));
        rebuilt.load_values(&original.snapshot_values());
        assert_eq!(original.predict(&x), rebuilt.predict(&x));
        // Loaded values are fresh trainable leaves.
        for p in rebuilt.params() {
            assert!(p.get().requires_grad(), "{} lost requires_grad", p.name());
        }
    }

    #[test]
    fn attention_capture_roundtrip() {
        let m = small();
        m.set_record_attention(true);
        m.predict(&vec![vec![0.5; 6]; 3]);
        let a = m.last_attention().expect("attention recorded");
        assert_eq!(a.shape(), &[3, 2, 6, 6]);
    }

    #[test]
    fn strong_mask_changes_predictions() {
        let m = small();
        let x = vec![vec![0.4; 6]];
        let before = m.predict(&x)[0];
        let mut mask = vec![-1e9; 36];
        for i in 0..6 {
            mask[i * 6 + i] = 0.0;
        }
        m.install_mask(Param::new("wam", Tensor::from_vec(mask, &[6, 6])));
        let after = m.predict(&x)[0];
        assert!((before - after).abs() > 1e-9);
        m.clear_masks();
        let restored = m.predict(&x)[0];
        assert_eq!(restored, before);
    }

    #[test]
    fn can_overfit_a_tiny_task() {
        // Five-shot regression: the model must be able to memorize a
        // support set with plain gradient descent (the MAML inner loop).
        let m = small();
        let x: Vec<Vec<f64>> = (0..5)
            .map(|i| (0..6).map(|j| ((i * 6 + j) as f64 * 0.13) % 1.0).collect())
            .collect();
        let y = vec![0.5, 1.0, 1.5, 2.0, 2.5];
        let params = m.params();
        let mut last = f64::INFINITY;
        for _ in 0..300 {
            let loss = m.mse_on(&x, &y);
            last = loss.value();
            let tensors: Vec<_> = params.iter().map(|p| p.get()).collect();
            let grads = grad(&loss, &tensors, false);
            for (t, g) in tensors.iter().zip(&grads) {
                t.sub_assign_scaled(g, 0.02);
            }
        }
        assert!(last < 0.05, "support loss {last} did not shrink");
    }
}
