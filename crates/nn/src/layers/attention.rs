//! Multi-head self-attention with additive masking and attention capture.
//!
//! This layer is the heart of the MetaDSE surrogate predictor:
//!
//! * its attention probabilities can be recorded during pre-training, which
//!   is the statistic the workload-adaptive architectural mask (WAM) is
//!   built from, and
//! * an additive logit mask can be installed as a **learnable parameter**,
//!   which is exactly how WAM adaptation fine-tunes the model on a new
//!   workload.

use std::cell::{Cell, RefCell};

use rand::Rng;

use super::{Linear, Module, Param};
use crate::{Elem, Tensor};

/// Multi-head scaled-dot-product self-attention.
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    heads: usize,
    d_model: usize,
    mask: RefCell<Option<Param>>,
    record_attention: Cell<bool>,
    last_attention: RefCell<Option<Tensor>>,
}

impl MultiHeadAttention {
    /// Creates an attention layer with `heads` heads over `d_model`
    /// features.
    ///
    /// # Panics
    ///
    /// Panics if `d_model` is not divisible by `heads`.
    pub fn new<R: Rng + ?Sized>(
        name: &str,
        d_model: usize,
        heads: usize,
        rng: &mut R,
    ) -> MultiHeadAttention {
        assert!(
            heads > 0 && d_model.is_multiple_of(heads),
            "d_model {d_model} must divide into {heads} heads"
        );
        MultiHeadAttention {
            wq: Linear::new(&format!("{name}.wq"), d_model, d_model, true, rng),
            wk: Linear::new(&format!("{name}.wk"), d_model, d_model, true, rng),
            wv: Linear::new(&format!("{name}.wv"), d_model, d_model, true, rng),
            wo: Linear::new(&format!("{name}.wo"), d_model, d_model, true, rng),
            heads,
            d_model,
            mask: RefCell::new(None),
            record_attention: Cell::new(false),
            last_attention: RefCell::new(None),
        }
    }

    /// Number of attention heads.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// Model (feature) dimension.
    pub fn d_model(&self) -> usize {
        self.d_model
    }

    /// Installs an additive logit mask of shape `[seq, seq]`.
    ///
    /// When the held tensor requires gradients (a WAM mask set "learnable"),
    /// it is reported by [`Module::params`] and trains with the rest of the
    /// model.
    pub fn set_mask(&self, mask: Param) {
        assert_eq!(mask.shape().len(), 2, "attention mask must be 2-D");
        *self.mask.borrow_mut() = Some(mask);
    }

    /// Removes any installed mask.
    pub fn clear_mask(&self) {
        *self.mask.borrow_mut() = None;
    }

    /// The currently installed mask, if any.
    pub fn mask(&self) -> Option<Param> {
        self.mask.borrow().clone()
    }

    /// Enables/disables recording of attention probabilities on forward.
    pub fn set_record_attention(&self, record: bool) {
        self.record_attention.set(record);
    }

    /// Detached attention probabilities `[batch, heads, seq, seq]` from the
    /// most recent forward pass with recording enabled.
    pub fn last_attention(&self) -> Option<Tensor> {
        self.last_attention.borrow().clone()
    }

    /// Applies self-attention to `x` of shape `[batch, seq, d_model]`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not rank 3 with trailing dimension `d_model`, or if
    /// an installed mask does not match `[seq, seq]`.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.ndim(), 3, "attention input must be [batch, seq, d_model]");
        let (batch, seq, d) = (x.shape()[0], x.shape()[1], x.shape()[2]);
        assert_eq!(d, self.d_model, "feature dim mismatch");
        let dk = self.d_model / self.heads;

        let split = |t: Tensor| -> Tensor {
            // [b, s, d] -> [b, s, h, dk] -> [b, h, s, dk]
            t.reshape(&[batch, seq, self.heads, dk]).transpose(1, 2)
        };
        // Each intermediate is dropped as soon as its consumer has run (q
        // and k with the logits, the logits with the probabilities, v and
        // the probabilities with the context), and v is computed only
        // where it is consumed. Without a graph (inference) that frees the
        // buffers at once and caps the block's live set; with one, its
        // nodes keep them alive anyway.
        let probs = {
            let scale = 1.0 / (dk as Elem).sqrt();
            let mut logits = split(self.wq.forward(x))
                .matmul_nt(&split(self.wk.forward(x)))
                .mul_scalar(scale);
            if let Some(mask) = self.mask.borrow().as_ref() {
                let m = mask.get();
                assert_eq!(
                    m.shape(),
                    &[seq, seq],
                    "attention mask shape must be [{seq}, {seq}]"
                );
                // [s, s] broadcasts over [b, h, s, s].
                logits = logits.add(&m);
            }
            logits.softmax_fused(3)
        };
        if self.record_attention.get() {
            *self.last_attention.borrow_mut() = Some(probs.detach());
        }
        let ctx = probs.matmul(&split(self.wv.forward(x))); // [b, h, s, dk]
        drop(probs);
        let merged = ctx.transpose(1, 2).reshape(&[batch, seq, self.d_model]);
        self.wo.forward(&merged)
    }
}

impl Module for MultiHeadAttention {
    fn params(&self) -> Vec<Param> {
        let mut ps = Vec::new();
        ps.extend(self.wq.params());
        ps.extend(self.wk.params());
        ps.extend(self.wv.params());
        ps.extend(self.wo.params());
        if let Some(mask) = self.mask.borrow().as_ref() {
            if mask.get().requires_grad() {
                ps.push(mask.clone());
            }
        }
        ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autograd::grad;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layer(seed: u64) -> MultiHeadAttention {
        let mut rng = StdRng::seed_from_u64(seed);
        MultiHeadAttention::new("attn", 8, 2, &mut rng)
    }

    #[test]
    fn forward_preserves_shape() {
        let attn = layer(1);
        let x = Tensor::ones(&[2, 5, 8]);
        assert_eq!(attn.forward(&x).shape(), &[2, 5, 8]);
    }

    #[test]
    fn attention_recording_is_opt_in() {
        let attn = layer(2);
        let mut rng = StdRng::seed_from_u64(9);
        let x = Tensor::randn(&[1, 4, 8], &mut rng);
        attn.forward(&x);
        assert!(attn.last_attention().is_none());
        attn.set_record_attention(true);
        attn.forward(&x);
        let a = attn.last_attention().expect("recorded");
        assert_eq!(a.shape(), &[1, 2, 4, 4]);
        assert!(!a.requires_grad());
        // Rows are probability distributions.
        let v = a.to_vec();
        for row in v.chunks(4) {
            let s: f64 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn strong_negative_mask_blocks_attention() {
        let attn = layer(3);
        attn.set_record_attention(true);
        // Mask out everything except the diagonal.
        let mut m = vec![-1e9; 16];
        for i in 0..4 {
            m[i * 4 + i] = 0.0;
        }
        attn.set_mask(Param::new("mask", Tensor::from_vec(m, &[4, 4])));
        let mut rng = StdRng::seed_from_u64(10);
        let x = Tensor::randn(&[1, 4, 8], &mut rng);
        attn.forward(&x);
        let a = attn.last_attention().unwrap().to_vec();
        for (i, row) in a.chunks(4).enumerate() {
            let head_row = i % 4;
            assert!(
                (row[head_row] - 1.0).abs() < 1e-6,
                "diagonal should dominate"
            );
        }
    }

    #[test]
    fn learnable_mask_joins_params_and_gets_gradients() {
        let attn = layer(4);
        let mask = Param::new("mask", Tensor::param_from_vec(vec![0.0; 9], &[3, 3]));
        attn.set_mask(mask.clone());
        assert_eq!(attn.params().len(), 9, "8 linear params + mask");
        let mut rng = StdRng::seed_from_u64(11);
        let x = Tensor::randn(&[1, 3, 8], &mut rng);
        let loss = attn.forward(&x).squared_norm();
        let g = grad(&loss, &[mask.get()], false);
        assert!(g[0].to_vec().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn frozen_mask_stays_out_of_params() {
        let attn = layer(5);
        attn.set_mask(Param::new("mask", Tensor::zeros(&[3, 3])));
        assert_eq!(attn.params().len(), 8);
        attn.clear_mask();
        assert!(attn.mask().is_none());
    }
}
