//! Exact (dense) attention kernels and a weight-carrying multi-head layer.

use serde::{Deserialize, Serialize};

use crate::kernels::{self, RowView};
use crate::matrix::{softmax_in_place, Matrix};
use crate::AttentionError;

/// Attention scores of one query against a set of keys:
/// `q · kᵀ / √d` (the paper's Eq. 1 similarity, scaled as usual).
///
/// # Panics
///
/// Panics if any key's length differs from the query's.
#[must_use]
pub fn attention_scores(query: &[f32], keys: &[&[f32]]) -> Vec<f32> {
    let scale = 1.0 / (query.len() as f32).sqrt();
    keys.iter().map(|k| Matrix::dot(query, k) * scale).collect()
}

/// Exact single-query attention output: `softmax(q·Kᵀ/√d) · V`.
///
/// `keys` and `values` must be parallel slices of equal length; an empty key
/// set yields a zero vector.
///
/// # Panics
///
/// Panics if `keys.len() != values.len()` or dimensions disagree.
#[must_use]
pub fn attention_output(query: &[f32], keys: &[&[f32]], values: &[&[f32]]) -> Vec<f32> {
    assert_eq!(keys.len(), values.len(), "keys/values must be parallel");
    if keys.is_empty() {
        return vec![0.0; query.len()];
    }
    let mut weights = attention_scores(query, keys);
    softmax_in_place(&mut weights);
    let dim = values[0].len();
    let mut out = vec![0.0f32; dim];
    for (w, v) in weights.iter().zip(values) {
        assert_eq!(v.len(), dim, "all values must share a dimension");
        for (o, &x) in out.iter_mut().zip(*v) {
            *o += w * x;
        }
    }
    out
}

/// Shape configuration of a multi-head attention layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttentionConfig {
    /// Model (embedding) dimension.
    pub d_model: usize,
    /// Number of attention heads; must divide `d_model`.
    pub n_heads: usize,
}

impl AttentionConfig {
    /// Per-head dimension.
    #[must_use]
    pub fn d_head(&self) -> usize {
        self.d_model / self.n_heads
    }

    /// Validates that heads divide the model dimension.
    ///
    /// # Errors
    ///
    /// Returns [`AttentionError::ShapeMismatch`] otherwise.
    pub fn validate(&self) -> Result<(), AttentionError> {
        if self.n_heads == 0 || !self.d_model.is_multiple_of(self.n_heads) {
            return Err(AttentionError::ShapeMismatch {
                context: format!(
                    "n_heads {} must be nonzero and divide d_model {}",
                    self.n_heads, self.d_model
                ),
            });
        }
        Ok(())
    }
}

/// A multi-head attention layer with seeded random projections.
///
/// Weights are initialized deterministically from the seed so experiments
/// are reproducible. The layer exposes both the fused forward pass and the
/// per-head query/key/value projections that the KV-cache policies need.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiHeadAttention {
    config: AttentionConfig,
    w_q: Matrix,
    w_k: Matrix,
    w_v: Matrix,
    w_o: Matrix,
}

impl MultiHeadAttention {
    /// Creates a layer with seeded normal weights (std `1/√d_model`).
    ///
    /// # Errors
    ///
    /// Returns [`AttentionError::ShapeMismatch`] for an invalid config.
    pub fn new(config: AttentionConfig, seed: u64) -> Result<Self, AttentionError> {
        config.validate()?;
        let d = config.d_model;
        let scale = 1.0 / (d as f32).sqrt();
        Ok(Self {
            config,
            w_q: Matrix::random_normal(d, d, scale, seed.wrapping_mul(4).wrapping_add(1)),
            w_k: Matrix::random_normal(d, d, scale, seed.wrapping_mul(4).wrapping_add(2)),
            w_v: Matrix::random_normal(d, d, scale, seed.wrapping_mul(4).wrapping_add(3)),
            w_o: Matrix::random_normal(d, d, scale, seed.wrapping_mul(4).wrapping_add(4)),
        })
    }

    /// The layer's shape configuration.
    #[must_use]
    pub fn config(&self) -> AttentionConfig {
        self.config
    }

    /// Projects hidden states (`seq × d_model`) to queries.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches from the matrix product.
    pub fn project_q(&self, hidden: &Matrix) -> Result<Matrix, AttentionError> {
        hidden.matmul(&self.w_q)
    }

    /// Projects hidden states to keys.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches from the matrix product.
    pub fn project_k(&self, hidden: &Matrix) -> Result<Matrix, AttentionError> {
        hidden.matmul(&self.w_k)
    }

    /// Projects hidden states to values.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches from the matrix product.
    pub fn project_v(&self, hidden: &Matrix) -> Result<Matrix, AttentionError> {
        hidden.matmul(&self.w_v)
    }

    /// Full causal self-attention over a sequence of hidden states
    /// (`seq × d_model` in, same shape out).
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches from the projections.
    pub fn forward(&self, hidden: &Matrix) -> Result<Matrix, AttentionError> {
        let seq = hidden.rows();
        let d = self.config.d_model;
        let dh = self.config.d_head();
        let q = self.project_q(hidden)?;
        let k = self.project_k(hidden)?;
        let v = self.project_v(hidden)?;
        let scale = 1.0 / (dh as f32).sqrt();
        let mut concat = Matrix::zeros(seq, d);
        if seq == 0 {
            // Nothing to attend over; also keeps the per-head buffer
            // slicing below in bounds (the projections are empty).
            return concat.matmul(&self.w_o);
        }
        let mut weights = Vec::with_capacity(seq);
        let backend = kernels::active_backend();
        // Per head, the projection rows are strided slices of the flat
        // `seq × d_model` buffers; the fused kernel attends over them
        // without gathering per-token slices.
        for h in 0..self.config.n_heads {
            let lo = h * dh;
            let hi = lo + dh;
            let keys = RowView::new(&k.as_slice()[lo..], d, dh);
            let values = RowView::new(&v.as_slice()[lo..], d, dh);
            for t in 0..seq {
                let q_t = &q.row(t)[lo..hi];
                backend.attend_prefix(
                    q_t,
                    keys,
                    values,
                    t + 1,
                    scale,
                    &mut weights,
                    &mut concat.row_mut(t)[lo..hi],
                );
            }
        }
        concat.matmul(&self.w_o)
    }

    /// The causal attention-probability matrix of head `head` over the
    /// sequence (`seq × seq`, rows sum to 1, upper triangle zero). This is
    /// what prefill-stage static pruning accumulates (paper Fig. 3a).
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches from the projections.
    pub fn attention_matrix(&self, hidden: &Matrix, head: usize) -> Result<Matrix, AttentionError> {
        if head >= self.config.n_heads {
            return Err(AttentionError::IndexOutOfRange {
                index: head,
                len: self.config.n_heads,
            });
        }
        let seq = hidden.rows();
        let d = self.config.d_model;
        let dh = self.config.d_head();
        let lo = head * dh;
        let scale = 1.0 / (dh as f32).sqrt();
        let mut probs = Matrix::zeros(seq, seq);
        if seq == 0 {
            return Ok(probs);
        }
        let q = self.project_q(hidden)?;
        let k = self.project_k(hidden)?;
        kernels::active_backend().probs_staircase(
            RowView::new(&q.as_slice()[lo..], d, dh),
            seq,
            RowView::new(&k.as_slice()[lo..], d, dh),
            1,
            scale,
            probs.as_mut_slice(),
            seq,
        );
        Ok(probs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scores_scale_by_sqrt_d() {
        let q = vec![1.0f32, 0.0, 0.0, 0.0];
        let k = vec![2.0f32, 0.0, 0.0, 0.0];
        let s = attention_scores(&q, &[&k]);
        assert!((s[0] - 1.0).abs() < 1e-6); // 2 / sqrt(4)
    }

    #[test]
    fn output_is_convex_combination() {
        let q = vec![0.3f32, -0.7];
        let keys = [vec![1.0f32, 0.0], vec![0.0f32, 1.0], vec![0.5f32, 0.5]];
        let values = [vec![1.0f32, 2.0], vec![3.0f32, 4.0], vec![5.0f32, 6.0]];
        let kr: Vec<&[f32]> = keys.iter().map(Vec::as_slice).collect();
        let vr: Vec<&[f32]> = values.iter().map(Vec::as_slice).collect();
        let out = attention_output(&q, &kr, &vr);
        // Each output coordinate lies inside the convex hull of the values.
        assert!(out[0] > 1.0 && out[0] < 5.0);
        assert!(out[1] > 2.0 && out[1] < 6.0);
    }

    #[test]
    fn single_key_attention_returns_value() {
        let q = vec![0.1f32, 0.2];
        let k = vec![1.0f32, -1.0];
        let v = vec![7.0f32, 9.0];
        let out = attention_output(&q, &[&k], &[&v]);
        assert_eq!(out, vec![7.0, 9.0]);
    }

    #[test]
    fn empty_keys_give_zero_output() {
        let out = attention_output(&[1.0, 2.0], &[], &[]);
        assert_eq!(out, vec![0.0, 0.0]);
    }

    #[test]
    fn config_validation() {
        assert!(AttentionConfig {
            d_model: 64,
            n_heads: 4
        }
        .validate()
        .is_ok());
        assert!(AttentionConfig {
            d_model: 64,
            n_heads: 5
        }
        .validate()
        .is_err());
        assert!(AttentionConfig {
            d_model: 64,
            n_heads: 0
        }
        .validate()
        .is_err());
    }

    #[test]
    fn empty_sequence_is_handled() {
        let cfg = AttentionConfig {
            d_model: 8,
            n_heads: 2,
        };
        let layer = MultiHeadAttention::new(cfg, 1).unwrap();
        let empty = Matrix::zeros(0, 8);
        let out = layer.forward(&empty).unwrap();
        assert_eq!((out.rows(), out.cols()), (0, 8));
        let probs = layer.attention_matrix(&empty, 1).unwrap();
        assert_eq!((probs.rows(), probs.cols()), (0, 0));
    }

    #[test]
    fn forward_preserves_shape_and_is_deterministic() {
        let cfg = AttentionConfig {
            d_model: 32,
            n_heads: 4,
        };
        let layer = MultiHeadAttention::new(cfg, 5).unwrap();
        let hidden = Matrix::random_normal(6, 32, 1.0, 9);
        let out1 = layer.forward(&hidden).unwrap();
        let out2 = layer.forward(&hidden).unwrap();
        assert_eq!(out1.rows(), 6);
        assert_eq!(out1.cols(), 32);
        assert_eq!(out1, out2);
    }

    #[test]
    fn attention_matrix_is_causal_stochastic() {
        let cfg = AttentionConfig {
            d_model: 16,
            n_heads: 2,
        };
        let layer = MultiHeadAttention::new(cfg, 3).unwrap();
        let hidden = Matrix::random_normal(5, 16, 1.0, 4);
        let probs = layer.attention_matrix(&hidden, 1).unwrap();
        for t in 0..5 {
            let row_sum: f32 = probs.row(t).iter().sum();
            assert!((row_sum - 1.0).abs() < 1e-5, "row {t} sums to {row_sum}");
            for s in (t + 1)..5 {
                assert_eq!(
                    probs.get(t, s),
                    0.0,
                    "future position ({t},{s}) must be masked"
                );
            }
        }
    }

    #[test]
    fn attention_matrix_bad_head_rejected() {
        let cfg = AttentionConfig {
            d_model: 16,
            n_heads: 2,
        };
        let layer = MultiHeadAttention::new(cfg, 3).unwrap();
        let hidden = Matrix::random_normal(3, 16, 1.0, 4);
        assert!(layer.attention_matrix(&hidden, 2).is_err());
    }
}
