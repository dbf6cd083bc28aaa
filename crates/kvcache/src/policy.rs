//! The policy trait shared by all KV-cache pruning schemes.

use serde::{Deserialize, Serialize};
use unicaim_attention::Matrix;

/// A policy's decision for one decode step.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StepDecision {
    /// Token ids (logical positions) selected for exact attention.
    pub selected: Vec<usize>,
}

/// A KV-cache pruning policy.
///
/// The simulation harness owns the cache and the attention math; the policy
/// only makes decisions:
///
/// 1. [`Policy::prefill_keep`] — which prompt tokens survive prefill
///    (static pruning, paper Fig. 3a);
/// 2. [`Policy::select`] — which cached tokens each decode query attends to
///    (dynamic pruning, paper Fig. 3b);
/// 3. [`Policy::observe`] — the attention weights actually used, for
///    accumulated-score bookkeeping;
/// 4. [`Policy::evict`] — which resident token to overwrite when the cache
///    is full (step-wise static pruning, paper Fig. 3b).
///
/// # Harness ↔ policy contract
///
/// Every driver ([`simulate_decode`](crate::simulate_decode), the batched
/// [`DecodeEngine`](crate::DecodeEngine), and the incremental
/// [`DecodeSession`](crate::DecodeSession) serving API) holds the policy to
/// the following contract, enforced with typed
/// [`HarnessError`](crate::HarnessError)s rather than silent repair, so a
/// broken policy cannot hide behind quietly degraded metrics — but a
/// serving loop can retire the one offending sequence instead of crashing:
///
/// * **What the harness guarantees.** `scored` (in [`Policy::select`]) and
///   `resident` (in [`Policy::evict`]) list every resident token exactly
///   once, in **ascending token order**. `weights` (in [`Policy::observe`])
///   covers all residents of that step, softmax-normalized. Between steps
///   the resident set changes only through the policy's own decisions (plus
///   the harness inserting the one newly generated token per step).
/// * **What the policy must uphold.**
///   [`Policy::prefill_keep`] returns at most `budget` distinct prompt
///   token ids — a keep set over the cache capacity is
///   [`PrefillOverBudget`](crate::HarnessError::PrefillOverBudget), a
///   repeated id is
///   [`PrefillDuplicate`](crate::HarnessError::PrefillDuplicate), and an
///   id outside the prompt is
///   [`PrefillOutOfRange`](crate::HarnessError::PrefillOutOfRange).
///   [`Policy::select`] must return a subset of the scored resident tokens;
///   a non-resident selection is
///   [`SelectedNonResident`](crate::HarnessError::SelectedNonResident). An
///   empty selection is legal and yields a zero attention output.
///   [`Policy::evict`] must name a *resident* token (a non-resident victim
///   is [`EvictedNonResident`](crate::HarnessError::EvictedNonResident))
///   or return `None`, which drops the incoming token instead.
///
/// Policies must be [`Send`]: the [`WorkerPool`](crate::WorkerPool)
/// fans per-sequence sessions (each owning its policy) across
/// threads. Policy state is plain owned data in every shipped policy, so
/// this costs implementors nothing.
pub trait Policy: Send {
    /// A short display name for reports.
    fn name(&self) -> &'static str;

    /// Chooses which prefill tokens to keep, given the causal prefill
    /// attention-probability matrix (`seq × seq`, rows = queries) and a
    /// budget. Returns kept token ids (≤ budget).
    fn prefill_keep(&mut self, attn: &Matrix, budget: usize) -> Vec<usize>;

    /// Selects up to `k` of the scored resident tokens for exact attention.
    /// `scored` provides `(token_id, raw_score)` for every resident token,
    /// in ascending token order.
    fn select(&mut self, step: usize, scored: &[(usize, f32)], k: usize) -> StepDecision;

    /// Observes the normalized attention weights `(token_id, weight)` the
    /// harness computed over **all resident tokens** this step (the
    /// charge-domain accumulation sees every row, not just the selected
    /// ones).
    fn observe(&mut self, step: usize, weights: &[(usize, f32)]);

    /// When the cache is full and a new token needs a slot, returns the
    /// resident token to evict. `resident` lists resident token ids in
    /// ascending order. Returning `None` means "refuse to evict" and makes
    /// the harness drop the *incoming* token instead (StreamingLLM-style
    /// policies never do this; FullCache never gets asked).
    fn evict(&mut self, step: usize, resident: &[usize]) -> Option<usize>;

    /// Notifies the policy that a freshly generated token entered the cache
    /// (so recency protection and score tables can register it). Default:
    /// no-op.
    fn note_inserted(&mut self, token: usize) {
        let _ = token;
    }
}

/// Column sums of a causal attention matrix — the accumulated attention
/// score each key position received across all (or the last `window`)
/// queries. This is the quantity H2O/SnapKV/the paper's prefill stage rank
/// tokens by.
///
/// `window = None` accumulates over every query row; `Some(w)` over the last
/// `w` rows only (SnapKV's observation window).
#[must_use]
pub fn accumulated_prefill_scores(attn: &Matrix, window: Option<usize>) -> Vec<f64> {
    let seq = attn.rows();
    let start = window.map_or(0, |w| seq.saturating_sub(w));
    let mut acc = vec![0.0f64; attn.cols()];
    for t in start..seq {
        for (s, &p) in attn.row(t).iter().enumerate() {
            acc[s] += f64::from(p);
        }
    }
    acc
}

/// Keeps the `budget` highest-scoring indices (ties toward lower index),
/// returned in ascending index order.
///
/// Partial selection ([`partial_top_k_by`](unicaim_attention::kernels::partial_top_k_by))
/// under a [`f64::total_cmp`] order: O(n + k log k) instead of a full sort,
/// and deterministic even for NaN scores.
#[must_use]
pub fn top_indices_by_score(scores: &[f64], budget: usize) -> Vec<usize> {
    let mut idx = unicaim_attention::kernels::partial_top_k_by(scores.len(), budget, |a, b| {
        scores[b].total_cmp(&scores[a]).then(a.cmp(&b))
    });
    idx.sort_unstable();
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_attn() -> Matrix {
        // 3 queries over 3 keys (causal): key 0 is a strong sink.
        Matrix::from_rows(&[
            vec![1.0, 0.0, 0.0],
            vec![0.8, 0.2, 0.0],
            vec![0.6, 0.1, 0.3],
        ])
    }

    #[test]
    fn accumulated_scores_sum_columns() {
        let acc = accumulated_prefill_scores(&toy_attn(), None);
        assert!((acc[0] - 2.4).abs() < 1e-6);
        assert!((acc[1] - 0.3).abs() < 1e-6);
        assert!((acc[2] - 0.3).abs() < 1e-6);
    }

    #[test]
    fn windowed_scores_use_last_rows_only() {
        let acc = accumulated_prefill_scores(&toy_attn(), Some(1));
        assert!((acc[0] - 0.6).abs() < 1e-6);
        assert!((acc[2] - 0.3).abs() < 1e-6);
    }

    #[test]
    fn top_indices_orders_and_truncates() {
        let scores = vec![0.1, 0.9, 0.5, 0.9];
        assert_eq!(top_indices_by_score(&scores, 2), vec![1, 3]);
        assert_eq!(top_indices_by_score(&scores, 10), vec![0, 1, 2, 3]);
    }
}
