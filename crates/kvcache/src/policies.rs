//! Policy implementations: the paper's hybrid scheme and the baselines.
//!
//! All score rankings in this module are total orders: [`f32::total_cmp`]
//! with an explicit token/index tie-break, so a NaN-poisoned score makes a
//! deterministic (if garbage) decision instead of a run-dependent one.

use unicaim_attention::Matrix;

use crate::policy::{accumulated_prefill_scores, top_indices_by_score, Policy, StepDecision};
use crate::score::ScoreTable;

fn select_all(scored: &[(usize, f32)]) -> StepDecision {
    StepDecision {
        selected: scored.iter().map(|&(t, _)| t).collect(),
    }
}

/// A key that falls as `score` rises under [`f32::total_cmp`]: the
/// standard library's sign-magnitude transform, read as unsigned and
/// inverted. Equal keys mean equal bits.
fn descending_key(score: f32) -> u32 {
    let bits = score.to_bits();
    let ascending = if bits >> 31 == 1 {
        !bits
    } else {
        bits | 1 << 31
    };
    !ascending
}

/// The `k` highest-scoring tokens (total order, ties toward the lower
/// token id), returned in ascending token order.
///
/// Relies on `scored` being ascending by token, as the harness contract
/// guarantees: one walk in that order keeps every row above the k-th key
/// plus the first rows equal to it, which breaks ties toward the lower
/// token and yields the output already sorted. `keys` is scratch.
fn select_top_k(scored: &[(usize, f32)], k: usize, keys: &mut Vec<u32>) -> StepDecision {
    let k = k.min(scored.len());
    let mut selected = Vec::with_capacity(k);
    if k == 0 {
        return StepDecision { selected };
    }
    keys.clear();
    keys.extend(scored.iter().map(|&(_, s)| descending_key(s)));
    // Every key below the k-th one lands in `head`.
    let (head, &mut kth, _) = keys.select_nth_unstable(k - 1);
    let mut ties = k - head.iter().filter(|&&key| key < kth).count();
    for &(token, score) in scored {
        let key = descending_key(score);
        if key < kth {
            selected.push(token);
        } else if key == kth && ties > 0 {
            ties -= 1;
            selected.push(token);
        }
    }
    StepDecision { selected }
}

/// No pruning: every token is kept and attended to (the exact-attention
/// reference).
#[derive(Debug, Clone, Default)]
pub struct FullCache;

impl FullCache {
    /// Creates the policy.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl Policy for FullCache {
    fn name(&self) -> &'static str {
        "full"
    }

    fn prefill_keep(&mut self, attn: &Matrix, budget: usize) -> Vec<usize> {
        (0..attn.rows().min(budget)).collect()
    }

    fn select(&mut self, _step: usize, scored: &[(usize, f32)], _k: usize) -> StepDecision {
        select_all(scored)
    }

    fn observe(&mut self, _step: usize, _weights: &[(usize, f32)]) {}

    fn evict(&mut self, _step: usize, _resident: &[usize]) -> Option<usize> {
        None
    }
}

/// StreamingLLM (Xiao et al., 2023): a fixed sparse pattern keeping the
/// first `n_sinks` attention-sink tokens plus a recency window. Static, no
/// score bookkeeping — the pattern the TranCIM-style CIM baseline supports.
#[derive(Debug, Clone)]
pub struct StreamingLlm {
    n_sinks: usize,
}

impl StreamingLlm {
    /// Creates the policy with the given number of protected sink tokens.
    #[must_use]
    pub fn new(n_sinks: usize) -> Self {
        Self { n_sinks }
    }
}

impl Policy for StreamingLlm {
    fn name(&self) -> &'static str {
        "streaming_llm"
    }

    fn prefill_keep(&mut self, attn: &Matrix, budget: usize) -> Vec<usize> {
        let seq = attn.rows();
        let sinks = self.n_sinks.min(budget).min(seq);
        let recent = budget - sinks;
        let mut keep: Vec<usize> = (0..sinks).collect();
        keep.extend(seq.saturating_sub(recent)..seq);
        keep.sort_unstable();
        keep.dedup();
        keep
    }

    fn select(&mut self, _step: usize, scored: &[(usize, f32)], _k: usize) -> StepDecision {
        select_all(scored)
    }

    fn observe(&mut self, _step: usize, _weights: &[(usize, f32)]) {}

    fn evict(&mut self, _step: usize, resident: &[usize]) -> Option<usize> {
        // Evict the oldest non-sink token (the window slides).
        resident.iter().copied().find(|&t| t >= self.n_sinks)
    }
}

/// H2O (Zhang et al., 2024): keeps "heavy hitters" by accumulated attention
/// plus a protected recency budget.
#[derive(Debug, Clone)]
pub struct H2O {
    recent_budget: usize,
    table: ScoreTable,
}

impl H2O {
    /// Creates the policy; `recent_budget` tokens are protected from
    /// eviction by recency.
    #[must_use]
    pub fn new(recent_budget: usize) -> Self {
        Self {
            recent_budget,
            table: ScoreTable::accumulating(),
        }
    }
}

impl Policy for H2O {
    fn name(&self) -> &'static str {
        "h2o"
    }

    fn prefill_keep(&mut self, attn: &Matrix, budget: usize) -> Vec<usize> {
        let seq = attn.rows();
        let acc = accumulated_prefill_scores(attn, None);
        let recent = self.recent_budget.min(budget).min(seq);
        let recent_set: Vec<usize> = (seq - recent..seq).collect();
        let mut masked = acc.clone();
        for &t in &recent_set {
            masked[t] = f64::NEG_INFINITY; // already kept via recency
        }
        let mut keep = top_indices_by_score(&masked, budget - recent);
        keep.extend(recent_set);
        keep.sort_unstable();
        keep.dedup();
        for &t in &keep {
            self.table.insert(t, acc[t]);
        }
        keep
    }

    fn select(&mut self, _step: usize, scored: &[(usize, f32)], _k: usize) -> StepDecision {
        select_all(scored)
    }

    fn observe(&mut self, _step: usize, weights: &[(usize, f32)]) {
        for &(t, w) in weights {
            self.table.observe(t, f64::from(w));
        }
    }

    fn evict(&mut self, _step: usize, resident: &[usize]) -> Option<usize> {
        if resident.is_empty() {
            return None;
        }
        // Protect the most recent `recent_budget` tokens: the tail of the
        // ascending `resident` list.
        let cutoff = resident.len().saturating_sub(self.recent_budget);
        self.table.min_among(&resident[..cutoff.max(1)])
    }
}

/// SnapKV (Li et al., 2024): one-shot prefill compression ranking tokens by
/// the attention they receive from the last `obs_window` prompt queries
/// (the "observation window"), which is also kept verbatim. No decode-time
/// bookkeeping.
#[derive(Debug, Clone)]
pub struct SnapKv {
    obs_window: usize,
}

impl SnapKv {
    /// Creates the policy with the given observation-window length.
    #[must_use]
    pub fn new(obs_window: usize) -> Self {
        Self { obs_window }
    }
}

impl Policy for SnapKv {
    fn name(&self) -> &'static str {
        "snapkv"
    }

    fn prefill_keep(&mut self, attn: &Matrix, budget: usize) -> Vec<usize> {
        let seq = attn.rows();
        let window = self.obs_window.min(budget).min(seq);
        let window_set: Vec<usize> = (seq - window..seq).collect();
        let acc = accumulated_prefill_scores(attn, Some(window));
        let mut masked = acc;
        for &t in &window_set {
            masked[t] = f64::NEG_INFINITY;
        }
        let mut keep = top_indices_by_score(&masked, budget - window);
        keep.extend(window_set);
        keep.sort_unstable();
        keep.dedup();
        keep
    }

    fn select(&mut self, _step: usize, scored: &[(usize, f32)], _k: usize) -> StepDecision {
        select_all(scored)
    }

    fn observe(&mut self, _step: usize, _weights: &[(usize, f32)]) {}

    fn evict(&mut self, _step: usize, resident: &[usize]) -> Option<usize> {
        // SnapKV's cache grows during decode; the harness sizes its capacity
        // so this path is cold. Under a hard cap, shed the oldest resident.
        resident.first().copied()
    }
}

/// Oracle per-step dynamic top-k (Quest-style upper bound): exact scores,
/// exact top-k, no static pruning.
#[derive(Debug, Clone)]
pub struct OracleTopK;

impl OracleTopK {
    /// Creates the policy.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl Default for OracleTopK {
    fn default() -> Self {
        Self::new()
    }
}

impl Policy for OracleTopK {
    fn name(&self) -> &'static str {
        "oracle_topk"
    }

    fn prefill_keep(&mut self, attn: &Matrix, budget: usize) -> Vec<usize> {
        (0..attn.rows().min(budget)).collect()
    }

    fn select(&mut self, _step: usize, scored: &[(usize, f32)], k: usize) -> StepDecision {
        select_top_k(scored, k, &mut Vec::new())
    }

    fn observe(&mut self, _step: usize, _weights: &[(usize, f32)]) {}

    fn evict(&mut self, _step: usize, resident: &[usize]) -> Option<usize> {
        resident.first().copied()
    }
}

/// The paper's hybrid static-dynamic policy (Section III.A):
///
/// * **prefill**: keep the `H` tokens with the highest accumulated
///   attention scores (one-shot static pruning);
/// * **decode**: select the top-`k` resident tokens by similarity for exact
///   attention (dynamic pruning), maintain a table of accumulated attention
///   scores over *all* residents, and when the cache is full evict the
///   resident with the lowest accumulated score, writing the new token into
///   its slot (step-wise static pruning, fixed `H+M` cache).
///
/// # Examples
///
/// ```
/// use unicaim_attention::workloads::needle_task;
/// use unicaim_kvcache::{simulate_decode, HybridStaticDynamic, SimConfig};
///
/// let workload = needle_task(128, 16, 1);
/// let mut policy = HybridStaticDynamic::new(48, 16); // H, k
/// let result = simulate_decode(
///     &workload,
///     &mut policy,
///     &SimConfig::reserved_decode_slots(64, 16, 16),
/// )
/// .unwrap();
/// assert!(result.salient_recall > 0.9); // the needle survives pruning
/// ```
#[derive(Debug, Clone)]
pub struct HybridStaticDynamic {
    h: usize,
    k: usize,
    table: ScoreTable,
    /// The last inserted token, protected from eviction.
    newest: Option<usize>,
    /// Scratch keys for [`select_top_k`], reused across steps.
    topk_keys: Vec<u32>,
}

impl HybridStaticDynamic {
    /// Creates the policy with `h` heavy prefill tokens and top-`k`
    /// dynamic selection. The `M` reserved decode slots are the session's
    /// capacity beyond `h`. Scores accumulate as a plain running sum, and
    /// the one most recently inserted token is protected from eviction.
    #[must_use]
    pub fn new(h: usize, k: usize) -> Self {
        Self {
            h,
            k,
            table: ScoreTable::accumulating(),
            newest: None,
            topk_keys: Vec::new(),
        }
    }
}

impl Policy for HybridStaticDynamic {
    fn name(&self) -> &'static str {
        "hybrid_static_dynamic"
    }

    fn prefill_keep(&mut self, attn: &Matrix, budget: usize) -> Vec<usize> {
        let acc = accumulated_prefill_scores(attn, None);
        let keep = top_indices_by_score(&acc, self.h.min(budget));
        for &t in &keep {
            self.table.insert(t, acc[t]);
        }
        keep
    }

    fn select(&mut self, _step: usize, scored: &[(usize, f32)], k: usize) -> StepDecision {
        select_top_k(scored, k.min(self.k.max(1)), &mut self.topk_keys)
    }

    fn observe(&mut self, _step: usize, weights: &[(usize, f32)]) {
        for &(t, w) in weights {
            self.table.observe(t, f64::from(w));
        }
    }

    fn evict(&mut self, _step: usize, resident: &[usize]) -> Option<usize> {
        // The lowest-scored unprotected resident, or the lowest-scored of
        // all when every resident is protected.
        let unprotected = resident.iter().copied().filter(|&t| Some(t) != self.newest);
        let victim = self
            .table
            .min_of(unprotected)
            .or_else(|| self.table.min_of(resident.iter().copied()))?;
        self.table.remove(victim);
        Some(victim)
    }

    fn note_inserted(&mut self, token: usize) {
        self.table.insert(token, 0.0);
        self.newest = Some(token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sinky_attn(seq: usize) -> Matrix {
        // Column 0 is a strong sink; everything else uniform.
        let mut rows = Vec::with_capacity(seq);
        for t in 0..seq {
            let mut row = vec![0.0f32; seq];
            let rest = t as f32;
            row[0] = 0.6;
            if t > 0 {
                for (s, item) in row.iter_mut().enumerate().take(t + 1).skip(1) {
                    let _ = s;
                    *item = 0.4 / rest;
                }
            } else {
                row[0] = 1.0;
            }
            rows.push(row);
        }
        Matrix::from_rows(&rows)
    }

    #[test]
    fn full_cache_keeps_everything() {
        let mut p = FullCache::new();
        let keep = p.prefill_keep(&sinky_attn(8), 100);
        assert_eq!(keep, (0..8).collect::<Vec<_>>());
        let d = p.select(0, &[(0, 0.5), (3, 0.1)], 1);
        assert_eq!(d.selected, vec![0, 3]);
        assert_eq!(p.evict(0, &[0, 3]), None);
    }

    #[test]
    fn streaming_keeps_sinks_and_recents() {
        let mut p = StreamingLlm::new(2);
        let keep = p.prefill_keep(&sinky_attn(10), 5);
        assert_eq!(keep, vec![0, 1, 7, 8, 9]);
        // Evicts oldest non-sink.
        assert_eq!(p.evict(0, &[0, 1, 7, 8, 9]), Some(7));
    }

    #[test]
    fn h2o_keeps_heavy_hitters() {
        let mut p = H2O::new(2);
        let keep = p.prefill_keep(&sinky_attn(10), 4);
        assert!(keep.contains(&0), "sink must be kept as a heavy hitter");
        assert!(keep.contains(&9) && keep.contains(&8), "recents protected");
        assert_eq!(keep.len(), 4);
    }

    #[test]
    fn h2o_evicts_lowest_accumulated_protecting_recents() {
        let mut p = H2O::new(1);
        p.observe(0, &[(0, 0.9), (1, 0.05), (2, 0.05)]);
        p.observe(1, &[(0, 0.8), (1, 0.15), (2, 0.05)]);
        // Token 2 has the lowest accumulated score and 2 is protected as the
        // most recent -> candidates are [0, 1], lowest is 1.
        assert_eq!(p.evict(2, &[0, 1, 2]), Some(1));
    }

    #[test]
    fn snapkv_uses_observation_window() {
        // Build attention where token 3 is heavy ONLY for early queries and
        // token 1 heavy for late queries.
        let mut rows = vec![vec![0.0f32; 8]; 8];
        for (t, row) in rows.iter_mut().enumerate() {
            if t < 4 {
                row[3.min(t)] = 1.0;
            } else {
                row[1] = 0.8;
                row[0] = 0.2;
            }
        }
        let attn = Matrix::from_rows(&rows);
        let mut p = SnapKv::new(3);
        let keep = p.prefill_keep(&attn, 5);
        // Window = {5,6,7}; window queries attend to 1 (and a bit of 0).
        assert!(
            keep.contains(&1),
            "late-window heavy token must be kept: {keep:?}"
        );
        assert!(keep.contains(&5) && keep.contains(&6) && keep.contains(&7));
        assert!(
            !keep.contains(&3),
            "token heavy only for early queries must be dropped: {keep:?}"
        );
    }

    #[test]
    fn oracle_selects_exact_top_k() {
        let mut p = OracleTopK::new();
        let d = p.select(0, &[(10, 0.1), (11, 0.9), (12, 0.5), (13, 0.8)], 2);
        assert_eq!(d.selected, vec![11, 13]);
    }

    #[test]
    fn hybrid_prefill_keeps_top_h() {
        let mut p = HybridStaticDynamic::new(3, 2);
        let keep = p.prefill_keep(&sinky_attn(10), 100);
        assert_eq!(keep.len(), 3);
        assert!(keep.contains(&0), "sink has the highest accumulated score");
    }

    #[test]
    fn hybrid_selects_top_k_by_score() {
        let mut p = HybridStaticDynamic::new(4, 2);
        let d = p.select(0, &[(0, 0.3), (1, 0.9), (2, 0.8), (3, 0.1)], 2);
        assert_eq!(d.selected, vec![1, 2]);
    }

    #[test]
    fn hybrid_evicts_lowest_accumulated() {
        let mut p = HybridStaticDynamic::new(4, 2);
        p.observe(0, &[(0, 0.7), (1, 0.1), (2, 0.2)]);
        p.observe(1, &[(0, 0.6), (1, 0.05), (2, 0.35)]);
        assert_eq!(p.evict(2, &[0, 1, 2]), Some(1));
        // Evicted token's score is forgotten.
        assert_eq!(p.table.get(1), None);
    }

    #[test]
    fn hybrid_protects_newest_token() {
        let mut p = HybridStaticDynamic::new(4, 2);
        p.observe(0, &[(0, 0.9), (1, 0.1)]);
        p.note_inserted(5); // newest token, accumulated score 0
                            // Without protection 5 would be evicted (score 0); with protection
                            // the lowest non-protected is 1.
        assert_eq!(p.evict(1, &[0, 1, 5]), Some(1));
    }
}
