//! The single-sequence decode harness: configuration, aggregate metrics,
//! and the run-to-completion [`simulate_decode`] wrapper over the
//! incremental [`DecodeSession`](crate::DecodeSession) API.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};
use unicaim_attention::kernels::{self, RowView};
use unicaim_attention::metrics::{cosine_similarity, relative_l2_error, set_f1, Mean};
use unicaim_attention::workloads::{DecodeWorkload, TokenRows};
use unicaim_attention::{Matrix, Precision};

use crate::error::HarnessError;
use crate::policy::Policy;
use crate::session::DecodeSession;

/// Harness configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Physical KV-cache capacity in tokens (slots).
    pub capacity: usize,
    /// Dynamic top-k width passed to the policy each step.
    pub k: usize,
    /// Prefill keep budget handed to the policy. Defaults to `capacity`
    /// (see [`SimConfig::new`]); use
    /// [`SimConfig::reserved_decode_slots`] or
    /// [`SimConfig::with_prefill_budget`] to hold back decode slots the
    /// prefill stage must not fill.
    pub prefill_budget: usize,
    /// Key-arena storage precision of the session's
    /// [`KvStore`](unicaim_attention::KvStore): every per-step score
    /// (resident scan, selection attention, observed weights) is computed
    /// against keys at this precision, while values and the
    /// exact-attention reference stay `f32` — the software twin of the
    /// array's reduced-precision cells. Defaults to
    /// [`Precision::F32`].
    pub precision: Precision,
}

impl SimConfig {
    /// A config with `capacity` slots and top-`k` selection; the prefill
    /// budget defaults to the full `capacity` (no slots are reserved for
    /// decode — a policy like the paper's hybrid scheme typically wants
    /// [`SimConfig::reserved_decode_slots`] instead).
    #[must_use]
    pub fn new(capacity: usize, k: usize) -> Self {
        Self {
            capacity,
            k,
            prefill_budget: capacity,
            precision: Precision::F32,
        }
    }

    /// A config with `capacity` slots and top-`k` selection that reserves
    /// `m` decode slots: the prefill budget is `capacity - m` (saturating),
    /// the paper's fixed `H + M` cache split.
    ///
    /// ```
    /// use unicaim_kvcache::SimConfig;
    /// let cfg = SimConfig::reserved_decode_slots(64, 16, 16);
    /// assert_eq!(cfg.prefill_budget, 48);
    /// assert_eq!(cfg, SimConfig::new(64, 16).with_prefill_budget(48));
    /// ```
    #[must_use]
    pub fn reserved_decode_slots(capacity: usize, k: usize, m: usize) -> Self {
        Self {
            capacity,
            k,
            prefill_budget: capacity.saturating_sub(m),
            precision: Precision::F32,
        }
    }

    /// Sets the prefill budget (builder-style).
    #[must_use]
    pub fn with_prefill_budget(mut self, budget: usize) -> Self {
        self.prefill_budget = budget;
        self
    }

    /// Sets the key-arena storage precision (builder-style).
    ///
    /// ```
    /// use unicaim_attention::Precision;
    /// use unicaim_kvcache::SimConfig;
    /// let cfg = SimConfig::new(64, 16).with_precision(Precision::Int8);
    /// assert_eq!(cfg.precision, Precision::Int8);
    /// ```
    #[must_use]
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }
}

/// Capacity for a relative cache-size sweep: `ratio` of the workload's total
/// token count, floored at 8 tokens.
#[must_use]
pub fn ratio_capacity(workload: &DecodeWorkload, ratio: f64) -> usize {
    ((workload.total_tokens() as f64 * ratio).round() as usize).max(8)
}

/// Aggregate result of one simulated decode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// Policy display name.
    pub policy: String,
    /// Workload name.
    pub workload: String,
    /// Mean cosine similarity between pruned and full attention outputs.
    pub output_cosine: f64,
    /// Mean relative L2 error of the pruned attention output.
    pub output_rel_error: f64,
    /// Mean recall of ground-truth salient tokens among *selected* tokens at
    /// answer steps.
    pub salient_recall: f64,
    /// Mean F1 of selected-vs-salient restricted to the salient universe.
    pub salient_f1: f64,
    /// Fraction of answer steps at which *every* salient token was selected.
    pub retrieval_accuracy: f64,
    /// Mean number of tokens selected per step.
    pub mean_selected: f64,
    /// Mean resident tokens across steps.
    pub mean_resident: f64,
    /// Number of decode steps simulated.
    pub steps: usize,
    /// Number of *answer* steps (steps with a non-empty salient set) that the
    /// salience means aggregate over. Distinguishes "recall was zero" from
    /// "the workload had nothing to retrieve": when `answer_steps == 0`,
    /// `salient_recall`, `salient_f1`, and `retrieval_accuracy` are all
    /// vacuously `0.0` and should not be compared across policies.
    pub answer_steps: usize,
}

/// The running means behind a [`SimResult`]: one
/// [`record_step`](DecodeMetrics::record_step) per completed decode step,
/// then [`finish`](DecodeMetrics::finish). The software
/// [`DecodeSession`] and the hardware engine both aggregate through it,
/// so they apply the same salience rules.
#[derive(Debug)]
pub struct DecodeMetrics {
    /// Every token salient at some step (the F1 universe).
    salient_universe: BTreeSet<usize>,
    cos: Mean,
    rel: Mean,
    recall: Mean,
    f1: Mean,
    hits: Mean,
    n_selected: Mean,
    n_resident: Mean,
}

impl DecodeMetrics {
    /// Empty means for one decode of `workload`.
    #[must_use]
    pub fn new(workload: &DecodeWorkload) -> Self {
        Self {
            salient_universe: workload.salient_at.iter().flatten().copied().collect(),
            cos: Mean::new(),
            rel: Mean::new(),
            recall: Mean::new(),
            f1: Mean::new(),
            hits: Mean::new(),
            n_selected: Mean::new(),
            n_resident: Mean::new(),
        }
    }

    /// Records one decode step: `resident` tokens were scored, `selected`
    /// were attended to produce `output` (compared with the exact
    /// `reference`), and `salient` is the step's ground-truth salient set.
    /// A step with an empty salient set is not an answer step: it moves
    /// no salience mean. At an answer step, recall counts the salient
    /// tokens among the selected ones, F1 compares the selected tokens
    /// inside the salient universe with the salient set, and the step is
    /// a hit when recall reaches 1.
    pub fn record_step(
        &mut self,
        resident: usize,
        selected: &[usize],
        output: &[f32],
        reference: &[f32],
        salient: &BTreeSet<usize>,
    ) {
        self.n_resident.push(resident as f64);
        self.n_selected.push(selected.len() as f64);
        self.cos.push(cosine_similarity(output, reference));
        self.rel.push(relative_l2_error(output, reference));
        if !salient.is_empty() {
            let selected: BTreeSet<usize> = selected.iter().copied().collect();
            let s = set_f1(&(&selected & salient), salient);
            self.recall.push(s.recall);
            let predicted: BTreeSet<usize> = selected
                .intersection(&self.salient_universe)
                .copied()
                .collect();
            self.f1.push(set_f1(&predicted, salient).f1);
            self.hits.push(if s.recall >= 1.0 { 1.0 } else { 0.0 });
        }
    }

    /// The aggregate result of `policy` over `workload`, averaged over
    /// the recorded steps.
    #[must_use]
    pub fn finish(self, policy: &str, workload: &DecodeWorkload) -> SimResult {
        SimResult {
            policy: policy.to_owned(),
            workload: workload.name.clone(),
            output_cosine: self.cos.value(),
            output_rel_error: self.rel.value(),
            salient_recall: self.recall.value(),
            salient_f1: self.f1.value(),
            retrieval_accuracy: self.hits.value(),
            mean_selected: self.n_selected.value(),
            mean_resident: self.n_resident.value(),
            steps: workload.decode_queries.len(),
            // Saturating conversion: one observation is pushed per decode
            // step, and steps are usize-indexed, so the count fits on
            // every real target (the clamp exists only to stay panic-free).
            answer_steps: usize::try_from(self.recall.count()).unwrap_or(usize::MAX),
        }
    }
}

/// Runs `policy` over `workload` with the given configuration.
///
/// The harness owns the KV store and all attention math; the policy only
/// decides what to keep, select, and evict (see [`Policy`]). The decode-step
/// order mirrors the UniCAIM hardware flow: score residents → select →
/// exact attention over the selection → observe weights over all residents
/// → insert the newly generated token (evicting on overflow).
///
/// This is a thin wrapper over the incremental
/// [`DecodeSession`](crate::DecodeSession) lifecycle: `prefill`, `step`
/// until done, `finish`.
///
/// # Errors
///
/// Propagates the first harness ↔ policy contract violation as a
/// [`HarnessError`] (prefill keep set over capacity, non-resident selection
/// or eviction, …) instead of panicking.
pub fn simulate_decode(
    workload: &DecodeWorkload,
    policy: &mut dyn Policy,
    config: &SimConfig,
) -> Result<SimResult, HarnessError> {
    let mut session = DecodeSession::prefill_borrowed(workload, policy, config)?;
    session.run_to_completion()?;
    Ok(session.finish())
}

/// The causal prefill attention-probability matrix of a workload (what the
/// prefill static-pruning stage ranks tokens with).
///
/// The prompt keys are flattened into a contiguous arena once, then
/// [`KernelBackend::probs_staircase`](kernels::KernelBackend::probs_staircase)
/// fills row `t` with the softmax of prompt query `t` (read in place) over
/// keys `0..=t`; the future stays masked at zero.
#[must_use]
pub fn prefill_attention_matrix(workload: &DecodeWorkload) -> Matrix {
    let seq = workload.prefill_keys.len();
    let dim = workload.dim;
    let mut arena = Vec::with_capacity(seq * dim);
    for k in &workload.prefill_keys {
        arena.extend_from_slice(k);
    }
    let mut probs = Matrix::zeros(seq, seq);
    kernels::active_backend().probs_staircase(
        TokenRows::new(&workload.prefill_queries[..seq], dim),
        seq,
        RowView::contiguous(&arena, dim),
        1,
        1.0 / (dim as f32).sqrt(),
        probs.as_mut_slice(),
        seq,
    );
    probs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::{FullCache, HybridStaticDynamic, OracleTopK, SnapKv, StreamingLlm, H2O};
    use unicaim_attention::workloads::{multi_hop_task, needle_task, summary_task};

    #[test]
    fn full_cache_is_exact() {
        let w = needle_task(96, 12, 1);
        let mut p = FullCache::new();
        let r = simulate_decode(&w, &mut p, &SimConfig::new(w.total_tokens(), usize::MAX)).unwrap();
        assert!(
            r.output_cosine > 0.999,
            "full cache must match the reference, {r:?}"
        );
        assert!(r.output_rel_error < 1e-3);
        assert!((r.salient_recall - 1.0).abs() < 1e-12);
        assert!((r.retrieval_accuracy - 1.0).abs() < 1e-12);
    }

    #[test]
    fn oracle_topk_tracks_reference_closely() {
        let w = needle_task(128, 16, 2);
        let mut p = OracleTopK::new();
        let r = simulate_decode(&w, &mut p, &SimConfig::new(w.total_tokens(), 16)).unwrap();
        assert!(r.output_cosine > 0.95, "{r:?}");
        assert!(r.salient_recall > 0.99, "{r:?}");
        assert!((r.mean_selected - 16.0).abs() < 1e-9);
    }

    #[test]
    fn hybrid_beats_streaming_on_mid_context_needle() {
        let w = needle_task(256, 32, 3);
        let capacity = 96;
        let mut hybrid = HybridStaticDynamic::new(capacity - 16, 24);
        let r_h = simulate_decode(
            &w,
            &mut hybrid,
            &SimConfig::reserved_decode_slots(capacity, 24, 16),
        )
        .unwrap();
        let mut streaming = StreamingLlm::new(4);
        let r_s = simulate_decode(
            &w,
            &mut streaming,
            &SimConfig::new(capacity, 24).with_prefill_budget(capacity),
        )
        .unwrap();
        assert!(
            r_h.salient_recall > r_s.salient_recall + 0.3,
            "hybrid {:.2} must clearly beat streaming {:.2} on a mid-context needle",
            r_h.salient_recall,
            r_s.salient_recall
        );
    }

    #[test]
    fn hybrid_matches_or_beats_snapkv_on_multihop() {
        let w = multi_hop_task(384, 48, 4);
        let capacity = 128;
        let mut hybrid = HybridStaticDynamic::new(capacity - 16, 32);
        let r_h = simulate_decode(
            &w,
            &mut hybrid,
            &SimConfig::reserved_decode_slots(capacity, 32, 16),
        )
        .unwrap();
        let mut snap = SnapKv::new(16);
        let r_s = simulate_decode(
            &w,
            &mut snap,
            &SimConfig::new(capacity + 48, 32).with_prefill_budget(capacity),
        )
        .unwrap();
        assert!(
            r_h.salient_recall >= r_s.salient_recall - 1e-9,
            "hybrid {:.3} must be at least as good as snapkv {:.3}",
            r_h.salient_recall,
            r_s.salient_recall
        );
    }

    #[test]
    fn h2o_runs_on_summary_task() {
        let w = summary_task(192, 32, 5);
        let mut p = H2O::new(8);
        let r =
            simulate_decode(&w, &mut p, &SimConfig::new(96, 32).with_prefill_budget(96)).unwrap();
        assert!(r.steps == 32);
        assert!(r.output_cosine > 0.3);
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let w = needle_task(128, 32, 6);
        let mut p = HybridStaticDynamic::new(40, 16);
        let cfg = SimConfig::new(48, 16).with_prefill_budget(40);
        let r = simulate_decode(&w, &mut p, &cfg).unwrap();
        assert!(r.mean_resident <= 48.0 + 1e-9, "{r:?}");
    }

    #[test]
    fn distractors_waste_static_budget_but_dynamic_selection_recovers() {
        use unicaim_attention::workloads::distractor_task;
        let w = distractor_task(256, 32, 5, 10);
        // Generous capacity: the true needle survives static pruning even
        // next to heavily mentioned distractors, and top-k finds it.
        let mut p = HybridStaticDynamic::new(112, 32);
        let r =
            simulate_decode(&w, &mut p, &SimConfig::reserved_decode_slots(128, 32, 16)).unwrap();
        assert!(
            r.salient_recall > 0.9,
            "hybrid must retrieve the true needle despite distractors: {r:?}"
        );
    }

    #[test]
    fn ratio_capacity_floors() {
        let w = needle_task(64, 8, 7);
        assert_eq!(ratio_capacity(&w, 1.0), 72);
        assert_eq!(ratio_capacity(&w, 0.5), 36);
        assert_eq!(ratio_capacity(&w, 0.001), 8);
    }

    #[test]
    fn reserved_decode_slots_saturates() {
        let cfg = SimConfig::reserved_decode_slots(8, 4, 100);
        assert_eq!(cfg.prefill_budget, 0);
        assert_eq!(cfg.capacity, 8);
    }

    #[test]
    fn prefill_attention_matrix_is_causal_stochastic() {
        let w = needle_task(48, 4, 8);
        let attn = prefill_attention_matrix(&w);
        for t in 0..48 {
            let sum: f32 = attn.row(t).iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "row {t} sums to {sum}");
            for s in (t + 1)..48 {
                assert_eq!(attn.get(t, s), 0.0);
            }
        }
    }

    /// A deliberately broken policy that selects a token id that can never
    /// be resident (used to pin the harness contract).
    struct SelectsGhostToken;

    impl crate::Policy for SelectsGhostToken {
        fn name(&self) -> &'static str {
            "selects_ghost_token"
        }
        fn prefill_keep(&mut self, attn: &Matrix, budget: usize) -> Vec<usize> {
            (0..attn.rows().min(budget)).collect()
        }
        fn select(&mut self, _step: usize, _scored: &[(usize, f32)], _k: usize) -> StepDecision {
            StepDecision {
                selected: vec![usize::MAX],
            }
        }
        fn observe(&mut self, _step: usize, _weights: &[(usize, f32)]) {}
        fn evict(&mut self, _step: usize, resident: &[usize]) -> Option<usize> {
            resident.first().copied()
        }
    }

    /// A policy that never selects anything (empty dynamic selection).
    struct SelectsNothing;

    impl crate::Policy for SelectsNothing {
        fn name(&self) -> &'static str {
            "selects_nothing"
        }
        fn prefill_keep(&mut self, attn: &Matrix, budget: usize) -> Vec<usize> {
            (0..attn.rows().min(budget)).collect()
        }
        fn select(&mut self, _step: usize, _scored: &[(usize, f32)], _k: usize) -> StepDecision {
            StepDecision {
                selected: Vec::new(),
            }
        }
        fn observe(&mut self, _step: usize, _weights: &[(usize, f32)]) {}
        fn evict(&mut self, _step: usize, resident: &[usize]) -> Option<usize> {
            resident.first().copied()
        }
    }

    /// A policy that names a non-resident eviction victim once full.
    struct EvictsGhostToken;

    impl crate::Policy for EvictsGhostToken {
        fn name(&self) -> &'static str {
            "evicts_ghost_token"
        }
        fn prefill_keep(&mut self, attn: &Matrix, budget: usize) -> Vec<usize> {
            (0..attn.rows().min(budget)).collect()
        }
        fn select(&mut self, _step: usize, _scored: &[(usize, f32)], _k: usize) -> StepDecision {
            StepDecision {
                selected: Vec::new(),
            }
        }
        fn observe(&mut self, _step: usize, _weights: &[(usize, f32)]) {}
        fn evict(&mut self, _step: usize, _resident: &[usize]) -> Option<usize> {
            Some(usize::MAX)
        }
    }

    use crate::policy::StepDecision;

    #[test]
    fn non_resident_selection_is_a_typed_error() {
        let w = needle_task(32, 4, 20);
        let mut p = SelectsGhostToken;
        let err = simulate_decode(&w, &mut p, &SimConfig::new(w.total_tokens(), 4))
            .err()
            .unwrap();
        assert_eq!(
            err,
            HarnessError::SelectedNonResident {
                step: 0,
                token: usize::MAX
            }
        );
    }

    #[test]
    fn non_resident_eviction_is_a_typed_error() {
        let w = needle_task(32, 4, 24);
        let mut p = EvictsGhostToken;
        // Capacity exactly the prompt length: the first decode insert must
        // evict, and the policy names a ghost victim.
        let err = simulate_decode(&w, &mut p, &SimConfig::new(32, 4))
            .err()
            .unwrap();
        assert_eq!(
            err,
            HarnessError::EvictedNonResident {
                step: 0,
                token: usize::MAX
            }
        );
    }

    #[test]
    fn quantized_decode_preserves_retrieval_on_needle_task() {
        use unicaim_attention::Precision;
        // The paper's precision ablation, end to end: hybrid pruning with
        // int8 / cell3 key arenas still retrieves the needle.
        let w = needle_task(256, 32, 3);
        for precision in [Precision::Int8, Precision::Cell3Bit] {
            let mut p = HybridStaticDynamic::new(80, 32);
            let cfg = SimConfig::reserved_decode_slots(96, 32, 16).with_precision(precision);
            let r = simulate_decode(&w, &mut p, &cfg).unwrap();
            assert!(
                r.salient_recall > 0.8,
                "{}: recall {} too low: {r:?}",
                precision.label(),
                r.salient_recall
            );
            assert!(r.output_cosine.is_finite());
        }
    }

    #[test]
    fn empty_selection_is_deterministic_zero_vector() {
        // A policy that selects nothing produces zero outputs (cosine 0
        // against any nonzero reference), not a crash.
        let w = needle_task(32, 4, 21);
        let mut p = SelectsNothing;
        let r = simulate_decode(&w, &mut p, &SimConfig::new(w.total_tokens(), 4)).unwrap();
        assert_eq!(r.mean_selected, 0.0);
        assert!(r.output_cosine.abs() < 1e-12, "{r:?}");
    }

    #[test]
    fn answer_steps_distinguishes_salient_free_workloads() {
        // A workload with answer steps: zero recall means retrieval failed.
        let w = needle_task(64, 8, 22);
        let mut p = FullCache::new();
        let r = simulate_decode(&w, &mut p, &SimConfig::new(w.total_tokens(), usize::MAX)).unwrap();
        assert_eq!(r.answer_steps, w.answer_steps.len());
        assert!(r.answer_steps > 0);

        // A salient-free workload: the salience means are vacuous and
        // `answer_steps == 0` says so.
        let mut w = needle_task(48, 6, 23);
        w.salient_at.iter_mut().for_each(BTreeSet::clear);
        w.answer_steps.clear();
        let mut p = FullCache::new();
        let r = simulate_decode(&w, &mut p, &SimConfig::new(w.total_tokens(), usize::MAX)).unwrap();
        assert_eq!(r.answer_steps, 0);
        assert_eq!(r.salient_recall, 0.0);
        assert_eq!(r.retrieval_accuracy, 0.0);
    }

    #[test]
    fn streaming_resident_set_is_sinks_plus_window() {
        let w = needle_task(128, 24, 9);
        let cfg = SimConfig::new(32, 32);
        let mut session = DecodeSession::prefill(&w, Box::new(StreamingLlm::new(4)), &cfg).unwrap();
        for t in 0..session.steps() {
            session.step().unwrap();
            // The residents step `t` scored: the four sinks plus the 28
            // most recent tokens (prefill keeps 100..=127; each step's
            // insert evicts the oldest non-sink).
            let observed: std::collections::BTreeSet<usize> = session
                .last_observed()
                .iter()
                .map(|&(token, _)| token)
                .collect();
            let expected = (0..4).chain(100 + t..=127 + t).collect();
            assert_eq!(observed, expected, "step {t}");
        }
    }
}
