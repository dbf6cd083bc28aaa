//! The multi-layer decode stack: K per-layer [`DecodeSession`]s driven in
//! lockstep under **one global KV budget**.
//!
//! A real transformer holds one KV cache per attention layer, and the
//! layers do not deserve equal shares: early layers spread attention over
//! many tokens while late layers concentrate it (the DepthKV / LAVa
//! observation). [`LayerStackSession`] reproduces that setting in the
//! harness — each layer gets its own [`DecodeSession`] (own [`KvStore`],
//! own policy instance built from one shared
//! [`PolicySpec`](crate::PolicySpec)), and an [`AllocatorSpec`] splits the
//! global slot budget across depths:
//!
//! * **static allocators** (`Uniform`, `DepthDecayed`) fix the split at
//!   admission — each layer's physical store is exactly its budget;
//! * **the dynamic allocator** (`EntropyDynamic`) builds each layer's
//!   store at an over-provisioned ceiling and moves a **logical capacity
//!   limit** ([`DecodeSession::set_capacity_limit`]) inside it: growing a
//!   layer is free (the slack slots already exist), shrinking one evicts
//!   through the layer's own policy ([`DecodeSession::shrink_to_limit`]),
//!   so no stored row ever migrates between arenas.
//!
//! At K = 1 every allocator gives the one layer the whole budget and never
//! reallocates, so a one-layer stack is *bit-identical* to a plain
//! [`DecodeSession`] (property-tested across every allocator × policy ×
//! precision).
//!
//! The reallocation signal is the per-layer **normalized attention
//! entropy** of the step's observed weights (`−Σ p ln p / ln n` over
//! [`DecodeSession::last_observed`]) — a byproduct of the decode step the
//! stack reads for free. Budgets always conserve the global sum and never
//! go below the policy's floor
//! ([`PolicySpec::min_viable_share`](crate::PolicySpec::min_viable_share)).
//!
//! The stack counts each layer's resident tokens and evictions itself and
//! reports them in the final [`StackResult`].
//!
//! [`KvStore`]: unicaim_attention::KvStore

use serde::{Deserialize, Serialize};
use unicaim_attention::workloads::DecodeWorkload;
use unicaim_attention::Precision;

use crate::allocator::{AllocatorSpec, LayerBudgets};
use crate::error::HarnessError;
use crate::session::{DecodeSession, StepOutcome};
use crate::sim::{SimConfig, SimResult};
use crate::spec::PolicySpec;

/// Configuration of a [`LayerStackSession`]: the **global** slot budget
/// shared by all layers, plus the per-layer harness knobs every layer's
/// [`SimConfig`] inherits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StackConfig {
    /// Total KV slots shared by the whole stack (the allocator splits
    /// this across layers; `Σ per-layer budgets == global_budget` always).
    pub global_budget: usize,
    /// Dynamic top-k width passed to every layer's policy each step.
    pub k: usize,
    /// Decode slots (`M`) reserved per layer: each layer's prefill budget
    /// is its capacity minus this, the paper's `H + M` split.
    pub reserved_decode_slots: usize,
    /// Key-arena storage precision of every layer's store.
    pub precision: Precision,
}

impl StackConfig {
    /// A stack config with the given global budget and top-`k` selection;
    /// no reserved decode slots, `f32` keys.
    #[must_use]
    pub fn new(global_budget: usize, k: usize) -> Self {
        Self {
            global_budget,
            k,
            reserved_decode_slots: 0,
            precision: Precision::F32,
        }
    }

    /// Reserves `m` decode slots per layer (builder-style): each layer's
    /// prefill budget becomes its capacity minus `m`, exactly like
    /// [`SimConfig::reserved_decode_slots`].
    #[must_use]
    pub fn with_reserved_decode_slots(mut self, m: usize) -> Self {
        self.reserved_decode_slots = m;
        self
    }

    /// Sets the key-arena storage precision of every layer (builder-style).
    #[must_use]
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }
}

/// Aggregate result of one stacked decode: the per-layer [`SimResult`]s,
/// the allocator's final budget split, and stack-level means.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StackResult {
    /// Allocator display name.
    pub allocator: String,
    /// Policy display name (shared by every layer).
    pub policy: String,
    /// Final per-layer budgets (equals the initial split for static
    /// allocators; `Σ == global_budget` always).
    pub budgets: Vec<usize>,
    /// Reallocation events that actually moved budget during decode.
    pub reallocations: usize,
    /// One [`SimResult`] per layer, in depth order.
    pub per_layer: Vec<SimResult>,
    /// Mean of the per-layer `retrieval_accuracy` (layers whose workload
    /// had no salient tokens contribute their vacuous `0.0`; compare
    /// across allocators only on workloads where every layer answers).
    pub mean_retrieval_accuracy: f64,
    /// Mean of the per-layer `salient_f1`.
    pub mean_salient_f1: f64,
    /// Mean of the per-layer `output_cosine`.
    pub mean_output_cosine: f64,
    /// Sum of the per-layer `mean_resident` — the stack's steady-state
    /// occupancy in slots, comparable against `global_budget`.
    pub total_mean_resident: f64,
    /// Mean resident tokens per layer, sampled after prefill and after
    /// every decode step.
    pub layer_mean_occupancy: Vec<f64>,
    /// Evictions per layer: per-step overflow evictions plus
    /// allocator-forced shrinks, the prefill settle included.
    pub layer_evictions: Vec<u64>,
}

/// K per-layer [`DecodeSession`]s advanced in lockstep under one global
/// KV budget, split across depths by [`LayerBudgets`].
///
/// Lifecycle mirrors the single-layer session:
/// [`prefill`](LayerStackSession::prefill) admits every layer and applies the
/// allocator's initial split, [`step`](LayerStackSession::step) advances
/// all layers by one token (feeding the allocator each layer's attention
/// entropy and applying any reallocation it decides), and
/// [`finish`](LayerStackSession::finish) retires the stack into a
/// [`StackResult`].
pub struct LayerStackSession<'w> {
    sessions: Vec<DecodeSession<'w, 'static>>,
    /// Current logical per-layer budgets and physical ceilings.
    allocator: LayerBudgets,
    policy_name: &'static str,
    /// Decode steps shared by every layer's workload.
    steps: usize,
    next_step: usize,
    reallocations: usize,
    /// Per-layer resident tokens summed over one sample after prefill
    /// and one after each step.
    resident_sums: Vec<u64>,
    /// Per-layer evictions so far.
    evictions: Vec<u64>,
    /// Per-step per-layer normalized entropies (reused scratch).
    entropy_scratch: Vec<f64>,
}

impl<'w> LayerStackSession<'w> {
    /// Admits one workload per layer: validates the stack shape, splits
    /// the global budget with the allocator, and prefills every layer's
    /// [`DecodeSession`] at its physical ceiling with the shared policy
    /// spec re-sized to that layer's share
    /// ([`PolicySpec::for_share`](crate::PolicySpec::for_share)).
    ///
    /// Layers whose ceiling exceeds their initial budget (the dynamic
    /// allocator) are shrunk to the budget straight after prefill,
    /// evicting through their own policy.
    ///
    /// # Errors
    ///
    /// [`HarnessError::InvalidLayerConfig`] for an empty stack, layers
    /// with mismatched decode lengths, or a global budget below the
    /// policy floor times the layer count; otherwise the per-layer
    /// [`DecodeSession::prefill_spec`] contract.
    pub fn prefill(
        workloads: &'w [DecodeWorkload],
        policy: &PolicySpec,
        allocator_spec: AllocatorSpec,
        config: &StackConfig,
    ) -> Result<Self, HarnessError> {
        let allocator = LayerBudgets::new(
            allocator_spec,
            workloads.len(),
            policy.min_viable_share(),
            config.global_budget,
        )?;
        // `LayerBudgets::new` rejected an empty stack.
        let steps = workloads[0].decode_queries.len();
        for (l, w) in workloads.iter().enumerate() {
            if w.decode_queries.len() != steps {
                return Err(HarnessError::InvalidLayerConfig {
                    reason: format!(
                        "layer {l} has {} decode steps but layer 0 has {steps} \
                         (all layers advance in lockstep)",
                        w.decode_queries.len()
                    ),
                });
            }
        }

        let mut sessions = Vec::with_capacity(workloads.len());
        let mut resident_sums = Vec::with_capacity(workloads.len());
        let mut evictions = Vec::with_capacity(workloads.len());
        for ((workload, &ceiling), &budget) in workloads
            .iter()
            .zip(allocator.ceilings())
            .zip(allocator.budgets())
        {
            let spec_l = policy.for_share(ceiling);
            let cfg_l =
                SimConfig::reserved_decode_slots(ceiling, config.k, config.reserved_decode_slots)
                    .with_precision(config.precision);
            let mut session = DecodeSession::prefill_spec(workload, &spec_l, &cfg_l)?;
            // The dynamic allocator prefills at the ceiling, then settles
            // to the initial budget through the layer's own policy.
            session.set_capacity_limit(budget);
            let forced = session.shrink_to_limit()?;
            resident_sums.push(session.resident() as u64);
            evictions.push(forced as u64);
            sessions.push(session);
        }

        Ok(Self {
            sessions,
            allocator,
            policy_name: policy.name(),
            steps,
            next_step: 0,
            reallocations: 0,
            resident_sums,
            evictions,
            entropy_scratch: Vec::with_capacity(workloads.len()),
        })
    }

    /// Number of layers in the stack.
    #[must_use]
    pub fn layers(&self) -> usize {
        self.sessions.len()
    }

    /// Decode steps every layer runs.
    #[must_use]
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Whether every decode step has run.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.next_step >= self.steps
    }

    /// Current per-layer logical budgets (`Σ == global_budget` always).
    #[must_use]
    pub fn budgets(&self) -> &[usize] {
        self.allocator.budgets()
    }

    /// The policy floor no layer's budget goes below.
    #[must_use]
    pub fn floor(&self) -> usize {
        self.allocator.floor()
    }

    /// Per-layer physical capacities.
    #[must_use]
    pub fn ceilings(&self) -> &[usize] {
        self.allocator.ceilings()
    }

    /// Reallocation events that moved budget so far.
    #[must_use]
    pub fn reallocations(&self) -> usize {
        self.reallocations
    }

    /// Advances every layer by one decode step, feeds the allocator the
    /// step's per-layer normalized attention entropies, and applies any
    /// budget reallocation it decides (shrinking donor layers through
    /// their own policies). Returns one [`StepOutcome`] per layer.
    ///
    /// # Errors
    ///
    /// [`HarnessError::SessionExhausted`] when the stack is done;
    /// otherwise the first per-layer [`DecodeSession::step`] /
    /// [`DecodeSession::shrink_to_limit`] error.
    pub fn step(&mut self) -> Result<Vec<StepOutcome>, HarnessError> {
        if self.is_done() {
            return Err(HarnessError::SessionExhausted { steps: self.steps });
        }
        let mut outcomes = Vec::with_capacity(self.sessions.len());
        let mut evicted = vec![0usize; self.sessions.len()];
        self.entropy_scratch.clear();
        for (l, session) in self.sessions.iter_mut().enumerate() {
            let before = session.resident();
            let outcome = session.step()?;
            // An insert that did not grow the resident set replaced an
            // evicted victim.
            evicted[l] += usize::from(outcome.inserted && outcome.resident == before);
            self.entropy_scratch
                .push(normalized_entropy(session.last_observed()));
            outcomes.push(outcome);
        }

        if self.allocator.observe(&self.entropy_scratch) {
            for ((session, &budget), evicted) in self
                .sessions
                .iter_mut()
                .zip(self.allocator.budgets())
                .zip(&mut evicted)
            {
                session.set_capacity_limit(budget);
                *evicted += session.shrink_to_limit()?;
            }
            self.reallocations += 1;
        }

        for (l, session) in self.sessions.iter().enumerate() {
            self.resident_sums[l] += session.resident() as u64;
            self.evictions[l] += evicted[l] as u64;
        }
        self.next_step += 1;
        Ok(outcomes)
    }

    /// Runs every remaining decode step.
    ///
    /// # Errors
    ///
    /// Propagates the first [`LayerStackSession::step`] error.
    pub fn run_to_completion(&mut self) -> Result<(), HarnessError> {
        while !self.is_done() {
            self.step()?;
        }
        Ok(())
    }

    /// Retires the stack into its aggregate [`StackResult`]. Finishing
    /// early is allowed; per-layer results then aggregate only the steps
    /// that ran.
    #[must_use]
    pub fn finish(self) -> StackResult {
        let budgets = self.allocator.budgets().to_vec();
        let reallocations = self.reallocations;
        let samples = (self.next_step + 1) as f64;
        let layer_mean_occupancy = self
            .resident_sums
            .iter()
            .map(|&sum| sum as f64 / samples)
            .collect();
        let per_layer: Vec<SimResult> = self
            .sessions
            .into_iter()
            .map(DecodeSession::finish)
            .collect();
        let n = per_layer.len() as f64;
        let mean = |f: fn(&SimResult) -> f64| per_layer.iter().map(f).sum::<f64>() / n;
        StackResult {
            allocator: self.allocator.spec().name().to_owned(),
            policy: self.policy_name.to_owned(),
            budgets,
            reallocations,
            mean_retrieval_accuracy: mean(|r| r.retrieval_accuracy),
            mean_salient_f1: mean(|r| r.salient_f1),
            mean_output_cosine: mean(|r| r.output_cosine),
            total_mean_resident: per_layer.iter().map(|r| r.mean_resident).sum(),
            per_layer,
            layer_mean_occupancy,
            layer_evictions: self.evictions,
        }
    }
}

/// Runs a full stacked decode: prefill every layer, step to completion,
/// finish. The run-to-completion wrapper the benches and sweeps call.
///
/// # Errors
///
/// The [`LayerStackSession::prefill`] and [`LayerStackSession::step`]
/// contracts.
pub fn simulate_stack(
    workloads: &[DecodeWorkload],
    policy: &PolicySpec,
    allocator: AllocatorSpec,
    config: &StackConfig,
) -> Result<StackResult, HarnessError> {
    let mut stack = LayerStackSession::prefill(workloads, policy, allocator, config)?;
    stack.run_to_completion()?;
    Ok(stack.finish())
}

/// Shannon entropy of one step's observed attention weights, normalized
/// to `[0, 1]` by the uniform-distribution maximum `ln n`. Degenerate
/// inputs (≤ 1 resident, all-zero weights) read as `0.0` — fully
/// concentrated.
fn normalized_entropy(observed: &[(usize, f32)]) -> f64 {
    let n = observed.len();
    if n <= 1 {
        return 0.0;
    }
    let total: f64 = observed.iter().map(|&(_, w)| f64::from(w.max(0.0))).sum();
    if total <= 0.0 {
        return 0.0;
    }
    let mut h = 0.0f64;
    for &(_, w) in observed {
        let p = f64::from(w.max(0.0)) / total;
        if p > 0.0 {
            h -= p * p.ln();
        }
    }
    (h / (n as f64).ln()).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::simulate_decode;
    use unicaim_attention::workloads::{layer_stack_tasks, needle_task};

    fn hybrid_for(share: usize) -> PolicySpec {
        PolicySpec::hybrid_for_share(share, 8, 8)
    }

    #[test]
    fn k1_uniform_stack_is_bit_identical_to_a_decode_session() {
        let workloads = vec![needle_task(96, 12, 11)];
        let spec = hybrid_for(48);
        let config = StackConfig::new(48, 8).with_reserved_decode_slots(8);
        let stacked = simulate_stack(&workloads, &spec, AllocatorSpec::Uniform, &config).unwrap();

        let solo_cfg = SimConfig::reserved_decode_slots(48, 8, 8);
        let mut solo_policy = spec.for_share(48).build();
        let solo = simulate_decode(&workloads[0], solo_policy.as_mut(), &solo_cfg).unwrap();
        assert_eq!(stacked.per_layer[0], solo);
        assert_eq!(stacked.budgets, vec![48]);
        assert_eq!(stacked.reallocations, 0);
    }

    #[test]
    fn invalid_stacks_are_rejected_with_typed_errors() {
        let spec = hybrid_for(48);
        let config = StackConfig::new(48, 8).with_reserved_decode_slots(8);
        let empty: Vec<unicaim_attention::workloads::DecodeWorkload> = Vec::new();
        assert!(matches!(
            LayerStackSession::prefill(&empty, &spec, AllocatorSpec::Uniform, &config),
            Err(HarnessError::InvalidLayerConfig { .. })
        ));

        // Mismatched decode lengths across layers.
        let uneven = vec![needle_task(64, 8, 1), needle_task(64, 12, 1)];
        assert!(matches!(
            LayerStackSession::prefill(&uneven, &spec, AllocatorSpec::Uniform, &config),
            Err(HarnessError::InvalidLayerConfig { .. })
        ));

        // A global budget below the policy floor times the layer count
        // (hybrid floor is m + 1 = 9 per layer).
        let layers = layer_stack_tasks(4, 64, 8, 3);
        let starved = StackConfig::new(20, 8).with_reserved_decode_slots(8);
        let err = LayerStackSession::prefill(&layers, &spec, AllocatorSpec::Uniform, &starved)
            .map(|_| ())
            .unwrap_err();
        assert!(err.to_string().contains("minimum viable share"), "{err}");
    }

    #[test]
    fn depth_decayed_stack_front_loads_budgets() {
        let layers = layer_stack_tasks(4, 64, 8, 5);
        let spec = hybrid_for(32);
        let config = StackConfig::new(128, 8).with_reserved_decode_slots(8);
        let stack =
            LayerStackSession::prefill(&layers, &spec, AllocatorSpec::DepthDecayed, &config)
                .unwrap();
        assert_eq!(stack.budgets().iter().sum::<usize>(), 128);
        for w in stack.budgets().windows(2) {
            assert!(
                w[0] >= w[1],
                "budgets must be front-loaded: {:?}",
                stack.budgets()
            );
        }
        // Static allocator: physical == logical, no slack.
        assert_eq!(stack.budgets(), stack.ceilings());
    }

    #[test]
    fn entropy_dynamic_stack_conserves_budget_every_step() {
        let layers = layer_stack_tasks(3, 64, 16, 7);
        let spec = hybrid_for(32);
        let config = StackConfig::new(96, 8).with_reserved_decode_slots(8);
        let mut stack =
            LayerStackSession::prefill(&layers, &spec, AllocatorSpec::EntropyDynamic, &config)
                .unwrap();
        while !stack.is_done() {
            stack.step().unwrap();
            assert_eq!(stack.budgets().iter().sum::<usize>(), 96);
            for l in 0..stack.layers() {
                assert!(stack.budgets()[l] >= stack.floor());
                assert!(stack.budgets()[l] <= stack.ceilings()[l]);
            }
        }
        let result = stack.finish();
        assert_eq!(result.per_layer.len(), 3);
        assert_eq!(result.layer_mean_occupancy.len(), 3);
        assert_eq!(result.layer_evictions.len(), 3);
        assert!(result.total_mean_resident <= 96.0 + f64::EPSILON);
    }

    #[test]
    fn layer_counters_accumulate_per_layer() {
        let layers = layer_stack_tasks(3, 64, 12, 5);
        let spec = hybrid_for(24);
        let config = StackConfig::new(72, 8).with_reserved_decode_slots(8);
        let mut stack =
            LayerStackSession::prefill(&layers, &spec, AllocatorSpec::Uniform, &config).unwrap();
        let prefilled: Vec<usize> = stack.sessions.iter().map(DecodeSession::resident).collect();
        let mut sums: Vec<usize> = prefilled.clone();
        let mut inserted = [0usize; 3];
        while !stack.is_done() {
            for (l, outcome) in stack.step().unwrap().iter().enumerate() {
                sums[l] += outcome.resident;
                inserted[l] += usize::from(outcome.inserted);
            }
        }
        let last: Vec<usize> = stack.sessions.iter().map(DecodeSession::resident).collect();
        let result = stack.finish();
        for l in 0..3 {
            // One sample after prefill, one after each of the 12 steps.
            assert_eq!(result.layer_mean_occupancy[l], sums[l] as f64 / 13.0);
            // A uniform split never shrinks a layer, so every token that
            // left the cache was a step's eviction.
            let evicted = prefilled[l] + inserted[l] - last[l];
            assert_eq!(result.layer_evictions[l], evicted as u64);
        }
        assert!(result.layer_evictions.iter().any(|&e| e > 0), "{result:?}");
    }

    #[test]
    fn exhausted_stack_reports_session_exhausted() {
        let layers = layer_stack_tasks(2, 48, 4, 9);
        let spec = hybrid_for(24);
        let config = StackConfig::new(48, 8).with_reserved_decode_slots(8);
        let mut stack =
            LayerStackSession::prefill(&layers, &spec, AllocatorSpec::Uniform, &config).unwrap();
        stack.run_to_completion().unwrap();
        assert!(matches!(
            stack.step(),
            Err(HarnessError::SessionExhausted { steps: 4 })
        ));
    }

    #[test]
    fn stack_result_roundtrips_through_json() {
        let layers = layer_stack_tasks(2, 48, 4, 13);
        let spec = hybrid_for(24);
        let config = StackConfig::new(48, 8).with_reserved_decode_slots(8);
        let result = simulate_stack(&layers, &spec, AllocatorSpec::Uniform, &config).unwrap();
        let text = serde_json::to_string(&result).unwrap();
        let back: StackResult = serde_json::from_str(&text).unwrap();
        assert_eq!(back, result);
    }

    #[test]
    fn normalized_entropy_spans_the_unit_interval() {
        assert_eq!(normalized_entropy(&[]), 0.0);
        assert_eq!(normalized_entropy(&[(0, 1.0)]), 0.0);
        let uniform: Vec<(usize, f32)> = (0..8).map(|t| (t, 0.125)).collect();
        assert!((normalized_entropy(&uniform) - 1.0).abs() < 1e-9);
        let spiked = [(0usize, 1.0f32), (1, 0.0), (2, 0.0), (3, 0.0)];
        assert!(normalized_entropy(&spiked) < 0.01);
    }
}
