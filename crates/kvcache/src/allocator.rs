//! Layer-wise KV budget allocation: how one global slot budget splits
//! across a stack of attention layers.
//!
//! The single-layer harness prunes against a per-sequence capacity; a
//! multi-layer decode ([`LayerStackSession`](crate::LayerStackSession))
//! instead holds **one global HBM budget** that [`LayerBudgets`] divides
//! among the layers. The menu mirrors the paper family:
//!
//! | Allocator | Split | Reference |
//! |---|---|---|
//! | [`AllocatorSpec::Uniform`] | `global / K` per layer | the implicit baseline |
//! | [`AllocatorSpec::DepthDecayed`] | front-loaded geometric weights `0.7^l` | DepthKV |
//! | [`AllocatorSpec::EntropyDynamic`] | reallocation every 8 steps from observed per-layer attention entropy, with hysteresis 0.02 | LAVa |
//!
//! Every layer runs the same policy, so every layer has the same floor
//! (that policy's
//! [`PolicySpec::min_viable_share`](crate::PolicySpec::min_viable_share)).
//! All splits respect it and conserve the global budget exactly:
//! `Σ budgets == global` after the initial split and after every
//! reallocation event (property-tested in `tests/properties.rs`).
//!
//! [`AllocatorSpec`] is the serializable registry entry — benches and CLI
//! binaries name an allocator as data, exactly like
//! [`PolicySpec`](crate::PolicySpec) names a policy.

use serde::{Deserialize, Serialize};

use crate::error::HarnessError;

/// Per-layer weight decay of [`AllocatorSpec::DepthDecayed`].
const DEPTH_DECAY: f64 = 0.7;
/// Decode steps between [`AllocatorSpec::EntropyDynamic`] reallocation
/// events.
const REALLOCATION_PERIOD: usize = 8;
/// Minimum normalized-entropy gap (recipient − donor) before
/// [`AllocatorSpec::EntropyDynamic`] moves any budget — the anti-thrash
/// margin.
const HYSTERESIS: f64 = 0.02;

/// Which budget allocator a layer stack runs — the
/// [`PolicySpec`](crate::PolicySpec) pattern applied to layer budgets.
///
/// ```
/// use unicaim_kvcache::AllocatorSpec;
///
/// let spec = AllocatorSpec::from_name("depth_decayed").unwrap();
/// assert_eq!(spec, AllocatorSpec::DepthDecayed);
/// assert_eq!(spec.name(), "depth_decayed");
///
/// let text = serde_json::to_string(&spec).unwrap();
/// let back: AllocatorSpec = serde_json::from_str(&text).unwrap();
/// assert_eq!(back, spec);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AllocatorSpec {
    /// `global / K` per layer (remainder to the front layers). Never
    /// reallocates.
    Uniform,
    /// DepthKV-style front-loaded geometric split: layer `l` gets weight
    /// `0.7^l`, so early layers — which spread attention over many
    /// tokens — hold more of the budget than late, concentrated ones.
    /// Never reallocates.
    DepthDecayed,
    /// LAVa-style dynamic reallocation: starts from the uniform split,
    /// watches normalized per-layer attention entropy during decode, and
    /// every 8 steps moves a small parcel of budget from the most
    /// *concentrated* layer (lowest mean entropy — its attention mass sits
    /// on few tokens, so pruning it is cheap) to the most *diffuse* one
    /// (highest mean entropy — it needs more residents to cover its
    /// attention mass).
    ///
    /// Two stabilizers keep budgets from thrashing:
    ///
    /// * **hysteresis** — no transfer happens unless the entropy gap
    ///   between recipient and donor exceeds 0.02, so near-tied layers
    ///   never trade slots back and forth;
    /// * **parcel size** — each event moves at most `max(1, global / (8K))`
    ///   slots, so one noisy window cannot swing a layer's budget.
    ///
    /// Each layer's ceiling is twice its fair share, capped so every other
    /// layer keeps the floor: the headroom budgets can grow into without
    /// moving stored rows.
    EntropyDynamic,
}

impl AllocatorSpec {
    /// Every registry name, in [`AllocatorSpec::from_name`] order.
    pub const NAMES: [&'static str; 3] = ["uniform", "depth_decayed", "entropy_dynamic"];

    /// Looks a spec up by allocator display name.
    ///
    /// # Errors
    ///
    /// [`HarnessError::UnknownAllocator`] for a name outside
    /// [`AllocatorSpec::NAMES`].
    pub fn from_name(name: &str) -> Result<Self, HarnessError> {
        match name {
            "uniform" => Ok(AllocatorSpec::Uniform),
            "depth_decayed" => Ok(AllocatorSpec::DepthDecayed),
            "entropy_dynamic" => Ok(AllocatorSpec::EntropyDynamic),
            other => Err(HarnessError::UnknownAllocator {
                name: other.to_owned(),
            }),
        }
    }

    /// The allocator's display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AllocatorSpec::Uniform => "uniform",
            AllocatorSpec::DepthDecayed => "depth_decayed",
            AllocatorSpec::EntropyDynamic => "entropy_dynamic",
        }
    }
}

/// One stack's per-layer budgets under an [`AllocatorSpec`]: the initial
/// split, the per-layer physical ceilings, and — for
/// [`AllocatorSpec::EntropyDynamic`] — the entropy window that moves
/// budgets between layers mid-decode.
///
/// The contract, checked by the stack and by property tests:
///
/// * every budget is at least the floor and `Σ budgets == global`, from
///   construction through every [`observe`](LayerBudgets::observe);
/// * every budget stays at or below its layer's
///   [`ceiling`](LayerBudgets::ceilings). Static allocators' ceilings are
///   the split itself (no slack ever needed); the dynamic one
///   over-provisions so budgets can grow without moving stored rows.
#[derive(Debug, Clone)]
pub struct LayerBudgets {
    spec: AllocatorSpec,
    floor: usize,
    budgets: Vec<usize>,
    ceilings: Vec<usize>,
    /// Per-layer entropy summed since the last reallocation event.
    entropy_sums: Vec<f64>,
    entropy_samples: usize,
}

impl LayerBudgets {
    /// Splits `global` slots across `layers` layers under `spec`, giving
    /// every layer at least `floor` slots.
    ///
    /// # Errors
    ///
    /// [`HarnessError::InvalidLayerConfig`] for zero layers, or a global
    /// budget below `layers × floor`.
    pub fn new(
        spec: AllocatorSpec,
        layers: usize,
        floor: usize,
        global: usize,
    ) -> Result<Self, HarnessError> {
        if layers == 0 {
            return Err(HarnessError::InvalidLayerConfig {
                reason: "a layer stack needs at least one layer (zero layers given)".to_owned(),
            });
        }
        let total_floor = layers.saturating_mul(floor);
        if global < total_floor {
            return Err(HarnessError::InvalidLayerConfig {
                reason: format!(
                    "global budget of {global} slots cannot give all {layers} layers the \
                     minimum viable share of {floor} slots each (needs at least {total_floor})"
                ),
            });
        }
        let weights: Vec<f64> = match spec {
            AllocatorSpec::DepthDecayed => {
                (0..layers).map(|l| DEPTH_DECAY.powi(l as i32)).collect()
            }
            AllocatorSpec::Uniform | AllocatorSpec::EntropyDynamic => vec![1.0; layers],
        };
        let budgets = split_with_floor(global, &weights, floor);
        let ceilings = match spec {
            AllocatorSpec::EntropyDynamic => budgets
                .iter()
                // Twice the fair share, but never so large that the other
                // layers could not keep the floor if this layer grew to its
                // ceiling.
                .map(|&b| (2 * b).min(global - (total_floor - floor)).max(b))
                .collect(),
            AllocatorSpec::Uniform | AllocatorSpec::DepthDecayed => budgets.clone(),
        };
        Ok(Self {
            spec,
            floor,
            budgets,
            ceilings,
            entropy_sums: vec![0.0; layers],
            entropy_samples: 0,
        })
    }

    /// The allocator this split runs.
    #[must_use]
    pub(crate) fn spec(&self) -> AllocatorSpec {
        self.spec
    }

    /// The floor no layer's budget goes below.
    #[must_use]
    pub(crate) fn floor(&self) -> usize {
        self.floor
    }

    /// Current per-layer budgets (`Σ == global` always).
    #[must_use]
    pub fn budgets(&self) -> &[usize] {
        &self.budgets
    }

    /// Per-layer physical slot ceilings the KV stores are built at.
    #[must_use]
    pub fn ceilings(&self) -> &[usize] {
        &self.ceilings
    }

    /// Feeds one decode step's per-layer attention entropies (normalized
    /// to `[0, 1]`, one per layer) and returns whether the budgets moved.
    /// Only [`AllocatorSpec::EntropyDynamic`] on two or more layers ever
    /// moves them, once every 8 observed steps.
    pub fn observe(&mut self, entropies: &[f64]) -> bool {
        if self.spec != AllocatorSpec::EntropyDynamic || self.budgets.len() < 2 {
            return false;
        }
        for (sum, &e) in self.entropy_sums.iter_mut().zip(entropies) {
            *sum += e;
        }
        self.entropy_samples += 1;
        if self.entropy_samples < REALLOCATION_PERIOD {
            return false;
        }
        let means: Vec<f64> = self
            .entropy_sums
            .iter()
            .map(|s| s / self.entropy_samples as f64)
            .collect();
        // The accumulation window ends at every event, hit or miss: stale
        // entropy from before the last decision should not keep steering.
        self.entropy_sums.fill(0.0);
        self.entropy_samples = 0;

        // Donor: most concentrated layer that can still give (above the
        // floor). Recipient: most diffuse layer that can still take (below
        // its ceiling). Ties break toward the front layer.
        let (budgets, ceilings, floor) = (&self.budgets, &self.ceilings, self.floor);
        let Some(donor) = (0..budgets.len())
            .filter(|&l| budgets[l] > floor)
            .min_by(|&a, &b| means[a].total_cmp(&means[b]).then(a.cmp(&b)))
        else {
            return false;
        };
        let Some(recipient) = (0..budgets.len())
            .filter(|&l| budgets[l] < ceilings[l])
            .max_by(|&a, &b| means[a].total_cmp(&means[b]).then(b.cmp(&a)))
        else {
            return false;
        };
        if donor == recipient || means[recipient] - means[donor] <= HYSTERESIS {
            return false;
        }
        let parcel = (budgets.iter().sum::<usize>() / (8 * budgets.len())).max(1);
        let delta = parcel
            .min(budgets[donor] - floor)
            .min(ceilings[recipient] - budgets[recipient]);
        if delta == 0 {
            return false;
        }
        self.budgets[donor] -= delta;
        self.budgets[recipient] += delta;
        true
    }
}

/// Weighted largest-remainder split of `global` across the layers: every
/// layer gets `floor`, and the spare `global − K·floor` is distributed
/// proportionally to `weights` (remainders broken by descending fraction,
/// then by layer index, so the split is deterministic).
fn split_with_floor(global: usize, weights: &[f64], floor: usize) -> Vec<usize> {
    let spare = global - weights.len() * floor;
    let wsum: f64 = weights.iter().sum();
    let mut budgets = vec![floor; weights.len()];
    let exact: Vec<f64> = weights.iter().map(|w| spare as f64 * (w / wsum)).collect();
    let mut assigned = 0usize;
    let mut fracs: Vec<(usize, f64)> = Vec::with_capacity(weights.len());
    for (l, e) in exact.iter().enumerate() {
        let base = e.floor() as usize;
        budgets[l] += base;
        assigned += base;
        fracs.push((l, e - e.floor()));
    }
    fracs.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    for &(l, _) in fracs.iter().take(spare - assigned) {
        budgets[l] += 1;
    }
    budgets
}

#[cfg(test)]
mod tests {
    use super::*;

    fn budgets(spec: AllocatorSpec, layers: usize, floor: usize, global: usize) -> LayerBudgets {
        LayerBudgets::new(spec, layers, floor, global).unwrap()
    }

    #[test]
    fn every_name_resolves_with_matching_name() {
        for name in AllocatorSpec::NAMES {
            assert_eq!(AllocatorSpec::from_name(name).unwrap().name(), name);
        }
    }

    #[test]
    fn unknown_name_is_a_typed_error() {
        assert_eq!(
            AllocatorSpec::from_name("lava"),
            Err(HarnessError::UnknownAllocator {
                name: "lava".into()
            })
        );
    }

    #[test]
    fn uniform_split_conserves_and_front_loads_the_remainder() {
        let split = budgets(AllocatorSpec::Uniform, 3, 1, 100);
        assert_eq!(split.budgets(), &[34, 33, 33]);
        assert_eq!(split.ceilings(), split.budgets());
    }

    #[test]
    fn uniform_split_respects_the_floor() {
        // The floor takes most of the budget: every layer keeps it and the
        // spare is split evenly.
        let split = budgets(AllocatorSpec::Uniform, 3, 18, 60);
        assert_eq!(split.budgets(), &[20, 20, 20]);
    }

    #[test]
    fn depth_decayed_front_loads_geometrically() {
        let split = budgets(AllocatorSpec::DepthDecayed, 4, 1, 120);
        assert_eq!(split.budgets().iter().sum::<usize>(), 120);
        for w in split.budgets().windows(2) {
            assert!(w[0] > w[1], "front layers must hold more: {split:?}");
        }
        assert_eq!(split.ceilings(), split.budgets());
    }

    #[test]
    fn entropy_dynamic_ceilings_over_provision_within_floor_safety() {
        let (floor, global) = (5, 80);
        let split = budgets(AllocatorSpec::EntropyDynamic, 4, floor, global);
        for (l, (&c, &b)) in split.ceilings().iter().zip(split.budgets()).enumerate() {
            assert!(c > b, "no headroom at layer {l}");
            // Even at its ceiling, every other layer keeps the floor.
            assert!(c + 3 * floor <= global, "ceiling {c} starves the others");
        }
    }

    #[test]
    fn entropy_dynamic_moves_budget_toward_high_entropy_with_hysteresis() {
        let mut split = budgets(AllocatorSpec::EntropyDynamic, 3, 2, 60);
        let initial = split.budgets().to_vec();
        // Layer 2 is diffuse, layer 0 concentrated; the gap beats the
        // hysteresis margin, and only the eighth step's event fires.
        for _ in 0..REALLOCATION_PERIOD - 1 {
            assert!(!split.observe(&[0.2, 0.5, 0.9]));
        }
        assert!(split.observe(&[0.2, 0.5, 0.9]));
        let next = split.budgets();
        assert_eq!(next.iter().sum::<usize>(), 60);
        assert!(next[2] > initial[2], "diffuse layer must gain: {next:?}");
        assert!(next[0] < initial[0], "concentrated layer must give");
        // A gap inside the hysteresis margin never fires.
        let mut calm = budgets(AllocatorSpec::EntropyDynamic, 3, 2, 60);
        for _ in 0..REALLOCATION_PERIOD {
            assert!(!calm.observe(&[0.5, 0.505, 0.51]));
        }
        assert_eq!(calm.budgets(), initial.as_slice());
    }

    #[test]
    fn entropy_dynamic_never_breaks_the_floor_or_ceilings() {
        let mut split = budgets(AllocatorSpec::EntropyDynamic, 3, 3, 30);
        // Hammer one extreme signal for many events: the donor must stop
        // at the floor and the recipient at its ceiling.
        for _ in 0..64 * REALLOCATION_PERIOD {
            split.observe(&[0.0, 0.5, 1.0]);
            assert_eq!(split.budgets().iter().sum::<usize>(), 30);
            for l in 0..3 {
                assert!(split.budgets()[l] >= 3, "floor broken at {l}: {split:?}");
                assert!(
                    split.budgets()[l] <= split.ceilings()[l],
                    "ceiling broken at {l}: {split:?}"
                );
            }
        }
        assert!(
            split.budgets()[2] > split.budgets()[0],
            "budget must have flowed to layer 2"
        );
    }

    #[test]
    fn single_layer_stack_never_reallocates() {
        let mut split = budgets(AllocatorSpec::EntropyDynamic, 1, 1, 32);
        assert_eq!(split.ceilings(), &[32]);
        for _ in 0..2 * REALLOCATION_PERIOD {
            assert!(!split.observe(&[0.9]));
        }
        assert_eq!(split.budgets(), &[32]);
    }

    #[test]
    fn specs_roundtrip_through_json() {
        let specs: Vec<AllocatorSpec> = AllocatorSpec::NAMES
            .iter()
            .map(|n| AllocatorSpec::from_name(n).unwrap())
            .collect();
        let text = serde_json::to_string_pretty(&specs).unwrap();
        let back: Vec<AllocatorSpec> = serde_json::from_str(&text).unwrap();
        assert_eq!(back, specs);
    }
}
