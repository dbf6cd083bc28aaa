//! Serializable policy specifications: construct any shipped [`Policy`]
//! from data instead of hand-wired closures.
//!
//! A [`PolicySpec`] is the registry entry for one policy configuration —
//! benches, examples, and CLI binaries describe *which* policy to run as a
//! value (JSON-serializable through the vendored serde), and the engine
//! mints fresh instances per sequence with [`PolicySpec::build`]. Every
//! policy the crate ships is covered; [`PolicySpec::from_name`] maps the
//! policy display names (what [`Policy::name`] reports) to documented
//! default configurations.

use serde::{Deserialize, Serialize};

use crate::error::HarnessError;
use crate::policies::{FullCache, HybridStaticDynamic, OracleTopK, SnapKv, StreamingLlm, H2O};
use crate::policy::Policy;
use crate::sim::SimConfig;

/// A buildable, serializable description of one policy configuration.
///
/// ```
/// use unicaim_kvcache::PolicySpec;
///
/// let spec = PolicySpec::hybrid_for_share(96, 16, 32);
/// let mut policy = spec.build();
/// assert_eq!(policy.name(), "hybrid_static_dynamic");
///
/// // Round-trips through JSON (the serving-config story).
/// let text = serde_json::to_string(&spec).unwrap();
/// let back: PolicySpec = serde_json::from_str(&text).unwrap();
/// assert_eq!(back, spec);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PolicySpec {
    /// [`FullCache`]: no pruning, the exact-attention reference.
    Full,
    /// [`StreamingLlm`]: fixed sinks + recency window.
    StreamingLlm {
        /// Number of protected attention-sink tokens.
        n_sinks: usize,
    },
    /// [`H2O`]: accumulated-attention heavy hitters + protected recents.
    H2O {
        /// Tokens protected from eviction by recency.
        recent_budget: usize,
    },
    /// [`SnapKv`]: one-shot prefill compression via observation window.
    SnapKv {
        /// Observation-window length (last prompt queries).
        obs_window: usize,
    },
    /// [`OracleTopK`]: exact per-step dynamic top-k (upper bound).
    OracleTopK,
    /// [`HybridStaticDynamic`]: the paper's hybrid scheme, with a
    /// running-sum score table and the newest token protected.
    HybridStaticDynamic {
        /// Prefill heavy-token budget `H`.
        h: usize,
        /// Reserved decode slots `M`.
        m: usize,
        /// Dynamic top-k width.
        k: usize,
    },
}

impl PolicySpec {
    /// Every registry name, in [`PolicySpec::from_name`] order. These are
    /// the same strings the built policies report from [`Policy::name`].
    pub const NAMES: [&'static str; 6] = [
        "full",
        "streaming_llm",
        "h2o",
        "snapkv",
        "oracle_topk",
        "hybrid_static_dynamic",
    ];

    /// The paper's hybrid scheme sized for a per-sequence slot share:
    /// `H = share - m` heavy prefill tokens, `m` reserved decode slots,
    /// top-`k` selection.
    #[must_use]
    pub fn hybrid_for_share(share: usize, m: usize, k: usize) -> Self {
        PolicySpec::HybridStaticDynamic {
            h: share.saturating_sub(m),
            m,
            k,
        }
    }

    /// Re-sizes this spec for a per-sequence slot share: the hybrid scheme
    /// re-splits its budget (`H = share − M`, same `M` and `k`), since its
    /// `H + M` *is* the cache size ([`PolicySpec::validate_for`]); every
    /// other policy is share-agnostic and passes through unchanged. This
    /// is how a serving front end maps one configured policy onto whatever
    /// share its admission controller hands each request.
    #[must_use]
    pub fn for_share(&self, share: usize) -> Self {
        match *self {
            PolicySpec::HybridStaticDynamic { m, k, .. } => Self::hybrid_for_share(share, m, k),
            ref other => other.clone(),
        }
    }

    /// The smallest per-layer slot share this policy can meaningfully run
    /// under — the floor [`LayerBudgets`](crate::LayerBudgets) never
    /// pushes a layer's budget below.
    ///
    /// The hybrid scheme needs its `M` reserved decode slots plus at least
    /// one static token (`m + 1`); StreamingLLM needs its sinks plus one
    /// window slot; H2O needs its protected recents plus one heavy hitter.
    /// Share-agnostic policies (full, oracle, snapkv) degrade gracefully
    /// down to a single slot.
    #[must_use]
    pub fn min_viable_share(&self) -> usize {
        match *self {
            PolicySpec::StreamingLlm { n_sinks } => n_sinks + 1,
            PolicySpec::H2O { recent_budget } => recent_budget + 1,
            PolicySpec::HybridStaticDynamic { m, .. } => m + 1,
            PolicySpec::Full | PolicySpec::OracleTopK | PolicySpec::SnapKv { .. } => 1,
        }
    }

    /// Looks a spec up by policy display name, with documented default
    /// parameters: 4 sinks (`streaming_llm`), recent budget 16 (`h2o`),
    /// observation window 16 (`snapkv`), and an `H=80, M=16, k=32` hybrid
    /// (the 96-slot share the throughput bench uses).
    ///
    /// # Errors
    ///
    /// [`HarnessError::UnknownPolicy`] for a name outside
    /// [`PolicySpec::NAMES`].
    pub fn from_name(name: &str) -> Result<Self, HarnessError> {
        match name {
            "full" => Ok(PolicySpec::Full),
            "streaming_llm" => Ok(PolicySpec::StreamingLlm { n_sinks: 4 }),
            "h2o" => Ok(PolicySpec::H2O { recent_budget: 16 }),
            "snapkv" => Ok(PolicySpec::SnapKv { obs_window: 16 }),
            "oracle_topk" => Ok(PolicySpec::OracleTopK),
            "hybrid_static_dynamic" => Ok(PolicySpec::hybrid_for_share(96, 16, 32)),
            other => Err(HarnessError::UnknownPolicy {
                name: other.to_owned(),
            }),
        }
    }

    /// The display name the built policy will report ([`Policy::name`]).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            PolicySpec::Full => "full",
            PolicySpec::StreamingLlm { .. } => "streaming_llm",
            PolicySpec::H2O { .. } => "h2o",
            PolicySpec::SnapKv { .. } => "snapkv",
            PolicySpec::OracleTopK => "oracle_topk",
            PolicySpec::HybridStaticDynamic { .. } => "hybrid_static_dynamic",
        }
    }

    /// Checks that the spec's budget is consistent with the slot budget of
    /// the [`SimConfig`] it is about to run under.
    ///
    /// The hybrid scheme's `H + M` split *is* the paper's fixed cache
    /// size: a spec whose `H + M` differs from the session's capacity
    /// (in either direction) silently mis-prunes — over-subscribed specs
    /// spill static tokens into the reserved decode slots, while
    /// under-subscribed ones strand capacity the policy will never fill.
    /// Likewise a prefill budget below `H` truncates the static stage
    /// behind the policy's back. Session and engine construction from a
    /// spec ([`DecodeSession::prefill_spec`](crate::DecodeSession::prefill_spec),
    /// [`DecodeEngine::run`](crate::DecodeEngine::run)) reject both.
    ///
    /// # Errors
    ///
    /// [`HarnessError::InvalidSpec`] naming the mismatched budget.
    pub fn validate_for(&self, config: &SimConfig) -> Result<(), HarnessError> {
        if let PolicySpec::HybridStaticDynamic { h, m, .. } = *self {
            if h + m != config.capacity {
                return Err(HarnessError::InvalidSpec {
                    reason: format!(
                        "hybrid budget H + M = {h} + {m} = {} does not match the \
                         session's cache capacity of {} slots",
                        h + m,
                        config.capacity
                    ),
                });
            }
            if config.prefill_budget < h {
                return Err(HarnessError::InvalidSpec {
                    reason: format!(
                        "prefill budget {} cannot place the hybrid spec's H = {h} \
                         static tokens",
                        config.prefill_budget
                    ),
                });
            }
        }
        Ok(())
    }

    /// Builds a fresh policy instance. Policies are [`Send`] by trait
    /// bound, so the built box can cross worker-pool threads.
    #[must_use]
    pub fn build(&self) -> Box<dyn Policy> {
        match *self {
            PolicySpec::Full => Box::new(FullCache::new()),
            PolicySpec::StreamingLlm { n_sinks } => Box::new(StreamingLlm::new(n_sinks)),
            PolicySpec::H2O { recent_budget } => Box::new(H2O::new(recent_budget)),
            PolicySpec::SnapKv { obs_window } => Box::new(SnapKv::new(obs_window)),
            PolicySpec::OracleTopK => Box::new(OracleTopK::new()),
            PolicySpec::HybridStaticDynamic { h, k, .. } => {
                Box::new(HybridStaticDynamic::new(h, k))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_resolves_and_builds_with_matching_name() {
        for name in PolicySpec::NAMES {
            let spec = PolicySpec::from_name(name).unwrap();
            assert_eq!(spec.name(), name);
            assert_eq!(spec.build().name(), name);
        }
    }

    #[test]
    fn unknown_name_is_a_typed_error() {
        assert_eq!(
            PolicySpec::from_name("quest"),
            Err(HarnessError::UnknownPolicy {
                name: "quest".into()
            })
        );
    }

    #[test]
    fn validate_for_cross_checks_hybrid_budget_both_directions() {
        let spec = PolicySpec::hybrid_for_share(96, 16, 32); // H=80, M=16
                                                             // Matching slot budget: accepted.
        spec.validate_for(&SimConfig::reserved_decode_slots(96, 32, 16))
            .unwrap();
        // Default prefill budget (= capacity ≥ H): also accepted.
        spec.validate_for(&SimConfig::new(96, 32)).unwrap();
        // Over-subscribed: the session has fewer slots than H + M.
        let err = spec.validate_for(&SimConfig::new(64, 32)).unwrap_err();
        assert!(
            matches!(err, HarnessError::InvalidSpec { ref reason } if reason.contains("96")),
            "{err:?}"
        );
        // Under-subscribed: the session has more slots than H + M.
        assert!(matches!(
            spec.validate_for(&SimConfig::new(128, 32)),
            Err(HarnessError::InvalidSpec { .. })
        ));
        // Prefill budget too small to place the H static tokens.
        assert!(matches!(
            spec.validate_for(&SimConfig::new(96, 32).with_prefill_budget(40)),
            Err(HarnessError::InvalidSpec { .. })
        ));
        // Non-hybrid specs carry no budget to cross-check.
        PolicySpec::Full
            .validate_for(&SimConfig::new(8, 4))
            .unwrap();
    }

    #[test]
    fn from_name_default_hybrid_matches_its_documented_share() {
        // The registry default (96, 16, 32) must pass its own cross-check
        // against the 96-slot share it documents.
        let spec = PolicySpec::from_name("hybrid_static_dynamic").unwrap();
        spec.validate_for(&SimConfig::new(96, 32)).unwrap();
    }

    #[test]
    fn hybrid_for_share_reserves_decode_slots() {
        let spec = PolicySpec::hybrid_for_share(96, 16, 32);
        assert_eq!(
            spec,
            PolicySpec::HybridStaticDynamic {
                h: 80,
                m: 16,
                k: 32
            }
        );
    }

    #[test]
    fn for_share_resplits_only_the_hybrid_budget() {
        let hybrid = PolicySpec::HybridStaticDynamic {
            h: 80,
            m: 16,
            k: 32,
        };
        let resized = hybrid.for_share(48);
        assert_eq!(
            resized,
            PolicySpec::HybridStaticDynamic {
                h: 32,
                m: 16,
                k: 32,
            }
        );
        resized
            .validate_for(&SimConfig::reserved_decode_slots(48, 32, 16))
            .unwrap();
        // Share-agnostic policies pass through unchanged.
        let streaming = PolicySpec::StreamingLlm { n_sinks: 4 };
        assert_eq!(streaming.for_share(48), streaming);
    }

    #[test]
    fn min_viable_share_tracks_the_policy_floors() {
        assert_eq!(PolicySpec::Full.min_viable_share(), 1);
        assert_eq!(PolicySpec::OracleTopK.min_viable_share(), 1);
        assert_eq!(PolicySpec::SnapKv { obs_window: 16 }.min_viable_share(), 1);
        assert_eq!(
            PolicySpec::StreamingLlm { n_sinks: 4 }.min_viable_share(),
            5
        );
        assert_eq!(PolicySpec::H2O { recent_budget: 16 }.min_viable_share(), 17);
        assert_eq!(
            PolicySpec::hybrid_for_share(96, 16, 32).min_viable_share(),
            17
        );
    }

    #[test]
    fn specs_roundtrip_through_json() {
        let specs: Vec<PolicySpec> = PolicySpec::NAMES
            .iter()
            .map(|n| PolicySpec::from_name(n).unwrap())
            .collect();
        let text = serde_json::to_string_pretty(&specs).unwrap();
        let back: Vec<PolicySpec> = serde_json::from_str(&text).unwrap();
        assert_eq!(back, specs);
    }
}
