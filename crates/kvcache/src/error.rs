//! Typed errors for the decode harness: every harness ↔ policy contract
//! violation that used to `panic!` is now a [`HarnessError`] carrying the
//! offending token/step, so a serving loop can retire one broken sequence
//! without tearing the whole engine down.

use serde::{Deserialize, Serialize};

/// A violation of the harness ↔ policy contract (see [`Policy`]), or a
/// malformed request to the serving API.
///
/// Each variant names the offending token and, where one exists, the decode
/// step at which the violation happened. The drivers
/// ([`simulate_decode`](crate::simulate_decode), [`DecodeEngine`]) surface
/// these instead of panicking, so a broken policy still cannot hide behind
/// quietly degraded metrics — but a caller can now decide what to do about
/// it.
///
/// [`Policy`]: crate::Policy
/// [`DecodeEngine`]: crate::DecodeEngine
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum HarnessError {
    /// The policy's prefill keep set does not fit the cache capacity.
    PrefillOverBudget {
        /// Number of tokens the policy tried to keep.
        kept: usize,
        /// Physical slot capacity of the cache.
        capacity: usize,
    },
    /// The policy's prefill keep set names a token outside the prompt.
    PrefillOutOfRange {
        /// The offending token id.
        token: usize,
        /// Number of prompt tokens (valid ids are `0..prefill_len`).
        prefill_len: usize,
    },
    /// The policy's prefill keep set lists the same token twice.
    PrefillDuplicate {
        /// The repeated token id.
        token: usize,
    },
    /// The policy selected a token that is not resident
    /// (selections must be a subset of the scored resident set).
    SelectedNonResident {
        /// Decode step at which the selection was made.
        step: usize,
        /// The non-resident token id.
        token: usize,
    },
    /// The policy named an eviction victim that is not resident.
    EvictedNonResident {
        /// Decode step at which the eviction was requested.
        step: usize,
        /// The non-resident victim token id.
        token: usize,
    },
    /// Inserting the newly generated token collided with a token already
    /// resident under the same id.
    DuplicateToken {
        /// Decode step at which the insert happened.
        step: usize,
        /// The colliding token id.
        token: usize,
    },
    /// [`DecodeSession::step`](crate::DecodeSession::step) was called on a
    /// session whose decode steps are all done.
    SessionExhausted {
        /// Total number of decode steps the session had.
        steps: usize,
    },
    /// A batched run was requested with no sequences, or with sequences
    /// that have no decode steps at all (a vacuous result).
    EmptyBatch,
    /// [`PolicySpec::from_name`](crate::PolicySpec::from_name) was given a
    /// name outside the registry.
    UnknownPolicy {
        /// The unrecognized name.
        name: String,
    },
    /// A [`PolicySpec`](crate::PolicySpec)'s budget does not fit the
    /// session it is to run under: a hybrid `H + M` other than the slot
    /// capacity, or a prefill budget below `H`
    /// ([`PolicySpec::validate_for`](crate::PolicySpec::validate_for)).
    InvalidSpec {
        /// Human-readable description of the mismatched budget.
        reason: String,
    },
    /// A [`ServeConfig`](crate::ServeConfig) carries a parameter no
    /// serving core can run under (zero-sized sessions, a session share
    /// larger than the shared budget, an empty queue bound, …).
    InvalidServeConfig {
        /// Human-readable description of the bad parameter.
        reason: String,
    },
    /// A [`PrefixRegistry`](crate::PrefixRegistry) was created with a
    /// shape it cannot operate under (zero dimension, or a zero page
    /// budget that could never cache a prefix).
    InvalidPrefixConfig {
        /// Human-readable description of the bad parameter.
        reason: String,
    },
    /// A workload was prefilled against a
    /// [`PrefixRegistry`](crate::PrefixRegistry) whose page arena holds
    /// rows of a different width — its cached pages could never splice
    /// into this session's store.
    PrefixDimMismatch {
        /// Row width of the registry's page arena.
        registry_dim: usize,
        /// The workload's vector dimension.
        workload_dim: usize,
    },
    /// A [`StackConfig`](crate::StackConfig) carries a parameter no layer
    /// stack can run under (zero layers, per-layer workloads with
    /// mismatched decode lengths, a global budget too small to give every
    /// layer its policy's minimum viable share, …).
    InvalidLayerConfig {
        /// Human-readable description of the bad parameter.
        reason: String,
    },
    /// [`AllocatorSpec::from_name`](crate::AllocatorSpec::from_name) was
    /// given a name outside the registry.
    UnknownAllocator {
        /// The unrecognized name.
        name: String,
    },
}

impl core::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            HarnessError::PrefillOverBudget { kept, capacity } => write!(
                f,
                "prefill keep set of {kept} tokens exceeds the cache capacity of {capacity} slots"
            ),
            HarnessError::PrefillOutOfRange { token, prefill_len } => write!(
                f,
                "prefill keep set names token {token}, outside the prompt (prefill_len {prefill_len})"
            ),
            HarnessError::PrefillDuplicate { token } => {
                write!(f, "prefill keep set lists token {token} more than once")
            }
            HarnessError::SelectedNonResident { step, token } => write!(
                f,
                "policy selected token {token} at step {step}, which is not resident \
                 (selections must be a subset of the scored resident set)"
            ),
            HarnessError::EvictedNonResident { step, token } => write!(
                f,
                "policy evicted token {token} at step {step}, which is not resident"
            ),
            HarnessError::DuplicateToken { step, token } => write!(
                f,
                "inserting token {token} at step {step} collided with an already-resident token"
            ),
            HarnessError::SessionExhausted { steps } => {
                write!(f, "all {steps} decode steps of this session are already done")
            }
            HarnessError::EmptyBatch => {
                write!(f, "batch contains no sequences (or no decode steps) to run")
            }
            HarnessError::UnknownPolicy { name } => write!(
                f,
                "unknown policy `{name}` (expected one of {:?})",
                crate::PolicySpec::NAMES
            ),
            HarnessError::InvalidSpec { reason } => write!(f, "invalid policy spec: {reason}"),
            HarnessError::InvalidServeConfig { reason } => {
                write!(f, "invalid serve config: {reason}")
            }
            HarnessError::InvalidPrefixConfig { reason } => {
                write!(f, "invalid prefix registry config: {reason}")
            }
            HarnessError::PrefixDimMismatch {
                registry_dim,
                workload_dim,
            } => write!(
                f,
                "prefix registry pages hold rows of width {registry_dim}, \
                 but the workload's vectors have dimension {workload_dim}"
            ),
            HarnessError::InvalidLayerConfig { reason } => {
                write!(f, "invalid layer-stack config: {reason}")
            }
            HarnessError::UnknownAllocator { name } => write!(
                f,
                "unknown allocator `{name}` (expected one of {:?})",
                crate::AllocatorSpec::NAMES
            ),
        }
    }
}

impl std::error::Error for HarnessError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_offender() {
        let e = HarnessError::SelectedNonResident { step: 3, token: 42 };
        let msg = e.to_string();
        assert!(msg.contains("42") && msg.contains("step 3"), "{msg}");
        assert!(HarnessError::EmptyBatch
            .to_string()
            .contains("no sequences"));
        let u = HarnessError::UnknownPolicy {
            name: "nope".into(),
        };
        assert!(u.to_string().contains("nope"));
        let a = HarnessError::UnknownAllocator {
            name: "nope".into(),
        };
        assert!(a.to_string().contains("nope") && a.to_string().contains("uniform"));
        let l = HarnessError::InvalidLayerConfig {
            reason: "zero layers".into(),
        };
        assert!(l.to_string().contains("zero layers"));
    }

    #[test]
    fn roundtrips_through_json() {
        let errors = vec![
            HarnessError::PrefillOverBudget {
                kept: 9,
                capacity: 8,
            },
            HarnessError::SelectedNonResident { step: 1, token: 2 },
            HarnessError::EmptyBatch,
            HarnessError::UnknownPolicy { name: "x".into() },
            HarnessError::InvalidServeConfig {
                reason: "session share of 0 slots".into(),
            },
            HarnessError::InvalidPrefixConfig {
                reason: "page budget of 0".into(),
            },
            HarnessError::PrefixDimMismatch {
                registry_dim: 16,
                workload_dim: 32,
            },
            HarnessError::InvalidLayerConfig {
                reason: "0 layers".into(),
            },
            HarnessError::UnknownAllocator { name: "x".into() },
        ];
        let text = serde_json::to_string(&errors).unwrap();
        let back: Vec<HarnessError> = serde_json::from_str(&text).unwrap();
        assert_eq!(back, errors);
    }
}
