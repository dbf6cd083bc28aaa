//! KV-cache pruning policies for long-context LLM inference.
//!
//! This crate implements the *algorithm* side of the UniCAIM paper —
//! the hybrid static-dynamic KV-cache pruning framework of Section III.A —
//! together with the baselines it is compared against:
//!
//! | Policy | Kind | Reference |
//! |---|---|---|
//! | [`HybridStaticDynamic`] | static (prefill + decode) **and** dynamic top-k | this paper |
//! | [`StreamingLlm`] | static, fixed pattern (sinks + recent window) | Xiao et al. 2023 |
//! | [`SnapKv`] | static, one-shot prefill compression via observation window | Li et al. 2024 |
//! | [`H2O`] | static, accumulated-attention heavy hitters + recents | Zhang et al. 2024 |
//! | [`OracleTopK`] | dynamic, exact per-step top-k (upper bound) | Quest-style |
//! | [`FullCache`] | none (exact attention reference) | — |
//!
//! Policies are driven over the synthetic long-context workloads of
//! [`unicaim_attention::workloads`], producing retrieval and
//! output-fidelity metrics (the Fig. 13 substitution: ground-truth
//! salient-token retrieval on synthetic tasks stands in for the paper's
//! LongBench answer F1 through a 7B LLM).
//! The public API is session-oriented:
//!
//! * [`DecodeSession`] — one sequence admitted, stepped, and retired
//!   incrementally (`prefill` → `step` → `finish`), with every harness ↔
//!   policy contract violation surfacing as a typed [`HarnessError`];
//! * [`PolicySpec`] — a serializable registry entry that builds any
//!   shipped policy from data ([`PolicySpec::build`],
//!   [`PolicySpec::from_name`]);
//! * [`DecodeEngine`] — the one batch driver: admits N sequences against
//!   one shared slot budget, runs them on a [`WorkerPool`] (one worker
//!   steps them in order on the calling thread), and retires them into a
//!   [`BatchResult`];
//! * [`ServeCore`] — the continuous-batching server core: bounded
//!   per-tenant request queues, admission control against the shared slot
//!   budget, priority preemption with re-prefill, sequences joining and
//!   leaving mid-flight, and a [`ServerMetrics`] surface (queue depth,
//!   TTFT/latency percentiles, occupancy histogram) measured in
//!   deterministic virtual-time ticks;
//! * [`PrefixRegistry`] — content-addressed shared-prefix cache: sessions
//!   admitted through [`DecodeSession::prefill_shared`] (or a
//!   registry-equipped serve core) splice refcounted pages of an
//!   already-prefilled prefix into their KV store instead of recomputing
//!   it, bit-identically (copy-on-write isolates later mutation);
//! * [`LayerStackSession`] — the multi-layer decode stack: K per-layer
//!   [`DecodeSession`]s driven in lockstep under one *global* KV budget,
//!   which [`LayerBudgets`] splits across depths under the allocator an
//!   [`AllocatorSpec`] names: uniform, depth-decayed, or entropy-driven
//!   (re-balancing budgets mid-decode);
//! * [`simulate_decode`] — a thin run-to-completion wrapper over one
//!   [`DecodeSession`] for the single-sequence scientific call sites.
//!
//! # Quickstart
//!
//! ```
//! use unicaim_attention::workloads::needle_task;
//! use unicaim_kvcache::{simulate_decode, HybridStaticDynamic, SimConfig};
//!
//! let workload = needle_task(128, 16, 7);
//! let mut policy = HybridStaticDynamic::new(48, 8);
//! let result = simulate_decode(&workload, &mut policy, &SimConfig::new(64, 8)).unwrap();
//! assert!(result.salient_recall > 0.5);
//! ```
//!
//! Serving-style, through the engine:
//!
//! ```
//! use unicaim_attention::workloads::mixed_batch;
//! use unicaim_kvcache::{DecodeEngine, EngineConfig, PolicySpec, SchedulerSpec};
//!
//! let workloads = mixed_batch(4, 64, 8, 7);
//! let engine = DecodeEngine::new(
//!     EngineConfig::new(4 * 24, 8).with_scheduler(SchedulerSpec::WorkerPool { workers: 0 }),
//! );
//! let result = engine
//!     .run(&workloads, &PolicySpec::hybrid_for_share(24, 4, 8))
//!     .unwrap();
//! assert_eq!(result.n_sequences, 4);
//! ```

// `deny` rather than `forbid`: the worker pool's helper module scopes a
// single `expect(unsafe_code)` around the one block that hands a borrowed
// job to its long-lived threads.
#![deny(unsafe_code)]
#![warn(missing_docs)]
// Project invariants, gated by `cargo clippy -- -D warnings`. Library
// code reports faults as typed errors instead of panicking (tests may
// panic), reads no wall clock (the types are listed in this crate's
// `clippy.toml`), documents every `unsafe` block and function, and gives
// a reason for every lint escape. A true invariant that needs a panic says so with
// `#[expect(clippy::…, reason = "…")]`, which fails once the panic is gone.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![deny(
    clippy::undocumented_unsafe_blocks,
    clippy::missing_safety_doc,
    clippy::disallowed_types,
    clippy::allow_attributes_without_reason
)]

mod allocator;
mod engine;
mod error;
mod metrics;
mod policy;
mod pool;
mod prefix;
mod score;
mod serve;
mod session;
mod sim;
mod spec;
mod stack;

pub mod policies;

pub use allocator::{AllocatorSpec, LayerBudgets};
pub use engine::{BatchConfig, BatchResult, DecodeEngine, EngineConfig, SchedulerSpec, WorkerPool};
pub use error::HarnessError;
pub use metrics::{MetricsSummary, ServerMetrics, OCCUPANCY_BUCKETS};
pub use policies::{FullCache, HybridStaticDynamic, OracleTopK, SnapKv, StreamingLlm, H2O};
pub use policy::{accumulated_prefill_scores, top_indices_by_score, Policy, StepDecision};
pub use prefix::{PrefixRegistry, PrefixStats};
pub use score::ScoreTable;
pub use serve::{CompletedRequest, Priority, ServeConfig, ServeCore, ServeReport, SubmitOutcome};
pub use session::{DecodeSession, ReuseReport, StepOutcome};
pub use sim::{
    prefill_attention_matrix, ratio_capacity, simulate_decode, DecodeMetrics, SimConfig, SimResult,
};
pub use spec::PolicySpec;
pub use stack::{simulate_stack, LayerStackSession, StackConfig, StackResult};
// The key-arena storage precision every session/batch config carries
// (defined next to `KvStore` in the attention crate).
pub use unicaim_attention::Precision;
