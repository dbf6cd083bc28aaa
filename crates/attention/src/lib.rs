//! Transformer attention substrate for the UniCAIM reproduction.
//!
//! The paper evaluates its KV-cache pruning algorithm on a 7B-parameter LLM
//! (LongChat-v1.5-7B-32k) over LongBench tasks. Running such a model is out
//! of scope for a self-contained Rust repository, so this crate provides the
//! pieces that the *pruning* evaluation actually needs:
//!
//! * small dense linear algebra ([`Matrix`], [`softmax_rows`], top-k utils),
//! * exact attention and KV-cache storage ([`MultiHeadAttention`],
//!   [`KvStore`]),
//! * a deterministic, seeded [`TinyTransformer`] that produces
//!   realistically structured attention (sink tokens, locality, heavy
//!   hitters),
//! * long-context retrieval [`workloads`] with *ground-truth salient sets*
//!   so retrieval F1 is exactly measurable (single-needle, multi-hop
//!   "HotpotQA-like", diffuse "NarrativeQA-like"),
//! * [`llama`] — analytic Llama-2-7B KV-cache size / attention-latency
//!   curves (paper Fig. 1b).
//!
//! # Quickstart
//!
//! ```
//! use unicaim_attention::{Matrix, softmax_rows};
//!
//! let mut scores = Matrix::from_rows(&[vec![0.0, 1.0, 2.0]]);
//! softmax_rows(&mut scores);
//! let row: f32 = scores.row(0).iter().sum();
//! assert!((row - 1.0).abs() < 1e-6);
//! ```

// `deny` rather than `forbid`: the SIMD backend module scopes a single
// `#![allow(unsafe_code)]` around its feature-gated intrinsics; every
// other module stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod kernels;
mod kv;
pub mod llama;
mod matrix;
pub mod metrics;
mod mha;
pub mod paged;
mod simd;
mod transformer;
pub mod workloads;

pub use kernels::{active_backend, KernelBackend};
pub use kv::{KvStore, Precision};
pub use matrix::{layer_norm_in_place, softmax_in_place, softmax_rows, Matrix};
pub use mha::{attention_output, attention_scores, AttentionConfig, MultiHeadAttention};
pub use paged::{
    ArenaStats, Page, PageArena, PageHandle, PagedQuantRows, PagedRows, DEFAULT_PAGE_ROWS,
};
pub use transformer::{TinyTransformer, TransformerConfig};

/// Errors reported by the attention substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum AttentionError {
    /// Matrix dimensions were incompatible for the requested operation.
    ShapeMismatch {
        /// Description of the operation and offending shapes.
        context: String,
    },
    /// An index was out of bounds.
    IndexOutOfRange {
        /// The offending index.
        index: usize,
        /// The container length.
        len: usize,
    },
    /// A token id was written into a [`KvStore`] while already resident in
    /// a different slot (token ids must be unique across occupied slots).
    DuplicateToken {
        /// The duplicated token id.
        token: usize,
        /// The slot already holding it.
        slot: usize,
    },
}

impl core::fmt::Display for AttentionError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AttentionError::ShapeMismatch { context } => write!(f, "shape mismatch: {context}"),
            AttentionError::IndexOutOfRange { index, len } => {
                write!(f, "index {index} out of range for length {len}")
            }
            AttentionError::DuplicateToken { token, slot } => {
                write!(f, "token {token} is already resident in slot {slot}")
            }
        }
    }
}

impl std::error::Error for AttentionError {}
