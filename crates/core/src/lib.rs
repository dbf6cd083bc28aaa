//! The UniCAIM unified CAM/CIM array and decode engine.
//!
//! This crate implements the paper's primary hardware contribution
//! (Section III.B): a single FeFET-based memory array holding the key cache
//! that operates in three modes —
//!
//! 1. **CAM mode** ([`UniCaimArray::cam_top_k`]): all sense lines are
//!    precharged and race to discharge; because the cell is built so that a
//!    *higher* query·key similarity yields a *lower* sense current, the
//!    top-k most similar rows are simply the last k lines still high, which
//!    a current-sum comparator (`I_Ref1 = (k+1)·I_dyn`) detects in O(1)
//!    time — dynamic pruning without computing a single attention score.
//! 2. **Charge-domain CIM mode**
//!    ([`UniCaimArray::accumulate_and_candidate`]): the residual sense-line
//!    voltages are charge-shared into per-row accumulation capacitors; a
//!    programmable FeFET inverter flags the row with the lowest accumulated
//!    similarity as the static-eviction candidate — in the same operation
//!    cycle.
//! 3. **Current-domain CIM mode** ([`UniCaimArray::exact_scores`]): only the
//!    selected top-k rows pay for 10-bit SAR ADC conversions; `I_SL` is
//!    linear in the signed MAC value (Fig. 9), and since selected rows have
//!    the *smallest* currents, their conversions are also the cheapest.
//!
//! The [`UniCaimEngine`] stitches the modes into the full decode loop of
//! the paper's Fig. 4 (CAM top-k → charge-domain eviction candidate →
//! current-domain exact attention → in-slot key write) and mirrors the
//! software policy [`unicaim_kvcache::HybridStaticDynamic`] for
//! cross-validation.
//!
//! # Quickstart
//!
//! ```
//! use unicaim_core::{ArrayConfig, UniCaimArray, KeyLevel};
//!
//! let mut array = UniCaimArray::new(ArrayConfig { rows: 8, dim: 4, ..ArrayConfig::default() });
//! let key = vec![KeyLevel::PosOne, KeyLevel::NegOne, KeyLevel::Zero, KeyLevel::PosOne];
//! array.write_row(0, 7, &key).unwrap();
//! assert_eq!(array.token_of_row(0), Some(7));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod array;
mod cell;
mod encoder;
mod engine;
mod levels;
mod stats;

pub use array::{ArrayConfig, CamSearch, UniCaimArray};
pub use cell::{score_slope_current, unit_current, UniCaimCell};
pub use encoder::{expand_query_level, CellDrive, QueryEncoder};
pub use engine::{EngineConfig, HardwareRunResult, StepReport, UniCaimEngine};
pub use levels::{
    level_score, quantize_key, quantize_query, CellPrecision, KeyLevel, QueryLevel, QueryPrecision,
};
pub use stats::OpStats;

/// Errors reported by the UniCAIM core.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A row index was out of range.
    RowOutOfRange {
        /// The offending row.
        row: usize,
        /// The number of rows.
        rows: usize,
    },
    /// A key/query vector had the wrong dimension.
    DimMismatch {
        /// Provided length.
        got: usize,
        /// Expected length.
        expected: usize,
    },
    /// A configuration value failed validation.
    InvalidConfig {
        /// Human-readable description.
        reason: String,
    },
    /// The requested operation needs an occupied row but the row was empty.
    EmptyRow {
        /// The offending row.
        row: usize,
    },
}

impl core::fmt::Display for CoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CoreError::RowOutOfRange { row, rows } => {
                write!(f, "row {row} out of range ({rows} rows)")
            }
            CoreError::DimMismatch { got, expected } => {
                write!(f, "dimension mismatch: got {got}, expected {expected}")
            }
            CoreError::InvalidConfig { reason } => write!(f, "invalid config: {reason}"),
            CoreError::EmptyRow { row } => write!(f, "row {row} is empty"),
        }
    }
}

impl std::error::Error for CoreError {}
