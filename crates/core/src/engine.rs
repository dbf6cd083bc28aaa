//! The UniCAIM decode engine: the full per-step pipeline of paper Fig. 4
//! (CAM top-k → charge-domain eviction candidate → current-domain exact
//! attention → in-slot key write), runnable over the same workloads as the
//! software policies for cross-validation.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use unicaim_attention::kernels::{self, RowView};
use unicaim_attention::metrics::{cosine_similarity, relative_l2_error, set_f1, Mean};
use unicaim_attention::softmax_in_place;
use unicaim_attention::workloads::DecodeWorkload;
use unicaim_kvcache::{
    accumulated_prefill_scores, prefill_attention_matrix, top_indices_by_score, SimResult,
};

use crate::array::{ArrayConfig, UniCaimArray};
use crate::levels::{quantize_key, quantize_query};
use crate::stats::OpStats;
use crate::CoreError;

/// Engine configuration: the paper's `(H, M, k)` operating point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Heavy prefill tokens retained by one-shot static pruning.
    pub h: usize,
    /// Reserved rows for newly generated tokens.
    pub m: usize,
    /// Dynamic top-k width.
    pub k: usize,
}

impl EngineConfig {
    /// The paper's reference operating point: 512 heavy + 64 reserved,
    /// top-64 selection.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            h: 512,
            m: 64,
            k: 64,
        }
    }

    /// Total rows the engine's array needs.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.h + self.m
    }
}

/// Outcome of a single hardware decode step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepReport {
    /// Tokens selected by the CAM top-k.
    pub selected_tokens: Vec<usize>,
    /// Token statically evicted this step (its row was overwritten).
    pub evicted_token: Option<usize>,
    /// De-quantized attention scores of the selected tokens,
    /// `(token, score)` in real (un-quantized) units.
    pub scores: Vec<(usize, f64)>,
    /// The attention output computed over the selected tokens.
    pub output: Vec<f32>,
}

/// Aggregate result of a hardware run: the same metrics as the software
/// harness plus the hardware operation statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HardwareRunResult {
    /// Retrieval/fidelity metrics (field-compatible with the software
    /// harness results).
    pub metrics: SimResult,
    /// Hardware operation statistics for the whole run.
    pub stats: OpStats,
}

/// The UniCAIM decode engine.
///
/// # Examples
///
/// ```
/// use unicaim_attention::workloads::needle_task;
/// use unicaim_core::{ArrayConfig, EngineConfig, UniCaimEngine};
///
/// # fn main() -> Result<(), unicaim_core::CoreError> {
/// let workload = needle_task(96, 8, 1);
/// let mut engine = UniCaimEngine::new(
///     ArrayConfig { dim: workload.dim, sigma_vth: 0.0, ..ArrayConfig::default() },
///     EngineConfig { h: 48, m: 8, k: 16 },
/// )?;
/// let result = engine.run(&workload)?;
/// assert!(result.metrics.salient_recall > 0.9);
/// assert_eq!(result.stats.cam_searches, 8); // one CAM search per step
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct UniCaimEngine {
    array: UniCaimArray,
    config: EngineConfig,
    /// Host-side value arena, `rows × dim` row-major, parallel to the
    /// array's key rows (the UniCAIM array holds the key cache; values are
    /// fetched only for the selected rows). Occupancy is tracked by the
    /// array's row→token map; an eviction's value row is simply overwritten
    /// by the incoming token's values.
    values: Vec<f32>,
    query_scale_dim: f64,
}

impl UniCaimEngine {
    /// Creates an engine; the array is sized to exactly `h + m` rows.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for a zero-sized operating point
    /// or an invalid array configuration.
    pub fn new(mut array_config: ArrayConfig, config: EngineConfig) -> Result<Self, CoreError> {
        if config.h == 0 || config.m == 0 || config.k == 0 {
            return Err(CoreError::InvalidConfig {
                reason: format!("h, m, k must be nonzero (got {config:?})"),
            });
        }
        array_config.rows = config.rows();
        let array = UniCaimArray::try_new(array_config)?;
        let query_scale_dim = (array.dim() as f64).sqrt();
        let values = vec![0.0; array.rows() * array.dim()];
        Ok(Self {
            array,
            config,
            values,
            query_scale_dim,
        })
    }

    /// The engine configuration.
    #[must_use]
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// The underlying array (for inspection).
    #[must_use]
    pub fn array(&self) -> &UniCaimArray {
        &self.array
    }

    /// Tokens currently resident in the array, ascending.
    #[must_use]
    pub fn resident_tokens(&self) -> Vec<usize> {
        let mut t: Vec<usize> = self
            .array
            .occupied_rows()
            .iter()
            .filter_map(|&r| self.array.token_of_row(r))
            .collect();
        t.sort_unstable();
        t
    }

    /// Loads a workload's prefill: computes accumulated attention scores on
    /// the host (prefill runs outside the accelerator, as in the paper),
    /// keeps the top `H` heavy tokens, quantizes their keys, and writes them
    /// into the array.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimMismatch`] if the workload dimension differs
    /// from the array dimension.
    pub fn load_prefill(&mut self, workload: &DecodeWorkload) -> Result<(), CoreError> {
        if workload.dim != self.array.dim() {
            return Err(CoreError::DimMismatch {
                got: workload.dim,
                expected: self.array.dim(),
            });
        }
        let attn = prefill_attention_matrix(workload);
        let acc = accumulated_prefill_scores(&attn, None);
        let keep = top_indices_by_score(&acc, self.config.h.min(workload.prefill_keys.len()));
        for &token in &keep {
            let (levels, scale) = quantize_key(
                &workload.prefill_keys[token],
                self.array.config().cell_precision,
            );
            let row = self.array.free_row().expect("prefill keep fits h rows");
            self.array.write_row_scaled(row, token, &levels, scale)?;
            self.write_value_row(row, &workload.prefill_values[token]);
        }
        Ok(())
    }

    /// Copies a token's values into the arena row parallel to its key row.
    fn write_value_row(&mut self, row: usize, value: &[f32]) {
        let dim = self.array.dim();
        self.values[row * dim..(row + 1) * dim].copy_from_slice(value);
    }

    /// Executes one decode step through the three hardware modes and writes
    /// the newly generated token's key into the array (evicting the
    /// charge-domain candidate when no row is free).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimMismatch`] for wrong-sized inputs.
    pub fn decode_step(
        &mut self,
        new_token: usize,
        query: &[f32],
        new_key: &[f32],
        new_value: &[f32],
    ) -> Result<StepReport, CoreError> {
        let dim = self.array.dim();
        if query.len() != dim || new_key.len() != dim {
            return Err(CoreError::DimMismatch {
                got: query.len(),
                expected: dim,
            });
        }
        let precision = self.array.config().query_precision;
        let (q_levels, q_scale) = quantize_query(query, precision);

        // 1. CAM mode: O(1) top-k selection.
        let search = self.array.cam_top_k(&q_levels, self.config.k)?;

        // 2. Charge-domain mode: accumulate similarity, get the eviction
        //    candidate in the same cycle.
        let candidate_row = self.array.accumulate_and_candidate(&search);

        // 3. Current-domain mode: exact scores for the selected rows only.
        let level_scores = self.array.exact_scores(&q_levels, &search.selected_rows)?;
        let mut scored_rows: Vec<(usize, usize, f64)> = level_scores
            .iter()
            .map(|&(row, s)| {
                let token = self.array.token_of_row(row).expect("selected row occupied");
                let real = s * self.array.scale_of_row(row) * q_scale / self.query_scale_dim;
                (token, row, real)
            })
            .collect();
        scored_rows.sort_unstable_by_key(|&(t, _, _)| t);

        // Attention output over the selected tokens: host-side softmax, then
        // a gathered weighted sum straight over the flat value arena.
        let mut weights: Vec<f32> = scored_rows.iter().map(|&(_, _, s)| s as f32).collect();
        softmax_in_place(&mut weights);
        let rows: Vec<usize> = scored_rows.iter().map(|&(_, r, _)| r).collect();
        let mut output = vec![0.0f32; dim];
        kernels::active_backend().weighted_sum_gather(
            &weights,
            RowView::contiguous(&self.values, dim),
            &rows,
            &mut output,
        );

        // 4. Insert the new token: free row, or statically evict the
        //    charge-domain candidate and overwrite in place (the value
        //    arena row is overwritten along with the key row).
        let (row, evicted_token) = match self.array.free_row() {
            Some(r) => (r, None),
            None => {
                let r = candidate_row.expect("full array has occupied rows");
                (r, self.array.token_of_row(r))
            }
        };
        let (levels, scale) = quantize_key(new_key, self.array.config().cell_precision);
        self.array
            .write_row_scaled(row, new_token, &levels, scale)?;
        self.write_value_row(row, new_value);

        let selected_tokens: Vec<usize> = scored_rows.iter().map(|&(t, _, _)| t).collect();
        let scores: Vec<(usize, f64)> = scored_rows.iter().map(|&(t, _, s)| (t, s)).collect();
        Ok(StepReport {
            selected_tokens,
            evicted_token,
            scores,
            output,
        })
    }

    /// Runs a full workload (prefill + every decode step), computing the
    /// same retrieval/fidelity metrics as the software harness plus the
    /// hardware operation statistics.
    ///
    /// # Errors
    ///
    /// Propagates dimension mismatches.
    pub fn run(&mut self, workload: &DecodeWorkload) -> Result<HardwareRunResult, CoreError> {
        self.array.reset_stats();
        self.load_prefill(workload)?;

        let reference = workload.full_attention_reference();
        let mut cos = Mean::new();
        let mut rel = Mean::new();
        let mut recall = Mean::new();
        let mut f1 = Mean::new();
        let mut hits = Mean::new();
        let mut n_selected = Mean::new();
        let mut n_resident = Mean::new();
        let salient_universe: BTreeSet<usize> = workload
            .salient_at
            .iter()
            .flat_map(|s| s.iter().copied())
            .collect();
        let prefill_len = workload.prefill_keys.len();

        for (step, query) in workload.decode_queries.iter().enumerate() {
            n_resident.push(self.resident_tokens().len() as f64);
            let report = self.decode_step(
                prefill_len + step,
                query,
                &workload.decode_keys[step],
                &workload.decode_values[step],
            )?;
            n_selected.push(report.selected_tokens.len() as f64);
            cos.push(cosine_similarity(&report.output, &reference[step]));
            rel.push(relative_l2_error(&report.output, &reference[step]));

            let salient = &workload.salient_at[step];
            if !salient.is_empty() {
                let selected: BTreeSet<usize> = report.selected_tokens.iter().copied().collect();
                let s = set_f1(&(&selected & salient), salient);
                recall.push(s.recall);
                let predicted: BTreeSet<usize> =
                    selected.intersection(&salient_universe).copied().collect();
                f1.push(set_f1(&predicted, salient).f1);
                hits.push(if s.recall >= 1.0 { 1.0 } else { 0.0 });
            }
        }

        let mut stats = OpStats::new();
        stats.merge(self.array.stats());
        stats.decode_steps = workload.decode_queries.len() as u64;

        Ok(HardwareRunResult {
            metrics: SimResult {
                policy: "unicaim_engine".to_owned(),
                workload: workload.name.clone(),
                output_cosine: cos.value(),
                output_rel_error: rel.value(),
                salient_recall: recall.value(),
                salient_f1: f1.value(),
                retrieval_accuracy: hits.value(),
                mean_selected: n_selected.value(),
                mean_resident: n_resident.value(),
                steps: workload.decode_queries.len(),
                answer_steps: usize::try_from(recall.count()).expect("step count fits usize"),
            },
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::levels::{CellPrecision, QueryPrecision};
    use unicaim_attention::workloads::needle_task;

    fn engine(h: usize, m: usize, k: usize, dim: usize) -> UniCaimEngine {
        let array_config = ArrayConfig {
            dim,
            sigma_vth: 0.0,
            cell_precision: CellPrecision::ThreeBit,
            query_precision: QueryPrecision::TwoBit,
            ..ArrayConfig::default()
        };
        UniCaimEngine::new(array_config, EngineConfig { h, m, k }).unwrap()
    }

    #[test]
    fn prefill_fills_h_rows() {
        let w = needle_task(128, 16, 1);
        let mut e = engine(48, 16, 16, w.dim);
        e.load_prefill(&w).unwrap();
        assert_eq!(e.resident_tokens().len(), 48);
    }

    #[test]
    fn decode_steps_select_k_tokens() {
        let w = needle_task(96, 8, 2);
        let mut e = engine(40, 8, 12, w.dim);
        e.load_prefill(&w).unwrap();
        let r = e
            .decode_step(
                96,
                &w.decode_queries[0],
                &w.decode_keys[0],
                &w.decode_values[0],
            )
            .unwrap();
        assert_eq!(r.selected_tokens.len(), 12);
        assert!(
            r.evicted_token.is_none(),
            "free rows remain, nothing to evict"
        );
        assert_eq!(r.output.len(), w.dim);
    }

    #[test]
    fn eviction_kicks_in_when_rows_run_out() {
        let w = needle_task(96, 24, 3);
        let mut e = engine(40, 8, 12, w.dim);
        e.load_prefill(&w).unwrap();
        let mut evictions = 0;
        for step in 0..w.decode_queries.len() {
            let r = e
                .decode_step(
                    96 + step,
                    &w.decode_queries[step],
                    &w.decode_keys[step],
                    &w.decode_values[step],
                )
                .unwrap();
            if r.evicted_token.is_some() {
                evictions += 1;
            }
            assert!(e.resident_tokens().len() <= 48);
        }
        // 24 generated into 8 reserved rows: 16 steps must evict.
        assert_eq!(evictions, 16);
    }

    #[test]
    fn full_run_produces_metrics_and_stats() {
        let w = needle_task(128, 16, 4);
        let mut e = engine(56, 16, 24, w.dim);
        let r = e.run(&w).unwrap();
        assert_eq!(r.metrics.steps, 16);
        assert!(r.metrics.output_cosine > 0.5, "{:?}", r.metrics);
        assert!(r.metrics.salient_recall > 0.5, "{:?}", r.metrics);
        assert_eq!(r.stats.cam_searches, 16);
        assert_eq!(r.stats.adc_conversions, 16 * 24);
        assert!(r.stats.e_adc > 0.0);
    }

    #[test]
    fn rejects_zero_operating_point() {
        let cfg = ArrayConfig::default();
        assert!(UniCaimEngine::new(cfg.clone(), EngineConfig { h: 0, m: 1, k: 1 }).is_err());
        assert!(UniCaimEngine::new(cfg, EngineConfig { h: 1, m: 1, k: 0 }).is_err());
    }

    #[test]
    fn rejects_dim_mismatch() {
        let w = needle_task(64, 8, 5);
        let mut e = engine(24, 8, 8, w.dim * 2);
        assert!(e.load_prefill(&w).is_err());
    }
}
