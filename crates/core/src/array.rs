//! The UniCAIM array: rows of cells plus the CAM / charge-domain /
//! current-domain peripheral circuits (paper Fig. 4b).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use unicaim_analog::{
    is_strictly_positive, AccumulatorCap, DischargeRace, SarAdc, SarAdcParams, WireParasitics,
};
use unicaim_fefet::{FeFetModel, FeFetParams, VariationModel};

use crate::cell::{score_slope_current, unit_current};
use crate::encoder::{CellDrive, QueryEncoder};
use crate::levels::{CellPrecision, KeyLevel, QueryLevel, QueryPrecision};
use crate::stats::OpStats;
use crate::CoreError;

/// Configuration of a [`UniCaimArray`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrayConfig {
    /// Number of rows (KV-cache slots). The paper's operating point is 576
    /// (512 heavy prefill tokens + 64 reserved decode slots).
    pub rows: usize,
    /// Key dimension per row (128 in the paper).
    pub dim: usize,
    /// Key storage precision.
    pub cell_precision: CellPrecision,
    /// Query precision (determines cells per dimension).
    pub query_precision: QueryPrecision,
    /// FeFET device parameters.
    pub fefet: FeFetParams,
    /// Device-to-device `V_TH` variation σ, volts (paper: 54 mV).
    pub sigma_vth: f64,
    /// Seed for the variation sampling.
    pub variation_seed: u64,
    /// Wire parasitics for the sense lines.
    pub wire: WireParasitics,
    /// Supply voltage, volts.
    pub vdd: f64,
    /// SAR ADC parameters (full scale is recalibrated at construction to
    /// cover the array's maximum sense current).
    pub adc: SarAdcParams,
    /// Number of ADCs sensing in parallel (64 in the paper).
    pub n_adcs: usize,
    /// Per-row accumulation capacitance `C_Acc`, farads.
    pub c_acc: f64,
    /// Initial/reset voltage of the accumulation capacitors, volts.
    pub acc_init: f64,
    /// Energy per FeFET program (erase+write) operation, joules.
    pub write_energy_per_fefet: f64,
    /// Time of one row write (single write cycle), seconds.
    pub write_time: f64,
    /// Sense-line precharge time per search, seconds.
    pub precharge_time: f64,
    /// `true` = fast affine behavioral currents (with first-order variation);
    /// `false` = full EKV device evaluation per cell.
    pub behavioral: bool,
    /// Relative cycle-to-cycle read-noise σ on each row current (0 = ideal
    /// reads). Models thermal/shot noise and sense-amp jitter.
    pub read_noise_rel: f64,
}

impl Default for ArrayConfig {
    fn default() -> Self {
        Self {
            rows: 576,
            dim: 128,
            cell_precision: CellPrecision::ThreeBit,
            query_precision: QueryPrecision::TwoBit,
            fefet: FeFetParams::default(),
            sigma_vth: 0.054,
            variation_seed: 7,
            wire: WireParasitics::default(),
            vdd: 1.0,
            adc: SarAdcParams::default(),
            n_adcs: 64,
            c_acc: 24e-15,
            acc_init: 0.5,
            write_energy_per_fefet: 2e-15,
            write_time: 20e-9,
            precharge_time: 1e-9,
            behavioral: true,
            read_noise_rel: 0.0,
        }
    }
}

impl ArrayConfig {
    /// Physical cells per row (`dim × cells_per_dim`).
    #[must_use]
    pub fn cells_per_row(&self) -> usize {
        self.dim * self.query_precision.cells_per_dim()
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for empty shapes or non-positive
    /// physical scales.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.rows == 0 || self.dim == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "rows and dim must be nonzero".into(),
            });
        }
        if self.n_adcs == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "need at least one ADC".into(),
            });
        }
        for (name, v) in [
            ("vdd", self.vdd),
            ("c_acc", self.c_acc),
            ("write_energy_per_fefet", self.write_energy_per_fefet),
            ("write_time", self.write_time),
            ("precharge_time", self.precharge_time),
        ] {
            if !is_strictly_positive(v) {
                return Err(CoreError::InvalidConfig {
                    reason: format!("{name} must be positive, got {v}"),
                });
            }
        }
        if self.read_noise_rel < 0.0 {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "read_noise_rel must be non-negative, got {}",
                    self.read_noise_rel
                ),
            });
        }
        self.fefet
            .validate()
            .map_err(|e| CoreError::InvalidConfig {
                reason: e.to_string(),
            })?;
        Ok(())
    }
}

/// Result of one CAM-mode search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CamSearch {
    /// Selected (top-k most similar) rows, ascending row order.
    pub selected_rows: Vec<usize>,
    /// Time at which the stop comparator froze the race, seconds (0 when
    /// the race was skipped because `k ≥` occupied rows).
    pub freeze_time: f64,
    /// Residual sense-line voltage of every occupied row at the freeze
    /// instant, `(row, volts)` in ascending row order.
    pub sl_voltages: Vec<(usize, f64)>,
}

/// The UniCAIM array: key storage + the three operating modes.
#[derive(Debug, Clone)]
pub struct UniCaimArray {
    config: ArrayConfig,
    model: FeFetModel,
    encoder: QueryEncoder,
    /// Stored key level per (row, dim), row-major.
    levels: Vec<KeyLevel>,
    /// Per physical cell: `V_TH` variation offsets of the (true,
    /// complementary) devices, row-major by (row, dim, cell).
    offsets: Vec<(f64, f64)>,
    /// Logical token held by each row.
    tokens: Vec<Option<usize>>,
    /// Quantization scale of each row's key.
    scales: Vec<f64>,
    /// Per-row accumulation capacitor.
    acc: Vec<AccumulatorCap>,
    adc: SarAdc,
    i_unit: f64,
    /// Calibrated current swing per unit of `w·q` (secant fit through the
    /// device curve), amps.
    i_score: f64,
    /// dI/dV_TH at the operating point (for first-order variation in the
    /// behavioral path), amps/volt.
    i_slope: f64,
    /// Monotone counter making cycle-to-cycle read noise deterministic per
    /// operation.
    read_nonce: u64,
    stats: OpStats,
}

impl UniCaimArray {
    /// Creates an array.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration; use [`UniCaimArray::try_new`] for
    /// fallible construction.
    #[must_use]
    pub fn new(config: ArrayConfig) -> Self {
        Self::try_new(config).expect("invalid ArrayConfig")
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the configuration fails
    /// validation.
    pub fn try_new(config: ArrayConfig) -> Result<Self, CoreError> {
        config.validate()?;
        let model = FeFetModel::new(config.fefet);
        let encoder = QueryEncoder::new(config.query_precision);
        let n_cells = config.rows * config.cells_per_row();
        let variation = VariationModel::new(config.sigma_vth, config.variation_seed);
        let offsets = (0..n_cells)
            .map(|i| {
                (
                    variation.offset(2 * i as u64),
                    variation.offset(2 * i as u64 + 1),
                )
            })
            .collect();
        let i_unit = unit_current(&model);
        let i_score = score_slope_current(&model);
        // Triode slope: one V_TH step of MW/2 swings the current by i_score.
        let i_slope = i_score / (0.5 * config.fefet.memory_window());
        // Calibrate the ADC to the worst-case sense current (every active
        // cell fully anti-matching: i_unit + i_score each) with 10% headroom.
        let max_active = config.cells_per_row();
        let mut adc_params = config.adc;
        adc_params.full_scale = 1.1 * (i_unit + i_score) * max_active as f64;
        let adc = SarAdc::new(adc_params).map_err(|e| CoreError::InvalidConfig {
            reason: e.to_string(),
        })?;
        let acc = (0..config.rows)
            .map(|_| AccumulatorCap::new(config.c_acc, config.acc_init).expect("validated"))
            .collect();
        Ok(Self {
            levels: vec![KeyLevel::Zero; config.rows * config.dim],
            offsets,
            tokens: vec![None; config.rows],
            scales: vec![0.0; config.rows],
            acc,
            adc,
            i_unit,
            i_score,
            i_slope,
            read_nonce: 0,
            stats: OpStats::new(),
            encoder,
            model,
            config,
        })
    }

    /// The array configuration.
    #[must_use]
    pub fn config(&self) -> &ArrayConfig {
        &self.config
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.config.rows
    }

    /// Key dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.config.dim
    }

    /// The per-cell unit current, amps.
    #[must_use]
    pub fn i_unit(&self) -> f64 {
        self.i_unit
    }

    /// Accumulated operation statistics.
    #[must_use]
    pub fn stats(&self) -> &OpStats {
        &self.stats
    }

    /// Clears the operation statistics.
    pub fn reset_stats(&mut self) {
        self.stats = OpStats::new();
    }

    /// The logical token stored in `row`, if any.
    #[must_use]
    pub fn token_of_row(&self, row: usize) -> Option<usize> {
        self.tokens.get(row).copied().flatten()
    }

    /// The row holding `token`, if resident.
    #[must_use]
    pub fn row_of_token(&self, token: usize) -> Option<usize> {
        self.tokens.iter().position(|&t| t == Some(token))
    }

    /// Occupied rows in ascending order.
    #[must_use]
    pub fn occupied_rows(&self) -> Vec<usize> {
        (0..self.config.rows)
            .filter(|&r| self.tokens[r].is_some())
            .collect()
    }

    /// Number of occupied rows, counted without allocating (the length
    /// of [`UniCaimArray::occupied_rows`]).
    #[must_use]
    pub fn occupied_count(&self) -> usize {
        self.tokens.iter().filter(|t| t.is_some()).count()
    }

    /// The first free row, if any.
    #[must_use]
    pub fn free_row(&self) -> Option<usize> {
        self.tokens.iter().position(Option::is_none)
    }

    /// The quantization scale recorded for `row`'s key.
    #[must_use]
    pub fn scale_of_row(&self, row: usize) -> f64 {
        self.scales.get(row).copied().unwrap_or(0.0)
    }

    /// Writes a quantized key into `row` for `token` (single write cycle:
    /// the paper's in-place eviction overwrite). Resets the row's
    /// accumulation capacitor.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::RowOutOfRange`] / [`CoreError::DimMismatch`] on
    /// bad arguments.
    pub fn write_row(
        &mut self,
        row: usize,
        token: usize,
        key: &[KeyLevel],
    ) -> Result<(), CoreError> {
        self.write_row_scaled(row, token, key, 1.0)
    }

    /// [`UniCaimArray::write_row`] with an explicit quantization scale
    /// (recorded for score de-quantization by callers).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::RowOutOfRange`] / [`CoreError::DimMismatch`] on
    /// bad arguments.
    pub fn write_row_scaled(
        &mut self,
        row: usize,
        token: usize,
        key: &[KeyLevel],
        scale: f64,
    ) -> Result<(), CoreError> {
        if row >= self.config.rows {
            return Err(CoreError::RowOutOfRange {
                row,
                rows: self.config.rows,
            });
        }
        if key.len() != self.config.dim {
            return Err(CoreError::DimMismatch {
                got: key.len(),
                expected: self.config.dim,
            });
        }
        let base = row * self.config.dim;
        self.levels[base..base + self.config.dim].copy_from_slice(key);
        self.tokens[row] = Some(token);
        self.scales[row] = scale;
        self.acc[row].reset(self.config.acc_init);
        // Each physical cell writes two FeFETs (complementary pair); the key
        // is mirrored across the query-expansion cells.
        let fefet_writes = 2 * self.config.cells_per_row() as u64;
        self.stats.fefet_writes += fefet_writes;
        self.stats.row_writes += 1;
        self.stats.e_write += self.config.write_energy_per_fefet * fefet_writes as f64;
        self.stats.t_write += self.config.write_time;
        Ok(())
    }

    /// Clears `row`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::RowOutOfRange`] for a bad row.
    pub fn clear_row(&mut self, row: usize) -> Result<(), CoreError> {
        if row >= self.config.rows {
            return Err(CoreError::RowOutOfRange {
                row,
                rows: self.config.rows,
            });
        }
        self.tokens[row] = None;
        self.scales[row] = 0.0;
        self.acc[row].reset(self.config.acc_init);
        Ok(())
    }

    /// The sense current of `row` for an encoded query, amps.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::RowOutOfRange`] / [`CoreError::DimMismatch`] on
    /// bad arguments.
    pub fn row_current(&self, row: usize, drives: &[Vec<CellDrive>]) -> Result<f64, CoreError> {
        if row >= self.config.rows {
            return Err(CoreError::RowOutOfRange {
                row,
                rows: self.config.rows,
            });
        }
        if drives.len() != self.config.dim {
            return Err(CoreError::DimMismatch {
                got: drives.len(),
                expected: self.config.dim,
            });
        }
        let cells_per_dim = self.config.query_precision.cells_per_dim();
        let p = self.model.params();
        let mut total = 0.0;
        for (d, dim_drives) in drives.iter().enumerate() {
            let w = self.levels[row * self.config.dim + d].weight();
            let vth1 = p.vth_mid() - 0.5 * p.memory_window() * w;
            let vth1b = p.vth_mid() + 0.5 * p.memory_window() * w;
            for (c, &drive) in dim_drives.iter().enumerate() {
                let (off1, off1b) = self.offsets[(row * self.config.dim + d) * cells_per_dim + c];
                if self.config.behavioral {
                    total += match drive {
                        CellDrive::Off => 0.0,
                        CellDrive::Plus => {
                            (self.i_unit - self.i_score * w - self.i_slope * off1b).max(0.0)
                        }
                        CellDrive::Minus => {
                            (self.i_unit + self.i_score * w - self.i_slope * off1).max(0.0)
                        }
                    };
                } else {
                    let (v_bl, v_blb) = match drive {
                        CellDrive::Plus => (0.0, p.read_voltage),
                        CellDrive::Minus => (p.read_voltage, 0.0),
                        CellDrive::Off => (0.0, 0.0),
                    };
                    total += self
                        .model
                        .drain_current_at_vth(vth1 + off1, v_bl, p.vds_read)
                        + self
                            .model
                            .drain_current_at_vth(vth1b + off1b, v_blb, p.vds_read);
                }
            }
        }
        Ok(total)
    }

    /// **CAM mode** (paper Fig. 7): precharges all occupied sense lines,
    /// races them against each other, and returns the `k` rows with the
    /// highest query similarity (slowest discharge) — plus the residual
    /// line voltages the charge-domain mode will accumulate.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimMismatch`] for a wrong-sized query.
    pub fn cam_top_k(&mut self, query: &[QueryLevel], k: usize) -> Result<CamSearch, CoreError> {
        if query.len() != self.config.dim {
            return Err(CoreError::DimMismatch {
                got: query.len(),
                expected: self.config.dim,
            });
        }
        let drives = self.encoder.encode(query);
        let occupied = self.occupied_rows();
        let n = occupied.len();
        if n == 0 {
            return Ok(CamSearch {
                selected_rows: Vec::new(),
                freeze_time: 0.0,
                sl_voltages: Vec::new(),
            });
        }
        let nonce = self.next_nonce();
        let currents: Vec<f64> = occupied
            .iter()
            .map(|&r| {
                let i = self.row_current(r, &drives).expect("validated row");
                self.apply_read_noise(i, r, nonce)
            })
            .collect();
        let c_sl = self
            .config
            .wire
            .line_capacitance(self.config.cells_per_row());
        let race =
            DischargeRace::ohmic(self.config.vdd, c_sl, &currents, self.config.fefet.vds_read);
        let threshold = 0.5 * self.config.vdd;

        let (winners_local, freeze_time) = if k >= n {
            // Every occupied row is selected outright: no discharge race is
            // run and the stop comparator never fires.
            ((0..n).collect::<Vec<_>>(), 0.0)
        } else {
            let t = race.freeze_time(k, threshold).unwrap_or(0.0);
            let winners = race.slowest(k, threshold);
            // The stop comparator is evaluated at each loser crossing until
            // it trips (once per eliminated row, plus the trip itself).
            self.stats.comparator_evals += (n - winners.len().min(n)) as u64 + 1;
            (winners, t)
        };
        let mut selected_rows: Vec<usize> = winners_local.iter().map(|&i| occupied[i]).collect();
        selected_rows.sort_unstable();

        let sl_voltages: Vec<(usize, f64)> = occupied
            .iter()
            .enumerate()
            .map(|(i, &r)| (r, race.voltage_at(i, freeze_time).expect("valid node")))
            .collect();

        // Bookkeeping.
        let active = self.encoder.active_cells(query);
        self.stats.cam_searches += 1;
        self.stats.sl_precharges += n as u64;
        self.stats.cell_activations += (active * n) as u64;
        self.stats.e_precharge += race.recharge_energy(freeze_time);
        self.stats.t_cam += self.config.precharge_time + freeze_time;

        Ok(CamSearch {
            selected_rows,
            freeze_time,
            sl_voltages,
        })
    }

    /// **Charge-domain CIM mode** (paper Fig. 8): shares every occupied
    /// row's residual sense-line charge into its accumulation capacitor and
    /// returns the static-eviction candidate — the occupied row whose
    /// accumulated similarity is lowest (first FE-INV to trip).
    pub fn accumulate_and_candidate(&mut self, search: &CamSearch) -> Option<usize> {
        let c_sl = self
            .config
            .wire
            .line_capacitance(self.config.cells_per_row());
        let mut candidate: Option<(usize, f64)> = None;
        for &(row, v_sl) in &search.sl_voltages {
            let share = self.acc[row]
                .share_from(c_sl, v_sl)
                .expect("positive capacitances");
            self.stats.charge_shares += 1;
            self.stats.e_share += share.dissipated;
            let v = self.acc[row].voltage();
            self.stats.fe_inv_evals += 1;
            match candidate {
                Some((_, best)) if v >= best => {}
                _ => candidate = Some((row, v)),
            }
        }
        candidate.map(|(row, _)| row)
    }

    /// The accumulated-similarity voltage of `row`'s accumulation capacitor.
    #[must_use]
    pub fn acc_voltage(&self, row: usize) -> f64 {
        self.acc.get(row).map_or(0.0, AccumulatorCap::voltage)
    }

    /// **Current-domain CIM mode** (paper Fig. 9): quantizes the selected
    /// rows' sense currents with the SAR ADCs (`n_adcs` in parallel) and
    /// returns the de-quantized attention scores in level units,
    /// `(row, score)`.
    ///
    /// Dimensions that match the query *perfectly* (`w·q = +1`) sit at the
    /// sub-threshold floor where the cell current cannot go below ~0, so
    /// their contribution reads compressed by ≈0.1 level units each — the
    /// same saturation a silicon array exhibits. Mid-range scores are exact
    /// to the ADC's LSB.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimMismatch`] for a wrong-sized query or
    /// [`CoreError::EmptyRow`] if a requested row is unoccupied.
    pub fn exact_scores(
        &mut self,
        query: &[QueryLevel],
        rows: &[usize],
    ) -> Result<Vec<(usize, f64)>, CoreError> {
        if query.len() != self.config.dim {
            return Err(CoreError::DimMismatch {
                got: query.len(),
                expected: self.config.dim,
            });
        }
        let drives = self.encoder.encode(query);
        let active = self.encoder.active_cells(query) as f64;
        let slope_per_score = self.i_score * self.config.query_precision.cells_per_dim() as f64;
        let nonce = self.next_nonce();
        let mut out = Vec::with_capacity(rows.len());
        for &row in rows {
            if self.token_of_row(row).is_none() {
                return Err(CoreError::EmptyRow { row });
            }
            let i = self.apply_read_noise(self.row_current(row, &drives)?, row, nonce);
            let reading = self.adc.quantize(i);
            let i_est = self.adc.reconstruct(reading);
            let score = (self.i_unit * active - i_est) / slope_per_score;
            out.push((row, score));
        }
        let n = rows.len() as u64;
        let rounds = n.div_ceil(self.config.n_adcs as u64);
        self.stats.adc_conversions += n;
        self.stats.adc_rounds += rounds;
        self.stats.e_adc += self.adc.energy(n);
        self.stats.t_adc += self.adc.params().conversion_time * rounds as f64;
        Ok(out)
    }

    /// Quantization resolution of the de-quantized score, in level units
    /// per ADC LSB.
    #[must_use]
    pub fn score_lsb(&self) -> f64 {
        self.adc.lsb() / (self.i_score * self.config.query_precision.cells_per_dim() as f64)
    }

    /// Ideal (infinite-precision, noiseless) de-quantized scores for the
    /// given rows — the current-domain readout *without* the ADC. Use to
    /// quantify quantization loss; consumes no ADC energy and records no
    /// statistics.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimMismatch`] for a wrong-sized query or
    /// [`CoreError::EmptyRow`] for an unoccupied row.
    pub fn exact_scores_ideal(
        &self,
        query: &[QueryLevel],
        rows: &[usize],
    ) -> Result<Vec<(usize, f64)>, CoreError> {
        if query.len() != self.config.dim {
            return Err(CoreError::DimMismatch {
                got: query.len(),
                expected: self.config.dim,
            });
        }
        let drives = self.encoder.encode(query);
        let active = self.encoder.active_cells(query) as f64;
        let slope_per_score = self.i_score * self.config.query_precision.cells_per_dim() as f64;
        rows.iter()
            .map(|&row| {
                if self.token_of_row(row).is_none() {
                    return Err(CoreError::EmptyRow { row });
                }
                let i = self.row_current(row, &drives)?;
                Ok((row, (self.i_unit * active - i) / slope_per_score))
            })
            .collect()
    }

    fn next_nonce(&mut self) -> u64 {
        self.read_nonce = self.read_nonce.wrapping_add(1);
        self.read_nonce
    }

    /// Multiplicative Gaussian cycle-to-cycle noise, deterministic per
    /// `(variation_seed, operation nonce, row)`.
    fn apply_read_noise(&self, current: f64, row: usize, nonce: u64) -> f64 {
        let sigma = self.config.read_noise_rel;
        if sigma == 0.0 {
            return current;
        }
        let seed = self
            .config
            .variation_seed
            .wrapping_mul(0xD6E8_FEB8_6659_FD93)
            ^ nonce.wrapping_mul(0xA24B_AED4_963E_E407)
            ^ (row as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (current * (1.0 + sigma * z)).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::levels::level_score;

    fn small_config() -> ArrayConfig {
        ArrayConfig {
            rows: 16,
            dim: 8,
            sigma_vth: 0.0,
            cell_precision: CellPrecision::ThreeBit,
            query_precision: QueryPrecision::TwoBit,
            ..ArrayConfig::default()
        }
    }

    fn key_from(vals: &[f64]) -> Vec<KeyLevel> {
        vals.iter()
            .map(|&v| match v {
                v if v <= -0.75 => KeyLevel::NegOne,
                v if v <= -0.25 => KeyLevel::NegHalf,
                v if v < 0.25 => KeyLevel::Zero,
                v if v < 0.75 => KeyLevel::PosHalf,
                _ => KeyLevel::PosOne,
            })
            .collect()
    }

    #[test]
    fn write_and_lookup_rows() {
        let mut a = UniCaimArray::new(small_config());
        let key = key_from(&[1.0, -1.0, 0.0, 0.5, -0.5, 1.0, 0.0, 0.0]);
        a.write_row(3, 42, &key).unwrap();
        assert_eq!(a.token_of_row(3), Some(42));
        assert_eq!(a.row_of_token(42), Some(3));
        assert_eq!(a.occupied_rows(), vec![3]);
        assert_eq!(a.free_row(), Some(0));
        a.clear_row(3).unwrap();
        assert_eq!(a.occupied_rows(), Vec::<usize>::new());
    }

    #[test]
    fn row_current_is_affine_in_score() {
        let a = {
            let mut a = UniCaimArray::new(small_config());
            // Rows with increasing similarity to the +1 query, staying off
            // the fully matching endpoint (where the sub-threshold floor
            // compresses the device curve).
            let keys = [
                key_from(&[-1.0; 8]),
                key_from(&[-0.5; 8]),
                key_from(&[0.0; 8]),
                key_from(&[0.5; 8]),
            ];
            for (i, k) in keys.iter().enumerate() {
                a.write_row(i, i, k).unwrap();
            }
            a
        };
        let enc = QueryEncoder::new(QueryPrecision::TwoBit);
        let query = vec![QueryLevel::PosOne; 8];
        let drives = enc.encode(&query);
        let currents: Vec<f64> = (0..4).map(|r| a.row_current(r, &drives).unwrap()).collect();
        // Higher similarity => lower current.
        for w in currents.windows(2) {
            assert!(w[1] < w[0], "{currents:?}");
        }
        // Affine: equal level steps give equal current steps.
        let steps: Vec<f64> = currents.windows(2).map(|w| w[0] - w[1]).collect();
        let mean = steps.iter().sum::<f64>() / steps.len() as f64;
        for s in &steps {
            assert!(((s - mean) / mean).abs() < 0.05, "{currents:?}");
        }
    }

    #[test]
    fn cam_top_k_selects_most_similar() {
        let mut a = UniCaimArray::new(small_config());
        let target = [1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0];
        a.write_row(0, 0, &key_from(&target)).unwrap();
        a.write_row(
            1,
            1,
            &key_from(&[1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, 1.0]),
        )
        .unwrap();
        a.write_row(2, 2, &key_from(&[0.0; 8])).unwrap();
        a.write_row(
            3,
            3,
            &key_from(&[-1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0]),
        )
        .unwrap();
        let query: Vec<QueryLevel> = target
            .iter()
            .map(|&v| {
                if v > 0.0 {
                    QueryLevel::PosOne
                } else {
                    QueryLevel::NegOne
                }
            })
            .collect();
        let search = a.cam_top_k(&query, 2).unwrap();
        assert_eq!(search.selected_rows, vec![0, 1]);
        assert!(search.freeze_time > 0.0);
        // Selected rows keep the highest residual voltages.
        let v: std::collections::HashMap<usize, f64> = search.sl_voltages.iter().copied().collect();
        assert!(v[&0] > v[&2] && v[&1] > v[&2] && v[&2] > 0.0);
        assert!(v[&2] >= v[&3]);
    }

    #[test]
    fn cam_top_k_with_k_over_capacity_selects_all() {
        let mut a = UniCaimArray::new(small_config());
        a.write_row(0, 0, &key_from(&[1.0; 8])).unwrap();
        a.write_row(5, 5, &key_from(&[-1.0; 8])).unwrap();
        let query = vec![QueryLevel::PosOne; 8];
        let search = a.cam_top_k(&query, 10).unwrap();
        assert_eq!(search.selected_rows, vec![0, 5]);
        assert_eq!(search.freeze_time, 0.0);
    }

    #[test]
    fn cam_top_k_comparator_evals_only_count_real_races() {
        let mut a = UniCaimArray::new(small_config());
        a.write_row(0, 0, &key_from(&[1.0; 8])).unwrap();
        a.write_row(1, 1, &key_from(&[-1.0; 8])).unwrap();
        a.write_row(2, 2, &key_from(&[0.0; 8])).unwrap();
        let query = vec![QueryLevel::PosOne; 8];

        // k >= n: all rows selected outright, no race, no comparator.
        let _ = a.cam_top_k(&query, 3).unwrap();
        assert_eq!(
            a.stats().comparator_evals,
            0,
            "no stop comparator runs when k covers all occupied rows"
        );
        let _ = a.cam_top_k(&query, 10).unwrap();
        assert_eq!(a.stats().comparator_evals, 0);
        // But the searches themselves are still accounted.
        assert_eq!(a.stats().cam_searches, 2);

        // k < n: one evaluation per eliminated row plus the trip.
        let _ = a.cam_top_k(&query, 1).unwrap();
        assert_eq!(a.stats().comparator_evals, (3 - 1) + 1);
    }

    #[test]
    fn exact_scores_match_level_scores() {
        let mut a = UniCaimArray::new(small_config());
        let key_vals = [1.0, -0.5, 0.0, 0.5, -1.0, 1.0, 0.5, -0.5];
        let key = key_from(&key_vals);
        a.write_row(2, 2, &key).unwrap();
        let query = vec![
            QueryLevel::PosOne,
            QueryLevel::NegHalf,
            QueryLevel::Zero,
            QueryLevel::PosHalf,
            QueryLevel::NegOne,
            QueryLevel::PosOne,
            QueryLevel::PosHalf,
            QueryLevel::NegHalf,
        ];
        let expected = level_score(&key, &query);
        let scores = a.exact_scores(&query, &[2]).unwrap();
        let got = scores[0].1;
        // Dims 0, 4, 5 match the query perfectly (w·q = +1); each reads
        // compressed by ≈0.1 level units at the sub-threshold floor.
        let n_full_match = key_vals
            .iter()
            .zip(&query)
            .filter(|(&w, q)| (w * q.value()) >= 1.0)
            .count();
        let tolerance = 2.0 * a.score_lsb() + 0.15 * n_full_match as f64;
        assert_eq!(n_full_match, 3);
        assert!(
            (got - expected).abs() <= tolerance,
            "score {got} should match {expected} within {tolerance}"
        );
    }

    #[test]
    fn adc_quantization_loss_is_bounded_by_one_lsb() {
        let mut a = UniCaimArray::new(small_config());
        let key = key_from(&[0.5, -0.5, 0.0, 0.5, -0.5, 0.0, 0.5, -0.5]);
        a.write_row(0, 0, &key).unwrap();
        let query = vec![QueryLevel::PosOne; 8];
        let ideal = a.exact_scores_ideal(&query, &[0]).unwrap()[0].1;
        let quantized = a.exact_scores(&query, &[0]).unwrap()[0].1;
        let loss = (ideal - quantized).abs();
        assert!(
            loss <= a.score_lsb() + 1e-12,
            "quantization loss {loss} exceeds one LSB {}",
            a.score_lsb()
        );
        // And the ideal path consumed no ADC conversions.
        assert_eq!(
            a.stats().adc_conversions,
            1,
            "only the quantized read pays the ADC"
        );
    }

    #[test]
    fn exact_scores_reject_empty_rows() {
        let mut a = UniCaimArray::new(small_config());
        let query = vec![QueryLevel::PosOne; 8];
        assert!(matches!(
            a.exact_scores(&query, &[1]),
            Err(CoreError::EmptyRow { row: 1 })
        ));
    }

    #[test]
    fn accumulation_tracks_persistent_similarity() {
        let mut a = UniCaimArray::new(small_config());
        a.write_row(0, 0, &key_from(&[1.0; 8])).unwrap(); // always similar
        a.write_row(1, 1, &key_from(&[-1.0; 8])).unwrap(); // always dissimilar
        a.write_row(2, 2, &key_from(&[0.0; 8])).unwrap(); // neutral
        let query = vec![QueryLevel::PosOne; 8];
        let mut candidate = None;
        for _ in 0..6 {
            let search = a.cam_top_k(&query, 1).unwrap();
            candidate = a.accumulate_and_candidate(&search);
        }
        assert_eq!(
            candidate,
            Some(1),
            "persistently dissimilar row must be the candidate"
        );
        assert!(a.acc_voltage(0) > a.acc_voltage(2));
        assert!(a.acc_voltage(2) > a.acc_voltage(1));
    }

    #[test]
    fn stats_accumulate() {
        let mut a = UniCaimArray::new(small_config());
        a.write_row(0, 0, &key_from(&[1.0; 8])).unwrap();
        a.write_row(1, 1, &key_from(&[-1.0; 8])).unwrap();
        let query = vec![QueryLevel::PosOne; 8];
        let s = a.cam_top_k(&query, 1).unwrap();
        let _ = a.accumulate_and_candidate(&s);
        let _ = a.exact_scores(&query, &s.selected_rows).unwrap();
        let st = a.stats();
        assert_eq!(st.cam_searches, 1);
        assert_eq!(st.sl_precharges, 2);
        assert_eq!(st.charge_shares, 2);
        assert_eq!(st.adc_conversions, 1);
        assert_eq!(st.row_writes, 2);
        assert!(st.e_write > 0.0);
        assert!(st.e_adc > 0.0);
        assert!(st.total_time() > 0.0);
        a.reset_stats();
        assert_eq!(a.stats().cam_searches, 0);
    }

    #[test]
    fn adc_rounds_respect_parallelism() {
        let mut cfg = small_config();
        cfg.n_adcs = 2;
        let mut a = UniCaimArray::new(cfg);
        for r in 0..5 {
            a.write_row(r, r, &key_from(&[1.0; 8])).unwrap();
        }
        let query = vec![QueryLevel::PosOne; 8];
        let _ = a.exact_scores(&query, &[0, 1, 2, 3, 4]).unwrap();
        assert_eq!(a.stats().adc_conversions, 5);
        assert_eq!(a.stats().adc_rounds, 3); // ceil(5/2)
    }

    #[test]
    fn device_accurate_mode_agrees_with_behavioral_on_ranking() {
        let mut cfg = small_config();
        cfg.behavioral = false;
        let mut dev = UniCaimArray::new(cfg.clone());
        let mut beh = UniCaimArray::new(ArrayConfig {
            behavioral: true,
            ..cfg
        });
        let keys = [
            key_from(&[1.0; 8]),
            key_from(&[0.5; 8]),
            key_from(&[-0.5; 8]),
            key_from(&[-1.0; 8]),
        ];
        for (r, k) in keys.iter().enumerate() {
            dev.write_row(r, r, k).unwrap();
            beh.write_row(r, r, k).unwrap();
        }
        let query = vec![QueryLevel::PosOne; 8];
        let s_dev = dev.cam_top_k(&query, 2).unwrap();
        let s_beh = beh.cam_top_k(&query, 2).unwrap();
        assert_eq!(s_dev.selected_rows, s_beh.selected_rows);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(UniCaimArray::try_new(ArrayConfig {
            rows: 0,
            ..ArrayConfig::default()
        })
        .is_err());
        assert!(UniCaimArray::try_new(ArrayConfig {
            n_adcs: 0,
            ..ArrayConfig::default()
        })
        .is_err());
        assert!(UniCaimArray::try_new(ArrayConfig {
            vdd: -1.0,
            ..ArrayConfig::default()
        })
        .is_err());
        assert!(UniCaimArray::try_new(ArrayConfig {
            read_noise_rel: -0.1,
            ..ArrayConfig::default()
        })
        .is_err());
    }

    #[test]
    fn read_noise_perturbs_but_preserves_strong_ordering() {
        let mut cfg = small_config();
        cfg.read_noise_rel = 0.02;
        let mut noisy = UniCaimArray::new(cfg);
        let mut ideal = UniCaimArray::new(small_config());
        // Two well-separated rows.
        for a in [&mut noisy, &mut ideal] {
            a.write_row(0, 0, &key_from(&[1.0; 8])).unwrap();
            a.write_row(1, 1, &key_from(&[-1.0; 8])).unwrap();
        }
        let query = vec![QueryLevel::PosOne; 8];
        for _ in 0..10 {
            let s = noisy.cam_top_k(&query, 1).unwrap();
            assert_eq!(
                s.selected_rows,
                vec![0],
                "2% noise must not flip a 16-level gap"
            );
        }
        // Noise actually changes the measured score across repeated reads
        // (checked on the high-current anti-matching row, where the
        // multiplicative noise is largest).
        let a = noisy.exact_scores(&query, &[1]).unwrap()[0].1;
        let b = noisy.exact_scores(&query, &[1]).unwrap()[0].1;
        let c = ideal.exact_scores(&query, &[1]).unwrap()[0].1;
        let d = ideal.exact_scores(&query, &[1]).unwrap()[0].1;
        assert_eq!(c, d, "ideal reads are repeatable");
        assert!(
            (a - b).abs() > 0.0,
            "noisy reads must fluctuate: {a} vs {b}"
        );
    }

    #[test]
    fn dimension_mismatches_rejected() {
        let mut a = UniCaimArray::new(small_config());
        let bad_key = vec![KeyLevel::Zero; 7];
        assert!(a.write_row(0, 0, &bad_key).is_err());
        let bad_query = vec![QueryLevel::PosOne; 7];
        assert!(a.cam_top_k(&bad_query, 1).is_err());
    }
}
