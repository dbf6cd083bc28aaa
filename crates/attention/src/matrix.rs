//! Minimal row-major dense matrix with the handful of kernels attention
//! needs: matmul, transpose, row softmax, top-k.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::kernels::LANES;
use crate::AttentionError;

/// A row-major dense `f32` matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// An all-zeros matrix of the given shape.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from explicit rows.
    ///
    /// # Panics
    ///
    /// Panics if rows have unequal lengths.
    #[must_use]
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        let n_rows = rows.len();
        let n_cols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(n_rows * n_cols);
        for r in rows {
            assert_eq!(r.len(), n_cols, "all rows must have equal length");
            data.extend_from_slice(r);
        }
        Self {
            rows: n_rows,
            cols: n_cols,
            data,
        }
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`AttentionError::ShapeMismatch`] when `data.len() != rows*cols`.
    pub fn from_flat(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, AttentionError> {
        if data.len() != rows * cols {
            return Err(AttentionError::ShapeMismatch {
                context: format!(
                    "flat buffer of {} elements cannot be {rows}x{cols}",
                    data.len()
                ),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// A matrix with i.i.d. entries uniform in `[-scale, scale]`, seeded.
    #[must_use]
    pub fn random_uniform(rows: usize, cols: usize, scale: f32, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-scale..=scale))
            .collect();
        Self { rows, cols, data }
    }

    /// A matrix with i.i.d. standard-normal entries scaled by `scale`, seeded.
    #[must_use]
    pub fn random_normal(rows: usize, cols: usize, scale: f32, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let data = (0..rows * cols)
            .map(|_| {
                let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
                let u2: f32 = rng.gen_range(0.0..1.0);
                scale * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
            })
            .collect();
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[must_use]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of range ({} rows)", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[must_use]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of range ({} rows)", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// The flat row-major data.
    #[must_use]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The flat row-major data, mutably.
    #[must_use]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Matrix product `self · other`.
    ///
    /// # Errors
    ///
    /// Returns [`AttentionError::ShapeMismatch`] when inner dimensions
    /// disagree.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix, AttentionError> {
        if self.cols != other.rows {
            return Err(AttentionError::ShapeMismatch {
                context: format!(
                    "matmul {}x{} by {}x{}",
                    self.rows, self.cols, other.rows, other.cols
                ),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let row_out = &mut out.data[i * other.cols..(i + 1) * other.cols];
                let row_b = &other.data[k * other.cols..(k + 1) * other.cols];
                for (o, &b) in row_out.iter_mut().zip(row_b) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Transposed copy.
    #[must_use]
    pub fn transposed(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Multiplies every element by `s`.
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Dot product of two equal-length slices (helper used across crates).
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    #[must_use]
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "dot of unequal lengths");
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    /// L2 norm of a slice.
    #[must_use]
    pub fn norm(a: &[f32]) -> f32 {
        Matrix::dot(a, a).sqrt()
    }
}

/// Numerically stable in-place softmax of one slice.
///
/// Max-subtracted ("safe") softmax: every exponent is `x − max ≤ 0`, so
/// `exp` can never overflow regardless of logit magnitude (a naive
/// implementation overflows to `inf`/NaN as soon as a logit exceeds ~88),
/// and the max element contributes exactly `exp(0) = 1`, so the
/// normalizer is always ≥ 1 when the max is finite. The output is
/// therefore a finite probability distribution for **every** input:
///
/// * finite logits of any magnitude → the shifted softmax, each
///   exponential within 1 ulp of `f64::exp` rounded to f32; a logit more
///   than 87 below the max gets weight exactly 0;
/// * `−∞` logits → weight 0 (fully masked entries);
/// * a non-finite maximum (a NaN- or `+∞`-poisoned row, or an all-`−∞`
///   row) has no well-defined distribution — the function falls back to
///   the uniform distribution so downstream weighted sums stay finite.
///
/// The row is walked in `LANES`-wide chunks: an 8-lane max, the owned
/// exponential of `x − max`, an 8-lane sum plus the tail added left to
/// right, then the divide. Only plain f32 `*`, `+`, `/`, compares and bit
/// operations are used (Rust never contracts them to FMA), so every kernel
/// tier and host gets the same bits.
pub fn softmax_in_place(xs: &mut [f32]) {
    if xs.is_empty() {
        return;
    }
    // Compare-select skips NaN as `f32::max` does, so a NaN-poisoned row
    // passes this check with a finite max — it is caught below when NaN
    // propagates into `sum`.
    let select_max = |m: f32, x: f32| if x > m { x } else { m };
    let chunks = xs.chunks_exact(LANES);
    let rest = chunks.remainder();
    let mut lanes = [f32::NEG_INFINITY; LANES];
    for chunk in chunks {
        for (m, &x) in lanes.iter_mut().zip(chunk) {
            *m = select_max(*m, x);
        }
    }
    let max = lanes
        .iter()
        .chain(rest)
        .copied()
        .fold(f32::NEG_INFINITY, select_max);
    if !max.is_finite() {
        // +∞-poisoned or all-(−∞) row: no well-defined distribution.
        let uniform = 1.0 / xs.len() as f32;
        xs.fill(uniform);
        return;
    }
    let mut chunks = xs.chunks_exact_mut(LANES);
    let mut sums = [0.0f32; LANES];
    for chunk in &mut chunks {
        for (sum, v) in sums.iter_mut().zip(chunk) {
            *v = exp_nonpositive(*v - max);
            *sum += *v;
        }
    }
    let mut tail = 0.0f32;
    for v in chunks.into_remainder() {
        *v = exp_nonpositive(*v - max);
        tail += *v;
    }
    let sum = sums[1..].iter().fold(sums[0], |sum, &lane| sum + lane) + tail;
    if !sum.is_finite() {
        // A NaN logit survived the max reduction; same uniform fallback.
        let uniform = 1.0 / xs.len() as f32;
        xs.fill(uniform);
        return;
    }
    // The max element contributes exp(0) = 1, so sum ≥ 1 here.
    for v in xs.iter_mut() {
        *v /= sum;
    }
}

/// `eˣ` for `x ≤ 0`, the exponential of [`softmax_in_place`].
///
/// Cody–Waite reduction `x = n·ln 2 + r` with `n` rounded to nearest
/// (through the `1.5·2²³` add) and `ln 2` split into an exact high part
/// and a low correction, so `|r| ≤ ln 2 / 2` up to rounding; then a
/// degree-6 polynomial for `eʳ`, scaled by `2ⁿ` built from the exponent
/// bits. Plain f32 operations only, so the bits are the same everywhere.
///
/// * On `[−87, 0]` the result is within 1 ulp of `f64::exp` rounded to f32
///   (an exhaustive sweep of every float in the range; the unit tests
///   re-check a sample and the boundaries against a 4-ulp bound), and
///   `exp(0) = 1` exactly.
/// * `x < −87` returns exactly 0, and so does `−∞`. (`e⁻⁸⁷ ≈ 1.6·10⁻³⁸`;
///   libm's `expf` would return normal or subnormal values down to about
///   `x = −103.9`.) Keeping `n ≥ −126` keeps `2ⁿ` and the result normal.
/// * NaN propagates, so a NaN logit still reaches the softmax's uniform
///   fallback.
///
/// Positive `x` is outside the contract (the softmax never passes one).
#[inline]
fn exp_nonpositive(x: f32) -> f32 {
    /// `1.5·2²³`: adding it rounds `x·log₂e` to an integer held in the
    /// low mantissa bits.
    const SHIFT: f32 = 12_582_912.0;
    /// `ln 2` to 16 bits, so `n·LN2_HI` is exact for `|n| ≤ 2⁸`.
    const LN2_HI: f32 = 0.693_359_4;
    const LN2_LO: f32 = -2.121_944_4e-4;
    /// `eʳ ≈ 1 + r + r²·(C2 + r·(C3 + r·(C4 + r·(C5 + r·C6))))`, a
    /// near-minimax (Chebyshev) fit of `(eʳ − 1 − r)/r²` on
    /// `|r| ≤ ln 2 / 2 + 0.01`.
    const C2: f32 = 0.5;
    const C3: f32 = 0.166_665_66;
    const C4: f32 = 0.041_666_54;
    const C5: f32 = 0.008_364_923;
    const C6: f32 = 0.001_392_836_2;
    let t = x * std::f32::consts::LOG2_E + SHIFT;
    let n = t - SHIFT;
    let r = (x - n * LN2_HI) - n * LN2_LO;
    let q = C2 + r * (C3 + r * (C4 + r * (C5 + r * C6)));
    let p = 1.0 + (r + r * r * q);
    // `t`'s bits are `SHIFT`'s plus `n`; `n + 127` is the biased exponent
    // of `2ⁿ` (in `1..=127` whenever `x ≥ −87`).
    let biased = t.to_bits().wrapping_sub(SHIFT.to_bits()).wrapping_add(127);
    let y = p * f32::from_bits(biased << 23);
    if x < -87.0 {
        0.0
    } else {
        y
    }
}

/// Applies [`softmax_in_place`] to every row of the matrix.
pub fn softmax_rows(m: &mut Matrix) {
    for r in 0..m.rows() {
        softmax_in_place(m.row_mut(r));
    }
}

/// In-place layer normalization of one slice: zero mean, unit variance,
/// with `eps` guarding degenerate variance.
pub fn layer_norm_in_place(xs: &mut [f32], eps: f32) {
    if xs.is_empty() {
        return;
    }
    let n = xs.len() as f32;
    let mean: f32 = xs.iter().sum::<f32>() / n;
    let var: f32 = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n;
    let inv = 1.0 / (var + eps).sqrt();
    for x in xs.iter_mut() {
        *x = (*x - mean) * inv;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn matmul_shape_mismatch_rejected() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::random_uniform(3, 5, 1.0, 7);
        let t = a.transposed().transposed();
        assert_eq!(a, t);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut m = Matrix::random_uniform(4, 9, 3.0, 11);
        softmax_rows(&mut m);
        for r in 0..4 {
            let s: f32 = m.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!(m.row(r).iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let mut a = vec![1.0f32, 2.0, 3.0];
        let mut b = vec![101.0f32, 102.0, 103.0];
        softmax_in_place(&mut a);
        softmax_in_place(&mut b);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_handles_extremes() {
        let mut xs = vec![f32::NEG_INFINITY, 0.0, 1000.0];
        softmax_in_place(&mut xs);
        assert!((xs[2] - 1.0).abs() < 1e-6);
        assert_eq!(xs[0], 0.0);
    }

    /// Regression (satellite): logits far beyond the naive-`exp` overflow
    /// point (|x| ≳ 88) must still yield finite, normalized weights.
    #[test]
    fn softmax_extreme_logits_stay_finite_and_normalized() {
        for logits in [
            vec![9000.0f32, -9000.0, 8999.0],
            vec![1.0e8f32, 1.0e8, -1.0e8],
            vec![f32::MAX, 0.0, -f32::MAX],
            vec![-5000.0f32; 7],
        ] {
            let mut xs = logits.clone();
            softmax_in_place(&mut xs);
            assert!(
                xs.iter().all(|v| v.is_finite() && *v >= 0.0),
                "{logits:?} -> {xs:?}"
            );
            let sum: f32 = xs.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "{logits:?} -> {xs:?}");
        }
    }

    /// Rows with no well-defined distribution (NaN / +inf poisoned, or
    /// fully masked all-(−∞)) fall back to uniform rather than emitting
    /// NaN weight vectors.
    #[test]
    fn softmax_degenerate_rows_fall_back_to_uniform() {
        for degenerate in [
            vec![f32::NAN, 1.0, 2.0],
            vec![f32::INFINITY, 0.0],
            vec![f32::NEG_INFINITY; 4],
        ] {
            let n = degenerate.len();
            let mut xs = degenerate.clone();
            softmax_in_place(&mut xs);
            for v in &xs {
                assert!(
                    (v - 1.0 / n as f32).abs() < 1e-7,
                    "{degenerate:?} -> {xs:?}"
                );
            }
        }
    }

    /// Distance in ulps between two non-negative floats.
    fn ulps(a: f32, b: f32) -> u32 {
        a.to_bits().abs_diff(b.to_bits())
    }

    /// `exp_nonpositive(x)` against `f64::exp` rounded to f32.
    fn exp_error_ulps(x: f32) -> u32 {
        ulps(exp_nonpositive(x), f64::from(x).exp() as f32)
    }

    /// The owned exp stays within 4 ulp of `f64::exp` on every 997th float
    /// of `[−87, 0]` and on the boundaries: around 0 (down to the
    /// smallest subnormal), at −87, and a few ulps either side of every
    /// half-way point `−(k + ½)·ln 2` of the range reduction.
    #[test]
    fn owned_exp_is_within_four_ulp_of_f64_exp() {
        let lowest = (-87.0f32).to_bits();
        for bits in ((-0.0f32).to_bits()..=lowest).step_by(997) {
            let x = f32::from_bits(bits);
            assert!(
                exp_error_ulps(x) <= 4,
                "exp({x}) off by {} ulp",
                exp_error_ulps(x)
            );
        }
        let mut edges = vec![
            -0.0,
            -f32::from_bits(1),
            -f32::MIN_POSITIVE,
            -1e-30,
            -f32::EPSILON,
            -0.5,
            -1.0,
            -86.999_99,
            -87.0,
        ];
        for k in 0..126 {
            let half_way = -(k as f32 + 0.5) * std::f32::consts::LN_2;
            for d in -3..=3 {
                edges.push(f32::from_bits(half_way.to_bits().wrapping_add_signed(d)));
            }
        }
        for x in edges.into_iter().filter(|&x| x >= -87.0) {
            assert!(
                exp_error_ulps(x) <= 4,
                "exp({x}) off by {} ulp",
                exp_error_ulps(x)
            );
        }
    }

    #[test]
    fn owned_exp_exact_cases() {
        assert_eq!(exp_nonpositive(0.0).to_bits(), 1.0f32.to_bits());
        assert_eq!(exp_nonpositive(-0.0).to_bits(), 1.0f32.to_bits());
        let below = f32::from_bits((-87.0f32).to_bits() + 1);
        for x in [
            below,
            -88.0,
            -103.9,
            -104.0,
            -1e10,
            -f32::MAX,
            f32::NEG_INFINITY,
        ] {
            assert_eq!(exp_nonpositive(x).to_bits(), 0.0f32.to_bits(), "exp({x})");
        }
        assert!(exp_nonpositive(-87.0) > 0.0);
        assert!(exp_nonpositive(f32::NAN).is_nan());
    }

    /// A logit more than 87 below the row max gets weight exactly 0, and
    /// the max element's `exp(0) = 1` keeps the rest normalized.
    #[test]
    fn softmax_zeroes_weights_far_below_the_max() {
        let mut xs = vec![0.0f32, -87.5, -1.0, -200.0, 0.0, -3.0, -90.0, -0.5, -86.0];
        softmax_in_place(&mut xs);
        for i in [1, 3, 6] {
            assert_eq!(xs[i].to_bits(), 0.0f32.to_bits(), "{xs:?}");
        }
        assert!(xs[8] > 0.0, "{xs:?}");
        let sum: f32 = xs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "{xs:?}");
    }

    #[test]
    fn layer_norm_normalizes() {
        let mut xs = vec![1.0f32, 2.0, 3.0, 4.0];
        layer_norm_in_place(&mut xs, 1e-6);
        let mean: f32 = xs.iter().sum::<f32>() / 4.0;
        let var: f32 = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn layer_norm_handles_constant_input() {
        let mut xs = vec![5.0f32; 8];
        layer_norm_in_place(&mut xs, 1e-6);
        assert!(xs.iter().all(|x| x.abs() < 1e-2));
    }

    #[test]
    fn argtop_k_orders_and_breaks_ties() {
        use crate::kernels::partial_top_k;
        let v = vec![0.1, 0.9, 0.5, 0.9, 0.2];
        assert_eq!(partial_top_k(&v, 3), vec![1, 3, 2]);
        assert_eq!(partial_top_k(&v, 10).len(), 5);
        assert_eq!(partial_top_k(&v, 0), Vec::<usize>::new());
    }

    #[test]
    fn random_matrices_are_seeded() {
        let a = Matrix::random_normal(4, 4, 1.0, 42);
        let b = Matrix::random_normal(4, 4, 1.0, 42);
        let c = Matrix::random_normal(4, 4, 1.0, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn from_flat_validates_shape() {
        assert!(Matrix::from_flat(2, 3, vec![0.0; 6]).is_ok());
        assert!(Matrix::from_flat(2, 3, vec![0.0; 5]).is_err());
    }

    #[test]
    fn dot_and_norm() {
        assert_eq!(Matrix::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!((Matrix::norm(&[3.0, 4.0]) - 5.0).abs() < 1e-6);
    }
}
