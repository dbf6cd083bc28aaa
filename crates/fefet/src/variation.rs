//! Device-to-device variation: seeded Gaussian `V_TH` offsets.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Seeded generator of static device-to-device threshold-voltage offsets.
///
/// The UniCAIM paper assumes Gaussian `V_TH` variation with a standard
/// deviation of 54 mV (Cai et al., DAC 2022) when demonstrating the Fig. 9
/// sense-current linearity. Sampling is deterministic per `(seed, index)` so
/// arrays are reproducible.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VariationModel {
    sigma_vth: f64,
    seed: u64,
}

impl VariationModel {
    /// Creates a variation model with the given σ (volts) and RNG seed.
    #[must_use]
    pub fn new(sigma_vth: f64, seed: u64) -> Self {
        Self {
            sigma_vth: sigma_vth.max(0.0),
            seed,
        }
    }

    /// A model with no variation: every offset is exactly zero.
    #[must_use]
    pub fn none() -> Self {
        Self {
            sigma_vth: 0.0,
            seed: 0,
        }
    }

    /// The paper's default: σ = 54 mV.
    #[must_use]
    pub fn paper_default(seed: u64) -> Self {
        Self::new(0.054, seed)
    }

    /// The standard deviation, volts.
    #[must_use]
    pub fn sigma_vth(&self) -> f64 {
        self.sigma_vth
    }

    /// Deterministic offset of the device with the given flat index, volts.
    #[must_use]
    pub fn offset(&self, device_index: u64) -> f64 {
        if self.sigma_vth == 0.0 {
            return 0.0;
        }
        let mut rng =
            ChaCha8Rng::seed_from_u64(self.seed ^ device_index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        // Box-Muller from two uniform draws.
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        z * self.sigma_vth
    }

    /// Samples `n` offsets (device indices `0..n`).
    #[must_use]
    pub fn offsets(&self, n: usize) -> Vec<f64> {
        (0..n as u64).map(|i| self.offset(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_index() {
        let v = VariationModel::paper_default(42);
        assert_eq!(v.offset(7), v.offset(7));
        assert_ne!(v.offset(7), v.offset(8));
    }

    #[test]
    fn different_seeds_differ() {
        let a = VariationModel::paper_default(1);
        let b = VariationModel::paper_default(2);
        assert_ne!(a.offset(0), b.offset(0));
    }

    #[test]
    fn none_is_zero() {
        let v = VariationModel::none();
        for i in 0..100 {
            assert_eq!(v.offset(i), 0.0);
        }
    }

    #[test]
    fn sample_statistics_match_sigma() {
        let v = VariationModel::paper_default(3);
        let xs = v.offsets(20_000);
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        let sd = var.sqrt();
        assert!(mean.abs() < 0.002, "mean {mean} should be ~0");
        assert!((sd - 0.054).abs() < 0.003, "sd {sd} should be ~54 mV");
    }

    #[test]
    fn negative_sigma_clamped() {
        let v = VariationModel::new(-0.1, 0);
        assert_eq!(v.sigma_vth(), 0.0);
        assert_eq!(v.offset(0), 0.0);
    }
}
