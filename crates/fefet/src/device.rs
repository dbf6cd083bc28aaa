//! FeFET state and the model that evolves/reads it.
//!
//! The state of a device is deliberately tiny (8 bytes) so that arrays of
//! hundreds of thousands of devices stay cheap; all parameters live in the
//! shared [`FeFetModel`].

use serde::{Deserialize, Serialize};

use crate::preisach::{switching_fraction, PulseSpec};
use crate::FeFetParams;

/// State of a single FeFET: its normalized remanent polarization.
/// Device-to-device `V_TH` variation is sampled per cell by the array
/// (see [`crate::VariationModel`]), not stored here.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FeFet {
    /// Normalized remanent polarization in `[-1, 1]`. `+1` = fully switched
    /// toward the low-`V_TH` state, `-1` = fully erased (high `V_TH`).
    polarization: f64,
}

impl FeFet {
    /// A fresh, fully erased device.
    #[must_use]
    pub fn fresh() -> Self {
        Self { polarization: -1.0 }
    }

    /// Normalized remanent polarization in `[-1, 1]`.
    #[must_use]
    pub fn polarization(&self) -> f64 {
        self.polarization
    }
}

impl Default for FeFet {
    fn default() -> Self {
        Self::fresh()
    }
}

/// The shared behavioral model: maps pulses to polarization updates and
/// polarization to threshold voltage and drain current.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeFetModel {
    params: FeFetParams,
}

impl FeFetModel {
    /// Creates a model from validated parameters.
    ///
    /// # Panics
    ///
    /// Panics if `params` fail [`FeFetParams::validate`]; use
    /// [`FeFetModel::try_new`] to handle invalid parameters gracefully.
    #[must_use]
    pub fn new(params: FeFetParams) -> Self {
        params.validate().expect("FeFetParams must validate");
        Self { params }
    }

    /// Creates a model, returning an error for invalid parameters.
    ///
    /// # Errors
    ///
    /// Propagates the validation error from [`FeFetParams::validate`].
    pub fn try_new(params: FeFetParams) -> Result<Self, crate::FeFetError> {
        params.validate()?;
        Ok(Self { params })
    }

    /// The model's parameter set.
    #[must_use]
    pub fn params(&self) -> &FeFetParams {
        &self.params
    }

    /// Applies a single gate pulse, switching a fraction of the *remaining*
    /// polarization toward the pole matching the pulse's sign. Sub-coercive
    /// pulses (including all reads) leave the state untouched; same-sign
    /// pulses never walk the polarization backwards (nested minor loops).
    pub fn apply_pulse(&self, dev: &mut FeFet, pulse: PulseSpec) {
        let frac = switching_fraction(&self.params, pulse);
        if frac == 0.0 {
            return;
        }
        let pole = pulse.amplitude.signum();
        dev.polarization += frac * (pole - dev.polarization);
        dev.polarization = dev.polarization.clamp(-1.0, 1.0);
    }

    /// Fully erases the device to the high-`V_TH` state (polarization −1)
    /// with a strong negative pulse.
    pub fn erase(&self, dev: &mut FeFet) {
        // A long, strongly over-coercive pulse saturates switching.
        let amp = -(self.params.coercive_voltage + 6.0 * self.params.preisach_width);
        self.apply_pulse(
            dev,
            PulseSpec {
                amplitude: amp,
                width: 1000.0 * self.params.pulse_width,
            },
        );
        // Behavioral idealization: a saturating erase lands exactly at −1.
        dev.polarization = -1.0;
    }

    /// Erases, then programs the device to the target normalized polarization
    /// (clamped to `[-1, 1]`) using a calibrated write pulse whose width is
    /// chosen to switch exactly the needed domain fraction. This is the
    /// paper's single-write-cycle in-place key update (erase + program).
    pub fn program_polarization(&self, dev: &mut FeFet, target: f64) {
        self.erase(dev);
        let target = target.clamp(-1.0, 1.0);
        // Fraction of the (-1 -> +1) distance that must switch.
        let fraction = ((target + 1.0) / 2.0).clamp(0.0, 1.0 - 1e-15);
        if fraction == 0.0 {
            return; // erased state already is -1
        }
        let amplitude = self.params.coercive_voltage + 2.0 * self.params.preisach_width;
        let width = crate::preisach::width_for_fraction(&self.params, amplitude, fraction)
            .expect("amplitude is over-coercive and fraction < 1 by construction");
        self.apply_pulse(dev, PulseSpec { amplitude, width });
        // The kinetics inversion is exact up to floating point; snap to the
        // target so multilevel grids are noiseless (variation is modeled
        // separately, per cell, by the array).
        dev.polarization = target;
    }

    /// Threshold voltage of the device: linear map of polarization across the
    /// memory window.
    #[must_use]
    pub fn vth(&self, dev: &FeFet) -> f64 {
        let p = &self.params;
        p.vth_mid() - 0.5 * p.memory_window() * dev.polarization
    }

    /// Drain current at the given gate and drain-source voltage, amps.
    ///
    /// EKV-style all-region expression:
    /// `I = 2·n·β·U_T² · [ln²(1+e^{v_ov/(2nU_T)}) − ln²(1+e^{(v_ov−n·v_ds)/(2nU_T)})] + I_leak`.
    /// Smooth and strictly increasing in `v_g`, strictly decreasing in
    /// `V_TH`, and linear in `v_ov` for small `v_ds` (triode) — the property
    /// the current-domain CIM linearity (Fig. 9b) relies on.
    #[must_use]
    pub fn drain_current(&self, dev: &FeFet, v_g: f64, v_ds: f64) -> f64 {
        self.drain_current_at_vth(self.vth(dev), v_g, v_ds)
    }

    /// [`FeFetModel::drain_current`] for an explicit threshold voltage.
    /// Useful for fast array-level paths that cache `V_TH` values.
    #[must_use]
    pub fn drain_current_at_vth(&self, vth: f64, v_g: f64, v_ds: f64) -> f64 {
        let p = &self.params;
        let n = p.slope_factor;
        let ut = p.thermal_voltage;
        let vov = v_g - vth;
        let half = 2.0 * n * ut;
        let lf = ln_one_plus_exp(vov / half);
        let lr = ln_one_plus_exp((vov - n * v_ds) / half);
        let i = 2.0 * n * p.beta * ut * ut * (lf * lf - lr * lr);
        i.max(0.0) + p.leakage
    }

    /// On/off current ratio at the default read condition.
    #[must_use]
    pub fn on_off_ratio(&self) -> f64 {
        let p = &self.params;
        let on = self.drain_current_at_vth(p.vth_low, p.read_voltage, p.vds_read);
        let off = self.drain_current_at_vth(p.vth_high, 0.0, p.vds_read);
        on / off
    }
}

/// Numerically stable `ln(1 + e^x)`.
fn ln_one_plus_exp(x: f64) -> f64 {
    if x > 30.0 {
        x
    } else if x < -30.0 {
        x.exp()
    } else {
        x.exp().ln_1p()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> FeFetModel {
        FeFetModel::new(FeFetParams::default())
    }

    #[test]
    fn fresh_device_is_erased() {
        let m = model();
        let dev = FeFet::fresh();
        assert_eq!(dev.polarization(), -1.0);
        assert!((m.vth(&dev) - m.params().vth_high).abs() < 1e-12);
    }

    #[test]
    fn program_reaches_target_vth() {
        let m = model();
        let mut dev = FeFet::fresh();
        for target in [-1.0, -0.5, 0.0, 0.5, 1.0] {
            m.program_polarization(&mut dev, target);
            let expect = m.params().vth_mid() - 0.5 * m.params().memory_window() * target;
            assert!(
                (m.vth(&dev) - expect).abs() < 1e-9,
                "target {target}: vth {} != {expect}",
                m.vth(&dev)
            );
        }
    }

    #[test]
    fn read_is_non_destructive() {
        let m = model();
        let mut dev = FeFet::fresh();
        m.program_polarization(&mut dev, 0.37);
        let before = dev.polarization();
        for _ in 0..1000 {
            m.apply_pulse(
                &mut dev,
                PulseSpec {
                    amplitude: m.params().read_voltage,
                    width: 1e-6,
                },
            );
        }
        assert_eq!(
            dev.polarization(),
            before,
            "reads must never move polarization"
        );
    }

    #[test]
    fn partial_pulses_accumulate_gradually() {
        let m = model();
        let mut dev = FeFet::fresh();
        // Short, barely over-coercive pulses should move polarization in
        // several visible steps rather than all at once.
        let pulse = PulseSpec {
            amplitude: 2.9,
            width: 5e-9,
        };
        let mut last = dev.polarization();
        let mut steps = 0;
        for _ in 0..50 {
            m.apply_pulse(&mut dev, pulse);
            let now = dev.polarization();
            if now > last + 1e-6 {
                steps += 1;
            }
            last = now;
        }
        assert!(
            steps >= 5,
            "expected gradual multi-step switching, saw {steps} steps"
        );
        assert!(dev.polarization() <= 1.0);
        assert!(
            dev.polarization() > -1.0,
            "pulses must have switched something"
        );
    }

    #[test]
    fn current_monotone_in_gate_voltage() {
        let m = model();
        let mut dev = FeFet::fresh();
        m.program_polarization(&mut dev, 0.0);
        let mut last = 0.0;
        for i in 0..200 {
            let vg = -0.5 + 0.015 * f64::from(i);
            let i_d = m.drain_current(&dev, vg, m.params().vds_read);
            assert!(i_d >= last, "drain current must be monotone in v_g");
            last = i_d;
        }
    }

    #[test]
    fn current_monotone_in_vth() {
        let m = model();
        let p = m.params();
        let mut last = f64::INFINITY;
        for i in 0..100 {
            let vth = p.vth_low + p.memory_window() * f64::from(i) / 99.0;
            let i_d = m.drain_current_at_vth(vth, p.read_voltage, p.vds_read);
            assert!(i_d <= last, "drain current must decrease with vth");
            last = i_d;
        }
    }

    #[test]
    fn triode_current_is_nearly_linear_in_overdrive() {
        let m = model();
        let p = m.params();
        // Compare currents at equally spaced vth levels: successive
        // differences should be nearly equal well above threshold.
        let i0 = m.drain_current_at_vth(p.vth_low, p.read_voltage, p.vds_read);
        let i1 = m.drain_current_at_vth(p.vth_low + 0.3, p.read_voltage, p.vds_read);
        let i2 = m.drain_current_at_vth(p.vth_low + 0.6, p.read_voltage, p.vds_read);
        let d1 = i0 - i1;
        let d2 = i1 - i2;
        let nonlinearity = ((d1 - d2) / d1).abs();
        assert!(
            nonlinearity < 0.05,
            "triode nonlinearity {nonlinearity} too large"
        );
    }

    #[test]
    fn high_on_off_ratio() {
        let m = model();
        assert!(m.on_off_ratio() > 1e4, "on/off ratio {}", m.on_off_ratio());
    }

    #[test]
    fn try_new_rejects_bad_params() {
        let bad = FeFetParams {
            beta: -1.0,
            ..FeFetParams::default()
        };
        assert!(FeFetModel::try_new(bad).is_err());
    }
}
