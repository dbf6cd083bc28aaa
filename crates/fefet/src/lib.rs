//! Behavioral ferroelectric FET (FeFET) device model.
//!
//! This crate provides the device-physics substrate of the UniCAIM
//! reproduction. The paper evaluates UniCAIM with HSPICE using a 45 nm BSIM
//! MOSFET model and the Preisach ferroelectric switching model of Ni et al.
//! (VLSI 2018). Here we implement a *behavioral* equivalent that preserves
//! the properties the architecture depends on:
//!
//! * **Multilevel, non-volatile threshold-voltage programming** — applying a
//!   program pulse partially switches the ferroelectric polarization, which
//!   linearly shifts the threshold voltage `V_TH` inside a memory window
//!   (Fig. 2b/2c of the paper).
//! * **Non-destructive read** — read voltages below the coercive voltage do
//!   not disturb the stored polarization.
//! * **Smooth, monotone I–V readout** — an EKV-style all-region MOSFET
//!   equation gives subthreshold exponential, triode-linear and saturation
//!   behaviour with one smooth expression, so sense-line currents are
//!   monotone in the gate overdrive (what the CAM discharge race and the
//!   current-domain linearity of Fig. 9 rely on).
//! * **Device-to-device variation** — Gaussian `V_TH` offsets with the
//!   σ = 54 mV the paper adopts from Cai et al. (DAC 2022).
//!
//! # Quickstart
//!
//! ```
//! use unicaim_fefet::{FeFet, FeFetModel, FeFetParams};
//!
//! let model = FeFetModel::new(FeFetParams::default());
//! let mut dev = FeFet::fresh();
//! // Program the strongest "low-VTH" state and read the channel current.
//! model.erase(&mut dev);
//! model.program_polarization(&mut dev, 1.0);
//! let i_on = model.drain_current(&dev, model.params().read_voltage, model.params().vds_read);
//! let i_off = model.drain_current(&dev, 0.0, model.params().vds_read);
//! assert!(i_on / i_off > 1e3, "FeFET must have a high on/off ratio");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod device;
mod multilevel;
mod params;
mod preisach;
mod sweep;
mod variation;

pub use device::{FeFet, FeFetModel};
pub use multilevel::{LevelProgrammer, VthGrid};
pub use params::FeFetParams;
pub use preisach::{saturation_polarization, switching_fraction, width_for_fraction, PulseSpec};
pub use sweep::{id_vg_sweep, pv_loop, IdVgCurve, IdVgPoint, PvLoop, PvPoint};
pub use variation::VariationModel;

/// Errors reported by the FeFET device layer.
#[derive(Debug, Clone, PartialEq)]
pub enum FeFetError {
    /// A parameter failed validation (name and human-readable reason).
    InvalidParameter {
        /// The name of the offending parameter.
        name: &'static str,
        /// Why the value was rejected.
        reason: String,
    },
    /// A requested level index was out of range for the level grid.
    LevelOutOfRange {
        /// The requested level index.
        level: usize,
        /// The number of levels in the grid.
        n_levels: usize,
    },
}

impl core::fmt::Display for FeFetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FeFetError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
            FeFetError::LevelOutOfRange { level, n_levels } => {
                write!(f, "level {level} out of range for a {n_levels}-level grid")
            }
        }
    }
}

impl std::error::Error for FeFetError {}
