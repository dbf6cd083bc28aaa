//! Shared helpers for the figure/table regeneration binaries and the
//! `bench_check` saved-baseline suite ([`suite`]).
//!
//! Every table and figure of the UniCAIM paper's evaluation has a binary in
//! `src/bin/` that regenerates it (`cargo run -p unicaim-bench --bin
//! fig10_area`, ...). The binaries print the paper's rows/series to stdout
//! and, when `--json <path>` is given, also dump machine-readable results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod layer;
pub mod prefix;
pub mod serving;
pub mod suite;

use std::io::Write as _;
use std::path::PathBuf;

/// Host provenance stamped into benchmark JSON dumps: which kernel
/// dispatch tier produced the numbers and how many cores were available.
///
/// Wall-clock figures recorded on an AVX2 host are not comparable to a
/// scalar-tier re-measurement (and vice versa), so every saved baseline
/// and throughput dump carries this record; `bench_check` uses it to skip
/// cross-tier comparisons of the `simd_speedup` suite.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct HostProvenance {
    /// Active kernel dispatch tier label (`"scalar"` or `"avx2"`)
    /// — the runtime-detected tier, or the `UNICAIM_KERNEL_BACKEND`
    /// override when one is set.
    pub backend: String,
    /// Available parallelism (`nproc`) at record time.
    pub nproc: usize,
}

impl HostProvenance {
    /// Captures the current host: the active kernel backend and core
    /// count.
    #[must_use]
    pub fn capture() -> Self {
        Self {
            backend: unicaim_attention::active_backend().label().to_owned(),
            nproc: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        }
    }

    /// Prints a warning (styled like the scheduler's `workers == 1`
    /// warning) when the measurement is running on the scalar tier: the
    /// `simd_speedup` figures degenerate to ~1.0x there and wall-clock
    /// numbers are not comparable to SIMD-tier hosts.
    pub fn warn_if_scalar(&self) {
        if self.backend == "scalar" {
            println!(
                "\nWARNING: kernel dispatch resolved to the scalar tier (set or \
                 detected) — SIMD speedup figures will read ~1.0x and wall-clock \
                 numbers are not comparable to SIMD-tier hosts."
            );
        }
    }

    /// Prints a warning (same style as [`HostProvenance::warn_if_scalar`]
    /// and the scheduler's `workers == 1` warning) when only one core is
    /// available: parallel speedups degenerate to ~1.0x there, and timed
    /// figures are not comparable to multi-core hosts.
    pub fn warn_if_single_core(&self) {
        if self.nproc == 1 {
            println!(
                "\nWARNING: only 1 worker thread available — parallel speedups \
                 will read ~1.0x and wall-clock figures are not comparable to \
                 multi-core hosts."
            );
        }
    }
}

/// Parses the common `--json <path>` CLI option.
#[must_use]
pub fn json_output_path() -> Option<PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
}

/// Writes `value` as pretty JSON to `path` (creating parent directories).
///
/// # Panics
///
/// Panics on I/O errors — acceptable for experiment binaries.
pub fn dump_json<T: serde::Serialize>(path: &std::path::Path, value: &T) {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).expect("create results directory");
    }
    let mut f = std::fs::File::create(path).expect("create results file");
    let s = serde_json::to_string_pretty(value).expect("serialize results");
    f.write_all(s.as_bytes()).expect("write results");
    eprintln!("(wrote {})", path.display());
}

/// Formats a float with engineering-style precision for table printing.
#[must_use]
pub fn eng(x: f64) -> String {
    if x == 0.0 {
        return "0".to_owned();
    }
    let a = x.abs();
    if (1e-2..1e4).contains(&a) {
        format!("{x:.3}")
    } else {
        format!("{x:.3e}")
    }
}

/// Prints a header banner for an experiment binary.
pub fn banner(id: &str, title: &str) {
    println!("================================================================");
    println!("{id} — {title}");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eng_formats() {
        assert_eq!(eng(0.0), "0");
        assert_eq!(eng(1.5), "1.500");
        assert_eq!(eng(1.23e-9), "1.230e-9");
    }
}
