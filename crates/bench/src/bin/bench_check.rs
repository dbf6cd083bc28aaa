//! Perf/behavior regression gate: measures the saved-baseline suites (see
//! [`unicaim_bench::suite`]) and compares each case against the figures
//! recorded in `results/baselines/<suite>.json`.
//!
//! Usage:
//!
//! * `bench_check --save` — run every suite and (re)write the baselines.
//! * `bench_check [--tolerance <x>] [--suite <name>]...` — re-measure and
//!   fail (exit 1) when any case leaves its tolerance band. Each baseline
//!   row may carry its own `tolerance`; rows without one use the global
//!   `--tolerance` (default 4.0, deliberately wide: saved wall-clock
//!   numbers come from whatever machine recorded them, so the global band
//!   catches order-of-magnitude regressions — an accidentally quadratic
//!   loop, a de-vectorized kernel — not percent-level noise).
//!   Deterministic *metric* cases (unit other than ns/iter, e.g. the
//!   `saturation` suite's tick-domain percentiles) are checked in **both**
//!   directions against their tight per-case tolerance: the figures are
//!   bit-identical across machines, so drift either way is a behavior
//!   change.
//! * `--baseline-dir <dir>` — read/write baselines somewhere else
//!   (default `results/baselines`).
//!
//! Baselines are stamped with the host that recorded them (the active
//! kernel dispatch tier and `nproc`). The `simd_speedup` suite is only compared
//! when the baseline's tier matches the current host's — speedup ratios
//! recorded under AVX2 say nothing about a scalar-tier rerun.
//!
//! Run with: `cargo run --release -p unicaim-bench --bin bench_check`

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use unicaim_bench::suite::{measure, suite, BaselineFile, BaselineRow, SUITE_NAMES};
use unicaim_bench::{banner, HostProvenance};

struct Options {
    save: bool,
    tolerance: f64,
    suites: Vec<String>,
    baseline_dir: PathBuf,
}

fn parse_options() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Options {
        save: false,
        tolerance: 4.0,
        suites: Vec::new(),
        baseline_dir: PathBuf::from("results/baselines"),
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--save" => opts.save = true,
            "--tolerance" => {
                i += 1;
                opts.tolerance = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--tolerance needs a numeric argument");
            }
            "--suite" => {
                i += 1;
                let name = args.get(i).expect("--suite needs a name").clone();
                assert!(
                    SUITE_NAMES.contains(&name.as_str()),
                    "unknown suite `{name}` (expected one of {SUITE_NAMES:?})"
                );
                opts.suites.push(name);
            }
            "--baseline-dir" => {
                i += 1;
                opts.baseline_dir =
                    PathBuf::from(args.get(i).expect("--baseline-dir needs a path"));
            }
            other => panic!("unknown argument `{other}`"),
        }
        i += 1;
    }
    if opts.suites.is_empty() {
        opts.suites = SUITE_NAMES.iter().map(|&s| s.to_owned()).collect();
    }
    opts
}

fn baseline_path(dir: &Path, suite_name: &str) -> PathBuf {
    dir.join(format!("{suite_name}.json"))
}

fn run_suite(suite_name: &str) -> Vec<BaselineRow> {
    suite(suite_name)
        .iter_mut()
        .map(|case| {
            let m = measure(case);
            println!("  {:<40} {:>14.1} {}", case.name, m.value, m.unit);
            BaselineRow {
                name: case.name.to_owned(),
                value: m.value,
                unit: m.unit.to_owned(),
                tolerance: case.tolerance,
            }
        })
        .collect()
}

fn save(opts: &Options) {
    let host = HostProvenance::capture();
    println!(
        "recording on backend `{}`, nproc {}",
        host.backend, host.nproc
    );
    host.warn_if_scalar();
    host.warn_if_single_core();
    for suite_name in &opts.suites {
        println!("recording suite `{suite_name}`:");
        let rows = run_suite(suite_name);
        unicaim_bench::dump_json(
            &baseline_path(&opts.baseline_dir, suite_name),
            &BaselineFile {
                host: host.clone(),
                rows,
            },
        );
    }
}

fn check(opts: &Options) -> bool {
    let host = HostProvenance::capture();
    println!(
        "checking on backend `{}`, nproc {}",
        host.backend, host.nproc
    );
    host.warn_if_scalar();
    host.warn_if_single_core();
    let mut regressed = false;
    for suite_name in &opts.suites {
        let path = baseline_path(&opts.baseline_dir, suite_name);
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "cannot read baseline {} ({e}); record one with `bench_check --save`",
                path.display()
            )
        });
        let baseline_file: BaselineFile =
            serde_json::from_str(&text).expect("baseline JSON must parse");
        if suite_name == "simd_speedup" && baseline_file.host.backend != host.backend {
            println!(
                "skipping suite `simd_speedup`: baseline was recorded on backend \
                 `{}` but this host dispatches `{}` — speedup ratios are only \
                 comparable within one tier (refresh with `bench_check --save`)",
                baseline_file.host.backend, host.backend
            );
            continue;
        }
        let baseline = baseline_file.rows;
        println!(
            "checking suite `{suite_name}` against {} (recorded on backend `{}`, nproc {}):",
            path.display(),
            baseline_file.host.backend,
            baseline_file.host.nproc
        );
        println!(
            "  {:<40} {:>12} {:>12} {:>7} {:>8}  status",
            "case", "baseline", "fresh", "ratio", "tol"
        );
        for case in suite(suite_name).iter_mut() {
            let fresh = measure(case);
            let saved = baseline.iter().find(|row| row.name == case.name);
            match saved {
                None => println!(
                    "  {:<40} {:>12} {:>12.1} {:>7} {:>8}  NEW (no baseline; rerun --save)",
                    case.name, "-", fresh.value, "-", "-"
                ),
                Some(row) => {
                    let tolerance = row.tolerance.unwrap_or(opts.tolerance);
                    let ratio = fresh.value / row.value.max(1e-9);
                    // Exact agreement short-circuits the ratio test, so
                    // deterministic zero-valued counters never divide by
                    // the epsilon floor.
                    let within = (fresh.value - row.value).abs() <= 1e-9
                        || if case.is_metric() {
                            ratio <= tolerance && ratio >= 1.0 / tolerance
                        } else {
                            ratio <= tolerance
                        };
                    let status = if within {
                        "ok"
                    } else {
                        regressed = true;
                        "REGRESSED"
                    };
                    println!(
                        "  {:<40} {:>12.1} {:>12.1} {ratio:>6.2}x {tolerance:>7.2}x  {status}",
                        case.name, row.value, fresh.value
                    );
                }
            }
        }
    }
    !regressed
}

fn main() -> ExitCode {
    let opts = parse_options();
    banner(
        "bench_check",
        "Saved-baseline perf gate over the decode hot path",
    );
    if opts.save {
        save(&opts);
        return ExitCode::SUCCESS;
    }
    if check(&opts) {
        println!(
            "\nall cases within tolerance (global {:.1}x; per-case bands where recorded)",
            opts.tolerance
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "\nregression outside the tolerance band detected (see REGRESSED rows); \
             if intentional, refresh with `bench_check --save`"
        );
        ExitCode::FAILURE
    }
}
