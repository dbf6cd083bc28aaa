//! Paired perfbench comparison of two builds against the benchmark's
//! end-to-end bounds.
//!
//! ```text
//! cargo run --release -p unicaim-bench --bin perf_pairs -- \
//!     --parent <perfbench binary> --change <perfbench binary> \
//!     --workload engine_long_decode[,serve_mixed,...] [--seed 1] \
//!     [--seconds S] [--pairs 10] [--claim ttft_p50_ms] \
//!     [--benchmark BENCHMARK.json]
//! ```
//!
//! Runs `--pairs` pairs of the two perfbench binaries on each workload of
//! the comma-separated `--workload` list, one workload after another,
//! alternating which side runs first so that drift on a shared host hits
//! both sides alike. Each workload gets its own header and table. Each run
//! lasts `--seconds`, by default the benchmark's own `run_seconds`;
//! shorter runs are too noisy to judge a change by, so the report then
//! says its timing verdicts are indicative only. Each run's last
//! standard-output line is perfbench's JSON result; a run that reports
//! `"correct": false`, a nonzero `failed` count, or no result fails the
//! comparison.
//!
//! For every end-to-end metric in `BENCHMARK.json` (name, direction and
//! bound), it prints both sides' median with its quartiles, how many pairs
//! the change won (ties count for neither side), and whether the change's
//! median is worse than the parent's by more than the bound. `--claim
//! <metric>` also checks the gain rule: the change wins at least 9 of 10
//! pairs, and its median beats the parent's by more than the parent's
//! interquartile range. A claim names one metric on one workload, so
//! `--claim` with more than one workload is a usage error.
//!
//! Exit codes: 0 when every metric holds its bound on every workload (and
//! a claimed gain holds); 1 when a metric regresses beyond its bound or a
//! claimed gain fails; 2 on bad arguments or an unreadable
//! `BENCHMARK.json`; 3 as soon as a run fails its correctness checks or
//! its result cannot be read, which stops the comparison at once. A
//! smoke check of the parser can therefore accept 1 from a single short
//! pair, whose timings are noise, and still fail on 3.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use serde::Value;

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
struct MetricSpec {
    name: String,
    higher_is_better: bool,
    /// Largest allowed relative worsening of the median.
    bound: f64,
}

struct Options {
    parent: PathBuf,
    change: PathBuf,
    workloads: Vec<String>,
    seed: u64,
    /// Run length; `None` takes the benchmark's `run_seconds`.
    seconds: Option<f64>,
    pairs: usize,
    claim: Option<String>,
    benchmark: PathBuf,
}

/// Exit code of a run that failed its checks or could not be read.
const CHECK_FAILED: u8 = 3;

const USAGE: &str = "usage: perf_pairs --parent <perfbench> --change <perfbench> \
     --workload <name>[,<name>...] [--seed N] [--seconds S] [--pairs N] \
     [--claim <metric>] [--benchmark BENCHMARK.json]";

/// The workloads of a comma-separated `--workload` value, in order. An
/// empty item (`a,,b`, a trailing comma, or an empty value) is an error.
fn parse_workloads(value: &str) -> Result<Vec<String>, String> {
    value
        .split(',')
        .map(|name| {
            let name = name.trim();
            if name.is_empty() {
                Err(format!("--workload {value}: empty workload name"))
            } else {
                Ok(name.to_owned())
            }
        })
        .collect()
}

fn parse_options(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut parent = None;
    let mut change = None;
    let mut workloads = None;
    let mut opts = Options {
        parent: PathBuf::new(),
        change: PathBuf::new(),
        workloads: Vec::new(),
        seed: 1,
        seconds: None,
        pairs: 10,
        claim: None,
        benchmark: PathBuf::from("BENCHMARK.json"),
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--parent" => parent = Some(PathBuf::from(&value)),
            "--change" => change = Some(PathBuf::from(&value)),
            "--workload" => workloads = Some(parse_workloads(&value)?),
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => opts.seconds = Some(value.parse().map_err(|e| bad(&e))?),
            "--pairs" => opts.pairs = value.parse().map_err(|e| bad(&e))?,
            "--claim" => opts.claim = Some(value),
            "--benchmark" => opts.benchmark = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.parent = parent.ok_or("--parent is required")?;
    opts.change = change.ok_or("--change is required")?;
    opts.workloads = workloads.ok_or("--workload is required")?;
    if opts.pairs == 0 {
        return Err("--pairs must be at least 1".into());
    }
    if opts.claim.is_some() && opts.workloads.len() > 1 {
        return Err("--claim names one metric on one workload; give one --workload".into());
    }
    Ok(opts)
}

/// The run length a `BENCHMARK.json` document sets for each run.
fn run_seconds(benchmark: &Value) -> Result<f64, String> {
    benchmark
        .get("run_seconds")
        .and_then(Value::as_f64)
        .ok_or_else(|| "BENCHMARK.json has no numeric run_seconds".to_owned())
}

/// The end-to-end metrics of a `BENCHMARK.json` document.
fn metric_specs(benchmark: &Value) -> Result<Vec<MetricSpec>, String> {
    let rows = benchmark
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end array")?;
    rows.iter()
        .map(|row| {
            let field = |key: &str| {
                row.get(key)
                    .ok_or_else(|| format!("end_to_end entry without `{key}`"))
            };
            let name = field("name")?
                .as_str()
                .ok_or("metric name is not a string")?;
            let better = field("better")?
                .as_str()
                .ok_or("`better` is not a string")?;
            let higher_is_better = match better {
                "higher" => true,
                "lower" => false,
                other => return Err(format!("{name}: unknown direction `{other}`")),
            };
            let bound = field("bound")?
                .as_f64()
                .ok_or_else(|| format!("{name}: bound is not a number"))?;
            Ok(MetricSpec {
                name: name.to_owned(),
                higher_is_better,
                bound,
            })
        })
        .collect()
}

/// The JSON result on the last non-empty line of a perfbench run's
/// standard output, checked: `"correct"` must be true and `"failed"` 0.
fn parse_result(stdout: &str) -> Result<Value, String> {
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("no output")?;
    let result =
        serde_json::value_from_str(line).map_err(|e| format!("last line is not JSON: {e}"))?;
    if result.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err("the run reported \"correct\": false".into());
    }
    match result.get("failed").and_then(Value::as_u64) {
        Some(0) => Ok(result),
        Some(n) => Err(format!("the run reported {n} failed operations")),
        None => Err("the result has no `failed` count".into()),
    }
}

/// The value of `metric` in a checked perfbench result.
fn metric_value(result: &Value, metric: &str) -> Option<f64> {
    result.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

/// Runs one perfbench binary on `workload` for `seconds` and returns its
/// checked result.
fn run(binary: &PathBuf, workload: &str, seed: u64, seconds: f64) -> Result<Value, String> {
    let output = Command::new(binary)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| format!("{}: {e}", binary.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let result = parse_result(&stdout).map_err(|e| format!("{}: {e}", binary.display()))?;
    if !output.status.success() {
        return Err(format!(
            "{}: exited with {}",
            binary.display(),
            output.status
        ));
    }
    Ok(result)
}

/// First quartile, median and third quartile, linearly interpolated
/// between order statistics (the `(n − 1)·p` rule). `None` when empty.
fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |p: f64| {
        let pos = (sorted.len() - 1) as f64 * p;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    };
    Some([at(0.25), at(0.5), at(0.75)])
}

/// Pairs in which the change is strictly better than the parent; a tie
/// counts for neither side.
fn wins(parent: &[f64], change: &[f64], higher_is_better: bool) -> usize {
    parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| if higher_is_better { c > p } else { c < p })
        .count()
}

/// Whether the change's median is worse than the parent's by more than
/// `bound` (a fraction of the parent's median).
fn regressed(parent_median: f64, change_median: f64, spec: &MetricSpec) -> bool {
    if spec.higher_is_better {
        change_median < parent_median * (1.0 - spec.bound)
    } else {
        change_median > parent_median * (1.0 + spec.bound)
    }
}

/// The gain rule: the change wins at least 9 of 10 pairs, and its median
/// beats the parent's by more than the parent's interquartile range.
fn gain_holds(
    parent: [f64; 3],
    change_median: f64,
    wins: usize,
    pairs: usize,
    higher_is_better: bool,
) -> bool {
    let [q1, median, q3] = parent;
    let gap = if higher_is_better {
        change_median - median
    } else {
        median - change_median
    };
    wins * 10 >= pairs * 9 && gap > q3 - q1
}

/// Runs the pairs of one workload and prints its table. Returns whether
/// every metric held its bound (and a claimed gain held); an error is a
/// run that failed its checks or a result that could not be read.
fn compare(
    opts: &Options,
    workload: &str,
    specs: &[MetricSpec],
    run_seconds: f64,
) -> Result<bool, String> {
    let seconds = opts.seconds.unwrap_or(run_seconds);
    let (mut parent_runs, mut change_runs) = (Vec::new(), Vec::new());
    for pair in 0..opts.pairs {
        // Alternate the order so drift on a shared host hits both sides.
        let parent_first = pair % 2 == 0;
        for side_is_parent in [parent_first, !parent_first] {
            let (binary, runs) = if side_is_parent {
                (&opts.parent, &mut parent_runs)
            } else {
                (&opts.change, &mut change_runs)
            };
            let result = run(binary, workload, opts.seed, seconds)
                .map_err(|e| format!("check failed in {workload} pair {}: {e}", pair + 1))?;
            runs.push(result);
        }
        eprintln!("{workload}: pair {}/{} done", pair + 1, opts.pairs);
    }

    println!(
        "# perf_pairs workload={workload} seed={} seconds={seconds} pairs={}",
        opts.seed, opts.pairs
    );
    if seconds < run_seconds {
        println!(
            "# runs shorter than the benchmark's run_seconds={run_seconds}: \
             timing verdicts are indicative only"
        );
    }
    println!(
        "{:<22} {:>32} {:>32} {:>9} {:>6}  verdict",
        "metric", "parent median [q1, q3]", "change median [q1, q3]", "change", "wins"
    );
    let mut ok = true;
    for spec in specs {
        let values = |runs: &[Value]| {
            runs.iter()
                .map(|r| metric_value(r, &spec.name))
                .collect::<Option<Vec<f64>>>()
        };
        let (Some(parent), Some(change)) = (values(&parent_runs), values(&change_runs)) else {
            return Err(format!("{workload}: a run did not report {}", spec.name));
        };
        let (Some(p), Some(c)) = (quartiles(&parent), quartiles(&change)) else {
            continue;
        };
        let won = wins(&parent, &change, spec.higher_is_better);
        let worse = regressed(p[1], c[1], spec);
        ok &= !worse;
        let mut verdict = if worse {
            format!("REGRESSION beyond {:.0}%", spec.bound * 100.0)
        } else {
            "within bound".to_owned()
        };
        if opts.claim.as_deref() == Some(spec.name.as_str()) {
            let holds = gain_holds(p, c[1], won, opts.pairs, spec.higher_is_better);
            ok &= holds;
            verdict.push_str(if holds {
                "; claimed gain holds"
            } else {
                "; claimed gain FAILS"
            });
        }
        let relative = if p[1] == 0.0 {
            0.0
        } else {
            (c[1] - p[1]) / p[1] * 100.0
        };
        println!(
            "{:<22} {:>32} {:>32} {:>+8.1}% {:>3}/{:<2}  {verdict}",
            spec.name,
            format!("{:.6} [{:.6}, {:.6}]", p[1], p[0], p[2]),
            format!("{:.6} [{:.6}, {:.6}]", c[1], c[0], c[2]),
            relative,
            won,
            opts.pairs,
        );
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let opts = match parse_options(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (specs, run_seconds) = match std::fs::read_to_string(&opts.benchmark)
        .map_err(|e| format!("{}: {e}", opts.benchmark.display()))
        .and_then(|text| serde_json::value_from_str(&text).map_err(|e| e.to_string()))
        .and_then(|doc| Ok((metric_specs(&doc)?, run_seconds(&doc)?)))
    {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(claim) = &opts.claim {
        if !specs.iter().any(|s| &s.name == claim) {
            eprintln!("error: --claim {claim} is not an end-to-end metric");
            return ExitCode::from(2);
        }
    }

    let mut ok = true;
    for workload in &opts.workloads {
        match compare(&opts, workload, &specs, run_seconds) {
            Ok(holds) => ok &= holds,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(CHECK_FAILED);
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(higher_is_better: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            higher_is_better,
            bound,
        }
    }

    #[test]
    fn quartiles_interpolate_between_order_statistics() {
        assert_eq!(quartiles(&[]), None);
        assert_eq!(quartiles(&[3.0]), Some([3.0, 3.0, 3.0]));
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), Some([2.0, 3.0, 4.0]));
        // Four values: positions 0.75, 1.5 and 2.25.
        assert_eq!(
            quartiles(&[10.0, 40.0, 20.0, 30.0]),
            Some([17.5, 25.0, 32.5])
        );
    }

    #[test]
    fn wins_count_strict_improvements_only() {
        let parent = [10.0, 10.0, 10.0, 10.0];
        let change = [9.0, 10.0, 11.0, 8.0];
        assert_eq!(wins(&parent, &change, false), 2);
        assert_eq!(wins(&parent, &change, true), 1);
    }

    #[test]
    fn regression_is_judged_against_the_bound_in_the_metric_direction() {
        let lower = spec(false, 0.25);
        assert!(!regressed(100.0, 125.0, &lower));
        assert!(regressed(100.0, 125.1, &lower));
        assert!(!regressed(100.0, 10.0, &lower));
        let higher = spec(true, 0.1);
        assert!(!regressed(1.0, 0.9, &higher));
        assert!(regressed(1.0, 0.89, &higher));
        assert!(!regressed(1.0, 2.0, &higher));
    }

    #[test]
    fn gain_needs_nine_of_ten_wins_and_a_gap_beyond_the_iqr() {
        let parent = [95.0, 100.0, 105.0];
        assert!(gain_holds(parent, 80.0, 9, 10, false));
        assert!(!gain_holds(parent, 80.0, 8, 10, false));
        assert!(!gain_holds(parent, 90.0, 10, 10, false), "gap 10 = IQR");
        assert!(gain_holds(parent, 111.0, 3, 3, true));
        assert!(!gain_holds(parent, 111.0, 3, 3, false));
    }

    #[test]
    fn results_must_be_correct_with_nothing_failed() {
        let ok = "# header\n{\"correct\": true, \"attempted\": 4, \"failed\": 0, \
                  \"metrics\": {\"tick_p50_ms\": {\"value\": 0.5, \"unit\": \"ms\"}}}\n";
        let result = parse_result(ok).unwrap();
        assert_eq!(metric_value(&result, "tick_p50_ms"), Some(0.5));
        assert_eq!(metric_value(&result, "ttft_p50_ms"), None);
        assert!(parse_result(&ok.replace("true", "false")).is_err());
        assert!(parse_result(&ok.replace("\"failed\": 0", "\"failed\": 2")).is_err());
        assert!(parse_result("# header only\n").is_err());
        assert!(parse_result("").is_err());
    }

    #[test]
    fn run_length_defaults_to_the_benchmarks_run_seconds() {
        let parse = |extra: &[&str]| {
            let args = ["--parent", "p", "--change", "c", "--workload", "w"];
            parse_options(args.iter().chain(extra).map(|a| (*a).to_owned())).unwrap()
        };
        assert_eq!(parse(&[]).seconds, None);
        assert_eq!(parse(&["--seconds", "10"]).seconds, Some(10.0));
        let doc = serde_json::value_from_str("{\"run_seconds\": 30, \"end_to_end\": []}").unwrap();
        assert_eq!(run_seconds(&doc), Ok(30.0));
        assert!(run_seconds(&serde_json::value_from_str("{}").unwrap()).is_err());
    }

    fn parse_args(args: &[&str]) -> Result<Options, String> {
        parse_options(args.iter().map(|a| (*a).to_owned()))
    }

    #[test]
    fn workload_lists_split_on_commas_and_reject_empty_items() {
        let opts = parse_args(&["--parent", "p", "--change", "c", "--workload", "a, b,c"]).unwrap();
        assert_eq!(opts.workloads, ["a", "b", "c"]);
        for bad in ["", "a,,b", "a,", ",a", " , "] {
            assert!(
                parse_args(&["--parent", "p", "--change", "c", "--workload", bad]).is_err(),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn a_claim_needs_exactly_one_workload() {
        let args = ["--parent", "p", "--change", "c", "--claim", "ttft_p50_ms"];
        let with = |workload: &str| {
            let mut all = args.to_vec();
            all.extend(["--workload", workload]);
            parse_args(&all)
        };
        assert_eq!(with("a").unwrap().claim.as_deref(), Some("ttft_p50_ms"));
        assert!(with("a,b").is_err());
    }

    #[test]
    fn metric_specs_read_direction_and_bound() {
        let doc = serde_json::value_from_str(
            "{\"end_to_end\": [{\"name\": \"a\", \"unit\": \"ms\", \"better\": \"lower\", \
             \"bound\": 0.25}, {\"name\": \"b\", \"unit\": \"x\", \"better\": \"higher\", \
             \"bound\": 0.1}]}",
        )
        .unwrap();
        let specs = metric_specs(&doc).unwrap();
        assert_eq!(specs.len(), 2);
        assert!(!specs[0].higher_is_better && specs[0].bound == 0.25);
        assert!(specs[1].higher_is_better && specs[1].name == "b");
        let bad = serde_json::value_from_str(
            "{\"end_to_end\": [{\"name\": \"a\", \"better\": \"sideways\", \"bound\": 1}]}",
        )
        .unwrap();
        assert!(metric_specs(&bad).is_err());
    }
}
