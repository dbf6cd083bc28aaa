//! Wall-clock benchmark of the UniCAIM serving and decode stacks.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_mixed --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Generates the workload's inputs from `--seed`, runs the workload through
//! the library's public API for `--seconds`, checks the outputs, and prints
//! the metrics: end-to-end with `--trace 0`, per layer with `--trace 1`.
//! The last line of standard output is the JSON result; a human-readable
//! table goes to standard error. The exit code is non-zero when any
//! correctness or consistency check fails. See `perfbench/README.md` for
//! the workloads and the metric definitions.

mod affinity;
mod engine;
mod inputs;
mod probe;
mod serve;
mod stats;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use unicaim_attention::workloads::DecodeWorkload;
use unicaim_attention::{active_backend, Precision};
use unicaim_kvcache::{
    prefill_attention_matrix, DecodeEngine, HarnessError, PrefixRegistry, ServeCore,
};

use crate::engine::EngineRep;
use crate::inputs::{EngineInputs, Inputs, ServeInputs, POOL_WORKERS, WORKLOADS};
use crate::stats::{elementwise_min, mean, median, peak_rss_mb, percentile, Metrics, Schema};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Times the inputs are generated and the core or engine constructed;
/// `setup_s` is the median of the fastest quarter.
const SETUP_REPS: usize = 8;
/// Fewest timed repetitions of a workload, however short `--seconds` is.
const MIN_REPS: usize = 4;
/// Completed requests replayed solo per untraced serving run.
const SERVE_REPLAYS: usize = 8;
/// Sequences replayed solo per engine run.
const ENGINE_REPLAYS: usize = 2;
/// Prompts whose prefill helpers the traced run times.
const PREFILL_PROBES: usize = 8;
/// Allowed gap between a layer sum and the wall time it should explain.
const CONSISTENCY_TOLERANCE: f64 = 0.05;

const END_TO_END: Schema = &[
    ("decode_tokens_per_s", "tokens/s"),
    ("tick_p50_ms", "ms"),
    ("tick_p99_ms", "ms"),
    ("ttft_p50_ms", "ms"),
    ("ttft_p95_ms", "ms"),
    ("success_frac", "fraction"),
    ("output_cosine", "cosine"),
    ("retrieval_accuracy", "fraction"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

const PER_LAYER: Schema = &[
    ("serve.tick_admit_ms_p50", "ms"),
    ("serve.tick_decode_ms_p50", "ms"),
    ("serve.admissions", "count"),
    ("serve.preemptions", "count"),
    ("serve.re_prefills", "count"),
    ("serve.wasted_steps", "count"),
    ("serve.mean_occupancy_slots", "slots"),
    ("serve.ttft_p95_ticks", "ticks"),
    ("serve.overhead_frac", "fraction"),
    ("session.prefill_ms_p50", "ms"),
    ("prefill.matrix_ms_p50", "ms"),
    ("prefill.reference_ms_p50", "ms"),
    ("session.step_us_p50", "us"),
    ("session.step_us_p99", "us"),
    ("session.steps", "count"),
    ("prefix.hit_rate", "fraction"),
    ("prefix.collisions", "count"),
    ("prefix.evictions", "count"),
    ("prefix.bytes_saved", "bytes"),
    ("prefix.hit_prefill_ms_p50", "ms"),
    ("prefix.miss_prefill_ms_p50", "ms"),
    ("arena.pages_allocated", "count"),
    ("arena.pages_reused", "count"),
    ("arena.cow_copies", "count"),
    ("engine.admit_s", "s"),
    ("engine.decode_s", "s"),
    ("engine.pool_efficiency", "fraction"),
    ("kernels.scan_rows_per_step", "rows"),
    ("kernels.attend_rows_per_step", "rows"),
    ("kernels.scan_bytes_per_step", "bytes"),
    ("kernels.scan_ns_per_row", "ns"),
    ("kernels.attend_ns_per_row", "ns"),
    ("kernels.scan_gbps", "GB/s"),
    ("host.copy_gbps", "GB/s"),
    ("trace.overhead_frac", "fraction"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err(format!("--seconds {} is not a duration", args.seconds));
    }
    Ok(args)
}

/// What one benchmark invocation found.
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} kernel_backend={} nproc={nproc}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        active_backend().label(),
    );
    if nproc < POOL_WORKERS {
        eprintln!(
            "warning: nproc={nproc} < {POOL_WORKERS}: the pooled workloads' {POOL_WORKERS} \
             workers share one core, so their timings say nothing about parallel speed"
        );
    }

    let (inputs, setup_s) = setup(&args);
    let outcome = match (&inputs, args.trace) {
        (Inputs::Serve(s), false) => run_serve(&args, s, setup_s),
        (Inputs::Serve(s), true) => trace_serve(&args, s),
        (Inputs::Engine(e), false) => run_engine(&args, e, setup_s),
        (Inputs::Engine(e), true) => trace_engine(&args, e),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: the workload failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "{} metrics ({}):\n{}",
        if args.trace {
            "per-layer"
        } else {
            "end-to-end"
        },
        args.workload,
        outcome.metrics.table()
    );
    for e in &outcome.errors {
        eprintln!("check failed: {e}");
    }
    let correct = outcome.errors.is_empty();
    println!(
        "{}",
        outcome
            .metrics
            .result_json(correct, outcome.attempted, outcome.failed)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Generates the inputs and constructs the core or engine `SETUP_REPS`
/// times; returns the last inputs and the median set-up time of the
/// fastest quarter of rounds.
fn setup(args: &Args) -> (Inputs, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous round's inputs first: one copy lives at a time.
        drop(inputs.take());
        let t = Instant::now();
        let generated = inputs::generate(&args.workload, args.seed).expect("workload name checked");
        match &generated {
            Inputs::Serve(s) => {
                let mut core = ServeCore::new(s.config).expect("serving config is valid");
                if let Some(pages) = s.registry_pages {
                    let registry = PrefixRegistry::new(generated.dim(), pages)
                        .expect("registry shape is valid");
                    core = core.with_prefix_registry(registry);
                }
                std::hint::black_box(&core);
            }
            Inputs::Engine(e) => {
                e.spec
                    .validate_for(&inputs::engine_sequence_config(e, 0))
                    .expect("engine policy fits its share");
                std::hint::black_box(DecodeEngine::new(e.config));
            }
        }
        times.push(t.elapsed().as_secs_f64());
        inputs = Some(generated);
    }
    let fastest = fastest_quarter(times, |&t| t);
    (inputs.expect("SETUP_REPS > 0"), median(&fastest))
}

/// Runs repetitions `rep(0)`, `rep(1)`, … until `seconds` have passed and
/// at least `MIN_REPS` ran.
fn repeat<T>(
    seconds: f64,
    mut rep: impl FnMut(usize) -> Result<T, HarnessError>,
) -> Result<Vec<T>, HarnessError> {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_REPS || start.elapsed() < budget {
        out.push(rep(out.len())?);
    }
    Ok(out)
}

/// Keeps the fastest quarter (at least one) of `reps` by `wall`. Every
/// repetition does identical work, so their wall times differ only by what
/// other tenants of the host took from them, which only ever adds time and
/// comes in bursts of seconds to minutes: the fastest repetitions report
/// the code's own speed, and their medians hold steady from run to run.
fn fastest_quarter<T>(mut reps: Vec<T>, wall: impl Fn(&T) -> f64) -> Vec<T> {
    reps.sort_by(|a, b| wall(a).total_cmp(&wall(b)));
    reps.truncate((reps.len() / 4).max(1));
    reps
}

fn median_of<T>(reps: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&reps.iter().map(f).collect::<Vec<_>>())
}

/// Records the check failure when any replay differs; returns the count.
fn count_mismatches(matches: impl Iterator<Item = bool>, errors: &mut Vec<String>) -> u64 {
    let (mut total, mut differ) = (0, 0);
    for m in matches {
        total += 1;
        differ += u64::from(!m);
    }
    if differ > 0 {
        errors.push(format!("{differ} of {total} solo replays differ"));
    }
    differ
}

fn run_serve(args: &Args, inputs: &ServeInputs, setup_s: f64) -> Result<Outcome, HarnessError> {
    let reps = repeat(args.seconds, |i| serve::run(inputs, false, i))?;
    let peak_rss = peak_rss_mb();
    let ran = reps.len() as u64;
    let differing = reps.iter().filter(|r| r.report != reps[0].report).count() as u64;
    // Every repetition runs the same ticks (the same admissions, steps and
    // retirements), so each tick takes its fastest time across them.
    let ticks = elementwise_min(&reps, |r| r.tick_ms.clone());
    let busy = reps[0].busy_ticks(&ticks);
    let ttfts = reps[0].ttfts(&ticks);
    let first = &reps[0].report;
    let mut errors = serve::ledger_errors(first);
    if differing > 0 {
        errors.push(format!(
            "{differing} repetitions reported differently from the first"
        ));
    }
    let sample = serve::sample(first, SERVE_REPLAYS, args.seed);
    let replays = serve::replay(inputs, first, &sample)?;
    let mismatched = count_mismatches(replays.iter().map(|r| r.matches), &mut errors);
    let s = &first.summary;
    let submitted = s.submitted * ran;
    let failed = (s.rejected * ran + mismatched + differing * s.submitted).min(submitted);

    let mut m = Metrics::new(END_TO_END);
    m.put(
        "decode_tokens_per_s",
        s.tokens_completed as f64 / (ticks.iter().sum::<f64>() / 1e3),
    );
    m.put("tick_p50_ms", percentile(&busy, 50.0));
    m.put("tick_p99_ms", percentile(&busy, 99.0));
    m.put("ttft_p50_ms", percentile(&ttfts, 50.0));
    m.put("ttft_p95_ms", percentile(&ttfts, 95.0));
    m.put("success_frac", 1.0 - failed as f64 / submitted as f64);
    m.put("output_cosine", first.batch.output_cosine);
    m.put("retrieval_accuracy", first.batch.retrieval_accuracy);
    m.put("peak_rss_mb", peak_rss);
    m.put("setup_s", setup_s);
    Ok(Outcome {
        metrics: m,
        attempted: submitted,
        failed,
        errors,
    })
}

fn run_engine(args: &Args, inputs: &EngineInputs, setup_s: f64) -> Result<Outcome, HarnessError> {
    let reps = repeat(args.seconds, |i| engine::run(inputs, i))?;
    let peak_rss = peak_rss_mb();
    let ran = reps.len() as u64;
    let differing = reps.iter().filter(|r| r.result != reps[0].result).count() as u64;
    let mut errors = engine::ledger_errors(inputs, &reps[0]);
    // Each sequence runs to completion on one worker, so every decode step
    // is the same work in each repetition and takes its fastest time across
    // them; throughput and first tokens come from the batch laid out on the
    // fastest time of each unit of its work.
    let gaps = elementwise_min(&reps, EngineRep::gap_ms);
    let timeline = engine::timeline(&reps);
    let first = &reps[0].result;
    if differing > 0 {
        errors.push(format!(
            "{differing} repetitions returned a different batch result"
        ));
    }
    let sample = engine::sample(inputs, ENGINE_REPLAYS, args.seed);
    let replays = engine::replay(inputs, first, &sample)?;
    let mismatched = count_mismatches(replays.iter().map(|r| r.matches), &mut errors);
    let n = inputs.workloads.len() as u64;
    let attempted = n * ran;
    let failed = (mismatched + differing * n).min(attempted);

    let mut m = Metrics::new(END_TO_END);
    m.put(
        "decode_tokens_per_s",
        first.total_steps as f64 / timeline.wall_s,
    );
    m.put("tick_p50_ms", percentile(&gaps, 50.0));
    m.put("tick_p99_ms", percentile(&gaps, 99.0));
    m.put("ttft_p50_ms", percentile(&timeline.ttft_ms, 50.0));
    m.put("ttft_p95_ms", percentile(&timeline.ttft_ms, 95.0));
    m.put("success_frac", 1.0 - failed as f64 / attempted as f64);
    m.put("output_cosine", first.output_cosine);
    m.put("retrieval_accuracy", first.retrieval_accuracy);
    m.put("peak_rss_mb", peak_rss);
    m.put("setup_s", setup_s);
    Ok(Outcome {
        metrics: m,
        attempted,
        failed,
        errors,
    })
}

/// Alternates untraced and traced repetitions (`rep(traced, index)`) until
/// `seconds` have passed; returns every traced one and
/// `trace.overhead_frac`: the median wall of the fastest quarter of traced
/// repetitions over that of the untraced ones, minus one.
fn alternate<T>(
    args: &Args,
    mut rep: impl FnMut(bool, usize) -> Result<T, HarnessError>,
    wall: impl Fn(&T) -> f64 + Copy,
) -> Result<(Vec<T>, f64), HarnessError> {
    let pairs = repeat(args.seconds, |i| Ok((rep(false, i)?, rep(true, i)?)))?;
    let (plain, traced): (Vec<T>, Vec<T>) = pairs.into_iter().unzip();
    let kept_wall = |reps: Vec<&T>| median_of(&fastest_quarter(reps, |r| wall(r)), |r| wall(r));
    let overhead = kept_wall(traced.iter().collect()) / kept_wall(plain.iter().collect()) - 1.0;
    Ok((traced, overhead))
}

/// The per-layer metrics every workload has: the prefill helpers timed on
/// up to `PREFILL_PROBES` prompts, the resident shape the replayed steps
/// saw, and the kernel and host probes at that shape.
fn put_common<'a>(
    m: &mut Metrics,
    prompts: impl Iterator<Item = &'a DecodeWorkload>,
    capacity: usize,
    precision: Precision,
    stepped: &[&serve::Stepped],
    seed: u64,
) {
    let (mut matrix, mut reference) = (Vec::new(), Vec::new());
    let mut probe_prompt = None;
    for w in prompts.take(PREFILL_PROBES) {
        let t = Instant::now();
        std::hint::black_box(prefill_attention_matrix(w));
        matrix.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        std::hint::black_box(w.full_attention_reference());
        reference.push(t.elapsed().as_secs_f64() * 1e3);
        probe_prompt.get_or_insert(w);
    }
    m.put("prefill.matrix_ms_p50", median(&matrix));
    m.put("prefill.reference_ms_p50", median(&reference));

    let rows = |f: fn(&serve::Stepped) -> &[usize]| {
        mean(
            &stepped
                .iter()
                .flat_map(|s| f(s).iter().map(|&r| r as f64))
                .collect::<Vec<_>>(),
        )
    };
    let scan = rows(|s| &s.scan_rows);
    let attend = rows(|s| &s.attend_rows);
    let prompt = probe_prompt.expect("every workload has a prompt");
    let k = probe::kernels(
        prompt,
        capacity,
        precision,
        scan.round() as usize,
        attend.round() as usize,
        seed,
    );
    m.put("kernels.scan_rows_per_step", scan);
    m.put("kernels.attend_rows_per_step", attend);
    m.put(
        "kernels.scan_bytes_per_step",
        probe::scan_bytes(scan, prompt.dim, precision),
    );
    m.put("kernels.scan_ns_per_row", k.scan_ns_per_row);
    m.put("kernels.attend_ns_per_row", k.attend_ns_per_row);
    m.put("kernels.scan_gbps", k.scan_gbps);
    m.put("host.copy_gbps", probe::copy_gbps());
}

fn trace_serve(args: &Args, inputs: &ServeInputs) -> Result<Outcome, HarnessError> {
    let (mut reps, overhead) = alternate(
        args,
        |traced, i| serve::run(inputs, traced, i),
        |r| r.wall_s,
    )?;
    // The layer timings and the consistency check use each tick's and each
    // replayed call's fastest time across the traced repetitions.
    let replays = serve::fastest_replays(&mut reps);
    let tick_ms = elementwise_min(&reps, |r| r.tick_ms.clone());
    let first = &reps[0];
    let report = &first.report;
    let s = &report.summary;
    let mut errors = serve::ledger_errors(report);
    let mismatched = count_mismatches(replays.iter().map(|r| r.matches), &mut errors);

    // Session work the serving run must have done, from the solo replays:
    // each admission's prefill (again for every re-prefill), each step,
    // and the discarded steps at the mean step time. A tick's steps fan
    // over the pool, min(workers, running) at a time.
    let step_us: Vec<f64> = replays
        .iter()
        .flat_map(|r| r.stepped.step_us.iter().copied())
        .collect();
    let mut prefill_ms = 0.0;
    let mut step_ms = s.wasted_steps as f64 * mean(&step_us) / 1e3;
    for r in &replays {
        prefill_ms += r.prefill_ms * f64::from(1 + r.preemptions);
        step_ms += r.stepped.step_us.iter().sum::<f64>() / 1e3;
    }
    let workers = inputs::workers(inputs.config.scheduler);
    let (mut steps, mut lanes) = (0usize, 0.0);
    for &occupied in &first.occupancy {
        let running = occupied / inputs.config.session_slots;
        if running > 0 {
            steps += running;
            lanes += running as f64 / running.min(workers) as f64;
        }
    }
    let covered = prefill_ms + step_ms * if steps > 0 { lanes / steps as f64 } else { 1.0 };
    let tick_total: f64 = tick_ms.iter().sum();
    let overhead_frac = 1.0 - covered / tick_total;
    if overhead_frac < -CONSISTENCY_TOLERANCE {
        errors.push(format!(
            "session work {covered:.1} ms exceeds the summed tick wall {tick_total:.1} ms"
        ));
    }
    for r in &reps {
        let ticks = r.tick_ms.iter().sum::<f64>() / 1e3;
        if (r.wall_s - ticks).abs() > CONSISTENCY_TOLERANCE * r.wall_s {
            errors.push(format!(
                "ticks sum to {ticks:.3} s of a {:.3} s run",
                r.wall_s
            ));
        }
    }

    let tick_ms_p50 = |admitting: bool| {
        let ticks: Vec<f64> = tick_ms
            .iter()
            .zip(&first.admissions)
            .zip(&first.occupancy)
            .filter(|((_, &a), &occ)| if admitting { a > 0 } else { a == 0 && occ > 0 })
            .map(|((&ms, _), _)| ms)
            .collect();
        median(&ticks)
    };
    let prefill_p50 = |hit: Option<bool>| {
        let ms: Vec<f64> = replays
            .iter()
            .filter(|r| hit.is_none_or(|h| r.prefix_hit == h))
            .map(|r| r.prefill_ms)
            .collect();
        median(&ms)
    };
    let (prefix, arena) = first.registry.unwrap_or_default();
    let lookups = prefix.hits + prefix.misses;

    let mut m = Metrics::new(PER_LAYER);
    m.put("serve.tick_admit_ms_p50", tick_ms_p50(true));
    m.put("serve.tick_decode_ms_p50", tick_ms_p50(false));
    m.put("serve.admissions", s.admitted as f64);
    m.put("serve.preemptions", s.preemptions as f64);
    m.put("serve.re_prefills", s.re_prefills as f64);
    m.put("serve.wasted_steps", s.wasted_steps as f64);
    m.put("serve.mean_occupancy_slots", s.mean_occupancy_slots);
    m.put("serve.ttft_p95_ticks", s.p95_ttft_ticks);
    m.put("serve.overhead_frac", overhead_frac);
    m.put("session.prefill_ms_p50", prefill_p50(None));
    m.put("session.step_us_p50", percentile(&step_us, 50.0));
    m.put("session.step_us_p99", percentile(&step_us, 99.0));
    m.put("session.steps", s.steps_executed as f64);
    if lookups > 0 {
        m.put("prefix.hit_rate", prefix.hits as f64 / lookups as f64);
        m.put("prefix.hit_prefill_ms_p50", prefill_p50(Some(true)));
    }
    // Without a registry every admission is a cold prefill.
    m.put("prefix.miss_prefill_ms_p50", prefill_p50(Some(false)));
    m.put("prefix.collisions", prefix.collisions as f64);
    m.put("prefix.evictions", prefix.evictions as f64);
    m.put("prefix.bytes_saved", s.prefix_bytes_saved as f64);
    m.put("arena.pages_allocated", arena.allocated as f64);
    m.put("arena.pages_reused", arena.reused as f64);
    m.put("arena.cow_copies", arena.cow_copies as f64);
    let stepped: Vec<&serve::Stepped> = replays.iter().map(|r| &r.stepped).collect();
    put_common(
        &mut m,
        inputs.events.iter().map(|e| &e.workload),
        inputs.config.session_slots,
        inputs.config.precision,
        &stepped,
        args.seed,
    );
    m.put("trace.overhead_frac", overhead);
    Ok(Outcome {
        metrics: m,
        attempted: s.submitted,
        failed: s.rejected + mismatched,
        errors,
    })
}

fn trace_engine(args: &Args, inputs: &EngineInputs) -> Result<Outcome, HarnessError> {
    // The engine's stamps and phase timers are on in every run, so its
    // traced and untraced repetitions are the same code.
    let (reps, overhead) = alternate(args, |_, i| engine::run(inputs, i), |r| r.wall_s)?;
    let mut errors = engine::ledger_errors(inputs, &reps[0]);
    for r in &reps {
        let parts = r.admit_s + r.decode_s;
        if (r.wall_s - parts).abs() > CONSISTENCY_TOLERANCE * r.wall_s {
            errors.push(format!(
                "admit {:.3} s + decode {:.3} s do not account for the {:.3} s batch",
                r.admit_s, r.decode_s, r.wall_s
            ));
        }
    }
    // Step times of the pooled runs themselves, from the `observe` stamps:
    // each step's fastest time across the repetitions, as end to end.
    let step_us: Vec<f64> = elementwise_min(&reps, EngineRep::gap_ms)
        .iter()
        .map(|ms| ms * 1e3)
        .collect();
    // The phase split comes from the same timeline as end to end.
    let timeline = engine::timeline(&reps);
    let first = &reps[0];
    let sample = engine::sample(inputs, ENGINE_REPLAYS, args.seed);
    let replays = engine::replay(inputs, &first.result, &sample)?;
    let mismatched = count_mismatches(replays.iter().map(|r| r.matches), &mut errors);
    let workers = inputs::workers(inputs.config.scheduler) as f64;
    let prefill_p50 = median(&replays.iter().map(|r| r.prefill_ms).collect::<Vec<_>>());

    let mut m = Metrics::new(PER_LAYER);
    m.put("session.prefill_ms_p50", prefill_p50);
    m.put("session.step_us_p50", percentile(&step_us, 50.0));
    m.put("session.step_us_p99", percentile(&step_us, 99.0));
    m.put("session.steps", first.result.total_steps as f64);
    // Every admission is a cold prefill.
    m.put("prefix.miss_prefill_ms_p50", prefill_p50);
    m.put("engine.admit_s", timeline.admit_s);
    m.put("engine.decode_s", timeline.decode_s);
    m.put(
        "engine.pool_efficiency",
        timeline.busy_ms.iter().sum::<f64>() / 1e3 / (timeline.decode_s * workers),
    );
    let stepped: Vec<&serve::Stepped> = replays.iter().map(|r| &r.stepped).collect();
    put_common(
        &mut m,
        inputs.workloads.iter(),
        inputs::engine_sequence_config(inputs, 0).capacity,
        inputs.config.batch.precision,
        &stepped,
        args.seed,
    );
    m.put("trace.overhead_frac", overhead);
    Ok(Outcome {
        metrics: m,
        attempted: inputs.workloads.len() as u64,
        failed: mismatched,
        errors,
    })
}
