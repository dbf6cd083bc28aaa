//! Batched decode throughput: tokens/sec and aggregate fidelity of
//! [`unicaim_kvcache::DecodeEngine`] runs across batch sizes and policies.
//!
//! Sweeps the batch size over a mixed needle/multi-hop/summary workload set
//! (sequences at varying context lengths, draining raggedly like a serving
//! batch) with a fixed *per-sequence* slot share, so the shared array
//! budget grows with the batch. Reports, per (policy, batch size):
//! generated tokens, end-to-end simulation time, a decode-only tokens/sec
//! estimate, and the batch-aggregate output cosine / salient recall / peak
//! shared-array occupancy.
//!
//! The end-to-end time includes the harness's per-sequence evaluation
//! scaffolding — the causal prefill attention matrix and the exact
//! full-attention reference, both `O(prefill²·dim)` — which at these
//! lengths costs more than the decode steps themselves. The decode-only
//! estimate subtracts a separately timed run of exactly that scaffolding,
//! so it approximates the steady-state cost of the score→select→attend→
//! observe→insert loop.
//!
//! The sweep runs the engine's default one-worker pool. Afterwards the
//! binary re-times the larger batch sizes under both [`SchedulerSpec`]s —
//! `Sequential` (one worker, on the calling thread) and a machine-sized
//! `WorkerPool` — timing only the pool's decode phase (sessions are
//! admitted untimed, since admission rebuilds the serial `O(prefill²)`
//! scaffolding) and reports the per-cell speedup (`--save [<path>]` pins
//! the comparison to
//! `results/scheduler_throughput.json`, recording the worker/core count it
//! was measured with).
//!
//! Run with: `cargo run --release -p unicaim-bench --bin batch_throughput`
//! (`--json <path>` additionally dumps the measuring host and the sweep
//! rows).

use std::time::Instant;

use serde::Serialize;
use unicaim_attention::workloads::{mixed_batch, DecodeWorkload};
use unicaim_bench::{banner, dump_json, json_output_path, HostProvenance};
use unicaim_kvcache::{
    prefill_attention_matrix, DecodeEngine, EngineConfig, PolicySpec, SchedulerSpec,
};

/// Per-sequence slot share (the per-sequence cache budget).
const SHARE: usize = 96;
/// Reserved decode slots of the hybrid policy's share.
const M: usize = 16;
/// Dynamic top-k width.
const K: usize = 32;
/// Base prompt length; the batch builder varies 1×/1.5×/2× around it.
const BASE_PREFILL: usize = 192;
/// Base decode length; the batch builder varies 1×/1.5× around it.
const DECODE_LEN: usize = 24;
/// Timed repetitions per (policy, batch size) cell; the reported times are
/// medians, which keeps the decode-only estimate stable against scheduler
/// noise in the `sim − scaffold` subtraction.
const REPS: usize = 7;

#[derive(Debug, Serialize)]
struct Row {
    policy: String,
    batch_size: usize,
    total_capacity: usize,
    tokens: usize,
    /// End-to-end `DecodeEngine::run_with` wall-clock, including the per-sequence
    /// reference/matrix scaffolding.
    sim_seconds: f64,
    /// Separately timed scaffolding cost (prefill attention matrix + exact
    /// full-attention reference for every sequence).
    scaffold_seconds: f64,
    /// `tokens / max(sim_seconds - scaffold_seconds, ε)`: steady-state
    /// decode throughput estimate.
    decode_tokens_per_sec: f64,
    output_cosine: f64,
    salient_recall: f64,
    peak_resident: usize,
}

/// The measured policy configurations, from the serializable registry.
fn policy_menu() -> Vec<PolicySpec> {
    vec![
        PolicySpec::hybrid_for_share(SHARE, M, K),
        PolicySpec::H2O { recent_budget: 16 },
        PolicySpec::StreamingLlm { n_sinks: 4 },
    ]
}

/// Times the evaluation scaffolding the engine rebuilds at admission:
/// the causal prefill attention matrix and the exact reference outputs.
fn scaffold_seconds(workloads: &[DecodeWorkload]) -> f64 {
    let start = Instant::now();
    for w in workloads {
        std::hint::black_box(prefill_attention_matrix(w));
        std::hint::black_box(w.full_attention_reference());
    }
    start.elapsed().as_secs_f64()
}

/// Median of a sample set (sorts a copy; NaN-free by construction).
fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s[s.len() / 2]
}

/// The `--json` dump: the measuring host plus the sweep rows.
#[derive(Debug, Serialize)]
struct ThroughputDump {
    host: HostProvenance,
    rows: Vec<Row>,
}

/// The saved scheduler comparison: the measuring host plus the
/// Sequential-vs-WorkerPool cells.
#[derive(Debug, Serialize)]
struct SchedulerDump {
    host: HostProvenance,
    rows: Vec<SchedulerRow>,
}

/// One (policy, batch size) cell of the Sequential-vs-WorkerPool scheduler
/// comparison.
#[derive(Debug, Serialize)]
struct SchedulerRow {
    policy: String,
    batch_size: usize,
    /// Worker threads the pool ran with (the machine's available
    /// parallelism — the speedup ceiling is `min(workers, batch_size)`).
    workers: usize,
    sequential_tokens_per_sec: f64,
    worker_pool_tokens_per_sec: f64,
    /// `worker_pool / sequential` decode-phase throughput ratio.
    speedup: f64,
}

/// Times the pool's decode phase for one scheduler choice,
/// returning median tokens/sec over [`REPS`] runs. Sessions are admitted
/// untimed each repetition: admission rebuilds the `O(prefill²·dim)`
/// evaluation scaffolding serially on the calling thread, which would
/// otherwise Amdahl-dominate the comparison exactly the way the
/// `scaffold_seconds` subtraction corrects the sequential sweep above.
fn scheduler_tokens_per_sec(
    workloads: &[DecodeWorkload],
    spec: &PolicySpec,
    scheduler: SchedulerSpec,
    batch_size: usize,
) -> f64 {
    let engine = DecodeEngine::new(EngineConfig::new(SHARE * batch_size, K));
    let pool = scheduler.build();
    let mut samples = Vec::with_capacity(REPS);
    let mut tokens = 0;
    for _ in 0..REPS {
        let mut sessions = engine
            .admit(workloads, &mut |_| spec.build())
            .expect("shipped policies uphold the harness contract");
        let start = Instant::now();
        pool.run(&mut sessions)
            .expect("shipped policies uphold the harness contract");
        samples.push(start.elapsed().as_secs_f64());
        tokens = engine.collect(sessions).total_steps;
    }
    tokens as f64 / median(&samples)
}

/// Runs the Sequential-vs-WorkerPool comparison at the larger batch sizes
/// (where there are sequences to fan out) and prints/returns the rows.
fn scheduler_comparison(host: &HostProvenance) -> Vec<SchedulerRow> {
    let workers = host.nproc;
    if workers == 1 {
        println!(
            "\nWARNING: only 1 worker thread available — the WorkerPool degenerates \
             to sequential execution, so every speedup below will read ~1.0x and \
             says nothing about the scheduler."
        );
    }
    host.warn_if_scalar();
    println!(
        "\nscheduler comparison (decode phase only, sessions admitted untimed; \
         {workers} worker threads available):"
    );
    println!(
        "{:<24} {:>6} {:>8} {:>14} {:>14} {:>9}",
        "policy", "batch", "workers", "seq-tok/s", "pool-tok/s", "speedup"
    );
    let mut rows = Vec::new();
    for spec in policy_menu() {
        for &batch_size in &[2usize, 8, 16] {
            let workloads = mixed_batch(batch_size, BASE_PREFILL, DECODE_LEN, 7);
            let sequential =
                scheduler_tokens_per_sec(&workloads, &spec, SchedulerSpec::Sequential, batch_size);
            let pooled = scheduler_tokens_per_sec(
                &workloads,
                &spec,
                SchedulerSpec::WorkerPool { workers: 0 },
                batch_size,
            );
            let speedup = pooled / sequential.max(1e-12);
            println!(
                "{:<24} {:>6} {:>8} {:>14.0} {:>14.0} {:>8.2}x",
                spec.name(),
                batch_size,
                workers,
                sequential,
                pooled,
                speedup
            );
            rows.push(SchedulerRow {
                policy: spec.name().to_owned(),
                batch_size,
                workers,
                sequential_tokens_per_sec: sequential,
                worker_pool_tokens_per_sec: pooled,
                speedup,
            });
        }
    }
    println!(
        "The WorkerPool fans whole sequences across threads, so its ceiling\n\
         is min(workers, batch size); on a single-core host the two\n\
         pools tie (the saved comparison records the worker count)."
    );
    rows
}

/// Parses `--save [<path>]`: records the scheduler comparison (default
/// `results/scheduler_throughput.json`).
fn save_path() -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == "--save")?;
    Some(
        args.get(i + 1)
            .filter(|a| !a.starts_with("--"))
            .cloned()
            .unwrap_or_else(|| "results/scheduler_throughput.json".to_owned()),
    )
}

fn main() {
    banner(
        "batch_throughput",
        "Batched decode throughput and aggregate fidelity",
    );
    let host = HostProvenance::capture();
    println!("kernel backend `{}`, nproc {}", host.backend, host.nproc);
    println!(
        "mixed needle/multi-hop/summary batch, base prompt {BASE_PREFILL} tokens, \
         {SHARE} shared slots per sequence, top-{K} selection\n"
    );
    println!(
        "{:<24} {:>6} {:>8} {:>9} {:>9} {:>12} {:>12} {:>9} {:>9}",
        "policy",
        "batch",
        "tokens",
        "sim[ms]",
        "scaf[ms]",
        "dec-tok/s",
        "out-cosine",
        "recall%",
        "peak-occ"
    );

    let mut rows = Vec::new();
    for spec in policy_menu() {
        let name = spec.name();
        for &batch_size in &[1usize, 2, 4, 8, 16] {
            let workloads = mixed_batch(batch_size, BASE_PREFILL, DECODE_LEN, 7);
            let engine = DecodeEngine::new(EngineConfig::new(SHARE * batch_size, K));
            let mut sims = Vec::with_capacity(REPS);
            let mut scaffolds = Vec::with_capacity(REPS);
            let mut decodes = Vec::with_capacity(REPS);
            let mut r = None;
            for _ in 0..REPS {
                let scaffold = scaffold_seconds(&workloads);
                let start = Instant::now();
                let res = engine
                    .run_with(&workloads, &mut |_| spec.build())
                    .expect("shipped policies uphold the harness contract");
                let sim = start.elapsed().as_secs_f64();
                sims.push(sim);
                scaffolds.push(scaffold);
                decodes.push((sim - scaffold).max(1e-12));
                r = Some(res);
            }
            let r = r.expect("at least one repetition");
            let sim = median(&sims);
            let scaffold = median(&scaffolds);
            let decode_tokens_per_sec = r.total_steps as f64 / median(&decodes);
            println!(
                "{:<24} {:>6} {:>8} {:>9.2} {:>9.2} {:>12.0} {:>12.3} {:>9.1} {:>9}",
                name,
                batch_size,
                r.total_steps,
                1e3 * sim,
                1e3 * scaffold,
                decode_tokens_per_sec,
                r.output_cosine,
                100.0 * r.salient_recall,
                r.peak_resident,
            );
            rows.push(Row {
                policy: name.to_owned(),
                batch_size,
                total_capacity: r.total_capacity,
                tokens: r.total_steps,
                sim_seconds: sim,
                scaffold_seconds: scaffold,
                decode_tokens_per_sec,
                output_cosine: r.output_cosine,
                salient_recall: r.salient_recall,
                peak_resident: r.peak_resident,
            });
        }
        println!();
    }

    println!(
        "The sweep above runs a one-worker pool, so\n\
         end-to-end time grows roughly linearly with batch size; dec-tok/s\n\
         isolates the per-step decode loop by subtracting the separately\n\
         timed O(prefill^2) evaluation scaffolding (reference + prefill\n\
         matrix) that the harness builds per sequence."
    );

    let scheduler_rows = scheduler_comparison(&host);
    if let Some(path) = save_path() {
        dump_json(
            std::path::Path::new(&path),
            &SchedulerDump {
                host: host.clone(),
                rows: scheduler_rows,
            },
        );
        println!("\nscheduler comparison saved to {path}");
    }

    if let Some(path) = json_output_path() {
        dump_json(&path, &ThroughputDump { host, rows });
    }
}
