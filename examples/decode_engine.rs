//! Serving-API tour: the session-oriented `DecodeEngine` driving a batch
//! with one worker and with a machine-sized worker pool, plus one sequence
//! stepped incrementally through the `DecodeSession` lifecycle.
//!
//! Three stops:
//!
//! 1. build policies from the serializable [`PolicySpec`] registry (what a
//!    serving config file would deserialize into);
//! 2. run the same batch under `SchedulerSpec::Sequential` (one worker)
//!    and `SchedulerSpec::WorkerPool` and check the results are identical
//!    to the bit;
//! 3. admit a single sequence and drive it step by step, watching the
//!    per-step outcomes a serving loop would see.
//!
//! Run with: `cargo run --release --example decode_engine`

use std::time::Instant;

use unicaim_repro::attention::workloads::{mixed_batch, needle_task};
use unicaim_repro::kvcache::{
    DecodeEngine, DecodeSession, EngineConfig, PolicySpec, SchedulerSpec, SimConfig,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let batch_size = 8;
    let share = 96;
    let (m, k) = (16, 32);

    // 1. A policy from the registry: by name (defaults) or as data.
    let spec = PolicySpec::hybrid_for_share(share, m, k);
    println!(
        "policy from the registry: {} (also reachable as PolicySpec::from_name({:?}))\n",
        spec.name(),
        spec.name(),
    );

    // 2. One batch, two worker counts.
    let workloads = mixed_batch(batch_size, 192, 24, 11);
    let config = EngineConfig::new(share * batch_size, k);
    let mut results = Vec::new();
    for scheduler in [
        SchedulerSpec::Sequential,
        SchedulerSpec::WorkerPool { workers: 0 },
    ] {
        let engine = DecodeEngine::new(config.with_scheduler(scheduler));
        let start = Instant::now();
        let result = engine.run(&workloads, &spec)?;
        let secs = start.elapsed().as_secs_f64();
        println!(
            "{:<26} {:>5} sequences, {:>5} tokens, {:>8.1} ms end-to-end, \
             recall {:>5.1}%, peak occupancy {}/{}",
            format!("{:?}", engine.config().scheduler),
            result.n_sequences,
            result.total_steps,
            1e3 * secs,
            100.0 * result.salient_recall,
            result.peak_resident,
            result.total_capacity,
        );
        results.push(result);
    }
    assert_eq!(
        results[0], results[1],
        "worker counts must agree to the bit (sequences are independent)"
    );
    println!("both worker counts produced the identical BatchResult\n");

    // 3. One sequence, stepped incrementally.
    let workload = needle_task(192, 16, 3);
    let session_config = SimConfig::reserved_decode_slots(share, k, m);
    let mut session = DecodeSession::prefill(&workload, spec.build(), &session_config)?;
    println!(
        "incremental session: {} prompt tokens kept of {}, {} decode steps",
        session.resident(),
        workload.prefill_keys.len(),
        session.steps(),
    );
    while !session.is_done() {
        let outcome = session.step()?;
        if outcome.step % 4 == 0 {
            println!(
                "  step {:>2}: selected {:>2} tokens, {:>2} resident after insert, \
                 {} steps remaining",
                outcome.step, outcome.selected, outcome.resident, outcome.remaining,
            );
        }
    }
    let result = session.finish();
    println!(
        "retired: recall {:.1}% over {} answer steps, output cosine {:.3}",
        100.0 * result.salient_recall,
        result.answer_steps,
        result.output_cosine,
    );
    Ok(())
}
