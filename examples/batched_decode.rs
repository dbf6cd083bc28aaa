//! Batched multi-sequence decode: eight concurrent sequences (a mix of
//! needle, multi-hop, and summary tasks at different context lengths)
//! time-share one UniCAIM-sized slot budget, each with its own KV state and
//! pruning-policy state — the serving-style counterpart of the
//! single-sequence `long_context_decode` example.
//!
//! Run with: `cargo run --release --example batched_decode`

use unicaim_repro::attention::workloads::mixed_batch;
use unicaim_repro::kvcache::{DecodeEngine, EngineConfig, PolicySpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let batch_size = 8;
    let share = 96; // per-sequence slot share of the shared array
    let m = 16; // reserved decode slots per sequence
    let k = 32; // dynamic top-k width

    let workloads = mixed_batch(batch_size, 192, 24, 11);
    let engine = DecodeEngine::new(EngineConfig::new(share * batch_size, k));
    let spec = PolicySpec::hybrid_for_share(share, m, k);
    let result = engine.run_with(&workloads, &mut |_| spec.build())?;

    println!(
        "batch of {batch_size} sequences sharing {} KV slots ({share} per sequence), \
         hybrid static-dynamic policy\n",
        result.total_capacity
    );
    println!(
        "{:<16} {:>8} {:>8} {:>8} {:>10} {:>12} {:>12}",
        "sequence", "prompt", "steps", "answers", "recall%", "accuracy%", "out-cosine"
    );
    for (w, r) in workloads.iter().zip(&result.per_sequence) {
        println!(
            "{:<16} {:>8} {:>8} {:>8} {:>10.1} {:>12.1} {:>12.3}",
            r.workload,
            w.prefill_keys.len(),
            r.steps,
            r.answer_steps,
            100.0 * r.salient_recall,
            100.0 * r.retrieval_accuracy,
            r.output_cosine,
        );
    }

    println!(
        "\naggregate: {} tokens generated, recall {:.1}% over {} answer steps, \
         output cosine {:.3}",
        result.total_steps,
        100.0 * result.salient_recall,
        result.total_answer_steps,
        result.output_cosine,
    );
    println!(
        "peak shared-array occupancy: {}/{} slots",
        result.peak_resident, result.total_capacity
    );
    println!(
        "\nThe shared budget is statically partitioned: each sequence owns a\n\
         fixed share of the array's rows and keeps its own eviction/selection\n\
         state, so one noisy sequence can neither evict another's needle nor\n\
         borrow another's free slots."
    );
    Ok(())
}
