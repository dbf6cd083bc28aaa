//! Long-context decode scenario: run the paper's hybrid static-dynamic
//! pruning policy against the baselines on a multi-hop retrieval task and
//! compare retrieval quality and output fidelity.
//!
//! Policies are constructed from the serializable [`PolicySpec`] registry —
//! the same data-driven path a serving config would take — instead of
//! hand-wired constructors. The run fails unless the closing claim holds:
//! the hybrid policy's salient recall is 1.0, equal to the full cache's,
//! and StreamingLLM's and SnapKV's fall below it.
//!
//! Run with: `cargo run --release --example long_context_decode`

use std::collections::BTreeMap;

use unicaim_repro::attention::workloads::multi_hop_task;
use unicaim_repro::kvcache::{simulate_decode, PolicySpec, SimConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 512-token prompt with two facts planted in different regions; 48
    // decode steps; the final answer needs both facts (multi-hop).
    let workload = multi_hop_task(512, 48, 7);
    let capacity = 160; // ~28% of the full cache
    let m = 16;
    let k = 64;
    let full = workload.total_tokens();

    println!(
        "workload: {} prompt tokens, {} decode steps, cache capacity {capacity} ({}%)",
        512,
        48,
        100 * capacity / full
    );
    println!(
        "\n{:<24} {:>12} {:>12} {:>12} {:>12}",
        "policy", "retrieval%", "accuracy%", "out-cosine", "rel-error"
    );

    // (spec, cache capacity, prefill budget) per policy — the reference
    // policies run unpruned, SnapKV's cache conventionally grows during
    // decode.
    let menu: Vec<(PolicySpec, usize, usize)> = vec![
        (PolicySpec::Full, full, full),
        (
            PolicySpec::hybrid_for_share(capacity, m, k),
            capacity,
            capacity - m,
        ),
        (PolicySpec::H2O { recent_budget: 16 }, capacity, capacity),
        (
            PolicySpec::SnapKv { obs_window: 16 },
            capacity + 48,
            capacity,
        ),
        (PolicySpec::StreamingLlm { n_sinks: 4 }, capacity, capacity),
        (PolicySpec::OracleTopK, full, full),
    ];

    let mut recall = BTreeMap::new();
    for (spec, cap, budget) in &menu {
        let mut policy = spec.build();
        let r = simulate_decode(
            &workload,
            policy.as_mut(),
            &SimConfig::new(*cap, k).with_prefill_budget(*budget),
        )?;
        println!(
            "{:<24} {:>12.1} {:>12.1} {:>12.3} {:>12.3}",
            r.policy,
            100.0 * r.salient_recall,
            100.0 * r.retrieval_accuracy,
            r.output_cosine,
            r.output_rel_error
        );
        recall.insert(r.policy, r.salient_recall);
    }

    println!(
        "\nThe hybrid policy retrieves both facts at a fraction of the cache, while\n\
         StreamingLLM's fixed pattern misses mid-context facts and SnapKV's\n\
         observation window misses facts mentioned only early in the prompt."
    );
    let hybrid = recall["hybrid_static_dynamic"];
    assert_eq!(hybrid, 1.0, "the hybrid policy must retrieve both facts");
    assert_eq!(
        hybrid, recall["full"],
        "the hybrid policy must match the full cache"
    );
    for baseline in ["streaming_llm", "snapkv"] {
        assert!(
            recall[baseline] < hybrid,
            "{baseline} recall {} must fall below the hybrid's",
            recall[baseline]
        );
    }
    Ok(())
}
