//! Statistical policy-quality ordering across seeds — the Fig. 13 claim:
//! hybrid static-dynamic ≈ full cache ≥ SnapKV ≥/≫ StreamingLLM at matched
//! cache ratios.

use unicaim_repro::attention::workloads::{multi_hop_task, summary_task};
use unicaim_repro::kvcache::{
    ratio_capacity, simulate_decode, HybridStaticDynamic, Policy, SimConfig, SnapKv, StreamingLlm,
};

fn mean_recall(
    make: impl Fn(u64) -> unicaim_repro::attention::workloads::DecodeWorkload,
    mk_policy: impl Fn(usize, usize, usize) -> Box<dyn Policy>,
    grow_for_decode: bool,
    ratio: f64,
    seeds: &[u64],
) -> f64 {
    let mut total = 0.0;
    for &seed in seeds {
        let w = make(seed);
        let capacity = ratio_capacity(&w, ratio);
        let m = (capacity / 8).clamp(4, w.decode_queries.len());
        let k = (capacity / 2).max(8);
        let mut policy = mk_policy(capacity, m, k);
        let (cap, budget) = if grow_for_decode {
            (capacity + w.decode_queries.len(), capacity)
        } else if policy.name() == "hybrid_static_dynamic" {
            (capacity, capacity - m)
        } else {
            (capacity, capacity)
        };
        let r = simulate_decode(
            &w,
            policy.as_mut(),
            &SimConfig::new(cap, k).with_prefill_budget(budget),
        )
        .expect("shipped policies uphold the harness contract");
        total += r.salient_recall;
    }
    total / seeds.len() as f64
}

#[test]
fn hybrid_beats_snapkv_and_streaming_on_multihop() {
    let seeds = [1, 2, 3];
    let ratio = 0.2;
    let task = |seed| multi_hop_task(512, 48, seed);
    let hybrid = mean_recall(
        task,
        |c, m, k| Box::new(HybridStaticDynamic::new(c - m, k)),
        false,
        ratio,
        &seeds,
    );
    let snapkv = mean_recall(
        task,
        |_, _, _| Box::new(SnapKv::new(16)),
        true,
        ratio,
        &seeds,
    );
    let streaming = mean_recall(
        task,
        |_, _, _| Box::new(StreamingLlm::new(4)),
        false,
        ratio,
        &seeds,
    );
    assert!(
        hybrid > snapkv + 0.2,
        "hybrid {hybrid:.2} must clearly beat snapkv {snapkv:.2} at ratio {ratio}"
    );
    assert!(
        hybrid > streaming + 0.2,
        "hybrid {hybrid:.2} must clearly beat streaming {streaming:.2} at ratio {ratio}"
    );
}

#[test]
fn hybrid_approaches_full_cache_on_summary() {
    let seeds = [4, 5, 6];
    let task = |seed| summary_task(768, 64, seed);
    let hybrid = mean_recall(
        task,
        |c, m, k| Box::new(HybridStaticDynamic::new(c - m, k)),
        false,
        0.25,
        &seeds,
    );
    // Full cache by construction retrieves everything (recall 1.0).
    assert!(
        hybrid > 0.85,
        "hybrid at 25% cache must stay near the full-cache line, got {hybrid:.2}"
    );
}

#[test]
fn accuracy_degrades_gracefully_with_ratio() {
    let seeds = [7, 8];
    let task = |seed| summary_task(512, 48, seed);
    let mut last = f64::INFINITY;
    for ratio in [0.4, 0.2, 0.1] {
        let recall = mean_recall(
            task,
            |c, m, k| Box::new(HybridStaticDynamic::new(c - m, k)),
            false,
            ratio,
            &seeds,
        );
        assert!(
            recall <= last + 0.05,
            "recall should not improve as the cache shrinks ({recall:.2} after {last:.2})"
        );
        last = recall;
    }
    assert!(
        last > 0.3,
        "even a 10% cache should retrieve some salient tokens, got {last:.2}"
    );
}
