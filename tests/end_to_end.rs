//! End-to-end integration: workload generation → software policy decode and
//! hardware-engine decode, with cross-layer invariants.

use unicaim_repro::attention::workloads::{multi_hop_task, needle_task};
use unicaim_repro::core::{ArrayConfig, EngineConfig, UniCaimEngine};
use unicaim_repro::kvcache::{simulate_decode, HybridStaticDynamic, SimConfig};

#[test]
fn software_pipeline_end_to_end() {
    let workload = needle_task(256, 32, 21);
    let (h, m, k) = (96, 16, 32);
    let mut policy = HybridStaticDynamic::new(h, k);
    let result = simulate_decode(
        &workload,
        &mut policy,
        &SimConfig::new(h + m, k).with_prefill_budget(h),
    )
    .expect("shipped policies uphold the harness contract");
    assert_eq!(result.steps, 32);
    assert!(
        result.mean_resident <= (h + m) as f64 + 1e-9,
        "capacity exceeded: {result:?}"
    );
    assert!(result.salient_recall > 0.9, "needle lost: {result:?}");
    assert!(
        result.output_cosine > 0.6,
        "output fidelity collapsed: {result:?}"
    );
    assert!(
        (result.mean_selected - k as f64).abs() < 1.0,
        "top-k width wrong: {result:?}"
    );
}

#[test]
fn hardware_pipeline_end_to_end() {
    let workload = needle_task(256, 32, 22);
    let (h, m, k) = (96, 16, 32);
    let mut engine = UniCaimEngine::new(
        ArrayConfig {
            dim: workload.dim,
            sigma_vth: 0.0,
            ..ArrayConfig::default()
        },
        EngineConfig { h, m, k },
    )
    .expect("valid engine");
    let result = engine.run(&workload).expect("engine run");

    // Quality through the full analog path.
    assert!(result.metrics.salient_recall > 0.9, "{:?}", result.metrics);
    assert!(result.metrics.output_cosine > 0.5, "{:?}", result.metrics);

    // Op accounting is exact.
    assert_eq!(result.stats.cam_searches, 32);
    assert_eq!(result.stats.adc_conversions, 32 * k as u64);
    // Prefill writes h rows; each decode step writes exactly one.
    assert_eq!(result.stats.row_writes, h as u64 + 32);
    // ADC dominates analog energy — the architectural premise.
    assert!(result.stats.e_adc > 0.5 * result.stats.total_energy());
}

#[test]
fn hardware_under_variation_still_retrieves() {
    let workload = needle_task(256, 32, 23);
    let mut engine = UniCaimEngine::new(
        ArrayConfig {
            dim: workload.dim,
            sigma_vth: 0.054,
            variation_seed: 5,
            ..ArrayConfig::default()
        },
        EngineConfig {
            h: 96,
            m: 16,
            k: 32,
        },
    )
    .expect("valid engine");
    let result = engine.run(&workload).expect("engine run");
    assert!(
        result.metrics.salient_recall > 0.8,
        "54 mV variation should not break retrieval: {:?}",
        result.metrics
    );
}

#[test]
fn hardware_matches_software_policy_quality() {
    let workload = multi_hop_task(384, 48, 24);
    let (h, m, k) = (144, 16, 64);

    let mut policy = HybridStaticDynamic::new(h, k);
    let sw = simulate_decode(
        &workload,
        &mut policy,
        &SimConfig::new(h + m, k).with_prefill_budget(h),
    )
    .expect("shipped policies uphold the harness contract");

    let mut engine = UniCaimEngine::new(
        ArrayConfig {
            dim: workload.dim,
            sigma_vth: 0.0,
            ..ArrayConfig::default()
        },
        EngineConfig { h, m, k },
    )
    .expect("valid engine");
    let hw = engine.run(&workload).expect("engine run");

    // The quantized analog path may lose a little fidelity but must track
    // the software policy's retrieval behaviour.
    assert!(
        (hw.metrics.salient_recall - sw.salient_recall).abs() < 0.21,
        "hardware {:.2} vs software {:.2}",
        hw.metrics.salient_recall,
        sw.salient_recall
    );
    assert!(hw.metrics.output_cosine > sw.output_cosine - 0.3);
}

#[test]
fn fixed_cache_size_is_respected_by_engine() {
    let workload = needle_task(128, 48, 25);
    let (h, m, k) = (48, 8, 16);
    let mut engine = UniCaimEngine::new(
        ArrayConfig {
            dim: workload.dim,
            sigma_vth: 0.0,
            ..ArrayConfig::default()
        },
        EngineConfig { h, m, k },
    )
    .expect("valid engine");
    engine.load_prefill(&workload).expect("prefill");
    assert_eq!(engine.resident_tokens().len(), h);
    for step in 0..48 {
        engine
            .decode_step(
                128 + step,
                &workload.decode_queries[step],
                &workload.decode_keys[step],
                &workload.decode_values[step],
            )
            .expect("step");
        assert!(
            engine.resident_tokens().len() <= h + m,
            "fixed H+M cache violated"
        );
    }
    // After more generations than reserved rows, the cache is exactly full.
    assert_eq!(engine.resident_tokens().len(), h + m);
}
