//! Determinism: every layer of the stack must be exactly reproducible from
//! its seeds — workloads, policies, the analog array, and the engine.

use unicaim_repro::attention::workloads::{needle_task, summary_task};
use unicaim_repro::core::{ArrayConfig, EngineConfig, UniCaimEngine};
use unicaim_repro::kvcache::{simulate_decode, HybridStaticDynamic, SimConfig, H2O};

#[test]
fn workloads_are_reproducible() {
    assert_eq!(needle_task(128, 16, 42), needle_task(128, 16, 42));
    assert_ne!(needle_task(128, 16, 42), needle_task(128, 16, 43));
    assert_eq!(summary_task(256, 32, 1), summary_task(256, 32, 1));
}

#[test]
fn software_simulation_is_reproducible() {
    let w = needle_task(192, 24, 9);
    let run = || {
        let mut p = HybridStaticDynamic::new(64, 24);
        simulate_decode(&w, &mut p, &SimConfig::new(72, 24).with_prefill_budget(64))
    };
    assert_eq!(run(), run());

    let run_h2o = || {
        let mut p = H2O::new(8);
        simulate_decode(&w, &mut p, &SimConfig::new(72, 24))
    };
    assert_eq!(run_h2o(), run_h2o());
}

#[test]
fn hardware_engine_is_reproducible() {
    let w = needle_task(128, 16, 10);
    let run = |seed: u64| {
        let mut engine = UniCaimEngine::new(
            ArrayConfig {
                dim: w.dim,
                sigma_vth: 0.054,
                variation_seed: seed,
                ..ArrayConfig::default()
            },
            EngineConfig { h: 48, m: 8, k: 16 },
        )
        .unwrap();
        engine.run(&w).unwrap()
    };
    let a = run(7);
    let b = run(7);
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(a.stats, b.stats);
    // A different variation seed gives different device offsets; analog
    // energies should differ even when decisions coincide.
    let c = run(8);
    assert!(
        a.stats.e_precharge != c.stats.e_precharge || a.metrics != c.metrics,
        "different variation seeds should be observable"
    );
}
