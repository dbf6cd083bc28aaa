//! Workspace bring-up smoke test: every umbrella re-export is reachable and
//! the default configurations of each layer construct and validate.
//!
//! This is intentionally shallow — deep behavior lives in the per-crate
//! property tests and the root integration tests. What this file pins down
//! is the workspace wiring itself: `unicaim_repro::{fefet, analog,
//! attention, kvcache, core, accel}` resolve, and the cross-crate type flow
//! (device → array → engine → cost model) composes.

use unicaim_repro::{accel, analog, attention, core, fefet, kvcache};

#[test]
fn fefet_default_params_validate() {
    let params = fefet::FeFetParams::default();
    params
        .validate()
        .expect("paper-default FeFET parameters must be valid");
    let model = fefet::FeFetModel::new(params);
    let mut dev = fefet::FeFet::fresh();
    model.erase(&mut dev);
    assert!(
        dev.polarization().abs() <= 1.0,
        "polarization must stay physical after erase"
    );
}

#[test]
fn analog_primitives_construct() {
    let adc = analog::SarAdc::new(analog::SarAdcParams::default())
        .expect("default SAR-ADC parameters must be valid");
    assert!(adc.params().bits > 0, "default ADC must have a resolution");
    let race = analog::DischargeRace::ohmic(1.0, 10e-15, &[1e-6, 2e-6], 1.0);
    assert_eq!(race.order_by_crossing(0.5).len(), 2);
}

#[test]
fn attention_defaults_construct() {
    let workload = attention::workloads::needle_task(64, 8, 3);
    assert!(workload.total_tokens() > 0);
}

#[test]
fn kvcache_policies_construct_and_simulate() {
    let workload = attention::workloads::needle_task(96, 12, 11);
    let mut policy = kvcache::HybridStaticDynamic::new(40, 8);
    let result = kvcache::simulate_decode(&workload, &mut policy, &kvcache::SimConfig::new(48, 8))
        .expect("shipped policies uphold the harness contract");
    assert!(result.steps > 0, "simulation must run decode steps");
}

#[test]
fn core_array_default_config_constructs() {
    let array = core::UniCaimArray::new(core::ArrayConfig::default());
    assert!(array.rows() > 0, "default array must have rows");
}

#[test]
fn accel_designs_report_costs() {
    use accel::Accelerator as _;
    let workload = accel::AttentionWorkload::paper_default();
    let spec = accel::PruningSpec::uniform(0.25, 16);
    let uni = accel::UniCaimDesign::three_bit();
    let report = uni.evaluate(&workload, &spec);
    assert!(report.aedp() > 0.0, "UniCAIM AEDP must be positive");
}
