//! Hardware-fidelity scenario: run the same needle-retrieval workload
//! through the software hybrid policy (exact arithmetic) and through the
//! full UniCAIM hardware engine (quantized keys, analog CAM race, ADC
//! readout, charge-domain eviction) and compare decisions and quality.
//! It asserts that every run retrieves every salient token, and that the
//! engine makes one CAM search and `k` ADC conversions per decode step.
//!
//! Run with: `cargo run --release --example hardware_vs_software`

use unicaim_repro::attention::workloads::needle_task;
use unicaim_repro::core::{ArrayConfig, EngineConfig, UniCaimEngine};
use unicaim_repro::kvcache::{simulate_decode, HybridStaticDynamic, SimConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = needle_task(384, 48, 3);
    let (h, m, k) = (144, 16, 48);

    // Software reference: the paper's algorithm in exact float arithmetic.
    let mut policy = HybridStaticDynamic::new(h, k);
    let sw = simulate_decode(
        &workload,
        &mut policy,
        &SimConfig::new(h + m, k).with_prefill_budget(h),
    )?;

    // Hardware engine: ideal devices (no variation) ...
    let mut engine_ideal = UniCaimEngine::new(
        ArrayConfig {
            dim: workload.dim,
            sigma_vth: 0.0,
            ..ArrayConfig::default()
        },
        EngineConfig { h, m, k },
    )?;
    let hw_ideal = engine_ideal.run(&workload)?;

    // ... and with the paper's 54 mV device-to-device variation.
    let mut engine_noisy = UniCaimEngine::new(
        ArrayConfig {
            dim: workload.dim,
            sigma_vth: 0.054,
            ..ArrayConfig::default()
        },
        EngineConfig { h, m, k },
    )?;
    let hw_noisy = engine_noisy.run(&workload)?;

    println!(
        "{:<34} {:>12} {:>12} {:>12}",
        "run", "retrieval%", "out-cosine", "rel-error"
    );
    for (name, r) in [
        ("software hybrid (exact)", &sw),
        ("hardware engine (ideal devices)", &hw_ideal.metrics),
        ("hardware engine (σ = 54 mV)", &hw_noisy.metrics),
    ] {
        println!(
            "{:<34} {:>12.1} {:>12.3} {:>12.3}",
            name,
            100.0 * r.salient_recall,
            r.output_cosine,
            r.output_rel_error
        );
        assert_eq!(r.salient_recall, 1.0, "{name} lost a salient token");
    }

    let stats = &hw_noisy.stats;
    assert_eq!(
        stats.cam_searches, stats.decode_steps,
        "one CAM search per step"
    );
    assert_eq!(
        stats.adc_conversions,
        stats.decode_steps * k as u64,
        "one ADC conversion per selected row per step"
    );
    println!("\nhardware op counts over {} steps:", stats.decode_steps);
    println!("  CAM searches:      {}", stats.cam_searches);
    println!("  SL precharges:     {}", stats.sl_precharges);
    println!(
        "  ADC conversions:   {} ({} rounds on 64 ADCs)",
        stats.adc_conversions, stats.adc_rounds
    );
    println!("  charge shares:     {}", stats.charge_shares);
    println!("  row writes:        {}", stats.row_writes);
    println!(
        "  analog energy:     {:.3} nJ ({:.1}% in the ADCs)",
        stats.total_energy() * 1e9,
        100.0 * stats.e_adc / stats.total_energy()
    );
    println!(
        "  analog time:       {:.1} ns/step",
        stats.total_time() * 1e9 / stats.decode_steps as f64
    );
    Ok(())
}
