//! Accelerator comparison scenario: evaluate UniCAIM against the baseline
//! CIM accelerators on a custom workload and print a full cost breakdown —
//! the analysis a deployment study would run before choosing a design.
//! It asserts that the 3-bit UniCAIM design has the lowest AEDP.
//!
//! Run with: `cargo run --example aedp_comparison`

use unicaim_repro::accel::{
    Accelerator, AttentionWorkload, CimFormerDesign, ConventionalDynamicCim, NoPruningCim,
    PruningSpec, SprintDesign, TranCimDesign, UniCaimDesign,
};

fn main() {
    // An edge deployment: 2k-token prompts, 128 generated tokens, keep 25%.
    let workload = AttentionWorkload {
        input_len: 2048,
        output_len: 128,
        dim: 128,
        key_bits: 3,
    };
    let pruning = PruningSpec::uniform(0.25, 64);

    let designs: Vec<Box<dyn Accelerator>> = vec![
        Box::new(UniCaimDesign::three_bit()),
        Box::new(UniCaimDesign::one_bit()),
        Box::new(SprintDesign::default()),
        Box::new(TranCimDesign::default()),
        Box::new(CimFormerDesign::default()),
        Box::new(ConventionalDynamicCim::default()),
        Box::new(NoPruningCim::default()),
    ];

    println!(
        "workload: {} prompt + {} generated tokens, d = {}, keep 25%",
        workload.input_len, workload.output_len, workload.dim
    );
    println!(
        "\n{:<26} {:>12} {:>12} {:>12} {:>14} {:>10}",
        "design", "devices", "nJ/step", "ns/step", "AEDP", "vs best"
    );

    let reports: Vec<_> = designs
        .iter()
        .map(|d| d.evaluate(&workload, &pruning))
        .collect();
    let best = reports
        .iter()
        .map(|r| r.aedp())
        .fold(f64::INFINITY, f64::min);
    for r in &reports {
        println!(
            "{:<26} {:>12.3e} {:>12.3} {:>12.2} {:>14.3e} {:>10}",
            r.design,
            r.devices,
            r.energy_per_step * 1e9,
            r.delay_per_step * 1e9,
            r.aedp(),
            format!("{:.1}x", r.aedp() / best)
        );
    }

    let uni = &reports[0];
    assert_eq!(uni.aedp(), best, "{} must have the lowest AEDP", uni.design);
    println!("\nenergy breakdown of the winner (nJ/step):");
    println!(
        "  array {:.3} | adc {:.3} | topk {:.3} | write {:.4}",
        uni.breakdown.array * 1e9,
        uni.breakdown.adc * 1e9,
        uni.breakdown.topk * 1e9,
        uni.breakdown.write * 1e9
    );
}
