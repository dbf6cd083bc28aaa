//! Circuit characterization scenario: exercise the device and analog layers
//! directly — FeFET programming, cell truth tables, discharge races, and
//! ADC quantization — the way a circuit designer would sweep a testbench.
//! It asserts the trends it prints: V_TH falls as polarization rises, the
//! cell's sense current falls as the stored weight rises, the race finishes
//! strongest current first, ADC codes never decrease with the input, and
//! the sampled variation σ is within 3% of 54 mV.
//!
//! Run with: `cargo run --example circuit_characterization`

use unicaim_repro::analog::{DischargeRace, SarAdc};
use unicaim_repro::core::{CellDrive, KeyLevel, UniCaimCell};
use unicaim_repro::fefet::{id_vg_sweep, pv_loop, FeFet, FeFetModel, FeFetParams, VariationModel};

fn main() {
    let model = FeFetModel::new(FeFetParams::default());

    // 1) Multilevel programming: hit five VTH targets across the window.
    println!("-- multilevel V_TH programming --");
    let mut dev = FeFet::fresh();
    let mut vths = Vec::new();
    for target in [-1.0, -0.5, 0.0, 0.5, 1.0] {
        model.program_polarization(&mut dev, target);
        vths.push(model.vth(&dev));
        println!(
            "polarization {target:+.1} -> V_TH = {:.3} V",
            vths[vths.len() - 1]
        );
    }
    assert!(
        vths.windows(2).all(|w| w[1] < w[0]),
        "V_TH must fall as polarization rises: {vths:?}"
    );

    // 2) Hysteresis: nested minor loops.
    println!("\n-- P-V minor loops --");
    for amplitude in [3.0, 3.6, 4.5] {
        let l = pv_loop(&model, amplitude, 60);
        println!(
            "±{amplitude:.1} V loop: P ∈ [{:+.2}, {:+.2}]",
            l.p_min(),
            l.p_max()
        );
    }

    // 3) Transfer curves (Fig. 2c family).
    let curves = id_vg_sweep(&model, &[-1.0, 0.0, 1.0], 0.0, 1.6, 5);
    println!("\n-- I_D-V_G at three programmed states (µA at V_G = 1.6 V) --");
    for c in &curves {
        println!(
            "P = {:+.1} (V_TH {:.2} V): I_D = {:.2} µA",
            c.polarization,
            c.vth,
            c.points.last().unwrap().i_d * 1e6
        );
    }

    // 4) Cell truth table: current decreases with similarity.
    println!("\n-- UniCAIM cell: I_SL vs stored weight (query +1) --");
    let mut currents = Vec::new();
    for level in [
        KeyLevel::NegOne,
        KeyLevel::NegHalf,
        KeyLevel::Zero,
        KeyLevel::PosHalf,
        KeyLevel::PosOne,
    ] {
        let mut cell = UniCaimCell::new(&model, FeFet::fresh(), FeFet::fresh());
        cell.program(&model, level);
        currents.push(cell.sl_current(&model, CellDrive::Plus));
        println!(
            "w = {:+.1}: I_SL = {:.2} µA",
            level.weight(),
            currents[currents.len() - 1] * 1e6
        );
    }
    assert!(
        currents.windows(2).all(|w| w[1] < w[0]),
        "I_SL must fall as the stored weight rises: {currents:?}"
    );

    // 5) A 4-line discharge race (the CAM primitive).
    println!("\n-- discharge race (currents 1/2/4/8 µA) --");
    let race = DischargeRace::ohmic(1.0, 50e-15, &[1e-6, 2e-6, 4e-6, 8e-6], 0.1);
    for node in 0..4 {
        println!(
            "node {node}: crosses VDD/2 after {:.2} ns",
            race.crossing_time(node, 0.5).unwrap() * 1e9
        );
    }
    let order = race.order_by_crossing(0.5);
    println!("order (fastest first): {order:?}");
    assert_eq!(
        order,
        [3, 2, 1, 0],
        "the strongest current must cross first"
    );

    // 6) ADC quantization staircase.
    println!("\n-- 10-bit SAR ADC staircase (inputs in µA) --");
    let adc = SarAdc::paper_default();
    let mut codes = Vec::new();
    for i in 0..5 {
        let x = 20e-6 + 0.04e-6 * f64::from(i);
        codes.push(adc.quantize(x).code);
        println!("in {:.3} µA -> code {}", x * 1e6, codes[codes.len() - 1]);
    }
    assert!(
        codes.windows(2).all(|w| w[1] >= w[0]),
        "ADC codes must never decrease: {codes:?}"
    );

    // 7) Variation statistics (σ = 54 mV target).
    let variation = VariationModel::paper_default(1);
    let offsets = variation.offsets(10_000);
    let sd = {
        let m = offsets.iter().sum::<f64>() / offsets.len() as f64;
        (offsets.iter().map(|o| (o - m) * (o - m)).sum::<f64>() / offsets.len() as f64).sqrt()
    };
    println!(
        "\ndevice variation sample σ = {:.1} mV (target 54 mV)",
        sd * 1e3
    );
    assert!(
        (sd - 0.054).abs() <= 0.03 * 0.054,
        "sampled σ {sd} is not within 3% of 54 mV"
    );
}
