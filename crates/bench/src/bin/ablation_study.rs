//! Ablation study: which parts of UniCAIM buy what.
//!
//! * cost side — static-only / dynamic-only / hybrid pruning, 1-bit vs
//!   3-bit cells (AEDP decomposition);
//! * accuracy side — cell precision, query precision, top-k width, device
//!   variation, and read noise, all through the full hardware engine on a
//!   needle-retrieval task.

use serde::Serialize;
use unicaim_accel::{Accelerator, AttentionWorkload, PruningSpec, UniCaimDesign};
use unicaim_attention::workloads::needle_task;
use unicaim_bench::{banner, dump_json, eng, json_output_path};
use unicaim_core::{ArrayConfig, CellPrecision, EngineConfig, QueryPrecision, UniCaimEngine};

#[derive(Debug, Serialize)]
struct CostRow {
    variant: String,
    devices: f64,
    energy_per_step: f64,
    delay_per_step: f64,
    aedp: f64,
}

#[derive(Debug, Serialize)]
struct AccuracyRow {
    variant: String,
    retrieval: f64,
    output_cosine: f64,
}

fn cost_ablation(rows: &mut Vec<CostRow>) {
    println!("-- cost ablation (input 2048, output 128, keep 25%) --");
    let w = AttentionWorkload {
        input_len: 2048,
        output_len: 128,
        dim: 128,
        key_bits: 3,
    };
    let p = PruningSpec::uniform(0.25, 64);
    let variants: Vec<(&str, UniCaimDesign)> = vec![
        ("hybrid, 3-bit cell", UniCaimDesign::three_bit()),
        ("hybrid, 1-bit cell", UniCaimDesign::one_bit()),
        (
            "static only, 3-bit",
            UniCaimDesign::three_bit().with_dynamic(false),
        ),
        (
            "dynamic only, 3-bit",
            UniCaimDesign::three_bit().with_static(false),
        ),
        (
            "no pruning, 3-bit",
            UniCaimDesign::three_bit()
                .with_static(false)
                .with_dynamic(false),
        ),
    ];
    println!(
        "{:<24} {:>12} {:>10} {:>10} {:>12} {:>8}",
        "variant", "devices", "nJ/step", "ns/step", "AEDP", "vs best"
    );
    let reports: Vec<_> = variants
        .iter()
        .map(|(n, d)| (n, d.evaluate(&w, &p)))
        .collect();
    let best = reports
        .iter()
        .map(|(_, r)| r.aedp())
        .fold(f64::INFINITY, f64::min);
    for (name, r) in &reports {
        println!(
            "{:<24} {:>12} {:>10} {:>10} {:>12} {:>8}",
            name,
            eng(r.devices),
            eng(r.energy_per_step * 1e9),
            eng(r.delay_per_step * 1e9),
            eng(r.aedp()),
            format!("{:.1}x", r.aedp() / best)
        );
        rows.push(CostRow {
            variant: (**name).to_owned(),
            devices: r.devices,
            energy_per_step: r.energy_per_step,
            delay_per_step: r.delay_per_step,
            aedp: r.aedp(),
        });
    }
    println!("(static pruning buys area; dynamic pruning buys energy+delay; both multiply)");
}

fn engine_accuracy(
    cell: CellPrecision,
    query: QueryPrecision,
    k: usize,
    sigma: f64,
    noise: f64,
    seeds: &[u64],
) -> (f64, f64) {
    let mut recall = 0.0;
    let mut cosine = 0.0;
    for &seed in seeds {
        let w = needle_task(256, 32, seed);
        let mut engine = UniCaimEngine::new(
            ArrayConfig {
                dim: w.dim,
                cell_precision: cell,
                query_precision: query,
                sigma_vth: sigma,
                read_noise_rel: noise,
                variation_seed: seed,
                ..ArrayConfig::default()
            },
            EngineConfig { h: 96, m: 16, k },
        )
        .expect("engine");
        let r = engine.run(&w).expect("run");
        recall += r.metrics.salient_recall;
        cosine += r.metrics.output_cosine;
    }
    let n = seeds.len() as f64;
    (100.0 * recall / n, cosine / n)
}

fn accuracy_ablation(rows: &mut Vec<AccuracyRow>) {
    println!("\n-- accuracy ablation (needle task, engine end-to-end, 3 seeds) --");
    let seeds = [3, 5, 8];
    let cases: Vec<(String, CellPrecision, QueryPrecision, usize, f64, f64)> = vec![
        (
            "3-bit cell, 2-bit query (default)".into(),
            CellPrecision::ThreeBit,
            QueryPrecision::TwoBit,
            24,
            0.0,
            0.0,
        ),
        (
            "1-bit cell, 2-bit query".into(),
            CellPrecision::OneBit,
            QueryPrecision::TwoBit,
            24,
            0.0,
            0.0,
        ),
        (
            "3-bit cell, 1-bit query".into(),
            CellPrecision::ThreeBit,
            QueryPrecision::OneBit,
            24,
            0.0,
            0.0,
        ),
        (
            "k = 8".into(),
            CellPrecision::ThreeBit,
            QueryPrecision::TwoBit,
            8,
            0.0,
            0.0,
        ),
        (
            "k = 48".into(),
            CellPrecision::ThreeBit,
            QueryPrecision::TwoBit,
            48,
            0.0,
            0.0,
        ),
        (
            "σ_VTH = 54 mV".into(),
            CellPrecision::ThreeBit,
            QueryPrecision::TwoBit,
            24,
            0.054,
            0.0,
        ),
        (
            "σ_VTH = 108 mV".into(),
            CellPrecision::ThreeBit,
            QueryPrecision::TwoBit,
            24,
            0.108,
            0.0,
        ),
        (
            "read noise 2%".into(),
            CellPrecision::ThreeBit,
            QueryPrecision::TwoBit,
            24,
            0.0,
            0.02,
        ),
        (
            "σ 54 mV + noise 2%".into(),
            CellPrecision::ThreeBit,
            QueryPrecision::TwoBit,
            24,
            0.054,
            0.02,
        ),
    ];
    println!(
        "{:<36} {:>12} {:>12}",
        "variant", "retrieval%", "out-cosine"
    );
    for (name, cell, query, k, sigma, noise) in cases {
        let (retrieval, cosine) = engine_accuracy(cell, query, k, sigma, noise, &seeds);
        println!("{name:<36} {retrieval:>12.1} {cosine:>12.3}");
        rows.push(AccuracyRow {
            variant: name,
            retrieval,
            output_cosine: cosine,
        });
    }
    println!("(retrieval is robust to precision and realistic non-idealities; fidelity\n degrades gracefully — the paper's robustness claims)");
}

fn main() {
    banner(
        "Ablation",
        "UniCAIM design-choice ablations (cost and accuracy)",
    );
    let mut cost_rows = Vec::new();
    let mut acc_rows = Vec::new();
    cost_ablation(&mut cost_rows);
    accuracy_ablation(&mut acc_rows);
    if let Some(path) = json_output_path() {
        dump_json(&path, &(&cost_rows, &acc_rows));
    }
}
