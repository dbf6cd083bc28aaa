//! Quantized decode: the same hybrid-pruned decode run at each key-arena
//! precision (`f32` / `int8` / `cell3`), reporting what the quantization
//! buys and what it costs.
//!
//! Three stops:
//!
//! 1. admit a sequence from the serializable [`PolicySpec`] registry via
//!    `DecodeSession::prefill_spec` — which now cross-checks the spec's
//!    `H + M` budget against the session's slot budget and rejects a
//!    mismatch up front;
//! 2. decode the same workload scoring keys at each [`Precision`]: `f32`
//!    (a scan reads 4 bytes/element), per-row-scaled `i8` (1 byte/element
//!    plus a scale per row, ~4× fewer key bytes per scan), and the 3-bit
//!    multilevel-cell snap ({−1, −0.5, 0, +0.5, +1} × row scale — the
//!    hardware's five signed levels);
//! 3. report the key bytes a full scan reads, decode tokens/sec (prefill
//!    scaffolding excluded), retrieval recall, and output fidelity per
//!    precision, and pin the run to `results/quantized_decode.json`.
//!
//! The scanned key bytes are not the store's size: a page keeps `f32`
//! keys and values next to the `i8` shadow at every precision.
//!
//! Run with: `cargo run --release --example quantized_decode`

use std::time::Instant;

use serde::Serialize;
use unicaim_repro::attention::workloads::needle_task;
use unicaim_repro::attention::{KvStore, Precision};
use unicaim_repro::kvcache::{DecodeSession, PolicySpec, SimConfig};

/// Timed repetitions per precision; the reported time is the median.
const REPS: usize = 5;

#[derive(Debug, Serialize)]
struct Row {
    precision: String,
    key_arena_bytes: usize,
    decode_tokens_per_sec: f64,
    salient_recall: f64,
    output_cosine: f64,
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (capacity, m, k) = (128, 16, 32);
    let workload = needle_task(384, 48, 7);
    let config = SimConfig::reserved_decode_slots(capacity, k, m);

    // 1. The spec ↔ config budget cross-check: a hybrid spec whose H + M
    //    does not match the session's slot budget is rejected before any
    //    work happens, instead of silently mis-pruning.
    let spec = PolicySpec::hybrid_for_share(capacity, m, k);
    let mismatched = PolicySpec::hybrid_for_share(capacity * 2, m, k);
    let rejection = DecodeSession::prefill_spec(&workload, &mismatched, &config)
        .err()
        .expect("a mismatched H + M budget must be rejected");
    println!("mismatched spec rejected up front: {rejection}\n");

    // 2 + 3. One decode per precision, timed over the decode loop only
    //    (admission rebuilds the serial O(prefill²) evaluation
    //    scaffolding, which would swamp the per-step movement).
    println!(
        "{:>6} {:>10} {:>12} {:>9} {:>11}",
        "prec", "scan bytes", "decode tok/s", "recall", "out-cosine"
    );
    let mut rows = Vec::new();
    let f32_bytes = KvStore::new(capacity, workload.dim).key_arena_bytes();
    for precision in Precision::ALL {
        let config = config.with_precision(precision);
        let mut times = Vec::with_capacity(REPS);
        let mut result = None;
        for _ in 0..REPS {
            let mut session = DecodeSession::prefill_spec(&workload, &spec, &config)?;
            let start = Instant::now();
            session.run_to_completion()?;
            times.push(start.elapsed().as_secs_f64());
            result = Some(session.finish());
        }
        let result = result.expect("at least one rep ran");
        let tokens_per_sec = result.steps as f64 / median(&mut times).max(1e-12);
        let bytes = KvStore::with_precision(capacity, workload.dim, precision).key_arena_bytes();
        println!(
            "{:>6} {:>10} {:>12.0} {:>8.1}% {:>11.4}",
            precision.label(),
            bytes,
            tokens_per_sec,
            100.0 * result.salient_recall,
            result.output_cosine
        );
        rows.push(Row {
            precision: precision.label().to_owned(),
            key_arena_bytes: bytes,
            decode_tokens_per_sec: tokens_per_sec,
            salient_recall: result.salient_recall,
            output_cosine: result.output_cosine,
        });
    }

    // The quantized scans must read ~4× fewer key bytes, the traffic cut
    // the layer exists for, without giving up the needle.
    for row in &rows[1..] {
        assert!(
            (row.key_arena_bytes as f64) < 0.3 * f32_bytes as f64,
            "quantized scan reads {} key bytes, must be ~4x below f32's {f32_bytes} B",
            row.key_arena_bytes
        );
        assert!(
            row.salient_recall > 0.8,
            "{}: quantized retrieval collapsed: {row:?}",
            row.precision
        );
        assert!(row.output_cosine.is_finite());
    }

    let path = "results/quantized_decode.json";
    std::fs::create_dir_all("results")?;
    std::fs::write(path, serde_json::to_string_pretty(&rows)?)?;
    println!(
        "\nkey bytes a scan reads at i8: 1 byte/element + one f32 scale per row (f32: 4 bytes/element)"
    );
    println!("saved {path}");
    Ok(())
}
