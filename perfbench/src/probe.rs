//! Kernel and host probes for the traced run: the resident-scan and
//! attention kernels timed at a workload's mean resident shape, and the
//! host's memory-copy bandwidth as the ceiling to read them against.

use std::hint::black_box;
use std::time::Instant;

use unicaim_attention::kernels::{
    attend_gather, attend_gather_q, dot_gather, dot_gather_q, quantize_row_i8,
};
use unicaim_attention::workloads::DecodeWorkload;
use unicaim_attention::{KvStore, Precision};

use crate::stats::{median, SplitMix};

/// Median wall time of one `f()` call in ns, over 9 batches each long
/// enough (≥ 1 ms) to dwarf the clock read.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let mut iters = 1u32;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        if t.elapsed().as_secs_f64() >= 1e-3 || iters >= 1 << 24 {
            break;
        }
        iters *= 2;
    }
    let batches: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_secs_f64() * 1e9 / f64::from(iters)
        })
        .collect();
    median(&batches)
}

/// Kernel timings at one resident shape.
pub struct KernelProbe {
    pub scan_ns_per_row: f64,
    pub attend_ns_per_row: f64,
    /// Computed scan bytes over the timed scan.
    pub scan_gbps: f64,
}

/// Key bytes a scan of `rows` resident rows reads: `dim` f32 per row, or
/// `dim` i8 plus one f32 scale per row for quantized keys.
pub fn scan_bytes(rows: f64, dim: usize, precision: Precision) -> f64 {
    let per_row = if precision.is_quantized() {
        dim + 4
    } else {
        4 * dim
    };
    rows * per_row as f64
}

/// Times the scan (`dot_gather`/`dot_gather_q`) over `scan_rows` and the
/// fused attention (`attend_gather`/`attend_gather_q`) over `attend_rows`
/// rows of a `capacity`-slot store filled with `workload`'s prompt, the
/// gathered rows scattered over the store as a session's residents are.
pub fn kernels(
    workload: &DecodeWorkload,
    capacity: usize,
    precision: Precision,
    scan_rows: usize,
    attend_rows: usize,
    seed: u64,
) -> KernelProbe {
    let dim = workload.dim;
    let mut store = KvStore::with_precision(capacity, dim, precision);
    let prompt = workload.prefill_keys.len();
    for slot in 0..capacity {
        let src = slot % prompt;
        store
            .append_parts(
                slot,
                &workload.prefill_keys[src],
                &workload.prefill_values[src],
            )
            .expect("a fresh store has a free slot for every token");
    }
    let mut rng = SplitMix::new(seed ^ 0x0C0F_FEE0);
    let scan = rng.sample(capacity, scan_rows.clamp(1, capacity));
    let attend = rng.sample(capacity, attend_rows.clamp(1, capacity));
    let query = &workload.decode_queries[0];
    let scale = 1.0 / (dim as f32).sqrt();
    let mut scores = vec![0.0f32; scan.len()];
    let mut weights = Vec::with_capacity(capacity);
    let mut out = vec![0.0f32; dim];
    let (scan_ns, attend_ns) = match store.quant_keys_view() {
        Some(qkeys) => {
            let mut q = vec![0i8; dim];
            let qs = quantize_row_i8(query, &mut q);
            let scan_ns = ns_per_call(|| {
                dot_gather_q(&q, qs, qkeys, &scan, scale, &mut scores);
                black_box(&scores);
            });
            let values = store.values_view();
            let attend_ns = ns_per_call(|| {
                attend_gather_q(
                    &q,
                    qs,
                    qkeys,
                    values,
                    &attend,
                    scale,
                    &mut weights,
                    &mut out,
                );
                black_box(&out);
            });
            (scan_ns, attend_ns)
        }
        None => {
            let (keys, values) = (store.keys_view(), store.values_view());
            let scan_ns = ns_per_call(|| {
                dot_gather(query, keys, &scan, scale, &mut scores);
                black_box(&scores);
            });
            let attend_ns = ns_per_call(|| {
                attend_gather(query, keys, values, &attend, scale, &mut weights, &mut out);
                black_box(&out);
            });
            (scan_ns, attend_ns)
        }
    };
    let bytes = scan_bytes(scan.len() as f64, dim, precision);
    KernelProbe {
        scan_ns_per_row: scan_ns / scan.len() as f64,
        attend_ns_per_row: attend_ns / attend.len() as f64,
        scan_gbps: bytes / scan_ns,
    }
}

/// Host memory-copy bandwidth in GB/s (bytes copied per second), the
/// median of 9 copies of a 16 MiB buffer.
pub fn copy_gbps() -> f64 {
    const BYTES: usize = 16 << 20;
    let src = vec![1u8; BYTES];
    let mut dst = vec![0u8; BYTES];
    let times: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            dst.copy_from_slice(black_box(&src));
            black_box(&dst);
            t.elapsed().as_secs_f64()
        })
        .collect();
    BYTES as f64 / median(&times) / 1e9
}
