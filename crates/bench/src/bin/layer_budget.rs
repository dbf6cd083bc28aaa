//! Layer-budget allocation sweep: drives K-layer decode stacks
//! ([`unicaim_kvcache::LayerStackSession`]) over the depth-profiled
//! [`layer_stack_tasks`](unicaim_attention::workloads::layer_stack_tasks)
//! workloads and compares every registered budget allocator — `uniform`,
//! `depth_decayed`, `entropy_dynamic` — at **equal total memory** across
//! stack depth, per-layer budget share, and key-arena precision.
//!
//! Every figure is a deterministic simulation output (fidelity means,
//! budget splits, eviction counters), so the table — and the `--json`
//! dump — is bit-identical on every machine; only the wall-clock column
//! varies. The 4-layer / 24-slots-per-layer f32 point is the one the
//! `layer_budget` baseline suite pins via `bench_check`, and this binary
//! enforces the PR's acceptance criterion on every run: at that point the
//! non-uniform allocators beat the uniform split on retrieval accuracy
//! and salient F1.
//!
//! Run with: `cargo run --release -p unicaim-bench --bin layer_budget
//! [-- --json results/layer_budget.json]`

use std::time::Instant;

use unicaim_bench::layer::{
    run_point, BUDGET_PER_LAYER_SWEEP, GATE_GLOBAL_BUDGET, GATE_LAYERS, LAYER_SWEEP,
};
use unicaim_bench::{banner, json_output_path, HostProvenance};
use unicaim_kvcache::{AllocatorSpec, Precision};

fn main() {
    banner(
        "layer_budget",
        "Layer-dependent KV budget allocation across decode stacks",
    );
    let host = HostProvenance::capture();
    host.warn_if_scalar();
    host.warn_if_single_core();
    println!(
        "Each point decodes a K-layer stack (front layers fact-heavy, deep\n\
         layers concentrated) under one global budget of K x share slots;\n\
         allocators differ only in how they split it.\n"
    );
    println!(
        "{:>16} {:>2} {:>6} {:>5} {:>6} {:>6} {:>6} {:>7} {:>7} {:>6} {:>8} {:>8}",
        "allocator",
        "K",
        "global",
        "prec",
        "retr",
        "f1",
        "cosine",
        "resid",
        "realloc",
        "evict",
        "budgets",
        "wall-ms"
    );

    let mut rows = Vec::new();
    for precision in [Precision::F32, Precision::Int8] {
        for layers in LAYER_SWEEP {
            for share in BUDGET_PER_LAYER_SWEEP {
                let global = layers * share;
                for name in AllocatorSpec::NAMES {
                    let spec = AllocatorSpec::from_name(name).expect("registry name");
                    let start = Instant::now();
                    let point = run_point(spec, layers, global, precision);
                    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
                    println!(
                        "{:>16} {:>2} {:>6} {:>5} {:>6.3} {:>6.3} {:>6.3} {:>7.1} {:>7} {:>6} {:>8} {wall_ms:>8.1}",
                        point.allocator,
                        point.layers,
                        point.global_budget,
                        point.precision,
                        point.mean_retrieval_accuracy,
                        point.mean_salient_f1,
                        point.mean_output_cosine,
                        point.total_mean_resident,
                        point.reallocations,
                        point.total_evictions,
                        format!("{:?}", point.budgets),
                    );
                    assert_eq!(
                        point.budgets.iter().sum::<usize>(),
                        global,
                        "allocator leaked budget: {point:?}"
                    );
                    rows.push(point);
                }
            }
        }
    }

    // The acceptance certificate of this PR, enforced on every run: at
    // the gated operating point (equal total memory), both non-uniform
    // allocators beat the uniform split on retrieval accuracy and F1.
    let at_gate = |allocator: &str| {
        rows.iter()
            .find(|p| {
                p.allocator == allocator
                    && p.layers == GATE_LAYERS
                    && p.global_budget == GATE_GLOBAL_BUDGET
                    && p.precision == "f32"
            })
            .expect("sweep covers the gated point")
    };
    let uniform = at_gate("uniform");
    for challenger in ["depth_decayed", "entropy_dynamic"] {
        let point = at_gate(challenger);
        assert!(
            point.mean_retrieval_accuracy > uniform.mean_retrieval_accuracy
                && point.mean_salient_f1 > uniform.mean_salient_f1,
            "{challenger} does not beat uniform at the gate point: \
             {point:?} vs {uniform:?}"
        );
        println!(
            "\ngated point ({GATE_LAYERS} layers, {GATE_GLOBAL_BUDGET} slots, f32): \
             {challenger} retrieval {:.3} / f1 {:.3} vs uniform {:.3} / {:.3}",
            point.mean_retrieval_accuracy,
            point.mean_salient_f1,
            uniform.mean_retrieval_accuracy,
            uniform.mean_salient_f1
        );
    }

    if let Some(path) = json_output_path() {
        unicaim_bench::dump_json(&path, &rows);
    }
}
