//! Fig. 13(a,b): application-level accuracy of KV-cache pruning policies vs
//! cache ratio on HotpotQA-like and NarrativeQA-like retrieval tasks —
//! now per key-arena precision (`f32` / `int8` / `cell3`), the software
//! ablation the paper's reduced-precision cells imply.
//!
//! Substitution: instead of LongBench answer F1 through a
//! 7B LLM, we score ground-truth salient-token retrieval on synthetic
//! long-context tasks whose attention structure reproduces the published
//! failure modes. The reported "retrieval score" is 100 × the mean recall
//! of answer-critical tokens among the tokens each policy selects, and the
//! output-fidelity column is the cosine similarity of the pruned attention
//! output against full attention. Every policy runs three times per cell:
//! scoring against the `f32` key arena, the per-row-scaled `i8` arena, and
//! the 3-bit multilevel-cell snap — values and the exact reference stay
//! `f32`, so the per-precision columns isolate key-storage precision
//! exactly like the hardware AEDP ablation does.

use serde::Serialize;
use unicaim_attention::workloads::{multi_hop_task, summary_task, DecodeWorkload};
use unicaim_bench::layer::{run_point, GATE_LAYERS};
use unicaim_bench::{banner, dump_json, json_output_path};
use unicaim_kvcache::{
    ratio_capacity, simulate_decode, AllocatorSpec, PolicySpec, Precision, SimConfig,
};

/// One (task, ratio, policy) cell with per-precision metric columns, in
/// [`Precision::ALL`] order: `f32`, `int8`, `cell3`.
#[derive(Debug, Serialize)]
struct Row {
    task: String,
    ratio: f64,
    policy: String,
    retrieval_f32: f64,
    retrieval_int8: f64,
    retrieval_cell3: f64,
    salient_f1_f32: f64,
    salient_f1_int8: f64,
    salient_f1_cell3: f64,
    output_cosine_f32: f64,
    output_cosine_int8: f64,
    output_cosine_cell3: f64,
}

/// One (per-layer share, allocator) cell of the layer-budget companion
/// sweep: the same accuracy axes as the main figure, but varying how a
/// fixed global KV budget is split across a decode stack instead of how
/// each layer prunes within its share.
#[derive(Debug, Serialize)]
struct AllocatorRow {
    layers: usize,
    global_budget: usize,
    allocator: String,
    retrieval: f64,
    salient_f1: f64,
    output_cosine: f64,
    reallocations: u64,
    budgets: Vec<usize>,
}

/// Seed-accumulated metrics of one (policy, precision) cell.
#[derive(Debug, Clone, Copy, Default)]
struct Acc {
    recall: f64,
    f1: f64,
    cosine: f64,
    n: usize,
}

impl Acc {
    fn push(&mut self, r: &unicaim_kvcache::SimResult) {
        self.recall += r.salient_recall;
        self.f1 += r.salient_f1;
        self.cosine += r.output_cosine;
        self.n += 1;
    }

    fn mean(&self) -> (f64, f64, f64) {
        let n = self.n.max(1) as f64;
        (
            100.0 * self.recall / n,
            100.0 * self.f1 / n,
            self.cosine / n,
        )
    }
}

fn policies_for(capacity: usize, m: usize, k: usize) -> Vec<PolicySpec> {
    let hybrid = PolicySpec::HybridStaticDynamic {
        h: capacity.saturating_sub(m).max(1),
        m,
        k,
    };
    vec![
        PolicySpec::Full,
        hybrid,
        PolicySpec::SnapKv { obs_window: 16 },
        PolicySpec::StreamingLlm { n_sinks: 4 },
    ]
}

fn run_task(
    name: &str,
    make: impl Fn(u64) -> DecodeWorkload,
    ratios: &[f64],
    seeds: &[u64],
    rows: &mut Vec<Row>,
) {
    println!("\n-- {name} --");
    println!(
        "{:>6} {:>24} {:>7} {:>7} {:>7}   {:>7} {:>7} {:>7}",
        "ratio", "policy", "ret@f32", "ret@i8", "ret@c3", "cos@f32", "cos@i8", "cos@c3"
    );
    for &ratio in ratios {
        // Accumulate per (policy, precision) across seeds.
        let mut acc: Vec<(String, [Acc; 3])> = Vec::new();
        for &seed in seeds {
            let w = make(seed);
            let capacity = if ratio >= 1.0 {
                w.total_tokens()
            } else {
                ratio_capacity(&w, ratio)
            };
            let m = (capacity / 8).clamp(4, w.decode_queries.len());
            let k = (capacity / 2).max(8);
            for spec in policies_for(capacity, m, k) {
                // The full cache is the ratio-independent reference line;
                // SnapKV's cache conventionally grows during decode.
                let (cap, budget) = match spec.name() {
                    "full" => (w.total_tokens(), w.total_tokens()),
                    "snapkv" => (capacity + w.decode_queries.len(), capacity),
                    "hybrid_static_dynamic" => (capacity, capacity - m),
                    _ => (capacity, capacity),
                };
                for (pi, &precision) in Precision::ALL.iter().enumerate() {
                    let mut policy = spec.build();
                    let r = simulate_decode(
                        &w,
                        policy.as_mut(),
                        &SimConfig::new(cap, k)
                            .with_prefill_budget(budget)
                            .with_precision(precision),
                    )
                    .expect("figure policies uphold the contract");
                    match acc.iter_mut().find(|(n, ..)| n == &r.policy) {
                        Some((_, cells)) => cells[pi].push(&r),
                        None => {
                            let mut cells = [Acc::default(); 3];
                            cells[pi].push(&r);
                            acc.push((r.policy.clone(), cells));
                        }
                    }
                }
            }
        }
        for (policy, cells) in acc {
            let [(ret_f, f1_f, cos_f), (ret_i, f1_i, cos_i), (ret_c, f1_c, cos_c)] =
                [cells[0].mean(), cells[1].mean(), cells[2].mean()];
            println!(
                "{:>6} {:>24} {:>7.1} {:>7.1} {:>7.1}   {:>7.3} {:>7.3} {:>7.3}",
                format!("{:.0}%", ratio * 100.0),
                policy,
                ret_f,
                ret_i,
                ret_c,
                cos_f,
                cos_i,
                cos_c
            );
            rows.push(Row {
                task: name.to_owned(),
                ratio,
                policy,
                retrieval_f32: ret_f,
                retrieval_int8: ret_i,
                retrieval_cell3: ret_c,
                salient_f1_f32: f1_f,
                salient_f1_int8: f1_i,
                salient_f1_cell3: f1_c,
                output_cosine_f32: cos_f,
                output_cosine_int8: cos_i,
                output_cosine_cell3: cos_c,
            });
        }
    }
}

/// The layer-budget companion section: the within-layer policy is fixed
/// (the paper's hybrid scheme) and the axis is how one global budget is
/// split across a [`GATE_LAYERS`]-deep decode stack — the software analog
/// of giving attention-heavy front layers a larger CAM array.
fn run_allocator_sweep(rows: &mut Vec<AllocatorRow>) {
    println!("\n-- layer-budget allocators ({GATE_LAYERS}-layer stack, equal total memory) --");
    println!(
        "{:>6} {:>16} {:>7} {:>7} {:>7} {:>8}  final budgets",
        "global", "allocator", "retr", "f1", "cosine", "reallocs"
    );
    for share in [16usize, 20, 24, 32] {
        let global = GATE_LAYERS * share;
        for name in AllocatorSpec::NAMES {
            let spec = AllocatorSpec::from_name(name).expect("registry name");
            let point = run_point(spec, GATE_LAYERS, global, Precision::F32);
            println!(
                "{:>6} {:>16} {:>7.1} {:>7.1} {:>7.3} {:>8}  {:?}",
                global,
                point.allocator,
                100.0 * point.mean_retrieval_accuracy,
                100.0 * point.mean_salient_f1,
                point.mean_output_cosine,
                point.reallocations,
                point.budgets,
            );
            rows.push(AllocatorRow {
                layers: GATE_LAYERS,
                global_budget: global,
                allocator: point.allocator,
                retrieval: 100.0 * point.mean_retrieval_accuracy,
                salient_f1: 100.0 * point.mean_salient_f1,
                output_cosine: point.mean_output_cosine,
                reallocations: point.reallocations,
                budgets: point.budgets,
            });
        }
    }
}

/// JSON dump schema: the per-policy accuracy rows of the main figure plus
/// the layer-budget allocator companion rows.
#[derive(Debug, Serialize)]
struct Dump {
    policy_rows: Vec<Row>,
    allocator_rows: Vec<AllocatorRow>,
}

fn main() {
    banner(
        "Fig. 13",
        "accuracy vs KV-cache ratio, per key-arena precision (retrieval-score substitution)",
    );
    let ratios = [0.05, 0.1, 0.2, 0.4, 1.0];
    let seeds = [11, 23, 37];
    let mut rows = Vec::new();

    run_task(
        "HotpotQA-like (multi-hop)",
        |seed| multi_hop_task(768, 64, seed),
        &ratios,
        &seeds,
        &mut rows,
    );
    run_task(
        "NarrativeQA-like (summary)",
        |seed| summary_task(1024, 64, seed),
        &ratios,
        &seeds,
        &mut rows,
    );

    let mut allocator_rows = Vec::new();
    run_allocator_sweep(&mut allocator_rows);

    println!(
        "\nexpected shape (paper Fig. 13): hybrid(ours) ≈ full cache even at low ratios, \
         consistently above SnapKV and StreamingLLM; int8 columns track f32 closely while \
         the 3-bit cell snap pays a visible but bounded fidelity cost. In the allocator \
         section the entropy-driven split matches or beats uniform at every global \
         budget, while the fixed depth decay wins where the uniform share starves the \
         front layers but over-starves deep layers at the tightest budgets."
    );

    if let Some(path) = json_output_path() {
        dump_json(
            &path,
            &Dump {
                policy_rows: rows,
                allocator_rows,
            },
        );
    }
}
