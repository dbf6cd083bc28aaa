//! The saved-baseline perf/behavior suite: named, deterministic micro/meso
//! benchmark cases of the decode hot path and the serving core.
//!
//! Cases come in two kinds ([`CaseKind`]):
//!
//! * **Timed** — wall-clock benchmarks with a fixed warm-up + sample
//!   schedule, reported as median ns/iter. Machine-dependent, so the
//!   gate's tolerance is wide and one-sided (only *slower* fails).
//! * **Metric** — deterministic figures (virtual-time serving latencies,
//!   counters) that are bit-identical on every machine, gated with a tight
//!   per-case tolerance in *both* directions — drift either way is a
//!   behavior change, not noise.
//!
//! Seven suites:
//!
//! * `kernels` — the flat-layout kernels and the CAM search underneath
//!   `UniCaimArray::cam_top_k`;
//! * `policies` — full software decode simulations per policy;
//! * `experiments` — the hardware engine loop, batched decode, and the
//!   heavier figure/table sweeps;
//! * `saturation` — tick-domain latency/throughput percentiles of the
//!   shared serving scenario ([`crate::serving`]);
//! * `prefix_reuse` — shared-prefix splice counters and the modeled
//!   prefill-work reduction of the paging scenario ([`crate::prefix`]);
//! * `simd_speedup` — scalar-vs-dispatched kernel throughput ratios plus
//!   the detected dispatch tier (ratio cases short-circuit to exactly 1.0
//!   on scalar-tier hosts; `bench_check` compares the suite only within
//!   one tier);
//! * `layer_budget` — the stacked-decode gate: each layer-budget
//!   allocator's retrieval, its margins over the uniform split, and its
//!   eviction and reallocation counters.
//!
//! `bench_check --save` records each case's figure (and its per-case
//! tolerance, when one is set) to `results/baselines/<suite>.json`; a
//! plain `bench_check` run re-measures and fails when a case leaves its
//! tolerance band. This suite is the workspace's one timing harness: its
//! case names are the baseline keys, and a unit test checks that the
//! registry, `results/baselines/` and the `.gitignore` whitelist agree.

use std::cell::OnceCell;
use std::rc::Rc;
use std::time::Instant;

use serde::{Deserialize, Serialize};
use unicaim_attention::kernels::{self, QuantRowView, RowView};
use unicaim_attention::workloads::{mixed_batch, needle_task};
use unicaim_attention::{KvStore, Matrix, Precision};
use unicaim_core::{
    ArrayConfig, CellPrecision, EngineConfig, KeyLevel, QueryLevel, QueryPrecision, UniCaimArray,
    UniCaimEngine,
};
use unicaim_kvcache::{
    prefill_attention_matrix, simulate_decode, DecodeEngine, PolicySpec, SchedulerSpec, SimConfig,
};

/// How a case produces its figure (see the module docs for the gating
/// semantics of each kind).
pub enum CaseKind {
    /// Wall-clock timed; the figure is median ns/iter.
    Timed {
        /// Iterations per timed sample (higher for cheaper routines).
        iters: u64,
        /// The routine under test.
        run: Box<dyn FnMut()>,
    },
    /// A deterministic figure computed directly (no timing involved).
    Metric {
        /// Produces the figure.
        eval: Box<dyn FnMut() -> f64>,
        /// The figure's unit, recorded into the baseline (`"ticks"`, …).
        unit: &'static str,
    },
}

/// One named benchmark case.
pub struct Case {
    /// Stable case name (the baseline key).
    pub name: &'static str,
    /// Per-case tolerance recorded into the baseline; `None` falls back to
    /// the gate's global `--tolerance`.
    pub tolerance: Option<f64>,
    /// How the figure is produced and gated.
    pub kind: CaseKind,
}

impl Case {
    fn new(name: &'static str, iters: u64, run: impl FnMut() + 'static) -> Self {
        Self {
            name,
            tolerance: None,
            kind: CaseKind::Timed {
                iters,
                run: Box::new(run),
            },
        }
    }

    fn metric(
        name: &'static str,
        tolerance: f64,
        unit: &'static str,
        eval: impl FnMut() -> f64 + 'static,
    ) -> Self {
        Self {
            name,
            tolerance: Some(tolerance),
            kind: CaseKind::Metric {
                eval: Box::new(eval),
                unit,
            },
        }
    }

    /// True for [`CaseKind::Metric`] cases, whose tolerance band is
    /// two-sided (deterministic figures drifting *either* way fail).
    #[must_use]
    pub fn is_metric(&self) -> bool {
        matches!(self.kind, CaseKind::Metric { .. })
    }
}

/// One measured figure with its unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// The figure (median ns/iter for timed cases, the metric value
    /// otherwise).
    pub value: f64,
    /// The figure's unit.
    pub unit: &'static str,
}

/// Samples per timed case; the reported figure is the median.
const SAMPLES: usize = 11;

/// Measures one case. Timed cases run one unrecorded warm-up sample, then
/// `SAMPLES` (11) timed samples of `iters` iterations each, reported as
/// the median ns/iter; metric cases just evaluate their figure.
pub fn measure(case: &mut Case) -> Measurement {
    match &mut case.kind {
        CaseKind::Timed { iters, run } => {
            let iters = *iters;
            for _ in 0..iters {
                run();
            }
            let mut samples = Vec::with_capacity(SAMPLES);
            for _ in 0..SAMPLES {
                let start = Instant::now();
                for _ in 0..iters {
                    run();
                }
                samples.push(start.elapsed().as_nanos() as f64 / iters as f64);
            }
            samples.sort_by(f64::total_cmp);
            Measurement {
                value: samples[samples.len() / 2],
                unit: "ns/iter",
            }
        }
        CaseKind::Metric { eval, unit } => Measurement {
            value: eval(),
            unit,
        },
    }
}

/// A saved baseline entry: one case's recorded figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaselineRow {
    /// Case name.
    pub name: String,
    /// The figure at record time.
    pub value: f64,
    /// The figure's unit (`"ns/iter"` for timed cases).
    pub unit: String,
    /// Per-case tolerance; `null`/`None` defers to the gate's global
    /// `--tolerance`.
    pub tolerance: Option<f64>,
}

/// One saved baseline file: the host that recorded it plus the rows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaselineFile {
    /// The host that recorded the rows (kernel tier + core count).
    pub host: crate::HostProvenance,
    /// The recorded figures.
    pub rows: Vec<BaselineRow>,
}

/// A suite builder function: produces one suite's cases.
pub type SuiteBuilder = fn() -> Vec<Case>;

/// The suite registry: every suite name paired with its builder, in run
/// order. Adding an entry here is the *whole* registration —
/// [`SUITE_NAMES`] (and with it `bench_check`'s `--suite` validation and
/// run-everything default) derives from this slice at compile time.
pub const SUITE_REGISTRY: [(&str, SuiteBuilder); 7] = [
    ("kernels", kernels_suite),
    ("policies", policies_suite),
    ("experiments", experiments_suite),
    ("saturation", saturation_suite),
    ("prefix_reuse", prefix_reuse_suite),
    ("simd_speedup", simd_speedup_suite),
    ("layer_budget", layer_budget_suite),
];

/// The suite names, in run order (derived from [`SUITE_REGISTRY`], so it
/// can never drift from the buildable suites).
pub const SUITE_NAMES: [&str; SUITE_REGISTRY.len()] = {
    let mut names = [""; SUITE_REGISTRY.len()];
    let mut i = 0;
    while i < SUITE_REGISTRY.len() {
        names[i] = SUITE_REGISTRY[i].0;
        i += 1;
    }
    names
};

/// Builds a suite by name.
///
/// # Panics
///
/// Panics on an unknown suite name (see [`SUITE_NAMES`]).
#[must_use]
pub fn suite(name: &str) -> Vec<Case> {
    for (registered, build) in SUITE_REGISTRY {
        if registered == name {
            return build();
        }
    }
    panic!("unknown suite `{name}` (expected one of {SUITE_NAMES:?})")
}

fn filled_array(rows: usize, dim: usize) -> UniCaimArray {
    let mut array = UniCaimArray::new(ArrayConfig {
        rows,
        dim,
        cell_precision: CellPrecision::ThreeBit,
        query_precision: QueryPrecision::OneBit,
        sigma_vth: 0.0,
        behavioral: true,
        ..ArrayConfig::default()
    });
    let levels = [
        KeyLevel::NegOne,
        KeyLevel::NegHalf,
        KeyLevel::Zero,
        KeyLevel::PosHalf,
        KeyLevel::PosOne,
    ];
    for row in 0..rows {
        let key: Vec<KeyLevel> = (0..dim).map(|d| levels[(row * 7 + d * 3) % 5]).collect();
        array.write_row(row, row, &key).unwrap();
    }
    array
}

fn kernels_suite() -> Vec<Case> {
    let dim = 128;
    let rows = 576;
    let k = 64;
    let keys = Matrix::random_normal(rows, dim, 1.0, 11);
    let values = Matrix::random_normal(rows, dim, 1.0, 12);
    let query = Matrix::random_normal(1, dim, 1.0, 13);
    let gathered: Vec<usize> = (0..k).map(|i| (i * 9) % rows).collect();
    let scores: Vec<f32> = keys.as_slice()[..rows].to_vec();

    let mut store = KvStore::new(96, 64);
    let sk = Matrix::random_normal(96, 64, 1.0, 14);
    let sv = Matrix::random_normal(96, 64, 1.0, 15);
    for t in 0..96 {
        store.append_parts(t * 3, sk.row(t), sv.row(t)).unwrap();
    }
    let sq = Matrix::random_normal(1, 64, 1.0, 16);

    let mut cam = filled_array(rows, dim);
    let cam_query: Vec<QueryLevel> = (0..dim)
        .map(|d| [QueryLevel::NegOne, QueryLevel::Zero, QueryLevel::PosOne][(d * 5) % 3])
        .collect();

    let prefill_workload = needle_task(192, 16, 7);

    vec![
        Case::new("dot_gather/576x128/k64", 200, {
            let keys = keys.clone();
            let query = query.clone();
            let gathered = gathered.clone();
            let mut out = vec![0.0f32; k];
            move || {
                kernels::dot_gather(
                    query.row(0),
                    RowView::contiguous(keys.as_slice(), dim),
                    &gathered,
                    0.088,
                    &mut out,
                );
                std::hint::black_box(&out);
            }
        }),
        Case::new("attend_gather/576x128/k64", 200, {
            let keys = keys.clone();
            let values = values.clone();
            let query = query.clone();
            let gathered = gathered.clone();
            let mut out = vec![0.0f32; dim];
            let mut weights = Vec::with_capacity(k);
            move || {
                kernels::attend_gather(
                    query.row(0),
                    RowView::contiguous(keys.as_slice(), dim),
                    RowView::contiguous(values.as_slice(), dim),
                    &gathered,
                    0.088,
                    &mut weights,
                    &mut out,
                );
                std::hint::black_box(&out);
            }
        }),
        Case::new("dot_gather_q/576x128/k64", 200, {
            let (qkeys, qscales) = kernels::quantize_arena_i8(keys.as_slice(), dim);
            let mut query_q = vec![0i8; dim];
            let query_scale = kernels::quantize_row_i8(query.row(0), &mut query_q);
            let gathered = gathered.clone();
            let mut out = vec![0.0f32; k];
            move || {
                kernels::dot_gather_q(
                    &query_q,
                    query_scale,
                    QuantRowView::contiguous(&qkeys, &qscales, dim),
                    &gathered,
                    0.088,
                    &mut out,
                );
                std::hint::black_box(&out);
            }
        }),
        Case::new("attend_gather_q/576x128/k64", 200, {
            let (qkeys, qscales) = kernels::quantize_arena_i8(keys.as_slice(), dim);
            let mut query_q = vec![0i8; dim];
            let query_scale = kernels::quantize_row_i8(query.row(0), &mut query_q);
            let gathered = gathered.clone();
            let mut out = vec![0.0f32; dim];
            let mut weights = Vec::with_capacity(k);
            move || {
                kernels::attend_gather_q(
                    &query_q,
                    query_scale,
                    QuantRowView::contiguous(&qkeys, &qscales, dim),
                    RowView::contiguous(values.as_slice(), dim),
                    &gathered,
                    0.088,
                    &mut weights,
                    &mut out,
                );
                std::hint::black_box(&out);
            }
        }),
        Case::new("partial_top_k/576/k64", 500, move || {
            std::hint::black_box(kernels::partial_top_k(&scores, k));
        }),
        Case::new("kvstore_score_scan/96x64", 500, move || {
            let backend = kernels::active_backend();
            let keys = store.keys_view();
            let mut acc = 0.0f32;
            for (_, slot) in store.iter_tokens() {
                acc += backend.dot(sq.row(0), keys.row(slot));
            }
            std::hint::black_box(acc);
        }),
        Case::new("cam_top_k/576/k64", 20, move || {
            std::hint::black_box(cam.cam_top_k(&cam_query, k).unwrap());
        }),
        Case::new("prefill_attention_matrix/192", 10, move || {
            std::hint::black_box(prefill_attention_matrix(&prefill_workload));
        }),
    ]
}

fn policies_suite() -> Vec<Case> {
    fn decode_case_at(
        name: &'static str,
        spec: PolicySpec,
        precision: Precision,
        capacity_of: impl Fn(usize) -> usize + 'static,
    ) -> Case {
        let workload = needle_task(256, 32, 5);
        Case::new(name, 10, move || {
            let mut policy = spec.build();
            let cap = capacity_of(workload.total_tokens());
            std::hint::black_box(
                simulate_decode(
                    &workload,
                    policy.as_mut(),
                    &SimConfig::new(cap, 32).with_precision(precision),
                )
                .expect("benchmark policies uphold the contract"),
            );
        })
    }
    fn decode_case(
        name: &'static str,
        spec: PolicySpec,
        capacity_of: impl Fn(usize) -> usize + 'static,
    ) -> Case {
        decode_case_at(name, spec, Precision::F32, capacity_of)
    }
    vec![
        decode_case(
            "simulate_decode/hybrid",
            PolicySpec::hybrid_for_share(96, 16, 32),
            |_| 96,
        ),
        decode_case_at(
            "simulate_decode/hybrid_int8",
            PolicySpec::hybrid_for_share(96, 16, 32),
            Precision::Int8,
            |_| 96,
        ),
        decode_case_at(
            "simulate_decode/hybrid_cell3",
            PolicySpec::hybrid_for_share(96, 16, 32),
            Precision::Cell3Bit,
            |_| 96,
        ),
        decode_case(
            "simulate_decode/h2o",
            PolicySpec::H2O { recent_budget: 16 },
            |_| 96,
        ),
        decode_case(
            "simulate_decode/streaming",
            PolicySpec::StreamingLlm { n_sinks: 4 },
            |_| 96,
        ),
        decode_case(
            "simulate_decode/oracle_topk",
            PolicySpec::OracleTopK,
            |total| total,
        ),
    ]
}

fn experiments_suite() -> Vec<Case> {
    let engine_workload = needle_task(256, 32, 5);
    let batch_workloads = mixed_batch(4, 192, 24, 7);
    vec![
        Case::new("unicaim_engine_run/256", 3, move || {
            let mut engine = UniCaimEngine::new(
                ArrayConfig {
                    dim: engine_workload.dim,
                    sigma_vth: 0.0,
                    ..ArrayConfig::default()
                },
                EngineConfig {
                    h: 80,
                    m: 16,
                    k: 32,
                },
            )
            .unwrap();
            std::hint::black_box(engine.run(&engine_workload).unwrap());
        }),
        // The name predates the engine call; it is the case's baseline key.
        Case::new("simulate_batch/4x192/hybrid", 3, move || {
            let engine = DecodeEngine::new(unicaim_kvcache::EngineConfig::new(96 * 4, 32));
            let spec = PolicySpec::hybrid_for_share(96, 16, 32);
            std::hint::black_box(
                engine
                    .run_with(&batch_workloads, &mut |_| spec.build())
                    .expect("benchmark policies uphold the contract"),
            );
        }),
        Case::new("decode_engine/worker_pool/4x192/hybrid", 3, {
            let workloads = mixed_batch(4, 192, 24, 7);
            move || {
                let engine = DecodeEngine::new(
                    unicaim_kvcache::EngineConfig::new(96 * 4, 32)
                        .with_scheduler(SchedulerSpec::WorkerPool { workers: 0 }),
                );
                std::hint::black_box(
                    engine
                        .run(&workloads, &PolicySpec::hybrid_for_share(96, 16, 32))
                        .expect("benchmark policies uphold the contract"),
                );
            }
        }),
        Case::new("table2_aedp", 5, move || {
            std::hint::black_box(unicaim_accel::aedp_table(&unicaim_accel::table2_workload()));
        }),
        Case::new("fig01_motivation", 10, move || {
            let config = unicaim_attention::llama::LlmConfig::llama2_7b();
            std::hint::black_box(unicaim_attention::llama::motivation_sweep(
                &config,
                &[1024, 4096, 16384, 65536],
            ));
        }),
    ]
}

/// The tick-domain serving suite: latency/throughput percentiles and
/// behavior counters of the CI-gated saturation scenario
/// ([`crate::serving`]). All cases share one scenario run (the report is
/// computed once, on first evaluation) and carry the tight
/// [`METRIC_TOLERANCE`](crate::serving::METRIC_TOLERANCE) band — the
/// figures are deterministic, so drift in either direction is a real
/// change in scheduling behavior.
fn saturation_suite() -> Vec<Case> {
    use unicaim_kvcache::MetricsSummary;

    let shared: Rc<OnceCell<MetricsSummary>> = Rc::new(OnceCell::new());
    let metric = move |name: &'static str, unit: &'static str, pick: fn(&MetricsSummary) -> f64| {
        let shared = Rc::clone(&shared);
        Case::metric(name, crate::serving::METRIC_TOLERANCE, unit, move || {
            pick(shared.get_or_init(|| {
                crate::serving::run_scenario(
                    crate::serving::GATE_MEAN_INTERARRIVAL,
                    crate::serving::GATE_REQUESTS,
                )
                .summary
            }))
        })
    };
    vec![
        metric("saturation/p50_ttft", "ticks", |s| s.p50_ttft_ticks),
        metric("saturation/p95_ttft", "ticks", |s| s.p95_ttft_ticks),
        metric("saturation/p95_latency", "ticks", |s| s.p95_latency_ticks),
        metric("saturation/p99_latency", "ticks", |s| s.p99_latency_ticks),
        metric("saturation/tokens_per_tick", "tokens/tick", |s| {
            s.tokens_per_tick
        }),
        metric("saturation/completed", "requests", |s| s.completed as f64),
        metric("saturation/rejected", "requests", |s| s.rejected as f64),
        metric("saturation/preemptions", "count", |s| s.preemptions as f64),
        metric("saturation/min_occupancy_between_arrivals", "slots", |s| {
            s.min_occupancy_between_arrivals as f64
        }),
    ]
}

/// The shared-prefix paging suite: splice counters and the modeled
/// prefill-work reduction of the CI-gated reuse scenario
/// ([`crate::prefix`]), all evaluated from one shared scenario run. Every
/// figure is a deterministic count or a ratio of deterministic flop
/// totals, so the cases carry the tight two-sided
/// [`METRIC_TOLERANCE`](crate::serving::METRIC_TOLERANCE) band — the
/// `work_reduction_8x` row is the PR's ≥ 50% acceptance criterion, pinned.
fn prefix_reuse_suite() -> Vec<Case> {
    use crate::prefix::PrefixReusePoint;

    let shared: Rc<OnceCell<PrefixReusePoint>> = Rc::new(OnceCell::new());
    let metric =
        move |name: &'static str, unit: &'static str, pick: fn(&PrefixReusePoint) -> f64| {
            let shared = Rc::clone(&shared);
            Case::metric(name, crate::serving::METRIC_TOLERANCE, unit, move || {
                pick(shared.get_or_init(|| {
                    crate::prefix::run_point(crate::prefix::GATE_SESSIONS, Precision::F32)
                }))
            })
        };
    vec![
        metric("prefix_reuse/work_reduction_8x", "fraction", |p| {
            p.work_reduction
        }),
        metric("prefix_reuse/prefix_hits_8x", "count", |p| {
            p.prefix_hits as f64
        }),
        metric("prefix_reuse/pages_shared_8x", "pages", |p| {
            p.pages_shared as f64
        }),
        metric("prefix_reuse/bytes_saved_8x", "bytes", |p| {
            p.bytes_saved as f64
        }),
        metric("prefix_reuse/cow_copies_8x", "pages", |p| {
            p.cow_copies as f64
        }),
    ]
}

/// Scalar-vs-dispatched kernel throughput ratios.
///
/// Each ratio case times the scalar tier and the *active* dispatch tier
/// of one kernel over the standard 576×128 arena and reports
/// `scalar_ns / dispatched_ns`. On a host where dispatch resolves to the
/// scalar tier (including under a `UNICAIM_KERNEL_BACKEND=scalar`
/// override) the two paths are the same code, so the figure is defined
/// as exactly 1.0 and no timing runs — trivially ≥ 1.0 on scalar-only
/// hosts, as the gate requires. The `backend_tier` case records the
/// active tier itself (1 = scalar, 3 = avx2, the codes the saved
/// baselines hold); `bench_check` additionally skips cross-tier
/// comparisons of this suite, and the ratio cases carry a wide band (8x,
/// two-sided) because each gates a ratio of two wall-clock medians.
fn simd_speedup_suite() -> Vec<Case> {
    use unicaim_attention::kernels::KernelBackend;

    /// Two-sided tolerance of the ratio cases.
    const RATIO_TOLERANCE: f64 = 8.0;

    /// Median ns of `iters` calls — the same warm-up + sample schedule
    /// as [`measure`]'s timed path, reused here because one *case*
    /// needs two timings.
    fn median_ns(iters: u64, mut run: impl FnMut()) -> f64 {
        for _ in 0..iters {
            run();
        }
        let mut samples = Vec::with_capacity(SAMPLES);
        for _ in 0..SAMPLES {
            let start = Instant::now();
            for _ in 0..iters {
                run();
            }
            samples.push(start.elapsed().as_nanos() as f64 / iters as f64);
        }
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    }

    let dim = 128;
    let rows = 576;
    let k = 64;
    let keys = Matrix::random_normal(rows, dim, 1.0, 11);
    let values = Matrix::random_normal(rows, dim, 1.0, 12);
    let query = Matrix::random_normal(1, dim, 1.0, 13);
    let gathered: Vec<usize> = (0..k).map(|i| (i * 9) % rows).collect();
    let backend = kernels::active_backend();

    vec![
        Case::metric(
            "simd_speedup/backend_tier",
            1.001,
            "tier",
            move || match backend {
                KernelBackend::Scalar => 1.0,
                KernelBackend::Avx2 => 3.0,
            },
        ),
        Case::metric(
            "simd_speedup/dot_gather/576x128/k64",
            RATIO_TOLERANCE,
            "x",
            {
                let keys = keys.clone();
                let query = query.clone();
                let gathered = gathered.clone();
                move || {
                    if backend == KernelBackend::Scalar {
                        return 1.0;
                    }
                    let mut out = vec![0.0f32; k];
                    let mut run = |tier: KernelBackend| {
                        median_ns(200, || {
                            tier.dot_gather(
                                query.row(0),
                                RowView::contiguous(keys.as_slice(), dim),
                                &gathered,
                                0.088,
                                &mut out,
                            );
                            std::hint::black_box(&out);
                        })
                    };
                    let scalar_ns = run(KernelBackend::Scalar);
                    let simd_ns = run(backend);
                    scalar_ns / simd_ns.max(1e-9)
                }
            },
        ),
        Case::metric(
            "simd_speedup/dot_gather_q/576x128/k64",
            RATIO_TOLERANCE,
            "x",
            {
                let (qkeys, qscales) = kernels::quantize_arena_i8(keys.as_slice(), dim);
                let mut query_q = vec![0i8; dim];
                let query_scale = kernels::quantize_row_i8(query.row(0), &mut query_q);
                let gathered = gathered.clone();
                move || {
                    if backend == KernelBackend::Scalar {
                        return 1.0;
                    }
                    let mut out = vec![0.0f32; k];
                    let mut run = |tier: KernelBackend| {
                        median_ns(200, || {
                            tier.dot_gather_q(
                                &query_q,
                                query_scale,
                                QuantRowView::contiguous(&qkeys, &qscales, dim),
                                &gathered,
                                0.088,
                                &mut out,
                            );
                            std::hint::black_box(&out);
                        })
                    };
                    let scalar_ns = run(KernelBackend::Scalar);
                    let simd_ns = run(backend);
                    scalar_ns / simd_ns.max(1e-9)
                }
            },
        ),
        Case::metric(
            "simd_speedup/attend_gather/576x128/k64",
            RATIO_TOLERANCE,
            "x",
            move || {
                if backend == KernelBackend::Scalar {
                    return 1.0;
                }
                let mut weights = Vec::with_capacity(k);
                let mut out = vec![0.0f32; dim];
                let mut run = |tier: KernelBackend| {
                    median_ns(200, || {
                        tier.attend_gather(
                            query.row(0),
                            RowView::contiguous(keys.as_slice(), dim),
                            RowView::contiguous(values.as_slice(), dim),
                            &gathered,
                            0.088,
                            &mut weights,
                            &mut out,
                        );
                        std::hint::black_box(&out);
                    })
                };
                let scalar_ns = run(KernelBackend::Scalar);
                let simd_ns = run(backend);
                scalar_ns / simd_ns.max(1e-9)
            },
        ),
    ]
}

/// The layer-budget allocation suite: fidelity and behavior figures of
/// the CI-gated [`crate::layer`] scenario point, one run per registered
/// allocator (shared across the suite's cases via a lazy cell).
///
/// The `*_margin` rows pin the PR's acceptance criterion — the
/// non-uniform splits' retrieval/F1 *advantage* over `uniform` at equal
/// total memory — so a regression that collapses the win fails even if
/// every absolute figure stays in band. Counter rows carry the tight
/// [`METRIC_TOLERANCE`](crate::serving::METRIC_TOLERANCE); fidelity means
/// carry a modestly wider two-sided band (they are pure simulation
/// outputs, bit-stable per kernel backend, but a future backend tier may
/// drift them by floats-association noise).
fn layer_budget_suite() -> Vec<Case> {
    use crate::layer::LayerBudgetPoint;
    use unicaim_kvcache::AllocatorSpec;

    /// Two-sided tolerance of the fidelity-mean cases.
    const FIDELITY_TOLERANCE: f64 = 1.05;

    struct GatePoints {
        uniform: LayerBudgetPoint,
        depth_decayed: LayerBudgetPoint,
        entropy_dynamic: LayerBudgetPoint,
    }

    let shared: Rc<OnceCell<GatePoints>> = Rc::new(OnceCell::new());
    let metric = move |name: &'static str,
                       tolerance: f64,
                       unit: &'static str,
                       pick: fn(&GatePoints) -> f64| {
        let shared = Rc::clone(&shared);
        Case::metric(name, tolerance, unit, move || {
            pick(shared.get_or_init(|| {
                let at = |spec: AllocatorSpec| {
                    crate::layer::run_point(
                        spec,
                        crate::layer::GATE_LAYERS,
                        crate::layer::GATE_GLOBAL_BUDGET,
                        Precision::F32,
                    )
                };
                GatePoints {
                    uniform: at(AllocatorSpec::Uniform),
                    depth_decayed: at(AllocatorSpec::DepthDecayed),
                    entropy_dynamic: at(AllocatorSpec::EntropyDynamic),
                }
            }))
        })
    };
    let tight = crate::serving::METRIC_TOLERANCE;
    vec![
        metric(
            "layer_budget/uniform_retrieval",
            FIDELITY_TOLERANCE,
            "fraction",
            |g| g.uniform.mean_retrieval_accuracy,
        ),
        metric(
            "layer_budget/depth_decayed_retrieval",
            FIDELITY_TOLERANCE,
            "fraction",
            |g| g.depth_decayed.mean_retrieval_accuracy,
        ),
        metric(
            "layer_budget/depth_decayed_retrieval_margin",
            FIDELITY_TOLERANCE,
            "fraction",
            |g| g.depth_decayed.mean_retrieval_accuracy - g.uniform.mean_retrieval_accuracy,
        ),
        metric(
            "layer_budget/depth_decayed_f1_margin",
            FIDELITY_TOLERANCE,
            "fraction",
            |g| g.depth_decayed.mean_salient_f1 - g.uniform.mean_salient_f1,
        ),
        metric(
            "layer_budget/entropy_dynamic_retrieval",
            FIDELITY_TOLERANCE,
            "fraction",
            |g| g.entropy_dynamic.mean_retrieval_accuracy,
        ),
        metric(
            "layer_budget/entropy_dynamic_reallocations",
            tight,
            "count",
            |g| g.entropy_dynamic.reallocations as f64,
        ),
        metric("layer_budget/uniform_evictions", tight, "count", |g| {
            g.uniform.total_evictions as f64
        }),
        metric(
            "layer_budget/depth_decayed_front_budget",
            tight,
            "slots",
            |g| g.depth_decayed.budgets[0] as f64,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_budget_cases_pin_the_non_uniform_win() {
        let mut cases = suite("layer_budget");
        let mut by_name = std::collections::BTreeMap::new();
        for case in &mut cases {
            assert!(case.is_metric());
            by_name.insert(case.name, measure(case).value);
        }
        // The acceptance margins must be solidly positive — the saved
        // baseline then keeps them there.
        assert!(by_name["layer_budget/depth_decayed_retrieval_margin"] > 0.02);
        assert!(by_name["layer_budget/depth_decayed_f1_margin"] > 0.02);
        assert!(by_name["layer_budget/entropy_dynamic_reallocations"] >= 1.0);
    }

    #[test]
    fn suite_names_derive_from_the_registry() {
        assert_eq!(SUITE_NAMES.len(), SUITE_REGISTRY.len());
        for (name, (registered, _)) in SUITE_NAMES.iter().zip(SUITE_REGISTRY.iter()) {
            assert_eq!(name, registered);
        }
        assert!(SUITE_NAMES.contains(&"layer_budget"));
    }

    #[test]
    fn registry_baselines_and_gitignore_whitelist_agree() {
        // A suite without a baseline has no drift gate; a baseline without
        // a suite is a stale recording.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut baselines: Vec<String> = std::fs::read_dir(root.join("results/baselines"))
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter_map(|name| Some(name.strip_suffix(".json")?.to_owned()))
            .collect();
        baselines.sort();
        let mut suites = SUITE_NAMES.map(String::from);
        suites.sort();
        assert_eq!(baselines, suites);

        // Every whitelisted results file exists, and every tracked one is
        // whitelisted (a pattern holds at most one `*`, which stops at `/`).
        let gitignore = std::fs::read_to_string(root.join(".gitignore")).unwrap();
        let whitelist: Vec<&str> = gitignore
            .lines()
            .filter_map(|l| l.trim().strip_prefix('!'))
            .filter(|p| p.starts_with("results/") && p.ends_with(".json"))
            .collect();
        for path in whitelist.iter().filter(|p| !p.contains('*')) {
            assert!(
                root.join(path).is_file(),
                "whitelisted {path} does not exist"
            );
        }
        let whitelisted = |path: &str| {
            whitelist.iter().any(|p| match p.split_once('*') {
                None => *p == path,
                Some((head, tail)) => path
                    .strip_prefix(head)
                    .and_then(|rest| rest.strip_suffix(tail))
                    .is_some_and(|mid| !mid.contains('/')),
            })
        };
        // Outside a git checkout (an exported tree) nothing is tracked.
        let tracked = std::process::Command::new("git")
            .arg("-C")
            .arg(&root)
            .args(["ls-files", "--", "results"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8(o.stdout).unwrap())
            .unwrap_or_default();
        for path in tracked.lines().filter(|p| p.ends_with(".json")) {
            assert!(
                whitelisted(path),
                "tracked {path} is not in the .gitignore whitelist"
            );
        }
    }

    #[test]
    fn simd_speedup_ratios_are_at_least_one_on_scalar_and_positive_everywhere() {
        use unicaim_attention::kernels::KernelBackend;
        let mut cases = suite("simd_speedup");
        for case in &mut cases {
            assert!(case.is_metric());
            let m = measure(case);
            assert!(m.value.is_finite() && m.value > 0.0, "{}: {m:?}", case.name);
            if kernels::active_backend() == KernelBackend::Scalar && m.unit == "x" {
                assert_eq!(
                    m.value, 1.0,
                    "{}: scalar tier must short-circuit",
                    case.name
                );
            }
        }
    }

    #[test]
    fn baseline_file_roundtrips_with_host_provenance() {
        let file = BaselineFile {
            host: crate::HostProvenance {
                backend: "avx2".into(),
                nproc: 8,
            },
            rows: vec![BaselineRow {
                name: "simd_speedup/backend_tier".into(),
                value: 3.0,
                unit: "tier".into(),
                tolerance: Some(1.001),
            }],
        };
        let text = serde_json::to_string_pretty(&file).unwrap();
        assert!(text.contains("\"backend\": \"avx2\""), "{text}");
        assert!(text.contains("\"nproc\": 8"), "{text}");
        let back: BaselineFile = serde_json::from_str(&text).unwrap();
        assert_eq!(back, file);
    }

    #[test]
    fn all_suites_build_and_have_unique_names() {
        let mut names = std::collections::BTreeSet::new();
        for suite_name in SUITE_NAMES {
            let cases = suite(suite_name);
            assert!(!cases.is_empty());
            for case in &cases {
                match &case.kind {
                    CaseKind::Timed { iters, .. } => assert!(*iters > 0),
                    CaseKind::Metric { unit, .. } => assert!(!unit.is_empty()),
                }
                assert!(names.insert(case.name), "duplicate case {}", case.name);
            }
        }
    }

    #[test]
    fn measure_returns_positive_nanoseconds() {
        let mut case = Case::new("noop_add", 100, || {
            std::hint::black_box(3u64 + 4);
        });
        assert!(!case.is_metric());
        let m = measure(&mut case);
        assert_eq!(m.unit, "ns/iter");
        assert!(m.value.is_finite() && m.value >= 0.0);
    }

    #[test]
    fn metric_cases_evaluate_without_timing() {
        let mut case = Case::metric("answer", 1.001, "units", || 42.0);
        assert!(case.is_metric());
        assert_eq!(case.tolerance, Some(1.001));
        assert_eq!(
            measure(&mut case),
            Measurement {
                value: 42.0,
                unit: "units"
            }
        );
    }

    #[test]
    fn saturation_cases_share_one_scenario_run_and_are_deterministic() {
        // Two full passes over the suite must agree exactly (fresh suite
        // instances, so the second pass re-runs the scenario).
        let run_all = || -> Vec<f64> {
            suite("saturation")
                .iter_mut()
                .map(|case| {
                    assert!(case.is_metric());
                    measure(case).value
                })
                .collect()
        };
        let a = run_all();
        let b = run_all();
        assert_eq!(a, b);
        assert!(a.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn prefix_reuse_cases_share_one_run_and_pin_the_acceptance_floor() {
        let mut cases = suite("prefix_reuse");
        let values: Vec<f64> = cases
            .iter_mut()
            .map(|case| {
                assert!(case.is_metric());
                measure(case).value
            })
            .collect();
        // First row is work_reduction_8x — the PR's ≥ 50% gate.
        assert!(values[0] >= 0.5, "work reduction {values:?}");
        assert!(values.iter().all(|v| v.is_finite() && *v >= 0.0));
    }

    #[test]
    #[should_panic(expected = "unknown suite")]
    fn unknown_suite_rejected() {
        let _ = suite("nope");
    }

    #[test]
    fn baseline_row_roundtrips_through_json() {
        let rows = vec![
            BaselineRow {
                name: "dot_gather/576x128/k64".into(),
                value: 1234.5,
                unit: "ns/iter".into(),
                tolerance: None,
            },
            BaselineRow {
                name: "saturation/p95_ttft".into(),
                value: 31.0,
                unit: "ticks".into(),
                tolerance: Some(1.001),
            },
        ];
        let text = serde_json::to_string_pretty(&rows).unwrap();
        let back: Vec<BaselineRow> = serde_json::from_str(&text).unwrap();
        assert_eq!(back, rows);
    }
}
