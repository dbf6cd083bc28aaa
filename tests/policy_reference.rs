//! The score-driven policies decide exactly like straightforward
//! map-based implementations of the same rules.
//!
//! The reference policies below keep their state the plain way: a
//! `BTreeMap` running-sum score table with `min_among`, a list of every
//! inserted token whose last entry is the protected one, a closure-driven
//! `partial_top_k_by` top-k over an index vector, and an H2O eviction that
//! copies and sorts the resident list. Each shipped policy and its
//! reference run through `DecodeSession` on the same inputs, at every key
//! precision, with caches small enough that most steps evict; every
//! selection, every eviction answer and the final `SimResult` must match.

use std::collections::BTreeMap;

use unicaim_repro::attention::kernels::partial_top_k_by;
use unicaim_repro::attention::workloads::{
    multi_hop_task, needle_task, summary_task, DecodeWorkload,
};
use unicaim_repro::attention::{Matrix, Precision};
use unicaim_repro::kvcache::{
    accumulated_prefill_scores, top_indices_by_score, DecodeSession, HybridStaticDynamic,
    OracleTopK, Policy, SimConfig, SimResult, StepDecision, H2O,
};

const PREFILL: usize = 64;
const DECODE: usize = 24;
const K: usize = 6;
/// Cache sizes: 3 slots puts every resident under H2O's 3-token recency
/// guard; 16 makes most steps evict past the prefill budget.
const CAPACITIES: [usize; 2] = [3, 16];
/// H2O recency budgets.
const RECENT: [usize; 3] = [0, 1, 3];

/// The map-based running-sum score table.
#[derive(Default)]
struct MapScores {
    scores: BTreeMap<usize, f64>,
}

impl MapScores {
    fn observe(&mut self, token: usize, value: f64) {
        *self.scores.entry(token).or_insert(0.0) += value;
    }

    fn min_among(&self, candidates: &[usize]) -> Option<usize> {
        candidates
            .iter()
            .map(|&t| (t, self.scores.get(&t).copied().unwrap_or(0.0)))
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
            .map(|(t, _)| t)
    }
}

/// Top-k through an index vector and a comparison closure, then a sort.
fn reference_top_k(scored: &[(usize, f32)], k: usize) -> StepDecision {
    let idx = partial_top_k_by(scored.len(), k, |a, b| {
        scored[b]
            .1
            .total_cmp(&scored[a].1)
            .then(scored[a].0.cmp(&scored[b].0))
    });
    let mut selected: Vec<usize> = idx.into_iter().map(|i| scored[i].0).collect();
    selected.sort_unstable();
    StepDecision { selected }
}

struct ReferenceHybrid {
    h: usize,
    k: usize,
    table: MapScores,
    /// Every inserted token, in insertion order.
    inserted: Vec<usize>,
}

impl Policy for ReferenceHybrid {
    fn name(&self) -> &'static str {
        "hybrid_static_dynamic"
    }

    fn prefill_keep(&mut self, attn: &Matrix, budget: usize) -> Vec<usize> {
        let acc = accumulated_prefill_scores(attn, None);
        let keep = top_indices_by_score(&acc, self.h.min(budget));
        for &t in &keep {
            self.table.scores.insert(t, acc[t]);
        }
        keep
    }

    fn select(&mut self, _step: usize, scored: &[(usize, f32)], k: usize) -> StepDecision {
        reference_top_k(scored, k.min(self.k.max(1)))
    }

    fn observe(&mut self, _step: usize, weights: &[(usize, f32)]) {
        for &(t, w) in weights {
            self.table.observe(t, f64::from(w));
        }
    }

    fn evict(&mut self, _step: usize, resident: &[usize]) -> Option<usize> {
        if resident.is_empty() {
            return None;
        }
        let protected = self.inserted.last();
        let candidates: Vec<usize> = resident
            .iter()
            .copied()
            .filter(|t| Some(t) != protected)
            .collect();
        let victim = if candidates.is_empty() {
            resident.to_vec()
        } else {
            candidates
        };
        let evicted = self.table.min_among(&victim);
        if let Some(t) = evicted {
            self.table.scores.remove(&t);
        }
        evicted
    }

    fn note_inserted(&mut self, token: usize) {
        self.table.scores.insert(token, 0.0);
        self.inserted.push(token);
    }
}

struct ReferenceH2O {
    recent_budget: usize,
    table: MapScores,
}

impl Policy for ReferenceH2O {
    fn name(&self) -> &'static str {
        "h2o"
    }

    fn prefill_keep(&mut self, attn: &Matrix, budget: usize) -> Vec<usize> {
        let seq = attn.rows();
        let acc = accumulated_prefill_scores(attn, None);
        let recent = self.recent_budget.min(budget).min(seq);
        let recent_set: Vec<usize> = (seq - recent..seq).collect();
        let mut masked = acc.clone();
        for &t in &recent_set {
            masked[t] = f64::NEG_INFINITY;
        }
        let mut keep = top_indices_by_score(&masked, budget - recent);
        keep.extend(recent_set);
        keep.sort_unstable();
        keep.dedup();
        for &t in &keep {
            self.table.scores.insert(t, acc[t]);
        }
        keep
    }

    fn select(&mut self, _step: usize, scored: &[(usize, f32)], _k: usize) -> StepDecision {
        StepDecision {
            selected: scored.iter().map(|&(t, _)| t).collect(),
        }
    }

    fn observe(&mut self, _step: usize, weights: &[(usize, f32)]) {
        for &(t, w) in weights {
            self.table.observe(t, f64::from(w));
        }
    }

    fn evict(&mut self, _step: usize, resident: &[usize]) -> Option<usize> {
        if resident.is_empty() {
            return None;
        }
        let mut sorted = resident.to_vec();
        sorted.sort_unstable();
        let cutoff = sorted.len().saturating_sub(self.recent_budget);
        let candidates = &sorted[..cutoff.max(1).min(sorted.len())];
        self.table.min_among(candidates)
    }
}

struct ReferenceOracle;

impl Policy for ReferenceOracle {
    fn name(&self) -> &'static str {
        "oracle_topk"
    }

    fn prefill_keep(&mut self, attn: &Matrix, budget: usize) -> Vec<usize> {
        (0..attn.rows().min(budget)).collect()
    }

    fn select(&mut self, _step: usize, scored: &[(usize, f32)], k: usize) -> StepDecision {
        reference_top_k(scored, k)
    }

    fn observe(&mut self, _step: usize, _weights: &[(usize, f32)]) {}

    fn evict(&mut self, _step: usize, resident: &[usize]) -> Option<usize> {
        resident.first().copied()
    }
}

/// One decision a policy handed the harness.
#[derive(Debug, Clone, PartialEq)]
enum Decision {
    Selected(Vec<usize>),
    Evicted(Option<usize>),
}

/// Passes every call through to `inner`, recording each decision.
struct Recorder<P> {
    inner: P,
    trace: Vec<Decision>,
}

impl<P: Policy> Policy for Recorder<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn prefill_keep(&mut self, attn: &Matrix, budget: usize) -> Vec<usize> {
        self.inner.prefill_keep(attn, budget)
    }

    fn select(&mut self, step: usize, scored: &[(usize, f32)], k: usize) -> StepDecision {
        let decision = self.inner.select(step, scored, k);
        self.trace
            .push(Decision::Selected(decision.selected.clone()));
        decision
    }

    fn observe(&mut self, step: usize, weights: &[(usize, f32)]) {
        self.inner.observe(step, weights);
    }

    fn evict(&mut self, step: usize, resident: &[usize]) -> Option<usize> {
        let victim = self.inner.evict(step, resident);
        self.trace.push(Decision::Evicted(victim));
        victim
    }

    fn note_inserted(&mut self, token: usize) {
        self.inner.note_inserted(token);
    }
}

fn run(
    workload: &DecodeWorkload,
    policy: impl Policy,
    cfg: &SimConfig,
) -> (SimResult, Vec<Decision>) {
    let mut recorder = Recorder {
        inner: policy,
        trace: Vec::new(),
    };
    let mut session = DecodeSession::prefill_borrowed(workload, &mut recorder, cfg)
        .expect("prefill upholds the contract");
    session
        .run_to_completion()
        .expect("decode upholds the contract");
    let result = session.finish();
    (result, recorder.trace)
}

/// The three task workloads, plus a needle variant whose keys come in
/// identical pairs (tokens `2j` and `2j + 1`), so equal scores meet at the
/// top-k threshold and in the eviction minimum at every precision.
fn workloads() -> Vec<DecodeWorkload> {
    let mut paired = needle_task(PREFILL, DECODE, 5);
    paired.name = "needle_paired".into();
    for keys in [&mut paired.prefill_keys, &mut paired.decode_keys] {
        for i in (1..keys.len()).step_by(2) {
            keys[i] = keys[i - 1].clone();
        }
    }
    vec![
        needle_task(PREFILL, DECODE, 1),
        multi_hop_task(PREFILL, DECODE, 2),
        summary_task(PREFILL, DECODE, 3),
        paired,
    ]
}

/// Runs both policies and asserts identical traces and results; returns
/// how many steps evicted.
fn assert_same(
    label: &str,
    workload: &DecodeWorkload,
    cfg: &SimConfig,
    shipped: impl Policy,
    reference: impl Policy,
) -> usize {
    let (got, got_trace) = run(workload, shipped, cfg);
    let (want, want_trace) = run(workload, reference, cfg);
    assert_eq!(got_trace, want_trace, "{label}: decision traces differ");
    assert_eq!(got, want, "{label}: results differ");
    got_trace
        .iter()
        .filter(|d| matches!(d, Decision::Evicted(Some(_))))
        .count()
}

#[test]
fn hybrid_decides_like_the_map_based_reference() {
    let m = 2;
    for workload in &workloads() {
        for precision in Precision::ALL {
            for capacity in CAPACITIES {
                let cfg =
                    SimConfig::reserved_decode_slots(capacity, K, m).with_precision(precision);
                let h = capacity - m;
                let label = format!("{} {} cap {capacity}", workload.name, precision.label());
                let evictions = assert_same(
                    &label,
                    workload,
                    &cfg,
                    HybridStaticDynamic::new(h, K),
                    ReferenceHybrid {
                        h,
                        k: K,
                        table: MapScores::default(),
                        inserted: Vec::new(),
                    },
                );
                assert!(
                    evictions >= DECODE - m,
                    "{label}: only {evictions} evictions"
                );
            }
        }
    }
}

#[test]
fn h2o_evicts_like_the_copy_and_sort_reference() {
    for workload in &workloads() {
        for precision in Precision::ALL {
            for capacity in CAPACITIES {
                let cfg = SimConfig::new(capacity, K).with_precision(precision);
                for recent in RECENT {
                    let label = format!(
                        "{} {} cap {capacity} recent {recent}",
                        workload.name,
                        precision.label()
                    );
                    let evictions = assert_same(
                        &label,
                        workload,
                        &cfg,
                        H2O::new(recent),
                        ReferenceH2O {
                            recent_budget: recent,
                            table: MapScores::default(),
                        },
                    );
                    assert_eq!(evictions, DECODE, "{label}: every step must evict");
                }
            }
        }
    }
}

#[test]
fn oracle_selects_like_the_closure_reference() {
    for workload in &workloads() {
        for precision in Precision::ALL {
            for capacity in CAPACITIES {
                let cfg = SimConfig::new(capacity, K).with_precision(precision);
                let label = format!("{} {} cap {capacity}", workload.name, precision.label());
                assert_same(&label, workload, &cfg, OracleTopK::new(), ReferenceOracle);
            }
        }
    }
}
