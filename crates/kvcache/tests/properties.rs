//! Property-based tests of the policy/simulation invariants.

use proptest::prelude::*;
use unicaim_attention::workloads::{
    generate, poisson_arrivals, ArrivalSpec, DecodeWorkload, NeedleSpec, WorkloadSpec,
};
use unicaim_attention::Matrix;
use unicaim_kvcache::{
    simulate_decode, simulate_stack, AllocatorSpec, BatchConfig, DecodeEngine, DecodeSession,
    EngineConfig, HybridStaticDynamic, LayerBudgets, Policy, PolicySpec, Precision, PrefixRegistry,
    SchedulerSpec, ScoreTable, ServeConfig, ServeCore, SimConfig, StackConfig, StepDecision,
    StreamingLlm,
};

fn small_workload(seed: u64, prefill: usize, decode: usize) -> DecodeWorkload {
    let spec = WorkloadSpec {
        name: "prop".into(),
        dim: 16,
        prefill_len: prefill,
        decode_len: decode,
        n_sinks: 2,
        sink_strength: 0.5,
        locality_strength: 0.4,
        needle_strength: 1.4,
        noise: 0.5,
        sharpness: 10.0,
        needles: vec![NeedleSpec {
            position: prefill / 2,
            prefill_mentions: vec![prefill / 2 + 1, (prefill * 3 / 4).min(prefill - 1)],
            answer_steps: vec![decode / 2],
        }],
        diffuse_salient: Vec::new(),
        seed,
    };
    generate(&spec)
}

fn run_policy(
    policy: &mut dyn Policy,
    seed: u64,
    capacity: usize,
    k: usize,
) -> unicaim_kvcache::SimResult {
    let w = small_workload(seed, 48, 12);
    simulate_decode(&w, policy, &SimConfig::new(capacity, k)).expect("contract upheld")
}

/// The reference for prefix verification: dimension, prefill length,
/// then every key, value and query row flattened to bit patterns, copied
/// into one vector. The registry verifies in place, without this copy; a
/// lookup must hit exactly when two workloads' vectors are equal.
fn reference_prefix_content(w: &DecodeWorkload) -> Vec<u32> {
    let prefill_len = w.prefill_keys.len();
    let mut content = Vec::with_capacity(2 + 3 * prefill_len * w.dim);
    content.push(u32::try_from(w.dim).unwrap_or(u32::MAX));
    content.push(u32::try_from(prefill_len).unwrap_or(u32::MAX));
    for plane in [&w.prefill_keys, &w.prefill_values, &w.prefill_queries] {
        for row in plane {
            content.extend(row.iter().map(|x| x.to_bits()));
        }
    }
    content
}

/// Element `col` of row `row` of prefix plane `plane` (0 keys, 1 values,
/// 2 queries).
fn prefix_word(w: &mut DecodeWorkload, plane: usize, row: usize, col: usize) -> &mut f32 {
    let plane = match plane {
        0 => &mut w.prefill_keys,
        1 => &mut w.prefill_values,
        _ => &mut w.prefill_queries,
    };
    &mut plane[row][col]
}

/// Nearest-rank percentile of a non-empty tick sample, as the serving
/// summary takes it.
fn nearest_rank(samples: &[u64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// The registry specs of every shipped policy, sized so each fits the
/// per-sequence share — the menu the single/batched/scheduler equivalence
/// checks iterate (a fresh, identically configured instance is minted per
/// run via [`PolicySpec::build`]).
fn policy_menu(capacity: usize, k: usize) -> Vec<PolicySpec> {
    vec![
        PolicySpec::Full,
        PolicySpec::hybrid_for_share(capacity.saturating_sub(4).max(1) + 4, 4, k),
        PolicySpec::StreamingLlm { n_sinks: 2 },
        PolicySpec::H2O { recent_budget: 4 },
        PolicySpec::SnapKv { obs_window: 4 },
        PolicySpec::OracleTopK,
    ]
}

/// The menu holds exactly one spec per registry name, so the properties
/// that iterate it cover every shipped policy.
#[test]
fn policy_menu_covers_every_registry_name() {
    let mut names: Vec<&str> = policy_menu(24, 8).iter().map(PolicySpec::name).collect();
    names.sort_unstable();
    let mut registry = PolicySpec::NAMES.to_vec();
    registry.sort_unstable();
    assert_eq!(names, registry);
}

/// Wraps a policy and records the resident-set size the harness reports at
/// every step, so capacity can be checked *per step* rather than on the
/// mean.
struct CapacityProbe {
    inner: Box<dyn Policy>,
    max_resident: usize,
}

impl CapacityProbe {
    fn new(inner: Box<dyn Policy>) -> Self {
        Self {
            inner,
            max_resident: 0,
        }
    }
}

impl Policy for CapacityProbe {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn prefill_keep(&mut self, attn: &Matrix, budget: usize) -> Vec<usize> {
        self.inner.prefill_keep(attn, budget)
    }
    fn select(&mut self, step: usize, scored: &[(usize, f32)], k: usize) -> StepDecision {
        self.max_resident = self.max_resident.max(scored.len());
        self.inner.select(step, scored, k)
    }
    fn observe(&mut self, step: usize, weights: &[(usize, f32)]) {
        self.max_resident = self.max_resident.max(weights.len());
        self.inner.observe(step, weights);
    }
    fn evict(&mut self, step: usize, resident: &[usize]) -> Option<usize> {
        self.max_resident = self.max_resident.max(resident.len());
        self.inner.evict(step, resident)
    }
    fn note_inserted(&mut self, token: usize) {
        self.inner.note_inserted(token);
    }
}

proptest! {
    // `with_cases_env`: sanitizer jobs dial the count down via
    // `UNICAIM_PROPTEST_CASES`; Miri clamps it to 2.
    #![proptest_config(ProptestConfig::with_cases_env(24))]

    /// No policy can ever exceed the physical cache capacity or select more
    /// than the resident set.
    #[test]
    fn capacity_and_selection_invariants(
        seed in 0u64..500,
        capacity in 12usize..48,
        k in 1usize..32,
    ) {
        for spec in policy_menu(capacity, k) {
            let mut policy = spec.build();
            let r = run_policy(policy.as_mut(), seed, capacity, k);
            prop_assert!(r.mean_resident <= capacity as f64 + 1e-9,
                "{}: resident {} > capacity {capacity}", r.policy, r.mean_resident);
            prop_assert!(r.mean_selected <= r.mean_resident + 1e-9,
                "{}: selected more than resident", r.policy);
            prop_assert!(r.output_cosine.is_finite());
            prop_assert!((0.0..=1.0 + 1e-9).contains(&r.salient_recall));
        }
    }

    /// Oracle top-k recall is monotone in k, and selecting everything makes
    /// it exact. (Note: at equal k a *pruned* cache can beat the oracle on
    /// a full cache — static pruning removes distractors — so no dominance
    /// over the hybrid is asserted.)
    #[test]
    fn oracle_recall_monotone_in_k(seed in 0u64..200, k in 4usize..20) {
        let w = small_workload(seed, 48, 12);
        let cap = w.total_tokens();
        let recall_at = |k: usize| {
            let mut oracle = PolicySpec::OracleTopK.build();
            simulate_decode(&w, oracle.as_mut(), &SimConfig::new(cap, k))
                .expect("contract upheld")
                .salient_recall
        };
        let narrow = recall_at(k);
        let wide = recall_at(2 * k);
        let all = recall_at(cap);
        prop_assert!(wide + 1e-9 >= narrow, "recall not monotone: {narrow} -> {wide}");
        prop_assert!((all - 1.0).abs() < 1e-9, "full-width oracle must be exact, got {all}");
    }

    /// Full cache with full capacity is the exact reference: cosine 1.
    #[test]
    fn full_cache_is_exact_for_any_seed(seed in 0u64..300) {
        let w = small_workload(seed, 32, 8);
        let mut full = PolicySpec::Full.build();
        let r = simulate_decode(&w, full.as_mut(), &SimConfig::new(w.total_tokens(), usize::MAX))
            .expect("contract upheld");
        prop_assert!(r.output_cosine > 0.9999, "cosine {}", r.output_cosine);
        prop_assert!(r.output_rel_error < 1e-3, "rel err {}", r.output_rel_error);
    }

    /// ScoreTable agrees with a `BTreeMap` running-sum model under random
    /// insert, observe and remove operations: lookups (of tracked, removed
    /// and never-seen tokens), counts and the eviction minimum over
    /// candidates that may be missing. Equality is logical: a vector left
    /// longer by a removed top token still equals the table it was.
    #[test]
    fn score_table_matches_btreemap_model(
        ops in proptest::collection::vec((0usize..3, 0usize..24, -1.0f64..1.0), 1..80),
        candidates in proptest::collection::vec(0usize..32, 0..8),
    ) {
        let mut table = ScoreTable::accumulating();
        let mut model: std::collections::BTreeMap<usize, f64> = Default::default();
        for &(op, token, value) in &ops {
            match op {
                0 => {
                    table.insert(token, value);
                    model.insert(token, value);
                }
                1 => {
                    table.observe(token, value);
                    *model.entry(token).or_insert(0.0) += value;
                }
                _ => prop_assert_eq!(table.remove(token), model.remove(&token)),
            }
            for t in 0..32 {
                prop_assert_eq!(table.get(t), model.get(&t).copied());
            }
            prop_assert_eq!(table.len(), model.len());
            prop_assert_eq!(table.is_empty(), model.is_empty());
            let model_min = candidates
                .iter()
                .map(|&t| (t, model.get(&t).copied().unwrap_or(0.0)))
                .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
                .map(|(t, _)| t);
            prop_assert_eq!(table.min_among(&candidates), model_min);
        }
        let before = table.clone();
        let top = model.keys().next_back().map_or(0, |&t| t + 1) + 7;
        table.insert(top, 0.5);
        prop_assert_ne!(&table, &before);
        prop_assert_eq!(table.remove(top), Some(0.5));
        prop_assert_eq!(&table, &before);
        let mut rebuilt = ScoreTable::accumulating();
        for (&t, &s) in &model {
            rebuilt.insert(t, s);
        }
        prop_assert_eq!(&table, &rebuilt);
    }

    /// Policies are deterministic: same seed, same result.
    #[test]
    fn simulation_deterministic(seed in 0u64..100) {
        let run = || {
            let mut p = HybridStaticDynamic::new(24, 12);
            run_policy(&mut p, seed, 32, 12)
        };
        prop_assert_eq!(run(), run());
    }

    /// No policy ever exceeds the cache capacity *at any step* (not just on
    /// average): the resident set the harness reports to the policy each
    /// step is bounded by the configured slot count.
    #[test]
    fn capacity_never_exceeded_at_any_step(
        seed in 0u64..500,
        capacity in 12usize..48,
        k in 1usize..32,
    ) {
        let w = small_workload(seed, 48, 12);
        for spec in policy_menu(capacity, k) {
            let mut probe = CapacityProbe::new(spec.build());
            let _ = simulate_decode(&w, &mut probe, &SimConfig::new(capacity, k))
                .expect("contract upheld");
            prop_assert!(
                probe.max_resident <= capacity,
                "{}: {} resident tokens at some step exceeds capacity {capacity}",
                probe.inner.name(), probe.max_resident
            );
        }
    }

    /// The top-k inside `select()` picks exactly the set a full
    /// total-ordered sort would pick, and the same list as a
    /// closure-driven `partial_top_k_by` selector, for every k from 0 past
    /// the resident count — under heavy ties and with NaN of both signs,
    /// ±0, ±∞ and subnormals among the scores.
    #[test]
    fn policy_topk_selection_matches_full_sort(
        raw in proptest::collection::vec((1usize..4, 0usize..24, -2.0f32..2.0), 0..40),
    ) {
        const SPECIAL: [f32; 16] = [
            f32::NAN,
            -f32::NAN,
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            0.25,
            0.25,
            0.5,
            0.5,
            -0.5,
        ];
        // Strictly ascending tokens (the harness contract); a score is a
        // special value or, past the table, a random one.
        let mut token = 0;
        let scored: Vec<(usize, f32)> = raw
            .iter()
            .map(|&(gap, pick, random)| {
                token += gap;
                (token, SPECIAL.get(pick).copied().unwrap_or(random))
            })
            .collect();
        let n = scored.len();
        for k in 0..=n + 2 {
            // Reference 1: full sort by (score desc, token asc), truncate, sort.
            let mut full = scored.clone();
            full.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            full.truncate(k);
            let mut expected: Vec<usize> = full.into_iter().map(|(t, _)| t).collect();
            expected.sort_unstable();
            // Reference 2: the closure-driven partial selection.
            let idx = unicaim_attention::kernels::partial_top_k_by(n, k, |a, b| {
                scored[b].1.total_cmp(&scored[a].1).then(scored[a].0.cmp(&scored[b].0))
            });
            let mut closure: Vec<usize> = idx.into_iter().map(|i| scored[i].0).collect();
            closure.sort_unstable();
            prop_assert!(closure == expected, "closure k {k}: {closure:?} vs {expected:?}");

            let mut oracle = PolicySpec::OracleTopK.build();
            let got = oracle.select(0, &scored, k).selected;
            prop_assert!(got == expected, "oracle k {k}: {got:?} vs {expected:?}");
            // Hybrid's own k is set to the test k so the cap does not bind.
            let mut hybrid = HybridStaticDynamic::new(8, k);
            let got = hybrid.select(0, &scored, k).selected;
            prop_assert!(got == expected, "hybrid k {k}: {got:?} vs {expected:?}");
        }
    }

    /// `top_indices_by_score` (the prefill static-pruning ranking) equals a
    /// full total-ordered sort under ties.
    #[test]
    fn top_indices_matches_full_sort(
        raw in proptest::collection::vec(0u8..4, 1..40),
        budget in 0usize..44,
    ) {
        let scores: Vec<f64> = raw.iter().map(|&v| f64::from(v) * 0.5).collect();
        let mut idx: Vec<usize> = (0..scores.len()).collect();
        idx.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
        idx.truncate(budget);
        idx.sort_unstable();
        prop_assert_eq!(unicaim_kvcache::top_indices_by_score(&scores, budget), idx);
    }

    /// A batch of size 1 is bit-identical to `simulate_decode`, for every
    /// shipped policy — the invariant that forces the two drivers to share
    /// one per-step core.
    #[test]
    fn batch_of_one_equals_simulate_decode(
        seed in 0u64..300,
        capacity in 12usize..48,
        k in 1usize..24,
    ) {
        let w = small_workload(seed, 48, 12);
        let cfg = SimConfig::new(capacity, k);
        for spec in policy_menu(capacity, k) {
            let mut single = spec.build();
            let expected = simulate_decode(&w, single.as_mut(), &cfg).expect("contract upheld");
            let batch = DecodeEngine::new(EngineConfig {
                batch: BatchConfig::per_sequence(&cfg, 1),
                scheduler: SchedulerSpec::Sequential,
            })
            .run_with(std::slice::from_ref(&w), &mut |_| spec.build())
            .expect("contract upheld");
            prop_assert_eq!(&batch.per_sequence[0], &expected);
        }
    }

    /// Continuous batching is transparent to every sequence: under
    /// staggered Poisson arrivals — sequences joining and leaving
    /// mid-flight, queueing behind the slot budget, and (when the trace
    /// carries high-priority requests) being preempted and re-prefilled —
    /// each completed request's per-sequence result is bit-identical to
    /// running that sequence alone at the same precision and policy. The
    /// PR 2/4 equivalence ladder (single = batch-of-one = any scheduler)
    /// extended to mid-flight join/leave. Preemption costs at most one
    /// eviction per `High` request, each eviction one re-prefill, and the
    /// summary's TTFT percentiles are those of the completed requests (one
    /// sample each). A pooled core keeps one pool for the whole trace, so
    /// its helpers step tick after tick with admissions and preemptions
    /// between them.
    #[test]
    fn continuous_batching_matches_solo_sessions_bit_for_bit(
        seed in 0u64..200,
        mean in 1.0f64..6.0,
        n_requests in 3usize..9,
        high_every in 0usize..4,
        precision_idx in 0usize..3,
        workers in 1usize..5,
    ) {
        let share = 28;
        let k = 8;
        let precision = [Precision::F32, Precision::Int8, Precision::Cell3Bit][precision_idx];
        let scheduler = match workers {
            1 => SchedulerSpec::Sequential,
            workers => SchedulerSpec::WorkerPool { workers },
        };
        let events = poisson_arrivals(&ArrivalSpec {
            n_requests,
            mean_interarrival_ticks: mean,
            n_tenants: 2,
            high_priority_every: high_every,
            base_prefill: 32,
            decode_len: 8,
            seed,
        });
        let spec = PolicySpec::hybrid_for_share(share, 4, k);
        // Two concurrent sessions at most, so arrivals genuinely stagger,
        // queue, and (with a high-priority cadence) preempt; the queue
        // bound is wide enough that nothing is rejected.
        let config = ServeConfig::new(2 * share, share, k)
            .with_reserved_decode_slots(4)
            .with_precision(precision)
            .with_queue_limit(n_requests)
            .with_scheduler(scheduler);
        let mut core = ServeCore::new(config).expect("valid config");
        let report = core
            .run(&events, &mut |_| spec.clone())
            .expect("contract upheld");
        let s = &report.summary;
        prop_assert_eq!(s.rejected, 0);
        prop_assert_eq!(report.completed.len(), n_requests);
        let highs = events.iter().filter(|e| e.high_priority).count() as u64;
        prop_assert!(s.preemptions <= highs, "{} preemptions for {highs} Highs", s.preemptions);
        prop_assert_eq!(s.re_prefills, s.preemptions);
        let ttfts: Vec<u64> = report
            .completed
            .iter()
            .map(|c| c.first_token_tick - c.arrival_tick)
            .collect();
        prop_assert_eq!(
            [s.p50_ttft_ticks, s.p95_ttft_ticks, s.p99_ttft_ticks],
            [50.0, 95.0, 99.0].map(|p| nearest_rank(&ttfts, p))
        );
        for completed in &report.completed {
            let mut solo = DecodeSession::prefill_spec(
                &events[completed.id].workload,
                &spec,
                &config.session_config(),
            )
            .expect("solo prefill");
            solo.run_to_completion().expect("solo run");
            prop_assert_eq!(&completed.result, &solo.finish());
        }
    }

    /// A `WorkerPool` run produces the *identical* `BatchResult`
    /// (per-sequence results, weighted aggregates, and the reconstructed
    /// peak occupancy) as a reference that never enters the pool —
    /// sessions admitted by `DecodeEngine::admit`, each stepped by a plain
    /// `run_to_completion` loop, retired by `collect` — for every shipped
    /// policy, batch shape, and worker count: the invariant that makes the
    /// pool a pure throughput play. One worker, or a single-sequence
    /// batch, runs on the calling thread alone, so the no-spawn path is
    /// covered too.
    #[test]
    fn worker_pool_equals_sequential_for_every_policy(
        seed in 0u64..200,
        n in 1usize..6,
        share in 14usize..32,
        k in 1usize..16,
        workers in 1usize..5,
    ) {
        let workloads: Vec<_> = (0..n as u64)
            .map(|i| small_workload(seed.wrapping_add(i), 32 + 4 * i as usize, 8 + i as usize))
            .collect();
        for spec in policy_menu(share, k) {
            let engine = DecodeEngine::new(EngineConfig::new(share * n, k));
            let mut sessions = engine
                .admit(&workloads, &mut |_| spec.build())
                .expect("contract upheld");
            for session in &mut sessions {
                session.run_to_completion().expect("contract upheld");
            }
            let reference = engine.collect(sessions);
            let pooled = DecodeEngine::new(
                EngineConfig::new(share * n, k)
                    .with_scheduler(SchedulerSpec::WorkerPool { workers }),
            )
            .run(&workloads, &spec)
            .expect("contract upheld");
            prop_assert_eq!(&pooled, &reference);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_env(12))]

    /// Shared-prefix splicing is invisible to decode: for every shipped
    /// policy and every key-arena precision, a session admitted through a
    /// `PrefixRegistry` — whether it *registered* the prefix (cold path
    /// that caches) or *spliced* it (page-table splice that skips the
    /// prefill recompute entirely) — finishes with a `SimResult`
    /// bit-identical to a plain cold prefill. The capacity is chosen so
    /// decode overflows it, forcing evictions (and inserts) that mutate
    /// pages still pinned by the registry: the copy-on-write layer is
    /// what keeps the second session's splice pristine.
    #[test]
    fn spliced_sessions_decode_bit_identically_to_cold(
        seed in 0u64..200,
        precision_idx in 0usize..3,
    ) {
        let precision = Precision::ALL[precision_idx];
        let w = small_workload(seed, 48, 12);
        let capacity = 32;
        let k = 8;
        let cfg = SimConfig::new(capacity, k).with_precision(precision);
        let menu = policy_menu(capacity, k);
        // Miri interprets ~3 full decode runs per policy; two policies (one
        // non-evicting, one evicting) still cross every refcount/CoW path
        // this property exists to check.
        let menu = if cfg!(miri) { &menu[..2] } else { &menu[..] };
        for spec in menu {
            let mut cold = DecodeSession::prefill_spec(&w, spec, &cfg).expect("cold prefill");
            cold.run_to_completion().expect("cold run");
            let expected = cold.finish();

            let registry = PrefixRegistry::new(w.dim, 64).expect("valid registry");
            // First admission: cold path, but registers matrix + pages.
            let (mut first, warm_report) =
                DecodeSession::prefill_shared(&w, spec, &cfg, &registry)
                    .expect("registering prefill");
            prop_assert!(!warm_report.prefix_hit);
            prop_assert!(!warm_report.spliced);
            // Decode overflows capacity: evictions/inserts hit pages the
            // registry still pins, so they must copy-on-write.
            first.run_to_completion().expect("registering run");
            prop_assert_eq!(&first.finish(), &expected);

            // Second admission: verified hit, page-table splice.
            let (mut second, hit_report) =
                DecodeSession::prefill_shared(&w, spec, &cfg, &registry)
                    .expect("spliced prefill");
            prop_assert!(hit_report.prefix_hit, "{}: expected a prefix hit", spec.name());
            prop_assert!(hit_report.spliced, "{}: expected a page splice", spec.name());
            prop_assert!(hit_report.rows_shared > 0);
            prop_assert!(hit_report.bytes_saved > 0);
            prop_assert!(hit_report.flops_spent < hit_report.flops_cold);
            prop_assert!(hit_report.work_reduction() > 0.5,
                "{}: splice saved only {:.3} of cold prefill work",
                spec.name(), hit_report.work_reduction());
            second.run_to_completion().expect("spliced run");
            prop_assert_eq!(&second.finish(), &expected);

            let stats = registry.stats();
            prop_assert!(stats.hits >= 1);
            prop_assert_eq!(stats.collisions, 0);
        }
    }

    /// A prefix hit is exactly content equality, judged bit for bit. A
    /// registry admits a workload; a clone of it must hit and splice,
    /// while a copy with one word of one plane changed must never hit.
    /// Each outcome is checked against equality of
    /// `reference_prefix_content`. The changed word is drawn at random,
    /// and so is its change: a low-bit flip, a sign flip, +0.0 → −0.0, or
    /// one NaN payload for another (for the last two the admitted
    /// workload holds +0.0 or the first NaN at that word, so a prompt
    /// with a NaN must hit its own entry).
    #[test]
    fn prefix_hit_is_exactly_bitwise_content_equality(
        seed in 0u64..500,
        plane in 0usize..3,
        row in 0usize..24,
        col in 0usize..16,
        change in 0usize..4,
    ) {
        let mut admitted = small_workload(seed, 24, 4);
        let bits = prefix_word(&mut admitted, plane, row, col).to_bits();
        let (before, after) = match change {
            0 => (bits, bits ^ 1),
            1 => (bits, bits ^ (1 << 31)),
            2 => (0.0f32.to_bits(), (-0.0f32).to_bits()),
            _ => (0x7fc0_0001, 0x7fc0_0002),
        };
        *prefix_word(&mut admitted, plane, row, col) = f32::from_bits(before);
        let mut changed = admitted.clone();
        *prefix_word(&mut changed, plane, row, col) = f32::from_bits(after);

        let cfg = SimConfig::new(16, 4);
        let spec = PolicySpec::hybrid_for_share(16, 4, 4);
        let registry = PrefixRegistry::new(admitted.dim, 64).expect("valid registry");
        let (_, first) = DecodeSession::prefill_shared(&admitted, &spec, &cfg, &registry)
            .expect("registering prefill");
        prop_assert!(!first.prefix_hit);
        let reference = reference_prefix_content(&admitted);
        for (probe, is_clone) in [(admitted.clone(), true), (changed, false)] {
            let (_, report) = DecodeSession::prefill_shared(&probe, &spec, &cfg, &registry)
                .expect("probing prefill");
            prop_assert_eq!(report.prefix_hit, reference_prefix_content(&probe) == reference);
            prop_assert_eq!(report.prefix_hit, is_clone);
            prop_assert_eq!(report.spliced, is_clone);
        }
        prop_assert_eq!(registry.stats().hits, 1);
    }

    /// A one-layer stack is the identity wrapper under every allocator:
    /// each gives the one layer the whole budget and never reallocates,
    /// so for every shipped policy and every key-arena precision its
    /// single per-layer `SimResult` is bit-identical to driving the same
    /// workload through a plain `DecodeSession` — the stack's
    /// capacity-limit gating, entropy taps, and allocator plumbing are
    /// all invisible at K = 1.
    #[test]
    fn k1_stack_is_bit_identical_for_every_policy_and_precision(
        seed in 0u64..200,
        precision_idx in 0usize..3,
    ) {
        let precision = Precision::ALL[precision_idx];
        let w = small_workload(seed, 48, 12);
        let capacity = 32;
        let k = 8;
        let cfg = SimConfig::new(capacity, k).with_precision(precision);
        let stack_cfg = StackConfig::new(capacity, k).with_precision(precision);
        for spec in policy_menu(capacity, k) {
            let mut solo = DecodeSession::prefill_spec(&w, &spec.for_share(capacity), &cfg)
                .expect("solo prefill");
            solo.run_to_completion().expect("solo run");
            let expected = solo.finish();

            for name in AllocatorSpec::NAMES {
                let allocator = AllocatorSpec::from_name(name).expect("registry name");
                let stacked =
                    simulate_stack(std::slice::from_ref(&w), &spec, allocator, &stack_cfg)
                        .expect("stacked run");
                prop_assert_eq!(stacked.budgets.as_slice(), &[capacity][..]);
                prop_assert_eq!(stacked.reallocations, 0);
                prop_assert!(stacked.per_layer[0] == expected,
                    "{name}: the stacked layer differs from the solo session");
            }
        }
    }

    /// Every registered allocator conserves the global budget exactly and
    /// never pushes a layer below its policy's minimum viable share (or
    /// above its physical ceiling), from the initial split through an
    /// arbitrary sequence of observed entropies.
    #[test]
    fn allocators_conserve_budget_and_respect_policy_floors(
        layers in 1usize..6,
        spare in 0usize..64,
        entropy_raw in proptest::collection::vec(0.0f64..1.0, 96),
    ) {
        for name in AllocatorSpec::NAMES {
            let alloc_spec = AllocatorSpec::from_name(name).expect("registry name");
            for policy in policy_menu(24, 8) {
                let floor = policy.min_viable_share();
                let global = floor * layers + spare;
                let mut alloc = LayerBudgets::new(alloc_spec, layers, floor, global)
                    .expect("the global budget covers every floor");
                prop_assert_eq!(alloc.budgets().iter().sum::<usize>(), global);
                for l in 0..layers {
                    prop_assert!(alloc.ceilings()[l] >= alloc.budgets()[l]);
                }
                for step in 0..32usize {
                    let entropies: Vec<f64> = (0..layers)
                        .map(|l| entropy_raw[(step * layers + l) % entropy_raw.len()])
                        .collect();
                    alloc.observe(&entropies);
                    let (budgets, ceilings) = (alloc.budgets(), alloc.ceilings());
                    prop_assert_eq!(budgets.iter().sum::<usize>(), global);
                    for l in 0..layers {
                        prop_assert!(budgets[l] >= floor,
                            "{name}/{}: layer {l} below its policy floor", policy.name());
                        prop_assert!(budgets[l] <= ceilings[l],
                            "{name}/{}: layer {l} above its ceiling", policy.name());
                    }
                }
            }
        }
    }
}

/// Fingerprints keep distinct prefixes apart: eight distinct prompts,
/// plus every single-word flip (lowest bit and sign bit) of one of them,
/// admitted into one registry that never evicts, each find no entry under
/// their fingerprint. Two equal fingerprints would read as a collision; a
/// degenerate lane mixer would read as many and quietly cut the hit rate.
#[test]
fn distinct_prefixes_get_distinct_fingerprints() {
    let base = small_workload(0, 16, 2);
    let mut prefixes: Vec<DecodeWorkload> = (0..8).map(|s| small_workload(s, 16, 2)).collect();
    for plane in 0..3 {
        for row in 0..16 {
            for col in 0..base.dim {
                for mask in [1, 1 << 31] {
                    let mut w = base.clone();
                    let x = prefix_word(&mut w, plane, row, col);
                    *x = f32::from_bits(x.to_bits() ^ mask);
                    prefixes.push(w);
                }
            }
        }
    }
    let registry = PrefixRegistry::new(base.dim, 1 << 16).expect("valid registry");
    let cfg = SimConfig::new(24, 4);
    for w in &prefixes {
        DecodeSession::prefill_shared(w, &PolicySpec::Full, &cfg, &registry).expect("prefill");
    }
    let stats = registry.stats();
    assert_eq!((stats.hits, stats.collisions, stats.evictions), (0, 0, 0));
    assert_eq!(stats.misses, prefixes.len() as u64);
    assert_eq!(registry.entries(), prefixes.len());
}

#[test]
fn batched_policies_share_the_budget_evenly() {
    // Deterministic (non-proptest) sanity: a 4-sequence batch under each
    // policy respects the shared budget and reports per-sequence results.
    let workloads: Vec<_> = (0..4u64).map(|s| small_workload(s, 48, 12)).collect();
    let config = EngineConfig::new(4 * 24, 8);
    for spec in policy_menu(24, 8) {
        let r = DecodeEngine::new(config)
            .run_with(&workloads, &mut |_| spec.build())
            .expect("contract");
        assert_eq!(r.n_sequences, 4);
        assert_eq!(r.per_sequence.len(), 4);
        assert!(r.peak_resident <= config.batch.total_capacity, "{r:?}");
        assert_eq!(r.total_steps, 4 * 12);
    }
}

/// Records every per-step selection a wrapped policy makes, so selections
/// can be compared across runs at different key-arena precisions.
struct SelectionProbe {
    inner: Box<dyn Policy>,
    selections: Vec<Vec<usize>>,
}

impl SelectionProbe {
    fn new(inner: Box<dyn Policy>) -> Self {
        Self {
            inner,
            selections: Vec::new(),
        }
    }
}

impl Policy for SelectionProbe {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn prefill_keep(&mut self, attn: &Matrix, budget: usize) -> Vec<usize> {
        self.inner.prefill_keep(attn, budget)
    }
    fn select(&mut self, step: usize, scored: &[(usize, f32)], k: usize) -> StepDecision {
        let decision = self.inner.select(step, scored, k);
        self.selections.push(decision.selected.clone());
        decision
    }
    fn observe(&mut self, step: usize, weights: &[(usize, f32)]) {
        self.inner.observe(step, weights);
    }
    fn evict(&mut self, step: usize, resident: &[usize]) -> Option<usize> {
        self.inner.evict(step, resident)
    }
    fn note_inserted(&mut self, token: usize) {
        self.inner.note_inserted(token);
    }
}

/// Quantized parity (satellite): per-policy top-k selection overlap across
/// key-arena precisions. Quantization legitimately reorders near-tied
/// scores, so the exact Jaccard overlap against the f32 run stays
/// diagnostic output (visible with `--nocapture`) — but a *loose* lower
/// bound is asserted: observed means on this pinned workload sit at
/// 0.74–1.00 on both kernel tiers (worst case `oracle_topk` under
/// `cell3`, 0.740; the hybrid under `cell3` reads 0.758), so a mean
/// overlap below 0.3 would mean quantized scoring is selecting a
/// substantially different set than f32, a regression no near-tie
/// reordering explains.
#[test]
fn cross_precision_selection_overlap_is_reported() {
    use std::collections::BTreeSet;
    use unicaim_kvcache::Precision;

    let w = small_workload(17, 48, 12);
    let capacity = 32;
    let k = 8;
    println!("per-policy mean Jaccard overlap of selections vs the f32 run:");
    for spec in policy_menu(capacity, k) {
        let run = |precision: Precision| {
            let mut probe = SelectionProbe::new(spec.build());
            let cfg = SimConfig::new(capacity, k).with_precision(precision);
            let r = simulate_decode(&w, &mut probe, &cfg).expect("contract upheld");
            (probe.selections, r)
        };
        let (sel_f32, r_f32) = run(Precision::F32);
        for precision in [Precision::Int8, Precision::Cell3Bit] {
            let (sel_q, r_q) = run(precision);
            assert_eq!(
                sel_f32.len(),
                sel_q.len(),
                "{}: step counts differ",
                spec.name()
            );
            let mut overlap_sum = 0.0f64;
            let mut steps = 0usize;
            for (a, b) in sel_f32.iter().zip(&sel_q) {
                let sa: BTreeSet<usize> = a.iter().copied().collect();
                let sb: BTreeSet<usize> = b.iter().copied().collect();
                let union = sa.union(&sb).count();
                if union == 0 {
                    continue; // both empty: vacuous step
                }
                let inter = sa.intersection(&sb).count();
                let jaccard = inter as f64 / union as f64;
                assert!((0.0..=1.0).contains(&jaccard));
                overlap_sum += jaccard;
                steps += 1;
            }
            let mean = if steps == 0 {
                1.0
            } else {
                overlap_sum / steps as f64
            };
            println!(
                "  {:<24} {:>6}: overlap {:>6.3}, recall {:>5.3} (f32 {:>5.3})",
                spec.name(),
                precision.label(),
                mean,
                r_q.salient_recall,
                r_f32.salient_recall
            );
            assert!(
                mean >= 0.3,
                "{} at {}: mean selection overlap {mean:.3} vs f32 fell below the \
                 loose 0.3 floor — quantized scoring has diverged structurally",
                spec.name(),
                precision.label()
            );
            assert!(r_q.output_cosine.is_finite());
        }
    }
}

#[test]
fn sessions_and_policies_are_send() {
    fn assert_send<T: Send>() {}
    assert_send::<Box<dyn Policy>>();
    assert_send::<unicaim_kvcache::DecodeSession<'static, 'static>>();
    assert_send::<StreamingLlm>();
    assert_send::<unicaim_kvcache::HarnessError>();
}
