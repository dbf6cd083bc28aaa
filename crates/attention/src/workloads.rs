//! Long-context retrieval workloads with ground-truth salient sets.
//!
//! The paper's application-level evaluation (Fig. 13) runs LongBench
//! HotpotQA / NarrativeQA through a 7B LLM and scores answer F1. This
//! module provides the synthetic equivalent: controlled decode workloads in
//! which *we know exactly which cached tokens an answer needs*, so retrieval
//! quality under KV-cache pruning is directly measurable. The generator
//! plants the attention structure real LLMs exhibit:
//!
//! * **attention sinks** — the first few tokens receive attention from every
//!   query (StreamingLLM's observation),
//! * **locality** — queries correlate with recent positions,
//! * **needles / heavy hitters** — a few content tokens carry the signal
//!   queries later look for (H2O's observation),
//! * **distinct value payloads** on salient tokens, so evicting one visibly
//!   corrupts the attention output.
//!
//! Three presets mirror the paper's tasks: [`needle_task`] (single
//! retrieval), [`multi_hop_task`] (HotpotQA-like: two facts, one answer step
//! needs both), and [`summary_task`] (NarrativeQA-like: diffuse salient
//! mass).

use std::collections::BTreeSet;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::kernels::{self, RowView, Rows};
use crate::matrix::Matrix;

/// A planted "needle" fact: one prefill token that later queries must
/// retrieve.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NeedleSpec {
    /// Prefill position of the needle token.
    pub position: usize,
    /// Prefill query positions that (weakly) attend to the needle — the
    /// "mentions" that give it accumulated-attention mass during prefill.
    pub prefill_mentions: Vec<usize>,
    /// Decode steps whose queries strongly seek this needle.
    pub answer_steps: Vec<usize>,
}

/// Parameters of the synthetic workload generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Task name (used in reports).
    pub name: String,
    /// Key/query dimension.
    pub dim: usize,
    /// Prefill (prompt) length in tokens.
    pub prefill_len: usize,
    /// Number of decode steps.
    pub decode_len: usize,
    /// Number of attention-sink tokens at the start of the sequence.
    pub n_sinks: usize,
    /// Query component along the sink direction.
    pub sink_strength: f32,
    /// Query/key component along the positional (locality) subspace.
    pub locality_strength: f32,
    /// Query component along a sought needle's direction at answer steps.
    pub needle_strength: f32,
    /// Standard deviation of the isotropic noise component.
    pub noise: f32,
    /// Softmax sharpness: queries are scaled to `sharpness · √dim` so that
    /// attention logits span the dynamic range real LLMs exhibit (a unit
    /// query over hundreds of keys would give a nearly uniform softmax).
    pub sharpness: f32,
    /// Planted needles.
    pub needles: Vec<NeedleSpec>,
    /// Positions of diffuse salient tokens (summary-style tasks); each
    /// decode step samples a small subset of these to attend to.
    pub diffuse_salient: Vec<usize>,
    /// RNG seed.
    pub seed: u64,
}

/// A fully materialized decode workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecodeWorkload {
    /// Task name.
    pub name: String,
    /// Key/query dimension.
    pub dim: usize,
    /// Prefill keys, one per prompt token.
    pub prefill_keys: Vec<Vec<f32>>,
    /// Prefill values.
    pub prefill_values: Vec<Vec<f32>>,
    /// Prefill queries (used for accumulated-attention static pruning).
    pub prefill_queries: Vec<Vec<f32>>,
    /// One query per decode step.
    pub decode_queries: Vec<Vec<f32>>,
    /// Key of the token generated at each decode step.
    pub decode_keys: Vec<Vec<f32>>,
    /// Value of the token generated at each decode step.
    pub decode_values: Vec<Vec<f32>>,
    /// Ground-truth salient prefill token ids per decode step (empty set =
    /// unscored step).
    pub salient_at: Vec<BTreeSet<usize>>,
    /// Steps at which retrieval is scored.
    pub answer_steps: Vec<usize>,
}

impl DecodeWorkload {
    /// Total number of tokens the full (unpruned) cache would hold at the
    /// end of decoding.
    #[must_use]
    pub fn total_tokens(&self) -> usize {
        self.prefill_keys.len() + self.decode_keys.len()
    }

    /// Exact full-cache attention output at every decode step (the
    /// reference the pruned policies are compared against).
    ///
    /// Implemented over flat key/value arenas with the fused
    /// [`KernelBackend::attend_staircase`](kernels::KernelBackend::attend_staircase)
    /// kernel, which reads the decode queries in place ([`TokenRows`]):
    /// step `s` attends over the first `prefill + s` rows (the prompt plus
    /// every previously generated token), with the same bits as one
    /// [`KernelBackend::attend_prefix`](kernels::KernelBackend::attend_prefix)
    /// call per step.
    #[must_use]
    pub fn full_attention_reference(&self) -> Vec<Vec<f32>> {
        let dim = self.dim;
        let total = self.total_tokens();
        let mut key_arena = Vec::with_capacity(total * dim);
        let mut value_arena = Vec::with_capacity(total * dim);
        for k in self.prefill_keys.iter().chain(&self.decode_keys) {
            key_arena.extend_from_slice(k);
        }
        for v in self.prefill_values.iter().chain(&self.decode_values) {
            value_arena.extend_from_slice(v);
        }
        let steps = self.decode_queries.len();
        let mut outputs = vec![0.0f32; steps * dim];
        kernels::active_backend().attend_staircase(
            TokenRows::new(&self.decode_queries, dim),
            steps,
            RowView::contiguous(&key_arena, dim),
            RowView::contiguous(&value_arena, dim),
            self.prefill_keys.len(),
            1.0 / (dim as f32).sqrt(),
            &mut Vec::new(),
            &mut outputs,
        );
        outputs.chunks(dim).map(<[f32]>::to_vec).collect()
    }
}

/// Per-token vectors read in place as [`Rows`]: row `r` is `rows[r]`,
/// which must hold `dim` elements. The prefill products read their
/// queries through it, since each query is read once per group of eight
/// and is not worth copying into an arena.
#[derive(Debug, Clone, Copy)]
pub struct TokenRows<'a> {
    rows: &'a [Vec<f32>],
    dim: usize,
}

impl<'a> TokenRows<'a> {
    /// A view of `rows`, each `dim` elements long.
    #[must_use]
    pub fn new(rows: &'a [Vec<f32>], dim: usize) -> Self {
        Self { rows, dim }
    }
}

impl Rows for TokenRows<'_> {
    fn dim(&self) -> usize {
        self.dim
    }

    /// # Panics
    ///
    /// Panics if `r` is out of range or row `r` is shorter than `dim`.
    #[inline]
    fn row(&self, r: usize) -> &[f32] {
        &self.rows[r][..self.dim]
    }
}

fn unit(rng: &mut ChaCha8Rng, dim: usize) -> Vec<f32> {
    loop {
        let v: Vec<f32> = (0..dim)
            .map(|_| {
                let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
                let u2: f32 = rng.gen_range(0.0..1.0);
                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
            })
            .collect();
        let n = Matrix::norm(&v);
        if n > 1e-6 {
            return v.iter().map(|x| x / n).collect();
        }
    }
}

fn normalize(mut v: Vec<f32>) -> Vec<f32> {
    let n = Matrix::norm(&v);
    if n > 1e-6 {
        for x in &mut v {
            *x /= n;
        }
    }
    v
}

fn add_scaled(dst: &mut [f32], src: &[f32], s: f32) {
    for (d, &x) in dst.iter_mut().zip(src) {
        *d += s * x;
    }
}

/// Generates a [`DecodeWorkload`] from a [`WorkloadSpec`].
///
/// # Panics
///
/// Panics if a needle position/mention exceeds the prefill length or an
/// answer step exceeds the decode length.
#[must_use]
pub fn generate(spec: &WorkloadSpec) -> DecodeWorkload {
    for n in &spec.needles {
        assert!(
            n.position < spec.prefill_len,
            "needle position out of range"
        );
        assert!(
            n.prefill_mentions.iter().all(|&m| m < spec.prefill_len),
            "needle mention out of range"
        );
        assert!(
            n.answer_steps.iter().all(|&s| s < spec.decode_len),
            "answer step out of range"
        );
    }
    assert!(
        spec.diffuse_salient.iter().all(|&p| p < spec.prefill_len),
        "diffuse salient position out of range"
    );

    let mut rng = ChaCha8Rng::seed_from_u64(spec.seed);
    let dim = spec.dim;

    let u_sink = unit(&mut rng, dim);
    // Two incommensurate rotation frequencies span the locality subspace.
    let (e1, e2) = (unit(&mut rng, dim), unit(&mut rng, dim));
    let (e3, e4) = (unit(&mut rng, dim), unit(&mut rng, dim));
    let w1 = 2.0 * std::f32::consts::PI / 48.0;
    let w2 = 2.0 * std::f32::consts::PI / 31.0;
    let pos_comp = |t: usize| -> Vec<f32> {
        let mut v = vec![0.0f32; dim];
        let tf = t as f32;
        add_scaled(&mut v, &e1, (w1 * tf).cos());
        add_scaled(&mut v, &e2, (w1 * tf).sin());
        add_scaled(&mut v, &e3, 0.6 * (w2 * tf).cos());
        add_scaled(&mut v, &e4, 0.6 * (w2 * tf).sin());
        v
    };

    let needle_dirs: Vec<Vec<f32>> = spec.needles.iter().map(|_| unit(&mut rng, dim)).collect();
    let needle_vals: Vec<Vec<f32>> = spec.needles.iter().map(|_| unit(&mut rng, dim)).collect();
    let diffuse_dirs: Vec<Vec<f32>> = spec
        .diffuse_salient
        .iter()
        .map(|_| unit(&mut rng, dim))
        .collect();
    let diffuse_vals: Vec<Vec<f32>> = spec
        .diffuse_salient
        .iter()
        .map(|_| unit(&mut rng, dim))
        .collect();

    // --- Prefill keys & values -------------------------------------------
    let mut prefill_keys = Vec::with_capacity(spec.prefill_len);
    let mut prefill_values = Vec::with_capacity(spec.prefill_len);
    for t in 0..spec.prefill_len {
        let mut k: Vec<f32> = unit(&mut rng, dim).iter().map(|x| x * spec.noise).collect();
        add_scaled(&mut k, &pos_comp(t), spec.locality_strength);
        if t < spec.n_sinks {
            add_scaled(&mut k, &u_sink, 1.0);
        }
        if let Some(i) = spec.needles.iter().position(|n| n.position == t) {
            add_scaled(&mut k, &needle_dirs[i], 1.2);
        }
        if let Some(i) = spec.diffuse_salient.iter().position(|&p| p == t) {
            add_scaled(&mut k, &diffuse_dirs[i], 1.2);
        }
        prefill_keys.push(normalize(k));

        let mut v: Vec<f32> = unit(&mut rng, dim).iter().map(|x| x * 0.3).collect();
        if let Some(i) = spec.needles.iter().position(|n| n.position == t) {
            add_scaled(&mut v, &needle_vals[i], 3.0);
        }
        if let Some(i) = spec.diffuse_salient.iter().position(|&p| p == t) {
            add_scaled(&mut v, &diffuse_vals[i], 2.0);
        }
        prefill_values.push(v);
    }

    // --- Prefill queries --------------------------------------------------
    let mut prefill_queries = Vec::with_capacity(spec.prefill_len);
    for t in 0..spec.prefill_len {
        let mut q: Vec<f32> = unit(&mut rng, dim).iter().map(|x| x * spec.noise).collect();
        add_scaled(&mut q, &u_sink, spec.sink_strength);
        add_scaled(&mut q, &pos_comp(t), spec.locality_strength);
        for (i, n) in spec.needles.iter().enumerate() {
            if n.prefill_mentions.contains(&t) {
                add_scaled(&mut q, &needle_dirs[i], spec.needle_strength);
            }
        }
        // Diffuse salient tokens receive repeated follow-up attention during
        // prefill (a document keeps referring to its important facts) —
        // this is what gives accumulated-attention pruning its signal.
        for (i, &p) in spec.diffuse_salient.iter().enumerate() {
            if t > p && matches!(t - p, 1 | 5 | 11 | 23 | 47) {
                add_scaled(&mut q, &diffuse_dirs[i], spec.needle_strength * 0.9);
            }
        }
        let mut q = normalize(q);
        let gain = spec.sharpness * (dim as f32).sqrt();
        for x in &mut q {
            *x *= gain;
        }
        prefill_queries.push(q);
    }

    // --- Decode queries, keys, values, salient sets ------------------------
    let mut decode_queries = Vec::with_capacity(spec.decode_len);
    let mut decode_keys = Vec::with_capacity(spec.decode_len);
    let mut decode_values = Vec::with_capacity(spec.decode_len);
    let mut salient_at: Vec<BTreeSet<usize>> = Vec::with_capacity(spec.decode_len);
    for step in 0..spec.decode_len {
        let t = spec.prefill_len + step;
        let mut q: Vec<f32> = unit(&mut rng, dim).iter().map(|x| x * spec.noise).collect();
        add_scaled(&mut q, &u_sink, spec.sink_strength);
        add_scaled(&mut q, &pos_comp(t), spec.locality_strength);
        let mut salient = BTreeSet::new();
        for (i, n) in spec.needles.iter().enumerate() {
            if n.answer_steps.contains(&step) {
                add_scaled(&mut q, &needle_dirs[i], spec.needle_strength);
                salient.insert(n.position);
            }
        }
        if !spec.diffuse_salient.is_empty() && step % 4 == 0 {
            // Summary-style: each scored step draws on a few diffuse facts.
            let picks = 3.min(spec.diffuse_salient.len());
            let mut chosen = BTreeSet::new();
            while chosen.len() < picks {
                chosen.insert(rng.gen_range(0..spec.diffuse_salient.len()));
            }
            for i in chosen {
                add_scaled(&mut q, &diffuse_dirs[i], spec.needle_strength * 0.8);
                salient.insert(spec.diffuse_salient[i]);
            }
        }
        let mut q = normalize(q);
        let gain = spec.sharpness * (dim as f32).sqrt();
        for x in &mut q {
            *x *= gain;
        }
        decode_queries.push(q);
        salient_at.push(salient);

        let mut k: Vec<f32> = unit(&mut rng, dim).iter().map(|x| x * spec.noise).collect();
        add_scaled(&mut k, &pos_comp(t), spec.locality_strength);
        decode_keys.push(normalize(k));
        decode_values.push(unit(&mut rng, dim).iter().map(|x| x * 0.3).collect());
    }

    let answer_steps: Vec<usize> = (0..spec.decode_len)
        .filter(|&s| !salient_at[s].is_empty())
        .collect();

    DecodeWorkload {
        name: spec.name.clone(),
        dim,
        prefill_keys,
        prefill_values,
        prefill_queries,
        decode_queries,
        decode_keys,
        decode_values,
        salient_at,
        answer_steps,
    }
}

fn base_spec(name: &str, prefill_len: usize, decode_len: usize, seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        name: name.to_owned(),
        dim: 64,
        prefill_len,
        decode_len,
        n_sinks: 4,
        sink_strength: 0.5,
        locality_strength: 0.45,
        needle_strength: 1.4,
        noise: 0.5,
        sharpness: 12.0,
        needles: Vec::new(),
        diffuse_salient: Vec::new(),
        seed,
    }
}

/// Single-needle retrieval task: one mid-context fact, mentioned a few times
/// early in the prompt, sought at three decode steps.
#[must_use]
pub fn needle_task(prefill_len: usize, decode_len: usize, seed: u64) -> DecodeWorkload {
    let mut spec = base_spec("needle", prefill_len, decode_len, seed);
    let pos = prefill_len / 2;
    spec.needles.push(NeedleSpec {
        position: pos,
        prefill_mentions: vec![
            (pos + prefill_len / 8).min(prefill_len - 1),
            (pos + prefill_len / 4).min(prefill_len - 1),
            (pos + 3 * prefill_len / 8).min(prefill_len - 1),
        ],
        answer_steps: vec![decode_len / 4, decode_len / 2, 3 * decode_len / 4],
    });
    generate(&spec)
}

/// HotpotQA-like multi-hop task: two facts in different context regions;
/// the first answer step needs fact A, a later one needs *both*. Fact A's
/// mentions sit early in the prompt — outside a SnapKV-style observation
/// window — which is exactly the failure mode that separates
/// accumulated-score static pruning from observation-window pruning.
#[must_use]
pub fn multi_hop_task(prefill_len: usize, decode_len: usize, seed: u64) -> DecodeWorkload {
    let mut spec = base_spec("multi_hop", prefill_len, decode_len, seed);
    let pos_a = prefill_len / 4;
    let pos_b = 5 * prefill_len / 8;
    spec.needles.push(NeedleSpec {
        position: pos_a,
        prefill_mentions: vec![
            (pos_a + prefill_len / 16).min(prefill_len - 1),
            (pos_a + prefill_len / 8).min(prefill_len - 1),
        ],
        answer_steps: vec![decode_len / 4, 3 * decode_len / 4],
    });
    spec.needles.push(NeedleSpec {
        position: pos_b,
        prefill_mentions: vec![
            (pos_b + prefill_len / 16).min(prefill_len - 1),
            (pos_b + prefill_len / 8).min(prefill_len - 1),
        ],
        answer_steps: vec![decode_len / 2, 3 * decode_len / 4],
    });
    generate(&spec)
}

/// NarrativeQA-like summary task: two dozen diffuse salient tokens spread
/// over the prompt; every fourth decode step draws on a few of them.
#[must_use]
pub fn summary_task(prefill_len: usize, decode_len: usize, seed: u64) -> DecodeWorkload {
    let mut spec = base_spec("summary", prefill_len, decode_len, seed);
    let n_facts = 24.min(prefill_len / 8).max(1);
    spec.diffuse_salient = (0..n_facts)
        .map(|i| spec.n_sinks + i * (prefill_len - spec.n_sinks - 1) / n_facts)
        .collect();
    generate(&spec)
}

/// Distractor task: one true needle plus several decoy needles that receive
/// *more* prefill attention but are never sought during decode. Policies
/// that rank purely on accumulated prefill attention waste cache on the
/// decoys; dynamic per-step selection must still find the true needle.
#[must_use]
pub fn distractor_task(
    prefill_len: usize,
    decode_len: usize,
    n_distractors: usize,
    seed: u64,
) -> DecodeWorkload {
    let mut spec = base_spec("distractor", prefill_len, decode_len, seed);
    let pos = prefill_len / 2;
    spec.needles.push(NeedleSpec {
        position: pos,
        prefill_mentions: vec![(pos + 3).min(prefill_len - 1)],
        answer_steps: vec![decode_len / 3, 2 * decode_len / 3],
    });
    for i in 0..n_distractors {
        let dpos = (prefill_len / 8) * (i + 1) % prefill_len;
        if dpos == pos {
            continue;
        }
        spec.needles.push(NeedleSpec {
            position: dpos,
            // Heavily mentioned during prefill...
            prefill_mentions: (1..=4)
                .map(|j| (dpos + 5 * j).min(prefill_len - 1))
                .collect(),
            // ...but never sought during decode.
            answer_steps: Vec::new(),
        });
    }
    generate(&spec)
}

/// A serving-style batch of mixed tasks: cycles [`needle_task`],
/// [`multi_hop_task`], and [`summary_task`] across the batch at varying
/// context and decode lengths (1×, 1.5×, and 2× `base_prefill`; 1× and
/// 1.5× `decode_len`), so a batched driver sees heterogeneous sequences
/// that finish at different steps — the shape a real serving batch has.
/// Task kind cycles with the index while the length multipliers cycle at
/// different strides, so kind and length are decorrelated: large enough
/// batches contain every task kind at every context length.
///
/// Each workload gets a distinct seed derived from `seed` and its index,
/// and its name is suffixed with `#<index>` so per-sequence results stay
/// attributable.
///
/// # Panics
///
/// Panics if `n == 0` or the lengths are too small to plant the tasks'
/// needles (same constraints as the underlying task builders; in practice
/// `base_prefill ≥ 32` and `decode_len ≥ 4` are safe).
#[must_use]
pub fn mixed_batch(
    n: usize,
    base_prefill: usize,
    decode_len: usize,
    seed: u64,
) -> Vec<DecodeWorkload> {
    assert!(n > 0, "batch must contain at least one workload");
    (0..n)
        .map(|i| {
            let prefill = base_prefill + ((i / 3) % 3) * base_prefill / 2;
            let decode = decode_len + ((i / 2) % 2) * decode_len / 2;
            let s = seed.wrapping_add(1 + i as u64);
            let mut w = match i % 3 {
                0 => needle_task(prefill, decode, s),
                1 => multi_hop_task(prefill, decode, s),
                _ => summary_task(prefill, decode, s),
            };
            w.name = format!("{}#{i}", w.name);
            w
        })
        .collect()
}

/// A multi-turn batch against one shared system prompt: every workload
/// carries **bit-identical** prefill keys, values, and queries (same
/// seed, same prompt structure — the generator's prefix draws precede and
/// are independent of the decode draws), while each "turn" seeks the
/// planted fact at a different decode step, so decode-side queries and
/// ground-truth salient sets differ per session. This is the shape a
/// shared-prefix cache exists for: N sessions whose prompts fingerprint
/// identically but whose decodes diverge.
///
/// Names are suffixed `#<index>`; the prefix planes are what a
/// `PrefixRegistry` fingerprints, and the name is deliberately excluded.
///
/// # Panics
///
/// Panics if `n == 0`, or if `prefill_len`/`decode_len` are too small to
/// plant the needle (`prefill_len ≥ 8` and `decode_len ≥ 2` are safe).
#[must_use]
pub fn shared_prefix_batch(
    n: usize,
    prefill_len: usize,
    decode_len: usize,
    seed: u64,
) -> Vec<DecodeWorkload> {
    assert!(n > 0, "batch must contain at least one workload");
    let pos = prefill_len / 2;
    (0..n)
        .map(|i| {
            let mut spec = base_spec("shared_prefix", prefill_len, decode_len, seed);
            spec.needles.push(NeedleSpec {
                position: pos,
                prefill_mentions: vec![
                    (pos + prefill_len / 8).min(prefill_len - 1),
                    (pos + prefill_len / 4).min(prefill_len - 1),
                ],
                // The only per-turn variation: which decode step asks.
                answer_steps: vec![(2 + 7 * i) % decode_len],
            });
            let mut w = generate(&spec);
            w.name = format!("{}#{i}", w.name);
            w
        })
        .collect()
}

/// Parameters of the Poisson-ish serving arrival generator
/// ([`poisson_arrivals`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrivalSpec {
    /// Number of requests to generate.
    pub n_requests: usize,
    /// Mean inter-arrival gap in scheduler ticks (exponentially
    /// distributed, floored to whole ticks — several requests can share a
    /// tick at high load).
    pub mean_interarrival_ticks: f64,
    /// Number of tenants arrivals are spread across (uniformly at random).
    pub n_tenants: usize,
    /// Every `high_priority_every`-th request (1-based cadence) is marked
    /// high priority; `0` marks none.
    pub high_priority_every: usize,
    /// Base prompt length handed to [`mixed_batch`] (lengths then vary
    /// 1×/1.5×/2× across the batch).
    pub base_prefill: usize,
    /// Base decode length handed to [`mixed_batch`] (varies 1×/1.5×).
    pub decode_len: usize,
    /// RNG seed (arrival gaps and tenant draws; workload content uses the
    /// same seed through [`mixed_batch`]).
    pub seed: u64,
}

/// One request arriving at a serving queue: *when* it lands, *who* sent
/// it, *how urgent* it is, and the decode work it carries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrivalEvent {
    /// Scheduler tick at which the request arrives.
    pub at_tick: u64,
    /// Tenant the request belongs to.
    pub tenant: usize,
    /// Whether the request is in the high-priority class.
    pub high_priority: bool,
    /// The decode work itself.
    pub workload: DecodeWorkload,
}

/// Generates a Poisson-ish arrival trace: inter-arrival gaps are
/// exponentially distributed with the spec's mean (floored to whole
/// ticks), tenants are drawn uniformly, and the carried workloads are the
/// heterogeneous [`mixed_batch`] mix. Deterministic per seed, and ticks
/// are non-decreasing, so the trace can be replayed straight into a
/// serving queue.
///
/// # Panics
///
/// Panics if `n_requests == 0`, `n_tenants == 0`, or
/// `mean_interarrival_ticks` is not finite and positive.
#[must_use]
pub fn poisson_arrivals(spec: &ArrivalSpec) -> Vec<ArrivalEvent> {
    assert!(spec.n_requests > 0, "arrival trace must contain requests");
    assert!(spec.n_tenants > 0, "arrivals need at least one tenant");
    assert!(
        spec.mean_interarrival_ticks.is_finite() && spec.mean_interarrival_ticks > 0.0,
        "mean inter-arrival must be positive"
    );
    let mut rng = ChaCha8Rng::seed_from_u64(spec.seed ^ 0xA221_7AE5);
    let workloads = mixed_batch(
        spec.n_requests,
        spec.base_prefill,
        spec.decode_len,
        spec.seed,
    );
    let mut tick = 0u64;
    workloads
        .into_iter()
        .enumerate()
        .map(|(i, workload)| {
            if i > 0 {
                // Inverse-CDF exponential draw, floored to whole ticks.
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                tick += (-u.ln() * spec.mean_interarrival_ticks).floor() as u64;
            }
            ArrivalEvent {
                at_tick: tick,
                tenant: rng.gen_range(0..spec.n_tenants),
                high_priority: spec.high_priority_every != 0
                    && (i + 1) % spec.high_priority_every == 0,
                workload,
            }
        })
        .collect()
}

/// Per-layer decode workloads for a K-layer attention stack with
/// depth-varying retrieval difficulty — the workload shape the DepthKV /
/// LAVa observation predicts: **front layers spread salient mass over many
/// diffuse facts** (they need a large share of the KV budget to keep them
/// all resident), while **deep layers concentrate on a couple of sharp
/// facts** (a small share suffices). A budget allocator that front-loads
/// the global budget should therefore beat a uniform split at equal total
/// memory.
///
/// All layers share `prefill_len`/`decode_len` (a stacked decode steps
/// every layer once per step) but draw from distinct seeds, and layer `l`
/// is named `layer_stack#L<l>`. The number of planted facts interpolates
/// from `max(2, prefill_len / 6)` at layer 0 down to 2 at the deepest
/// layer; a single-layer stack (`n_layers == 1`) gets the front-layer
/// workload.
///
/// # Panics
///
/// Panics if `n_layers == 0` or `prefill_len`/`decode_len` are too small
/// to plant the facts (`prefill_len ≥ 16` and `decode_len ≥ 4` are safe).
#[must_use]
pub fn layer_stack_tasks(
    n_layers: usize,
    prefill_len: usize,
    decode_len: usize,
    seed: u64,
) -> Vec<DecodeWorkload> {
    assert!(n_layers > 0, "a layer stack needs at least one layer");
    let max_facts = (prefill_len / 6).max(2);
    let min_facts = 2usize;
    (0..n_layers)
        .map(|l| {
            let depth = if n_layers > 1 {
                l as f64 / (n_layers - 1) as f64
            } else {
                0.0
            };
            let n_facts = ((max_facts as f64) * (1.0 - depth) + (min_facts as f64) * depth)
                .round()
                .max(min_facts as f64) as usize;
            let mut spec = base_spec(
                "layer_stack",
                prefill_len,
                decode_len,
                seed.wrapping_add(1 + 31 * l as u64),
            );
            spec.diffuse_salient = (0..n_facts)
                .map(|i| spec.n_sinks + i * (prefill_len - spec.n_sinks - 1) / n_facts)
                .collect();
            let mut w = generate(&spec);
            w.name = format!("{}#L{l}", w.name);
            w
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::attention_scores;
    use crate::metrics::cosine_similarity;

    #[test]
    fn shared_prefix_batch_prefixes_are_bit_identical_and_turns_differ() {
        let batch = shared_prefix_batch(6, 64, 12, 9);
        assert_eq!(batch.len(), 6);
        let first = &batch[0];
        for w in &batch[1..] {
            // The whole prefix — exactly what a prefix registry
            // fingerprints — must match bit for bit.
            assert_eq!(w.prefill_keys, first.prefill_keys);
            assert_eq!(w.prefill_values, first.prefill_values);
            assert_eq!(w.prefill_queries, first.prefill_queries);
            assert_eq!(w.dim, first.dim);
        }
        // ...while the turns themselves diverge: some pair of sessions
        // asks at different steps, with different queries.
        assert!(
            batch
                .iter()
                .any(|w| w.salient_at != first.salient_at || w.answer_steps != first.answer_steps),
            "turns must vary across the batch"
        );
        assert!(batch
            .iter()
            .any(|w| w.decode_queries != first.decode_queries));
        for (i, w) in batch.iter().enumerate() {
            assert_eq!(w.name, format!("shared_prefix#{i}"));
            assert_eq!(w.decode_queries.len(), 12);
            assert!(w.salient_at.iter().any(|s| !s.is_empty()));
        }
    }

    #[test]
    fn layer_stack_tasks_front_loads_salient_mass() {
        let stack = layer_stack_tasks(4, 192, 16, 7);
        assert_eq!(stack.len(), 4);
        let fact_count = |w: &DecodeWorkload| {
            let mut facts = BTreeSet::new();
            for s in &w.salient_at {
                facts.extend(s.iter().copied());
            }
            facts.len()
        };
        for (l, w) in stack.iter().enumerate() {
            assert_eq!(w.name, format!("layer_stack#L{l}"));
            assert_eq!(w.prefill_keys.len(), 192);
            assert_eq!(w.decode_queries.len(), 16);
            assert!(!w.answer_steps.is_empty());
        }
        // The workload plants more facts up front than at depth (the picks
        // are random subsets, so compare the planted spec sizes loosely).
        assert!(
            fact_count(&stack[0]) > fact_count(&stack[3]),
            "front layer must carry more distinct salient facts ({} vs {})",
            fact_count(&stack[0]),
            fact_count(&stack[3])
        );
        // Deterministic per seed; single-layer stacks are valid.
        assert_eq!(stack, layer_stack_tasks(4, 192, 16, 7));
        assert_eq!(layer_stack_tasks(1, 64, 8, 3).len(), 1);
    }

    #[test]
    fn needle_task_shapes_are_consistent() {
        let w = needle_task(256, 32, 1);
        assert_eq!(w.prefill_keys.len(), 256);
        assert_eq!(w.prefill_queries.len(), 256);
        assert_eq!(w.decode_queries.len(), 32);
        assert_eq!(w.salient_at.len(), 32);
        assert_eq!(w.total_tokens(), 288);
        assert!(!w.answer_steps.is_empty());
    }

    #[test]
    fn workloads_are_seed_deterministic() {
        let a = needle_task(128, 16, 9);
        let b = needle_task(128, 16, 9);
        let c = needle_task(128, 16, 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn answer_queries_rank_needle_highly() {
        let w = needle_task(256, 32, 2);
        let needle_pos = 128;
        for &step in &w.answer_steps {
            let q = &w.decode_queries[step];
            let keys: Vec<&[f32]> = w.prefill_keys.iter().map(Vec::as_slice).collect();
            let scores = attention_scores(q, &keys);
            let rank = scores.iter().filter(|&&s| s > scores[needle_pos]).count();
            assert!(
                rank < 8,
                "needle must rank near the top at answer step {step}, rank {rank}"
            );
        }
    }

    #[test]
    fn non_answer_queries_do_not_seek_needle() {
        let w = needle_task(256, 32, 3);
        let needle_pos = 128;
        let unscored: Vec<usize> = (0..32)
            .filter(|s| !w.answer_steps.contains(s))
            .take(4)
            .collect();
        for step in unscored {
            let q = &w.decode_queries[step];
            let keys: Vec<&[f32]> = w.prefill_keys.iter().map(Vec::as_slice).collect();
            let scores = attention_scores(q, &keys);
            let rank = scores.iter().filter(|&&s| s > scores[needle_pos]).count();
            assert!(rank > 3, "needle should not dominate unscored step {step}");
        }
    }

    #[test]
    fn sink_tokens_attract_every_query() {
        let w = needle_task(256, 32, 4);
        let keys: Vec<&[f32]> = w.prefill_keys.iter().map(Vec::as_slice).collect();
        let mut sink_better = 0usize;
        let mut total = 0usize;
        for q in w.decode_queries.iter() {
            let scores = attention_scores(q, &keys);
            let sink_mean: f32 = scores[..4].iter().sum::<f32>() / 4.0;
            let mid_mean: f32 = scores[100..140].iter().sum::<f32>() / 40.0;
            total += 1;
            if sink_mean > mid_mean {
                sink_better += 1;
            }
        }
        assert!(
            sink_better * 10 >= total * 9,
            "sinks must outscore mid-context for ≥90% of queries ({sink_better}/{total})"
        );
    }

    #[test]
    fn multi_hop_final_answer_needs_both_needles() {
        let w = multi_hop_task(512, 64, 5);
        let last_answer = *w.answer_steps.last().unwrap();
        assert_eq!(
            w.salient_at[last_answer].len(),
            2,
            "multi-hop step must need two facts"
        );
    }

    #[test]
    fn summary_task_has_diffuse_salience() {
        let w = summary_task(512, 64, 6);
        assert!(w.answer_steps.len() >= 8);
        let all: BTreeSet<usize> = w
            .salient_at
            .iter()
            .flat_map(|s| s.iter().copied())
            .collect();
        assert!(
            all.len() >= 10,
            "salient mass must be diffuse, got {}",
            all.len()
        );
    }

    #[test]
    fn needle_value_dominates_reference_output_at_answer_steps() {
        let w = needle_task(256, 32, 7);
        let reference = w.full_attention_reference();
        let needle_value = &w.prefill_values[128];
        let step = w.answer_steps[0];
        let sim = cosine_similarity(&reference[step], needle_value);
        assert!(
            sim > 0.5,
            "reference output must carry the needle value, sim {sim}"
        );
    }

    #[test]
    fn reference_outputs_have_decode_length() {
        let w = summary_task(128, 24, 8);
        assert_eq!(w.full_attention_reference().len(), 24);
    }

    #[test]
    fn mixed_batch_varies_tasks_and_lengths() {
        let batch = mixed_batch(9, 64, 8, 42);
        assert_eq!(batch.len(), 9);
        // Task kinds cycle needle → multi_hop → summary.
        assert!(batch[0].name.starts_with("needle#0"));
        assert!(batch[1].name.starts_with("multi_hop#1"));
        assert!(batch[2].name.starts_with("summary#2"));
        assert!(batch[3].name.starts_with("needle#3"));
        // Context lengths cycle 1×/1.5×/2× at stride 3, decode lengths
        // 1×/1.5× at stride 2.
        assert_eq!(batch[0].prefill_keys.len(), 64);
        assert_eq!(batch[3].prefill_keys.len(), 96);
        assert_eq!(batch[6].prefill_keys.len(), 128);
        assert_eq!(batch[0].decode_queries.len(), 8);
        assert_eq!(batch[2].decode_queries.len(), 12);
        // Kind and length are decorrelated: the same kind appears at
        // different context lengths (needle at 1×, 1.5×, and 2×).
        assert!(batch[0].name.starts_with("needle"));
        assert!(batch[6].name.starts_with("needle"));
        assert_ne!(batch[0].prefill_keys.len(), batch[6].prefill_keys.len());
        // Distinct seeds: same-kind tasks still differ key for key.
        assert_ne!(batch[0].prefill_keys[0], batch[3].prefill_keys[0]);
        // Deterministic per seed.
        assert_eq!(batch, mixed_batch(9, 64, 8, 42));
        assert_ne!(batch, mixed_batch(9, 64, 8, 43));
    }

    #[test]
    #[should_panic(expected = "at least one workload")]
    fn mixed_batch_rejects_empty() {
        let _ = mixed_batch(0, 64, 8, 1);
    }

    #[test]
    fn distractor_task_has_single_true_needle() {
        let w = distractor_task(256, 32, 4, 12);
        let all: BTreeSet<usize> = w
            .salient_at
            .iter()
            .flat_map(|s| s.iter().copied())
            .collect();
        assert_eq!(all.len(), 1, "only the true needle is ever salient");
        assert_eq!(all.iter().next().copied(), Some(128));
        assert_eq!(w.answer_steps.len(), 2);
    }

    fn sample_arrival_spec() -> ArrivalSpec {
        ArrivalSpec {
            n_requests: 40,
            mean_interarrival_ticks: 3.0,
            n_tenants: 3,
            high_priority_every: 5,
            base_prefill: 48,
            decode_len: 8,
            seed: 21,
        }
    }

    #[test]
    fn poisson_arrivals_are_deterministic_and_ordered() {
        let spec = sample_arrival_spec();
        let a = poisson_arrivals(&spec);
        assert_eq!(a.len(), 40);
        assert_eq!(a, poisson_arrivals(&spec));
        assert_eq!(a[0].at_tick, 0);
        for pair in a.windows(2) {
            assert!(pair[0].at_tick <= pair[1].at_tick, "ticks must not regress");
        }
        let mut other = spec;
        other.seed = 22;
        assert_ne!(a, poisson_arrivals(&other));
    }

    #[test]
    fn poisson_arrivals_respect_tenants_and_priority_cadence() {
        let a = poisson_arrivals(&sample_arrival_spec());
        assert!(a.iter().all(|e| e.tenant < 3));
        // Uniform tenant draw over 40 requests hits every tenant.
        let tenants: BTreeSet<usize> = a.iter().map(|e| e.tenant).collect();
        assert_eq!(tenants.len(), 3);
        for (i, e) in a.iter().enumerate() {
            assert_eq!(e.high_priority, (i + 1) % 5 == 0, "request {i}");
        }
        // The carried workloads are the heterogeneous serving mix.
        assert!(a[0].workload.name.starts_with("needle#0"));
        assert!(a[1].workload.name.starts_with("multi_hop#1"));
    }

    #[test]
    fn poisson_arrival_gaps_track_the_requested_mean() {
        let mut spec = sample_arrival_spec();
        spec.n_requests = 400;
        spec.base_prefill = 32;
        spec.decode_len = 4;
        let a = poisson_arrivals(&spec);
        let span = a.last().unwrap().at_tick - a[0].at_tick;
        let mean_gap = span as f64 / (a.len() - 1) as f64;
        // Flooring shaves up to one tick off the exponential mean of 3.
        assert!(
            (1.6..=3.6).contains(&mean_gap),
            "mean gap {mean_gap} strayed from the requested mean of 3"
        );
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn poisson_arrivals_reject_nonpositive_mean() {
        let mut spec = sample_arrival_spec();
        spec.mean_interarrival_ticks = 0.0;
        let _ = poisson_arrivals(&spec);
    }
}
