//! Incremental per-sequence decode: the serving-shaped session API.
//!
//! A [`DecodeSession`] is one sequence mid-flight: its KV store, its
//! policy, the exact-attention reference, and the metric accumulators.
//! Unlike the run-to-completion [`simulate_decode`](crate::simulate_decode)
//! wrapper, a session is driven *incrementally* — `prefill` admits the
//! sequence, `step` advances it one decode token, `finish` retires it into
//! a [`SimResult`] — which is exactly the lifecycle a serving loop needs:
//! both the [`DecodeEngine`](crate::DecodeEngine)'s worker pool and the
//! continuous-batching [`ServeCore`](crate::ServeCore) drive sessions
//! through this interface (the serve core additionally *drops* sessions
//! mid-flight on preemption and re-prefills them later).
//!
//! Every harness ↔ policy contract violation surfaces as a typed
//! [`HarnessError`] instead of a panic, so one broken sequence can be
//! retired without tearing down its batch.

use std::collections::BTreeSet;
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use unicaim_attention::kernels;
use unicaim_attention::workloads::DecodeWorkload;
use unicaim_attention::{softmax_in_place, AttentionError, KvStore};

use crate::error::HarnessError;
use crate::policy::Policy;
use crate::prefix::{prefix_fingerprint, prefix_words, MatrixLookup, PrefixRegistry};
use crate::sim::{prefill_attention_matrix, DecodeMetrics, SimConfig, SimResult};
use crate::spec::PolicySpec;

/// How a session holds its policy: owned (engine-managed sessions) or
/// borrowed (the thin `simulate_decode` wrapper drives a caller's policy).
enum PolicyHolder<'p> {
    Owned(Box<dyn Policy>),
    Borrowed(&'p mut dyn Policy),
}

impl PolicyHolder<'_> {
    fn as_mut(&mut self) -> &mut dyn Policy {
        match self {
            PolicyHolder::Owned(p) => p.as_mut(),
            PolicyHolder::Borrowed(p) => *p,
        }
    }

    fn as_ref(&self) -> &dyn Policy {
        match self {
            PolicyHolder::Owned(p) => p.as_ref(),
            PolicyHolder::Borrowed(p) => *p,
        }
    }
}

/// What [`DecodeSession::prefill_shared`] reused from (or contributed to)
/// a [`PrefixRegistry`], plus a deterministic accounting of the prefill
/// work actually spent versus what a cold prefill would have cost.
///
/// Flop counts use a fixed cost model (multiply-accumulates of the
/// attention-matrix build, per-row store writes including quantization,
/// and the fingerprint hash/verify passes), so the numbers are exactly
/// reproducible across runs and platforms — they gate the `prefix_reuse`
/// benchmark baselines.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReuseReport {
    /// The registry held a verified matching prefix (the attention-matrix
    /// recompute was skipped).
    pub prefix_hit: bool,
    /// The KV store was built by splicing cached pages (the per-row
    /// writes and quantization were skipped too).
    pub spliced: bool,
    /// The fingerprint matched a different prefix's entry (hash
    /// collision): the session fell back to a cold prefill and cached
    /// nothing.
    pub collision: bool,
    /// Cached pages this session's page table now shares with the
    /// registry.
    pub pages_shared: usize,
    /// Kept prefix rows resident without being re-written.
    pub rows_shared: usize,
    /// Bytes of key/value/quantized-shadow storage those shared rows
    /// would have duplicated under per-session flat arenas.
    pub bytes_saved: usize,
    /// What a cold prefill of this workload costs in the fixed flop
    /// model.
    pub flops_cold: u64,
    /// What this prefill actually spent (hashing and verification
    /// included).
    pub flops_spent: u64,
}

impl ReuseReport {
    /// Fraction of cold-prefill work avoided: `1 − spent/cold`. Slightly
    /// negative on a cold miss (the fingerprint pass is pure overhead),
    /// approaching 1 on a full splice of a long prefix.
    #[must_use]
    pub fn work_reduction(&self) -> f64 {
        if self.flops_cold == 0 {
            return 0.0;
        }
        1.0 - (self.flops_spent as f64) / (self.flops_cold as f64)
    }
}

/// What one [`DecodeSession::step`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StepOutcome {
    /// The decode step that just ran (0-based).
    pub step: usize,
    /// Number of tokens the policy selected for exact attention.
    pub selected: usize,
    /// Resident tokens after the step's insert/evict.
    pub resident: usize,
    /// Whether the newly generated token entered the cache (`false` means
    /// the policy refused to evict and the incoming token was dropped).
    pub inserted: bool,
    /// Decode steps still to run after this one.
    pub remaining: usize,
}

/// One sequence mid-decode: KV store, policy, reference outputs, and
/// metric accumulators, advanced one token at a time.
///
/// The per-step core (score residents → select → exact attention over the
/// selection → observe weights over all residents → insert the new token,
/// evicting on overflow) is shared by every driver in this crate:
/// [`simulate_decode`](crate::simulate_decode) drives one borrowed-policy
/// session to completion, and the [`DecodeEngine`](crate::DecodeEngine)'s
/// worker pool drives many owned-policy sessions concurrently. A batch of
/// size 1 therefore reproduces the single-sequence driver bit for bit
/// (property-tested in `tests/properties.rs`).
///
/// Sessions are [`Send`] (policies are required to be `Send`, see
/// [`Policy`]), so the [`WorkerPool`](crate::WorkerPool) can fan them
/// across threads.
pub struct DecodeSession<'w, 'p> {
    workload: &'w DecodeWorkload,
    policy: PolicyHolder<'p>,
    config: SimConfig,
    store: KvStore,
    reference: Vec<Vec<f32>>,
    /// `1/√dim`, the attention score scale.
    inv_sqrt_dim: f32,
    /// The next decode step to run; `steps()` when the session is done.
    next_step: usize,
    /// Logical resident-token ceiling within the store's fixed physical
    /// envelope. Defaults to the physical `config.capacity`, in which case
    /// decode behavior is exactly the historical one (a free slot exists
    /// iff `len < capacity`). A [`LayerStackSession`](crate::LayerStackSession)
    /// lowers/raises it when a budget allocator moves slots between
    /// layers; the insert stage refuses the free-slot fast path while the
    /// session sits at (or above) the limit, forcing the policy's evict
    /// decision instead.
    capacity_limit: usize,
    /// Resident-token count after prefill and after each completed step —
    /// the occupancy trajectory the engine aggregates shared-array peaks
    /// from (deterministic per sequence, so any schedule reconstructs the
    /// same peak).
    resident_trace: Vec<usize>,
    // Reused per-step scratch buffers: in the steady state a step
    // allocates only the policy's `StepDecision` and, at answer steps,
    // the salience sets (see the `kernels` module docs).
    scored: Vec<(usize, f32)>,
    /// Slots of the resident tokens, in `scored` order — the gather list
    /// the scan kernel reads.
    scan_slots: Vec<usize>,
    /// Scaled scores written by the scan, zipped back into `scored`.
    scan_scores: Vec<f32>,
    /// The current step's query quantized to symmetric `i8` (quantized
    /// precisions only; unused for `f32` sessions).
    query_q: Vec<i8>,
    /// Dequantization scale of `query_q`.
    query_scale: f32,
    sel_slots: Vec<usize>,
    weights: Vec<f32>,
    output: Vec<f32>,
    observed: Vec<(usize, f32)>,
    resident_scratch: Vec<usize>,
    metrics: DecodeMetrics,
}

impl<'w> DecodeSession<'w, 'static> {
    /// Admits a sequence with an owned policy: runs the prefill stage
    /// (causal attention matrix, the policy's static keep decision, the
    /// initial KV-store population) and returns the session ready to
    /// [`step`](DecodeSession::step).
    ///
    /// # Errors
    ///
    /// [`HarnessError::PrefillOverBudget`] when the keep set exceeds the
    /// cache capacity, [`HarnessError::PrefillOutOfRange`] /
    /// [`HarnessError::PrefillDuplicate`] when it names a token outside the
    /// prompt or twice.
    pub fn prefill(
        workload: &'w DecodeWorkload,
        policy: Box<dyn Policy>,
        config: &SimConfig,
    ) -> Result<Self, HarnessError> {
        Self::prefill_holder(workload, PolicyHolder::Owned(policy), config)
    }

    /// Admits a sequence from a serializable [`PolicySpec`], rejecting the
    /// spec up front when it cannot be built **or when its budget does not
    /// fit this session's slot budget**
    /// ([`PolicySpec::validate_for`]) — a hybrid spec whose `H + M` does
    /// not match `config.capacity` would otherwise silently mis-prune.
    ///
    /// # Errors
    ///
    /// [`HarnessError::InvalidSpec`] from the cross-check; otherwise the
    /// [`DecodeSession::prefill`] contract.
    pub fn prefill_spec(
        workload: &'w DecodeWorkload,
        spec: &PolicySpec,
        config: &SimConfig,
    ) -> Result<Self, HarnessError> {
        spec.validate_for(config)?;
        Self::prefill(workload, spec.build(), config)
    }

    /// Admits a sequence through a shared [`PrefixRegistry`]: when the
    /// registry holds this workload's prefix, the prefill attention
    /// matrix is reused instead of recomputed, and when it also holds a
    /// page run for this `(precision, keep-set)`, the KV store is built
    /// by **splicing** those refcounted pages into the session's page
    /// table instead of re-writing every kept row.
    ///
    /// The policy's `prefill_keep` always runs (against the cached
    /// matrix, which is verified bit-identical to a recompute), so a
    /// spliced session decodes **bit-identically** to a cold one — later
    /// writes and evictions copy-on-write away from the shared pages
    /// (property-tested across every policy and precision in
    /// `tests/properties.rs`). A fingerprint collision (same hash,
    /// different prefix content) falls back to a cold prefill and caches
    /// nothing.
    ///
    /// # Errors
    ///
    /// [`HarnessError::InvalidSpec`] from [`PolicySpec::validate_for`],
    /// [`HarnessError::PrefixDimMismatch`] when the registry's pages hold
    /// rows of a different width than the workload; otherwise the
    /// [`DecodeSession::prefill`] contract.
    pub fn prefill_shared(
        workload: &'w DecodeWorkload,
        spec: &PolicySpec,
        config: &SimConfig,
        registry: &PrefixRegistry,
    ) -> Result<(Self, ReuseReport), HarnessError> {
        spec.validate_for(config)?;
        if registry.dim() != workload.dim {
            return Err(HarnessError::PrefixDimMismatch {
                registry_dim: registry.dim(),
                workload_dim: workload.dim,
            });
        }
        let mut policy = PolicyHolder::Owned(spec.build());
        let dim = workload.dim;
        let prefill_len = workload.prefill_keys.len();
        let fingerprint = prefix_fingerprint(workload);
        let (attn, prefix_hit, collision) = match registry.lookup_matrix(fingerprint, workload) {
            MatrixLookup::Hit(attn) => (attn, true, false),
            MatrixLookup::Miss => {
                let attn = Arc::new(prefill_attention_matrix(workload));
                registry.insert_matrix(fingerprint, workload, Arc::clone(&attn));
                (attn, false, false)
            }
            MatrixLookup::Collision => (Arc::new(prefill_attention_matrix(workload)), false, true),
        };
        // The policy *always* ranks against the (verified-identical)
        // matrix, so its internal state — and therefore every later
        // decode decision — matches a cold prefill exactly.
        let keep = policy
            .as_mut()
            .prefill_keep(&attn, config.prefill_budget.min(prefill_len));
        validate_keep(&keep, config.capacity, prefill_len)?;

        let mut spliced = false;
        let mut pages_shared = 0;
        let store = if collision {
            let mut store =
                KvStore::with_arena(registry.arena(), config.capacity, config.precision);
            populate_store(&mut store, workload, &keep);
            store
        } else if let Some(pages) = registry.lookup_variant(fingerprint, config.precision, &keep) {
            spliced = true;
            pages_shared = pages.len();
            KvStore::from_shared_prefix(
                registry.arena(),
                config.capacity,
                config.precision,
                &pages,
                &keep,
            )
        } else {
            let mut store =
                KvStore::with_arena(registry.arena(), config.capacity, config.precision);
            populate_store(&mut store, workload, &keep);
            // Snapshot the prefix pages *before* any decode write: the
            // session's own later writes copy-on-write away from them.
            let prefix_pages = keep.len().div_ceil(store.page_rows());
            registry.register_variant(
                fingerprint,
                config.precision,
                &keep,
                &store.pages()[..prefix_pages],
            );
            store
        };

        // Fixed deterministic cost model (multiply-accumulates): the
        // causal matrix build is D·P(P+1)/2, each kept row write is D
        // key + D value moves plus D quantization steps when the store
        // keeps an i8 shadow, and the fingerprint hash/verify each touch
        // every prefix content word (header and three planes) once.
        let quantized = config.precision.is_quantized();
        let matrix_flops = (dim as u64) * (prefill_len as u64) * (prefill_len as u64 + 1) / 2;
        let write_flops = (keep.len() as u64) * (dim as u64) * if quantized { 3 } else { 2 };
        let hash_flops = prefix_words(workload) as u64;
        let flops_cold = matrix_flops + write_flops;
        let mut flops_spent = hash_flops;
        if prefix_hit || collision {
            flops_spent += hash_flops; // content verification pass
        }
        if !prefix_hit {
            flops_spent += matrix_flops;
        }
        if !spliced {
            flops_spent += write_flops;
        }
        let rows_shared = if spliced { keep.len() } else { 0 };
        let row_bytes = 2 * 4 * dim + if quantized { dim + 4 } else { 0 };
        let report = ReuseReport {
            prefix_hit,
            spliced,
            collision,
            pages_shared,
            rows_shared,
            bytes_saved: rows_shared * row_bytes,
            flops_cold,
            flops_spent,
        };
        Ok((Self::assemble(workload, policy, config, store), report))
    }
}

impl<'w, 'p> DecodeSession<'w, 'p> {
    /// Admits a sequence with a borrowed policy (the policy outlives the
    /// session and can be inspected afterwards). Same contract as
    /// [`DecodeSession::prefill`].
    ///
    /// # Errors
    ///
    /// Same contract as [`DecodeSession::prefill`].
    pub fn prefill_borrowed(
        workload: &'w DecodeWorkload,
        policy: &'p mut dyn Policy,
        config: &SimConfig,
    ) -> Result<Self, HarnessError> {
        Self::prefill_holder(workload, PolicyHolder::Borrowed(policy), config)
    }

    fn prefill_holder(
        workload: &'w DecodeWorkload,
        mut policy: PolicyHolder<'p>,
        config: &SimConfig,
    ) -> Result<Self, HarnessError> {
        let prefill_len = workload.prefill_keys.len();
        let attn = prefill_attention_matrix(workload);
        let keep = policy
            .as_mut()
            .prefill_keep(&attn, config.prefill_budget.min(prefill_len));
        drop(attn);
        validate_keep(&keep, config.capacity, prefill_len)?;
        let mut store = KvStore::with_precision(config.capacity, workload.dim, config.precision);
        populate_store(&mut store, workload, &keep);
        Ok(Self::assemble(workload, policy, config, store))
    }

    /// Builds the session struct around an already-populated store — the
    /// tail shared by the cold ([`prefill_holder`](Self::prefill_holder))
    /// and spliced ([`DecodeSession::prefill_shared`]) admission paths.
    fn assemble(
        workload: &'w DecodeWorkload,
        policy: PolicyHolder<'p>,
        config: &SimConfig,
        store: KvStore,
    ) -> Self {
        let dim = workload.dim;
        let resident_trace = vec![store.len()];
        Self {
            workload,
            policy,
            config: *config,
            store,
            reference: workload.full_attention_reference(),
            inv_sqrt_dim: 1.0 / (dim as f32).sqrt(),
            next_step: 0,
            capacity_limit: config.capacity,
            resident_trace,
            scored: Vec::with_capacity(config.capacity),
            scan_slots: Vec::with_capacity(config.capacity),
            scan_scores: Vec::with_capacity(config.capacity),
            query_q: vec![
                0;
                if config.precision.is_quantized() {
                    dim
                } else {
                    0
                }
            ],
            query_scale: 0.0,
            sel_slots: Vec::with_capacity(config.capacity),
            weights: Vec::with_capacity(config.capacity),
            output: vec![0.0; dim],
            observed: Vec::with_capacity(config.capacity),
            resident_scratch: Vec::with_capacity(config.capacity),
            metrics: DecodeMetrics::new(workload),
        }
    }

    /// Total number of decode steps this sequence has.
    #[must_use]
    pub fn steps(&self) -> usize {
        self.workload.decode_queries.len()
    }

    /// The next decode step [`step`](DecodeSession::step) will run
    /// (equals [`steps`](DecodeSession::steps) when done).
    #[must_use]
    pub fn next_step(&self) -> usize {
        self.next_step
    }

    /// Decode steps still to run.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.steps() - self.next_step
    }

    /// Tokens generated so far (completed decode steps) — what a
    /// preempting server discards when it evicts this session, so the
    /// [`ServeCore`](crate::ServeCore) charges it as wasted work.
    #[must_use]
    pub fn tokens_generated(&self) -> usize {
        self.next_step
    }

    /// True when every decode step has run.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.next_step >= self.steps()
    }

    /// Number of currently resident tokens (occupied KV slots).
    #[must_use]
    pub fn resident(&self) -> usize {
        self.store.len()
    }

    /// The logical resident-token ceiling the insert stage enforces
    /// (defaults to the physical capacity; see
    /// [`set_capacity_limit`](Self::set_capacity_limit)).
    #[must_use]
    pub fn capacity_limit(&self) -> usize {
        self.capacity_limit
    }

    /// Sets the logical resident-token ceiling, clamped to the physical
    /// store capacity. Raising it lets future inserts use free slots
    /// again; lowering it below the current residency does **not** evict
    /// by itself — call [`shrink_to_limit`](Self::shrink_to_limit) to
    /// apply the new budget through the policy's eviction decision.
    ///
    /// With the limit at the physical capacity (the default), decode is
    /// bit-identical to a session without a limit: a free slot exists iff
    /// the residency is below capacity.
    pub fn set_capacity_limit(&mut self, limit: usize) {
        self.capacity_limit = limit.min(self.store.capacity());
    }

    /// Evicts through the policy until the residency is within the
    /// logical [`capacity_limit`](Self::capacity_limit), returning how
    /// many tokens were evicted. A policy that refuses to name a victim
    /// (returns `None`) stops the shrink early — the session then sheds
    /// the excess passively, by refusing inserts while over the limit.
    ///
    /// # Errors
    ///
    /// [`HarnessError::EvictedNonResident`] when the policy names a
    /// victim that is not resident (same contract as the per-step evict).
    pub fn shrink_to_limit(&mut self) -> Result<usize, HarnessError> {
        let mut evicted = 0;
        while self.store.len() > self.capacity_limit {
            self.resident_scratch.clear();
            self.resident_scratch
                .extend(self.store.iter_tokens().map(|(t, _)| t));
            let step = self.next_step;
            match self.policy.as_mut().evict(step, &self.resident_scratch) {
                Some(victim) => {
                    let slot = self.store.slot_of_token(victim).ok_or(
                        HarnessError::EvictedNonResident {
                            step,
                            token: victim,
                        },
                    )?;
                    match self.store.evict_slot(slot) {
                        Ok(_) => evicted += 1,
                        // lint:allow(no-panic-in-lib): slot came from slot_of_token two lines up, so it is in range and occupied
                        Err(e) => unreachable!("in-range slot evict failed: {e}"),
                    }
                }
                None => break,
            }
        }
        Ok(evicted)
    }

    /// The post-softmax attention weights over **all** residents observed
    /// at the most recent completed step (token, weight pairs — the same
    /// view the policy's `observe` hook received). Empty before the first
    /// step. A layer stack reads this to estimate per-layer attention
    /// entropy at zero extra hot-path cost.
    #[must_use]
    pub fn last_observed(&self) -> &[(usize, f32)] {
        &self.observed
    }

    /// The policy's display name.
    #[must_use]
    pub fn policy_name(&self) -> &str {
        self.policy.as_ref().name()
    }

    /// The workload this session decodes.
    #[must_use]
    pub fn workload(&self) -> &'w DecodeWorkload {
        self.workload
    }

    /// The configuration the session runs under.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Resident-token count after prefill (index 0) and after each
    /// completed step: the occupancy trajectory a batch aggregator uses to
    /// reconstruct shared-array peaks independently of schedule.
    #[must_use]
    pub fn resident_trace(&self) -> &[usize] {
        &self.resident_trace
    }

    /// Runs the next decode step: score residents → select → exact
    /// attention → observe → insert the new token (evicting on overflow).
    ///
    /// # Errors
    ///
    /// [`HarnessError::SessionExhausted`] when the session
    /// [`is_done`](DecodeSession::is_done);
    /// [`HarnessError::SelectedNonResident`] /
    /// [`HarnessError::EvictedNonResident`] /
    /// [`HarnessError::DuplicateToken`] on the corresponding policy
    /// contract violations. After a contract error the session should be
    /// considered poisoned and retired.
    pub fn step(&mut self) -> Result<StepOutcome, HarnessError> {
        if self.is_done() {
            return Err(HarnessError::SessionExhausted {
                steps: self.steps(),
            });
        }
        let step = self.next_step;
        let workload = self.workload;
        let prefill_len = workload.prefill_keys.len();
        let query = &workload.decode_queries[step];
        let policy = self.policy.as_mut();

        // 1. Score every resident token: one gather pass over the key
        //    arena, already in the ascending-token order the contract
        //    guarantees (no per-step sort). Quantized sessions quantize
        //    the query once, then run the integer kernel against the i8
        //    key arena, rescaling once per row — the software twin of the
        //    array's reduced-precision search.
        self.scored.clear();
        self.scan_slots.clear();
        for (token, slot) in self.store.iter_tokens() {
            self.scored.push((token, 0.0));
            self.scan_slots.push(slot);
        }
        self.scan_scores.clear();
        self.scan_scores.resize(self.scan_slots.len(), 0.0);
        let backend = kernels::active_backend();
        if let Some(qkeys) = self.store.quant_keys_view() {
            self.query_scale = backend.quantize_row_i8(query, &mut self.query_q);
            backend.dot_gather_q(
                &self.query_q,
                self.query_scale,
                qkeys,
                &self.scan_slots,
                self.inv_sqrt_dim,
                &mut self.scan_scores,
            );
        } else {
            backend.dot_gather(
                query,
                self.store.keys_view(),
                &self.scan_slots,
                self.inv_sqrt_dim,
                &mut self.scan_scores,
            );
        }
        for (entry, &score) in self.scored.iter_mut().zip(&self.scan_scores) {
            entry.1 = score;
        }
        // 2. Dynamic selection.
        let decision = policy.select(step, &self.scored, self.config.k);

        // 3. Exact attention over the selection: gather slots, then the
        //    fused score→softmax→weighted-sum kernel over the arenas. The
        //    gather is the step's first fallible point, so no metric
        //    accumulator is touched before it — a session retired after a
        //    contract error aggregates only the steps that fully ran, with
        //    every mean over the same sample count.
        gather_selected_slots(&self.store, &decision.selected, &mut self.sel_slots)
            .map_err(|token| HarnessError::SelectedNonResident { step, token })?;
        if let Some(qkeys) = self.store.quant_keys_view() {
            backend.attend_gather_q(
                &self.query_q,
                self.query_scale,
                qkeys,
                self.store.values_view(),
                &self.sel_slots,
                self.inv_sqrt_dim,
                &mut self.weights,
                &mut self.output,
            );
        } else {
            backend.attend_gather(
                query,
                self.store.keys_view(),
                self.store.values_view(),
                &self.sel_slots,
                self.inv_sqrt_dim,
                &mut self.weights,
                &mut self.output,
            );
        }

        // 4. Fidelity and, at answer steps, salience metrics.
        self.metrics.record_step(
            self.scored.len(),
            &decision.selected,
            &self.output,
            &self.reference[step],
            &workload.salient_at[step],
        );

        // 5. Observe weights over all residents (charge-domain accumulation
        //    sees every row).
        self.weights.clear();
        self.weights.extend(self.scored.iter().map(|&(_, s)| s));
        softmax_in_place(&mut self.weights);
        self.observed.clear();
        self.observed.extend(
            self.scored
                .iter()
                .map(|&(t, _)| t)
                .zip(self.weights.iter().copied()),
        );
        policy.observe(step, &self.observed);

        // 6. Insert the newly generated token, evicting on overflow. The
        //    key/value slices are copied straight into the arenas.
        let new_token = prefill_len + step;
        let new_key = &workload.decode_keys[step];
        let new_value = &workload.decode_values[step];
        let mut inserted = false;
        let below_limit = self.store.len() < self.capacity_limit;
        let free_slot = if below_limit {
            self.store.first_free_slot()
        } else {
            None
        };
        if let Some(slot) = free_slot {
            write_new_token(&mut self.store, slot, new_token, new_key, new_value, step)?;
            policy.note_inserted(new_token);
            inserted = true;
        } else {
            self.resident_scratch.clear();
            self.resident_scratch
                .extend(self.store.iter_tokens().map(|(t, _)| t));
            if let Some(victim) = policy.evict(step, &self.resident_scratch) {
                let slot =
                    self.store
                        .slot_of_token(victim)
                        .ok_or(HarnessError::EvictedNonResident {
                            step,
                            token: victim,
                        })?;
                write_new_token(&mut self.store, slot, new_token, new_key, new_value, step)?;
                policy.note_inserted(new_token);
                inserted = true;
            }
            // None: the incoming token is dropped (policy refused to evict).
        }

        self.next_step += 1;
        self.resident_trace.push(self.store.len());
        Ok(StepOutcome {
            step,
            selected: decision.selected.len(),
            resident: self.store.len(),
            inserted,
            remaining: self.remaining(),
        })
    }

    /// Runs every remaining decode step.
    ///
    /// # Errors
    ///
    /// Propagates the first [`DecodeSession::step`] error.
    pub fn run_to_completion(&mut self) -> Result<(), HarnessError> {
        while !self.is_done() {
            self.step()?;
        }
        Ok(())
    }

    /// Retires the session into its aggregate [`SimResult`]. Finishing
    /// early (before [`is_done`](DecodeSession::is_done)) is allowed: the
    /// result then aggregates only the steps that ran.
    #[must_use]
    pub fn finish(self) -> SimResult {
        self.metrics
            .finish(self.policy.as_ref().name(), self.workload)
    }
}

/// Writes the newly generated token into `slot`, mapping a store-level
/// token collision to the harness error (other store errors are internal
/// invariant violations: the slot came from the store, the dims from the
/// workload).
fn write_new_token(
    store: &mut KvStore,
    slot: usize,
    token: usize,
    key: &[f32],
    value: &[f32],
    step: usize,
) -> Result<(), HarnessError> {
    match store.write_slot_parts(slot, token, key, value) {
        Ok(_) => Ok(()),
        Err(AttentionError::DuplicateToken { token, .. }) => {
            Err(HarnessError::DuplicateToken { step, token })
        }
        // lint:allow(no-panic-in-lib): callers pass a slot below capacity and dim-matched rows, leaving DuplicateToken as the only reachable error
        Err(e) => unreachable!("in-range slot write failed: {e}"),
    }
}

/// Checks a policy's prefill keep set against the harness contract, in
/// the order the contract documents: budget first, then per token (in
/// keep order) range before uniqueness. Shared by the cold and spliced
/// admission paths so both reject an invalid keep set with the *same*
/// typed error.
fn validate_keep(keep: &[usize], capacity: usize, prefill_len: usize) -> Result<(), HarnessError> {
    if keep.len() > capacity {
        return Err(HarnessError::PrefillOverBudget {
            kept: keep.len(),
            capacity,
        });
    }
    let mut seen = BTreeSet::new();
    for &t in keep {
        if t >= prefill_len {
            return Err(HarnessError::PrefillOutOfRange {
                token: t,
                prefill_len,
            });
        }
        if !seen.insert(t) {
            return Err(HarnessError::PrefillDuplicate { token: t });
        }
    }
    Ok(())
}

/// Appends a validated keep set's rows into a fresh store, in keep order
/// (slot `i` holds token `keep[i]` — the layout
/// [`KvStore::from_shared_prefix`] reproduces when splicing).
fn populate_store(store: &mut KvStore, workload: &DecodeWorkload, keep: &[usize]) {
    for &t in keep {
        match store.append_parts(t, &workload.prefill_keys[t], &workload.prefill_values[t]) {
            Ok(_) => {}
            // lint:allow(no-panic-in-lib): the keep set was validated in-budget, in-range, and duplicate-free before this call
            Err(e) => unreachable!("validated prefill insert failed: {e}"),
        }
    }
}

/// Resolves a policy's selection to physical slots (shared by the per-step
/// core and [`attention_over`](crate::attention_over), so the residency
/// contract is enforced — and worded — in exactly one place).
///
/// # Errors
///
/// Returns the first non-resident token (the caller attaches step context).
pub(crate) fn gather_selected_slots(
    store: &KvStore,
    selected: &[usize],
    slots: &mut Vec<usize>,
) -> Result<(), usize> {
    slots.clear();
    for &t in selected {
        slots.push(store.slot_of_token(t).ok_or(t)?);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::{FullCache, HybridStaticDynamic};
    use crate::simulate_decode;
    use unicaim_attention::workloads::needle_task;
    use unicaim_attention::Matrix;

    #[test]
    fn fingerprint_collision_falls_back_to_cold_prefill() {
        let w = needle_task(64, 8, 5);
        let cfg = SimConfig::new(32, 8);
        let spec = PolicySpec::hybrid_for_share(32, 4, 8);
        let mut cold = DecodeSession::prefill_spec(&w, &spec, &cfg).unwrap();
        cold.run_to_completion().unwrap();
        let expected = cold.finish();

        // Plant another workload's content under this workload's
        // fingerprint: every lookup for the real prefix now collides.
        let registry = PrefixRegistry::new(w.dim, 16).unwrap();
        let fingerprint = prefix_fingerprint(&w);
        registry.insert_matrix(
            fingerprint,
            &needle_task(64, 8, 6),
            Arc::new(Matrix::zeros(1, 1)),
        );

        let (mut session, report) =
            DecodeSession::prefill_shared(&w, &spec, &cfg, &registry).unwrap();
        assert!(report.collision);
        assert!(!report.prefix_hit);
        assert!(!report.spliced);
        assert_eq!(report.rows_shared, 0);
        session.run_to_completion().unwrap();
        assert_eq!(session.finish(), expected);
        // The colliding prefill cached nothing: the planted entry still
        // owns the fingerprint and no pages were pinned.
        assert_eq!(registry.stats().collisions, 1);
        assert_eq!(registry.entries(), 1);
        assert_eq!(registry.cached_pages(), 0);
        // A second admission collides again — never a false hit.
        let (_, again) = DecodeSession::prefill_shared(&w, &spec, &cfg, &registry).unwrap();
        assert!(again.collision && !again.spliced);
    }

    #[test]
    fn registry_dim_mismatch_is_a_typed_error() {
        let w = needle_task(48, 6, 2);
        let registry = PrefixRegistry::new(w.dim + 1, 16).unwrap();
        let err = match DecodeSession::prefill_shared(
            &w,
            &PolicySpec::Full,
            &SimConfig::new(64, 8),
            &registry,
        ) {
            Err(e) => e,
            Ok(_) => panic!("expected a dim-mismatch error"),
        };
        assert_eq!(
            err,
            HarnessError::PrefixDimMismatch {
                registry_dim: w.dim + 1,
                workload_dim: w.dim,
            }
        );
    }

    #[test]
    fn session_steps_match_run_to_completion_wrapper() {
        let w = needle_task(96, 12, 1);
        let cfg = SimConfig::new(48, 16).with_prefill_budget(40);
        let mut reference_policy = HybridStaticDynamic::new(40, 8, 16);
        let expected = simulate_decode(&w, &mut reference_policy, &cfg).unwrap();

        let mut session =
            DecodeSession::prefill(&w, Box::new(HybridStaticDynamic::new(40, 8, 16)), &cfg)
                .unwrap();
        assert_eq!(session.steps(), 12);
        assert!(!session.is_done());
        let mut outcomes = Vec::new();
        while !session.is_done() {
            outcomes.push(session.step().unwrap());
        }
        assert_eq!(outcomes.len(), 12);
        assert_eq!(outcomes[0].step, 0);
        assert_eq!(outcomes[11].remaining, 0);
        assert_eq!(session.resident_trace().len(), 13);
        assert_eq!(session.finish(), expected);
    }

    #[test]
    fn prefill_spec_validates_the_budget_cross_check() {
        let w = needle_task(96, 12, 7);
        let cfg = SimConfig::reserved_decode_slots(48, 16, 8);
        // Matching spec admits fine.
        let spec = crate::PolicySpec::hybrid_for_share(48, 8, 16);
        let session = DecodeSession::prefill_spec(&w, &spec, &cfg).unwrap();
        assert_eq!(session.policy_name(), "hybrid_static_dynamic");
        // A mismatched H + M is rejected before any work happens.
        let bad = crate::PolicySpec::hybrid_for_share(64, 8, 16);
        assert!(matches!(
            DecodeSession::prefill_spec(&w, &bad, &cfg),
            Err(HarnessError::InvalidSpec { .. })
        ));
    }

    #[test]
    fn quantized_session_scores_against_the_quantized_arena() {
        use unicaim_attention::Precision;
        let w = needle_task(96, 12, 9);
        let full = SimConfig::new(w.total_tokens(), usize::MAX);
        let run = |precision| {
            let mut session = DecodeSession::prefill(
                &w,
                Box::new(FullCache::new()),
                &full.with_precision(precision),
            )
            .unwrap();
            session.run_to_completion().unwrap();
            session.finish()
        };
        let f32_result = run(Precision::F32);
        let int8 = run(Precision::Int8);
        let cell3 = run(Precision::Cell3Bit);
        // The f32 reference is exact; quantized scoring pays a fidelity
        // cost against the same f32 reference, int8 far less than the
        // five-level cell mode.
        assert!(f32_result.output_cosine > 0.999, "{f32_result:?}");
        assert!(int8.output_cosine > 0.98, "{int8:?}");
        assert!(cell3.output_cosine > 0.5, "{cell3:?}");
        assert!(
            int8.output_rel_error <= cell3.output_rel_error + 1e-9,
            "int8 ({}) must not be worse than cell3 ({})",
            int8.output_rel_error,
            cell3.output_rel_error
        );
        // All three runs are deterministic and finite.
        assert!(int8.output_cosine.is_finite() && cell3.output_cosine.is_finite());
    }

    #[test]
    fn stepping_past_the_end_is_a_typed_error() {
        let w = needle_task(32, 4, 2);
        let mut session = DecodeSession::prefill(
            &w,
            Box::new(FullCache::new()),
            &SimConfig::new(w.total_tokens(), usize::MAX),
        )
        .unwrap();
        session.run_to_completion().unwrap();
        assert_eq!(
            session.step(),
            Err(HarnessError::SessionExhausted { steps: 4 })
        );
    }

    #[test]
    fn early_finish_aggregates_partial_steps() {
        let w = needle_task(48, 8, 3);
        let mut session = DecodeSession::prefill(
            &w,
            Box::new(FullCache::new()),
            &SimConfig::new(w.total_tokens(), usize::MAX),
        )
        .unwrap();
        for _ in 0..3 {
            session.step().unwrap();
        }
        let r = session.finish();
        // `steps` reports the workload length; the means cover 3 steps.
        assert_eq!(r.steps, 8);
        assert!(r.output_cosine > 0.99);
    }

    /// A policy that keeps a fixed, possibly malformed prefill set.
    struct KeepsExactly(Vec<usize>);

    impl Policy for KeepsExactly {
        fn name(&self) -> &'static str {
            "keeps_exactly"
        }
        fn prefill_keep(&mut self, _attn: &Matrix, _budget: usize) -> Vec<usize> {
            self.0.clone()
        }
        fn select(&mut self, _step: usize, _scored: &[(usize, f32)], _k: usize) -> StepDecision {
            StepDecision {
                selected: Vec::new(),
            }
        }
        fn observe(&mut self, _step: usize, _weights: &[(usize, f32)]) {}
        fn evict(&mut self, _step: usize, resident: &[usize]) -> Option<usize> {
            resident.first().copied()
        }
    }

    use crate::policy::StepDecision;

    #[test]
    fn default_capacity_limit_is_the_physical_capacity_and_is_clamped() {
        let w = needle_task(64, 8, 12);
        let cfg = SimConfig::new(48, 8).with_prefill_budget(40);
        let mut session =
            DecodeSession::prefill(&w, Box::new(HybridStaticDynamic::new(40, 8, 8)), &cfg).unwrap();
        assert_eq!(session.capacity_limit(), 48);
        session.set_capacity_limit(10_000);
        assert_eq!(session.capacity_limit(), 48, "clamped to physical capacity");
        assert!(session.last_observed().is_empty(), "no step has run yet");
        session.step().unwrap();
        assert!(!session.last_observed().is_empty());
        let sum: f32 = session.last_observed().iter().map(|&(_, w)| w).sum();
        assert!((sum - 1.0).abs() < 1e-4, "observed weights are a softmax");
    }

    #[test]
    fn capacity_limit_gates_inserts_and_shrinks_through_the_policy() {
        let w = needle_task(64, 12, 8);
        let cfg = SimConfig::new(48, 8).with_prefill_budget(40);
        let mut session =
            DecodeSession::prefill(&w, Box::new(HybridStaticDynamic::new(40, 8, 8)), &cfg).unwrap();
        let before = session.resident();
        assert_eq!(before, 40);
        // Lowering the limit evicts nothing by itself...
        session.set_capacity_limit(32);
        assert_eq!(session.resident(), before);
        // ...the explicit shrink applies it through the policy.
        let evicted = session.shrink_to_limit().unwrap();
        assert_eq!(evicted, before - 32);
        assert_eq!(session.resident(), 32);
        // Steps then hold the residency at the logical limit even though
        // physical free slots exist.
        while !session.is_done() {
            let out = session.step().unwrap();
            assert!(out.resident <= 32, "limit must gate inserts: {out:?}");
        }
        // Raising the limit re-opens the free slots.
        let w2 = needle_task(64, 12, 8);
        let mut grown =
            DecodeSession::prefill(&w2, Box::new(HybridStaticDynamic::new(40, 8, 8)), &cfg)
                .unwrap();
        grown.set_capacity_limit(32);
        grown.shrink_to_limit().unwrap();
        grown.set_capacity_limit(44);
        while !grown.is_done() {
            grown.step().unwrap();
        }
        assert!(grown.resident() > 32, "raised limit must admit inserts");
        assert!(grown.resident() <= 44);
    }

    #[test]
    fn full_capacity_limit_is_bit_identical_to_no_limit() {
        let w = needle_task(96, 16, 17);
        let cfg = SimConfig::reserved_decode_slots(48, 16, 8);
        let spec = crate::PolicySpec::hybrid_for_share(48, 8, 16);
        let mut plain = DecodeSession::prefill_spec(&w, &spec, &cfg).unwrap();
        plain.run_to_completion().unwrap();
        let mut limited = DecodeSession::prefill_spec(&w, &spec, &cfg).unwrap();
        limited.set_capacity_limit(48);
        limited.run_to_completion().unwrap();
        assert_eq!(plain.finish(), limited.finish());
    }

    #[test]
    fn prefill_over_budget_is_a_typed_error() {
        let w = needle_task(32, 4, 4);
        let err = DecodeSession::prefill(
            &w,
            Box::new(KeepsExactly((0..10).collect())),
            &SimConfig::new(8, 4),
        )
        .err()
        .unwrap();
        assert_eq!(
            err,
            HarnessError::PrefillOverBudget {
                kept: 10,
                capacity: 8
            }
        );
    }

    #[test]
    fn prefill_out_of_range_is_a_typed_error() {
        let w = needle_task(32, 4, 5);
        let err = DecodeSession::prefill(
            &w,
            Box::new(KeepsExactly(vec![0, 999])),
            &SimConfig::new(8, 4),
        )
        .err()
        .unwrap();
        assert_eq!(
            err,
            HarnessError::PrefillOutOfRange {
                token: 999,
                prefill_len: 32
            }
        );
    }

    #[test]
    fn prefill_duplicate_is_a_typed_error() {
        let w = needle_task(32, 4, 6);
        let err = DecodeSession::prefill(
            &w,
            Box::new(KeepsExactly(vec![3, 3])),
            &SimConfig::new(8, 4),
        )
        .err()
        .unwrap();
        assert_eq!(err, HarnessError::PrefillDuplicate { token: 3 });
    }
}
