//! The continuous-batching serving core: a long-lived, multi-tenant front
//! end over [`DecodeSession`]s.
//!
//! Where the [`DecodeEngine`](crate::DecodeEngine) admits a fixed batch and
//! drives it to completion, a [`ServeCore`] runs **open-loop**: requests
//! arrive over time, wait in bounded per-tenant queues, are admitted
//! against the shared slot budget, decode alongside whatever else is
//! mid-flight, and retire individually — there is no drain-to-empty
//! barrier between arrivals (vLLM-style continuous batching). The moving
//! parts:
//!
//! * **Admission control** — each admitted request is charged a fixed
//!   session share ([`ServeConfig::session_slots`]) against
//!   [`ServeConfig::total_capacity`]; arrivals that do not fit wait in
//!   their tenant's queue, and a queue at
//!   [`ServeConfig::queue_limit`] bounces the submission (backpressure).
//! * **Per-tenant round-robin fairness** — admission cycles a cursor over
//!   the tenant queues, so one chatty tenant cannot starve the rest.
//! * **Priority preemption** — a queued [`Priority::High`] request that
//!   cannot fit evicts the most recently admitted `Normal` session; the
//!   victim's decoded tokens are discarded and the request is requeued at
//!   the head of its tenant's `Normal`s, behind that tenant's `High`s, for
//!   a fresh re-prefill (the re-prefill makes its eventual output
//!   bit-identical to an undisturbed run — pinned by a property test).
//!   The `High` is seated in the tick that preempts for it, so each `High`
//!   costs at most one preemption.
//! * **Virtual time** — one [`ServeCore::tick`] advances every running
//!   session by one decode step. All latency metrics
//!   ([`ServerMetrics`](crate::ServerMetrics)) are measured in ticks, so a
//!   serving trace produces bit-identical numbers on every machine; wall
//!   clock enters only when a bench times a whole run.
//!
//! Per-tick stepping goes through the same [`WorkerPool`] the engine runs
//! on ([`WorkerPool::step_once`]): sessions are independent, so every
//! worker count produces the same report, to the bit. A one-worker pool
//! steps the sessions in order on the calling thread.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};
use unicaim_attention::workloads::{ArrivalEvent, DecodeWorkload};
use unicaim_attention::Precision;

use crate::engine::{aggregate, BatchResult, SchedulerSpec, WorkerPool};
use crate::error::HarnessError;
use crate::metrics::{MetricsSummary, ServerMetrics};
use crate::prefix::PrefixRegistry;
use crate::session::DecodeSession;
use crate::sim::{SimConfig, SimResult};
use crate::spec::PolicySpec;

/// Scheduling class of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Priority {
    /// Default class: queued FIFO, preemptible.
    Normal,
    /// Latency-sensitive class: jumps ahead of `Normal` requests in its
    /// tenant queue and may preempt a running `Normal` session when the
    /// slot budget is full. Never preempted itself.
    High,
}

/// Configuration of a [`ServeCore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Shared KV-slot budget across all concurrently running sessions
    /// (the UniCAIM array's row count).
    pub total_capacity: usize,
    /// Slots charged per admitted request — its session's cache capacity.
    /// `total_capacity / session_slots` requests can run at once.
    pub session_slots: usize,
    /// Dynamic top-k width for every session.
    pub k: usize,
    /// Decode slots reserved per session: the prefill budget is
    /// `session_slots − reserved_decode_slots` (see
    /// [`SimConfig::reserved_decode_slots`](crate::SimConfig::reserved_decode_slots)).
    pub reserved_decode_slots: usize,
    /// Key-arena storage precision for every session.
    pub precision: Precision,
    /// Bound on each tenant's queue; a submission to a full queue is
    /// rejected (counted, never silently dropped). Preemption requeues are
    /// exempt — a preempted request never bounces.
    pub queue_limit: usize,
    /// How many [`WorkerPool`] threads step each tick's sessions. Sessions
    /// are independent, so every choice yields a bit-identical
    /// [`ServeReport`].
    pub scheduler: SchedulerSpec,
}

impl ServeConfig {
    /// A one-worker core sharing `total_capacity` slots in
    /// `session_slots` shares with top-`k` selection, no reserved decode
    /// slots, f32 arenas, and a queue bound of 16 per tenant.
    #[must_use]
    pub fn new(total_capacity: usize, session_slots: usize, k: usize) -> Self {
        Self {
            total_capacity,
            session_slots,
            k,
            reserved_decode_slots: 0,
            precision: Precision::F32,
            queue_limit: 16,
            scheduler: SchedulerSpec::Sequential,
        }
    }

    /// Sets the per-session reserved decode slots (builder-style).
    #[must_use]
    pub fn with_reserved_decode_slots(mut self, m: usize) -> Self {
        self.reserved_decode_slots = m;
        self
    }

    /// Sets the key-arena storage precision (builder-style).
    #[must_use]
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Sets the per-tenant queue bound (builder-style).
    #[must_use]
    pub fn with_queue_limit(mut self, limit: usize) -> Self {
        self.queue_limit = limit;
        self
    }

    /// Sets the per-tick worker-pool choice (builder-style).
    #[must_use]
    pub fn with_scheduler(mut self, scheduler: SchedulerSpec) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// The [`SimConfig`] every admitted session runs under.
    #[must_use]
    pub fn session_config(&self) -> SimConfig {
        SimConfig::reserved_decode_slots(self.session_slots, self.k, self.reserved_decode_slots)
            .with_precision(self.precision)
    }

    /// Checks the configuration can serve at all.
    ///
    /// # Errors
    ///
    /// [`HarnessError::InvalidServeConfig`] for a zero session share, a
    /// share larger than the total budget, a zero queue bound, a zero `k`,
    /// or reserved decode slots that leave no prefill budget.
    pub fn validate(&self) -> Result<(), HarnessError> {
        let fail = |reason: String| Err(HarnessError::InvalidServeConfig { reason });
        if self.session_slots == 0 {
            return fail("session share of 0 slots cannot hold a session".into());
        }
        if self.session_slots > self.total_capacity {
            return fail(format!(
                "session share of {} slots exceeds the total budget of {} slots",
                self.session_slots, self.total_capacity
            ));
        }
        if self.k == 0 {
            return fail("top-k width of 0 selects nothing".into());
        }
        if self.queue_limit == 0 {
            return fail("queue limit of 0 rejects every submission".into());
        }
        if self.reserved_decode_slots >= self.session_slots {
            return fail(format!(
                "{} reserved decode slots leave no prefill budget in a {}-slot share",
                self.reserved_decode_slots, self.session_slots
            ));
        }
        Ok(())
    }
}

/// What [`ServeCore::submit`] did with a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SubmitOutcome {
    /// Accepted into its tenant's queue; the id keys the eventual
    /// [`CompletedRequest`].
    Queued {
        /// Request id (assigned in submission order).
        id: usize,
    },
    /// Bounced: the tenant's queue was at [`ServeConfig::queue_limit`].
    Rejected,
}

/// A retired request with its serving timeline and decode result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompletedRequest {
    /// Request id from [`SubmitOutcome::Queued`].
    pub id: usize,
    /// Tenant that submitted it.
    pub tenant: usize,
    /// Scheduling class.
    pub priority: Priority,
    /// Tick the request was submitted at.
    pub arrival_tick: u64,
    /// Tick its first token was generated at (after its *final*
    /// admission, so a preempted request's TTFT includes the re-prefill).
    /// `first_token_tick − arrival_tick` is the request's one sample in
    /// the summary's TTFT percentiles.
    pub first_token_tick: u64,
    /// Tick it retired at.
    pub completion_tick: u64,
    /// Times it was preempted before completing. Each preemption discarded
    /// its decoded tokens and requeued it at the head of its tenant's
    /// `Normal`s, so each one cost a re-prefill; a run preempts at most
    /// once per `High` request it seats.
    pub preemptions: u32,
    /// The decode result — bit-identical to running the sequence alone
    /// under [`ServeConfig::session_config`], whatever happened around it.
    pub result: SimResult,
}

/// End-of-run report: per-request results plus the aggregate views.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Every retired request, in completion order.
    pub completed: Vec<CompletedRequest>,
    /// The completed requests folded into the batch aggregate (same
    /// step-weighted means as a [`DecodeEngine`](crate::DecodeEngine) run).
    pub batch: BatchResult,
    /// The serving metrics summary.
    pub summary: MetricsSummary,
}

/// A request waiting in (or bounced back to) a tenant queue.
struct Pending<'w> {
    id: usize,
    tenant: usize,
    priority: Priority,
    arrival_tick: u64,
    preemptions: u32,
    workload: &'w DecodeWorkload,
    spec: PolicySpec,
}

/// One tenant's waiting requests, a deque per class, so every queued
/// `High` precedes every queued `Normal` by construction.
#[derive(Default)]
struct TenantQueue<'w> {
    high: VecDeque<Pending<'w>>,
    normal: VecDeque<Pending<'w>>,
}

impl<'w> TenantQueue<'w> {
    fn len(&self) -> usize {
        self.high.len() + self.normal.len()
    }

    fn class(&mut self, priority: Priority) -> &mut VecDeque<Pending<'w>> {
        match priority {
            Priority::High => &mut self.high,
            Priority::Normal => &mut self.normal,
        }
    }
}

/// Bookkeeping for one running session (kept in a vec parallel to the
/// sessions so the pool can borrow the bare `&mut [DecodeSession]`).
struct RunningMeta<'w> {
    request: Pending<'w>,
    /// The admission tick: a session decodes its first token in the tick
    /// that admits it.
    first_token_tick: u64,
}

/// The continuous-batching serving core. See the module docs for
/// the scheduling model.
///
/// ```
/// use unicaim_attention::workloads::needle_task;
/// use unicaim_kvcache::{PolicySpec, Priority, ServeConfig, ServeCore, SubmitOutcome};
///
/// let workload = needle_task(64, 8, 3);
/// let mut core = ServeCore::new(ServeConfig::new(96, 48, 8)).unwrap();
/// let spec = PolicySpec::hybrid_for_share(48, 0, 8);
/// let outcome = core
///     .submit(&workload, spec, 0, Priority::Normal)
///     .unwrap();
/// assert_eq!(outcome, SubmitOutcome::Queued { id: 0 });
/// core.drain().unwrap();
/// let report = core.report();
/// assert_eq!(report.summary.completed, 1);
/// ```
pub struct ServeCore<'w> {
    config: ServeConfig,
    session_config: SimConfig,
    pool: WorkerPool,
    queues: Vec<TenantQueue<'w>>,
    rr_cursor: usize,
    running: Vec<RunningMeta<'w>>,
    sessions: Vec<DecodeSession<'w, 'static>>,
    completed: Vec<CompletedRequest>,
    metrics: ServerMetrics,
    tick: u64,
    next_id: usize,
    prefix_registry: Option<PrefixRegistry>,
}

impl<'w> ServeCore<'w> {
    /// Creates the core, building the worker pool named by the config.
    ///
    /// # Errors
    ///
    /// [`HarnessError::InvalidServeConfig`] from
    /// [`ServeConfig::validate`].
    pub fn new(config: ServeConfig) -> Result<Self, HarnessError> {
        config.validate()?;
        Ok(Self {
            session_config: config.session_config(),
            pool: config.scheduler.build(),
            queues: Vec::new(),
            rr_cursor: 0,
            running: Vec::new(),
            sessions: Vec::new(),
            completed: Vec::new(),
            metrics: ServerMetrics::new(config.total_capacity),
            tick: 0,
            next_id: 0,
            prefix_registry: None,
            config,
        })
    }

    /// Equips the core with a shared [`PrefixRegistry`]: every admission
    /// (initial or re-admission after preemption) goes through
    /// [`DecodeSession::prefill_shared`], so requests from *any* tenant
    /// that share a prefix splice its cached pages instead of
    /// re-prefilling, and the reuse shows up in
    /// [`ServerMetrics`](crate::ServerMetrics) (`prefix_hits`,
    /// `pages_shared`, `prefix_bytes_saved`). Cloned registries share one
    /// cache, so several cores can draw from the same pool.
    ///
    /// Admission results stay bit-identical with or without a registry
    /// (see [`DecodeSession::prefill_shared`]); a dimension mismatch
    /// between registry and workload surfaces as
    /// [`HarnessError::PrefixDimMismatch`] at admission time.
    #[must_use]
    pub fn with_prefix_registry(mut self, registry: PrefixRegistry) -> Self {
        self.prefix_registry = Some(registry);
        self
    }

    /// The core's configuration.
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Current virtual time (ticks run so far).
    #[must_use]
    pub fn now(&self) -> u64 {
        self.tick
    }

    /// Requests currently waiting across all tenant queues.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.queues.iter().map(TenantQueue::len).sum()
    }

    /// Sessions currently decoding.
    #[must_use]
    pub fn running(&self) -> usize {
        self.sessions.len()
    }

    /// Slots currently charged to running sessions.
    #[must_use]
    pub fn occupied_slots(&self) -> usize {
        self.running() * self.config.session_slots
    }

    /// Slots still free for admission.
    #[must_use]
    pub fn free_slots(&self) -> usize {
        self.config.total_capacity - self.occupied_slots()
    }

    /// The live metric accumulators (counters and per-tick samples).
    #[must_use]
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// Submits a request for `tenant` at the current tick.
    ///
    /// High-priority requests enter their tenant queue ahead of every
    /// queued `Normal` request, preemption victims included (but behind
    /// earlier `High` ones). A full queue rejects the submission — the
    /// caller sees
    /// [`SubmitOutcome::Rejected`] and the rejection counter moves, but
    /// nothing is silently dropped.
    ///
    /// # Errors
    ///
    /// [`HarnessError::InvalidSpec`] when `spec`'s budget does not fit this
    /// core's per-session config ([`PolicySpec::validate_for`]) — checked
    /// here so a bad spec fails at the front door, not mid-flight.
    pub fn submit(
        &mut self,
        workload: &'w DecodeWorkload,
        spec: PolicySpec,
        tenant: usize,
        priority: Priority,
    ) -> Result<SubmitOutcome, HarnessError> {
        spec.validate_for(&self.session_config)?;
        self.metrics.note_submitted(self.tick);
        if self.queues.len() <= tenant {
            self.queues.resize_with(tenant + 1, TenantQueue::default);
        }
        if self.queues[tenant].len() >= self.config.queue_limit {
            self.metrics.note_rejected();
            return Ok(SubmitOutcome::Rejected);
        }
        let id = self.next_id;
        self.next_id += 1;
        let pending = Pending {
            id,
            tenant,
            priority,
            arrival_tick: self.tick,
            preemptions: 0,
            workload,
            spec,
        };
        self.queues[tenant].class(priority).push_back(pending);
        Ok(SubmitOutcome::Queued { id })
    }

    /// Runs one virtual time step: preempt → admit → decode → retire.
    ///
    /// 1. queued `High` requests that cannot fit evict the most recently
    ///    admitted `Normal` sessions, as many as they need (victims requeue
    ///    at the head of their tenant's `Normal`s, behind its `High`s,
    ///    decoded tokens discarded);
    /// 2. the admission cursor cycles the tenant queues round-robin —
    ///    `High`s first, then `Normal`s — admitting while slots remain
    ///    (admission runs the prefill), so every `High` that preempted
    ///    is seated now and each `High` costs at most one preemption;
    /// 3. every running session advances one decode step (through the
    ///    configured [`WorkerPool`]);
    /// 4. finished sessions retire into [`CompletedRequest`]s.
    ///
    /// # Errors
    ///
    /// Any [`HarnessError`] raised by a session's prefill or step
    /// (harness ↔ policy contract violations).
    pub fn tick(&mut self) -> Result<(), HarnessError> {
        self.preempt_for_queued_high();
        self.admit_from_queues()?;

        // Decode: one step per running session, through the pool. Every
        // running session has work by invariant (finished sessions retire
        // at the end of the tick they finish in).
        let steps = self.sessions.len();
        self.pool.step_once(&mut self.sessions)?;

        let resident_tokens: usize = self.sessions.iter().map(DecodeSession::resident).sum();
        self.metrics.sample_tick(
            self.queue_depth(),
            self.occupied_slots(),
            steps,
            resident_tokens,
        );

        // Retire finished sessions (preserving order for the survivors).
        for i in (0..self.sessions.len()).rev() {
            if self.sessions[i].is_done() {
                let session = self.sessions.remove(i);
                let meta = self.running.remove(i);
                let result = session.finish();
                let arrival = meta.request.arrival_tick;
                self.metrics.note_completed(
                    meta.first_token_tick - arrival,
                    self.tick - arrival,
                    result.steps,
                );
                self.completed.push(CompletedRequest {
                    id: meta.request.id,
                    tenant: meta.request.tenant,
                    priority: meta.request.priority,
                    arrival_tick: arrival,
                    first_token_tick: meta.first_token_tick,
                    completion_tick: self.tick,
                    preemptions: meta.request.preemptions,
                    result,
                });
            }
        }

        self.tick += 1;
        Ok(())
    }

    /// Evicts `Normal` sessions (most recently admitted first) until every
    /// queued `High` request fits, or no victim remains. Each eviction
    /// frees one session share, which this tick's admission gives to a
    /// `High`: a `High` never waits behind a victim, so each costs at most
    /// one preemption.
    fn preempt_for_queued_high(&mut self) {
        let queued_high: usize = self.queues.iter().map(|q| q.high.len()).sum();
        while queued_high * self.config.session_slots > self.free_slots() {
            let Some(victim) = self
                .running
                .iter()
                .rposition(|m| m.request.priority == Priority::Normal)
            else {
                break;
            };
            let session = self.sessions.remove(victim);
            let mut meta = self.running.remove(victim);
            self.metrics.note_preempted(session.tokens_generated());
            meta.request.preemptions += 1;
            // Head of the tenant's Normals: the victim re-prefills as soon
            // as no High waits and slots free up, keeping its original
            // arrival tick (the queue bound does not apply — a preempted
            // request never bounces).
            self.queues[meta.request.tenant]
                .normal
                .push_front(meta.request);
        }
    }

    /// Round-robin admission over the tenant queues: `High`s first, then
    /// `Normal`s, while free slots remain.
    fn admit_from_queues(&mut self) -> Result<(), HarnessError> {
        for priority in [Priority::High, Priority::Normal] {
            while self.free_slots() >= self.config.session_slots {
                let n = self.queues.len();
                let Some((tenant, pending)) = (0..n)
                    .map(|o| (self.rr_cursor + o) % n)
                    .find_map(|t| Some((t, self.queues[t].class(priority).pop_front()?)))
                else {
                    break;
                };
                self.rr_cursor = (tenant + 1) % n;
                self.admit(pending)?;
            }
        }
        Ok(())
    }

    /// Prefills one request into a running session — through the shared
    /// prefix registry when one is equipped.
    fn admit(&mut self, pending: Pending<'w>) -> Result<(), HarnessError> {
        let session = match &self.prefix_registry {
            Some(registry) => {
                let (session, reuse) = DecodeSession::prefill_shared(
                    pending.workload,
                    &pending.spec,
                    &self.session_config,
                    registry,
                )?;
                self.metrics.note_prefix_reuse(
                    reuse.prefix_hit,
                    reuse.pages_shared,
                    reuse.bytes_saved,
                );
                session
            }
            None => DecodeSession::prefill(
                pending.workload,
                pending.spec.build(),
                &self.session_config,
            )?,
        };
        self.metrics
            .note_admitted(self.tick - pending.arrival_tick, pending.preemptions > 0);
        self.running.push(RunningMeta {
            request: pending,
            first_token_tick: self.tick,
        });
        self.sessions.push(session);
        Ok(())
    }

    /// Ticks until every queued and running request has retired.
    ///
    /// # Errors
    ///
    /// Propagates the first [`ServeCore::tick`] error.
    pub fn drain(&mut self) -> Result<(), HarnessError> {
        while self.running() > 0 || self.queue_depth() > 0 {
            self.tick()?;
        }
        Ok(())
    }

    /// Replays an arrival trace to completion: submits each event at its
    /// tick (minting its policy through `spec_for`), ticking the core
    /// through the gaps, then drains.
    ///
    /// # Errors
    ///
    /// Any [`ServeCore::submit`] or [`ServeCore::tick`] error; also
    /// [`HarnessError::InvalidServeConfig`] if `events` is not sorted by
    /// arrival tick (a scrambled trace would silently warp every latency
    /// metric).
    pub fn run(
        &mut self,
        events: &'w [ArrivalEvent],
        spec_for: &mut dyn FnMut(&ArrivalEvent) -> PolicySpec,
    ) -> Result<ServeReport, HarnessError> {
        if events.windows(2).any(|w| w[0].at_tick > w[1].at_tick) {
            return Err(HarnessError::InvalidServeConfig {
                reason: "arrival trace must be sorted by tick".into(),
            });
        }
        for event in events {
            while self.tick < event.at_tick {
                self.tick()?;
            }
            let spec = spec_for(event);
            let priority = if event.high_priority {
                Priority::High
            } else {
                Priority::Normal
            };
            self.submit(&event.workload, spec, event.tenant, priority)?;
        }
        self.drain()?;
        Ok(self.report())
    }

    /// The report of everything retired so far: per-request results, the
    /// batch-style aggregate, and the metrics summary.
    #[must_use]
    pub fn report(&self) -> ServeReport {
        let per_sequence: Vec<SimResult> =
            self.completed.iter().map(|c| c.result.clone()).collect();
        ServeReport {
            batch: aggregate(
                per_sequence,
                self.config.total_capacity,
                self.metrics.peak_resident_tokens(),
            ),
            completed: self.completed.clone(),
            summary: self.metrics.summary(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicaim_attention::workloads::{mixed_batch, needle_task, poisson_arrivals, ArrivalSpec};

    /// A 2-concurrent-session core: 2 × 40 slots, k 8, 8 reserved decode
    /// slots per session.
    fn small_config() -> ServeConfig {
        ServeConfig::new(80, 40, 8).with_reserved_decode_slots(8)
    }

    fn spec_for_share() -> PolicySpec {
        PolicySpec::hybrid_for_share(40, 8, 8)
    }

    #[test]
    fn invalid_configs_are_rejected_up_front() {
        for bad in [
            ServeConfig::new(80, 0, 8),
            ServeConfig::new(40, 80, 8),
            ServeConfig::new(80, 40, 0),
            ServeConfig::new(80, 40, 8).with_queue_limit(0),
            ServeConfig::new(80, 40, 8).with_reserved_decode_slots(40),
        ] {
            assert!(
                matches!(
                    ServeCore::new(bad),
                    Err(HarnessError::InvalidServeConfig { .. })
                ),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn registry_equipped_core_is_bit_identical_and_counts_reuse() {
        // Two tenants, four requests against the *same* prompt: the
        // registry-equipped core must decode every request bit-identically
        // to the plain core while paying the prefill once.
        let w = needle_task(48, 8, 3);
        let run = |registry: Option<PrefixRegistry>| {
            let mut core = ServeCore::new(small_config()).unwrap();
            if let Some(registry) = registry {
                core = core.with_prefix_registry(registry);
            }
            for tenant in 0..4 {
                core.submit(&w, spec_for_share(), tenant % 2, Priority::Normal)
                    .unwrap();
            }
            core.drain().unwrap();
            core.report()
        };
        let plain = run(None);
        let registry = PrefixRegistry::new(w.dim, 64).unwrap();
        let shared = run(Some(registry.clone()));

        assert_eq!(shared.completed, plain.completed);
        assert_eq!(plain.summary.prefix_hits, 0);
        assert_eq!(plain.summary.pages_shared, 0);
        // First admission registers, the other three splice.
        assert_eq!(shared.summary.prefix_hits, 3);
        assert!(shared.summary.pages_shared > 0);
        assert!(shared.summary.prefix_bytes_saved > 0);
        assert_eq!(registry.stats().hits, 3);
        assert_eq!(registry.stats().misses, 1);
    }

    #[test]
    fn mismatched_spec_is_rejected_at_submit() {
        let w = needle_task(48, 8, 1);
        let mut core = ServeCore::new(small_config()).unwrap();
        let err = core
            .submit(
                &w,
                PolicySpec::hybrid_for_share(64, 8, 8),
                0,
                Priority::Normal,
            )
            .unwrap_err();
        assert!(matches!(err, HarnessError::InvalidSpec { .. }));
    }

    #[test]
    fn single_request_matches_a_solo_session_bit_for_bit() {
        let w = needle_task(48, 8, 2);
        let config = small_config();
        let mut core = ServeCore::new(config).unwrap();
        core.submit(&w, spec_for_share(), 0, Priority::Normal)
            .unwrap();
        core.drain().unwrap();
        let report = core.report();

        let mut solo =
            DecodeSession::prefill_spec(&w, &spec_for_share(), &config.session_config()).unwrap();
        solo.run_to_completion().unwrap();
        assert_eq!(report.completed.len(), 1);
        assert_eq!(report.completed[0].result, solo.finish());
        // Admitted at tick 0, first token at tick 0, 8 decode steps.
        assert_eq!(report.completed[0].first_token_tick, 0);
        assert_eq!(report.completed[0].completion_tick, 7);
        assert_eq!(report.summary.tokens_completed, 8);
    }

    #[test]
    fn excess_arrivals_queue_and_join_mid_flight() {
        // 2 slots' worth of budget, 4 simultaneous arrivals: two run, two
        // queue, and the queued ones join as the first two retire — the
        // core never drains to zero in between.
        let workloads = mixed_batch(4, 32, 6, 3);
        let mut core = ServeCore::new(small_config()).unwrap();
        for w in &workloads {
            let out = core
                .submit(w, spec_for_share(), 0, Priority::Normal)
                .unwrap();
            assert!(matches!(out, SubmitOutcome::Queued { .. }));
        }
        core.tick().unwrap();
        assert_eq!(core.running(), 2);
        assert_eq!(core.queue_depth(), 2);
        core.drain().unwrap();
        let report = core.report();
        assert_eq!(report.completed.len(), 4);
        assert_eq!(report.summary.preemptions, 0);
        // Ragged lengths: the queued sequences were admitted mid-flight,
        // before the running pair both finished.
        assert!(report.summary.min_occupancy_between_arrivals > 0);
        assert_eq!(report.summary.peak_occupancy_slots, 80);
        assert!(report.summary.peak_resident_tokens <= 80);
    }

    #[test]
    fn full_queue_rejects_with_backpressure() {
        let w = needle_task(32, 6, 4);
        let mut core = ServeCore::new(small_config().with_queue_limit(3)).unwrap();
        let mut outcomes = Vec::new();
        for _ in 0..6 {
            outcomes.push(
                core.submit(&w, spec_for_share(), 0, Priority::Normal)
                    .unwrap(),
            );
        }
        // Nothing has ticked, so all six sit in tenant 0's queue: 3 fit.
        assert_eq!(
            outcomes
                .iter()
                .filter(|o| **o == SubmitOutcome::Rejected)
                .count(),
            3
        );
        assert_eq!(core.metrics().rejected(), 3);
        core.drain().unwrap();
        assert_eq!(core.report().summary.completed, 3);
    }

    #[test]
    fn tenants_are_admitted_round_robin() {
        // Tenant 0 floods its queue; tenant 1 submits one request. With
        // one session's worth of budget, tenant 1 must be admitted second,
        // not after tenant 0's whole queue.
        let workloads = mixed_batch(6, 32, 6, 5);
        let mut core =
            ServeCore::new(ServeConfig::new(40, 40, 8).with_reserved_decode_slots(8)).unwrap();
        for w in &workloads[..5] {
            core.submit(w, spec_for_share(), 0, Priority::Normal)
                .unwrap();
        }
        core.submit(&workloads[5], spec_for_share(), 1, Priority::Normal)
            .unwrap();
        core.drain().unwrap();
        let report = core.report();
        assert_eq!(report.completed.len(), 6);
        let tenant1_done = report.completed.iter().position(|c| c.tenant == 1).unwrap();
        assert!(
            tenant1_done <= 1,
            "tenant 1 must not wait behind tenant 0's whole queue \
             (finished {tenant1_done} of 5)"
        );
    }

    #[test]
    fn high_priority_preempts_and_victim_reprefills_identically() {
        // Fill the core with two long Normal sessions of tenant 0, then
        // submit one High, from another tenant or from the victims' own,
        // or two Highs at once: one Normal is evicted per High, every High
        // is seated in the tick it arrives, and each victim (requeued
        // behind the Highs, not ahead of them) completes after them with a
        // result identical to an undisturbed solo run.
        let long = mixed_batch(2, 48, 12, 6);
        let urgent = [needle_task(32, 6, 7), needle_task(32, 6, 8)];
        let config = small_config();
        for (urgent_tenant, highs) in [(1, 1), (0, 1), (1, 2)] {
            let mut core = ServeCore::new(config).unwrap();
            for w in &long {
                core.submit(w, spec_for_share(), 0, Priority::Normal)
                    .unwrap();
            }
            core.tick().unwrap();
            assert_eq!(core.running(), 2);
            for w in &urgent[..highs] {
                core.submit(w, spec_for_share(), urgent_tenant, Priority::High)
                    .unwrap();
            }
            core.drain().unwrap();
            let report = core.report();
            let case = format!("{highs} High(s) from tenant {urgent_tenant}");
            assert_eq!(report.summary.preemptions, highs as u64, "{case}");
            assert_eq!(report.summary.re_prefills, highs as u64, "{case}");
            assert!(report.summary.wasted_steps > 0);
            assert_eq!(report.completed.len(), 2 + highs);
            let (urgent_done, normals): (Vec<_>, Vec<_>) = report
                .completed
                .iter()
                .partition(|c| c.priority == Priority::High);
            let victims: Vec<_> = normals.iter().filter(|c| c.preemptions == 1).collect();
            assert_eq!(victims.len(), highs, "{case}");
            let last_urgent = urgent_done.iter().map(|c| c.completion_tick).max();
            for done in &urgent_done {
                assert_eq!(done.first_token_tick, done.arrival_tick, "{case}: {done:?}");
            }
            for victim in victims {
                assert!(Some(victim.completion_tick) > last_urgent, "{case}");
                // Bit-identical to a solo run despite the mid-flight
                // eviction.
                let mut solo = DecodeSession::prefill_spec(
                    &long[victim.id],
                    &spec_for_share(),
                    &config.session_config(),
                )
                .unwrap();
                solo.run_to_completion().unwrap();
                assert_eq!(victim.result, solo.finish(), "{case}");
            }
            // The ledger balances once drained.
            assert_eq!(
                report.summary.steps_executed,
                report.summary.tokens_completed + report.summary.wasted_steps
            );
        }
    }

    #[test]
    fn high_priority_sessions_are_never_preempted() {
        // Two running High sessions; a queued High cannot preempt them and
        // must wait for a natural retirement.
        let long = mixed_batch(2, 48, 12, 8);
        let urgent = needle_task(32, 6, 9);
        let mut core = ServeCore::new(small_config()).unwrap();
        for w in &long {
            core.submit(w, spec_for_share(), 0, Priority::High).unwrap();
        }
        core.tick().unwrap();
        core.submit(&urgent, spec_for_share(), 1, Priority::High)
            .unwrap();
        core.drain().unwrap();
        assert_eq!(core.report().summary.preemptions, 0);
    }

    #[test]
    fn run_replays_a_poisson_trace_deterministically() {
        let events = poisson_arrivals(&ArrivalSpec {
            n_requests: 10,
            mean_interarrival_ticks: 3.0,
            n_tenants: 2,
            high_priority_every: 4,
            base_prefill: 32,
            decode_len: 6,
            seed: 11,
        });
        let spec = spec_for_share();
        let run_once = || {
            let mut core = ServeCore::new(small_config()).unwrap();
            core.run(&events, &mut |_| spec.clone()).unwrap()
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a, b);
        assert_eq!(a.summary.submitted, 10);
        assert_eq!(
            a.summary.completed + a.summary.rejected,
            a.summary.submitted
        );
        assert_eq!(a.batch.n_sequences, a.completed.len());
        // ids key back into the event trace.
        for c in &a.completed {
            assert_eq!(c.arrival_tick, events[c.id].at_tick);
        }
    }

    #[test]
    fn run_rejects_a_scrambled_trace() {
        let mut events = poisson_arrivals(&ArrivalSpec {
            n_requests: 4,
            mean_interarrival_ticks: 4.0,
            n_tenants: 1,
            high_priority_every: 0,
            base_prefill: 32,
            decode_len: 4,
            seed: 13,
        });
        events.swap(0, 3);
        assert!(events.windows(2).any(|w| w[0].at_tick > w[1].at_tick));
        let mut core = ServeCore::new(small_config()).unwrap();
        assert!(matches!(
            core.run(&events, &mut |_| spec_for_share()),
            Err(HarnessError::InvalidServeConfig { .. })
        ));
    }

    #[test]
    fn schedulers_produce_identical_reports() {
        let events = poisson_arrivals(&ArrivalSpec {
            n_requests: 8,
            mean_interarrival_ticks: 2.0,
            n_tenants: 2,
            high_priority_every: 3,
            base_prefill: 32,
            decode_len: 6,
            seed: 17,
        });
        let spec = spec_for_share();
        let run_with = |scheduler| {
            let mut core = ServeCore::new(small_config().with_scheduler(scheduler)).unwrap();
            core.run(&events, &mut |_| spec.clone()).unwrap()
        };
        let seq = run_with(SchedulerSpec::Sequential);
        let par = run_with(SchedulerSpec::WorkerPool { workers: 3 });
        assert_eq!(seq, par);
    }

    #[test]
    fn report_and_configs_roundtrip_through_json() {
        let w = needle_task(32, 6, 19);
        let config = small_config();
        let mut core = ServeCore::new(config).unwrap();
        core.submit(&w, spec_for_share(), 0, Priority::High)
            .unwrap();
        core.drain().unwrap();
        let report = core.report();
        let text = serde_json::to_string(&report).unwrap();
        let back: ServeReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back, report);

        let cfg_text = serde_json::to_string(&config).unwrap();
        let cfg_back: ServeConfig = serde_json::from_str(&cfg_text).unwrap();
        assert_eq!(cfg_back, config);
    }
}
