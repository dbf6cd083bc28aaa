//! The batched decode engine: admits sequences as [`DecodeSession`]s,
//! drives them with a pluggable [`Scheduler`], and retires them into a
//! [`BatchResult`].
//!
//! Two schedulers ship:
//!
//! * [`Sequential`] — the single-threaded round-robin tick loop the
//!   original `simulate_batch` ran, kept bit-identical (property-tested);
//! * [`WorkerPool`] — fans the per-sequence decode work across scoped
//!   worker threads. Sequences in a batch are fully independent (the
//!   shared slot budget is statically partitioned, and policy state is
//!   per-sequence), so any schedule produces the same per-sequence
//!   results; the shared-array peak occupancy is reconstructed from each
//!   session's deterministic [resident
//!   trace](DecodeSession::resident_trace), making the two schedulers'
//!   [`BatchResult`]s identical to the bit.
//!
//! The engine is the serving-shaped entry point the run-to-completion
//! wrappers ([`simulate_decode`](crate::simulate_decode),
//! [`simulate_batch`](crate::simulate_batch)) are now thin layers over.

use std::sync::{Mutex, PoisonError};

use serde::{Deserialize, Serialize};
use unicaim_attention::workloads::DecodeWorkload;

use crate::batch::{aggregate, BatchConfig, BatchResult};
use crate::error::HarnessError;
use crate::policy::Policy;
use crate::session::DecodeSession;
use crate::spec::PolicySpec;

/// Drives a set of admitted sessions to completion.
///
/// Implementations decide *when* each session's next step runs (strict
/// round-robin ticks, thread-pool fan-out, …) but not *what* a step does —
/// that is fixed by [`DecodeSession::step`], which is why every scheduler
/// produces identical per-sequence results.
pub trait Scheduler: Send + Sync {
    /// A short display name for reports.
    fn name(&self) -> &'static str;

    /// Runs every session to completion.
    ///
    /// # Errors
    ///
    /// Propagates the first [`HarnessError`] any session's step raised
    /// (other sessions may be left mid-flight).
    fn run(&self, sessions: &mut [DecodeSession<'_, '_>]) -> Result<(), HarnessError>;

    /// Advances every unfinished session by exactly one decode step — one
    /// *serving tick*. The continuous-batching
    /// [`ServeCore`](crate::ServeCore) drives its running set through this
    /// instead of [`run`](Scheduler::run), so admissions and preemptions
    /// can interleave between ticks. Finished sessions are skipped, and
    /// sessions are independent, so any schedule of the per-session steps
    /// yields identical results; the default is a sequential in-order
    /// pass.
    ///
    /// # Errors
    ///
    /// Propagates the first [`HarnessError`] any session's step raised.
    fn step_once(&self, sessions: &mut [DecodeSession<'_, '_>]) -> Result<(), HarnessError> {
        for session in sessions.iter_mut() {
            if !session.is_done() {
                session.step()?;
            }
        }
        Ok(())
    }
}

/// Single-threaded round-robin schedule: global tick `t` runs step `t` of
/// every sequence that still has queries left, so ragged batches drain the
/// way the original `simulate_batch` loop drained them.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sequential;

impl Scheduler for Sequential {
    fn name(&self) -> &'static str {
        "sequential"
    }

    fn run(&self, sessions: &mut [DecodeSession<'_, '_>]) -> Result<(), HarnessError> {
        // One tick advances every unfinished session by one step — for
        // freshly admitted sessions this is exactly the original
        // `simulate_batch` loop; sessions the caller already stepped
        // partway (the incremental API) simply finish earlier.
        loop {
            let mut stepped = false;
            for session in sessions.iter_mut() {
                if !session.is_done() {
                    session.step()?;
                    stepped = true;
                }
            }
            if !stepped {
                return Ok(());
            }
        }
    }
}

/// Fans independent per-sequence decode across `workers` threads (the
/// calling thread plus `workers − 1` scoped threads): each worker claims
/// the next session and runs it to completion. This is the engine's only
/// level of decode parallelism; a session's own resident scan always runs
/// inline on the thread that claimed it.
///
/// Per-sequence results are identical to [`Sequential`]'s because nothing
/// is shared between sequences mid-run; the throughput win is the
/// ROADMAP's parallel-decode multiplier and scales with
/// `min(workers, batch size)` up to the machine's cores.
#[derive(Debug, Clone, Copy)]
pub struct WorkerPool {
    workers: usize,
}

impl WorkerPool {
    /// A pool with exactly `workers` threads (floored at 1).
    #[must_use]
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
        }
    }

    /// A pool sized to the machine's available parallelism (1 when that
    /// cannot be determined).
    #[must_use]
    pub fn with_available_parallelism() -> Self {
        Self::new(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// Number of worker threads.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Applies `run_one` to every session, fanning across the pool. The
    /// shared skeleton under both [`Scheduler::run`] (run to completion)
    /// and [`Scheduler::step_once`] (advance one tick): workers claim the
    /// next session off a queue, and the first error wins and stops the
    /// claimers. The calling thread is one of the workers, so a call with
    /// one session (or one worker) spawns no thread. Sessions are `Send`
    /// (policies are `Send` by trait bound), so handing `&mut
    /// DecodeSession` to a scoped thread is safe. A panicking `run_one`
    /// re-panics here once every worker has joined.
    fn fan_out<'w, 'p>(
        &self,
        sessions: &mut [DecodeSession<'w, 'p>],
        run_one: impl Fn(&mut DecodeSession<'w, 'p>) -> Result<(), HarnessError> + Sync,
    ) -> Result<(), HarnessError> {
        let workers = self.workers.min(sessions.len());
        // Both mutexes guard single-step state transitions (an iterator
        // `next`, an `Option` insert), so a worker panicking elsewhere
        // cannot leave them mid-update: recover from poisoning rather
        // than cascading a panic through every worker (the original panic
        // still propagates when the scope joins).
        let queue = Mutex::new(sessions.iter_mut());
        let first_error: Mutex<Option<HarnessError>> = Mutex::new(None);
        let claim_loop = || loop {
            if first_error
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .is_some()
            {
                break;
            }
            let claimed = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some(session) = claimed else { break };
            if let Err(e) = run_one(session) {
                first_error
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .get_or_insert(e);
                break;
            }
        };
        std::thread::scope(|scope| {
            for _ in 1..workers {
                scope.spawn(claim_loop);
            }
            claim_loop();
        });
        match first_error
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
        {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl Scheduler for WorkerPool {
    fn name(&self) -> &'static str {
        "worker_pool"
    }

    fn run(&self, sessions: &mut [DecodeSession<'_, '_>]) -> Result<(), HarnessError> {
        self.fan_out(sessions, DecodeSession::run_to_completion)
    }

    fn step_once(&self, sessions: &mut [DecodeSession<'_, '_>]) -> Result<(), HarnessError> {
        self.fan_out(sessions, |session| {
            if !session.is_done() {
                session.step()?;
            }
            Ok(())
        })
    }
}

/// Serializable scheduler choice for [`EngineConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulerSpec {
    /// [`Sequential`] round-robin ticks.
    Sequential,
    /// [`WorkerPool`] with the given thread count; `workers = 0` means
    /// "size to the machine's available parallelism".
    WorkerPool {
        /// Worker thread count (0 = auto).
        workers: usize,
    },
}

impl SchedulerSpec {
    /// Builds the scheduler.
    #[must_use]
    pub fn build(&self) -> Box<dyn Scheduler> {
        match *self {
            SchedulerSpec::Sequential => Box::new(Sequential),
            SchedulerSpec::WorkerPool { workers: 0 } => {
                Box::new(WorkerPool::with_available_parallelism())
            }
            SchedulerSpec::WorkerPool { workers } => Box::new(WorkerPool::new(workers)),
        }
    }
}

/// Builder-style configuration of a [`DecodeEngine`]: the shared-budget
/// batch shape plus the scheduler choice.
///
/// ```
/// use unicaim_kvcache::{EngineConfig, SchedulerSpec};
///
/// let config = EngineConfig::new(768, 32)
///     .with_prefill_budget(80)
///     .with_scheduler(SchedulerSpec::WorkerPool { workers: 0 });
/// assert_eq!(config.batch.total_capacity, 768);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Shared slot budget, top-k width, and per-sequence prefill budget.
    pub batch: BatchConfig,
    /// Which scheduler drives the sessions (default [`Sequential`]).
    pub scheduler: SchedulerSpec,
}

impl EngineConfig {
    /// A sequentially scheduled engine sharing `total_capacity` slots
    /// across the batch with top-`k` selection.
    #[must_use]
    pub fn new(total_capacity: usize, k: usize) -> Self {
        Self::from_batch(BatchConfig::new(total_capacity, k))
    }

    /// Wraps an existing [`BatchConfig`] (sequential scheduling).
    #[must_use]
    pub fn from_batch(batch: BatchConfig) -> Self {
        Self {
            batch,
            scheduler: SchedulerSpec::Sequential,
        }
    }

    /// Sets the per-sequence prefill keep budget (builder-style).
    #[must_use]
    pub fn with_prefill_budget(mut self, budget: usize) -> Self {
        self.batch.prefill_budget = Some(budget);
        self
    }

    /// Sets the key-arena storage precision every admitted session's store
    /// runs at (builder-style; see
    /// [`SimConfig::precision`](crate::SimConfig::precision)).
    #[must_use]
    pub fn with_precision(mut self, precision: unicaim_attention::Precision) -> Self {
        self.batch.precision = precision;
        self
    }

    /// Sets the scheduler (builder-style).
    #[must_use]
    pub fn with_scheduler(mut self, scheduler: SchedulerSpec) -> Self {
        self.scheduler = scheduler;
        self
    }
}

/// The batched decode engine: admit → schedule → retire.
///
/// ```
/// use unicaim_attention::workloads::mixed_batch;
/// use unicaim_kvcache::{DecodeEngine, EngineConfig, PolicySpec};
///
/// let workloads = mixed_batch(4, 64, 8, 17);
/// let engine = DecodeEngine::new(EngineConfig::new(4 * 24, 8));
/// let result = engine
///     .run(&workloads, &PolicySpec::hybrid_for_share(24, 4, 8))
///     .unwrap();
/// assert_eq!(result.n_sequences, 4);
/// ```
pub struct DecodeEngine {
    config: EngineConfig,
    scheduler: Box<dyn Scheduler>,
}

impl DecodeEngine {
    /// Creates the engine, building the scheduler named by the config.
    #[must_use]
    pub fn new(config: EngineConfig) -> Self {
        Self {
            scheduler: config.scheduler.build(),
            config,
        }
    }

    /// Creates the engine with a caller-provided scheduler implementation
    /// (the config's [`SchedulerSpec`] is kept for reporting only).
    #[must_use]
    pub fn with_scheduler(config: EngineConfig, scheduler: Box<dyn Scheduler>) -> Self {
        Self { config, scheduler }
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The active scheduler's display name.
    #[must_use]
    pub fn scheduler_name(&self) -> &'static str {
        self.scheduler.name()
    }

    /// Admits every workload as a prefillled [`DecodeSession`] under its
    /// slot share, minting one policy per sequence from `factory`.
    ///
    /// # Errors
    ///
    /// [`HarnessError::EmptyBatch`] for zero sequences or zero total
    /// decode steps; otherwise the [`DecodeSession::prefill`] contract.
    pub fn admit<'w>(
        &self,
        workloads: &'w [DecodeWorkload],
        factory: &mut dyn FnMut(usize) -> Box<dyn Policy>,
    ) -> Result<Vec<DecodeSession<'w, 'static>>, HarnessError> {
        let n = workloads.len();
        if n == 0 || workloads.iter().all(|w| w.decode_queries.is_empty()) {
            return Err(HarnessError::EmptyBatch);
        }
        workloads
            .iter()
            .enumerate()
            .map(|(i, w)| {
                DecodeSession::prefill(w, factory(i), &self.config.batch.sequence_config(n, i))
            })
            .collect()
    }

    /// Retires driven sessions into the aggregate [`BatchResult`]
    /// (per-sequence results, step-weighted batch means, and the shared
    /// array's peak occupancy reconstructed from the resident traces).
    #[must_use]
    pub fn collect(&self, sessions: Vec<DecodeSession<'_, '_>>) -> BatchResult {
        // Peak shared occupancy: tick t's occupancy is the sum over
        // sequences of the resident count after their step t (sequences
        // already drained hold their final count) — the same quantity the
        // round-robin loop used to sample after every tick, but computed
        // from per-sequence traces so it is schedule-independent.
        let max_ticks = sessions
            .iter()
            .map(|s| s.resident_trace().len().saturating_sub(1))
            .max()
            .unwrap_or(0);
        let peak_resident = (0..=max_ticks)
            .map(|t| {
                sessions
                    .iter()
                    .map(|s| {
                        let trace = s.resident_trace();
                        trace[t.min(trace.len() - 1)]
                    })
                    .sum::<usize>()
            })
            .max()
            .unwrap_or(0);
        let per_sequence = sessions.into_iter().map(DecodeSession::finish).collect();
        aggregate(
            per_sequence,
            self.config.batch.total_capacity,
            peak_resident,
        )
    }

    /// Runs `workloads` to completion, one fresh `spec`-built policy per
    /// sequence.
    ///
    /// # Errors
    ///
    /// [`HarnessError::InvalidSpec`] for an unbuildable spec **or** one
    /// whose budget does not fit the per-sequence slot share
    /// ([`PolicySpec::validate_for`] — a hybrid spec with `H + M`
    /// different from its share would silently mis-prune). A ragged
    /// split (`total_capacity` not divisible by the batch size) produces
    /// exactly two share sizes one slot apart; a single spec cannot
    /// match both, so it is accepted when it matches either (the one-slot
    /// deviation on the other sequences is inherent to the even split,
    /// not a misconfiguration). Otherwise the [`DecodeEngine::run_with`]
    /// contract.
    pub fn run(
        &self,
        workloads: &[DecodeWorkload],
        spec: &PolicySpec,
    ) -> Result<BatchResult, HarnessError> {
        let n = workloads.len();
        if n == 0 {
            spec.validate()?;
        } else {
            // Shares descend by at most one slot from sequence 0 to n−1;
            // validating against both extremes covers every sequence
            // (`validate_for` includes `validate`). When both fail, the
            // widest share's error is the one reported.
            spec.validate_for(&self.config.batch.sequence_config(n, 0))
                .or_else(|widest_err| {
                    spec.validate_for(&self.config.batch.sequence_config(n, n - 1))
                        .map_err(|_| widest_err)
                })?;
        }
        self.run_with(workloads, &mut |_| spec.build())
    }

    /// Runs `workloads` to completion with a caller-supplied per-sequence
    /// policy factory (called once per sequence index).
    ///
    /// # Errors
    ///
    /// [`HarnessError::EmptyBatch`] for zero sequences or zero total
    /// decode steps, and any harness ↔ policy contract violation raised
    /// during prefill or stepping.
    pub fn run_with(
        &self,
        workloads: &[DecodeWorkload],
        factory: &mut dyn FnMut(usize) -> Box<dyn Policy>,
    ) -> Result<BatchResult, HarnessError> {
        let mut sessions = self.admit(workloads, factory)?;
        self.scheduler.run(&mut sessions)?;
        Ok(self.collect(sessions))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::StreamingLlm;
    use unicaim_attention::workloads::mixed_batch;

    fn sample_batch() -> Vec<DecodeWorkload> {
        mixed_batch(5, 64, 8, 13)
    }

    #[test]
    fn sequential_and_worker_pool_agree_exactly() {
        let workloads = sample_batch();
        let spec = PolicySpec::hybrid_for_share(24, 4, 8);
        let seq = DecodeEngine::new(EngineConfig::new(5 * 24, 8))
            .run(&workloads, &spec)
            .unwrap();
        let par = DecodeEngine::new(
            EngineConfig::new(5 * 24, 8).with_scheduler(SchedulerSpec::WorkerPool { workers: 3 }),
        )
        .run(&workloads, &spec)
        .unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn worker_pool_auto_sizing_runs() {
        let workloads = sample_batch();
        let engine = DecodeEngine::new(
            EngineConfig::new(5 * 24, 8).with_scheduler(SchedulerSpec::WorkerPool { workers: 0 }),
        );
        assert_eq!(engine.scheduler_name(), "worker_pool");
        let r = engine
            .run(&workloads, &PolicySpec::StreamingLlm { n_sinks: 2 })
            .unwrap();
        assert_eq!(r.n_sequences, 5);
    }

    #[test]
    fn empty_batch_is_a_typed_error() {
        let engine = DecodeEngine::new(EngineConfig::new(32, 8));
        let err = engine.run(&[], &PolicySpec::OracleTopK).err().unwrap();
        assert_eq!(err, HarnessError::EmptyBatch);

        // Sequences with no decode steps at all are an equally vacuous
        // batch — rejected instead of producing an all-zero result.
        let mut stepless = unicaim_attention::workloads::needle_task(32, 4, 1);
        stepless.decode_queries.clear();
        let err = engine
            .run(std::slice::from_ref(&stepless), &PolicySpec::OracleTopK)
            .err()
            .unwrap();
        assert_eq!(err, HarnessError::EmptyBatch);
    }

    #[test]
    fn invalid_spec_is_rejected_before_any_work() {
        let workloads = sample_batch();
        let engine = DecodeEngine::new(EngineConfig::new(5 * 24, 8));
        assert!(matches!(
            engine.run(&workloads, &PolicySpec::BlockTopK { block: 0 }),
            Err(HarnessError::InvalidSpec { .. })
        ));
    }

    #[test]
    fn mismatched_hybrid_budget_is_rejected_in_both_directions() {
        let workloads = sample_batch();
        let engine = DecodeEngine::new(EngineConfig::new(5 * 24, 8));
        // Per-sequence share is 24 slots; H + M must equal it.
        engine
            .run(&workloads, &PolicySpec::hybrid_for_share(24, 4, 8))
            .unwrap();
        for bad in [
            PolicySpec::hybrid_for_share(32, 4, 8), // over-subscribed
            PolicySpec::hybrid_for_share(16, 4, 8), // under-subscribed
        ] {
            assert!(
                matches!(
                    engine.run(&workloads, &bad),
                    Err(HarnessError::InvalidSpec { .. })
                ),
                "{bad:?} must be rejected against a 24-slot share"
            );
        }
    }

    #[test]
    fn ragged_shares_accept_a_hybrid_matching_either_extreme() {
        // 100 slots over 5 sequences: shares are 20,20,20,20,20 — make it
        // ragged: 103 slots gives shares 21,21,21,20,20. A single hybrid
        // spec cannot equal both; matching either share must be accepted
        // (the one-slot deviation is inherent to the even split), while a
        // genuinely mismatched budget still fails.
        let workloads = sample_batch();
        let engine = DecodeEngine::new(EngineConfig::new(103, 8));
        engine
            .run(&workloads, &PolicySpec::hybrid_for_share(21, 4, 8))
            .unwrap();
        engine
            .run(&workloads, &PolicySpec::hybrid_for_share(20, 4, 8))
            .unwrap();
        assert!(matches!(
            engine.run(&workloads, &PolicySpec::hybrid_for_share(24, 4, 8)),
            Err(HarnessError::InvalidSpec { .. })
        ));
    }

    #[test]
    fn worker_pool_surfaces_session_errors() {
        use crate::policy::StepDecision;
        use unicaim_attention::Matrix;

        /// Selects a ghost token on its first step.
        struct Broken;
        impl Policy for Broken {
            fn name(&self) -> &'static str {
                "broken"
            }
            fn prefill_keep(&mut self, attn: &Matrix, budget: usize) -> Vec<usize> {
                (0..attn.rows().min(budget)).collect()
            }
            fn select(
                &mut self,
                _step: usize,
                _scored: &[(usize, f32)],
                _k: usize,
            ) -> StepDecision {
                StepDecision {
                    selected: vec![usize::MAX],
                }
            }
            fn observe(&mut self, _step: usize, _weights: &[(usize, f32)]) {}
            fn evict(&mut self, _step: usize, resident: &[usize]) -> Option<usize> {
                resident.first().copied()
            }
        }

        let workloads = sample_batch();
        let engine = DecodeEngine::new(
            EngineConfig::new(5 * 24, 8).with_scheduler(SchedulerSpec::WorkerPool { workers: 2 }),
        );
        let err = engine
            .run_with(&workloads, &mut |i| {
                if i == 3 {
                    Box::new(Broken)
                } else {
                    Box::new(StreamingLlm::new(2))
                }
            })
            .err()
            .unwrap();
        assert_eq!(
            err,
            HarnessError::SelectedNonResident {
                step: 0,
                token: usize::MAX
            }
        );
    }

    #[test]
    fn worker_pool_propagates_a_panicking_policy() {
        use crate::policy::StepDecision;
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use unicaim_attention::Matrix;

        /// Panics the first time it selects.
        struct PanicsInSelect;
        impl Policy for PanicsInSelect {
            fn name(&self) -> &'static str {
                "panics_in_select"
            }
            fn prefill_keep(&mut self, attn: &Matrix, budget: usize) -> Vec<usize> {
                (0..attn.rows().min(budget)).collect()
            }
            fn select(
                &mut self,
                _step: usize,
                _scored: &[(usize, f32)],
                _k: usize,
            ) -> StepDecision {
                panic!("policy bug in select")
            }
            fn observe(&mut self, _step: usize, _weights: &[(usize, f32)]) {}
            fn evict(&mut self, _step: usize, resident: &[usize]) -> Option<usize> {
                resident.first().copied()
            }
        }

        // Four sessions over two workers: the calling thread and one
        // spawned thread share the queue. Whichever of them claims the
        // broken session, the call must panic — not hang, not return.
        let workloads = mixed_batch(4, 64, 8, 13);
        let engine = DecodeEngine::new(EngineConfig::new(4 * 24, 8));
        let pool = WorkerPool::new(2);
        for broken in [0, 3] {
            for tick in [false, true] {
                let mut sessions = engine
                    .admit(&workloads, &mut |i| -> Box<dyn Policy> {
                        if i == broken {
                            Box::new(PanicsInSelect)
                        } else {
                            Box::new(StreamingLlm::new(2))
                        }
                    })
                    .unwrap();
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    if tick {
                        pool.step_once(&mut sessions)
                    } else {
                        pool.run(&mut sessions)
                    }
                }));
                assert!(
                    outcome.is_err(),
                    "session {broken} (step_once: {tick}) must panic"
                );
            }
        }
    }

    #[test]
    fn sequential_finishes_partially_stepped_sessions() {
        // A caller may step admitted sessions incrementally before handing
        // them to a scheduler; Sequential must finish them rather than
        // stepping past the end.
        let workloads = sample_batch();
        let spec = PolicySpec::StreamingLlm { n_sinks: 2 };
        let engine = DecodeEngine::new(EngineConfig::new(5 * 24, 8));
        let expected = engine.run(&workloads, &spec).unwrap();

        let mut sessions = engine.admit(&workloads, &mut |_| spec.build()).unwrap();
        for _ in 0..3 {
            sessions[1].step().unwrap();
        }
        sessions[2].run_to_completion().unwrap();
        Sequential.run(&mut sessions).unwrap();
        assert!(sessions.iter().all(DecodeSession::is_done));
        assert_eq!(engine.collect(sessions), expected);
    }

    #[test]
    fn step_once_ticks_every_unfinished_session_in_lockstep() {
        // Driving the batch tick-by-tick through step_once (on either
        // scheduler) must reproduce the run-to-completion result exactly,
        // with every session advancing one step per tick until it drains.
        let workloads = sample_batch();
        let spec = PolicySpec::StreamingLlm { n_sinks: 2 };
        let engine = DecodeEngine::new(EngineConfig::new(5 * 24, 8));
        let expected = engine.run(&workloads, &spec).unwrap();

        for scheduler in [
            Box::new(Sequential) as Box<dyn Scheduler>,
            Box::new(WorkerPool::new(3)),
        ] {
            let mut sessions = engine.admit(&workloads, &mut |_| spec.build()).unwrap();
            let mut ticks = 0usize;
            while sessions.iter().any(|s| !s.is_done()) {
                let before: Vec<usize> = sessions.iter().map(DecodeSession::next_step).collect();
                scheduler.step_once(&mut sessions).unwrap();
                for (session, before) in sessions.iter().zip(before) {
                    let expected_step = (before + 1).min(session.steps());
                    assert_eq!(session.next_step(), expected_step);
                }
                ticks += 1;
            }
            // Ragged batch: tick count is the longest sequence.
            assert_eq!(
                ticks,
                workloads
                    .iter()
                    .map(|w| w.decode_queries.len())
                    .max()
                    .unwrap()
            );
            assert_eq!(engine.collect(sessions), expected);
        }
    }

    #[test]
    fn collect_reconstructs_round_robin_peak() {
        // Drive sessions in a deliberately non-round-robin order (each to
        // completion, one after another) and check the peak matches the
        // sequential engine's.
        let workloads = sample_batch();
        let spec = PolicySpec::StreamingLlm { n_sinks: 2 };
        let config = EngineConfig::new(5 * 20, 8);
        let engine = DecodeEngine::new(config);
        let expected = engine.run(&workloads, &spec).unwrap();

        let mut sessions = engine.admit(&workloads, &mut |_| spec.build()).unwrap();
        for session in sessions.iter_mut().rev() {
            session.run_to_completion().unwrap();
        }
        let out_of_order = engine.collect(sessions);
        assert_eq!(out_of_order, expected);
    }

    #[test]
    fn scheduler_spec_roundtrips_through_json() {
        let specs = [
            SchedulerSpec::Sequential,
            SchedulerSpec::WorkerPool { workers: 4 },
        ];
        for spec in specs {
            let text = serde_json::to_string(&spec).unwrap();
            let back: SchedulerSpec = serde_json::from_str(&text).unwrap();
            assert_eq!(back, spec);
        }
    }
}
