//! The batched decode engine: admits sequences as [`DecodeSession`]s,
//! drives them with a [`WorkerPool`], and retires them into a
//! [`BatchResult`].
//!
//! Sequences in a batch are fully independent (the shared slot budget is
//! statically partitioned, and policy state is per-sequence), so any
//! schedule produces the same per-sequence results; the shared-array peak
//! occupancy is reconstructed from each session's deterministic [resident
//! trace](DecodeSession::resident_trace), so every worker count reports
//! the identical [`BatchResult`], to the bit.
//!
//! The engine is the one batch driver:
//! [`simulate_decode`](crate::simulate_decode) is a run of one session, and
//! the continuous-batching [`ServeCore`](crate::ServeCore) steps its
//! running set through the same [`WorkerPool`] one tick at a time.

use std::sync::{Mutex, PoisonError};

use serde::{Deserialize, Serialize};
use unicaim_attention::workloads::DecodeWorkload;
use unicaim_attention::Precision;

use crate::error::HarnessError;
use crate::policy::Policy;
use crate::pool::Helpers;
use crate::session::DecodeSession;
use crate::sim::{SimConfig, SimResult};
use crate::spec::PolicySpec;

/// Drives admitted sessions: fans independent per-sequence decode across
/// up to `workers` threads (the calling thread plus up to `workers − 1`
/// helper threads the pool owns), each worker claiming the next session.
/// This is the engine's only level of decode parallelism; a session's own
/// resident scan always runs inline on the thread that claimed it.
///
/// A pool decides *when* each session's next step runs but not *what* a
/// step does — that is fixed by [`DecodeSession::step`] — and nothing is
/// shared between sequences mid-run, so every worker count produces
/// identical per-sequence results. A call with one worker or one session
/// steps the sessions in order on the calling thread. The throughput win
/// is the ROADMAP's parallel-decode multiplier and scales with
/// `min(workers, batch size)` up to the machine's cores.
///
/// The helpers live as long as the pool, so a serving tick pays no thread
/// spawn: between calls each one polls briefly for the next call and then
/// sleeps. They start on first use, when a call has work for them: a call
/// over `n` sessions starts helpers until `min(workers, n) − 1` exist. A
/// helper therefore inherits the CPU affinity of the thread that made that
/// call, not of the thread that built the pool. If the OS refuses a
/// thread, calls run with the helpers already started, or on the calling
/// thread alone. Dropping the pool joins its helpers. Threads may share a
/// pool; their calls then take turns.
pub struct WorkerPool {
    workers: usize,
    helpers: Helpers,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// A pool of `workers` workers (floored at 1). It starts no thread
    /// until a call has work for a second worker.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
            helpers: Helpers::new(),
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

    /// Number of workers, the calling thread included.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs every session to completion.
    ///
    /// # Errors
    ///
    /// Propagates the first [`HarnessError`] any session's step raised
    /// (other sessions may be left mid-flight).
    pub fn run(&self, sessions: &mut [DecodeSession<'_, '_>]) -> Result<(), HarnessError> {
        self.fan_out(sessions, DecodeSession::run_to_completion)
    }

    /// Advances every unfinished session by exactly one decode step — one
    /// *serving tick*. The continuous-batching
    /// [`ServeCore`](crate::ServeCore) drives its running set through this
    /// instead of [`run`](WorkerPool::run), so admissions and preemptions
    /// can interleave between ticks; the pool's helpers wait between ticks
    /// instead of starting anew for each. Finished sessions are skipped.
    ///
    /// # Errors
    ///
    /// Propagates the first [`HarnessError`] any session's step raised.
    pub fn step_once(&self, sessions: &mut [DecodeSession<'_, '_>]) -> Result<(), HarnessError> {
        self.fan_out(sessions, |session| {
            if !session.is_done() {
                session.step()?;
            }
            Ok(())
        })
    }

    /// Applies `run_one` to every session, fanning across the pool. The
    /// shared skeleton under both [`run`](WorkerPool::run) (run to
    /// completion) and [`step_once`](WorkerPool::step_once) (advance one
    /// tick): workers claim the next session off a queue, and the first
    /// error wins and stops the claimers. The calling thread runs the
    /// claim loop itself, and up to `min(workers, sessions) − 1` helpers
    /// run it beside it; a call with one session (or one worker) involves
    /// no helper. Sessions are `Send` (policies are `Send` by trait bound),
    /// so helpers may step them. A panicking `run_one` re-panics here once
    /// every worker has returned, and the pool stays usable.
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
        // still propagates once every worker has returned).
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
        self.helpers.run(workers.saturating_sub(1), &claim_loop);
        match first_error
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
        {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// Serializable scheduler choice for [`EngineConfig`] and
/// [`ServeConfig`](crate::ServeConfig): how many [`WorkerPool`] threads
/// step the sessions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulerSpec {
    /// One worker: sessions step in order on the calling thread.
    Sequential,
    /// [`WorkerPool`] with the given thread count; `workers = 0` means
    /// "size to the machine's available parallelism".
    WorkerPool {
        /// Worker thread count (0 = auto).
        workers: usize,
    },
}

impl SchedulerSpec {
    /// Builds the worker pool.
    #[must_use]
    pub fn build(&self) -> WorkerPool {
        match *self {
            SchedulerSpec::Sequential => WorkerPool::new(1),
            SchedulerSpec::WorkerPool { workers: 0 } => WorkerPool::with_available_parallelism(),
            SchedulerSpec::WorkerPool { workers } => WorkerPool::new(workers),
        }
    }
}

/// Configuration of a batched decode run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchConfig {
    /// Total shared KV-slot budget across the whole batch (the UniCAIM
    /// array's row count). Partitioned evenly among the sequences; the
    /// first `total_capacity % n` sequences absorb the remainder slots.
    pub total_capacity: usize,
    /// Dynamic top-k width passed to every sequence's policy each step.
    pub k: usize,
    /// Per-sequence prefill keep budget. `None` hands each sequence its full
    /// slot share (mirroring [`SimConfig::new`]'s default).
    pub prefill_budget: Option<usize>,
    /// Key-arena storage precision applied to every sequence's store (see
    /// [`SimConfig::precision`]).
    pub precision: Precision,
}

impl BatchConfig {
    /// A config sharing `total_capacity` slots across the batch with
    /// top-`k` selection; each sequence's prefill budget defaults to its
    /// slot share.
    #[must_use]
    pub fn new(total_capacity: usize, k: usize) -> Self {
        Self {
            total_capacity,
            k,
            prefill_budget: None,
            precision: Precision::F32,
        }
    }

    /// Sets the per-sequence prefill budget (builder-style).
    #[must_use]
    pub fn with_prefill_budget(mut self, budget: usize) -> Self {
        self.prefill_budget = Some(budget);
        self
    }

    /// Sets the key-arena storage precision (builder-style).
    #[must_use]
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// The batch config equivalent to running `n` independent copies of the
    /// single-sequence `config`: total capacity `n × config.capacity`, the
    /// same `k`, and the same per-sequence prefill budget. With `n = 1` a
    /// [`DecodeEngine`] run under it reproduces
    /// [`simulate_decode`](crate::simulate_decode) exactly.
    #[must_use]
    pub fn per_sequence(config: &SimConfig, n: usize) -> Self {
        Self {
            total_capacity: config.capacity * n,
            k: config.k,
            prefill_budget: Some(config.prefill_budget),
            precision: config.precision,
        }
    }

    /// The slot share of sequence `i` in a batch of `n`: an even split of
    /// `total_capacity`, remainder slots going to the lowest indices.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `i >= n`.
    #[must_use]
    pub fn share(&self, n: usize, i: usize) -> usize {
        assert!(n > 0, "batch must contain at least one sequence");
        assert!(i < n, "sequence index {i} out of range for batch of {n}");
        self.total_capacity / n + usize::from(i < self.total_capacity % n)
    }

    /// The [`SimConfig`] sequence `i` of `n` effectively runs under.
    #[must_use]
    pub fn sequence_config(&self, n: usize, i: usize) -> SimConfig {
        let share = self.share(n, i);
        SimConfig {
            capacity: share,
            k: self.k,
            prefill_budget: self.prefill_budget.unwrap_or(share),
            precision: self.precision,
        }
    }
}

/// Builder-style configuration of a [`DecodeEngine`]: the shared-budget
/// batch shape plus the worker-pool choice.
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
    /// How many workers drive the sessions (default
    /// [`SchedulerSpec::Sequential`], one worker).
    pub scheduler: SchedulerSpec,
}

impl EngineConfig {
    /// A one-worker engine sharing `total_capacity` slots across the batch
    /// with top-`k` selection.
    #[must_use]
    pub fn new(total_capacity: usize, k: usize) -> Self {
        Self {
            batch: BatchConfig::new(total_capacity, k),
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
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.batch.precision = precision;
        self
    }

    /// Sets the worker-pool choice (builder-style).
    #[must_use]
    pub fn with_scheduler(mut self, scheduler: SchedulerSpec) -> Self {
        self.scheduler = scheduler;
        self
    }
}

/// Aggregate result of one batched decode run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchResult {
    /// Per-sequence results, in workload order — each is exactly what
    /// [`simulate_decode`](crate::simulate_decode) would report for that
    /// sequence under its slot share.
    pub per_sequence: Vec<SimResult>,
    /// Number of sequences in the batch.
    pub n_sequences: usize,
    /// The shared slot budget the batch ran under.
    pub total_capacity: usize,
    /// Total decode steps executed across all sequences (= generated
    /// tokens, the numerator of a tokens/sec throughput figure).
    pub total_steps: usize,
    /// Total answer steps aggregated across sequences (weight of the
    /// salience means below; 0 means the batch had nothing to retrieve).
    pub total_answer_steps: usize,
    /// Step-weighted mean output cosine across the batch (identical to the
    /// per-step mean a single flat run over all steps would report).
    pub output_cosine: f64,
    /// Answer-step-weighted mean salient recall across the batch.
    pub salient_recall: f64,
    /// Answer-step-weighted mean retrieval accuracy across the batch.
    pub retrieval_accuracy: f64,
    /// Peak total resident tokens across all sequences at any round-robin
    /// tick — the shared array's high-water occupancy. Bounded by
    /// `total_capacity` by construction (the per-sequence shares statically
    /// partition the budget); reported so under-utilization is visible.
    /// Reconstructed from the per-sequence resident traces, so every
    /// scheduler reports the same figure.
    pub peak_resident: usize,
}

/// Folds per-sequence results into the batch aggregate. Weighting each
/// sequence's mean by its step (resp. answer-step) count reconstructs the
/// global per-step mean.
pub(crate) fn aggregate(
    per_sequence: Vec<SimResult>,
    total_capacity: usize,
    peak_resident: usize,
) -> BatchResult {
    let n = per_sequence.len();
    let total_steps: usize = per_sequence.iter().map(|r| r.steps).sum();
    let total_answer_steps: usize = per_sequence.iter().map(|r| r.answer_steps).sum();
    let weighted = |f: fn(&SimResult) -> f64, w: fn(&SimResult) -> usize, total: usize| {
        if total == 0 {
            0.0
        } else {
            per_sequence.iter().map(|r| f(r) * w(r) as f64).sum::<f64>() / total as f64
        }
    };
    let output_cosine = weighted(|r| r.output_cosine, |r| r.steps, total_steps);
    let salient_recall = weighted(|r| r.salient_recall, |r| r.answer_steps, total_answer_steps);
    let retrieval_accuracy = weighted(
        |r| r.retrieval_accuracy,
        |r| r.answer_steps,
        total_answer_steps,
    );

    BatchResult {
        per_sequence,
        n_sequences: n,
        total_capacity,
        total_steps,
        total_answer_steps,
        output_cosine,
        salient_recall,
        retrieval_accuracy,
        peak_resident,
    }
}

/// The batched decode engine: admit → run on the [`WorkerPool`] → retire.
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
    pool: WorkerPool,
}

impl DecodeEngine {
    /// Creates the engine, building the worker pool named by the config.
    #[must_use]
    pub fn new(config: EngineConfig) -> Self {
        Self {
            pool: config.scheduler.build(),
            config,
        }
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
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
        // already drained hold their final count) — what a round-robin
        // schedule would sample after every tick, but computed from
        // per-sequence traces so it is schedule-independent.
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
    /// [`HarnessError::InvalidSpec`] for a spec whose budget does not fit
    /// the per-sequence slot share ([`PolicySpec::validate_for`] — a
    /// hybrid spec with `H + M` different from its share would silently
    /// mis-prune). A ragged split (`total_capacity` not divisible by the
    /// batch size) produces exactly two share sizes one slot apart; a
    /// single spec cannot match both, so it is accepted when it matches
    /// either (the one-slot deviation on the other sequences is inherent
    /// to the even split, not a misconfiguration). Otherwise the
    /// [`DecodeEngine::run_with`] contract.
    pub fn run(
        &self,
        workloads: &[DecodeWorkload],
        spec: &PolicySpec,
    ) -> Result<BatchResult, HarnessError> {
        let n = workloads.len();
        if n > 0 {
            // Shares descend by at most one slot from sequence 0 to n−1;
            // validating against both extremes covers every sequence. When
            // both fail, the widest share's error is the one reported.
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
        self.pool.run(&mut sessions)?;
        Ok(self.collect(sessions))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::{HybridStaticDynamic, StreamingLlm};
    use crate::sim::simulate_decode;
    use unicaim_attention::workloads::{mixed_batch, needle_task};

    fn sample_batch() -> Vec<DecodeWorkload> {
        mixed_batch(5, 64, 8, 13)
    }

    /// A one-worker engine over `batch`.
    fn engine_for(batch: BatchConfig) -> DecodeEngine {
        DecodeEngine::new(EngineConfig {
            batch,
            scheduler: SchedulerSpec::Sequential,
        })
    }

    #[test]
    fn batch_of_one_matches_simulate_decode_bit_for_bit() {
        let w = needle_task(128, 16, 3);
        let cfg = SimConfig::new(64, 16).with_prefill_budget(48);
        let mut single = HybridStaticDynamic::new(48, 16);
        let expected = simulate_decode(&w, &mut single, &cfg).unwrap();

        let batch = engine_for(BatchConfig::per_sequence(&cfg, 1))
            .run_with(std::slice::from_ref(&w), &mut |_| {
                Box::new(HybridStaticDynamic::new(48, 16))
            })
            .unwrap();
        assert_eq!(batch.per_sequence.len(), 1);
        assert_eq!(batch.per_sequence[0], expected);
        assert_eq!(batch.total_steps, expected.steps);
        assert_eq!(batch.output_cosine, expected.output_cosine);
        assert_eq!(batch.salient_recall, expected.salient_recall);
    }

    #[test]
    fn shares_partition_the_total_budget() {
        let cfg = BatchConfig::new(100, 8);
        let shares: Vec<usize> = (0..7).map(|i| cfg.share(7, i)).collect();
        assert_eq!(shares.iter().sum::<usize>(), 100);
        assert!(shares.iter().all(|&s| s == 14 || s == 15));
        // Remainder slots go to the lowest indices.
        assert_eq!(shares[0], 15);
        assert_eq!(shares[6], 14);
    }

    #[test]
    fn ragged_batch_drains_all_sequences() {
        // mixed_batch varies decode lengths, so sequences finish at
        // different global ticks.
        let batch = mixed_batch(4, 64, 8, 17);
        let lens: Vec<usize> = batch.iter().map(|w| w.decode_queries.len()).collect();
        assert!(lens.iter().any(|&l| l != lens[0]), "lengths must vary");
        let r = engine_for(BatchConfig::new(4 * 24, 8))
            .run_with(&batch, &mut |_| Box::new(StreamingLlm::new(2)))
            .unwrap();
        assert_eq!(r.n_sequences, 4);
        assert_eq!(r.total_steps, lens.iter().sum::<usize>());
        for (res, len) in r.per_sequence.iter().zip(&lens) {
            assert_eq!(res.steps, *len);
        }
    }

    #[test]
    fn peak_occupancy_never_exceeds_shared_budget() {
        let batch = mixed_batch(6, 96, 12, 5);
        let cfg = BatchConfig::new(6 * 40, 16);
        let r = engine_for(cfg)
            .run_with(&batch, &mut |i| {
                let share = cfg.share(6, i);
                Box::new(HybridStaticDynamic::new(share.saturating_sub(4).max(1), 16))
            })
            .unwrap();
        assert!(r.peak_resident <= cfg.total_capacity, "{r:?}");
        assert!(r.peak_resident > 0);
    }

    #[test]
    fn aggregates_are_step_weighted() {
        let batch = mixed_batch(3, 64, 8, 9);
        let r = engine_for(BatchConfig::new(3 * 32, 8))
            .run_with(&batch, &mut |_| Box::new(StreamingLlm::new(2)))
            .unwrap();
        let expect: f64 = r
            .per_sequence
            .iter()
            .map(|s| s.output_cosine * s.steps as f64)
            .sum::<f64>()
            / r.total_steps as f64;
        assert!((r.output_cosine - expect).abs() < 1e-12);
        assert_eq!(
            r.total_answer_steps,
            r.per_sequence.iter().map(|s| s.answer_steps).sum::<usize>()
        );
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
        assert!(SchedulerSpec::WorkerPool { workers: 0 }.build().workers() >= 1);
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
        // helper share the queue. Whichever of them claims the broken
        // session, the call must panic — not hang, not return — and the
        // pool must then run a healthy batch as a one-worker pool would.
        let workloads = mixed_batch(4, 64, 8, 13);
        let engine = DecodeEngine::new(EngineConfig::new(4 * 24, 8));
        let spec = PolicySpec::StreamingLlm { n_sinks: 2 };
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
                let mut healthy = engine.admit(&workloads, &mut |_| spec.build()).unwrap();
                pool.run(&mut healthy).unwrap();
                assert_eq!(
                    engine.collect(healthy),
                    engine.run(&workloads, &spec).unwrap()
                );
            }
        }
    }

    #[test]
    fn worker_pool_starts_only_the_helpers_a_call_can_use() {
        let workloads = mixed_batch(3, 64, 8, 13);
        let engine = DecodeEngine::new(EngineConfig::new(3 * 24, 8));
        let spec = PolicySpec::StreamingLlm { n_sinks: 2 };
        let pool = WorkerPool::new(64);
        let mut sessions = engine.admit(&workloads, &mut |_| spec.build()).unwrap();
        pool.step_once(&mut sessions[..1]).unwrap();
        assert_eq!(pool.helpers.started(), 0, "one session needs no helper");
        pool.step_once(&mut sessions).unwrap();
        pool.run(&mut sessions).unwrap();
        assert_eq!(
            pool.helpers.started(),
            2,
            "3 sessions use at most 2 helpers"
        );
        assert_eq!(
            engine.collect(sessions),
            engine.run(&workloads, &spec).unwrap()
        );
    }

    #[test]
    fn worker_pool_serves_two_threads_at_once_and_joins_on_drop() {
        // Two threads tick their own batches through one shared pool, their
        // first calls released together; each batch must still equal its
        // one-worker run.
        let spec = PolicySpec::StreamingLlm { n_sinks: 2 };
        let engine = DecodeEngine::new(EngineConfig::new(5 * 24, 8));
        let batches = [sample_batch(), mixed_batch(5, 64, 8, 29)];
        let pool = WorkerPool::new(3);
        let start = std::sync::Barrier::new(2);
        let results: Vec<BatchResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = batches
                .iter()
                .map(|workloads| {
                    let (engine, pool, start, spec) = (&engine, &pool, &start, &spec);
                    scope.spawn(move || {
                        let mut sessions = engine.admit(workloads, &mut |_| spec.build()).unwrap();
                        start.wait();
                        while sessions.iter().any(|s| !s.is_done()) {
                            pool.step_once(&mut sessions).unwrap();
                        }
                        engine.collect(sessions)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (workloads, result) in batches.iter().zip(results) {
            assert_eq!(result, engine.run(workloads, &spec).unwrap());
        }
        assert_eq!(pool.helpers.started(), 2);
        let liveness = pool.helpers.liveness();
        drop(pool);
        assert!(
            liveness.upgrade().is_none(),
            "dropping the pool joins its helpers"
        );
    }

    #[test]
    fn sequential_finishes_partially_stepped_sessions() {
        // A caller may step admitted sessions incrementally before handing
        // them to the pool; a one-worker run must finish them rather than
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
        WorkerPool::new(1).run(&mut sessions).unwrap();
        assert!(sessions.iter().all(DecodeSession::is_done));
        assert_eq!(engine.collect(sessions), expected);
    }

    #[test]
    fn step_once_ticks_every_unfinished_session_in_lockstep() {
        // Driving the batch tick-by-tick through step_once (on either
        // worker count) must reproduce the run-to-completion result exactly,
        // with every session advancing one step per tick until it drains.
        let workloads = sample_batch();
        let spec = PolicySpec::StreamingLlm { n_sinks: 2 };
        let engine = DecodeEngine::new(EngineConfig::new(5 * 24, 8));
        let expected = engine.run(&workloads, &spec).unwrap();

        for pool in [WorkerPool::new(1), WorkerPool::new(3)] {
            let mut sessions = engine.admit(&workloads, &mut |_| spec.build()).unwrap();
            let mut ticks = 0usize;
            while sessions.iter().any(|s| !s.is_done()) {
                let before: Vec<usize> = sessions.iter().map(DecodeSession::next_step).collect();
                pool.step_once(&mut sessions).unwrap();
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
        // completion, last to first) and check the peak matches the
        // engine's own run.
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
