//! The engine workload: a closed batch admitted by `DecodeEngine` and run
//! to completion by its worker pool.
//!
//! The engine reports no per-token timeline, so each sequence's policy is
//! wrapped in [`Stamped`], which delegates every decision unchanged and
//! records the wall time at which the prefill asks for its keep set
//! (`Policy::prefill_keep`, once per sequence during serial admission) and
//! at which each step's attention output is ready (`Policy::observe`, once
//! per step, right after attention), plus the thread that decoded the
//! sequence. That yields per-sequence prefill, first-token and token-gap
//! times under the library's own scheduler, at the cost of one clock read
//! per call.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::ThreadId;
use std::time::Instant;

use unicaim_attention::Matrix;
use unicaim_kvcache::{
    BatchResult, DecodeEngine, DecodeSession, HarnessError, Policy, StepDecision,
};

use crate::affinity;
use crate::inputs::{engine_sequence_config, EngineInputs};
use crate::serve::{step_all, Stepped};
use crate::stats::{elementwise_min, SplitMix};

/// What one sequence's [`Stamped`] policy saw.
#[derive(Default)]
struct Log {
    /// When the prefill asked for its keep set.
    prefill: Option<Instant>,
    /// When each step's attention output was ready.
    steps: Vec<Instant>,
    /// The thread that ran the sequence's first step.
    worker: Option<ThreadId>,
}

type Stamps = Arc<Mutex<Log>>;

fn lock(stamps: &Stamps) -> MutexGuard<'_, Log> {
    stamps.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Delegates to `inner` and stamps the wall time of `prefill_keep` and of
/// every `observe`.
struct Stamped {
    inner: Box<dyn Policy>,
    stamps: Stamps,
}

impl Policy for Stamped {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn prefill_keep(&mut self, attn: &Matrix, budget: usize) -> Vec<usize> {
        let now = Instant::now();
        lock(&self.stamps).prefill = Some(now);
        self.inner.prefill_keep(attn, budget)
    }

    fn select(&mut self, step: usize, scored: &[(usize, f32)], k: usize) -> StepDecision {
        self.inner.select(step, scored, k)
    }

    fn observe(&mut self, step: usize, weights: &[(usize, f32)]) {
        let now = Instant::now();
        let mut log = lock(&self.stamps);
        if log.steps.is_empty() {
            log.worker = Some(std::thread::current().id());
        }
        log.steps.push(now);
        drop(log);
        self.inner.observe(step, weights);
    }

    fn evict(&mut self, step: usize, resident: &[usize]) -> Option<usize> {
        self.inner.evict(step, resident)
    }

    fn note_inserted(&mut self, token: usize) {
        self.inner.note_inserted(token);
    }
}

/// One run of the batch.
pub struct EngineRep {
    pub result: BatchResult,
    /// Wall time of the whole batch: admission, decode and collection.
    pub wall_s: f64,
    /// Admission and decode wall time.
    pub admit_s: f64,
    pub decode_s: f64,
    /// Per sequence: when (ms since the batch started) its prefill asked
    /// for its keep set.
    prefill_ms: Vec<f64>,
    /// Per sequence: when (ms since the batch started) each step's output
    /// was ready.
    token_ms: Vec<Vec<f64>>,
    /// Per sequence: the thread that decoded it.
    worker: Vec<Option<ThreadId>>,
}

impl EngineRep {
    /// Gaps between consecutive tokens of each sequence, pooled.
    pub fn gap_ms(&self) -> Vec<f64> {
        (0..self.token_ms.len())
            .flat_map(|i| self.gaps(i))
            .collect()
    }

    /// Gaps between consecutive tokens of sequence `i`.
    fn gaps(&self, i: usize) -> Vec<f64> {
        self.token_ms[i].windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Admission cut at each prefill's keep request: up to the first,
    /// between consecutive ones (the end of one prefill and the start of
    /// the next; admission is serial, in sequence order), and after the
    /// last.
    fn admit_units(&self) -> Vec<f64> {
        let mut edges = Vec::with_capacity(self.prefill_ms.len() + 2);
        edges.push(0.0);
        edges.extend(&self.prefill_ms);
        edges.push(self.admit_s * 1e3);
        edges.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// The sequences each worker thread decoded, in the order it ran them.
    fn lanes(&self) -> Vec<Vec<usize>> {
        let first = |i: usize| self.token_ms[i].first().copied().unwrap_or(0.0);
        let mut order: Vec<usize> = (0..self.token_ms.len()).collect();
        order.sort_by(|&a, &b| first(a).total_cmp(&first(b)));
        let mut lanes: Vec<(Option<ThreadId>, Vec<usize>)> = Vec::new();
        for i in order {
            match lanes.iter().position(|(w, _)| *w == self.worker[i]) {
                Some(l) => lanes[l].1.push(i),
                None => lanes.push((self.worker[i], vec![i])),
            }
        }
        lanes.into_iter().map(|(_, seqs)| seqs).collect()
    }

    /// Per sequence: the time from its worker coming free (the end of
    /// admission, or the previous sequence's last token) to its first
    /// token.
    fn first_units(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.token_ms.len()];
        for lane in self.lanes() {
            let mut free = self.admit_s * 1e3;
            for i in lane {
                let t = &self.token_ms[i];
                out[i] = t.first().map_or(0.0, |first| first - free);
                free = t.last().copied().unwrap_or(free);
            }
        }
        out
    }

    /// From the last token of the batch to the collected result: the
    /// pool's join and `DecodeEngine::collect`.
    fn close_ms(&self) -> f64 {
        let last = self
            .token_ms
            .iter()
            .filter_map(|t| t.last().copied())
            .fold(self.admit_s * 1e3, f64::max);
        self.wall_s * 1e3 - last
    }
}

/// The batch laid out on the least-disturbed time of each unit of its work.
pub struct Timeline {
    pub admit_s: f64,
    /// From the end of admission to the collected result.
    pub decode_s: f64,
    pub wall_s: f64,
    /// Time to first token of every sequence, from the start of admission.
    pub ttft_ms: Vec<f64>,
    /// Wall time each sequence spent decoding, its first step included.
    pub busy_ms: Vec<f64>,
}

/// Every repetition does the same units of work: each sequence's prefill
/// (admission is serial), its first step and each later step (a sequence
/// runs to completion on one worker), and the close. Each unit takes its
/// fastest time across the repetitions, as the serving ticks do. Each
/// repetition's workers are then replayed on those times, running the
/// sequences they ran in the order they ran them, and the repetition whose
/// replay ends at the median time gives the timeline. Whole repetitions
/// vary with whatever else the host ran during them; units of a few
/// milliseconds or less each find an undisturbed moment in some repetition.
pub fn timeline(reps: &[EngineRep]) -> Timeline {
    let admit_ms: f64 = elementwise_min(reps, EngineRep::admit_units).iter().sum();
    let first = elementwise_min(reps, EngineRep::first_units);
    let busy_ms: Vec<f64> = (0..first.len())
        .map(|i| first[i] + elementwise_min(reps, |r| r.gaps(i)).iter().sum::<f64>())
        .collect();
    let close_ms = reps
        .iter()
        .map(EngineRep::close_ms)
        .fold(f64::INFINITY, f64::min);
    let mut replays: Vec<(f64, Vec<f64>)> = reps
        .iter()
        .map(|r| {
            let mut ttft = vec![0.0; first.len()];
            let mut makespan = 0.0f64;
            for lane in r.lanes() {
                let mut t = 0.0;
                for i in lane {
                    ttft[i] = admit_ms + t + first[i];
                    t += busy_ms[i];
                }
                makespan = makespan.max(t);
            }
            (makespan, ttft)
        })
        .collect();
    replays.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (makespan, ttft_ms) = replays.swap_remove((replays.len() - 1) / 2);
    let decode_ms = makespan + close_ms;
    Timeline {
        admit_s: admit_ms / 1e3,
        decode_s: decode_ms / 1e3,
        wall_s: (admit_ms + decode_ms) / 1e3,
        ttft_ms,
        busy_ms,
    }
}

/// Runs the batch once through `DecodeEngine::admit`, the configured
/// scheduler's `run`, and `DecodeEngine::collect` (what `run_with` does),
/// timing admission and decode. Serial admission is pinned to the `rep`-th
/// CPU; the pin is released before the scheduler starts its pool.
pub fn run(inputs: &EngineInputs, rep: usize) -> Result<EngineRep, HarnessError> {
    let engine = DecodeEngine::new(inputs.config);
    let scheduler = inputs.config.scheduler.build();
    let logs: Vec<Stamps> = inputs
        .workloads
        .iter()
        .map(|w| {
            Arc::new(Mutex::new(Log {
                steps: Vec::with_capacity(w.decode_queries.len()),
                ..Log::default()
            }))
        })
        .collect();
    let mut factory = |i: usize| -> Box<dyn Policy> {
        Box::new(Stamped {
            inner: inputs.spec.build(),
            stamps: Arc::clone(&logs[i]),
        })
    };
    let start = Instant::now();
    let pin = affinity::pin(rep);
    let mut sessions = engine.admit(&inputs.workloads, &mut factory)?;
    drop(pin);
    let admitted = Instant::now();
    scheduler.run(&mut sessions)?;
    let decoded = Instant::now();
    let result = engine.collect(sessions);
    let wall_s = start.elapsed().as_secs_f64();
    let ms = |t: Instant| (t - start).as_secs_f64() * 1e3;
    let logs: Vec<MutexGuard<'_, Log>> = logs.iter().map(lock).collect();
    Ok(EngineRep {
        result,
        wall_s,
        admit_s: (admitted - start).as_secs_f64(),
        decode_s: (decoded - admitted).as_secs_f64(),
        prefill_ms: logs.iter().map(|log| log.prefill.map_or(0.0, ms)).collect(),
        token_ms: logs
            .iter()
            .map(|log| log.steps.iter().map(|&t| ms(t)).collect())
            .collect(),
        worker: logs.iter().map(|log| log.worker).collect(),
    })
}

/// The batch's own ledger: one result per sequence, every prefill stamped
/// once in sequence order, and every decode step run once and observed
/// once.
pub fn ledger_errors(inputs: &EngineInputs, rep: &EngineRep) -> Vec<String> {
    let mut errors = Vec::new();
    let n = inputs.workloads.len();
    let steps: usize = inputs
        .workloads
        .iter()
        .map(|w| w.decode_queries.len())
        .sum();
    if rep.result.n_sequences != n || rep.result.per_sequence.len() != n {
        errors.push(format!(
            "{} results for {n} sequences",
            rep.result.per_sequence.len()
        ));
    }
    if rep.result.total_steps != steps {
        errors.push(format!(
            "{} steps run, {steps} expected",
            rep.result.total_steps
        ));
    }
    let mut edges = vec![0.0];
    edges.extend(&rep.prefill_ms);
    if !edges.windows(2).all(|w| w[0] < w[1]) {
        errors.push("the prefills were not stamped once each, in sequence order".into());
    }
    for (i, (w, t)) in inputs.workloads.iter().zip(&rep.token_ms).enumerate() {
        if t.len() != w.decode_queries.len() {
            errors.push(format!(
                "sequence {i}: {} steps observed, {} expected",
                t.len(),
                w.decode_queries.len()
            ));
        }
    }
    errors
}

/// A sequence replayed alone through `DecodeSession`.
pub struct Replay {
    pub matches: bool,
    pub prefill_ms: f64,
    pub stepped: Stepped,
}

/// Replays sequences `indices` solo under their batch share and compares
/// each result with the batch's, which must be bit-identical.
pub fn replay(
    inputs: &EngineInputs,
    result: &BatchResult,
    indices: &[usize],
) -> Result<Vec<Replay>, HarnessError> {
    indices
        .iter()
        .map(|&i| {
            let config = engine_sequence_config(inputs, i);
            let t = Instant::now();
            let session = DecodeSession::prefill_spec(&inputs.workloads[i], &inputs.spec, &config)?;
            let prefill_ms = t.elapsed().as_secs_f64() * 1e3;
            let stepped = step_all(session)?;
            Ok(Replay {
                matches: stepped.result == result.per_sequence[i],
                prefill_ms,
                stepped,
            })
        })
        .collect()
}

/// Indices of `k` sequences drawn with `seed`.
pub fn sample(inputs: &EngineInputs, k: usize, seed: u64) -> Vec<usize> {
    SplitMix::new(seed ^ 0x00E0_51A3_B1E0).sample(inputs.workloads.len(), k)
}
