//! The serving workloads: an open loop in virtual time over
//! `ServeCore::submit`/`tick`. Every request's arrival tick is fixed by the
//! trace, so a slow tick delays every later tick instead of thinning the
//! load, and a request's wall TTFT is the wall time of the ticks from its
//! arrival through its first token.

use std::time::Instant;

use unicaim_attention::paged::ArenaStats;
use unicaim_kvcache::{
    DecodeSession, HarnessError, PrefixRegistry, PrefixStats, Priority, ServeCore, ServeReport,
    SimResult,
};

use crate::affinity;
use crate::inputs::{workers, ServeInputs};
use crate::stats::{min_into, SplitMix};

/// One replay of the arrival trace.
pub struct ServeRep {
    pub report: ServeReport,
    /// Wall time from the first submission through the drained core.
    pub wall_s: f64,
    /// Wall time of every tick, in tick order.
    pub tick_ms: Vec<f64>,
    /// Slots held by running sessions at each tick (from the core's metrics).
    pub occupancy: Vec<usize>,
    /// Requests admitted at each tick (traced runs only, else empty).
    pub admissions: Vec<usize>,
    /// Registry and page-arena counters, when the workload has a registry.
    pub registry: Option<(PrefixStats, ArenaStats)>,
    /// Every completed request replayed solo, in arrival order, right
    /// after the repetition (traced runs only, else empty). Timing the
    /// replays next to the repetition they explain keeps both in the same
    /// stretch of host speed, which on a shared host drifts by tens of
    /// percent from minute to minute.
    pub replays: Vec<Replay>,
}

impl ServeRep {
    /// Of `tick_ms`, one wall time per tick of this trace, the ticks in
    /// which at least one session decoded: the gaps between output tokens
    /// that running requests see.
    pub fn busy_ticks(&self, tick_ms: &[f64]) -> Vec<f64> {
        tick_ms
            .iter()
            .zip(&self.occupancy)
            .filter(|(_, &occ)| occ > 0)
            .map(|(&ms, _)| ms)
            .collect()
    }

    /// Wall TTFT of every completed request under the tick wall times
    /// `tick_ms`: the summed time of the ticks from its arrival tick
    /// through its first-token tick.
    pub fn ttfts(&self, tick_ms: &[f64]) -> Vec<f64> {
        let mut cum = Vec::with_capacity(tick_ms.len() + 1);
        cum.push(0.0);
        for ms in tick_ms {
            cum.push(cum.last().copied().unwrap_or(0.0) + ms);
        }
        self.report
            .completed
            .iter()
            .map(|c| cum[c.first_token_tick as usize + 1] - cum[c.arrival_tick as usize])
            .collect()
    }
}

/// Replays the trace once through a fresh core. `traced` also records how
/// many requests each tick admitted (read from the core's public counters
/// between ticks) and then replays every completed request solo. A
/// sequentially scheduled core runs on one thread, pinned to the `rep`-th
/// CPU; a pooled one is left to the OS, since its per-tick pool threads
/// would inherit the pin. The solo replays are always pinned.
pub fn run(inputs: &ServeInputs, traced: bool, rep: usize) -> Result<ServeRep, HarnessError> {
    let _pin = (workers(inputs.config.scheduler) == 1).then(|| affinity::pin(rep));
    let mut core = ServeCore::new(inputs.config)?;
    let registry = match inputs.registry_pages {
        Some(pages) => Some(PrefixRegistry::new(inputs.events[0].workload.dim, pages)?),
        None => None,
    };
    if let Some(registry) = &registry {
        core = core.with_prefix_registry(registry.clone());
    }
    let events = &inputs.events;
    let mut tick_ms = Vec::with_capacity(events.last().map_or(0, |e| e.at_tick as usize) + 256);
    let mut admissions = Vec::new();
    let mut next = 0;
    let start = Instant::now();
    loop {
        while next < events.len() && events[next].at_tick <= core.now() {
            let e = &events[next];
            let priority = if e.high_priority {
                Priority::High
            } else {
                Priority::Normal
            };
            core.submit(&e.workload, inputs.spec.clone(), e.tenant, priority)?;
            next += 1;
        }
        if next == events.len() && core.running() == 0 && core.queue_depth() == 0 {
            break;
        }
        let before = traced.then(|| (core.queue_depth(), core.metrics().preemptions()));
        let t = Instant::now();
        core.tick()?;
        tick_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if let Some((queued, preempted)) = before {
            // Preemptions requeue, admissions dequeue, and nothing else
            // touches the queues inside a tick.
            let requeued = (core.metrics().preemptions() - preempted) as usize;
            admissions.push(queued + requeued - core.queue_depth());
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let report = core.report();
    let replays = if traced {
        let _pin = affinity::pin(rep);
        let mut order: Vec<usize> = (0..report.completed.len()).collect();
        order.sort_by_key(|&i| report.completed[i].id);
        replay(inputs, &report, &order)?
    } else {
        Vec::new()
    };
    Ok(ServeRep {
        occupancy: core.metrics().occupancy_samples().to_vec(),
        report,
        wall_s,
        tick_ms,
        admissions,
        registry: registry.map(|r| (r.stats(), r.arena().stats())),
        replays,
    })
}

/// The report's own ledgers: every submission is completed or rejected,
/// and every executed step is a delivered token or a discarded one.
pub fn ledger_errors(report: &ServeReport) -> Vec<String> {
    let s = &report.summary;
    let mut errors = Vec::new();
    if s.submitted != s.completed + s.rejected {
        errors.push(format!(
            "submitted {} != completed {} + rejected {}",
            s.submitted, s.completed, s.rejected
        ));
    }
    if s.steps_executed != s.tokens_completed + s.wasted_steps {
        errors.push(format!(
            "steps_executed {} != tokens_completed {} + wasted_steps {}",
            s.steps_executed, s.tokens_completed, s.wasted_steps
        ));
    }
    if report.completed.len() as u64 != s.completed {
        errors.push("completed list and counter disagree".into());
    }
    errors
}

/// A completed request replayed alone through `DecodeSession`, with its
/// per-call wall times.
pub struct Replay {
    pub matches: bool,
    pub prefill_ms: f64,
    /// Whether the prefill reused a registry prefix (shared replays only).
    pub prefix_hit: bool,
    /// Times the serving run preempted the request (each cost a re-prefill).
    pub preemptions: u32,
    pub stepped: Stepped,
}

/// Replays the completed requests at `indices` (into `report.completed`)
/// one at a time. Through a fresh registry of the workload's shape when
/// it has one (so prefix hits recur in admission order), else cold. The
/// serving core promises each result is bit-identical to such a solo run,
/// whatever preemption, splicing or scheduling happened around it.
pub fn replay(
    inputs: &ServeInputs,
    report: &ServeReport,
    indices: &[usize],
) -> Result<Vec<Replay>, HarnessError> {
    let config = inputs.config.session_config();
    let registry = match inputs.registry_pages {
        Some(pages) => Some(PrefixRegistry::new(inputs.events[0].workload.dim, pages)?),
        None => None,
    };
    let mut replays = Vec::with_capacity(indices.len());
    for &i in indices {
        let done = &report.completed[i];
        let workload = &inputs.events[done.id].workload;
        let t = Instant::now();
        let (session, prefix_hit) = match &registry {
            Some(r) => {
                let (s, reuse) = DecodeSession::prefill_shared(workload, &inputs.spec, &config, r)?;
                (s, reuse.prefix_hit)
            }
            None => (
                DecodeSession::prefill_spec(workload, &inputs.spec, &config)?,
                false,
            ),
        };
        let prefill_ms = t.elapsed().as_secs_f64() * 1e3;
        let stepped = step_all(session)?;
        replays.push(Replay {
            matches: stepped.result == done.result,
            prefill_ms,
            prefix_hit,
            preemptions: done.preemptions,
            stepped,
        });
    }
    Ok(replays)
}

/// Takes the traced repetitions' replays and folds them into one list of
/// the same requests holding each call's fastest time; a request matches
/// only if every replay of it did.
pub fn fastest_replays(reps: &mut [ServeRep]) -> Vec<Replay> {
    let Some((first, rest)) = reps.split_first_mut() else {
        return Vec::new();
    };
    let mut best = std::mem::take(&mut first.replays);
    for r in rest {
        for (b, o) in best.iter_mut().zip(&r.replays) {
            b.matches &= o.matches;
            b.prefill_ms = b.prefill_ms.min(o.prefill_ms);
            min_into(&mut b.stepped.step_us, &o.stepped.step_us);
        }
    }
    best
}

/// A session stepped to completion by [`step_all`].
pub struct Stepped {
    pub result: SimResult,
    /// Wall time of each step.
    pub step_us: Vec<f64>,
    /// Residents each step scanned (the store's size when it began).
    pub scan_rows: Vec<usize>,
    /// Rows each step attended (`StepOutcome::selected`).
    pub attend_rows: Vec<usize>,
}

/// Steps a session to completion, timing each `DecodeSession::step`.
pub fn step_all(mut session: DecodeSession<'_, '_>) -> Result<Stepped, HarnessError> {
    let n = session.remaining();
    let (mut step_us, mut scan_rows, mut attend_rows) = (
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
    );
    while !session.is_done() {
        let resident = session.resident();
        let t = Instant::now();
        let outcome = session.step()?;
        step_us.push(t.elapsed().as_secs_f64() * 1e6);
        scan_rows.push(resident);
        attend_rows.push(outcome.selected);
    }
    Ok(Stepped {
        result: session.finish(),
        step_us,
        scan_rows,
        attend_rows,
    })
}

/// Indices of `k` completed requests drawn with `seed`.
pub fn sample(report: &ServeReport, k: usize, seed: u64) -> Vec<usize> {
    SplitMix::new(seed ^ 0x0005_A3B1_E000).sample(report.completed.len(), k)
}
