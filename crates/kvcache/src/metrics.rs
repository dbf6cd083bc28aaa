//! Serving observability: the counters, per-tick samples, and percentile
//! summaries a [`ServeCore`](crate::ServeCore) accumulates while it runs.
//!
//! Everything here is measured in **virtual time** — scheduler ticks, where
//! one tick advances every running session by one decode step — so the
//! numbers are bit-identical across machines and can be pinned by the
//! `bench_check` regression gate. Wall-clock throughput is measured outside
//! (the `saturation` bench binary times a whole run and divides), never
//! stored in these structures.

use serde::{Deserialize, Serialize};

/// Number of buckets in the slot-occupancy histogram.
pub const OCCUPANCY_BUCKETS: usize = 10;

/// Live metric accumulators of one serving run.
///
/// The serving loop feeds this through its lifecycle hooks (`note_*`,
/// [`ServerMetrics::sample_tick`]); [`ServerMetrics::summary`] folds the
/// accumulated state into the serializable [`MetricsSummary`]. Preemption
/// and rejection counts and the occupancy samples are also directly
/// readable mid-run.
#[derive(Debug, Clone)]
pub struct ServerMetrics {
    total_capacity: usize,
    submitted: u64,
    rejected: u64,
    admitted: u64,
    completed: u64,
    preemptions: u64,
    re_prefills: u64,
    steps_executed: u64,
    tokens_completed: u64,
    wasted_steps: u64,
    ticks: u64,
    last_submit_tick: u64,
    queue_depth_samples: Vec<usize>,
    occupancy_samples: Vec<usize>,
    peak_resident_tokens: usize,
    wait_ticks: Vec<u64>,
    ttft_ticks: Vec<u64>,
    latency_ticks: Vec<u64>,
    prefix_hits: u64,
    pages_shared: u64,
    prefix_bytes_saved: u64,
}

impl ServerMetrics {
    /// Fresh accumulators for a core with `total_capacity` shared slots.
    #[must_use]
    pub fn new(total_capacity: usize) -> Self {
        Self {
            total_capacity,
            submitted: 0,
            rejected: 0,
            admitted: 0,
            completed: 0,
            preemptions: 0,
            re_prefills: 0,
            steps_executed: 0,
            tokens_completed: 0,
            wasted_steps: 0,
            ticks: 0,
            last_submit_tick: 0,
            queue_depth_samples: Vec::new(),
            occupancy_samples: Vec::new(),
            peak_resident_tokens: 0,
            wait_ticks: Vec::new(),
            ttft_ticks: Vec::new(),
            latency_ticks: Vec::new(),
            prefix_hits: 0,
            pages_shared: 0,
            prefix_bytes_saved: 0,
        }
    }

    /// Records one submission arriving at `tick` (accepted or not).
    pub fn note_submitted(&mut self, tick: u64) {
        self.submitted += 1;
        self.last_submit_tick = self.last_submit_tick.max(tick);
    }

    /// Records a submission bounced by a full tenant queue.
    pub fn note_rejected(&mut self) {
        self.rejected += 1;
    }

    /// Records an admission that waited `wait` ticks in the queue;
    /// `re_prefill` marks the re-admission of a previously preempted
    /// request (its prompt is prefilled again from scratch).
    pub fn note_admitted(&mut self, wait: u64, re_prefill: bool) {
        self.admitted += 1;
        self.wait_ticks.push(wait);
        if re_prefill {
            self.re_prefills += 1;
        }
    }

    /// Records a preemption that discarded `steps_lost` already-decoded
    /// tokens (the re-prefill bill, paid again at re-admission).
    pub fn note_preempted(&mut self, steps_lost: usize) {
        self.preemptions += 1;
        self.wasted_steps += steps_lost as u64;
    }

    /// Records what an admission through the shared
    /// [`PrefixRegistry`](crate::PrefixRegistry) reused: whether the
    /// prefix was a verified hit, how many cached pages the session's
    /// store now shares, and the bytes of per-session storage those
    /// shared rows avoided duplicating.
    pub fn note_prefix_reuse(&mut self, hit: bool, pages_shared: usize, bytes_saved: usize) {
        if hit {
            self.prefix_hits += 1;
        }
        self.pages_shared += pages_shared as u64;
        self.prefix_bytes_saved += bytes_saved as u64;
    }

    /// Records a retirement: first token `ttft` ticks after arrival (the
    /// first token after the request's final admission), `latency` ticks
    /// end to end, `tokens` decode steps delivered. One TTFT sample per
    /// request, however often it was preempted.
    pub fn note_completed(&mut self, ttft: u64, latency: u64, tokens: usize) {
        self.completed += 1;
        self.ttft_ticks.push(ttft);
        self.latency_ticks.push(latency);
        self.tokens_completed += tokens as u64;
    }

    /// Records one scheduler tick: queue depth after admission, slots held
    /// by running sessions, decode steps executed this tick, and the total
    /// resident tokens across running sessions.
    pub fn sample_tick(
        &mut self,
        queue_depth: usize,
        occupied_slots: usize,
        steps: usize,
        resident_tokens: usize,
    ) {
        self.ticks += 1;
        self.queue_depth_samples.push(queue_depth);
        self.occupancy_samples.push(occupied_slots);
        self.steps_executed += steps as u64;
        self.peak_resident_tokens = self.peak_resident_tokens.max(resident_tokens);
    }

    /// Preemptions so far.
    #[must_use]
    pub fn preemptions(&self) -> u64 {
        self.preemptions
    }

    /// Rejected submissions so far.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Per-tick occupied-slot samples (index = tick).
    #[must_use]
    pub fn occupancy_samples(&self) -> &[usize] {
        &self.occupancy_samples
    }

    /// Peak resident tokens summed across running sessions at any tick.
    #[must_use]
    pub fn peak_resident_tokens(&self) -> usize {
        self.peak_resident_tokens
    }

    /// Minimum occupied slots over the continuous-batching window: from
    /// the first tick any session ran through the last submission's tick.
    /// A positive value certifies sequences joined mid-flight — the core
    /// never drained to empty while arrivals were still landing. Zero when
    /// the window is empty (nothing ever ran, or everything arrived at
    /// once before the first admission).
    #[must_use]
    pub fn min_occupancy_between_arrivals(&self) -> usize {
        let Some(first_busy) = self.occupancy_samples.iter().position(|&o| o > 0) else {
            return 0;
        };
        let last = (usize::try_from(self.last_submit_tick).unwrap_or(usize::MAX))
            .min(self.occupancy_samples.len().saturating_sub(1));
        if first_busy > last {
            return 0;
        }
        self.occupancy_samples[first_busy..=last]
            .iter()
            .copied()
            .min()
            .unwrap_or(0)
    }

    /// Folds the accumulated state into the serializable summary.
    #[must_use]
    pub fn summary(&self) -> MetricsSummary {
        let mut histogram = vec![0u64; OCCUPANCY_BUCKETS];
        for &occ in &self.occupancy_samples {
            let bucket = (occ * OCCUPANCY_BUCKETS)
                .checked_div(self.total_capacity)
                .unwrap_or(0)
                .min(OCCUPANCY_BUCKETS - 1);
            histogram[bucket] += 1;
        }
        let mean = |s: &[usize]| {
            if s.is_empty() {
                0.0
            } else {
                s.iter().sum::<usize>() as f64 / s.len() as f64
            }
        };
        MetricsSummary {
            total_capacity: self.total_capacity,
            ticks: self.ticks,
            submitted: self.submitted,
            rejected: self.rejected,
            admitted: self.admitted,
            completed: self.completed,
            preemptions: self.preemptions,
            re_prefills: self.re_prefills,
            steps_executed: self.steps_executed,
            tokens_completed: self.tokens_completed,
            wasted_steps: self.wasted_steps,
            tokens_per_tick: if self.ticks == 0 {
                0.0
            } else {
                self.tokens_completed as f64 / self.ticks as f64
            },
            mean_queue_depth: mean(&self.queue_depth_samples),
            mean_occupancy_slots: mean(&self.occupancy_samples),
            peak_occupancy_slots: self.occupancy_samples.iter().copied().max().unwrap_or(0),
            min_occupancy_between_arrivals: self.min_occupancy_between_arrivals(),
            peak_resident_tokens: self.peak_resident_tokens,
            occupancy_histogram: histogram,
            p50_wait_ticks: percentile(&self.wait_ticks, 50.0),
            p95_wait_ticks: percentile(&self.wait_ticks, 95.0),
            p50_ttft_ticks: percentile(&self.ttft_ticks, 50.0),
            p95_ttft_ticks: percentile(&self.ttft_ticks, 95.0),
            p99_ttft_ticks: percentile(&self.ttft_ticks, 99.0),
            p50_latency_ticks: percentile(&self.latency_ticks, 50.0),
            p95_latency_ticks: percentile(&self.latency_ticks, 95.0),
            p99_latency_ticks: percentile(&self.latency_ticks, 99.0),
            prefix_hits: self.prefix_hits,
            pages_shared: self.pages_shared,
            prefix_bytes_saved: self.prefix_bytes_saved,
        }
    }
}

/// Nearest-rank percentile of an (unsorted) tick sample; 0 when empty.
fn percentile(samples: &[u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// The serializable end-of-run summary of a serving core's metrics. All
/// durations are virtual-time scheduler ticks (one decode step per running
/// session per tick), so every field is deterministic for a fixed workload
/// and can be regression-gated byte for byte.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSummary {
    /// Shared slot budget of the core.
    pub total_capacity: usize,
    /// Ticks the run took.
    pub ticks: u64,
    /// Requests submitted (accepted or not).
    pub submitted: u64,
    /// Submissions bounced by a full tenant queue (backpressure).
    pub rejected: u64,
    /// Admissions (counts re-admissions after preemption).
    pub admitted: u64,
    /// Requests retired with all decode steps done.
    pub completed: u64,
    /// Sessions evicted mid-flight for a higher-priority arrival.
    pub preemptions: u64,
    /// Re-admissions that had to prefill their prompt again.
    pub re_prefills: u64,
    /// Decode steps executed, including work later discarded.
    pub steps_executed: u64,
    /// Decode steps delivered by completed requests.
    pub tokens_completed: u64,
    /// Decode steps discarded by preemption (`steps_executed −
    /// tokens_completed` once the run drains).
    pub wasted_steps: u64,
    /// Delivered throughput: `tokens_completed / ticks`.
    pub tokens_per_tick: f64,
    /// Mean queued requests per tick.
    pub mean_queue_depth: f64,
    /// Mean occupied slots per tick.
    pub mean_occupancy_slots: f64,
    /// Peak occupied slots at any tick.
    pub peak_occupancy_slots: usize,
    /// Minimum occupied slots between the first admission and the last
    /// arrival — positive means sequences joined mid-flight (the core
    /// never drained to empty between arrivals).
    pub min_occupancy_between_arrivals: usize,
    /// Peak resident tokens across running sessions at any tick.
    pub peak_resident_tokens: usize,
    /// Ticks spent in each occupancy decile (`[0, 10%)`, …, `[90%, 100%]`
    /// of `total_capacity`).
    pub occupancy_histogram: Vec<u64>,
    /// Median queue wait (arrival → admission), in ticks.
    pub p50_wait_ticks: f64,
    /// 95th-percentile queue wait, in ticks.
    pub p95_wait_ticks: f64,
    /// Median time to first token (arrival → first decode step after the
    /// final admission), ticks. The TTFT percentiles take one sample per
    /// completed request, `first_token_tick − arrival_tick`, so they are
    /// the nearest-rank percentiles of
    /// [`ServeReport::completed`](crate::ServeReport::completed).
    pub p50_ttft_ticks: f64,
    /// 95th-percentile time to first token, ticks.
    pub p95_ttft_ticks: f64,
    /// 99th-percentile time to first token, ticks.
    pub p99_ttft_ticks: f64,
    /// Median end-to-end latency (arrival → retirement), ticks.
    pub p50_latency_ticks: f64,
    /// 95th-percentile end-to-end latency, ticks.
    pub p95_latency_ticks: f64,
    /// 99th-percentile end-to-end latency, ticks.
    pub p99_latency_ticks: f64,
    /// Admissions whose prefix was already cached in the shared
    /// [`PrefixRegistry`](crate::PrefixRegistry) (zero when the core runs
    /// without one).
    pub prefix_hits: u64,
    /// Cached pages spliced into admitted sessions' stores, summed over
    /// admissions.
    pub pages_shared: u64,
    /// Bytes of per-session KV storage avoided by those splices.
    pub prefix_bytes_saved: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 95.0), 95.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[7], 50.0), 7.0);
        assert_eq!(percentile(&[], 95.0), 0.0);
    }

    #[test]
    fn histogram_buckets_cover_the_deciles() {
        let mut m = ServerMetrics::new(100);
        for occ in [0, 5, 15, 95, 100, 100] {
            m.sample_tick(0, occ, 0, 0);
        }
        let s = m.summary();
        assert_eq!(s.occupancy_histogram.len(), OCCUPANCY_BUCKETS);
        assert_eq!(s.occupancy_histogram[0], 2); // 0 and 5
        assert_eq!(s.occupancy_histogram[1], 1); // 15
        assert_eq!(s.occupancy_histogram[9], 3); // 95, 100, 100 clamp to top
        assert_eq!(s.occupancy_histogram.iter().sum::<u64>(), s.ticks);
        assert_eq!(s.peak_occupancy_slots, 100);
    }

    #[test]
    fn min_occupancy_window_spans_first_admission_to_last_arrival() {
        let mut m = ServerMetrics::new(10);
        // Tick 0: idle. Ticks 1-3: busy. Tick 4 (last arrival): busy.
        // Tick 5: drained — outside the window, must not count.
        m.note_submitted(0);
        m.note_submitted(4);
        for occ in [0, 4, 6, 2, 4, 0] {
            m.sample_tick(0, occ, 0, 0);
        }
        assert_eq!(m.min_occupancy_between_arrivals(), 2);

        // A core that drained mid-arrivals reports zero.
        let mut drained = ServerMetrics::new(10);
        drained.note_submitted(0);
        drained.note_submitted(3);
        for occ in [4, 0, 4, 4] {
            drained.sample_tick(0, occ, 0, 0);
        }
        assert_eq!(drained.min_occupancy_between_arrivals(), 0);
    }

    #[test]
    fn summary_balances_the_token_ledger() {
        let mut m = ServerMetrics::new(64);
        m.note_submitted(0);
        m.note_admitted(0, false);
        m.note_preempted(3);
        m.note_admitted(2, true);
        m.note_completed(2, 9, 8);
        m.sample_tick(1, 32, 11, 40);
        let s = m.summary();
        assert_eq!(s.preemptions, 1);
        assert_eq!(s.re_prefills, 1);
        assert_eq!(s.wasted_steps, 3);
        assert_eq!(s.steps_executed, 11);
        assert_eq!(s.tokens_completed, 8);
        assert_eq!(s.tokens_per_tick, 8.0);
        assert_eq!(s.peak_resident_tokens, 40);
        assert_eq!(s.p50_latency_ticks, 9.0);
        // One TTFT sample for the preempted request, from its retirement.
        assert_eq!(s.p99_ttft_ticks, 2.0);
    }

    #[test]
    fn prefix_reuse_counters_accumulate() {
        let mut m = ServerMetrics::new(64);
        m.note_prefix_reuse(false, 0, 0); // cold miss: nothing shared
        m.note_prefix_reuse(true, 12, 9216);
        m.note_prefix_reuse(true, 12, 9216);
        let s = m.summary();
        assert_eq!(s.prefix_hits, 2);
        assert_eq!(s.pages_shared, 24);
        assert_eq!(s.prefix_bytes_saved, 18432);
    }

    #[test]
    fn summary_roundtrips_through_json() {
        let mut m = ServerMetrics::new(32);
        m.note_submitted(0);
        m.note_admitted(0, false);
        m.note_completed(1, 5, 4);
        m.sample_tick(0, 16, 1, 20);
        let s = m.summary();
        let text = serde_json::to_string(&s).unwrap();
        let back: MetricsSummary = serde_json::from_str(&text).unwrap();
        assert_eq!(back, s);
    }
}
