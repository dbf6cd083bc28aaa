//! Small numeric and reporting helpers: a seeded RNG, percentiles, the
//! metric list the benchmark prints, and the host's peak resident memory.

/// SplitMix64: a tiny seeded generator for the benchmark's own draws
/// (request sampling, probe layouts). Workload content comes from the
/// library's generators.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `k` distinct indices of `0..n`, ascending.
    pub fn sample(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k.min(n) {
            let j = i + self.below(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k.min(n));
        idx.sort_unstable();
        idx
    }
}

/// Nearest-rank percentile (`p` in `0..=100`); 0 for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Lowers each element of `best` to the matching element of `other`.
pub fn min_into(best: &mut [f64], other: &[f64]) {
    for (b, &o) in best.iter_mut().zip(other) {
        *b = b.min(o);
    }
}

/// The element-wise minimum of `f(rep)` over `reps`, whose vectors line up
/// element for element (empty for no repetitions).
///
/// Repetitions of a workload do identical work, so each unit of it (a
/// tick, a decode step) takes the same time in every repetition except for
/// what other tenants of a shared host take, which only ever adds time and
/// drifts by tens of percent from minute to minute: a unit's fastest time
/// across repetitions is its least-disturbed cost.
pub fn elementwise_min<T>(reps: &[T], f: impl Fn(&T) -> Vec<f64>) -> Vec<f64> {
    let Some((first, rest)) = reps.split_first() else {
        return Vec::new();
    };
    let mut best = f(first);
    for r in rest {
        min_into(&mut best, &f(r));
    }
    best
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Metric names and units, in print order, as `BENCHMARK.json` lists them.
pub type Schema = &'static [(&'static str, &'static str)];

/// One value per metric of a schema. A metric nobody sets reads 0: the
/// value of a layer the workload bypasses.
pub struct Metrics {
    schema: Schema,
    values: Vec<f64>,
}

impl Metrics {
    pub fn new(schema: Schema) -> Self {
        Self {
            schema,
            values: vec![0.0; schema.len()],
        }
    }

    /// # Panics
    ///
    /// Panics if `name` is not in the schema (a typo in this benchmark).
    pub fn put(&mut self, name: &str, value: f64) {
        let i = self
            .schema
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the schema"));
        self.values[i] = value;
    }

    fn rows(&self) -> impl Iterator<Item = (&str, f64, &str)> + '_ {
        self.schema
            .iter()
            .zip(&self.values)
            .map(|(&(n, u), &v)| (n, v, u))
    }

    /// One aligned line per metric, for humans (stderr).
    pub fn table(&self) -> String {
        self.rows()
            .map(|(n, v, u)| format!("  {n:<28} {v:>16.6} {u}\n"))
            .collect()
    }

    /// The result line: the JSON object that ends standard output.
    pub fn result_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let body: Vec<String> = self
            .rows()
            .map(|(n, v, u)| {
                // JSON has no NaN/inf; a non-finite value is a bug upstream
                // and prints as -1 so it cannot pass for a measurement.
                let v = if v.is_finite() { v } else { -1.0 };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}

/// Peak resident set size of this process so far, in MB (Linux `VmHWM`);
/// 0 where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
