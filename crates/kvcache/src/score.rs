//! Accumulated attention-score tables.

use serde::{Deserialize, Serialize};

/// A table of accumulated attention scores per logical token: plain
/// running sums, what the paper's Fig. 3 "accumulated attention scores"
/// table holds and what H2O keeps. The charge sharing the array performs
/// instead (Fig. 8) is modeled in hardware by
/// `unicaim_core::UniCaimArray::accumulate_and_candidate`.
///
/// Scores live in a flat vector indexed by token id, one entry per row
/// like the array's per-row accumulation capacitor, so `observe`, `get`
/// and `remove` are O(1). Memory grows with the largest token id ever
/// tracked (16 bytes per id up to it, kept until the table is dropped).
/// Token ids are sequence positions, so that is bounded by the sequence
/// length: a 2688-token sequence costs at most ~43 KB.
///
/// # Examples
///
/// ```
/// use unicaim_kvcache::ScoreTable;
///
/// let mut table = ScoreTable::accumulating();
/// table.observe(0, 0.9); // sink token, heavy
/// table.observe(1, 0.05);
/// table.observe(2, 0.05);
/// // The eviction candidate is the lowest-accumulated token.
/// assert_eq!(table.min_among(&[0, 1, 2]), Some(1));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScoreTable {
    /// Score of token `t` at index `t`; `None` = not tracked.
    scores: Vec<Option<f64>>,
}

impl ScoreTable {
    /// An empty running-sum table.
    #[must_use]
    pub fn accumulating() -> Self {
        Self { scores: Vec::new() }
    }

    /// The entry of `token`, growing the vector to cover it.
    fn entry(&mut self, token: usize) -> &mut Option<f64> {
        if token >= self.scores.len() {
            self.scores.resize(token + 1, None);
        }
        &mut self.scores[token]
    }

    /// Registers a token with an initial score (used when a token enters the
    /// cache). Overwrites any previous entry.
    pub fn insert(&mut self, token: usize, initial: f64) {
        *self.entry(token) = Some(initial);
    }

    /// Records an observation for `token`. Unknown tokens are implicitly
    /// inserted at 0 first.
    pub fn observe(&mut self, token: usize, value: f64) {
        *self.entry(token).get_or_insert(0.0) += value;
    }

    /// Removes a token, returning its accumulated score.
    pub fn remove(&mut self, token: usize) -> Option<f64> {
        self.scores.get_mut(token).and_then(Option::take)
    }

    /// The accumulated score of a token.
    #[must_use]
    pub fn get(&self, token: usize) -> Option<f64> {
        self.scores.get(token).copied().flatten()
    }

    /// Number of tracked tokens (a scan; not for hot paths).
    #[must_use]
    pub fn len(&self) -> usize {
        self.scores.iter().filter(|s| s.is_some()).count()
    }

    /// True when no token is tracked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.scores.iter().all(Option::is_none)
    }

    /// The token with the lowest accumulated score among `candidates`
    /// (ties break toward the lower token id; candidates missing from the
    /// table count as 0). Totally ordered via [`f64::total_cmp`], so a NaN
    /// score yields a deterministic victim.
    #[must_use]
    pub fn min_among(&self, candidates: &[usize]) -> Option<usize> {
        self.min_of(candidates.iter().copied())
    }

    /// [`ScoreTable::min_among`] over any candidate iterator, so a caller
    /// can filter candidates without collecting them.
    pub(crate) fn min_of(&self, candidates: impl Iterator<Item = usize>) -> Option<usize> {
        candidates
            .map(|t| (t, self.get(t).unwrap_or(0.0)))
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
            .map(|(t, _)| t)
    }
}

impl PartialEq for ScoreTable {
    /// Logical equality: the same (token, score) pairs, whatever the
    /// vector lengths (removing the highest token leaves trailing `None`s
    /// behind).
    fn eq(&self, other: &Self) -> bool {
        let (short, long) = if self.scores.len() <= other.scores.len() {
            (&self.scores, &other.scores)
        } else {
            (&other.scores, &self.scores)
        };
        short[..] == long[..short.len()] && long[short.len()..].iter().all(Option::is_none)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulating_sums() {
        let mut t = ScoreTable::accumulating();
        t.observe(5, 0.25);
        t.observe(5, 0.5);
        assert!((t.get(5).unwrap() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn min_among_finds_lowest_and_breaks_ties() {
        let mut t = ScoreTable::accumulating();
        t.insert(1, 0.3);
        t.insert(2, 0.1);
        t.insert(3, 0.1);
        assert_eq!(t.min_among(&[1, 2, 3]), Some(2));
        assert_eq!(t.min_among(&[1, 3]), Some(3));
        assert_eq!(t.min_among(&[]), None);
        // Unknown candidates count as zero.
        assert_eq!(t.min_among(&[1, 99]), Some(99));
    }

    #[test]
    fn remove_returns_score() {
        let mut t = ScoreTable::accumulating();
        t.insert(7, 0.7);
        assert_eq!(t.remove(7), Some(0.7));
        assert_eq!(t.remove(7), None);
        assert!(t.is_empty());
    }
}
