//! Accumulated attention-score tables.

use serde::{Deserialize, Serialize};

/// A table of accumulated attention scores per logical token.
///
/// Supports both plain accumulation (H2O-style running sums, what the
/// paper's Fig. 3 "accumulated attention scores" table does) and
/// exponentially weighted accumulation (what the charge-sharing hardware of
/// Fig. 8 physically computes, with `α = C_SL/(C_SL+C_Acc)`).
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
    /// `None` = plain sum; `Some(alpha)` = EWMA with the given mixing factor.
    ewma_alpha: Option<f64>,
}

impl ScoreTable {
    /// A plain accumulating (running-sum) table.
    #[must_use]
    pub fn accumulating() -> Self {
        Self {
            scores: Vec::new(),
            ewma_alpha: None,
        }
    }

    /// An exponentially weighted table with mixing factor `alpha ∈ (0, 1]`:
    /// `score' = (1−α)·score + α·observation` (charge-sharing semantics).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    #[must_use]
    pub fn ewma(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "alpha must be in (0,1], got {alpha}"
        );
        Self {
            scores: Vec::new(),
            ewma_alpha: Some(alpha),
        }
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
        let alpha = self.ewma_alpha;
        let entry = self.entry(token).get_or_insert(0.0);
        match alpha {
            None => *entry += value,
            Some(a) => *entry = (1.0 - a) * *entry + a * value,
        }
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

    /// Tokens sorted by descending accumulated score (ties toward lower id,
    /// total order via [`f64::total_cmp`]).
    #[must_use]
    pub fn ranked_desc(&self) -> Vec<usize> {
        let mut v: Vec<(usize, f64)> = self
            .scores
            .iter()
            .enumerate()
            .filter_map(|(t, s)| s.map(|s| (t, s)))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v.into_iter().map(|(t, _)| t).collect()
    }
}

impl PartialEq for ScoreTable {
    /// Logical equality: the same accumulation mode and the same
    /// (token, score) pairs, whatever the vector lengths (removing the
    /// highest token leaves trailing `None`s behind).
    fn eq(&self, other: &Self) -> bool {
        let (short, long) = if self.scores.len() <= other.scores.len() {
            (&self.scores, &other.scores)
        } else {
            (&other.scores, &self.scores)
        };
        self.ewma_alpha == other.ewma_alpha
            && short[..] == long[..short.len()]
            && long[short.len()..].iter().all(Option::is_none)
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
    fn ewma_mixes() {
        let mut t = ScoreTable::ewma(0.5);
        t.observe(1, 1.0); // 0.5
        t.observe(1, 1.0); // 0.75
        assert!((t.get(1).unwrap() - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0,1]")]
    fn ewma_rejects_bad_alpha() {
        let _ = ScoreTable::ewma(0.0);
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
    fn ranked_desc_orders() {
        let mut t = ScoreTable::accumulating();
        t.insert(10, 0.5);
        t.insert(20, 0.9);
        t.insert(30, 0.1);
        assert_eq!(t.ranked_desc(), vec![20, 10, 30]);
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
