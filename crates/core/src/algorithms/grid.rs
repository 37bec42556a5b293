//! The geometric grid of guesses `Φ = {(1+ε)^j}` for the optimal score that
//! MTTS and SieveStreaming both thread their candidates through.
//!
//! Each guess owns an independent candidate set.  Its value `(1+ε)^j` and the
//! admission threshold `(1+ε)^j / 2k` are computed once, when the guess
//! enters the grid, and stored next to the candidate — the element loops only
//! ever compare against stored numbers.

use ksir_types::TopicWordDistribution;

use crate::evaluator::{CandidateState, QueryEvaluator};
use crate::query::KsirQuery;

/// One guess `ϕ = (1+ε)^j` and the candidate set it owns.
#[derive(Debug)]
pub(crate) struct Guess {
    /// The exponent `j`.
    pub exponent: i64,
    /// `ϕ = (1+ε)^j` — SieveStreaming's target value `v`.
    pub value: f64,
    /// `ϕ / 2k` — MTTS's admission threshold.
    pub threshold: f64,
    /// The candidate set grown under this guess.
    pub state: CandidateState,
}

/// `Φ = {(1+ε)^j : δmax ≤ (1+ε)^j ≤ 2k·δmax}`, ascending in `j`, re-anchored
/// whenever a larger singleton score is observed.
#[derive(Debug)]
pub(crate) struct GuessGrid {
    base: f64,
    /// `2k`, as the float both grid bounds and thresholds are computed with.
    two_k: f64,
    max_singleton: f64,
    guesses: Vec<Guess>,
}

impl GuessGrid {
    /// An empty grid for `query`'s `k` and `ε`.
    pub fn new(query: &KsirQuery) -> Self {
        GuessGrid {
            base: 1.0 + query.epsilon(),
            two_k: 2.0 * query.k() as f64,
            max_singleton: 0.0,
            guesses: Vec::new(),
        }
    }

    /// Feeds one positive singleton score.  When it raises `δmax`, guesses
    /// that fell below the new range are dropped (with their candidates),
    /// surviving guesses keep theirs, and the new top of the range is opened
    /// with empty candidates.
    pub fn observe<D: TopicWordDistribution>(
        &mut self,
        delta: f64,
        evaluator: &QueryEvaluator<'_, D>,
    ) {
        if delta <= self.max_singleton {
            return;
        }
        self.max_singleton = delta;
        let lo = (delta.ln() / self.base.ln()).ceil() as i64;
        let hi = ((self.two_k * delta).ln() / self.base.ln()).floor() as i64;
        self.guesses
            .retain(|guess| guess.exponent >= lo && guess.exponent <= hi);
        // δmax only grows, so `lo` only grows: what survives is a gapless
        // run starting at `lo`, and the missing exponents are all above it.
        let next = self.guesses.last().map_or(lo, |guess| guess.exponent + 1);
        debug_assert!(self
            .guesses
            .first()
            .is_none_or(|guess| guess.exponent == lo));
        for exponent in next..=hi {
            let value = self.base.powf(exponent as f64);
            self.guesses.push(Guess {
                exponent,
                value,
                threshold: value / self.two_k,
                state: evaluator.new_candidate(),
            });
        }
    }

    /// Returns `true` while no positive singleton score has been observed.
    pub fn is_empty(&self) -> bool {
        self.guesses.is_empty()
    }

    /// The live guesses, ascending in `j` (and therefore in value and
    /// threshold).
    pub fn guesses(&self) -> &[Guess] {
        &self.guesses
    }

    /// Mutable access to the live guesses, for admissions.
    pub fn guesses_mut(&mut self) -> &mut [Guess] {
        &mut self.guesses
    }

    /// The smallest admission threshold among candidates still below `k`
    /// members (MTTS's `TH`); infinite when every candidate is full.
    pub fn min_unfilled_threshold(&self, k: usize) -> f64 {
        self.guesses
            .iter()
            .filter(|guess| guess.state.len() < k)
            .map(|guess| guess.threshold)
            .fold(f64::INFINITY, f64::min)
    }

    /// The best-scoring candidate (the last of equals in ascending `j`).
    pub fn into_best(self) -> Option<CandidateState> {
        self.guesses
            .into_iter()
            .map(|guess| guess.state)
            .max_by(|a, b| a.score().total_cmp(&b.score()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::paper_example;
    use ksir_types::QueryVector;

    /// After every re-anchoring, each live guess's stored numbers are the
    /// freshly computed `base.powf(j)` expressions, bit for bit, and the
    /// grid is exactly `lo..=hi` — what the per-iteration `powf` calls of the
    /// MTTS / SieveStreaming loops used to produce.
    #[test]
    fn stored_thresholds_equal_fresh_powf_after_every_refresh() {
        let ex = paper_example();
        let engine = ex.build_engine();
        for (k, epsilon) in [(1usize, 0.1), (3, 0.1), (10, 0.1), (25, 0.05), (10, 0.5)] {
            let query = KsirQuery::new(k, QueryVector::new(vec![0.5, 0.5]).unwrap())
                .unwrap()
                .with_epsilon(epsilon)
                .unwrap();
            let evaluator = crate::QueryEvaluator::new(
                engine.scorer(),
                engine.window(),
                engine.topic_vectors(),
                query.vector(),
            );
            let base = 1.0 + epsilon;
            let mut grid = GuessGrid::new(&query);
            assert!(grid.is_empty());
            assert_eq!(grid.min_unfilled_threshold(k), f64::INFINITY);
            // Rising, repeated and falling singleton scores, over six orders
            // of magnitude (large jumps drop the whole grid).
            let deltas = [
                1e-4, 1.3e-4, 1.3e-4, 9e-5, 2e-3, 2.1e-3, 0.4, 0.39, 7.5, 160.0,
            ];
            let mut delta_max = 0.0_f64;
            for delta in deltas {
                grid.observe(delta, &evaluator);
                delta_max = delta_max.max(delta);
                let lo = (delta_max.ln() / base.ln()).ceil() as i64;
                let hi = ((2.0 * k as f64 * delta_max).ln() / base.ln()).floor() as i64;
                let exponents: Vec<i64> = grid.guesses().iter().map(|g| g.exponent).collect();
                assert_eq!(exponents, (lo..=hi).collect::<Vec<_>>());
                for guess in grid.guesses() {
                    let j = guess.exponent;
                    assert_eq!(guess.value.to_bits(), base.powf(j as f64).to_bits());
                    assert_eq!(
                        guess.threshold.to_bits(),
                        (base.powf(j as f64) / (2.0 * k as f64)).to_bits()
                    );
                }
                assert_eq!(
                    grid.min_unfilled_threshold(k).to_bits(),
                    (base.powf(lo as f64) / (2.0 * k as f64)).to_bits()
                );
            }
        }
    }

    /// Re-anchoring keeps the candidates of surviving guesses.
    #[test]
    fn surviving_guesses_keep_their_candidates() {
        let ex = paper_example();
        let engine = ex.build_engine();
        let query = KsirQuery::new(2, QueryVector::new(vec![0.5, 0.5]).unwrap()).unwrap();
        let evaluator = crate::QueryEvaluator::new(
            engine.scorer(),
            engine.window(),
            engine.topic_vectors(),
            query.vector(),
        );
        let mut grid = GuessGrid::new(&query);
        grid.observe(0.2, &evaluator);
        let id = engine.active_ids()[0];
        let top = grid.guesses().last().unwrap().exponent;
        for guess in grid.guesses_mut() {
            evaluator.insert(&mut guess.state, id);
        }
        grid.observe(0.25, &evaluator);
        for guess in grid.guesses() {
            assert_eq!(guess.state.len(), usize::from(guess.exponent <= top));
        }
        assert!(grid.guesses().last().unwrap().exponent > top);
        assert_eq!(grid.into_best().unwrap().members(), [id]);
    }
}
