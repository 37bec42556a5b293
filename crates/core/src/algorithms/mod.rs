//! Query-processing algorithms for k-SIR queries.
//!
//! * [`mtts`] — Multi-Topic ThresholdStream (Algorithm 2), `(1/2 − ε)`-approx.
//! * [`mttd`] — Multi-Topic ThresholdDescend (Algorithm 3), `(1 − 1/e − ε)`-approx.
//! * [`celf`] — CELF lazy greedy, the batch baseline, `(1 − 1/e)`-approx.
//! * [`sieve`] — SieveStreaming, the streaming baseline, `(1/2 − ε)`-approx.
//! * [`topk`] — Top-k Representative, the index baseline, `1/k`-approx.
//!
//! All algorithms operate on the same two ingredients the engine hands them:
//! the per-topic ranked lists (for the index-based methods) and a
//! [`crate::evaluator::QueryEvaluator`] for singleton scores and marginal
//! gains.

pub(crate) mod celf;
mod grid;
pub(crate) mod mttd;
pub(crate) mod mtts;
pub(crate) mod sieve;
pub(crate) mod topk;
mod traversal;

use ksir_types::ElementId;

pub(crate) use grid::GuessGrid;
pub(crate) use traversal::SupportCursors;

use crate::evaluator::{ProfileArena, ProfileId, QueryEvaluator, SingletonCache};

/// Singleton score `δ(e, x)` through the optional memo: a hit replays the
/// remembered value with no scoring pass, a miss evaluates and remembers.
///
/// A miss (or an unmemoised run) profiles the element into `arena` and
/// returns the handle, so the caller's later gain evaluations of the same
/// element reuse that one scoring pass; a hit returns no handle, so a
/// memoised element is only ever profiled if some candidate goes on to
/// evaluate it.
///
/// The cache can only ever hold values a scoring pass produced for the same
/// window state (see [`SingletonCache`]), so the retrieval order, admission
/// decisions and final scores of a cached run are identical to an uncached
/// one — only `gain_evaluations` shrinks.
pub(crate) fn singleton_score<D: ksir_types::TopicWordDistribution>(
    evaluator: &QueryEvaluator<'_, D>,
    cache: &mut Option<&mut SingletonCache>,
    arena: &mut ProfileArena,
    id: ElementId,
) -> (f64, Option<ProfileId>) {
    let mut score_fresh = || {
        let profile = evaluator.profile(arena, id);
        (evaluator.delta_of(arena.get(profile)), Some(profile))
    };
    let Some(memo) = cache else {
        return score_fresh();
    };
    let scored = if let Some(score) = memo.get(id) {
        memo.note_hit();
        (score, None)
    } else {
        memo.note_miss();
        let scored = score_fresh();
        memo.remember(id, scored.0);
        scored
    };
    memo.consult(id);
    scored
}

/// A `(score, element)` pair with a total order (descending by score in a
/// max-heap, ties broken by element id for determinism).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ScoredElement {
    pub score: f64,
    pub id: ElementId,
}

impl Eq for ScoredElement {}

impl PartialOrd for ScoredElement {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ScoredElement {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.score
            .total_cmp(&other.score)
            .then_with(|| other.id.cmp(&self.id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    #[test]
    fn scored_element_orders_by_score_then_id() {
        let mut heap = BinaryHeap::new();
        heap.push(ScoredElement {
            score: 0.2,
            id: ElementId(1),
        });
        heap.push(ScoredElement {
            score: 0.9,
            id: ElementId(2),
        });
        heap.push(ScoredElement {
            score: 0.9,
            id: ElementId(1),
        });
        assert_eq!(heap.pop().unwrap().id, ElementId(1));
        assert_eq!(heap.pop().unwrap().id, ElementId(2));
        assert_eq!(heap.pop().unwrap().id, ElementId(1));
    }
}
