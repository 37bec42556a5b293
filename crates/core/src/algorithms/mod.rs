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
