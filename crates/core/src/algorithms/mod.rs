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
//!
//! # Many result sizes, one pass
//!
//! Every kernel answers a set of result sizes `ks` in one pass over the
//! index or the window, returning for each size exactly what a run at that
//! size alone returns — elements, score bits, work counters and frontier.
//! This holds because `k` only ever enters a kernel as a per-size admission
//! rule or stopping test on top of a size-independent traversal:
//!
//! * MTTD's `τ` schedule and CELF's pick order do not depend on `k`, so the
//!   run at a smaller `k` is a prefix of the run at the largest: a size ends
//!   where its own fill check or `τ_min = f(S)·ε/k` test would have stopped
//!   it.
//! * MTTS, SieveStreaming and Top-k Representative keep one guess grid (one
//!   heap) per size, all fed the one retrieval order and the one profile per
//!   element; each size ends at its own `UB` test.  The grids of all sizes
//!   are columns of one coverage table, so an element is tested against, and
//!   admitted into, every size's guesses with one probe per word and child.
//!
//! Work counters are kept per size: a singleton score counts for every size
//! still running when it is read, a grid's gain evaluation only for its own.

pub(crate) mod celf;
mod grid;
pub(crate) mod mttd;
pub(crate) mod mtts;
pub(crate) mod sieve;
pub(crate) mod topk;
mod traversal;

use ksir_types::ElementId;

use crate::query::QueryResult;

pub(crate) use grid::GridSet;
pub(crate) use traversal::SupportCursors;

/// Runs a kernel body once over the distinct sizes of `ks`, ascending, and
/// hands every entry of `ks` the result the body produced for its size.
/// `run` returns one result per size it is given, in the same order.
pub(crate) fn per_size(
    ks: &[usize],
    run: impl FnOnce(&[usize]) -> Vec<QueryResult>,
) -> Vec<QueryResult> {
    if ks.is_empty() {
        return Vec::new();
    }
    // A single size, or distinct sizes in ascending order as the cluster
    // refresh passes them: nothing to map back.
    if ks.is_sorted_by(|a, b| a < b) {
        return run(ks);
    }
    let mut sizes = ks.to_vec();
    sizes.sort_unstable();
    sizes.dedup();
    let results = run(&sizes);
    ks.iter()
        .map(|k| results[sizes.binary_search(k).expect("every k has a size")].clone())
        .collect()
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
