//! CELF — lazy greedy submodular maximisation (batch baseline).
//!
//! The classic Leskovec et al. accelerated greedy: marginal gains computed in
//! earlier iterations are upper bounds on current gains (by submodularity), so
//! elements are kept in a max-heap keyed by their last-known gain and only
//! re-evaluated when they reach the top.  CELF is `(1 − 1/e)`-approximate —
//! the best possible ratio for this problem — but it must evaluate the
//! singleton score of *every* active element for every query, which is what
//! makes it too slow for real-time k-SIR processing.
//!
//! The lazy-greedy pick order does not depend on `k`, so the result at any
//! `k` is the first `k` picks: [`run`] picks up to the largest requested size
//! once and hands each size the candidate as it stood after its `k`-th pick.

use std::collections::BinaryHeap;

use crate::stream::ActiveWindow;
use ksir_types::{ElementId, TopicWordDistribution};

use crate::algorithms::per_size;
use crate::evaluator::{CandidateState, ProfileArena, ProfileId, QueryEvaluator};
use crate::query::{Algorithm, QueryResult};

#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    gain: f64,
    id: ElementId,
    /// Size of the candidate set the gain was computed against.
    round: usize,
    /// The element's scoring profile (not part of the order).
    profile: ProfileId,
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.gain
            .total_cmp(&other.gain)
            .then_with(|| other.id.cmp(&self.id))
    }
}

/// Answers at every result size in `ks`, one result per entry, in the order
/// of `ks`.
pub(crate) fn run<D: TopicWordDistribution>(
    window: &ActiveWindow,
    evaluator: &QueryEvaluator<'_, D>,
    ks: &[usize],
) -> Vec<QueryResult> {
    per_size(ks, |sizes| greedy(window, evaluator, sizes))
}

/// The greedy run at the largest of `sizes` (distinct, ascending), read off
/// after every size's last pick.
fn greedy<D: TopicWordDistribution>(
    window: &ActiveWindow,
    evaluator: &QueryEvaluator<'_, D>,
    sizes: &[usize],
) -> Vec<QueryResult> {
    let evaluated = window.len();

    // Every element with a positive singleton score is buffered together
    // with the profile that score was read from, so lazy re-evaluations and
    // the final insert never rescore it.  The window is walked in slab
    // order, profiling by slot: the heap's order is total (ties broken by
    // id), so the order elements enter it in decides nothing.
    let mut heap: BinaryHeap<Entry> = BinaryHeap::new();
    let mut arena = ProfileArena::default();
    for (id, slot) in window.ids_and_slots() {
        let profile = evaluator.profile_at(&mut arena, slot);
        let gain = evaluator.delta_of(arena.get(profile));
        if gain > 0.0 {
            heap.push(Entry {
                gain,
                id,
                round: 0,
                profile,
            });
        } else {
            arena.pop();
        }
    }

    let mut state = evaluator.new_candidate();
    let mut results = Vec::with_capacity(sizes.len());
    while results.len() < sizes.len() {
        let Some(top) = heap.pop() else {
            break;
        };
        let profile = arena.get(top.profile);
        if top.round == state.len() {
            if top.gain <= 0.0 {
                break;
            }
            evaluator.insert_profile(&mut state, profile);
            if state.len() == sizes[results.len()] {
                results.push(result(&state, evaluated, evaluator));
            }
        } else {
            let gain = evaluator.gain_of(&state, profile);
            if gain > 0.0 {
                heap.push(Entry {
                    gain,
                    round: state.len(),
                    ..top
                });
            }
        }
    }
    // The picks ran out: every size not yet reached ends here.
    while results.len() < sizes.len() {
        results.push(result(&state, evaluated, evaluator));
    }
    results
}

fn result<D: TopicWordDistribution>(
    state: &CandidateState,
    evaluated: usize,
    evaluator: &QueryEvaluator<'_, D>,
) -> QueryResult {
    if state.is_empty() {
        return QueryResult::empty(Algorithm::Celf);
    }
    QueryResult {
        elements: state.members().to_vec(),
        score: state.score(),
        evaluated_elements: evaluated,
        gain_evaluations: evaluator.gain_evaluations(),
        algorithm: Algorithm::Celf,
        frontier: None,
    }
}
