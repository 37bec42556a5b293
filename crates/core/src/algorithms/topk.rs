//! Top-k Representative — the index baseline.
//!
//! Returns the `k` active elements with the highest *singleton*
//! representativeness scores `δ(e, x)`, retrieved from the ranked lists with
//! a Fagin-style threshold algorithm (stop as soon as the `k`-th best score
//! found so far exceeds the upper bound of any unretrieved element).  Because
//! word and influence overlaps between the selected elements are ignored this
//! is only a `1/k`-approximation for the k-SIR objective, and its quality
//! degrades as `k` grows — exactly the behaviour Figure 11 of the paper
//! reports.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ksir_types::TopicWordDistribution;

use crate::algorithms::{ScoredElement, SupportCursors};
use crate::evaluator::{ProfileArena, QueryEvaluator};
use crate::query::{Algorithm, KsirQuery, QueryResult};
use crate::view::RankedView;

pub(crate) fn run<D: TopicWordDistribution, V: RankedView + ?Sized>(
    view: &V,
    evaluator: &QueryEvaluator<'_, D>,
    query: &KsirQuery,
) -> QueryResult {
    let k = query.k();
    let mut cursors = SupportCursors::new(view, evaluator.support());
    // Min-heap of the current top-k singleton scores.
    let mut top: BinaryHeap<Reverse<ScoredElement>> = BinaryHeap::new();
    let mut arena = ProfileArena::default();
    let mut evaluated = 0_usize;

    loop {
        let ub = cursors.upper_bound();
        if top.len() == k {
            let kth = top.peek().expect("heap holds k entries").0.score;
            if ub < kth {
                break;
            }
        }
        let Some(id) = cursors.pop_next() else {
            break;
        };
        arena.clear();
        let profile = evaluator.profile(&mut arena, id);
        let delta = evaluator.delta_of(arena.get(profile));
        evaluated += 1;
        if delta <= 0.0 {
            continue;
        }
        let entry = ScoredElement { score: delta, id };
        if top.len() < k {
            top.push(Reverse(entry));
        } else if entry > top.peek().expect("heap holds k entries").0 {
            top.pop();
            top.push(Reverse(entry));
        }
    }

    let mut frontier = cursors.frontier();
    // Admission bar: once the heap holds k entries, an element below the
    // k-th best singleton score can never enter the result.
    if top.len() == k {
        frontier.bar = top.peek().map(|Reverse(e)| e.score);
    }
    if top.is_empty() {
        return QueryResult {
            frontier: Some(frontier),
            ..QueryResult::empty(Algorithm::TopkRepresentative)
        };
    }
    let mut selected: Vec<ScoredElement> = top.into_iter().map(|Reverse(e)| e).collect();
    selected.sort_by(|a, b| b.cmp(a));
    let elements: Vec<_> = selected.into_iter().map(|e| e.id).collect();
    // The result is still scored with the full set function so that quality
    // comparisons against the other algorithms are apples-to-apples.
    let score = evaluator.score_of(&elements);
    QueryResult {
        elements,
        score,
        evaluated_elements: evaluated,
        gain_evaluations: evaluator.gain_evaluations(),
        algorithm: Algorithm::TopkRepresentative,
        frontier: Some(frontier),
    }
}
