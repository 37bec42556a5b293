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
//!
//! [`run`] serves several `k` from one traversal: each size keeps its own
//! min-heap, every heap is fed the same `(δ, id)` sequence, and each size
//! stops at its own `UB < k-th score` test.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ksir_types::TopicWordDistribution;

use crate::algorithms::{per_size, ScoredElement, SupportCursors};
use crate::evaluator::{ProfileArena, QueryEvaluator};
use crate::query::{Algorithm, QueryFrontier, QueryResult};
use crate::view::RankedView;

/// One result size's share of the traversal.
struct Heap {
    k: usize,
    /// Min-heap of the current top-k singleton scores.
    top: BinaryHeap<Reverse<ScoredElement>>,
    /// Where the size's own run stopped: its frontier and the work counters
    /// at that moment.
    end: Option<(QueryFrontier, usize, usize)>,
}

impl Heap {
    /// The k-th best singleton score, once the heap holds k entries.
    fn kth(&self) -> Option<f64> {
        (self.top.len() == self.k).then(|| self.top.peek().expect("heap holds k entries").0.score)
    }
}

/// Answers at every result size in `ks`, one result per entry, in the order
/// of `ks`.
pub(crate) fn run<D: TopicWordDistribution, V: RankedView + ?Sized>(
    view: &V,
    evaluator: &QueryEvaluator<'_, D>,
    ks: &[usize],
) -> Vec<QueryResult> {
    per_size(ks, |sizes| traverse(view, evaluator, sizes))
}

fn traverse<D: TopicWordDistribution, V: RankedView + ?Sized>(
    view: &V,
    evaluator: &QueryEvaluator<'_, D>,
    sizes: &[usize],
) -> Vec<QueryResult> {
    let mut cursors = SupportCursors::new(view, evaluator.window(), evaluator.support());
    let mut heaps: Vec<Heap> = sizes
        .iter()
        .map(|&k| Heap {
            k,
            top: BinaryHeap::new(),
            end: None,
        })
        .collect();
    let mut arena = ProfileArena::default();
    let mut evaluated = 0_usize;

    loop {
        let ub = cursors.upper_bound();
        let mut running = false;
        for heap in heaps.iter_mut().filter(|heap| heap.end.is_none()) {
            if heap.kth().is_some_and(|kth| ub < kth) {
                heap.end = Some((cursors.frontier(), evaluated, evaluator.gain_evaluations()));
            } else {
                running = true;
            }
        }
        if !running {
            break;
        }
        let Some((id, slot)) = cursors.pop_next() else {
            break;
        };
        arena.clear();
        let profile = evaluator.profile_at(&mut arena, slot);
        let delta = evaluator.delta_of(arena.get(profile));
        evaluated += 1;
        if delta <= 0.0 {
            continue;
        }
        let entry = ScoredElement { score: delta, id };
        for heap in heaps.iter_mut().filter(|heap| heap.end.is_none()) {
            if heap.top.len() < heap.k {
                heap.top.push(Reverse(entry));
            } else if entry > heap.top.peek().expect("heap holds k entries").0 {
                heap.top.pop();
                heap.top.push(Reverse(entry));
            }
        }
    }

    heaps
        .into_iter()
        .map(|mut heap| {
            let (mut frontier, evaluated, gain_evaluations) = match heap.end.take() {
                Some(end) => end,
                None => (cursors.frontier(), evaluated, evaluator.gain_evaluations()),
            };
            // Admission bar: once the heap holds k entries, an element below
            // the k-th best singleton score can never enter the result.
            frontier.bar = heap.kth();
            if heap.top.is_empty() {
                return QueryResult {
                    frontier: Some(frontier),
                    ..QueryResult::empty(Algorithm::TopkRepresentative)
                };
            }
            let mut selected: Vec<ScoredElement> =
                heap.top.into_iter().map(|Reverse(e)| e).collect();
            selected.sort_by(|a, b| b.cmp(a));
            let elements: Vec<_> = selected.into_iter().map(|e| e.id).collect();
            // The result is still scored with the full set function so that
            // quality comparisons against the other algorithms are
            // apples-to-apples.
            let score = evaluator.score_of(&elements);
            QueryResult {
                elements,
                score,
                evaluated_elements: evaluated,
                gain_evaluations,
                algorithm: Algorithm::TopkRepresentative,
                frontier: Some(frontier),
            }
        })
        .collect()
}
