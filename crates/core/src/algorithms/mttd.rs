//! Multi-Topic ThresholdDescend (Algorithm 3).
//!
//! MTTD keeps a *single* candidate set and performs rounds of evaluation with
//! a geometrically decreasing admission threshold `τ`.  In the round with
//! threshold `τ` it first *retrieves* from the ranked lists every element
//! whose upper-bound score can still reach `τ`, buffering them, and then adds
//! any buffered element whose marginal gain reaches `τ`.  Buffered elements
//! can be re-evaluated in later rounds (their cached gains are only upper
//! bounds, by submodularity), which is what lifts the approximation ratio to
//! `(1 − 1/e − ε)` (Theorem 4.4) at the cost of a higher worst-case
//! complexity than MTTS.
//!
//! # Every result size from one descent
//!
//! Neither the retrievals nor the admissions depend on `k`: it enters only
//! through the fill check `|S| = k` and the stopping threshold
//! `τ_min = f(S)·ε/k`.  `τ_min` falls as `k` grows, so the run at a smaller
//! `k` is a prefix of the run at the largest, and [`run`] descends once, at
//! the largest requested size, ending each smaller size where its own run
//! would have stopped: when the candidate reaches it, when its own replay of
//! the warm-start fast-forward takes `τ` below its `τ_min`, or at an exit
//! every size shares.

use std::collections::BinaryHeap;

use ksir_types::TopicWordDistribution;

use crate::algorithms::{per_size, ScoredElement, SupportCursors};
use crate::evaluator::{CandidateState, ProfileArena, ProfileId, QueryEvaluator};
use crate::query::{Algorithm, KsirQuery, QueryResult};
use crate::view::RankedView;

/// A retrieved-but-not-selected element: its current gain upper bound and
/// its scoring profile, so lazy re-evaluations in later rounds and the insert
/// after an admission never rescore it.
///
/// An element that left the buffer (admitted, or down to no gain) keeps its
/// position with a bound of zero: every heap entry's score is positive, so
/// no entry matches it again.
struct Buffered {
    bound: f64,
    profile: ProfileId,
}

/// Answers `query`'s vector and `ε` at every result size in `ks`, one result
/// per entry, in the order of `ks`.
pub(crate) fn run<D: TopicWordDistribution, V: RankedView + ?Sized>(
    view: &V,
    evaluator: &QueryEvaluator<'_, D>,
    query: &KsirQuery,
    ks: &[usize],
) -> Vec<QueryResult> {
    per_size(ks, |sizes| descend(view, evaluator, query.epsilon(), sizes))
}

/// One descent serving `sizes` (distinct, ascending): the run at the largest
/// size, with every smaller size ended where its own run ends.
fn descend<D: TopicWordDistribution, V: RankedView + ?Sized>(
    view: &V,
    evaluator: &QueryEvaluator<'_, D>,
    epsilon: f64,
    sizes: &[usize],
) -> Vec<QueryResult> {
    let mut cursors = SupportCursors::new(view, evaluator.window(), evaluator.support());
    let mut state = evaluator.new_candidate();
    // The sizes still descending are `sizes[results.len()..]`: smaller sizes
    // always end first.
    let mut results: Vec<QueryResult> = Vec::with_capacity(sizes.len());
    let tau_min = |state: &CandidateState, k: usize| state.score() * epsilon / k as f64;

    // Buffer E′ of retrieved-but-not-selected elements, by position of
    // arrival: cached gain upper bounds plus a lazy max-heap over them whose
    // entries carry the position.  No two entries share a `(score, id)` — a
    // re-pushed bound is below the one just popped — so the position never
    // decides the heap's order.
    let mut buffer: Vec<Buffered> = Vec::new();
    // How many buffered elements are still in E′.
    let mut buffered = 0_usize;
    let mut heap: BinaryHeap<(ScoredElement, usize)> = BinaryHeap::new();
    // The profiles of every buffered element, side by side.
    let mut arena = ProfileArena::default();

    let mut tau = cursors.upper_bound();
    if tau <= 0.0 {
        let empty = QueryResult {
            frontier: Some(cursors.frontier()),
            ..QueryResult::empty(Algorithm::Mttd)
        };
        return vec![empty; sizes.len()];
    }

    loop {
        // retrieve(τ): pull every element whose score can still reach τ.
        while cursors.upper_bound() >= tau {
            let Some((id, slot)) = cursors.pop_next() else {
                break;
            };
            let profile = evaluator.profile_at(&mut arena, slot);
            let delta = evaluator.delta_of(arena.get(profile));
            if delta > 0.0 {
                heap.push((ScoredElement { score: delta, id }, buffer.len()));
                buffer.push(Buffered {
                    bound: delta,
                    profile,
                });
                buffered += 1;
            } else {
                arena.pop();
            }
        }

        // Evaluation: admit buffered elements whose marginal gain reaches τ.
        while let Some(&(top, at)) = heap.peek() {
            let entry = &mut buffer[at];
            if entry.bound != top.score {
                // Stale heap entry (the element was admitted or its cached
                // gain was lowered since this entry was pushed): discard.
                heap.pop();
                continue;
            }
            if top.score < tau {
                break;
            }
            heap.pop();
            let profile = arena.get(entry.profile);
            let gain = evaluator.gain_of(&state, profile);
            if gain >= tau {
                evaluator.insert_profile(&mut state, profile);
                entry.bound = 0.0;
                buffered -= 1;
                if state.len() == sizes[results.len()] {
                    // τ at the moment the result filled is the admission bar:
                    // below it nothing could have joined the result.
                    results.push(finish(&state, &cursors, evaluator, Some(tau)));
                    if results.len() == sizes.len() {
                        return results;
                    }
                }
            } else if gain > 0.0 {
                entry.bound = gain;
                heap.push((ScoredElement { score: gain, ..top }, at));
            } else {
                entry.bound = 0.0;
                buffered -= 1;
            }
        }

        tau *= 1.0 - epsilon;

        // Nothing left to retrieve or admit: no later round can make
        // progress — for any size.
        if (buffered == 0 && cursors.exhausted()) || tau < f64::MIN_POSITIVE {
            break;
        }

        // Warm-start fast-forward: while τ is above both the lists' upper
        // bound (nothing to retrieve) and the best buffered gain bound
        // (nothing to admit), a round does nothing but multiply τ — replay
        // those multiplications in one tight loop.  `τ_min` is frozen while
        // nothing is admitted and the exit conditions are stepped in the
        // same order as the full rounds, so the τ grid — and with it every
        // later decision — is bit-identical to the unaccelerated loop.
        while let Some(&(top, at)) = heap.peek() {
            if buffer[at].bound == top.score {
                break;
            }
            heap.pop();
        }
        let best_buffered = heap.peek().map(|(t, _)| t.score).unwrap_or(0.0);
        let target = cursors.upper_bound().max(best_buffered);
        // Each size replays the fast-forward under its own `τ_min`, smallest
        // size (highest `τ_min`) first.  A larger size's replay passes every
        // step a smaller one took, so each continues where the last stopped;
        // a size ends when its replay leaves τ below its `τ_min` (the round
        // loop's condition) or below the smallest positive float.  The first
        // size that survives stopped at the target, where every larger size
        // stops too: its τ is the descent's.
        while results.len() < sizes.len() {
            let floor = tau_min(&state, sizes[results.len()]);
            while tau >= floor && tau > target && tau >= f64::MIN_POSITIVE {
                tau *= 1.0 - epsilon;
            }
            if tau >= f64::MIN_POSITIVE && tau >= floor {
                break;
            }
            results.push(finish(&state, &cursors, evaluator, bar(floor)));
        }
        if results.len() == sizes.len() {
            return results;
        }
    }

    // A shared exit: every size still descending ends here, each with its
    // own `τ_min` as the bar.
    for &k in &sizes[results.len()..] {
        let floor = tau_min(&state, k);
        results.push(finish(&state, &cursors, evaluator, bar(floor)));
    }
    results
}

/// The admission bar a run that ends on `τ_min` reports.
fn bar(tau_min: f64) -> Option<f64> {
    (tau_min > 0.0).then_some(tau_min)
}

fn finish<D: TopicWordDistribution>(
    state: &CandidateState,
    cursors: &SupportCursors<'_>,
    evaluator: &QueryEvaluator<'_, D>,
    bar: Option<f64>,
) -> QueryResult {
    let mut frontier = cursors.frontier();
    frontier.bar = bar;
    if state.is_empty() {
        return QueryResult {
            frontier: Some(frontier),
            ..QueryResult::empty(Algorithm::Mttd)
        };
    }
    QueryResult {
        elements: state.members().to_vec(),
        score: state.score(),
        evaluated_elements: cursors.retrieved(),
        gain_evaluations: evaluator.gain_evaluations(),
        algorithm: Algorithm::Mttd,
        frontier: Some(frontier),
    }
}
