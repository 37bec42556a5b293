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

use std::collections::{BinaryHeap, HashMap};

use ksir_types::{ElementId, TopicWordDistribution};

use crate::algorithms::{ScoredElement, SupportCursors};
use crate::evaluator::{CandidateState, ProfileArena, ProfileId, QueryEvaluator};
use crate::query::{Algorithm, KsirQuery, QueryResult};
use crate::view::RankedView;

/// A retrieved-but-not-selected element: its current gain upper bound and
/// its scoring profile, so lazy re-evaluations in later rounds and the insert
/// after an admission never rescore it.
struct Buffered {
    bound: f64,
    profile: ProfileId,
}

pub(crate) fn run<D: TopicWordDistribution, V: RankedView + ?Sized>(
    view: &V,
    evaluator: &QueryEvaluator<'_, D>,
    query: &KsirQuery,
) -> QueryResult {
    let k = query.k();
    let epsilon = query.epsilon();
    let mut cursors = SupportCursors::new(view, evaluator.support());
    let mut state = evaluator.new_candidate();

    // Buffer E′ of retrieved-but-not-selected elements: cached gain upper
    // bounds plus a lazy max-heap over them.
    let mut buffer: HashMap<ElementId, Buffered> = HashMap::new();
    let mut heap: BinaryHeap<ScoredElement> = BinaryHeap::new();
    // The profiles of every buffered element, side by side.
    let mut arena = ProfileArena::default();

    let mut tau = cursors.upper_bound();
    if tau <= 0.0 {
        return QueryResult {
            frontier: Some(cursors.frontier()),
            ..QueryResult::empty(Algorithm::Mttd)
        };
    }
    let mut tau_min = 0.0_f64;

    while tau >= tau_min {
        // retrieve(τ): pull every element whose score can still reach τ.
        while cursors.upper_bound() >= tau {
            let Some(id) = cursors.pop_next() else {
                break;
            };
            let profile = evaluator.profile(&mut arena, id);
            let delta = evaluator.delta_of(arena.get(profile));
            if delta > 0.0 {
                buffer.insert(
                    id,
                    Buffered {
                        bound: delta,
                        profile,
                    },
                );
                heap.push(ScoredElement { score: delta, id });
            } else {
                arena.pop();
            }
        }

        // Evaluation: admit buffered elements whose marginal gain reaches τ.
        while let Some(&top) = heap.peek() {
            let entry = match buffer.get_mut(&top.id) {
                Some(entry) if entry.bound == top.score => entry,
                // Stale heap entry (the element was admitted or its cached
                // gain was lowered since this entry was pushed): discard.
                _ => {
                    heap.pop();
                    continue;
                }
            };
            if top.score < tau {
                break;
            }
            heap.pop();
            let profile = arena.get(entry.profile);
            let gain = evaluator.gain_of(&state, profile);
            if gain >= tau {
                evaluator.insert_profile(&mut state, profile);
                buffer.remove(&top.id);
                if state.len() == k {
                    // τ at the moment the result filled is the admission bar:
                    // below it nothing could have joined the result.
                    return finish(state, &mut cursors, evaluator, Some(tau));
                }
            } else if gain > 0.0 {
                entry.bound = gain;
                heap.push(ScoredElement {
                    score: gain,
                    id: top.id,
                });
            } else {
                buffer.remove(&top.id);
            }
        }

        tau_min = state.score() * epsilon / k as f64;
        tau *= 1.0 - epsilon;

        // Nothing left to retrieve or admit: no later round can make progress.
        if buffer.is_empty() && cursors.exhausted() {
            break;
        }
        if tau < f64::MIN_POSITIVE {
            break;
        }

        // Warm-start fast-forward: while τ is above both the lists' upper
        // bound (nothing to retrieve) and the best buffered gain bound
        // (nothing to admit), a round does nothing but multiply τ — replay
        // those multiplications in one tight loop.  `τ_min` is frozen while
        // nothing is admitted and the exit conditions are stepped in the
        // same order as the full rounds, so the τ grid — and with it every
        // later decision — is bit-identical to the unaccelerated loop.
        while let Some(&top) = heap.peek() {
            match buffer.get(&top.id) {
                Some(entry) if entry.bound == top.score => break,
                _ => {
                    heap.pop();
                }
            }
        }
        let best_buffered = heap.peek().map(|t| t.score).unwrap_or(0.0);
        let target = cursors.upper_bound().max(best_buffered);
        while tau >= tau_min && tau > target && tau >= f64::MIN_POSITIVE {
            tau *= 1.0 - epsilon;
        }
        if tau < f64::MIN_POSITIVE {
            break;
        }
    }

    let bar = if tau_min > 0.0 { Some(tau_min) } else { None };
    finish(state, &mut cursors, evaluator, bar)
}

fn finish<D: TopicWordDistribution>(
    state: CandidateState,
    cursors: &mut SupportCursors<'_>,
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
