//! SieveStreaming — single-pass streaming submodular maximisation
//! (streaming baseline).
//!
//! Badanidiyuru et al.'s algorithm: a geometric grid of guesses `v = (1+ε)^j`
//! for the optimum is maintained from the largest singleton value seen so
//! far; each guess owns a candidate set that admits an element when its
//! marginal gain is at least `(v/2 − f(S_v)) / (k − |S_v|)`.  The best
//! candidate is a `(1/2 − ε)`-approximation.  Unlike MTTS it has no index to
//! lean on, so it evaluates every active element for every query.
//!
//! The grid and the admission rule depend on `k`, the scan and the element
//! profiles do not: [`run`] keeps one grid per requested size, all of them
//! columns of one coverage table, and feeds them all from one window scan.

use crate::stream::{ActiveWindow, Slot};
use ksir_types::{ElementId, TopicWordDistribution};

use crate::algorithms::{per_size, GridSet};
use crate::evaluator::{ProfileArena, QueryEvaluator};
use crate::query::{Algorithm, KsirQuery, QueryResult};

/// Answers `query`'s `ε` at every result size in `ks`, one result per
/// entry, in the order of `ks`.
pub(crate) fn run<D: TopicWordDistribution>(
    window: &ActiveWindow,
    evaluator: &QueryEvaluator<'_, D>,
    query: &KsirQuery,
    ks: &[usize],
) -> Vec<QueryResult> {
    per_size(ks, |sizes| scan(window, evaluator, query.epsilon(), sizes))
}

fn scan<D: TopicWordDistribution>(
    window: &ActiveWindow,
    evaluator: &QueryEvaluator<'_, D>,
    epsilon: f64,
    sizes: &[usize],
) -> Vec<QueryResult> {
    // In id order, each with its slot: profiling by slot hashes no id.
    let mut ids: Vec<(ElementId, Slot)> = window.ids_and_slots().collect();
    ids.sort_unstable();
    let evaluated = ids.len();

    let mut grids = GridSet::new(sizes, epsilon, evaluator);
    let mut arena = ProfileArena::default();
    // Per size, how many of its guesses the current element is offered to:
    // all of them.
    let mut reach = Vec::with_capacity(sizes.len());

    for (_, slot) in ids {
        arena.clear();
        let profile = evaluator.profile_at(&mut arena, slot);
        let profile = arena.get(profile);
        let delta = evaluator.delta_of(profile);
        if delta <= 0.0 {
            continue;
        }
        reach.clear();
        for size in 0..sizes.len() {
            grids.observe(size, delta);
            reach.push(grids.grids()[size].guesses().len());
        }
        grids.offer(evaluator, profile, &reach, |k, guess, gain| {
            let room = (k - guess.members.len()) as f64;
            gain >= (guess.value / 2.0 - guess.score) / room
        });
    }

    grids
        .into_grids()
        .into_iter()
        .map(|grid| {
            // Every element's singleton score, plus this size's offers.
            let gain_evaluations = evaluated + grid.gain_evaluations();
            match grid.into_best() {
                Some((elements, score)) if !elements.is_empty() => QueryResult {
                    elements,
                    score,
                    evaluated_elements: evaluated,
                    gain_evaluations,
                    algorithm: Algorithm::SieveStreaming,
                    frontier: None,
                },
                _ => QueryResult::empty(Algorithm::SieveStreaming),
            }
        })
        .collect()
}
