//! SieveStreaming — single-pass streaming submodular maximisation
//! (streaming baseline).
//!
//! Badanidiyuru et al.'s algorithm: a geometric grid of guesses `v = (1+ε)^j`
//! for the optimum is maintained from the largest singleton value seen so
//! far; each guess owns a candidate set that admits an element when its
//! marginal gain is at least `(v/2 − f(S_v)) / (k − |S_v|)`.  The best
//! candidate is a `(1/2 − ε)`-approximation.  Unlike MTTS it has no index to
//! lean on, so it evaluates every active element for every query.

use ksir_stream::ActiveWindow;
use ksir_types::{ElementId, TopicWordDistribution};

use crate::algorithms::GuessGrid;
use crate::evaluator::{ProfileArena, QueryEvaluator};
use crate::query::{Algorithm, KsirQuery, QueryResult};

pub(crate) fn run<D: TopicWordDistribution>(
    window: &ActiveWindow,
    evaluator: &QueryEvaluator<'_, D>,
    query: &KsirQuery,
) -> QueryResult {
    let k = query.k();
    let mut ids: Vec<ElementId> = window.ids().collect();
    ids.sort_unstable();
    let evaluated = ids.len();

    let mut grid = GuessGrid::new(query, evaluator);
    let mut arena = ProfileArena::default();

    for id in ids {
        arena.clear();
        let profile = evaluator.profile(&mut arena, id);
        let profile = arena.get(profile);
        let delta = evaluator.delta_of(profile);
        if delta <= 0.0 {
            continue;
        }
        grid.observe(delta);
        let every_guess = grid.guesses().len();
        grid.offer(evaluator, profile, every_guess, |guess, gain| {
            let room = (k - guess.members.len()) as f64;
            gain >= (guess.value / 2.0 - guess.score) / room
        });
    }

    match grid.into_best() {
        Some((elements, score)) if !elements.is_empty() => QueryResult {
            elements,
            score,
            evaluated_elements: evaluated,
            gain_evaluations: evaluator.gain_evaluations(),
            algorithm: Algorithm::SieveStreaming,
            frontier: None,
        },
        _ => QueryResult::empty(Algorithm::SieveStreaming),
    }
}
