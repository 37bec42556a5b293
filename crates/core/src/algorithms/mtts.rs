//! Multi-Topic ThresholdStream (Algorithm 2).
//!
//! MTTS combines the SieveStreaming thresholding idea with the ranked-list
//! traversal: a geometric grid of guesses `Φ = {(1+ε)^j}` for the optimal
//! score is maintained, each guess `ϕ` owns an independent candidate set with
//! admission threshold `ϕ / 2k`, and elements are fed to the candidates in
//! decreasing order of their upper-bound score.  The traversal terminates as
//! soon as the upper bound `UB(x)` of any unretrieved element drops below the
//! smallest admission threshold `TH` of an unfilled candidate, which in
//! practice prunes the vast majority of active elements.  The returned
//! candidate is a `(1/2 − ε)`-approximation (Theorem 4.2).

use ksir_types::TopicWordDistribution;

use crate::algorithms::{GuessGrid, SupportCursors};
use crate::evaluator::{ProfileArena, QueryEvaluator};
use crate::query::{Algorithm, KsirQuery, QueryResult};
use crate::view::RankedView;

pub(crate) fn run<D: TopicWordDistribution, V: RankedView + ?Sized>(
    view: &V,
    evaluator: &QueryEvaluator<'_, D>,
    query: &KsirQuery,
) -> QueryResult {
    let mut cursors = SupportCursors::new(view, evaluator.support());
    let mut grid = GuessGrid::new(query, evaluator);
    // One profile per retrieved element, shared by every guess that tests it
    // and by the insert that follows an admission.
    let mut arena = ProfileArena::default();
    let mut evaluated = 0_usize;

    loop {
        let ub = cursors.upper_bound();
        // TH: smallest admission threshold among unfilled candidates; if
        // every candidate is full no element can be admitted anywhere.
        if !grid.is_empty() && ub < grid.min_unfilled_threshold() {
            break;
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
        // Refresh the estimate grid Φ = {(1+ε)^j : δmax ≤ (1+ε)^j ≤ 2k·δmax}.
        grid.observe(delta);
        // The guesses whose threshold δ reaches are a prefix of the grid, and
        // none of them is unfilled when δ is below TH.
        if delta < grid.min_unfilled_threshold() {
            continue;
        }
        let reach = grid.reach(delta);
        grid.offer(evaluator, arena.get(profile), reach, |guess, gain| {
            gain >= guess.threshold
        });
    }

    // Admission bar: the final TH — the smallest threshold at which an
    // unfilled candidate would still have admitted an element.  When every
    // candidate filled, fall back to the smallest grid threshold: an element
    // below it is rejected by every candidate regardless of fill.
    let bar = {
        let unfilled = grid.min_unfilled_threshold();
        if unfilled.is_finite() {
            Some(unfilled)
        } else {
            grid.guesses().first().map(|guess| guess.threshold)
        }
    };
    let mut frontier = cursors.frontier();
    frontier.bar = bar;
    match grid.into_best() {
        Some((elements, score)) if !elements.is_empty() => QueryResult {
            elements,
            score,
            evaluated_elements: evaluated,
            gain_evaluations: evaluator.gain_evaluations(),
            algorithm: Algorithm::Mtts,
            frontier: Some(frontier),
        },
        _ => QueryResult {
            frontier: Some(frontier),
            ..QueryResult::empty(Algorithm::Mtts)
        },
    }
}
