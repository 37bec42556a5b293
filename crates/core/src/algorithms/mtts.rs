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
//!
//! The grid's range `2k·δmax` and its thresholds `ϕ / 2k` depend on `k`, the
//! retrieval order and the element profiles do not: [`run`] keeps one grid
//! per requested size, all of them columns of one coverage table, feeds them
//! all from one cursor walk and one profile per element — one coverage probe
//! per word and child to test every size's guesses, one more to admit —
//! and stops each size at its own `UB < TH` test.

use ksir_types::TopicWordDistribution;

use crate::algorithms::{per_size, GridSet, SupportCursors};
use crate::evaluator::{ProfileArena, QueryEvaluator};
use crate::query::{Algorithm, KsirQuery, QueryFrontier, QueryResult};
use crate::view::RankedView;

/// One result size's share of the traversal, beside its grid.
struct Run {
    evaluated: usize,
    /// Singleton scores read while the size ran; its grid counts its gains.
    gain_evaluations: usize,
    /// The traversal frontier where the size's own `UB < TH` test fired.
    end: Option<QueryFrontier>,
}

/// Answers `query`'s vector and `ε` at every result size in `ks`, one result
/// per entry, in the order of `ks`.
pub(crate) fn run<D: TopicWordDistribution, V: RankedView + ?Sized>(
    view: &V,
    evaluator: &QueryEvaluator<'_, D>,
    query: &KsirQuery,
    ks: &[usize],
) -> Vec<QueryResult> {
    per_size(ks, |sizes| {
        traverse(view, evaluator, query.epsilon(), sizes)
    })
}

fn traverse<D: TopicWordDistribution, V: RankedView + ?Sized>(
    view: &V,
    evaluator: &QueryEvaluator<'_, D>,
    epsilon: f64,
    sizes: &[usize],
) -> Vec<QueryResult> {
    let mut cursors = SupportCursors::new(view, evaluator.window(), evaluator.support());
    let mut grids = GridSet::new(sizes, epsilon, evaluator);
    let mut runs: Vec<Run> = sizes
        .iter()
        .map(|_| Run {
            evaluated: 0,
            gain_evaluations: 0,
            end: None,
        })
        .collect();
    // One profile per retrieved element, shared by every guess of every size
    // that tests it and by the insert that follows an admission.
    let mut arena = ProfileArena::default();
    // Per size, how many of its guesses the current element is offered to.
    let mut reach = Vec::with_capacity(sizes.len());

    loop {
        let ub = cursors.upper_bound();
        let mut running = false;
        for (run, grid) in runs.iter_mut().zip(grids.grids()) {
            if run.end.is_some() {
                continue;
            }
            // TH: smallest admission threshold among unfilled candidates; if
            // every candidate is full no element can be admitted anywhere.
            if !grid.is_empty() && ub < grid.min_unfilled_threshold() {
                run.end = Some(cursors.frontier());
            } else {
                running = true;
            }
        }
        if !running {
            break;
        }
        let Some((_, slot)) = cursors.pop_next() else {
            break;
        };
        arena.clear();
        let profile = evaluator.profile_at(&mut arena, slot);
        let profile = arena.get(profile);
        let delta = evaluator.delta_of(profile);
        reach.clear();
        for (size, run) in runs.iter_mut().enumerate() {
            reach.push(0);
            if run.end.is_some() {
                continue;
            }
            run.evaluated += 1;
            run.gain_evaluations += 1;
            if delta <= 0.0 {
                continue;
            }
            // Refresh the estimate grid Φ = {(1+ε)^j : δmax ≤ (1+ε)^j ≤ 2k·δmax}.
            grids.observe(size, delta);
            // The guesses whose threshold δ reaches are a prefix of the grid,
            // and none of them is unfilled when δ is below TH.
            let grid = &grids.grids()[size];
            if delta >= grid.min_unfilled_threshold() {
                reach[size] = grid.reach(delta);
            }
        }
        grids.offer(evaluator, profile, &reach, |_, guess, gain| {
            gain >= guess.threshold
        });
    }

    runs.into_iter()
        .zip(grids.into_grids())
        .map(|(run, grid)| {
            // Admission bar: the final TH — the smallest threshold at which
            // an unfilled candidate would still have admitted an element.
            // When every candidate filled, fall back to the smallest grid
            // threshold: an element below it is rejected by every candidate
            // regardless of fill.
            let bar = {
                let unfilled = grid.min_unfilled_threshold();
                if unfilled.is_finite() {
                    Some(unfilled)
                } else {
                    grid.guesses().first().map(|guess| guess.threshold)
                }
            };
            let mut frontier = run.end.unwrap_or_else(|| cursors.frontier());
            frontier.bar = bar;
            let gain_evaluations = run.gain_evaluations + grid.gain_evaluations();
            match grid.into_best() {
                Some((elements, score)) if !elements.is_empty() => QueryResult {
                    elements,
                    score,
                    evaluated_elements: run.evaluated,
                    gain_evaluations,
                    algorithm: Algorithm::Mtts,
                    frontier: Some(frontier),
                },
                _ => QueryResult {
                    frontier: Some(frontier),
                    ..QueryResult::empty(Algorithm::Mtts)
                },
            }
        })
        .collect()
}
