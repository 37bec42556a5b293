//! Index views: the read seam between the query algorithms and whatever
//! holds the ranked lists.
//!
//! The index-based algorithms (MTTS, MTTD, Top-k Representative) consume the
//! per-topic ranked lists exclusively through ordered cursors.  `RankedView`
//! abstracts that access so the same algorithm code runs against
//!
//! * the **live** [`RankedLists`] inside a [`KsirEngine`](crate::KsirEngine)
//!   (the ad-hoc query path), and
//! * an [`EngineSnapshot`](crate::EngineSnapshot) of those lists captured at
//!   an epoch boundary, which is what lets standing-query refreshes evaluate
//!   *behind* the writer while the next epoch's index update proceeds.
//!
//! `run_query_per_k` is the algorithm dispatcher over an arbitrary view
//! plus the window-side state a query additionally needs: one pass of the
//! chosen algorithm answers the query's vector and `ε` at a whole set of
//! result sizes, each bit-identical to a run at that size alone.
//! [`QuerySource`] packages the whole thing as an object-safe "something you
//! can run a k-SIR query against", implemented by both the engine and the
//! snapshot, so consumers like `ksir-continuous` can refresh a subscription
//! — or every size of a plan cluster at once — without caring which side of
//! the epoch boundary they are reading.

use ksir_types::{KsirError, Result, TopicId, TopicWordDistribution};

use crate::algorithms;
use crate::config::ScoringConfig;
use crate::evaluator::QueryEvaluator;
use crate::query::{Algorithm, KsirQuery, QueryResult};
use crate::row::ElementRows;
use crate::scorer::Scorer;
use crate::stream::{ActiveWindow, RankedListCursor, RankedLists};

/// Ordered read access to per-topic ranked lists — implemented by the live
/// [`RankedLists`] and by epoch snapshots.
pub(crate) trait RankedView {
    /// Number of topics the view covers.
    fn num_topics(&self) -> usize;

    /// An ordered traversal cursor over one topic's list.  Callers only ask
    /// for topics with `topic.index() < num_topics()`.
    fn cursor(&self, topic: TopicId) -> RankedListCursor<'_>;
}

impl RankedView for RankedLists {
    fn num_topics(&self) -> usize {
        RankedLists::num_topics(self)
    }

    fn cursor(&self, topic: TopicId) -> RankedListCursor<'_> {
        self.list(topic).cursor()
    }
}

/// Anything a k-SIR query can be processed against: the live engine or an
/// immutable epoch snapshot.  Object-safe, so pipelined consumers can hold
/// `Arc<dyn QuerySource>` without dragging the topic-model type through
/// their own signatures.
///
/// # Example
///
/// ```
/// use ksir_core::{fixtures::paper_example, Algorithm, KsirQuery, QuerySource};
/// use ksir_types::QueryVector;
///
/// // The engine itself is a `QuerySource`; epoch snapshots are too, so a
/// // refresh loop can hold either behind the same object-safe seam.
/// let engine = paper_example().build_engine();
/// let source: &dyn QuerySource = &engine;
/// let query = KsirQuery::new(2, QueryVector::uniform(source.num_topics()).unwrap()).unwrap();
/// let result = source.query(&query, Algorithm::Mtts).unwrap();
/// assert!(result.len() <= 2);
///
/// // One pass answers several result sizes, each exactly as its own run.
/// let results = source.query_per_k(&query, &[3, 1], Algorithm::Mttd).unwrap();
/// let at_one = KsirQuery::new(1, query.vector().clone()).unwrap();
/// assert_eq!(results[1], source.query(&at_one, Algorithm::Mttd).unwrap());
/// ```
pub trait QuerySource {
    /// Number of topics of the underlying topic model.
    fn num_topics(&self) -> usize;

    /// Processes `query`'s vector and `ε` at every result size in `ks` with
    /// one pass of the chosen algorithm: one result per entry of `ks`, in
    /// its order, each equal to [`QuerySource::query`] at that `k`.  The
    /// query's own `k` plays no part.  Errors if some size is zero.
    fn query_per_k(
        &self,
        query: &KsirQuery,
        ks: &[usize],
        algorithm: Algorithm,
    ) -> Result<Vec<QueryResult>>;

    /// Processes a k-SIR query with the chosen algorithm.
    fn query(&self, query: &KsirQuery, algorithm: Algorithm) -> Result<QueryResult> {
        let mut results = self.query_per_k(query, &[query.k()], algorithm)?;
        Ok(results.pop().expect("one result per requested size"))
    }
}

/// Processes one k-SIR query at every result size in `ks` against an
/// arbitrary index view plus the window-side state the evaluator needs: the
/// active window and the rows holding every active element's `p_i(e)`.  This
/// is the algorithm dispatcher behind [`KsirEngine::query`], the snapshot
/// sources and the plan-cluster refresh.
///
/// The query's vector and `ε` are used, its `k` is not.  One pass of the
/// algorithm serves every size; entry `i` of the result equals a run at
/// `ks[i]` alone, field by field — elements in order, score bits,
/// both work counters and the frontier with its bar.  `ks` may be in any
/// order and hold duplicates; an empty `ks` returns nothing.
///
/// `view`, `window` and `rows` are meant to be one state, as the engine and
/// its snapshots serve them.  A listed id that `window` does not hold is
/// stepped over by the index traversals: it moves their cursors but is
/// never retrieved, profiled or counted.
///
/// Errors on a query vector of the wrong dimension or a zero size.
///
/// [`KsirEngine::query`]: crate::KsirEngine::query
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_query_per_k<V, D>(
    view: &V,
    window: &ActiveWindow,
    rows: &ElementRows,
    phi: &D,
    scoring: ScoringConfig,
    query: &KsirQuery,
    ks: &[usize],
    algorithm: Algorithm,
) -> Result<Vec<QueryResult>>
where
    V: RankedView + ?Sized,
    D: TopicWordDistribution,
{
    if query.vector().num_topics() != phi.num_topics() {
        return Err(KsirError::DimensionMismatch {
            expected: phi.num_topics(),
            actual: query.vector().num_topics(),
        });
    }
    if ks.contains(&0) {
        return Err(KsirError::invalid_parameter(
            "ks",
            "a k-SIR query must request at least one element",
        ));
    }
    let scorer = Scorer::new(phi, scoring, window, rows);
    let evaluator = QueryEvaluator::new(scorer, query.vector());
    Ok(match algorithm {
        Algorithm::Mtts => algorithms::mtts::run(view, &evaluator, query, ks),
        Algorithm::Mttd => algorithms::mttd::run(view, &evaluator, query, ks),
        Algorithm::Celf => algorithms::celf::run(window, &evaluator, ks),
        Algorithm::SieveStreaming => algorithms::sieve::run(window, &evaluator, query, ks),
        Algorithm::TopkRepresentative => algorithms::topk::run(view, &evaluator, ks),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::paper_example;
    use crate::KsirEngine;
    use ksir_types::{DenseTopicWordTable, ElementId, QueryVector, Timestamp};

    /// [`run_query_per_k`] at the query's own size, over `view` and the
    /// engine's window-side state.
    fn run_at_k<V: RankedView + ?Sized>(
        view: &V,
        engine: &KsirEngine<DenseTopicWordTable>,
        query: &KsirQuery,
        algorithm: Algorithm,
    ) -> Result<QueryResult> {
        let (window, rows, phi) = (engine.window(), engine.rows(), engine.phi());
        let scoring = engine.config().scoring;
        let ks = [query.k()];
        let mut results = run_query_per_k(view, window, rows, phi, scoring, query, &ks, algorithm)?;
        Ok(results.pop().expect("one result per requested size"))
    }

    /// The generic dispatcher over the live view must agree with the
    /// engine's own query path for every algorithm.
    #[test]
    fn run_query_over_live_view_matches_engine_query() {
        let ex = paper_example();
        let engine = ex.build_engine();
        let query = KsirQuery::new(2, QueryVector::new(vec![0.5, 0.5]).unwrap()).unwrap();
        for algorithm in Algorithm::ALL {
            let via_engine = engine.query(&query, algorithm).unwrap();
            let via_view = run_at_k(engine.ranked_lists(), &engine, &query, algorithm).unwrap();
            assert_eq!(via_engine, via_view, "{algorithm} diverged");
        }
    }

    #[test]
    fn run_query_rejects_dimension_mismatch() {
        let ex = paper_example();
        let engine = ex.build_engine();
        let query = KsirQuery::new(2, QueryVector::new(vec![1.0, 1.0, 1.0]).unwrap()).unwrap();
        assert!(matches!(
            run_at_k(engine.ranked_lists(), &engine, &query, Algorithm::Mtts),
            Err(KsirError::DimensionMismatch { .. })
        ));
    }

    /// Sizes in any order, repeated, and past the window's size each get
    /// their own run's result; no size is an empty answer and a zero size
    /// is an error.
    #[test]
    fn run_query_per_k_answers_each_size_as_its_own_run() {
        let ex = paper_example();
        let engine = ex.build_engine();
        let query = KsirQuery::new(2, QueryVector::new(vec![0.5, 0.5]).unwrap()).unwrap();
        let per_k = |ks: &[usize], algorithm| {
            run_query_per_k(
                engine.ranked_lists(),
                engine.window(),
                engine.rows(),
                engine.phi(),
                engine.config().scoring,
                &query,
                ks,
                algorithm,
            )
        };
        let ks = [3, 1, 3, 50, 2];
        for algorithm in Algorithm::ALL {
            let results = per_k(&ks, algorithm).unwrap();
            assert_eq!(results.len(), ks.len());
            for (&k, result) in ks.iter().zip(&results) {
                let own = KsirQuery::new(k, query.vector().clone()).unwrap();
                assert_eq!(
                    result,
                    &engine.query(&own, algorithm).unwrap(),
                    "{algorithm} k={k}"
                );
            }
            assert!(per_k(&[], algorithm).unwrap().is_empty());
            assert!(matches!(
                per_k(&[2, 0], algorithm),
                Err(KsirError::InvalidParameter { .. })
            ));
        }
    }

    /// A listed id the window does not hold — only lists and a window of
    /// different states can list one — is stepped over: no algorithm
    /// returns it, and with it at the head of a list MTTS and Top-k answer
    /// exactly as over the lists without it, since both pop before their
    /// first stopping test can fire.
    #[test]
    fn a_listed_id_outside_the_window_is_stepped_over() {
        let ex = paper_example();
        let engine = ex.build_engine();
        let query = KsirQuery::new(2, QueryVector::new(vec![0.5, 0.5]).unwrap()).unwrap();
        let ghost = ElementId(999);
        let mut lists = RankedLists::new(engine.num_topics());
        for topic in (0..engine.num_topics()).map(|t| TopicId(t as u32)) {
            for (id, score, ts) in engine.ranked_lists().list(topic).iter() {
                lists.upsert(topic, id, score, ts);
            }
        }
        let head = lists.list(TopicId(0)).first().unwrap().1;
        lists.upsert(TopicId(0), ghost, head + 1.0, Timestamp::ZERO);
        let run =
            |view: &RankedLists, algorithm| run_at_k(view, &engine, &query, algorithm).unwrap();
        for algorithm in Algorithm::ALL {
            let stepped = run(&lists, algorithm);
            assert!(!stepped.elements.contains(&ghost), "{algorithm}");
            if matches!(algorithm, Algorithm::Mtts | Algorithm::TopkRepresentative) {
                assert_eq!(
                    stepped,
                    run(engine.ranked_lists(), algorithm),
                    "{algorithm}"
                );
            }
        }
    }

    /// A full cursor starts at the head of a list, while a suffix cursor
    /// skips everything scoring above its bound — the shape of a
    /// touch-restricted read after a slide.
    #[test]
    fn ranked_lists_serve_full_and_suffix_cursors() {
        let mut lists = RankedLists::new(1);
        lists.upsert(TopicId(0), ElementId(1), 0.9, Timestamp(0));
        lists.upsert(TopicId(0), ElementId(2), 0.4, Timestamp(0));
        let cursor = RankedView::cursor(&lists, TopicId(0));
        assert_eq!(cursor.current().map(|(id, _, _)| id), Some(ElementId(1)));
        let suffix = lists.list(TopicId(0)).suffix_cursor(0.5);
        assert_eq!(suffix.current().map(|(id, _, _)| id), Some(ElementId(2)));
    }

    #[test]
    fn engine_implements_query_source() {
        let ex = paper_example();
        let engine = ex.build_engine();
        let source: &dyn QuerySource = &engine;
        assert_eq!(source.num_topics(), 2);
        let query = KsirQuery::new(2, QueryVector::new(vec![0.5, 0.5]).unwrap()).unwrap();
        let via_source = source.query(&query, Algorithm::Mttd).unwrap();
        let direct = engine.query(&query, Algorithm::Mttd).unwrap();
        assert_eq!(via_source, direct);
    }
}
