//! Index views: the read seam between the query algorithms and whatever
//! holds the ranked lists.
//!
//! The index-based algorithms (MTTS, MTTD, Top-k Representative) consume the
//! per-topic ranked lists exclusively through ordered cursors.  [`RankedView`]
//! abstracts that access so the same algorithm code runs against
//!
//! * the **live** [`RankedLists`] inside a [`KsirEngine`](crate::KsirEngine)
//!   (the ad-hoc query path), and
//! * an **immutable snapshot** of those lists captured at an epoch boundary
//!   (`ksir-snapshot`'s `EngineSnapshot` / `ShardSnapshot`), which is what
//!   lets standing-query refreshes evaluate *behind* the writer while the
//!   next epoch's index update proceeds.
//!
//! [`run_query`] is the algorithm dispatcher over an arbitrary view plus the
//! window-side state a query additionally needs;
//! [`KsirEngine::query`](crate::KsirEngine::query) delegates to it with the
//! live view.  [`QuerySource`] packages the whole
//! thing as an object-safe "something you can run a k-SIR query against",
//! implemented by both the engine and the snapshot types, so consumers like
//! `ksir-continuous` can refresh a subscription without caring which side of
//! the epoch boundary they are reading.

use ksir_stream::{ActiveWindow, RankedListCursor, RankedLists, FLOOR_SLACK};
use ksir_types::{KsirError, Result, TopicId, TopicWordDistribution};

use crate::algorithms;
use crate::config::ScoringConfig;
use crate::evaluator::QueryEvaluator;
use crate::query::{Algorithm, KsirQuery, QueryResult};
use crate::row::ElementRows;
use crate::scorer::Scorer;

/// Ordered read access to per-topic ranked lists — implemented by the live
/// [`RankedLists`] and by epoch snapshots (`ksir-snapshot`).
///
/// # Example
///
/// ```
/// use ksir_core::RankedView;
/// use ksir_stream::RankedLists;
/// use ksir_types::{ElementId, Timestamp, TopicId};
///
/// let mut lists = RankedLists::new(1);
/// lists.upsert(TopicId(0), ElementId(1), 0.9, Timestamp(0));
/// lists.upsert(TopicId(0), ElementId(2), 0.4, Timestamp(0));
///
/// // Full traversal starts at the head ...
/// let mut cursor = RankedView::cursor(&lists, TopicId(0));
/// assert_eq!(cursor.current().map(|(id, _, _)| id), Some(ElementId(1)));
///
/// // ... while a suffix cursor skips everything scoring above the bound —
/// // the shape of a `Touch`-restricted read after a slide.
/// let mut suffix = lists.suffix_cursor(TopicId(0), 0.5);
/// assert_eq!(suffix.current().map(|(id, _, _)| id), Some(ElementId(2)));
/// ```
pub trait RankedView {
    /// Number of topics the view covers.
    fn num_topics(&self) -> usize;

    /// An ordered traversal cursor over one topic's list.  Callers only ask
    /// for topics with `topic.index() < num_topics()`.
    fn cursor(&self, topic: TopicId) -> RankedListCursor<'_>;

    /// An ordered cursor over the *suffix* of one topic's list: every tuple
    /// with score `≤ high + FLOOR_SLACK`, highest first.  With `high` taken
    /// from a slide's [`Touch`](ksir_stream::Touch) entry this is exactly
    /// the part of the list the slide may have rewritten — every tuple the
    /// maintenance pass upserted or removed lies at or below the touch score.
    ///
    /// The default implementation advances a full cursor past the prefix;
    /// views with ordered storage override it with a positioned seek.
    fn suffix_cursor(&self, topic: TopicId, high: f64) -> RankedListCursor<'_> {
        let mut cursor = self.cursor(topic);
        while let Some((_, score, _)) = cursor.current() {
            if score <= high + FLOOR_SLACK {
                break;
            }
            cursor.advance();
        }
        cursor
    }
}

impl RankedView for RankedLists {
    fn num_topics(&self) -> usize {
        RankedLists::num_topics(self)
    }

    fn cursor(&self, topic: TopicId) -> RankedListCursor<'_> {
        self.list(topic).cursor()
    }

    fn suffix_cursor(&self, topic: TopicId, high: f64) -> RankedListCursor<'_> {
        self.list(topic).suffix_cursor(high)
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
/// ```
pub trait QuerySource {
    /// Number of topics of the underlying topic model.
    fn num_topics(&self) -> usize;

    /// Processes a k-SIR query with the chosen algorithm.
    fn query(&self, query: &KsirQuery, algorithm: Algorithm) -> Result<QueryResult>;
}

/// Processes one k-SIR query against an arbitrary index view plus the
/// window-side state the evaluator needs: the active window and the rows
/// holding every active element's `p_i(e)`.  This is the algorithm dispatcher
/// behind both [`KsirEngine::query`] and the snapshot-backed refresh path.
///
/// [`KsirEngine::query`]: crate::KsirEngine::query
pub fn run_query<V, D>(
    view: &V,
    window: &ActiveWindow,
    rows: &ElementRows,
    phi: &D,
    scoring: ScoringConfig,
    query: &KsirQuery,
    algorithm: Algorithm,
) -> Result<QueryResult>
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
    let scorer = Scorer::new(phi, scoring, window, rows);
    let evaluator = QueryEvaluator::new(scorer, query.vector());
    Ok(match algorithm {
        Algorithm::Mtts => algorithms::mtts::run(view, &evaluator, query),
        Algorithm::Mttd => algorithms::mttd::run(view, &evaluator, query),
        Algorithm::Celf => algorithms::celf::run(window, &evaluator, query),
        Algorithm::SieveStreaming => algorithms::sieve::run(window, &evaluator, query),
        Algorithm::TopkRepresentative => algorithms::topk::run(view, &evaluator, query),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::paper_example;
    use ksir_types::QueryVector;

    /// The generic dispatcher over the live view must agree with the
    /// engine's own query path for every algorithm.
    #[test]
    fn run_query_over_live_view_matches_engine_query() {
        let ex = paper_example();
        let engine = ex.build_engine();
        let query = KsirQuery::new(2, QueryVector::new(vec![0.5, 0.5]).unwrap()).unwrap();
        for algorithm in Algorithm::ALL {
            let via_engine = engine.query(&query, algorithm).unwrap();
            let via_view = run_query(
                engine.ranked_lists(),
                engine.window(),
                engine.rows(),
                engine.phi(),
                engine.config().scoring,
                &query,
                algorithm,
            )
            .unwrap();
            assert_eq!(via_engine, via_view, "{algorithm} diverged");
        }
    }

    #[test]
    fn run_query_rejects_dimension_mismatch() {
        let ex = paper_example();
        let engine = ex.build_engine();
        let query = KsirQuery::new(2, QueryVector::new(vec![1.0, 1.0, 1.0]).unwrap()).unwrap();
        assert!(matches!(
            run_query(
                engine.ranked_lists(),
                engine.window(),
                engine.rows(),
                engine.phi(),
                engine.config().scoring,
                &query,
                Algorithm::Mtts,
            ),
            Err(KsirError::DimensionMismatch { .. })
        ));
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
