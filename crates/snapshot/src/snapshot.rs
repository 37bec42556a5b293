//! The epoch snapshot type.

use std::sync::Arc;

use ksir_core::{
    run_query_per_k, Algorithm, ElementRows, KsirEngine, KsirQuery, QueryResult, QuerySource,
    RankedView, ScoringConfig,
};
use ksir_stream::{ActiveWindow, RankedListCursor, RankedListHandle};
use ksir_types::{Result, TopicId, TopicWordDistribution};

/// A frozen image of everything a k-SIR query evaluation reads, captured at
/// one epoch boundary (immediately after an index update).
///
/// Capture is `O(z)` `Arc` clones — no tuple, element or row is copied: the
/// image shares the engine's ranked lists, its window and its row map (the
/// one store of every active element's `p_i(e)`).  The engine's subsequent
/// mutations copy-on-write around the image, so it keeps answering queries
/// exactly as the engine would have at the capture epoch, from any thread,
/// for as long as it is alive.
///
/// # Example
///
/// ```
/// use ksir_core::{fixtures::paper_example, Algorithm, KsirQuery, QuerySource};
/// use ksir_snapshot::EngineSnapshot;
/// use ksir_types::QueryVector;
///
/// let engine = paper_example().build_engine();
/// let snapshot = EngineSnapshot::capture(&engine, 1);
/// let query = KsirQuery::new(2, QueryVector::uniform(2).unwrap()).unwrap();
///
/// // Every list is served whole through the shared image: the snapshot
/// // answers exactly as the live engine does at the capture epoch.
/// let live = engine.query(&query, Algorithm::Mtts).unwrap();
/// assert_eq!(snapshot.query(&query, Algorithm::Mtts).unwrap(), live);
/// ```
#[derive(Debug)]
pub struct EngineSnapshot<D> {
    epoch: u64,
    /// One slot per topic; `None` = outside the watched set of a bounded
    /// capture (reads as an empty list, and the writer never pays
    /// copy-on-write for it).
    lists: Vec<Option<RankedListHandle>>,
    window: Arc<ActiveWindow>,
    rows: Arc<ElementRows>,
    phi: Arc<D>,
    scoring: ScoringConfig,
}

impl<D: TopicWordDistribution> EngineSnapshot<D> {
    /// Captures the engine's current state as epoch `epoch`, all topics
    /// included.
    pub fn capture(engine: &KsirEngine<D>, epoch: u64) -> Self {
        EngineSnapshot {
            epoch,
            lists: engine
                .ranked_lists()
                .share_all()
                .into_iter()
                .map(Some)
                .collect(),
            window: engine.shared_window(),
            rows: engine.shared_rows(),
            phi: engine.shared_phi(),
            scoring: engine.config().scoring,
        }
    }

    /// Captures only the given topics' ranked lists (plus the full window
    /// image).  Unwatched lists read as empty **and** cost the writer no
    /// copy-on-write when it mutates them — the right capture when the set
    /// of topics any standing query can traverse is known, as it is for the
    /// subscription manager (the union of resident support topics).
    pub fn capture_watched<I>(engine: &KsirEngine<D>, epoch: u64, watched: I) -> Self
    where
        I: IntoIterator<Item = TopicId>,
    {
        let ranked = engine.ranked_lists();
        let mut lists: Vec<Option<RankedListHandle>> = Vec::new();
        lists.resize_with(ranked.num_topics(), || None);
        for topic in watched {
            if let Some(slot) = lists.get_mut(topic.index()) {
                *slot = Some(ranked.list(topic).share());
            }
        }
        EngineSnapshot {
            epoch,
            lists,
            window: engine.shared_window(),
            rows: engine.shared_rows(),
            phi: engine.shared_phi(),
            scoring: engine.config().scoring,
        }
    }

    /// The epoch (1-based slide number) this image belongs to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The frozen active window.
    pub fn window(&self) -> &ActiveWindow {
        self.window.as_ref()
    }

    /// Number of active elements in the image.
    pub fn active_count(&self) -> usize {
        self.window.len()
    }
}

impl<D> RankedView for EngineSnapshot<D> {
    fn num_topics(&self) -> usize {
        self.lists.len()
    }

    fn cursor(&self, topic: TopicId) -> RankedListCursor<'_> {
        match &self.lists[topic.index()] {
            Some(list) => list.cursor(),
            // Outside a bounded capture's watched set: reads as empty.
            None => RankedListCursor::empty(),
        }
    }

    fn suffix_cursor(&self, topic: TopicId, high: f64) -> RankedListCursor<'_> {
        match &self.lists[topic.index()] {
            Some(list) => list.suffix_cursor(high),
            None => RankedListCursor::empty(),
        }
    }
}

impl<D: TopicWordDistribution> QuerySource for EngineSnapshot<D> {
    fn num_topics(&self) -> usize {
        self.phi.num_topics()
    }

    fn query_per_k(
        &self,
        query: &KsirQuery,
        ks: &[usize],
        algorithm: Algorithm,
    ) -> Result<Vec<QueryResult>> {
        run_query_per_k(
            self,
            self.window.as_ref(),
            self.rows.as_ref(),
            self.phi.as_ref(),
            self.scoring,
            query,
            ks,
            algorithm,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksir_core::fixtures::paper_example;
    use ksir_types::QueryVector;

    fn query(k: usize, weights: &[f64]) -> KsirQuery {
        KsirQuery::new(k, QueryVector::new(weights.to_vec()).unwrap()).unwrap()
    }

    /// A snapshot keeps answering with the capture-epoch state while the
    /// engine slides on underneath — the pipelining invariant.
    #[test]
    fn snapshot_stays_frozen_while_the_engine_advances() {
        let ex = paper_example();
        let mut engine = ex.empty_engine();
        let q = query(2, &[0.5, 0.5]);
        // Ingest the first half of the stream, then capture.
        let stream = ex.stream();
        let half = stream.len() / 2;
        for (element, tv) in stream.iter().take(half).cloned() {
            let end = element.ts;
            engine.ingest_bucket(vec![(element, tv)], end).unwrap();
        }
        let snap = EngineSnapshot::capture(&engine, half as u64);
        assert_eq!(snap.epoch(), half as u64);
        assert_eq!(snap.active_count(), engine.active_count());
        let frozen: Vec<_> = Algorithm::ALL
            .iter()
            .map(|&alg| engine.query(&q, alg).unwrap())
            .collect();
        // Slide the engine to the end; the window and lists change.
        for (element, tv) in stream.into_iter().skip(half) {
            let end = element.ts;
            engine.ingest_bucket(vec![(element, tv)], end).unwrap();
        }
        let stats = engine.stats();
        assert!(
            stats.window_cow_clones >= 1
                && stats.topic_vector_cow_clones >= 1
                && stats.ranked_cow_clones >= 1,
            "writer paid copy-on-write for the live snapshot: {stats:?}"
        );
        // Snapshot answers are bit-for-bit the capture-epoch answers, for
        // every algorithm (index-based and window-scanning alike).
        for (&alg, expected) in Algorithm::ALL.iter().zip(&frozen) {
            let got = snap.query(&q, alg).unwrap();
            assert_eq!(&got, expected, "{alg} drifted off the capture epoch");
        }
        // The live engine has genuinely moved on.
        assert_ne!(
            engine.query(&q, Algorithm::Mttd).unwrap().score,
            frozen[1].score
        );
    }
}
