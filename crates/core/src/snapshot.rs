//! Immutable, epoch-bounded snapshots of the engine, for **pipelined**
//! standing-query maintenance.
//!
//! Instead of handing refresh workers a read guard on the live engine, each
//! slide of the asynchronous pipeline in `ksir-continuous` captures an
//! [`EngineSnapshot`] — a frozen image of exactly the state a refresh reads
//! — and the workers evaluate against it while the next epoch's index update
//! proceeds underneath (the batch discipline of differential dataflow).
//!
//! Capture is cheap by construction:
//!
//! * the per-topic ranked lists, the active window, and the map of
//!   per-element rows (the engine's one topic store) all live behind `Arc`s
//!   inside the engine, so one capture is `O(z)` pointer clones;
//! * the *writer* pays for isolation copy-on-write, and only for the
//!   structures it actually mutates while a snapshot is still alive (the
//!   engine's `EngineStats::*_cow_clones` counters make that cost visible);
//! * [`EngineSnapshot::capture_watched`] bounds a capture to the topics the
//!   standing queries can traverse, so the writer never copies a list no
//!   refresh reads.
//!
//! The snapshot serves the same ranked-list reads as the live lists and
//! implements [`QuerySource`], so a subscription refresh is *identical code*
//! whether it reads the live engine or a snapshot: re-running a query
//! against it returns bit-for-bit what the live engine would have returned
//! at that epoch, no matter how deep the traversal descends.

use std::sync::Arc;

use ksir_types::{Result, TopicId, TopicWordDistribution};

use crate::config::ScoringConfig;
use crate::engine::KsirEngine;
use crate::query::{Algorithm, KsirQuery, QueryResult};
use crate::ranked_list::RankedListHandle;
use crate::row::ElementRows;
use crate::stream::{ActiveWindow, RankedListCursor};
use crate::view::{run_query_per_k, QuerySource, RankedView};

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
/// use ksir_core::{fixtures::paper_example, Algorithm, EngineSnapshot, KsirQuery, QuerySource};
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
        let topics = 0..engine.num_topics() as u32;
        Self::capture_watched(engine, epoch, topics.map(TopicId))
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
        let ranked = &engine.ranked;
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
            window: Arc::clone(&engine.window),
            rows: Arc::clone(&engine.rows),
            phi: Arc::clone(&engine.phi),
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
    use crate::fixtures::paper_example;
    use ksir_types::{ElementId, QueryVector, SocialElement, Timestamp, TopicVector};

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

    /// A bounded capture answers a query inside its watched set exactly as
    /// the live engine did at the capture epoch, reads an unwatched topic as
    /// an empty list, and costs the writer a copy-on-write clone only when a
    /// watched list is written.
    #[test]
    fn watched_capture_serves_its_topics_and_spares_the_rest() {
        let ex = paper_example();
        let mut engine = ex.build_engine();
        let (watched, unwatched) = (TopicId(0), TopicId(1));
        let snap = EngineSnapshot::capture_watched(&engine, 8, [watched]);
        let q = KsirQuery::new(2, QueryVector::single_topic(2, watched).unwrap()).unwrap();
        let index_based = [
            Algorithm::Mtts,
            Algorithm::Mttd,
            Algorithm::TopkRepresentative,
        ];
        let live: Vec<_> = index_based
            .iter()
            .map(|&alg| engine.query(&q, alg).unwrap())
            .collect();

        assert!(engine.ranked_lists().list(unwatched).first().is_some());
        assert_eq!(RankedView::cursor(&snap, unwatched).current(), None);

        // A slide at the same time that writes only the unwatched list: a
        // new element on that topic alone, referencing nothing.
        let post = |id: u64, topic: TopicId| {
            let element =
                SocialElement::original(ElementId(id), Timestamp(8), ex.element(7).doc.clone());
            let mut weights = vec![0.0; 2];
            weights[topic.index()] = 1.0;
            (element, TopicVector::from_values(weights).unwrap())
        };
        let clones = engine.stats().ranked_cow_clones;
        let report = engine.ingest_bucket(vec![post(9, unwatched)], Timestamp(8));
        let touches = report.unwrap().delta.ranked;
        assert!(touches.touched(unwatched) && !touches.touched(watched));
        assert_eq!(engine.stats().ranked_cow_clones, clones);
        // A write to the watched list pays the one clone.
        engine
            .ingest_bucket(vec![post(10, watched)], Timestamp(8))
            .unwrap();
        assert_eq!(engine.stats().ranked_cow_clones, clones + 1);

        for (&alg, expected) in index_based.iter().zip(&live) {
            let got = snap.query(&q, alg).unwrap();
            assert_eq!(&got, expected, "{alg}");
            assert_eq!(got.score.to_bits(), expected.score.to_bits(), "{alg}");
        }
        // The live list moved on; the captured one did not.
        let listed = |mut cursor: RankedListCursor<'_>| {
            let mut ids = Vec::new();
            while let Some((id, _, _)) = cursor.current() {
                ids.push(id);
                cursor.advance();
            }
            ids
        };
        assert!(listed(engine.ranked_lists().list(watched).cursor()).contains(&ElementId(10)));
        assert!(!listed(RankedView::cursor(&snap, watched)).contains(&ElementId(10)));
    }
}
