//! Epoch and shard snapshot types.

use std::collections::HashMap;
use std::sync::Arc;

use ksir_core::{
    run_query_per_k, Algorithm, ElementRows, KsirEngine, KsirQuery, QueryResult, QuerySource,
    RankedView, ScoringConfig,
};
use ksir_stream::{ActiveWindow, RankedListCursor, RankedListHandle, RankedPrefix};
use ksir_types::{ElementId, Result, Timestamp, TopicId, TopicWordDistribution};

use crate::stats::SnapshotCounters;
use crate::SnapshotPolicy;

/// A frozen image of everything a k-SIR query evaluation reads, captured at
/// one epoch boundary (immediately after an index update).
///
/// Capture is `O(z)` `Arc` clones — no tuple, element or row is copied: the
/// image shares the engine's ranked lists, its window and its row map (the
/// one store of every active element's `p_i(e)`).  The engine's subsequent
/// mutations copy-on-write around the image, so it keeps answering queries
/// exactly as the engine would have at the capture epoch, from any thread,
/// for as long as it is alive.
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
    counters: SnapshotCounters,
}

impl<D: TopicWordDistribution> EngineSnapshot<D> {
    /// Captures the engine's current state as epoch `epoch`, all topics
    /// included.
    pub fn capture(engine: &KsirEngine<D>, epoch: u64, counters: &SnapshotCounters) -> Self {
        counters.count_epoch();
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
            counters: counters.clone(),
        }
    }

    /// Captures only the given topics' ranked lists (plus the full window
    /// image).  Unwatched lists read as empty **and** cost the writer no
    /// copy-on-write when it mutates them — the right capture when the set
    /// of topics any standing query can traverse is known, as it is for the
    /// subscription manager (the union of resident support topics).
    pub fn capture_watched<I>(
        engine: &KsirEngine<D>,
        epoch: u64,
        counters: &SnapshotCounters,
        watched: I,
    ) -> Self
    where
        I: IntoIterator<Item = TopicId>,
    {
        counters.count_epoch();
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
            counters: counters.clone(),
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
            None => RankedListCursor::over(std::iter::empty()),
        }
    }

    fn suffix_cursor(&self, topic: TopicId, high: f64) -> RankedListCursor<'_> {
        match &self.lists[topic.index()] {
            Some(list) => list.suffix_cursor(high),
            None => RankedListCursor::over(std::iter::empty()),
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

/// The ranked-list view one shard's refresh needs, as floors: per watched
/// topic, the truncation floor ([`None`] = serve the whole list).  Derived
/// from the shard's [`FloorAggregate`](ksir_core::FloorAggregate) — the
/// loosest traversal floor across residents — by the subscription manager.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PrefixSpec {
    /// `(topic, truncation floor)` per topic any resident's traversal can
    /// open a cursor on.
    pub floors: Vec<(TopicId, Option<f64>)>,
}

impl PrefixSpec {
    /// A spec serving `topics` whole (no truncation).
    pub fn whole_lists<I: IntoIterator<Item = TopicId>>(topics: I) -> Self {
        PrefixSpec {
            floors: topics.into_iter().map(|t| (t, None)).collect(),
        }
    }
}

/// A bounded, per-shard view of one [`EngineSnapshot`]: the ranked lists the
/// shard's residents traverse — truncated at the shard's floors under
/// [`SnapshotPolicy::TruncateAtFloors`] — plus the shared window image every
/// evaluation needs.
///
/// Topics outside the spec fall back to the shared epoch image, so a query
/// can never observe missing lists — truncation is a memory optimisation,
/// never a correctness cliff for scheduling.
#[derive(Debug)]
pub struct ShardSnapshot<D> {
    engine: Arc<EngineSnapshot<D>>,
    /// Materialised floor-truncated prefixes (only under `TruncateAtFloors`,
    /// and only for topics with a finite floor).
    prefixes: HashMap<TopicId, RankedPrefix>,
}

impl<D: TopicWordDistribution> ShardSnapshot<D> {
    /// Builds the shard view over a captured epoch image.
    pub fn new(engine: Arc<EngineSnapshot<D>>, spec: &PrefixSpec, policy: SnapshotPolicy) -> Self {
        let counters = engine.counters.clone();
        counters.count_shard_snapshot();
        let mut prefixes = HashMap::new();
        for &(topic, floor) in &spec.floors {
            let list = match engine.lists.get(topic.index()) {
                Some(Some(list)) => list,
                // Out of range or outside the watched set (reads as empty):
                // nothing to materialise.
                _ => continue,
            };
            match (policy, floor) {
                (SnapshotPolicy::TruncateAtFloors, Some(floor)) => {
                    let prefix = list.prefix(Some(floor));
                    counters.count_truncated_prefix(prefix.len(), prefix.truncated());
                    prefixes.insert(topic, prefix);
                }
                _ => counters.count_shared_prefix(),
            }
        }
        ShardSnapshot { engine, prefixes }
    }

    /// The epoch this view belongs to.
    pub fn epoch(&self) -> u64 {
        self.engine.epoch()
    }

    /// Number of topics served as materialised truncated prefixes.
    pub fn truncated_topics(&self) -> usize {
        self.prefixes.len()
    }
}

/// Iterator over a truncated prefix that reports a shortfall the first time
/// a traversal exhausts it while tuples were dropped below the floor.
struct ShortfallIter<I> {
    inner: I,
    truncated: bool,
    counters: SnapshotCounters,
    reported: bool,
}

impl<I: Iterator<Item = (ElementId, f64, Timestamp)>> Iterator for ShortfallIter<I> {
    type Item = (ElementId, f64, Timestamp);

    fn next(&mut self) -> Option<Self::Item> {
        let next = self.inner.next();
        if next.is_none() && self.truncated && !self.reported {
            self.reported = true;
            self.counters.count_shortfall();
        }
        next
    }
}

impl<D> RankedView for ShardSnapshot<D> {
    fn num_topics(&self) -> usize {
        self.engine.lists.len()
    }

    fn cursor(&self, topic: TopicId) -> RankedListCursor<'_> {
        match self.prefixes.get(&topic) {
            Some(prefix) => RankedListCursor::over(ShortfallIter {
                inner: prefix.iter(),
                truncated: prefix.is_truncated(),
                counters: self.engine.counters.clone(),
                reported: false,
            }),
            None => self.engine.cursor(topic),
        }
    }

    fn suffix_cursor(&self, topic: TopicId, high: f64) -> RankedListCursor<'_> {
        match self.prefixes.get(&topic) {
            Some(prefix) => RankedListCursor::over(ShortfallIter {
                inner: prefix.suffix_iter(high),
                truncated: prefix.is_truncated(),
                counters: self.engine.counters.clone(),
                reported: false,
            }),
            None => self.engine.suffix_cursor(topic, high),
        }
    }
}

impl<D: TopicWordDistribution> QuerySource for ShardSnapshot<D> {
    fn num_topics(&self) -> usize {
        self.engine.phi.num_topics()
    }

    fn query_per_k(
        &self,
        query: &KsirQuery,
        ks: &[usize],
        algorithm: Algorithm,
    ) -> Result<Vec<QueryResult>> {
        run_query_per_k(
            self,
            self.engine.window.as_ref(),
            self.engine.rows.as_ref(),
            self.engine.phi.as_ref(),
            self.engine.scoring,
            query,
            ks,
            algorithm,
        )
    }
}

/// Object-safe handle to a captured epoch, so pipelined consumers can carry
/// snapshots through non-generic plumbing (channels, shard queues) without
/// naming the topic-model type `D`.
pub trait SnapshotSource: Send + Sync {
    /// The epoch this image belongs to.
    fn epoch(&self) -> u64;

    /// Builds the bounded per-shard query source over this image.
    fn shard_source(
        self: Arc<Self>,
        spec: &PrefixSpec,
        policy: SnapshotPolicy,
    ) -> Arc<dyn QuerySource + Send + Sync>;

    /// Serves the whole image as a query source — the [`SnapshotPolicy::Exact`]
    /// fast path, which needs neither a spec nor a [`ShardSnapshot`]
    /// allocation (the image's lists are already the exact view).  Counted
    /// as a shard snapshot, since it serves the same per-shard handoff.
    fn as_query_source(self: Arc<Self>) -> Arc<dyn QuerySource + Send + Sync>;
}

impl<D: TopicWordDistribution + Send + Sync + 'static> SnapshotSource for EngineSnapshot<D> {
    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn shard_source(
        self: Arc<Self>,
        spec: &PrefixSpec,
        policy: SnapshotPolicy,
    ) -> Arc<dyn QuerySource + Send + Sync> {
        Arc::new(ShardSnapshot::new(self, spec, policy))
    }

    fn as_query_source(self: Arc<Self>) -> Arc<dyn QuerySource + Send + Sync> {
        self.counters.count_shard_snapshot();
        self
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
        let counters = SnapshotCounters::new();
        let snap = EngineSnapshot::capture(&engine, half as u64, &counters);
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
        assert_eq!(counters.stats().epochs_captured, 1);
    }

    /// Exact shard views are score-identical to the epoch image; truncated
    /// views reproduce the result when the floors come from the queries'
    /// own frontiers (same state ⇒ same traversal depth).
    #[test]
    fn shard_views_reproduce_epoch_answers() {
        let ex = paper_example();
        let engine = ex.build_engine();
        let counters = SnapshotCounters::new();
        let snap = Arc::new(EngineSnapshot::capture(&engine, 8, &counters));
        for alg in [
            Algorithm::Mtts,
            Algorithm::Mttd,
            Algorithm::TopkRepresentative,
        ] {
            let q = query(2, &[0.5, 0.5]);
            let reference = engine.query(&q, alg).unwrap();
            let frontier = reference.frontier.clone().expect("index-based algorithm");
            // Exact policy, whole lists.
            let exact = ShardSnapshot::new(
                Arc::clone(&snap),
                &PrefixSpec::whole_lists([TopicId(0), TopicId(1)]),
                SnapshotPolicy::Exact,
            );
            assert_eq!(exact.truncated_topics(), 0);
            assert_eq!(exact.query(&q, alg).unwrap(), reference);
            // Truncated policy at the traversal's own floors.
            let spec = PrefixSpec {
                floors: frontier.floors.clone(),
            };
            let truncated =
                ShardSnapshot::new(Arc::clone(&snap), &spec, SnapshotPolicy::TruncateAtFloors);
            let got = truncated.query(&q, alg).unwrap();
            assert_eq!(got.sorted_elements(), reference.sorted_elements());
            assert!((got.score - reference.score).abs() < 1e-12);
        }
        let stats = counters.stats();
        assert_eq!(stats.shard_snapshots, 6);
        assert!(stats.prefixes_shared >= 2);
    }

    /// Exhausting a truncated prefix is counted as a shortfall; out-of-range
    /// topics in a spec are ignored.
    #[test]
    fn truncation_shortfalls_are_counted() {
        let ex = paper_example();
        let engine = ex.build_engine();
        let counters = SnapshotCounters::new();
        let snap = Arc::new(EngineSnapshot::capture(&engine, 8, &counters));
        // An absurdly high floor keeps (almost) nothing: the traversal must
        // exhaust the truncated prefix.
        let spec = PrefixSpec {
            floors: vec![
                (TopicId(0), Some(1e9)),
                (TopicId(1), Some(1e9)),
                (TopicId(7), None),
            ],
        };
        let view = ShardSnapshot::new(Arc::clone(&snap), &spec, SnapshotPolicy::TruncateAtFloors);
        assert_eq!(view.truncated_topics(), 2);
        let q = query(2, &[0.5, 0.5]);
        let got = view.query(&q, Algorithm::Mtts).unwrap();
        assert!(got.is_empty(), "nothing above the floor to retrieve");
        let stats = counters.stats();
        assert!(stats.truncation_shortfalls >= 1);
        assert!(stats.entries_truncated > 0);
        assert_eq!(stats.entries_copied, 0);
    }

    /// The type-erased handle round-trips through `Arc<dyn …>` plumbing.
    #[test]
    fn snapshot_source_is_object_safe() {
        let ex = paper_example();
        let engine = ex.build_engine();
        let counters = SnapshotCounters::new();
        let snap: Arc<dyn SnapshotSource> =
            Arc::new(EngineSnapshot::capture(&engine, 3, &counters));
        assert_eq!(snap.epoch(), 3);
        let source = Arc::clone(&snap).shard_source(
            &PrefixSpec::whole_lists([TopicId(0), TopicId(1)]),
            SnapshotPolicy::Exact,
        );
        assert_eq!(source.num_topics(), 2);
        let q = query(2, &[0.5, 0.5]);
        assert_eq!(
            source.query(&q, Algorithm::Mttd).unwrap(),
            engine.query(&q, Algorithm::Mttd).unwrap()
        );
    }
}
