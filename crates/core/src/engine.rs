//! The k-SIR query engine: active window + per-topic ranked lists
//! (Algorithm 1) + query processing (Algorithms 2 and 3 and the baselines).
//!
//! The engine mirrors Figure 4 of the paper: the stream is ingested in
//! buckets; each bucket insert updates the active window, the reverse
//! references and the per-topic ranked lists; ad-hoc k-SIR queries are then
//! answered from the ranked lists without touching the raw stream.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::stream::{ActiveWindow, RankedLists, Slot, WindowDelta};
use ksir_types::{
    ElementId, KsirError, QueryVector, Result, SocialElement, Timestamp, TopicId, TopicVector,
    TopicWordDistribution,
};

use crate::config::{ArchiveRetention, EngineConfig};
use crate::evaluator::QueryEvaluator;
use crate::query::{Algorithm, KsirQuery, QueryResult};
use crate::row::{ElementRow, ElementRows};
use crate::scorer::Scorer;
use crate::tuples::{written, TupleTable};
use crate::view::{self, QuerySource};

/// Counters describing the work an engine has performed so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Elements ingested over the engine's lifetime.
    pub elements_ingested: usize,
    /// Buckets ingested.
    pub buckets_ingested: usize,
    /// Elements that expired out of the active window.
    pub elements_expired: usize,
    /// Ranked-list tuple recomputations (inserts and adjustments), whether
    /// or not the recomputed tuple differed from the stored one and was
    /// written.
    pub tuple_updates: usize,
    /// Window mutations that deep-cloned the active window because an epoch
    /// snapshot was still reading it (copy-on-write; zero without snapshots).
    pub window_cow_clones: usize,
    /// Row-map mutations that deep-cloned the map of per-element rows (the
    /// engine's one topic store) for the same reason.  The name predates the
    /// rows: the map it counts used to hold dense topic vectors.
    pub topic_vector_cow_clones: usize,
    /// Ranked-list mutations that deep-cloned a list for the same reason.
    /// Maintained by the lists themselves and filled in by
    /// [`KsirEngine::stats`] at read time — the engine's stored stats field
    /// keeps this at zero, so never read it off internal state directly.
    pub ranked_cow_clones: usize,
    /// Queries served through [`KsirEngine::query`] and
    /// [`KsirEngine::query_per_k`] (all algorithms), one per result size
    /// served.  Like `ranked_cow_clones`, filled in at read time from an
    /// atomic counter — `query` takes `&self` and may run from many refresh
    /// workers at once.
    pub queries_served: usize,
}

/// Summary of one [`KsirEngine::ingest_bucket`] call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IngestReport {
    /// Elements inserted from the bucket.
    pub inserted: usize,
    /// Elements discarded because they are no longer active.
    pub expired: usize,
    /// Previously ingested elements whose ranked-list tuples changed
    /// (referenced parents and elements whose influence sets shrank, when a
    /// recomputed score or `t_e` differs from the stored one).
    pub refreshed: usize,
    /// Previously expired elements brought back into the active set because a
    /// bucket element references them.
    pub resurrected: usize,
    /// Everything the slide changed — element churn plus per-topic
    /// ranked-list touch depths — for incremental consumers such as the
    /// standing-query manager in `ksir-continuous`.
    pub delta: WindowDelta,
}

/// An ingested element as the archive keeps it: the payload shared with the
/// window (while the element is active) and its row.
#[derive(Debug)]
struct Archived {
    element: Arc<SocialElement>,
    row: Arc<ElementRow>,
}

/// Where one reference of a bucket element points by the time the element is
/// inserted, as [`KsirEngine::validate_bucket`] resolved it: each reference
/// costs one probe of the window's id index per slide.
#[derive(Debug, Clone, Copy)]
enum Parent {
    /// Active before the bucket, in this slot.
    Active(Slot),
    /// The bucket's element at this position.
    Bucket(usize),
    /// An expired parent this reference brings back from the archive.
    Resurrect,
    /// An expired parent an earlier reference brought back, numbered in the
    /// order they came back.
    Resurrected(usize),
    /// Neither active nor archived: the reference is ignored.
    Absent,
}

/// The k-SIR engine over a fixed topic-word distribution.
///
/// `D` is any [`TopicWordDistribution`] — a hand-specified table, a trained
/// LDA/BTM model from `ksir-topics`, or an `Arc` of either.  Per-element topic
/// distributions are supplied alongside the elements at ingest time (the
/// paper treats topic inference as an orthogonal, standard step).
#[derive(Debug)]
pub struct KsirEngine<D> {
    /// `Arc`-held so epoch snapshots can share it without cloning the table.
    pub(crate) phi: Arc<D>,
    config: EngineConfig,
    /// `Arc`-held with copy-on-write mutation: an epoch snapshot clones the
    /// handle in `O(1)`, and the next mutating slide pays a deep clone only
    /// if such a snapshot is still alive (counted in
    /// [`EngineStats::window_cow_clones`]).
    pub(crate) window: Arc<ActiveWindow>,
    pub(crate) ranked: RankedLists,
    /// One row per active element — the only per-element topic store —
    /// indexed by the element's window slot, under the same copy-on-write
    /// scheme as the window (counted in
    /// [`EngineStats::topic_vector_cow_clones`]).  A tuple refresh is
    /// `combine(R_i(e), I_{i,t}(e))` with only the influence half recomputed:
    /// the same operands in the same order as [`Scorer::topicwise_element`],
    /// hence the same bits.
    pub(crate) rows: Arc<ElementRows>,
    /// The `⟨δ_i(e), t_e⟩` the ranked lists hold for every active element,
    /// by slot, in its row's support order: the keys each list is written
    /// and erased by.  Not shared with snapshots, which never look a tuple
    /// up by id.
    tuples: TupleTable,
    /// Every ingested element (subject to the retention policy), kept so that
    /// references from new arrivals can bring expired parents back into the
    /// active set, as required by the paper's definition of `A_t`.
    archive: HashMap<ElementId, Archived>,
    /// Archived elements by post time, oldest first — what
    /// [`ArchiveRetention::Ticks`] pruning pops (unused under the other
    /// policies).  An entry whose element was since re-ingested under the
    /// same id is recognised by its timestamp and skipped.
    archive_by_time: BinaryHeap<Reverse<(Timestamp, ElementId)>>,
    stats: EngineStats,
    /// Result sizes served; atomic because [`KsirEngine::query`] takes
    /// `&self`.
    queries: AtomicUsize,
}

impl<D: TopicWordDistribution> KsirEngine<D> {
    /// Creates an engine over a topic-word distribution.
    pub fn new(phi: D, config: EngineConfig) -> Result<Self> {
        config.validate()?;
        let num_topics = phi.num_topics();
        if num_topics == 0 {
            return Err(KsirError::invalid_parameter(
                "phi",
                "the topic model must have at least one topic",
            ));
        }
        Ok(KsirEngine {
            phi: Arc::new(phi),
            window: Arc::new(ActiveWindow::new(config.window)),
            ranked: RankedLists::new(num_topics),
            rows: Arc::new(ElementRows::new()),
            tuples: TupleTable::default(),
            archive: HashMap::new(),
            archive_by_time: BinaryHeap::new(),
            stats: EngineStats::default(),
            queries: AtomicUsize::new(0),
            config,
        })
    }

    /// Mutable access to the active window, deep-cloning it first iff an
    /// epoch snapshot still shares it (copy-on-write).
    fn window_mut(&mut self) -> &mut ActiveWindow {
        if Arc::strong_count(&self.window) > 1 {
            self.stats.window_cow_clones += 1;
        }
        Arc::make_mut(&mut self.window)
    }

    /// Mutable access to the rows, same copy-on-write scheme as
    /// [`KsirEngine::window_mut`].  A clone copies one `Arc` per slot, not
    /// its row.
    fn rows_mut(&mut self) -> &mut ElementRows {
        if Arc::strong_count(&self.rows) > 1 {
            self.stats.topic_vector_cow_clones += 1;
        }
        Arc::make_mut(&mut self.rows)
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Number of topics `z` of the underlying topic model.
    pub fn num_topics(&self) -> usize {
        self.phi.num_topics()
    }

    /// The topic-word distribution in use.
    pub fn phi(&self) -> &D {
        self.phi.as_ref()
    }

    /// Current logical time (end of the last ingested bucket).
    pub fn now(&self) -> Timestamp {
        self.window.now()
    }

    /// Number of active elements `n_t`.
    pub fn active_count(&self) -> usize {
        self.window.len()
    }

    /// Returns `true` if `id` is currently active.
    pub fn is_active(&self, id: ElementId) -> bool {
        self.window.contains(id)
    }

    /// The active element for `id`, if any.
    pub fn element(&self, id: ElementId) -> Option<&SocialElement> {
        self.window.get(id)
    }

    /// The (possibly sparsified) topic distribution of an active element,
    /// rebuilt dense from its row.
    pub fn topic_vector(&self, id: ElementId) -> Option<TopicVector> {
        let row = self.rows.get(self.window.slot(id)?)?;
        Some(row.topic_vector(self.num_topics()))
    }

    /// One row per active element, indexed by its window slot: its sparse
    /// `p_i(e)` and `R_i(e)`.
    pub fn rows(&self) -> &ElementRows {
        self.rows.as_ref()
    }

    /// Ids of all active elements, sorted for reproducibility.
    pub fn active_ids(&self) -> Vec<ElementId> {
        let mut ids: Vec<ElementId> = self.window.ids().collect();
        ids.sort_unstable();
        ids
    }

    /// The active window (elements, reverse references, window bounds).
    pub fn window(&self) -> &ActiveWindow {
        self.window.as_ref()
    }

    /// The per-topic ranked lists.
    pub fn ranked_lists(&self) -> &RankedLists {
        &self.ranked
    }

    /// Number of elements currently held in the archive.
    pub fn archived_count(&self) -> usize {
        self.archive.len()
    }

    /// Work counters.  The copy-on-write clone counts are live (they include
    /// every clone snapshot capture has forced so far).
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            ranked_cow_clones: self.ranked.cow_clones(),
            queries_served: self.queries.load(Ordering::Relaxed),
            ..self.stats
        }
    }

    /// A [`Scorer`] over the engine's current state, implementing the §3.2
    /// formulas directly.
    pub fn scorer(&self) -> Scorer<'_, D> {
        Scorer::new(
            self.phi.as_ref(),
            self.config.scoring,
            self.window.as_ref(),
            self.rows.as_ref(),
        )
    }

    /// Ingests one bucket of elements posted no later than `bucket_end` and
    /// advances the window to `bucket_end` (Algorithm 1).
    ///
    /// Elements must carry their topic distributions; the engine sparsifies
    /// them according to [`EngineConfig`] before storing.  Returns a summary
    /// of the maintenance work performed.
    ///
    /// The call is all-or-nothing: a bucket that fails validation (wrong
    /// dimensionality, a timestamp after `bucket_end`, an id that repeats
    /// inside the bucket or names an active element) leaves the engine
    /// exactly as it was.
    pub fn ingest_bucket(
        &mut self,
        bucket: Vec<(SocialElement, TopicVector)>,
        bucket_end: Timestamp,
    ) -> Result<IngestReport> {
        if bucket_end < self.window.now() {
            return Err(KsirError::TimestampRegression {
                last: self.window.now(),
                offending: bucket_end,
            });
        }
        let plan = self.validate_bucket(&bucket, bucket_end)?;

        // Start the slide's touch log from a clean slate so the report's
        // delta only covers this bucket.
        let slide_from = self.window.now();
        self.ranked.clear_delta();

        // Elements whose influence sets change, as `(id, slot, in the
        // bucket)`: parents whose sets will shrink once the window slides,
        // then every parent a reference reaches.  No slot is freed before
        // the slide, so each names the same element until then.
        let mut touched: Vec<(ElementId, Slot, bool)> = self
            .window
            .slots_losing_children(bucket_end)
            .into_iter()
            .map(|slot| {
                let id = self
                    .window
                    .id_at(slot)
                    .expect("a parent losing children is active");
                (id, slot, false)
            })
            .collect();

        let mut new_ids = Vec::with_capacity(bucket.len());
        let mut new_slots: Vec<Slot> = Vec::with_capacity(bucket.len());
        let mut resurrected = Vec::new();
        let mut resurrected_slots: Vec<Slot> = Vec::new();
        let mut parents: Vec<Slot> = Vec::new();
        let mut refs = plan.iter();
        for (element, tv) in bucket {
            let id = element.id;
            parents.clear();
            for &parent in &element.refs {
                let resolved = refs.next().expect("one resolution per reference");
                let (slot, in_bucket) = match *resolved {
                    Parent::Active(slot) => (slot, false),
                    Parent::Bucket(i) => (new_slots[i], true),
                    Parent::Resurrected(i) => (resurrected_slots[i], false),
                    // A_t includes every element referenced by a window
                    // element, so a reference to an already-expired parent
                    // brings it back from the archive, with a fresh slot,
                    // before the child is inserted.
                    Parent::Resurrect => {
                        let archived = &self.archive[&parent];
                        let (payload, row) =
                            (Arc::clone(&archived.element), Arc::clone(&archived.row));
                        let back: Vec<Slot> = payload
                            .refs
                            .iter()
                            .filter_map(|&r| self.window.slot(r))
                            .collect();
                        let slot = self.window_mut().insert_resolved(payload, &back)?;
                        self.tuples.reset(slot, row.entries().len());
                        self.rows_mut().insert(slot, row);
                        resurrected.push(parent);
                        resurrected_slots.push(slot);
                        touched.push((parent, slot, false));
                        (slot, false)
                    }
                    Parent::Absent => continue,
                };
                parents.push(slot);
                touched.push((parent, slot, in_bucket));
            }
            let support = self.sparsify(tv);
            let row = Arc::new(ElementRow::new(self.phi.as_ref(), &element.doc, support));
            let element = Arc::new(element);
            if self.config.archive != ArchiveRetention::Disabled {
                let archived = Archived {
                    element: Arc::clone(&element),
                    row: Arc::clone(&row),
                };
                self.archive.insert(id, archived);
                if matches!(self.config.archive, ArchiveRetention::Ticks(_)) {
                    self.archive_by_time.push(Reverse((element.ts, id)));
                }
            }
            let slot = self.window_mut().insert_resolved(element, &parents)?;
            self.tuples.reset(slot, row.entries().len());
            self.rows_mut().insert(slot, row);
            new_ids.push(id);
            new_slots.push(slot);
        }

        let freed = self.window_mut().advance_freeing(bucket_end)?;
        for &(id, slot) in &freed {
            // The element's tuples sit in exactly its support lists, under
            // the stored keys; one admitted and expired in this slide has
            // none yet.
            if let Some(row) = self.rows_mut().remove(slot) {
                let stored = self.tuples.take(slot);
                for (&(topic, _, _), &score) in row.entries().iter().zip(stored.scores()) {
                    if let Some(score) = written(score) {
                        let erased = self.ranked.erase(topic, id, score);
                        debug_assert!(erased, "no tuple of {id} at {score} in {topic}");
                    }
                }
            }
        }
        let expired: Vec<ElementId> = freed.into_iter().map(|(id, _)| id).collect();
        self.prune_archive(bucket_end);

        // New elements first, then every other element whose influence set
        // changed, in ascending id order.  A new element that was referenced
        // inside its own bucket is in both and is written twice.  A slot the
        // slide freed stays free until the next insert.
        touched.sort_unstable_by_key(|&(id, _, _)| id);
        touched.dedup_by_key(|&mut (id, _, _)| id);
        let new = new_ids
            .iter()
            .zip(&new_slots)
            .map(|(&id, &slot)| (id, slot, true));
        let mut refreshed = Vec::new();
        for (id, slot, in_bucket) in new.chain(touched) {
            if self.refresh_tuples(id, slot) && !in_bucket {
                refreshed.push(id);
            }
        }

        self.stats.elements_ingested += new_ids.len();
        self.stats.buckets_ingested += 1;
        self.stats.elements_expired += expired.len();

        Ok(IngestReport {
            inserted: new_ids.len(),
            expired: expired.len(),
            refreshed: refreshed.len(),
            resurrected: resurrected.len(),
            delta: WindowDelta {
                from: slide_from,
                to: bucket_end,
                activated: new_ids,
                expired,
                resurrected,
                refreshed,
                ranked: self.ranked.take_delta(),
            },
        })
    }

    /// Checks everything that can make [`KsirEngine::ingest_bucket`] fail
    /// before it changes any state, and resolves every reference for the
    /// insert loop: bucket element by bucket element, each in reference
    /// order.  Each element's own id and each reference is looked up in the
    /// window once.
    ///
    /// A topic-vector entry must be a finite non-negative number: rows keep
    /// only entries `> 0`, and a `NaN` or infinite one would poison every
    /// score it reaches.
    fn validate_bucket(
        &self,
        bucket: &[(SocialElement, TopicVector)],
        bucket_end: Timestamp,
    ) -> Result<Vec<Parent>> {
        // Bucket elements by position, as far as the loop has come.
        let mut ids: HashMap<ElementId, usize> = HashMap::with_capacity(bucket.len());
        // Expired parents the bucket brings back from the archive before it
        // inserts a later (or the referencing) element: active by then.
        let mut resurrecting: HashMap<ElementId, usize> = HashMap::new();
        let mut refs = Vec::with_capacity(bucket.iter().map(|(e, _)| e.refs.len()).sum());
        for (position, (element, tv)) in bucket.iter().enumerate() {
            if tv.num_topics() != self.num_topics() {
                return Err(KsirError::DimensionMismatch {
                    expected: self.num_topics(),
                    actual: tv.num_topics(),
                });
            }
            if let Some((topic, p)) = tv
                .as_slice()
                .iter()
                .enumerate()
                .find(|(_, p)| !p.is_finite() || **p < 0.0)
            {
                return Err(KsirError::invalid_parameter(
                    "bucket",
                    format!(
                        "element {} has p = {p} on topic {topic}; expected a finite \
                         non-negative probability",
                        element.id
                    ),
                ));
            }
            if element.ts > bucket_end {
                return Err(KsirError::invalid_parameter(
                    "bucket",
                    format!(
                        "element {} is timestamped {} after the bucket end {}",
                        element.id, element.ts, bucket_end
                    ),
                ));
            }
            for parent in &element.refs {
                let resolved = if let Some(slot) = self.window.slot(*parent) {
                    Parent::Active(slot)
                } else if let Some(&position) = ids.get(parent) {
                    Parent::Bucket(position)
                } else if let Some(&index) = resurrecting.get(parent) {
                    Parent::Resurrected(index)
                } else if self.archive.contains_key(parent) {
                    resurrecting.insert(*parent, resurrecting.len());
                    Parent::Resurrect
                } else {
                    Parent::Absent
                };
                refs.push(resolved);
            }
            let id = element.id;
            if self.window.contains(id)
                || resurrecting.contains_key(&id)
                || ids.insert(id, position).is_some()
            {
                return Err(KsirError::invalid_parameter(
                    "bucket",
                    format!("duplicate element id {id}"),
                ));
            }
        }
        Ok(refs)
    }

    /// Drops archived elements that fell outside the retention horizon.
    fn prune_archive(&mut self, now: Timestamp) {
        let ArchiveRetention::Ticks(ticks) = self.config.archive else {
            return;
        };
        let cutoff = now.saturating_sub(ticks);
        while let Some(&Reverse((ts, id))) = self.archive_by_time.peek() {
            if ts >= cutoff {
                break;
            }
            self.archive_by_time.pop();
            if self.archive.get(&id).is_some_and(|a| a.element.ts < cutoff) {
                self.archive.remove(&id);
            }
        }
    }

    /// Convenience wrapper: ingests a whole timestamp-ordered stream, cutting
    /// it into buckets of the configured length `L` and returning the number
    /// of buckets processed.
    pub fn ingest_stream<I>(&mut self, stream: I) -> Result<usize>
    where
        I: IntoIterator<Item = (SocialElement, TopicVector)>,
    {
        let bucket_len = self.config.window.bucket_len();
        crate::stream::for_each_bucket(bucket_len, self.window.now(), stream, |bucket, end| {
            self.ingest_bucket(bucket, end).map(|_| ())
        })
    }

    /// Truncates and renormalises a topic distribution according to the
    /// engine's sparsification settings, returning its support `(θ_i, p_i(e))`
    /// ascending by topic with every `p_i(e) > 0`.
    fn sparsify(&self, tv: TopicVector) -> Vec<(TopicId, f64)> {
        let min_prob = self.config.min_topic_prob;
        let max_topics = self.config.max_topics_per_element;
        let mut entries = tv.support();
        if min_prob <= 0.0 && max_topics.is_none() {
            return entries;
        }
        entries.retain(|&(_, p)| p >= min_prob);
        if entries.is_empty() {
            // Every entry fell below the floor; keep the dominant topic so the
            // element does not silently vanish from the index.
            if let Some(top) = tv.dominant_topic() {
                entries.push((top, tv.value(top)));
            } else {
                return entries; // all-zero vector: nothing to keep
            }
        }
        if let Some(n) = max_topics {
            entries.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            entries.truncate(n);
            entries.sort_unstable_by_key(|&(topic, _)| topic);
        }
        // Normalise as `TopicVector::normalize` would the dense vector: the
        // same entries summed in ascending topic order (its zeros add
        // nothing), each divided by the sum.
        let sum: f64 = entries.iter().map(|&(_, p)| p).sum();
        if sum > 0.0 {
            for (_, p) in &mut entries {
                *p /= sum;
            }
        }
        entries.retain(|&(_, p)| p > 0.0);
        entries
    }

    /// Recomputes the ranked-list tuples `⟨δ_i(e), t_e⟩` of the element `id`
    /// in `slot` for every topic in its support: the row's `R_i(e)` combined
    /// with the influence score over the element's current children.
    ///
    /// Each list is written by the stored old key, and a tuple whose score
    /// bits and `t_e` are unchanged is not written at all: it moves nothing
    /// in the list and logs no touch.  Returns whether any tuple was written
    /// — `false` too if the slot is free (the element expired in this
    /// slide).
    fn refresh_tuples(&mut self, id: ElementId, slot: Slot) -> bool {
        let (Some(row), Some(last_referenced)) =
            (self.rows.get(slot), self.window.last_referenced_at(slot))
        else {
            return false;
        };
        let scorer = Scorer::new(
            self.phi.as_ref(),
            self.config.scoring,
            self.window.as_ref(),
            self.rows.as_ref(),
        );
        let (stored_ts, stored) = self.tuples.get_mut(slot);
        let same_ts = *stored_ts == last_referenced;
        let mut wrote = false;
        for (&(topic, _, semantic), old) in row.entries().iter().zip(stored) {
            let influence = scorer.influence_at(topic, slot);
            let score = self.config.scoring.combine(semantic, influence);
            self.stats.tuple_updates += 1;
            if same_ts && old.to_bits() == score.to_bits() {
                continue;
            }
            self.ranked
                .write(topic, id, written(*old), score, last_referenced);
            *old = score;
            wrote = true;
        }
        *stored_ts = last_referenced;
        wrote
    }

    fn check_query(&self, query: &KsirQuery) -> Result<()> {
        if query.vector().num_topics() != self.num_topics() {
            return Err(KsirError::DimensionMismatch {
                expected: self.num_topics(),
                actual: query.vector().num_topics(),
            });
        }
        Ok(())
    }

    fn evaluator<'a>(&'a self, vector: &QueryVector) -> QueryEvaluator<'a, D> {
        QueryEvaluator::new(self.scorer(), vector)
    }

    /// Processes a k-SIR query with the chosen algorithm.
    ///
    /// The one-size case of [`KsirEngine::query_per_k`].
    pub fn query(&self, query: &KsirQuery, algorithm: Algorithm) -> Result<QueryResult> {
        let mut results = self.query_per_k(query, &[query.k()], algorithm)?;
        Ok(results.pop().expect("one result per requested size"))
    }

    /// Processes `query`'s vector and `ε` at every result size in `ks` with
    /// one pass of the chosen algorithm — one result per entry, each equal to
    /// [`KsirEngine::query`] at that `k`.  Counted as one query served per
    /// entry of `ks`.
    ///
    /// Delegates to the dispatcher the snapshot-backed refresh path uses too
    /// (`view::run_query_per_k`), over the live ranked lists, so the two can
    /// never diverge algorithmically.
    pub fn query_per_k(
        &self,
        query: &KsirQuery,
        ks: &[usize],
        algorithm: Algorithm,
    ) -> Result<Vec<QueryResult>> {
        self.queries.fetch_add(ks.len(), Ordering::Relaxed);
        view::run_query_per_k(
            &self.ranked,
            self.window.as_ref(),
            self.rows.as_ref(),
            self.phi.as_ref(),
            self.config.scoring,
            query,
            ks,
            algorithm,
        )
    }

    /// Processes a query with MTTS (Algorithm 2).
    pub fn query_mtts(&self, query: &KsirQuery) -> Result<QueryResult> {
        self.query(query, Algorithm::Mtts)
    }

    /// Processes a query with MTTD (Algorithm 3).
    pub fn query_mttd(&self, query: &KsirQuery) -> Result<QueryResult> {
        self.query(query, Algorithm::Mttd)
    }

    /// Processes a query with the CELF baseline.
    pub fn query_celf(&self, query: &KsirQuery) -> Result<QueryResult> {
        self.query(query, Algorithm::Celf)
    }

    /// Processes a query with the SieveStreaming baseline.
    pub fn query_sieve_streaming(&self, query: &KsirQuery) -> Result<QueryResult> {
        self.query(query, Algorithm::SieveStreaming)
    }

    /// Processes a query with the Top-k Representative baseline.
    pub fn query_topk_representative(&self, query: &KsirQuery) -> Result<QueryResult> {
        self.query(query, Algorithm::TopkRepresentative)
    }

    /// Exhaustively enumerates all size-`min(k, n_t)` subsets of the active
    /// elements and returns the best one.
    ///
    /// This is exponential in `k` and only intended for tests and very small
    /// worked examples (such as the paper's Table 1); it is the ground truth
    /// the approximation guarantees of the other algorithms are checked
    /// against.
    pub fn exhaustive_optimum(&self, query: &KsirQuery) -> Result<QueryResult> {
        self.check_query(query)?;
        let evaluator = self.evaluator(query.vector());
        let ids = self.active_ids();
        let k = query.k().min(ids.len());
        let mut best: Vec<ElementId> = Vec::new();
        let mut best_score = 0.0;
        let mut current: Vec<ElementId> = Vec::with_capacity(k);
        fn recurse<D: TopicWordDistribution>(
            ids: &[ElementId],
            start: usize,
            k: usize,
            current: &mut Vec<ElementId>,
            evaluator: &QueryEvaluator<'_, D>,
            best: &mut Vec<ElementId>,
            best_score: &mut f64,
        ) {
            if current.len() == k {
                let score = evaluator.score_of(current);
                if score > *best_score {
                    *best_score = score;
                    *best = current.clone();
                }
                return;
            }
            let remaining = k - current.len();
            for i in start..=ids.len().saturating_sub(remaining) {
                current.push(ids[i]);
                recurse(ids, i + 1, k, current, evaluator, best, best_score);
                current.pop();
            }
        }
        if k > 0 {
            recurse(
                &ids,
                0,
                k,
                &mut current,
                &evaluator,
                &mut best,
                &mut best_score,
            );
        }
        Ok(QueryResult {
            elements: best,
            score: best_score,
            evaluated_elements: ids.len(),
            gain_evaluations: evaluator.gain_evaluations(),
            algorithm: Algorithm::Celf,
            frontier: None,
        })
    }
}

impl<D: TopicWordDistribution> QuerySource for KsirEngine<D> {
    fn num_topics(&self) -> usize {
        KsirEngine::num_topics(self)
    }

    fn query_per_k(
        &self,
        query: &KsirQuery,
        ks: &[usize],
        algorithm: Algorithm,
    ) -> Result<Vec<QueryResult>> {
        KsirEngine::query_per_k(self, query, ks, algorithm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScoringConfig;
    use crate::fixtures::paper_example;
    use crate::stream::WindowConfig;
    use ksir_types::{DenseTopicWordTable, SocialElementBuilder};

    fn tiny_engine() -> KsirEngine<DenseTopicWordTable> {
        let phi = DenseTopicWordTable::from_rows(vec![
            vec![0.5, 0.3, 0.2, 0.0],
            vec![0.0, 0.2, 0.3, 0.5],
        ])
        .unwrap();
        let config = EngineConfig::new(
            WindowConfig::new(4, 1).unwrap(),
            ScoringConfig::new(0.5, 2.0).unwrap(),
        )
        .with_max_topics_per_element(None);
        KsirEngine::new(phi, config).unwrap()
    }

    fn tv(values: &[f64]) -> TopicVector {
        TopicVector::from_values(values.to_vec()).unwrap()
    }

    #[test]
    fn new_rejects_empty_topic_model() {
        let phi = DenseTopicWordTable::uniform(0, 4);
        let config = EngineConfig::new(WindowConfig::new(4, 1).unwrap(), ScoringConfig::default());
        assert!(KsirEngine::new(phi, config).is_err());
    }

    #[test]
    fn ingest_validates_dimensions_and_timestamps() {
        let mut engine = tiny_engine();
        let e = SocialElementBuilder::new(1).at(1).words([0]).build();
        // wrong topic dimensionality
        assert!(matches!(
            engine.ingest_bucket(vec![(e.clone(), tv(&[1.0]))], Timestamp(1)),
            Err(KsirError::DimensionMismatch { .. })
        ));
        // element newer than the bucket end
        assert!(engine
            .ingest_bucket(vec![(e.clone(), tv(&[1.0, 0.0]))], Timestamp(0))
            .is_err());
        // regression of the bucket end
        engine
            .ingest_bucket(vec![(e, tv(&[1.0, 0.0]))], Timestamp(2))
            .unwrap();
        assert!(matches!(
            engine.ingest_bucket(vec![], Timestamp(1)),
            Err(KsirError::TimestampRegression { .. })
        ));
    }

    #[test]
    fn a_rejected_bucket_leaves_the_engine_untouched() {
        let mut engine = tiny_engine();
        let el = |id: u64, ts: u64| SocialElementBuilder::new(id).at(ts).words([0, 1]);
        let pair = |b: SocialElementBuilder| (b.build(), tv(&[0.6, 0.4]));
        // e1 expires into the archive, e2 stays active.
        engine
            .ingest_bucket(vec![pair(el(1, 1))], Timestamp(1))
            .unwrap();
        engine
            .ingest_bucket(vec![pair(el(2, 5))], Timestamp(5))
            .unwrap();
        assert!(!engine.is_active(ElementId(1)) && engine.is_active(ElementId(2)));
        let state = |e: &KsirEngine<DenseTopicWordTable>| {
            (
                e.active_count(),
                e.archived_count(),
                e.ranked_lists().total_entries(),
                e.now(),
                e.stats(),
            )
        };
        let before = state(&engine);

        let rejected = [
            // the id repeats inside the bucket, after a good element
            vec![pair(el(3, 6)), pair(el(4, 6)), pair(el(3, 6))],
            // the id names an active element
            vec![pair(el(3, 6)), pair(el(2, 6))],
            // the id names an expired element an earlier reference brings back
            vec![pair(el(3, 6).referencing(1)), pair(el(1, 6))],
            // ... or the element's own reference does
            {
                let mut own = el(1, 6).build();
                own.refs.push(ElementId(1));
                vec![(own, tv(&[0.6, 0.4]))]
            },
        ];
        for bucket in rejected {
            assert!(engine.ingest_bucket(bucket, Timestamp(6)).is_err());
            assert_eq!(state(&engine), before);
            assert!(!engine.is_active(ElementId(1)) && !engine.is_active(ElementId(3)));
        }

        // The next good bucket ingests as if nothing had happened; reusing
        // the id of an expired element nothing resurrects is not a duplicate.
        let r = engine
            .ingest_bucket(
                vec![pair(el(3, 6).referencing(2)), pair(el(1, 6))],
                Timestamp(6),
            )
            .unwrap();
        assert_eq!((r.inserted, r.refreshed, r.resurrected), (2, 1, 0));
        assert_eq!(engine.active_count(), 3);
        assert_eq!(engine.ranked_lists().total_entries(), 6);
    }

    #[test]
    fn invalid_topic_probabilities_are_rejected_untouched() {
        let phi = DenseTopicWordTable::from_rows(vec![
            vec![0.5, 0.3, 0.2, 0.0],
            vec![0.0, 0.2, 0.3, 0.5],
        ])
        .unwrap();
        let base = EngineConfig::new(
            WindowConfig::new(4, 1).unwrap(),
            ScoringConfig::new(0.5, 2.0).unwrap(),
        );
        for config in [base, base.with_max_topics_per_element(None)] {
            let mut engine = KsirEngine::new(phi.clone(), config).unwrap();
            let parent = SocialElementBuilder::new(1).at(1).words([0, 1]).build();
            engine
                .ingest_bucket(vec![(parent, tv(&[0.6, 0.4]))], Timestamp(1))
                .unwrap();
            let state = |e: &KsirEngine<DenseTopicWordTable>| {
                let lists: Vec<Vec<(ElementId, u64, Timestamp)>> = (0..2)
                    .map(|t| {
                        let list = e.ranked_lists().list(TopicId(t));
                        list.iter()
                            .map(|(id, s, ts)| (id, s.to_bits(), ts))
                            .collect()
                    })
                    .collect();
                (e.active_count(), e.now(), e.stats(), lists)
            };
            let before = state(&engine);
            // `TopicVector::set` writes unchecked, so a caller can hand the
            // engine any of these.
            for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -0.5] {
                let child = SocialElementBuilder::new(2)
                    .at(2)
                    .words([1, 2])
                    .referencing(1)
                    .build();
                let mut vector = tv(&[0.7, 0.0]);
                vector.set(TopicId(1), bad);
                let rejected = engine.ingest_bucket(vec![(child, vector)], Timestamp(2));
                assert!(rejected.is_err(), "p = {bad} accepted under {config:?}");
                assert_eq!(state(&engine), before, "p = {bad} under {config:?}");
            }
        }
    }

    #[test]
    fn ingest_updates_ranked_lists_and_expiry() {
        let mut engine = tiny_engine();
        let e1 = SocialElementBuilder::new(1).at(1).words([0, 1]).build();
        let e2 = SocialElementBuilder::new(2)
            .at(3)
            .words([2, 3])
            .referencing(1)
            .build();
        let r = engine
            .ingest_bucket(vec![(e1, tv(&[0.9, 0.1]))], Timestamp(1))
            .unwrap();
        assert_eq!(r.inserted, 1);
        assert!(engine
            .ranked_lists()
            .list(TopicId(0))
            .get(ElementId(1))
            .is_some());
        let before = engine
            .ranked_lists()
            .list(TopicId(0))
            .get(ElementId(1))
            .unwrap()
            .0;
        // e2 references e1 → e1's tuple gains influence mass and is refreshed
        let r = engine
            .ingest_bucket(vec![(e2, tv(&[0.2, 0.8]))], Timestamp(3))
            .unwrap();
        assert_eq!(r.refreshed, 1);
        let after = engine
            .ranked_lists()
            .list(TopicId(0))
            .get(ElementId(1))
            .unwrap()
            .0;
        assert!(after > before, "reference must increase δ_0(e1)");
        // far in the future: everything expires and the index empties
        let r = engine.ingest_bucket(vec![], Timestamp(20)).unwrap();
        assert_eq!(r.expired, 2);
        assert_eq!(engine.active_count(), 0);
        assert_eq!(engine.ranked_lists().total_entries(), 0);
        assert_eq!(engine.stats().elements_expired, 2);
    }

    #[test]
    fn ingest_report_delta_records_churn_and_touch_depths() {
        let mut engine = tiny_engine();
        let e1 = SocialElementBuilder::new(1).at(1).words([0, 1]).build();
        let r = engine
            .ingest_bucket(vec![(e1, tv(&[0.9, 0.1]))], Timestamp(1))
            .unwrap();
        assert_eq!(r.delta.from, Timestamp(0));
        assert_eq!(r.delta.to, Timestamp(1));
        assert_eq!(r.delta.activated, vec![ElementId(1)]);
        assert!(r.delta.expired.is_empty() && r.delta.refreshed.is_empty());
        // e1's tuples were inserted into both of its support topics' lists.
        assert!(r.delta.ranked.touched(TopicId(0)));
        assert!(r.delta.ranked.touched(TopicId(1)));
        let (s0, _) = engine
            .ranked_lists()
            .list(TopicId(0))
            .get(ElementId(1))
            .unwrap();
        assert_eq!(r.delta.ranked.touch(TopicId(0)).unwrap().high, s0);

        // e2 references e1: e1 is refreshed and its topic-0 touch covers the
        // higher (new) score.
        let e2 = SocialElementBuilder::new(2)
            .at(3)
            .words([2, 3])
            .referencing(1)
            .build();
        let r = engine
            .ingest_bucket(vec![(e2, tv(&[0.2, 0.8]))], Timestamp(3))
            .unwrap();
        assert_eq!(r.delta.activated, vec![ElementId(2)]);
        assert_eq!(r.delta.refreshed, vec![ElementId(1)]);
        let (s0_after, _) = engine
            .ranked_lists()
            .list(TopicId(0))
            .get(ElementId(1))
            .unwrap();
        assert!(r.delta.ranked.touch(TopicId(0)).unwrap().high >= s0_after);

        // Expiry shows up in `expired` and touches the lists at the removed
        // scores.
        let r = engine.ingest_bucket(vec![], Timestamp(20)).unwrap();
        assert_eq!(r.delta.expired, vec![ElementId(1), ElementId(2)]);
        assert!(r.delta.lost(ElementId(1)));
        assert!(!r.delta.lost(ElementId(3)));
        assert!(r.delta.ranked.touch(TopicId(0)).unwrap().high >= s0_after);

        // A slide over an empty window changes nothing.
        let r = engine.ingest_bucket(vec![], Timestamp(24)).unwrap();
        assert!(r.delta.is_empty());
    }

    #[test]
    fn a_bit_identical_recomputation_writes_and_touches_nothing() {
        // e1 is about topic 0 only.  Its children: e2 (topic 1 only, so its
        // influence term on topic 0 is exactly 0.0) and e3.  When e2 leaves
        // W_t, e1 loses a child and its tuple is recomputed — to the same
        // bits (0.0 + x == x) and the same t_e (e3's reference).  e3 keeps
        // e1 and e2 active, so nothing expires either.
        let mut engine = tiny_engine();
        let post = |id: u64, ts: u64| SocialElementBuilder::new(id).at(ts).words([0, 1]);
        engine
            .ingest_bucket(vec![(post(1, 1).build(), tv(&[1.0, 0.0]))], Timestamp(1))
            .unwrap();
        engine
            .ingest_bucket(
                vec![(post(2, 2).referencing(1).build(), tv(&[0.0, 1.0]))],
                Timestamp(2),
            )
            .unwrap();
        let e3 = post(3, 4).referencing(1).referencing(2).build();
        engine
            .ingest_bucket(vec![(e3, tv(&[1.0, 0.0]))], Timestamp(4))
            .unwrap();
        let lists = |e: &KsirEngine<DenseTopicWordTable>| -> Vec<Vec<(ElementId, u64, Timestamp)>> {
            (0..2)
                .map(|t| {
                    let list = e.ranked_lists().list(TopicId(t)).iter();
                    list.map(|(id, s, ts)| (id, s.to_bits(), ts)).collect()
                })
                .collect()
        };
        let before = lists(&engine);
        let updates = engine.stats().tuple_updates;

        // At t = 6 the window starts at 3: e2 has left W_t.
        let r = engine.ingest_bucket(vec![], Timestamp(6)).unwrap();
        assert_eq!(
            engine.stats().tuple_updates,
            updates + 1,
            "e1 was recomputed"
        );
        assert_eq!(r.expired, 0);
        assert_eq!(r.refreshed, 0, "nothing changed, nothing refreshed");
        assert!(r.delta.refreshed.is_empty());
        assert!(
            r.delta.ranked.is_empty(),
            "no touch: {:?}",
            r.delta.touches()
        );
        assert!(r.delta.is_empty());
        assert_eq!(lists(&engine), before);
    }

    #[test]
    fn expired_parents_are_resurrected_by_new_references() {
        // Mirrors Table 1: e2 (ts = 2) expires at t = 6 under T = 4 but must
        // be active again at t = 7 because e7 references it.
        let mut engine = tiny_engine();
        let e2 = SocialElementBuilder::new(2).at(2).words([0, 1]).build();
        engine
            .ingest_bucket(vec![(e2, tv(&[0.5, 0.5]))], Timestamp(2))
            .unwrap();
        let r = engine.ingest_bucket(vec![], Timestamp(6)).unwrap();
        assert_eq!(r.expired, 1);
        assert!(!engine.is_active(ElementId(2)));
        let e7 = SocialElementBuilder::new(7)
            .at(7)
            .words([2])
            .referencing(2)
            .build();
        let r = engine
            .ingest_bucket(vec![(e7, tv(&[0.5, 0.5]))], Timestamp(7))
            .unwrap();
        assert_eq!(r.resurrected, 1);
        assert!(engine.is_active(ElementId(2)));
        assert!(engine
            .ranked_lists()
            .list(TopicId(0))
            .get(ElementId(2))
            .is_some());
    }

    #[test]
    fn a_resurrected_element_profiles_to_its_pre_expiry_bits() {
        // e2 is profiled with one child, expires with it, and comes back
        // with a child of the same distribution: the row the archive kept
        // must give the same `δ`, word weights included.
        let mut engine = tiny_engine();
        let query = QueryVector::new(vec![0.3, 0.7]).unwrap();
        let child = |id: u64, ts: u64| {
            let element = SocialElementBuilder::new(id)
                .at(ts)
                .words([2, 3])
                .referencing(2)
                .build();
            (element, tv(&[0.35, 0.65]))
        };
        let delta_of_e2 = |engine: &KsirEngine<DenseTopicWordTable>| {
            let evaluator = QueryEvaluator::new(engine.scorer(), &query);
            let mut arena = crate::ProfileArena::default();
            let profile = evaluator.profile(&mut arena, ElementId(2));
            evaluator.delta_of(arena.get(profile)).to_bits()
        };
        let e2 = SocialElementBuilder::new(2)
            .at(2)
            .words([0, 1, 1, 2, 3])
            .build();
        engine
            .ingest_bucket(vec![(e2, tv(&[0.55, 0.45]))], Timestamp(2))
            .unwrap();
        engine
            .ingest_bucket(vec![child(3, 3)], Timestamp(3))
            .unwrap();
        let before = delta_of_e2(&engine);
        assert_ne!(f64::from_bits(before), 0.0);

        engine.ingest_bucket(vec![], Timestamp(8)).unwrap();
        assert!(!engine.is_active(ElementId(2)) && !engine.is_active(ElementId(3)));
        let r = engine
            .ingest_bucket(vec![child(9, 9)], Timestamp(9))
            .unwrap();
        assert_eq!(r.resurrected, 1);
        assert_eq!(delta_of_e2(&engine), before);
    }

    #[test]
    fn disabled_archive_ignores_references_to_expired_parents() {
        let phi = DenseTopicWordTable::uniform(2, 4);
        let config = EngineConfig::new(WindowConfig::new(4, 1).unwrap(), ScoringConfig::default())
            .with_archive(crate::config::ArchiveRetention::Disabled);
        let mut engine = KsirEngine::new(phi, config).unwrap();
        let e1 = SocialElementBuilder::new(1).at(1).words([0]).build();
        engine
            .ingest_bucket(vec![(e1, tv(&[1.0, 0.0]))], Timestamp(1))
            .unwrap();
        engine.ingest_bucket(vec![], Timestamp(6)).unwrap();
        let e2 = SocialElementBuilder::new(2)
            .at(7)
            .words([1])
            .referencing(1)
            .build();
        let r = engine
            .ingest_bucket(vec![(e2, tv(&[1.0, 0.0]))], Timestamp(7))
            .unwrap();
        assert_eq!(r.resurrected, 0);
        assert!(!engine.is_active(ElementId(1)));
        assert_eq!(engine.archived_count(), 0);
    }

    #[test]
    fn archive_retention_in_ticks_prunes_old_elements() {
        let phi = DenseTopicWordTable::uniform(2, 4);
        let config = EngineConfig::new(WindowConfig::new(4, 1).unwrap(), ScoringConfig::default())
            .with_archive(crate::config::ArchiveRetention::Ticks(10));
        let mut engine = KsirEngine::new(phi, config).unwrap();
        let e1 = SocialElementBuilder::new(1).at(1).words([0]).build();
        engine
            .ingest_bucket(vec![(e1, tv(&[1.0, 0.0]))], Timestamp(1))
            .unwrap();
        assert_eq!(engine.archived_count(), 1);
        engine.ingest_bucket(vec![], Timestamp(12)).unwrap();
        assert_eq!(engine.archived_count(), 0, "ts=1 < 12-10 cutoff");
    }

    #[test]
    fn a_resurrected_element_is_pruned_from_the_archive_by_its_post_time() {
        let phi = DenseTopicWordTable::uniform(2, 4);
        let config = EngineConfig::new(WindowConfig::new(4, 1).unwrap(), ScoringConfig::default())
            .with_archive(crate::config::ArchiveRetention::Ticks(10));
        let mut engine = KsirEngine::new(phi, config).unwrap();
        let post = |id: u64, ts: u64| SocialElementBuilder::new(id).at(ts).words([0]);
        let pair = |b: SocialElementBuilder| (b.build(), tv(&[1.0, 0.0]));
        engine
            .ingest_bucket(vec![pair(post(1, 1))], Timestamp(1))
            .unwrap();
        assert_eq!(
            engine.ingest_bucket(vec![], Timestamp(6)).unwrap().expired,
            1
        );
        // Inside the retention horizon a reference brings e1 back...
        let r = engine
            .ingest_bucket(vec![pair(post(2, 9).referencing(1))], Timestamp(9))
            .unwrap();
        assert_eq!(r.resurrected, 1);
        assert_eq!(engine.archived_count(), 2);
        // ...but the archive still files it under its post time: at t = 12
        // the cutoff (2) passes ts = 1 while e1 is active again.
        engine.ingest_bucket(vec![], Timestamp(12)).unwrap();
        assert!(engine.is_active(ElementId(1)));
        assert_eq!(engine.archived_count(), 1);
        // Once it expires a second time there is nothing to bring back.
        let r = engine.ingest_bucket(vec![], Timestamp(13)).unwrap();
        assert_eq!(r.delta.expired, vec![ElementId(1), ElementId(2)]);
        let r = engine
            .ingest_bucket(vec![pair(post(3, 14).referencing(1))], Timestamp(14))
            .unwrap();
        assert_eq!(r.resurrected, 0);
        assert!(!engine.is_active(ElementId(1)));
        // An id ingested again after it expired has two entries in the
        // pruning queue; reaching the older one must not drop the newer
        // archive entry.
        engine
            .ingest_bucket(vec![pair(post(4, 15))], Timestamp(15))
            .unwrap();
        engine.ingest_bucket(vec![], Timestamp(20)).unwrap();
        engine
            .ingest_bucket(vec![pair(post(4, 21))], Timestamp(21))
            .unwrap();
        engine.ingest_bucket(vec![], Timestamp(26)).unwrap();
        assert!(!engine.is_active(ElementId(4)));
        assert_eq!(engine.archived_count(), 1, "cutoff 16: only the new e4");
        let r = engine
            .ingest_bucket(vec![pair(post(5, 27).referencing(4))], Timestamp(27))
            .unwrap();
        assert_eq!(r.resurrected, 1);
        assert_eq!(engine.element(ElementId(4)).unwrap().ts, Timestamp(21));
    }

    #[test]
    fn stored_tuples_match_direct_scorer() {
        let ex = paper_example();
        let engine = ex.build_engine();
        let scorer = engine.scorer();
        for topic in [TopicId(0), TopicId(1)] {
            for (id, stored, _) in engine.ranked_lists().list(topic).iter() {
                let direct = scorer.topicwise_element(topic, id);
                assert!(
                    (stored - direct).abs() < 1e-9,
                    "stale tuple for {id} on {topic}: stored={stored}, direct={direct}"
                );
            }
        }
    }

    #[test]
    fn sparsification_truncates_and_renormalises() {
        let phi = DenseTopicWordTable::uniform(4, 4);
        let config = EngineConfig::new(WindowConfig::new(4, 1).unwrap(), ScoringConfig::default())
            .with_max_topics_per_element(Some(2))
            .with_min_topic_prob(0.05);
        let mut engine = KsirEngine::new(phi, config).unwrap();
        let e = SocialElementBuilder::new(1).at(1).words([0]).build();
        engine
            .ingest_bucket(vec![(e, tv(&[0.5, 0.3, 0.15, 0.05]))], Timestamp(1))
            .unwrap();
        let stored = engine.topic_vector(ElementId(1)).unwrap();
        assert_eq!(stored.support_size(), 2);
        assert!((stored.sum() - 1.0).abs() < 1e-12);
        assert!(stored.value(TopicId(0)) > stored.value(TopicId(1)));
        assert_eq!(stored.value(TopicId(2)), 0.0);
        // ranked lists only hold tuples for the retained topics
        assert!(engine
            .ranked_lists()
            .list(TopicId(0))
            .get(ElementId(1))
            .is_some());
        assert!(engine
            .ranked_lists()
            .list(TopicId(2))
            .get(ElementId(1))
            .is_none());
    }

    #[test]
    fn ingest_stream_cuts_buckets_of_length_l() {
        let phi = DenseTopicWordTable::uniform(2, 4);
        let config = EngineConfig::new(WindowConfig::new(10, 5).unwrap(), ScoringConfig::default());
        let mut engine = KsirEngine::new(phi, config).unwrap();
        let stream: Vec<_> = (1..=12u64)
            .map(|i| {
                (
                    SocialElementBuilder::new(i).at(i).words([0, 1]).build(),
                    tv(&[0.5, 0.5]),
                )
            })
            .collect();
        let buckets = engine.ingest_stream(stream).unwrap();
        assert!(buckets >= 3);
        assert_eq!(engine.stats().elements_ingested, 12);
        assert!(engine.now() >= Timestamp(12));
    }

    #[test]
    fn query_rejects_dimension_mismatch() {
        let ex = paper_example();
        let engine = ex.build_engine();
        let q = KsirQuery::new(2, QueryVector::new(vec![1.0, 1.0, 1.0]).unwrap()).unwrap();
        assert!(matches!(
            engine.query(&q, Algorithm::Celf),
            Err(KsirError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn exhaustive_optimum_on_paper_example() {
        let ex = paper_example();
        let engine = ex.build_engine();
        let q = KsirQuery::new(2, QueryVector::new(vec![0.5, 0.5]).unwrap()).unwrap();
        let opt = engine.exhaustive_optimum(&q).unwrap();
        assert_eq!(
            opt.sorted_elements(),
            vec![ElementId(1), ElementId(3)],
            "Example 3.4: S* = {{e1, e3}}"
        );
        assert!(
            (opt.score - 0.65).abs() < 0.02,
            "OPT ≈ 0.65, got {}",
            opt.score
        );
    }
}
