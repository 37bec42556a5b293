//! Per-topic ranked lists of active elements (Algorithm 1).
//!
//! For every topic `θ_i` the system keeps a list `RL_i` of tuples
//! `⟨δ_i(e), t_e⟩` — the topic-wise representativeness score of each active
//! element and the time it was last referenced — sorted in descending order of
//! score.  MTTS and MTTD traverse the lists with the `first` / `next`
//! operations to evaluate elements in decreasing order of their upper-bound
//! score and terminate early.
//!
//! A list is an order and nothing else: a [`BTreeSet`] keyed by
//! `(descending score, element id)`, giving `O(log n)` insert and delete and
//! ordered traversal with no allocation per cursor or step.  There is no map
//! from element id to its key.  The writer — the engine — knows which lists
//! each active element is in and under which score, so it writes by that key
//! ([`RankedLists::write`], [`RankedLists::erase`]) and never hashes an id.
//! Each ordered entry carries its `t_e` along (outside the ordering), so a
//! traversal step reads one B-tree slot.
//!
//! The by-id forms — [`RankedList::get`], [`RankedList::upsert`],
//! [`RankedList::remove`] and their [`RankedLists`] counterparts — find an
//! element's key by a **linear scan** of the list.  They are inspection
//! helpers for tests, benchmarks and replays; no engine path calls them.
//! An ablation benchmark (`crates/bench/benches/ablation.rs`) compares this
//! layout against a re-sorted `Vec` baseline.
//!
//! ## Snapshot capture
//!
//! The order lives behind an `Arc` internally, so an immutable image of
//! a list at one instant is an `O(1)` pointer clone ([`RankedList::share`] →
//! [`RankedListHandle`]): the writer's next mutation pays a copy-on-write
//! clone of that one list (counted in [`RankedList::cow_clones`]) and the
//! reader keeps traversing the frozen image for as long as it likes.
//! `ksir-snapshot` builds its per-epoch snapshots out of exactly these
//! handles.

use std::collections::{btree_set, BTreeSet};
use std::sync::Arc;

use ksir_types::{ElementId, Timestamp, TopicId};

use crate::delta::{RankedDelta, FLOOR_SLACK};

/// Key ordering entries by descending score, breaking ties by element id.
///
/// `ts` rides along as payload: it takes no part in the ordering or in
/// equality, so a key built with any timestamp finds (and removes) the entry
/// stored under the same `(score, id)`.
#[derive(Debug, Clone, Copy)]
struct ScoreKey {
    score: f64,
    id: ElementId,
    ts: Timestamp,
}

impl ScoreKey {
    fn tuple(&self) -> (ElementId, f64, Timestamp) {
        (self.id, self.score, self.ts)
    }
}

impl PartialEq for ScoreKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for ScoreKey {}

impl PartialOrd for ScoreKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ScoreKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Descending by score, then ascending by id for a total order.
        other
            .score
            .total_cmp(&self.score)
            .then_with(|| self.id.cmp(&other.id))
    }
}

/// The shared (and therefore snapshot-able) storage of one ranked list.
#[derive(Debug, Clone, Default)]
struct ListCore {
    order: BTreeSet<ScoreKey>,
}

impl ListCore {
    fn first(&self) -> Option<(ElementId, f64, Timestamp)> {
        self.order.first().map(ScoreKey::tuple)
    }

    fn iter(&self) -> impl Iterator<Item = (ElementId, f64, Timestamp)> + '_ {
        self.order.iter().map(ScoreKey::tuple)
    }

    /// A cursor over the whole list, highest first.
    fn cursor(&self) -> RankedListCursor<'_> {
        RankedListCursor::new(self.order.range(..))
    }

    /// A cursor over the suffix of entries with score `≤ high + FLOOR_SLACK`,
    /// highest first — an `O(log n)` positioned seek on the score order
    /// rather than a scan past the prefix.
    fn suffix_cursor(&self, high: f64) -> RankedListCursor<'_> {
        // Keys sort by descending score then ascending id, so the first key
        // at or below the bound is `(high + slack, smallest id)`.
        let start = ScoreKey {
            score: high + FLOOR_SLACK,
            id: ElementId(0),
            ts: Timestamp::ZERO,
        };
        RankedListCursor::new(self.order.range(start..))
    }
}

/// One ranked list `RL_i`: active elements ordered by topic-wise score.
#[derive(Debug, Default)]
pub struct RankedList {
    core: Arc<ListCore>,
    /// Mutations that had to deep-clone the core because a
    /// [`RankedListHandle`] (snapshot) was still alive.
    cow_clones: usize,
}

impl RankedList {
    /// Creates an empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mutable access to the core, cloning it first iff a snapshot handle is
    /// still sharing it (copy-on-write).
    fn core_mut(&mut self) -> &mut ListCore {
        if Arc::strong_count(&self.core) > 1 {
            self.cow_clones += 1;
        }
        Arc::make_mut(&mut self.core)
    }

    /// Number of mutations that paid a copy-on-write clone because a
    /// [`RankedListHandle`] was outstanding.  The writer-side cost of
    /// snapshot capture; zero in pure-synchronous use.
    pub fn cow_clones(&self) -> usize {
        self.cow_clones
    }

    /// An `O(1)` immutable image of the list at this instant.  The handle
    /// keeps observing exactly today's tuples no matter how the list is
    /// mutated afterwards; the first subsequent mutation pays one
    /// copy-on-write clone (see [`RankedList::cow_clones`]).
    pub fn share(&self) -> RankedListHandle {
        RankedListHandle {
            core: Arc::clone(&self.core),
        }
    }

    /// Number of elements in the list.
    pub fn len(&self) -> usize {
        self.core.order.len()
    }

    /// Returns `true` if the list is empty.
    pub fn is_empty(&self) -> bool {
        self.core.order.is_empty()
    }

    /// Writes `id`'s tuple by its known key: removes the entry stored under
    /// `(old, id)` if `old` is `Some`, then inserts `(score, id)` carrying
    /// `last_referenced`.  `O(log n)`; the caller vouches that `old` is the
    /// score the list holds for `id` (or that it holds none).
    pub fn write(
        &mut self,
        id: ElementId,
        old: Option<f64>,
        score: f64,
        last_referenced: Timestamp,
    ) {
        debug_assert!(score.is_finite(), "ranked list scores must be finite");
        let core = self.core_mut();
        if let Some(old) = old {
            let removed = core.order.remove(&ScoreKey {
                score: old,
                id,
                ts: Timestamp::ZERO,
            });
            debug_assert!(removed, "no entry for {id} at score {old}");
        }
        core.order.insert(ScoreKey {
            score,
            id,
            ts: last_referenced,
        });
    }

    /// Removes the entry stored under `(score, id)`, returning whether the
    /// list held it.  `O(log n)`.
    pub fn erase(&mut self, id: ElementId, score: f64) -> bool {
        self.core_mut().order.remove(&ScoreKey {
            score,
            id,
            ts: Timestamp::ZERO,
        })
    }

    /// The stored `(score, last-referenced time)` tuple for `id`.
    ///
    /// An inspection helper: it scans the list, `O(n)`.
    pub fn get(&self, id: ElementId) -> Option<(f64, Timestamp)> {
        let mut keys = self.core.order.iter();
        keys.find(|key| key.id == id).map(|key| (key.score, key.ts))
    }

    /// Inserts or updates an element's tuple, repositioning it in the order.
    /// Returns the tuple it replaced, if any.
    ///
    /// An inspection helper over [`RankedList::write`]: it finds the old key
    /// by a scan of the list, `O(n)`.
    pub fn upsert(
        &mut self,
        id: ElementId,
        score: f64,
        last_referenced: Timestamp,
    ) -> Option<(f64, Timestamp)> {
        let replaced = self.get(id);
        self.write(id, replaced.map(|(old, _)| old), score, last_referenced);
        replaced
    }

    /// Removes an element (no-op, and no copy-on-write clone, if absent).
    /// Returns the removed tuple.
    ///
    /// An inspection helper over [`RankedList::erase`]: it finds the key by
    /// a scan of the list, `O(n)`.
    pub fn remove(&mut self, id: ElementId) -> Option<(f64, Timestamp)> {
        let (score, ts) = self.get(id)?;
        self.erase(id, score);
        Some((score, ts))
    }

    /// The highest-scored entry (`RL_i.first` in the paper).
    pub fn first(&self) -> Option<(ElementId, f64, Timestamp)> {
        self.core.first()
    }

    /// Iterates over entries in descending score order.
    pub fn iter(&self) -> impl Iterator<Item = (ElementId, f64, Timestamp)> + '_ {
        self.core.iter()
    }

    /// Starts an ordered traversal (`first` + repeated `next`).
    pub fn cursor(&self) -> RankedListCursor<'_> {
        self.core.cursor()
    }

    /// Starts an ordered traversal over the *suffix* of entries whose score
    /// is at or below `high` (with the same comparison slack the
    /// floor/frontier checks use).  With `high` taken from a slide's
    /// [`Touch`](crate::Touch) entry, the suffix contains every tuple that
    /// slide upserted or removed in this list — touches are logged at
    /// `max(old, new)` score, so nothing the slide rewrote can sit above it.
    /// `O(log n)` to position, then `O(1)` per step.
    pub fn suffix_cursor(&self, high: f64) -> RankedListCursor<'_> {
        self.core.suffix_cursor(high)
    }
}

/// An immutable, `Arc`-shared image of one ranked list, detached from the
/// writer (see [`RankedList::share`]).  Readers traverse it exactly like the
/// live list; the writer advances underneath without ever invalidating it.
#[derive(Debug, Clone)]
pub struct RankedListHandle {
    core: Arc<ListCore>,
}

impl RankedListHandle {
    /// Number of elements in the captured image.
    pub fn len(&self) -> usize {
        self.core.order.len()
    }

    /// Returns `true` if the captured image is empty.
    pub fn is_empty(&self) -> bool {
        self.core.order.is_empty()
    }

    /// Returns `true` if the captured image still shares storage with the
    /// list it was taken from (i.e. the writer has not mutated it since).
    pub fn is_shared(&self) -> bool {
        Arc::strong_count(&self.core) > 1
    }

    /// Iterates over the captured entries in descending score order.
    pub fn iter(&self) -> impl Iterator<Item = (ElementId, f64, Timestamp)> + '_ {
        self.core.iter()
    }

    /// Starts an ordered traversal over the captured image.
    pub fn cursor(&self) -> RankedListCursor<'_> {
        self.core.cursor()
    }

    /// Starts an ordered traversal over the captured suffix of entries whose
    /// score is at or below `high` — see [`RankedList::suffix_cursor`].
    pub fn suffix_cursor(&self, high: f64) -> RankedListCursor<'_> {
        self.core.suffix_cursor(high)
    }
}

/// A traversal cursor over one ranked list, mirroring the paper's
/// `RL_i.first` / `RL_i.next` operations.
///
/// The cursor is positioned *on* an element: [`RankedListCursor::current`]
/// returns it, [`RankedListCursor::advance`] moves to the next one.  A new
/// cursor is positioned on the head of the list (or exhausted if the list is
/// empty).  It walks the list's B-tree range in place: opening one allocates
/// nothing, and a step is a direct call into the range.
pub struct RankedListCursor<'a> {
    range: btree_set::Range<'a, ScoreKey>,
    current: Option<(ElementId, f64, Timestamp)>,
}

impl std::fmt::Debug for RankedListCursor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RankedListCursor")
            .field("current", &self.current)
            .finish()
    }
}

impl<'a> RankedListCursor<'a> {
    fn new(mut range: btree_set::Range<'a, ScoreKey>) -> Self {
        let current = range.next().map(ScoreKey::tuple);
        RankedListCursor { range, current }
    }

    /// A cursor over no entries: a list a view does not hold reads as
    /// empty.
    pub fn empty() -> Self {
        RankedListCursor {
            range: btree_set::Range::default(),
            current: None,
        }
    }

    /// The element the cursor is currently positioned on, or `None` when the
    /// traversal is exhausted.
    pub fn current(&self) -> Option<(ElementId, f64, Timestamp)> {
        self.current
    }

    /// Moves to the next element and returns it.
    pub fn advance(&mut self) -> Option<(ElementId, f64, Timestamp)> {
        self.current = self.range.next().map(ScoreKey::tuple);
        self.current
    }
}

/// The full set of ranked lists, one per topic.
///
/// A list changes only through [`RankedLists::write`] /
/// [`RankedLists::erase`] (and the by-id helpers built on them), and each
/// change is also logged into a [`RankedDelta`] so incremental consumers
/// (standing queries in `ksir-continuous`) can tell how high in each list a
/// window slide reached.
/// Call [`RankedLists::take_delta`] to drain the log; see the
/// [`crate::delta`] module docs for the exact invariant the log guarantees.
#[derive(Debug)]
pub struct RankedLists {
    lists: Vec<RankedList>,
    delta: RankedDelta,
}

impl RankedLists {
    /// Creates `num_topics` empty lists.
    pub fn new(num_topics: usize) -> Self {
        RankedLists {
            lists: (0..num_topics).map(|_| RankedList::new()).collect(),
            delta: RankedDelta::new(num_topics),
        }
    }

    /// Number of topics.
    pub fn num_topics(&self) -> usize {
        self.lists.len()
    }

    /// The list for one topic (panics on an out-of-range topic id, which
    /// indicates an engine bug rather than user input).
    pub fn list(&self, topic: TopicId) -> &RankedList {
        &self.lists[topic.index()]
    }

    /// Writes `id`'s tuple in the given topic's list by its known key (see
    /// [`RankedList::write`]), logging a touch at the higher of the old and
    /// new scores.
    pub fn write(
        &mut self,
        topic: TopicId,
        id: ElementId,
        old: Option<f64>,
        score: f64,
        ts: Timestamp,
    ) {
        self.lists[topic.index()].write(id, old, score, ts);
        self.delta
            .record(topic, old.map_or(score, |old| old.max(score)));
    }

    /// Removes the entry stored under `(score, id)` from the given topic's
    /// list, logging a touch at the removed score.  Returns whether the list
    /// held it; a miss changes and logs nothing.
    pub fn erase(&mut self, topic: TopicId, id: ElementId, score: f64) -> bool {
        let removed = self.lists[topic.index()].erase(id, score);
        if removed {
            self.delta.record(topic, score);
        }
        removed
    }

    /// Upserts an element's tuple in the given topic's list, logging a touch
    /// at the higher of the old and new scores.
    ///
    /// An inspection helper over [`RankedLists::write`]: it finds the old
    /// key by a scan of the list, `O(n)`.
    pub fn upsert(&mut self, topic: TopicId, id: ElementId, score: f64, ts: Timestamp) {
        let old = self.lists[topic.index()].get(id).map(|(old, _)| old);
        self.write(topic, id, old, score, ts);
    }

    /// Removes an element from every list, logging a touch at each removed
    /// tuple's score.  Returns how many lists held it.
    ///
    /// An inspection helper over [`RankedLists::erase`]: it scans all `z`
    /// lists, `O(total entries)`.
    pub fn remove_everywhere(&mut self, id: ElementId) -> usize {
        (0..self.lists.len())
            .filter(|&i| {
                let topic = TopicId(i as u32);
                match self.lists[i].get(id) {
                    Some((score, _)) => self.erase(topic, id, score),
                    None => false,
                }
            })
            .count()
    }

    /// The touches accumulated since the last [`RankedLists::take_delta`] /
    /// [`RankedLists::clear_delta`].
    pub fn pending_delta(&self) -> &RankedDelta {
        &self.delta
    }

    /// Drains and returns the accumulated touch log, its dense topic index
    /// included, so the returned log answers lookups in `O(1)`.  The resident
    /// log starts empty and builds a fresh index at its next touch.
    pub fn take_delta(&mut self) -> RankedDelta {
        self.delta.drain()
    }

    /// Discards the accumulated touch log in place, reusing its buffers.
    /// Cheaper than [`RankedLists::take_delta`] when the touches are not
    /// needed (e.g. resetting the log at the start of a slide): a quiet log
    /// is cleared without any allocation.
    pub fn clear_delta(&mut self) {
        self.delta.clear();
    }

    /// Total number of tuples across all lists (an element appears once per
    /// topic with non-zero probability).
    pub fn total_entries(&self) -> usize {
        self.lists.iter().map(|l| l.len()).sum()
    }

    /// `O(num_topics)` immutable image of every list at this instant — the
    /// epoch-snapshot primitive.  Each handle is an `Arc` clone; the writer
    /// pays a copy-on-write clone per list it subsequently mutates while the
    /// handles are alive (see [`RankedLists::cow_clones`]).
    pub fn share_all(&self) -> Vec<RankedListHandle> {
        self.lists.iter().map(|l| l.share()).collect()
    }

    /// Total copy-on-write clones the lists have paid for outstanding
    /// snapshot handles.
    pub fn cow_clones(&self) -> usize {
        self.lists.iter().map(|l| l.cow_clones()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(i: u64) -> ElementId {
        ElementId(i)
    }

    #[test]
    fn upsert_orders_descending_by_score() {
        let mut rl = RankedList::new();
        rl.upsert(id(1), 0.2, Timestamp(1));
        rl.upsert(id(2), 0.9, Timestamp(2));
        rl.upsert(id(3), 0.5, Timestamp(3));
        let order: Vec<u64> = rl.iter().map(|(e, _, _)| e.raw()).collect();
        assert_eq!(order, vec![2, 3, 1]);
        assert_eq!(rl.first().unwrap().0, id(2));
        assert_eq!(rl.len(), 3);
    }

    #[test]
    fn ties_break_by_element_id() {
        let mut rl = RankedList::new();
        rl.upsert(id(5), 0.5, Timestamp(1));
        rl.upsert(id(2), 0.5, Timestamp(1));
        let order: Vec<u64> = rl.iter().map(|(e, _, _)| e.raw()).collect();
        assert_eq!(order, vec![2, 5]);
    }

    #[test]
    fn upsert_repositions_existing_elements() {
        let mut rl = RankedList::new();
        rl.upsert(id(1), 0.2, Timestamp(1));
        rl.upsert(id(2), 0.9, Timestamp(2));
        assert_eq!(rl.first().unwrap().0, id(2));
        // e1 gains score (e.g. it got referenced) and overtakes e2
        rl.upsert(id(1), 1.5, Timestamp(4));
        assert_eq!(rl.first().unwrap(), (id(1), 1.5, Timestamp(4)));
        assert_eq!(rl.len(), 2, "upsert must not duplicate");
        assert_eq!(rl.get(id(1)), Some((1.5, Timestamp(4))));
    }

    #[test]
    fn remove_works_and_is_idempotent() {
        let mut rl = RankedList::new();
        rl.upsert(id(1), 0.3, Timestamp(1));
        assert_eq!(rl.remove(id(1)), Some((0.3, Timestamp(1))));
        assert_eq!(rl.remove(id(1)), None);
        assert!(rl.is_empty());
        assert_eq!(rl.first(), None);
    }

    #[test]
    fn cursor_walks_first_then_next() {
        let mut rl = RankedList::new();
        rl.upsert(id(1), 0.65, Timestamp(8));
        rl.upsert(id(2), 0.48, Timestamp(8));
        rl.upsert(id(3), 0.17, Timestamp(8));
        let mut c = rl.cursor();
        assert_eq!(c.current().unwrap().0, id(1));
        assert_eq!(c.current().unwrap().0, id(1), "current is stable");
        assert_eq!(c.advance().unwrap().0, id(2));
        assert_eq!(c.advance().unwrap().0, id(3));
        assert_eq!(c.advance(), None);
        assert_eq!(c.current(), None);
    }

    #[test]
    fn traversal_reports_the_current_last_referenced_time() {
        // t_e rides in the ordered entry: a re-reference that moves only the
        // timestamp (same score) must show up in every traversal form.
        let mut rl = RankedList::new();
        rl.upsert(id(1), 0.65, Timestamp(3));
        rl.upsert(id(2), 0.48, Timestamp(4));
        rl.upsert(id(1), 0.65, Timestamp(9));
        assert_eq!(rl.len(), 2);
        assert_eq!(rl.first(), Some((id(1), 0.65, Timestamp(9))));
        let mut c = rl.cursor();
        assert_eq!(c.current(), Some((id(1), 0.65, Timestamp(9))));
        assert_eq!(c.advance(), Some((id(2), 0.48, Timestamp(4))));
        for (e, score, ts) in rl.iter().chain(rl.share().iter()) {
            assert_eq!(rl.get(e), Some((score, ts)));
        }
        // Removal finds the entry whatever timestamp it carries.
        assert_eq!(rl.remove(id(1)), Some((0.65, Timestamp(9))));
        assert_eq!(rl.iter().count(), 1);
    }

    #[test]
    fn cursor_on_empty_list() {
        let rl = RankedList::new();
        let mut c = rl.cursor();
        assert_eq!(c.current(), None);
        assert_eq!(c.advance(), None);
    }

    #[test]
    fn ranked_lists_per_topic_and_remove_everywhere() {
        let mut rls = RankedLists::new(3);
        assert_eq!(rls.num_topics(), 3);
        rls.upsert(TopicId(0), id(1), 0.65, Timestamp(8));
        rls.upsert(TopicId(1), id(1), 0.06, Timestamp(8));
        rls.upsert(TopicId(1), id(2), 0.56, Timestamp(5));
        assert_eq!(rls.total_entries(), 3);
        assert_eq!(rls.list(TopicId(0)).len(), 1);
        assert_eq!(rls.list(TopicId(2)).len(), 0);
        assert_eq!(rls.remove_everywhere(id(1)), 2);
        assert_eq!(rls.total_entries(), 1);
        assert_eq!(rls.remove_everywhere(id(1)), 0);
    }

    #[test]
    fn upsert_returns_the_replaced_tuple() {
        let mut list = RankedList::new();
        assert_eq!(list.upsert(id(1), 0.4, Timestamp(1)), None);
        assert_eq!(
            list.upsert(id(1), 0.2, Timestamp(3)),
            Some((0.4, Timestamp(1)))
        );
        assert_eq!(list.get(id(1)), Some((0.2, Timestamp(3))));
        assert_eq!(list.len(), 1);
    }

    #[test]
    fn touch_log_tracks_upserts_adjustments_and_removals() {
        let mut rls = RankedLists::new(3);
        assert!(rls.pending_delta().is_empty());
        // fresh insert touches at the new score
        rls.upsert(TopicId(0), id(1), 0.4, Timestamp(1));
        assert_eq!(rls.pending_delta().touch(TopicId(0)).unwrap().high, 0.4);
        // a downward adjustment touches at the *old* (higher) score
        rls.upsert(TopicId(0), id(1), 0.1, Timestamp(2));
        let t = rls.pending_delta().touch(TopicId(0)).unwrap();
        assert_eq!(t.high, 0.4);
        assert_eq!(t.count, 2);
        // an upward adjustment touches at the new score
        rls.upsert(TopicId(0), id(1), 0.9, Timestamp(3));
        assert_eq!(rls.pending_delta().touch(TopicId(0)).unwrap().high, 0.9);
        // untouched topics stay clean
        assert!(!rls.pending_delta().touched(TopicId(1)));
        // draining resets the log
        let drained = rls.take_delta();
        assert_eq!(drained.touch(TopicId(0)).unwrap().count, 3);
        assert!(rls.pending_delta().is_empty());
        // removal touches every list that held the element, at the old scores
        rls.upsert(TopicId(1), id(1), 0.7, Timestamp(4));
        rls.take_delta();
        rls.remove_everywhere(id(1));
        let d = rls.take_delta();
        assert_eq!(d.touch(TopicId(0)).unwrap().high, 0.9);
        assert_eq!(d.touch(TopicId(1)).unwrap().high, 0.7);
        assert!(!d.touched(TopicId(2)));
    }

    #[test]
    fn targeted_remove_touches_only_the_list_that_held_the_element() {
        let mut rls = RankedLists::new(3);
        rls.write(TopicId(0), id(1), None, 0.9, Timestamp(1));
        rls.write(TopicId(1), id(1), None, 0.7, Timestamp(1));
        rls.take_delta();
        assert!(rls.erase(TopicId(1), id(1), 0.7));
        // No such key: nothing removed, nothing logged.
        assert!(!rls.erase(TopicId(2), id(1), 0.7));
        assert!(!rls.erase(TopicId(1), id(1), 0.7));
        assert!(!rls.erase(TopicId(0), id(1), 0.5), "the score is the key");
        let d = rls.take_delta();
        assert_eq!(d.touches().len(), 1);
        assert_eq!(d.touch(TopicId(1)).unwrap().high, 0.7);
        assert_eq!(rls.list(TopicId(0)).get(id(1)), Some((0.9, Timestamp(1))));
        assert_eq!(rls.total_entries(), 1);
    }

    #[test]
    fn keyed_write_moves_the_entry_and_touches_at_the_higher_score() {
        let mut rls = RankedLists::new(2);
        rls.write(TopicId(0), id(1), None, 0.4, Timestamp(1));
        rls.write(TopicId(0), id(2), None, 0.6, Timestamp(1));
        rls.take_delta();
        // Downward: the touch sits at the old score.
        rls.write(TopicId(0), id(2), Some(0.6), 0.1, Timestamp(2));
        assert_eq!(rls.pending_delta().touch(TopicId(0)).unwrap().high, 0.6);
        let order: Vec<_> = rls.list(TopicId(0)).iter().collect();
        assert_eq!(
            order,
            vec![(id(1), 0.4, Timestamp(1)), (id(2), 0.1, Timestamp(2))]
        );
        // A timestamp-only rewrite keeps the position and refreshes t_e.
        rls.write(TopicId(0), id(1), Some(0.4), 0.4, Timestamp(5));
        assert_eq!(
            rls.list(TopicId(0)).first(),
            Some((id(1), 0.4, Timestamp(5)))
        );
        assert_eq!(rls.list(TopicId(0)).len(), 2);
        assert!(!rls.pending_delta().touched(TopicId(1)));
    }

    #[test]
    fn shared_handle_freezes_the_list_image() {
        let mut rl = RankedList::new();
        rl.upsert(id(1), 0.65, Timestamp(8));
        rl.upsert(id(2), 0.48, Timestamp(8));
        let snap = rl.share();
        assert!(snap.is_shared());
        assert_eq!(rl.cow_clones(), 0, "capture alone costs nothing");
        // Mutations after the capture are invisible to the handle...
        rl.upsert(id(3), 0.9, Timestamp(9));
        rl.remove(id(1));
        assert_eq!(rl.cow_clones(), 1, "first mutation pays the one clone");
        assert_eq!(snap.len(), 2);
        let frozen: Vec<_> = snap.iter().collect();
        assert_eq!(
            frozen,
            vec![(id(1), 0.65, Timestamp(8)), (id(2), 0.48, Timestamp(8))]
        );
        // ...and the live list sees only its own state.
        assert_eq!(rl.len(), 2);
        assert_eq!(rl.first().unwrap().0, id(3));
        assert!(!snap.is_shared(), "writer moved on to its own core");
        // A cursor over the handle walks the frozen image.
        let mut c = snap.cursor();
        assert_eq!(c.current().unwrap().0, id(1));
        assert_eq!(c.advance().unwrap().0, id(2));
        assert_eq!(c.advance(), None);
    }

    #[test]
    fn removing_an_absent_element_pays_no_cow_clone() {
        let mut rl = RankedList::new();
        rl.upsert(id(1), 0.5, Timestamp(1));
        let _snap = rl.share();
        assert_eq!(rl.remove(id(99)), None);
        assert_eq!(rl.cow_clones(), 0, "no-op removal must not clone");
    }

    #[test]
    fn suffix_cursor_starts_at_the_bound_with_slack() {
        let mut rl = RankedList::new();
        rl.upsert(id(1), 0.9, Timestamp(1));
        rl.upsert(id(2), 0.5 + 1e-13, Timestamp(2)); // within slack of the bound
        rl.upsert(id(3), 0.5, Timestamp(3));
        rl.upsert(id(4), 0.1, Timestamp(4));
        let walk = |mut c: RankedListCursor<'_>| {
            let mut seen = Vec::new();
            while let Some((e, _, _)) = c.current() {
                seen.push(e.raw());
                c.advance();
            }
            seen
        };
        assert_eq!(walk(rl.suffix_cursor(0.5)), vec![2, 3, 4]);
        assert_eq!(walk(rl.suffix_cursor(2.0)), vec![1, 2, 3, 4]);
        assert_eq!(walk(rl.suffix_cursor(0.0)), Vec::<u64>::new());
        // The handle agrees with the live list.
        let snap = rl.share();
        assert_eq!(walk(snap.suffix_cursor(0.5)), vec![2, 3, 4]);
        assert_eq!(walk(snap.suffix_cursor(0.05)), Vec::<u64>::new());
    }

    #[test]
    fn share_all_captures_every_topic_and_counts_cow() {
        let mut rls = RankedLists::new(3);
        rls.upsert(TopicId(0), id(1), 0.6, Timestamp(1));
        rls.upsert(TopicId(1), id(2), 0.4, Timestamp(1));
        let handles = rls.share_all();
        assert_eq!(handles.len(), 3);
        assert_eq!(handles[0].len(), 1);
        assert_eq!(handles[2].len(), 0);
        // Touch only topic 0: exactly one list pays a clone.
        rls.upsert(TopicId(0), id(3), 0.9, Timestamp(2));
        assert_eq!(rls.cow_clones(), 1);
        assert_eq!(handles[0].len(), 1, "handle still frozen");
        drop(handles);
        rls.upsert(TopicId(0), id(4), 0.1, Timestamp(3));
        assert_eq!(rls.cow_clones(), 1, "no live handle, no further clone");
    }

    #[test]
    fn negative_and_zero_scores_are_ordered_correctly() {
        let mut rl = RankedList::new();
        rl.upsert(id(1), 0.0, Timestamp(1));
        rl.upsert(id(2), -0.5, Timestamp(1));
        rl.upsert(id(3), 0.5, Timestamp(1));
        let order: Vec<u64> = rl.iter().map(|(e, _, _)| e.raw()).collect();
        assert_eq!(order, vec![3, 1, 2]);
    }

    #[test]
    fn large_list_stays_consistent() {
        let mut rl = RankedList::new();
        for i in 0..1000u64 {
            rl.upsert(id(i), (i % 97) as f64 / 97.0, Timestamp(i));
        }
        assert_eq!(rl.len(), 1000);
        // every adjacent pair in traversal is non-increasing in score
        let scores: Vec<f64> = rl.iter().map(|(_, s, _)| s).collect();
        assert!(scores.windows(2).all(|w| w[0] >= w[1]));
        // update half of them and re-check
        for i in (0..1000u64).step_by(2) {
            rl.upsert(id(i), 2.0 + i as f64, Timestamp(i));
        }
        assert_eq!(rl.len(), 1000);
        let scores: Vec<f64> = rl.iter().map(|(_, s, _)| s).collect();
        assert!(scores.windows(2).all(|w| w[0] >= w[1]));
    }
}
