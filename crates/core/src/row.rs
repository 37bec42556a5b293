//! The engine's one per-element topic store.
//!
//! An [`ElementRow`] holds what the index write and every scoring pass need
//! of one active element's topics: its sparse distribution `p_i(e)` — the
//! paper's elements are about fewer than two topics on average — and, per
//! support topic, the semantic score `R_i(e)`.  The engine keeps one row per
//! active element in [`ElementRows`], indexed by the element's window
//! [`Slot`]; the scorer, the query evaluator and epoch snapshots all read
//! `p_i(e)` from it.

use std::sync::Arc;

use ksir_stream::Slot;
use ksir_types::{Document, TopicId, TopicVector, TopicWordDistribution};

use crate::scorer::semantic_score;

/// One row per active element, indexed by the element's slot in the active
/// window — a store parallel to the window's slab, which the engine keeps
/// behind a copy-on-write `Arc` and epoch snapshots share.  Reading a row is
/// an index, never a hash probe.
#[derive(Debug, Clone, Default)]
pub struct ElementRows {
    rows: Vec<Option<Arc<ElementRow>>>,
    len: usize,
}

impl ElementRows {
    /// An empty store.
    pub fn new() -> Self {
        ElementRows::default()
    }

    /// Number of rows held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no row is held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The row in `slot`, if any.
    pub fn get(&self, slot: Slot) -> Option<&ElementRow> {
        self.rows.get(slot.index()).and_then(Option::as_deref)
    }

    /// `p_i(e)` of the element in `slot`: 0 for an empty slot or off the
    /// row's support.
    pub fn prob(&self, slot: Slot, topic: TopicId) -> f64 {
        self.get(slot).map_or(0.0, |row| row.prob(topic))
    }

    /// Puts `row` in `slot`, replacing any row there.
    pub fn insert(&mut self, slot: Slot, row: Arc<ElementRow>) {
        if slot.index() >= self.rows.len() {
            self.rows.resize(slot.index() + 1, None);
        }
        if self.rows[slot.index()].replace(row).is_none() {
            self.len += 1;
        }
    }

    /// Empties `slot`, returning its row.
    pub fn remove(&mut self, slot: Slot) -> Option<Arc<ElementRow>> {
        let old = self.rows.get_mut(slot.index()).and_then(Option::take);
        if old.is_some() {
            self.len -= 1;
        }
        old
    }
}

/// One element's sparse topic distribution and, per support topic, its
/// semantic score `R_i(e)`.
///
/// `R_i(e)` depends only on the document, `p_i(e)` and the topic-word
/// distribution, none of which change while the element lives, so it is
/// computed once, here; a ranked-list refresh recomputes only the influence
/// half.
///
/// # Example
///
/// ```
/// use ksir_core::ElementRow;
/// use ksir_types::{DenseTopicWordTable, Document, TopicId, WordId};
///
/// let phi = DenseTopicWordTable::uniform(3, 4);
/// let doc = Document::from_tokens([WordId(0), WordId(2)]);
/// let row = ElementRow::new(&phi, &doc, vec![(TopicId(0), 0.25), (TopicId(2), 0.75)]);
/// assert_eq!(row.prob(TopicId(2)), 0.75);
/// assert_eq!(row.prob(TopicId(1)), 0.0); // off the support
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ElementRow {
    /// `(θ_i, p_i(e), R_i(e))` for every topic with `p_i(e) > 0`, ascending
    /// by topic — the lists that hold the element's tuples.
    support: Box<[(TopicId, f64, f64)]>,
}

impl ElementRow {
    /// Builds the row of an element with document `doc` from its topic
    /// support `(θ_i, p_i(e))`, given in ascending topic order.  Entries that
    /// are not `> 0` are dropped.
    ///
    /// # Panics
    ///
    /// If the support is not strictly ascending by topic.
    pub fn new<D: TopicWordDistribution>(
        phi: &D,
        doc: &Document,
        mut support: Vec<(TopicId, f64)>,
    ) -> Self {
        assert!(
            support.windows(2).all(|pair| pair[0].0 < pair[1].0),
            "a row's support must be strictly ascending by topic"
        );
        // Filtered before the map, so the row's slice is allocated at its
        // exact length: the archive keeps a row per element ever ingested,
        // and shrinking a larger allocation leaves a gap beside each one.
        support.retain(|&(_, p)| p > 0.0);
        ElementRow {
            support: support
                .into_iter()
                .map(|(topic, p)| (topic, p, semantic_score(phi, topic, doc, p)))
                .collect(),
        }
    }

    /// `p_i(e)`, or 0 off the support: a binary search, so a row as wide as
    /// the topic model costs `O(log z)`, not `O(z)`.
    pub fn prob(&self, topic: TopicId) -> f64 {
        match self.support.binary_search_by_key(&topic, |&(t, _, _)| t) {
            Ok(i) => self.support[i].1,
            Err(_) => 0.0,
        }
    }

    /// `(θ_i, p_i(e), R_i(e))` per support topic, ascending by topic.
    pub(crate) fn entries(&self) -> &[(TopicId, f64, f64)] {
        &self.support
    }

    /// The dense `num_topics`-wide distribution the row stores sparsely.
    pub(crate) fn topic_vector(&self, num_topics: usize) -> TopicVector {
        let mut tv = TopicVector::zeros(num_topics);
        for &(topic, p, _) in self.support.iter() {
            tv.set(topic, p);
        }
        tv
    }
}
