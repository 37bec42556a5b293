//! The engine's one per-element topic store.
//!
//! An [`ElementRow`] holds what the index write and every scoring pass need
//! of one active element's topics: its sparse distribution `p_i(e)` — the
//! paper's elements are about fewer than two topics on average — and, per
//! support topic, the semantic score `R_i(e)`.  The engine keeps one row per
//! active element in an [`ElementRows`] map; the scorer, the query evaluator
//! and epoch snapshots all read `p_i(e)` from it.

use std::collections::HashMap;
use std::sync::Arc;

use ksir_types::{Document, ElementId, TopicId, TopicVector, TopicWordDistribution};

use crate::scorer::semantic_score;

/// One row per active element — the map the engine keeps behind a
/// copy-on-write `Arc` and epoch snapshots share.
pub type ElementRows = HashMap<ElementId, Arc<ElementRow>>;

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
