//! The engine's one per-element topic store.
//!
//! An [`ElementRow`] holds what the index write and every scoring pass need
//! of one active element's topics: its sparse distribution `p_i(e)` — the
//! paper's elements are about fewer than two topics on average — and, per
//! support topic, the word-weight column `σ_i(w, e)` in document order and
//! its sum, the semantic score `R_i(e)`.  The engine keeps one row per
//! active element in [`ElementRows`], indexed by the element's window
//! [`Slot`]; the scorer, the query evaluator and epoch snapshots all read
//! `p_i(e)` from it, and a query's profile copies its `σ` columns instead of
//! weighing the document again.
//!
//! # Why the `σ` columns sit in the archive-shared row
//!
//! `σ_i(w, e) = γ(w, e) · h(p_i(w)·p_i(e))` depends on the document, `p_i(e)`
//! and the topic-word table only, none of which change while the element
//! lives, and admission computes every term to sum `R_i(e)`.  Keeping them
//! takes the `ln` per word × topic out of every profile.  Where the columns
//! live was decided by measurement (`examples/benchmark`, alternating
//! parent/change pairs, 2 vCPUs; the shipped layout as built, the other
//! three as scratch prototypes; ARCHITECTURE §8, "What a profile reads"):
//!
//! | variant | `ingest_dense` MTTD / MTTS p50 | `peak_rss_mb` |
//! |---|---|---|
//! | columns in the row, flat documents (shipped) | −29.9 / −27.6 % (seed 7), −30.7 / −28.2 % (seed 31) | −0.4 to −2.4 %; `standing_distinct` +0.3 % at seed 29 |
//! | columns in the row, `BTreeMap` documents | (`adhoc_wide` −19.6 / −18.7 %) | `adhoc_wide` +28.5 %: the unbounded archive keeps every row |
//! | columns filled on the first profile (`OnceLock` per active slot) | −8.7 / +6.7 % | `ingest_dense` +15.9 %, and a pointer hop more per row read |
//! | columns stripped at expiry, rebuilt at resurrection | −35 / −32 % | −5.6 to −16 %, but `adhoc_wide` and `standing_shared_async` slide +12 % |
//!
//! So the row keeps them for life, and the archive, which shares the row's
//! `Arc`, keeps them too; a resurrection puts the same row back.  The
//! memory is paid for by [`Document`]'s flat run, which freed more than the
//! columns take.

use std::sync::Arc;

use crate::stream::Slot;
use ksir_types::{Document, TopicId, TopicVector, TopicWordDistribution};

use crate::scorer::word_weight;

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
/// word-weight column `σ_i(w, e)` and semantic score `R_i(e)`.
///
/// Both depend only on the document, `p_i(e)` and the topic-word
/// distribution, none of which change while the element lives, so they are
/// computed once, here; a ranked-list refresh recomputes only the influence
/// half, and a query's profile copies the columns.
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
    /// `σ_i(w, e)`, topic-major: the `j`-th support topic owns the `j`-th
    /// `|V_e|`-long stretch, in document (ascending-word) order.
    weights: Box<[f64]>,
}

impl ElementRow {
    /// Builds the row of an element with document `doc` from its topic
    /// support `(θ_i, p_i(e))`, given in ascending topic order.  Entries that
    /// are not `> 0` are dropped.
    ///
    /// Each `R_i(e)` is the sum of its `σ` column, in document order — the
    /// operands and the order of [`Scorer::semantic_element`], so the same
    /// bits.
    ///
    /// # Panics
    ///
    /// If the support is not strictly ascending by topic.
    ///
    /// [`Scorer::semantic_element`]: crate::Scorer::semantic_element
    pub fn new<D: TopicWordDistribution>(
        phi: &D,
        doc: &Document,
        mut support: Vec<(TopicId, f64)>,
    ) -> Self {
        assert!(
            support.windows(2).all(|pair| pair[0].0 < pair[1].0),
            "a row's support must be strictly ascending by topic"
        );
        // Filtered before the map, so the row's slices are allocated at their
        // exact length: the archive keeps a row per element ever ingested,
        // and shrinking a larger allocation leaves a gap beside each one.
        support.retain(|&(_, p)| p > 0.0);
        let mut weights = Vec::with_capacity(support.len() * doc.distinct_words());
        let support = support
            .into_iter()
            .map(|(topic, p)| {
                let start = weights.len();
                weights.extend(
                    doc.iter()
                        .map(|(w, freq)| word_weight(freq, phi.word_prob(topic, w), p)),
                );
                (topic, p, weights[start..].iter().sum())
            })
            .collect();
        ElementRow {
            support,
            weights: weights.into_boxed_slice(),
        }
    }

    /// `p_i(e)`, or 0 off the support: a binary search, so a row as wide as
    /// the topic model costs `O(log z)`, not `O(z)`.
    pub fn prob(&self, topic: TopicId) -> f64 {
        match self.position(topic) {
            Some(j) => self.support[j].1,
            None => 0.0,
        }
    }

    /// Where `topic` sits in the support, if it is there.
    fn position(&self, topic: TopicId) -> Option<usize> {
        self.support
            .binary_search_by_key(&topic, |&(t, _, _)| t)
            .ok()
    }

    /// `(θ_i, p_i(e), R_i(e))` per support topic, ascending by topic.
    pub(crate) fn entries(&self) -> &[(TopicId, f64, f64)] {
        &self.support
    }

    /// The `σ_i(w, e)` column of `topic`, one weight per distinct word in
    /// document order; empty off the support.
    pub(crate) fn weights(&self, topic: TopicId) -> &[f64] {
        match self.position(topic) {
            Some(j) => {
                let n = self.weights.len() / self.support.len();
                &self.weights[j * n..(j + 1) * n]
            }
            None => &[],
        }
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

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use crate::stream::{ActiveWindow, WindowConfig};
    use ksir_types::{DenseTopicWordTable, ElementId, SocialElement, Timestamp, TopicId, WordId};

    use super::*;
    use crate::config::ScoringConfig;
    use crate::Scorer;

    #[test]
    fn each_column_entry_and_sum_repeats_the_reference_bits() {
        // Skewed rows, so the weights differ per word and per topic.
        let phi = DenseTopicWordTable::from_rows(vec![
            vec![0.5, 0.25, 0.125, 0.0625, 0.0625],
            vec![0.03, 0.07, 0.2, 0.3, 0.4],
            vec![0.2; 5],
        ])
        .unwrap();
        let doc = Document::from_tokens([3, 1, 1, 4, 0, 3, 3].into_iter().map(WordId));
        let support = vec![(TopicId(0), 0.15), (TopicId(1), 0.0), (TopicId(2), 0.85)];
        let row = ElementRow::new(&phi, &doc, support);
        assert_eq!(row.entries().len(), 2, "a zero entry is dropped");
        assert!(row.weights(TopicId(1)).is_empty());

        let mut window = ActiveWindow::new(WindowConfig::new(10, 1).unwrap());
        let element = SocialElement::original(ElementId(9), Timestamp(1), doc.clone());
        window.insert(element).unwrap();
        let slot = window.slot(ElementId(9)).unwrap();
        let mut rows = ElementRows::new();
        rows.insert(slot, Arc::new(row.clone()));
        let scorer = Scorer::new(&phi, ScoringConfig::default(), &window, &rows);

        for &(topic, p, semantic) in row.entries() {
            let column = row.weights(topic);
            assert_eq!(column.len(), doc.distinct_words());
            for (&weight, (w, freq)) in column.iter().zip(doc.iter()) {
                let expected = word_weight(freq, phi.word_prob(topic, w), p);
                assert_eq!(
                    weight.to_bits(),
                    expected.to_bits(),
                    "σ of {w:?} on {topic:?}"
                );
                assert_eq!(
                    weight.to_bits(),
                    scorer.word_weight_of(topic, ElementId(9), w).to_bits()
                );
            }
            let reference = scorer.semantic_element(topic, ElementId(9));
            assert_eq!(semantic.to_bits(), reference.to_bits(), "R of {topic:?}");
        }
    }
}
