//! The representativeness scoring function of §3.2.
//!
//! This module implements the paper's formulas *directly* (no incremental
//! state): topic-specific semantic scores `R_i`, topic-specific time-critical
//! influence scores `I_{i,t}`, the per-topic combination `f_i`, and the
//! query-weighted score `f(S, x)`.  Query processing uses the incremental
//! [`crate::evaluator`] on top of the same primitives; the direct
//! implementation here is the reference that tests (including the paper's
//! worked examples) and the brute-force optimum check verify against.

use std::collections::BTreeMap;

use ksir_stream::{ActiveWindow, Slot};
use ksir_types::{Document, ElementId, QueryVector, TopicId, TopicWordDistribution, WordId};

use crate::config::ScoringConfig;
use crate::row::ElementRows;

/// The entropy weight `h(p) = -p·ln p`, with `h(0) = 0`.
///
/// This is the information-entropy contribution of observing a word whose
/// generation probability is `p`; the paper (following Tam et al. and Zhuang
/// et al.) uses it to weight words so that moderately rare, topic-bearing
/// words count more than both ubiquitous and vanishingly rare ones.
#[inline]
pub fn entropy_weight(p: f64) -> f64 {
    if p <= 0.0 {
        0.0
    } else {
        -p * p.ln()
    }
}

/// The word weight `σ_i(w, e) = γ(w,e) · h(p_i(w)·p_i(e))`.
#[inline]
pub fn word_weight(frequency: u32, p_word: f64, p_elem: f64) -> f64 {
    frequency as f64 * entropy_weight(p_word * p_elem)
}

/// The influence-propagation probability `p_i(e' ⤳ e) = p_i(e')·p_i(e)`.
#[inline]
pub fn propagation_prob(p_parent: f64, p_child: f64) -> f64 {
    p_parent * p_child
}

/// `R_i` of a document whose element has probability `p_elem` on `topic`:
/// the sum of its distinct words' weights, in document order.
pub(crate) fn semantic_score<D: TopicWordDistribution>(
    phi: &D,
    topic: TopicId,
    doc: &Document,
    p_elem: f64,
) -> f64 {
    if p_elem <= 0.0 {
        return 0.0;
    }
    doc.iter()
        .map(|(w, freq)| word_weight(freq, phi.word_prob(topic, w), p_elem))
        .sum()
}

/// Reference implementation of the representativeness score over the current
/// active window.
///
/// The scorer borrows the engine state it needs: the topic-word distribution
/// `p_i(w)`, the per-element rows holding `p_i(e)`, the active window (for
/// documents and the reverse-reference sets `I_t(e)`), and the scoring
/// configuration `(λ, η)`.
#[derive(Debug)]
pub struct Scorer<'a, D> {
    phi: &'a D,
    config: ScoringConfig,
    window: &'a ActiveWindow,
    rows: &'a ElementRows,
}

// Manual impls: the scorer only holds shared references, so it is copyable
// regardless of whether `D` itself is (the derive would wrongly require
// `D: Copy`).
impl<D> Clone for Scorer<'_, D> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<D> Copy for Scorer<'_, D> {}

impl<'a, D: TopicWordDistribution> Scorer<'a, D> {
    /// Creates a scorer over the given state.
    pub fn new(
        phi: &'a D,
        config: ScoringConfig,
        window: &'a ActiveWindow,
        rows: &'a ElementRows,
    ) -> Self {
        Scorer {
            phi,
            config,
            window,
            rows,
        }
    }

    /// The scoring configuration in use.
    pub fn config(&self) -> ScoringConfig {
        self.config
    }

    /// The active window the scorer reads documents and children from.
    pub(crate) fn window(&self) -> &'a ActiveWindow {
        self.window
    }

    /// The per-element rows the scorer reads `p_i(e)` from.
    pub(crate) fn rows(&self) -> &'a ElementRows {
        self.rows
    }

    /// `p_i(e)` for an active element (0 for unknown elements or topics):
    /// one probe of the window's id index, then an index into the rows.
    pub fn element_topic_prob(&self, id: ElementId, topic: TopicId) -> f64 {
        self.window
            .slot(id)
            .map_or(0.0, |slot| self.rows.prob(slot, topic))
    }

    /// The document and `p_i(e)` of an active element.
    fn element_on(&self, topic: TopicId, id: ElementId) -> Option<(&'a Document, f64)> {
        let slot = self.window.slot(id)?;
        let element = self.window.element_at(slot)?;
        Some((&element.doc, self.rows.prob(slot, topic)))
    }

    /// `σ_i(w, e)` for a word of an active element.
    pub fn word_weight_of(&self, topic: TopicId, id: ElementId, word: WordId) -> f64 {
        let Some((doc, p_elem)) = self.element_on(topic, id) else {
            return 0.0;
        };
        word_weight(doc.frequency(word), self.phi.word_prob(topic, word), p_elem)
    }

    /// The semantic score `R_i(e)` of a single element: the sum of the weights
    /// of its distinct words on topic `θ_i`.
    pub fn semantic_element(&self, topic: TopicId, id: ElementId) -> f64 {
        let Some((doc, p_elem)) = self.element_on(topic, id) else {
            return 0.0;
        };
        semantic_score(self.phi, topic, doc, p_elem)
    }

    /// The semantic score `R_i(S)` of a set (Equation 3): each distinct word of
    /// the set contributes the *maximum* of its weights across the members.
    /// The weights are summed in word order, so repeated calls return the
    /// same bits.
    pub fn semantic_set(&self, topic: TopicId, ids: &[ElementId]) -> f64 {
        let mut best: BTreeMap<WordId, f64> = BTreeMap::new();
        for &id in ids {
            let Some((doc, p_elem)) = self.element_on(topic, id) else {
                continue;
            };
            for (w, freq) in doc.iter() {
                let weight = word_weight(freq, self.phi.word_prob(topic, w), p_elem);
                let entry = best.entry(w).or_insert(0.0);
                if weight > *entry {
                    *entry = weight;
                }
            }
        }
        best.values().sum()
    }

    /// The influence score `I_{i,t}(e)` of a single element: the expected
    /// number of window elements it influences on topic `θ_i`.
    pub fn influence_element(&self, topic: TopicId, id: ElementId) -> f64 {
        self.window
            .slot(id)
            .map_or(0.0, |slot| self.influence_at(topic, slot))
    }

    /// [`Scorer::influence_element`] of the element in `slot`: the walk over
    /// `I_t(e)` reads each child's row by its slot.
    pub(crate) fn influence_at(&self, topic: TopicId, slot: Slot) -> f64 {
        let p_parent = self.rows.prob(slot, topic);
        if p_parent <= 0.0 {
            return 0.0;
        }
        self.window
            .influenced_slots(slot)
            .map(|child| propagation_prob(p_parent, self.rows.prob(child, topic)))
            .sum()
    }

    /// The influence score `I_{i,t}(S)` of a set (Equation 4): probabilistic
    /// coverage of the window elements influenced by at least one member.
    pub fn influence_set(&self, topic: TopicId, ids: &[ElementId]) -> f64 {
        // For each influenced element e, the survival probability
        // Π_{e' ∈ S ∩ e.ref} (1 - p_i(e' ⤳ e)); the coverage is 1 - survival,
        // summed in slot order so repeated calls return the same bits.
        let mut survival: BTreeMap<Slot, f64> = BTreeMap::new();
        for &id in ids {
            let Some(slot) = self.window.slot(id) else {
                continue;
            };
            let p_parent = self.rows.prob(slot, topic);
            for child in self.window.influenced_slots(slot) {
                let p = propagation_prob(p_parent, self.rows.prob(child, topic));
                let s = survival.entry(child).or_insert(1.0);
                *s *= 1.0 - p;
            }
        }
        survival.values().map(|s| 1.0 - s).sum()
    }

    /// The per-topic score `f_i({e})` of a single element — the ranked-list
    /// tuple score `δ_i(e)` of Algorithm 1.
    pub fn topicwise_element(&self, topic: TopicId, id: ElementId) -> f64 {
        self.config.combine(
            self.semantic_element(topic, id),
            self.influence_element(topic, id),
        )
    }

    /// The per-topic score `f_i(S)` of a set (Equation 2).
    pub fn topicwise_set(&self, topic: TopicId, ids: &[ElementId]) -> f64 {
        self.config.combine(
            self.semantic_set(topic, ids),
            self.influence_set(topic, ids),
        )
    }

    /// The singleton score `δ(e, x) = f({e}, x)` w.r.t. a query vector.
    pub fn delta(&self, query: &QueryVector, id: ElementId) -> f64 {
        query
            .support()
            .into_iter()
            .map(|(topic, weight)| weight * self.topicwise_element(topic, id))
            .sum()
    }

    /// The full representativeness score `f(S, x)` (Equation 1).
    pub fn set_score(&self, query: &QueryVector, ids: &[ElementId]) -> f64 {
        query
            .support()
            .into_iter()
            .map(|(topic, weight)| weight * self.topicwise_set(topic, ids))
            .sum()
    }

    /// The marginal gain `Δ(e | S) = f(S ∪ {e}, x) − f(S, x)`, computed from
    /// scratch.  Query processing uses the incremental
    /// [`crate::evaluator::CandidateState`] instead; this method exists for
    /// verification and tests.
    pub fn marginal_gain(&self, query: &QueryVector, set: &[ElementId], id: ElementId) -> f64 {
        if set.contains(&id) {
            return 0.0;
        }
        let mut extended = Vec::with_capacity(set.len() + 1);
        extended.extend_from_slice(set);
        extended.push(id);
        self.set_score(query, &extended) - self.set_score(query, set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entropy_weight_shape() {
        assert_eq!(entropy_weight(0.0), 0.0);
        assert_eq!(entropy_weight(1.0), 0.0);
        assert!(entropy_weight(0.5) > 0.0);
        // maximum of -p ln p is at p = 1/e
        let peak = entropy_weight(1.0 / std::f64::consts::E);
        assert!(peak > entropy_weight(0.1));
        assert!(peak > entropy_weight(0.9));
        // negative inputs are clamped to zero contribution
        assert_eq!(entropy_weight(-0.3), 0.0);
    }

    #[test]
    fn word_weight_scales_with_frequency() {
        let single = word_weight(1, 0.1, 0.5);
        let triple = word_weight(3, 0.1, 0.5);
        assert!((triple - 3.0 * single).abs() < 1e-12);
        assert_eq!(word_weight(2, 0.0, 0.5), 0.0);
        assert_eq!(word_weight(2, 0.1, 0.0), 0.0);
    }

    #[test]
    fn propagation_prob_is_product() {
        assert!((propagation_prob(0.74, 0.67) - 0.4958).abs() < 1e-12);
        assert_eq!(propagation_prob(0.0, 1.0), 0.0);
    }

    /// The from-scratch reference sums in key order, so it repeats its own
    /// bits: summing a hash map's values in its per-map random order let
    /// 2 000 calls on the paper example return several bit patterns.
    #[test]
    fn set_score_repeats_its_bits() {
        let engine = crate::fixtures::paper_example().build_engine();
        let scorer = engine.scorer();
        let ids = engine.active_ids();
        let query = QueryVector::new(vec![0.5, 0.5]).unwrap();
        let first = scorer.set_score(&query, &ids).to_bits();
        for _ in 0..2_000 {
            assert_eq!(scorer.set_score(&query, &ids).to_bits(), first);
        }
    }
}
