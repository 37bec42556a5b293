//! The paper's running example (Table 1, Figures 1–3, 5 and 6) as a reusable
//! fixture.
//!
//! The fixture encodes the eight exemplar tweets, the two-topic topic model
//! over the sixteen-word vocabulary, the per-element topic distributions, and
//! the reference structure exactly as printed in the paper, so that unit
//! tests, integration tests and the quickstart example can all reproduce the
//! worked examples (`R_2({e2, e7}) ≈ 0.53`, `I_{2,8}({e2, e3}) ≈ 0.93`,
//! `q_8(2, (0.5, 0.5)) → {e1, e3}` with `OPT ≈ 0.65`, …).

use crate::stream::WindowConfig;
use ksir_types::{
    DenseTopicWordTable, ElementId, SocialElement, SocialElementBuilder, Timestamp, TopicVector,
    Vocabulary,
};

use crate::config::{EngineConfig, ScoringConfig};
use crate::engine::KsirEngine;

/// The words of Table 1(b)/(c) in id order (`w1` → id 0, …, `w16` → id 15).
pub const PAPER_WORDS: [&str; 16] = [
    "asroma",
    "assist",
    "cavs",
    "champion",
    "defeat",
    "final",
    "lebron",
    "lfc",
    "manutd",
    "nbaplayoffs",
    "pl",
    "point",
    "raptors",
    "realmadrid",
    "schedule",
    "ucl",
];

/// The paper's running example: topic model, vocabulary, elements and their
/// topic distributions.
#[derive(Debug, Clone)]
pub struct PaperExample {
    /// The sixteen-word vocabulary of Table 1(b)/(c).
    pub vocabulary: Vocabulary,
    /// The two-topic topic-word table (`θ1` ≈ basketball, `θ2` ≈ soccer).
    pub phi: DenseTopicWordTable,
    /// The eight elements `e1, …, e8` (element ids 1–8, timestamps 1–8).
    pub elements: Vec<SocialElement>,
    /// Topic distributions `p_i(e)` of the elements, parallel to `elements`.
    pub topic_vectors: Vec<TopicVector>,
}

/// Builds the paper's running example.
pub fn paper_example() -> PaperExample {
    let vocabulary = Vocabulary::from_words(PAPER_WORDS);

    // Table 1(b)/(c): p_i(w) per topic, indexed w1..w16.
    let theta1 = vec![
        0.0, 0.06, 0.09, 0.1, 0.05, 0.11, 0.12, 0.0, 0.0, 0.11, 0.0, 0.15, 0.08, 0.0, 0.13, 0.0,
    ];
    let theta2 = vec![
        0.03, 0.04, 0.0, 0.09, 0.04, 0.12, 0.0, 0.06, 0.07, 0.0, 0.11, 0.14, 0.0, 0.07, 0.12, 0.11,
    ];
    let phi = DenseTopicWordTable::from_rows(vec![theta1, theta2])
        .expect("paper topic-word table is well-formed");

    // Table 1(a): words (1-based in the paper → 0-based ids), topic
    // distributions and references of each element.
    struct Row {
        id: u64,
        words: &'static [u32],
        theta: [f64; 2],
        refs: &'static [u64],
    }
    let rows = [
        Row {
            id: 1,
            words: &[1, 6, 8, 14, 16],
            theta: [0.2, 0.8],
            refs: &[],
        },
        Row {
            id: 2,
            words: &[4, 9, 11],
            theta: [0.26, 0.74],
            refs: &[],
        },
        Row {
            id: 3,
            words: &[3, 5, 10, 13],
            theta: [0.89, 0.11],
            refs: &[],
        },
        Row {
            id: 4,
            words: &[7, 10],
            theta: [1.0, 0.0],
            refs: &[3],
        },
        Row {
            id: 5,
            words: &[6, 8, 16],
            theta: [0.29, 0.71],
            refs: &[1],
        },
        Row {
            id: 6,
            words: &[2, 7, 10, 12],
            theta: [0.7, 0.3],
            refs: &[3],
        },
        Row {
            id: 7,
            words: &[4, 11],
            theta: [0.33, 0.67],
            refs: &[2],
        },
        Row {
            id: 8,
            words: &[10, 11, 15],
            theta: [0.51, 0.49],
            refs: &[2, 3, 6],
        },
    ];

    let mut elements = Vec::with_capacity(rows.len());
    let mut topic_vectors = Vec::with_capacity(rows.len());
    for row in &rows {
        let mut builder = SocialElementBuilder::new(row.id).at(row.id);
        // Paper word ids are 1-based; our ids are 0-based.
        builder = builder.words(row.words.iter().map(|w| w - 1));
        for &r in row.refs {
            builder = builder.referencing(r);
        }
        elements.push(builder.build());
        topic_vectors.push(
            TopicVector::from_values(row.theta.to_vec()).expect("paper topic vectors are valid"),
        );
    }

    PaperExample {
        vocabulary,
        phi,
        elements,
        topic_vectors,
    }
}

impl PaperExample {
    /// The scoring configuration used in the paper's examples
    /// (`λ = 0.5`, `η = 2`).
    pub fn scoring_config() -> ScoringConfig {
        ScoringConfig::new(0.5, 2.0).expect("paper scoring parameters are valid")
    }

    /// The window configuration used in the paper's examples
    /// (`T = 4`, one element per bucket).
    pub fn window_config() -> WindowConfig {
        WindowConfig::new(4, 1).expect("paper window parameters are valid")
    }

    /// The engine configuration used in the paper's examples (no topic
    /// sparsification — the hand-specified vectors are already sparse).
    pub fn engine_config() -> EngineConfig {
        EngineConfig::new(Self::window_config(), Self::scoring_config())
            .with_max_topics_per_element(None)
    }

    /// The element `e<n>` of Table 1 (`n` is the paper's 1-based index).
    pub fn element(&self, n: u64) -> &SocialElement {
        self.elements
            .iter()
            .find(|e| e.id == ElementId(n))
            .expect("paper element ids run from 1 to 8")
    }

    /// The topic vector of element `e<n>`.
    pub fn topic_vector(&self, n: u64) -> &TopicVector {
        let idx = self
            .elements
            .iter()
            .position(|e| e.id == ElementId(n))
            .expect("paper element ids run from 1 to 8");
        &self.topic_vectors[idx]
    }

    /// Builds a [`KsirEngine`] over the paper's topic model with nothing
    /// ingested yet (time 0) — the starting point for replaying the example
    /// stream bucket by bucket.
    pub fn empty_engine(&self) -> KsirEngine<DenseTopicWordTable> {
        KsirEngine::new(self.phi.clone(), Self::engine_config())
            .expect("paper engine configuration is valid")
    }

    /// The example's eight `(element, topic vector)` pairs in timestamp
    /// order, cloned for ingestion.
    pub fn stream(&self) -> Vec<(SocialElement, TopicVector)> {
        self.elements
            .iter()
            .cloned()
            .zip(self.topic_vectors.iter().cloned())
            .collect()
    }

    /// Builds a [`KsirEngine`] over the paper's topic model and ingests the
    /// whole eight-element stream, leaving the engine at time `t = 8` (the
    /// moment all the worked examples are evaluated at).
    pub fn build_engine(&self) -> KsirEngine<DenseTopicWordTable> {
        let mut engine = self.empty_engine();
        for (element, tv) in self.stream() {
            let end = element.ts;
            engine
                .ingest_bucket(vec![(element, tv)], end)
                .expect("paper stream is well-formed");
        }
        debug_assert_eq!(engine.now(), Timestamp(8));
        engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_matches_table_1() {
        let ex = paper_example();
        assert_eq!(ex.vocabulary.len(), 16);
        assert_eq!(ex.elements.len(), 8);
        assert_eq!(ex.element(1).doc.distinct_words(), 5);
        assert_eq!(ex.element(8).refs.len(), 3);
        assert!(ex.element(8).references(ElementId(6)));
        assert_eq!(ex.topic_vector(3).value(ksir_types::TopicId(0)), 0.89);
        // every topic vector sums to 1
        for tv in &ex.topic_vectors {
            assert!((tv.sum() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn engine_builds_and_reaches_time_8() {
        let ex = paper_example();
        let engine = ex.build_engine();
        assert_eq!(engine.now(), Timestamp(8));
        // e4 expired (Example 3.4): 7 active elements remain.
        assert_eq!(engine.active_count(), 7);
        assert!(!engine.is_active(ElementId(4)));
    }
}
