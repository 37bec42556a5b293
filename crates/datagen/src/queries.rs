//! Query workload generation (§5.1 of the paper).
//!
//! The paper generates k-SIR queries by (1) drawing 1–5 words from the
//! vocabulary, (2) treating them as a pseudo-document and inferring its topic
//! distribution, and (3) assigning each query a random timestamp in
//! `[1, t_n]`.  The workload generator reproduces that procedure against a
//! planted topic model: the words are drawn from a randomly chosen topic's
//! word distribution (so queries are about *something*, as real queries are)
//! and the query vector is obtained by normalising the per-topic likelihoods
//! of the chosen words.

use rand::rngs::StdRng;
use rand::Rng;

use ksir_types::rng::{derive_seed, seeded_rng};
use ksir_types::{
    Document, KsirError, QueryVector, Result, Timestamp, TopicId, TopicWordDistribution,
};

use crate::planted::PlantedTopicModel;

/// One generated query: keywords, the inferred query vector, and the time at
/// which the query should be issued.
#[derive(Debug, Clone)]
pub struct GeneratedQuery {
    /// Keyword pseudo-document (1–5 words).
    pub keywords: Document,
    /// Query vector inferred from the keywords.
    pub vector: QueryVector,
    /// Timestamp at which the query is evaluated.
    pub timestamp: Timestamp,
}

/// Generates query workloads against a planted topic model.
#[derive(Debug)]
pub struct QueryWorkloadGenerator<'a> {
    planted: &'a PlantedTopicModel,
    seed: u64,
    min_words: usize,
    max_words: usize,
}

impl<'a> QueryWorkloadGenerator<'a> {
    /// Creates a workload generator with the paper's 1–5 keywords per query.
    pub fn new(planted: &'a PlantedTopicModel, seed: u64) -> Self {
        QueryWorkloadGenerator {
            planted,
            seed,
            min_words: 1,
            max_words: 5,
        }
    }

    /// Overrides the keyword-count range.
    pub fn with_word_range(mut self, min_words: usize, max_words: usize) -> Result<Self> {
        if min_words == 0 || max_words < min_words {
            return Err(KsirError::invalid_parameter(
                "word_range",
                "need 1 ≤ min_words ≤ max_words",
            ));
        }
        self.min_words = min_words;
        self.max_words = max_words;
        Ok(self)
    }

    /// Generates `count` queries with timestamps uniform in `[1, end_time]`.
    pub fn generate(&self, count: usize, end_time: Timestamp) -> Result<Vec<GeneratedQuery>> {
        if end_time == Timestamp::ZERO {
            return Err(KsirError::invalid_parameter(
                "end_time",
                "the stream end time must be positive",
            ));
        }
        let mut rng = seeded_rng(derive_seed(self.seed, "queries"));
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(self.generate_one(&mut rng, end_time));
        }
        Ok(out)
    }

    fn generate_one(&self, rng: &mut StdRng, end_time: Timestamp) -> GeneratedQuery {
        let z = self.planted.num_topics();
        let topic = TopicId(rng.gen_range(0..z) as u32);
        let num_words = rng.gen_range(self.min_words..=self.max_words);
        let keywords =
            Document::from_tokens((0..num_words).map(|_| self.planted.sample_word(rng, topic)));
        let vector = infer_query_vector(self.planted, &keywords)
            .expect("keywords drawn from a topic always have positive likelihood");
        let timestamp = Timestamp(rng.gen_range(1..=end_time.raw()));
        GeneratedQuery {
            keywords,
            vector,
            timestamp,
        }
    }
}

/// Infers a query vector from a keyword pseudo-document against a planted
/// model by normalising the summed per-topic word probabilities.
///
/// Entries below 5% of the strongest topic are dropped before normalisation:
/// shared background words give every topic a sliver of probability, but real
/// inferred query vectors (and the ones the paper's experiments use) are
/// sparse — "the number of non-zero entries in the query vector" `d` is small,
/// which is what the multi-topic traversal of MTTS/MTTD exploits.
pub fn infer_query_vector(planted: &PlantedTopicModel, keywords: &Document) -> Result<QueryVector> {
    let z = planted.num_topics();
    let mut weights = vec![0.0; z];
    for (word, freq) in keywords.iter() {
        for (t, weight) in weights.iter_mut().enumerate() {
            *weight += freq as f64 * planted.phi().word_prob(TopicId(t as u32), word);
        }
    }
    let max = weights.iter().copied().fold(0.0_f64, f64::max);
    if max > 0.0 {
        // Drop the background-word dust (< 5% of the strongest topic) and keep
        // at most the four strongest topics, mirroring the sparse vectors that
        // Gibbs-sampling inference produces for short keyword queries.
        let floor = 0.05 * max;
        for w in &mut weights {
            if *w < floor {
                *w = 0.0;
            }
        }
        let mut order: Vec<usize> = (0..z).collect();
        order.sort_by(|&a, &b| weights[b].total_cmp(&weights[a]));
        for &idx in order.iter().skip(4) {
            weights[idx] = 0.0;
        }
    }
    QueryVector::new(weights)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planted() -> PlantedTopicModel {
        PlantedTopicModel::new(8, 400, 1.1).unwrap()
    }

    #[test]
    fn workload_has_requested_size_and_ranges() {
        let p = planted();
        let gen = QueryWorkloadGenerator::new(&p, 9);
        let queries = gen.generate(50, Timestamp(1000)).unwrap();
        assert_eq!(queries.len(), 50);
        for q in &queries {
            assert!(!q.keywords.is_empty() && q.keywords.len() <= 5);
            assert!(q.timestamp.raw() >= 1 && q.timestamp.raw() <= 1000);
            assert!((0..8).any(|t| q.vector.weight(TopicId(t)) > 0.0));
            let total: f64 = (0..8).map(|t| q.vector.weight(TopicId(t))).sum();
            assert!((total - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn workload_is_deterministic_per_seed() {
        let p = planted();
        let a = QueryWorkloadGenerator::new(&p, 4)
            .generate(10, Timestamp(100))
            .unwrap();
        let b = QueryWorkloadGenerator::new(&p, 4)
            .generate(10, Timestamp(100))
            .unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.keywords, y.keywords);
            assert_eq!(x.timestamp, y.timestamp);
        }
        let c = QueryWorkloadGenerator::new(&p, 5)
            .generate(10, Timestamp(100))
            .unwrap();
        assert!(a
            .iter()
            .zip(c.iter())
            .any(|(x, y)| x.keywords != y.keywords));
    }

    #[test]
    fn queries_lean_towards_their_source_topic() {
        let p = planted();
        let queries = QueryWorkloadGenerator::new(&p, 21)
            .with_word_range(3, 5)
            .unwrap()
            .generate(40, Timestamp(500))
            .unwrap();
        // With 3-5 topical keywords, the dominant topic should carry most of
        // the query mass for the clear majority of queries.
        let peaked = queries
            .iter()
            .filter(|q| {
                let top = q
                    .vector
                    .support()
                    .iter()
                    .map(|(_, w)| *w)
                    .fold(0.0, f64::max);
                top > 0.5
            })
            .count();
        assert!(peaked > 25, "only {peaked}/40 queries are topic-peaked");
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let p = planted();
        assert!(QueryWorkloadGenerator::new(&p, 1)
            .with_word_range(0, 3)
            .is_err());
        assert!(QueryWorkloadGenerator::new(&p, 1)
            .with_word_range(4, 2)
            .is_err());
        assert!(QueryWorkloadGenerator::new(&p, 1)
            .generate(5, Timestamp::ZERO)
            .is_err());
    }

    #[test]
    fn query_vector_inference_matches_word_likelihoods() {
        let p = planted();
        // A document made only of topic 0's top core word must peak on topic 0.
        let w = p.core_words(TopicId(0))[0];
        let doc = Document::from_tokens([w, w]);
        let v = infer_query_vector(&p, &doc).unwrap();
        assert_eq!(
            v.support()
                .iter()
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap()
                .0,
            TopicId(0)
        );
    }
}
