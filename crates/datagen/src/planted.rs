//! Planted topic models: ground-truth topic-word distributions used to
//! generate synthetic corpora.
//!
//! Each topic owns a block of "core" words with Zipfian weights and shares a
//! small block of background words with every other topic.  This yields the
//! two properties real topic models trained on social corpora exhibit and
//! that the paper's pruning relies on: word probabilities are heavily skewed,
//! and any document drawn from one or two topics scores near zero on all the
//! others.

use rand::rngs::StdRng;
use rand::Rng;

use ksir_types::{
    DenseTopicWordTable, Document, KsirError, Result, TopicId, TopicVector, TopicWordDistribution,
    WordId,
};

/// Fraction of the vocabulary reserved as background words shared by all
/// topics.
const BACKGROUND_FRACTION: f64 = 0.1;
/// Probability mass each topic puts on the shared background block.
const BACKGROUND_MASS: f64 = 0.15;

/// A ground-truth topic model used for data generation.
#[derive(Debug, Clone)]
pub struct PlantedTopicModel {
    phi: DenseTopicWordTable,
    /// Per-topic cumulative word distribution, for O(log m) sampling.
    cumulative: Vec<Vec<f64>>,
    /// Core (topic-exclusive) words of each topic, most probable first.
    cores: Vec<Vec<WordId>>,
}

impl PlantedTopicModel {
    /// Builds a planted model with `num_topics` topics over `vocab_size`
    /// words, with within-topic word frequencies following a Zipf law with
    /// the given exponent.
    pub fn new(num_topics: usize, vocab_size: usize, zipf_exponent: f64) -> Result<Self> {
        if num_topics == 0 {
            return Err(KsirError::invalid_parameter("num_topics", "must be ≥ 1"));
        }
        if zipf_exponent <= 0.0 || !zipf_exponent.is_finite() {
            return Err(KsirError::invalid_parameter(
                "zipf_exponent",
                "must be a positive finite number",
            ));
        }
        let background_size = ((vocab_size as f64 * BACKGROUND_FRACTION) as usize).max(1);
        let core_pool = vocab_size.saturating_sub(background_size);
        if core_pool < num_topics {
            return Err(KsirError::invalid_parameter(
                "vocab_size",
                format!("vocabulary of {vocab_size} words is too small for {num_topics} topics"),
            ));
        }
        let core_size = core_pool / num_topics;

        // Background words occupy ids [0, background_size); topic t's core
        // occupies the next contiguous block of `core_size` ids.
        let zipf = |rank: usize| 1.0 / ((rank + 1) as f64).powf(zipf_exponent);
        let mut rows = Vec::with_capacity(num_topics);
        let mut cores = Vec::with_capacity(num_topics);
        for t in 0..num_topics {
            let mut row = vec![0.0; vocab_size];
            // Background block.
            let bg_norm: f64 = (0..background_size).map(zipf).sum();
            for (rank, slot) in row.iter_mut().take(background_size).enumerate() {
                *slot = BACKGROUND_MASS * zipf(rank) / bg_norm;
            }
            // Core block.
            let start = background_size + t * core_size;
            let core_norm: f64 = (0..core_size).map(zipf).sum();
            let mut core_words = Vec::with_capacity(core_size);
            for rank in 0..core_size {
                row[start + rank] = (1.0 - BACKGROUND_MASS) * zipf(rank) / core_norm;
                core_words.push(WordId((start + rank) as u32));
            }
            rows.push(row);
            cores.push(core_words);
        }

        let phi = DenseTopicWordTable::from_rows(rows)?;
        let cumulative = (0..num_topics)
            .map(|t| {
                let mut acc = 0.0;
                phi.row(TopicId(t as u32))
                    .iter()
                    .map(|p| {
                        acc += p;
                        acc
                    })
                    .collect()
            })
            .collect();
        Ok(PlantedTopicModel {
            phi,
            cumulative,
            cores,
        })
    }

    /// Number of topics.
    pub fn num_topics(&self) -> usize {
        self.phi.num_topics()
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.phi.vocab_size()
    }

    /// The ground-truth topic-word table (usable directly as the engine's
    /// oracle, or as a reference when training LDA/BTM on the generated
    /// corpus).
    pub fn phi(&self) -> &DenseTopicWordTable {
        &self.phi
    }

    /// The core (topic-exclusive) words of a topic, most probable first.
    pub fn core_words(&self, topic: TopicId) -> &[WordId] {
        &self.cores[topic.index()]
    }

    /// Samples a sparse topic mixture: a single topic with probability
    /// `single_topic_prob`, otherwise a two-topic mixture with a dominant
    /// share between 0.6 and 0.9.
    pub fn sample_mixture(&self, rng: &mut StdRng, single_topic_prob: f64) -> TopicVector {
        let z = self.num_topics();
        let mut values = vec![0.0; z];
        let first = rng.gen_range(0..z);
        if z == 1 || rng.gen_bool(single_topic_prob.clamp(0.0, 1.0)) {
            values[first] = 1.0;
        } else {
            let mut second = rng.gen_range(0..z - 1);
            if second >= first {
                second += 1;
            }
            let dominant = rng.gen_range(0.6..0.9);
            values[first] = dominant;
            values[second] = 1.0 - dominant;
        }
        TopicVector::from_values(values).expect("mixture entries are valid probabilities")
    }

    /// Samples one word from a topic's word distribution.
    pub fn sample_word(&self, rng: &mut StdRng, topic: TopicId) -> WordId {
        let cdf = &self.cumulative[topic.index()];
        let target = rng.gen::<f64>() * cdf.last().copied().unwrap_or(1.0);
        let idx = cdf.partition_point(|&c| c < target);
        WordId(idx.min(self.vocab_size() - 1) as u32)
    }

    /// Samples a document of `len` tokens from a topic mixture.
    pub fn sample_document(&self, rng: &mut StdRng, mixture: &TopicVector, len: usize) -> Document {
        let support = mixture.support();
        if support.is_empty() {
            return Document::new();
        }
        // Built once from all the tokens: pushing them one by one would
        // shift the document's sorted run per new word.
        let mut tokens = Vec::with_capacity(len.max(1));
        for _ in 0..len.max(1) {
            // Pick a topic according to the mixture, then a word from it.
            let mut target = rng.gen::<f64>() * mixture.sum();
            let mut chosen = support[0].0;
            for &(topic, p) in &support {
                if target < p {
                    chosen = topic;
                    break;
                }
                target -= p;
            }
            tokens.push(self.sample_word(rng, chosen));
        }
        Document::from_tokens(tokens)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksir_types::rng::seeded_rng;

    #[test]
    fn construction_validates_inputs() {
        assert!(PlantedTopicModel::new(0, 100, 1.0).is_err());
        assert!(PlantedTopicModel::new(5, 100, 0.0).is_err());
        assert!(PlantedTopicModel::new(200, 100, 1.0).is_err());
        assert!(PlantedTopicModel::new(5, 100, 1.0).is_ok());
    }

    #[test]
    fn rows_are_probability_distributions() {
        let m = PlantedTopicModel::new(4, 120, 1.1).unwrap();
        for t in 0..4u32 {
            let sum: f64 = m.phi().row(TopicId(t)).iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "topic {t} sums to {sum}");
        }
    }

    #[test]
    fn core_words_are_disjoint_and_dominant() {
        let m = PlantedTopicModel::new(3, 90, 1.0).unwrap();
        let cores: Vec<_> = (0..3u32)
            .map(|t| m.core_words(TopicId(t)).to_vec())
            .collect();
        // Disjoint blocks.
        for i in 0..3 {
            for j in (i + 1)..3 {
                assert!(cores[i].iter().all(|w| !cores[j].contains(w)));
            }
        }
        // A topic's top core word is much more likely under it than under any
        // other topic.
        for t in 0..3u32 {
            let w = m.core_words(TopicId(t))[0];
            let own = m.phi().word_prob(TopicId(t), w);
            for other in (0..3u32).filter(|&o| o != t) {
                assert!(own > 10.0 * m.phi().word_prob(TopicId(other), w));
            }
        }
    }

    #[test]
    fn mixtures_are_sparse_and_normalised() {
        let m = PlantedTopicModel::new(10, 200, 1.0).unwrap();
        let mut rng = seeded_rng(7);
        let mut single = 0;
        for _ in 0..200 {
            let mix = m.sample_mixture(&mut rng, 0.7);
            assert!((mix.sum() - 1.0).abs() < 1e-9);
            assert!(mix.support_size() <= 2);
            if mix.support_size() == 1 {
                single += 1;
            }
        }
        // Roughly 70% single-topic.
        assert!(
            single > 100 && single < 190,
            "got {single} single-topic mixtures"
        );
    }

    #[test]
    fn documents_concentrate_on_their_topics() {
        let m = PlantedTopicModel::new(5, 250, 1.0).unwrap();
        let mut rng = seeded_rng(11);
        let mix = TopicVector::from_values(vec![1.0, 0.0, 0.0, 0.0, 0.0]).unwrap();
        let doc = m.sample_document(&mut rng, &mix, 200);
        assert_eq!(doc.len(), 200);
        // The vast majority of tokens come from topic 0's core or background.
        let core0 = m.core_words(TopicId(0));
        let on_topic = doc
            .tokens()
            .iter()
            .filter(|w| core0.contains(w) || w.index() < 25)
            .count();
        assert!(
            on_topic as f64 > 0.95 * 200.0,
            "only {on_topic}/200 on-topic tokens"
        );
    }

    #[test]
    fn sampling_is_deterministic_for_a_seed() {
        let m = PlantedTopicModel::new(4, 100, 1.1).unwrap();
        let mix = m.sample_mixture(&mut seeded_rng(3), 0.5);
        let a = m.sample_document(&mut seeded_rng(5), &mix, 20);
        let b = m.sample_document(&mut seeded_rng(5), &mix, 20);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_mixture_yields_empty_document() {
        let m = PlantedTopicModel::new(2, 60, 1.0).unwrap();
        let mut rng = seeded_rng(1);
        let doc = m.sample_document(&mut rng, &TopicVector::zeros(2), 10);
        assert!(doc.is_empty());
    }
}
