//! Replaying generated streams with interleaved query workloads and
//! measuring query latency, quality and maintenance cost.

use std::time::{Duration, Instant};

use ksir_core::stream::WindowConfig;
use ksir_core::{Algorithm, EngineConfig, KsirEngine, KsirQuery, ScoringConfig};
use ksir_datagen::{GeneratedStream, QueryWorkloadGenerator};
use ksir_types::{DenseTopicWordTable, Result, Timestamp, TopicWordDistribution};

/// Parameters of one processing experiment (Figures 7–14).
#[derive(Debug, Clone)]
pub struct ProcessingConfig {
    /// Result size `k`.
    pub k: usize,
    /// Approximation parameter `ε` for MTTS/MTTD/SieveStreaming.
    pub epsilon: f64,
    /// Algorithms to measure.
    pub algorithms: Vec<Algorithm>,
    /// Number of queries in the workload.
    pub num_queries: usize,
    /// Window length `T` in ticks (1 tick = 1 minute).
    pub window_len: u64,
    /// Bucket length `L` in ticks.
    pub bucket_len: u64,
    /// Scoring trade-off `λ`.
    pub lambda: f64,
    /// Influence rescaling `η`.
    pub eta: f64,
    /// Per-element topic truncation.
    pub max_topics_per_element: Option<usize>,
    /// Workload seed.
    pub seed: u64,
}

impl Default for ProcessingConfig {
    fn default() -> Self {
        ProcessingConfig {
            k: 10,
            epsilon: 0.1,
            algorithms: Algorithm::ALL.to_vec(),
            num_queries: 20,
            window_len: 24 * 60,
            bucket_len: 15,
            lambda: 0.5,
            // The paper uses η = 20 / 200 to rescale influence counts that are
            // in the hundreds on the full-size datasets; at the synthetic
            // laptop scale in-window reference counts are single digits, so a
            // small η keeps the two terms balanced the same way.
            eta: 2.0,
            max_topics_per_element: Some(2),
            seed: 42,
        }
    }
}

impl ProcessingConfig {
    /// A default configuration whose `η` is calibrated to the given stream so
    /// that the semantic and influence terms of the scoring function have
    /// comparable average magnitude — the role `η` plays in the paper, where
    /// it is chosen per dataset (20 for AMiner/Reddit, 200 for Twitter).
    pub fn for_stream(stream: &GeneratedStream) -> Self {
        let mut config = ProcessingConfig::default();
        config.eta = calibrate_eta(stream, config.lambda, config.window_len);
        config
    }

    /// Builds the engine configuration implied by these parameters.
    pub fn engine_config(&self) -> Result<EngineConfig> {
        let window = WindowConfig::new(self.window_len, self.bucket_len.min(self.window_len))?;
        let scoring = ScoringConfig::new(self.lambda, self.eta)?;
        Ok(EngineConfig::new(window, scoring)
            .with_max_topics_per_element(self.max_topics_per_element))
    }
}

/// One timed query execution.
#[derive(Debug, Clone, Copy)]
pub struct QueryMeasurement {
    /// Algorithm that processed the query.
    pub algorithm: Algorithm,
    /// Index of the query in the workload.
    pub query_index: usize,
    /// Wall-clock processing time.
    pub elapsed: Duration,
    /// Representativeness score of the result.
    pub score: f64,
    /// Distinct elements evaluated while processing.
    pub evaluated_elements: usize,
    /// Active elements at query time.
    pub active_elements: usize,
    /// Number of elements returned.
    pub result_size: usize,
}

/// Aggregated outcome of a replay.
#[derive(Debug, Clone, Default)]
pub struct ProcessingReport {
    /// All per-query, per-algorithm measurements.
    pub measurements: Vec<QueryMeasurement>,
    /// Total time spent maintaining the engine (ingest + ranked lists).
    pub total_update_time: Duration,
    /// Number of elements ingested.
    pub elements_ingested: usize,
    /// Number of queries executed.
    pub queries_run: usize,
}

impl ProcessingReport {
    fn for_algorithm(&self, algorithm: Algorithm) -> impl Iterator<Item = &QueryMeasurement> + '_ {
        self.measurements
            .iter()
            .filter(move |m| m.algorithm == algorithm)
    }

    /// Mean query latency in milliseconds for one algorithm.
    pub fn mean_query_millis(&self, algorithm: Algorithm) -> f64 {
        let (total, count) = self
            .for_algorithm(algorithm)
            .fold((0.0, 0usize), |(t, c), m| {
                (t + m.elapsed.as_secs_f64(), c + 1)
            });
        if count == 0 {
            0.0
        } else {
            total * 1e3 / count as f64
        }
    }

    /// Mean representativeness score for one algorithm.
    pub fn mean_score(&self, algorithm: Algorithm) -> f64 {
        let (total, count) = self
            .for_algorithm(algorithm)
            .fold((0.0, 0usize), |(t, c), m| (t + m.score, c + 1));
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }

    /// Mean ratio of evaluated to active elements for one algorithm
    /// (Figure 10).
    pub fn mean_evaluated_ratio(&self, algorithm: Algorithm) -> f64 {
        let (total, count) = self
            .for_algorithm(algorithm)
            .fold((0.0, 0usize), |(t, c), m| {
                let ratio = if m.active_elements == 0 {
                    0.0
                } else {
                    m.evaluated_elements as f64 / m.active_elements as f64
                };
                (t + ratio, c + 1)
            });
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }

    /// Mean engine-maintenance time per ingested element, in milliseconds
    /// (Figure 14).
    pub fn mean_update_millis_per_element(&self) -> f64 {
        if self.elements_ingested == 0 {
            0.0
        } else {
            self.total_update_time.as_secs_f64() * 1e3 / self.elements_ingested as f64
        }
    }
}

/// Picks `η` so that the average influence contribution `(1-λ)/η · I_i(e)`
/// matches the average semantic contribution `λ · R_i(e)` on the dominant
/// topic of each element.
///
/// On the paper's full-size datasets in-window reference counts reach the
/// hundreds, which is why the authors divide the influence score by
/// `η = 20` (AMiner/Reddit) or `η = 200` (Twitter).  Synthetic streams are
/// several orders of magnitude smaller, so the equivalent balance requires a
/// per-stream value; this helper computes it the same way the paper motivates
/// the constant — "adjust the ranges of `R` and `I` to the same scale".
pub fn calibrate_eta(stream: &GeneratedStream, lambda: f64, window_len: u64) -> f64 {
    use std::collections::HashMap;

    let phi = stream.planted.phi();
    // In-window reverse references: parent index → Σ p_i(parent)·p_i(child)
    // on the parent's dominant topic.
    let index_of: HashMap<_, _> = stream
        .elements
        .iter()
        .enumerate()
        .map(|(i, e)| (e.id, i))
        .collect();
    let mut influence = vec![0.0_f64; stream.elements.len()];
    for (child_idx, child) in stream.elements.iter().enumerate() {
        for parent_id in &child.refs {
            let Some(&parent_idx) = index_of.get(parent_id) else {
                continue;
            };
            let parent = &stream.elements[parent_idx];
            if child.ts.raw().saturating_sub(parent.ts.raw()) > window_len {
                continue;
            }
            if let Some(topic) = stream.topic_vectors[parent_idx].dominant_topic() {
                influence[parent_idx] += stream.topic_vectors[parent_idx].value(topic)
                    * stream.topic_vectors[child_idx].value(topic);
            }
        }
    }

    let mut semantic_total = 0.0;
    for (idx, element) in stream.elements.iter().enumerate() {
        let Some(topic) = stream.topic_vectors[idx].dominant_topic() else {
            continue;
        };
        let p_elem = stream.topic_vectors[idx].value(topic);
        semantic_total += element
            .doc
            .iter()
            .map(|(w, freq)| ksir_core::word_weight(freq, phi.word_prob(topic, w), p_elem))
            .sum::<f64>();
    }

    let n = stream.elements.len().max(1) as f64;
    let mean_semantic = semantic_total / n;
    let mean_influence = influence.iter().sum::<f64>() / n;
    if mean_semantic <= 0.0 || mean_influence <= 0.0 || lambda <= 0.0 || lambda >= 1.0 {
        return 1.0;
    }
    ((1.0 - lambda) * mean_influence / (lambda * mean_semantic)).max(1e-3)
}

/// Builds an empty engine over the stream's planted topic model.
pub fn build_engine(
    stream: &GeneratedStream,
    config: &ProcessingConfig,
) -> Result<KsirEngine<DenseTopicWordTable>> {
    KsirEngine::new(stream.planted.phi().clone(), config.engine_config()?)
}

/// Replays the stream through an engine, interleaving the query workload at
/// the queries' assigned timestamps and timing every algorithm on every
/// query.
pub fn replay_with_queries(
    stream: &GeneratedStream,
    config: &ProcessingConfig,
) -> Result<ProcessingReport> {
    let mut engine = build_engine(stream, config)?;

    // Workload: queries sorted by their assigned timestamps.
    let workload = QueryWorkloadGenerator::new(&stream.planted, config.seed)
        .generate(config.num_queries, stream.end_time().max(Timestamp(1)))?;
    let mut queries: Vec<(usize, Timestamp, KsirQuery)> = workload
        .into_iter()
        .enumerate()
        .map(|(i, q)| {
            let query = KsirQuery::new(config.k, q.vector)?.with_epsilon(config.epsilon)?;
            Ok((i, q.timestamp, query))
        })
        .collect::<Result<Vec<_>>>()?;
    queries.sort_by_key(|(_, ts, _)| *ts);

    let mut report = ProcessingReport::default();
    let mut next_query = 0usize;
    let bucket_len = config.bucket_len.min(config.window_len).max(1);
    let mut bucket_end = bucket_len;
    let mut pending = Vec::new();

    let flush = |engine: &mut KsirEngine<DenseTopicWordTable>,
                 pending: &mut Vec<(ksir_types::SocialElement, ksir_types::TopicVector)>,
                 end: u64,
                 report: &mut ProcessingReport| {
        let batch = std::mem::take(pending);
        let started = Instant::now();
        engine.ingest_bucket(batch, Timestamp(end))?;
        report.total_update_time += started.elapsed();
        Ok::<(), ksir_types::KsirError>(())
    };

    for (element, tv) in stream.iter_pairs() {
        while element.ts.raw() > bucket_end {
            flush(&mut engine, &mut pending, bucket_end, &mut report)?;
            run_due_queries(&engine, config, &queries, &mut next_query, &mut report);
            bucket_end += bucket_len;
        }
        report.elements_ingested += 1;
        pending.push((element, tv));
    }
    flush(&mut engine, &mut pending, bucket_end, &mut report)?;
    run_due_queries(&engine, config, &queries, &mut next_query, &mut report);

    // Any queries timestamped after the last bucket run against the final state.
    while next_query < queries.len() {
        let (index, _, query) = &queries[next_query];
        measure_query(&engine, config, *index, query, &mut report);
        next_query += 1;
    }

    report.queries_run = queries.len();
    Ok(report)
}

fn run_due_queries(
    engine: &KsirEngine<DenseTopicWordTable>,
    config: &ProcessingConfig,
    queries: &[(usize, Timestamp, KsirQuery)],
    next_query: &mut usize,
    report: &mut ProcessingReport,
) {
    while *next_query < queries.len() && queries[*next_query].1 <= engine.now() {
        let (index, _, query) = &queries[*next_query];
        measure_query(engine, config, *index, query, report);
        *next_query += 1;
    }
}

fn measure_query(
    engine: &KsirEngine<DenseTopicWordTable>,
    config: &ProcessingConfig,
    index: usize,
    query: &KsirQuery,
    report: &mut ProcessingReport,
) {
    for &algorithm in &config.algorithms {
        let started = Instant::now();
        let result = engine
            .query(query, algorithm)
            .expect("query dimensions match the engine by construction");
        let elapsed = started.elapsed();
        report.measurements.push(QueryMeasurement {
            algorithm,
            query_index: index,
            elapsed,
            score: result.score,
            evaluated_elements: result.evaluated_elements,
            active_elements: engine.active_count(),
            result_size: result.len(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksir_datagen::{DatasetProfile, StreamGenerator};

    fn tiny_stream() -> GeneratedStream {
        let profile = DatasetProfile::twitter().scaled(0.05).with_topics(10);
        StreamGenerator::new(profile, 9)
            .unwrap()
            .generate()
            .unwrap()
    }

    fn tiny_config() -> ProcessingConfig {
        ProcessingConfig {
            k: 5,
            num_queries: 5,
            window_len: 24 * 60,
            bucket_len: 60,
            ..ProcessingConfig::default()
        }
    }

    #[test]
    fn replay_measures_every_algorithm_on_every_query() {
        let stream = tiny_stream();
        let config = tiny_config();
        let report = replay_with_queries(&stream, &config).unwrap();
        assert_eq!(report.queries_run, 5);
        assert_eq!(report.measurements.len(), 5 * Algorithm::ALL.len());
        assert_eq!(report.elements_ingested, stream.len());
        assert!(report.total_update_time > Duration::ZERO);
        for alg in Algorithm::ALL {
            assert!(report.mean_query_millis(alg) >= 0.0);
            assert!(report.mean_score(alg) >= 0.0);
            let ratio = report.mean_evaluated_ratio(alg);
            assert!((0.0..=1.0).contains(&ratio), "{alg} ratio {ratio}");
        }
        assert!(report.mean_update_millis_per_element() > 0.0);
    }

    #[test]
    fn index_algorithms_prune_evaluations_on_synthetic_streams() {
        let stream = tiny_stream();
        let config = tiny_config();
        let report = replay_with_queries(&stream, &config).unwrap();
        let celf_ratio = report.mean_evaluated_ratio(Algorithm::Celf);
        let mtts_ratio = report.mean_evaluated_ratio(Algorithm::Mtts);
        let mttd_ratio = report.mean_evaluated_ratio(Algorithm::Mttd);
        assert!(
            celf_ratio > 0.99,
            "CELF evaluates everything, got {celf_ratio}"
        );
        assert!(mtts_ratio < 0.6, "MTTS should prune, got {mtts_ratio}");
        assert!(mttd_ratio < 0.8, "MTTD should prune, got {mttd_ratio}");
    }

    #[test]
    fn quality_ordering_matches_the_paper() {
        let stream = tiny_stream();
        let config = tiny_config();
        let report = replay_with_queries(&stream, &config).unwrap();
        let celf = report.mean_score(Algorithm::Celf);
        let mttd = report.mean_score(Algorithm::Mttd);
        let mtts = report.mean_score(Algorithm::Mtts);
        let topk = report.mean_score(Algorithm::TopkRepresentative);
        assert!(celf > 0.0);
        assert!(mttd >= 0.95 * celf, "MTTD {mttd} vs CELF {celf}");
        assert!(mtts >= 0.90 * celf, "MTTS {mtts} vs CELF {celf}");
        assert!(topk <= celf + 1e-9, "Top-k {topk} cannot beat CELF {celf}");
    }

    #[test]
    fn deterministic_reports_for_the_same_seed() {
        let stream = tiny_stream();
        let config = tiny_config();
        let a = replay_with_queries(&stream, &config).unwrap();
        let b = replay_with_queries(&stream, &config).unwrap();
        let scores =
            |r: &ProcessingReport| -> Vec<f64> { r.measurements.iter().map(|m| m.score).collect() };
        assert_eq!(scores(&a), scores(&b));
    }
}
