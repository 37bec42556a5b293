//! The clean workload every chaos script starts from: a Twitter-shaped
//! stream replayed bucket by bucket while a panel of narrow standing queries
//! is kept current.

use ksir_core::stream::WindowConfig;
use ksir_core::{Algorithm, EngineConfig, KsirEngine, KsirQuery, ScoringConfig};
use ksir_datagen::{DatasetProfile, GeneratedStream, StreamGenerator};
use ksir_types::{DenseTopicWordTable, QueryVector};

/// A generated stream plus the standing queries to maintain over it.
pub(crate) struct Workload {
    /// The element stream.
    pub(crate) stream: GeneratedStream,
    /// The standing queries and their algorithms.
    pub(crate) queries: Vec<(KsirQuery, Algorithm)>,
    window: WindowConfig,
    scoring: ScoringConfig,
}

impl Workload {
    /// A ~10k-element / 50-topic stream, a 6-hour window with 15-minute
    /// buckets, and 16 standing queries on 1–2 support topics each,
    /// alternating MTTD and MTTS.
    pub(crate) fn standard() -> Self {
        Self::sized(1.67, 16)
    }

    /// The same shape at a tenth of the stream and 8 queries.
    pub(crate) fn smoke() -> Self {
        Self::sized(0.1, 8)
    }

    fn sized(scale: f64, num_subscriptions: usize) -> Self {
        let profile = DatasetProfile::twitter().scaled(scale).with_topics(50);
        let stream = StreamGenerator::new(profile, 4242)
            .unwrap()
            .generate()
            .unwrap();
        let num_topics = stream.planted.num_topics();
        let queries = (0..num_subscriptions)
            .map(|i| {
                let mut weights = vec![0.0; num_topics];
                weights[(3 * i) % num_topics] = 0.8;
                weights[(3 * i + 1) % num_topics] = 0.2;
                let query = KsirQuery::new(10, QueryVector::new(weights).unwrap()).unwrap();
                let algorithm = if i % 2 == 0 {
                    Algorithm::Mttd
                } else {
                    Algorithm::Mtts
                };
                (query, algorithm)
            })
            .collect();
        Workload {
            stream,
            queries,
            window: WindowConfig::new(6 * 60, 15).unwrap(),
            scoring: ScoringConfig::new(0.5, 1.0).unwrap(),
        }
    }

    /// A fresh, empty engine over the workload's planted topic model.
    pub(crate) fn engine(&self) -> KsirEngine<DenseTopicWordTable> {
        KsirEngine::new(
            self.stream.planted.phi().clone(),
            EngineConfig::new(self.window, self.scoring),
        )
        .unwrap()
    }
}
