//! End-to-end pipeline test: raw social text → preprocessing → LDA topic
//! model → k-SIR engine → queries.
//!
//! This exercises the full stack the paper describes in Figure 4 with a small
//! hand-written "two communities" stream (soccer vs basketball), checking
//! that keyword queries inferred through the topic model retrieve elements
//! from the right community.

use ksir_core::stream::WindowConfig;
use ksir_core::{Algorithm, EngineConfig, KsirEngine, KsirQuery, ScoringConfig};
use ksir_text::TextPipeline;
use ksir_topics::{LdaTrainer, TopicModel, TopicOracle};
use ksir_types::{ElementId, QueryVector, SocialElementBuilder, Timestamp};

/// Raw posts: even indices are soccer, odd indices are basketball.  Each post
/// references the previous post of its own community.
fn raw_posts() -> Vec<&'static str> {
    vec![
        "liverpool wins the champions league final tonight #ucl",
        "lebron dominates the playoffs with a triple double #nba",
        "madrid and liverpool meet in the champions league final #ucl",
        "warriors beat the rockets in the playoffs #nba basketball",
        "premier league title race goes to the final day #epl soccer",
        "celtics playoffs run continues with a huge win #nba basketball",
        "champions league semifinal drama as liverpool scores late #ucl soccer",
        "lebron scores forty points in the playoffs again #nba",
        "premier league champions crowned after dramatic final day #epl soccer",
        "playoffs mvp debate heats up around lebron #nba basketball",
    ]
}

fn build_pipeline_and_model() -> (TextPipeline, TopicModel, Vec<ksir_types::Document>) {
    let mut pipeline = TextPipeline::new();
    let docs: Vec<_> = raw_posts().iter().map(|t| pipeline.process(t)).collect();
    let model = LdaTrainer::new(2)
        .unwrap()
        .with_alpha(1.0)
        .with_iterations(200)
        .with_seed(13)
        .train(&docs, pipeline.vocab_size())
        .unwrap();
    (pipeline, model, docs)
}

fn build_engine(
    model: &TopicModel,
    docs: &[ksir_types::Document],
) -> KsirEngine<ksir_types::DenseTopicWordTable> {
    let config = EngineConfig::new(
        WindowConfig::new(20, 1).unwrap(),
        ScoringConfig::new(0.5, 2.0).unwrap(),
    );
    let mut engine = KsirEngine::new(model.topic_word_table().clone(), config).unwrap();
    for (i, doc) in docs.iter().enumerate() {
        let id = i as u64 + 1;
        let ts = i as u64 + 1;
        let mut builder = SocialElementBuilder::new(id).at(ts);
        for (w, c) in doc.iter() {
            for _ in 0..c {
                builder = builder.word(w.raw());
            }
        }
        // Reference the previous post of the same community (soccer: even
        // indices; basketball: odd indices).
        if i >= 2 {
            builder = builder.referencing(id - 2);
        }
        let element = builder.build();
        let tv = model.infer_document(doc);
        engine
            .ingest_bucket(vec![(element, tv)], Timestamp(ts))
            .unwrap();
    }
    engine
}

#[test]
fn keyword_queries_retrieve_the_right_community() {
    let (pipeline, model, docs) = build_pipeline_and_model();
    let engine = build_engine(&model, &docs);
    assert_eq!(engine.active_count(), 10);

    // Query by keywords, exactly as a user would (query-by-keyword paradigm).
    let soccer_keywords = pipeline.process_readonly("champions league soccer liverpool");
    let basketball_keywords = pipeline.process_readonly("lebron playoffs basketball");
    let soccer_query = model.infer_query(&soccer_keywords).unwrap();
    let basketball_query = model.infer_query(&basketball_keywords).unwrap();

    let soccer_ids: Vec<u64> = vec![1, 3, 5, 7, 9];
    let basketball_ids: Vec<u64> = vec![2, 4, 6, 8, 10];

    for (query_vector, own, other) in [
        (soccer_query, &soccer_ids, &basketball_ids),
        (basketball_query, &basketball_ids, &soccer_ids),
    ] {
        let q = KsirQuery::new(3, query_vector).unwrap();
        let result = engine.query(&q, Algorithm::Mttd).unwrap();
        assert_eq!(result.len(), 3);
        let own_hits = result
            .elements
            .iter()
            .filter(|id| own.contains(&id.raw()))
            .count();
        let other_hits = result
            .elements
            .iter()
            .filter(|id| other.contains(&id.raw()))
            .count();
        assert!(
            own_hits > other_hits,
            "expected mostly on-topic elements, got {:?}",
            result.elements
        );
    }
}

#[test]
fn mtts_and_mttd_agree_with_celf_quality_on_the_pipeline() {
    let (_pipeline, model, docs) = build_pipeline_and_model();
    let engine = build_engine(&model, &docs);
    let q = KsirQuery::new(4, QueryVector::uniform(2).unwrap()).unwrap();
    let celf = engine.query(&q, Algorithm::Celf).unwrap();
    let mtts = engine.query(&q, Algorithm::Mtts).unwrap();
    let mttd = engine.query(&q, Algorithm::Mttd).unwrap();
    assert!(celf.score > 0.0);
    // The paper reports ≥95% (MTTS) and ≥99% (MTTD) of CELF's quality.
    assert!(
        mtts.score >= 0.90 * celf.score,
        "MTTS {} vs CELF {}",
        mtts.score,
        celf.score
    );
    assert!(
        mttd.score >= 0.95 * celf.score,
        "MTTD {} vs CELF {}",
        mttd.score,
        celf.score
    );
}

#[test]
fn refreshing_the_topic_model_keeps_the_engine_usable() {
    // The "future work" extension: swap in a re-trained topic model and keep
    // answering queries (the engine itself is parameterised by φ, so a new
    // engine over the refreshed oracle picks up where the old one left off).
    let (_pipeline, mut model, docs) = build_pipeline_and_model();
    let retrained = LdaTrainer::new(2)
        .unwrap()
        .with_alpha(1.0)
        .with_iterations(100)
        .with_seed(99)
        .train(&docs, model.vocab_size())
        .unwrap();
    model.refresh(retrained).unwrap();
    let engine = build_engine(&model, &docs);
    let q = KsirQuery::new(2, QueryVector::uniform(2).unwrap()).unwrap();
    let r = engine.query(&q, Algorithm::Mttd).unwrap();
    assert_eq!(r.len(), 2);
    assert!(r.score > 0.0);
    assert!(r.elements.iter().all(|id| *id >= ElementId(1)));
}
