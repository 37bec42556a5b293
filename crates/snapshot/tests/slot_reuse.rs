//! A snapshot is immune to slot reuse.
//!
//! The engine keeps its per-element state by window slot, and hands a freed
//! slot to the next element it admits.  An epoch snapshot shares the window
//! and the rows as they were at capture, so once every element it holds has
//! expired from the live engine and its slot holds another element, the
//! snapshot must still answer exactly as it did at capture: the same ids and
//! the same score bits, for every size, under MTTS and MTTD alike.

use ksir_core::{Algorithm, EngineConfig, KsirEngine, KsirQuery, QuerySource, ScoringConfig};
use ksir_snapshot::EngineSnapshot;
use ksir_stream::WindowConfig;
use ksir_types::{
    DenseTopicWordTable, ElementId, QueryVector, SocialElement, SocialElementBuilder, Timestamp,
    TopicVector,
};

const TOPICS: usize = 4;
const VOCAB: u64 = 40;
const BUCKET: u64 = 2;

/// xorshift64*: a fixed stream of pseudo-random numbers, no dependency.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One bucket of `count` elements posted at `ts`, numbered on from
/// `next_id`: a few words each, and references to recent elements — active
/// ones, and expired ones the engine brings back from its archive.
fn bucket(
    gen: &mut Gen,
    next_id: &mut u64,
    ts: u64,
    count: usize,
) -> Vec<(SocialElement, TopicVector)> {
    (0..count)
        .map(|_| {
            let id = *next_id;
            *next_id += 1;
            let words: Vec<u32> = (0..2 + gen.below(4))
                .map(|_| gen.below(VOCAB) as u32)
                .collect();
            let mut element = SocialElementBuilder::new(id).at(ts).words(words);
            for _ in 0..gen.below(3) {
                let back = 1 + gen.below(60.min(id - 1).max(1));
                if back < id {
                    element = element.referencing(id - back);
                }
            }
            let weights = (0..TOPICS).map(|_| gen.unit() + 0.01).collect();
            let mut tv = TopicVector::from_values(weights).unwrap();
            tv.normalize();
            (element.build(), tv)
        })
        .collect()
}

/// `(ids, score bits)` of every answer of the panel: MTTS and MTTD at three
/// sizes for three query vectors.
fn panel(source: &dyn QuerySource) -> Vec<(Vec<ElementId>, u64)> {
    let vectors = [
        vec![1.0, 0.0, 0.0, 0.0],
        vec![0.25; TOPICS],
        vec![0.1, 0.2, 0.3, 0.4],
    ];
    let mut answers = Vec::new();
    for weights in vectors {
        let query = KsirQuery::new(3, QueryVector::new(weights).unwrap()).unwrap();
        for algorithm in [Algorithm::Mtts, Algorithm::Mttd] {
            for result in source.query_per_k(&query, &[1, 3, 6], algorithm).unwrap() {
                answers.push((result.elements, result.score.to_bits()));
            }
        }
    }
    answers
}

#[test]
fn a_snapshot_answers_alike_after_every_slot_it_holds_is_reused() {
    let mut gen = Gen(0x5eed_0f51);
    let rows: Vec<Vec<f64>> = (0..TOPICS)
        .map(|_| {
            let row: Vec<f64> = (0..VOCAB).map(|_| gen.unit() + 0.001).collect();
            let sum: f64 = row.iter().sum();
            row.into_iter().map(|p| p / sum).collect()
        })
        .collect();
    let phi = DenseTopicWordTable::from_rows(rows).unwrap();
    let config = EngineConfig::new(
        WindowConfig::new(10, BUCKET).unwrap(),
        ScoringConfig::default(),
    );
    let mut engine = KsirEngine::new(phi, config).unwrap();
    let (mut next_id, mut ts) = (1, 0);
    for _ in 0..15 {
        ts += BUCKET;
        let b = bucket(&mut gen, &mut next_id, ts, 8);
        engine.ingest_bucket(b, Timestamp(ts)).unwrap();
    }

    let snapshot = EngineSnapshot::capture(&engine, 1);
    let captured = panel(&snapshot);
    assert_eq!(
        captured,
        panel(&engine),
        "the snapshot starts as the engine"
    );
    let held: Vec<_> = snapshot
        .window()
        .ids()
        .map(|id| (id, snapshot.window().slot(id).unwrap()))
        .collect();
    assert!(held.len() > 20, "only {} elements captured", held.len());

    // A busier stream, until each captured element has expired and its slot
    // has held another element since.
    let mut reused = vec![false; held.len()];
    let mut slides = 0;
    while reused.contains(&false) {
        assert!(slides < 200, "the captured slots were never all reused");
        ts += BUCKET;
        let b = bucket(&mut gen, &mut next_id, ts, 12);
        engine.ingest_bucket(b, Timestamp(ts)).unwrap();
        slides += 1;
        for (done, &(id, slot)) in reused.iter_mut().zip(&held) {
            let other = engine.window().id_at(slot).is_some_and(|other| other != id);
            *done |= other && !engine.is_active(id);
        }
    }
    let stats = engine.stats();
    assert!(stats.window_cow_clones >= 1 && stats.topic_vector_cow_clones >= 1);

    assert_eq!(panel(&snapshot), captured, "the snapshot drifted");
    assert_ne!(panel(&engine), captured, "the live engine never moved");
}
