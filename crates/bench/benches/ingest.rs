//! Micro-benchmarks of the index write (Algorithm 1): one bucket through the
//! engine, and one slide of the bare active window.
//!
//! Both routines run at a **full window** over an endless stationary stream
//! (fixed elements per bucket, references at a fixed distance distribution),
//! so every iteration does the same amount of work; the bucket is built
//! outside the timed section.
//!
//! * `engine_ingest/{aminer,twitter}` — one `KsirEngine::ingest_bucket` of
//!   [`ENGINE_BUCKET`] elements; time per iteration ÷ `ENGINE_BUCKET` is
//!   ns per element.
//! * `engine_ingest_held/{aminer,twitter}` — the same bucket with an
//!   `EngineSnapshot` captured (untimed) before the ingest and dropped right
//!   after it, inside the timing: what the asynchronous pipeline's epoch
//!   snapshot costs a write — the copy-on-write clones of everything the
//!   write touches, and freeing them — over `engine_ingest`.
//! * `engine_fan_in/{100,1000,10000}` — the engine routine over a stream in
//!   which every element references one planted parent, timed once that
//!   parent has gained 10², 10³ and 10⁴ children (the window is long enough
//!   to keep them all); time per iteration ÷ [`ENGINE_BUCKET`] is ns per
//!   element.  A write proportional to the new references costs the same
//!   in all three rows; one that re-walks the parent's children grows with
//!   its fan-in.
//! * `window_slide/{10k,100k}` — insert one bucket of [`SLIDE_BUCKET`]
//!   elements into an `ActiveWindow` holding ~10k / ~100k elements, then
//!   `parents_losing_children` + `advance_to`.  The bucket is the same size
//!   at both populations: a slide that costs what it changed takes the same
//!   time in both rows ("flat in `n_t`").

use std::cell::RefCell;
use std::hint::black_box;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};

use ksir_bench::{build_engine, ProcessingConfig};
use ksir_core::{EngineConfig, KsirEngine, ScoringConfig};
use ksir_datagen::{DatasetProfile, GeneratedStream, StreamGenerator};
use ksir_snapshot::EngineSnapshot;
use ksir_stream::{ActiveWindow, WindowConfig};
use ksir_types::rng::seeded_rng;
use ksir_types::{Document, ElementId, SocialElement, Timestamp, TopicVector};
use rand::Rng as _;

/// Elements per bucket of the engine routine.
const ENGINE_BUCKET: u64 = 64;
/// Elements per bucket of the window routine.
const SLIDE_BUCKET: u64 = 256;
/// Children of the planted parent at which the fan-in routine is timed.
const FAN_INS: [u64; 3] = [100, 1_000, 10_000];

/// The shape of an endless stream: `per_bucket` elements spread evenly over
/// every `bucket_len` ticks, ids counting up from 1, each with about `refs`
/// references to elements at most `horizon` ids back.
#[derive(Debug, Clone, Copy)]
struct Shape {
    per_bucket: u64,
    bucket_len: u64,
    refs: f64,
    horizon: u64,
}

impl Shape {
    /// End time of bucket `b` (0-based).
    fn end(&self, b: u64) -> Timestamp {
        Timestamp((b + 1) * self.bucket_len)
    }

    /// The elements of bucket `b`, with documents drawn by id from `docs`
    /// (empty documents when there are none).
    fn bucket(&self, b: u64, docs: &[Document]) -> Vec<SocialElement> {
        (0..self.per_bucket)
            .map(|i| {
                let id = b * self.per_bucket + i + 1;
                let ts = b * self.bucket_len + 1 + i * self.bucket_len / self.per_bucket;
                // Seeded by the id: the stream is a pure function of the
                // bucket number.
                let mut rng = seeded_rng(id);
                let extra = rng.gen::<f64>() < self.refs.fract();
                let count = self.refs as u64 + u64::from(extra);
                let refs = (0..count)
                    .map(|_| rng.gen_range(1..=self.horizon))
                    .filter(|back| *back < id)
                    .map(|back| ElementId(id - back))
                    .collect();
                let doc = match docs.len() {
                    0 => Document::new(),
                    n => docs[id as usize % n].clone(),
                };
                SocialElement::new(ElementId(id), Timestamp(ts), doc, refs)
            })
            .collect()
    }
}

fn bench_engine_ingest(c: &mut Criterion) {
    engine_ingest_group(c, "engine_ingest", false);
    engine_ingest_group(c, "engine_ingest_held", true);
}

/// The engine routine, with an epoch snapshot alive across each timed ingest
/// iff `held`.
fn engine_ingest_group(c: &mut Criterion, name: &str, held: bool) {
    let mut group = c.benchmark_group(name);
    group.sample_size(30);
    group.throughput(Throughput::Elements(ENGINE_BUCKET));
    for profile in [DatasetProfile::aminer(), DatasetProfile::twitter()] {
        let name = profile.name.clone();
        let stream = content(&profile);
        let docs: Vec<Document> = stream.elements.iter().map(|e| e.doc.clone()).collect();
        let vectors: &[TopicVector] = &stream.topic_vectors;
        let config = ProcessingConfig::default();
        let per_window = ENGINE_BUCKET * config.window_len / config.bucket_len;
        let shape = Shape {
            per_bucket: ENGINE_BUCKET,
            bucket_len: config.bucket_len,
            refs: profile.avg_refs,
            horizon: per_window * profile.reference_horizon / config.window_len,
        };
        let items = |b: u64| -> Vec<(SocialElement, TopicVector)> {
            shape
                .bucket(b, &docs)
                .into_iter()
                .map(|e| {
                    let tv = vectors[e.id.raw() as usize % vectors.len()].clone();
                    (e, tv)
                })
                .collect()
        };
        let mut engine = build_engine(&stream, &config).unwrap();
        // Two windows of warm-up: the second one already expires elements.
        let mut next = 0u64;
        while next < 2 * config.window_len / config.bucket_len {
            engine.ingest_bucket(items(next), shape.end(next)).unwrap();
            next += 1;
        }
        // The set-up captures from the engine the routine writes to.
        let engine = RefCell::new(engine);
        group.bench_function(BenchmarkId::from_parameter(&name), |b| {
            b.iter_batched(
                || {
                    next += 1;
                    let snapshot = held.then(|| EngineSnapshot::capture(&engine.borrow(), next));
                    (items(next - 1), shape.end(next - 1), snapshot)
                },
                |(items, end, snapshot)| {
                    let report = engine.borrow_mut().ingest_bucket(items, end).unwrap();
                    drop(snapshot);
                    report
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// Documents, topic vectors and the topic model of `profile` from the dataset
/// generator, without references: the routines take ids, timestamps and
/// references from `Shape`.
fn content(profile: &DatasetProfile) -> GeneratedStream {
    let mut content = profile.clone();
    content.avg_refs = 0.0;
    StreamGenerator::new(content, 99)
        .unwrap()
        .generate()
        .unwrap()
}

fn bench_engine_fan_in(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_fan_in");
    group.sample_size(20);
    group.throughput(Throughput::Elements(ENGINE_BUCKET));
    let profile = DatasetProfile::twitter();
    let stream = content(&profile);
    let docs: Vec<Document> = stream.elements.iter().map(|e| e.doc.clone()).collect();
    let vectors: &[TopicVector] = &stream.topic_vectors;
    let phi = Arc::new(stream.planted.phi().clone());
    let bucket_len = 15;
    // Room for the largest fan-in plus every timed iteration (at most ten
    // per sample): the planted parent loses no child over the run.
    let window_buckets = 2 * FAN_INS[2] / ENGINE_BUCKET + 10 * 20;
    let config = EngineConfig::new(
        WindowConfig::new(window_buckets * bucket_len, bucket_len).unwrap(),
        ScoringConfig::default(),
    );
    let shape = Shape {
        per_bucket: ENGINE_BUCKET,
        bucket_len,
        refs: profile.avg_refs,
        horizon: ENGINE_BUCKET * profile.reference_horizon / bucket_len,
    };
    // The planted parent is the stream's first element, id 1.
    let items = |b: u64| -> Vec<(SocialElement, TopicVector)> {
        shape
            .bucket(b, &docs)
            .into_iter()
            .map(|mut e| {
                if e.id.raw() > 1 {
                    e.refs.push(ElementId(1));
                }
                let tv = vectors[e.id.raw() as usize % vectors.len()].clone();
                (e, tv)
            })
            .collect()
    };
    for fan_in in FAN_INS {
        let mut engine = KsirEngine::new(Arc::clone(&phi), config).unwrap();
        let mut next = 0u64;
        while engine.window().influence_count(ElementId(1)) < fan_in as usize {
            engine.ingest_bucket(items(next), shape.end(next)).unwrap();
            next += 1;
        }
        group.bench_function(BenchmarkId::from_parameter(fan_in), |b| {
            b.iter_batched(
                || {
                    next += 1;
                    (items(next - 1), shape.end(next - 1))
                },
                |(items, end)| engine.ingest_bucket(items, end).unwrap(),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_window_slide(c: &mut Criterion) {
    let mut group = c.benchmark_group("window_slide");
    group.sample_size(30);
    group.throughput(Throughput::Elements(SLIDE_BUCKET));
    for (label, buckets_per_window) in [("10k", 40u64), ("100k", 400)] {
        let bucket_len = 16;
        let per_window = SLIDE_BUCKET * buckets_per_window;
        let shape = Shape {
            per_bucket: SLIDE_BUCKET,
            bucket_len,
            refs: 3.0,
            horizon: per_window,
        };
        let config = WindowConfig::new(bucket_len * buckets_per_window, bucket_len).unwrap();
        let mut window = ActiveWindow::new(config);
        let slide = |window: &mut ActiveWindow, elements: Vec<SocialElement>, end| {
            for element in elements {
                black_box(window.insert(element).unwrap());
            }
            black_box(window.parents_losing_children(end));
            black_box(window.advance_to(end).unwrap())
        };
        let mut next = 0u64;
        while next < 2 * buckets_per_window {
            slide(&mut window, shape.bucket(next, &[]), shape.end(next));
            next += 1;
        }
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter_batched(
                || {
                    next += 1;
                    (shape.bucket(next - 1, &[]), shape.end(next - 1))
                },
                |(elements, end)| slide(&mut window, elements, end),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_engine_ingest,
    bench_engine_fan_in,
    bench_window_slide
);
criterion_main!(benches);
