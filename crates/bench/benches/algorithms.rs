//! Micro-benchmarks of the five query-processing algorithms on one fixed
//! engine state (the per-query cost Figure 9 aggregates), and the `per_k`
//! group: what a plan cluster's distinct `k` cost — one `query_per_k` pass
//! at `k ∈ {8, 6, 4, 2}` against four single-`k` queries.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use ksir_bench::{build_engine, ProcessingConfig};
use ksir_core::{Algorithm, KsirEngine, KsirQuery};
use ksir_datagen::{DatasetProfile, QueryWorkloadGenerator, StreamGenerator};
use ksir_types::DenseTopicWordTable;

/// The engine at the end of one dataset shape's stream (scaled to half,
/// 50 topics) and eight generated queries at `k = 10`.
fn shape(profile: DatasetProfile) -> (KsirEngine<DenseTopicWordTable>, Vec<KsirQuery>) {
    let profile = profile.scaled(0.5).with_topics(50);
    let stream = StreamGenerator::new(profile, 5)
        .unwrap()
        .generate()
        .unwrap();
    let config = ProcessingConfig::for_stream(&stream);
    let mut engine = build_engine(&stream, &config).unwrap();
    engine.ingest_stream(stream.iter_pairs()).unwrap();
    let workload = QueryWorkloadGenerator::new(&stream.planted, 77)
        .generate(8, stream.end_time())
        .unwrap();
    let queries = workload
        .into_iter()
        .map(|q| KsirQuery::new(10, q.vector).unwrap())
        .collect();
    (engine, queries)
}

fn bench_algorithms(c: &mut Criterion) {
    let mut group = c.benchmark_group("algorithms");
    group.sample_size(20);

    for profile in [DatasetProfile::twitter(), DatasetProfile::reddit()] {
        let name = profile.name.clone();
        let (engine, queries) = shape(profile);

        for algorithm in Algorithm::ALL {
            group.bench_function(BenchmarkId::new(algorithm.name(), &name), |b| {
                let mut i = 0usize;
                b.iter(|| {
                    i = (i + 1) % queries.len();
                    black_box(engine.query(&queries[i], algorithm).unwrap())
                })
            });
        }
    }
    group.finish();
}

/// A plan cluster's four member sizes on the Twitter-shaped window: one
/// pass serving all of them (`one_pass`) against one query per size
/// (`per_size`), for the index-based algorithms a cluster refresh runs.
fn bench_per_k(c: &mut Criterion) {
    const KS: [usize; 4] = [8, 6, 4, 2];
    let mut group = c.benchmark_group("per_k");
    group.sample_size(20);
    let (engine, queries) = shape(DatasetProfile::twitter());
    let at: Vec<[KsirQuery; 4]> = queries
        .iter()
        .map(|q| KS.map(|k| KsirQuery::new(k, q.vector().clone()).unwrap()))
        .collect();

    for algorithm in [
        Algorithm::Mtts,
        Algorithm::Mttd,
        Algorithm::TopkRepresentative,
    ] {
        group.bench_function(BenchmarkId::new("one_pass", algorithm.name()), |b| {
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 1) % queries.len();
                black_box(engine.query_per_k(&queries[i], &KS, algorithm).unwrap())
            })
        });
        group.bench_function(BenchmarkId::new("per_size", algorithm.name()), |b| {
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 1) % queries.len();
                for query in &at[i] {
                    black_box(engine.query(query, algorithm).unwrap());
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_algorithms, bench_per_k);
criterion_main!(benches);
