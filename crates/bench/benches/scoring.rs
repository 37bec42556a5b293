//! Micro-benchmarks of the representativeness scoring primitives: singleton
//! scores, set scores and incremental marginal gains over a realistic active
//! window.
//!
//! `marginal_gain/<candidates>` is the kernel's unit of work on the record:
//! one *pass* = one retrieved element profiled once and tested against 1, 8
//! or 31 candidate sets (31 is `|Φ|` at `k = 10`, `ε = 0.1`) that share the
//! profile.  Time per iteration ÷ passes per iteration (printed once per
//! profile) is ns-per-pass.  `grid_gain/<candidates>` is the same pass — same
//! members, same probes — with the candidates held as the columns of one
//! `CoverageTable`, the layout MTTS and SieveStreaming use, and
//! `grid_insert/<candidates>` is the admission that follows: the element
//! profiled once and inserted into all of those columns.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};

use ksir_bench::{build_engine, ProcessingConfig};
use ksir_core::{KsirQuery, ProfileArena, QueryEvaluator};
use ksir_datagen::{DatasetProfile, QueryWorkloadGenerator, StreamGenerator};
use ksir_types::{DenseTopicWordTable, ElementId};

struct Setup {
    engine: ksir_core::KsirEngine<DenseTopicWordTable>,
    query: KsirQuery,
    ids: Vec<ElementId>,
}

fn setup(profile: DatasetProfile) -> Setup {
    let profile = profile.scaled(0.25).with_topics(50);
    let stream = StreamGenerator::new(profile, 99)
        .unwrap()
        .generate()
        .unwrap();
    let config = ProcessingConfig::for_stream(&stream);
    let mut engine = build_engine(&stream, &config).unwrap();
    engine.ingest_stream(stream.iter_pairs()).unwrap();
    let workload = QueryWorkloadGenerator::new(&stream.planted, 7)
        .generate(1, stream.end_time())
        .unwrap();
    let query = KsirQuery::new(10, workload[0].vector.clone()).unwrap();
    let ids = engine.active_ids();
    Setup { engine, query, ids }
}

fn bench_scoring(c: &mut Criterion) {
    let mut group = c.benchmark_group("scoring");
    group.sample_size(30);
    for profile in [DatasetProfile::twitter(), DatasetProfile::aminer()] {
        let name = profile.name.clone();
        let s = setup(profile);
        let scorer = s.engine.scorer();
        let vector = s.query.vector().clone();
        let sample: Vec<ElementId> = s.ids.iter().copied().take(10).collect();

        group.bench_function(BenchmarkId::new("singleton_delta", &name), |b| {
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 1) % s.ids.len();
                black_box(scorer.delta(&vector, s.ids[i]))
            })
        });

        group.bench_function(BenchmarkId::new("set_score_10", &name), |b| {
            b.iter(|| black_box(scorer.set_score(&vector, &sample)))
        });

        group.bench_function(
            BenchmarkId::new("incremental_marginal_gain_10", &name),
            |b| {
                b.iter(|| {
                    let evaluator = QueryEvaluator::new(scorer, &vector);
                    let mut state = evaluator.new_candidate();
                    let mut arena = ProfileArena::default();
                    let mut total = 0.0;
                    for &id in &sample {
                        arena.clear();
                        let profile = evaluator.profile(&mut arena, id);
                        total += evaluator.gain_of(&state, arena.get(profile));
                        evaluator.insert_profile(&mut state, arena.get(profile));
                    }
                    black_box(total)
                })
            },
        );

        // The MTTS / SieveStreaming shape: every probed element is profiled
        // once and its gain read against each candidate.  Half of the
        // elements relevant to the query pre-fill the candidates (so the
        // coverage lookups hit), the other half are probed.
        let evaluator = QueryEvaluator::new(scorer, &vector);
        let relevant: Vec<ElementId> = s
            .ids
            .iter()
            .copied()
            .filter(|&id| evaluator.delta(id) > 0.0)
            .collect();
        let (members, probes) = relevant.split_at(relevant.len() / 2);
        println!(
            "scoring/marginal_gain/{name}: {} passes per iteration",
            probes.len()
        );
        for candidates in [1usize, 8, 31] {
            let states: Vec<_> = (0..candidates)
                .map(|c| {
                    let mut state = evaluator.new_candidate();
                    for &id in members.iter().cycle().skip(c).take(members.len().min(5)) {
                        evaluator.insert(&mut state, id);
                    }
                    state
                })
                .collect();
            group.bench_function(
                BenchmarkId::new(format!("marginal_gain/{candidates}"), &name),
                |b| {
                    let mut arena = ProfileArena::default();
                    b.iter(|| {
                        let mut total = 0.0;
                        for &id in probes {
                            arena.clear();
                            let profile = evaluator.profile(&mut arena, id);
                            let profile = arena.get(profile);
                            for state in &states {
                                total += evaluator.gain_of(state, profile);
                            }
                        }
                        black_box(total)
                    })
                },
            );

            // The same candidates as columns: column `c` holds members `c`,
            // `c + 1`, … (cyclically), each admitted into all of its columns
            // at once, as the grid admits.
            let prefilled = || {
                let mut table = evaluator.new_table(candidates);
                let mut arena = ProfileArena::default();
                let (mut columns, mut realised) = (Vec::new(), Vec::new());
                let (n, held) = (members.len(), members.len().min(5));
                for (j, &id) in members.iter().enumerate() {
                    columns.clear();
                    columns.extend((0..candidates).filter(|&c| (j + n - c % n) % n < held));
                    arena.clear();
                    let profile = evaluator.profile(&mut arena, id);
                    evaluator.insert_columns(
                        &mut table,
                        &columns,
                        arena.get(profile),
                        &mut realised,
                    );
                }
                table
            };
            let columns: Vec<usize> = (0..candidates).collect();
            let mut table = prefilled();
            let mut arena = ProfileArena::default();
            group.bench_function(
                BenchmarkId::new(format!("grid_gain/{candidates}"), &name),
                |b| {
                    let mut gains = Vec::new();
                    b.iter(|| {
                        let mut total = 0.0;
                        for &id in probes {
                            arena.clear();
                            let profile = evaluator.profile(&mut arena, id);
                            evaluator.column_gains(
                                &mut table,
                                &columns,
                                arena.get(profile),
                                &mut gains,
                            );
                            total += gains.iter().sum::<f64>();
                        }
                        black_box(total)
                    })
                },
            );
            // Each iteration admits every probe into a freshly pre-filled
            // table, so every insert finds what a first admission finds.
            group.bench_function(
                BenchmarkId::new(format!("grid_insert/{candidates}"), &name),
                |b| {
                    let mut realised = Vec::new();
                    b.iter_batched(
                        prefilled,
                        |mut table| {
                            let mut total = 0.0;
                            for &id in probes {
                                arena.clear();
                                let profile = evaluator.profile(&mut arena, id);
                                evaluator.insert_columns(
                                    &mut table,
                                    &columns,
                                    arena.get(profile),
                                    &mut realised,
                                );
                                total += realised.iter().sum::<f64>();
                            }
                            (table, total)
                        },
                        BatchSize::SmallInput,
                    )
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_scoring);
criterion_main!(benches);
