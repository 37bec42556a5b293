//! Micro-benchmarks of the per-topic ranked lists (Algorithm 1's data
//! structure): inserts, score adjustments and ordered traversal.
//!
//! Every write goes by the known key, as the engine's does: the bench keeps
//! each element's current score beside the list (the engine keeps it by
//! slot), since the list itself cannot find an entry by id.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use ksir_stream::RankedList;
use ksir_types::{ElementId, Timestamp};

/// The score `filled_list` gives element `i`.
fn initial_score(i: u64) -> f64 {
    ((i * 37) % 1000) as f64 / 1000.0
}

fn filled_list(n: u64) -> RankedList {
    let mut list = RankedList::new();
    for i in 0..n {
        list.write(ElementId(i), None, initial_score(i), Timestamp(i));
    }
    list
}

fn bench_ranked_list(c: &mut Criterion) {
    let mut group = c.benchmark_group("ranked_list");
    group.sample_size(30);

    for &n in &[1_000u64, 10_000, 100_000] {
        group.throughput(Throughput::Elements(n));
        group.bench_function(BenchmarkId::new("build", n), |b| {
            b.iter(|| black_box(filled_list(n)))
        });

        let list = filled_list(n);
        group.bench_function(BenchmarkId::new("adjust_score", n), |b| {
            let mut list = list.clone_for_bench();
            // Element i's current score, as the engine's tuple table holds it.
            let mut scores: Vec<f64> = (0..n).map(initial_score).collect();
            let mut i = 0u64;
            b.iter(|| {
                i = (i + 1) % n;
                let score = ((i * 13) % 997) as f64 / 997.0;
                let old = std::mem::replace(&mut scores[i as usize], score);
                list.write(ElementId(i), Some(old), score, Timestamp(i));
            })
        });

        group.bench_function(BenchmarkId::new("traverse_top_100", n), |b| {
            b.iter(|| {
                let mut cursor = list.cursor();
                let mut sum = 0.0;
                for _ in 0..100 {
                    match cursor.current() {
                        Some((_, s, _)) => sum += s,
                        None => break,
                    }
                    cursor.advance();
                }
                black_box(sum)
            })
        });
    }
    group.finish();
}

/// Helper so the adjust benchmark does not mutate the shared list.
trait CloneForBench {
    fn clone_for_bench(&self) -> RankedList;
}

impl CloneForBench for RankedList {
    fn clone_for_bench(&self) -> RankedList {
        let mut out = RankedList::new();
        for (id, score, ts) in self.iter() {
            out.write(id, None, score, ts);
        }
        out
    }
}

criterion_group!(benches, bench_ranked_list);
criterion_main!(benches);
