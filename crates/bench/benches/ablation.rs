//! Ablation benchmarks for the design decisions called out in DESIGN.md:
//!
//! 1. **Ranked-list layout** — the ordered-set ranked list (`O(log n)` score
//!    adjustments, written by the known key as the engine writes it) against
//!    a naive sorted-`Vec` that re-sorts after every update, under the
//!    maintenance workload of Algorithm 1.
//! 2. **Marginal-gain evaluation** — the incremental coverage state
//!    (`CandidateState`, read through once-per-element `ElementProfile`s)
//!    against recomputing `f(S ∪ {e}) − f(S)` from scratch while greedily
//!    building a k-element result.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use ksir_bench::{build_engine, ProcessingConfig};
use ksir_core::{ProfileArena, QueryEvaluator};
use ksir_datagen::{DatasetProfile, QueryWorkloadGenerator, StreamGenerator};
use ksir_stream::RankedList;
use ksir_types::{ElementId, Timestamp};

/// Naive alternative to [`RankedList`]: a vector kept sorted by re-sorting
/// after every mutation.
#[derive(Default)]
struct SortedVecList {
    entries: Vec<(ElementId, f64, Timestamp)>,
}

impl SortedVecList {
    fn upsert(&mut self, id: ElementId, score: f64, ts: Timestamp) {
        if let Some(e) = self.entries.iter_mut().find(|(i, _, _)| *i == id) {
            *e = (id, score, ts);
        } else {
            self.entries.push((id, score, ts));
        }
        self.entries
            .sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    }
}

fn update_workload(n: u64) -> Vec<(ElementId, f64, Timestamp)> {
    // Mixed inserts and score adjustments, as produced by Algorithm 1.
    (0..n)
        .map(|i| {
            let id = ElementId(i % (n / 2).max(1));
            (id, ((i * 31) % 991) as f64 / 991.0, Timestamp(i))
        })
        .collect()
}

fn bench_ranked_list_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_ranked_list_layout");
    group.sample_size(20);
    for &n in &[2_000u64, 20_000] {
        let workload = update_workload(n);
        group.bench_function(BenchmarkId::new("ordered_set", n), |b| {
            b.iter(|| {
                let mut list = RankedList::new();
                // Each element's current score by id, as the engine keeps it
                // by slot: the list is written by the known key.
                let mut stored: Vec<Option<f64>> = vec![None; (n / 2).max(1) as usize];
                for &(id, score, ts) in &workload {
                    let old = stored[id.raw() as usize].replace(score);
                    list.write(id, old, score, ts);
                }
                black_box(list.len())
            })
        });
        // The naive layout is quadratic; keep it to the smaller size so the
        // benchmark suite stays fast while still showing the gap.
        if n <= 2_000 {
            group.bench_function(BenchmarkId::new("resorted_vec", n), |b| {
                b.iter(|| {
                    let mut list = SortedVecList::default();
                    for &(id, score, ts) in &workload {
                        list.upsert(id, score, ts);
                    }
                    black_box(list.entries.len())
                })
            });
        }
    }
    group.finish();
}

fn bench_marginal_gain_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_marginal_gain");
    group.sample_size(20);

    let profile = DatasetProfile::reddit().scaled(0.25).with_topics(50);
    let stream = StreamGenerator::new(profile, 13)
        .unwrap()
        .generate()
        .unwrap();
    let config = ProcessingConfig::for_stream(&stream);
    let mut engine = build_engine(&stream, &config).unwrap();
    engine.ingest_stream(stream.iter_pairs()).unwrap();
    let vector = QueryWorkloadGenerator::new(&stream.planted, 3)
        .generate(1, stream.end_time())
        .unwrap()
        .remove(0)
        .vector;
    let scorer = engine.scorer();
    let candidates: Vec<ElementId> = engine.active_ids().into_iter().take(40).collect();
    let k = 10;

    group.bench_function("incremental_state", |b| {
        b.iter(|| {
            let evaluator = QueryEvaluator::new(scorer, &vector);
            // Each candidate element is scored once; every greedy round only
            // reads the profiles.
            let mut arena = ProfileArena::default();
            let profiles: Vec<_> = candidates
                .iter()
                .map(|&id| evaluator.profile(&mut arena, id))
                .collect();
            let mut state = evaluator.new_candidate();
            while state.len() < k {
                let best = profiles
                    .iter()
                    .map(|&profile| arena.get(profile))
                    .filter(|profile| !state.contains(profile.id()))
                    .map(|profile| (profile, evaluator.gain_of(&state, profile)))
                    .max_by(|a, b| a.1.total_cmp(&b.1));
                match best {
                    Some((profile, _)) => {
                        evaluator.insert_profile(&mut state, profile);
                    }
                    None => break,
                }
            }
            black_box(state.score())
        })
    });

    group.bench_function("from_scratch", |b| {
        b.iter(|| {
            let mut selected: Vec<ElementId> = Vec::new();
            while selected.len() < k {
                let best = candidates
                    .iter()
                    .filter(|id| !selected.contains(id))
                    .map(|&id| (id, scorer.marginal_gain(&vector, &selected, id)))
                    .max_by(|a, b| a.1.total_cmp(&b.1));
                match best {
                    Some((id, _)) => selected.push(id),
                    None => break,
                }
            }
            black_box(scorer.set_score(&vector, &selected))
        })
    });

    group.finish();
}

criterion_group!(
    benches,
    bench_ranked_list_ablation,
    bench_marginal_gain_ablation
);
criterion_main!(benches);
