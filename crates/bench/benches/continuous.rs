//! Standing-query maintenance: managed (skip-rule) refresh vs
//! recompute-per-slide.
//!
//! The workload the `ksir-continuous` subsystem exists for: a 10k-element
//! Twitter-shaped stream replayed bucket by bucket while 16 standing queries
//! must be kept current (the shared [`MaintenanceScenario`]).
//! `managed` maintains them through the `SubscriptionManager` in its
//! PR-1 serial configuration (skipping subscriptions whose support topics
//! were not disturbed above their traversal floors); `recompute_per_slide`
//! is the naive baseline that re-runs every query after every bucket.  Both
//! replay the same pre-generated stream from a fresh engine, so the measured
//! gap is exactly the maintenance saving.  The sharded configurations are
//! measured separately in `continuous_sharded.rs`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use ksir_bench::MaintenanceScenario;
use ksir_continuous::ShardConfig;

fn bench_standing_queries(c: &mut Criterion) {
    let scenario = MaintenanceScenario::standard();
    let mut group = c.benchmark_group("continuous");
    group.sample_size(10);

    group.bench_function(BenchmarkId::new("managed", scenario.stream.len()), |b| {
        b.iter(|| scenario.run_managed(ShardConfig::unsharded()).stats)
    });

    group.bench_function(
        BenchmarkId::new("recompute_per_slide", scenario.stream.len()),
        |b| b.iter(|| scenario.run_recompute().stats),
    );

    group.finish();
}

/// One-shot report of how much work the delta rules skip on this workload
/// (printed alongside the timings so the bench output is self-explaining).
fn report_skip_rate(c: &mut Criterion) {
    let scenario = MaintenanceScenario::standard();
    let run = scenario.run_managed(ShardConfig::unsharded());
    let potential = run.stats.slides * scenario.queries.len();
    println!(
        "continuous/skip_rate: {} slides x {} subscriptions = {} evaluations; \
         {} refreshes, {} skips ({:.1}% saved)",
        run.stats.slides,
        scenario.queries.len(),
        potential,
        run.stats.refreshes,
        run.stats.skips,
        100.0 * run.skip_ratio(),
    );
    let _ = c;
}

criterion_group!(benches, bench_standing_queries, report_skip_rate);
criterion_main!(benches);
