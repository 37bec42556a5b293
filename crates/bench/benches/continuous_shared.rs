//! Shared evaluation plans vs per-subscription refresh.
//!
//! The subscriber-heavy regime: [`MaintenanceScenario::shared_smoke`] draws a
//! Zipf-popular population of standing queries from a small pool of plan
//! templates (identical vector/ε/algorithm, differing only in `k`), so most
//! subscriptions are plan-compatible with many others.  The two timed
//! configurations are the same replay with `ShardConfig::shared_plans` on
//! (each disturbed cluster pays one covering traversal, which answers every
//! distinct member `k`) and off (every disturbed member pays its own
//! traversal).  Decisions
//! are pinned identical (`crates/continuous/tests/shared_plans.rs` and the
//! `per_subscription` CI gate), so the timing gap is pure plan sharing.
//!
//! The full-scale population (100k subscriptions,
//! [`MaintenanceScenario::shared_standard`]) runs in the CI perf gate; this
//! bench keeps the smoke size so `--test` mode stays cheap.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use ksir_bench::MaintenanceScenario;

fn bench_shared_plans(c: &mut Criterion) {
    let scenario = MaintenanceScenario::shared_smoke();
    let mut group = c.benchmark_group("continuous_shared");
    group.sample_size(10);

    for (name, shared_plans) in [("clustered", true), ("per_subscription", false)] {
        group.bench_function(BenchmarkId::new(name, scenario.queries.len()), |b| {
            b.iter(|| scenario.run_shared_probe(shared_plans).stats)
        });
    }
    group.finish();
}

/// One-shot sharing report: how much evaluation the covering traversals
/// absorbed.
fn report_sharing(c: &mut Criterion) {
    let scenario = MaintenanceScenario::shared_smoke();
    let clustered = scenario.run_shared_probe(true);
    let baseline = scenario.run_shared_probe(false);
    assert_eq!(
        clustered.stats, baseline.stats,
        "plan clustering must change no refresh decision"
    );
    println!(
        "continuous_shared/sharing: {} subscriptions; {} covering traversals served {} shared \
         refreshes; {:.2} passes/subscription clustered vs {:.2} per-subscription",
        clustered.subscriptions,
        clustered.covering_evaluations(),
        clustered.shared_refreshes(),
        clustered.passes_per_subscription(),
        baseline.passes_per_subscription(),
    );
    let _ = c;
}

criterion_group!(benches, bench_shared_plans, report_sharing);
criterion_main!(benches);
