//! Shard routing and sharded-refresh equivalence.
//!
//! The sharded manager must be observably indistinguishable from the serial
//! PR-1 walk: score-identical maintained results at every slide, identical
//! refresh/skip decisions (the shard filters are a conservative union of the
//! per-subscription rules), and counters that reconcile to
//! `slides × subscriptions`.  These tests pin that on the paper's Table 1
//! example and on planted streams, across serial, sharded, and forced-
//! multi-thread configurations, and additionally pin the overflow routing of
//! broad queries.

mod common;

use common::{planted_manager, Manager, Sub};
use ksir_continuous::{ShardConfig, ShardKey, SubscriptionManager};
use ksir_core::fixtures::paper_example;
use ksir_core::{Algorithm, KsirQuery};
use ksir_types::{QueryVector, TopicId};

fn query(k: usize, weights: &[f64]) -> KsirQuery {
    KsirQuery::new(k, QueryVector::new(weights.to_vec()).unwrap()).unwrap()
}

fn assert_equivalent(mgr: &Manager, subs: &[Sub], context: &str) {
    for (id, q, algorithm) in subs {
        let fresh = mgr.engine().query(q, *algorithm).unwrap();
        let maintained = mgr.result(*id).unwrap();
        assert_eq!(
            maintained.sorted_elements(),
            fresh.sorted_elements(),
            "{context}: {id} diverges from scratch"
        );
        assert!(
            (maintained.score - fresh.score).abs() < 1e-9,
            "{context}: {id} score {} != scratch {}",
            maintained.score,
            fresh.score
        );
    }
}

/// A broad-support subscription lands in the overflow shard and still
/// refreshes correctly as the stream advances.
#[test]
fn broad_subscription_lands_in_overflow_and_refreshes() {
    let ex = paper_example();
    // Threshold 1: any support wider than one topic overflows.
    let config = ShardConfig::serial().with_overflow_support_threshold(1);
    let mut mgr = SubscriptionManager::with_shard_config(ex.empty_engine(), config);
    let broad = mgr
        .subscribe(query(2, &[0.5, 0.5]), Algorithm::Mttd)
        .unwrap();
    let narrow = mgr
        .subscribe(query(1, &[1.0, 0.0]), Algorithm::Mtts)
        .unwrap();
    assert_eq!(mgr.shard_of(broad), Some(ShardKey::Overflow));
    assert!(mgr.shard_of(broad).unwrap().is_overflow());
    assert_eq!(mgr.shard_of(narrow), Some(ShardKey::Topic(TopicId(0))));

    for (element, tv) in ex.stream() {
        let end = element.ts;
        mgr.ingest_bucket(vec![(element, tv)], end).unwrap();
        let fresh = mgr
            .engine()
            .query(&query(2, &[0.5, 0.5]), Algorithm::Mttd)
            .unwrap();
        assert_eq!(
            mgr.result(broad).unwrap().sorted_elements(),
            fresh.sorted_elements(),
            "overflow-resident subscription must track the stream"
        );
    }
    // The overflow shard did real work and its counters reconcile.
    let overflow = mgr
        .shard_stats()
        .into_iter()
        .find(|s| s.key.is_overflow())
        .expect("overflow shard exists");
    assert_eq!(overflow.subscriptions, 1);
    assert!(overflow.refreshes >= 1);
    assert_eq!(
        overflow.refreshes + overflow.skips,
        mgr.stats().slides,
        "one classification per slide for the single overflow resident"
    );
}

/// Sharded (default), explicitly serial, and unsharded managers produce
/// identical maintained results AND identical refresh/skip counters — the
/// shard filters never change a per-subscription decision, only batch them.
#[test]
fn sharded_matches_unsharded_results_and_counters() {
    for seed in [7u64, 21] {
        let configs = [
            ShardConfig::unsharded(),
            ShardConfig::serial(),
            ShardConfig::default().with_threads(Some(4)),
        ];
        let mut runs = Vec::new();
        for config in configs {
            let (mut mgr, subs, stream) = planted_manager(seed, config);
            for outcome in mgr.ingest_stream(stream.iter_pairs()).unwrap() {
                assert_eq!(
                    outcome.refreshed + outcome.skipped,
                    subs.len(),
                    "every subscription is classified each slide"
                );
            }
            assert_equivalent(&mgr, &subs, &format!("seed={seed} {config:?}"));
            let per_sub: Vec<_> = subs
                .iter()
                .map(|(id, _, _)| mgr.subscription_stats(*id).unwrap())
                .collect();
            runs.push((mgr.stats(), per_sub));
        }
        let (baseline_stats, baseline_per_sub) = &runs[0];
        assert!(baseline_stats.skips > 0, "delta rules must skip some work");
        for (stats, per_sub) in &runs[1..] {
            assert_eq!(stats, baseline_stats, "seed={seed}: aggregate counters");
            assert_eq!(per_sub, baseline_per_sub, "seed={seed}: per-sub counters");
        }
    }
}

/// Forcing multiple worker threads (even on a single-core host) produces
/// slide outcomes identical to the serial path, updates ordered by
/// subscription id.
#[test]
fn forced_parallel_refresh_matches_serial_slide_by_slide() {
    let (mut serial, serial_subs, stream) = planted_manager(63, ShardConfig::serial());
    let (mut parallel, parallel_subs, _) =
        planted_manager(63, ShardConfig::default().with_threads(Some(4)));
    // Same workload construction order ⇒ same ids.
    assert_eq!(
        serial_subs.iter().map(|s| s.0).collect::<Vec<_>>(),
        parallel_subs.iter().map(|s| s.0).collect::<Vec<_>>()
    );

    let serial_outcomes = serial.ingest_stream(stream.iter_pairs()).unwrap();
    let parallel_outcomes = parallel.ingest_stream(stream.iter_pairs()).unwrap();
    assert_eq!(serial_outcomes.len(), parallel_outcomes.len());
    for (s, p) in serial_outcomes.iter().zip(&parallel_outcomes) {
        assert_eq!(s.updates, p.updates, "updates must match and be ordered");
        assert_eq!(s.refreshed, p.refreshed);
        assert_eq!(s.skipped, p.skipped);
        assert!(s
            .updates
            .windows(2)
            .all(|w| w[0].subscription < w[1].subscription));
    }
    assert_equivalent(&parallel, &parallel_subs, "forced-parallel final state");
}

/// Shard counters reconcile: summed over shards they equal the manager's
/// aggregates, and refreshes + skips = slides × subscriptions.
#[test]
fn shard_counters_reconcile_to_slides_times_subscriptions() {
    let (mut mgr, subs, stream) = planted_manager(5, ShardConfig::default());
    mgr.ingest_stream(stream.iter_pairs()).unwrap();
    let stats = mgr.stats();
    assert_eq!(stats.refreshes + stats.skips, stats.slides * subs.len());

    let shard_stats = mgr.shard_stats();
    assert!(!shard_stats.is_empty());
    let total_subs: usize = shard_stats.iter().map(|s| s.subscriptions).sum();
    assert_eq!(total_subs, subs.len());
    let refreshes: usize = shard_stats.iter().map(|s| s.refreshes).sum();
    let skips: usize = shard_stats.iter().map(|s| s.skips).sum();
    assert_eq!(refreshes, stats.refreshes);
    assert_eq!(skips, stats.skips);
    for shard in &shard_stats {
        assert_eq!(
            shard.scheduled_slides + shard.skipped_slides,
            stats.slides,
            "{}: every slide either schedules or skips the shard",
            shard.key
        );
        let rate = shard.skip_rate();
        assert!((0.0..=1.0).contains(&rate));
    }
}
