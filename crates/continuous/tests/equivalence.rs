//! Equivalence of delta-maintained subscription results with from-scratch
//! queries.
//!
//! The contract of `SubscriptionManager` is that after every slide, each
//! subscription's stored result is exactly what `KsirEngine::query` would
//! return for the same query, algorithm, and engine state — whether the
//! slide refreshed the subscription or the delta rules proved a skip safe.
//! These tests check the contract on the paper's Table 1 example and on
//! randomly planted streams, and additionally pin the expiry-triggered
//! recompute path.

use ksir_continuous::{RefreshReason, SubscriptionId, SubscriptionManager};
use ksir_core::fixtures::paper_example;
use ksir_core::stream::{for_each_bucket, WindowConfig};
use ksir_core::{Algorithm, EngineConfig, KsirEngine, KsirQuery, ScoringConfig};
use ksir_datagen::{DatasetProfile, QueryWorkloadGenerator, StreamGenerator};
use ksir_types::{DenseTopicWordTable, ElementId, QueryVector, Timestamp};

fn assert_equivalent<D: ksir_types::TopicWordDistribution>(
    mgr: &SubscriptionManager<D>,
    subs: &[(SubscriptionId, KsirQuery, Algorithm)],
    context: &str,
) {
    for (id, query, algorithm) in subs {
        let fresh = mgr.engine().query(query, *algorithm).unwrap();
        let maintained = mgr.result(*id).unwrap_or_else(|| {
            panic!("{context}: {id} has no maintained result");
        });
        assert_eq!(
            maintained.sorted_elements(),
            fresh.sorted_elements(),
            "{context}: {id} ({algorithm}) maintained elements diverge from scratch"
        );
        assert!(
            (maintained.score - fresh.score).abs() < 1e-9,
            "{context}: {id} ({algorithm}) maintained score {} != scratch {}",
            maintained.score,
            fresh.score
        );
    }
}

/// On the paper's Table 1 stream, results maintained slide-by-slide equal
/// ad-hoc queries at every one of the eight timestamps, for every algorithm.
#[test]
fn paper_example_results_match_scratch_at_every_slide() {
    let ex = paper_example();
    let mut mgr = SubscriptionManager::new(ex.empty_engine());
    let queries = [
        (2, vec![0.5, 0.5]),
        (2, vec![1.0, 0.0]),
        (3, vec![0.2, 0.8]),
    ];
    let algorithms = [
        Algorithm::Mtts,
        Algorithm::Mttd,
        Algorithm::Celf,
        Algorithm::SieveStreaming,
        Algorithm::TopkRepresentative,
    ];
    let mut subs = Vec::new();
    for (k, weights) in &queries {
        for &algorithm in &algorithms {
            let query = KsirQuery::new(*k, QueryVector::new(weights.clone()).unwrap()).unwrap();
            let id = mgr.subscribe(query.clone(), algorithm).unwrap();
            subs.push((id, query, algorithm));
        }
    }

    for (element, tv) in ex.stream() {
        let end = element.ts;
        mgr.ingest_bucket(vec![(element, tv)], end).unwrap();
        assert_equivalent(&mgr, &subs, &format!("paper t={end}"));
    }

    // Example 3.4: the 0.5/0.5 MTTD subscription converged on {e1, e3}.
    let mttd = subs
        .iter()
        .find(|(_, q, a)| {
            *a == Algorithm::Mttd && q.k() == 2 && q.vector().weight(ksir_types::TopicId(0)) == 0.5
        })
        .unwrap();
    let result = mgr.result(mttd.0).unwrap();
    assert!(result.score > 0.6, "OPT ≈ 0.65 in the paper");
}

/// Random planted streams: after every slide, every subscription (random
/// query vectors, mixed algorithms) matches a from-scratch query, and the
/// delta rules actually skip work.
#[test]
fn planted_stream_results_match_scratch_after_every_slide() {
    for seed in [7u64, 21, 63] {
        let profile = DatasetProfile::twitter().scaled(0.02).with_topics(12);
        let stream = StreamGenerator::new(profile, seed)
            .unwrap()
            .generate()
            .unwrap();
        assert!(stream.len() > 50, "stream too small to be meaningful");

        let window = WindowConfig::new(240, 30).unwrap();
        let config = EngineConfig::new(window, ScoringConfig::default());
        let engine: KsirEngine<DenseTopicWordTable> =
            KsirEngine::new(stream.planted.phi().clone(), config).unwrap();
        let mut mgr = SubscriptionManager::new(engine);

        let workload = QueryWorkloadGenerator::new(&stream.planted, seed ^ 0xabcd)
            .generate(6, stream.end_time())
            .unwrap();
        // Cover the frontier-less algorithms (CELF, SieveStreaming) too:
        // their skip rule is the any-support-topic-touch fallback, which
        // must also be equivalence-safe on random streams.
        let algorithms = [
            Algorithm::Mtts,
            Algorithm::Mttd,
            Algorithm::TopkRepresentative,
            Algorithm::Celf,
            Algorithm::SieveStreaming,
        ];
        let mut subs = Vec::new();
        for (i, generated) in workload.into_iter().enumerate() {
            let query = KsirQuery::new(5, generated.vector).unwrap();
            let algorithm = algorithms[i % algorithms.len()];
            let id = mgr.subscribe(query.clone(), algorithm).unwrap();
            subs.push((id, query, algorithm));
        }

        for outcome in mgr.ingest_stream(stream.iter_pairs()).unwrap() {
            assert_eq!(
                outcome.refreshed + outcome.skipped,
                subs.len(),
                "every subscription is classified each slide"
            );
        }
        assert_equivalent(&mgr, &subs, &format!("planted seed={seed}"));

        let stats = mgr.stats();
        assert!(stats.slides > 3, "stream should span several buckets");
    }
}

/// Replaying slide-by-slide (instead of only checking at the end) on a
/// smaller planted stream, so skips are exercised mid-stream too.
#[test]
fn planted_stream_equivalence_holds_mid_stream() {
    // ~100 ticks of stream; T = 40, L = 10 gives ~10 slides with real expiry.
    let profile = DatasetProfile::reddit().scaled(0.01).with_topics(8);
    let stream = StreamGenerator::new(profile, 5)
        .unwrap()
        .generate()
        .unwrap();

    let window = WindowConfig::new(40, 10).unwrap();
    let config = EngineConfig::new(window, ScoringConfig::default());
    let engine: KsirEngine<DenseTopicWordTable> =
        KsirEngine::new(stream.planted.phi().clone(), config).unwrap();
    let mut mgr = SubscriptionManager::new(engine);

    let workload = QueryWorkloadGenerator::new(&stream.planted, 99)
        .generate(4, stream.end_time())
        .unwrap();
    let mut subs = Vec::new();
    for (i, generated) in workload.into_iter().enumerate() {
        let algorithm = if i % 2 == 0 {
            Algorithm::Mttd
        } else {
            Algorithm::Mtts
        };
        let query = KsirQuery::new(3, generated.vector).unwrap();
        let id = mgr.subscribe(query.clone(), algorithm).unwrap();
        subs.push((id, query, algorithm));
    }

    // Shared bucket cutting, asserting equivalence after each slide.
    let start = mgr.engine().now();
    let slides = for_each_bucket(10, start, stream.iter_pairs(), |bucket, end| {
        mgr.ingest_bucket(bucket, end)?;
        assert_equivalent(&mgr, &subs, &format!("mid-stream t={end}"));
        Ok(())
    })
    .unwrap();
    assert!(slides >= 5, "expected several slides, got {slides}");

    // The delta rules must have skipped at least some evaluations overall —
    // otherwise standing queries degenerate to recompute-per-slide.
    let total_skips: usize = subs
        .iter()
        .filter_map(|(id, _, _)| mgr.subscription_stats(*id))
        .map(|s| s.skips)
        .sum();
    assert!(total_skips > 0, "no slide skipped any subscription");
}

/// Regression: when a stored result member expires out of the window, the
/// subscription is recomputed (not carried over), drops the dead element,
/// and matches a from-scratch query.
#[test]
fn expiry_of_a_result_member_triggers_recompute() {
    let ex = paper_example();
    // T = 4, L = 1 (paper config).  Subscribe over the full example engine
    // state at t = 8, where e3 is in the 0.5/0.5 MTTD result.
    let mut mgr = SubscriptionManager::new(ex.build_engine());
    let query = KsirQuery::new(2, QueryVector::new(vec![0.5, 0.5]).unwrap()).unwrap();
    let subs: Vec<(SubscriptionId, KsirQuery, Algorithm)> = [Algorithm::Mttd, Algorithm::Celf]
        .into_iter()
        .map(|algorithm| {
            let id = mgr.subscribe(query.clone(), algorithm).unwrap();
            (id, query.clone(), algorithm)
        })
        .collect();
    let initial: Vec<ElementId> = mgr.result(subs[0].0).unwrap().sorted_elements();
    assert_eq!(initial, vec![ElementId(1), ElementId(3)], "Example 3.4");

    // Advance far enough that the whole window drains: every stored member
    // expires, so both subscriptions must recompute down to empty results.
    let outcome = mgr.ingest_bucket(vec![], Timestamp(20)).unwrap();
    assert!(outcome.report.expired > 0);
    assert_eq!(outcome.refreshed, 2, "both subscriptions must refresh");
    for update in &outcome.updates {
        assert_eq!(update.reason, RefreshReason::MemberExpired);
        assert!(update.added.is_empty());
        assert!(!update.removed.is_empty());
        assert_eq!(update.score_after, 0.0);
    }
    assert_equivalent(&mgr, &subs, "after full expiry");
    assert!(mgr.result(subs[0].0).unwrap().is_empty());

    // Partial expiry: rebuild at t = 8, then slide one tick so e1 (posted
    // t=1, last referenced t=5 by e5) drops out at t = 10 while e3 stays
    // (referenced by e8 at t=8).  The subscription must shed exactly the
    // expired member and re-match scratch.
    let ex = paper_example();
    let mut mgr = SubscriptionManager::new(ex.build_engine());
    let id = mgr.subscribe(query.clone(), Algorithm::Mttd).unwrap();
    let before = mgr.result(id).unwrap().sorted_elements();
    assert!(before.contains(&ElementId(1)));
    let outcome = mgr.ingest_bucket(vec![], Timestamp(10)).unwrap();
    assert!(
        outcome.report.delta.lost(ElementId(1)),
        "e1 expires at t=10"
    );
    let update = outcome
        .updates
        .iter()
        .find(|u| u.subscription == id)
        .expect("expiry of a member must surface a delta");
    assert_eq!(update.reason, RefreshReason::MemberExpired);
    assert!(update.removed.contains(&ElementId(1)));
    assert_equivalent(&mgr, &[(id, query, Algorithm::Mttd)], "after e1 expiry");
    assert!(!mgr.result(id).unwrap().contains(ElementId(1)));
}

/// Subscriptions registered mid-stream start serving from their first slide.
#[test]
fn mid_stream_subscription_catches_up() {
    let ex = paper_example();
    let mut mgr = SubscriptionManager::new(ex.empty_engine());
    let stream = ex.stream();
    let query = KsirQuery::new(2, QueryVector::new(vec![0.5, 0.5]).unwrap()).unwrap();

    let mut late_sub = None;
    for (i, (element, tv)) in stream.into_iter().enumerate() {
        let end = element.ts;
        if i == 4 {
            // Register after t = 4: evaluated immediately against t = 4 state.
            let id = mgr.subscribe(query.clone(), Algorithm::Mtts).unwrap();
            let fresh = mgr.engine().query(&query, Algorithm::Mtts).unwrap();
            assert_eq!(
                mgr.result(id).unwrap().sorted_elements(),
                fresh.sorted_elements()
            );
            late_sub = Some(id);
        }
        mgr.ingest_bucket(vec![(element, tv)], end).unwrap();
    }
    let id = late_sub.unwrap();
    assert_equivalent(&mgr, &[(id, query, Algorithm::Mtts)], "late subscription");
}
