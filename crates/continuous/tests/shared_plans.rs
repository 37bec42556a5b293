//! Shared-evaluation-plan equivalence at the manager level.
//!
//! Scheduled shards serve each disturbed plan cluster from one **covering**
//! traversal that answers every member at its own `k`.  The contract is
//! **cost only**.  Slide for slide, the manager classifies the same
//! subscriptions, emits the same result deltas, and keeps the same results
//! as the per-subscription [`SerialWalk`]; only the `refresh.cluster.*`
//! counters — covering traversals actually run, member refreshes served by
//! sharing — and the scoring passes move.

mod common;

use common::{
    ingest_against_walk, manager_over, planted_stream, walk_stream, Manager, SerialWalk, Sub,
    TOPICS,
};
use std::collections::{BTreeMap, BTreeSet};

use ksir_continuous::{ShardConfig, ShardKey, SubscriptionId, SubscriptionManager};
use ksir_core::stream::{for_each_bucket, WindowConfig};
use ksir_core::{Algorithm, EngineConfig, KsirEngine, KsirQuery, ScoringConfig};
use ksir_datagen::{DatasetProfile, StreamGenerator};
use ksir_types::QueryVector;

/// A clustering-heavy workload: `groups` plan groups of `per_group`
/// subscriptions each.  Members of one group share a query vector and an
/// algorithm but differ in `k`, so each group lands in one plan cluster with
/// several variants; distinct groups use distinct vectors (and cycle through
/// every algorithm, including the exhaustive baselines).
fn workload(groups: usize, per_group: usize) -> Vec<(KsirQuery, Algorithm)> {
    let algorithms = [
        Algorithm::Mtts,
        Algorithm::Mttd,
        Algorithm::TopkRepresentative,
        Algorithm::Celf,
        Algorithm::SieveStreaming,
    ];
    let mut subs = Vec::new();
    for g in 0..groups {
        let mut weights = vec![0.0; TOPICS];
        weights[(2 * g) % TOPICS] = 0.7;
        weights[(2 * g + 3) % TOPICS] = 0.3;
        let vector = QueryVector::new(weights).unwrap();
        let algorithm = algorithms[g % algorithms.len()];
        for m in 0..per_group {
            // k ∈ {2, 4, 6, ...} with repeats, so clusters hold both
            // same-k sharers and cross-k specialization variants.
            let k = 2 + 2 * (m % 3);
            subs.push((KsirQuery::new(k, vector.clone()).unwrap(), algorithm));
        }
    }
    subs
}

/// One plan cluster per algorithm with members at `k ∈ {2, 4, 6, 8}`, so a
/// disturbed cluster serves four sizes from its one traversal.  The vectors
/// differ from every [`workload`] group's.
fn k_ladders() -> Vec<(KsirQuery, Algorithm)> {
    let mut subs = Vec::new();
    for (a, algorithm) in Algorithm::ALL.into_iter().enumerate() {
        let mut weights = vec![0.0; TOPICS];
        weights[(2 * a + 1) % TOPICS] = 0.6;
        weights[(2 * a + 4) % TOPICS] = 0.4;
        let vector = QueryVector::new(weights).unwrap();
        for k in [2, 4, 6, 8] {
            subs.push((KsirQuery::new(k, vector.clone()).unwrap(), algorithm));
        }
    }
    subs
}

/// The subscriber-heavy regime plan sharing exists for: `n` standing queries
/// drawn from 48 plan templates (a 2-topic query vector and an
/// index-traversal algorithm) with Zipf(1) popularity, `k` cycling through
/// 2/4/6/8 by registration order.  A fixed-seed LCG draws the templates, so
/// the population and every scoring-pass count are deterministic.
fn zipf_population(n: usize, num_topics: usize) -> Vec<(KsirQuery, Algorithm)> {
    const TEMPLATES: usize = 48;
    let templates: Vec<(QueryVector, Algorithm)> = (0..TEMPLATES)
        .map(|t| {
            let mut weights = vec![0.0; num_topics];
            // Distinct 2-topic mixes: the `t / 25` nudge keeps the second
            // topic from colliding when `2t` wraps mod 50.
            weights[(2 * t) % num_topics] = 0.7;
            weights[(2 * t + 7 + t / 25) % num_topics] = 0.3;
            let algorithm = match t % 3 {
                0 => Algorithm::Mtts,
                1 => Algorithm::Mttd,
                _ => Algorithm::TopkRepresentative,
            };
            (QueryVector::new(weights).unwrap(), algorithm)
        })
        .collect();
    // Zipf(1) over template ranks: cumulative weights once, then one LCG
    // draw and a binary search per subscription.
    let cumulative: Vec<f64> = (1..=TEMPLATES)
        .scan(0.0, |total, rank| {
            *total += 1.0 / rank as f64;
            Some(*total)
        })
        .collect();
    let total = cumulative[TEMPLATES - 1];
    let mut state: u64 = 0x243F_6A88_85A3_08D3;
    (0..n)
        .map(|i| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let u = (state >> 11) as f64 / (1u64 << 53) as f64 * total;
            let rank = cumulative.partition_point(|c| *c < u).min(TEMPLATES - 1);
            let (vector, algorithm) = &templates[rank];
            let query = KsirQuery::new(2 + 2 * (i % 4), vector.clone()).unwrap();
            (query, *algorithm)
        })
        .collect()
}

/// Sums one `ShardStats` field over live shards.
fn shard_sum(mgr: &Manager, field: impl Fn(&ksir_continuous::ShardStats) -> usize) -> usize {
    mgr.shard_stats().iter().map(field).sum()
}

/// Covering traversals run so far (`refresh.cluster.covering`).
fn covering(mgr: &Manager) -> usize {
    counter(mgr, "refresh.cluster.covering")
}

/// Refreshes served by sharing a covering traversal
/// (`refresh.cluster.shared`).
fn shared(mgr: &Manager) -> usize {
    counter(mgr, "refresh.cluster.shared")
}

fn counter(mgr: &Manager, name: &'static str) -> usize {
    mgr.telemetry().registry().counter(name).get() as usize
}

/// The contract, end to end: the clustered manager makes the walk's
/// decisions on every slide and ends on its results and per-subscription
/// counters, while serving refreshes from covering runs with fewer scoring
/// passes than the walk's one query per refresh.
#[test]
fn shared_plans_match_per_subscription_walk_slide_for_slide() {
    for seed in [11u64, 29] {
        let stream = planted_stream(seed);
        let (mut mgr, subs) = manager_over(&stream, ShardConfig::default(), &workload(6, 4));
        let mut walk = SerialWalk::over(&subs, &mgr.engine());
        ingest_against_walk(&mut mgr, &mut walk, stream.iter_pairs());
        walk.assert_matches(&mgr, &format!("seed {seed}"));

        let covering = covering(&mgr);
        let shared = shared(&mgr);
        let refreshes = mgr.stats().refreshes;
        assert!(covering > 0, "seed {seed}: no covering run ever happened");
        assert!(shared > 0, "seed {seed}: no refresh was served by sharing");
        assert_eq!(
            covering + shared,
            refreshes,
            "every refresh is either its own evaluation or shared"
        );
        assert!(
            covering < refreshes,
            "seed {seed}: clustering ran as many evaluations as refreshes"
        );
        let passes = gain_evaluations(&mgr);
        assert!(
            passes < walk.gain_evaluations,
            "seed {seed}: clustering did not reduce scoring passes \
             ({passes} vs {})",
            walk.gain_evaluations
        );
    }
}

/// The `refresh.gain_evaluations` counter: scoring passes of every
/// slide-driven run.
fn gain_evaluations(mgr: &Manager) -> usize {
    counter(mgr, "refresh.gain_evaluations")
}

/// The point of plan sharing, as a count: over 2 000 Zipf subscriptions the
/// clustered manager makes the per-subscription walk's decisions with at
/// least 5× fewer scoring passes than the walk's queries.
#[test]
fn zipf_population_shares_scoring_passes_for_identical_decisions() {
    let profile = DatasetProfile::twitter().scaled(0.05).with_topics(50);
    let stream = StreamGenerator::new(profile, 4242)
        .unwrap()
        .generate()
        .unwrap();
    let engine: KsirEngine<_> = KsirEngine::new(
        stream.planted.phi().clone(),
        EngineConfig::new(
            WindowConfig::new(6 * 60, 15).unwrap(),
            ScoringConfig::new(0.5, 1.0).unwrap(),
        ),
    )
    .unwrap();
    let mut mgr = SubscriptionManager::with_shard_config(engine, ShardConfig::default());
    let subs: Vec<Sub> = zipf_population(2_000, stream.planted.num_topics())
        .into_iter()
        .map(|(query, algorithm)| {
            (
                mgr.subscribe(query.clone(), algorithm).unwrap(),
                query,
                algorithm,
            )
        })
        .collect();
    let mut walk = SerialWalk::over(&subs, &mgr.engine());
    ingest_against_walk(&mut mgr, &mut walk, stream.iter_pairs());
    walk.assert_matches(&mgr, "zipf");

    assert!(covering(&mgr) > 0);
    assert!(shared(&mgr) > 0, "templates must overlap");
    let passes = gain_evaluations(&mgr);
    assert!(
        passes * 5 <= walk.gain_evaluations,
        "clustered {passes} vs per-subscription {} scoring passes",
        walk.gain_evaluations
    );
}

/// `refresh.cluster.skipped` counts exactly the scheduled clusters in which
/// the per-subscription walk refreshes no member, and
/// `refresh.cluster.covering` the clusters in which it refreshes some.  A
/// shard is scheduled when the walk refreshes one of its residents; a plan
/// cluster is a shard's members with one vector, `ε` and algorithm.
#[test]
fn skipped_clusters_are_the_walks_untouched_clusters() {
    // Zipf templates put several plan clusters in each topic shard.
    let stream = planted_stream(53);
    let population = zipf_population(80, TOPICS);
    let (mut mgr, subs) = manager_over(&stream, ShardConfig::default(), &population);
    let mut clusters: BTreeMap<ClusterId, Vec<SubscriptionId>> = BTreeMap::new();
    for (id, query, algorithm) in &subs {
        let shard = mgr.shard_of(*id).expect("live subscription");
        let plan = (query.vector().support())
            .into_iter()
            .map(|(topic, weight)| (topic.0, weight.to_bits()))
            .collect();
        let algorithm = Algorithm::ALL.iter().position(|a| a == algorithm).unwrap();
        let key = (shard, plan, query.epsilon().to_bits(), algorithm);
        clusters.entry(key).or_default().push(*id);
    }
    assert!(clusters.values().any(|members| members.len() > 1));

    let (_, slides) = walk_stream(&stream, &subs);
    let (mut skipped, mut covering_runs) = (0, 0);
    for slide in &slides {
        let refreshed = |id: &SubscriptionId| slide.refreshed_ids.contains(id);
        let scheduled: BTreeSet<ShardKey> = (clusters.iter())
            .filter(|(_, members)| members.iter().any(refreshed))
            .map(|(key, _)| key.0)
            .collect();
        for (key, members) in &clusters {
            if !scheduled.contains(&key.0) {
                continue;
            }
            if members.iter().any(refreshed) {
                covering_runs += 1;
            } else {
                skipped += 1;
            }
        }
    }
    mgr.ingest_stream(stream.iter_pairs()).unwrap();
    assert!(skipped > 0, "no scheduled cluster was ever skipped");
    assert_eq!(counter(&mgr, "refresh.cluster.skipped"), skipped);
    assert_eq!(covering(&mgr), covering_runs);
}

/// A plan cluster as the test derives it: shard, `(topic, weight bits)` of
/// the vector's support, `ε` bits, algorithm index.
type ClusterId = (ShardKey, Vec<(u32, u64)>, u64, usize);

/// The `refresh.cluster.*` registry counters reconcile exactly with the
/// refresh count across churn: shards retired mid-stream keep their work in
/// the counters, so every slide-driven refresh — live or retired shard — is
/// either a covering traversal or served by sharing one.
#[test]
fn cluster_counters_reconcile_with_stats() {
    let stream = planted_stream(29);
    let (mut mgr, subs) = manager_over(&stream, ShardConfig::default(), &workload(5, 4));
    let pairs: Vec<_> = stream.iter_pairs().collect();
    let half = pairs.len() / 2;
    mgr.ingest_stream(pairs[..half].iter().cloned()).unwrap();
    // Retire members mid-stream, emptying at least one shard.
    for (id, _, _) in &subs[..6] {
        assert!(mgr.unsubscribe(*id));
    }
    mgr.ingest_stream(pairs[half..].iter().cloned()).unwrap();

    assert!(counter(&mgr, "shard.retired") > 0, "no shard retired");
    let stats = mgr.stats();
    assert_eq!(
        covering(&mgr) + shared(&mgr),
        stats.refreshes,
        "every refresh is either its own traversal or shared"
    );
    // The retired shards' work is in the totals but no live shard's.
    let live = shard_sum(&mgr, |s| s.refreshes + s.skips);
    assert!(live < stats.refreshes + stats.skips);
}

/// Mid-stream churn re-clusters without disturbing the survivors: new
/// members join existing clusters (merge), departures shrink or retire them
/// (split/retire), a forced refresh replaces one member's result — and
/// through all of it every slide stays pinned to the walk performing the
/// identical churn.
#[test]
fn churn_reclusters_without_changing_surviving_decisions() {
    let stream = planted_stream(47);
    let (mut mgr, subs) = manager_over(&stream, ShardConfig::default(), &workload(4, 3));
    let mut walk = SerialWalk::over(&subs, &mgr.engine());
    let pairs: Vec<_> = stream.iter_pairs().collect();
    let third = pairs.len() / 3;
    ingest_against_walk(&mut mgr, &mut walk, pairs[..third].iter().cloned());
    // Churn: drop one member of each of the first three clusters (split),
    // retire the fourth cluster outright, then register a late workload
    // whose first four groups merge into surviving clusters.
    for i in [0, 3, 6, 9, 10, 11] {
        assert!(mgr.unsubscribe(subs[i].0));
        walk.unsubscribe(subs[i].0);
    }
    for (query, algorithm) in &workload(6, 2) {
        let id = mgr.subscribe(query.clone(), *algorithm).unwrap();
        walk.subscribe(id, query, *algorithm, &mgr.engine());
    }
    // A forced refresh outside the slide stream.
    let forced = subs[2].0;
    assert_eq!(mgr.refresh(forced), walk.refresh(forced, &mgr.engine()));
    ingest_against_walk(&mut mgr, &mut walk, pairs[third..].iter().cloned());
    walk.assert_matches(&mgr, "churn");

    // The emptied cluster retired its shard, whose work stays in the
    // registry's totals (which the walk pinned above) but in no live shard.
    assert!(counter(&mgr, "shard.retired") > 0, "no shard retired");
    let stats = mgr.stats();
    let live = shard_sum(&mgr, |s| s.refreshes + s.skips);
    assert!(live < stats.refreshes + stats.skips);
}

/// Shared plans compose with the pipelined ingestion path: covering runs
/// against epoch snapshots keep the walk's maintained results and work
/// accounting.
#[test]
fn shared_plans_compose_with_the_pipelined_path() {
    // 4 per group so clusters hold same-k sharers (k = 2,4,6,2), not just
    // cross-k variants — both sharing modes must survive the pipeline.
    let stream = planted_stream(61);
    let config = ShardConfig::default();
    let (mut mgr, subs) = manager_over(&stream, config, &workload(6, 4));
    let tickets = mgr.ingest_stream_async(stream.iter_pairs()).unwrap();
    mgr.sync();
    assert_eq!(mgr.completed_epoch(), tickets.len() as u64);
    let (walk, slides) = walk_stream(&stream, &subs);
    assert_eq!(slides.len(), tickets.len(), "same bucket cutting");
    walk.assert_matches(&mgr, "pipelined");
    assert!(
        covering(&mgr) > 0,
        "the pipelined path never ran a covering evaluation"
    );
    assert!(
        shared(&mgr) > 0,
        "the pipelined path never shared a refresh"
    );
}

/// Every refresh is one plain query: after every slide — on the synchronous
/// path and on the pipelined depth-2 path — each subscription refreshed on
/// that slide stores exactly what `KsirEngine::query` of its own query
/// returns on the engine at that slide, cost counters and frontier included,
/// although its cluster served all of its member sizes from one traversal.
/// A skipped subscription keeps the elements and score a fresh run would
/// return (its counters describe the run that produced it).
///
/// The cost side counts traversals: one per cluster with a member refreshed
/// on the slide, every other refresh shared.
#[test]
fn every_refresh_stores_what_a_fresh_query_returns() {
    // Plan clusters of four members each, in registration order: five
    // `workload` groups (k = 2, 4, 6, 2) and one k-ladder per algorithm.
    let mut subs = workload(5, 4);
    subs.extend(k_ladders());
    let cluster_of = |index: usize| index / 4;
    for pipelined in [false, true] {
        let stream = planted_stream(73);
        let config = ShardConfig::default();
        let (mut mgr, registered) = manager_over(&stream, config, &subs);
        let ids: Vec<_> = registered.iter().map(|s| s.0).collect();
        let mut refreshed_checks = 0;
        let mut traversals = 0;
        let (bucket_len, start) = {
            let engine = mgr.engine();
            (engine.config().window.bucket_len(), engine.now())
        };
        for_each_bucket(bucket_len, start, stream.iter_pairs(), |bucket, end| {
            let before: Vec<usize> = ids
                .iter()
                .map(|id| mgr.subscription_stats(*id).unwrap().refreshes)
                .collect();
            if pipelined {
                mgr.ingest_bucket_async(bucket, end)?.detach();
                mgr.sync();
            } else {
                mgr.ingest_bucket(bucket, end)?;
            }
            let slide = mgr.stats().slides;
            let mut disturbed = std::collections::BTreeSet::new();
            for (index, ((id, (query, algorithm)), before)) in
                ids.iter().zip(&subs).zip(&before).enumerate()
            {
                let stored = mgr.result(*id).unwrap();
                let fresh = mgr.engine().query(query, *algorithm).unwrap();
                assert_eq!(stored.elements, fresh.elements, "slide {slide}: {id}");
                assert_eq!(
                    stored.score.to_bits(),
                    fresh.score.to_bits(),
                    "slide {slide}: {id} score"
                );
                if mgr.subscription_stats(*id).unwrap().refreshes > *before {
                    assert_eq!(
                        stored,
                        fresh,
                        "slide {slide}: {id} ({algorithm}, k = {})",
                        query.k()
                    );
                    refreshed_checks += 1;
                    disturbed.insert(cluster_of(index));
                }
            }
            traversals += disturbed.len();
            Ok(())
        })
        .unwrap();
        assert!(
            refreshed_checks > 0,
            "pipelined = {pipelined}: no subscription ever refreshed"
        );
        let covering = covering(&mgr);
        assert_eq!(
            covering, traversals,
            "pipelined = {pipelined}: one traversal per disturbed cluster"
        );
        assert_eq!(
            covering + shared(&mgr),
            mgr.stats().refreshes,
            "pipelined = {pipelined}: every refresh is a traversal or shared"
        );
        assert_eq!(refreshed_checks, mgr.stats().refreshes);
        assert!(
            ids.iter().zip(&subs).any(|(id, (_, algorithm))| {
                matches!(algorithm, Algorithm::Celf | Algorithm::SieveStreaming)
                    && mgr.subscription_stats(*id).unwrap().refreshes > 0
            }),
            "pipelined = {pipelined}: the exhaustive baselines never refreshed"
        );
        assert!(
            shared(&mgr) > 0 && covering > 0,
            "pipelined = {pipelined}: the population never shared a covering run"
        );
    }
}
