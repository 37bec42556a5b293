//! Property tests of the reorder buffer's exactness contract
//! (`ksir_continuous::reorder`):
//!
//! 1. **Bounded-displacement equivalence**: for *any* permutation of bucket
//!    arrival in which no bucket is displaced by more than the configured
//!    `reorder_horizon`, feeding the permuted stream through
//!    [`SubscriptionManager::ingest_bucket_reordered`] yields refresh/skip
//!    decisions and maintained results **bit-identical** to in-order replay
//!    through the plain async path — with `late_dropped == 0`.
//! 2. **Drop accounting**: arrivals at or before the released watermark
//!    (beyond the horizon) are shed bucket-for-bucket: the number of shed
//!    buckets equals both [`ManagerStats::late_dropped`] and the
//!    `ingest.late_dropped` registry counter, and the surviving slides are
//!    exactly the in-order stream's.
//!
//! [`ManagerStats::late_dropped`]: ksir_continuous::ManagerStats::late_dropped

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};

use ksir_continuous::{ManagerStats, ShardConfig, SubscriptionId, SubscriptionManager};
use ksir_core::stream::WindowConfig;
use ksir_core::{Algorithm, EngineConfig, KsirEngine, KsirQuery, ScoringConfig};
use ksir_datagen::{DatasetProfile, QueryWorkloadGenerator, StreamGenerator};
use ksir_types::{DenseTopicWordTable, SocialElement, Timestamp, TopicVector};

/// One random instance: a planted stream cut into buckets, a workload, and
/// a reorder horizon.
#[derive(Debug, Clone)]
struct Params {
    seed: u64,
    horizon: usize,
    bucket_len: u64,
}

fn params() -> impl Strategy<Value = Params> {
    (any::<u64>(), 1usize..=4, 5u64..=12).prop_map(|(seed, horizon, bucket_len)| Params {
        seed,
        horizon,
        bucket_len,
    })
}

type Stream = Vec<(SocialElement, TopicVector)>;

/// Cuts a planted stream into `(bucket, end)` pairs with the shared
/// [`ksir_core::stream::for_each_bucket`] convention — the exact slides the plain
/// async path would ingest, and the unit the reorder buffer permutes.
fn cut_buckets(stream: Stream, bucket_len: u64, now: Timestamp) -> Vec<(Stream, Timestamp)> {
    let mut buckets = Vec::new();
    ksir_core::stream::for_each_bucket(bucket_len, now, stream, |bucket, end| {
        buckets.push((bucket, end));
        Ok(())
    })
    .unwrap();
    buckets
}

/// A permutation of `0..n` in which index `i` lands at most `horizon`
/// positions from home: sort by `i + u(0..=horizon)` with the index as the
/// tiebreaker (a classic bounded-displacement shuffle).
fn bounded_permutation(n: usize, horizon: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut keyed: Vec<(usize, usize)> = (0..n)
        .map(|i| (i + rng.gen_range(0..=horizon), i))
        .collect();
    keyed.sort();
    keyed.into_iter().map(|(_, i)| i).collect()
}

struct Instance {
    buckets: Vec<(Stream, Timestamp)>,
    subs: Vec<(SubscriptionId, KsirQuery, Algorithm)>,
    queries: Vec<(KsirQuery, Algorithm)>,
}

fn build_manager(
    p: &Params,
    config: ShardConfig,
) -> (SubscriptionManager<DenseTopicWordTable>, Instance) {
    let profile = DatasetProfile::twitter().scaled(0.01).with_topics(6);
    let stream = StreamGenerator::new(profile, p.seed)
        .unwrap()
        .generate()
        .unwrap();
    let window = WindowConfig::new(p.bucket_len * 4, p.bucket_len).unwrap();
    let engine: KsirEngine<DenseTopicWordTable> = KsirEngine::new(
        stream.planted.phi().clone(),
        EngineConfig::new(window, ScoringConfig::default()),
    )
    .unwrap();
    let mut mgr = SubscriptionManager::with_shard_config(engine, config);
    let workload = QueryWorkloadGenerator::new(&stream.planted, p.seed ^ 0x5eed)
        .generate(4, stream.end_time())
        .unwrap();
    let algorithms = [Algorithm::Mttd, Algorithm::Mtts];
    let mut subs = Vec::new();
    let mut queries = Vec::new();
    for (i, generated) in workload.into_iter().enumerate() {
        let query = KsirQuery::new(3, generated.vector).unwrap();
        let algorithm = algorithms[i % algorithms.len()];
        let id = mgr.subscribe(query.clone(), algorithm).unwrap();
        subs.push((id, query.clone(), algorithm));
        queries.push((query, algorithm));
    }
    let start = mgr.engine().now();
    let pairs: Stream = stream.iter_pairs().collect();
    let buckets = cut_buckets(pairs, p.bucket_len, start);
    (
        mgr,
        Instance {
            buckets,
            subs,
            queries: queries.clone(),
        },
    )
}

/// Final per-subscription results, sorted for comparison.
fn results(
    mgr: &SubscriptionManager<DenseTopicWordTable>,
    subs: &[(SubscriptionId, KsirQuery, Algorithm)],
) -> Vec<Vec<ksir_types::ElementId>> {
    subs.iter()
        .map(|(id, _, _)| mgr.result(*id).unwrap().sorted_elements())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property 1: any bounded-displacement permutation is re-sequenced
    /// exactly — decisions and results bit-identical to in-order replay.
    #[test]
    fn bounded_permutation_is_decision_identical_to_in_order(p in params()) {
        // In-order oracle through the plain async path.
        let (mut oracle, inst) = build_manager(&p, ShardConfig::default());
        for (bucket, end) in inst.buckets.clone() {
            oracle.ingest_bucket_async(bucket, end).unwrap().detach();
        }
        oracle.sync();
        let oracle_stats = oracle.stats();
        let oracle_results = results(&oracle, &inst.subs);

        // Permuted replay through the reorder buffer.
        let config = ShardConfig::default().with_reorder_horizon(p.horizon);
        let (mut mgr, inst2) = build_manager(&p, config);
        let mut rng = StdRng::seed_from_u64(p.seed ^ 0x0bad_cafe);
        let order = bounded_permutation(inst2.buckets.len(), p.horizon, &mut rng);
        for &i in &order {
            let (bucket, end) = inst2.buckets[i].clone();
            for ticket in mgr.ingest_bucket_reordered(bucket, end).unwrap() {
                ticket.detach();
            }
        }
        for ticket in mgr.flush_reorder_buffer().unwrap() {
            ticket.detach();
        }
        mgr.sync();

        let stats = mgr.stats();
        prop_assert_eq!(stats.late_dropped, 0, "nothing within the horizon is late");
        prop_assert_eq!(
            ManagerStats { reordered: 0, ..stats },
            ManagerStats { reordered: 0, ..oracle_stats },
            "refresh/skip decisions must be bit-identical to in-order replay"
        );
        prop_assert_eq!(results(&mgr, &inst2.subs), oracle_results);
        // Decision-identity extends to scratch equivalence at the end state.
        for (idx, (id, _, _)) in inst2.subs.iter().enumerate() {
            let (q, a) = &inst2.queries[idx];
            let fresh = mgr.engine().query(q, *a).unwrap();
            prop_assert_eq!(
                mgr.result(*id).unwrap().sorted_elements(),
                fresh.sorted_elements()
            );
        }
    }

    /// Property 2: beyond-horizon arrivals are shed bucket-for-bucket —
    /// exactly the late buckets are charged to `late_dropped` and the
    /// `ingest.late_dropped` counter, and the surviving slides are the
    /// in-order stream's.
    #[test]
    fn beyond_horizon_drops_equal_the_charged_buckets(p in params()) {
        let config = ShardConfig::default().with_reorder_horizon(p.horizon);
        let (mut mgr, inst) = build_manager(&p, config);
        let mut rng = StdRng::seed_from_u64(p.seed ^ 0x1a7e);

        // Feed in order, but after each release horizon fills, re-offer a
        // random already-released bucket: every such straggler is beyond the
        // horizon by construction and must be shed.
        let mut expected_drops = 0usize;
        for (offered, (bucket, end)) in inst.buckets.clone().into_iter().enumerate() {
            for ticket in mgr.ingest_bucket_reordered(bucket, end).unwrap() {
                ticket.detach();
            }
            if let Some(watermark) = mgr.reorder_released_through() {
                if rng.gen_range(0..3) == 0 {
                    // A duplicate of a bucket at/under the watermark.
                    let late_end = Timestamp(watermark.0);
                    let straggler = inst.buckets[rng.gen_range(0..=offered)].0.clone();
                    let tickets = mgr.ingest_bucket_reordered(straggler, late_end).unwrap();
                    prop_assert!(tickets.is_empty(), "a shed bucket releases nothing");
                    expected_drops += 1;
                }
            }
        }
        for ticket in mgr.flush_reorder_buffer().unwrap() {
            ticket.detach();
        }
        mgr.sync();

        let stats = mgr.stats();
        prop_assert_eq!(
            stats.late_dropped, expected_drops,
            "drops are charged bucket-for-bucket"
        );
        prop_assert_eq!(
            mgr.telemetry().registry().counter("ingest.late_dropped").get(),
            expected_drops as u64,
            "the registry counter mirrors the stat"
        );
        prop_assert_eq!(
            stats.slides,
            inst.buckets.len(),
            "every in-order bucket became a slide; no straggler did"
        );
        // The surviving state is the clean stream's: scratch equivalence.
        for (idx, (id, _, _)) in inst.subs.iter().enumerate() {
            let (q, a) = &inst.queries[idx];
            let fresh = mgr.engine().query(q, *a).unwrap();
            prop_assert_eq!(
                mgr.result(*id).unwrap().sorted_elements(),
                fresh.sorted_elements()
            );
        }
    }
}
