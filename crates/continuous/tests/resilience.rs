//! Hostile-stream resilience: fault-injected refresh workers, quarantine,
//! poisoned delivery, delayed snapshots, and the reorder buffer — each pinned
//! against a clean run of the same logical stream.
//!
//! Faults come from `ksir_chaos::FaultPlan` through the manager's test
//! hooks.  The invariants under test (see `ksir_continuous::reorder` for
//! the last):
//!
//! * An injected panic mid-refresh — before a walk's first cluster query or
//!   halfway through it — never publishes a partial
//!   [`ResultDelta`](ksir_continuous::ResultDelta) and never stalls the
//!   watermark — `sync()` completes and `completed_epoch` reaches the last
//!   slide (without the `catch_unwind` isolation and the epoch drop-guard,
//!   these tests deadlock instead of failing).
//! * Recovering faults leave decisions bit-identical to a fault-free run.
//! * A shard that exhausts its retry budget is quarantined (counted, shed
//!   with reconciling skips) instead of wedging the pipeline, and the live
//!   `shard.quarantine_active` gauge `/ready` reads follows the shards'
//!   flags exactly, back to zero once every quarantine is lifted or
//!   retired.
//! * Arrival permuted within the reorder horizon yields decisions identical
//!   to in-order replay; beyond-horizon arrivals are shed and counted.
//! * The same isolation holds on the ingest thread: a synchronous slide
//!   whose shards the calling thread refreshes itself retries, quarantines
//!   and sheds exactly as a pool worker does.

mod common;

use std::sync::Arc;

use common::{within_10s, Manager, ParkWorker, Sub};
use ksir_chaos::{Fault, FaultKind, FaultPlan};
use ksir_continuous::{
    DeliveryConfig, FlightTrigger, ShardConfig, ShardKey, SlideOutcome, SubscriptionId,
    SubscriptionManager,
};
use ksir_core::fixtures::paper_example;
use ksir_core::{Algorithm, KsirQuery};
use ksir_obs::{Readiness, ReadinessPolicy};
use ksir_types::{Document, ElementId, QueryVector, Timestamp, TopicId, TopicVector};

fn query(k: usize, weights: &[f64]) -> KsirQuery {
    KsirQuery::new(k, QueryVector::new(weights.to_vec()).unwrap()).unwrap()
}

/// Subscribes a small mixed workload and returns the handles.
fn subscribe_workload<D: ksir_types::TopicWordDistribution>(
    mgr: &mut SubscriptionManager<D>,
) -> Vec<(SubscriptionId, KsirQuery, Algorithm)> {
    let workload = [
        (2, vec![0.5, 0.5], Algorithm::Mttd),
        (2, vec![1.0, 0.0], Algorithm::Mtts),
        (3, vec![0.2, 0.8], Algorithm::Mttd),
    ];
    workload
        .into_iter()
        .map(|(k, weights, algorithm)| {
            let q = query(k, &weights);
            let id = mgr.subscribe(q.clone(), algorithm).unwrap();
            (id, q, algorithm)
        })
        .collect()
}

/// Runs the paper stream through the async path and returns the manager
/// after a full barrier.
fn run_async_clean() -> (
    SubscriptionManager<ksir_types::DenseTopicWordTable>,
    Vec<(SubscriptionId, KsirQuery, Algorithm)>,
) {
    let ex = paper_example();
    let mut mgr = SubscriptionManager::new(ex.empty_engine());
    let subs = subscribe_workload(&mut mgr);
    mgr.ingest_stream_async(ex.stream()).unwrap();
    mgr.sync();
    (mgr, subs)
}

fn assert_matches_clean<D: ksir_types::TopicWordDistribution>(
    mgr: &SubscriptionManager<D>,
    clean: &SubscriptionManager<D>,
    subs: &[(SubscriptionId, KsirQuery, Algorithm)],
    context: &str,
) {
    for (id, _, algorithm) in subs {
        let ours = mgr.result(*id).unwrap();
        let theirs = clean.result(*id).unwrap();
        assert_eq!(
            ours.sorted_elements(),
            theirs.sorted_elements(),
            "{context}: {id} ({algorithm}) diverged from the clean run"
        );
        assert!(
            (ours.score - theirs.score).abs() < 1e-12,
            "{context}: {id} score diverged"
        );
    }
    let (a, b) = (mgr.stats(), clean.stats());
    assert_eq!(a.slides, b.slides, "{context}: slide counts diverge");
    assert_eq!(
        (a.refreshes, a.skips),
        (b.refreshes, b.skips),
        "{context}: refresh/skip decisions diverge from the clean run"
    );
}

/// Installs a plan of `faults` on `mgr`.
fn install<D: ksir_types::TopicWordDistribution>(
    mgr: &mut SubscriptionManager<D>,
    faults: Vec<Fault>,
) -> Arc<FaultPlan> {
    let plan = Arc::new(FaultPlan::new(faults));
    plan.install(mgr);
    plan
}

/// A single recovering refresh panic, before the first cluster query of
/// shard θ0's walk or halfway through it (θ0 holds two plan clusters):
/// caught, retried, decisions, results and every member's ledger identical
/// to the clean run, and the schedule fully consumed.
#[test]
fn injected_refresh_panic_recovers_with_identical_decisions() {
    let (clean, _) = run_async_clean();
    for query in [1, 2] {
        let ex = paper_example();
        let mut mgr = SubscriptionManager::new(ex.empty_engine());
        let subs = subscribe_workload(&mut mgr);
        let theta0 = Some(ShardKey::Topic(TopicId(0)));
        let panic = FaultKind::PanicBeforeQuery(query);
        let plan = install(&mut mgr, vec![Fault::once(3, theta0, panic)]);
        mgr.ingest_stream_async(ex.stream()).unwrap();
        mgr.sync();

        assert_eq!(plan.fired(), [(3, panic, theta0)], "the panic fired");
        assert_eq!(plan.remaining(), 0);
        assert_eq!(
            mgr.telemetry().registry().counter("worker.panics").get(),
            1,
            "the caught panic is counted"
        );
        assert_eq!(mgr.completed_epoch(), 8, "the watermark advanced past it");
        assert_eq!(mgr.quarantined_shards(), 0, "one panic is below the budget");
        assert_matches_clean(&mgr, &clean, &subs, &format!("panic before query {query}"));
        for (id, _, _) in &subs {
            assert_eq!(
                mgr.subscription_stats(*id),
                clean.subscription_stats(*id),
                "{id}: charged once"
            );
        }
    }
}

/// A panic that outlives the retry budget quarantines its shard instead of
/// wedging the pipeline: `sync()` completes, the watermark reaches the last
/// slide, the shed classifications reconcile, and later slides recover the
/// subscription (a quarantined shard keeps refreshing through the same
/// exact cluster walk).
#[test]
fn persistent_panic_quarantines_instead_of_wedging() {
    let ex = paper_example();
    let mut mgr = SubscriptionManager::new(ex.empty_engine());
    let id = mgr
        .subscribe(query(2, &[0.5, 0.5]), Algorithm::Mttd)
        .unwrap();
    // Three fires at epoch 1 = initial attempt + both retries: the budget is
    // exhausted and the shard is quarantined.
    let panic = Fault::once(1, None, FaultKind::PanicBeforeQuery(1)).times(3);
    let plan = install(&mut mgr, vec![panic]);
    // Must complete: without the worker's catch_unwind isolation and the
    // epoch drop-guard this ingest (or the sync below) deadlocks.
    mgr.ingest_stream_async(ex.stream()).unwrap();
    mgr.sync();

    assert_eq!(plan.remaining(), 0, "all three scheduled panics fired");
    assert_eq!(mgr.completed_epoch(), 8, "no wedged epoch");
    assert_eq!(mgr.quarantined_shards(), 1);
    let registry = mgr.telemetry().registry();
    assert_eq!(registry.counter("worker.panics").get(), 3);
    assert_eq!(registry.counter("shard.quarantined").get(), 1);
    // Epoch 1's residents were shed as counted skips, so the classification
    // ledger still reconciles to slides × subscriptions.
    let stats = mgr.stats();
    assert_eq!(stats.refreshes + stats.skips, stats.slides);
    // The quarantined shard keeps refreshing through the same exact walk,
    // so the maintained result caught back up with the stream after the
    // fault window closed.
    let fresh = mgr
        .engine()
        .query(&query(2, &[0.5, 0.5]), Algorithm::Mttd)
        .unwrap();
    assert_eq!(
        mgr.result(id).unwrap().sorted_elements(),
        fresh.sorted_elements()
    );
    assert_eq!(mgr.lift_quarantines(), 1);
    assert_eq!(mgr.quarantined_shards(), 0);
    assert_eq!(mgr.lift_quarantines(), 0, "idempotent");
}

/// A manager over the paper stream with one subscription, whose shard
/// exhausts its retry budget at each of `epochs`.
fn quarantined_at(
    epochs: &[u64],
) -> (
    SubscriptionManager<ksir_types::DenseTopicWordTable>,
    SubscriptionId,
) {
    let ex = paper_example();
    let mut mgr = SubscriptionManager::new(ex.empty_engine());
    let id = mgr
        .subscribe(query(2, &[0.5, 0.5]), Algorithm::Mttd)
        .unwrap();
    let faults = epochs
        .iter()
        .map(|&epoch| Fault::once(epoch, None, FaultKind::PanicBeforeQuery(1)).times(3))
        .collect();
    let plan = install(&mut mgr, faults);
    mgr.ingest_stream_async(ex.stream()).unwrap();
    mgr.sync();
    assert_eq!(plan.remaining(), 0, "every scheduled panic fired");
    (mgr, id)
}

/// The live quarantine gauge and `/ready`'s verdict on it.
fn quarantine_signal<D: ksir_types::TopicWordDistribution>(
    mgr: &SubscriptionManager<D>,
) -> (u64, bool) {
    let telemetry = mgr.telemetry();
    let gauge = telemetry.registry().gauge("shard.quarantine_active").get();
    let readiness = Readiness::evaluate(telemetry, &ReadinessPolicy::default());
    let reason = readiness.reasons.iter().any(|r| r.contains("quarantined"));
    (gauge, reason)
}

/// A shard quarantined twice is still one quarantined shard: the gauge
/// counts flags, not exhausted budgets, so one lift brings it — and
/// `/ready` — back.
#[test]
fn requarantine_counts_one_shard_and_one_lift_clears_it() {
    let (mut mgr, _) = quarantined_at(&[1, 2]);
    let registry = mgr.telemetry().registry();
    assert_eq!(registry.counter("shard.quarantined").get(), 2);
    assert_eq!(mgr.quarantined_shards(), 1);
    assert_eq!(quarantine_signal(&mgr), (1, true));
    assert_eq!(mgr.lift_quarantines(), 1);
    assert_eq!(quarantine_signal(&mgr), (0, false));
}

/// Retiring a quarantined shard ends its quarantine: unsubscribing its last
/// resident brings the gauge — and `/ready` — back.
#[test]
fn retiring_a_quarantined_shard_clears_the_gauge() {
    let (mut mgr, id) = quarantined_at(&[1]);
    assert_eq!(quarantine_signal(&mgr), (1, true));
    assert!(mgr.unsubscribe(id));
    assert_eq!(mgr.shard_count(), 0);
    let retired = mgr.telemetry().registry().counter("shard.retired").get();
    assert_eq!(retired, 1);
    assert_eq!(quarantine_signal(&mgr), (0, false));
}

/// Killed worker threads are respawned and the pipeline completes with
/// decisions identical to the clean run (a kill changes scheduling of
/// *threads*, never of refreshes).
#[test]
fn killed_workers_respawn_and_pipeline_completes() {
    let (clean, _) = run_async_clean();
    let ex = paper_example();
    let mut mgr = SubscriptionManager::new(ex.empty_engine());
    let subs = subscribe_workload(&mut mgr);
    let plan = install(
        &mut mgr,
        vec![
            Fault::once(2, None, FaultKind::KillWorker),
            Fault::once(5, None, FaultKind::KillWorker),
        ],
    );
    mgr.ingest_stream_async(ex.stream()).unwrap();
    mgr.sync();

    assert_eq!(plan.remaining(), 0, "both kills fired");
    assert_eq!(mgr.completed_epoch(), 8);
    assert!(
        mgr.telemetry().registry().counter("worker.restarts").get() >= 1,
        "at least one dead worker was respawned"
    );
    assert_matches_clean(&mgr, &clean, &subs, "worker kills");
}

/// Ingests the paper stream with the one pool worker parked after slide 1
/// (async), so `ingest_bucket` refreshes slides 2–8 on the calling thread
/// under `faults`.  Returns the manager, the plan and the sync outcomes.
fn run_sync_on_caller(
    faults: Vec<Fault>,
) -> (Manager, Vec<Sub>, Arc<FaultPlan>, Vec<SlideOutcome>) {
    let ex = paper_example();
    let config = ShardConfig::default().with_threads(Some(1));
    let mut stream = ex.stream().into_iter();
    let (e1, tv1) = stream.next().unwrap();
    // Slide 1's scheduled shards: the worker parks after draining them.
    let mut probe = SubscriptionManager::with_shard_config(ex.empty_engine(), config);
    subscribe_workload(&mut probe);
    let end = e1.ts;
    let scheduled = probe
        .ingest_bucket(vec![(e1.clone(), tv1.clone())], end)
        .unwrap()
        .shards_scheduled;
    assert!(scheduled > 0, "slide 1 must schedule a shard");

    let mut mgr = SubscriptionManager::with_shard_config(ex.empty_engine(), config);
    let subs = subscribe_workload(&mut mgr);
    // Installed for its flight records, then wrapped by the parking hook.
    let plan = install(&mut mgr, faults);
    let park = Arc::new(ParkWorker::new(scheduled, Some(plan.clone())));
    mgr.set_hooks(park.clone());
    mgr.ingest_bucket_async(vec![(e1, tv1)], end)
        .unwrap()
        .detach();
    park.wait_parked();
    let rest: Vec<_> = stream.collect();
    let (mgr, outcomes) = within_10s("ingest_bucket with its worker parked", move || {
        let outcomes: Vec<_> = rest
            .into_iter()
            .map(|(element, tv)| {
                let end = element.ts;
                mgr.ingest_bucket(vec![(element, tv)], end).unwrap()
            })
            .collect();
        (mgr, outcomes)
    });
    let caller_items = mgr
        .telemetry()
        .registry()
        .histogram("refresh.caller_item")
        .count();
    let scheduled: usize = outcomes.iter().map(|o| o.shards_scheduled).sum();
    assert_eq!(
        caller_items, scheduled as u64,
        "the caller drained them all"
    );
    park.release();
    (mgr, subs, plan, outcomes)
}

/// A refresh panic during a synchronous slide whose shards the calling
/// thread refreshes (the pool's only worker is parked) is caught and
/// retried on the caller: decisions, results and every member's ledger
/// equal the clean run's.  A panic that outlives the budget quarantines the
/// shard and sheds the epoch there too, and `ingest_bucket` still returns.
#[test]
fn refresh_panic_on_the_calling_thread_is_isolated() {
    let (clean, _) = run_async_clean();
    let theta0 = Some(ShardKey::Topic(TopicId(0)));
    let panic = FaultKind::PanicBeforeQuery(1);

    let (mgr, subs, plan, _) = run_sync_on_caller(vec![Fault::once(3, theta0, panic)]);
    assert_eq!(plan.fired(), [(3, panic, theta0)], "the panic fired");
    let registry = mgr.telemetry().registry();
    assert_eq!(registry.counter("worker.panics").get(), 1, "retry counted");
    assert_eq!(mgr.quarantined_shards(), 0, "one panic is below the budget");
    assert_eq!(mgr.completed_epoch(), 8);
    assert_matches_clean(&mgr, &clean, &subs, "panic on the calling thread");
    for (id, _, _) in &subs {
        assert_eq!(
            mgr.subscription_stats(*id),
            clean.subscription_stats(*id),
            "{id}: charged once"
        );
    }

    let persistent = Fault::once(3, theta0, panic).times(1 << 10);
    let (mgr, _, plan, outcomes) = run_sync_on_caller(vec![persistent]);
    assert_eq!(plan.fired().len(), 3, "the first attempt and both retries");
    let registry = mgr.telemetry().registry();
    assert_eq!(registry.counter("worker.panics").get(), 3);
    assert_eq!(registry.counter("shard.quarantined").get(), 1);
    assert_eq!(mgr.quarantined_shards(), 1);
    assert_eq!(mgr.completed_epoch(), 8, "the shed epoch completed");
    assert_eq!(outcomes.len(), 7, "every ingest_bucket returned");
    let stats = mgr.stats();
    assert_eq!(
        stats.refreshes + stats.skips,
        stats.slides * mgr.subscription_count(),
        "the shed classifications reconcile"
    );
}

/// A poisoned delivery send panics inside the queue push; the panic is
/// converted into a counted shed on exactly the poisoned subscription's
/// queue, so `delivered + dropped` still reconciles with the clean run's
/// delivery count — and the subscription state itself is untouched.
#[test]
fn poisoned_delivery_send_is_a_counted_shed() {
    // Two subscriptions with queues; learn each one's clean delivery count.
    let queries = [
        (query(2, &[0.5, 0.5]), Algorithm::Mttd),
        (query(2, &[1.0, 0.0]), Algorithm::Mtts),
    ];
    let run = |poison: bool| {
        let ex = paper_example();
        let mut mgr = SubscriptionManager::new(ex.empty_engine());
        let mut subs = Vec::new();
        for (q, algorithm) in &queries {
            let id = mgr.subscribe(q.clone(), *algorithm).unwrap();
            subs.push((
                id,
                mgr.attach_delivery(id, DeliveryConfig::default()).unwrap(),
            ));
        }
        // Epoch 1 produces the first delta (empty result → e1's bucket).
        let target = FaultKind::PoisonDelivery(subs[0].0);
        let plan = poison.then(|| install(&mut mgr, vec![Fault::once(1, None, target)]));
        mgr.ingest_stream_async(ex.stream()).unwrap();
        mgr.sync();
        (mgr, subs, plan)
    };
    let (_, clean, _) = run(false);
    let clean: Vec<usize> = clean.iter().map(|(_, rx)| rx.drain().len()).collect();
    assert!(clean[0] > 0, "the stream must change the result");

    let (mgr, subs, plan) = run(true);
    assert_eq!(plan.unwrap().remaining(), 0, "the poison fired");
    let dropped: Vec<u64> = subs.iter().map(|(_, rx)| rx.dropped()).collect();
    assert_eq!(dropped, [1, 0], "only the poisoned queue counts the shed");
    for ((_, rx), (clean, dropped)) in subs.iter().zip(clean.iter().zip(&dropped)) {
        assert_eq!(
            rx.drain().len() + *dropped as usize,
            *clean,
            "delivered + dropped reconciles with the clean run"
        );
    }
    // The refresh itself was not poisoned: the maintained result is intact.
    let (id, _) = subs[0];
    let fresh = mgr.engine().query(&queries[0].0, queries[0].1).unwrap();
    assert_eq!(
        mgr.result(id).unwrap().sorted_elements(),
        fresh.sorted_elements()
    );
}

/// A delayed snapshot capture widens the ingest/refresh race window but
/// changes no decision and no result.
#[test]
fn delayed_snapshot_capture_changes_nothing() {
    let (clean, _) = run_async_clean();
    let ex = paper_example();
    let mut mgr = SubscriptionManager::new(ex.empty_engine());
    let subs = subscribe_workload(&mut mgr);
    let plan = install(
        &mut mgr,
        vec![Fault::once(2, None, FaultKind::DelaySnapshot(5))],
    );
    mgr.ingest_stream_async(ex.stream()).unwrap();
    mgr.sync();
    assert_eq!(plan.remaining(), 0, "the delay fired");
    assert_matches_clean(&mgr, &clean, &subs, "delayed snapshot");
}

/// Arrival permuted within the reorder horizon is re-sequenced exactly:
/// decisions, results, and counters match in-order replay, with the
/// out-of-order buckets counted.
#[test]
fn reordered_arrival_within_horizon_matches_in_order_replay() {
    let (clean, _) = run_async_clean();
    let ex = paper_example();
    let mut mgr = SubscriptionManager::with_shard_config(
        ex.empty_engine(),
        ShardConfig::default().with_reorder_horizon(2),
    );
    let subs = subscribe_workload(&mut mgr);
    // Displacement ≤ 1 everywhere: well inside horizon 2.
    let stream = ex.stream();
    let arrival = [1usize, 0, 3, 2, 5, 4, 7, 6];
    for &i in &arrival {
        let (element, tv) = stream[i].clone();
        let end = element.ts;
        mgr.ingest_bucket_reordered(vec![(element, tv)], end)
            .unwrap();
    }
    mgr.flush_reorder_buffer().unwrap();
    mgr.sync();

    let stats = mgr.stats();
    assert_eq!(stats.late_dropped, 0, "nothing is late within the horizon");
    assert_eq!(stats.reordered, 4, "0, 2, 4 and 6 each arrived late");
    assert_eq!(mgr.reorder_buffered(), 0, "flush drained the buffer");
    assert_matches_clean(&mgr, &clean, &subs, "reordered arrival");
}

/// An arrival beyond the horizon is shed, charged bucket-for-bucket to
/// `late_dropped`, leaves one `late_drop_burst` flight record, and
/// everything else proceeds as if it never happened.
#[test]
fn beyond_horizon_arrival_is_dropped_and_charged() {
    let ex = paper_example();
    let mut mgr = SubscriptionManager::with_shard_config(
        ex.empty_engine(),
        ShardConfig::default().with_reorder_horizon(1),
    );
    let subs = subscribe_workload(&mut mgr);
    for (element, tv) in ex.stream() {
        let end = element.ts;
        mgr.ingest_bucket_reordered(vec![(element, tv)], end)
            .unwrap();
    }
    // Ends 1..=7 have been released (horizon 1 holds only bucket 8): a
    // straggler at t = 3 is beyond the horizon and must be shed, not
    // ingested (the engine would reject the stale timestamp outright).
    assert_eq!(mgr.reorder_released_through(), Some(Timestamp(7)));
    let straggler =
        ksir_types::SocialElement::original(ElementId(999), Timestamp(3), Document::new());
    let tv = TopicVector::from_values(vec![0.5, 0.5]).unwrap();
    let tickets = mgr
        .ingest_bucket_reordered(vec![(straggler, tv)], Timestamp(3))
        .unwrap();
    assert!(tickets.is_empty(), "a shed bucket releases nothing");
    mgr.flush_reorder_buffer().unwrap();
    mgr.sync();

    let stats = mgr.stats();
    assert_eq!(stats.slides, 8, "the straggler never became a slide");
    assert_eq!(stats.late_dropped, 1);
    assert_eq!(
        mgr.telemetry()
            .registry()
            .counter("ingest.late_dropped")
            .get(),
        1,
        "drops are charged bucket-for-bucket"
    );
    let late_records: Vec<_> = mgr
        .telemetry()
        .flight()
        .records()
        .into_iter()
        .filter(|record| record.trigger.name() == "late_drop_burst")
        .collect();
    assert_eq!(late_records.len(), 1, "the shed leaves one flight record");
    assert!(matches!(
        late_records[0].trigger,
        FlightTrigger::LateDropBurst { dropped: 1, .. }
    ));
    // The maintained results are those of the clean 8-slide stream.
    for (id, q, algorithm) in &subs {
        let fresh = mgr.engine().query(q, *algorithm).unwrap();
        assert_eq!(
            mgr.result(*id).unwrap().sorted_elements(),
            fresh.sorted_elements()
        );
    }
}
