//! Equivalence of the asynchronous pipeline with the synchronous API, and
//! subscription-lifecycle accounting under both.
//!
//! The pipeline's contract: for any scenario, the multiset of
//! [`ResultDelta`]s drained from the per-subscriber delivery queues equals —
//! slide for slide — the `updates` the synchronous [`SlideOutcome`] API
//! reports for the same stream, and the work counters still reconcile to
//! `slides × live subscriptions`.  Mid-stream subscribe/unsubscribe must
//! charge a subscription only for the slides it was actually alive for.
//!
//! [`ResultDelta`]: ksir_continuous::ResultDelta
//! [`SlideOutcome`]: ksir_continuous::SlideOutcome

mod common;

use std::collections::BTreeMap;

use common::{assert_same_updates, planted_manager, walk_stream, Manager};
use ksir_continuous::{DeliveryConfig, OverflowPolicy, ResultDelta, ShardConfig};
use ksir_core::Algorithm;

/// The deltas drained from the per-subscriber queues equal the
/// per-subscription walk's result changes slide for slide, for serial and
/// forced-multi-thread pools alike.
#[test]
fn drained_deltas_equal_sync_outcomes_slide_for_slide() {
    for (seed, config) in [
        (7u64, ShardConfig::serial()),
        (7u64, ShardConfig::default().with_threads(Some(4))),
        (21u64, ShardConfig::default().with_threads(Some(4))),
    ] {
        let (mut mgr, subs, stream) = planted_manager(seed, config);
        let receivers: Vec<_> = subs
            .iter()
            .map(|(id, _, _)| {
                mgr.attach_delivery(*id, DeliveryConfig::default().with_capacity(1 << 16))
                    .expect("live subscription")
            })
            .collect();
        let tickets = mgr.ingest_stream_async(stream.iter_pairs()).unwrap();
        mgr.sync();
        let (walk, slides) = walk_stream(&stream, &subs);
        assert_eq!(tickets.len(), slides.len(), "same bucket cutting");

        // Group every drained delta by the slide that produced it.
        let mut by_slide: BTreeMap<u64, Vec<ResultDelta>> = BTreeMap::new();
        for rx in &receivers {
            assert_eq!(rx.dropped(), 0, "capacity was ample");
            for delivery in rx.drain() {
                by_slide
                    .entry(delivery.slide)
                    .or_default()
                    .push(delivery.delta);
            }
        }
        for (i, slide) in slides.iter().enumerate() {
            let number = (i + 1) as u64;
            let mut drained = by_slide.remove(&number).unwrap_or_default();
            drained.sort_by_key(|d| d.subscription);
            let context = format!("seed={seed} {config:?}: slide {number}");
            assert_same_updates(&context, &drained, &slide.updates);
        }
        assert!(
            by_slide.is_empty(),
            "async path delivered deltas for unknown slides: {:?}",
            by_slide.keys().collect::<Vec<_>>()
        );
        walk.assert_matches(&mgr, &format!("seed={seed} {config:?}"));
    }
}

/// Subscribing and unsubscribing mid-stream charges a subscription exactly
/// the slides it was alive for — `refreshes + skips` per subscription equals
/// its live-slide count, and the manager total is the sum over lifetimes.
#[test]
fn mid_stream_lifecycle_charges_only_live_slides() {
    let (mut mgr, subs, stream) = planted_manager(63, ShardConfig::default().with_threads(Some(2)));
    let early = subs[0].0;
    let query = subs[1].1.clone();

    // Replay bucket by bucket through the async API so the lifecycle calls
    // exercise the quiesce barrier, not just the synchronous path.
    let bucket_len = 15;
    let mut pending = Vec::new();
    let mut bucket_end = bucket_len;
    let mut slides = 0usize;
    let mut late = None;
    let mut early_final = None;
    let mut early_lifetime = 0usize;
    let mut late_born_after = 0usize;

    let flush = |mgr: &mut Manager, pending: &mut Vec<_>, end: u64, slides: &mut usize| {
        mgr.ingest_bucket_async(std::mem::take(pending), ksir_types::Timestamp(end))
            .unwrap()
            .detach();
        *slides += 1;
    };

    for (element, tv) in stream.iter_pairs() {
        while element.ts.raw() > bucket_end {
            flush(&mut mgr, &mut pending, bucket_end, &mut slides);
            bucket_end += bucket_len;
            if slides == 3 {
                // Unsubscribe one original resident: its counters freeze at
                // 3 live slides.
                mgr.sync();
                let stats = mgr.subscription_stats(early).unwrap();
                early_lifetime = stats.refreshes + stats.skips;
                assert_eq!(early_lifetime, 3, "alive for exactly 3 slides");
                early_final = Some(stats);
                assert!(mgr.unsubscribe(early));
            }
            if slides == 5 {
                // A fresh subscription joins mid-stream.
                late = Some(mgr.subscribe(query.clone(), Algorithm::Mttd).unwrap());
                late_born_after = slides;
            }
        }
        pending.push((element, tv));
    }
    flush(&mut mgr, &mut pending, bucket_end, &mut slides);
    mgr.sync();

    assert!(slides > 6, "stream too short for the lifecycle schedule");
    let late = late.expect("late subscription registered");
    let late_stats = mgr.subscription_stats(late).unwrap();
    assert_eq!(
        late_stats.refreshes + late_stats.skips,
        slides - late_born_after,
        "late subscription charged only for slides after it joined"
    );
    for (id, _, _) in subs.iter().skip(1) {
        let stats = mgr.subscription_stats(*id).unwrap();
        assert_eq!(
            stats.refreshes + stats.skips,
            slides,
            "{id} lived the whole stream"
        );
    }

    // Manager totals are the sum over lifetimes: the early subscription's
    // frozen counters (folded into the retired tally when its shard emptied,
    // or still live in a shared shard) plus everyone else's.
    let stats = mgr.stats();
    let expected = early_lifetime + (subs.len() - 1) * slides + (slides - late_born_after);
    assert_eq!(
        stats.refreshes + stats.skips,
        expected,
        "manager counters must equal the sum of per-subscription lifetimes \
         (early={early_final:?})"
    );
    assert_eq!(stats.slides, slides);
}

/// A subscriber that never drains its bounded queue loses only its own
/// oldest deltas (counted, not silently) and never stalls ingestion; the
/// drained suffix plus the dropped count accounts for every result change.
#[test]
fn slow_consumer_sheds_deltas_without_losing_account() {
    let (mut mgr, subs, stream) = planted_manager(7, ShardConfig::default().with_threads(Some(2)));
    let victim = subs[0].0;
    let rx = mgr
        .attach_delivery(
            victim,
            DeliveryConfig::default()
                .with_capacity(2)
                .with_policy(OverflowPolicy::DropOldest),
        )
        .unwrap();
    mgr.ingest_stream_async(stream.iter_pairs()).unwrap();
    mgr.sync();

    let changes = mgr.subscription_stats(victim).unwrap().result_changes;
    let drained = rx.drain();
    assert!(drained.len() <= 2, "bounded queue holds at most capacity");
    assert_eq!(
        drained.len() as u64 + rx.dropped(),
        changes as u64,
        "every result change was either delivered or counted as dropped"
    );
    // The freshest deltas survive under DropOldest.
    if let Some(last) = drained.last() {
        assert!(drained.iter().all(|d| d.slide <= last.slide));
    }
}

/// Unsubscribing closes the delivery queue; the drained history up to the
/// removal is still available to the consumer.
#[test]
fn unsubscribe_closes_the_delivery_queue() {
    let (mut mgr, subs, stream) = planted_manager(21, ShardConfig::serial());
    let id = subs[0].0;
    let rx = mgr.attach_delivery(id, DeliveryConfig::default()).unwrap();
    mgr.ingest_stream_async(stream.iter_pairs()).unwrap();
    mgr.sync();
    assert!(!rx.is_closed());
    assert!(mgr.unsubscribe(id));
    assert!(rx.is_closed(), "removal closes the producer side");
    let drained = rx.drain();
    let _ = drained;
}
