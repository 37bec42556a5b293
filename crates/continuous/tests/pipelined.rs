//! Pipelined-epoch equivalence: with snapshot-backed refreshes and the
//! quiesce-before-write barrier gone, the asynchronous pipeline must still
//! be **decision-identical to the per-subscription walk slide for slide** —
//! same deltas, same counters — at every pool size, because
//! every shard processes its epochs in order against that epoch's frozen
//! engine image.
//!
//! Also pinned here: the property the whole subsystem exists for (an index
//! write proceeds while the previous epoch's refreshes are demonstrably
//! still in flight), the completion watermark, and the snapshot capture /
//! copy-on-write accounting.

mod common;

use std::collections::BTreeMap;
use std::time::Duration;

use common::{assert_same_updates, planted_manager, walk_stream};
use ksir_continuous::{DeliveryConfig, OverflowPolicy, ResultDelta, ShardConfig};

/// Pipelined mode is decision-identical to the per-subscription walk slide
/// for slide — on the default pool and on a forced 4-thread pool.
#[test]
fn pipelined_deltas_equal_sync_outcomes_slide_for_slide() {
    for (seed, config) in [
        (7u64, ShardConfig::default()),
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
        // After the barrier the completion watermark has caught up with the
        // last ingested epoch.
        assert_eq!(mgr.completed_epoch(), tickets.len() as u64);
        assert_eq!(mgr.inflight_epochs(), 0);
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
        assert!(by_slide.is_empty(), "deltas delivered for unknown slides");

        // Aggregate and per-subscription counters and the maintained results
        // equal the walk's.
        walk.assert_matches(&mgr, &format!("seed={seed} {config:?}"));

        // Scheduled work runs on snapshots.
        let registry = mgr.telemetry().registry();
        let epochs_captured = registry.counter("snapshot.epochs_captured").get();
        assert!(epochs_captured > 0, "no epoch was ever captured");
        assert!(registry.counter("snapshot.shard_snapshots").get() >= epochs_captured);
    }
}

/// The write path genuinely overlaps refresh work: with a worker provably
/// stalled mid-refresh of epoch `N` (blocked on a full Block-policy delivery
/// queue), `ingest_bucket_async` for epoch `N+1` must complete its index
/// write and return.  Under the old quiesce-before-write barrier this test
/// deadlocks.
#[test]
fn index_write_proceeds_while_previous_epoch_refreshes() {
    let (mut mgr, subs, stream) = planted_manager(7, ShardConfig::default());
    // Give every subscription a Block-policy queue of capacity 1 and do not
    // drain: the first delivered delta of a slide fills a queue, the second
    // blocks its worker mid-epoch.
    let receivers: Vec<_> = subs
        .iter()
        .map(|(id, _, _)| {
            mgr.attach_delivery(
                *id,
                DeliveryConfig::default()
                    .with_capacity(1)
                    .with_policy(OverflowPolicy::Block),
            )
            .unwrap()
        })
        .collect();

    let mut pairs = stream.iter_pairs();
    let mut bucket: Vec<_> = Vec::new();
    let mut tickets = Vec::new();
    let mut bucket_end = 15u64;
    for (element, tv) in &mut pairs {
        while element.ts.raw() > bucket_end {
            let t = mgr
                .ingest_bucket_async(
                    std::mem::take(&mut bucket),
                    ksir_types::Timestamp(bucket_end),
                )
                .unwrap();
            tickets.push(t);
            bucket_end += 15;
            if tickets.len() == 2 {
                break;
            }
        }
        if tickets.len() == 2 {
            break;
        }
        bucket.push((element, tv));
    }
    assert_eq!(tickets.len(), 2, "stream long enough for two epochs");
    // Epoch 1 scheduled refresh work that is now stalled on the undrained
    // Block queues; epoch 2's ingest nevertheless returned above.  Give the
    // workers a moment and confirm epoch 1 is genuinely still in flight.
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        mgr.completed_epoch() < 2,
        "with undrained Block queues some epoch must still be in flight"
    );
    // Drain everything; the pipeline must settle.
    let drainer = std::thread::spawn(move || {
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        loop {
            let mut any = false;
            let mut all_closed = true;
            for rx in &receivers {
                any |= rx.try_recv().is_some();
                all_closed &= rx.is_closed();
            }
            if all_closed || std::time::Instant::now() > deadline {
                return receivers;
            }
            if !any {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    });
    mgr.sync();
    assert_eq!(mgr.completed_epoch(), 2);
    for (id, _, _) in &subs {
        assert!(mgr.unsubscribe(*id));
    }
    drainer.join().unwrap();
}
