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
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use common::{assert_same_updates, planted_manager, walk_stream};
use ksir_continuous::{DeliveryConfig, PipelineHooks, ResultDelta, ShardConfig, ShardKey};

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

/// Parks every cluster query of epoch 1 until the test releases it.
#[derive(Debug, Default)]
struct ParkEpochOne {
    parked: AtomicBool,
    released: Mutex<bool>,
    release: Condvar,
}

impl ParkEpochOne {
    fn release(&self) {
        *self.released.lock().unwrap() = true;
        self.release.notify_all();
    }
}

impl PipelineHooks for ParkEpochOne {
    fn before_cluster_query(&self, epoch: u64, _shard: ShardKey, _query: usize) {
        if epoch != 1 {
            return;
        }
        self.parked.store(true, Ordering::SeqCst);
        let mut released = self.released.lock().unwrap();
        while !*released {
            released = self.release.wait(released).unwrap();
        }
    }
}

/// The write path genuinely overlaps refresh work: with a worker provably
/// parked mid-refresh of epoch `N` (in a `before_cluster_query` hook),
/// `ingest_bucket_async` for epoch `N+1` must complete its index write and
/// return.  Under the old quiesce-before-write barrier this test deadlocks.
#[test]
fn index_write_proceeds_while_previous_epoch_refreshes() {
    let (mut mgr, subs, stream) = planted_manager(7, ShardConfig::default());
    let hooks = Arc::new(ParkEpochOne::default());
    mgr.set_hooks(hooks.clone());

    // The first two 15-tick buckets of the stream.
    let mut buckets = vec![Vec::new(), Vec::new()];
    for (element, tv) in stream.iter_pairs() {
        match element.ts.raw() {
            ..=15 => buckets[0].push((element, tv)),
            16..=30 => buckets[1].push((element, tv)),
            _ => break,
        }
    }
    let mut ends = [15u64, 30].into_iter().map(ksir_types::Timestamp);
    let mut buckets = buckets.into_iter();
    let first = mgr
        .ingest_bucket_async(buckets.next().unwrap(), ends.next().unwrap())
        .unwrap();
    // Wait until a worker is parked inside epoch 1's refresh.
    let deadline = Instant::now() + Duration::from_secs(30);
    while !hooks.parked.load(Ordering::SeqCst) {
        assert!(
            Instant::now() < deadline,
            "epoch 1 never reached a cluster query"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    // Epoch 2's ingest returns while epoch 1 is still in flight.
    let second = mgr
        .ingest_bucket_async(buckets.next().unwrap(), ends.next().unwrap())
        .unwrap();
    assert_eq!((first.slide, second.slide), (1, 2));
    assert_eq!(
        mgr.completed_epoch(),
        0,
        "epoch 1 is parked, so no epoch has completed"
    );
    hooks.release();
    mgr.sync();
    assert_eq!(mgr.completed_epoch(), 2);
    for (id, _, _) in &subs {
        assert!(mgr.unsubscribe(*id));
    }
}
