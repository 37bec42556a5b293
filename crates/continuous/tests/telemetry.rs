//! Telemetry reconciliation: the trace-reconstructed [`EpochTimeline`] must
//! agree **exactly** with the registry counters (which `ManagerStats` reads)
//! and with the live shards' `ShardStats` and the delivery tallies —
//! equality, not correlation — because events are emitted in the same
//! statements that bump the counters.  Every metric name belongs to exactly
//! one family (counter, gauge or histogram).
//!
//! Includes the PR's acceptance scenario: a pipelined run at depth ≥ 2 on a
//! forced 4-thread pool whose timeline reconciles with every stats surface.

mod common;

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use common::{planted_manager, walk_stream, Manager};
use ksir_chaos::{Fault, FaultKind, FaultPlan};
use ksir_continuous::{DeliveryConfig, EpochTimeline, ShardConfig, TelemetryConfig};

/// Asserts the full counter/trace/stats reconciliation on a settled manager
/// (no unsubscribes, ample trace ring).  Every equality here is exact.
fn assert_reconciled(mgr: &Manager) -> EpochTimeline {
    let telemetry = mgr.telemetry();
    let registry = telemetry.registry();
    let stats = mgr.stats();
    let timeline = telemetry.timeline();
    assert_eq!(timeline.truncated_events, 0, "trace ring must not overflow");

    // Trace ↔ ManagerStats.
    assert_eq!(timeline.epochs.len(), stats.slides, "one record per slide");
    assert_eq!(timeline.total_refreshes(), stats.refreshes as u64);
    assert_eq!(timeline.total_skips(), stats.skips as u64);

    // Trace ↔ ShardStats.
    let shard_stats = mgr.shard_stats();
    let scheduled: usize = shard_stats.iter().map(|s| s.scheduled_slides).sum();
    let skipped: usize = shard_stats.iter().map(|s| s.skipped_slides).sum();
    assert_eq!(timeline.total_shards_scheduled(), scheduled as u64);
    assert_eq!(timeline.total_shards_skipped(), skipped as u64);

    // Trace ↔ the snapshot counters: one capture per scheduling epoch, one
    // image served per scheduled shard-slide.
    assert_eq!(
        timeline.total_snapshots(),
        registry.counter("snapshot.epochs_captured").get()
    );
    assert_eq!(
        registry.counter("snapshot.shard_snapshots").get(),
        scheduled as u64
    );

    // Registry counters ↔ the live shards (no unsubscribes, so nothing
    // retired).
    let shard_refreshes: usize = shard_stats.iter().map(|s| s.refreshes).sum();
    let shard_skips: usize = shard_stats.iter().map(|s| s.skips).sum();
    assert_eq!(shard_refreshes, stats.refreshes);
    assert_eq!(shard_skips, stats.skips);
    assert_eq!(
        registry.counter("shard.scheduled_slides").get(),
        scheduled as u64
    );
    assert_eq!(
        registry.counter("shard.skipped_slides").get(),
        skipped as u64
    );

    // Gauges published at the barrier carry the settled numbers.
    assert_eq!(registry.gauge("manager.slides").get(), stats.slides as u64);
    assert_eq!(
        registry.gauge("manager.subscriptions").get(),
        mgr.subscription_count() as u64
    );
    assert_eq!(registry.gauge("manager.inflight_epochs").get(), 0);

    // Every epoch's refresh loops balance, and a scheduled shard-slide is
    // exactly one started/finished pair.
    for record in &timeline.epochs {
        assert_eq!(record.refreshes_started, record.shards_scheduled);
        assert_eq!(record.refreshes_finished, record.shards_scheduled);
    }
    timeline
}

/// The acceptance scenario: pipelined epochs on a forced 4-thread pool,
/// deliveries attached, tracing on.  The reconstructed
/// timeline reconciles exactly with `ManagerStats`, `ShardStats`, the
/// snapshot counters, and the delivery queues — and the exporters render
/// the same numbers.
#[test]
fn pipelined_timeline_reconciles_exactly_with_stats() {
    let config = ShardConfig::default()
        .with_threads(Some(4))
        .with_telemetry(TelemetryConfig::default().with_trace_capacity(1 << 20));
    let (mut mgr, subs, stream) = planted_manager(7, config);
    let receivers: Vec<_> = subs
        .iter()
        .map(|(id, _, _)| {
            mgr.attach_delivery(*id, DeliveryConfig::default().with_capacity(1 << 16))
                .unwrap()
        })
        .collect();
    let tickets = mgr.ingest_stream_async(stream.iter_pairs()).unwrap();
    assert!(tickets.len() >= 2, "stream must span several epochs");
    mgr.sync();

    let timeline = assert_reconciled(&mgr);

    // Delivery accounting: ample capacity, so nothing was shed and the
    // trace's delivered total equals both the registry counter and what
    // the consumers actually drain.
    let drained: usize = receivers.iter().map(|rx| rx.drain().len()).sum();
    assert!(receivers.iter().all(|rx| rx.dropped() == 0));
    let registry = mgr.telemetry().registry();
    assert_eq!(registry.counter("delivery.enqueued").get(), drained as u64);
    assert_eq!(registry.counter("delivery.dropped").get(), 0);
    assert_eq!(timeline.total_delivered(), drained as u64);
    assert_eq!(timeline.total_dropped(), 0);

    // The per-epoch ticket decisions are the trace's, epoch for epoch.
    for ticket in &tickets {
        let record = timeline.epoch(ticket.slide).expect("epoch traced");
        assert!(record.shards_scheduled >= ticket.shards_scheduled as u64);
        assert_eq!(record.shards_deferred, ticket.shards_deferred as u64);
        assert!(record.shards_skipped >= ticket.shards_skipped as u64);
    }

    // Stage histograms saw the pipeline's stages.
    for stage in [
        "ingest.admission_wait",
        "ingest.index_write",
        "ingest.project",
        "snapshot.capture",
        "refresh.shard",
        "worker.item",
    ] {
        assert!(
            registry.histogram(stage).count() > 0,
            "stage {stage} never recorded"
        );
    }
    assert!(timeline.slowest_drain().is_some());

    // Exporters render the reconciled numbers under the sanitized names.
    let prom = mgr.telemetry().render_prometheus();
    let stats = mgr.stats();
    assert!(prom.contains(&format!("ksir_shard_refreshes {}", stats.refreshes)));
    assert!(prom.contains("ksir_refresh_shard_bucket"));
    let json = mgr.telemetry().to_json();
    assert!(json.contains(&format!("\"shard.refreshes\": {}", stats.refreshes)));
    let timeline_json = timeline.to_json();
    assert!(timeline_json.contains("\"truncated_events\": 0"));
}

/// The synchronous path emits the same trace schema: a plain
/// `ingest_bucket` run (auto-sized and forced 4-thread pools) reconciles the
/// timeline against the stats and reproduces the per-slide outcome counts.
#[test]
fn sync_path_trace_reconciles_with_shard_stats() {
    for threads in [None, Some(4)] {
        let config = ShardConfig::default()
            .with_threads(threads)
            .with_telemetry(TelemetryConfig::default().with_trace_capacity(1 << 20));
        let (mut mgr, _subs, stream) = planted_manager(21, config);
        let outcomes = mgr.ingest_stream(stream.iter_pairs()).unwrap();
        mgr.sync();

        let timeline = assert_reconciled(&mgr);
        for (i, outcome) in outcomes.iter().enumerate() {
            let record = timeline.epoch((i + 1) as u64).expect("slide traced");
            assert_eq!(record.refreshed, outcome.refreshed as u64);
            assert_eq!(record.total_skips(), outcome.skipped as u64);
            assert_eq!(record.shards_scheduled, outcome.shards_scheduled as u64);
            assert_eq!(record.shards_skipped, outcome.shards_skipped as u64);
            assert_eq!(record.updates, outcome.updates.len() as u64);
        }
        // Every slide that scheduled a shard refreshed against one snapshot,
        // released before the next index write.
        let scheduling = outcomes.iter().filter(|o| o.shards_scheduled > 0);
        assert_eq!(timeline.total_snapshots(), scheduling.count() as u64);
        let engine = mgr.engine().stats();
        let clones = engine.ranked_cow_clones + engine.window_cow_clones;
        assert_eq!(clones + engine.topic_vector_cow_clones, 0);
    }
}

/// Delivery accounting through full queues with telemetry on: what the
/// consumers drain plus what the queues shed equals the result changes the
/// run produced, and the registry/trace views agree with the per-receiver
/// tallies.
#[test]
fn delivery_accounting_reconciles_under_all_policies() {
    // Reference: the total result changes the walk makes on this stream.
    let (_, subs, stream) = planted_manager(7, ShardConfig::default());
    let (_, slides) = walk_stream(&stream, &subs);
    let total_updates: usize = slides.iter().map(|s| s.updates.len()).sum();
    assert!(total_updates > 0, "stream must change some results");

    let config = ShardConfig::default()
        .with_telemetry(TelemetryConfig::default().with_trace_capacity(1 << 20));
    let (mut mgr, subs, stream) = planted_manager(7, config);
    let receivers: Vec<_> = subs
        .iter()
        .map(|(id, _, _)| {
            mgr.attach_delivery(*id, DeliveryConfig::default().with_capacity(2))
                .unwrap()
        })
        .collect();
    mgr.ingest_stream_async(stream.iter_pairs()).unwrap();
    mgr.sync();

    let drained: u64 = receivers.iter().map(|rx| rx.drain().len() as u64).sum();
    let shed: u64 = receivers.iter().map(|rx| rx.dropped()).sum();
    assert_eq!(
        drained + shed,
        total_updates as u64,
        "every result change is either drained or shed"
    );

    let registry = mgr.telemetry().registry();
    let enqueued = registry.counter("delivery.enqueued").get();
    let dropped = registry.counter("delivery.dropped").get();
    assert_eq!(dropped, shed, "registry sheds == receiver sheds");
    // Every delta is accepted; sheds evict already-enqueued deltas.
    assert_eq!(enqueued, total_updates as u64);
    assert_eq!(enqueued - dropped, drained);

    // The trace saw the same flow.
    let timeline = mgr.telemetry().timeline();
    assert_eq!(timeline.total_delivered(), enqueued);
    assert_eq!(timeline.total_dropped(), dropped);
}

/// Tracing off is a clean degradation: no events, empty timeline, but the
/// registry still carries every counter and the run's decisions are
/// unchanged (same stats as the traced run).
#[test]
fn disabled_tracing_keeps_metrics_and_decisions() {
    let traced_cfg = ShardConfig::default();
    let silent_cfg = traced_cfg.with_telemetry(TelemetryConfig::disabled());

    let (mut traced, _, stream) = planted_manager(7, traced_cfg);
    traced.ingest_stream_async(stream.iter_pairs()).unwrap();
    traced.sync();

    let (mut silent, _, _) = planted_manager(7, silent_cfg);
    silent.ingest_stream_async(stream.iter_pairs()).unwrap();
    silent.sync();

    assert_eq!(traced.stats(), silent.stats());
    assert!(silent.telemetry().trace().is_empty());
    assert!(silent.telemetry().timeline().epochs.is_empty());
    let registry = silent.telemetry().registry();
    assert!(registry.counter("shard.refreshes").get() > 0);
    assert!(registry.histogram("ingest.index_write").count() > 0);
}

/// A bounded ring sheds the oldest events and reports it, so a consumer can
/// tell a suffix from the whole stream.
#[test]
fn trace_ring_overflow_is_reported_not_silent() {
    let config =
        ShardConfig::default().with_telemetry(TelemetryConfig::default().with_trace_capacity(8));
    let (mut mgr, _, stream) = planted_manager(7, config);
    mgr.ingest_stream(stream.iter_pairs()).unwrap();

    let telemetry = mgr.telemetry();
    assert!(telemetry.trace().events_dropped() > 0);
    assert!(telemetry.trace().len() <= 8);
    let timeline = telemetry.timeline();
    assert!(timeline.truncated_events > 0);
    // The surviving suffix still groups by epoch.
    let epochs: BTreeMap<u64, u64> = timeline
        .epochs
        .iter()
        .map(|r| (r.epoch, r.shards_scheduled))
        .collect();
    assert!(!epochs.is_empty());
}

/// Each metric name belongs to exactly one family: after a faulted
/// pipelined run with churn — a worker kill, a quarantine, shards retired —
/// every `# TYPE` name in the Prometheus text is unique, and no name sits in
/// two of the JSON export's families.  A gauge mirror of a counter would
/// declare its name twice, which is invalid Prometheus text.
#[test]
fn every_metric_name_has_one_family() {
    let (mut mgr, subs, stream) = planted_manager(7, ShardConfig::default());
    Arc::new(FaultPlan::new(vec![
        Fault::once(2, None, FaultKind::KillWorker),
        // Every shard scheduled at epoch 3 exhausts its retry budget.
        Fault::once(3, None, FaultKind::PanicBeforeQuery(1)).times(1 << 10),
    ]))
    .install(&mut mgr);
    let pairs: Vec<_> = stream.iter_pairs().collect();
    let half = pairs.len() / 2;
    mgr.ingest_stream_async(pairs[..half].iter().cloned())
        .unwrap();
    for (id, _, _) in &subs[..subs.len() / 2] {
        assert!(mgr.unsubscribe(*id));
    }
    mgr.ingest_stream_async(pairs[half..].iter().cloned())
        .unwrap();
    mgr.sync();

    let registry = mgr.telemetry().registry();
    assert!(
        registry.counter("worker.restarts").get() > 0,
        "no worker died"
    );
    assert!(
        registry.counter("shard.quarantined").get() > 0,
        "no quarantine"
    );
    assert!(
        registry.counter("shard.retired").get() > 0,
        "no shard retired"
    );

    let prom = mgr.telemetry().render_prometheus();
    let mut declared = BTreeSet::new();
    for line in prom.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let name = rest.split(' ').next().unwrap();
            assert!(declared.insert(name), "{name} declared twice");
        }
    }
    assert!(declared.contains("ksir_worker_restarts"));
    assert!(declared.contains("ksir_shard_quarantined"));

    // Every family entry of the JSON export sits on its own line at the
    // same indent, so a name in two families shows up twice.
    let json = mgr.telemetry().to_json();
    let mut entries = BTreeSet::new();
    for line in json.lines().filter(|line| line.starts_with("    \"")) {
        let name = line.trim_start().split('"').nth(1).unwrap();
        assert!(entries.insert(name), "{name} sits in two families");
    }
    assert!(entries.contains("worker.restarts"));
}
