//! Per-epoch reconstruction of the trace ring: what each slide decided,
//! what it cost, and which stage bounded it.
//!
//! The [`EpochTimeline`] folds a [`TraceLog`](crate::TraceLog) snapshot into
//! one [`EpochRecord`] per epoch.  Because every event payload carries the
//! same counts the registry counters accumulate, the timeline's totals
//! reconcile **exactly** with the `shard.*` / `snapshot.*` counters (and so
//! with `ManagerStats`, a view of them) and with the live shards'
//! `ShardStats` — unless the ring overflowed, which
//! [`EpochTimeline::truncated_events`] reports so a consumer never mistakes
//! a suffix for the whole stream.

use std::collections::BTreeMap;

use crate::trace::{TraceEvent, TraceEventKind};

/// Everything the trace recorded about one epoch (slide).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochRecord {
    /// The 1-based slide number.
    pub epoch: u64,
    /// When the index write landed (`slide_ingested`), if the event is in
    /// the ring.
    pub ingested_at_nanos: Option<u64>,
    /// Elements the slide's bucket inserted.
    pub elements: u64,
    /// Epoch snapshots captured for this slide (0 or 1 in practice).
    pub snapshots_captured: u64,
    /// Ranked lists the snapshot covered.
    pub snapshot_topics: u64,
    /// Shards whose filters fired and whose residents were classified.
    pub shards_scheduled: u64,
    /// Shards that received this epoch on a busy lane (decision deferred to
    /// the owning worker).
    pub shards_deferred: u64,
    /// Shards proven undisturbed as a whole.
    pub shards_skipped: u64,
    /// Skips charged to residents of undisturbed shards.
    pub residents_skipped: u64,
    /// Classification loops started on scheduled shards.
    pub refreshes_started: u64,
    /// Classification loops finished.
    pub refreshes_finished: u64,
    /// Residents whose query was re-run.
    pub refreshed: u64,
    /// Residents individually classified as skippable.
    pub classified_skips: u64,
    /// Result deltas produced.
    pub updates: u64,
    /// Deltas accepted into delivery queues.
    pub delivered: u64,
    /// Deltas shed by overflow policies.
    pub dropped: u64,
    /// Buckets shed for arriving beyond the reorder horizon.
    pub late_buckets_dropped: u64,
    /// Elements those shed buckets carried.
    pub late_elements_dropped: u64,
    /// Elements force-replayed into a later bucket.
    pub late_elements_replayed: u64,
    /// Refresh panics caught at the worker isolation boundary.
    pub worker_panics: u64,
    /// Dead workers replaced at dispatch.
    pub worker_respawns: u64,
    /// Shards quarantined into degraded mode.
    pub shards_quarantined: u64,
    /// Residents charged a skip because their quarantined epoch was shed.
    pub shed_residents: u64,
    /// Timestamp of the epoch's first event.
    pub first_at_nanos: u64,
    /// Timestamp of the epoch's last event.
    pub last_at_nanos: u64,
}

impl EpochRecord {
    /// All evaluations the delta rules saved this epoch: shard-level plus
    /// per-resident skips (the quantity `ManagerStats::skips` accumulates).
    pub fn total_skips(&self) -> u64 {
        self.residents_skipped + self.classified_skips
    }

    /// First event → last event.
    pub fn span_nanos(&self) -> u64 {
        self.last_at_nanos.saturating_sub(self.first_at_nanos)
    }

    /// Index write → last refresh/delivery event: how long the epoch's work
    /// outlived its ingest (the pipeline's per-epoch drain).
    pub fn drain_nanos(&self) -> u64 {
        match self.ingested_at_nanos {
            Some(ingested) => self.last_at_nanos.saturating_sub(ingested),
            None => self.span_nanos(),
        }
    }

    fn absorb(&mut self, event: &TraceEvent) {
        if self.first_at_nanos == 0 || event.at_nanos < self.first_at_nanos {
            self.first_at_nanos = event.at_nanos;
        }
        self.last_at_nanos = self.last_at_nanos.max(event.at_nanos);
        match event.kind {
            TraceEventKind::SlideIngested { elements } => {
                self.ingested_at_nanos = Some(event.at_nanos);
                self.elements += elements;
            }
            TraceEventKind::SnapshotCaptured { topics } => {
                self.snapshots_captured += 1;
                self.snapshot_topics += topics;
            }
            TraceEventKind::ShardScheduled => self.shards_scheduled += 1,
            TraceEventKind::ShardDeferred => self.shards_deferred += 1,
            TraceEventKind::ShardSkipped { residents } => {
                self.shards_skipped += 1;
                self.residents_skipped += residents;
            }
            TraceEventKind::RefreshStarted => self.refreshes_started += 1,
            TraceEventKind::RefreshFinished {
                refreshed,
                skipped,
                updates,
            } => {
                self.refreshes_finished += 1;
                self.refreshed += refreshed;
                self.classified_skips += skipped;
                self.updates += updates;
            }
            TraceEventKind::DeltaDelivered { .. } => self.delivered += 1,
            TraceEventKind::DeltaDropped { .. } => self.dropped += 1,
            TraceEventKind::LateBucketDropped { elements } => {
                self.late_buckets_dropped += 1;
                self.late_elements_dropped += elements;
            }
            TraceEventKind::LateBucketReplayed { elements } => {
                self.late_elements_replayed += elements;
            }
            TraceEventKind::WorkerPanicked => self.worker_panics += 1,
            TraceEventKind::WorkerRespawned => self.worker_respawns += 1,
            TraceEventKind::ShardQuarantined { .. } => self.shards_quarantined += 1,
            TraceEventKind::EpochShed { residents } => self.shed_residents += residents,
        }
    }
}

/// The reconstructed per-epoch history of a pipelined run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EpochTimeline {
    /// One record per epoch seen in the trace, in epoch order.
    pub epochs: Vec<EpochRecord>,
    /// Events the ring shed before this reconstruction.  Non-zero means the
    /// earliest epochs here may be partial and totals will undercount.
    pub truncated_events: u64,
}

impl EpochTimeline {
    /// Folds a trace snapshot (see
    /// [`TraceLog::snapshot`](crate::TraceLog::snapshot)) into per-epoch
    /// records.  Events with `epoch == 0` (outside any slide) are ignored.
    pub fn reconstruct(events: &[TraceEvent], truncated_events: u64) -> Self {
        let mut by_epoch: BTreeMap<u64, EpochRecord> = BTreeMap::new();
        for event in events {
            if event.epoch == 0 {
                continue;
            }
            let record = by_epoch.entry(event.epoch).or_default();
            record.epoch = event.epoch;
            record.absorb(event);
        }
        EpochTimeline {
            epochs: by_epoch.into_values().collect(),
            truncated_events,
        }
    }

    /// The record of one epoch, if traced.
    pub fn epoch(&self, epoch: u64) -> Option<&EpochRecord> {
        self.epochs
            .binary_search_by_key(&epoch, |r| r.epoch)
            .ok()
            .map(|i| &self.epochs[i])
    }

    /// Total queries re-run across all epochs (reconciles with
    /// `ManagerStats::refreshes`).
    pub fn total_refreshes(&self) -> u64 {
        self.epochs.iter().map(|r| r.refreshed).sum()
    }

    /// Total evaluations skipped (reconciles with `ManagerStats::skips`).
    pub fn total_skips(&self) -> u64 {
        self.epochs.iter().map(|r| r.total_skips()).sum()
    }

    /// Total scheduled shard-slides (reconciles with the sum of
    /// `ShardStats::scheduled_slides`).
    pub fn total_shards_scheduled(&self) -> u64 {
        self.epochs.iter().map(|r| r.shards_scheduled).sum()
    }

    /// Total undisturbed shard-slides (reconciles with the sum of
    /// `ShardStats::skipped_slides`).
    pub fn total_shards_skipped(&self) -> u64 {
        self.epochs.iter().map(|r| r.shards_skipped).sum()
    }

    /// Total epoch snapshots captured (reconciles with the
    /// `snapshot.epochs_captured` counter).
    pub fn total_snapshots(&self) -> u64 {
        self.epochs.iter().map(|r| r.snapshots_captured).sum()
    }

    /// Total deltas accepted into delivery queues.
    pub fn total_delivered(&self) -> u64 {
        self.epochs.iter().map(|r| r.delivered).sum()
    }

    /// Total deltas shed by overflow policies.
    pub fn total_dropped(&self) -> u64 {
        self.epochs.iter().map(|r| r.dropped).sum()
    }

    /// The epoch whose work outlived its ingest the longest — where
    /// `pipeline_depth` stalls come from: while this epoch drains, admission
    /// of `epoch + depth` waits.
    pub fn slowest_drain(&self) -> Option<&EpochRecord> {
        self.epochs.iter().max_by_key(|r| r.drain_nanos())
    }

    /// Machine-readable dump: one object per epoch plus the truncation
    /// marker, consumable by the same tooling that reads the registry JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"truncated_events\": ");
        out.push_str(&self.truncated_events.to_string());
        out.push_str(",\n  \"epochs\": [\n");
        for (i, r) in self.epochs.iter().enumerate() {
            out.push_str(&format!(
                "    {{ \"epoch\": {}, \"elements\": {}, \"snapshots\": {}, \
                 \"shards_scheduled\": {}, \"shards_deferred\": {}, \"shards_skipped\": {}, \
                 \"refreshed\": {}, \"skips\": {}, \"updates\": {}, \
                 \"delivered\": {}, \"dropped\": {}, \"drain_ns\": {} }}{}\n",
                r.epoch,
                r.elements,
                r.snapshots_captured,
                r.shards_scheduled,
                r.shards_deferred,
                r.shards_skipped,
                r.refreshed,
                r.total_skips(),
                r.updates,
                r.delivered,
                r.dropped,
                r.drain_nanos(),
                if i + 1 == self.epochs.len() { "" } else { "," },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::ShardLabel;

    fn ev(at: u64, epoch: u64, kind: TraceEventKind) -> TraceEvent {
        TraceEvent {
            at_nanos: at,
            epoch,
            shard: Some(ShardLabel::Topic(0)),
            kind,
        }
    }

    #[test]
    fn reconstruction_groups_and_sums_per_epoch() {
        let events = vec![
            ev(10, 1, TraceEventKind::SlideIngested { elements: 5 }),
            ev(12, 1, TraceEventKind::SnapshotCaptured { topics: 3 }),
            ev(14, 1, TraceEventKind::ShardScheduled),
            ev(15, 1, TraceEventKind::RefreshStarted),
            // Epoch 2 ingests while epoch 1 still drains (pipelining).
            ev(20, 2, TraceEventKind::SlideIngested { elements: 4 }),
            ev(22, 2, TraceEventKind::ShardSkipped { residents: 3 }),
            ev(
                30,
                1,
                TraceEventKind::RefreshFinished {
                    refreshed: 2,
                    skipped: 1,
                    updates: 2,
                },
            ),
            ev(31, 1, TraceEventKind::DeltaDelivered { subscription: 7 }),
            ev(32, 1, TraceEventKind::DeltaDropped { subscription: 9 }),
            // Events outside a slide are ignored.
            ev(33, 0, TraceEventKind::ShardDeferred),
        ];
        let timeline = EpochTimeline::reconstruct(&events, 0);
        assert_eq!(timeline.epochs.len(), 2);

        let e1 = timeline.epoch(1).unwrap();
        assert_eq!(e1.ingested_at_nanos, Some(10));
        assert_eq!(e1.elements, 5);
        assert_eq!(e1.snapshots_captured, 1);
        assert_eq!(e1.snapshot_topics, 3);
        assert_eq!(e1.shards_scheduled, 1);
        assert_eq!((e1.refreshed, e1.classified_skips, e1.updates), (2, 1, 2));
        assert_eq!((e1.delivered, e1.dropped), (1, 1));
        assert_eq!(e1.drain_nanos(), 22, "ingest at 10, last event at 32");

        let e2 = timeline.epoch(2).unwrap();
        assert_eq!(e2.shards_skipped, 1);
        assert_eq!(e2.residents_skipped, 3);
        assert_eq!(e2.total_skips(), 3);

        assert_eq!(timeline.total_refreshes(), 2);
        assert_eq!(timeline.total_skips(), 4);
        assert_eq!(timeline.total_shards_scheduled(), 1);
        assert_eq!(timeline.total_shards_skipped(), 1);
        assert_eq!(timeline.total_snapshots(), 1);
        assert_eq!(timeline.slowest_drain().unwrap().epoch, 1);
        assert!(timeline.epoch(3).is_none());
        let json = timeline.to_json();
        assert!(json.contains("\"epoch\": 1"));
        assert!(json.contains("\"truncated_events\": 0"));
    }
}
