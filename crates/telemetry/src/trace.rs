//! Epoch-scoped structured tracing: a bounded ring buffer of
//! [`TraceEvent`]s, each stamped with the epoch (1-based slide number), the
//! shard it concerns, and monotonic time.
//!
//! Events are emitted at the exact code sites that maintain the pipeline's
//! work counters — a shard records `RefreshFinished { refreshed, skipped }`
//! in the same call that bumps its `ShardStats` — so the trace and the
//! counters can never drift apart; the reconciliation tests assert equality,
//! not approximation.  The buffer is bounded: when full, the **oldest**
//! events are shed and counted in [`TraceLog::events_dropped`], keeping the
//! freshest window of the stream reconstructable.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Which shard an event concerns, without depending on the continuous
/// crate's key type.  [`ShardLabel::Topic`] carries the raw topic id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ShardLabel {
    /// A topic-keyed shard (raw topic id).
    Topic(u32),
    /// The overflow shard for broad subscriptions.
    Overflow,
}

impl std::fmt::Display for ShardLabel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardLabel::Topic(t) => write!(f, "shard[θ{t}]"),
            ShardLabel::Overflow => write!(f, "shard[overflow]"),
        }
    }
}

/// What happened.  Payload fields carry the counts the matching stats
/// structs accumulate, so a timeline can be reconciled against them exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A bucket was applied to the index (one per slide, either ingest API).
    SlideIngested {
        /// Elements the bucket inserted.
        elements: u64,
    },
    /// An immutable epoch snapshot was captured after the index write.
    SnapshotCaptured {
        /// Ranked lists (watched topics) the snapshot covers.
        topics: u64,
    },
    /// Some resident of a shard classified and its residents are being
    /// classified on a worker
    /// (mirrors `ShardStats::scheduled_slides`).
    ShardScheduled,
    /// A busy shard had this epoch appended to its lane; the owning worker
    /// makes the schedule/skip decision later, in epoch order.
    ShardDeferred,
    /// A shard was proven undisturbed as a whole (mirrors
    /// `ShardStats::skipped_slides`); every resident was charged one skip.
    ShardSkipped {
        /// Residents skipped without classification.
        residents: u64,
    },
    /// A scheduled shard's per-resident classification/refresh loop began.
    RefreshStarted,
    /// A scheduled shard finished its slide (mirrors the per-slide increments
    /// of `ShardStats::refreshes` / `ShardStats::skips`).
    RefreshFinished {
        /// Residents whose query was re-run.
        refreshed: u64,
        /// Residents classified as provably undisturbed.
        skipped: u64,
        /// Result deltas the refreshes produced.
        updates: u64,
    },
    /// A result delta was accepted into a subscriber's delivery queue.
    DeltaDelivered {
        /// Raw subscription id.
        subscription: u64,
    },
    /// A result delta was shed from a full delivery queue.
    DeltaDropped {
        /// Raw subscription id.
        subscription: u64,
    },
    /// A bucket arrived beyond the reorder horizon and was shed (mirrors
    /// `ManagerStats::late_dropped`).
    LateBucketDropped {
        /// Elements the shed bucket carried.
        elements: u64,
    },
    /// A shard refresh panicked and was caught at the worker's isolation
    /// boundary; the attempt published nothing.
    WorkerPanicked,
    /// A dead worker thread was detected at dispatch and replaced.
    WorkerRespawned,
    /// A shard exhausted its refresh retry budget and entered degraded
    /// (quarantined) mode: delta restriction and shared plans are off for
    /// its future refreshes.
    ShardQuarantined {
        /// Residents the shard held when quarantined.
        residents: u64,
    },
    /// A quarantined epoch was shed: every resident was charged one skip so
    /// the watermark advances and the counters keep reconciling.
    EpochShed {
        /// Residents charged a skip.
        residents: u64,
    },
}

impl TraceEventKind {
    /// Stable lowercase name, used by the exporters and the glossary.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEventKind::SlideIngested { .. } => "slide_ingested",
            TraceEventKind::SnapshotCaptured { .. } => "snapshot_captured",
            TraceEventKind::ShardScheduled => "shard_scheduled",
            TraceEventKind::ShardDeferred => "shard_deferred",
            TraceEventKind::ShardSkipped { .. } => "shard_skipped",
            TraceEventKind::RefreshStarted => "refresh_started",
            TraceEventKind::RefreshFinished { .. } => "refresh_finished",
            TraceEventKind::DeltaDelivered { .. } => "delta_delivered",
            TraceEventKind::DeltaDropped { .. } => "delta_dropped",
            TraceEventKind::LateBucketDropped { .. } => "late_bucket_dropped",
            TraceEventKind::WorkerPanicked => "worker_panicked",
            TraceEventKind::WorkerRespawned => "worker_respawned",
            TraceEventKind::ShardQuarantined { .. } => "shard_quarantined",
            TraceEventKind::EpochShed { .. } => "epoch_shed",
        }
    }
}

/// One trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotonic nanoseconds since the owning [`Telemetry`](crate::Telemetry)
    /// was created.
    pub at_nanos: u64,
    /// The 1-based slide (epoch) the event belongs to; 0 for events outside
    /// any slide.
    pub epoch: u64,
    /// The shard concerned, when the event is shard-scoped.
    pub shard: Option<ShardLabel>,
    /// What happened, with its counter payload.
    pub kind: TraceEventKind,
}

#[derive(Debug, Default)]
struct Ring {
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

/// The bounded trace ring buffer.
///
/// `record` takes one short mutex hold per event; events are per slide/shard
/// (not per element), so this is far off every hot loop.  Disable tracing
/// ([`TraceLog::set_enabled`]) to reduce the cost to a single relaxed atomic
/// load per call site — the CI telemetry-overhead gate holds the enabled
/// mode to within a tolerance of disabled.
#[derive(Debug)]
pub struct TraceLog {
    enabled: AtomicBool,
    capacity: usize,
    ring: Mutex<Ring>,
}

impl TraceLog {
    /// A trace log bounded to `capacity` events.
    pub fn new(capacity: usize, enabled: bool) -> Self {
        TraceLog {
            enabled: AtomicBool::new(enabled),
            capacity: capacity.max(1),
            ring: Mutex::new(Ring::default()),
        }
    }

    /// Whether events are currently being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off (existing events are kept).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// The ring's bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends one event, shedding the oldest when full.  No-op while
    /// disabled.
    pub fn record(&self, event: TraceEvent) {
        if !self.is_enabled() {
            return;
        }
        let mut ring = self.ring.lock().unwrap_or_else(|p| p.into_inner());
        if ring.events.len() >= self.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(event);
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.ring
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .events
            .len()
    }

    /// Returns `true` when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events shed because the ring was full.  A non-zero value means a
    /// reconstructed timeline covers a **suffix** of the stream only.
    pub fn events_dropped(&self) -> u64 {
        self.ring.lock().unwrap_or_else(|p| p.into_inner()).dropped
    }

    /// A point-in-time copy of the buffered events, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.ring
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .events
            .iter()
            .copied()
            .collect()
    }

    /// Discards all buffered events and the dropped tally.
    pub fn clear(&self) {
        let mut ring = self.ring.lock().unwrap_or_else(|p| p.into_inner());
        ring.events.clear();
        ring.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(epoch: u64, at: u64) -> TraceEvent {
        TraceEvent {
            at_nanos: at,
            epoch,
            shard: None,
            kind: TraceEventKind::SlideIngested { elements: 1 },
        }
    }

    #[test]
    fn ring_sheds_oldest_when_full() {
        let log = TraceLog::new(3, true);
        for i in 0..5 {
            log.record(event(i, i * 10));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.events_dropped(), 2);
        let epochs: Vec<u64> = log.snapshot().iter().map(|e| e.epoch).collect();
        assert_eq!(epochs, vec![2, 3, 4], "the freshest window survives");
        log.clear();
        assert!(log.is_empty());
        assert_eq!(log.events_dropped(), 0);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let log = TraceLog::new(8, false);
        log.record(event(1, 0));
        assert!(log.is_empty());
        log.set_enabled(true);
        log.record(event(2, 1));
        assert_eq!(log.len(), 1);
        assert!(log.is_enabled());
    }

    #[test]
    fn labels_and_kind_names_render() {
        assert_eq!(ShardLabel::Topic(3).to_string(), "shard[θ3]");
        assert_eq!(ShardLabel::Overflow.to_string(), "shard[overflow]");
        assert_eq!(
            TraceEventKind::RefreshFinished {
                refreshed: 1,
                skipped: 2,
                updates: 0
            }
            .name(),
            "refresh_finished"
        );
    }
}
