//! Capture-side work counters.

use std::sync::Arc;

use ksir_telemetry::{Counter, MetricsRegistry};

/// Cumulative snapshot counters, read out as [`SnapshotStats`].
///
/// Cloneable handle over two counters, which are the only store of each
/// tally: [`with_registry`](SnapshotCounters::with_registry) resolves them as
/// `snapshot.*` counters of a caller's registry, [`new`](SnapshotCounters::new)
/// makes private ones.  Every [`EngineSnapshot`](crate::EngineSnapshot) capture
/// counts `snapshot.epochs_captured`; the subscription manager's workers
/// count `snapshot.shard_snapshots` on the same registry, once per shard
/// refresh served from an epoch image.
#[derive(Debug, Clone, Default)]
pub struct SnapshotCounters {
    epochs_captured: Arc<Counter>,
    shard_snapshots: Arc<Counter>,
}

impl SnapshotCounters {
    /// Fresh, all-zero private counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counters backed by the `snapshot.*` counters of `registry`.
    pub fn with_registry(registry: &MetricsRegistry) -> Self {
        SnapshotCounters {
            epochs_captured: registry.counter("snapshot.epochs_captured"),
            shard_snapshots: registry.counter("snapshot.shard_snapshots"),
        }
    }

    pub(crate) fn count_epoch(&self) {
        self.epochs_captured.inc();
    }

    /// A point-in-time copy of the tallies.
    pub fn stats(&self) -> SnapshotStats {
        SnapshotStats {
            epochs_captured: self.epochs_captured.get() as usize,
            shard_snapshots: self.shard_snapshots.get() as usize,
        }
    }
}

/// Point-in-time snapshot statistics (see [`SnapshotCounters`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Epoch images captured ([`EngineSnapshot`](crate::EngineSnapshot)s).
    pub epochs_captured: usize,
    /// Shard refreshes served from an epoch image.
    pub shard_snapshots: usize,
}
