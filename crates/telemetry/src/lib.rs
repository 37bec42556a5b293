//! Unified observability for the k-SIR pipeline: a lock-free metrics
//! registry, epoch-scoped structured tracing, and exporters that give the
//! benchmark, CI, and the live dashboard one schema to consume.
//!
//! The crate is dependency-free by design — the workspace vendors offline
//! stubs for its few external deps, and the telemetry layer must sit below
//! every other crate without enlarging the build graph.
//!
//! # Architecture
//!
//! One [`Telemetry`] bundle travels with a `SubscriptionManager` (shared by
//! `Arc` with its shards, workers, and delivery queues) and owns three
//! things:
//!
//! * a [`MetricsRegistry`] of [`Counter`]s, [`Gauge`]s, and log-bucketed
//!   latency [`Histogram`]s keyed by static stage names
//!   (`ingest.index_write`, `snapshot.capture`, `refresh.shard`, ...);
//! * a bounded [`TraceLog`] ring of [`TraceEvent`]s, each stamped with its
//!   epoch (1-based slide number), shard, and monotonic nanoseconds;
//! * the monotonic origin those timestamps are measured from.
//!
//! The registry is the one store of every aggregate tally: a pipeline-wide
//! count is a [`Counter`] and nothing else — never a field kept beside it,
//! nor a [`Gauge`] copy of it — so each name belongs to exactly one family,
//! and `ManagerStats` is a view that reads the counters back.  Gauges hold
//! only instantaneous values (queue depths, the watermark, live
//! quarantines).  Events are emitted at the exact code sites that bump the
//! counters, so the [`EpochTimeline`] reconstructed from the trace reconciles
//! **exactly** with them — the integration tests assert equality, not
//! correlation.

#![warn(missing_docs)]

mod export;
mod flight;
mod freshness;
mod metrics;
mod timeline;
mod trace;

pub use flight::{FlightRecord, FlightRecorder, FlightTrigger};
pub use freshness::FreshnessClock;
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry};
pub use timeline::{EpochRecord, EpochTimeline};
pub use trace::{ShardLabel, TraceEvent, TraceEventKind, TraceLog};

use std::time::Instant;

/// How much telemetry a manager collects.  Rides inside `ShardConfig`, so it
/// must stay `Copy + Eq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Whether the trace ring records events.  Metrics (counters, gauges,
    /// histograms) are always on; their cost is a relaxed atomic op per
    /// stage, not per element.
    pub tracing: bool,
    /// Bound on the trace ring; the oldest events are shed beyond it.
    pub trace_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            tracing: true,
            trace_capacity: 65_536,
        }
    }
}

impl TelemetryConfig {
    /// Tracing off (metrics stay on).
    pub fn disabled() -> Self {
        TelemetryConfig {
            tracing: false,
            ..TelemetryConfig::default()
        }
    }

    /// Overrides the trace ring bound.
    pub fn with_trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }
}

/// The telemetry bundle one pipeline shares: registry + trace ring + the
/// monotonic origin all trace timestamps are relative to.
#[derive(Debug)]
pub struct Telemetry {
    registry: MetricsRegistry,
    trace: TraceLog,
    freshness: FreshnessClock,
    flight: FlightRecorder,
    origin: Instant,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new(TelemetryConfig::default())
    }
}

impl Telemetry {
    /// A fresh bundle; the monotonic clock starts now.
    pub fn new(config: TelemetryConfig) -> Self {
        Telemetry {
            registry: MetricsRegistry::new(),
            trace: TraceLog::new(config.trace_capacity, config.tracing),
            freshness: FreshnessClock::default(),
            flight: FlightRecorder::default(),
            origin: Instant::now(),
        }
    }

    /// The metrics registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The trace ring.
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// The end-to-end freshness clock (epoch → ingest-timestamp map).
    pub fn freshness(&self) -> &FreshnessClock {
        &self.freshness
    }

    /// The flight recorder's ring of postmortem records.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Fires one flight-recorder trigger: atomically snapshots the metrics
    /// surface and the trace ring alongside the trigger's metadata into a
    /// [`FlightRecord`], and bumps the `flight.records` / `flight.dropped`
    /// counters.
    pub fn trigger_flight(&self, trigger: FlightTrigger) {
        let shed_before = self.flight.len() >= self.flight.capacity();
        self.flight.capture(
            self.now_nanos(),
            trigger,
            self.trace.events_dropped(),
            self.to_json(),
            &self.trace.snapshot(),
        );
        self.registry.counter("flight.records").inc();
        if shed_before {
            self.registry.counter("flight.dropped").inc();
        }
    }

    /// Monotonic nanoseconds since this bundle was created — the clock trace
    /// timestamps use.
    pub fn now_nanos(&self) -> u64 {
        self.origin.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Stamps and records one trace event.  A single relaxed load when
    /// tracing is disabled.
    pub fn record(&self, epoch: u64, shard: Option<ShardLabel>, kind: TraceEventKind) {
        if !self.trace.is_enabled() {
            return;
        }
        self.trace.record(TraceEvent {
            at_nanos: self.now_nanos(),
            epoch,
            shard,
            kind,
        });
    }

    /// Reconstructs the per-epoch timeline from the current trace contents.
    pub fn timeline(&self) -> EpochTimeline {
        EpochTimeline::reconstruct(&self.trace.snapshot(), self.trace.events_dropped())
    }

    /// Folds the trace ring's shed tally onto the gauge surface, so every
    /// export carries `trace.events_dropped` — the signal that a timeline
    /// reconstructed from the ring covers only a suffix of the stream.
    fn publish_trace_gauges(&self) {
        self.registry
            .gauge("trace.events_dropped")
            .set(self.trace.events_dropped());
    }

    /// Prometheus text rendering of the registry (see
    /// [`MetricsRegistry::render_prometheus`]).
    pub fn render_prometheus(&self) -> String {
        self.publish_trace_gauges();
        self.registry.render_prometheus()
    }

    /// JSON rendering of the registry (see [`MetricsRegistry::to_json`]).
    pub fn to_json(&self) -> String {
        self.publish_trace_gauges();
        self.registry.to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_records_and_reconstructs() {
        let telemetry = Telemetry::new(TelemetryConfig::default());
        telemetry.record(1, None, TraceEventKind::SlideIngested { elements: 2 });
        telemetry.record(
            1,
            Some(ShardLabel::Topic(0)),
            TraceEventKind::ShardScheduled,
        );
        telemetry.registry().counter("manager.slides").inc();

        let timeline = telemetry.timeline();
        assert_eq!(timeline.epochs.len(), 1);
        assert_eq!(timeline.epoch(1).unwrap().shards_scheduled, 1);
        assert!(telemetry
            .render_prometheus()
            .contains("ksir_manager_slides 1"));
        assert!(telemetry.to_json().contains("\"manager.slides\": 1"));
    }

    #[test]
    fn disabled_tracing_is_a_noop_but_metrics_stay_on() {
        let telemetry = Telemetry::new(TelemetryConfig::disabled());
        telemetry.record(1, None, TraceEventKind::SlideIngested { elements: 2 });
        assert!(telemetry.trace().is_empty());
        telemetry.registry().counter("still.counting").inc();
        assert_eq!(telemetry.registry().counter("still.counting").get(), 1);
    }

    #[test]
    fn timestamps_are_monotonic() {
        let telemetry = Telemetry::default();
        let a = telemetry.now_nanos();
        let b = telemetry.now_nanos();
        assert!(b >= a);
    }

    #[test]
    fn exports_surface_trace_events_dropped() {
        let telemetry = Telemetry::new(TelemetryConfig::default().with_trace_capacity(1));
        telemetry.record(1, None, TraceEventKind::SlideIngested { elements: 1 });
        telemetry.record(2, None, TraceEventKind::SlideIngested { elements: 1 });
        telemetry.record(3, None, TraceEventKind::SlideIngested { elements: 1 });
        assert!(telemetry
            .render_prometheus()
            .contains("ksir_trace_events_dropped 2"));
        assert!(telemetry.to_json().contains("\"trace.events_dropped\": 2"));
    }

    #[test]
    fn trigger_flight_snapshots_metrics_and_trace() {
        let telemetry = Telemetry::new(TelemetryConfig::default());
        telemetry.registry().counter("manager.slides").add(5);
        telemetry.record(
            3,
            Some(ShardLabel::Topic(7)),
            TraceEventKind::WorkerPanicked,
        );
        telemetry.trigger_flight(FlightTrigger::ShardQuarantined {
            epoch: 3,
            shard: ShardLabel::Topic(7),
        });
        let records = telemetry.flight().records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].trigger.name(), "shard_quarantined");
        assert!(records[0].metrics_json.contains("\"manager.slides\": 5"));
        assert!(records[0].trace_json.contains("worker_panicked"));
        assert_eq!(telemetry.registry().counter("flight.records").get(), 1);
        assert_eq!(telemetry.registry().counter("flight.dropped").get(), 0);
    }

    #[test]
    fn flight_ring_overflow_counts_dropped_records() {
        let telemetry = Telemetry::default();
        let capacity = telemetry.flight().capacity() as u64;
        for epoch in 1..=capacity + 1 {
            telemetry.trigger_flight(FlightTrigger::WorkerRespawned { epoch });
        }
        assert_eq!(telemetry.flight().len() as u64, capacity);
        assert_eq!(telemetry.flight().dropped(), 1);
        let records = telemetry.registry().counter("flight.records").get();
        assert_eq!(records, capacity + 1);
        assert_eq!(telemetry.registry().counter("flight.dropped").get(), 1);
    }
}
