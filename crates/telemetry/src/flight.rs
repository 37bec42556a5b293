//! The flight recorder: event-triggered postmortem snapshots.
//!
//! The trace ring is bounded, so by the time a human looks at a failure the
//! events that explain it have usually been shed.  The flight recorder fixes
//! that: when a trigger event fires — a shard quarantine, a late-drop
//! burst, a worker respawn, or an injected fault — the
//! owning [`Telemetry`](crate::Telemetry) bundle atomically captures the
//! **current** trace ring, the full metrics surface, and the trigger's
//! metadata into one JSON [`FlightRecord`], kept in a bounded ring of its
//! own.  Records survive until capacity-shed (oldest first, counted), are
//! served over `/flight` by `ksir-obs`, and are dumped to disk by the chaos
//! harness as CI artifacts.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::trace::{ShardLabel, TraceEvent};

/// What tripped the flight recorder.  Every variant carries the epoch it
/// fired in (0 for events outside any slide).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightTrigger {
    /// A shard exhausted its refresh retry budget and was quarantined.
    ShardQuarantined {
        /// The epoch the quarantining refresh belonged to.
        epoch: u64,
        /// The quarantined shard.
        shard: ShardLabel,
    },
    /// A single arrival shed at least the configured burst threshold of
    /// late elements (see `TelemetryConfig::late_drop_burst`).
    LateDropBurst {
        /// The epoch (slide count) at the shed.
        epoch: u64,
        /// Elements the shed bucket carried.
        dropped: u64,
    },
    /// A dead worker thread was detected and respawned.
    WorkerRespawned {
        /// The epoch at detection (0: detection happens at dispatch).
        epoch: u64,
    },
    /// A test's fault plan fired a scheduled fault at one of the pipeline's
    /// test hooks; chaos runs assert exactly one record per injected fault.
    FaultInjected {
        /// The epoch the fault was armed for.
        epoch: u64,
        /// Stable name of the fault kind (e.g. `panic_before_query`).
        kind: &'static str,
    },
}

impl FlightTrigger {
    /// Stable lowercase trigger name, used in record JSON and by the chaos
    /// per-fault oracle.
    pub fn name(&self) -> &'static str {
        match self {
            FlightTrigger::ShardQuarantined { .. } => "shard_quarantined",
            FlightTrigger::LateDropBurst { .. } => "late_drop_burst",
            FlightTrigger::WorkerRespawned { .. } => "worker_respawned",
            FlightTrigger::FaultInjected { .. } => "fault_injected",
        }
    }

    /// The epoch the trigger fired in.
    pub fn epoch(&self) -> u64 {
        match *self {
            FlightTrigger::ShardQuarantined { epoch, .. }
            | FlightTrigger::LateDropBurst { epoch, .. }
            | FlightTrigger::WorkerRespawned { epoch }
            | FlightTrigger::FaultInjected { epoch, .. } => epoch,
        }
    }

    fn meta_json(&self) -> String {
        match *self {
            FlightTrigger::ShardQuarantined { epoch, shard } => {
                format!("{{ \"epoch\": {epoch}, \"shard\": \"{shard}\" }}")
            }
            FlightTrigger::LateDropBurst { epoch, dropped } => {
                format!("{{ \"epoch\": {epoch}, \"dropped\": {dropped} }}")
            }
            FlightTrigger::WorkerRespawned { epoch } => {
                format!("{{ \"epoch\": {epoch} }}")
            }
            FlightTrigger::FaultInjected { epoch, kind } => {
                format!("{{ \"epoch\": {epoch}, \"kind\": \"{kind}\" }}")
            }
        }
    }
}

fn trace_json(events: &[TraceEvent]) -> String {
    let mut out = String::from("[");
    for (i, event) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{ \"at_ns\": {}, \"epoch\": {}, \"shard\": {}, \"kind\": \"{}\" }}",
            event.at_nanos,
            event.epoch,
            match event.shard {
                Some(label) => format!("\"{label}\""),
                None => "null".to_string(),
            },
            event.kind.name(),
        ));
    }
    out.push(']');
    out
}

/// One postmortem snapshot: the trigger, plus the metrics surface and trace
/// ring exactly as they stood when it fired.
#[derive(Debug, Clone)]
pub struct FlightRecord {
    /// Monotonically increasing capture number (never reused, so a consumer
    /// can detect records shed between polls).
    pub seq: u64,
    /// Monotonic nanoseconds (bundle clock) at capture.
    pub at_nanos: u64,
    /// What fired.
    pub trigger: FlightTrigger,
    /// Trace events shed from the trace ring *before* this capture — a
    /// non-zero value means `trace` covers a suffix of the stream only.
    pub trace_events_dropped: u64,
    /// The full metrics surface at capture, as the registry's JSON
    /// rendering.
    pub metrics_json: String,
    /// The trace ring at capture, rendered as a JSON array of events.
    pub trace_json: String,
}

impl FlightRecord {
    /// The record as one JSON object (`metrics` and `trace` embedded as
    /// structured JSON, not strings).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"seq\": {},\n  \"at_ns\": {},\n  \"trigger\": \"{}\",\n  \
             \"meta\": {},\n  \"trace_events_dropped\": {},\n  \"metrics\": {},\n  \
             \"trace\": {}\n}}",
            self.seq,
            self.at_nanos,
            self.trigger.name(),
            self.trigger.meta_json(),
            self.trace_events_dropped,
            self.metrics_json.trim_end(),
            self.trace_json,
        )
    }
}

#[derive(Debug, Default)]
struct Ring {
    records: VecDeque<FlightRecord>,
    next_seq: u64,
    dropped: u64,
}

/// The bounded ring of flight records.  `capacity == 0` disables capture
/// entirely (triggers become no-ops).
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    ring: Mutex<Ring>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(32)
    }
}

impl FlightRecorder {
    /// A recorder bounded to `capacity` records (0 = disabled).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity,
            ring: Mutex::new(Ring::default()),
        }
    }

    /// The ring's bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether triggers capture anything.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Appends one record, shedding the oldest when full.  Returns `false`
    /// while disabled.  Prefer
    /// [`Telemetry::trigger_flight`](crate::Telemetry::trigger_flight),
    /// which fills in the snapshot fields and bumps the `flight.*` counters.
    pub fn capture(
        &self,
        at_nanos: u64,
        trigger: FlightTrigger,
        trace_events_dropped: u64,
        metrics_json: String,
        trace: &[TraceEvent],
    ) -> bool {
        if !self.is_enabled() {
            return false;
        }
        let mut ring = self.ring.lock().unwrap_or_else(|p| p.into_inner());
        if ring.records.len() >= self.capacity {
            ring.records.pop_front();
            ring.dropped += 1;
        }
        let seq = ring.next_seq;
        ring.next_seq += 1;
        ring.records.push_back(FlightRecord {
            seq,
            at_nanos,
            trigger,
            trace_events_dropped,
            metrics_json,
            trace_json: trace_json(trace),
        });
        true
    }

    /// Records currently retained, oldest first.
    pub fn records(&self) -> Vec<FlightRecord> {
        self.ring
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .records
            .iter()
            .cloned()
            .collect()
    }

    /// Number of records currently retained.
    pub fn len(&self) -> usize {
        self.ring
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .records
            .len()
    }

    /// Returns `true` when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records shed because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().unwrap_or_else(|p| p.into_inner()).dropped
    }

    /// The whole ring as one JSON object:
    /// `{"capacity": c, "dropped": d, "records": [...]}`.
    pub fn to_json(&self) -> String {
        let records = self.records();
        let mut out = format!(
            "{{\n\"capacity\": {},\n\"dropped\": {},\n\"records\": [",
            self.capacity,
            self.dropped()
        );
        for (i, record) in records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            out.push_str(&record.to_json());
        }
        out.push_str("\n]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEventKind;

    fn trigger(epoch: u64) -> FlightTrigger {
        FlightTrigger::WorkerRespawned { epoch }
    }

    #[test]
    fn ring_sheds_oldest_and_seq_never_reuses() {
        let recorder = FlightRecorder::new(2);
        for epoch in 1..=4 {
            assert!(recorder.capture(epoch * 10, trigger(epoch), 0, "{}".into(), &[]));
        }
        assert_eq!(recorder.len(), 2);
        assert_eq!(recorder.dropped(), 2);
        let seqs: Vec<u64> = recorder.records().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![2, 3], "freshest records survive, seq is global");
    }

    #[test]
    fn zero_capacity_disables_capture() {
        let recorder = FlightRecorder::new(0);
        assert!(!recorder.is_enabled());
        assert!(!recorder.capture(1, trigger(1), 0, "{}".into(), &[]));
        assert!(recorder.is_empty());
    }

    #[test]
    fn record_json_embeds_trigger_metrics_and_trace() {
        let recorder = FlightRecorder::new(4);
        let events = [TraceEvent {
            at_nanos: 5,
            epoch: 2,
            shard: Some(ShardLabel::Overflow),
            kind: TraceEventKind::WorkerPanicked,
        }];
        recorder.capture(
            99,
            FlightTrigger::FaultInjected {
                epoch: 2,
                kind: "panic_in_refresh",
            },
            1,
            "{ \"counters\": { } }".into(),
            &events,
        );
        let json = recorder.to_json();
        assert!(json.contains("\"trigger\": \"fault_injected\""));
        assert!(json.contains("\"kind\": \"panic_in_refresh\""));
        assert!(json.contains("\"trace_events_dropped\": 1"));
        assert!(json.contains("\"shard\": \"shard[overflow]\""));
        assert!(json.contains("\"kind\": \"worker_panicked\""));
        assert!(json.contains("\"counters\""));
        // Trigger accessors used by the chaos oracle.
        let records = recorder.records();
        assert_eq!(records[0].trigger.name(), "fault_injected");
        assert_eq!(records[0].trigger.epoch(), 2);
    }
}
