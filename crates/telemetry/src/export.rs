//! Exporters: one schema, two wire formats.
//!
//! [`MetricsRegistry::render_prometheus`] emits the Prometheus text
//! exposition format (counters, gauges, and cumulative `_bucket`/`_sum`/
//! `_count` histogram series); [`MetricsRegistry::to_json`] emits the same
//! view as a single JSON object with summary quantiles per histogram.  Both
//! are hand-rolled — the workspace takes no serialization dependency — and
//! both sanitize stage names (`ingest.index_write` →
//! `ksir_ingest_index_write`) so the dotted internal names stay valid metric
//! identifiers.

use crate::metrics::MetricsRegistry;

/// Prefix every exported metric carries, namespacing the pipeline's series.
const PREFIX: &str = "ksir_";

/// Static glossary of the pipeline's stage names, rendered as `# HELP`
/// lines.  Names are part of the program (see [`MetricsRegistry`]), so the
/// glossary is a plain match: an unknown name simply renders without a HELP
/// line rather than failing or inventing text.
fn help_for(name: &str) -> Option<&'static str> {
    Some(match name {
        "ingest.admission_wait" => {
            "Time a bucket waited for pipeline admission (two epochs in flight)"
        }
        "ingest.index_write" => "Time spent applying a bucket to the live index",
        "ingest.project" => "Time spent classifying shard residents against the slide delta",
        "ingest.reordered" => "Buckets re-sequenced by the reorder buffer",
        "ingest.late_dropped" => "Beyond-horizon buckets shed by the reorder buffer",
        "snapshot.capture" => "Time spent capturing an epoch's frozen engine image",
        "refresh.shard" => "Time one scheduled shard spent refreshing its residents",
        "refresh.gain_evaluations" => "Total scoring passes across all refreshes",
        "refresh.cluster.covering" => "Covering traversals run for plan clusters",
        "refresh.cluster.shared" => "Refreshes served by their cluster's covering traversal",
        "refresh.cluster.skipped" => "Clusters of scheduled shards in which no member classified",
        "worker.item" => "Time one pool worker spent on one queued shard refresh",
        "refresh.caller_item" => {
            "Time a synchronous slide's calling thread spent on one queued shard refresh"
        }
        "worker.panics" => "Refresh attempts that panicked (injected or real)",
        "worker.restarts" => "Worker threads respawned after death",
        "shard.refreshes" => "Slide-driven subscription refreshes (query re-runs)",
        "shard.skips" => "Slide-time subscription evaluations skipped by the delta rules",
        "shard.scheduled_slides" => "Shard-slides in which some resident classified",
        "shard.skipped_slides" => "Shard-slides proven undisturbed as a whole",
        "shard.retired" => "Shards retired after their last subscription left",
        "shard.quarantined" => "Shards quarantined after exhausting the retry budget (cumulative)",
        "shard.quarantine_active" => "Shards currently quarantined (live occupancy)",
        "delivery.enqueued" => "Result deltas accepted into delivery queues",
        "delivery.dropped" => "Result deltas shed from a full delivery queue",
        "delivery.e2e" => "Ingest-to-delivery freshness of accepted result deltas",
        "delivery.e2e.dropped" => "Ingest-to-shed age of result deltas shed from a full queue",
        "delivery.queue_depth" => "Result deltas sitting in delivery queues, summed",
        "manager.slides" => "Slides ingested",
        "manager.subscriptions" => "Standing subscriptions currently registered",
        "manager.inflight_epochs" => "Epochs admitted but not yet fully refreshed",
        "manager.freshness_lag" => "Age in nanoseconds of the oldest epoch not yet fully refreshed",
        "trace.events_dropped" => "Trace events shed by the bounded ring",
        "flight.records" => "Flight-recorder postmortem records captured",
        "flight.dropped" => "Flight records shed by the bounded flight ring",
        _ => return None,
    })
}

fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(PREFIX.len() + name.len());
    out.push_str(PREFIX);
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

impl MetricsRegistry {
    /// Renders every registered metric in the Prometheus text exposition
    /// format.  Histograms become cumulative `_bucket{le="..."}` series in
    /// **seconds** (the Prometheus convention for latency), plus `_sum` and
    /// `_count`.
    pub fn render_prometheus(&self) -> String {
        let (counters, gauges, histograms) = self.export_view();
        let mut out = String::new();
        for (name, counter) in counters {
            let id = sanitize(name);
            if let Some(help) = help_for(name) {
                out.push_str(&format!("# HELP {id} {help}\n"));
            }
            out.push_str(&format!("# TYPE {id} counter\n{id} {}\n", counter.get()));
        }
        for (name, gauge) in gauges {
            let id = sanitize(name);
            if let Some(help) = help_for(name) {
                out.push_str(&format!("# HELP {id} {help}\n"));
            }
            out.push_str(&format!("# TYPE {id} gauge\n{id} {}\n", gauge.get()));
        }
        for (name, histogram) in histograms {
            let id = sanitize(name);
            if let Some(help) = help_for(name) {
                out.push_str(&format!("# HELP {id} {help}\n"));
            }
            out.push_str(&format!("# TYPE {id} histogram\n"));
            let mut cumulative = 0;
            for (upper_nanos, count) in histogram.cumulative_buckets() {
                cumulative = count;
                out.push_str(&format!(
                    "{id}_bucket{{le=\"{}\"}} {count}\n",
                    upper_nanos as f64 / 1e9,
                ));
            }
            out.push_str(&format!("{id}_bucket{{le=\"+Inf\"}} {cumulative}\n"));
            out.push_str(&format!("{id}_sum {}\n", histogram.sum().as_secs_f64()));
            out.push_str(&format!("{id}_count {}\n", histogram.count()));
        }
        out
    }

    /// Renders every registered metric as one JSON object:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {name:
    /// {count, sum_ns, mean_ns, p50_ns, p95_ns, p99_ns, max_ns}}}`.
    /// Histogram figures are nanoseconds, matching the trace timestamps.
    pub fn to_json(&self) -> String {
        let (counters, gauges, histograms) = self.export_view();
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, counter)) in counters.iter().enumerate() {
            out.push_str(&format!(
                "{}\n    \"{name}\": {}",
                if i == 0 { "" } else { "," },
                counter.get()
            ));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (name, gauge)) in gauges.iter().enumerate() {
            out.push_str(&format!(
                "{}\n    \"{name}\": {}",
                if i == 0 { "" } else { "," },
                gauge.get()
            ));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (name, h)) in histograms.iter().enumerate() {
            out.push_str(&format!(
                "{}\n    \"{name}\": {{ \"count\": {}, \"sum_ns\": {}, \"mean_ns\": {}, \
                 \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \"max_ns\": {} }}",
                if i == 0 { "" } else { "," },
                h.count(),
                h.sum().as_nanos(),
                h.mean().as_nanos(),
                h.p50().as_nanos(),
                h.p95().as_nanos(),
                h.p99().as_nanos(),
                h.max().as_nanos(),
            ));
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn prometheus_rendering_is_well_formed() {
        let registry = MetricsRegistry::new();
        registry.counter("delivery.enqueued").add(3);
        registry.gauge("manager.slides").set(12);
        let h = registry.histogram("refresh.shard");
        h.record(Duration::from_micros(5));
        h.record(Duration::from_micros(700));

        let text = registry.render_prometheus();
        assert!(text.contains("# TYPE ksir_delivery_enqueued counter"));
        assert!(text.contains("ksir_delivery_enqueued 3"));
        assert!(text.contains("ksir_manager_slides 12"));
        assert!(text.contains("# TYPE ksir_refresh_shard histogram"));
        assert!(text.contains("ksir_refresh_shard_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("ksir_refresh_shard_count 2"));
        // Bucket series are cumulative: the last finite bucket equals the
        // total count.
        let finite_buckets: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("ksir_refresh_shard_bucket{le=") && !l.contains("+Inf"))
            .collect();
        assert_eq!(finite_buckets.len(), 2);
        assert!(finite_buckets[1].ends_with(" 2"));
    }

    #[test]
    fn json_rendering_covers_all_families() {
        let registry = MetricsRegistry::new();
        registry.counter("a.count").inc();
        registry.gauge("b.depth").set(4);
        registry
            .histogram("c.lat")
            .record(Duration::from_nanos(100));

        let json = registry.to_json();
        assert!(json.contains("\"a.count\": 1"));
        assert!(json.contains("\"b.depth\": 4"));
        assert!(json.contains("\"c.lat\": { \"count\": 1"));
        assert!(json.contains("\"sum_ns\": 100"));
        // Keep the output parseable by eye: object per family, no trailing
        // commas.
        assert!(!json.contains(",\n  }"));
    }

    #[test]
    fn empty_registry_renders_empty_families() {
        let registry = MetricsRegistry::new();
        assert_eq!(registry.render_prometheus(), "");
        let json = registry.to_json();
        assert!(json.contains("\"counters\": {\n  }"));
    }

    #[test]
    fn known_stage_names_carry_help_lines() {
        let registry = MetricsRegistry::new();
        registry.counter("delivery.enqueued").inc();
        registry.gauge("manager.freshness_lag").set(7);
        registry
            .histogram("delivery.e2e")
            .record(Duration::from_micros(3));
        registry.counter("made.up.stage").inc();

        let text = registry.render_prometheus();
        assert!(text.contains("# HELP ksir_delivery_enqueued "));
        assert!(text.contains("# HELP ksir_manager_freshness_lag "));
        assert!(text.contains("# HELP ksir_delivery_e2e "));
        // Unknown names still render; they just carry no HELP.
        assert!(text.contains("# TYPE ksir_made_up_stage counter"));
        assert!(!text.contains("# HELP ksir_made_up_stage"));
        // HELP, when present, immediately precedes its TYPE line.
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            if let Some(id) = line.strip_prefix("# HELP ") {
                let id = id.split(' ').next().unwrap();
                assert!(
                    lines[i + 1].starts_with(&format!("# TYPE {id} ")),
                    "HELP for {id} not followed by its TYPE"
                );
            }
        }
    }

    /// Prometheus exposition conformance over a registry exercising every
    /// family: each sample line's metric must have been declared by a
    /// preceding `# TYPE`, `_bucket` series must be cumulative
    /// (monotonically non-decreasing in `le` order), and the `+Inf` bucket
    /// must equal `_count`.
    #[test]
    fn prometheus_exposition_conforms() {
        let registry = MetricsRegistry::new();
        registry.counter("delivery.enqueued").add(9);
        registry.gauge("manager.inflight_epochs").set(2);
        let h = registry.histogram("delivery.e2e");
        for micros in [1u64, 5, 5, 40, 40, 40, 9000] {
            h.record(Duration::from_micros(micros));
        }
        // An empty histogram must still render a well-formed series.
        registry.histogram("refresh.shard");

        let text = registry.render_prometheus();
        let mut declared: Vec<String> = Vec::new();
        let mut bucket_last: std::collections::BTreeMap<String, (f64, u64)> = Default::default();
        let mut inf: std::collections::BTreeMap<String, u64> = Default::default();
        let mut counts: std::collections::BTreeMap<String, u64> = Default::default();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                declared.push(rest.split(' ').next().unwrap().to_string());
                continue;
            }
            if line.starts_with('#') {
                continue;
            }
            let metric = line.split(['{', ' ']).next().unwrap();
            let base = metric
                .strip_suffix("_bucket")
                .or_else(|| metric.strip_suffix("_sum"))
                .or_else(|| metric.strip_suffix("_count"))
                .unwrap_or(metric);
            assert!(
                declared.iter().any(|d| d == base),
                "sample {line:?} precedes its TYPE declaration"
            );
            let value = line.rsplit(' ').next().unwrap();
            if let Some(le) = line.split("le=\"").nth(1).and_then(|s| s.split('"').next()) {
                let count: u64 = value.parse().unwrap();
                if le == "+Inf" {
                    inf.insert(base.to_string(), count);
                } else {
                    let le: f64 = le.parse().unwrap();
                    if let Some((prev_le, prev_count)) = bucket_last.get(base) {
                        assert!(le > *prev_le, "buckets out of le order in {line:?}");
                        assert!(count >= *prev_count, "non-cumulative bucket in {line:?}");
                    }
                    bucket_last.insert(base.to_string(), (le, count));
                }
            } else if let Some(base) = metric.strip_suffix("_count") {
                counts.insert(base.to_string(), value.parse().unwrap());
            } else {
                // Plain counter/gauge sample: must parse as a number.
                value.parse::<f64>().unwrap();
            }
        }
        // +Inf bucket == _count for every histogram, including the empty one.
        assert_eq!(inf.len(), 2);
        assert_eq!(counts.len(), 2);
        for (base, inf_count) in &inf {
            assert_eq!(
                counts.get(base),
                Some(inf_count),
                "+Inf bucket != _count for {base}"
            );
        }
        assert_eq!(inf.get("ksir_delivery_e2e"), Some(&7));
        assert_eq!(inf.get("ksir_refresh_shard"), Some(&0));
    }

    #[test]
    fn empty_histogram_renders_inf_sum_count_only() {
        let registry = MetricsRegistry::new();
        registry.histogram("delivery.e2e");
        let text = registry.render_prometheus();
        assert!(text.contains("# TYPE ksir_delivery_e2e histogram"));
        assert!(text.contains("ksir_delivery_e2e_bucket{le=\"+Inf\"} 0"));
        assert!(text.contains("ksir_delivery_e2e_sum 0"));
        assert!(text.contains("ksir_delivery_e2e_count 0"));
        // No finite buckets for an empty histogram.
        assert!(!text
            .lines()
            .any(|l| l.starts_with("ksir_delivery_e2e_bucket{le=") && !l.contains("+Inf")));
    }
}
