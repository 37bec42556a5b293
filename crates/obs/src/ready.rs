//! Readiness: is the pipeline keeping up, or should a load balancer stop
//! routing to it?
//!
//! `/health` is liveness — the server thread is accepting, nothing more.
//! `/ready` is the SLO check: it evaluates a [`ReadinessPolicy`] against the
//! live telemetry bundle and answers 503 while any bound is violated.  The
//! two inputs deliberately cover the two ways a k-SIR pipeline degrades:
//!
//! * **freshness lag** — the oldest ingested-but-undelivered epoch's age,
//!   read live from the [`FreshnessClock`](ksir_telemetry::FreshnessClock)
//!   (not from the `manager.freshness_lag` gauge, which is only republished
//!   at barriers and would go stale exactly when the pipeline stalls);
//! * **quarantined shards** — the `shard.quarantine_active` gauge, counted
//!   up at quarantine and back down when a lift restores the shard.

use std::time::Duration;

use ksir_telemetry::Telemetry;

/// Bounds a deployment considers "ready".  The defaults are deliberately
/// strict: any quarantined shard is a routing problem even when throughput
/// looks fine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadinessPolicy {
    /// Oldest unconsumed epoch may be at most this stale.
    pub max_freshness_lag: Duration,
    /// Quarantined shards tolerated before the instance is not ready.
    pub max_quarantined: u64,
}

impl Default for ReadinessPolicy {
    fn default() -> Self {
        ReadinessPolicy {
            max_freshness_lag: Duration::from_secs(5),
            max_quarantined: 0,
        }
    }
}

impl ReadinessPolicy {
    /// Overrides the freshness-lag bound.
    pub fn with_max_freshness_lag(mut self, lag: Duration) -> Self {
        self.max_freshness_lag = lag;
        self
    }

    /// Overrides the quarantine tolerance.
    pub fn with_max_quarantined(mut self, shards: u64) -> Self {
        self.max_quarantined = shards;
        self
    }
}

/// One readiness evaluation: the observed values, the verdict, and a reason
/// string per violated bound.
#[derive(Debug, Clone)]
pub struct Readiness {
    /// `true` when every bound holds.
    pub ready: bool,
    /// Live freshness lag (bundle-clock nanoseconds) at evaluation.
    pub freshness_lag_nanos: u64,
    /// `shard.quarantine_active` at evaluation.
    pub quarantined: u64,
    /// One human-readable line per violated bound; empty when ready.
    pub reasons: Vec<String>,
}

impl Readiness {
    /// Evaluates `policy` against the bundle's live state.
    pub fn evaluate(telemetry: &Telemetry, policy: &ReadinessPolicy) -> Self {
        let lag = telemetry.freshness().lag_nanos(telemetry.now_nanos());
        let quarantined = telemetry.registry().gauge("shard.quarantine_active").get();

        let mut reasons = Vec::new();
        let max_lag = policy.max_freshness_lag.as_nanos().min(u64::MAX as u128) as u64;
        if lag > max_lag {
            reasons.push(format!(
                "freshness lag {lag}ns exceeds {max_lag}ns (watermark stall)"
            ));
        }
        if quarantined > policy.max_quarantined {
            reasons.push(format!(
                "{quarantined} shard(s) quarantined (tolerance {})",
                policy.max_quarantined
            ));
        }
        Readiness {
            ready: reasons.is_empty(),
            freshness_lag_nanos: lag,
            quarantined,
            reasons,
        }
    }

    /// The evaluation as one JSON object (the `/ready` body).
    pub fn to_json(&self) -> String {
        let mut reasons = String::from("[");
        for (i, reason) in self.reasons.iter().enumerate() {
            if i > 0 {
                reasons.push_str(", ");
            }
            reasons.push('"');
            // Reasons are generated above from numbers and fixed text; the
            // escape keeps the invariant local anyway.
            reasons.push_str(&reason.replace('\\', "\\\\").replace('"', "\\\""));
            reasons.push('"');
        }
        reasons.push(']');
        format!(
            "{{\n  \"ready\": {},\n  \"freshness_lag_ns\": {},\n  \"quarantined\": {},\n  \
             \"reasons\": {}\n}}\n",
            self.ready, self.freshness_lag_nanos, self.quarantined, reasons,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksir_telemetry::TelemetryConfig;

    #[test]
    fn fresh_bundle_is_ready() {
        let telemetry = Telemetry::new(TelemetryConfig::default());
        let readiness = Readiness::evaluate(&telemetry, &ReadinessPolicy::default());
        assert!(readiness.ready);
        assert!(readiness.reasons.is_empty());
        assert!(readiness.to_json().contains("\"ready\": true"));
    }

    #[test]
    fn each_bound_trips_independently() {
        let telemetry = Telemetry::new(TelemetryConfig::default());
        let policy = ReadinessPolicy::default();

        // Watermark stall: an epoch stamped but never retired ages forever.
        telemetry.freshness().stamp(1, 0);
        let strict = policy.with_max_freshness_lag(Duration::ZERO);
        let readiness = Readiness::evaluate(&telemetry, &strict);
        assert!(!readiness.ready);
        assert!(readiness.reasons[0].contains("watermark stall"));
        telemetry.freshness().retire_through(1);
        assert!(Readiness::evaluate(&telemetry, &strict).ready);

        telemetry.registry().gauge("shard.quarantine_active").set(1);
        let readiness = Readiness::evaluate(&telemetry, &policy);
        assert!(!readiness.ready);
        assert!(readiness.reasons[0].contains("quarantined"));
        telemetry.registry().gauge("shard.quarantine_active").set(0);
        assert!(Readiness::evaluate(&telemetry, &policy).ready);
    }
}
