//! Graceful overload degradation: a reversible load-shed ladder driven by
//! admission-wait pressure.
//!
//! The async ingest path blocks in `wait_inflight_below(pipeline_depth)`
//! when the refresh workers fall behind; the time spent there is the
//! pipeline's backpressure signal (already exported as the
//! `ingest.admission_wait` histogram).  The [`OverloadController`] folds
//! that wait into an exponential moving average and walks a ladder of
//! degraded modes, cheapest savings first:
//!
//! 1. [`OverloadLevel::SharedPlansOff`] — stop shared-plan covering runs
//!    (per-resident refresh, still decision-identical; loses only the
//!    sharing of one run among same-`k` cluster members).
//! 2. [`OverloadLevel::TruncateFloors`] — capture floor-truncated epoch
//!    snapshots ([`SnapshotPolicy::TruncateAtFloors`]); cheapest captures,
//!    but trades exactness on floor-crossing re-runs.
//!
//! Every step is visible (the `overload.level` gauge, the
//! `overload.steps` counter, and an `overload_step` trace event) and
//! **reversible**: when the smoothed wait falls back under the step-down
//! threshold and the cooldown has elapsed, the controller walks back down
//! one rung at a time, restoring shard modes and snapshot policy.
//!
//! [`SnapshotPolicy::TruncateAtFloors`]: ksir_snapshot::SnapshotPolicy

use std::time::Duration;

/// A rung of the load-shed ladder, in increasing order of degradation.
/// `as_u64()` gives the gauge/trace encoding (0 = normal).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum OverloadLevel {
    /// No shedding: every optimisation and exactness guarantee is active.
    #[default]
    Normal,
    /// Shared-plan covering runs disabled; refresh is per-resident.
    SharedPlansOff,
    /// Epoch snapshots are floor-truncated as well; trades exactness on
    /// floor-crossing re-runs for the cheapest captures.
    TruncateFloors,
}

impl OverloadLevel {
    /// The rung index as exported on the `overload.level` gauge.
    pub fn as_u64(self) -> u64 {
        match self {
            OverloadLevel::Normal => 0,
            OverloadLevel::SharedPlansOff => 1,
            OverloadLevel::TruncateFloors => 2,
        }
    }

    /// Whether shared-plan covering runs stay enabled at this rung.
    pub fn shared_plans_enabled(self) -> bool {
        self < OverloadLevel::SharedPlansOff
    }

    /// Whether epoch snapshots are floor-truncated at this rung.
    pub fn truncate_snapshots(self) -> bool {
        self >= OverloadLevel::TruncateFloors
    }

    fn up(self) -> Self {
        match self {
            OverloadLevel::Normal => OverloadLevel::SharedPlansOff,
            _ => OverloadLevel::TruncateFloors,
        }
    }

    fn down(self) -> Self {
        match self {
            OverloadLevel::TruncateFloors => OverloadLevel::SharedPlansOff,
            _ => OverloadLevel::Normal,
        }
    }
}

/// Tuning for the [`OverloadController`].  Disabled by default: the ladder
/// only engages when a deployment opts in via
/// [`ShardConfig::with_overload`](crate::ShardConfig::with_overload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverloadConfig {
    /// Master switch; when `false`, `observe` never steps.
    pub enabled: bool,
    /// Smoothed admission wait (µs) above which the ladder steps up.
    pub step_up_micros: u64,
    /// Smoothed admission wait (µs) below which the ladder steps down.
    /// Keep well under `step_up_micros` for hysteresis.
    pub step_down_micros: u64,
    /// Minimum slides between consecutive steps (either direction), so one
    /// burst cannot ratchet straight to the top of the ladder.
    pub cooldown_slides: u64,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            enabled: false,
            step_up_micros: 2_000,
            step_down_micros: 500,
            cooldown_slides: 4,
        }
    }
}

impl OverloadConfig {
    /// An enabled config with the given thresholds (µs) and cooldown.
    pub fn enabled(step_up_micros: u64, step_down_micros: u64, cooldown_slides: u64) -> Self {
        OverloadConfig {
            enabled: true,
            step_up_micros,
            step_down_micros,
            cooldown_slides,
        }
    }
}

/// Walks the load-shed ladder from per-slide admission-wait observations.
/// Pure decision logic — the manager applies the returned level to shards,
/// snapshot policy, and telemetry.
#[derive(Debug)]
pub struct OverloadController {
    config: OverloadConfig,
    level: OverloadLevel,
    /// EMA of admission wait in microseconds (α = 1/4).
    ema_micros: u64,
    slides_since_step: u64,
}

impl OverloadController {
    /// A controller at [`OverloadLevel::Normal`].
    pub fn new(config: OverloadConfig) -> Self {
        OverloadController {
            config,
            level: OverloadLevel::Normal,
            ema_micros: 0,
            slides_since_step: 0,
        }
    }

    /// The current rung.
    pub fn level(&self) -> OverloadLevel {
        self.level
    }

    /// The smoothed admission wait, in microseconds.
    pub fn pressure_micros(&self) -> u64 {
        self.ema_micros
    }

    /// Feeds one slide's admission wait.  Returns `Some(new_level)` when
    /// the ladder stepped (in either direction), `None` otherwise.
    pub fn observe(&mut self, admission_wait: Duration) -> Option<OverloadLevel> {
        let sample = u64::try_from(admission_wait.as_micros()).unwrap_or(u64::MAX);
        // EMA with α = 1/4: responsive to sustained pressure, deaf to a
        // single outlier slide.
        self.ema_micros = self.ema_micros - self.ema_micros / 4 + sample / 4;
        if !self.config.enabled {
            return None;
        }
        self.slides_since_step = self.slides_since_step.saturating_add(1);
        if self.slides_since_step <= self.config.cooldown_slides {
            return None;
        }
        let next = if self.ema_micros >= self.config.step_up_micros {
            self.level.up()
        } else if self.ema_micros <= self.config.step_down_micros {
            self.level.down()
        } else {
            self.level
        };
        if next == self.level {
            return None;
        }
        self.level = next;
        self.slides_since_step = 0;
        Some(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wait(micros: u64) -> Duration {
        Duration::from_micros(micros)
    }

    #[test]
    fn ladder_steps_up_under_sustained_pressure_and_back_down() {
        let mut ctl = OverloadController::new(OverloadConfig::enabled(1_000, 100, 1));
        let mut steps = Vec::new();
        for _ in 0..16 {
            if let Some(level) = ctl.observe(wait(5_000)) {
                steps.push(level);
            }
        }
        assert_eq!(
            steps,
            vec![OverloadLevel::SharedPlansOff, OverloadLevel::TruncateFloors],
            "one rung at a time, saturating at the top"
        );
        steps.clear();
        for _ in 0..64 {
            if let Some(level) = ctl.observe(wait(0)) {
                steps.push(level);
            }
        }
        assert_eq!(
            steps,
            vec![OverloadLevel::SharedPlansOff, OverloadLevel::Normal],
            "fully reversible once pressure subsides"
        );
        assert_eq!(ctl.level(), OverloadLevel::Normal);
    }

    #[test]
    fn cooldown_prevents_ratcheting_on_a_single_burst() {
        let mut ctl = OverloadController::new(OverloadConfig::enabled(1_000, 100, 10));
        let mut stepped = 0;
        for _ in 0..11 {
            if ctl.observe(wait(100_000)).is_some() {
                stepped += 1;
            }
        }
        assert_eq!(stepped, 1, "second step blocked by cooldown");
        assert_eq!(ctl.level(), OverloadLevel::SharedPlansOff);
    }

    #[test]
    fn disabled_controller_tracks_pressure_but_never_steps() {
        let mut ctl = OverloadController::new(OverloadConfig::default());
        for _ in 0..32 {
            assert!(ctl.observe(wait(1_000_000)).is_none());
        }
        assert!(ctl.pressure_micros() > 0);
        assert_eq!(ctl.level(), OverloadLevel::Normal);
    }

    #[test]
    fn rung_predicates_encode_the_ladder() {
        assert!(OverloadLevel::Normal.shared_plans_enabled());
        assert!(!OverloadLevel::Normal.truncate_snapshots());
        assert!(!OverloadLevel::SharedPlansOff.shared_plans_enabled());
        assert!(!OverloadLevel::SharedPlansOff.truncate_snapshots());
        assert!(!OverloadLevel::TruncateFloors.shared_plans_enabled());
        assert!(OverloadLevel::TruncateFloors.truncate_snapshots());
        assert_eq!(OverloadLevel::TruncateFloors.as_u64(), 2);
    }
}
