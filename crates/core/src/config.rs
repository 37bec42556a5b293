//! Scoring and engine configuration.

use crate::stream::WindowConfig;
use ksir_types::{KsirError, Result};

/// Parameters of the representativeness scoring function (Equation 2).
///
/// `f_i(S) = λ·R_i(S) + (1-λ)/η · I_{i,t}(S)` where `λ ∈ [0,1]` trades off
/// the semantic score against the influence score and `η > 0` rescales the
/// influence score so both terms live on comparable ranges.  The paper uses
/// `λ = 0.5` everywhere, `η = 20` for AMiner/Reddit and `η = 200` for Twitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoringConfig {
    lambda: f64,
    eta: f64,
}

impl Default for ScoringConfig {
    fn default() -> Self {
        ScoringConfig {
            lambda: 0.5,
            eta: 20.0,
        }
    }
}

impl ScoringConfig {
    /// Creates a scoring configuration.
    ///
    /// `lambda` must lie in `[0, 1]` and `eta` must be a positive finite
    /// number; anything else would break the submodularity/monotonicity
    /// arguments behind the approximation guarantees.
    pub fn new(lambda: f64, eta: f64) -> Result<Self> {
        if !lambda.is_finite() || !(0.0..=1.0).contains(&lambda) {
            return Err(KsirError::invalid_parameter(
                "lambda",
                format!("must be in [0, 1], got {lambda}"),
            ));
        }
        if !eta.is_finite() || eta <= 0.0 {
            return Err(KsirError::invalid_parameter(
                "eta",
                format!("must be a positive finite number, got {eta}"),
            ));
        }
        Ok(ScoringConfig { lambda, eta })
    }

    /// The semantic/influence trade-off `λ`.
    #[inline]
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The influence rescaling factor `η`.
    #[inline]
    pub fn eta(&self) -> f64 {
        self.eta
    }

    /// Weight multiplying the semantic score `R_i` (that is, `λ`).
    #[inline]
    pub fn semantic_weight(&self) -> f64 {
        self.lambda
    }

    /// Weight multiplying the influence score `I_{i,t}` (that is, `(1-λ)/η`).
    #[inline]
    pub fn influence_weight(&self) -> f64 {
        (1.0 - self.lambda) / self.eta
    }

    /// Combines per-topic semantic and influence scores into `f_i`.
    #[inline]
    pub fn combine(&self, semantic: f64, influence: f64) -> f64 {
        self.semantic_weight() * semantic + self.influence_weight() * influence
    }
}

/// Retention policy of the engine's element archive.
///
/// The paper defines the active set `A_t` as the window elements *plus every
/// element they reference*, which means an element that has already slid out
/// of the window must be brought back when a fresh element references it
/// (e.g. `e2` in Table 1 re-enters `A_t` at `t = 7` when `e7` cites it).  The
/// engine therefore archives the elements it has seen so referenced parents
/// can be resurrected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArchiveRetention {
    /// Keep every ingested element (what the paper's in-memory evaluation
    /// setup effectively does).  Memory grows with the stream length.
    Unbounded,
    /// Keep elements for this many ticks after their posting time; references
    /// to older elements are ignored.
    Ticks(u64),
    /// Keep nothing: references to elements outside the active window are
    /// ignored.
    Disabled,
}

/// Full configuration of a [`crate::KsirEngine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Sliding-window length `T` and bucket length `L`.
    pub window: WindowConfig,
    /// Representativeness scoring parameters.
    pub scoring: ScoringConfig,
    /// If set, each element's topic distribution is truncated to its `n`
    /// most probable topics (and renormalised) at ingest time.
    ///
    /// Real topic-model inference assigns a little probability mass to every
    /// topic, which would put every element into every ranked list and defeat
    /// the pruning that MTTS/MTTD rely on.  The paper observes that "the
    /// average number of topics per element is less than 2"; truncation is how
    /// we reproduce that sparsity with an honest dense inference procedure.
    pub max_topics_per_element: Option<usize>,
    /// Topic probabilities strictly below this value are zeroed at ingest
    /// time (before the optional truncation above).  Defaults to `0.0`.
    pub min_topic_prob: f64,
    /// How long ingested elements are archived so that later references can
    /// bring them back into the active set.  Defaults to
    /// [`ArchiveRetention::Unbounded`].
    pub archive: ArchiveRetention,
}

impl EngineConfig {
    /// Creates a configuration with default sparsification (top-2 topics per
    /// element, mirroring the sparsity the paper reports).
    pub fn new(window: WindowConfig, scoring: ScoringConfig) -> Self {
        EngineConfig {
            window,
            scoring,
            max_topics_per_element: Some(2),
            min_topic_prob: 0.0,
            archive: ArchiveRetention::Unbounded,
        }
    }

    /// Overrides the per-element topic truncation (`None` disables it).
    pub fn with_max_topics_per_element(mut self, n: Option<usize>) -> Self {
        self.max_topics_per_element = n;
        self
    }

    /// Overrides the minimum topic probability kept at ingest time.
    pub fn with_min_topic_prob(mut self, p: f64) -> Self {
        self.min_topic_prob = p;
        self
    }

    /// Overrides the archive retention policy.
    pub fn with_archive(mut self, archive: ArchiveRetention) -> Self {
        self.archive = archive;
        self
    }

    /// Validates numeric fields that the builders cannot enforce by type.
    pub fn validate(&self) -> Result<()> {
        if !self.min_topic_prob.is_finite()
            || self.min_topic_prob < 0.0
            || self.min_topic_prob > 1.0
        {
            return Err(KsirError::invalid_parameter(
                "min_topic_prob",
                format!("must be in [0, 1], got {}", self.min_topic_prob),
            ));
        }
        if self.max_topics_per_element == Some(0) {
            return Err(KsirError::invalid_parameter(
                "max_topics_per_element",
                "must keep at least one topic per element (use None to disable truncation)",
            ));
        }
        if self.archive == ArchiveRetention::Ticks(0) {
            return Err(KsirError::invalid_parameter(
                "archive",
                "archive retention of 0 ticks keeps nothing; use ArchiveRetention::Disabled",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoring_config_validation() {
        assert!(ScoringConfig::new(-0.1, 1.0).is_err());
        assert!(ScoringConfig::new(1.1, 1.0).is_err());
        assert!(ScoringConfig::new(f64::NAN, 1.0).is_err());
        assert!(ScoringConfig::new(0.5, 0.0).is_err());
        assert!(ScoringConfig::new(0.5, -2.0).is_err());
        assert!(ScoringConfig::new(0.5, f64::INFINITY).is_err());
        assert!(ScoringConfig::new(0.0, 1.0).is_ok());
        assert!(ScoringConfig::new(1.0, 1.0).is_ok());
    }

    #[test]
    fn weights_follow_equation_2() {
        let c = ScoringConfig::new(0.5, 2.0).unwrap();
        assert_eq!(c.lambda(), 0.5);
        assert_eq!(c.eta(), 2.0);
        assert_eq!(c.semantic_weight(), 0.5);
        assert_eq!(c.influence_weight(), 0.25);
        assert!((c.combine(1.0, 2.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pure_semantic_and_pure_influence_extremes() {
        let sem_only = ScoringConfig::new(1.0, 5.0).unwrap();
        assert_eq!(sem_only.influence_weight(), 0.0);
        assert_eq!(sem_only.combine(3.0, 100.0), 3.0);
        let inf_only = ScoringConfig::new(0.0, 4.0).unwrap();
        assert_eq!(inf_only.semantic_weight(), 0.0);
        assert_eq!(inf_only.combine(100.0, 8.0), 2.0);
    }

    #[test]
    fn default_matches_paper_defaults() {
        let c = ScoringConfig::default();
        assert_eq!(c.lambda(), 0.5);
        assert_eq!(c.eta(), 20.0);
    }

    #[test]
    fn engine_config_validation() {
        let w = WindowConfig::new(24, 4).unwrap();
        let cfg = EngineConfig::new(w, ScoringConfig::default());
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.max_topics_per_element, Some(2));
        assert!(cfg.with_min_topic_prob(1.5).validate().is_err());
        let cfg =
            EngineConfig::new(w, ScoringConfig::default()).with_max_topics_per_element(Some(0));
        assert!(cfg.validate().is_err());
        let cfg = EngineConfig::new(w, ScoringConfig::default())
            .with_max_topics_per_element(None)
            .with_min_topic_prob(0.05);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn archive_retention_validation() {
        let w = WindowConfig::new(24, 4).unwrap();
        let base = EngineConfig::new(w, ScoringConfig::default());
        assert_eq!(base.archive, ArchiveRetention::Unbounded);
        assert!(base
            .with_archive(ArchiveRetention::Ticks(0))
            .validate()
            .is_err());
        assert!(base
            .with_archive(ArchiveRetention::Ticks(48))
            .validate()
            .is_ok());
        assert!(base
            .with_archive(ArchiveRetention::Disabled)
            .validate()
            .is_ok());
    }
}
