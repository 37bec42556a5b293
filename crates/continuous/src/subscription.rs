//! Subscription state and per-slide result deltas.

use ksir_core::{Algorithm, KsirQuery, QueryFrontier, QueryResult};
use ksir_types::ElementId;

/// Opaque handle identifying one registered standing query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubscriptionId(pub(crate) u64);

impl SubscriptionId {
    /// The raw id value (stable for the lifetime of the manager).
    pub fn raw(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for SubscriptionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sub#{}", self.0)
    }
}

/// Why a subscription's query was re-run on a slide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshReason {
    /// First evaluation after registration.
    Initial,
    /// An element of the stored result expired out of the active window, so
    /// the query was recomputed from scratch against the full index.
    MemberExpired,
    /// A support topic's ranked list was touched at or above the score floor
    /// of the subscription's last traversal (or the subscription's algorithm
    /// carries no frontier and a support topic was touched at all).  The
    /// same rule, checked resident by resident, also decides which shards a
    /// slide schedules at all.
    TopicDisturbed,
    /// The caller forced a refresh via
    /// [`crate::SubscriptionManager::refresh`].
    Forced,
}

/// The change in one subscription's result set after a slide that refreshed
/// it.  Subscriptions skipped by the delta rules produce no `ResultDelta` —
/// their result is provably unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultDelta {
    /// The subscription this delta belongs to.
    pub subscription: SubscriptionId,
    /// Why the refresh happened.
    pub reason: RefreshReason,
    /// Elements newly in the result, in result order.
    pub added: Vec<ElementId>,
    /// Elements no longer in the result, sorted.
    pub removed: Vec<ElementId>,
    /// Representativeness score before the refresh (0 for the first one).
    pub score_before: f64,
    /// Representativeness score after the refresh.
    pub score_after: f64,
}

/// Score changes at or below this magnitude are considered numeric noise:
/// [`refresh_one`](crate::shard::refresh_one) does not emit a delta for them,
/// and [`ResultDelta::is_noop`] mirrors the same threshold so the two can
/// never disagree about what counts as a change.
pub(crate) const SCORE_EPS: f64 = 1e-12;

impl ResultDelta {
    /// Returns `true` if the refresh changed nothing observable: the result
    /// set is identical **and** the representativeness score is unchanged
    /// (beyond numeric noise).  A score-only delta — same members, different
    /// score, as happens when the window churns around a stable result set —
    /// is a real change and reports `false`.
    pub fn is_noop(&self) -> bool {
        self.added.is_empty()
            && self.removed.is_empty()
            && (self.score_after - self.score_before).abs() <= SCORE_EPS
    }
}

/// Per-subscription work counters.  Like
/// [`ManagerStats`](crate::ManagerStats), only slide-driven work is counted:
/// `refreshes + skips` equals the number of slides the subscription lived
/// through.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubscriptionStats {
    /// Slides that re-ran the query.
    pub refreshes: usize,
    /// Slides that proved the result unchanged without re-running.
    pub skips: usize,
    /// Refreshes that actually changed the result set.
    pub result_changes: usize,
}

/// One registered standing query.
///
/// Subscriptions live inside their home [`Shard`](crate::shard::Shard) —
/// keyed by the dominant support topic of `query`, or the overflow shard for
/// broad queries — and are only ever touched by that shard's refresh worker,
/// which is what makes the per-shard refresh embarrassingly parallel.
#[derive(Debug)]
pub(crate) struct Subscription {
    pub(crate) query: KsirQuery,
    pub(crate) algorithm: Algorithm,
    pub(crate) result: Option<QueryResult>,
    pub(crate) stats: SubscriptionStats,
}

impl Subscription {
    pub(crate) fn new(query: KsirQuery, algorithm: Algorithm) -> Self {
        Subscription {
            query,
            algorithm,
            result: None,
            stats: SubscriptionStats::default(),
        }
    }

    /// Traversal floors of the last refresh, when the algorithm reports them
    /// (always the frontier stored inside the current result — kept as a
    /// derivation so the two can never drift apart).
    pub(crate) fn frontier(&self) -> Option<&QueryFrontier> {
        self.result.as_ref().and_then(|r| r.frontier.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta(
        added: Vec<ElementId>,
        removed: Vec<ElementId>,
        before: f64,
        after: f64,
    ) -> ResultDelta {
        ResultDelta {
            subscription: SubscriptionId(0),
            reason: RefreshReason::TopicDisturbed,
            added,
            removed,
            score_before: before,
            score_after: after,
        }
    }

    #[test]
    fn score_only_delta_is_not_a_noop() {
        // `refresh_one` deliberately emits a delta when only the score moved
        // (same members, churned window); is_noop must agree that this is a
        // real change.
        let d = delta(Vec::new(), Vec::new(), 0.50, 0.75);
        assert!(!d.is_noop());
    }

    #[test]
    fn identical_result_and_score_is_a_noop() {
        let d = delta(Vec::new(), Vec::new(), 0.5, 0.5);
        assert!(d.is_noop());
        // Sub-epsilon jitter is numeric noise, not a change.
        let d = delta(Vec::new(), Vec::new(), 0.5, 0.5 + 1e-13);
        assert!(d.is_noop());
    }

    #[test]
    fn membership_changes_are_never_noops() {
        let d = delta(vec![ElementId(1)], Vec::new(), 0.5, 0.5);
        assert!(!d.is_noop());
        let d = delta(Vec::new(), vec![ElementId(2)], 0.5, 0.5);
        assert!(!d.is_noop());
    }
}
