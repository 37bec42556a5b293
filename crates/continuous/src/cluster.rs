//! Shared evaluation plans: **plan clusters** of plan-compatible
//! subscriptions inside one shard.
//!
//! Every layer up to PR 6 reduced *per-query* refresh cost; this module
//! attacks the *query count*.  Subscriptions whose queries run the same
//! evaluation plan modulo `k` — identical query vector (bitwise), identical
//! `ε`, same algorithm ([`ksir_core::KsirQuery::plan_compatible`]) — are
//! grouped into a `PlanCluster` that owns
//!
//! * one **covering query** (`k = max` over members, same vector/`ε` — see
//!   [`ksir_core::KsirQuery::covering`]), whose single traversal reads at
//!   least as deep into every ranked list as any member's own run would, and
//! * its own conservative touch filters (the same three the shard keeps:
//!   loosest member floor per topic, union of member result elements,
//!   pending-initial count), so a slide skips the whole cluster exactly when
//!   it provably disturbs no member.
//!
//! ## Why clustering preserves decision identity
//!
//! The refresh path never lets sharing change a decision:
//!
//! 1. Every member of a *disturbed* cluster is still classified
//!    individually by the unchanged per-subscription rules
//!    ([`crate::shard`]'s `classify`), so refresh/skip decisions, reasons
//!    and counters match the per-subscription path member for member.
//! 2. The members needing refresh are served by **one traversal** of the
//!    covering query that answers each of their distinct `k` at once
//!    ([`ksir_core::QuerySource::query_per_k`]); identical queries produce
//!    identical, deterministic results, so same-`k` members share a clone.
//! 3. Each size's answer is exactly a plain run at that `k`.  Thresholds and
//!    bars depend on `k`, so reusing one size's *result* for another would
//!    be unsound; the traversal instead applies every size's own admission
//!    and stopping rules to the one retrieval order.  Nothing a traversal
//!    computes outlives it except the stored results.

use std::collections::HashSet;

use ksir_core::{Algorithm, FloorAggregate, KsirQuery};
use ksir_stream::WindowDelta;
use ksir_types::ElementId;

use crate::subscription::{Subscription, SubscriptionId};

/// Identity of one plan cluster inside a shard: everything two queries must
/// share — beyond the routing key — for their evaluation plans to be
/// identical modulo `k`.  Weights and `ε` compare bitwise, mirroring
/// [`KsirQuery::plan_compatible`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct ClusterKey {
    /// Index of the algorithm in [`Algorithm::ALL`].
    algorithm: u8,
    /// Bit pattern of the query `ε`.
    epsilon_bits: u64,
    /// `(topic index, weight bits)` of the query vector's support, in topic
    /// order.
    weights: Vec<(u32, u64)>,
}

impl ClusterKey {
    pub(crate) fn of(query: &KsirQuery, algorithm: Algorithm) -> Self {
        ClusterKey {
            algorithm: Algorithm::ALL
                .iter()
                .position(|&a| a == algorithm)
                .expect("Algorithm::ALL is exhaustive") as u8,
            epsilon_bits: query.epsilon().to_bits(),
            weights: query
                .vector()
                .support()
                .into_iter()
                .map(|(topic, weight)| (topic.0, weight.to_bits()))
                .collect(),
        }
    }
}

/// One cluster of plan-compatible subscriptions: the members, the covering
/// query, and the cluster-level touch filters.
#[derive(Debug)]
pub(crate) struct PlanCluster {
    /// Member subscriptions, sorted by id (deterministic evaluation order).
    pub(crate) members: Vec<SubscriptionId>,
    /// The algorithm every member runs.
    pub(crate) algorithm: Algorithm,
    /// The covering query over the *current* members (`k = max`).
    pub(crate) covering: KsirQuery,
    /// Loosest traversal floor per watched topic across the members.
    pub(crate) floors: FloorAggregate,
    /// Union of member result elements (refresh rule 2 at cluster level).
    pub(crate) result_members: HashSet<ElementId>,
    /// Members that have never been evaluated (refresh rule 1).
    pub(crate) pending_initial: usize,
}

impl PlanCluster {
    /// A cluster seeded with one member.
    pub(crate) fn new(id: SubscriptionId, sub: &Subscription) -> Self {
        let mut cluster = PlanCluster {
            members: vec![id],
            algorithm: sub.algorithm,
            covering: sub.query.clone(),
            floors: FloorAggregate::new(),
            result_members: HashSet::new(),
            pending_initial: 0,
        };
        cluster.absorb(sub);
        cluster
    }

    /// Number of distinct member `k` values — the result sizes one traversal
    /// of a disturbed cluster serves at most.
    #[cfg(test)]
    pub(crate) fn variants(
        &self,
        subs: &std::collections::BTreeMap<SubscriptionId, Subscription>,
    ) -> usize {
        let mut ks: Vec<usize> = self
            .members
            .iter()
            .filter_map(|id| subs.get(id).map(|s| s.query.k()))
            .collect();
        ks.sort_unstable();
        ks.dedup();
        ks.len()
    }

    /// Adds a member, keeping `members` sorted and the covering `k` current.
    pub(crate) fn add_member(&mut self, id: SubscriptionId, sub: &Subscription) {
        debug_assert!(self.covering.plan_compatible(&sub.query));
        if let Err(at) = self.members.binary_search(&id) {
            self.members.insert(at, id);
        }
        self.covering = KsirQuery::covering([&self.covering, &sub.query])
            .expect("cluster members are plan-compatible");
        self.absorb(sub);
    }

    /// Removes a member.  Returns `true` if the cluster is now empty and
    /// should be retired.  The caller must rebuild the cluster's filters and
    /// covering query from the surviving members
    /// ([`PlanCluster::rebuild`]).
    pub(crate) fn remove_member(&mut self, id: SubscriptionId) -> bool {
        if let Ok(at) = self.members.binary_search(&id) {
            self.members.remove(at);
        }
        self.members.is_empty()
    }

    /// Folds one member's state into the cluster filters (the cluster-level
    /// twin of the shard's `absorb_resident`).
    pub(crate) fn absorb(&mut self, sub: &Subscription) {
        match &sub.result {
            None => self.pending_initial += 1,
            Some(result) => {
                self.result_members.extend(result.elements.iter().copied());
                match &result.frontier {
                    Some(frontier) => self.floors.absorb(frontier),
                    None => {
                        for (topic, _) in sub.query.vector().support() {
                            self.floors.watch_any(topic);
                        }
                    }
                }
            }
        }
    }

    /// Recomputes the covering query and touch filters from the surviving
    /// members.  `lookup` resolves a member id to its subscription.
    pub(crate) fn rebuild<'a>(
        &mut self,
        mut lookup: impl FnMut(SubscriptionId) -> &'a Subscription,
    ) {
        self.floors.clear();
        self.result_members.clear();
        self.pending_initial = 0;
        let members = std::mem::take(&mut self.members);
        // Re-derive the covering query from scratch — it must not keep a
        // departed member's larger k.
        let mut covering: Option<KsirQuery> = None;
        for &id in &members {
            let sub = lookup(id);
            covering = Some(match covering {
                None => sub.query.clone(),
                Some(so_far) => KsirQuery::covering([&so_far, &sub.query])
                    .expect("cluster members are plan-compatible"),
            });
            self.absorb(sub);
        }
        if let Some(covering) = covering {
            self.covering = covering;
        }
        self.members = members;
    }

    /// Projects the slide delta onto the cluster filters: `true` iff some
    /// member could be disturbed.  The filters are a conservative union of
    /// the members' own `classify` conditions, so `false` here implies every
    /// member would individually classify as skippable — the property the
    /// cluster fast-skip relies on.
    pub(crate) fn is_touched_by(&self, delta: &WindowDelta) -> bool {
        if self.members.is_empty() {
            return false;
        }
        if self.pending_initial > 0 {
            return true;
        }
        if delta.lost_any(self.result_members.iter().copied()) {
            return true;
        }
        self.floors.disturbed_by(&delta.ranked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksir_types::{QueryVector, TopicId};
    use std::collections::BTreeMap;

    fn query(k: usize, weights: &[f64]) -> KsirQuery {
        KsirQuery::new(k, QueryVector::new(weights.to_vec()).unwrap()).unwrap()
    }

    #[test]
    fn cluster_key_separates_vector_epsilon_and_algorithm() {
        let a = ClusterKey::of(&query(3, &[0.5, 0.5]), Algorithm::Mtts);
        let same_plan_other_k = ClusterKey::of(&query(9, &[0.5, 0.5]), Algorithm::Mtts);
        assert_eq!(a, same_plan_other_k, "k must not split clusters");
        assert_ne!(a, ClusterKey::of(&query(3, &[0.4, 0.6]), Algorithm::Mtts));
        assert_ne!(a, ClusterKey::of(&query(3, &[0.5, 0.5]), Algorithm::Mttd));
        let other_eps = query(3, &[0.5, 0.5]).with_epsilon(0.2).unwrap();
        assert_ne!(a, ClusterKey::of(&other_eps, Algorithm::Mtts));
    }

    #[test]
    fn membership_tracks_covering_k_and_variants() {
        let mut subs: BTreeMap<SubscriptionId, Subscription> = BTreeMap::new();
        subs.insert(
            SubscriptionId(1),
            Subscription::new(query(3, &[1.0, 0.0]), Algorithm::Mtts),
        );
        subs.insert(
            SubscriptionId(2),
            Subscription::new(query(7, &[1.0, 0.0]), Algorithm::Mtts),
        );
        subs.insert(
            SubscriptionId(3),
            Subscription::new(query(7, &[1.0, 0.0]), Algorithm::Mtts),
        );
        let mut cluster = PlanCluster::new(SubscriptionId(1), &subs[&SubscriptionId(1)]);
        cluster.add_member(SubscriptionId(2), &subs[&SubscriptionId(2)]);
        cluster.add_member(SubscriptionId(3), &subs[&SubscriptionId(3)]);
        assert_eq!(
            cluster.members,
            vec![SubscriptionId(1), SubscriptionId(2), SubscriptionId(3)]
        );
        assert_eq!(cluster.covering.k(), 7);
        assert_eq!(cluster.variants(&subs), 2, "k ∈ {{3, 7}}");
        // Retiring the only max-k members shrinks the covering k on rebuild.
        assert!(!cluster.remove_member(SubscriptionId(2)));
        assert!(!cluster.remove_member(SubscriptionId(3)));
        cluster.rebuild(|id| &subs[&id]);
        assert_eq!(cluster.covering.k(), 3);
        assert!(cluster.remove_member(SubscriptionId(1)), "last member out");
    }

    #[test]
    fn pending_initial_member_always_touches() {
        let sub = Subscription::new(query(2, &[1.0, 0.0]), Algorithm::Mtts);
        let cluster = PlanCluster::new(SubscriptionId(0), &sub);
        assert_eq!(cluster.pending_initial, 1);
        assert!(cluster.is_touched_by(&WindowDelta::default()));
    }

    #[test]
    fn filters_mirror_member_frontiers() {
        use ksir_core::{QueryFrontier, QueryResult};
        let mut sub = Subscription::new(query(2, &[0.6, 0.4]), Algorithm::Mtts);
        sub.result = Some(QueryResult {
            elements: vec![ElementId(5)],
            frontier: Some(QueryFrontier::new(vec![(TopicId(0), Some(0.5))])),
            ..QueryResult::empty(Algorithm::Mtts)
        });
        let cluster = PlanCluster::new(SubscriptionId(0), &sub);
        assert_eq!(cluster.pending_initial, 0);
        assert!(cluster.result_members.contains(&ElementId(5)));
        // Touch below the member floor: invisible to the cluster.
        let mut below = WindowDelta {
            ranked: ksir_stream::RankedDelta::new(2),
            ..WindowDelta::default()
        };
        below.ranked.record(TopicId(0), 0.3);
        assert!(!cluster.is_touched_by(&below));
        let mut at = WindowDelta {
            ranked: ksir_stream::RankedDelta::new(2),
            ..WindowDelta::default()
        };
        at.ranked.record(TopicId(0), 0.5);
        assert!(cluster.is_touched_by(&at));
    }
}
