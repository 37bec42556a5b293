//! Shared evaluation plans: **plan clusters** of plan-compatible
//! subscriptions inside one shard.
//!
//! Every layer up to PR 6 reduced *per-query* refresh cost; this module
//! attacks the *query count*.  Subscriptions whose queries run the same
//! evaluation plan modulo `k` — identical query vector (bitwise), identical
//! `ε`, same algorithm ([`ksir_core::KsirQuery::plan_compatible`]) — are
//! grouped into a `PlanCluster` that owns one **covering query** (`k = max`
//! over members, same vector/`ε` — see
//! [`ksir_core::KsirQuery::covering`]), whose single traversal reads at
//! least as deep into every ranked list as any member's own run would.  A
//! cluster keeps no touch filter of its own: the shard's walk classifies
//! every member, and skips the cluster when none classifies.
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

use std::collections::BTreeMap;

use ksir_core::{Algorithm, KsirQuery};

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

/// One cluster of plan-compatible subscriptions: the members and the
/// covering query.
#[derive(Debug)]
pub(crate) struct PlanCluster {
    /// Member subscriptions, sorted by id (deterministic evaluation order).
    pub(crate) members: Vec<SubscriptionId>,
    /// The algorithm every member runs.
    pub(crate) algorithm: Algorithm,
    /// The covering query over the *current* members (`k = max`).
    pub(crate) covering: KsirQuery,
}

impl PlanCluster {
    /// A cluster seeded with one member.
    pub(crate) fn new(id: SubscriptionId, sub: &Subscription) -> Self {
        PlanCluster {
            members: vec![id],
            algorithm: sub.algorithm,
            covering: sub.query.clone(),
        }
    }

    /// Number of distinct member `k` values — the result sizes one traversal
    /// of a disturbed cluster serves at most.
    #[cfg(test)]
    pub(crate) fn variants(&self, subs: &BTreeMap<SubscriptionId, Subscription>) -> usize {
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
    }

    /// Removes a member and re-derives the covering query from the survivors
    /// in `subs` (it must not keep a departed member's larger `k`).  Returns
    /// `true` if the cluster is now empty and should be retired.
    pub(crate) fn remove_member(
        &mut self,
        id: SubscriptionId,
        subs: &BTreeMap<SubscriptionId, Subscription>,
    ) -> bool {
        if let Ok(at) = self.members.binary_search(&id) {
            self.members.remove(at);
        }
        if self.members.is_empty() {
            return true;
        }
        self.covering = KsirQuery::covering(self.members.iter().map(|id| &subs[id].query))
            .expect("cluster members are plan-compatible");
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksir_types::QueryVector;

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
        // Retiring the only max-k members shrinks the covering k.
        subs.remove(&SubscriptionId(2));
        assert!(!cluster.remove_member(SubscriptionId(2), &subs));
        assert_eq!(cluster.covering.k(), 7, "a k-7 member remains");
        subs.remove(&SubscriptionId(3));
        assert!(!cluster.remove_member(SubscriptionId(3), &subs));
        assert_eq!(cluster.covering.k(), 3);
        subs.remove(&SubscriptionId(1));
        assert!(
            cluster.remove_member(SubscriptionId(1), &subs),
            "last member out"
        );
    }
}
