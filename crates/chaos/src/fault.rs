//! Deterministic fault injection through the pipeline's test hooks.
//!
//! A [`FaultPlan`] holds [`Fault`]s at pipeline coordinates — epoch (1-based
//! slide number), shard, or subscription — that fire at the seams of
//! [`PipelineHooks`].  The worker retries a panic before a walk's `n`-th
//! cluster query (halfway through the walk when `n ≥ 2`); a poisoned send is
//! a counted shed; a kill panics outside every isolation boundary, so the
//! worker dies and is respawned.  Each fault is consumed as it fires and
//! leaves one `fault_injected` flight record in the plan's manager.

use std::ops::RangeInclusive;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use ksir_continuous::{
    FlightTrigger, PipelineHooks, ShardKey, SubscriptionId, SubscriptionManager, Telemetry,
};
use ksir_types::TopicWordDistribution;

/// The kind of fault to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// Panic before this (1-based) cluster query of a walk attempt.
    PanicBeforeQuery(usize),
    /// Delay epoch snapshot capture by this many milliseconds.
    DelaySnapshot(u64),
    /// Panic inside one delivery send to this subscription.
    PoisonDelivery(SubscriptionId),
    /// Kill the worker once it finishes the item that drained the epoch.
    KillWorker,
}

impl FaultKind {
    /// The `kind` its flight records carry.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::PanicBeforeQuery(_) => "panic_before_query",
            FaultKind::DelaySnapshot(_) => "delay_snapshot",
            FaultKind::PoisonDelivery(_) => "poison_delivery",
            FaultKind::KillWorker => "kill_worker",
        }
    }
}

/// One scheduled fault: where it fires, what it does, how many times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// The 1-based slide number the fault is armed for.
    pub epoch: u64,
    /// The shard the fault targets; `None` matches any shard.
    pub shard: Option<ShardKey>,
    /// What to inject.
    pub kind: FaultKind,
    /// Remaining firings; the fault is removed when this reaches zero.
    pub fires: usize,
}

impl Fault {
    /// A fault that fires exactly once at the given coordinates.
    pub fn once(epoch: u64, shard: Option<ShardKey>, kind: FaultKind) -> Self {
        Fault {
            epoch,
            shard,
            kind,
            fires: 1,
        }
    }

    /// The same fault with a firing budget of `n`.
    pub fn times(mut self, n: usize) -> Self {
        self.fires = n;
        self
    }
}

/// One fault that fired: its epoch, kind, and the shard it hit.
pub type Fired = (u64, FaultKind, Option<ShardKey>);

/// A deterministic schedule of faults, consulted by the pipeline's hooks.
#[derive(Debug, Default)]
pub struct FaultPlan {
    faults: Mutex<Vec<Fault>>,
    fired: Mutex<Vec<Fired>>,
    /// Where each firing leaves its flight record.
    telemetry: OnceLock<Arc<Telemetry>>,
}

impl FaultPlan {
    /// A plan pre-loaded with `faults`.
    pub fn new(faults: Vec<Fault>) -> Self {
        FaultPlan {
            faults: Mutex::new(faults),
            ..FaultPlan::default()
        }
    }

    /// Installs the plan as `mgr`'s hooks, recording each firing in
    /// `mgr.telemetry()`'s flight recorder.  A plan serves one manager.
    pub fn install<D: TopicWordDistribution>(self: &Arc<Self>, mgr: &mut SubscriptionManager<D>) {
        let telemetry = Arc::clone(mgr.telemetry());
        self.telemetry.set(telemetry).expect("installed twice");
        mgr.set_hooks(self.clone());
    }

    /// Scheduled firings not yet spent.
    pub fn remaining(&self) -> usize {
        self.faults.lock().unwrap().iter().map(|f| f.fires).sum()
    }

    /// Every fault that fired, sorted (workers fire them in any order).
    pub fn fired(&self) -> Vec<Fired> {
        let mut fired = self.fired.lock().unwrap().clone();
        fired.sort();
        fired
    }

    /// Consumes the first fault armed in `epochs`, on `shard`, of a kind
    /// `want` accepts; records it and returns its kind.
    fn take(
        &self,
        epochs: RangeInclusive<u64>,
        shard: Option<ShardKey>,
        want: impl Fn(FaultKind) -> bool,
    ) -> Option<FaultKind> {
        let mut faults = self.faults.lock().unwrap();
        let hit = faults.iter().position(|f| {
            epochs.contains(&f.epoch) && want(f.kind) && (f.shard.is_none() || f.shard == shard)
        })?;
        let Fault { epoch, kind, .. } = faults[hit];
        faults[hit].fires -= 1;
        if faults[hit].fires == 0 {
            faults.swap_remove(hit);
        }
        drop(faults);
        self.fired.lock().unwrap().push((epoch, kind, shard));
        if let Some(telemetry) = self.telemetry.get() {
            let name = kind.name();
            telemetry.trigger_flight(FlightTrigger::FaultInjected { epoch, kind: name });
        }
        Some(kind)
    }
}

impl PipelineHooks for FaultPlan {
    fn before_cluster_query(&self, epoch: u64, shard: ShardKey, query: usize) {
        let hit = |k| k == FaultKind::PanicBeforeQuery(query);
        if self.take(epoch..=epoch, Some(shard), hit).is_some() {
            panic!("injected panic before cluster query {query} at epoch {epoch} on {shard}");
        }
    }

    fn before_delivery(&self, epoch: u64, subscription: SubscriptionId) {
        let hit = |k| k == FaultKind::PoisonDelivery(subscription);
        if self.take(epoch..=epoch, None, hit).is_some() {
            panic!("injected delivery fault at epoch {epoch} on {subscription}");
        }
    }

    fn after_work_item(&self, shard: ShardKey, epochs: RangeInclusive<u64>) {
        let kill = |k| k == FaultKind::KillWorker;
        if self.take(epochs.clone(), Some(shard), kill).is_some() {
            panic!("injected worker kill after {shard} drained epochs {epochs:?}");
        }
    }

    fn before_snapshot(&self, epoch: u64) {
        let delay = |k| matches!(k, FaultKind::DelaySnapshot(_));
        if let Some(FaultKind::DelaySnapshot(ms)) = self.take(epoch..=epoch, None, delay) {
            std::thread::sleep(Duration::from_millis(ms));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksir_core::{fixtures::paper_example, Algorithm, KsirQuery};
    use ksir_types::{QueryVector, TopicId};

    const T1: ShardKey = ShardKey::Topic(TopicId(1));

    #[test]
    fn faults_consume_on_match_and_respect_coordinates() {
        let plan = FaultPlan::new(vec![
            Fault::once(3, Some(T1), FaultKind::PanicBeforeQuery(2)),
            Fault::once(4, None, FaultKind::DelaySnapshot(7)),
        ]);
        let fires = |epoch, shard, query| {
            let hit = std::panic::catch_unwind(|| plan.before_cluster_query(epoch, shard, query));
            hit.is_err()
        };
        assert_eq!(plan.remaining(), 2);
        // Wrong epoch, shard or query index: no fire.
        assert!(!fires(2, T1, 2));
        assert!(!fires(3, ShardKey::Topic(TopicId(2)), 2));
        assert!(!fires(3, T1, 1));
        // Exact match fires once, then is gone.
        assert!(fires(3, T1, 2));
        assert!(!fires(3, T1, 2));
        plan.before_snapshot(4);
        assert_eq!(plan.remaining(), 0);
        assert_eq!(
            plan.fired(),
            [
                (3, FaultKind::PanicBeforeQuery(2), Some(T1)),
                (4, FaultKind::DelaySnapshot(7), None)
            ]
        );
    }

    #[test]
    fn wildcard_shard_matches_any_and_times_bounds_firings() {
        let plan = FaultPlan::new(vec![Fault::once(1, None, FaultKind::KillWorker).times(2)]);
        let kills = |shard, epochs| {
            let hit = std::panic::catch_unwind(|| plan.after_work_item(shard, epochs));
            hit.is_err()
        };
        assert!(!kills(ShardKey::Overflow, 2..=3), "epoch 1 not drained");
        assert!(kills(ShardKey::Overflow, 1..=2));
        assert!(kills(T1, 1..=1));
        assert!(!kills(ShardKey::Overflow, 1..=1));
        assert_eq!(plan.fired().len(), 2);
    }

    /// A poison names its subscription; a kill and a poison at the same
    /// epoch consume independently, each leaving one flight record.
    #[test]
    fn kill_and_poison_seams_consume_independently() {
        let mut mgr = SubscriptionManager::new(paper_example().empty_engine());
        let query = KsirQuery::new(2, QueryVector::new(vec![0.5, 0.5]).unwrap()).unwrap();
        let a = mgr.subscribe(query.clone(), Algorithm::Mtts).unwrap();
        let b = mgr.subscribe(query, Algorithm::Mttd).unwrap();
        let plan = Arc::new(FaultPlan::new(vec![
            Fault::once(2, None, FaultKind::KillWorker),
            Fault::once(2, None, FaultKind::PoisonDelivery(b)),
        ]));
        plan.install(&mut mgr);
        let poisons =
            |epoch, sub| std::panic::catch_unwind(|| plan.before_delivery(epoch, sub)).is_err();
        assert!(!poisons(1, b));
        assert!(!poisons(2, a));
        let kills = std::panic::catch_unwind(|| plan.after_work_item(T1, 2..=2));
        assert!(kills.is_err());
        assert!(poisons(2, b));
        assert_eq!(plan.remaining(), 0);
        let flight = mgr.telemetry().flight().records();
        assert_eq!(flight.len(), 2);
        assert!(flight.iter().all(|r| r.trigger.name() == "fault_injected"));
    }
}
