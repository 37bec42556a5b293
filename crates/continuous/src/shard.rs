//! Topic-keyed shards of the subscription table.
//!
//! Subscriptions are partitioned by the **dominant support topic** of their
//! query vector.  A slide's [`WindowDelta`] names exactly the topics it
//! touched, so most shards hold no resident the slide can disturb.
//!
//! The only touch filter is the per-subscription rule (`classify`): a
//! resident must refresh when it has no result yet, a stored member expired,
//! or a support topic was touched at or above its traversal floor.  A slide
//! schedules a shard iff some resident classifies, checked on the ingest
//! thread and stopping at the first resident that fires.  Scheduled shards
//! classify every resident again on a worker, so the refresh/skip decision
//! for every individual subscription — and therefore the work counters —
//! are **identical** to the per-subscription walk.  Unscheduled shards
//! charge one skip per resident without touching them.
//!
//! Queries whose support is broader than
//! [`ShardConfig::overflow_support_threshold`] topics have no meaningful
//! dominant topic; they rendezvous in the dedicated
//! [`ShardKey::Overflow`] shard instead of pinning an arbitrary topic shard
//! to a near-global topic set.
//!
//! ## Shared evaluation plans
//!
//! A shard groups its residents into **plan clusters**
//! (`cluster::PlanCluster`): subscriptions whose queries are
//! plan-compatible — identical vector and `ε`, same algorithm — differ only
//! in `k`, so a scheduled shard serves each disturbed cluster from one
//! traversal of its **covering** query that answers every distinct member
//! `k` at once.  Same-`k` members share a result outright.  A lone
//! subscription is a cluster of one.  Each member is classified by the
//! per-subscription rules, and a cluster none of whose members classifies
//! is skipped whole, so stats and delivered deltas are those of a
//! per-subscription walk (the `shared_plans` tests pin this against one in
//! test code) — only the number of traversals drops.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use ksir_core::stream::WindowDelta;
use ksir_core::{KsirQuery, QueryResult, QuerySource};
use ksir_telemetry::{
    Counter, Gauge, Histogram, ShardLabel, Telemetry, TelemetryConfig, TraceEventKind,
};
use ksir_types::{ElementId, TopicId};

use crate::cluster::{ClusterKey, PlanCluster};
use crate::subscription::{RefreshReason, ResultDelta, Subscription, SubscriptionId};
use crate::worker::PipelineHooks;

/// Identity of one shard of the subscription table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ShardKey {
    /// Subscriptions whose dominant support topic is this topic.
    Topic(TopicId),
    /// Rendezvous shard for broad subscriptions (support wider than the
    /// configured threshold) and degenerate queries with no dominant topic.
    Overflow,
}

impl ShardKey {
    /// Returns `true` for the overflow shard.
    pub fn is_overflow(&self) -> bool {
        matches!(self, ShardKey::Overflow)
    }
}

impl std::fmt::Display for ShardKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardKey::Topic(topic) => write!(f, "shard[{topic}]"),
            ShardKey::Overflow => write!(f, "shard[overflow]"),
        }
    }
}

/// Sharding and parallelism settings of a
/// [`SubscriptionManager`](crate::SubscriptionManager).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Queries with support (non-zero topics) strictly wider than this route
    /// to the [`ShardKey::Overflow`] shard instead of a topic shard.
    pub overflow_support_threshold: usize,
    /// Size of the refresh worker pool; `None` uses
    /// [`std::thread::available_parallelism`].  `Some(1)` runs one worker,
    /// so scheduled shards refresh one after another.
    pub max_threads: Option<usize>,
    /// How much telemetry the manager collects (see [`TelemetryConfig`]).
    /// Tracing is on by default; metrics are always on.
    pub telemetry: TelemetryConfig,
    /// How many out-of-order bucket positions
    /// [`ingest_bucket_reordered`](crate::SubscriptionManager::ingest_bucket_reordered)
    /// re-sequences before releasing to the engine.  `0` (the default) is a
    /// pass-through that still sheds regressions instead of surfacing them
    /// as ingest errors.  See [`crate::reorder`].
    pub reorder_horizon: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            overflow_support_threshold: 4,
            max_threads: None,
            telemetry: TelemetryConfig::default(),
            reorder_horizon: 0,
        }
    }
}

impl ShardConfig {
    /// Topic-sharded routing with a one-worker pool: scheduled shards
    /// refresh one at a time.
    pub fn serial() -> Self {
        ShardConfig::default().with_threads(Some(1))
    }

    /// A single (overflow) shard on a one-worker pool — the baseline the
    /// sharded configurations are tested against.
    pub fn unsharded() -> Self {
        ShardConfig {
            overflow_support_threshold: 0,
            max_threads: Some(1),
            ..ShardConfig::default()
        }
    }

    /// Overrides the worker-thread bound (`None` = auto).
    pub fn with_threads(mut self, max_threads: Option<usize>) -> Self {
        self.max_threads = max_threads;
        self
    }

    /// Overrides the overflow routing threshold.
    pub fn with_overflow_support_threshold(mut self, threshold: usize) -> Self {
        self.overflow_support_threshold = threshold;
        self
    }

    /// Overrides the telemetry configuration (e.g.
    /// [`TelemetryConfig::disabled`] to turn tracing off).
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Overrides the reorder horizon (out-of-order bucket positions the
    /// reordered ingest path re-sequences before releasing).
    pub fn with_reorder_horizon(mut self, horizon: usize) -> Self {
        self.reorder_horizon = horizon;
        self
    }

    /// The shard a query routes to under this configuration: its dominant
    /// support topic, or the overflow shard when the support is broader than
    /// the threshold.
    pub fn route(&self, query: &KsirQuery) -> ShardKey {
        let vector = query.vector();
        if vector.support_size() > self.overflow_support_threshold {
            return ShardKey::Overflow;
        }
        match vector.as_topic_vector().dominant_topic() {
            Some(topic) => ShardKey::Topic(topic),
            // Unreachable for valid QueryVectors (all-zero is rejected), but
            // the overflow shard is always a safe home.
            None => ShardKey::Overflow,
        }
    }

    /// The effective refresh worker-thread cap: `max_threads`, or the host's
    /// [`std::thread::available_parallelism`] when unset.
    pub fn worker_threads(&self) -> usize {
        self.max_threads
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
            .max(1)
    }
}

/// Cumulative work counters of one live shard.
///
/// These are the truly per-shard numbers.  Manager-wide totals — over live
/// *and* retired shards — live only in the metrics registry's `shard.*` and
/// `refresh.cluster.*` counters, from which
/// [`SubscriptionManager::stats`](crate::SubscriptionManager::stats) reads
/// its refresh and skip totals.  Every resident of a scheduled shard is
/// classified individually, and every resident of an unscheduled shard is
/// charged one skip, so `refreshes + skips` grows by the resident count each
/// slide.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardStats {
    /// Which shard these counters belong to.
    pub key: ShardKey,
    /// Current number of resident subscriptions.
    pub subscriptions: usize,
    /// Slide-driven query re-runs across all residents.
    pub refreshes: usize,
    /// Slide-time evaluations skipped (shard-level and per-resident).
    pub skips: usize,
    /// Slides for which some resident classified, so every resident was
    /// classified on a worker.
    pub scheduled_slides: usize,
    /// Slides the shard was proven undisturbed as a whole.
    pub skipped_slides: usize,
    /// Current number of plan clusters.
    pub clusters: usize,
    /// Whether the shard is quarantined: it exhausted a refresh retry
    /// budget and shed that epoch (see the worker's fault isolation).  It
    /// keeps refreshing; `shard.quarantine_active` holds `/ready` down
    /// until [`SubscriptionManager::lift_quarantines`](crate::SubscriptionManager::lift_quarantines).
    pub quarantined: bool,
}

impl ShardStats {
    /// Fraction of slide-time evaluations the delta rules skipped.
    pub fn skip_rate(&self) -> f64 {
        let total = self.refreshes + self.skips;
        if total == 0 {
            0.0
        } else {
            self.skips as f64 / total as f64
        }
    }
}

/// The telemetry label of a shard key (same rendering, but free of the
/// continuous crate's types so the telemetry crate stays dependency-free).
pub(crate) fn label_of(key: ShardKey) -> ShardLabel {
    match key {
        ShardKey::Topic(TopicId(t)) => ShardLabel::Topic(t),
        ShardKey::Overflow => ShardLabel::Overflow,
    }
}

/// One shard's handle into the manager's [`Telemetry`] bundle: the shared
/// trace/registry plus pre-resolved metric handles, so the refresh loop
/// never touches the registry's name map.
///
/// The registry counters (`shard.refreshes`, `shard.skips`, ...) are the
/// only store of the manager-wide totals; the [`ShardStats`] fields bumped
/// beside them describe this shard alone and retire with it.
#[derive(Debug, Clone)]
pub(crate) struct ShardTelemetry {
    bundle: Arc<Telemetry>,
    label: ShardLabel,
    refresh_hist: Arc<Histogram>,
    refreshes: Arc<Counter>,
    skips: Arc<Counter>,
    scheduled_slides: Arc<Counter>,
    skipped_slides: Arc<Counter>,
    /// `refresh.cluster.*` counters: how the shared-plan layer served a
    /// scheduled slide — covering traversals actually run, member refreshes
    /// served by sharing a traversal, and scheduled clusters in which no
    /// member classified.
    cluster_covering: Arc<Counter>,
    cluster_shared: Arc<Counter>,
    cluster_skipped: Arc<Counter>,
    /// `refresh.gain_evaluations`: total scoring passes (marginal-gain /
    /// singleton evaluations) of all slide-driven query runs.  A pure cost
    /// counter; the benchmark's `continuous.gain_evals_per_refresh` reads
    /// it.
    gain_evaluations: Arc<Counter>,
    /// `shard.quarantine_active`: shards quarantined right now.  Moved only
    /// when a shard's flag flips, so it can never drift from the flags.
    quarantine_active: Arc<Gauge>,
}

impl ShardTelemetry {
    pub(crate) fn new(bundle: Arc<Telemetry>, key: ShardKey) -> Self {
        let registry = bundle.registry();
        ShardTelemetry {
            label: label_of(key),
            refresh_hist: registry.histogram("refresh.shard"),
            refreshes: registry.counter("shard.refreshes"),
            skips: registry.counter("shard.skips"),
            scheduled_slides: registry.counter("shard.scheduled_slides"),
            skipped_slides: registry.counter("shard.skipped_slides"),
            cluster_covering: registry.counter("refresh.cluster.covering"),
            cluster_shared: registry.counter("refresh.cluster.shared"),
            cluster_skipped: registry.counter("refresh.cluster.skipped"),
            gain_evaluations: registry.counter("refresh.gain_evaluations"),
            quarantine_active: registry.gauge("shard.quarantine_active"),
            bundle,
        }
    }

    fn record(&self, epoch: u64, kind: TraceEventKind) {
        self.bundle.record(epoch, Some(self.label), kind);
    }
}

/// The work a scheduled shard performed on one slide.
#[derive(Debug, Default)]
pub(crate) struct ShardSlide {
    pub(crate) updates: Vec<ResultDelta>,
    pub(crate) refreshed: usize,
    pub(crate) skipped: usize,
}

/// The per-call sink one synchronous slide's workers push their
/// [`ShardSlide`]s into.
pub(crate) type SlideCollector = Arc<Mutex<Vec<ShardSlide>>>;

/// The decisions of one refresh walk, not yet applied: the members that
/// skip, and each refreshing member's reason and fresh result.
#[derive(Debug, Default)]
struct Staged {
    skipped: Vec<SubscriptionId>,
    refreshed: Vec<(SubscriptionId, RefreshReason, QueryResult)>,
}

/// Cost-side accounting of one scheduled slide, kept separate from
/// [`ShardSlide`] because it describes *how* the work was served, not what
/// was decided: the decision counters are pinned identical to a
/// per-subscription walk, these are not.
#[derive(Debug, Default)]
struct SlideWork {
    /// Covering traversals actually run.
    covering: usize,
    /// Member refreshes served from another member's traversal.
    shared: usize,
    /// Scheduled clusters in which no member classified.
    skipped_clusters: usize,
    /// Scoring passes (marginal-gain / singleton evaluations) of the runs.
    gain: usize,
}

/// One epoch queued on a shard's lane: the slide delta to project, the
/// frozen engine image to refresh against if the projection fires, the
/// synchronous caller's collector (if any), and the watermark drop-guard
/// that marks the epoch's work complete however the task leaves the
/// pipeline — processed, shed, or dropped on the floor by a dying worker.
pub(crate) struct PendingEpoch {
    pub(crate) epoch: u64,
    pub(crate) delta: Arc<WindowDelta>,
    pub(crate) snapshot: Arc<dyn QuerySource + Send + Sync>,
    /// Where the worker pushes the epoch's completed [`ShardSlide`]:
    /// `Some` for [`SubscriptionManager::ingest_bucket`](crate::SubscriptionManager::ingest_bucket),
    /// which builds its [`SlideOutcome`](crate::SlideOutcome) from them.
    pub(crate) collector: Option<SlideCollector>,
    /// Never read — held purely for its `Drop`, which completes the epoch's
    /// watermark registration.  Declared last, so it drops after
    /// `snapshot`: a writer released by the watermark never copy-on-writes
    /// around this epoch's image.
    #[allow(dead_code)]
    pub(crate) task: crate::worker::EpochTask,
}

impl std::fmt::Debug for PendingEpoch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PendingEpoch")
            .field("epoch", &self.epoch)
            .finish()
    }
}

/// The pipelined work queue of one shard: whether a worker currently owns
/// the shard, and the epochs awaiting their scheduling decision.
///
/// Epochs are processed strictly in queue (= epoch) order, which is the only
/// ordering the refresh decisions depend on — results stored by epoch `e`
/// are what epoch `e+1`'s `is_touched_by` must observe.
#[derive(Debug, Default)]
struct Lane {
    busy: bool,
    pending: VecDeque<PendingEpoch>,
}

/// A shard plus its pipeline lane, under separate locks.
///
/// The split is what keeps ingestion latency independent of refresh compute:
/// the ingest thread appends epochs to a *busy* shard through the cheap lane
/// lock while a worker holds the shard lock through a long refresh.  The
/// shard lock is only taken by the ingest thread for *idle* shards (inline
/// skip / schedule decision), which no worker contends for.
///
/// Lock order is lane → shard; nothing acquires the lane while holding the
/// shard.
#[derive(Debug)]
pub(crate) struct ShardCell {
    key: ShardKey,
    lane: Mutex<Lane>,
    shard: Mutex<Shard>,
    /// Own clone of the shard's telemetry handles, so the busy-lane
    /// (deferred) path can trace without touching the contended shard lock.
    telemetry: ShardTelemetry,
}

impl ShardCell {
    pub(crate) fn new(
        key: ShardKey,
        bundle: Arc<Telemetry>,
        hooks: Option<Arc<dyn PipelineHooks>>,
    ) -> Self {
        let telemetry = ShardTelemetry::new(bundle, key);
        ShardCell {
            key,
            lane: Mutex::new(Lane::default()),
            shard: Mutex::new(Shard::new(key, telemetry.clone(), hooks)),
            telemetry,
        }
    }

    /// The shard's identity, readable without the shard lock.
    pub(crate) fn key(&self) -> ShardKey {
        self.key
    }

    fn lane(&self) -> MutexGuard<'_, Lane> {
        self.lane.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Locks the shard itself (resident subscriptions, clusters, counters).
    pub(crate) fn shard(&self) -> MutexGuard<'_, Shard> {
        self.shard.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Ingest side: projects one epoch onto this shard, atomically with the
    /// ownership check (a worker releasing the lane between a separate check
    /// and enqueue would otherwise strand the task).
    ///
    /// * lane busy → append the epoch; the owning worker decides in order
    ///   once the stored results are current ([`LaneDecision::Deferred`]);
    /// * lane idle → the stored results are final for all prior epochs, so
    ///   decide now: enqueue + take ownership for the caller to hand to a
    ///   worker ([`LaneDecision::Scheduled`]), or skip every resident inline
    ///   ([`LaneDecision::Skipped`]).
    ///
    /// `make_task` is only invoked when the epoch is actually enqueued, so
    /// snapshot capture (and watermark registration) stays lazy.
    pub(crate) fn project_epoch(
        &self,
        epoch: u64,
        delta: &WindowDelta,
        make_task: impl FnOnce() -> PendingEpoch,
    ) -> LaneDecision {
        let mut lane = self.lane();
        if lane.busy {
            lane.pending.push_back(make_task());
            self.telemetry.record(epoch, TraceEventKind::ShardDeferred);
            return LaneDecision::Deferred;
        }
        // Lock order lane → shard; the shard lock is uncontended here (only
        // a lane owner holds it for long, and the lane is idle).
        let mut shard = self.shard();
        if shard.len() == 0 {
            LaneDecision::Empty
        } else if shard.is_touched_by(delta) {
            lane.busy = true;
            lane.pending.push_back(make_task());
            LaneDecision::Scheduled
        } else {
            LaneDecision::Skipped(shard.skip_all(epoch))
        }
    }

    /// Worker side: pops the next pending epoch, or — atomically with the
    /// emptiness check — releases lane ownership and returns `None`.
    pub(crate) fn pop_pending_or_release(&self) -> Option<PendingEpoch> {
        let mut lane = self.lane();
        match lane.pending.pop_front() {
            Some(task) => Some(task),
            None => {
                lane.busy = false;
                None
            }
        }
    }
}

/// Outcome of [`ShardCell::project_epoch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LaneDecision {
    /// Appended behind earlier epochs; the owning worker decides in order.
    Deferred,
    /// Idle shard with a resident that classifies: epoch enqueued, lane
    /// ownership taken — the caller must hand the shard to a worker.
    Scheduled,
    /// Idle shard proven undisturbed: residents skipped inline (count).
    Skipped(usize),
    /// No residents; nothing to do.
    Empty,
}

/// One shard: resident subscriptions, grouped into plan clusters.
#[derive(Debug)]
pub(crate) struct Shard {
    key: ShardKey,
    subs: BTreeMap<SubscriptionId, Subscription>,
    /// Set when a refresh exhausted its retry budget and the epoch was
    /// shed; reported until the operator lifts it
    /// ([`Shard::lift_quarantine`]).  The shard keeps refreshing.
    quarantined: bool,
    /// Plan clusters of the residents, keyed by plan identity.
    clusters: BTreeMap<ClusterKey, PlanCluster>,
    /// Reverse index: which cluster each resident belongs to.
    cluster_of: BTreeMap<SubscriptionId, ClusterKey>,
    refreshes: usize,
    skips: usize,
    scheduled_slides: usize,
    skipped_slides: usize,
    telemetry: ShardTelemetry,
    /// The manager's test hooks, if any (see [`PipelineHooks`]).
    pub(crate) hooks: Option<Arc<dyn PipelineHooks>>,
}

impl Shard {
    pub(crate) fn new(
        key: ShardKey,
        telemetry: ShardTelemetry,
        hooks: Option<Arc<dyn PipelineHooks>>,
    ) -> Self {
        Shard {
            key,
            subs: BTreeMap::new(),
            quarantined: false,
            clusters: BTreeMap::new(),
            cluster_of: BTreeMap::new(),
            refreshes: 0,
            skips: 0,
            scheduled_slides: 0,
            skipped_slides: 0,
            telemetry,
            hooks,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.subs.len()
    }

    /// Whether the shard is quarantined.
    pub(crate) fn is_quarantined(&self) -> bool {
        self.quarantined
    }

    /// Marks the shard quarantined after an exhausted retry budget, counting
    /// it on `shard.quarantine_active` unless it already was.  Returns the
    /// resident count for the caller's trace event.
    pub(crate) fn quarantine(&mut self) -> usize {
        if !std::mem::replace(&mut self.quarantined, true) {
            self.telemetry.quarantine_active.add(1);
        }
        self.subs.len()
    }

    /// Lifts a quarantine (the operator fixed the underlying fault, or the
    /// shard retires), taking it off `shard.quarantine_active`.  Returns
    /// whether the shard was quarantined.
    pub(crate) fn lift_quarantine(&mut self) -> bool {
        let lifted = std::mem::replace(&mut self.quarantined, false);
        if lifted {
            self.telemetry.quarantine_active.sub(1);
        }
        lifted
    }

    pub(crate) fn get(&self, id: SubscriptionId) -> Option<&Subscription> {
        self.subs.get(&id)
    }

    pub(crate) fn get_mut(&mut self, id: SubscriptionId) -> Option<&mut Subscription> {
        self.subs.get_mut(&id)
    }

    pub(crate) fn insert(&mut self, id: SubscriptionId, sub: Subscription) {
        let key = ClusterKey::of(&sub.query, sub.algorithm);
        match self.clusters.get_mut(&key) {
            Some(cluster) => cluster.add_member(id, &sub),
            None => {
                self.clusters
                    .insert(key.clone(), PlanCluster::new(id, &sub));
            }
        }
        self.cluster_of.insert(id, key);
        self.subs.insert(id, sub);
    }

    pub(crate) fn remove(&mut self, id: SubscriptionId) -> Option<Subscription> {
        let removed = self.subs.remove(&id);
        if removed.is_some() {
            if let Some(key) = self.cluster_of.remove(&id) {
                let retire = self
                    .clusters
                    .get_mut(&key)
                    .is_some_and(|cluster| cluster.remove_member(id, &self.subs));
                if retire {
                    self.clusters.remove(&key);
                }
            }
        }
        removed
    }

    pub(crate) fn stats(&self) -> ShardStats {
        ShardStats {
            key: self.key,
            subscriptions: self.subs.len(),
            refreshes: self.refreshes,
            skips: self.skips,
            scheduled_slides: self.scheduled_slides,
            skipped_slides: self.skipped_slides,
            clusters: self.clusters.len(),
            quarantined: self.quarantined,
        }
    }

    /// Projects the slide delta onto the residents: `true` iff some resident
    /// classifies, i.e. the shard must be scheduled.  Stops at the first
    /// resident that fires; `O(1)` per touch lookup.
    pub(crate) fn is_touched_by(&self, delta: &WindowDelta) -> bool {
        self.subs.values().any(|sub| classify(sub, delta).is_some())
    }

    /// Classifies and (where needed) refreshes every resident against the
    /// slide, cluster by cluster.  Runs on a worker thread; `source` is the
    /// epoch's snapshot.
    ///
    /// The walk only decides: it stages each member's skip or fresh result
    /// and changes no shard state.  The decisions, the member stats and the
    /// shard totals are committed together once the walk returns, so a walk
    /// that panics commits nothing and its retry starts from the same state.
    pub(crate) fn refresh_scheduled(
        &mut self,
        source: &dyn QuerySource,
        delta: &WindowDelta,
        epoch: u64,
    ) -> ShardSlide {
        let started = Instant::now();
        self.telemetry.record(epoch, TraceEventKind::ShardScheduled);
        self.telemetry.record(epoch, TraceEventKind::RefreshStarted);
        let (staged, work) = self.walk_clusters(source, delta, epoch);
        let slide = self.commit(staged);
        self.scheduled_slides += 1;
        self.refreshes += slide.refreshed;
        self.skips += slide.skipped;
        self.telemetry.scheduled_slides.inc();
        self.telemetry.refreshes.add(slide.refreshed as u64);
        self.telemetry.skips.add(slide.skipped as u64);
        self.telemetry.cluster_covering.add(work.covering as u64);
        self.telemetry.cluster_shared.add(work.shared as u64);
        self.telemetry
            .cluster_skipped
            .add(work.skipped_clusters as u64);
        self.telemetry.gain_evaluations.add(work.gain as u64);
        self.telemetry.refresh_hist.record(started.elapsed());
        self.telemetry.record(
            epoch,
            TraceEventKind::RefreshFinished {
                refreshed: slide.refreshed as u64,
                skipped: slide.skipped as u64,
                updates: slide.updates.len() as u64,
            },
        );
        slide
    }

    /// The refresh walk: per cluster, classify each member by the
    /// per-subscription rules, skip the cluster whole when none classifies,
    /// and otherwise serve the to-refresh members from one traversal of the
    /// covering query that answers every distinct member `k` at once
    /// ([`QuerySource::query_per_k`]).
    ///
    /// Soundness of each piece:
    ///
    /// * same-`k` sharing — plan-compatible queries with equal `k` are
    ///   *identical* queries, and evaluation is deterministic;
    /// * one traversal for every `k` — each size's result is exactly a plain
    ///   run of the covering query at that `k`: the kernels apply per-size
    ///   admission and stopping rules over one retrieval order, they never
    ///   reuse one size's result for another.
    ///
    /// The walk reads the shard and writes nothing: a member's classification
    /// reads only its own state, and each member is in one cluster, so
    /// staging every decision until [`Shard::commit`] decides exactly what
    /// applying them as it goes would.  A panic anywhere in the walk (a query,
    /// an `expect`, a test hook before a query) unwinds past the staged
    /// decisions and leaves the shard as it was.
    fn walk_clusters(
        &self,
        source: &dyn QuerySource,
        delta: &WindowDelta,
        epoch: u64,
    ) -> (Staged, SlideWork) {
        let mut staged = Staged::default();
        let mut work = SlideWork::default();
        for cluster in self.clusters.values() {
            let mut to_refresh: Vec<(SubscriptionId, RefreshReason, usize)> = Vec::new();
            for &id in &cluster.members {
                let sub = self
                    .subs
                    .get(&id)
                    .expect("cluster members reside in the shard");
                match classify(sub, delta) {
                    Some(reason) => to_refresh.push((id, reason, sub.query.k())),
                    None => staged.skipped.push(id),
                }
            }
            if to_refresh.is_empty() {
                work.skipped_clusters += 1;
                continue;
            }
            // One traversal for the cluster: a result per distinct member k.
            let mut ks: Vec<usize> = to_refresh.iter().map(|&(_, _, k)| k).collect();
            ks.sort_unstable();
            ks.dedup();
            if let Some(hooks) = &self.hooks {
                hooks.before_cluster_query(epoch, self.key, work.covering + 1);
            }
            let fresh = source
                .query_per_k(&cluster.covering, &ks, cluster.algorithm)
                .expect("subscription dimensions were validated at subscribe time");
            work.covering += 1;
            work.shared += to_refresh.len() - 1;
            work.gain += fresh.iter().map(|r| r.gain_evaluations).sum::<usize>();
            // Each size's result is cloned for its members but the last, which
            // takes it.
            let size_of = |k: usize| ks.binary_search(&k).expect("every member k was requested");
            let mut takers = vec![0usize; ks.len()];
            for &(_, _, k) in &to_refresh {
                takers[size_of(k)] += 1;
            }
            let mut fresh: Vec<Option<QueryResult>> = fresh.into_iter().map(Some).collect();
            for (id, reason, k) in to_refresh {
                let at = size_of(k);
                takers[at] -= 1;
                let result = if takers[at] == 0 {
                    fresh[at].take()
                } else {
                    fresh[at].clone()
                };
                let result = result.expect("a size's last member takes its result");
                staged.refreshed.push((id, reason, result));
            }
        }
        (staged, work)
    }

    /// Applies a completed walk's decisions: a skip or a refresh charged to
    /// each member, and each fresh result stored.  Returns the slide's
    /// counts and its updates, in resident (id) order — the order a
    /// per-subscription walk produces and `SlideOutcome` presents.
    fn commit(&mut self, staged: Staged) -> ShardSlide {
        let mut slide = ShardSlide {
            skipped: staged.skipped.len(),
            refreshed: staged.refreshed.len(),
            ..ShardSlide::default()
        };
        for id in staged.skipped {
            let sub = self.subs.get_mut(&id).expect("a staged member resides");
            sub.stats.skips += 1;
        }
        for (id, reason, result) in staged.refreshed {
            let sub = self.subs.get_mut(&id).expect("a staged member resides");
            sub.stats.refreshes += 1;
            if let Some(update) = apply_fresh(id, sub, reason, result) {
                slide.updates.push(update);
            }
        }
        slide.updates.sort_by_key(|update| update.subscription);
        slide
    }

    /// Charges one skip to every resident of an unscheduled shard.  Returns
    /// the number of skips charged.
    ///
    /// A shard with no residents charges nothing — in particular it does
    /// *not* count a skipped slide, so `scheduled_slides + skipped_slides`
    /// keeps reconciling with the slides the shard actually had residents
    /// for.  (Empty shards are also pruned on `unsubscribe`, so this guard
    /// only matters for transient states.)
    pub(crate) fn skip_all(&mut self, epoch: u64) -> usize {
        if self.subs.is_empty() {
            return 0;
        }
        for sub in self.subs.values_mut() {
            sub.stats.skips += 1;
        }
        let skipped = self.subs.len();
        self.skips += skipped;
        self.skipped_slides += 1;
        self.telemetry.skips.add(skipped as u64);
        self.telemetry.skipped_slides.inc();
        self.telemetry.record(
            epoch,
            TraceEventKind::ShardSkipped {
                residents: skipped as u64,
            },
        );
        skipped
    }
}

/// Applies the delta-refresh rules to one subscription.  `Some(reason)` means
/// the query must be re-run; `None` means the stored result is provably what
/// a fresh run would return.
pub(crate) fn classify(sub: &Subscription, delta: &WindowDelta) -> Option<RefreshReason> {
    let Some(result) = &sub.result else {
        return Some(RefreshReason::Initial);
    };
    // Rule 2: a stored member expired out of the active window.
    if result.elements.iter().any(|&id| delta.lost(id)) {
        return Some(RefreshReason::MemberExpired);
    }
    // Rule 3: a support topic was disturbed at or above the traversal floor;
    // without a frontier, any support-topic touch disturbs.
    let disturbed = match sub.frontier() {
        Some(frontier) => frontier.disturbed_by(&delta.ranked),
        None => sub
            .query
            .vector()
            .support()
            .iter()
            .any(|&(topic, _)| delta.ranked.touched(topic)),
    };
    if disturbed {
        return Some(RefreshReason::TopicDisturbed);
    }
    None
}

/// Re-runs one subscription's query against `source` — the live engine or an
/// epoch snapshot — and stores the fresh result.  Returns the delta when the
/// result set or score changed.  Callers own the refresh/skip accounting
/// (only slide-classified refreshes count).
pub(crate) fn refresh_one(
    source: &dyn QuerySource,
    id: SubscriptionId,
    sub: &mut Subscription,
    reason: RefreshReason,
) -> Option<ResultDelta> {
    let fresh = source
        .query(&sub.query, sub.algorithm)
        .expect("subscription dimensions were validated at subscribe time");
    apply_fresh(id, sub, reason, fresh)
}

/// Stores a freshly computed result on the subscription and diffs it against
/// the previous one: `Some` when the result set or score actually changed
/// (bumping `result_changes`), `None` for a no-op refresh.  Shared by
/// [`refresh_one`] and the cluster walk so the two can never disagree about
/// what counts as a change.
pub(crate) fn apply_fresh(
    id: SubscriptionId,
    sub: &mut Subscription,
    reason: RefreshReason,
    fresh: QueryResult,
) -> Option<ResultDelta> {
    let old = sub.result.as_ref();
    let old_elements = old.map_or(&[][..], |old| &old.elements[..]);
    let score_before = old.map_or(0.0, |old| old.score);
    let added: Vec<ElementId> = fresh
        .elements
        .iter()
        .copied()
        .filter(|id| !old_elements.contains(id))
        .collect();
    let mut removed: Vec<ElementId> = old_elements
        .iter()
        .copied()
        .filter(|id| !fresh.elements.contains(id))
        .collect();
    removed.sort_unstable();

    let score_after = fresh.score;
    sub.result = Some(fresh);

    let changed = !added.is_empty()
        || !removed.is_empty()
        || (score_after - score_before).abs() > crate::subscription::SCORE_EPS;
    if !changed {
        return None;
    }
    sub.stats.result_changes += 1;
    Some(ResultDelta {
        subscription: id,
        reason,
        added,
        removed,
        score_before,
        score_after,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksir_core::Algorithm;
    use ksir_types::QueryVector;

    fn query(k: usize, weights: &[f64]) -> KsirQuery {
        KsirQuery::new(k, QueryVector::new(weights.to_vec()).unwrap()).unwrap()
    }

    fn shard(key: ShardKey) -> Shard {
        Shard::new(
            key,
            ShardTelemetry::new(Arc::new(Telemetry::default()), key),
            None,
        )
    }

    #[test]
    fn routing_picks_dominant_topic_for_narrow_queries() {
        let config = ShardConfig::default();
        assert_eq!(
            config.route(&query(2, &[0.1, 0.9, 0.0])),
            ShardKey::Topic(TopicId(1))
        );
        assert_eq!(
            config.route(&query(2, &[1.0, 0.0, 0.0])),
            ShardKey::Topic(TopicId(0))
        );
    }

    #[test]
    fn routing_sends_broad_queries_to_overflow() {
        let config = ShardConfig::default().with_overflow_support_threshold(2);
        assert_eq!(
            config.route(&query(2, &[0.5, 0.3, 0.2])),
            ShardKey::Overflow
        );
        assert_eq!(
            config.route(&query(2, &[0.5, 0.5, 0.0])),
            ShardKey::Topic(TopicId(0)),
            "ties break toward the first maximal topic"
        );
        // unsharded(): everything overflows.
        assert_eq!(
            ShardConfig::unsharded().route(&query(2, &[1.0, 0.0, 0.0])),
            ShardKey::Overflow
        );
    }

    #[test]
    fn shard_key_display_and_overflow_flag() {
        assert_eq!(ShardKey::Topic(TopicId(3)).to_string(), "shard[θ3]");
        assert_eq!(ShardKey::Overflow.to_string(), "shard[overflow]");
        assert!(ShardKey::Overflow.is_overflow());
        assert!(!ShardKey::Topic(TopicId(0)).is_overflow());
    }

    #[test]
    fn empty_shard_is_never_touched() {
        let shard = shard(ShardKey::Overflow);
        let delta = WindowDelta::default();
        assert!(!shard.is_touched_by(&delta));
        assert_eq!(shard.stats().subscriptions, 0);
        assert_eq!(shard.stats().skip_rate(), 0.0);
    }

    #[test]
    fn pending_initial_resident_always_schedules() {
        let mut shard = shard(ShardKey::Topic(TopicId(0)));
        shard.insert(
            SubscriptionId(0),
            Subscription::new(query(1, &[1.0, 0.0]), Algorithm::Mtts),
        );
        assert!(shard.is_touched_by(&WindowDelta::default()));
    }

    /// A resident of `weights` whose stored result read topic 0 down to
    /// `floor` and holds element 5.
    fn resident(weights: &[f64], floor: f64) -> Subscription {
        let mut sub = Subscription::new(query(1, weights), Algorithm::Mtts);
        sub.result = Some(QueryResult {
            elements: vec![ElementId(5)],
            frontier: Some(ksir_core::QueryFrontier::new(vec![(
                TopicId(0),
                Some(floor),
            )])),
            ..QueryResult::empty(Algorithm::Mtts)
        });
        sub
    }

    /// A slide that touched topic 0's list at `score` and nothing else.
    fn touch_at(score: f64) -> WindowDelta {
        let mut delta = WindowDelta {
            ranked: ksir_core::stream::RankedDelta::new(2),
            ..WindowDelta::default()
        };
        delta.ranked.record(TopicId(0), score);
        delta
    }

    #[test]
    fn touch_below_every_member_floor_skips_the_cluster() {
        let mut shard = shard(ShardKey::Topic(TopicId(0)));
        // Two plan clusters (different vectors) in one shard.
        shard.insert(SubscriptionId(0), resident(&[0.6, 0.4], 0.5));
        shard.insert(SubscriptionId(1), resident(&[0.7, 0.3], 0.2));
        assert!(!shard.is_touched_by(&touch_at(0.1)), "below both floors");
        let mut expired = touch_at(0.1);
        expired.expired = vec![ElementId(5)];
        assert!(shard.is_touched_by(&expired), "a stored member expired");
        // At 0.3 only the second cluster's member classifies: the first
        // cluster is skipped whole, the second runs one traversal.
        let delta = touch_at(0.3);
        assert!(shard.is_touched_by(&delta));
        let engine = ksir_core::fixtures::paper_example().build_engine();
        let slide = shard.refresh_scheduled(&engine, &delta, 1);
        assert_eq!((slide.refreshed, slide.skipped), (1, 1));
        assert_eq!(shard.telemetry.cluster_skipped.get(), 1);
        assert_eq!(shard.telemetry.cluster_covering.get(), 1);
    }

    /// A source whose every query panics, as a real fault in a kernel would.
    struct PanickingSource;

    impl QuerySource for PanickingSource {
        fn num_topics(&self) -> usize {
            2
        }

        fn query_per_k(
            &self,
            _: &KsirQuery,
            _: &[usize],
            _: Algorithm,
        ) -> ksir_types::Result<Vec<QueryResult>> {
            panic!("a kernel fault");
        }
    }

    /// Regression: a panic inside the cluster walk leaves the shard's
    /// clusters in place, so the retry classifies every resident again.
    /// Taking the clusters out for the walk stranded them on a panic: the
    /// retry then charged nobody and `refreshes + skips` stopped
    /// reconciling.
    #[test]
    fn a_panicking_query_keeps_the_clusters() {
        let mut shard = shard(ShardKey::Topic(TopicId(0)));
        shard.insert(SubscriptionId(0), resident(&[0.6, 0.4], 0.5));
        let delta = touch_at(0.5);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shard.refresh_scheduled(&PanickingSource, &delta, 1)
        }));
        assert!(panicked.is_err());
        assert_eq!(shard.stats().clusters, 1, "the panic stranded no cluster");
        let engine = ksir_core::fixtures::paper_example().build_engine();
        let retry = shard.refresh_scheduled(&engine, &delta, 1);
        assert_eq!(
            retry.refreshed + retry.skipped,
            1,
            "the resident is charged"
        );
        assert_eq!(retry.refreshed, 1);
    }

    /// The paper example's engine, with the `n`-th query (counted from 1)
    /// panicking as a real kernel fault would.
    struct PanicsOnQuery {
        engine: ksir_core::KsirEngine<ksir_types::DenseTopicWordTable>,
        n: usize,
        calls: std::sync::atomic::AtomicUsize,
    }

    impl QuerySource for PanicsOnQuery {
        fn num_topics(&self) -> usize {
            self.engine.num_topics()
        }

        fn query_per_k(
            &self,
            query: &KsirQuery,
            ks: &[usize],
            algorithm: Algorithm,
        ) -> ksir_types::Result<Vec<QueryResult>> {
            let call = 1 + self
                .calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            assert_ne!(call, self.n, "a kernel fault");
            self.engine.query_per_k(query, ks, algorithm)
        }
    }

    /// Regression: a walk that panics after refreshing one cluster commits
    /// nothing, so the retry delivers every member's change and charges each
    /// member once.  Applying results during the walk left the first
    /// cluster's member holding its new result: the retry delivered only
    /// the second member's change and charged the first a second refresh.
    #[test]
    fn a_mid_walk_panic_loses_no_delivery_and_charges_once() {
        let two_clusters = || {
            let mut shard = shard(ShardKey::Topic(TopicId(0)));
            shard.insert(SubscriptionId(0), resident(&[0.6, 0.4], 0.5));
            shard.insert(SubscriptionId(1), resident(&[0.7, 0.3], 0.2));
            shard
        };
        let source = |n| PanicsOnQuery {
            engine: ksir_core::fixtures::paper_example().build_engine(),
            n,
            calls: Default::default(),
        };
        let delta = touch_at(0.6);
        let delivered = |slide: &ShardSlide| -> Vec<SubscriptionId> {
            slide.updates.iter().map(|u| u.subscription).collect()
        };
        let clean = two_clusters().refresh_scheduled(&source(0), &delta, 1);
        assert_eq!(delivered(&clean), [SubscriptionId(0), SubscriptionId(1)]);

        let mut shard = two_clusters();
        let faulty = source(2);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shard.refresh_scheduled(&faulty, &delta, 1)
        }));
        assert!(panicked.is_err());
        assert_eq!(shard.stats().refreshes + shard.stats().skips, 0);
        let retry = shard.refresh_scheduled(&source(0), &delta, 1);
        assert_eq!(delivered(&retry), delivered(&clean));
        assert_eq!((retry.refreshed, retry.skipped), (2, 0));
        for id in [SubscriptionId(0), SubscriptionId(1)] {
            let stats = &shard.get(id).unwrap().stats;
            assert_eq!((stats.refreshes, stats.skips), (1, 0), "{id:?}");
            assert_eq!(stats.result_changes, 1, "{id:?}");
        }
    }

    #[test]
    fn lane_projection_hands_ownership_exactly_once() {
        let watermark = Arc::new(crate::worker::Watermark::new());
        let task = |epoch: u64| -> PendingEpoch {
            // A snapshot is only consulted when a refresh fires; for lane
            // bookkeeping any engine image works.
            let ex = ksir_core::fixtures::paper_example();
            PendingEpoch {
                epoch,
                delta: Arc::new(WindowDelta::default()),
                snapshot: Arc::new(ksir_core::EngineSnapshot::capture(
                    &ex.empty_engine(),
                    epoch,
                )),
                collector: None,
                task: crate::worker::EpochTask::register(&watermark, epoch),
            }
        };
        let cell = ShardCell::new(ShardKey::Overflow, Arc::new(Telemetry::default()), None);
        // No residents: nothing happens, nothing is enqueued.
        assert_eq!(
            cell.project_epoch(0, &WindowDelta::default(), || task(0)),
            LaneDecision::Empty
        );
        // A pending-initial resident schedules on any delta.
        cell.shard().insert(
            SubscriptionId(0),
            Subscription::new(query(1, &[1.0, 0.0]), Algorithm::Mtts),
        );
        assert_eq!(
            cell.project_epoch(1, &WindowDelta::default(), || task(1)),
            LaneDecision::Scheduled,
            "idle shard: caller must dispatch"
        );
        assert_eq!(
            cell.project_epoch(2, &WindowDelta::default(), || task(2)),
            LaneDecision::Deferred,
            "busy shard: the owner will get there"
        );
        // The owner drains in epoch order, then releases atomically.
        assert_eq!(cell.pop_pending_or_release().unwrap().epoch, 1);
        assert_eq!(cell.pop_pending_or_release().unwrap().epoch, 2);
        assert!(cell.pop_pending_or_release().is_none());
        // Released: the next firing epoch schedules again.
        assert_eq!(
            cell.project_epoch(3, &WindowDelta::default(), || task(3)),
            LaneDecision::Scheduled
        );
    }
}
