//! The subscription manager: ingestion plus sharded, delta-driven refresh,
//! with synchronous and asynchronous (pipelined) maintenance APIs.

use std::collections::BTreeMap;
use std::sync::{Arc, RwLockReadGuard};
use std::time::Instant;

use ksir_core::{
    Algorithm, EngineSnapshot, IngestReport, KsirEngine, KsirQuery, QueryResult, QuerySource,
    SharedEngine,
};
use ksir_telemetry::{FlightTrigger, Telemetry, TraceEventKind};
use ksir_types::{KsirError, Result, SocialElement, Timestamp, TopicVector, TopicWordDistribution};

use crate::delivery::{delivery_queue, DeliveryConfig, DeliveryReceiver, DeliveryTelemetry};
use crate::reorder::{Bucket, ReorderBuffer};
use crate::shard::{
    refresh_one, LaneDecision, PendingEpoch, ShardCell, ShardConfig, ShardKey, ShardStats,
    SlideCollector,
};
use crate::subscription::{
    RefreshReason, ResultDelta, Subscription, SubscriptionId, SubscriptionStats,
};
use crate::worker::{deliver, DeliveryRegistry, EpochTask, PipelineHooks, Watermark, WorkerPool};

/// How many epochs the asynchronous pipeline may have in flight at once:
/// `ingest_bucket_async` admits a new epoch only while fewer earlier epochs
/// still have outstanding refresh work, so epoch `N+1`'s index write
/// proceeds while epoch `N`'s refreshes drain.  Deeper pipelines buy little:
/// each in-flight epoch pins its snapshot (and the writer's copy-on-write
/// clones) in memory.
const PIPELINE_DEPTH: usize = 2;

/// Aggregate work counters across all subscriptions and slides — a view of
/// the manager's metrics registry (see [`SubscriptionManager::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ManagerStats {
    /// Buckets ingested through the manager.
    pub slides: usize,
    /// Slide-driven subscription refreshes (query re-runs), the
    /// `shard.refreshes` counter.  Initial evaluations at subscribe time and
    /// forced refreshes are not counted, so `refreshes + skips` always
    /// reconciles with the number of slide-time classifications
    /// (`Σ per-slide subscription count`).
    pub refreshes: usize,
    /// Subscription evaluations skipped because the slide provably could not
    /// have changed the result, the `shard.skips` counter.
    pub skips: usize,
    /// Buckets that arrived out of order but within
    /// [`ShardConfig::reorder_horizon`] and were re-sequenced by the reorder
    /// buffer ([`SubscriptionManager::ingest_bucket_reordered`]), the
    /// `ingest.reordered` counter.
    pub reordered: usize,
    /// Buckets that arrived beyond the reorder horizon and were shed, the
    /// `ingest.late_dropped` counter.
    pub late_dropped: usize,
}

/// The outcome of one [`SubscriptionManager::ingest_bucket`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct SlideOutcome {
    /// The engine's ingestion report (including the [`WindowDelta`]).
    ///
    /// [`WindowDelta`]: ksir_core::stream::WindowDelta
    pub report: IngestReport,
    /// Result deltas of the subscriptions whose stored result *changed*,
    /// ordered by subscription id.  Refreshes that merely confirmed the
    /// previous result are counted in [`SlideOutcome::refreshed`] but produce
    /// no entry here.
    pub updates: Vec<ResultDelta>,
    /// Number of subscriptions whose query was re-run this slide.
    pub refreshed: usize,
    /// Number of subscriptions skipped by the delta rules this slide.
    pub skipped: usize,
    /// Shards in which some resident classified, so that every resident
    /// was classified on a pool worker or on the calling thread.
    pub shards_scheduled: usize,
    /// Shards proven undisturbed as a whole (their residents were all
    /// skipped without classification).
    pub shards_skipped: usize,
}

/// The immediately available part of one
/// [`SubscriptionManager::ingest_bucket_async`] call.
///
/// The index update, the epoch-snapshot capture, and the shard handoff are
/// complete when this is returned; the refreshes themselves run on the
/// worker pool behind the ticket's epoch and stream their [`ResultDelta`]s
/// into the attached delivery queues.  Await them with
/// [`SubscriptionManager::sync`] (all epochs) or watch
/// [`SubscriptionManager::completed_epoch`] pass [`SlideTicket::slide`];
/// consume the deltas at leisure through the [`DeliveryReceiver`]s.
///
/// The ticket is `#[must_use]`: silently dropping it reads like awaiting the
/// slide when nothing of the sort happened.  Call [`SlideTicket::detach`] to
/// document fire-and-forget ingestion explicitly.
#[must_use = "a SlideTicket is the only handle to the slide's epoch — dropping it silently \
              forgets which epoch to await; call `.detach()` for explicit fire-and-forget"]
#[derive(Debug, Clone, PartialEq)]
pub struct SlideTicket {
    /// 1-based slide number (= the epoch); deltas delivered for this slide
    /// carry it in [`Delivery::slide`](crate::delivery::Delivery::slide).
    pub slide: u64,
    /// The engine's ingestion report (including the [`WindowDelta`]).
    ///
    /// [`WindowDelta`]: ksir_core::stream::WindowDelta
    pub report: IngestReport,
    /// Idle shards in which some resident classified, handed to the worker
    /// pool with this epoch's snapshot.
    pub shards_scheduled: usize,
    /// Shards still draining earlier epochs: this epoch was appended to
    /// their lanes, and their schedule/skip decision is made in epoch order
    /// by the owning worker once their stored results are current.
    pub shards_deferred: usize,
    /// Idle shards proven undisturbed as a whole, skipped inline.
    pub shards_skipped: usize,
    /// Skips charged immediately to residents of inline-skipped shards.
    /// Scheduled and deferred shards' refresh/skip splits are known only
    /// once the epoch completes (see [`SubscriptionManager::stats`] after a
    /// [`SubscriptionManager::sync`]).
    pub skipped: usize,
}

impl SlideTicket {
    /// Consumes the ticket, explicitly *not* awaiting the slide's refresh
    /// work.  The deltas still stream into the delivery queues; the epoch
    /// barrier is whoever calls [`SubscriptionManager::sync`] next.
    pub fn detach(self) {}
}

/// Manages standing k-SIR queries over a shared [`KsirEngine`], partitioned
/// into topic-keyed shards refreshed by a pool of long-lived workers.
///
/// Ingest buckets through the manager instead of the engine.  Both
/// maintenance APIs run one pipeline — index write, epoch snapshot, shard
/// handoff, worker refresh, delivery:
///
/// * [`SubscriptionManager::ingest_bucket`] — synchronous: the pipelined
///   ingest between two [`SubscriptionManager::sync`] barriers, returning
///   the complete [`SlideOutcome`].
/// * [`SubscriptionManager::ingest_bucket_async`] — pipelined: updates the
///   index, captures an immutable epoch snapshot
///   ([`ksir_core::EngineSnapshot`]), hands the affected shards their
///   epoch, and returns a [`SlideTicket`] without waiting for any refresh —
///   *including* the previous slide's: refreshes evaluate against their
///   epoch's snapshot, so the next index write never waits for refresh
///   compute (up to two epochs overlap).
///   Result changes stream into bounded per-subscriber queues
///   ([`SubscriptionManager::attach_delivery`]);
///   [`SubscriptionManager::sync`] is the barrier that awaits outstanding
///   refresh work, and [`SubscriptionManager::completed_epoch`] the
///   completion watermark.
///
/// See the crate docs for the delta-refresh rules, [`crate::shard`] for the
/// sharding scheme, and [`crate::delivery`] for the queue semantics.
#[derive(Debug)]
pub struct SubscriptionManager<D> {
    engine: SharedEngine<D>,
    config: ShardConfig,
    shards: BTreeMap<ShardKey, Arc<ShardCell>>,
    /// Home shard of every live subscription.
    route_of: BTreeMap<SubscriptionId, ShardKey>,
    deliveries: DeliveryRegistry,
    pool: Option<WorkerPool>,
    /// Outstanding shard-epoch tasks; shared with the worker pool.
    watermark: Arc<Watermark>,
    /// `topic → number of live subscriptions with it in their support`.
    /// Epoch snapshots capture exactly these topics' ranked lists, so the
    /// writer never pays copy-on-write for lists no standing query can
    /// traverse.
    watched_topics: BTreeMap<ksir_types::TopicId, usize>,
    next_id: u64,
    slides: usize,
    /// Bounded watermark-driven reorder buffer in front of the async ingest
    /// path (see [`SubscriptionManager::ingest_bucket_reordered`]).
    reorder: ReorderBuffer,
    /// Test hooks handed to the shards and the pool; `None` outside tests.
    hooks: Option<Arc<dyn PipelineHooks>>,
    /// The unified observability bundle (metrics registry + trace ring);
    /// shared with the shards, workers, and delivery queues.  Its registry
    /// is the only store of every manager-wide tally.
    telemetry: Arc<Telemetry>,
}

impl<D: TopicWordDistribution> SubscriptionManager<D> {
    /// Wraps an engine (empty or pre-loaded) for standing-query serving with
    /// the default [`ShardConfig`].
    pub fn new(engine: KsirEngine<D>) -> Self {
        Self::with_shard_config(engine, ShardConfig::default())
    }

    /// Wraps an engine with an explicit sharding configuration.
    pub fn with_shard_config(engine: KsirEngine<D>, config: ShardConfig) -> Self {
        let telemetry = Arc::new(Telemetry::new(config.telemetry));
        SubscriptionManager {
            engine: SharedEngine::new(engine),
            config,
            shards: BTreeMap::new(),
            route_of: BTreeMap::new(),
            deliveries: DeliveryRegistry::default(),
            pool: None,
            watermark: Arc::new(Watermark::default()),
            watched_topics: BTreeMap::new(),
            next_id: 0,
            slides: 0,
            reorder: ReorderBuffer::new(config.reorder_horizon),
            hooks: None,
            telemetry,
        }
    }

    /// The sharding configuration in use.
    pub fn shard_config(&self) -> ShardConfig {
        self.config
    }

    /// Read access to the underlying engine (for ad-hoc queries, stats, …).
    ///
    /// The guard holds the engine's read lock; drop it before calling a
    /// mutating manager method.
    pub fn engine(&self) -> RwLockReadGuard<'_, KsirEngine<D>> {
        self.engine.read()
    }

    /// A cloneable handle to the engine for use on other threads (ad-hoc
    /// query serving, dashboards).  Readers never block each other; they
    /// block only while a bucket is being applied to the index.
    pub fn shared_engine(&self) -> SharedEngine<D> {
        self.engine.clone()
    }

    /// Tears the manager down, returning the engine.  Shuts the worker pool
    /// down first (awaiting outstanding refresh work).
    pub fn into_engine(mut self) -> KsirEngine<D> {
        self.sync();
        self.pool = None; // joins the workers, releasing their engine handles
        let SubscriptionManager { engine, .. } = self;
        engine.into_inner()
    }

    /// Number of registered subscriptions.
    pub fn subscription_count(&self) -> usize {
        self.route_of.len()
    }

    /// Number of live (non-empty) shards.  Shards emptied by
    /// [`SubscriptionManager::unsubscribe`] are pruned and counted on the
    /// `shard.retired` counter; the work they did stays in the registry's
    /// totals.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a subscription currently resides in.
    pub fn shard_of(&self, id: SubscriptionId) -> Option<ShardKey> {
        self.route_of.get(&id).copied()
    }

    /// Per-shard work counters, ordered by shard key (topic shards first,
    /// overflow last).
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards.values().map(|s| s.shard().stats()).collect()
    }

    /// The manager's observability bundle: the unified metrics registry
    /// (stage latency histograms and every manager-wide counter, among them
    /// `snapshot.epochs_captured` / `snapshot.shard_snapshots` for the
    /// capture side of pipelining) plus the epoch-scoped trace ring.  Clone
    /// the `Arc` to read it from dashboards or exporters on other threads.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Publishes the instantaneous values no counter holds — the slide
    /// sequence, the subscription count, the watermark, queue depths, and the
    /// engine's [`EngineStats`](ksir_core::EngineStats) — as registry
    /// gauges, refreshed at every barrier and after every async ingest.
    /// Cumulative tallies are counters already and get no gauge copy.
    ///
    /// Deliberately lock-free on the shards, so publishing from the
    /// pipelined ingest path cannot block behind a busy shard's in-flight
    /// refresh.
    fn publish_gauges(&self) {
        let registry = self.telemetry.registry();
        registry.gauge("manager.slides").set(self.slides as u64);
        registry
            .gauge("manager.subscriptions")
            .set(self.route_of.len() as u64);
        registry
            .gauge("manager.inflight_epochs")
            .set(self.watermark.inflight_epochs() as u64);
        // Freshness: retire every fully-refreshed epoch on the e2e clock,
        // then publish the age of the oldest still-open one — the live
        // watermark-stall signal `/ready` probes alert on.
        let freshness = self.telemetry.freshness();
        freshness.retire_through(self.watermark.completed_through());
        registry
            .gauge("manager.freshness_lag")
            .set(freshness.lag_nanos(self.telemetry.now_nanos()));
        registry.gauge("delivery.queue_depth").set(
            self.deliveries
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .values()
                .map(|sender| sender.len() as u64)
                .sum(),
        );
        let engine = self.engine.read().stats();
        registry
            .gauge("engine.window_cow_clones")
            .set(engine.window_cow_clones as u64);
        registry
            .gauge("engine.topic_vector_cow_clones")
            .set(engine.topic_vector_cow_clones as u64);
        registry
            .gauge("engine.ranked_cow_clones")
            .set(engine.ranked_cow_clones as u64);
        registry
            .gauge("engine.queries_served")
            .set(engine.queries_served as u64);
    }

    /// The completion watermark: the highest epoch `e` such that every slide
    /// `≤ e` has fully refreshed (or been proven skippable).  Counters and
    /// maintained results for those slides are final.
    pub fn completed_epoch(&self) -> u64 {
        self.watermark.completed_through()
    }

    /// Number of epochs whose refresh work is still in flight (at most two:
    /// the pipeline admits a new epoch only while one is in flight).
    pub fn inflight_epochs(&self) -> usize {
        self.watermark.inflight_epochs()
    }

    /// Aggregate work counters, read from the metrics registry's counters —
    /// which live and retired shards alike bump and nothing resets — without
    /// locking a shard.  After a [`SubscriptionManager::sync`] (or any
    /// synchronous ingest), `refreshes + skips` reconciles with the number of
    /// slide-time classifications performed.
    pub fn stats(&self) -> ManagerStats {
        let registry = self.telemetry.registry();
        let count = |name| registry.counter(name).get() as usize;
        ManagerStats {
            slides: self.slides,
            refreshes: count("shard.refreshes"),
            skips: count("shard.skips"),
            reordered: count("ingest.reordered"),
            late_dropped: count("ingest.late_dropped"),
        }
    }

    /// Awaits every outstanding asynchronous shard refresh — the pipeline's
    /// full barrier.  After `sync()` returns, all deltas of previously
    /// ingested buckets have been pushed into their delivery queues and
    /// every counter is final.  Returns at once when nothing is outstanding;
    /// either way it republishes the gauges.
    pub fn sync(&self) {
        // Without a pool nothing is outstanding: tasks are registered only
        // for shards handed to one, and the pool is dropped only after a
        // barrier.  The pool's barrier self-heals dead worker threads
        // between bounded waits, so a killed worker with queued items cannot
        // wedge the sync.
        if let Some(pool) = &self.pool {
            pool.wait_idle();
        }
        // Every counter is final here: fold the stats into the registry so
        // an exporter scraped after the barrier sees the settled numbers.
        self.publish_gauges();
    }

    /// Registers a standing query, evaluating it immediately against the
    /// engine's current state and routing it to its home shard (dominant
    /// support topic, or the overflow shard for broad queries).
    ///
    /// Returns the subscription handle; the initial result is available via
    /// [`SubscriptionManager::result`] right away.  Awaits outstanding
    /// asynchronous refreshes first, so the subscription's counters start
    /// exactly at its first slide.
    pub fn subscribe(&mut self, query: KsirQuery, algorithm: Algorithm) -> Result<SubscriptionId> {
        self.sync();
        {
            let engine = self.engine.read();
            if query.vector().num_topics() != engine.num_topics() {
                return Err(KsirError::DimensionMismatch {
                    expected: engine.num_topics(),
                    actual: query.vector().num_topics(),
                });
            }
        }
        let id = SubscriptionId(self.next_id);
        self.next_id += 1;
        let key = self.config.route(&query);
        for (topic, _) in query.vector().support() {
            *self.watched_topics.entry(topic).or_insert(0) += 1;
        }
        let mut sub = Subscription::new(query, algorithm);
        // The initial evaluation is not a slide, so it is deliberately left
        // out of the refresh/skip counters — they must reconcile with
        // `slides x subscriptions`.
        refresh_one(&*self.engine.read(), id, &mut sub, RefreshReason::Initial);
        let (telemetry, hooks) = (&self.telemetry, &self.hooks);
        self.shards
            .entry(key)
            .or_insert_with(|| Arc::new(ShardCell::new(key, Arc::clone(telemetry), hooks.clone())))
            .shard()
            .insert(id, sub);
        self.route_of.insert(id, key);
        Ok(id)
    }

    /// Removes a subscription.  Returns `true` if it existed.
    ///
    /// A shard emptied by the removal is pruned from the shard map (and
    /// counted on `shard.retired`; a quarantine it held is lifted), so future
    /// slides no longer iterate it.  Any attached delivery queue is closed.
    pub fn unsubscribe(&mut self, id: SubscriptionId) -> bool {
        if !self.route_of.contains_key(&id) {
            return false;
        }
        self.close_delivery(id);
        self.sync();
        let Some(key) = self.route_of.remove(&id) else {
            return false;
        };
        let Some(cell) = self.shards.get(&key) else {
            return false;
        };
        let (removed, retire) = {
            let mut shard = cell.shard();
            let removed = shard.remove(id);
            let retire = removed.is_some() && shard.len() == 0;
            if retire {
                // A retired shard's quarantine ends with it, or the live
                // gauge would hold `/ready` down for good.
                shard.lift_quarantine();
            }
            (removed, retire)
        };
        let removed = match removed {
            Some(sub) => {
                for (topic, _) in sub.query.vector().support() {
                    if let Some(count) = self.watched_topics.get_mut(&topic) {
                        *count -= 1;
                        if *count == 0 {
                            self.watched_topics.remove(&topic);
                        }
                    }
                }
                true
            }
            None => false,
        };
        if retire {
            self.telemetry.registry().counter("shard.retired").inc();
            self.shards.remove(&key);
        }
        removed
    }

    /// Removes and closes `id`'s delivery sender, if any.  Returns `true` if
    /// one was attached.
    fn close_delivery(&self, id: SubscriptionId) -> bool {
        let sender = self
            .deliveries
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .remove(&id);
        match sender {
            Some(sender) => {
                sender.close();
                true
            }
            None => false,
        }
    }

    /// Attaches a bounded delivery queue to a live subscription, returning
    /// the consumer handle.  From the next slide on, every [`ResultDelta`]
    /// the subscription's refreshes produce — through either ingestion API —
    /// is enqueued; a full queue sheds its oldest delta.  Replaces (and closes)
    /// any previously attached queue.  Returns `None` for unknown ids.
    pub fn attach_delivery(
        &mut self,
        id: SubscriptionId,
        config: DeliveryConfig,
    ) -> Option<DeliveryReceiver> {
        if !self.route_of.contains_key(&id) {
            return None;
        }
        // Close any previous queue, then quiesce so the new queue starts at a
        // slide boundary.
        self.close_delivery(id);
        self.sync();
        let (sender, receiver) = delivery_queue(
            config,
            Some(DeliveryTelemetry::new(Arc::clone(&self.telemetry))),
        );
        self.deliveries
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert(id, sender);
        Some(receiver)
    }

    /// Detaches (and closes) a subscription's delivery queue.  Returns `true`
    /// if one was attached.
    pub fn detach_delivery(&mut self, id: SubscriptionId) -> bool {
        // Close first, then quiesce so no worker still holds the removed
        // sender.
        let detached = self.close_delivery(id);
        self.sync();
        detached
    }

    /// The current maintained result of a subscription.
    pub fn result(&self, id: SubscriptionId) -> Option<QueryResult> {
        self.with_subscription(id, |sub| sub.result.clone())?
    }

    /// The work counters of one subscription.
    pub fn subscription_stats(&self, id: SubscriptionId) -> Option<SubscriptionStats> {
        self.with_subscription(id, |sub| sub.stats)
    }

    fn with_subscription<T>(
        &self,
        id: SubscriptionId,
        f: impl FnOnce(&Subscription) -> T,
    ) -> Option<T> {
        let key = self.route_of.get(&id)?;
        let cell = self.shards.get(key)?;
        let shard = cell.shard();
        shard.get(id).map(f)
    }

    /// Forces a refresh of one subscription, returning the delta if the
    /// result changed.  The delta (if any) is also pushed into the
    /// subscription's delivery queue, stamped with the current slide.
    pub fn refresh(&mut self, id: SubscriptionId) -> Option<ResultDelta> {
        self.sync();
        let key = self.route_of.get(&id)?;
        let cell = self.shards.get(key)?;
        let update = {
            let engine = self.engine.read();
            let mut shard = cell.shard();
            let sub = shard.get_mut(id)?;
            refresh_one(&*engine, id, sub, RefreshReason::Forced)
        };
        if let Some(update) = &update {
            deliver(
                &self.deliveries,
                self.slides as u64,
                std::slice::from_ref(update),
                self.hooks.as_deref(),
            );
        }
        update
    }

    /// Installs test hooks at the pipeline's seams (see [`PipelineHooks`]).
    /// Quiesces and tears down any running worker pool first, so the next
    /// spawn carries the hooks; the live shards take them at once.
    #[doc(hidden)]
    pub fn set_hooks(&mut self, hooks: Arc<dyn PipelineHooks>) {
        self.sync();
        self.pool = None; // joins the workers; the next spawn carries the hooks
        for cell in self.shards.values() {
            cell.shard().hooks = Some(Arc::clone(&hooks));
        }
        self.hooks = Some(hooks);
    }

    /// Number of shards currently quarantined by repeated refresh panics
    /// (each shed the epoch that exhausted its retry budget).
    pub fn quarantined_shards(&self) -> usize {
        self.shards
            .values()
            .filter(|cell| cell.shard().is_quarantined())
            .count()
    }

    /// Lifts every shard quarantine (after the underlying fault is fixed),
    /// returning how many were lifted.  Each lift brings the
    /// `shard.quarantine_active` gauge down by one (the cumulative
    /// `shard.quarantined` counter never comes down) — this is what lets a
    /// readiness probe recover.  Quiesces first so no worker quarantines a
    /// shard concurrently.
    pub fn lift_quarantines(&mut self) -> usize {
        self.sync();
        self.shards
            .values()
            .filter(|cell| cell.shard().lift_quarantine())
            .count()
    }

    /// Buckets currently held by the reorder buffer awaiting their horizon.
    pub fn reorder_buffered(&self) -> usize {
        self.reorder.buffered()
    }

    /// The reorder buffer's released watermark: the highest bucket end
    /// already forwarded to ingestion.  Arrivals at or before it are late
    /// and shed; `None` until the first release.
    pub fn reorder_released_through(&self) -> Option<Timestamp> {
        self.reorder.released_through()
    }

    /// Folds one reorder-buffer outcome into the registry counters
    /// [`SubscriptionManager::stats`] reads and the trace ring.
    fn account_reorder(&self, reordered: bool, dropped: Option<usize>) {
        let registry = self.telemetry.registry();
        if reordered {
            registry.counter("ingest.reordered").inc();
        }
        if let Some(elements) = dropped {
            registry.counter("ingest.late_dropped").inc();
            self.telemetry.record(
                self.slides as u64,
                None,
                TraceEventKind::LateBucketDropped {
                    elements: elements as u64,
                },
            );
            if elements > 0 {
                self.telemetry.trigger_flight(FlightTrigger::LateDropBurst {
                    epoch: self.slides as u64,
                    dropped: elements as u64,
                });
            }
        }
    }
}

impl<D: TopicWordDistribution + Send + Sync + 'static> SubscriptionManager<D> {
    /// The worker pool, spawned on first use and sized by
    /// [`ShardConfig::worker_threads`].
    fn pool(&mut self) -> &WorkerPool {
        if self.pool.is_none() {
            self.pool = Some(WorkerPool::spawn(
                self.config.worker_threads(),
                Arc::clone(&self.deliveries),
                Arc::clone(&self.watermark),
                Arc::clone(&self.telemetry),
                self.hooks.clone(),
            ));
        }
        self.pool.as_ref().expect("just spawned")
    }

    /// Captures the engine's post-write state as this epoch's immutable
    /// snapshot — `O(topics)` `Arc` clones; the next index write
    /// copy-on-writes around it.  Bounded to the topics live subscriptions
    /// watch: lists nothing can traverse are not captured and therefore
    /// never pay copy-on-write.
    fn capture_epoch(&self, epoch: u64) -> Arc<dyn QuerySource + Send + Sync> {
        if let Some(hooks) = &self.hooks {
            hooks.before_snapshot(epoch);
        }
        let started = Instant::now();
        let snapshot = Arc::new(EngineSnapshot::capture_watched(
            &self.engine.read(),
            epoch,
            self.watched_topics.keys().copied(),
        ));
        let registry = self.telemetry.registry();
        registry
            .histogram("snapshot.capture")
            .record(started.elapsed());
        registry.counter("snapshot.epochs_captured").inc();
        self.telemetry.record(
            epoch,
            None,
            TraceEventKind::SnapshotCaptured {
                topics: self.watched_topics.len() as u64,
            },
        );
        snapshot
    }

    /// Ingests one bucket and returns the complete [`SlideOutcome`]: the
    /// pipelined ingest of [`SubscriptionManager::ingest_bucket_async`]
    /// between two [`SubscriptionManager::sync`] barriers.  The opening
    /// barrier leaves every shard lane idle, so each touched shard is
    /// scheduled (never deferred) on the pool's run queue against this
    /// epoch's snapshot.  The closing barrier helps before it waits: the
    /// calling thread pops scheduled shards and refreshes them itself,
    /// beside the pool workers, until the queue is empty; only then does it
    /// await the refreshes a worker holds, publish the gauges, and retire
    /// the epoch's freshness stamp.  Either thread runs the same lane drain,
    /// so which one refreshes a shard changes no decision.  Result deltas
    /// additionally stream into any attached delivery queues.
    pub fn ingest_bucket(
        &mut self,
        bucket: Vec<(SocialElement, TopicVector)>,
        bucket_end: Timestamp,
    ) -> Result<SlideOutcome> {
        self.sync();
        let collector = SlideCollector::default();
        let ticket = self.ingest_epoch(bucket, bucket_end, Some(&collector))?;
        if let Some(pool) = &self.pool {
            pool.help();
        }
        self.sync();
        debug_assert_eq!(ticket.shards_deferred, 0, "the barrier idled every lane");
        let slides = std::mem::take(&mut *collector.lock().unwrap_or_else(|p| p.into_inner()));

        let mut updates = Vec::new();
        let mut refreshed = 0usize;
        let mut skipped = ticket.skipped;
        for slide in slides {
            refreshed += slide.refreshed;
            skipped += slide.skipped;
            updates.extend(slide.updates);
        }
        // Shards complete out of order on the caller and the pool; present
        // the deltas deterministically.
        updates.sort_by_key(|u| u.subscription);

        Ok(SlideOutcome {
            report: ticket.report,
            updates,
            refreshed,
            skipped,
            shards_scheduled: ticket.shards_scheduled,
            shards_skipped: ticket.shards_skipped,
        })
    }

    /// Ingests one bucket and **returns before any refresh runs — including
    /// the previous slide's**: the index is updated, an immutable epoch
    /// snapshot is captured, idle undisturbed shards are skipped inline, and
    /// every other shard is handed this epoch through its lane.  Refresh
    /// workers evaluate against the epoch's snapshot rather than an engine
    /// read guard, so the next index write proceeds while refreshes drain
    /// (pipelined epochs: a new epoch is admitted while at most one earlier
    /// epoch is in flight).  Result deltas stream into the
    /// attached delivery queues as each shard finishes; ingestion latency is
    /// therefore independent of refresh compute, subscriber count, and
    /// drain speed.
    ///
    /// Decision-identity with the synchronous path is per shard: each shard
    /// processes its epochs strictly in order, so its stored results are
    /// exactly what a barrier after every slide would have left at every
    /// epoch, and
    /// the frozen snapshot *is* that epoch's engine state.  Use
    /// [`SubscriptionManager::sync`] to await all outstanding epochs, or
    /// [`SubscriptionManager::completed_epoch`] to watch the watermark.
    pub fn ingest_bucket_async(
        &mut self,
        bucket: Vec<(SocialElement, TopicVector)>,
        bucket_end: Timestamp,
    ) -> Result<SlideTicket> {
        // Pipeline admission: bound in-flight epochs (and with them the
        // snapshots the writer must copy-on-write around).  Without a pool
        // nothing is in flight; the pool's admission wait self-heals dead
        // workers, so a killed worker with queued epochs cannot wedge
        // ingestion.
        let admission_started = Instant::now();
        if let Some(pool) = &self.pool {
            pool.wait_admission(PIPELINE_DEPTH);
        }
        self.telemetry
            .registry()
            .histogram("ingest.admission_wait")
            .record(admission_started.elapsed());
        let ticket = self.ingest_epoch(bucket, bucket_end, None)?;
        self.publish_gauges();
        Ok(ticket)
    }

    /// The pipeline both ingestion APIs share, after admission: applies the
    /// bucket to the index, stamps the epoch, projects the slide delta onto
    /// every shard's lane, and hands the scheduled shards to the worker
    /// pool.  Each enqueued epoch carries `collector`, into which the
    /// workers push the shard's completed `ShardSlide`.
    fn ingest_epoch(
        &mut self,
        bucket: Vec<(SocialElement, TopicVector)>,
        bucket_end: Timestamp,
        collector: Option<&SlideCollector>,
    ) -> Result<SlideTicket> {
        let write_started = Instant::now();
        let report = self.engine.write().ingest_bucket(bucket, bucket_end)?;
        self.telemetry
            .registry()
            .histogram("ingest.index_write")
            .record(write_started.elapsed());
        self.slides += 1;
        let slide_no = self.slides as u64;
        self.watermark.note_epoch(slide_no);
        // Stamp the epoch on the freshness clock in the same breath as the
        // ingest trace event: every later `delivery.e2e` sample and the
        // `manager.freshness_lag` gauge measure from this instant.
        self.telemetry
            .freshness()
            .stamp(slide_no, self.telemetry.now_nanos());
        self.telemetry.record(
            slide_no,
            None,
            TraceEventKind::SlideIngested {
                elements: report.inserted as u64,
            },
        );

        let mut delta: Option<Arc<ksir_core::stream::WindowDelta>> = None;
        let mut snapshot: Option<Arc<dyn QuerySource + Send + Sync>> = None;
        let mut handoffs: Vec<Arc<ShardCell>> = Vec::new();
        let mut shards_scheduled = 0usize;
        let mut shards_deferred = 0usize;
        let mut shards_skipped = 0usize;
        let mut skipped = 0usize;
        let project_started = Instant::now();
        for cell in self.shards.values() {
            let decision = cell.project_epoch(slide_no, &report.delta, || {
                // Only enqueued epochs register a task, clone the delta, and
                // pin the snapshot — quiet slides pay for none of it.  The
                // task is built *first*: should the snapshot capture below
                // panic, the registration completes during unwind and the
                // watermark still advances past this epoch.
                PendingEpoch {
                    epoch: slide_no,
                    task: EpochTask::register(&self.watermark, slide_no),
                    delta: delta
                        .get_or_insert_with(|| Arc::new(report.delta.clone()))
                        .clone(),
                    snapshot: snapshot
                        .get_or_insert_with(|| self.capture_epoch(slide_no))
                        .clone(),
                    collector: collector.cloned(),
                }
            });
            match decision {
                LaneDecision::Deferred => shards_deferred += 1,
                LaneDecision::Scheduled => {
                    handoffs.push(Arc::clone(cell));
                    shards_scheduled += 1;
                }
                LaneDecision::Skipped(n) => {
                    shards_skipped += 1;
                    skipped += n;
                }
                LaneDecision::Empty => {}
            }
        }
        self.telemetry
            .registry()
            .histogram("ingest.project")
            .record(project_started.elapsed());
        if !handoffs.is_empty() {
            self.pool().dispatch(handoffs);
        }
        Ok(SlideTicket {
            slide: slide_no,
            report,
            shards_scheduled,
            shards_deferred,
            shards_skipped,
            skipped,
        })
    }

    /// Ingests a bucket through the bounded reorder buffer in front of the
    /// pipelined path, tolerating out-of-order arrival within
    /// [`ShardConfig::reorder_horizon`].
    ///
    /// The buffer holds up to `reorder_horizon` buckets sorted by their end
    /// timestamps and releases the oldest once the bound is exceeded, so any
    /// bucket displaced by at most `reorder_horizon` positions is re-sequenced
    /// exactly — released buckets flow through
    /// [`SubscriptionManager::ingest_bucket_async`] in timestamp order and
    /// yield decisions bit-identical to in-order replay.  A bucket arriving
    /// *beyond* the horizon (its end is at or before the released watermark)
    /// is shed and charged to [`ManagerStats::late_dropped`] / the
    /// `ingest.late_dropped` counter.
    ///
    /// Returns the tickets of the slides this arrival released (often none —
    /// the bucket is merely buffered).  Call
    /// [`SubscriptionManager::flush_reorder_buffer`] at end of stream to
    /// release the tail.
    pub fn ingest_bucket_reordered(
        &mut self,
        bucket: Vec<(SocialElement, TopicVector)>,
        bucket_end: Timestamp,
    ) -> Result<Vec<SlideTicket>> {
        let outcome = self.reorder.offer(bucket, bucket_end);
        self.account_reorder(outcome.reordered, outcome.dropped);
        self.ingest_released(outcome.released)
    }

    /// Drains the reorder buffer, ingesting every held bucket in timestamp
    /// order — the end-of-stream companion to
    /// [`SubscriptionManager::ingest_bucket_reordered`].
    pub fn flush_reorder_buffer(&mut self) -> Result<Vec<SlideTicket>> {
        let released = self.reorder.flush();
        self.ingest_released(released)
    }

    fn ingest_released(&mut self, released: Vec<Bucket>) -> Result<Vec<SlideTicket>> {
        let mut tickets = Vec::with_capacity(released.len());
        for (bucket, end) in released {
            tickets.push(self.ingest_bucket_async(bucket, end)?);
        }
        Ok(tickets)
    }

    /// Convenience wrapper mirroring [`KsirEngine::ingest_stream`]: cuts a
    /// timestamp-ordered stream into buckets of the configured length `L`
    /// (via the shared [`ksir_core::stream::for_each_bucket`] convention),
    /// ingesting each through [`SubscriptionManager::ingest_bucket`].
    /// Returns the per-slide outcomes.
    pub fn ingest_stream<I>(&mut self, stream: I) -> Result<Vec<SlideOutcome>>
    where
        I: IntoIterator<Item = (SocialElement, TopicVector)>,
    {
        let bucket_len = self.engine.read().config().window.bucket_len();
        let now = self.engine.read().now();
        let mut outcomes = Vec::new();
        ksir_core::stream::for_each_bucket(bucket_len, now, stream, |bucket, end| {
            outcomes.push(self.ingest_bucket(bucket, end)?);
            Ok(())
        })?;
        Ok(outcomes)
    }

    /// Asynchronous counterpart of [`SubscriptionManager::ingest_stream`]:
    /// every bucket goes through [`SubscriptionManager::ingest_bucket_async`].
    /// Returns the per-slide tickets; call [`SubscriptionManager::sync`] to
    /// await the last slide's refresh work.
    pub fn ingest_stream_async<I>(&mut self, stream: I) -> Result<Vec<SlideTicket>>
    where
        I: IntoIterator<Item = (SocialElement, TopicVector)>,
    {
        let bucket_len = self.engine.read().config().window.bucket_len();
        let now = self.engine.read().now();
        let mut tickets = Vec::new();
        ksir_core::stream::for_each_bucket(bucket_len, now, stream, |bucket, end| {
            tickets.push(self.ingest_bucket_async(bucket, end)?);
            Ok(())
        })?;
        Ok(tickets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksir_core::fixtures::paper_example;
    use ksir_types::{QueryVector, TopicId};

    fn query(k: usize, weights: &[f64]) -> KsirQuery {
        KsirQuery::new(k, QueryVector::new(weights.to_vec()).unwrap()).unwrap()
    }

    #[test]
    fn subscribe_validates_dimensions() {
        let ex = paper_example();
        let mut mgr = SubscriptionManager::new(ex.empty_engine());
        assert!(matches!(
            mgr.subscribe(query(2, &[1.0, 1.0, 1.0]), Algorithm::Mttd),
            Err(KsirError::DimensionMismatch { .. })
        ));
        assert_eq!(mgr.subscription_count(), 0);
        assert_eq!(mgr.shard_count(), 0);
    }

    #[test]
    fn subscribe_evaluates_immediately_and_unsubscribe_removes() {
        let ex = paper_example();
        let mut mgr = SubscriptionManager::new(ex.build_engine());
        let id = mgr
            .subscribe(query(2, &[0.5, 0.5]), Algorithm::Mttd)
            .unwrap();
        let result = mgr.result(id).expect("evaluated at subscribe time");
        assert_eq!(result.len(), 2);
        assert!(result.score > 0.6);
        assert!(mgr.unsubscribe(id));
        assert!(!mgr.unsubscribe(id));
        assert!(mgr.result(id).is_none());
        assert!(mgr.shard_of(id).is_none());
    }

    #[test]
    fn unsubscribe_prunes_emptied_shards_into_retired_tally() {
        let ex = paper_example();
        let mut mgr = SubscriptionManager::new(ex.empty_engine());
        let narrow = mgr
            .subscribe(query(1, &[1.0, 0.0]), Algorithm::Mtts)
            .unwrap();
        let other = mgr
            .subscribe(query(1, &[0.0, 1.0]), Algorithm::Mttd)
            .unwrap();
        assert_eq!(mgr.shard_count(), 2);
        for (element, tv) in ex.stream().into_iter().take(4) {
            let end = element.ts;
            mgr.ingest_bucket(vec![(element, tv)], end).unwrap();
        }
        let stats_before = mgr.stats();
        assert!(mgr.unsubscribe(narrow));
        // The emptied shard is gone from the live map…
        assert_eq!(mgr.shard_count(), 1);
        assert_eq!(mgr.shard_stats().len(), 1);
        assert_eq!(mgr.shard_stats()[0].key, ShardKey::Topic(TopicId(1)));
        // …and counted as retired, while the work it did stays in the
        // registry's totals: the aggregate stats are unchanged by the
        // removal.
        let retired = mgr.telemetry().registry().counter("shard.retired");
        assert_eq!(retired.get(), 1);
        let live = &mgr.shard_stats()[0];
        assert!(live.refreshes + live.skips < stats_before.refreshes + stats_before.skips);
        assert_eq!(mgr.stats(), stats_before);
        // Future slides no longer charge the dead shard.
        let remaining_slides = ex.stream().len() - 4;
        for (element, tv) in ex.stream().into_iter().skip(4) {
            let end = element.ts;
            mgr.ingest_bucket(vec![(element, tv)], end).unwrap();
        }
        let stats = mgr.stats();
        assert_eq!(
            stats.refreshes + stats.skips,
            stats_before.refreshes + stats_before.skips + remaining_slides,
            "only the surviving subscription is classified after the prune"
        );
        assert!(mgr.unsubscribe(other));
        assert_eq!(mgr.shard_count(), 0);
        assert_eq!(retired.get(), 2);
    }

    #[test]
    fn subscriptions_route_to_dominant_topic_shards() {
        let ex = paper_example();
        let mut mgr = SubscriptionManager::new(ex.build_engine());
        let narrow0 = mgr
            .subscribe(query(1, &[1.0, 0.0]), Algorithm::Mtts)
            .unwrap();
        let narrow1 = mgr
            .subscribe(query(1, &[0.2, 0.8]), Algorithm::Mttd)
            .unwrap();
        assert_eq!(mgr.shard_of(narrow0), Some(ShardKey::Topic(TopicId(0))));
        assert_eq!(mgr.shard_of(narrow1), Some(ShardKey::Topic(TopicId(1))));
        assert_eq!(mgr.shard_count(), 2);
        let stats = mgr.shard_stats();
        assert_eq!(stats.len(), 2);
        assert!(stats.iter().all(|s| s.subscriptions == 1));
    }

    #[test]
    fn maintained_result_tracks_the_stream() {
        let ex = paper_example();
        let mut mgr = SubscriptionManager::new(ex.empty_engine());
        let id = mgr
            .subscribe(query(2, &[0.5, 0.5]), Algorithm::Mttd)
            .unwrap();
        // Before any data the result is empty.
        assert!(mgr.result(id).unwrap().is_empty());
        for (element, tv) in ex.stream() {
            let end = element.ts;
            mgr.ingest_bucket(vec![(element, tv)], end).unwrap();
        }
        // At t = 8 the maintained result must match the ad-hoc answer.
        let fresh = mgr
            .engine()
            .query(&query(2, &[0.5, 0.5]), Algorithm::Mttd)
            .unwrap();
        let maintained = mgr.result(id).unwrap();
        assert_eq!(maintained.sorted_elements(), fresh.sorted_elements());
        assert!((maintained.score - fresh.score).abs() < 1e-9);
        let stats = mgr.stats();
        assert_eq!(stats.slides, 8);
        assert!(stats.refreshes >= 1);
    }

    #[test]
    fn disjoint_topic_subscription_is_skipped_with_its_shard() {
        // A subscription whose support is topic 1 only must be skipped when
        // a slide touches only topic 0 — and its whole shard with it.
        let ex = paper_example();
        let mut mgr = SubscriptionManager::new(ex.empty_engine());
        // e3 is almost pure topic 0; subscribe to pure topic 1 and ingest an
        // element with support {topic 0} only.
        let id = mgr
            .subscribe(query(1, &[0.0, 1.0]), Algorithm::Mtts)
            .unwrap();
        let e3 = ex.element(3).clone();
        let tv3 = ksir_types::TopicVector::from_values(vec![1.0, 0.0]).unwrap();
        let outcome = mgr.ingest_bucket(vec![(e3, tv3)], Timestamp(3)).unwrap();
        assert_eq!(outcome.skipped, 1);
        assert_eq!(outcome.refreshed, 0);
        assert_eq!(outcome.shards_scheduled, 0);
        assert_eq!(outcome.shards_skipped, 1);
        assert_eq!(mgr.subscription_stats(id).unwrap().skips, 1);
        let shard = &mgr.shard_stats()[0];
        assert_eq!(shard.key, ShardKey::Topic(TopicId(1)));
        assert_eq!(shard.skips, 1);
        assert_eq!(shard.skipped_slides, 1);
        assert_eq!(shard.scheduled_slides, 0);
    }

    #[test]
    fn forced_refresh_reports_forced_reason_only_on_change() {
        let ex = paper_example();
        let mut mgr = SubscriptionManager::new(ex.build_engine());
        let id = mgr
            .subscribe(query(2, &[0.5, 0.5]), Algorithm::Mttd)
            .unwrap();
        // Nothing changed since subscribe: a forced refresh confirms the
        // result and reports no delta.
        assert!(mgr.refresh(id).is_none());
        assert!(mgr.refresh(SubscriptionId(999)).is_none());
    }

    #[test]
    fn ingest_stream_cuts_buckets_and_maintains() {
        let ex = paper_example();
        let mut mgr = SubscriptionManager::new(ex.empty_engine());
        let id = mgr
            .subscribe(query(2, &[0.5, 0.5]), Algorithm::Mtts)
            .unwrap();
        let outcomes = mgr.ingest_stream(ex.stream()).unwrap();
        assert_eq!(outcomes.len(), 8, "bucket length is 1");
        let fresh = mgr
            .engine()
            .query(&query(2, &[0.5, 0.5]), Algorithm::Mtts)
            .unwrap();
        assert_eq!(
            mgr.result(id).unwrap().sorted_elements(),
            fresh.sorted_elements()
        );
    }

    #[test]
    fn counters_reconcile_across_shards() {
        let ex = paper_example();
        let mut mgr = SubscriptionManager::new(ex.empty_engine());
        for weights in [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.8, 0.2], [0.3, 0.7]] {
            mgr.subscribe(query(2, &weights), Algorithm::Mttd).unwrap();
        }
        mgr.ingest_stream(ex.stream()).unwrap();
        let stats = mgr.stats();
        assert_eq!(
            stats.refreshes + stats.skips,
            stats.slides * mgr.subscription_count(),
            "manager counters must reconcile"
        );
        let (shard_refreshes, shard_skips) = mgr
            .shard_stats()
            .iter()
            .fold((0, 0), |(r, s), st| (r + st.refreshes, s + st.skips));
        assert_eq!(shard_refreshes, stats.refreshes);
        assert_eq!(shard_skips, stats.skips);
    }

    #[test]
    fn async_ingest_returns_before_refresh_and_sync_settles() {
        let ex = paper_example();
        let mut mgr = SubscriptionManager::new(ex.empty_engine());
        let id = mgr
            .subscribe(query(2, &[0.5, 0.5]), Algorithm::Mttd)
            .unwrap();
        let rx = mgr
            .attach_delivery(id, DeliveryConfig::default())
            .expect("live subscription");
        let tickets = mgr.ingest_stream_async(ex.stream()).unwrap();
        assert_eq!(tickets.len(), 8);
        assert_eq!(tickets.last().unwrap().slide, 8);
        mgr.sync();
        // Maintained result equals scratch after the barrier.
        let fresh = mgr
            .engine()
            .query(&query(2, &[0.5, 0.5]), Algorithm::Mttd)
            .unwrap();
        assert_eq!(
            mgr.result(id).unwrap().sorted_elements(),
            fresh.sorted_elements()
        );
        // Every delivered delta belongs to a real slide, in order.
        let deliveries = rx.drain();
        assert!(!deliveries.is_empty());
        assert!(deliveries.windows(2).all(|w| w[0].slide <= w[1].slide));
        assert_eq!(rx.dropped(), 0);
        // Counters reconcile after sync.
        let stats = mgr.stats();
        assert_eq!(stats.refreshes + stats.skips, stats.slides);
    }

    #[test]
    fn detach_delivery_closes_the_queue() {
        let ex = paper_example();
        let mut mgr = SubscriptionManager::new(ex.build_engine());
        let id = mgr
            .subscribe(query(2, &[0.5, 0.5]), Algorithm::Mttd)
            .unwrap();
        assert!(mgr
            .attach_delivery(SubscriptionId(99), DeliveryConfig::default())
            .is_none());
        let rx = mgr.attach_delivery(id, DeliveryConfig::default()).unwrap();
        assert!(!rx.is_closed());
        assert!(mgr.detach_delivery(id));
        assert!(!mgr.detach_delivery(id));
        assert!(rx.is_closed());
    }

    #[test]
    fn into_engine_shuts_the_pool_down() {
        let ex = paper_example();
        let mut mgr = SubscriptionManager::new(ex.empty_engine());
        mgr.subscribe(query(2, &[0.5, 0.5]), Algorithm::Mttd)
            .unwrap();
        mgr.ingest_stream_async(ex.stream()).unwrap();
        let engine = mgr.into_engine();
        assert!(engine.active_count() > 0);
    }
}
