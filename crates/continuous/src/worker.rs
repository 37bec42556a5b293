//! Long-lived shard-refresh workers fed by a channel, plus the epoch
//! watermark that replaced the quiesce-before-write barrier.
//!
//! Every scheduled shard refresh — from either ingestion API — runs on this
//! fixed pool of workers, which live as long as the
//! [`SubscriptionManager`](crate::SubscriptionManager).  No global barrier
//! sits before an index write:
//!
//! * each ingested slide (an **epoch**) captures an immutable
//!   [`EngineSnapshot`](ksir_snapshot::EngineSnapshot) right after its index
//!   write, and refresh workers evaluate against the snapshot instead of a
//!   `SharedEngine` read guard — so the *next* epoch's index write proceeds
//!   while this epoch's refreshes drain;
//! * ordering is per shard, not global: every shard processes its pending
//!   epochs strictly in order (the shard's *lane*, see
//!   [`crate::shard::Lane`]), which is exactly the ordering the refresh
//!   decisions depend on — cross-shard interleaving never influenced them;
//! * the [`Watermark`] tracks outstanding shard-epoch tasks per epoch: the
//!   pool's [`WorkerPool::wait_idle`] is the `sync()` barrier (the
//!   synchronous `ingest_bucket` closes every slide with it), and
//!   [`WorkerPool::wait_admission`] is the pipeline-admission gate that
//!   bounds how many epochs may be in flight (and with them the snapshot
//!   memory the writer keeps alive).  Both loop over the watermark's
//!   bounded waits.  Without a pool nothing can be outstanding: tasks are
//!   registered only for shards handed to a pool, and the pool is dropped
//!   only after a barrier.
//!
//! Slow *subscribers* still never extend any of these waits: delivery queues
//! are bounded and non-blocking under the default overflow policy, so the
//! watermark waits on refresh compute only.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use ksir_telemetry::{Counter, FlightTrigger, Telemetry, TraceEventKind};

use crate::delivery::DeliverySender;
use crate::fault::FaultPlan;
use crate::shard::{label_of, Shard, ShardCell};
use crate::subscription::SubscriptionId;

/// Failed refresh attempts a shard gets (after the first) before it is
/// quarantined and the epoch shed.  Attempt `n` backs off `100µs · 2ⁿ`
/// first, so a transiently-poisoned shard has a real chance to clear.
const REFRESH_RETRY_BUDGET: usize = 2;

/// Shared map from live subscription to its delivery-queue producer.
pub(crate) type DeliveryRegistry =
    Arc<Mutex<std::collections::BTreeMap<SubscriptionId, DeliverySender>>>;

/// Pushes a slide's result deltas into the attached delivery queues.  Used by
/// the workers and by the manager's forced
/// [`refresh`](crate::SubscriptionManager::refresh), so subscribers see every
/// change whichever caused it.
pub(crate) fn deliver(
    registry: &DeliveryRegistry,
    slide: u64,
    updates: &[crate::subscription::ResultDelta],
    faults: Option<&FaultPlan>,
    telemetry: &Telemetry,
) {
    if updates.is_empty() {
        return;
    }
    // Clone the senders out and release the registry lock before sending: a
    // Block-policy queue may stall its producer, and that stall must never
    // extend to other subscriptions' deliveries (or to the manager methods
    // that take the registry lock).
    let senders: Vec<_> = {
        let registry = registry.lock().unwrap_or_else(|p| p.into_inner());
        updates
            .iter()
            .map(|update| registry.get(&update.subscription).cloned())
            .collect()
    };
    for (update, sender) in updates.iter().zip(senders) {
        if let Some(sender) = sender {
            // Fault seam: a poisoned send panics; the catch converts the
            // loss into a *counted* shed on the queue, so
            // `delivered + dropped == result_changes` keeps reconciling
            // through the fault.
            let poisoned = faults.is_some_and(|plan| plan.take_delivery_poison(slide));
            if poisoned {
                // Flight-record the fault at its consume seam (outside the
                // unwind below), so chaos runs can assert one postmortem
                // record per injected fault.
                telemetry.trigger_flight(FlightTrigger::FaultInjected {
                    epoch: slide,
                    kind: "poison_delivery",
                });
            }
            let sent = catch_unwind(AssertUnwindSafe(|| {
                if poisoned {
                    panic!("injected delivery fault");
                }
                sender.send(slide, update.clone());
            }));
            if sent.is_err() {
                sender.shed(slide, update.subscription);
            }
        }
    }
}

/// Outstanding shard-epoch tasks per epoch — the pipeline's completion
/// accounting.
///
/// An epoch is *complete* when every shard has processed it (refreshed or
/// skipped).  Inline work (unscheduled shards skipped on the ingest thread)
/// is never registered, so an epoch that scheduled nothing completes
/// immediately.
#[derive(Debug, Default)]
pub(crate) struct Watermark {
    state: Mutex<WatermarkState>,
    changed: Condvar,
}

#[derive(Debug, Default)]
struct WatermarkState {
    /// `epoch → outstanding shard tasks`; absent = complete.
    pending: BTreeMap<u64, usize>,
    /// Highest epoch ever announced (see [`Watermark::note_epoch`]).
    highest_seen: u64,
}

impl WatermarkState {
    fn completed_through(&self) -> u64 {
        match self.pending.keys().next() {
            Some(&first_open) => first_open.saturating_sub(1),
            None => self.highest_seen,
        }
    }
}

impl Watermark {
    /// An empty watermark (alias of `default()`, for test ergonomics).
    #[cfg(test)]
    pub(crate) fn new() -> Self {
        Watermark::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, WatermarkState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Announces an epoch (moves `highest_seen`) without registering tasks —
    /// so fully-inline slides still advance the watermark.
    pub(crate) fn note_epoch(&self, epoch: u64) {
        let mut state = self.lock();
        if epoch > state.highest_seen {
            state.highest_seen = epoch;
        }
    }

    /// Registers `n` outstanding shard tasks for `epoch`.
    pub(crate) fn add(&self, epoch: u64, n: usize) {
        if n == 0 {
            return;
        }
        let mut state = self.lock();
        if epoch > state.highest_seen {
            state.highest_seen = epoch;
        }
        *state.pending.entry(epoch).or_insert(0) += n;
    }

    /// Completes one shard task of `epoch`.
    pub(crate) fn complete_one(&self, epoch: u64) {
        let mut state = self.lock();
        match state.pending.get_mut(&epoch) {
            Some(n) if *n > 1 => *n -= 1,
            Some(_) => {
                state.pending.remove(&epoch);
                self.changed.notify_all();
            }
            None => debug_assert!(false, "completing a task of an unregistered epoch"),
        }
    }

    /// The highest epoch `e` such that every epoch `≤ e` has fully drained.
    pub(crate) fn completed_through(&self) -> u64 {
        self.lock().completed_through()
    }

    /// Number of epochs with outstanding tasks.
    pub(crate) fn inflight_epochs(&self) -> usize {
        self.lock().pending.len()
    }

    /// One bounded wait until no epoch has outstanding tasks; `true` when
    /// that holds.  The pool's self-healing `sync()` barrier loops over this
    /// so it can sweep for dead workers between waits instead of blocking
    /// forever on work no live worker will ever pick up.
    pub(crate) fn wait_all_for(&self, timeout: Duration) -> bool {
        let state = self.lock();
        if state.pending.is_empty() {
            return true;
        }
        let (state, _) = self
            .changed
            .wait_timeout(state, timeout)
            .unwrap_or_else(|p| p.into_inner());
        state.pending.is_empty()
    }

    /// One bounded wait until fewer than `depth` epochs have outstanding
    /// tasks; `true` when that holds.  The pool's admission gate loops over
    /// this.
    pub(crate) fn wait_inflight_below_for(&self, depth: usize, timeout: Duration) -> bool {
        let state = self.lock();
        if state.pending.len() < depth {
            return true;
        }
        let (state, _) = self
            .changed
            .wait_timeout(state, timeout)
            .unwrap_or_else(|p| p.into_inner());
        state.pending.len() < depth
    }
}

/// An owning watermark registration: one outstanding shard task of one
/// epoch, completed when the value drops — *however* it drops.
///
/// Construction and completion are fused into the value's lifetime, so a
/// [`PendingEpoch`](crate::shard::PendingEpoch) that leaves the pipeline by
/// **any** route — processed by a worker, shed by quarantine, stranded in a
/// lane the manager tears down, or dropped mid-construction when snapshot
/// capture panics — always completes its registration.  That is the
/// no-wedged-ticket guarantee: the admission gate and the `sync()` barrier
/// can never block on a task that no longer exists.  (The `SlideTicket` the
/// async ingest API returns is a *report*, not the registration — dropping
/// it without `detach()` was never able to wedge the watermark, which the
/// ticket-drop regression test pins.)
#[derive(Debug)]
pub(crate) struct EpochTask {
    watermark: Arc<Watermark>,
    epoch: u64,
}

impl EpochTask {
    /// Registers one outstanding task of `epoch` and binds its completion
    /// to the returned value's drop.
    pub(crate) fn register(watermark: &Arc<Watermark>, epoch: u64) -> Self {
        watermark.add(epoch, 1);
        EpochTask {
            watermark: Arc::clone(watermark),
            epoch,
        }
    }
}

impl Drop for EpochTask {
    fn drop(&mut self) {
        self.watermark.complete_one(self.epoch);
    }
}

/// The pool of long-lived refresh workers, self-healing within a bounded
/// respawn budget.
///
/// Not generic over the topic model: work carries its engine state as
/// `Arc<dyn QuerySource>` epoch snapshots in the shard lanes.
///
/// Every `dispatch` first sweeps for dead worker threads (a worker dies on
/// a [`FaultKind::KillWorker`](crate::FaultKind::KillWorker) injection, or
/// on a panic that escapes the refresh isolation boundary) and replaces
/// them, counting each replacement on the `worker.restarts` counter and a
/// [`TraceEventKind::WorkerRespawned`] event.  The budget bounds restart
/// churn at `threads × 8`; once spent, remaining workers carry the load —
/// except that a fully dead pool always earns one emergency respawn, so
/// dispatched work can never be silently stranded on a channel nobody
/// reads.
pub(crate) struct WorkerPool {
    tx: Option<Sender<Arc<ShardCell>>>,
    watermark: Arc<Watermark>,
    state: Mutex<PoolState>,
    /// Re-invocable worker factory (captures the channel receiver,
    /// registry, fault plan, and telemetry by `Arc`).
    spawner: Box<dyn Fn() -> JoinHandle<()> + Send + Sync>,
    restarts: Arc<Counter>,
    telemetry: Arc<Telemetry>,
}

struct PoolState {
    handles: Vec<JoinHandle<()>>,
    respawns_left: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field(
                "workers",
                &self
                    .state
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .handles
                    .len(),
            )
            .finish()
    }
}

impl WorkerPool {
    /// Spawns `threads` workers over a delivery registry, the manager's
    /// watermark, and an optional fault plan.
    pub(crate) fn spawn(
        threads: usize,
        registry: DeliveryRegistry,
        watermark: Arc<Watermark>,
        telemetry: Arc<Telemetry>,
        faults: Option<Arc<FaultPlan>>,
    ) -> Self {
        let threads = threads.max(1);
        let (tx, rx) = channel::<Arc<ShardCell>>();
        let rx = Arc::new(Mutex::new(rx));
        let spawner = {
            let telemetry = Arc::clone(&telemetry);
            Box::new(move || {
                let rx = Arc::clone(&rx);
                let registry = Arc::clone(&registry);
                let telemetry = Arc::clone(&telemetry);
                let faults = faults.clone();
                std::thread::spawn(move || {
                    worker_loop(&rx, &registry, &telemetry, faults.as_deref())
                })
            })
        };
        let handles = (0..threads).map(|_| spawner()).collect();
        WorkerPool {
            tx: Some(tx),
            watermark,
            state: Mutex::new(PoolState {
                handles,
                respawns_left: threads * 8,
            }),
            spawner,
            restarts: telemetry.registry().counter("worker.restarts"),
            telemetry,
        }
    }

    /// Hands shards to the workers, each of which drains its shard's lane
    /// of pending epochs (the lane carries the payloads).  Returns
    /// immediately; the caller has already registered the matching
    /// watermark tasks.
    pub(crate) fn dispatch(&self, shards: Vec<Arc<ShardCell>>) {
        self.ensure_workers();
        let tx = self.tx.as_ref().expect("pool not shut down");
        for shard in shards {
            tx.send(shard).expect("worker channel closed");
        }
    }

    /// Sweeps dead workers and respawns within the budget (always at least
    /// one worker when the pool is fully dead).
    fn ensure_workers(&self) {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        if state.handles.iter().all(|h| !h.is_finished()) {
            return;
        }
        let before = state.handles.len();
        let mut live = Vec::with_capacity(before);
        for handle in state.handles.drain(..) {
            if handle.is_finished() {
                let _ = handle.join();
            } else {
                live.push(handle);
            }
        }
        let dead = before - live.len();
        let mut respawn = dead.min(state.respawns_left);
        if live.is_empty() && respawn == 0 {
            // Emergency respawn past the budget: a pool with zero workers
            // would strand every dispatched item and wedge the watermark.
            respawn = 1;
        }
        state.respawns_left = state.respawns_left.saturating_sub(respawn);
        for _ in 0..respawn {
            live.push((self.spawner)());
            self.restarts.inc();
            self.telemetry
                .record(0, None, TraceEventKind::WorkerRespawned);
            self.telemetry
                .trigger_flight(FlightTrigger::WorkerRespawned { epoch: 0 });
        }
        state.handles = live;
    }

    /// Blocks until every registered task has completed — the `sync()`
    /// barrier.  Sweeps for dead workers between bounded waits, so the
    /// barrier terminates even when a worker died with items still queued
    /// (the respawned worker picks them up).
    pub(crate) fn wait_idle(&self) {
        loop {
            if self.watermark.wait_all_for(Duration::from_millis(10)) {
                return;
            }
            self.ensure_workers();
        }
    }

    /// Blocks until fewer than `depth` epochs are in flight — the
    /// pipeline-admission gate, with the same self-healing sweep as
    /// [`WorkerPool::wait_idle`].
    pub(crate) fn wait_admission(&self, depth: usize) {
        loop {
            if self
                .watermark
                .wait_inflight_below_for(depth, Duration::from_millis(10))
            {
                return;
            }
            self.ensure_workers();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel ends every worker's recv loop; join so shard
        // and engine handles are released before the manager is torn down.
        self.tx.take();
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        for handle in state.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A worker's pre-resolved telemetry handles (the name-map lookups stay off
/// the per-item path).
struct WorkerTelemetry<'a> {
    bundle: &'a Telemetry,
    item_hist: Arc<ksir_telemetry::Histogram>,
    panics: Arc<Counter>,
    quarantines: Arc<Counter>,
    /// `snapshot.shard_snapshots`: shard refreshes served from an epoch
    /// image.
    shard_snapshots: Arc<Counter>,
}

fn worker_loop(
    rx: &Mutex<Receiver<Arc<ShardCell>>>,
    registry: &DeliveryRegistry,
    telemetry: &Telemetry,
    faults: Option<&FaultPlan>,
) {
    let wt = WorkerTelemetry {
        bundle: telemetry,
        item_hist: telemetry.registry().histogram("worker.item"),
        panics: telemetry.registry().counter("worker.panics"),
        quarantines: telemetry.registry().counter("shard.quarantined"),
        shard_snapshots: telemetry.registry().counter("snapshot.shard_snapshots"),
    };
    loop {
        // Hold the receiver lock only while pulling the next item, never
        // while refreshing, so idle workers queue on the channel rather than
        // behind a busy one.
        let shard = match rx.lock().unwrap_or_else(|p| p.into_inner()).recv() {
            Ok(shard) => shard,
            Err(_) => return, // channel closed: pool shut down
        };
        let started = std::time::Instant::now();
        let die = drain_lane(&shard, registry, faults, &wt);
        wt.item_hist.record(started.elapsed());
        if die {
            // An injected KillWorker: exit *between* items, after the lane
            // was fully drained and released, so no task is stranded.  The
            // pool detects the death and respawns at the next dispatch or
            // self-healing wait.
            return;
        }
    }
}

/// Runs one shard refresh inside the worker's fault-isolation boundary:
/// `catch_unwind` around the attempt, bounded retry with exponential
/// backoff, and quarantine + epoch shed when the budget is exhausted.
///
/// Returns `Some(outcome)` when an attempt completed, `None` when the epoch
/// was shed.  Two invariants hold on every path:
///
/// * **No partial delta is ever published.**  The attempt's updates only
///   leave this function on a completed attempt; a panic mid-walk unwinds
///   past them.
/// * **The watermark still advances.**  Completion is the caller's
///   [`EpochTask`] guard, which drops whether the attempt completed,
///   retried, or shed — a panicking shard can stall nothing but itself.
///
/// Injected [`FaultKind::PanicInRefresh`](crate::FaultKind::PanicInRefresh)
/// faults fire at the attempt's *entry*, before any shard state is touched,
/// so a recovering injected fault leaves decisions (and all counters)
/// bit-identical to a clean run — the chaos oracles' pass criterion.  A
/// *real* panic from inside the refresh walk does the same: the walk only
/// stages its decisions, and the shard commits results, member stats and
/// totals together once the walk returns, so a panicked attempt leaves the
/// shard as it found it and the retry decides, delivers and charges
/// exactly what a clean attempt would.
fn refresh_resilient<T>(
    cell: &ShardCell,
    epoch: u64,
    faults: Option<&FaultPlan>,
    wt: &WorkerTelemetry<'_>,
    attempt: impl Fn(&mut Shard) -> T,
) -> Option<T> {
    let key = cell.shard().key();
    let label = label_of(key);
    let mut failures = 0;
    loop {
        let fire = faults.is_some_and(|plan| plan.take_refresh_panic(epoch, key));
        if fire {
            wt.bundle.trigger_flight(FlightTrigger::FaultInjected {
                epoch,
                kind: "panic_in_refresh",
            });
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut shard = cell.shard();
            if fire {
                panic!("injected refresh fault at epoch {epoch} on {key}");
            }
            attempt(&mut shard)
        }));
        match outcome {
            Ok(done) => return Some(done),
            Err(_) => {
                wt.panics.inc();
                wt.bundle
                    .record(epoch, Some(label), TraceEventKind::WorkerPanicked);
                failures += 1;
                if failures > REFRESH_RETRY_BUDGET {
                    let mut shard = cell.shard();
                    // `quarantine` moves the live `shard.quarantine_active`
                    // gauge `/ready` checks; the cumulative counter counts
                    // every exhausted budget and never goes back down.
                    let residents = shard.quarantine() as u64;
                    wt.quarantines.inc();
                    wt.bundle.record(
                        epoch,
                        Some(label),
                        TraceEventKind::ShardQuarantined { residents },
                    );
                    wt.bundle.trigger_flight(FlightTrigger::ShardQuarantined {
                        epoch,
                        shard: label,
                    });
                    // Shed the epoch: every resident is charged one skip
                    // (through the same `skip_all` bookkeeping as an
                    // unscheduled shard), so `refreshes + skips` and the timeline keep
                    // reconciling and the watermark advances.
                    let shed = shard.skip_all(epoch) as u64;
                    wt.bundle.record(
                        epoch,
                        Some(label),
                        TraceEventKind::EpochShed { residents: shed },
                    );
                    return None;
                }
                std::thread::sleep(Duration::from_micros(100u64 << failures));
            }
        }
    }
}

/// Processes a shard's pending epochs in order until its lane is empty.
/// Returns `true` when a task consumed a `KillWorker` fault and the calling
/// worker must exit (after this function has fully released the lane).
///
/// The worker owns the shard for the whole drain (the lane's `busy` flag),
/// so results stored by epoch `e` are always visible to epoch `e+1`'s
/// scheduling decision — per-shard decisions are exactly those of a barrier
/// after every slide.
/// The ingest thread only ever touches the (cheap) lane lock of a busy
/// shard, never its shard lock, so a long refresh here cannot stall
/// ingestion.
fn drain_lane(
    cell: &ShardCell,
    registry: &DeliveryRegistry,
    faults: Option<&FaultPlan>,
    wt: &WorkerTelemetry<'_>,
) -> bool {
    let mut die = false;
    // Pop-or-release must be atomic under the lane lock: otherwise the
    // ingest thread could observe `busy` in the instant before release and
    // strand a task in the queue.
    let mut next = cell.pop_pending_or_release();
    while let Some(task) = next {
        // `task` owns the epoch's watermark registration (its `EpochTask`
        // drop-guard): completion happens when it drops at the end of this
        // iteration, on every path through the body.
        if let Some(plan) = faults {
            if plan.take_worker_kill(task.epoch, cell.shard().key()) {
                wt.bundle.trigger_flight(FlightTrigger::FaultInjected {
                    epoch: task.epoch,
                    kind: "kill_worker",
                });
                die = true;
            }
        }
        let slide = refresh_resilient(cell, task.epoch, faults, wt, |shard| {
            if shard.is_touched_by(&task.delta) {
                wt.shard_snapshots.inc();
                Some(shard.refresh_scheduled(task.snapshot.as_ref(), &task.delta, task.epoch))
            } else {
                shard.skip_all(task.epoch);
                None
            }
        });
        if let Some(Some(slide)) = slide {
            deliver(registry, task.epoch, &slide.updates, faults, wt.bundle);
            if let Some(collector) = &task.collector {
                collector
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .push(slide);
            }
        }
        // Take the next epoch — or release the lane — *before* `task`
        // completes this one: a `sync()` that returns on the watermark then
        // finds the lane idle, so `ingest_bucket` never defers a shard.
        next = cell.pop_pending_or_release();
    }
    die
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watermark_tracks_epoch_completion_out_of_order() {
        let wm = Watermark::default();
        assert_eq!(wm.completed_through(), 0);
        wm.add(1, 2);
        wm.add(2, 1);
        assert_eq!(wm.inflight_epochs(), 2);
        assert_eq!(wm.completed_through(), 0);
        // Epoch 2 finishes first: the watermark must not jump past epoch 1.
        wm.complete_one(2);
        assert_eq!(wm.completed_through(), 0);
        assert_eq!(wm.inflight_epochs(), 1);
        wm.complete_one(1);
        assert_eq!(wm.completed_through(), 0, "one epoch-1 task remains");
        wm.complete_one(1);
        assert_eq!(wm.completed_through(), 2);
        assert_eq!(wm.inflight_epochs(), 0);
        // An all-inline epoch advances the watermark without tasks.
        wm.note_epoch(3);
        assert_eq!(wm.completed_through(), 3);
        // No outstanding work: both waits hold without waiting.
        assert!(wm.wait_all_for(Duration::ZERO));
        assert!(wm.wait_inflight_below_for(1, Duration::ZERO));
    }

    #[test]
    fn admission_gate_blocks_until_an_epoch_drains() {
        let wm = Arc::new(Watermark::default());
        wm.add(1, 1);
        wm.add(2, 1);
        // Depth 2 is full: admission for epoch 3 must wait for a drain.
        let waiter = {
            let wm = Arc::clone(&wm);
            std::thread::spawn(move || {
                while !wm.wait_inflight_below_for(2, Duration::from_millis(10)) {}
                wm.inflight_epochs()
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        wm.complete_one(1);
        assert!(waiter.join().unwrap() < 2);
    }

    /// Regression (epoch drop-guard): an [`EpochTask`] completes its
    /// watermark registration *however* it leaves the pipeline — including
    /// being dropped on the floor (dying worker, shed lane, panic during
    /// `PendingEpoch` construction).  Without the guard, a dropped task
    /// leaves the epoch permanently in flight and the admission gate and the
    /// `sync()` barrier wedge forever.
    #[test]
    fn dropped_epoch_task_completes_its_registration() {
        let wm = Arc::new(Watermark::new());
        wm.note_epoch(1);
        let task = EpochTask::register(&wm, 1);
        assert_eq!(wm.inflight_epochs(), 1);
        drop(task);
        assert_eq!(wm.inflight_epochs(), 0);
        assert_eq!(wm.completed_through(), 1);
        assert!(wm.wait_all_for(Duration::ZERO));
        assert!(wm.wait_inflight_below_for(1, Duration::ZERO));

        // A panic mid-construction (snapshot capture, delta clone) unwinds
        // through the already-registered task and still completes it.
        wm.note_epoch(2);
        let wm2 = Arc::clone(&wm);
        let result = std::panic::catch_unwind(move || {
            let _task = EpochTask::register(&wm2, 2);
            panic!("injected: construction fails after registration");
        });
        assert!(result.is_err());
        assert_eq!(wm.inflight_epochs(), 0);
        assert_eq!(wm.completed_through(), 2);
    }
}
