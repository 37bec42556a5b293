//! Hostile-stream chaos harness for the continuous k-SIR pipeline.
//!
//! Every hostile regime here is checked against an **equivalence oracle**:
//! the same logical stream and the same subscription-op schedule are replayed
//! through [`SubscriptionManager::ingest_bucket`] — the pipeline with a
//! barrier after every slide, so no two epochs ever overlap (the oracle) —
//! through the pipelined async path, and through the async path under an
//! injected [`FaultPlan`].  Every run, the oracle included, ends in
//! from-scratch queries over the final window.  Once the fault window
//! closes every run must have made **bit-identical decisions**: the same
//! maintained results (each also equal to its from-scratch query),
//! the same refresh/skip counts, the same work ledger in the metrics
//! registry (live and retired shards alike), a watermark that reached the
//! last slide, and `delivered + dropped` reconciling exactly with the
//! oracle's result changes.
//!
//! The hostile regimes ([`HostileMode`]) grow one clean workload — a
//! Twitter-shaped stream under a panel of narrow standing queries — into the
//! failure lanes the resilience layer exists for:
//!
//! - [`HostileMode::FlashCrowd`] — a Zipf-amplified retweet storm lands in
//!   one bucket (head elements duplicated under fresh ids), replayed once
//!   more through a fully serialised pipeline (a `sync()` before every
//!   ingest, so every slide waits out the burst's refreshes) against the
//!   same oracle.
//! - [`HostileMode::Churn`] — subscriptions arrive and leave mid-stream;
//!   shards must retire (`shard.retired`), their work must stay in the
//!   registry's work ledger, and every delta produced while a queue was
//!   attached must be accounted delivered-or-dropped.
//! - [`HostileMode::PermutedArrival`] — buckets arrive permuted within a
//!   bounded lag and are re-sequenced by the reorder buffer
//!   ([`SubscriptionManager::ingest_bucket_reordered`]); decisions must be
//!   bit-identical to in-order replay with nothing shed.
//! - [`HostileMode::Reconfigure`] — standing queries change `k` mid-stream
//!   (unsubscribe + resubscribe at a slide boundary).
//! - [`HostileMode::MidWalk`] — every standing query also runs under the
//!   other algorithm, so each shard holds two plan clusters, and the
//!   injected refresh panic fires before the *second* cluster query of a
//!   walk: halfway, after the first cluster's decisions were staged.
//!
//! The fault-injected run installs a recovering [`FaultPlan`] on the same
//! replay: a refresh panic before a walk's cluster query, a delayed
//! snapshot capture, a poisoned delivery send, and a worker kill — all of
//! which the pipeline must absorb without publishing a partial delta or
//! stalling the watermark.  Every fault names its target — shard, or
//! subscription for the poisoned send — picked by the seed from what the
//! oracle's own walk did, so a seed fires the same faults on every run.
//! `cargo run -p ksir-chaos --bin chaos_harness` sweeps every mode under
//! three fixed seeds and exits non-zero on any violation.

#![warn(missing_docs)]

mod fault;
mod workload;

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};

pub use fault::{Fault, FaultKind, FaultPlan, Fired};
use ksir_continuous::{
    DeliveryConfig, DeliveryReceiver, PipelineHooks, ShardConfig, ShardKey, SubscriptionId,
    SubscriptionManager,
};
use ksir_core::{Algorithm, KsirQuery};
use ksir_types::{
    DenseTopicWordTable, ElementId, QueryVector, SocialElement, Timestamp, TopicVector,
};

use workload::Workload;

type Stream = Vec<(SocialElement, TopicVector)>;
type Manager = SubscriptionManager<DenseTopicWordTable>;

/// A hostile stream regime, each with its own equivalence oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostileMode {
    /// A Zipf-amplified burst lands in one bucket (plus a serialised replay).
    FlashCrowd,
    /// Subscriptions churn in and out mid-stream, retiring shards.
    Churn,
    /// Buckets arrive permuted within a bounded lag (reorder buffer lane).
    PermutedArrival,
    /// Standing queries change `k` mid-stream.
    Reconfigure,
    /// Two plan clusters per shard; the refresh panic fires mid-walk.
    MidWalk,
}

impl HostileMode {
    /// All modes, in the order the harness sweeps them.
    pub const ALL: [HostileMode; 5] = [
        HostileMode::FlashCrowd,
        HostileMode::Churn,
        HostileMode::PermutedArrival,
        HostileMode::Reconfigure,
        HostileMode::MidWalk,
    ];

    /// Stable name used in harness output.
    pub fn name(self) -> &'static str {
        match self {
            HostileMode::FlashCrowd => "flash_crowd",
            HostileMode::Churn => "churn",
            HostileMode::PermutedArrival => "permuted_arrival",
            HostileMode::Reconfigure => "reconfigure",
            HostileMode::MidWalk => "mid_walk",
        }
    }
}

/// Which size of the clean workload the chaos run replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosScale {
    /// A ~600-element stream and 8 standing queries — unit-test sized.
    Smoke,
    /// A ~10k-element stream and 16 standing queries — the full workload.
    Standard,
}

/// Summary of one passed chaos run (a failed run returns `Err` instead).
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// [`HostileMode::name`] of the regime exercised.
    pub mode: &'static str,
    /// The seed that shaped the schedule, permutation, and fault plan.
    pub seed: u64,
    /// Slides every run ingested.
    pub slides: usize,
    /// Subscription slots the schedule touched (live or churned out).
    pub subscriptions: usize,
    /// Result changes the sync oracle produced — the delivery ledger every
    /// async run must reconcile against.
    pub oracle_updates: usize,
    /// Deltas drained from the fault-injected run's queues.
    pub delivered: u64,
    /// Deltas that run shed (overflow plus the poisoned send).
    pub dropped: u64,
    /// Faults the plan actually fired (must equal the schedule).
    pub faults_injected: u64,
    /// The faults that fired, sorted: the same for a seed on every run.
    pub fired: Vec<Fired>,
    /// Flight records the faulted run captured with a `fault_injected`
    /// trigger — the per-fault postmortem oracle pins this to the schedule.
    pub fault_flight_records: u64,
    /// The faulted run's full flight-recorder dump (the harness writes this
    /// to disk as a CI artifact).
    pub flight_json: String,
    /// Individual oracle checks that held.
    pub checks: usize,
}

/// One subscription-op applied at a slide boundary, identically in every run.
enum Op {
    /// Register a new standing query (new slot).
    Subscribe(KsirQuery, Algorithm),
    /// Remove the slot's subscription (after quiescing, in async runs).
    Unsubscribe(usize),
    /// Re-register the slot's query with a different `k`.
    Resubscribe { slot: usize, k: usize },
}

/// The deterministic replay script shared by the oracle and hostile runs.
struct Script {
    scenario: Workload,
    buckets: Vec<(Stream, Timestamp)>,
    initial: Vec<(KsirQuery, Algorithm)>,
    ops: Vec<(usize, Op)>,
    /// Reorder horizon for permuted runs (0 = in-order modes).
    horizon: usize,
    /// Bucket arrival order for permuted runs.
    order: Vec<usize>,
}

/// Live subscription slots; indices are stable across runs so results can be
/// compared slot-by-slot.
struct Slots {
    entries: Vec<Option<(SubscriptionId, KsirQuery, Algorithm)>>,
}

/// The registry counters that make up a run's work ledger: every shard's
/// scheduling and refresh decisions and how the shared-plan layer served
/// them, summed over live and retired shards.
const WORK_LEDGER: [&str; 7] = [
    "shard.refreshes",
    "shard.skips",
    "shard.scheduled_slides",
    "shard.skipped_slides",
    "refresh.cluster.covering",
    "refresh.cluster.shared",
    "refresh.cluster.skipped",
];

/// Everything one replay produced that the oracle comparison consumes.
struct RunOutcome {
    /// `(slot, sorted result)` for every slot still live at the end.
    results: Vec<(usize, Vec<ElementId>)>,
    slides: usize,
    refreshes: usize,
    skips: usize,
    /// [`WORK_LEDGER`]'s counters, in order.
    work: [u64; WORK_LEDGER.len()],
    /// Shards retired by `unsubscribe` (`shard.retired`).
    retired_shards: u64,
    /// Σ `SlideOutcome::updates` — only meaningful for the sync oracle.
    total_updates: usize,
    delivered: u64,
    dropped: u64,
    completed: u64,
    reordered: usize,
    late_dropped: usize,
    panics: u64,
    restarts: u64,
    quarantined: usize,
    /// `delivery.e2e` samples — one per accepted delta, so this must equal
    /// `delivered` whenever nothing overflowed after acceptance.
    e2e_count: u64,
    /// `delivery.e2e.dropped` samples — one per shed delta with a live
    /// ingest stamp.
    e2e_dropped_count: u64,
    /// Flight records whose trigger is `fault_injected`.
    fault_flight_records: u64,
    /// The run's whole flight-recorder ring as JSON.
    flight_json: String,
    /// Scratch-equivalence checks that held while finishing the run.
    scratch_checks: usize,
    /// `refreshes + skips` of every slot still live at the end.
    ledgers: Vec<usize>,
}

/// Where the oracle's pipeline can be hit, slide by slide.  The fault plan
/// picks its targets from this, so they follow from the script alone.
#[derive(Debug, Default)]
struct Seams {
    /// `(epoch, shard) → cluster queries that shard's walk issued`.
    queries: Mutex<BTreeMap<(u64, ShardKey), usize>>,
    /// `epoch → subscriptions whose result changed`.
    changed: BTreeMap<u64, Vec<SubscriptionId>>,
}

impl PipelineHooks for Seams {
    fn before_cluster_query(&self, epoch: u64, shard: ShardKey, query: usize) {
        let mut queries = self.queries.lock().unwrap_or_else(|p| p.into_inner());
        let seen = queries.entry((epoch, shard)).or_default();
        *seen = (*seen).max(query);
    }
}

fn delivery_config() -> DeliveryConfig {
    // Large enough that only a poisoned send ever drops; a full queue
    // sheds its oldest delta, so an overflowing run never blocks anyway.
    DeliveryConfig::default().with_capacity(4096)
}

/// A permutation of `0..n` in which index `i` lands at most `horizon`
/// positions from home (sort by `i + u(0..=horizon)`, index as tiebreaker).
fn bounded_permutation(n: usize, horizon: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut keyed: Vec<(usize, usize)> = (0..n)
        .map(|i| (i + rng.gen_range(0..=horizon), i))
        .collect();
    keyed.sort();
    keyed.into_iter().map(|(_, i)| i).collect()
}

/// Amplifies one mid-stream bucket into a flash crowd: its head elements are
/// duplicated under fresh ids with Zipf-ish multiplicity (a retweet storm —
/// same topics, same instant, new posts).
fn inject_flash_crowd(buckets: &mut [(Stream, Timestamp)], seed: u64) {
    let start = buckets.len() / 3;
    let Some(spike) = (start..buckets.len()).find(|i| !buckets[*i].0.is_empty()) else {
        return;
    };
    let max_id = buckets
        .iter()
        .flat_map(|(bucket, _)| bucket.iter())
        .map(|(element, _)| element.id.0)
        .max()
        .unwrap_or(0);
    let mut next_id = max_id + 1 + seed % 7;
    let originals = std::mem::take(&mut buckets[spike].0);
    let mut amplified = Vec::with_capacity(originals.len() * 3);
    for (rank, (element, topics)) in originals.into_iter().enumerate() {
        let copies = 6 / (rank + 1);
        amplified.push((element.clone(), topics.clone()));
        for _ in 0..copies {
            amplified.push((
                SocialElement::original(ElementId(next_id), element.ts, element.doc.clone()),
                topics.clone(),
            ));
            next_id += 1;
        }
    }
    buckets[spike].0 = amplified;
}

/// The churn schedule: a fresh narrow query subscribes every third slide and
/// a (preferentially churned-in) victim unsubscribes every fourth, so shards
/// empty out and retire while the stream is still flowing.
fn churn_ops(n: usize, initial: usize, num_topics: usize, seed: u64) -> Vec<(usize, Op)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6368_7572_6e21);
    let mut live: Vec<usize> = (0..initial).collect();
    let mut next_slot = initial;
    let mut ops = Vec::new();
    for slide in 2..n {
        if slide % 3 == 0 {
            let mut weights = vec![0.0; num_topics];
            weights[(5 * next_slot) % num_topics] = 0.6;
            weights[(5 * next_slot + 2) % num_topics] = 0.4;
            let query = KsirQuery::new(4, QueryVector::new(weights).unwrap()).unwrap();
            let algorithm = if next_slot.is_multiple_of(2) {
                Algorithm::Mtts
            } else {
                Algorithm::Mttd
            };
            ops.push((slide, Op::Subscribe(query, algorithm)));
            live.push(next_slot);
            next_slot += 1;
        }
        if slide % 4 == 0 && live.len() > 2 {
            let churned: Vec<usize> = live.iter().copied().filter(|s| *s >= initial).collect();
            let victim = if !churned.is_empty() && rng.gen_range(0..4) != 0 {
                churned[rng.gen_range(0..churned.len())]
            } else {
                live[rng.gen_range(0..live.len())]
            };
            live.retain(|slot| *slot != victim);
            ops.push((slide, Op::Unsubscribe(victim)));
        }
    }
    ops
}

fn build_script(mode: HostileMode, seed: u64, scale: ChaosScale) -> Result<Script, String> {
    let scenario = match scale {
        ChaosScale::Smoke => Workload::smoke(),
        ChaosScale::Standard => Workload::standard(),
    };
    let engine = scenario.engine();
    let bucket_len = engine.config().window.bucket_len();
    let now = engine.now();
    drop(engine);
    let pairs: Stream = scenario.stream.iter_pairs().collect();
    let mut buckets: Vec<(Stream, Timestamp)> = Vec::new();
    ksir_core::stream::for_each_bucket(bucket_len, now, pairs, |bucket, end| {
        buckets.push((bucket, end));
        Ok(())
    })
    .map_err(|e| format!("bucketing the scenario stream failed: {e:?}"))?;
    let n = buckets.len();
    if n < 8 {
        return Err(format!("scenario too short for chaos ({n} slides < 8)"));
    }

    let mut initial = scenario.queries.clone();
    if mode == HostileMode::MidWalk {
        // The same query under the other algorithm is another plan cluster
        // in the same shard.
        let twins: Vec<_> = initial
            .iter()
            .map(|(query, algorithm)| {
                let other = if *algorithm == Algorithm::Mtts {
                    Algorithm::Mttd
                } else {
                    Algorithm::Mtts
                };
                (query.clone(), other)
            })
            .collect();
        initial.extend(twins);
    }
    let num_topics = scenario.stream.planted.num_topics();
    let mut ops = Vec::new();
    let mut horizon = 0;
    let mut order: Vec<usize> = (0..n).collect();
    match mode {
        HostileMode::FlashCrowd => inject_flash_crowd(&mut buckets, seed),
        HostileMode::Churn => ops = churn_ops(n, initial.len(), num_topics, seed),
        HostileMode::PermutedArrival => {
            horizon = 2 + (seed % 3) as usize;
            let mut rng = StdRng::seed_from_u64(seed ^ 0x7065_726d);
            order = bounded_permutation(n, horizon, &mut rng);
            if order.iter().enumerate().all(|(position, i)| position == *i) {
                order.swap(0, 1);
            }
        }
        HostileMode::Reconfigure => {
            let k0 = initial[0].0.k();
            let k1 = initial[1].0.k();
            ops = vec![
                (n / 3, Op::Resubscribe { slot: 0, k: k0 + 3 }),
                (
                    n / 2,
                    Op::Resubscribe {
                        slot: 1,
                        k: k1.saturating_sub(6).max(2),
                    },
                ),
            ];
        }
        HostileMode::MidWalk => {}
    }
    Ok(Script {
        scenario,
        buckets,
        initial,
        ops,
        horizon,
        order,
    })
}

/// The recovering fault schedule: every fault is absorbed (retried,
/// respawned, or shed-with-accounting) without changing a single decision.
///
/// The seed moves the first fault's epoch (from `2 + seed % 7`) and picks
/// each target among those the oracle's walk offers there: a panic before
/// cluster query `query` of a shard whose walk issued that many, a delayed
/// snapshot, a poisoned send to a subscription whose result changed, and a
/// worker kill after a shard's item.  Each fault takes the first slide at or
/// after its own epoch that offers a target.
fn fault_plan(seed: u64, seams: &Seams, query: usize) -> Result<Vec<Fault>, String> {
    let queries = seams.queries.lock().unwrap_or_else(|p| p.into_inner());
    // The first slide at or after `from` whose walks issued at least
    // `query` cluster queries, and one of those shards.
    let shard_at = |from: u64, query: usize| {
        let hits: Vec<(u64, ShardKey)> = queries
            .iter()
            .filter(|(&(epoch, _), &n)| epoch >= from && n >= query)
            .map(|(&at, _)| at)
            .collect();
        let epoch = hits
            .first()
            .ok_or(format!(
                "no walk at or after slide {from} issues {query} cluster queries"
            ))?
            .0;
        let shards: Vec<ShardKey> = hits
            .iter()
            .filter(|(e, _)| *e == epoch)
            .map(|(_, shard)| *shard)
            .collect();
        Ok::<_, String>((epoch, shards[seed as usize % shards.len()]))
    };
    let (panic_at, panicked) = shard_at(2 + seed % 7, query)?;
    let (poison_at, poisoned) = seams
        .changed
        .range(panic_at + 1..)
        .next()
        .map(|(epoch, subs)| (*epoch, subs[seed as usize % subs.len()]))
        .ok_or(format!("no result changes after slide {panic_at}"))?;
    // A snapshot is captured only at a slide some shard refreshes.
    let (delay_at, _) = shard_at(panic_at + 1, 1)?;
    let (kill_at, killed) = shard_at(panic_at + 2, 1)?;
    Ok(vec![
        Fault::once(panic_at, Some(panicked), FaultKind::PanicBeforeQuery(query)),
        Fault::once(delay_at, None, FaultKind::DelaySnapshot(2)),
        Fault::once(poison_at, None, FaultKind::PoisonDelivery(poisoned)),
        Fault::once(kill_at, Some(killed), FaultKind::KillWorker),
    ])
}

fn subscribe_initial(
    mgr: &mut Manager,
    initial: &[(KsirQuery, Algorithm)],
    mut receivers: Option<&mut Vec<DeliveryReceiver>>,
) -> Result<Slots, String> {
    let mut entries = Vec::new();
    for (query, algorithm) in initial {
        let id = mgr
            .subscribe(query.clone(), *algorithm)
            .map_err(|e| format!("subscribe failed: {e:?}"))?;
        if let Some(receivers) = receivers.as_deref_mut() {
            let rx = mgr
                .attach_delivery(id, delivery_config())
                .ok_or("attach_delivery on a fresh subscription returned None")?;
            receivers.push(rx);
        }
        entries.push(Some((id, query.clone(), *algorithm)));
    }
    Ok(Slots { entries })
}

/// Applies every op scheduled before slide `slide`.  Async runs (those that
/// pass `receivers`) quiesce before removing a subscription so every
/// in-flight delta lands in its queue before the queue closes — that is
/// what keeps `delivered + dropped` reconciling under churn.
fn apply_ops(
    mgr: &mut Manager,
    slots: &mut Slots,
    ops: &[(usize, Op)],
    slide: usize,
    mut receivers: Option<&mut Vec<DeliveryReceiver>>,
) -> Result<(), String> {
    for (_, op) in ops.iter().filter(|(at, _)| *at == slide) {
        match op {
            Op::Subscribe(query, algorithm) => {
                let id = mgr
                    .subscribe(query.clone(), *algorithm)
                    .map_err(|e| format!("mid-stream subscribe failed: {e:?}"))?;
                if let Some(receivers) = receivers.as_deref_mut() {
                    let rx = mgr
                        .attach_delivery(id, delivery_config())
                        .ok_or("attach_delivery on a churned-in subscription returned None")?;
                    receivers.push(rx);
                }
                slots.entries.push(Some((id, query.clone(), *algorithm)));
            }
            Op::Unsubscribe(slot) => {
                let (id, _, _) = slots.entries[*slot]
                    .take()
                    .ok_or_else(|| format!("op schedule unsubscribed dead slot {slot}"))?;
                if receivers.is_some() {
                    mgr.sync();
                }
                if !mgr.unsubscribe(id) {
                    return Err(format!("unsubscribe of slot {slot} found no subscription"));
                }
            }
            Op::Resubscribe { slot, k } => {
                let (id, query, algorithm) = slots.entries[*slot]
                    .take()
                    .ok_or_else(|| format!("op schedule reconfigured dead slot {slot}"))?;
                if receivers.is_some() {
                    mgr.sync();
                }
                mgr.unsubscribe(id);
                let query = KsirQuery::new(*k, query.vector().clone())
                    .map_err(|e| format!("reconfigured query invalid: {e:?}"))?;
                let id = mgr
                    .subscribe(query.clone(), algorithm)
                    .map_err(|e| format!("resubscribe failed: {e:?}"))?;
                if let Some(receivers) = receivers.as_deref_mut() {
                    let rx = mgr
                        .attach_delivery(id, delivery_config())
                        .ok_or("attach_delivery after reconfigure returned None")?;
                    receivers.push(rx);
                }
                slots.entries[*slot] = Some((id, query, algorithm));
            }
        }
    }
    Ok(())
}

/// Final per-slot results plus scratch equivalence: every maintained result
/// must equal a from-scratch query over the manager's final window.
fn finish(
    mgr: &Manager,
    slots: &Slots,
    total_updates: usize,
    receivers: &[DeliveryReceiver],
) -> Result<RunOutcome, String> {
    let mut results = Vec::new();
    let mut scratch_checks = 0;
    for (slot, entry) in slots.entries.iter().enumerate() {
        let Some((id, query, algorithm)) = entry else {
            continue;
        };
        let maintained = mgr
            .result(*id)
            .ok_or_else(|| format!("slot {slot}: live subscription has no result"))?
            .sorted_elements();
        let fresh = mgr
            .engine()
            .query(query, *algorithm)
            .map_err(|e| format!("scratch query failed: {e:?}"))?
            .sorted_elements();
        if maintained != fresh {
            return Err(format!(
                "slot {slot}: maintained result diverges from a from-scratch query"
            ));
        }
        scratch_checks += 1;
        results.push((slot, maintained));
    }
    let stats = mgr.stats();
    let registry = mgr.telemetry().registry();
    let flight = mgr.telemetry().flight();
    let fault_flight_records = flight
        .records()
        .iter()
        .filter(|record| record.trigger.name() == "fault_injected")
        .count() as u64;
    Ok(RunOutcome {
        results,
        slides: stats.slides,
        refreshes: stats.refreshes,
        skips: stats.skips,
        work: WORK_LEDGER.map(|name| registry.counter(name).get()),
        retired_shards: registry.counter("shard.retired").get(),
        total_updates,
        delivered: receivers.iter().map(|rx| rx.drain().len() as u64).sum(),
        dropped: receivers.iter().map(|rx| rx.dropped()).sum(),
        completed: mgr.completed_epoch(),
        reordered: stats.reordered,
        late_dropped: stats.late_dropped,
        panics: registry.counter("worker.panics").get(),
        restarts: registry.counter("worker.restarts").get(),
        quarantined: mgr.quarantined_shards(),
        e2e_count: registry.histogram("delivery.e2e").count(),
        e2e_dropped_count: registry.histogram("delivery.e2e.dropped").count(),
        fault_flight_records,
        flight_json: flight.to_json(),
        scratch_checks,
        ledgers: slots
            .entries
            .iter()
            .flatten()
            .filter_map(|(id, _, _)| mgr.subscription_stats(*id))
            .map(|stats| stats.refreshes + stats.skips)
            .collect(),
    })
}

/// The oracle: a barrier after every slide (no overlapping epochs), no
/// faults, and from-scratch queries over the final window in [`finish`].
/// Its hooks only log the [`Seams`] the fault plan may target.
fn run_sync(script: &Script) -> Result<(RunOutcome, Seams), String> {
    let mut mgr =
        SubscriptionManager::with_shard_config(script.scenario.engine(), ShardConfig::default());
    let seams = Arc::new(Seams::default());
    mgr.set_hooks(seams.clone());
    let mut slots = subscribe_initial(&mut mgr, &script.initial, None)?;
    let mut total_updates = 0;
    let mut changed = BTreeMap::new();
    for (i, (bucket, end)) in script.buckets.iter().enumerate() {
        apply_ops(&mut mgr, &mut slots, &script.ops, i, None)?;
        let outcome = mgr
            .ingest_bucket(bucket.clone(), *end)
            .map_err(|e| format!("oracle ingest failed at slide {i}: {e:?}"))?;
        total_updates += outcome.updates.len();
        if !outcome.updates.is_empty() {
            let subs = outcome.updates.iter().map(|u| u.subscription).collect();
            changed.insert(i as u64 + 1, subs);
        }
    }
    mgr.sync();
    let outcome = finish(&mgr, &slots, total_updates, &[])?;
    let queries = std::mem::take(&mut *seams.queries.lock().unwrap_or_else(|p| p.into_inner()));
    let queries = Mutex::new(queries);
    Ok((outcome, Seams { queries, changed }))
}

/// One pipelined replay under `config` — optionally through the reorder
/// buffer in the script's permuted arrival order, optionally under a
/// [`FaultPlan`], optionally `serialised` by a barrier before every ingest.
fn run_async(
    script: &Script,
    mut config: ShardConfig,
    permuted: bool,
    faults: Option<&Arc<FaultPlan>>,
    serialised: bool,
) -> Result<RunOutcome, String> {
    if permuted {
        config = config.with_reorder_horizon(script.horizon);
    }
    let mut mgr = SubscriptionManager::with_shard_config(script.scenario.engine(), config);
    if let Some(plan) = faults {
        plan.install(&mut mgr);
    }
    let mut receivers: Vec<DeliveryReceiver> = Vec::new();
    let mut slots = subscribe_initial(&mut mgr, &script.initial, Some(&mut receivers))?;
    let in_order: Vec<usize> = (0..script.buckets.len()).collect();
    let order = if permuted { &script.order } else { &in_order };
    for &i in order {
        if !permuted {
            apply_ops(&mut mgr, &mut slots, &script.ops, i, Some(&mut receivers))?;
        }
        let (bucket, end) = script.buckets[i].clone();
        if permuted {
            for ticket in mgr
                .ingest_bucket_reordered(bucket, end)
                .map_err(|e| format!("reordered ingest failed at bucket {i}: {e:?}"))?
            {
                ticket.detach();
            }
        } else {
            if serialised {
                mgr.sync();
            }
            mgr.ingest_bucket_async(bucket, end)
                .map_err(|e| format!("async ingest failed at slide {i}: {e:?}"))?
                .detach();
        }
    }
    if permuted {
        for ticket in mgr
            .flush_reorder_buffer()
            .map_err(|e| format!("reorder flush failed: {e:?}"))?
        {
            ticket.detach();
        }
    }
    mgr.sync();
    finish(&mgr, &slots, 0, &receivers)
}

/// Checks one async run against the oracle; returns how many checks held.
fn compare(oracle: &RunOutcome, run: &RunOutcome, label: &str) -> Result<usize, String> {
    if run.results != oracle.results {
        return Err(format!(
            "{label}: final results diverge from the sync oracle"
        ));
    }
    if (run.slides, run.refreshes, run.skips) != (oracle.slides, oracle.refreshes, oracle.skips) {
        return Err(format!(
            "{label}: refresh/skip decisions diverge ({}/{}/{} vs oracle {}/{}/{})",
            run.slides, run.refreshes, run.skips, oracle.slides, oracle.refreshes, oracle.skips
        ));
    }
    if run.work != oracle.work {
        return Err(format!(
            "{label}: work ledger {WORK_LEDGER:?} diverges ({:?} vs oracle {:?})",
            run.work, oracle.work
        ));
    }
    if run.completed != run.slides as u64 {
        return Err(format!(
            "{label}: watermark stalled at {}/{}",
            run.completed, run.slides
        ));
    }
    if run.delivered + run.dropped != oracle.total_updates as u64 {
        return Err(format!(
            "{label}: delivered ({}) + dropped ({}) != oracle result changes ({})",
            run.delivered, run.dropped, oracle.total_updates
        ));
    }
    // E2E freshness oracle: `delivery.e2e` observes exactly one sample at
    // acceptance, slide-for-slide, so its count must equal what the
    // consumers drained (ample capacity: nothing accepted is later shed),
    // and the per-outcome twin must equal the shed tally.
    if run.e2e_count != run.delivered {
        return Err(format!(
            "{label}: delivery.e2e observed {} samples but {} deltas were delivered",
            run.e2e_count, run.delivered
        ));
    }
    if run.e2e_dropped_count != run.dropped {
        return Err(format!(
            "{label}: delivery.e2e.dropped observed {} samples but {} deltas were shed",
            run.e2e_dropped_count, run.dropped
        ));
    }
    Ok(7 + run.scratch_checks)
}

/// Checks the fault plan fully fired and was fully absorbed.
fn fault_checks(plan: &FaultPlan, scheduled: &[Fault], run: &RunOutcome) -> Result<usize, String> {
    let fired = plan.fired();
    if fired.len() != scheduled.len() || plan.remaining() != 0 {
        return Err(format!(
            "the fault plan fired {fired:?} of its schedule {scheduled:?}"
        ));
    }
    if run.panics != 1 {
        return Err(format!(
            "expected exactly 1 worker panic, saw {}",
            run.panics
        ));
    }
    if run.restarts == 0 {
        return Err("KillWorker fired but no worker respawned".into());
    }
    if run.quarantined != 0 {
        return Err(format!(
            "recovering faults must not quarantine, yet {} shards are quarantined",
            run.quarantined
        ));
    }
    // Per-fault postmortem oracle: every fault that fired left exactly one
    // `fault_injected` flight record behind.
    if run.fault_flight_records != fired.len() as u64 {
        return Err(format!(
            "{} faults fired but the flight recorder holds {} fault_injected record(s)",
            fired.len(),
            run.fault_flight_records
        ));
    }
    Ok(6)
}

/// Runs one hostile regime end to end: sync oracle, clean async replay,
/// (for [`HostileMode::PermutedArrival`]) a permuted replay, a
/// fault-injected replay, and (for [`HostileMode::FlashCrowd`]) a
/// serialised replay with a barrier before every ingest — every one checked
/// against the oracle.
pub fn run_chaos(mode: HostileMode, seed: u64, scale: ChaosScale) -> Result<ChaosReport, String> {
    let script = build_script(mode, seed, scale)?;
    let (oracle, seams) = run_sync(&script)?;
    let mut checks = oracle.scratch_checks;

    let clean = run_async(&script, ShardConfig::default(), false, None, false)?;
    checks += compare(&oracle, &clean, "async-clean")?;

    if mode == HostileMode::PermutedArrival {
        let permuted = run_async(&script, ShardConfig::default(), true, None, false)?;
        checks += compare(&oracle, &permuted, "permuted")?;
        if permuted.reordered == 0 {
            return Err("permuted arrival never exercised the reorder buffer".into());
        }
        if permuted.late_dropped != 0 {
            return Err(format!(
                "bounded-lag arrival shed {} buckets",
                permuted.late_dropped
            ));
        }
        checks += 2;
    }

    let query = if mode == HostileMode::MidWalk { 2 } else { 1 };
    let scheduled = fault_plan(seed, &seams, query)?;
    let plan = Arc::new(FaultPlan::new(scheduled.clone()));
    let faulted = run_async(
        &script,
        ShardConfig::default(),
        mode == HostileMode::PermutedArrival,
        Some(&plan),
        false,
    )?;
    checks += compare(&oracle, &faulted, "faulted")?;
    checks += fault_checks(&plan, &scheduled, &faulted)?;

    if mode == HostileMode::Churn {
        if oracle.retired_shards == 0 {
            return Err("churn schedule retired no shard".into());
        }
        checks += 1;
    }
    if mode == HostileMode::FlashCrowd {
        // A writer that outruns the workers blocks at admission: with a
        // barrier before every ingest (the depth-1 admission condition)
        // every slide waits out the burst's refreshes, and the decisions and
        // watermark still match the oracle.
        let serialised = run_async(&script, ShardConfig::default(), false, None, true)?;
        checks += compare(&oracle, &serialised, "serialised")?;
    }
    if mode == HostileMode::MidWalk {
        // A panic halfway through a walk charged no member twice: every
        // subscription was refreshed or skipped exactly once per slide.
        if let Some(ledger) = faulted.ledgers.iter().find(|&&n| n != faulted.slides) {
            return Err(format!(
                "a subscription was charged {ledger} refreshes + skips over {} slides",
                faulted.slides
            ));
        }
        checks += 1;
    }

    Ok(ChaosReport {
        mode: mode.name(),
        seed,
        slides: oracle.slides,
        subscriptions: oracle.results.len()
            + script
                .ops
                .iter()
                .filter(|(_, op)| matches!(op, Op::Unsubscribe(_)))
                .count(),
        oracle_updates: oracle.total_updates,
        delivered: faulted.delivered,
        dropped: faulted.dropped,
        faults_injected: plan.fired().len() as u64,
        fired: plan.fired(),
        fault_flight_records: faulted.fault_flight_records,
        flight_json: faulted.flight_json,
        checks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flash_crowd_smoke() {
        let report = run_chaos(HostileMode::FlashCrowd, 17, ChaosScale::Smoke).unwrap();
        assert!(report.checks > 0);
        assert_eq!(report.faults_injected, 4);
        assert_eq!(report.fault_flight_records, 4, "one postmortem per fault");
        assert!(report
            .flight_json
            .contains("\"trigger\": \"fault_injected\""));
    }

    #[test]
    fn churn_smoke() {
        let report = run_chaos(HostileMode::Churn, 17, ChaosScale::Smoke).unwrap();
        assert!(report.oracle_updates > 0);
        assert_eq!(
            report.delivered + report.dropped,
            report.oracle_updates as u64
        );
    }

    #[test]
    fn permuted_arrival_smoke() {
        let report = run_chaos(HostileMode::PermutedArrival, 17, ChaosScale::Smoke).unwrap();
        assert!(report.slides >= 8);
    }

    #[test]
    fn reconfigure_smoke() {
        let report = run_chaos(HostileMode::Reconfigure, 17, ChaosScale::Smoke).unwrap();
        assert!(report.checks > 0);
    }

    /// The mid-walk panic fires before a walk's second cluster query, and a
    /// seed fires the same faults on the same targets every time it runs.
    #[test]
    fn mid_walk_smoke_fires_the_same_faults_twice() {
        let run = || run_chaos(HostileMode::MidWalk, 89, ChaosScale::Smoke).unwrap();
        let (first, second) = (run(), run());
        let (epoch, kind, shard) = first.fired[0];
        assert_eq!(kind, FaultKind::PanicBeforeQuery(2));
        assert!(shard.is_some(), "the panic names its shard");
        assert!(epoch > 0);
        assert_eq!(first.fired.len(), 4);
        assert_eq!(first.fired, second.fired);
    }
}
