//! # ksir-continuous
//!
//! Standing k-SIR queries with **incremental, delta-driven result
//! maintenance**.
//!
//! The paper answers ad-hoc k-SIR queries in real time; a production system
//! serving many users instead holds **subscriptions** — standing queries
//! whose results must be kept current as the sliding window advances.  The
//! naive approach re-runs every subscription's query after every ingested
//! bucket.  This crate's [`SubscriptionManager`] does better by consuming the
//! [`WindowDelta`](ksir_core::stream::WindowDelta) that
//! [`KsirEngine::ingest_bucket`](ksir_core::KsirEngine::ingest_bucket) now
//! reports and refreshing only the subscriptions a slide could actually have
//! affected.
//!
//! ## Delta-refresh rules
//!
//! After each slide, a subscription is **refreshed** (its query re-run
//! against the index) when any of the following holds, and **skipped** (its
//! previous result carried over) otherwise:
//!
//! 1. **No result yet** — the subscription was registered since the last
//!    slide and has never been evaluated.
//! 2. **Member expired** — an element of its current result set expired out
//!    of the active window.  The stored result would reference a dead
//!    element, so the query is recomputed from scratch against the full
//!    index.
//! 3. **Support topic disturbed** — a ranked list of one of the query
//!    vector's support topics was touched *at or above* the score floor the
//!    subscription's last traversal descended to (its
//!    [`QueryFrontier`](ksir_core::QueryFrontier)).  Touches strictly below
//!    every floor are invisible: the traversal would read the exact same
//!    prefix of every list and terminate at the same point, so the stored
//!    result is provably identical to what a fresh run would return.
//!    Subscriptions using algorithms that scan the whole window (CELF,
//!    SieveStreaming) carry no frontier and are refreshed whenever *any*
//!    support topic is touched at all.
//!
//! Rule 3 is what makes standing queries cheap: a slide that only perturbs
//! topics outside a subscription's support — or deep below the scores its
//! traversal ever reached — costs that subscription nothing.  Rule 2 is
//! implied by rule 3 for the index-based algorithms (removing a selected
//! element touches its list at a score the traversal read), but it is kept
//! as an explicit, belt-and-suspenders guard so that correctness never
//! hinges on the frontier bookkeeping, and so that frontier-less algorithms
//! still recompute after expiry.
//!
//! ## Sharded refresh
//!
//! Subscriptions are partitioned into **topic-keyed shards** (see
//! [`shard`]): each standing query lives in the shard of its dominant
//! support topic, and queries broader than
//! [`ShardConfig::overflow_support_threshold`] rendezvous in a dedicated
//! overflow shard.  After every slide the [`WindowDelta`] is projected onto
//! each shard by the rules above, resident by resident, stopping at the
//! first resident that must refresh: a shard with none is skipped whole on
//! the ingest thread.  The per-subscription rules are the only touch filter
//! — no shard or cluster keeps a derived copy of them.  Scheduled shards
//! refresh concurrently on the long-lived worker pool;
//! within a shard the rules above run unchanged, so the per-subscription
//! refresh/skip decisions — and the work counters, which still reconcile to
//! `slides × subscriptions` — are identical to a per-subscription walk (the
//! reference the integration tests keep in test code).
//! [`SubscriptionManager::shard_stats`] exposes the live shards'
//! [`ShardStats`] for dashboards and benches.  Manager-wide totals have one
//! store, the counters of the manager's metrics registry
//! ([`SubscriptionManager::telemetry`]): [`SubscriptionManager::stats`] reads
//! `shard.refreshes`/`shard.skips` from it, and the work of shards retired by
//! `unsubscribe` stays in those counters, since nothing resets them.
//!
//! ## Shared evaluation plans
//!
//! Inside each shard, subscriptions whose queries are **plan-compatible** —
//! identical query vector (bitwise), identical `ε`, same algorithm, so they
//! differ at most in `k` — are grouped into *plan clusters* ([`cluster`]).
//! A scheduled shard skips a cluster none of whose members must refresh,
//! and traverses each disturbed cluster's **covering** query
//! (see [`KsirQuery::covering`](ksir_core::KsirQuery::covering)) once, and
//! that one traversal answers every distinct member `k`
//! ([`QuerySource::query_per_k`](ksir_core::QuerySource::query_per_k)):
//! each size gets exactly the result a plain run at that `k` returns, and
//! same-`k` members share it outright.  A lone subscription is a cluster of
//! one.  Per-member classify decisions, results, stats and delivered deltas
//! are pinned identical to the per-subscription walk (the `shared_plans`
//! tests); only evaluation *cost* drops — the `refresh.cluster.*` registry
//! counters expose by how much.
//!
//! [`WindowDelta`]: ksir_core::stream::WindowDelta
//!
//! ## Asynchronous ingestion, pipelined epochs
//!
//! The pipeline decouples ingestion from refresh:
//! [`SubscriptionManager::ingest_bucket_async`] updates the index, hands the
//! affected shards their epoch, and returns a [`SlideTicket`] immediately.
//! Each worker streams the [`ResultDelta`]s it produces into bounded
//! **per-subscriber delivery queues** ([`delivery`]) that consumers drain
//! through a [`DeliveryReceiver`] at their own pace; a slow consumer's full
//! queue sheds its own oldest deltas instead of back-pressuring the workers,
//! so ingestion latency is independent of subscriber count and drain speed.
//!
//! Refresh *compute* does not gate asynchronous ingestion either: each
//! ingested slide (an **epoch**) captures an immutable
//! [`EngineSnapshot`](ksir_core::EngineSnapshot) right after its index
//! write — `O(topics)` `Arc` clones; the writer copy-on-writes around live
//! snapshots — and refresh workers evaluate against the snapshot instead of
//! an engine read guard.  Epoch `N+1`'s index write therefore proceeds while
//! epoch `N`'s refreshes drain, two epochs deep.  Ordering is per shard:
//! every shard processes its pending epochs strictly in order through its
//! *lane*, so the stored results feeding each schedule/skip decision are
//! exactly those a barrier after every slide would leave, and the frozen
//! snapshot *is* that epoch's engine state.  The synchronous
//! [`SubscriptionManager::ingest_bucket`] is that barrier case: the same
//! pipeline between two [`SubscriptionManager::sync`] calls, returning the
//! complete [`SlideOutcome`] per slide — so the two APIs are
//! **decision-identical** by construction.
//! [`SubscriptionManager::sync`] awaits all outstanding epochs;
//! [`SubscriptionManager::completed_epoch`] exposes the completion
//! watermark; the `snapshot.*` registry counters the capture costs.
//! Epoch snapshots are bounded to the topics live subscriptions watch and
//! serve every watched list whole, so a refresh against one is
//! score-identical to the same refresh against the live engine.  A writer
//! that outruns the workers blocks at admission instead of degrading them.
//!
//! ## Hostile streams: reordering, fault isolation
//!
//! Real feeds are not clean: buckets arrive out of order and a worker can
//! panic mid-refresh.  Two layers keep the engine available — and its
//! decisions pinned — under both:
//!
//! * **Reorder buffer** ([`reorder`]): a bounded, watermark-driven buffer in
//!   front of the pipelined path
//!   ([`SubscriptionManager::ingest_bucket_reordered`]).  Any bucket
//!   displaced by at most [`ShardConfig::reorder_horizon`] positions is
//!   re-sequenced exactly (decisions bit-identical to in-order replay — the
//!   reorder property test); a bucket beyond the horizon is shed and counted
//!   (`ingest.late_dropped`).
//! * **Fault isolation**: every worker refresh attempt runs inside
//!   `catch_unwind`.  A panic never publishes a partial [`ResultDelta`] (the
//!   walk only stages its decisions, and the shard commits them once it
//!   returns, so the retry classifies every resident again) and never
//!   stalls the watermark (epoch registrations complete on drop).
//!   Panicking attempts retry with bounded backoff.  A shard that exhausts
//!   its budget is **quarantined** instead of wedging the pipeline: the
//!   epoch is shed as counted skips, `shard.quarantined` counts it, `/ready`
//!   reports it until [`SubscriptionManager::lift_quarantines`], and the
//!   shard keeps refreshing later slides.  Dead worker threads are
//!   respawned within a bounded budget (`worker.restarts`).  Tests inject
//!   faults from outside the crate through one hidden hook object, called
//!   before each cluster query of a walk, before each delivery send, after
//!   each worker item and before each snapshot capture; the `ksir-chaos`
//!   crate's `FaultPlan` is the one implementation.
//!
//! Because every refresh re-runs the subscription's own algorithm against
//! the same index an ad-hoc query would use, maintained results are
//! **score-equivalent to from-scratch queries at every slide** — the
//! integration tests assert exactly that on the paper's Table 1 example and
//! on randomly planted streams, and additionally that the deltas drained
//! from the delivery queues equal a per-subscription walk's slide for slide.
//!
//! ## Example
//!
//! ```
//! use ksir_continuous::SubscriptionManager;
//! use ksir_core::{fixtures::paper_example, Algorithm, KsirQuery};
//! use ksir_types::QueryVector;
//!
//! let example = paper_example();
//! let mut manager = SubscriptionManager::new(example.empty_engine());
//!
//! // A standing query: "2 representatives, equal interest in both topics".
//! let query = KsirQuery::new(2, QueryVector::new(vec![0.5, 0.5])?)?;
//! let sub = manager.subscribe(query, Algorithm::Mttd)?;
//!
//! // Stream the example's 8 tweets; each slide reports the subscriptions
//! // whose results changed.
//! for (element, tv) in example.stream() {
//!     let ts = element.ts;
//!     let outcome = manager.ingest_bucket(vec![(element, tv)], ts)?;
//!     for update in &outcome.updates {
//!         println!("t={ts}: +{:?} -{:?}", update.added, update.removed);
//!     }
//! }
//! // The maintained result is what an ad-hoc query would return at t = 8.
//! assert_eq!(manager.result(sub).unwrap().len(), 2);
//! # Ok::<(), ksir_types::KsirError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cluster;
pub mod delivery;
pub mod manager;
pub mod reorder;
pub mod shard;
pub mod subscription;
mod worker;

pub use delivery::{Delivery, DeliveryConfig, DeliveryReceiver};
pub use manager::{ManagerStats, SlideOutcome, SlideTicket, SubscriptionManager};
pub use shard::{ShardConfig, ShardKey, ShardStats};
pub use subscription::{RefreshReason, ResultDelta, SubscriptionId, SubscriptionStats};
#[doc(hidden)]
pub use worker::PipelineHooks;

// The observability surface ([`SubscriptionManager::telemetry`]), re-exported
// so dashboards and exporters never import `ksir-telemetry` directly.
pub use ksir_telemetry::{
    EpochRecord, EpochTimeline, FlightRecord, FlightRecorder, FlightTrigger, FreshnessClock,
    MetricsRegistry, ShardLabel, Telemetry, TelemetryConfig, TraceEvent, TraceEventKind, TraceLog,
};
