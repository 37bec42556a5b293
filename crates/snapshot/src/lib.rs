//! # ksir-snapshot
//!
//! Immutable, epoch-bounded snapshots of the k-SIR engine, for **pipelined**
//! standing-query maintenance.
//!
//! The asynchronous pipeline in `ksir-continuous` used to quiesce every
//! outstanding refresh before each index write — refresh *compute* therefore
//! bounded the sustained slide rate even though refresh *delivery* no longer
//! did.  The fix mirrors the batch discipline of differential dataflow:
//! instead of handing refresh workers a read guard on the live engine, each
//! slide captures an [`EngineSnapshot`] — a frozen image of exactly the state
//! a refresh reads — and the workers evaluate against that while the next
//! epoch's index update proceeds underneath.
//!
//! Capture is cheap by construction:
//!
//! * the per-topic ranked lists, the active window, and the map of
//!   per-element rows (the engine's one topic store) all live behind `Arc`s
//!   inside the engine, so one capture is `O(z)` pointer clones;
//! * the *writer* pays for isolation copy-on-write, and only for the
//!   structures it actually mutates while a snapshot is still alive (the
//!   engine's `EngineStats::*_cow_clones` counters make that cost visible);
//! * per scheduled shard, a [`ShardSnapshot`] bounds the view to the topics
//!   the shard's residents can traverse, optionally materialising
//!   floor-truncated contiguous prefixes ([`SnapshotPolicy::TruncateAtFloors`]).
//!
//! Both snapshot types implement [`ksir_core::RankedView`] (the index-read
//! seam the MTTS/MTTD/Top-k traversals consume) and [`ksir_core::QuerySource`]
//! (run a whole query), so a subscription refresh is *identical code* whether
//! it reads the live engine or a snapshot — which is what keeps the pipelined
//! path decision-identical to the synchronous one.
//!
//! ## Exact vs truncated capture
//!
//! [`SnapshotPolicy::Exact`] (the default) serves every list whole through
//! the shared `Arc` image: re-running a query against it returns bit-for-bit
//! what the live engine would have returned at that epoch, no matter how deep
//! the traversal descends.  [`SnapshotPolicy::TruncateAtFloors`] instead
//! materialises each watched topic's list only down to the shard's
//! [`FloorAggregate`](ksir_core::FloorAggregate) floor.  A floor-truncated
//! prefix always contains every tuple whose touch could have *scheduled* the
//! refresh (the refresh-decision sufficiency property, see the property tests
//! in `ksir-core`), but a re-run may legitimately descend below the old floor
//! — e.g. after a result member expires — in which case the truncated image
//! under-reports the tail.  Such exhaustions are counted in
//! [`SnapshotStats::truncation_shortfalls`]; use `TruncateAtFloors` only when
//! bounding snapshot memory matters more than exactness of the maintained
//! score on shortfall slides.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod snapshot;
pub mod stats;

pub use snapshot::{EngineSnapshot, PrefixSpec, ShardSnapshot, SnapshotSource};
pub use stats::{SnapshotCounters, SnapshotStats};

/// How a [`ShardSnapshot`] captures the ranked lists its shard can traverse.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
///
/// use ksir_core::{fixtures::paper_example, Algorithm, KsirQuery, QuerySource};
/// use ksir_snapshot::{
///     EngineSnapshot, PrefixSpec, ShardSnapshot, SnapshotCounters, SnapshotPolicy,
/// };
/// use ksir_types::{QueryVector, TopicId};
///
/// let engine = paper_example().build_engine();
/// let counters = SnapshotCounters::new();
/// let epoch = Arc::new(EngineSnapshot::capture(&engine, 1, &counters));
/// let query = KsirQuery::new(2, QueryVector::uniform(2).unwrap()).unwrap();
///
/// // `Exact` serves whole lists through the shared epoch image:
/// // score-identical to the live engine at the capture epoch.
/// let spec = PrefixSpec::whole_lists([TopicId(0), TopicId(1)]);
/// let exact = ShardSnapshot::new(Arc::clone(&epoch), &spec, SnapshotPolicy::Exact);
/// let live = engine.query(&query, Algorithm::Mtts).unwrap();
/// let snap = exact.query(&query, Algorithm::Mtts).unwrap();
/// assert_eq!(live.sorted_elements(), snap.sorted_elements());
///
/// // `TruncateAtFloors` materialises a bounded prefix per topic with a
/// // finite floor; topics without one stay on the shared image.
/// let spec = PrefixSpec {
///     floors: vec![(TopicId(0), Some(0.5)), (TopicId(1), None)],
/// };
/// let truncated = ShardSnapshot::new(epoch, &spec, SnapshotPolicy::TruncateAtFloors);
/// assert_eq!(truncated.truncated_topics(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SnapshotPolicy {
    /// Serve every watched list whole through the shared epoch image.
    /// Decision- and score-identical to evaluating against the live engine
    /// at the capture epoch; capture is `O(1)` per list.
    #[default]
    Exact,
    /// Materialise each watched list as a contiguous prefix truncated at the
    /// shard's aggregated floor (no floor ⇒ whole list).  Bounds snapshot
    /// memory to what refresh *decisions* can see; a re-run that descends
    /// past a floor observes a truncated tail (counted in
    /// [`SnapshotStats::truncation_shortfalls`]).
    TruncateAtFloors,
}
