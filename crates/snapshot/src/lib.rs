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
//! * [`EngineSnapshot::capture_watched`] bounds a capture to the topics the
//!   standing queries can traverse, so the writer never copies a list no
//!   refresh reads.
//!
//! The snapshot implements [`ksir_core::RankedView`] (the index-read seam
//! the MTTS/MTTD/Top-k traversals consume) and [`ksir_core::QuerySource`]
//! (run a whole query), so a subscription refresh is *identical code* whether
//! it reads the live engine or a snapshot — which is what keeps the pipelined
//! path decision- and score-identical to the synchronous one: every list is
//! served whole through the shared `Arc` image, so re-running a query against
//! it returns bit-for-bit what the live engine would have returned at that
//! epoch, no matter how deep the traversal descends.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod snapshot;
pub mod stats;

pub use snapshot::EngineSnapshot;
pub use stats::{SnapshotCounters, SnapshotStats};
