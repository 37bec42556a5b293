//! # ksir-stream
//!
//! Streaming substrate for the k-SIR reproduction: the time-based sliding
//! window, the *active window* of elements (window elements plus the elements
//! they reference), and the per-topic **ranked lists** that the MTTS and MTTD
//! query algorithms traverse.
//!
//! The split of responsibilities follows Figure 4 of the paper:
//!
//! * [`window::WindowConfig`] — the window length `T` and bucket length `L`;
//!   the stream is processed in buckets and the window advances at bucket
//!   boundaries.
//! * [`bucket::Bucketizer`] — groups an ordered element stream into buckets.
//! * [`active::ActiveWindow`] — the set `A_t` of active elements at time `t`
//!   (elements posted within the window plus elements referenced by them),
//!   together with the reverse-reference index `I_t(e)` needed by the
//!   influence score.
//! * [`ranked_list::RankedList`] / [`ranked_list::RankedLists`] — for each
//!   topic `θ_i`, the list of active elements sorted by topic-wise
//!   representativeness score `δ_i(e)`, supporting ordered traversal
//!   (`first` / `next` in the paper) and score adjustment when new references
//!   arrive.  Lists are copy-on-write internally: [`RankedList::share`]
//!   captures an `O(1)` immutable image ([`ranked_list::RankedListHandle`])
//!   — the primitive `ksir-snapshot` builds pipelined-epoch snapshots from.
//! * [`delta::WindowDelta`] / [`delta::RankedDelta`] — per-slide change
//!   summaries (element churn plus per-topic ranked-list touch depths) that
//!   let standing-query consumers decide whether a slide could possibly have
//!   changed their result.
//!
//! Scoring itself (computing `δ_i(e)`) lives in `ksir-core`; this crate only
//! stores and orders the scores it is given, which keeps the data structures
//! reusable for other scoring functions.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod active;
pub mod bucket;
pub mod delta;
pub mod ranked_list;
pub mod window;

pub use active::{ActiveWindow, Slot};
pub use bucket::{for_each_bucket, Bucket, Bucketizer};
pub use delta::{RankedDelta, TopicTouch, Touch, WindowDelta, FLOOR_SLACK};
pub use ranked_list::{RankedList, RankedListCursor, RankedListHandle, RankedLists};
pub use window::WindowConfig;
