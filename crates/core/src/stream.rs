//! The streaming substrate: the time-based sliding window, the *active
//! window* of elements (window elements plus the elements they reference),
//! and the per-topic **ranked lists** that the MTTS and MTTD query
//! algorithms traverse.
//!
//! The split of responsibilities follows Figure 4 of the paper:
//!
//! * [`WindowConfig`] — the window length `T` and bucket length `L`; the
//!   stream is processed in buckets and the window advances at bucket
//!   boundaries ([`for_each_bucket`] cuts a stream into them).
//! * [`ActiveWindow`] — the set `A_t` of active elements at time `t`
//!   (elements posted within the window plus elements referenced by them),
//!   together with the reverse-reference index `I_t(e)` needed by the
//!   influence score.
//! * [`RankedList`] / [`RankedLists`] — for each topic `θ_i`, the list of
//!   active elements sorted by topic-wise representativeness score
//!   `δ_i(e)`, supporting ordered traversal (`first` / `next` in the paper).
//!   Lists are copy-on-write internally, so an
//!   [`EngineSnapshot`](crate::EngineSnapshot) captures one in `O(1)`.
//! * [`WindowDelta`] / [`RankedDelta`] — per-slide change summaries (element
//!   churn plus per-topic ranked-list touch depths) that let standing-query
//!   consumers decide whether a slide could possibly have changed their
//!   result.  A consumer that remembers the score floor its last traversal
//!   descended to on each list can skip a refresh whenever every touch in
//!   its support topics lies strictly below that floor (compared with
//!   [`FLOOR_SLACK`]).
//!
//! These structures only store and order the scores they are given; the
//! [`KsirEngine`](crate::KsirEngine) computes them and is their one writer.
//! They are defined in private modules at the crate root, and this module is
//! their one public path.

pub use crate::active::{ActiveWindow, Slot};
pub use crate::bucket::for_each_bucket;
pub use crate::delta::{RankedDelta, TopicTouch, Touch, WindowDelta, FLOOR_SLACK};
pub use crate::ranked_list::{RankedList, RankedListCursor, RankedLists};
pub use crate::window::WindowConfig;
