//! Per-slide change summaries for incremental (standing-query) consumers.
//!
//! Re-running MTTS/MTTD for every standing query on every window slide wastes
//! work whenever the slide did not disturb the part of the index the query
//! actually traversed.  To decide that cheaply, the ranked lists record, per
//! topic, *how high* in the list the slide reached: every insert, score
//! adjustment or removal is logged as a **touch** at the score of the affected
//! tuple (for adjustments, the higher of the old and new scores — a tuple
//! moving in either direction can only influence traversals that reach the
//! higher of the two positions).
//!
//! A consumer that remembers the score floor its last traversal descended to
//! on each list can then skip refreshing whenever every touch in its support
//! topics happened **strictly below** that floor: the traversal would read the
//! exact same prefix of every list and terminate at the same point, so its
//! result is unchanged.  `ksir-continuous` builds its subscription refresh
//! policy on exactly this invariant, and schedules a shard only when the
//! slide disturbs one of its subscriptions.
//!
//! The log is stored sparsely: one [`Touch`] entry per touched topic, in
//! first-touch order, plus a dense topic index, built at the first touch,
//! for `O(1)` recording and lookup.  Quiet slides therefore allocate
//! nothing, clearing the log in place reuses the buffers (see
//! [`RankedDelta::clear`]), and iterating the touches is
//! `O(touched topics)` rather than `O(z)`.
//!
//! [`WindowDelta`] bundles the ranked-list touches with the element-level
//! churn (activated / expired / resurrected / refreshed ids) of one bucket
//! ingestion, and is surfaced by [`IngestReport`](crate::IngestReport).

use ksir_types::{ElementId, Timestamp, TopicId};

/// Sentinel marking an unused slot of the dense topic index.
const UNTOUCHED: u32 = u32::MAX;

/// Comparison slack for "touch at or above a score floor" checks.
///
/// Every score-bound comparison must use the same slack — the frontier
/// disturbance check (`touch.high >= floor - FLOOR_SLACK`) and the suffix
/// cursors of the ranked lists (start at `score <= high + FLOOR_SLACK`) — or
/// a tuple within rounding of a bound could be seen by one side and missed
/// by the other.  Exported so the invariant lives in one place.
pub const FLOOR_SLACK: f64 = 1e-12;

/// Touch summary of one topic's ranked list over one window slide.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopicTouch {
    /// Number of tuple operations (inserts, adjustments, removals).
    pub count: usize,
    /// Highest score involved in any touch: the list is guaranteed unchanged
    /// at ranks whose scores are strictly greater than this.
    pub high: f64,
}

/// One touched topic together with its touch summary — the sparse entry type
/// behind [`RankedDelta::touches`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Touch {
    /// The topic whose ranked list was modified.
    pub topic: TopicId,
    /// Number of tuple operations (inserts, adjustments, removals).
    pub count: usize,
    /// Highest score involved in any touch of this topic's list.
    pub high: f64,
}

impl Touch {
    /// The topic-less summary of this touch.
    pub fn summary(&self) -> TopicTouch {
        TopicTouch {
            count: self.count,
            high: self.high,
        }
    }
}

/// Per-topic ranked-list touches accumulated over one window slide.
///
/// Stored sparsely: [`RankedDelta::touches`] returns one entry per touched
/// topic in first-touch order.  A dense `topic → entry` index is built at the
/// first recorded touch and travels with the log (through [`RankedDelta::drain`]
/// and clones), so both recording and lookups are `O(1)` per topic.
#[derive(Debug, Clone, Default)]
pub struct RankedDelta {
    num_topics: usize,
    entries: Vec<Touch>,
    /// Dense `topic.index() → entries index` map ([`UNTOUCHED`] = absent).
    /// Either empty (and then so is `entries`) or `num_topics` long.
    index: Vec<u32>,
}

impl RankedDelta {
    /// An empty delta for `num_topics` lists.  Allocation is deferred until
    /// the first touch is recorded.
    pub fn new(num_topics: usize) -> Self {
        RankedDelta {
            num_topics,
            entries: Vec::new(),
            index: Vec::new(),
        }
    }

    /// Number of topics covered.
    pub fn num_topics(&self) -> usize {
        self.num_topics
    }

    /// Position of `topic`'s entry: `O(1)` through the dense index, which
    /// is built whenever the log holds an entry (an unbuilt index means an
    /// empty log).
    fn position(&self, topic: TopicId) -> Option<usize> {
        match self.index.get(topic.index()) {
            Some(&i) if i != UNTOUCHED => Some(i as usize),
            _ => None,
        }
    }

    /// (Re)builds the dense index so that recording is `O(1)`.
    fn ensure_index(&mut self) {
        if self.index.len() != self.num_topics {
            self.index.clear();
            self.index.resize(self.num_topics, UNTOUCHED);
            for (i, t) in self.entries.iter().enumerate() {
                self.index[t.topic.index()] = i as u32;
            }
        }
    }

    /// Records one touch of `topic`'s list at `score`.
    pub fn record(&mut self, topic: TopicId, score: f64) {
        if topic.index() >= self.num_topics {
            return;
        }
        self.ensure_index();
        match self.index[topic.index()] {
            UNTOUCHED => {
                self.index[topic.index()] = self.entries.len() as u32;
                self.entries.push(Touch {
                    topic,
                    count: 1,
                    high: score,
                });
            }
            i => {
                let touch = &mut self.entries[i as usize];
                touch.count += 1;
                if score > touch.high {
                    touch.high = score;
                }
            }
        }
    }

    /// The touched topics in first-touch order, as a borrowed slice — the
    /// projection surface shard schedulers and other incremental consumers
    /// iterate instead of scanning all `z` topics.
    pub fn touches(&self) -> &[Touch] {
        &self.entries
    }

    /// The touch summary of one topic, if it was touched at all.
    pub fn touch(&self, topic: TopicId) -> Option<TopicTouch> {
        self.position(topic).map(|i| self.entries[i].summary())
    }

    /// Returns `true` if `topic`'s list was modified during the slide.
    pub fn touched(&self, topic: TopicId) -> bool {
        self.position(topic).is_some()
    }

    /// Number of touched topics.
    pub fn touched_topics(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no list was modified.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Clears the log in place, retaining both buffers so the next slide
    /// records without allocating.  `O(touched topics)`.
    pub fn clear(&mut self) {
        if self.index.len() == self.num_topics {
            for t in &self.entries {
                self.index[t.topic.index()] = UNTOUCHED;
            }
        }
        self.entries.clear();
    }

    /// Moves the accumulated touches, dense index included, into a new
    /// owned delta, leaving `self` an empty log over the same topics.
    pub fn drain(&mut self) -> RankedDelta {
        std::mem::replace(self, RankedDelta::new(self.num_topics))
    }
}

impl PartialEq for RankedDelta {
    /// Semantic equality: same dimensionality and the same per-topic touch
    /// summaries, irrespective of recording order or index state.
    fn eq(&self, other: &Self) -> bool {
        self.num_topics == other.num_topics
            && self.entries.len() == other.entries.len()
            && self
                .entries
                .iter()
                .all(|t| other.touch(t.topic) == Some(t.summary()))
    }
}

/// Everything that changed during one window slide (one ingested bucket).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowDelta {
    /// Logical time before the slide.
    pub from: Timestamp,
    /// Logical time after the slide (the bucket end).
    pub to: Timestamp,
    /// Ids of elements inserted from the bucket, in insertion order.
    pub activated: Vec<ElementId>,
    /// Ids of elements that expired out of the active window, sorted.
    pub expired: Vec<ElementId>,
    /// Previously expired elements brought back by a fresh reference.
    pub resurrected: Vec<ElementId>,
    /// Pre-existing elements whose ranked-list tuples were recomputed
    /// (referenced parents and elements whose influence sets shrank).
    pub refreshed: Vec<ElementId>,
    /// Per-topic ranked-list touch summary.
    pub ranked: RankedDelta,
}

impl WindowDelta {
    /// Returns `true` if the slide changed nothing observable.
    pub fn is_empty(&self) -> bool {
        self.activated.is_empty()
            && self.expired.is_empty()
            && self.resurrected.is_empty()
            && self.refreshed.is_empty()
            && self.ranked.is_empty()
    }

    /// Returns `true` if `id` expired during this slide.
    pub fn lost(&self, id: ElementId) -> bool {
        self.expired.binary_search(&id).is_ok()
    }

    /// The slide's ranked-list touches as a borrowed slice, in first-touch
    /// order (see [`RankedDelta::touches`]).
    pub fn touches(&self) -> &[Touch] {
        self.ranked.touches()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_tracks_count_and_high_water_mark() {
        let mut d = RankedDelta::new(3);
        assert!(d.is_empty());
        assert!(!d.touched(TopicId(1)));
        d.record(TopicId(1), 0.4);
        d.record(TopicId(1), 0.9);
        d.record(TopicId(1), 0.2);
        let t = d.touch(TopicId(1)).unwrap();
        assert_eq!(t.count, 3);
        assert_eq!(t.high, 0.9);
        assert!(d.touched(TopicId(1)));
        assert!(!d.touched(TopicId(0)));
        assert_eq!(d.touched_topics(), 1);
        assert!(!d.is_empty());
    }

    #[test]
    fn out_of_range_topics_are_ignored() {
        let mut d = RankedDelta::new(2);
        d.record(TopicId(7), 1.0);
        assert!(d.is_empty());
        assert_eq!(d.touch(TopicId(7)), None);
        // Lookups past the dimensionality stay safe once the dense index is
        // built, and on the zero-topic default.
        d.record(TopicId(1), 0.5);
        assert_eq!(d.touch(TopicId(7)), None);
        assert!(!d.touched(TopicId(2)));
        assert!(!RankedDelta::default().touched(TopicId(0)));
        assert_eq!(RankedDelta::default().touch(TopicId(3)), None);
    }

    #[test]
    fn iter_touched_yields_only_touched_topics() {
        let mut d = RankedDelta::new(4);
        d.record(TopicId(0), 0.1);
        d.record(TopicId(3), 0.5);
        let touched = d.touches();
        assert_eq!(touched.len(), 2);
        assert_eq!(touched[0].topic, TopicId(0));
        assert_eq!(touched[1].topic, TopicId(3));
        assert_eq!(touched[1].high, 0.5);
        assert_eq!(
            touched[1].summary(),
            TopicTouch {
                count: 1,
                high: 0.5
            }
        );
    }

    #[test]
    fn clear_retains_buffers_and_resets_state() {
        let mut d = RankedDelta::new(4);
        d.record(TopicId(2), 0.7);
        d.record(TopicId(0), 0.2);
        assert_eq!(d.touched_topics(), 2);
        d.clear();
        assert!(d.is_empty());
        assert!(!d.touched(TopicId(2)));
        // Recording after a clear starts a fresh log.
        d.record(TopicId(2), 0.1);
        let t = d.touch(TopicId(2)).unwrap();
        assert_eq!(t.count, 1);
        assert_eq!(t.high, 0.1);
    }

    #[test]
    fn drain_moves_touches_and_leaves_an_empty_log() {
        let mut d = RankedDelta::new(3);
        d.record(TopicId(1), 0.6);
        let drained = d.drain();
        assert!(d.is_empty());
        assert_eq!(d.num_topics(), 3);
        assert_eq!(drained.touch(TopicId(1)).unwrap().high, 0.6);
        // The drained copy answers lookups through the index it took over.
        assert!(drained.touched(TopicId(1)));
        assert!(!drained.touched(TopicId(0)));
        // The source keeps recording correctly after the drain.
        d.record(TopicId(2), 0.9);
        assert_eq!(d.touch(TopicId(2)).unwrap().high, 0.9);
        assert!(!d.touched(TopicId(1)));
    }

    #[test]
    fn equality_ignores_recording_order() {
        let mut a = RankedDelta::new(3);
        a.record(TopicId(0), 0.2);
        a.record(TopicId(2), 0.5);
        let mut b = RankedDelta::new(3);
        b.record(TopicId(2), 0.5);
        b.record(TopicId(0), 0.2);
        assert_eq!(a, b);
        b.record(TopicId(1), 0.1);
        assert_ne!(a, b);
    }

    #[test]
    fn window_delta_lost_uses_sorted_expired() {
        let delta = WindowDelta {
            expired: vec![ElementId(2), ElementId(5), ElementId(9)],
            ..WindowDelta::default()
        };
        assert!(delta.lost(ElementId(5)));
        assert!(!delta.lost(ElementId(4)));
        assert!(!delta.is_empty());
        assert!(WindowDelta::default().is_empty());
        assert!(WindowDelta::default().touches().is_empty());
    }
}
