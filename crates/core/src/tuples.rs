//! The ranked-list tuples the engine has written, by slot.
//!
//! A ranked list is an order and nothing else: it cannot find an element's
//! entry by id.  The engine can, because it knows each active element's
//! support (its row) and the `⟨δ_i(e), t_e⟩` it last wrote there.  This table
//! keeps the second half, so a refresh writes each list by the known old key
//! and skips a tuple whose score bits and `t_e` did not change, and expiry
//! removes exactly the stored keys.
//!
//! The table is private to the engine and holds active slots only: neither
//! the archive (which shares rows) nor epoch snapshots (whose queries never
//! read a tuple by id) see it.

use crate::stream::Slot;
use ksir_types::Timestamp;

/// Support widths up to this many topics keep their scores inline, with no
/// heap allocation per slot; the default `max_topics_per_element` is 2.
const INLINE: usize = 2;

/// The score of a support topic whose tuple no list holds yet.  Stored
/// scores are finite, so no written score is NaN, and no recomputed score
/// has its bits.
const UNWRITTEN: f64 = f64::NAN;

/// `δ_i(e)` per support topic, in the row's support order.
#[derive(Debug, Clone)]
enum Scores {
    Inline { len: u8, scores: [f64; INLINE] },
    Spilled(Box<[f64]>),
}

/// One slot's stored tuples: every one of them carries the same `t_e`, as
/// the engine writes all of an element's tuples whenever `t_e` moves.
#[derive(Debug, Clone)]
pub(crate) struct Tuples {
    ts: Timestamp,
    scores: Scores,
}

impl Tuples {
    /// `width` support topics, none written yet.
    fn unwritten(width: usize) -> Self {
        let scores = if width <= INLINE {
            Scores::Inline {
                len: width as u8,
                scores: [UNWRITTEN; INLINE],
            }
        } else {
            Scores::Spilled(vec![UNWRITTEN; width].into_boxed_slice())
        };
        Tuples {
            ts: Timestamp::ZERO,
            scores,
        }
    }

    /// The stored scores, in support order (NaN where none was written).
    pub(crate) fn scores(&self) -> &[f64] {
        match &self.scores {
            Scores::Inline { len, scores } => &scores[..*len as usize],
            Scores::Spilled(scores) => scores,
        }
    }
}

/// The stored score of a support topic, or `None` if no list holds its
/// tuple.
pub(crate) fn written(score: f64) -> Option<f64> {
    (!score.is_nan()).then_some(score)
}

/// The tuples the ranked lists hold for every active element, indexed by its
/// window slot and aligned with its row's support order.
#[derive(Debug, Default)]
pub(crate) struct TupleTable {
    slots: Vec<Tuples>,
}

impl TupleTable {
    /// Readies `slot` for an element of `width` support topics whose tuples
    /// no list holds yet: at admission and at resurrection.
    pub(crate) fn reset(&mut self, slot: Slot, width: usize) {
        let index = slot.index();
        if index >= self.slots.len() {
            self.slots.resize(index + 1, Tuples::unwritten(0));
        }
        self.slots[index] = Tuples::unwritten(width);
    }

    /// The stored `t_e` and scores of `slot`, for the refresh to compare
    /// against and overwrite.  A score is NaN until it is first written (see
    /// [`written`]).
    pub(crate) fn get_mut(&mut self, slot: Slot) -> (&mut Timestamp, &mut [f64]) {
        let tuples = &mut self.slots[slot.index()];
        let scores = match &mut tuples.scores {
            Scores::Inline { len, scores } => &mut scores[..*len as usize],
            Scores::Spilled(scores) => &mut scores[..],
        };
        (&mut tuples.ts, scores)
    }

    /// Empties `slot` as its element expires, returning what the lists
    /// hold for it.
    pub(crate) fn take(&mut self, slot: Slot) -> Tuples {
        std::mem::replace(&mut self.slots[slot.index()], Tuples::unwritten(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{ActiveWindow, WindowConfig};
    use ksir_types::SocialElementBuilder;

    #[test]
    fn slots_start_unwritten_inline_or_spilled() {
        let mut window = ActiveWindow::new(WindowConfig::new(10, 1).unwrap());
        let mut slot = |id: u64| {
            window
                .insert(SocialElementBuilder::new(id).at(1).build())
                .unwrap();
            window.slot(ksir_types::ElementId(id)).unwrap()
        };
        let (wide, narrow) = (slot(1), slot(2));
        let mut table = TupleTable::default();
        table.reset(narrow, 2);
        table.reset(wide, 5);
        for (slot, width) in [(narrow, 2), (wide, 5)] {
            let (ts, scores) = table.get_mut(slot);
            assert_eq!(*ts, Timestamp::ZERO);
            assert_eq!(scores.len(), width);
            assert!(scores.iter().all(|&s| written(s).is_none()));
            scores[1] = 0.5;
            *ts = Timestamp(7);
        }
        let taken = table.take(wide);
        let taken: Vec<Option<f64>> = taken.scores().iter().copied().map(written).collect();
        assert_eq!(taken, vec![None, Some(0.5), None, None, None]);
        assert!(table.get_mut(wide).1.is_empty(), "a taken slot is empty");
        let (ts, scores) = table.get_mut(narrow);
        assert_eq!((*ts, written(scores[1])), (Timestamp(7), Some(0.5)));
    }
}
