//! Ordered traversal of the per-topic ranked lists for one query.
//!
//! MTTS, MTTD and Top-k Representative all consume active elements "in
//! decreasing order of their scores w.r.t. the query vector": they keep one
//! cursor per topic in the query support, repeatedly take the cursor whose
//! head contributes the largest `x_i · δ_i(e)`, and track the upper bound
//! `UB(x) = Σ_i x_i · δ_i(e^{(i)})` on the score of any not-yet-retrieved
//! element.  Once an element has been retrieved from one list, its tuples in
//! the other lists are treated as visited so it is never retrieved twice.
//!
//! # One id probe per popped tuple
//!
//! A list tuple names its element by external id.  The traversal probes the
//! window's id index once per popped tuple and from then on speaks in
//! [`Slot`]s: it dedupes on a bitset indexed by slot, and hands the slot on
//! so the element's profile ([`QueryEvaluator::profile_at`]) reaches the
//! entry, the row and every child by index.
//!
//! A listed id the window does not hold is *stepped over*: its cursor moves
//! past it, so the upper bound and the frontier descend below it, but it is
//! never returned and [`SupportCursors::retrieved`] does not count it.  The
//! engine and its snapshots always serve lists and window of one state, so
//! every listed id is active; only a hand-built
//! [`run_query_per_k`](crate::run_query_per_k) over lists and a window that
//! disagree can list one that is not.
//!
//! [`QueryEvaluator::profile_at`]: crate::QueryEvaluator::profile_at

use crate::stream::{ActiveWindow, RankedListCursor, Slot};
use ksir_types::{ElementId, TopicId};

use crate::query::QueryFrontier;
use crate::view::RankedView;

/// Cursors over the ranked lists of the query's support topics.
pub(crate) struct SupportCursors<'a> {
    cursors: Vec<(TopicId, f64, RankedListCursor<'a>)>,
    /// The window the popped ids are looked up in.
    window: &'a ActiveWindow,
    /// One bit per window slot, set once the slot's element was popped;
    /// grown on demand up to the highest slot popped.
    visited: Vec<u64>,
    retrieved: usize,
}

impl<'a> SupportCursors<'a> {
    /// Opens a cursor on every support topic's ranked list — live or
    /// snapshot, whatever the view serves — resolving popped ids in
    /// `window`, the window of the same state.
    pub fn new<V: RankedView + ?Sized>(
        view: &'a V,
        window: &'a ActiveWindow,
        support: &[(TopicId, f64)],
    ) -> Self {
        let cursors = support
            .iter()
            .filter(|(topic, _)| topic.index() < view.num_topics())
            .map(|&(topic, weight)| (topic, weight, view.cursor(topic)))
            .collect();
        SupportCursors {
            cursors,
            window,
            visited: Vec::new(),
            retrieved: 0,
        }
    }

    /// The traversal frontier: per support topic, the score of the first
    /// tuple this traversal has *not* read (`None` once the list is
    /// exhausted).  Captured at termination it is exactly the
    /// [`QueryFrontier`](crate::query::QueryFrontier) invalidation floor.
    pub fn frontier(&self) -> QueryFrontier {
        let floors = self
            .cursors
            .iter()
            .map(|(topic, _, cursor)| (*topic, cursor.current().map(|(_, score, _)| score)))
            .collect();
        QueryFrontier::new(floors)
    }

    /// The upper bound `UB(x)` on the score of any unretrieved element:
    /// the weighted sum of the current head scores (exhausted lists
    /// contribute zero).
    pub fn upper_bound(&self) -> f64 {
        self.cursors
            .iter()
            .map(|(_, w, c)| c.current().map(|(_, s, _)| *w * s).unwrap_or(0.0))
            .sum()
    }

    /// Returns `true` once every cursor is exhausted.
    pub fn exhausted(&self) -> bool {
        self.cursors.iter().all(|(_, _, c)| c.current().is_none())
    }

    /// Number of distinct elements retrieved so far.
    pub fn retrieved(&self) -> usize {
        self.retrieved
    }

    /// Retrieves the next unvisited element in decreasing order of
    /// `x_i · δ_i(e)`, with its window slot, advancing the cursor it came
    /// from.  Ids the window does not hold are stepped over (see the module
    /// docs).
    pub fn pop_next(&mut self) -> Option<(ElementId, Slot)> {
        loop {
            let mut best: Option<(usize, f64)> = None;
            for (idx, (_, weight, cursor)) in self.cursors.iter().enumerate() {
                if let Some((_, score, _)) = cursor.current() {
                    let value = *weight * score;
                    let better = match best {
                        None => true,
                        Some((_, b)) => value > b,
                    };
                    if better {
                        best = Some((idx, value));
                    }
                }
            }
            let (idx, _) = best?;
            let cursor = &mut self.cursors[idx].2;
            let (id, _, _) = cursor
                .current()
                .expect("cursor selected as argmax has a current element");
            cursor.advance();
            let Some(slot) = self.window.slot(id) else {
                continue;
            };
            let (word, bit) = (slot.index() / 64, 1u64 << (slot.index() % 64));
            if word >= self.visited.len() {
                self.visited.resize(word + 1, 0);
            }
            if self.visited[word] & bit == 0 {
                self.visited[word] |= bit;
                self.retrieved += 1;
                return Some((id, slot));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{RankedLists, WindowConfig};
    use ksir_types::{SocialElementBuilder, Timestamp};

    /// A window holding e1, e3, e6 and e8, in that slab order.
    fn window() -> ActiveWindow {
        let mut window = ActiveWindow::new(WindowConfig::new(100, 1).unwrap());
        for id in [1, 3, 6, 8] {
            let element = SocialElementBuilder::new(id).at(id).build();
            window.insert(element).unwrap();
        }
        window
    }

    fn lists() -> RankedLists {
        let mut rls = RankedLists::new(2);
        // topic 0: e3 (0.65) > e6 (0.48) > e8 (0.17)
        rls.upsert(TopicId(0), ElementId(3), 0.65, Timestamp(8));
        rls.upsert(TopicId(0), ElementId(6), 0.48, Timestamp(8));
        rls.upsert(TopicId(0), ElementId(8), 0.17, Timestamp(8));
        // topic 1: e1 (0.56) > e6 (0.30)
        rls.upsert(TopicId(1), ElementId(1), 0.56, Timestamp(5));
        rls.upsert(TopicId(1), ElementId(6), 0.30, Timestamp(8));
        rls
    }

    /// What `pop_next` should return for `id`: the id with its own slot.
    fn popped(window: &ActiveWindow, id: u64) -> Option<(ElementId, Slot)> {
        let id = ElementId(id);
        Some((id, window.slot(id).unwrap()))
    }

    #[test]
    fn retrieval_order_follows_weighted_scores() {
        let (rls, window) = (lists(), window());
        let support = [(TopicId(0), 0.5), (TopicId(1), 0.5)];
        let mut cursors = SupportCursors::new(&rls, &window, &support);
        assert!((cursors.upper_bound() - (0.5 * 0.65 + 0.5 * 0.56)).abs() < 1e-12);
        // 0.5·0.65 = 0.325 beats 0.5·0.56 = 0.28 → e3 first
        assert_eq!(cursors.pop_next(), popped(&window, 3));
        // then e1 (0.28) beats e6 (0.24)
        assert_eq!(cursors.pop_next(), popped(&window, 1));
        assert_eq!(cursors.pop_next(), popped(&window, 6));
        assert_eq!(cursors.pop_next(), popped(&window, 8));
        assert_eq!(cursors.pop_next(), None);
        assert!(cursors.exhausted());
        assert_eq!(cursors.retrieved(), 4);
        assert_eq!(cursors.upper_bound(), 0.0);
    }

    /// e6 sits on both support lists: it is popped once, with its slot, when
    /// its first tuple comes up; its second tuple is passed over and
    /// `retrieved` counts it once.
    #[test]
    fn an_element_on_two_lists_is_popped_once_with_its_slot() {
        let (rls, window) = (lists(), window());
        let support = [(TopicId(0), 0.5), (TopicId(1), 0.5)];
        let mut cursors = SupportCursors::new(&rls, &window, &support);
        let mut seen = Vec::new();
        while let Some(next) = cursors.pop_next() {
            seen.push(next);
        }
        let sixes: Vec<_> = seen.iter().filter(|(id, _)| *id == ElementId(6)).collect();
        assert_eq!(sixes, [&popped(&window, 6).unwrap()]);
        assert_eq!(seen.len(), 4);
        assert_eq!(cursors.retrieved(), 4);
        // Slots are distinct, so the bitset dedupes exactly what ids would.
        let mut slots: Vec<Slot> = seen.iter().map(|&(_, slot)| slot).collect();
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots.len(), 4);
    }

    /// A listed id the window does not hold (e9, at the head of topic 0) is
    /// stepped over: the cursor moves past it, so the bound and the frontier
    /// descend below it, but it is never returned and never counted.
    #[test]
    fn a_listed_id_the_window_does_not_hold_is_stepped_over() {
        let mut rls = lists();
        rls.upsert(TopicId(0), ElementId(9), 0.9, Timestamp(8));
        let window = window();
        let support = [(TopicId(0), 0.5), (TopicId(1), 0.5)];
        let mut cursors = SupportCursors::new(&rls, &window, &support);
        assert!((cursors.upper_bound() - (0.5 * 0.9 + 0.5 * 0.56)).abs() < 1e-12);
        assert_eq!(cursors.pop_next(), popped(&window, 3));
        assert_eq!(cursors.retrieved(), 1);
        assert_eq!(
            cursors.frontier().floors,
            vec![(TopicId(0), Some(0.48)), (TopicId(1), Some(0.56))]
        );
        let mut rest = Vec::new();
        while let Some((id, _)) = cursors.pop_next() {
            rest.push(id);
        }
        assert_eq!(rest, [ElementId(1), ElementId(6), ElementId(8)]);
        assert_eq!(cursors.retrieved(), 4);
    }

    #[test]
    fn skewed_weights_change_the_order() {
        let (rls, window) = (lists(), window());
        let support = [(TopicId(0), 0.1), (TopicId(1), 0.9)];
        let mut cursors = SupportCursors::new(&rls, &window, &support);
        // 0.9·0.56 = 0.504 beats 0.1·0.65 = 0.065 → e1 first
        assert_eq!(cursors.pop_next(), popped(&window, 1));
        assert_eq!(cursors.pop_next(), popped(&window, 6));
    }

    #[test]
    fn frontier_reports_first_unread_scores() {
        let (rls, window) = (lists(), window());
        let support = [(TopicId(0), 0.5), (TopicId(1), 0.5)];
        let mut cursors = SupportCursors::new(&rls, &window, &support);
        // Before any pop, the frontier sits on the list heads.
        let f = cursors.frontier();
        assert_eq!(
            f.floors,
            vec![(TopicId(0), Some(0.65)), (TopicId(1), Some(0.56))]
        );
        // e3 (topic 0 head) is popped; topic 0's frontier descends to e6.
        cursors.pop_next();
        let f = cursors.frontier();
        assert_eq!(
            f.floors,
            vec![(TopicId(0), Some(0.48)), (TopicId(1), Some(0.56))]
        );
        // Exhausting everything leaves no floors.
        while cursors.pop_next().is_some() {}
        let f = cursors.frontier();
        assert_eq!(f.floors, vec![(TopicId(0), None), (TopicId(1), None)]);
    }

    #[test]
    fn empty_lists_are_immediately_exhausted() {
        let (rls, window) = (RankedLists::new(3), window());
        let support = [(TopicId(0), 1.0)];
        let mut cursors = SupportCursors::new(&rls, &window, &support);
        assert_eq!(cursors.upper_bound(), 0.0);
        assert!(cursors.exhausted());
        assert_eq!(cursors.pop_next(), None);
    }

    #[test]
    fn out_of_range_topics_are_ignored() {
        let (rls, window) = (lists(), window());
        let support = [(TopicId(5), 1.0)];
        let mut cursors = SupportCursors::new(&rls, &window, &support);
        assert_eq!(cursors.pop_next(), None);
    }
}
