//! The active window `A_t`: sliding-window elements plus referenced parents.
//!
//! §3.1: *"The set of active elements `A_t` at time `t` includes not only the
//! elements in `W_t` but also the elements referred to by any element in
//! `W_t`."*  §4 (Algorithm 1): *"the elements that are never referred to by
//! any element after time `t − T + 1` are discarded from the active window."*
//!
//! [`ActiveWindow`] implements exactly that retention rule and additionally
//! maintains the reverse-reference index `I_t(e)` — for each active element,
//! the window elements that reference it — which the influence score needs.
//!
//! ## One hash per external id
//!
//! Element ids come from outside the program, so the one table keyed by them
//! — id → [`Slot`] — keeps the default, collision-resistant hasher.  Every
//! other reference is a slot: an index into the slab of entries, handed out
//! at insert and recycled (a freed slot is reused before the slab grows).
//! Children, the time index and the engine's parallel per-element stores all
//! hold slots, so walking `I_t(e)` indexes instead of probing.  The by-id
//! methods are one index probe in front of their slot form.
//!
//! ## Sliding costs what falls out of the window
//!
//! Both retention decisions are about timestamps crossing the window start,
//! so the window files them by time instead of scanning `A_t` on every slide.
//! Each tick holds two slot lists (slots only — the index adds no payload to
//! a copy-on-write clone of the window):
//!
//! * `filed` — *expiry candidates*: every active element is filed exactly
//!   once, under the `last_referenced` it had when it was filed (its post
//!   time, to begin with).  A later reference moves `last_referenced` but not
//!   the filing, so the filing is never later than the live value: the ticks
//!   before the window start name every element the retention rule discards.
//!   [`ActiveWindow::advance_to`] re-checks the live value of each candidate
//!   and files a survivor again under it.
//! * `parents` — *referencing children*: one entry per `(child, parent)`
//!   reference recorded by a child posted at this tick, naming the parent.
//!   The ticks before the window start name exactly the parents whose
//!   `children` list holds an entry that old.
//!
//! [`ActiveWindow::parents_losing_children`] reads the ticks before the new
//! window start and [`ActiveWindow::advance_to`] removes them; each candidate
//! is then confirmed against its entry.  Everything before the window start
//! leaves with the next slide whatever its tick, so late elements
//! (timestamped before the window start — resurrected parents, mostly) share
//! the one tick just before it instead of opening a tick each.
//!
//! A slot named by a tick or a `children` list never outlives its element:
//! an element leaves only when the sweep reaches its filing, and every tick
//! naming it — as a parent, or through a child as old as its last reference
//! — lies before the same window start, so the same sweep consumes it.  The
//! one reference left dangling is a parent that expired earlier in the sweep
//! that then prunes its children; its slot is vacant until the next insert.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use ksir_types::{ElementId, KsirError, Result, SocialElement, Timestamp};

use crate::window::WindowConfig;

/// An active element's place in its [`ActiveWindow`]: an index into the
/// window's slab, valid from the insert that hands it out until the slide
/// that expires the element.  A freed slot is handed out again, so a slot
/// names an element only in the window (or an image of it) it came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Slot(u32);

impl Slot {
    /// The slab index: what a store kept parallel to the window's slab (the
    /// engine's element rows) is indexed by.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Per-element bookkeeping inside the active window.
#[derive(Debug, Clone)]
struct ActiveEntry {
    id: ElementId,
    /// `Arc`-held so cloning the window (the engine's copy-on-write epoch
    /// snapshots) shares the immutable element payloads — documents and
    /// reference lists — instead of deep-copying them.
    element: Arc<SocialElement>,
    /// The latest time this element was posted or referenced — the `t_e`
    /// column of the ranked-list tuples in Algorithm 1.
    last_referenced: Timestamp,
    /// Window elements referencing this one, as `(child timestamp, child
    /// slot)`.  Pruned lazily when the window advances.
    children: Vec<(Timestamp, Slot)>,
}

/// The set of active elements at the current time, with reference tracking.
///
/// `Clone` exists for the engine's copy-on-write epoch snapshots: the engine
/// holds the window behind an `Arc` and deep-clones it only when a snapshot
/// is still reading the previous epoch's image.
#[derive(Debug, Clone)]
pub struct ActiveWindow {
    config: WindowConfig,
    now: Timestamp,
    /// The only table keyed by external ids.
    index: HashMap<ElementId, Slot>,
    /// Entries by slot; `None` for a freed slot.
    slab: Vec<Option<ActiveEntry>>,
    /// Freed slots, reused last-freed first before the slab grows.
    free: Vec<Slot>,
    /// What was posted or referenced when — see the module docs.
    ticks: BTreeMap<Timestamp, Tick>,
}

/// The time index's record of one timestamp.
#[derive(Debug, Clone, Default)]
struct Tick {
    /// Expiry candidates whose `last_referenced` was this tick when filed.
    filed: Vec<Slot>,
    /// Parents that recorded a child posted at this tick, once per reference.
    parents: Vec<Slot>,
}

impl ActiveWindow {
    /// Creates an empty active window at time 0.
    pub fn new(config: WindowConfig) -> Self {
        ActiveWindow {
            config,
            now: Timestamp::ZERO,
            index: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            ticks: BTreeMap::new(),
        }
    }

    /// The window configuration.
    pub fn config(&self) -> WindowConfig {
        self.config
    }

    /// The current logical time (end of the last ingested bucket).
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// First timestamp still inside the sliding window.
    pub fn window_start(&self) -> Timestamp {
        self.config.window_start(self.now)
    }

    /// Number of active elements `n_t = |A_t|`.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Returns `true` if no elements are active.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Slots the slab holds, occupied or free: never more than the most
    /// elements that were active at once.
    pub fn slab_len(&self) -> usize {
        self.slab.len()
    }

    /// The slot of `id`, if active — the one probe of the id index.
    pub fn slot(&self, id: ElementId) -> Option<Slot> {
        self.index.get(&id).copied()
    }

    fn entry(&self, slot: Slot) -> Option<&ActiveEntry> {
        self.slab.get(slot.index()).and_then(Option::as_ref)
    }

    /// The entry a reference held inside the window names: always occupied
    /// (see the module docs).
    fn live(&self, slot: Slot) -> &ActiveEntry {
        self.entry(slot)
            .expect("a slot the window refers to is occupied")
    }

    /// The id of the element in `slot`, if the slot is occupied.
    pub fn id_at(&self, slot: Slot) -> Option<ElementId> {
        self.entry(slot).map(|e| e.id)
    }

    /// The element in `slot`, if the slot is occupied.
    pub fn element_at(&self, slot: Slot) -> Option<&SocialElement> {
        self.entry(slot).map(|e| e.element.as_ref())
    }

    /// The time the element in `slot` was last posted or referenced (`t_e`
    /// in Algorithm 1), if the slot is occupied.
    pub fn last_referenced_at(&self, slot: Slot) -> Option<Timestamp> {
        self.entry(slot).map(|e| e.last_referenced)
    }

    /// The slots of `I_t(e)` for the element in `slot` — window elements
    /// referencing it, in reference-arrival order — without allocating:
    /// what the scoring passes iterate.  Empty for a free slot.
    pub fn influenced_slots(&self, slot: Slot) -> impl Iterator<Item = Slot> + '_ {
        let start = self.window_start();
        let children = self.entry(slot).map_or(&[][..], |e| e.children.as_slice());
        children
            .iter()
            .filter(move |(ts, _)| *ts >= start)
            .map(|&(_, child)| child)
    }

    /// Returns `true` if `id` is currently active.
    pub fn contains(&self, id: ElementId) -> bool {
        self.index.contains_key(&id)
    }

    /// Returns the element for `id`, if active.
    pub fn get(&self, id: ElementId) -> Option<&SocialElement> {
        self.slot(id).and_then(|slot| self.element_at(slot))
    }

    /// The time `id` was last posted or referenced (`t_e` in Algorithm 1).
    pub fn last_referenced(&self, id: ElementId) -> Option<Timestamp> {
        self.slot(id).and_then(|slot| self.last_referenced_at(slot))
    }

    /// Iterates over all active elements in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = &SocialElement> + '_ {
        self.slab.iter().flatten().map(|e| e.element.as_ref())
    }

    /// Iterates over the ids of all active elements.
    pub fn ids(&self) -> impl Iterator<Item = ElementId> + '_ {
        self.slab.iter().flatten().map(|e| e.id)
    }

    /// Iterates over the ids of all active elements with their slots, in
    /// slab order.
    pub fn ids_and_slots(&self) -> impl Iterator<Item = (ElementId, Slot)> + '_ {
        let slots = self.slab.iter().enumerate();
        slots.filter_map(|(index, e)| e.as_ref().map(|e| (e.id, Slot(index as u32))))
    }

    /// The set `I_t(e)`: ids of window elements that reference `id`,
    /// restricted to the current window.
    pub fn influenced_by(&self, id: ElementId) -> Vec<ElementId> {
        self.influenced_iter(id).collect()
    }

    /// Borrowing form of [`ActiveWindow::influenced_by`]: the same ids in the
    /// same (reference-arrival) order, without allocating.
    pub fn influenced_iter(&self, id: ElementId) -> impl Iterator<Item = ElementId> + '_ {
        self.slot(id)
            .into_iter()
            .flat_map(|slot| self.influenced_slots(slot))
            .map(|child| self.live(child).id)
    }

    /// Number of window elements referencing `id` (`|I_t(e)|`).
    pub fn influence_count(&self, id: ElementId) -> usize {
        self.slot(id)
            .map_or(0, |slot| self.influenced_slots(slot).count())
    }

    /// Inserts one element, wiring up reverse references to any active parent.
    ///
    /// References to elements that are not active are ignored here: the
    /// window only knows the elements it holds.  Bringing a discarded parent
    /// back because a new arrival references it — which the paper's
    /// definition of `A_t` requires — is the caller's job: the
    /// [`KsirEngine`](crate::KsirEngine) re-inserts the parent from its
    /// archive *before* inserting the child, so the reference below finds it.
    ///
    /// Accepts an owned element or an `Arc` already shared with the caller.
    ///
    /// Returns the ids of parents whose reverse-reference set changed — these
    /// are exactly the elements whose topic-wise scores must be recomputed in
    /// Algorithm 1 (lines 8–11).
    pub fn insert(&mut self, element: impl Into<Arc<SocialElement>>) -> Result<Vec<ElementId>> {
        let element: Arc<SocialElement> = element.into();
        let parents: Vec<Slot> = element.refs.iter().filter_map(|&r| self.slot(r)).collect();
        self.insert_resolved(element, &parents)?;
        Ok(parents.iter().map(|&parent| self.live(parent).id).collect())
    }

    /// [`ActiveWindow::insert`] for a caller that has resolved the element's
    /// references already: `parents` holds the slot of every reference to an
    /// active element, in reference order, repeats included — what looking
    /// up each reference just before the insert would give.  Returns the
    /// element's slot.
    ///
    /// # Panics
    ///
    /// If a slot in `parents` is free.
    pub(crate) fn insert_resolved(
        &mut self,
        element: Arc<SocialElement>,
        parents: &[Slot],
    ) -> Result<Slot> {
        debug_assert!(
            parents
                .iter()
                .all(|&parent| element.refs.contains(&self.live(parent).id)),
            "a parent slot names an element the new one does not reference"
        );
        // Late elements share the last tick before the window start.
        let late_tick = self.window_start().saturating_sub(1);
        let Entry::Vacant(vacant) = self.index.entry(element.id) else {
            return Err(KsirError::invalid_parameter(
                "element",
                format!("duplicate element id {}", element.id),
            ));
        };
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => Slot(u32::try_from(self.slab.len()).expect("fewer than 2^32 slots")),
        };
        vacant.insert(slot);
        let tick = self.ticks.entry(element.ts.max(late_tick)).or_default();
        tick.filed.push(slot);
        for &parent in parents {
            let p = self.slab[parent.index()]
                .as_mut()
                .expect("a parent slot is occupied");
            p.children.push((element.ts, slot));
            tick.parents.push(parent);
            if element.ts > p.last_referenced {
                p.last_referenced = element.ts;
            }
        }
        let entry = Some(ActiveEntry {
            id: element.id,
            last_referenced: element.ts,
            children: Vec::new(),
            element,
        });
        if slot.index() == self.slab.len() {
            self.slab.push(entry);
        } else {
            self.slab[slot.index()] = entry;
        }
        Ok(slot)
    }

    /// Elements that would lose at least one reverse reference if the window
    /// advanced to `new_now`, i.e. parents with a child posted before
    /// `window_start(new_now)`, in ascending id order.
    ///
    /// The stored influence scores `I_{i,t}(e)` of exactly these elements
    /// become stale when the window slides, so the engine recomputes their
    /// ranked-list tuples after calling [`ActiveWindow::advance_to`].
    pub fn parents_losing_children(&self, new_now: Timestamp) -> Vec<ElementId> {
        let slots = self.slots_losing_children(new_now);
        let mut ids: Vec<ElementId> = slots.into_iter().map(|s| self.live(s).id).collect();
        ids.sort_unstable();
        ids
    }

    /// The slots of [`ActiveWindow::parents_losing_children`], in ascending
    /// slot order.
    pub(crate) fn slots_losing_children(&self, new_now: Timestamp) -> Vec<Slot> {
        let new_start = self.config.window_start(new_now);
        let mut out: Vec<Slot> = self
            .ticks
            .range(..new_start)
            .flat_map(|(_, tick)| tick.parents.iter().copied())
            .collect();
        out.sort_unstable();
        out.dedup();
        out.retain(|&slot| {
            let children = &self.live(slot).children;
            children.iter().any(|(ts, _)| *ts < new_start)
        });
        out
    }

    /// Advances the window to `now`, discarding elements that are no longer
    /// active and pruning expired reverse references.
    ///
    /// Returns the ids of discarded elements, in ascending order, so callers
    /// can drop their own state for them.
    pub fn advance_to(&mut self, now: Timestamp) -> Result<Vec<ElementId>> {
        let freed = self.advance_freeing(now)?;
        Ok(freed.into_iter().map(|(id, _)| id).collect())
    }

    /// [`ActiveWindow::advance_to`], returning each discarded element with
    /// the slot it freed, ascending by id — for callers (the engine's ranked
    /// lists and element rows) that keep state by slot.
    pub(crate) fn advance_freeing(&mut self, now: Timestamp) -> Result<Vec<(ElementId, Slot)>> {
        if now < self.now {
            return Err(KsirError::TimestampRegression {
                last: self.now,
                offending: now,
            });
        }
        self.now = now;
        let start = self.config.window_start(now);
        let mut freed = Vec::new();
        let mut losing_children = Vec::new();
        while let Some(first) = self.ticks.first_entry() {
            if *first.key() >= start {
                break;
            }
            let tick = first.remove();
            for slot in tick.filed {
                let cell = &mut self.slab[slot.index()];
                let entry = cell.as_ref().expect("a filed slot is occupied");
                let last_referenced = entry.last_referenced;
                if last_referenced < start {
                    let id = entry.id;
                    *cell = None;
                    self.index.remove(&id);
                    self.free.push(slot);
                    freed.push((id, slot));
                } else {
                    // Referenced since it was filed: inside the window, so
                    // this sweep does not reach the new filing.
                    self.ticks
                        .entry(last_referenced)
                        .or_default()
                        .filed
                        .push(slot);
                }
            }
            losing_children.extend(tick.parents);
        }
        // Prune reverse references that fell out of the window so influence
        // counts stay correct without filtering on every read.  A parent
        // that expired in this sweep has left its slot free, and no slot is
        // handed out again before the next insert.
        losing_children.sort_unstable();
        losing_children.dedup();
        for parent in losing_children {
            if let Some(entry) = &mut self.slab[parent.index()] {
                entry.children.retain(|(ts, _)| *ts >= start);
            }
        }
        freed.sort_unstable();
        Ok(freed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksir_types::{Document, SocialElementBuilder};

    fn elem(id: u64, ts: u64, refs: &[u64]) -> SocialElement {
        let mut b = SocialElementBuilder::new(id).at(ts);
        for &r in refs {
            b = b.referencing(r);
        }
        b.build()
    }

    fn window(t: u64, l: u64) -> ActiveWindow {
        ActiveWindow::new(WindowConfig::new(t, l).unwrap())
    }

    #[test]
    fn insert_and_lookup() {
        let mut w = window(4, 1);
        w.insert(elem(1, 1, &[])).unwrap();
        assert!(w.contains(ElementId(1)));
        assert_eq!(w.len(), 1);
        assert!(!w.is_empty());
        assert_eq!(w.get(ElementId(1)).unwrap().ts, Timestamp(1));
        assert_eq!(w.last_referenced(ElementId(1)), Some(Timestamp(1)));
        assert!(w.get(ElementId(2)).is_none());
    }

    #[test]
    fn duplicate_insert_is_rejected() {
        let mut w = window(4, 1);
        w.insert(elem(1, 1, &[])).unwrap();
        assert!(w.insert(elem(1, 2, &[])).is_err());
    }

    #[test]
    fn references_bump_last_referenced_and_children() {
        let mut w = window(4, 1);
        w.insert(elem(1, 1, &[])).unwrap();
        let touched = w.insert(elem(2, 3, &[1])).unwrap();
        assert_eq!(touched, vec![ElementId(1)]);
        w.advance_to(Timestamp(3)).unwrap();
        assert_eq!(w.last_referenced(ElementId(1)), Some(Timestamp(3)));
        assert_eq!(w.influenced_by(ElementId(1)), vec![ElementId(2)]);
        assert_eq!(w.influence_count(ElementId(1)), 1);
        assert_eq!(w.influence_count(ElementId(2)), 0);
    }

    #[test]
    fn reference_to_unknown_parent_is_ignored() {
        let mut w = window(4, 1);
        let touched = w.insert(elem(2, 3, &[99])).unwrap();
        assert!(touched.is_empty());
        assert_eq!(w.influence_count(ElementId(99)), 0);
    }

    #[test]
    fn paper_example_active_set_at_time_8() {
        // Table 1 of the paper with T = 4: at time 8 the window is [5, 8];
        // e4 expires (posted at 4, never referenced), while e1, e2, e3 stay
        // active because e5, e7, e8 / e6, e8 reference them.
        let mut w = window(4, 1);
        w.insert(elem(1, 1, &[])).unwrap();
        w.insert(elem(2, 2, &[])).unwrap();
        w.insert(elem(3, 3, &[])).unwrap();
        w.insert(elem(4, 4, &[3])).unwrap();
        w.insert(elem(5, 5, &[1])).unwrap();
        w.insert(elem(6, 6, &[3])).unwrap();
        w.insert(elem(7, 7, &[2])).unwrap();
        w.insert(elem(8, 8, &[2, 3, 6])).unwrap();
        let expired = w.advance_to(Timestamp(8)).unwrap();
        assert_eq!(expired, vec![ElementId(4)]);
        assert_eq!(w.len(), 7);
        for id in [1u64, 2, 3, 5, 6, 7, 8] {
            assert!(w.contains(ElementId(id)), "e{id} should be active");
        }
        // I_8(e3) = {e6, e8}: e4 expired, so it no longer counts.
        let mut inf = w.influenced_by(ElementId(3));
        inf.sort_unstable();
        assert_eq!(inf, vec![ElementId(6), ElementId(8)]);
    }

    #[test]
    fn expiry_removes_unreferenced_elements() {
        let mut w = window(3, 1);
        w.insert(elem(1, 1, &[])).unwrap();
        w.insert(elem(2, 2, &[])).unwrap();
        w.advance_to(Timestamp(2)).unwrap();
        assert_eq!(w.len(), 2);
        let expired = w.advance_to(Timestamp(4)).unwrap();
        assert_eq!(expired, vec![ElementId(1)]);
        let expired = w.advance_to(Timestamp(10)).unwrap();
        assert_eq!(expired, vec![ElementId(2)]);
        assert!(w.is_empty());
    }

    #[test]
    fn references_keep_parents_alive_beyond_their_window() {
        let mut w = window(3, 1);
        w.insert(elem(1, 1, &[])).unwrap();
        w.insert(elem(2, 3, &[1])).unwrap();
        // at t=5 the window is [3,5]: e1 itself is outside but referenced by e2 (ts=3)
        let expired = w.advance_to(Timestamp(5)).unwrap();
        assert!(expired.is_empty());
        assert!(w.contains(ElementId(1)));
        // at t=6 the window is [4,6]: e2's reference is now outside too → both go
        let expired = w.advance_to(Timestamp(6)).unwrap();
        assert_eq!(expired, vec![ElementId(1), ElementId(2)]);
    }

    #[test]
    fn influence_set_respects_window_boundary() {
        let mut w = window(3, 1);
        w.insert(elem(1, 1, &[])).unwrap();
        w.insert(elem(2, 2, &[1])).unwrap();
        w.insert(elem(3, 4, &[1])).unwrap();
        w.advance_to(Timestamp(4)).unwrap();
        // window is [2,4]: both children in window
        assert_eq!(w.influence_count(ElementId(1)), 2);
        w.advance_to(Timestamp(5)).unwrap();
        // window is [3,5]: e2 fell out, only e3 counts
        assert_eq!(w.influenced_by(ElementId(1)), vec![ElementId(3)]);
    }

    #[test]
    fn influenced_iter_filters_children_straddling_the_window_start() {
        // A late child (timestamped before the window start) is recorded on
        // its parent but must not count: both forms apply the same filter and
        // keep reference-arrival order.
        let mut w = window(3, 1);
        w.insert(elem(1, 1, &[])).unwrap();
        w.insert(elem(2, 5, &[1])).unwrap();
        w.advance_to(Timestamp(6)).unwrap();
        // window is [4,6]; e3 arrives late with ts 2, e4 on time.
        w.insert(elem(3, 2, &[1])).unwrap();
        w.insert(elem(4, 6, &[1])).unwrap();
        let borrowed: Vec<ElementId> = w.influenced_iter(ElementId(1)).collect();
        assert_eq!(borrowed, vec![ElementId(2), ElementId(4)]);
        assert_eq!(w.influenced_by(ElementId(1)), borrowed);
        assert_eq!(w.influence_count(ElementId(1)), 2);
        assert_eq!(w.influenced_iter(ElementId(99)).count(), 0);
    }

    #[test]
    fn parents_losing_children_detects_stale_influence() {
        let mut w = window(3, 1);
        w.insert(elem(1, 1, &[])).unwrap();
        w.insert(elem(2, 2, &[1])).unwrap();
        w.insert(elem(3, 4, &[1])).unwrap();
        w.advance_to(Timestamp(4)).unwrap();
        // window is [2,4]: both children of e1 are inside, nothing stale yet
        assert!(w.parents_losing_children(Timestamp(4)).is_empty());
        // advancing to 5 moves the window to [3,5]: e2 (ts=2) falls out, so
        // e1's influence set shrinks.
        assert_eq!(w.parents_losing_children(Timestamp(5)), vec![ElementId(1)]);
        w.advance_to(Timestamp(5)).unwrap();
        assert!(w.parents_losing_children(Timestamp(5)).is_empty());
    }

    #[test]
    fn time_regression_is_rejected() {
        let mut w = window(4, 1);
        w.advance_to(Timestamp(5)).unwrap();
        assert!(matches!(
            w.advance_to(Timestamp(4)),
            Err(KsirError::TimestampRegression { .. })
        ));
    }

    #[test]
    fn iteration_yields_all_active_elements() {
        let mut w = window(10, 1);
        for i in 1..=5u64 {
            w.insert(SocialElement::original(
                ElementId(i),
                Timestamp(i),
                Document::new(),
            ))
            .unwrap();
        }
        w.advance_to(Timestamp(5)).unwrap();
        let mut ids: Vec<u64> = w.ids().map(|i| i.raw()).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
        assert_eq!(w.iter().count(), 5);
    }
}
