//! Model-based test of the time-indexed [`ActiveWindow`].
//!
//! The reference model is the window as it was before the time index: a map
//! of entries that `parents_losing_children` and `advance_to` scan in full.
//! Random streams drive both through the same calls — late elements
//! (timestamped before the window start), duplicate ids, duplicate and
//! dangling references, empty slides, jumps of several windows, and expired
//! parents that are re-inserted before a child references them, the way the
//! engine resurrects from its archive — and every observable answer is
//! compared after every step, together with the slab's own invariants: ids
//! and slots map onto each other, every child slot names a live child, and
//! freed slots are reused before the slab grows.

use std::collections::HashMap;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};

use ksir_core::stream::{ActiveWindow, WindowConfig};
use ksir_types::{Document, ElementId, SocialElement, Timestamp};

/// The full-scan window: the retention rule and the reverse references
/// written down directly.
struct ModelWindow {
    config: WindowConfig,
    now: Timestamp,
    entries: HashMap<ElementId, ModelEntry>,
}

struct ModelEntry {
    last_referenced: Timestamp,
    children: Vec<(Timestamp, ElementId)>,
}

impl ModelWindow {
    fn new(config: WindowConfig) -> Self {
        ModelWindow {
            config,
            now: Timestamp::ZERO,
            entries: HashMap::new(),
        }
    }

    fn insert(&mut self, element: &SocialElement) -> Option<Vec<ElementId>> {
        if self.entries.contains_key(&element.id) {
            return None;
        }
        let mut touched = Vec::new();
        for &parent in &element.refs {
            if let Some(p) = self.entries.get_mut(&parent) {
                p.children.push((element.ts, element.id));
                p.last_referenced = p.last_referenced.max(element.ts);
                touched.push(parent);
            }
        }
        let entry = ModelEntry {
            last_referenced: element.ts,
            children: Vec::new(),
        };
        self.entries.insert(element.id, entry);
        Some(touched)
    }

    fn parents_losing_children(&self, new_now: Timestamp) -> Vec<ElementId> {
        let new_start = self.config.window_start(new_now);
        let mut out: Vec<ElementId> = self
            .entries
            .iter()
            .filter(|(_, entry)| entry.children.iter().any(|(ts, _)| *ts < new_start))
            .map(|(&id, _)| id)
            .collect();
        out.sort_unstable();
        out
    }

    fn advance_to(&mut self, now: Timestamp) -> Option<Vec<ElementId>> {
        if now < self.now {
            return None;
        }
        self.now = now;
        let start = self.config.window_start(now);
        let mut expired: Vec<ElementId> = self
            .entries
            .iter()
            .filter(|(_, entry)| entry.last_referenced < start)
            .map(|(&id, _)| id)
            .collect();
        for id in &expired {
            self.entries.remove(id);
        }
        for entry in self.entries.values_mut() {
            entry.children.retain(|(ts, _)| *ts >= start);
        }
        expired.sort_unstable();
        Some(expired)
    }

    fn influenced_by(&self, id: ElementId) -> Vec<ElementId> {
        let start = self.config.window_start(self.now);
        self.entries.get(&id).map_or_else(Vec::new, |entry| {
            let in_window = entry.children.iter().filter(|(ts, _)| *ts >= start);
            in_window.map(|(_, child)| *child).collect()
        })
    }
}

/// Both windows plus what the driver remembers of the stream.
struct Pair {
    real: ActiveWindow,
    model: ModelWindow,
    /// Every element ever inserted, by id: the "archive" re-insertions draw on.
    seen: Vec<SocialElement>,
    next_id: u64,
    /// The most elements the window has held at once.
    peak_len: usize,
}

impl Pair {
    fn insert(&mut self, element: SocialElement) {
        let expected = self.model.insert(&element);
        let got = self.real.insert(element.clone()).ok();
        assert_eq!(got, expected, "insert of {element:?}");
        self.peak_len = self.peak_len.max(self.real.len());
        if expected.is_some() && !self.seen.iter().any(|e| e.id == element.id) {
            self.seen.push(element);
        }
    }

    fn compare(&self, looking_ahead: u64) {
        assert_eq!(self.real.len(), self.model.entries.len());
        assert_eq!(self.real.now(), self.model.now);
        for ahead in [0, looking_ahead] {
            let at = self.real.now().saturating_add(ahead);
            assert_eq!(
                self.real.parents_losing_children(at),
                self.model.parents_losing_children(at),
                "parents_losing_children({at}) at {}",
                self.real.now()
            );
        }
        // Known ids and one nobody ever inserted.
        for id in (0..=self.next_id).map(ElementId) {
            let entry = self.model.entries.get(&id);
            assert_eq!(self.real.contains(id), entry.is_some());
            assert_eq!(
                self.real.last_referenced(id),
                entry.map(|e| e.last_referenced)
            );
            assert_eq!(self.real.influenced_by(id), self.model.influenced_by(id));
            assert_eq!(
                self.real.influence_count(id),
                self.model.influenced_by(id).len()
            );
        }
        self.compare_slots();
    }

    /// The slab against the model: every live id round-trips through its
    /// slot, every child slot names a live element the model lists as a
    /// child, and the slab never outgrows the most elements held at once.
    fn compare_slots(&self) {
        for (&id, entry) in &self.model.entries {
            let slot = self.real.slot(id).expect("a live id has a slot");
            assert_eq!(self.real.id_at(slot), Some(id));
            assert_eq!(self.real.element_at(slot).map(|e| e.id), Some(id));
            assert_eq!(
                self.real.last_referenced_at(slot),
                Some(entry.last_referenced)
            );
            for child in self.real.influenced_slots(slot) {
                let child = self.real.id_at(child).expect("a child slot is live");
                assert!(self.model.entries.contains_key(&child));
                assert!(
                    entry.children.iter().any(|&(_, c)| c == child),
                    "{child} is not a child of {id}"
                );
            }
        }
        assert_eq!(self.real.ids().count(), self.model.entries.len());
        assert!(
            self.real.slab_len() <= self.peak_len,
            "{} slots for at most {} live elements",
            self.real.slab_len(),
            self.peak_len
        );
    }
}

/// One random stream of `steps` slides through both windows.
fn run(seed: u64, window_len: u64, bucket_len: u64, steps: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = WindowConfig::new(window_len, bucket_len).unwrap();
    let mut pair = Pair {
        real: ActiveWindow::new(config),
        model: ModelWindow::new(config),
        seen: Vec::new(),
        next_id: 1,
        peak_len: 0,
    };
    let (mut saw_expiry, mut saw_reinsertion) = (false, false);
    for _ in 0..steps {
        let now = pair.real.now().raw();
        // Mostly one bucket ahead; sometimes no time passes, sometimes
        // several windows do.
        let target = match rng.gen_range(0..10) {
            0 => now,
            1 => now + window_len * rng.gen_range(1..=3u64) + rng.gen_range(0..bucket_len),
            _ => now + bucket_len,
        };
        for _ in 0..rng.gen_range(0..=6usize) {
            let ts = match rng.gen_range(0..8) {
                // late: anywhere back to two windows before the target
                0 => target.saturating_sub(rng.gen_range(0..=2 * window_len)),
                _ => rng.gen_range(now.min(target.saturating_sub(1))..=target),
            };
            let mut refs = Vec::new();
            for _ in 0..rng.gen_range(0..=3usize) {
                // Ids up to `next_id + 1`: active, expired or never seen.
                let parent = ElementId(rng.gen_range(1..=pair.next_id + 1));
                refs.push(parent);
                if rng.gen_range(0..6) == 0 {
                    refs.push(parent);
                }
                // Half the time, bring an expired parent back first.
                let archived = pair.seen.iter().find(|e| e.id == parent).cloned();
                if let Some(archived) = archived {
                    if !pair.real.contains(parent) && rng.gen_range(0..2) == 0 {
                        pair.insert(archived);
                        saw_reinsertion = true;
                    }
                }
            }
            // One insert in ten reuses an id, active or not.
            let id = if rng.gen_range(0..10) == 0 {
                rng.gen_range(1..=pair.next_id)
            } else {
                pair.next_id += 1;
                pair.next_id - 1
            };
            pair.insert(SocialElement {
                id: ElementId(id),
                ts: Timestamp(ts),
                doc: Document::new(),
                refs,
            });
        }
        pair.compare(rng.gen_range(0..=2 * window_len));
        let expected = pair.model.advance_to(Timestamp(target));
        let got = pair.real.advance_to(Timestamp(target)).ok();
        assert_eq!(got, expected, "advance_to({target}) from {now}");
        saw_expiry |= expected.is_some_and(|expired| !expired.is_empty());
        pair.compare(rng.gen_range(0..=2 * window_len));
    }
    // Moving backwards is refused by both and changes neither.
    if pair.real.now() > Timestamp::ZERO {
        let back = Timestamp(pair.real.now().raw() - 1);
        assert!(pair.real.advance_to(back).is_err());
        assert!(pair.model.advance_to(back).is_none());
        pair.compare(window_len);
    }
    assert!(saw_expiry, "the stream never expired anything");
    assert!(saw_reinsertion, "the stream never re-inserted a parent");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn indexed_window_agrees_with_the_full_scan(
        params in (any::<u64>(), 2u64..=12, 1u64..=4)
    ) {
        let (seed, window_len, bucket_len) = params;
        run(seed, window_len, bucket_len.min(window_len), 120);
    }
}
