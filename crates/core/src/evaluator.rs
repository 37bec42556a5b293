//! Incremental marginal-gain evaluation for k-SIR query processing.
//!
//! Every algorithm (MTTS, MTTD, CELF, SieveStreaming) repeatedly asks "what
//! would adding element `e` to candidate set `S` gain?".  Recomputing
//! `f(S ∪ {e}, x) − f(S, x)` from scratch costs `O(|S|·l·d)`; instead each
//! candidate keeps a [`CandidateState`] with
//!
//! * per query topic, the best word weight `max_{e∈S} σ_i(w, e)` for every
//!   word covered by `S`, and
//! * per query topic, the survival probability
//!   `Π_{e'∈S∩e.ref}(1 − p_i(e' ⤳ e))` for every window element influenced by
//!   some member of `S`.
//!
//! # Cost: one scoring pass per element, lookups per candidate
//!
//! Everything a gain needs *from the element* — `p_i(e)`, the word weights
//! `σ_i(w, e)` and the propagation probabilities `p_i(e ⤳ c)` on every
//! support topic — does not depend on the candidate.  An [`ElementProfile`]
//! is exactly those columns.  Building one ([`QueryEvaluator::profile_at`])
//! is the `O((|V_e| + |I_t(e)|)·d)` scoring pass the paper's analysis
//! charges per retrieved element, and the algorithms do it **at most once
//! per element per query**, when the first consumer needs it.
//!
//! The pass weighs nothing.  The word weights were computed when the element
//! was admitted: its [`ElementRow`](crate::ElementRow) keeps the `σ_i(w, e)`
//! column of every support topic, and the profile copies the column of each
//! query topic the element scores on.  The only `ln`s of the semantic half
//! are paid once per element, at admission.  What a profile still computes
//! is the influence half: one row index and one product per child and
//! topic.  `δ(e, x)`, every marginal gain
//! against every candidate, and the insert that follows an admission then
//! only read the profile: a gain is `(|V_e| + |I_t(e)|)·d` coverage lookups
//! with no transcendental, no allocation and no window or row access.
//!
//! Profiles live in a [`ProfileArena`] — one set of contiguous columns per
//! query, addressed by [`ProfileId`] — so keeping the profiles of every
//! buffered element (MTTD, CELF) costs no allocation per element, and the
//! one-element-at-a-time algorithms (MTTS, SieveStreaming, Top-k) clear and
//! refill the same buffers.
//!
//! # Coverage state: one map set per candidate, or one table for a grid
//!
//! MTTD, CELF and Top-k grow a single candidate and keep the
//! [`CandidateState`] above.  MTTS and SieveStreaming test each element
//! against a whole grid of candidates — one grid per requested result size —
//! and theirs live side by side as the columns of one [`CoverageTable`] per
//! traversal.  Testing an element against every candidate that wants it
//! ([`QueryEvaluator::column_gains`]) and admitting it into every candidate
//! that takes it ([`QueryEvaluator::insert_columns`]) are each one probe per
//! word and child per slot, then a pass across the row, instead of one probe
//! per candidate.
//!
//! # Keys: no stream id is hashed
//!
//! The traversal hands each retrieved element over by window [`Slot`], so a
//! profile reaches the entry, the row and every child by index, and records
//! its children as slots.  Coverage state is keyed by [`WordId`] and by
//! child slot, both assigned by the engine, through
//! [`DenseMap`] — one multiply per key where the
//! default hasher runs SipHash.  The one id probe left is the window's
//! ([`QueryEvaluator::profile`], and the traversal's per popped tuple).
//!
//! The id-taking [`QueryEvaluator::delta`] / [`QueryEvaluator::marginal_gain`]
//! / [`QueryEvaluator::insert`] profile into a throw-away arena and delegate,
//! so outside the from-scratch reference in [`crate::scorer`] the crate has
//! one word-weight loop, at row construction, and one child-propagation
//! loop, here.  All three
//! consumers sum in the order the per-call kernel used, so every `f64` they
//! return is bit-identical to it (pinned by `tests/kernel_identity.rs`).

use std::cell::Cell;

use crate::stream::{ActiveWindow, Slot};
use ksir_types::{ElementId, QueryVector, TopicId, TopicWordDistribution, WordId};

use crate::dense::{DenseKey, DenseMap};
use crate::scorer::{propagation_prob, Scorer};

/// Column storage for the [`ElementProfile`]s of one query: every profile's
/// `p_i(e)` run, word run, weight run, child run and propagation run sit back
/// to back in five shared vectors, so profiling an element allocates nothing
/// once the vectors have grown.
///
/// An arena is per-query scratch.  Only the evaluator that filled it can read
/// it back meaningfully: the columns are parallel to that evaluator's query
/// support and describe that evaluator's window state.
///
/// A dropped arena leaves its (emptied) vectors behind for the next arena
/// created on the same thread.  A standing-query refresh is a handful of
/// microseconds, and growing six fresh vectors was over one of them (7.7 µs
/// per refresh against 6.1 µs with reuse, for a two-topic MTTD subscription
/// over a 200-element window).  Columns that outgrew 256 KiB in total are
/// freed instead.
#[derive(Debug)]
pub struct ProfileArena {
    columns: Columns,
}

#[derive(Debug, Default)]
struct Columns {
    /// Where each profile's runs start; a run ends where the next profile's
    /// begins (or at the end of the column).
    entries: Vec<ProfileEntry>,
    /// `p_i(e)` per support slot.
    topic_probs: Vec<f64>,
    /// The document's distinct words, ascending.
    words: Vec<WordId>,
    /// `σ_i(w, e)`, slot-major within a profile: slot `s` owns the `s`-th
    /// `|words|`-long stretch of the profile's run (zeros where `p_i(e) = 0`).
    weights: Vec<f64>,
    /// The slots of `I_t(e)` in influence (reference-arrival) order.
    children: Vec<Slot>,
    /// `p_i(e ⤳ c)`, slot-major like `weights`.
    propagation: Vec<f64>,
}

#[derive(Debug, Clone, Copy)]
struct ProfileEntry {
    id: ElementId,
    active: bool,
    start: ColumnOffsets,
}

/// One position in each of the five data columns.
#[derive(Debug, Clone, Copy, Default)]
struct ColumnOffsets {
    topic_probs: usize,
    words: usize,
    weights: usize,
    children: usize,
    propagation: usize,
}

/// Handle to one profile in the [`ProfileArena`] that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileId(u32);

thread_local! {
    /// The vectors of the last arena dropped on this thread.
    static SPARE_COLUMNS: Cell<Option<Columns>> = const { Cell::new(None) };
}

/// Largest arena, in bytes over all six columns, worth keeping for reuse: an
/// arena that profiled a whole window for an exhaustive baseline gives its
/// memory back — also when most of those elements missed the query, so that
/// only the columns every profile writes (`entries`, `topic_probs`) grew.
const SPARE_BYTES_LIMIT: usize = 1 << 18;

impl Default for ProfileArena {
    fn default() -> Self {
        ProfileArena {
            columns: SPARE_COLUMNS.take().unwrap_or_default(),
        }
    }
}

impl Drop for ProfileArena {
    fn drop(&mut self) {
        let mut columns = std::mem::take(&mut self.columns);
        if columns.capacity_bytes() <= SPARE_BYTES_LIMIT {
            columns.clear();
            // Unreachable thread-local storage (thread teardown) just means
            // the buffers are freed like any others.
            let _ = SPARE_COLUMNS.try_with(|spare| spare.set(Some(columns)));
        }
    }
}

impl Columns {
    /// The bytes the six vectors have allocated.
    fn capacity_bytes(&self) -> usize {
        fn bytes<T>(column: &Vec<T>) -> usize {
            column.capacity() * std::mem::size_of::<T>()
        }
        bytes(&self.entries)
            + bytes(&self.topic_probs)
            + bytes(&self.words)
            + bytes(&self.weights)
            + bytes(&self.children)
            + bytes(&self.propagation)
    }

    /// The position just past the last profile, in every data column.
    fn end(&self) -> ColumnOffsets {
        ColumnOffsets {
            topic_probs: self.topic_probs.len(),
            words: self.words.len(),
            weights: self.weights.len(),
            children: self.children.len(),
            propagation: self.propagation.len(),
        }
    }

    /// Cuts the arena back to its first `profiles` profiles, which end at
    /// `end`.
    fn truncate(&mut self, profiles: usize, end: ColumnOffsets) {
        self.entries.truncate(profiles);
        self.topic_probs.truncate(end.topic_probs);
        self.words.truncate(end.words);
        self.weights.truncate(end.weights);
        self.children.truncate(end.children);
        self.propagation.truncate(end.propagation);
    }

    fn clear(&mut self) {
        self.truncate(0, ColumnOffsets::default());
    }
}

impl ProfileArena {
    /// Drops every profile, keeping the buffers.  Outstanding [`ProfileId`]s
    /// become invalid.
    pub fn clear(&mut self) {
        self.columns.clear();
    }

    /// Drops the most recently added profile — for an element that turned out
    /// not to be worth keeping.
    pub fn pop(&mut self) {
        if let Some(&ProfileEntry { start, .. }) = self.columns.entries.last() {
            let profiles = self.columns.entries.len() - 1;
            self.columns.truncate(profiles, start);
        }
    }

    /// The columns of one profile.
    ///
    /// # Panics
    ///
    /// If `id` was not issued by this arena since its last
    /// [`clear`](ProfileArena::clear).
    pub fn get(&self, id: ProfileId) -> ElementProfile<'_> {
        let columns = &self.columns;
        let index = id.0 as usize;
        let ProfileEntry { id, active, start } = columns.entries[index];
        let end = columns
            .entries
            .get(index + 1)
            .map_or_else(|| columns.end(), |next| next.start);
        ElementProfile {
            id,
            active,
            topic_probs: &columns.topic_probs[start.topic_probs..end.topic_probs],
            words: &columns.words[start.words..end.words],
            weights: &columns.weights[start.weights..end.weights],
            children: &columns.children[start.children..end.children],
            propagation: &columns.propagation[start.propagation..end.propagation],
        }
    }
}

/// The candidate-independent part of scoring one element against one query,
/// as stored in a [`ProfileArena`]: per query-support slot, `p_i(e)`, the
/// word-weight column `σ_i(w, e)` in [`Document`](ksir_types::Document)
/// (ascending-word) order and the propagation column `p_i(e ⤳ c)` in
/// influence (reference-arrival) order.
///
/// Built by [`QueryEvaluator::profile`]; read by
/// [`QueryEvaluator::delta_of`], [`QueryEvaluator::gain_of`] and
/// [`QueryEvaluator::insert_profile`].
#[derive(Debug, Clone, Copy)]
pub struct ElementProfile<'a> {
    id: ElementId,
    /// Whether the element was active when profiled; an inactive element has
    /// no words, no children and zero gain.
    active: bool,
    topic_probs: &'a [f64],
    words: &'a [WordId],
    weights: &'a [f64],
    children: &'a [Slot],
    propagation: &'a [f64],
}

impl<'a> ElementProfile<'a> {
    /// The profiled element.
    pub fn id(&self) -> ElementId {
        self.id
    }

    /// Whether the element was active when profiled.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Returns `true` if the element has non-zero probability on slot `slot`
    /// of the query support — the only slots whose columns are populated.
    fn scores_on(&self, slot: usize) -> bool {
        self.topic_probs[slot] > 0.0
    }

    /// Slot `slot`'s word column: `(w, σ_i(w, e))` in document order.
    fn word_column(&self, slot: usize) -> impl Iterator<Item = (WordId, f64)> + 'a {
        let n = self.words.len();
        self.words
            .iter()
            .zip(&self.weights[slot * n..(slot + 1) * n])
            .map(|(&w, &weight)| (w, weight))
    }

    /// Slot `slot`'s child column: `(c, p_i(e ⤳ c))` in influence order,
    /// each child named by its window slot.
    fn child_column(&self, slot: usize) -> impl Iterator<Item = (Slot, f64)> + 'a {
        let m = self.children.len();
        self.children
            .iter()
            .zip(&self.propagation[slot * m..(slot + 1) * m])
            .map(|(&c, &p)| (c, p))
    }
}

/// Incremental state of one candidate result set.
#[derive(Debug, Clone)]
pub struct CandidateState {
    members: Vec<ElementId>,
    score: f64,
    /// Parallel to the query support: per-topic coverage state.
    topics: Vec<TopicState>,
}

#[derive(Debug, Clone)]
struct TopicState {
    /// Best word weight `max_{e∈S} σ_i(w, e)` per covered word.
    word_best: DenseMap<WordId, f64>,
    /// Survival probability `Π (1 − p_i(e' ⤳ c))` per influenced element `c`,
    /// keyed by `c`'s window slot.
    child_survival: DenseMap<Slot, f64>,
}

impl CandidateState {
    fn new(num_query_topics: usize) -> Self {
        CandidateState {
            members: Vec::new(),
            score: 0.0,
            topics: (0..num_query_topics)
                .map(|_| TopicState {
                    word_best: DenseMap::new(),
                    child_survival: DenseMap::new(),
                })
                .collect(),
        }
    }

    /// Elements currently in the candidate, in insertion order.
    pub fn members(&self) -> &[ElementId] {
        &self.members
    }

    /// Number of elements in the candidate.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Returns `true` if the candidate is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Returns `true` if `id` is already a member.
    pub fn contains(&self, id: ElementId) -> bool {
        self.members.contains(&id)
    }

    /// The candidate's current score `f(S, x)`, maintained incrementally.
    pub fn score(&self) -> f64 {
        self.score
    }
}

/// Coverage state of many candidate sets over one query, stored column-wise:
/// the layout of the grid algorithms (MTTS, SieveStreaming), which test every
/// element against a whole grid of candidates per result size.
///
/// Per query-support slot, each covered word (influenced element) owns one
/// row of `width` cells, and each candidate owns one *column* of every row —
/// its best word weight (its survival probability) for that row's key.  A
/// gain against any number of columns therefore probes each word and child
/// once per slot and then reads across the row
/// ([`QueryEvaluator::column_gains`]), and an insert into any number of
/// columns probes once and writes across it
/// ([`QueryEvaluator::insert_columns`]), where one [`CandidateState`] per
/// candidate would probe once per candidate.  A cell nobody wrote holds what
/// a missing [`CandidateState`] entry reads as — `0.0` for a word, `1.0` for
/// a survival — so a column always equals the `CandidateState` grown by the
/// same inserts, bit for bit.
///
/// Rows are only ever added by inserts, so the table grows with the members
/// the candidates hold, not with the elements tested against them.  The
/// one-candidate algorithms keep [`CandidateState`]: with a single column the
/// row indirection buys nothing.
#[derive(Debug)]
pub struct CoverageTable {
    /// Parallel to the query support.
    slots: Vec<SlotTable>,
    /// `(semantic, influence)` accumulators of the gain in progress, one
    /// pair per tested column.
    partial: Vec<(f64, f64)>,
}

#[derive(Debug)]
struct SlotTable {
    /// Best word weights `max_{e∈S} σ_i(w, e)`: one row per covered word.
    word_best: CoverageRows<WordId>,
    /// Survival probabilities `Π (1 − p_i(e' ⤳ c))`: one row per influenced
    /// element, keyed by its window slot.
    child_survival: CoverageRows<Slot>,
}

/// Rows of `width` cells addressed by key, in one flat vector.
#[derive(Debug)]
struct CoverageRows<K: DenseKey> {
    /// What a cell no insert has written holds.
    fresh: f64,
    rows: DenseMap<K, usize>,
    /// Row `r` is `cells[r * width..(r + 1) * width]`.
    cells: Vec<f64>,
    /// What an absent key's row reads as: `width` fresh cells.
    absent: Vec<f64>,
}

impl<K: DenseKey> CoverageRows<K> {
    fn new(width: usize, fresh: f64) -> Self {
        CoverageRows {
            fresh,
            rows: DenseMap::new(),
            cells: Vec::new(),
            absent: vec![fresh; width],
        }
    }

    /// The row of `key`, across every column.
    fn row(&self, key: K) -> &[f64] {
        let width = self.absent.len();
        match self.rows.get(key) {
            Some(&row) => &self.cells[row * width..(row + 1) * width],
            None => &self.absent,
        }
    }

    /// The row of `key`, across every column, which is added (fresh) if
    /// missing.
    fn row_mut(&mut self, key: K) -> &mut [f64] {
        let width = self.absent.len();
        let next = self.rows.len();
        let row = *self.rows.get_or_insert(key, next);
        if row == next {
            self.cells.resize((next + 1) * width, self.fresh);
        }
        &mut self.cells[row * width..(row + 1) * width]
    }

    /// Makes `column` fresh in every row.
    fn reset_column(&mut self, column: usize) {
        let width = self.absent.len();
        for row in self.cells.chunks_exact_mut(width) {
            row[column] = self.fresh;
        }
    }
}

impl CoverageTable {
    /// Empties one column — every cell reads as never written — so the
    /// column can serve a new candidate.
    ///
    /// # Panics
    ///
    /// If `column` is not below the width the table was created with (and
    /// the table has rows to index).
    pub fn reset_column(&mut self, column: usize) {
        for slot in &mut self.slots {
            slot.word_best.reset_column(column);
            slot.child_survival.reset_column(column);
        }
    }
}

/// Evaluates singleton scores and marginal gains for one k-SIR query, counting
/// how many evaluations were performed.
#[derive(Debug)]
pub struct QueryEvaluator<'a, D> {
    scorer: Scorer<'a, D>,
    /// Non-zero entries of the query vector: `(topic, x_i)`.
    support: Vec<(TopicId, f64)>,
    gain_evaluations: Cell<usize>,
}

impl<'a, D: TopicWordDistribution> QueryEvaluator<'a, D> {
    /// Creates an evaluator for a query over the state `scorer` reads.
    pub fn new(scorer: Scorer<'a, D>, query: &QueryVector) -> Self {
        QueryEvaluator {
            scorer,
            support: query.support(),
            gain_evaluations: Cell::new(0),
        }
    }

    /// The query support `(topic, weight)` pairs with `x_i > 0`.
    pub fn support(&self) -> &[(TopicId, f64)] {
        &self.support
    }

    /// The active window the evaluator profiles elements of.
    pub(crate) fn window(&self) -> &'a ActiveWindow {
        self.scorer.window()
    }

    /// Number of submodular-function evaluations performed so far.
    pub fn gain_evaluations(&self) -> usize {
        self.gain_evaluations.get()
    }

    fn bump(&self) {
        self.gain_evaluations.set(self.gain_evaluations.get() + 1);
    }

    /// Profiles one element into `arena`: one probe of the window's id index,
    /// then [`QueryEvaluator::profile_at`].  An id the window does not hold
    /// gets an inactive profile: no word, no child, zero everywhere.
    pub fn profile(&self, arena: &mut ProfileArena, id: ElementId) -> ProfileId {
        if let Some(slot) = self.scorer.window().slot(id) {
            return self.profile_at(arena, slot);
        }
        let arena = &mut arena.columns;
        let handle = ProfileId(arena.entries.len() as u32);
        let start = arena.end();
        arena.entries.push(ProfileEntry {
            id,
            active: false,
            start,
        });
        arena.topic_probs.extend(self.support.iter().map(|_| 0.0));
        handle
    }

    /// Profiles the element in `slot` of the evaluator's window into
    /// `arena`: the single `O((|V_e| + |I_t(e)|)·d)` pass every later `δ` /
    /// gain / insert of that element reads from.  The word weights are
    /// copied from the row's `σ` columns, which admission computed; the
    /// child-propagation loop is the query path's only one.  The entry, the
    /// row and every child are reached by slot: no id is hashed.  Not
    /// counted as a gain evaluation; the consumers are.
    ///
    /// An element with zero probability on every support topic gets an empty
    /// profile (no word, no child is looked at): it scores zero everywhere.
    ///
    /// # Panics
    ///
    /// If `slot` is not occupied in the evaluator's window.
    pub fn profile_at(&self, arena: &mut ProfileArena, slot: Slot) -> ProfileId {
        let arena = &mut arena.columns;
        let (window, rows) = (self.scorer.window(), self.scorer.rows());
        let element = window
            .element_at(slot)
            .expect("a profiled slot is occupied");
        let handle = ProfileId(arena.entries.len() as u32);
        let start = arena.end();
        arena.entries.push(ProfileEntry {
            id: element.id,
            active: true,
            start,
        });

        let row = rows.get(slot);
        arena.topic_probs.extend(
            self.support
                .iter()
                .map(|&(topic, _)| row.map_or(0.0, |row| row.prob(topic))),
        );
        let topic_probs = &arena.topic_probs[start.topic_probs..];
        if !topic_probs.iter().any(|&p| p > 0.0) {
            return handle;
        }
        let scored_slots = || {
            let slots = self.support.iter().zip(topic_probs).enumerate();
            slots.filter(|(_, (_, &p_elem))| p_elem > 0.0)
        };

        // The weights were computed at admission: each scored slot's run is
        // a copy of the row's column, in document order.
        let row = row.expect("an element with a scored slot has a row");
        let n = element.doc.distinct_words();
        arena.words.extend(element.doc.words());
        arena
            .weights
            .resize(start.weights + self.support.len() * n, 0.0);
        let weights = &mut arena.weights[start.weights..];
        for (slot, (&(topic, _), _)) in scored_slots() {
            weights[slot * n..(slot + 1) * n].copy_from_slice(row.weights(topic));
        }

        arena.children.extend(window.influenced_slots(slot));
        let children = &arena.children[start.children..];
        let m = children.len();
        arena
            .propagation
            .resize(start.propagation + self.support.len() * m, 0.0);
        let propagation = &mut arena.propagation[start.propagation..];
        for (c, &child) in children.iter().enumerate() {
            let Some(child_row) = rows.get(child) else {
                continue;
            };
            for (slot, (&(topic, _), &p_elem)) in scored_slots() {
                propagation[slot * m + c] = propagation_prob(p_elem, child_row.prob(topic));
            }
        }
        handle
    }

    /// Profiles `id` into a throw-away arena and hands the profile to `read`
    /// — the id-taking wrappers' path.
    fn with_profile<T>(&self, id: ElementId, read: impl FnOnce(ElementProfile<'_>) -> T) -> T {
        let mut arena = ProfileArena::default();
        let handle = self.profile(&mut arena, id);
        read(arena.get(handle))
    }

    /// The singleton score `δ(e, x)` of one element.
    pub fn delta(&self, id: ElementId) -> f64 {
        self.with_profile(id, |profile| self.delta_of(profile))
    }

    /// The singleton score `δ(e, x)` of a profiled element:
    /// `Σ_i x_i · f_i({e})`, each `f_i` summing its columns in document /
    /// influence order — bit-identical to
    /// [`Scorer::delta`](crate::scorer::Scorer::delta) and to the weighted
    /// sum of the element's stored ranked-list tuples.
    pub fn delta_of(&self, profile: ElementProfile<'_>) -> f64 {
        self.bump();
        let config = self.scorer.config();
        self.support
            .iter()
            .enumerate()
            .map(|(slot, &(_, x_i))| {
                let (semantic, influence) = if profile.scores_on(slot) {
                    (
                        profile.word_column(slot).map(|(_, weight)| weight).sum(),
                        profile.child_column(slot).map(|(_, p)| p).sum(),
                    )
                } else {
                    (0.0, 0.0)
                };
                // An inactive element has no document to sum over.
                let semantic = if profile.active { semantic } else { 0.0 };
                x_i * config.combine(semantic, influence)
            })
            .sum()
    }

    /// Creates an empty candidate set.
    pub fn new_candidate(&self) -> CandidateState {
        CandidateState::new(self.support.len())
    }

    /// The marginal gain `Δ(e | S)` of adding `id` to the candidate.
    ///
    /// Elements that are already members, or that are no longer active, have
    /// zero gain.
    pub fn marginal_gain(&self, state: &CandidateState, id: ElementId) -> f64 {
        self.with_profile(id, |profile| self.gain_of(state, profile))
    }

    /// The marginal gain `Δ(e | S)` of a profiled element: coverage lookups
    /// only.  Counted as one gain evaluation.
    pub fn gain_of(&self, state: &CandidateState, profile: ElementProfile<'_>) -> f64 {
        self.bump();
        if !profile.active || state.contains(profile.id) {
            return 0.0;
        }
        let config = self.scorer.config();
        let mut gain = 0.0;
        for (slot, &(_, x_i)) in self.support.iter().enumerate() {
            let topic_state = &state.topics[slot];
            let mut semantic = 0.0;
            let mut influence = 0.0;
            if profile.scores_on(slot) {
                // Semantic gain: words whose best weight improves.
                for (w, weight) in profile.word_column(slot) {
                    let current = topic_state.word_best.get(w).copied().unwrap_or(0.0);
                    if weight > current {
                        semantic += weight - current;
                    }
                }
                // Influence gain: extra coverage probability on influenced
                // elements.
                for (child, p) in profile.child_column(slot) {
                    if p <= 0.0 {
                        continue;
                    }
                    let survival = topic_state
                        .child_survival
                        .get(child)
                        .copied()
                        .unwrap_or(1.0);
                    influence += survival * p;
                }
            }
            gain += x_i * config.combine(semantic, influence);
        }
        gain
    }

    /// Inserts `id` into the candidate, updating coverage state and score.
    ///
    /// Returns the realised gain (equal to [`QueryEvaluator::marginal_gain`]
    /// at the moment of insertion).
    pub fn insert(&self, state: &mut CandidateState, id: ElementId) -> f64 {
        self.with_profile(id, |profile| self.insert_profile(state, profile))
    }

    /// Inserts a profiled element into the candidate, updating coverage state
    /// and score.  Returns the realised gain — bit-equal to
    /// [`QueryEvaluator::gain_of`] at the moment of insertion.  Not counted
    /// as a gain evaluation.
    pub fn insert_profile(&self, state: &mut CandidateState, profile: ElementProfile<'_>) -> f64 {
        if !profile.active || state.contains(profile.id) {
            return 0.0;
        }
        let config = self.scorer.config();
        let mut gain = 0.0;
        for (slot, &(_, x_i)) in self.support.iter().enumerate() {
            let topic_state = &mut state.topics[slot];
            let mut semantic = 0.0;
            let mut influence = 0.0;
            if profile.scores_on(slot) {
                for (w, weight) in profile.word_column(slot) {
                    let entry = topic_state.word_best.get_or_insert(w, 0.0);
                    if weight > *entry {
                        semantic += weight - *entry;
                        *entry = weight;
                    }
                }
                for (child, p) in profile.child_column(slot) {
                    if p <= 0.0 {
                        continue;
                    }
                    let survival = topic_state.child_survival.get_or_insert(child, 1.0);
                    influence += *survival * p;
                    *survival *= 1.0 - p;
                }
            }
            gain += x_i * config.combine(semantic, influence);
        }
        state.members.push(profile.id);
        state.score += gain;
        gain
    }

    /// Creates an empty coverage table of `width` candidate columns.
    pub fn new_table(&self, width: usize) -> CoverageTable {
        CoverageTable {
            slots: (0..self.support.len())
                .map(|_| SlotTable {
                    word_best: CoverageRows::new(width, 0.0),
                    child_survival: CoverageRows::new(width, 1.0),
                })
                .collect(),
            partial: Vec::new(),
        }
    }

    /// The marginal gains `Δ(e | S_c)` of a profiled element against the
    /// candidates in `columns`, written to `gains` in the same order: one
    /// coverage probe per word and child per slot, whatever the number of
    /// columns.  Each gain sums what [`QueryEvaluator::gain_of`] sums, in its
    /// order.  Counted as one gain evaluation per column.
    ///
    /// Membership is the caller's to check: the table does not know which
    /// elements a column holds.  An inactive element gains nothing anywhere.
    /// The table is only borrowed mutably for its scratch space.
    pub fn column_gains(
        &self,
        table: &mut CoverageTable,
        columns: &[usize],
        profile: ElementProfile<'_>,
        gains: &mut Vec<f64>,
    ) {
        self.gain_evaluations
            .set(self.gain_evaluations.get() + columns.len());
        gains.clear();
        gains.resize(columns.len(), 0.0);
        if !profile.active || columns.is_empty() {
            return;
        }
        let config = self.scorer.config();
        let CoverageTable { slots, partial } = table;
        for ((slot, &(_, x_i)), slot_table) in self.support.iter().enumerate().zip(&*slots) {
            partial.clear();
            partial.resize(columns.len(), (0.0, 0.0));
            if profile.scores_on(slot) {
                for (w, weight) in profile.word_column(slot) {
                    let row = slot_table.word_best.row(w);
                    for ((semantic, _), &column) in partial.iter_mut().zip(columns) {
                        let current = row[column];
                        if weight > current {
                            *semantic += weight - current;
                        }
                    }
                }
                for (child, p) in profile.child_column(slot) {
                    if p <= 0.0 {
                        continue;
                    }
                    let row = slot_table.child_survival.row(child);
                    for ((_, influence), &column) in partial.iter_mut().zip(columns) {
                        *influence += row[column] * p;
                    }
                }
            }
            for (gain, &(semantic, influence)) in gains.iter_mut().zip(&*partial) {
                *gain += x_i * config.combine(semantic, influence);
            }
        }
    }

    /// Inserts a profiled element into the candidates that own `columns`,
    /// writing each one's realised gain to `gains` in the same order: one
    /// coverage lookup per word and child per slot, whatever the number of
    /// columns, then a read-modify-write across the row.  Each column is
    /// updated as [`QueryEvaluator::insert_profile`] updates a
    /// [`CandidateState`], summing in its order, so each realised gain is
    /// bit-equal to the column's [`QueryEvaluator::column_gains`] entry at
    /// the moment of insertion.  Not counted as a gain evaluation.
    ///
    /// The caller keeps the candidates' members and scores, and must not
    /// name a column twice, insert an element into a column twice, or insert
    /// an inactive one (which changes nothing and gains zero).
    ///
    /// # Panics
    ///
    /// If a column is not below the width the table was created with.
    pub fn insert_columns(
        &self,
        table: &mut CoverageTable,
        columns: &[usize],
        profile: ElementProfile<'_>,
        gains: &mut Vec<f64>,
    ) {
        gains.clear();
        gains.resize(columns.len(), 0.0);
        // Nothing to write: keep the table from growing rows nobody holds.
        if !profile.active || columns.is_empty() {
            return;
        }
        let config = self.scorer.config();
        let CoverageTable { slots, partial } = table;
        for ((slot, &(_, x_i)), slot_table) in self.support.iter().enumerate().zip(slots) {
            partial.clear();
            partial.resize(columns.len(), (0.0, 0.0));
            if profile.scores_on(slot) {
                for (w, weight) in profile.word_column(slot) {
                    let row = slot_table.word_best.row_mut(w);
                    for ((semantic, _), &column) in partial.iter_mut().zip(columns) {
                        let best = &mut row[column];
                        if weight > *best {
                            *semantic += weight - *best;
                            *best = weight;
                        }
                    }
                }
                for (child, p) in profile.child_column(slot) {
                    if p <= 0.0 {
                        continue;
                    }
                    let row = slot_table.child_survival.row_mut(child);
                    for ((_, influence), &column) in partial.iter_mut().zip(columns) {
                        let survival = &mut row[column];
                        *influence += *survival * p;
                        *survival *= 1.0 - p;
                    }
                }
            }
            for (gain, &(semantic, influence)) in gains.iter_mut().zip(&*partial) {
                *gain += x_i * config.combine(semantic, influence);
            }
        }
    }

    /// Recomputes `f(S, x)` of an arbitrary element set from scratch (used to
    /// score final results and in consistency checks).
    pub fn score_of(&self, ids: &[ElementId]) -> f64 {
        let mut state = self.new_candidate();
        let mut arena = ProfileArena::default();
        for &id in ids {
            arena.clear();
            let handle = self.profile(&mut arena, id);
            self.insert_profile(&mut state, arena.get(handle));
        }
        state.score()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::config::ScoringConfig;
    use crate::row::{ElementRow, ElementRows};
    use crate::stream::WindowConfig;
    use ksir_types::{DenseTopicWordTable, SocialElementBuilder, Timestamp};

    /// Tiny two-topic fixture: three elements, one reference.
    fn fixture() -> (DenseTopicWordTable, ActiveWindow, ElementRows) {
        let phi = DenseTopicWordTable::from_rows(vec![
            vec![0.4, 0.3, 0.2, 0.1, 0.0, 0.0],
            vec![0.0, 0.0, 0.1, 0.2, 0.3, 0.4],
        ])
        .unwrap();
        let mut window = ActiveWindow::new(WindowConfig::new(10, 1).unwrap());
        let elements = [
            (
                SocialElementBuilder::new(1).at(1).words([0, 1, 2]).build(),
                [0.9, 0.1],
            ),
            (
                SocialElementBuilder::new(2).at(2).words([3, 4, 5]).build(),
                [0.1, 0.9],
            ),
            (
                SocialElementBuilder::new(3)
                    .at(3)
                    .words([2, 3])
                    .referencing(1)
                    .referencing(2)
                    .build(),
                [0.5, 0.5],
            ),
        ];
        let mut rows = ElementRows::new();
        for (element, [p0, p1]) in elements {
            let support = vec![(TopicId(0), p0), (TopicId(1), p1)];
            let row = ElementRow::new(&phi, &element.doc, support);
            let id = element.id;
            window.insert(element).unwrap();
            rows.insert(window.slot(id).unwrap(), Arc::new(row));
        }
        window.advance_to(Timestamp(3)).unwrap();
        (phi, window, rows)
    }

    #[test]
    fn incremental_gain_matches_scratch_scores() {
        let (phi, window, rows) = fixture();
        let config = ScoringConfig::new(0.5, 2.0).unwrap();
        let scorer = Scorer::new(&phi, config, &window, &rows);
        let query = QueryVector::new(vec![0.5, 0.5]).unwrap();
        let evaluator = QueryEvaluator::new(scorer, &query);

        let ids = [ElementId(1), ElementId(2), ElementId(3)];
        let mut state = evaluator.new_candidate();
        let mut running: Vec<ElementId> = Vec::new();
        for &id in &ids {
            let scratch = scorer.marginal_gain(&query, &running, id);
            let incremental = evaluator.marginal_gain(&state, id);
            assert!(
                (scratch - incremental).abs() < 1e-9,
                "gain mismatch for {id}: scratch={scratch}, incremental={incremental}"
            );
            let realised = evaluator.insert(&mut state, id);
            assert!((realised - scratch).abs() < 1e-9);
            running.push(id);
            let full = scorer.set_score(&query, &running);
            assert!(
                (full - state.score()).abs() < 1e-9,
                "running score mismatch: {} vs {}",
                full,
                state.score()
            );
        }
    }

    #[test]
    fn delta_matches_singleton_set_score() {
        let (phi, window, rows) = fixture();
        let config = ScoringConfig::default();
        let scorer = Scorer::new(&phi, config, &window, &rows);
        let query = QueryVector::new(vec![0.2, 0.8]).unwrap();
        let evaluator = QueryEvaluator::new(scorer, &query);
        for id in [ElementId(1), ElementId(2), ElementId(3)] {
            let d = evaluator.delta(id);
            let s = scorer.set_score(&query, &[id]);
            assert!((d - s).abs() < 1e-12);
        }
    }

    #[test]
    fn duplicate_and_unknown_elements_have_zero_gain() {
        let (phi, window, rows) = fixture();
        let config = ScoringConfig::default();
        let scorer = Scorer::new(&phi, config, &window, &rows);
        let query = QueryVector::new(vec![0.5, 0.5]).unwrap();
        let evaluator = QueryEvaluator::new(scorer, &query);
        let mut state = evaluator.new_candidate();
        evaluator.insert(&mut state, ElementId(1));
        assert_eq!(evaluator.marginal_gain(&state, ElementId(1)), 0.0);
        assert_eq!(evaluator.insert(&mut state, ElementId(1)), 0.0);
        assert_eq!(state.len(), 1);
        assert_eq!(evaluator.marginal_gain(&state, ElementId(99)), 0.0);
    }

    #[test]
    fn evaluation_counter_increments() {
        let (phi, window, rows) = fixture();
        let config = ScoringConfig::default();
        let scorer = Scorer::new(&phi, config, &window, &rows);
        let query = QueryVector::new(vec![0.5, 0.5]).unwrap();
        let evaluator = QueryEvaluator::new(scorer, &query);
        assert_eq!(evaluator.gain_evaluations(), 0);
        let state = evaluator.new_candidate();
        evaluator.delta(ElementId(1));
        evaluator.marginal_gain(&state, ElementId(2));
        assert_eq!(evaluator.gain_evaluations(), 2);
    }

    /// A query-sized arena leaves its columns to the next arena on the
    /// thread; one that profiled as many elements as an exhaustive baseline
    /// does gives them back — also when none of the elements scores on the
    /// query, so that only `entries` and `topic_probs` grew.
    #[test]
    fn exhaustive_arenas_are_not_kept_for_reuse() {
        let (phi, window, rows) = fixture();
        let scorer = Scorer::new(&phi, ScoringConfig::default(), &window, &rows);
        let query = QueryVector::new(vec![0.5, 0.5]).unwrap();
        let evaluator = QueryEvaluator::new(scorer, &query);
        // Takes the thread's spare columns and puts them back.
        let spare_entries = || ProfileArena::default().columns.entries.capacity();

        let mut arena = ProfileArena::default();
        evaluator.profile(&mut arena, ElementId(1));
        drop(arena);
        assert!(spare_entries() > 0);

        // Ids outside the window: an entry and two topic probabilities each,
        // nothing else.
        let mut arena = ProfileArena::default();
        for id in 1_000..21_000 {
            evaluator.profile(&mut arena, ElementId(id));
        }
        assert!(arena.columns.weights.is_empty());
        assert!(arena.columns.capacity_bytes() > SPARE_BYTES_LIMIT);
        drop(arena);
        assert_eq!(spare_entries(), 0);
    }

    #[test]
    fn submodularity_of_incremental_gains() {
        let (phi, window, rows) = fixture();
        let config = ScoringConfig::new(0.5, 2.0).unwrap();
        let scorer = Scorer::new(&phi, config, &window, &rows);
        let query = QueryVector::new(vec![0.5, 0.5]).unwrap();
        let evaluator = QueryEvaluator::new(scorer, &query);
        // gain of e3 w.r.t. ∅ is at least its gain w.r.t. {e1} and {e1, e2}.
        let empty = evaluator.new_candidate();
        let mut one = evaluator.new_candidate();
        evaluator.insert(&mut one, ElementId(1));
        let mut two = one.clone();
        evaluator.insert(&mut two, ElementId(2));
        let g0 = evaluator.marginal_gain(&empty, ElementId(3));
        let g1 = evaluator.marginal_gain(&one, ElementId(3));
        let g2 = evaluator.marginal_gain(&two, ElementId(3));
        assert!(g0 >= g1 - 1e-12);
        assert!(g1 >= g2 - 1e-12);
        assert!(g2 >= 0.0);
    }
}
