//! The geometric grid of guesses `Φ = {(1+ε)^j}` for the optimal score that
//! MTTS and SieveStreaming both thread their candidates through.
//!
//! Each guess owns an independent candidate set.  Its value `(1+ε)^j` and the
//! admission threshold `(1+ε)^j / 2k` are computed once, when the guess
//! enters the grid, and stored next to the candidate — the element loops only
//! ever compare against stored numbers.
//!
//! A traversal keeps one [`GuessGrid`] per requested result size in a
//! [`GridSet`], and every candidate of every size is a column of the set's
//! one [`CoverageTable`], each grid drawing its columns from a range of its
//! own.  Offering an element to every guess of every size that wants it
//! ([`GridSet::offer`]) probes each of its words and children once to read
//! all the gains and once to admit it wherever it is taken — not once per
//! guess, and not once per size.

use ksir_types::{ElementId, TopicWordDistribution};

use crate::evaluator::{CoverageTable, ElementProfile, QueryEvaluator};

/// One guess `ϕ = (1+ε)^j` and the candidate set it owns.
#[derive(Debug)]
pub(crate) struct Guess {
    /// The exponent `j`.
    pub exponent: i64,
    /// `ϕ = (1+ε)^j` — SieveStreaming's target value `v`.
    pub value: f64,
    /// `ϕ / 2k` — MTTS's admission threshold.
    pub threshold: f64,
    /// The candidate's column of the set's coverage table.
    column: usize,
    /// The candidate set grown under this guess, in insertion order.
    pub members: Vec<ElementId>,
    /// The candidate's score `f(S, x)`, maintained incrementally.
    pub score: f64,
}

/// `Φ = {(1+ε)^j : δmax ≤ (1+ε)^j ≤ 2k·δmax}`, ascending in `j`, re-anchored
/// whenever a larger singleton score is observed.
#[derive(Debug)]
pub(crate) struct GuessGrid {
    base: f64,
    k: usize,
    /// `2k`, as the float both grid bounds and thresholds are computed with.
    two_k: f64,
    max_singleton: f64,
    guesses: Vec<Guess>,
    /// Columns of the grid's range that no live guess owns, all of them
    /// empty.
    free_columns: Vec<usize>,
    /// Gain evaluations charged to this grid's guesses.
    gain_evaluations: usize,
}

impl GuessGrid {
    /// The most guesses a grid for result size `k` and `ε` holds at once,
    /// and so the columns it needs.  The live exponents are
    /// `⌈x⌉..=⌊x + ln 2k / ln(1+ε)⌋` for some `x`: at most
    /// `⌊ln 2k / ln(1+ε)⌋ + 1` of them, and one more in case rounding lands
    /// the two ends on different sides of an integer.
    fn width(k: usize, epsilon: f64) -> usize {
        ((2.0 * k as f64).ln() / (1.0 + epsilon).ln()).floor() as usize + 2
    }

    /// An empty grid for result size `k` and `ε` whose candidates use the
    /// table columns `first..first + GuessGrid::width(k, epsilon)`.
    fn new(k: usize, epsilon: f64, first: usize) -> Self {
        let width = Self::width(k, epsilon);
        GuessGrid {
            base: 1.0 + epsilon,
            k,
            two_k: 2.0 * k as f64,
            max_singleton: 0.0,
            guesses: Vec::new(),
            free_columns: (first..first + width).rev().collect(),
            gain_evaluations: 0,
        }
    }

    /// Feeds one positive singleton score.  When it raises `δmax`, guesses
    /// that fell below the new range are dropped (with their candidates, whose
    /// columns of `table` are emptied), surviving guesses keep theirs, and the
    /// new top of the range is opened with empty candidates.
    fn observe(&mut self, table: &mut CoverageTable, delta: f64) {
        if delta <= self.max_singleton {
            return;
        }
        self.max_singleton = delta;
        let lo = (delta.ln() / self.base.ln()).ceil() as i64;
        let hi = ((self.two_k * delta).ln() / self.base.ln()).floor() as i64;
        // δmax only grows, so `lo` only grows: the guesses that fell out are
        // a prefix, what survives is a gapless run starting at `lo`, and the
        // missing exponents are all above it.
        let dropped = self.guesses.partition_point(|guess| guess.exponent < lo);
        for guess in self.guesses.drain(..dropped) {
            // A column nothing was inserted into is empty as it stands.
            if !guess.members.is_empty() {
                table.reset_column(guess.column);
            }
            self.free_columns.push(guess.column);
        }
        debug_assert!(self.guesses.last().is_none_or(|guess| guess.exponent <= hi));
        let next = self.guesses.last().map_or(lo, |guess| guess.exponent + 1);
        for exponent in next..=hi {
            let value = self.base.powf(exponent as f64);
            let column = self
                .free_columns
                .pop()
                .expect("the range is as wide as the grid can get");
            self.guesses.push(Guess {
                exponent,
                value,
                threshold: value / self.two_k,
                column,
                members: Vec::new(),
                score: 0.0,
            });
        }
    }

    /// Returns `true` while no positive singleton score has been observed.
    pub fn is_empty(&self) -> bool {
        self.guesses.is_empty()
    }

    /// The live guesses, ascending in `j` (and therefore in value and
    /// threshold).
    pub fn guesses(&self) -> &[Guess] {
        &self.guesses
    }

    /// Gain evaluations charged to this grid's guesses by
    /// [`GridSet::offer`]: what the grid's result size is charged for them.
    pub fn gain_evaluations(&self) -> usize {
        self.gain_evaluations
    }

    /// The smallest admission threshold among candidates still below `k`
    /// members (MTTS's `TH`) — the first unfilled guess's, thresholds being
    /// ascending; infinite when every candidate is full.
    pub fn min_unfilled_threshold(&self) -> f64 {
        let mut guesses = self.guesses.iter();
        let unfilled = guesses.find(|guess| guess.members.len() < self.k);
        unfilled.map_or(f64::INFINITY, |guess| guess.threshold)
    }

    /// How many guesses — a prefix of the grid — have an admission threshold
    /// of at most `delta`.
    pub fn reach(&self, delta: f64) -> usize {
        self.guesses
            .partition_point(|guess| guess.threshold <= delta)
    }

    /// The members and score of the best-scoring candidate (the last of
    /// equals in ascending `j`).
    pub fn into_best(self) -> Option<(Vec<ElementId>, f64)> {
        self.guesses
            .into_iter()
            .max_by(|a, b| a.score.total_cmp(&b.score))
            .map(|guess| (guess.members, guess.score))
    }
}

/// One [`GuessGrid`] per result size over one [`CoverageTable`]: the grids'
/// column ranges are disjoint, so no size reads another's coverage, and one
/// element is tested and admitted against all of them at once.
#[derive(Debug)]
pub(crate) struct GridSet {
    table: CoverageTable,
    grids: Vec<GuessGrid>,
    /// Scratch of [`GridSet::offer`]: the `(grid, guess)` of each tested —
    /// then of each admitting — candidate, its column, and the gains.
    tested: Vec<(usize, usize)>,
    columns: Vec<usize>,
    gains: Vec<f64>,
}

impl GridSet {
    /// Empty grids for the result sizes `sizes` and `ε`, in that order, over
    /// `evaluator`'s support.
    pub fn new<D: TopicWordDistribution>(
        sizes: &[usize],
        epsilon: f64,
        evaluator: &QueryEvaluator<'_, D>,
    ) -> Self {
        let mut width = 0;
        let grids = sizes
            .iter()
            .map(|&k| {
                let grid = GuessGrid::new(k, epsilon, width);
                width += GuessGrid::width(k, epsilon);
                grid
            })
            .collect();
        GridSet {
            table: evaluator.new_table(width),
            grids,
            tested: Vec::new(),
            columns: Vec::new(),
            gains: Vec::new(),
        }
    }

    /// The grids, one per size, in the order the sizes were given.
    pub fn grids(&self) -> &[GuessGrid] {
        &self.grids
    }

    /// Feeds one positive singleton score to the grid of size number `size`
    /// ([`GuessGrid`]'s re-anchoring).
    pub fn observe(&mut self, size: usize, delta: f64) {
        self.grids[size].observe(&mut self.table, delta);
    }

    /// Offers one profiled element, not offered before, to every candidate
    /// below its size's `k` members among the first `reach[s]` guesses of
    /// each size `s`: each one's marginal gain is evaluated (one gain
    /// evaluation, charged to its grid), and the element joins the
    /// candidates for which `admits(k, guess, gain)` holds.
    ///
    /// All gains are read by one [`QueryEvaluator::column_gains`] call before
    /// the element is inserted by one [`QueryEvaluator::insert_columns`]
    /// call; the candidates are independent, so this equals testing and
    /// admitting guess by guess, size by size.
    pub fn offer<D: TopicWordDistribution>(
        &mut self,
        evaluator: &QueryEvaluator<'_, D>,
        profile: ElementProfile<'_>,
        reach: &[usize],
        mut admits: impl FnMut(usize, &Guess, f64) -> bool,
    ) {
        let GridSet {
            table,
            grids,
            tested,
            columns,
            gains,
        } = self;
        tested.clear();
        columns.clear();
        for (size, (grid, &reach)) in grids.iter_mut().zip(reach).enumerate() {
            let before = columns.len();
            for (at, guess) in grid.guesses[..reach].iter().enumerate() {
                if guess.members.len() < grid.k {
                    tested.push((size, at));
                    columns.push(guess.column);
                }
            }
            grid.gain_evaluations += columns.len() - before;
        }
        evaluator.column_gains(table, columns, profile, gains);
        let (active, id) = (profile.is_active(), profile.id());
        let mut tested_gains = gains.iter();
        tested.retain(|&(size, at)| {
            let gain = *tested_gains.next().expect("one gain per tested column");
            let grid = &grids[size];
            let guess = &grid.guesses[at];
            // No candidate already holds the element: every caller offers an
            // element once per query (the traversal pops each element once,
            // the window scan walks distinct ids), so the membership scan
            // the k-member candidates would cost per tested column is left
            // to debug builds.
            debug_assert!(!guess.members.contains(&id), "{id} offered twice");
            // An inactive element joins no candidate.
            active && admits(grid.k, guess, gain)
        });
        columns.clear();
        columns.extend(
            tested
                .iter()
                .map(|&(size, at)| grids[size].guesses[at].column),
        );
        evaluator.insert_columns(table, columns, profile, gains);
        for (&(size, at), &gain) in tested.iter().zip(&*gains) {
            let guess = &mut grids[size].guesses[at];
            guess.score += gain;
            guess.members.push(id);
        }
    }

    /// The grids, one per size, in the order the sizes were given.
    pub fn into_grids(self) -> Vec<GuessGrid> {
        self.grids
    }

    /// What the last [`GridSet::offer`] admitted: `(size, guess, realised
    /// gain)` per candidate the element joined.
    #[cfg(test)]
    fn admitted(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        let admitted = self.tested.iter().zip(&self.gains);
        admitted.map(|(&(size, at), &gain)| (size, at, gain))
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use crate::stream::WindowConfig;
    use ksir_types::{
        DenseTopicWordTable, QueryVector, SocialElementBuilder, Timestamp, TopicVector,
    };

    use super::*;
    use crate::evaluator::{CandidateState, ProfileArena};
    use crate::fixtures::paper_example;
    use crate::{EngineConfig, KsirEngine, KsirQuery, ScoringConfig};

    /// After every re-anchoring, each live guess's stored numbers are the
    /// freshly computed `base.powf(j)` expressions, bit for bit, and the
    /// grid is exactly `lo..=hi` — what the per-iteration `powf` calls of the
    /// MTTS / SieveStreaming loops used to produce.
    #[test]
    fn stored_thresholds_equal_fresh_powf_after_every_refresh() {
        let ex = paper_example();
        let engine = ex.build_engine();
        for (k, epsilon) in [(1usize, 0.1), (3, 0.1), (10, 0.1), (25, 0.05), (10, 0.5)] {
            let query = KsirQuery::new(k, QueryVector::new(vec![0.5, 0.5]).unwrap())
                .unwrap()
                .with_epsilon(epsilon)
                .unwrap();
            let evaluator = crate::QueryEvaluator::new(engine.scorer(), query.vector());
            let base = 1.0 + epsilon;
            let mut grids = GridSet::new(&[query.k()], query.epsilon(), &evaluator);
            assert!(grids.grids()[0].is_empty());
            assert_eq!(grids.grids()[0].min_unfilled_threshold(), f64::INFINITY);
            // Rising, repeated and falling singleton scores, over six orders
            // of magnitude (large jumps drop the whole grid).
            let deltas = [
                1e-4, 1.3e-4, 1.3e-4, 9e-5, 2e-3, 2.1e-3, 0.4, 0.39, 7.5, 160.0,
            ];
            let mut delta_max = 0.0_f64;
            for delta in deltas {
                grids.observe(0, delta);
                let grid = &grids.grids()[0];
                delta_max = delta_max.max(delta);
                let lo = (delta_max.ln() / base.ln()).ceil() as i64;
                let hi = ((2.0 * k as f64 * delta_max).ln() / base.ln()).floor() as i64;
                let exponents: Vec<i64> = grid.guesses().iter().map(|g| g.exponent).collect();
                assert_eq!(exponents, (lo..=hi).collect::<Vec<_>>());
                for guess in grid.guesses() {
                    let j = guess.exponent;
                    assert_eq!(guess.value.to_bits(), base.powf(j as f64).to_bits());
                    assert_eq!(
                        guess.threshold.to_bits(),
                        (base.powf(j as f64) / (2.0 * k as f64)).to_bits()
                    );
                }
                assert_eq!(
                    grid.min_unfilled_threshold().to_bits(),
                    (base.powf(lo as f64) / (2.0 * k as f64)).to_bits()
                );
            }
        }
    }

    /// Re-anchoring keeps the candidates of surviving guesses, and a guess
    /// that takes over a dropped guess's column starts from an empty one.
    #[test]
    fn surviving_guesses_keep_their_candidates() {
        let ex = paper_example();
        let engine = ex.build_engine();
        let query = KsirQuery::new(2, QueryVector::new(vec![0.5, 0.5]).unwrap()).unwrap();
        let evaluator = crate::QueryEvaluator::new(engine.scorer(), query.vector());
        let mut arena = ProfileArena::default();
        let profile = evaluator.profile(&mut arena, engine.active_ids()[0]);
        let profile = arena.get(profile);
        let delta = evaluator.delta_of(profile);
        assert!(delta > 0.0);

        let mut grids = GridSet::new(&[query.k()], query.epsilon(), &evaluator);
        grids.observe(0, 0.2);
        let top = grids.grids()[0].guesses().last().unwrap().exponent;
        let every_guess = grids.grids()[0].guesses().len();
        grids.offer(&evaluator, profile, &[every_guess], |_, _, _| true);
        let grid = &grids.grids()[0];
        assert!(grid.guesses().iter().all(|guess| guess.score == delta));

        grids.observe(0, 0.25);
        let grid = &grids.grids()[0];
        for guess in grid.guesses() {
            assert_eq!(guess.members.len(), usize::from(guess.exponent <= top));
        }
        assert!(grid.guesses().last().unwrap().exponent > top);

        // Far enough up that every guess holding the element is dropped.  The
        // new guesses reuse those columns and must find them empty: against
        // what the element itself left behind it would gain nothing.
        grids.observe(0, 25.0);
        let grid = &grids.grids()[0];
        assert!(grid.guesses().iter().all(|guess| guess.members.is_empty()));
        let every_guess = grid.guesses().len();
        let mut tested = 0;
        grids.offer(&evaluator, profile, &[every_guess], |_, _, gain| {
            assert_eq!(gain, delta);
            tested += 1;
            true
        });
        assert_eq!(tested, every_guess);
        let best = grids.into_grids().pop().unwrap().into_best();
        assert_eq!(best.unwrap(), (vec![profile.id()], delta));
    }

    /// A random stream with references, every element still active at the
    /// end: short documents over a small vocabulary (so candidates overlap on
    /// words) and up to three references each (so they overlap on children).
    fn random_engine(rng: &mut StdRng, elements: u64) -> KsirEngine<DenseTopicWordTable> {
        const TOPICS: usize = 3;
        const VOCABULARY: u32 = 12;
        let rows: Vec<Vec<f64>> = (0..TOPICS)
            .map(|_| {
                let mut row: Vec<f64> = (0..VOCABULARY).map(|_| rng.gen::<f64>()).collect();
                let sum: f64 = row.iter().sum();
                row.iter_mut().for_each(|v| *v /= sum);
                row
            })
            .collect();
        let phi = DenseTopicWordTable::from_rows(rows).unwrap();
        let config = EngineConfig::new(
            WindowConfig::new(4 * elements, 1).unwrap(),
            ScoringConfig::new(0.5, 2.0).unwrap(),
        )
        // Two topics kept of three: some elements score on one query slot
        // only, some on none.
        .with_max_topics_per_element(Some(2));
        let mut engine = KsirEngine::new(phi, config).unwrap();
        let mut ts = 0u64;
        for i in 1..=elements {
            ts += rng.gen_range(1..=2u64);
            let words: Vec<u32> = (0..rng.gen_range(1..=5))
                .map(|_| rng.gen_range(0..VOCABULARY))
                .collect();
            let mut builder = SocialElementBuilder::new(i).at(ts).words(words);
            for _ in 0..rng.gen_range(0..=3u64).min(i - 1) {
                builder = builder.referencing(rng.gen_range(1..i));
            }
            let weights: Vec<f64> = (0..TOPICS).map(|_| rng.gen::<f64>()).collect();
            let tv = TopicVector::normalized(weights).unwrap();
            let bucket = vec![(builder.build(), tv)];
            engine.ingest_bucket(bucket, Timestamp(ts)).unwrap();
        }
        engine
    }

    /// One guess of the reference grid: the scalar kernel's own candidate.
    struct ReferenceGuess {
        exponent: i64,
        value: f64,
        threshold: f64,
        state: CandidateState,
    }

    /// One result size of the reference: a grid of private candidates,
    /// re-anchored by hand, and an evaluator of its own, so that its gain
    /// evaluations are counted apart from every other size's.
    struct ReferenceSize<'e> {
        k: usize,
        guesses: Vec<ReferenceGuess>,
        evaluator: QueryEvaluator<'e, DenseTopicWordTable>,
        delta_max: f64,
        /// What this size's singleton scores and gains are multiplied by.
        inflation: f64,
    }

    /// MTTS admits on the guess's threshold; SieveStreaming on what the
    /// candidate still needs per free slot.  Gains are inflated like the
    /// size's singleton scores, or nothing would be admitted once its grid
    /// has jumped.
    fn admits(
        sieve_rule: bool,
        inflation: f64,
        k: usize,
        (value, threshold, score, len): (f64, f64, f64, usize),
        gain: f64,
    ) -> bool {
        if sieve_rule {
            inflation * gain >= (value / 2.0 - inflation * score) / (k - len) as f64
        } else {
            inflation * gain >= threshold
        }
    }

    /// Runs one random case of [`grid_table_matches_one_candidate_state_per_guess`]
    /// and returns the number of steps in which one size dropped a guess
    /// holding members while another size kept every guess it had.
    fn sizes_sharing_one_table_match_the_reference(
        seed: u64,
        sizes: &[usize],
        epsilon: f64,
        sieve_rule: bool,
    ) -> usize {
        let mut rng = StdRng::seed_from_u64(seed);
        let engine = random_engine(&mut rng, 59);
        let vector = QueryVector::new(vec![0.6, 0.0, 0.4]).unwrap();
        let query = KsirQuery::new(sizes[0], vector).unwrap();
        let new_evaluator = || QueryEvaluator::new(engine.scorer(), query.vector());
        let evaluator = new_evaluator();
        let mut grids = GridSet::new(sizes, epsilon, &evaluator);
        let mut reference: Vec<ReferenceSize<'_>> = sizes
            .iter()
            .map(|&k| ReferenceSize {
                k,
                guesses: Vec::new(),
                evaluator: new_evaluator(),
                delta_max: 0.0,
                inflation: 1.0,
            })
            .collect();
        let mut arena = ProfileArena::default();
        let base = 1.0 + epsilon;
        // Every element once, as MTTS and SieveStreaming offer them, plus an
        // inactive id, in random order.
        let mut ids = engine.active_ids();
        ids.push(ElementId(10_000));
        for i in (1..ids.len()).rev() {
            ids.swap(i, rng.gen_range(0..=i));
        }
        let mut reach = Vec::new();
        let mut exercised = 0;

        for id in ids {
            arena.clear();
            let profile = evaluator.profile(&mut arena, id);
            let profile = arena.get(profile);
            // Singleton scores are not what is compared: keep them off every
            // counter.
            let raw_delta = engine.scorer().delta(query.vector(), id);

            reach.clear();
            let (mut dropped_members, mut kept_guesses) = (Vec::new(), Vec::new());
            for (size, model) in reference.iter_mut().enumerate() {
                if rng.gen_bool(0.15) {
                    model.inflation *= [1.2, 2.0, 40.0][rng.gen_range(0..3usize)];
                }
                // Now and then a size sits an element out, as an MTTS size
                // does once its own `UB < TH` test has fired: its grid sees
                // neither the singleton score nor the offer.
                if rng.gen_bool(0.1) {
                    reach.push(0);
                    continue;
                }
                let delta = model.inflation * raw_delta;
                if delta > 0.0 {
                    grids.observe(size, delta);
                }
                if delta > model.delta_max {
                    model.delta_max = delta;
                    let two_k = 2.0 * model.k as f64;
                    let lo = (delta.ln() / base.ln()).ceil() as i64;
                    let hi = ((two_k * delta).ln() / base.ln()).floor() as i64;
                    if model
                        .guesses
                        .iter()
                        .any(|guess| guess.exponent < lo && !guess.state.is_empty())
                    {
                        dropped_members.push(size);
                    }
                    model.guesses.retain(|guess| guess.exponent >= lo);
                    let next = model.guesses.last().map_or(lo, |guess| guess.exponent + 1);
                    model.guesses.extend((next..=hi).map(|exponent| {
                        let value = base.powf(exponent as f64);
                        ReferenceGuess {
                            exponent,
                            value,
                            threshold: value / two_k,
                            state: model.evaluator.new_candidate(),
                        }
                    }));
                } else if !model.guesses.is_empty() {
                    kept_guesses.push(size);
                }
                let grid = &grids.grids()[size];
                let shape = |guess: &Guess| {
                    (
                        guess.exponent,
                        guess.value.to_bits(),
                        guess.threshold.to_bits(),
                    )
                };
                assert_eq!(
                    grid.guesses().iter().map(shape).collect::<Vec<_>>(),
                    model
                        .guesses
                        .iter()
                        .map(|guess| (
                            guess.exponent,
                            guess.value.to_bits(),
                            guess.threshold.to_bits()
                        ))
                        .collect::<Vec<_>>()
                );
                reach.push(if sieve_rule {
                    grid.guesses().len()
                } else {
                    grid.reach(delta)
                });
            }
            if dropped_members
                .iter()
                .any(|dropped| kept_guesses.iter().any(|kept| kept != dropped))
            {
                exercised += 1;
            }

            let mut seen = Vec::new();
            grids.offer(&evaluator, profile, &reach, |k, guess, gain| {
                seen.push((k, guess.exponent, gain.to_bits()));
                let size = sizes.iter().position(|&size| size == k).unwrap();
                let candidate = (
                    guess.value,
                    guess.threshold,
                    guess.score,
                    guess.members.len(),
                );
                admits(sieve_rule, reference[size].inflation, k, candidate, gain)
            });

            // Guess by guess, size by size, gain then insert: the loop MTTS
            // and SieveStreaming ran before the table.
            let (mut expected_seen, mut expected_admitted) = (Vec::new(), Vec::new());
            for (size, model) in reference.iter_mut().enumerate() {
                let (k, inflation) = (model.k, model.inflation);
                for (at, guess) in model.guesses[..reach[size]].iter_mut().enumerate() {
                    if guess.state.len() >= k {
                        continue;
                    }
                    let gain = model.evaluator.gain_of(&guess.state, profile);
                    if !profile.is_active() {
                        continue;
                    }
                    expected_seen.push((k, guess.exponent, gain.to_bits()));
                    let state = &guess.state;
                    let candidate = (guess.value, guess.threshold, state.score(), state.len());
                    if admits(sieve_rule, inflation, k, candidate, gain) {
                        let realised = model.evaluator.insert_profile(&mut guess.state, profile);
                        assert_eq!(realised.to_bits(), gain.to_bits());
                        expected_admitted.push((size, at, realised.to_bits()));
                    }
                }
            }
            assert_eq!(seen, expected_seen);
            let admitted = grids
                .admitted()
                .map(|(size, at, gain)| (size, at, gain.to_bits()));
            assert_eq!(admitted.collect::<Vec<_>>(), expected_admitted);
            let mut every_size = 0;
            for (grid, model) in grids.grids().iter().zip(&reference) {
                assert_eq!(grid.gain_evaluations(), model.evaluator.gain_evaluations());
                every_size += grid.gain_evaluations();
                for (guess, model) in grid.guesses().iter().zip(&model.guesses) {
                    assert_eq!(&guess.members[..], model.state.members());
                    assert_eq!(guess.score.to_bits(), model.state.score().to_bits());
                }
            }
            assert_eq!(evaluator.gain_evaluations(), every_size);
        }

        for (grid, model) in grids.into_grids().into_iter().zip(reference) {
            let best = model
                .guesses
                .into_iter()
                .map(|guess| guess.state)
                .max_by(|a, b| a.score().total_cmp(&b.score()));
            let best = best.map(|state| (state.members().to_vec(), state.score().to_bits()));
            let grid_best = grid.into_best();
            assert_eq!(
                grid_best.map(|(members, score)| (members, score.to_bits())),
                best
            );
        }
        exercised
    }

    /// The batched kernels against the scalar one, bit for bit: one to four
    /// result sizes share one [`GridSet`] table, and random offers are driven
    /// through it and through one reference [`CandidateState`] per guess per
    /// size, under both admission rules.  After every step both see the same
    /// gains, take the same admissions with the same realised gains, reach
    /// the same members and scores and count the same evaluations per size.
    /// Every element of the window and one inactive id are offered once
    /// each, in random order.  Each size's singleton scores are inflated by
    /// a factor of its own that jumps now and then, so one size drops
    /// guesses *with members* and recycles their columns while its
    /// neighbours in the table keep theirs.
    #[test]
    fn grid_table_matches_one_candidate_state_per_guess() {
        let mut cases = StdRng::seed_from_u64(0x9e1d);
        let mut exercised = 0;
        for _ in 0..64 {
            let seed = cases.gen::<u64>();
            let epsilon = [0.1, 0.3, 0.9][cases.gen_range(0..3usize)];
            // One to four distinct sizes, ascending as a cluster passes them.
            let mut sizes: Vec<usize> = (1..=6).filter(|_| cases.gen_bool(0.4)).take(4).collect();
            if sizes.is_empty() {
                sizes.push(cases.gen_range(1..=6));
            }
            for sieve_rule in [false, true] {
                exercised +=
                    sizes_sharing_one_table_match_the_reference(seed, &sizes, epsilon, sieve_rule);
            }
        }
        assert!(
            exercised > 0,
            "no step dropped members in one size while another kept its guesses"
        );
    }
}
