//! The geometric grid of guesses `Φ = {(1+ε)^j}` for the optimal score that
//! MTTS and SieveStreaming both thread their candidates through.
//!
//! Each guess owns an independent candidate set.  Its value `(1+ε)^j` and the
//! admission threshold `(1+ε)^j / 2k` are computed once, when the guess
//! enters the grid, and stored next to the candidate — the element loops only
//! ever compare against stored numbers.
//!
//! The candidates' coverage lives in one [`CoverageTable`], a column per
//! guess, so offering an element to every guess that wants it
//! ([`GuessGrid::offer`]) probes each of its words and children once, not
//! once per guess.

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
    /// The candidate's column of the grid's coverage table.
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
    table: CoverageTable,
    /// Columns of `table` no live guess owns, all of them empty.
    free_columns: Vec<usize>,
    /// Scratch of [`GuessGrid::offer`]: the tested columns and their gains.
    columns: Vec<usize>,
    gains: Vec<f64>,
}

impl GuessGrid {
    /// An empty grid for result size `k` and `ε`, over `evaluator`'s support.
    pub fn new<D: TopicWordDistribution>(
        k: usize,
        epsilon: f64,
        evaluator: &QueryEvaluator<'_, D>,
    ) -> Self {
        let base = 1.0 + epsilon;
        let two_k = 2.0 * k as f64;
        // The live exponents are `⌈x⌉..=⌊x + ln 2k / ln(1+ε)⌋` for some `x`:
        // at most `⌊ln 2k / ln(1+ε)⌋ + 1` of them, and one more in case
        // rounding lands the two ends on different sides of an integer.
        let width = (two_k.ln() / base.ln()).floor() as usize + 2;
        GuessGrid {
            base,
            k,
            two_k,
            max_singleton: 0.0,
            guesses: Vec::new(),
            table: evaluator.new_table(width),
            free_columns: (0..width).rev().collect(),
            columns: Vec::new(),
            gains: Vec::new(),
        }
    }

    /// Feeds one positive singleton score.  When it raises `δmax`, guesses
    /// that fell below the new range are dropped (with their candidates),
    /// surviving guesses keep theirs, and the new top of the range is opened
    /// with empty candidates.
    pub fn observe(&mut self, delta: f64) {
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
                self.table.reset_column(guess.column);
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
                .expect("the table is as wide as the grid can get");
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

    /// Offers one profiled element to every candidate below `k` members
    /// among the first `reach` guesses: each one's marginal gain is evaluated
    /// (one gain evaluation per candidate), and the element joins the
    /// candidates for which `admits(guess, gain)` holds.  Returns the number
    /// of gain evaluations, which is what the grid's result size is charged.
    ///
    /// All gains are read before any insert; the candidates are independent,
    /// so this equals testing and admitting guess by guess.
    pub fn offer<D: TopicWordDistribution>(
        &mut self,
        evaluator: &QueryEvaluator<'_, D>,
        profile: ElementProfile<'_>,
        reach: usize,
        admits: impl Fn(&Guess, f64) -> bool,
    ) -> usize {
        let k = self.k;
        self.columns.clear();
        self.columns.extend(
            self.guesses[..reach]
                .iter()
                .filter(|guess| guess.members.len() < k)
                .map(|guess| guess.column),
        );
        let evaluations = self.columns.len();
        evaluator.column_gains(&mut self.table, &self.columns, profile, &mut self.gains);
        // An inactive element joins no candidate.
        if !profile.is_active() {
            return evaluations;
        }
        let id = profile.id();
        // An insert only ever fills the guess it is for, so this filter picks
        // the guesses the columns were collected from.
        let tested = self.guesses[..reach]
            .iter_mut()
            .filter(|guess| guess.members.len() < k);
        for (guess, &gain) in tested.zip(&self.gains) {
            // A candidate gains nothing from an element it already holds.
            if guess.members.contains(&id) || !admits(guess, gain) {
                continue;
            }
            guess.score += evaluator.insert_column(&mut self.table, guess.column, profile);
            guess.members.push(id);
        }
        evaluations
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

#[cfg(test)]
mod tests {
    use std::cell::{Cell, RefCell};

    use proptest::prelude::*;
    // Explicit trait imports: `proptest::prelude::*` re-exports a different
    // rand version, so the glob `rand::prelude::*` would leave them shadowed.
    use rand::rngs::StdRng;
    use rand::{Rng as _, SeedableRng as _};

    use ksir_stream::WindowConfig;
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
            let mut grid = GuessGrid::new(query.k(), query.epsilon(), &evaluator);
            assert!(grid.is_empty());
            assert_eq!(grid.min_unfilled_threshold(), f64::INFINITY);
            // Rising, repeated and falling singleton scores, over six orders
            // of magnitude (large jumps drop the whole grid).
            let deltas = [
                1e-4, 1.3e-4, 1.3e-4, 9e-5, 2e-3, 2.1e-3, 0.4, 0.39, 7.5, 160.0,
            ];
            let mut delta_max = 0.0_f64;
            for delta in deltas {
                grid.observe(delta);
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

        let mut grid = GuessGrid::new(query.k(), query.epsilon(), &evaluator);
        grid.observe(0.2);
        let top = grid.guesses().last().unwrap().exponent;
        let every_guess = grid.guesses().len();
        grid.offer(&evaluator, profile, every_guess, |_, _| true);
        assert!(grid.guesses().iter().all(|guess| guess.score == delta));

        grid.observe(0.25);
        for guess in grid.guesses() {
            assert_eq!(guess.members.len(), usize::from(guess.exponent <= top));
        }
        assert!(grid.guesses().last().unwrap().exponent > top);

        // Far enough up that every guess holding the element is dropped.  The
        // new guesses reuse those columns and must find them empty: against
        // what the element itself left behind it would gain nothing.
        grid.observe(25.0);
        assert!(grid.guesses().iter().all(|guess| guess.members.is_empty()));
        let every_guess = grid.guesses().len();
        let tested = Cell::new(0);
        grid.offer(&evaluator, profile, every_guess, |_, gain| {
            assert_eq!(gain, delta);
            tested.set(tested.get() + 1);
            true
        });
        assert_eq!(tested.get(), every_guess);
        assert_eq!(grid.into_best().unwrap(), (vec![profile.id()], delta));
    }

    /// One guess of the reference grid: the scalar kernel's own candidate.
    struct ReferenceGuess {
        exponent: i64,
        value: f64,
        threshold: f64,
        state: CandidateState,
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The column kernel against the scalar one, bit for bit: random
        /// offers driven through the grid and through one reference
        /// [`CandidateState`] per guess — guess by guess, gain then insert,
        /// the loop MTTS and SieveStreaming ran before the table — see the
        /// same gains, take the same admissions, reach the same scores and
        /// count the same evaluations after every step.  The offered elements
        /// include repeats and an inactive id; the observed singleton scores
        /// are inflated by a factor that jumps now and then, so guesses are
        /// dropped *with members* and their columns recycled.
        #[test]
        fn grid_table_matches_one_candidate_state_per_guess(
            params in (any::<u64>(), 1usize..=4, 0usize..3, any::<bool>())
        ) {
            let (seed, k, epsilon, sieve_rule) = params;
            let epsilon = [0.1, 0.3, 0.9][epsilon];
            let mut rng = StdRng::seed_from_u64(seed);
            let engine = random_engine(&mut rng, 24);
            let vector = QueryVector::new(vec![0.6, 0.0, 0.4]).unwrap();
            let query = KsirQuery::new(k, vector).unwrap().with_epsilon(epsilon).unwrap();
            let new_evaluator = || crate::QueryEvaluator::new(engine.scorer(), query.vector());
            let (evaluator, reference_evaluator) = (new_evaluator(), new_evaluator());
            let mut grid = GuessGrid::new(query.k(), query.epsilon(), &evaluator);
            let mut reference: Vec<ReferenceGuess> = Vec::new();
            let mut arena = ProfileArena::default();
            let (base, two_k) = (1.0 + epsilon, 2.0 * k as f64);
            let mut ids = engine.active_ids();
            ids.push(ElementId(10_000));
            let mut inflation = 1.0_f64;
            let mut delta_max = 0.0_f64;

            for _ in 0..60 {
                let id = ids[rng.gen_range(0..ids.len())];
                arena.clear();
                let profile = evaluator.profile(&mut arena, id);
                let profile = arena.get(profile);
                if rng.gen_bool(0.15) {
                    inflation *= [1.2, 2.0, 40.0][rng.gen_range(0..3usize)];
                }
                // Singleton scores are not what is compared: keep them off
                // both counters.
                let delta = inflation * engine.scorer().delta(query.vector(), id);

                if delta > 0.0 {
                    grid.observe(delta);
                }
                if delta > delta_max {
                    delta_max = delta;
                    let lo = (delta.ln() / base.ln()).ceil() as i64;
                    let hi = ((two_k * delta).ln() / base.ln()).floor() as i64;
                    reference.retain(|guess| guess.exponent >= lo);
                    let next = reference.last().map_or(lo, |guess| guess.exponent + 1);
                    reference.extend((next..=hi).map(|exponent| {
                        let value = base.powf(exponent as f64);
                        ReferenceGuess {
                            exponent,
                            value,
                            threshold: value / two_k,
                            state: reference_evaluator.new_candidate(),
                        }
                    }));
                }
                let shape = |guess: &Guess| (guess.exponent, guess.value.to_bits(), guess.threshold.to_bits());
                prop_assert_eq!(
                    grid.guesses().iter().map(shape).collect::<Vec<_>>(),
                    reference
                        .iter()
                        .map(|guess| (guess.exponent, guess.value.to_bits(), guess.threshold.to_bits()))
                        .collect::<Vec<_>>()
                );

                // MTTS offers to the guesses δ reaches and admits on the
                // threshold; SieveStreaming offers to all and admits on what
                // the candidate still needs.  Gains are inflated like δ, or
                // nothing would be admitted once the grid has jumped.
                let reach = if sieve_rule { reference.len() } else { grid.reach(delta) };
                let admits = |value: f64, threshold: f64, score: f64, len: usize, gain: f64| {
                    if sieve_rule {
                        inflation * gain >= (value / 2.0 - inflation * score) / (k - len) as f64
                    } else {
                        inflation * gain >= threshold
                    }
                };
                let seen = RefCell::new(Vec::new());
                let before = evaluator.gain_evaluations();
                let charged = grid.offer(&evaluator, profile, reach, |guess, gain| {
                    seen.borrow_mut().push((guess.exponent, gain.to_bits()));
                    admits(guess.value, guess.threshold, guess.score, guess.members.len(), gain)
                });
                prop_assert_eq!(charged, evaluator.gain_evaluations() - before);
                let mut expected = Vec::new();
                for guess in &mut reference[..reach] {
                    if guess.state.len() >= k {
                        continue;
                    }
                    let held = guess.state.contains(id);
                    let gain = reference_evaluator.gain_of(&guess.state, profile);
                    if profile.is_active() && !held {
                        expected.push((guess.exponent, gain.to_bits()));
                    }
                    if admits(guess.value, guess.threshold, guess.state.score(), guess.state.len(), gain) {
                        let realised = reference_evaluator.insert_profile(&mut guess.state, profile);
                        prop_assert_eq!(realised.to_bits(), gain.to_bits());
                    }
                }
                prop_assert_eq!(seen.into_inner(), expected);
                prop_assert_eq!(evaluator.gain_evaluations(), reference_evaluator.gain_evaluations());
                for (guess, model) in grid.guesses().iter().zip(&reference) {
                    prop_assert_eq!(&guess.members[..], model.state.members());
                    prop_assert_eq!(guess.score.to_bits(), model.state.score().to_bits());
                }
            }

            let best = reference
                .into_iter()
                .map(|guess| guess.state)
                .max_by(|a, b| a.score().total_cmp(&b.score()));
            let best = best.map(|state| (state.members().to_vec(), state.score().to_bits()));
            prop_assert_eq!(
                grid.into_best().map(|(members, score)| (members, score.to_bits())),
                best
            );
        }
    }
}
